//! Parity of the compiled bytecode VM against the plan interpreter.
//!
//! Every session runs derived checkers whose plan compiled to bytecode
//! on the register VM; the plan interpreter stays as the reference
//! ([`Library::check_interpreted`]) and as the per-relation fallback for
//! plans that do not compile. The two promise equal verdicts, equal
//! budget behaviour (`Result` equality under a step-budget ladder), and
//! equal search aggregation on every counter the interpreter can
//! observe. These tests pin that contract on the three paper case
//! studies — BST, STLC typing, and IFC indistinguishability — plus a
//! relation too wide to compile, whose fallback must still pass through
//! the budget, tabling, and serving layers. Derived producers compile
//! to the same bytecode: compiled generators must draw exactly what the
//! interpreted ones draw ([`Library::try_generate_interpreted`]), and
//! the push enumerators behind compiled checkers' existential premises
//! must force no more of the enumeration than the interpreter's lazy
//! streams.

use indrel::bst::Bst;
use indrel::fuzz::oracles::dispatch_invariant_stats;
use indrel::ifc::Ifc;
use indrel::prelude::*;
use indrel::stlc::Stlc;
use rand::rngs::SmallRng;
use rand::{Rng as _, RngCore as _, SeedableRng};

/// Budget ladder for `Result`-level parity: tight enough that early
/// rungs exhaust mid-search, generous enough that the top rung decides.
const STEP_LADDER: [u64; 6] = [1, 8, 64, 512, 4096, 1 << 20];

/// Asserts the VM ([`Library::check`]) and the interpreter agree on one
/// call: the verdict, and the budgeted `Result` on every rung of the
/// ladder. Returns the verdict.
fn assert_matches_interpreter(
    lib: &Library,
    rel: RelId,
    fuel: u64,
    args: &[Value],
) -> Option<bool> {
    let verdict = lib.check(rel, fuel, fuel, args);
    assert_eq!(
        verdict,
        lib.check_interpreted(rel, fuel, fuel, args),
        "fuel {fuel} on {args:?}"
    );
    for steps in STEP_LADDER {
        let budget = || Budget::unlimited().with_steps(steps);
        assert_eq!(
            lib.try_check(rel, fuel, fuel, args, budget()),
            lib.try_check_interpreted(rel, fuel, fuel, args, budget()),
            "steps {steps} fuel {fuel} on {args:?}"
        );
    }
    verdict
}

/// One way to run a checker call inside a stats sweep.
type CheckFn = fn(&Library, RelId, u64, &[Value]) -> Option<bool>;

const VM: CheckFn = |lib, rel, fuel, args| lib.check(rel, fuel, fuel, args);
const VM_METERED: CheckFn = |lib, rel, fuel, args| {
    let budget = Budget::unlimited().with_steps(u64::MAX / 2);
    lib.try_check(rel, fuel, fuel, args, budget)
        .expect("a generous budget never runs out")
};
const INTERPRETED: CheckFn = |lib, rel, fuel, args| lib.check_interpreted(rel, fuel, fuel, args);

/// Runs `sweep` on fresh forks of `lib` with a [`SearchStats`] probe
/// armed and asserts: the VM's full stats JSON is byte-identical across
/// two identical runs and between a metered and an unmetered sweep, and
/// the VM and the interpreter agree on [`dispatch_invariant_stats`]:
/// entries, memo traffic, depth and term-size histograms, per-rule
/// successes, and step-site unification failures. The remaining fields
/// differ by design, because the interpreter is unindexed and emits no
/// premise attribution: `index_skipped`, per-rule `attempts` and
/// `backtracks` (it attempts every rule the dispatch index prunes),
/// input-site `unify_fails` (where those pruned rules fail), and
/// `premises`.
fn assert_stats_parity(lib: &Library, sweep: impl Fn(&Library, CheckFn)) {
    let run = |check: CheckFn| {
        let session = lib.fork();
        let stats = SearchStats::new();
        {
            let _p = session.arm_probe(ExecProbe::stats(&stats));
            sweep(&session, check);
        }
        (stats, session.memo_counts())
    };
    let vm = run(VM);
    assert_eq!(
        vm.0.to_json(),
        run(VM).0.to_json(),
        "VM stats must be byte-identical across identical runs"
    );
    assert_eq!(
        vm.0.to_json(),
        run(VM_METERED).0.to_json(),
        "arming a meter must not change the VM's stats"
    );
    let interp = run(INTERPRETED);
    assert_eq!(
        dispatch_invariant_stats(&vm.0, vm.1),
        dispatch_invariant_stats(&interp.0, interp.1),
        "VM and interpreter must aggregate the same search"
    );
}

/// An arbitrary tree over small keys — not bounds-respecting, so the
/// corpus mixes both verdicts and plenty of backtracking.
fn arbitrary_tree(bst: &Bst, depth: u64, rng: &mut SmallRng) -> Value {
    if depth == 0 || rng.gen_range(0..4u32) == 0 {
        return bst.leaf();
    }
    bst.tree_node(
        rng.gen_range(0..16u64),
        arbitrary_tree(bst, depth - 1, rng),
        arbitrary_tree(bst, depth - 1, rng),
    )
}

fn bst_corpus(bst: &Bst, n: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            vec![
                Value::nat(0),
                Value::nat(16),
                arbitrary_tree(bst, 4, &mut rng),
            ]
        })
        .collect()
}

#[test]
fn bst_compiles_and_explain_reports_bytecode() {
    let bst = Bst::new();
    let lib = bst.library();
    // The headline fig3 relations must actually take the compiled
    // path — a silent fallback would make every parity test vacuous.
    assert!(lib.vm_compiled(bst.relation()), "bst plan should compile");
    // The ordering relations are *registered* handwritten checkers
    // (primitive instances, no plan), so there is nothing to compile —
    // `vm_compiled` is the honest "does this relation take the VM
    // path" answer, not a failure report.
    assert!(
        !lib.vm_compiled(bst.lt_relation()),
        "primitive instances have no bytecode"
    );
    let explain = lib.explain(bst.relation());
    assert!(
        explain.contains("bytecode:"),
        "explain() should surface the compiled program:\n{explain}"
    );
}

#[test]
fn bst_vm_matches_interpreter_verdicts_stats_and_cutoffs() {
    let bst = Bst::new();
    let lib = bst.library();
    let rel = bst.relation();
    let corpus = bst_corpus(&bst, 80, 11);
    let fuels = [0u64, 2, 5, 9, 64];
    let mut verdicts = [0usize; 3];
    for args in &corpus {
        for fuel in fuels {
            let v = assert_matches_interpreter(lib, rel, fuel, args);
            verdicts[match v {
                Some(true) => 0,
                Some(false) => 1,
                None => 2,
            }] += 1;
        }
    }
    // The corpus must exercise all three verdicts or the sweep proves
    // little.
    assert!(
        verdicts.iter().all(|&n| n > 0),
        "corpus should hit Some(true)/Some(false)/None: {verdicts:?}"
    );
    assert_stats_parity(lib, |session, check| {
        for args in &corpus {
            for fuel in fuels {
                check(session, rel, fuel, args);
            }
        }
    });
}

#[test]
fn stlc_vm_matches_interpreter_on_typing() {
    let stlc = Stlc::new();
    let lib = stlc.library();
    let rel = stlc.typing_relation();
    assert!(lib.vm_compiled(rel), "stlc typing plan should compile");
    let mut rng = SmallRng::seed_from_u64(7);
    let mut corpus: Vec<Vec<Value>> = Vec::new();
    while corpus.len() < 60 {
        let ty = stlc.random_ty(2, &mut rng);
        if let Some(e) = stlc.handwritten_gen(&[], &ty, 4, &mut rng) {
            // Half the corpus gets a mismatched type so ill-typed
            // searches (deep backtracking) are covered too.
            let ty = if corpus.len().is_multiple_of(2) {
                ty
            } else {
                stlc.random_ty(2, &mut rng)
            };
            corpus.push(vec![stlc.ctx(&[]), e, ty]);
        }
    }
    for args in &corpus {
        for fuel in [0, 6, 40] {
            assert_matches_interpreter(lib, rel, fuel, args);
        }
    }
    assert_stats_parity(lib, |session, check| {
        for args in &corpus {
            check(session, rel, 40, args);
        }
    });
}

#[test]
fn ifc_vm_matches_interpreter_on_indist() {
    let ifc = Ifc::new();
    let lib = ifc.library();
    let rel = ifc.indist_relation();
    assert!(lib.vm_compiled(rel), "ifc indist plan should compile");
    let mut rng = SmallRng::seed_from_u64(5);
    let mut corpus: Vec<Vec<Value>> = Vec::new();
    for i in 0..60 {
        let (_, m1, m2) = ifc.gen_indist_pair(6, &mut rng);
        // Even entries stay indistinguishable; odd entries pair two
        // independent machines so `Some(false)` occurs as well.
        let v1 = ifc.machine_value(&m1);
        let v2 = if i % 2 == 0 {
            ifc.machine_value(&m2)
        } else {
            let (_, other, _) = ifc.gen_indist_pair(6, &mut rng);
            ifc.machine_value(&other)
        };
        corpus.push(vec![v1, v2]);
    }
    for args in &corpus {
        for fuel in [0, 8, 64] {
            assert_matches_interpreter(lib, rel, fuel, args);
        }
    }
    assert_stats_parity(lib, |session, check| {
        for args in &corpus {
            check(session, rel, 64, args);
        }
    });
}

#[test]
fn memoized_vm_session_matches_plain_vm_session() {
    let bst = Bst::new();
    let plain = bst.library();
    let rel = bst.relation();
    let memo = plain.fork().with_memo();
    let corpus = bst_corpus(&bst, 120, 41);
    // Ascending fuels: later sweeps answer from entries the earlier
    // sweeps cached (joint fuel monotonicity).
    for fuel in [16u64, 64] {
        for args in &corpus {
            assert_eq!(
                memo.check(rel, fuel, fuel, args),
                plain.check(rel, fuel, fuel, args),
                "fuel {fuel}"
            );
        }
    }
    let stats = memo.memo_stats();
    assert!(
        stats.hits > 0,
        "the memo session should reuse entries: {stats:?}"
    );
}

#[test]
fn shared_serving_sessions_agree_across_backends() {
    let bst = Bst::new();
    let rel = bst.relation();
    let plain = bst.library().fork();
    let corpus = bst_corpus(&bst, 60, 23);
    let config = ServeConfig {
        shards: 4,
        shard_capacity: 1 << 10,
        steps_per_request: 1 << 16,
        max_retries: 2,
        ..ServeConfig::default()
    };
    let server = Server::new(plain.shared(), config, Budget::unlimited());
    let session = server.session();
    let want: Vec<_> = corpus
        .iter()
        .map(|args| Ok(plain.check(rel, 64, 64, args)))
        .collect();
    // Two passes: the second answers mostly from the shared table.
    assert_eq!(session.check_batch(rel, 64, &corpus), want, "first pass");
    let hits_before = server.stats().hits;
    assert_eq!(
        session.check_batch(rel, 64, &corpus),
        want,
        "memo-warm pass"
    );
    assert!(
        server.stats().hits > hits_before,
        "the second pass should answer from the shared table"
    );
}

/// A relation wider than the VM's premise-arity ceiling (8) does not
/// compile; the interpreter runs it instead, under the same entry
/// boundary — budget charge, session memo, shared serving memo.
#[test]
fn uncompiled_relation_falls_back_to_the_interpreter() {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(
        &mut u,
        &mut env,
        r"
        rel wide : nat bool bool bool bool bool bool bool bool :=
        | wide_0 : forall c d e f g h i, wide 0 true c d e f g h i
        | wide_S : forall n b c d e f g h i,
            wide n c b d e f g h i -> wide (S (S n)) b c d e f g h i
        .
        ",
    )
    .unwrap();
    let rel = env.rel_id("wide").unwrap();
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(rel).unwrap();
    let lib = b.build();
    assert!(!lib.vm_compiled(rel), "a 9-ary plan must not compile");
    assert!(lib
        .explain(rel)
        .contains("not compiled (interpreter fallback)"));

    let validator = Validator::new(lib.fork()).unwrap();
    let bits = |k: u32| (0..8).map(move |i| Value::bool(k >> i & 1 == 1));
    let corpus: Vec<Vec<Value>> = (0..6u64)
        .flat_map(|n| (0..256u32).step_by(37).map(move |k| (n, k)))
        .map(|(n, k)| std::iter::once(Value::nat(n)).chain(bits(k)).collect())
        .collect();
    let memo = lib.fork().with_memo();
    let server = Server::new(lib.shared(), ServeConfig::default(), Budget::unlimited());
    let session = server.session();
    let mut verdicts = [0usize; 3];
    for fuel in [0u64, 1, 2, 4] {
        let served = session.check_batch(rel, fuel, &corpus);
        for (args, served) in corpus.iter().zip(served) {
            let v = assert_matches_interpreter(&lib, rel, fuel, args);
            assert_eq!(memo.check(rel, fuel, fuel, args), v, "memo, fuel {fuel}");
            assert_eq!(served, Ok(v), "served, fuel {fuel} on {args:?}");
            verdicts[match v {
                Some(true) => 0,
                Some(false) => 1,
                None => 2,
            }] += 1;
        }
    }
    assert!(
        verdicts.iter().all(|&n| n > 0),
        "corpus should hit Some(true)/Some(false)/None: {verdicts:?}"
    );
    for args in &corpus {
        let case = validator.checker_case(rel, args);
        assert!(case.is_valid(), "{args:?}: {:?}", case.violations);
    }
    assert!(memo.memo_stats().hits > 0, "{:?}", memo.memo_stats());
    assert!(server.stats().hits > 0, "{:?}", server.stats());
}

/// Asserts the compiled generator ([`Library::generate`] and
/// [`Library::try_generate`]) and the interpreted one agree at seeds
/// `0..256`: equal outputs, equal `Result`s on every rung of the step
/// ladder, and an equal generator state afterwards (the same draws).
/// Returns how many seeds produced an output.
fn assert_generator_parity(
    lib: &Library,
    rel: RelId,
    mode: &Mode,
    size: u64,
    inputs: &[Value],
) -> usize {
    let mut produced = 0;
    for seed in 0..256 {
        let rngs = || (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
        let (mut vm_rng, mut interp_rng) = rngs();
        let vm = lib.generate(rel, mode, size, size, inputs, &mut vm_rng);
        let interp = lib.try_generate_interpreted(
            rel,
            mode,
            size,
            size,
            inputs,
            &mut interp_rng,
            Budget::unlimited(),
        );
        assert_eq!(Ok(vm.clone()), interp, "seed {seed} on {inputs:?}");
        assert_eq!(vm_rng.next_u64(), interp_rng.next_u64(), "seed {seed}");
        produced += usize::from(vm.is_some());
        for steps in STEP_LADDER {
            let budget = Budget::unlimited().with_steps(steps);
            let (mut vm_rng, mut interp_rng) = rngs();
            assert_eq!(
                lib.try_generate(rel, mode, size, size, inputs, &mut vm_rng, budget),
                lib.try_generate_interpreted(
                    rel,
                    mode,
                    size,
                    size,
                    inputs,
                    &mut interp_rng,
                    budget
                ),
                "steps {steps} seed {seed} on {inputs:?}"
            );
        }
    }
    // Probe events, too, in the same order: the full stats JSON of a
    // compiled sweep equals the interpreted sweep's byte for byte
    // (producers dispatch linearly, so nothing differs by design).
    let sweep = |interpreted: bool| {
        let session = lib.fork();
        let stats = SearchStats::new();
        let _p = session.arm_probe(ExecProbe::stats(&stats));
        for seed in 0..256 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let budget = Budget::unlimited();
            let _ = if interpreted {
                session.try_generate_interpreted(rel, mode, size, size, inputs, &mut rng, budget)
            } else {
                session.try_generate(rel, mode, size, size, inputs, &mut rng, budget)
            };
        }
        stats.to_json()
    };
    assert_eq!(sweep(false), sweep(true), "generator stats on {inputs:?}");
    produced
}

#[test]
fn bst_generator_vm_matches_interpreter() {
    let bst = Bst::new();
    let lib = bst.library();
    let mode = bst.tree_mode();
    for (lo, hi, size) in [(0, 16, 6), (0, 24, 6), (3, 4, 3), (5, 2, 4)] {
        let inputs = [Value::nat(lo), Value::nat(hi)];
        let produced = assert_generator_parity(lib, bst.relation(), &mode, size, &inputs);
        if lo < hi {
            assert!(produced > 0, "bst {lo} {hi} should generate trees");
        }
    }
}

#[test]
fn stlc_generator_vm_matches_interpreter() {
    let stlc = Stlc::new();
    let lib = stlc.library();
    let mode = stlc.term_mode();
    let mut rng = SmallRng::seed_from_u64(17);
    let mut produced = 0;
    for _ in 0..6 {
        let ty = stlc.random_ty(2, &mut rng);
        let inputs = [stlc.ctx(&[]), ty];
        produced += assert_generator_parity(lib, stlc.typing_relation(), &mode, 4, &inputs);
    }
    assert!(produced > 0, "the STLC generator should produce terms");
}

/// Every derived producer of the three case studies compiles: a silent
/// fallback would leave the producer half of the parity tests running
/// the interpreter against itself.
#[test]
fn case_study_producers_compile() {
    let libs = [
        Bst::new().library().clone(),
        Stlc::new().library().clone(),
        Ifc::new().library().clone(),
    ];
    for lib in &libs {
        let mut producers = 0;
        for (rel, _) in lib.env().iter() {
            let explain = lib.explain(rel);
            assert!(
                !explain.contains("not compiled"),
                "every derived instance should compile:\n{explain}"
            );
            let derived = explain.matches(") (derived):").count();
            producers += derived;
            // Each derived producer is followed by its bytecode listing.
            let listings = explain
                .split("producer ")
                .skip(1)
                .filter(|p| p.contains("(derived):") && p.contains("bytecode: "))
                .count();
            assert_eq!(listings, derived, "{explain}");
        }
        assert!(producers > 0, "the case study derives producers");
    }
}

/// A compiled checker whose existential premise finds its witness in
/// the first enumerated tuple stops the enumerator there: the later
/// handlers (here `le_S`, whose recursive call would enter the
/// enumerator again) are never forced — exactly as the interpreter's
/// lazy stream leaves them unforced.
#[test]
fn compiled_checker_short_circuits_its_enumerator() {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(
        &mut u,
        &mut env,
        r"
        rel le : nat nat :=
        | le_n : forall n, le n n
        | le_S : forall n m, le n m -> le n (S m)
        .
        rel between : nat nat :=
        | b : forall n m p, le n m -> le (S m) p -> between n p
        .
        ",
    )
    .unwrap();
    let between = env.rel_id("between").unwrap();
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(between).unwrap();
    let lib = b.build();
    assert!(lib.vm_compiled(between));
    let enters = |interpreted: bool, args: &[Value]| {
        let session = lib.fork();
        let stats = SearchStats::new();
        let _p = session.arm_probe(ExecProbe::stats(&stats));
        let v = if interpreted {
            session.check_interpreted(between, 8, 8, args)
        } else {
            session.check(between, 8, 8, args)
        };
        (v, stats.enters(indrel::core::ExecKind::Enumerator))
    };
    // `between 1 3`: the first witness, m = 1 from `le_n`, satisfies
    // `le 2 3`; one enumerator entry, no recursion into `le_S`.
    let first = [Value::nat(1), Value::nat(3)];
    assert_eq!(enters(false, &first), (Some(true), 1));
    assert_eq!(enters(false, &first), enters(true, &first));
    // `between 3 1` has no witness: the whole enumeration runs, on both
    // sides alike.
    let none = [Value::nat(3), Value::nat(1)];
    let (v, n) = enters(false, &none);
    assert_ne!(v, Some(true));
    assert!(n > 1, "a failing search enumerates past the first handler");
    assert_eq!((v, n), enters(true, &none));
}

/// Budget parity through enumerators that emit out-of-fuel markers: an
/// external enumerator boundary charges one step per element demanded,
/// markers included, so a compiled checker whose existential premise
/// enumerates near its fuel limit must hit every step budget exactly
/// where the interpreter does.
#[test]
fn enumerator_boundary_charges_match_under_tight_budgets() {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(
        &mut u,
        &mut env,
        r"
        rel le : nat nat :=
        | le_n : forall n, le n n
        | le_S : forall n m, le n m -> le n (S m)
        .
        rel chain : nat :=
        | c0 : chain 0
        | cS : forall n, chain n -> chain (S n)
        .
        rel above : nat :=
        | ab : forall n m, chain m -> le (S n) m -> above n
        .
        ",
    )
    .unwrap();
    let above = env.rel_id("above").unwrap();
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(above).unwrap();
    let lib = b.build();
    assert!(lib.vm_compiled(above));
    let mut cut_offs = 0;
    for n in 0..5u64 {
        for fuel in [1u64, 2, 3, 5] {
            let args = [Value::nat(n)];
            for steps in 1..=120 {
                let budget = Budget::unlimited().with_steps(steps);
                let vm = lib.try_check(above, fuel, fuel, &args, budget);
                assert_eq!(
                    vm,
                    lib.try_check_interpreted(above, fuel, fuel, &args, budget),
                    "n {n} fuel {fuel} steps {steps}"
                );
                cut_offs += usize::from(vm.is_err());
            }
        }
    }
    assert!(cut_offs > 0, "the ladder should cut some searches off");
}
