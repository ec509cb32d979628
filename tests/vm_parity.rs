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
//! the budget, tabling, and serving layers.

use indrel::bst::Bst;
use indrel::fuzz::oracles::dispatch_invariant_stats;
use indrel::ifc::Ifc;
use indrel::prelude::*;
use indrel::stlc::Stlc;
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};

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
