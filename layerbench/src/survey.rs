//! The traced run's layer survey: the same per-layer families on every
//! workload, each timed from the benchmark's own code around calls into
//! one layer's public functions, next to the public counters of that
//! layer.
//!
//! Timed families interleave their configurations round by round and
//! report medians. Count families run fixed work from the seed, so
//! their counts repeat exactly (see [`exact_counts`]).

use crate::alloc;
use crate::cases::{stream_rng, Cases, Input, Op, Tally, FALSE, TRUE};
use crate::cases::{BST_FUEL, BST_HI, BST_LO, IFC_FUEL, STLC_FUEL};
use crate::serve::{self, ServeEnv, CLIENTS};
use crate::stats::median;
use crate::trace::Tracer;
use indrel_core::{Budget, BudgetPool, ExecKind, ExecProbe, Library, LibraryBuilder, Mode};
use indrel_core::{SearchStats, ServeConfig, SharedMemo};
use indrel_pbt::{Runner, TestOutcome};
use indrel_producers::Log2Histogram;
use indrel_rel::parse::parse_program;
use indrel_rel::RelEnv;
use indrel_term::{Interner, RelId, Universe, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Seed-stream coordinates for the survey's own inputs, apart from the
/// workload samples' streams.
const LADDER_STREAM: u64 = 1 << 40;
const GEN_STREAM: u64 = 2 << 40;
const CONTENTION_STREAM: u64 = 3 << 40;

/// How much fixed work each family does.
#[derive(Clone, Copy)]
pub struct Scale {
    /// Pre-generated inputs per ladder case: BST, IFC, STLC.
    pub ladder_inputs: [usize; 3],
    /// Interleaved rounds of the ladder and generator families.
    pub rounds: usize,
    /// Generator calls per round: BST, STLC.
    pub gens: [usize; 2],
    /// Tests per case in the search-count pass: BST, IFC, STLC.
    pub search_tests: [usize; 3],
    /// Requests per client in the serve passes.
    pub serve_requests: usize,
    /// Operations per thread in each contention timing.
    pub contention_ops: usize,
    /// Repetitions of each contention timing and set-up breakdown.
    pub reps: usize,
}

/// The scale of the traced run.
pub const TRACE_SCALE: Scale = Scale {
    ladder_inputs: [2048, 2048, 128],
    rounds: 9,
    gens: [2048, 256],
    search_tests: [4000, 4000, 500],
    serve_requests: 20_000,
    contention_ops: 50_000,
    reps: 7,
};

// ---------------------------------------------------------------------
// Set-up breakdown
// ---------------------------------------------------------------------

/// `[parse, derive, build]` time of building all three case studies
/// the way their constructors do.
fn setup_phases() -> [Duration; 3] {
    let mut t = [Duration::ZERO; 3];
    let mut lap = |phase: usize, start: &mut Instant| {
        let now = Instant::now();
        t[phase] += now - *start;
        *start = now;
    };

    // BST, with the handwritten ordering checkers `Bst::new` registers.
    let mut clock = Instant::now();
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(&mut u, &mut env, indrel_bst::BST_SOURCE).expect("BST source parses");
    lap(0, &mut clock);
    let bst = env.rel_id("bst").expect("declared");
    let le = env.rel_id("le'").expect("declared");
    let lt = env.rel_id("lt'").expect("declared");
    let mut b = LibraryBuilder::new(u, env);
    b.register_checker(
        le,
        Arc::new(|_, _, args: &[Value]| Some(args[0].as_nat()? <= args[1].as_nat()?)),
    );
    b.register_checker(
        lt,
        Arc::new(|_, _, args: &[Value]| Some(args[0].as_nat()? < args[1].as_nat()?)),
    );
    b.derive_checker(bst).expect("bst checker derives");
    b.derive_producer(bst, Mode::producer(3, &[2]))
        .expect("bst producer derives");
    lap(1, &mut clock);
    black_box(b.build());
    lap(2, &mut clock);

    // IFC.
    let mut u = Universe::new();
    u.std_list();
    let mut env = RelEnv::new();
    parse_program(&mut u, &mut env, indrel_ifc::IFC_SOURCE).expect("IFC source parses");
    lap(0, &mut clock);
    let indist = env.rel_id("indist").expect("declared");
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(indist).expect("indist checker derives");
    b.derive_producer(indist, Mode::producer(2, &[1]))
        .expect("indist producer derives");
    lap(1, &mut clock);
    black_box(b.build());
    lap(2, &mut clock);

    // STLC: the corpus environment is where its parsing happens.
    let (u, env) = indrel_corpus::corpus_env();
    lap(0, &mut clock);
    let typing = env.rel_id("stlc_typing").expect("corpus relation");
    let step = env.rel_id("stlc_step").expect("corpus relation");
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(typing).expect("typing checker derives");
    b.derive_producer(typing, Mode::producer(3, &[2]))
        .expect("inference derives");
    b.derive_producer(typing, Mode::producer(3, &[1]))
        .expect("term generator derives");
    b.derive_checker(step).expect("step checker derives");
    b.derive_producer(step, Mode::producer(2, &[1]))
        .expect("step producer derives");
    lap(1, &mut clock);
    black_box(b.build());
    lap(2, &mut clock);
    t
}

fn setup_family(scale: &Scale, out: &mut Vec<Metric>) {
    let runs: Vec<[Duration; 3]> = (0..scale.reps).map(|_| setup_phases()).collect();
    for (i, name) in ["rel.parse.ms", "core.derive.ms", "core.build.ms"]
        .iter()
        .enumerate()
    {
        let ms: Vec<f64> = runs.iter().map(|r| r[i].as_secs_f64() * 1e3).collect();
        out.push((name.to_string(), median(&ms), "ms"));
    }
}

// ---------------------------------------------------------------------
// Layer ladder
// ---------------------------------------------------------------------

/// Rungs from the handwritten baseline inward through each backend and
/// then outward through the memo, the meter and the probe.
pub const RUNGS: [&str; 7] = [
    "hand", "interp", "closure", "vm", "vm_memo", "metered", "probed",
];

/// Ladder cases: name, test shape, relation, fuel.
fn ladder_cases(cases: &Cases) -> [(&'static str, Op, &Library, RelId, u64); 3] {
    [
        (
            "bst",
            Op::BstCheck,
            cases.bst().library(),
            cases.bst().relation(),
            BST_FUEL,
        ),
        (
            "ifc",
            Op::IfcCheck,
            cases.ifc().library(),
            cases.ifc().indist_relation(),
            IFC_FUEL,
        ),
        (
            "stlc",
            Op::StlcCheck,
            cases.stlc().library(),
            cases.stlc().typing_relation(),
            STLC_FUEL,
        ),
    ]
}

/// The checker argument tuple of a generated input.
fn check_args(cases: &Cases, op: Op, input: Input) -> Option<Vec<Value>> {
    match (op, input) {
        (Op::BstCheck, Input::One(t)) => Some(vec![Value::nat(BST_LO), Value::nat(BST_HI), t]),
        (Op::IfcCheck, Input::Two(a, b)) => Some(vec![a, b]),
        (Op::StlcCheck, Input::Two(e, ty)) => Some(vec![cases.stlc().ctx(&[]), e, ty]),
        _ => None,
    }
}

/// One ladder rung of one case.
#[derive(Clone, Debug, Default)]
pub struct RungRow {
    /// Median ns per check over the rounds.
    pub ns: f64,
    /// Allocations of one post-warm-up pass.
    pub allocs: u64,
    /// Bytes requested in that pass.
    pub bytes: u64,
    /// Checks in one pass.
    pub checks: u64,
}

/// Times every rung on every case over pre-generated inputs, rounds
/// interleaving the rungs; verdicts are checked against the handwritten
/// checker in an untimed pass first.
pub fn ladder(
    cases: &Cases,
    seed: u64,
    scale: &Scale,
    tally: &mut Tally,
) -> Vec<(String, RungRow)> {
    let mut rows = Vec::new();
    for (ci, (name, op, lib, rel, fuel)) in ladder_cases(cases).into_iter().enumerate() {
        let mut rng = stream_rng(seed, LADDER_STREAM, ci as u64);
        let inputs: Vec<Vec<Value>> = (0..scale.ladder_inputs[ci])
            .filter_map(|_| check_args(cases, op, cases.gen_input(op, &mut rng)))
            .collect();
        let hand: Vec<bool> = inputs.iter().map(|a| hand_on_args(cases, op, a)).collect();
        let vm = lib.fork().with_vm();
        let vm_memo = lib.fork().with_vm().with_memo();
        let probed = lib.fork();
        let stats = SearchStats::new();
        let _armed = probed.arm_probe(ExecProbe::stats(&stats));
        let budget = Budget::unlimited().with_steps(u64::MAX / 2);
        let run = |rung: usize, args: &[Value]| -> Option<bool> {
            match rung {
                0 => Some(hand_on_args(cases, op, args)),
                1 => lib.check_interpreted(rel, fuel, fuel, args),
                2 => lib.check(rel, fuel, fuel, args),
                3 => vm.check(rel, fuel, fuel, args),
                4 => vm_memo.check(rel, fuel, fuel, args),
                5 => lib.try_check(rel, fuel, fuel, args, budget).ok().flatten(),
                _ => probed.check(rel, fuel, fuel, args),
            }
        };
        for rung in 0..RUNGS.len() {
            for (i, args) in inputs.iter().enumerate() {
                let v = run(rung, args);
                tally.add(crate::cases::code(v), hand[i]);
            }
        }
        let mut ns = vec![Vec::new(); RUNGS.len()];
        let mut counts = vec![(0, 0); RUNGS.len()];
        for round in 0..scale.rounds {
            for (rung, samples) in ns.iter_mut().enumerate() {
                let (a0, b0) = alloc::thread_counts();
                let t = Instant::now();
                for args in &inputs {
                    black_box(run(rung, black_box(args)));
                }
                let el = t.elapsed();
                let (a1, b1) = alloc::thread_counts();
                samples.push(el.as_nanos() as f64 / inputs.len() as f64);
                if round == 1 {
                    counts[rung] = (a1 - a0, b1 - b0);
                }
            }
        }
        for (rung, rung_name) in RUNGS.iter().enumerate() {
            rows.push((
                format!("{name}.{rung_name}"),
                RungRow {
                    ns: median(&ns[rung]),
                    allocs: counts[rung].0,
                    bytes: counts[rung].1,
                    checks: inputs.len() as u64,
                },
            ));
        }
    }
    rows
}

fn hand_on_args(cases: &Cases, op: Op, args: &[Value]) -> bool {
    match op {
        Op::BstCheck => cases.bst().handwritten_check(BST_LO, BST_HI, &args[2]),
        Op::IfcCheck => cases.ifc().handwritten_indist_value(&args[0], &args[1]),
        _ => cases.stlc().handwritten_check(&[], &args[1], &args[2]),
    }
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// One generator configuration of the generator family.
#[derive(Clone, Debug, Default)]
pub struct GenRow {
    /// Median ns per generator call over the rounds.
    pub ns: f64,
    /// Allocations of one post-warm-up round.
    pub allocs: u64,
    /// Bytes requested in that round.
    pub bytes: u64,
    /// Calls in one round.
    pub round_calls: u64,
    /// Calls that returned an input, over all rounds.
    pub yielded: u64,
    /// Calls, over all rounds.
    pub calls: u64,
}

/// Times the handwritten and derived BST and STLC generators, rounds
/// interleaving them; every derived output must satisfy the
/// handwritten checker.
pub fn gens(cases: &Cases, seed: u64, scale: &Scale, tally: &mut Tally) -> Vec<(String, GenRow)> {
    let configs = [
        ("bst.hand", Op::BstCheck, 0),
        ("bst.derived", Op::BstGen, 0),
        ("stlc.hand", Op::StlcCheck, 1),
        ("stlc.derived", Op::StlcGen, 1),
    ];
    let mut ns = vec![Vec::new(); configs.len()];
    let mut rows = vec![GenRow::default(); configs.len()];
    for round in 0..scale.rounds {
        for (k, &(_, op, case)) in configs.iter().enumerate() {
            let n = scale.gens[case];
            let mut rng = stream_rng(seed, GEN_STREAM + k as u64, round as u64);
            let mut yielded = 0;
            let (a0, b0) = alloc::thread_counts();
            let t = Instant::now();
            for _ in 0..n {
                let input = cases.gen_input(op, &mut rng);
                yielded += u64::from(!matches!(input, Input::Missing));
                black_box(input);
            }
            let el = t.elapsed();
            let (a1, b1) = alloc::thread_counts();
            ns[k].push(el.as_nanos() as f64 / n as f64);
            rows[k].yielded += yielded;
            rows[k].calls += n as u64;
            if round == 1 {
                rows[k].allocs = a1 - a0;
                rows[k].bytes = b1 - b0;
                rows[k].round_calls = n as u64;
            }
        }
    }
    for (k, &(_, op, case)) in configs.iter().enumerate() {
        if op.derives_input() {
            let mut rng = stream_rng(seed, GEN_STREAM + k as u64, u64::MAX);
            for _ in 0..scale.gens[case] {
                let input = cases.gen_input(op, &mut rng);
                tally.add(cases.run_check(op, &input), true);
            }
        }
        rows[k].ns = median(&ns[k]);
    }
    configs.iter().map(|c| c.0.to_string()).zip(rows).collect()
}

// ---------------------------------------------------------------------
// Search and meter counts
// ---------------------------------------------------------------------

/// Exact search and runner-meter totals of one case's Figure 3 checker
/// test, run by the PBT runner with a [`SearchStats`] probe armed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchRow {
    /// Tests the runner attempted.
    pub tests: u64,
    /// Checker entries.
    pub checker_enters: u64,
    /// Enumerator entries.
    pub enum_enters: u64,
    /// Rule attempts.
    pub attempts: u64,
    /// Rule successes.
    pub successes: u64,
    /// Unification failures.
    pub unify_fails: u64,
    /// Runner meter steps (one per attempted test).
    pub steps: u64,
    /// Runner meter backtracks (one per discard).
    pub backtracks: u64,
}

/// Runs each case's checker test under the PBT runner with search
/// statistics armed.
pub fn search(cases: &Cases, seed: u64, scale: &Scale) -> Vec<(String, SearchRow)> {
    ladder_cases(cases)
        .into_iter()
        .enumerate()
        .map(|(ci, (name, op, lib, _, _))| {
            let stats = SearchStats::new();
            let report = {
                let _armed = lib.arm_probe(ExecProbe::stats(&stats));
                Runner::new(seed).run(
                    scale.search_tests[ci],
                    |_, rng| match cases.gen_input(op, rng) {
                        Input::One(t) => Some(vec![t]),
                        Input::Two(a, b) => Some(vec![a, b]),
                        Input::Missing => None,
                    },
                    |args| {
                        let input = match args {
                            [t] => Input::One(t.clone()),
                            [a, b] => Input::Two(a.clone(), b.clone()),
                            _ => Input::Missing,
                        };
                        match cases.run_check(op, &input) {
                            TRUE => TestOutcome::Pass,
                            FALSE => TestOutcome::Fail,
                            _ => TestOutcome::Discard,
                        }
                    },
                )
            };
            let row = SearchRow {
                tests: report.attempts() as u64,
                checker_enters: stats.enters(ExecKind::Checker),
                enum_enters: stats.enters(ExecKind::Enumerator),
                attempts: stats.total_attempts(),
                successes: stats.total_successes(),
                unify_fails: stats.total_unify_fails(),
                steps: report.spent.steps,
                backtracks: report.spent.backtracks,
            };
            (name.to_string(), row)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------

/// Counters of one serve pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeCounts {
    /// Requests sent.
    pub requests: u64,
    /// Library meter steps the server charged (`serve.steps`).
    pub steps: u64,
    /// Client-thread allocations while sending.
    pub allocs: u64,
    /// Client-thread bytes requested while sending.
    pub bytes: u64,
    /// Shared-memo hits.
    pub hits: u64,
    /// Shared-memo misses.
    pub misses: u64,
    /// Shared-memo insertions.
    pub insertions: u64,
    /// Shared-memo entries after the pass.
    pub entries: u64,
}

/// One pass of `clients` clients on a fresh server, traced when
/// `trace` is given. Returns the pass's wall seconds, counters, and
/// merged spans.
#[allow(clippy::too_many_arguments)]
pub fn serve_pass(
    cases: &Cases,
    env: &ServeEnv,
    seed: u64,
    sample: u64,
    clients: usize,
    requests: usize,
    trace: Option<&Tracer>,
    tally: &mut Tally,
) -> (f64, ServeCounts, Option<Tracer>) {
    let bst = cases.bst();
    let server = env.server();
    let reqs: Vec<_> = (0..clients)
        .map(|c| env.requests(bst, seed, sample, c, requests))
        .collect();
    let (wall, runs) = serve::run_sample(env, &server, &reqs, sample, trace);
    tally.merge(serve::verify(bst, &reqs, &runs));
    let stats = server.stats();
    let counts = ServeCounts {
        requests: (clients * requests) as u64,
        steps: server.snapshot().counter("serve.steps").unwrap_or(0),
        allocs: runs.iter().map(|r| r.allocs.0).sum(),
        bytes: runs.iter().map(|r| r.allocs.1).sum(),
        hits: stats.hits,
        misses: stats.misses,
        insertions: stats.insertions,
        entries: stats.entries as u64,
    };
    let tracer = trace.map(|t| {
        let mut all = t.empty_like();
        for r in &runs {
            all.merge(r.tracer.as_ref().expect("traced clients record spans"));
        }
        all
    });
    (wall, counts, tracer)
}

/// The serve metrics; returns the counters of the first one-client
/// pass, which belong to the exact-count set.
fn serve_family(
    cases: &Cases,
    env: &ServeEnv,
    seed: u64,
    scale: &Scale,
    tally: &mut Tally,
    out: &mut Vec<Metric>,
) -> ServeCounts {
    let n = scale.serve_requests;
    let template = Tracer::new(Instant::now(), 0);
    let (_, c, tracer) = serve_pass(cases, env, seed, 1, CLIENTS, n, Some(&template), tally);
    let tr = tracer.expect("traced pass");
    let per = |x: u64| x as f64 / tr.ops() as f64;
    let [root, gen, check] = tr.self_ns();
    out.push(("serve.request.ns".into(), per(check), "ns"));
    out.push(("serve.client.ns".into(), per(root + gen), "ns"));
    let per_req = |x: u64| x as f64 / c.requests as f64;
    out.push(("serve.steps_per_request".into(), per_req(c.steps), "count"));
    out.push((
        "serve.allocs_per_request".into(),
        per_req(c.allocs),
        "count",
    ));
    out.push(("serve.bytes_per_request".into(), per_req(c.bytes), "B"));
    out.push((
        "memo.hit_ratio".into(),
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        "ratio",
    ));
    out.push(("memo.entries".into(), c.entries as f64, "count"));

    // Scaling: 1 and 2 clients, alternating, same requests per client.
    let (mut one, mut two) = (Vec::new(), Vec::new());
    let mut first = None;
    for pair in 0..3u64 {
        for clients in [1, 2] {
            let (wall, c, _) = serve_pass(cases, env, seed, 2 + pair, clients, n, None, tally);
            let rps = c.requests as f64 / wall;
            if clients == 1 {
                one.push(rps);
                first.get_or_insert(c);
            } else {
                two.push(rps);
            }
        }
    }
    out.push((
        "serve.scaling_2v1".into(),
        median(&two) / median(&one),
        "ratio",
    ));
    first.expect("at least one one-client pass")
}

// ---------------------------------------------------------------------
// Contention candidates
// ---------------------------------------------------------------------

/// Mean ns per operation seen by each of `threads` threads, released
/// together, each running `work(thread)` (which returns its operation
/// count).
fn per_thread_ns(threads: usize, work: &(dyn Fn(usize) -> usize + Sync)) -> f64 {
    let barrier = Barrier::new(threads);
    let ns: Vec<f64> = std::thread::scope(|scope| {
        let hs: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let ops = work(t);
                    let ns = start.elapsed().as_nanos() as f64 / ops as f64;
                    alloc::flush_thread();
                    ns
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("contention thread panicked"))
            .collect()
    });
    ns.iter().sum::<f64>() / ns.len() as f64
}

/// The fingerprint the memo layer keys a `(rel, args)` query by: each
/// argument's structural fingerprint folded into the relation's.
fn query_fp(interner: &mut Interner, rel: RelId, args: &[Value]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ (rel.index() as u64);
    for a in args {
        h = (h.rotate_left(5) ^ interner.fingerprint(a)).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
    h
}

fn contention_family(
    cases: &Cases,
    env: &ServeEnv,
    seed: u64,
    scale: &Scale,
    out: &mut Vec<Metric>,
) {
    let bst = cases.bst();
    let rel = env.rel();
    let n = scale.contention_ops;
    let cfg = ServeConfig::default();
    let fuel = BST_FUEL;
    let streams: Vec<Vec<Vec<Value>>> = (0..2)
        .map(|c| env.requests(bst, seed, CONTENTION_STREAM, c, n))
        .collect();
    let mut interner = Interner::new(indrel_core::memo::DEFAULT_CAPACITY);
    let keyed: Vec<Vec<(u64, Vec<Value>)>> = streams
        .iter()
        .map(|s| {
            s.iter()
                .map(|a| (query_fp(&mut interner, rel, a), a.clone()))
                .collect()
        })
        .collect();
    let verdict = |a: &[Value]| bst.handwritten_check(BST_LO, serve::SERVE_HI, &a[2]);
    let reps = scale.reps;
    let med = |f: &dyn Fn() -> f64| median(&(0..reps).map(|_| f()).collect::<Vec<_>>());

    let server = env.server();
    let admit = |_: usize| {
        for _ in 0..n {
            drop(black_box(
                server.try_admit().expect("two threads stay under capacity"),
            ));
        }
        n
    };
    // Keys 0, 4, 8, ... of each stream are hot-set trees, so every hot
    // tree gets an entry and the fresh quarter of the lookups misses.
    let warm = SharedMemo::new(cfg.shards, cfg.shard_capacity);
    for s in &keyed {
        for (fp, a) in s.iter().step_by(4) {
            warm.insert(rel, *fp, a, fuel, fuel, verdict(a));
        }
    }
    let lookup = |t: usize| {
        for (fp, a) in &keyed[t] {
            black_box(warm.lookup(rel, *fp, a, fuel, fuel));
        }
        keyed[t].len()
    };
    let pool = BudgetPool::new(Budget::unlimited());
    let draw = |_: usize| {
        for _ in 0..n {
            let got = pool.draw_steps(cfg.steps_per_request);
            pool.return_steps(got - got.min(100));
        }
        n
    };
    // The server records every request's latency in microseconds into
    // one shared histogram; a few microseconds is the typical value.
    let latency = Log2Histogram::new();
    let record = |_: usize| {
        for i in 0..n {
            latency.record(1 + (i as u64 & 3));
        }
        n
    };
    for threads in [1, 2] {
        out.push((
            format!("serve.admit.ns.t{threads}"),
            med(&|| per_thread_ns(threads, &admit)),
            "ns",
        ));
        out.push((
            format!("serve.memo_lookup.ns.t{threads}"),
            med(&|| per_thread_ns(threads, &lookup)),
            "ns",
        ));
        out.push((
            format!("pool.draw.ns.t{threads}"),
            med(&|| per_thread_ns(threads, &draw)),
            "ns",
        ));
        out.push((
            format!("metrics.latency_record.ns.t{threads}"),
            med(&|| per_thread_ns(threads, &record)),
            "ns",
        ));
    }
    let insert = || {
        let memo = SharedMemo::new(cfg.shards, cfg.shard_capacity);
        let t = Instant::now();
        for (fp, a) in &keyed[0] {
            memo.insert(rel, *fp, a, fuel, fuel, true);
        }
        t.elapsed().as_nanos() as f64 / keyed[0].len() as f64
    };
    out.push(("serve.memo_insert.ns.t1".into(), med(&insert), "ns"));
    let fingerprint = || {
        let mut interner = Interner::new(indrel_core::memo::DEFAULT_CAPACITY);
        let t = Instant::now();
        for a in &streams[0] {
            black_box(interner.fingerprint(&a[2]));
        }
        t.elapsed().as_nanos() as f64 / streams[0].len() as f64
    };
    out.push(("term.fingerprint.ns".into(), med(&fingerprint), "ns"));
}

// ---------------------------------------------------------------------
// The survey and the exact-count set
// ---------------------------------------------------------------------

/// The survey's output.
pub struct Survey {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// The exact-count set: counts that must repeat identically across
    /// two runs with the same seed. Search totals and runner meter
    /// spend, allocation counts of single-thread paths (ladder rungs,
    /// derived generators), and the memo and serve counters of a
    /// one-client serve pass. Memo hits and misses with two clients are
    /// left out: which client fills an entry first varies between runs.
    pub exact: BTreeMap<String, u64>,
}

/// Runs every family at `scale`; wrong verdicts and non-answers land
/// in `tally`.
pub fn run(cases: &Cases, seed: u64, scale: &Scale, tally: &mut Tally) -> Survey {
    let mut out = Vec::new();
    let mut exact = BTreeMap::new();
    setup_family(scale, &mut out);
    for (name, r) in ladder(cases, seed, scale, tally) {
        out.push((format!("ladder.{name}.ns"), r.ns, "ns"));
        out.push((
            format!("ladder.{name}.allocs"),
            r.allocs as f64 / r.checks as f64,
            "count",
        ));
        out.push((
            format!("ladder.{name}.bytes"),
            r.bytes as f64 / r.checks as f64,
            "B",
        ));
        exact.insert(format!("ladder.{name}.allocs"), r.allocs);
        exact.insert(format!("ladder.{name}.bytes"), r.bytes);
    }
    for (name, r) in gens(cases, seed, scale, tally) {
        out.push((format!("gen.{name}.ns"), r.ns, "ns"));
        if name.ends_with("derived") {
            let calls = r.round_calls as f64;
            out.push((
                format!("gen.{name}.allocs"),
                r.allocs as f64 / calls,
                "count",
            ));
            out.push((format!("gen.{name}.bytes"), r.bytes as f64 / calls, "B"));
            out.push((
                format!("gen.{name}.yield"),
                r.yielded as f64 / r.calls as f64,
                "ratio",
            ));
            exact.insert(format!("gen.{name}.allocs"), r.allocs);
            exact.insert(format!("gen.{name}.bytes"), r.bytes);
            exact.insert(format!("gen.{name}.yielded"), r.yielded);
        }
    }
    for (name, r) in search(cases, seed, scale) {
        let per = |x: u64| x as f64 / r.tests as f64;
        out.push((
            format!("search.{name}.checker_enters"),
            per(r.checker_enters),
            "count",
        ));
        out.push((
            format!("search.{name}.enum_enters"),
            per(r.enum_enters),
            "count",
        ));
        out.push((format!("search.{name}.attempts"), per(r.attempts), "count"));
        out.push((
            format!("search.{name}.unify_fails"),
            per(r.unify_fails),
            "count",
        ));
        out.push((
            format!("search.{name}.success_ratio"),
            r.successes as f64 / r.attempts.max(1) as f64,
            "ratio",
        ));
        out.push((format!("meter.{name}.steps"), per(r.steps), "count"));
        out.push((
            format!("meter.{name}.backtracks"),
            per(r.backtracks),
            "count",
        ));
        for (k, v) in [
            ("tests", r.tests),
            ("checker_enters", r.checker_enters),
            ("enum_enters", r.enum_enters),
            ("attempts", r.attempts),
            ("successes", r.successes),
            ("unify_fails", r.unify_fails),
            ("meter_steps", r.steps),
            ("meter_backtracks", r.backtracks),
        ] {
            exact.insert(format!("search.{name}.{k}"), v);
        }
    }
    let env = ServeEnv::new(cases.bst(), seed);
    let c = serve_family(cases, &env, seed, scale, tally, &mut out);
    for (k, v) in [
        ("requests", c.requests),
        ("steps", c.steps),
        ("allocs", c.allocs),
        ("bytes", c.bytes),
        ("memo_hits", c.hits),
        ("memo_misses", c.misses),
        ("memo_insertions", c.insertions),
        ("memo_entries", c.entries),
    ] {
        exact.insert(format!("serve.t1.{k}"), v);
    }
    contention_family(cases, &env, seed, scale, &mut out);
    Survey {
        metrics: out,
        exact,
    }
}
