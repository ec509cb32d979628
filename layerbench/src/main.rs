//! `layerbench`: the repository's one benchmark.
//!
//! ```text
//! layerbench --workload <pbt-check|pbt-produce|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times, then runs
//! fixed-count samples of the workload for `--seconds`, verifies every
//! sample's verdicts against the handwritten checkers outside the timed
//! region, and prints the end-to-end metrics. With `--trace 1` it runs
//! the workload with spans on and off in alternation, writes the spans
//! to `out/`, and adds the layer survey (`survey.rs`). The last line
//! of standard output is one JSON object; the exit code is non-zero on
//! any wrong verdict. See `README.md`.

mod alloc;
mod cases;
mod pbt;
mod serve;
mod stats;
mod survey;
mod trace;

use cases::{Cases, Tally};
use pbt::{Mix, SampleBuf};
use serve::{ServeEnv, CLIENTS, REQUESTS_PER_CLIENT};
use stats::{iqr_share, median, quantile_ns};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use survey::Metric;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: layerbench --workload <pbt-check|pbt-produce|serve-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups timed after each sample; `setup_s` is the median of all.
const SETUPS_PER_SAMPLE: usize = 5;
/// Samples a run takes even when `--seconds` has already passed.
const MIN_SAMPLES: usize = 5;
/// Operations whose spans the traced run writes out.
const SPAN_KEEP: usize = 10_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    PbtCheck,
    PbtProduce,
    ServeMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "pbt-check" => Some(Workload::PbtCheck),
            "pbt-produce" => Some(Workload::PbtProduce),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PbtCheck => "pbt-check",
            Workload::PbtProduce => "pbt-produce",
            Workload::ServeMix => "serve-mix",
        }
    }

    fn mix(self) -> Option<&'static Mix> {
        match self {
            Workload::PbtCheck => Some(&pbt::PBT_CHECK),
            Workload::PbtProduce => Some(&pbt::PBT_PRODUCE),
            Workload::ServeMix => None,
        }
    }

    /// What a user of this workload sets up: the case-study libraries
    /// (parse, derive, lower, VM compile) and, for serving, the shared
    /// core and a server over it.
    fn set_up(self) -> Cases {
        match self.mix() {
            Some(mix) => Cases::for_ops(&mix.ops(), false),
            None => {
                let cases = Cases::for_ops(&[], true);
                std::hint::black_box(indrel_core::Server::new(
                    cases.bst().library().shared(),
                    indrel_core::ServeConfig::default(),
                    indrel_core::Budget::unlimited(),
                ));
                cases
            }
        }
    }

    /// The name users know this workload's throughput by.
    fn throughput_name(self) -> &'static str {
        match self {
            Workload::ServeMix => "req_per_s",
            _ => "tests_per_s",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() != 8 {
        return Err(format!("expected 4 options, got {} arguments", argv.len()));
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let v = &pair[1];
        match pair[0].as_str() {
            "--workload" => {
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?)
            }
            "--seed" => seed = Some(v.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = v.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One fixed-count sample's figures.
struct Sample {
    ops: usize,
    wall: f64,
    p50_us: f64,
    p99_us: f64,
}

impl Sample {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall
    }
}

/// Runs samples of one workload; sample `i` draws its inputs from
/// `(seed, i)`, so runs with the same seed see the same inputs.
struct Driver<'a> {
    workload: Workload,
    cases: &'a Cases,
    seed: u64,
    per_sample: usize,
    buf: SampleBuf,
    serve: Option<ServeEnv>,
    tally: Tally,
}

impl<'a> Driver<'a> {
    fn new(workload: Workload, cases: &'a Cases, seed: u64) -> Driver<'a> {
        let per_sample = workload
            .mix()
            .map_or(CLIENTS * REQUESTS_PER_CLIENT, Mix::tests_per_sample);
        Driver {
            workload,
            cases,
            seed,
            per_sample,
            buf: SampleBuf::with_capacity(per_sample),
            serve: workload
                .mix()
                .is_none()
                .then(|| ServeEnv::new(cases.bst(), seed)),
            tally: Tally::default(),
        }
    }

    fn sample(&mut self, i: u64, mut tracer: Option<&mut Tracer>) -> Sample {
        let wall = match (self.workload.mix(), &self.serve) {
            (Some(mix), _) => {
                let wall = pbt::run_sample(self.cases, mix, self.seed, i, &mut self.buf, tracer);
                self.tally
                    .merge(pbt::verify(self.cases, mix, self.seed, i, &self.buf.codes));
                wall
            }
            (None, Some(env)) => {
                let bst = self.cases.bst();
                let server = env.server();
                let reqs: Vec<_> = (0..CLIENTS)
                    .map(|c| env.requests(bst, self.seed, i, c, REQUESTS_PER_CLIENT))
                    .collect();
                let (wall, runs) = serve::run_sample(env, &server, &reqs, i, tracer.as_deref());
                self.tally.merge(serve::verify(bst, &reqs, &runs));
                self.buf.lat.clear();
                for run in &runs {
                    self.buf.lat.extend_from_slice(&run.lat);
                    if let (Some(all), Some(t)) = (tracer.as_deref_mut(), &run.tracer) {
                        all.merge(t);
                    }
                }
                wall
            }
            (None, None) => unreachable!("serve-mix builds its serve environment"),
        };
        Sample {
            ops: self.per_sample,
            wall,
            p50_us: quantile_ns(&mut self.buf.lat, 0.50) / 1e3,
            p99_us: quantile_ns(&mut self.buf.lat, 0.99) / 1e3,
        }
    }
}

/// The git revision of the source tree, read from the repository's
/// `.git` directory so that nothing outside the tree is read and no
/// process is started; `unknown` outside a git checkout.
fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |name: &str| std::fs::read_to_string(git.join(name)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => read(name).map(|r| r.trim().to_string()).or_else(|| {
            // "<sha> <ref>" lines of a packed ref store
            read("packed-refs")?
                .lines()
                .find_map(|l| Some(l.strip_suffix(name)?.strip_suffix(' ')?.to_string()))
        }),
    };
    rev.filter(|r| r.len() >= 12 && r.bytes().all(|b| b.is_ascii_hexdigit()))
        .map_or_else(|| "unknown".into(), |r| r[..12].to_string())
}

/// The provenance every output carries.
fn stamp(args: &Args, samples: usize, ops_per_sample: usize) -> String {
    format!(
        "{{\"bench\":\"layerbench\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{},\"rev\":\"{}\",\"samples\":{samples},\"ops_per_sample\":{ops_per_sample}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_revision(),
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn untraced(args: &Args) -> (Vec<Metric>, Tally) {
    let w = args.workload;
    let mut setups = Vec::new();
    let mut set_up = || {
        let t = Instant::now();
        let cases = w.set_up();
        setups.push(t.elapsed().as_secs_f64());
        cases
    };
    let cases = set_up();
    let mut d = Driver::new(w, &cases, args.seed);
    d.sample(0, None);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || Instant::now() < deadline {
        samples.push(d.sample(samples.len() as u64 + 1, None));
        // Set-ups spread over the run see the same host as the samples.
        for _ in 0..SETUPS_PER_SAMPLE {
            drop(set_up());
        }
    }
    let tps: Vec<f64> = samples.iter().map(Sample::ops_per_s).collect();
    let n = samples.len();
    let per = d.per_sample;
    let ops_per_s = median(&tps);
    let p50 = median(&samples.iter().map(|s| s.p50_us).collect::<Vec<_>>());
    let p99 = median(&samples.iter().map(|s| s.p99_us).collect::<Vec<_>>());
    let peak = alloc::peak_bytes() as f64 / 1e6;
    let tally = d.tally;
    let tput = w.throughput_name();
    println!("# stamp {}", stamp(args, n, per));
    println!(
        "setup_s        {:>12.6} s    median of {} set-ups",
        median(&setups),
        setups.len()
    );
    println!(
        "{tput:<14} {ops_per_s:>12.1} 1/s  median of {n} samples of {per} ops, IQR {:.1}%",
        100.0 * iqr_share(&tps)
    );
    println!("latency_p50_us {p50:>12.3} us   median of {n} per-sample medians, {per} ops each");
    println!("latency_p99_us {p99:>12.3} us   median of {n} per-sample 99th percentiles");
    println!(
        "failed_frac    {:>12.6}      {} of {} derived operations gave no answer",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!("peak_heap_mb   {peak:>12.3} MB");
    let metrics = vec![
        ("setup_s".into(), median(&setups), "s"),
        ("ops_per_s".into(), ops_per_s, "1/s"),
        ("latency_p50_us".into(), p50, "us"),
        ("latency_p99_us".into(), p99, "us"),
        ("peak_heap_mb".into(), peak, "MB"),
    ];
    (metrics, tally)
}

fn traced(args: &Args) -> (Vec<Metric>, Tally) {
    let w = args.workload;
    let cases = Cases::all();
    let mut d = Driver::new(w, &cases, args.seed);
    d.sample(0, None);
    let mut tracer = Tracer::new(Instant::now(), SPAN_KEEP);
    let deadline = Instant::now() + Duration::from_secs(args.seconds) / 2;
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut i = 1;
    while plain.len() < MIN_SAMPLES || Instant::now() < deadline {
        // Alternate which side of the pair runs first.
        let traced_first = plain.len() % 2 == 1;
        for on in [traced_first, !traced_first] {
            let s = d.sample(i, on.then_some(&mut tracer));
            i += 1;
            if on { &mut spanned } else { &mut plain }.push(s.wall);
        }
    }
    let per = d.per_sample;
    let mut tally = d.tally;
    let mut metrics: Vec<Metric> = vec![(
        "trace.overhead".into(),
        median(&spanned) / median(&plain),
        "ratio",
    )];
    for (layer, ns) in trace::LAYERS.iter().zip(tracer.self_ns()) {
        metrics.push((
            format!("span.{layer}.self_ns"),
            ns as f64 / tracer.ops() as f64,
            "ns",
        ));
    }
    let survey = survey::run(&cases, args.seed, &survey::TRACE_SCALE, &mut tally);
    metrics.extend(survey.metrics);
    let stamp = stamp(args, plain.len() + spanned.len(), per);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{}.jsonl", w.name(), args.seed);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, format!("{stamp}\n{}", tracer.to_json_lines())));
    if let Err(e) = written {
        eprintln!("layerbench: cannot write spans to {path}: {e}");
    }
    println!("# stamp {stamp}");
    println!("# spans of the first {SPAN_KEEP} traced operations: {path}");
    let exact: Vec<String> = survey
        .exact
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("# exact {{{}}}", exact.join(","));
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>14.4} {unit}");
    }
    (metrics, tally)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (metrics, tally) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let correct = tally.wrong == 0;
    if !correct {
        eprintln!(
            "layerbench: {} derived answers disagree with the handwritten checkers",
            tally.wrong
        );
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_repeat_across_same_seed_runs() {
        let scale = survey::Scale {
            ladder_inputs: [64, 64, 16],
            rounds: 2,
            gens: [64, 16],
            search_tests: [100, 100, 20],
            serve_requests: 400,
            contention_ops: 100,
            reps: 1,
        };
        let run = || {
            let mut tally = Tally::default();
            let s = survey::run(&Cases::all(), 11, &scale, &mut tally);
            (s.exact, tally)
        };
        let (a, ta) = run();
        let (b, tb) = run();
        assert_eq!(a, b);
        assert_eq!((ta.wrong, ta.failed), (0, 0));
        assert_eq!(ta, tb);
        assert!(a["search.stlc.enum_enters"] > 0, "{a:?}");
        assert!(a["serve.t1.memo_hits"] > 0, "{a:?}");
    }

    #[test]
    fn every_workload_sample_verifies() {
        let cases = Cases::all();
        for w in [Workload::PbtCheck, Workload::PbtProduce, Workload::ServeMix] {
            let mut d = Driver::new(w, &cases, 3);
            let s = d.sample(1, None);
            assert!(s.p99_us >= s.p50_us && s.ops > 0);
            assert_eq!((d.tally.wrong, d.tally.failed), (0, 0));
            assert!(d.tally.attempted > 0);
        }
    }

    #[test]
    fn a_flipped_verdict_is_caught() {
        let cases = Cases::all();
        for mix in [&pbt::PBT_CHECK, &pbt::PBT_PRODUCE] {
            let mut buf = SampleBuf::with_capacity(mix.tests_per_sample());
            pbt::run_sample(&cases, mix, 5, 1, &mut buf, None);
            let at = buf
                .codes
                .iter()
                .position(|&c| c == cases::TRUE)
                .expect("a passing test");
            buf.codes[at] = cases::FALSE;
            assert_eq!(pbt::verify(&cases, mix, 5, 1, &buf.codes).wrong, 1);
        }
    }
}
