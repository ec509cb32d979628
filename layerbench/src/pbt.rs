//! The two PBT workloads: Figure 3's checker loop (`pbt-check`) and
//! its producer-bound half (`pbt-produce`).
//!
//! A sample is a fixed count of tests: `rounds` repetitions of the
//! workload's case mix, each mix entry a block of `weight × BLOCK`
//! tests with its own seeded generator. Blocks interleave the cases, so
//! a transient slowdown hits every case alike, and each block can be
//! replayed to verify its verdicts outside the timed region.

use crate::cases::{stream_rng, Cases, Op, Tally};
use crate::trace::Tracer;
use std::time::Instant;

/// Tests per unit of mix weight in one block.
pub const BLOCK: usize = 64;

/// One PBT workload: its case mix and sample size.
pub struct Mix {
    /// `(test shape, weight)` entries, run in order within a round.
    pub entries: &'static [(Op, usize)],
    /// Rounds of the mix per sample.
    pub rounds: usize,
}

/// `pbt-check`: derived BST and IFC checkers on handwritten inputs.
/// Weights 4:3 give the two cases about equal time.
pub const PBT_CHECK: Mix = Mix {
    entries: &[(Op::BstCheck, 4), (Op::IfcCheck, 3)],
    rounds: 100,
};

/// `pbt-produce`: the STLC typing check, whose derived checker runs
/// type-inference enumerators, plus the derived BST and STLC
/// generators under handwritten checkers. Weights 1:6:2 give the three
/// cases about equal time.
pub const PBT_PRODUCE: Mix = Mix {
    entries: &[(Op::StlcCheck, 1), (Op::BstGen, 6), (Op::StlcGen, 2)],
    rounds: 20,
};

impl Mix {
    /// Tests in one sample.
    pub fn tests_per_sample(&self) -> usize {
        self.rounds * self.entries.iter().map(|(_, w)| w * BLOCK).sum::<usize>()
    }

    /// The test shapes this mix runs.
    pub fn ops(&self) -> Vec<Op> {
        self.entries.iter().map(|(op, _)| *op).collect()
    }

    fn blocks(&self) -> impl Iterator<Item = (u64, Op, usize)> + '_ {
        (0..self.rounds)
            .flat_map(move |_| self.entries.iter())
            .enumerate()
            .map(|(b, &(op, w))| (b as u64, op, w * BLOCK))
    }
}

/// Per-test latencies (ns) and recorded codes of one sample.
pub struct SampleBuf {
    /// Latency of each test, generation plus property.
    pub lat: Vec<u32>,
    /// [`Code`](crate::cases::Code) of each test.
    pub codes: Vec<u8>,
}

impl SampleBuf {
    /// Buffers for `n` tests, allocated before any timing.
    pub fn with_capacity(n: usize) -> SampleBuf {
        SampleBuf {
            lat: Vec::with_capacity(n),
            codes: Vec::with_capacity(n),
        }
    }
}

/// Runs sample `sample` of `mix` and returns its wall time in seconds.
/// With a tracer, every test also records its spans.
pub fn run_sample(
    cases: &Cases,
    mix: &Mix,
    seed: u64,
    sample: u64,
    buf: &mut SampleBuf,
    mut tracer: Option<&mut Tracer>,
) -> f64 {
    buf.lat.clear();
    buf.codes.clear();
    let tracing = tracer.is_some();
    let mut req = sample << 32;
    let start = Instant::now();
    for (b, op, n) in mix.blocks() {
        let mut rng = stream_rng(seed, sample, b);
        for _ in 0..n {
            let t0 = Instant::now();
            let input = cases.gen_input(op, &mut rng);
            let t1 = if tracing { Instant::now() } else { t0 };
            let code = cases.run_check(op, &input);
            let t2 = Instant::now();
            buf.lat.push((t2 - t0).as_nanos() as u32);
            buf.codes.push(code);
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record(req, t0, t1, t2, Instant::now());
            }
            req += 1;
        }
    }
    start.elapsed().as_secs_f64()
}

/// Verifies a sample's recorded codes, untimed: checker tests replay
/// their block's generator and compare against the handwritten
/// checker; generator tests must have produced accepted outputs.
pub fn verify(cases: &Cases, mix: &Mix, seed: u64, sample: u64, codes: &[u8]) -> Tally {
    let mut tally = Tally::default();
    let mut at = 0;
    for (b, op, n) in mix.blocks() {
        let recorded = &codes[at..at + n];
        at += n;
        if op.derives_input() {
            for &c in recorded {
                tally.add(c, true);
            }
        } else {
            let mut rng = stream_rng(seed, sample, b);
            for &c in recorded {
                let input = cases.gen_input(op, &mut rng);
                let expected = !matches!(input, crate::cases::Input::Missing)
                    && cases.hand_verdict(op, &input);
                tally.add(c, expected);
            }
        }
    }
    assert_eq!(at, codes.len(), "every recorded test is verified");
    tally
}
