//! The `serve-mix` workload: a closed loop of client threads, each a
//! `Session` on one `Server` with `ServeConfig::default()`, sending
//! one-tuple `check_batch` requests for `bst 0 16 t`.
//!
//! Three quarters of the requests name a tree from a hot set of
//! [`HOT_TREES`] (shared-memo reads once the first request has filled
//! the entry) and one quarter a freshly generated tree (a miss and an
//! insert). Every sample starts from a fresh server, so each sample
//! pays the same cold-to-warm memo curve.

use crate::alloc;
use crate::cases::{code, stream_rng, Code, Tally, BST_FUEL, BST_LO, BST_SIZE, NONE};
use crate::trace::Tracer;
use indrel_bst::Bst;
use indrel_core::{Budget, ServeConfig, Server, SharedLibrary};
use indrel_term::{RelId, Value};
use rand::Rng as _;
use std::sync::Barrier;
use std::time::Instant;

/// Upper key bound of served trees.
pub const SERVE_HI: u64 = 16;
/// Distinct trees in the hot set.
pub const HOT_TREES: usize = 256;
/// Client threads of the workload (the host's core count is 2).
pub const CLIENTS: usize = 2;
/// Requests each client sends per sample.
pub const REQUESTS_PER_CLIENT: usize = 40_000;

/// Stream coordinates of [`stream_rng`] for the serve workload.
const HOT_STREAM: u64 = u64::MAX;

/// What every serve sample shares: the frozen library and the hot set.
pub struct ServeEnv {
    shared: SharedLibrary,
    rel: RelId,
    hot: Vec<Value>,
}

impl ServeEnv {
    /// The shared core of `bst`'s library and a hot set drawn from
    /// `seed`.
    pub fn new(bst: &Bst, seed: u64) -> ServeEnv {
        let mut rng = stream_rng(seed, HOT_STREAM, 0);
        ServeEnv {
            shared: bst.library().shared(),
            rel: bst.relation(),
            hot: (0..HOT_TREES)
                .map(|_| bst.handwritten_gen(BST_LO, SERVE_HI, BST_SIZE, &mut rng))
                .collect(),
        }
    }

    /// A fresh server over the shared core.
    pub fn server(&self) -> Server {
        Server::new(
            self.shared.clone(),
            ServeConfig::default(),
            Budget::unlimited(),
        )
    }

    /// The request tuples `client` sends in `sample`: every fourth a
    /// fresh tree, the rest drawn from the hot set.
    pub fn requests(
        &self,
        bst: &Bst,
        seed: u64,
        sample: u64,
        client: usize,
        n: usize,
    ) -> Vec<Vec<Value>> {
        let mut rng = stream_rng(seed, sample, client as u64);
        (0..n)
            .map(|i| {
                let tree = if i % 4 == 3 {
                    bst.handwritten_gen(BST_LO, SERVE_HI, BST_SIZE, &mut rng)
                } else {
                    self.hot[rng.gen_range(0..HOT_TREES)].clone()
                };
                vec![Value::nat(BST_LO), Value::nat(SERVE_HI), tree]
            })
            .collect()
    }

    /// The served relation.
    pub fn rel(&self) -> RelId {
        self.rel
    }
}

/// One client's record of a sample.
pub struct ClientRun {
    /// Latency of each request in ns, timed around `check_batch`.
    pub lat: Vec<u32>,
    /// [`Code`] of each request's verdict.
    pub codes: Vec<Code>,
    /// When the client sent its first request.
    pub start: Instant,
    /// When its last request returned.
    pub end: Instant,
    /// Allocations and bytes the client thread made while sending.
    pub allocs: (u64, u64),
    /// The client's spans, when tracing.
    pub tracer: Option<Tracer>,
}

/// Runs one closed-loop sample: one client thread per request list,
/// released together by a barrier, on `server`. With `trace`, each
/// client records spans into a recorder like it.
pub fn run_sample(
    env: &ServeEnv,
    server: &Server,
    requests: &[Vec<Vec<Value>>],
    sample: u64,
    trace: Option<&Tracer>,
) -> (f64, Vec<ClientRun>) {
    let barrier = Barrier::new(requests.len());
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(client, reqs)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let session = server.session();
                    let mut lat = Vec::with_capacity(reqs.len());
                    let mut codes = Vec::with_capacity(reqs.len());
                    let mut tracer = trace.map(Tracer::empty_like);
                    let base = (sample << 32) | ((client as u64) << 24);
                    barrier.wait();
                    let (a0, b0) = alloc::thread_counts();
                    let start = Instant::now();
                    for (i, args) in reqs.iter().enumerate() {
                        let t0 = Instant::now();
                        let batch = std::slice::from_ref(args);
                        let t1 = if tracer.is_some() { Instant::now() } else { t0 };
                        let r = session.check_batch(env.rel, BST_FUEL, batch);
                        let t2 = Instant::now();
                        lat.push((t2 - t0).as_nanos() as u32);
                        codes.push(match r.first() {
                            Some(Ok(v)) => code(*v),
                            _ => NONE,
                        });
                        drop(r);
                        if let Some(tr) = tracer.as_mut() {
                            tr.record(base + i as u64, t0, t1, t2, Instant::now());
                        }
                    }
                    let end = Instant::now();
                    let (a1, b1) = alloc::thread_counts();
                    drop(session);
                    alloc::flush_thread();
                    ClientRun {
                        lat,
                        codes,
                        start,
                        end,
                        allocs: (a1 - a0, b1 - b0),
                        tracer,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client panicked"))
            .collect()
    });
    let start = runs
        .iter()
        .map(|r| r.start)
        .min()
        .expect("at least one client");
    let end = runs
        .iter()
        .map(|r| r.end)
        .max()
        .expect("at least one client");
    (end.duration_since(start).as_secs_f64(), runs)
}

/// Verifies every served verdict against the handwritten checker,
/// untimed.
pub fn verify(bst: &Bst, requests: &[Vec<Vec<Value>>], runs: &[ClientRun]) -> Tally {
    let mut tally = Tally::default();
    for (reqs, run) in requests.iter().zip(runs) {
        assert_eq!(reqs.len(), run.codes.len(), "one verdict per request");
        for (args, &c) in reqs.iter().zip(&run.codes) {
            tally.add(c, bst.handwritten_check(BST_LO, SERVE_HI, &args[2]));
        }
    }
    tally
}
