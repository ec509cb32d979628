//! Spans recorded in memory from the benchmark's own code.
//!
//! Every operation (a PBT test or a served request) is one `root` span
//! with two children that share its request id:
//!
//! * `gen`: producing the input. For the PBT workloads this is the
//!   generator (handwritten for checker cases, derived for generator
//!   cases); for `serve-mix` it is the client picking its next request.
//! * `check`: deciding it. The property (derived checker, or the
//!   handwritten checker on a derived generator's output), or the one
//!   `Session::check_batch` call.
//!
//! A span's self time is its duration minus the part its children
//! cover; the root's self time is the client loop's own bookkeeping.

use std::fmt::Write as _;
use std::time::Instant;

/// Span names, indexed like [`Tracer::self_ns`].
pub const LAYERS: [&str; 3] = ["root", "gen", "check"];

#[derive(Clone, Copy)]
struct Op {
    req: u64,
    // Nanoseconds since the tracer's epoch: root start (= gen start),
    // gen end (= check start), check end, root end.
    t: [u64; 4],
}

/// One thread's span recorder.
pub struct Tracer {
    epoch: Instant,
    kept: Vec<Op>,
    keep: usize,
    ops: u64,
    self_ns: [u64; 3],
}

impl Tracer {
    /// A recorder timing from `epoch` that keeps the spans of its first
    /// `keep` operations for writing out; self times cover every
    /// operation.
    pub fn new(epoch: Instant, keep: usize) -> Tracer {
        Tracer {
            epoch,
            kept: Vec::with_capacity(keep),
            keep,
            ops: 0,
            self_ns: [0; 3],
        }
    }

    /// An empty recorder with this one's epoch and span budget, e.g.
    /// for another thread; [`Tracer::merge`] folds it back.
    pub fn empty_like(&self) -> Tracer {
        Tracer::new(self.epoch, self.keep)
    }

    /// Records one operation from its four boundary instants.
    pub fn record(&mut self, req: u64, t0: Instant, t1: Instant, t2: Instant, t3: Instant) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let t = [ns(t0), ns(t1), ns(t2), ns(t3)];
        let gen = t[1] - t[0];
        let check = t[2] - t[1];
        self.self_ns[0] += (t[3] - t[0]) - gen - check;
        self.self_ns[1] += gen;
        self.self_ns[2] += check;
        self.ops += 1;
        if self.kept.len() < self.keep {
            self.kept.push(Op { req, t });
        }
    }

    /// Operations recorded.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Summed self time per layer, in [`LAYERS`] order.
    pub fn self_ns(&self) -> [u64; 3] {
        self.self_ns
    }

    /// Adds another recorder's operations and spans (same epoch).
    pub fn merge(&mut self, other: &Tracer) {
        self.ops += other.ops;
        for (a, b) in self.self_ns.iter_mut().zip(other.self_ns) {
            *a += b;
        }
        let room = self.keep.saturating_sub(self.kept.len());
        self.kept.extend(other.kept.iter().take(room).copied());
    }

    /// The kept spans as JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for op in &self.kept {
            let spans = [
                ("root", "", op.t[0], op.t[3]),
                ("gen", "root", op.t[0], op.t[1]),
                ("check", "root", op.t[1], op.t[2]),
            ];
            for (name, parent, start, end) in spans {
                let _ = writeln!(
                    out,
                    "{{\"req\":{},\"span\":\"{name}\",\"parent\":\"{parent}\",\
                     \"start_ns\":{start},\"end_ns\":{end}}}",
                    op.req
                );
            }
        }
        out
    }
}
