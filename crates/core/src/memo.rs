//! Tabling for derived checkers, justified by monotonicity (§5).
//!
//! The paper's validation theorems make a derived checker *monotone in
//! fuel*: once `check` decides `Some b` at some fuel, every larger fuel
//! returns the same `Some b`. The executor threads two fuels — `size`
//! (the structurally decreasing recursion fuel) and `top_size` (handed
//! to external calls as both parameters) — and the decision is monotone
//! in each: more `size` admits more rules and deeper recursion, more
//! `top_size` grows every externally enumerated domain (with honest
//! out-of-fuel markers) and every external sub-verdict, and `cnot` maps
//! a decided verdict to a decided verdict. A verdict decided at
//! `(size, top)` therefore holds at every `(size', top')` with
//! `size' ≥ size` and `top' ≥ top`, which is exactly the hit rule
//! [`SharedMemo`] applies. Because relations are frozen at
//! [`build`](crate::LibraryBuilder::build) time, entries never need
//! invalidating, and a verdict cached by any session over the same core
//! holds for every session: sharing a table across threads can make a
//! reader miss an answer, never observe a stale one.
//!
//! There is one verdict table, in two configurations:
//!
//! * [`Library::with_memo`](crate::Library::with_memo) attaches a
//!   private one-shard table to a session;
//! * [`Server::session`](crate::serve::Server::session) attaches the
//!   server's N-shard table, shared by every worker.
//!
//! Each shard is a bucket map behind its own `RwLock`, with its own
//! counters next to its entries, so readers of different shards touch
//! different cache lines and the one-shard table is uncontended.
//!
//! What is deliberately **not** cached (the write guard at the entry
//! boundary, `run_derived_check` in [`exec`](crate::exec)):
//!
//! * `None` (out of fuel) — not monotone: a larger fuel may decide it.
//!   Caching it would freeze a transient state into an answer.
//! * Verdicts computed after an armed [`Meter`] was exhausted — a
//!   poisoned meter makes inner searches return early, so verdicts
//!   observed in that window can be fabricated. The `try_*` entry
//!   points mask them with an error; the table must not outlive them.
//!   (Exhaustion is sticky, so a write-time check suffices.)
//! * Verdicts whose search cost fewer than `MIN_SEARCH_COST` checker
//!   recursions — a leaf goal re-derives faster than the table answers,
//!   so caching it only pays the lookup twice.
//! * Handwritten checkers — the monotonicity argument only covers
//!   derived plans, so [`exec`](crate::exec) consults the table from
//!   the derived checker path alone.
//! * Recursive self-calls — the table is consulted at *entry
//!   boundaries* only (top-level `check` and external `CheckRel`
//!   premises). Recursion descends into strict subterms of a tuple that
//!   already missed, so per-level lookups would charge every recursion
//!   of a miss-heavy workload for reuse the entry-level hits already
//!   capture across a corpus.
//!
//! The hot path is allocation-free: the session reduces the argument
//! tuple to a 64-bit structural fingerprint with its own [`Interner`]
//! (O(1) per already-seen subtree, since fingerprints hash-cons by
//! `Arc` identity), which is both the bucket key and the shard key. Argument
//! tuples are copied (cheap `Arc` clones) into a boxed slot only when a
//! verdict is actually admitted, which the cost gate makes rare.
//! Fingerprint collisions are harmless: every candidate slot is
//! confirmed structurally before it may answer.
//!
//! The memory bound is a fixed entry cap per shard (default
//! [`DEFAULT_CAPACITY`] for a session table): when a shard is full it
//! stops admitting — deterministically, with no eviction — and keeps
//! serving hits from what it has.
//!
//! **Poison recovery.** A writer that panics inside a shard poisons only
//! that shard's lock. The next access marks the shard *degraded*; from
//! then on it answers every lookup with a miss and swallows every
//! insert, so callers fall back to the unmemoized search — sound for
//! the same monotonicity reason (the table is an accelerator, never an
//! authority). [`MemoStats::degraded_shards`] counts retired shards.
//!
//! [`Meter`]: indrel_producers::Meter

use indrel_term::{shard_of, FastHashBuilder, Interner, RelId, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Default bound on cached verdicts and interned nodes per session.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Minimum number of checker recursions a search must have cost for its
/// verdict to be worth a table entry. Below this, re-running the search
/// is cheaper than the insert-plus-future-lookup it would buy: a cost-1
/// search is a single rule match, already in the same ballpark as a
/// table probe.
pub(crate) const MIN_SEARCH_COST: u64 = 2;

// The table is shared across serving threads; that must hold by
// construction, not by accident.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedMemo>();
};

/// Fingerprint of a `(rel, args)` query, folding each argument's
/// structural fingerprint into the relation's. Fingerprints are
/// *structural* — independent of which session's interner computed
/// them — so every session sharing a table keys it the same way.
pub(crate) fn query_fp(interner: &mut Interner, rel: RelId, args: &[Value]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ (rel.index() as u64);
    for a in args {
        h = (h.rotate_left(5) ^ interner.fingerprint(a)).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
    h
}

/// `true` when the stored canonical tuple and a probe tuple denote the
/// same arguments. Scalars compare by value; constructor terms take the
/// `Arc`-identity fast path and fall back to the iterative structural
/// walk.
fn args_match(stored: &[Value], probe: &[Value]) -> bool {
    stored.len() == probe.len()
        && stored.iter().zip(probe).all(|(a, b)| match (a, b) {
            (Value::Nat(x), Value::Nat(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Ctor(_, x), Value::Ctor(_, y)) => Arc::ptr_eq(x, y) || a.structurally_equal(b),
            _ => false,
        })
}

/// The verdict table's counters, exposed by [`SharedMemo::stats`],
/// [`Library::memo_stats`](crate::Library::memo_stats) and
/// [`Server::stats`](crate::serve::Server::stats). Request counts
/// (`serve.shed`, `serve.retries`, ...) live only in the server's
/// metrics registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to the search.
    pub misses: u64,
    /// Decided verdicts written (first writes and dominance updates).
    pub insertions: u64,
    /// `None` verdicts that reached the write site and were refused —
    /// the monotonicity boundary in action.
    pub none_skipped: u64,
    /// Decided verdicts refused because the table was full.
    pub full_skipped: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Shards retired after a writer panic; queries routed to them fall
    /// back to the unmemoized search.
    pub degraded_shards: u64,
}

impl MemoStats {
    /// The counters as one JSON object with deterministically sorted
    /// keys, matching the [`SearchStats`](indrel_producers::SearchStats)
    /// / [`Budget`](indrel_producers::Budget) reporting idiom: no
    /// timestamps, byte-identical across identical runs.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"degraded_shards\":{},\"entries\":{},\"full_skipped\":{},\"hits\":{},\
             \"insertions\":{},\"misses\":{},\"none_skipped\":{}}}",
            self.degraded_shards,
            self.entries,
            self.full_skipped,
            self.hits,
            self.insertions,
            self.misses,
            self.none_skipped,
        )
    }
}

impl std::fmt::Display for MemoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses, {} insertions ({} entries; skipped {} none, {} full)",
            self.hits,
            self.misses,
            self.insertions,
            self.entries,
            self.none_skipped,
            self.full_skipped,
        )?;
        if self.degraded_shards > 0 {
            write!(f, "; {} degraded shard(s)", self.degraded_shards)?;
        }
        Ok(())
    }
}

/// One cached verdict: the relation, the canonical argument tuple that
/// confirms fingerprint matches, and the smallest fuels the verdict is
/// known at.
struct Slot {
    rel: RelId,
    args: Box<[Value]>,
    size: u64,
    top: u64,
    verdict: bool,
}

/// One shard: a bucket map behind its own `RwLock`, its counters, and
/// the degraded flag poison recovery flips. Aligned to a pair of cache
/// lines (the unit x86 prefetches) so that threads working in different
/// shards never write to the same line.
#[repr(align(128))]
struct Shard {
    /// Fingerprint → slots sharing it (almost always exactly one).
    buckets: RwLock<HashMap<u64, Vec<Slot>, FastHashBuilder>>,
    /// Entries in this shard; written only under the shard's write
    /// lock, read lock-free by [`SharedMemo::stats`].
    entries: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    none_skipped: AtomicU64,
    full_skipped: AtomicU64,
    /// Set once, on the first access that observes the lock poisoned.
    /// A degraded shard answers misses and swallows inserts forever.
    degraded: AtomicBool,
}

impl Default for Shard {
    fn default() -> Shard {
        Shard {
            buckets: RwLock::new(HashMap::default()),
            entries: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            none_skipped: AtomicU64::new(0),
            full_skipped: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
        }
    }
}

/// Bumps one of a shard's counters.
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The verdict table: a session's private table with one shard, or a
/// server's table with N shards shared by every worker. See the module
/// docs for the monotonicity argument, the write guards (applied by the
/// caller before [`SharedMemo::insert`]) and the degradation model.
pub struct SharedMemo {
    shards: Box<[Shard]>,
    shard_capacity: usize,
    degraded_shards: AtomicU64,
    /// Shard indices degraded since the last drain, for sessions to
    /// report as `Event::ShardDegraded` probe events (probes are
    /// session-local, so the table itself cannot emit).
    degraded_events: Mutex<Vec<u32>>,
}

impl std::fmt::Debug for SharedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemo")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("degraded", &self.degraded_count())
            .finish()
    }
}

impl SharedMemo {
    /// An empty table with `shards` shards (must be a power of two),
    /// each admitting at most `shard_capacity` verdicts. Once a shard
    /// is full it stops admitting — deterministically, no eviction —
    /// and keeps serving hits from what it has.
    pub fn new(shards: usize, shard_capacity: usize) -> SharedMemo {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        SharedMemo {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            shard_capacity,
            degraded_shards: AtomicU64::new(0),
            degraded_events: Mutex::new(Vec::new()),
        }
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a fingerprint maps to — exposed so chaos harnesses can
    /// poison the shard a particular query lives in.
    pub fn shard_for(&self, fp: u64) -> usize {
        shard_of(fp, self.shards.len())
    }

    /// Shards retired by poison recovery so far.
    pub fn degraded_count(&self) -> u64 {
        self.degraded_shards.load(Ordering::Relaxed)
    }

    /// Retires a shard: flips its degraded flag (once) and queues the
    /// probe event. Every later lookup in the shard is a miss and every
    /// insert a no-op, so the table degrades instead of propagating the
    /// panic that poisoned the lock.
    fn mark_degraded(&self, idx: usize) {
        if !self.shards[idx].degraded.swap(true, Ordering::Relaxed) {
            self.degraded_shards.fetch_add(1, Ordering::Relaxed);
            self.degraded_events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(idx as u32);
        }
    }

    /// Shard indices degraded since the last call — the session layer
    /// drains this after each request and reports each as an
    /// `Event::ShardDegraded`.
    pub fn drain_degraded_events(&self) -> Vec<u32> {
        std::mem::take(
            &mut *self
                .degraded_events
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Looks up `(rel, args)` under its structural fingerprint for a
    /// query at fuels `(size, top)`. An entry answers iff it stores the
    /// same tuple (confirmed structurally) and was decided at fuels the
    /// query dominates (`size ≥ slot.size && top ≥ slot.top`). `None`
    /// is a miss — including every query routed to a degraded shard,
    /// which is the transparent fallback to the unmemoized search.
    pub fn lookup(&self, rel: RelId, fp: u64, args: &[Value], size: u64, top: u64) -> Option<bool> {
        let idx = self.shard_for(fp);
        let shard = &self.shards[idx];
        if shard.degraded.load(Ordering::Relaxed) {
            bump(&shard.misses);
            return None;
        }
        let guard = match shard.buckets.read() {
            Ok(g) => g,
            Err(_) => {
                // A writer panicked while holding this shard. Retire it
                // and fall back; the other shards keep serving.
                self.mark_degraded(idx);
                bump(&shard.misses);
                return None;
            }
        };
        if let Some(bucket) = guard.get(&fp) {
            for slot in bucket {
                if slot.rel == rel && args_match(&slot.args, args) {
                    if size >= slot.size && top >= slot.top {
                        bump(&shard.hits);
                        return Some(slot.verdict);
                    }
                    break;
                }
            }
        }
        bump(&shard.misses);
        None
    }

    /// Records a decided verdict observed at fuels `(size, top)`, under
    /// the fingerprint the lookup used. An existing entry for the same
    /// tuple is widened in place when the new fuels dominate it;
    /// incomparable fuels keep the existing entry (both verdicts are
    /// correct wherever they apply, per joint monotonicity). The caller
    /// must apply the write guards of the module docs: never a `None`,
    /// never under an exhausted meter, never below the search-cost gate.
    pub fn insert(&self, rel: RelId, fp: u64, args: &[Value], size: u64, top: u64, verdict: bool) {
        let idx = self.shard_for(fp);
        let shard = &self.shards[idx];
        if shard.degraded.load(Ordering::Relaxed) {
            return;
        }
        let mut guard = match shard.buckets.write() {
            Ok(g) => g,
            Err(_) => {
                self.mark_degraded(idx);
                return;
            }
        };
        if let Some(bucket) = guard.get_mut(&fp) {
            for slot in bucket.iter_mut() {
                if slot.rel == rel && args_match(&slot.args, args) {
                    if size <= slot.size && top <= slot.top {
                        slot.size = size;
                        slot.top = top;
                        slot.verdict = verdict;
                        bump(&shard.insertions);
                    }
                    return;
                }
            }
        }
        if shard.entries.load(Ordering::Relaxed) < self.shard_capacity {
            // The only allocating path: one box of `Arc` clones, when a
            // verdict is actually admitted.
            guard.entry(fp).or_default().push(Slot {
                rel,
                args: args.to_vec().into_boxed_slice(),
                size,
                top,
                verdict,
            });
            shard.entries.fetch_add(1, Ordering::Relaxed);
            bump(&shard.insertions);
        } else {
            bump(&shard.full_skipped);
        }
    }

    /// Counts a `None` verdict for the query fingerprinted `fp`, refused
    /// at the write site — the monotonicity boundary in action.
    pub fn note_none_skipped(&self, fp: u64) {
        bump(&self.shards[self.shard_for(fp)].none_skipped);
    }

    /// Snapshot of the table counters, summed over the shards.
    pub fn stats(&self) -> MemoStats {
        let sum = |f: fn(&Shard) -> &AtomicU64| -> u64 {
            self.shards
                .iter()
                .map(|s| f(s).load(Ordering::Relaxed))
                .sum()
        };
        MemoStats {
            hits: sum(|s| &s.hits),
            misses: sum(|s| &s.misses),
            insertions: sum(|s| &s.insertions),
            none_skipped: sum(|s| &s.none_skipped),
            full_skipped: sum(|s| &s.full_skipped),
            entries: self
                .shards
                .iter()
                .map(|s| s.entries.load(Ordering::Relaxed))
                .sum(),
            degraded_shards: self.degraded_count(),
        }
    }

    /// Chaos hook: poisons `shard`'s lock exactly the way a panicking
    /// writer would — by panicking while holding the write guard
    /// (caught here, so the caller keeps running). The shard is retired
    /// lazily, on its next access. Tests and the chaos harness use this
    /// to prove degraded shards never produce wrong verdicts.
    pub fn poison_shard(&self, shard: usize) {
        let lock = &self.shards[shard].buckets;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock.write();
            panic!("injected shard poison");
        }));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use indrel_term::CtorId;

    /// Keeps the injected `poison_shard` panics out of test output
    /// (other panics still print; `indrel_pbt` has the general version,
    /// but core cannot depend on it).
    pub(crate) fn silence_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("injected shard poison"));
                if !injected {
                    prev(info);
                }
            }));
        });
    }

    fn rel() -> RelId {
        RelId::new(0)
    }

    fn tree(n: u64) -> Value {
        Value::ctor(CtorId::new(1), vec![Value::nat(n)])
    }

    fn fp(rel: RelId, args: &[Value]) -> u64 {
        query_fp(&mut Interner::new(16), rel, args)
    }

    /// `n` distinct fingerprints that all land in `m`'s shard 0.
    fn same_shard_fps(m: &SharedMemo, n: usize) -> Vec<u64> {
        (0u64..).filter(|&f| m.shard_for(f) == 0).take(n).collect()
    }

    #[test]
    fn miss_then_insert_then_hit_at_dominating_fuels() {
        let m = SharedMemo::new(1, 16);
        let args = [tree(3), Value::nat(7)];
        let f = fp(rel(), &args);
        assert_eq!(m.lookup(rel(), f, &args, 5, 5), None);
        m.insert(rel(), f, &args, 5, 5, true);
        // Same fuels, structurally equal but physically fresh args.
        let again = [tree(3), Value::nat(7)];
        assert_eq!(f, fp(rel(), &again), "fingerprints are structural");
        assert_eq!(m.lookup(rel(), f, &again, 5, 5), Some(true));
        // Higher fuels dominate the entry: still a hit.
        assert_eq!(m.lookup(rel(), f, &again, 9, 6), Some(true));
        // Lower size: the entry does not answer.
        assert_eq!(m.lookup(rel(), f, &again, 4, 5), None);
        // Lower top: likewise.
        assert_eq!(m.lookup(rel(), f, &again, 5, 4), None);
        let s = m.stats();
        assert_eq!((s.hits, s.misses), (2, 3));
    }

    #[test]
    fn dominating_insert_widens_the_entry() {
        let m = SharedMemo::new(1, 16);
        let args = [tree(1)];
        let f = fp(rel(), &args);
        m.insert(rel(), f, &args, 8, 8, false);
        assert_eq!(m.lookup(rel(), f, &args, 3, 3), None);
        // Incomparable fuels keep the existing entry.
        m.insert(rel(), f, &args, 3, 9, false);
        assert_eq!(m.lookup(rel(), f, &args, 3, 9), None);
        m.insert(rel(), f, &args, 3, 3, false);
        // The tighter fuels now answer everything above them.
        assert_eq!(m.lookup(rel(), f, &args, 3, 3), Some(false));
        assert_eq!(m.lookup(rel(), f, &args, 8, 8), Some(false));
        // One slot, updated in place.
        let s = m.stats();
        assert_eq!((s.entries, s.insertions), (1, 2));
    }

    #[test]
    fn distinct_relations_do_not_collide() {
        let m = SharedMemo::new(1, 16);
        let args = [tree(2)];
        // Even under one forced fingerprint, the relation must match.
        let f = fp(RelId::new(0), &args);
        m.insert(RelId::new(0), f, &args, 5, 5, true);
        assert_eq!(m.lookup(RelId::new(1), f, &args, 5, 5), None);
        assert_eq!(m.lookup(RelId::new(0), f, &args, 5, 5), Some(true));
    }

    #[test]
    fn colliding_fingerprints_are_confirmed_structurally() {
        for shards in [1, 16] {
            let m = SharedMemo::new(shards, 16);
            let args = [tree(4)];
            let f = fp(rel(), &args);
            // Force a structurally different tuple into the same bucket:
            // the original tuple must not be answered from that slot.
            let other = [tree(5)];
            m.insert(rel(), f, &other, 5, 5, false);
            assert_eq!(m.lookup(rel(), f, &args, 5, 5), None, "{shards} shards");
            // A second slot for the original tuple can share the bucket.
            m.insert(rel(), f, &args, 5, 5, true);
            assert_eq!(m.lookup(rel(), f, &args, 5, 5), Some(true));
            assert_eq!(m.lookup(rel(), f, &other, 5, 5), Some(false));
            assert_eq!(m.stats().entries, 2, "{shards} shards");
        }
    }

    #[test]
    fn capacity_stops_admitting_deterministically() {
        for shards in [1, 16] {
            let m = SharedMemo::new(shards, 1);
            // Three tuples in one shard: the first fills it.
            let fps = same_shard_fps(&m, 3);
            for (n, &f) in fps.iter().enumerate() {
                let args = [tree(n as u64)];
                if m.lookup(rel(), f, &args, 5, 5).is_none() {
                    m.insert(rel(), f, &args, 5, 5, true);
                }
            }
            let s = m.stats();
            assert_eq!(
                (s.entries, s.insertions, s.full_skipped),
                (1, 1, 2),
                "{shards} shards: {s:?}"
            );
            // The admitted entry keeps answering.
            assert_eq!(m.lookup(rel(), fps[0], &[tree(0)], 5, 5), Some(true));
        }
    }

    #[test]
    fn stats_json_keys_are_sorted_and_display_is_stable() {
        let m = SharedMemo::new(1, 4);
        let args = [tree(1)];
        let f = fp(rel(), &args);
        m.insert(rel(), f, &args, 5, 5, true);
        m.note_none_skipped(f);
        let s = m.stats();
        assert_eq!(s.none_skipped, 1);
        let j = s.to_json();
        let keys = [
            "degraded_shards",
            "entries",
            "full_skipped",
            "hits",
            "insertions",
            "misses",
            "none_skipped",
        ];
        let mut at = 0;
        for k in keys {
            let pos = j.find(&format!("\"{k}\":")).expect(k);
            assert!(pos >= at, "key {k} out of sorted order in {j}");
            at = pos;
        }
        assert_eq!(j, m.stats().to_json(), "snapshot must be deterministic");
        let d = s.to_string();
        assert!(d.contains("1 insertions"), "{d}");
        assert!(!d.contains("degraded"), "zero degradation stays silent");
        let degraded = MemoStats {
            degraded_shards: 2,
            ..s
        };
        assert!(degraded.to_string().ends_with("; 2 degraded shard(s)"));
    }

    #[test]
    fn poisoned_shard_degrades_and_the_rest_keep_serving() {
        silence_injected_panics();
        let m = SharedMemo::new(4, 16);
        // Two fingerprints in different shards.
        let (fp_a, mut fp_b) = (0u64, 1u64);
        while m.shard_for(fp_a) == m.shard_for(fp_b) {
            fp_b += 1;
        }
        m.insert(rel(), fp_a, &[tree(1)], 5, 5, true);
        m.insert(rel(), fp_b, &[tree(2)], 5, 5, false);
        m.poison_shard(m.shard_for(fp_a));
        // The poisoned shard answers misses (fallback), once marked.
        assert_eq!(m.lookup(rel(), fp_a, &[tree(1)], 5, 5), None);
        assert_eq!(m.degraded_count(), 1);
        // Inserts to it are swallowed; lookups stay misses.
        m.insert(rel(), fp_a, &[tree(9)], 5, 5, true);
        assert_eq!(m.lookup(rel(), fp_a, &[tree(9)], 5, 5), None);
        // The other shard is untouched.
        assert_eq!(m.lookup(rel(), fp_b, &[tree(2)], 5, 5), Some(false));
        assert_eq!(m.stats().degraded_shards, 1);
        assert_eq!(m.drain_degraded_events(), vec![m.shard_for(fp_a) as u32]);
        assert!(m.drain_degraded_events().is_empty(), "drain is one-shot");
    }
}
