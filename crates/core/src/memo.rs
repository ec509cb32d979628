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
//! `size' ≥ size` and `top' ≥ top`, which is exactly the hit rule the
//! `MemoTable` applies. Because relations are frozen at
//! [`build`](crate::LibraryBuilder::build) time, entries never need
//! invalidating.
//!
//! What is deliberately **not** cached:
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
//!   capture across a corpus (see `run_derived_check`).
//!
//! The hot path is allocation-free: a lookup reduces the argument tuple
//! to a 64-bit structural fingerprint via [`Interner::fingerprint`]
//! (O(1) per already-seen subtree, since fingerprints hash-cons by
//! `Arc` identity), and a miss hands back only that `u64`. Argument
//! tuples are copied (cheap `Arc` clones) into a boxed slot only when a
//! verdict is actually admitted, which the cost gate makes rare. Fingerprint collisions are
//! harmless: every candidate slot is confirmed structurally before it
//! may answer.
//!
//! The memory bound is a fixed entry cap (default [`DEFAULT_CAPACITY`],
//! shared with the interner's node cap): when full the table stops
//! admitting — deterministically, with no eviction — and keeps serving
//! hits from what it has.
//!
//! [`Meter`]: indrel_producers::Meter

use indrel_term::{FastHashBuilder, Interner, RelId, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Default bound on cached verdicts and interned nodes per session.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Minimum number of checker recursions a search must have cost for its
/// verdict to be worth a table entry. Below this, re-running the search
/// is cheaper than the insert-plus-future-lookup it would buy: a cost-1
/// search is a single rule match, already in the same ballpark as a
/// table probe.
pub(crate) const MIN_SEARCH_COST: u64 = 2;

/// `true` when the stored canonical tuple and a probe tuple denote the
/// same arguments. Scalars compare by value; constructor terms take the
/// `Arc`-identity fast path (canonical vs previously interned probes)
/// and fall back to the iterative structural walk. Shared with the
/// concurrent table ([`crate::serve`]), which confirms candidates the
/// same way.
pub(crate) fn args_match(stored: &[Value], probe: &[Value]) -> bool {
    stored.len() == probe.len()
        && stored.iter().zip(probe).all(|(a, b)| match (a, b) {
            (Value::Nat(x), Value::Nat(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Ctor(_, x), Value::Ctor(_, y)) => Arc::ptr_eq(x, y) || a.structurally_equal(b),
            _ => false,
        })
}

/// One cached verdict: the relation, the canonicalized argument tuple
/// that confirms fingerprint matches, and the smallest fuels the
/// verdict is known at.
struct Slot {
    rel: RelId,
    args: Box<[Value]>,
    size: u64,
    top: u64,
    verdict: bool,
}

/// The result of a table lookup: either a verdict valid at the queried
/// fuels, or the tuple's fingerprint to insert under after the search.
pub(crate) enum Lookup {
    Hit(bool),
    Miss(u64),
}

/// Counters exposed by [`Library::memo_stats`](crate::Library::memo_stats)
/// and [`serve::SharedMemo::stats`](crate::serve::SharedMemo::stats).
///
/// The last three counters are serving-layer telemetry: they stay zero
/// for the per-session table and are populated by the concurrent table
/// and request layer of [`crate::serve`].
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
    /// Shards of the concurrent table retired after a writer panic;
    /// queries routed to them fall back to the unmemoized search.
    pub degraded_shards: u64,
    /// Requests rejected by admission control
    /// ([`ExecError::Overloaded`](crate::ExecError::Overloaded)).
    pub shed: u64,
    /// Budget-exhausted requests retried with an escalated budget.
    pub retries: u64,
}

impl MemoStats {
    /// The counters as one JSON object with deterministically sorted
    /// keys, matching the [`SearchStats`](indrel_producers::SearchStats)
    /// / [`Budget`](indrel_producers::Budget) reporting idiom: no
    /// timestamps, byte-identical across identical runs.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"degraded_shards\":{},\"entries\":{},\"full_skipped\":{},\"hits\":{},\
             \"insertions\":{},\"misses\":{},\"none_skipped\":{},\"retries\":{},\"shed\":{}}}",
            self.degraded_shards,
            self.entries,
            self.full_skipped,
            self.hits,
            self.insertions,
            self.misses,
            self.none_skipped,
            self.retries,
            self.shed,
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
        if self.degraded_shards > 0 || self.shed > 0 || self.retries > 0 {
            write!(
                f,
                "; serving: {} degraded shard(s), {} shed, {} retries",
                self.degraded_shards, self.shed, self.retries,
            )?;
        }
        Ok(())
    }
}

/// The per-session verdict table. See the module docs for the
/// soundness argument and the bounds.
pub(crate) struct MemoTable {
    interner: Interner,
    /// Fingerprint → slots sharing it (almost always exactly one).
    buckets: HashMap<u64, Vec<Slot>, FastHashBuilder>,
    entries: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    none_skipped: u64,
    full_skipped: u64,
}

impl Default for MemoTable {
    fn default() -> MemoTable {
        MemoTable::with_capacity(DEFAULT_CAPACITY)
    }
}

impl MemoTable {
    /// An empty table admitting at most `max_entries` verdicts (and as
    /// many interned nodes).
    pub(crate) fn with_capacity(max_entries: usize) -> MemoTable {
        MemoTable {
            interner: Interner::new(max_entries),
            buckets: HashMap::default(),
            entries: 0,
            capacity: max_entries,
            hits: 0,
            misses: 0,
            insertions: 0,
            none_skipped: 0,
            full_skipped: 0,
        }
    }

    /// Fingerprint of a `(rel, args)` query, folding each argument's
    /// structural fingerprint into the relation's. Fingerprints are
    /// *structural* — independent of which session's interner computed
    /// them — so they double as the shard keys of the concurrent table
    /// ([`crate::serve`]).
    pub(crate) fn query_fp(&mut self, rel: RelId, args: &[Value]) -> u64 {
        let mut h = 0x243F_6A88_85A3_08D3u64 ^ (rel.index() as u64);
        for a in args {
            h = (h.rotate_left(5) ^ self.interner.fingerprint(a))
                .wrapping_mul(0x517C_C1B7_2722_0A95);
        }
        h
    }

    /// Looks up `(rel, args)` for a query at fuels `(size, top)`. An
    /// entry answers the query iff it stores the same tuple (confirmed
    /// structurally) and was decided at fuels the query dominates
    /// (`size ≥ slot.size && top ≥ slot.top`).
    pub(crate) fn lookup(&mut self, rel: RelId, args: &[Value], size: u64, top: u64) -> Lookup {
        let fp = self.query_fp(rel, args);
        if let Some(bucket) = self.buckets.get(&fp) {
            for slot in bucket {
                if slot.rel == rel && args_match(&slot.args, args) {
                    if size >= slot.size && top >= slot.top {
                        self.hits += 1;
                        return Lookup::Hit(slot.verdict);
                    }
                    break;
                }
            }
        }
        self.misses += 1;
        Lookup::Miss(fp)
    }

    /// Records a decided verdict observed at fuels `(size, top)`, under
    /// the fingerprint the lookup returned. `verdict` must be the
    /// checker's true verdict at those fuels — the caller guards
    /// against poisoned-meter fabrications and gates on search cost.
    pub(crate) fn insert(
        &mut self,
        rel: RelId,
        fp: u64,
        args: &[Value],
        size: u64,
        top: u64,
        verdict: bool,
    ) {
        if let Some(bucket) = self.buckets.get_mut(&fp) {
            for slot in bucket.iter_mut() {
                if slot.rel == rel && args_match(&slot.args, args) {
                    // Keep whichever fuels dominate (serve more
                    // queries). Incomparable fuels keep the existing
                    // slot; both verdicts are correct wherever they
                    // apply, per joint monotonicity.
                    if size <= slot.size && top <= slot.top {
                        slot.size = size;
                        slot.top = top;
                        slot.verdict = verdict;
                        self.insertions += 1;
                    }
                    return;
                }
            }
        }
        if self.entries < self.capacity {
            // The only allocating path: one box of `Arc` clones, when a
            // verdict is actually admitted.
            self.buckets.entry(fp).or_default().push(Slot {
                rel,
                args: args.to_vec().into_boxed_slice(),
                size,
                top,
                verdict,
            });
            self.entries += 1;
            self.insertions += 1;
        } else {
            self.full_skipped += 1;
        }
    }

    /// Counts a `None` verdict refused at the write site.
    pub(crate) fn note_none_skipped(&mut self) {
        self.none_skipped += 1;
    }

    /// Snapshot of the counters. The serving-layer counters are always
    /// zero here: a per-session table has no shards to degrade and no
    /// admission control.
    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            none_skipped: self.none_skipped,
            full_skipped: self.full_skipped,
            entries: self.entries,
            degraded_shards: 0,
            shed: 0,
            retries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indrel_term::CtorId;

    fn rel() -> RelId {
        RelId::new(0)
    }

    fn tree(n: u64) -> Value {
        Value::ctor(CtorId::new(1), vec![Value::nat(n)])
    }

    fn miss_fp(t: &mut MemoTable, rel: RelId, args: &[Value], size: u64, top: u64) -> u64 {
        match t.lookup(rel, args, size, top) {
            Lookup::Miss(fp) => fp,
            Lookup::Hit(_) => panic!("expected a miss"),
        }
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut t = MemoTable::with_capacity(16);
        let args = [tree(3), Value::nat(7)];
        let fp = miss_fp(&mut t, rel(), &args, 5, 5);
        t.insert(rel(), fp, &args, 5, 5, true);
        // Same fuels, structurally equal but physically fresh args.
        let again = [tree(3), Value::nat(7)];
        assert!(matches!(t.lookup(rel(), &again, 5, 5), Lookup::Hit(true)));
        // Higher fuels dominate the entry: still a hit.
        assert!(matches!(t.lookup(rel(), &again, 9, 6), Lookup::Hit(true)));
        // Lower size: the entry does not answer.
        assert!(matches!(t.lookup(rel(), &again, 4, 5), Lookup::Miss(_)));
        // Lower top: likewise.
        assert!(matches!(t.lookup(rel(), &again, 5, 4), Lookup::Miss(_)));
        assert_eq!(t.stats().hits, 2);
        assert_eq!(t.stats().misses, 3);
    }

    #[test]
    fn dominating_insert_widens_the_entry() {
        let mut t = MemoTable::with_capacity(16);
        let args = [tree(1)];
        let fp = miss_fp(&mut t, rel(), &args, 8, 8);
        t.insert(rel(), fp, &args, 8, 8, false);
        assert!(matches!(t.lookup(rel(), &args, 3, 3), Lookup::Miss(_)));
        t.insert(rel(), fp, &args, 3, 3, false);
        // The tighter fuels now answer everything above them.
        assert!(matches!(t.lookup(rel(), &args, 3, 3), Lookup::Hit(false)));
        assert!(matches!(t.lookup(rel(), &args, 8, 8), Lookup::Hit(false)));
        // One slot, updated in place.
        assert_eq!(t.stats().entries, 1);
        assert_eq!(t.stats().insertions, 2);
    }

    #[test]
    fn distinct_relations_do_not_collide() {
        let mut t = MemoTable::with_capacity(16);
        let args = [tree(2)];
        let fp = miss_fp(&mut t, RelId::new(0), &args, 5, 5);
        t.insert(RelId::new(0), fp, &args, 5, 5, true);
        assert!(matches!(
            t.lookup(RelId::new(1), &args, 5, 5),
            Lookup::Miss(_)
        ));
    }

    #[test]
    fn colliding_fingerprints_are_confirmed_structurally() {
        let mut t = MemoTable::with_capacity(16);
        let args = [tree(4)];
        let fp = miss_fp(&mut t, rel(), &args, 5, 5);
        // Force a structurally different tuple into the same bucket:
        // the original tuple must not be answered from that slot.
        let other = [tree(5)];
        t.insert(rel(), fp, &other, 5, 5, false);
        assert!(matches!(t.lookup(rel(), &args, 5, 5), Lookup::Miss(_)));
        // A second slot for the original tuple can share the bucket.
        t.insert(rel(), fp, &args, 5, 5, true);
        assert!(matches!(t.lookup(rel(), &args, 5, 5), Lookup::Hit(true)));
        assert_eq!(t.stats().entries, 2);
    }

    #[test]
    fn capacity_stops_admitting_deterministically() {
        let mut t = MemoTable::with_capacity(1);
        for n in 0..3 {
            let args = [tree(n)];
            if let Lookup::Miss(fp) = t.lookup(rel(), &args, 5, 5) {
                t.insert(rel(), fp, &args, 5, 5, true);
            }
        }
        let s = t.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.insertions, 1);
        assert_eq!(s.full_skipped, 2);
        // The admitted entry keeps answering.
        assert!(matches!(
            t.lookup(rel(), &[tree(0)], 5, 5),
            Lookup::Hit(true)
        ));
    }

    #[test]
    fn stats_json_keys_are_sorted_and_display_is_stable() {
        let mut t = MemoTable::with_capacity(4);
        let args = [tree(1)];
        let fp = miss_fp(&mut t, rel(), &args, 5, 5);
        t.insert(rel(), fp, &args, 5, 5, true);
        let s = t.stats();
        let j = s.to_json();
        let keys = [
            "degraded_shards",
            "entries",
            "full_skipped",
            "hits",
            "insertions",
            "misses",
            "none_skipped",
            "retries",
            "shed",
        ];
        let mut at = 0;
        for k in keys {
            let pos = j.find(&format!("\"{k}\":")).expect(k);
            assert!(pos >= at, "key {k} out of sorted order in {j}");
            at = pos;
        }
        assert_eq!(j, t.stats().to_json(), "snapshot must be deterministic");
        let d = s.to_string();
        assert!(d.contains("1 insertions"), "{d}");
        assert!(!d.contains("serving:"), "zero serve counters stay silent");
        let served = MemoStats {
            degraded_shards: 2,
            shed: 3,
            retries: 4,
            ..s
        };
        assert!(served
            .to_string()
            .contains("2 degraded shard(s), 3 shed, 4 retries"));
    }
}
