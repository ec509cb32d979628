//! A std-only counting global allocator.
//!
//! Two kinds of count:
//!
//! * **Per thread, exact**: allocations and bytes requested by the
//!   calling thread ([`thread_counts`]). These give allocations and
//!   bytes per operation on single-thread paths, and repeat exactly
//!   across same-seed runs.
//! * **Process-wide live and peak bytes** ([`peak_bytes`]). Each thread
//!   batches its live-byte delta and folds it into the shared counter
//!   once it exceeds [`FLUSH_BYTES`], so two busy threads do not bounce
//!   one cache line on every allocation. The peak is therefore exact to
//!   within `FLUSH_BYTES` per running thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// The allocator installed by `main.rs`.
pub struct Counting;

/// Live-byte delta a thread may hold before folding it into [`LIVE`].
const FLUSH_BYTES: isize = 64 * 1024;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn fold_live(delta: isize) {
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn note(delta: isize, new_bytes: usize) {
    // `try_with` fails only while the thread's locals are being torn
    // down; count directly then.
    let batched = PENDING
        .try_with(|p| {
            let v = p.get() + delta;
            if v.abs() >= FLUSH_BYTES {
                p.set(0);
                fold_live(v);
            } else {
                p.set(v);
            }
        })
        .is_ok();
    if !batched {
        fold_live(delta);
    }
    if new_bytes > 0 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + new_bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged and only updates counters afterwards; the
// counters never allocate (const-initialised `Cell`s and atomics).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize, layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize, new_size);
        }
        p
    }
}

/// `(allocations, bytes requested)` by the calling thread so far.
pub fn thread_counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Folds the calling thread's batched live-byte delta into the shared
/// counter. Worker threads call it before they finish, so bytes they
/// allocated and another thread freed do not leave the count skewed.
pub fn flush_thread() {
    let v = PENDING.with(|p| p.replace(0));
    if v != 0 {
        fold_live(v);
    }
}

/// High-water mark of live heap bytes since the process started.
pub fn peak_bytes() -> u64 {
    flush_thread();
    PEAK.load(Relaxed).max(0) as u64
}
