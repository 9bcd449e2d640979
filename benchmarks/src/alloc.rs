//! A counting global allocator: allocations, live bytes and the peak of
//! live bytes, kept **per thread**.
//!
//! The benchmark generates load from one thread, so per-thread counters
//! are exact for it, cost two plain loads and stores per call (no atomic
//! read-modify-write on the path being timed), and keep unit tests, which
//! run on threads of their own, from disturbing each other. Bytes freed
//! on a thread other than the one that allocated them are charged to the
//! freeing thread; nothing measured here does that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers of types without `Drop`: reading them from
    // inside the allocator neither allocates nor registers a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The allocator the benchmark binary installs.
pub struct Counting;

fn grew(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    let live = LIVE.with(|c| {
        c.set(c.get() + bytes);
        c.get()
    });
    PEAK.with(|c| {
        if live > c.get() {
            c.set(live);
        }
    });
}

fn shrank(bytes: usize) {
    // Saturating: a block allocated on another thread may be freed here.
    LIVE.with(|c| c.set(c.get().saturating_sub(bytes)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only thread-local
// `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator for `layout`,
        // i.e. by `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. `System`;
        // `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// A reading of the calling thread's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation calls so far (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes allocated and not yet freed.
    pub live: usize,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: usize,
}

/// Reads the calling thread's counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.with(Cell::get),
        live: LIVE.with(Cell::get),
        peak: PEAK.with(Cell::get),
    }
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    let live = LIVE.with(Cell::get);
    PEAK.with(|c| c.set(live));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_the_high_water_mark_not_the_current_size() {
        reset_peak();
        let before = snapshot();
        let big = vec![1u8; 1 << 20];
        let during = snapshot();
        assert!(during.live >= before.live + (1 << 20));
        assert!(during.allocs > before.allocs);
        drop(std::hint::black_box(big));
        let small = vec![1u8; 1 << 10];
        let after = snapshot();
        assert!(
            after.live < before.live + (1 << 20),
            "the big block is gone"
        );
        assert!(
            after.peak >= before.live + (1 << 20),
            "the peak remembers it: {after:?}"
        );
        drop(std::hint::black_box(small));
        reset_peak();
        let reset = snapshot();
        assert_eq!(reset.peak, reset.live, "reset restarts from live");
    }

    #[test]
    fn realloc_counts_once_and_moves_live_by_the_difference() {
        let mut v: Vec<u8> = Vec::with_capacity(1 << 12);
        let a = snapshot();
        v.reserve_exact(1 << 16);
        let b = snapshot();
        assert_eq!(b.allocs, a.allocs + 1);
        assert_eq!(b.live - a.live, v.capacity() - (1 << 12));
    }
}
