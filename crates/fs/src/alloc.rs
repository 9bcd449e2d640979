//! Block-group bitmap allocator.
//!
//! Mirrors ext4's allocation behaviour at the level the paper cares
//! about: allocations are **goal-directed** (try to extend the previous
//! extent of the same file first) and **group-local** (fall back to a
//! first-fit scan inside block groups), so sequential appends produce a
//! small number of large extents. Extent stability under append-mostly
//! workloads (§4's TokuDB/YCSB measurement) follows directly from this
//! policy.
//!
//! Every scan and every set/clear works a 64-block bitmap word at a
//! time (`!word & mask`, `trailing_zeros`), so an allocation costs
//! O(words crossed) whether the goal is free or the first-fit pass has
//! to skip a full group; `tests/props.rs` holds the bit-at-a-time
//! allocator this one is checked against.
//!
//! The bitmap is sized by use, not by the device: it holds the words up
//! to the highest one ever set, and every block past its end reads as
//! free. Goal-directed allocation over a device that fills from block 0
//! keeps written blocks dense (the argument `device/src/store.rs` makes
//! for its sector index), so a 2 GiB file system holding a few hundred
//! KiB of files costs a few hundred bytes of bitmap, not 512 KiB. A
//! search for a used block stops at the grown end instead of walking
//! words that are all zero.

/// Blocks per block group (ext4 uses 32768 × 4 KiB; we scale down for
/// 512 B blocks but keep the structure).
pub const GROUP_BLOCKS: u64 = 8192;

/// A bitmap allocator over a flat block space.
#[derive(Debug, Clone)]
pub struct BlockAllocator {
    /// Bitmap words up to the highest one ever set; the blocks past
    /// them are free.
    bits: Vec<u64>,
    nblocks: u64,
    used: u64,
}

/// A contiguous allocated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First block of the run.
    pub start: u64,
    /// Length in blocks.
    pub len: u64,
}

impl BlockAllocator {
    /// Creates an allocator over `nblocks` free blocks. It holds no
    /// bitmap until the first allocation.
    ///
    /// # Panics
    ///
    /// Panics if `nblocks == 0`.
    pub fn new(nblocks: u64) -> Self {
        assert!(nblocks > 0, "empty device");
        BlockAllocator {
            bits: Vec::new(),
            nblocks,
            used: 0,
        }
    }

    /// Total blocks managed.
    pub fn capacity(&self) -> u64 {
        self.nblocks
    }

    /// Blocks currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Blocks currently free.
    pub fn free(&self) -> u64 {
        self.nblocks - self.used
    }

    /// The first block past the bitmap: it and every block after it
    /// are free.
    fn grown_end(&self) -> u64 {
        self.bits.len() as u64 * 64
    }

    /// First block in `[from, to)` whose bit equals `used`.
    fn first_in(&self, from: u64, to: u64, used: bool) -> Option<u64> {
        let flip = if used { 0 } else { !0 };
        let end = self.grown_end();
        let within = word_masks(from, to.min(end)).find_map(|(w, mask)| {
            let hit = (self.bits[w] ^ flip) & mask;
            (hit != 0).then(|| w as u64 * 64 + u64::from(hit.trailing_zeros()))
        });
        // Past the bitmap every block is free.
        within.or_else(|| (!used && from.max(end) < to).then(|| from.max(end)))
    }

    /// Marks `[start, start + len)` used, growing the bitmap to cover it.
    fn set(&mut self, start: u64, len: u64) {
        let words = (start + len).div_ceil(64) as usize;
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
        for (w, mask) in word_masks(start, start + len) {
            self.bits[w] |= mask;
        }
        self.used += len;
    }

    /// Allocates up to `want` contiguous blocks, preferring to start at
    /// `goal` (pass the block just past the file's last extent to get
    /// extent-extending behaviour). Returns the run actually allocated —
    /// possibly shorter than `want`, never empty — or `None` when the
    /// device is full.
    pub fn alloc(&mut self, want: u64, goal: u64) -> Option<Run> {
        if want == 0 || self.free() == 0 {
            return None;
        }
        let goal = goal.min(self.nblocks - 1);
        // Pass 1: a run starting exactly at `goal`. Pass 2: first fit
        // scanning from the goal's block group start, then wrapping.
        let group_start = goal - goal % GROUP_BLOCKS;
        let goal_word = self.bits.get((goal / 64) as usize).copied().unwrap_or(0);
        let start = if goal_word >> (goal % 64) & 1 == 0 {
            goal
        } else {
            self.first_in(group_start, self.nblocks, false)
                .or_else(|| self.first_in(0, group_start, false))?
        };
        let end = start.saturating_add(want).min(self.nblocks);
        let len = self.first_in(start, end, true).unwrap_or(end) - start;
        self.set(start, len);
        Some(Run { start, len })
    }

    /// Frees a previously allocated run.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on double-free, which would indicate
    /// metadata corruption.
    pub fn release(&mut self, start: u64, len: u64) {
        debug_assert_eq!(
            self.first_in(start, start + len, false),
            None,
            "double free of block"
        );
        for (w, mask) in word_masks(start, start + len) {
            self.bits[w] &= !mask;
        }
        self.used -= len;
    }

    /// Marks a run as allocated during mkfs/replay (must be free).
    pub fn reserve(&mut self, start: u64, len: u64) {
        assert_eq!(
            self.first_in(start, start + len, true),
            None,
            "reserve of used block"
        );
        self.set(start, len);
    }

    /// Counts the free runs (a fragmentation measure used by the split-
    /// fallback ablation).
    pub fn free_fragments(&self) -> u64 {
        // A free run starts at every free block whose predecessor is
        // used (or absent); `prev_free` carries bit 63 across words.
        let end = self.grown_end();
        let mut frags = 0;
        let mut prev_free = 0;
        for (w, mask) in word_masks(0, self.nblocks.min(end)) {
            let free = !self.bits[w] & mask;
            frags += u64::from((free & !(free << 1 | prev_free)).count_ones());
            prev_free = free >> 63;
        }
        // The free tail past the bitmap is one run more, unless the
        // bitmap's last block was free and it continues that one.
        frags + u64::from(end < self.nblocks && prev_free == 0)
    }
}

/// Splits the block range `[from, to)` at bitmap-word boundaries:
/// `(word index, mask of the range's bits in that word)`.
fn word_masks(from: u64, to: u64) -> impl Iterator<Item = (usize, u64)> {
    let mut b = from;
    std::iter::from_fn(move || {
        if b >= to {
            return None;
        }
        let lo = b % 64;
        let n = (64 - lo).min(to - b);
        let mask = (!0u64 >> (64 - n)) << lo;
        let w = (b / 64) as usize;
        b += n;
        Some((w, mask))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_at_goal() {
        let mut a = BlockAllocator::new(1024);
        let r = a.alloc(16, 100).expect("alloc");
        assert_eq!(
            r,
            Run {
                start: 100,
                len: 16
            }
        );
        assert_eq!(a.used(), 16);
    }

    #[test]
    fn sequential_appends_stay_contiguous() {
        let mut a = BlockAllocator::new(1024);
        let r1 = a.alloc(8, 0).expect("alloc");
        let r2 = a.alloc(8, r1.start + r1.len).expect("alloc");
        assert_eq!(r2.start, r1.start + r1.len, "extent-extending");
    }

    #[test]
    fn shorter_run_when_goal_area_fragmented() {
        let mut a = BlockAllocator::new(1024);
        a.reserve(4, 1); // hole of 4 blocks at 0..4
        let r = a.alloc(16, 0).expect("alloc");
        assert_eq!(r, Run { start: 0, len: 4 }, "partial run returned");
    }

    #[test]
    fn skips_used_goal() {
        let mut a = BlockAllocator::new(1024);
        a.reserve(0, 10);
        let r = a.alloc(4, 0).expect("alloc");
        assert_eq!(r.start, 10);
    }

    #[test]
    fn wraps_scan_and_fails_when_full() {
        let mut a = BlockAllocator::new(64);
        a.reserve(0, 64);
        assert!(a.alloc(1, 0).is_none());
        a.release(63, 1);
        let r = a.alloc(1, 0).expect("alloc");
        assert_eq!(r.start, 63);
    }

    #[test]
    fn release_makes_blocks_reusable() {
        let mut a = BlockAllocator::new(128);
        let r = a.alloc(64, 0).expect("alloc");
        a.release(r.start, r.len);
        assert_eq!(a.used(), 0);
        let again = a.alloc(64, 0).expect("alloc");
        assert_eq!(again.start, 0);
    }

    #[test]
    fn fragmentation_counter() {
        let mut a = BlockAllocator::new(64);
        assert_eq!(a.free_fragments(), 1);
        a.reserve(10, 10);
        assert_eq!(a.free_fragments(), 2);
        a.reserve(40, 10);
        assert_eq!(a.free_fragments(), 3);
    }

    #[test]
    fn alloc_zero_rejected() {
        let mut a = BlockAllocator::new(16);
        assert!(a.alloc(0, 0).is_none());
    }

    #[test]
    fn goal_past_end_clamped() {
        let mut a = BlockAllocator::new(16);
        let r = a.alloc(1, 10_000).expect("alloc");
        assert_eq!(r.start, 15);
    }

    #[test]
    fn a_large_device_holds_no_bitmap_until_used() {
        let mut a = BlockAllocator::new(1 << 22);
        assert_eq!(a.bits.capacity(), 0);
        assert_eq!((a.free(), a.free_fragments()), (1 << 22, 1));
        a.alloc(8, 0).expect("alloc");
        assert_eq!(a.bits.len(), 1, "one word covers the first 64 blocks");
    }

    #[test]
    fn a_goal_past_the_grown_end_is_allocated_at_the_goal() {
        let mut a = BlockAllocator::new(1 << 22);
        a.alloc(8, 0).expect("alloc");
        let far = 1_000_000;
        assert_eq!(
            a.alloc(16, far),
            Some(Run {
                start: far,
                len: 16
            })
        );
        assert_eq!(a.bits.len() as u64, (far + 16).div_ceil(64));
        assert_eq!(a.free_fragments(), 2, "the gap and the tail");
        a.release(far, 16);
        assert_eq!(a.alloc(4, 8), Some(Run { start: 8, len: 4 }));
    }

    #[test]
    fn first_fit_runs_into_the_unmaterialised_tail_then_wraps() {
        let mut a = BlockAllocator::new(2 * GROUP_BLOCKS + 100);
        a.reserve(GROUP_BLOCKS, GROUP_BLOCKS);
        assert_eq!(a.grown_end(), 2 * GROUP_BLOCKS);
        // The goal's group is used up to the bitmap's end: first fit
        // goes on into the free blocks past it...
        let tail = Run {
            start: 2 * GROUP_BLOCKS,
            len: 100,
        };
        assert_eq!(a.alloc(150, GROUP_BLOCKS + 5), Some(tail));
        // ...and, with those used too, wraps to the device's start.
        assert_eq!(a.alloc(4, GROUP_BLOCKS + 5), Some(Run { start: 0, len: 4 }));
        assert_eq!(a.free_fragments(), 1);
    }
}
