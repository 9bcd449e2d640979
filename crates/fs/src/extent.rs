//! Extent trees: sorted logical→physical block mappings.
//!
//! An extent maps a contiguous run of a file's logical blocks to a
//! contiguous run of physical blocks. This is the structure the paper's
//! NVMe-layer soft-state cache snapshots (§4 Translation & Security):
//! the whole design rests on these mappings being *stable* for the index
//! files of LSM trees and batch-updated B-trees.

/// One contiguous mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First logical block.
    pub logical: u64,
    /// First physical block.
    pub physical: u64,
    /// Length in blocks.
    pub len: u64,
}

impl Extent {
    /// Logical block one past the end.
    pub fn logical_end(&self) -> u64 {
        self.logical + self.len
    }

    /// True if `lb` falls inside this extent.
    pub fn contains(&self, lb: u64) -> bool {
        lb >= self.logical && lb < self.logical_end()
    }
}

/// A sorted, non-overlapping set of extents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtentTree {
    exts: Vec<Extent>,
}

impl ExtentTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        ExtentTree::default()
    }

    /// Number of extents.
    pub fn len(&self) -> usize {
        self.exts.len()
    }

    /// True if the file has no mapped blocks.
    pub fn is_empty(&self) -> bool {
        self.exts.is_empty()
    }

    /// Iterates extents in logical order.
    pub fn iter(&self) -> impl Iterator<Item = &Extent> {
        self.exts.iter()
    }

    /// Total mapped blocks.
    pub fn mapped_blocks(&self) -> u64 {
        self.exts.iter().map(|e| e.len).sum()
    }

    /// Maps a logical block to `(physical block, run remaining)` — the
    /// number of further blocks contiguous both logically and physically.
    pub fn lookup(&self, lb: u64) -> Option<(u64, u64)> {
        let i = self.find(lb)?;
        let e = &self.exts[i];
        let delta = lb - e.logical;
        Some((e.physical + delta, e.len - delta))
    }

    /// First mapped logical block past `lb` — where an unmapped gap
    /// starting at `lb` ends. `None` when nothing is mapped beyond it.
    pub fn next_mapped(&self, lb: u64) -> Option<u64> {
        let idx = self.exts.partition_point(|e| e.logical <= lb);
        self.exts.get(idx).map(|e| e.logical)
    }

    fn find(&self, lb: u64) -> Option<usize> {
        // Binary search for the extent containing lb.
        let idx = self.exts.partition_point(|e| e.logical_end() <= lb);
        if idx < self.exts.len() && self.exts[idx].contains(lb) {
            Some(idx)
        } else {
            None
        }
    }

    /// Inserts a new mapping, merging with adjacent extents when both
    /// the logical and physical runs are contiguous.
    ///
    /// # Panics
    ///
    /// Panics if the logical range overlaps an existing extent (callers
    /// must unmap first); overlapping extents would mean FS corruption.
    pub fn insert(&mut self, ext: Extent) {
        if ext.len == 0 {
            return;
        }
        let idx = self.exts.partition_point(|e| e.logical < ext.logical);
        if idx > 0 {
            let prev = &self.exts[idx - 1];
            assert!(
                prev.logical_end() <= ext.logical,
                "extent overlap: {prev:?} vs {ext:?}"
            );
        }
        if idx < self.exts.len() {
            let next = &self.exts[idx];
            assert!(
                ext.logical_end() <= next.logical,
                "extent overlap: {ext:?} vs {next:?}"
            );
        }
        // Merge in place with the predecessor and the successor it
        // continues both logically and physically: the tail shifts at
        // most once, for an insert that merges with neither or a merge
        // that swallows the successor.
        let joins = |a: &Extent, b: &Extent| {
            a.logical_end() == b.logical && a.physical + a.len == b.physical
        };
        let prev = idx > 0 && joins(&self.exts[idx - 1], &ext);
        let next = self.exts.get(idx).is_some_and(|next| joins(&ext, next));
        match (prev, next) {
            (true, true) => {
                let next = self.exts.remove(idx);
                self.exts[idx - 1].len += ext.len + next.len;
            }
            (true, false) => self.exts[idx - 1].len += ext.len,
            (false, true) => {
                self.exts[idx] = Extent {
                    len: ext.len + self.exts[idx].len,
                    ..ext
                }
            }
            (false, false) => self.exts.insert(idx, ext),
        }
    }

    /// Unmaps the logical range `[lb, lb + n)`, returning the physical
    /// runs that were released. Extents straddling the boundary are
    /// split.
    pub fn remove_range(&mut self, lb: u64, n: u64) -> Vec<Extent> {
        let end = lb + n;
        // The window of extents that overlap the range.
        let lo = self.exts.partition_point(|e| e.logical_end() <= lb);
        let hi = lo + self.exts[lo..].partition_point(|e| e.logical < end);
        if n == 0 || lo == hi {
            return Vec::new();
        }
        // What survives of it: the head of its first extent and the tail
        // of its last, spliced in where the window was.
        let (first, last) = (self.exts[lo], self.exts[hi - 1]);
        let head = Extent {
            len: lb.saturating_sub(first.logical),
            ..first
        };
        let tail = Extent {
            logical: end,
            physical: last.physical + (end - last.logical),
            len: last.logical_end().saturating_sub(end),
        };
        let survivors = [head, tail].into_iter().filter(|e| e.len > 0);
        self.exts
            .splice(lo..hi, survivors)
            .map(|e| {
                let from = lb.max(e.logical);
                Extent {
                    logical: from,
                    physical: e.physical + (from - e.logical),
                    len: end.min(e.logical_end()) - from,
                }
            })
            .collect()
    }

    /// Snapshot of all extents (what the ioctl pushes to the NVMe layer).
    pub fn snapshot(&self) -> Vec<Extent> {
        self.exts.clone()
    }
}

impl From<Vec<Extent>> for ExtentTree {
    /// Adopts a [`ExtentTree::snapshot`]: extents in logical order, none
    /// overlapping.
    fn from(exts: Vec<Extent>) -> Self {
        debug_assert!(exts.windows(2).all(|w| w[0].logical_end() <= w[1].logical));
        ExtentTree { exts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(logical: u64, physical: u64, len: u64) -> Extent {
        Extent {
            logical,
            physical,
            len,
        }
    }

    #[test]
    fn lookup_within_extent() {
        let mut t = ExtentTree::new();
        t.insert(ext(0, 1000, 8));
        assert_eq!(t.lookup(0), Some((1000, 8)));
        assert_eq!(t.lookup(5), Some((1005, 3)));
        assert_eq!(t.lookup(8), None);
    }

    #[test]
    fn merge_logically_and_physically_adjacent() {
        let mut t = ExtentTree::new();
        t.insert(ext(0, 100, 4));
        t.insert(ext(4, 104, 4));
        assert_eq!(t.len(), 1, "merged into one extent");
        assert_eq!(t.lookup(7), Some((107, 1)));
    }

    #[test]
    fn no_merge_when_physically_discontiguous() {
        let mut t = ExtentTree::new();
        t.insert(ext(0, 100, 4));
        t.insert(ext(4, 500, 4));
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(3), Some((103, 1)), "run stops at extent edge");
        assert_eq!(t.lookup(4), Some((500, 4)));
    }

    #[test]
    fn merge_with_successor() {
        let mut t = ExtentTree::new();
        t.insert(ext(4, 104, 4));
        t.insert(ext(0, 100, 4));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn merge_bridges_both_sides() {
        let mut t = ExtentTree::new();
        t.insert(ext(0, 100, 2));
        t.insert(ext(4, 104, 2));
        t.insert(ext(2, 102, 2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.mapped_blocks(), 6);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlap_panics() {
        let mut t = ExtentTree::new();
        t.insert(ext(0, 100, 4));
        t.insert(ext(2, 200, 4));
    }

    #[test]
    fn remove_whole_extent() {
        let mut t = ExtentTree::new();
        t.insert(ext(0, 100, 4));
        let removed = t.remove_range(0, 4);
        assert_eq!(removed, vec![ext(0, 100, 4)]);
        assert!(t.is_empty());
    }

    #[test]
    fn remove_splits_middle() {
        let mut t = ExtentTree::new();
        t.insert(ext(0, 100, 10));
        let removed = t.remove_range(3, 4);
        assert_eq!(removed, vec![ext(3, 103, 4)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(2), Some((102, 1)));
        assert_eq!(t.lookup(3), None);
        assert_eq!(t.lookup(7), Some((107, 3)));
    }

    #[test]
    fn remove_spanning_multiple_extents() {
        let mut t = ExtentTree::new();
        t.insert(ext(0, 100, 4));
        t.insert(ext(4, 500, 4));
        t.insert(ext(8, 900, 4));
        let removed = t.remove_range(2, 8);
        assert_eq!(
            removed,
            vec![ext(2, 102, 2), ext(4, 500, 4), ext(8, 900, 2)]
        );
        assert_eq!(t.mapped_blocks(), 4);
    }

    #[test]
    fn remove_empty_range_is_noop() {
        let mut t = ExtentTree::new();
        t.insert(ext(0, 100, 4));
        assert!(t.remove_range(0, 0).is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn snapshot_is_sorted_copy() {
        let mut t = ExtentTree::new();
        t.insert(ext(8, 900, 4));
        t.insert(ext(0, 100, 4));
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap[0].logical < snap[1].logical);
    }

    #[test]
    fn sparse_file_lookup_misses_holes() {
        let mut t = ExtentTree::new();
        t.insert(ext(0, 100, 2));
        t.insert(ext(10, 200, 2));
        assert_eq!(t.lookup(5), None);
        assert_eq!(t.lookup(10), Some((200, 2)));
    }
}
