//! The NVMe-layer extent soft-state cache (§4 Translation & Security).
//!
//! The NVMe driver cannot consult file-system metadata, so a BPF
//! function's "next file offset" is meaningless there — unless the
//! extents of the attached file have been pushed down ahead of time.
//! This cache is that push-down:
//!
//! - the install ioctl snapshots the file's extents into the cache
//!   (together with the inode's unmap generation);
//! - tagged resubmissions translate file offsets with a binary search
//!   over the snapshot — no file-system call, no locks;
//! - when the file system unmaps any block of the file it fires an
//!   invalidation (see `bpfstor-fs`'s extent events); the cache entry
//!   dies, in-flight recycled I/Os are aborted, and the application must
//!   re-arm via the ioctl — the paper's "heavy-handed but simple"
//!   choice, kept deliberately.
//!
//! Lookups also return how many blocks remain physically contiguous so
//! the driver can detect granularity mismatches (§4: requests straddling
//! extents fall back to the BIO path).

use bpfstor_fs::Extent;
use bpfstor_sim::IdMap;

/// Counters for the extent-cache ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtCacheStats {
    /// Successful translations.
    pub hits: u64,
    /// Lookups for offsets with no cached mapping.
    pub misses: u64,
    /// Entry invalidations triggered by file-system unmap events.
    pub invalidations: u64,
    /// Snapshots installed (ioctl + re-arm).
    pub installs: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    extents: Vec<Extent>,
    unmap_generation: u64,
}

/// The soft-state cache, keyed by inode.
#[derive(Debug, Default)]
pub struct ExtentCache {
    entries: IdMap<u64, Entry>,
    stats: ExtCacheStats,
}

impl ExtentCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ExtentCache::default()
    }

    /// Installs (or refreshes) the snapshot for `ino`.
    pub fn install(&mut self, ino: u64, extents: Vec<Extent>, unmap_generation: u64) {
        self.stats.installs += 1;
        self.entries.insert(
            ino,
            Entry {
                extents,
                unmap_generation,
            },
        );
    }

    /// True if `ino` currently has a valid snapshot.
    pub fn is_armed(&self, ino: u64) -> bool {
        self.entries.contains_key(&ino)
    }

    /// The unmap generation the snapshot was taken at.
    pub fn generation(&self, ino: u64) -> Option<u64> {
        self.entries.get(&ino).map(|e| e.unmap_generation)
    }

    /// Translates a logical block to `(physical block, contiguous run)`.
    ///
    /// `None` means the cache cannot serve the translation (no snapshot
    /// or a hole): the driver must abort the offloaded chain.
    pub fn lookup(&mut self, ino: u64, logical_block: u64) -> Option<(u64, u64)> {
        let Some(entry) = self.entries.get(&ino) else {
            self.stats.misses += 1;
            return None;
        };
        let idx = entry
            .extents
            .partition_point(|e| e.logical_end() <= logical_block);
        match entry.extents.get(idx) {
            Some(e) if e.contains(logical_block) => {
                self.stats.hits += 1;
                let delta = logical_block - e.logical;
                Some((e.physical + delta, e.len - delta))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Drops the snapshot for `ino` (file-system unmap hook). Returns
    /// whether an entry existed.
    pub fn invalidate(&mut self, ino: u64) -> bool {
        let hit = self.entries.remove(&ino).is_some();
        if hit {
            self.stats.invalidations += 1;
        }
        hit
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ExtCacheStats {
        self.stats
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
    fn lookup_translates_with_run_length() {
        let mut c = ExtentCache::new();
        c.install(5, vec![ext(0, 1000, 8), ext(8, 2000, 4)], 0);
        assert_eq!(c.lookup(5, 0), Some((1000, 8)));
        assert_eq!(c.lookup(5, 7), Some((1007, 1)));
        assert_eq!(c.lookup(5, 8), Some((2000, 4)));
        assert_eq!(c.lookup(5, 11), Some((2003, 1)));
        assert_eq!(c.stats().hits, 4);
    }

    #[test]
    fn holes_and_past_eof_miss() {
        let mut c = ExtentCache::new();
        c.install(5, vec![ext(0, 1000, 2), ext(10, 2000, 2)], 0);
        assert_eq!(c.lookup(5, 5), None, "hole");
        assert_eq!(c.lookup(5, 100), None, "past end");
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn unarmed_inode_misses() {
        let mut c = ExtentCache::new();
        assert!(!c.is_armed(9));
        assert_eq!(c.lookup(9, 0), None);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn invalidate_kills_translations() {
        let mut c = ExtentCache::new();
        c.install(5, vec![ext(0, 1000, 8)], 3);
        assert_eq!(c.generation(5), Some(3));
        assert!(c.invalidate(5));
        assert!(!c.is_armed(5));
        assert_eq!(c.lookup(5, 0), None);
        assert!(!c.invalidate(5), "second invalidate is a no-op");
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn reinstall_refreshes_snapshot() {
        let mut c = ExtentCache::new();
        c.install(5, vec![ext(0, 1000, 8)], 0);
        c.install(5, vec![ext(0, 9000, 8)], 1);
        assert_eq!(c.lookup(5, 0), Some((9000, 8)));
        assert_eq!(c.stats().installs, 2);
    }
}
