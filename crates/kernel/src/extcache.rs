//! The NVMe-layer extent soft-state cache (§4 Translation & Security).
//!
//! The NVMe driver cannot consult file-system metadata, so a BPF
//! function's "next file offset" is meaningless there — unless the
//! extents of the attached file have been pushed down ahead of time.
//! This cache is that push-down:
//!
//! - the install ioctl snapshots the file's extents into the cache
//!   (together with the inode's unmap generation);
//! - tagged resubmissions translate file offsets with the file
//!   system's own extent search over the snapshot — no file-system
//!   call, no locks;
//! - when the file system unmaps any block of the file it fires an
//!   invalidation (see `bpfstor-fs`'s extent events); the snapshot dies
//!   and leaves a tombstone, in-flight recycled I/Os of the inode are
//!   aborted while it stands, and the application must re-arm via the
//!   ioctl — the paper's "heavy-handed but simple" choice, kept
//!   deliberately.
//!
//! Lookups also return how many blocks remain physically contiguous so
//! the driver can detect granularity mismatches (§4: requests straddling
//! extents fall back to the BIO path).

use bpfstor_fs::{Extent, ExtentTree};
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

/// What the cache holds for an inode: its snapshot, or the tombstone an
/// invalidation leaves until the next install.
#[derive(Debug, Clone)]
enum Entry {
    Armed {
        extents: ExtentTree,
        unmap_generation: u64,
    },
    Aborting,
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
        let extents = ExtentTree::from(extents);
        let entry = Entry::Armed {
            extents,
            unmap_generation,
        };
        self.entries.insert(ino, entry);
    }

    /// True if `ino` currently has a valid snapshot.
    pub fn is_armed(&self, ino: u64) -> bool {
        self.generation(ino).is_some()
    }

    /// True from an invalidation of `ino` until its next install: its
    /// in-flight recycled I/Os must be aborted.
    pub fn aborting(&self, ino: u64) -> bool {
        matches!(self.entries.get(&ino), Some(Entry::Aborting))
    }

    /// The unmap generation the snapshot was taken at.
    pub fn generation(&self, ino: u64) -> Option<u64> {
        match self.entries.get(&ino)? {
            Entry::Armed {
                unmap_generation, ..
            } => Some(*unmap_generation),
            Entry::Aborting => None,
        }
    }

    /// Translates a logical block to `(physical block, contiguous run)`.
    ///
    /// `None` means the cache cannot serve the translation (no snapshot
    /// or a hole): the driver must abort the offloaded chain.
    pub fn lookup(&mut self, ino: u64, logical_block: u64) -> Option<(u64, u64)> {
        let found = match self.entries.get(&ino) {
            Some(Entry::Armed { extents, .. }) => extents.lookup(logical_block),
            _ => None,
        };
        match found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        found
    }

    /// Replaces the snapshot for `ino` with a tombstone (file-system
    /// unmap hook), armed or not. Returns whether a snapshot existed.
    pub fn invalidate(&mut self, ino: u64) -> bool {
        let hit = matches!(
            self.entries.insert(ino, Entry::Aborting),
            Some(Entry::Armed { .. })
        );
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
        assert!(c.aborting(5));
        assert_eq!(c.lookup(5, 0), None);
        assert!(!c.invalidate(5), "second invalidate is a no-op");
        assert_eq!(c.stats().invalidations, 1);
        // A never-armed inode gets a tombstone too; an install clears it.
        assert!(!c.invalidate(6));
        assert!(c.aborting(6));
        c.install(6, vec![ext(0, 3000, 2)], 1);
        assert!(!c.aborting(6) && c.is_armed(6));
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
