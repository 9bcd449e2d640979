//! A block-granular LRU page cache.
//!
//! The paper's design deliberately *bypasses* the kernel page cache for
//! BPF traversals (§4 Caching: applications manage their own caches),
//! and the simulated kernel opens every descriptor `O_DIRECT`: no
//! library crate uses this type. It is kept only for the benchmark's
//! micro-timing of a cache hit (`fs.pagecache_get_ns` in `benchmarks/`).

use std::collections::HashMap;

/// Cache key: (inode, logical block).
pub type PageKey = (u64, u64);

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the block.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
    /// Blocks invalidated explicitly.
    pub invalidations: u64,
}

/// LRU cache of file blocks.
///
/// The LRU list is an intrusive doubly-linked list over a slab, so
/// `get`/`insert` are O(1) (HashMap cost aside) even at millions of
/// entries.
pub struct PageCache {
    capacity: usize,
    block_size: usize,
    map: HashMap<PageKey, usize>,
    slab: Vec<Slot>,
    head: usize, // Most recently used; NIL when empty.
    tail: usize, // Least recently used.
    free: Vec<usize>,
    stats: CacheStats,
}

const NIL: usize = usize::MAX;

struct Slot {
    key: PageKey,
    data: Vec<u8>,
    prev: usize,
    next: usize,
}

impl PageCache {
    /// Creates a cache holding up to `capacity` blocks of `block_size`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, block_size: usize) -> Self {
        assert!(capacity > 0, "cache needs capacity");
        PageCache {
            capacity,
            block_size,
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up a block, promoting it to most-recently-used.
    pub fn get(&mut self, key: PageKey) -> Option<&[u8]> {
        match self.map.get(&key).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.detach(idx);
                self.attach_front(idx);
                Some(&self.slab[idx].data)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) a block, evicting the LRU block if full.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block.
    pub fn insert(&mut self, key: PageKey, data: &[u8]) {
        assert_eq!(data.len(), self.block_size, "cache takes whole blocks");
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].data.copy_from_slice(data);
            self.detach(idx);
            self.attach_front(idx);
            return;
        }
        let idx = if self.map.len() >= self.capacity {
            // Evict the tail.
            let victim = self.tail;
            self.detach(victim);
            self.map.remove(&self.slab[victim].key);
            self.stats.evictions += 1;
            self.slab[victim].key = key;
            self.slab[victim].data.copy_from_slice(data);
            victim
        } else if let Some(idx) = self.free.pop() {
            self.slab[idx].key = key;
            self.slab[idx].data.copy_from_slice(data);
            idx
        } else {
            self.slab.push(Slot {
                key,
                data: data.to_vec(),
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
    }

    /// Drops one block if present; returns whether it was cached.
    pub fn invalidate(&mut self, key: PageKey) -> bool {
        if let Some(idx) = self.map.remove(&key) {
            self.detach(idx);
            self.free.push(idx);
            self.stats.invalidations += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; 512]
    }

    #[test]
    fn miss_then_hit() {
        let mut c = PageCache::new(4, 512);
        assert!(c.get((1, 0)).is_none());
        c.insert((1, 0), &block(7));
        assert_eq!(c.get((1, 0)).expect("hit")[0], 7);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = PageCache::new(2, 512);
        c.insert((1, 0), &block(1));
        c.insert((1, 1), &block(2));
        c.get((1, 0)); // promote block 0
        c.insert((1, 2), &block(3)); // evicts block 1 (LRU)
        assert!(c.get((1, 1)).is_none(), "LRU evicted");
        assert!(c.get((1, 0)).is_some());
        assert!(c.get((1, 2)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_content() {
        let mut c = PageCache::new(2, 512);
        c.insert((1, 0), &block(1));
        c.insert((1, 0), &block(9));
        assert_eq!(c.get((1, 0)).expect("hit")[0], 9);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_single_and_inode() {
        let mut c = PageCache::new(8, 512);
        c.insert((1, 0), &block(1));
        c.insert((1, 1), &block(2));
        c.insert((2, 0), &block(3));
        assert!(c.invalidate((1, 0)));
        assert!(!c.invalidate((1, 0)), "second invalidate misses");
        assert_eq!(c.len(), 2);
        assert!(c.get((2, 0)).is_some());
    }

    #[test]
    fn slots_are_reused_after_invalidate() {
        let mut c = PageCache::new(2, 512);
        c.insert((1, 0), &block(1));
        c.invalidate((1, 0));
        c.insert((1, 1), &block(2));
        c.insert((1, 2), &block(3));
        assert_eq!(c.len(), 2);
        assert!(c.get((1, 1)).is_some());
        assert!(c.get((1, 2)).is_some());
    }

    #[test]
    fn heavy_traffic_keeps_size_bounded() {
        let mut c = PageCache::new(64, 512);
        for i in 0..10_000u64 {
            c.insert((i % 7, i), &block((i % 250) as u8));
        }
        assert!(c.len() <= 64);
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn wrong_block_size_panics() {
        PageCache::new(2, 512).insert((0, 0), &[0u8; 100]);
    }
}
