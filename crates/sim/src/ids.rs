//! Hash maps keyed by small kernel-minted integers.
//!
//! Command ids, descriptors, inode numbers and program slots are dense
//! integers the simulation mints itself, so std's keyed SipHash buys
//! nothing: there is no outside party to craft collisions, and the
//! per-process key makes allocation counts (table growth) differ from
//! run to run. [`IdMap`]/[`IdSet`] hash with one multiply and a fold.
//! Keep the default hasher for keys that come from outside the program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] keyed by an integer id.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A [`HashSet`] of integer ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Multiply-and-fold hasher for integer keys.
///
/// std's table buckets by the *low* bits of the hash and tags by the
/// top seven; `x * odd` alone leaves the low bits a function of `x`'s
/// low bits only, so keys strided by a power of two would pile into one
/// bucket. Folding the high half down mixes every key bit into both.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdHasher hashes integer ids only; use the default hasher for other keys");
    }

    fn write_u64(&mut self, id: u64) {
        // 2^64 / golden ratio, odd.
        let h = (self.0 ^ id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write_u32(&mut self, id: u32) {
        self.write_u64(u64::from(id));
    }

    fn write_usize(&mut self, id: usize) {
        self.write_u64(id as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(id: u64) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(id)
    }

    /// 64 k keys `i * stride` must spread over the table's bucket bits
    /// (low 16) and its control-byte tags (top 7).
    fn spread(stride: u64) -> (usize, usize) {
        let hashes: Vec<u64> = (0..1u64 << 16).map(|i| hash(i * stride)).collect();
        let low: IdSet<u64> = hashes.iter().map(|h| h & 0xFFFF).collect();
        let tags: IdSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        (low.len(), tags.len())
    }

    #[test]
    fn dense_and_strided_keys_spread_over_buckets_and_tags() {
        for stride in [1, 1 << 10, 1 << 20] {
            let (low, tags) = spread(stride);
            assert!(low >= 32 << 10, "stride {stride}: {low} distinct buckets");
            assert!(tags >= 100, "stride {stride}: {tags} distinct tags");
        }
    }

    #[test]
    fn narrow_integers_hash_like_their_u64_value() {
        let b = BuildHasherDefault::<IdHasher>::default();
        assert_eq!(b.hash_one(7u32), hash(7));
        assert_eq!(b.hash_one(7usize), hash(7));
    }

    #[test]
    fn map_and_set_behave() {
        let mut m: IdMap<u64, &str> = IdMap::default();
        m.insert(3, "a");
        m.insert(u64::MAX, "b");
        assert_eq!(m.get(&3), Some(&"a"));
        assert_eq!(m.remove(&u64::MAX), Some("b"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "integer ids only")]
    fn byte_slices_are_refused_loudly() {
        BuildHasherDefault::<IdHasher>::default().hash_one("not an id");
    }
}
