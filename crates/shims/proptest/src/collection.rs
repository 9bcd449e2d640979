//! Collection strategies, mirroring `proptest::collection`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A size specification for collection strategies: an exact length or a
/// length range.
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        if self.lo == self.hi {
            self.lo
        } else {
            self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
        }
    }
}

/// Strategy for `Vec<T>` with lengths drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.sample(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy for `BTreeSet<T>` with cardinalities drawn from `size`.
///
/// If the element domain is too small to reach the sampled cardinality,
/// the set saturates at however many distinct values were found within a
/// bounded number of draws (mirroring proptest's rejection behaviour
/// without its global rejection budget).
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`btree_set`].
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let target = self.size.sample(rng);
        let mut out = BTreeSet::new();
        let mut attempts = 0usize;
        while out.len() < target && attempts < target * 10 + 100 {
            out.insert(self.element.generate(rng));
            attempts += 1;
        }
        out
    }
}

/// Strategy for `BTreeMap<K, V>` with cardinalities drawn from `size`.
pub fn btree_map<K, V>(keys: K, values: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    BTreeMapStrategy {
        keys,
        values,
        size: size.into(),
    }
}

/// The strategy returned by [`btree_map`].
pub struct BTreeMapStrategy<K, V> {
    keys: K,
    values: V,
    size: SizeRange,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
        let target = self.size.sample(rng);
        let mut out = BTreeMap::new();
        let mut attempts = 0usize;
        while out.len() < target && attempts < target * 10 + 100 {
            out.insert(self.keys.generate(rng), self.values.generate(rng));
            attempts += 1;
        }
        out
    }
}
