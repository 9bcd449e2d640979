//! Latency histograms.
//!
//! Harnesses record per-request latencies into a [`Histogram`]
//! (log-bucketed, ~1.6% relative bucket error, 128 B per octave between
//! the smallest and largest value recorded and nothing while empty).

use crate::time::Nanos;

/// Number of sub-buckets per power of two; 16 gives ≤ ~3.1% width and
/// ~1.6% expected quantile error, plenty for latency reporting.
const SUBBUCKETS: usize = 16;

/// Log-bucketed latency histogram over nanosecond values.
///
/// Values are grouped into buckets of relative width 2^(1/16); quantiles
/// are answered from bucket midpoints. Counts are kept for whole
/// octaves only, from the smallest recorded value's octave to the
/// largest's: 128 B per octave spanned, no heap while empty. The held
/// range is a function of the minimum and maximum alone, so two
/// histograms of the same values compare equal however they were built.
///
/// # Examples
///
/// ```
/// use bpfstor_sim::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.5);
/// assert!((450..=550).contains(&p50), "p50={p50}");
/// ```
#[derive(Clone, PartialEq)]
pub struct Histogram {
    /// Counts of buckets `first..first + counts.len()`, whole octaves.
    counts: Vec<u64>,
    /// Bucket index of `counts[0]` (0 while empty).
    first: usize,
    n: u64,
    sum: u128,
    min: Nanos,
    max: Nanos,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("n", &self.n)
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: Nanos) -> usize {
    if v == 0 {
        return 0;
    }
    let octave = 63 - v.leading_zeros() as usize;
    if octave < 4 {
        // Values below 16 get exact small buckets at the front.
        return v as usize;
    }
    // Use the top 4 bits after the leading one as the sub-bucket index.
    let sub = ((v >> (octave - 4)) & 0xF) as usize;
    octave * SUBBUCKETS + sub
}

fn bucket_midpoint(idx: usize) -> Nanos {
    if idx < 16 {
        return idx as Nanos;
    }
    let octave = idx / SUBBUCKETS;
    let sub = idx % SUBBUCKETS;
    let base = 1u128 << octave;
    let lo = base + (base * sub as u128) / SUBBUCKETS as u128;
    let hi = base + (base * (sub as u128 + 1)) / SUBBUCKETS as u128;
    ((lo + hi) / 2).min(u64::MAX as u128) as Nanos
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            first: 0,
            n: 0,
            sum: 0,
            min: Nanos::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: Nanos) {
        let b = bucket_of(v);
        if !self.holds(b, b) {
            self.cover(b, b);
        }
        self.counts[b - self.first] += 1;
        self.n += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Smallest recorded value (`Nanos::MAX` if empty).
    pub fn min(&self) -> Nanos {
        self.min
    }

    /// Largest recorded value (0 if empty).
    pub fn max(&self) -> Nanos {
        self.max
    }

    /// Approximate quantile `q` in `[0, 1]` (0 if empty).
    ///
    /// Exact for the min (`q=0`) and max (`q=1`); otherwise accurate to
    /// the bucket's ~3% relative width.
    pub fn quantile(&self, q: f64) -> Nanos {
        if self.n == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_midpoint(self.first + i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.is_empty() {
            return;
        }
        let last = other.first + other.counts.len() - 1;
        if !self.holds(other.first, last) {
            self.cover(other.first, last);
        }
        let at = other.first - self.first;
        for (a, b) in self.counts[at..].iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Whether buckets `lo..=hi` are inside the held range.
    fn holds(&self, lo: usize, hi: usize) -> bool {
        lo >= self.first && hi < self.first + self.counts.len()
    }

    /// Widens the held range, in one allocation, to the whole octaves
    /// spanning it and buckets `lo..=hi`.
    fn cover(&mut self, lo: usize, hi: usize) {
        let (mut from, mut to) = (lo - lo % SUBBUCKETS, hi - hi % SUBBUCKETS + SUBBUCKETS);
        if !self.counts.is_empty() {
            from = from.min(self.first);
            to = to.max(self.first + self.counts.len());
        }
        let mut counts = vec![0; to - from];
        // Saturating: an empty histogram's `first` is 0 and it copies nothing.
        let at = self.first.saturating_sub(from);
        counts[at..at + self.counts.len()].copy_from_slice(&self.counts);
        self.counts = counts;
        self.first = from;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// 64 octaves × 16 sub-buckets covers 1ns..u64::MAX.
    const BUCKETS: usize = 64 * SUBBUCKETS;

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn histogram_quantile_accuracy_uniform() {
        let mut h = Histogram::new();
        let mut rng = SimRng::seed(42);
        for _ in 0..100_000 {
            h.record(rng.range(1_000, 101_000));
        }
        for (q, expect) in [(0.5, 51_000.0), (0.9, 91_000.0), (0.99, 100_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.06, "q={q} got={got} expect={expect}");
        }
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new();
        for v in [5u64, 10, 15] {
            h.record(v);
        }
        assert!((h.mean() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn merging_empty_into_empty_stays_empty_and_off_the_heap() {
        let mut a = Histogram::new();
        a.merge(&Histogram::new());
        assert_eq!(a, Histogram::new());
        assert_eq!((a.counts.capacity(), a.count(), a.quantile(0.5)), (0, 0, 0));
    }

    #[test]
    fn merging_disjoint_ranges_covers_both() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        a.record(3);
        b.record(1 << 40);
        let mut whole = Histogram::new();
        whole.record(1 << 40);
        whole.record(3);
        a.merge(&b);
        assert_eq!(a, whole);
        // Octaves 0 (values below 16) through 40.
        assert_eq!((a.first, a.counts.len()), (0, 41 * SUBBUCKETS));
        assert_eq!((a.quantile(0.5), a.quantile(1.0)), (3, 1 << 40));
        // Into a histogram that holds only the upper octave: the same
        // range, wherever the values came from.
        b.merge(&a);
        whole.record(1 << 40);
        assert_eq!(b, whole);
    }

    #[test]
    fn histogram_holds_whole_octaves_from_min_to_max() {
        let mut h = Histogram::new();
        h.record(1_000);
        assert_eq!((h.first, h.counts.len()), (9 * SUBBUCKETS, SUBBUCKETS));
        h.record(1_023);
        assert_eq!(h.counts.len(), SUBBUCKETS);
        h.record(100);
        assert_eq!((h.first, h.counts.len()), (6 * SUBBUCKETS, 4 * SUBBUCKETS));
    }

    #[test]
    fn histogram_huge_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn bucket_monotonicity() {
        // Bucket index must be non-decreasing in the value.
        let mut values: Vec<u64> = Vec::new();
        for shift in 0..60 {
            for off in [0u64, 1, 3] {
                values.push((1u64 << shift) + off);
            }
        }
        values.sort_unstable();
        let mut prev = 0;
        for v in values {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket({v}) = {b} < {prev}");
            prev = b;
        }
    }

    #[test]
    fn bucket_midpoint_within_octave() {
        for idx in 16..BUCKETS - SUBBUCKETS {
            let m = bucket_midpoint(idx);
            let octave = idx / SUBBUCKETS;
            let lo = 1u128 << octave;
            let hi = 1u128 << (octave + 1);
            assert!(
                (m as u128) >= lo && (m as u128) <= hi,
                "midpoint {m} outside octave {octave}"
            );
        }
    }
}
