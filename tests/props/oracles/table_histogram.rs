//! The latency histogram as it was before it held only the octaves it
//! saw: one fixed table of 64 octaves × 16 buckets, 1 ns to `u64::MAX`.

use bpfstor::sim::Nanos;

const SUBBUCKETS: usize = 16;
const BUCKETS: usize = 64 * SUBBUCKETS;

/// A 1024-bucket table with the same bucketing and quantile rule as
/// `bpfstor::sim::Histogram`.
pub struct TableHistogram {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
    min: Nanos,
    max: Nanos,
}

fn bucket_of(v: Nanos) -> usize {
    if v == 0 {
        return 0;
    }
    let octave = 63 - v.leading_zeros() as usize;
    if octave < 4 {
        return v as usize;
    }
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

impl TableHistogram {
    pub fn of(values: &[Nanos]) -> Self {
        let mut h = TableHistogram {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
            min: Nanos::MAX,
            max: 0,
        };
        for &v in values {
            h.counts[bucket_of(v)] += 1;
            h.n += 1;
            h.sum += v as u128;
            h.min = h.min.min(v);
            h.max = h.max.max(v);
        }
        h
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    pub fn min(&self) -> Nanos {
        self.min
    }

    pub fn max(&self) -> Nanos {
        self.max
    }

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
                return bucket_midpoint(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}
