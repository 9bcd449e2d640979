//! Latency distributions for device and layer cost models.
//!
//! Device service times are not constants: flash and 3D-XPoint devices
//! show small log-normal-ish spreads, while disks have a bimodal
//! seek+rotation profile. [`LatencyDist`] covers the shapes the device
//! profiles in `bpfstor-device` need while staying deterministic (all
//! sampling goes through [`SimRng`]).

use crate::rng::SimRng;
use crate::time::Nanos;

/// A distribution over nanosecond durations.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyDist {
    /// Always exactly `ns`.
    Constant(Nanos),
    /// Uniform in `[lo, hi]`.
    Uniform(Nanos, Nanos),
    /// Exponential with the given mean (memoryless queueing-style tail).
    Exponential(Nanos),
    /// Log-normal parameterised by the *linear-space* median and the
    /// sigma of the underlying normal. Typical SSD read-latency shape.
    LogNormal {
        /// Median latency in nanoseconds (`exp(mu)` of the underlying normal).
        median: Nanos,
        /// Standard deviation of the underlying normal (dimensionless).
        sigma: f64,
    },
    /// Mixture of two distributions: `a` with probability `p_a`, else `b`.
    /// Used for HDD (short seeks vs full-stroke seeks) and for devices
    /// with a slow-path tail.
    Bimodal {
        /// Probability of sampling from `a`.
        p_a: f64,
        /// The common case.
        a: Box<LatencyDist>,
        /// The slow path.
        b: Box<LatencyDist>,
    },
}

impl LatencyDist {
    /// Its longest time parameter: what [`crate::check_time`] holds to
    /// [`crate::MAX_CONFIG_TIME`].
    pub fn longest(&self) -> Nanos {
        match self {
            LatencyDist::Constant(t) | LatencyDist::Exponential(t) => *t,
            LatencyDist::Uniform(lo, hi) => (*lo).max(*hi),
            LatencyDist::LogNormal { median, .. } => *median,
            LatencyDist::Bimodal { a, b, .. } => a.longest().max(b.longest()),
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> Nanos {
        match self {
            LatencyDist::Constant(ns) => *ns,
            LatencyDist::Uniform(lo, hi) => {
                if lo >= hi {
                    *lo
                } else {
                    rng.range(*lo, *hi + 1)
                }
            }
            LatencyDist::Exponential(mean) => {
                // Inverse-CDF; clamp u away from 0 to avoid ln(0).
                let u = rng.f64().max(1e-12);
                let x = -(u.ln()) * (*mean as f64);
                x.round().min(u64::MAX as f64) as Nanos
            }
            LatencyDist::LogNormal { median, sigma } => {
                let z = box_muller(rng);
                let x = (*median as f64) * (sigma * z).exp();
                x.round().min(u64::MAX as f64) as Nanos
            }
            LatencyDist::Bimodal { p_a, a, b } => {
                if rng.chance(*p_a) {
                    a.sample(rng)
                } else {
                    b.sample(rng)
                }
            }
        }
    }

    /// Analytic mean of the distribution, in nanoseconds.
    ///
    /// Used by harnesses to sanity-check calibration and by tests to
    /// verify the sampler converges to the right place.
    pub fn mean(&self) -> f64 {
        match self {
            LatencyDist::Constant(ns) => *ns as f64,
            LatencyDist::Uniform(lo, hi) => (*lo as f64 + *hi as f64) / 2.0,
            LatencyDist::Exponential(mean) => *mean as f64,
            LatencyDist::LogNormal { median, sigma } => {
                (*median as f64) * (sigma * sigma / 2.0).exp()
            }
            LatencyDist::Bimodal { p_a, a, b } => p_a * a.mean() + (1.0 - p_a) * b.mean(),
        }
    }
}

/// One standard-normal variate via Box–Muller (the sine branch is
/// discarded; simplicity beats caching here).
fn box_muller(rng: &mut SimRng) -> f64 {
    let u1 = rng.f64().max(1e-12);
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: &LatencyDist, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed(seed);
        let mut sum = 0.0;
        for _ in 0..n {
            sum += d.sample(&mut rng) as f64;
        }
        sum / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = LatencyDist::Constant(3224);
        let mut rng = SimRng::seed(1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 3224);
        }
        assert_eq!(d.mean(), 3224.0);
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = LatencyDist::Uniform(100, 200);
        let mut rng = SimRng::seed(2);
        for _ in 0..1000 {
            let v = d.sample(&mut rng);
            assert!((100..=200).contains(&v));
        }
        let m = empirical_mean(&d, 50_000, 3);
        assert!((m - 150.0).abs() < 2.0, "mean {m}");
    }

    #[test]
    fn uniform_degenerate_range() {
        let d = LatencyDist::Uniform(50, 50);
        let mut rng = SimRng::seed(4);
        assert_eq!(d.sample(&mut rng), 50);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = LatencyDist::Exponential(1000);
        let m = empirical_mean(&d, 200_000, 5);
        assert!((m - 1000.0).abs() < 20.0, "mean {m}");
    }

    #[test]
    fn lognormal_median_and_mean() {
        let d = LatencyDist::LogNormal {
            median: 3224,
            sigma: 0.08,
        };
        let mut rng = SimRng::seed(6);
        let mut samples: Vec<Nanos> = (0..50_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_unstable();
        let med = samples[25_000] as f64;
        assert!((med - 3224.0).abs() / 3224.0 < 0.02, "median {med}");
        let m = empirical_mean(&d, 50_000, 7);
        assert!(
            (m - d.mean()).abs() / d.mean() < 0.02,
            "mean {m} vs {}",
            d.mean()
        );
    }

    #[test]
    fn bimodal_mixes() {
        let d = LatencyDist::Bimodal {
            p_a: 0.9,
            a: Box::new(LatencyDist::Constant(100)),
            b: Box::new(LatencyDist::Constant(1_100)),
        };
        let m = empirical_mean(&d, 100_000, 8);
        assert!((m - 200.0).abs() < 10.0, "mean {m}");
        assert!((d.mean() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = LatencyDist::LogNormal {
            median: 10_000,
            sigma: 0.2,
        };
        let mut a = SimRng::seed(99);
        let mut b = SimRng::seed(99);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
