//! Device latency/parallelism profiles for the four hardware classes in
//! the paper's Figure 1.
//!
//! The P5800X profile is calibrated to Table 1 (3.224 µs device time for
//! a 512 B random read); the others use public datasheet figures. Only
//! the *shape* matters for the reproduction: HDD milliseconds, NAND tens
//! of microseconds, first-gen Optane ~10 µs, second-gen ~3 µs.

use bpfstor_sim::{check_time, ensure, LatencyDist, Nanos, MICROSECOND, MILLISECOND};

use crate::{DeviceConfigError, MAX_CHANNELS};

/// The four hardware classes of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Seagate Exos X16 (7200 rpm disk).
    Hdd,
    /// Intel 750-class TLC NAND SSD.
    Nand,
    /// First-generation Intel Optane SSD (900P).
    NvmGen1,
    /// Second-generation Intel Optane SSD (P5800X prototype).
    NvmGen2,
}

impl DeviceClass {
    /// All classes, in Figure 1's left-to-right order.
    pub const ALL: [DeviceClass; 4] = [
        DeviceClass::Hdd,
        DeviceClass::Nand,
        DeviceClass::NvmGen1,
        DeviceClass::NvmGen2,
    ];

    /// Figure 1's axis label for this class.
    pub fn label(self) -> &'static str {
        match self {
            DeviceClass::Hdd => "HDD",
            DeviceClass::Nand => "NAND",
            DeviceClass::NvmGen1 => "NVM-1",
            DeviceClass::NvmGen2 => "NVM-2",
        }
    }
}

/// Service-time and parallelism model of one device.
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// Which Figure 1 class this profile belongs to.
    pub class: DeviceClass,
    /// Per-command service time for 512 B random reads.
    pub read_latency: LatencyDist,
    /// Per-command service time for 512 B writes.
    pub write_latency: LatencyDist,
    /// Independent internal channels (dies/planes/actuators): commands on
    /// different channels overlap fully. 1 to [`MAX_CHANNELS`].
    pub channels: usize,
    /// Submission/completion queue depth per queue pair: 2 to
    /// [`crate::MAX_QUEUE_DEPTH`] slots. Host memory follows the entries
    /// queued, not this depth.
    pub queue_depth: usize,
}

impl DeviceProfile {
    /// The profile's rules: its channel count and its queue depth
    /// ([`crate::check_queue_depth`]).
    pub fn check(&self) -> Result<(), DeviceConfigError> {
        let channels = (1..=MAX_CHANNELS).contains(&self.channels);
        ensure(channels, DeviceConfigError::Channels(self.channels))?;
        crate::check_queue_depth(self.queue_depth)?;
        let read = self.read_latency.longest();
        check_time(read, DeviceConfigError::TooLong("read_latency"))?;
        let write = self.write_latency.longest();
        check_time(write, DeviceConfigError::TooLong("write_latency"))
    }

    /// Seagate Exos X16: seek + rotational latency dominate. Mean random
    /// read ≈ 4.16 ms (~240 IOPS), a single actuator.
    pub fn hdd_exos_x16() -> Self {
        DeviceProfile {
            class: DeviceClass::Hdd,
            // 80% short-ish seeks, 20% long seeks + rotation.
            read_latency: LatencyDist::Bimodal {
                p_a: 0.8,
                a: Box::new(LatencyDist::Uniform(2 * MILLISECOND, 5 * MILLISECOND)),
                b: Box::new(LatencyDist::Uniform(5 * MILLISECOND, 9 * MILLISECOND)),
            },
            write_latency: LatencyDist::Uniform(2 * MILLISECOND, 9 * MILLISECOND),
            channels: 1,
            queue_depth: 32,
        }
    }

    /// Intel 750-class TLC NAND: ~80 µs random read.
    pub fn nand_tlc() -> Self {
        DeviceProfile {
            class: DeviceClass::Nand,
            read_latency: LatencyDist::LogNormal {
                median: 78 * MICROSECOND,
                sigma: 0.18,
            },
            write_latency: LatencyDist::LogNormal {
                median: 25 * MICROSECOND,
                sigma: 0.25,
            },
            channels: 8,
            queue_depth: 1024,
        }
    }

    /// First-generation Intel Optane SSD (900P): ~10 µs random read.
    pub fn optane_gen1_900p() -> Self {
        DeviceProfile {
            class: DeviceClass::NvmGen1,
            read_latency: LatencyDist::LogNormal {
                median: 10 * MICROSECOND,
                sigma: 0.06,
            },
            write_latency: LatencyDist::LogNormal {
                median: 10 * MICROSECOND,
                sigma: 0.08,
            },
            channels: 7,
            queue_depth: 1024,
        }
    }

    /// Second-generation Intel Optane SSD (P5800X prototype): Table 1
    /// measures 3.224 µs of device time per 512 B random read.
    pub fn optane_gen2_p5800x() -> Self {
        DeviceProfile {
            class: DeviceClass::NvmGen2,
            read_latency: LatencyDist::LogNormal {
                median: 3_218,
                sigma: 0.06,
            },
            write_latency: LatencyDist::LogNormal {
                median: 3_600,
                sigma: 0.08,
            },
            channels: 16,
            queue_depth: 4096,
        }
    }

    /// The profile for a Figure 1 class.
    pub fn for_class(class: DeviceClass) -> Self {
        match class {
            DeviceClass::Hdd => Self::hdd_exos_x16(),
            DeviceClass::Nand => Self::nand_tlc(),
            DeviceClass::NvmGen1 => Self::optane_gen1_900p(),
            DeviceClass::NvmGen2 => Self::optane_gen2_p5800x(),
        }
    }

    /// Analytic mean read latency, for calibration reports.
    pub fn mean_read_latency(&self) -> f64 {
        self.read_latency.mean()
    }

    /// Upper bound on read IOPS given full channel parallelism.
    pub fn max_read_iops(&self) -> f64 {
        self.channels as f64 / (self.mean_read_latency() / 1e9)
    }
}

/// Returns true when `ns` is within `pct` percent of `target`.
pub fn within_pct(ns: f64, target: Nanos, pct: f64) -> bool {
    let t = target as f64;
    (ns - t).abs() / t * 100.0 <= pct
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpfstor_sim::SimRng;

    #[test]
    fn class_ordering_matches_figure1() {
        // Mean latencies must be strictly decreasing left to right.
        let mut prev = f64::INFINITY;
        for class in DeviceClass::ALL {
            let p = DeviceProfile::for_class(class);
            let m = p.mean_read_latency();
            assert!(m < prev, "{class:?} not faster than its predecessor");
            prev = m;
        }
    }

    #[test]
    fn p5800x_matches_table1_device_time() {
        let p = DeviceProfile::optane_gen2_p5800x();
        assert!(
            within_pct(p.mean_read_latency(), 3_224, 2.0),
            "mean {} should be ~3224ns",
            p.mean_read_latency()
        );
    }

    #[test]
    fn gen1_is_about_10us() {
        let p = DeviceProfile::optane_gen1_900p();
        assert!(within_pct(p.mean_read_latency(), 10_018, 3.0));
    }

    #[test]
    fn hdd_is_milliseconds() {
        let p = DeviceProfile::hdd_exos_x16();
        let m = p.mean_read_latency();
        assert!(m > 3.0 * MILLISECOND as f64 && m < 6.0 * MILLISECOND as f64);
    }

    #[test]
    fn empirical_means_match_analytic() {
        let mut rng = SimRng::seed(7);
        for class in DeviceClass::ALL {
            let p = DeviceProfile::for_class(class);
            let mut sum = 0.0;
            let n = 20_000;
            for _ in 0..n {
                sum += p.read_latency.sample(&mut rng) as f64;
            }
            let emp = sum / n as f64;
            let ana = p.mean_read_latency();
            assert!(
                (emp - ana).abs() / ana < 0.03,
                "{class:?}: empirical {emp} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn p5800x_supports_millions_of_iops() {
        let p = DeviceProfile::optane_gen2_p5800x();
        assert!(
            p.max_read_iops() > 4.0e6,
            "need headroom for Figure 3's >2.5x: {}",
            p.max_read_iops()
        );
    }

    #[test]
    fn labels() {
        assert_eq!(DeviceClass::Hdd.label(), "HDD");
        assert_eq!(DeviceClass::NvmGen2.label(), "NVM-2");
    }
}
