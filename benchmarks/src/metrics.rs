//! The metric tables: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — the share of the parent's
//! median by which it may worsen before a change counts as a regression.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`bpfstor-perf manifest`) and a unit test keeps the two equal.
//!
//! Two clocks, always named. `sim_*` metrics and units are simulated
//! time: deterministic for a seed, they repeat exactly. `host_*` metrics
//! and `setup_s` are the reproduction's own cost on this machine.

use crate::json::Json;
use crate::layers;
use crate::workloads::Kind;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// Absolute worsening (in `unit`) always tolerated, for metrics whose
    /// values are small enough that a relative bound alone is noise.
    pub floor: f64,
    /// Simulated-clock metrics repeat exactly for a seed.
    pub exact: bool,
}

/// Seconds of set-up always tolerated: half a millisecond.
const SETUP_FLOOR_S: f64 = 0.0005;

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "sim_chains_per_s",
        unit: "1/sim_s",
        better: Better::Higher,
        bound: 0.01,
        floor: 0.0,
        exact: true,
    },
    // Latency quantiles come from the kernel's log-bucketed histogram:
    // a bucket is up to 6.25% wide, so one bucket's move must fit.
    EndToEnd {
        name: "sim_p50_us",
        unit: "sim_us",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        exact: true,
    },
    EndToEnd {
        name: "sim_p99_us",
        unit: "sim_us",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        exact: true,
    },
    EndToEnd {
        name: "sim_read_p99_us",
        unit: "sim_us",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        exact: true,
    },
    // On tenant_noisy the gain is a ratio of two bucketed p99s.
    EndToEnd {
        name: "sim_gain_vs_baseline",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.10,
        floor: 0.0,
        exact: true,
    },
    EndToEnd {
        name: "sim_cpu_us_per_chain",
        unit: "sim_us",
        better: Better::Lower,
        bound: 0.01,
        floor: 0.0,
        exact: true,
    },
    // Host time on a shared box: identical work drifts by 10-15% between
    // phases of the machine that outlast a run (README, "Measured
    // steadiness"), so a tighter bound would reject noise.
    EndToEnd {
        name: "host_ios_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
        exact: false,
    },
    EndToEnd {
        name: "host_allocs_per_io",
        unit: "count",
        better: Better::Lower,
        bound: 0.01,
        floor: 0.0,
        exact: false,
    },
    EndToEnd {
        name: "host_peak_live_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.02,
        floor: 0.0,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: SETUP_FLOOR_S,
        exact: false,
    },
];

/// A per-layer metric: no bound, it explains a move in an end-to-end one.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Simulated-clock rows read from the arm's `RunReport` (exact).
pub const SIM_ROWS: [PerLayer; 36] = [
    layer("kernel.sim_crossing_ns_per_io", "sim_ns", Lower),
    layer("kernel.sim_syscall_ns_per_io", "sim_ns", Lower),
    layer("kernel.sim_fs_ns_per_io", "sim_ns", Lower),
    layer("kernel.sim_bio_ns_per_io", "sim_ns", Lower),
    layer("kernel.sim_drv_ns_per_io", "sim_ns", Lower),
    layer("kernel.sim_bpf_ns_per_io", "sim_ns", Lower),
    layer("kernel.sim_extcache_ns_per_io", "sim_ns", Lower),
    layer("kernel.sim_journal_ns_per_io", "sim_ns", Lower),
    layer("kernel.sim_fabric_cpu_ns_per_io", "sim_ns", Lower),
    layer("kernel.sim_poll_ns_per_io", "sim_ns", Lower),
    layer("kernel.sim_app_ns_per_io", "sim_ns", Lower),
    layer("device.sim_service_ns_per_io", "sim_ns", Lower),
    layer("device.sim_wire_ns_per_io", "sim_ns", Lower),
    layer("kernel.cpu_util", "ratio", Lower),
    layer("device.util", "ratio", Higher),
    layer("device.doorbells_per_io", "ratio", Lower),
    layer("device.irqs_per_io", "ratio", Lower),
    layer("device.sq_rejected_per_io", "ratio", Lower),
    layer("device.cq_backlog_hwm", "count", Lower),
    layer("device.reap_lag_ns_per_io", "sim_ns", Lower),
    layer("kernel.extcache_hit_ratio", "ratio", Higher),
    layer("kernel.resubmissions_per_chain", "ratio", Higher),
    layer("kernel.rearm_retries", "count", Lower),
    layer("kernel.flushes_per_fsync", "ratio", Lower),
    layer("kernel.handles_per_commit", "ratio", Higher),
    layer("kernel.barrier_us_mean", "sim_us", Lower),
    layer("kernel.sq_parks_per_chain", "ratio", Lower),
    layer("kernel.victim_reap_share", "ratio", Higher),
    layer("device.capsules_per_chain", "ratio", Lower),
    layer("device.capsule_stalls", "count", Lower),
    layer("device.retransmits", "count", Lower),
    layer("device.wire_bytes_per_chain", "B", Lower),
    layer("fs.journal_records_per_write", "ratio", Lower),
    layer("fs.extents_per_file", "count", Lower),
    layer("kernel.sim_table1_err_pct", "%", Lower),
    layer("core.sim_write_p99_us", "sim_us", Lower),
];

/// Numbers from the traced round.
pub const TRACE_ROWS: [PerLayer; 10] = [
    layer("trace.setup_image_us", "us", Lower),
    layer("trace.setup_verify_us", "us", Lower),
    layer("trace.setup_compile_us", "us", Lower),
    layer("trace.setup_install_us", "us", Lower),
    layer("trace.run_workload_share", "ratio", Lower),
    layer("trace.run_vm_share", "ratio", Lower),
    layer("trace.run_rest_share", "ratio", Lower),
    layer("vm.compile_fallbacks", "count", Lower),
    layer("trace.teardown_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// Every per-layer metric, in the order it is printed.
pub fn per_layer() -> Vec<PerLayer> {
    layers::FIGURES
        .iter()
        .map(|&(name, unit)| layer(name, unit, Lower))
        .chain(SIM_ROWS)
        .chain(TRACE_ROWS)
        .collect()
}

/// How long one run measures, in seconds (`BENCHMARK.json`'s
/// `run_seconds`, and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 25;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmarks/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmarks"])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Kind::ALL
                    .iter()
                    .map(|k| {
                        Json::obj([("name", Json::str(k.name())), ("why", Json::str(k.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_and_units_use_only_the_allowed_characters_and_are_unique() {
        let mut seen = HashSet::new();
        for kind in Kind::ALL {
            assert!(is_name(kind.name()), "{}", kind.name());
            assert!(seen.insert(kind.name()));
        }
        for m in END_TO_END {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used once", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()));
        for m in layers {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used once", m.name);
        }
    }

    #[test]
    fn setup_s_is_present_with_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            Json::parse(on_disk).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `cargo run --manifest-path benchmarks/Cargo.toml -- manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn readme_documents_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for kind in Kind::ALL {
            assert!(readme.contains(kind.name()), "README lacks {}", kind.name());
        }
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(per_layer().iter().map(|m| m.name))
        {
            assert!(readme.contains(name), "README lacks {name}");
        }
    }
}
