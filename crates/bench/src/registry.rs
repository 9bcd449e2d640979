//! The experiment registry: every table and figure the `bench` binary
//! regenerates, by name. What each experiment measures and asserts is
//! documented on its function in [`crate::experiments`]; what its
//! measures are held to, in [`crate::claims`].

use bpfstor_core::DispatchMode;

use crate::claims;
use crate::experiments::{
    ablation_bpf_cost, ablation_extent_cache, ablation_resubmit_bound, ablation_split_fallback,
    extent_stability, fabric_contention, fabric_sweep, fig1, fig3_throughput, fig3c, fig3d,
    group_commit_study, lsm_stability, queue_sweep, reap_sweep, table1, tenant_sweep, write_mix,
    Scale,
};
use crate::report::Table;

/// One table of an experiment: its `results/<csv>.csv` name and the
/// function that produces it (the seed is `None` unless overridden).
pub type Part = (&'static str, fn(Scale, Option<u64>) -> Table);

/// A named experiment.
pub struct Experiment {
    /// The name `bench <name>` runs it by.
    pub name: &'static str,
    /// One line for `bench list`.
    pub about: &'static str,
    /// Whether `--seed` overrides its RNG seed.
    pub seeded: bool,
    /// Names accepted after `<name>`, each selecting the table at the
    /// same index (empty: the experiment always runs whole).
    pub subsets: &'static [&'static str],
    /// Its tables, in print order.
    pub tables: &'static [Part],
}

/// Every experiment, paper artifacts first.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig1",
        about: "Figure 1: software vs hardware share of 512 B read latency, four device generations",
        seeded: false,
        subsets: &[],
        tables: &[("fig1", |s, _| fig1(s))],
    },
    Experiment {
        name: "table1",
        about: "Table 1: per-layer latency of a 512 B random read() on second-generation Optane",
        seeded: false,
        subsets: &[],
        tables: &[("table1", |s, _| table1(s))],
    },
    Experiment {
        name: "fig3a",
        about: "Figure 3a: B-tree lookup IOPS gain of the syscall-layer hook, depth x threads",
        seeded: false,
        subsets: &[],
        tables: &[("fig3a", |s, _| {
            fig3_throughput(s, DispatchMode::SyscallHook)
        })],
    },
    Experiment {
        name: "fig3b",
        about: "Figure 3b: B-tree lookup IOPS gain of the NVMe driver hook, depth x threads",
        seeded: false,
        subsets: &[],
        tables: &[("fig3b", |s, _| fig3_throughput(s, DispatchMode::DriverHook))],
    },
    Experiment {
        name: "fig3c",
        about: "Figure 3c: single-thread lookup latency of the three dispatch paths, by depth",
        seeded: false,
        subsets: &[],
        tables: &[("fig3c", |s, _| fig3c(s))],
    },
    Experiment {
        name: "fig3d",
        about: "Figure 3d: io_uring lookups, driver hook vs unmodified io_uring, by batch size",
        seeded: false,
        subsets: &[],
        tables: &[("fig3d", |s, _| fig3d(s))],
    },
    Experiment {
        name: "extent_stability",
        about: "§4 extent stability under YCSB (TokuDB claim) and the LSM SSTable lifecycle",
        seeded: false,
        subsets: &[],
        tables: &[
            ("extent_stability", |s, _| extent_stability(s)),
            ("lsm_stability", |s, _| lsm_stability(s)),
        ],
    },
    Experiment {
        name: "ablations",
        about: "Ablations A1-A4: extent cache, BPF cost, resubmission bound, split fallback",
        seeded: false,
        subsets: &[
            "extent-cache",
            "bpf-cost",
            "resubmit-bound",
            "split-fallback",
        ],
        tables: &[
            ("ablation_extent_cache", |s, _| ablation_extent_cache(s)),
            ("ablation_bpf_cost", |s, _| ablation_bpf_cost(s)),
            ("ablation_resubmit_bound", |s, _| ablation_resubmit_bound(s)),
            ("ablation_split_fallback", |s, _| ablation_split_fallback(s)),
        ],
    },
    Experiment {
        name: "queue_sweep",
        about: "IOPS vs SQ depth and IRQ coalescing in every dispatch mode; polled vs interrupt vs hybrid reaping",
        seeded: true,
        subsets: &[],
        tables: &[("queue_sweep", queue_sweep), ("reap_sweep", reap_sweep)],
    },
    Experiment {
        name: "write_mix",
        about: "Write IOPS vs SQ depth under YCSB 40r/40u/20i; group commit under three journal policies",
        seeded: true,
        subsets: &[],
        tables: &[("write_mix", write_mix), ("group_commit", group_commit_study)],
    },
    Experiment {
        name: "fabric_sweep",
        about: "BPF-oF: pushdown vs per-hop round trips over three wire latencies; multi-initiator write contention",
        seeded: true,
        subsets: &[],
        tables: &[
            ("fabric_sweep", fabric_sweep),
            ("fabric_contention", fabric_contention),
        ],
    },
    Experiment {
        name: "tenant_sweep",
        about: "Noisy neighbour: victim p99 under SQ budgets and fair reaping; install-time budget rejection",
        seeded: true,
        subsets: &[],
        tables: &[("tenant_sweep", tenant_sweep)],
    },
];

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Every table of every experiment, in registry order.
pub fn every_table() -> impl Iterator<Item = &'static Part> {
    EXPERIMENTS.iter().flat_map(|e| e.tables)
}

/// Runs one table, with the paper's wording for its claims as notes.
pub fn run((csv, table): &Part, scale: Scale, seed: Option<u64>) -> Table {
    let mut t = table(scale, seed);
    claims::annotate(csv, &mut t);
    t
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn names_and_csv_names_are_unique_and_the_old_binaries_resolve() {
        let names: HashSet<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        let csvs: Vec<_> = every_table().map(|(csv, _)| *csv).collect();
        let distinct: HashSet<_> = csvs.iter().collect();
        assert_eq!(distinct.len(), csvs.len(), "two tables share a csv name");
        for old_binary in [
            "ablations",
            "extent_stability",
            "fabric_sweep",
            "fig1",
            "fig3a",
            "fig3b",
            "fig3c",
            "fig3d",
            "queue_sweep",
            "table1",
            "tenant_sweep",
            "write_mix",
        ] {
            assert!(find(old_binary).is_some(), "{old_binary} must stay a name");
        }
        for e in EXPERIMENTS {
            assert!(!e.tables.is_empty(), "{} prints nothing", e.name);
            assert!(
                e.subsets.is_empty() || e.subsets.len() == e.tables.len(),
                "{}: one subset name per table",
                e.name
            );
            assert!(
                !["list", "all"].contains(&e.name),
                "{} is a command",
                e.name
            );
        }
    }
}
