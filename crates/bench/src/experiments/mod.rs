//! One function per paper table/figure, plus the DESIGN.md ablations —
//! one file per [registry](crate::registry) entry (Figure 3's four
//! panels share `fig3.rs`), with the fixtures they share here.
//!
//! Every function builds fresh machines (full determinism), runs the
//! workload, and renders a [`Table`](crate::report::Table) shaped like
//! the paper's artifact. An experiment *computes*: beside each headline
//! cell it formats it records the `f64` as a measure, and the claims
//! ledger ([`crate::claims`]) judges it against the paper's value and an
//! accept range. What an experiment still `assert!`s is what no single
//! number says: results are correct, nobody starved, a curve is
//! monotone.
//! The `quick` flag (`bench <name> --quick`) trades precision for speed.

use bpfstor_core::{Btree, DispatchMode, PushdownSession};
use bpfstor_device::{DeviceProfile, SECTOR_SIZE};
use bpfstor_kernel::{Machine, MachineConfig, RunReport};
use bpfstor_sim::{Nanos, SimRng, MILLISECOND};

mod ablations;
mod extent_stability;
mod fabric_sweep;
mod fig1;
mod fig3;
mod queue_sweep;
mod table1;
mod tenant_sweep;
mod write_mix;

pub use ablations::{
    ablation_bpf_cost, ablation_extent_cache, ablation_resubmit_bound, ablation_split_fallback,
};
pub use extent_stability::{extent_stability, lsm_stability};
pub use fabric_sweep::{fabric_contention, fabric_sweep};
pub use fig1::fig1;
pub use fig3::{fig3_throughput, fig3c, fig3d};
pub use queue_sweep::{queue_sweep, reap_sweep};
pub use table1::table1;
pub use tenant_sweep::tenant_sweep;
pub use write_mix::{group_commit_study, write_mix};

/// Run-scale knob: `--quick` on the `bench` command line.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Reduced durations/counts.
    pub quick: bool,
}

impl Scale {
    /// `quick` at quick scale, `full` otherwise.
    fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// A simulated duration in milliseconds, by scale.
    fn ms(&self, quick: u64, full: u64) -> Nanos {
        self.pick(quick, full) * MILLISECOND
    }

    /// Simulated duration for throughput sweeps.
    fn sweep_duration(&self) -> Nanos {
        self.ms(12, 60)
    }

    /// Random reads for latency measurements.
    fn read_count(&self, slow_device: bool) -> u64 {
        match (self.quick, slow_device) {
            (true, true) => 100,
            (true, false) => 1_000,
            (false, true) => 500,
            (false, false) => 10_000,
        }
    }
}

const HUGE: Nanos = u64::MAX / 4;

fn machine_with_file(profile: DeviceProfile, nblocks: u64, seed: u64) -> (Machine, u32) {
    let cfg = MachineConfig {
        profile,
        seed,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg);
    let mut rng = SimRng::seed(seed ^ 0xF11E);
    let mut data = vec![0u8; (nblocks as usize) * SECTOR_SIZE];
    rand::RngCore::fill_bytes(&mut rng, &mut data);
    m.create_file("data.bin", &data).expect("create");
    let fd = m.open("data.bin", true).expect("open");
    (m, fd)
}

/// A closed-loop B-tree lookup run (Figure 3's workload).
fn lookup_run(
    depth: u32,
    mode: DispatchMode,
    threads: usize,
    duration: Nanos,
    seed: u64,
) -> RunReport {
    let mut session = PushdownSession::builder(Btree::depth(depth))
        .dispatch(mode)
        .seed(seed)
        .build()
        .expect("session builds");
    let (report, stats) = session.run_closed_loop(threads, duration);
    assert_eq!(stats.mismatches, 0, "offloaded lookups must be correct");
    report
}

/// `n` key/value entries for a `YcsbMix` table: key `3i`, a 48-byte
/// value stamped with `i * stamp`.
fn kv_entries(n: u64, stamp: u64) -> Vec<(u64, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let mut v = vec![0u8; 48];
            v[..8].copy_from_slice(&(i * stamp).to_le_bytes());
            (i * 3, v)
        })
        .collect()
}

/// The least ratio between consecutive points of `series`: at least 1
/// for a curve that never falls.
fn least_step(series: &[f64]) -> f64 {
    let steps = series.windows(2).map(|w| w[1] / w[0]);
    steps.fold(f64::INFINITY, f64::min)
}
