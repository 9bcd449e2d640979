//! Machine construction parameters ([`MachineConfig`]) and the
//! injectable host clock ([`ExecClock`]).

use bpfstor_device::{DeviceProfile, TransportConfig};
use bpfstor_vm::ExecEngine;

use crate::commit::CommitPolicy;
use crate::costs::LayerCosts;
use crate::reaper::ReapMode;

/// A monotonic host-CPU clock the harness injects to *measure* real
/// per-hop execution time ([`MachineConfig::exec_clock`]). The machine
/// samples it around every hook invocation and accumulates the deltas
/// into [`crate::RunReport::exec`]; it never feeds the simulated timeline, so
/// a machine without a clock stays fully deterministic.
#[derive(Clone)]
pub struct ExecClock(pub std::sync::Arc<dyn Fn() -> u64 + Send + Sync>);

impl ExecClock {
    /// Wraps a monotonic nanosecond counter.
    pub fn new(f: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        ExecClock(std::sync::Arc::new(f))
    }

    pub(crate) fn now(&self) -> u64 {
        (self.0)()
    }
}

impl std::fmt::Debug for ExecClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ExecClock(..)")
    }
}

/// Machine construction parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// CPU cores (the paper's testbed has 6).
    pub cores: usize,
    /// Device model.
    pub profile: DeviceProfile,
    /// Layer cost model.
    pub costs: LayerCosts,
    /// RNG seed (device latencies, workload forks).
    pub seed: u64,
    /// File-system size in 512 B blocks. The block bitmap grows with
    /// the blocks written, so a large file system costs no host memory
    /// until it is used.
    pub fs_blocks: u64,
    /// NVMe-layer chained-resubmission bound (§4 fairness counter).
    pub resubmit_bound: u32,
    /// Interrupt-coalescing time budget in microseconds: a pending CQE
    /// fires an interrupt at most this long after it is posted. `0`
    /// fires immediately (no time-based coalescing).
    pub irq_coalesce_us: u64,
    /// Interrupt-coalescing aggregation threshold: the interrupt fires
    /// as soon as this many CQEs are pending, even inside the time
    /// budget. `1` (or `0`) disables depth-based coalescing.
    pub irq_coalesce_depth: u32,
    /// Completion-delivery policy: static interrupts (the default, using
    /// the two coalescing knobs above), adaptive interrupts, dedicated
    /// pollers, or the load-adaptive hybrid scheduler.
    pub reap_mode: ReapMode,
    /// The ring→device hop: PCIe pass-through (the default) or an
    /// NVMe-oF initiator/target pair over a modelled network.
    pub transport: TransportConfig,
    /// Which engine executes hook programs: the compiled tier (the
    /// default) or, for a test or benchmark that names it, the
    /// interpreter it is checked against. The two are observably
    /// identical (same traps, same retired-instruction counts — so
    /// [`LayerCosts::bpf_exec`] simulated charging is bit-for-bit
    /// unchanged); only host CPU differs.
    pub exec_engine: ExecEngine,
    /// Optional monotonic host clock sampled around each hook
    /// invocation to fill [`crate::RunReport::exec`] with *measured*
    /// per-engine nanoseconds. `None` (the default) skips sampling:
    /// hop counters still move, the `_ns` fields stay 0.
    pub exec_clock: Option<ExecClock>,
    /// When the journal's running transaction seals and pays its flush
    /// barrier: per-fsync (the default — one barrier per fsyncing
    /// chain, bit-for-bit the historical write path), jbd2-style group
    /// commit, or group commit plus background writeback.
    pub commit_policy: CommitPolicy,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 6,
            profile: DeviceProfile::optane_gen2_p5800x(),
            costs: LayerCosts::default(),
            seed: 0xB9F5_702E,
            fs_blocks: 1 << 22, // 2 GiB of 512 B blocks
            resubmit_bound: 256,
            irq_coalesce_us: 0,
            irq_coalesce_depth: 1,
            reap_mode: ReapMode::Interrupt,
            transport: TransportConfig::Local,
            exec_engine: ExecEngine::default(),
            exec_clock: None,
            commit_policy: CommitPolicy::PerFsync,
        }
    }
}
