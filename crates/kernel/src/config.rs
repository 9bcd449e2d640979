//! Machine construction parameters ([`MachineConfig`]), the one check
//! of them ([`MachineConfig::check`], refusing by [`ConfigError`]), and
//! the injectable host clock ([`ExecClock`]).

use bpfstor_device::{DeviceConfigError, DeviceProfile, FabricConfig};
use bpfstor_sim::{check_time, ensure, CoreCountError, Cores, MICROSECOND};
use bpfstor_vm::ExecEngine;

use crate::commit::CommitPolicy;
use crate::costs::LayerCosts;
use crate::reaper::ReapMode;
use crate::tenant::TenantId;

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
    /// NVMe-layer chained-resubmission bound (§4 fairness counter),
    /// one for every tenant: also the chain-depth factor of
    /// [`crate::TenantLimits::insn_budget`].
    pub resubmit_bound: u32,
    /// Interrupt-coalescing time budget in microseconds: a pending CQE
    /// fires an interrupt at most this long after it is posted. `0`
    /// fires immediately (no time-based coalescing).
    pub irq_coalesce_us: u64,
    /// Interrupt-coalescing aggregation threshold: the interrupt fires
    /// as soon as this many CQEs are pending, even inside the time
    /// budget. `1` disables depth-based coalescing; `0`, a threshold
    /// never reached, is refused.
    pub irq_coalesce_depth: u32,
    /// Completion-delivery policy: static interrupts (the default, using
    /// the two coalescing knobs above), adaptive interrupts, dedicated
    /// pollers, or the load-adaptive hybrid scheduler.
    pub reap_mode: ReapMode,
    /// Whether each reap batch is serviced deficit-round-robin across
    /// tenants by [`crate::TenantLimits::weight`] instead of FIFO. Off
    /// (the default) is bit-for-bit the single-tenant completion order.
    pub fair_reap: bool,
    /// The ring→device hop: `None` (the default) is PCIe pass-through,
    /// the paper's testbed; `Some` puts the device behind an NVMe-oF
    /// initiator/target pair over a modelled network.
    pub fabric: Option<FabricConfig>,
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
            fair_reap: false,
            fabric: None,
            exec_engine: ExecEngine::default(),
            exec_clock: None,
            commit_policy: CommitPolicy::PerFsync,
        }
    }
}

/// A configuration that cannot run as written: one variant per rule of
/// [`MachineConfig::check`], plus the tenant rules of
/// [`crate::Machine::register_tenant`] and
/// [`crate::Machine::set_tenant_limits`]. `docs/API.md` tables each
/// rule, its variant and the test that refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `cores` outside 1 to [`bpfstor_sim::MAX_CORES`] ([`Cores::check`]).
    CoreCount(CoreCountError),
    /// A device or fabric rule ([`DeviceProfile::check`],
    /// [`bpfstor_device::FabricConfig::check`]).
    Device(DeviceConfigError),
    /// `fs_blocks` 0: a file system without a block.
    FsBlocks,
    /// `irq_coalesce_depth` 0: a threshold never reached.
    IrqCoalesceDepth,
    /// `CommitPolicy::Group { max_handles: 0 }`: no fsync ever joins.
    GroupMaxHandles,
    /// `CommitPolicy::Writeback { flush_interval_us: 0 }`.
    WritebackInterval,
    /// A [`crate::TenantLimits::weight`] of 0: no reap turn is earned.
    TenantWeight,
    /// Limits set for a tenant that was never registered.
    NoSuchTenant(TenantId),
    /// The named cost, latency, timeout or interval is longer than
    /// [`bpfstor_sim::MAX_CONFIG_TIME`] (one simulated hour): `now`
    /// plus it must not overflow, however long the run.
    TooLong(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ConfigError::*;
        match *self {
            CoreCount(e) => write!(f, "{e}"),
            Device(e) => write!(f, "{e}"),
            FsBlocks => write!(f, "fs_blocks 0 holds no file"),
            IrqCoalesceDepth => write!(f, "irq_coalesce_depth 0 can never fire; use 1"),
            GroupMaxHandles => write!(f, "CommitPolicy::Group max_handles 0 admits no fsync"),
            WritebackInterval => write!(f, "CommitPolicy::Writeback flush_interval_us 0"),
            TenantWeight => write!(f, "TenantLimits::weight 0 never earns a reap turn"),
            NoSuchTenant(t) => write!(f, "tenant {t} not registered"),
            TooLong(field) => write!(f, "{field} is longer than one simulated hour"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl MachineConfig {
    /// Every rule a machine's configuration meets, each written once,
    /// checked in field order: the first one broken is the refusal.
    /// [`crate::Machine::new`] panics with it; the session builders
    /// return it.
    ///
    /// # Errors
    ///
    /// The broken rule's [`ConfigError`].
    pub fn check(&self) -> Result<(), ConfigError> {
        use CommitPolicy::{Group, PerFsync, Writeback};
        use ConfigError::*;
        Cores::check(self.cores).map_err(CoreCount)?;
        self.profile.check().map_err(Device)?;
        for (field, ns) in self.costs.named() {
            check_time(ns, TooLong(field))?;
        }
        ensure(self.fs_blocks >= 1, FsBlocks)?;
        check_time(us(self.irq_coalesce_us), TooLong("irq_coalesce_us"))?;
        ensure(self.irq_coalesce_depth >= 1, IrqCoalesceDepth)?;
        if let Some(fabric) = &self.fabric {
            fabric.check().map_err(Device)?;
        }
        match self.commit_policy {
            Group {
                max_handles,
                max_wait_us,
            } => {
                ensure(max_handles >= 1, GroupMaxHandles)?;
                check_time(us(max_wait_us), TooLong("max_wait_us"))
            }
            Writeback { flush_interval_us } => {
                ensure(flush_interval_us >= 1, WritebackInterval)?;
                check_time(us(flush_interval_us), TooLong("flush_interval_us"))
            }
            PerFsync => Ok(()),
        }
    }
}

/// A microsecond field in nanoseconds (saturating: past
/// [`bpfstor_sim::MAX_CONFIG_TIME`] either way).
fn us(micros: u64) -> u64 {
    micros.saturating_mul(MICROSECOND)
}
