//! Public types for driving I/O chains through the simulated stack.
//!
//! A *chain* is one logical application request that may span several
//! dependent I/Os — e.g. a B-tree lookup of depth *d* is a chain of *d*
//! reads. The three [`DispatchMode`]s correspond exactly to Figure 2 of
//! the paper:
//!
//! - [`DispatchMode::User`]: every hop goes back to the application
//!   (the baseline);
//! - [`DispatchMode::SyscallHook`]: hops are reissued from the syscall
//!   dispatch layer — the boundary crossing and application reap are
//!   skipped, but the file system and block layer still run;
//! - [`DispatchMode::DriverHook`]: hops are reissued from the NVMe
//!   driver's completion handler with a recycled descriptor — nearly the
//!   whole software stack is skipped.
//!
//! Every in-flight chain is identified by a [`ChainToken`] minted by the
//! kernel when the chain starts. The token — not the lookup key — is the
//! identity drivers key per-chain state on, so two concurrent chains for
//! the same key can never collide. A descriptor runs the program last
//! installed on it (see [`crate::Machine::install`]).

use bpfstor_device::{DeviceStats, FabricStats, InitiatorStats};
use bpfstor_fs::BlockOwnership;
use bpfstor_sim::{Histogram, Nanos, SimRng};

use crate::extcache::ExtCacheStats;
use crate::reaper::ReaperStats;
use crate::trace::{ExecSplit, LayerTrace};

/// A file descriptor in the simulated kernel.
pub type Fd = u32;

/// Kernel-minted identity of one in-flight chain (one *attempt* of a
/// logical request).
///
/// Carried by every [`ChainDriver`] callback and by the terminal
/// [`ChainOutcome`], so drivers key per-chain state on `id` instead of
/// on the lookup key — two concurrent chains for the same key get
/// distinct tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChainToken {
    /// Unique per machine, monotone in issue order — never reused, even
    /// across runs, so token-keyed driver state cannot collide with a
    /// stale entry from an earlier run.
    pub id: u64,
    /// The tenant that owns the chain's descriptor (0 on a
    /// single-tenant machine). Multi-tenant drivers route completions
    /// by this field.
    pub tenant: crate::tenant::TenantId,
    /// The chain's argument (e.g. the lookup key), from
    /// [`ChainStart::arg`].
    pub arg: u64,
    /// Simulated time the chain (this attempt) was issued.
    pub issued: Nanos,
}

/// Where dependent I/Os are reissued from (Figure 2, extended with the
/// BPF-oF fabric setting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchMode {
    /// Application-level reissue (baseline).
    User,
    /// Reissue from the syscall dispatch layer hook.
    SyscallHook,
    /// Reissue from the NVMe driver completion hook. Over a fabric
    /// transport this is *pushdown over fabric*: the hook runs on the
    /// NVMe-oF target, dependent hops are recycled target-side, and only
    /// the terminal response capsule crosses back.
    DriverHook,
    /// Remote dispatch without pushdown: hops unwind to the application
    /// exactly like [`DispatchMode::User`], so over a fabric transport
    /// every dependent access pays a full network round trip — the
    /// BPF-oF baseline. On the local transport it behaves identically
    /// to [`DispatchMode::User`].
    Remote,
}

impl DispatchMode {
    /// The paper's three local modes, for sweep harnesses (the fabric
    /// comparison pairs [`DispatchMode::Remote`] with
    /// [`DispatchMode::DriverHook`] over a fabric transport instead).
    pub const ALL: [DispatchMode; 3] = [
        DispatchMode::User,
        DispatchMode::SyscallHook,
        DispatchMode::DriverHook,
    ];

    /// Figure 3c's legend label.
    pub fn label(self) -> &'static str {
        match self {
            DispatchMode::User => "Dispatch from User Space",
            DispatchMode::SyscallHook => "Dispatch from Syscall",
            DispatchMode::DriverHook => "Dispatch from NVMe Driver",
            DispatchMode::Remote => "Dispatch from Remote Initiator",
        }
    }
}

/// The first I/O of a new chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainStart {
    /// Target file descriptor (must have an installed program for hook
    /// modes).
    pub fd: Fd,
    /// Byte offset of the first read.
    pub file_off: u64,
    /// Read size in bytes (usually one 512 B block).
    pub len: u32,
    /// Per-chain argument (e.g. the lookup key). The kernel copies it
    /// into the first 8 bytes of the chain's scratch buffer before the
    /// first hop, where the BPF program reads it — the XRP-style
    /// request-scoped argument. It is also echoed in the chain's
    /// [`ChainToken`].
    pub arg: u64,
}

/// A journaled write issued as a chain: the payload goes to the device
/// as real `Write` commands through the submission rings (paying
/// queueing delay, doorbells, and interrupts like any read), and an
/// optional fsync commits the journal with an ordered flush barrier
/// *after* the data CQEs return.
///
/// The payload is lent, not given: the kernel copies it into a buffer
/// of its own as the chain starts, so the driver may reuse the bytes
/// for its next operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteStart<'a> {
    /// Target file descriptor.
    pub fd: Fd,
    /// Byte offset of the write.
    pub file_off: u64,
    /// The payload. Empty with `fsync: true` is a pure fsync (flush
    /// barrier + journal commit, no data write).
    pub data: &'a [u8],
    /// Commit the journal with a device flush once the data is on the
    /// rings' completion side (ext4 ordered-mode semantics). Without it
    /// the metadata stays in the open journal transaction — durable
    /// only at the next fsync, lost on a crash before it.
    pub fsync: bool,
    /// Per-chain argument, echoed in the chain's [`ChainToken`].
    pub arg: u64,
}

/// The opening operation of a new chain: a (possibly multi-hop) read, or
/// a journaled write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainSpec<'a> {
    /// A read chain (the paper's dependent-I/O traversal).
    Read(ChainStart),
    /// A journaled write through the same SQ/CQ rings.
    Write(WriteStart<'a>),
}

/// The application's decision after a hop in [`DispatchMode::User`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserNext {
    /// Issue the next dependent read at this byte offset.
    Continue(u64),
    /// The chain is complete.
    Done,
}

/// Terminal status of a chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainStatus {
    /// Raw block delivered (User-mode completion or BPF `ACT_PASS`).
    Pass(Vec<u8>),
    /// BPF `ACT_EMIT` result buffer.
    Emitted(Vec<u8>),
    /// BPF `ACT_HALT`: the program ended the chain (e.g. key absent).
    Halted,
    /// NVMe-layer translation failed (no/stale snapshot): the
    /// application must re-arm the ioctl and retry — or return
    /// [`ChainVerdict::RearmRetry`] from [`ChainDriver::chain_done`] to
    /// have the kernel do both.
    ExtentMiss,
    /// Extents were invalidated while the chain was in flight; the
    /// recycled I/O was discarded (§4's invalidation semantics).
    Invalidated,
    /// The hop's read straddles a physical extent boundary: the buffer
    /// was assembled via the normal BIO path and handed back so the
    /// application can run the step itself and restart the chain (§4's
    /// granularity-mismatch fallback).
    SplitFallback {
        /// Offset whose read was split.
        file_off: u64,
        /// The assembled buffer.
        data: Vec<u8>,
    },
    /// The per-process NVMe resubmission counter was exhausted (§4's
    /// unbounded-traversal guard).
    BoundExceeded,
    /// The program trapped or returned an inconsistent action; the chain
    /// was aborted.
    VmError(String),
    /// A write chain completed: this many payload bytes reached the
    /// device through the rings (journal committed iff the chain carried
    /// an fsync).
    Written(u32),
    /// I/O error (unmapped offset, device error).
    IoError,
}

impl ChainStatus {
    /// True for statuses that represent successful completion.
    pub fn is_ok(&self) -> bool {
        matches!(
            self,
            ChainStatus::Pass(_)
                | ChainStatus::Emitted(_)
                | ChainStatus::Halted
                | ChainStatus::Written(_)
        )
    }

    /// True for the two statuses an extent invalidation produces, which
    /// a re-arm of the install ioctl repairs.
    pub fn is_rearmable(&self) -> bool {
        matches!(self, ChainStatus::ExtentMiss | ChainStatus::Invalidated)
    }
}

/// Everything known about a finished chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainOutcome {
    /// Issuing thread.
    pub thread: usize,
    /// The chain's kernel-minted identity (`token.arg` is the lookup
    /// key / argument).
    pub token: ChainToken,
    /// Terminal status.
    pub status: ChainStatus,
    /// Number of I/Os this attempt performed.
    pub ios: u32,
    /// How many earlier attempts of this logical request were consumed
    /// by [`ChainVerdict::RearmRetry`] (0 for a first attempt).
    pub attempts: u32,
    /// End-to-end latency of this attempt.
    pub latency: Nanos,
}

impl ChainOutcome {
    /// The chain's argument (shorthand for `token.arg`).
    pub fn arg(&self) -> u64 {
        self.token.arg
    }
}

/// The driver's decision about a finished chain, returned from
/// [`ChainDriver::chain_done`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChainVerdict {
    /// Accept the outcome; the thread moves on to its next chain.
    #[default]
    Done,
    /// Re-arm the descriptor's extent snapshot (rerun the install ioctl)
    /// and restart the same logical request from its first read, with
    /// `attempts + 1`. The failed attempt is not counted as a completed
    /// chain in the [`RunReport`]; the restart is counted in
    /// [`RunReport::rearm_retries`]. Only meaningful for
    /// [`ChainStatus::is_rearmable`] outcomes.
    RearmRetry,
}

/// Application logic driven by the simulated kernel.
///
/// Implementations hold per-chain state keyed by [`ChainToken::id`] and
/// are called at the simulated times the real application would run.
pub trait ChainDriver {
    /// Dispatch mode for this run.
    fn mode(&self) -> DispatchMode;

    /// The next operation for `thread` — a read chain or a journaled
    /// write — or `None` to stop that thread. A write's payload is
    /// borrowed from the driver only until the kernel has started the
    /// chain (it copies the bytes), so one buffer can serve every write.
    ///
    /// An operation that names a descriptor which is not open fails at
    /// once, the same from [`crate::Machine::run_closed_loop`] and
    /// [`crate::Machine::run_uring`]: [`ChainDriver::chain_done`] sees
    /// [`ChainStatus::IoError`] with no I/Os and a token minted for the
    /// default tenant, [`RunReport::errors`] counts it, no CPU is
    /// charged, and the thread is asked for its next operation.
    fn next_op(&mut self, thread: usize, rng: &mut SimRng) -> Option<ChainSpec<'_>>;

    /// User-mode only: one application step over a completed block.
    /// `token` identifies the chain, so drivers can keep per-chain state
    /// even with many chains in flight — including several for the same
    /// key.
    fn user_step(&mut self, _thread: usize, _token: &ChainToken, _data: &[u8]) -> UserNext {
        UserNext::Done
    }

    /// Called when a chain finishes; the verdict may ask the kernel to
    /// re-arm and retry (see [`ChainVerdict`]).
    fn chain_done(&mut self, _thread: usize, _outcome: &ChainOutcome) -> ChainVerdict {
        ChainVerdict::Done
    }
}

/// Aggregate results of a run. Two reports are equal when every
/// counter, histogram bucket and per-tenant row is: the equality the
/// determinism and bit-for-bit tests assert.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Simulated time the run covered.
    pub sim_time: Nanos,
    /// Chains completed.
    pub chains: u64,
    /// Chains the drivers started (a re-armed retry is the same chain):
    /// what [`Law::ChainsEnded`] holds `chains` to.
    pub chains_started: u64,
    /// Device I/Os completed.
    pub ios: u64,
    /// Chains that ended with a non-OK status.
    pub errors: u64,
    /// Device read IOPS achieved.
    pub iops: f64,
    /// Chains (application-level lookups) per second.
    pub chains_per_sec: f64,
    /// Chain latency distribution (reads and writes together).
    pub latency: Histogram,
    /// Latency distribution of read chains only.
    pub read_latency: Histogram,
    /// Latency distribution of write chains only (data write through
    /// the rings, plus the flush barrier when fsynced).
    pub write_latency: Histogram,
    /// Latency distribution of the fsync tail alone: from the instant a
    /// chain's fsync requested its barrier (data CQEs already back) to
    /// the flush barrier's CQE. Split out of
    /// [`RunReport::write_latency`] because group commit deliberately
    /// trades this figure for throughput — the report shows both sides.
    pub fsync_latency: Histogram,
    /// CPU utilization over the run.
    pub cpu_util: f64,
    /// Σ busy time of the machine's cores over the run: what
    /// [`Law::CpuBuckets`] holds `trace`'s CPU buckets to.
    pub cpu_busy_ns: Nanos,
    /// Device channel utilization over the run.
    pub device_util: f64,
    /// Per-layer time accounting.
    pub trace: LayerTrace,
    /// Device counters for this run: doorbell rings, interrupts fired,
    /// CQEs reaped, and submissions rejected by queue backpressure. They
    /// count the host's side of the queue pair on either transport: on
    /// a fabric the target's rings hold each command from its capsule's
    /// arrival to the host's reap, so `irqs` and `cq_backlog_hwm` are
    /// the host's reaps and backlog, and `doorbells` is one target
    /// doorbell per arriving command capsule.
    pub device: DeviceStats,
    /// Fabric counters for this run: capsules each way, wire time,
    /// window stalls. All zero on the local transport.
    pub fabric: FabricStats,
    /// Per-initiator fabric counters, one entry per configured
    /// initiator (empty on the local transport).
    pub fabric_initiators: Vec<InitiatorStats>,
    /// Extent-cache counters.
    pub extcache: ExtCacheStats,
    /// Total chained NVMe resubmissions (the §4 fairness counters,
    /// summed over threads; per-thread values via
    /// [`crate::Machine::resubmission_accounting`]).
    pub resubmissions: u64,
    /// Chains restarted through [`ChainVerdict::RearmRetry`] (each
    /// restart reran the install ioctl's extent snapshot).
    pub rearm_retries: u64,
    /// Completion-reaping decisions for this run: interrupt-entry CPU,
    /// adaptive-coalescing depth movement, and the hybrid scheduler's
    /// mode-transition timeline (poll visits and interrupts are
    /// [`LayerTrace`] counters).
    pub reaper: ReaperStats,
    /// Per-tenant breakdown, one entry per registered tenant (a
    /// single-tenant machine has exactly one, mirroring the aggregate).
    /// The top-level fields of this report remain the all-tenant
    /// aggregate view.
    pub tenants: Vec<crate::tenant::TenantBreakdown>,
    /// Measured host-CPU execution-engine split across all hook
    /// invocations of the run (per-engine hops, and real nanoseconds
    /// when a [`crate::ExecClock`] is injected).
    /// The *simulated* BPF charge stays in `trace.bpf` and is
    /// bit-for-bit identical across engines.
    pub exec: ExecSplit,
    /// Journal commit activity: transactions committed, handles and
    /// records per commit, barrier latency, and the
    /// flushes-per-fsync amortization headline (see
    /// [`crate::CommitLog`]). Under the default
    /// [`crate::CommitPolicy::PerFsync`] this is pure observation — one
    /// commit per fsync.
    pub commit: crate::commit::CommitLog,
    /// Block ownership at the run's end, by the file system's extent
    /// trees and by its allocator ([`bpfstor_fs::ExtFs::ownership`]):
    /// what [`Law::BlockOwnership`] holds equal.
    pub blocks: BlockOwnership,
}

/// One conservation law of a run, as [`RunReport::audit`] checks it
/// (left side == right side, term for term). Each holds on every run,
/// on both transports, in every reap mode and under every commit policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Law {
    /// Every CPU nanosecond a core ran is in exactly one layer bucket:
    /// `trace.software()` == `cpu_busy_ns`.
    CpuBuckets,
    /// Every command was reaped once, for one tenant: `device.cqes`, Σ
    /// tenant `cqes`, `trace.ios` == `ios` each.
    DeviceCqes,
    /// `device.reads + writes + flushes` == `ios`.
    DeviceCommands,
    /// Every device reap was an interrupt or a productive poll:
    /// `device.irqs + empty_polls` == `trace.irqs + polls`.
    DeviceReaps,
    /// Every command crossed as a capsule or was already on the target:
    /// `fabric.capsules_sent + target_local` == `ios` on a fabric, 0
    /// locally.
    WireCrossings,
    /// Σ initiator `capsules_sent`, `responses`, `retransmits`,
    /// `bytes_tx`, `capsule_stalls` == the same fields of `fabric`.
    WireInitiators,
    /// Every chain a run started ended: `chains` == `chains_started`.
    ChainsEnded,
    /// Every mapped block is the allocator's, once:
    /// `blocks.mapped`, `blocks.marked` == `blocks.used` each.
    BlockOwnership,
}

/// A law a run broke, with both its sides in the order [`Law`] lists
/// their terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Broken {
    /// The law broken.
    pub law: Law,
    /// Its left side.
    pub lhs: Vec<u64>,
    /// Its right side.
    pub rhs: Vec<u64>,
}

impl RunReport {
    /// Checks every [`Law`] over this report: `Ok` when each holds,
    /// else every broken one with both its sides. Each law is written
    /// here and nowhere else; [`crate::Machine`] panics on a run whose
    /// report fails it, in every build. Allocates nothing when every
    /// law holds.
    pub fn audit(&self) -> Result<(), Vec<Broken>> {
        let (d, t, f, ios) = (&self.device, &self.trace, &self.fabric, self.ios);
        let b = &self.blocks;
        let tenant_cqes: u64 = self.tenants.iter().map(|t| t.cqes).sum();
        let sum = |term: fn(&InitiatorStats) -> u64| self.fabric_initiators.iter().map(term).sum();
        // Every fabric has an initiator; a local machine has none.
        let on_fabric = u64::from(!self.fabric_initiators.is_empty());
        // Laid out by hand as the table it is: law, left side, right side.
        #[rustfmt::skip]
        let laws: [(Law, &[u64], &[u64]); 8] = [
            (Law::CpuBuckets, &[t.software()], &[self.cpu_busy_ns]),
            (Law::DeviceCqes, &[d.cqes, tenant_cqes, t.ios], &[ios; 3]),
            (Law::DeviceCommands, &[d.reads + d.writes + d.flushes], &[ios]),
            (Law::DeviceReaps, &[d.irqs + d.empty_polls], &[t.irqs + t.polls]),
            (Law::WireCrossings, &[f.capsules_sent + f.target_local], &[ios * on_fabric]),
            (Law::WireInitiators,
                &[sum(|i| i.capsules_sent), sum(|i| i.responses), sum(|i| i.retransmits),
                    sum(|i| i.bytes_tx), sum(|i| i.capsule_stalls)],
                &[f.capsules_sent, f.responses, f.retransmits, f.bytes_tx, f.capsule_stalls]),
            (Law::ChainsEnded, &[self.chains], &[self.chains_started]),
            (Law::BlockOwnership, &[b.mapped, b.marked], &[b.used; 2]),
        ];
        let broken: Vec<Broken> = laws
            .into_iter()
            .filter(|(_, lhs, rhs)| lhs != rhs)
            .map(|(law, lhs, rhs)| Broken {
                law,
                lhs: lhs.to_vec(),
                rhs: rhs.to_vec(),
            })
            .collect();
        if broken.is_empty() {
            Ok(())
        } else {
            Err(broken)
        }
    }

    /// Mean chain latency in nanoseconds.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// The poller loops' CPU (`trace.poll`) against the interrupt
    /// entries' (`reaper.irq_cpu_ns`), as fractions of their sum: the
    /// polling-vs-interrupt CPU trade. Returns `(poll_share, irq_share)`;
    /// `(0, 0)` when neither was charged.
    pub fn cpu_split(&self) -> (f64, f64) {
        let (poll, irq) = (self.trace.poll as f64, self.reaper.irq_cpu_ns as f64);
        let total = poll + irq;
        if total == 0.0 {
            return (0.0, 0.0);
        }
        (poll / total, irq / total)
    }

    /// The breakdown for one tenant, if it was registered.
    pub fn tenant(
        &self,
        tenant: crate::tenant::TenantId,
    ) -> Option<&crate::tenant::TenantBreakdown> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}
