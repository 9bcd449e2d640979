//! The simulated machine: cores + kernel storage stack + NVMe device.
//!
//! `Machine` is a discrete-event simulation of the paper's testbed (a
//! 6-core i5-8500 with an Optane P5800X). Application threads drive I/O
//! *chains* through one of the three dispatch paths of Figure 2; every
//! software stage charges CPU time on the core model (so saturation
//! behaves like the paper's 6-thread knee), and the device model decides
//! service times. Real bytes flow end to end: completions carry the
//! stored block contents, BPF programs execute on them in the verifier-
//! backed VM, and harnesses check that offloaded lookups return exactly
//! the values written. Every descriptor is direct (`O_DIRECT`, Table
//! 1's setting): there is no page cache, every read reaches the device.
//!
//! What runs where:
//!
//! - **submission** (app → syscall → ext4 → bio → driver) is one CPU
//!   burst; every burst is itemised in [`crate::costs`] (Table 1) and
//!   spent through `Machine::charge`, which runs it on a core and
//!   books it to the [`LayerTrace`] buckets in one step. The
//!   driver enqueues commands on the device's per-queue-pair submission
//!   ring and rings the doorbell once per batch (`Ev::Doorbell` —
//!   SQEs submitted at the same instant share the MMIO write);
//! - **device** service occupies a device channel, no CPU; a full
//!   submission queue is *backpressure*: the request parks and retries
//!   after the next completion interrupt frees queue slots;
//! - **completion** starts in the driver IRQ handler
//!   (`Ev::IrqFire`), whose firing is governed by the interrupt-
//!   coalescing knobs in [`MachineConfig`]: the interrupt is delayed
//!   until `irq_coalesce_depth` CQEs are pending or `irq_coalesce_us`
//!   has elapsed since the first, and one handler invocation reaps the
//!   whole completion ring. For tagged I/O in
//!   [`DispatchMode::DriverHook`] the BPF program runs right there; a
//!   `resubmit` recycles the descriptor (no allocation, no bio/fs) after
//!   translating the file offset through the extent soft-state cache;
//! - in [`DispatchMode::SyscallHook`] the completion climbs back up
//!   through bio and ext4 first, the program runs at the syscall
//!   dispatch layer, and the reissue pays the full fs+bio+driver
//!   submission path (but no boundary crossing);
//! - in [`DispatchMode::User`] everything unwinds to the application,
//!   which parses the block and issues a fresh `pread`.
//!
//! The ring→device hop itself is a [`Transport`]
//! ([`MachineConfig::fabric`]): the default `LocalTransport` is the
//! PCIe pass-through described above, while a `FabricTransport` puts an
//! NVMe-oF-style network (capsule encode costs, one-way latency with
//! jitter) between the rings and the device; a fabric queue pair
//! admits what its rings admit, as a local one does. Over a fabric,
//! [`DispatchMode::Remote`] pays a round trip per dependent hop, while
//! [`DispatchMode::DriverHook`] chains become *target-resident*: hops
//! recycle on the target and only the terminal response capsule crosses
//! back (`Ev::CapsuleRx`).
//!
//! # Event map
//!
//! One loop body (`Machine::step`) pops an event, drops it if it is a
//! superseded commit timer, advances the clock and dispatches:
//!
//! | `Ev` | handler | consults |
//! |---|---|---|
//! | `AppStart` | `on_app_start` → `start_chain`, or `uring_enter` | the [`ChainDriver`], `rng` |
//! | `DevSubmit` | `on_dev_submit`, at every attempt: a flush as it is; else (a write's first attempt → `plan_write`) → `translate` → `submit_segments` → `Op::cut` | `fs`, [`ExtentCache`], `SqAdmission`, the [`Transport`] |
//! | `Doorbell` | `on_doorbell` | [`Transport`], [`Reaper`] |
//! | `IrqFire`, `Poll` | `on_irq_fire`, `on_poll` → `reap_qp` → (`fair_order`) → `on_cqe` (the command id is the request's tag) → `on_device_done` (a data CQE → `enter_flush_phase`, a flush CQE → `on_barrier_cqe`) | [`Reaper`] (an interrupt arms on the device's in-flight completions), `FairSched` (weights from `tenants`), `SqAdmission`, `Barrier` |
//! | `Delivered` | `on_delivered` (→ `restart_chain`) | the [`ChainDriver`] |
//! | `CapsuleRx` | `on_capsule_rx` → `unwind` | costs only |
//! | `Relocate` | `on_relocate` | `fs`, [`ExtentCache`] |
//! | `CommitSeal` (`Group` only) | `on_commit_seal` → `seal_and_issue` | `Barrier` |
//! | `WritebackTick` (`Writeback` only) | `on_writeback_tick` → `seal_and_issue` | `Barrier`, `fs` |
//!
//! Every chain ends in `deliver`, which owns the local-vs-capsule
//! decision; every device command goes through `on_dev_submit` and
//! `submit_segments`.
//! Every journal commit is a seal in `seal_and_issue` and a flush CQE
//! in `on_barrier_cqe`, whatever the [`crate::CommitPolicy`]: the
//! policy only decides when `Barrier` asks for the seal (`PerFsync`: at
//! each fsync's request, from `enter_flush_phase`; the two timers
//! serve the grouped policies).
//!
//! # Buffer ownership
//!
//! A recycled hop allocates nothing because every buffer it touches
//! has exactly one owner at each event, and goes back where it came
//! from when it is dead:
//!
//! - **Payload buffers** are the device's pool's (`NvmeDevice::recycle`
//!   hands one back): reads and writes draw from the one pool, so it
//!   holds at most the peak number of payloads alive at once.
//! - **A read's payload** is the device's until the CQE is reaped: it
//!   services the read into a pooled buffer. `on_cqe` moves it into the
//!   op's segment slot and, with the last segment, into `Op::data`
//!   (extra segments are copied onto the first and handed back at
//!   once). The hook, or the application's `user_step`, reads it there.
//!   It is dead the moment the op issues its next read — `on_dev_submit`
//!   hands it back before anything else, so the next hop is serviced
//!   into the same bytes — or when the chain ends (`free_op`).
//! - **A terminal status takes the buffer it reports**
//!   (`Pass`/`SplitFallback` take `Op::data`, `Emitted` takes the emit
//!   buffer): the driver borrows the outcome in `chain_done`, and
//!   `on_delivered` puts the buffer back into the op before freeing it.
//! - **Scratch, emit buffer, segment slots and record copy**
//!   (`ChainBufs`) belong to the op for the life of the chain;
//!   `free_op` parks them in `Spares::chains`, `alloc_op` hands them to
//!   the next op — whichever tenant's — and `start_chain` zeroes the
//!   scratch, empties the emit buffer and overwrites the record copy
//!   before the chain sees them.
//! - **The runs** of a request (`Spares::runs`, plain `(start, sectors)`
//!   pairs) are one attempt's scratch, never an op's: `translate` writes
//!   them at every `DevSubmit` — the file system's translation
//!   (`ExtFs::map_runs`), reads and writes alike, or a recycled hop's
//!   snapshot target — and `Op::cut` makes the commands from them. A
//!   request that parks keeps none of them: its retry translates afresh.
//! - **Batches** — the reap batch, one request's runs and a write's
//!   commands, the ops of one `io_uring_enter` — live in `Spares`
//!   between events; the reap batch is swapped with the transport's own
//!   at each reap (its borrowed-batch contract), and a uring thread's
//!   queue of pending submissions is drained and handed back to it.
//!
//! A journaled write keeps the same rule, so what it allocates is what
//! its data costs — the store pages its non-zero sectors fill (an
//! all-zero sector is a hole and costs nothing):
//!
//! - **The record** is lent, not given: `WriteStart::data` borrows the
//!   driver only until `start_chain`, which copies it — up to its last
//!   non-zero 64-byte span: a zero tail costs nothing while the write
//!   waits — into the op's `ChainBufs::record` once the descriptor is
//!   known to be open, so a driver may lend one buffer for every write.
//!   At admission `Op::cut` makes the payload of it, zero tail
//!   restored, in a buffer from the device's pool; the payload moves
//!   whole into the single `NvmeOp::Write` of a sector-aligned one-run
//!   write, or is cut run by run (`bpfstor_fs::cut_runs`) into pooled
//!   images framed by the stored edge sectors and handed back. The
//!   device copies a command's payload into the store at the doorbell
//!   and hands the buffer back to its pool. A write that fails before
//!   admission made no payload; its record copy goes with its
//!   `ChainBufs` to the next chain.
//! - **The plan** (`ExtFs::plan_write_into`: allocation, journal
//!   records, a handle in the running transaction) is made on the first
//!   attempt only, so a retry neither allocates nor journals again. The
//!   write is still translated at every attempt, so one that parked
//!   across a relocation of its file goes where the file is now, never
//!   to the blocks the file gave up.
//! - **The commands** exist only inside `submit_segments`: cut into
//!   `Spares::cmds` after the admission checks and drained onto the
//!   rings in the same call (a read's are made from its runs as they
//!   go). No command outlives its submission (`free_op` asserts it):
//!   the only buffers pooled between events are the device's payload
//!   buffers, stale and carrying no payload of any live request.
//! - **The commit window** and the waiter lists of the barriers in
//!   flight swap roles at each seal: `Barrier::seal` takes a list an
//!   earlier release handed back (`Barrier::retire`) as the new window,
//!   so concurrent per-fsync barriers reuse as many lists as were ever
//!   in flight at once.
//!
//! Nothing here is sized by a constant: every pool holds at most what
//! was alive at once at the busiest instant.

use bpfstor_device::device::{NvmeCommand, NvmeOp};
use bpfstor_device::store::trim_zero_tail;
use bpfstor_device::{
    DeviceStats, FabricTransport, LocalTransport, NvmeCompletion, NvmeDevice, SectorStore,
    SubmitClass, Transport, SECTOR_SIZE,
};
use bpfstor_fs::{cut_runs, ExtFs, ExtentEvent, FsError};
use bpfstor_sim::{ensure, Cores, EventQueue, Histogram, IdMap, Nanos, SimRng};
use bpfstor_vm::{
    action, admit, CompiledProg, ExecEngine, ExecEnv, MapSet, Program, ResourceBudget, RunCtx, Vm,
    DEFAULT_INSN_BUDGET, EMIT_MAX, SCRATCH_SIZE,
};

use crate::chain::{
    ChainDriver, ChainOutcome, ChainSpec, ChainStart, ChainStatus, ChainToken, ChainVerdict,
    DispatchMode, Fd, RunReport, UserNext, WriteStart,
};
use crate::commit::{Barrier, CommitLog, Request, Tick};
use crate::config::{ConfigError, ExecClock, MachineConfig};
use crate::costs::{Item, LayerCosts};
use crate::extcache::{ExtCacheStats, ExtentCache};
use crate::reaper::{FairSched, ReapKind, Reaper, POLL_INTERVAL_NS};
use crate::tenant::{SqAdmission, TenantBreakdown, TenantId, TenantLimits, DEFAULT_TENANT};
use crate::trace::{ExecSplit, LayerTrace};

/// Errors from control-plane operations (open/install/re-arm).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Unknown file name.
    NoSuchFile,
    /// Unknown fd.
    BadFd(Fd),
    /// Program rejected by the verifier.
    Verifier(String),
    /// No program installed on the fd.
    NotInstalled,
    /// File-system failure.
    Fs(String),
    /// A buffered (non-`O_DIRECT`) open: only direct I/O is modelled.
    Buffered,
    /// An open on behalf of a tenant that was never registered.
    NoSuchTenant(TenantId),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::NoSuchFile => write!(f, "no such file"),
            KernelError::BadFd(fd) => write!(f, "bad fd {fd}"),
            KernelError::Verifier(e) => write!(f, "verifier rejected program: {e}"),
            KernelError::NotInstalled => write!(f, "no program attached to fd"),
            KernelError::Fs(e) => write!(f, "fs: {e}"),
            KernelError::Buffered => write!(f, "buffered I/O is not modelled: open with O_DIRECT"),
            KernelError::NoSuchTenant(t) => write!(f, "tenant {t} not registered"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<FsError> for KernelError {
    fn from(e: FsError) -> Self {
        KernelError::Fs(e.to_string())
    }
}

#[derive(Debug, Clone, Copy)]
struct FdState {
    ino: u64,
    tenant: TenantId,
}

impl FdState {
    /// A kernel-internal descriptor, on behalf of the default tenant.
    fn kernel(ino: u64) -> Self {
        FdState {
            ino,
            tenant: DEFAULT_TENANT,
        }
    }
}

struct Install {
    prog: Program,
    maps: MapSet,
    flags: u32,
    /// The lowering of `prog`, built once at install; `None` only on a
    /// machine whose engine is [`ExecEngine::Interp`].
    compiled: Option<CompiledProg>,
}

/// One open descriptor: what it names and the program last installed
/// on it, which runs at its hook. Boxed, so the descriptor table's
/// slots stay small: the kernel's sync descriptor and user-path
/// descriptors hold no program.
struct Desc {
    st: FdState,
    prog: Option<Box<Install>>,
}

#[derive(Debug)]
enum Ev {
    AppStart {
        thread: usize,
    },
    DevSubmit {
        op: usize,
    },
    /// The driver rings a queue pair's doorbell: the device batch-
    /// services everything queued on that SQ.
    Doorbell {
        qp: usize,
    },
    /// The completion interrupt for a queue pair fires: post ready
    /// CQEs and reap the completion ring.
    IrqFire {
        qp: usize,
    },
    /// The dedicated poller visits a queue pair's completion ring
    /// (polled/hybrid reaping): reap whatever has posted, productive
    /// or not, and re-arm while work is in flight.
    Poll {
        qp: usize,
    },
    Delivered {
        op: usize,
    },
    /// A terminal pushdown response capsule arrives at the host NIC:
    /// decode it and unwind the host-side completion path.
    CapsuleRx {
        op: usize,
    },
    /// A scheduled relocation of the file named by
    /// `relocations[idx]` fires.
    Relocate {
        idx: usize,
    },
    /// The group-commit window timer expired: seal the running journal
    /// transaction (or defer to the in-flight barrier's CQE). The epoch
    /// invalidates timers superseded by an earlier seal or run reset —
    /// stale ones are skipped at pop time, before they can advance the
    /// clock.
    CommitSeal {
        epoch: u64,
    },
    /// The background writeback timer fired: flush un-fsynced journal
    /// records ([`crate::CommitPolicy::Writeback`]). Epoch-guarded like
    /// [`Ev::CommitSeal`].
    WritebackTick {
        epoch: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Sync,
    Uring,
}

/// What the op is doing on the device right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// A read chain (may hop).
    Read,
    /// A journaled write's data phase: payload `Write` commands are on
    /// the rings (or parked on backpressure).
    WriteData {
        /// Chase the data CQEs with a flush barrier + journal commit.
        fsync: bool,
    },
    /// The fsync waits for, or carries, a flush barrier; the barrier's
    /// CQE commits the sealed journal transaction.
    WriteFlush,
}

/// The write-only part of an [`Op`] (all defaults on a read chain).
#[derive(Default)]
struct WriteState {
    /// Journal length right after this write's records were logged: the
    /// seal horizon its fsync needs durable. An fsync may park on an
    /// in-flight barrier only when the sealed transaction's end covers
    /// this point. `None` until the write is planned, which happens
    /// once, at its first submission attempt.
    journal_end: Option<usize>,
    /// Instant the chain's fsync requested its barrier (data CQEs
    /// already back) — the start of the fsync-latency measurement.
    fsync_from: Nanos,
}

/// The fabric-only part of an [`Op`] (all defaults on a local machine).
#[derive(Default)]
struct FabricState {
    /// Pushdown over fabric: the chain's hook runs on the NVMe-oF
    /// target, hops recycle target-side, and the terminal outcome
    /// returns as one response capsule.
    pushdown: bool,
    /// This target-resident fsync released on a shared commit barrier
    /// and rides the barrier's single acknowledgement capsule instead
    /// of crossing on its own (its [`Ev::CapsuleRx`] skips the decode —
    /// the leader pays it once).
    capsule_joined: bool,
}

/// The per-chain buffers a finished chain passes to the next one.
#[derive(Default)]
struct ChainBufs {
    /// The program's scratch area, zeroed at every chain start.
    scratch: Vec<u8>,
    emitted: Vec<u8>,
    /// Per-segment read buffers of the in-flight device request; CQEs
    /// may land out of order across channels, so each fills its slot.
    /// All `None` between requests.
    seg_data: Vec<Option<Vec<u8>>>,
    /// A write's lent record up to its last non-zero 64-byte span
    /// (the rest, to `Op::len`, is zeroes), copied at the chain's start;
    /// `Op::cut` makes the command's payload of it.
    record: Vec<u8>,
}

/// Buffers the per-I/O path reuses, kept only for their capacity.
#[derive(Default)]
struct Spares {
    /// The reap batch being worked through (swapped with the
    /// transport's at each reap).
    cqes: Vec<NvmeCompletion>,
    /// The physical `(start, sectors)` runs of the request being
    /// submitted — its file-system translation, or a recycled hop's
    /// snapshot target: the scratch of one attempt, never an op's, so
    /// a retry translates afresh.
    runs: Vec<(u64, u64)>,
    /// An admitted write's payload cut into `Write`s on its way to the
    /// rings. Empty between events, so no payload byte waits here for
    /// another chain.
    cmds: Vec<NvmeOp>,
    /// The ops one `io_uring_enter` started.
    submitted: Vec<usize>,
    /// Buffers of finished ops (never more than were in flight at once).
    chains: Vec<ChainBufs>,
}

struct Op {
    thread: usize,
    fd: Fd,
    /// The tenant that owns the chain's descriptor — the identity every
    /// per-tenant budget, ledger and counter keys on.
    tenant: TenantId,
    ino: u64,
    kind: OpKind,
    mode: DispatchMode,
    origin: Origin,
    /// Carries the chain's start instant (`issued`).
    token: ChainToken,
    /// First offset of the chain, kept for [`ChainVerdict::RearmRetry`]
    /// restarts.
    first_off: u64,
    attempts: u32,
    file_off: u64,
    len: u32,
    hop: u32,
    /// Instructions retired by the chain's hops so far: each hop runs
    /// under the owning tenant's instruction budget *minus* this, so a
    /// chain's cumulative execution traps at the tenant's budget (the
    /// verification-time budget covers the same whole-chain worst case).
    insns_used: u64,
    ios: u32,
    /// The last completed read's payload (module docs, "Buffer
    /// ownership").
    data: Vec<u8>,
    /// Outlives the chain: `free_op` parks it for `alloc_op` to hand on.
    bufs: ChainBufs,
    status: Option<ChainStatus>,
    /// Segments of the current device request still in flight.
    segs_pending: u32,
    /// When the current device request was submitted (queueing delay is
    /// charged to the device bucket).
    submitted_at: Nanos,
    /// A recycled driver-hook hop carries `(physical block, snapshot
    /// unmap generation)` from the extent-cache translation to the
    /// submission — the NVMe layer never consults live fs metadata.
    phys_target: Option<(u64, u64)>,
    wr: WriteState,
    fab: FabricState,
}

impl Op {
    /// The one place an op is built — a chain's first request, or the
    /// kernel-internal flush of a background seal — with nothing issued
    /// yet; the caller fills in the request.
    fn new(
        thread: usize,
        fd: Fd,
        st: FdState,
        kind: OpKind,
        mode: DispatchMode,
        origin: Origin,
        token: ChainToken,
    ) -> Self {
        Op {
            thread,
            fd,
            tenant: st.tenant,
            ino: st.ino,
            kind,
            mode,
            origin,
            token,
            first_off: 0,
            attempts: 0,
            file_off: 0,
            len: 0,
            hop: 0,
            insns_used: 0,
            ios: 0,
            data: Vec::new(),
            bufs: ChainBufs::default(),
            status: None,
            segs_pending: 0,
            submitted_at: 0,
            phys_target: None,
            wr: WriteState::default(),
            fab: FabricState::default(),
        }
    }

    /// The logical blocks `[lb, end)` of the current request: a read
    /// covers whole blocks from the one holding its offset (at least
    /// one), a write the blocks its payload touches.
    fn blocks(&self) -> (u64, u64) {
        let (bs, len) = (SECTOR_SIZE as u64, self.len as u64);
        let lb = self.file_off / bs;
        match self.kind {
            OpKind::Read => (lb, lb + len.div_ceil(bs).max(1)),
            _ => (lb, (self.file_off + len).div_ceil(bs)),
        }
    }

    /// The commands of the admitted request over `runs`, the physical
    /// runs it was translated onto (like the bio layer merging adjacent
    /// blocks): a read gets one `Read` per run, made as the commands are
    /// submitted; a write's payload is split across the runs by
    /// [`cut_runs`] into buffers from `dev`'s pool — or moved whole into
    /// the one command of a sector-aligned single-run write — into
    /// `cmds` first, since its edge sectors are read from `dev`'s store.
    /// From here a write's bytes are the commands', and a recycled hop's
    /// snapshot target is spent.
    fn cut<'a>(
        &mut self,
        runs: &'a [(u64, u64)],
        dev: &mut NvmeDevice,
        cmds: &'a mut Vec<NvmeOp>,
    ) -> impl Iterator<Item = NvmeOp> + use<'a> {
        self.phys_target = None;
        let head = (self.file_off % SECTOR_SIZE as u64) as usize;
        let reads = match self.kind {
            OpKind::Read => runs,
            _ => {
                // The record gets its zero tail back as it is admitted.
                let payload = dev.copy_in(&self.bufs.record, self.len as usize);
                match runs {
                    // Whole sectors into one run: the payload is the command's.
                    &[(slba, _)] if head == 0 && payload.len().is_multiple_of(SECTOR_SIZE) => {
                        cmds.push(NvmeOp::Write {
                            slba,
                            data: payload,
                        });
                    }
                    _ => {
                        for (slba, head, piece) in cut_runs(&payload, head, runs) {
                            let data = dev.write_image(slba, head, piece);
                            cmds.push(NvmeOp::Write { slba, data });
                        }
                        dev.recycle(payload);
                    }
                }
                &[]
            }
        };
        let read = |&(slba, n): &(u64, u64)| NvmeOp::Read { slba, nlb: n as _ };
        reads.iter().map(read).chain(cmds.drain(..))
    }
}

/// A command's id is its request's tag, as the NVMe command id is the
/// blk-mq tag: the op's slot and the segment's index. An op has one
/// request in flight at a time, so no two in-flight commands share one.
fn tag(op: usize, seg: usize) -> u64 {
    (op as u64) << 32 | seg as u64
}

/// The op slot and segment index a command id names ([`tag`]).
fn untag(cid: u64) -> (usize, usize) {
    ((cid >> 32) as usize, cid as u32 as usize)
}

/// A spec's argument and whether it is a write: what is left to say of
/// a chain once [`Machine::start_chain`] has consumed its spec and
/// found no descriptor.
fn arg_and_class(spec: &ChainSpec<'_>) -> (u64, bool) {
    match spec {
        ChainSpec::Read(s) => (s.arg, false),
        ChainSpec::Write(w) => (w.arg, true),
    }
}

/// A chain queued for re-issue after a rearm-retry verdict.
#[derive(Debug, Clone, Copy)]
struct RetrySpec {
    start: ChainStart,
    attempts: u32,
}

enum PendingSub {
    NewChain,
    Continue(usize),
    Retry(RetrySpec),
}

struct UringState {
    batch: u32,
    pending: u32,
    queue: Vec<PendingSub>,
}

#[derive(Default)]
struct ThreadState {
    stopped: bool,
    uring: Option<UringState>,
}

struct HookEnv<'a> {
    resubmit_to: Option<u64>,
    resubmit_calls: u32,
    emitted: &'a mut Vec<u8>,
}

impl ExecEnv for HookEnv<'_> {
    fn resubmit(&mut self, file_off: u64) -> i64 {
        self.resubmit_calls += 1;
        if self.resubmit_calls > 1 {
            return -16; // EBUSY: one recycled descriptor per completion.
        }
        self.resubmit_to = Some(file_off);
        0
    }

    fn emit(&mut self, data: &[u8]) -> i64 {
        if self.emitted.len() + data.len() > EMIT_MAX {
            return -28; // ENOSPC
        }
        self.emitted.extend_from_slice(data);
        data.len() as i64
    }
}

/// Everything that describes *one run*: replaced wholesale by
/// `begin_run`, so a counter added here cannot be forgotten in the
/// reset. Counters that have a per-tenant twin live only in `tstats`
/// and are summed once, in `finish_run`.
#[derive(Default)]
struct RunState {
    /// No new chain starts at or past this instant.
    until: Nanos,
    trace: LayerTrace,
    lat_read: Histogram,
    lat_write: Histogram,
    /// Device commands submitted.
    ios: u64,
    /// Chains the driver started ([`RunReport::chains_started`]).
    chains_started: u64,
    rearm_retries: u64,
    /// Per-tenant counters (index = tenant id).
    tstats: Vec<TenantBreakdown>,
    /// §4 resubmissions keyed `[tenant][thread]`; the per-thread and
    /// per-tenant views are its column and row sums.
    resub: Vec<Vec<u64>>,
    /// Monotone counter salting the per-chain RNG forks of the uring
    /// path, so every SQE in a batch draws an independent stream.
    rng_streams: u64,
    /// Per-queue-pair: is a doorbell event already scheduled? Submits
    /// that land at the same instant share one MMIO write.
    doorbell_armed: Vec<bool>,
    /// Commits absorbed so far (`fsyncs` and `barrier_joins` are filled
    /// from the tenants at the end of the run).
    commit_log: CommitLog,
}

impl RunState {
    fn new(until: Nanos, nr_queues: usize, tenants: &[TenantLimits]) -> Self {
        RunState {
            until,
            tstats: (0..)
                .zip(tenants)
                .map(|(t, l)| TenantBreakdown::fresh(t, l.weight))
                .collect(),
            resub: vec![Vec::new(); tenants.len()],
            doorbell_armed: vec![false; nr_queues],
            ..RunState::default()
        }
    }
}

/// The simulated machine.
pub struct Machine {
    /// Current simulated time.
    pub now: Nanos,
    events: EventQueue<Ev>,
    cores: Cores,
    /// The ring→device hop (local PCIe or NVMe-oF fabric).
    transport: Box<dyn Transport>,
    /// Cached `transport.is_fabric()` (hot paths branch on it).
    fabric: bool,
    fs: ExtFs,
    extcache: ExtentCache,
    costs: LayerCosts,
    rng: SimRng,
    fds: IdMap<Fd, Desc>,
    next_fd: Fd,
    /// Deliberately never reset: token ids stay unique across runs of
    /// one machine, so driver state keyed by token id can never collide
    /// with a stale entry from an earlier run.
    next_chain_id: u64,
    ops: Vec<Option<Op>>,
    free_ops: Vec<usize>,
    spares: Spares,
    threads: Vec<ThreadState>,
    /// The completion-reaping state machine: per-queue-pair armed
    /// timers, adaptive coalescing, hybrid scheduling.
    reaper: Reaper,
    /// Tenant SQ slot budgets and the submissions parked on them (or on
    /// device backpressure).
    admission: SqAdmission,
    /// Registered tenants; index = [`TenantId`]. Tenant 0 always exists.
    tenants: Vec<TenantLimits>,
    /// Weighted fair reaping's per-queue-pair cursors.
    fair: FairSched,
    /// Whether reap batches are reordered by the fair scheduler
    /// ([`MachineConfig::fair_reap`]).
    fair_reap: bool,
    /// Files named by [`Machine::schedule_relocation`], indexed by
    /// their `Ev::Relocate`.
    relocations: Vec<String>,
    resubmit_bound: u32,
    /// Engine executing hook programs ([`MachineConfig::exec_engine`]).
    exec_engine: ExecEngine,
    /// Optional measured-time clock ([`MachineConfig::exec_clock`]).
    exec_clock: Option<ExecClock>,
    /// The group-commit barrier ([`MachineConfig::commit_policy`]).
    barrier: Barrier,
    /// Counters and bookkeeping of the current/last run.
    run: RunState,
}

impl Machine {
    /// Builds a machine from its configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`MachineConfig::check`]'s refusal; a caller that
    /// wants the [`ConfigError`] checks first.
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.check().unwrap_or_else(|e| panic!("{e}"));
        let mut rng = SimRng::seed(cfg.seed);
        let dev_rng = rng.fork(1);
        let cores = Cores::new(cfg.cores);
        let nr_queues = cfg.cores;
        let device = NvmeDevice::new(cfg.profile, nr_queues, dev_rng);
        // The local path must not consume parent randomness beyond the
        // device fork, so existing seeds reproduce bit-for-bit; only a
        // fabric forks a wire-latency stream.
        let transport: Box<dyn Transport> = match cfg.fabric {
            None => Box::new(LocalTransport::new(device)),
            Some(fabric) => Box::new(FabricTransport::new(device, fabric, rng.fork(2))),
        };
        let tenants = vec![TenantLimits::default()];
        Machine {
            now: 0,
            events: EventQueue::new(),
            cores,
            fabric: transport.is_fabric(),
            transport,
            fs: ExtFs::mkfs(cfg.fs_blocks),
            extcache: ExtentCache::new(),
            costs: cfg.costs,
            rng,
            fds: IdMap::default(),
            next_fd: 3,
            next_chain_id: 0,
            ops: Vec::new(),
            free_ops: Vec::new(),
            spares: Spares::default(),
            threads: Vec::new(),
            reaper: Reaper::new(
                cfg.reap_mode,
                nr_queues,
                cfg.irq_coalesce_us.saturating_mul(1_000),
                cfg.irq_coalesce_depth,
            ),
            admission: SqAdmission::new(nr_queues),
            fair: FairSched::new(nr_queues),
            fair_reap: cfg.fair_reap,
            relocations: Vec::new(),
            resubmit_bound: cfg.resubmit_bound,
            exec_engine: cfg.exec_engine,
            exec_clock: cfg.exec_clock,
            barrier: Barrier::new(cfg.commit_policy),
            run: RunState::new(0, nr_queues, &tenants),
            tenants,
        }
    }

    // --- Control plane (untimed setup) -------------------------------------

    /// Creates a file with the given contents, bypassing timing (like
    /// imaging the disk before the experiment).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn create_file(&mut self, name: &str, data: &[u8]) -> Result<u64, KernelError> {
        let ino = self.fs.create(name)?;
        let store = self.transport.device_mut().store_mut();
        self.fs.write(ino, 0, data, store)?;
        self.fs.drain_events();
        Ok(ino)
    }

    /// Opens a file `O_DIRECT` for the default tenant, returning a
    /// descriptor. `o_direct` must be `true`.
    ///
    /// # Errors
    ///
    /// [`KernelError::Buffered`] for `o_direct: false`, opening nothing;
    /// [`KernelError::NoSuchFile`] when absent.
    pub fn open(&mut self, name: &str, o_direct: bool) -> Result<Fd, KernelError> {
        if !o_direct {
            return Err(KernelError::Buffered);
        }
        self.open_for(DEFAULT_TENANT, name)
    }

    /// Opens a file `O_DIRECT` on behalf of `tenant`. Every chain issued
    /// on the descriptor is charged to that tenant: its SQ slot budget,
    /// its resubmission ledger, its fair-reaping weight, and its slice of
    /// the run report.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTenant`] for a tenant not registered with
    /// [`Machine::register_tenant`]; [`KernelError::NoSuchFile`] when
    /// absent.
    pub fn open_for(&mut self, tenant: TenantId, name: &str) -> Result<Fd, KernelError> {
        let registered = (tenant as usize) < self.tenants.len();
        ensure(registered, KernelError::NoSuchTenant(tenant))?;
        let ino = self.fs.open(name).map_err(|_| KernelError::NoSuchFile)?;
        let fd = self.next_fd;
        self.next_fd += 1;
        let st = FdState { ino, tenant };
        self.fds.insert(fd, Desc { st, prog: None });
        Ok(fd)
    }

    /// Registers a tenant with its resource limits, returning its id.
    /// Tenant 0 (default limits) exists from construction; re-limiting
    /// it goes through [`Machine::set_tenant_limits`].
    ///
    /// # Errors
    ///
    /// [`TenantLimits::check`]'s refusal, registering nothing.
    pub fn register_tenant(&mut self, limits: TenantLimits) -> Result<TenantId, ConfigError> {
        limits.check()?;
        let id = self.tenants.len() as TenantId;
        self.tenants.push(limits);
        self.run
            .tstats
            .push(TenantBreakdown::fresh(id, limits.weight));
        self.run.resub.push(Vec::new());
        self.admission.add_tenant();
        Ok(id)
    }

    /// Replaces a registered tenant's limits (e.g. re-weighting the
    /// default tenant before a fairness experiment).
    ///
    /// # Errors
    ///
    /// [`ConfigError::NoSuchTenant`] for an unregistered tenant, or
    /// [`TenantLimits::check`]'s refusal; either changes nothing.
    pub fn set_tenant_limits(
        &mut self,
        tenant: TenantId,
        limits: TenantLimits,
    ) -> Result<(), ConfigError> {
        let t = tenant as usize;
        ensure(t < self.tenants.len(), ConfigError::NoSuchTenant(tenant))?;
        limits.check()?;
        self.tenants[t] = limits;
        self.run.tstats[t].weight = limits.weight;
        Ok(())
    }

    /// Number of registered tenants (≥ 1: tenant 0 always exists).
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The install ioctl (§4): verifies the program, instantiates its
    /// maps, replaces the descriptor's program (and its maps) at the
    /// hook, and pushes the file's extent snapshot to the NVMe layer.
    ///
    /// # Errors
    ///
    /// Verifier rejections and bad descriptors; either leaves the
    /// descriptor's program as it was.
    pub fn install(&mut self, fd: Fd, prog: Program, flags: u32) -> Result<(), KernelError> {
        let st = self.fds.get(&fd).ok_or(KernelError::BadFd(fd))?.st;
        let budget = self.tenants[st.tenant as usize]
            .insn_budget
            .map(|max_insns| ResourceBudget {
                chain_depth: self.resubmit_bound as u64,
                max_insns,
            });
        let verified = admit(&prog, budget).map_err(|e| KernelError::Verifier(e.to_string()))?;
        let maps =
            MapSet::instantiate(&prog.maps).map_err(|e| KernelError::Verifier(e.to_string()))?;
        self.snapshot_extents(st.ino)?;
        // Lower what was verified, up front (install is untimed, like a
        // real JIT running at load).
        let compiled = match self.exec_engine {
            ExecEngine::Compiled => Some(verified.compile()),
            ExecEngine::Interp => None,
        };
        self.fds.get_mut(&fd).expect("checked above").prog = Some(Box::new(Install {
            prog,
            maps,
            flags,
            compiled,
        }));
        Ok(())
    }

    /// Pushes a fresh extent snapshot for `ino` to the NVMe layer.
    fn snapshot_extents(&mut self, ino: u64) -> Result<(), KernelError> {
        let (_, unmap_gen) = self.fs.generations(ino)?;
        let snapshot = self.fs.extents_snapshot(ino)?;
        self.extcache.install(ino, snapshot, unmap_gen);
        Ok(())
    }

    /// Re-arms the extent snapshot after an invalidation (the paper's
    /// "rerun the ioctl" recovery).
    ///
    /// # Errors
    ///
    /// [`KernelError::NotInstalled`] when no program was installed.
    pub fn rearm(&mut self, fd: Fd) -> Result<(), KernelError> {
        let desc = self.fds.get(&fd).ok_or(KernelError::BadFd(fd))?;
        if desc.prog.is_none() {
            return Err(KernelError::NotInstalled);
        }
        self.snapshot_extents(desc.st.ino)
    }

    /// Reads back a map value of the program installed on `fd` after a
    /// run (for stats maps).
    pub fn map_value(&mut self, fd: Fd, map_id: u32, key: &[u8]) -> Option<Vec<u8>> {
        let install = self.fds.get_mut(&fd)?.prog.as_mut()?;
        install
            .maps
            .lookup(map_id, key)
            .ok()
            .flatten()
            .map(|v| v.to_vec())
    }

    /// Schedules a defragmenter-style relocation of every block of the
    /// file `name` at simulated time `at` in the next run: it always
    /// unmaps, driving the §4 invalidation experiments. A name that no
    /// longer opens at `at` relocates nothing.
    pub fn schedule_relocation(&mut self, at: Nanos, name: &str) {
        let idx = self.relocations.len();
        self.relocations.push(name.to_owned());
        self.events.push(at, Ev::Relocate { idx });
    }

    /// Direct FS access for setup/verification.
    pub fn fs(&self) -> &ExtFs {
        &self.fs
    }

    /// Direct mutable FS + store access for setup.
    pub fn fs_and_store(&mut self) -> (&mut ExtFs, &mut SectorStore) {
        (&mut self.fs, self.transport.device_mut().store_mut())
    }

    /// The extent-cache statistics.
    pub fn extcache_stats(&self) -> ExtCacheStats {
        self.extcache.stats()
    }

    /// Resolves an fd to its inode.
    pub fn ino_of(&self, fd: Fd) -> Option<u64> {
        self.fds.get(&fd).map(|d| d.st.ino)
    }

    /// §4 fairness accounting: chained NVMe resubmissions per thread in
    /// the last run — the counters the paper proposes the NVMe layer
    /// periodically passes up to the BIO layer (summed over tenants).
    pub fn resubmission_accounting(&self) -> Vec<u64> {
        let threads = self.run.resub.iter().map(Vec::len).max().unwrap_or(0);
        (0..threads)
            .map(|t| self.run.resub.iter().filter_map(|row| row.get(t)).sum())
            .collect()
    }

    /// §4 fairness accounting keyed by (tenant, thread): chained NVMe
    /// resubmissions charged to one tenant in the last run, per thread.
    /// Summing a row gives [`crate::TenantBreakdown::resubmissions`];
    /// summing column `t` across all tenants gives
    /// [`Machine::resubmission_accounting`]`()[t]`.
    ///
    /// # Panics
    ///
    /// Panics on an unregistered tenant.
    pub fn resubmission_accounting_for(&self, tenant: TenantId) -> &[u64] {
        &self.run.resub[tenant as usize]
    }

    /// Device counters for the current/last run: doorbell rings,
    /// interrupts, reaped CQEs, and backpressure rejections. On a
    /// fabric transport these are target-side counters.
    pub fn device_stats(&self) -> DeviceStats {
        self.transport.device().stats()
    }

    /// Busy nanoseconds accumulated on `core` in the current/last run
    /// (affinity test hook).
    pub fn core_busy_ns(&self, core: usize) -> Nanos {
        self.cores.busy_ns(core)
    }

    // --- Synchronous file I/O through the rings ------------------------------

    /// Writes `data` at `off` in `ino` as a synchronous journaled write
    /// through the SQ/CQ rings, blocking (in simulated time) until the
    /// chain delivers. With `fsync`, an ordered flush barrier commits
    /// the journal after the data CQEs; `data` may be empty with
    /// `fsync: true` for a pure fsync. This is the path LSM flush and
    /// compaction I/O ride — it advances [`Machine::now`] and shares
    /// queue slots, doorbells, and interrupts with any later run.
    ///
    /// # Errors
    ///
    /// [`KernelError::Fs`] on metadata failures surfaced as a failed
    /// chain.
    pub fn write_file(
        &mut self,
        ino: u64,
        off: u64,
        data: &[u8],
        fsync: bool,
    ) -> Result<ChainOutcome, KernelError> {
        let fd = self.sync_fd(ino);
        let spec = ChainSpec::Write(WriteStart {
            fd,
            file_off: off,
            data,
            fsync,
            arg: 0,
        });
        let outcome = self.run_one_shot(spec)?;
        match outcome.status {
            ChainStatus::Written(_) => Ok(outcome),
            ref other => Err(KernelError::Fs(format!("write failed: {other:?}"))),
        }
    }

    /// Reads `len` bytes at `off` from `ino` as a synchronous one-hop
    /// read chain through the rings (no program, User-path completion).
    ///
    /// # Errors
    ///
    /// [`KernelError::Fs`] on unmapped ranges / failed chains.
    pub fn read_file(&mut self, ino: u64, off: u64, len: usize) -> Result<Vec<u8>, KernelError> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let fd = self.sync_fd(ino);
        // The device path reads whole blocks from the containing block
        // boundary: size the request to cover the unaligned head too,
        // then trim to the requested byte range.
        let skip = (off % SECTOR_SIZE as u64) as usize;
        let spec = ChainSpec::Read(ChainStart {
            fd,
            file_off: off - skip as u64,
            len: (skip + len) as u32,
            arg: 0,
        });
        let outcome = self.run_one_shot(spec)?;
        match outcome.status {
            ChainStatus::Pass(data) => {
                let end = (skip + len).min(data.len());
                Ok(data.get(skip..end).map(<[u8]>::to_vec).unwrap_or_default())
            }
            ref other => Err(KernelError::Fs(format!("read failed: {other:?}"))),
        }
    }

    /// Control-plane unlink that also propagates the unmap events to the
    /// NVMe-layer extent snapshot, exactly like a scheduled relocation
    /// would.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn unlink_file(&mut self, name: &str) -> Result<(), KernelError> {
        self.fs.unlink(name)?;
        self.apply_fs_events();
        Ok(())
    }

    fn apply_fs_events(&mut self) {
        for ev in self.fs.drain_events() {
            if let ExtentEvent::Unmapped { ino, .. } = ev {
                self.extcache.invalidate(ino);
            }
        }
    }

    /// A reusable internal descriptor for by-inode synchronous I/O.
    fn sync_fd(&mut self, ino: u64) -> Fd {
        const SYNC_FD: Fd = u32::MAX;
        let st = FdState::kernel(ino);
        self.fds.insert(SYNC_FD, Desc { st, prog: None });
        SYNC_FD
    }

    /// Drives one chain to completion outside a benchmark run: pushes
    /// the app event and drains the event queue with a driver that
    /// issues exactly this chain. Simulated time advances monotonically
    /// across calls; counters reset at the next `run_*`.
    fn run_one_shot(&mut self, spec: ChainSpec<'_>) -> Result<ChainOutcome, KernelError> {
        struct OneShot<'a> {
            spec: Option<ChainSpec<'a>>,
            out: Option<ChainOutcome>,
        }
        impl ChainDriver for OneShot<'_> {
            fn mode(&self) -> DispatchMode {
                DispatchMode::User
            }
            fn next_op(&mut self, _thread: usize, _rng: &mut SimRng) -> Option<ChainSpec<'_>> {
                self.spec.take()
            }
            fn chain_done(&mut self, _thread: usize, outcome: &ChainOutcome) -> ChainVerdict {
                self.out = Some(outcome.clone());
                ChainVerdict::Done
            }
        }
        let saved_until = std::mem::replace(&mut self.run.until, Nanos::MAX);
        match self.threads.first_mut() {
            Some(t) => *t = ThreadState::default(),
            None => self.threads.push(ThreadState::default()),
        }
        let mut d = OneShot {
            spec: Some(spec),
            out: None,
        };
        self.events.push(self.now, Ev::AppStart { thread: 0 });
        // Drive only this chain to delivery — do NOT drain the whole
        // queue, which may hold relocations scheduled for a future run.
        while d.out.is_none() && self.step(&mut d) {}
        // Consume the op's own trailing bookkeeping (the AppStart pushed
        // at delivery, any already-due timers) without touching events
        // scheduled strictly in the future.
        while self.events.peek_time().is_some_and(|t| t <= self.now) {
            self.step(&mut d);
        }
        self.run.until = saved_until;
        d.out
            .ok_or_else(|| KernelError::Fs("one-shot chain never delivered".to_string()))
    }

    // --- CPU accounting -----------------------------------------------------

    /// Spends one CPU burst ([`crate::costs`]): runs its total as one
    /// job starting no earlier than now — on `core` when pinned (MSI-X
    /// affinity: a queue pair's interrupt handler and poller run on its
    /// owning core), else on whichever core frees first — and books
    /// each item to its layer's bucket. The only caller of
    /// [`Cores::run`] and the only writer of a CPU bucket, so the
    /// buckets sum to the cores' busy time ([`crate::Law::CpuBuckets`]).
    /// Returns the instant the burst ends.
    fn charge(&mut self, core: Option<usize>, burst: impl IntoIterator<Item = Item>) -> Nanos {
        let mut total = 0;
        for (layer, ns) in burst {
            *self.run.trace.bucket_mut(layer) += ns;
            total += ns;
        }
        self.cores.run(self.now, core, total).end
    }

    /// Spends `burst` as one CPU job, after which op `id` reaches the
    /// device submission path ([`Ev::DevSubmit`]).
    fn submit_after(&mut self, id: usize, burst: impl IntoIterator<Item = Item>) {
        let end = self.charge(None, burst);
        self.events.push(end, Ev::DevSubmit { op: id });
    }

    /// True when the chain's outcome lives on the NVMe-oF target and
    /// must return as a response capsule: a pushdown-over-fabric chain
    /// that actually reached the device (one that failed before its
    /// first command never left the initiator).
    fn target_resident(&self, id: usize) -> bool {
        self.ops[id]
            .as_ref()
            .is_some_and(|op| op.fab.pushdown && op.ios > 0)
    }

    /// The host-side completion path up to the application: `head`
    /// (what ran just before — a hook, a capsule decode, or nothing)
    /// and the completion unwind as one CPU job, then delivery. The
    /// only place a terminal [`Ev::Delivered`] is scheduled.
    fn unwind(&mut self, id: usize, head: &[Item]) {
        let burst = head.iter().copied().chain(self.costs.unwind());
        let end = self.charge(None, burst);
        self.events.push(end, Ev::Delivered { op: id });
    }

    /// Terminal hop of a chain; `hook` itemises the final CPU work that
    /// ended it (the hook's run, or nothing). A local chain unwinds the
    /// completion stack directly. A target-resident chain's outcome
    /// returns as one response capsule — the target does the work and
    /// encodes the capsule, and the host unwinds when it arrives
    /// ([`Ev::CapsuleRx`]); the arrival instant is returned so a
    /// grouped commit barrier can ack its other released fsyncs on the
    /// same capsule.
    fn deliver(&mut self, id: usize, hook: &[Item]) -> Option<Nanos> {
        if !self.target_resident(id) {
            self.unwind(id, hook);
            return None;
        }
        let burst = hook.iter().copied().chain(self.costs.capsule_encode(1, 0));
        let end = self.charge(None, burst);
        let initiator = self.ops[id].as_ref().expect("op").tenant;
        let (arrive, wire) = self
            .transport
            .response_capsule(end, initiator)
            .expect("target-resident chains require a fabric transport");
        self.run.trace.fabric_wire += wire;
        self.events.push(arrive, Ev::CapsuleRx { op: id });
        Some(arrive)
    }

    /// Ends the chain with `status` after the final CPU work `hook`
    /// itemises (over a fabric, a failure caught at the target returns
    /// as its response capsule first).
    fn fail(&mut self, id: usize, status: ChainStatus, hook: &[Item]) {
        self.ops[id].as_mut().expect("op").status = Some(status);
        self.deliver(id, hook);
    }

    /// §4 fairness accounting: one chained kernel-side resubmission on
    /// behalf of `(tenant, thread)` (read hop recycle or write flush
    /// chase). Each tenant's charges stay in its own row, so one
    /// tenant's chain hitting the bound never bills another.
    fn note_resubmission(&mut self, tenant: TenantId, thread: usize) {
        let row = &mut self.run.resub[tenant as usize];
        if row.len() <= thread {
            row.resize(thread + 1, 0);
        }
        row[thread] += 1;
    }

    /// Chains completed so far this run (all tenants).
    fn chains_done(&self) -> u64 {
        self.run.tstats.iter().map(|t| t.chains).sum()
    }

    // --- Run loops -----------------------------------------------------------

    /// Runs a closed-loop workload: `nthreads` application threads, each
    /// issuing one chain at a time, until simulated time `until`.
    pub fn run_closed_loop(
        &mut self,
        nthreads: usize,
        until: Nanos,
        driver: &mut dyn ChainDriver,
    ) -> RunReport {
        self.run(nthreads, None, until, driver)
    }

    /// Runs an io_uring workload: each thread keeps `batch` SQEs in
    /// flight per `io_uring_enter`, as in Figure 3d.
    pub fn run_uring(
        &mut self,
        nthreads: usize,
        batch: u32,
        until: Nanos,
        driver: &mut dyn ChainDriver,
    ) -> RunReport {
        self.run(nthreads, Some(batch), until, driver)
    }

    fn run(
        &mut self,
        nthreads: usize,
        uring_batch: Option<u32>,
        until: Nanos,
        driver: &mut dyn ChainDriver,
    ) -> RunReport {
        self.begin_run(until);
        self.threads = (0..nthreads)
            .map(|_| ThreadState {
                stopped: false,
                uring: uring_batch.map(|batch| UringState {
                    batch,
                    pending: 0,
                    queue: Vec::new(),
                }),
            })
            .collect();
        for t in 0..nthreads {
            // Small stagger desynchronises thread start-up.
            self.events
                .push((t as Nanos) * 97, Ev::AppStart { thread: t });
        }
        while let Some(t) = self.events.peek_time() {
            debug_assert!(t >= self.now, "time went backwards");
            self.step(driver);
        }
        self.finish_run()
    }

    fn begin_run(&mut self, until: Nanos) {
        self.now = 0;
        self.cores.reset();
        self.transport.reset_timing();
        self.reaper.reset();
        self.fair.reset();
        self.admission.reset();
        self.barrier.reset();
        self.run = RunState::new(until, self.transport.nr_queues(), &self.tenants);
    }

    /// Builds the report and panics if it breaks a law
    /// ([`RunReport::audit`]). Every aggregate that has a per-tenant
    /// twin is the sum over [`RunReport::tenants`], here and nowhere
    /// else.
    fn finish_run(&mut self) -> RunReport {
        let sim_time = self.now.max(1);
        let secs = sim_time as f64 / 1e9;
        let (mut chains, mut errors, mut resubmissions) = (0, 0, 0);
        let (mut latency, mut fsync_latency) = (Histogram::new(), Histogram::new());
        let mut exec = ExecSplit::default();
        let mut commit = self.run.commit_log;
        let mut trace = self.run.trace;
        for (t, row) in self.run.tstats.iter_mut().zip(&self.run.resub) {
            t.resubmissions = row.iter().sum();
            trace.ios += t.ios;
            trace.write_ios += t.dev_writes + t.dev_flushes;
            trace.device += t.device_ns;
            chains += t.chains;
            errors += t.errors;
            resubmissions += t.resubmissions;
            latency.merge(&t.latency);
            fsync_latency.merge(&t.fsync_latency);
            exec.absorb(&t.exec);
            commit.fsyncs += t.fsyncs;
            commit.barrier_joins += t.barrier_joins;
        }
        let report = RunReport {
            sim_time,
            chains,
            chains_started: self.run.chains_started,
            ios: self.run.ios,
            errors,
            iops: self.run.ios as f64 / secs,
            chains_per_sec: chains as f64 / secs,
            latency,
            read_latency: self.run.lat_read.clone(),
            write_latency: self.run.lat_write.clone(),
            fsync_latency,
            cpu_util: self.cores.utilization(sim_time),
            cpu_busy_ns: (0..self.cores.count()).map(|c| self.cores.busy_ns(c)).sum(),
            device_util: self.transport.device().utilization(sim_time),
            device: self.transport.device().stats(),
            fabric: self.transport.fabric_stats(),
            fabric_initiators: self.transport.initiator_stats(),
            trace,
            extcache: self.extcache.stats(),
            resubmissions,
            rearm_retries: self.run.rearm_retries,
            reaper: self.reaper.stats().clone(),
            tenants: self.run.tstats.clone(),
            exec,
            commit,
            blocks: self.fs.ownership(),
        };
        // In every build: O(tenants + initiators + extents) once per run.
        if let Err(broken) = report.audit() {
            panic!("the run broke its conservation laws: {broken:?}");
        }
        report
    }

    /// The one event-loop body: pop, drop a superseded commit timer
    /// *before* the clock advances (so a stale tick from an earlier
    /// epoch can never inflate a later run's `sim_time`), advance, and
    /// dispatch. Returns `false` once the queue is empty. One-shot ops
    /// run between runs, when a queued event may predate the current
    /// clock (runs reset `now` to 0), so the clock clamps rather than
    /// steps back.
    fn step(&mut self, driver: &mut dyn ChainDriver) -> bool {
        let Some((t, ev)) = self.events.pop() else {
            return false;
        };
        let stale = match ev {
            Ev::CommitSeal { epoch } => self.barrier.seal_timer_stale(epoch),
            Ev::WritebackTick { epoch } => self.barrier.writeback_tick_stale(epoch),
            _ => false,
        };
        if stale {
            return true;
        }
        self.now = self.now.max(t);
        match ev {
            Ev::AppStart { thread } => self.on_app_start(thread, driver),
            Ev::DevSubmit { op } => self.on_dev_submit(op),
            Ev::Doorbell { qp } => self.on_doorbell(qp),
            Ev::IrqFire { qp } => self.on_irq_fire(qp),
            Ev::Poll { qp } => self.on_poll(qp),
            Ev::Delivered { op } => self.on_delivered(op, driver),
            Ev::CapsuleRx { op } => self.on_capsule_rx(op),
            Ev::Relocate { idx } => self.on_relocate(idx),
            Ev::CommitSeal { .. } => self.on_commit_seal(),
            Ev::WritebackTick { .. } => self.on_writeback_tick(),
        }
        true
    }

    /// A terminal pushdown response capsule reaches the host: decode it
    /// and unwind the initiator-side completion path to the application.
    /// An fsync that rode a shared barrier's acknowledgement capsule
    /// ([`FabricState::capsule_joined`]) skips the decode — the capsule
    /// was decoded once by the barrier leader.
    fn on_capsule_rx(&mut self, id: usize) {
        let Some(op) = self.ops[id].as_ref() else {
            return;
        };
        let decode = self.costs.capsule_decode();
        let joined = op.fab.capsule_joined;
        self.unwind(id, if joined { &[] } else { &decode });
    }

    // --- Op slab --------------------------------------------------------------

    /// Slots an op, with the per-chain buffers of some finished one:
    /// `free_op` parks them, so there are never more than ops at once.
    fn alloc_op(&mut self, mut op: Op) -> usize {
        op.bufs = self.spares.chains.pop().unwrap_or_default();
        if let Some(i) = self.free_ops.pop() {
            self.ops[i] = Some(op);
            i
        } else {
            self.ops.push(Some(op));
            self.ops.len() - 1
        }
    }

    /// Retires a finished op: its last read buffer goes back to the
    /// device, its per-chain buffers — a write's record copy among them
    /// — to the next chain.
    fn free_op(&mut self, id: usize) {
        let op = self.ops[id].take().expect("op exists");
        debug_assert_eq!(op.segs_pending, 0, "an op retired under its in-flight tags");
        debug_assert!(
            self.spares.cmds.is_empty(),
            "a cut command outlived its submission"
        );
        self.transport.device_mut().recycle(op.data);
        self.spares.chains.push(op.bufs);
        self.free_ops.push(id);
    }

    /// Mints the token of a chain starting now.
    fn next_token(&mut self, tenant: TenantId, arg: u64) -> ChainToken {
        self.next_chain_id += 1;
        ChainToken {
            id: self.next_chain_id - 1,
            tenant,
            arg,
            issued: self.now,
        }
    }

    // --- Event handlers ---------------------------------------------------------

    fn on_app_start(&mut self, thread: usize, driver: &mut dyn ChainDriver) {
        if self.threads[thread].stopped {
            return;
        }
        if self.threads[thread].uring.is_some() {
            self.uring_enter(thread, driver);
            return;
        }
        if self.now >= self.run.until {
            self.threads[thread].stopped = true;
            return;
        }
        let mut rng = self.rng.fork(thread as u64 * 7919 + self.chains_done());
        let mode = driver.mode();
        let Some(spec) = driver.next_op(thread, &mut rng) else {
            self.threads[thread].stopped = true;
            return;
        };
        let (arg, is_write) = arg_and_class(&spec);
        if self
            .start_chain(thread, spec, mode, Origin::Sync, 0)
            .is_none()
        {
            self.fail_unopened(thread, arg, is_write, driver);
            self.events.push(self.now, Ev::AppStart { thread });
        }
    }

    /// Starts a chain, counting it; `None` when it names a descriptor
    /// that is not open (see [`Machine::fail_unopened`]). A write's lent record is
    /// copied into the op's chain buffers here, once the descriptor is
    /// known to be open.
    fn start_chain(
        &mut self,
        thread: usize,
        spec: ChainSpec<'_>,
        mode: DispatchMode,
        origin: Origin,
        attempts: u32,
    ) -> Option<usize> {
        // A re-armed retry (`attempts > 0`) is the chain it retries.
        self.run.chains_started += u64::from(attempts == 0);
        let (start, kind, record) = match spec {
            ChainSpec::Read(s) => (s, OpKind::Read, &[][..]),
            ChainSpec::Write(w) => (
                ChainStart {
                    fd: w.fd,
                    file_off: w.file_off,
                    len: w.data.len() as u32,
                    arg: w.arg,
                },
                OpKind::WriteData { fsync: w.fsync },
                w.data,
            ),
        };
        let st = self.fds.get(&start.fd)?.st;
        let token = self.next_token(st.tenant, start.arg);
        let mut op = Op::new(thread, start.fd, st, kind, mode, origin, token);
        (op.first_off, op.file_off, op.len) = (start.file_off, start.file_off, start.len);
        op.attempts = attempts;
        op.fab.pushdown = self.fabric && mode == DispatchMode::DriverHook;
        let id = self.alloc_op(op);
        // No chain may read what another left in its scratch area or
        // its emit buffer.
        let bufs = &mut self.ops[id].as_mut().expect("just slotted").bufs;
        bufs.emitted.clear();
        bufs.scratch.clear();
        bufs.scratch.resize(SCRATCH_SIZE, 0);
        bufs.scratch[..8].copy_from_slice(&start.arg.to_le_bytes());
        // The record is lent only until now; its zero tail costs nothing
        // until the write is admitted.
        bufs.record.clear();
        bufs.record.extend_from_slice(trim_zero_tail(record));
        if origin == Origin::Sync {
            // App think + the full layer walk down to the driver.
            self.submit_after(id, self.costs.sync_issue(kind != OpKind::Read));
        }
        Some(id)
    }

    /// A chain whose opening operation names a descriptor that is not
    /// open is over before it starts, as an I/O error like any other:
    /// the driver's `chain_done` sees [`ChainStatus::IoError`] with no
    /// I/Os, the report counts the chain and the error, and the caller
    /// moves the thread on to its next operation. No CPU is charged
    /// (there is no file to walk toward) and the token is minted for
    /// the default tenant (there is no descriptor to name another).
    #[cold]
    #[inline(never)]
    fn fail_unopened(
        &mut self,
        thread: usize,
        arg: u64,
        is_write: bool,
        driver: &mut dyn ChainDriver,
    ) {
        let outcome = ChainOutcome {
            thread,
            token: self.next_token(DEFAULT_TENANT, arg),
            status: ChainStatus::IoError,
            ios: 0,
            attempts: 0,
            latency: 0,
        };
        // Nothing a re-arm repairs: whatever the verdict, it is final.
        driver.chain_done(thread, &outcome);
        self.count_chain(DEFAULT_TENANT as usize, &outcome, !is_write);
    }

    /// Books a finished chain: its tenant's completion and error
    /// counts and the latency histograms.
    #[inline(always)]
    fn count_chain(&mut self, tenant: usize, outcome: &ChainOutcome, is_read: bool) {
        let ts = &mut self.run.tstats[tenant];
        ts.chains += 1;
        if !outcome.status.is_ok() {
            ts.errors += 1;
        }
        ts.latency.record(outcome.latency);
        if is_read {
            self.run.lat_read.record(outcome.latency);
        } else {
            self.run.lat_write.record(outcome.latency);
        }
    }

    /// Issues the op's current request to the device: the one path from
    /// an op to the rings, taken again by every retry of a request that
    /// parked on backpressure. A flush barrier goes out as it is, and a
    /// recycled driver-hook hop to its snapshot target. Every other
    /// request — a chain's first read, a reissued hop, a journaled write
    /// (planned once, on its first attempt) — is translated through the
    /// file system at each attempt, so one that parked across a
    /// relocation goes where its file is now.
    fn on_dev_submit(&mut self, id: usize) {
        let Some(op) = self.ops[id].as_mut() else {
            return;
        };
        match op.kind {
            // The fsync flush barrier; its CQE commits the journal.
            OpKind::WriteFlush => {
                return self.submit_segments(id, 1, |_, _| std::iter::once(NvmeOp::Flush));
            }
            // The previous hop's payload is dead once the next read is
            // issued: back it goes, for this very read to be serviced into.
            OpKind::Read => self
                .transport
                .device_mut()
                .recycle(std::mem::take(&mut op.data)),
            OpKind::WriteData { fsync } => {
                if op.wr.journal_end.is_none() && !self.plan_write(id, fsync) {
                    return;
                }
            }
        }
        let mut runs = std::mem::take(&mut self.spares.runs);
        let mut cmds = std::mem::take(&mut self.spares.cmds);
        match self.translate(id, &mut runs) {
            Ok(()) => self.submit_segments(id, runs.len(), |op, dev| op.cut(&runs, dev, &mut cmds)),
            Err(status) => self.fail(id, status, &[]),
        }
        (self.spares.runs, self.spares.cmds) = (runs, cmds);
    }

    /// The physical runs of op `id`'s current request, into `runs`: the
    /// one translation of every request that is not a flush, made at
    /// each attempt to admit it. A recycled hop goes to its snapshot
    /// target and never consults live fs metadata: if the file's extents
    /// changed under the snapshot (its unmap generation moved, or the
    /// entry died), the descriptor is discarded — §4's invalidation
    /// semantics — rather than re-translated. Anything else is the file
    /// system's translation of the request's blocks as they are now.
    fn translate(&self, id: usize, runs: &mut Vec<(u64, u64)>) -> Result<(), ChainStatus> {
        let op = self.ops[id].as_ref().expect("op");
        let (lb, end) = op.blocks();
        let Some((slba, snap_gen)) = op.phys_target else {
            let mapped = self.fs.map_runs(op.ino, lb, end, runs);
            return mapped.map_err(|_| ChainStatus::IoError);
        };
        let live_gen = self.fs.generations(op.ino).ok().map(|(_, unmap)| unmap);
        if !self.extcache.is_armed(op.ino) || live_gen != Some(snap_gen) {
            return Err(ChainStatus::Invalidated);
        }
        runs.clear();
        runs.push((slba, end - lb));
        Ok(())
    }

    /// Puts the `n` commands of the op's current device request on its
    /// thread's queue pair — the one submission path reads, journaled
    /// writes and flush barriers (application or writeback) all share.
    /// The request must fit the tenant's SQ slot budget and the queue
    /// pair as a whole, or the op parks until the next reap frees
    /// slots; `cmds` is only called (to make the commands from the op,
    /// over the stored bytes as they are at admission) once the request
    /// is admitted, so a parked op keeps its payload.
    fn submit_segments<I: Iterator<Item = NvmeOp>>(
        &mut self,
        id: usize,
        n: usize,
        cmds: impl FnOnce(&mut Op, &mut NvmeDevice) -> I,
    ) {
        let op = self.ops[id].as_ref().expect("op");
        let (tenant, t) = (op.tenant, op.tenant as usize);
        let qp = op.thread % self.transport.nr_queues();
        // Over a fabric, a pushdown chain's *first* device phase
        // crosses as a command capsule (hauling a write's payload)
        // whose completion stays target-side; recycled hops, the flush
        // chase and resubmissions are already there and never touch the
        // wire. Everything else is an ordinary host command (full round
        // trip per hop).
        let class = match (op.fab.pushdown, op.phys_target.is_some() || op.ios > 0) {
            (false, _) => SubmitClass::Host,
            (true, false) => SubmitClass::PushdownStart,
            (true, true) => SubmitClass::TargetLocal,
        };
        // A request that can never fit the SQ is an I/O error (a real
        // driver would split it; the workloads never get near this).
        if n > self.transport.device().queue_capacity() {
            return self.fail(id, ChainStatus::IoError, &[]);
        }
        // Tenant SQ budget: a tenant at its per-qp slot budget parks in
        // its own queue without consuming shared slots.
        if !self
            .admission
            .can_admit(qp, tenant, n, self.tenants[t].sq_slots)
        {
            self.run.tstats[t].sq_parks += 1;
            return self.admission.park(qp, tenant, id);
        }
        // Backpressure: the whole request must fit the queue pair.
        if !self.transport.can_accept(qp, n, tenant, class) {
            self.transport.record_rejection(n, tenant, class);
            return self.admission.park(qp, tenant, id);
        }
        // Extra bio/driver work for each split segment beyond the first.
        if n > 1 {
            self.charge(None, self.costs.split_segments(n as u64 - 1));
        }
        self.admission.admit(qp, tenant, n);
        let op = self.ops[id].as_mut().expect("op");
        op.segs_pending = n as u32;
        op.bufs.seg_data.clear();
        op.bufs.seg_data.resize_with(n, || None);
        op.submitted_at = self.now;
        op.ios += n as u32;
        let ts = &mut self.run.tstats[t];
        let (mut reads, mut payload) = (0, 0);
        for (seg, cmd) in cmds(op, self.transport.device_mut()).enumerate() {
            match &cmd {
                NvmeOp::Read { .. } => reads += 1,
                NvmeOp::Write { data, .. } => {
                    ts.dev_writes += 1;
                    payload += data.len() as u64;
                }
                NvmeOp::Flush => ts.dev_flushes += 1,
            }
            self.run.ios += 1;
            let cid = tag(id, seg);
            self.transport
                .submit(qp, NvmeCommand { cid, op: cmd }, class, tenant)
                .expect("capacity checked above");
        }
        ts.ios += n as u64;
        ts.dev_reads += reads;
        // Over a fabric the submitting side encodes one command capsule
        // per command (a write capsule hauls its payload; a read
        // command is header-only).
        if self.fabric && class != SubmitClass::TargetLocal {
            self.charge(None, self.costs.capsule_encode(n as u64, payload));
        }
        if !self.run.doorbell_armed[qp] {
            self.run.doorbell_armed[qp] = true;
            self.events.push(self.now, Ev::Doorbell { qp });
        }
    }

    /// First attempt of a write chain: the file system performs the
    /// metadata half (allocation, journal records, size) — once, however
    /// often the request parks — and the write joins the running
    /// transaction. Returns `false` when there is nothing to submit: an
    /// empty write completed (or became a pure fsync), or planning
    /// failed the chain.
    fn plan_write(&mut self, id: usize, fsync: bool) -> bool {
        let op = self.ops[id].as_mut().expect("op");
        let (ino, file_off, len) = (op.ino, op.file_off, op.len as usize);
        if len == 0 {
            if fsync {
                // A pure fsync wants everything logged so far durable,
                // not just its own (absent) records; it skips straight
                // to the flush barrier.
                op.wr.journal_end = Some(self.fs.journal_len());
                self.enter_flush_phase(id);
            } else {
                op.status = Some(ChainStatus::Written(0));
                self.deliver(id, &[]);
            }
            return false;
        }
        let store = self.transport.device_mut().store_mut();
        let runs = &mut self.spares.runs;
        let planned = self.fs.plan_write_into(ino, file_off, len, store, runs);
        // The plan's `Mapped` events are consumed now rather than piling
        // up until the next relocation.
        self.apply_fs_events();
        if planned.is_err() {
            self.fail(id, ChainStatus::IoError, &[]);
            return false;
        }
        let op = self.ops[id].as_mut().expect("op");
        // The plan just logged this write's journal records: any seal
        // at or past this point covers them.
        op.wr.journal_end = Some(self.fs.journal_len());
        true
    }

    /// The driver's doorbell MMIO write: the device batch-services the
    /// queue pair's SQ, and the live reaping mechanism (interrupt timer
    /// or poller) arms around the new completion instants. SQEs
    /// enqueued at the same instant share one ring (and one charge).
    fn on_doorbell(&mut self, qp: usize) {
        self.run.doorbell_armed[qp] = false;
        self.charge(None, self.costs.ring_doorbell());
        self.run.trace.doorbells += 1;
        // The MMIO write is issued inline by the submitting path; the
        // charge accounts its CPU time but does not gate the device —
        // service starts at the ring instant.
        let times = self
            .transport
            .ring_doorbell(self.now, qp)
            .expect("queue pair exists");
        if times.is_empty() {
            return;
        }
        self.reaper
            .note_doorbell(qp, self.transport.outstanding(qp));
        self.arm_reap(qp);
    }

    /// Arms whichever reaping mechanism is live on `qp`: the coalescing
    /// interrupt timer from the device's in-flight completion instants,
    /// or the next poller visit (pollers park on an idle queue pair;
    /// the next doorbell wakes them).
    fn arm_reap(&mut self, qp: usize) {
        match self.reaper.active(qp) {
            ReapKind::Interrupt => {
                let dev = self.transport.device_mut();
                if let Some(fire) = self.reaper.arm_irq(qp, |k| dev.due(qp, k)) {
                    self.events.push(fire, Ev::IrqFire { qp });
                }
            }
            ReapKind::Polled => {
                if self.transport.outstanding(qp) > 0 {
                    let at = self.now + POLL_INTERVAL_NS;
                    if let Some(at) = self.reaper.arm_poll(qp, at) {
                        self.events.push(at, Ev::Poll { qp });
                    }
                }
            }
        }
    }

    /// Reaps `qp` at the current instant on behalf of mechanism `via`:
    /// post ready CQEs, drain the completion ring, run the completion
    /// path of every finished request, re-issue ops parked on
    /// backpressure, and feed the adaptive-coalescing controller and
    /// the hybrid scheduler. Returns how many CQEs were drained.
    fn reap_qp(&mut self, qp: usize, via: ReapKind) -> usize {
        self.transport.post_ready(self.now, qp);
        // The batch is the transport's until its next reap; trade it
        // for the (empty) one worked through last time.
        let mut cqes = std::mem::take(&mut self.spares.cqes);
        std::mem::swap(&mut cqes, self.transport.reap(self.now, qp, usize::MAX));
        self.fair_order(qp, &mut cqes);
        let reaped = cqes.len();
        if via == ReapKind::Interrupt && reaped > 0 {
            // One interrupt entry is charged no matter how many CQEs it
            // reaps — the coalescing win. MSI-X affinity: it lands on
            // the queue pair's owning core (core `qp`), not on whichever
            // is idle.
            self.charge(Some(qp), self.costs.irq());
            self.run.trace.irqs += 1;
            self.reaper.charge_irq(self.costs.irq_entry);
        }
        for c in cqes.drain(..) {
            self.on_cqe(c);
        }
        self.spares.cqes = cqes;
        let residue = self.transport.outstanding(qp);
        if reaped > 0 {
            // Freed queue slots un-park stalled submissions. So do freed
            // capsule credits: on a contended fabric
            // (`FabricConfig::contended`) a submission refused by its
            // initiator's window may wait on a queue pair with nothing
            // in flight, which no reap of its own will ever drain.
            self.unpark(qp);
            for q in (0..self.transport.nr_queues()).filter(|&q| q != qp) {
                if self.transport.outstanding(q) == 0 && self.admission.has_parked(q) {
                    self.unpark(q);
                }
            }
        }
        self.reaper.note_reap(self.now, qp, reaped, residue, via);
        reaped
    }

    /// Re-issues every submission parked on `qp`, round-robin across
    /// tenants.
    fn unpark(&mut self, qp: usize) {
        for &id in self.admission.drain_round_robin(qp) {
            self.events.push(self.now, Ev::DevSubmit { op: id });
        }
    }

    /// Applies weighted deficit-round-robin across tenants to one reap
    /// batch, in place. Identity (FIFO) unless fair reaping is enabled
    /// and the batch holds more than one CQE; always a permutation of
    /// the input, so exactly-once delivery is policy-independent.
    fn fair_order(&mut self, qp: usize, cqes: &mut [NvmeCompletion]) {
        if !self.fair_reap || cqes.len() <= 1 {
            return;
        }
        let (ops, tenants) = (&self.ops, &self.tenants);
        let tenant_of = |c: &NvmeCompletion| {
            let op = ops[untag(c.cid).0]
                .as_ref()
                .expect("a CQE's tag names a live op");
            let t = op.tenant as usize;
            (t, tenants[t].weight)
        };
        // `order[i]` is the batch index served `i`-th. Walk each cycle
        // of the permutation, swapping the wanted CQE into place and
        // marking the slot settled (`order[i] == i`).
        let order = self
            .fair
            .order(qp, tenants.len(), cqes.iter().map(tenant_of));
        for i in 0..order.len() {
            let mut at = i;
            while order[at] != i {
                let from = order[at];
                cqes.swap(at, from);
                order[at] = at;
                at = from;
            }
            order[at] = at;
        }
    }

    /// The completion interrupt.
    fn on_irq_fire(&mut self, qp: usize) {
        if !self.reaper.irq_due(self.now, qp) {
            return; // stale timer — a newer arm (or a mode switch) superseded it
        }
        self.reap_qp(qp, ReapKind::Interrupt);
        self.arm_reap(qp);
    }

    /// One poller visit: pay the poll-loop cost on the owning core
    /// whether or not anything has posted (an empty visit is the
    /// polling tax), reap what has, and re-arm while the queue pair
    /// has commands in flight.
    fn on_poll(&mut self, qp: usize) {
        if !self.reaper.poll_due(self.now, qp) {
            return; // stale visit — the pair switched to interrupts
        }
        let end = self.charge(Some(qp), self.costs.poll_visit());
        self.run.trace.polls += 1;
        if self.reap_qp(qp, ReapKind::Polled) == 0 {
            self.transport.device_mut().record_empty_poll();
        }
        match self.reaper.active(qp) {
            ReapKind::Polled => {
                if self.transport.outstanding(qp) > 0 || self.admission.has_parked(qp) {
                    // Next visit no sooner than the loop body finishes
                    // on a contended core.
                    let at = end.max(self.now + POLL_INTERVAL_NS);
                    if let Some(at) = self.reaper.arm_poll(qp, at) {
                        self.events.push(at, Ev::Poll { qp });
                    }
                }
            }
            ReapKind::Interrupt => self.arm_reap(qp),
        }
    }

    /// One reaped CQE: fill the op's segment slot; when the last
    /// segment lands, assemble the buffer and run the completion path.
    fn on_cqe(&mut self, c: NvmeCompletion) {
        let (id, seg) = untag(c.cid);
        let op = self.ops[id].as_mut().expect("a CQE's tag names a live op");
        // Time on the wire (fabric only) is accounted apart from the
        // device bucket so Table 1's device row stays a device row.
        let wire = c.fabric_ns;
        let dev = c
            .complete_at
            .saturating_sub(op.submitted_at)
            .saturating_sub(wire);
        op.bufs.seg_data[seg] = Some(c.data);
        op.segs_pending -= 1;
        let qp = op.thread % self.transport.nr_queues();
        self.admission.complete(qp, op.tenant);
        let ts = &mut self.run.tstats[op.tenant as usize];
        ts.cqes += 1;
        ts.device_ns += dev;
        self.run.trace.fabric_wire += wire;
        // A shared barrier's flush time is re-split across the released
        // fsyncs' tenants at the barrier's completion.
        self.barrier.note_device_time(id, dev);
        let (host_capsule, last) = (self.fabric && !op.fab.pushdown, op.segs_pending == 0);
        if host_capsule {
            // Each host-class CQE arrived as a response capsule the
            // initiator must decode.
            self.charge(None, self.costs.capsule_decode());
        }
        if !last {
            return;
        }
        let op = self.ops[id].as_mut().expect("op");
        let mut segs = op.bufs.seg_data.iter_mut().map(Option::take);
        let mut data = segs.next().flatten().expect("all segments completed");
        for d in segs {
            let d = d.expect("all segments completed");
            data.extend_from_slice(&d);
            self.transport.device_mut().recycle(d);
        }
        op.data = data;
        self.on_device_done(id);
    }

    /// The op's device request finished: a write moves to its next
    /// phase; a read ends at the application or runs its hook.
    fn on_device_done(&mut self, id: usize) {
        let Some(op) = self.ops[id].as_ref() else {
            return;
        };
        match (op.kind, op.mode) {
            (OpKind::Read, DispatchMode::User | DispatchMode::Remote) => {
                self.deliver(id, &[]);
            }
            // Mid-chain invalidation: discard recycled I/O (§4). Over a
            // fabric the target detects it and returns an error capsule.
            (OpKind::Read, DispatchMode::DriverHook) if self.extcache.aborting(op.ino) => {
                self.fail(id, ChainStatus::Invalidated, &[])
            }
            (OpKind::Read, _) => self.run_hook(id),
            _ => self.on_write_device_done(id),
        }
    }

    /// A write chain's device phase finished: either chase the data
    /// CQEs with the fsync flush barrier (whose completion commits the
    /// journal), or unwind the completion path and deliver.
    fn on_write_device_done(&mut self, id: usize) {
        let op = self.ops[id].as_ref().expect("op");
        let (tenant, thread, hop) = (op.tenant, op.thread, op.hop);
        match op.kind {
            OpKind::WriteData { fsync: true } => {
                // §4 fairness, write-aware: the ordered flush chase is a
                // kernel-side dependent resubmission exactly like a read
                // hop recycle, so it meters against the same bound and
                // is charged to the same (tenant, thread) ledger. A write that hits the bound completes as
                // BoundExceeded with its journal transaction uncommitted
                // (crash-before-fsync durability).
                if hop + 1 >= self.resubmit_bound {
                    return self.fail(id, ChainStatus::BoundExceeded, &[]);
                }
                self.ops[id].as_mut().expect("op").hop += 1;
                self.note_resubmission(tenant, thread);
                // Ordered journal commit: the commit record + flush
                // barrier go to the device only after the data CQEs.
                // The journal_commit build and the flush itself are paid
                // once per seal, not per fsync.
                self.enter_flush_phase(id);
            }
            OpKind::WriteFlush => self.on_barrier_cqe(id),
            OpKind::WriteData { fsync: false } => {
                // Under writeback, an un-fsynced write (re-)arms the
                // background flush tick.
                if let Some((at, epoch)) = self.barrier.arm_writeback(self.now) {
                    self.events.push(at, Ev::WritebackTick { epoch });
                }
                self.complete_write(id, None);
            }
            OpKind::Read => unreachable!("read handled by on_device_done"),
        }
    }

    /// Flips a write chain to its flush phase, counts the fsync and
    /// hands it to the [`crate::CommitPolicy`]: it parks on an in-flight
    /// barrier whose sealed transaction already covers its records,
    /// joins the window awaiting the next seal, or seals now.
    fn enter_flush_phase(&mut self, id: usize) {
        let op = self.ops[id].as_mut().expect("op");
        op.kind = OpKind::WriteFlush;
        op.wr.fsync_from = self.now;
        let ts = &mut self.run.tstats[op.tenant as usize];
        ts.fsyncs += 1;
        let journal_end = op.wr.journal_end.expect("an fsync follows its plan");
        match self.barrier.request(id, journal_end, self.now) {
            Request::Join => ts.barrier_joins += 1,
            Request::Window => {}
            Request::SealNow => self.seal_and_issue(false),
            Request::ArmTimer { at, epoch } => self.events.push(at, Ev::CommitSeal { epoch }),
        }
    }

    /// Seals the running journal transaction and puts its single flush
    /// barrier on the rings — one commit-record build and driver
    /// submission for the whole transaction, which the grouped policies
    /// amortize over every fsync it carries. The first windowed fsync
    /// leads; a `background` seal (no fsync waiting) gets a synthetic
    /// kernel op instead, which rides the rings like any flush but is
    /// freed silently at the barrier's CQE — no delivery, no chain
    /// counted.
    fn seal_and_issue(&mut self, background: bool) {
        let sealed = self.fs.seal_journal();
        let internal = background.then(|| {
            let (st, token) = (FdState::kernel(0), self.next_token(DEFAULT_TENANT, 0));
            let (kind, mode) = (OpKind::WriteFlush, DispatchMode::User);
            self.alloc_op(Op::new(0, 0, st, kind, mode, Origin::Sync, token))
        });
        let leader = self.barrier.seal(sealed, self.now, internal);
        self.submit_after(leader, self.costs.commit_record());
    }

    /// The CQE of the barrier op `id` leads: its sealed transaction
    /// commits, every parked fsync releases at once, the flush's device
    /// time re-splits evenly across their tenants, and the next seal
    /// chains immediately if fsyncs queued up behind the barrier.
    fn on_barrier_cqe(&mut self, id: usize) {
        let rel = self.barrier.on_cqe(id, self.now);
        self.fs.commit_journal_sealed(rel.txn);
        self.run.commit_log.absorb(rel.stats);
        // Per-tenant §4-style accounting for the shared barrier: the
        // flush's device time was billed to the leader's tenant at its
        // CQE; re-split it across every released fsync's tenant (each
        // already paid its own resubmission charge when its chain
        // flipped to the flush chase).
        if !rel.ids.is_empty() && rel.flush_dev_ns > 0 {
            let tenant_of = |j: usize| self.ops[j].as_ref().expect("op").tenant as usize;
            let total = rel.flush_dev_ns;
            let share = total / rel.ids.len() as u64;
            let ts = &mut self.run.tstats;
            ts[tenant_of(id)].device_ns -= total;
            ts[tenant_of(rel.ids[0])].device_ns += total - share * rel.ids.len() as u64;
            for &j in &rel.ids {
                ts[tenant_of(j)].device_ns += share;
            }
        }
        if rel.background {
            self.run.commit_log.writeback_flushes += 1;
            self.free_op(id);
        }
        // One return capsule acks every target-resident fsync this
        // barrier releases: the first release sends it, the rest join.
        let mut ack = None;
        for &j in &rel.ids {
            self.record_fsync_latency(j);
            ack = self.complete_write(j, ack);
        }
        self.barrier.retire(rel.ids);
        // jbd2-style chaining: fsyncs that arrived too late for this
        // transaction seal the next one right away.
        if rel.seal_next {
            self.seal_and_issue(false);
        }
    }

    /// Records the fsync-issue-to-barrier-CQE latency.
    fn record_fsync_latency(&mut self, id: usize) {
        let op = self.ops[id].as_ref().expect("op");
        let lat = self.now.saturating_sub(op.wr.fsync_from);
        self.run.tstats[op.tenant as usize]
            .fsync_latency
            .record(lat);
    }

    /// The group-commit window timer: seal now, or defer to the
    /// in-flight barrier's CQE. Stale epochs never reach here — they
    /// are skipped at pop time.
    fn on_commit_seal(&mut self) {
        if self.barrier.on_seal_timer() {
            self.seal_and_issue(false);
        }
    }

    /// The background writeback timer: flush un-fsynced journal records
    /// with a background-sealed barrier. While a barrier is already in
    /// flight the tick re-arms and checks again next period; once the
    /// journal is clean it stays disarmed until the next un-fsynced
    /// write completes.
    fn on_writeback_tick(&mut self) {
        match self
            .barrier
            .on_writeback_tick(self.now, self.fs.journal_dirty())
        {
            Tick::Idle => {}
            Tick::Rearm { at, epoch } => self.events.push(at, Ev::WritebackTick { epoch }),
            Tick::Seal { background } => self.seal_and_issue(background),
        }
    }

    /// A write chain is durable as far as it asked to be: set its
    /// status and deliver. `shared_ack` is the arrival instant of the
    /// response capsule an earlier release of the same barrier already
    /// sent: a target-resident fsync rides that capsule
    /// ([`FabricState::capsule_joined`]) instead of sending its own.
    /// Returns the capsule later releases may ride.
    fn complete_write(&mut self, id: usize, shared_ack: Option<Nanos>) -> Option<Nanos> {
        let resident = self.target_resident(id);
        let op = self.ops[id].as_mut().expect("op");
        op.status = Some(ChainStatus::Written(op.len));
        match shared_ack {
            Some(arrive) if resident => {
                op.fab.capsule_joined = true;
                self.events.push(arrive, Ev::CapsuleRx { op: id });
                shared_ack
            }
            _ => self.deliver(id, &[]).or(shared_ack),
        }
    }

    /// Runs the descriptor's program over the completed block. Returns the
    /// offset to resubmit when the chain continues (`None`: the op's
    /// status is set and the chain is terminal) and the instructions
    /// retired.
    ///
    /// Execution runs under the owning tenant's *remaining* instruction
    /// budget (its `insn_budget` minus instructions retired by the
    /// chain's earlier hops) — the runtime backstop behind the
    /// verification-time check — and on the engine the machine was
    /// configured with.
    fn run_hook_program(&mut self, id: usize) -> (Option<u64>, u64) {
        let op = self.ops[id].as_mut().expect("op exists");
        // The remaining budget follows the tenant's *current* limits,
        // so tightening them mid-stream binds running chains.
        let budget = self.tenants[op.tenant as usize]
            .insn_budget
            .map(|b| b.saturating_sub(op.insns_used))
            .unwrap_or(DEFAULT_INSN_BUDGET);
        let install = self.fds.get_mut(&op.fd).and_then(|d| d.prog.as_mut());
        match install {
            None => {
                op.status = Some(ChainStatus::VmError("no program attached".to_string()));
                (None, 0)
            }
            Some(install) => {
                let mut env = HookEnv {
                    resubmit_to: None,
                    resubmit_calls: 0,
                    emitted: &mut op.bufs.emitted,
                };
                let ctx = RunCtx {
                    data: &op.data,
                    file_off: op.file_off,
                    hop: op.hop,
                    flags: install.flags,
                    scratch: &mut op.bufs.scratch,
                };
                let t0 = self.exec_clock.as_ref().map(ExecClock::now);
                let result = match &install.compiled {
                    Some(cp) => cp.run_budgeted(budget, ctx, &mut install.maps, &mut env),
                    None => {
                        Vm::with_budget(budget).run(&install.prog, ctx, &mut install.maps, &mut env)
                    }
                };
                let elapsed = match (t0, &self.exec_clock) {
                    (Some(t0), Some(clock)) => clock.now().saturating_sub(t0),
                    _ => 0,
                };
                let exec = &mut self.run.tstats[op.tenant as usize].exec;
                if install.compiled.is_some() {
                    exec.compiled_hops += 1;
                    exec.compiled_ns += elapsed;
                } else {
                    exec.interp_hops += 1;
                    exec.interp_ns += elapsed;
                }
                let (target, calls) = (env.resubmit_to, env.resubmit_calls);
                let vm_error = |msg: &str| Some(ChainStatus::VmError(msg.to_string()));
                match result {
                    Err(trap) => {
                        op.status = Some(ChainStatus::VmError(trap.to_string()));
                        (None, 0)
                    }
                    Ok(out) => {
                        op.insns_used += out.insns;
                        op.status = match out.ret {
                            action::ACT_RESUBMIT if calls == 1 && target.is_some() => None,
                            action::ACT_RESUBMIT => {
                                vm_error("ACT_RESUBMIT without exactly one resubmit call")
                            }
                            action::ACT_EMIT if calls > 0 => {
                                vm_error("resubmit called but action is EMIT")
                            }
                            // A terminal status takes the buffer it
                            // reports; `on_delivered` puts it back.
                            action::ACT_EMIT => {
                                Some(ChainStatus::Emitted(std::mem::take(&mut op.bufs.emitted)))
                            }
                            action::ACT_PASS => {
                                Some(ChainStatus::Pass(std::mem::take(&mut op.data)))
                            }
                            action::ACT_HALT => Some(ChainStatus::Halted),
                            other => vm_error(&format!("unknown action {other}")),
                        };
                        (target.filter(|_| op.status.is_none()), out.insns)
                    }
                }
            }
        }
    }

    /// A read completed under a hook mode: run the program, then either
    /// end the chain or reissue its next hop. At the driver hook
    /// ([`DispatchMode::DriverHook`]) the hop recycles the descriptor
    /// after translating through the extent soft-state cache; at the
    /// syscall hook the completion first climbs driver → bio → fs, and
    /// the reissue pays the full submission path minus the boundary
    /// crossing.
    fn run_hook(&mut self, id: usize) {
        let (next, insns) = self.run_hook_program(id);
        let c = self.costs;
        let ran @ (_, bpf_ns) = c.hook_run(insns);
        let op = self.ops[id].as_ref().expect("op");
        let (tenant, thread, ino) = (op.tenant, op.thread, op.ino);
        self.run.tstats[tenant as usize].bpf_ns += bpf_ns;
        let Some(target) = next else {
            // Terminal: the completion unwinds the full stack once
            // (over a fabric, after the response capsule lands).
            self.deliver(id, &[ran]);
            return;
        };
        // §4 fairness: bound each chain's resubmissions.
        let op = self.ops[id].as_mut().expect("op");
        if op.hop + 1 >= self.resubmit_bound {
            return self.fail(id, ChainStatus::BoundExceeded, &[ran]);
        }
        if op.mode == DispatchMode::SyscallHook {
            op.file_off = target;
            op.hop += 1;
            return self.submit_after(id, c.syscall_hook_hop(insns));
        }
        let nblocks = (op.len as u64).div_ceil(SECTOR_SIZE as u64).max(1);
        // The lookup runs on the core whatever it returns: a hop that
        // cannot recycle still pays it, at the head of its unwind.
        let no_recycle = [ran, c.extent_lookup()];
        match self.extcache.lookup(ino, target / SECTOR_SIZE as u64) {
            Some((phys, run)) if run >= nblocks => {
                // Carry the snapshot's physical target (and the
                // generation it was taken at) to the recycled
                // submission — the NVMe layer must never heal a stale
                // snapshot through live fs metadata.
                let snap_gen = self.extcache.generation(ino).unwrap_or(0);
                op.file_off = target;
                op.phys_target = Some((phys, snap_gen));
                op.hop += 1;
                self.note_resubmission(tenant, thread);
                self.submit_after(id, c.driver_hook_recycle(insns));
            }
            Some(_) => {
                // Crosses a physical extent boundary: BIO-path
                // fallback; the buffer goes back to the app.
                op.file_off = target;
                let data = std::mem::take(&mut op.data);
                let status = ChainStatus::SplitFallback {
                    file_off: target,
                    data,
                };
                self.fail(id, status, &no_recycle);
            }
            None => self.fail(id, ChainStatus::ExtentMiss, &no_recycle),
        }
    }

    fn on_delivered(&mut self, id: usize, driver: &mut dyn ChainDriver) {
        let op = self.ops[id].as_mut().expect("op exists");
        let (thread, origin, tenant) = (op.thread, op.origin, op.tenant as usize);
        // User-mode (and remote-initiator) chains may continue from the
        // application; over a fabric every such hop pays a round trip.
        if matches!(op.mode, DispatchMode::User | DispatchMode::Remote) && op.status.is_none() {
            match driver.user_step(thread, &op.token, &op.data) {
                UserNext::Continue(next_off) => {
                    op.file_off = next_off;
                    op.hop += 1;
                    match origin {
                        Origin::Sync => self.submit_after(id, self.costs.sync_issue(false)),
                        // Queue the continuation for the next enter.
                        Origin::Uring => self.uring_cqe_arrived(thread, PendingSub::Continue(id)),
                    }
                    return;
                }
                UserNext::Done => op.status = Some(ChainStatus::Pass(std::mem::take(&mut op.data))),
            }
        }
        // Chain is terminal.
        let status = op.status.take().unwrap_or(ChainStatus::IoError);
        let is_read = op.kind == OpKind::Read;
        let outcome = ChainOutcome {
            thread,
            token: op.token,
            status,
            ios: op.ios,
            attempts: op.attempts,
            latency: self.now.saturating_sub(op.token.issued),
        };
        let verdict = driver.chain_done(thread, &outcome);
        // The retry protocol only applies to failures a re-arm repairs;
        // a RearmRetry verdict for any other status is treated as Done
        // (otherwise a driver retrying successes would loop forever).
        // restart_chain itself declines when the re-arm ioctl fails —
        // retrying against a dead snapshot would burn the budget on a
        // permanent error — in which case the chain completes normally
        // with its failure status.
        if verdict == ChainVerdict::RearmRetry
            && outcome.status.is_rearmable()
            && self.restart_chain(id)
        {
            return;
        }
        self.count_chain(tenant, &outcome, is_read);
        // The driver is done with the outcome: the buffer its status
        // took returns to the op, and with the op to the pools.
        let op = self.ops[id].as_mut().expect("op exists");
        match outcome.status {
            ChainStatus::Emitted(buf) => op.bufs.emitted = buf,
            ChainStatus::Pass(buf) | ChainStatus::SplitFallback { data: buf, .. } => op.data = buf,
            _ => {}
        }
        self.free_op(id);
        match origin {
            Origin::Sync => self.events.push(self.now, Ev::AppStart { thread }),
            Origin::Uring => self.uring_cqe_arrived(thread, PendingSub::NewChain),
        }
    }

    /// The [`ChainVerdict::RearmRetry`] path: rerun the install ioctl's
    /// extent snapshot for the chain's descriptor and restart the
    /// request from its first read with `attempts + 1`. The failed
    /// attempt is absorbed (not counted as a completed chain). Returns
    /// `false` without restarting when the re-arm itself fails (file
    /// gone, program detached) — a permanent error retrying cannot fix.
    fn restart_chain(&mut self, id: usize) -> bool {
        // The rearm ioctl itself: boundary crossings, syscall dispatch,
        // and the file system's extent walk.
        self.charge(None, self.costs.rearm_ioctl());
        let op = self.ops[id].as_ref().expect("op exists");
        let (thread, origin, mode) = (op.thread, op.origin, op.mode);
        let retry = RetrySpec {
            start: ChainStart {
                fd: op.fd,
                file_off: op.first_off,
                len: op.len,
                arg: op.token.arg,
            },
            attempts: op.attempts + 1,
        };
        if self.rearm(retry.start.fd).is_err() {
            return false;
        }
        self.free_op(id);
        self.run.rearm_retries += 1;
        match origin {
            Origin::Sync => {
                let spec = ChainSpec::Read(retry.start);
                self.start_chain(thread, spec, mode, Origin::Sync, retry.attempts);
            }
            Origin::Uring => self.uring_cqe_arrived(thread, PendingSub::Retry(retry)),
        }
        true
    }

    /// One of the thread's SQEs completed; `next` is what takes its
    /// slot at the next `io_uring_enter`.
    fn uring_cqe_arrived(&mut self, thread: usize, next: PendingSub) {
        let ur = self.threads[thread].uring.as_mut().expect("uring thread");
        ur.queue.push(next);
        ur.pending -= 1;
        if ur.pending == 0 {
            // The blocked io_uring_enter wakes: charge the exit crossing.
            let end = self.charge(None, self.costs.uring_wake());
            self.events.push(end, Ev::AppStart { thread });
        }
    }

    fn uring_enter(&mut self, thread: usize, driver: &mut dyn ChainDriver) {
        // Past the deadline, no *new* chains start, but queued
        // continuations and rearm-retries of in-flight logical requests
        // still submit (matching the sync path, which also finishes
        // in-flight work past the deadline).
        let past_deadline = self.now >= self.run.until;
        let ur = self.threads[thread].uring.as_mut().expect("uring");
        if past_deadline {
            ur.queue.retain(|s| !matches!(s, PendingSub::NewChain));
        } else if ur.queue.is_empty() {
            // First enter of the run: fill the queue with fresh chains.
            ur.queue.extend((0..ur.batch).map(|_| PendingSub::NewChain));
        }
        // Drained and handed back: the batch's completions refill it.
        let mut queue = std::mem::take(&mut ur.queue);
        let mode = driver.mode();
        let mut submitted = std::mem::take(&mut self.spares.submitted);
        let mut n_writes: u64 = 0;
        for sub in queue.drain(..) {
            let started = match sub {
                // The slot takes the driver's next operation that names
                // an open descriptor; the ones before it fail here.
                PendingSub::NewChain => loop {
                    // Each SQE in a batch gets its own stream: salt the
                    // fork with a monotone sequence number, not the
                    // (batch-constant) completed-chain counter.
                    let stream = self.run.rng_streams;
                    self.run.rng_streams += 1;
                    let mut rng = self.rng.fork(thread as u64 * 6151 + stream);
                    let Some(spec) = driver.next_op(thread, &mut rng) else {
                        break None;
                    };
                    let (arg, is_write) = arg_and_class(&spec);
                    match self.start_chain(thread, spec, mode, Origin::Uring, 0) {
                        Some(id) => {
                            n_writes += u64::from(is_write);
                            break Some(id);
                        }
                        None => self.fail_unopened(thread, arg, is_write, driver),
                    }
                },
                PendingSub::Continue(id) => Some(id),
                PendingSub::Retry(retry) => {
                    let spec = ChainSpec::Read(retry.start);
                    self.start_chain(thread, spec, mode, Origin::Uring, retry.attempts)
                }
            };
            submitted.extend(started);
        }
        let ur = self.threads[thread].uring.as_mut().expect("uring");
        ur.queue = queue;
        ur.pending = submitted.len() as u32;
        if submitted.is_empty() {
            self.threads[thread].stopped = true;
        } else {
            // One crossing for the whole batch; per-SQE kernel work covers
            // the uring + fs + bio + driver submission of each request.
            let n = submitted.len() as u64;
            let burst = self.costs.uring_enter(n - n_writes, n_writes);
            let end = self.charge(None, burst);
            for id in submitted.drain(..) {
                self.events.push(end, Ev::DevSubmit { op: id });
            }
        }
        self.spares.submitted = submitted;
    }

    fn on_relocate(&mut self, idx: usize) {
        let store = self.transport.device_mut().store_mut();
        if let Ok(ino) = self.fs.open(&self.relocations[idx]) {
            let _ = self.fs.relocate(ino, store);
        }
        // The §4 invalidation hook: unmap events kill the NVMe-layer
        // snapshot and doom in-flight recycled I/Os on that inode.
        self.apply_fs_events();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report that breaks a law never leaves `finish_run`, in any
    /// build (`--release` runs the half debug builds cannot show): an
    /// I/O counted that no device serviced and no tenant reaped.
    #[test]
    #[should_panic(expected = "DeviceCqes")]
    fn finish_run_refuses_a_broken_law() {
        let mut m = Machine::new(MachineConfig::default());
        m.begin_run(bpfstor_sim::SECOND);
        m.run.ios = 1;
        m.finish_run();
    }
}
