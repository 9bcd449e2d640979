//! The workload-generic pushdown facade — the paper's §4 "library that
//! provides a higher-level interface than BPF", generalised beyond the
//! B-tree.
//!
//! A [`PushdownWorkload`] describes one offloadable data structure:
//! how to build its on-disk image, which verified BPF program traverses
//! it, how a request turns into a first read, how the native (user-path)
//! traversal steps, and how a terminal [`ChainStatus`] decodes into a
//! typed output. [`Btree`](crate::workloads::Btree),
//! [`Sst`](crate::workloads::Sst), [`Scan`](crate::workloads::Scan) and
//! [`Chase`](crate::workloads::Chase) are the four in-tree
//! implementations.
//!
//! A [`PushdownSession`] owns a simulated machine, the workload's file,
//! and (for hook modes) the installed program's [`ProgHandle`]. It
//! offers the same surface for every workload — [`lookup`],
//! [`run_closed_loop`], [`run_uring`] — and handles the §4 failure
//! protocol automatically: a chain that ends in
//! [`ChainStatus::ExtentMiss`] or [`ChainStatus::Invalidated`] is
//! re-armed (the install ioctl reruns) and retried up to a configurable
//! budget, without the caller ever seeing the failure.
//!
//! Both live in [`Member`], the `ChainDriver` adapter between a workload
//! and the kernel, and [`Member::attach`] is the only code that attaches
//! one: open for a tenant, install when the dispatch mode runs a
//! program, wrap. A session and a [`TenantGroup`](crate::TenantGroup)
//! create their file and call it; code with a machine and a file of its
//! own (a table an `LsmTree` flushed) calls it directly and runs the
//! member itself.
//!
//! [`lookup`]: PushdownSession::lookup
//! [`run_closed_loop`]: PushdownSession::run_closed_loop
//! [`run_uring`]: PushdownSession::run_uring

use bpfstor_kernel::{
    ChainDriver, ChainOutcome, ChainSpec, ChainStart, ChainStatus, ChainToken, ChainVerdict,
    CommitPolicy, ConfigError, DispatchMode, ExecEngine, FabricConfig, Fd, KernelError, Machine,
    MachineConfig, Mutation, ProgHandle, ReapMode, RunReport, TenantId, TransportConfig, UserNext,
    WriteStart, DEFAULT_TENANT,
};
use bpfstor_sim::{Nanos, SimRng, SECOND};
use bpfstor_vm::Program;

/// Errors surfaced by session construction and lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Kernel control-plane failure (open/install/rearm/verifier).
    Kernel(KernelError),
    /// Workload image construction failed.
    Build(String),
    /// A terminal status could not be decoded into an output.
    Decode(String),
    /// A chain ended in a non-OK status (after exhausting any retry
    /// budget).
    Chain(ChainStatus),
    /// A decoded output contradicted the workload's expectation.
    Mismatch(String),
    /// The machine's configuration or a tenant's limits broke a rule
    /// ([`MachineConfig::check`]).
    Config(ConfigError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Kernel(e) => write!(f, "kernel: {e}"),
            SessionError::Build(e) => write!(f, "workload build: {e}"),
            SessionError::Decode(e) => write!(f, "decode: {e}"),
            SessionError::Chain(s) => write!(f, "chain failed: {s:?}"),
            SessionError::Mismatch(e) => write!(f, "mismatch: {e}"),
            SessionError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<KernelError> for SessionError {
    fn from(e: KernelError) -> Self {
        SessionError::Kernel(e)
    }
}

/// The first read of a chain, as described by a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadSpec {
    /// Byte offset of the read.
    pub file_off: u64,
    /// Read length in bytes.
    pub len: u32,
    /// Per-chain argument handed to the BPF program (and echoed in the
    /// chain's [`ChainToken`]).
    pub arg: u64,
}

/// A journaled write issued by a workload: the payload goes through the
/// kernel's SQ/CQ rings as real `Write` commands, contending with reads
/// for queue slots; `fsync` chases the data with an ordered flush
/// barrier that commits the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSpec<'a> {
    /// Byte offset of the write.
    pub file_off: u64,
    /// The payload, lent by the workload: the kernel copies it as the
    /// chain starts, so the workload may overwrite it for its next write.
    pub data: &'a [u8],
    /// Commit the journal with a flush barrier after the data CQEs.
    pub fsync: bool,
    /// Per-chain argument, echoed in the chain's [`ChainToken`].
    pub arg: u64,
}

/// A request's opening operation, as described by a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpSpec<'a> {
    /// A (possibly multi-hop) read chain.
    Read(ReadSpec),
    /// A journaled write through the rings.
    Write(WriteSpec<'a>),
}

/// A workload's judgement of one decoded output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Output matches the expectation.
    Ok,
    /// Output contradicts the expectation (counted in
    /// [`SessionStats::mismatches`]).
    Mismatch,
    /// The workload does not check this request.
    Unchecked,
}

/// One offloadable data structure, as the session sees it.
///
/// Implementations keep per-chain user-path state keyed by
/// [`ChainToken::id`] — never by the lookup key — so concurrent chains
/// for the same key cannot collide.
pub trait PushdownWorkload {
    /// The per-request argument (e.g. a lookup key or scan threshold).
    type Request: Clone + std::fmt::Debug;
    /// The decoded result of one chain.
    type Output: Clone + PartialEq + std::fmt::Debug;

    /// Short name; also the default file name stem.
    fn name(&self) -> &str;

    /// Builds the on-disk image. Called once at session build; the
    /// workload records its own layout (root/footer offsets) here.
    ///
    /// # Errors
    ///
    /// Image construction failures (invalid shape parameters etc.).
    fn build_image(&mut self) -> Result<Vec<u8>, SessionError>;

    /// The verified traversal program installed for hook modes.
    fn program(&self) -> Program;

    /// Install-time flags (e.g. the scan's block budget).
    fn install_flags(&self) -> u32 {
        0
    }

    /// Translates a request into the chain's first read.
    fn first_read(&mut self, req: &Self::Request) -> ReadSpec;

    /// Translates a request into its opening operation. Read-only
    /// workloads keep the default (delegate to
    /// [`PushdownWorkload::first_read`]); mixed read/write workloads
    /// override this to route update/insert requests through the
    /// journaled write path. A write's payload may borrow the workload
    /// itself: it is copied before the next call.
    fn first_op(&mut self, req: &Self::Request) -> OpSpec<'_> {
        OpSpec::Read(self.first_read(req))
    }

    /// The next request of a closed-loop run, or `None` to stop the
    /// issuing thread. Drives [`PushdownSession::run_closed_loop`] /
    /// [`PushdownSession::run_uring`]; one-shot
    /// [`PushdownSession::lookup`]s bypass it.
    fn next_request(&mut self, rng: &mut SimRng) -> Option<Self::Request>;

    /// One native (user-path) step over a completed block. Per-chain
    /// state must be keyed by `token.id`.
    fn user_step(&mut self, token: &ChainToken, data: &[u8]) -> UserNext;

    /// Decodes a successful terminal status (`status.is_ok()` holds)
    /// into an output; `None` means a miss. Must release any state keyed
    /// by `token.id`.
    ///
    /// # Errors
    ///
    /// Malformed result buffers.
    fn decode(
        &mut self,
        token: &ChainToken,
        status: &ChainStatus,
    ) -> Result<Option<Self::Output>, SessionError>;

    /// Checks a decoded output against the workload's expectation.
    fn check(&self, _token: &ChainToken, _out: Option<&Self::Output>) -> Verdict {
        Verdict::Unchecked
    }

    /// Releases any per-chain state for a chain that terminated without
    /// reaching [`PushdownWorkload::decode`] — a failed status, or an
    /// attempt absorbed by the retry policy. Default: nothing to
    /// release.
    fn release(&mut self, _token: &ChainToken) {}
}

/// Counters a session accumulates across runs (also the correctness
/// verdict: `mismatches` must stay zero for checked workloads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Chains that reached a terminal, non-retried outcome.
    pub completed: u64,
    /// Write chains completed (payload delivered through the rings).
    pub writes: u64,
    /// Payload bytes written across completed write chains.
    pub bytes_written: u64,
    /// Chains whose decoded output was a hit.
    pub hits: u64,
    /// Chains whose decoded output was a miss.
    pub misses: u64,
    /// Checked outputs that contradicted the expectation.
    pub mismatches: u64,
    /// Chains that ended in an error status (after retries).
    pub errors: u64,
    /// Device I/Os across completed chains.
    pub total_ios: u64,
    /// Automatic rearm-and-retry restarts consumed by the session.
    pub rearm_retries: u64,
    /// Chains whose retry budget ran out while still failing.
    pub retries_exhausted: u64,
}

impl SessionStats {
    fn absorb(&mut self, other: &SessionStats) {
        self.completed += other.completed;
        self.writes += other.writes;
        self.bytes_written += other.bytes_written;
        self.hits += other.hits;
        self.misses += other.misses;
        self.mismatches += other.mismatches;
        self.errors += other.errors;
        self.total_ios += other.total_ios;
        self.rearm_retries += other.rearm_retries;
        self.retries_exhausted += other.retries_exhausted;
    }
}

/// Builder for a [`PushdownSession`], created via
/// [`PushdownSession::builder`], and — holding [`crate::GroupOptions`] where a
/// session holds its workload — for a [`crate::TenantGroup`]
/// ([`crate::TenantGroupBuilder`]): the machine's setters are written
/// once, and both builds check the configuration they set
/// ([`MachineConfig::check`]).
#[derive(Debug, Clone)]
pub struct SessionBuilder<W> {
    pub(crate) workload: W,
    pub(crate) mode: DispatchMode,
    pub(crate) config: MachineConfig,
    pub(crate) retry_budget: u32,
}

impl<W> SessionBuilder<W> {
    /// A builder around `workload` with the paper-testbed machine and
    /// driver-hook dispatch.
    pub(crate) fn new(workload: W) -> Self {
        SessionBuilder {
            workload,
            mode: DispatchMode::DriverHook,
            config: MachineConfig::default(),
            retry_budget: 2,
        }
    }

    /// Sets the dispatch mode (default: [`DispatchMode::DriverHook`]).
    pub fn dispatch(mut self, mode: DispatchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the machine configuration.
    pub fn machine_config(mut self, config: MachineConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Selects the hook execution engine: the compiled tier (the
    /// default) or the interpreter it is checked against, for a test or
    /// benchmark that wants the oracle. Observable behaviour and
    /// simulated costs are identical; only real host CPU per hop differs
    /// ([`RunReport::exec`]).
    pub fn engine(mut self, engine: ExecEngine) -> Self {
        self.config.exec_engine = engine;
        self
    }

    /// Overrides the NVMe submission/completion ring depth per queue
    /// pair (usable capacity is `depth - 1`). Shallow rings turn
    /// submission overload into EBUSY-style backpressure: requests park
    /// and retry after the next completion interrupt. Any depth costs
    /// host memory only for the entries actually queued.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.profile.queue_depth = depth;
        self
    }

    /// Configures interrupt coalescing: the completion interrupt fires
    /// once `depth` CQEs are pending, or `us` microseconds after the
    /// first, whichever comes first. `(0, 1)` — the default — fires on
    /// every completion. These knobs drive [`ReapMode::Interrupt`]
    /// only; the other modes run at the reaper's constants (see
    /// [`SessionBuilder::reap_mode`]).
    pub fn irq_coalescing(mut self, us: u64, depth: u32) -> Self {
        self.config.irq_coalesce_us = us;
        self.config.irq_coalesce_depth = depth;
        self
    }

    /// Sets the completion-delivery policy (default:
    /// [`ReapMode::Interrupt`], driven by the
    /// [`SessionBuilder::irq_coalescing`] knobs): adaptive interrupt
    /// coalescing, dedicated per-core pollers, or the load-adaptive
    /// hybrid scheduler that switches each queue pair between the two.
    pub fn reap_mode(mut self, mode: ReapMode) -> Self {
        self.config.reap_mode = mode;
        self
    }

    /// Sets the journal commit policy (default:
    /// [`CommitPolicy::PerFsync`], one flush barrier per fsync):
    /// jbd2-style group commit shares one barrier across concurrent
    /// fsyncs, and writeback adds a background flush timer for
    /// un-fsynced data. In a tenant group, fsyncs from different
    /// tenants share one barrier under a grouped policy, its device time
    /// split across the joined tenants in the report. See
    /// [`bpfstor_kernel::commit`].
    pub fn commit_policy(mut self, policy: CommitPolicy) -> Self {
        self.config.commit_policy = policy;
        self
    }

    /// Sets the ring→device transport (default:
    /// [`TransportConfig::Local`], the paper's PCIe testbed).
    pub fn transport(mut self, transport: TransportConfig) -> Self {
        self.config.transport = transport;
        self
    }

    /// Shorthand for an NVMe-oF fabric transport: the workload's device
    /// sits behind a modelled network — a tenant group's tenants become
    /// initiators on the same target (tenant ids double as initiator
    /// ids, for per-initiator credit windows, weighted admission and
    /// [`RunReport::fabric_initiators`]). Combine with
    /// [`DispatchMode::Remote`] for the no-pushdown baseline (every
    /// dependent hop pays a round trip) or [`DispatchMode::DriverHook`]
    /// for pushdown-over-fabric (the chain runs target-side and returns
    /// one capsule).
    pub fn fabric(self, config: FabricConfig) -> Self {
        self.transport(TransportConfig::Fabric(config))
    }

    /// Sets how many times a chain that fails with
    /// [`ChainStatus::ExtentMiss`] / [`ChainStatus::Invalidated`] is
    /// automatically re-armed and retried (default: 2; 0 disables).
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }
}

impl<W: PushdownWorkload> SessionBuilder<W> {
    /// Builds the machine and the workload's file (`<workload>.img`),
    /// and attaches the workload to it ([`Member::attach`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::Config`] for a configuration
    /// [`MachineConfig::check`] refuses, workload image failures and
    /// kernel/verifier rejections.
    pub fn build(mut self) -> Result<PushdownSession<W>, SessionError> {
        self.config.check().map_err(SessionError::Config)?;
        let image = self.workload.build_image()?;
        let file_name = format!("{}.img", self.workload.name());
        let mut machine = Machine::new(self.config);
        machine.create_file(&file_name, &image)?;
        let member = Member::attach(
            &mut machine,
            DEFAULT_TENANT,
            &file_name,
            self.workload,
            self.mode,
            self.retry_budget,
        )?;
        Ok(PushdownSession {
            machine,
            member,
            file_name,
            stats: SessionStats::default(),
        })
    }
}

/// One checked lookup's result (see [`PushdownSession::lookup`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupOutcome<O> {
    /// Whether the request found a value.
    pub found: bool,
    /// The decoded output, when found.
    pub output: Option<O>,
    /// Device I/Os of the final (successful) attempt.
    pub ios: u32,
    /// End-to-end latency of the final attempt.
    pub latency: Nanos,
    /// Rearm-retries this lookup consumed.
    pub attempts: u32,
}

/// A simulated machine plus one workload's file and program, with a
/// uniform lookup/benchmark surface across all dispatch modes.
pub struct PushdownSession<W: PushdownWorkload> {
    machine: Machine,
    member: Member<W>,
    file_name: String,
    stats: SessionStats,
}

impl<W: PushdownWorkload> PushdownSession<W> {
    /// Starts building a session around `workload` with the
    /// paper-testbed machine and driver-hook dispatch.
    pub fn builder(workload: W) -> SessionBuilder<W> {
        SessionBuilder::new(workload)
    }

    /// The dispatch mode this session was built for.
    pub fn mode(&self) -> DispatchMode {
        self.member.mode
    }

    /// The tagged descriptor of the workload's file.
    pub fn fd(&self) -> Fd {
        self.member.fd
    }

    /// The installed program's handle (`None` in
    /// [`DispatchMode::User`]).
    pub fn handle(&self) -> Option<ProgHandle> {
        self.member.handle
    }

    /// The workload's on-disk file name.
    pub fn file_name(&self) -> &str {
        &self.file_name
    }

    /// Cumulative statistics across all runs of this session.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The workload (e.g. to read recorded results).
    pub fn workload(&self) -> &W {
        &self.member.workload
    }

    /// The simulated machine (for advanced use: scheduling mutations,
    /// reading map values, extent-cache stats).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Schedules a defragmenter-style relocation of the workload's file
    /// at simulated time `at` in the next run — the §4 invalidation
    /// trigger the session's retry policy recovers from.
    pub fn schedule_relocation(&mut self, at: Nanos) {
        let name = self.file_name.clone();
        self.machine
            .schedule_mutation(at, Mutation::Relocate { name });
    }

    /// Manually re-arms the extent snapshot (the automatic policy does
    /// this on demand).
    ///
    /// # Errors
    ///
    /// Propagates kernel failures.
    pub fn rearm(&mut self) -> Result<(), KernelError> {
        self.machine.rearm(self.member.fd)
    }

    /// Writes `data` at `off` in the workload's file as a synchronous
    /// journaled write through the SQ/CQ rings (advancing simulated
    /// time); with `fsync` the journal commits behind an ordered flush
    /// barrier. Returns `(latency, device commands)` of the chain.
    ///
    /// # Errors
    ///
    /// Kernel failures surface as [`SessionError::Kernel`].
    pub fn write(
        &mut self,
        off: u64,
        data: &[u8],
        fsync: bool,
    ) -> Result<(Nanos, u32), SessionError> {
        let ino = self
            .machine
            .ino_of(self.member.fd)
            .ok_or(SessionError::Kernel(KernelError::BadFd(self.member.fd)))?;
        let outcome = self.machine.write_file(ino, off, data, fsync)?;
        self.stats.completed += 1;
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        self.stats.total_ios += outcome.ios as u64;
        Ok((outcome.latency, outcome.ios))
    }

    /// Commits the journal with a pure fsync (flush barrier, no data).
    ///
    /// # Errors
    ///
    /// Kernel failures surface as [`SessionError::Kernel`].
    pub fn fsync(&mut self) -> Result<(Nanos, u32), SessionError> {
        self.write(0, &[], true)
    }

    /// Performs one request end to end and decodes its output, retrying
    /// through extent invalidations up to the retry budget.
    ///
    /// # Errors
    ///
    /// [`SessionError::Chain`] if the final status is not OK,
    /// [`SessionError::Mismatch`] if the workload's check fails, plus
    /// decode failures.
    pub fn lookup(&mut self, req: W::Request) -> Result<LookupOutcome<W::Output>, SessionError> {
        self.member.one_shot = Some(Box::new(OneShot {
            request: Some(req),
            last: None,
        }));
        let _ = self.run(|machine, member| machine.run_closed_loop(1, SECOND, member));
        let shot = self.member.one_shot.take().expect("set above");
        let Some(last) = shot.last else {
            return Err(SessionError::Chain(ChainStatus::IoError));
        };
        let output = last.output?;
        if !last.status.is_ok() {
            return Err(SessionError::Chain(last.status));
        }
        if last.mismatch {
            return Err(SessionError::Mismatch(format!(
                "request {:?} returned {:?}",
                last.token.arg, output
            )));
        }
        Ok(LookupOutcome {
            found: output.is_some(),
            output,
            ios: last.ios,
            latency: last.latency,
            attempts: last.attempts,
        })
    }

    /// Runs a closed-loop benchmark: `threads` application threads each
    /// keep one chain in flight, drawing requests from the workload,
    /// until simulated time `until`. Returns the kernel's report and
    /// this run's statistics.
    pub fn run_closed_loop(&mut self, threads: usize, until: Nanos) -> (RunReport, SessionStats) {
        self.run(|machine, member| machine.run_closed_loop(threads, until, member))
    }

    /// Runs the io_uring variant: each thread keeps `batch` SQEs in
    /// flight per `io_uring_enter` (Figure 3d).
    pub fn run_uring(
        &mut self,
        threads: usize,
        batch: u32,
        until: Nanos,
    ) -> (RunReport, SessionStats) {
        self.run(|machine, member| machine.run_uring(threads, batch, until, member))
    }

    /// One run of the member on the machine: returns the kernel's
    /// report with this run's statistics, folded into the session's
    /// cumulative ones.
    fn run(
        &mut self,
        run: impl FnOnce(&mut Machine, &mut Member<W>) -> RunReport,
    ) -> (RunReport, SessionStats) {
        self.member.stats = SessionStats::default();
        let report = run(&mut self.machine, &mut self.member);
        self.stats.absorb(&self.member.stats);
        (report, self.member.stats)
    }
}

/// Record of a one-shot request's terminal chain, kept for
/// [`PushdownSession::lookup`].
struct LastChain<O> {
    token: ChainToken,
    status: ChainStatus,
    /// The decoded output (`None` = miss or write), or the decode error.
    output: Result<Option<O>, SessionError>,
    mismatch: bool,
    ios: u32,
    latency: Nanos,
    attempts: u32,
}

/// An explicit request replacing the workload's request stream for one
/// run, and the slot its terminal chain is recorded in.
struct OneShot<W: PushdownWorkload> {
    request: Option<W::Request>,
    last: Option<LastChain<W::Output>>,
}

/// One attached workload as the kernel drives it: the [`ChainDriver`]
/// adapter translating kernel callbacks into workload calls and
/// applying the rearm-and-retry policy. A [`PushdownSession`] owns one
/// and a [`crate::TenantGroup`] one per tenant; code that brings its own
/// [`Machine`] and file — a table an `LsmTree` flushed through the
/// rings, say — attaches one itself and hands it to
/// [`Machine::run_closed_loop`] / [`Machine::run_uring`].
pub struct Member<W: PushdownWorkload> {
    workload: W,
    fd: Fd,
    handle: Option<ProgHandle>,
    mode: DispatchMode,
    retry_budget: u32,
    stats: SessionStats,
    /// Set for the duration of a [`PushdownSession::lookup`]; `None`
    /// draws from the workload's request stream and records no terminal
    /// chain, which spares benchmark runs the (possibly block-sized)
    /// status clone. Boxed, so a member that never looks up — every
    /// benchmark and group member — holds a pointer, not the slot.
    one_shot: Option<Box<OneShot<W>>>,
}

impl<W: PushdownWorkload> Member<W> {
    /// Attaches `workload` to the existing file `file_name` of
    /// `machine`: opens it on `tenant`'s behalf, installs the
    /// workload's traversal program via the ioctl when `mode` runs one
    /// (under the tenant's verification-time bounds), and wraps the
    /// workload in the adapter. The workload must already know the
    /// file's geometry, i.e. its
    /// [`build_image`](PushdownWorkload::build_image) has run and the
    /// file holds those bytes. Chains that end
    /// [`rearmable`](ChainStatus::is_rearmable) are re-armed and
    /// restarted up to `retry_budget` times each.
    ///
    /// # Errors
    ///
    /// A missing file and kernel/verifier rejections.
    ///
    /// # Panics
    ///
    /// Panics on an unregistered tenant.
    pub fn attach(
        machine: &mut Machine,
        tenant: TenantId,
        file_name: &str,
        workload: W,
        mode: DispatchMode,
        retry_budget: u32,
    ) -> Result<Self, SessionError> {
        let fd = machine.open_for(tenant, file_name)?;
        // Only the hook modes run a program; User and Remote traverse
        // natively from the application.
        let handle = match mode {
            DispatchMode::SyscallHook | DispatchMode::DriverHook => {
                Some(machine.install(fd, workload.program(), workload.install_flags())?)
            }
            DispatchMode::User | DispatchMode::Remote => None,
        };
        Ok(Member {
            workload,
            fd,
            handle,
            mode,
            retry_budget,
            stats: SessionStats::default(),
            one_shot: None,
        })
    }

    /// Counters over every chain the member has settled (a
    /// [`PushdownSession`] restarts them with each run).
    pub fn stats(&self) -> SessionStats {
        self.stats
    }
}

impl<W: PushdownWorkload> ChainDriver for Member<W> {
    fn mode(&self) -> DispatchMode {
        self.mode
    }

    fn next_op(&mut self, _thread: usize, rng: &mut SimRng) -> Option<ChainSpec<'_>> {
        let req = match &mut self.one_shot {
            Some(shot) => shot.request.take()?,
            None => self.workload.next_request(rng)?,
        };
        Some(match self.workload.first_op(&req) {
            OpSpec::Read(spec) => ChainSpec::Read(ChainStart {
                fd: self.fd,
                file_off: spec.file_off,
                len: spec.len,
                arg: spec.arg,
            }),
            OpSpec::Write(w) => ChainSpec::Write(WriteStart {
                fd: self.fd,
                file_off: w.file_off,
                data: w.data,
                fsync: w.fsync,
                arg: w.arg,
            }),
        })
    }

    fn user_step(&mut self, _thread: usize, token: &ChainToken, data: &[u8]) -> UserNext {
        self.workload.user_step(token, data)
    }

    /// Applies the §4 rearm-and-retry recovery — invalidated chains
    /// re-arm the ioctl and restart, invisible to the caller, with the
    /// absorbed attempt's per-chain state released (the restart gets a
    /// fresh token) — then accounts the outcome and decodes/checks the
    /// output.
    fn chain_done(&mut self, _thread: usize, outcome: &ChainOutcome) -> ChainVerdict {
        if outcome.status.is_rearmable() && outcome.attempts < self.retry_budget {
            self.workload.release(&outcome.token);
            return ChainVerdict::RearmRetry;
        }
        let stats = &mut self.stats;
        stats.completed += 1;
        stats.total_ios += outcome.ios as u64;
        stats.rearm_retries += outcome.attempts as u64;
        let mut output = Ok(None);
        let mut mismatch = false;
        if let ChainStatus::Written(bytes) = outcome.status {
            // Write chains carry no decodable output.
            stats.writes += 1;
            stats.bytes_written += bytes as u64;
        } else if outcome.status.is_ok() {
            output = self.workload.decode(&outcome.token, &outcome.status);
            match &output {
                Ok(out) => {
                    match out {
                        Some(_) => stats.hits += 1,
                        None => stats.misses += 1,
                    }
                    if self.workload.check(&outcome.token, out.as_ref()) == Verdict::Mismatch {
                        stats.mismatches += 1;
                        mismatch = true;
                    }
                }
                Err(_) => stats.errors += 1,
            }
        } else {
            self.workload.release(&outcome.token);
            stats.errors += 1;
            if outcome.status.is_rearmable() {
                stats.retries_exhausted += 1;
            }
        }
        if let Some(shot) = &mut self.one_shot {
            shot.last = Some(LastChain {
                token: outcome.token,
                status: outcome.status.clone(),
                output,
                mismatch,
                ios: outcome.ios,
                latency: outcome.latency,
                attempts: outcome.attempts,
            });
        }
        ChainVerdict::Done
    }
}
