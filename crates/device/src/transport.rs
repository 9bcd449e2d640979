//! The ring→device transport abstraction.
//!
//! The kernel's NVMe layer talks to the device through a [`Transport`]:
//! it enqueues commands, rings a doorbell, and later reaps completions.
//! Two implementations exist:
//!
//! - [`LocalTransport`] is the PCIe path the paper's testbed uses: a
//!   pass-through to [`NvmeDevice`]'s memory-mapped SQ/CQ rings. It
//!   preserves the pre-transport behaviour byte for byte — same ring
//!   semantics, same instants, same statistics.
//! - [`FabricTransport`] models an NVMe-oF target shared by one or more
//!   initiators (the BPF-oF setting): each command is encoded into a
//!   *capsule* that pays a one-way network latency (with jitter)
//!   before the target's local SQ/CQ rings service it, and each
//!   completion returns as a response capsule over the same wire. An
//!   in-flight-capsule window provides credit-style flow control with
//!   its own backpressure, independent of the target ring depth. Past
//!   the initiator's submission queue, the target's rings are the only
//!   record of a queue pair: each completion waits on the device, at
//!   its host-visible instant, until the host posts and reaps it — so
//!   [`NvmeDevice::stats`] counts the host's reaps and backlog on both
//!   transports.
//!
//! The transport also understands *pushdown* submissions
//! ([`SubmitClass`]): a chain whose BPF program runs target-side crosses
//! the fabric once on submission, its dependent hops are recycled
//! entirely at the target, and only the terminal response capsule
//! ([`Transport::response_capsule`]) crosses back — the BPF-oF
//! round-trip elision this refactor exists to measure.
//!
//! # Borrowed batches
//!
//! [`Transport::ring_doorbell`] and [`Transport::reap`] hand their
//! batches out by borrow: the transport owns the buffers, keeps their
//! capacity from call to call, and empties each at the start of the
//! next call of the same method — so a steady-state submit/reap cycle
//! allocates nothing. A caller that needs a batch across another call
//! takes it (`mem::take`/`mem::swap`/`drain`) or copies it (`to_vec`).
//! Read payloads a caller leaves in a reaped batch go back to the
//! device's buffer pool at the next reap ([`NvmeDevice::recycle`]).
//!
//! # Multi-initiator contention
//!
//! With [`FabricConfig::initiators`] > 1 the target is shared: every
//! submission names the initiator it came from. One switch,
//! [`FabricConfig::contended`], turns on the target's contention model,
//! which runs at fixed constants (off by default, so an uncontended
//! configuration reproduces its instants bit for bit):
//!
//! - **Per-initiator credit windows**: each initiator may hold at most
//!   [`INITIATOR_WINDOW`] capsules in flight across the connection, on
//!   top of the shared per-queue-pair [`FabricConfig::inflight_cap`].
//! - **Target-side admission**: arriving command capsules serialize
//!   through one admission server, [`ADMIT_NS`] each; capsules queued
//!   behind it are released round-robin between initiators. Target-local
//!   (pushdown-recycled) submissions never queue here — they are already
//!   on the target.
//! - **Congestion**: each crossing pays [`CONGESTION_NS_PER_CAPSULE`] of
//!   added wire latency per capsule the target holds beyond
//!   [`CONGESTION_KNEE`].
//!
//! Independently of the switch, each crossing may be lost with
//! [`FabricConfig::loss_prob`], paying [`RETRANSMIT_TIMEOUT_NS`] per
//! retransmission ([`FabricStats::retransmits`]).
//!
//! Capsules are sized from the command they carry
//! ([`FabricStats::bytes_tx`] / [`FabricStats::bytes_rx`]): a write
//! capsule hauls its in-capsule data payload across the wire and pays
//! 320 ns of serialization per KiB (a 25 Gb/s link), where a read
//! command is a fixed-size header. Read *response* payloads are
//! counted in `bytes_rx` but add no modelled latency (the return
//! direction is calibrated into the sampled wire distribution).

use bpfstor_sim::{check_time, ensure, IdMap, LatencyDist, Nanos, SimRng};

use crate::device::{NvmeCommand, NvmeCompletion, NvmeDevice, NvmeOp, QueueError};
use crate::DeviceConfigError;
use crate::QueuePairId;

/// Fixed NVMe-oF command-capsule header size in bytes (SQE + ICD header).
const CMD_CAPSULE_HDR: u64 = 64;
/// Serialization latency per KiB of in-capsule data payload (write
/// capsules): a 25 Gb/s link. Read command capsules carry no payload.
const WIRE_NS_PER_KB: Nanos = 320;
/// Fixed response-capsule size in bytes (CQE).
const RSP_CAPSULE_HDR: u64 = 16;
/// The most initiators a target serves: NVMe-oF gives each its own
/// controller, and controller ids (CNTLID) stop below `0xFFF0`.
pub const MAX_INITIATORS: usize = 0xFFF0;
/// The highest [`FabricConfig::loss_prob`]: a crossing is sent
/// `1 / (1 - loss_prob)` times on average, at most 100.
pub const MAX_LOSS_PROB: f64 = 0.99;
/// What a lost crossing waits before its retransmission.
pub const RETRANSMIT_TIMEOUT_NS: Nanos = 50_000;
/// On a contended target: capsules one initiator may hold in flight
/// across the connection.
pub const INITIATOR_WINDOW: usize = 2;
/// On a contended target: the admission server's service time per
/// arriving command capsule.
pub const ADMIT_NS: Nanos = 500;
/// On a contended target: capsules the target holds before congestion
/// slows the wire.
pub const CONGESTION_KNEE: usize = 8;
/// On a contended target: added one-way wire latency per held capsule
/// beyond [`CONGESTION_KNEE`].
pub const CONGESTION_NS_PER_CAPSULE: Nanos = 250;

/// How a submission relates to the fabric (ignored by the local path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitClass {
    /// Host-originated command whose completion returns to the host:
    /// over a fabric both directions cross the wire (command capsule
    /// out, response capsule back).
    Host,
    /// Host-originated first hop of a target-resident (pushdown) chain:
    /// the command capsule crosses the wire, but the completion is
    /// consumed by the target-side hook — no response capsule until the
    /// chain terminates.
    PushdownStart,
    /// Target-originated recycled resubmission of a pushdown chain:
    /// never touches the wire in either direction.
    TargetLocal,
}

/// Wire/flow-control model of one NVMe-oF connection.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// One-way wire latency, sampled per crossing in either direction
    /// (command capsule out, response capsule back).
    pub latency: LatencyDist,
    /// Fixed target-side capsule processing (decode, local ring write /
    /// response build) charged per wire crossing, in nanoseconds.
    pub target_proc_ns: Nanos,
    /// Maximum command capsules in flight per queue pair (submitted and
    /// not yet reaped by the host) — NVMe-oF's queue-granular credit
    /// window. Submissions beyond it are rejected as backpressure,
    /// counted in [`FabricStats::capsule_stalls`] when tighter than the
    /// target ring.
    pub inflight_cap: usize,
    /// Number of initiators sharing this target (default 1): 1 to
    /// [`MAX_INITIATORS`]. Submissions are attributed to
    /// `initiator % initiators`.
    pub initiators: usize,
    /// The target is contended (default: not): per-initiator credit
    /// windows of [`INITIATOR_WINDOW`], a round-robin admission server
    /// of [`ADMIT_NS`] per capsule, and congestion of
    /// [`CONGESTION_NS_PER_CAPSULE`] per held capsule beyond
    /// [`CONGESTION_KNEE`]. When off, capsules hit the target rings at
    /// their wire arrival instants over an uncongested wire.
    pub contended: bool,
    /// Probability that one wire crossing is lost and must be
    /// retransmitted after [`RETRANSMIT_TIMEOUT_NS`]: 0 to
    /// [`MAX_LOSS_PROB`]. Zero (the default) draws no randomness at
    /// all, preserving the RNG stream of loss-free configurations.
    pub loss_prob: f64,
}

impl FabricConfig {
    /// A symmetric link: `one_way` ns each direction, uniform jitter of
    /// `±jitter` ns, with the default window and target processing cost.
    pub fn symmetric(one_way: Nanos, jitter: Nanos) -> Self {
        let latency = if jitter == 0 {
            LatencyDist::Constant(one_way)
        } else {
            LatencyDist::Uniform(one_way.saturating_sub(jitter), one_way + jitter)
        };
        FabricConfig {
            latency,
            target_proc_ns: 500,
            inflight_cap: 32,
            initiators: 1,
            contended: false,
            loss_prob: 0.0,
        }
    }

    /// Sets the number of initiators sharing the target.
    pub fn with_initiators(mut self, n: usize) -> Self {
        self.initiators = n;
        self
    }

    /// Makes the target contended ([`FabricConfig::contended`]).
    pub fn with_contention(mut self) -> Self {
        self.contended = true;
        self
    }

    /// Enables probabilistic capsule loss: each crossing is lost with
    /// `loss_prob` and retransmitted after [`RETRANSMIT_TIMEOUT_NS`].
    pub fn with_loss(mut self, loss_prob: f64) -> Self {
        self.loss_prob = loss_prob;
        self
    }

    /// The fabric's rules, one [`DeviceConfigError`] variant each.
    pub fn check(&self) -> Result<(), DeviceConfigError> {
        use DeviceConfigError::*;
        ensure(self.inflight_cap >= 1, InflightCap)?;
        let initiators = (1..=MAX_INITIATORS).contains(&self.initiators);
        ensure(initiators, Initiators(self.initiators))?;
        ensure((0.0..=MAX_LOSS_PROB).contains(&self.loss_prob), LossProb)?;
        check_time(self.latency.longest(), TooLong("latency"))?;
        check_time(self.target_proc_ns, TooLong("target_proc_ns"))
    }
}

impl Default for FabricConfig {
    /// A same-rack RDMA-class link: 15 µs ± 3 µs each way.
    fn default() -> Self {
        FabricConfig::symmetric(15_000, 3_000)
    }
}

/// Fabric-side counters for one run (all zero on the local transport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Command capsules that crossed host→target.
    pub capsules_sent: u64,
    /// Response capsules that crossed target→host (per-command responses
    /// plus terminal pushdown responses).
    pub responses: u64,
    /// Target-local recycled submissions that never touched the wire.
    pub target_local: u64,
    /// Total one-way wire time accumulated over both directions,
    /// including the fixed target-side capsule processing and any
    /// congestion/retransmission delay.
    pub wire_ns: Nanos,
    /// Submissions declined because a capsule window (per queue pair or
    /// per initiator — not the target ring) was the binding constraint.
    pub capsule_stalls: u64,
    /// High-water mark of in-flight capsules on any queue pair.
    pub max_inflight: usize,
    /// Bytes of command capsules put on the wire (headers plus
    /// in-capsule write payloads).
    pub bytes_tx: u64,
    /// Bytes of response capsules received (headers plus read payloads).
    pub bytes_rx: u64,
    /// Wire crossings lost, each sent again after the timeout.
    pub retransmits: u64,
    /// Total time command capsules spent queued in target-side
    /// admission beyond their wire arrival.
    pub admit_wait_ns: Nanos,
}

/// Per-initiator fabric counters ([`Transport::initiator_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InitiatorStats {
    /// Command capsules this initiator put on the wire.
    pub capsules_sent: u64,
    /// Response capsules returned to this initiator.
    pub responses: u64,
    /// Retransmissions on this initiator's crossings (both directions).
    pub retransmits: u64,
    /// Command-capsule bytes this initiator transmitted.
    pub bytes_tx: u64,
    /// Submissions declined on this initiator's capsule windows.
    pub capsule_stalls: u64,
}

/// The ring→device hop, as the kernel's NVMe layer sees it.
///
/// Completion instants returned by [`Transport::ring_doorbell`] and
/// carried by reaped [`NvmeCompletion`]s are *host-visible* instants:
/// the local transport reports device completion times, the fabric
/// transport adds the wire (and marks the added non-device time in
/// [`NvmeCompletion::fabric_ns`]).
///
/// `initiator` parameters attribute work to one of the fabric's
/// initiators (per-initiator credit windows, round-robin admission,
/// per-initiator stats); the local transport ignores them. Every method
/// but the reap and the device accessors defaults to the local
/// pass-through to [`Transport::device`]: [`LocalTransport`] is the
/// defaults, and [`FabricTransport`] overrides what the wire changes.
pub trait Transport {
    /// Number of queue pairs.
    fn nr_queues(&self) -> usize {
        self.device().nr_queues()
    }

    /// Usable outstanding-command slots per queue pair (the tighter of
    /// the ring capacity and any fabric credit window).
    fn queue_capacity(&self) -> usize {
        self.device().queue_capacity()
    }

    /// Commands admitted on `qp` and not yet reaped by the host.
    fn outstanding(&self, qp: QueuePairId) -> usize {
        self.device().outstanding(qp)
    }

    /// True when `qp` can admit `n` more commands from `initiator`
    /// right now. On a fabric every class is bounded by
    /// [`Transport::queue_capacity`], the tighter of the target ring and
    /// the per-queue-pair capsule window. `class` matters only to the
    /// per-initiator credit windows of a contended target, which model
    /// capsule flow control on the wire: [`SubmitClass::TargetLocal`]
    /// submissions (pushdown flush chases, target-side resubmissions)
    /// never cross it, so they skip those windows.
    fn can_accept(&self, qp: QueuePairId, n: usize, _initiator: u32, _class: SubmitClass) -> bool {
        self.device().can_accept(qp, n)
    }

    /// Counts a submission of `n` commands on `qp` the driver declined
    /// to attempt because [`Transport::can_accept`] said no.
    fn record_rejection(
        &mut self,
        _qp: QueuePairId,
        _n: usize,
        _initiator: u32,
        _class: SubmitClass,
    ) {
        self.device_mut().record_rejection();
    }

    /// Enqueues a command from `initiator` without ringing the doorbell.
    ///
    /// # Errors
    ///
    /// [`QueueError::SubmissionFull`] at capacity,
    /// [`QueueError::NoSuchQueue`] for bad ids.
    fn submit(
        &mut self,
        qp: QueuePairId,
        cmd: NvmeCommand,
        _class: SubmitClass,
        _initiator: u32,
    ) -> Result<(), QueueError> {
        self.device_mut().submit(qp, cmd)
    }

    /// Rings the doorbell at `now`: everything queued on `qp` is put in
    /// motion. Returns the host-visible completion instants (for the
    /// interrupt timer), valid until the next ring.
    ///
    /// # Errors
    ///
    /// [`QueueError::NoSuchQueue`] for bad ids.
    fn ring_doorbell(&mut self, now: Nanos, qp: QueuePairId) -> Result<&[Nanos], QueueError> {
        self.device_mut().ring_doorbell(now, qp)
    }

    /// Posts every completion whose host-visible instant has passed onto
    /// the host completion queue; returns how many were posted.
    fn post_ready(&mut self, now: Nanos, qp: QueuePairId) -> usize {
        self.device_mut().post_ready(now, qp)
    }

    /// Drains up to `max` posted completions at host-visible time `now`
    /// (the IRQ handler's or poller's reap), freeing their
    /// slots/credits and accounting each CQE's doorbell→reap gap in
    /// [`crate::DeviceStats::reap_lag_ns`]. The batch is the
    /// transport's: take what you keep, the rest is emptied (read
    /// payloads back to the device's pool) at the start of the next
    /// reap.
    fn reap(&mut self, now: Nanos, qp: QueuePairId, max: usize) -> &mut Vec<NvmeCompletion>;

    /// Puts a terminal pushdown response capsule for `initiator` on the
    /// wire at `now`: returns `(host arrival instant, wire nanoseconds)`
    /// on a fabric, `None` on the local transport (nothing to cross).
    fn response_capsule(&mut self, _now: Nanos, _initiator: u32) -> Option<(Nanos, Nanos)> {
        None
    }

    /// True for fabric transports.
    fn is_fabric(&self) -> bool {
        false
    }

    /// Fabric counters for the current run (zeroes on local).
    fn fabric_stats(&self) -> FabricStats {
        FabricStats::default()
    }

    /// Per-initiator fabric counters (empty on local).
    fn initiator_stats(&self) -> Vec<InitiatorStats> {
        Vec::new()
    }

    /// The backing device (target-side on a fabric).
    fn device(&self) -> &NvmeDevice;

    /// Mutable device access (store formatting, test setup).
    fn device_mut(&mut self) -> &mut NvmeDevice;

    /// Resets per-run timing/counter state (stored bytes untouched).
    fn reset_timing(&mut self) {
        self.device_mut().reset_timing();
    }
}

/// PCIe pass-through: the pre-transport dispatch path, unchanged.
pub struct LocalTransport {
    dev: NvmeDevice,
    /// The last reaped batch.
    reaped: Vec<NvmeCompletion>,
}

impl LocalTransport {
    /// Wraps a device.
    pub fn new(dev: NvmeDevice) -> Self {
        LocalTransport {
            dev,
            reaped: Vec::new(),
        }
    }
}

/// The host's reap on either transport: empties the previous reap's
/// `batch` (any read payloads the host left in it go back to the
/// device), drains up to `max` CQEs of `qp` into it, and accounts their
/// doorbell→reap gap at host-visible time `now`.
fn host_reap(
    dev: &mut NvmeDevice,
    batch: &mut Vec<NvmeCompletion>,
    now: Nanos,
    qp: QueuePairId,
    max: usize,
) {
    for c in batch.drain(..) {
        dev.recycle(c.data);
    }
    dev.reap(qp, max, batch);
    dev.note_reap_lag(now, batch);
}

impl Transport for LocalTransport {
    fn reap(&mut self, now: Nanos, qp: QueuePairId, max: usize) -> &mut Vec<NvmeCompletion> {
        host_reap(&mut self.dev, &mut self.reaped, now, qp, max);
        &mut self.reaped
    }

    fn device(&self) -> &NvmeDevice {
        &self.dev
    }

    fn device_mut(&mut self) -> &mut NvmeDevice {
        &mut self.dev
    }
}

/// Per-initiator connection state.
#[derive(Default)]
struct InitState {
    /// Capsules this initiator holds in flight across all queue pairs.
    outstanding: usize,
    /// Admission turns this initiator has taken (round-robin order).
    turns: u64,
    stats: InitiatorStats,
}

/// The network between initiators and target: its configuration, its
/// randomness, and what crossed it.
struct Wire {
    cfg: FabricConfig,
    rng: SimRng,
    stats: FabricStats,
}

/// NVMe-oF initiator(s)/target: command capsules cross a modelled
/// network, the target's real SQ/CQ rings service them, responses cross
/// back. Deterministic given the construction RNG.
///
/// A queue pair's state past the initiator's submission queue is the
/// target device's: its rings hold every admitted command until the
/// host reaps it, so [`Transport::outstanding`], [`Transport::post_ready`]
/// and [`Transport::reap`] read the device as they do locally.
pub struct FabricTransport {
    dev: NvmeDevice,
    wire: Wire,
    /// Per queue pair: `(command, class, initiator)` enqueued by the
    /// host, awaiting the next doorbell.
    sq: Vec<Vec<(NvmeCommand, SubmitClass, usize)>>,
    inits: Vec<InitState>,
    /// cid → owning initiator, for commands in flight.
    init_of: IdMap<u64, usize>,
    /// Instant the target's admission server frees up (admission mode).
    admit_free_at: Nanos,
    /// The last reaped batch.
    reaped: Vec<NvmeCompletion>,
    /// Per-doorbell scratch, empty between rings (kept for capacity).
    bell: BellScratch,
}

/// What one doorbell ring works through; every buffer is drained by the
/// end of the ring except `times`, which the caller borrows.
#[derive(Default)]
struct BellScratch {
    /// cid → (outbound wire ns, response crosses back, initiator).
    meta: IdMap<u64, (Nanos, bool, usize)>,
    /// Capsules that crossed the wire: (arrival, initiator, command).
    crossed: Vec<(Nanos, usize, NvmeCommand)>,
    /// Commands in the order they hit the target rings.
    arrivals: Vec<(Nanos, NvmeCommand)>,
    /// Host-visible completion instants of the batch.
    times: Vec<Nanos>,
}

/// Command-capsule size: fixed header plus any in-capsule data payload.
fn capsule_bytes(op: &NvmeOp) -> u64 {
    CMD_CAPSULE_HDR
        + match op {
            NvmeOp::Write { data, .. } => data.len() as u64,
            NvmeOp::Read { .. } | NvmeOp::Flush => 0,
        }
}

impl Wire {
    /// One wire crossing: fixed target-side processing, a sampled
    /// one-way latency, payload serialization, congestion over the
    /// `held` capsules the target holds (0 when uncontended), and (when
    /// configured) loss with timeout/retransmit. `payload_bytes` is the
    /// in-capsule data hauled in this direction. A zero `loss_prob`
    /// draws exactly one sample, preserving loss-free RNG streams.
    fn cross(&mut self, payload_bytes: u64, held: usize, init: &mut InitiatorStats) -> Nanos {
        let cfg = &self.cfg;
        // Queue-depth-dependent congestion: added one-way latency once
        // the target holds more capsules than the knee tolerates.
        let congest = CONGESTION_NS_PER_CAPSULE * held.saturating_sub(CONGESTION_KNEE) as u64;
        let mut total = cfg.target_proc_ns + payload_bytes * WIRE_NS_PER_KB / 1024 + congest;
        loop {
            let wire = cfg.latency.sample(&mut self.rng);
            if cfg.loss_prob > 0.0 && self.rng.chance(cfg.loss_prob) {
                // Lost: wait out the timeout, then retransmit (the
                // retransmitted copy re-samples the wire).
                self.stats.retransmits += 1;
                init.retransmits += 1;
                total += RETRANSMIT_TIMEOUT_NS;
                continue;
            }
            total += wire;
            break;
        }
        self.stats.wire_ns += total;
        total
    }

    /// A response capsule of `payload_bytes` read data returning to the
    /// initiator behind `init`: counted, then crossed.
    fn respond(&mut self, payload_bytes: u64, held: usize, init: &mut InitiatorStats) -> Nanos {
        self.stats.responses += 1;
        init.responses += 1;
        self.stats.bytes_rx += RSP_CAPSULE_HDR + payload_bytes;
        self.cross(0, held, init)
    }
}

impl FabricTransport {
    /// Builds the target around a device shared by `cfg.initiators`
    /// initiators.
    ///
    /// # Panics
    ///
    /// Panics with [`FabricConfig::check`]'s refusal.
    pub fn new(dev: NvmeDevice, cfg: FabricConfig, rng: SimRng) -> Self {
        cfg.check().unwrap_or_else(|e| panic!("{e}"));
        let sq = (0..dev.nr_queues()).map(|_| Vec::new()).collect();
        let inits = (0..cfg.initiators).map(|_| InitState::default()).collect();
        FabricTransport {
            dev,
            wire: Wire {
                cfg,
                rng,
                stats: FabricStats::default(),
            },
            sq,
            inits,
            init_of: IdMap::default(),
            admit_free_at: 0,
            reaped: Vec::new(),
            bell: BellScratch::default(),
        }
    }

    fn init_idx(&self, initiator: u32) -> usize {
        initiator as usize % self.inits.len()
    }

    /// True when `n` more capsules of `class` from initiator `idx` would
    /// overrun its credit window (only on a contended target; a
    /// target-local submission holds no credit).
    fn window_full(&self, idx: usize, n: usize, class: SubmitClass) -> bool {
        self.wire.cfg.contended
            && class != SubmitClass::TargetLocal
            && self.inits[idx].outstanding + n > INITIATOR_WINDOW
    }

    /// Capsules the target holds: every queue pair's commands, from the
    /// initiator's submission queue to the host's reap (the congestion
    /// signal, so not counted on an uncontended target).
    fn held(&self) -> usize {
        if !self.wire.cfg.contended {
            return 0;
        }
        (0..self.sq.len()).map(|qp| self.outstanding(qp)).sum()
    }

    /// Runs one doorbell batch's command capsules through the
    /// target-side admission server: a serial server ([`ADMIT_NS`] per
    /// capsule) releasing queued capsules round-robin between
    /// initiators. Moves every `(wire arrival, initiator, cmd)`
    /// of `waiting` onto `out` as `(admit instant, cmd)` in admission
    /// order.
    fn admit(
        &mut self,
        waiting: &mut Vec<(Nanos, usize, NvmeCommand)>,
        out: &mut Vec<(Nanos, NvmeCommand)>,
    ) {
        while !waiting.is_empty() {
            let earliest = waiting.iter().map(|(at, ..)| *at).min().expect("nonempty");
            let t = self.admit_free_at.max(earliest);
            // Everyone already arrived by `t` contends; the initiator
            // with the fewest turns wins, arrival order breaking ties.
            let pick = waiting
                .iter()
                .enumerate()
                .filter(|(_, (at, ..))| *at <= t)
                .min_by_key(|(pos, (at, init, _))| (self.inits[*init].turns, *at, *pos))
                .map(|(pos, _)| pos)
                .expect("at least the earliest arrival qualifies");
            let (arrive, init, cmd) = waiting.remove(pick);
            self.inits[init].turns += 1;
            self.wire.stats.admit_wait_ns += t.saturating_sub(arrive);
            self.admit_free_at = t + ADMIT_NS;
            out.push((t, cmd));
        }
    }
}

impl Transport for FabricTransport {
    fn queue_capacity(&self) -> usize {
        self.dev.queue_capacity().min(self.wire.cfg.inflight_cap)
    }

    fn outstanding(&self, qp: QueuePairId) -> usize {
        self.sq
            .get(qp)
            .map_or(0, |sq| sq.len() + self.dev.outstanding(qp))
    }

    fn can_accept(&self, qp: QueuePairId, n: usize, initiator: u32, class: SubmitClass) -> bool {
        if qp >= self.sq.len() || self.outstanding(qp) + n > self.queue_capacity() {
            return false;
        }
        !self.window_full(self.init_idx(initiator), n, class)
    }

    fn record_rejection(&mut self, qp: QueuePairId, n: usize, initiator: u32, class: SubmitClass) {
        // A capsule stall is a refusal by a capsule window: the
        // per-queue-pair cap where it is tighter than the ring, or the
        // initiator's window for a class that holds credit. A full
        // target ring is not one.
        let idx = self.init_idx(initiator);
        let cap = self.wire.cfg.inflight_cap;
        let cap_refused = cap < self.dev.queue_capacity() && self.outstanding(qp) + n > cap;
        if cap_refused || self.window_full(idx, n, class) {
            self.wire.stats.capsule_stalls += 1;
            self.inits[idx].stats.capsule_stalls += 1;
        }
        self.dev.record_rejection();
    }

    fn submit(
        &mut self,
        qp: QueuePairId,
        cmd: NvmeCommand,
        class: SubmitClass,
        initiator: u32,
    ) -> Result<(), QueueError> {
        let idx = self.init_idx(initiator);
        if qp >= self.sq.len() {
            return Err(QueueError::NoSuchQueue);
        }
        if !self.can_accept(qp, 1, initiator, class) {
            self.record_rejection(qp, 1, initiator, class);
            return Err(QueueError::SubmissionFull);
        }
        if class != SubmitClass::TargetLocal {
            self.inits[idx].outstanding += 1;
            self.init_of.insert(cmd.cid, idx);
        }
        self.sq[qp].push((cmd, class, idx));
        let inflight = self.outstanding(qp);
        self.wire.stats.max_inflight = self.wire.stats.max_inflight.max(inflight);
        Ok(())
    }

    fn ring_doorbell(&mut self, now: Nanos, qp: QueuePairId) -> Result<&[Nanos], QueueError> {
        if qp >= self.sq.len() {
            return Err(QueueError::NoSuchQueue);
        }
        self.bell.times.clear();
        if self.sq[qp].is_empty() {
            return Ok(&self.bell.times);
        }
        // Congestion reads what the target held when the doorbell rang,
        // for every crossing of this ring.
        let held = self.held();
        // The scratch leaves `self` for the ring (the wire and admission
        // models below borrow all of it) and returns drained.
        let mut bell = std::mem::take(&mut self.bell);
        let mut sq = std::mem::take(&mut self.sq[qp]);
        // Each command capsule crosses the wire on its own (NVMe-oF has
        // no doorbells on the fabric); jitter may reorder a batch, so
        // capsules hit the target's rings in arrival order.
        for (cmd, class, init) in sq.drain(..) {
            match class {
                SubmitClass::TargetLocal => {
                    // Already on the target: no wire, no admission.
                    self.wire.stats.target_local += 1;
                    bell.meta.insert(cmd.cid, (0, false, init));
                    bell.arrivals.push((now, cmd));
                }
                SubmitClass::Host | SubmitClass::PushdownStart => {
                    let bytes = capsule_bytes(&cmd.op);
                    let is = &mut self.inits[init].stats;
                    is.capsules_sent += 1;
                    is.bytes_tx += bytes;
                    self.wire.stats.capsules_sent += 1;
                    self.wire.stats.bytes_tx += bytes;
                    let payload = bytes.saturating_sub(CMD_CAPSULE_HDR);
                    let outbound = self.wire.cross(payload, held, is);
                    let returns = class == SubmitClass::Host;
                    bell.meta.insert(cmd.cid, (outbound, returns, init));
                    bell.crossed.push((now + outbound, init, cmd));
                }
            }
        }
        self.sq[qp] = sq;
        if !self.wire.cfg.contended {
            let crossed = bell.crossed.drain(..);
            bell.arrivals.extend(crossed.map(|(at, _, cmd)| (at, cmd)));
        } else {
            self.admit(&mut bell.crossed, &mut bell.arrivals);
        }
        bell.arrivals.sort_by_key(|(at, _)| *at);
        let arrived = bell.arrivals.len();
        for (arrive, cmd) in bell.arrivals.drain(..) {
            self.dev
                .submit(qp, cmd)
                .expect("initiator window never exceeds target ring capacity");
            self.dev
                .ring_doorbell(arrive, qp)
                .expect("queue pair exists");
        }
        // The target's service instants are fixed at its doorbell, so
        // each response capsule crosses back while its completion is
        // still in flight on the target: the device posts it at its
        // host-visible instant (target-side pushdown completions stay
        // at their local instants).
        self.dev.retime_newest(qp, arrived, |c| {
            let (outbound, returns, init) = bell.meta.get(&c.cid).copied().unwrap_or((0, true, 0));
            let back = if returns {
                let is = &mut self.inits[init].stats;
                self.wire.respond(c.data.len() as u64, held, is)
            } else {
                0
            };
            c.fabric_ns = outbound + back;
            c.complete_at += back;
            bell.times.push(c.complete_at);
        });
        bell.meta.clear();
        self.bell = bell;
        Ok(&self.bell.times)
    }

    fn reap(&mut self, now: Nanos, qp: QueuePairId, max: usize) -> &mut Vec<NvmeCompletion> {
        host_reap(&mut self.dev, &mut self.reaped, now, qp, max);
        // Capsule credits free at the host's reap, not at the target's
        // completion.
        for c in &self.reaped {
            if let Some(idx) = self.init_of.remove(&c.cid) {
                self.inits[idx].outstanding = self.inits[idx].outstanding.saturating_sub(1);
            }
        }
        &mut self.reaped
    }

    fn response_capsule(&mut self, now: Nanos, initiator: u32) -> Option<(Nanos, Nanos)> {
        let idx = self.init_idx(initiator);
        let held = self.held();
        let wire = self.wire.respond(0, held, &mut self.inits[idx].stats);
        Some((now + wire, wire))
    }

    fn is_fabric(&self) -> bool {
        true
    }

    fn fabric_stats(&self) -> FabricStats {
        self.wire.stats
    }

    fn initiator_stats(&self) -> Vec<InitiatorStats> {
        self.inits.iter().map(|i| i.stats).collect()
    }

    fn device(&self) -> &NvmeDevice {
        &self.dev
    }

    fn device_mut(&mut self) -> &mut NvmeDevice {
        &mut self.dev
    }

    fn reset_timing(&mut self) {
        self.dev.reset_timing();
        for sq in &mut self.sq {
            sq.clear();
        }
        for i in &mut self.inits {
            *i = InitState::default();
        }
        self.init_of.clear();
        self.admit_free_at = 0;
        self.wire.stats = FabricStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{DeviceClass, DeviceProfile};

    const SVC: Nanos = 3_000;

    fn dev(depth: usize) -> NvmeDevice {
        let profile = DeviceProfile {
            class: DeviceClass::NvmGen2,
            read_latency: LatencyDist::Constant(SVC),
            write_latency: LatencyDist::Constant(SVC),
            channels: 4,
            queue_depth: depth,
        };
        NvmeDevice::new(profile, 1, SimRng::seed(7))
    }

    fn read_cmd(cid: u64) -> NvmeCommand {
        NvmeCommand {
            cid,
            op: NvmeOp::Read { slba: cid, nlb: 1 },
        }
    }

    fn write_cmd(cid: u64, bytes: usize) -> NvmeCommand {
        NvmeCommand {
            cid,
            op: NvmeOp::Write {
                slba: cid,
                data: vec![0xAB; bytes],
            },
        }
    }

    fn link(one_way: Nanos) -> FabricConfig {
        FabricConfig {
            latency: LatencyDist::Constant(one_way),
            target_proc_ns: 0,
            ..FabricConfig::default()
        }
    }

    fn fabric(one_way: Nanos) -> FabricTransport {
        FabricTransport::new(dev(8), link(one_way), SimRng::seed(1))
    }

    #[test]
    fn local_transport_is_a_pass_through() {
        let mut t = LocalTransport::new(dev(8));
        let mut d = dev(8);
        for cid in 0..3 {
            t.submit(0, read_cmd(cid), SubmitClass::Host, 0).expect("t");
            d.submit(0, read_cmd(cid)).expect("d");
        }
        let tt = t.ring_doorbell(100, 0).expect("t bell");
        let dt = d.ring_doorbell(100, 0).expect("d bell");
        assert_eq!(tt, dt, "identical completion instants");
        let at = *tt.last().expect("times");
        assert_eq!(t.post_ready(at, 0), d.post_ready(at, 0));
        let tc = t.reap(at, 0, usize::MAX);
        let mut dc = Vec::new();
        d.reap(0, usize::MAX, &mut dc);
        d.note_reap_lag(at, &dc);
        assert_eq!(tc.len(), dc.len());
        for (a, b) in tc.iter().zip(&dc) {
            assert_eq!(
                (a.cid, a.complete_at, a.fabric_ns),
                (b.cid, b.complete_at, 0)
            );
        }
        assert_eq!(t.device().stats(), d.stats());
        assert_eq!(t.fabric_stats(), FabricStats::default());
        assert!(t.initiator_stats().is_empty());
        assert!(t.response_capsule(0, 0).is_none());
    }

    /// The borrowed-batch contract, on both transports: a reap's batch
    /// is gone at the next reap whether or not the caller drained it
    /// (its read payloads back in the device's pool), and a doorbell
    /// with nothing queued returns an empty slice.
    #[test]
    fn batches_are_borrowed_until_the_next_call() {
        let local: Box<dyn Transport> = Box::new(LocalTransport::new(dev(8)));
        let remote: Box<dyn Transport> = Box::new(fabric(1_000));
        for mut t in [local, remote] {
            let (mut at, mut payloads) = (0, Vec::new());
            for cid in [1, 2, 3] {
                t.submit(0, read_cmd(cid), SubmitClass::Host, 0)
                    .expect("submit");
                at = *t.ring_doorbell(at, 0).expect("bell").last().expect("one");
                t.post_ready(at, 0);
                let batch = t.reap(at, 0, usize::MAX);
                let cids: Vec<u64> = batch.iter().map(|c| c.cid).collect();
                assert_eq!(cids, [cid], "only this reap's batch");
                payloads.push(batch[0].data.as_ptr());
            }
            // Read 3 was serviced after reap 2 emptied batch 1.
            assert_eq!(payloads[2], payloads[0], "a left-behind payload is reused");
            assert!(t.ring_doorbell(at, 0).expect("bell").is_empty());
            assert!(t.reap(at, 0, usize::MAX).is_empty());
            assert_eq!(t.outstanding(0), 0);
        }
    }

    /// On a jittered fabric a doorbell's instants come back in the
    /// target's completion order, each with its own response crossing:
    /// the device's in-flight list yields the same instants, sorted.
    #[test]
    fn due_on_a_fabric_carries_the_response_crossing() {
        let cfg = FabricConfig::symmetric(2_000, 1_500);
        let mut t = FabricTransport::new(dev(8), cfg, SimRng::seed(3));
        for cid in 0..6 {
            t.submit(0, read_cmd(cid), SubmitClass::Host, 0)
                .expect("submit");
        }
        let mut times = t.ring_doorbell(0, 0).expect("bell").to_vec();
        // A crossing is at least 500 ns of target processing plus 500 ns
        // of wire, each way.
        assert!(
            times.iter().all(|&at| at >= SVC + 2 * 1_000),
            "every instant crossed out and back: {times:?}"
        );
        assert!(!times.is_sorted(), "jitter reorders the responses");
        times.sort_unstable();
        let due: Vec<_> = (0..=times.len())
            .map(|k| t.device_mut().due(0, k))
            .collect();
        let want: Vec<_> = times.iter().copied().map(Some).chain([None]).collect();
        assert_eq!(due, want);
    }

    #[test]
    fn empty_doorbell_keeps_the_fabric_sq_buffer() {
        let mut t = fabric(1_000);
        for cid in 0..4 {
            t.submit(0, read_cmd(cid), SubmitClass::Host, 0)
                .expect("submit");
        }
        assert_eq!(t.ring_doorbell(0, 0).expect("bell").len(), 4);
        let cap = t.sq[0].capacity();
        assert!(cap >= 4);
        assert!(t.ring_doorbell(10, 0).expect("bell").is_empty());
        assert_eq!(t.sq[0].capacity(), cap);
    }

    /// A fabric queue pair's completions wait on the target's rings for
    /// the host: two doorbells reap nothing, one host reap is one reap.
    #[test]
    fn fabric_completions_wait_on_the_target_rings_for_the_host_reap() {
        let mut t = fabric(1_000);
        let mut last = 0;
        for (cid, at) in [(1, 0), (2, 500)] {
            t.submit(0, read_cmd(cid), SubmitClass::Host, 0)
                .expect("submit");
            last = *t.ring_doorbell(at, 0).expect("bell").last().expect("one");
        }
        let s = t.device().stats();
        assert_eq!(
            (s.doorbells, s.cqes, s.irqs),
            (2, 0, 0),
            "nothing reaped yet"
        );
        assert_eq!(t.outstanding(0), 2);
        assert_eq!(t.post_ready(last, 0), 2);
        assert_eq!(t.device().stats().cq_backlog_hwm, 2, "the host's backlog");
        assert_eq!(t.reap(last, 0, usize::MAX).len(), 2);
        let s = t.device().stats();
        assert_eq!((s.cqes, s.irqs), (2, 1), "one host reap");
        assert_eq!(t.outstanding(0), 0);
    }

    #[test]
    fn host_class_pays_both_directions() {
        let mut t = fabric(10_000);
        t.submit(0, read_cmd(1), SubmitClass::Host, 0)
            .expect("submit");
        let times = t.ring_doorbell(0, 0).expect("bell");
        assert_eq!(times, vec![10_000 + SVC + 10_000]);
        assert_eq!(t.post_ready(23_000, 0), 1);
        let c = t.reap(23_000, 0, usize::MAX).pop().expect("cqe");
        assert_eq!(c.fabric_ns, 20_000);
        assert_eq!(c.complete_at, 23_000);
        let s = t.fabric_stats();
        assert_eq!((s.capsules_sent, s.responses, s.target_local), (1, 1, 0));
        assert_eq!(s.wire_ns, 20_000);
    }

    #[test]
    fn pushdown_start_pays_outbound_only() {
        let mut t = fabric(10_000);
        t.submit(0, read_cmd(1), SubmitClass::PushdownStart, 0)
            .expect("submit");
        let times = t.ring_doorbell(0, 0).expect("bell");
        assert_eq!(times, vec![10_000 + SVC], "completion stays target-side");
        t.post_ready(13_000, 0);
        let c = t.reap(13_000, 0, usize::MAX).pop().expect("cqe");
        assert_eq!(c.fabric_ns, 10_000);
        let s = t.fabric_stats();
        assert_eq!((s.capsules_sent, s.responses), (1, 0));
    }

    #[test]
    fn target_local_never_touches_the_wire() {
        let mut t = fabric(10_000);
        t.submit(0, read_cmd(1), SubmitClass::TargetLocal, 0)
            .expect("submit");
        let times = t.ring_doorbell(500, 0).expect("bell");
        assert_eq!(times, vec![500 + SVC]);
        t.post_ready(500 + SVC, 0);
        let c = t.reap(500 + SVC, 0, usize::MAX).pop().expect("cqe");
        assert_eq!(c.fabric_ns, 0);
        let s = t.fabric_stats();
        assert_eq!((s.capsules_sent, s.target_local, s.wire_ns), (0, 1, 0));
    }

    #[test]
    fn response_capsule_crosses_back() {
        let mut t = fabric(7_000);
        let (arrive, wire) = t.response_capsule(1_000, 0).expect("fabric");
        assert_eq!((arrive, wire), (8_000, 7_000));
        assert_eq!(t.fabric_stats().responses, 1);
        assert_eq!(t.fabric_stats().bytes_rx, RSP_CAPSULE_HDR);
    }

    #[test]
    fn capsule_window_backpressures_before_the_ring() {
        let cfg = FabricConfig {
            inflight_cap: 2,
            ..link(1_000)
        };
        let mut t = FabricTransport::new(dev(8), cfg, SimRng::seed(2));
        assert_eq!(t.queue_capacity(), 2, "window tighter than the ring");
        t.submit(0, read_cmd(1), SubmitClass::Host, 0).expect("one");
        t.submit(0, read_cmd(2), SubmitClass::Host, 0).expect("two");
        assert!(!t.can_accept(0, 1, 0, SubmitClass::Host));
        assert_eq!(
            t.submit(0, read_cmd(3), SubmitClass::Host, 0).unwrap_err(),
            QueueError::SubmissionFull
        );
        assert_eq!(t.fabric_stats().capsule_stalls, 1);
        assert_eq!(t.fabric_stats().max_inflight, 2);
        // Credits free at host reap, not at target completion.
        t.ring_doorbell(0, 0).expect("bell");
        t.post_ready(Nanos::MAX, 0);
        assert!(
            !t.can_accept(0, 1, 0, SubmitClass::Host),
            "posted but unreaped still holds credits"
        );
        assert_eq!(t.reap(10_000, 0, usize::MAX).len(), 2);
        assert!(t.can_accept(0, 2, 0, SubmitClass::Host));
    }

    #[test]
    fn jitter_reorders_but_loses_nothing() {
        let cfg = FabricConfig {
            latency: LatencyDist::Uniform(1_000, 50_000),
            target_proc_ns: 250,
            ..FabricConfig::default()
        };
        let mut t = FabricTransport::new(dev(8), cfg, SimRng::seed(99));
        for cid in 0..6 {
            t.submit(0, read_cmd(cid), SubmitClass::Host, 0)
                .expect("fits");
        }
        let times = t.ring_doorbell(0, 0).expect("bell");
        assert_eq!(times.len(), 6);
        let horizon = *times.iter().max().expect("nonempty");
        t.post_ready(horizon, 0);
        let cqes = t.reap(horizon, 0, usize::MAX);
        let mut cids: Vec<u64> = cqes.iter().map(|c| c.cid).collect();
        cids.sort_unstable();
        assert_eq!(cids, vec![0, 1, 2, 3, 4, 5], "exactly one CQE per SQE");
        assert!(
            cqes.windows(2)
                .all(|w| w[0].complete_at <= w[1].complete_at),
            "host reaps in completion order"
        );
        assert_eq!(t.outstanding(0), 0);
    }

    #[test]
    fn reset_timing_clears_fabric_state() {
        let mut t = fabric(5_000);
        t.submit(0, read_cmd(1), SubmitClass::Host, 0)
            .expect("submit");
        t.ring_doorbell(0, 0).expect("bell");
        t.reset_timing();
        assert_eq!(t.outstanding(0), 0);
        assert_eq!(t.fabric_stats(), FabricStats::default());
        assert!(t
            .initiator_stats()
            .iter()
            .all(|i| *i == InitiatorStats::default()));
        assert_eq!(t.post_ready(Nanos::MAX, 0), 0, "no stale completions");
    }

    #[test]
    #[should_panic(expected = "inflight_cap 0 can never admit a capsule")]
    fn zero_inflight_cap_literal_panics_at_build() {
        let cfg = FabricConfig {
            inflight_cap: 0,
            ..FabricConfig::default()
        };
        let _ = FabricTransport::new(dev(8), cfg, SimRng::seed(3));
    }

    #[test]
    #[should_panic(expected = "value: LossProb")]
    fn certain_loss_panics_at_with_loss() {
        FabricConfig::default().with_loss(1.0).check().unwrap();
    }

    #[test]
    #[should_panic(expected = "loss_prob must be in [0, 0.99]")]
    fn nan_loss_prob_literal_panics_at_build() {
        let cfg = FabricConfig {
            loss_prob: f64::NAN,
            ..FabricConfig::default()
        };
        let _ = FabricTransport::new(dev(8), cfg, SimRng::seed(3));
    }

    #[test]
    #[should_panic(expected = "value: LossProb")]
    fn loss_prob_past_the_bound_panics_at_with_loss() {
        FabricConfig::default()
            .with_loss(f64::next_up(MAX_LOSS_PROB))
            .check()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "loss_prob must be in [0, 0.99]")]
    fn negative_loss_prob_literal_panics_at_build() {
        let cfg = FabricConfig {
            loss_prob: -0.5,
            ..FabricConfig::default()
        };
        let _ = FabricTransport::new(dev(8), cfg, SimRng::seed(3));
    }

    #[test]
    #[should_panic(expected = "channels 0: a device has 1 to 65536")]
    fn zero_channel_device_panics_at_build() {
        let profile = DeviceProfile {
            channels: 0,
            ..dev(8).profile().clone()
        };
        let _ = NvmeDevice::new(profile, 1, SimRng::seed(7));
    }

    #[test]
    fn write_capsules_are_sized_from_their_payload() {
        let mut t = fabric(10_000);
        t.submit(0, write_cmd(1, 4096), SubmitClass::Host, 0)
            .expect("submit");
        t.submit(0, read_cmd(2), SubmitClass::Host, 0)
            .expect("submit");
        t.ring_doorbell(0, 0).expect("bell");
        let s = t.fabric_stats();
        assert_eq!(
            s.bytes_tx,
            2 * CMD_CAPSULE_HDR + 4096,
            "write capsule hauls its payload; read capsule is a header"
        );
        t.post_ready(Nanos::MAX, 0);
        let cqes = std::mem::take(t.reap(Nanos::MAX, 0, usize::MAX));
        assert_eq!(cqes.len(), 2);
        let s = t.fabric_stats();
        let read_payload: u64 = cqes.iter().map(|c| c.data.len() as u64).sum();
        assert_eq!(s.bytes_rx, 2 * RSP_CAPSULE_HDR + read_payload);
    }

    #[test]
    fn payload_serialization_delays_write_capsules_only() {
        let mut t = fabric(10_000);
        t.submit(0, write_cmd(1, 2_048), SubmitClass::Host, 0)
            .expect("submit");
        let times = t.ring_doorbell(0, 0).expect("bell");
        // Write service in the test device is SVC too; outbound crossing
        // gains exactly the 2 KiB serialization at 320 ns/KiB.
        assert_eq!(times, vec![10_000 + 640 + SVC + 10_000]);
        let mut t2 = fabric(10_000);
        t2.submit(0, read_cmd(1), SubmitClass::Host, 0)
            .expect("submit");
        let rt = t2.ring_doorbell(0, 0).expect("bell");
        assert_eq!(
            rt,
            vec![10_000 + SVC + 10_000],
            "reads pay no serialization"
        );
    }

    #[test]
    fn initiator_window_backpressures_one_initiator_not_the_other() {
        let cfg = link(1_000).with_initiators(2).with_contention();
        let mut t = FabricTransport::new(dev(8), cfg, SimRng::seed(4));
        for cid in 1..=INITIATOR_WINDOW as u64 {
            t.submit(0, read_cmd(cid), SubmitClass::Host, 0)
                .expect("i0");
        }
        assert!(
            !t.can_accept(0, 1, 0, SubmitClass::Host),
            "initiator 0 is at its window"
        );
        assert!(
            t.can_accept(0, INITIATOR_WINDOW, 1, SubmitClass::Host),
            "initiator 1 has its own credits"
        );
        assert!(
            t.can_accept(0, 1, 0, SubmitClass::TargetLocal),
            "a target-local submission holds no credit"
        );
        assert_eq!(
            t.submit(0, read_cmd(9), SubmitClass::Host, 0).unwrap_err(),
            QueueError::SubmissionFull
        );
        t.submit(0, read_cmd(10), SubmitClass::Host, 1).expect("i1");
        assert_eq!(t.fabric_stats().capsule_stalls, 1);
        let per_init = t.initiator_stats();
        assert_eq!(per_init[0].capsule_stalls, 1);
        assert_eq!(per_init[1].capsule_stalls, 0);
        // Credits free at reap, per initiator.
        t.ring_doorbell(0, 0).expect("bell");
        t.post_ready(Nanos::MAX, 0);
        t.reap(Nanos::MAX, 0, usize::MAX);
        assert!(
            t.can_accept(0, INITIATOR_WINDOW, 0, SubmitClass::Host)
                && t.can_accept(0, INITIATOR_WINDOW, 1, SubmitClass::Host)
        );
    }

    /// A full target ring is not a capsule stall, on a contended target
    /// too: target-local submissions hold no credit, and a host capsule
    /// refused by the ring with credit to spare found no window full.
    #[test]
    fn a_full_ring_on_a_contended_target_is_no_capsule_stall() {
        let mut t = FabricTransport::new(dev(8), link(1_000).with_contention(), SimRng::seed(4));
        let ring = t.device().queue_capacity();
        for cid in 0..ring as u64 {
            t.submit(0, read_cmd(cid), SubmitClass::TargetLocal, 0)
                .expect("the ring has room");
        }
        for class in [SubmitClass::TargetLocal, SubmitClass::Host] {
            assert!(!t.can_accept(0, 1, 0, class), "the ring is full");
            // The driver's path: asked first, then counted.
            t.record_rejection(0, 1, 0, class);
            // The transport's own refusal.
            assert_eq!(
                t.submit(0, read_cmd(99), class, 0).unwrap_err(),
                QueueError::SubmissionFull
            );
        }
        assert_eq!(t.device().stats().rejected, 4);
        assert_eq!(t.fabric_stats().capsule_stalls, 0);
        assert_eq!(t.initiator_stats()[0].capsule_stalls, 0);
    }

    #[test]
    fn admission_serializes_round_robin_between_initiators() {
        // Two initiators' capsules arrive together on a constant-latency
        // wire; the admission server serializes them at ADMIT_NS each
        // and alternates between the initiators.
        let cfg = link(1_000).with_initiators(2).with_contention();
        let mut t = FabricTransport::new(dev(8), cfg, SimRng::seed(5));
        t.submit(0, read_cmd(10), SubmitClass::Host, 0).expect("i0");
        t.submit(0, read_cmd(11), SubmitClass::Host, 0).expect("i0");
        t.submit(0, read_cmd(20), SubmitClass::Host, 1).expect("i1");
        t.submit(0, read_cmd(21), SubmitClass::Host, 1).expect("i1");
        let mut times = t.ring_doorbell(0, 0).expect("bell").to_vec();
        times.sort_unstable();
        // All arrive at 1_000; admissions at 1_000, 1_500, 2_000, 2_500.
        let admitted: Vec<Nanos> = (0..4).map(|k| 1_000 + k * ADMIT_NS).collect();
        let want: Vec<Nanos> = admitted.iter().map(|a| a + SVC + 1_000).collect();
        assert_eq!(times, want);
        assert_eq!(t.fabric_stats().admit_wait_ns, ADMIT_NS * (1 + 2 + 3));
        // The cold-start tie goes to the earliest submission (cid 10),
        // then the initiators take turns.
        let horizon = *want.last().expect("four");
        t.post_ready(horizon, 0);
        let cqes = t.reap(horizon, 0, usize::MAX);
        let order: Vec<u64> = cqes.iter().map(|c| c.cid).collect();
        assert_eq!(order, vec![10, 20, 11, 21], "one turn each");
    }

    #[test]
    fn admission_is_a_pass_through_when_uncontended() {
        // Bit-for-bit guard: on an uncontended target, the same
        // submissions from two initiators produce the instants of one.
        let mut a = fabric(9_000);
        let cfg = link(9_000).with_initiators(2);
        let mut b = FabricTransport::new(dev(8), cfg, SimRng::seed(1));
        for cid in 0..4 {
            a.submit(0, read_cmd(cid), SubmitClass::Host, 0).expect("a");
            b.submit(0, read_cmd(cid), SubmitClass::Host, (cid % 2) as u32)
                .expect("b");
        }
        assert_eq!(
            a.ring_doorbell(0, 0).expect("a"),
            b.ring_doorbell(0, 0).expect("b"),
            "multi-initiator attribution alone must not move instants"
        );
        assert_eq!(b.fabric_stats().admit_wait_ns, 0);
    }

    #[test]
    fn congestion_inflates_the_wire_beyond_the_knee() {
        // Each initiator holds a full window; the target holds
        // `initiators * INITIATOR_WINDOW` capsules when the doorbell
        // rings, and every crossing (out and back) pays for each one
        // beyond the knee.
        let wire_ns = |initiators: usize| {
            let cfg = link(1_000).with_initiators(initiators).with_contention();
            let mut t = FabricTransport::new(dev(16), cfg, SimRng::seed(6));
            let mut cid = 0;
            for init in 0..initiators as u32 {
                for _ in 0..INITIATOR_WINDOW {
                    t.submit(0, read_cmd(cid), SubmitClass::Host, init)
                        .expect("fits");
                    cid += 1;
                }
            }
            t.ring_doorbell(0, 0).expect("bell");
            t.fabric_stats().wire_ns
        };
        assert_eq!(CONGESTION_KNEE, 4 * INITIATOR_WINDOW);
        assert_eq!(wire_ns(4), 2 * 8 * 1_000, "at the knee: free");
        let over = (10 - CONGESTION_KNEE) as Nanos * CONGESTION_NS_PER_CAPSULE;
        assert_eq!(wire_ns(5), 2 * 10 * (1_000 + over), "beyond it: 2 x 250 ns");
    }

    #[test]
    fn loss_retransmits_and_delivers_exactly_once() {
        let cfg = link(1_000).with_loss(0.4);
        let mut t = FabricTransport::new(dev(8), cfg, SimRng::seed(0xBEEF));
        for cid in 0..6 {
            t.submit(0, read_cmd(cid), SubmitClass::Host, 0)
                .expect("fits");
        }
        let times = t.ring_doorbell(0, 0).expect("bell");
        assert_eq!(times.len(), 6, "every capsule eventually delivers");
        let horizon = *times.iter().max().expect("nonempty");
        t.post_ready(horizon, 0);
        let cqes = t.reap(horizon, 0, usize::MAX);
        let mut cids: Vec<u64> = cqes.iter().map(|c| c.cid).collect();
        cids.sort_unstable();
        assert_eq!(
            cids,
            vec![0, 1, 2, 3, 4, 5],
            "exactly one CQE per SQE under loss"
        );
        let s = t.fabric_stats();
        assert!(s.retransmits > 0, "0.4 loss over 12 crossings: {s:?}");
        assert_eq!(t.initiator_stats()[0].retransmits, s.retransmits);
        assert!(
            s.wire_ns >= s.retransmits * RETRANSMIT_TIMEOUT_NS,
            "each loss waits out the retransmit timeout"
        );
    }

    #[test]
    fn zero_loss_config_draws_no_extra_randomness() {
        // Neither a zero loss probability nor the contention model draws
        // from the RNG: one capsule at a time over a jittered wire (no
        // admission wait, nothing held past the knee) lands at the same
        // instants with and without them.
        let plain = FabricConfig::symmetric(4_000, 1_000);
        let armed = plain.clone().with_loss(0.0).with_contention();
        let run = |cfg: FabricConfig| {
            let mut t = FabricTransport::new(dev(8), cfg, SimRng::seed(1));
            let mut at = 0;
            (0..5)
                .map(|cid| {
                    t.submit(0, read_cmd(cid), SubmitClass::Host, 0)
                        .expect("fits");
                    at = t.ring_doorbell(at, 0).expect("bell")[0];
                    t.post_ready(at, 0);
                    t.reap(at, 0, usize::MAX);
                    at
                })
                .collect::<Vec<Nanos>>()
        };
        assert_eq!(run(plain), run(armed));
    }
}
