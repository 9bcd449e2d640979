//! The NVMe device model.
//!
//! The device owns the backing store and a set of internal channels.
//! Commands arrive through per-queue-pair submission rings; ringing the
//! doorbell consumes the SQ, assigns each command to the earliest-free
//! channel, and samples a service time from the profile. Serviced
//! commands sit *in flight* until their completion instant, at which
//! point [`NvmeDevice::post_ready`] moves them onto the completion ring
//! (with real data for reads); the host's interrupt handler drains the
//! CQ with [`NvmeDevice::reap`]. The kernel decides *when* the
//! interrupt fires (coalescing is host policy, not device policy).
//!
//! A queue pair is the one record of what it holds, on either
//! transport: a fabric target adds each response's return crossing to
//! its completion while it is still in flight, and the host posts and
//! reaps the same rings it would locally.
//!
//! The steady-state path allocates nothing: the doorbell services
//! straight off the SQ ring, completion instants and reaped CQEs land in
//! buffers that keep their capacity, and a read's payload is filled into
//! a buffer the host handed back with [`NvmeDevice::recycle`].
//!
//! The model captures what the paper's evaluation depends on:
//!
//! - **service latency** per device class (Figure 1, Table 1 "storage
//!   device" row);
//! - **internal parallelism**: a P5800X sustains millions of 512 B IOPS
//!   only because commands overlap across channels — this is what lets
//!   driver-hook resubmission scale in Figure 3b/3d;
//! - **queue backpressure**: a queue pair admits at most `queue_depth -
//!   1` outstanding commands (submitted, in flight, or un-reaped);
//!   beyond that, submissions are rejected, which the kernel surfaces
//!   as EBUSY-style backpressure, exactly like a saturated hardware
//!   queue.

use bpfstor_sim::{Cores, Nanos, SimRng};

use crate::profile::DeviceProfile;
use crate::ring::Ring;
use crate::store::{SectorStore, SECTOR_SIZE};

/// Identifies a submission/completion queue pair.
pub type QueuePairId = usize;

/// Errors surfaced to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueError {
    /// The submission ring is full (driver should back off and retry).
    SubmissionFull,
    /// Unknown queue pair id.
    NoSuchQueue,
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::SubmissionFull => write!(f, "submission queue full"),
            QueueError::NoSuchQueue => write!(f, "no such queue pair"),
        }
    }
}

impl std::error::Error for QueueError {}

/// An NVMe command (the subset the storage stack issues).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NvmeOp {
    /// Read `nlb` sectors from `slba`.
    Read {
        /// Starting logical block address.
        slba: u64,
        /// Number of logical blocks.
        nlb: u32,
    },
    /// Write the payload at `slba`.
    Write {
        /// Starting logical block address.
        slba: u64,
        /// Sector-aligned payload.
        data: Vec<u8>,
    },
    /// Persist all volatile state (modelled as a fixed-cost barrier).
    Flush,
}

/// A submitted command awaiting service.
#[derive(Debug, Clone)]
pub struct NvmeCommand {
    /// Driver-assigned command id, echoed in the completion.
    pub cid: u64,
    /// The operation.
    pub op: NvmeOp,
}

/// The command class echoed in a completion (for per-class accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// A read command.
    Read,
    /// A write command.
    Write,
    /// A flush barrier.
    Flush,
}

/// A completed command, stamped with its completion instant.
#[derive(Debug, Clone)]
pub struct NvmeCompletion {
    /// Echoed command id.
    pub cid: u64,
    /// What class of command completed.
    pub kind: CmdKind,
    /// Simulated time at which the command finishes on its channel (the
    /// earliest instant a CQE for it can be posted).
    pub complete_at: Nanos,
    /// Read payload (empty for writes/flushes).
    pub data: Vec<u8>,
    /// Non-device time a transport added on top of the service instant
    /// (wire latency + target-side capsule processing). Zero straight
    /// off the device; the fabric transport fills it in.
    pub fabric_ns: Nanos,
    /// Instant the doorbell that put this command in motion rang (the
    /// start of the doorbell→reap gap tracked in
    /// [`DeviceStats::reap_lag_ns`]).
    pub rang_at: Nanos,
}

/// Aggregate device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Read commands serviced.
    pub reads: u64,
    /// Write commands serviced.
    pub writes: u64,
    /// Flush commands serviced.
    pub flushes: u64,
    /// Total busy nanoseconds summed over channels.
    pub busy_ns: Nanos,
    /// Submissions rejected because the queue pair was at capacity.
    pub rejected: u64,
    /// Doorbell rings observed. On a fabric the target rings its own
    /// doorbell once per arriving command capsule.
    pub doorbells: u64,
    /// Doorbell rings whose batch carried at least one write or flush
    /// command (the write path's MMIO footprint).
    pub write_doorbells: u64,
    /// Non-empty reap batches the host drained from the CQ, on either
    /// transport. In interrupt mode every batch is one completion
    /// interrupt; in polled mode this counts productive polls instead
    /// (the kernel's `LayerTrace::irqs` is the authoritative
    /// hardware-interrupt count).
    pub irqs: u64,
    /// Completion-queue entries reaped.
    pub cqes: u64,
    /// Write/flush completion-queue entries reaped.
    pub write_cqes: u64,
    /// Poll-loop iterations that found the completion queue empty (only
    /// a polled reaper burns these).
    pub empty_polls: u64,
    /// High-water mark of CQEs posted and waiting for the host's reap
    /// on any queue pair, on either transport. An observation only: the
    /// hybrid scheduler's load signal is the kernel reaper's own, the
    /// peak in-flight depth seen at doorbell time.
    pub cq_backlog_hwm: u64,
    /// Total doorbell→reap gap summed over reaped CQEs (mean reap
    /// latency is `reap_lag_ns / cqes`).
    pub reap_lag_ns: Nanos,
}

/// One submission/completion queue pair. Its rings admit `queue_depth -
/// 1` entries each but hold host memory only for the entries queued
/// (`ring.rs`): six 4,096-deep pairs cost what the deepest backlog they
/// ever carried costs, not 4,096 slots each.
struct QueuePair {
    sq: Ring<NvmeCommand>,
    cq: Ring<NvmeCompletion>,
    /// Serviced commands whose completion instant has not been posted
    /// to the CQ yet, kept sorted by `complete_at` (stable, so ties
    /// preserve service order).
    inflight: Vec<NvmeCompletion>,
    /// Commands admitted but not yet reaped (SQ + inflight + CQ). This
    /// is the driver's tag budget: it caps at ring capacity.
    outstanding: usize,
}

/// The simulated NVMe device.
pub struct NvmeDevice {
    profile: DeviceProfile,
    store: SectorStore,
    channels: Vec<Nanos>,
    queues: Vec<QueuePair>,
    rng: SimRng,
    stats: DeviceStats,
    /// Completion instants of the last doorbell's batch.
    times: Vec<Nanos>,
    /// Payload buffers with stale contents, reused for every payload:
    /// the host hands a read's back once it is done with it, and a
    /// write's command gives its own back once the store holds the
    /// bytes; the host makes a write's payload, and the images it cuts
    /// from it, in buffers taken here. A buffer is only ever created
    /// when this pool is empty, so the pool is bounded by the peak
    /// number of read and write payloads alive at once.
    free_bufs: Vec<Vec<u8>>,
}

impl NvmeDevice {
    /// Creates a device with `nr_queues` queue pairs, one per core.
    ///
    /// # Panics
    ///
    /// Panics with the refusal of [`DeviceProfile::check`] or of the
    /// core-count rule ([`Cores::check`]).
    pub fn new(profile: DeviceProfile, nr_queues: usize, rng: SimRng) -> Self {
        profile.check().unwrap_or_else(|e| panic!("{e}"));
        Cores::check(nr_queues).unwrap_or_else(|e| panic!("{e}"));
        let queues = (0..nr_queues)
            .map(|_| QueuePair {
                sq: Ring::new(profile.queue_depth),
                cq: Ring::new(profile.queue_depth),
                inflight: Vec::new(),
                outstanding: 0,
            })
            .collect();
        NvmeDevice {
            channels: vec![0; profile.channels],
            store: SectorStore::new(),
            queues,
            rng,
            profile,
            stats: DeviceStats::default(),
            times: Vec::new(),
            free_bufs: Vec::new(),
        }
    }

    /// The device's profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Number of queue pairs.
    pub fn nr_queues(&self) -> usize {
        self.queues.len()
    }

    /// Usable slots per queue pair (`queue_depth - 1`, one slot
    /// sacrificed per the NVMe full/empty disambiguation).
    pub fn queue_capacity(&self) -> usize {
        self.profile.queue_depth - 1
    }

    /// Commands admitted on `qp` that have not been reaped yet.
    pub fn outstanding(&self, qp: QueuePairId) -> usize {
        self.queues.get(qp).map_or(0, |q| q.outstanding)
    }

    /// True when `qp` can admit `n` more commands right now.
    pub fn can_accept(&self, qp: QueuePairId, n: usize) -> bool {
        self.queues
            .get(qp)
            .is_some_and(|q| q.outstanding + n <= self.queue_capacity())
    }

    /// Driver-side backpressure accounting: counts a submission the
    /// driver declined to attempt because [`NvmeDevice::can_accept`]
    /// said the queue pair was at capacity.
    pub fn record_rejection(&mut self) {
        self.stats.rejected += 1;
    }

    /// Direct store access for formatting / test setup (bypasses timing,
    /// like writing an image to the device before boot).
    pub fn store_mut(&mut self) -> &mut SectorStore {
        &mut self.store
    }

    /// Read-only store access.
    pub fn store(&self) -> &SectorStore {
        &self.store
    }

    /// Enqueues a command on queue pair `qp` without ringing the
    /// doorbell.
    ///
    /// # Errors
    ///
    /// [`QueueError::SubmissionFull`] when the queue pair is at its
    /// outstanding-command capacity (counted in
    /// [`DeviceStats::rejected`]), [`QueueError::NoSuchQueue`] for bad
    /// ids.
    pub fn submit(&mut self, qp: QueuePairId, cmd: NvmeCommand) -> Result<(), QueueError> {
        let cap = self.queue_capacity();
        let q = self.queues.get_mut(qp).ok_or(QueueError::NoSuchQueue)?;
        if q.outstanding >= cap || q.sq.is_full() {
            self.stats.rejected += 1;
            return Err(QueueError::SubmissionFull);
        }
        q.sq.push(cmd).map_err(|_| QueueError::SubmissionFull)?;
        q.outstanding += 1;
        Ok(())
    }

    /// Rings the doorbell for queue pair `qp` at time `now`: consumes
    /// every queued command, assigns channels and service times, and
    /// returns the completion instants (in service order; the slice is
    /// valid until the next ring). The serviced commands stay in flight
    /// until [`NvmeDevice::post_ready`] moves them to the completion
    /// ring.
    ///
    /// # Errors
    ///
    /// [`QueueError::NoSuchQueue`] for bad ids.
    pub fn ring_doorbell(&mut self, now: Nanos, qp: QueuePairId) -> Result<&[Nanos], QueueError> {
        if qp >= self.queues.len() {
            return Err(QueueError::NoSuchQueue);
        }
        self.stats.doorbells += 1;
        self.times.clear();
        let mut wrote = false;
        while let Some(cmd) = self.queues[qp].sq.pop() {
            wrote |= !matches!(cmd.op, NvmeOp::Read { .. });
            let done = self.service(now, cmd);
            self.times.push(done.complete_at);
            self.queues[qp].inflight.push(done);
        }
        self.stats.write_doorbells += u64::from(wrote);
        Ok(&self.times)
    }

    /// Posts every in-flight completion whose instant has passed onto
    /// the completion ring, in completion-time order (service order on
    /// ties). Returns how many CQEs were posted. Completions that do
    /// not fit the CQ stay in flight for the next call.
    pub fn post_ready(&mut self, now: Nanos, qp: QueuePairId) -> usize {
        let Some(q) = self.queues.get_mut(qp) else {
            return 0;
        };
        // Stable sort keeps service order on ties; the list is sorted
        // runs appended per doorbell, so this is near-linear.
        q.inflight.sort_by_key(|c| c.complete_at);
        let ready = q.inflight.partition_point(|c| c.complete_at <= now);
        let free = q.cq.capacity() - q.cq.len();
        let take = ready.min(free);
        for c in q.inflight.drain(..take) {
            let _ = q.cq.push(c);
        }
        let backlog = q.cq.len() as u64;
        self.stats.cq_backlog_hwm = self.stats.cq_backlog_hwm.max(backlog);
        take
    }

    /// The instant `qp`'s `k`-th in-flight completion posts, counting in
    /// the order [`NvmeDevice::post_ready`] posts them (completion order,
    /// service order on ties); `None` past the in-flight count. On a
    /// fabric the instant already carries the response crossing.
    pub fn due(&mut self, qp: QueuePairId, k: usize) -> Option<Nanos> {
        let q = self.queues.get_mut(qp)?;
        q.inflight.sort_by_key(|c| c.complete_at);
        q.inflight.get(k).map(|c| c.complete_at)
    }

    /// Hands `f` the last `n` completions serviced on `qp`, in
    /// completion order (service order on ties), before any of them is
    /// posted: call it before the next [`NvmeDevice::post_ready`]. A
    /// transport adds its own time to each here (a fabric's response
    /// crossing); the CQ posts them at the instants they leave with.
    pub(crate) fn retime_newest(
        &mut self,
        qp: QueuePairId,
        n: usize,
        f: impl FnMut(&mut NvmeCompletion),
    ) {
        let Some(q) = self.queues.get_mut(qp) else {
            return;
        };
        let from = q.inflight.len() - n;
        let newest = &mut q.inflight[from..];
        newest.sort_by_key(|c| c.complete_at);
        newest.iter_mut().for_each(f);
    }

    /// Drains up to `max` entries from the completion ring onto the end
    /// of `out` (the IRQ handler's reap loop), freeing their queue
    /// slots. Returns how many were drained. The doorbell→reap gap is
    /// accounted by whoever reaps ([`NvmeDevice::note_reap_lag`]).
    pub fn reap(&mut self, qp: QueuePairId, max: usize, out: &mut Vec<NvmeCompletion>) -> usize {
        let Some(q) = self.queues.get_mut(qp) else {
            return 0;
        };
        let mut n = 0;
        while n < max {
            let Some(c) = q.cq.pop() else { break };
            q.outstanding -= 1;
            self.stats.write_cqes += u64::from(c.kind != CmdKind::Read);
            out.push(c);
            n += 1;
        }
        self.stats.irqs += u64::from(n > 0);
        self.stats.cqes += n as u64;
        n
    }

    /// Hands a payload buffer back for reuse by a later read or write.
    /// Pass only buffers that arrived in [`NvmeCompletion::data`] or
    /// were taken from this pool ([`NvmeDevice::copy_in`],
    /// [`NvmeDevice::write_image`]): the pool then never outgrows
    /// the peak number of payload buffers alive at once.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 {
            self.free_bufs.push(buf);
        }
    }

    /// A recycled buffer with stale contents, or an empty one when the
    /// pool is dry — what a payload is put in.
    fn take_buffer(&mut self) -> Vec<u8> {
        self.free_bufs.pop().unwrap_or_default()
    }

    /// A pooled buffer of `len` bytes: `bytes` (no longer than `len`),
    /// then zeroes. What the host makes a write's command payload of,
    /// from the record's non-zero prefix.
    pub fn copy_in(&mut self, bytes: &[u8], len: usize) -> Vec<u8> {
        let mut buf = self.take_buffer();
        buf.clear();
        buf.extend_from_slice(bytes);
        buf.resize(len, 0);
        buf
    }

    /// A pooled buffer holding the whole-sector image a write of
    /// `piece`, starting `head` bytes into sector `slba`, leaves behind
    /// ([`SectorStore::read_modify_into`]): what the host cuts a write
    /// that spans several runs, or partial sectors, into.
    pub fn write_image(&mut self, slba: u64, head: usize, piece: &[u8]) -> Vec<u8> {
        let mut image = self.take_buffer();
        self.store.read_modify_into(slba, head, piece, &mut image);
        image
    }

    /// Records one poll-loop iteration that found the CQ empty.
    pub fn record_empty_poll(&mut self) {
        self.stats.empty_polls += 1;
    }

    /// Folds the doorbell→reap gap of CQEs reaped at host-visible time
    /// `now` into [`DeviceStats::reap_lag_ns`]. Called by the host's
    /// reap, on either transport.
    pub fn note_reap_lag(&mut self, now: Nanos, reaped: &[NvmeCompletion]) {
        let lag = reaped.iter().map(|c| now.saturating_sub(c.rang_at));
        self.stats.reap_lag_ns = lag.fold(self.stats.reap_lag_ns, Nanos::saturating_add);
    }

    fn service(&mut self, now: Nanos, cmd: NvmeCommand) -> NvmeCompletion {
        // Earliest-free channel, lowest index on ties (deterministic).
        let mut ch = 0;
        for (i, &t) in self.channels.iter().enumerate().skip(1) {
            if t < self.channels[ch] {
                ch = i;
            }
        }
        let start = self.channels[ch].max(now);
        let (kind, dur, data) = match cmd.op {
            NvmeOp::Read { slba, nlb } => {
                self.stats.reads += 1;
                let d = self.profile.read_latency.sample(&mut self.rng);
                // A recycled buffer may be longer or shorter than this
                // read: `resize` fixes the length and `read_into`
                // overwrites every byte of it, holes included.
                let mut data = self.take_buffer();
                data.resize(nlb as usize * SECTOR_SIZE, 0);
                self.store.read_into(slba, &mut data);
                (CmdKind::Read, d, data)
            }
            NvmeOp::Write { slba, data } => {
                self.stats.writes += 1;
                let d = self.profile.write_latency.sample(&mut self.rng);
                // The store holds the bytes now: the payload's buffer
                // goes back for a later read or write.
                self.store.write(slba, &data);
                self.recycle(data);
                (CmdKind::Write, d, Vec::new())
            }
            NvmeOp::Flush => {
                self.stats.flushes += 1;
                // A flush drains every channel: barrier semantics.
                let drain = *self.channels.iter().max().expect("channels");
                let extra = 1_000; // controller bookkeeping
                let end = drain.max(now) + extra;
                for t in &mut self.channels {
                    *t = end;
                }
                self.stats.busy_ns += extra;
                return NvmeCompletion {
                    cid: cmd.cid,
                    kind: CmdKind::Flush,
                    complete_at: end,
                    data: Vec::new(),
                    fabric_ns: 0,
                    rang_at: now,
                };
            }
        };
        let end = start + dur;
        self.channels[ch] = end;
        self.stats.busy_ns += dur;
        NvmeCompletion {
            cid: cmd.cid,
            kind,
            complete_at: end,
            data,
            fabric_ns: 0,
            rang_at: now,
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Resets channel occupancy, counters, and queue-pair state to time
    /// zero (the stored bytes are untouched). Called by the simulated
    /// kernel between benchmark runs that reuse one machine.
    pub fn reset_timing(&mut self) {
        for c in &mut self.channels {
            *c = 0;
        }
        for q in &mut self.queues {
            while q.sq.pop().is_some() {}
            while q.cq.pop().is_some() {}
            q.inflight.clear();
            q.outstanding = 0;
        }
        self.stats = DeviceStats::default();
    }

    /// Mean channel utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        self.stats.busy_ns as f64 / (horizon as f64 * self.channels.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;
    use crate::store::SECTOR_SIZE;
    use bpfstor_sim::{LatencyDist, SimRng};

    fn fixed_profile(latency: Nanos, channels: usize) -> DeviceProfile {
        DeviceProfile {
            class: crate::profile::DeviceClass::NvmGen2,
            read_latency: LatencyDist::Constant(latency),
            write_latency: LatencyDist::Constant(latency),
            channels,
            queue_depth: 8,
        }
    }

    fn dev(latency: Nanos, channels: usize) -> NvmeDevice {
        NvmeDevice::new(fixed_profile(latency, channels), 1, SimRng::seed(1))
    }

    fn read_cmd(cid: u64, slba: u64) -> NvmeCommand {
        NvmeCommand {
            cid,
            op: NvmeOp::Read { slba, nlb: 1 },
        }
    }

    /// Submit one command, ring the doorbell, and reap its completion
    /// (posting at its completion instant) — the old synchronous path,
    /// spelled through the queued API.
    fn submit_ring_reap(d: &mut NvmeDevice, now: Nanos, cmd: NvmeCommand) -> NvmeCompletion {
        d.submit(0, cmd).expect("submit");
        let times = d.ring_doorbell(now, 0).expect("doorbell");
        let t = *times.last().expect("serviced");
        d.post_ready(t, 0);
        reap_all(d).pop().expect("cqe")
    }

    fn reap_all(d: &mut NvmeDevice) -> Vec<NvmeCompletion> {
        let mut out = Vec::new();
        d.reap(0, usize::MAX, &mut out);
        out
    }

    #[test]
    fn read_returns_written_data_with_latency() {
        let mut d = dev(3_000, 1);
        d.store_mut().write(5, &[0xCDu8; SECTOR_SIZE]);
        let c = submit_ring_reap(&mut d, 100, read_cmd(1, 5));
        assert_eq!(c.complete_at, 3_100);
        assert_eq!(c.cid, 1);
        assert_eq!(c.data, vec![0xCDu8; SECTOR_SIZE]);
    }

    #[test]
    fn single_channel_serializes() {
        let mut d = dev(1_000, 1);
        let a = submit_ring_reap(&mut d, 0, read_cmd(1, 0));
        let b = submit_ring_reap(&mut d, 0, read_cmd(2, 1));
        assert_eq!(a.complete_at, 1_000);
        assert_eq!(b.complete_at, 2_000, "queued behind a");
    }

    #[test]
    fn channels_overlap() {
        let mut d = dev(1_000, 4);
        let done: Vec<Nanos> = (0..4)
            .map(|i| submit_ring_reap(&mut d, 0, read_cmd(i, i)).complete_at)
            .collect();
        assert_eq!(done, vec![1_000; 4], "four channels run in parallel");
        let fifth = submit_ring_reap(&mut d, 0, read_cmd(9, 9));
        assert_eq!(fifth.complete_at, 2_000, "fifth waits for a channel");
    }

    #[test]
    fn doorbell_batches_and_cq_posts_in_time_order() {
        // Reads take 500 ns, writes 100 ns: a write serviced after the
        // reads can complete before the last of them.
        let profile = DeviceProfile {
            write_latency: LatencyDist::Constant(100),
            ..fixed_profile(500, 2)
        };
        let mut d = NvmeDevice::new(profile, 1, SimRng::seed(1));
        for i in 0..3 {
            d.submit(0, read_cmd(i, i)).expect("enqueue");
        }
        let times = d.ring_doorbell(0, 0).expect("doorbell");
        assert_eq!(times, [500, 500, 1_000]);
        let write = NvmeOp::Write {
            slba: 9,
            data: vec![0u8; SECTOR_SIZE],
        };
        d.submit(0, NvmeCommand { cid: 3, op: write })
            .expect("enqueue");
        // Channel 1 frees at 500: the write completes at 600, between
        // the tied reads and the third.
        assert_eq!(d.ring_doorbell(0, 0).expect("doorbell"), [600]);
        let due: Vec<_> = (0..5).map(|k| d.due(0, k)).collect();
        assert_eq!(
            due,
            [Some(500), Some(500), Some(600), Some(1_000), None],
            "completion order; nothing past the in-flight count"
        );
        // Nothing is visible before its completion instant.
        assert_eq!(d.post_ready(499, 0), 0);
        assert_eq!(d.queues[0].cq.len(), 0);
        // The two channel-parallel completions post together...
        assert_eq!(d.post_ready(500, 0), 2);
        let first = reap_all(&mut d);
        assert_eq!(
            first.iter().map(|c| c.cid).collect::<Vec<_>>(),
            vec![0, 1],
            "ties keep service order"
        );
        // ...and the in-flight list now starts at the first unposted one.
        assert_eq!(
            (d.due(0, 0), d.due(0, 1), d.due(0, 2)),
            (Some(600), Some(1_000), None)
        );
        assert_eq!(d.post_ready(1_000, 0), 2);
        let rest = reap_all(&mut d);
        assert_eq!(rest.iter().map(|c| c.cid).collect::<Vec<_>>(), vec![3, 2]);
        assert_eq!(d.due(0, 0), None);
    }

    #[test]
    fn submission_queue_full_rejects() {
        let mut d = dev(100, 1);
        // queue_depth 8 -> capacity 7.
        assert_eq!(d.queue_capacity(), 7);
        for i in 0..7 {
            d.submit(0, read_cmd(i, i)).expect("fits");
        }
        assert!(!d.can_accept(0, 1));
        assert_eq!(
            d.submit(0, read_cmd(99, 0)),
            Err(QueueError::SubmissionFull)
        );
        assert_eq!(d.stats().rejected, 1);
    }

    #[test]
    #[should_panic(expected = "queue depth 65537: NVMe rings have 2 to 65536")]
    fn a_profile_deeper_than_mqes_is_refused() {
        let profile = DeviceProfile {
            queue_depth: crate::MAX_QUEUE_DEPTH + 1,
            ..fixed_profile(100, 1)
        };
        NvmeDevice::new(profile, 1, SimRng::seed(1));
    }

    #[test]
    fn outstanding_commands_block_submission_until_reaped() {
        // The doorbell consumes the SQ, but slots only free at reap: the
        // driver's tag budget, not just ring occupancy.
        let mut d = dev(100, 1);
        for i in 0..7 {
            d.submit(0, read_cmd(i, i)).expect("fits");
        }
        d.ring_doorbell(0, 0).expect("doorbell");
        assert_eq!(d.outstanding(0), 7, "in flight still holds slots");
        assert_eq!(
            d.submit(0, read_cmd(8, 0)),
            Err(QueueError::SubmissionFull),
            "no tag free before a reap"
        );
        d.post_ready(1_000, 0);
        let reaped = reap_all(&mut d);
        assert_eq!(reaped.len(), 7);
        assert_eq!(d.outstanding(0), 0);
        d.submit(0, read_cmd(8, 0))
            .expect("slots freed by the reap");
    }

    #[test]
    fn bad_queue_id() {
        let mut d = dev(100, 1);
        assert_eq!(
            d.submit(3, read_cmd(0, 0)).unwrap_err(),
            QueueError::NoSuchQueue
        );
        assert_eq!(d.ring_doorbell(0, 3).unwrap_err(), QueueError::NoSuchQueue);
    }

    #[test]
    fn write_then_read_via_commands() {
        let mut d = dev(200, 2);
        let payload = vec![7u8; SECTOR_SIZE];
        let w = submit_ring_reap(
            &mut d,
            0,
            NvmeCommand {
                cid: 1,
                op: NvmeOp::Write {
                    slba: 3,
                    data: payload.clone(),
                },
            },
        );
        let r = submit_ring_reap(&mut d, w.complete_at, read_cmd(2, 3));
        assert_eq!(r.data, payload);
    }

    #[test]
    fn flush_drains_all_channels() {
        let mut d = dev(1_000, 2);
        submit_ring_reap(&mut d, 0, read_cmd(1, 0));
        submit_ring_reap(&mut d, 0, read_cmd(2, 1));
        let f = submit_ring_reap(
            &mut d,
            0,
            NvmeCommand {
                cid: 3,
                op: NvmeOp::Flush,
            },
        );
        assert!(f.complete_at > 1_000, "flush waits for inflight I/O");
        let after = submit_ring_reap(&mut d, 0, read_cmd(4, 2));
        assert!(after.complete_at >= f.complete_at, "barrier holds");
    }

    #[test]
    fn stats_accumulate() {
        let mut d = dev(100, 1);
        submit_ring_reap(&mut d, 0, read_cmd(1, 0));
        submit_ring_reap(
            &mut d,
            100,
            NvmeCommand {
                cid: 2,
                op: NvmeOp::Write {
                    slba: 0,
                    data: vec![0u8; SECTOR_SIZE],
                },
            },
        );
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.busy_ns, 200);
        assert_eq!(s.doorbells, 2);
        assert_eq!(s.irqs, 2);
        assert_eq!(s.cqes, 2);
        assert!((d.utilization(200) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coalesced_reap_counts_one_irq() {
        let mut d = dev(500, 4);
        for i in 0..4 {
            d.submit(0, read_cmd(i, i)).expect("fits");
        }
        d.ring_doorbell(0, 0).expect("doorbell");
        d.post_ready(500, 0);
        let cqes = reap_all(&mut d);
        assert_eq!(cqes.len(), 4);
        let s = d.stats();
        assert_eq!(s.irqs, 1, "one interrupt served four completions");
        assert_eq!(s.cqes, 4);
    }

    #[test]
    fn reset_timing_clears_queue_state() {
        let mut d = dev(100, 1);
        d.submit(0, read_cmd(1, 0)).expect("submit");
        d.ring_doorbell(0, 0).expect("doorbell");
        d.reset_timing();
        assert_eq!(d.outstanding(0), 0);
        assert_eq!(d.queues[0].cq.len(), 0);
        assert_eq!(d.post_ready(u64::MAX, 0), 0, "no stale inflight survives");
        assert_eq!(d.stats(), DeviceStats::default());
    }

    #[test]
    fn backlog_hwm_and_reap_lag_track_the_load_signal() {
        let mut d = dev(500, 2);
        for i in 0..3 {
            d.submit(0, read_cmd(i, i)).expect("enqueue");
        }
        // Doorbell at t=0: two complete at 500, the third at 1_000.
        d.ring_doorbell(0, 0).expect("doorbell");
        d.post_ready(500, 0);
        assert_eq!(d.stats().cq_backlog_hwm, 2, "two CQEs sat un-reaped");
        // Reap the pair late, at t=700: lag = 700ns each from the t=0
        // doorbell.
        let pair = reap_all(&mut d);
        assert_eq!(pair.len(), 2);
        d.note_reap_lag(700, &pair);
        assert_eq!(d.stats().reap_lag_ns, 1_400);
        d.post_ready(1_000, 0);
        assert_eq!(d.stats().cq_backlog_hwm, 2, "hwm is sticky");
        let third = reap_all(&mut d);
        assert_eq!(third.len(), 1);
        d.note_reap_lag(1_000, &third);
        assert_eq!(d.stats().reap_lag_ns, 2_400);
        d.record_empty_poll();
        assert_eq!(d.stats().empty_polls, 1);
        // reset_timing clears the load signal with the rest of the stats.
        d.reset_timing();
        let s = d.stats();
        assert_eq!((s.empty_polls, s.cq_backlog_hwm, s.reap_lag_ns), (0, 0, 0));
        assert_eq!(s, DeviceStats::default());
    }

    #[test]
    fn recycled_read_buffers_are_reused_and_expose_nothing() {
        let mut d = dev(100, 1);
        d.store_mut().write(0, &[0xEEu8; 8 * SECTOR_SIZE]);
        let big = submit_ring_reap(
            &mut d,
            0,
            NvmeCommand {
                cid: 1,
                op: NvmeOp::Read { slba: 0, nlb: 8 },
            },
        );
        assert_eq!(big.data, vec![0xEEu8; 8 * SECTOR_SIZE]);
        let addr = big.data.as_ptr();
        d.recycle(big.data);
        d.recycle(Vec::new()); // nothing to reuse: not pooled
        assert_eq!(d.free_bufs.len(), 1);
        // A shorter read of a never-written sector out of the same
        // buffer: right length, all zeroes, no 0xEE tail.
        let hole = submit_ring_reap(&mut d, 0, read_cmd(2, 100));
        assert_eq!(hole.data.as_ptr(), addr, "the pooled buffer was reused");
        assert_eq!(hole.data, vec![0u8; SECTOR_SIZE]);
        // And a longer one grows it back to the full range.
        d.recycle(hole.data);
        let again = submit_ring_reap(
            &mut d,
            0,
            NvmeCommand {
                cid: 3,
                op: NvmeOp::Read { slba: 6, nlb: 3 },
            },
        );
        let mut want = vec![0xEEu8; 2 * SECTOR_SIZE];
        want.extend_from_slice(&[0u8; SECTOR_SIZE]);
        assert_eq!(again.data, want);
        assert!(d.free_bufs.is_empty());
        d.recycle(again.data);
        // A write's payload comes from the pool and goes back to it once
        // the store holds the bytes: a later read of a hole is serviced
        // into that very buffer and sees only zeroes.
        let payload = d.copy_in(&[0x5A; 100], 2 * SECTOR_SIZE);
        assert_eq!(payload[..100], [0x5A; 100]);
        assert_eq!(payload[100..], [0u8; 2 * SECTOR_SIZE - 100]);
        let addr = payload.as_ptr();
        let write = NvmeOp::Write {
            slba: 40,
            data: payload,
        };
        submit_ring_reap(&mut d, 0, NvmeCommand { cid: 4, op: write });
        assert_eq!(d.free_bufs.len(), 1, "the payload came back");
        let hole = submit_ring_reap(&mut d, 0, read_cmd(5, 200));
        assert_eq!(hole.data.as_ptr(), addr, "the payload's buffer was reused");
        assert_eq!(hole.data, vec![0u8; SECTOR_SIZE]);
        // The pool never holds more buffers than were alive at once:
        // three payloads at a time, over and over, make three buffers.
        d.recycle(hole.data);
        for round in 0..4u64 {
            let payloads: Vec<_> = (0..3).map(|_| d.copy_in(&[1], SECTOR_SIZE)).collect();
            for (i, data) in payloads.into_iter().enumerate() {
                let slba = 60 + 3 * round + i as u64;
                d.submit(
                    0,
                    NvmeCommand {
                        cid: 6 + i as u64,
                        op: NvmeOp::Write { slba, data },
                    },
                )
                .expect("submit");
            }
            d.ring_doorbell(0, 0).expect("doorbell");
            assert_eq!(d.free_bufs.len(), 3, "round {round}");
            d.post_ready(Nanos::MAX, 0);
            assert_eq!(reap_all(&mut d).len(), 3);
        }
    }

    #[test]
    fn doorbell_on_an_empty_sq_services_nothing() {
        let mut d = dev(100, 1);
        d.submit(0, read_cmd(1, 0)).expect("submit");
        assert_eq!(d.ring_doorbell(0, 0).expect("doorbell").len(), 1);
        assert!(d.ring_doorbell(5, 0).expect("doorbell").is_empty());
        assert_eq!(d.stats().doorbells, 2);
        assert_eq!(d.outstanding(0), 1);
    }

    #[test]
    fn iops_capacity_matches_channels() {
        // 16 channels at 1us each -> 16 IOPS/us; issue a dense stream and
        // confirm the completion horizon matches capacity.
        let mut d = dev(1_000, 16);
        let n = 1_600u64;
        let mut last = 0;
        for i in 0..n {
            let c = submit_ring_reap(&mut d, 0, read_cmd(i, i));
            last = last.max(c.complete_at);
        }
        // n commands / 16 channels * 1us = 100us.
        assert_eq!(last, 100_000);
    }
}
