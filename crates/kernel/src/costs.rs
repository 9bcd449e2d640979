//! The per-layer CPU cost model, calibrated to the paper's Table 1.
//!
//! Table 1 (Intel Optane P5800X, 512 B random `read()`, Linux 5.8):
//!
//! | layer            | ns   | share |
//! |------------------|------|-------|
//! | kernel crossing  | 351  | 5.6%  |
//! | read syscall     | 199  | 3.2%  |
//! | ext4             | 2006 | 32.0% |
//! | bio              | 379  | 6.0%  |
//! | NVMe driver      | 113  | 1.8%  |
//! | storage device   | 3224 | 51.4% |
//! | total            | 6272 |       |
//!
//! Each software layer is split into a submission half and a completion
//! half (the split ratios follow the rough shape of Linux profiles: most
//! of ext4's work is on submission — extent lookup, permission checks —
//! while the completion side mostly ends I/O and wakes the waiter).
//! Harness code recovers the exact Table 1 totals from these parts; see
//! the `table1` bench.
//!
//! # The burst table
//!
//! The stack spends CPU in *bursts*: one run-to-completion job on one
//! core. Every burst is itemised here, once, as `(layer, ns)`
//! [`Item`]s; `Machine::charge` is the one consumer — it runs the
//! burst's total on a core and books each item to its
//! [`crate::LayerTrace`] bucket, so Σ CPU buckets == Σ core busy time
//! holds by construction (and is asserted at the end of every run).
//! Figure 2 — which layers a dependent hop still pays on each dispatch
//! path — reads off the rows (`w`: a write replaces `fs_submit` by
//! `wr_fs_submit` and adds `journal_log` in the journal bucket):
//!
//! | burst | crossing | syscall | fs | bio | drv | other |
//! |---|---|---|---|---|---|---|
//! | [`sync_issue`](LayerCosts::sync_issue) | `crossing_enter` | `syscall` | `fs_submit`ʷ | `bio_submit` | `drv_submit` | app `app_think` |
//! | [`unwind`](LayerCosts::unwind) | `crossing_exit` | | `fs_complete` | `bio_complete` | `drv_complete` | |
//! | [`syscall_hook_hop`](LayerCosts::syscall_hook_hop) | | `syscall` | `fs_complete + fs_submit` | `bio_complete + bio_submit` | `drv_complete + drv_submit` | bpf [`hook_run`](LayerCosts::hook_run) |
//! | [`driver_hook_recycle`](LayerCosts::driver_hook_recycle) | | | | | `drv_complete + recycle_submit` | bpf `hook_run`, [`extent_lookup`](LayerCosts::extent_lookup) |
//! | [`uring_enter`](LayerCosts::uring_enter), per batch | `crossing_enter` | | | | | app `app_think` per SQE |
//! | … per SQE | | `uring_sqe + uring_cqe` | `fs_submit`ʷ | `bio_submit` | `drv_submit` | |
//! | [`uring_wake`](LayerCosts::uring_wake) | `crossing_exit` | | | | | |
//! | [`rearm_ioctl`](LayerCosts::rearm_ioctl) | `crossing_enter + crossing_exit` | `syscall` | `fs_submit` | | | |
//! | [`commit_record`](LayerCosts::commit_record) | | | | | `drv_submit` | journal `journal_commit` |
//! | [`split_segments`](LayerCosts::split_segments), per extra segment | | | | `bio_submit + drv_submit` | | |
//! | [`ring_doorbell`](LayerCosts::ring_doorbell), per ring | | | | | `doorbell` | |
//! | [`irq`](LayerCosts::irq), per interrupt, on the queue pair's core | | | | | `irq_entry` | |
//! | [`poll_visit`](LayerCosts::poll_visit), on the queue pair's core | | | | | | poll `poll_loop` |
//! | [`capsule_encode`](LayerCosts::capsule_encode), fabric only | | | | | | fabric `fab_encode` per capsule `+ fab_encode_per_kb` per KiB |
//! | [`capsule_decode`](LayerCosts::capsule_decode), fabric only | | | | | | fabric `fab_decode` |
//!
//! A chain that ends at a hook pays what ran there (`hook_run`, and
//! `extent_lookup` when the resubmission got as far as the extent
//! cache) at the head of the burst that ends it: `unwind` on the host,
//! `capsule_encode` on a fabric target. A terminal response capsule's
//! `capsule_decode` rides at the head of the host's `unwind` likewise.

use bpfstor_sim::Nanos;

use crate::trace::Layer::{self, *};

/// One line of a CPU burst: `ns` of work booked to `layer`'s bucket.
pub type Item = (Layer, Nanos);

/// `n` back-to-back repetitions of `row` inside one burst.
fn times<const N: usize>(row: [Item; N], n: u64) -> [Item; N] {
    row.map(|(layer, ns)| (layer, ns * n))
}

/// CPU costs charged by the simulated stack, all in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCosts {
    /// User→kernel boundary entry (half of Table 1's 351 ns).
    pub crossing_enter: Nanos,
    /// Kernel→user boundary exit.
    pub crossing_exit: Nanos,
    /// Read-syscall dispatch layer (submission only).
    pub syscall: Nanos,
    /// File-system submission half (extent lookup, checks, bio setup).
    pub fs_submit: Nanos,
    /// File-system completion half.
    pub fs_complete: Nanos,
    /// Block-layer submission half.
    pub bio_submit: Nanos,
    /// Block-layer completion half.
    pub bio_complete: Nanos,
    /// NVMe driver submission half (SQE build; the doorbell MMIO is
    /// charged separately so batches can share it).
    pub drv_submit: Nanos,
    /// Doorbell MMIO write, charged once per ring — a batch of SQEs
    /// submitted together pays this once.
    pub doorbell: Nanos,
    /// Interrupt entry/dispatch, charged once per completion interrupt —
    /// coalesced CQEs amortize it.
    pub irq_entry: Nanos,
    /// NVMe driver per-CQE completion handling in the IRQ handler.
    pub drv_complete: Nanos,
    /// Application-level work per pointer lookup: reap the read, parse
    /// the node, compute and issue the next `pread`, plus the scheduler
    /// wake the blocking read pays. Calibrated against Figure 3's
    /// baseline behaviour (Table 1 does not itemise it).
    pub app_think: Nanos,
    /// Fixed overhead of invoking a BPF program at a hook.
    pub bpf_base: Nanos,
    /// Per-interpreted-instruction cost of a BPF program.
    pub bpf_per_insn: Nanos,
    /// NVMe-layer extent soft-state cache lookup (the §4 translation).
    pub extent_cache_lookup: Nanos,
    /// Recycling and retargeting a completed NVMe descriptor (§4: no
    /// allocations, no bio, just the SQE rewrite; the doorbell MMIO is
    /// charged separately like any other submission).
    pub recycle_submit: Nanos,
    /// io_uring per-SQE kernel processing (replaces the syscall layer).
    pub uring_sqe: Nanos,
    /// io_uring per-CQE reap cost.
    pub uring_cqe: Nanos,
    /// File-system submission half of a `write` syscall *excluding* the
    /// journal record append: block allocation, extent-tree insert,
    /// size update. Carved out of Table 1's ext4 submit row: at the
    /// defaults `wr_fs_submit + journal_log == fs_submit`, so the
    /// per-I/O ext4 total is unchanged but the journal share is visible
    /// in its own trace bucket (the same carve PR 2 applied to the
    /// driver row's doorbell and interrupt entry). Every write
    /// submission — `write` syscall or io_uring SQE — pays these two
    /// where a read pays `fs_submit` ([`LayerCosts::submit_walk`]).
    pub wr_fs_submit: Nanos,
    /// Appending the write's metadata records to the running journal
    /// transaction (jbd2 handle work). Charged per write submission.
    pub journal_log: Nanos,
    /// Building and issuing the journal commit record at fsync. The
    /// flush barrier itself is a device command through the rings; this
    /// is only the CPU half.
    pub journal_commit: Nanos,
    /// Encoding one NVMe-oF command/response capsule (header build,
    /// in-capsule data copy, CRC). Charged per capsule on whichever
    /// side puts it on the wire; never charged on the local transport.
    pub fab_encode: Nanos,
    /// Decoding one received capsule (validation, completion match).
    /// Charged per capsule on the receiving side; never charged on the
    /// local transport.
    pub fab_decode: Nanos,
    /// Extra encode cost per KiB of in-capsule data (the copy/CRC over
    /// a write capsule's payload; read commands are header-only, so
    /// [`LayerCosts::fab_encode`] alone covers them). Never charged on
    /// the local transport.
    pub fab_encode_per_kb: Nanos,
    /// One completion-poller loop iteration: CQ head check plus loop
    /// bookkeeping, charged per visit on the queue pair's owning core
    /// (polled/hybrid reaping only). Sits outside
    /// [`LayerCosts::drv_total`] like the fabric costs: a polled queue
    /// pair never pays the per-interrupt `irq_entry` slice of Table 1's
    /// driver row and burns this instead, so the Table 1 sums are
    /// unchanged in the default interrupt mode.
    pub poll_loop: Nanos,
}

impl Default for LayerCosts {
    fn default() -> Self {
        LayerCosts {
            crossing_enter: 176,
            crossing_exit: 175,
            syscall: 199,
            fs_submit: 1404,
            fs_complete: 602,
            bio_submit: 265,
            bio_complete: 114,
            drv_submit: 63,
            doorbell: 16,
            irq_entry: 14,
            drv_complete: 20,
            app_think: 1000,
            bpf_base: 60,
            bpf_per_insn: 2,
            extent_cache_lookup: 30,
            recycle_submit: 44,
            uring_sqe: 160,
            uring_cqe: 70,
            wr_fs_submit: 1269,
            journal_log: 135,
            journal_commit: 250,
            fab_encode: 400,
            fab_decode: 300,
            fab_encode_per_kb: 120,
            poll_loop: 100,
        }
    }
}

impl LayerCosts {
    /// Every cost by its field name, in declaration order: what
    /// [`crate::MachineConfig::check`] holds to the time rule.
    pub fn named(&self) -> [(&'static str, Nanos); 25] {
        let LayerCosts {
            crossing_enter,
            crossing_exit,
            syscall,
            fs_submit,
            fs_complete,
            bio_submit,
            bio_complete,
            drv_submit,
            doorbell,
            irq_entry,
            drv_complete,
            app_think,
            bpf_base,
            bpf_per_insn,
            extent_cache_lookup,
            recycle_submit,
            uring_sqe,
            uring_cqe,
            wr_fs_submit,
            journal_log,
            journal_commit,
            fab_encode,
            fab_decode,
            fab_encode_per_kb,
            poll_loop,
        } = *self;
        [
            ("costs.crossing_enter", crossing_enter),
            ("costs.crossing_exit", crossing_exit),
            ("costs.syscall", syscall),
            ("costs.fs_submit", fs_submit),
            ("costs.fs_complete", fs_complete),
            ("costs.bio_submit", bio_submit),
            ("costs.bio_complete", bio_complete),
            ("costs.drv_submit", drv_submit),
            ("costs.doorbell", doorbell),
            ("costs.irq_entry", irq_entry),
            ("costs.drv_complete", drv_complete),
            ("costs.app_think", app_think),
            ("costs.bpf_base", bpf_base),
            ("costs.bpf_per_insn", bpf_per_insn),
            ("costs.extent_cache_lookup", extent_cache_lookup),
            ("costs.recycle_submit", recycle_submit),
            ("costs.uring_sqe", uring_sqe),
            ("costs.uring_cqe", uring_cqe),
            ("costs.wr_fs_submit", wr_fs_submit),
            ("costs.journal_log", journal_log),
            ("costs.journal_commit", journal_commit),
            ("costs.fab_encode", fab_encode),
            ("costs.fab_decode", fab_decode),
            ("costs.fab_encode_per_kb", fab_encode_per_kb),
            ("costs.poll_loop", poll_loop),
        ]
    }

    /// Total boundary-crossing cost (Table 1 row 1).
    pub fn crossing(&self) -> Nanos {
        self.crossing_enter + self.crossing_exit
    }

    /// Total ext4 cost (Table 1 row 3).
    pub fn fs_total(&self) -> Nanos {
        self.fs_submit + self.fs_complete
    }

    /// Total bio cost (Table 1 row 4).
    pub fn bio_total(&self) -> Nanos {
        self.bio_submit + self.bio_complete
    }

    /// Total NVMe driver cost (Table 1 row 5): SQE build, doorbell
    /// write, interrupt entry, and CQE handling. Doorbell batching and
    /// interrupt coalescing amortize the middle two below this total.
    pub fn drv_total(&self) -> Nanos {
        self.drv_submit + self.doorbell + self.irq_entry + self.drv_complete
    }

    /// Total software cost of one synchronous O_DIRECT read (everything
    /// except the device and the application).
    pub fn software_total(&self) -> Nanos {
        self.crossing() + self.syscall + self.fs_total() + self.bio_total() + self.drv_total()
    }

    /// Cost of one BPF invocation that retired `insns` instructions.
    pub fn bpf_exec(&self, insns: u64) -> Nanos {
        self.bpf_base + self.bpf_per_insn * insns
    }

    // --- The burst table (module docs) -------------------------------------

    /// ext4 → bio → driver SQE build: the walk every fresh submission
    /// pays below its dispatch layer. A write carves the ext4 half into
    /// allocation and the journal record append; a read appends nothing.
    pub fn submit_walk(&self, write: bool) -> [Item; 4] {
        let (fs, journal) = if write {
            (self.wr_fs_submit, self.journal_log)
        } else {
            (self.fs_submit, 0)
        };
        [
            (Fs, fs),
            (Journal, journal),
            (Bio, self.bio_submit),
            (Drv, self.drv_submit),
        ]
    }

    /// A synchronous `read`/`write` on its way down: the application's
    /// think time and the full submission walk, up to (but excluding)
    /// the doorbell ring.
    pub fn sync_issue(&self, write: bool) -> [Item; 7] {
        let [fs, journal, bio, drv] = self.submit_walk(write);
        [
            (App, self.app_think),
            (Crossing, self.crossing_enter),
            (Syscall, self.syscall),
            fs,
            journal,
            bio,
            drv,
        ]
    }

    /// A completion on its way up, from the CQE handler to the
    /// application (the per-interrupt entry is [`LayerCosts::irq`]).
    pub fn unwind(&self) -> [Item; 4] {
        [
            (Drv, self.drv_complete),
            (Bio, self.bio_complete),
            (Fs, self.fs_complete),
            (Crossing, self.crossing_exit),
        ]
    }

    /// One hook invocation that retired `insns` instructions.
    pub fn hook_run(&self, insns: u64) -> Item {
        (Bpf, self.bpf_exec(insns))
    }

    /// One NVMe-layer extent soft-state cache lookup, whatever it
    /// returns.
    pub fn extent_lookup(&self) -> Item {
        (ExtentCache, self.extent_cache_lookup)
    }

    /// A dependent hop at the syscall hook: the completion climbs
    /// driver → bio → ext4, the program runs, and the reissue walks
    /// back down from the dispatch layer. Against the user path it
    /// skips both boundary crossings and the application.
    pub fn syscall_hook_hop(&self, insns: u64) -> [Item; 8] {
        let [drv_up, bio_up, fs_up, _crossing_exit] = self.unwind();
        let [fs, _journal, bio, drv] = self.submit_walk(false);
        [
            drv_up,
            bio_up,
            fs_up,
            self.hook_run(insns),
            (Syscall, self.syscall),
            fs,
            bio,
            drv,
        ]
    }

    /// A dependent hop at the driver hook: the program runs in the CQE
    /// handler, the offset translates through the extent cache, and the
    /// descriptor is recycled. It skips everything above the driver.
    pub fn driver_hook_recycle(&self, insns: u64) -> [Item; 4] {
        let [drv_up, ..] = self.unwind();
        [
            drv_up,
            self.hook_run(insns),
            self.extent_lookup(),
            (Drv, self.recycle_submit),
        ]
    }

    /// One `io_uring_enter` of `reads` + `writes` SQEs: the application
    /// prepared each, one crossing covers the batch, and each pays the
    /// uring dispatch around the same [`LayerCosts::submit_walk`] a
    /// syscall would.
    pub fn uring_enter(&self, reads: u64, writes: u64) -> impl Iterator<Item = Item> {
        let sqe = |write| {
            let [fs, journal, bio, drv] = self.submit_walk(write);
            let dispatch = (Syscall, self.uring_sqe + self.uring_cqe);
            [dispatch, fs, journal, bio, drv]
        };
        [
            (App, self.app_think * (reads + writes)),
            (Crossing, self.crossing_enter),
        ]
        .into_iter()
        .chain(times(sqe(false), reads))
        .chain(times(sqe(true), writes))
    }

    /// The blocked `io_uring_enter` wakes once its batch has completed.
    pub fn uring_wake(&self) -> [Item; 1] {
        [(Crossing, self.crossing_exit)]
    }

    /// The rearm ioctl of a rearm-retry (§4): in and out of the kernel
    /// around the file system's extent walk.
    pub fn rearm_ioctl(&self) -> [Item; 4] {
        [
            (Crossing, self.crossing_enter),
            (Syscall, self.syscall),
            (Fs, self.fs_submit),
            (Crossing, self.crossing_exit),
        ]
    }

    /// Building a journal commit record and the SQE of its flush
    /// barrier — once per fsync, or once per sealed transaction under
    /// group commit.
    pub fn commit_record(&self) -> [Item; 2] {
        [(Journal, self.journal_commit), (Drv, self.drv_submit)]
    }

    /// The block layer splitting a request that straddles extents:
    /// one more bio and SQE per segment beyond the first.
    pub fn split_segments(&self, extra: u64) -> [Item; 1] {
        [(Bio, (self.bio_submit + self.drv_submit) * extra)]
    }

    /// One doorbell MMIO write (SQEs enqueued together share it).
    pub fn ring_doorbell(&self) -> [Item; 1] {
        [(Drv, self.doorbell)]
    }

    /// One completion-interrupt entry (coalesced CQEs share it).
    pub fn irq(&self) -> [Item; 1] {
        [(Drv, self.irq_entry)]
    }

    /// One completion-poller visit, productive or not.
    pub fn poll_visit(&self) -> [Item; 1] {
        [(Poll, self.poll_loop)]
    }

    /// Fabric only: encoding `capsules` capsules that haul
    /// `payload_bytes` of in-capsule data between them.
    pub fn capsule_encode(&self, capsules: u64, payload_bytes: u64) -> [Item; 1] {
        let copy = self.fab_encode_per_kb * payload_bytes / 1024;
        [(Fabric, self.fab_encode * capsules + copy)]
    }

    /// Fabric only: decoding one received capsule.
    pub fn capsule_decode(&self) -> [Item; 1] {
        [(Fabric, self.fab_decode)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_table1_rows() {
        let c = LayerCosts::default();
        assert_eq!(c.crossing(), 351);
        assert_eq!(c.syscall, 199);
        assert_eq!(c.fs_total(), 2006);
        assert_eq!(c.bio_total(), 379);
        assert_eq!(c.drv_total(), 113);
        assert_eq!(c.software_total(), 3048);
    }

    #[test]
    fn table1_total_with_device() {
        let c = LayerCosts::default();
        assert_eq!(c.software_total() + 3224, 6272, "Table 1 total 6.27us");
    }

    fn total(burst: impl IntoIterator<Item = Item>) -> Nanos {
        burst.into_iter().map(|(_, ns)| ns).sum()
    }

    /// Per-layer sums of a burst, in `Layer` declaration order.
    fn by_layer(burst: impl IntoIterator<Item = Item>) -> [Nanos; 11] {
        let mut sums = [0; 11];
        for (layer, ns) in burst {
            sums[layer as usize] += ns;
        }
        sums
    }

    /// Costs that are pairwise distinct powers of two, so a burst's
    /// total names exactly the fields it is made of.
    fn distinct() -> LayerCosts {
        LayerCosts {
            crossing_enter: 1 << 0,
            crossing_exit: 1 << 1,
            syscall: 1 << 2,
            fs_submit: 1 << 3,
            fs_complete: 1 << 4,
            bio_submit: 1 << 5,
            bio_complete: 1 << 6,
            drv_submit: 1 << 7,
            doorbell: 1 << 8,
            irq_entry: 1 << 9,
            drv_complete: 1 << 10,
            app_think: 1 << 11,
            bpf_base: 1 << 12,
            bpf_per_insn: 1 << 13,
            extent_cache_lookup: 1 << 14,
            recycle_submit: 1 << 15,
            uring_sqe: 1 << 16,
            uring_cqe: 1 << 17,
            wr_fs_submit: 1 << 18,
            journal_log: 1 << 19,
            journal_commit: 1 << 20,
            fab_encode: 1 << 21,
            fab_decode: 1 << 22,
            fab_encode_per_kb: 1 << 23,
            poll_loop: 1 << 24,
        }
    }

    #[test]
    fn sync_read_bursts_partition_the_software_total() {
        // Down, doorbell, interrupt entry, up: one synchronous read is
        // Table 1's software rows plus the application, layer by layer.
        let c = LayerCosts::default();
        let io = by_layer(
            (c.sync_issue(false).into_iter())
                .chain(c.ring_doorbell())
                .chain(c.irq())
                .chain(c.unwind()),
        );
        assert_eq!(io[Crossing as usize], c.crossing());
        assert_eq!(io[Syscall as usize], c.syscall);
        assert_eq!(io[Fs as usize], c.fs_total());
        assert_eq!(io[Bio as usize], c.bio_total());
        assert_eq!(io[Drv as usize], c.drv_total());
        assert_eq!(io[App as usize], c.app_think);
        assert_eq!(io.iter().sum::<Nanos>(), c.software_total() + c.app_think);
        assert_eq!(c.software_total(), 3048);
    }

    #[test]
    fn write_submit_carve_preserves_ext4_total() {
        // The write path splits the ext4 submit row into allocation +
        // journal append without changing the per-I/O total at the
        // defaults: a write submission costs what a read's does, on
        // both submission paths, and differs only in those two items.
        let c = LayerCosts::default();
        assert_eq!(c.wr_fs_submit + c.journal_log, c.fs_submit);
        assert_eq!(total(c.sync_issue(true)), total(c.sync_issue(false)));
        assert_eq!(total(c.uring_enter(0, 1)), total(c.uring_enter(1, 0)));
        let c = distinct();
        let carve = c.wr_fs_submit + c.journal_log - c.fs_submit;
        assert_eq!(
            total(c.sync_issue(true)) - total(c.sync_issue(false)),
            carve
        );
        assert_eq!(
            total(c.uring_enter(0, 1)) - total(c.uring_enter(1, 0)),
            carve,
            "a write SQE is priced from the same items as a write syscall"
        );
        let w = by_layer(c.sync_issue(true));
        assert_eq!(
            (w[Fs as usize], w[Journal as usize]),
            (c.wr_fs_submit, c.journal_log)
        );
    }

    #[test]
    fn figure2_each_hook_skips_the_layers_above_it() {
        let c = distinct();
        let insns = 3;
        // The user path pays everything, both ways.
        let user = total(c.sync_issue(false)) + total(c.unwind());
        // The syscall hook skips the crossings and the application.
        assert_eq!(
            total(c.syscall_hook_hop(insns)),
            user - c.crossing() - c.app_think + c.bpf_exec(insns)
        );
        // The driver hook also skips the dispatch layer, ext4, bio and
        // the SQE build; it pays the extent cache and the recycle.
        assert_eq!(
            total(c.driver_hook_recycle(insns)),
            c.drv_complete + c.bpf_exec(insns) + c.extent_cache_lookup + c.recycle_submit
        );
        let hop = by_layer(c.driver_hook_recycle(insns));
        assert_eq!(hop[Drv as usize], c.drv_complete + c.recycle_submit);
        assert_eq!(hop[Bpf as usize], c.bpf_exec(insns));
        assert_eq!(hop[ExtentCache as usize], c.extent_cache_lookup);
        let hop = by_layer(c.syscall_hook_hop(insns));
        assert_eq!(hop[Crossing as usize] + hop[App as usize], 0);
        assert_eq!(hop[Syscall as usize], c.syscall);
        assert_eq!(hop[Fs as usize], c.fs_total());
        assert_eq!(hop[Bio as usize], c.bio_total());
        assert_eq!(hop[Drv as usize], c.drv_complete + c.drv_submit);
    }

    #[test]
    fn every_burst_is_made_of_exactly_its_fields() {
        // Distinct powers of two: each total is the set of fields paid.
        let c = distinct();
        assert_eq!(
            total(c.sync_issue(false)),
            c.app_think + c.crossing_enter + c.syscall + c.fs_submit + c.bio_submit + c.drv_submit
        );
        assert_eq!(
            total(c.unwind()),
            c.drv_complete + c.bio_complete + c.fs_complete + c.crossing_exit
        );
        // A batch of 2 reads + 1 write.
        let batch = by_layer(c.uring_enter(2, 1));
        assert_eq!(batch[App as usize], 3 * c.app_think);
        assert_eq!(batch[Crossing as usize], c.crossing_enter);
        assert_eq!(batch[Syscall as usize], 3 * (c.uring_sqe + c.uring_cqe));
        assert_eq!(batch[Fs as usize], 2 * c.fs_submit + c.wr_fs_submit);
        assert_eq!(batch[Journal as usize], c.journal_log);
        assert_eq!(batch[Bio as usize], 3 * c.bio_submit);
        assert_eq!(batch[Drv as usize], 3 * c.drv_submit);
        assert_eq!(c.uring_wake(), [(Crossing, c.crossing_exit)]);
        assert_eq!(
            by_layer(c.rearm_ioctl()),
            by_layer([
                (Crossing, c.crossing()),
                (Syscall, c.syscall),
                (Fs, c.fs_submit)
            ])
        );
        assert_eq!(
            c.commit_record(),
            [(Journal, c.journal_commit), (Drv, c.drv_submit)]
        );
        assert_eq!(
            c.split_segments(2),
            [(Bio, 2 * (c.bio_submit + c.drv_submit))]
        );
        assert_eq!(c.ring_doorbell(), [(Drv, c.doorbell)]);
        assert_eq!(c.irq(), [(Drv, c.irq_entry)]);
        assert_eq!(c.poll_visit(), [(Poll, c.poll_loop)]);
        assert_eq!(
            c.capsule_encode(2, 4096),
            [(Fabric, 2 * c.fab_encode + 4 * c.fab_encode_per_kb)]
        );
        assert_eq!(c.capsule_decode(), [(Fabric, c.fab_decode)]);
        assert_eq!(c.hook_run(2), (Bpf, c.bpf_base + 2 * c.bpf_per_insn));
        assert_eq!(c.extent_lookup(), (ExtentCache, c.extent_cache_lookup));
    }

    #[test]
    fn bpf_cost_scales_with_insns() {
        let c = LayerCosts::default();
        assert_eq!(c.bpf_exec(0), c.bpf_base);
        assert_eq!(c.bpf_exec(100), c.bpf_base + 200);
    }
}
