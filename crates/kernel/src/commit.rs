//! Journal commit policies: per-fsync barriers, jbd2-style group
//! commit, and background writeback.
//!
//! Every policy makes metadata durable the same way: a seal freezes the
//! running journal transaction, one flush barrier goes to the device,
//! and the barrier's CQE commits the sealed transaction. They differ in
//! when they seal. Under [`CommitPolicy::PerFsync`] every fsyncing
//! chain seals at its own request and pays its own `journal_commit` CPU
//! burst plus a device flush round trip, so write IOPS flatline as
//! writer count grows. The alternatives amortize that barrier:
//!
//! - [`CommitPolicy::Group`] defers sealing the running transaction up
//!   to a timer/size bound so more concurrent fsyncs join it, then
//!   issues **one** flush whose CQE commits every joined handle at
//!   once;
//! - [`CommitPolicy::Writeback`] additionally flushes un-fsynced
//!   writes from a background timer, so a crash loses at most one
//!   flush interval of acknowledged-but-unsynced data (fsync still
//!   forces a seal and keeps its durability contract).
//!
//! The state machine — who waits in the window, who rides an in-flight
//! barrier, when the next seal is due — is `Barrier`: it takes op ids
//! and `now`, returns actions, and never sees the machine's event
//! queue, cores or cost table. Per-fsync barriers never wait and never
//! join, so several may be in flight side by side; the grouped
//! policies keep at most one.
//!
//! Every commit is summarized in a [`CommitStats`] and aggregated into
//! the run's [`CommitLog`] ([`RunReport::commit`]); the headline
//! amortization figure is [`CommitLog::flushes_per_fsync`].
//!
//! [`RunReport::commit`]: crate::chain::RunReport::commit

use bpfstor_fs::SealedTxn;
use bpfstor_sim::Nanos;

/// When the journal's running transaction seals and pays its flush
/// barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitPolicy {
    /// Every fsync seals what was logged before it and flushes
    /// immediately — one barrier per fsyncing chain, never shared. The
    /// default.
    #[default]
    PerFsync,
    /// Group commit: the first fsync arms a seal timer and waits; the
    /// transaction seals when `max_wait_us` expires or `max_handles`
    /// fsyncs have joined, whichever comes first. One barrier commits
    /// every joined handle; fsyncs arriving while that barrier is in
    /// flight park on it (their records permitting) instead of issuing
    /// their own.
    Group {
        /// Longest an fsync waits for company before the seal, in
        /// microseconds. `0` seals on the next event-loop step.
        max_wait_us: u64,
        /// Seal early once this many fsyncs have joined the window.
        /// `1` degenerates to per-fsync timing (still one barrier per
        /// seal, but nothing waits); `0` is refused
        /// ([`crate::ConfigError::GroupMaxHandles`]).
        max_handles: u32,
    },
    /// Group commit plus background writeback: un-fsynced journal
    /// records are sealed and flushed by a timer every
    /// `flush_interval_us`, bounding un-synced data loss without any
    /// application fsync. Explicit fsyncs still force a seal (with no
    /// added wait) and block until their barrier's CQE.
    Writeback {
        /// Background flush period, in microseconds; `0` is refused
        /// ([`crate::ConfigError::WritebackInterval`]).
        flush_interval_us: u64,
    },
}

/// One committed transaction, as the barrier's CQE saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitStats {
    /// Writer handles that joined the transaction before its seal.
    pub handles: usize,
    /// Journal records the transaction carried.
    pub records: usize,
    /// Seal-to-CQE latency of the flush barrier.
    pub barrier_ns: Nanos,
}

/// Aggregate commit activity of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitLog {
    /// Transactions committed (barriers whose CQE arrived).
    pub commits: u64,
    /// Writer handles committed across them.
    pub handles: u64,
    /// Journal records committed across them.
    pub records: u64,
    /// Total seal-to-CQE barrier time.
    pub barrier_ns: Nanos,
    /// Largest single commit, in handles.
    pub max_handles: u64,
    /// Application fsyncs that requested a barrier.
    pub fsyncs: u64,
    /// Fsyncs that parked on an already-in-flight barrier instead of
    /// issuing (or waiting for) their own.
    pub barrier_joins: u64,
    /// Seals forced by the background writeback timer rather than an
    /// application fsync.
    pub writeback_flushes: u64,
}

impl CommitLog {
    /// Folds one commit into the aggregate.
    pub fn absorb(&mut self, c: CommitStats) {
        self.commits += 1;
        self.handles += c.handles as u64;
        self.records += c.records as u64;
        self.barrier_ns += c.barrier_ns;
        self.max_handles = self.max_handles.max(c.handles as u64);
    }

    /// Flush barriers issued per application fsync — the amortization
    /// headline. `1.0` under per-fsync commit; below `1.0` once group
    /// commit shares barriers. Writeback flushes with no fsync in the
    /// run report as `0.0`.
    pub fn flushes_per_fsync(&self) -> f64 {
        if self.fsyncs == 0 {
            0.0
        } else {
            (self.commits - self.writeback_flushes.min(self.commits)) as f64 / self.fsyncs as f64
        }
    }

    /// Mean handles per committed transaction.
    pub fn mean_handles(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.handles as f64 / self.commits as f64
        }
    }

    /// Mean seal-to-CQE barrier latency.
    pub fn mean_barrier_ns(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.barrier_ns as f64 / self.commits as f64
        }
    }
}

/// What the machine must do for one fsync's barrier request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Request {
    /// Parked on the in-flight barrier: its sealed transaction already
    /// covers the fsync's records, so its CQE makes them durable.
    Join,
    /// Queued in the window awaiting the next seal; nothing to schedule
    /// (a timer is already armed, or the seal chains at the in-flight
    /// barrier's CQE).
    Window,
    /// The window is full, or the policy never waits: seal now.
    SealNow,
    /// First fsync of an idle window: schedule its seal timer.
    ArmTimer {
        /// Instant the timer fires.
        at: Nanos,
        /// Epoch the timer event must carry.
        epoch: u64,
    },
}

/// What a background writeback tick asks of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tick {
    /// Journal clean: stay disarmed until the next un-fsynced write.
    Idle,
    /// A barrier is in flight: check again next period.
    Rearm {
        /// Instant the next tick fires.
        at: Nanos,
        /// Epoch the tick event must carry.
        epoch: u64,
    },
    /// Seal the running transaction. `background` means no fsync is
    /// waiting, so a kernel-internal op must lead the barrier
    /// ([`Barrier::seal`]'s `internal` argument).
    Seal {
        /// Whether the seal needs an internal leader.
        background: bool,
    },
}

/// Everything a barrier's CQE releases.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Release {
    /// Fsyncs to complete, leader first. A background barrier's
    /// internal leader is not among them.
    pub ids: Vec<usize>,
    /// The transaction the barrier makes durable.
    pub txn: SealedTxn,
    /// What the commit log records of it.
    pub stats: CommitStats,
    /// Sealed by the writeback timer rather than an application fsync.
    pub background: bool,
    /// Device time of the barrier's flush command, for the machine to
    /// re-split across the released fsyncs' tenants.
    pub flush_dev_ns: Nanos,
    /// Fsyncs queued up behind this barrier: seal the next transaction
    /// right away (jbd2's chained commit).
    pub seal_next: bool,
}

/// A sealed transaction awaiting its flush barrier's CQE.
struct InFlight {
    /// The op whose flush command carries the barrier.
    leader: usize,
    /// Fsyncs the CQE releases: the leader first (unless it is
    /// internal), then everything sealed with it or joined since.
    waiters: Vec<usize>,
    txn: SealedTxn,
    sealed_at: Nanos,
    flush_dev_ns: Nanos,
    background: bool,
}

/// The barrier state machine shared by every fsyncing chain: which
/// fsyncs wait in the window, which ride an in-flight barrier, and when
/// the next seal is due. Inputs are op ids and `now`; outputs are
/// actions — the machine owns the journal, the event queue and every
/// charge.
#[derive(Default)]
pub(crate) struct Barrier {
    policy: CommitPolicy,
    /// Sealed transactions awaiting their CQEs, keyed by leader: at
    /// most one under the grouped policies, one per fsync in flight
    /// under [`CommitPolicy::PerFsync`].
    in_flight: Vec<InFlight>,
    /// Fsyncs awaiting the next seal (the group-commit window).
    window: Vec<usize>,
    /// Released waiter lists, emptied ([`Barrier::retire`]): each seal
    /// takes one as the next window, so no list regrows.
    retired: Vec<Vec<usize>>,
    /// Seal again as soon as the in-flight barrier's CQE lands.
    window_due: bool,
    /// Whether a live seal timer is outstanding.
    timer_armed: bool,
    /// Epoch of live seal timers; bumped on every seal and run reset so
    /// superseded timers die at pop time.
    seal_epoch: u64,
    /// Whether a live writeback tick is outstanding.
    wb_armed: bool,
    /// Epoch of live writeback ticks.
    wb_epoch: u64,
}

impl Barrier {
    /// An idle barrier under a checked policy
    /// ([`crate::MachineConfig::check`]).
    pub(crate) fn new(policy: CommitPolicy) -> Self {
        Barrier {
            policy,
            ..Barrier::default()
        }
    }

    /// Per-run reset. A run never starts with a barrier in flight
    /// (every prior chain delivered), so only the timers reset — and
    /// their epochs are bumped, not zeroed, which kills any timer event
    /// an earlier run or one-shot left in the queue.
    pub(crate) fn reset(&mut self) {
        debug_assert!(self.in_flight.is_empty() && self.window.is_empty());
        self.seal_epoch += 1;
        self.timer_armed = false;
        self.window_due = false;
        self.wb_epoch += 1;
        self.wb_armed = false;
    }

    /// True for a seal timer superseded by a later seal or run reset.
    pub(crate) fn seal_timer_stale(&self, epoch: u64) -> bool {
        epoch != self.seal_epoch
    }

    /// True for a writeback tick superseded by a run reset.
    pub(crate) fn writeback_tick_stale(&self, epoch: u64) -> bool {
        epoch != self.wb_epoch
    }

    /// Routes one fsync whose records end at `journal_end`: under a
    /// grouped policy, park on the in-flight barrier when its sealed
    /// transaction covers them, else join the window awaiting the next
    /// seal; under [`CommitPolicy::PerFsync`], seal now.
    pub(crate) fn request(&mut self, id: usize, journal_end: usize, now: Nanos) -> Request {
        // Per-fsync barriers are never shared, so never joined.
        let grouped = self.policy != CommitPolicy::PerFsync;
        if let Some(f) = self.in_flight.first_mut().filter(|_| grouped) {
            if journal_end <= f.txn.end {
                f.waiters.push(id);
                return Request::Join;
            }
            // Records landed after the seal — they need the *next*
            // transaction, chained at the in-flight barrier's CQE.
            self.window.push(id);
            self.window_due = true;
            return Request::Window;
        }
        self.window.push(id);
        match self.policy {
            CommitPolicy::Group {
                max_wait_us,
                max_handles,
            } => {
                if self.window.len() >= max_handles as usize {
                    Request::SealNow
                } else if self.timer_armed {
                    Request::Window
                } else {
                    self.timer_armed = true;
                    Request::ArmTimer {
                        at: now + max_wait_us.saturating_mul(1_000),
                        epoch: self.seal_epoch,
                    }
                }
            }
            // Neither waits for company: writeback batches only
            // opportunistically (joins + chaining), per-fsync never.
            CommitPolicy::Writeback { .. } | CommitPolicy::PerFsync => Request::SealNow,
        }
    }

    /// Records the journal transaction just sealed and returns the op
    /// that must carry its single flush through the submission path:
    /// the first windowed fsync (the rest park on the barrier), or
    /// `internal` — a kernel op the caller allocated — for a background
    /// seal with nobody waiting.
    pub(crate) fn seal(&mut self, txn: SealedTxn, now: Nanos, internal: Option<usize>) -> usize {
        debug_assert!(
            self.in_flight.is_empty() || self.policy == CommitPolicy::PerFsync,
            "one grouped barrier in flight"
        );
        self.seal_epoch += 1;
        self.timer_armed = false;
        self.window_due = false;
        let next = self.retired.pop().unwrap_or_default();
        let waiters = std::mem::replace(&mut self.window, next);
        debug_assert_eq!(internal.is_some(), waiters.is_empty());
        let leader = internal.unwrap_or_else(|| waiters[0]);
        self.in_flight.push(InFlight {
            leader,
            waiters,
            txn,
            sealed_at: now,
            flush_dev_ns: 0,
            background: internal.is_some(),
        });
        leader
    }

    /// Notes the device time of op `id`'s just-reaped command when that
    /// op leads an in-flight barrier (its flush's CQE).
    pub(crate) fn note_device_time(&mut self, id: usize, ns: Nanos) {
        if let Some(f) = self.in_flight.iter_mut().find(|f| f.leader == id) {
            f.flush_dev_ns = ns;
        }
    }

    /// The CQE of the barrier `leader` carries: its sealed transaction
    /// is durable and every fsync parked on it releases at once.
    pub(crate) fn on_cqe(&mut self, leader: usize, now: Nanos) -> Release {
        let at = self.in_flight.iter().position(|f| f.leader == leader);
        let f = self
            .in_flight
            .swap_remove(at.expect("its barrier is in flight"));
        let seal_next = self.window_due && !self.window.is_empty();
        self.window_due = seal_next;
        Release {
            ids: f.waiters,
            txn: f.txn,
            stats: CommitStats {
                handles: f.txn.handles,
                records: f.txn.records,
                barrier_ns: now.saturating_sub(f.sealed_at),
            },
            background: f.background,
            flush_dev_ns: f.flush_dev_ns,
            seal_next,
        }
    }

    /// Takes back a released waiter list ([`Release::ids`]) once the
    /// machine has completed its fsyncs, for its capacity.
    pub(crate) fn retire(&mut self, mut ids: Vec<usize>) {
        ids.clear();
        self.retired.push(ids);
    }

    /// A live seal timer fired: true to seal now; otherwise the seal
    /// defers to the in-flight barrier's CQE (or the window is empty).
    pub(crate) fn on_seal_timer(&mut self) -> bool {
        self.timer_armed = false;
        if !self.in_flight.is_empty() {
            self.window_due = true;
            return false;
        }
        !self.window.is_empty()
    }

    /// Under [`CommitPolicy::Writeback`], arms the background tick
    /// after an un-fsynced write completes: `(fire at, epoch)` when
    /// newly armed, `None` when already armed or under another policy.
    pub(crate) fn arm_writeback(&mut self, now: Nanos) -> Option<(Nanos, u64)> {
        let CommitPolicy::Writeback { flush_interval_us } = self.policy else {
            return None;
        };
        if self.wb_armed {
            return None;
        }
        self.wb_armed = true;
        Some((now + flush_interval_us.saturating_mul(1_000), self.wb_epoch))
    }

    /// A live writeback tick fired; `journal_dirty` says whether the
    /// journal holds records that are not yet durable.
    pub(crate) fn on_writeback_tick(&mut self, now: Nanos, journal_dirty: bool) -> Tick {
        self.wb_armed = false;
        if !self.in_flight.is_empty() {
            return match self.arm_writeback(now) {
                Some((at, epoch)) => Tick::Rearm { at, epoch },
                None => Tick::Idle,
            };
        }
        if !self.window.is_empty() {
            // Shouldn't happen (a windowed fsync seals immediately
            // under writeback), but a seal is always safe.
            Tick::Seal { background: false }
        } else if journal_dirty {
            Tick::Seal { background: true }
        } else {
            Tick::Idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_per_fsync() {
        assert_eq!(CommitPolicy::default(), CommitPolicy::PerFsync);
    }

    #[test]
    fn log_aggregates_commits() {
        let mut log = CommitLog::default();
        assert_eq!(log.flushes_per_fsync(), 0.0);
        log.fsyncs = 8;
        log.absorb(CommitStats {
            handles: 6,
            records: 12,
            barrier_ns: 1000,
        });
        log.absorb(CommitStats {
            handles: 2,
            records: 4,
            barrier_ns: 3000,
        });
        assert_eq!(log.commits, 2);
        assert_eq!(log.handles, 8);
        assert_eq!(log.records, 16);
        assert_eq!(log.max_handles, 6);
        assert!((log.flushes_per_fsync() - 0.25).abs() < 1e-9);
        assert!((log.mean_handles() - 4.0).abs() < 1e-9);
        assert!((log.mean_barrier_ns() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn writeback_flushes_do_not_count_against_fsyncs() {
        let mut log = CommitLog {
            fsyncs: 4,
            writeback_flushes: 2,
            ..CommitLog::default()
        };
        for _ in 0..6 {
            log.absorb(CommitStats {
                handles: 1,
                records: 1,
                barrier_ns: 100,
            });
        }
        // 6 commits, 2 of them background: 4 fsync-driven barriers over
        // 4 fsyncs.
        assert!((log.flushes_per_fsync() - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod barrier_tests {
    use super::*;

    const GROUP: CommitPolicy = CommitPolicy::Group {
        max_wait_us: 20,
        max_handles: 3,
    };

    fn txn(end: usize) -> SealedTxn {
        SealedTxn {
            end,
            records: end,
            handles: 1,
        }
    }

    #[test]
    fn fsync_under_the_seal_horizon_joins_and_one_past_it_chains_the_next_seal() {
        let mut b = Barrier::new(GROUP);
        // First fsync of an idle window arms the timer; the second waits.
        assert_eq!(
            b.request(1, 4, 100),
            Request::ArmTimer {
                at: 100 + 20_000,
                epoch: 0
            }
        );
        assert_eq!(b.request(2, 6, 150), Request::Window);
        assert!(b.on_seal_timer());
        // Op 1 leads; op 2 parks with it.
        assert_eq!(b.seal(txn(6), 200, None), 1);
        // Records at or under the seal horizon ride the in-flight barrier.
        assert_eq!(b.request(3, 6, 210), Request::Join);
        // One record past it needs the next transaction.
        assert_eq!(b.request(4, 7, 220), Request::Window);
        b.note_device_time(2, 999); // not the leader: ignored
        b.note_device_time(1, 5_000);
        let rel = b.on_cqe(1, 900);
        assert_eq!(rel.ids, vec![1, 2, 3]);
        assert_eq!(
            rel.stats,
            CommitStats {
                handles: 1,
                records: 6,
                barrier_ns: 700
            }
        );
        assert_eq!(rel.flush_dev_ns, 5_000);
        assert!(!rel.background);
        assert!(rel.seal_next, "op 4 chains a seal at the CQE");
        assert_eq!(b.seal(txn(7), 900, None), 4);
        let rel = b.on_cqe(4, 1_000);
        assert_eq!(rel.ids, vec![4]);
        assert!(!rel.seal_next);
    }

    #[test]
    fn max_handles_seals_immediately() {
        let mut b = Barrier::new(GROUP);
        assert!(matches!(b.request(1, 1, 0), Request::ArmTimer { .. }));
        assert_eq!(b.request(2, 2, 0), Request::Window);
        assert_eq!(b.request(3, 3, 0), Request::SealNow);
        // Writeback never waits for company.
        let mut wb = Barrier::new(CommitPolicy::Writeback {
            flush_interval_us: 500,
        });
        assert_eq!(wb.request(1, 1, 0), Request::SealNow);
    }

    #[test]
    fn stale_epoch_timers_are_ignored() {
        let mut b = Barrier::new(GROUP);
        let Request::ArmTimer { epoch, .. } = b.request(1, 1, 0) else {
            panic!("first fsync arms the timer");
        };
        assert!(!b.seal_timer_stale(epoch));
        // A seal supersedes the armed timer...
        b.seal(txn(1), 10, None);
        assert!(b.seal_timer_stale(epoch));
        b.on_cqe(1, 20);
        // ...and so does a run reset, for both timers.
        let mut wb = Barrier::new(CommitPolicy::Writeback {
            flush_interval_us: 500,
        });
        let (at, tick_epoch) = wb.arm_writeback(1_000).expect("arms");
        assert_eq!(at, 1_000 + 500_000);
        assert_eq!(wb.arm_writeback(2_000), None, "already armed");
        assert!(!wb.writeback_tick_stale(tick_epoch));
        wb.reset();
        assert!(wb.writeback_tick_stale(tick_epoch));
        assert!(wb.arm_writeback(0).is_some(), "reset disarms");
        // A timer that fires while a barrier is in flight defers to its CQE.
        let mut b = Barrier::new(GROUP);
        b.request(1, 1, 0);
        b.request(2, 2, 0);
        b.request(3, 3, 0);
        b.seal(txn(3), 0, None);
        assert!(matches!(b.request(4, 4, 1), Request::Window));
        assert!(!b.on_seal_timer());
        assert!(b.on_cqe(1, 5).seal_next);
    }

    #[test]
    fn background_seal_with_an_empty_window_needs_an_internal_leader() {
        let mut b = Barrier::new(CommitPolicy::Writeback {
            flush_interval_us: 100,
        });
        assert_eq!(b.on_writeback_tick(0, false), Tick::Idle);
        b.arm_writeback(0);
        assert_eq!(
            b.on_writeback_tick(100_000, true),
            Tick::Seal { background: true }
        );
        assert_eq!(b.seal(txn(2), 100_000, Some(42)), 42);
        // While that barrier is in flight the tick re-arms instead.
        assert_eq!(
            b.on_writeback_tick(150_000, true),
            Tick::Rearm {
                at: 250_000,
                epoch: 0
            }
        );
        // A covered fsync may still ride the background barrier.
        assert_eq!(b.request(7, 2, 160_000), Request::Join);
        let rel = b.on_cqe(42, 180_000);
        assert!(rel.background);
        assert_eq!(rel.ids, vec![7], "the internal leader is not released");
    }

    #[test]
    fn per_fsync_barriers_seal_at_each_request_and_fly_side_by_side() {
        let mut b = Barrier::new(CommitPolicy::PerFsync);
        // Never windows, never joins: each fsync seals and leads its own.
        assert_eq!(b.request(1, 4, 0), Request::SealNow);
        assert_eq!(b.seal(txn(4), 0, None), 1);
        assert_eq!(b.request(2, 4, 10), Request::SealNow, "covered, no join");
        assert_eq!(b.seal(txn(4), 10, None), 2);
        b.note_device_time(2, 300);
        // The later barrier may land first; each releases only its own.
        let rel = b.on_cqe(2, 500);
        assert_eq!((rel.ids.as_slice(), rel.flush_dev_ns), (&[2][..], 300));
        assert_eq!(rel.stats.barrier_ns, 490);
        assert!(!rel.seal_next);
        b.retire(rel.ids);
        let rel = b.on_cqe(1, 600);
        assert_eq!(rel.ids, vec![1]);
        b.retire(rel.ids);
        // Released lists come back as windows: nothing regrows.
        assert_eq!(b.retired.len(), 2, "both lists kept for their capacity");
        assert_eq!(b.request(3, 5, 700), Request::SealNow);
        b.seal(txn(5), 700, None);
        assert_eq!(b.retired.len(), 1);
        assert!(b.window.is_empty() && b.window.capacity() > 0);
    }
}
