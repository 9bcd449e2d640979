//! The completion-reaping subsystem: how the kernel learns that the
//! device finished work.
//!
//! The paper's baseline stack is interrupt-driven, but its kernel-bypass
//! comparison point (SPDK-style polling) reaps completion queues from a
//! dedicated poller loop and never takes an interrupt. This module makes
//! that axis a per-machine policy with four selectable modes:
//!
//! - [`ReapMode::Interrupt`] — the classic path: a (statically
//!   configured) coalescing timer arms an interrupt per queue pair, the
//!   handler pays `irq_entry` on the queue pair's owning core and drains
//!   the CQ. This is the pre-reaper behaviour, bit for bit.
//! - [`ReapMode::AdaptiveIrq`] — interrupts whose aggregation threshold
//!   follows the observed CQE arrival rate (NVMe coalescing feedback):
//!   the reaper keeps an EWMA of the inter-completion gap and widens the
//!   depth toward `budget / gap` under load, narrowing back to immediate
//!   delivery when the queue goes quiet.
//! - [`ReapMode::Polled`] — no interrupts at all: a per-core poller
//!   visits the queue pair every [`PollConfig::interval_ns`], paying the
//!   poll-loop cost on the owning core whether or not the CQ has
//!   anything (empty visits are counted in `DeviceStats::empty_polls`).
//!   Completions are reaped within one poll interval of posting, at the
//!   price of burned CPU while the device works.
//! - [`ReapMode::Hybrid`] — a load-adaptive scheduler: each queue pair
//!   starts interrupt-driven, and a sliding window of in-flight depth
//!   observed at reap time switches it to polling past
//!   [`HybridConfig::high_watermark`] and back below
//!   [`HybridConfig::low_watermark`]. A dwell counter enforces
//!   hysteresis so the pair cannot flap on every sample.
//!
//! The [`Reaper`] owns the per-queue-pair state machine (pending
//! completion instants, armed timers, adaptive depth, the hybrid
//! window); the [`Machine`](crate::machine::Machine) keeps what it
//! always had — event scheduling, CPU charging, and the reap itself —
//! and consults the reaper for *when* and *by which mechanism*.

use std::collections::VecDeque;

use bpfstor_sim::Nanos;

/// Which reaping mechanism is live on a queue pair right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReapKind {
    /// Completions are delivered by (coalesced) interrupts.
    Interrupt,
    /// Completions are reaped by the per-core poller loop.
    Polled,
}

/// Dedicated-poller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollConfig {
    /// Gap between poll-loop visits to a queue pair. Each visit costs
    /// `LayerCosts::poll_loop` on the owning core, so the idle duty
    /// cycle is `poll_loop / interval_ns`. At least 1.
    pub interval_ns: Nanos,
}

impl Default for PollConfig {
    fn default() -> Self {
        PollConfig { interval_ns: 250 }
    }
}

/// Adaptive interrupt-coalescing configuration (NVMe aggregation
/// threshold driven by the observed completion rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveIrqConfig {
    /// Lower bound on the aggregation threshold (≥ 1).
    pub min_depth: u32,
    /// Upper bound on the aggregation threshold (≥ `min_depth`).
    pub max_depth: u32,
    /// Latency budget in microseconds: a pending CQE fires an interrupt
    /// at most this long after it is posted, whatever the threshold.
    pub budget_us: u64,
}

impl Default for AdaptiveIrqConfig {
    fn default() -> Self {
        AdaptiveIrqConfig {
            min_depth: 1,
            max_depth: 32,
            budget_us: 8,
        }
    }
}

/// Load-adaptive hybrid scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridConfig {
    /// Poller parameters used while a queue pair is in polled mode.
    pub poll: PollConfig,
    /// Interrupt parameters used while a queue pair is interrupt-driven.
    pub irq: AdaptiveIrqConfig,
    /// Switch to polling when the windowed mean in-flight depth reaches
    /// this many commands.
    pub high_watermark: usize,
    /// Switch back to interrupts when it falls to this many or fewer
    /// (below `high_watermark`).
    pub low_watermark: usize,
    /// Sliding-window length in reap-time load samples (≥ 1).
    pub window: usize,
    /// Hysteresis: samples to ignore after a transition before the next
    /// switch is allowed (keeps the scheduler from flapping).
    pub dwell: u32,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            poll: PollConfig::default(),
            irq: AdaptiveIrqConfig::default(),
            high_watermark: 4,
            low_watermark: 1,
            window: 16,
            dwell: 8,
        }
    }
}

/// The machine-wide completion-delivery policy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ReapMode {
    /// Static interrupt coalescing from `MachineConfig::irq_coalesce_us`
    /// / `irq_coalesce_depth` (the pre-reaper default).
    #[default]
    Interrupt,
    /// Interrupts with a rate-adaptive aggregation threshold.
    AdaptiveIrq(AdaptiveIrqConfig),
    /// Dedicated per-core pollers, no interrupts.
    Polled(PollConfig),
    /// Per-queue-pair switching between polling and interrupts by load.
    Hybrid(HybridConfig),
}

/// One hybrid-scheduler mode switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeTransition {
    /// Simulated instant of the switch.
    pub at: Nanos,
    /// Queue pair that switched.
    pub qp: usize,
    /// Mechanism it switched to.
    pub to: ReapKind,
}

/// Timeline entries kept per run (the count keeps going past the cap).
const TRANSITION_LOG_CAP: usize = 256;

/// Per-run reaping statistics (reported in `RunReport::reaper`): what
/// the reaper decided. What the mechanisms did is counted where it
/// happened — poll visits and interrupts in `LayerTrace::polls`/`irqs`,
/// the poll loop's CPU in `LayerTrace::poll`, idle visits in
/// `DeviceStats::empty_polls`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReaperStats {
    /// CPU nanoseconds spent in interrupt entries (`LayerTrace::drv`
    /// holds them among the rest of the driver's work).
    pub irq_cpu_ns: Nanos,
    /// Hybrid mode switches (total, across queue pairs).
    pub mode_transitions: u64,
    /// Timeline of the first [`TRANSITION_LOG_CAP`] switches.
    pub transitions: Vec<ModeTransition>,
    /// Adaptive-coalescing threshold increases.
    pub depth_widens: u64,
    /// Adaptive-coalescing threshold decreases.
    pub depth_narrows: u64,
    /// Widest aggregation threshold the controller reached.
    pub depth_hwm: u32,
}

/// Per-queue-pair reaping state.
#[derive(Debug)]
struct QpReap {
    /// Completion instants of serviced commands not yet reaped, sorted
    /// ascending (the driver learns them when it rings the doorbell).
    pending: Vec<Nanos>,
    /// The armed interrupt timer; `Ev::IrqFire` events that do not match
    /// are stale and ignored.
    irq_at: Option<Nanos>,
    /// The armed poller visit; `Ev::Poll` events that do not match are
    /// stale and ignored.
    poll_at: Option<Nanos>,
    /// Mechanism currently live on this queue pair.
    active: ReapKind,
    /// Current aggregation threshold (static in `Interrupt` mode,
    /// controller-driven otherwise).
    depth: u32,
    /// EWMA of the inter-completion gap, ns (0 = no observation yet).
    avg_gap: Nanos,
    /// Instant of the last productive interrupt reap (EWMA clock).
    last_reap_at: Nanos,
    /// Sliding window of in-flight depth samples (hybrid only).
    window: Vec<usize>,
    /// Next slot to overwrite in `window`.
    window_pos: usize,
    /// Samples already in `window` (≤ its configured length).
    window_len: usize,
    /// Samples left to ignore before the next switch is allowed.
    dwell_left: u32,
}

/// What the configured [`ReapMode`] (and the two static coalescing
/// knobs) asks of the reaper, normalised once so no method re-derives
/// it from the mode.
#[derive(Debug, Clone, Copy)]
struct Policy {
    /// Mechanism every queue pair starts a run on.
    start: ReapKind,
    /// Aggregation threshold a queue pair starts at (≥ 1) — and keeps,
    /// unless `max_depth` lets the rate controller widen it.
    start_depth: u32,
    /// An armed interrupt fires at most this long after the first
    /// pending CQE.
    irq_budget_ns: Nanos,
    /// Rate-adaptive coalescing: the threshold moves between
    /// `start_depth` and this. `None`: the threshold is static.
    max_depth: Option<u32>,
    /// Gap between poller visits (≥ 1).
    poll_interval_ns: Nanos,
    /// Load-adaptive switching between the two mechanisms (only its
    /// watermarks, window and dwell are read). `None`: a queue pair
    /// stays on `start`.
    hybrid: Option<HybridConfig>,
}

/// The completion-reaping state machine (see the module docs).
pub struct Reaper {
    policy: Policy,
    qps: Vec<QpReap>,
    stats: ReaperStats,
}

impl Reaper {
    /// Builds the reaper for `nr_queues` queue pairs. `static_ns` /
    /// `static_depth` are the legacy coalescing knobs, used only by
    /// [`ReapMode::Interrupt`]. A zero `static_depth` is clamped to one
    /// ("fire immediately"): a depth that can never be reached would
    /// silently disable depth-based firing. The session builder rejects
    /// 0 outright so misconfiguration is loud.
    ///
    /// # Panics
    ///
    /// Panics on a mode that cannot run as written: a zero
    /// [`PollConfig::interval_ns`] or [`HybridConfig::window`], a
    /// [`HybridConfig::low_watermark`] not below `high_watermark`, a zero
    /// [`AdaptiveIrqConfig::min_depth`], or a `max_depth` below it.
    pub fn new(mode: ReapMode, nr_queues: usize, static_ns: Nanos, static_depth: u32) -> Self {
        // What each mode turns on: rate-adaptive interrupt parameters
        // (else the static knobs), a poller, load-driven switching. A
        // pure poller never arms an interrupt, so its interrupt
        // parameters are never read.
        let (irq, poll, hybrid) = match mode {
            ReapMode::Interrupt => (None, None, None),
            ReapMode::AdaptiveIrq(c) => (Some(c), None, None),
            ReapMode::Polled(p) => (None, Some(p), None),
            ReapMode::Hybrid(c) => (Some(c.irq), Some(c.poll), Some(c)),
        };
        if let Some(c) = irq {
            assert!(
                c.min_depth >= 1,
                "min_depth 0 can never fire; use 1 to fire per CQE"
            );
            assert!(
                c.max_depth >= c.min_depth,
                "max_depth {} is below min_depth {}",
                c.max_depth,
                c.min_depth
            );
        }
        if let Some(p) = poll {
            assert!(
                p.interval_ns >= 1,
                "interval_ns 0 polls without end; use 1 or more"
            );
        }
        if let Some(h) = hybrid {
            assert!(
                h.window >= 1,
                "window 0 holds no load sample; use 1 or more"
            );
            assert!(
                h.low_watermark < h.high_watermark,
                "low_watermark {} must be below high_watermark {}: the scheduler would flap",
                h.low_watermark,
                h.high_watermark
            );
        }
        let start_depth = irq.map_or(static_depth.max(1), |c| c.min_depth);
        let policy = Policy {
            // The hybrid pair starts interrupt-driven and earns its
            // poller under load.
            start: match (poll, hybrid) {
                (Some(_), None) => ReapKind::Polled,
                _ => ReapKind::Interrupt,
            },
            start_depth,
            irq_budget_ns: irq.map_or(static_ns, |c| c.budget_us.saturating_mul(1_000)),
            max_depth: irq.map(|c| c.max_depth),
            poll_interval_ns: poll.unwrap_or_default().interval_ns,
            hybrid,
        };
        let mut r = Reaper {
            policy,
            qps: Vec::new(),
            stats: ReaperStats::default(),
        };
        r.qps = (0..nr_queues).map(|_| r.fresh_qp()).collect();
        r
    }

    fn fresh_qp(&self) -> QpReap {
        QpReap {
            pending: Vec::new(),
            irq_at: None,
            poll_at: None,
            active: self.policy.start,
            depth: self.policy.start_depth,
            avg_gap: 0,
            last_reap_at: 0,
            window: vec![0; self.policy.hybrid.map_or(0, |h| h.window)],
            window_pos: 0,
            window_len: 0,
            dwell_left: 0,
        }
    }

    /// Resets all per-queue-pair state and counters for a new run.
    pub fn reset(&mut self) {
        for i in 0..self.qps.len() {
            self.qps[i] = self.fresh_qp();
        }
        self.stats = ReaperStats::default();
    }

    /// The mechanism currently live on `qp`.
    pub fn active(&self, qp: usize) -> ReapKind {
        self.qps[qp].active
    }

    /// The poll interval for `qp`'s poller (polled and hybrid modes).
    pub fn poll_interval(&self) -> Nanos {
        self.policy.poll_interval_ns
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ReaperStats {
        &self.stats
    }

    /// Records completion instants learned at a doorbell ring.
    pub fn note_doorbell(&mut self, qp: usize, times: &[Nanos]) {
        let q = &mut self.qps[qp];
        q.pending.extend_from_slice(times);
        q.pending.sort_unstable();
    }

    /// (Re-)arms the interrupt timer for `qp` from its pending instants:
    /// the interrupt fires when the aggregation threshold is reached, or
    /// the coalescing budget after the first CQE, whichever is earlier.
    /// Returns the fire instant when a new `Ev::IrqFire` must be pushed
    /// (an already-armed matching timer returns `None`).
    pub fn arm_irq(&mut self, qp: usize) -> Option<Nanos> {
        let q = &mut self.qps[qp];
        let Some(&first) = q.pending.first() else {
            q.irq_at = None;
            return None;
        };
        let by_time = first.saturating_add(self.policy.irq_budget_ns);
        let fire = match q.pending.get(q.depth as usize - 1) {
            Some(&by_depth) => by_depth.min(by_time),
            None => by_time,
        };
        if q.irq_at == Some(fire) {
            return None;
        }
        q.irq_at = Some(fire);
        Some(fire)
    }

    /// Arms a poller visit at `at` unless one is already armed. Returns
    /// the instant when a new `Ev::Poll` must be pushed.
    pub fn arm_poll(&mut self, qp: usize, at: Nanos) -> Option<Nanos> {
        let q = &mut self.qps[qp];
        if q.poll_at.is_some() {
            return None;
        }
        q.poll_at = Some(at);
        Some(at)
    }

    /// Stale-timer guard for `Ev::IrqFire`: true exactly when this event
    /// is the armed interrupt and the pair is still interrupt-driven
    /// (consumes the arm).
    pub fn irq_due(&mut self, now: Nanos, qp: usize) -> bool {
        let q = &mut self.qps[qp];
        if q.active != ReapKind::Interrupt || q.irq_at != Some(now) {
            return false;
        }
        q.irq_at = None;
        true
    }

    /// Stale-timer guard for `Ev::Poll` (consumes the arm).
    pub fn poll_due(&mut self, now: Nanos, qp: usize) -> bool {
        let q = &mut self.qps[qp];
        if q.active != ReapKind::Polled || q.poll_at != Some(now) {
            return false;
        }
        q.poll_at = None;
        true
    }

    /// Accounts one interrupt entry's CPU charge.
    pub fn charge_irq(&mut self, cost: Nanos) {
        self.stats.irq_cpu_ns += cost;
    }

    /// Digests one reap: drops elapsed pending instants, feeds the
    /// adaptive-coalescing controller (`reaped` CQEs drained at `now`
    /// via `via`), and runs the hybrid scheduler on the observed
    /// in-flight `load`. Returns the mechanism switched *to* when the
    /// scheduler transitions, so the caller can arm it.
    pub fn note_reap(
        &mut self,
        now: Nanos,
        qp: usize,
        reaped: usize,
        load: usize,
        via: ReapKind,
    ) -> Option<ReapKind> {
        self.qps[qp].pending.retain(|&t| t > now);
        if reaped > 0 && via == ReapKind::Interrupt {
            self.adapt_depth(now, qp, reaped);
        }
        self.observe_load(now, qp, load)
    }

    /// Rate feedback: EWMA the per-CQE gap and retarget the aggregation
    /// threshold at `budget / gap` — sticky under load (a steady arrival
    /// rate holds the threshold wide), immediate delivery when idle.
    fn adapt_depth(&mut self, now: Nanos, qp: usize, reaped: usize) {
        let Some(max_d) = self.policy.max_depth else {
            return;
        };
        let (min_d, budget) = (self.policy.start_depth, self.policy.irq_budget_ns);
        let q = &mut self.qps[qp];
        let elapsed = now.saturating_sub(q.last_reap_at).max(1);
        q.last_reap_at = now;
        let gap = (elapsed / reaped as Nanos).max(1);
        q.avg_gap = if q.avg_gap == 0 {
            gap
        } else {
            (3 * q.avg_gap + gap) / 4
        };
        let target = (budget / q.avg_gap).clamp(min_d as Nanos, max_d as Nanos) as u32;
        if target > q.depth {
            self.stats.depth_widens += 1;
        } else if target < q.depth {
            self.stats.depth_narrows += 1;
        }
        q.depth = target;
        self.stats.depth_hwm = self.stats.depth_hwm.max(target);
    }

    /// Hybrid scheduler: slide `load` into the window and switch
    /// mechanisms at the watermarks, honouring the dwell hysteresis.
    fn observe_load(&mut self, now: Nanos, qp: usize, load: usize) -> Option<ReapKind> {
        let cfg = self.policy.hybrid?;
        let (high, low, dwell) = (cfg.high_watermark, cfg.low_watermark, cfg.dwell);
        let q = &mut self.qps[qp];
        let len = q.window.len();
        q.window[q.window_pos] = load;
        q.window_pos = (q.window_pos + 1) % len;
        q.window_len = (q.window_len + 1).min(len);
        if q.dwell_left > 0 {
            q.dwell_left -= 1;
            return None;
        }
        // Rounded mean: a window mixing 3s and 4s reads as 4, so a
        // watermark of 4 trips on sustained ~4-deep pressure instead of
        // being defeated by integer truncation.
        let sum = q.window[..].iter().take(q.window_len).sum::<usize>();
        let n = q.window_len;
        let avg = (sum + n / 2) / n;
        let to = match q.active {
            ReapKind::Interrupt if avg >= high => ReapKind::Polled,
            ReapKind::Polled if avg <= low => ReapKind::Interrupt,
            _ => return None,
        };
        q.active = to;
        // Timers of the abandoned mechanism die on the due-guards.
        q.irq_at = None;
        q.poll_at = None;
        q.dwell_left = dwell;
        self.stats.mode_transitions += 1;
        if self.stats.transitions.len() < TRANSITION_LOG_CAP {
            self.stats
                .transitions
                .push(ModeTransition { at: now, qp, to });
        }
        Some(to)
    }
}

/// Weighted fair reaping: deficit-round-robin service order over the
/// pending CQEs of one queue pair.
///
/// Each reap drains the completion ring into a FIFO batch; with several
/// tenants sharing the queue pair, FIFO order lets one tenant's
/// completion storm push every other tenant's completions to the back of
/// every batch. `FairSched` reorders each batch deficit-round-robin:
/// tenants take turns, each turn banks `weight` credits, and servicing
/// one CQE spends one credit — so a weight-4 tenant drains four CQEs per
/// round to a weight-1 tenant's one, while FIFO order is preserved
/// *within* each tenant. Deficits and the round-robin cursor persist
/// across batches per queue pair, so fairness holds over the run, not
/// just inside one interrupt.
///
/// The schedule is a pure permutation of the batch — every CQE is
/// serviced exactly once, fair or not — which is what keeps the
/// exactly-once completion property independent of the policy.
#[derive(Debug, Clone)]
pub(crate) struct FairSched {
    /// Per-tenant weights (quantum per DRR turn), indexed by tenant id.
    weights: Vec<u64>,
    /// Per-queue-pair, per-tenant banked credits.
    deficit: Vec<Vec<u64>>,
    /// Per-queue-pair round-robin cursor (the tenant whose turn starts
    /// the next batch).
    cursor: Vec<usize>,
    /// Per-tenant FIFO queues of batch indices; empty between batches.
    queues: Vec<VecDeque<usize>>,
    /// The last batch's service order (kept for capacity).
    out: Vec<usize>,
}

impl FairSched {
    pub(crate) fn new(nr_queues: usize) -> Self {
        FairSched {
            weights: vec![1],
            deficit: vec![vec![0]; nr_queues],
            cursor: vec![0; nr_queues],
            queues: vec![VecDeque::new()],
            out: Vec::new(),
        }
    }

    /// Registers (or re-weights) a tenant. Weights are clamped to ≥ 1 so
    /// no tenant can be starved outright.
    pub(crate) fn set_weight(&mut self, tenant: usize, weight: u64) {
        if self.weights.len() <= tenant {
            self.weights.resize(tenant + 1, 1);
            self.queues.resize_with(tenant + 1, VecDeque::new);
            for d in &mut self.deficit {
                d.resize(tenant + 1, 0);
            }
        }
        self.weights[tenant] = weight.max(1);
    }

    /// Clears banked deficits and cursors (run boundary).
    pub(crate) fn reset(&mut self) {
        for d in &mut self.deficit {
            d.fill(0);
        }
        self.cursor.fill(0);
    }

    /// Computes the DRR service order for one reaped batch on `qp`:
    /// `tenants` yields the owning tenant of the batch's `i`-th CQE
    /// (FIFO order). Returns the indices of the batch in service order
    /// — a permutation of `0..n`, the caller's to consume until the
    /// next batch.
    pub(crate) fn order(&mut self, qp: usize, tenants: impl Iterator<Item = u32>) -> &mut [usize] {
        let nt = self.weights.len();
        let mut n = 0;
        for t in tenants {
            self.queues[(t as usize).min(nt - 1)].push_back(n);
            n += 1;
        }
        self.out.clear();
        if n <= 1 {
            // A lone CQE is its own order: no turn is spent on it.
            self.out
                .extend(self.queues.iter_mut().find_map(VecDeque::pop_front));
            return &mut self.out;
        }
        let mut t = self.cursor[qp] % nt;
        while self.out.len() < n {
            let queue = &mut self.queues[t];
            if !queue.is_empty() {
                self.deficit[qp][t] = self.deficit[qp][t].saturating_add(self.weights[t]);
                while self.deficit[qp][t] > 0 {
                    let Some(i) = queue.pop_front() else {
                        // Standard DRR: an emptied queue forfeits its
                        // leftover credits (no banking while absent).
                        self.deficit[qp][t] = 0;
                        break;
                    };
                    self.out.push(i);
                    self.deficit[qp][t] -= 1;
                }
            }
            t = (t + 1) % nt;
        }
        self.cursor[qp] = t;
        &mut self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adaptive() -> Reaper {
        Reaper::new(
            ReapMode::AdaptiveIrq(AdaptiveIrqConfig {
                min_depth: 1,
                max_depth: 32,
                budget_us: 8,
            }),
            1,
            0,
            1,
        )
    }

    #[test]
    fn static_interrupt_matches_legacy_schedule() {
        let mut r = Reaper::new(ReapMode::Interrupt, 1, 8_000, 4);
        r.note_doorbell(0, &[1_000, 2_000, 3_000, 3_500, 9_000]);
        // Depth 4 is reached at 3_500, inside the 1_000 + 8_000 budget.
        assert_eq!(r.arm_irq(0), Some(3_500));
        assert_eq!(r.arm_irq(0), None, "same instant: already armed");
        assert!(!r.irq_due(3_000, 0), "stale guard");
        assert!(r.irq_due(3_500, 0));
        assert_eq!(r.note_reap(3_500, 0, 4, 0, ReapKind::Interrupt), None);
        // One straggler left: the budget, not the depth, now binds.
        assert_eq!(r.arm_irq(0), Some(17_000));
    }

    #[test]
    fn zero_static_depth_clamps_to_immediate() {
        let mut r = Reaper::new(ReapMode::Interrupt, 1, 0, 0);
        r.note_doorbell(0, &[500]);
        assert_eq!(r.arm_irq(0), Some(500), "depth 0 behaves like depth 1");
    }

    #[test]
    #[should_panic(expected = "interval_ns 0 polls without end")]
    fn zero_poll_interval_panics() {
        Reaper::new(ReapMode::Polled(PollConfig { interval_ns: 0 }), 1, 0, 1);
    }

    #[test]
    #[should_panic(expected = "window 0 holds no load sample")]
    fn zero_hybrid_window_panics() {
        let cfg = HybridConfig {
            window: 0,
            ..HybridConfig::default()
        };
        Reaper::new(ReapMode::Hybrid(cfg), 1, 0, 1);
    }

    #[test]
    #[should_panic(expected = "low_watermark 4 must be below high_watermark 4")]
    fn hybrid_watermarks_that_do_not_straddle_panic() {
        let cfg = HybridConfig {
            low_watermark: 4,
            high_watermark: 4,
            ..HybridConfig::default()
        };
        Reaper::new(ReapMode::Hybrid(cfg), 1, 0, 1);
    }

    #[test]
    #[should_panic(expected = "min_depth 0 can never fire")]
    fn zero_adaptive_min_depth_panics() {
        let cfg = AdaptiveIrqConfig {
            min_depth: 0,
            ..AdaptiveIrqConfig::default()
        };
        Reaper::new(ReapMode::AdaptiveIrq(cfg), 1, 0, 1);
    }

    #[test]
    #[should_panic(expected = "max_depth 2 is below min_depth 4")]
    fn adaptive_max_depth_below_min_depth_panics() {
        let cfg = AdaptiveIrqConfig {
            min_depth: 4,
            max_depth: 2,
            budget_us: 8,
        };
        Reaper::new(ReapMode::AdaptiveIrq(cfg), 1, 0, 1);
    }

    #[test]
    fn adaptive_depth_widens_under_load_and_narrows_when_idle() {
        let mut r = adaptive();
        // A dense completion stream: 8 CQEs per microsecond-ish reap.
        let mut now = 0;
        for _ in 0..6 {
            now += 1_000;
            r.note_reap(now, 0, 8, 0, ReapKind::Interrupt);
        }
        let widened = r.qps[0].depth;
        assert!(
            widened >= 16,
            "8µs budget / 125ns gap should widen well past 16, got {widened}"
        );
        assert!(r.stats().depth_widens > 0);
        assert_eq!(r.stats().depth_hwm, widened);
        // Then a trickle: one CQE every 50µs narrows back to immediate.
        for _ in 0..8 {
            now += 50_000;
            r.note_reap(now, 0, 1, 0, ReapKind::Interrupt);
        }
        assert_eq!(r.qps[0].depth, 1, "idle queue returns to depth 1");
        assert!(r.stats().depth_narrows > 0);
    }

    #[test]
    fn polled_reaps_ignore_the_depth_controller() {
        let mut r = adaptive();
        r.note_reap(1_000, 0, 8, 0, ReapKind::Polled);
        assert_eq!(r.qps[0].depth, 1, "poll reaps do not feed the EWMA");
    }

    #[test]
    fn poll_arm_is_level_triggered() {
        let mut r = Reaper::new(ReapMode::Polled(PollConfig { interval_ns: 250 }), 1, 0, 1);
        assert_eq!(r.active(0), ReapKind::Polled);
        assert_eq!(r.arm_poll(0, 250), Some(250));
        assert_eq!(r.arm_poll(0, 300), None, "one visit armed at a time");
        assert!(!r.poll_due(200, 0), "stale guard");
        assert!(r.poll_due(250, 0));
        assert_eq!(r.arm_poll(0, 500), Some(500), "re-arms after the visit");
    }

    #[test]
    fn hybrid_switches_at_watermarks_with_hysteresis() {
        let cfg = HybridConfig {
            high_watermark: 8,
            low_watermark: 2,
            window: 4,
            dwell: 3,
            ..HybridConfig::default()
        };
        let mut r = Reaper::new(ReapMode::Hybrid(cfg), 1, 0, 1);
        assert_eq!(r.active(0), ReapKind::Interrupt, "starts interrupt-driven");
        // Light load: no switch.
        assert_eq!(r.note_reap(1_000, 0, 1, 1, ReapKind::Interrupt), None);
        // Sustained heavy load trips the high watermark.
        let mut switched = None;
        for i in 0..4 {
            switched = r.note_reap(2_000 + i, 0, 1, 16, ReapKind::Interrupt);
            if switched.is_some() {
                break;
            }
        }
        assert_eq!(switched, Some(ReapKind::Polled));
        assert_eq!(r.active(0), ReapKind::Polled);
        assert_eq!(r.stats().mode_transitions, 1);
        assert_eq!(r.stats().transitions[0].to, ReapKind::Polled);
        // Dwell: three idle samples are ignored before the next switch.
        for i in 0..3 {
            assert_eq!(
                r.note_reap(3_000 + i, 0, 1, 0, ReapKind::Polled),
                None,
                "hysteresis holds"
            );
        }
        // Once the dwell expires and the window has drained low, it
        // returns to interrupts.
        let mut back = None;
        for i in 0..4 {
            back = r.note_reap(4_000 + i, 0, 1, 0, ReapKind::Polled);
            if back.is_some() {
                break;
            }
        }
        assert_eq!(back, Some(ReapKind::Interrupt));
        assert_eq!(r.stats().mode_transitions, 2);
    }

    #[test]
    fn transition_clears_stale_timers() {
        let cfg = HybridConfig {
            high_watermark: 1,
            low_watermark: 0,
            window: 1,
            dwell: 0,
            ..HybridConfig::default()
        };
        let mut r = Reaper::new(ReapMode::Hybrid(cfg), 1, 0, 1);
        r.note_doorbell(0, &[5_000]);
        let fire = r.arm_irq(0).expect("armed");
        assert_eq!(
            r.note_reap(1_000, 0, 0, 4, ReapKind::Interrupt),
            Some(ReapKind::Polled)
        );
        assert!(!r.irq_due(fire, 0), "abandoned interrupt is stale");
        let visit = r.arm_poll(0, 1_250).expect("poller armed");
        assert_eq!(
            r.note_reap(1_250, 0, 0, 0, ReapKind::Polled),
            Some(ReapKind::Interrupt)
        );
        assert!(!r.poll_due(visit, 0), "abandoned poll visit is stale");
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut r = Reaper::new(ReapMode::Hybrid(HybridConfig::default()), 2, 0, 1);
        r.note_doorbell(1, &[10]);
        for _ in 0..16 {
            r.note_reap(100, 1, 1, 100, ReapKind::Interrupt);
        }
        assert!(r.stats().mode_transitions > 0);
        r.reset();
        assert_eq!(r.stats(), &ReaperStats::default());
        assert_eq!(r.active(1), ReapKind::Interrupt);
        assert!(r.qps[1].pending.is_empty());
    }

    #[test]
    fn fair_sched_is_a_permutation_and_preserves_per_tenant_fifo() {
        let mut f = FairSched::new(1);
        f.set_weight(0, 1);
        f.set_weight(1, 1);
        let batch = [0u32, 0, 1, 0, 1, 1, 0, 1];
        let order = f.order(0, batch.iter().copied()).to_vec();
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..batch.len()).collect::<Vec<_>>());
        for t in [0u32, 1] {
            let served: Vec<usize> = order.iter().copied().filter(|&i| batch[i] == t).collect();
            let mut sorted = served.clone();
            sorted.sort_unstable();
            assert_eq!(served, sorted, "tenant {t} served out of FIFO order");
        }
    }

    #[test]
    fn fair_sched_splits_service_by_weight() {
        let mut f = FairSched::new(1);
        f.set_weight(0, 3);
        f.set_weight(1, 1);
        // 8 CQEs each, interleaved arrival. DRR must front-load tenant 0
        // three-to-one: among the first 8 served, 6 belong to tenant 0.
        let batch: Vec<u32> = (0..16).map(|i| i % 2).collect();
        let order = f.order(0, batch.iter().copied());
        let t0_in_first_half = order[..8].iter().filter(|&&i| batch[i] == 0).count();
        assert_eq!(t0_in_first_half, 6, "weight 3:1 should serve 6:2");
    }

    #[test]
    fn fair_sched_single_tenant_is_fifo() {
        let mut f = FairSched::new(2);
        let batch = [0u32; 5];
        assert_eq!(f.order(1, batch.into_iter()), [0, 1, 2, 3, 4]);
        assert_eq!(f.order(1, [0u32].into_iter()), [0], "a lone CQE is served");
        assert!(f.order(1, std::iter::empty()).is_empty());
    }
}
