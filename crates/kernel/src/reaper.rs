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
//! The [`Reaper`] owns the per-queue-pair state machine (armed
//! timers, adaptive depth, the hybrid load signal and window); the
//! [`Machine`](crate::machine::Machine) keeps what it always had —
//! event scheduling, CPU charging, and the reap itself — and consults
//! the reaper for *when* and *by which mechanism*. The reaper keeps no
//! copy of the queue pair: an interrupt timer arms on the device's
//! in-flight completion instants
//! ([`NvmeDevice::due`](bpfstor_device::NvmeDevice::due)).

use bpfstor_sim::Nanos;

/// Which reaping mechanism is live on a queue pair right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReapKind {
    /// Completions are delivered by (coalesced) interrupts.
    #[default]
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
    /// Sliding-window length in reap-time load samples: 1 to
    /// [`MAX_HYBRID_WINDOW`].
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

/// The longest [`HybridConfig::window`]. Each queue pair holds its own
/// window, so at [`bpfstor_sim::MAX_CORES`] queue pairs the windows
/// cost what the rings' first 64 slots do.
pub const MAX_HYBRID_WINDOW: usize = 1024;

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

/// What a [`ReapMode`] turns on ([`ReapMode::parts`]).
type ModeParts = (
    Option<AdaptiveIrqConfig>,
    Option<PollConfig>,
    Option<HybridConfig>,
);

impl ReapMode {
    /// What the mode turns on: rate-adaptive interrupt parameters (else
    /// the static knobs), a poller, load-driven switching. A pure
    /// poller never arms an interrupt, so its interrupt parameters are
    /// never read.
    pub(crate) fn parts(&self) -> ModeParts {
        match *self {
            ReapMode::Interrupt => (None, None, None),
            ReapMode::AdaptiveIrq(c) => (Some(c), None, None),
            ReapMode::Polled(p) => (None, Some(p), None),
            ReapMode::Hybrid(c) => (Some(c.irq), Some(c.poll), Some(c)),
        }
    }
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
#[derive(Debug, Default)]
struct QpReap {
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
    /// Peak in-flight depth seen at doorbell time since the last
    /// productive reap: the hybrid scheduler's load signal. Sampling
    /// the instantaneous residue at reap time instead would read a
    /// promptly-polled queue as idle and a coalesced one as busy.
    load_peak: usize,
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
    /// in-flight completion posts.
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
    /// [`ReapMode::Interrupt`]. The mode and the knobs are a checked
    /// configuration's ([`crate::MachineConfig::check`]).
    pub fn new(mode: ReapMode, nr_queues: usize, static_ns: Nanos, static_depth: u32) -> Self {
        let (irq, poll, hybrid) = mode.parts();
        let policy = Policy {
            // The hybrid pair starts interrupt-driven and earns its
            // poller under load.
            start: match (poll, hybrid) {
                (Some(_), None) => ReapKind::Polled,
                _ => ReapKind::Interrupt,
            },
            start_depth: irq.map_or(static_depth, |c| c.min_depth),
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
            active: self.policy.start,
            depth: self.policy.start_depth,
            window: vec![0; self.policy.hybrid.map_or(0, |h| h.window)],
            ..QpReap::default()
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

    /// Records the in-flight `depth` of `qp` after a doorbell ring (the
    /// hybrid scheduler's load signal keeps its peak).
    pub fn note_doorbell(&mut self, qp: usize, depth: usize) {
        let q = &mut self.qps[qp];
        q.load_peak = q.load_peak.max(depth);
    }

    /// (Re-)arms the interrupt timer for `qp` from its in-flight
    /// completions, `due(k)` being the instant the `k`-th of them posts
    /// (in posting order; `None` past the last): the interrupt fires
    /// when the aggregation threshold is reached, or the coalescing
    /// budget after the first CQE, whichever is earlier. Returns the
    /// fire instant when a new `Ev::IrqFire` must be pushed (an
    /// already-armed matching timer returns `None`).
    pub fn arm_irq(
        &mut self,
        qp: usize,
        mut due: impl FnMut(usize) -> Option<Nanos>,
    ) -> Option<Nanos> {
        let q = &mut self.qps[qp];
        let Some(first) = due(0) else {
            q.irq_at = None;
            return None;
        };
        let by_time = first.saturating_add(self.policy.irq_budget_ns);
        let fire = match due(q.depth as usize - 1) {
            Some(by_depth) => by_depth.min(by_time),
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

    /// Digests one reap of `reaped` CQEs drained at `now` via `via`,
    /// `residue` commands left outstanding: feeds the
    /// adaptive-coalescing controller, and runs the hybrid scheduler on
    /// one load sample — the peak doorbell-time depth since the last
    /// productive reap, floored by what this reap drained plus the
    /// residue. The peak resets only on productive reaps, so idle poll
    /// visits re-observe recent pressure instead of reporting a
    /// spurious lull.
    pub fn note_reap(
        &mut self,
        now: Nanos,
        qp: usize,
        reaped: usize,
        residue: usize,
        via: ReapKind,
    ) {
        let q = &mut self.qps[qp];
        let load = q.load_peak.max(residue + reaped);
        if reaped > 0 {
            q.load_peak = 0;
            if via == ReapKind::Interrupt {
                self.adapt_depth(now, qp, reaped);
            }
        }
        self.observe_load(now, qp, load);
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
    fn observe_load(&mut self, now: Nanos, qp: usize, load: usize) {
        let Some(cfg) = self.policy.hybrid else {
            return;
        };
        let (high, low, dwell) = (cfg.high_watermark, cfg.low_watermark, cfg.dwell);
        let q = &mut self.qps[qp];
        let len = q.window.len();
        q.window[q.window_pos] = load;
        q.window_pos = (q.window_pos + 1) % len;
        q.window_len = (q.window_len + 1).min(len);
        if q.dwell_left > 0 {
            q.dwell_left -= 1;
            return;
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
            _ => return,
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
    }
}

/// Weighted fair reaping: deficit-round-robin service order over the
/// pending CQEs of one queue pair.
///
/// Each reap drains the completion ring into a FIFO batch; with several
/// tenants sharing the queue pair, FIFO order lets one tenant's
/// completion storm push every other tenant's completions to the back of
/// every batch. `FairSched` reorders each batch deficit-round-robin:
/// tenants take turns from a per-queue-pair cursor, each turn banks
/// `weight` credits, and servicing one CQE spends one credit — so a
/// weight-4 tenant drains four CQEs per round to a weight-1 tenant's
/// one, while FIFO order is preserved *within* each tenant.
///
/// A CQE costs one whole credit and an emptied queue forfeits what is
/// left, so every turn ends with its tenant's deficit at zero: the turn
/// that serves a tenant's `j`-th CQE of the batch is its `j / weight`-th.
/// The service order is therefore a sort by `(j / weight, (tenant −
/// cursor) mod tenants, j)`, and the next batch's cursor is one past the
/// tenant served last. Only the cursor persists across batches.
///
/// The schedule is a pure permutation of the batch — every CQE is
/// serviced exactly once, fair or not — which is what keeps the
/// exactly-once completion property independent of the policy.
#[derive(Debug, Clone)]
pub(crate) struct FairSched {
    /// Per-queue-pair round-robin cursor (the tenant whose turn starts
    /// the next batch).
    cursor: Vec<usize>,
    /// Per-tenant CQEs seen so far in the batch being ordered.
    seen: Vec<u64>,
    /// The batch's sort keys: (turn, tenant's place after the cursor,
    /// batch index).
    keys: Vec<(u64, usize, usize)>,
    /// The last batch's service order (kept for capacity).
    out: Vec<usize>,
}

impl FairSched {
    pub(crate) fn new(nr_queues: usize) -> Self {
        FairSched {
            cursor: vec![0; nr_queues],
            seen: Vec::new(),
            keys: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Clears the cursors (run boundary).
    pub(crate) fn reset(&mut self) {
        self.cursor.fill(0);
    }

    /// Computes the DRR service order for one reaped batch on `qp` over
    /// `nt` tenants: `cqes` yields the owning tenant and its weight (≥ 1)
    /// for the batch's `i`-th CQE (FIFO order). Returns the indices of
    /// the batch in service order — a permutation of `0..n`, the
    /// caller's to consume until the next batch.
    pub(crate) fn order(
        &mut self,
        qp: usize,
        nt: usize,
        cqes: impl Iterator<Item = (usize, u64)>,
    ) -> &mut [usize] {
        let c = self.cursor[qp] % nt;
        self.seen.clear();
        self.seen.resize(nt, 0);
        self.keys.clear();
        for (i, (t, weight)) in cqes.enumerate() {
            let j = self.seen[t];
            self.seen[t] += 1;
            self.keys.push((j / weight, (t + nt - c) % nt, i));
        }
        self.keys.sort_unstable();
        self.out.clear();
        self.out.extend(self.keys.iter().map(|&(_, _, i)| i));
        // A lone CQE is its own order: no turn is spent on it.
        if let [_, .., (_, last, _)] = self.keys[..] {
            self.cursor[qp] = (c + last + 1) % nt;
        }
        &mut self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConfigError, MachineConfig};

    /// The default machine under `reap_mode`, checked.
    fn checked(reap_mode: ReapMode) -> Result<(), ConfigError> {
        let cfg = MachineConfig {
            reap_mode,
            ..MachineConfig::default()
        };
        cfg.check()
    }

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

    /// A queue pair's in-flight completion instants, in posting order.
    fn due(inflight: &[Nanos]) -> impl FnMut(usize) -> Option<Nanos> + '_ {
        |k| inflight.get(k).copied()
    }

    #[test]
    fn static_interrupt_matches_legacy_schedule() {
        let mut r = Reaper::new(ReapMode::Interrupt, 1, 8_000, 4);
        let inflight = [1_000, 2_000, 3_000, 3_500, 9_000];
        // Depth 4 is reached at 3_500, inside the 1_000 + 8_000 budget.
        assert_eq!(r.arm_irq(0, due(&inflight)), Some(3_500));
        assert_eq!(
            r.arm_irq(0, due(&inflight)),
            None,
            "same instant: already armed"
        );
        assert!(!r.irq_due(3_000, 0), "stale guard");
        assert!(r.irq_due(3_500, 0));
        r.note_reap(3_500, 0, 4, 1, ReapKind::Interrupt);
        // One straggler left: the budget, not the depth, now binds.
        assert_eq!(r.arm_irq(0, due(&inflight[4..])), Some(17_000));
        assert_eq!(r.arm_irq(0, due(&[])), None, "nothing in flight");
    }

    #[test]
    fn a_zero_static_depth_is_refused() {
        // A threshold never reached is refused, not read as 1: a
        // "no coalescing" config would lie about itself.
        let cfg = MachineConfig {
            irq_coalesce_depth: 0,
            ..MachineConfig::default()
        };
        assert_eq!(cfg.check(), Err(ConfigError::IrqCoalesceDepth));
    }

    #[test]
    #[should_panic(expected = "value: PollInterval")]
    fn zero_poll_interval_panics() {
        checked(ReapMode::Polled(PollConfig { interval_ns: 0 })).unwrap();
    }

    #[test]
    #[should_panic(expected = "value: HybridWindow(0)")]
    fn zero_hybrid_window_panics() {
        let cfg = HybridConfig {
            window: 0,
            ..HybridConfig::default()
        };
        checked(ReapMode::Hybrid(cfg)).unwrap();
    }

    #[test]
    #[should_panic(expected = "value: Watermarks(4, 4)")]
    fn hybrid_watermarks_that_do_not_straddle_panic() {
        let cfg = HybridConfig {
            low_watermark: 4,
            high_watermark: 4,
            ..HybridConfig::default()
        };
        checked(ReapMode::Hybrid(cfg)).unwrap();
    }

    #[test]
    #[should_panic(expected = "value: AdaptiveDepths(0, 32)")]
    fn zero_adaptive_min_depth_panics() {
        let cfg = AdaptiveIrqConfig {
            min_depth: 0,
            ..AdaptiveIrqConfig::default()
        };
        checked(ReapMode::AdaptiveIrq(cfg)).unwrap();
    }

    #[test]
    #[should_panic(expected = "value: AdaptiveDepths(4, 2)")]
    fn adaptive_max_depth_below_min_depth_panics() {
        let cfg = AdaptiveIrqConfig {
            min_depth: 4,
            max_depth: 2,
            budget_us: 8,
        };
        checked(ReapMode::AdaptiveIrq(cfg)).unwrap();
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
        r.note_reap(1_000, 0, 1, 0, ReapKind::Interrupt);
        assert_eq!(r.active(0), ReapKind::Interrupt);
        // Heavy load (one drained, 15 left) trips the high watermark:
        // the window's rounded mean of 1 and 16 is 9.
        r.note_reap(2_000, 0, 1, 15, ReapKind::Interrupt);
        assert_eq!(r.active(0), ReapKind::Polled);
        assert_eq!(r.stats().mode_transitions, 1);
        assert_eq!(r.stats().transitions[0].to, ReapKind::Polled);
        // Dwell: three samples are ignored before the next switch, idle
        // or not.
        for i in 0..3 {
            r.note_reap(3_000 + i, 0, 0, 0, ReapKind::Polled);
            assert_eq!(r.active(0), ReapKind::Polled, "hysteresis holds");
        }
        // Once the dwell expires and the window has drained low, it
        // returns to interrupts.
        for i in 0..4 {
            r.note_reap(4_000 + i, 0, 0, 0, ReapKind::Polled);
        }
        assert_eq!(r.active(0), ReapKind::Interrupt);
        assert_eq!(r.stats().mode_transitions, 2);
    }

    #[test]
    fn hybrid_load_is_the_doorbell_peak_until_a_productive_reap() {
        let cfg = HybridConfig {
            high_watermark: 4,
            low_watermark: 1,
            window: 1,
            dwell: 0,
            ..HybridConfig::default()
        };
        let mut r = Reaper::new(ReapMode::Hybrid(cfg), 1, 0, 1);
        // A 6-deep doorbell whose reap finds one CQE and nothing left:
        // the load is the peak, not what the reap saw.
        r.note_doorbell(0, 6);
        r.note_doorbell(0, 2);
        r.note_reap(100, 0, 1, 0, ReapKind::Interrupt);
        assert_eq!(r.active(0), ReapKind::Polled, "the peak is the load");
        // An empty visit re-observes the peak...
        r.note_doorbell(0, 5);
        r.note_reap(200, 0, 0, 1, ReapKind::Polled);
        assert_eq!(r.active(0), ReapKind::Polled, "5, not the residue 1");
        r.note_reap(300, 0, 1, 0, ReapKind::Polled);
        assert_eq!(r.active(0), ReapKind::Polled);
        // ...and a productive reap resets it.
        r.note_reap(400, 0, 0, 0, ReapKind::Polled);
        assert_eq!(r.active(0), ReapKind::Interrupt);
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
        let fire = r.arm_irq(0, due(&[5_000])).expect("armed");
        r.note_reap(1_000, 0, 0, 4, ReapKind::Interrupt);
        assert_eq!(r.active(0), ReapKind::Polled);
        assert!(!r.irq_due(fire, 0), "abandoned interrupt is stale");
        let visit = r.arm_poll(0, 1_250).expect("poller armed");
        r.note_reap(1_250, 0, 0, 0, ReapKind::Polled);
        assert_eq!(r.active(0), ReapKind::Interrupt);
        assert!(!r.poll_due(visit, 0), "abandoned poll visit is stale");
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut r = Reaper::new(ReapMode::Hybrid(HybridConfig::default()), 2, 0, 1);
        for _ in 0..16 {
            r.note_reap(100, 1, 1, 100, ReapKind::Interrupt);
        }
        r.note_doorbell(1, 10);
        assert!(r.stats().mode_transitions > 0);
        r.reset();
        assert_eq!(r.stats(), &ReaperStats::default());
        assert_eq!(r.active(1), ReapKind::Interrupt);
        assert_eq!(r.qps[1].load_peak, 0);
    }

    /// Orders `batch` (the owning tenant of each CQE, FIFO) on `qp` with
    /// the tenants' `weights`.
    fn fair(f: &mut FairSched, qp: usize, weights: &[u64], batch: &[usize]) -> Vec<usize> {
        let cqes = batch.iter().map(|&t| (t, weights[t]));
        f.order(qp, weights.len(), cqes).to_vec()
    }

    #[test]
    fn fair_sched_is_a_permutation_and_preserves_per_tenant_fifo() {
        let mut f = FairSched::new(1);
        let batch = [0, 0, 1, 0, 1, 1, 0, 1];
        let order = fair(&mut f, 0, &[1, 1], &batch);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..batch.len()).collect::<Vec<_>>());
        for t in [0, 1] {
            let served: Vec<usize> = order.iter().copied().filter(|&i| batch[i] == t).collect();
            let mut sorted = served.clone();
            sorted.sort_unstable();
            assert_eq!(served, sorted, "tenant {t} served out of FIFO order");
        }
    }

    #[test]
    fn fair_sched_splits_service_by_weight() {
        let mut f = FairSched::new(1);
        // 8 CQEs each, interleaved arrival. DRR must front-load tenant 0
        // three-to-one: among the first 8 served, 6 belong to tenant 0.
        let batch: Vec<usize> = (0..16).map(|i| i % 2).collect();
        let order = fair(&mut f, 0, &[3, 1], &batch);
        let t0_in_first_half = order[..8].iter().filter(|&&i| batch[i] == 0).count();
        assert_eq!(t0_in_first_half, 6, "weight 3:1 should serve 6:2");
    }

    #[test]
    fn fair_sched_single_tenant_is_fifo() {
        let mut f = FairSched::new(2);
        assert_eq!(fair(&mut f, 1, &[1], &[0; 5]), [0, 1, 2, 3, 4]);
        assert_eq!(fair(&mut f, 1, &[1], &[0]), [0], "a lone CQE is served");
        assert!(fair(&mut f, 1, &[1], &[]).is_empty());
    }

    /// Deficit round robin as the textbook states it, turn by turn: the
    /// oracle the sort in [`FairSched::order`] is checked against. Its
    /// deficits persist across batches, as a DRR's may.
    struct Drr {
        weights: Vec<u64>,
        /// Per-queue-pair, per-tenant deficits (banked credits).
        banked: Vec<Vec<u64>>,
        cursor: Vec<usize>,
    }

    impl Drr {
        fn order(&mut self, qp: usize, batch: &[usize]) -> Vec<usize> {
            let nt = self.weights.len();
            let mut queues = vec![std::collections::VecDeque::new(); nt];
            for (i, &t) in batch.iter().enumerate() {
                queues[t].push_back(i);
            }
            let mut out = Vec::new();
            if batch.len() <= 1 {
                out.extend(queues.iter_mut().find_map(|q| q.pop_front()));
                return out;
            }
            let mut t = self.cursor[qp] % nt;
            while out.len() < batch.len() {
                let queue = &mut queues[t];
                if !queue.is_empty() {
                    let deficit = &mut self.banked[qp][t];
                    *deficit += self.weights[t];
                    while *deficit > 0 {
                        let Some(i) = queue.pop_front() else {
                            // An emptied queue forfeits its leftover
                            // credits.
                            *deficit = 0;
                            break;
                        };
                        out.push(i);
                        *deficit -= 1;
                    }
                }
                t = (t + 1) % nt;
            }
            self.cursor[qp] = t;
            out
        }
    }

    /// The sort is the DRR: over random worlds of tenants, weights,
    /// queue pairs and batches, both serve every batch in the same order
    /// and leave the same cursor, and the DRR's deficits are all zero
    /// between batches — the fact that lets the sort keep none.
    #[test]
    fn fair_sched_sort_is_the_drr_oracle() {
        let mut rng = bpfstor_sim::SimRng::seed(0xD22);
        for _ in 0..3_000 {
            let nt = 1 + rng.index(5);
            let nq = 1 + rng.index(3);
            let weights: Vec<u64> = (0..nt).map(|_| rng.range(1, 10)).collect();
            let mut f = FairSched::new(nq);
            let mut drr = Drr {
                weights: weights.clone(),
                banked: vec![vec![0; nt]; nq],
                cursor: vec![0; nq],
            };
            for _ in 0..40 {
                let qp = rng.index(nq);
                let len = rng.index(22);
                let batch: Vec<usize> = (0..len).map(|_| rng.index(nt)).collect();
                assert_eq!(fair(&mut f, qp, &weights, &batch), drr.order(qp, &batch));
                assert_eq!(f.cursor, drr.cursor);
                assert!(drr.banked.iter().flatten().all(|&d| d == 0));
            }
        }
    }
}
