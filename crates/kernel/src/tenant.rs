//! Tenant identity and per-tenant resource limits.
//!
//! One shared [`crate::Machine`] can serve several *tenants* — mutually
//! untrusting applications multiplexed over the same queue pairs. Every
//! descriptor (and therefore every chain, token, and NVMe command)
//! belongs to exactly one tenant; the machine always has tenant 0
//! ([`DEFAULT_TENANT`]) with default limits, so single-tenant callers
//! never see the machinery.
//!
//! Limits compose three mechanisms:
//!
//! - **SQ slot budgets** ([`TenantLimits::sq_slots`]): a tenant may keep
//!   at most this many commands in flight per queue pair. At the budget,
//!   its submissions park in a per-tenant queue (distinct from device
//!   backpressure) and re-issue when its own completions return — other
//!   tenants' slots are never consumed. `SqAdmission` keeps the meter
//!   and the parked queues.
//! - **Weighted fair reaping** ([`TenantLimits::weight`] +
//!   [`crate::MachineConfig::fair_reap`]): pending CQEs on a queue pair
//!   are serviced deficit-round-robin across tenants in proportion to
//!   weight, so one tenant's completion storm cannot monopolise the
//!   completion path.
//! - **Instruction budgets** ([`TenantLimits::insn_budget`] with the
//!   machine's chain-depth bound,
//!   [`crate::MachineConfig::resubmit_bound`]): the install ioctl
//!   rejects a program whose verified worst case (`max_path ×
//!   chain_depth`) exceeds the tenant's instruction budget, and the
//!   same budget backstops the runtime — every hop of a tenant's chain
//!   executes with the budget's *remainder* (budget minus instructions
//!   already retired by earlier hops), so a runaway program traps
//!   `BudgetExceeded` at its owner's bound even if the limits were
//!   tightened after install.

use bpfstor_sim::{Histogram, Nanos};

use crate::trace::ExecSplit;

/// Identifies one tenant of a shared machine. Tenant 0 always exists.
pub type TenantId = u32;

/// The implicit tenant of every descriptor opened without an explicit
/// tenant ([`crate::Machine::open`]); it has default limits (weight 1,
/// no budgets), so single-tenant machines behave exactly as before.
pub const DEFAULT_TENANT: TenantId = 0;

/// Per-tenant resource limits, fixed at registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLimits {
    /// Fair-reaping weight (deficit-round-robin quantum). Relative: a
    /// weight-4 tenant is serviced four CQEs for every one of a
    /// weight-1 tenant when both have completions pending. Ignored
    /// unless [`crate::MachineConfig::fair_reap`] is on. At
    /// least 1 ([`TenantLimits::check`]).
    pub weight: u64,
    /// Per-queue-pair submission-slot budget: at most this many of the
    /// tenant's commands in flight per queue pair. `None` = unlimited
    /// (the single-tenant default). A request wider than the budget is
    /// still admitted when the tenant has nothing in flight, so
    /// progress is always possible.
    pub sq_slots: Option<usize>,
    /// Verification-time instruction budget for one full chain: a
    /// program is rejected at install when its verified worst-case path
    /// times the machine's chain-depth bound
    /// ([`crate::MachineConfig::resubmit_bound`]) exceeds this. `None`
    /// skips the check.
    pub insn_budget: Option<u64>,
}

impl Default for TenantLimits {
    fn default() -> Self {
        TenantLimits {
            weight: 1,
            sq_slots: None,
            insn_budget: None,
        }
    }
}

impl TenantLimits {
    /// The tenant rule, written once: a tenant whose turns bank no
    /// credit would never be reaped, so its weight is at least 1.
    ///
    /// # Errors
    ///
    /// [`crate::ConfigError::TenantWeight`] for a zero weight.
    pub fn check(&self) -> Result<(), crate::ConfigError> {
        bpfstor_sim::ensure(self.weight >= 1, crate::ConfigError::TenantWeight)
    }

    /// Shorthand for a weight-only tenant (no budgets).
    pub fn weighted(weight: u64) -> Self {
        TenantLimits {
            weight,
            ..TenantLimits::default()
        }
    }
}

/// Per-tenant slice of a run's results — one entry per registered
/// tenant in [`crate::RunReport::tenants`]. The existing top-level
/// report fields remain the aggregate view across all tenants.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantBreakdown {
    /// The tenant these counters describe.
    pub tenant: TenantId,
    /// The tenant's fair-reaping weight at run time.
    pub weight: u64,
    /// Chains completed.
    pub chains: u64,
    /// Device commands submitted on the tenant's behalf.
    pub ios: u64,
    /// Chains that ended with a non-OK status.
    pub errors: u64,
    /// §4 chained resubmissions charged to this tenant (all threads;
    /// the (tenant, thread) matrix via
    /// [`crate::Machine::resubmission_accounting_for`]).
    pub resubmissions: u64,
    /// Submissions parked because the tenant hit its SQ slot budget
    /// (not device backpressure — that is shared and counted in
    /// [`crate::RunReport::device`]).
    pub sq_parks: u64,
    /// CQEs completed for this tenant (its share of the reap stream).
    pub cqes: u64,
    /// Read commands submitted.
    pub dev_reads: u64,
    /// Write commands submitted.
    pub dev_writes: u64,
    /// Flush barriers submitted.
    pub dev_flushes: u64,
    /// Application fsyncs the tenant's chains requested (each demands a
    /// barrier; under a grouped [`crate::CommitPolicy`] several may
    /// share one).
    pub fsyncs: u64,
    /// Fsyncs that parked on an already-in-flight shared barrier
    /// instead of issuing (or waiting for) their own — the tenant's
    /// slice of [`crate::CommitLog::barrier_joins`].
    pub barrier_joins: u64,
    /// Device-busy time attributed to the tenant's commands.
    pub device_ns: Nanos,
    /// BPF hook execution time attributed to the tenant's chains.
    pub bpf_ns: Nanos,
    /// Measured (host-CPU) execution-engine split for the tenant's
    /// hops; simulated charging stays in [`TenantBreakdown::bpf_ns`].
    pub exec: ExecSplit,
    /// Chain latency distribution for this tenant alone.
    pub latency: Histogram,
    /// Fsync-issue-to-barrier-CQE latency distribution for this tenant
    /// alone (the per-tenant slice of
    /// [`crate::RunReport::fsync_latency`]).
    pub fsync_latency: Histogram,
}

impl TenantBreakdown {
    pub(crate) fn fresh(tenant: TenantId, weight: u64) -> Self {
        TenantBreakdown {
            tenant,
            weight,
            chains: 0,
            ios: 0,
            errors: 0,
            resubmissions: 0,
            sq_parks: 0,
            cqes: 0,
            dev_reads: 0,
            dev_writes: 0,
            dev_flushes: 0,
            fsyncs: 0,
            barrier_joins: 0,
            device_ns: 0,
            bpf_ns: 0,
            exec: ExecSplit::default(),
            latency: Histogram::new(),
            fsync_latency: Histogram::new(),
        }
    }

    /// This tenant's fraction of `total` reaped CQEs (0.0 when none
    /// were reaped) — the reap-share split of the fairness experiments.
    pub fn reap_share(&self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.cqes as f64 / total as f64
        }
    }
}

/// Submission-queue admission for one machine: the per-tenant SQ slot
/// meter and the parked submissions waiting on it (or on device
/// backpressure), all keyed `[queue pair][tenant]`. Inputs are op ids;
/// the machine decides what a parked or drained op costs.
pub(crate) struct SqAdmission {
    /// Parked ops: tenant SQ-budget parks and queue-full backpressure
    /// both land here, re-issued after the next reap frees slots.
    parked: Vec<Vec<Vec<usize>>>,
    /// Commands in flight — the slot-budget meter.
    inflight: Vec<Vec<usize>>,
    /// Per-queue-pair tenant the next drain serves first.
    cursor: Vec<usize>,
    /// The last drain's re-issue order (kept for capacity).
    drained: Vec<usize>,
}

impl SqAdmission {
    /// `nr_queues` queue pairs and the default tenant.
    pub(crate) fn new(nr_queues: usize) -> Self {
        SqAdmission {
            parked: vec![vec![Vec::new()]; nr_queues],
            inflight: vec![vec![0]; nr_queues],
            cursor: vec![0; nr_queues],
            drained: Vec::new(),
        }
    }

    /// Grows every queue pair's tables by one tenant.
    pub(crate) fn add_tenant(&mut self) {
        for (parked, inflight) in self.parked.iter_mut().zip(&mut self.inflight) {
            parked.push(Vec::new());
            inflight.push(0);
        }
    }

    /// Forgets every parked op and in-flight count (a new run).
    pub(crate) fn reset(&mut self) {
        self.parked.iter_mut().flatten().for_each(Vec::clear);
        self.inflight.iter_mut().flatten().for_each(|n| *n = 0);
        self.cursor.iter_mut().for_each(|c| *c = 0);
    }

    /// True when `tenant` may put `n` more commands on `qp` under
    /// `budget` ([`TenantLimits::sq_slots`]). A tenant with nothing in
    /// flight is always admitted, so a request wider than its budget
    /// cannot park forever.
    pub(crate) fn can_admit(
        &self,
        qp: usize,
        tenant: TenantId,
        n: usize,
        budget: Option<usize>,
    ) -> bool {
        let inflight = self.inflight[qp][tenant as usize];
        budget.is_none_or(|b| inflight == 0 || inflight + n <= b)
    }

    /// Counts `n` admitted commands against the tenant's slots.
    pub(crate) fn admit(&mut self, qp: usize, tenant: TenantId, n: usize) {
        self.inflight[qp][tenant as usize] += n;
    }

    /// One of the tenant's commands completed: its slot frees.
    pub(crate) fn complete(&mut self, qp: usize, tenant: TenantId) {
        let n = &mut self.inflight[qp][tenant as usize];
        *n = n.saturating_sub(1);
    }

    /// Parks op `id` in the tenant's queue on `qp`.
    pub(crate) fn park(&mut self, qp: usize, tenant: TenantId, id: usize) {
        self.parked[qp][tenant as usize].push(id);
    }

    /// Whether any submission is parked on `qp`.
    pub(crate) fn has_parked(&self, qp: usize) -> bool {
        self.parked[qp].iter().any(|q| !q.is_empty())
    }

    /// Empties `qp`'s parked queues into re-issue order: one op per
    /// tenant per round-robin pass, starting after the tenant served
    /// first by the previous non-empty drain, so no tenant's backlog
    /// starves behind another's. With a single tenant this is FIFO.
    /// The order is valid until the next drain.
    pub(crate) fn drain_round_robin(&mut self, qp: usize) -> &[usize] {
        let (queues, out) = (&mut self.parked[qp], &mut self.drained);
        out.clear();
        let total: usize = queues.iter().map(Vec::len).sum();
        if total == 0 {
            return out;
        }
        let nt = queues.len();
        let start = self.cursor[qp] % nt;
        let mut pass = 0;
        while out.len() < total {
            out.extend((0..nt).filter_map(|i| queues[(start + i) % nt].get(pass)));
            pass += 1;
        }
        queues.iter_mut().for_each(Vec::clear);
        self.cursor[qp] = (start + 1) % nt;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenants() -> SqAdmission {
        let mut a = SqAdmission::new(2);
        a.add_tenant();
        a
    }

    #[test]
    fn idle_tenant_is_admitted_over_budget_and_bursts_park() {
        let mut a = two_tenants();
        // Nothing in flight: a request wider than the budget still goes.
        assert!(a.can_admit(0, 1, 4, Some(2)));
        a.admit(0, 1, 4);
        // Now over budget: the next one parks, on this queue pair only.
        assert!(!a.can_admit(0, 1, 1, Some(2)));
        assert!(a.can_admit(1, 1, 1, Some(2)));
        assert!(a.can_admit(0, 0, 1, Some(2)), "budgets are per tenant");
        assert!(a.can_admit(0, 1, 100, None), "no budget, no limit");
        a.park(0, 1, 9);
        assert!(a.has_parked(0) && !a.has_parked(1));
        for _ in 0..3 {
            a.complete(0, 1);
        }
        assert!(a.can_admit(0, 1, 1, Some(2)), "1 in flight + 1 fits 2");
        assert!(!a.can_admit(0, 1, 2, Some(2)));
        a.complete(0, 1);
        a.complete(0, 1); // saturates at zero
        assert!(a.can_admit(0, 1, 2, Some(2)));
    }

    #[test]
    fn drain_is_round_robin_and_rotates_its_start_tenant() {
        let mut a = two_tenants();
        a.add_tenant();
        for id in [10, 11, 12] {
            a.park(0, 0, id);
        }
        a.park(0, 1, 20);
        a.park(0, 2, 30);
        a.park(0, 2, 31);
        assert_eq!(a.drain_round_robin(0), [10, 20, 30, 11, 31, 12]);
        assert!(!a.has_parked(0));
        assert!(a.drain_round_robin(0).is_empty());
        // The next non-empty drain starts one tenant later; an empty
        // drain in between did not advance the cursor.
        for (tenant, id) in [(0, 40), (1, 50), (2, 60)] {
            a.park(0, tenant, id);
        }
        assert_eq!(a.drain_round_robin(0), [50, 60, 40]);
        a.park(0, 0, 70);
        a.park(0, 2, 80);
        assert_eq!(a.drain_round_robin(0), [80, 70]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut a = two_tenants();
        a.admit(1, 1, 3);
        a.park(1, 1, 5);
        a.park(0, 0, 6);
        a.drain_round_robin(0); // moves queue pair 0's cursor
        a.reset();
        assert!(!a.has_parked(0) && !a.has_parked(1));
        assert!(a.can_admit(1, 1, 2, Some(2)), "in-flight counts cleared");
        a.park(0, 0, 1);
        a.park(0, 1, 2);
        assert_eq!(a.drain_round_robin(0), [1, 2], "cursor back at 0");
    }
}
