//! Multi-tenant sessions over one shared machine.
//!
//! A [`TenantGroup`] is the multi-session entry point: one simulated
//! [`Machine`] serving N tenants concurrently over shared queue pairs,
//! each tenant bringing its own [`PushdownWorkload`], file, installed
//! program, and [`TenantLimits`]. Chains from every tenant contend for
//! the same SQ/CQ rings, doorbells, and interrupts; the kernel's
//! per-tenant mechanisms (SQ slot budgets, weighted fair reaping,
//! verification-time resource bounds, per-tenant §4 resubmission
//! accounting) keep them from interfering — see
//! [`bpfstor_kernel::tenant`].
//!
//! A group with a single tenant registered with default limits is
//! bit-for-bit identical to a standalone
//! [`PushdownSession`](crate::PushdownSession) with the same machine
//! configuration: the first tenant *is* the kernel's default tenant,
//! and fair reaping is off unless enabled.
//!
//! # Examples
//!
//! ```
//! use bpfstor_core::{Btree, DispatchMode, TenantGroup, TenantLimits};
//! use bpfstor_sim::MILLISECOND;
//!
//! let mut group = TenantGroup::builder()
//!     .dispatch(DispatchMode::DriverHook)
//!     .fair_reap(true)
//!     .build();
//! let a = group
//!     .add_tenant(Btree::depth(3), TenantLimits::weighted(4))
//!     .expect("tenant A");
//! let b = group
//!     .add_tenant(Btree::depth(3), TenantLimits::weighted(1))
//!     .expect("tenant B");
//! let report = group.run_closed_loop(&[1, 1], 5 * MILLISECOND);
//! assert!(report.tenant(a).is_some() && report.tenant(b).is_some());
//! ```

use bpfstor_kernel::{
    ChainDriver, ChainOutcome, ChainSpec, ChainToken, ChainVerdict, DispatchMode, Machine,
    RunReport, TenantId, TenantLimits, UserNext,
};
use bpfstor_sim::{Nanos, SimRng};

use crate::session::{Member, PushdownWorkload, SessionBuilder, SessionError, SessionStats};

/// Builder for a [`TenantGroup`], created via [`TenantGroup::builder`]:
/// the machine's setters are [`SessionBuilder`]'s, and the group holds
/// nothing beyond the shared machine's configuration.
pub type TenantGroupBuilder = SessionBuilder<()>;

impl TenantGroupBuilder {
    /// Enables weighted fair reaping across tenants
    /// ([`bpfstor_kernel::MachineConfig::fair_reap`]; default: off —
    /// FIFO, the bit-for-bit single-tenant order).
    pub fn fair_reap(mut self, on: bool) -> Self {
        self.config.fair_reap = on;
        self
    }

    /// Builds the shared machine; tenants attach afterwards with
    /// [`TenantGroup::add_tenant`]. The dispatch mode and retry budget
    /// are every tenant's.
    ///
    /// # Panics
    ///
    /// Panics with [`bpfstor_kernel::MachineConfig::check`]'s refusal
    /// ([`Machine::new`]).
    pub fn build(self) -> TenantGroup {
        TenantGroup {
            machine: Machine::new(self.config),
            mode: self.mode,
            retry_budget: self.retry_budget,
            members: Vec::new(),
        }
    }
}

/// N tenant sessions multiplexed over one shared [`Machine`].
pub struct TenantGroup {
    machine: Machine,
    mode: DispatchMode,
    retry_budget: u32,
    members: Vec<Box<dyn GroupMember>>,
}

impl TenantGroup {
    /// Starts building a group with the paper-testbed machine and
    /// driver-hook dispatch.
    pub fn builder() -> TenantGroupBuilder {
        SessionBuilder::new(())
    }

    /// Adds a tenant: builds the workload's file on the shared machine
    /// and attaches the workload to it on the tenant's behalf
    /// ([`Member::attach`]) — for hook modes that installs the traversal
    /// program under the tenant's verification-time resource bounds, so
    /// a program whose verified worst case exceeds
    /// [`TenantLimits::insn_budget`] is rejected here, before it ever
    /// runs.
    ///
    /// Tenant ids are dense: the first tenant is the kernel's default
    /// tenant (id 0), re-limited to `limits`, and later tenants follow
    /// in order. The returned id indexes
    /// [`RunReport::tenants`](bpfstor_kernel::RunReport::tenants) and
    /// the per-tenant accessors on this group. A rejected tenant leaves
    /// the group as it was: its file is removed and its id goes to the
    /// next tenant accepted.
    ///
    /// # Errors
    ///
    /// [`SessionError::Config`] for limits [`TenantLimits::check`]
    /// refuses, workload image failures and kernel/verifier rejections
    /// (including budget rejections).
    pub fn add_tenant<W: PushdownWorkload + 'static>(
        &mut self,
        mut workload: W,
        limits: TenantLimits,
    ) -> Result<TenantId, SessionError> {
        let image = workload.build_image()?;
        // A member's index is its kernel tenant id. The kernel may
        // already hold the next id — tenant 0 exists from construction,
        // and a rejected attempt keeps the id it registered.
        let tenant = self.members.len() as TenantId;
        let limited = if self.members.len() < self.machine.tenant_count() {
            self.machine.set_tenant_limits(tenant, limits)
        } else {
            self.machine.register_tenant(limits).map(|_| ())
        };
        limited.map_err(SessionError::Config)?;
        let file_name = format!("{}-t{}.img", workload.name(), tenant);
        self.machine.create_file(&file_name, &image)?;
        let member = Member::attach(
            &mut self.machine,
            tenant,
            &file_name,
            workload,
            self.mode,
            self.retry_budget,
        )
        .inspect_err(|_| {
            self.machine
                .unlink_file(&file_name)
                .expect("the file was created above");
        })?;
        self.members.push(Box::new(member));
        Ok(tenant)
    }

    /// Number of tenants attached so far.
    pub fn tenant_count(&self) -> usize {
        self.members.len()
    }

    /// The dispatch mode shared by every tenant.
    pub fn mode(&self) -> DispatchMode {
        self.mode
    }

    /// Cumulative session statistics for one tenant.
    ///
    /// # Panics
    ///
    /// Panics on an unknown tenant id.
    pub fn stats(&self, tenant: TenantId) -> SessionStats {
        self.members[tenant as usize].stats()
    }

    /// The shared machine (e.g. per-tenant §4 accounting via
    /// [`Machine::resubmission_accounting_for`]).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable shared-machine access.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Runs a closed-loop benchmark over every tenant at once:
    /// `threads_per_tenant[t]` application threads draw requests from
    /// tenant `t`'s workload, all contending for the shared queue
    /// pairs, until simulated time `until`. The report's
    /// [`tenants`](bpfstor_kernel::RunReport::tenants) field carries
    /// the per-tenant breakdowns.
    ///
    /// # Panics
    ///
    /// Panics unless `threads_per_tenant` names every tenant exactly
    /// once.
    pub fn run_closed_loop(&mut self, threads_per_tenant: &[usize], until: Nanos) -> RunReport {
        let thread_member = self.thread_map(threads_per_tenant);
        let nthreads = thread_member.len();
        let mut driver = GroupDriver {
            mode: self.mode,
            members: &mut self.members,
            thread_member,
        };
        self.machine.run_closed_loop(nthreads, until, &mut driver)
    }

    /// The io_uring variant: each thread keeps `batch` SQEs in flight
    /// per `io_uring_enter`.
    ///
    /// # Panics
    ///
    /// Panics unless `threads_per_tenant` names every tenant exactly
    /// once.
    pub fn run_uring(
        &mut self,
        threads_per_tenant: &[usize],
        batch: u32,
        until: Nanos,
    ) -> RunReport {
        let thread_member = self.thread_map(threads_per_tenant);
        let nthreads = thread_member.len();
        let mut driver = GroupDriver {
            mode: self.mode,
            members: &mut self.members,
            thread_member,
        };
        self.machine.run_uring(nthreads, batch, until, &mut driver)
    }

    fn thread_map(&self, threads_per_tenant: &[usize]) -> Vec<usize> {
        assert_eq!(
            threads_per_tenant.len(),
            self.members.len(),
            "one thread count per tenant"
        );
        let mut map = Vec::new();
        for (member, &n) in threads_per_tenant.iter().enumerate() {
            for _ in 0..n {
                map.push(member);
            }
        }
        map
    }
}

/// A [`Member`] with its workload type erased.
trait GroupMember: ChainDriver {
    fn stats(&self) -> SessionStats;
}

impl<W: PushdownWorkload> GroupMember for Member<W> {
    fn stats(&self) -> SessionStats {
        Member::stats(self)
    }
}

/// The [`ChainDriver`] multiplexer: requests route by the issuing
/// thread's tenant assignment; completion callbacks route by the
/// token's tenant, so a thread can never settle another tenant's chain.
/// `members` is indexed by tenant id.
struct GroupDriver<'a> {
    mode: DispatchMode,
    members: &'a mut [Box<dyn GroupMember>],
    thread_member: Vec<usize>,
}

impl ChainDriver for GroupDriver<'_> {
    fn mode(&self) -> DispatchMode {
        self.mode
    }

    fn next_op(&mut self, thread: usize, rng: &mut SimRng) -> Option<ChainSpec<'_>> {
        let member = *self.thread_member.get(thread)?;
        self.members[member].next_op(thread, rng)
    }

    fn user_step(&mut self, thread: usize, token: &ChainToken, data: &[u8]) -> UserNext {
        self.members[token.tenant as usize].user_step(thread, token, data)
    }

    fn chain_done(&mut self, thread: usize, outcome: &ChainOutcome) -> ChainVerdict {
        self.members[outcome.token.tenant as usize].chain_done(thread, outcome)
    }
}
