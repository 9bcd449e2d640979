//! Tenant groups.

use super::*;
use bpfstor::core::{MachineConfig, TenantGroup, TenantLimits};

#[test]
fn single_tenant_group_equals_standalone_session_bit_for_bit() {
    // Same machine config and seed, one tenant with default limits:
    // the first tenant is the kernel's default tenant, so the group
    // must not perturb a single simulated nanosecond. With fair reaping
    // on, and both sides on one queue pair at 8 us / 8-deep interrupt
    // coalescing, reap batches hold several CQEs, and deficit round
    // robin over a single tenant must serve them FIFO.
    const SEED: u64 = 0x7E4A;
    const UNTIL: u64 = 4 * MILLISECOND;
    for mode in [DispatchMode::DriverHook, DispatchMode::User] {
        for uring in [false, true] {
            for fair in [false, true] {
                let cfg = if fair {
                    MachineConfig {
                        cores: 1,
                        irq_coalesce_us: 8,
                        irq_coalesce_depth: 8,
                        ..MachineConfig::default()
                    }
                } else {
                    MachineConfig::default()
                };
                let mut group = TenantGroup::builder()
                    .machine_config(cfg.clone())
                    .dispatch(mode)
                    .seed(SEED)
                    .fair_reap(fair)
                    .build();
                group
                    .add_tenant(Btree::depth(3), TenantLimits::default())
                    .expect("lone tenant");
                let mut session = PushdownSession::builder(Btree::depth(3))
                    .machine_config(cfg)
                    .dispatch(mode)
                    .seed(SEED)
                    .build()
                    .expect("session");
                let (grouped, (standalone, stats)) = if uring {
                    (
                        group.run_uring(&[2], 4, UNTIL),
                        session.run_uring(2, 4, UNTIL),
                    )
                } else {
                    (
                        group.run_closed_loop(&[2], UNTIL),
                        session.run_closed_loop(2, UNTIL),
                    )
                };
                let what = format!("{mode:?}, uring {uring}, fair {fair}");
                assert!(standalone.chains > 0, "{what}: the run does work");
                if fair {
                    let trace = &standalone.trace;
                    assert!(trace.irqs < trace.ios, "{what}: reaps are batched");
                }
                assert_eq!(grouped, standalone, "{what}");
                assert_eq!(group.stats(0), stats, "{what}: session statistics");
            }
        }
    }
}

#[test]
fn rejected_tenant_leaves_the_group_usable() {
    let mut group = TenantGroup::builder().build();
    let first = group
        .add_tenant(Btree::depth(3), TenantLimits::default())
        .expect("first tenant");
    // A depth-3 traversal cannot fit a 4-instruction budget: the
    // verifier rejects it after the kernel has minted a tenant id.
    let tight = TenantLimits {
        insn_budget: Some(4),
        ..TenantLimits::default()
    };
    let rejection = group
        .add_tenant(Btree::depth(3), tight)
        .expect_err("over-budget program is rejected at install");
    assert!(format!("{rejection:?}").contains("BudgetExceeded"));
    assert_eq!(group.tenant_count(), 1, "a rejected tenant is not attached");

    let second = group
        .add_tenant(Btree::depth(3), TenantLimits::default())
        .expect("the group still accepts tenants");
    assert_eq!(group.tenant_count(), 2);
    // One thread count per attached tenant; the accepted tenant's id
    // indexes the report, the group's stats and completion routing.
    let report = group.run_closed_loop(&[1, 1], 2 * MILLISECOND);
    assert_eq!(report.errors, 0);
    for id in [first, second] {
        let breakdown = &report.tenants[id as usize];
        assert_eq!(breakdown.tenant, id);
        assert!(breakdown.chains > 0, "tenant {id} ran");
        let stats = group.stats(id);
        assert_eq!(stats.completed, breakdown.chains, "tenant {id}");
        assert_eq!(stats.mismatches + stats.errors, 0, "tenant {id}");
    }
    assert_eq!(
        report.tenants.iter().map(|t| t.chains).sum::<u64>(),
        report.chains,
        "no chain is charged to a tenant that was never attached"
    );
}

#[test]
#[should_panic(expected = "queue depth 65537: NVMe rings have 2 to 65536")]
fn a_group_deeper_than_mqes_is_rejected_loudly() {
    let _ = TenantGroup::builder().queue_depth(65_537).build();
}
