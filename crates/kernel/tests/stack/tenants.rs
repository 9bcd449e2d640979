// --- Tenants: one bound, per-tenant ledgers, and aggregates that reconcile ----

#[test]
fn a_deeper_chain_trips_the_bound_without_charging_another_tenant() {
    // Two tenants share the machine and its §4 bound of 4 dependent
    // submissions, one pointer chase each on its own thread: tenant A
    // chases 3 blocks, tenant B 8. B's chain must abort with
    // BoundExceeded without charging — or aborting — A's shallower
    // chain, and the (tenant, thread) accounting matrix must keep the
    // two ledgers apart.
    let cfg = MachineConfig {
        resubmit_bound: 4,
        ..MachineConfig::default()
    };
    let (mut m, fd_a) = machine_with(cfg, "a.db", &chain_file(3), Some(chase_program()));
    m.create_file("b.db", &chain_file(8)).expect("create b");
    let tenant_b = m
        .register_tenant(TenantLimits::default())
        .expect("weight 1");
    let fd_b = m.open_for(tenant_b, "b.db").expect("open b");
    m.install(fd_b, chase_program(), 0).expect("install b");

    // One chase per thread, each of its own tenant's file.
    let state = ([fd_a, fd_b], [false; 2]);
    let mut d = Script::new(
        DispatchMode::DriverHook,
        state,
        |(fds, issued), _, thread, _| {
            let first = !std::mem::replace(&mut issued[thread], true);
            first.then(|| read(fds[thread], 0, SECTOR_SIZE as u32, 0))
        },
    );
    let report = m.run_closed_loop(2, SECOND, &mut d);

    assert_eq!(d.outcomes.len(), 2);
    for o in &d.outcomes {
        match o.token.tenant {
            DEFAULT_TENANT => assert!(
                o.status.is_ok(),
                "tenant A's 3-hop chase fits the bound: {:?}",
                o.status
            ),
            t if t == tenant_b => assert_eq!(
                o.status,
                ChainStatus::BoundExceeded,
                "tenant B's 8-hop chase must trip the same bound"
            ),
            t => panic!("unexpected tenant {t}"),
        }
    }
    // A's full chase resubmits hops-1 = 2 times on thread 0; B is cut
    // off after the bound's 3 allowed resubmissions on thread 1. Each
    // tenant's row only extends to the highest thread that charged it.
    assert_eq!(m.resubmission_accounting_for(DEFAULT_TENANT), &[2]);
    assert_eq!(m.resubmission_accounting_for(tenant_b), &[0, 3]);
    // The per-thread view every §4 test predates still sums the tenants.
    assert_eq!(m.resubmission_accounting(), &[2, 3]);
    assert_eq!(report.tenants[DEFAULT_TENANT as usize].resubmissions, 2);
    assert_eq!(report.tenants[tenant_b as usize].resubmissions, 3);
    assert_eq!(report.tenants[tenant_b as usize].errors, 1);
    assert_eq!(report.tenants[DEFAULT_TENANT as usize].errors, 0);
}

#[test]
fn every_report_aggregate_is_the_sum_of_its_tenants() {
    // Two tenants, mixed work: the default tenant chases a 6-block
    // chain under a §4 bound of 4 (every chain ends BoundExceeded after
    // three recycled hops); tenant B fsyncs every write from four
    // threads into shared group-commit barriers.
    let cfg = MachineConfig {
        resubmit_bound: 4,
        commit_policy: CommitPolicy::Group {
            max_wait_us: 30,
            max_handles: 2,
        },
        ..MachineConfig::default()
    };
    let (mut m, mut reader) = setup_with(cfg, 6, DispatchMode::DriverHook);
    reader.state.count = 12;
    let tenant_b = m
        .register_tenant(TenantLimits::weighted(2))
        .expect("weight 2");
    m.create_file("wal.db", &[]).expect("create");
    let wfd = m.open_for(tenant_b, "wal.db").expect("open");
    let mut d = mixed(reader.state, writes(wfd, SECTOR_SIZE, 40, 1).state);
    let report = m.run_closed_loop(5, SECOND, &mut d);

    let sum = |f: fn(&TenantBreakdown) -> u64| -> u64 { report.tenants.iter().map(f).sum() };
    assert_eq!(report.tenants.len(), 2);
    assert_eq!(report.chains, sum(|t| t.chains));
    assert_eq!(report.errors, sum(|t| t.errors));
    assert_eq!(report.ios, sum(|t| t.ios));
    assert_eq!(report.audit(), Ok(()), "device, tenant and trace CQEs");
    assert_eq!(
        report.trace.write_ios,
        sum(|t| t.dev_writes + t.dev_flushes)
    );
    assert_eq!(report.ios, sum(|t| t.dev_reads) + report.trace.write_ios);
    assert_eq!(report.trace.device, sum(|t| t.device_ns));
    assert_eq!(report.resubmissions, sum(|t| t.resubmissions));
    assert_eq!(report.commit.fsyncs, sum(|t| t.fsyncs));
    assert_eq!(report.commit.barrier_joins, sum(|t| t.barrier_joins));
    assert_eq!(report.latency.count(), sum(|t| t.latency.count()));
    assert_eq!(
        report.fsync_latency.count(),
        sum(|t| t.fsync_latency.count())
    );
    let mut exec = ExecSplit::default();
    for t in &report.tenants {
        exec.absorb(&t.exec);
    }
    assert_eq!(report.exec, exec);
    // The run moved every one of those counters, on both tenants where
    // both can: nothing above is 0 == 0.
    assert_eq!((report.chains, report.errors), (12 + 40, 12));
    assert_eq!(report.resubmissions, 12 * 3 + 40);
    assert_eq!(report.commit.fsyncs, 40);
    assert!(report.commit.barrier_joins > 0, "some fsync rode a barrier");
    assert_eq!(report.exec.hops(), 12 * 4);
    assert!(report
        .tenants
        .iter()
        .all(|t| t.chains > 0 && t.cqes > 0 && t.device_ns > 0));
    assert!(
        report.trace.write_ios > 40,
        "data writes plus shared flushes"
    );
}

#[test]
#[should_panic(expected = "value: TenantWeight")]
fn registering_a_zero_weight_tenant_panics() {
    let mut m = machine(MachineConfig::default());
    m.register_tenant(TenantLimits::weighted(0)).unwrap();
}

#[test]
#[should_panic(expected = "value: TenantWeight")]
fn re_weighting_a_tenant_to_zero_panics() {
    let mut m = machine(MachineConfig::default());
    let t = m
        .register_tenant(TenantLimits::weighted(3))
        .expect("weight 3");
    let zero = TenantLimits {
        weight: 0,
        ..TenantLimits::default()
    };
    // Refused, it changes nothing; so is a tenant never registered.
    assert_eq!(m.set_tenant_limits(t, zero), Err(ConfigError::TenantWeight));
    assert_eq!(m.tenant_count(), 2);
    let unknown = m.set_tenant_limits(9, TenantLimits::default());
    assert_eq!(unknown, Err(ConfigError::NoSuchTenant(9)));
    assert_eq!(m.open_for(9, "a"), Err(KernelError::NoSuchTenant(9)));
    m.set_tenant_limits(t, zero).unwrap();
}
