// --- Transport-abstracted dispatch: fabric, affinity, write fairness --------

#[test]
fn zero_latency_fabric_matches_local_user_path() {
    // With a zero-cost wire and zero capsule CPU, remote dispatch over
    // the fabric transport must reproduce the local user path exactly —
    // the refactor's "LocalTransport is byte-for-byte" guarantee, probed
    // from the other side. (Field by field, not report == report: the
    // fabric run's capsule counters legitimately differ.)
    let (mut local, mut dl) = setup_with(MachineConfig::default(), 8, DispatchMode::User);
    let rl = local.run_closed_loop(1, SECOND, &mut dl);
    let mut cfg = fabric_cfg(0);
    cfg.costs.fab_encode = 0;
    cfg.costs.fab_decode = 0;
    let (mut fab, mut df) = setup_with(cfg, 8, DispatchMode::Remote);
    let rf = fab.run_closed_loop(1, SECOND, &mut df);
    assert_eq!(rl.chains, rf.chains);
    assert_eq!(rl.ios, rf.ios);
    assert_eq!(
        rl.mean_latency().to_bits(),
        rf.mean_latency().to_bits(),
        "zero-latency fabric must not perturb timing"
    );
    assert_eq!(rf.trace.fabric_wire, 0);
}

#[test]
fn remote_dispatch_pays_a_round_trip_per_dependent_hop() {
    const ONE_WAY: Nanos = 50_000;
    const HOPS: u64 = 8;
    let (mut local, mut dl) =
        setup_with(MachineConfig::default(), HOPS as usize, DispatchMode::User);
    let rl = local.run_closed_loop(1, SECOND, &mut dl);
    let (mut fab, mut df) = setup_with(fabric_cfg(ONE_WAY), HOPS as usize, DispatchMode::Remote);
    let rf = fab.run_closed_loop(1, SECOND, &mut df);
    let added = rf.mean_latency() - rl.mean_latency();
    let rtt = (2 * ONE_WAY) as f64;
    assert!(
        added >= HOPS as f64 * rtt * 0.999,
        "every dependent hop crosses the fabric: added {added} < {HOPS} RTTs"
    );
    assert!(
        added <= HOPS as f64 * rtt + 60_000.0,
        "remote baseline should add little beyond the wire: {added}"
    );
    // One command capsule and one response capsule per hop.
    let stats = rf.fabric;
    assert_eq!(stats.capsules_sent, rf.ios);
    assert_eq!(stats.responses, rf.ios);
    assert_eq!(stats.target_local, 0);
    assert_eq!(rf.trace.fabric_wire, 2 * ONE_WAY * rf.ios);
}

#[test]
fn pushdown_over_fabric_pays_one_round_trip_per_chain() {
    const ONE_WAY: Nanos = 50_000;
    const HOPS: usize = 8;
    let (mut local, mut dl) = setup_with(MachineConfig::default(), HOPS, DispatchMode::DriverHook);
    let rl = local.run_closed_loop(1, SECOND, &mut dl);
    let (mut pd, mut dp) = setup_with(fabric_cfg(ONE_WAY), HOPS, DispatchMode::DriverHook);
    let rp = pd.run_closed_loop(1, SECOND, &mut dp);
    // The offloaded result is still byte-correct after crossing back.
    for o in &dp.outcomes {
        match &o.status {
            ChainStatus::Emitted(v) => {
                assert_eq!(
                    u64::from_le_bytes(v[..8].try_into().expect("8B")),
                    CHAIN_VALUE
                );
            }
            other => panic!("pushdown chain failed: {other:?}"),
        }
    }
    let added = rp.mean_latency() - rl.mean_latency();
    let rtt = (2 * ONE_WAY) as f64;
    assert!(
        added >= rtt * 0.999,
        "the chain crosses at least once: added {added}"
    );
    assert!(
        added <= 1.5 * rtt,
        "dependent hops must stay target-side: added {added} vs one RTT {rtt}"
    );
    // One command capsule in, (HOPS-1) target-local recycles, one
    // response capsule out — per chain.
    let chains = rp.chains;
    let stats = rp.fabric;
    assert_eq!(stats.capsules_sent, chains);
    assert_eq!(stats.responses, chains);
    assert_eq!(stats.target_local, (HOPS as u64 - 1) * chains);

    // And the BPF-oF headline: the no-pushdown remote baseline is
    // O(depth) RTTs slower than pushdown on the same fabric.
    let (mut nopd, mut dn) = setup_with(fabric_cfg(ONE_WAY), HOPS, DispatchMode::Remote);
    let rn = nopd.run_closed_loop(1, SECOND, &mut dn);
    assert!(
        rn.mean_latency() - rp.mean_latency() >= (HOPS as f64 - 1.0) * rtt * 0.999,
        "pushdown must elide {} of {} round trips",
        HOPS - 1,
        HOPS
    );
}

#[test]
fn fabric_capsule_window_backpressures_and_recovers() {
    // A window of 2 capsules under an 8-deep ring: uring keeps 8 SQEs
    // in flight, so submissions stall on the window, park, and retry —
    // every chain still completes exactly once.
    let mut cfg = fabric_cfg(10_000);
    if let Some(fc) = &mut cfg.fabric {
        fc.inflight_cap = 2;
    }
    let (mut m, mut d) = setup_with(cfg, 4, DispatchMode::Remote);
    d.state.count = 24;
    let report = m.run_uring(1, 8, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 24);
    assert!(d.outcomes.iter().all(|o| o.status.is_ok()));
    assert_eq!(report.errors, 0);
    assert!(
        report.fabric.capsule_stalls > 0,
        "the 2-capsule window must bind under 8 in-flight SQEs"
    );
    assert!(report.fabric.max_inflight <= 2);
}

#[test]
fn queue_pair_counters_reconcile_on_both_transports() {
    // `RunReport::device` counts the host's side of the queue pair on
    // either transport, so every law of `RunReport::audit` holds —
    // coalesced, per-CQE or polled, with or without pushdown, over a
    // clean wire or a lossy one whose 8-capsule window binds.
    let coalesced = |fabric| MachineConfig {
        fabric,
        irq_coalesce_us: 8,
        irq_coalesce_depth: 8,
        ..MachineConfig::default()
    };
    let local = coalesced(None);
    let fabric = coalesced(Some(exact_link(20_000)));
    let per_cqe = fabric_cfg(20_000);
    let polled = MachineConfig {
        reap_mode: ReapMode::Polled,
        ..fabric_cfg(20_000)
    };
    let lossy = FabricConfig {
        inflight_cap: 8,
        ..exact_link(20_000).with_loss(0.02)
    };
    let worlds = [
        ("local, coalesced", local, DispatchMode::User),
        ("fabric, coalesced", fabric, DispatchMode::Remote),
        ("fabric, per CQE", per_cqe, DispatchMode::DriverHook),
        ("fabric, polled", polled, DispatchMode::Remote),
        (
            "fabric, lossy",
            coalesced(Some(lossy)),
            DispatchMode::Remote,
        ),
    ];
    for (world, cfg, mode) in worlds {
        let on_fabric = cfg.fabric.is_some();
        let (mut m, mut d) = setup_with(cfg, 4, mode);
        d.state.count = 64;
        let r = m.run_uring(1, 16, SECOND, &mut d);
        assert_eq!(d.outcomes.len(), 64, "{world}");
        assert!(d.outcomes.iter().all(|o| o.status.is_ok()), "{world}");
        assert_eq!(r.fabric_initiators.len(), usize::from(on_fabric), "{world}");
        assert_eq!(r.audit(), Ok(()), "{world}");
        if world == "fabric, lossy" {
            assert!(r.fabric.retransmits > 0, "the lossy wire lost nothing");
            audit_names_the_law_a_term_breaks(&r);
        }
    }
}

/// One more on one term of one side of a law breaks that law and no
/// other, and `audit` names it. Every side is non-zero here, so no law
/// is checked as 0 == 0.
fn audit_names_the_law_a_term_breaks(r: &RunReport) {
    type Term = fn(&mut RunReport) -> &mut u64;
    let terms: [(Law, Term); 16] = [
        (Law::CpuBuckets, |r| &mut r.trace.fs),
        (Law::CpuBuckets, |r| &mut r.cpu_busy_ns),
        (Law::DeviceCqes, |r| &mut r.device.cqes),
        (Law::DeviceCqes, |r| &mut r.tenants[0].cqes),
        (Law::DeviceCqes, |r| &mut r.trace.ios),
        (Law::DeviceCommands, |r| &mut r.device.reads),
        (Law::DeviceReaps, |r| &mut r.device.irqs),
        (Law::DeviceReaps, |r| &mut r.trace.irqs),
        (Law::WireCrossings, |r| &mut r.fabric.target_local),
        (Law::WireInitiators, |r| {
            &mut r.fabric_initiators[0].capsule_stalls
        }),
        (Law::WireInitiators, |r| &mut r.fabric.bytes_tx),
        (Law::ChainsEnded, |r| &mut r.chains),
        (Law::ChainsEnded, |r| &mut r.chains_started),
        (Law::BlockOwnership, |r| &mut r.blocks.mapped),
        (Law::BlockOwnership, |r| &mut r.blocks.marked),
        (Law::BlockOwnership, |r| &mut r.blocks.used),
    ];
    for (i, (law, term)) in terms.into_iter().enumerate() {
        let mut nudged = r.clone();
        *term(&mut nudged) += 1;
        let broken = nudged.audit().expect_err("a nudged term breaks its law");
        assert_eq!(
            broken.iter().map(|b| b.law).collect::<Vec<_>>(),
            [law],
            "term {i}"
        );
        let Broken { lhs, rhs, .. } = &broken[0];
        assert!(
            !lhs.contains(&0) && !rhs.contains(&0),
            "{law:?} checked a zero side: {lhs:?} vs {rhs:?}"
        );
    }
}

#[test]
fn write_flush_chase_meters_the_fairness_budget() {
    // resubmit_bound 1 permits no kernel-side dependent resubmission:
    // the fsync flush chase (data CQEs → flush barrier) must trip it.
    let cfg = MachineConfig {
        resubmit_bound: 1,
        ..MachineConfig::default()
    };
    let (mut m, fd) = machine_with(cfg, "wal.db", &[0u8; 4 * SECTOR_SIZE], None);
    let ino = m.ino_of(fd).expect("ino");
    let err = m
        .write_file(ino, 0, &vec![7u8; SECTOR_SIZE], true)
        .expect_err("fsync write chains a dependent flush");
    assert!(
        format!("{err}").contains("BoundExceeded"),
        "wrong failure: {err}"
    );
    // A data-only write has no dependent hop and still completes...
    m.write_file(ino, 0, &vec![8u8; SECTOR_SIZE], false)
        .expect("no chase, no bound");
    // ...and a pure fsync's barrier is the chain's first device op,
    // not a resubmission.
    m.write_file(ino, 0, &[], true)
        .expect("pure fsync is hop 0");
}

#[test]
fn write_chains_count_in_resubmission_accounting() {
    let (mut m, fd) = machine_with(
        MachineConfig::default(),
        "wal.db",
        &[0u8; 4 * SECTOR_SIZE],
        None,
    );
    // Three fsynced writes of the same block.
    let mut d = Script::new(DispatchMode::User, fd, |&mut fd, issued, _, _| {
        (issued < 3).then(|| write(fd, 0, &[3u8; SECTOR_SIZE], true, 0))
    });
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(report.chains, 3);
    assert_eq!(report.errors, 0);
    assert_eq!(
        report.resubmissions, 3,
        "each fsync write's flush chase is one metered resubmission"
    );
    assert_eq!(m.resubmission_accounting(), &[3]);
}

#[test]
fn irq_charge_lands_on_the_owning_core() {
    // Two cores, two queue pairs: thread `t` submits on queue pair `t`,
    // whose interrupts steer to core `t` (one queue pair per core).
    // Only `issuer` issues chains.
    let run = |issuer: usize| -> ([Nanos; 2], u64) {
        let mut cfg = MachineConfig {
            cores: 2,
            ..MachineConfig::default()
        };
        // Make the interrupt charge dominate so placement is visible.
        cfg.costs.irq_entry = 50_000;
        let (mut m, fd) = machine_with(cfg, "chain.db", &chain_file(1), None);
        let mut d = Script::new(
            DispatchMode::User,
            (fd, issuer),
            |&mut (fd, issuer), issued, thread, _| {
                (thread == issuer && issued < 20).then(|| read(fd, 0, SECTOR_SIZE as u32, 0))
            },
        );
        let r = m.run_closed_loop(2, SECOND, &mut d);
        assert_eq!(d.outcomes.len(), 20);
        ([m.core_busy_ns(0), m.core_busy_ns(1)], r.trace.irqs)
    };
    for issuer in [0, 1] {
        let (busy, irqs) = run(issuer);
        assert!(irqs >= 20, "one interrupt per uncoalesced chain");
        assert!(
            busy[issuer] >= irqs * 50_000,
            "queue pair {issuer}'s interrupts must land on core {issuer}: busy {busy:?}, irqs {irqs}"
        );
        assert!(
            busy[1 - issuer] < irqs * 50_000,
            "the other core sees only incidental work: busy {busy:?}, irqs {irqs}"
        );
    }
    // The default mapping is the identity qp→core layout.
    let m = machine(MachineConfig::default());
    assert_eq!(m.qp_core(0), Some(0));
    assert_eq!(m.qp_core(5), Some(5));
    assert_eq!(m.qp_core(99), None);
}

#[test]
fn write_pushdown_crosses_once_and_commits_on_the_target() {
    // Write pushdown: the data capsule crosses once (carrying its
    // payload), the fsync flush chase recycles target-side, and only
    // the commit acknowledgement returns. The no-pushdown path pays a
    // full round trip per phase.
    const ONE_WAY: Nanos = 20_000;
    const WRITES: u64 = 8;
    // 512 B of in-capsule payload at the 320 ns/KiB default link rate.
    const SER: Nanos = SECTOR_SIZE as u64 * 320 / 1024;
    let run = |mode: DispatchMode| {
        let (mut m, fd) = log_machine(fabric_cfg(ONE_WAY), "wal.db");
        let mut d = writes(fd, SECTOR_SIZE, WRITES, 1);
        d.mode = mode;
        let r = m.run_closed_loop(1, SECOND, &mut d);
        assert_eq!(d.outcomes.len(), WRITES as usize);
        for o in &d.outcomes {
            assert!(
                matches!(o.status, ChainStatus::Written(n) if n as usize == SECTOR_SIZE),
                "unexpected status {:?}",
                o.status
            );
        }
        assert_eq!(r.errors, 0);
        r
    };
    let pd = run(DispatchMode::DriverHook);
    // Per chain: one data capsule in, the flush recycled target-side,
    // one commit-ack capsule out.
    assert_eq!(pd.fabric.capsules_sent, WRITES);
    assert_eq!(
        pd.fabric.target_local, WRITES,
        "flush chases stay target-side"
    );
    assert_eq!(pd.fabric.responses, WRITES);
    assert_eq!(
        pd.fabric.bytes_tx,
        WRITES * (64 + SECTOR_SIZE as u64),
        "write capsules haul their payload"
    );
    assert_eq!(
        pd.trace.fabric_wire,
        WRITES * (2 * ONE_WAY + SER),
        "one serialized round trip per chain"
    );
    // §4 metering still sees the flush chase as a dependent
    // resubmission even though it never crossed the wire.
    assert_eq!(pd.resubmissions, WRITES);
    assert_eq!(pd.fabric_initiators.len(), 1);
    assert_eq!(pd.fabric_initiators[0].capsules_sent, WRITES);
    // No-pushdown: both the data phase and the flush barrier pay the
    // full round trip.
    let host = run(DispatchMode::User);
    assert_eq!(host.fabric.target_local, 0);
    assert_eq!(host.fabric.capsules_sent, 2 * WRITES);
    assert_eq!(
        host.trace.fabric_wire,
        WRITES * (4 * ONE_WAY + SER),
        "two round trips per chain without pushdown"
    );
    assert!(
        pd.write_latency.mean() < host.write_latency.mean(),
        "pushdown elides a round trip per fsync write: {} vs {}",
        pd.write_latency.mean(),
        host.write_latency.mean()
    );
}

#[test]
fn grouped_barrier_acks_pushdown_fsyncs_with_one_capsule() {
    // Under group commit, one shared flush barrier releases many
    // pushdown fsyncs — and ONE response capsule acks them all.
    const WRITERS: usize = 8;
    const WRITES: u64 = 24;
    let mut cfg = fabric_cfg(20_000);
    cfg.commit_policy = CommitPolicy::Group {
        max_wait_us: 50,
        max_handles: 8,
    };
    let (mut m, fd) = log_machine(cfg, "wal.db");
    let mut d = writes(fd, SECTOR_SIZE, WRITES, 1);
    d.mode = DispatchMode::DriverHook;
    let r = m.run_closed_loop(WRITERS, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), WRITES as usize);
    assert!(d.outcomes.iter().all(|o| o.status.is_ok()));
    assert_eq!(r.errors, 0);
    assert_eq!(r.commit.fsyncs, WRITES, "every write fsynced");
    assert!(
        r.commit.commits < WRITES,
        "concurrent fsyncs must share barriers: {} commits",
        r.commit.commits
    );
    // Every chain's data phase crossed once; each shared barrier came
    // back as exactly one acknowledgement capsule.
    assert_eq!(r.fabric.capsules_sent, WRITES);
    assert_eq!(
        r.fabric.responses, r.commit.commits,
        "one return capsule per barrier, not per fsync"
    );
    assert_eq!(
        r.fabric.target_local, r.commit.commits,
        "one target-side flush per barrier"
    );
}
