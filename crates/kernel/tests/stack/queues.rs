// --- Queue-accurate dispatch: doorbells, interrupts, backpressure --------------

#[test]
fn uring_batch_shares_one_doorbell() {
    // Eight SQEs submitted in one io_uring_enter land on the SQ
    // together and ring the doorbell once; the device services them as
    // one batch.
    let (mut m, mut d) = setup(1, DispatchMode::User);
    d.state.count = 8;
    let report = m.run_uring(1, 8, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 8);
    assert_eq!(report.ios, 8);
    assert_eq!(report.trace.doorbells, 1, "one MMIO write for the batch");
    assert_eq!(report.device.doorbells, 1);
}

/// [`MachineConfig::default`] with the two interrupt-coalescing knobs set.
fn coalescing(us: u64, depth: u32) -> MachineConfig {
    MachineConfig {
        irq_coalesce_us: us,
        irq_coalesce_depth: depth,
        ..MachineConfig::default()
    }
}

/// Runs 64 single-block chains through a `batch`-deep uring under `cfg`.
fn run_64_reads(cfg: MachineConfig, batch: u32) -> RunReport {
    let (mut m, mut d) = setup_with(cfg, 1, DispatchMode::User);
    d.state.count = 64;
    let report = m.run_uring(1, batch, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 64, "all chains complete");
    assert!(d.outcomes.iter().all(|o| o.status.is_ok()));
    assert_eq!(report.errors, 0);
    report
}

#[test]
fn interrupt_coalescing_aggregates_cqes() {
    let run = |us: u64, depth: u32| run_64_reads(coalescing(us, depth), 16);
    let none = run(0, 1);
    let coalesced = run(8, 8);
    assert_eq!(
        none.device.cqes, coalesced.device.cqes,
        "same completions either way"
    );
    assert!(
        coalesced.device.irqs < none.device.irqs,
        "coalescing must aggregate CQEs per interrupt: {} vs {}",
        coalesced.device.irqs,
        none.device.irqs
    );
    assert_eq!(none.trace.irqs, none.device.irqs);
}

/// [`MachineConfig::default`] over rings of `queue_depth` slots.
fn ring_depth(queue_depth: usize) -> MachineConfig {
    let mut cfg = MachineConfig::default();
    cfg.profile.queue_depth = queue_depth;
    cfg
}

#[test]
fn tiny_queue_depth_backpressures_instead_of_panicking() {
    // 8 threads funnel into 2 queue pairs whose rings hold one command
    // each: submissions park and retry after the next interrupt, and
    // the run completes with graceful IOPS degradation — no panic.
    let run = |queue_depth: usize| {
        let cfg = MachineConfig {
            cores: 2,
            ..ring_depth(queue_depth)
        };
        let (mut m, mut d) = setup_with(cfg, 4, DispatchMode::User);
        d.state.count = 64;
        let report = m.run_closed_loop(8, SECOND, &mut d);
        assert_eq!(d.outcomes.len(), 64, "qd={queue_depth}: all chains done");
        assert!(
            d.outcomes.iter().all(|o| o.status.is_ok()),
            "qd={queue_depth}: backpressure must not fail chains"
        );
        report
    };
    let shallow = run(2);
    let deep = run(4096);
    assert!(
        shallow.device.rejected > 0,
        "a one-slot ring under 4 threads/qp must reject submissions"
    );
    assert_eq!(deep.device.rejected, 0, "a deep ring never rejects");
    assert!(shallow.iops > 0.0);
    assert!(
        shallow.iops <= deep.iops * 1.0001 && shallow.iops >= deep.iops * 0.3,
        "IOPS degrade gracefully under backpressure: {} vs {}",
        shallow.iops,
        deep.iops
    );
}

#[test]
#[should_panic(expected = "queue depth 65537: NVMe rings have 2 to 65536")]
fn a_config_deeper_than_mqes_is_refused_at_construction() {
    // The one check refuses it by name, and `Machine::new` panics with
    // its message.
    let cfg = ring_depth(65_537);
    let refusal = ConfigError::Device(DeviceConfigError::QueueDepth(65_537));
    assert_eq!(cfg.check(), Err(refusal));
    let _ = machine(cfg);
}

#[test]
fn uring_iops_grows_monotonically_with_queue_depth() {
    // With 32 SQEs in flight on one queue pair, the SQ depth is the
    // effective device parallelism: IOPS must grow monotonically as the
    // ring deepens (and rejections vanish once everything fits).
    let run = |queue_depth: usize| {
        let (mut m, mut d) = setup_with(ring_depth(queue_depth), 1, DispatchMode::User);
        d.state.count = 256;
        let report = m.run_uring(1, 32, SECOND, &mut d);
        assert_eq!(d.outcomes.len(), 256, "qd={queue_depth}: all chains done");
        assert_eq!(report.errors, 0);
        report
    };
    let mut prev = 0.0;
    for qd in [2usize, 8, 64] {
        let report = run(qd);
        assert!(
            report.iops > prev,
            "IOPS must grow with queue depth: qd={qd} gave {} after {prev}",
            report.iops
        );
        prev = report.iops;
    }
}

// --- Regression: uring batch RNG streams ---------------------------------------

#[test]
fn uring_batch_samples_distinct_request_streams() {
    // Regression: every NewChain of one io_uring_enter used to fork the
    // workload RNG with the same (batch-constant) salt; the per-enter
    // sequence number now gives each SQE its own stream.
    let (mut m, fd) = machine_with(MachineConfig::default(), "f.db", &chain_file(1), None);
    let state = (fd, Vec::<u64>::new());
    let mut d = Script::new(DispatchMode::User, state, |(fd, keys), issued, _, rng| {
        (issued < 8).then(|| {
            let key = rng.below(1 << 40);
            keys.push(key);
            read(*fd, 0, SECTOR_SIZE as u32, key)
        })
    });
    let _ = m.run_uring(1, 8, SECOND, &mut d);
    let keys = &d.state.1;
    let first_batch: std::collections::HashSet<u64> = keys.iter().take(8).copied().collect();
    assert_eq!(
        first_batch.len(),
        8,
        "the first uring batch must draw distinct keys: {:?}",
        &keys[..8.min(keys.len())]
    );
}

// --- Regression: stale snapshots must abort, not heal --------------------------

#[test]
fn stale_snapshot_aborts_instead_of_healing_through_live_fs() {
    // Regression: recycled hops used to discard the extent snapshot's
    // physical address and re-translate through live fs metadata at
    // submission, silently healing snapshots the NVMe layer never saw
    // invalidated. The physical target now rides the recycled
    // descriptor, and a generation mismatch at submission aborts.
    let (mut m, mut d) = setup(8, DispatchMode::DriverHook);
    d.state.count = 1;
    let fd = d.state.fd;
    let ino = m.ino_of(fd).expect("ino");
    {
        // Relocate the file *without* the invalidation hook firing —
        // the snapshot pushed at install time is now silently stale.
        let (fs, store) = m.fs_and_store();
        fs.relocate(ino, store).expect("relocate");
        fs.drain_events();
    }
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 1);
    assert!(
        matches!(
            d.outcomes[0].status,
            ChainStatus::Invalidated | ChainStatus::ExtentMiss
        ),
        "a recycled hop against a stale snapshot must abort, got {:?}",
        d.outcomes[0].status
    );
    assert_eq!(report.errors, 1);
    // Re-arming repairs it: the fresh snapshot matches the live layout.
    m.rearm(fd).expect("rearm");
    let mut d2 = chase(fd, DispatchMode::DriverHook, 1);
    let report = m.run_closed_loop(1, SECOND, &mut d2);
    assert_eq!(report.errors, 0, "re-armed chains succeed");
}

// --- Multi-block reads -------------------------------------------------------------

/// The payloads of the chains that ended [`ChainStatus::Pass`].
fn passed<S>(d: &Script<S>) -> Vec<&[u8]> {
    let outcomes = d.outcomes.iter();
    let pass = outcomes.filter_map(|o| match &o.status {
        ChainStatus::Pass(data) => Some(data.as_slice()),
        _ => None,
    });
    pass.collect()
}

#[test]
fn repeated_multiblock_reads_return_the_full_payload() {
    // A 4-block read over one extent is one device command, and every
    // repetition goes to the device and assembles all four blocks.
    let image = chain_file(8);
    let (mut m, fd) = machine_with(MachineConfig::default(), "scan.db", &image, None);
    let mut d = reads(fd, DispatchMode::User, 10);
    d.state.len = 4 * SECTOR_SIZE as u32;
    let report = m.run_closed_loop(1, SECOND, &mut d);
    let payloads = passed(&d);
    assert_eq!(payloads.len(), 10);
    for p in payloads {
        assert_eq!(p, &image[..4 * SECTOR_SIZE], "full 4-block payload");
    }
    assert_eq!(report.ios, 10, "every read reaches the device");
}
