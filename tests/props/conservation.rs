// --- Conservation: every CPU nanosecond sits in exactly one layer bucket -------

/// A cost model with every field drawn at random (`draws`: one value
/// per field, in declaration order), so no two layers cancel and an
/// equality that only holds at the calibrated defaults shows.
fn costs_from(draws: &[u64]) -> bpfstor::kernel::LayerCosts {
    let mut d = draws.iter().copied();
    let mut next = || d.next().expect("one draw per field");
    let costs = bpfstor::kernel::LayerCosts {
        crossing_enter: next(),
        crossing_exit: next(),
        syscall: next(),
        fs_submit: next(),
        fs_complete: next(),
        bio_submit: next(),
        bio_complete: next(),
        drv_submit: next(),
        doorbell: next(),
        irq_entry: next(),
        drv_complete: next(),
        app_think: next(),
        bpf_base: next(),
        // Per instruction and per visit: keep runs short.
        bpf_per_insn: next() % 8,
        extent_cache_lookup: next(),
        recycle_submit: next(),
        uring_sqe: next(),
        uring_cqe: next(),
        wr_fs_submit: next(),
        journal_log: next(),
        journal_commit: next(),
        fab_encode: next(),
        fab_decode: next(),
        fab_encode_per_kb: next(),
        poll_loop: next() % 200,
    };
    assert!(d.next().is_none(), "COST_FIELDS outgrew LayerCosts");
    costs
}

const COST_FIELDS: usize = 25;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The law `Machine::charge` exists to keep: whatever path a run
    /// takes — any dispatch mode, blocking or io_uring, local or over a
    /// fabric (remote dispatch and pushdown), any reap mode, any commit
    /// policy, a mid-run relocation recovered by rearm-retry — and
    /// whatever the cost model, the CPU buckets of the trace sum to the
    /// busy time of the cores, to the nanosecond. A burst that charged
    /// time it did not book (or booked time it did not charge) fails
    /// here; `finish_run` checks the same in every build.
    #[test]
    fn cpu_buckets_sum_to_core_busy_time_on_every_path(
        (mode_pick, fabric, batch_pick) in (0usize..3, any::<bool>(), 0usize..4),
        (reap_pick, commit_pick) in (0usize..4, 0usize..3),
        (relocating_reads, cores, threads) in (any::<bool>(), 1usize..4, 1usize..4),
        draws in proptest::collection::vec(0u64..3_000, COST_FIELDS),
        seed in any::<u64>(),
    ) {
        use bpfstor::core::{
            AdaptiveIrqConfig, CommitPolicy, DispatchMode, HybridConfig, PollConfig,
            PushdownSession, ReapMode, SessionBuilder, SessionStats, YcsbMix,
        };
        use bpfstor::kernel::{FabricConfig, MachineConfig, RunReport};
        use bpfstor::sim::SECOND;
        use bpfstor::workload::OpMix;

        let mode = match (mode_pick, fabric) {
            (0, false) => DispatchMode::User,
            (0, true) => DispatchMode::Remote,
            (1, _) => DispatchMode::SyscallHook,
            _ => DispatchMode::DriverHook,
        };
        let reap = [
            ReapMode::Interrupt,
            ReapMode::AdaptiveIrq(AdaptiveIrqConfig::default()),
            ReapMode::Polled(PollConfig::default()),
            // Twitchy watermarks: the pair flaps between mechanisms.
            ReapMode::Hybrid(HybridConfig {
                high_watermark: 2,
                low_watermark: 0,
                window: 2,
                dwell: 1,
                ..HybridConfig::default()
            }),
        ][reap_pick]
            .clone();
        let commit = [
            CommitPolicy::PerFsync,
            CommitPolicy::Group { max_wait_us: 20, max_handles: 3 },
            CommitPolicy::Writeback { flush_interval_us: 40 },
        ][commit_pick];
        let config = MachineConfig {
            cores,
            seed,
            costs: costs_from(&draws),
            // Coalesce, so one interrupt entry covers several CQEs.
            irq_coalesce_us: 3,
            irq_coalesce_depth: 3,
            reap_mode: reap,
            commit_policy: commit,
            ..MachineConfig::default()
        };
        fn configure<W: PushdownWorkload>(
            b: SessionBuilder<W>,
            config: MachineConfig,
            mode: DispatchMode,
            fabric: bool,
        ) -> SessionBuilder<W> {
            let b = b.machine_config(config).dispatch(mode);
            if fabric {
                b.fabric(FabricConfig::symmetric(6_000, 1_500))
            } else {
                b
            }
        }
        fn drive<W: PushdownWorkload>(
            s: &mut PushdownSession<W>,
            threads: usize,
            batch: Option<u32>,
        ) -> (RunReport, SessionStats) {
            match batch {
                None => s.run_closed_loop(threads, SECOND),
                Some(batch) => s.run_uring(threads, batch, SECOND),
            }
        }
        let batch = [None, Some(1u32), Some(4), Some(16)][batch_pick];
        let chains = 60;
        let report = if relocating_reads {
            // Read-only, so the file may move under the run: in-flight
            // recycled hops abort and the session re-arms and retries.
            let b = PushdownSession::builder(Btree::depth(4).max_chains(chains));
            let mut s = configure(b, config, mode, fabric).build().expect("session");
            s.schedule_relocation(150_000);
            let (report, stats) = drive(&mut s, threads, batch);
            prop_assert_eq!(stats.completed, chains);
            report
        } else {
            // Reads, journaled writes and fsync barriers on one file.
            let mix = OpMix { read: 40, update: 40, insert: 20, scan: 0 };
            let workload = YcsbMix::new(kv_entries(200), mix, seed).fsync_every(3);
            let b = PushdownSession::builder(workload.max_chains(chains));
            let mut s = configure(b, config, mode, fabric).build().expect("session");
            let (report, stats) = drive(&mut s, threads, batch);
            prop_assert_eq!(stats.completed, chains);
            prop_assert!(report.commit.commits > 0, "fsyncs committed");
            report
        };
        prop_assert!(report.cpu_busy_ns > 0, "the run spent CPU");
        prop_assert_eq!(report.audit(), Ok(()));
    }

    /// The same law for a two-tenant group sharing queue pairs under
    /// weighted fair reaping and group commit: a B-tree reader beside a
    /// writer that fsyncs every other record.
    #[test]
    fn cpu_buckets_sum_to_core_busy_time_across_tenants(
        (hook, batch_pick, cores) in (any::<bool>(), 0usize..3, 1usize..3),
        draws in proptest::collection::vec(0u64..3_000, COST_FIELDS),
        seed in any::<u64>(),
    ) {
        use bpfstor::core::{CommitPolicy, DispatchMode, TenantGroup, TenantLimits, YcsbMix};
        use bpfstor::kernel::MachineConfig;
        use bpfstor::sim::MILLISECOND;
        use bpfstor::workload::OpMix;

        let mut group = TenantGroup::builder()
            .machine_config(MachineConfig {
                cores,
                seed,
                costs: costs_from(&draws),
                irq_coalesce_us: 5,
                irq_coalesce_depth: 4,
                ..MachineConfig::default()
            })
            .dispatch(if hook { DispatchMode::DriverHook } else { DispatchMode::User })
            .commit_policy(CommitPolicy::Group { max_wait_us: 30, max_handles: 2 })
            .fair_reap(true)
            .build();
        group
            .add_tenant(Btree::depth(3), TenantLimits::weighted(3))
            .expect("reader attaches");
        let mix = OpMix { read: 20, update: 50, insert: 30, scan: 0 };
        group
            .add_tenant(
                YcsbMix::new(kv_entries(200), mix, seed).fsync_every(2),
                TenantLimits { sq_slots: Some(3), ..TenantLimits::weighted(1) },
            )
            .expect("writer attaches");
        let report = match [None, Some(2u32), Some(8)][batch_pick] {
            None => group.run_closed_loop(&[2, 3], MILLISECOND),
            Some(batch) => group.run_uring(&[1, 2], batch, MILLISECOND),
        };
        prop_assert!(report.tenants.iter().all(|t| t.chains > 0), "both tenants ran");
        prop_assert!(report.commit.commits > 0, "fsyncs committed");
        prop_assert_eq!(report.audit(), Ok(()));
    }
}

/// A write SQE pays the same `wr_fs_submit + journal_log` a `write`
/// syscall does, not a read's `fs_submit` — the two are equal only at
/// the calibrated defaults. Raising `journal_log` by 365 ns must cost
/// the ring path exactly 365 ns per write SQE, all of it in the journal
/// bucket, and conserve.
#[test]
fn uring_write_sqes_are_priced_like_write_syscalls() {
    use bpfstor::core::{DispatchMode, PushdownSession, YcsbMix};
    use bpfstor::kernel::{LayerCosts, MachineConfig, RunReport};
    use bpfstor::sim::SECOND;
    use bpfstor::workload::OpMix;

    let run = |costs: LayerCosts| -> RunReport {
        let mix = OpMix::paper_tokudb();
        let workload = YcsbMix::new(kv_entries(200), mix, 7).max_chains(400);
        let mut s = PushdownSession::builder(workload)
            .machine_config(MachineConfig {
                costs,
                ..MachineConfig::default()
            })
            .dispatch(DispatchMode::DriverHook)
            .build()
            .expect("session");
        let (report, stats) = s.run_uring(2, 16, SECOND);
        assert_eq!((stats.completed, stats.errors), (400, 0));
        report
    };
    let base = LayerCosts::default();
    let cheap = run(base);
    let dear = run(LayerCosts {
        journal_log: 500,
        ..base
    });
    assert_eq!(dear.audit(), Ok(()), "conserves off the defaults");
    assert_eq!(cheap.audit(), Ok(()));

    let write_sqes = dear.device.writes;
    assert!(write_sqes > 100, "the mix writes: {write_sqes}");
    assert_eq!(cheap.device.writes, write_sqes, "same requests either way");
    let extra = (500 - base.journal_log) * write_sqes;
    assert_eq!(dear.trace.journal - cheap.trace.journal, extra);
    // Timing shifts may regroup doorbells and interrupts (the driver
    // bucket); every other layer did exactly the same work.
    let rest = |r: &RunReport| r.trace.software() - r.trace.journal - r.trace.drv;
    assert_eq!(rest(&dear), rest(&cheap));
    assert_eq!(
        dear.cpu_busy_ns - cheap.cpu_busy_ns,
        extra + dear.trace.drv - cheap.trace.drv,
        "the cores ran what the buckets say"
    );
}
