// --- The three dispatch paths: correctness, latency, determinism -----------------

#[test]
fn user_mode_chain_walks_and_returns_last_block() {
    let (mut m, mut d) = setup(8, DispatchMode::User);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 4);
    for o in &d.outcomes {
        assert_eq!(o.ios, 8, "eight hops for eight blocks");
        match &o.status {
            ChainStatus::Pass(data) => {
                assert_eq!(
                    u64::from_le_bytes(data[8..16].try_into().expect("8B")),
                    CHAIN_VALUE
                );
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!(report.errors, 0);
    assert_eq!(report.ios, 32);
}

#[test]
fn driver_hook_chain_emits_correct_value_with_fewer_cpu_cycles() {
    let (mut m, mut d) = setup(8, DispatchMode::DriverHook);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 4);
    for o in &d.outcomes {
        assert_eq!(o.ios, 8);
        match &o.status {
            ChainStatus::Emitted(v) => {
                assert_eq!(
                    u64::from_le_bytes(v[..8].try_into().expect("8B")),
                    CHAIN_VALUE
                );
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!(report.errors, 0);
    assert!(
        report.extcache.hits >= 7 * 4,
        "recycled hops translate via the extent cache"
    );
}

#[test]
fn syscall_hook_chain_works() {
    let (mut m, mut d) = setup(8, DispatchMode::SyscallHook);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 4);
    for o in &d.outcomes {
        assert!(
            matches!(o.status, ChainStatus::Emitted(_)),
            "{:?}",
            o.status
        );
    }
    assert_eq!(report.errors, 0);
}

#[test]
fn latency_ordering_matches_figure_3c() {
    // driver hook < syscall hook < user, for deep chains.
    let mut lat = Vec::new();
    for mode in DispatchMode::ALL {
        let (mut m, mut d) = setup(10, mode);
        let report = m.run_closed_loop(1, SECOND, &mut d);
        lat.push((mode, report.mean_latency()));
    }
    let user = lat[0].1;
    let syscall = lat[1].1;
    let driver = lat[2].1;
    assert!(
        driver < syscall && syscall < user,
        "expected driver < syscall < user, got {lat:?}"
    );
    // Paper: driver-hook latency cut approaches ~49% at depth 10.
    let cut = 1.0 - driver / user;
    assert!(
        (0.30..0.60).contains(&cut),
        "driver-hook latency cut {cut:.2} outside the paper's band"
    );
}

#[test]
fn single_read_latency_matches_table1_total() {
    // One-block chain = one plain 512B O_DIRECT read. Mean end-to-end
    // latency should sit at Table 1's 6.27us plus app think time.
    let (mut m, mut d) = setup(1, DispatchMode::User);
    d.state.count = 200;
    let report = m.run_closed_loop(1, SECOND, &mut d);
    let expect = 6272.0 + 1000.0;
    let got = report.mean_latency();
    assert!(
        (got - expect).abs() / expect < 0.03,
        "mean latency {got} vs expected {expect}"
    );
}

#[test]
fn extent_miss_without_install_snapshot() {
    // Install, then invalidate via relocation before running: chains see
    // ExtentMiss (or Invalidated) until rearm.
    let (mut m, mut d) = setup(8, DispatchMode::DriverHook);
    m.schedule_relocation(0, "chain.db");
    let _ = m.run_closed_loop(1, 10 * MILLISECOND, &mut d);
    assert!(
        d.outcomes
            .iter()
            .all(|o| matches!(o.status, ChainStatus::ExtentMiss | ChainStatus::Invalidated)),
        "chains must fail after invalidation: {:?}",
        d.outcomes.iter().map(|o| &o.status).collect::<Vec<_>>()
    );
    // Re-arm and run again: everything works.
    let fd = d.state.fd;
    m.rearm(fd).expect("rearm");
    let mut d2 = chase(fd, DispatchMode::DriverHook, 2);
    let report = m.run_closed_loop(1, SECOND, &mut d2);
    assert_eq!(report.errors, 0, "re-armed chains succeed");
    assert!(d2.outcomes.iter().all(|o| o.status.is_ok()));
}

#[test]
fn a_hop_that_cannot_recycle_still_pays_its_extent_lookup() {
    // The extent-cache lookup runs on the core whatever it returns, so
    // a chain that ends SplitFallback or ExtentMiss is charged for it
    // like one that recycles: the CPU buckets still sum to the cores'
    // busy time, to the nanosecond.
    let chains = 100;
    let lookup = LayerCosts::default().extent_cache_lookup;

    // 1 KiB hops over single-block extents: the first resubmission
    // straddles two extents and falls back to the BIO path.
    let mut m = machine(MachineConfig::default());
    let image = chain_file(8);
    {
        // Interleave allocation with a decoy file so every extent of
        // chain.db is a single block.
        let (fs, store) = m.fs_and_store();
        let ino = fs.create("chain.db").expect("create");
        let decoy = fs.create("decoy").expect("create decoy");
        for (i, block) in image.chunks(SECTOR_SIZE).enumerate() {
            let off = (i * SECTOR_SIZE) as u64;
            fs.write(ino, off, block, store).expect("write");
            fs.write(decoy, off, block, store).expect("write decoy");
        }
        fs.drain_events();
    }
    let fd = m.open("chain.db", true).expect("open");
    m.install(fd, chase_program(), 0).expect("install");
    let mut d = chase(fd, DispatchMode::DriverHook, chains);
    d.state.len = 2 * SECTOR_SIZE as u32;
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len() as u64, chains);
    for o in &d.outcomes {
        assert!(
            matches!(o.status, ChainStatus::SplitFallback { file_off, .. } if file_off == 512),
            "{:?}",
            o.status
        );
    }
    assert_eq!(report.trace.extent_cache, chains * lookup);
    assert_eq!(report.audit(), Ok(()), "split fallback");

    // A file grown after `install`: the snapshot is armed but ends at
    // block 2, so the second resubmission misses.
    let (mut m, fd) = machine_with(
        MachineConfig::default(),
        "chain.db",
        &image[..2 * SECTOR_SIZE],
        Some(chase_program()),
    );
    let ino = m.ino_of(fd).expect("ino");
    let (fs, store) = m.fs_and_store();
    let grown = &image[2 * SECTOR_SIZE..];
    fs.write(ino, 2 * SECTOR_SIZE as u64, grown, store)
        .expect("grow");
    fs.drain_events();
    let mut d = chase(fd, DispatchMode::DriverHook, chains);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len() as u64, chains);
    for o in &d.outcomes {
        assert_eq!((&o.status, o.ios), (&ChainStatus::ExtentMiss, 2));
    }
    // One lookup that recycled, one that missed, per chain.
    assert_eq!(report.trace.extent_cache, chains * 2 * lookup);
    assert_eq!(report.audit(), Ok(()), "extent miss");
}

#[test]
fn resubmission_bound_enforced() {
    let cfg = MachineConfig {
        resubmit_bound: 4,
        ..MachineConfig::default()
    };
    let (mut m, mut d) = setup_with(cfg, 16, DispatchMode::DriverHook);
    d.state.count = 1;
    let _ = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 1);
    assert_eq!(
        d.outcomes[0].status,
        ChainStatus::BoundExceeded,
        "16-hop chain must trip a bound of 4"
    );
}

#[test]
fn uring_driver_hook_completes_chains() {
    let (mut m, mut d) = setup(8, DispatchMode::DriverHook);
    d.state.count = 12;
    let report = m.run_uring(1, 4, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 12);
    assert!(d.outcomes.iter().all(|o| o.status.is_ok()));
    assert_eq!(report.errors, 0);
}

#[test]
fn uring_user_mode_completes_chains() {
    let (mut m, mut d) = setup(6, DispatchMode::User);
    d.state.count = 8;
    let report = m.run_uring(1, 4, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 8);
    for o in &d.outcomes {
        assert!(matches!(o.status, ChainStatus::Pass(_)), "{:?}", o.status);
        assert_eq!(o.ios, 6);
    }
    assert_eq!(report.errors, 0);
}

#[test]
fn runs_are_deterministic() {
    // Two fresh machines of one configuration produce equal reports —
    // every counter, every histogram bucket, every tenant row — and the
    // same outcomes in the same order: from the blocking path and from
    // io_uring, locally and with the hooks pushed down over a fabric,
    // under per-fsync and under group commit. Thread 0 chases an
    // 8-block chain; two more threads write, fsyncing every other one.
    let group = CommitPolicy::Group {
        max_wait_us: 30,
        max_handles: 2,
    };
    for uring in [false, true] {
        for fabric in [None, Some(exact_link(20_000))] {
            for commit_policy in [CommitPolicy::PerFsync, group] {
                let run = || {
                    let cfg = MachineConfig {
                        fabric: fabric.clone(),
                        commit_policy,
                        ..MachineConfig::default()
                    };
                    let (mut m, mut d) = setup_with(cfg, 8, DispatchMode::DriverHook);
                    d.state.count = 50;
                    m.create_file("wal.db", &[]).expect("create");
                    let wfd = m.open("wal.db", true).expect("open");
                    let mut d = mixed(d.state, writes(wfd, SECTOR_SIZE, 30, 2).state);
                    let report = if uring {
                        m.run_uring(3, 4, SECOND, &mut d)
                    } else {
                        m.run_closed_loop(3, SECOND, &mut d)
                    };
                    (report, d.outcomes)
                };
                let (first, second) = (run(), run());
                let what = format!("uring {uring}, {fabric:?}, {commit_policy:?}");
                assert_eq!((first.0.chains, first.0.errors), (80, 0), "{what}");
                assert!(first.0.commit.commits > 0, "{what}: fsyncs committed");
                assert_eq!(first, second, "{what}");
            }
        }
    }
}

#[test]
fn multithreaded_throughput_scales_then_saturates() {
    // Baseline user-mode: 6 threads scale near-linearly; at 12 threads
    // the 6 cores are CPU-saturated and throughput is capped at
    // cores / cpu-per-io — the regime where Figure 3b's driver hook
    // shows its largest improvement.
    let run_at = |threads: usize| -> (f64, f64) {
        let (mut m, mut d) = setup(4, DispatchMode::User);
        d.state.count = u64::MAX;
        let r = m.run_closed_loop(threads, 20 * MILLISECOND, &mut d);
        (r.iops, r.cpu_util)
    };
    let (one, _) = run_at(1);
    let (six, _) = run_at(6);
    let (twelve, util12) = run_at(12);
    assert!(six > one * 4.0, "6 threads should scale: {one} -> {six}");
    assert!(util12 > 0.95, "12 threads must saturate 6 cores: {util12}");
    // CPU cap: 6 cores / (app 1000 + submit 2123 + complete 925) ns.
    let cap = 6.0 / 4048e-9;
    assert!(
        (twelve - cap).abs() / cap < 0.05,
        "12-thread IOPS {twelve} should sit at the CPU cap {cap}"
    );
}

#[test]
fn a_buffered_open_is_refused_and_opens_nothing() {
    // The kernel models O_DIRECT only: `open(name, false)` must not hand
    // back a descriptor that would silently read direct.
    let (mut m, fd) = machine_with(MachineConfig::default(), "c.db", &chain_file(1), None);
    let err = m.open("c.db", false).expect_err("buffered open");
    assert_eq!(err, KernelError::Buffered);
    assert!(err.to_string().contains("O_DIRECT"), "{err}");
    assert_eq!(m.ino_of(fd + 1), None, "no descriptor was opened");
    assert_eq!(m.open("c.db", true), Ok(fd + 1), "nor numbered");
}

#[test]
fn deep_chain_latency_reduction_grows_with_depth() {
    let cut_at = |depth: usize| -> f64 {
        let mut user = 0.0;
        let mut driver = 0.0;
        for mode in [DispatchMode::User, DispatchMode::DriverHook] {
            let (mut m, mut d) = setup(depth, mode);
            d.state.count = 8;
            let r = m.run_closed_loop(1, SECOND, &mut d);
            match mode {
                DispatchMode::User => user = r.mean_latency(),
                _ => driver = r.mean_latency(),
            }
        }
        1.0 - driver / user
    };
    let shallow = cut_at(2);
    let deep = cut_at(10);
    assert!(
        deep > shallow,
        "latency cut should grow with depth: {shallow:.3} -> {deep:.3}"
    );
}

#[test]
fn fairness_accounting_tracks_recycled_submissions_per_thread() {
    let (mut m, mut d) = setup(6, DispatchMode::DriverHook);
    d.state.count = 9;
    let report = m.run_closed_loop(3, SECOND, &mut d);
    // 9 chains of 6 hops: 5 recycled resubmissions each.
    assert_eq!(report.resubmissions, 9 * 5);
    let per_thread = m.resubmission_accounting();
    assert_eq!(per_thread.iter().sum::<u64>(), 9 * 5);
    assert!(
        per_thread.iter().filter(|&&c| c > 0).count() >= 2,
        "work spread across threads: {per_thread:?}"
    );
}

#[test]
fn user_mode_never_touches_fairness_counters() {
    let (mut m, mut d) = setup(6, DispatchMode::User);
    d.state.count = 5;
    let report = m.run_closed_loop(2, SECOND, &mut d);
    assert_eq!(
        report.resubmissions, 0,
        "no recycled descriptors in user mode"
    );
}

#[test]
fn the_scripted_driver_stops_at_its_count_records_once_and_routes_each_callback() {
    // Every other machine-level test trusts `support::Script`: it asks
    // `next` with the running count and the thread, stops a thread on
    // `None`, hands each block to `step` and each outcome to `done`,
    // and keeps exactly the outcomes `done` accepted.
    struct Calls {
        fd: Fd,
        asked: Vec<u64>,
        steps: u64,
        dones: u64,
    }
    let (mut m, fd) = machine_with(MachineConfig::default(), "c.db", &chain_file(4), None);
    let calls = Calls {
        fd,
        asked: Vec::new(),
        steps: 0,
        dones: 0,
    };
    let mut d = Script::new(DispatchMode::User, calls, |s, issued, _thread, _rng| {
        s.asked.push(issued);
        (issued < 5).then(|| read(s.fd, 0, SECTOR_SIZE as u32, issued))
    });
    d.step = |s, _token, data| {
        s.steps += 1;
        chase_step(data)
    };
    // Not an outcome a re-arm repairs, so the kernel takes the verdict
    // for `Done` — and the script, which did not say `Done`, keeps no
    // record of it.
    d.done = |s, outcome| {
        s.dones += 1;
        match outcome.arg() {
            2 => ChainVerdict::RearmRetry,
            _ => ChainVerdict::Done,
        }
    };
    let report = m.run_closed_loop(2, SECOND, &mut d);
    assert_eq!(d.issued, 5, "stops at its count");
    assert_eq!(
        d.state.asked,
        [0, 1, 2, 3, 4, 5, 5],
        "each thread hears None once"
    );
    assert_eq!(d.state.steps, 5 * 4, "every hop of every chain is stepped");
    assert_eq!((d.state.dones, report.chains), (5, 5));
    let mut args: Vec<u64> = d.outcomes.iter().map(ChainOutcome::arg).collect();
    args.sort_unstable();
    assert_eq!(args, [0, 1, 3, 4], "each accepted outcome exactly once");
    assert!(d.outcomes.iter().all(|o| o.ios == 4));

    // The defaults are the trait's: one hop, every outcome accepted.
    let mut d = reads(fd, DispatchMode::User, 3);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!((d.issued, d.outcomes.len(), report.ios), (3, 3, 3));
    let first_block = &chain_file(4)[..SECTOR_SIZE];
    for o in &d.outcomes {
        assert_eq!(o.status, ChainStatus::Pass(first_block.to_vec()));
    }
}
