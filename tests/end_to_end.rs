//! Cross-crate integration tests: the full pipeline from on-disk bytes
//! through the simulated kernel, the verifier, and the interpreter back
//! to the application — for every dispatch path and every workload,
//! through the one workload-generic [`PushdownSession`] API.

use bpfstor::core::{
    btree_lookup_program_with_stats, stats_slot, Btree, Chase, DispatchMode, PushdownSession, Scan,
    SessionError, Sst, CHASE_PAYLOAD,
};
use bpfstor::kernel::{Machine, ProgHandle};
use bpfstor::sim::{MILLISECOND, SECOND};

#[path = "../crates/kernel/tests/support/mod.rs"]
mod support;
use support::{exact_link, kv_entries, machine};

/// A small SSTable probe set: 600 entries with 48-byte values, probed by
/// a mix of present and absent keys.
fn sst_fixture() -> (Vec<(u64, Vec<u8>)>, Vec<u64>) {
    let probes: Vec<u64> = (0..50u64).map(|i| i * 41 % 2_000).collect();
    (kv_entries(600), probes)
}

/// Fixed-width scan rows with a pseudo-random "price" column.
fn scan_fixture() -> Vec<(u64, Vec<u8>)> {
    (0..400u64)
        .map(|i| {
            let mut v = vec![0u8; 24];
            let price = i.wrapping_mul(2654435761) % 10_000;
            v[..8].copy_from_slice(&price.to_le_bytes());
            (i, v)
        })
        .collect()
}

#[test]
fn all_four_workloads_run_in_all_three_modes_closed_loop() {
    for mode in DispatchMode::ALL {
        // B-tree point lookups.
        let mut s = PushdownSession::builder(Btree::depth(4).max_chains(30))
            .dispatch(mode)
            .build()
            .expect("btree session");
        let (report, stats) = s.run_closed_loop(2, SECOND);
        assert_eq!(stats.completed, 30, "btree {mode:?}");
        assert_eq!(stats.mismatches, 0, "btree {mode:?}");
        assert_eq!(stats.errors, 0, "btree {mode:?}");
        assert_eq!(report.errors, 0, "btree {mode:?}");

        // Cold SSTable gets.
        let (entries, probes) = sst_fixture();
        let nprobes = probes.len() as u64;
        let mut s = PushdownSession::builder(Sst::new(entries, probes))
            .dispatch(mode)
            .build()
            .expect("sst session");
        let (_, stats) = s.run_closed_loop(1, SECOND);
        assert_eq!(stats.completed, nprobes, "sst {mode:?}");
        assert_eq!(stats.mismatches, 0, "sst {mode:?}");
        assert_eq!(stats.errors, 0, "sst {mode:?}");
        assert!(stats.hits > 0 && stats.misses > 0, "probe mix {mode:?}");

        // Whole-table scan/filter/aggregate.
        let mut s = PushdownSession::builder(Scan::new(scan_fixture(), vec![0, 5_000, 20_000]))
            .dispatch(mode)
            .build()
            .expect("scan session");
        let (_, stats) = s.run_closed_loop(1, SECOND);
        assert_eq!(stats.completed, 3, "scan {mode:?}");
        assert_eq!(stats.mismatches, 0, "scan {mode:?}");
        assert_eq!(stats.errors, 0, "scan {mode:?}");

        // Pointer chase.
        let mut s = PushdownSession::builder(Chase::hops(6).max_chains(10).random_start(true))
            .dispatch(mode)
            .build()
            .expect("chase session");
        let (_, stats) = s.run_closed_loop(2, SECOND);
        assert_eq!(stats.completed, 10, "chase {mode:?}");
        assert_eq!(stats.mismatches, 0, "chase {mode:?}");
        assert_eq!(stats.errors, 0, "chase {mode:?}");
        assert_eq!(stats.hits, 10, "every chase reaches the sentinel");
    }
}

#[test]
fn all_four_workloads_run_in_all_three_modes_uring() {
    for mode in DispatchMode::ALL {
        let mut s = PushdownSession::builder(Btree::depth(4).max_chains(16))
            .dispatch(mode)
            .build()
            .expect("btree session");
        let (_, stats) = s.run_uring(1, 4, SECOND);
        assert_eq!(stats.completed, 16, "btree uring {mode:?}");
        assert_eq!(stats.mismatches + stats.errors, 0, "btree uring {mode:?}");

        let (entries, probes) = sst_fixture();
        let nprobes = probes.len() as u64;
        let mut s = PushdownSession::builder(Sst::new(entries, probes))
            .dispatch(mode)
            .build()
            .expect("sst session");
        let (_, stats) = s.run_uring(1, 4, SECOND);
        assert_eq!(stats.completed, nprobes, "sst uring {mode:?}");
        assert_eq!(stats.mismatches + stats.errors, 0, "sst uring {mode:?}");

        let mut s = PushdownSession::builder(Scan::new(scan_fixture(), vec![0, 5_000]))
            .dispatch(mode)
            .build()
            .expect("scan session");
        let (_, stats) = s.run_uring(1, 2, SECOND);
        assert_eq!(stats.completed, 2, "scan uring {mode:?}");
        assert_eq!(stats.mismatches + stats.errors, 0, "scan uring {mode:?}");

        let mut s = PushdownSession::builder(Chase::hops(5).max_chains(12))
            .dispatch(mode)
            .build()
            .expect("chase session");
        let (_, stats) = s.run_uring(1, 4, SECOND);
        assert_eq!(stats.completed, 12, "chase uring {mode:?}");
        assert_eq!(stats.mismatches + stats.errors, 0, "chase uring {mode:?}");
    }
}

#[test]
fn all_dispatch_modes_agree_on_btree_lookups() {
    let mut results: Vec<Vec<(bool, Option<u64>)>> = Vec::new();
    for mode in DispatchMode::ALL {
        let mut s = PushdownSession::builder(Btree::depth(5))
            .dispatch(mode)
            .build()
            .expect("session");
        let nkeys = s.workload().nkeys();
        let probes: Vec<u64> = (0..40).map(|i| i * 37 % (nkeys + 50)).collect();
        let mut out = Vec::new();
        for key in probes {
            // Out-of-range probes are misses, not errors.
            let hit = s.lookup(key).expect("lookup");
            out.push((hit.found, hit.output));
        }
        results.push(out);
    }
    assert_eq!(results[0], results[1], "user vs syscall hook");
    assert_eq!(results[0], results[2], "user vs driver hook");
}

#[test]
fn all_dispatch_modes_agree_on_sst_gets() {
    let (entries, probes) = sst_fixture();
    let mut results: Vec<Vec<(bool, Option<Vec<u8>>)>> = Vec::new();
    for mode in DispatchMode::ALL {
        let mut s = PushdownSession::builder(Sst::new(entries.clone(), Vec::new()))
            .dispatch(mode)
            .build()
            .expect("session");
        let mut out = Vec::new();
        for &key in &probes {
            // Absent and out-of-range probes are misses, not errors.
            let hit = s.lookup(key).expect("get");
            out.push((hit.found, hit.output));
        }
        results.push(out);
    }
    assert!(results[0].iter().any(|(found, _)| *found));
    assert!(results[0].iter().any(|(found, _)| !*found));
    assert_eq!(results[0], results[1], "native vs syscall-hook gets");
    assert_eq!(results[0], results[2], "native vs driver-hook gets");
}

#[test]
fn scan_aggregates_match_native_computation_in_hook_mode() {
    let rows = scan_fixture();
    let mut s = PushdownSession::builder(Scan::new(rows, vec![5_000]))
        .dispatch(DispatchMode::DriverHook)
        .build()
        .expect("session");
    let expected = s.workload().expected(5_000);
    let hit = s.lookup(5_000).expect("scan");
    assert_eq!(hit.output, Some(expected));
    assert_eq!(
        hit.ios,
        s.workload().data_blocks(),
        "one I/O per data block, none for the result"
    );
}

#[test]
fn lookup_depth_equals_io_count() {
    for depth in [1u32, 3, 7] {
        let mut s = PushdownSession::builder(Btree::depth(depth))
            .dispatch(DispatchMode::DriverHook)
            .build()
            .expect("session");
        let hit = s.lookup(0).expect("lookup");
        assert!(hit.found);
        assert_eq!(hit.ios, depth, "one I/O per level");
    }
}

#[test]
fn chase_emits_the_payload_with_one_io_per_hop() {
    let mut s = PushdownSession::builder(Chase::hops(9))
        .dispatch(DispatchMode::DriverHook)
        .build()
        .expect("session");
    let hit = s.lookup(0).expect("chase");
    assert_eq!(hit.output, Some(CHASE_PAYLOAD));
    assert_eq!(hit.ios, 9);
}

#[test]
fn uring_and_sync_produce_identical_verdicts() {
    let run = |uring: bool| {
        let mut s = PushdownSession::builder(Btree::depth(4))
            .dispatch(DispatchMode::DriverHook)
            .seed(1234)
            .build()
            .expect("session");
        let (report, stats) = if uring {
            s.run_uring(1, 4, 10 * MILLISECOND)
        } else {
            s.run_closed_loop(1, 10 * MILLISECOND)
        };
        assert_eq!(stats.mismatches, 0);
        assert_eq!(report.errors, 0);
        stats.hits + stats.misses
    };
    assert!(run(false) > 0);
    assert!(run(true) > 0);
}

// --- The §4 failure protocol -------------------------------------------------

#[test]
fn extent_miss_auto_retry_completes_lookups_mid_relocation() {
    // The acceptance scenario: the file is relocated (defragmenter
    // style) while lookups are in flight; the session's rearm-and-retry
    // policy absorbs the invalidation and every lookup still completes,
    // without the caller touching the ioctl.
    let mut s = PushdownSession::builder(Btree::depth(5).max_chains(200))
        .dispatch(DispatchMode::DriverHook)
        .retry_budget(2)
        .build()
        .expect("session");
    s.schedule_relocation(2 * MILLISECOND);
    let (report, stats) = s.run_closed_loop(2, SECOND);
    assert_eq!(stats.completed, 200, "every logical lookup completed");
    assert_eq!(stats.errors, 0, "no failure ever reached the caller");
    assert_eq!(stats.mismatches, 0, "relocated blocks still decode right");
    assert!(
        stats.rearm_retries > 0,
        "the relocation really did invalidate in-flight chains"
    );
    assert_eq!(report.rearm_retries, stats.rearm_retries);
}

#[test]
fn extent_miss_auto_retry_works_under_uring_too() {
    // Same scenario through the batched submission path: retries are
    // queued as pending SQEs and submitted at the next enter.
    let mut s = PushdownSession::builder(Btree::depth(5).max_chains(200))
        .dispatch(DispatchMode::DriverHook)
        .retry_budget(2)
        .build()
        .expect("session");
    s.schedule_relocation(200_000);
    let (report, stats) = s.run_uring(1, 4, SECOND);
    assert_eq!(stats.completed, 200, "every logical lookup completed");
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.mismatches, 0);
    assert!(stats.rearm_retries > 0, "retries actually exercised");
    assert_eq!(report.errors, 0);
}

#[test]
fn retry_budget_zero_surfaces_the_extent_miss() {
    let mut s = PushdownSession::builder(Btree::depth(4))
        .dispatch(DispatchMode::DriverHook)
        .retry_budget(0)
        .build()
        .expect("session");
    s.schedule_relocation(0);
    let err = s.lookup(1).expect_err("invalidation must surface");
    match err {
        SessionError::Chain(status) => assert!(
            status.is_rearmable(),
            "expected ExtentMiss/Invalidated, got {status:?}"
        ),
        other => panic!("unexpected error {other:?}"),
    }
    // Manual recovery still works.
    s.rearm().expect("rearm");
    let hit = s.lookup(1).expect("after rearm");
    assert!(hit.found, "lookups work against the relocated file");
}

#[test]
fn scan_survives_relocation_through_auto_retry() {
    // A scan chain is long (one hop per data block), so a mid-scan
    // relocation reliably hits it; the retry restarts the whole scan.
    let mut s = PushdownSession::builder(Scan::new(scan_fixture(), vec![0]))
        .dispatch(DispatchMode::DriverHook)
        .retry_budget(2)
        .build()
        .expect("session");
    s.schedule_relocation(20_000);
    let expected = s.workload().expected(0);
    let hit = s.lookup(0).expect("scan completes despite relocation");
    assert_eq!(hit.output, Some(expected));
    assert!(hit.attempts > 0, "the scan was actually restarted");
}

// --- Token-keyed driver state (regression) -----------------------------------

#[test]
fn sst_same_key_on_two_concurrent_chains_does_not_collide() {
    // Regression: the native cold get used to key its per-chain state
    // on the lookup key, so two in-flight chains for the same key
    // corrupted each other's stage (the second chain parsed its footer
    // block as an index block). Tokens key the state now.
    let (entries, _) = sst_fixture();
    let present = entries[17].0;
    // The same key issued on two chains that fly concurrently (uring
    // batch 2), plus a second pair for good measure.
    let mut s = PushdownSession::builder(Sst::new(entries, vec![present; 4]))
        .dispatch(DispatchMode::User)
        .build()
        .expect("session");
    let (report, stats) = s.run_uring(1, 2, SECOND);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.hits, 4);
    assert_eq!(
        stats.mismatches, 0,
        "concurrent same-key chains must not share state"
    );
    assert_eq!(stats.errors, 0);
    assert_eq!(report.errors, 0);
}

#[test]
fn malformed_index_block_on_the_user_path_is_a_miss_not_a_panic() {
    // Regression: the native index step sliced as many 12-byte entries
    // as the block's count field claimed. A count of 0xFFFF read past
    // the 512-byte block and panicked the application thread.
    use bpfstor::core::{ChainStatus, ChainToken, PushdownWorkload};
    use bpfstor::kernel::{UserNext, DEFAULT_TENANT};
    use bpfstor::lsm::BLOCK;

    let (entries, _) = sst_fixture();
    let mut sst = Sst::new(entries, Vec::new());
    let image = sst.build_image().expect("image");
    let token = ChainToken {
        id: 1,
        tenant: DEFAULT_TENANT,
        arg: 598,
        issued: 0,
    };
    let footer = &image[sst.footer_off() as usize..];
    let UserNext::Continue(index_off) = sst.user_step(&token, footer) else {
        panic!("key 598 is within the table's range");
    };
    assert_eq!(index_off % BLOCK as u64, 0);
    let mut bad_index = [0u8; BLOCK];
    bad_index[..2].copy_from_slice(&[0xFF, 0xFF]);
    assert_eq!(sst.user_step(&token, &bad_index), UserNext::Done);
    let delivered = ChainStatus::Pass(bad_index.to_vec());
    assert_eq!(sst.decode(&token, &delivered), Ok(None));
}

// --- Program handles ----------------------------------------------------------

#[test]
fn stats_map_counts_kernel_side_through_the_handle() {
    // Build a depth-4 session, then swap in the stats-map program
    // variant; its handle addresses the map afterwards.
    let mut s = PushdownSession::builder(Btree::depth(4).max_chains(25))
        .dispatch(DispatchMode::DriverHook)
        .build()
        .expect("session");
    let fd = s.fd();
    let stats_handle = s
        .machine_mut()
        .install(fd, btree_lookup_program_with_stats(), 0)
        .expect("install stats variant");
    assert_ne!(Some(stats_handle), s.handle(), "a second, distinct handle");

    let (report, stats) = s.run_closed_loop(1, SECOND);
    assert_eq!(report.errors, 0);
    assert_eq!(stats.mismatches, 0, "stats variant returns correct values");

    let slot = |m: &mut Machine, h: ProgHandle, s: u32| -> u64 {
        let v = m
            .map_value(h, 0, &s.to_le_bytes())
            .expect("map value readable after the run");
        u64::from_le_bytes(v.try_into().expect("8B"))
    };
    let m = s.machine_mut();
    let invocations = slot(m, stats_handle, stats_slot::INVOCATIONS);
    let resubmits = slot(m, stats_handle, stats_slot::RESUBMITS);
    let hits = slot(m, stats_handle, stats_slot::HITS);
    let misses = slot(m, stats_handle, stats_slot::MISSES);

    assert_eq!(invocations, 25 * 4, "one invocation per hop");
    assert_eq!(resubmits, 25 * 3, "three interior hops per depth-4 lookup");
    assert_eq!(hits + misses, 25, "every chain terminates at a leaf");
    assert_eq!(hits, stats.hits);
    assert_eq!(misses, stats.misses);
}

// --- Whole-pipeline properties -------------------------------------------------

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let mut s = PushdownSession::builder(Btree::depth(6))
            .dispatch(DispatchMode::DriverHook)
            .seed(777)
            .build()
            .expect("session");
        let (report, stats) = s.run_closed_loop(4, 15 * MILLISECOND);
        (
            report.chains,
            report.ios,
            report.sim_time,
            report.iops.to_bits(),
            stats.hits,
            stats.misses,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_give_different_interleavings_but_correct_results() {
    for seed in [1u64, 2, 3] {
        let mut s = PushdownSession::builder(Btree::depth(5))
            .dispatch(DispatchMode::DriverHook)
            .seed(seed)
            .build()
            .expect("session");
        let (report, stats) = s.run_closed_loop(3, 10 * MILLISECOND);
        assert_eq!(stats.mismatches, 0, "seed {seed}");
        assert_eq!(report.errors, 0, "seed {seed}");
    }
}

#[test]
fn driver_hook_beats_baseline_at_depth() {
    let run = |mode: DispatchMode| {
        let mut s = PushdownSession::builder(Btree::depth(8))
            .dispatch(mode)
            .build()
            .expect("session");
        s.run_closed_loop(4, 15 * MILLISECOND).0
    };
    let rb = run(DispatchMode::User);
    let rh = run(DispatchMode::DriverHook);
    let speedup = rh.chains_per_sec / rb.chains_per_sec;
    assert!(
        speedup > 1.5,
        "depth-8 driver hook should clearly win: {speedup:.2}x"
    );
}

// --- Queue-accurate device path -------------------------------------------------

#[test]
fn session_queue_knobs_backpressure_and_coalescing() {
    // A one-slot NVMe ring under 32 in-flight SQEs: submissions park
    // and retry (visible as rejections), every lookup still completes
    // correctly, and throughput degrades instead of panicking.
    let run = |qd: usize, irq_us: u64, irq_depth: u32| {
        let mut s = PushdownSession::builder(Btree::depth(4).max_chains(64))
            .dispatch(DispatchMode::DriverHook)
            .queue_depth(qd)
            .irq_coalescing(irq_us, irq_depth)
            .build()
            .expect("session");
        let (report, stats) = s.run_uring(1, 32, SECOND);
        assert_eq!(stats.completed, 64, "qd={qd}: every lookup completes");
        assert_eq!(stats.mismatches, 0, "qd={qd}");
        assert_eq!(stats.errors, 0, "qd={qd}");
        report
    };
    let shallow = run(2, 0, 1);
    let deep = run(4096, 0, 1);
    assert!(
        shallow.device.rejected > 0,
        "one-slot ring must backpressure"
    );
    assert_eq!(deep.device.rejected, 0);
    assert!(
        shallow.iops < deep.iops,
        "shallow ring serializes the device"
    );

    // Coalescing reaps many CQEs per interrupt without losing lookups.
    let coalesced = run(4096, 8, 8);
    assert!(
        coalesced.device.irqs < deep.device.irqs,
        "coalescing aggregates interrupts: {} vs {}",
        coalesced.device.irqs,
        deep.device.irqs
    );
}

#[test]
#[should_panic(expected = "value: Config(IrqCoalesceDepth)")]
fn zero_coalescing_depth_is_rejected_loudly() {
    // Regression: depth 0 used to be silently clamped to 1 deep inside
    // the machine, making "no coalescing" configs lie about themselves.
    let builder = PushdownSession::builder(Btree::depth(3)).irq_coalescing(8, 0);
    builder.build().unwrap();
}

#[test]
#[should_panic(expected = "value: Config(Device(QueueDepth(65537)))")]
fn a_session_deeper_than_mqes_is_rejected_loudly() {
    let builder = PushdownSession::builder(Btree::depth(3)).queue_depth(65_537);
    builder.build().unwrap();
}

#[test]
fn all_reap_modes_complete_the_same_lookups() {
    use bpfstor::core::ReapMode;
    let run = |mode: ReapMode| {
        let mut s = PushdownSession::builder(Btree::depth(4).max_chains(64))
            .dispatch(DispatchMode::DriverHook)
            .reap_mode(mode)
            .build()
            .expect("session");
        let (report, stats) = s.run_uring(1, 32, SECOND);
        assert_eq!(stats.completed, 64, "every lookup completes");
        assert_eq!(stats.mismatches, 0);
        assert_eq!(stats.errors, 0);
        report
    };
    let irq = run(ReapMode::Interrupt);
    let adaptive = run(ReapMode::AdaptiveIrq);
    let polled = run(ReapMode::Polled);
    let hybrid = run(ReapMode::Hybrid);
    for r in [&adaptive, &polled, &hybrid] {
        assert_eq!(r.device.cqes, irq.device.cqes, "same completions per mode");
    }
    assert_eq!(polled.trace.irqs, 0, "polled mode never interrupts");
    assert!(
        hybrid.reaper.mode_transitions >= 1,
        "32-deep load flips hybrid"
    );
}

// --- The journaled write path: mixed read/write workloads ---------------------
// --- The journaled write path: mixed read/write workloads ---------------------

#[path = "end_to_end/write_mixes.rs"]
mod write_mixes;

// --- LSM end to end: flush/compaction through the rings, pushdown reads -------

#[path = "end_to_end/lsm_end_to_end.rs"]
mod lsm_end_to_end;

// --- Pushdown over fabric (NVMe-oF-style remote queues) ---------------------

#[test]
fn remote_modes_stay_correct_on_every_workload() {
    for mode in [DispatchMode::Remote, DispatchMode::DriverHook] {
        let mut s = PushdownSession::builder(Btree::depth(4).max_chains(20))
            .dispatch(mode)
            .fabric(exact_link(8_000))
            .build()
            .expect("btree session");
        let (report, stats) = s.run_closed_loop(2, SECOND);
        assert_eq!(stats.completed, 20, "btree {mode:?}");
        assert_eq!(stats.mismatches, 0, "btree {mode:?}");
        assert_eq!(stats.errors, 0, "btree {mode:?}");
        assert_eq!(report.errors, 0, "btree {mode:?}");
        assert!(report.fabric.capsules_sent > 0, "traffic crossed the wire");

        let mut s = PushdownSession::builder(Chase::hops(6).max_chains(12))
            .dispatch(mode)
            .fabric(exact_link(8_000))
            .build()
            .expect("chase session");
        let (report, stats) = s.run_uring(1, 4, SECOND);
        assert_eq!(stats.completed, 12, "chase {mode:?}");
        assert_eq!(stats.mismatches, 0, "chase {mode:?}");
        assert_eq!(report.errors, 0, "chase {mode:?}");
    }
}

#[test]
fn fabric_lookup_returns_the_same_value_as_local() {
    let value_at = |mode: DispatchMode, fabric: bool| {
        let mut b = PushdownSession::builder(Btree::depth(3));
        b = b.dispatch(mode);
        if fabric {
            b = b.fabric(exact_link(5_000));
        }
        let mut s = b.build().expect("session");
        let out = s.lookup(42).expect("lookup");
        assert!(out.found);
        out.output.expect("value")
    };
    let local = value_at(DispatchMode::User, false);
    assert_eq!(value_at(DispatchMode::Remote, true), local);
    assert_eq!(value_at(DispatchMode::DriverHook, true), local);
}

#[test]
fn pushdown_elides_fabric_round_trips_on_dependency_chains() {
    const ONE_WAY: u64 = 40_000;
    const HOPS: u64 = 8;
    let mean = |mode: DispatchMode| {
        let mut s = PushdownSession::builder(Chase::hops(HOPS).max_chains(10))
            .dispatch(mode)
            .fabric(exact_link(ONE_WAY))
            .build()
            .expect("session");
        let (report, stats) = s.run_closed_loop(1, SECOND);
        assert_eq!(stats.mismatches, 0);
        assert_eq!(stats.errors, 0);
        report.mean_latency()
    };
    let no_pushdown = mean(DispatchMode::Remote);
    let pushdown = mean(DispatchMode::DriverHook);
    let rtt = (2 * ONE_WAY) as f64;
    assert!(
        no_pushdown - pushdown >= (HOPS - 1) as f64 * rtt * 0.999,
        "pushdown must elide {} round trips: nopd {no_pushdown}, pd {pushdown}",
        HOPS - 1
    );
}

#[test]
fn fabric_pushdown_survives_relocation_through_auto_retry() {
    // The §4 invalidation protocol still works when the snapshot lives
    // on the target: the error returns as a capsule, the session
    // re-arms, and the retried chains succeed.
    let mut s = PushdownSession::builder(Chase::hops(5).max_chains(40))
        .dispatch(DispatchMode::DriverHook)
        .fabric(exact_link(6_000))
        .retry_budget(3)
        .build()
        .expect("session");
    s.schedule_relocation(2 * MILLISECOND);
    let (report, stats) = s.run_closed_loop(2, SECOND);
    assert_eq!(stats.completed, 40);
    assert_eq!(stats.mismatches, 0);
    assert_eq!(stats.errors, 0, "auto-retry absorbs the invalidation");
    assert_eq!(report.errors, 0);
}

// --- Tenant groups -------------------------------------------------------------

#[path = "end_to_end/tenant_groups.rs"]
mod tenant_groups;
