//! The journaled write path: mixed read/write workloads.

use super::*;
use bpfstor::core::YcsbMix;
use bpfstor::workload::OpMix;

/// The acceptance scenario: the paper's 40r/40u/20i TokuDB mix runs
/// end to end in ALL THREE dispatch modes, with writes really going
/// through the rings (nonzero write doorbells and write CQEs) and
/// every read still checking out against the table.
#[test]
fn tokudb_40_40_20_runs_in_all_three_modes() {
    for mode in DispatchMode::ALL {
        let mut s = PushdownSession::builder(
            YcsbMix::new(kv_entries(600), OpMix::paper_tokudb(), 0x40_40_20).max_chains(300),
        )
        .dispatch(mode)
        .build()
        .expect("session");
        let (report, stats) = s.run_closed_loop(4, SECOND);
        assert_eq!(stats.completed, 300, "{mode:?}");
        assert_eq!(
            stats.mismatches, 0,
            "{mode:?}: reads stay correct under writes"
        );
        assert_eq!(stats.errors, 0, "{mode:?}");
        assert!(stats.writes > 0, "{mode:?}: the mix produced writes");
        assert!(
            (0.5..0.7).contains(&(stats.writes as f64 / 300.0)),
            "{mode:?}: ~60% of a 40/40/20 mix is writes, got {}",
            stats.writes
        );
        assert!(
            report.device.write_doorbells > 0,
            "{mode:?}: write submissions rang doorbells"
        );
        assert!(
            report.device.write_cqes > 0,
            "{mode:?}: write completions were reaped"
        );
        assert!(report.device.flushes > 0, "{mode:?}: fsyncs hit the device");
        assert_eq!(
            report.write_latency.count(),
            stats.writes,
            "{mode:?}: every write chain recorded write latency"
        );
        assert_eq!(report.errors, 0, "{mode:?}");
    }
}

/// YCSB-A (50/50) and YCSB-B (95/5) complete through both submission
/// paths (sync closed-loop and io_uring batches) in every mode.
#[test]
fn ycsb_a_and_b_run_sync_and_uring_in_all_modes() {
    for mix in [OpMix::ycsb_a(), OpMix::ycsb_b()] {
        for mode in DispatchMode::ALL {
            for uring in [false, true] {
                let mut s = PushdownSession::builder(
                    YcsbMix::new(kv_entries(600), mix, 0xAB).max_chains(160),
                )
                .dispatch(mode)
                .build()
                .expect("session");
                let (report, stats) = if uring {
                    s.run_uring(2, 4, SECOND)
                } else {
                    s.run_closed_loop(2, SECOND)
                };
                assert_eq!(stats.completed, 160, "{mix:?} {mode:?} uring={uring}");
                assert_eq!(stats.mismatches, 0, "{mix:?} {mode:?} uring={uring}");
                assert_eq!(stats.errors, 0, "{mix:?} {mode:?} uring={uring}");
                assert!(stats.writes > 0, "{mix:?} {mode:?} uring={uring}");
                assert!(
                    report.device.write_cqes > 0,
                    "{mix:?} {mode:?} uring={uring}"
                );
                assert_eq!(
                    stats.writes + stats.hits + stats.misses,
                    160,
                    "{mix:?} {mode:?} uring={uring}: chains partition into reads and writes"
                );
            }
        }
    }
}

/// Writes contending for SQ slots must cost readers tail latency:
/// at the same queue depth, the write-heavy mix's p99 READ latency
/// is strictly above the read-only mix's, in every dispatch mode.
#[test]
fn write_heavy_mix_raises_read_p99_at_same_queue_depth() {
    let run = |mode: DispatchMode, mix: OpMix| {
        let mut s =
            PushdownSession::builder(YcsbMix::new(kv_entries(600), mix, 77).max_chains(400))
                .dispatch(mode)
                .queue_depth(8)
                .build()
                .expect("session");
        let (report, stats) = s.run_closed_loop(4, SECOND);
        assert_eq!(stats.mismatches, 0);
        assert_eq!(stats.errors, 0);
        assert!(report.read_latency.count() > 0, "reads recorded");
        report.read_latency.quantile(0.99)
    };
    for mode in DispatchMode::ALL {
        let read_only = run(mode, OpMix::ycsb_c());
        let write_heavy = run(mode, OpMix::paper_tokudb());
        assert!(
            write_heavy > read_only,
            "{mode:?}: p99 read latency must rise under writes: {write_heavy} !> {read_only}"
        );
    }
}

/// The session's direct write surface: bytes through the rings, an
/// fsync barrier, and the journal committed.
#[test]
fn session_write_surface_journals_through_the_rings() {
    let mut s = PushdownSession::builder(Btree::depth(3))
        .dispatch(DispatchMode::DriverHook)
        .build()
        .expect("session");
    let before = s.machine().device_stats();
    let (lat, ios) = s.write(1 << 20, &vec![0x5Au8; 1024], true).expect("write");
    assert!(lat > 0);
    assert_eq!(ios, 2, "one merged 2-block write command + flush");
    let after = s.machine().device_stats();
    assert_eq!(after.writes - before.writes, 1);
    assert_eq!(after.flushes - before.flushes, 1);
    assert!(after.write_doorbells > before.write_doorbells);
    assert!(!s.machine().fs().journal_dirty(), "fsync committed the txn");
    assert_eq!(s.stats().writes, 1);
    assert_eq!(s.stats().bytes_written, 1024);
    // Reads on the same session still work afterwards.
    let hit = s.lookup(1).expect("lookup");
    assert!(hit.found);
}
