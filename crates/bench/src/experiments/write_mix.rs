//! Writes through the rings: queue depth under the paper's YCSB mix
//! (`write_mix`) and fsync amortisation by commit policy
//! (`group_commit_study`).

use bpfstor_core::{CommitPolicy, DispatchMode, PushdownSession, YcsbMix};
use bpfstor_workload::OpMix;

use super::{kv_entries, Scale};
use crate::report::{iops, us, Table};

/// Queue-depth sweep under the paper's 40r/40u/20i TokuDB mix: writes
/// ride the same per-queue SQ/CQ rings as reads (journaled data writes
/// plus fsync flush barriers), so the ring depth gates *write*
/// throughput exactly as it gates reads. Write IOPS must be monotone
/// non-decreasing in queue depth in every dispatch mode, and the
/// write-heavy mix must cost readers tail latency versus read-only at
/// the same depth.
///
/// `seed` overrides the canonical seed the CSVs were calibrated on
/// (`None` keeps it).
pub fn write_mix(scale: Scale, seed: Option<u64>) -> Table {
    let seed = seed.unwrap_or(0x3117);
    let duration = scale.ms(4, 20);
    let entries = kv_entries(600, 31);
    let mut t = Table::new(
        "Write mix — SQ depth vs write IOPS (YCSB 40r/40u/20i, uring batch 16)",
        &[
            "mode",
            "qd",
            "write IOPS",
            "read IOPS",
            "p99 read us",
            "flushes",
            "rejected",
        ],
    );
    let mut run = |mode: DispatchMode, qd: usize| -> (f64, f64) {
        let mut session =
            PushdownSession::builder(YcsbMix::new(entries.clone(), OpMix::paper_tokudb(), seed))
                .dispatch(mode)
                .queue_depth(qd)
                .seed(seed)
                .build()
                .expect("session");
        let (report, stats) = session.run_uring(2, 16, duration);
        assert_eq!(
            stats.mismatches, 0,
            "reads stay correct under the write storm"
        );
        assert_eq!(stats.errors, 0);
        let secs = report.sim_time as f64 / 1e9;
        let write_iops = report.device.writes as f64 / secs;
        let read_iops = report.device.reads as f64 / secs;
        t.row(vec![
            mode.label().to_string(),
            qd.to_string(),
            iops(write_iops),
            iops(read_iops),
            us(report.read_latency.quantile(0.99) as f64),
            report.device.flushes.to_string(),
            report.device.rejected.to_string(),
        ]);
        (write_iops, report.read_latency.quantile(0.99) as f64)
    };
    for mode in DispatchMode::ALL {
        let mut prev = 0.0;
        for qd in [2usize, 8, 64] {
            let (got, _) = run(mode, qd);
            assert!(
                got >= prev,
                "{}: write IOPS must be monotone in queue depth (qd={qd}: {got:.0} after {prev:.0})",
                mode.label()
            );
            prev = got;
        }
    }
    t.note("write commands contend with reads for SQ slots; depth gates both");
    t.note("every fsync is an ordered flush barrier committing the journal");
    t
}

/// Group-commit study: write throughput versus concurrent fsyncing
/// writers under the three [`CommitPolicy`] variants. Per-fsync commit
/// pays one flush barrier per writer per write, so IOPS flatline as
/// writers are added; group commit seals one shared transaction whose
/// single barrier commits every joined handle, and writeback adds a
/// background flush timer on top. Measures, for the amortization
/// headline: the least barriers per fsync of the per-fsync policy, and
/// at 8+ writers the most of the group policy and the least write-IOPS
/// gain of each grouped policy over per-fsync.
///
/// `seed` overrides the canonical seed the CSVs were calibrated on
/// (`None` keeps it).
pub fn group_commit_study(scale: Scale, seed: Option<u64>) -> Table {
    let seed = seed.unwrap_or(0x6C01);
    let duration = scale.ms(4, 16);
    let writer_counts: &[usize] = scale.pick(&[1, 8, 32], &[1, 2, 4, 8, 16, 32]);
    let entries = kv_entries(64, 31);
    // 100% updates, fsync on every write: the pure flush-barrier storm.
    let storm = OpMix {
        read: 0,
        update: 100,
        insert: 0,
        scan: 0,
    };
    let mut t = Table::new(
        "Group commit — write IOPS vs fsyncing writers (100% updates, fsync every write)",
        &[
            "policy",
            "writers",
            "write IOPS",
            "fsync p50 us",
            "flushes/fsync",
            "handles/commit",
            "barriers",
        ],
    );
    let mut run = |label: &str, policy: CommitPolicy, writers: usize| -> (f64, f64) {
        let mut session = PushdownSession::builder(
            YcsbMix::new(entries.clone(), storm, seed)
                .write_size(512)
                .fsync_every(1),
        )
        .dispatch(DispatchMode::DriverHook)
        .commit_policy(policy)
        .seed(seed)
        .build()
        .expect("session");
        let (report, stats) = session.run_closed_loop(writers, duration);
        assert_eq!(stats.errors, 0, "write chains must complete cleanly");
        let secs = report.sim_time as f64 / 1e9;
        let write_iops = stats.writes as f64 / secs;
        let commit = report.commit;
        t.row(vec![
            label.to_string(),
            writers.to_string(),
            iops(write_iops),
            us(report.fsync_latency.quantile(0.5) as f64),
            format!("{:.2}", commit.flushes_per_fsync()),
            format!("{:.1}", commit.mean_handles()),
            commit.commits.to_string(),
        ]);
        (write_iops, commit.flushes_per_fsync())
    };
    // Extremes over the writer counts — the grouped policies' over the
    // counts of 8 and up, where there is a barrier to share.
    let mut per_fsync_fpf = f64::INFINITY;
    let (mut group_fpf_most, mut group_gain, mut wb_gain) = (0.0, f64::INFINITY, f64::INFINITY);
    for &w in writer_counts {
        let (base_iops, base_fpf) = run("per-fsync", CommitPolicy::PerFsync, w);
        // One barrier per fsync, minus at most the handful still in
        // flight when the run's clock expires.
        assert!(base_fpf <= 1.0 + 1e-9, "more barriers than fsyncs at {w}");
        per_fsync_fpf = per_fsync_fpf.min(base_fpf);
        let (group_iops, group_fpf) = run(
            "group",
            CommitPolicy::Group {
                max_wait_us: 30,
                max_handles: w as u32,
            },
            w,
        );
        let (wb_iops, _) = run(
            "writeback",
            CommitPolicy::Writeback {
                flush_interval_us: 200,
            },
            w,
        );
        if w >= 8 {
            group_fpf_most = group_fpf.max(group_fpf_most);
            group_gain = group_gain.min(group_iops / base_iops);
            wb_gain = wb_gain.min(wb_iops / base_iops);
        }
    }
    t.measure("per_fsync_barriers_least", per_fsync_fpf);
    t.measure("group_barriers_most_8plus", group_fpf_most);
    t.measure("group_gain_least_8plus", group_gain);
    t.measure("writeback_gain_least_8plus", wb_gain);
    t.note("group seals at max(writers) joined handles or 30us, whichever first");
    t.note("writeback seals fsyncs immediately and flushes idle journal dirt every 200us");
    t
}
