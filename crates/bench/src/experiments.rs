//! One function per paper table/figure, plus the DESIGN.md ablations.
//!
//! Every function builds fresh machines (full determinism), runs the
//! workload, and renders a [`Table`] shaped like the paper's artifact.
//! The `quick` flag (`bench <name> --quick`) trades precision for speed.

use bpfstor_core::{
    Btree, Chase, CommitPolicy, DispatchMode, FabricConfig, PushdownSession, ReapMode, TenantGroup,
    TenantId, TenantLimits, YcsbMix,
};
use bpfstor_device::{DeviceClass, DeviceProfile, SECTOR_SIZE};
use bpfstor_fs::{ExtFs, ExtentEvent};
use bpfstor_kernel::{Machine, MachineConfig, RunReport};
use bpfstor_lsm::{DirectIo, LsmConfig, LsmTree};
use bpfstor_sim::{Nanos, SimRng, MILLISECOND};
use bpfstor_workload::{KeyDist, Op, OpMix, YcsbGen};

use crate::drivers::{ChaseFallbackDriver, RandomReadDriver};
use crate::report::{iops, ratio, us, Table};

/// Run-scale knob: `--quick` on the `bench` command line.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Reduced durations/counts.
    pub quick: bool,
}

impl Scale {
    /// Simulated duration for throughput sweeps.
    fn sweep_duration(&self) -> Nanos {
        if self.quick {
            12 * MILLISECOND
        } else {
            60 * MILLISECOND
        }
    }

    /// Random reads for latency measurements.
    fn read_count(&self, slow_device: bool) -> u64 {
        match (self.quick, slow_device) {
            (true, true) => 100,
            (true, false) => 1_000,
            (false, true) => 500,
            (false, false) => 10_000,
        }
    }
}

const HUGE: Nanos = u64::MAX / 4;

fn machine_with_file(profile: DeviceProfile, nblocks: u64, seed: u64) -> (Machine, u32) {
    let cfg = MachineConfig {
        profile,
        seed,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg);
    let mut rng = SimRng::seed(seed ^ 0xF11E);
    let mut data = vec![0u8; (nblocks as usize) * SECTOR_SIZE];
    rng.fill_bytes_vec(&mut data);
    m.create_file("data.bin", &data).expect("create");
    let fd = m.open("data.bin", true).expect("open");
    (m, fd)
}

trait FillExt {
    fn fill_bytes_vec(&mut self, data: &mut [u8]);
}

impl FillExt for SimRng {
    fn fill_bytes_vec(&mut self, data: &mut [u8]) {
        use rand::RngCore;
        self.fill_bytes(data);
    }
}

// --- Figure 1 ---------------------------------------------------------------

/// Figure 1: share of 512 B random-read latency attributable to software
/// vs the device, across four device generations.
pub fn fig1(scale: Scale) -> Table {
    let mut t = Table::new(
        "Figure 1 — kernel latency overhead, 512B random reads",
        &[
            "device",
            "device us",
            "software us",
            "hardware %",
            "software %",
        ],
    );
    for class in DeviceClass::ALL {
        let profile = DeviceProfile::for_class(class);
        let slow = matches!(class, DeviceClass::Hdd);
        let (mut m, fd) = machine_with_file(profile, 2048, 0xF161 ^ class as u64);
        let mut d = RandomReadDriver::new(fd, 2048, scale.read_count(slow));
        let report = m.run_closed_loop(1, HUGE, &mut d);
        let ios = report.trace.ios.max(1) as f64;
        let dev = report.trace.device as f64 / ios;
        // The paper measures the read() path: exclude application time.
        let sw = (report.trace.crossing
            + report.trace.syscall
            + report.trace.fs
            + report.trace.bio
            + report.trace.drv) as f64
            / ios;
        let total = dev + sw;
        t.row(vec![
            DeviceClass::label(class).to_string(),
            us(dev),
            us(sw),
            format!("{:.1}", dev / total * 100.0),
            format!("{:.1}", sw / total * 100.0),
        ]);
    }
    t.note("paper: software is negligible on HDD and ~half of latency on NVM-2");
    t
}

// --- Table 1 ----------------------------------------------------------------

/// Table 1: average latency breakdown of a 512 B random `read()` on the
/// second-generation Optane device.
pub fn table1(scale: Scale) -> Table {
    let (mut m, fd) = machine_with_file(DeviceProfile::optane_gen2_p5800x(), 4096, 0x7AB1E1);
    let mut d = RandomReadDriver::new(fd, 4096, scale.read_count(false));
    let report = m.run_closed_loop(1, HUGE, &mut d);
    let ios = report.trace.ios.max(1) as f64;
    let rows = [
        ("kernel crossing", report.trace.crossing, 351u64),
        ("read syscall", report.trace.syscall, 199),
        ("ext4", report.trace.fs, 2006),
        ("bio", report.trace.bio, 379),
        ("NVMe driver", report.trace.drv, 113),
        ("storage device", report.trace.device, 3224),
    ];
    let total: f64 = rows.iter().map(|(_, v, _)| *v as f64 / ios).sum();
    let mut t = Table::new(
        "Table 1 — latency breakdown, 512B random read(), NVM-2",
        &["layer", "measured ns", "share %", "paper ns"],
    );
    for (name, total_ns, paper) in rows {
        let per_io = total_ns as f64 / ios;
        t.row(vec![
            name.to_string(),
            format!("{per_io:.0}"),
            format!("{:.1}", per_io / total * 100.0),
            paper.to_string(),
        ]);
    }
    t.row(vec![
        "total".to_string(),
        format!("{total:.0}"),
        "100.0".to_string(),
        "6272".to_string(),
    ]);
    t.note("software layers are configured from Table 1; device time is sampled");
    t
}

// --- Figure 3 sweeps ----------------------------------------------------------

fn lookup_run(
    depth: u32,
    mode: DispatchMode,
    threads: usize,
    duration: Nanos,
    seed: u64,
) -> RunReport {
    let mut session = PushdownSession::builder(Btree::depth(depth))
        .dispatch(mode)
        .seed(seed)
        .build()
        .expect("session builds");
    let (report, stats) = session.run_closed_loop(threads, duration);
    assert_eq!(stats.mismatches, 0, "offloaded lookups must be correct");
    report
}

/// Figures 3a/3b: B-tree lookup throughput improvement over the
/// user-space baseline, sweeping depth × thread count.
pub fn fig3_throughput(scale: Scale, mode: DispatchMode) -> Table {
    let threads = [1usize, 2, 4, 6, 12];
    let title = match mode {
        DispatchMode::SyscallHook => {
            "Figure 3a — IOPS improvement, syscall dispatch hook (read syscall)"
        }
        _ => "Figure 3b — IOPS improvement, NVMe driver hook (read syscall)",
    };
    let mut headers = vec!["depth".to_string()];
    headers.extend(threads.iter().map(|t| format!("t={t}")));
    let mut t = Table {
        title: title.to_string(),
        headers,
        rows: Vec::new(),
        notes: Vec::new(),
    };
    let duration = scale.sweep_duration();
    for depth in 1..=10u32 {
        let mut cells = vec![depth.to_string()];
        for &nthreads in &threads {
            let base = lookup_run(depth, DispatchMode::User, nthreads, duration, 77);
            let hook = lookup_run(depth, mode, nthreads, duration, 77);
            cells.push(ratio(hook.chains_per_sec / base.chains_per_sec));
        }
        t.row(cells);
    }
    match mode {
        DispatchMode::SyscallHook => {
            t.note("paper: modest gains, max ~1.25x (only boundary crossings saved)")
        }
        _ => t.note("paper: up to ~2.5x, growing with depth, largest once CPU saturates"),
    }
    t
}

/// Figure 3c: single-threaded lookup latency by dispatch path.
pub fn fig3c(scale: Scale) -> Table {
    let mut t = Table::new(
        "Figure 3c — single-thread lookup latency (us) by dispatch path",
        &[
            "depth",
            "user space",
            "syscall hook",
            "NVMe driver hook",
            "driver cut %",
        ],
    );
    let duration = if scale.quick {
        4 * MILLISECOND
    } else {
        20 * MILLISECOND
    };
    for depth in 1..=10u32 {
        let user = lookup_run(depth, DispatchMode::User, 1, duration, 33).mean_latency();
        let sys = lookup_run(depth, DispatchMode::SyscallHook, 1, duration, 33).mean_latency();
        let drv = lookup_run(depth, DispatchMode::DriverHook, 1, duration, 33).mean_latency();
        t.row(vec![
            depth.to_string(),
            us(user),
            us(sys),
            us(drv),
            format!("{:.0}", (1.0 - drv / user) * 100.0),
        ]);
    }
    t.note("paper: driver hook cuts latency by up to ~49% at depth 10");
    t
}

/// Figure 3d: single-threaded io_uring lookups, driver hook vs an
/// unmodified io_uring baseline, sweeping batch size.
pub fn fig3d(scale: Scale) -> Table {
    let batches = [1u32, 2, 4, 8];
    let mut headers = vec!["depth".to_string()];
    headers.extend(batches.iter().map(|b| format!("batch={b}")));
    let mut t = Table {
        title: "Figure 3d — io_uring speedup, NVMe driver hook vs io_uring baseline".to_string(),
        headers,
        rows: Vec::new(),
        notes: Vec::new(),
    };
    let duration = scale.sweep_duration();
    for depth in 1..=10u32 {
        let mut cells = vec![depth.to_string()];
        for &batch in &batches {
            let uring_run = |mode: DispatchMode| {
                let mut session = PushdownSession::builder(Btree::depth(depth))
                    .dispatch(mode)
                    .seed(55)
                    .build()
                    .expect("session");
                session.run_uring(1, batch, duration).0
            };
            let base = uring_run(DispatchMode::User);
            let hook = uring_run(DispatchMode::DriverHook);
            cells.push(ratio(hook.chains_per_sec / base.chains_per_sec));
        }
        t.row(cells);
    }
    t.note("paper: speedup grows with batch size; >2.5x at deep trees, 1.3-1.5x at depth 3");
    t
}

// --- Queue-accuracy sweep -------------------------------------------------------

/// Queue-depth × interrupt-coalescing sweep: with 32 SQEs in flight on
/// one queue pair (io_uring, Figure 3d's setup), the NVMe ring depth is
/// the effective device parallelism, and the coalescing knobs trade
/// completion latency against per-CQE interrupt cost. IOPS must vary
/// monotonically along both axes in every dispatch mode.
///
/// `seed` overrides the canonical seed the CSVs were calibrated on
/// (`None` keeps it).
pub fn queue_sweep(scale: Scale, seed: Option<u64>) -> Table {
    let seed = seed.unwrap_or(2024);
    let duration = if scale.quick {
        4 * MILLISECOND
    } else {
        20 * MILLISECOND
    };
    let mut t = Table::new(
        "Queue sweep — SQ depth and IRQ coalescing vs IOPS (uring batch 32, depth-4 B-tree)",
        &[
            "mode",
            "knob",
            "IOPS",
            "mean us",
            "irqs",
            "doorbells",
            "rejected",
        ],
    );
    let mut run =
        |mode: DispatchMode, qd: usize, coalesce_us: u64, irq_depth: u32, label: String| -> f64 {
            let mut session = PushdownSession::builder(Btree::depth(4))
                .dispatch(mode)
                .queue_depth(qd)
                .irq_coalescing(coalesce_us, irq_depth)
                .seed(seed)
                .build()
                .expect("session");
            let (report, stats) = session.run_uring(1, 32, duration);
            assert_eq!(stats.mismatches, 0, "offloaded lookups must be correct");
            t.row(vec![
                mode.label().to_string(),
                label,
                iops(report.iops),
                us(report.mean_latency()),
                report.device.irqs.to_string(),
                report.device.doorbells.to_string(),
                report.device.rejected.to_string(),
            ]);
            report.iops
        };
    for mode in DispatchMode::ALL {
        // Axis 1: ring depth, interrupts uncoalesced.
        let mut prev = 0.0;
        for qd in [2usize, 8, 64] {
            let got = run(mode, qd, 0, 1, format!("qd={qd}"));
            assert!(
                got >= prev,
                "{}: IOPS must grow with queue depth (qd={qd}: {got:.0} after {prev:.0})",
                mode.label()
            );
            prev = got;
        }
        // Axis 2: coalescing depth at full ring, 8us time budget. The
        // depth-1 point is the qd=64 run above — a depth-1 threshold
        // fires on the first pending CQE regardless of the budget — so
        // it seeds the monotonicity chain instead of being re-run.
        for irq_depth in [4u32, 16] {
            let got = run(mode, 64, 8, irq_depth, format!("irq={irq_depth}"));
            assert!(
                got <= prev * 1.001,
                "{}: deferring interrupts cannot raise closed-loop IOPS \
                 (irq={irq_depth}: {got:.0} after {prev:.0})",
                mode.label()
            );
            prev = got;
        }
    }
    t.note("queue depth gates device parallelism: IOPS grows monotonically with it");
    t.note("coalescing trades completion latency for interrupt amortization (the qd=64 row is the irq=1 point)");
    t
}

/// Completion-reaping sweep: the three reap modes across light-to-deep
/// uring batches on the depth-4 B-tree. Exercises the crossover the
/// reaper exists to navigate — polling wins IOPS once coalesced
/// interrupts start deferring tag turnover at depth, interrupts win
/// CPU-per-IO when the queue is nearly empty and a poll loop would spin
/// on an idle CQ, and the hybrid scheduler must land within 10% of the
/// better fixed mode at every swept point.
///
/// `seed` overrides the canonical seed the CSVs were calibrated on
/// (`None` keeps it).
pub fn reap_sweep(scale: Scale, seed: Option<u64>) -> Table {
    let seed = seed.unwrap_or(2024);
    let duration = if scale.quick {
        4 * MILLISECOND
    } else {
        20 * MILLISECOND
    };
    let mut t = Table::new(
        "Reap sweep — polled vs coalesced-interrupt vs hybrid (DriverHook, depth-4 B-tree)",
        &[
            "reap mode",
            "batch",
            "IOPS",
            "mean us",
            "cpu ns/IO",
            "poll share",
            "irqs",
            "polls",
            "switches",
        ],
    );
    #[derive(Clone, Copy)]
    struct Point {
        iops: f64,
        cpu_per_io: f64,
        switches: u64,
    }
    let mut run = |label: &str, mode: ReapMode, batch: u32| -> Point {
        let mut builder = PushdownSession::builder(Btree::depth(4))
            .dispatch(DispatchMode::DriverHook)
            .seed(seed);
        // The fixed-interrupt arm models a conventionally tuned NIC-style
        // moderation profile (8us budget, 8-deep threshold); the other
        // modes bring their own reap policy.
        if mode == ReapMode::Interrupt {
            builder = builder.irq_coalescing(8, 8);
        }
        let mut session = builder.reap_mode(mode).build().expect("session");
        let (report, stats) = session.run_uring(1, batch, duration);
        assert_eq!(stats.mismatches, 0, "offloaded lookups must be correct");
        assert_eq!(stats.errors, 0);
        // Aggregate CPU across the 6 simulated cores, charged per IO.
        let cpu_per_io = report.cpu_util * report.sim_time as f64 * 6.0 / report.ios.max(1) as f64;
        t.row(vec![
            label.to_string(),
            batch.to_string(),
            iops(report.iops),
            us(report.mean_latency()),
            format!("{cpu_per_io:.0}"),
            format!("{:.0}%", report.reaper.cpu_split().0 * 100.0),
            report.trace.irqs.to_string(),
            report.trace.polls.to_string(),
            report.reaper.mode_transitions.to_string(),
        ]);
        Point {
            iops: report.iops,
            cpu_per_io,
            switches: report.reaper.mode_transitions,
        }
    };
    let batches = [1u32, 4, 32];
    let mut fixed: Vec<(Point, Point)> = Vec::new();
    for &b in &batches {
        let irq = run("interrupt", ReapMode::Interrupt, b);
        let adaptive = run("adaptive-irq", ReapMode::AdaptiveIrq(Default::default()), b);
        let polled = run("polled", ReapMode::Polled(Default::default()), b);
        assert_eq!(irq.switches + adaptive.switches + polled.switches, 0);
        fixed.push((irq, polled));
    }
    let mut hybrid = Vec::new();
    for &b in &batches {
        hybrid.push(run("hybrid", ReapMode::Hybrid(Default::default()), b));
    }
    // Crossover, per the paper's polling-vs-interrupt trade: polling
    // must win throughput at the deepest batch, interrupts must win
    // CPU-per-IO at the lightest.
    let (irq_deep, polled_deep) = fixed[batches.len() - 1];
    assert!(
        polled_deep.iops >= irq_deep.iops,
        "polling must out-reap coalesced interrupts at depth: {:.0} vs {:.0}",
        polled_deep.iops,
        irq_deep.iops
    );
    let (irq_light, polled_light) = fixed[0];
    assert!(
        irq_light.cpu_per_io <= polled_light.cpu_per_io,
        "interrupts must burn less CPU per IO on a near-empty queue: {:.0} vs {:.0}",
        irq_light.cpu_per_io,
        polled_light.cpu_per_io
    );
    // The load-adaptive scheduler tracks the better fixed mode everywhere.
    for (i, &b) in batches.iter().enumerate() {
        let (irq, polled) = fixed[i];
        let best = irq.iops.max(polled.iops);
        assert!(
            hybrid[i].iops >= 0.9 * best,
            "hybrid must stay within 10% of the best fixed mode at batch {b}: {:.0} vs {:.0}",
            hybrid[i].iops,
            best
        );
    }
    assert!(
        hybrid.last().expect("points").switches >= 1,
        "the deepest batch must trip the hybrid high watermark"
    );
    t.note("interrupt rows use an 8us/8-deep moderation profile; polled reaps every 250ns");
    t.note("hybrid starts on interrupts and switches per-qp when the backlog window crosses its watermarks");
    t
}

// --- Write-mix sweep -------------------------------------------------------------

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
    let duration = if scale.quick {
        4 * MILLISECOND
    } else {
        20 * MILLISECOND
    };
    let entries: Vec<(u64, Vec<u8>)> = (0..600u64)
        .map(|i| {
            let mut v = vec![0u8; 48];
            v[..8].copy_from_slice(&(i * 31).to_le_bytes());
            (i * 3, v)
        })
        .collect();
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

// --- Group-commit study ----------------------------------------------------------

/// Group-commit study: write throughput versus concurrent fsyncing
/// writers under the three [`CommitPolicy`] variants. Per-fsync commit
/// pays one flush barrier per writer per write, so IOPS flatline as
/// writers are added; group commit seals one shared transaction whose
/// single barrier commits every joined handle, and writeback adds a
/// background flush timer on top. The function asserts the amortization
/// headline: at 8+ writers the grouped policies deliver at least 1.5×
/// the per-fsync write IOPS with fewer than one barrier per fsync.
///
/// `seed` overrides the canonical seed the CSVs were calibrated on
/// (`None` keeps it).
pub fn group_commit_study(scale: Scale, seed: Option<u64>) -> Table {
    let seed = seed.unwrap_or(0x6C01);
    let duration = if scale.quick {
        4 * MILLISECOND
    } else {
        16 * MILLISECOND
    };
    let writer_counts: &[usize] = if scale.quick {
        &[1, 8, 32]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    let entries: Vec<(u64, Vec<u8>)> = (0..64u64)
        .map(|i| {
            let mut v = vec![0u8; 48];
            v[..8].copy_from_slice(&(i * 31).to_le_bytes());
            (i * 3, v)
        })
        .collect();
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
    for &w in writer_counts {
        let (base_iops, base_fpf) = run("per-fsync", CommitPolicy::PerFsync, w);
        // One barrier per fsync, minus at most the handful still in
        // flight when the run's clock expires.
        assert!(
            base_fpf > 0.9 && base_fpf <= 1.0 + 1e-9,
            "per-fsync must pay ~one barrier per fsync at {w} writers (got {base_fpf:.3})"
        );
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
            assert!(
                group_fpf < 1.0,
                "group commit must share barriers at {w} writers (flushes/fsync {group_fpf:.3})"
            );
            assert!(
                group_iops >= 1.5 * base_iops,
                "group commit must amortize the barrier at {w} writers: {group_iops:.0} vs {base_iops:.0}"
            );
            assert!(
                wb_iops >= 1.2 * base_iops,
                "writeback must also share barriers at {w} writers: {wb_iops:.0} vs {base_iops:.0}"
            );
        }
    }
    t.note("group seals at max(writers) joined handles or 30us, whichever first");
    t.note("writeback seals fsyncs immediately and flushes idle journal dirt every 200us");
    t
}

// --- Fabric sweep (pushdown over NVMe-oF) ---------------------------------------

/// Network-latency sweep over the pointer-chase dependency chain — the
/// BPF-oF headline, end to end: remote dispatch without pushdown pays a
/// fabric round trip per dependent hop, pushdown-over-fabric runs the
/// whole chain target-side and pays ~1, and the gap between them grows
/// with the configured network latency. `LocalTransport` numbers ride
/// along as the baseline. The function asserts all three shapes.
///
/// `seed` overrides the canonical seed the CSVs were calibrated on
/// (`None` keeps it).
pub fn fabric_sweep(scale: Scale, seed: Option<u64>) -> Table {
    let seed = seed.unwrap_or(4077);
    const HOPS: u64 = 8;
    let duration = if scale.quick {
        8 * MILLISECOND
    } else {
        40 * MILLISECOND
    };
    let mut t = Table::new(
        "Fabric sweep — pushdown vs per-hop round trips, depth-8 chase, 2 threads",
        &[
            "one-way us",
            "dispatch",
            "chains/s",
            "p50 us",
            "IOPS",
            "capsules",
            "responses",
            "target-local",
        ],
    );
    let mut run = |mode: DispatchMode, link: Option<FabricConfig>, label: String| -> RunReport {
        let mut b = PushdownSession::builder(Chase::hops(HOPS))
            .dispatch(mode)
            .seed(seed);
        if let Some(link) = link {
            b = b.fabric(link);
        }
        let mut session = b.build().expect("session");
        let (report, stats) = session.run_closed_loop(2, duration);
        assert_eq!(stats.mismatches, 0, "offloaded chases must be correct");
        assert_eq!(stats.errors, 0, "{label}: no chain may fail");
        t.row(vec![
            label.clone(),
            mode.label().to_string(),
            iops(report.chains_per_sec),
            us(report.latency.quantile(0.5) as f64),
            iops(report.iops),
            report.fabric.capsules_sent.to_string(),
            report.fabric.responses.to_string(),
            report.fabric.target_local.to_string(),
        ]);
        report
    };
    let local = run(DispatchMode::DriverHook, None, "local".to_string());
    let local_p50 = local.latency.quantile(0.5);
    let mut prev_gap = 1.0;
    for one_way_us in [5u64, 20, 80] {
        let link = FabricConfig::symmetric(one_way_us * 1_000, one_way_us * 200);
        let nopd = run(
            DispatchMode::Remote,
            Some(link.clone()),
            format!("{one_way_us}"),
        );
        let pd = run(
            DispatchMode::DriverHook,
            Some(link),
            format!("{one_way_us}"),
        );
        for (name, r) in [("remote", &nopd), ("remote-pushdown", &pd)] {
            assert!(
                r.latency.quantile(0.5) > local_p50,
                "{name} p50 must exceed local p50 at {one_way_us}us one-way"
            );
        }
        assert!(
            pd.chains_per_sec > nopd.chains_per_sec && pd.iops > nopd.iops,
            "pushdown must out-run per-hop round trips at {one_way_us}us \
             ({:.0} vs {:.0} chains/s)",
            pd.chains_per_sec,
            nopd.chains_per_sec
        );
        let gap = nopd.mean_latency() / pd.mean_latency();
        assert!(
            gap > prev_gap,
            "the pushdown gap must grow with network latency \
             ({gap:.2}x at {one_way_us}us, was {prev_gap:.2}x)"
        );
        prev_gap = gap;
    }
    t.note(
        "remote (no pushdown) pays one fabric RTT per dependent hop; pushdown pays ~1 per chain",
    );
    t.note(&format!(
        "depth-{HOPS} chase: the latency gap approaches {HOPS}x as the wire dominates"
    ));
    t
}

// --- Fabric contention (multi-initiator BPF-oF target) --------------------------

/// Multi-initiator BPF-oF contention study: N initiators (1/2/4/8), each
/// a tenant with its own credit window over one shared target, hammer
/// fsynced 512 B write chains with and without write pushdown. Without
/// pushdown every chain holds an initiator credit across two full fabric
/// round trips (data capsule, then the flush barrier); with pushdown the
/// chain crosses once, journals and flushes target-side, and the flush
/// submits target-locally without touching the admission queue or the
/// credit window. The function asserts the headline: at 20us one-way
/// with 4 initiators, pushdown write throughput is at least 2x the
/// no-pushdown run, and aggregate throughput is monotone-then-saturating
/// in the initiator count for both arms.
///
/// `seed` overrides the canonical seed the CSVs were calibrated on
/// (`None` keeps it).
pub fn fabric_contention(scale: Scale, seed: Option<u64>) -> Table {
    let seed = seed.unwrap_or(0xBF0F);
    let duration = if scale.quick {
        6 * MILLISECOND
    } else {
        30 * MILLISECOND
    };
    /// The ISSUE's headline operating point: a 20us one-way wire.
    const ONE_WAY: Nanos = 20_000;
    /// Per-initiator credit window — small enough that credit holding
    /// time, not thread count, bounds the no-pushdown arm.
    const WINDOW: usize = 2;
    /// Closed-loop writer threads per initiator (> WINDOW, so the
    /// window is the binding constraint when credits are slow to free).
    const THREADS: usize = 8;
    let entries: Vec<(u64, Vec<u8>)> = (0..128u64).map(|i| (i * 3, vec![7u8; 48])).collect();
    let write_mix = OpMix {
        read: 0,
        update: 100,
        insert: 0,
        scan: 0,
    };
    // 512 B journaled writes, fsync every chain: each chain is one data
    // capsule plus one flush barrier, so wire holds and the credit
    // window dominate over device service time.
    let workload = |tseed: u64| {
        YcsbMix::new(entries.clone(), write_mix, tseed)
            .write_size(SECTOR_SIZE)
            .fsync_every(1)
    };
    let mut t = Table::new(
        "Fabric contention — N initiators fsyncing 512 B writes at one BPF-oF target (20us one-way)",
        &[
            "initiators",
            "dispatch",
            "chains/s",
            "IOPS",
            "p50 us",
            "capsules",
            "responses",
            "target-local",
            "admit wait us",
        ],
    );
    let mut run = |ninit: usize, mode: DispatchMode| -> RunReport {
        let link = FabricConfig::symmetric(ONE_WAY, ONE_WAY / 5)
            .with_initiators(ninit)
            .with_initiator_window(WINDOW)
            // A real admission stage (0.5us/capsule, weighted round-
            // robin between initiators) plus queue-depth congestion
            // beyond an 8-capsule knee: the no-pushdown arm keeps twice
            // the capsules outstanding, so it pays both costs twice.
            .with_admit_ns(500)
            .with_congestion(8, 250);
        let mut g = TenantGroup::builder()
            .dispatch(mode)
            .seed(seed)
            .fabric(link)
            .build();
        for i in 0..ninit {
            g.add_tenant(
                workload(seed ^ (0xA5A5 + i as u64)),
                TenantLimits::default(),
            )
            .expect("initiator tenant");
        }
        let report = g.run_closed_loop(&vec![THREADS; ninit], duration);
        t.row(vec![
            ninit.to_string(),
            if mode == DispatchMode::DriverHook {
                "pushdown".to_string()
            } else {
                "no-pushdown".to_string()
            },
            iops(report.chains_per_sec),
            iops(report.iops),
            us(report.latency.quantile(0.5) as f64),
            report.fabric.capsules_sent.to_string(),
            report.fabric.responses.to_string(),
            report.fabric.target_local.to_string(),
            us(report.fabric.admit_wait_ns as f64),
        ]);
        report
    };
    let counts = [1usize, 2, 4, 8];
    let mut agg: Vec<(f64, f64)> = Vec::new(); // (no-pushdown, pushdown) chains/s per N
    let mut at4: Option<(RunReport, RunReport)> = None;
    for &n in &counts {
        let nopd = run(n, DispatchMode::Remote);
        let pd = run(n, DispatchMode::DriverHook);
        // Every initiator must make progress — the weighted round-robin
        // admission queue and per-initiator windows may not starve one.
        for r in [&nopd, &pd] {
            for b in &r.tenants {
                assert!(b.chains > 0, "initiator {} starved at N={n}", b.tenant);
            }
            assert_eq!(r.fabric_initiators.len(), n, "one stats row per initiator");
        }
        agg.push((nopd.chains_per_sec, pd.chains_per_sec));
        if n == 4 {
            at4 = Some((nopd, pd));
        }
    }
    // Headline: at 20us one-way and 4 initiators, write pushdown at
    // least doubles aggregate fsynced-write throughput.
    let (nopd4, pd4) = at4.expect("N=4 point");
    let speedup = pd4.chains_per_sec / nopd4.chains_per_sec;
    assert!(
        speedup >= 2.0,
        "write pushdown must at least double contended write throughput at \
         20us/4 initiators: {:.0} vs {:.0} chains/s ({speedup:.2}x)\n{}",
        pd4.chains_per_sec,
        nopd4.chains_per_sec,
        t.render()
    );
    assert!(
        pd4.iops >= 2.0 * nopd4.iops,
        "pushdown write IOPS must be >= 2x no-pushdown at 20us/4 initiators: \
         {:.0} vs {:.0}\n{}",
        pd4.iops,
        nopd4.iops,
        t.render()
    );
    // Aggregate throughput must be monotone-then-saturating in the
    // initiator count for both arms: each step either grows or holds
    // within a saturation tolerance, and the 4-initiator point must
    // clearly out-run a single initiator.
    for (arm, pick) in [("no-pushdown", 0usize), ("pushdown", 1usize)] {
        let series: Vec<f64> = agg
            .iter()
            .map(|p| if pick == 0 { p.0 } else { p.1 })
            .collect();
        for w in series.windows(2) {
            assert!(
                w[1] >= 0.9 * w[0],
                "{arm}: aggregate chains/s must be monotone up to saturation \
                 ({:.0} then {:.0})\n{}",
                w[0],
                w[1],
                t.render()
            );
        }
        assert!(
            series[2] >= 1.5 * series[0],
            "{arm}: four initiators must out-run one ({:.0} vs {:.0} chains/s)\n{}",
            series[2],
            series[0],
            t.render()
        );
    }
    t.note(&format!(
        "{THREADS} writer threads per initiator, credit window {WINDOW}, admission 0.5us/capsule, \
         congestion 0.25us/capsule beyond 8 outstanding"
    ));
    t.note("no-pushdown holds a credit across two RTTs per chain; pushdown crosses once and flushes target-side");
    t.note(&format!(
        "headline: {speedup:.2}x aggregate write throughput from pushdown at 4 initiators"
    ));
    t
}

// --- Tenant sweep (multi-tenant fairness over shared queue pairs) ---------------

/// Multi-tenant noisy-neighbor sweep: N tenant sessions share one queue
/// pair (`cores = 1`, ring depth 8). The victim runs depth-3 B-tree
/// lookups on one thread; each aggressor hammers deep fsynced write
/// chains. Three properties are asserted, not just tabulated: SQ slot
/// budgets plus weighted fair reaping bound the victim's p99 near its
/// solo baseline while the unfair configuration blows past it; a
/// program whose verified worst case exceeds the tenant's instruction
/// budget is rejected at install time; and a single-tenant group with
/// default limits reproduces the standalone session bit for bit.
///
/// `seed` overrides the canonical seed the CSVs were calibrated on
/// (`None` keeps it).
pub fn tenant_sweep(scale: Scale, seed: Option<u64>) -> Table {
    let seed = seed.unwrap_or(0x7E4A);
    let duration = if scale.quick {
        4 * MILLISECOND
    } else {
        20 * MILLISECOND
    };
    let entries: Vec<(u64, Vec<u8>)> = (0..256u64)
        .map(|i| {
            let mut v = vec![0u8; 48];
            v[..8].copy_from_slice(&(i * 17).to_le_bytes());
            (i * 3, v)
        })
        .collect();
    // Deep write chains: 4 KiB journaled payloads, fsync every 4th, so
    // the pain comes from SQ slot occupancy rather than flush barriers
    // (which serialize the victim no matter how the ring is shaped).
    let write_storm = OpMix {
        read: 0,
        update: 80,
        insert: 20,
        scan: 0,
    };
    let aggressor = |tseed: u64| {
        YcsbMix::new(entries.clone(), write_storm, tseed)
            .write_size(4096)
            .fsync_every(4)
    };
    let mut t = Table::new(
        "Tenant sweep — noisy neighbor over one shared queue pair (cores=1, qd=16, 8us/8-deep IRQ)",
        &[
            "setup",
            "tenants",
            "victim p99 us",
            "victim chains",
            "victim reap %",
            "aggr cmds",
            "sq parks",
        ],
    );
    let run = |fair: bool, victim: TenantLimits, aggr: TenantLimits, n_aggr: usize| {
        let mut g = TenantGroup::builder()
            .machine_config(MachineConfig {
                cores: 1,
                seed,
                // NIC-style moderation so completions arrive in mixed
                // batches — the regime where reap order matters and the
                // ring actually backs up.
                irq_coalesce_us: 8,
                irq_coalesce_depth: 8,
                ..MachineConfig::default()
            })
            .queue_depth(16)
            .fair_reap(fair)
            .build();
        let v = g
            .add_tenant(Btree::depth(3), victim)
            .expect("victim tenant");
        for i in 0..n_aggr {
            g.add_tenant(aggressor(seed ^ (0x9E37 + i as u64)), aggr)
                .expect("aggressor tenant");
        }
        // One victim thread; six threads per aggressor keep several
        // write chains in flight at once so the ring actually contends.
        let mut threads = vec![1usize];
        threads.extend(std::iter::repeat_n(6, n_aggr));
        let report = g.run_closed_loop(&threads, duration);
        (report, v)
    };
    let mut row = |label: &str, r: &RunReport, v: TenantId| -> f64 {
        let total_cqes: u64 = r.tenants.iter().map(|b| b.cqes).sum();
        let victim = r.tenant(v).expect("victim breakdown");
        let aggr_cmds: u64 = r
            .tenants
            .iter()
            .filter(|b| b.tenant != v)
            .map(|b| b.dev_writes + b.dev_flushes)
            .sum();
        let parks: u64 = r.tenants.iter().map(|b| b.sq_parks).sum();
        let p99 = victim.latency.quantile(0.99) as f64;
        t.row(vec![
            label.to_string(),
            r.tenants.len().to_string(),
            us(p99),
            victim.chains.to_string(),
            format!("{:.0}%", victim.reap_share(total_cqes) * 100.0),
            aggr_cmds.to_string(),
            parks.to_string(),
        ]);
        p99
    };
    // Baseline: the victim with the machine to itself.
    let (solo_r, solo_v) = run(false, TenantLimits::default(), TenantLimits::default(), 0);
    let solo_p99 = row("solo", &solo_r, solo_v);
    // Unfair: no SQ budgets, FIFO reaping — the aggressor owns the ring.
    let (unfair_r, unfair_v) = run(false, TenantLimits::default(), TenantLimits::default(), 1);
    let unfair_p99 = row("unfair x1", &unfair_r, unfair_v);
    // Fair: the aggressor is capped to 2 of the 8 SQ slots and the
    // victim gets 8x the reap weight.
    let victim_limits = TenantLimits::weighted(8);
    let aggr_limits = TenantLimits {
        sq_slots: Some(2),
        ..TenantLimits::default()
    };
    let (fair_r, fair_v) = run(true, victim_limits, aggr_limits, 1);
    let fair_p99 = row("fair x1", &fair_r, fair_v);
    for n in [2usize, 4] {
        let (r, v) = run(true, victim_limits, aggr_limits, n);
        row(&format!("fair x{n}"), &r, v);
    }
    assert!(
        unfair_p99 >= 1.5 * fair_p99,
        "budgets + fair reaping must cut the victim p99 well below the unshaped run: \
         {:.0}ns vs {:.0}ns\n{}",
        unfair_p99,
        fair_p99,
        t.render()
    );
    assert!(
        fair_p99 <= 1.25 * solo_p99,
        "the shaped victim p99 must stay near solo: {:.0}ns vs {:.0}ns solo\n{}",
        fair_p99,
        solo_p99,
        t.render()
    );
    assert!(
        unfair_p99 >= 1.4 * solo_p99,
        "the unshaped victim p99 must blow up vs solo: {:.0}ns vs {:.0}ns solo\n{}",
        unfair_p99,
        solo_p99,
        t.render()
    );
    let aggr_chains: u64 = fair_r
        .tenants
        .iter()
        .filter(|b| b.tenant != fair_v)
        .map(|b| b.chains)
        .sum();
    assert!(aggr_chains > 0, "the budgeted aggressor must not starve");

    // Verification-time resource bounds: a depth-3 traversal program
    // cannot fit a 4-instruction budget, and must be rejected before it
    // ever runs.
    let mut strict = TenantGroup::builder().seed(seed).build();
    let tight = TenantLimits {
        insn_budget: Some(4),
        ..TenantLimits::default()
    };
    let rejection = strict
        .add_tenant(Btree::depth(3), tight)
        .expect_err("over-budget program must be rejected at install time");
    let msg = format!("{rejection:?}");
    assert!(
        msg.contains("BudgetExceeded"),
        "rejection must cite the budget: {msg}"
    );

    // Bit-for-bit: one tenant with default limits reproduces the
    // standalone session on the same machine config and seed.
    let mut lone = TenantGroup::builder().seed(seed).build();
    lone.add_tenant(Btree::depth(3), TenantLimits::default())
        .expect("lone tenant");
    let grouped = lone.run_closed_loop(&[2], duration);
    let mut session = PushdownSession::builder(Btree::depth(3))
        .dispatch(DispatchMode::DriverHook)
        .seed(seed)
        .build()
        .expect("session");
    let (standalone, _) = session.run_closed_loop(2, duration);
    assert_eq!(
        (grouped.chains, grouped.ios),
        (standalone.chains, standalone.ios),
        "a single-tenant group must reproduce the standalone session"
    );
    assert_eq!(grouped.trace, standalone.trace, "layer traces must match");
    for q in [0.5, 0.99] {
        assert_eq!(
            grouped.latency.quantile(q),
            standalone.latency.quantile(q),
            "latency quantile {q} must match"
        );
    }

    t.note("victim: depth-3 B-tree reads, 1 thread; aggressors: 6 threads of 4 KiB journaled writes, fsync every 4th");
    t.note("fair rows: aggressors capped to 2/16 SQ slots, victim reap weight 8x");
    t.note("checked: over-budget install rejected; single-tenant group == standalone session bit-for-bit");
    t
}

// --- §4 extent stability -------------------------------------------------------

/// §4's TokuDB/YCSB measurement: how often do index-file extents change
/// under a write-heavy workload, and how many changes unmap blocks?
///
/// Model (documented in EXPERIMENTS.md): a TokuDB-like batch B-tree
/// checkpoints dirty nodes in ~4 MiB appends; in-place node updates
/// never touch extents; a background GC reclaims an old region a few
/// times a day. Rates follow the paper's YCSB setup (40r/40u/20i,
/// Zipfian 0.7) at a MariaDB-plausible operation rate.
pub fn extent_stability(scale: Scale) -> Table {
    let hours = if scale.quick { 2.0 } else { 24.0 };
    let insert_rate: f64 = 250.0; // inserts/s (20% of 1250 ops/s)
    let row_bytes: f64 = 100.0;
    let batch_bytes: f64 = (4u64 << 20) as f64;
    let gc_interval_s: f64 = 17_280.0; // ~5 per 24h
    let blocks = 1u64 << 23; // 4 GiB address space (24h of appends fits)

    let mut fs = ExtFs::mkfs(blocks);
    let mut store = bpfstor_device::SectorStore::new();
    let ino = fs.create("index.tokudb").expect("create");
    // Initial 32 MiB index.
    fs.fallocate(ino, 0, (32 << 20) / SECTOR_SIZE as u64, &mut store)
        .expect("fallocate");
    fs.take_events();

    let append_interval = batch_bytes / (insert_rate * row_bytes);
    let horizon = hours * 3600.0;
    let mut events: Vec<(f64, bool)> = Vec::new(); // (time, unmapping?)
    let mut t_next_append = append_interval;
    let mut t_next_gc = gc_interval_s;
    let mut appended_blocks = (32u64 << 20) / SECTOR_SIZE as u64;
    while t_next_append <= horizon || t_next_gc <= horizon {
        if t_next_append <= t_next_gc {
            if t_next_append > horizon {
                break;
            }
            let nblocks = (batch_bytes / SECTOR_SIZE as f64) as u64;
            fs.fallocate(ino, appended_blocks, nblocks, &mut store)
                .expect("append");
            appended_blocks += nblocks;
            for ev in fs.take_events() {
                events.push((t_next_append, matches!(ev, ExtentEvent::Unmapped { .. })));
            }
            t_next_append += append_interval;
        } else {
            if t_next_gc > horizon {
                break;
            }
            // GC: rewrite the most recent ~4 MiB region (checkpoint
            // cleanup) — truncate it away, then re-append it elsewhere.
            // This is the rare unmap+remap pattern the paper observed a
            // handful of times per day.
            let nblocks = (batch_bytes / SECTOR_SIZE as f64) as u64;
            let size = fs.file_size(ino).expect("size");
            fs.truncate(ino, size - batch_bytes as u64, &mut store)
                .expect("gc trunc");
            appended_blocks -= nblocks;
            fs.fallocate(ino, appended_blocks, nblocks, &mut store)
                .expect("gc rewrite");
            appended_blocks += nblocks;
            for ev in fs.take_events() {
                events.push((t_next_gc, matches!(ev, ExtentEvent::Unmapped { .. })));
            }
            t_next_gc += gc_interval_s;
        }
    }

    // Collapse events at the same instant into one "extent change".
    let mut change_times: Vec<f64> = Vec::new();
    let mut unmap_times: Vec<f64> = Vec::new();
    for (t, unmap) in &events {
        if change_times
            .last()
            .map(|l| (l - t).abs() > 1e-9)
            .unwrap_or(true)
        {
            change_times.push(*t);
        }
        if *unmap
            && unmap_times
                .last()
                .map(|l| (l - t).abs() > 1e-9)
                .unwrap_or(true)
        {
            unmap_times.push(*t);
        }
    }
    let mean_interval = if change_times.len() > 1 {
        (change_times.last().expect("nonempty") - change_times[0]) / (change_times.len() - 1) as f64
    } else {
        horizon
    };
    let unmaps_24h = unmap_times.len() as f64 * (24.0 / hours);

    let mut t = Table::new(
        "§4 extent stability — TokuDB-like index under YCSB 40r/40u/20i, Zipfian 0.7",
        &["metric", "measured", "paper"],
    );
    t.row(vec![
        "simulated hours".to_string(),
        format!("{hours:.1}"),
        "24".to_string(),
    ]);
    t.row(vec![
        "mean s between extent changes".to_string(),
        format!("{mean_interval:.0}"),
        "159".to_string(),
    ]);
    t.row(vec![
        "unmapping changes per 24h".to_string(),
        format!("{unmaps_24h:.0}"),
        "5".to_string(),
    ]);
    t.row(vec![
        "total extent changes".to_string(),
        change_times.len().to_string(),
        "-".to_string(),
    ]);
    t.note("in-place node updates never change extents; appends map new blocks without unmapping");
    t
}

/// Companion to the §4 claim: real LSM under the same YCSB mix — live
/// SSTables are never remapped during their lifetime; unmaps happen only
/// when compaction deletes whole files.
pub fn lsm_stability(scale: Scale) -> Table {
    let ops = if scale.quick { 60_000u64 } else { 600_000 };
    let rate = 2_000.0; // ops/s, for time extrapolation
    let mut fs = ExtFs::mkfs(1 << 22);
    let mut store = bpfstor_device::SectorStore::new();
    let mut io = DirectIo::new(&mut fs, &mut store);
    let mut lsm = LsmTree::new(LsmConfig::default());
    let mut gen = YcsbGen::new(
        OpMix::paper_tokudb(),
        KeyDist::zipfian(10_000, 0.7),
        10_000,
        0x2C5B,
    );
    let value = |k: u64| -> Vec<u8> {
        let mut v = vec![0u8; 64];
        v[..8].copy_from_slice(&k.to_le_bytes());
        v
    };
    for _ in 0..ops {
        match gen.next_op() {
            Op::Read(k) => {
                let _ = lsm.get(&mut io, k).expect("get");
            }
            Op::Update(k) | Op::Insert(k) => {
                lsm.put(&mut io, k, value(k)).expect("put");
            }
            Op::Scan { .. } => {}
        }
    }
    let stats = lsm.stats();
    let fstats = fs.stats();
    let hours = ops as f64 / rate / 3_600.0;
    let mut t = Table::new(
        "§4 companion — LSM SSTable lifecycle under YCSB 40r/40u/20i",
        &["metric", "value"],
    );
    t.row(vec!["operations".to_string(), ops.to_string()]);
    t.row(vec![
        "simulated hours (@2k ops/s)".to_string(),
        format!("{hours:.2}"),
    ]);
    t.row(vec![
        "memtable flushes".to_string(),
        stats.flushes.to_string(),
    ]);
    t.row(vec![
        "compactions".to_string(),
        stats.compactions.to_string(),
    ]);
    t.row(vec![
        "tables written".to_string(),
        stats.tables_written.to_string(),
    ]);
    t.row(vec![
        "tables deleted".to_string(),
        stats.tables_deleted.to_string(),
    ]);
    t.row(vec![
        "fs unmap changes".to_string(),
        fstats.unmap_changes.to_string(),
    ]);
    t.row(vec![
        "live tables".to_string(),
        lsm.table_count().to_string(),
    ]);
    // The §4 invariant: live tables' extents never changed post-creation.
    let mut stable = true;
    for level in lsm.levels() {
        for table in level {
            let (gen_now, unmap_gen) = fs.generations(table.ino).expect("gens");
            // Creation writes bump the generation; afterwards nothing may.
            let _ = gen_now;
            if unmap_gen != 0 {
                stable = false;
            }
        }
    }
    t.row(vec![
        "live tables extent-stable".to_string(),
        if stable {
            "yes".to_string()
        } else {
            "NO".to_string()
        },
    ]);
    t.note("every unmap comes from deleting a whole dead table, never from a live one");
    t
}

// --- Ablations ------------------------------------------------------------------

/// A1: throughput of the driver hook as extent invalidations become more
/// frequent (cost of the paper's heavy-handed invalidate + re-arm). The
/// session's automatic rearm-and-retry absorbs each invalidation; the
/// retry column counts how many chains the library restarted on the
/// application's behalf.
pub fn ablation_extent_cache(scale: Scale) -> Table {
    let window = if scale.quick {
        4 * MILLISECOND
    } else {
        10 * MILLISECOND
    };
    let windows = 8;
    let mut t = Table::new(
        "Ablation A1 — invalidation frequency vs driver-hook goodput",
        &[
            "invalidations/s",
            "good chains/s",
            "failed chains/s",
            "auto retries",
        ],
    );
    for invalidate_every in [0u32, 4, 2, 1] {
        let mut session = PushdownSession::builder(Btree::depth(6))
            .dispatch(DispatchMode::DriverHook)
            .seed(91)
            .retry_budget(2)
            .build()
            .expect("session");
        let mut good = 0u64;
        let mut failed = 0u64;
        let mut retries = 0u64;
        for w in 0..windows {
            let invalidate = invalidate_every != 0 && w % invalidate_every as usize == 0;
            if invalidate {
                session.schedule_relocation(window / 2);
            }
            let (report, stats) = session.run_closed_loop(2, window);
            good += report.chains - report.errors;
            failed += report.errors;
            retries += stats.rearm_retries;
        }
        let secs = windows as f64 * window as f64 / 1e9;
        let rate = if invalidate_every == 0 {
            0.0
        } else {
            1.0 / (invalidate_every as f64 * window as f64 / 1e9)
        };
        t.row(vec![
            format!("{rate:.0}"),
            iops(good as f64 / secs),
            iops(failed as f64 / secs),
            retries.to_string(),
        ]);
    }
    t.note("invalidations must be rare for the soft-state cache to pay off (§4)");
    t.note("the session re-arms and retries invalidated chains automatically");
    t
}

/// A2: sensitivity of the driver-hook speedup to BPF execution cost
/// (interpreter vs JIT vs pathological).
pub fn ablation_bpf_cost(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation A2 — BPF per-insn cost vs driver-hook speedup (depth 6, 6 threads)",
        &["ns/insn", "speedup vs user"],
    );
    let duration = scale.sweep_duration();
    let base = lookup_run(6, DispatchMode::User, 6, duration, 13).chains_per_sec;
    for per_insn in [0u64, 2, 10, 50] {
        let mut cfg = MachineConfig::default();
        // Field-of-field override; struct-update syntax cannot reach it.
        cfg.costs.bpf_per_insn = per_insn;
        let mut session = PushdownSession::builder(Btree::depth(6))
            .dispatch(DispatchMode::DriverHook)
            .machine_config(cfg)
            .seed(13)
            .build()
            .expect("session");
        let (report, stats) = session.run_closed_loop(6, duration);
        assert_eq!(stats.mismatches, 0);
        t.row(vec![
            per_insn.to_string(),
            ratio(report.chains_per_sec / base),
        ]);
    }
    t.note("0 ns/insn approximates a JIT; the speedup is robust until costs dwarf the stack");
    t
}

/// A3: the §4 resubmission bound — completion vs abort as the bound
/// tightens below the chain depth.
pub fn ablation_resubmit_bound(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation A3 — NVMe resubmission bound vs depth-10 chains",
        &["bound", "ok %", "aborted %", "chains/s"],
    );
    let duration = scale.sweep_duration();
    for bound in [2u32, 4, 8, 16, 256] {
        let cfg = MachineConfig {
            resubmit_bound: bound,
            ..MachineConfig::default()
        };
        let mut session = PushdownSession::builder(Btree::depth(10).check(false))
            .dispatch(DispatchMode::DriverHook)
            .machine_config(cfg)
            .seed(29)
            .build()
            .expect("session");
        let (report, _) = session.run_closed_loop(2, duration);
        let total = report.chains.max(1) as f64;
        t.row(vec![
            bound.to_string(),
            format!(
                "{:.0}",
                (report.chains - report.errors) as f64 / total * 100.0
            ),
            format!("{:.0}", report.errors as f64 / total * 100.0),
            iops(report.chains_per_sec),
        ]);
    }
    t.note("bounds below the tree depth abort every chain (fairness vs utility trade-off)");
    t
}

/// A4: the granularity-mismatch fallback — multi-block hops on a
/// fragmented file bounce every hop back to the application.
pub fn ablation_split_fallback(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation A4 — extent fragmentation vs driver-hook chains (1 KiB hops)",
        &["layout", "chains/s", "fallbacks/chain", "errors"],
    );
    let chains = if scale.quick { 200 } else { 1_000 };
    for fragmented in [false, true] {
        let mut m = Machine::new(MachineConfig::default());
        let hops = 8usize;
        let node_bytes = 1024usize;
        // Build the chain image: node i points to (i+1)*1024.
        let mut image = vec![0u8; hops * node_bytes];
        for i in 0..hops {
            let next = if i + 1 < hops {
                ((i + 1) * node_bytes) as u64
            } else {
                u64::MAX
            };
            image[i * node_bytes..i * node_bytes + 8].copy_from_slice(&next.to_le_bytes());
        }
        if fragmented {
            // Interleave block allocation with a decoy file so every
            // extent of chain.db is a single block.
            let (fs, store) = m.fs_and_store();
            let ino_a = fs.create("chain.db").expect("create a");
            let ino_b = fs.create("decoy").expect("create b");
            for (i, chunk) in image.chunks(SECTOR_SIZE).enumerate() {
                fs.write(ino_a, (i * SECTOR_SIZE) as u64, chunk, store)
                    .expect("write a");
                fs.write(ino_b, (i * SECTOR_SIZE) as u64, &[0u8; SECTOR_SIZE], store)
                    .expect("write b");
            }
            fs.take_events();
        } else {
            m.create_file("chain.db", &image).expect("create");
        }
        let fd = m.open("chain.db", true).expect("open");
        m.install(fd, bpfstor_core::pointer_chase_program(), 0)
            .expect("install");
        let mut d =
            ChaseFallbackDriver::new(fd, DispatchMode::DriverHook, node_bytes as u32, chains);
        let report = m.run_closed_loop(1, HUGE, &mut d);
        let per_chain = d.fallbacks as f64 / d.completed.max(1) as f64;
        t.row(vec![
            if fragmented {
                "fragmented"
            } else {
                "contiguous"
            }
            .to_string(),
            iops(d.completed as f64 / (report.sim_time as f64 / 1e9)),
            format!("{per_chain:.1}"),
            d.errors.to_string(),
        ]);
    }
    t.note("fragmented extents force the §4 BIO fallback on every hop, erasing the offload win");
    t
}

/// Sanity assertions over the headline shapes; `bench all` runs them
/// to fail loudly if calibration drifts.
pub fn shape_checks(scale: Scale) -> Vec<(String, bool)> {
    let duration = scale.sweep_duration();
    let mut checks = Vec::new();

    // Fig 3b shape: driver hook >= 1.8x at depth 10 with 12 threads.
    let base = lookup_run(10, DispatchMode::User, 12, duration, 7).chains_per_sec;
    let drv = lookup_run(10, DispatchMode::DriverHook, 12, duration, 7).chains_per_sec;
    let r = drv / base;
    checks.push((
        format!("fig3b depth10 t12 ratio {r:.2} in [1.8, 3.2]"),
        (1.8..=3.2).contains(&r),
    ));

    // Fig 3a shape: syscall hook gives modest gains.
    let sys = lookup_run(10, DispatchMode::SyscallHook, 12, duration, 7).chains_per_sec;
    let r = sys / base;
    checks.push((
        format!("fig3a depth10 t12 ratio {r:.2} in [1.02, 1.45]"),
        (1.02..=1.45).contains(&r),
    ));

    // Fig 3c shape: latency cut 30-60% at depth 10.
    let lu = lookup_run(10, DispatchMode::User, 1, duration, 7).mean_latency();
    let ld = lookup_run(10, DispatchMode::DriverHook, 1, duration, 7).mean_latency();
    let cut = 1.0 - ld / lu;
    checks.push((
        format!("fig3c depth10 cut {:.0}% in [30, 60]", cut * 100.0),
        (0.30..=0.60).contains(&cut),
    ));

    checks
}
