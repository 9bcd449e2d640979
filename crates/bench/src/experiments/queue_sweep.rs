//! The NVMe queue model under load: ring depth and interrupt coalescing
//! (`queue_sweep`), and how completions are reaped (`reap_sweep`).

use bpfstor_core::{Btree, DispatchMode, PushdownSession, ReapMode, RunReport};

use super::Scale;
use crate::report::{iops, us, Table};

/// Queue-depth × interrupt-coalescing sweep: with 32 SQEs in flight on
/// one queue pair (io_uring, Figure 3d's setup), the NVMe ring depth is
/// the effective device parallelism, and the coalescing knobs trade
/// completion latency against per-CQE interrupt cost. In every dispatch
/// mode IOPS must grow with ring depth, and a deeper coalescing
/// threshold must take fewer interrupts per I/O. IOPS along the
/// coalescing axis is not ordered: an interrupt's entry cost sits on
/// the reap path before any CQE it reaps, so saving entries can
/// outweigh the deferral (docs/PERF.md, "Deferring interrupts can raise
/// IOPS").
///
/// `seed` overrides the canonical seed the CSVs were calibrated on
/// (`None` keeps it).
pub fn queue_sweep(scale: Scale, seed: Option<u64>) -> Table {
    let seed = seed.unwrap_or(2024);
    let duration = scale.ms(4, 20);
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
        |mode: DispatchMode, qd: usize, coalesce_us: u64, irq_depth: u32, label: String| {
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
            report
        };
    let irqs_per_io = |r: &RunReport| r.device.irqs as f64 / r.ios as f64;
    for mode in DispatchMode::ALL {
        // Axis 1: ring depth, interrupts uncoalesced.
        let (mut prev, mut irqs) = (0.0, 0.0);
        for qd in [2usize, 8, 64] {
            let report = run(mode, qd, 0, 1, format!("qd={qd}"));
            let got = report.iops;
            assert!(
                got >= prev,
                "{}: IOPS must grow with queue depth (qd={qd}: {got:.0} after {prev:.0})",
                mode.label()
            );
            (prev, irqs) = (got, irqs_per_io(&report));
        }
        // Axis 2: coalescing depth at full ring, 8us time budget. The
        // depth-1 point is the qd=64 run above — a depth-1 threshold
        // fires on the first pending CQE regardless of the budget — so
        // it seeds the chain instead of being re-run.
        for irq_depth in [4u32, 16] {
            let got = irqs_per_io(&run(mode, 64, 8, irq_depth, format!("irq={irq_depth}")));
            assert!(
                got < irqs,
                "{}: a deeper coalescing threshold must take fewer interrupts per I/O \
                 (irq={irq_depth}: {got:.4} after {irqs:.4})",
                mode.label()
            );
            irqs = got;
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
/// on an idle CQ, and the hybrid scheduler tracks the better fixed mode
/// at every swept point. Measures: those three ratios and the hybrid's
/// mode switches at the deepest batch.
///
/// `seed` overrides the canonical seed the CSVs were calibrated on
/// (`None` keeps it).
pub fn reap_sweep(scale: Scale, seed: Option<u64>) -> Table {
    let seed = seed.unwrap_or(2024);
    let duration = scale.ms(4, 20);
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
            format!("{:.0}%", report.cpu_split().0 * 100.0),
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
    // wins throughput at the deepest batch, interrupts win CPU-per-IO
    // at the lightest.
    let (irq_deep, polled_deep) = fixed[batches.len() - 1];
    t.measure(
        "polled_over_irq_iops_deep",
        polled_deep.iops / irq_deep.iops,
    );
    let (irq_light, polled_light) = fixed[0];
    t.measure(
        "irq_over_polled_cpu_light",
        irq_light.cpu_per_io / polled_light.cpu_per_io,
    );
    // The load-adaptive scheduler tracks the better fixed mode everywhere.
    let vs_best = hybrid
        .iter()
        .zip(&fixed)
        .map(|(h, (irq, polled))| h.iops / irq.iops.max(polled.iops));
    t.measure(
        "hybrid_over_best_least",
        vs_best.fold(f64::INFINITY, f64::min),
    );
    let deepest = hybrid.last().expect("points");
    t.measure("hybrid_switches_deep", deepest.switches as f64);
    t.note("interrupt rows use an 8us/8-deep moderation profile; polled reaps every 250ns");
    t.note("hybrid starts on interrupts and switches per-qp when the backlog window crosses its watermarks");
    t
}
