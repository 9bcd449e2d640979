//! Queue tuning: how the NVMe ring depth and interrupt coalescing shape
//! throughput and latency.
//!
//! The device path is queue-accurate: commands are enqueued on a
//! per-thread submission ring, a doorbell batch-services the SQ, and a
//! coalescable completion interrupt reaps the CQ. A shallow ring turns
//! overload into backpressure (parked submissions, not panics);
//! coalescing trades completion latency for fewer interrupt entries.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example queue_tuning
//! ```

use bpfstor::core::{Btree, DispatchMode, PushdownSession, ReapKind, ReapMode};
use bpfstor::sim::MILLISECOND;

fn main() {
    println!("bpfstor queue tuning — depth-4 B-tree, io_uring batch 32, driver hook\n");

    println!("submission-ring depth (interrupt per completion):");
    for qd in [2usize, 8, 64] {
        let mut session = PushdownSession::builder(Btree::depth(4))
            .dispatch(DispatchMode::DriverHook)
            .queue_depth(qd)
            .build()
            .expect("session");
        let (report, stats) = session.run_uring(1, 32, 10 * MILLISECOND);
        assert_eq!(stats.mismatches, 0);
        println!(
            "  qd={qd:<4} {:>9.0} IOPS  mean={:>7.2}us  rejected={:<6} (backpressure, not failure)",
            report.iops,
            report.mean_latency() / 1_000.0,
            report.device.rejected,
        );
    }

    println!("\ninterrupt coalescing (full ring, 8us budget):");
    for depth in [1u32, 4, 16] {
        let mut session = PushdownSession::builder(Btree::depth(4))
            .dispatch(DispatchMode::DriverHook)
            .irq_coalescing(8, depth)
            .build()
            .expect("session");
        let (report, stats) = session.run_uring(1, 32, 10 * MILLISECOND);
        assert_eq!(stats.mismatches, 0);
        println!(
            "  irq_depth={depth:<3} {:>9.0} IOPS  mean={:>7.2}us  irqs={:<6} cqes/irq={:.1}",
            report.iops,
            report.mean_latency() / 1_000.0,
            report.device.irqs,
            report.device.cqes as f64 / report.device.irqs.max(1) as f64,
        );
    }

    println!("\nhybrid reaper (load-adaptive polling, per-batch timeline):");
    for batch in [1u32, 32] {
        let mut session = PushdownSession::builder(Btree::depth(4))
            .dispatch(DispatchMode::DriverHook)
            .reap_mode(ReapMode::Hybrid)
            .build()
            .expect("session");
        let (report, stats) = session.run_uring(1, batch, 10 * MILLISECOND);
        assert_eq!(stats.mismatches, 0);
        let (poll_share, irq_share) = report.cpu_split();
        println!(
            "  batch={batch:<3} {:>9.0} IOPS  switches={:<3} polls={:<6} irqs={:<5} \
             reap CPU {:.0}% poll / {:.0}% irq",
            report.iops,
            report.reaper.mode_transitions,
            report.trace.polls,
            report.trace.irqs,
            poll_share * 100.0,
            irq_share * 100.0,
        );
        for t in &report.reaper.transitions {
            let to = match t.to {
                ReapKind::Polled => "polled   (backlog over the high watermark)",
                ReapKind::Interrupt => "interrupt (queue pair went quiet)",
            };
            println!("    {:>9.2}us  qp{} -> {}", t.at as f64 / 1_000.0, t.qp, to);
        }
        if report.reaper.transitions.is_empty() {
            println!("    (no switches — the load never crossed a watermark)");
        }
    }

    println!("\nShallow rings serialize the device; deferred interrupts");
    println!("amortize entry costs across reaped CQEs; the hybrid reaper");
    println!("buys polling's reap latency only when the backlog pays for");
    println!("the burned cycles — the same knobs a real NVMe driver");
    println!("exposes, now visible in the model.");
}
