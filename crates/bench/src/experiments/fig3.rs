//! Figure 3: B-tree lookups through the three dispatch paths —
//! throughput by depth × threads (a, b), single-thread latency (c) and
//! io_uring batches (d).

use bpfstor_core::{Btree, DispatchMode, PushdownSession};

use super::{least_step, lookup_run, Scale};
use crate::report::{ratio, us, Table};

/// Figures 3a/3b: B-tree lookup throughput improvement over the
/// user-space baseline, sweeping depth × thread count. Measures: the
/// largest gain of the grid and, at 12 threads, the least step of the
/// gain from one depth to the next (from depth 2) and the gain at depth
/// 10 over the same at 6 threads (what CPU saturation adds).
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
    let mut t = Table::new(title, &headers);
    let duration = scale.sweep_duration();
    let mut gains = Vec::new();
    for depth in 1..=10u32 {
        let at_depth = threads.map(|nthreads| {
            let base = lookup_run(depth, DispatchMode::User, nthreads, duration, 77);
            let hook = lookup_run(depth, mode, nthreads, duration, 77);
            hook.chains_per_sec / base.chains_per_sec
        });
        let cells = std::iter::once(depth.to_string()).chain(at_depth.map(ratio));
        t.row(cells.collect());
        gains.push(at_depth);
    }
    let max_gain = gains.iter().flatten().copied().fold(0.0, f64::max);
    t.measure("max_gain", max_gain);
    let saturated: Vec<f64> = gains.iter().map(|at_depth| at_depth[4]).collect();
    t.measure("least_depth_step", least_step(&saturated[1..]));
    t.measure("saturation_bonus", gains[9][4] / gains[9][3]);
    t
}

/// Figure 3c: single-threaded lookup latency by dispatch path. Measure:
/// the driver hook's latency cut (%) at depth 10.
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
    let duration = scale.ms(4, 20);
    for depth in 1..=10u32 {
        let user = lookup_run(depth, DispatchMode::User, 1, duration, 33).mean_latency();
        let sys = lookup_run(depth, DispatchMode::SyscallHook, 1, duration, 33).mean_latency();
        let drv = lookup_run(depth, DispatchMode::DriverHook, 1, duration, 33).mean_latency();
        let cut = (1.0 - drv / user) * 100.0;
        t.row(vec![
            depth.to_string(),
            us(user),
            us(sys),
            us(drv),
            format!("{cut:.0}"),
        ]);
        if depth == 10 {
            t.measure("cut_pct_depth10", cut);
        }
    }
    t
}

/// Figure 3d: single-threaded io_uring lookups, driver hook vs an
/// unmodified io_uring baseline, sweeping batch size. Measures: the
/// gain at depth 10 / batch 8, its least step from one batch size to
/// the next at depth 10, and the depth-3 gains at batch 1 and batch 8.
pub fn fig3d(scale: Scale) -> Table {
    let batches = [1u32, 2, 4, 8];
    let mut headers = vec!["depth".to_string()];
    headers.extend(batches.iter().map(|b| format!("batch={b}")));
    let mut t = Table::new(
        "Figure 3d — io_uring speedup, NVMe driver hook vs io_uring baseline",
        &headers,
    );
    let duration = scale.sweep_duration();
    let mut gains = Vec::new();
    for depth in 1..=10u32 {
        let at_depth = batches.map(|batch| {
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
            hook.chains_per_sec / base.chains_per_sec
        });
        let cells = std::iter::once(depth.to_string()).chain(at_depth.map(ratio));
        t.row(cells.collect());
        gains.push(at_depth);
    }
    t.measure("gain_depth10_batch8", gains[9][3]);
    t.measure("least_batch_step", least_step(&gains[9]));
    t.measure("gain_depth3_batch1", gains[2][0]);
    t.measure("gain_depth3_batch8", gains[2][3]);
    t
}
