//! The DESIGN.md ablations A1–A4.

use bpfstor_core::{Btree, DispatchMode, PushdownSession};
use bpfstor_device::SECTOR_SIZE;
use bpfstor_kernel::{Machine, MachineConfig};

use super::{lookup_run, Scale, HUGE};
use crate::drivers::ChaseFallbackDriver;
use crate::report::{iops, ratio, Table};

/// A1: throughput of the driver hook as extent invalidations become more
/// frequent (cost of the paper's heavy-handed invalidate + re-arm). The
/// session's automatic rearm-and-retry absorbs each invalidation; the
/// retry column counts how many chains the library restarted on the
/// application's behalf.
pub fn ablation_extent_cache(scale: Scale) -> Table {
    let window = scale.ms(4, 10);
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
        let mut session = PushdownSession::builder(Btree::depth(10))
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
    let chains = scale.pick(200, 1_000);
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
            fs.drain_events();
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
