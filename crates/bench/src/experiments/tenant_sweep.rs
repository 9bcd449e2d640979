//! Multi-tenant fairness over one shared queue pair.

use bpfstor_core::{Btree, TenantGroup, TenantId, TenantLimits, YcsbMix};
use bpfstor_kernel::{MachineConfig, RunReport};
use bpfstor_workload::OpMix;

use super::{kv_entries, Scale};
use crate::report::{us, Table};

/// Multi-tenant noisy-neighbor sweep: N tenant sessions share one queue
/// pair (`cores = 1`, ring depth 8). The victim runs depth-3 B-tree
/// lookups on one thread; each aggressor hammers deep fsynced write
/// chains. SQ slot budgets plus weighted fair reaping bound the
/// victim's p99 near its solo baseline while the unfair configuration
/// blows past it — measures: the three p99 ratios between the solo,
/// unfair and fair runs. (That an over-budget program is rejected at
/// install time and that a single-tenant group is the standalone session
/// bit for bit are `tests/end_to_end.rs`'s to assert.)
///
/// `seed` overrides the canonical seed the CSVs were calibrated on
/// (`None` keeps it).
pub fn tenant_sweep(scale: Scale, seed: Option<u64>) -> Table {
    let seed = seed.unwrap_or(0x7E4A);
    let duration = scale.ms(4, 20);
    let entries = kv_entries(256, 17);
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
    t.measure("unfair_over_fair_p99", unfair_p99 / fair_p99);
    t.measure("fair_over_solo_p99", fair_p99 / solo_p99);
    t.measure("unfair_over_solo_p99", unfair_p99 / solo_p99);
    let aggr_chains: u64 = fair_r
        .tenants
        .iter()
        .filter(|b| b.tenant != fair_v)
        .map(|b| b.chains)
        .sum();
    assert!(aggr_chains > 0, "the budgeted aggressor must not starve");

    t.note("victim: depth-3 B-tree reads, 1 thread; aggressors: 6 threads of 4 KiB journaled writes, fsync every 4th");
    t.note("fair rows: aggressors capped to 2/16 SQ slots, victim reap weight 8x");
    t
}
