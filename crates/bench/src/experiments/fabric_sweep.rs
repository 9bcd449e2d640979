//! Pushdown over NVMe-oF, the BPF-oF setting: one initiator across
//! three wire latencies (`fabric_sweep`) and N initiators contending
//! for one target (`fabric_contention`).

use bpfstor_core::{
    Chase, DispatchMode, FabricConfig, PushdownSession, TenantGroup, TenantLimits, YcsbMix,
};
use bpfstor_device::{
    ADMIT_NS, CONGESTION_KNEE, CONGESTION_NS_PER_CAPSULE, INITIATOR_WINDOW, SECTOR_SIZE,
};
use bpfstor_kernel::RunReport;
use bpfstor_sim::Nanos;
use bpfstor_workload::OpMix;

use super::{least_step, Scale};
use crate::report::{iops, us, Table};

/// Network-latency sweep over the pointer-chase dependency chain — the
/// BPF-oF headline, end to end: remote dispatch without pushdown pays a
/// fabric round trip per dependent hop, pushdown-over-fabric runs the
/// whole chain target-side and pays ~1, and the gap between them grows
/// with the configured network latency. `LocalTransport` numbers ride
/// along as the baseline. The function asserts all three shapes;
/// measures: the latency gap at the shortest and the longest wire.
///
/// `seed` overrides the canonical seed the CSVs were calibrated on
/// (`None` keeps it).
pub fn fabric_sweep(scale: Scale, seed: Option<u64>) -> Table {
    let seed = seed.unwrap_or(4077);
    const HOPS: u64 = 8;
    let duration = scale.ms(8, 40);
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
    let mut gaps = Vec::new();
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
        gaps.push(gap);
    }
    t.measure("latency_gap_5us", gaps[0]);
    t.measure("latency_gap_80us", gaps[2]);
    t.note(
        "remote (no pushdown) pays one fabric RTT per dependent hop; pushdown pays ~1 per chain",
    );
    t.note(&format!(
        "depth-{HOPS} chase: the latency gap approaches {HOPS}x as the wire dominates"
    ));
    t
}

/// Multi-initiator BPF-oF contention study: N initiators (1/2/4/8), each
/// a tenant with its own credit window over one shared target, hammer
/// fsynced 512 B write chains with and without write pushdown. Without
/// pushdown every chain holds an initiator credit across two full fabric
/// round trips (data capsule, then the flush barrier); with pushdown the
/// chain crosses once, journals and flushes target-side, and the flush
/// submits target-locally without touching the admission queue or the
/// credit window. Measures, for the headline at 20us one-way: what
/// pushdown multiplies write chains/s and IOPS by at 4 initiators, and
/// over both arms the least step of aggregate chains/s from one
/// initiator count to the next (monotone, then saturating) and the
/// least gain of 4 initiators over 1.
///
/// `seed` overrides the canonical seed the CSVs were calibrated on
/// (`None` keeps it).
pub fn fabric_contention(scale: Scale, seed: Option<u64>) -> Table {
    let seed = seed.unwrap_or(0xBF0F);
    let duration = scale.ms(6, 30);
    /// The ISSUE's headline operating point: a 20us one-way wire.
    const ONE_WAY: Nanos = 20_000;
    /// Closed-loop writer threads per initiator (> the contended
    /// target's credit window, so the window is the binding constraint
    /// when credits are slow to free).
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
            // A contended target: credit windows small enough that
            // credit holding time, not thread count, bounds the
            // no-pushdown arm, a round-robin admission stage, and
            // queue-depth congestion. The no-pushdown arm keeps twice
            // the capsules outstanding, so it pays both costs twice.
            .with_contention();
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
    // One run per initiator count, per arm.
    let (mut nopd_runs, mut pd_runs) = (Vec::new(), Vec::new());
    for n in [1usize, 2, 4, 8] {
        let nopd = run(n, DispatchMode::Remote);
        let pd = run(n, DispatchMode::DriverHook);
        // Every initiator must make progress — the round-robin
        // admission queue and per-initiator windows may not starve one.
        for r in [&nopd, &pd] {
            for b in &r.tenants {
                assert!(b.chains > 0, "initiator {} starved at N={n}", b.tenant);
            }
            assert_eq!(r.fabric_initiators.len(), n, "one stats row per initiator");
        }
        nopd_runs.push(nopd);
        pd_runs.push(pd);
    }
    // Headline: what write pushdown multiplies aggregate fsynced-write
    // throughput by at 4 initiators (index 2).
    let speedup = pd_runs[2].chains_per_sec / nopd_runs[2].chains_per_sec;
    t.measure("pushdown_chains_gain_4init", speedup);
    t.measure(
        "pushdown_iops_gain_4init",
        pd_runs[2].iops / nopd_runs[2].iops,
    );
    // Aggregate throughput is monotone-then-saturating in the initiator
    // count for both arms: each step grows or holds within a saturation
    // tolerance, and 4 initiators clearly out-run one.
    let chains = |runs: &[RunReport]| runs.iter().map(|r| r.chains_per_sec).collect::<Vec<_>>();
    let (nopd, pd) = (chains(&nopd_runs), chains(&pd_runs));
    t.measure(
        "aggregate_step_least",
        least_step(&nopd).min(least_step(&pd)),
    );
    t.measure(
        "four_over_one_least",
        (nopd[2] / nopd[0]).min(pd[2] / pd[0]),
    );
    let us_of = |ns: Nanos| ns as f64 / 1_000.0;
    t.note(&format!(
        "{THREADS} writer threads per initiator, credit window {INITIATOR_WINDOW}, admission {}us/capsule, \
         congestion {}us/capsule beyond {CONGESTION_KNEE} outstanding",
        us_of(ADMIT_NS),
        us_of(CONGESTION_NS_PER_CAPSULE),
    ));
    t.note("no-pushdown holds a credit across two RTTs per chain; pushdown crosses once and flushes target-side");
    t.note(&format!(
        "headline: {speedup:.2}x aggregate write throughput from pushdown at 4 initiators"
    ));
    t
}
