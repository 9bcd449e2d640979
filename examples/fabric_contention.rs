//! Multi-initiator BPF-oF write contention — four initiators fsyncing
//! 512 B write chains at one shared NVMe-oF target over a lossy 20us
//! wire, with and without write pushdown.
//!
//! Without pushdown every chain crosses the fabric twice (data capsule,
//! then the fsync flush barrier) and holds one of the initiator's
//! credit-window slots across each round trip. With pushdown
//! (`DispatchMode::DriverHook`) the chain crosses once: the journal
//! records, the data write, and the flush barrier all run target-side,
//! and one terminal response capsule acknowledges the commit. The
//! lossy wire exercises the retransmit path — each lost crossing pays a
//! timeout and is retried until delivered exactly once.
//!
//! ```sh
//! cargo run --release --example fabric_contention
//! ```

use bpfstor::core::{DispatchMode, FabricConfig, TenantGroup, TenantLimits, YcsbMix};
use bpfstor::sim::MILLISECOND;
use bpfstor::workload::OpMix;

const INITIATORS: usize = 4;
const THREADS_PER_INITIATOR: usize = 8;
const ONE_WAY_NS: u64 = 20_000;

fn main() {
    println!("bpfstor fabric contention — {INITIATORS} initiators, fsynced 512 B writes, 20us one-way, 0.5% capsule loss\n");

    let entries: Vec<(u64, Vec<u8>)> = (0..128u64).map(|i| (i * 3, vec![7u8; 48])).collect();
    let all_writes = OpMix {
        read: 0,
        update: 100,
        insert: 0,
        scan: 0,
    };

    for (label, mode) in [
        ("no-pushdown", DispatchMode::Remote),
        ("   pushdown", DispatchMode::DriverHook),
    ] {
        // One shared target: per-initiator credit windows, a weighted
        // round-robin admission queue, queue-depth congestion past an
        // 8-capsule knee, and a lossy wire.
        let link = FabricConfig::symmetric(ONE_WAY_NS, ONE_WAY_NS / 5)
            .with_initiators(INITIATORS)
            .with_initiator_window(2)
            .with_admit_ns(500)
            .with_congestion(8, 250)
            .with_loss(0.005);
        let mut group = TenantGroup::builder()
            .dispatch(mode)
            .seed(0xBF0F)
            .fabric(link)
            .build();
        for i in 0..INITIATORS {
            group
                .add_tenant(
                    YcsbMix::new(entries.clone(), all_writes, 0xA5A5 + i as u64)
                        .write_size(512)
                        .fsync_every(1),
                    TenantLimits::default(),
                )
                .expect("initiator tenant");
        }
        let report = group.run_closed_loop(&[THREADS_PER_INITIATOR; INITIATORS], 30 * MILLISECOND);

        let secs = 30e-3;
        println!(
            "{label}: {:>7.0} chains/s aggregate, p50 {:>6.1} us, {} capsules, {} retransmits",
            report.chains_per_sec,
            report.latency.quantile(0.5) as f64 / 1_000.0,
            report.fabric.capsules_sent,
            report.fabric.retransmits,
        );
        for (breakdown, init) in report.tenants.iter().zip(&report.fabric_initiators) {
            println!(
                "  initiator {}: {:>7.0} chains/s, {:>4} capsules sent, {:>3} retransmits, {:>2} window stalls",
                breakdown.tenant,
                breakdown.chains as f64 / secs,
                init.capsules_sent,
                init.retransmits,
                init.capsule_stalls,
            );
        }
        println!();
    }

    println!("pushdown crosses the fabric once per chain and flushes target-side;");
    println!("no-pushdown holds a credit window slot across two round trips per chain.");
}
