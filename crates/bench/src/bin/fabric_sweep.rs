//! Fabric sweep: pushdown-over-fabric vs per-hop round trips on the
//! depth-8 pointer chase, across three network latencies, with the
//! local driver hook as baseline. Asserts the BPF-oF shapes: remote
//! p50 exceeds local p50, remote pushdown out-runs remote no-pushdown,
//! and the gap grows with the configured wire latency.
//!
//! The second table is the multi-initiator contention study: 1/2/4/8
//! initiators fsyncing 512 B write chains at one shared target, with
//! and without write pushdown. Asserts pushdown write throughput is at
//! least 2x no-pushdown at 20us one-way with 4 initiators, and that
//! aggregate throughput is monotone-then-saturating in initiator count.

use bpfstor_bench::cli;
use bpfstor_bench::experiments::{fabric_contention, fabric_sweep};

fn main() {
    let args = cli::parse_args();
    cli::emit(&[
        (fabric_sweep(args.scale(), args.seed), "fabric_sweep"),
        (
            fabric_contention(args.scale(), args.seed),
            "fabric_contention",
        ),
    ]);
}
