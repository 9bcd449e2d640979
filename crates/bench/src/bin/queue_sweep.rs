//! Queue-accuracy sweep: IOPS vs NVMe submission-queue depth and
//! interrupt-coalescing depth, in every dispatch mode, over the
//! io_uring path (32 SQEs in flight on one queue pair) — followed by
//! the completion-reaping sweep (polled vs coalesced-interrupt vs
//! hybrid across light-to-deep batches).

use bpfstor_bench::cli;
use bpfstor_bench::experiments::{queue_sweep, reap_sweep};

fn main() {
    let args = cli::parse_args();
    cli::emit(&[
        (queue_sweep(args.scale(), args.seed), "queue_sweep"),
        (reap_sweep(args.scale(), args.seed), "reap_sweep"),
    ]);
}
