//! Write-mix smoke sweep: write IOPS vs NVMe submission-queue depth
//! under the paper's 40r/40u/20i YCSB mix, with journaled writes and
//! fsync flush barriers riding the same rings as the pushdown reads —
//! plus the group-commit study sweeping fsyncing writers under the
//! three journal commit policies.

use bpfstor_bench::cli;
use bpfstor_bench::experiments::{group_commit_study, write_mix};

fn main() {
    let args = cli::parse_args();
    cli::emit(&[
        (write_mix(args.scale(), args.seed), "write_mix"),
        (group_commit_study(args.scale(), args.seed), "group_commit"),
    ]);
}
