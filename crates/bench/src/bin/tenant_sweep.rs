//! Tenant sweep: N tenant sessions multiplexed over one shared queue
//! pair, victim vs write-storm aggressors. Asserts the multi-tenancy
//! contract end to end: SQ slot budgets plus weighted fair reaping
//! bound the victim's p99 near its solo baseline while the unshaped
//! run blows up; an over-budget program is rejected at install time;
//! and a single-tenant group reproduces the standalone session bit for
//! bit.

use bpfstor_bench::cli;
use bpfstor_bench::experiments::tenant_sweep;

fn main() {
    let args = cli::parse_args();
    cli::emit(&[(tenant_sweep(args.scale(), args.seed), "tenant_sweep")]);
}
