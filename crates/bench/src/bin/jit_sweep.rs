//! JIT sweep: a compute-heavy driver-hook pointer chase run under both
//! execution engines across chain depths. Asserts the compilation-tier
//! contract end to end: simulated behaviour (chains, IOs, `trace.bpf`,
//! the whole timeline) is bit-identical across engines, verified
//! programs never fall back, and the measured host CPU per hook
//! invocation favours the compiled tier at depth ≥ 4.

use bpfstor_bench::cli;
use bpfstor_bench::experiments::jit_sweep;

fn main() {
    let args = cli::parse_args();
    cli::emit(&[(jit_sweep(args.scale(), args.seed), "jit_sweep")]);
}
