//! Execution tiers: the same verified pushdown program run first by the
//! interpreter, then by the compilation tier (the program pre-decoded
//! once into a flat array of specialised ops run by one dispatch loop —
//! safe Rust, the interpreter's own checks, no runtime codegen).
//!
//! The contract this example demonstrates: *simulated* results are
//! bit-identical across engines — the kernel charges `LayerCosts::
//! bpf_exec` from retired-instruction counts, which the engines agree
//! on exactly — while the *measured* host CPU per hook invocation is
//! sampled separately by an injected monotonic clock. The chase hook
//! here is only a dozen instructions, so its per-hop cost is mostly
//! fixed setup; the B-tree and SST hops of the `bpfstor-perf`
//! benchmark (`vm.*_hop_ns`) and the compute-heavy `jit_sweep` bench
//! binary are where the compiled tier's 1.4–1.6x win shows up.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example engine_tiers
//! ```

use std::time::Instant;

use bpfstor::core::{
    Chase, DispatchMode, ExecClock, ExecEngine, MachineConfig, PushdownSession, RunReport,
};

fn run(engine: ExecEngine) -> RunReport {
    let t0 = Instant::now();
    let mut session = PushdownSession::builder(Chase::hops(8))
        .dispatch(DispatchMode::DriverHook)
        .machine_config(MachineConfig {
            exec_clock: Some(ExecClock::new(move || t0.elapsed().as_nanos() as u64)),
            ..MachineConfig::default()
        })
        .engine(engine)
        .build()
        .expect("session construction");
    let (report, stats) = session.run_closed_loop(4, 20_000_000);
    assert_eq!(stats.mismatches, 0, "every offloaded value checked");
    report
}

fn main() {
    println!("bpfstor execution tiers — depth-8 pointer chase, driver hook\n");

    let interp = run(ExecEngine::Interp);
    let compiled = run(ExecEngine::Compiled);

    // Zero simulated drift: chains, I/Os, the BPF charge, and the whole
    // timeline must not move when the engine changes.
    assert_eq!(interp.chains, compiled.chains);
    assert_eq!(interp.ios, compiled.ios);
    assert_eq!(interp.trace.bpf, compiled.trace.bpf);
    assert_eq!(interp.sim_time, compiled.sim_time);
    assert_eq!(compiled.exec.fallbacks, 0, "verified programs compile");

    for (name, r, ns) in [
        ("interp", &interp, interp.exec.interp_ns_per_hop()),
        ("compiled", &compiled, compiled.exec.compiled_ns_per_hop()),
    ] {
        println!(
            "{name:<9} {:>7} chains  {:>7} ios  bpf charge {:>9} ns (simulated)  {ns:>6.0} ns/hop (measured)",
            r.chains, r.ios, r.trace.bpf,
        );
    }

    println!("\nSimulated figures are asserted bit-identical; only the measured");
    println!("host cost of running the hook program changes with the engine.");
}
