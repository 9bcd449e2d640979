//! End-to-end tests of the simulated storage stack: real bytes flow
//! from the device through the hooks and back, and the three dispatch
//! paths of Figure 2 produce the latency ordering the paper reports.
//!
//! One file per subject under `stack/`, pulled in with `include!` so
//! that every test keeps its name at the root of this suite. Machines
//! and drivers come from `support`.

mod support;

use bpfstor_device::{DeviceConfigError, SECTOR_SIZE};
use bpfstor_fs::CHECKPOINT_RECORDS;
use bpfstor_kernel::{
    Broken, ChainOutcome, ChainSpec, ChainStatus, ChainVerdict, CommitPolicy, ConfigError,
    DispatchMode, ExecSplit, FabricConfig, Fd, KernelError, Law, LayerCosts, Machine,
    MachineConfig, ReapKind, ReapMode, RunReport, TenantBreakdown, TenantLimits, DEFAULT_TENANT,
};
use bpfstor_sim::{Nanos, SimRng, MILLISECOND, SECOND};
use bpfstor_vm::{action, ctx_off, Asm, MapSpec, Program, Width};
use support::{
    chain_file, chase, chase_program, chase_step, exact_link, machine, machine_with, read, reads,
    write, writes, Reads, Script, Writes, CHAIN_VALUE,
};

/// A machine under `cfg` holding `chain.db` (`n_blocks` of
/// [`chain_file`]), the chase program installed for the hook modes, and
/// four chases of it in `mode`.
fn setup_with(cfg: MachineConfig, n_blocks: usize, mode: DispatchMode) -> (Machine, Script<Reads>) {
    let hooked = matches!(mode, DispatchMode::SyscallHook | DispatchMode::DriverHook);
    let program = hooked.then(chase_program);
    let (m, fd) = machine_with(cfg, "chain.db", &chain_file(n_blocks), program);
    (m, chase(fd, mode, 4))
}

fn setup(n_blocks: usize, mode: DispatchMode) -> (Machine, Script<Reads>) {
    setup_with(MachineConfig::default(), n_blocks, mode)
}

/// [`MachineConfig::default`] over a zero-jitter fabric.
fn fabric_cfg(one_way: Nanos) -> MachineConfig {
    MachineConfig {
        fabric: Some(exact_link(one_way)),
        ..MachineConfig::default()
    }
}

/// Thread 0 issues `reads`; every other thread takes the next of
/// `writes`. Hooked, so over a fabric both are pushed down.
struct Mixed {
    reads: Reads,
    writes: Writes,
    issued: [u64; 2],
}

fn mixed(reads: Reads, writes: Writes) -> Script<Mixed> {
    let state = Mixed {
        reads,
        writes,
        issued: [0; 2],
    };
    Script::new(DispatchMode::DriverHook, state, |s, _, thread, rng| {
        let side = usize::from(thread != 0);
        let op = match side {
            0 => s.reads.next(s.issued[0], thread, rng),
            _ => s.writes.next(s.issued[1], thread, rng),
        }?;
        s.issued[side] += 1;
        Some(op)
    })
}

include!("stack/dispatch.rs");
include!("stack/programs.rs");
include!("stack/queues.rs");
include!("stack/writes.rs");
include!("stack/fabric.rs");
include!("stack/reaping.rs");
include!("stack/tenants.rs");
