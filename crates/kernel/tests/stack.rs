//! End-to-end tests of the simulated storage stack: real bytes flow
//! from the device through the hooks and back, and the three dispatch
//! paths of Figure 2 produce the latency ordering the paper reports.

use bpfstor_device::SECTOR_SIZE;
use bpfstor_kernel::{
    AdaptiveIrqConfig, ChainDriver, ChainOutcome, ChainSpec, ChainStart, ChainStatus, ChainToken,
    ChainVerdict, CommitPolicy, DispatchMode, FabricConfig, Fd, HybridConfig, KernelError, Machine,
    MachineConfig, Mutation, PollConfig, ReapKind, ReapMode, TenantLimits, TransportConfig,
    UserNext, DEFAULT_TENANT,
};
use bpfstor_sim::{LatencyDist, Nanos, SimRng, MILLISECOND, SECOND};
use bpfstor_vm::{action, ctx_off, helper, Asm, Program, Width};

/// Sentinel marking the last block of a pointer chain.
const SENTINEL: u64 = u64::MAX;

/// Builds a file of `n` blocks where block `i` holds the byte offset of
/// block `i+1` in its first 8 bytes; the last block holds the sentinel
/// and a recognisable value in bytes 8..16.
fn chain_file(n: usize) -> Vec<u8> {
    let mut data = vec![0u8; n * SECTOR_SIZE];
    for i in 0..n {
        let at = i * SECTOR_SIZE;
        if i + 1 < n {
            let next = ((i + 1) * SECTOR_SIZE) as u64;
            data[at..at + 8].copy_from_slice(&next.to_le_bytes());
        } else {
            data[at..at + 8].copy_from_slice(&SENTINEL.to_le_bytes());
            data[at + 8..at + 16].copy_from_slice(&0xABAD_1DEA_F00D_CAFEu64.to_le_bytes());
        }
    }
    data
}

/// The BPF pointer-chase program: read the next offset from the block;
/// resubmit until the sentinel, then emit the 8-byte value.
fn chase_program() -> Program {
    let mut a = Asm::new();
    a.ldx(Width::DW, 6, 1, ctx_off::DATA)
        .ldx(Width::DW, 7, 1, ctx_off::DATA_END)
        .mov64_reg(8, 6)
        .add64_imm(8, 16)
        .jgt_reg(8, 7, "halt") // need 16 readable bytes
        .ldx(Width::DW, 2, 6, 0) // next offset or sentinel
        .ld_imm64(3, SENTINEL)
        .jeq_reg(2, 3, "emit")
        .mov64_reg(1, 2)
        .call(helper::RESUBMIT)
        .mov64_imm(0, action::ACT_RESUBMIT as i32)
        .exit()
        .label("emit")
        .mov64_reg(1, 6)
        .add64_imm(1, 8)
        .mov64_imm(2, 8)
        .call(helper::EMIT)
        .mov64_imm(0, action::ACT_EMIT as i32)
        .exit()
        .label("halt")
        .mov64_imm(0, action::ACT_HALT as i32)
        .exit();
    Program::new(a.finish().expect("assembles"))
}

/// Drives `max_chains` pointer-chase chains.
struct ChaseDriver {
    fd: Fd,
    mode: DispatchMode,
    /// Bytes per read (one block unless a test widens it).
    len: u32,
    max_chains: u64,
    issued: u64,
    outcomes: Vec<ChainOutcome>,
}

impl ChaseDriver {
    fn new(fd: Fd, mode: DispatchMode, max_chains: u64) -> Self {
        ChaseDriver {
            fd,
            mode,
            len: SECTOR_SIZE as u32,
            max_chains,
            issued: 0,
            outcomes: Vec::new(),
        }
    }
}

impl ChainDriver for ChaseDriver {
    fn mode(&self) -> DispatchMode {
        self.mode
    }

    fn next_op(&mut self, _thread: usize, _rng: &mut SimRng) -> Option<ChainSpec> {
        if self.issued >= self.max_chains {
            return None;
        }
        self.issued += 1;
        Some(ChainSpec::Read(ChainStart {
            fd: self.fd,
            file_off: 0,
            len: self.len,
            arg: 0,
        }))
    }

    fn user_step(&mut self, _thread: usize, _token: &ChainToken, data: &[u8]) -> UserNext {
        let next = u64::from_le_bytes(data[..8].try_into().expect("8B"));
        if next == SENTINEL {
            UserNext::Done
        } else {
            UserNext::Continue(next)
        }
    }

    fn chain_done(&mut self, _thread: usize, outcome: &ChainOutcome) -> ChainVerdict {
        self.outcomes.push(outcome.clone());
        ChainVerdict::Done
    }
}

fn setup(n_blocks: usize, mode: DispatchMode) -> (Machine, ChaseDriver) {
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("chain.db", &chain_file(n_blocks))
        .expect("create");
    let fd = m.open("chain.db", true).expect("open");
    if mode != DispatchMode::User {
        m.install(fd, chase_program(), 0).expect("install");
    }
    (m, ChaseDriver::new(fd, mode, 4))
}

#[test]
fn user_mode_chain_walks_and_returns_last_block() {
    let (mut m, mut d) = setup(8, DispatchMode::User);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 4);
    for o in &d.outcomes {
        assert_eq!(o.ios, 8, "eight hops for eight blocks");
        match &o.status {
            ChainStatus::Pass(data) => {
                assert_eq!(
                    u64::from_le_bytes(data[8..16].try_into().expect("8B")),
                    0xABAD_1DEA_F00D_CAFE
                );
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!(report.errors, 0);
    assert_eq!(report.ios, 32);
}

#[test]
fn driver_hook_chain_emits_correct_value_with_fewer_cpu_cycles() {
    let (mut m, mut d) = setup(8, DispatchMode::DriverHook);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 4);
    for o in &d.outcomes {
        assert_eq!(o.ios, 8);
        match &o.status {
            ChainStatus::Emitted(v) => {
                assert_eq!(
                    u64::from_le_bytes(v[..8].try_into().expect("8B")),
                    0xABAD_1DEA_F00D_CAFE
                );
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!(report.errors, 0);
    assert!(
        report.extcache.hits >= 7 * 4,
        "recycled hops translate via the extent cache"
    );
}

#[test]
fn syscall_hook_chain_works() {
    let (mut m, mut d) = setup(8, DispatchMode::SyscallHook);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 4);
    for o in &d.outcomes {
        assert!(
            matches!(o.status, ChainStatus::Emitted(_)),
            "{:?}",
            o.status
        );
    }
    assert_eq!(report.errors, 0);
}

#[test]
fn latency_ordering_matches_figure_3c() {
    // driver hook < syscall hook < user, for deep chains.
    let mut lat = Vec::new();
    for mode in DispatchMode::ALL {
        let (mut m, mut d) = setup(10, mode);
        let report = m.run_closed_loop(1, SECOND, &mut d);
        lat.push((mode, report.mean_latency()));
    }
    let user = lat[0].1;
    let syscall = lat[1].1;
    let driver = lat[2].1;
    assert!(
        driver < syscall && syscall < user,
        "expected driver < syscall < user, got {lat:?}"
    );
    // Paper: driver-hook latency cut approaches ~49% at depth 10.
    let cut = 1.0 - driver / user;
    assert!(
        (0.30..0.60).contains(&cut),
        "driver-hook latency cut {cut:.2} outside the paper's band"
    );
}

#[test]
fn single_read_latency_matches_table1_total() {
    // One-block chain = one plain 512B O_DIRECT read. Mean end-to-end
    // latency should sit at Table 1's 6.27us plus app think time.
    let (mut m, mut d) = setup(1, DispatchMode::User);
    d.max_chains = 200;
    let report = m.run_closed_loop(1, SECOND, &mut d);
    let expect = 6272.0 + 1000.0;
    let got = report.mean_latency();
    assert!(
        (got - expect).abs() / expect < 0.03,
        "mean latency {got} vs expected {expect}"
    );
}

#[test]
fn extent_miss_without_install_snapshot() {
    // Install, then invalidate via relocation before running: chains see
    // ExtentMiss (or Invalidated) until rearm.
    let (mut m, mut d) = setup(8, DispatchMode::DriverHook);
    m.schedule_mutation(
        0,
        Mutation::Relocate {
            name: "chain.db".to_string(),
        },
    );
    let _ = m.run_closed_loop(1, 10 * MILLISECOND, &mut d);
    assert!(
        d.outcomes
            .iter()
            .all(|o| matches!(o.status, ChainStatus::ExtentMiss | ChainStatus::Invalidated)),
        "chains must fail after invalidation: {:?}",
        d.outcomes.iter().map(|o| &o.status).collect::<Vec<_>>()
    );
    // Re-arm and run again: everything works.
    let fd = d.fd;
    m.rearm(fd).expect("rearm");
    let mut d2 = ChaseDriver::new(fd, DispatchMode::DriverHook, 2);
    let report = m.run_closed_loop(1, SECOND, &mut d2);
    assert_eq!(report.errors, 0, "re-armed chains succeed");
    assert!(d2.outcomes.iter().all(|o| o.status.is_ok()));
}

/// Σ core busy time of the last run on a default (six-core) machine.
fn core_busy(m: &Machine) -> Nanos {
    (0..MachineConfig::default().cores)
        .map(|c| m.core_busy_ns(c))
        .sum()
}

#[test]
fn a_hop_that_cannot_recycle_still_pays_its_extent_lookup() {
    // The extent-cache lookup runs on the core whatever it returns, so
    // a chain that ends SplitFallback or ExtentMiss is charged for it
    // like one that recycles: the CPU buckets still sum to the cores'
    // busy time, to the nanosecond.
    let chains = 100;
    let lookup = bpfstor_kernel::LayerCosts::default().extent_cache_lookup;

    // 1 KiB hops over single-block extents: the first resubmission
    // straddles two extents and falls back to the BIO path.
    let mut m = Machine::new(MachineConfig::default());
    let image = chain_file(8);
    {
        // Interleave allocation with a decoy file so every extent of
        // chain.db is a single block.
        let (fs, store) = m.fs_and_store();
        let ino = fs.create("chain.db").expect("create");
        let decoy = fs.create("decoy").expect("create decoy");
        for (i, block) in image.chunks(SECTOR_SIZE).enumerate() {
            let off = (i * SECTOR_SIZE) as u64;
            fs.write(ino, off, block, store).expect("write");
            fs.write(decoy, off, block, store).expect("write decoy");
        }
        fs.take_events();
    }
    let fd = m.open("chain.db", true).expect("open");
    m.install(fd, chase_program(), 0).expect("install");
    let mut d = ChaseDriver::new(fd, DispatchMode::DriverHook, chains);
    d.len = 2 * SECTOR_SIZE as u32;
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len() as u64, chains);
    for o in &d.outcomes {
        assert!(
            matches!(o.status, ChainStatus::SplitFallback { file_off, .. } if file_off == 512),
            "{:?}",
            o.status
        );
    }
    assert_eq!(report.trace.extent_cache, chains * lookup);
    assert_eq!(report.trace.software(), core_busy(&m), "split fallback");

    // A file grown after `install`: the snapshot is armed but ends at
    // block 2, so the second resubmission misses.
    let mut m = Machine::new(MachineConfig::default());
    let ino = m
        .create_file("chain.db", &image[..2 * SECTOR_SIZE])
        .expect("create");
    let fd = m.open("chain.db", true).expect("open");
    m.install(fd, chase_program(), 0).expect("install");
    let (fs, store) = m.fs_and_store();
    let grown = &image[2 * SECTOR_SIZE..];
    fs.write(ino, 2 * SECTOR_SIZE as u64, grown, store)
        .expect("grow");
    fs.take_events();
    let mut d = ChaseDriver::new(fd, DispatchMode::DriverHook, chains);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len() as u64, chains);
    for o in &d.outcomes {
        assert_eq!((&o.status, o.ios), (&ChainStatus::ExtentMiss, 2));
    }
    // One lookup that recycled, one that missed, per chain.
    assert_eq!(report.trace.extent_cache, chains * 2 * lookup);
    assert_eq!(report.trace.software(), core_busy(&m), "extent miss");
}

#[test]
fn resubmission_bound_enforced() {
    let cfg = MachineConfig {
        resubmit_bound: 4,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg);
    m.create_file("chain.db", &chain_file(16)).expect("create");
    let fd = m.open("chain.db", true).expect("open");
    m.install(fd, chase_program(), 0).expect("install");
    let mut d = ChaseDriver::new(fd, DispatchMode::DriverHook, 1);
    let _ = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 1);
    assert_eq!(
        d.outcomes[0].status,
        ChainStatus::BoundExceeded,
        "16-hop chain must trip a bound of 4"
    );
}

#[test]
fn uring_driver_hook_completes_chains() {
    let (mut m, mut d) = setup(8, DispatchMode::DriverHook);
    d.max_chains = 12;
    let report = m.run_uring(1, 4, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 12);
    assert!(d.outcomes.iter().all(|o| o.status.is_ok()));
    assert_eq!(report.errors, 0);
}

#[test]
fn uring_user_mode_completes_chains() {
    let (mut m, mut d) = setup(6, DispatchMode::User);
    d.max_chains = 8;
    let report = m.run_uring(1, 4, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 8);
    for o in &d.outcomes {
        assert!(matches!(o.status, ChainStatus::Pass(_)), "{:?}", o.status);
        assert_eq!(o.ios, 6);
    }
    assert_eq!(report.errors, 0);
}

#[test]
fn runs_are_deterministic() {
    let run = || {
        let (mut m, mut d) = setup(8, DispatchMode::DriverHook);
        d.max_chains = 50;
        let r = m.run_closed_loop(2, SECOND, &mut d);
        (r.chains, r.ios, r.sim_time, r.mean_latency().to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn multithreaded_throughput_scales_then_saturates() {
    // Baseline user-mode: 6 threads scale near-linearly; at 12 threads
    // the 6 cores are CPU-saturated and throughput is capped at
    // cores / cpu-per-io — the regime where Figure 3b's driver hook
    // shows its largest improvement.
    let run_at = |threads: usize| -> (f64, f64) {
        let mut m = Machine::new(MachineConfig::default());
        m.create_file("chain.db", &chain_file(4)).expect("create");
        let fd = m.open("chain.db", true).expect("open");
        let mut d = ChaseDriver::new(fd, DispatchMode::User, u64::MAX);
        let r = m.run_closed_loop(threads, 20 * MILLISECOND, &mut d);
        (r.iops, r.cpu_util)
    };
    let (one, _) = run_at(1);
    let (six, _) = run_at(6);
    let (twelve, util12) = run_at(12);
    assert!(six > one * 4.0, "6 threads should scale: {one} -> {six}");
    assert!(util12 > 0.95, "12 threads must saturate 6 cores: {util12}");
    // CPU cap: 6 cores / (app 1000 + submit 2123 + complete 925) ns.
    let cap = 6.0 / 4048e-9;
    assert!(
        (twelve - cap).abs() / cap < 0.05,
        "12-thread IOPS {twelve} should sit at the CPU cap {cap}"
    );
}

#[test]
fn buffered_reads_hit_page_cache() {
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("chain.db", &chain_file(1)).expect("create");
    let fd = m.open("chain.db", false).expect("open buffered");
    let mut d = ChaseDriver::new(fd, DispatchMode::User, 50);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    // First read misses; the other 49 hit the cache and skip the device.
    assert_eq!(report.ios, 1, "only the first read reaches the device");
    assert!(report.mean_latency() < 6272.0, "cache hits are fast");
}

#[test]
fn vm_error_surfaces_as_chain_error() {
    // A program that claims RESUBMIT without calling the helper.
    let mut a = Asm::new();
    a.mov64_imm(0, action::ACT_RESUBMIT as i32).exit();
    let prog = Program::new(a.finish().expect("assembles"));
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("f", &chain_file(2)).expect("create");
    let fd = m.open("f", true).expect("open");
    m.install(fd, prog, 0).expect("install verifies fine");
    let mut d = ChaseDriver::new(fd, DispatchMode::DriverHook, 1);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(report.errors, 1);
    assert!(matches!(d.outcomes[0].status, ChainStatus::VmError(_)));
}

#[test]
fn tenant_insn_budget_binds_at_runtime() {
    // The chase program retires 12 instructions per resubmit hop and 14
    // on the terminal emit hop. Install under permissive limits, then
    // tighten the tenant's budget below the chain's cumulative total:
    // execution must trap at the owner's bound even though the
    // install-time check never saw the tighter limit.
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("chain.db", &chain_file(8)).expect("create");
    let tenant = m.register_tenant(TenantLimits::default());
    let fd = m.open_for(tenant, "chain.db", true).expect("open");
    m.install(fd, chase_program(), 0)
        .expect("install under permissive limits");
    m.set_tenant_limits(
        tenant,
        TenantLimits {
            insn_budget: Some(30),
            ..TenantLimits::default()
        },
    );
    let mut d = ChaseDriver::new(fd, DispatchMode::DriverHook, 1);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(report.errors, 1);
    match &d.outcomes[0].status {
        ChainStatus::VmError(e) => assert_eq!(e, "instruction budget exceeded"),
        other => panic!("unexpected status {other:?}"),
    }
    // Two 12-insn hops fit under 30; the third runs with a 6-insn
    // remainder and traps — the budget is cumulative across the
    // chain's hops, not re-granted per hop.
    assert_eq!(d.outcomes[0].ios, 3, "trap lands mid-chain");

    // The default tenant on the same machine is unaffected.
    let fd0 = m.open("chain.db", true).expect("open default");
    m.install(fd0, chase_program(), 0).expect("install default");
    let mut d0 = ChaseDriver::new(fd0, DispatchMode::DriverHook, 1);
    let report0 = m.run_closed_loop(1, SECOND, &mut d0);
    assert_eq!(report0.errors, 0);
    assert!(matches!(d0.outcomes[0].status, ChainStatus::Emitted(_)));
}

#[test]
fn a_program_admitted_at_its_verified_worst_case_never_exceeds_it() {
    // A diamond whose long arm (40 instructions, the fall-through side)
    // joins a state the short arm reached first: the longest path is
    // 4 + 42 + 51 = 97 instructions, of which a verifier that counts
    // only what it walked sees the short arm's 56.
    let mut a = Asm::new();
    a.ldx(Width::W, 2, 1, ctx_off::HOP)
        .mov64_imm(0, 0)
        .mov64_imm(1, 0)
        .jeq_imm(2, 7, "short");
    for _ in 0..40 {
        a.mov64_imm(0, 0);
    }
    a.mov64_imm(2, 0)
        .ja("join")
        .label("short")
        .mov64_imm(2, 0)
        .label("join");
    for _ in 0..50 {
        a.mov64_imm(0, action::ACT_PASS as i32);
    }
    a.exit();
    let prog = Program::new(a.finish().expect("assembles"));
    let max_path = bpfstor_vm::verify(&prog).expect("verifies").max_path as u64;

    // One hop per chain, so the tenant's budget is the worst case of
    // one invocation and nothing pads the product.
    let machine_with = |insn_budget: u64| {
        let mut m = Machine::new(MachineConfig::default());
        m.create_file("chain.db", &chain_file(2)).expect("create");
        let tenant = m.register_tenant(TenantLimits {
            resubmit_bound: Some(1),
            insn_budget: Some(insn_budget),
            ..TenantLimits::default()
        });
        let fd = m.open_for(tenant, "chain.db", true).expect("open");
        (m, fd)
    };

    // What the verifier admits at its own figure runs within it: every
    // chain takes the long arm (hop 0) and completes.
    let (mut m, fd) = machine_with(max_path);
    m.install(fd, prog.clone(), 0)
        .expect("the verified worst case fits the budget");
    let mut d = ChaseDriver::new(fd, DispatchMode::DriverHook, 4);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    let statuses: Vec<&ChainStatus> = d.outcomes.iter().map(|o| &o.status).collect();
    assert_eq!(report.errors, 0, "{statuses:?}");
    assert_eq!(statuses.len(), 4);
    assert!(
        statuses.iter().all(|s| matches!(s, ChainStatus::Pass(_))),
        "{statuses:?}"
    );

    // One instruction less and it is rejected at install.
    let (mut m, fd) = machine_with(max_path - 1);
    match m.install(fd, prog, 0) {
        Err(KernelError::Verifier(e)) => assert!(
            e.contains(&format!("worst_case: {max_path}")),
            "rejected for its budget: {e}"
        ),
        other => panic!("admitted over budget: {other:?}"),
    }
}

#[test]
fn exec_split_counts_hops_and_engines_match() {
    // The same chase run under both engines: identical chains, IOs,
    // outcomes, and simulated BPF charge; the measured split attributes
    // every hook invocation to the engine that ran it.
    let run = |engine: bpfstor_kernel::ExecEngine| {
        let mut m = Machine::new(MachineConfig {
            exec_engine: engine,
            ..MachineConfig::default()
        });
        m.create_file("chain.db", &chain_file(8)).expect("create");
        let fd = m.open("chain.db", true).expect("open");
        m.install(fd, chase_program(), 0).expect("install");
        let mut d = ChaseDriver::new(fd, DispatchMode::DriverHook, 4);
        let report = m.run_closed_loop(1, SECOND, &mut d);
        let statuses: Vec<ChainStatus> = d.outcomes.iter().map(|o| o.status.clone()).collect();
        (report, statuses)
    };
    let (ri, si) = run(bpfstor_kernel::ExecEngine::Interp);
    let (rc, sc) = run(bpfstor_kernel::ExecEngine::Compiled);
    assert_eq!(si, sc, "identical outcomes across engines");
    assert_eq!(ri.chains, rc.chains);
    assert_eq!(ri.ios, rc.ios);
    assert_eq!(
        ri.trace.bpf, rc.trace.bpf,
        "simulated charge is engine-independent"
    );
    // 4 chains × 8 hops each.
    assert_eq!(ri.exec.interp_hops, 32);
    assert_eq!(ri.exec.compiled_hops, 0);
    assert_eq!(rc.exec.compiled_hops, 32);
    assert_eq!(rc.exec.interp_hops, 0);
    assert_eq!(
        (ri.exec.fallbacks, rc.exec.fallbacks),
        (0, 0),
        "what install admits it lowers: no hop falls back"
    );
    // No clock injected: hop counters move, nanoseconds stay zero.
    assert_eq!(ri.exec.interp_ns + rc.exec.compiled_ns, 0);
    // Per-tenant split mirrors the machine total on one tenant.
    assert_eq!(rc.tenants[0].exec, rc.exec);
}

#[test]
fn unverifiable_program_rejected_at_install() {
    let mut a = Asm::new();
    a.ldx(Width::DW, 2, 1, ctx_off::DATA)
        .ldx(Width::B, 0, 2, 0) // unchecked data access
        .exit();
    let prog = Program::new(a.finish().expect("assembles"));
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("f", &chain_file(1)).expect("create");
    let fd = m.open("f", true).expect("open");
    let err = m.install(fd, prog, 0).unwrap_err();
    assert!(matches!(err, bpfstor_kernel::KernelError::Verifier(_)));

    // An undefined opcode is refused wherever it stands. On the only
    // path, this one used to install and end every chain in `VmError:
    // illegal insn 0xe7 at pc 2`; behind a branch the abstract state
    // prunes, it installed and ran interpreted under the compiled
    // engine (`exec.fallbacks > 0`), the compiler having declined it.
    use bpfstor_vm::insn::Insn;
    let (mov_imm, jeq_imm, undefined, exit) = (0xb7, 0x15, 0xe7, 0x95);
    let reachable = vec![
        Insn::new(mov_imm, 0, 0, 0, 0),
        Insn::new(mov_imm, 2, 0, 0, 1),
        Insn::new(undefined, 0, 2, 0, 0),
        Insn::new(exit, 0, 0, 0, 0),
    ];
    let pruned = vec![
        Insn::new(mov_imm, 1, 0, 0, 0),
        Insn::new(mov_imm, 0, 0, 0, 0),
        Insn::new(jeq_imm, 1, 0, 1, 0),
        Insn::new(undefined, 0, 0, 0, 0),
        Insn::new(exit, 0, 0, 0, 0),
    ];
    for (insns, at) in [
        (reachable, "pc 2: IllegalInsn"),
        (pruned, "pc 3: IllegalInsn"),
    ] {
        match m.install(fd, Program::new(insns), 0) {
            Err(KernelError::Verifier(why)) => assert!(why.contains(at), "{why}"),
            other => panic!("installed an undefined opcode: {other:?}"),
        }
    }
}

#[test]
fn deep_chain_latency_reduction_grows_with_depth() {
    let cut_at = |depth: usize| -> f64 {
        let mut user = 0.0;
        let mut driver = 0.0;
        for mode in [DispatchMode::User, DispatchMode::DriverHook] {
            let (mut m, mut d) = setup(depth, mode);
            d.max_chains = 8;
            let r = m.run_closed_loop(1, SECOND, &mut d);
            match mode {
                DispatchMode::User => user = r.mean_latency(),
                _ => driver = r.mean_latency(),
            }
        }
        1.0 - driver / user
    };
    let shallow = cut_at(2);
    let deep = cut_at(10);
    assert!(
        deep > shallow,
        "latency cut should grow with depth: {shallow:.3} -> {deep:.3}"
    );
}

const _: fn(Nanos) = |_| {};

#[test]
fn fairness_accounting_tracks_recycled_submissions_per_thread() {
    let (mut m, mut d) = setup(6, DispatchMode::DriverHook);
    d.max_chains = 9;
    let report = m.run_closed_loop(3, SECOND, &mut d);
    // 9 chains of 6 hops: 5 recycled resubmissions each.
    assert_eq!(report.resubmissions, 9 * 5);
    let per_thread = m.resubmission_accounting();
    assert_eq!(per_thread.iter().sum::<u64>(), 9 * 5);
    assert!(
        per_thread.iter().filter(|&&c| c > 0).count() >= 2,
        "work spread across threads: {per_thread:?}"
    );
}

#[test]
fn user_mode_never_touches_fairness_counters() {
    let (mut m, mut d) = setup(6, DispatchMode::User);
    d.max_chains = 5;
    let report = m.run_closed_loop(2, SECOND, &mut d);
    assert_eq!(
        report.resubmissions, 0,
        "no recycled descriptors in user mode"
    );
}

/// A trivial program that halts every chain immediately.
fn halt_program() -> Program {
    let mut a = Asm::new();
    a.mov64_imm(0, action::ACT_HALT as i32).exit();
    Program::new(a.finish().expect("assembles"))
}

#[test]
fn program_handles_attach_detach_lifecycle() {
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("chain.db", &chain_file(4)).expect("create");
    let fd = m.open("chain.db", true).expect("open");

    // Two programs loaded on one descriptor; the latest install is the
    // attached one.
    let chase = m.install(fd, chase_program(), 0).expect("install chase");
    let halt = m.install(fd, halt_program(), 0).expect("install halt");
    assert_ne!(chase, halt, "each install gets its own handle");
    assert_eq!(m.attached(fd), Some(halt));

    let mut d = ChaseDriver::new(fd, DispatchMode::DriverHook, 1);
    let _ = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes[0].status, ChainStatus::Halted, "halt prog runs");

    // Switch back to the chase program without re-verifying.
    m.attach(chase).expect("attach");
    assert_eq!(m.attached(fd), Some(chase));
    let mut d = ChaseDriver::new(fd, DispatchMode::DriverHook, 1);
    let _ = m.run_closed_loop(1, SECOND, &mut d);
    assert!(
        matches!(d.outcomes[0].status, ChainStatus::Emitted(_)),
        "chase prog runs after attach: {:?}",
        d.outcomes[0].status
    );

    // Detached descriptor: tagged I/O fails with a VM error.
    m.detach(chase).expect("detach");
    assert_eq!(m.attached(fd), None);
    let mut d = ChaseDriver::new(fd, DispatchMode::DriverHook, 1);
    let _ = m.run_closed_loop(1, SECOND, &mut d);
    assert!(
        matches!(d.outcomes[0].status, ChainStatus::VmError(_)),
        "{:?}",
        d.outcomes[0].status
    );

    // Unload invalidates the handle.
    m.unload(halt).expect("unload");
    assert_eq!(m.attach(halt), Err(KernelError::BadHandle(halt)));
    assert_eq!(m.map_value(halt, 0, &[0u8; 4]), None);

    // Detaching a program that is not attached is an error.
    assert_eq!(m.detach(chase), Err(KernelError::BadHandle(chase)));
    // rearm needs an attached program.
    assert_eq!(m.rearm(fd), Err(KernelError::NotInstalled));
}

#[test]
fn chain_tokens_are_unique_and_carry_the_argument() {
    // Many chains in flight at once (uring, batch 4), several with the
    // same argument: every outcome still has a distinct token id.
    struct TokenDriver {
        fd: Fd,
        issued: u64,
        outcomes: Vec<ChainOutcome>,
    }
    impl ChainDriver for TokenDriver {
        fn mode(&self) -> DispatchMode {
            DispatchMode::DriverHook
        }
        fn next_op(&mut self, _t: usize, _rng: &mut bpfstor_sim::SimRng) -> Option<ChainSpec> {
            if self.issued >= 12 {
                return None;
            }
            self.issued += 1;
            Some(ChainSpec::Read(ChainStart {
                fd: self.fd,
                file_off: 0,
                len: SECTOR_SIZE as u32,
                arg: self.issued % 3, // arguments repeat across chains
            }))
        }
        fn chain_done(&mut self, _t: usize, outcome: &ChainOutcome) -> ChainVerdict {
            self.outcomes.push(outcome.clone());
            ChainVerdict::Done
        }
    }
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("chain.db", &chain_file(4)).expect("create");
    let fd = m.open("chain.db", true).expect("open");
    m.install(fd, chase_program(), 0).expect("install");
    let mut d = TokenDriver {
        fd,
        issued: 0,
        outcomes: Vec::new(),
    };
    let _ = m.run_uring(2, 4, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 12);
    let mut ids: Vec<u64> = d.outcomes.iter().map(|o| o.token.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 12, "token ids are unique per chain");
    for o in &d.outcomes {
        assert!(o.token.arg < 3, "token echoes the chain argument");
        assert_eq!(o.arg(), o.token.arg);
    }
}

#[test]
fn rearm_retry_verdict_restarts_chains_without_caller_intervention() {
    /// Chase driver that answers every rearmable failure with the
    /// kernel-assisted rearm-and-retry protocol.
    struct RetryDriver {
        inner: ChaseDriver,
        budget: u32,
    }
    impl ChainDriver for RetryDriver {
        fn mode(&self) -> DispatchMode {
            self.inner.mode()
        }
        fn next_op(&mut self, t: usize, rng: &mut bpfstor_sim::SimRng) -> Option<ChainSpec> {
            self.inner.next_op(t, rng)
        }
        fn user_step(&mut self, t: usize, token: &ChainToken, data: &[u8]) -> UserNext {
            self.inner.user_step(t, token, data)
        }
        fn chain_done(&mut self, t: usize, outcome: &ChainOutcome) -> ChainVerdict {
            if outcome.status.is_rearmable() && outcome.attempts < self.budget {
                return ChainVerdict::RearmRetry;
            }
            self.inner.chain_done(t, outcome)
        }
    }

    let (mut m, d) = setup(8, DispatchMode::DriverHook);
    let mut d = RetryDriver {
        inner: d,
        budget: 3,
    };
    d.inner.max_chains = 6;
    // Relocate the file while chains are in flight: the §4 invalidation.
    m.schedule_mutation(
        50_000,
        Mutation::Relocate {
            name: "chain.db".to_string(),
        },
    );
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.inner.outcomes.len(), 6, "all logical chains complete");
    assert!(
        d.inner.outcomes.iter().all(|o| o.status.is_ok()),
        "retries absorb the invalidation: {:?}",
        d.inner
            .outcomes
            .iter()
            .map(|o| &o.status)
            .collect::<Vec<_>>()
    );
    assert!(
        report.rearm_retries > 0,
        "the run actually exercised the retry path"
    );
    assert!(
        d.inner.outcomes.iter().any(|o| o.attempts > 0),
        "some chain carries a non-zero attempt count"
    );
    assert_eq!(report.errors, 0, "absorbed attempts are not errors");
    assert_eq!(report.chains, 6, "retried attempts not double-counted");
}

// --- Queue-accurate dispatch: doorbells, interrupts, backpressure --------------

#[test]
fn uring_batch_shares_one_doorbell() {
    // Eight SQEs submitted in one io_uring_enter land on the SQ
    // together and ring the doorbell once; the device services them as
    // one batch.
    let (mut m, mut d) = setup(1, DispatchMode::User);
    d.max_chains = 8;
    let report = m.run_uring(1, 8, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 8);
    assert_eq!(report.ios, 8);
    assert_eq!(report.trace.doorbells, 1, "one MMIO write for the batch");
    assert_eq!(report.device.doorbells, 1);
}

#[test]
fn interrupt_coalescing_aggregates_cqes() {
    let run = |us: u64, depth: u32| {
        let cfg = MachineConfig {
            irq_coalesce_us: us,
            irq_coalesce_depth: depth,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg);
        m.create_file("chain.db", &chain_file(1)).expect("create");
        let fd = m.open("chain.db", true).expect("open");
        let mut d = ChaseDriver::new(fd, DispatchMode::User, 64);
        let report = m.run_uring(1, 16, SECOND, &mut d);
        assert_eq!(d.outcomes.len(), 64, "all chains complete");
        assert_eq!(report.errors, 0);
        report
    };
    let none = run(0, 1);
    let coalesced = run(8, 8);
    assert_eq!(
        none.device.cqes, coalesced.device.cqes,
        "same completions either way"
    );
    assert!(
        coalesced.device.irqs < none.device.irqs,
        "coalescing must aggregate CQEs per interrupt: {} vs {}",
        coalesced.device.irqs,
        none.device.irqs
    );
    assert_eq!(none.trace.irqs, none.device.irqs);
}

#[test]
fn tiny_queue_depth_backpressures_instead_of_panicking() {
    // 8 threads funnel into 2 queue pairs whose rings hold one command
    // each: submissions park and retry after the next interrupt, and
    // the run completes with graceful IOPS degradation — no panic.
    let run = |queue_depth: usize| {
        let mut profile = bpfstor_device::DeviceProfile::optane_gen2_p5800x();
        profile.queue_depth = queue_depth;
        let cfg = MachineConfig {
            profile,
            cores: 2,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg);
        m.create_file("chain.db", &chain_file(4)).expect("create");
        let fd = m.open("chain.db", true).expect("open");
        let mut d = ChaseDriver::new(fd, DispatchMode::User, 64);
        let report = m.run_closed_loop(8, SECOND, &mut d);
        assert_eq!(d.outcomes.len(), 64, "qd={queue_depth}: all chains done");
        assert!(
            d.outcomes.iter().all(|o| o.status.is_ok()),
            "qd={queue_depth}: backpressure must not fail chains"
        );
        report
    };
    let shallow = run(2);
    let deep = run(4096);
    assert!(
        shallow.device.rejected > 0,
        "a one-slot ring under 4 threads/qp must reject submissions"
    );
    assert_eq!(deep.device.rejected, 0, "a deep ring never rejects");
    assert!(shallow.iops > 0.0);
    assert!(
        shallow.iops <= deep.iops * 1.0001 && shallow.iops >= deep.iops * 0.3,
        "IOPS degrade gracefully under backpressure: {} vs {}",
        shallow.iops,
        deep.iops
    );
}

#[test]
fn uring_iops_grows_monotonically_with_queue_depth() {
    // With 32 SQEs in flight on one queue pair, the SQ depth is the
    // effective device parallelism: IOPS must grow monotonically as the
    // ring deepens (and rejections vanish once everything fits).
    let run = |queue_depth: usize| {
        let mut profile = bpfstor_device::DeviceProfile::optane_gen2_p5800x();
        profile.queue_depth = queue_depth;
        let cfg = MachineConfig {
            profile,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg);
        m.create_file("chain.db", &chain_file(1)).expect("create");
        let fd = m.open("chain.db", true).expect("open");
        let mut d = ChaseDriver::new(fd, DispatchMode::User, 256);
        let report = m.run_uring(1, 32, SECOND, &mut d);
        assert_eq!(d.outcomes.len(), 256, "qd={queue_depth}: all chains done");
        assert_eq!(report.errors, 0);
        report
    };
    let mut prev = 0.0;
    for qd in [2usize, 8, 64] {
        let report = run(qd);
        assert!(
            report.iops > prev,
            "IOPS must grow with queue depth: qd={qd} gave {} after {prev}",
            report.iops
        );
        prev = report.iops;
    }
}

// --- Regression: uring batch RNG streams ---------------------------------------

#[test]
fn uring_batch_samples_distinct_request_streams() {
    // Regression: every NewChain of one io_uring_enter used to fork the
    // workload RNG with the same (batch-constant) salt; the per-enter
    // sequence number now gives each SQE its own stream.
    struct RecordingDriver {
        fd: Fd,
        issued: u64,
        keys: Vec<u64>,
    }
    impl ChainDriver for RecordingDriver {
        fn mode(&self) -> DispatchMode {
            DispatchMode::User
        }
        fn next_op(&mut self, _t: usize, rng: &mut SimRng) -> Option<ChainSpec> {
            if self.issued >= 8 {
                return None;
            }
            self.issued += 1;
            let key = rng.below(1 << 40);
            self.keys.push(key);
            Some(ChainSpec::Read(ChainStart {
                fd: self.fd,
                file_off: 0,
                len: SECTOR_SIZE as u32,
                arg: key,
            }))
        }
    }
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("f.db", &chain_file(1)).expect("create");
    let fd = m.open("f.db", true).expect("open");
    let mut d = RecordingDriver {
        fd,
        issued: 0,
        keys: Vec::new(),
    };
    let _ = m.run_uring(1, 8, SECOND, &mut d);
    let first_batch: std::collections::HashSet<u64> = d.keys.iter().take(8).copied().collect();
    assert_eq!(
        first_batch.len(),
        8,
        "the first uring batch must draw distinct keys: {:?}",
        &d.keys[..8.min(d.keys.len())]
    );
}

// --- Regression: stale snapshots must abort, not heal --------------------------

#[test]
fn stale_snapshot_aborts_instead_of_healing_through_live_fs() {
    // Regression: recycled hops used to discard the extent snapshot's
    // physical address and re-translate through live fs metadata at
    // submission, silently healing snapshots the NVMe layer never saw
    // invalidated. The physical target now rides the recycled
    // descriptor, and a generation mismatch at submission aborts.
    let (mut m, mut d) = setup(8, DispatchMode::DriverHook);
    d.max_chains = 1;
    let ino = m.ino_of(d.fd).expect("ino");
    {
        // Relocate the file *without* the invalidation hook firing —
        // the snapshot pushed at install time is now silently stale.
        let (fs, store) = m.fs_and_store();
        fs.relocate(ino, store).expect("relocate");
        let _ = fs.take_events();
    }
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 1);
    assert!(
        matches!(
            d.outcomes[0].status,
            ChainStatus::Invalidated | ChainStatus::ExtentMiss
        ),
        "a recycled hop against a stale snapshot must abort, got {:?}",
        d.outcomes[0].status
    );
    assert_eq!(report.errors, 1);
    // Re-arming repairs it: the fresh snapshot matches the live layout.
    m.rearm(d.fd).expect("rearm");
    let mut d2 = ChaseDriver::new(d.fd, DispatchMode::DriverHook, 1);
    let report = m.run_closed_loop(1, SECOND, &mut d2);
    assert_eq!(report.errors, 0, "re-armed chains succeed");
}

// --- Regression: multi-block buffered reads warm the page cache ----------------

#[test]
fn repeated_multiblock_buffered_reads_hit_the_page_cache() {
    // Regression: only single-block buffered reads used to populate the
    // page cache, so scan-style reads never warmed it. Blocks are now
    // inserted individually and whole-request hits assemble from cache.
    struct ScanReadDriver {
        fd: Fd,
        left: u64,
        payloads: Vec<Vec<u8>>,
    }
    impl ChainDriver for ScanReadDriver {
        fn mode(&self) -> DispatchMode {
            DispatchMode::User
        }
        fn next_op(&mut self, _t: usize, _rng: &mut SimRng) -> Option<ChainSpec> {
            if self.left == 0 {
                return None;
            }
            self.left -= 1;
            Some(ChainSpec::Read(ChainStart {
                fd: self.fd,
                file_off: 0,
                len: 4 * SECTOR_SIZE as u32,
                arg: 0,
            }))
        }
        fn chain_done(&mut self, _t: usize, outcome: &ChainOutcome) -> ChainVerdict {
            if let ChainStatus::Pass(data) = &outcome.status {
                self.payloads.push(data.clone());
            }
            ChainVerdict::Done
        }
    }
    let image = chain_file(8);
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("scan.db", &image).expect("create");
    let fd = m.open("scan.db", false).expect("open buffered");
    let mut d = ScanReadDriver {
        fd,
        left: 10,
        payloads: Vec::new(),
    };
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.payloads.len(), 10);
    for p in &d.payloads {
        assert_eq!(
            p.as_slice(),
            &image[..4 * SECTOR_SIZE],
            "full 4-block payload"
        );
    }
    assert_eq!(
        report.ios, 1,
        "only the first multi-block read reaches the device"
    );
}

// --- The journaled write path through the rings ------------------------------

/// Closed-loop driver issuing `writes` journaled writes of `len` bytes
/// at successive offsets, every `fsync_every`-th one fsynced.
struct WriteDriver {
    fd: Fd,
    len: usize,
    writes: u64,
    fsync_every: u64,
    mode: DispatchMode,
    issued: u64,
    outcomes: Vec<ChainOutcome>,
}

impl WriteDriver {
    fn new(fd: Fd, len: usize, writes: u64, fsync_every: u64) -> Self {
        WriteDriver {
            fd,
            len,
            writes,
            fsync_every,
            mode: DispatchMode::User,
            issued: 0,
            outcomes: Vec::new(),
        }
    }

    /// Same write stream, dispatched in `mode` (write pushdown over a
    /// fabric machine needs [`DispatchMode::DriverHook`]).
    fn with_mode(fd: Fd, len: usize, writes: u64, fsync_every: u64, mode: DispatchMode) -> Self {
        WriteDriver {
            mode,
            ..WriteDriver::new(fd, len, writes, fsync_every)
        }
    }
}

impl ChainDriver for WriteDriver {
    fn mode(&self) -> DispatchMode {
        self.mode
    }

    fn next_op(&mut self, _t: usize, _rng: &mut SimRng) -> Option<bpfstor_kernel::ChainSpec> {
        if self.issued >= self.writes {
            return None;
        }
        let i = self.issued;
        self.issued += 1;
        let fsync = self.fsync_every != 0 && (i + 1).is_multiple_of(self.fsync_every);
        Some(bpfstor_kernel::ChainSpec::Write(
            bpfstor_kernel::WriteStart {
                fd: self.fd,
                file_off: i * self.len as u64,
                data: vec![(i % 251) as u8 + 1; self.len],
                fsync,
                arg: i,
            },
        ))
    }

    fn chain_done(&mut self, _t: usize, outcome: &ChainOutcome) -> ChainVerdict {
        self.outcomes.push(outcome.clone());
        ChainVerdict::Done
    }
}

#[test]
fn write_chains_ride_the_rings_and_land_on_the_store() {
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("log.db", &[]).expect("create");
    let fd = m.open("log.db", true).expect("open");
    let mut d = WriteDriver::new(fd, SECTOR_SIZE, 16, 4);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 16);
    for o in &d.outcomes {
        assert!(
            matches!(o.status, ChainStatus::Written(n) if n as usize == SECTOR_SIZE),
            "unexpected status {:?}",
            o.status
        );
    }
    // The data went through the device as real write commands...
    assert_eq!(report.device.writes, 16, "one write command per block");
    assert_eq!(report.device.flushes, 4, "every 4th write carried fsync");
    assert!(report.device.write_doorbells > 0, "writes rang doorbells");
    assert!(report.device.write_cqes >= 20, "write + flush CQEs reaped");
    assert_eq!(report.errors, 0);
    // ...and the bytes are really on the store, through the fs mapping.
    let ino = m.ino_of(fd).expect("ino");
    let (fs, store) = m.fs_and_store();
    for i in 0..16u64 {
        let got = fs
            .read(ino, i * SECTOR_SIZE as u64, SECTOR_SIZE, store)
            .expect("read");
        assert_eq!(got, vec![(i % 251) as u8 + 1; SECTOR_SIZE], "block {i}");
    }
    // Write latency is tracked in its own histogram.
    assert_eq!(report.write_latency.count(), 16);
    assert_eq!(report.read_latency.count(), 0);
    assert_eq!(report.latency.count(), 16);
}

#[test]
fn fsync_commits_the_journal_unfsynced_writes_stay_pending() {
    let mut m = Machine::new(MachineConfig::default());
    {
        let (fs, _) = m.fs_and_store();
        fs.create("wal.db").expect("create");
    }
    let ino = m.fs().open("wal.db").expect("open");
    // Un-fsynced runtime write: metadata records stay in the open
    // transaction — not crash-durable yet.
    m.write_file(ino, 0, &vec![7u8; SECTOR_SIZE], false)
        .expect("write");
    let j = m.fs().journal();
    assert!(j.in_transaction(), "runtime write leaves the txn open");
    assert!(
        j.len() > j.committed_records().len(),
        "records pending, not committed"
    );
    // The fsync barrier commits them.
    m.write_file(ino, 0, &[], true).expect("fsync");
    let j = m.fs().journal();
    assert!(!j.in_transaction());
    assert_eq!(j.len(), j.committed_records().len(), "all records durable");
}

#[test]
fn group_commit_shares_one_barrier_across_concurrent_fsyncs() {
    let writers = 8;
    let mut m = Machine::new(MachineConfig {
        commit_policy: CommitPolicy::Group {
            max_wait_us: 50,
            max_handles: writers as u32,
        },
        ..MachineConfig::default()
    });
    m.create_file("wal.db", &[]).expect("create");
    let fd = m.open("wal.db", true).expect("open");
    // Every write fsyncs; eight closed-loop writers pile into shared
    // transactions.
    let mut d = WriteDriver::new(fd, SECTOR_SIZE, 32, 1);
    let report = m.run_closed_loop(writers, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 32);
    for o in &d.outcomes {
        assert!(matches!(o.status, ChainStatus::Written(_)));
    }
    let commit = report.commit;
    assert_eq!(commit.fsyncs, 32);
    assert!(
        commit.commits < commit.fsyncs,
        "barriers must be shared: {} commits for {} fsyncs",
        commit.commits,
        commit.fsyncs
    );
    assert_eq!(
        report.device.flushes, commit.commits,
        "one device flush per committed transaction"
    );
    assert!(
        commit.max_handles >= 2,
        "at least one transaction carried multiple handles"
    );
    assert!(commit.flushes_per_fsync() < 1.0);
    // Everything fsynced is durable once the run drains.
    let j = m.fs().journal();
    assert_eq!(j.len(), j.committed_records().len());
    // Fsync latency is measured issue-to-barrier-CQE, once per fsync.
    assert_eq!(report.fsync_latency.count(), 32);
}

#[test]
fn writeback_timer_flushes_unfsynced_journal_records() {
    let mut m = Machine::new(MachineConfig {
        commit_policy: CommitPolicy::Writeback {
            flush_interval_us: 100,
        },
        ..MachineConfig::default()
    });
    m.create_file("wal.db", &[]).expect("create");
    let fd = m.open("wal.db", true).expect("open");
    // No application fsync at all: only the background timer commits.
    let mut d = WriteDriver::new(fd, SECTOR_SIZE, 12, 0);
    let report = m.run_closed_loop(2, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 12);
    let commit = report.commit;
    assert_eq!(commit.fsyncs, 0, "nothing fsynced");
    assert!(
        commit.writeback_flushes >= 1,
        "the timer sealed the journal dirt"
    );
    let j = m.fs().journal();
    assert_eq!(
        j.len(),
        j.committed_records().len(),
        "background flush drained the journal before the run ended"
    );
    // No fsync means no fsync latency samples.
    assert_eq!(report.fsync_latency.count(), 0);
}

#[test]
fn fsync_write_pays_data_then_flush_ordering() {
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("f.db", &[]).expect("create");
    let ino = m.fs().open("f.db").expect("open");
    let o_plain = m
        .write_file(ino, 0, &vec![1u8; SECTOR_SIZE], false)
        .expect("plain write");
    let o_fsync = m
        .write_file(ino, SECTOR_SIZE as u64, &vec![2u8; SECTOR_SIZE], true)
        .expect("fsync write");
    assert_eq!(o_plain.ios, 1, "data command only");
    assert_eq!(o_fsync.ios, 2, "data command + flush barrier");
    assert!(
        o_fsync.latency > o_plain.latency,
        "the ordered flush serializes behind the data CQE: {} !> {}",
        o_fsync.latency,
        o_plain.latency
    );
    let st = m.device_stats();
    assert_eq!(st.writes, 2);
    assert_eq!(st.flushes, 1);
}

#[test]
fn write_backpressure_parks_and_retries_until_done() {
    // A two-slot ring (capacity 1) under a uring batch of 8 writers:
    // submissions must park on the full SQ and retry after interrupts
    // free slots — every write still completes, none are dropped.
    let mut profile = bpfstor_device::DeviceProfile::optane_gen2_p5800x();
    profile.queue_depth = 2;
    let cfg = MachineConfig {
        profile,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg);
    m.create_file("log.db", &[]).expect("create");
    let fd = m.open("log.db", true).expect("open");
    let mut d = WriteDriver::new(fd, SECTOR_SIZE, 32, 0);
    let report = m.run_uring(1, 8, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 32, "no write lost to backpressure");
    assert!(
        d.outcomes
            .iter()
            .all(|o| matches!(o.status, ChainStatus::Written(_))),
        "all delivered as written"
    );
    assert!(
        report.device.rejected > 0,
        "the one-slot ring must have parked submissions"
    );
    assert_eq!(report.device.writes, 32);
    assert_eq!(report.errors, 0);
}

#[test]
fn multi_block_write_merges_into_contiguous_segments() {
    // A fresh file's sequential allocation is contiguous, so an 8-block
    // write should reach the device as ONE write command.
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("big.db", &[]).expect("create");
    let ino = m.fs().open("big.db").expect("open");
    let payload: Vec<u8> = (0..8 * SECTOR_SIZE).map(|i| (i % 253) as u8).collect();
    let outcome = m.write_file(ino, 0, &payload, false).expect("write");
    assert_eq!(outcome.ios, 1, "bio-style merge into one command");
    let st = m.device_stats();
    assert_eq!(st.writes, 1);
    let (fs, store) = m.fs_and_store();
    assert_eq!(
        fs.read(ino, 0, payload.len(), store).expect("read"),
        payload
    );
}

#[test]
fn unaligned_write_read_modify_writes_the_edges() {
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("rmw.db", &vec![0xAAu8; 2 * SECTOR_SIZE])
        .expect("create");
    let ino = m.fs().open("rmw.db").expect("open");
    m.write_file(ino, 100, b"hello world", false)
        .expect("write");
    let (fs, store) = m.fs_and_store();
    let back = fs.read(ino, 98, 15, store).expect("read");
    assert_eq!(&back[2..13], b"hello world");
    assert_eq!(back[0], 0xAA, "surrounding bytes preserved");
}

#[test]
fn writes_invalidate_cached_pages() {
    // A buffered reader warms the page cache; a runtime write to the
    // same blocks must invalidate them so the next read sees new bytes.
    struct OneRead {
        fd: Fd,
        left: u32,
        got: Vec<Vec<u8>>,
    }
    impl ChainDriver for OneRead {
        fn mode(&self) -> DispatchMode {
            DispatchMode::User
        }
        fn next_op(&mut self, _t: usize, _rng: &mut SimRng) -> Option<ChainSpec> {
            if self.left == 0 {
                return None;
            }
            self.left -= 1;
            Some(ChainSpec::Read(ChainStart {
                fd: self.fd,
                file_off: 0,
                len: SECTOR_SIZE as u32,
                arg: 0,
            }))
        }
        fn chain_done(&mut self, _t: usize, outcome: &ChainOutcome) -> ChainVerdict {
            if let ChainStatus::Pass(d) = &outcome.status {
                self.got.push(d.clone());
            }
            ChainVerdict::Done
        }
    }
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("page.db", &vec![1u8; SECTOR_SIZE])
        .expect("create");
    let fd = m.open("page.db", false).expect("open buffered");
    let ino = m.ino_of(fd).expect("ino");
    let mut d = OneRead {
        fd,
        left: 1,
        got: Vec::new(),
    };
    m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.got[0], vec![1u8; SECTOR_SIZE], "cache warmed with v1");
    m.write_file(ino, 0, &vec![2u8; SECTOR_SIZE], true)
        .expect("write");
    let mut d = OneRead {
        fd,
        left: 1,
        got: Vec::new(),
    };
    m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(
        d.got[0],
        vec![2u8; SECTOR_SIZE],
        "stale cached page must not survive the write"
    );
}

#[test]
fn mixed_read_write_chains_share_queue_slots() {
    // Interleave reads and writes on one thread's queue pair and check
    // both classes complete, with per-class histograms partitioning the
    // total.
    struct MixedDriver {
        fd: Fd,
        left: u64,
        toggle: bool,
        reads: u64,
        writes: u64,
    }
    impl ChainDriver for MixedDriver {
        fn mode(&self) -> DispatchMode {
            DispatchMode::User
        }
        fn next_op(&mut self, _t: usize, _rng: &mut SimRng) -> Option<bpfstor_kernel::ChainSpec> {
            if self.left == 0 {
                return None;
            }
            self.left -= 1;
            self.toggle = !self.toggle;
            Some(if self.toggle {
                bpfstor_kernel::ChainSpec::Read(ChainStart {
                    fd: self.fd,
                    file_off: 0,
                    len: SECTOR_SIZE as u32,
                    arg: 0,
                })
            } else {
                bpfstor_kernel::ChainSpec::Write(bpfstor_kernel::WriteStart {
                    fd: self.fd,
                    file_off: (8 + self.left) * SECTOR_SIZE as u64,
                    data: vec![9u8; SECTOR_SIZE],
                    fsync: false,
                    arg: 0,
                })
            })
        }
        fn chain_done(&mut self, _t: usize, outcome: &ChainOutcome) -> ChainVerdict {
            match outcome.status {
                ChainStatus::Written(_) => self.writes += 1,
                _ => self.reads += 1,
            }
            ChainVerdict::Done
        }
    }
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("mix.db", &vec![5u8; 8 * SECTOR_SIZE])
        .expect("create");
    let fd = m.open("mix.db", true).expect("open");
    let mut d = MixedDriver {
        fd,
        left: 40,
        toggle: false,
        reads: 0,
        writes: 0,
    };
    let report = m.run_closed_loop(2, SECOND, &mut d);
    assert_eq!(d.reads, 20);
    assert_eq!(d.writes, 20);
    assert_eq!(report.read_latency.count(), 20);
    assert_eq!(report.write_latency.count(), 20);
    assert_eq!(report.latency.count(), 40);
    assert!(report.device.write_doorbells > 0);
    assert!(report.device.reads >= 20 && report.device.writes == 20);
    assert_eq!(report.errors, 0);
}

#[test]
fn read_file_handles_unaligned_ranges_spanning_blocks() {
    // Regression: the request must be sized from (off % block) + len,
    // or an unaligned read spanning a block boundary comes back short.
    let mut m = Machine::new(MachineConfig::default());
    let image: Vec<u8> = (0..4 * SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
    m.create_file("u.db", &image).expect("create");
    let ino = m.fs().open("u.db").expect("open");
    let got = m.read_file(ino, 100, SECTOR_SIZE).expect("read");
    assert_eq!(got.len(), SECTOR_SIZE, "full length, not truncated");
    assert_eq!(got, &image[100..100 + SECTOR_SIZE]);
    let tail = m
        .read_file(ino, 3 * SECTOR_SIZE as u64 + 500, 12)
        .expect("tail");
    assert_eq!(tail, &image[3 * SECTOR_SIZE + 500..3 * SECTOR_SIZE + 512]);
}

#[test]
fn one_shot_io_leaves_future_mutations_for_the_next_run() {
    // Regression: write_file/read_file between runs must not consume a
    // mutation scheduled for a later simulated instant.
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("data.db", &chain_file(4)).expect("create");
    m.create_file("scratch.db", &[]).expect("create scratch");
    let scratch = m.fs().open("scratch.db").expect("open");
    // Schedule a relocation far in the future, then do preload I/O.
    m.schedule_mutation(
        1_000 * SECOND,
        Mutation::Relocate {
            name: "data.db".to_string(),
        },
    );
    let (gen_before, _) = m
        .fs()
        .generations(m.fs().open("data.db").expect("ino"))
        .expect("gens");
    m.write_file(scratch, 0, &vec![1u8; SECTOR_SIZE], true)
        .expect("preload write");
    let ino = m.fs().open("data.db").expect("ino");
    let (gen_after, _) = m.fs().generations(ino).expect("gens");
    assert_eq!(
        gen_before, gen_after,
        "the future relocation must not fire during preload I/O"
    );
}

#[test]
fn uring_write_to_bad_fd_is_dropped_not_panicking() {
    // Regression: a write SQE naming an unregistered fd used to skew
    // the batch's read/write accounting into a u64 underflow.
    struct BadFdWriter {
        good_fd: Fd,
        left: u64,
    }
    impl ChainDriver for BadFdWriter {
        fn mode(&self) -> DispatchMode {
            DispatchMode::User
        }
        fn next_op(&mut self, _t: usize, _rng: &mut SimRng) -> Option<bpfstor_kernel::ChainSpec> {
            if self.left == 0 {
                return None;
            }
            self.left -= 1;
            // Alternate a bogus-fd write with a valid read.
            Some(if self.left.is_multiple_of(2) {
                bpfstor_kernel::ChainSpec::Write(bpfstor_kernel::WriteStart {
                    fd: 9999,
                    file_off: 0,
                    data: vec![1u8; SECTOR_SIZE],
                    fsync: false,
                    arg: 0,
                })
            } else {
                bpfstor_kernel::ChainSpec::Read(ChainStart {
                    fd: self.good_fd,
                    file_off: 0,
                    len: SECTOR_SIZE as u32,
                    arg: 0,
                })
            })
        }
    }
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("ok.db", &chain_file(1)).expect("create");
    let good_fd = m.open("ok.db", true).expect("open");
    let mut d = BadFdWriter { good_fd, left: 8 };
    let report = m.run_uring(1, 4, SECOND, &mut d);
    assert!(report.chains > 0, "valid reads still complete");
    assert_eq!(
        report.device.writes, 0,
        "bad-fd writes never reach the device"
    );
}

// --- Transport-abstracted dispatch: fabric, affinity, write fairness --------

/// A zero-jitter fabric link: `one_way` ns each direction, no fixed
/// target-side processing — keeps latency arithmetic exact in tests.
fn exact_link(one_way: Nanos) -> FabricConfig {
    FabricConfig {
        to_target: LatencyDist::Constant(one_way),
        to_host: LatencyDist::Constant(one_way),
        target_proc_ns: 0,
        inflight_cap: 32,
        ..FabricConfig::contention_defaults()
    }
}

fn setup_with(cfg: MachineConfig, n_blocks: usize, mode: DispatchMode) -> (Machine, ChaseDriver) {
    let mut m = Machine::new(cfg);
    m.create_file("chain.db", &chain_file(n_blocks))
        .expect("create");
    let fd = m.open("chain.db", true).expect("open");
    if matches!(mode, DispatchMode::SyscallHook | DispatchMode::DriverHook) {
        m.install(fd, chase_program(), 0).expect("install");
    }
    (m, ChaseDriver::new(fd, mode, 4))
}

fn fabric_cfg(one_way: Nanos) -> MachineConfig {
    MachineConfig {
        transport: TransportConfig::Fabric(exact_link(one_way)),
        ..MachineConfig::default()
    }
}

#[test]
fn zero_latency_fabric_matches_local_user_path() {
    // With a zero-cost wire and zero capsule CPU, remote dispatch over
    // the fabric transport must reproduce the local user path exactly —
    // the refactor's "LocalTransport is byte-for-byte" guarantee, probed
    // from the other side.
    let (mut local, mut dl) = setup_with(MachineConfig::default(), 8, DispatchMode::User);
    let rl = local.run_closed_loop(1, SECOND, &mut dl);
    let mut cfg = fabric_cfg(0);
    cfg.costs.fab_encode = 0;
    cfg.costs.fab_decode = 0;
    let (mut fab, mut df) = setup_with(cfg, 8, DispatchMode::Remote);
    let rf = fab.run_closed_loop(1, SECOND, &mut df);
    assert_eq!(rl.chains, rf.chains);
    assert_eq!(rl.ios, rf.ios);
    assert_eq!(
        rl.mean_latency().to_bits(),
        rf.mean_latency().to_bits(),
        "zero-latency fabric must not perturb timing"
    );
    assert_eq!(rf.trace.fabric_wire, 0);
}

#[test]
fn remote_dispatch_pays_a_round_trip_per_dependent_hop() {
    const ONE_WAY: Nanos = 50_000;
    const HOPS: u64 = 8;
    let (mut local, mut dl) =
        setup_with(MachineConfig::default(), HOPS as usize, DispatchMode::User);
    let rl = local.run_closed_loop(1, SECOND, &mut dl);
    let (mut fab, mut df) = setup_with(fabric_cfg(ONE_WAY), HOPS as usize, DispatchMode::Remote);
    let rf = fab.run_closed_loop(1, SECOND, &mut df);
    let added = rf.mean_latency() - rl.mean_latency();
    let rtt = (2 * ONE_WAY) as f64;
    assert!(
        added >= HOPS as f64 * rtt * 0.999,
        "every dependent hop crosses the fabric: added {added} < {HOPS} RTTs"
    );
    assert!(
        added <= HOPS as f64 * rtt + 60_000.0,
        "remote baseline should add little beyond the wire: {added}"
    );
    // One command capsule and one response capsule per hop.
    let stats = rf.fabric;
    assert_eq!(stats.capsules_sent, rf.ios);
    assert_eq!(stats.responses, rf.ios);
    assert_eq!(stats.target_local, 0);
    assert_eq!(rf.trace.fabric_wire, 2 * ONE_WAY * rf.ios);
}

#[test]
fn pushdown_over_fabric_pays_one_round_trip_per_chain() {
    const ONE_WAY: Nanos = 50_000;
    const HOPS: usize = 8;
    let (mut local, mut dl) = setup_with(MachineConfig::default(), HOPS, DispatchMode::DriverHook);
    let rl = local.run_closed_loop(1, SECOND, &mut dl);
    let (mut pd, mut dp) = setup_with(fabric_cfg(ONE_WAY), HOPS, DispatchMode::DriverHook);
    let rp = pd.run_closed_loop(1, SECOND, &mut dp);
    // The offloaded result is still byte-correct after crossing back.
    for o in &dp.outcomes {
        match &o.status {
            ChainStatus::Emitted(v) => {
                assert_eq!(
                    u64::from_le_bytes(v[..8].try_into().expect("8B")),
                    0xABAD_1DEA_F00D_CAFE
                );
            }
            other => panic!("pushdown chain failed: {other:?}"),
        }
    }
    let added = rp.mean_latency() - rl.mean_latency();
    let rtt = (2 * ONE_WAY) as f64;
    assert!(
        added >= rtt * 0.999,
        "the chain crosses at least once: added {added}"
    );
    assert!(
        added <= 1.5 * rtt,
        "dependent hops must stay target-side: added {added} vs one RTT {rtt}"
    );
    // One command capsule in, (HOPS-1) target-local recycles, one
    // response capsule out — per chain.
    let chains = rp.chains;
    let stats = rp.fabric;
    assert_eq!(stats.capsules_sent, chains);
    assert_eq!(stats.responses, chains);
    assert_eq!(stats.target_local, (HOPS as u64 - 1) * chains);

    // And the BPF-oF headline: the no-pushdown remote baseline is
    // O(depth) RTTs slower than pushdown on the same fabric.
    let (mut nopd, mut dn) = setup_with(fabric_cfg(ONE_WAY), HOPS, DispatchMode::Remote);
    let rn = nopd.run_closed_loop(1, SECOND, &mut dn);
    assert!(
        rn.mean_latency() - rp.mean_latency() >= (HOPS as f64 - 1.0) * rtt * 0.999,
        "pushdown must elide {} of {} round trips",
        HOPS - 1,
        HOPS
    );
}

#[test]
fn fabric_capsule_window_backpressures_and_recovers() {
    // A window of 2 capsules under an 8-deep ring: uring keeps 8 SQEs
    // in flight, so submissions stall on the window, park, and retry —
    // every chain still completes exactly once.
    let mut cfg = fabric_cfg(10_000);
    if let TransportConfig::Fabric(fc) = &mut cfg.transport {
        fc.inflight_cap = 2;
    }
    let (mut m, mut d) = setup_with(cfg, 4, DispatchMode::Remote);
    d.max_chains = 24;
    let report = m.run_uring(1, 8, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 24);
    assert!(d.outcomes.iter().all(|o| o.status.is_ok()));
    assert_eq!(report.errors, 0);
    assert!(
        report.fabric.capsule_stalls > 0,
        "the 2-capsule window must bind under 8 in-flight SQEs"
    );
    assert!(report.fabric.max_inflight <= 2);
}

#[test]
fn write_flush_chase_meters_the_fairness_budget() {
    // resubmit_bound 1 permits no kernel-side dependent resubmission:
    // the fsync flush chase (data CQEs → flush barrier) must trip it.
    let cfg = MachineConfig {
        resubmit_bound: 1,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg);
    let ino = m
        .create_file("wal.db", &[0u8; 4 * SECTOR_SIZE])
        .expect("create");
    let err = m
        .write_file(ino, 0, &vec![7u8; SECTOR_SIZE], true)
        .expect_err("fsync write chains a dependent flush");
    assert!(
        format!("{err}").contains("BoundExceeded"),
        "wrong failure: {err}"
    );
    // A data-only write has no dependent hop and still completes...
    m.write_file(ino, 0, &vec![8u8; SECTOR_SIZE], false)
        .expect("no chase, no bound");
    // ...and a pure fsync's barrier is the chain's first device op,
    // not a resubmission.
    m.write_file(ino, 0, &[], true)
        .expect("pure fsync is hop 0");
}

#[test]
fn write_chains_count_in_resubmission_accounting() {
    struct FsyncWriter {
        fd: Fd,
        left: u32,
    }
    impl ChainDriver for FsyncWriter {
        fn mode(&self) -> DispatchMode {
            DispatchMode::User
        }
        fn next_op(
            &mut self,
            _thread: usize,
            _rng: &mut SimRng,
        ) -> Option<bpfstor_kernel::ChainSpec> {
            if self.left == 0 {
                return None;
            }
            self.left -= 1;
            Some(bpfstor_kernel::ChainSpec::Write(
                bpfstor_kernel::WriteStart {
                    fd: self.fd,
                    file_off: 0,
                    data: vec![3u8; SECTOR_SIZE],
                    fsync: true,
                    arg: 0,
                },
            ))
        }
    }
    let mut m = Machine::new(MachineConfig::default());
    m.create_file("wal.db", &[0u8; 4 * SECTOR_SIZE])
        .expect("create");
    let fd = m.open("wal.db", true).expect("open");
    let mut d = FsyncWriter { fd, left: 3 };
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(report.chains, 3);
    assert_eq!(report.errors, 0);
    assert_eq!(
        report.resubmissions, 3,
        "each fsync write's flush chase is one metered resubmission"
    );
    assert_eq!(m.resubmission_accounting(), &[3]);
}

#[test]
fn irq_charge_lands_on_the_owning_core() {
    let run = |affinity: Vec<usize>| -> (Nanos, u64) {
        let mut cfg = MachineConfig {
            cores: 2,
            ..MachineConfig::default()
        };
        // Make the interrupt charge dominate so placement is visible.
        cfg.costs.irq_entry = 50_000;
        cfg.qp_affinity = Some(affinity);
        let mut m = Machine::new(cfg);
        m.create_file("chain.db", &chain_file(1)).expect("create");
        let fd = m.open("chain.db", true).expect("open");
        let mut d = ChaseDriver::new(fd, DispatchMode::User, 20);
        let r = m.run_closed_loop(1, SECOND, &mut d);
        (m.core_busy_ns(1), r.trace.irqs)
    };
    let (busy1_pinned, irqs) = run(vec![1, 1]);
    assert!(irqs >= 20, "one interrupt per uncoalesced chain");
    assert!(
        busy1_pinned >= irqs * 50_000,
        "pinned interrupts must land on core 1: busy {busy1_pinned}, irqs {irqs}"
    );
    let (busy1_away, irqs_away) = run(vec![0, 0]);
    assert!(
        busy1_away < irqs_away * 50_000,
        "with affinity on core 0, core 1 sees only incidental work: busy {busy1_away}"
    );
    // The default mapping is the identity qp→core layout.
    let m = Machine::new(MachineConfig::default());
    assert_eq!(m.qp_core(0), Some(0));
    assert_eq!(m.qp_core(5), Some(5));
    assert_eq!(m.qp_core(99), None);
}

#[test]
fn buffered_pushdown_never_warms_the_host_cache_with_target_data() {
    // Regression: a target-resident completion's data never reached the
    // host, so it must not populate the host page cache — otherwise a
    // later chain "hits" locally and skips its command capsule, an
    // impossible traffic pattern.
    let cfg = fabric_cfg(10_000);
    let mut m = Machine::new(cfg);
    m.create_file("chain.db", &chain_file(4)).expect("create");
    let fd = m.open("chain.db", false).expect("buffered open");
    m.install(fd, chase_program(), 0).expect("install");
    let mut d = ChaseDriver::new(fd, DispatchMode::DriverHook, 3);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 3);
    assert!(d.outcomes.iter().all(|o| o.status.is_ok()));
    assert_eq!(
        report.fabric.capsules_sent, 3,
        "every chain must cross the wire exactly once"
    );
    assert_eq!(report.fabric.responses, 3);
}

#[test]
fn write_pushdown_crosses_once_and_commits_on_the_target() {
    // Write pushdown: the data capsule crosses once (carrying its
    // payload), the fsync flush chase recycles target-side, and only
    // the commit acknowledgement returns. The no-pushdown path pays a
    // full round trip per phase.
    const ONE_WAY: Nanos = 20_000;
    const WRITES: u64 = 8;
    // 512 B of in-capsule payload at the 320 ns/KiB default link rate.
    const SER: Nanos = SECTOR_SIZE as u64 * 320 / 1024;
    let run = |mode: DispatchMode| {
        let mut m = Machine::new(fabric_cfg(ONE_WAY));
        m.create_file("wal.db", &[]).expect("create");
        let fd = m.open("wal.db", true).expect("open");
        let mut d = WriteDriver::with_mode(fd, SECTOR_SIZE, WRITES, 1, mode);
        let r = m.run_closed_loop(1, SECOND, &mut d);
        assert_eq!(d.outcomes.len(), WRITES as usize);
        for o in &d.outcomes {
            assert!(
                matches!(o.status, ChainStatus::Written(n) if n as usize == SECTOR_SIZE),
                "unexpected status {:?}",
                o.status
            );
        }
        assert_eq!(r.errors, 0);
        r
    };
    let pd = run(DispatchMode::DriverHook);
    // Per chain: one data capsule in, the flush recycled target-side,
    // one commit-ack capsule out.
    assert_eq!(pd.fabric.capsules_sent, WRITES);
    assert_eq!(
        pd.fabric.target_local, WRITES,
        "flush chases stay target-side"
    );
    assert_eq!(pd.fabric.responses, WRITES);
    assert_eq!(
        pd.fabric.bytes_tx,
        WRITES * (64 + SECTOR_SIZE as u64),
        "write capsules haul their payload"
    );
    assert_eq!(
        pd.trace.fabric_wire,
        WRITES * (2 * ONE_WAY + SER),
        "one serialized round trip per chain"
    );
    // §4 metering still sees the flush chase as a dependent
    // resubmission even though it never crossed the wire.
    assert_eq!(pd.resubmissions, WRITES);
    assert_eq!(pd.fabric_initiators.len(), 1);
    assert_eq!(pd.fabric_initiators[0].capsules_sent, WRITES);
    // No-pushdown: both the data phase and the flush barrier pay the
    // full round trip.
    let host = run(DispatchMode::User);
    assert_eq!(host.fabric.target_local, 0);
    assert_eq!(host.fabric.capsules_sent, 2 * WRITES);
    assert_eq!(
        host.trace.fabric_wire,
        WRITES * (4 * ONE_WAY + SER),
        "two round trips per chain without pushdown"
    );
    assert!(
        pd.write_latency.mean() < host.write_latency.mean(),
        "pushdown elides a round trip per fsync write: {} vs {}",
        pd.write_latency.mean(),
        host.write_latency.mean()
    );
}

#[test]
fn grouped_barrier_acks_pushdown_fsyncs_with_one_capsule() {
    // Under group commit, one shared flush barrier releases many
    // pushdown fsyncs — and ONE response capsule acks them all.
    const WRITERS: usize = 8;
    const WRITES: u64 = 24;
    let mut cfg = fabric_cfg(20_000);
    cfg.commit_policy = CommitPolicy::Group {
        max_wait_us: 50,
        max_handles: 8,
    };
    let mut m = Machine::new(cfg);
    m.create_file("wal.db", &[]).expect("create");
    let fd = m.open("wal.db", true).expect("open");
    let mut d = WriteDriver::with_mode(fd, SECTOR_SIZE, WRITES, 1, DispatchMode::DriverHook);
    let r = m.run_closed_loop(WRITERS, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), WRITES as usize);
    assert!(d.outcomes.iter().all(|o| o.status.is_ok()));
    assert_eq!(r.errors, 0);
    assert_eq!(r.commit.fsyncs, WRITES, "every write fsynced");
    assert!(
        r.commit.commits < WRITES,
        "concurrent fsyncs must share barriers: {} commits",
        r.commit.commits
    );
    // Every chain's data phase crossed once; each shared barrier came
    // back as exactly one acknowledgement capsule.
    assert_eq!(r.fabric.capsules_sent, WRITES);
    assert_eq!(
        r.fabric.responses, r.commit.commits,
        "one return capsule per barrier, not per fsync"
    );
    assert_eq!(
        r.fabric.target_local, r.commit.commits,
        "one target-side flush per barrier"
    );
}

// --- Completion reaping: polled, adaptive, hybrid ------------------------------

/// Runs 64 single-block chains through a 16-deep uring under `mode`.
fn run_reap_mode(mode: ReapMode, batch: u32) -> (Machine, bpfstor_kernel::RunReport) {
    let cfg = MachineConfig {
        reap_mode: mode,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg);
    m.create_file("chain.db", &chain_file(1)).expect("create");
    let fd = m.open("chain.db", true).expect("open");
    let mut d = ChaseDriver::new(fd, DispatchMode::User, 64);
    let report = m.run_uring(1, batch, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 64, "all chains complete");
    assert!(d.outcomes.iter().all(|o| o.status.is_ok()));
    assert_eq!(report.errors, 0);
    (m, report)
}

#[test]
fn polled_mode_reaps_without_interrupts() {
    let (_, polled) = run_reap_mode(ReapMode::Polled(PollConfig::default()), 16);
    assert_eq!(polled.trace.irqs, 0, "a polled stack never takes an IRQ");
    assert_eq!(polled.reaper.irqs, 0);
    assert!(polled.trace.polls > 0, "the poller visited the CQ");
    assert_eq!(polled.reaper.polls, polled.trace.polls);
    assert!(
        polled.device.empty_polls > 0,
        "a ~3.2us device serviced by a 250ns poller burns idle visits"
    );
    assert_eq!(
        polled.reaper.empty_polls, polled.device.empty_polls,
        "kernel and device agree on the idle-poll count"
    );
    assert_eq!(
        polled.trace.poll, polled.reaper.poll_cpu_ns,
        "every poll visit's CPU lands in the poll bucket"
    );
    assert_eq!(polled.reaper.cpu_split(), (1.0, 0.0));
    // Same completions as the interrupt path, delivered by polling.
    let (_, irq) = run_reap_mode(ReapMode::Interrupt, 16);
    assert_eq!(polled.device.cqes, irq.device.cqes);
    assert_eq!(irq.device.empty_polls, 0, "interrupt mode never polls");
    assert!(
        polled.cpu_util > irq.cpu_util,
        "polling burns CPU the interrupt path does not: {} vs {}",
        polled.cpu_util,
        irq.cpu_util
    );
}

#[test]
fn polled_reaps_promptly_while_coalesced_interrupts_defer() {
    // The reap-latency stat makes the trade visible: a polled CQ drains
    // within one poll interval of posting, while an 8us coalescing
    // budget holds CQEs back waiting for the aggregation threshold.
    let (_, polled) = run_reap_mode(ReapMode::Polled(PollConfig { interval_ns: 250 }), 16);
    let cfg = MachineConfig {
        irq_coalesce_us: 8,
        irq_coalesce_depth: 16,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg);
    m.create_file("chain.db", &chain_file(1)).expect("create");
    let fd = m.open("chain.db", true).expect("open");
    let mut d = ChaseDriver::new(fd, DispatchMode::User, 64);
    let coalesced = m.run_uring(1, 16, SECOND, &mut d);
    let lag =
        |r: &bpfstor_kernel::RunReport| r.device.reap_lag_ns as f64 / r.device.cqes.max(1) as f64;
    assert!(
        lag(&polled) < lag(&coalesced),
        "polling must reap sooner than a deep coalescing budget: {} vs {}",
        lag(&polled),
        lag(&coalesced)
    );
}

#[test]
fn adaptive_coalescing_widens_depth_under_load() {
    let (_, adaptive) = run_reap_mode(ReapMode::AdaptiveIrq(AdaptiveIrqConfig::default()), 16);
    let (_, fixed) = run_reap_mode(ReapMode::Interrupt, 16);
    assert!(
        adaptive.reaper.depth_hwm > 1,
        "a 16-deep uring stream must widen the threshold past 1, got {}",
        adaptive.reaper.depth_hwm
    );
    assert!(adaptive.reaper.depth_widens > 0);
    assert_eq!(adaptive.device.cqes, fixed.device.cqes, "same completions");
    assert!(
        adaptive.trace.irqs < fixed.trace.irqs,
        "rate feedback must aggregate CQEs per interrupt: {} vs {}",
        adaptive.trace.irqs,
        fixed.trace.irqs
    );
}

#[test]
fn adaptive_depth_narrows_back_on_a_light_stream() {
    // One chain in flight at a time: the controller must sit at (or
    // fall back to) immediate delivery — no CQE ever waits on a
    // threshold that cannot fill.
    let (_, light) = run_reap_mode(ReapMode::AdaptiveIrq(AdaptiveIrqConfig::default()), 1);
    assert_eq!(
        light.trace.irqs, light.device.cqes,
        "closed-loop depth 1 delivers one interrupt per completion"
    );
}

#[test]
fn hybrid_switches_to_polling_under_load_and_stays_interrupt_when_light() {
    let (m, heavy) = run_reap_mode(ReapMode::Hybrid(HybridConfig::default()), 32);
    assert!(
        heavy.reaper.mode_transitions >= 1,
        "32 SQEs in flight must trip the high watermark"
    );
    assert_eq!(
        heavy.reaper.transitions[0].to,
        ReapKind::Polled,
        "the first switch under load is interrupt -> polled"
    );
    assert_eq!(
        heavy.reaper.mode_transitions as usize,
        heavy.reaper.transitions.len(),
        "the timeline logs every switch"
    );
    assert!(heavy.reaper.polls > 0, "the poller ran after the switch");
    drop(m);
    let (_, light) = run_reap_mode(ReapMode::Hybrid(HybridConfig::default()), 1);
    assert_eq!(
        light.reaper.mode_transitions, 0,
        "a single chain in flight never leaves interrupt mode"
    );
    assert_eq!(light.reaper.polls, 0);
    assert_eq!(light.trace.irqs, light.device.cqes);
}

#[test]
fn backlog_high_watermark_reflects_delivery_policy() {
    // Per-completion interrupts drain the CQ at every CQE, so the
    // high watermark pins at 1; a deep coalescing budget lets the
    // backlog pile up to the aggregation threshold before the reap.
    let run = |us: u64, depth: u32| {
        let cfg = MachineConfig {
            irq_coalesce_us: us,
            irq_coalesce_depth: depth,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg);
        m.create_file("chain.db", &chain_file(1)).expect("create");
        let fd = m.open("chain.db", true).expect("open");
        let mut d = ChaseDriver::new(fd, DispatchMode::User, 64);
        let report = m.run_uring(1, 32, SECOND, &mut d);
        assert_eq!(report.errors, 0);
        report
    };
    let immediate = run(0, 1);
    let coalesced = run(8, 16);
    assert_eq!(immediate.device.cq_backlog_hwm, 1);
    assert!(
        coalesced.device.cq_backlog_hwm > immediate.device.cq_backlog_hwm,
        "a held-back CQ posts a deeper backlog: {} vs {}",
        coalesced.device.cq_backlog_hwm,
        immediate.device.cq_backlog_hwm
    );
    assert!(
        coalesced.device.reap_lag_ns / coalesced.device.cqes.max(1)
            > immediate.device.reap_lag_ns / immediate.device.cqes.max(1),
        "held-back completions wait longer between doorbell and reap"
    );
}

#[test]
fn resubmission_bound_is_per_tenant() {
    // Two tenants share the machine, one deep pointer chase each on its
    // own thread. Tenant B carries a §4 override of 2 dependent
    // submissions; the machine default (64) covers tenant A. B's chain
    // must abort with BoundExceeded without charging — or aborting —
    // A's chain, and the (tenant, thread) accounting matrix must keep
    // the two ledgers apart.
    struct PerTenantChase {
        fds: [Fd; 2],
        issued: [bool; 2],
        outcomes: Vec<ChainOutcome>,
    }
    impl ChainDriver for PerTenantChase {
        fn mode(&self) -> DispatchMode {
            DispatchMode::DriverHook
        }
        fn next_op(&mut self, thread: usize, _rng: &mut SimRng) -> Option<ChainSpec> {
            if self.issued[thread] {
                return None;
            }
            self.issued[thread] = true;
            Some(ChainSpec::Read(ChainStart {
                fd: self.fds[thread],
                file_off: 0,
                len: SECTOR_SIZE as u32,
                arg: 0,
            }))
        }
        fn user_step(&mut self, _thread: usize, _token: &ChainToken, _data: &[u8]) -> UserNext {
            UserNext::Done
        }
        fn chain_done(&mut self, _thread: usize, outcome: &ChainOutcome) -> ChainVerdict {
            self.outcomes.push(outcome.clone());
            ChainVerdict::Done
        }
    }

    let cfg = MachineConfig {
        resubmit_bound: 64,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg);
    m.create_file("a.db", &chain_file(8)).expect("create a");
    m.create_file("b.db", &chain_file(8)).expect("create b");
    let fd_a = m.open("a.db", true).expect("open a");
    let tenant_b = m.register_tenant(TenantLimits {
        resubmit_bound: Some(2),
        ..TenantLimits::default()
    });
    let fd_b = m.open_for(tenant_b, "b.db", true).expect("open b");
    m.install(fd_a, chase_program(), 0).expect("install a");
    m.install(fd_b, chase_program(), 0).expect("install b");

    let mut d = PerTenantChase {
        fds: [fd_a, fd_b],
        issued: [false; 2],
        outcomes: Vec::new(),
    };
    let report = m.run_closed_loop(2, SECOND, &mut d);

    assert_eq!(d.outcomes.len(), 2);
    for o in &d.outcomes {
        match o.token.tenant {
            DEFAULT_TENANT => assert!(
                o.status.is_ok(),
                "tenant A's 8-hop chase fits the default bound: {:?}",
                o.status
            ),
            t if t == tenant_b => assert_eq!(
                o.status,
                ChainStatus::BoundExceeded,
                "tenant B's override of 2 must trip on the same workload"
            ),
            t => panic!("unexpected tenant {t}"),
        }
    }
    // A full chase resubmits hops-1 = 7 times on thread 0; B is cut off
    // after its single allowed resubmission on thread 1. Each tenant's
    // row only extends to the highest thread that charged it.
    assert_eq!(m.resubmission_accounting_for(DEFAULT_TENANT), &[7]);
    assert_eq!(m.resubmission_accounting_for(tenant_b), &[0, 1]);
    // The per-thread view every §4 test predates still sums the tenants.
    assert_eq!(m.resubmission_accounting(), &[7, 1]);
    assert_eq!(report.tenants[DEFAULT_TENANT as usize].resubmissions, 7);
    assert_eq!(report.tenants[tenant_b as usize].resubmissions, 1);
    assert_eq!(report.tenants[tenant_b as usize].errors, 1);
    assert_eq!(report.tenants[DEFAULT_TENANT as usize].errors, 0);
}

#[test]
fn every_report_aggregate_is_the_sum_of_its_tenants() {
    // Two tenants, mixed work: the default tenant chases a 6-block
    // chain under a §4 bound of 4 (every chain ends BoundExceeded after
    // three recycled hops); tenant B fsyncs every write from four
    // threads into shared group-commit barriers.
    struct Mixed {
        reader: ChaseDriver,
        writer: WriteDriver,
    }
    impl ChainDriver for Mixed {
        fn mode(&self) -> DispatchMode {
            DispatchMode::DriverHook
        }
        fn next_op(
            &mut self,
            thread: usize,
            rng: &mut SimRng,
        ) -> Option<bpfstor_kernel::ChainSpec> {
            match thread {
                0 => self.reader.next_op(thread, rng),
                _ => self.writer.next_op(thread, rng),
            }
        }
        fn chain_done(&mut self, _thread: usize, _outcome: &ChainOutcome) -> ChainVerdict {
            ChainVerdict::Done
        }
    }

    let mut m = Machine::new(MachineConfig {
        commit_policy: CommitPolicy::Group {
            max_wait_us: 30,
            max_handles: 2,
        },
        ..MachineConfig::default()
    });
    m.set_tenant_limits(
        DEFAULT_TENANT,
        TenantLimits {
            resubmit_bound: Some(4),
            ..TenantLimits::default()
        },
    );
    let tenant_b = m.register_tenant(TenantLimits::weighted(2));
    m.create_file("chain.db", &chain_file(6)).expect("create");
    m.create_file("wal.db", &[]).expect("create");
    let rfd = m.open("chain.db", true).expect("open");
    let wfd = m.open_for(tenant_b, "wal.db", true).expect("open");
    m.install(rfd, chase_program(), 0).expect("install");
    let mut d = Mixed {
        reader: ChaseDriver::new(rfd, DispatchMode::DriverHook, 12),
        writer: WriteDriver::new(wfd, SECTOR_SIZE, 40, 1),
    };
    let report = m.run_closed_loop(5, SECOND, &mut d);

    let sum = |f: fn(&bpfstor_kernel::TenantBreakdown) -> u64| -> u64 {
        report.tenants.iter().map(f).sum()
    };
    assert_eq!(report.tenants.len(), 2);
    assert_eq!(report.chains, sum(|t| t.chains));
    assert_eq!(report.errors, sum(|t| t.errors));
    assert_eq!(report.ios, sum(|t| t.ios));
    assert_eq!(report.trace.ios, sum(|t| t.ios));
    assert_eq!(
        report.trace.write_ios,
        sum(|t| t.dev_writes + t.dev_flushes)
    );
    assert_eq!(report.ios, sum(|t| t.dev_reads) + report.trace.write_ios);
    assert_eq!(report.trace.device, sum(|t| t.device_ns));
    assert_eq!(report.device.cqes, sum(|t| t.cqes));
    assert_eq!(report.resubmissions, sum(|t| t.resubmissions));
    assert_eq!(report.commit.fsyncs, sum(|t| t.fsyncs));
    assert_eq!(report.commit.barrier_joins, sum(|t| t.barrier_joins));
    assert_eq!(report.latency.count(), sum(|t| t.latency.count()));
    assert_eq!(
        report.fsync_latency.count(),
        sum(|t| t.fsync_latency.count())
    );
    let mut exec = bpfstor_kernel::ExecSplit::default();
    for t in &report.tenants {
        exec.absorb(&t.exec);
    }
    assert_eq!(report.exec, exec);
    // The run moved every one of those counters, on both tenants where
    // both can: nothing above is 0 == 0.
    assert_eq!((report.chains, report.errors), (12 + 40, 12));
    assert_eq!(report.resubmissions, 12 * 3 + 40);
    assert_eq!(report.commit.fsyncs, 40);
    assert!(report.commit.barrier_joins > 0, "some fsync rode a barrier");
    assert_eq!(report.exec.hops(), 12 * 4);
    assert!(report
        .tenants
        .iter()
        .all(|t| t.chains > 0 && t.cqes > 0 && t.device_ns > 0));
    assert!(
        report.trace.write_ios > 40,
        "data writes plus shared flushes"
    );
}
