// --- Programs: admission, budgets, engines, handles, tokens, rearm-retry -------

#[test]
fn vm_error_surfaces_as_chain_error() {
    // A program that claims RESUBMIT without calling the helper.
    let mut a = Asm::new();
    a.mov64_imm(0, action::ACT_RESUBMIT as i32).exit();
    let prog = Program::new(a.finish().expect("assembles"));
    let (mut m, fd) = machine_with(MachineConfig::default(), "f", &chain_file(2), Some(prog));
    let mut d = chase(fd, DispatchMode::DriverHook, 1);
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
    let (mut m, fd0) = machine_with(
        MachineConfig::default(),
        "chain.db",
        &chain_file(8),
        Some(chase_program()),
    );
    let tenant = m
        .register_tenant(TenantLimits::default())
        .expect("weight 1");
    let fd = m.open_for(tenant, "chain.db").expect("open");
    m.install(fd, chase_program(), 0)
        .expect("install under permissive limits");
    let limits = TenantLimits {
        insn_budget: Some(30),
        ..TenantLimits::default()
    };
    m.set_tenant_limits(tenant, limits).expect("registered");
    let mut d = chase(fd, DispatchMode::DriverHook, 1);
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
    let mut d0 = chase(fd0, DispatchMode::DriverHook, 1);
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
    let budgeted = |insn_budget: u64| {
        let cfg = MachineConfig {
            resubmit_bound: 1,
            ..MachineConfig::default()
        };
        let (mut m, _) = machine_with(cfg, "chain.db", &chain_file(2), None);
        let limits = TenantLimits {
            insn_budget: Some(insn_budget),
            ..TenantLimits::default()
        };
        let tenant = m.register_tenant(limits).expect("weight 1");
        let fd = m.open_for(tenant, "chain.db").expect("open");
        (m, fd)
    };

    // What the verifier admits at its own figure runs within it: every
    // chain takes the long arm (hop 0) and completes.
    let (mut m, fd) = budgeted(max_path);
    m.install(fd, prog.clone(), 0)
        .expect("the verified worst case fits the budget");
    let mut d = chase(fd, DispatchMode::DriverHook, 4);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    let statuses: Vec<&ChainStatus> = d.outcomes.iter().map(|o| &o.status).collect();
    assert_eq!(report.errors, 0, "{statuses:?}");
    assert_eq!(statuses.len(), 4);
    assert!(
        statuses.iter().all(|s| matches!(s, ChainStatus::Pass(_))),
        "{statuses:?}"
    );

    // One instruction less and it is rejected at install.
    let (mut m, fd) = budgeted(max_path - 1);
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
        let cfg = MachineConfig {
            exec_engine: engine,
            ..MachineConfig::default()
        };
        let (mut m, mut d) = setup_with(cfg, 8, DispatchMode::DriverHook);
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
    let (mut m, fd) = machine_with(MachineConfig::default(), "f", &chain_file(1), None);
    let err = m.install(fd, prog, 0).unwrap_err();
    assert!(matches!(err, KernelError::Verifier(_)));

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

/// A trivial program that halts every chain immediately; it declares
/// one 8-byte array slot it never touches.
fn halt_program() -> Program {
    let mut a = Asm::new();
    a.mov64_imm(0, action::ACT_HALT as i32).exit();
    Program::with_maps(a.finish().expect("assembles"), vec![MapSpec::array(8, 1)])
}

#[test]
fn a_reinstall_replaces_the_program_and_its_maps() {
    let (mut m, fd) = machine_with(MachineConfig::default(), "chain.db", &chain_file(4), None);
    let run = |m: &mut Machine, fd: Fd| {
        let mut d = chase(fd, DispatchMode::DriverHook, 1);
        let _ = m.run_closed_loop(1, SECOND, &mut d);
        d.outcomes[0].status.clone()
    };
    let key = 0u32.to_le_bytes();

    // Each install replaces the program at the hook, maps and all:
    // chase, then halt, then chase again.
    m.install(fd, chase_program(), 0).expect("install chase");
    m.install(fd, halt_program(), 0).expect("install halt");
    assert_eq!(run(&mut m, fd), ChainStatus::Halted);
    assert_eq!(m.map_value(fd, 0, &key), Some(vec![0; 8]), "halt's map");
    m.install(fd, chase_program(), 0).expect("reinstall chase");
    let status = run(&mut m, fd);
    assert!(matches!(status, ChainStatus::Emitted(_)), "{status:?}");
    assert_eq!(m.map_value(fd, 0, &key), None, "halt's map went with it");

    // A rejected install keeps the previous program.
    let mut a = Asm::new();
    a.ldx(Width::DW, 2, 1, ctx_off::DATA)
        .ldx(Width::B, 0, 2, 0) // unchecked data access
        .exit();
    let unchecked = Program::new(a.finish().expect("assembles"));
    let err = m.install(fd, unchecked, 0).unwrap_err();
    assert!(matches!(err, KernelError::Verifier(_)), "{err:?}");
    let status = run(&mut m, fd);
    assert!(matches!(status, ChainStatus::Emitted(_)), "{status:?}");

    // A descriptor nothing was installed on: a hook chain ends in a VM
    // error, and there is nothing to re-arm.
    let bare = m.open("chain.db", true).expect("open");
    let no_program = ChainStatus::VmError("no program attached".to_string());
    assert_eq!(run(&mut m, bare), no_program);
    assert_eq!(m.rearm(bare), Err(KernelError::NotInstalled));
}

#[test]
fn chain_tokens_are_unique_and_carry_the_argument() {
    // Many chains in flight at once (uring, batch 4), several with the
    // same argument: every outcome still has a distinct token id.
    let (mut m, mut d) = setup(4, DispatchMode::DriverHook);
    // Arguments repeat across chains.
    d.next = |s, issued, _, _| (issued < 12).then(|| read(s.fd, 0, s.len, (issued + 1) % 3));
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
    let (mut m, mut d) = setup(8, DispatchMode::DriverHook);
    d.state.count = 6;
    // Every rearmable failure is answered with the kernel-assisted
    // rearm-and-retry protocol, up to a budget of three attempts.
    d.done = |_, outcome| {
        if outcome.status.is_rearmable() && outcome.attempts < 3 {
            ChainVerdict::RearmRetry
        } else {
            ChainVerdict::Done
        }
    };
    // Relocate the file while chains are in flight: the §4 invalidation.
    m.schedule_relocation(50_000, "chain.db");
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 6, "all logical chains complete");
    assert!(
        d.outcomes.iter().all(|o| o.status.is_ok()),
        "retries absorb the invalidation: {:?}",
        d.outcomes.iter().map(|o| &o.status).collect::<Vec<_>>()
    );
    assert!(
        report.rearm_retries > 0,
        "the run actually exercised the retry path"
    );
    assert!(
        d.outcomes.iter().any(|o| o.attempts > 0),
        "some chain carries a non-zero attempt count"
    );
    assert_eq!(report.errors, 0, "absorbed attempts are not errors");
    assert_eq!(report.chains, 6, "retried attempts not double-counted");
}
