// --- VM: encode/decode ---------------------------------------------------------

proptest! {
    #[test]
    fn insn_wire_roundtrip(
        ops in proptest::collection::vec((0u8..=255, 0u8..=10, 0u8..=10, any::<i16>(), any::<i32>()), 1..50)
    ) {
        // Wide opcodes need a pair; filter them out of the random stream
        // and append a canonical pair to still exercise that path.
        let mut insns: Vec<Insn> = ops
            .into_iter()
            .map(|(op, dst, src, off, imm)| Insn::new(op, dst, src, off, imm))
            .filter(|i| i.op != bpfstor::vm::insn::OP_LD_IMM64 && i.op != 0)
            .collect();
        let [lo, hi] = Insn::ld_imm64(3, 0xDEAD_BEEF_0BAD_F00D);
        insns.push(lo);
        insns.push(hi);
        let bytes = encode(&insns);
        let back = decode(&bytes).expect("roundtrip");
        prop_assert_eq!(back, insns);
    }
}

// --- VM: ALU semantics vs a reference evaluator ---------------------------------

#[derive(Debug, Clone)]
enum AluOp {
    AddImm(i32),
    SubImm(i32),
    MulImm(i32),
    DivImm(i32),
    AndImm(i32),
    OrImm(i32),
    XorImm(i32),
    Lsh(u8),
    Rsh(u8),
    Arsh(u8),
    Neg,
}

fn alu_strategy() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        any::<i32>().prop_map(AluOp::AddImm),
        any::<i32>().prop_map(AluOp::SubImm),
        any::<i32>().prop_map(AluOp::MulImm),
        any::<i32>().prop_map(AluOp::DivImm),
        any::<i32>().prop_map(AluOp::AndImm),
        any::<i32>().prop_map(AluOp::OrImm),
        any::<i32>().prop_map(AluOp::XorImm),
        (0u8..64).prop_map(AluOp::Lsh),
        (0u8..64).prop_map(AluOp::Rsh),
        (0u8..64).prop_map(AluOp::Arsh),
        Just(AluOp::Neg),
    ]
}

fn reference_eval(start: u64, ops: &[AluOp]) -> u64 {
    let mut v = start;
    for op in ops {
        v = match op {
            AluOp::AddImm(i) => v.wrapping_add(*i as i64 as u64),
            AluOp::SubImm(i) => v.wrapping_sub(*i as i64 as u64),
            AluOp::MulImm(i) => v.wrapping_mul(*i as i64 as u64),
            AluOp::DivImm(i) => v.checked_div(*i as i64 as u64).unwrap_or(0),
            AluOp::AndImm(i) => v & (*i as i64 as u64),
            AluOp::OrImm(i) => v | (*i as i64 as u64),
            AluOp::XorImm(i) => v ^ (*i as i64 as u64),
            AluOp::Lsh(s) => v.wrapping_shl(*s as u32),
            AluOp::Rsh(s) => v.wrapping_shr(*s as u32),
            AluOp::Arsh(s) => ((v as i64).wrapping_shr(*s as u32)) as u64,
            AluOp::Neg => (v as i64).wrapping_neg() as u64,
        };
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn alu_matches_reference(
        start in any::<u64>(),
        ops in proptest::collection::vec(alu_strategy(), 0..24)
    ) {
        let mut a = Asm::new();
        a.ld_imm64(0, start);
        for op in &ops {
            match op {
                AluOp::AddImm(i) => a.add64_imm(0, *i),
                AluOp::SubImm(i) => a.sub64_imm(0, *i),
                AluOp::MulImm(i) => a.mul64_imm(0, *i),
                AluOp::DivImm(i) => a.div64_imm(0, *i),
                AluOp::AndImm(i) => a.and64_imm(0, *i),
                AluOp::OrImm(i) => a.or64_imm(0, *i),
                AluOp::XorImm(i) => a.xor64_imm(0, *i),
                AluOp::Lsh(s) => a.lsh64_imm(0, *s as i32),
                AluOp::Rsh(s) => a.rsh64_imm(0, *s as i32),
                AluOp::Arsh(s) => a.arsh64_imm(0, *s as i32),
                AluOp::Neg => a.neg64(0),
            };
        }
        a.exit();
        let prog = Program::new(a.finish().expect("assembles"));
        let mut maps = MapSet::instantiate(&prog.maps).expect("maps");
        let mut env = RecordingEnv::default();
        let mut scratch = [0u8; 8];
        let out = Vm::new()
            .run(
                &prog,
                RunCtx { data: &[], file_off: 0, hop: 0, flags: 0, scratch: &mut scratch },
                &mut maps,
                &mut env,
            )
            .expect("straight-line ALU programs never trap");
        prop_assert_eq!(out.ret, reference_eval(start, &ops));
    }
}

// --- Verifier soundness: accepted programs never trap ----------------------------

/// The generator is only worth its properties if the verifier admits
/// a fair share of what it draws, and the memory and helper fragments
/// with it.
#[test]
fn arb_program_mostly_verifies() {
    use proptest::test_runner::TestRng;
    let strategy = arb_program();
    let mut rng = TestRng::for_test("arb_program_mostly_verifies");
    let (mut accepted, mut with_helper, mut with_loop) = (0, 0, 0);
    for _ in 0..256 {
        let prog = strategy.generate(&mut rng);
        if verify(&prog).is_ok() {
            accepted += 1;
            let is_jmp = |i: &Insn| i.op & 0x07 == bpfstor::vm::insn::CLS_JMP;
            with_helper += prog
                .insns
                .iter()
                .any(|i| is_jmp(i) && i.op & 0xf0 == bpfstor::vm::insn::JMP_CALL)
                as u32;
            with_loop += prog.insns.iter().any(|i| is_jmp(i) && i.off < 0) as u32;
        }
    }
    assert!(
        accepted >= 64 && with_helper >= 16 && with_loop >= 16,
        "of 256 programs {accepted} verified, {with_helper} of them with a helper call, \
         {with_loop} with a loop"
    );
}

/// What one invocation reads besides its scratch.
#[derive(Clone, Copy)]
struct Inputs<'a> {
    data: &'a [u8],
    file_off: u64,
    hop: u32,
    flags: u32,
}

/// Runs `prog` on the interpreter and, compiled, on the compiled
/// engine, over the same inputs, the same initial `scratch` and fresh
/// maps; asserts that nothing observable tells the two apart and
/// returns what both did, leaving what both wrote in `scratch`.
fn run_on_both_engines(
    prog: &Program,
    compiled: &CompiledProg,
    budget: u64,
    inputs: Inputs<'_>,
    scratch: &mut [u8; SCRATCH_SIZE],
) -> (Result<RunOutcome, Trap>, RecordingEnv) {
    let Inputs {
        data,
        file_off,
        hop,
        flags,
    } = inputs;
    let mut maps_i = MapSet::instantiate(&prog.maps).expect("maps");
    let mut maps_c = MapSet::instantiate(&prog.maps).expect("maps");
    let mut env_i = RecordingEnv::default();
    let mut env_c = RecordingEnv::default();
    let mut scratch_c = *scratch;
    let ri = Vm::with_budget(budget).run(
        prog,
        RunCtx {
            data,
            file_off,
            hop,
            flags,
            scratch,
        },
        &mut maps_i,
        &mut env_i,
    );
    let rc = compiled.run_budgeted(
        budget,
        RunCtx {
            data,
            file_off,
            hop,
            flags,
            scratch: &mut scratch_c,
        },
        &mut maps_c,
        &mut env_c,
    );
    // Return value, retired-instruction count (so simulated cost
    // charging is engine-independent), helper calls, or the trap.
    assert_eq!(&ri, &rc, "outcome");
    assert_eq!(&scratch[..], &scratch_c[..], "scratch effects");
    assert_eq!(&env_i.resubmits, &env_c.resubmits, "resubmits");
    assert_eq!(&env_i.emitted, &env_c.emitted, "emitted");
    assert_eq!(&env_i.traces, &env_c.traces, "traces");
    for (id, spec) in prog.maps.iter().enumerate() {
        for key in 0u64..4 {
            let key = &key.to_le_bytes()[..spec.key_size as usize];
            let vi = maps_i.lookup(id as u32, key).map(|v| v.map(|v| v.to_vec()));
            let vc = maps_c.lookup(id as u32, key).map(|v| v.map(|v| v.to_vec()));
            assert_eq!(vi, vc, "map {} after the run", id);
        }
    }
    (ri, env_i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn verified_programs_never_trap(
        prog in arb_program(),
        data in proptest::collection::vec(any::<u8>(), 0..64),
        file_off in any::<u64>(),
        hop in any::<u32>(),
    ) {
        if verify(&prog).is_ok() {
            let mut maps = MapSet::instantiate(&prog.maps).expect("maps");
            let mut env = RecordingEnv::default();
            let mut scratch = [0u8; 256];
            let result = Vm::new().run(
                &prog,
                RunCtx { data: &data, file_off, hop, flags: 0, scratch: &mut scratch },
                &mut maps,
                &mut env,
            );
            prop_assert!(
                !matches!(
                    result,
                    Err(Trap::OutOfBounds { .. })
                        | Err(Trap::WriteToReadOnly { .. })
                        | Err(Trap::IllegalInsn { .. })
                        | Err(Trap::BadJump { .. })
                        | Err(Trap::FellThrough)
                ),
                "verified program trapped: {result:?}"
            );
        }
    }

    /// `max_path` is what a tenant's instruction budget is checked
    /// against at install, so it has to bound every run: given exactly
    /// that budget, neither engine retires more or runs out, on any
    /// input. (The property above runs under the default budget and
    /// cannot see this.)
    #[test]
    fn verified_programs_fit_their_verified_path(
        prog in arb_program(),
        data in proptest::collection::vec(any::<u8>(), 0..64),
        file_off in any::<u64>(),
        hop in any::<u32>(),
    ) {
        if let Ok(stats) = verify(&prog) {
            let max_path = stats.max_path as u64;
            let compiled = compile(&prog).expect("verified programs always compile");
            let inputs = Inputs { data: &data, file_off, hop, flags: 0 };
            let (result, _) = run_on_both_engines(
                &prog, &compiled, max_path, inputs, &mut [0u8; SCRATCH_SIZE],
            );
            prop_assert!(
                !matches!(result, Err(Trap::BudgetExceeded)),
                "ran past its verified longest path of {max_path}"
            );
        }
    }
}

// --- Engine differential: compiled execution is observationally identical --------

/// Wild instruction streams: any opcode byte, in-range registers, any
/// offset and immediate.
fn wild_insns(len: impl Into<proptest::collection::SizeRange>) -> impl Strategy<Value = Vec<Insn>> {
    let slot = (0u8..=255, 0u8..11, 0u8..11, any::<i16>(), any::<i32>());
    proptest::collection::vec(slot, len).prop_map(|slots| {
        let insn = |(op, dst, src, off, imm)| Insn::new(op, dst, src, off, imm);
        slots.into_iter().map(insn).collect()
    })
}

/// Every verified program must compile, and the compiled engine must
/// be observationally identical to the interpreter: same return value,
/// same retired-instruction count (so simulated cost charging is
/// engine-independent), same helper effects, same scratch bytes, same
/// map contents, same traps. Over a generator that can reach where the
/// two accept sets used to differ: `arb_program()` with up to three
/// wild slots spliced in anywhere, after the last `exit` included
/// (`arb_program()` alone never draws a malformed slot), and wild
/// streams on their own.
#[test]
fn every_verified_program_compiles() {
    use proptest::test_runner::TestRng;
    let wild_at = (wild_insns(0..4), any::<u64>());
    let spliced = (arb_program(), wild_at).prop_map(|(mut prog, (wild, at))| {
        let spliced = !wild.is_empty();
        for (i, insn) in wild.into_iter().enumerate() {
            let at = (at >> (16 * i)) as usize % (prog.insns.len() + 1);
            prog.insns.insert(at, insn);
        }
        (prog, spliced)
    });
    let stream = wild_insns(1..24).prop_map(|insns| (Program::new(insns), true));
    let programs = prop_oneof![3 => spliced, 1 => stream];
    let inputs = (
        proptest::collection::vec(any::<u8>(), 0..64),
        any::<u64>(),
        any::<u32>(),
    );
    let mut rng = TestRng::for_test("every_verified_program_compiles");
    let (cases, mut verified, mut verified_wild, mut structural) = (2048, 0, 0, 0);
    for _ in 0..cases {
        let (prog, wild) = programs.generate(&mut rng);
        let (data, file_off, hop) = inputs.generate(&mut rng);
        match (verify(&prog), compile(&prog)) {
            (Ok(_), Err(e)) => panic!("verified, and compile declines it: {e}\n{prog:?}"),
            (Ok(_), Ok(compiled)) => {
                verified += 1;
                verified_wild += wild as u32;
                let inputs = Inputs {
                    data: &data,
                    file_off,
                    hop,
                    flags: 0,
                };
                let mut scratch = [0u8; SCRATCH_SIZE];
                let _ = run_on_both_engines(
                    &prog,
                    &compiled,
                    DEFAULT_INSN_BUDGET,
                    inputs,
                    &mut scratch,
                );
            }
            // What `compile` declines, `verify` rejected for that reason.
            (Err(v), Err(c)) => {
                structural += 1;
                assert_eq!(v, c, "{prog:?}");
            }
            (Err(_), Ok(_)) => {}
        }
    }
    println!(
        "of {cases} programs {verified} verified, {verified_wild} of them with a wild slot; \
         {structural} were structurally illegal"
    );
    assert!(verified >= 128 && verified_wild > 0 && structural >= 128);
}

/// A helper call whose pointer argument starts up to sixteen bytes
/// before the end of one of the five regions, with a length from
/// nothing to `i64::MAX`: the byte-at-a-time copy these arguments used
/// to go through allocated the length up front.
fn helper_argument_program() -> impl Strategy<Value = Program> {
    let len = prop_oneof![
        Just(0u64),
        Just(1u64),
        0u64..20,
        Just(u32::MAX as u64),
        Just(i64::MAX as u64),
    ];
    (0usize..5, 0i32..17, len, 0usize..3).prop_map(|(region, back, len, which)| {
        let mut a = Asm::new();
        // r6 = one past the region's last byte (for the block, whose
        // length varies, that is `data_end`).
        match region {
            0 => a.mov64_reg(6, 1).add64_imm(6, ctx_off::SIZE as i32),
            1 => a.ldx(Width::DW, 6, 1, ctx_off::DATA_END),
            2 => a.ldx(Width::DW, 6, 1, ctx_off::SCRATCH_END),
            3 => a.mov64_reg(6, 10),
            _ => a
                .st_imm(Width::W, 10, -4, 1)
                .mov64_imm(1, 0)
                .mov64_reg(2, 10)
                .add64_imm(2, -4)
                .call(helper::MAP_LOOKUP)
                .mov64_reg(6, 0)
                .add64_imm(6, 16),
        };
        a.add64_imm(6, -back);
        match which {
            0 => a.mov64_reg(1, 6).ld_imm64(2, len).call(helper::EMIT),
            1 => a.mov64_imm(1, 1).mov64_reg(2, 6).call(helper::MAP_LOOKUP),
            _ => a
                .mov64_imm(1, 1)
                .mov64_reg(2, 6)
                .mov64_reg(3, 6)
                .add64_imm(3, -8)
                .call(helper::MAP_UPDATE),
        };
        a.mov64_imm(0, 0).exit();
        Program::with_maps(a.finish().expect("assembles"), arb_maps())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Unverified programs, usually trap-inducing — wild instruction
    /// streams, and helper calls with hostile pointer arguments: when
    /// the compiler accepts one, both engines must produce the same
    /// result — including the same runtime trap at the same budget.
    /// When the compiler declines (as the verifier would have), the
    /// interpreter must still run it without panicking.
    #[test]
    fn unverified_programs_trap_identically_or_fall_back(
        prog in prop_oneof![
            wild_insns(1..24).prop_map(Program::new),
            helper_argument_program(),
        ],
        data in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        const BUDGET: u64 = 10_000;
        match compile(&prog) {
            Ok(compiled) => {
                let inputs = Inputs { data: &data, file_off: 0, hop: 0, flags: 0 };
                let _ = run_on_both_engines(
                    &prog, &compiled, BUDGET, inputs, &mut [0u8; SCRATCH_SIZE],
                );
            }
            Err(_) => {
                // Declined: the interpreter must still return.
                let mut scratch = [0u8; 256];
                let _ = Vm::with_budget(BUDGET).run(
                    &prog,
                    RunCtx { data: &data, file_off: 0, hop: 0, flags: 0, scratch: &mut scratch },
                    &mut MapSet::instantiate(&prog.maps).expect("maps"),
                    &mut RecordingEnv::default(),
                );
            }
        }
    }
}

/// The in-tree programs over the images their workloads build: every
/// hop of every chain retires the same instructions — no more than the
/// verifier's longest path — calls the same helpers and leaves the same
/// scratch and the same output on both engines, and the chain ends in
/// the output the workload expects.
fn engines_agree_on<W: PushdownWorkload<Request = u64>>(mut workload: W, requests: &[u64]) {
    let image = workload.build_image().expect("image builds");
    let prog = workload.program();
    let max_path = verify(&prog).expect("in-tree programs verify").max_path as u64;
    let compiled = compile(&prog).expect("verified programs compile");
    let flags = workload.install_flags();
    let name = workload.name().to_string();
    let (mut hops, mut emits) = (0u64, 0u64);
    for req in requests {
        let first = workload.first_read(req);
        let len = first.len as usize;
        let mut off = first.file_off;
        let mut scratch = [0u8; SCRATCH_SIZE];
        scratch[..8].copy_from_slice(&first.arg.to_le_bytes());
        for hop in 0.. {
            let inputs = Inputs {
                data: &image[off as usize..off as usize + len],
                file_off: off,
                hop,
                flags,
            };
            let what = format!("{name}: request {req}, hop {hop}");
            let (out, env) =
                run_on_both_engines(&prog, &compiled, DEFAULT_INSN_BUDGET, inputs, &mut scratch);
            let out = out.unwrap_or_else(|t| panic!("{what}: {t}"));
            assert!(out.insns <= max_path, "{what}: {} > {max_path}", out.insns);
            hops += 1;
            match out.ret {
                action::ACT_RESUBMIT => off = env.resubmits[0],
                action::ACT_EMIT => {
                    emits += 1;
                    assert!(!env.emitted.is_empty(), "{what}: emitted nothing");
                    break;
                }
                action::ACT_HALT => break,
                other => panic!("{what}: action {other}"),
            }
        }
    }
    assert!(
        hops > requests.len() as u64 && emits > 0,
        "{name}: {hops} hops and {emits} hits over {} requests",
        requests.len()
    );
}

#[test]
fn in_tree_programs_run_identically_on_both_engines() {
    let tree = Btree::depth(4);
    let nkeys = tree.nkeys();
    let keys: Vec<u64> = (0..48)
        .map(|i| i * 7919 % nkeys)
        .chain([nkeys, u64::MAX])
        .collect();
    engines_agree_on(tree, &keys);

    let row = |first: u64, len: usize| {
        let mut v = vec![0u8; len];
        v[..8].copy_from_slice(&first.to_le_bytes());
        v
    };
    // Hits (multiples of 3), misses between keys and past the last one.
    let probes: Vec<u64> = (0..50u64).map(|i| i * 41 % 2_000).collect();
    engines_agree_on(Sst::new(kv_entries(600), Vec::new()), &probes);

    engines_agree_on(Chase::hops(8), &[0, 3 * BLOCK as u64]);

    let rows: Vec<(u64, Vec<u8>)> = (0..400u64)
        .map(|i| (i, row(i.wrapping_mul(2654435761) % 10_000, 24)))
        .collect();
    engines_agree_on(Scan::new(rows, Vec::new()), &[0, 5_000, 20_000]);
}
