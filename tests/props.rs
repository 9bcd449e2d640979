//! Property-based tests over the core data structures and, most
//! importantly, the verifier's soundness contract: **a program the
//! verifier accepts never traps at runtime**.

use proptest::prelude::*;

use bpfstor::btree::tree::{build_pages, lookup, step_on_page, Step};
use bpfstor::btree::{Node, FANOUT_MAX};
use bpfstor::core::{
    btree_lookup_program, sst_get_program, value_of, Btree, Chase, PushdownWorkload, Scan, Sst,
};
use bpfstor::device::{SectorStore, SECTOR_SIZE};
use bpfstor::fs::alloc::{Run, GROUP_BLOCKS};
use bpfstor::fs::{BlockAllocator, ExtFs, Extent, ExtentTree, JournalRecord};
use bpfstor::lsm::sstable::{
    build_image, data_block_entries, data_block_search, index_block_search, ColdGet, ColdStep,
    Footer, SST_MAGIC,
};
use bpfstor::lsm::BLOCK;
use bpfstor::sim::Histogram;
use bpfstor::vm::insn::{decode, encode, Insn};
use bpfstor::vm::{
    action, compile, helper, verify, Asm, CompiledProg, MapSet, Program, RecordingEnv, RunCtx,
    RunOutcome, Trap, Vm, Width, DEFAULT_INSN_BUDGET, SCRATCH_SIZE,
};

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

#[path = "../crates/vm/tests/arb/mod.rs"]
mod arb;
use arb::{arb_maps, arb_program};

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
    use bpfstor::vm::ctx_off;
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
    let table: Vec<(u64, Vec<u8>)> = (0..600u64).map(|i| (i * 3, row(i * 31, 48))).collect();
    // Hits (multiples of 3), misses between keys and past the last one.
    let probes: Vec<u64> = (0..50u64).map(|i| i * 41 % 2_000).collect();
    engines_agree_on(Sst::new(table, Vec::new()), &probes);

    engines_agree_on(Chase::hops(8), &[0, 3 * BLOCK as u64]);

    let rows: Vec<(u64, Vec<u8>)> = (0..400u64)
        .map(|i| (i, row(i.wrapping_mul(2654435761) % 10_000, 24)))
        .collect();
    engines_agree_on(Scan::new(rows, Vec::new()), &[0, 5_000, 20_000]);
}

// --- B-tree: BPF program equals the native oracle --------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn bpf_btree_step_matches_native(
        raw_keys in proptest::collection::btree_set(0u64..1_000_000, 1..(FANOUT_MAX + 1)),
        level in 0u8..4,
        probe in 0u64..1_100_000,
    ) {
        let keys: Vec<u64> = raw_keys.into_iter().collect();
        let slots: Vec<u64> = (0..keys.len() as u64).map(|i| i + 5).collect();
        let page = Node::new(level, keys, slots).encode();
        let native = step_on_page(&page, probe).expect("native");

        let prog = btree_lookup_program();
        let mut maps = MapSet::instantiate(&prog.maps).expect("maps");
        let mut env = RecordingEnv::default();
        let mut scratch = [0u8; 256];
        scratch[..8].copy_from_slice(&probe.to_le_bytes());
        let out = Vm::new()
            .run(
                &prog,
                RunCtx { data: &page, file_off: 0, hop: 0, flags: 0, scratch: &mut scratch },
                &mut maps,
                &mut env,
            )
            .expect("program never traps on valid pages");
        match native {
            Step::Next(off) => {
                prop_assert_eq!(out.ret, action::ACT_RESUBMIT);
                prop_assert_eq!(env.resubmits, vec![off]);
            }
            Step::Found(v) => {
                prop_assert_eq!(out.ret, action::ACT_EMIT);
                prop_assert_eq!(env.emitted, v.to_le_bytes().to_vec());
            }
            Step::Missing => prop_assert_eq!(out.ret, action::ACT_HALT),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn btree_lookup_matches_btreemap(
        raw_keys in proptest::collection::btree_set(0u64..100_000, 2..400),
        fanout in 2usize..16,
        probes in proptest::collection::vec(0u64..110_000, 20),
    ) {
        let keys: Vec<u64> = raw_keys.iter().copied().collect();
        let values: Vec<u64> = keys.iter().map(|k| value_of(*k)).collect();
        let reference: std::collections::BTreeMap<u64, u64> =
            keys.iter().copied().zip(values.iter().copied()).collect();
        let (mut pages, info) = build_pages(&keys, &values, fanout).expect("build");
        for probe in probes {
            let (got, reads) =
                lookup(&mut pages, info.root_block, info.depth, probe).expect("lookup");
            prop_assert_eq!(got, reference.get(&probe).copied());
            prop_assert_eq!(reads, info.depth);
        }
    }
}

// --- Extent tree invariants --------------------------------------------------------

proptest! {
    #[test]
    fn extent_tree_insert_remove_invariants(
        ops in proptest::collection::vec((0u64..256, 1u64..16, any::<bool>()), 1..60)
    ) {
        let mut tree = ExtentTree::new();
        let mut mapped = std::collections::BTreeMap::new(); // logical -> physical
        let mut next_phys = 10_000u64;
        for (lb, len, remove) in ops {
            if remove {
                tree.remove_range(lb, len);
                for b in lb..lb + len {
                    mapped.remove(&b);
                }
            } else {
                // Only insert blocks not currently mapped (the FS layer
                // guarantees this; overlapping inserts panic by design).
                for b in lb..lb + len {
                    if let std::collections::btree_map::Entry::Vacant(e) = mapped.entry(b) {
                        tree.insert(Extent { logical: b, physical: next_phys, len: 1 });
                        e.insert(next_phys);
                        next_phys += 2; // non-adjacent so merges stay rare
                    }
                }
            }
            // The tree agrees with the reference on every mapped block.
            prop_assert_eq!(tree.mapped_blocks(), mapped.len() as u64);
            for (b, p) in &mapped {
                let got = tree.lookup(*b).map(|(phys, _)| phys);
                prop_assert_eq!(got, Some(*p));
            }
        }
    }
}

// --- FS vs reference model -----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn fs_matches_reference_model(
        ops in proptest::collection::vec(
            (0usize..3, 0u64..4, 0u64..50_000, proptest::collection::vec(any::<u8>(), 1..600)),
            1..40
        )
    ) {
        let mut fs = ExtFs::mkfs(1 << 16);
        let mut store = bpfstor::device::SectorStore::new();
        let mut reference: std::collections::HashMap<String, Vec<u8>> =
            std::collections::HashMap::new();
        for (op, file_idx, off, data) in ops {
            let name = format!("f{file_idx}");
            match op {
                // Write (creating on demand).
                0 => {
                    let ino = match fs.open(&name) {
                        Ok(i) => i,
                        Err(_) => fs.create(&name).expect("create"),
                    };
                    fs.write(ino, off, &data, &mut store).expect("write");
                    let entry = reference.entry(name).or_default();
                    let end = off as usize + data.len();
                    if entry.len() < end {
                        entry.resize(end, 0);
                    }
                    entry[off as usize..end].copy_from_slice(&data);
                }
                // Truncate.
                1 => {
                    if let Ok(ino) = fs.open(&name) {
                        let new_size = off % 4_096;
                        fs.truncate(ino, new_size, &mut store).expect("truncate");
                        if let Some(entry) = reference.get_mut(&name) {
                            entry.truncate(new_size as usize);
                        }
                    }
                }
                // Unlink.
                _ => {
                    if fs.open(&name).is_ok() {
                        fs.unlink(&name).expect("unlink");
                        reference.remove(&name);
                    }
                }
            }
            // Full-content comparison for every live file.
            for (name, expect) in &reference {
                let ino = fs.open(name).expect("exists");
                prop_assert_eq!(fs.file_size(ino).expect("size"), expect.len() as u64);
                let got = fs.read(ino, 0, expect.len(), &mut store).expect("read");
                prop_assert_eq!(&got, expect);
            }
        }
    }
}

// --- SSTable roundtrip ------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn sstable_roundtrip(
        raw in proptest::collection::btree_map(0u64..1_000_000, proptest::collection::vec(any::<u8>(), 1..120), 1..300)
    ) {
        let entries: Vec<(u64, Vec<u8>)> = raw.into_iter().collect();
        let image = build_image(&entries).expect("build");
        prop_assert_eq!(image.len() % BLOCK, 0);
        let footer = Footer::decode(&image[image.len() - BLOCK..]).expect("footer");
        prop_assert_eq!(footer.nkeys, entries.len() as u64);
        // Reassemble every entry from the data blocks, in order.
        let mut all = Vec::new();
        for b in 0..footer.data_blocks as usize {
            all.extend(data_block_entries(&image[b * BLOCK..(b + 1) * BLOCK]).expect("block"));
        }
        prop_assert_eq!(all, entries);
    }
}

// --- SSTable cold get: BPF chain equals the native stepper ---------------------------------

/// Follows one cold get over `image`, footer first: the offsets read,
/// and the value if the key is present. `hop` is handed each block with
/// its hop number and offset, and says what the walker under test does
/// next.
fn walk_cold_get(
    image: &[u8],
    mut hop: impl FnMut(u32, u64, &[u8]) -> ColdStep,
) -> (Vec<u64>, Option<Vec<u8>>) {
    let mut visited = vec![(image.len() - BLOCK) as u64];
    loop {
        let off = *visited.last().expect("starts at the footer");
        let block = &image[off as usize..off as usize + BLOCK];
        match hop(visited.len() as u32 - 1, off, block) {
            ColdStep::Read(next) => visited.push(next),
            ColdStep::Done(found) => return (visited, found),
        }
        assert!(visited.len() <= image.len() / BLOCK, "runaway chain");
    }
}

/// One hop of the get as the kernel runs it: `prog` on the interpreter
/// over one block, the scratch area carried between hops.
fn bpf_hop(
    prog: &Program,
    scratch: &mut [u8; SCRATCH_SIZE],
    hop: u32,
    off: u64,
    data: &[u8],
) -> ColdStep {
    let mut maps = MapSet::instantiate(&prog.maps).expect("maps");
    let mut env = RecordingEnv::default();
    let ctx = RunCtx {
        data,
        file_off: off,
        hop,
        flags: 0,
        scratch,
    };
    let out = Vm::new()
        .run(prog, ctx, &mut maps, &mut env)
        .expect("never traps on a well-formed table");
    match out.ret {
        action::ACT_RESUBMIT => ColdStep::Read(env.resubmits[0]),
        action::ACT_EMIT => ColdStep::Done(Some(env.emitted)),
        action::ACT_HALT => ColdStep::Done(None),
        other => panic!("hop {hop} at {off}: action {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Hop for hop, on tables of one to ~29 index blocks: present keys,
    /// keys absent between two present ones, keys outside the table's
    /// range, and both sides of every index-block boundary — the keys
    /// the candidate carried across index blocks decides.
    #[test]
    fn bpf_sst_get_matches_native(
        n in 1u64..=1_200,
        value_size in 1usize..=255,
        base in 0u64..1_000,
        stride in 1u64..5,
        draws in proptest::collection::vec(any::<u64>(), 16),
    ) {
        let entries: Vec<(u64, Vec<u8>)> = (0..n)
            .map(|i| (base + i * stride, vec![(i % 251) as u8 + 1; value_size]))
            .collect();
        let image = build_image(&entries).expect("build");
        let footer = Footer::decode(&image[image.len() - BLOCK..]).expect("footer");
        let prog = sst_get_program(value_size as u32);

        // Entries one index block covers: 42 twelve-byte index entries,
        // each a data block of as many entries as fit.
        let per_index_block = (BLOCK - 2) / 12 * ((BLOCK - 2) / (10 + value_size));
        prop_assert_eq!(footer.index_blocks as usize, entries.len().div_ceil(per_index_block));
        let boundaries = (per_index_block..entries.len())
            .step_by(per_index_block)
            .flat_map(|first| [entries[first - 1].0, entries[first].0]);
        let past_the_end = base + n * stride + 50;
        let probes: Vec<u64> = draws
            .iter()
            .map(|d| d % past_the_end)
            .chain(boundaries)
            .chain([base, base + (n - 1) * stride, past_the_end])
            .collect();
        for key in probes {
            let mut stage = ColdGet::Footer;
            let native = walk_cold_get(&image, |_, _, block| stage.step(key, block));
            let expected = entries
                .binary_search_by_key(&key, |(k, _)| *k)
                .ok()
                .map(|i| entries[i].1.clone());
            prop_assert_eq!(&native.1, &expected, "native result, key {}", key);
            let mut scratch = [0u8; SCRATCH_SIZE];
            scratch[..8].copy_from_slice(&key.to_le_bytes());
            let bpf = walk_cold_get(&image, |hop, off, block| {
                bpf_hop(&prog, &mut scratch, hop, off, block)
            });
            prop_assert_eq!(bpf, native, "key {}", key);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Whatever a block holds — and however short it is — every stage of
    /// the cold get and every checked search returns; none panics. The
    /// shapes steer random bytes past the first check: a plausible
    /// entry count, or a footer's magic.
    #[test]
    fn sst_readers_never_panic_on_arbitrary_blocks(
        mut block in proptest::collection::vec(any::<u8>(), 0..=BLOCK),
        shape in 0u8..3,
        count in 0u16..64,
        key in any::<u64>(),
        remaining in 0u32..4,
        candidate in 0u64..3,
    ) {
        match shape {
            1 if block.len() >= 2 => block[..2].copy_from_slice(&count.to_le_bytes()),
            2 if block.len() >= 4 => block[..4].copy_from_slice(&SST_MAGIC.to_le_bytes()),
            _ => {}
        }
        let index = ColdGet::Index {
            remaining,
            cursor: BLOCK as u64,
            candidate: candidate.checked_sub(1).map(|b| b * BLOCK as u64),
        };
        for mut stage in [ColdGet::Footer, index, ColdGet::Data] {
            if let ColdStep::Read(next) = stage.step(key, &block) {
                prop_assert_eq!(next % BLOCK as u64, 0);
                prop_assert_ne!(stage, ColdGet::Footer);
            }
        }
        let found = data_block_search(&block, key);
        prop_assert_eq!(ColdGet::Data.step(key, &block), ColdStep::Done(found.ok().flatten()));
        if let Ok(entries) = data_block_entries(&block) {
            prop_assert!(entries.len() <= block.len() / 10);
        }
        let _ = index_block_search(&block, key);
    }
}

// --- Histogram quantiles vs exact reference -----------------------------------------------

proptest! {
    #[test]
    fn histogram_quantiles_are_accurate(
        mut values in proptest::collection::vec(1u64..10_000_000, 100..2_000)
    ) {
        let mut h = Histogram::new();
        for v in &values {
            h.record(*v);
        }
        values.sort_unstable();
        for q in [0.1f64, 0.5, 0.9, 0.99] {
            // Sound property for arbitrary data: the estimate must fall
            // between nearby exact order statistics (rank tolerance ±2,
            // covering ceil/floor conventions), expanded by the ~6.5%
            // worst-case log-bucket width.
            let n = values.len();
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let lo_exact = values[rank.saturating_sub(3)] as f64;
            let hi_exact = values[(rank + 1).min(n - 1)] as f64;
            let approx = h.quantile(q) as f64;
            prop_assert!(
                approx >= lo_exact / 1.07 && approx <= hi_exact * 1.07,
                "q={q} approx={approx} window=[{lo_exact}, {hi_exact}]"
            );
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), values[0]);
        prop_assert_eq!(h.max(), values[values.len() - 1]);
    }
}

// --- Journal crash-consistency: every record-boundary crash recovers a prefix ----

/// One random metadata-plane operation.
#[derive(Debug, Clone)]
enum FsOp {
    Write { file: u8, block: u8, blocks: u8 },
    Truncate { file: u8, blocks: u8 },
    Unlink { file: u8 },
    Fallocate { file: u8, block: u8, blocks: u8 },
}

fn fs_op_strategy() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        5 => (0u8..3, 0u8..12, 1u8..5).prop_map(|(file, block, blocks)| FsOp::Write { file, block, blocks }),
        2 => (0u8..3, 0u8..8).prop_map(|(file, blocks)| FsOp::Truncate { file, blocks }),
        1 => (0u8..3).prop_map(|file| FsOp::Unlink { file }),
        2 => (0u8..3, 0u8..12, 1u8..5).prop_map(|(file, block, blocks)| FsOp::Fallocate { file, block, blocks }),
    ]
}

/// Everything journal replay must reproduce: directory, sizes, extents,
/// and the allocator's free-space accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FsMeta {
    files: Vec<(String, u64, u64, Vec<bpfstor::fs::Extent>)>,
    free: u64,
}

fn fs_meta(fs: &bpfstor::fs::ExtFs) -> FsMeta {
    let files = fs
        .readdir()
        .into_iter()
        .map(|(name, ino)| {
            (
                name,
                ino,
                fs.file_size(ino).expect("size"),
                fs.extents_snapshot(ino).expect("extents"),
            )
        })
        .collect();
    FsMeta {
        files,
        free: fs.free_blocks(),
    }
}

/// Applies `ops` from scratch, returning the fs plus the metadata
/// snapshot at every committed-transaction boundary (`snaps[t]` = state
/// after `t` transactions).
fn replay_ops(ops: &[FsOp]) -> (ExtFs, Vec<FsMeta>) {
    const NBLOCKS: u64 = 1 << 14;
    const BS: u64 = 512;
    let mut fs = ExtFs::mkfs(NBLOCKS);
    let mut store = bpfstor::device::SectorStore::new();
    let mut snaps = vec![fs_meta(&fs)];
    for op in ops {
        // Each arm commits AT MOST one transaction (a missing file costs
        // the op: it only creates), so txn boundaries line up with the
        // snapshots below.
        match op {
            FsOp::Write {
                file,
                block,
                blocks,
            } => {
                let name = format!("f{file}");
                match fs.open(&name) {
                    Ok(ino) => {
                        let data = vec![*block ^ *blocks; *blocks as usize * BS as usize];
                        let _ = fs.write(ino, *block as u64 * BS, &data, &mut store);
                    }
                    Err(_) => {
                        fs.create(&name).expect("create");
                    }
                }
            }
            FsOp::Truncate { file, blocks } => {
                if let Ok(ino) = fs.open(&format!("f{file}")) {
                    fs.truncate(ino, *blocks as u64 * BS, &mut store)
                        .expect("truncate");
                }
            }
            FsOp::Unlink { file } => {
                let name = format!("f{file}");
                if fs.open(&name).is_ok() {
                    fs.unlink(&name).expect("unlink");
                }
            }
            FsOp::Fallocate {
                file,
                block,
                blocks,
            } => {
                let name = format!("f{file}");
                match fs.open(&name) {
                    Ok(ino) => {
                        let _ = fs.fallocate(ino, *block as u64, *blocks as u64, &mut store);
                    }
                    Err(_) => {
                        fs.create(&name).expect("create");
                    }
                }
            }
        }
        let t = fs.journal().commit_points().len();
        // Ops always commit whole transactions; snapshot state at txn t.
        if t >= snaps.len() {
            snaps.resize(t + 1, fs_meta(&fs));
        }
        snaps[t] = fs_meta(&fs);
    }
    (fs, snaps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn journal_replay_after_any_crash_point_is_a_txn_prefix(
        ops in proptest::collection::vec(fs_op_strategy(), 1..18)
    ) {
        const NBLOCKS: u64 = 1 << 14;
        let (reference, snaps) = replay_ops(&ops);
        let total_records = reference.journal().len();
        let commit_points: Vec<usize> = reference.journal().commit_points().to_vec();
        prop_assert_eq!(
            total_records,
            *commit_points.last().unwrap_or(&0),
            "ops commit whole transactions; nothing dangles"
        );
        // Crash at EVERY record boundary: the recovered metadata must be
        // exactly the state after some prefix of committed transactions
        // — never a torn mix (e.g. a size without its extents).
        for k in 0..=total_records {
            let (crashed, _) = replay_ops(&ops);
            let recovered = crashed.crash_and_recover_at(NBLOCKS, k);
            let t = commit_points.iter().filter(|&&p| p <= k).count();
            prop_assert_eq!(
                fs_meta(&recovered),
                snaps[t].clone(),
                "crash after {} of {} records must recover exactly txn-prefix {}",
                k, total_records, t
            );
        }
    }
}

// --- Extent-granular write path vs the per-bit / per-sector / per-block code it replaced ---

/// The bit-at-a-time allocator `BlockAllocator` was before it went
/// word-at-a-time, kept verbatim as the placement oracle.
#[derive(Debug, Clone)]
struct BitAllocator {
    bits: Vec<bool>,
    used: u64,
}

impl BitAllocator {
    fn new(nblocks: u64) -> Self {
        BitAllocator {
            bits: vec![false; nblocks as usize],
            used: 0,
        }
    }

    fn nblocks(&self) -> u64 {
        self.bits.len() as u64
    }

    fn is_set(&self, b: u64) -> bool {
        self.bits[b as usize]
    }

    fn all_free(&self, start: u64, len: u64) -> bool {
        (start..start + len).all(|b| !self.is_set(b))
    }

    fn alloc(&mut self, want: u64, goal: u64) -> Option<Run> {
        if want == 0 || self.used == self.nblocks() {
            return None;
        }
        let goal = goal.min(self.nblocks().saturating_sub(1));
        if !self.is_set(goal) {
            let len = self.run_length_at(goal, want);
            return Some(self.take(goal, len));
        }
        let mut b = goal - goal % GROUP_BLOCKS;
        for _ in 0..self.nblocks() {
            if !self.is_set(b) {
                let len = self.run_length_at(b, want);
                return Some(self.take(b, len));
            }
            b += 1;
            if b == self.nblocks() {
                b = 0;
            }
        }
        None
    }

    fn run_length_at(&self, start: u64, want: u64) -> u64 {
        let mut len = 0;
        while len < want && start + len < self.nblocks() && !self.is_set(start + len) {
            len += 1;
        }
        len
    }

    fn take(&mut self, start: u64, len: u64) -> Run {
        self.reserve(start, len);
        Run { start, len }
    }

    fn release(&mut self, start: u64, len: u64) {
        for b in start..start + len {
            assert!(self.is_set(b), "double free of block {b}");
            self.bits[b as usize] = false;
        }
        self.used -= len;
    }

    fn reserve(&mut self, start: u64, len: u64) {
        for b in start..start + len {
            assert!(!self.is_set(b), "reserve of used block {b}");
            self.bits[b as usize] = true;
        }
        self.used += len;
    }

    fn free_fragments(&self) -> u64 {
        let mut frags = 0;
        let mut in_free = false;
        for &used in &self.bits {
            if !used && !in_free {
                frags += 1;
            }
            in_free = !used;
        }
        frags
    }
}

/// One to three block groups, word-aligned and not.
const ALLOC_SIZES: [u64; 10] = [
    1,
    63,
    64,
    65,
    200,
    GROUP_BLOCKS,
    GROUP_BLOCKS + 1,
    GROUP_BLOCKS + 70,
    2 * GROUP_BLOCKS + 33,
    3 * GROUP_BLOCKS,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn wordwise_allocator_matches_the_bitwise_one(
        size in 0usize..ALLOC_SIZES.len(),
        ops in proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..80)
    ) {
        let nblocks = ALLOC_SIZES[size];
        let mut word = BlockAllocator::new(nblocks);
        let mut bit = BitAllocator::new(nblocks);
        let mut live: Vec<Run> = Vec::new();
        for (kind, a, b) in ops {
            match kind {
                // Allocate: short runs, runs that can swallow a group
                // (so the device fills and pass 2 has to wrap), goals
                // anywhere up to past the end.
                0..=4 => {
                    let want = 1 + a % if kind < 3 { 40 } else { nblocks + 5 };
                    let goal = b % (nblocks + 200);
                    let got = word.alloc(want, goal);
                    prop_assert_eq!(got, bit.alloc(want, goal), "alloc({}, {})", want, goal);
                    live.extend(got);
                }
                // Release a random slice of a live run.
                5 | 6 => {
                    if live.is_empty() {
                        continue;
                    }
                    let run = live.swap_remove((a % live.len() as u64) as usize);
                    let skip = b % run.len;
                    let len = 1 + (b >> 32) % (run.len - skip);
                    word.release(run.start + skip, len);
                    bit.release(run.start + skip, len);
                    for (start, len) in [(run.start, skip), (run.start + skip + len, run.len - skip - len)] {
                        if len > 0 {
                            live.push(Run { start, len });
                        }
                    }
                }
                // Reserve (replay's path) wherever the range is free.
                _ => {
                    let start = a % nblocks;
                    let len = 1 + b % (nblocks - start).min(150);
                    if bit.all_free(start, len) {
                        word.reserve(start, len);
                        bit.reserve(start, len);
                        live.push(Run { start, len });
                    }
                }
            }
            prop_assert_eq!(word.used(), bit.used);
            prop_assert_eq!(word.free(), nblocks - bit.used);
            prop_assert_eq!(word.free_fragments(), bit.free_fragments());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn chunked_store_matches_the_per_sector_map(
        ops in proptest::collection::vec((0u8..4, 0u64..150, 1u32..50, any::<u8>()), 1..60)
    ) {
        // The oracle is the store as it was: one entry per written
        // sector, absent = zero. LBAs 0..200 cross a dozen chunk
        // boundaries and the longer ranges cover whole chunks.
        let mut store = SectorStore::new();
        let mut oracle: std::collections::HashMap<u64, [u8; SECTOR_SIZE]> =
            std::collections::HashMap::new();
        let expect = |oracle: &std::collections::HashMap<u64, [u8; SECTOR_SIZE]>, slba: u64, nlb: u32| {
            (slba..slba + u64::from(nlb))
                .flat_map(|lba| oracle.get(&lba).copied().unwrap_or([0; SECTOR_SIZE]))
                .collect::<Vec<u8>>()
        };
        for (kind, slba, nlb, fill) in ops {
            match kind {
                0 | 1 => {
                    let data: Vec<u8> = (0..nlb as usize * SECTOR_SIZE)
                        .map(|i| fill.wrapping_add((i / 7) as u8) | 1)
                        .collect();
                    store.write(slba, &data);
                    for (lba, sector) in (slba..).zip(data.chunks_exact(SECTOR_SIZE)) {
                        oracle.insert(lba, sector.try_into().expect("one sector"));
                    }
                }
                2 => {
                    store.discard(slba, nlb);
                    for lba in slba..slba + u64::from(nlb) {
                        oracle.remove(&lba);
                    }
                }
                _ => {
                    // A partial write framed by the stored edges.
                    let head = fill as usize * 2;
                    let src = vec![fill | 1; (nlb as usize * 37).min(3 * SECTOR_SIZE)];
                    let mut want = expect(&oracle, slba, ((head + src.len()).div_ceil(SECTOR_SIZE)) as u32);
                    want[head..head + src.len()].copy_from_slice(&src);
                    prop_assert_eq!(store.read_modify(slba, head, &src), want);
                }
            }
            // Every op is followed by reads around and across it.
            let from = slba.saturating_sub(3);
            let want = expect(&oracle, from, nlb + 6);
            prop_assert_eq!(store.read(from, nlb + 6), want.clone());
            let mut out = vec![0xEEu8; want.len()];
            store.read_into(from, &mut out);
            prop_assert_eq!(out, want);
        }
    }
}

/// The metadata half of the file system as it was when `write` and
/// `plan_write` mapped one block per `allocate_block` call: placement,
/// extent trees, generations, counters and sizes, over the bit-at-a-time
/// allocator. No journal — what the journal must replay to is the live
/// state itself.
struct BlockwiseFs {
    alloc: BitAllocator,
    files: Vec<BlockwiseFile>,
    stats: bpfstor::fs::FsStats,
}

#[derive(Default)]
struct BlockwiseFile {
    extents: ExtentTree,
    size: u64,
    generation: u64,
}

impl BlockwiseFs {
    fn allocate_block(&mut self, file: usize, lb: u64) -> Option<u64> {
        let f = &mut self.files[file];
        let goal = lb
            .checked_sub(1)
            .and_then(|prev| f.extents.lookup(prev))
            .map_or(0, |(p, _)| p + 1);
        let run = self.alloc.alloc(1, goal)?;
        f.extents.insert(Extent {
            logical: lb,
            physical: run.start,
            len: 1,
        });
        f.generation += 1;
        self.stats.extent_changes += 1;
        self.stats.blocks_allocated += 1;
        Some(run.start)
    }

    /// Maps `[lb, end)` a block at a time; returns the merged physical
    /// segments and whether the device had room for all of it.
    fn map_blocks(&mut self, file: usize, lb: u64, end: u64) -> (Vec<(u64, u64)>, bool) {
        let mut segments: Vec<(u64, u64)> = Vec::new();
        for lb in lb..end {
            let mapped = self.files[file].extents.lookup(lb).map(|(p, _)| p);
            let Some(phys) = mapped.or_else(|| self.allocate_block(file, lb)) else {
                return (segments, false);
            };
            match segments.last_mut() {
                Some((start, n)) if *start + *n == phys => *n += 1,
                _ => segments.push((phys, 1)),
            }
        }
        (segments, true)
    }

    fn truncate(&mut self, file: usize, new_size: u64) {
        let f = &mut self.files[file];
        let keep = new_size.div_ceil(512);
        let last = f.extents.iter().last().map_or(0, |e| e.logical_end());
        let removed = if last > keep {
            f.extents.remove_range(keep, last - keep)
        } else {
            Vec::new()
        };
        if !removed.is_empty() {
            f.generation += 1;
            self.stats.extent_changes += 1;
            self.stats.unmap_changes += 1;
        }
        for e in removed {
            self.alloc.release(e.physical, e.len);
            self.stats.blocks_freed += e.len;
        }
        f.size = f.size.min(new_size);
    }
}

/// One step of the write-path differential.
#[derive(Debug, Clone)]
enum WriteOp {
    /// `blocks` blocks at the file's end, `skip` blocks further on when
    /// leaving a hole, through entry point `via`.
    Append {
        file: usize,
        blocks: u64,
        skip: u64,
        via: u8,
    },
    /// Somewhere inside (or straddling the end of) the file, byte-
    /// unaligned when `delta != 0`.
    Overwrite {
        file: usize,
        at: u64,
        blocks: u64,
        delta: u64,
        via: u8,
    },
    /// Two back-to-back multi-block appends reaching the file system in
    /// swapped order — concurrent writers' submissions (the benchmark's
    /// `plan_write_ooo` shape).
    Swapped {
        file: usize,
        blocks: u64,
    },
    Truncate {
        file: usize,
        blocks: u64,
    },
}

fn write_op_strategy() -> impl Strategy<Value = WriteOp> {
    prop_oneof![
        4 => (0usize..3, 1u64..24, 0u64..4, 0u8..3)
            .prop_map(|(file, blocks, skip, via)| WriteOp::Append { file, blocks, skip: skip.saturating_sub(2), via }),
        3 => (0usize..3, 0u64..60, 1u64..16, 0u64..3, 0u8..3)
            .prop_map(|(file, at, blocks, delta, via)| WriteOp::Overwrite { file, at, blocks, delta: delta * 100, via }),
        2 => (0usize..3, 2u64..12).prop_map(|(file, blocks)| WriteOp::Swapped { file, blocks }),
        1 => (0usize..3, 0u64..40).prop_map(|(file, blocks)| WriteOp::Truncate { file, blocks }),
    ]
}

/// The file system and its block-at-a-time reference, driven in
/// lockstep.
struct Lockstep {
    nblocks: u64,
    fs: ExtFs,
    store: SectorStore,
    inos: Vec<u64>,
    reference: BlockwiseFs,
}

impl Lockstep {
    const BS: u64 = 512;

    /// Three empty files on one group small enough to fill, or on two
    /// with the first nearly full, so goals and first-fit scans cross
    /// the group boundary.
    fn new(two_groups: bool) -> Self {
        let nblocks = if two_groups { GROUP_BLOCKS + 400 } else { 300 };
        let mut fs = ExtFs::mkfs(nblocks);
        let inos = (0..3)
            .map(|i| fs.create(&format!("f{i}")).expect("create"))
            .collect();
        let mut both = Lockstep {
            nblocks,
            fs,
            store: SectorStore::new(),
            inos,
            reference: BlockwiseFs {
                alloc: BitAllocator::new(nblocks),
                files: (0..3).map(|_| BlockwiseFile::default()).collect(),
                stats: Default::default(),
            },
        };
        if two_groups {
            both.write_range(0, 0, (GROUP_BLOCKS - 60) * Self::BS, 2);
        }
        both
    }

    fn end_block(&self, file: usize) -> u64 {
        self.reference.files[file].size.div_ceil(Self::BS)
    }

    /// One byte range through `write` (0), `plan_write` (1) or
    /// `fallocate` (2), on both sides.
    fn write_range(&mut self, file: usize, off: u64, len: u64, via: u8) {
        let (lb, end) = (off / Self::BS, (off + len).div_ceil(Self::BS));
        let (segments, fit) = self.reference.map_blocks(file, lb, end);
        let covered: u64 = segments.iter().map(|s| s.1).sum();
        let (ino, store) = (self.inos[file], &mut self.store);
        let reached = match via {
            0 => {
                let got = self.fs.write(ino, off, &vec![7u8; len as usize], store);
                assert_eq!(got.is_ok(), fit);
                // A short write ends where the device filled up.
                Some(if fit {
                    off + len
                } else {
                    off.max((lb + covered) * Self::BS)
                })
            }
            1 => {
                let got = self.fs.plan_write(ino, off, len as usize, store);
                self.fs.commit_journal();
                assert_eq!(
                    got.as_ref().ok(),
                    fit.then_some(&segments),
                    "planned segments"
                );
                fit.then_some(off + len)
            }
            _ => {
                let got = self.fs.fallocate(ino, lb, end - lb, store);
                assert_eq!(got.is_ok(), fit);
                fit.then_some(end * Self::BS)
            }
        };
        let f = &mut self.reference.files[file];
        f.size = f.size.max(reached.unwrap_or(0));
    }

    fn truncate(&mut self, file: usize, new_size: u64) {
        self.fs
            .truncate(self.inos[file], new_size, &mut self.store)
            .expect("truncate");
        self.reference.truncate(file, new_size);
    }

    /// Placement, extent trees, generations, sizes, counters and free
    /// space agree, and — every step ends on a commit point — journal
    /// replay lands on the live state.
    fn check(&self) {
        for (f, &ino) in self.reference.files.iter().zip(&self.inos) {
            assert_eq!(
                self.fs.extents_snapshot(ino).expect("extents"),
                f.extents.snapshot()
            );
            assert_eq!(
                self.fs.generations(ino).expect("generations").0,
                f.generation
            );
            assert_eq!(self.fs.file_size(ino).expect("size"), f.size);
        }
        assert_eq!(self.fs.stats(), self.reference.stats);
        assert_eq!(
            self.fs.free_blocks(),
            self.nblocks - self.reference.alloc.used
        );
        assert!(!self.fs.journal().in_transaction());
        let recovered = self.fs.clone().crash_and_recover(self.nblocks);
        assert_eq!(fs_meta(&recovered), fs_meta(&self.fs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn run_granular_write_path_matches_block_at_a_time(
        two_groups in any::<bool>(),
        ops in proptest::collection::vec(write_op_strategy(), 1..40)
    ) {
        const BS: u64 = Lockstep::BS;
        let mut both = Lockstep::new(two_groups);
        both.check();
        for op in ops {
            match op {
                WriteOp::Append { file, blocks, skip, via } => {
                    let off = (both.end_block(file) + skip) * BS;
                    both.write_range(file, off, blocks * BS, via);
                }
                WriteOp::Overwrite { file, at, blocks, delta, via } => {
                    both.write_range(file, at * BS + delta, blocks * BS - delta, via);
                }
                WriteOp::Swapped { file, blocks } => {
                    let off = both.end_block(file) * BS;
                    both.write_range(file, off + blocks * BS, blocks * BS, 1);
                    both.write_range(file, off, blocks * BS, 1);
                }
                WriteOp::Truncate { file, blocks } => both.truncate(file, blocks * BS),
            }
            both.check();
        }
    }

    #[test]
    fn contiguous_append_logs_one_extent_and_one_size(
        appends in proptest::collection::vec(1u64..200, 1..12)
    ) {
        let mut fs = ExtFs::mkfs(1 << 14);
        let mut store = SectorStore::new();
        let ino = fs.create("log").expect("create");
        let mut end = 0u64;
        for blocks in appends {
            let before = fs.journal().len();
            let segments = fs.plan_write(ino, end * 512, (blocks * 512) as usize, &mut store).expect("room");
            fs.commit_journal();
            prop_assert_eq!(segments, vec![(end, blocks)]);
            let extent = Extent { logical: end, physical: end, len: blocks };
            end += blocks;
            prop_assert_eq!(
                &fs.journal().committed_records()[before..],
                &[
                    JournalRecord::MapExtent { ino, extent },
                    JournalRecord::SetSize { ino, size: end * 512 },
                ][..]
            );
            prop_assert_eq!(fs.extents_snapshot(ino).expect("extents").len(), 1);
        }
    }
}

// --- Machine crash consistency under every commit policy --------------------------

/// Closed-loop driver for the machine-level crash tests: `writes`
/// journaled sector writes at successive offsets (every
/// `fsync_every`-th one fsynced, 0 = never), then one final pure fsync
/// when `final_fsync` is set — so everything logged is durable when the
/// run drains.
struct CrashWriters {
    fd: bpfstor::kernel::Fd,
    writes: u64,
    fsync_every: u64,
    final_fsync: bool,
    issued: u64,
    done: u64,
    errors: u64,
    mode: bpfstor::kernel::DispatchMode,
}

impl bpfstor::kernel::ChainDriver for CrashWriters {
    fn mode(&self) -> bpfstor::kernel::DispatchMode {
        self.mode
    }

    fn next_op(
        &mut self,
        _t: usize,
        _rng: &mut bpfstor::sim::SimRng,
    ) -> Option<bpfstor::kernel::ChainSpec> {
        use bpfstor::device::SECTOR_SIZE;
        if self.issued >= self.writes {
            if self.final_fsync {
                self.final_fsync = false;
                return Some(bpfstor::kernel::ChainSpec::Write(
                    bpfstor::kernel::WriteStart {
                        fd: self.fd,
                        file_off: 0,
                        data: Vec::new(),
                        fsync: true,
                        arg: u64::MAX,
                    },
                ));
            }
            return None;
        }
        let i = self.issued;
        self.issued += 1;
        let fsync = self.fsync_every != 0 && (i + 1).is_multiple_of(self.fsync_every);
        Some(bpfstor::kernel::ChainSpec::Write(
            bpfstor::kernel::WriteStart {
                fd: self.fd,
                file_off: i * SECTOR_SIZE as u64,
                data: vec![(i % 250) as u8 + 1; SECTOR_SIZE],
                fsync,
                arg: i,
            },
        ))
    }

    fn chain_done(
        &mut self,
        _t: usize,
        outcome: &bpfstor::kernel::ChainOutcome,
    ) -> bpfstor::kernel::ChainVerdict {
        self.done += 1;
        if !matches!(outcome.status, bpfstor::kernel::ChainStatus::Written(_)) {
            self.errors += 1;
        }
        bpfstor::kernel::ChainVerdict::Done
    }
}

/// Runs `writers` concurrent fsyncing writers under `policy` and
/// returns the drained machine.
fn run_crash_writers(
    policy: bpfstor::kernel::CommitPolicy,
    writers: usize,
    writes: u64,
    fsync_every: u64,
    final_fsync: bool,
    seed: u64,
) -> (bpfstor::kernel::Machine, bpfstor::kernel::RunReport) {
    run_crash_writers_on(
        policy,
        writers,
        writes,
        fsync_every,
        final_fsync,
        seed,
        bpfstor::kernel::TransportConfig::Local,
        bpfstor::kernel::DispatchMode::User,
    )
}

/// [`run_crash_writers`] over an arbitrary transport and dispatch mode
/// (the fabric variants put the fsync flush barrier on the far side of
/// the wire).
#[allow(clippy::too_many_arguments)]
fn run_crash_writers_on(
    policy: bpfstor::kernel::CommitPolicy,
    writers: usize,
    writes: u64,
    fsync_every: u64,
    final_fsync: bool,
    seed: u64,
    transport: bpfstor::kernel::TransportConfig,
    mode: bpfstor::kernel::DispatchMode,
) -> (bpfstor::kernel::Machine, bpfstor::kernel::RunReport) {
    use bpfstor::kernel::{Machine, MachineConfig};
    let cfg = MachineConfig {
        commit_policy: policy,
        seed,
        transport,
        // Match the crash-replay target so free-space accounting lines
        // up between live and recovered metadata.
        fs_blocks: 1 << 14,
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg);
    m.create_file("wal.db", &[]).expect("create");
    let fd = m.open("wal.db", true).expect("open");
    let mut d = CrashWriters {
        fd,
        writes,
        fsync_every,
        final_fsync,
        issued: 0,
        done: 0,
        errors: 0,
        mode,
    };
    let report = m.run_closed_loop(writers, bpfstor::sim::SECOND, &mut d);
    assert_eq!(d.errors, 0, "write chains must complete cleanly");
    assert_eq!(d.done, writes + u64::from(final_fsync));
    (m, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn machine_crash_at_any_boundary_recovers_a_txn_prefix_under_every_policy(
        writers in 1usize..5,
        writes in 4u64..24,
        fsync_every in 1u64..4,
        max_wait_us in 5u64..60,
        seed in 0u64..1_000,
    ) {
        const NBLOCKS: u64 = 1 << 14;
        use bpfstor::kernel::CommitPolicy;
        let policies = [
            CommitPolicy::PerFsync,
            CommitPolicy::Group { max_wait_us, max_handles: writers as u32 },
            CommitPolicy::Writeback { flush_interval_us: 100 },
        ];
        for policy in policies {
            let (m, report) = run_crash_writers(policy, writers, writes, fsync_every, true, seed);
            let j = m.fs().journal();
            // Durability: the trailing pure fsync saw every record, so
            // the drained journal is fully committed under all policies.
            prop_assert_eq!(
                j.len(), j.committed_records().len(),
                "{:?}: final fsync must commit everything logged", policy
            );
            // Sharing never mints extra barriers; per-fsync never shares.
            let commit = report.commit;
            if policy == CommitPolicy::PerFsync {
                prop_assert_eq!(commit.commits, commit.fsyncs, "{:?}", policy);
                prop_assert_eq!(commit.barrier_joins, 0, "{:?}", policy);
            } else {
                prop_assert!(
                    commit.commits <= commit.fsyncs + commit.writeback_flushes,
                    "{:?}: {} commits for {} fsyncs", policy, commit.commits, commit.fsyncs
                );
            }
            // Crash at EVERY record boundary: recovery must land exactly
            // on the last commit point at or before the crash — a torn
            // transaction (shared barrier not yet durable) loses every
            // joined handle's records atomically, a durable one loses
            // none.
            let total = j.len();
            let commit_points: Vec<usize> = j.commit_points().to_vec();
            let live = fs_meta(m.fs());
            let at = |k: usize| fs_meta(&m.fs().clone().crash_and_recover_at(NBLOCKS, k));
            prop_assert_eq!(
                at(total), live.clone(),
                "{:?}: full-log replay must reproduce the live metadata", policy
            );
            let mut prefix = at(0);
            let mut next_cp = 0usize;
            for k in 0..=total {
                if commit_points.get(next_cp) == Some(&k) {
                    next_cp += 1;
                    prefix = at(k);
                }
                prop_assert_eq!(
                    at(k), prefix.clone(),
                    "{:?}: crash after {} of {} records must recover the \
                     txn prefix at commit point {:?}", policy, k, total,
                    commit_points.get(next_cp.wrapping_sub(1))
                );
            }
        }
        // Writeback with no application fsync at all: the background
        // timer alone must eventually make the journal durable — but
        // never ahead of its records (replay still reproduces the live
        // metadata exactly).
        let (m, report) = run_crash_writers(
            CommitPolicy::Writeback { flush_interval_us: 50 },
            writers, writes, 0, false, seed,
        );
        let j = m.fs().journal();
        prop_assert_eq!(j.len(), j.committed_records().len(), "writeback drains the journal");
        prop_assert!(report.commit.writeback_flushes >= 1, "the timer did the flushing");
        prop_assert_eq!(report.commit.fsyncs, 0);
        prop_assert_eq!(
            fs_meta(&m.fs().clone().crash_and_recover_at(NBLOCKS, j.len())),
            fs_meta(m.fs())
        );
        // Per-fsync with no fsyncs leaves the records pending: a crash
        // loses them, which is exactly the contract writeback tightens.
        let (m, _) = run_crash_writers(CommitPolicy::PerFsync, writers, writes, 0, false, seed);
        let j = m.fs().journal();
        prop_assert!(j.len() > j.committed_records().len(), "no fsync, nothing durable");
    }
}

// --- Ring invariants under random mixed read/write submission --------------------

/// One random driver action against the raw NVMe device.
#[derive(Debug, Clone)]
enum RingAction {
    SubmitRead { slba: u8 },
    SubmitWrite { slba: u8 },
    SubmitFlush,
    Doorbell,
    AdvanceAndIrq { ns: u16 },
}

fn ring_action_strategy() -> impl Strategy<Value = RingAction> {
    prop_oneof![
        4 => (0u8..64).prop_map(|slba| RingAction::SubmitRead { slba }),
        3 => (0u8..64).prop_map(|slba| RingAction::SubmitWrite { slba }),
        1 => Just(RingAction::SubmitFlush),
        3 => Just(RingAction::Doorbell),
        3 => (1u16..5_000).prop_map(|ns| RingAction::AdvanceAndIrq { ns }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn ring_invariants_hold_under_random_mixed_submission(
        actions in proptest::collection::vec(ring_action_strategy(), 1..120),
        depth in 2usize..10,
    ) {
        use bpfstor::device::{NvmeCommand, NvmeOp, NvmeDevice, QueueError, SECTOR_SIZE};
        use bpfstor::sim::SimRng;

        let mut profile = bpfstor::device::DeviceProfile::optane_gen2_p5800x();
        profile.queue_depth = depth;
        let cap = depth - 1;
        let mut dev = NvmeDevice::new(profile, 1, SimRng::seed(0xD1CE));
        let mut now: u64 = 0;
        let mut next_cid: u64 = 0;
        // The driver's model: tags handed out but not yet reaped, plus
        // commands a full SQ pushed back (parked, NOT dropped).
        let mut in_flight = std::collections::HashSet::new();
        let mut parked: Vec<NvmeCommand> = Vec::new();
        let mut accepted: u64 = 0;
        let mut reaped_cids = std::collections::HashSet::new();
        let mut batch = Vec::new();

        let submit = |dev: &mut NvmeDevice,
                          in_flight: &mut std::collections::HashSet<u64>,
                          accepted: &mut u64,
                          cmd: NvmeCommand| {
            let cid = cmd.cid;
            let outstanding_before = dev.outstanding(0);
            match dev.submit(0, cmd) {
                Ok(()) => {
                    prop_assert!(outstanding_before < cap, "accepted only below capacity");
                    prop_assert!(in_flight.insert(cid), "tag never double-allocated");
                    *accepted += 1;
                }
                Err(QueueError::SubmissionFull) => {
                    // Full SQ parks: the command is returned, not lost.
                    prop_assert_eq!(outstanding_before, cap, "reject only at capacity");
                }
                Err(e) => prop_assert!(false, "unexpected error {:?}", e),
            }
        };

        let mk = |cid: u64, action: &RingAction| -> NvmeCommand {
            let op = match action {
                RingAction::SubmitRead { slba } => NvmeOp::Read { slba: *slba as u64, nlb: 1 },
                RingAction::SubmitWrite { slba } => NvmeOp::Write {
                    slba: *slba as u64,
                    data: vec![cid as u8; SECTOR_SIZE],
                },
                _ => NvmeOp::Flush,
            };
            NvmeCommand { cid, op }
        };

        for action in &actions {
            match action {
                RingAction::SubmitRead { .. } | RingAction::SubmitWrite { .. } | RingAction::SubmitFlush => {
                    let cmd = mk(next_cid, action);
                    next_cid += 1;
                    let before = dev.outstanding(0);
                    if before >= cap {
                        parked.push(cmd); // driver-side parking on backpressure
                        dev.record_rejection();
                    } else {
                        submit(&mut dev, &mut in_flight, &mut accepted, cmd);
                    }
                }
                RingAction::Doorbell => {
                    dev.ring_doorbell(now, 0).expect("qp 0 exists");
                }
                RingAction::AdvanceAndIrq { ns } => {
                    now += *ns as u64;
                    dev.post_ready(now, 0);
                    dev.reap(0, usize::MAX, &mut batch);
                    for c in batch.drain(..) {
                        prop_assert!(in_flight.remove(&c.cid), "one CQE per SQE, no ghosts");
                        prop_assert!(reaped_cids.insert(c.cid), "no duplicate CQE");
                    }
                    // Freed slots readmit parked commands, oldest first.
                    while dev.outstanding(0) < cap {
                        let Some(cmd) = parked.pop() else { break };
                        submit(&mut dev, &mut in_flight, &mut accepted, cmd);
                    }
                }
            }
            prop_assert!(dev.outstanding(0) <= cap, "outstanding never exceeds queue depth");
        }

        // Drain: ring, advance far, reap — until every accepted command
        // (including everything parked) has exactly one CQE.
        let mut guard = 0;
        while dev.outstanding(0) > 0 || !parked.is_empty() {
            dev.ring_doorbell(now, 0).expect("qp 0");
            now += 100_000;
            dev.post_ready(now, 0);
            dev.reap(0, usize::MAX, &mut batch);
            for c in batch.drain(..) {
                prop_assert!(in_flight.remove(&c.cid));
                prop_assert!(reaped_cids.insert(c.cid));
            }
            while dev.outstanding(0) < cap {
                let Some(cmd) = parked.pop() else { break };
                submit(&mut dev, &mut in_flight, &mut accepted, cmd);
            }
            guard += 1;
            prop_assert!(guard < 10_000, "drain must terminate");
        }
        prop_assert!(in_flight.is_empty(), "every SQE produced exactly one CQE");
        prop_assert_eq!(reaped_cids.len() as u64, accepted, "CQE count equals accepted SQEs");
        prop_assert_eq!(reaped_cids.len() as u64, next_cid, "a full SQ parked rather than dropped");
        let stats = dev.stats();
        prop_assert_eq!(stats.cqes, accepted);
        prop_assert_eq!(stats.reads + stats.writes + stats.flushes, accepted);
    }
}

// --- Fabric transport: capsule invariants under reordering/delay ---------------

#[derive(Debug, Clone)]
enum FabricAction {
    Submit { slba: u8, class: u8 },
    Doorbell,
    AdvanceAndReap { ns: u32 },
}

fn fabric_action_strategy() -> impl Strategy<Value = FabricAction> {
    prop_oneof![
        5 => ((0u8..64), (0u8..3)).prop_map(|(slba, class)| FabricAction::Submit { slba, class }),
        3 => Just(FabricAction::Doorbell),
        3 => (1u32..200_000).prop_map(|ns| FabricAction::AdvanceAndReap { ns }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn fabric_capsules_yield_exactly_one_cqe_per_sqe(
        actions in proptest::collection::vec(fabric_action_strategy(), 1..120),
        depth in 2usize..10,
        cap in 1usize..12,
        one_way in 100u64..40_000,
        jitter_num in 0u64..30_000,
    ) {
        use bpfstor::device::transport::{FabricConfig, FabricTransport, SubmitClass, Transport};
        use bpfstor::device::{NvmeCommand, NvmeOp, QueueError};
        use bpfstor::sim::{LatencyDist, SimRng};

        let jitter = jitter_num.min(one_way.saturating_sub(1));
        let mut profile = bpfstor::device::DeviceProfile::optane_gen2_p5800x();
        profile.queue_depth = depth;
        let dev = bpfstor::device::NvmeDevice::new(profile, 1, SimRng::seed(0xFAB));
        let cfg = FabricConfig {
            to_target: LatencyDist::Uniform(one_way - jitter, one_way + jitter),
            to_host: LatencyDist::Uniform(one_way - jitter, one_way + jitter),
            target_proc_ns: 250,
            inflight_cap: cap,
            ..FabricConfig::contention_defaults()
        };
        let mut t = FabricTransport::new(dev, cfg, SimRng::seed(0xCAB1E));
        // The effective window: the tighter of the credit cap and ring.
        let window = t.queue_capacity();
        prop_assert_eq!(window, cap.min(depth - 1));

        let mut now: u64 = 0;
        let mut next_cid: u64 = 0;
        let mut in_flight = std::collections::HashSet::new();
        let mut reaped_cids = std::collections::HashSet::new();
        let mut parked: Vec<(NvmeCommand, SubmitClass)> = Vec::new();
        let mut accepted: u64 = 0;
        let mut host_class: u64 = 0;

        let class_of = |c: u8| match c {
            0 => SubmitClass::Host,
            1 => SubmitClass::PushdownStart,
            _ => SubmitClass::TargetLocal,
        };

        for action in &actions {
            match action {
                FabricAction::Submit { slba, class } => {
                    let cmd = NvmeCommand {
                        cid: next_cid,
                        op: NvmeOp::Read { slba: *slba as u64, nlb: 1 },
                    };
                    let cid = next_cid;
                    next_cid += 1;
                    let cls = class_of(*class);
                    if t.can_accept(0, 1, 0, cls) {
                        let before = t.outstanding(0);
                        prop_assert!(before < window);
                        t.submit(0, cmd, cls, 0).expect("can_accept said yes");
                        prop_assert!(in_flight.insert(cid), "no double tag");
                        if cls == SubmitClass::Host {
                            host_class += 1;
                        }
                        accepted += 1;
                    } else {
                        prop_assert_eq!(t.outstanding(0), window, "reject only at the window");
                        prop_assert_eq!(
                            t.submit(0, cmd.clone(), cls, 0).unwrap_err(),
                            QueueError::SubmissionFull
                        );
                        parked.push((cmd, cls));
                    }
                }
                FabricAction::Doorbell => {
                    t.ring_doorbell(now, 0).expect("qp 0");
                }
                FabricAction::AdvanceAndReap { ns } => {
                    now += *ns as u64;
                    t.post_ready(now, 0);
                    let cqes = t.reap(now, 0, usize::MAX);
                    prop_assert!(
                        cqes.windows(2).all(|w| w[0].complete_at <= w[1].complete_at),
                        "host sees completions in host-time order"
                    );
                    for c in cqes {
                        prop_assert!(c.complete_at <= now, "nothing from the future");
                        prop_assert!(in_flight.remove(&c.cid), "one CQE per SQE");
                        prop_assert!(reaped_cids.insert(c.cid), "no duplicate CQE");
                    }
                    // Freed credits readmit parked capsules, oldest first.
                    while t.can_accept(0, 1, 0, SubmitClass::Host) {
                        let Some((cmd, cls)) = parked.pop() else { break };
                        let cid = cmd.cid;
                        t.submit(0, cmd, cls, 0).expect("credit freed");
                        prop_assert!(in_flight.insert(cid));
                        if cls == SubmitClass::Host {
                            host_class += 1;
                        }
                        accepted += 1;
                    }
                }
            }
            prop_assert!(
                t.outstanding(0) <= window,
                "in-flight capsules never exceed the configured cap"
            );
            prop_assert!(
                t.fabric_stats().max_inflight <= window,
                "high-water mark respects the window"
            );
        }

        // Drain: every accepted capsule (including re-admitted parked
        // ones) must produce exactly one host CQE.
        let mut guard = 0;
        while t.outstanding(0) > 0 || !parked.is_empty() {
            t.ring_doorbell(now, 0).expect("qp 0");
            now += 1_000_000;
            t.post_ready(now, 0);
            for c in t.reap(now, 0, usize::MAX) {
                prop_assert!(in_flight.remove(&c.cid));
                prop_assert!(reaped_cids.insert(c.cid));
            }
            while t.can_accept(0, 1, 0, SubmitClass::Host) {
                let Some((cmd, cls)) = parked.pop() else { break };
                let cid = cmd.cid;
                t.submit(0, cmd, cls, 0).expect("credit freed");
                prop_assert!(in_flight.insert(cid));
                if cls == SubmitClass::Host {
                    host_class += 1;
                }
                accepted += 1;
            }
            guard += 1;
            prop_assert!(guard < 10_000, "drain must terminate");
        }
        prop_assert!(in_flight.is_empty());
        prop_assert_eq!(reaped_cids.len() as u64, accepted, "one CQE per accepted SQE");
        prop_assert_eq!(reaped_cids.len() as u64, next_cid, "full SQ parked, not dropped");
        let s = t.fabric_stats();
        prop_assert_eq!(s.capsules_sent + s.target_local, accepted, "every capsule classified");
        prop_assert_eq!(s.responses, host_class, "one response capsule per host-class command");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// A lossy, jittery, congested multi-initiator wire still delivers
    /// every submitted command to exactly one completion: losses pay a
    /// retransmission timeout (never drop the command), duplicate
    /// deliveries are suppressed by the target's command-id dedup, and
    /// reordering from jitter never double-completes or loses a tag.
    #[test]
    fn lossy_fabric_delivers_every_command_exactly_once(
        actions in proptest::collection::vec(fabric_action_strategy(), 1..120),
        depth in 3usize..10,
        initiators in 1usize..5,
        one_way in 100u64..40_000,
        loss in 0.0f64..0.4,
        dup in 0.0f64..0.5,
        timeout in 1u64..200_000,
        rng_seed in 0u64..1_000,
    ) {
        use bpfstor::device::transport::{FabricConfig, FabricTransport, SubmitClass, Transport};
        use bpfstor::device::{NvmeCommand, NvmeOp};
        use bpfstor::sim::{LatencyDist, SimRng};

        // Derived knobs keep the parameter tuple within proptest's
        // arity limit without shrinking the explored space much.
        let jitter = (one_way / 3).min(one_way.saturating_sub(1));
        let admit_ns = (rng_seed % 4) * 500;
        let mut profile = bpfstor::device::DeviceProfile::optane_gen2_p5800x();
        profile.queue_depth = depth;
        let dev = bpfstor::device::NvmeDevice::new(profile, 1, SimRng::seed(0xFAB ^ rng_seed));
        let cfg = FabricConfig {
            to_target: LatencyDist::Uniform(one_way - jitter, one_way + jitter),
            to_host: LatencyDist::Uniform(one_way - jitter, one_way + jitter),
            target_proc_ns: 250,
            initiators,
            admit_ns,
            congestion_knee: 2,
            congestion_ns_per_capsule: 500,
            loss_prob: loss,
            retransmit_timeout_ns: timeout,
            dup_prob: dup,
            ..FabricConfig::contention_defaults()
        };
        let mut t = FabricTransport::new(dev, cfg, SimRng::seed(0xCAB1E ^ rng_seed));
        let window = t.queue_capacity();

        let class_of = |c: u8| match c {
            0 => SubmitClass::Host,
            1 => SubmitClass::PushdownStart,
            _ => SubmitClass::TargetLocal,
        };

        let mut now: u64 = 0;
        let mut next_cid: u64 = 0;
        let mut in_flight = std::collections::HashSet::new();
        let mut reaped_cids = std::collections::HashSet::new();
        let mut accepted: u64 = 0;
        let mut host_class: u64 = 0;

        for action in &actions {
            match action {
                FabricAction::Submit { slba, class } => {
                    let cmd = NvmeCommand {
                        cid: next_cid,
                        op: NvmeOp::Read { slba: *slba as u64, nlb: 1 },
                    };
                    let cid = next_cid;
                    next_cid += 1;
                    let cls = class_of(*class);
                    let init = (cid % initiators as u64) as u32;
                    // A full window parks driver-side; drop here (the
                    // parking path is covered by the window proptest).
                    if t.can_accept(0, 1, init, cls) {
                        t.submit(0, cmd, cls, init).expect("can_accept said yes");
                        prop_assert!(in_flight.insert(cid), "no double tag");
                        if cls == SubmitClass::Host {
                            host_class += 1;
                        }
                        accepted += 1;
                    }
                }
                FabricAction::Doorbell => {
                    t.ring_doorbell(now, 0).expect("qp 0");
                }
                FabricAction::AdvanceAndReap { ns } => {
                    now += *ns as u64;
                    t.post_ready(now, 0);
                    for c in t.reap(now, 0, usize::MAX) {
                        prop_assert!(c.complete_at <= now, "nothing from the future");
                        prop_assert!(in_flight.remove(&c.cid), "one CQE per SQE");
                        prop_assert!(reaped_cids.insert(c.cid), "no duplicate CQE");
                    }
                }
            }
            prop_assert!(t.outstanding(0) <= window, "window holds under loss");
        }

        // Drain: every accepted capsule must surface exactly once no
        // matter how many crossings were lost along the way.
        let mut guard = 0;
        while t.outstanding(0) > 0 {
            t.ring_doorbell(now, 0).expect("qp 0");
            now += 10_000_000;
            t.post_ready(now, 0);
            for c in t.reap(now, 0, usize::MAX) {
                prop_assert!(in_flight.remove(&c.cid));
                prop_assert!(reaped_cids.insert(c.cid));
            }
            guard += 1;
            prop_assert!(guard < 10_000, "drain must terminate");
        }
        prop_assert!(in_flight.is_empty(), "every accepted SQE completed");
        prop_assert_eq!(reaped_cids.len() as u64, accepted, "exactly one CQE each");
        let s = t.fabric_stats();
        prop_assert_eq!(s.responses, host_class, "one response per host-class command");
        prop_assert_eq!(s.lost, s.retransmits, "every loss is retransmitted, never dropped");
        prop_assert!(s.dups_suppressed <= s.retransmits, "dups only from retransmissions");
        if loss == 0.0 {
            prop_assert_eq!(s.retransmits, 0, "no loss, no retransmissions");
        }
        let per_init: u64 = t.initiator_stats().iter().map(|i| i.retransmits).sum();
        prop_assert_eq!(per_init, s.retransmits, "per-initiator retransmits sum to the total");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// Crash recovery when the fsync flush barrier crosses the fabric:
    /// whether the barrier is submitted from the host (`User` dispatch,
    /// one capsule per flush) or runs target-side under write pushdown
    /// (`DriverHook`, the commit acknowledged by the terminal response
    /// capsule), a crash at every journal record boundary must land on
    /// the last durable commit point — never a torn transaction.
    #[test]
    fn fabric_crash_at_any_boundary_recovers_the_last_durable_commit(
        writers in 1usize..4,
        writes in 4u64..16,
        fsync_every in 1u64..3,
        max_wait_us in 5u64..60,
        seed in 0u64..1_000,
    ) {
        const NBLOCKS: u64 = 1 << 14;
        use bpfstor::kernel::{CommitPolicy, DispatchMode, FabricConfig, TransportConfig};
        let link = || {
            TransportConfig::Fabric(
                FabricConfig::symmetric(20_000, 4_000)
                    .with_initiators(2)
                    .with_initiator_window(4)
                    .with_admit_ns(500)
                    .with_loss(0.02, 50_000, 0.25),
            )
        };
        let policies = [
            CommitPolicy::PerFsync,
            CommitPolicy::Group { max_wait_us, max_handles: writers as u32 },
        ];
        for policy in policies {
            for mode in [DispatchMode::User, DispatchMode::DriverHook] {
                let (m, report) = run_crash_writers_on(
                    policy, writers, writes, fsync_every, true, seed, link(), mode,
                );
                let j = m.fs().journal();
                prop_assert_eq!(
                    j.len(), j.committed_records().len(),
                    "{:?}/{:?}: the trailing fsync commits everything logged",
                    policy, mode
                );
                // Pushdown moves the barrier to the target but may not
                // change what commits: under group commit a shared
                // barrier still acks every joined fsync.
                let commit = report.commit;
                if policy == CommitPolicy::PerFsync {
                    prop_assert_eq!(commit.commits, commit.fsyncs, "{:?}/{:?}", policy, mode);
                }
                if mode == DispatchMode::DriverHook {
                    prop_assert!(
                        report.fabric.target_local > 0,
                        "pushdown runs the barrier target-side"
                    );
                }
                let total = j.len();
                let commit_points: Vec<usize> = j.commit_points().to_vec();
                let live = fs_meta(m.fs());
                let at = |k: usize| fs_meta(&m.fs().clone().crash_and_recover_at(NBLOCKS, k));
                prop_assert_eq!(
                    at(total), live.clone(),
                    "{:?}/{:?}: full-log replay reproduces the live metadata", policy, mode
                );
                let mut prefix = at(0);
                let mut next_cp = 0usize;
                for k in 0..=total {
                    if commit_points.get(next_cp) == Some(&k) {
                        next_cp += 1;
                        prefix = at(k);
                    }
                    prop_assert_eq!(
                        at(k), prefix.clone(),
                        "{:?}/{:?}: crash after {} of {} records must recover the last \
                         durable commit", policy, mode, k, total
                    );
                }
            }
        }
    }
}

// --- Completion reaping: exactly-once delivery across mode switches ------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Under a random read/update/insert mix (with fsync barriers) on
    /// the uring path, a hybrid reaper with arbitrary — including
    /// degenerate, flap-happy — watermarks still delivers exactly one
    /// CQE per SQE: every chain completes, nothing errors, and every
    /// command the device serviced is reaped exactly once no matter
    /// how often the queue pair bounces between polling and
    /// interrupts.
    #[test]
    fn hybrid_mode_switches_never_lose_or_duplicate_completions(
        (high, gap, window, dwell) in (1usize..6, 0usize..3, 1usize..12, 0u32..6),
        (interval, batch_pick) in (50u64..2_000, 0usize..4),
        (read_pct, update_split) in (10u8..=100, 0u8..=100),
        seed in any::<u64>(),
    ) {
        use bpfstor::core::{
            AdaptiveIrqConfig, DispatchMode, HybridConfig, PollConfig, PushdownSession,
            ReapMode, YcsbMix,
        };
        use bpfstor::sim::SECOND;
        use bpfstor::workload::OpMix;

        let batch = [1u32, 3, 8, 32][batch_pick];
        let entries: Vec<(u64, Vec<u8>)> = (0..400u64)
            .map(|i| {
                let mut v = vec![0u8; 48];
                v[..8].copy_from_slice(&(i * 31).to_le_bytes());
                (i * 3, v)
            })
            .collect();
        let cfg = HybridConfig {
            poll: PollConfig { interval_ns: interval },
            irq: AdaptiveIrqConfig::default(),
            // low < high always; gap 0 makes the scheduler maximally
            // twitchy, which is exactly what the property stresses.
            high_watermark: high,
            low_watermark: high - 1 - gap.min(high - 1),
            window,
            dwell,
        };
        let update = ((100 - read_pct) as u16 * update_split as u16 / 100) as u8;
        let mix = OpMix {
            read: read_pct,
            update,
            insert: 100 - read_pct - update,
            scan: 0,
        };
        let chains = 150u64;
        let mut s = PushdownSession::builder(
            YcsbMix::new(entries, mix, seed).max_chains(chains),
        )
        .dispatch(DispatchMode::DriverHook)
        .reap_mode(ReapMode::Hybrid(cfg))
        .seed(seed)
        .build()
        .expect("session");
        let (report, stats) = s.run_uring(1, batch, SECOND);

        prop_assert_eq!(stats.completed, chains, "every chain completes");
        prop_assert_eq!(stats.errors, 0);
        prop_assert_eq!(stats.mismatches, 0);
        let serviced = report.device.reads + report.device.writes + report.device.flushes;
        prop_assert_eq!(
            report.device.cqes, serviced,
            "exactly one CQE reaped per serviced command"
        );
        // The two delivery mechanisms account for all their work and
        // nothing else's.
        prop_assert_eq!(report.trace.polls, report.reaper.polls);
        prop_assert_eq!(report.trace.irqs, report.reaper.irqs);
        prop_assert_eq!(
            report.reaper.mode_transitions as usize >= report.reaper.transitions.len(),
            true,
            "the timeline never exceeds the count"
        );
    }
}

// --- Multi-tenancy: weighted fair reaping is exactly-once ----------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Weighted fair reaping is a service *order*, never a service
    /// *filter*: under a random tenant mix (B-tree readers interleaved
    /// with fsyncing YCSB writers), arbitrary weights, arbitrary SQ
    /// slot budgets, and a reap mode that may flap between polling and
    /// interrupts, the drained run reaps exactly one CQE per command
    /// each tenant submitted — the deficit-round-robin permutation
    /// neither drops, duplicates, nor cross-charges a completion.
    #[test]
    fn fair_reaping_reaps_every_tenant_command_exactly_once(
        tenants in proptest::collection::vec(
            // (reap weight, SQ budget selector, threads)
            (1u64..16, 0usize..4, 1usize..4),
            1..4
        ),
        cores in 1usize..3,
        hybrid in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use bpfstor::core::{
            Btree, DispatchMode, ReapMode, TenantGroup, TenantLimits, YcsbMix,
        };
        use bpfstor::kernel::MachineConfig;
        use bpfstor::sim::MILLISECOND;
        use bpfstor::workload::OpMix;

        let reap = if hybrid {
            ReapMode::Hybrid(Default::default())
        } else {
            ReapMode::Interrupt
        };
        let mut group = TenantGroup::builder()
            .machine_config(MachineConfig {
                cores,
                seed,
                // Batch completions so the fair scheduler has real
                // multi-tenant reap windows to permute.
                irq_coalesce_us: 5,
                irq_coalesce_depth: 4,
                ..MachineConfig::default()
            })
            .dispatch(DispatchMode::DriverHook)
            .reap_mode(reap)
            .fair_reap(true)
            .build();
        let entries: Vec<(u64, Vec<u8>)> = (0..64u64)
            .map(|i| {
                let mut v = vec![0u8; 48];
                v[..8].copy_from_slice(&(i * 31).to_le_bytes());
                (i * 3, v)
            })
            .collect();
        let mut threads = Vec::new();
        for (i, &(weight, slots, nthreads)) in tenants.iter().enumerate() {
            let limits = TenantLimits {
                sq_slots: if slots == 0 { None } else { Some(slots + 1) },
                ..TenantLimits::weighted(weight)
            };
            let id = if i % 2 == 0 {
                group.add_tenant(Btree::depth(3), limits)
            } else {
                let mix = OpMix { read: 30, update: 50, insert: 20, scan: 0 };
                group.add_tenant(
                    YcsbMix::new(entries.clone(), mix, seed ^ i as u64).fsync_every(2),
                    limits,
                )
            };
            id.expect("tenant attaches");
            threads.push(nthreads);
        }
        let report = group.run_closed_loop(&threads, 2 * MILLISECOND);

        // The run drains before reporting, so "reaped exactly once"
        // must hold with equality, per tenant and in total.
        for b in &report.tenants {
            prop_assert_eq!(
                b.cqes, b.ios,
                "tenant {}: every submitted command reaps exactly one CQE",
                b.tenant
            );
            prop_assert!(b.chains >= 1, "tenant {} must make progress", b.tenant);
        }
        let total: u64 = report.tenants.iter().map(|b| b.cqes).sum();
        prop_assert_eq!(total, report.ios, "no completion lost or double-reaped");
        let serviced = report.device.reads + report.device.writes + report.device.flushes;
        prop_assert_eq!(report.device.cqes, serviced, "device-side exactly-once");
    }
}

// --- Buffer recycling: no chain ever reads another chain's bytes ---------------

/// Blocks per isolation-test file: `ISO_WRITTEN` carry a per-file
/// pattern, the rest are fallocated and never written (so at least one
/// whole store chunk behind them is absent).
const ISO_BLOCKS: u64 = 72;
const ISO_WRITTEN: u64 = 40;
/// Chains wrap inside this many bytes, so an 8-sector read always fits.
const ISO_SPAN: u64 = (ISO_BLOCKS - 8) * SECTOR_SIZE as u64;
/// Bytes of scratch past the 8-byte argument.
const ISO_SCRATCH_TAIL: usize = bpfstor::vm::SCRATCH_SIZE - 8;

/// One planned chain: `(tenant, sectors per read, start block, stride
/// in blocks, hops, end with ACT_PASS instead of ACT_EMIT)`.
type IsoChain = (usize, u32, u64, u64, u64, bool);

fn iso_arg(c: &IsoChain) -> u64 {
    let &(_, _, _, stride, hops, pass) = c;
    hops | stride << 8 | u64::from(pass) << 24
}

fn iso_next_off(off: u64, stride: u64) -> u64 {
    (off + stride * SECTOR_SIZE as u64) % ISO_SPAN
}

/// The hook program of the isolation property. On a chain's first hop
/// it emits its scratch area past the argument — whatever the previous
/// user of that buffer left there — then fills it with a nonzero
/// pattern for the next chain to find. It walks `hops` reads `stride`
/// blocks apart and ends with `ACT_PASS` (raw block back) or `ACT_EMIT`
/// (the scratch dump back), as the argument says.
fn iso_program() -> Program {
    use bpfstor::vm::{ctx_off, helper};
    let mut a = Asm::new();
    a.mov64_reg(7, 1)
        .ldx(Width::DW, 9, 7, ctx_off::SCRATCH)
        .ldx(Width::DW, 8, 9, 0)
        .ldx(Width::W, 2, 7, ctx_off::HOP)
        .jne_imm(2, 0, "walk")
        .mov64_reg(1, 9)
        .add64_imm(1, 8)
        .mov64_imm(2, ISO_SCRATCH_TAIL as i32)
        .call(helper::EMIT);
    for off in (8..bpfstor::vm::SCRATCH_SIZE as i16).step_by(8) {
        a.st_imm(Width::DW, 9, off, 0x5A5A_5A5A);
    }
    a.label("walk")
        .ldx(Width::W, 2, 7, ctx_off::HOP)
        .add64_imm(2, 1)
        .mov64_reg(3, 8)
        .and64_imm(3, 0xFF)
        .jge_reg(2, 3, "last")
        .mov64_reg(4, 8)
        .rsh64_imm(4, 8)
        .and64_imm(4, 0xFFFF)
        .lsh64_imm(4, 9)
        .ldx(Width::DW, 1, 7, ctx_off::FILE_OFF)
        .add64_reg(1, 4)
        .mod64_imm(1, ISO_SPAN as i32)
        .call(helper::RESUBMIT)
        .jne_imm(0, 0, "halt")
        .mov64_imm(0, action::ACT_RESUBMIT as i32)
        .exit()
        .label("last")
        .rsh64_imm(8, 24)
        .and64_imm(8, 1)
        .jeq_imm(8, 0, "emit")
        .mov64_imm(0, action::ACT_PASS as i32)
        .exit()
        .label("emit")
        .mov64_imm(0, action::ACT_EMIT as i32)
        .exit()
        .label("halt")
        .mov64_imm(0, action::ACT_HALT as i32)
        .exit();
    Program::new(a.finish().expect("isolation program assembles"))
}

/// Issues the planned chains and checks every byte the kernel hands
/// back against `model` (each file's contents by fresh store reads).
struct IsoDriver {
    mode: bpfstor::kernel::DispatchMode,
    fds: [bpfstor::kernel::Fd; 2],
    model: [Vec<u8>; 2],
    plan: Vec<IsoChain>,
    issued: usize,
    /// token id → (offset of the read in flight, its hop).
    live: std::collections::HashMap<u64, (u64, u64)>,
    done: usize,
    violations: Vec<String>,
}

impl IsoDriver {
    fn expect_block(&mut self, what: &str, c: &IsoChain, off: u64, data: &[u8]) {
        let len = c.1 as usize * SECTOR_SIZE;
        let want = &self.model[c.0][off as usize..off as usize + len];
        if data != want {
            let at = data.iter().zip(want).position(|(a, b)| a != b);
            self.violations.push(format!(
                "{what}: chain {c:?} read {} bytes at {off}, expected {len}, first difference at {at:?}",
                data.len()
            ));
        }
    }

    /// The offset of the chain's `hop`-th read.
    fn off_at(c: &IsoChain, hop: u64) -> u64 {
        (0..hop).fold(c.2 * SECTOR_SIZE as u64, |off, _| iso_next_off(off, c.3))
    }
}

impl bpfstor::kernel::ChainDriver for IsoDriver {
    fn mode(&self) -> bpfstor::kernel::DispatchMode {
        self.mode
    }

    fn next_op(
        &mut self,
        _t: usize,
        _rng: &mut bpfstor::sim::SimRng,
    ) -> Option<bpfstor::kernel::ChainSpec> {
        let c = self.plan.get(self.issued)?;
        self.issued += 1;
        // The plan index rides in the argument's top half.
        Some(bpfstor::kernel::ChainSpec::Read(
            bpfstor::kernel::ChainStart {
                fd: self.fds[c.0],
                file_off: c.2 * SECTOR_SIZE as u64,
                len: c.1 * SECTOR_SIZE as u32,
                arg: iso_arg(c) | (self.issued as u64 - 1) << 32,
            },
        ))
    }

    fn user_step(
        &mut self,
        _t: usize,
        token: &bpfstor::kernel::ChainToken,
        data: &[u8],
    ) -> bpfstor::kernel::UserNext {
        let c = self.plan[(token.arg >> 32) as usize];
        let first = (c.2 * SECTOR_SIZE as u64, 0);
        let (off, hop) = *self.live.entry(token.id).or_insert(first);
        self.expect_block("user hop", &c, off, data);
        if hop + 1 >= c.4 {
            self.live.remove(&token.id);
            return bpfstor::kernel::UserNext::Done;
        }
        let next = iso_next_off(off, c.3);
        self.live.insert(token.id, (next, hop + 1));
        bpfstor::kernel::UserNext::Continue(next)
    }

    fn chain_done(
        &mut self,
        _t: usize,
        outcome: &bpfstor::kernel::ChainOutcome,
    ) -> bpfstor::kernel::ChainVerdict {
        use bpfstor::kernel::ChainStatus;
        let c = self.plan[(outcome.token.arg >> 32) as usize];
        self.done += 1;
        let last = IsoDriver::off_at(&c, c.4 - 1);
        match &outcome.status {
            ChainStatus::Pass(data) => self.expect_block("pass", &c, last, data),
            ChainStatus::Emitted(dump) => {
                if dump.len() != ISO_SCRATCH_TAIL || dump.iter().any(|&b| b != 0) {
                    self.violations.push(format!(
                        "chain {c:?}: first-hop scratch dump of {} bytes is not {ISO_SCRATCH_TAIL} zeroes",
                        dump.len()
                    ));
                }
            }
            // The hop before `file_off` straddled an extent boundary:
            // its block comes back for the application to step on.
            ChainStatus::SplitFallback { file_off, data } => {
                let hop = (0..c.4).find(|&h| IsoDriver::off_at(&c, h + 1) == *file_off);
                match hop {
                    Some(h) => self.expect_block("split", &c, IsoDriver::off_at(&c, h), data),
                    None => self
                        .violations
                        .push(format!("chain {c:?}: split at {file_off}")),
                }
            }
            other => self.violations.push(format!("chain {c:?} ended {other:?}")),
        }
        bpfstor::kernel::ChainVerdict::Done
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Read buffers, scratch areas and emit buffers are recycled across
    /// chains and tenants (machine.rs, "Buffer ownership"); recycling
    /// must never let one chain see bytes another left behind. Random
    /// interleavings of two tenants' chains with 1-, 3- and 8-sector
    /// reads over written, discarded and never-written sectors — under
    /// the application path, the driver hook, and fabric pushdown:
    /// every block handed back equals a fresh store read of the same
    /// range (so a buffer recycled from a larger read exposes no tail
    /// and a hole reads as zeroes, not as the last tenant's data), and
    /// every chain finds its scratch area zeroed past the argument
    /// although each one leaves a pattern behind.
    #[test]
    fn recycled_buffers_never_leak_between_chains_or_tenants(
        chains in proptest::collection::vec(
            (0usize..2, 0usize..3, 0u64..ISO_BLOCKS - 8, 1u64..ISO_BLOCKS, 1u64..6, any::<bool>()),
            8..60
        ),
        hook in any::<bool>(),
        fabric in any::<bool>(),
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        use bpfstor::kernel::{
            DispatchMode, FabricConfig, Machine, MachineConfig, TenantLimits, TransportConfig,
        };

        let transport = if fabric {
            TransportConfig::Fabric(FabricConfig::symmetric(9_000, 2_000))
        } else {
            TransportConfig::Local
        };
        let mut m = Machine::new(MachineConfig { cores: 2, seed, transport, ..MachineConfig::default() });
        let tenant_b = m.register_tenant(TenantLimits::default());
        let mut fds = [0; 2];
        let mut model = [Vec::new(), Vec::new()];
        for (t, (name, tenant)) in [("a.db", 0), ("b.db", tenant_b)].into_iter().enumerate() {
            // Every written byte is nonzero and differs between the
            // files, so a leaked byte can never pass for the right one.
            let image: Vec<u8> = (0..ISO_WRITTEN as usize * SECTOR_SIZE)
                .map(|i| 1 + ((i / SECTOR_SIZE * 7 + i + 100 * t) % 250) as u8)
                .collect();
            let ino = m.create_file(name, &image).expect("create");
            let (fs, store) = m.fs_and_store();
            fs.fallocate(ino, ISO_WRITTEN, ISO_BLOCKS - ISO_WRITTEN, store).expect("fallocate");
            // TRIM two written blocks: zeroes inside a live chunk.
            let (phys, _) = fs.map(ino, 9).expect("inode").expect("mapped");
            store.discard(phys, 2);
            for lb in 0..ISO_BLOCKS {
                let (phys, _) = fs.map(ino, lb).expect("inode").expect("mapped");
                model[t].extend(store.read(phys, 1));
            }
            fds[t] = m.open_for(tenant, name, true).expect("open");
            m.install(fds[t], iso_program(), 0).expect("program verifies");
        }
        prop_assert!(model[0][ISO_WRITTEN as usize * SECTOR_SIZE..].iter().all(|&b| b == 0));

        let plan: Vec<IsoChain> = chains
            .iter()
            .map(|&(t, n, start, stride, hops, pass)| (t, [1, 3, 8][n], start, stride, hops, pass))
            .collect();
        let mode = match (hook, fabric) {
            (true, _) => DispatchMode::DriverHook,
            (false, true) => DispatchMode::Remote,
            (false, false) => DispatchMode::User,
        };
        let mut driver = IsoDriver {
            mode,
            fds,
            model,
            plan,
            issued: 0,
            live: std::collections::HashMap::new(),
            done: 0,
            violations: Vec::new(),
        };
        let report = m.run_closed_loop(threads, bpfstor::sim::SECOND, &mut driver);
        prop_assert_eq!(driver.done, driver.plan.len(), "every planned chain finished");
        prop_assert_eq!(report.chains as usize, driver.plan.len());
        prop_assert!(driver.violations.is_empty(), "{:#?}", driver.violations);
    }
}

// --- Conservation: every CPU nanosecond sits in exactly one layer bucket -------

/// Σ core busy time of the machine's last run.
fn core_busy(m: &bpfstor::kernel::Machine, cores: usize) -> u64 {
    (0..cores).map(|c| m.core_busy_ns(c)).sum()
}

/// A cost model with every field drawn at random (`draws`: one value
/// per field, in declaration order), so no two layers cancel and an
/// equality that only holds at the calibrated defaults shows.
fn costs_from(draws: &[u64]) -> bpfstor::kernel::LayerCosts {
    let mut d = draws.iter().copied();
    let mut next = || d.next().expect("one draw per field");
    let costs = bpfstor::kernel::LayerCosts {
        crossing_enter: next(),
        crossing_exit: next(),
        syscall: next(),
        fs_submit: next(),
        fs_complete: next(),
        bio_submit: next(),
        bio_complete: next(),
        drv_submit: next(),
        doorbell: next(),
        irq_entry: next(),
        drv_complete: next(),
        app_think: next(),
        bpf_base: next(),
        // Per instruction and per visit: keep runs short.
        bpf_per_insn: next() % 8,
        extent_cache_lookup: next(),
        recycle_submit: next(),
        uring_sqe: next(),
        uring_cqe: next(),
        pagecache_hit: next(),
        wr_fs_submit: next(),
        journal_log: next(),
        journal_commit: next(),
        fab_encode: next(),
        fab_decode: next(),
        fab_encode_per_kb: next(),
        poll_loop: next() % 200,
    };
    assert!(d.next().is_none(), "COST_FIELDS outgrew LayerCosts");
    costs
}

const COST_FIELDS: usize = 26;

fn ycsb_entries() -> Vec<(u64, Vec<u8>)> {
    (0..200u64)
        .map(|i| {
            let mut v = vec![0u8; 48];
            v[..8].copy_from_slice(&(i * 31).to_le_bytes());
            (i * 3, v)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The law `Machine::charge` exists to keep: whatever path a run
    /// takes — any dispatch mode, blocking or io_uring, local or over a
    /// fabric (remote dispatch and pushdown), any reap mode, any commit
    /// policy, a mid-run relocation recovered by rearm-retry — and
    /// whatever the cost model, the CPU buckets of the trace sum to the
    /// busy time of the cores, to the nanosecond. A burst that charged
    /// time it did not book (or booked time it did not charge) fails
    /// here; `finish_run` asserts the same under `debug_assertions`.
    #[test]
    fn cpu_buckets_sum_to_core_busy_time_on_every_path(
        (mode_pick, fabric, batch_pick) in (0usize..3, any::<bool>(), 0usize..4),
        (reap_pick, commit_pick) in (0usize..4, 0usize..3),
        (relocating_reads, cores, threads) in (any::<bool>(), 1usize..4, 1usize..4),
        draws in proptest::collection::vec(0u64..3_000, COST_FIELDS),
        seed in any::<u64>(),
    ) {
        use bpfstor::core::{
            AdaptiveIrqConfig, CommitPolicy, DispatchMode, HybridConfig, PollConfig,
            PushdownSession, ReapMode, SessionBuilder, SessionStats, YcsbMix,
        };
        use bpfstor::kernel::{FabricConfig, MachineConfig, RunReport};
        use bpfstor::sim::SECOND;
        use bpfstor::workload::OpMix;

        let mode = match (mode_pick, fabric) {
            (0, false) => DispatchMode::User,
            (0, true) => DispatchMode::Remote,
            (1, _) => DispatchMode::SyscallHook,
            _ => DispatchMode::DriverHook,
        };
        let reap = [
            ReapMode::Interrupt,
            ReapMode::AdaptiveIrq(AdaptiveIrqConfig::default()),
            ReapMode::Polled(PollConfig::default()),
            // Twitchy watermarks: the pair flaps between mechanisms.
            ReapMode::Hybrid(HybridConfig {
                high_watermark: 2,
                low_watermark: 0,
                window: 2,
                dwell: 1,
                ..HybridConfig::default()
            }),
        ][reap_pick]
            .clone();
        let commit = [
            CommitPolicy::PerFsync,
            CommitPolicy::Group { max_wait_us: 20, max_handles: 3 },
            CommitPolicy::Writeback { flush_interval_us: 40 },
        ][commit_pick];
        let config = MachineConfig {
            cores,
            seed,
            costs: costs_from(&draws),
            // Coalesce, so one interrupt entry covers several CQEs.
            irq_coalesce_us: 3,
            irq_coalesce_depth: 3,
            reap_mode: reap,
            commit_policy: commit,
            ..MachineConfig::default()
        };
        fn configure<W: PushdownWorkload>(
            b: SessionBuilder<W>,
            config: MachineConfig,
            mode: DispatchMode,
            fabric: bool,
        ) -> SessionBuilder<W> {
            let b = b.machine_config(config).dispatch(mode);
            if fabric {
                b.fabric(FabricConfig::symmetric(6_000, 1_500))
            } else {
                b
            }
        }
        fn drive<W: PushdownWorkload>(
            s: &mut PushdownSession<W>,
            threads: usize,
            batch: Option<u32>,
        ) -> (RunReport, SessionStats) {
            match batch {
                None => s.run_closed_loop(threads, SECOND),
                Some(batch) => s.run_uring(threads, batch, SECOND),
            }
        }
        let batch = [None, Some(1u32), Some(4), Some(16)][batch_pick];
        let chains = 60;
        let (report, busy) = if relocating_reads {
            // Read-only, so the file may move under the run: in-flight
            // recycled hops abort and the session re-arms and retries.
            let b = PushdownSession::builder(Btree::depth(4).max_chains(chains));
            let mut s = configure(b, config, mode, fabric).build().expect("session");
            s.schedule_relocation(150_000);
            let (report, stats) = drive(&mut s, threads, batch);
            prop_assert_eq!(stats.completed, chains);
            (report, core_busy(s.machine(), cores))
        } else {
            // Reads, journaled writes and fsync barriers on one file.
            let mix = OpMix { read: 40, update: 40, insert: 20, scan: 0 };
            let workload = YcsbMix::new(ycsb_entries(), mix, seed).fsync_every(3);
            let b = PushdownSession::builder(workload.max_chains(chains));
            let mut s = configure(b, config, mode, fabric).build().expect("session");
            let (report, stats) = drive(&mut s, threads, batch);
            prop_assert_eq!(stats.completed, chains);
            prop_assert!(report.commit.commits > 0, "fsyncs committed");
            (report, core_busy(s.machine(), cores))
        };
        prop_assert!(busy > 0, "the run spent CPU");
        prop_assert_eq!(
            report.trace.software(), busy,
            "CPU buckets vs core busy time: {:?}", report.trace
        );
    }

    /// The same law for a two-tenant group sharing queue pairs under
    /// weighted fair reaping and group commit: a B-tree reader beside a
    /// writer that fsyncs every other record.
    #[test]
    fn cpu_buckets_sum_to_core_busy_time_across_tenants(
        (hook, batch_pick, cores) in (any::<bool>(), 0usize..3, 1usize..3),
        draws in proptest::collection::vec(0u64..3_000, COST_FIELDS),
        seed in any::<u64>(),
    ) {
        use bpfstor::core::{CommitPolicy, DispatchMode, TenantGroup, TenantLimits, YcsbMix};
        use bpfstor::kernel::MachineConfig;
        use bpfstor::sim::MILLISECOND;
        use bpfstor::workload::OpMix;

        let mut group = TenantGroup::builder()
            .machine_config(MachineConfig {
                cores,
                seed,
                costs: costs_from(&draws),
                irq_coalesce_us: 5,
                irq_coalesce_depth: 4,
                ..MachineConfig::default()
            })
            .dispatch(if hook { DispatchMode::DriverHook } else { DispatchMode::User })
            .commit_policy(CommitPolicy::Group { max_wait_us: 30, max_handles: 2 })
            .fair_reap(true)
            .build();
        group
            .add_tenant(Btree::depth(3), TenantLimits::weighted(3))
            .expect("reader attaches");
        let mix = OpMix { read: 20, update: 50, insert: 30, scan: 0 };
        group
            .add_tenant(
                YcsbMix::new(ycsb_entries(), mix, seed).fsync_every(2),
                TenantLimits { sq_slots: Some(3), ..TenantLimits::weighted(1) },
            )
            .expect("writer attaches");
        let report = match [None, Some(2u32), Some(8)][batch_pick] {
            None => group.run_closed_loop(&[2, 3], MILLISECOND),
            Some(batch) => group.run_uring(&[1, 2], batch, MILLISECOND),
        };
        prop_assert!(report.tenants.iter().all(|t| t.chains > 0), "both tenants ran");
        prop_assert!(report.commit.commits > 0, "fsyncs committed");
        prop_assert_eq!(
            report.trace.software(), core_busy(group.machine(), cores),
            "CPU buckets vs core busy time: {:?}", report.trace
        );
    }
}

/// A write SQE pays the same `wr_fs_submit + journal_log` a `write`
/// syscall does, not a read's `fs_submit` — the two are equal only at
/// the calibrated defaults. Raising `journal_log` by 365 ns must cost
/// the ring path exactly 365 ns per write SQE, all of it in the journal
/// bucket, and conserve.
#[test]
fn uring_write_sqes_are_priced_like_write_syscalls() {
    use bpfstor::core::{DispatchMode, PushdownSession, YcsbMix};
    use bpfstor::kernel::{LayerCosts, MachineConfig, RunReport};
    use bpfstor::sim::SECOND;
    use bpfstor::workload::OpMix;

    let run = |costs: LayerCosts| -> (RunReport, u64) {
        let mix = OpMix::paper_tokudb();
        let workload = YcsbMix::new(ycsb_entries(), mix, 7).max_chains(400);
        let mut s = PushdownSession::builder(workload)
            .machine_config(MachineConfig {
                costs,
                ..MachineConfig::default()
            })
            .dispatch(DispatchMode::DriverHook)
            .build()
            .expect("session");
        let (report, stats) = s.run_uring(2, 16, SECOND);
        assert_eq!((stats.completed, stats.errors), (400, 0));
        let busy = core_busy(s.machine(), 6);
        (report, busy)
    };
    let base = LayerCosts::default();
    let (cheap, cheap_busy) = run(base);
    let (dear, dear_busy) = run(LayerCosts {
        journal_log: 500,
        ..base
    });
    assert_eq!(
        dear.trace.software(),
        dear_busy,
        "conserves off the defaults"
    );
    assert_eq!(cheap.trace.software(), cheap_busy);

    let write_sqes = dear.device.writes;
    assert!(write_sqes > 100, "the mix writes: {write_sqes}");
    assert_eq!(cheap.device.writes, write_sqes, "same requests either way");
    let extra = (500 - base.journal_log) * write_sqes;
    assert_eq!(dear.trace.journal - cheap.trace.journal, extra);
    // Timing shifts may regroup doorbells and interrupts (the driver
    // bucket); every other layer did exactly the same work.
    let rest = |r: &RunReport| r.trace.software() - r.trace.journal - r.trace.drv;
    assert_eq!(rest(&dear), rest(&cheap));
    assert_eq!(
        dear_busy - cheap_busy,
        extra + dear.trace.drv - cheap.trace.drv,
        "the cores ran what the buckets say"
    );
}
