//! The compilation tier: a pre-decoded interpreter.
//!
//! [`compile`] lowers a program once to one flat array of small `Copy`
//! [`Op`]s, one per instruction, and [`CompiledProg::run_budgeted`]
//! executes it with a single `loop { match op.kind }`. Everything the
//! interpreter works out per execution is resolved at compile time:
//! register indices are validated, immediates sign-extended, shift
//! amounts masked, an `ld_imm64` pair folded into one op, and jump
//! targets turned into op indices. The access width and the hot 64-bit
//! comparisons are part of the op's [`Kind`], so a load, a store or a
//! compare-and-branch is *one* dispatch into code specialised for it,
//! not a dispatch on the class followed by a second one on the width
//! or the condition. Falling through is `index + 1`; a trailing
//! [`Kind::Fell`] op stands one past the last instruction.
//!
//! Every op retires one instruction against the budget, in the
//! interpreter's own fetch-then-charge order, so the two engines agree
//! on the retired count at every trap without an argument about which
//! effects of a batch were observable. There is no `unsafe`, no runtime
//! code generation and no verifier fact in use: every memory access
//! goes through the same checked primitives as the interpreter's.
//!
//! The contract with the interpreter is **observational equivalence**:
//! for any program both engines accept, registers, scratch, map effects,
//! helper activity, retired-instruction counts, and traps (including
//! their `pc` payloads) are identical. Retired counts matter beyond
//! testing — the simulated kernel charges `LayerCosts::bpf_exec(insns)`
//! from them, so the simulation's cost model is bit-for-bit unchanged by
//! the engine choice; only *measured host CPU* differs. The equivalence
//! is enforced by sharing the interpreter's primitives ([`alu64_total`],
//! [`read_mem_w`], [`call_helper`], ...) rather than reimplementing them,
//! and locked by the differential proptest harness in `tests/props.rs`.
//!
//! Lowering is total. Whether an instruction is legal is decided once,
//! over every slot, by the verifier's structural pass
//! ([`crate::verifier`]); [`Verified::compile`] lowers what [`admit`]
//! let in and has nothing to decline, so every program the verifier
//! admits compiles, and what runs is what was verified. [`compile`] is
//! the same for a caller with an unverified program — the differential
//! tests, which want runtime traps: it runs that pass and no more (dead
//! code, which [`crate::verifier::verify`] refuses as policy, lowers
//! like any other) and returns its error.
//!
//! [`admit`]: crate::verifier::admit

use crate::insn::{
    access_size, imm64_of, Insn, ALU_ADD, ALU_END, ALU_LSH, ALU_MOV, ALU_MUL, ALU_RSH, ALU_XOR,
    CLS_ALU, CLS_ALU64, CLS_JMP, CLS_JMP32, CLS_LD, CLS_LDX, CLS_ST, CLS_STX, JMP_CALL, JMP_EXIT,
    JMP_JA, JMP_JEQ, JMP_JGE, JMP_JGT, JMP_JLE, JMP_JLT, JMP_JNE, OP_LD_IMM64, REG_FP, SRC_X,
    STACK_SIZE,
};
use crate::interp::{
    alu32_total, alu64_total, build_ctx_buf, call_helper, endian_total, flush_mapvals, jump_taken,
    read_mem_w, write_mem_w, ExecEnv, MapValSlot, Mem, RunCtx, RunOutcome, Trap, CTX_BASE,
    DEFAULT_INSN_BUDGET, STACK_BASE,
};
use crate::maps::MapSet;
use crate::program::Program;
use crate::verifier::{Edge, Structure, Verified, VerifyError};

/// Which execution engine runs installed programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// The interpreter (`crates/vm/src/interp.rs`): per-instruction
    /// fetch/decode dispatch with full runtime checking. The oracle the
    /// compiled tier is tested against; a machine runs it only when its
    /// configuration names it.
    Interp,
    /// The pre-decoded op array of this module.
    #[default]
    Compiled,
}

impl ExecEngine {
    /// Short stable name (`"interp"` / `"compiled"`) for reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecEngine::Interp => "interp",
            ExecEngine::Compiled => "compiled",
        }
    }
}

impl std::fmt::Display for ExecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What one [`Op`] does. The access width, the comparison and the
/// operand form (`Imm`: the op's `imm`; `Reg`: its `src` register) are
/// part of the kind, so executing an op is one dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    // 64-bit ALU: the hottest shapes, then every other defined opcode
    // through `alu64_total`.
    /// Also `ld_imm64`, which is one op (and retires as one
    /// instruction) despite occupying two slots.
    MovImm,
    MovReg,
    AddImm,
    AddReg,
    MulImm,
    XorImm,
    LshImm,
    RshImm,
    Alu64Imm,
    Alu64Reg,
    Alu32Imm,
    Alu32Reg,
    End,
    // `dst = *(uW *)(src + off)`
    Ld1,
    Ld2,
    Ld4,
    Ld8,
    // `*(uW *)(dst + off) = src`
    St1,
    St2,
    St4,
    St8,
    // `*(uW *)(dst + off) = imm`
    StImm1,
    StImm2,
    StImm4,
    StImm8,
    // The unsigned 64-bit comparisons bounds checks and searches are
    // made of, then every other conditional jump through `jump_taken`.
    JeqImm,
    JeqReg,
    JneImm,
    JneReg,
    JgtImm,
    JgtReg,
    JgeImm,
    JgeReg,
    JltImm,
    JltReg,
    JleImm,
    JleReg,
    Jcc,
    Ja,
    Call,
    Exit,
    /// One past the last instruction: control that reaches it fell off
    /// the end of the program.
    Fell,
}

/// One pre-decoded instruction. Everything the interpreter works out
/// per execution — operand form, sign extension, width, where a jump
/// lands — is resolved here once, at compile time.
#[derive(Clone, Copy, Debug)]
struct Op {
    /// Sign-extended immediate, or the 64-bit value of an `ld_imm64`.
    imm: u64,
    /// Index of the op a taken jump continues at.
    target: u32,
    /// Slot of the source instruction, for trap payloads.
    pc: u32,
    /// Memory offset.
    off: i16,
    kind: Kind,
    dst: u8,
    src: u8,
    /// The opcode byte, for the generic ALU, endian and jump kinds.
    opcode: u8,
}

/// A program lowered to one flat array of pre-decoded ops; produced by
/// [`compile`], executed with [`CompiledProg::run`] /
/// [`CompiledProg::run_budgeted`].
#[derive(Debug)]
pub struct CompiledProg {
    /// One op per instruction in program order, then a [`Kind::Fell`]:
    /// falling through is `index + 1` everywhere.
    ops: Vec<Op>,
}

/// The register file is padded to a power of two so that a masked
/// index needs no bounds check; [`compile`] admits only `r0..=r10`.
const REG_FILE: usize = 16;

impl CompiledProg {
    /// Runs with the default instruction budget; the compiled
    /// equivalent of `Vm::new().run(...)`.
    ///
    /// # Errors
    ///
    /// Returns the same [`Trap`]s the interpreter would.
    pub fn run(
        &self,
        ctx: RunCtx<'_>,
        maps: &mut MapSet,
        env: &mut dyn ExecEnv,
    ) -> Result<RunOutcome, Trap> {
        self.run_budgeted(DEFAULT_INSN_BUDGET, ctx, maps, env)
    }

    /// Runs with an explicit instruction budget; the compiled
    /// equivalent of `Vm::with_budget(budget).run(...)`.
    ///
    /// # Errors
    ///
    /// Returns the same [`Trap`]s the interpreter would, including
    /// [`Trap::BudgetExceeded`] at the identical retired count.
    pub fn run_budgeted(
        &self,
        budget: u64,
        ctx: RunCtx<'_>,
        maps: &mut MapSet,
        env: &mut dyn ExecEnv,
    ) -> Result<RunOutcome, Trap> {
        let ctx_buf = build_ctx_buf(&ctx);
        let RunCtx { data, scratch, .. } = ctx;
        let mut reg = [0u64; REG_FILE];
        let mut stack = [0u8; STACK_SIZE];
        let mut mapvals: Vec<MapValSlot> = Vec::new();
        reg[1] = CTX_BASE;
        reg[REG_FP as usize] = STACK_BASE + STACK_SIZE as u64;
        let mut retired: u64 = 0;
        let mut helper_calls: u64 = 0;

        macro_rules! r {
            ($i:expr) => {
                reg[$i as usize % REG_FILE]
            };
        }
        macro_rules! mem {
            () => {
                Mem {
                    ctx: &ctx_buf,
                    data,
                    scratch: &*scratch,
                    stack: &stack,
                    mapvals: &mapvals,
                }
            };
        }

        let mut at = 0usize;
        loop {
            let op = &self.ops[at];
            // One instruction per op, charged as the interpreter
            // charges it: after the fetch — so running off the end is
            // found first, whatever is left of the budget — and before
            // any effect.
            retired += 1;
            if retired > budget && op.kind != Kind::Fell {
                return Err(Trap::BudgetExceeded);
            }
            let pc = op.pc as usize;
            let mut next = at + 1;
            macro_rules! alu {
                (|$d:ident, $s:ident| $e:expr) => {{
                    let ($d, $s) = (r!(op.dst), op.imm);
                    r!(op.dst) = $e;
                }};
                (reg |$d:ident, $s:ident| $e:expr) => {{
                    let ($d, $s) = (r!(op.dst), r!(op.src));
                    r!(op.dst) = $e;
                }};
            }
            macro_rules! load {
                ($w:literal) => {{
                    let addr = r!(op.src).wrapping_add(op.off as i64 as u64);
                    r!(op.dst) = read_mem_w::<$w>(&mem!(), addr, pc)?;
                }};
            }
            macro_rules! store {
                ($w:literal, $value:expr) => {{
                    let addr = r!(op.dst).wrapping_add(op.off as i64 as u64);
                    write_mem_w::<$w>(addr, $value, pc, scratch, &mut stack, &mut mapvals)?;
                }};
            }
            macro_rules! jump_if {
                ($taken:expr) => {
                    if $taken {
                        next = op.target as usize;
                    }
                };
            }
            match op.kind {
                Kind::MovImm => r!(op.dst) = op.imm,
                Kind::MovReg => r!(op.dst) = r!(op.src),
                Kind::AddImm => alu!(|d, s| d.wrapping_add(s)),
                Kind::AddReg => alu!(reg | d, s | d.wrapping_add(s)),
                Kind::MulImm => alu!(|d, s| d.wrapping_mul(s)),
                Kind::XorImm => alu!(|d, s| d ^ s),
                // Shift amounts were masked to `0..64` when lowering.
                Kind::LshImm => alu!(|d, s| d << s),
                Kind::RshImm => alu!(|d, s| d >> s),
                Kind::Alu64Imm => alu!(|d, s| alu64_total(op.opcode & 0xf0, d, s)),
                Kind::Alu64Reg => alu!(reg | d, s | alu64_total(op.opcode & 0xf0, d, s)),
                Kind::Alu32Imm => {
                    alu!(|d, s| alu32_total(op.opcode & 0xf0, d as u32, s as u32) as u64)
                }
                Kind::Alu32Reg => {
                    alu!(
                        reg | d,
                        s | alu32_total(op.opcode & 0xf0, d as u32, s as u32) as u64
                    )
                }
                Kind::End => alu!(|d, s| endian_total(op.opcode, s as i32, d)),
                Kind::Ld1 => load!(1),
                Kind::Ld2 => load!(2),
                Kind::Ld4 => load!(4),
                Kind::Ld8 => load!(8),
                Kind::St1 => store!(1, r!(op.src)),
                Kind::St2 => store!(2, r!(op.src)),
                Kind::St4 => store!(4, r!(op.src)),
                Kind::St8 => store!(8, r!(op.src)),
                Kind::StImm1 => store!(1, op.imm),
                Kind::StImm2 => store!(2, op.imm),
                Kind::StImm4 => store!(4, op.imm),
                Kind::StImm8 => store!(8, op.imm),
                Kind::JeqImm => jump_if!(r!(op.dst) == op.imm),
                Kind::JeqReg => jump_if!(r!(op.dst) == r!(op.src)),
                Kind::JneImm => jump_if!(r!(op.dst) != op.imm),
                Kind::JneReg => jump_if!(r!(op.dst) != r!(op.src)),
                Kind::JgtImm => jump_if!(r!(op.dst) > op.imm),
                Kind::JgtReg => jump_if!(r!(op.dst) > r!(op.src)),
                Kind::JgeImm => jump_if!(r!(op.dst) >= op.imm),
                Kind::JgeReg => jump_if!(r!(op.dst) >= r!(op.src)),
                Kind::JltImm => jump_if!(r!(op.dst) < op.imm),
                Kind::JltReg => jump_if!(r!(op.dst) < r!(op.src)),
                Kind::JleImm => jump_if!(r!(op.dst) <= op.imm),
                Kind::JleReg => jump_if!(r!(op.dst) <= r!(op.src)),
                Kind::Jcc => {
                    let wide = op.opcode & 0x07 == CLS_JMP;
                    let rhs = if op.opcode & SRC_X != 0 {
                        r!(op.src)
                    } else {
                        op.imm
                    };
                    let (a, b) = if wide {
                        (r!(op.dst), rhs)
                    } else {
                        (r!(op.dst) as u32 as u64, rhs as u32 as u64)
                    };
                    // Total, like `alu64_total`: the structural pass
                    // admits no code `jump_taken` does not define.
                    jump_if!(jump_taken(op.opcode & 0xf0, a, b, wide).unwrap_or(false));
                }
                Kind::Ja => next = op.target as usize,
                Kind::Call => {
                    helper_calls += 1;
                    r!(0) = call_helper(
                        op.imm as i32,
                        pc,
                        [r!(1), r!(2), r!(3)],
                        &ctx_buf,
                        data,
                        scratch,
                        &stack,
                        maps,
                        &mut mapvals,
                        env,
                    )?;
                    // Helper calls clobber the caller-saved argument
                    // registers, as on real eBPF (and in the interpreter).
                    reg[1..6].fill(0);
                }
                Kind::Exit => {
                    flush_mapvals(maps, &mapvals)?;
                    return Ok(RunOutcome {
                        ret: r!(0),
                        insns: retired,
                        helper_calls,
                    });
                }
                Kind::Fell => return Err(Trap::FellThrough),
            }
            at = next;
        }
    }
}

/// Lowers an unverified `prog` to a flat op array.
///
/// # Errors
///
/// The structural pass's, exactly as [`crate::verifier::verify`]
/// reports it: an undefined opcode, register or helper id, a bad jump.
pub fn compile(prog: &Program) -> Result<CompiledProg, VerifyError> {
    Ok(lower(&Structure::of(prog)?))
}

impl Verified<'_> {
    /// Lowers the verified program to a flat op array.
    pub fn compile(&self) -> CompiledProg {
        lower(&self.structure)
    }
}

fn lower(s: &Structure<'_>) -> CompiledProg {
    let insns = &s.prog.insns;
    let starts = |pc: &usize| s.edges[*pc] != Edge::Hi;

    // An `ld_imm64` pair is one op, so jump targets are renumbered.
    let mut op_at = vec![0u32; insns.len()];
    let mut count = 0;
    for pc in (0..insns.len()).filter(starts) {
        op_at[pc] = count;
        count += 1;
    }

    let mut ops = Vec::with_capacity(count as usize + 1);
    for pc in (0..insns.len()).filter(starts) {
        let insn = &insns[pc];
        let mut op = Op {
            imm: insn.imm as i64 as u64,
            target: 0,
            pc: pc as u32,
            off: insn.off,
            kind: kind_of(insn),
            dst: insn.dst,
            src: insn.src,
            opcode: insn.op,
        };
        if insn.op == OP_LD_IMM64 {
            op.imm = imm64_of(insn, &insns[pc + 1]);
        } else if matches!(op.kind, Kind::LshImm | Kind::RshImm) {
            op.imm &= 63;
        } else if matches!(s.edges[pc], Edge::Jump | Edge::Branch) {
            op.target = op_at[s.target(pc)];
        }
        ops.push(op);
    }
    ops.push(Op {
        imm: 0,
        target: 0,
        pc: insns.len() as u32,
        off: 0,
        kind: Kind::Fell,
        dst: 0,
        src: 0,
        opcode: 0,
    });
    CompiledProg { ops }
}

/// The op kind that executes `insn`, which the structural pass found
/// legal: every opcode it admits has one.
fn kind_of(insn: &Insn) -> Kind {
    let op = insn.op;
    let code = op & 0xf0;
    let by_reg = op & SRC_X != 0;
    let width = |kinds: [Kind; 4]| match access_size(op) {
        1 => kinds[0],
        2 => kinds[1],
        4 => kinds[2],
        _ => kinds[3],
    };
    match insn.class() {
        // `ld_imm64`, the one legal instruction of its class.
        CLS_LD => Kind::MovImm,
        CLS_ALU64 => match (code, by_reg) {
            (ALU_MOV, false) => Kind::MovImm,
            (ALU_MOV, true) => Kind::MovReg,
            (ALU_ADD, false) => Kind::AddImm,
            (ALU_ADD, true) => Kind::AddReg,
            (ALU_MUL, false) => Kind::MulImm,
            (ALU_XOR, false) => Kind::XorImm,
            (ALU_LSH, false) => Kind::LshImm,
            (ALU_RSH, false) => Kind::RshImm,
            (_, false) => Kind::Alu64Imm,
            (_, true) => Kind::Alu64Reg,
        },
        CLS_ALU if code == ALU_END => Kind::End,
        CLS_ALU if by_reg => Kind::Alu32Reg,
        CLS_ALU => Kind::Alu32Imm,
        CLS_LDX => width([Kind::Ld1, Kind::Ld2, Kind::Ld4, Kind::Ld8]),
        CLS_STX => width([Kind::St1, Kind::St2, Kind::St4, Kind::St8]),
        CLS_ST => width([Kind::StImm1, Kind::StImm2, Kind::StImm4, Kind::StImm8]),
        // CLS_JMP | CLS_JMP32
        class => match (code, by_reg) {
            (JMP_CALL, _) => Kind::Call,
            (JMP_EXIT, _) => Kind::Exit,
            (JMP_JA, _) => Kind::Ja,
            _ if class == CLS_JMP32 => Kind::Jcc,
            (JMP_JEQ, false) => Kind::JeqImm,
            (JMP_JEQ, true) => Kind::JeqReg,
            (JMP_JNE, false) => Kind::JneImm,
            (JMP_JNE, true) => Kind::JneReg,
            (JMP_JGT, false) => Kind::JgtImm,
            (JMP_JGT, true) => Kind::JgtReg,
            (JMP_JGE, false) => Kind::JgeImm,
            (JMP_JGE, true) => Kind::JgeReg,
            (JMP_JLT, false) => Kind::JltImm,
            (JMP_JLT, true) => Kind::JltReg,
            (JMP_JLE, false) => Kind::JleImm,
            (JMP_JLE, true) => Kind::JleReg,
            _ => Kind::Jcc,
        },
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::asm::{Asm, Width};
    use crate::insn::{JMP_JSET, JMP_JSGE, JMP_JSGT, JMP_JSLE, JMP_JSLT};
    use crate::interp::{RecordingEnv, Vm, DATA_BASE, MAPVAL_BASE, SCRATCH_BASE};
    use crate::maps::MapSpec;
    use crate::program::{ctx_off, helper};
    use crate::verifier::VerifyErrorKind;

    fn asm(f: impl FnOnce(&mut Asm)) -> Program {
        let mut a = Asm::new();
        f(&mut a);
        Program::new(a.finish().expect("assembles"))
    }

    /// What both engines did with one program, once [`run_both_env`]
    /// has checked that they did the same.
    pub(crate) struct BothRan {
        pub(crate) result: Result<RunOutcome, Trap>,
        pub(crate) env: RecordingEnv,
        pub(crate) scratch: [u8; 64],
    }

    /// Runs `prog` on both engines under `budget` and asserts every
    /// observable is identical.
    pub(crate) fn run_both_env(prog: &Program, data: &[u8], budget: u64) -> BothRan {
        let mut scratch_i = [0u8; 64];
        let mut scratch_c = [0u8; 64];
        let mut maps_i = MapSet::instantiate(&prog.maps).expect("maps");
        let mut maps_c = MapSet::instantiate(&prog.maps).expect("maps");
        let mut env_i = RecordingEnv::default();
        let mut env_c = RecordingEnv::default();
        let interp = Vm::with_budget(budget).run(
            prog,
            RunCtx {
                data,
                file_off: 0x1000,
                hop: 2,
                flags: 0xAB,
                scratch: &mut scratch_i,
            },
            &mut maps_i,
            &mut env_i,
        );
        let compiled = compile(prog).expect("compiles").run_budgeted(
            budget,
            RunCtx {
                data,
                file_off: 0x1000,
                hop: 2,
                flags: 0xAB,
                scratch: &mut scratch_c,
            },
            &mut maps_c,
            &mut env_c,
        );
        assert_eq!(interp, compiled, "outcome/trap drift");
        assert_eq!(scratch_i, scratch_c, "scratch drift");
        assert_eq!(env_i.resubmits, env_c.resubmits, "resubmit drift");
        assert_eq!(env_i.emitted, env_c.emitted, "emit drift");
        assert_eq!(env_i.traces, env_c.traces, "trace drift");
        BothRan {
            result: interp,
            env: env_i,
            scratch: scratch_i,
        }
    }

    /// [`run_both_env`], for the tests that only look at the outcome.
    fn run_both(prog: &Program, data: &[u8], budget: u64) -> Result<RunOutcome, Trap> {
        run_both_env(prog, data, budget).result
    }

    /// The block the region tests run over.
    pub(crate) const REGION_DATA: [u8; 11] = [
        0xD0, 0xD1, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    ];

    /// One of the five memory regions as a program meets it: the
    /// instructions that leave a pointer to its first byte in `r6`
    /// (and a recognisable byte pattern in the writable ones), the
    /// synthetic address of that byte, and the bytes a reader finds
    /// under [`run_both_env`] over [`REGION_DATA`].
    pub(crate) struct Region {
        pub(crate) name: &'static str,
        pub(crate) setup: fn(&mut Asm),
        pub(crate) base: u64,
        pub(crate) bytes: Vec<u8>,
        pub(crate) writable: bool,
    }

    /// The maps [`regions`]' programs declare: an array whose value is
    /// the map-value region, and a hash map for key-pointer arguments.
    pub(crate) fn region_maps() -> Vec<MapSpec> {
        vec![MapSpec::array(8, 2), MapSpec::hash(8, 8, 4)]
    }

    pub(crate) fn regions() -> Vec<Region> {
        const PATTERN: i32 = 0x1122_3344;
        let patterned = |len: usize| {
            let mut bytes = vec![0u8; len];
            bytes[..8].copy_from_slice(&(PATTERN as i64 as u64).to_le_bytes());
            bytes
        };
        let ctx = build_ctx_buf(&RunCtx {
            data: &REGION_DATA,
            file_off: 0x1000,
            hop: 2,
            flags: 0xAB,
            scratch: &mut [0u8; 64],
        });
        vec![
            Region {
                name: "ctx",
                setup: |a| {
                    a.mov64_reg(6, 1);
                },
                base: CTX_BASE,
                bytes: ctx.to_vec(),
                writable: false,
            },
            Region {
                name: "data",
                setup: |a| {
                    a.ldx(Width::DW, 6, 1, ctx_off::DATA);
                },
                base: DATA_BASE,
                bytes: REGION_DATA.to_vec(),
                writable: false,
            },
            Region {
                name: "scratch",
                setup: |a| {
                    a.ldx(Width::DW, 6, 1, ctx_off::SCRATCH)
                        .st_imm(Width::DW, 6, 0, PATTERN);
                },
                base: SCRATCH_BASE,
                bytes: patterned(64),
                writable: true,
            },
            Region {
                name: "stack",
                setup: |a| {
                    a.mov64_reg(6, 10)
                        .add64_imm(6, -(STACK_SIZE as i32))
                        .st_imm(Width::DW, 6, 0, PATTERN);
                },
                base: STACK_BASE,
                bytes: patterned(STACK_SIZE),
                writable: true,
            },
            Region {
                name: "map value",
                setup: |a| {
                    // Array lookups always hit: slot 0 shadows map 0[1].
                    a.st_imm(Width::W, 10, -4, 1)
                        .mov64_imm(1, 0)
                        .mov64_reg(2, 10)
                        .add64_imm(2, -4)
                        .call(helper::MAP_LOOKUP)
                        .mov64_reg(6, 0)
                        .st_imm(Width::DW, 6, 0, PATTERN);
                },
                base: MAPVAL_BASE,
                bytes: patterned(8),
                writable: true,
            },
        ]
    }

    /// `r9 = ctx` (a setup may call a helper, which clobbers `r1`),
    /// `region.setup`, then `body`, then `r0 = 0; exit`. Returns the
    /// program and the slot `body` started at.
    pub(crate) fn region_program(region: &Region, body: impl FnOnce(&mut Asm)) -> (Program, usize) {
        let mut a = Asm::new();
        a.mov64_reg(9, 1);
        (region.setup)(&mut a);
        let at = a.len();
        body(&mut a);
        a.mov64_imm(0, 0).exit();
        let insns = a.finish().expect("assembles");
        (Program::with_maps(insns, region_maps()), at)
    }

    const WIDTHS: [(Width, usize); 4] =
        [(Width::B, 1), (Width::H, 2), (Width::W, 4), (Width::DW, 8)];

    #[test]
    fn every_width_loads_up_to_the_last_byte_of_every_region_and_no_further() {
        for region in regions() {
            let len = region.bytes.len();
            for (width, w) in WIDTHS {
                let what = format!("{w}-byte load from {}", region.name);
                // The last access that fits returns those bytes...
                let (p, _) = region_program(&region, |a| {
                    a.ldx(width, 7, 6, (len - w) as i16)
                        .ldx(Width::DW, 8, 9, ctx_off::SCRATCH)
                        .stx(Width::DW, 8, 56, 7);
                });
                let ran = run_both_env(&p, &REGION_DATA, DEFAULT_INSN_BUDGET);
                ran.result
                    .unwrap_or_else(|t| panic!("{what} at len - {w}: {t}"));
                let mut expect = [0u8; 8];
                expect[..w].copy_from_slice(&region.bytes[len - w..]);
                assert_eq!(ran.scratch[56..], expect, "{what}: zero-extended LE value");
                // ...and one byte further is out of bounds, by the
                // access's own address and width.
                let (p, at) = region_program(&region, |a| {
                    a.ldx(width, 7, 6, (len - w + 1) as i16);
                });
                assert_eq!(
                    run_both(&p, &REGION_DATA, DEFAULT_INSN_BUDGET),
                    Err(Trap::OutOfBounds {
                        addr: region.base + (len - w + 1) as u64,
                        len: w,
                        pc: at,
                    }),
                    "{what} at len - {w} + 1"
                );
            }
        }
    }

    #[test]
    fn every_width_stores_up_to_the_last_byte_of_the_writable_regions_only() {
        const VALUE: u64 = 0x0807_0605_0403_0201;
        for region in regions() {
            let len = region.bytes.len();
            for (width, w) in WIDTHS {
                for imm in [false, true] {
                    let what = format!(
                        "{w}-byte {} to {}",
                        if imm { "st" } else { "stx" },
                        region.name
                    );
                    let store = |a: &mut Asm, off: usize| {
                        if imm {
                            a.st_imm(width, 6, off as i16, VALUE as i32);
                        } else {
                            a.ld_imm64(7, VALUE).stx(width, 6, off as i16, 7);
                        }
                    };
                    let pc_of_store = |at: usize| if imm { at } else { at + 2 };
                    if !region.writable {
                        let (p, at) = region_program(&region, |a| store(a, 0));
                        assert_eq!(
                            run_both(&p, &REGION_DATA, DEFAULT_INSN_BUDGET),
                            Err(Trap::WriteToReadOnly {
                                addr: region.base,
                                pc: pc_of_store(at),
                            }),
                            "{what}"
                        );
                        continue;
                    }
                    // The last store that fits lands, and only there:
                    // read the region's last eight bytes back.
                    let (p, _) = region_program(&region, |a| {
                        a.st_imm(Width::DW, 6, (len - 8) as i16, 0);
                        store(a, len - w);
                        a.ldx(Width::DW, 7, 6, (len - 8) as i16)
                            .ldx(Width::DW, 8, 9, ctx_off::SCRATCH)
                            .stx(Width::DW, 8, 48, 7);
                    });
                    // (The read-back lands at scratch[48..56], clear of
                    // scratch's own last eight bytes.)
                    let ran = run_both_env(&p, &REGION_DATA, DEFAULT_INSN_BUDGET);
                    ran.result
                        .unwrap_or_else(|t| panic!("{what} at len - {w}: {t}"));
                    let stored = if imm {
                        VALUE as i32 as i64 as u64
                    } else {
                        VALUE
                    };
                    let mut expect = [0u8; 8];
                    expect[8 - w..].copy_from_slice(&stored.to_le_bytes()[..w]);
                    assert_eq!(ran.scratch[48..56], expect, "{what}: low bytes, LE");
                    let (p, at) = region_program(&region, |a| store(a, len - w + 1));
                    assert_eq!(
                        run_both(&p, &REGION_DATA, DEFAULT_INSN_BUDGET),
                        Err(Trap::OutOfBounds {
                            addr: region.base + (len - w + 1) as u64,
                            len: w,
                            pc: pc_of_store(at),
                        }),
                        "{what} at len - {w} + 1"
                    );
                }
            }
        }
    }

    #[test]
    fn every_conditional_jump_takes_the_interpreters_edge() {
        // (code, compares as signed, the comparison over operands
        // widened to `i128` by the class's width and the code's sign).
        type Compare = fn(i128, i128) -> bool;
        let codes: [(u8, bool, Compare); 11] = [
            (JMP_JEQ, false, |a, b| a == b),
            (JMP_JNE, false, |a, b| a != b),
            (JMP_JGT, false, |a, b| a > b),
            (JMP_JGE, false, |a, b| a >= b),
            (JMP_JLT, false, |a, b| a < b),
            (JMP_JLE, false, |a, b| a <= b),
            (JMP_JSET, false, |a, b| a & b != 0),
            (JMP_JSGT, true, |a, b| a > b),
            (JMP_JSGE, true, |a, b| a >= b),
            (JMP_JSLT, true, |a, b| a < b),
            (JMP_JSLE, true, |a, b| a <= b),
        ];
        // Equal, either side larger, and pairs whose order flips with
        // signedness or with truncation to 32 bits.
        let operands: [(u64, i32); 7] = [
            (5, 5),
            (4, 5),
            (6, 5),
            (u64::MAX, 5),
            (5, -1),
            (0x1_0000_0004, 5),
            (0xFFFF_FFFF_8000_0000, i32::MIN),
        ];
        for (code, signed, compare) in codes {
            for (lhs, rhs) in operands {
                for class in [CLS_JMP, CLS_JMP32] {
                    for by_reg in [false, true] {
                        // r0 = 1 if the jump is taken, 2 if it falls through.
                        let mut a = Asm::new();
                        a.ld_imm64(2, lhs).mov64_imm(3, rhs);
                        let mut insns = a.finish().expect("assembles");
                        let src_bit = if by_reg { SRC_X } else { 0 };
                        insns.push(Insn::new(class | code | src_bit, 2, 3, 2, rhs));
                        let mut a = Asm::new();
                        a.mov64_imm(0, 2).exit().mov64_imm(0, 1).exit();
                        insns.extend(a.finish().expect("assembles"));
                        let out =
                            run_both(&Program::new(insns), &[], DEFAULT_INSN_BUDGET).expect("runs");
                        let widen = |v: u64| match (class == CLS_JMP, signed) {
                            (true, false) => v as i128,
                            (true, true) => v as i64 as i128,
                            (false, false) => v as u32 as i128,
                            (false, true) => v as i32 as i128,
                        };
                        let taken = compare(widen(lhs), widen(rhs as i64 as u64));
                        assert_eq!(
                            out.ret,
                            if taken { 1 } else { 2 },
                            "code {code:#x} class {class} by_reg {by_reg}: {lhs:#x} vs {rhs}"
                        );
                        assert_eq!(out.insns, 5, "ld_imm64 retires once");
                    }
                }
            }
        }
    }

    #[test]
    fn jumps_land_right_across_an_ld_imm64() {
        // Slots and ops number differently after a two-slot
        // instruction: a taken edge over one, a fall-through into one,
        // and a back-edge past one must all land on the interpreter's
        // instruction.
        let p = asm(|a| {
            a.mov64_imm(0, 0)
                .mov64_imm(2, 0)
                .label("loop")
                .ld_imm64(3, 0x1_0000_0001)
                .add64_reg(0, 3)
                .add64_imm(2, 1)
                .jeq_imm(2, 3, "out")
                .ld_imm64(4, 7)
                .add64_reg(0, 4)
                .ja("loop")
                .label("out")
                .ld_imm64(5, 0x10_0000_0000)
                .add64_reg(0, 5)
                .exit();
        });
        let out = run_both(&p, &[], DEFAULT_INSN_BUDGET).expect("runs");
        assert_eq!(out.ret, 3 * 0x1_0000_0001 + 2 * 7 + 0x10_0000_0000);
        assert_eq!(out.insns, 2 + 3 * 4 + 2 * 3 + 3);
    }

    #[test]
    fn matches_interp_on_alu_and_jumps() {
        let p = asm(|a| {
            a.mov64_imm(0, 0)
                .mov64_imm(2, 9)
                .label("loop")
                .add64_imm(0, 3)
                .sub64_imm(2, 1)
                .jne_imm(2, 0, "loop")
                .mul64_imm(0, 2)
                .exit();
        });
        let out = run_both(&p, &[], DEFAULT_INSN_BUDGET).expect("runs");
        assert_eq!(out.ret, 54);
        // 2 setup + 9 * 3 loop + mul + exit
        assert_eq!(out.insns, 2 + 27 + 2);
    }

    #[test]
    fn matches_interp_on_alu32_and_endian() {
        let p = asm(|a| {
            a.ld_imm64(0, 0xFFFF_FFFF_0000_0007)
                .mov32_reg(3, 0)
                .add32_imm(3, -1)
                .to_be(3, 32)
                .mov64_reg(0, 3)
                .exit();
        });
        run_both(&p, &[], DEFAULT_INSN_BUDGET).expect("runs");
    }

    #[test]
    fn matches_interp_on_memory_and_scratch() {
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::W, 3, 2, 0)
                .stx(Width::DW, 10, -8, 3)
                .ldx(Width::DW, 4, 10, -8)
                .ldx(Width::DW, 5, 1, ctx_off::SCRATCH)
                .stx(Width::W, 5, 0, 4)
                .mov64_reg(0, 4)
                .exit();
        });
        let out = run_both(&p, &[0x44, 0x33, 0x22, 0x11], DEFAULT_INSN_BUDGET).expect("runs");
        assert_eq!(out.ret, 0x1122_3344);
    }

    #[test]
    fn matches_interp_on_helpers_and_maps() {
        let mut a = Asm::new();
        a.st_imm(Width::DW, 10, -8, 5)
            .st_imm(Width::DW, 10, -16, 77)
            .mov64_imm(1, 0)
            .mov64_reg(2, 10)
            .add64_imm(2, -8)
            .mov64_reg(3, 10)
            .add64_imm(3, -16)
            .call(helper::MAP_UPDATE)
            .mov64_imm(1, 0)
            .mov64_reg(2, 10)
            .add64_imm(2, -8)
            .call(helper::MAP_LOOKUP)
            .jne_imm(0, 0, "hit")
            .mov64_imm(0, -1)
            .exit()
            .label("hit")
            .ldx(Width::DW, 3, 0, 0)
            .add64_imm(3, 1)
            .stx(Width::DW, 0, 0, 3)
            .mov64_imm(1, 0x2000)
            .call(helper::RESUBMIT)
            .mov64_imm(0, 0)
            .exit();
        let p = Program::with_maps(a.finish().expect("assembles"), vec![MapSpec::hash(8, 8, 4)]);

        // run_both checks env/scratch; check the flushed map state too.
        let mut scratch = [0u8; 64];
        let mut maps = MapSet::instantiate(&p.maps).expect("maps");
        let mut env = RecordingEnv::default();
        compile(&p)
            .expect("compiles")
            .run(
                RunCtx {
                    data: &[],
                    file_off: 0,
                    hop: 0,
                    flags: 0,
                    scratch: &mut scratch,
                },
                &mut maps,
                &mut env,
            )
            .expect("runs");
        let v = maps
            .lookup(0, &5u64.to_le_bytes())
            .expect("lookup")
            .expect("hit");
        assert_eq!(u64::from_le_bytes(v.try_into().expect("8B")), 78);

        run_both(&p, &[], DEFAULT_INSN_BUDGET).expect("runs");
    }

    #[test]
    fn budget_trap_at_identical_count() {
        let runaway = asm(|a| {
            a.label("spin").ja("spin").exit();
        });
        assert_eq!(
            run_both(&runaway, &[], 100).unwrap_err(),
            Trap::BudgetExceeded
        );
        // A budget that runs out exactly at the exit.
        let p = asm(|a| {
            a.mov64_imm(0, 1).add64_imm(0, 1).exit();
        });
        assert_eq!(run_both(&p, &[], 2).unwrap_err(), Trap::BudgetExceeded);
        run_both(&p, &[], 3).expect("exactly enough budget");
        // Running off the end is found at the fetch, before the charge:
        // a budget spent to the last instruction does not mask it.
        let p = asm(|a| {
            a.mov64_imm(0, 1).add64_imm(0, 1);
        });
        assert_eq!(run_both(&p, &[], 2).unwrap_err(), Trap::FellThrough);
        assert_eq!(run_both(&p, &[], 1).unwrap_err(), Trap::BudgetExceeded);
    }

    #[test]
    fn runtime_traps_match_with_pc_payloads() {
        // OOB data read.
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::DW, 0, 2, 0)
                .exit();
        });
        let err = run_both(&p, &[0u8; 4], DEFAULT_INSN_BUDGET).unwrap_err();
        assert!(
            matches!(err, Trap::OutOfBounds { len: 8, pc: 1, .. }),
            "{err:?}"
        );

        // Store to read-only context.
        let p = asm(|a| {
            a.st_imm(Width::DW, 1, 0, 7).exit();
        });
        let err = run_both(&p, &[], DEFAULT_INSN_BUDGET).unwrap_err();
        assert!(
            matches!(err, Trap::WriteToReadOnly { pc: 0, .. }),
            "{err:?}"
        );

        // Fall off the end.
        let p = asm(|a| {
            a.mov64_imm(0, 0);
        });
        assert_eq!(
            run_both(&p, &[], DEFAULT_INSN_BUDGET).unwrap_err(),
            Trap::FellThrough
        );

        // Fall off the end via an untaken conditional in the last slot.
        let p = asm(|a| {
            a.label("back").mov64_imm(0, 1).jeq_imm(0, 0, "back");
        });
        assert_eq!(
            run_both(&p, &[], DEFAULT_INSN_BUDGET).unwrap_err(),
            Trap::FellThrough
        );
    }

    #[test]
    fn what_compile_declines_verify_rejects_and_the_interpreter_traps_on() {
        // What `compile` declines of an unverified program is exactly
        // what `verify` rejects it for, and the interpreter — the
        // oracle — traps on the same construct when it gets there.
        let declined = |p: &Program| {
            let err = compile(p).expect_err("declined");
            assert_eq!(crate::verifier::verify(p).unwrap_err(), err);
            let trap = Vm::new().run(
                p,
                RunCtx {
                    data: &[],
                    file_off: 0,
                    hop: 0,
                    flags: 0,
                    scratch: &mut [0u8; 8],
                },
                &mut MapSet::instantiate(&p.maps).expect("maps"),
                &mut RecordingEnv::default(),
            );
            (err.pc, err.kind, trap.unwrap_err())
        };
        let p = asm(|a| {
            a.call(999).exit();
        });
        assert_eq!(
            declined(&p),
            (
                0,
                VerifyErrorKind::UnknownHelper { id: 999 },
                Trap::BadHelper { pc: 0, id: 999 }
            )
        );
        let p = Program::new(vec![Insn::new(CLS_ALU64 | ALU_MOV, 12, 0, 0, 0)]);
        assert_eq!(
            declined(&p),
            (0, VerifyErrorKind::BadRegister, Trap::BadRegister { pc: 0 })
        );
        let p = Program::new(vec![Insn::new(CLS_ALU64 | 0xe0, 0, 0, 0, 0)]);
        let illegal = Trap::IllegalInsn { pc: 0, op: 0xe7 };
        assert_eq!(declined(&p), (0, VerifyErrorKind::IllegalInsn, illegal));
        let p = Program::new(vec![Insn::new(CLS_JMP | JMP_JA, 0, 0, 7, 0)]);
        let bad_jump = Trap::BadJump { pc: 0, to: 8 };
        assert_eq!(declined(&p), (0, VerifyErrorKind::BadJumpTarget, bad_jump));
        assert_eq!(
            declined(&Program::new(vec![])),
            (0, VerifyErrorKind::BadProgramSize, Trap::FellThrough)
        );
    }

    #[test]
    fn engine_default_and_labels() {
        assert_eq!(ExecEngine::default(), ExecEngine::Compiled);
        assert_eq!(ExecEngine::Compiled.label(), "compiled");
        assert_eq!(ExecEngine::Interp.to_string(), "interp");
    }
}
