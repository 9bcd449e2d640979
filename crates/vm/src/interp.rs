//! The BPF interpreter.
//!
//! Pointers handed to programs are *synthetic* 64-bit addresses in
//! disjoint regions (context, block data, scratch, stack, map values), so
//! the interpreter is entirely safe Rust: every load/store resolves the
//! address to a region-relative slice with bounds and permission checks.
//! The verifier proves these checks can never fire for accepted programs;
//! the interpreter keeps them anyway (defense in depth, and they make the
//! verifier property-testable: *verified programs never trap*).
//!
//! Execution cost is returned as the number of instructions retired plus
//! helper invocations; `bpfstor-kernel` converts that into simulated
//! nanoseconds when charging the completion path.

use crate::insn::{
    access_size, imm64_of, ALU_ADD, ALU_AND, ALU_ARSH, ALU_DIV, ALU_END, ALU_LSH, ALU_MOD, ALU_MOV,
    ALU_MUL, ALU_NEG, ALU_OR, ALU_RSH, ALU_SUB, ALU_XOR, CLS_ALU, CLS_ALU64, CLS_JMP, CLS_JMP32,
    CLS_LD, CLS_LDX, CLS_ST, CLS_STX, END_TO_BE, JMP_CALL, JMP_EXIT, JMP_JA, JMP_JEQ, JMP_JGE,
    JMP_JGT, JMP_JLE, JMP_JLT, JMP_JNE, JMP_JSET, JMP_JSGE, JMP_JSGT, JMP_JSLE, JMP_JSLT, MODE_MEM,
    NUM_REGS, OP_LD_IMM64, REG_FP, SRC_X, STACK_SIZE,
};
use crate::maps::{MapError, MapSet};
use crate::program::{ctx_off, helper, Program};

/// Base address of the context region.
pub const CTX_BASE: u64 = 0x1000_0000_0000;
/// Base address of the completed block buffer region.
pub const DATA_BASE: u64 = 0x2000_0000_0000;
/// Base address of the chain scratch region.
pub const SCRATCH_BASE: u64 = 0x3000_0000_0000;
/// Base address of the stack region (the frame pointer is `STACK_BASE + 512`).
pub const STACK_BASE: u64 = 0x4000_0000_0000;
/// Base address of map-value pointers; bits 32.. select the value slot.
pub const MAPVAL_BASE: u64 = 0x5000_0000_0000;

const REGION_MASK: u64 = 0xF000_0000_0000;

/// Default per-invocation instruction budget (matches the order of the
/// Linux verifier's 1M-insn analysis bound; far above any traversal
/// program's needs).
pub const DEFAULT_INSN_BUDGET: u64 = 1 << 20;

/// Runtime faults. Verified programs never produce these (see the
/// property tests), but hand-built unverified programs can.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// A memory access fell outside its region or the region is absent.
    OutOfBounds {
        /// Synthetic address of the access.
        addr: u64,
        /// Access width in bytes.
        len: usize,
        /// Program counter of the faulting instruction.
        pc: usize,
    },
    /// A store targeted a read-only region (context or block data).
    WriteToReadOnly {
        /// Synthetic address of the store.
        addr: u64,
        /// Program counter of the faulting instruction.
        pc: usize,
    },
    /// Unknown or malformed opcode.
    IllegalInsn {
        /// Program counter.
        pc: usize,
        /// The opcode byte.
        op: u8,
    },
    /// Jump target outside the program.
    BadJump {
        /// Program counter of the jump.
        pc: usize,
        /// Attempted destination slot.
        to: i64,
    },
    /// Fell off the end of the instruction stream without `exit`.
    FellThrough,
    /// The instruction budget was exhausted (runaway loop).
    BudgetExceeded,
    /// Unknown helper id.
    BadHelper {
        /// Program counter of the call.
        pc: usize,
        /// The helper id.
        id: i32,
    },
    /// A map helper failed structurally (bad id, key size...).
    Map(MapError),
    /// A register outside `r0..=r10` was referenced.
    BadRegister {
        /// Program counter.
        pc: usize,
    },
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::OutOfBounds { addr, len, pc } => {
                write!(f, "out-of-bounds access of {len}B at {addr:#x} (pc {pc})")
            }
            Trap::WriteToReadOnly { addr, pc } => {
                write!(f, "write to read-only memory at {addr:#x} (pc {pc})")
            }
            Trap::IllegalInsn { pc, op } => write!(f, "illegal insn {op:#04x} at pc {pc}"),
            Trap::BadJump { pc, to } => write!(f, "jump from pc {pc} to invalid slot {to}"),
            Trap::FellThrough => write!(f, "control fell off the end of the program"),
            Trap::BudgetExceeded => write!(f, "instruction budget exceeded"),
            Trap::BadHelper { pc, id } => write!(f, "unknown helper {id} at pc {pc}"),
            Trap::Map(e) => write!(f, "map error: {e}"),
            Trap::BadRegister { pc } => write!(f, "bad register at pc {pc}"),
        }
    }
}

impl std::error::Error for Trap {}

impl From<MapError> for Trap {
    fn from(e: MapError) -> Self {
        Trap::Map(e)
    }
}

/// Input context for one program invocation: the completed block, chain
/// metadata, and the chain's scratch buffer.
pub struct RunCtx<'a> {
    /// The completed block's bytes (read-only to the program).
    pub data: &'a [u8],
    /// File offset the block was read from.
    pub file_off: u64,
    /// Resubmission count so far in this chain.
    pub hop: u32,
    /// Application-defined flags from install time.
    pub flags: u32,
    /// Chain-persistent scratch memory (read-write).
    pub scratch: &'a mut [u8],
}

/// Environment the kernel supplies for side-effecting helpers.
pub trait ExecEnv {
    /// `resubmit(file_off)` helper: recycle the descriptor toward
    /// `file_off`. Returns 0 or a negative errno.
    fn resubmit(&mut self, file_off: u64) -> i64;
    /// `emit(ptr, len)` helper body: append `data` to the result buffer.
    /// Returns bytes accepted or a negative errno.
    fn emit(&mut self, data: &[u8]) -> i64;
    /// `trace(code)` helper: diagnostic hook; default is a no-op.
    fn trace(&mut self, _code: u64) {}
}

/// An [`ExecEnv`] that records helper activity; used by tests and as a
/// building block for unit benchmarks.
#[derive(Debug, Default)]
pub struct RecordingEnv {
    /// Arguments passed to `resubmit`, in call order.
    pub resubmits: Vec<u64>,
    /// Bytes emitted, concatenated.
    pub emitted: Vec<u8>,
    /// Trace codes seen.
    pub traces: Vec<u64>,
    /// If set, `resubmit` returns this error instead of 0.
    pub fail_resubmit: Option<i64>,
}

impl ExecEnv for RecordingEnv {
    fn resubmit(&mut self, file_off: u64) -> i64 {
        self.resubmits.push(file_off);
        self.fail_resubmit.unwrap_or(0)
    }

    fn emit(&mut self, data: &[u8]) -> i64 {
        self.emitted.extend_from_slice(data);
        data.len() as i64
    }

    fn trace(&mut self, code: u64) {
        self.traces.push(code);
    }
}

/// Statistics from one program invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// The program's return value (`r0` at `exit`).
    pub ret: u64,
    /// Instructions retired.
    pub insns: u64,
    /// Helper calls performed.
    pub helper_calls: u64,
}

pub(crate) struct MapValSlot {
    pub(crate) map_id: u32,
    pub(crate) key: Vec<u8>,
    pub(crate) data: Vec<u8>,
}

/// The interpreter; owns no program state between runs except the
/// configurable instruction budget.
pub struct Vm {
    budget: u64,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vm {
    /// Creates an interpreter with the default instruction budget.
    pub fn new() -> Self {
        Vm {
            budget: DEFAULT_INSN_BUDGET,
        }
    }

    /// Overrides the per-invocation instruction budget.
    pub fn with_budget(budget: u64) -> Self {
        Vm { budget }
    }

    /// Runs `prog` over `ctx`, dispatching helpers to `env` and map
    /// helpers to `maps`.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on any runtime fault. Verified programs do not
    /// trap (enforced by property tests in the verifier module).
    pub fn run(
        &self,
        prog: &Program,
        ctx: RunCtx<'_>,
        maps: &mut MapSet,
        env: &mut dyn ExecEnv,
    ) -> Result<RunOutcome, Trap> {
        let insns = &prog.insns;
        let mut reg = [0u64; NUM_REGS];
        let mut stack = [0u8; STACK_SIZE];
        let ctx_buf = build_ctx_buf(&ctx);

        reg[1] = CTX_BASE;
        reg[REG_FP as usize] = STACK_BASE + STACK_SIZE as u64;

        let mut mapvals: Vec<MapValSlot> = Vec::new();
        let mut retired: u64 = 0;
        let mut helper_calls: u64 = 0;
        let mut pc: usize = 0;

        macro_rules! check_reg {
            ($r:expr) => {
                if $r as usize >= NUM_REGS {
                    return Err(Trap::BadRegister { pc });
                }
            };
        }

        loop {
            let Some(insn) = insns.get(pc) else {
                return Err(Trap::FellThrough);
            };
            retired += 1;
            if retired > self.budget {
                return Err(Trap::BudgetExceeded);
            }
            let op = insn.op;
            check_reg!(insn.dst);
            check_reg!(insn.src);
            let dst = insn.dst as usize;
            let src = insn.src as usize;

            match insn.class() {
                CLS_ALU64 => {
                    let rhs = if op & SRC_X != 0 {
                        reg[src]
                    } else {
                        insn.imm as i64 as u64
                    };
                    reg[dst] = alu64(op, reg[dst], rhs, pc)?;
                }
                CLS_ALU => {
                    if op & 0xf0 == ALU_END {
                        reg[dst] = endian(op, insn.imm, reg[dst], pc)?;
                    } else {
                        let rhs = if op & SRC_X != 0 {
                            reg[src] as u32
                        } else {
                            insn.imm as u32
                        };
                        reg[dst] = alu32(op, reg[dst] as u32, rhs, pc)? as u64;
                    }
                }
                CLS_LD => {
                    if op == OP_LD_IMM64 {
                        let Some(hi) = insns.get(pc + 1) else {
                            return Err(Trap::IllegalInsn { pc, op });
                        };
                        if hi.op != 0 {
                            return Err(Trap::IllegalInsn {
                                pc: pc + 1,
                                op: hi.op,
                            });
                        }
                        reg[dst] = imm64_of(insn, hi);
                        pc += 2;
                        continue;
                    }
                    return Err(Trap::IllegalInsn { pc, op });
                }
                CLS_LDX => {
                    if op & 0x60 != MODE_MEM {
                        return Err(Trap::IllegalInsn { pc, op });
                    }
                    let addr = reg[src].wrapping_add(insn.off as i64 as u64);
                    let mem = Mem {
                        ctx: &ctx_buf,
                        data: ctx.data,
                        scratch: ctx.scratch,
                        stack: &stack,
                        mapvals: &mapvals,
                    };
                    // The opcode fixes the width: dispatch on it once.
                    reg[dst] = match access_size(op) {
                        1 => read_mem_w::<1>(&mem, addr, pc),
                        2 => read_mem_w::<2>(&mem, addr, pc),
                        4 => read_mem_w::<4>(&mem, addr, pc),
                        _ => read_mem_w::<8>(&mem, addr, pc),
                    }?;
                }
                CLS_STX | CLS_ST => {
                    if op & 0x60 != MODE_MEM {
                        return Err(Trap::IllegalInsn { pc, op });
                    }
                    let addr = reg[dst].wrapping_add(insn.off as i64 as u64);
                    let value = if insn.class() == CLS_STX {
                        reg[src]
                    } else {
                        insn.imm as i64 as u64
                    };
                    let (scratch, stack) = (&mut *ctx.scratch, &mut stack);
                    match access_size(op) {
                        1 => write_mem_w::<1>(addr, value, pc, scratch, stack, &mut mapvals),
                        2 => write_mem_w::<2>(addr, value, pc, scratch, stack, &mut mapvals),
                        4 => write_mem_w::<4>(addr, value, pc, scratch, stack, &mut mapvals),
                        _ => write_mem_w::<8>(addr, value, pc, scratch, stack, &mut mapvals),
                    }?;
                }
                CLS_JMP | CLS_JMP32 => {
                    let code = op & 0xf0;
                    match code {
                        JMP_CALL => {
                            helper_calls += 1;
                            reg[0] = call_helper(
                                insn.imm,
                                pc,
                                [reg[1], reg[2], reg[3]],
                                &ctx_buf,
                                ctx.data,
                                ctx.scratch,
                                &stack,
                                maps,
                                &mut mapvals,
                                env,
                            )?;
                            // Helper calls clobber the caller-saved argument
                            // registers, as on real eBPF.
                            reg[1..6].fill(0);
                        }
                        JMP_EXIT => {
                            flush_mapvals(maps, &mapvals)?;
                            return Ok(RunOutcome {
                                ret: reg[0],
                                insns: retired,
                                helper_calls,
                            });
                        }
                        JMP_JA => {
                            pc = jump_target(pc, insn.off, insns.len())?;
                            continue;
                        }
                        _ => {
                            let (a, b) = if insn.class() == CLS_JMP32 {
                                let rhs = if op & SRC_X != 0 {
                                    reg[src] as u32 as u64
                                } else {
                                    insn.imm as u32 as u64
                                };
                                (reg[dst] as u32 as u64, rhs)
                            } else {
                                let rhs = if op & SRC_X != 0 {
                                    reg[src]
                                } else {
                                    insn.imm as i64 as u64
                                };
                                (reg[dst], rhs)
                            };
                            let wide = insn.class() == CLS_JMP;
                            let taken =
                                jump_taken(code, a, b, wide).ok_or(Trap::IllegalInsn { pc, op })?;
                            if taken {
                                pc = jump_target(pc, insn.off, insns.len())?;
                                continue;
                            }
                        }
                    }
                }
                _ => return Err(Trap::IllegalInsn { pc, op }),
            }
            pc += 1;
        }
    }
}

/// Builds the synthetic context block the program reads through `r1`:
/// the data/scratch pointers point into their synthetic regions so the
/// bounds encoded here match what [`read_mem_w`]/[`write_mem_w`] enforce.
/// Shared verbatim by the interpreter and the compiled engine.
pub(crate) fn build_ctx_buf(ctx: &RunCtx<'_>) -> [u8; ctx_off::SIZE as usize] {
    let mut ctx_buf = [0u8; ctx_off::SIZE as usize];
    let data_len = ctx.data.len() as u64;
    let scratch_len = ctx.scratch.len() as u64;
    write_u64(&mut ctx_buf, ctx_off::DATA as usize, DATA_BASE);
    write_u64(
        &mut ctx_buf,
        ctx_off::DATA_END as usize,
        DATA_BASE + data_len,
    );
    write_u64(&mut ctx_buf, ctx_off::FILE_OFF as usize, ctx.file_off);
    write_u32(&mut ctx_buf, ctx_off::HOP as usize, ctx.hop);
    write_u32(&mut ctx_buf, ctx_off::FLAGS as usize, ctx.flags);
    write_u64(&mut ctx_buf, ctx_off::SCRATCH as usize, SCRATCH_BASE);
    write_u64(
        &mut ctx_buf,
        ctx_off::SCRATCH_END as usize,
        SCRATCH_BASE + scratch_len,
    );
    ctx_buf
}

/// The five readable regions of one invocation, borrowed for the
/// duration of one load or one helper call.
pub(crate) struct Mem<'m> {
    pub(crate) ctx: &'m [u8],
    pub(crate) data: &'m [u8],
    pub(crate) scratch: &'m [u8],
    pub(crate) stack: &'m [u8],
    pub(crate) mapvals: &'m [MapValSlot],
}

impl<'m> Mem<'m> {
    /// Decodes `addr` to the region it names and the offset within it.
    /// Bits above the region nibble stay in the offset, so a stray high
    /// bit lands far outside any region rather than aliasing into one.
    #[inline(always)]
    fn region(&self, addr: u64) -> Option<(&'m [u8], usize)> {
        let region = addr & REGION_MASK;
        let slice = match region {
            CTX_BASE => self.ctx,
            DATA_BASE => self.data,
            SCRATCH_BASE => self.scratch,
            STACK_BASE => self.stack,
            MAPVAL_BASE => {
                let slot = self.mapvals.get(mapval_slot(addr))?;
                return Some((&slot.data, (addr & 0xFFFF_FFFF) as usize));
            }
            _ => return None,
        };
        Some((slice, (addr - region) as usize))
    }

    /// Borrows the `len` bytes a helper's pointer argument names. The
    /// bytes must lie in one region; the trap names the first byte
    /// that does not (a zero-length argument touches no byte and so
    /// never traps, whatever `addr` is).
    fn arg(&self, addr: u64, len: usize, pc: usize) -> Result<&'m [u8], Trap> {
        let tail = self
            .region(addr)
            .and_then(|(slice, off)| slice.get(off..))
            .unwrap_or(&[]);
        tail.get(..len).ok_or(Trap::OutOfBounds {
            addr: addr.wrapping_add(tail.len() as u64),
            len: 1,
            pc,
        })
    }
}

fn mapval_slot(addr: u64) -> usize {
    ((addr >> 32) & 0xFFF) as usize
}

/// Loads `W` little-endian bytes at `addr`, zero-extended. `W` is the
/// width the opcode fixes, so the copy below is a single move.
#[inline(always)]
pub(crate) fn read_mem_w<const W: usize>(mem: &Mem<'_>, addr: u64, pc: usize) -> Result<u64, Trap> {
    let bytes = mem
        .region(addr)
        .and_then(|(slice, off)| slice.get(off..off.wrapping_add(W)));
    match bytes {
        Some(bytes) => {
            let mut le = [0u8; 8];
            le[..W].copy_from_slice(bytes);
            Ok(u64::from_le_bytes(le))
        }
        None => Err(Trap::OutOfBounds { addr, len: W, pc }),
    }
}

/// Stores the low `W` bytes of `value` at `addr`, little-endian.
#[inline(always)]
pub(crate) fn write_mem_w<const W: usize>(
    addr: u64,
    value: u64,
    pc: usize,
    scratch: &mut [u8],
    stack: &mut [u8],
    mapvals: &mut [MapValSlot],
) -> Result<(), Trap> {
    let region = addr & REGION_MASK;
    let (slice, off) = match region {
        CTX_BASE | DATA_BASE => return Err(Trap::WriteToReadOnly { addr, pc }),
        SCRATCH_BASE => (scratch, (addr - region) as usize),
        STACK_BASE => (stack, (addr - region) as usize),
        MAPVAL_BASE => match mapvals.get_mut(mapval_slot(addr)) {
            Some(slot) => (&mut slot.data[..], (addr & 0xFFFF_FFFF) as usize),
            None => return Err(Trap::OutOfBounds { addr, len: W, pc }),
        },
        _ => return Err(Trap::OutOfBounds { addr, len: W, pc }),
    };
    match slice.get_mut(off..off.wrapping_add(W)) {
        Some(bytes) => {
            bytes.copy_from_slice(&value.to_le_bytes()[..W]);
            Ok(())
        }
        None => Err(Trap::OutOfBounds { addr, len: W, pc }),
    }
}

/// Runs helper `id` over `args` (`r1..=r3`) and returns its `r0`.
/// Pointer arguments are borrowed from their region, never
/// copied: the `emit` body and the map operations read the program's
/// memory in place.
#[allow(clippy::too_many_arguments)]
pub(crate) fn call_helper(
    id: i32,
    pc: usize,
    args: [u64; 3],
    ctx_buf: &[u8],
    data: &[u8],
    scratch: &[u8],
    stack: &[u8],
    maps: &mut MapSet,
    mapvals: &mut Vec<MapValSlot>,
    env: &mut dyn ExecEnv,
) -> Result<u64, Trap> {
    let mem = Mem {
        ctx: ctx_buf,
        data,
        scratch,
        stack,
        mapvals,
    };
    let [a1, a2, a3] = args;
    Ok(match id {
        helper::TRACE => {
            env.trace(a1);
            0
        }
        helper::RESUBMIT => env.resubmit(a1) as u64,
        helper::EMIT => env.emit(mem.arg(a1, a2 as usize, pc)?) as u64,
        helper::MAP_LOOKUP => {
            flush_mapvals(maps, mem.mapvals)?;
            let map_id = a1 as u32;
            let key = mem.arg(a2, maps.spec(map_id)?.key_size as usize, pc)?;
            // A hit shadows the value in a slot the program's loads and
            // stores go to; the slot owns its key for the write-back.
            let hit = maps.lookup(map_id, key)?.map(|value| MapValSlot {
                map_id,
                key: key.to_vec(),
                data: value.to_vec(),
            });
            match hit {
                Some(slot) => {
                    let index = mapvals.len();
                    if index >= 0x1000 {
                        return Err(Trap::Map(MapError::Full));
                    }
                    mapvals.push(slot);
                    MAPVAL_BASE | ((index as u64) << 32)
                }
                None => 0,
            }
        }
        helper::MAP_UPDATE => {
            flush_mapvals(maps, mem.mapvals)?;
            let map_id = a1 as u32;
            let spec = maps.spec(map_id)?;
            let key = mem.arg(a2, spec.key_size as usize, pc)?;
            let value = mem.arg(a3, spec.value_size as usize, pc)?;
            maps.update(map_id, key, value)?;
            0
        }
        _ => return Err(Trap::BadHelper { pc, id }),
    })
}

/// Writes live map-value shadow buffers back into their maps so that
/// later helper calls (and the application, after the run) observe the
/// program's stores.
pub(crate) fn flush_mapvals(maps: &mut MapSet, mapvals: &[MapValSlot]) -> Result<(), Trap> {
    for sl in mapvals {
        maps.update(sl.map_id, &sl.key, &sl.data)?;
    }
    Ok(())
}

pub(crate) fn jump_target(pc: usize, off: i16, len: usize) -> Result<usize, Trap> {
    let to = pc as i64 + 1 + off as i64;
    if to < 0 || to as usize >= len {
        return Err(Trap::BadJump { pc, to });
    }
    Ok(to as usize)
}

#[inline(always)]
pub(crate) fn jump_taken(code: u8, a: u64, b: u64, wide: bool) -> Option<bool> {
    let (sa, sb) = if wide {
        (a as i64, b as i64)
    } else {
        (a as u32 as i32 as i64, b as u32 as i32 as i64)
    };
    Some(match code {
        JMP_JEQ => a == b,
        JMP_JNE => a != b,
        JMP_JGT => a > b,
        JMP_JGE => a >= b,
        JMP_JLT => a < b,
        JMP_JLE => a <= b,
        JMP_JSET => a & b != 0,
        JMP_JSGT => sa > sb,
        JMP_JSGE => sa >= sb,
        JMP_JSLT => sa < sb,
        JMP_JSLE => sa <= sb,
        _ => return None,
    })
}

/// The total ALU64 function over the *known* opcodes. Every known op is
/// defined on all inputs (division by zero yields 0, modulo by zero
/// leaves `lhs`, shift amounts are masked), so a caller whose `code`
/// is validated — the compiled tier, which lowers only what the
/// verifier's structural pass admitted — can apply
/// it without threading a `Result` through the hot loop. Unknown codes
/// fall through to `lhs` (a no-op); [`alu64`] screens them out first.
pub(crate) fn alu64_total(code: u8, lhs: u64, rhs: u64) -> u64 {
    match code {
        ALU_ADD => lhs.wrapping_add(rhs),
        ALU_SUB => lhs.wrapping_sub(rhs),
        ALU_MUL => lhs.wrapping_mul(rhs),
        ALU_DIV => lhs.checked_div(rhs).unwrap_or(0),
        ALU_MOD => lhs.checked_rem(rhs).unwrap_or(lhs),
        ALU_OR => lhs | rhs,
        ALU_AND => lhs & rhs,
        ALU_XOR => lhs ^ rhs,
        ALU_LSH => lhs.wrapping_shl(rhs as u32 & 63),
        ALU_RSH => lhs.wrapping_shr(rhs as u32 & 63),
        ALU_ARSH => ((lhs as i64).wrapping_shr(rhs as u32 & 63)) as u64,
        ALU_MOV => rhs,
        ALU_NEG => (lhs as i64).wrapping_neg() as u64,
        _ => lhs,
    }
}

pub(crate) fn alu64(op: u8, lhs: u64, rhs: u64, pc: usize) -> Result<u64, Trap> {
    match op & 0xf0 {
        ALU_ADD | ALU_SUB | ALU_MUL | ALU_DIV | ALU_MOD | ALU_OR | ALU_AND | ALU_XOR | ALU_LSH
        | ALU_RSH | ALU_ARSH | ALU_MOV | ALU_NEG => Ok(alu64_total(op & 0xf0, lhs, rhs)),
        _ => Err(Trap::IllegalInsn { pc, op }),
    }
}

/// 32-bit analogue of [`alu64_total`]; see there for the contract.
pub(crate) fn alu32_total(code: u8, lhs: u32, rhs: u32) -> u32 {
    match code {
        ALU_ADD => lhs.wrapping_add(rhs),
        ALU_SUB => lhs.wrapping_sub(rhs),
        ALU_MUL => lhs.wrapping_mul(rhs),
        ALU_DIV => lhs.checked_div(rhs).unwrap_or(0),
        ALU_MOD => lhs.checked_rem(rhs).unwrap_or(lhs),
        ALU_OR => lhs | rhs,
        ALU_AND => lhs & rhs,
        ALU_XOR => lhs ^ rhs,
        ALU_LSH => lhs.wrapping_shl(rhs & 31),
        ALU_RSH => lhs.wrapping_shr(rhs & 31),
        ALU_ARSH => ((lhs as i32).wrapping_shr(rhs & 31)) as u32,
        ALU_MOV => rhs,
        ALU_NEG => (lhs as i32).wrapping_neg() as u32,
        _ => lhs,
    }
}

pub(crate) fn alu32(op: u8, lhs: u32, rhs: u32, pc: usize) -> Result<u32, Trap> {
    match op & 0xf0 {
        ALU_ADD | ALU_SUB | ALU_MUL | ALU_DIV | ALU_MOD | ALU_OR | ALU_AND | ALU_XOR | ALU_LSH
        | ALU_RSH | ALU_ARSH | ALU_MOV | ALU_NEG => Ok(alu32_total(op & 0xf0, lhs, rhs)),
        _ => Err(Trap::IllegalInsn { pc, op }),
    }
}

/// Byte-swap with a *validated* width (16/32/64); total like
/// [`alu64_total`]. An invalid width acts as a no-op; [`endian`]
/// screens widths before execution reaches here.
pub(crate) fn endian_total(op: u8, width: i32, v: u64) -> u64 {
    let to_be = op & 0x08 == END_TO_BE;
    match (width, to_be) {
        (16, true) => (v as u16).swap_bytes() as u64,
        (16, false) => (v as u16) as u64,
        (32, true) => (v as u32).swap_bytes() as u64,
        (32, false) => (v as u32) as u64,
        (64, true) => v.swap_bytes(),
        (64, false) => v,
        _ => v,
    }
}

pub(crate) fn endian(op: u8, width: i32, v: u64, pc: usize) -> Result<u64, Trap> {
    match width {
        16 | 32 | 64 => Ok(endian_total(op, width, v)),
        _ => Err(Trap::IllegalInsn { pc, op }),
    }
}

fn write_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn write_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{Asm, Width};
    use crate::maps::MapSpec;
    use crate::program::Program;

    fn run_prog(prog: &Program, data: &[u8]) -> Result<(RunOutcome, RecordingEnv), Trap> {
        let mut scratch = [0u8; 64];
        let mut maps = MapSet::instantiate(&prog.maps).expect("maps");
        let mut env = RecordingEnv::default();
        let vm = Vm::new();
        let out = vm.run(
            prog,
            RunCtx {
                data,
                file_off: 0x1000,
                hop: 2,
                flags: 0xAB,
                scratch: &mut scratch,
            },
            &mut maps,
            &mut env,
        )?;
        Ok((out, env))
    }

    fn asm(f: impl FnOnce(&mut Asm)) -> Program {
        let mut a = Asm::new();
        f(&mut a);
        Program::new(a.finish().expect("assembles"))
    }

    #[test]
    fn mov_and_exit() {
        let p = asm(|a| {
            a.mov64_imm(0, 1234).exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 1234);
        assert_eq!(out.insns, 2);
    }

    #[test]
    fn alu64_semantics() {
        // ((((7 + 5) * 6) - 2) / 7) % 4 = (70 / 7) % 4 = 10 % 4 = 2
        let p = asm(|a| {
            a.mov64_imm(0, 7)
                .add64_imm(0, 5)
                .mul64_imm(0, 6)
                .sub64_imm(0, 2)
                .div64_imm(0, 7)
                .mod64_imm(0, 4)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 2);
    }

    #[test]
    fn div_and_mod_by_zero_are_defined() {
        let p = asm(|a| {
            a.mov64_imm(1, 0)
                .mov64_imm(0, 42)
                .div64_reg(0, 1) // 42 / 0 -> 0
                .add64_imm(0, 10) // 10
                .mod64_reg(0, 1) // 10 % 0 -> unchanged (10)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 10);
    }

    #[test]
    fn alu32_zero_extends() {
        let p = asm(|a| {
            a.ld_imm64(0, 0xFFFF_FFFF_FFFF_FFFF)
                .add32_imm(0, 1) // low 32 wrap to 0; upper bits cleared
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 0);
    }

    #[test]
    fn negative_imm_sign_extends_in_alu64() {
        let p = asm(|a| {
            a.mov64_imm(0, -1).exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, u64::MAX);
    }

    #[test]
    fn shifts_mask_amounts() {
        let p = asm(|a| {
            a.mov64_imm(0, 1).lsh64_imm(0, 64 + 3).exit(); // shift of 67 == 3
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 8);
    }

    #[test]
    fn arsh_is_arithmetic() {
        let p = asm(|a| {
            a.mov64_imm(0, -16).arsh64_imm(0, 2).exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret as i64, -4);
    }

    #[test]
    fn endianness_ops() {
        let p = asm(|a| {
            a.ld_imm64(0, 0x1122_3344_5566_7788).to_be(0, 16).exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 0x8877);
    }

    #[test]
    fn reads_block_data_through_ctx() {
        // r2 = ctx->data; r0 = *(u16*)(r2 + 2)
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::H, 0, 2, 2)
                .exit();
        });
        let data = [0x01u8, 0x02, 0x03, 0x04];
        let (out, _) = run_prog(&p, &data).expect("runs");
        assert_eq!(out.ret, 0x0403);
    }

    #[test]
    fn ctx_scalar_fields() {
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::FILE_OFF)
                .ldx(Width::W, 3, 1, ctx_off::HOP)
                .ldx(Width::W, 4, 1, ctx_off::FLAGS)
                .mov64_reg(0, 2)
                .add64_reg(0, 3)
                .add64_reg(0, 4)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 0x1000 + 2 + 0xAB);
    }

    #[test]
    fn data_read_past_end_traps() {
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::DW, 0, 2, 0)
                .exit();
        });
        let err = run_prog(&p, &[0u8; 4]).unwrap_err();
        assert!(matches!(err, Trap::OutOfBounds { len: 8, .. }), "{err:?}");
    }

    #[test]
    fn data_is_read_only() {
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .st_imm(Width::B, 2, 0, 0)
                .exit();
        });
        let err = run_prog(&p, &[0u8; 4]).unwrap_err();
        assert!(matches!(err, Trap::WriteToReadOnly { .. }), "{err:?}");
    }

    #[test]
    fn ctx_is_read_only() {
        let p = asm(|a| {
            a.st_imm(Width::DW, 1, 0, 7).exit();
        });
        let err = run_prog(&p, &[]).unwrap_err();
        assert!(matches!(err, Trap::WriteToReadOnly { .. }), "{err:?}");
    }

    #[test]
    fn stack_read_write() {
        let p = asm(|a| {
            a.mov64_imm(2, 0x5A5A)
                .stx(Width::DW, 10, -8, 2)
                .ldx(Width::DW, 0, 10, -8)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 0x5A5A);
    }

    #[test]
    fn stack_overflow_traps() {
        let p = asm(|a| {
            a.st_imm(Width::DW, 10, -(STACK_SIZE as i16) - 8, 1).exit();
        });
        let err = run_prog(&p, &[]).unwrap_err();
        assert!(matches!(err, Trap::OutOfBounds { .. }), "{err:?}");
    }

    #[test]
    fn stack_access_above_fp_traps() {
        let p = asm(|a| {
            a.st_imm(Width::DW, 10, 0, 1).exit();
        });
        let err = run_prog(&p, &[]).unwrap_err();
        assert!(matches!(err, Trap::OutOfBounds { .. }), "{err:?}");
    }

    #[test]
    fn scratch_read_write_via_ctx() {
        let p = asm(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::SCRATCH)
                .st_imm(Width::W, 2, 4, 0x77)
                .ldx(Width::W, 0, 2, 4)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 0x77);
    }

    #[test]
    fn loops_execute_and_budget_bounds_runaways() {
        let p = asm(|a| {
            a.mov64_imm(0, 0)
                .label("loop")
                .add64_imm(0, 1)
                .jlt_imm(0, 100, "loop")
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 100);

        let runaway = asm(|a| {
            a.label("spin").ja("spin").exit();
        });
        let err = run_prog(&runaway, &[]).unwrap_err();
        assert_eq!(err, Trap::BudgetExceeded);
    }

    #[test]
    fn fall_through_traps() {
        let p = asm(|a| {
            a.mov64_imm(0, 0);
        });
        let err = run_prog(&p, &[]).unwrap_err();
        assert_eq!(err, Trap::FellThrough);
    }

    #[test]
    fn helper_resubmit_and_return_code() {
        let p = asm(|a| {
            a.mov64_imm(1, 0x2000)
                .call(helper::RESUBMIT)
                .mov64_reg(6, 0)
                .mov64_imm(0, 1)
                .exit();
        });
        let (out, env) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 1);
        assert_eq!(env.resubmits, vec![0x2000]);
        assert_eq!(out.helper_calls, 1);
    }

    #[test]
    fn helper_emit_from_data() {
        // Emit the first 4 bytes of the block.
        let p = asm(|a| {
            a.ldx(Width::DW, 6, 1, ctx_off::DATA)
                .mov64_reg(1, 6)
                .mov64_imm(2, 4)
                .call(helper::EMIT)
                .mov64_imm(0, 2)
                .exit();
        });
        let data = [9u8, 8, 7, 6, 5];
        let (out, env) = run_prog(&p, &data).expect("runs");
        assert_eq!(out.ret, 2);
        assert_eq!(env.emitted, vec![9, 8, 7, 6]);
    }

    #[test]
    fn helper_clobbers_r1_to_r5() {
        let p = asm(|a| {
            a.mov64_imm(1, 11)
                .mov64_imm(2, 22)
                .mov64_imm(5, 55)
                .mov64_imm(6, 66)
                .call(helper::TRACE)
                .mov64_reg(0, 2)
                .add64_reg(0, 5)
                .add64_reg(0, 6) // r6 preserved
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 66);
    }

    #[test]
    fn map_lookup_miss_returns_null() {
        let mut a = Asm::new();
        a.mov64_imm(1, 0)
            .mov64_reg(2, 10)
            .add64_imm(2, -8)
            .st_imm(Width::DW, 10, -8, 99)
            .call(helper::MAP_LOOKUP)
            .exit();
        let p = Program::with_maps(a.finish().expect("assembles"), vec![MapSpec::hash(8, 8, 4)]);
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 0, "miss yields NULL");
    }

    #[test]
    fn map_update_then_lookup_reads_value() {
        let mut a = Asm::new();
        // key at fp-8 = 5; value at fp-16 = 1234; update then lookup,
        // then read through the returned pointer.
        a.st_imm(Width::DW, 10, -8, 5)
            .st_imm(Width::DW, 10, -16, 1234)
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
            .ldx(Width::DW, 0, 0, 0)
            .exit();
        let p = Program::with_maps(a.finish().expect("assembles"), vec![MapSpec::hash(8, 8, 4)]);
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 1234);
    }

    #[test]
    fn map_value_writes_flush_back() {
        // lookup array[0], increment through the pointer, exit; the map
        // must hold the incremented value afterwards.
        let mut a = Asm::new();
        a.st_imm(Width::W, 10, -4, 0)
            .mov64_imm(1, 0)
            .mov64_reg(2, 10)
            .add64_imm(2, -4)
            .call(helper::MAP_LOOKUP)
            .jne_imm(0, 0, "hit")
            .mov64_imm(0, -1)
            .exit()
            .label("hit")
            .ldx(Width::DW, 3, 0, 0)
            .add64_imm(3, 1)
            .stx(Width::DW, 0, 0, 3)
            .mov64_imm(0, 0)
            .exit();
        let p = Program::with_maps(a.finish().expect("assembles"), vec![MapSpec::array(8, 1)]);
        let mut scratch = [0u8; 16];
        let mut maps = MapSet::instantiate(&p.maps).expect("maps");
        let mut env = RecordingEnv::default();
        let vm = Vm::new();
        for expected in 1..=3u64 {
            vm.run(
                &p,
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
                .lookup(0, &0u32.to_le_bytes())
                .expect("lookup")
                .expect("hit");
            assert_eq!(u64::from_le_bytes(v.try_into().expect("8B")), expected);
        }
    }

    /// The byte-at-a-time copy this replaced allocated `len` bytes up
    /// front, so a hostile length aborted the process before the first
    /// out-of-bounds byte could trap. Whatever the length, from every
    /// region, both engines now return: the bytes when they are all
    /// there, the address of the first one that is not otherwise.
    #[test]
    fn helper_pointer_arguments_trap_at_the_first_byte_outside_their_region() {
        use crate::compile::tests::{region_program, regions, run_both_env, REGION_DATA};

        for region in regions() {
            let n = region.bytes.len();
            let past_the_end = |pc| Trap::OutOfBounds {
                addr: region.base + n as u64,
                len: 1,
                pc,
            };
            let lens = [
                0,
                1,
                n as u64,
                n as u64 + 1,
                u32::MAX as u64,
                i64::MAX as u64,
            ];
            for len in lens {
                let (p, at) = region_program(&region, |a| {
                    a.mov64_reg(1, 6).ld_imm64(2, len).call(helper::EMIT);
                });
                let ran = run_both_env(&p, &REGION_DATA, DEFAULT_INSN_BUDGET);
                let what = format!("emit({}, {len})", region.name);
                if len <= n as u64 {
                    ran.result.unwrap_or_else(|t| panic!("{what}: {t}"));
                    assert_eq!(ran.env.emitted, region.bytes[..len as usize], "{what}");
                } else {
                    assert_eq!(ran.result, Err(past_the_end(at + 3)), "{what}");
                    assert!(ran.env.emitted.is_empty(), "{what}");
                }
            }
            // A key one byte short of the region's end.
            for id in [helper::MAP_LOOKUP, helper::MAP_UPDATE] {
                let (p, at) = region_program(&region, |a| {
                    a.mov64_reg(2, 6)
                        .add64_imm(2, n as i32 - 7)
                        .mov64_reg(3, 10)
                        .add64_imm(3, -16)
                        .mov64_imm(1, 1)
                        .call(id);
                });
                let ran = run_both_env(&p, &REGION_DATA, DEFAULT_INSN_BUDGET);
                let what = format!("helper {id} with a short key in {}", region.name);
                assert_eq!(ran.result, Err(past_the_end(at + 5)), "{what}");
            }
        }

        // No byte is touched for a zero length, so none can be out of
        // bounds — even behind a pointer into no region at all.
        let p = asm(|a| {
            a.mov64_imm(1, 0).mov64_imm(2, 0).call(helper::EMIT).exit();
        });
        let ran = run_both_env(&p, &[], DEFAULT_INSN_BUDGET);
        assert_eq!(ran.result.expect("runs").ret, 0, "emit accepted 0 bytes");
    }

    #[test]
    fn unknown_helper_traps() {
        let p = asm(|a| {
            a.call(999).exit();
        });
        let err = run_prog(&p, &[]).unwrap_err();
        assert_eq!(err, Trap::BadHelper { pc: 0, id: 999 });
    }

    #[test]
    fn jmp32_compares_low_halves() {
        let p = asm(|a| {
            a.ld_imm64(2, 0xFFFF_FFFF_0000_0005)
                .mov64_imm(0, 0)
                .jeq32_imm(2, 5, "yes")
                .exit()
                .label("yes")
                .mov64_imm(0, 1)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 1);
    }

    #[test]
    fn signed_jumps() {
        let p = asm(|a| {
            a.mov64_imm(2, -5)
                .mov64_imm(0, 0)
                .jslt_imm(2, 0, "neg")
                .exit()
                .label("neg")
                .mov64_imm(0, 1)
                .exit();
        });
        let (out, _) = run_prog(&p, &[]).expect("runs");
        assert_eq!(out.ret, 1, "-5 < 0 signed");
    }

    #[test]
    fn trace_helper_records() {
        let p = asm(|a| {
            a.mov64_imm(1, 7).call(helper::TRACE).mov64_imm(0, 0).exit();
        });
        let (_, env) = run_prog(&p, &[]).expect("runs");
        assert_eq!(env.traces, vec![7]);
    }

    use crate::insn::Insn;

    /// Runs `r0 <code>.32 r1` with 64-bit preloaded operands; the result
    /// is `r0` after the op, so every vector also checks zero-extension.
    fn alu32_reg_vec(code: u8, dst_val: u64, rhs_val: u64) -> u64 {
        let mut a = Asm::new();
        a.ld_imm64(0, dst_val).ld_imm64(1, rhs_val);
        let mut insns = a.finish().expect("assembles");
        insns.push(Insn {
            op: CLS_ALU | SRC_X | code,
            dst: 0,
            src: 1,
            off: 0,
            imm: 0,
        });
        insns.push(Insn {
            op: CLS_JMP | JMP_EXIT,
            dst: 0,
            src: 0,
            off: 0,
            imm: 0,
        });
        let p = Program::new(insns);
        run_prog(&p, &[]).expect("runs").0.ret
    }

    /// The immediate form: `r0 <code>.32 imm` (imm is NOT sign-extended
    /// to 64 bits on the 32-bit class, unlike ALU64).
    fn alu32_imm_vec(code: u8, dst_val: u64, imm: i32) -> u64 {
        let mut a = Asm::new();
        a.ld_imm64(0, dst_val);
        let mut insns = a.finish().expect("assembles");
        insns.push(Insn {
            op: CLS_ALU | code,
            dst: 0,
            src: 0,
            off: 0,
            imm,
        });
        insns.push(Insn {
            op: CLS_JMP | JMP_EXIT,
            dst: 0,
            src: 0,
            off: 0,
            imm: 0,
        });
        let p = Program::new(insns);
        run_prog(&p, &[]).expect("runs").0.ret
    }

    #[test]
    fn alu32_add_sub_wrap_and_zero_extend() {
        assert_eq!(alu32_reg_vec(ALU_ADD, u64::MAX, 1), 0);
        assert_eq!(alu32_reg_vec(ALU_ADD, 0xAAAA_BBBB_0000_0001, 2), 3);
        assert_eq!(alu32_reg_vec(ALU_SUB, 0x1_0000_0005, 7), 0xFFFF_FFFE);
        // 32-bit imms are zero-extended, not sign-extended: -1 is +0xFFFF_FFFF.
        assert_eq!(alu32_imm_vec(ALU_ADD, 5, -1), 4);
    }

    #[test]
    fn alu32_mul_div_truncate_before_operating() {
        assert_eq!(alu32_reg_vec(ALU_MUL, 0x8000_0001, 2), 2);
        assert_eq!(alu32_reg_vec(ALU_DIV, 0xFFFF_FFFF_0000_0008, 2), 4);
        assert_eq!(alu32_reg_vec(ALU_DIV, 42, 0), 0, "div32 by zero yields 0");
    }

    #[test]
    fn alu32_mod_by_zero_leaves_truncated_dst() {
        assert_eq!(alu32_reg_vec(ALU_MOD, 10, 3), 1);
        // Linux semantics: mod-by-zero leaves dst, but dst is the 32-bit
        // truncation — the upper half must NOT survive.
        assert_eq!(alu32_reg_vec(ALU_MOD, 0xFFFF_FFFF_0000_0007, 0), 7);
        assert_eq!(alu32_imm_vec(ALU_MOD, 0xDEAD_BEEF_0000_002A, 0), 0x2A);
    }

    #[test]
    fn alu32_bitwise_clear_upper_half() {
        assert_eq!(
            alu32_reg_vec(ALU_OR, 0xFFFF_0000_0000_00F0, 0x0F),
            0x0000_00FF
        );
        assert_eq!(
            alu32_reg_vec(ALU_AND, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678),
            0x1234_5678
        );
        assert_eq!(
            alu32_reg_vec(ALU_XOR, 0xAAAA_AAAA_FFFF_FFFF, 0x0000_FFFF),
            0xFFFF_0000
        );
    }

    #[test]
    fn alu32_shifts_mask_to_31_and_stay_32_bit() {
        assert_eq!(alu32_reg_vec(ALU_LSH, 1, 33), 2, "shift of 33 == 1");
        assert_eq!(alu32_reg_vec(ALU_RSH, 0x8000_0000, 31), 1);
        // Logical right shift must not pull in bits 32..: only the low
        // word participates.
        assert_eq!(alu32_reg_vec(ALU_RSH, 0xFFFF_FFFF_8000_0000, 31), 1);
        // Arithmetic right shift sign-extends within 32 bits, then
        // zero-extends to 64.
        assert_eq!(alu32_reg_vec(ALU_ARSH, 0x8000_0000, 4), 0xF800_0000);
    }

    #[test]
    fn alu32_mov_and_neg_zero_extend() {
        assert_eq!(
            alu32_reg_vec(ALU_MOV, 0, 0xDEAD_BEEF_1234_5678),
            0x1234_5678
        );
        assert_eq!(alu32_imm_vec(ALU_NEG, 1, 0), 0xFFFF_FFFF);
        assert_eq!(alu32_imm_vec(ALU_NEG, 0xFFFF_FFFF_0000_0000, 0), 0);
    }

    fn end_vec(to_be: bool, width: i32, dst_val: u64) -> u64 {
        let mut a = Asm::new();
        a.ld_imm64(0, dst_val);
        let mut insns = a.finish().expect("assembles");
        insns.push(Insn {
            op: CLS_ALU | ALU_END | if to_be { END_TO_BE } else { 0 },
            dst: 0,
            src: 0,
            off: 0,
            imm: width,
        });
        insns.push(Insn {
            op: CLS_JMP | JMP_EXIT,
            dst: 0,
            src: 0,
            off: 0,
            imm: 0,
        });
        let p = Program::new(insns);
        run_prog(&p, &[]).expect("runs").0.ret
    }

    #[test]
    fn alu32_endian_zero_extends_all_widths() {
        let v = 0xAABB_CCDD_1122_3344u64;
        // On the little-endian simulated machine, to_le truncates and
        // zero-extends; to_be byte-swaps the truncated value.
        assert_eq!(end_vec(false, 16, v), 0x3344);
        assert_eq!(end_vec(false, 32, v), 0x1122_3344);
        assert_eq!(end_vec(false, 64, v), v);
        assert_eq!(end_vec(true, 16, v), 0x4433);
        assert_eq!(end_vec(true, 32, v), 0x4433_2211);
        assert_eq!(end_vec(true, 64, v), 0x4433_2211_DDCC_BBAA);
    }

    #[test]
    fn alu32_endian_bad_width_traps() {
        let mut a = Asm::new();
        a.ld_imm64(0, 7);
        let mut insns = a.finish().expect("assembles");
        insns.push(Insn {
            op: CLS_ALU | ALU_END,
            dst: 0,
            src: 0,
            off: 0,
            imm: 24,
        });
        let p = Program::new(insns);
        let err = run_prog(&p, &[]).unwrap_err();
        assert!(matches!(err, Trap::IllegalInsn { pc: 2, .. }), "{err:?}");
    }
}
