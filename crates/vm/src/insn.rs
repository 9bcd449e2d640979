//! eBPF-subset instruction set: constants, in-memory representation, and
//! the 8-byte wire encoding.
//!
//! The in-memory representation mirrors the wire format exactly: one
//! [`Insn`] per 8-byte slot. `LD_IMM64` therefore occupies **two**
//! consecutive `Insn` entries — the second carries the upper 32 bits of
//! the immediate in its `imm` field and zeros elsewhere — and jump
//! offsets count slots, exactly as in Linux. This uniformity keeps the
//! assembler, verifier, and interpreter free of slot/element conversion
//! bugs.

/// Number of general-purpose registers (`r0`–`r10`).
pub const NUM_REGS: usize = 11;
/// The frame-pointer register (read-only, points one past the stack top).
pub const REG_FP: u8 = 10;
/// Size of the per-invocation stack, bytes (as in Linux eBPF).
pub const STACK_SIZE: usize = 512;

// Instruction classes (low 3 bits of the opcode).
/// Immediate/64-bit loads.
pub const CLS_LD: u8 = 0x00;
/// Register loads from memory.
pub const CLS_LDX: u8 = 0x01;
/// Stores of immediates to memory.
pub const CLS_ST: u8 = 0x02;
/// Stores of registers to memory.
pub const CLS_STX: u8 = 0x03;
/// 32-bit ALU operations.
pub const CLS_ALU: u8 = 0x04;
/// 64-bit jumps.
pub const CLS_JMP: u8 = 0x05;
/// 32-bit compare jumps.
pub const CLS_JMP32: u8 = 0x06;
/// 64-bit ALU operations.
pub const CLS_ALU64: u8 = 0x07;

// Source modifier (bit 3): K = immediate operand, X = register operand.
/// Operand comes from the `imm` field.
pub const SRC_K: u8 = 0x00;
/// Operand comes from the `src` register.
pub const SRC_X: u8 = 0x08;

// ALU opcodes (high 4 bits).
/// `dst += src`
pub const ALU_ADD: u8 = 0x00;
/// `dst -= src`
pub const ALU_SUB: u8 = 0x10;
/// `dst *= src`
pub const ALU_MUL: u8 = 0x20;
/// `dst /= src` (unsigned; divide by zero yields 0)
pub const ALU_DIV: u8 = 0x30;
/// `dst |= src`
pub const ALU_OR: u8 = 0x40;
/// `dst &= src`
pub const ALU_AND: u8 = 0x50;
/// `dst <<= src`
pub const ALU_LSH: u8 = 0x60;
/// `dst >>= src` (logical)
pub const ALU_RSH: u8 = 0x70;
/// `dst = -dst`
pub const ALU_NEG: u8 = 0x80;
/// `dst %= src` (unsigned; modulo by zero leaves dst unchanged)
pub const ALU_MOD: u8 = 0x90;
/// `dst ^= src`
pub const ALU_XOR: u8 = 0xa0;
/// `dst = src`
pub const ALU_MOV: u8 = 0xb0;
/// `dst >>= src` (arithmetic)
pub const ALU_ARSH: u8 = 0xc0;
/// Endianness conversion; `imm` holds the width (16/32/64).
pub const ALU_END: u8 = 0xd0;

// Endianness directions for ALU_END (the source-bit field).
/// Convert to little-endian (truncation only in this VM's memory model).
pub const END_TO_LE: u8 = 0x00;
/// Convert to big-endian (byte swap).
pub const END_TO_BE: u8 = 0x08;

// Jump opcodes (high 4 bits).
/// Unconditional jump.
pub const JMP_JA: u8 = 0x00;
/// Jump if equal.
pub const JMP_JEQ: u8 = 0x10;
/// Jump if greater (unsigned).
pub const JMP_JGT: u8 = 0x20;
/// Jump if greater or equal (unsigned).
pub const JMP_JGE: u8 = 0x30;
/// Jump if `dst & src` non-zero.
pub const JMP_JSET: u8 = 0x40;
/// Jump if not equal.
pub const JMP_JNE: u8 = 0x50;
/// Jump if greater (signed).
pub const JMP_JSGT: u8 = 0x60;
/// Jump if greater or equal (signed).
pub const JMP_JSGE: u8 = 0x70;
/// Call a helper function (`imm` = helper id).
pub const JMP_CALL: u8 = 0x80;
/// Return from the program; `r0` is the result.
pub const JMP_EXIT: u8 = 0x90;
/// Jump if less (unsigned).
pub const JMP_JLT: u8 = 0xa0;
/// Jump if less or equal (unsigned).
pub const JMP_JLE: u8 = 0xb0;
/// Jump if less (signed).
pub const JMP_JSLT: u8 = 0xc0;
/// Jump if less or equal (signed).
pub const JMP_JSLE: u8 = 0xd0;

// Memory access widths (bits 3-4 for LD/ST classes).
/// 32-bit word.
pub const SZ_W: u8 = 0x00;
/// 16-bit half word.
pub const SZ_H: u8 = 0x08;
/// 8-bit byte.
pub const SZ_B: u8 = 0x10;
/// 64-bit double word.
pub const SZ_DW: u8 = 0x18;

// Memory access modes (bits 5-7 for LD/ST classes).
/// Immediate (used by `LD_IMM64`).
pub const MODE_IMM: u8 = 0x00;
/// Register + offset addressing.
pub const MODE_MEM: u8 = 0x60;

/// The `LD_IMM64` opcode (two-slot 64-bit immediate load).
pub const OP_LD_IMM64: u8 = CLS_LD | SZ_DW | MODE_IMM;

/// One 8-byte instruction slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Insn {
    /// Opcode byte.
    pub op: u8,
    /// Destination register (0–10).
    pub dst: u8,
    /// Source register (0–10).
    pub src: u8,
    /// Signed 16-bit offset (jumps: relative slots; memory: byte offset).
    pub off: i16,
    /// Signed 32-bit immediate.
    pub imm: i32,
}

impl Insn {
    /// Builds a plain (single-slot) instruction.
    pub const fn new(op: u8, dst: u8, src: u8, off: i16, imm: i32) -> Self {
        Insn {
            op,
            dst,
            src,
            off,
            imm,
        }
    }

    /// Builds the two slots of an `LD_IMM64` instruction.
    pub const fn ld_imm64(dst: u8, imm: u64) -> [Self; 2] {
        [
            Insn {
                op: OP_LD_IMM64,
                dst,
                src: 0,
                off: 0,
                imm: imm as u32 as i32,
            },
            Insn {
                op: 0,
                dst: 0,
                src: 0,
                off: 0,
                imm: (imm >> 32) as u32 as i32,
            },
        ]
    }

    /// The instruction class (low three opcode bits).
    pub fn class(&self) -> u8 {
        self.op & 0x07
    }

    /// True if this is the first slot of a two-slot instruction.
    pub fn is_wide(&self) -> bool {
        self.op == OP_LD_IMM64
    }
}

/// Reassembles the 64-bit immediate from an `LD_IMM64` slot pair.
pub fn imm64_of(lo: &Insn, hi: &Insn) -> u64 {
    (lo.imm as u32 as u64) | ((hi.imm as u32 as u64) << 32)
}

/// Errors from [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Byte stream length is not a multiple of 8.
    Truncated,
    /// An `LD_IMM64` first slot without its second slot.
    DanglingWide,
    /// The second slot of an `LD_IMM64` had non-zero op/regs/off fields.
    MalformedWide,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "instruction stream truncated"),
            DecodeError::DanglingWide => write!(f, "ld_imm64 missing its second slot"),
            DecodeError::MalformedWide => write!(f, "ld_imm64 second slot malformed"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a program into the 8-byte-per-slot eBPF wire format.
pub fn encode(insns: &[Insn]) -> Vec<u8> {
    let mut out = Vec::with_capacity(insns.len() * 8);
    for insn in insns {
        out.push(insn.op);
        out.push((insn.dst & 0x0f) | (insn.src << 4));
        out.extend_from_slice(&insn.off.to_le_bytes());
        out.extend_from_slice(&insn.imm.to_le_bytes());
    }
    out
}

/// Decodes a wire-format byte stream back into instruction slots.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the stream is truncated or an `LD_IMM64`
/// pair is malformed.
pub fn decode(bytes: &[u8]) -> Result<Vec<Insn>, DecodeError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(DecodeError::Truncated);
    }
    let mut out: Vec<Insn> = Vec::with_capacity(bytes.len() / 8);
    for s in bytes.chunks_exact(8) {
        out.push(Insn {
            op: s[0],
            dst: s[1] & 0x0f,
            src: s[1] >> 4,
            off: i16::from_le_bytes([s[2], s[3]]),
            imm: i32::from_le_bytes([s[4], s[5], s[6], s[7]]),
        });
    }
    // Validate LD_IMM64 pairing.
    let mut i = 0;
    while i < out.len() {
        if out[i].is_wide() {
            let Some(hi) = out.get(i + 1) else {
                return Err(DecodeError::DanglingWide);
            };
            if hi.op != 0 || hi.dst != 0 || hi.src != 0 || hi.off != 0 {
                return Err(DecodeError::MalformedWide);
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(out)
}

/// Renders one instruction slot as human-readable assembly.
pub fn disasm(insn: &Insn) -> String {
    let Insn {
        op,
        dst,
        src,
        off,
        imm,
    } = *insn;
    if op == 0 {
        return format!(".imm64_hi {imm:#x}");
    }
    let cls = insn.class();
    match cls {
        CLS_ALU | CLS_ALU64 => {
            let wide = if cls == CLS_ALU64 { "64" } else { "32" };
            let code = op & 0xf0;
            let name = match code {
                ALU_ADD => "add",
                ALU_SUB => "sub",
                ALU_MUL => "mul",
                ALU_DIV => "div",
                ALU_OR => "or",
                ALU_AND => "and",
                ALU_LSH => "lsh",
                ALU_RSH => "rsh",
                ALU_NEG => "neg",
                ALU_MOD => "mod",
                ALU_XOR => "xor",
                ALU_MOV => "mov",
                ALU_ARSH => "arsh",
                ALU_END => "end",
                _ => return format!("unknown_alu op={op:#x}"),
            };
            if code == ALU_NEG {
                format!("{name}{wide} r{dst}")
            } else if code == ALU_END {
                let dir = if op & SRC_X == END_TO_BE { "be" } else { "le" };
                format!("{dir}{imm} r{dst}")
            } else if op & SRC_X != 0 {
                format!("{name}{wide} r{dst}, r{src}")
            } else {
                format!("{name}{wide} r{dst}, {imm}")
            }
        }
        CLS_JMP | CLS_JMP32 => {
            let code = op & 0xf0;
            let suffix = if cls == CLS_JMP32 { "32" } else { "" };
            let name = match code {
                JMP_JA => return format!("ja +{off}"),
                JMP_JEQ => "jeq",
                JMP_JGT => "jgt",
                JMP_JGE => "jge",
                JMP_JSET => "jset",
                JMP_JNE => "jne",
                JMP_JSGT => "jsgt",
                JMP_JSGE => "jsge",
                JMP_CALL => return format!("call {imm}"),
                JMP_EXIT => return "exit".to_string(),
                JMP_JLT => "jlt",
                JMP_JLE => "jle",
                JMP_JSLT => "jslt",
                JMP_JSLE => "jsle",
                _ => return format!("unknown_jmp op={op:#x}"),
            };
            if op & SRC_X != 0 {
                format!("{name}{suffix} r{dst}, r{src}, +{off}")
            } else {
                format!("{name}{suffix} r{dst}, {imm}, +{off}")
            }
        }
        CLS_LDX => format!("ldx{} r{dst}, [r{src}{off:+}]", size_name(op)),
        CLS_STX => format!("stx{} [r{dst}{off:+}], r{src}", size_name(op)),
        CLS_ST => format!("st{} [r{dst}{off:+}], {imm}", size_name(op)),
        CLS_LD => {
            if op == OP_LD_IMM64 {
                format!("ld_imm64 r{dst}, lo={imm:#x}")
            } else {
                format!("unknown_ld op={op:#x}")
            }
        }
        _ => format!("unknown op={op:#x}"),
    }
}

/// Byte width of a memory-access opcode.
pub fn access_size(op: u8) -> usize {
    match op & 0x18 {
        SZ_W => 4,
        SZ_H => 2,
        SZ_B => 1,
        SZ_DW => 8,
        _ => unreachable!("two-bit field"),
    }
}

fn size_name(op: u8) -> &'static str {
    match op & 0x18 {
        SZ_W => "w",
        SZ_H => "h",
        SZ_B => "b",
        SZ_DW => "dw",
        _ => unreachable!("two-bit field"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_plain() {
        let prog = vec![
            Insn::new(CLS_ALU64 | ALU_MOV | SRC_K, 0, 0, 0, 42),
            Insn::new(CLS_ALU64 | ALU_ADD | SRC_X, 0, 1, 0, 0),
            Insn::new(CLS_JMP | JMP_JEQ | SRC_K, 0, 0, 2, -7),
            Insn::new(CLS_LDX | MODE_MEM | SZ_DW, 3, 1, 16, 0),
            Insn::new(CLS_JMP | JMP_EXIT, 0, 0, 0, 0),
        ];
        let bytes = encode(&prog);
        assert_eq!(bytes.len(), prog.len() * 8);
        assert_eq!(decode(&bytes).expect("decode"), prog);
    }

    #[test]
    fn encode_decode_roundtrip_wide() {
        let [lo, hi] = Insn::ld_imm64(2, 0xDEAD_BEEF_CAFE_F00D);
        let prog = vec![lo, hi, Insn::new(CLS_JMP | JMP_EXIT, 0, 0, 0, 0)];
        let bytes = encode(&prog);
        assert_eq!(bytes.len(), 3 * 8);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back, prog);
        assert_eq!(imm64_of(&back[0], &back[1]), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn decode_rejects_truncation() {
        assert_eq!(decode(&[0u8; 7]), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_rejects_dangling_wide() {
        let [lo, _] = Insn::ld_imm64(1, 7);
        let bytes = encode(&[lo]);
        assert_eq!(decode(&bytes), Err(DecodeError::DanglingWide));
    }

    #[test]
    fn decode_rejects_malformed_wide_second_slot() {
        let [lo, hi] = Insn::ld_imm64(1, 7);
        let mut bytes = encode(&[lo, hi]);
        bytes[8] = 0x07; // Stomp the second slot's op byte.
        assert_eq!(decode(&bytes), Err(DecodeError::MalformedWide));
    }

    #[test]
    fn negative_fields_survive_roundtrip() {
        let insn = Insn::new(CLS_LDX | MODE_MEM | SZ_B, 9, 10, -512, -1);
        let back = decode(&encode(&[insn])).expect("decode");
        assert_eq!(back[0].off, -512);
        assert_eq!(back[0].imm, -1);
    }

    #[test]
    fn access_sizes() {
        assert_eq!(access_size(CLS_LDX | MODE_MEM | SZ_B), 1);
        assert_eq!(access_size(CLS_LDX | MODE_MEM | SZ_H), 2);
        assert_eq!(access_size(CLS_LDX | MODE_MEM | SZ_W), 4);
        assert_eq!(access_size(CLS_LDX | MODE_MEM | SZ_DW), 8);
    }

    #[test]
    fn disasm_smoke() {
        assert_eq!(
            disasm(&Insn::new(CLS_ALU64 | ALU_MOV | SRC_K, 1, 0, 0, 5)),
            "mov64 r1, 5"
        );
        assert_eq!(disasm(&Insn::new(CLS_JMP | JMP_EXIT, 0, 0, 0, 0)), "exit");
        assert_eq!(
            disasm(&Insn::new(CLS_LDX | MODE_MEM | SZ_W, 2, 1, 8, 0)),
            "ldxw r2, [r1+8]"
        );
        let [lo, hi] = Insn::ld_imm64(3, 0x10);
        assert!(disasm(&lo).starts_with("ld_imm64 r3"));
        assert!(disasm(&hi).starts_with(".imm64_hi"));
    }

    #[test]
    fn class_extraction() {
        assert_eq!(
            Insn::new(CLS_ALU64 | ALU_ADD, 0, 0, 0, 0).class(),
            CLS_ALU64
        );
        let [lo, _] = Insn::ld_imm64(0, 0);
        assert_eq!(lo.class(), CLS_LD);
    }
}
