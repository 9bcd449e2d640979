//! Label-based program assembler.
//!
//! Program generators in `bpfstor-core` build traversal functions
//! programmatically; this builder keeps them readable: named labels
//! instead of hand-counted jump offsets, and a fluent method per opcode
//! the generators and tests use.
//!
//! # Examples
//!
//! ```
//! use bpfstor_vm::asm::Asm;
//! use bpfstor_vm::insn::disasm;
//!
//! // r0 = r1 >= 10 ? 1 : 0
//! let prog = {
//!     let mut a = Asm::new();
//!     a.mov64_imm(0, 0)
//!         .jge_imm(1, 10, "ge")
//!         .ja("out")
//!         .label("ge")
//!         .mov64_imm(0, 1)
//!         .label("out")
//!         .exit();
//!     a.finish().expect("assembles")
//! };
//! assert_eq!(disasm(&prog[0]), "mov64 r0, 0");
//! ```

use std::collections::HashMap;

use crate::insn::{
    Insn, ALU_ADD, ALU_AND, ALU_ARSH, ALU_DIV, ALU_END, ALU_LSH, ALU_MOD, ALU_MOV, ALU_MUL,
    ALU_NEG, ALU_OR, ALU_RSH, ALU_SUB, ALU_XOR, CLS_ALU, CLS_ALU64, CLS_JMP, CLS_JMP32, CLS_LDX,
    CLS_ST, CLS_STX, END_TO_BE, END_TO_LE, JMP_CALL, JMP_EXIT, JMP_JA, JMP_JEQ, JMP_JGE, JMP_JGT,
    JMP_JLE, JMP_JLT, JMP_JNE, JMP_JSET, JMP_JSLT, MODE_MEM, SRC_K, SRC_X, SZ_B, SZ_DW, SZ_H, SZ_W,
};

/// Assembly error: an undefined or duplicate label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A jump referenced a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// Jump displacement does not fit in the 16-bit offset field.
    JumpOutOfRange(String),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::JumpOutOfRange(l) => write!(f, "jump to `{l}` out of i16 range"),
        }
    }
}

impl std::error::Error for AsmError {}

enum Slot {
    Fixed(Insn),
    Jump { insn: Insn, target: String },
}

// With the two-slot LD_IMM64 representation every `Slot` is exactly one
// encoding slot, so label positions are plain indices into `slots`.

/// Fluent assembler accumulating instructions and resolving labels.
#[derive(Default)]
pub struct Asm {
    slots: Vec<Slot>,
    labels: HashMap<String, usize>,
    errors: Vec<AsmError>,
}

/// Memory access width selector used by the load/store methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    DW,
}

impl Width {
    fn bits(self) -> u8 {
        match self {
            Width::B => SZ_B,
            Width::H => SZ_H,
            Width::W => SZ_W,
            Width::DW => SZ_DW,
        }
    }
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Asm::default()
    }

    /// Current slot count (wide instructions already occupy two slots).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn push(&mut self, insn: Insn) -> &mut Self {
        self.slots.push(Slot::Fixed(insn));
        self
    }

    fn push_jump(&mut self, insn: Insn, target: &str) -> &mut Self {
        self.slots.push(Slot::Jump {
            insn,
            target: target.to_string(),
        });
        self
    }

    /// Defines `name` at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let pos = self.slots.len();
        if self.labels.insert(name.to_string(), pos).is_some() {
            self.errors.push(AsmError::DuplicateLabel(name.to_string()));
        }
        self
    }

    // --- 64-bit ALU -------------------------------------------------------

    /// `dst = imm` (sign-extended to 64 bits).
    pub fn mov64_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_MOV | SRC_K, dst, 0, 0, imm))
    }

    /// `dst = src`.
    pub fn mov64_reg(&mut self, dst: u8, src: u8) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_MOV | SRC_X, dst, src, 0, 0))
    }

    /// `dst = imm64` (two-slot load).
    pub fn ld_imm64(&mut self, dst: u8, imm: u64) -> &mut Self {
        let [lo, hi] = Insn::ld_imm64(dst, imm);
        self.push(lo);
        self.push(hi)
    }

    /// `dst += imm`.
    pub fn add64_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_ADD | SRC_K, dst, 0, 0, imm))
    }

    /// `dst += src`.
    pub fn add64_reg(&mut self, dst: u8, src: u8) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_ADD | SRC_X, dst, src, 0, 0))
    }

    /// `dst -= imm`.
    pub fn sub64_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_SUB | SRC_K, dst, 0, 0, imm))
    }

    /// `dst -= src`.
    pub fn sub64_reg(&mut self, dst: u8, src: u8) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_SUB | SRC_X, dst, src, 0, 0))
    }

    /// `dst *= imm`.
    pub fn mul64_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_MUL | SRC_K, dst, 0, 0, imm))
    }

    /// `dst /= imm` (unsigned).
    pub fn div64_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_DIV | SRC_K, dst, 0, 0, imm))
    }

    /// `dst /= src` (unsigned).
    pub fn div64_reg(&mut self, dst: u8, src: u8) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_DIV | SRC_X, dst, src, 0, 0))
    }

    /// `dst %= imm` (unsigned).
    pub fn mod64_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_MOD | SRC_K, dst, 0, 0, imm))
    }

    /// `dst %= src` (unsigned).
    pub fn mod64_reg(&mut self, dst: u8, src: u8) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_MOD | SRC_X, dst, src, 0, 0))
    }

    /// `dst &= imm`.
    pub fn and64_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_AND | SRC_K, dst, 0, 0, imm))
    }

    /// `dst |= imm`.
    pub fn or64_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_OR | SRC_K, dst, 0, 0, imm))
    }

    /// `dst ^= imm`.
    pub fn xor64_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_XOR | SRC_K, dst, 0, 0, imm))
    }

    /// `dst <<= imm`.
    pub fn lsh64_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_LSH | SRC_K, dst, 0, 0, imm))
    }

    /// `dst >>= imm` (logical).
    pub fn rsh64_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_RSH | SRC_K, dst, 0, 0, imm))
    }

    /// `dst >>= imm` (arithmetic).
    pub fn arsh64_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_ARSH | SRC_K, dst, 0, 0, imm))
    }

    /// `dst = -dst`.
    pub fn neg64(&mut self, dst: u8) -> &mut Self {
        self.push(Insn::new(CLS_ALU64 | ALU_NEG, dst, 0, 0, 0))
    }

    // --- 32-bit ALU -------------------------------------------------------

    /// `w(dst) = imm` (upper 32 bits zeroed).
    pub fn mov32_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU | ALU_MOV | SRC_K, dst, 0, 0, imm))
    }

    /// `w(dst) = w(src)` (upper 32 bits zeroed).
    pub fn mov32_reg(&mut self, dst: u8, src: u8) -> &mut Self {
        self.push(Insn::new(CLS_ALU | ALU_MOV | SRC_X, dst, src, 0, 0))
    }

    /// `w(dst) += imm`.
    pub fn add32_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ALU | ALU_ADD | SRC_K, dst, 0, 0, imm))
    }

    /// Byte-swaps `dst` to big-endian at the given width (16/32/64).
    pub fn to_be(&mut self, dst: u8, width_bits: i32) -> &mut Self {
        self.push(Insn::new(
            CLS_ALU | ALU_END | END_TO_BE,
            dst,
            0,
            0,
            width_bits,
        ))
    }

    /// Interprets `dst` as little-endian at the given width (truncates).
    pub fn to_le(&mut self, dst: u8, width_bits: i32) -> &mut Self {
        self.push(Insn::new(
            CLS_ALU | ALU_END | END_TO_LE,
            dst,
            0,
            0,
            width_bits,
        ))
    }

    // --- Memory -----------------------------------------------------------

    /// `dst = *(width*)(src + off)`.
    pub fn ldx(&mut self, w: Width, dst: u8, src: u8, off: i16) -> &mut Self {
        self.push(Insn::new(CLS_LDX | MODE_MEM | w.bits(), dst, src, off, 0))
    }

    /// `*(width*)(dst + off) = src`.
    pub fn stx(&mut self, w: Width, dst: u8, off: i16, src: u8) -> &mut Self {
        self.push(Insn::new(CLS_STX | MODE_MEM | w.bits(), dst, src, off, 0))
    }

    /// `*(width*)(dst + off) = imm`.
    pub fn st_imm(&mut self, w: Width, dst: u8, off: i16, imm: i32) -> &mut Self {
        self.push(Insn::new(CLS_ST | MODE_MEM | w.bits(), dst, 0, off, imm))
    }

    // --- Control flow -----------------------------------------------------

    /// Unconditional jump to `target`.
    pub fn ja(&mut self, target: &str) -> &mut Self {
        self.push_jump(Insn::new(CLS_JMP | JMP_JA, 0, 0, 0, 0), target)
    }

    /// Calls helper `id`.
    pub fn call(&mut self, id: i32) -> &mut Self {
        self.push(Insn::new(CLS_JMP | JMP_CALL, 0, 0, 0, id))
    }

    /// Returns from the program.
    pub fn exit(&mut self) -> &mut Self {
        self.push(Insn::new(CLS_JMP | JMP_EXIT, 0, 0, 0, 0))
    }

    fn jcond_imm(&mut self, opcode: u8, reg: u8, imm: i32, target: &str) -> &mut Self {
        self.push_jump(Insn::new(CLS_JMP | opcode | SRC_K, reg, 0, 0, imm), target)
    }

    fn jcond_reg(&mut self, opcode: u8, reg: u8, src: u8, target: &str) -> &mut Self {
        self.push_jump(Insn::new(CLS_JMP | opcode | SRC_X, reg, src, 0, 0), target)
    }

    /// `if reg == imm goto target`.
    pub fn jeq_imm(&mut self, reg: u8, imm: i32, target: &str) -> &mut Self {
        self.jcond_imm(JMP_JEQ, reg, imm, target)
    }

    /// `if reg == src goto target`.
    pub fn jeq_reg(&mut self, reg: u8, src: u8, target: &str) -> &mut Self {
        self.jcond_reg(JMP_JEQ, reg, src, target)
    }

    /// `if reg != imm goto target`.
    pub fn jne_imm(&mut self, reg: u8, imm: i32, target: &str) -> &mut Self {
        self.jcond_imm(JMP_JNE, reg, imm, target)
    }

    /// `if reg != src goto target`.
    pub fn jne_reg(&mut self, reg: u8, src: u8, target: &str) -> &mut Self {
        self.jcond_reg(JMP_JNE, reg, src, target)
    }

    /// `if reg > imm goto target` (unsigned).
    pub fn jgt_imm(&mut self, reg: u8, imm: i32, target: &str) -> &mut Self {
        self.jcond_imm(JMP_JGT, reg, imm, target)
    }

    /// `if reg > src goto target` (unsigned).
    pub fn jgt_reg(&mut self, reg: u8, src: u8, target: &str) -> &mut Self {
        self.jcond_reg(JMP_JGT, reg, src, target)
    }

    /// `if reg >= imm goto target` (unsigned).
    pub fn jge_imm(&mut self, reg: u8, imm: i32, target: &str) -> &mut Self {
        self.jcond_imm(JMP_JGE, reg, imm, target)
    }

    /// `if reg >= src goto target` (unsigned).
    pub fn jge_reg(&mut self, reg: u8, src: u8, target: &str) -> &mut Self {
        self.jcond_reg(JMP_JGE, reg, src, target)
    }

    /// `if reg < imm goto target` (unsigned).
    pub fn jlt_imm(&mut self, reg: u8, imm: i32, target: &str) -> &mut Self {
        self.jcond_imm(JMP_JLT, reg, imm, target)
    }

    /// `if reg < src goto target` (unsigned).
    pub fn jlt_reg(&mut self, reg: u8, src: u8, target: &str) -> &mut Self {
        self.jcond_reg(JMP_JLT, reg, src, target)
    }

    /// `if reg <= imm goto target` (unsigned).
    pub fn jle_imm(&mut self, reg: u8, imm: i32, target: &str) -> &mut Self {
        self.jcond_imm(JMP_JLE, reg, imm, target)
    }

    /// `if reg <= src goto target` (unsigned).
    pub fn jle_reg(&mut self, reg: u8, src: u8, target: &str) -> &mut Self {
        self.jcond_reg(JMP_JLE, reg, src, target)
    }

    /// `if reg < imm goto target` (signed).
    pub fn jslt_imm(&mut self, reg: u8, imm: i32, target: &str) -> &mut Self {
        self.jcond_imm(JMP_JSLT, reg, imm, target)
    }

    /// `if reg & imm goto target`.
    pub fn jset_imm(&mut self, reg: u8, imm: i32, target: &str) -> &mut Self {
        self.jcond_imm(JMP_JSET, reg, imm, target)
    }

    /// 32-bit `if w(reg) == imm goto target`.
    pub fn jeq32_imm(&mut self, reg: u8, imm: i32, target: &str) -> &mut Self {
        self.push_jump(
            Insn::new(CLS_JMP32 | JMP_JEQ | SRC_K, reg, 0, 0, imm),
            target,
        )
    }

    // --- Finishing --------------------------------------------------------

    /// Resolves labels and returns the instruction vector.
    ///
    /// # Errors
    ///
    /// Returns the first [`AsmError`] recorded (duplicate label) or found
    /// during resolution (undefined label, jump out of i16 range).
    pub fn finish(self) -> Result<Vec<Insn>, AsmError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let mut out = Vec::with_capacity(self.slots.len());
        for (pc, slot) in self.slots.into_iter().enumerate() {
            match slot {
                Slot::Fixed(insn) => out.push(insn),
                Slot::Jump { mut insn, target } => {
                    let Some(&target_pc) = self.labels.get(&target) else {
                        return Err(AsmError::UndefinedLabel(target));
                    };
                    let rel = target_pc as i64 - pc as i64 - 1;
                    let off =
                        i16::try_from(rel).map_err(|_| AsmError::JumpOutOfRange(target.clone()))?;
                    insn.off = off;
                    out.push(insn);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::disasm;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Asm::new();
        a.mov64_imm(0, 0)
            .label("loop")
            .add64_imm(0, 1)
            .jlt_imm(0, 10, "loop")
            .jeq_imm(0, 10, "done")
            .mov64_imm(0, -1)
            .label("done")
            .exit();
        let prog = a.finish().expect("assembles");
        // jlt at pc=2 targets pc=1 -> off = 1 - 2 - 1 = -2.
        assert_eq!(prog[2].off, -2);
        // jeq at pc=3 targets pc=5 -> off = 5 - 3 - 1 = +1.
        assert_eq!(prog[3].off, 1);
    }

    #[test]
    fn wide_instructions_shift_pcs() {
        let mut a = Asm::new();
        a.ld_imm64(1, 0xFFFF_FFFF_FFFF) // occupies pc 0..2
            .ja("end") // pc 2
            .mov64_imm(0, 7) // pc 3
            .label("end")
            .exit(); // pc 4
        let prog = a.finish().expect("assembles");
        assert_eq!(prog[2].off, 1, "ja at pc2 to pc4 is +1");
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Asm::new();
        a.ja("nowhere").exit();
        assert_eq!(
            a.finish(),
            Err(AsmError::UndefinedLabel("nowhere".to_string()))
        );
    }

    #[test]
    fn duplicate_label_errors() {
        let mut a = Asm::new();
        a.label("x").mov64_imm(0, 0).label("x").exit();
        assert_eq!(a.finish(), Err(AsmError::DuplicateLabel("x".to_string())));
    }

    #[test]
    fn emits_expected_opcodes() {
        let mut a = Asm::new();
        a.mov64_imm(3, 9)
            .ldx(Width::W, 2, 1, 4)
            .stx(Width::DW, 10, -8, 2)
            .exit();
        let prog = a.finish().expect("assembles");
        assert_eq!(disasm(&prog[0]), "mov64 r3, 9");
        assert_eq!(disasm(&prog[1]), "ldxw r2, [r1+4]");
        assert_eq!(disasm(&prog[2]), "stxdw [r10-8], r2");
        assert_eq!(disasm(&prog[3]), "exit");
    }

    #[test]
    fn len_counts_wide_slots() {
        let mut a = Asm::new();
        a.ld_imm64(1, 1).exit();
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn label_after_wide_resolves_to_slot() {
        let mut a = Asm::new();
        a.ja("target") // pc 0
            .ld_imm64(1, 9) // pc 1..3
            .label("target")
            .exit(); // pc 3
        let prog = a.finish().expect("assembles");
        assert_eq!(prog[0].off, 2, "ja at pc0 to pc3 is +2");
    }
}
