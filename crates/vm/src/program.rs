//! Program container, the storage-hook context ABI, helper declarations,
//! and action codes shared by the verifier, the interpreter, and the
//! kernel hook dispatch in `bpfstor-kernel`.

use crate::insn::Insn;
use crate::maps::MapSpec;

/// Context ABI offsets for the storage-hook program type.
///
/// The context passed in `r1` is a flat struct of eight-byte fields. BPF
/// programs read it with `ldx` at these offsets; the verifier knows which
/// fields are pointers and which are scalars.
pub mod ctx_off {
    /// `u64` pointer to the first byte of the completed block buffer.
    pub const DATA: i16 = 0x00;
    /// `u64` pointer one past the last byte of the block buffer.
    pub const DATA_END: i16 = 0x08;
    /// `u64` file offset the completed block was read from.
    pub const FILE_OFF: i16 = 0x10;
    /// `u32` number of resubmissions already performed in this chain.
    pub const HOP: i16 = 0x18;
    /// `u32` application-defined flags passed at install time.
    pub const FLAGS: i16 = 0x1c;
    /// `u64` pointer to the chain's scratch area (read-write).
    pub const SCRATCH: i16 = 0x20;
    /// `u64` pointer one past the scratch area.
    pub const SCRATCH_END: i16 = 0x28;
    /// Total context size in bytes.
    pub const SIZE: i16 = 0x30;
}

/// Size of the per-chain scratch buffer visible through the context.
pub const SCRATCH_SIZE: usize = 256;

/// Action codes a storage-BPF program returns in `r0`.
///
/// The kernel cross-checks the code against the helpers the program
/// actually invoked (e.g. returning [`ACT_RESUBMIT`] without having
/// called the resubmit helper aborts the chain), so a buggy program
/// cannot wedge an I/O chain.
pub mod action {
    /// Deliver the raw block buffer to the application unchanged.
    pub const ACT_PASS: u64 = 0;
    /// The descriptor was recycled and reissued; do not complete to the
    /// application yet.
    pub const ACT_RESUBMIT: u64 = 1;
    /// Complete to the application with the bytes built via the emit
    /// helper instead of the raw block.
    pub const ACT_EMIT: u64 = 2;
    /// Terminate the chain and complete to the application with an
    /// "ended by program" status (e.g. key not found).
    pub const ACT_HALT: u64 = 3;
}

/// Helper function identifiers (the `imm` field of a `call` instruction).
pub mod helper {
    /// `trace(code: u64) -> 0` — diagnostic counter, no side effects.
    pub const TRACE: i32 = 1;
    /// `resubmit(file_off: u64) -> 0 | -err` — recycle the completed
    /// NVMe descriptor and reissue it for the block at `file_off` in the
    /// attached file. At most one resubmit per invocation.
    pub const RESUBMIT: i32 = 2;
    /// `emit(ptr: *const u8, len: u64) -> len | -err` — append bytes to
    /// the chain's result buffer (returned to the application on
    /// `ACT_EMIT`).
    pub const EMIT: i32 = 3;
    /// `map_lookup(map_id: u32, key: *const u8) -> *mut u8 | NULL`.
    pub const MAP_LOOKUP: i32 = 4;
    /// `map_update(map_id: u32, key: *const u8, value: *const u8) -> 0 | -err`.
    pub const MAP_UPDATE: i32 = 5;
}

/// Maximum bytes a program may emit into its result buffer per chain.
pub const EMIT_MAX: usize = 4096;

/// A storage-BPF program: instructions plus declared maps.
///
/// Programs must pass [`crate::verifier::verify`] before they can be
/// attached; `bpfstor-kernel` refuses unverified programs, mirroring the
/// kernel's load-time verification.
#[derive(Debug, Clone)]
pub struct Program {
    /// Instruction stream (labels already resolved).
    pub insns: Vec<Insn>,
    /// Maps referenced by `map_lookup`/`map_update` helper calls, indexed
    /// by map id.
    pub maps: Vec<MapSpec>,
}

impl Program {
    /// Creates a program with no maps.
    pub fn new(insns: Vec<Insn>) -> Self {
        Program {
            insns,
            maps: Vec::new(),
        }
    }

    /// Creates a program with maps.
    pub fn with_maps(insns: Vec<Insn>, maps: Vec<MapSpec>) -> Self {
        Program { insns, maps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    #[test]
    fn ctx_layout_is_contiguous() {
        assert_eq!(ctx_off::DATA, 0x00);
        assert_eq!(ctx_off::DATA_END, 0x08);
        assert_eq!(ctx_off::FILE_OFF, 0x10);
        assert_eq!(ctx_off::HOP, 0x18);
        assert_eq!(ctx_off::FLAGS, 0x1c);
        assert_eq!(ctx_off::SCRATCH, 0x20);
        assert_eq!(ctx_off::SCRATCH_END, 0x28);
        assert_eq!(ctx_off::SIZE, 0x30);
    }

    #[test]
    fn ld_imm64_occupies_two_slots() {
        let mut a = Asm::new();
        a.ld_imm64(1, 42).mov64_imm(0, 0).exit();
        let p = Program::new(a.finish().expect("assembles"));
        assert_eq!(p.insns.len(), 4, "ld_imm64 occupies two slots");
    }
}
