//! An eBPF-subset virtual machine for storage-hook programs.
//!
//! This crate is the stand-in for Linux's in-kernel eBPF runtime in the
//! `bpfstor` reproduction of *BPF for storage* (HotOS '21). It provides
//! the four pieces the paper's design needs:
//!
//! - [`insn`]/[`asm`]: the instruction set (Linux-compatible 8-byte
//!   encoding) and a label-based assembler used by the program
//!   generators in `bpfstor-core`;
//! - [`verifier`]: a static verifier enforcing the safety rules the
//!   paper leans on — bounded execution, no out-of-bounds access, the
//!   block buffer and context are read-only (§4's read-only traversals);
//! - [`interp`]: a safe interpreter with instruction accounting, used by
//!   the simulated kernel to both *execute* traversal logic over real
//!   block bytes and *charge* its cost to the simulated clock;
//! - [`compile`](mod@compile): a compilation tier that pre-decodes a program once
//!   into a flat array of width- and comparison-specialised ops run by
//!   one dispatch loop, observationally identical to the interpreter
//!   (same checks, same traps, same retired counts) but cheaper per hop
//!   in real host CPU; it lowers what the verifier admitted and
//!   declines none of it;
//! - [`maps`]: array/hash maps for program↔application communication.
//!
//! # Examples
//!
//! Assemble, verify, and run a minimal program that returns the first
//! eight bytes of the completed block:
//!
//! ```
//! use bpfstor_vm::asm::{Asm, Width};
//! use bpfstor_vm::interp::{RecordingEnv, RunCtx, Vm};
//! use bpfstor_vm::maps::MapSet;
//! use bpfstor_vm::program::{ctx_off, Program};
//! use bpfstor_vm::verifier::verify;
//!
//! let mut a = Asm::new();
//! a.ldx(Width::DW, 2, 1, ctx_off::DATA)       // r2 = ctx->data
//!     .ldx(Width::DW, 3, 1, ctx_off::DATA_END) // r3 = ctx->data_end
//!     .mov64_reg(4, 2)
//!     .add64_imm(4, 8)                          // r4 = data + 8
//!     .jgt_reg(4, 3, "short")                   // if r4 > data_end: bail
//!     .ldx(Width::DW, 0, 2, 0)                  // r0 = *(u64*)data
//!     .exit()
//!     .label("short")
//!     .mov64_imm(0, 0)
//!     .exit();
//! let prog = Program::new(a.finish().unwrap());
//! verify(&prog).expect("verifier accepts");
//!
//! let mut scratch = [0u8; 64];
//! let mut maps = MapSet::instantiate(&prog.maps).unwrap();
//! let mut env = RecordingEnv::default();
//! let data = 0x1122_3344_5566_7788u64.to_le_bytes();
//! let out = Vm::new()
//!     .run(
//!         &prog,
//!         RunCtx { data: &data, file_off: 0, hop: 0, flags: 0, scratch: &mut scratch },
//!         &mut maps,
//!         &mut env,
//!     )
//!     .unwrap();
//! assert_eq!(out.ret, 0x1122_3344_5566_7788);
//! ```

pub mod asm;
pub mod compile;
pub mod insn;
pub mod interp;
pub mod maps;
pub mod program;
pub mod verifier;

pub use asm::{Asm, Width};
pub use compile::{compile, CompiledProg, ExecEngine};
pub use interp::{ExecEnv, RecordingEnv, RunCtx, RunOutcome, Trap, Vm, DEFAULT_INSN_BUDGET};
pub use maps::{MapKind, MapSet, MapSpec};
pub use program::{action, ctx_off, helper, Program, EMIT_MAX, SCRATCH_SIZE};
pub use verifier::{admit, verify, ResourceBudget, Verified, VerifiedStats, VerifyError};

// The unit tests draw from the same generator as the integration
// suites (`tests/arb`), which has to name this crate from outside.
#[cfg(test)]
extern crate self as bpfstor_vm;
#[cfg(test)]
#[path = "../tests/arb/mod.rs"]
mod arb;
