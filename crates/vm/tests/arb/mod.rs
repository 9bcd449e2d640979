//! The random program generator behind the verifier's and the engines'
//! property tests. It lives here, by path, because two suites draw from
//! it: the workspace's `tests/props.rs` (soundness and engine
//! differentials, through the public API) and this crate's unit tests
//! (the verifier against its slow oracle, which is private).

use proptest::prelude::*;

use bpfstor_vm::insn::{Insn, ALU_ARSH, ALU_DIV, ALU_MOD, ALU_RSH, CLS_ALU, SRC_X};
use bpfstor_vm::{ctx_off, helper, Asm, MapSpec, Program, Width};

/// The four access widths, with their size in bytes.
const WIDTHS: [(Width, i16); 4] = [(Width::B, 1), (Width::H, 2), (Width::W, 4), (Width::DW, 8)];

fn width() -> impl Strategy<Value = Width> {
    (0usize..4).prop_map(|i| WIDTHS[i].0)
}

/// A `u32` of any magnitude: its bit length is what is uniform.
fn magnitude() -> impl Strategy<Value = u32> {
    (any::<u32>(), 0u32..32).prop_map(|(v, shift)| v >> shift)
}

/// A 32-bit ALU code. Half the time one of the four whose result a
/// verifier reading whole registers gets wrong — the right shifts,
/// division and modulo carry high bits down — and half the time any of
/// the thirteen below `ALU_END`.
fn alu32_code() -> impl Strategy<Value = u8> {
    let wrong_whole = [ALU_RSH, ALU_ARSH, ALU_DIV, ALU_MOD];
    prop_oneof![
        (0u8..13).prop_map(|i| i << 4),
        (0usize..4).prop_map(move |i| wrong_whole[i]),
    ]
}

/// Where [`load_through`] reads: the block (`true`) or scratch, the
/// width, the offset, the block bytes proven, the destination.
type IndexedLoad = (bool, Width, i16, i32, u8);

fn indexed_load() -> impl Strategy<Value = IndexedLoad> {
    (any::<bool>(), width(), 0i16..16, 8i32..33, 0u8..6)
}

/// `r7 = data` (behind a `data_end` proof) or `scratch`; `r7 += idx`;
/// a load through `r7`.
fn load_through(idx: u8, (into_data, w, off, proven, dst): IndexedLoad) -> Vec<Insn> {
    let mut a = Asm::new();
    if into_data {
        a.ldx(Width::DW, 7, 6, ctx_off::DATA)
            .ldx(Width::DW, 8, 6, ctx_off::DATA_END)
            .mov64_reg(9, 7)
            .add64_imm(9, proven)
            .jgt_reg(9, 8, "short");
    } else {
        a.ldx(Width::DW, 7, 6, ctx_off::SCRATCH);
    }
    a.add64_reg(7, idx).ldx(w, dst, 7, off).label("short");
    a.finish().expect("fragment")
}

/// Maps every generated program declares: an array (lookups always
/// hit) and a hash map (they miss until the program updates it).
pub fn arb_maps() -> Vec<MapSpec> {
    vec![MapSpec::array(16, 2), MapSpec::hash(8, 16, 4)]
}

/// `r0..=r5 = 0`: what a fragment that called a helper (which clobbers
/// `r1..=r5`) or branched leaves behind, so that the fragments after it
/// still verify and the verifier's paths through it converge.
fn zero_low_regs(a: &mut Asm) {
    for r in 0..6 {
        a.mov64_imm(r, 0);
    }
}

/// A tiny generator of arbitrary-ish programs. Many are rejected by the
/// verifier; the properties only concern the accepted ones.
///
/// Register discipline: the prologue saves the context pointer in `r6`
/// and zeroes `r0` and `r2..=r5` (`r1` stays the context pointer until
/// an ALU fragment overwrites it); the ALU fragments write `r0..=r5`
/// only; the memory and helper
/// fragments keep their pointers in `r7..=r9`, so a preceding ALU
/// fragment cannot turn one into a scalar. Fragments are assembled on
/// their own (labels are local) and concatenated: jumps are relative.
pub fn arb_program() -> impl Strategy<Value = Program> {
    let insn = prop_oneof![
        // ALU imm on r0-r5.
        3 => (0u8..6, any::<i32>(), 0usize..7).prop_map(|(dst, imm, which)| {
            let mut a = Asm::new();
            match which {
                0 => a.mov64_imm(dst, imm),
                1 => a.add64_imm(dst, imm),
                2 => a.mul64_imm(dst, imm),
                3 => a.and64_imm(dst, imm),
                4 => a.rsh64_imm(dst, (imm & 63).abs()),
                5 => a.xor64_imm(dst, imm),
                _ => a.or64_imm(dst, imm),
            };
            a.finish().expect("fragment")
        }),
        // Reg-to-reg moves and arithmetic.
        2 => (0u8..6, 0u8..6, 0usize..3).prop_map(|(dst, src, which)| {
            let mut a = Asm::new();
            match which {
                0 => a.mov64_reg(dst, src),
                1 => a.add64_reg(dst, src),
                _ => a.sub64_reg(dst, src),
            };
            a.finish().expect("fragment")
        }),
        // Stack traffic.
        1 => (0u8..6, 1u8..=8).prop_map(|(reg, slot)| {
            let mut a = Asm::new();
            a.stx(Width::DW, 10, -8 * slot as i16, reg)
                .ldx(Width::DW, reg, 10, -8 * slot as i16);
            a.finish().expect("fragment")
        }),
        // Context loads through r1 (which an ALU fragment may have
        // overwritten: the verifier must catch that).
        1 => (2u8..6, 0usize..3).prop_map(|(dst, which)| {
            let mut a = Asm::new();
            match which {
                0 => a.ldx(Width::DW, dst, 1, ctx_off::DATA),
                1 => a.ldx(Width::DW, dst, 1, ctx_off::FILE_OFF),
                _ => a.ldx(Width::W, dst, 1, ctx_off::HOP),
            };
            a.finish().expect("fragment")
        }),
        // Data access guarded by a bound check (sometimes mis-sized on
        // purpose: the verifier must catch those).
        1 => (0i16..24, 1usize..9).prop_map(|(off, proven)| {
            let mut a = Asm::new();
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::DW, 3, 1, ctx_off::DATA_END)
                .mov64_reg(4, 2)
                .add64_imm(4, proven as i32)
                .jgt_reg(4, 3, "skip")
                .ldx(Width::B, 5, 2, off)
                .label("skip")
                .mov64_imm(5, 0);
            a.finish().expect("fragment")
        }),
        // Every width x every context field. Only a field's own width
        // verifies, so that is what is drawn three times in four;
        // scalars land in r0-r5, pointers in r7.
        2 => (0usize..7, width(), 0usize..4, 0u8..6).prop_map(|(field, w, natural, dst)| {
            const FIELDS: [(i16, Width, bool); 7] = [
                (ctx_off::DATA, Width::DW, true),
                (ctx_off::DATA_END, Width::DW, true),
                (ctx_off::FILE_OFF, Width::DW, false),
                (ctx_off::HOP, Width::W, false),
                (ctx_off::FLAGS, Width::W, false),
                (ctx_off::SCRATCH, Width::DW, true),
                (ctx_off::SCRATCH_END, Width::DW, false),
            ];
            let (off, own, pointer) = FIELDS[field];
            let mut a = Asm::new();
            a.ldx(
                if natural > 0 { own } else { w },
                if pointer { 7 } else { dst },
                6,
                off,
            );
            a.finish().expect("fragment")
        }),
        // Every width x block data behind a `data_end` proof.
        2 => (width(), 0i16..28, 12i32..33, 0u8..6).prop_map(|(w, off, proven, dst)| {
            let mut a = Asm::new();
            a.mov64_imm(dst, 0)
                .ldx(Width::DW, 7, 6, ctx_off::DATA)
                .ldx(Width::DW, 8, 6, ctx_off::DATA_END)
                .mov64_reg(9, 7)
                .add64_imm(9, proven)
                .jgt_reg(9, 8, "short")
                .ldx(w, dst, 7, off)
                .label("short");
            a.finish().expect("fragment")
        }),
        // Every width x scratch, store (register or immediate) then load.
        2 => (width(), width(), 0i16..252, 0i16..252, any::<i32>(), any::<bool>(), 0u8..6)
            .prop_map(|(sw, lw, soff, loff, imm, by_reg, dst)| {
                let mut a = Asm::new();
                a.ldx(Width::DW, 7, 6, ctx_off::SCRATCH);
                if by_reg {
                    a.mov64_imm(8, imm).lsh64_imm(8, 13).stx(sw, 7, soff, 8);
                } else {
                    a.st_imm(sw, 7, soff, imm);
                }
                a.ldx(lw, dst, 7, if by_reg { soff } else { loff });
                a.finish().expect("fragment")
            }),
        // Every width x stack, likewise.
        2 => (width(), width(), 1i16..80, 1i16..80, any::<i32>(), any::<bool>(), 0u8..6)
            .prop_map(|(sw, lw, sback, lback, imm, by_reg, dst)| {
                let mut a = Asm::new();
                if by_reg {
                    a.mov64_imm(8, imm).lsh64_imm(8, 29).stx(sw, 10, -sback, 8);
                } else {
                    a.st_imm(sw, 10, -sback, imm);
                }
                a.ldx(lw, dst, 10, if by_reg { -sback } else { -lback });
                a.finish().expect("fragment")
            }),
        // Every width x a map value, after the null check: store, load
        // back, and leave the loaded value in scratch where the
        // differential test sees it. An update first makes the hash
        // lookup hit; array index 2 is out of range (a `Trap::Map`).
        2 => (0i32..2, 0i32..3, any::<bool>(), width(), width(), 0i16..16, any::<i32>())
            .prop_map(|(map, key, update_first, sw, lw, off, imm)| {
                let mut a = Asm::new();
                a.st_imm(Width::DW, 10, -8, key);
                if update_first {
                    a.st_imm(Width::DW, 10, -24, imm)
                        .st_imm(Width::DW, 10, -16, !imm)
                        .mov64_imm(1, 1)
                        .mov64_reg(2, 10)
                        .add64_imm(2, -8)
                        .mov64_reg(3, 10)
                        .add64_imm(3, -24)
                        .call(helper::MAP_UPDATE);
                }
                a.mov64_imm(1, map)
                    .mov64_reg(2, 10)
                    .add64_imm(2, -8)
                    .call(helper::MAP_LOOKUP)
                    .jeq_imm(0, 0, "null")
                    .st_imm(sw, 0, off, imm)
                    .ldx(lw, 7, 0, off)
                    .ldx(Width::DW, 8, 6, ctx_off::SCRATCH)
                    .stx(Width::DW, 8, 64, 7)
                    .label("null")
                    .mov64_imm(7, 0)
                    .mov64_imm(8, 0);
                zero_low_regs(&mut a);
                a.finish().expect("fragment")
            }),
        // emit(ptr, len) from the stack and from scratch (lengths one
        // or two past the end are the verifier's to catch).
        2 => (any::<bool>(), 0i32..27, 0i32..252, any::<i32>()).prop_map(
            |(from_stack, len, off, imm)| {
                let mut a = Asm::new();
                if from_stack {
                    a.st_imm(Width::DW, 10, -24, imm)
                        .st_imm(Width::W, 10, -12, !imm)
                        .mov64_reg(1, 10)
                        .add64_imm(1, -24);
                } else {
                    a.ldx(Width::DW, 1, 6, ctx_off::SCRATCH)
                        .st_imm(Width::W, 1, 4, imm)
                        .add64_imm(1, off);
                }
                a.mov64_imm(2, if from_stack { len } else { len.min(256 - off + 1) })
                    .call(helper::EMIT);
                zero_low_regs(&mut a);
                a.finish().expect("fragment")
            }
        ),
        // The B-tree search shape: a bounded loop over 8-byte keys in
        // the block that stops at the first key the comparison picks
        // out, leaving the index and the key in scratch. Keys are cut
        // to three bits so that they meet the pivot often enough to
        // tell `>` from `>=`.
        2 => (1i32..5, 0u64..8, 0usize..12).prop_map(|(nkeys, pivot, cmp)| {
            let mut a = Asm::new();
            zero_low_regs(&mut a);
            a.ldx(Width::DW, 7, 6, ctx_off::DATA)
                .ldx(Width::DW, 8, 6, ctx_off::DATA_END)
                .mov64_reg(9, 7)
                .add64_imm(9, 8 * nkeys)
                .jgt_reg(9, 8, "out")
                .ld_imm64(9, pivot)
                .label("loop")
                .jge_imm(2, nkeys, "after")
                .mov64_reg(4, 2)
                .lsh64_imm(4, 3)
                .mov64_reg(5, 7)
                .add64_reg(5, 4)
                .ldx(Width::DW, 4, 5, 0)
                .and64_imm(4, 7);
            let imm = pivot as i32;
            match cmp {
                0 => a.jgt_reg(4, 9, "after"),
                1 => a.jge_reg(4, 9, "after"),
                2 => a.jlt_reg(4, 9, "after"),
                3 => a.jle_reg(4, 9, "after"),
                4 => a.jeq_reg(4, 9, "after"),
                5 => a.jne_reg(4, 9, "after"),
                6 => a.jgt_imm(4, imm, "after"),
                7 => a.jge_imm(4, imm, "after"),
                8 => a.jlt_imm(4, imm, "after"),
                9 => a.jle_imm(4, imm, "after"),
                10 => a.jeq_imm(4, imm, "after"),
                _ => a.jne_imm(4, imm, "after"),
            };
            a.mov64_reg(3, 2)
                .add64_imm(2, 1)
                .ja("loop")
                .label("after")
                .ldx(Width::DW, 8, 6, ctx_off::SCRATCH)
                .stx(Width::DW, 8, 72, 3)
                .stx(Width::DW, 8, 80, 4)
                .label("out")
                .mov64_imm(7, 0)
                .mov64_imm(8, 0)
                .mov64_imm(9, 0);
            zero_low_regs(&mut a);
            a.finish().expect("fragment")
        }),
        // A 32-bit ALU op, every code by immediate and by register, on
        // registers just loaded with constants above `u32::MAX` (the
        // divisor's low half of any magnitude), of which it reads the
        // low halves only; half the time the result then indexes
        // memory.
        3 => (
            (0u8..6, 0u8..6, alu32_code(), any::<bool>(), magnitude()),
            (1u64..4, any::<u32>(), 1u64..4, magnitude()),
            (any::<bool>(), indexed_load()),
        )
            .prop_map(|((dst, src, code, by_reg, imm), (dh, dl, sh, sl), (index, load))| {
                let mut a = Asm::new();
                a.ld_imm64(dst, dh << 32 | dl as u64);
                if by_reg {
                    a.ld_imm64(src, sh << 32 | sl as u64);
                }
                let mut insns = a.finish().expect("fragment");
                let (src, form) = if by_reg { (src, SRC_X) } else { (0, 0) };
                insns.push(Insn::new(CLS_ALU | form | code, dst, src, 0, imm as i32));
                if index {
                    insns.extend(load_through(dst, load));
                }
                insns
            }),
        // A scalar register added to a pointer into the block or
        // scratch, then read through.
        2 => (0u8..6, indexed_load()).prop_map(|(idx, load)| load_through(idx, load)),
    ];
    (proptest::collection::vec(insn, 1..12)).prop_map(|frags| {
        let mut a = Asm::new();
        a.mov64_reg(6, 1);
        for r in [0, 2, 3, 4, 5] {
            a.mov64_imm(r, 0);
        }
        let mut insns = a.finish().expect("prologue");
        for f in frags {
            insns.extend(f);
        }
        // Epilogue: r0 = 0; exit.
        let mut a = Asm::new();
        a.mov64_imm(0, 0).exit();
        insns.extend(a.finish().expect("epilogue"));
        Program::with_maps(insns, arb_maps())
    })
}
