//! Static program verifier.
//!
//! Mirrors the role of the Linux eBPF verifier for the storage-hook
//! program type: every attached program is proven, before it runs, to
//!
//! 1. never read or write outside the memory regions it was given
//!    (block data, scratch, stack, map values, the context struct);
//! 2. never *write* the block data or the context — the paper's §4
//!    "read-only traversals" restriction is enforced here;
//! 3. terminate: loops are admitted only when interval analysis can
//!    bound them (a back-edge that re-enters an already-seen abstract
//!    state on the same path is rejected as unbounded);
//! 4. call helpers only with well-typed arguments (map ids must be
//!    constants referring to declared maps, emit lengths must be
//!    statically bounded within the source region, ...).
//!
//! Verification is one pipeline of three stages, each with its own
//! kind of answer:
//!
//! - **legality** (`Structure::of`): whatever can be decided without
//!   abstract state, over *every* slot, reachable or not — program size,
//!   register indices, a defined opcode, a known helper id, `ld_imm64`
//!   pairing, jump targets. It is the only place that decides them: the
//!   exploration and the compiler ([`mod@crate::compile`]) both start
//!   from its result, so what one of them accepts the other does, and
//!   lowering a verified program cannot fail;
//! - **reachability**, which is policy rather than legality: an
//!   instruction no path from the entry reaches is refused
//!   ([`VerifyErrorKind::UnreachableCode`]) instead of being left
//!   unanalysed. Only [`verify`] applies it;
//! - **exploration**, the proofs above.
//!
//! The exploration is a depth-first symbolic execution over an abstract
//! state: each register is `Uninit`, a `[umin, umax]` scalar interval,
//! a pointer into the context at a constant offset, `data_end`, a
//! possibly-null map value, or a region — block data, scratch, stack or
//! a map value — plus an offset interval, which every access, helper
//! argument and comparison checks against the one bounds table
//! (`Structure::bounds`). Bounds checks
//! against `ctx->data_end` refine a per-state lower bound on the block
//! length (`data_len_min`), which is exactly the `if (p + N > data_end)
//! goto out;` idiom of XDP programs.
//!
//! One state is stepped in place down each path, a conditional jump
//! leaving its other side on a stack. States are remembered only where
//! control flow *joins* — slots with more than one way in, which every
//! loop and every diamond passes through — each `(pc, state)` interned
//! once and compared whole on a hit (the hash only picks a bucket).
//! Reaching an interned state that is still on the current path is the
//! unbounded loop of point 3; reaching one whose subtree is finished
//! ends the path there, and the longest path *below* that state, kept
//! with it, counts as if it had been walked again. That is what makes
//! [`VerifiedStats::max_path`] the longest instruction path through the
//! program rather than the longest the walk happened to take — the
//! figure [`admit`] holds against a tenant's budget, so that a
//! long arm joining a state a short arm reached first still counts:
//!
//! ```
//! use bpfstor_vm::asm::{Asm, Width};
//! use bpfstor_vm::program::{ctx_off, Program};
//! use bpfstor_vm::verifier::verify;
//!
//! let mut a = Asm::new();
//! a.ldx(Width::W, 2, 1, ctx_off::HOP)
//!     .mov64_imm(0, 0)
//!     .jeq_imm(2, 7, "short"); // the taken side is walked first
//! for _ in 0..40 {
//!     a.mov64_imm(0, 0);
//! }
//! a.mov64_imm(2, 0)
//!     .ja("join")
//!     .label("short")
//!     .mov64_imm(2, 0)
//!     .label("join") // both arms arrive in the same state
//!     .exit();
//! let stats = verify(&Program::new(a.finish().unwrap())).unwrap();
//! // 3 + 1 + 1 instructions were walked through the join, then 3 + 42
//! // up to it; the longest path is the second arm's and the `exit`.
//! assert_eq!(stats.max_path, 3 + 42 + 1);
//! ```
//!
//! Soundness over completeness: anything the analysis cannot prove is
//! rejected. The interpreter re-checks everything at runtime, which lets
//! the property tests assert the key theorem: **verified programs never
//! trap** (see `tests/` and the proptest suite).

use std::hash::{Hash, Hasher};

use crate::insn::{
    access_size, Insn, ALU_ADD, ALU_AND, ALU_ARSH, ALU_DIV, ALU_END, ALU_LSH, ALU_MOD, ALU_MOV,
    ALU_MUL, ALU_NEG, ALU_OR, ALU_RSH, ALU_SUB, ALU_XOR, CLS_ALU, CLS_ALU64, CLS_JMP32, CLS_LD,
    CLS_LDX, CLS_ST, CLS_STX, JMP_CALL, JMP_EXIT, JMP_JA, JMP_JEQ, JMP_JGE, JMP_JGT, JMP_JLE,
    JMP_JLT, JMP_JNE, JMP_JSET, JMP_JSGE, JMP_JSGT, JMP_JSLE, JMP_JSLT, MODE_MEM, NUM_REGS,
    OP_LD_IMM64, REG_FP, SRC_X, STACK_SIZE,
};
use crate::maps::MapSpec;
use crate::program::{ctx_off, helper, Program, EMIT_MAX, SCRATCH_SIZE};

/// Maximum program length in slots (matches BPF_MAXINSNS ballpark).
pub const MAX_SLOTS: usize = 4096;
/// Maximum instructions analysed, over all paths, before declaring the
/// program too complex (the analogue of the Linux verifier's 1M-insn
/// budget).
pub const STATE_BUDGET: usize = 200_000;
/// Largest scalar that may be added to a pointer (keeps offset intervals
/// far away from overflow).
const PTR_DELTA_MAX: u64 = 1 << 30;

/// Why the verifier rejected a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Slot index of the offending instruction (or the last analysed).
    pub pc: usize,
    /// Category of the rejection.
    pub kind: VerifyErrorKind,
}

/// Rejection categories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyErrorKind {
    /// Empty program or more than [`MAX_SLOTS`] slots.
    BadProgramSize,
    /// Unknown or malformed opcode.
    IllegalInsn,
    /// Register index out of range, or an attempt to write `r10`.
    BadRegister,
    /// Jump to a slot outside the program or into an `ld_imm64` pair.
    BadJumpTarget,
    /// No path from the entry reaches the instruction at `pc`, the first
    /// such: dead code is refused rather than left unanalysed.
    UnreachableCode,
    /// Control flow can fall off the end of the instruction stream.
    FallsOffEnd,
    /// A register was read before being written.
    UninitRead {
        /** Which register. */
        reg: u8,
    },
    /// A memory access could not be proven in-bounds.
    OutOfBounds {
        /** Human-readable reason. */
        what: String,
    },
    /// A store targeted the read-only block data or context.
    ReadOnly,
    /// Arithmetic on pointers the analysis cannot model.
    BadPointerArithmetic {
        /** Reason. */
        what: String,
    },
    /// A comparison between incompatible types.
    BadComparison,
    /// Division or modulo by a constant zero.
    DivByZero,
    /// Helper call with malformed arguments.
    BadHelperCall {
        /** Reason. */
        what: String,
    },
    /// Unknown helper id.
    UnknownHelper {
        /** The id. */
        id: i32,
    },
    /// `exit` with a non-scalar (pointer-leaking) or uninitialised `r0`.
    BadReturn,
    /// A back-edge re-entered an identical abstract state: the loop
    /// cannot be bounded. Reported at the join where the walk noticed.
    UnboundedLoop,
    /// [`STATE_BUDGET`] exhausted.
    TooComplex,
    /// Access to a possibly-NULL map value without a null check.
    PossiblyNull,
    /// The program verifies, but its worst-case instruction count over a
    /// full chain exceeds the caller's resource budget (see
    /// [`ResourceBudget`]).
    BudgetExceeded {
        /** Worst-case instructions for one full chain. */
        worst_case: u64,
        /** The budget it exceeded. */
        budget: u64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "verifier rejected at pc {}: {:?}", self.pc, self.kind)
    }
}

impl std::error::Error for VerifyError {}

/// Statistics about a successful verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifiedStats {
    /// Instructions analysed, one abstract state each: what
    /// [`STATE_BUDGET`] bounds. A path that reaches a join in a state
    /// already explored from there stops counting at the join.
    pub states: usize,
    /// The longest path through the program, in instructions (an
    /// `ld_imm64` is one): no execution of the program retires more.
    /// This is the guarantee [`ResourceBudget`] relies on.
    pub max_path: usize,
}

/// The memory a [`Reg::Ptr`] points into. How far it reaches is
/// [`Structure::bounds`]'s to say.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Region {
    /// The block, read-only, up to the length proven on the path.
    Data,
    Scratch,
    Stack,
    /// The value of the map with this id.
    MapValue(u32),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Reg {
    Uninit,
    Scalar {
        umin: u64,
        umax: u64,
    },
    PtrCtx {
        off: i64,
    },
    PtrDataEnd,
    /// `region`'s base plus an offset in `[omin, omax]`.
    Ptr {
        region: Region,
        omin: i64,
        omax: i64,
    },
    NullOrMapValue {
        id: u32,
    },
}

impl Reg {
    fn scalar_unknown() -> Reg {
        Reg::Scalar {
            umin: 0,
            umax: u64::MAX,
        }
    }

    fn scalar_const(v: u64) -> Reg {
        Reg::Scalar { umin: v, umax: v }
    }

    /// A pointer to the start of `region`.
    fn base(region: Region) -> Reg {
        Reg::Ptr {
            region,
            omin: 0,
            omax: 0,
        }
    }

    fn is_pointer(&self) -> bool {
        !matches!(self, Reg::Uninit | Reg::Scalar { .. })
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    regs: [Reg; NUM_REGS],
    /// Proven lower bound on the block data length, from `data_end`
    /// comparisons on this path.
    data_len_min: i64,
}

impl State {
    fn initial() -> State {
        let mut regs: [Reg; NUM_REGS] = std::array::from_fn(|_| Reg::Uninit);
        regs[1] = Reg::PtrCtx { off: 0 };
        regs[REG_FP as usize] = Reg::base(Region::Stack);
        State {
            regs,
            data_len_min: 0,
        }
    }
}

/// Verifies a program, returning exploration statistics on success.
///
/// # Errors
///
/// Returns a [`VerifyError`] describing the first violation found: of
/// the structural pass over every slot, then the first instruction no
/// path reaches, then the first the walk meets.
///
/// # Examples
///
/// ```
/// use bpfstor_vm::asm::Asm;
/// use bpfstor_vm::program::Program;
/// use bpfstor_vm::verifier::verify;
///
/// let mut a = Asm::new();
/// a.mov64_imm(0, 0).exit();
/// assert!(verify(&Program::new(a.finish().unwrap())).is_ok());
/// ```
pub fn verify(prog: &Program) -> Result<VerifiedStats, VerifyError> {
    admit(prog, None).map(|verified| verified.stats)
}

/// A tenant's verification-time resource budget: the worst case a chain
/// may cost at runtime, priced *before* the program is admitted.
///
/// The verifier already derives the longest instruction path of one
/// invocation ([`VerifiedStats::max_path`]); a kernel that also bounds
/// chained resubmissions to `chain_depth` hops therefore knows the whole
/// chain can execute at most `max_path * chain_depth` instructions. A
/// program whose worst case exceeds `max_insns` is rejected at install
/// time — an untrusted tenant cannot exceed its bound at runtime because
/// it never gets to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Hops the kernel will allow the chain (its resubmission bound).
    pub chain_depth: u64,
    /// Total instruction budget for one full chain.
    pub max_insns: u64,
}

/// A program [`admit`] let in, with what the structural pass learnt of
/// it: the token [`Verified::compile`] lowers, so that what runs is what
/// was verified and lowering has nothing left to decline.
#[derive(Debug)]
pub struct Verified<'p> {
    pub(crate) structure: Structure<'p>,
    /// What the exploration found.
    pub stats: VerifiedStats,
}

/// Verifies `prog` and enforces `budget` on its worst-case chain cost,
/// keeping the structure for the compiler: the one call an installer
/// makes.
///
/// With `budget: None` this admits exactly what [`verify`] does. With a
/// budget, the longest verified path per invocation times the
/// chain-depth bound must fit `max_insns`, or the program is rejected
/// with [`VerifyErrorKind::BudgetExceeded`].
///
/// # Errors
///
/// Everything [`verify`] rejects, plus budget violations.
///
/// # Examples
///
/// ```
/// use bpfstor_vm::asm::Asm;
/// use bpfstor_vm::program::Program;
/// use bpfstor_vm::verifier::{admit, ResourceBudget};
///
/// let mut a = Asm::new();
/// a.mov64_imm(0, 0).exit();
/// let prog = Program::new(a.finish().unwrap());
/// // Two instructions per hop, 4 hops: a budget of 8 admits it...
/// let b = ResourceBudget { chain_depth: 4, max_insns: 8 };
/// assert!(admit(&prog, Some(b)).is_ok());
/// // ...a budget of 7 rejects it at install time.
/// let b = ResourceBudget { chain_depth: 4, max_insns: 7 };
/// assert!(admit(&prog, Some(b)).is_err());
/// ```
pub fn admit(prog: &Program, budget: Option<ResourceBudget>) -> Result<Verified<'_>, VerifyError> {
    let structure = Structure::of(prog)?;
    let stats = structure.explore(hash_at)?;
    if let Some(b) = budget {
        let worst_case = (stats.max_path as u64).saturating_mul(b.chain_depth.max(1));
        if worst_case > b.max_insns {
            return Err(VerifyError {
                pc: 0,
                kind: VerifyErrorKind::BudgetExceeded {
                    worst_case,
                    budget: b.max_insns,
                },
            });
        }
    }
    Ok(Verified { structure, stats })
}

/// Where control goes after a slot: all the structural pass keeps of an
/// instruction once it has found it legal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Edge {
    /// The second half of an `ld_imm64`: no instruction starts here.
    Hi,
    /// On to the next instruction.
    Fall,
    /// `exit`.
    Exit,
    /// `ja`: on to its [`Structure::target`].
    Jump,
    /// A conditional jump: its [`Structure::target`] if taken, the next
    /// instruction if not.
    Branch,
}

/// A program every slot of which — reachable or not — is a defined
/// instruction: the one answer to "is this instruction legal?", which
/// [`verify`] explores and [`mod@crate::compile`] lowers, neither of
/// them asking again.
#[derive(Debug)]
pub(crate) struct Structure<'p> {
    pub(crate) prog: &'p Program,
    /// One per slot.
    pub(crate) edges: Vec<Edge>,
}

/// The ALU codes both widths define; `ALU_END` is the 32-bit class's.
const ALU_CODES: [u8; 13] = [
    ALU_ADD, ALU_SUB, ALU_MUL, ALU_DIV, ALU_OR, ALU_AND, ALU_LSH, ALU_RSH, ALU_NEG, ALU_MOD,
    ALU_XOR, ALU_MOV, ALU_ARSH,
];
/// The conditional jumps, in both widths.
const JCC_CODES: [u8; 11] = [
    JMP_JEQ, JMP_JNE, JMP_JGT, JMP_JGE, JMP_JLT, JMP_JLE, JMP_JSET, JMP_JSGT, JMP_JSGE, JMP_JSLT,
    JMP_JSLE,
];
/// The helpers a `call` may name.
const HELPERS: [i32; 5] = [
    helper::TRACE,
    helper::RESUBMIT,
    helper::EMIT,
    helper::MAP_LOOKUP,
    helper::MAP_UPDATE,
];

/// Decides the slot at `pc` on its own: register indices (`r10` is
/// never written), a defined opcode for its class, a known helper id,
/// an `ld_imm64` with its second half, a jump that lands in the program.
fn edge_of(insns: &[Insn], pc: usize) -> Result<Edge, VerifyErrorKind> {
    use VerifyErrorKind::{BadJumpTarget, BadRegister, IllegalInsn, UnknownHelper};
    let insn = &insns[pc];
    let (class, code) = (insn.class(), insn.op & 0xf0);
    let writes_dst = matches!(class, CLS_ALU64 | CLS_ALU | CLS_LD | CLS_LDX);
    if insn.dst as usize >= NUM_REGS
        || insn.src as usize >= NUM_REGS
        || (writes_dst && insn.dst == REG_FP)
    {
        return Err(BadRegister);
    }
    let falls = |legal: bool| {
        if legal {
            Ok(Edge::Fall)
        } else {
            Err(IllegalInsn)
        }
    };
    match class {
        CLS_ALU if code == ALU_END => falls(matches!(insn.imm, 16 | 32 | 64)),
        CLS_ALU64 | CLS_ALU => falls(ALU_CODES.contains(&code)),
        CLS_LD => falls(insn.op == OP_LD_IMM64 && insns.get(pc + 1).is_some_and(|hi| hi.op == 0)),
        CLS_LDX | CLS_ST | CLS_STX => falls(insn.op & 0x60 == MODE_MEM),
        _ if code == JMP_EXIT => Ok(Edge::Exit),
        _ if code == JMP_CALL && HELPERS.contains(&insn.imm) => Ok(Edge::Fall),
        _ if code == JMP_CALL => Err(UnknownHelper { id: insn.imm }),
        // There is no `ja` among the 32-bit jumps.
        _ if code == JMP_JA && class == CLS_JMP32 => Err(IllegalInsn),
        _ if code != JMP_JA && !JCC_CODES.contains(&code) => Err(IllegalInsn),
        _ if !(0..insns.len() as i64).contains(&(pc as i64 + 1 + insn.off as i64)) => {
            Err(BadJumpTarget)
        }
        _ if code == JMP_JA => Ok(Edge::Jump),
        _ => Ok(Edge::Branch),
    }
}

impl<'p> Structure<'p> {
    /// The structural pass: everything that can be decided without
    /// abstract state, over every slot. Program size, then
    /// [`edge_of`] each instruction, then no jump into the second half
    /// of an `ld_imm64`.
    pub(crate) fn of(prog: &'p Program) -> Result<Self, VerifyError> {
        let n = prog.insns.len();
        if n == 0 || n > MAX_SLOTS {
            return Err(VerifyError {
                pc: 0,
                kind: VerifyErrorKind::BadProgramSize,
            });
        }
        let edges = vec![Edge::Hi; n];
        let mut s = Structure { prog, edges };
        let mut pc = 0;
        while pc < n {
            s.edges[pc] = edge_of(&prog.insns, pc).map_err(|kind| VerifyError { pc, kind })?;
            pc = s.after(pc);
        }
        let into_pair = |&pc: &usize| {
            matches!(s.edges[pc], Edge::Jump | Edge::Branch) && s.edges[s.target(pc)] == Edge::Hi
        };
        match (0..n).find(into_pair) {
            Some(pc) => Err(VerifyError {
                pc,
                kind: VerifyErrorKind::BadJumpTarget,
            }),
            None => Ok(s),
        }
    }

    /// Where the jump at `pc` lands: in the program, at an instruction.
    pub(crate) fn target(&self, pc: usize) -> usize {
        (pc as i64 + 1 + self.prog.insns[pc].off as i64) as usize
    }

    /// The slot after the instruction at `pc`: the program's length
    /// after its last.
    pub(crate) fn after(&self, pc: usize) -> usize {
        if self.prog.insns[pc].op == OP_LD_IMM64 {
            pc + 2
        } else {
            pc + 1
        }
    }

    /// Where the instruction at `pc` can continue, the taken side of a
    /// jump first; running off the end of the program is nowhere.
    fn succs(&self, pc: usize) -> impl Iterator<Item = usize> {
        let (taken, fall) = match self.edges[pc] {
            Edge::Hi | Edge::Exit => (None, None),
            Edge::Fall => (None, Some(self.after(pc))),
            Edge::Jump => (Some(self.target(pc)), None),
            Edge::Branch => (Some(self.target(pc)), Some(pc + 1)),
        };
        let n = self.edges.len();
        taken.into_iter().chain(fall).filter(move |&to| to < n)
    }

    /// Counts the ways into each slot from the code the entry reaches
    /// (the entry itself is one) and — policy, where [`Structure::of`]
    /// is legality — rejects a program with an instruction no path
    /// reaches. A slot with more than one way in is where control flow
    /// *joins*: loops and diamonds both pass through one (a cycle with a
    /// single way into each of its slots could not be entered), so these
    /// are the only places the exploration has to remember what it has
    /// seen.
    fn ways_in(&self) -> Result<Vec<u8>, VerifyError> {
        let n = self.edges.len();
        let mut ways = vec![0u8; n];
        ways[0] = 1;
        let mut work = Vec::with_capacity(n);
        work.push(0);
        while let Some(pc) = work.pop() {
            for to in self.succs(pc) {
                if ways[to] == 0 {
                    work.push(to);
                }
                ways[to] = ways[to].saturating_add(1);
            }
        }
        match (0..n).find(|&pc| ways[pc] == 0 && self.edges[pc] != Edge::Hi) {
            Some(pc) => Err(VerifyError {
                pc,
                kind: VerifyErrorKind::UnreachableCode,
            }),
            None => Ok(ways),
        }
    }
}

/// Word-at-a-time multiply-rotate hasher for the derived `Hash` of
/// [`State`]. Nothing depends on its quality but time: the interner
/// compares whole states, the hash only picks the bucket.
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, w: u32) {
        self.write_u64(w as u64);
    }

    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }
}

fn hash_at(pc: usize, state: &State) -> u64 {
    let mut h = WordHasher(pc as u64);
    state.hash(&mut h);
    h.finish()
}

/// An abstract state seen at a join, and what is known of the paths
/// below it.
struct Interned {
    state: State,
    hash: u64,
    pc: u32,
    /// [`ON_PATH`] while the subtree below is being explored; after
    /// that, the longest instruction path from here to an `exit`.
    below: u32,
}

const ON_PATH: u32 = u32::MAX;

/// What [`Interner::intern`] found.
enum Seen {
    /// First visit: the caller explores below it and reports back
    /// through [`Interner::finish`].
    New(u32),
    /// The state is an ancestor on the path being walked.
    OnPath,
    /// Fully explored before; the longest path below it.
    Finished(usize),
}

/// Every `(pc, state)` reached at a join, each stored once. A hit
/// compares the whole key, so a hash collision costs a comparison and
/// never merges two states.
struct Interner {
    hash: fn(usize, &State) -> u64,
    /// Fixed-capacity chunks: growing never copies a stored state, and
    /// a small program never pays for more than a few.
    chunks: Vec<Vec<Interned>>,
    len: usize,
    /// Open-addressing index into the arena, a power of two long and at
    /// most half full: 0 is empty, `i + 1` names entry `i`.
    slots: Vec<u32>,
}

impl Interner {
    const CHUNK: usize = 8;

    fn new(hash: fn(usize, &State) -> u64) -> Interner {
        Interner {
            hash,
            chunks: Vec::new(),
            len: 0,
            slots: vec![0; 64],
        }
    }

    fn entry(&mut self, id: u32) -> &mut Interned {
        &mut self.chunks[id as usize / Self::CHUNK][id as usize % Self::CHUNK]
    }

    /// The slot `hash` starts probing at: its top bits, which the
    /// multiply mixes best.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn intern(&mut self, pc: usize, state: &State) -> Seen {
        let hash = (self.hash)(pc, state);
        let mask = self.slots.len() - 1;
        let mut at = self.home(hash);
        while self.slots[at] != 0 {
            let e = self.entry(self.slots[at] - 1);
            if e.hash == hash && e.pc as usize == pc && e.state == *state {
                return match e.below {
                    ON_PATH => Seen::OnPath,
                    below => Seen::Finished(below as usize),
                };
            }
            at = (at + 1) & mask;
        }
        let id = self.len as u32;
        if self.len.is_multiple_of(Self::CHUNK) {
            self.chunks.push(Vec::with_capacity(Self::CHUNK));
        }
        self.chunks.last_mut().expect("pushed").push(Interned {
            state: state.clone(),
            hash,
            pc: pc as u32,
            below: ON_PATH,
        });
        self.len += 1;
        self.slots[at] = id + 1;
        if self.len * 2 > self.slots.len() {
            self.grow();
        }
        Seen::New(id)
    }

    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        let mask = self.slots.len() - 1;
        for id in 0..self.len as u32 {
            let hash = self.entry(id).hash;
            let mut at = self.home(hash);
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = id + 1;
        }
    }

    /// The subtree below `id` is explored: it leaves the path, and later
    /// hits on it continue `below` instructions at most.
    fn finish(&mut self, id: u32, below: usize) {
        self.entry(id).below = below as u32;
    }
}

/// What an analysed instruction does with control; the state it was
/// handed has become its successor's.
// The fork's state moves into a `Frame` and back out by value; boxing
// it would put an allocation on every conditional jump.
#[allow(clippy::large_enum_variant)]
enum Flow {
    /// Continues at this slot.
    To(usize),
    /// The path ends: `exit`, or a conditional jump with neither side
    /// feasible.
    End,
    /// A conditional jump with both sides feasible: the taken side
    /// continues at this slot in the stepped state, the fall-through
    /// side after the jump in the state carried here.
    Fork(usize, State),
}

/// What the walk comes back to once the path it is on has ended.
#[allow(clippy::large_enum_variant)]
enum Frame {
    /// The other side of a conditional jump, not yet walked; `depth`
    /// instructions lead up to `pc`.
    Fork {
        pc: usize,
        state: State,
        depth: usize,
    },
    /// An interned state whose subtree is being walked, entered `depth`
    /// instructions in; `outer` is the longest path seen before it.
    Join { id: u32, depth: usize, outer: usize },
}

impl Structure<'_> {
    /// The depth-first walk of the module docs, interning with `hash`
    /// (which only picks the bucket: any function gives the same
    /// answer, and the tests pin that with a constant one). An explicit
    /// frame stack stands in for recursion so the host stack cannot
    /// overflow on budget-bounded explorations.
    fn explore(&self, hash: fn(usize, &State) -> u64) -> Result<VerifiedStats, VerifyError> {
        let ways_in = self.ways_in()?;
        let mut seen = Interner::new(hash);
        let mut frames: Vec<Frame> = Vec::new();
        let mut state = State::initial();
        let (mut pc, mut depth, mut states) = (0, 0, 0);
        // Longest path that has ended below the innermost open join
        // (below the entry, outside any), counted from the entry.
        let mut longest = 0;
        loop {
            let ended = loop {
                if pc >= self.prog.insns.len() {
                    return Err(VerifyError {
                        pc: pc.saturating_sub(1),
                        kind: VerifyErrorKind::FallsOffEnd,
                    });
                }
                if ways_in[pc] > 1 {
                    match seen.intern(pc, &state) {
                        Seen::New(id) => {
                            let outer = std::mem::take(&mut longest);
                            frames.push(Frame::Join { id, depth, outer });
                        }
                        Seen::OnPath => {
                            return Err(VerifyError {
                                pc,
                                kind: VerifyErrorKind::UnboundedLoop,
                            })
                        }
                        Seen::Finished(below) => break depth + below,
                    }
                }
                states += 1;
                if states > STATE_BUDGET {
                    return Err(VerifyError {
                        pc,
                        kind: VerifyErrorKind::TooComplex,
                    });
                }
                depth += 1;
                match self.step(pc, &mut state)? {
                    Flow::To(next) => pc = next,
                    Flow::End => break depth,
                    Flow::Fork(taken, fall) => {
                        frames.push(Frame::Fork {
                            pc: pc + 1,
                            state: fall,
                            depth,
                        });
                        pc = taken;
                    }
                }
            };
            longest = longest.max(ended);
            loop {
                match frames.pop() {
                    None => {
                        return Ok(VerifiedStats {
                            states,
                            max_path: longest,
                        })
                    }
                    Some(Frame::Join { id, depth, outer }) => {
                        seen.finish(id, longest - depth);
                        longest = longest.max(outer);
                    }
                    Some(Frame::Fork {
                        pc: at,
                        state: fall,
                        depth: before,
                    }) => {
                        (pc, state, depth) = (at, fall, before);
                        break;
                    }
                }
            }
        }
    }

    /// Analyses the instruction at `pc`, turning `state` into the state
    /// after it. What the structural pass settled is not asked again.
    fn step(&self, pc: usize, state: &mut State) -> Result<Flow, VerifyError> {
        let insn = self.prog.insns[pc];
        let err = |kind| VerifyError { pc, kind };
        let cls = insn.class();
        match cls {
            CLS_ALU64 | CLS_ALU => {
                let code = insn.op & 0xf0;
                if code == ALU_END {
                    let d = self.read_reg(pc, state, insn.dst)?;
                    if d.is_pointer() {
                        return Err(err(VerifyErrorKind::BadPointerArithmetic {
                            what: "endianness op on pointer".to_string(),
                        }));
                    }
                    state.regs[insn.dst as usize] = Reg::scalar_unknown();
                    return Ok(Flow::To(pc + 1));
                }
                // Sign-extended: a 32-bit op reads only its low half
                // (`alu_result`), which is the immediate.
                let rhs = if insn.op & SRC_X != 0 {
                    self.read_reg(pc, state, insn.src)?.clone()
                } else {
                    Reg::scalar_const(insn.imm as i64 as u64)
                };
                // NEG reads only dst.
                let lhs = if code == ALU_MOV {
                    Reg::scalar_const(0) // Unused; MOV overwrites.
                } else {
                    self.read_reg(pc, state, insn.dst)?.clone()
                };
                let out = alu_result(pc, cls, code, &lhs, &rhs)?;
                state.regs[insn.dst as usize] = out;
                Ok(Flow::To(pc + 1))
            }
            CLS_LD => {
                let v = crate::insn::imm64_of(&insn, &self.prog.insns[pc + 1]);
                state.regs[insn.dst as usize] = Reg::scalar_const(v);
                Ok(Flow::To(pc + 2))
            }
            CLS_LDX => {
                let size = access_size(insn.op);
                let base = self.read_reg(pc, state, insn.src)?;
                let loaded = self.check_access(pc, state, base, insn.off, size, false)?;
                state.regs[insn.dst as usize] = loaded;
                Ok(Flow::To(pc + 1))
            }
            CLS_STX | CLS_ST => {
                let size = access_size(insn.op);
                if cls == CLS_STX {
                    // The stored value must be initialised.
                    self.read_reg(pc, state, insn.src)?;
                }
                let base = self.read_reg(pc, state, insn.dst)?;
                self.check_access(pc, state, base, insn.off, size, true)?;
                Ok(Flow::To(pc + 1))
            }
            _ => match self.edges[pc] {
                Edge::Hi => unreachable!("no edge leads into an ld_imm64"),
                Edge::Exit => match state.regs[0] {
                    Reg::Scalar { .. } => Ok(Flow::End),
                    _ => Err(err(VerifyErrorKind::BadReturn)),
                },
                Edge::Fall => {
                    self.check_helper(pc, state)?;
                    Ok(Flow::To(pc + 1))
                }
                Edge::Jump => Ok(Flow::To(self.target(pc))),
                Edge::Branch => {
                    let t = self.target(pc);
                    let dst = self.read_reg(pc, state, insn.dst)?.clone();
                    let rhs = if insn.op & SRC_X != 0 {
                        self.read_reg(pc, state, insn.src)?.clone()
                    } else {
                        Reg::scalar_const(insn.imm as i64 as u64)
                    };
                    let (taken, fall) = branch_states(
                        pc,
                        cls == CLS_JMP32,
                        insn.op & 0xf0,
                        state,
                        insn.dst,
                        if insn.op & SRC_X != 0 {
                            Some(insn.src)
                        } else {
                            None
                        },
                        &dst,
                        &rhs,
                    )?;
                    Ok(match (taken, fall) {
                        (Some(taken), Some(fall)) => {
                            *state = taken;
                            Flow::Fork(t, fall)
                        }
                        (Some(taken), None) => {
                            *state = taken;
                            Flow::To(t)
                        }
                        (None, Some(fall)) => {
                            *state = fall;
                            Flow::To(pc + 1)
                        }
                        (None, None) => Flow::End,
                    })
                }
            },
        }
    }

    fn read_reg<'s>(&self, pc: usize, state: &'s State, reg: u8) -> Result<&'s Reg, VerifyError> {
        let r = &state.regs[reg as usize];
        if matches!(r, Reg::Uninit) {
            return Err(VerifyError {
                pc,
                kind: VerifyErrorKind::UninitRead { reg },
            });
        }
        Ok(r)
    }

    /// Validates a load (or, with `store`, a store) of `size` bytes at
    /// `base + off`, returning the abstract type of the loaded value.
    fn check_access(
        &self,
        pc: usize,
        state: &State,
        base: &Reg,
        off: i16,
        size: usize,
        store: bool,
    ) -> Result<Reg, VerifyError> {
        let err = |kind| VerifyError { pc, kind };
        let oob = |what: String| err(VerifyErrorKind::OutOfBounds { what });
        match base {
            Reg::PtrCtx { .. }
            | Reg::PtrDataEnd
            | Reg::Ptr {
                region: Region::Data,
                ..
            } if store => Err(err(VerifyErrorKind::ReadOnly)),
            Reg::PtrCtx { off: base_off } => {
                let field = base_off + off as i64;
                let ty = match (field, size) {
                    (o, 8) if o == ctx_off::DATA as i64 => Reg::base(Region::Data),
                    (o, 8) if o == ctx_off::DATA_END as i64 => Reg::PtrDataEnd,
                    (o, 8) if o == ctx_off::FILE_OFF as i64 => Reg::scalar_unknown(),
                    (o, 4) if o == ctx_off::HOP as i64 => Reg::Scalar {
                        umin: 0,
                        umax: u32::MAX as u64,
                    },
                    (o, 4) if o == ctx_off::FLAGS as i64 => Reg::Scalar {
                        umin: 0,
                        umax: u32::MAX as u64,
                    },
                    (o, 8) if o == ctx_off::SCRATCH as i64 => Reg::base(Region::Scratch),
                    (o, 8) if o == ctx_off::SCRATCH_END as i64 => Reg::scalar_unknown(),
                    _ => {
                        return Err(oob(format!(
                            "ctx load at offset {field} width {size} does not match a field"
                        )))
                    }
                };
                Ok(ty)
            }
            Reg::Ptr { region, omin, omax } => {
                let (lo, hi, name) = self.bounds(pc, state, *region)?;
                let (a, b) = (omin + off as i64, omax + off as i64 + size as i64);
                if a < lo || b > hi {
                    return Err(oob(format!(
                        "{name} access [{a}, {b}) outside [{lo}, {hi})"
                    )));
                }
                Ok(Reg::scalar_unknown())
            }
            Reg::NullOrMapValue { .. } => Err(err(VerifyErrorKind::PossiblyNull)),
            Reg::PtrDataEnd => Err(oob("load through data_end".to_string())),
            Reg::Scalar { .. } | Reg::Uninit => Err(oob("access through non-pointer".to_string())),
        }
    }

    /// Where `region` reaches on this path, as offsets from its base:
    /// `[lo, hi)`, and its name for an error. The only place that knows
    /// a region's extent: loads, stores and helper arguments all ask it.
    fn bounds(
        &self,
        pc: usize,
        state: &State,
        region: Region,
    ) -> Result<(i64, i64, &'static str), VerifyError> {
        Ok(match region {
            Region::Data => (0, state.data_len_min, "data"),
            Region::Scratch => (0, SCRATCH_SIZE as i64, "scratch"),
            Region::Stack => (-(STACK_SIZE as i64), 0, "stack"),
            Region::MapValue(id) => (0, self.map_spec(pc, id)?.value_size as i64, "map value"),
        })
    }

    fn map_spec(&self, pc: usize, id: u32) -> Result<MapSpec, VerifyError> {
        let spec = self.prog.maps.get(id as usize).copied();
        spec.ok_or_else(|| VerifyError {
            pc,
            kind: VerifyErrorKind::BadHelperCall {
                what: format!("map id {id} not declared"),
            },
        })
    }

    /// Checks a pointer argument that a helper will *read* `len` bytes
    /// through.
    fn check_helper_mem(
        &self,
        pc: usize,
        state: &State,
        ptr: &Reg,
        len: u64,
        what: &str,
    ) -> Result<(), VerifyError> {
        let err = |w: String| VerifyError {
            pc,
            kind: VerifyErrorKind::BadHelperCall { what: w },
        };
        if len > EMIT_MAX as u64 {
            return Err(err(format!("{what}: length {len} exceeds {EMIT_MAX}")));
        }
        match ptr {
            Reg::Ptr { region, omin, omax } => {
                let (lo, hi, name) = self.bounds(pc, state, *region)?;
                let end = omax + len as i64;
                if *omin < lo || end > hi {
                    return Err(err(format!(
                        "{what}: {name} range [{omin}, {end}) outside [{lo}, {hi})"
                    )));
                }
                Ok(())
            }
            Reg::NullOrMapValue { .. } => Err(VerifyError {
                pc,
                kind: VerifyErrorKind::PossiblyNull,
            }),
            _ => Err(err(format!("{what}: not a readable pointer"))),
        }
    }

    fn check_helper(&self, pc: usize, state: &mut State) -> Result<(), VerifyError> {
        let insn = self.prog.insns[pc];
        let id = insn.imm;
        let err = |w: String| VerifyError {
            pc,
            kind: VerifyErrorKind::BadHelperCall { what: w },
        };
        let ret = match id {
            helper::TRACE | helper::RESUBMIT => {
                let r1 = self.read_reg(pc, state, 1)?;
                if r1.is_pointer() {
                    return Err(err("argument must be a scalar".to_string()));
                }
                Reg::scalar_unknown()
            }
            helper::EMIT => {
                let r2 = self.read_reg(pc, state, 2)?.clone();
                let Reg::Scalar { umax, .. } = r2 else {
                    return Err(err("emit length must be a scalar".to_string()));
                };
                let r1 = self.read_reg(pc, state, 1)?.clone();
                self.check_helper_mem(pc, state, &r1, umax, "emit")?;
                Reg::scalar_unknown()
            }
            helper::MAP_LOOKUP | helper::MAP_UPDATE => {
                let r1 = self.read_reg(pc, state, 1)?.clone();
                let Reg::Scalar { umin, umax } = r1 else {
                    return Err(err("map id must be a constant scalar".to_string()));
                };
                if umin != umax {
                    return Err(err("map id must be a constant".to_string()));
                }
                let spec = self.map_spec(pc, umin as u32)?;
                let key = self.read_reg(pc, state, 2)?.clone();
                self.check_helper_mem(pc, state, &key, spec.key_size as u64, "map key")?;
                if id == helper::MAP_UPDATE {
                    let val = self.read_reg(pc, state, 3)?.clone();
                    self.check_helper_mem(pc, state, &val, spec.value_size as u64, "map value")?;
                    Reg::scalar_unknown()
                } else {
                    Reg::NullOrMapValue { id: umin as u32 }
                }
            }
            id => unreachable!("the structural pass knows no helper {id}"),
        };
        state.regs[0] = ret;
        for r in 1..=5 {
            state.regs[r] = Reg::Uninit;
        }
        Ok(())
    }
}

fn scalar_interval(r: &Reg) -> Option<(u64, u64)> {
    match r {
        Reg::Scalar { umin, umax } => Some((*umin, *umax)),
        _ => None,
    }
}

/// Computes the abstract result of an ALU operation.
fn alu_result(pc: usize, cls: u8, code: u8, lhs: &Reg, rhs: &Reg) -> Result<Reg, VerifyError> {
    let err_arith = |what: &str| VerifyError {
        pc,
        kind: VerifyErrorKind::BadPointerArithmetic {
            what: what.to_string(),
        },
    };
    let is32 = cls == CLS_ALU;
    // MOV copies the operand type wholesale (64-bit only; a 32-bit MOV
    // of a pointer would truncate it).
    if code == ALU_MOV && !is32 {
        return Ok(rhs.clone());
    }
    let lp = lhs.is_pointer();
    let rp = rhs.is_pointer();
    if (lp || rp) && is32 {
        return Err(err_arith("32-bit arithmetic on pointer"));
    }
    match (lp, rp) {
        (false, false) => {
            let (mut a, mut b) = scalar_interval(lhs).expect("scalar");
            let (mut c, mut d) = scalar_interval(rhs).expect("scalar");
            if is32 {
                // A 32-bit op reads the low halves of its operands.
                ((a, b), (c, d)) = (low32(a, b), low32(c, d));
            }
            if matches!(code, ALU_DIV | ALU_MOD) && c == 0 && d == 0 {
                return Err(VerifyError {
                    pc,
                    kind: VerifyErrorKind::DivByZero,
                });
            }
            let (mut lo, mut hi) = scalar_alu(code, a, b, c, d, is32);
            if is32 {
                // ... and writes the low half of its result.
                (lo, hi) = low32(lo, hi);
            }
            Ok(Reg::Scalar { umin: lo, umax: hi })
        }
        (true, false) => ptr_offset(pc, lhs, rhs, code),
        (false, true) => {
            // scalar + ptr is commutative; everything else is rejected.
            if code == ALU_ADD {
                ptr_offset(pc, rhs, lhs, code)
            } else {
                Err(err_arith("scalar op pointer"))
            }
        }
        (true, true) => {
            // ptr - ptr of the same region yields an unknown scalar.
            if code == ALU_SUB && same_region(lhs, rhs) {
                Ok(Reg::scalar_unknown())
            } else {
                Err(err_arith("pointer-pointer arithmetic"))
            }
        }
    }
}

/// The low halves of the values in `[lo, hi]`: exact for a constant,
/// every 32-bit value for an interval that reaches past them.
fn low32(lo: u64, hi: u64) -> (u64, u64) {
    if lo == hi {
        (lo as u32 as u64, lo as u32 as u64)
    } else if hi > u32::MAX as u64 {
        (0, u32::MAX as u64)
    } else {
        (lo, hi)
    }
}

/// Whether `a - b` is a distance: two pointers into one region, or the
/// block and its end.
fn same_region(a: &Reg, b: &Reg) -> bool {
    match (a, b) {
        (Reg::Ptr { region: x, .. }, Reg::Ptr { region: y, .. }) => x == y,
        (Reg::Ptr { region, .. }, Reg::PtrDataEnd) | (Reg::PtrDataEnd, Reg::Ptr { region, .. }) => {
            *region == Region::Data
        }
        _ => false,
    }
}

fn ptr_offset(pc: usize, ptr: &Reg, scalar: &Reg, code: u8) -> Result<Reg, VerifyError> {
    let err_arith = |what: &str| VerifyError {
        pc,
        kind: VerifyErrorKind::BadPointerArithmetic {
            what: what.to_string(),
        },
    };
    if !matches!(code, ALU_ADD | ALU_SUB) {
        return Err(err_arith("only +/- allowed on pointers"));
    }
    let (smin, smax) = scalar_interval(scalar).expect("scalar operand");
    let (dmin, dmax) = if smin == smax {
        // Constant deltas are interpreted as signed so `ptr += -4` works.
        let sv = smin as i64;
        if sv.unsigned_abs() > PTR_DELTA_MAX {
            return Err(err_arith("pointer delta not provably small"));
        }
        let v = if code == ALU_ADD { sv } else { -sv };
        (v, v)
    } else {
        if smax > PTR_DELTA_MAX {
            return Err(err_arith("pointer delta not provably small"));
        }
        if code == ALU_ADD {
            (smin as i64, smax as i64)
        } else {
            (-(smax as i64), -(smin as i64))
        }
    };
    Ok(match ptr {
        Reg::PtrCtx { off } => {
            if dmin != dmax {
                return Err(err_arith("variable offset on ctx pointer"));
            }
            Reg::PtrCtx { off: off + dmin }
        }
        Reg::Ptr { region, omin, omax } => {
            let overflow = || err_arith("offset overflow");
            let omin = omin.checked_add(dmin).ok_or_else(overflow)?;
            let omax = omax.checked_add(dmax).ok_or_else(overflow)?;
            if omin.abs() > (1 << 31) || omax.abs() > (1 << 31) {
                return Err(err_arith("offset out of modelled range"));
            }
            Reg::Ptr {
                region: *region,
                omin,
                omax,
            }
        }
        Reg::PtrDataEnd => return Err(err_arith("arithmetic on data_end")),
        Reg::NullOrMapValue { .. } => {
            return Err(VerifyError {
                pc,
                kind: VerifyErrorKind::PossiblyNull,
            })
        }
        Reg::Scalar { .. } | Reg::Uninit => unreachable!("caller checked pointer"),
    })
}

/// Interval arithmetic for scalar ALU ops. Sound (may over-approximate).
fn scalar_alu(code: u8, a: u64, b: u64, c: u64, d: u64, is32: bool) -> (u64, u64) {
    let full = (0u64, u64::MAX);
    let konst = a == b && c == d;
    match code {
        ALU_MOV => (c, d),
        ALU_ADD => match a.checked_add(c).zip(b.checked_add(d)) {
            Some((lo, hi)) => (lo, hi),
            None => full,
        },
        ALU_SUB => {
            if a >= d {
                (a - d, b - c)
            } else {
                full
            }
        }
        ALU_MUL => {
            if b <= u32::MAX as u64 && d <= u32::MAX as u64 {
                (a * c, b * d)
            } else {
                full
            }
        }
        ALU_DIV => {
            if c == d {
                // Constant divisor; zero divides to zero by VM semantics.
                a.checked_div(c).zip(b.checked_div(c)).unwrap_or_default()
            } else {
                match b.checked_div(c) {
                    // c <= divisor <= d, all nonzero.
                    Some(hi) => (a / d.max(1), hi),
                    // Divisor may be 0 (-> 0) or >= 1 (-> <= b).
                    None => (0, b),
                }
            }
        }
        ALU_MOD => {
            if c == d && c > 0 {
                if a == b {
                    (a % c, a % c)
                } else {
                    (0, c - 1)
                }
            } else {
                (0, b.max(d))
            }
        }
        ALU_AND => {
            if konst {
                (a & c, a & c)
            } else if c == d {
                (0, c) // Masking with a constant bounds the result.
            } else {
                (0, b.min(d.max(c)))
            }
        }
        ALU_OR => {
            if konst {
                (a | c, a | c)
            } else {
                full
            }
        }
        ALU_XOR => {
            if konst {
                (a ^ c, a ^ c)
            } else {
                full
            }
        }
        ALU_LSH => {
            let mask = if is32 { 31 } else { 63 };
            if c == d {
                let s = (c & mask) as u32;
                match a.checked_shl(s).zip(b.checked_shl(s)) {
                    Some((lo, hi)) if hi >= lo && (b == 0 || hi >> s == b) => (lo, hi),
                    _ => full,
                }
            } else {
                full
            }
        }
        ALU_RSH => {
            let mask = if is32 { 31 } else { 63 };
            if c == d {
                let s = (c & mask) as u32;
                (a >> s, b >> s)
            } else {
                (0, b)
            }
        }
        ALU_ARSH | ALU_NEG => {
            if code == ALU_NEG && konst {
                // NEG ignores rhs; handled with lhs only when constant.
                (
                    (a as i64).wrapping_neg() as u64,
                    (a as i64).wrapping_neg() as u64,
                )
            } else {
                full
            }
        }
        _ => full,
    }
}

/// Computes (taken, fallthrough) states for a conditional branch, pruning
/// branches whose refined intervals become empty.
#[allow(clippy::too_many_arguments)]
fn branch_states(
    pc: usize,
    is32: bool,
    code: u8,
    state: &State,
    dst_idx: u8,
    src_idx: Option<u8>,
    dst: &Reg,
    rhs: &Reg,
) -> Result<(Option<State>, Option<State>), VerifyError> {
    let err = |kind| VerifyError { pc, kind };
    // Null-check pattern on possibly-null map values: `if r == 0`.
    if let Reg::NullOrMapValue { id } = dst {
        let is_zero_const = matches!(rhs, Reg::Scalar { umin: 0, umax: 0 });
        if is_zero_const && matches!(code, JMP_JEQ | JMP_JNE) && !is32 {
            let null_state = {
                let mut s = state.clone();
                s.regs[dst_idx as usize] = Reg::scalar_const(0);
                s
            };
            let ptr_state = {
                let mut s = state.clone();
                s.regs[dst_idx as usize] = Reg::base(Region::MapValue(*id));
                s
            };
            return Ok(if code == JMP_JEQ {
                (Some(null_state), Some(ptr_state))
            } else {
                (Some(ptr_state), Some(null_state))
            });
        }
        return Err(err(VerifyErrorKind::BadComparison));
    }

    // Pointer vs data_end (either side): refine data_len_min.
    let data_end_cmp = match (dst, rhs) {
        (Reg::Ptr { region, omin, .. }, Reg::PtrDataEnd) if *region == Region::Data => {
            Some((*omin, false))
        }
        (Reg::PtrDataEnd, Reg::Ptr { region, omin, .. }) if *region == Region::Data => {
            Some((*omin, true))
        }
        _ => None,
    };
    if let Some((p_omin, swapped)) = data_end_cmp {
        if is32 {
            return Err(err(VerifyErrorKind::BadComparison));
        }
        // Normalise to "p CMP end".
        let norm = if swapped { flip(code) } else { code };
        let mut taken = state.clone();
        let mut fall = state.clone();
        match norm {
            JMP_JLE => taken.data_len_min = taken.data_len_min.max(p_omin),
            JMP_JLT => taken.data_len_min = taken.data_len_min.max(p_omin + 1),
            JMP_JGT => fall.data_len_min = fall.data_len_min.max(p_omin),
            JMP_JGE => fall.data_len_min = fall.data_len_min.max(p_omin + 1),
            JMP_JEQ | JMP_JNE => {}
            _ => return Err(err(VerifyErrorKind::BadComparison)),
        }
        return Ok((Some(taken), Some(fall)));
    }

    // Same-region pointer comparisons: compare offset intervals.
    if dst.is_pointer() || rhs.is_pointer() {
        let (
            Reg::Ptr { region, omin, omax },
            Reg::Ptr {
                omin: c, omax: d, ..
            },
        ) = (dst, rhs)
        else {
            return Err(err(VerifyErrorKind::BadComparison));
        };
        if !same_region(dst, rhs) || is32 {
            return Err(err(VerifyErrorKind::BadComparison));
        }
        let (a, b, c, d) = (*omin as u64, *omax as u64, *c as u64, *d as u64);
        let (t_dst, f_dst) = refine_unsigned(code, a, b, c, d);
        let refined = |iv: Option<(u64, u64)>| {
            iv.map(|(lo, hi)| {
                let mut s = state.clone();
                s.regs[dst_idx as usize] = Reg::Ptr {
                    region: *region,
                    omin: lo as i64,
                    omax: hi as i64,
                };
                s
            })
        };
        return Ok((refined(t_dst), refined(f_dst)));
    }

    // Scalar vs scalar.
    let (a, b) = scalar_interval(dst).expect("scalar");
    let (c, d) = scalar_interval(rhs).expect("scalar");
    if is32 || matches!(code, JMP_JSET | JMP_JSGT | JMP_JSGE | JMP_JSLT | JMP_JSLE) {
        // No refinement for 32-bit / signed / bit-test compares; both
        // branches stay reachable with unchanged intervals.
        return Ok((Some(state.clone()), Some(state.clone())));
    }
    let (t, f) = refine_unsigned(code, a, b, c, d);
    let mk = |iv: Option<(u64, u64)>| {
        iv.map(|(lo, hi)| {
            let mut s = state.clone();
            s.regs[dst_idx as usize] = Reg::Scalar { umin: lo, umax: hi };
            s
        })
    };
    let mut taken = mk(t);
    let mut fall = mk(f);
    // Also refine the rhs register when it is one (e.g. `jlt r1, r2`).
    if let Some(si) = src_idx {
        let (ts, fs) = refine_unsigned(flip(code), c, d, a, b);
        if let (Some(s), Some((lo, hi))) = (&mut taken, ts) {
            s.regs[si as usize] = Reg::Scalar { umin: lo, umax: hi };
        } else if ts.is_none() {
            taken = None;
        }
        if let (Some(s), Some((lo, hi))) = (&mut fall, fs) {
            s.regs[si as usize] = Reg::Scalar { umin: lo, umax: hi };
        } else if fs.is_none() {
            fall = None;
        }
    }
    Ok((taken, fall))
}

/// Flips a comparison so `a CMP b` becomes `b CMP' a`.
fn flip(code: u8) -> u8 {
    match code {
        JMP_JGT => JMP_JLT,
        JMP_JGE => JMP_JLE,
        JMP_JLT => JMP_JGT,
        JMP_JLE => JMP_JGE,
        other => other, // JEQ/JNE symmetric.
    }
}

/// Refines `[a, b]` under `dst CMP [c, d]`, returning intervals for the
/// taken and fall-through branches (`None` = branch unreachable).
#[allow(clippy::type_complexity)]
fn refine_unsigned(
    code: u8,
    a: u64,
    b: u64,
    c: u64,
    d: u64,
) -> (Option<(u64, u64)>, Option<(u64, u64)>) {
    let mk = |lo: u64, hi: u64| if lo <= hi { Some((lo, hi)) } else { None };
    match code {
        JMP_JEQ => {
            // taken: dst == rhs -> intersect; fall: unchanged (can only
            // refine when rhs is a point we could exclude — intervals
            // cannot represent holes).
            let t = mk(a.max(c), b.min(d));
            (t, Some((a, b)))
        }
        JMP_JNE => {
            // taken: unchanged; fall: dst == rhs.
            let f = mk(a.max(c), b.min(d));
            (Some((a, b)), f)
        }
        JMP_JGT => {
            // taken: dst > src >= c  ->  dst >= c+1.
            let t = if c == u64::MAX {
                None
            } else {
                mk(a.max(c + 1), b)
            };
            // fall: dst <= src <= d.
            let f = mk(a, b.min(d));
            (t, f)
        }
        JMP_JGE => {
            // taken: dst >= src >= c.
            let t = mk(a.max(c), b);
            // fall: dst < src <= d  ->  dst <= d-1.
            let f = if d == 0 { None } else { mk(a, b.min(d - 1)) };
            (t, f)
        }
        JMP_JLT => {
            // taken: dst < src <= d  ->  dst <= d-1.
            let t = if d == 0 { None } else { mk(a, b.min(d - 1)) };
            // fall: dst >= src >= c.
            let f = mk(a.max(c), b);
            (t, f)
        }
        JMP_JLE => {
            // taken: dst <= src <= d.
            let t = mk(a, b.min(d));
            // fall: dst > src >= c  ->  dst >= c+1.
            let f = if c == u64::MAX {
                None
            } else {
                mk(a.max(c + 1), b)
            };
            (t, f)
        }
        _ => (Some((a, b)), Some((a, b))),
    }
}

/// The exploration this module used before it walked blocks, as the
/// reference [`verify`] is tested against: one frame and one remembered
/// `(pc, state)` per instruction, a revisit pruned wherever it happens —
/// on equality of whole states, not of their hashes — and `max_path` the
/// deepest the frame stack got, which is why it misses a long arm that
/// joins a state the short arm explored first.
#[cfg(test)]
fn verify_slowly(prog: &Program) -> Result<VerifiedStats, VerifyError> {
    use std::collections::HashMap;

    struct Frame {
        key: (usize, State),
        succs: std::vec::IntoIter<(usize, State)>,
    }
    let an = Structure::of(prog)?;
    an.ways_in()?;
    let err = |pc, kind| Err(VerifyError { pc, kind });
    // Every state entered; `true` while it is on the path.
    let mut visited: HashMap<(usize, State), bool> = HashMap::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut enter = Some((0, State::initial()));
    let mut max_path = 0;
    loop {
        if let Some(key @ (pc, _)) = enter.take() {
            if pc >= prog.insns.len() {
                return err(pc.saturating_sub(1), VerifyErrorKind::FallsOffEnd);
            }
            match visited.get(&key) {
                Some(true) => return err(pc, VerifyErrorKind::UnboundedLoop),
                Some(false) => {}
                None if visited.len() == STATE_BUDGET => {
                    return err(pc, VerifyErrorKind::TooComplex)
                }
                None => {
                    let mut after = key.1.clone();
                    let succs = match an.step(pc, &mut after)? {
                        Flow::To(next) => vec![(next, after)],
                        Flow::End => vec![],
                        Flow::Fork(taken, fall) => vec![(taken, after), (pc + 1, fall)],
                    };
                    visited.insert(key.clone(), true);
                    stack.push(Frame {
                        key,
                        succs: succs.into_iter(),
                    });
                    max_path = max_path.max(stack.len());
                }
            }
        }
        let Some(top) = stack.last_mut() else {
            return Ok(VerifiedStats {
                states: visited.len(),
                max_path,
            });
        };
        enter = top.succs.next();
        if enter.is_none() {
            visited.insert(stack.pop().expect("non-empty").key, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{Asm, Width};
    use crate::insn::CLS_JMP;
    use crate::interp::{RecordingEnv, RunCtx, Trap, Vm};
    use crate::maps::{MapSet, MapSpec};
    use proptest::prelude::*;

    /// [`verify`], after checking it against the oracle: the same
    /// verdict for the same reason, and a longest path no shorter than
    /// the deepest one the oracle walked. Only the two rejections that
    /// depend on *where* a revisit is noticed may name another slot (the
    /// oracle notices at the instruction, `verify` at the next join), and
    /// without a join the two walks are the same walk.
    fn verify_against_oracle(prog: &Program) -> Result<VerifiedStats, VerifyError> {
        let (new, old) = (verify(prog), verify_slowly(prog));
        match (&new, &old) {
            (Ok(new), Ok(old)) => {
                assert!(new.max_path >= old.max_path, "{new:?} vs {old:?}");
                let ways_in = Structure::of(prog).and_then(|s| s.ways_in());
                if ways_in.expect("verified").iter().all(|&w| w == 1) {
                    assert_eq!(new, old, "no join, so nothing to prune");
                }
            }
            (Err(new), Err(old)) => {
                assert_eq!(new.kind, old.kind, "at {} vs {}", new.pc, old.pc);
                let moves = matches!(
                    new.kind,
                    VerifyErrorKind::UnboundedLoop | VerifyErrorKind::TooComplex
                );
                assert!(moves || new.pc == old.pc, "{new:?} vs {old:?}");
            }
            _ => panic!("verify says {new:?}, the oracle {old:?}"),
        }
        new
    }

    fn check(f: impl FnOnce(&mut Asm)) -> Result<VerifiedStats, VerifyError> {
        check_maps(f, vec![])
    }

    /// Every program these tests assemble goes past the oracle too.
    fn check_maps(
        f: impl FnOnce(&mut Asm),
        maps: Vec<MapSpec>,
    ) -> Result<VerifiedStats, VerifyError> {
        let mut a = Asm::new();
        f(&mut a);
        let prog = Program::with_maps(a.finish().expect("assembles"), maps);
        verify_against_oracle(&prog)
    }

    #[test]
    fn trivial_program_accepted() {
        check(|a| {
            a.mov64_imm(0, 0).exit();
        })
        .expect("accepted");
    }

    #[test]
    fn empty_program_rejected() {
        let prog = Program::new(vec![]);
        assert_eq!(
            verify(&prog).unwrap_err().kind,
            VerifyErrorKind::BadProgramSize
        );
    }

    #[test]
    fn uninit_read_rejected() {
        let err = check(|a| {
            a.mov64_reg(0, 5).exit();
        })
        .unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::UninitRead { reg: 5 });
    }

    #[test]
    fn exit_with_uninit_r0_rejected() {
        let err = check(|a| {
            a.exit();
        })
        .unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::BadReturn);
    }

    #[test]
    fn exit_with_pointer_r0_rejected() {
        let err = check(|a| {
            a.mov64_reg(0, 1).exit();
        })
        .unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::BadReturn, "leaking ctx pointer");
    }

    #[test]
    fn writing_fp_rejected() {
        let err = check(|a| {
            a.mov64_imm(10, 0).mov64_imm(0, 0).exit();
        })
        .unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::BadRegister);
    }

    #[test]
    fn fall_off_end_rejected() {
        let err = check(|a| {
            a.mov64_imm(0, 0);
        })
        .unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::FallsOffEnd);
    }

    #[test]
    fn unchecked_data_access_rejected() {
        let err = check(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::B, 0, 2, 0)
                .exit();
        })
        .unwrap_err();
        assert!(
            matches!(err.kind, VerifyErrorKind::OutOfBounds { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn checked_data_access_accepted() {
        check(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::DW, 3, 1, ctx_off::DATA_END)
                .mov64_reg(4, 2)
                .add64_imm(4, 8)
                .jgt_reg(4, 3, "out")
                .ldx(Width::DW, 0, 2, 0)
                .exit()
                .label("out")
                .mov64_imm(0, 0)
                .exit();
        })
        .expect("accepted");
    }

    #[test]
    fn bounds_check_does_not_cover_more_than_proven() {
        // Proves 8 bytes, then reads byte 8 (the 9th) -> reject.
        let err = check(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::DW, 3, 1, ctx_off::DATA_END)
                .mov64_reg(4, 2)
                .add64_imm(4, 8)
                .jgt_reg(4, 3, "out")
                .ldx(Width::B, 0, 2, 8)
                .exit()
                .label("out")
                .mov64_imm(0, 0)
                .exit();
        })
        .unwrap_err();
        assert!(
            matches!(err.kind, VerifyErrorKind::OutOfBounds { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn store_to_data_rejected() {
        let err = check(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::DW, 3, 1, ctx_off::DATA_END)
                .mov64_reg(4, 2)
                .add64_imm(4, 1)
                .jgt_reg(4, 3, "out")
                .st_imm(Width::B, 2, 0, 7)
                .label("out")
                .mov64_imm(0, 0)
                .exit();
        })
        .unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::ReadOnly);
    }

    #[test]
    fn store_to_ctx_rejected() {
        let err = check(|a| {
            a.st_imm(Width::DW, 1, 0, 7).mov64_imm(0, 0).exit();
        })
        .unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::ReadOnly);
    }

    #[test]
    fn stack_in_bounds_accepted_and_oob_rejected() {
        check(|a| {
            a.st_imm(Width::DW, 10, -8, 1)
                .ldx(Width::DW, 0, 10, -8)
                .exit();
        })
        .expect("in-bounds stack ok");

        let err = check(|a| {
            a.st_imm(Width::DW, 10, -516, 1).mov64_imm(0, 0).exit();
        })
        .unwrap_err();
        assert!(matches!(err.kind, VerifyErrorKind::OutOfBounds { .. }));

        let err = check(|a| {
            a.ldx(Width::DW, 0, 10, 0).exit();
        })
        .unwrap_err();
        assert!(matches!(err.kind, VerifyErrorKind::OutOfBounds { .. }));
    }

    #[test]
    fn scratch_writable_via_ctx() {
        check(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::SCRATCH)
                .st_imm(Width::DW, 2, 0, 5)
                .ldx(Width::DW, 0, 2, 0)
                .exit();
        })
        .expect("scratch is read-write");
    }

    #[test]
    fn scratch_oob_rejected() {
        let err = check(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::SCRATCH)
                .st_imm(Width::DW, 2, (SCRATCH_SIZE - 4) as i16, 5)
                .mov64_imm(0, 0)
                .exit();
        })
        .unwrap_err();
        assert!(matches!(err.kind, VerifyErrorKind::OutOfBounds { .. }));
    }

    #[test]
    fn ctx_load_must_match_field() {
        let err = check(|a| {
            a.ldx(Width::DW, 2, 1, 4).mov64_imm(0, 0).exit();
        })
        .unwrap_err();
        assert!(matches!(err.kind, VerifyErrorKind::OutOfBounds { .. }));

        let err = check(|a| {
            a.ldx(Width::W, 2, 1, ctx_off::DATA).mov64_imm(0, 0).exit();
        })
        .unwrap_err();
        assert!(
            matches!(err.kind, VerifyErrorKind::OutOfBounds { .. }),
            "narrow load of pointer field"
        );
    }

    #[test]
    fn infinite_ja_loop_rejected() {
        let err = check(|a| {
            a.mov64_imm(0, 0).label("spin").ja("spin");
        })
        .unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::UnboundedLoop);
    }

    #[test]
    fn constant_bounded_loop_accepted() {
        check(|a| {
            a.mov64_imm(0, 0)
                .label("loop")
                .add64_imm(0, 1)
                .jlt_imm(0, 64, "loop")
                .exit();
        })
        .expect("64-iteration loop unrolls");
    }

    #[test]
    fn register_bounded_loop_accepted() {
        // Bound comes from a masked (hence bounded) register.
        check(|a| {
            a.ldx(Width::DW, 6, 1, ctx_off::FILE_OFF)
                .and64_imm(6, 0x1f) // r6 in [0, 31]
                .mov64_imm(7, 0)
                .label("loop")
                .add64_imm(7, 1)
                .jlt_reg(7, 6, "loop")
                .mov64_imm(0, 0)
                .exit();
        })
        .expect("loop bounded by masked register");
    }

    #[test]
    fn unbounded_register_loop_rejected() {
        // The bound register is a full-range scalar: iteration count
        // cannot be bounded, so exploration must hit a limit and reject.
        let err = check(|a| {
            a.ldx(Width::DW, 6, 1, ctx_off::FILE_OFF)
                .mov64_imm(7, 0)
                .label("loop")
                .add64_imm(7, 1)
                .jlt_reg(7, 6, "loop")
                .mov64_imm(0, 0)
                .exit();
        })
        .unwrap_err();
        assert!(
            matches!(
                err.kind,
                VerifyErrorKind::TooComplex | VerifyErrorKind::UnboundedLoop
            ),
            "{err:?}"
        );
    }

    #[test]
    fn variable_index_access_with_mask_accepted() {
        // idx = hop & 0x7 (bounded 0..7); read data[idx] after proving 8
        // bytes of data.
        check(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::DW, 3, 1, ctx_off::DATA_END)
                .mov64_reg(4, 2)
                .add64_imm(4, 8)
                .jgt_reg(4, 3, "out")
                .ldx(Width::W, 5, 1, ctx_off::HOP)
                .and64_imm(5, 0x7)
                .add64_reg(2, 5)
                .ldx(Width::B, 0, 2, 0)
                .exit()
                .label("out")
                .mov64_imm(0, 0)
                .exit();
        })
        .expect("masked variable index accepted");
    }

    #[test]
    fn variable_index_without_mask_rejected() {
        let err = check(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::DW, 3, 1, ctx_off::DATA_END)
                .mov64_reg(4, 2)
                .add64_imm(4, 8)
                .jgt_reg(4, 3, "out")
                .ldx(Width::DW, 5, 1, ctx_off::FILE_OFF)
                .add64_reg(2, 5)
                .ldx(Width::B, 0, 2, 0)
                .exit()
                .label("out")
                .mov64_imm(0, 0)
                .exit();
        })
        .unwrap_err();
        assert!(
            matches!(err.kind, VerifyErrorKind::BadPointerArithmetic { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn div_by_const_zero_rejected() {
        let err = check(|a| {
            a.mov64_imm(0, 5).div64_imm(0, 0).exit();
        })
        .unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::DivByZero);
    }

    /// `r2 = 0x1_0000_0008; <code>32 r2, imm; r2 -= sub`, then eight
    /// bytes read at `data + r2` behind an eight-byte `data_end` proof.
    fn alu32_witness(code: u8, imm: i32, sub: u64) -> Program {
        let mut a = Asm::new();
        a.ld_imm64(2, 0x1_0000_0008);
        let mut insns = a.finish().expect("assembles");
        insns.push(Insn::new(CLS_ALU | code, 2, 0, 0, imm));
        let mut a = Asm::new();
        a.ld_imm64(6, sub)
            .sub64_reg(2, 6)
            .ldx(Width::DW, 7, 1, ctx_off::DATA)
            .ldx(Width::DW, 8, 1, ctx_off::DATA_END)
            .mov64_reg(9, 7)
            .add64_imm(9, 8)
            .jgt_reg(9, 8, "out")
            .mov64_reg(3, 7)
            .add64_reg(3, 2)
            .ldx(Width::DW, 0, 3, 0)
            .exit()
            .label("out")
            .mov64_imm(0, 0)
            .exit();
        insns.extend(a.finish().expect("assembles"));
        Program::new(insns)
    }

    #[test]
    fn a_32_bit_op_reads_the_low_halves_of_its_operands() {
        // The 64-bit interval went through the op and only the result
        // was clamped: `rsh32` and `div32` made 0x8000_0004 of r2 and
        // `mod32` 10, so the subtraction left it 0 and `data + r2` was
        // admitted. At runtime the op reads the low half, 8: r2 is
        // `4 - 0x8000_0004` (`8 - 10`) and the load traps.
        let witnesses = [
            (ALU_RSH, 1, 0x8000_0004),
            (ALU_DIV, 2, 0x8000_0004),
            (ALU_MOD, 0x7fff_ffff, 10),
        ];
        for (code, imm, sub) in witnesses {
            let prog = alu32_witness(code, imm, sub);
            let err = verify_against_oracle(&prog).expect_err("an unbounded delta");
            assert_eq!(err.pc, 12, "{code:#x}: at `r3 += r2`");
            assert!(
                matches!(err.kind, VerifyErrorKind::BadPointerArithmetic { .. }),
                "{code:#x}: {err:?}"
            );
            let ctx = RunCtx {
                data: &[0; 8],
                file_off: 0,
                hop: 0,
                flags: 0,
                scratch: &mut [0u8; SCRATCH_SIZE],
            };
            let mut maps = MapSet::instantiate(&[]).expect("no maps");
            let ran = Vm::new().run(&prog, ctx, &mut maps, &mut RecordingEnv::default());
            assert!(
                matches!(ran, Err(Trap::OutOfBounds { pc: 13, .. })),
                "{ran:?}"
            );
        }
    }

    #[test]
    fn helper_unknown_rejected() {
        let err = check(|a| {
            a.mov64_imm(1, 0).call(77).exit();
        })
        .unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::UnknownHelper { id: 77 });
    }

    #[test]
    fn resubmit_signature() {
        check(|a| {
            a.ldx(Width::DW, 1, 1, ctx_off::FILE_OFF)
                .call(helper::RESUBMIT)
                .mov64_imm(0, 1)
                .exit();
        })
        .expect("scalar arg accepted");

        let err = check(|a| {
            a.call(helper::RESUBMIT).mov64_imm(0, 1).exit();
        })
        .unwrap_err();
        assert!(
            matches!(
                err.kind,
                VerifyErrorKind::BadHelperCall { .. } | VerifyErrorKind::UninitRead { .. }
            ),
            "pointer/uninit arg rejected: {err:?}"
        );
    }

    #[test]
    fn helper_clobbers_args_in_analysis() {
        // Reading r1 after a call must be rejected.
        let err = check(|a| {
            a.mov64_imm(1, 1).call(helper::TRACE).mov64_reg(0, 1).exit();
        })
        .unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::UninitRead { reg: 1 });
    }

    #[test]
    fn emit_requires_proven_length() {
        // Emit 16 bytes from data with only 8 proven -> reject.
        let err = check(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::DW, 3, 1, ctx_off::DATA_END)
                .mov64_reg(4, 2)
                .add64_imm(4, 8)
                .jgt_reg(4, 3, "out")
                .mov64_reg(1, 2)
                .mov64_imm(2, 16)
                .call(helper::EMIT)
                .mov64_imm(0, 2)
                .exit()
                .label("out")
                .mov64_imm(0, 0)
                .exit();
        })
        .unwrap_err();
        assert!(matches!(err.kind, VerifyErrorKind::BadHelperCall { .. }));
    }

    #[test]
    fn emit_within_proof_accepted() {
        check(|a| {
            a.ldx(Width::DW, 2, 1, ctx_off::DATA)
                .ldx(Width::DW, 3, 1, ctx_off::DATA_END)
                .mov64_reg(4, 2)
                .add64_imm(4, 16)
                .jgt_reg(4, 3, "out")
                .mov64_reg(1, 2)
                .mov64_imm(2, 16)
                .call(helper::EMIT)
                .mov64_imm(0, 2)
                .exit()
                .label("out")
                .mov64_imm(0, 0)
                .exit();
        })
        .expect("accepted");
    }

    #[test]
    fn a_helper_reads_nothing_below_a_region() {
        // Two bytes from one byte under the start of scratch and of the
        // stack: the range ends in bounds, it starts outside them.
        let starts: [fn(&mut Asm); 2] = [
            |a| {
                a.ldx(Width::DW, 1, 1, ctx_off::SCRATCH).add64_imm(1, -1);
            },
            |a| {
                a.mov64_reg(1, 10).add64_imm(1, -(STACK_SIZE as i32) - 1);
            },
        ];
        for start in starts {
            let err = check(|a| {
                start(a);
                a.mov64_imm(2, 2).call(helper::EMIT).mov64_imm(0, 0).exit();
            })
            .unwrap_err();
            assert!(
                matches!(err.kind, VerifyErrorKind::BadHelperCall { .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn pointers_into_two_maps_do_not_compare() {
        // Each map's value is a region of its own: ordering a pointer
        // into one against a pointer into the other bounds neither.
        let err = check_maps(
            |a| {
                a.st_imm(Width::W, 10, -4, 0);
                for (map, reg) in [(0, 6), (1, 7)] {
                    a.mov64_imm(1, map)
                        .mov64_reg(2, 10)
                        .add64_imm(2, -4)
                        .call(helper::MAP_LOOKUP)
                        .jeq_imm(0, 0, "miss")
                        .mov64_reg(reg, 0);
                }
                a.jgt_reg(6, 7, "miss").label("miss").mov64_imm(0, 0).exit();
            },
            vec![MapSpec::array(8, 4), MapSpec::array(8, 4)],
        )
        .unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::BadComparison);
    }

    #[test]
    fn map_lookup_requires_null_check() {
        let err = check_maps(
            |a| {
                a.st_imm(Width::W, 10, -4, 0)
                    .mov64_imm(1, 0)
                    .mov64_reg(2, 10)
                    .add64_imm(2, -4)
                    .call(helper::MAP_LOOKUP)
                    .ldx(Width::DW, 0, 0, 0) // deref without null check
                    .exit();
            },
            vec![MapSpec::array(8, 4)],
        )
        .unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::PossiblyNull);
    }

    #[test]
    fn map_lookup_with_null_check_accepted() {
        check_maps(
            |a| {
                a.st_imm(Width::W, 10, -4, 0)
                    .mov64_imm(1, 0)
                    .mov64_reg(2, 10)
                    .add64_imm(2, -4)
                    .call(helper::MAP_LOOKUP)
                    .jeq_imm(0, 0, "miss")
                    .ldx(Width::DW, 0, 0, 0)
                    .exit()
                    .label("miss")
                    .mov64_imm(0, 0)
                    .exit();
            },
            vec![MapSpec::array(8, 4)],
        )
        .expect("accepted");
    }

    #[test]
    fn map_value_access_bounded_by_value_size() {
        let err = check_maps(
            |a| {
                a.st_imm(Width::W, 10, -4, 0)
                    .mov64_imm(1, 0)
                    .mov64_reg(2, 10)
                    .add64_imm(2, -4)
                    .call(helper::MAP_LOOKUP)
                    .jeq_imm(0, 0, "miss")
                    .ldx(Width::DW, 0, 0, 8) // value_size is 8: offset 8 OOB
                    .exit()
                    .label("miss")
                    .mov64_imm(0, 0)
                    .exit();
            },
            vec![MapSpec::array(8, 4)],
        )
        .unwrap_err();
        assert!(matches!(err.kind, VerifyErrorKind::OutOfBounds { .. }));
    }

    #[test]
    fn map_id_must_be_constant_and_declared() {
        let err = check_maps(
            |a| {
                a.st_imm(Width::W, 10, -4, 0)
                    .mov64_imm(1, 3) // no map 3
                    .mov64_reg(2, 10)
                    .add64_imm(2, -4)
                    .call(helper::MAP_LOOKUP)
                    .mov64_imm(0, 0)
                    .exit();
            },
            vec![MapSpec::array(8, 4)],
        )
        .unwrap_err();
        assert!(matches!(err.kind, VerifyErrorKind::BadHelperCall { .. }));
    }

    #[test]
    fn jump_into_ld_imm64_pair_rejected() {
        // Hand-build: jump lands on the hi slot of ld_imm64.
        let [lo, hi] = Insn::ld_imm64(2, 42);
        let prog = Program::new(vec![
            Insn::new(CLS_JMP | JMP_JA, 0, 0, 1, 0), // jumps to slot 2 (hi)
            lo,
            hi,
            Insn::new(CLS_JMP | JMP_EXIT, 0, 0, 0, 0),
        ]);
        let err = verify(&prog).unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::BadJumpTarget);
    }

    #[test]
    fn diamond_join_is_not_a_loop() {
        check(|a| {
            a.ldx(Width::W, 2, 1, ctx_off::HOP)
                .mov64_imm(0, 0)
                .jeq_imm(2, 0, "left")
                .mov64_imm(0, 0) // right arm: same resulting state
                .ja("join")
                .label("left")
                .mov64_imm(0, 0)
                .label("join")
                .exit();
        })
        .expect("re-converging states accepted");
    }

    #[test]
    fn branch_pruning_kills_impossible_paths() {
        // r2 in [0, 7]; the `jgt r2, 100` taken branch is impossible and
        // must be pruned (it would otherwise hit an OOB data access).
        check(|a| {
            a.ldx(Width::W, 2, 1, ctx_off::HOP)
                .and64_imm(2, 0x7)
                .jgt_imm(2, 100, "impossible")
                .mov64_imm(0, 0)
                .exit()
                .label("impossible")
                .ldx(Width::DW, 3, 1, ctx_off::DATA)
                .ldx(Width::DW, 0, 3, 0) // would be OOB if reachable
                .exit();
        })
        .expect("unreachable branch pruned");
    }

    #[test]
    fn stats_reported() {
        let stats = check(|a| {
            a.mov64_imm(0, 0).exit();
        })
        .expect("accepted");
        assert!(stats.states >= 2);
        assert!(stats.max_path >= 2);
    }

    /// A diamond keyed on the hop count: `long` instructions down one
    /// arm, three down the other (one, where the long arm is the taken
    /// one), both arms leaving the same state at the join, and fifty
    /// instructions and an `exit` after it. Hop 7 takes the jump.
    fn diamond(long: usize, long_arm_taken: bool) -> Program {
        let mut a = Asm::new();
        a.ldx(Width::W, 2, 1, ctx_off::HOP)
            .mov64_imm(0, 0)
            .mov64_imm(1, 0)
            .jeq_imm(2, 7, "taken");
        let long_arm = |a: &mut Asm| {
            for _ in 0..long {
                a.mov64_imm(0, 0);
            }
        };
        if long_arm_taken {
            a.mov64_imm(2, 0).ja("join").label("taken");
            long_arm(&mut a);
            a.mov64_imm(2, 0);
        } else {
            long_arm(&mut a);
            a.mov64_imm(2, 0).ja("join").label("taken").mov64_imm(2, 0);
        }
        a.label("join");
        for _ in 0..50 {
            a.mov64_imm(0, 0);
        }
        a.exit();
        Program::new(a.finish().expect("assembles"))
    }

    /// Instructions `prog` retires at `hop` under an instruction budget.
    fn retired(prog: &Program, hop: u32, budget: u64) -> Result<u64, Trap> {
        let ctx = RunCtx {
            data: &[],
            file_off: 0,
            hop,
            flags: 0,
            scratch: &mut [0u8; SCRATCH_SIZE],
        };
        let mut maps = MapSet::instantiate(&prog.maps).expect("maps");
        Vm::with_budget(budget)
            .run(prog, ctx, &mut maps, &mut RecordingEnv::default())
            .map(|out| out.insns)
    }

    #[test]
    fn max_path_counts_the_long_arm_of_a_diamond_walked_second() {
        // The taken arm is walked first: 4 + 1 + 51 instructions. The
        // fall-through arm then reaches the join in a state the walk has
        // finished with, 46 instructions in, and the 51 below the join
        // count from there: 97. (Counting only what was walked, as the
        // deepest-stack measure did, reports 56 — and a tenant budget of
        // 56 then admits a program that retires 97.)
        let prog = diamond(40, false);
        assert_eq!(prog.insns.len(), 98);
        let stats = verify_against_oracle(&prog).expect("verifies");
        assert_eq!(verify_slowly(&prog).expect("verifies").max_path, 56);
        assert_eq!(stats.max_path, 97);
        assert_eq!(retired(&prog, 1, 97), Ok(97));
        assert_eq!(retired(&prog, 1, 96), Err(Trap::BudgetExceeded));
        assert_eq!(retired(&prog, 7, 97), Ok(56));

        let budget = |max_insns| {
            Some(ResourceBudget {
                chain_depth: 1,
                max_insns,
            })
        };
        assert_eq!(admit(&prog, budget(97)).map(|v| v.stats), Ok(stats));
        assert_eq!(
            admit(&prog, budget(96)).unwrap_err().kind,
            VerifyErrorKind::BudgetExceeded {
                worst_case: 97,
                budget: 96
            }
        );
    }

    #[test]
    fn max_path_counts_the_long_arm_of_a_diamond_walked_first() {
        // The mirror: the long arm is the taken one, so every
        // instruction of the longest path is walked.
        let prog = diamond(40, true);
        let stats = verify_against_oracle(&prog).expect("verifies");
        assert_eq!(stats.max_path, 4 + 40 + 1 + 51);
        assert_eq!(verify_slowly(&prog).expect("verifies").max_path, 96);
        assert_eq!(retired(&prog, 7, 96), Ok(96));
        assert_eq!(retired(&prog, 1, 96), Ok(4 + 2 + 51));
    }

    #[test]
    fn max_path_adds_up_across_nested_joins() {
        // Three diamonds in a row, each with its long arm walked second:
        // the longest path takes all three, through two joins that were
        // themselves finished by a hit on the next.
        let mut a = Asm::new();
        a.ldx(Width::W, 2, 1, ctx_off::HOP).mov64_imm(0, 0);
        for (i, long) in [7, 11, 13].into_iter().enumerate() {
            let (short, join) = (format!("short{i}"), format!("join{i}"));
            a.jset_imm(2, 1 << i, &short);
            for _ in 0..long {
                a.mov64_imm(0, 0);
            }
            a.ja(&join).label(&short).label(&join);
        }
        a.exit();
        let prog = Program::new(a.finish().expect("assembles"));
        let stats = verify_against_oracle(&prog).expect("verifies");
        assert_eq!(stats.max_path, 2 + (2 + 7) + (2 + 11) + (2 + 13) + 1);
        assert_eq!(retired(&prog, 0, 40), Ok(40));
        assert_eq!(retired(&prog, 7, 40), Ok(2 + 3 + 1));
    }

    /// `r0 = 0; r2 = 1; <op> r0, r2 (off 0, imm); r0 = 0; exit`: one
    /// instruction of any opcode on the only path, between scalars.
    fn around(op: u8, imm: i32) -> Program {
        let mov = |dst, imm| Insn::new(CLS_ALU64 | ALU_MOV, dst, 0, 0, imm);
        let exit = Insn::new(CLS_JMP | JMP_EXIT, 0, 0, 0, 0);
        Program::new(vec![
            mov(0, 0),
            mov(2, 1),
            Insn::new(op, 0, 2, 0, imm),
            mov(0, 0),
            exit,
        ])
    }

    #[test]
    fn a_reachable_undefined_alu_opcode_is_rejected() {
        // The abstract ALU ends in `_ => any scalar`, and nothing before
        // it asked whether the code was defined: these verified, and the
        // interpreter trapped at pc 2. Codes 0xe0 and 0xf0 in both
        // widths and operand forms; a byte swap in the 64-bit class.
        let undefined = [0xe7, 0xef, 0xf7, 0xff, 0xe4, 0xec, 0xf4, 0xfc]
            .map(|op| (op, 1))
            .into_iter()
            .chain([(0xd7, 16), (0xdf, 64)]);
        for (op, imm) in undefined {
            let prog = around(op, imm);
            let err = verify_against_oracle(&prog).expect_err("undefined");
            assert_eq!((err.pc, err.kind), (2, VerifyErrorKind::IllegalInsn));
            assert_eq!(retired(&prog, 0, 5), Err(Trap::IllegalInsn { pc: 2, op }));
        }
    }

    #[test]
    fn the_pass_admits_no_opcode_the_interpreter_traps_on() {
        // The pass's opcode table against the oracle's, exhaustively and
        // in one direction (the pass may refuse what the interpreter
        // would run: `ja` in `JMP32`). `compile` takes the pass's word.
        let mut verified = 0;
        for op in 0..=u8::MAX {
            for imm in [1, 16] {
                let prog = around(op, imm);
                let legal = Structure::of(&prog).is_ok();
                assert_eq!(crate::compile(&prog).is_ok(), legal, "op {op:#04x}");
                verified += verify(&prog).is_ok() as u32;
                if legal {
                    let ran = retired(&prog, 0, 5);
                    let refused = matches!(
                        ran,
                        Err(Trap::IllegalInsn { .. }
                            | Trap::BadRegister { .. }
                            | Trap::BadJump { .. }
                            | Trap::BadHelper { .. })
                    );
                    assert!(!refused, "op {op:#04x} imm {imm}: {ran:?}");
                }
            }
        }
        assert!(verified >= 100, "only {verified} of 512 verified");
        // The refusal the interpreter would have run.
        let err = verify(&around(CLS_JMP32 | JMP_JA, 1)).expect_err("no 32-bit ja");
        assert_eq!((err.pc, err.kind), (2, VerifyErrorKind::IllegalInsn));
        assert_eq!(retired(&around(CLS_JMP32 | JMP_JA, 1), 0, 5), Ok(5));
    }

    #[test]
    fn an_illegal_slot_is_rejected_where_no_path_reaches_it() {
        // The walk never met these, so `verify` admitted what `compile`
        // then declined: after `exit`, and on the side of a branch the
        // abstract state prunes.
        use VerifyErrorKind::{BadJumpTarget, IllegalInsn, UnknownHelper};
        let mov = |dst, imm| Insn::new(CLS_ALU64 | ALU_MOV, dst, 0, 0, imm);
        let exit = Insn::new(CLS_JMP | JMP_EXIT, 0, 0, 0, 0);
        let after_exit = |tail: &[Insn]| [&[mov(0, 0), exit], tail].concat();
        let pruned = vec![
            mov(1, 0),
            mov(0, 0),
            Insn::new(CLS_JMP | JMP_JEQ, 1, 0, 1, 0),
            Insn::new(0xe7, 0, 0, 0, 0),
            exit,
        ];
        let witnesses = [
            (
                after_exit(&[Insn::new(CLS_JMP | JMP_JA, 0, 0, 100, 0)]),
                2,
                BadJumpTarget,
            ),
            (after_exit(&[Insn::new(0xff, 0, 0, 0, 0)]), 2, IllegalInsn),
            (
                after_exit(&[Insn::new(CLS_JMP | JMP_CALL, 0, 0, 0, 9999), exit]),
                2,
                UnknownHelper { id: 9999 },
            ),
            (pruned, 3, IllegalInsn),
        ];
        for (insns, pc, kind) in witnesses {
            let prog = Program::new(insns);
            let err = verify_against_oracle(&prog).expect_err("illegal slot");
            assert_eq!((err.pc, &err.kind), (pc, &kind));
            assert_eq!(crate::compile(&prog).unwrap_err(), err);
        }
    }

    #[test]
    fn dead_code_is_rejected_however_well_formed() {
        let dead = |tail: fn(&mut Asm)| {
            let mut a = Asm::new();
            a.mov64_imm(0, 0).exit();
            tail(&mut a);
            let prog = Program::new(a.finish().expect("assembles"));
            let err = verify_against_oracle(&prog).expect_err("dead code");
            assert_eq!((err.pc, err.kind), (2, VerifyErrorKind::UnreachableCode));
            // Policy, not legality: the other user of the structural
            // pass takes the program.
            crate::compile(&prog).expect("every slot is legal");
        };
        dead(|a| {
            a.mov64_imm(0, 1).exit();
        });
        // Named at the instruction, not at the second half it ends in;
        // and a cycle among dead slots is as dead.
        dead(|a| {
            a.ld_imm64(0, 5).label("spin").ja("spin");
        });
    }

    /// The four in-tree programs (`bpfstor-core` builds on the plain
    /// build of this crate, so its `Program` is re-made as this build's).
    fn in_tree_programs() -> [(&'static str, Program); 4] {
        use bpfstor_core::progs;
        [
            ("btree", progs::btree_lookup_program()),
            ("sst", progs::sst_get_program(48)),
            ("chase", progs::pointer_chase_program()),
            ("scan", progs::scan_aggregate_program(24)),
        ]
        .map(|(name, p)| {
            assert!(p.maps.is_empty());
            let insns = p.insns.iter();
            let insns = insns.map(|i| crate::insn::Insn::new(i.op, i.dst, i.src, i.off, i.imm));
            (name, Program::new(insns.collect()))
        })
    }

    #[test]
    fn in_tree_programs_agree_with_the_oracle() {
        // The longest paths, which the tenant budget multiplies, beside
        // the deepest the oracle walked.
        let max_paths = [(343, 341), (459, 456), (14, 14), (248, 245)];
        for ((name, prog), (longest, walked)) in in_tree_programs().into_iter().zip(max_paths) {
            let stats = verify_against_oracle(&prog).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(stats.max_path, longest, "{name}");
            let oracle = verify_slowly(&prog).expect("agreed");
            assert_eq!(oracle.max_path, walked, "{name}");
        }
    }

    #[test]
    fn the_hash_only_picks_the_bucket() {
        // With every state in one bucket the interner still tells them
        // apart (it compares them), so nothing changes but the time.
        let in_tree = in_tree_programs().map(|(_, prog)| prog);
        for prog in in_tree
            .iter()
            .chain(&[diamond(40, false), diamond(40, true)])
        {
            let one_bucket = Structure::of(prog).and_then(|s| s.explore(|_, _| 0));
            assert_eq!(one_bucket, verify(prog));
        }
    }

    #[test]
    fn a_state_is_eleven_registers_of_24_bytes_and_a_length() {
        // What the walk copies at every fork and the interner stores at
        // every join. The widest register, a region and two offsets,
        // keeps the 24 bytes the four per-region pointer kinds took.
        assert_eq!(std::mem::size_of::<Reg>(), 24);
        assert_eq!(std::mem::size_of::<State>(), 272);
    }

    /// A rejection's kind without the free text of its `what`.
    fn kind_name(kind: &VerifyErrorKind) -> String {
        use VerifyErrorKind::{BadHelperCall, BadPointerArithmetic, OutOfBounds};
        match kind {
            OutOfBounds { .. } => "OutOfBounds".to_string(),
            BadPointerArithmetic { .. } => "BadPointerArithmetic".to_string(),
            BadHelperCall { .. } => "BadHelperCall".to_string(),
            kind => format!("{kind:?}"),
        }
    }

    #[test]
    fn verification_outcomes_are_pinned() {
        // Every verdict over the in-tree programs and 4 000 drawn ones —
        // accepted with how many states and how long a path, or rejected
        // where and why — folded into one FNV-1a digest. A change to the
        // abstract domain that moves any of them moves the digest;
        // `verify_agrees_with_the_oracle` cannot see one, because the
        // oracle steps with the same `step`.
        use proptest::test_runner::TestRng;
        let strategy = crate::arb::arb_program();
        let drawn = (0..4000).map(|seed| strategy.generate(&mut TestRng::seed(seed)));
        let in_tree = in_tree_programs().map(|(_, prog)| prog);
        let (mut digest, mut accepted) = (0xcbf2_9ce4_8422_2325u64, 0);
        for prog in in_tree.into_iter().chain(drawn) {
            let outcome = match verify(&prog) {
                Ok(stats) => {
                    accepted += 1;
                    format!("ok {} {}\n", stats.states, stats.max_path)
                }
                Err(e) => format!("err {} {}\n", e.pc, kind_name(&e.kind)),
            };
            for b in outcome.bytes() {
                digest = (digest ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(
            (accepted, digest),
            (1331, 0xd075_831a_5692_0e24),
            "{digest:#018x}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn verify_agrees_with_the_oracle(prog in crate::arb::arb_program()) {
            let _ = verify_against_oracle(&prog);
        }
    }
}
