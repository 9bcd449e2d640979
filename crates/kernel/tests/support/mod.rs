//! The one fixture module of the machine-level tests: how a test builds
//! a machine, and how it drives chains through it.
//!
//! `stack.rs` declares it (`mod support;`); the workspace suites
//! (`tests/props.rs`, `tests/end_to_end.rs`) include the same file by
//! path, the convention of `crates/vm/tests/arb/`. Every machine a test
//! builds comes from [`machine`], which *takes the config*: a contract
//! written against `machine_with(cfg, …)` can be re-asserted over any
//! world a `MachineConfig` describes.

// Each suite uses its own subset.
#![allow(dead_code)]

use bpfstor_device::SECTOR_SIZE;
use bpfstor_kernel::{
    ChainDriver, ChainOutcome, ChainSpec, ChainStart, ChainToken, ChainVerdict, DispatchMode,
    FabricConfig, Fd, Machine, MachineConfig, UserNext, WriteStart,
};
use bpfstor_sim::{LatencyDist, Nanos, SimRng};
use bpfstor_vm::{action, ctx_off, helper, Asm, Program, Width};

// --- Fixtures ------------------------------------------------------------------

/// Marks the last block of a [`chain_file`].
pub const SENTINEL: u64 = u64::MAX;

/// What the last block of a [`chain_file`] carries in bytes 8..16.
pub const CHAIN_VALUE: u64 = 0xABAD_1DEA_F00D_CAFE;

/// A file of `n` blocks where block `i` holds the byte offset of block
/// `i+1` in its first 8 bytes; the last block holds [`SENTINEL`] and
/// then [`CHAIN_VALUE`].
pub fn chain_file(n: usize) -> Vec<u8> {
    let mut data = vec![0u8; n * SECTOR_SIZE];
    for i in 0..n {
        let at = i * SECTOR_SIZE;
        if i + 1 < n {
            let next = ((i + 1) * SECTOR_SIZE) as u64;
            data[at..at + 8].copy_from_slice(&next.to_le_bytes());
        } else {
            data[at..at + 8].copy_from_slice(&SENTINEL.to_le_bytes());
            data[at + 8..at + 16].copy_from_slice(&CHAIN_VALUE.to_le_bytes());
        }
    }
    data
}

/// The BPF pointer chase over a [`chain_file`]: resubmit to the next
/// offset until the sentinel, then emit the 8-byte value.
pub fn chase_program() -> Program {
    let mut a = Asm::new();
    a.ldx(Width::DW, 6, 1, ctx_off::DATA)
        .ldx(Width::DW, 7, 1, ctx_off::DATA_END)
        .mov64_reg(8, 6)
        .add64_imm(8, 16)
        .jgt_reg(8, 7, "halt") // need 16 readable bytes
        .ldx(Width::DW, 2, 6, 0) // next offset or sentinel
        .ld_imm64(3, SENTINEL)
        .jeq_reg(2, 3, "emit")
        .mov64_reg(1, 2)
        .call(helper::RESUBMIT)
        .mov64_imm(0, action::ACT_RESUBMIT as i32)
        .exit()
        .label("emit")
        .mov64_reg(1, 6)
        .add64_imm(1, 8)
        .mov64_imm(2, 8)
        .call(helper::EMIT)
        .mov64_imm(0, action::ACT_EMIT as i32)
        .exit()
        .label("halt")
        .mov64_imm(0, action::ACT_HALT as i32)
        .exit();
    Program::new(a.finish().expect("assembles"))
}

/// The key/value table of the SSTable and YCSB tests: `n` keys three
/// apart, 48-byte values that start with `31 * i`.
pub fn kv_entries(n: u64) -> Vec<(u64, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let mut v = vec![0u8; 48];
            v[..8].copy_from_slice(&(i * 31).to_le_bytes());
            (i * 3, v)
        })
        .collect()
}

/// A zero-jitter fabric link: `one_way` ns each direction, no fixed
/// target-side processing — keeps latency arithmetic exact in tests.
pub fn exact_link(one_way: Nanos) -> FabricConfig {
    FabricConfig {
        latency: LatencyDist::Constant(one_way),
        target_proc_ns: 0,
        ..FabricConfig::default()
    }
}

/// Where every test machine is built.
pub fn machine(cfg: MachineConfig) -> Machine {
    Machine::new(cfg)
}

/// A machine under `cfg` holding one file, opened `O_DIRECT` for the
/// default tenant, with `program` (if any) installed and attached.
pub fn machine_with(
    cfg: MachineConfig,
    name: &str,
    bytes: &[u8],
    program: Option<Program>,
) -> (Machine, Fd) {
    let mut m = machine(cfg);
    m.create_file(name, bytes).expect("create");
    let fd = m.open(name, true).expect("open");
    if let Some(program) = program {
        m.install(fd, program, 0).expect("install");
    }
    (m, fd)
}

// --- The scripted driver -------------------------------------------------------

/// The test suites' [`ChainDriver`]: three plain functions over a
/// state `S` the test reads back after the run. It counts what it
/// issued and keeps every outcome it accepted; the defaults are the
/// trait's own (a chain is one hop, every outcome is accepted).
pub struct Script<S> {
    pub mode: DispatchMode,
    pub state: S,
    /// Operations issued so far.
    pub issued: u64,
    /// Each chain the script accepted (`done` said `Done`), in
    /// completion order.
    pub outcomes: Vec<ChainOutcome>,
    /// The `issued`-th operation, asked by `thread`; `None` stops it. A
    /// write's payload may borrow the state: the kernel copies it.
    pub next: Next<S>,
    /// The application's step over a completed block (`User`/`Remote`).
    pub step: fn(&mut S, &ChainToken, &[u8]) -> UserNext,
    /// The verdict on a finished chain.
    pub done: fn(&mut S, &ChainOutcome) -> ChainVerdict,
}

/// A script's issuing function ([`Script::next`]).
pub type Next<S> = for<'s> fn(&'s mut S, u64, usize, &mut SimRng) -> Option<ChainSpec<'s>>;

impl<S> Script<S> {
    pub fn new(mode: DispatchMode, state: S, next: Next<S>) -> Self {
        Script {
            mode,
            state,
            issued: 0,
            outcomes: Vec::new(),
            next,
            step: |_, _, _| UserNext::Done,
            done: |_, _| ChainVerdict::Done,
        }
    }
}

impl<S> ChainDriver for Script<S> {
    fn mode(&self) -> DispatchMode {
        self.mode
    }

    fn next_op(&mut self, thread: usize, rng: &mut SimRng) -> Option<ChainSpec<'_>> {
        let op = (self.next)(&mut self.state, self.issued, thread, rng)?;
        self.issued += 1;
        Some(op)
    }

    fn user_step(&mut self, _thread: usize, token: &ChainToken, data: &[u8]) -> UserNext {
        (self.step)(&mut self.state, token, data)
    }

    fn chain_done(&mut self, _thread: usize, outcome: &ChainOutcome) -> ChainVerdict {
        let verdict = (self.done)(&mut self.state, outcome);
        if verdict == ChainVerdict::Done {
            self.outcomes.push(outcome.clone());
        }
        verdict
    }
}

/// A read chain's opening operation.
pub fn read(fd: Fd, file_off: u64, len: u32, arg: u64) -> ChainSpec<'static> {
    ChainSpec::Read(ChainStart {
        fd,
        file_off,
        len,
        arg,
    })
}

/// A journaled write chain (`data` empty with `fsync`: a pure fsync).
pub fn write(fd: Fd, file_off: u64, data: &[u8], fsync: bool, arg: u64) -> ChainSpec<'_> {
    ChainSpec::Write(WriteStart {
        fd,
        file_off,
        data,
        fsync,
        arg,
    })
}

/// `count` reads of `len` bytes from the start of `fd`.
pub struct Reads {
    pub fd: Fd,
    pub len: u32,
    pub count: u64,
}

impl Reads {
    pub fn next(
        &mut self,
        issued: u64,
        _thread: usize,
        _rng: &mut SimRng,
    ) -> Option<ChainSpec<'_>> {
        (issued < self.count).then(|| read(self.fd, 0, self.len, 0))
    }
}

/// `count` one-block reads of `fd`, each a single hop.
pub fn reads(fd: Fd, mode: DispatchMode, count: u64) -> Script<Reads> {
    let len = SECTOR_SIZE as u32;
    Script::new(mode, Reads { fd, len, count }, Reads::next)
}

/// `count` walks of the [`chain_file`] behind `fd`: in `User` and
/// `Remote` mode the application follows the pointers itself.
pub fn chase(fd: Fd, mode: DispatchMode, count: u64) -> Script<Reads> {
    let mut script = reads(fd, mode, count);
    script.step = |_, _, data| chase_step(data);
    script
}

/// The application's side of the pointer chase.
pub fn chase_step(data: &[u8]) -> UserNext {
    match u64::from_le_bytes(data[..8].try_into().expect("8B")) {
        SENTINEL => UserNext::Done,
        next => UserNext::Continue(next),
    }
}

/// `count` journaled writes of `len` bytes at successive offsets, every
/// `fsync_every`-th one fsynced (0 = never), then — with `final_fsync`
/// — one pure fsync, so that everything logged is durable when the run
/// drains. Every write lends the same buffer, refilled for each, as
/// `YcsbMix` lends its one record.
pub struct Writes {
    pub fd: Fd,
    pub len: usize,
    pub count: u64,
    pub fsync_every: u64,
    pub final_fsync: bool,
    /// The one buffer every write lends.
    pub record: Vec<u8>,
}

impl Writes {
    /// Write `i` fills its range with this byte (never zero).
    pub fn fill(i: u64) -> u8 {
        (i % 251) as u8 + 1
    }

    pub fn next(&mut self, i: u64, _thread: usize, _rng: &mut SimRng) -> Option<ChainSpec<'_>> {
        let (fd, len) = (self.fd, self.len);
        if i < self.count {
            let fsync = self.fsync_every != 0 && (i + 1).is_multiple_of(self.fsync_every);
            self.record.clear();
            self.record.resize(len, Writes::fill(i));
            return Some(write(fd, i * len as u64, &self.record, fsync, i));
        }
        (self.final_fsync && i == self.count).then(|| write(fd, 0, &[], true, u64::MAX))
    }
}

/// The [`Writes`] stream from the application (`User` dispatch; write
/// pushdown over a fabric machine sets `mode` to `DriverHook`).
pub fn writes(fd: Fd, len: usize, count: u64, fsync_every: u64) -> Script<Writes> {
    let state = Writes {
        fd,
        len,
        count,
        fsync_every,
        final_fsync: false,
        record: Vec::new(),
    };
    Script::new(DispatchMode::User, state, Writes::next)
}
