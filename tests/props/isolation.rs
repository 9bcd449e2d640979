// --- Buffer recycling: no chain ever reads another chain's bytes ---------------

/// Blocks per isolation-test file: `ISO_WRITTEN` carry a per-file
/// pattern, the rest are fallocated and never written (so the store
/// holds no sector behind them: every one is a hole).
const ISO_BLOCKS: u64 = 72;
const ISO_WRITTEN: u64 = 40;
/// Chains wrap inside this many bytes, so an 8-sector read always fits.
const ISO_SPAN: u64 = (ISO_BLOCKS - 8) * SECTOR_SIZE as u64;
/// Bytes of scratch past the 8-byte argument.
const ISO_SCRATCH_TAIL: usize = SCRATCH_SIZE - 8;

/// Past the read span each file has a write region: one slot of
/// `ISO_SLOT` blocks per planned chain, preallocated in pieces that
/// alternate between the two files, so that a slot's blocks are its
/// own and some slots straddle two physical runs.
const ISO_SLOT: u64 = 4;
const ISO_SLOTS: u64 = 60;
const ISO_PIECE: u64 = 6;
/// Small enough that one oversized write finds the device full.
const ISO_FS_BLOCKS: u64 = 2048;

/// One planned chain: `(tenant, sectors per read, start block, stride
/// in blocks, hops, end with ACT_PASS instead of ACT_EMIT)`.
type IsoChain = (usize, u32, u64, u64, u64, bool);

/// One planned write chain, into the slot of its plan index: `(tenant,
/// byte offset in the slot, length, fsync)`.
type IsoWrite = (usize, usize, usize, bool);

/// A length past the slot marks the write that cannot be planned: it
/// goes past the preallocated region and asks for more blocks than the
/// device has.
fn iso_no_room(w: &IsoWrite) -> bool {
    w.2 > ISO_SLOT_BYTES
}

#[derive(Debug, Clone, Copy)]
enum IsoOp {
    Read(IsoChain),
    Write(IsoWrite),
}

const ISO_SLOT_BYTES: usize = ISO_SLOT as usize * SECTOR_SIZE;

/// Byte `pos` of the payload of the write planned at index `i`: never
/// zero, and different from every other chain's at the same place in
/// its slot.
fn iso_fill(i: usize, pos: usize) -> u8 {
    1 + ((i * 37 + pos) % 250) as u8
}

fn iso_slot_off(i: usize) -> u64 {
    (ISO_BLOCKS + i as u64 * ISO_SLOT) * SECTOR_SIZE as u64
}

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
    for off in (8..SCRATCH_SIZE as i16).step_by(8) {
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

/// The state of the isolation script: the planned chains, and every
/// byte the kernel hands back checked against `model` (each file's
/// contents by fresh store reads).
struct Iso {
    fds: [Fd; 2],
    model: [Vec<u8>; 2],
    plan: Vec<IsoOp>,
    /// Plan indices of the writes that came back `Written`.
    written: Vec<usize>,
    /// token id → (offset of the read in flight, its hop).
    live: std::collections::HashMap<u64, (u64, u64)>,
    violations: Vec<String>,
}

impl Iso {
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

    fn next(&mut self, issued: u64, _thread: usize, _rng: &mut SimRng) -> Option<ChainSpec> {
        // The plan index rides in the argument's top half.
        Some(match self.plan.get(issued as usize)? {
            IsoOp::Read(c) => {
                let (off, len) = (c.2 * SECTOR_SIZE as u64, c.1 * SECTOR_SIZE as u32);
                read(self.fds[c.0], off, len, iso_arg(c) | issued << 32)
            }
            IsoOp::Write(w) => {
                let (i, &(t, head, len, fsync)) = (issued as usize, w);
                let data = (0..len).map(|pos| iso_fill(i, pos)).collect();
                let off = if iso_no_room(w) {
                    iso_slot_off(ISO_SLOTS as usize)
                } else {
                    iso_slot_off(i) + head as u64
                };
                write(self.fds[t], off, data, fsync, issued << 32)
            }
        })
    }

    /// The read chain planned at the index `arg` carries.
    fn read_at(&self, arg: u64) -> IsoChain {
        match self.plan[(arg >> 32) as usize] {
            IsoOp::Read(c) => c,
            IsoOp::Write(w) => panic!("write {w:?} stepped as a read"),
        }
    }

    fn step(&mut self, token: &ChainToken, data: &[u8]) -> UserNext {
        let c = self.read_at(token.arg);
        let first = (c.2 * SECTOR_SIZE as u64, 0);
        let (off, hop) = *self.live.entry(token.id).or_insert(first);
        self.expect_block("user hop", &c, off, data);
        if hop + 1 >= c.4 {
            self.live.remove(&token.id);
            return UserNext::Done;
        }
        let next = iso_next_off(off, c.3);
        self.live.insert(token.id, (next, hop + 1));
        UserNext::Continue(next)
    }

    fn done(&mut self, outcome: &ChainOutcome) -> ChainVerdict {
        let i = (outcome.token.arg >> 32) as usize;
        if let IsoOp::Write(w) = self.plan[i] {
            match outcome.status {
                ChainStatus::Written(n) if n as usize == w.2 && !iso_no_room(&w) => {
                    self.written.push(i)
                }
                ChainStatus::IoError if iso_no_room(&w) => {}
                ref other => self.violations.push(format!("write {w:?} ended {other:?}")),
            }
            return ChainVerdict::Done;
        }
        let c = self.read_at(outcome.token.arg);
        let last = Iso::off_at(&c, c.4 - 1);
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
                let hop = (0..c.4).find(|&h| Iso::off_at(&c, h + 1) == *file_off);
                match hop {
                    Some(h) => self.expect_block("split", &c, Iso::off_at(&c, h), data),
                    None => self
                        .violations
                        .push(format!("chain {c:?}: split at {file_off}")),
                }
            }
            other => self.violations.push(format!("chain {c:?} ended {other:?}")),
        }
        ChainVerdict::Done
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
    ///
    /// Write chains run between them, each into a slot of its own: whole
    /// sectors into one run (the payload becomes the command), unaligned
    /// ranges and slots that straddle two runs (read-modify-written,
    /// one command per run), a write the device has no room for (its
    /// plan fails), and — `tight`: one queue pair, one SQ slot per
    /// tenant — writes that park with their plan and are cut when they
    /// are admitted. A write's plan, its commands and the batch they
    /// ride in are pooled like the read buffers; afterwards every stored
    /// sector of every slot holds its own chain's bytes and zeroes, and
    /// nothing else.
    #[test]
    fn recycled_buffers_never_leak_between_chains_or_tenants(
        chains in proptest::collection::vec(
            (0usize..2, 0usize..3, 0u64..ISO_BLOCKS - 8, 1u64..ISO_BLOCKS, 1u64..6, any::<bool>()),
            8..ISO_SLOTS as usize
        ),
        // Per chain: what it is (0-5 a read, 6-7 an aligned write, 8-10
        // an unaligned one, 11 the write that finds no space) and, for
        // a write, its offset in the slot and its length.
        kinds in proptest::collection::vec(
            (0u8..12, 0usize..ISO_SLOT_BYTES, 1usize..=ISO_SLOT_BYTES),
            ISO_SLOTS as usize
        ),
        hook in any::<bool>(),
        fabric in any::<bool>(),
        tight in any::<bool>(),
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let transport = if fabric {
            TransportConfig::Fabric(FabricConfig::symmetric(9_000, 2_000))
        } else {
            TransportConfig::Local
        };
        let cores = if tight { 1 } else { 2 };
        let mut m = machine(MachineConfig {
            cores,
            seed,
            transport,
            fs_blocks: ISO_FS_BLOCKS,
            ..MachineConfig::default()
        });
        let limits = TenantLimits { sq_slots: tight.then_some(1), ..TenantLimits::default() };
        m.set_tenant_limits(0, limits);
        let tenant_b = m.register_tenant(limits);
        let files = [("a.db", 0), ("b.db", tenant_b)];
        let mut inos = [0; 2];
        let mut model = [Vec::new(), Vec::new()];
        for (t, (name, _)) in files.into_iter().enumerate() {
            // Every written byte is nonzero and differs between the
            // files, so a leaked byte can never pass for the right one.
            let image: Vec<u8> = (0..ISO_WRITTEN as usize * SECTOR_SIZE)
                .map(|i| 1 + ((i / SECTOR_SIZE * 7 + i + 100 * t) % 250) as u8)
                .collect();
            let ino = m.create_file(name, &image).expect("create");
            inos[t] = ino;
            let (fs, store) = m.fs_and_store();
            fs.fallocate(ino, ISO_WRITTEN, ISO_BLOCKS - ISO_WRITTEN, store).expect("fallocate");
            // TRIM two written blocks: zeroes inside a live chunk.
            let (phys, _) = fs.map(ino, 9).expect("inode").expect("mapped");
            store.discard(phys, 2);
            for lb in 0..ISO_BLOCKS {
                let (phys, _) = fs.map(ino, lb).expect("inode").expect("mapped");
                model[t].extend(store.read(phys, 1));
            }
        }
        prop_assert!(model[0][ISO_WRITTEN as usize * SECTOR_SIZE..].iter().all(|&b| b == 0));
        // The write regions, piece by piece, a's and b's interleaved.
        let (fs, store) = m.fs_and_store();
        for lb in (ISO_BLOCKS..ISO_BLOCKS + ISO_SLOTS * ISO_SLOT).step_by(ISO_PIECE as usize) {
            for ino in inos {
                fs.fallocate(ino, lb, ISO_PIECE, store).expect("fallocate");
            }
        }
        let fds = files.map(|(name, tenant)| {
            let fd = m.open_for(tenant, name).expect("open");
            m.install(fd, iso_program(), 0).expect("program verifies");
            fd
        });

        let plan: Vec<IsoOp> = chains
            .iter()
            .zip(&kinds)
            .map(|(&(t, n, start, stride, hops, pass), &(kind, head, len))| match kind {
                0..=5 => IsoOp::Read((t, [1, 3, 8][n], start, stride, hops, pass)),
                6..=7 => IsoOp::Write((t, 0, len.next_multiple_of(SECTOR_SIZE), pass)),
                8..=10 => IsoOp::Write((t, head, len.min(ISO_SLOT_BYTES - head), pass)),
                _ => IsoOp::Write((t, 0, ISO_FS_BLOCKS as usize * SECTOR_SIZE, pass)),
            })
            .collect();
        let mode = match (hook, fabric) {
            (true, _) => DispatchMode::DriverHook,
            (false, true) => DispatchMode::Remote,
            (false, false) => DispatchMode::User,
        };
        let state = Iso {
            fds,
            model,
            plan,
            written: Vec::new(),
            live: std::collections::HashMap::new(),
            violations: Vec::new(),
        };
        let mut driver = Script::new(mode, state, Iso::next);
        (driver.step, driver.done) = (Iso::step, Iso::done);
        let report = m.run_closed_loop(threads, SECOND, &mut driver);
        let planned = driver.state.plan.len();
        prop_assert_eq!(driver.outcomes.len(), planned, "every planned chain finished");
        prop_assert_eq!(report.chains as usize, planned);
        prop_assert!(driver.state.violations.is_empty(), "{:#?}", driver.state.violations);

        // What the slots must hold now: each delivered write's bytes
        // where it put them, zeroes everywhere else.
        let slots_bytes = ISO_SLOTS as usize * ISO_SLOT_BYTES;
        let mut want = [vec![0u8; slots_bytes], vec![0u8; slots_bytes]];
        for &i in &driver.state.written {
            let IsoOp::Write((t, head, len, _)) = driver.state.plan[i] else { unreachable!() };
            let at = i * ISO_SLOT_BYTES + head;
            want[t][at..at + len].iter_mut().enumerate().for_each(|(pos, b)| *b = iso_fill(i, pos));
        }
        let failed = driver.state.plan.iter().any(|op| matches!(op, IsoOp::Write(w) if iso_no_room(w)));
        let (fs, store) = m.fs_and_store();
        for (t, ino) in inos.into_iter().enumerate() {
            let mut got = Vec::with_capacity(slots_bytes);
            for lb in ISO_BLOCKS..ISO_BLOCKS + ISO_SLOTS * ISO_SLOT {
                let (phys, _) = fs.map(ino, lb).expect("inode").expect("mapped");
                got.extend(store.read(phys, 1));
            }
            let at = got.iter().zip(&want[t]).position(|(a, b)| a != b);
            prop_assert_eq!(at, None, "file {}: first foreign byte, slot {:?}", t, at.map(|a| a / ISO_SLOT_BYTES));
            // The blocks a failed plan mapped on its way to `NoSpace`
            // stay mapped and read as zeroes; it stored nothing.
            let mut lb = ISO_BLOCKS + ISO_SLOTS * ISO_SLOT;
            while let Some((phys, run)) = fs.map(ino, lb).expect("inode") {
                prop_assert!(store.read(phys, run as u32).iter().all(|&b| b == 0), "file {}: block {}", t, lb);
                lb += run;
            }
            prop_assert!(failed || lb == ISO_BLOCKS + ISO_SLOTS * ISO_SLOT);
        }
    }
}
