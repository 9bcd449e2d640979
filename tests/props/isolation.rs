// --- Buffer recycling: no chain ever reads another chain's bytes ---------------

/// Blocks per isolation-test file: `ISO_WRITTEN` carry a per-file
/// pattern, the rest are fallocated and never written (so at least one
/// whole store chunk behind them is absent).
const ISO_BLOCKS: u64 = 72;
const ISO_WRITTEN: u64 = 40;
/// Chains wrap inside this many bytes, so an 8-sector read always fits.
const ISO_SPAN: u64 = (ISO_BLOCKS - 8) * SECTOR_SIZE as u64;
/// Bytes of scratch past the 8-byte argument.
const ISO_SCRATCH_TAIL: usize = SCRATCH_SIZE - 8;

/// One planned chain: `(tenant, sectors per read, start block, stride
/// in blocks, hops, end with ACT_PASS instead of ACT_EMIT)`.
type IsoChain = (usize, u32, u64, u64, u64, bool);

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
    plan: Vec<IsoChain>,
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
        let c = self.plan.get(issued as usize)?;
        let (off, len) = (c.2 * SECTOR_SIZE as u64, c.1 * SECTOR_SIZE as u32);
        // The plan index rides in the argument's top half.
        Some(read(self.fds[c.0], off, len, iso_arg(c) | issued << 32))
    }

    fn step(&mut self, token: &ChainToken, data: &[u8]) -> UserNext {
        let c = self.plan[(token.arg >> 32) as usize];
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
        let c = self.plan[(outcome.token.arg >> 32) as usize];
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
    #[test]
    fn recycled_buffers_never_leak_between_chains_or_tenants(
        chains in proptest::collection::vec(
            (0usize..2, 0usize..3, 0u64..ISO_BLOCKS - 8, 1u64..ISO_BLOCKS, 1u64..6, any::<bool>()),
            8..60
        ),
        hook in any::<bool>(),
        fabric in any::<bool>(),
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let transport = if fabric {
            TransportConfig::Fabric(FabricConfig::symmetric(9_000, 2_000))
        } else {
            TransportConfig::Local
        };
        let mut m = machine(MachineConfig { cores: 2, seed, transport, ..MachineConfig::default() });
        let tenant_b = m.register_tenant(TenantLimits::default());
        let mut fds = [0; 2];
        let mut model = [Vec::new(), Vec::new()];
        for (t, (name, tenant)) in [("a.db", 0), ("b.db", tenant_b)].into_iter().enumerate() {
            // Every written byte is nonzero and differs between the
            // files, so a leaked byte can never pass for the right one.
            let image: Vec<u8> = (0..ISO_WRITTEN as usize * SECTOR_SIZE)
                .map(|i| 1 + ((i / SECTOR_SIZE * 7 + i + 100 * t) % 250) as u8)
                .collect();
            let ino = m.create_file(name, &image).expect("create");
            let (fs, store) = m.fs_and_store();
            fs.fallocate(ino, ISO_WRITTEN, ISO_BLOCKS - ISO_WRITTEN, store).expect("fallocate");
            // TRIM two written blocks: zeroes inside a live chunk.
            let (phys, _) = fs.map(ino, 9).expect("inode").expect("mapped");
            store.discard(phys, 2);
            for lb in 0..ISO_BLOCKS {
                let (phys, _) = fs.map(ino, lb).expect("inode").expect("mapped");
                model[t].extend(store.read(phys, 1));
            }
            fds[t] = m.open_for(tenant, name, true).expect("open");
            m.install(fds[t], iso_program(), 0).expect("program verifies");
        }
        prop_assert!(model[0][ISO_WRITTEN as usize * SECTOR_SIZE..].iter().all(|&b| b == 0));

        let plan: Vec<IsoChain> = chains
            .iter()
            .map(|&(t, n, start, stride, hops, pass)| (t, [1, 3, 8][n], start, stride, hops, pass))
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
    }
}
