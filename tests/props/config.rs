// --- Configuration: every one runs or is refused by name -------------------------

/// The words a drawn configuration is read from, in order. The shim has
/// no dependent strategies, so one vector of words is the whole case;
/// each field is one of its edges or a uniform value, by its word.
struct Draws<'a>(std::slice::Iter<'a, u64>);

impl Draws<'_> {
    fn word(&mut self) -> u64 {
        *self.0.next().expect("CONFIG_WORDS covers every field")
    }

    /// One of `edges`, each drawn one time in [`EDGE_ODDS`], or else a
    /// uniform value in `lo..=hi`.
    fn among(&mut self, edges: &[u64], lo: u64, hi: u64) -> u64 {
        let w = self.word();
        match edges.get((w % EDGE_ODDS) as usize) {
            Some(&edge) => edge,
            None => lo + (w >> 8) % (hi - lo + 1),
        }
    }

    /// A count: one of `edges` or a small one.
    fn count(&mut self, edges: &[usize]) -> usize {
        let edges: Vec<u64> = edges.iter().map(|&e| e as u64).collect();
        self.among(&edges, 1, 8) as usize
    }

    /// A time up to the world's `scale`, its ends included.
    fn time(&mut self, scale: u64) -> u64 {
        self.among(&[0, 1, scale], 0, scale)
    }

    /// A latency distribution whose parameters are times up to `scale`.
    fn latency(&mut self, scale: u64) -> LatencyDist {
        let (a, b) = (self.time(scale), self.time(scale));
        match self.word() % 4 {
            0 => LatencyDist::Constant(a),
            1 => LatencyDist::Uniform(a.min(b), a.max(b)),
            2 => LatencyDist::Exponential(a),
            _ => LatencyDist::LogNormal {
                median: a,
                sigma: (b % 100) as f64 / 100.0,
            },
        }
    }

    /// One of `edges`, or a uniform probability up to `hi`.
    fn prob(&mut self, edges: &[f64], hi: f64) -> f64 {
        let w = self.word();
        match edges.get((w % EDGE_ODDS) as usize) {
            Some(&edge) => edge,
            None => (w >> 11) as f64 / (1u64 << 53) as f64 * hi,
        }
    }
}

/// Words per drawn configuration (more than it reads).
const CONFIG_WORDS: usize = 160;

/// One draw in this many is a given edge of its field. About fifteen
/// fields have a rule, so over half the drawn configurations break
/// none and run, and most of the rest break one.
const EDGE_ODDS: u64 = 32;

/// A configuration with every field that has a rule drawn over its
/// whole range, zeros and both sides of each bound included, and every
/// cost and latency drawn up to the world's time scale (at most 1 s),
/// with the dispatch mode its closed loop runs in. One configuration in
/// eight has one time field drawn at or past the one-hour bound
/// (`MAX_CONFIG_TIME`): at it when the field is a cost the world pays
/// once a chain, past it otherwise.
///
/// Two couplings keep an accepted world's run short, and each is the
/// cost of the world, not a rule. A poller visits, and a writeback timer
/// ticks, every interval while a command or barrier is in flight, so a
/// world spans at most 65,536 of those intervals: one whose reap mode
/// polls (every `POLL_INTERVAL_NS`, 250 ns) draws times up to 16.4 ms,
/// and the writeback interval is drawn no finer than 1/65,536 of the
/// scale. And an accepted core count costs ~8 KB of ring slots a core
/// at depth 64 or more (523 MB at 65,535 cores), so the draws accept at
/// most 8 cores and `the_largest_accepted_counts_run` runs the largest
/// at depth 2 (36 MB).
fn arb_config(d: &mut Draws) -> (MachineConfig, DispatchMode) {
    use bpfstor::kernel::reaper::POLL_INTERVAL_NS;
    use bpfstor::kernel::ReapMode;
    let reap_mode = [
        ReapMode::Interrupt,
        ReapMode::AdaptiveIrq,
        ReapMode::Polled,
        ReapMode::Hybrid,
    ][(d.word() % 4) as usize];
    let scale = (1u64 << d.among(&[0, 30], 0, 30)).min(match reap_mode {
        ReapMode::Polled | ReapMode::Hybrid => POLL_INTERVAL_NS << 16,
        _ => SECOND,
    });
    let coarse = (scale >> 16).max(1);
    let class = DeviceClass::ALL[(d.word() % 4) as usize];
    let mut profile = bpfstor::device::DeviceProfile::for_class(class);
    profile.read_latency = d.latency(scale);
    profile.write_latency = d.latency(scale);
    profile.channels = d.count(&[0, 1, 1 << 16, (1 << 16) + 1, usize::MAX]);
    let depths = [0, 1, 2, 4096, 1 << 16, (1 << 16) + 1, u64::MAX];
    profile.queue_depth = d.among(&depths, 2, 64) as usize;
    let costs: Vec<u64> = (0..25).map(|_| d.time(scale)).collect();
    let costs = bpfstor::kernel::LayerCosts {
        bpf_per_insn: d.time(scale),
        poll_loop: d.time(scale),
        ..costs_from(&costs)
    };
    let fabric = FabricConfig {
        latency: d.latency(scale),
        target_proc_ns: d.time(scale),
        inflight_cap: d.count(&[0, 1, usize::MAX]),
        initiators: d.count(&[0, 1, 0xFFF0, 0xFFF1, usize::MAX]),
        contended: d.word().is_multiple_of(2),
        loss_prob: d.prob(&[0.0, 0.99, f64::next_up(0.99), 1.0, f64::NAN, -0.5], 0.99),
    };
    let on_fabric = d.word().is_multiple_of(2);
    let commit_policy = match d.word() % 3 {
        0 => CommitPolicy::PerFsync,
        1 => CommitPolicy::Group {
            max_wait_us: d.time(scale) / 1_000,
            max_handles: d.among(&[0, 1, u32::MAX.into()], 1, 16) as u32,
        },
        _ => {
            let (floor, top) = ((coarse / 1_000).max(1), (scale / 1_000).max(1));
            let flush_interval_us = d.among(&[0, floor, top], floor, top);
            CommitPolicy::Writeback { flush_interval_us }
        }
    };
    let cfg = MachineConfig {
        cores: d.count(&[0, 1, 65_536, 1 << 40, usize::MAX]),
        profile,
        costs,
        seed: d.word(),
        fs_blocks: d.among(&[0, 1, 2, 1 << 22, u64::MAX], 1, 64),
        resubmit_bound: d.among(&[0, 1, u32::MAX.into()], 0, 8) as u32,
        irq_coalesce_us: d.time(scale) / 1_000,
        irq_coalesce_depth: d.among(&[0, 1, u32::MAX.into()], 1, 16) as u32,
        reap_mode,
        fair_reap: d.word().is_multiple_of(2),
        fabric: on_fabric.then_some(fabric),
        exec_engine: [ExecEngine::Compiled, ExecEngine::Interp][(d.word() % 2) as usize],
        exec_clock: None,
        commit_policy,
    };
    let modes = [
        DispatchMode::User,
        DispatchMode::SyscallHook,
        DispatchMode::DriverHook,
        DispatchMode::Remote,
    ];
    let mode = modes[(d.word() % if on_fabric { 4 } else { 3 }) as usize];
    let mut cfg = cfg;
    if d.word().is_multiple_of(8) {
        let past = [MAX_CONFIG_TIME + 1, u64::MAX][(d.word() % 2) as usize];
        match d.word() % 5 {
            // A chain pays its think time once: an hour of it runs.
            0 => cfg.costs.app_think = MAX_CONFIG_TIME,
            1 => cfg.costs.app_think = past,
            2 => cfg.profile.write_latency = LatencyDist::Uniform(0, past),
            3 => cfg.irq_coalesce_us = past / 1_000,
            _ => match &mut cfg.fabric {
                Some(f) => f.target_proc_ns = past,
                None => cfg.costs.syscall = past,
            },
        }
    }
    (cfg, mode)
}

/// The refusal the rules predict for `cfg`: the first rule it breaks,
/// field by field in the order `MachineConfig::check` reads them. It is
/// written from the rules as `docs/API.md` states them, numbers
/// included, and never calls the check.
fn predicted_refusal(cfg: &MachineConfig) -> Option<ConfigError> {
    use bpfstor::device::DeviceConfigError as Dev;
    use ConfigError::*;
    let mut broken = Vec::new();
    let mut refuse = |rule_broken: bool, e: ConfigError| {
        if rule_broken {
            broken.push(e);
        }
    };
    let (cores, p) = (cfg.cores, &cfg.profile);
    refuse(
        !(1..=65_535).contains(&cores),
        CoreCount(CoreCountError(cores)),
    );
    let channels = p.channels;
    refuse(
        !(1..=65_536).contains(&channels),
        Device(Dev::Channels(channels)),
    );
    let depth = p.queue_depth;
    refuse(
        !(2..=65_536).contains(&depth),
        Device(Dev::QueueDepth(depth)),
    );
    // The one time rule: at most an hour, in field order.
    let hour = 3_600 * SECOND;
    let over = |ns: u64| ns > hour;
    fn longest(l: &LatencyDist) -> u64 {
        match l {
            LatencyDist::Constant(t) | LatencyDist::Exponential(t) => *t,
            LatencyDist::Uniform(lo, hi) => *lo.max(hi),
            LatencyDist::LogNormal { median, .. } => *median,
            LatencyDist::Bimodal { a, b, .. } => longest(a).max(longest(b)),
        }
    }
    let us = |u: u64| u.saturating_mul(1_000);
    refuse(
        over(longest(&p.read_latency)),
        Device(Dev::TooLong("read_latency")),
    );
    refuse(
        over(longest(&p.write_latency)),
        Device(Dev::TooLong("write_latency")),
    );
    for (field, ns) in cfg.costs.named() {
        refuse(over(ns), TooLong(field));
    }
    refuse(cfg.fs_blocks == 0, FsBlocks);
    refuse(over(us(cfg.irq_coalesce_us)), TooLong("irq_coalesce_us"));
    refuse(cfg.irq_coalesce_depth == 0, IrqCoalesceDepth);
    if let Some(f) = &cfg.fabric {
        refuse(f.inflight_cap == 0, Device(Dev::InflightCap));
        let initiators = f.initiators;
        refuse(
            !(1..=0xFFF0).contains(&initiators),
            Device(Dev::Initiators(initiators)),
        );
        refuse(!(0.0..=0.99).contains(&f.loss_prob), Device(Dev::LossProb));
        refuse(over(longest(&f.latency)), Device(Dev::TooLong("latency")));
        refuse(
            over(f.target_proc_ns),
            Device(Dev::TooLong("target_proc_ns")),
        );
    }
    match cfg.commit_policy {
        CommitPolicy::Group {
            max_handles,
            max_wait_us,
        } => {
            refuse(max_handles == 0, GroupMaxHandles);
            refuse(over(us(max_wait_us)), TooLong("max_wait_us"));
        }
        CommitPolicy::Writeback { flush_interval_us } => {
            refuse(flush_interval_us == 0, WritebackInterval);
            refuse(over(us(flush_interval_us)), TooLong("flush_interval_us"));
        }
        CommitPolicy::PerFsync => {}
    }
    broken.into_iter().next()
}

/// Runs a short closed loop on an accepted `cfg`: two threads share
/// eight chains over a one-block file, reads (its chase, in `mode`)
/// and appends, every other one fsynced. The run drains and every
/// conservation law holds, `ChainsEnded` among them.
fn run_briefly(cfg: MachineConfig, mode: DispatchMode) {
    let hooked = matches!(mode, DispatchMode::SyscallHook | DispatchMode::DriverHook);
    let program = hooked.then(support::chase_program);
    let (mut m, fd) = machine_with(cfg, "one.db", &support::chain_file(1), program);
    let mut d = Script::new(mode, fd, |&mut fd, issued, _, _| {
        let append = SECTOR_SIZE as u64 * issued.div_ceil(2);
        (issued < 8).then(|| match issued % 2 {
            0 => read(fd, 0, SECTOR_SIZE as u32, 0),
            _ => write(fd, append, &[7; SECTOR_SIZE], issued % 4 == 1, 0),
        })
    });
    d.step = |_, _, data| support::chase_step(data);
    let report = m.run_closed_loop(2, 1_000 * SECOND, &mut d);
    assert_eq!(report.audit(), Ok(()));
    assert!(d.issued >= 2, "each thread issues before the deadline");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]
    /// Every drawn configuration is refused by exactly the variant the
    /// per-field predicate names, or it runs: a closed loop that drains
    /// with every law holding. No configuration is clamped, hangs, or
    /// panics inside a constructor.
    #[test]
    fn arb_config_runs_or_is_refused_by_name(
        words in proptest::collection::vec(any::<u64>(), CONFIG_WORDS),
    ) {
        let (cfg, mode) = arb_config(&mut Draws(words.iter()));
        let predicted = predicted_refusal(&cfg);
        prop_assert_eq!(cfg.check().err(), predicted, "{:?}", cfg);
        if predicted.is_none() {
            run_briefly(cfg, mode);
        }
    }
}

/// The default configuration with `edit` applied.
fn edited(edit: impl FnOnce(&mut MachineConfig)) -> MachineConfig {
    let mut cfg = MachineConfig::default();
    edit(&mut cfg);
    cfg
}

/// The default configuration over the default fabric link with `edit`
/// applied.
fn on_link(edit: impl FnOnce(&mut FabricConfig)) -> MachineConfig {
    let mut link = FabricConfig::default();
    edit(&mut link);
    edited(|c| c.fabric = Some(link))
}

#[test]
fn configs_found_one_at_a_time_are_refused_by_name() {
    use bpfstor::device::DeviceConfigError as Dev;
    use ConfigError::*;
    let cases = [
        // Found by hand, each in the change that first refused it: a
        // certain loss hung the first capsule, a zero-channel device
        // indexed an empty table, and a zero cap ran as something else.
        (on_link(|l| l.loss_prob = 1.0), Device(Dev::LossProb)),
        (on_link(|l| l.inflight_cap = 0), Device(Dev::InflightCap)),
        (edited(|c| c.profile.channels = 0), Device(Dev::Channels(0))),
        (edited(|c| c.irq_coalesce_depth = 0), IrqCoalesceDepth),
        // Commit policies that were clamped.
        (
            edited(|c| {
                c.commit_policy = CommitPolicy::Group {
                    max_wait_us: 20,
                    max_handles: 0,
                }
            }),
            GroupMaxHandles,
        ),
        (
            edited(|c| {
                c.commit_policy = CommitPolicy::Writeback {
                    flush_interval_us: 0,
                }
            }),
            WritebackInterval,
        ),
        // Read as something else: a core count past NVMe's queue pairs
        // aborted the process on allocation; a zero-block fs panicked in
        // `mkfs`.
        (
            edited(|c| c.cores = 1 << 40),
            CoreCount(CoreCountError(1 << 40)),
        ),
        (edited(|c| c.fs_blocks = 0), FsBlocks),
        // Past an hour, a time overflows `now + t`.
        (
            edited(|c| c.costs.syscall = MAX_CONFIG_TIME + 1),
            TooLong("costs.syscall"),
        ),
        (
            edited(|c| c.profile.read_latency = LatencyDist::Constant(u64::MAX)),
            Device(Dev::TooLong("read_latency")),
        ),
        (
            on_link(|l| l.latency = LatencyDist::Uniform(0, u64::MAX)),
            Device(Dev::TooLong("latency")),
        ),
    ];
    for (cfg, refusal) in cases {
        assert_eq!(cfg.check(), Err(refusal), "{cfg:?}");
        assert_eq!(predicted_refusal(&cfg), Some(refusal), "{cfg:?}");
    }
    // A tenant's weight is checked the same way.
    let mut m = machine(MachineConfig::default());
    assert_eq!(
        m.register_tenant(TenantLimits::weighted(0)),
        Err(TenantWeight)
    );
    assert_eq!(m.tenant_count(), 1, "a refused tenant is not registered");
}

#[test]
fn the_largest_accepted_counts_run() {
    let mut cores = edited(|c| c.cores = 65_535);
    cores.profile.queue_depth = 2;
    let largest = [
        cores,
        edited(|c| c.profile.channels = 1 << 16),
        edited(|c| c.profile.queue_depth = 1 << 16),
        on_link(|l| l.initiators = 0xFFF0),
        on_link(|l| l.loss_prob = 0.99),
    ];
    for cfg in largest {
        assert_eq!(predicted_refusal(&cfg), None, "{cfg:?}");
        run_briefly(cfg, DispatchMode::User);
    }
}
