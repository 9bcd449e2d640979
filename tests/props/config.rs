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

/// One draw in this many is a given edge of its field. About twenty
/// fields have a rule, so about half the drawn configurations break
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
/// ticks, every interval while a command or barrier is in flight, so
/// those intervals are drawn no finer than 1/65,536 of the scale: 1 ns
/// polls meet latencies up to 65 µs, 1 s latencies meet polls of 15 µs
/// or more. And an accepted core count costs ~8 KB of ring slots a core
/// at depth 64 or more (523 MB at 65,535 cores), so the draws accept at
/// most 8 cores and `the_largest_accepted_counts_run` runs the largest
/// at depth 2 (36 MB).
fn arb_config(d: &mut Draws) -> (MachineConfig, DispatchMode) {
    use bpfstor::kernel::{AdaptiveIrqConfig, HybridConfig, PollConfig, ReapMode};
    let scale = (1u64 << d.among(&[0, 30], 0, 30)).min(SECOND);
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
    let min_depth = d.among(&[0, 1, u32::MAX.into()], 1, 64);
    let max_depth = d.among(&[0, min_depth.saturating_sub(1)], min_depth, min_depth + 64);
    let irq = AdaptiveIrqConfig {
        min_depth: min_depth as u32,
        max_depth: max_depth.min(u32::MAX.into()) as u32,
        budget_us: d.time(scale) / 1_000,
    };
    let high = d.count(&[0, 1, usize::MAX]);
    let low = d.among(&[high as u64, u64::MAX], 0, high.saturating_sub(1) as u64) as usize;
    let poll = PollConfig {
        interval_ns: d.among(&[0, coarse, scale], coarse, scale),
    };
    let reap_mode = match d.word() % 4 {
        0 => ReapMode::Interrupt,
        1 => ReapMode::AdaptiveIrq(irq),
        2 => ReapMode::Polled(poll),
        _ => ReapMode::Hybrid(HybridConfig {
            poll,
            irq,
            high_watermark: high,
            low_watermark: low,
            window: d.count(&[0, 1, 1024, 1025, usize::MAX]),
            dwell: d.among(&[0, u32::MAX.into()], 0, 16) as u32,
        }),
    };
    let mut fabric = FabricConfig {
        to_target: d.latency(scale),
        to_host: d.latency(scale),
        target_proc_ns: d.time(scale),
        inflight_cap: d.count(&[0, 1, usize::MAX]),
        initiators: d.count(&[0, 1, 0xFFF0, 0xFFF1, usize::MAX]),
        initiator_window: d
            .word()
            .is_multiple_of(2)
            .then(|| d.count(&[0, 1, usize::MAX])),
        initiator_weights: Vec::new(),
        admit_ns: d.time(scale),
        congestion_knee: d.count(&[0, usize::MAX]),
        congestion_ns_per_capsule: d.time(scale),
        loss_prob: d.prob(&[0.0, 0.99, f64::next_up(0.99), 1.0, f64::NAN, -0.5], 0.99),
        retransmit_timeout_ns: d.among(&[0, 1, scale], 1, scale),
        dup_prob: d.prob(&[0.0, 1.0, f64::next_up(1.0), f64::NAN, -0.5], 1.0),
    };
    for _ in 0..d.word() % 4 {
        let weight = d.among(&[0, 1, u32::MAX.into()], 1, 9) as u32;
        fabric.initiator_weights.push(weight);
    }
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
        transport: match on_fabric {
            true => TransportConfig::Fabric(fabric),
            false => TransportConfig::Local,
        },
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
        match d.word() % 6 {
            // A chain pays its think time once: an hour of it runs.
            0 => cfg.costs.app_think = MAX_CONFIG_TIME,
            1 => cfg.costs.app_think = past,
            2 => cfg.profile.write_latency = LatencyDist::Uniform(0, past),
            3 => cfg.irq_coalesce_us = past / 1_000,
            4 => cfg.reap_mode = ReapMode::Polled(PollConfig { interval_ns: past }),
            _ => match &mut cfg.transport {
                TransportConfig::Fabric(f) => f.retransmit_timeout_ns = past,
                TransportConfig::Local => cfg.costs.syscall = past,
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
    use bpfstor::kernel::ReapMode;
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
    let (irq, poll, hybrid) = match cfg.reap_mode {
        ReapMode::Interrupt => (None, None, None),
        ReapMode::AdaptiveIrq(c) => (Some(c), None, None),
        ReapMode::Polled(p) => (None, Some(p), None),
        ReapMode::Hybrid(h) => (Some(h.irq), Some(h.poll), Some(h)),
    };
    if let Some(c) = irq {
        let (min, max) = (c.min_depth, c.max_depth);
        refuse(min == 0 || max < min, AdaptiveDepths(min, max));
        refuse(over(us(c.budget_us)), TooLong("budget_us"));
    }
    refuse(poll.is_some_and(|p| p.interval_ns == 0), PollInterval);
    refuse(
        poll.is_some_and(|p| over(p.interval_ns)),
        TooLong("interval_ns"),
    );
    if let Some(h) = hybrid {
        refuse(!(1..=1024).contains(&h.window), HybridWindow(h.window));
        let (low, high) = (h.low_watermark, h.high_watermark);
        refuse(low >= high, Watermarks(low, high));
    }
    if let TransportConfig::Fabric(f) = &cfg.transport {
        refuse(f.inflight_cap == 0, Device(Dev::InflightCap));
        let initiators = f.initiators;
        refuse(
            !(1..=0xFFF0).contains(&initiators),
            Device(Dev::Initiators(initiators)),
        );
        refuse(f.initiator_window == Some(0), Device(Dev::InitiatorWindow));
        if let Some(i) = f.initiator_weights.iter().position(|&w| w == 0) {
            refuse(true, Device(Dev::InitiatorWeight(i)));
        }
        refuse(!(0.0..=0.99).contains(&f.loss_prob), Device(Dev::LossProb));
        refuse(!(0.0..=1.0).contains(&f.dup_prob), Device(Dev::DupProb));
        refuse(f.retransmit_timeout_ns == 0, Device(Dev::RetransmitTimeout));
        let times = [
            ("to_target", longest(&f.to_target)),
            ("to_host", longest(&f.to_host)),
            ("target_proc_ns", f.target_proc_ns),
            ("admit_ns", f.admit_ns),
            ("congestion_ns_per_capsule", f.congestion_ns_per_capsule),
            ("retransmit_timeout_ns", f.retransmit_timeout_ns),
        ];
        for (field, ns) in times {
            refuse(over(ns), Device(Dev::TooLong(field)));
        }
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
/// and appends, every other one fsynced. The run drains, every chain
/// issued ends, and every conservation law holds.
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
    assert_eq!(d.outcomes.len() as u64, d.issued, "every chain issued ends");
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
    edited(|c| c.transport = TransportConfig::Fabric(link))
}

#[test]
fn configs_found_one_at_a_time_are_refused_by_name() {
    use bpfstor::device::DeviceConfigError as Dev;
    use bpfstor::kernel::{AdaptiveIrqConfig, HybridConfig, PollConfig, ReapMode};
    use ConfigError::*;
    let hybrid = HybridConfig::default();
    let cases = [
        // Found by hand, each in the change that first refused it: a
        // certain loss hung the first capsule, a zero-channel device
        // indexed an empty table, and a zero window, cap or duplicate
        // probability out of range ran as something else.
        (on_link(|l| l.loss_prob = 1.0), Device(Dev::LossProb)),
        (on_link(|l| l.dup_prob = 1.5), Device(Dev::DupProb)),
        (on_link(|l| l.inflight_cap = 0), Device(Dev::InflightCap)),
        (
            on_link(|l| l.initiator_window = Some(0)),
            Device(Dev::InitiatorWindow),
        ),
        (edited(|c| c.profile.channels = 0), Device(Dev::Channels(0))),
        // Reap modes that were clamped or raised silently.
        (
            edited(|c| c.reap_mode = ReapMode::Polled(PollConfig { interval_ns: 0 })),
            PollInterval,
        ),
        (
            edited(|c| {
                c.reap_mode = ReapMode::Hybrid(HybridConfig {
                    window: 0,
                    ..hybrid
                })
            }),
            HybridWindow(0),
        ),
        (
            edited(|c| {
                let h = HybridConfig {
                    low_watermark: 4,
                    high_watermark: 4,
                    ..hybrid
                };
                c.reap_mode = ReapMode::Hybrid(h);
            }),
            Watermarks(4, 4),
        ),
        (
            edited(|c| {
                let irq = AdaptiveIrqConfig {
                    min_depth: 0,
                    ..AdaptiveIrqConfig::default()
                };
                c.reap_mode = ReapMode::AdaptiveIrq(irq);
            }),
            AdaptiveDepths(0, 32),
        ),
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
        // Read as something else: a zero weight as 1, a zero timeout
        // as 1 ns; a core count past NVMe's queue pairs aborted the
        // process on allocation; a zero-block fs panicked in `mkfs`.
        (
            on_link(|l| l.initiator_weights = vec![0]),
            Device(Dev::InitiatorWeight(0)),
        ),
        (
            on_link(|l| l.retransmit_timeout_ns = 0),
            Device(Dev::RetransmitTimeout),
        ),
        (
            edited(|c| c.cores = 1 << 40),
            CoreCount(CoreCountError(1 << 40)),
        ),
        (edited(|c| c.fs_blocks = 0), FsBlocks),
        // Past an hour, a time overflowed `now + t`: a poll interval of
        // `u64::MAX` panicked in `arm_reap` (a wrapped instant in
        // release).
        (
            edited(|c| {
                c.reap_mode = ReapMode::Polled(PollConfig {
                    interval_ns: u64::MAX,
                })
            }),
            TooLong("interval_ns"),
        ),
        (
            edited(|c| c.costs.syscall = MAX_CONFIG_TIME + 1),
            TooLong("costs.syscall"),
        ),
        (
            edited(|c| c.profile.read_latency = LatencyDist::Constant(u64::MAX)),
            Device(Dev::TooLong("read_latency")),
        ),
        (
            on_link(|l| l.to_host = LatencyDist::Uniform(0, u64::MAX)),
            Device(Dev::TooLong("to_host")),
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
    use bpfstor::kernel::{HybridConfig, ReapMode};
    let mut cores = edited(|c| c.cores = 65_535);
    cores.profile.queue_depth = 2;
    let hybrid = HybridConfig {
        window: 1024,
        ..HybridConfig::default()
    };
    let largest = [
        cores,
        edited(|c| c.profile.channels = 1 << 16),
        edited(|c| c.profile.queue_depth = 1 << 16),
        edited(|c| c.reap_mode = ReapMode::Hybrid(hybrid)),
        on_link(|l| l.initiators = 0xFFF0),
        on_link(|l| l.loss_prob = 0.99),
    ];
    for cfg in largest {
        assert_eq!(predicted_refusal(&cfg), None, "{cfg:?}");
        run_briefly(cfg, DispatchMode::User);
    }
}
