// --- Completion reaping: polled, adaptive, hybrid ------------------------------

/// [`run_64_reads`] on a default machine reaping in `reap_mode`.
fn run_reap_mode(reap_mode: ReapMode, batch: u32) -> RunReport {
    let cfg = MachineConfig {
        reap_mode,
        ..MachineConfig::default()
    };
    run_64_reads(cfg, batch)
}

#[test]
fn polled_mode_reaps_without_interrupts() {
    let polled = run_reap_mode(ReapMode::Polled(PollConfig::default()), 16);
    assert_eq!(polled.trace.irqs, 0, "a polled stack never takes an IRQ");
    assert_eq!(polled.reaper.irq_cpu_ns, 0);
    assert!(polled.trace.polls > 0, "the poller visited the CQ");
    assert!(
        polled.device.empty_polls > 0,
        "a ~3.2us device serviced by a 250ns poller burns idle visits"
    );
    assert_eq!(
        polled.audit(),
        Ok(()),
        "kernel and device agree on the visits"
    );
    assert_eq!(
        polled.trace.poll,
        polled.trace.polls * LayerCosts::default().poll_loop,
        "every poll visit's CPU lands in the poll bucket"
    );
    assert_eq!(polled.cpu_split(), (1.0, 0.0));
    // Same completions as the interrupt path, delivered by polling.
    let irq = run_reap_mode(ReapMode::Interrupt, 16);
    assert_eq!(polled.device.cqes, irq.device.cqes);
    assert_eq!(irq.device.empty_polls, 0, "interrupt mode never polls");
    assert!(
        polled.cpu_util > irq.cpu_util,
        "polling burns CPU the interrupt path does not: {} vs {}",
        polled.cpu_util,
        irq.cpu_util
    );
}

#[test]
fn polled_reaps_promptly_while_coalesced_interrupts_defer() {
    // The reap-latency stat makes the trade visible: a polled CQ drains
    // within one poll interval of posting, while an 8us coalescing
    // budget holds CQEs back waiting for the aggregation threshold.
    let polled = run_reap_mode(ReapMode::Polled(PollConfig { interval_ns: 250 }), 16);
    let coalesced = run_64_reads(coalescing(8, 16), 16);
    let lag = |r: &RunReport| r.device.reap_lag_ns as f64 / r.device.cqes.max(1) as f64;
    assert!(
        lag(&polled) < lag(&coalesced),
        "polling must reap sooner than a deep coalescing budget: {} vs {}",
        lag(&polled),
        lag(&coalesced)
    );
}

#[test]
fn adaptive_coalescing_widens_depth_under_load() {
    let adaptive = run_reap_mode(ReapMode::AdaptiveIrq(AdaptiveIrqConfig::default()), 16);
    let fixed = run_reap_mode(ReapMode::Interrupt, 16);
    assert!(
        adaptive.reaper.depth_hwm > 1,
        "a 16-deep uring stream must widen the threshold past 1, got {}",
        adaptive.reaper.depth_hwm
    );
    assert!(adaptive.reaper.depth_widens > 0);
    assert_eq!(adaptive.device.cqes, fixed.device.cqes, "same completions");
    assert!(
        adaptive.trace.irqs < fixed.trace.irqs,
        "rate feedback must aggregate CQEs per interrupt: {} vs {}",
        adaptive.trace.irqs,
        fixed.trace.irqs
    );
}

#[test]
fn adaptive_depth_narrows_back_on_a_light_stream() {
    // One chain in flight at a time: the controller must sit at (or
    // fall back to) immediate delivery — no CQE ever waits on a
    // threshold that cannot fill.
    let light = run_reap_mode(ReapMode::AdaptiveIrq(AdaptiveIrqConfig::default()), 1);
    assert_eq!(
        light.trace.irqs, light.device.cqes,
        "closed-loop depth 1 delivers one interrupt per completion"
    );
}

#[test]
fn hybrid_switches_to_polling_under_load_and_stays_interrupt_when_light() {
    let heavy = run_reap_mode(ReapMode::Hybrid(HybridConfig::default()), 32);
    assert!(
        heavy.reaper.mode_transitions >= 1,
        "32 SQEs in flight must trip the high watermark"
    );
    assert_eq!(
        heavy.reaper.transitions[0].to,
        ReapKind::Polled,
        "the first switch under load is interrupt -> polled"
    );
    assert_eq!(
        heavy.reaper.mode_transitions as usize,
        heavy.reaper.transitions.len(),
        "the timeline logs every switch"
    );
    assert!(heavy.trace.polls > 0, "the poller ran after the switch");
    let light = run_reap_mode(ReapMode::Hybrid(HybridConfig::default()), 1);
    assert_eq!(
        light.reaper.mode_transitions, 0,
        "a single chain in flight never leaves interrupt mode"
    );
    assert_eq!(light.trace.polls, 0);
    assert_eq!(light.trace.irqs, light.device.cqes);
}

#[test]
fn cpu_split_weighs_poll_cpu_against_interrupt_cpu() {
    // The trade the hybrid scheduler navigates, read off the run: the
    // poll bucket against the interrupt entries' CPU.
    let irq = run_reap_mode(ReapMode::Interrupt, 16);
    let irq_entry = LayerCosts::default().irq_entry;
    assert_eq!(irq.reaper.irq_cpu_ns, irq.trace.irqs * irq_entry);
    assert_eq!(irq.cpu_split(), (0.0, 1.0));
    let hybrid = run_reap_mode(ReapMode::Hybrid(HybridConfig::default()), 32);
    let (poll_share, irq_share) = hybrid.cpu_split();
    assert!(poll_share > 0.0 && irq_share > 0.0, "both mechanisms ran");
    let total = (hybrid.trace.poll + hybrid.reaper.irq_cpu_ns) as f64;
    assert_eq!(poll_share, hybrid.trace.poll as f64 / total);
    assert_eq!(irq_share, hybrid.reaper.irq_cpu_ns as f64 / total);
    // A run that reaped nothing charged neither.
    let (mut m, fd) = machine_with(MachineConfig::default(), "idle.db", &chain_file(1), None);
    let idle = m.run_closed_loop(1, SECOND, &mut reads(fd, DispatchMode::User, 0));
    assert_eq!(idle.cpu_split(), (0.0, 0.0));
}

#[test]
fn backlog_high_watermark_reflects_delivery_policy() {
    // Per-completion interrupts drain the CQ at every CQE, so the
    // high watermark pins at 1; a deep coalescing budget lets the
    // backlog pile up to the aggregation threshold before the reap.
    let run = |us: u64, depth: u32| run_64_reads(coalescing(us, depth), 32);
    let immediate = run(0, 1);
    let coalesced = run(8, 16);
    assert_eq!(immediate.device.cq_backlog_hwm, 1);
    assert!(
        coalesced.device.cq_backlog_hwm > immediate.device.cq_backlog_hwm,
        "a held-back CQ posts a deeper backlog: {} vs {}",
        coalesced.device.cq_backlog_hwm,
        immediate.device.cq_backlog_hwm
    );
    assert!(
        coalesced.device.reap_lag_ns / coalesced.device.cqes.max(1)
            > immediate.device.reap_lag_ns / immediate.device.cqes.max(1),
        "held-back completions wait longer between doorbell and reap"
    );
}
