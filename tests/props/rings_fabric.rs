// --- Ring invariants under random mixed read/write submission --------------------

/// One random driver action against the raw NVMe device.
#[derive(Debug, Clone)]
enum RingAction {
    SubmitRead { slba: u8 },
    SubmitWrite { slba: u8 },
    SubmitFlush,
    Doorbell,
    AdvanceAndIrq { ns: u16 },
}

fn ring_action_strategy() -> impl Strategy<Value = RingAction> {
    prop_oneof![
        4 => (0u8..64).prop_map(|slba| RingAction::SubmitRead { slba }),
        3 => (0u8..64).prop_map(|slba| RingAction::SubmitWrite { slba }),
        1 => Just(RingAction::SubmitFlush),
        3 => Just(RingAction::Doorbell),
        3 => (1u16..5_000).prop_map(|ns| RingAction::AdvanceAndIrq { ns }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn ring_invariants_hold_under_random_mixed_submission(
        actions in proptest::collection::vec(ring_action_strategy(), 1..120),
        depth in 2usize..10,
    ) {
        use bpfstor::device::{NvmeCommand, NvmeOp, NvmeDevice, QueueError, SECTOR_SIZE};
        use bpfstor::sim::SimRng;

        let mut profile = bpfstor::device::DeviceProfile::optane_gen2_p5800x();
        profile.queue_depth = depth;
        let cap = depth - 1;
        let mut dev = NvmeDevice::new(profile, 1, SimRng::seed(0xD1CE));
        let mut now: u64 = 0;
        let mut next_cid: u64 = 0;
        // The driver's model: tags handed out but not yet reaped, plus
        // commands a full SQ pushed back (parked, NOT dropped).
        let mut in_flight = std::collections::HashSet::new();
        let mut parked: Vec<NvmeCommand> = Vec::new();
        let mut accepted: u64 = 0;
        let mut reaped_cids = std::collections::HashSet::new();
        let mut batch = Vec::new();

        let submit = |dev: &mut NvmeDevice,
                          in_flight: &mut std::collections::HashSet<u64>,
                          accepted: &mut u64,
                          cmd: NvmeCommand| {
            let cid = cmd.cid;
            let outstanding_before = dev.outstanding(0);
            match dev.submit(0, cmd) {
                Ok(()) => {
                    prop_assert!(outstanding_before < cap, "accepted only below capacity");
                    prop_assert!(in_flight.insert(cid), "tag never double-allocated");
                    *accepted += 1;
                }
                Err(QueueError::SubmissionFull) => {
                    // Full SQ parks: the command is returned, not lost.
                    prop_assert_eq!(outstanding_before, cap, "reject only at capacity");
                }
                Err(e) => prop_assert!(false, "unexpected error {:?}", e),
            }
        };

        let mk = |cid: u64, action: &RingAction| -> NvmeCommand {
            let op = match action {
                RingAction::SubmitRead { slba } => NvmeOp::Read { slba: *slba as u64, nlb: 1 },
                RingAction::SubmitWrite { slba } => NvmeOp::Write {
                    slba: *slba as u64,
                    data: vec![cid as u8; SECTOR_SIZE],
                },
                _ => NvmeOp::Flush,
            };
            NvmeCommand { cid, op }
        };

        for action in &actions {
            match action {
                RingAction::SubmitRead { .. } | RingAction::SubmitWrite { .. } | RingAction::SubmitFlush => {
                    let cmd = mk(next_cid, action);
                    next_cid += 1;
                    let before = dev.outstanding(0);
                    if before >= cap {
                        parked.push(cmd); // driver-side parking on backpressure
                        dev.record_rejection();
                    } else {
                        submit(&mut dev, &mut in_flight, &mut accepted, cmd);
                    }
                }
                RingAction::Doorbell => {
                    dev.ring_doorbell(now, 0).expect("qp 0 exists");
                }
                RingAction::AdvanceAndIrq { ns } => {
                    now += *ns as u64;
                    dev.post_ready(now, 0);
                    dev.reap(0, usize::MAX, &mut batch);
                    for c in batch.drain(..) {
                        prop_assert!(in_flight.remove(&c.cid), "one CQE per SQE, no ghosts");
                        prop_assert!(reaped_cids.insert(c.cid), "no duplicate CQE");
                    }
                    // Freed slots readmit parked commands, oldest first.
                    while dev.outstanding(0) < cap {
                        let Some(cmd) = parked.pop() else { break };
                        submit(&mut dev, &mut in_flight, &mut accepted, cmd);
                    }
                }
            }
            prop_assert!(dev.outstanding(0) <= cap, "outstanding never exceeds queue depth");
        }

        // Drain: ring, advance far, reap — until every accepted command
        // (including everything parked) has exactly one CQE.
        let mut guard = 0;
        while dev.outstanding(0) > 0 || !parked.is_empty() {
            dev.ring_doorbell(now, 0).expect("qp 0");
            now += 100_000;
            dev.post_ready(now, 0);
            dev.reap(0, usize::MAX, &mut batch);
            for c in batch.drain(..) {
                prop_assert!(in_flight.remove(&c.cid));
                prop_assert!(reaped_cids.insert(c.cid));
            }
            while dev.outstanding(0) < cap {
                let Some(cmd) = parked.pop() else { break };
                submit(&mut dev, &mut in_flight, &mut accepted, cmd);
            }
            guard += 1;
            prop_assert!(guard < 10_000, "drain must terminate");
        }
        prop_assert!(in_flight.is_empty(), "every SQE produced exactly one CQE");
        prop_assert_eq!(reaped_cids.len() as u64, accepted, "CQE count equals accepted SQEs");
        prop_assert_eq!(reaped_cids.len() as u64, next_cid, "a full SQ parked rather than dropped");
        let stats = dev.stats();
        prop_assert_eq!(stats.cqes, accepted);
        prop_assert_eq!(stats.reads + stats.writes + stats.flushes, accepted);
    }
}

// --- Fabric transport: capsule invariants under reordering/delay ---------------

#[derive(Debug, Clone)]
enum FabricAction {
    Submit { slba: u8, class: u8 },
    Doorbell,
    AdvanceAndReap { ns: u32 },
}

fn fabric_action_strategy() -> impl Strategy<Value = FabricAction> {
    prop_oneof![
        5 => ((0u8..64), (0u8..3)).prop_map(|(slba, class)| FabricAction::Submit { slba, class }),
        3 => Just(FabricAction::Doorbell),
        3 => (1u32..200_000).prop_map(|ns| FabricAction::AdvanceAndReap { ns }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn fabric_capsules_yield_exactly_one_cqe_per_sqe(
        actions in proptest::collection::vec(fabric_action_strategy(), 1..120),
        depth in 2usize..10,
        cap in 1usize..12,
        one_way in 100u64..40_000,
        jitter_num in 0u64..30_000,
    ) {
        use bpfstor::device::transport::{FabricConfig, FabricTransport, SubmitClass, Transport};
        use bpfstor::device::{NvmeCommand, NvmeOp, QueueError};
        use bpfstor::sim::{LatencyDist, SimRng};

        let jitter = jitter_num.min(one_way.saturating_sub(1));
        let mut profile = bpfstor::device::DeviceProfile::optane_gen2_p5800x();
        profile.queue_depth = depth;
        let dev = bpfstor::device::NvmeDevice::new(profile, 1, SimRng::seed(0xFAB));
        let cfg = FabricConfig {
            latency: LatencyDist::Uniform(one_way - jitter, one_way + jitter),
            target_proc_ns: 250,
            inflight_cap: cap,
            ..FabricConfig::default()
        };
        let mut t = FabricTransport::new(dev, cfg, SimRng::seed(0xCAB1E));
        // The effective window: the tighter of the credit cap and ring.
        let window = t.queue_capacity();
        prop_assert_eq!(window, cap.min(depth - 1));

        let mut now: u64 = 0;
        let mut next_cid: u64 = 0;
        let mut in_flight = std::collections::HashSet::new();
        let mut reaped_cids = std::collections::HashSet::new();
        let mut parked: Vec<(NvmeCommand, SubmitClass)> = Vec::new();
        let mut accepted: u64 = 0;
        let mut host_class: u64 = 0;

        let class_of = |c: u8| match c {
            0 => SubmitClass::Host,
            1 => SubmitClass::PushdownStart,
            _ => SubmitClass::TargetLocal,
        };

        for action in &actions {
            match action {
                FabricAction::Submit { slba, class } => {
                    let cmd = NvmeCommand {
                        cid: next_cid,
                        op: NvmeOp::Read { slba: *slba as u64, nlb: 1 },
                    };
                    let cid = next_cid;
                    next_cid += 1;
                    let cls = class_of(*class);
                    if t.can_accept(0, 1, 0, cls) {
                        let before = t.outstanding(0);
                        prop_assert!(before < window);
                        t.submit(0, cmd, cls, 0).expect("can_accept said yes");
                        prop_assert!(in_flight.insert(cid), "no double tag");
                        if cls == SubmitClass::Host {
                            host_class += 1;
                        }
                        accepted += 1;
                    } else {
                        prop_assert_eq!(t.outstanding(0), window, "reject only at the window");
                        prop_assert_eq!(
                            t.submit(0, cmd.clone(), cls, 0).unwrap_err(),
                            QueueError::SubmissionFull
                        );
                        parked.push((cmd, cls));
                    }
                }
                FabricAction::Doorbell => {
                    t.ring_doorbell(now, 0).expect("qp 0");
                }
                FabricAction::AdvanceAndReap { ns } => {
                    now += *ns as u64;
                    t.post_ready(now, 0);
                    let cqes = t.reap(now, 0, usize::MAX);
                    prop_assert!(
                        cqes.windows(2).all(|w| w[0].complete_at <= w[1].complete_at),
                        "host sees completions in host-time order"
                    );
                    for c in cqes {
                        prop_assert!(c.complete_at <= now, "nothing from the future");
                        prop_assert!(in_flight.remove(&c.cid), "one CQE per SQE");
                        prop_assert!(reaped_cids.insert(c.cid), "no duplicate CQE");
                    }
                    // Freed credits readmit parked capsules, oldest first.
                    while t.can_accept(0, 1, 0, SubmitClass::Host) {
                        let Some((cmd, cls)) = parked.pop() else { break };
                        let cid = cmd.cid;
                        t.submit(0, cmd, cls, 0).expect("credit freed");
                        prop_assert!(in_flight.insert(cid));
                        if cls == SubmitClass::Host {
                            host_class += 1;
                        }
                        accepted += 1;
                    }
                }
            }
            prop_assert!(
                t.outstanding(0) <= window,
                "in-flight capsules never exceed the configured cap"
            );
            prop_assert!(
                t.fabric_stats().max_inflight <= window,
                "high-water mark respects the window"
            );
        }

        // Drain: every accepted capsule (including re-admitted parked
        // ones) must produce exactly one host CQE.
        let mut guard = 0;
        while t.outstanding(0) > 0 || !parked.is_empty() {
            t.ring_doorbell(now, 0).expect("qp 0");
            now += 1_000_000;
            t.post_ready(now, 0);
            for c in t.reap(now, 0, usize::MAX) {
                prop_assert!(in_flight.remove(&c.cid));
                prop_assert!(reaped_cids.insert(c.cid));
            }
            while t.can_accept(0, 1, 0, SubmitClass::Host) {
                let Some((cmd, cls)) = parked.pop() else { break };
                let cid = cmd.cid;
                t.submit(0, cmd, cls, 0).expect("credit freed");
                prop_assert!(in_flight.insert(cid));
                if cls == SubmitClass::Host {
                    host_class += 1;
                }
                accepted += 1;
            }
            guard += 1;
            prop_assert!(guard < 10_000, "drain must terminate");
        }
        prop_assert!(in_flight.is_empty());
        prop_assert_eq!(reaped_cids.len() as u64, accepted, "one CQE per accepted SQE");
        prop_assert_eq!(reaped_cids.len() as u64, next_cid, "full SQ parked, not dropped");
        let s = t.fabric_stats();
        prop_assert_eq!(s.capsules_sent + s.target_local, accepted, "every capsule classified");
        prop_assert_eq!(s.responses, host_class, "one response capsule per host-class command");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// A lossy, jittery multi-initiator wire, in front of a contended
    /// target or not, still delivers every submitted command to exactly
    /// one completion: losses pay a retransmission timeout (never drop
    /// the command), and neither reordering from jitter nor admission
    /// and congestion double-completes or loses a tag. A ring deeper
    /// than `CONGESTION_KNEE` lets target-local submissions, which hold
    /// no credit, or five initiators' full windows push the target past
    /// the knee.
    #[test]
    fn lossy_fabric_delivers_every_command_exactly_once(
        actions in proptest::collection::vec(fabric_action_strategy(), 1..120),
        depth in 3usize..16,
        initiators in 1usize..6,
        one_way in 100u64..40_000,
        loss in 0.0f64..0.4,
        rng_seed in 0u64..1_000,
    ) {
        use bpfstor::device::transport::{FabricConfig, FabricTransport, SubmitClass, Transport};
        use bpfstor::device::{NvmeCommand, NvmeOp};
        use bpfstor::sim::{LatencyDist, SimRng};

        // Derived knobs keep the parameter tuple within proptest's
        // arity limit without shrinking the explored space much.
        let jitter = (one_way / 3).min(one_way.saturating_sub(1));
        let contended = rng_seed % 4 != 0;
        let mut profile = bpfstor::device::DeviceProfile::optane_gen2_p5800x();
        profile.queue_depth = depth;
        let dev = bpfstor::device::NvmeDevice::new(profile, 1, SimRng::seed(0xFAB ^ rng_seed));
        let cfg = FabricConfig {
            latency: LatencyDist::Uniform(one_way - jitter, one_way + jitter),
            target_proc_ns: 250,
            initiators,
            contended,
            loss_prob: loss,
            ..FabricConfig::default()
        };
        let mut t = FabricTransport::new(dev, cfg, SimRng::seed(0xCAB1E ^ rng_seed));
        let window = t.queue_capacity();

        let class_of = |c: u8| match c {
            0 => SubmitClass::Host,
            1 => SubmitClass::PushdownStart,
            _ => SubmitClass::TargetLocal,
        };

        let mut now: u64 = 0;
        let mut next_cid: u64 = 0;
        let mut in_flight = std::collections::HashSet::new();
        let mut reaped_cids = std::collections::HashSet::new();
        let mut accepted: u64 = 0;
        let mut host_class: u64 = 0;

        for action in &actions {
            match action {
                FabricAction::Submit { slba, class } => {
                    let cmd = NvmeCommand {
                        cid: next_cid,
                        op: NvmeOp::Read { slba: *slba as u64, nlb: 1 },
                    };
                    let cid = next_cid;
                    next_cid += 1;
                    let cls = class_of(*class);
                    let init = (cid % initiators as u64) as u32;
                    // A full window parks driver-side; drop here (the
                    // parking path is covered by the window proptest).
                    if t.can_accept(0, 1, init, cls) {
                        t.submit(0, cmd, cls, init).expect("can_accept said yes");
                        prop_assert!(in_flight.insert(cid), "no double tag");
                        if cls == SubmitClass::Host {
                            host_class += 1;
                        }
                        accepted += 1;
                    }
                }
                FabricAction::Doorbell => {
                    t.ring_doorbell(now, 0).expect("qp 0");
                }
                FabricAction::AdvanceAndReap { ns } => {
                    now += *ns as u64;
                    t.post_ready(now, 0);
                    for c in t.reap(now, 0, usize::MAX) {
                        prop_assert!(c.complete_at <= now, "nothing from the future");
                        prop_assert!(in_flight.remove(&c.cid), "one CQE per SQE");
                        prop_assert!(reaped_cids.insert(c.cid), "no duplicate CQE");
                    }
                }
            }
            prop_assert!(t.outstanding(0) <= window, "window holds under loss");
        }

        // Drain: every accepted capsule must surface exactly once no
        // matter how many crossings were lost along the way.
        let mut guard = 0;
        while t.outstanding(0) > 0 {
            t.ring_doorbell(now, 0).expect("qp 0");
            now += 10_000_000;
            t.post_ready(now, 0);
            for c in t.reap(now, 0, usize::MAX) {
                prop_assert!(in_flight.remove(&c.cid));
                prop_assert!(reaped_cids.insert(c.cid));
            }
            guard += 1;
            prop_assert!(guard < 10_000, "drain must terminate");
        }
        prop_assert!(in_flight.is_empty(), "every accepted SQE completed");
        prop_assert_eq!(reaped_cids.len() as u64, accepted, "exactly one CQE each");
        let s = t.fabric_stats();
        prop_assert_eq!(s.responses, host_class, "one response per host-class command");
        if loss == 0.0 {
            prop_assert_eq!(s.retransmits, 0, "no loss, no retransmissions");
        }
        let per_init: u64 = t.initiator_stats().iter().map(|i| i.retransmits).sum();
        prop_assert_eq!(per_init, s.retransmits, "per-initiator retransmits sum to the total");
    }
}
