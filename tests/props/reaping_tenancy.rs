// --- Completion reaping: exactly-once delivery across mode switches ------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Under a random read/update/insert mix (with fsync barriers) on
    /// the uring path, the hybrid reaper delivers exactly one CQE per
    /// SQE: every chain completes, nothing errors, and every command
    /// the device serviced is reaped exactly once no matter how often
    /// the queue pair bounces between polling and interrupts. Only the
    /// load is drawn; the scheduler runs at its constants.
    #[test]
    fn hybrid_mode_switches_never_lose_or_duplicate_completions(
        batch_pick in 0usize..4,
        (read_pct, update_split) in (10u8..=100, 0u8..=100),
        seed in any::<u64>(),
    ) {
        use bpfstor::core::{DispatchMode, PushdownSession, ReapMode, YcsbMix};
        use bpfstor::sim::SECOND;
        use bpfstor::workload::OpMix;

        let batch = [1u32, 3, 8, 32][batch_pick];
        let update = ((100 - read_pct) as u16 * update_split as u16 / 100) as u8;
        let mix = OpMix {
            read: read_pct,
            update,
            insert: 100 - read_pct - update,
            scan: 0,
        };
        let chains = 150u64;
        let mut s = PushdownSession::builder(
            YcsbMix::new(kv_entries(400), mix, seed).max_chains(chains),
        )
        .dispatch(DispatchMode::DriverHook)
        .reap_mode(ReapMode::Hybrid)
        .seed(seed)
        .build()
        .expect("session");
        let (report, stats) = s.run_uring(1, batch, SECOND);

        prop_assert_eq!(stats.completed, chains, "every chain completes");
        prop_assert_eq!(stats.errors, 0);
        prop_assert_eq!(stats.mismatches, 0);
        // Exactly one CQE reaped per serviced command, and the two
        // delivery mechanisms account for all their work and nothing
        // else's: every non-empty reap batch was one interrupt or one
        // productive poll.
        prop_assert_eq!(report.audit(), Ok(()));
        prop_assert_eq!(
            report.reaper.mode_transitions as usize >= report.reaper.transitions.len(),
            true,
            "the timeline never exceeds the count"
        );
    }
}

// --- Multi-tenancy: weighted fair reaping is exactly-once ----------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Weighted fair reaping is a service *order*, never a service
    /// *filter*: under a random tenant mix (B-tree readers interleaved
    /// with fsyncing YCSB writers), arbitrary weights, arbitrary SQ
    /// slot budgets, and a reap mode that may flap between polling and
    /// interrupts, the drained run reaps exactly one CQE per command
    /// each tenant submitted — the deficit-round-robin permutation
    /// neither drops, duplicates, nor cross-charges a completion.
    #[test]
    fn fair_reaping_reaps_every_tenant_command_exactly_once(
        tenants in proptest::collection::vec(
            // (reap weight, SQ budget selector, threads)
            (1u64..16, 0usize..4, 1usize..4),
            1..4
        ),
        cores in 1usize..3,
        hybrid in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use bpfstor::core::{
            Btree, DispatchMode, ReapMode, TenantGroup, TenantLimits, YcsbMix,
        };
        use bpfstor::kernel::MachineConfig;
        use bpfstor::sim::MILLISECOND;
        use bpfstor::workload::OpMix;

        let reap = if hybrid {
            ReapMode::Hybrid
        } else {
            ReapMode::Interrupt
        };
        let mut group = TenantGroup::builder()
            .machine_config(MachineConfig {
                cores,
                seed,
                // Batch completions so the fair scheduler has real
                // multi-tenant reap windows to permute.
                irq_coalesce_us: 5,
                irq_coalesce_depth: 4,
                ..MachineConfig::default()
            })
            .dispatch(DispatchMode::DriverHook)
            .reap_mode(reap)
            .fair_reap(true)
            .build();
        let entries = kv_entries(64);
        let mut threads = Vec::new();
        for (i, &(weight, slots, nthreads)) in tenants.iter().enumerate() {
            let limits = TenantLimits {
                sq_slots: if slots == 0 { None } else { Some(slots + 1) },
                ..TenantLimits::weighted(weight)
            };
            let id = if i % 2 == 0 {
                group.add_tenant(Btree::depth(3), limits)
            } else {
                let mix = OpMix { read: 30, update: 50, insert: 20, scan: 0 };
                group.add_tenant(
                    YcsbMix::new(entries.clone(), mix, seed ^ i as u64).fsync_every(2),
                    limits,
                )
            };
            id.expect("tenant attaches");
            threads.push(nthreads);
        }
        let report = group.run_closed_loop(&threads, 2 * MILLISECOND);

        // The run drains before reporting, so "reaped exactly once"
        // must hold with equality, per tenant and in total.
        for b in &report.tenants {
            prop_assert_eq!(
                b.cqes, b.ios,
                "tenant {}: every submitted command reaps exactly one CQE",
                b.tenant
            );
            prop_assert!(b.chains >= 1, "tenant {} must make progress", b.tenant);
        }
        // No completion lost or double-reaped, device-side included.
        prop_assert_eq!(report.audit(), Ok(()));
    }
}
