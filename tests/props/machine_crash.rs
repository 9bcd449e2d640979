// --- Machine crash consistency under every commit policy --------------------------

/// Runs `writers` concurrent closed-loop writers of `writes` sector
/// writes to `wal.db` under `policy` (every `fsync_every`-th one
/// fsynced, 0 = never; with `final_fsync`, one trailing pure fsync so
/// that everything logged is durable when the run drains) on one core
/// whose ring holds one command, so writes park, while the 8-block file
/// `other.db` is relocated at `relocate_at[0]` and `wal.db` itself at
/// `relocate_at[1]`, and returns the drained machine.
fn run_crash_writers(
    policy: CommitPolicy,
    writers: usize,
    writes: u64,
    fsync_every: u64,
    final_fsync: bool,
    seed: u64,
    relocate_at: [Nanos; 2],
) -> (Machine, RunReport) {
    let mut cfg = MachineConfig {
        cores: 1,
        ..crash_cfg(policy, seed, None)
    };
    cfg.profile.queue_depth = 2;
    let [other, wal] = relocate_at;
    let relocations = [("other.db", other), ("wal.db", wal)];
    let mode = DispatchMode::User;
    run_crash_writers_on(
        cfg,
        writers,
        writes,
        fsync_every,
        final_fsync,
        mode,
        &relocations,
    )
}

/// A machine under `policy`, `seed` and `fabric`.
fn crash_cfg(policy: CommitPolicy, seed: u64, fabric: Option<FabricConfig>) -> MachineConfig {
    MachineConfig {
        commit_policy: policy,
        seed,
        fabric,
        ..MachineConfig::default()
    }
}

/// [`run_crash_writers`] on a machine under `cfg` in dispatch `mode`
/// (the fabric variants put the fsync flush barrier on the far side of
/// the wire), relocating each named file at its instant (`other.db` is
/// created for the purpose). Every write completes and, after the run,
/// reads back live wherever its file was moved.
fn run_crash_writers_on(
    cfg: MachineConfig,
    writers: usize,
    writes: u64,
    fsync_every: u64,
    final_fsync: bool,
    mode: DispatchMode,
    relocations: &[(&str, Nanos)],
) -> (Machine, RunReport) {
    let (mut m, fd) = machine_with(cfg, "wal.db", &[], None);
    if !relocations.is_empty() {
        m.create_file("other.db", &support::chain_file(8))
            .expect("create");
    }
    for &(name, at) in relocations {
        m.schedule_relocation(at, name);
    }
    let mut d = support::writes(fd, SECTOR_SIZE, writes, fsync_every);
    (d.mode, d.state.final_fsync) = (mode, final_fsync);
    let report = m.run_closed_loop(writers, SECOND, &mut d);
    let clean = |o: &ChainOutcome| matches!(o.status, ChainStatus::Written(_));
    assert!(
        d.outcomes.iter().all(clean),
        "write chains must complete cleanly"
    );
    assert_eq!(d.outcomes.len() as u64, writes + u64::from(final_fsync));
    let ino = m.ino_of(fd).expect("ino");
    let (fs, store) = m.fs_and_store();
    for i in 0..writes {
        let got = fs.read(ino, i * SECTOR_SIZE as u64, SECTOR_SIZE, store);
        let want = vec![support::Writes::fill(i); SECTOR_SIZE];
        assert_eq!(got.expect("read"), want, "write {i} must read back live");
    }
    (m, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// The machine-level crash-consistency property, and the first
    /// place a group-commit regression shows (`cargo test --test props
    /// machine_crash` runs it alone): random writer interleavings under
    /// `PerFsync`, `CommitPolicy::Group` and `Writeback`, on a one-slot
    /// ring where writes park, with a second file and the written file
    /// itself relocated mid-run, crashed at every record and barrier
    /// boundary — joined handles commit atomically, the relocations'
    /// records commit in seal order with them, writeback never makes
    /// un-fsynced data durable ahead of its journal records, and every
    /// write reads back live after the run.
    #[test]
    fn machine_crash_at_any_boundary_recovers_a_txn_prefix_under_every_policy(
        writers in 1usize..5,
        writes in 4u64..24,
        fsync_every in 1u64..4,
        max_wait_us in 5u64..60,
        seed in 0u64..1_000,
        relocate_at_us in 0u64..150,
        relocate_wal_at_us in 0u64..150,
    ) {
        let relocate_at = [relocate_at_us * 1_000, relocate_wal_at_us * 1_000];
        let policies = [
            CommitPolicy::PerFsync,
            CommitPolicy::Group { max_wait_us, max_handles: writers as u32 },
            CommitPolicy::Writeback { flush_interval_us: 100 },
        ];
        for policy in policies {
            let (mut m, report) =
                run_crash_writers(policy, writers, writes, fsync_every, true, seed, relocate_at);
            // Durability: the trailing pure fsync saw every write's
            // records, so a crash keeps all of wal.db under all policies
            // (where its blocks are may be a later relocation's to
            // commit).
            let wal = m.fs().open("wal.db").expect("wal.db");
            let recovered = m.fs().clone().crash_and_recover();
            prop_assert_eq!(recovered.fsck(), Ok(()), "{:?}", policy);
            let mapped = |fs: &ExtFs| {
                let extents = fs.extents_snapshot(wal).expect("extents");
                extents.iter().map(|e| e.len).sum::<u64>()
            };
            prop_assert_eq!(
                (recovered.file_size(wal), mapped(&recovered)),
                (m.fs().file_size(wal), mapped(m.fs())),
                "{:?}: final fsync must commit every write", policy
            );
            // A relocation that landed behind that fsync's seal rides the
            // next barrier: one more fsync makes it durable too (the
            // crash sweep below replays to the live metadata exactly).
            m.write_file(wal, 0, &[], true).expect("fsync");
            let j = m.fs().journal();
            prop_assert_eq!(
                j.len(), j.committed(),
                "{:?}: the last fsync commits everything logged", policy
            );
            // Sharing never mints extra barriers; per-fsync never shares.
            let commit = report.commit;
            if policy == CommitPolicy::PerFsync {
                prop_assert_eq!(commit.commits, commit.fsyncs, "{:?}", policy);
                prop_assert_eq!(commit.barrier_joins, 0, "{:?}", policy);
            } else {
                prop_assert!(
                    commit.commits <= commit.fsyncs + commit.writeback_flushes,
                    "{:?}: {} commits for {} fsyncs", policy, commit.commits, commit.fsyncs
                );
            }
            // Crash at EVERY record boundary: recovery must land exactly
            // on the last commit point at or before the crash — a torn
            // transaction (shared barrier not yet durable) loses every
            // joined handle's records atomically, a durable one loses
            // none.
            let total = j.len();
            prop_assert_eq!(
                j.base(), 0,
                "{:?}: a sweep from record 0 needs its {}-record world below \
                 CHECKPOINT_RECORDS ({})", policy, total, CHECKPOINT_RECORDS
            );
            let commit_points: Vec<usize> = j.commit_points().to_vec();
            let live = fs_meta(m.fs());
            let at = |k: usize| fs_meta(&m.fs().clone().crash_and_recover_at(k));
            prop_assert_eq!(
                at(total), live.clone(),
                "{:?}: full-log replay must reproduce the live metadata", policy
            );
            let mut prefix = at(0);
            let mut next_cp = 0usize;
            for k in 0..=total {
                if commit_points.get(next_cp) == Some(&k) {
                    next_cp += 1;
                    prefix = at(k);
                }
                prop_assert_eq!(
                    at(k), prefix.clone(),
                    "{:?}: crash after {} of {} records must recover the \
                     txn prefix at commit point {:?}", policy, k, total,
                    commit_points.get(next_cp.wrapping_sub(1))
                );
            }
        }
        // Writeback with no application fsync at all: the background
        // timer alone must eventually make the journal durable — but
        // never ahead of its records (replay still reproduces the live
        // metadata exactly).
        let (m, report) = run_crash_writers(
            CommitPolicy::Writeback { flush_interval_us: 50 },
            writers, writes, 0, false, seed, relocate_at,
        );
        let j = m.fs().journal();
        prop_assert_eq!(j.len(), j.committed(), "writeback drains the journal");
        prop_assert!(report.commit.writeback_flushes >= 1, "the timer did the flushing");
        prop_assert_eq!(report.commit.fsyncs, 0);
        prop_assert_eq!(
            fs_meta(&m.fs().clone().crash_and_recover_at(j.len())),
            fs_meta(m.fs())
        );
        // Per-fsync with no fsyncs leaves the records pending: a crash
        // loses them, which is exactly the contract writeback tightens.
        let (m, _) =
            run_crash_writers(CommitPolicy::PerFsync, writers, writes, 0, false, seed, relocate_at);
        let j = m.fs().journal();
        prop_assert!(j.len() > j.committed(), "no fsync, nothing durable");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// Crash recovery when the fsync flush barrier crosses the fabric:
    /// whether the barrier is submitted from the host (`User` dispatch,
    /// one capsule per flush) or runs target-side under write pushdown
    /// (`DriverHook`, the commit acknowledged by the terminal response
    /// capsule), a crash at every journal record boundary must land on
    /// the last durable commit point — never a torn transaction.
    #[test]
    fn fabric_crash_at_any_boundary_recovers_the_last_durable_commit(
        writers in 1usize..4,
        writes in 4u64..16,
        fsync_every in 1u64..3,
        max_wait_us in 5u64..60,
        seed in 0u64..1_000,
    ) {
        let link = || {
            Some(
                FabricConfig::symmetric(20_000, 4_000)
                    .with_initiators(2)
                    .with_contention()
                    .with_loss(0.02),
            )
        };
        let policies = [
            CommitPolicy::PerFsync,
            CommitPolicy::Group { max_wait_us, max_handles: writers as u32 },
        ];
        for policy in policies {
            for mode in [DispatchMode::User, DispatchMode::DriverHook] {
                let cfg = crash_cfg(policy, seed, link());
                let (m, report) =
                    run_crash_writers_on(cfg, writers, writes, fsync_every, true, mode, &[]);
                let j = m.fs().journal();
                prop_assert_eq!(
                    j.len(), j.committed(),
                    "{:?}/{:?}: the trailing fsync commits everything logged",
                    policy, mode
                );
                // Pushdown moves the barrier to the target but may not
                // change what commits: under group commit a shared
                // barrier still acks every joined fsync.
                let commit = report.commit;
                if policy == CommitPolicy::PerFsync {
                    prop_assert_eq!(commit.commits, commit.fsyncs, "{:?}/{:?}", policy, mode);
                }
                if mode == DispatchMode::DriverHook {
                    prop_assert!(
                        report.fabric.target_local > 0,
                        "pushdown runs the barrier target-side"
                    );
                }
                let total = j.len();
                prop_assert_eq!(
                    j.base(), 0,
                    "{:?}/{:?}: a sweep from record 0 needs its {}-record world below \
                     CHECKPOINT_RECORDS ({})", policy, mode, total, CHECKPOINT_RECORDS
                );
                let commit_points: Vec<usize> = j.commit_points().to_vec();
                let live = fs_meta(m.fs());
                let at = |k: usize| fs_meta(&m.fs().clone().crash_and_recover_at(k));
                prop_assert_eq!(
                    at(total), live.clone(),
                    "{:?}/{:?}: full-log replay reproduces the live metadata", policy, mode
                );
                let mut prefix = at(0);
                let mut next_cp = 0usize;
                for k in 0..=total {
                    if commit_points.get(next_cp) == Some(&k) {
                        next_cp += 1;
                        prefix = at(k);
                    }
                    prop_assert_eq!(
                        at(k), prefix.clone(),
                        "{:?}/{:?}: crash after {} of {} records must recover the last \
                         durable commit", policy, mode, k, total
                    );
                }
            }
        }
    }
}
