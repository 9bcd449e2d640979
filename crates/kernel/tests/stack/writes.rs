// --- The journaled write path through the rings ------------------------------

/// A machine under `cfg` holding the empty file `name`.
fn log_machine(cfg: MachineConfig, name: &str) -> (Machine, Fd) {
    machine_with(cfg, name, &[], None)
}

#[test]
fn write_chains_ride_the_rings_and_land_on_the_store() {
    let (mut m, fd) = log_machine(MachineConfig::default(), "log.db");
    let mut d = writes(fd, SECTOR_SIZE, 16, 4);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 16);
    for o in &d.outcomes {
        assert!(
            matches!(o.status, ChainStatus::Written(n) if n as usize == SECTOR_SIZE),
            "unexpected status {:?}",
            o.status
        );
    }
    // The data went through the device as real write commands...
    assert_eq!(report.device.writes, 16, "one write command per block");
    assert_eq!(report.device.flushes, 4, "every 4th write carried fsync");
    assert!(report.device.write_doorbells > 0, "writes rang doorbells");
    assert!(report.device.write_cqes >= 20, "write + flush CQEs reaped");
    assert_eq!(report.errors, 0);
    // ...and the bytes are really on the store, through the fs mapping.
    let ino = m.ino_of(fd).expect("ino");
    let (fs, store) = m.fs_and_store();
    for i in 0..16u64 {
        let got = fs
            .read(ino, i * SECTOR_SIZE as u64, SECTOR_SIZE, store)
            .expect("read");
        assert_eq!(got, vec![Writes::fill(i); SECTOR_SIZE], "block {i}");
    }
    // Write latency is tracked in its own histogram.
    assert_eq!(report.write_latency.count(), 16);
    assert_eq!(report.read_latency.count(), 0);
    assert_eq!(report.latency.count(), 16);
}

#[test]
fn fsync_commits_the_journal_unfsynced_writes_stay_pending() {
    let (mut m, fd) = log_machine(MachineConfig::default(), "wal.db");
    let ino = m.ino_of(fd).expect("ino");
    // Un-fsynced runtime write: metadata records stay in the open
    // transaction — not crash-durable yet.
    m.write_file(ino, 0, &vec![7u8; SECTOR_SIZE], false)
        .expect("write");
    assert!(m.fs().journal_dirty(), "runtime write leaves the txn open");
    let j = m.fs().journal();
    assert!(j.len() > j.committed(), "records pending, not committed");
    // The fsync barrier commits them.
    m.write_file(ino, 0, &[], true).expect("fsync");
    assert!(!m.fs().journal_dirty());
    let j = m.fs().journal();
    assert_eq!(j.len(), j.committed(), "all records durable");
}

#[test]
fn group_commit_shares_one_barrier_across_concurrent_fsyncs() {
    let writers = 8;
    let cfg = MachineConfig {
        commit_policy: CommitPolicy::Group {
            max_wait_us: 50,
            max_handles: writers as u32,
        },
        ..MachineConfig::default()
    };
    let (mut m, fd) = log_machine(cfg, "wal.db");
    // Every write fsyncs; eight closed-loop writers pile into shared
    // transactions.
    let mut d = writes(fd, SECTOR_SIZE, 32, 1);
    let report = m.run_closed_loop(writers, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 32);
    for o in &d.outcomes {
        assert!(matches!(o.status, ChainStatus::Written(_)));
    }
    let commit = report.commit;
    assert_eq!(commit.fsyncs, 32);
    assert!(
        commit.commits < commit.fsyncs,
        "barriers must be shared: {} commits for {} fsyncs",
        commit.commits,
        commit.fsyncs
    );
    assert_eq!(
        report.device.flushes, commit.commits,
        "one device flush per committed transaction"
    );
    assert!(
        commit.max_handles >= 2,
        "at least one transaction carried multiple handles"
    );
    assert!(commit.flushes_per_fsync() < 1.0);
    // Everything fsynced is durable once the run drains.
    let j = m.fs().journal();
    assert_eq!(j.len(), j.committed());
    // Fsync latency is measured issue-to-barrier-CQE, once per fsync.
    assert_eq!(report.fsync_latency.count(), 32);
}

#[test]
fn writeback_timer_flushes_unfsynced_journal_records() {
    let cfg = MachineConfig {
        commit_policy: CommitPolicy::Writeback {
            flush_interval_us: 100,
        },
        ..MachineConfig::default()
    };
    let (mut m, fd) = log_machine(cfg, "wal.db");
    // No application fsync at all: only the background timer commits.
    let mut d = writes(fd, SECTOR_SIZE, 12, 0);
    let report = m.run_closed_loop(2, SECOND, &mut d);
    assert_eq!(d.outcomes.len(), 12);
    let commit = report.commit;
    assert_eq!(commit.fsyncs, 0, "nothing fsynced");
    assert!(
        commit.writeback_flushes >= 1,
        "the timer sealed the journal dirt"
    );
    let j = m.fs().journal();
    assert_eq!(
        j.len(),
        j.committed(),
        "background flush drained the journal before the run ended"
    );
    // No fsync means no fsync latency samples.
    assert_eq!(report.fsync_latency.count(), 0);
}

#[test]
#[should_panic(expected = "CommitPolicy::Group max_handles 0 admits no fsync")]
fn a_group_commit_of_zero_handles_panics() {
    machine(MachineConfig {
        commit_policy: CommitPolicy::Group {
            max_wait_us: 20,
            max_handles: 0,
        },
        ..MachineConfig::default()
    });
}

#[test]
#[should_panic(expected = "CommitPolicy::Writeback flush_interval_us 0")]
fn a_writeback_interval_of_zero_panics() {
    machine(MachineConfig {
        commit_policy: CommitPolicy::Writeback {
            flush_interval_us: 0,
        },
        ..MachineConfig::default()
    });
}

#[test]
fn a_relocation_amid_fsyncing_writers_keeps_every_commit_in_seal_order() {
    // A relocation is a metadata op of its own. Landing while writers
    // have joined the running transaction or a barrier is in flight, it
    // rides the writers' next barrier; it used to commit on the spot,
    // ahead of the in-flight seal, whose CQE then moved the durable
    // point backwards.
    const WRITES: u64 = 24;
    let policies = [
        CommitPolicy::PerFsync,
        CommitPolicy::Group {
            max_wait_us: 20,
            max_handles: 4,
        },
        CommitPolicy::Writeback {
            flush_interval_us: 50,
        },
    ];
    for policy in policies {
        for at in (0..200).map(|us| us * 1_000) {
            let cfg = MachineConfig {
                commit_policy: policy,
                ..MachineConfig::default()
            };
            let (mut m, fd) = log_machine(cfg, "wal.db");
            m.create_file("other.db", &chain_file(8)).expect("create");
            m.schedule_relocation(at, "other.db");
            let mut d = writes(fd, SECTOR_SIZE, WRITES, 1);
            m.run_closed_loop(4, SECOND, &mut d);
            let written = |o: &ChainOutcome| matches!(o.status, ChainStatus::Written(_));
            assert!(d.outcomes.iter().all(written), "{policy:?} at {at} ns");
            assert_eq!(d.outcomes.len() as u64, WRITES, "{policy:?} at {at} ns");
            let points = m.fs().journal().commit_points();
            assert!(
                points.windows(2).all(|w| w[0] < w[1]),
                "{policy:?} at {at} ns: commit points {points:?}"
            );
            // Every write was fsynced: a crash after the run keeps them all.
            let ino = m.ino_of(fd).expect("ino");
            let (fs, store) = m.fs_and_store();
            let recovered = fs.clone().crash_and_recover();
            assert_eq!(recovered.fsck(), Ok(()), "{policy:?} at {at} ns");
            for i in 0..WRITES {
                let off = i * SECTOR_SIZE as u64;
                let got = recovered.read(ino, off, SECTOR_SIZE, store).expect("read");
                assert_eq!(
                    got,
                    vec![Writes::fill(i); SECTOR_SIZE],
                    "{policy:?} at {at} ns"
                );
            }
        }
    }
}

#[test]
fn a_long_journaled_world_checkpoints_and_recovers_from_its_image() {
    // Each append logs a map and a size, so past CHECKPOINT_RECORDS / 2
    // appends the commit paths checkpoint on their own: the journal
    // retains fewer committed records than the trigger, reads clean
    // once everything is durable, and a crash — at the end or right at
    // the checkpoint — recovers from the image.
    const WRITES: u64 = (CHECKPOINT_RECORDS as u64) / 2 + 200;
    let policies = [
        (
            CommitPolicy::Group {
                max_wait_us: 20,
                max_handles: 4,
            },
            4,
        ),
        (
            CommitPolicy::Writeback {
                flush_interval_us: 50,
            },
            0,
        ),
    ];
    for (policy, fsync_every) in policies {
        let cfg = MachineConfig {
            commit_policy: policy,
            ..MachineConfig::default()
        };
        let (mut m, fd) = log_machine(cfg, "wal.db");
        let mut d = writes(fd, SECTOR_SIZE, WRITES, fsync_every);
        d.state.final_fsync = true;
        m.run_closed_loop(4, SECOND, &mut d);
        let written = |o: &ChainOutcome| matches!(o.status, ChainStatus::Written(_));
        assert!(d.outcomes.iter().all(written), "{policy:?}");
        assert_eq!(d.outcomes.len() as u64, WRITES + 1, "{policy:?}");
        assert!(
            !m.fs().journal_dirty(),
            "{policy:?}: the last fsync drained it"
        );
        let j = m.fs().journal();
        let base = j.base();
        assert!(base > 0, "{policy:?}: the commit paths checkpointed");
        assert_eq!(j.len(), j.committed(), "{policy:?}");
        assert!(
            j.committed_records().len() < CHECKPOINT_RECORDS,
            "{policy:?}"
        );
        let ino = m.ino_of(fd).expect("ino");
        let (fs, store) = m.fs_and_store();
        let recovered = fs.clone().crash_and_recover();
        assert_eq!(recovered.fsck(), Ok(()), "{policy:?}");
        assert_eq!(recovered.extents_snapshot(ino), fs.extents_snapshot(ino));
        assert_eq!(recovered.free_blocks(), fs.free_blocks(), "{policy:?}");
        for i in 0..WRITES {
            let off = i * SECTOR_SIZE as u64;
            let got = recovered.read(ino, off, SECTOR_SIZE, store).expect("read");
            assert_eq!(
                got,
                vec![Writes::fill(i); SECTOR_SIZE],
                "{policy:?}: write {i}"
            );
        }
        // A crash right at the checkpoint recovers the image alone: part
        // of the file, not all of it.
        let at_base = fs.clone().crash_and_recover_at(base);
        assert_eq!(at_base.fsck(), Ok(()), "{policy:?}");
        let size = at_base.file_size(ino).expect("size");
        assert!(
            size > 0 && size < fs.file_size(ino).expect("size"),
            "{policy:?}"
        );
    }
}

#[test]
fn a_parked_write_lands_where_its_relocated_file_is_now() {
    // A write is planned once, on its first attempt, but translated
    // through the file system each time it is admitted. One that parks
    // on backpressure while its own file is relocated must go to the
    // blocks the file holds now: with its first attempt's runs it would
    // land on blocks the relocation freed, and read back lost. Four
    // worlds park writes: a one-slot ring, a one-slot tenant budget, and
    // a one-capsule fabric window from the host and under pushdown.
    const WRITES: u64 = 48;
    let fabric = |mode| {
        let mut link = exact_link(5_000);
        link.inflight_cap = 1;
        let cfg = MachineConfig {
            fabric: Some(link),
            ..MachineConfig::default()
        };
        (cfg, None, mode)
    };
    let one_slot = TenantLimits {
        sq_slots: Some(1),
        ..TenantLimits::default()
    };
    let worlds = [
        ("one-slot ring", (ring_depth(2), None, DispatchMode::User)),
        (
            "one-slot tenant budget",
            (MachineConfig::default(), Some(one_slot), DispatchMode::User),
        ),
        ("fabric, one capsule", fabric(DispatchMode::User)),
        ("fabric write pushdown", fabric(DispatchMode::DriverHook)),
    ];
    for (what, (cfg, limits, mode)) in worlds {
        let (mut lost, mut parks) = (0, 0);
        for at in (0..400).map(|i| i * 500) {
            let cfg = MachineConfig {
                cores: 1,
                ..cfg.clone()
            };
            let (mut m, fd) = log_machine(cfg, "wal.db");
            if let Some(limits) = limits {
                m.set_tenant_limits(DEFAULT_TENANT, limits)
                    .expect("tenant 0");
            }
            m.schedule_relocation(at, "wal.db");
            let mut d = writes(fd, SECTOR_SIZE, WRITES, 0);
            d.mode = mode;
            let report = m.run_closed_loop(4, SECOND, &mut d);
            let written = |o: &ChainOutcome| matches!(o.status, ChainStatus::Written(_));
            assert!(d.outcomes.iter().all(written), "{what} at {at} ns");
            assert_eq!(d.outcomes.len() as u64, WRITES, "{what} at {at} ns");
            parks += report.device.rejected + report.tenants[0].sq_parks;
            let ino = m.ino_of(fd).expect("ino");
            let (fs, store) = m.fs_and_store();
            lost += (0..WRITES)
                .filter(|&i| {
                    let got = fs.read(ino, i * SECTOR_SIZE as u64, SECTOR_SIZE, store);
                    got.expect("read") != vec![Writes::fill(i); SECTOR_SIZE]
                })
                .count();
        }
        assert!(parks > 0, "{what}: writes must have parked");
        assert_eq!(lost, 0, "{what}: writes lost to a relocation");
    }
}

#[test]
fn fsync_write_pays_data_then_flush_ordering() {
    let (mut m, fd) = log_machine(MachineConfig::default(), "f.db");
    let ino = m.ino_of(fd).expect("ino");
    let o_plain = m
        .write_file(ino, 0, &vec![1u8; SECTOR_SIZE], false)
        .expect("plain write");
    let o_fsync = m
        .write_file(ino, SECTOR_SIZE as u64, &vec![2u8; SECTOR_SIZE], true)
        .expect("fsync write");
    assert_eq!(o_plain.ios, 1, "data command only");
    assert_eq!(o_fsync.ios, 2, "data command + flush barrier");
    assert!(
        o_fsync.latency > o_plain.latency,
        "the ordered flush serializes behind the data CQE: {} !> {}",
        o_fsync.latency,
        o_plain.latency
    );
    let st = m.device_stats();
    assert_eq!(st.writes, 2);
    assert_eq!(st.flushes, 1);
}

#[test]
fn write_backpressure_parks_and_retries_until_done() {
    // A uring batch of 8 writers into (a) a two-slot ring (capacity 1)
    // and (b) a tenant budget of one SQ slot: submissions must park —
    // on the full SQ, on the budget — and retry after interrupts free
    // slots. Every write still completes, none are dropped.
    let run = |cfg: MachineConfig, sq_slots: Option<usize>| {
        let (mut m, fd) = log_machine(cfg, "log.db");
        let limits = TenantLimits {
            sq_slots,
            ..TenantLimits::default()
        };
        m.set_tenant_limits(DEFAULT_TENANT, limits)
            .expect("tenant 0");
        let mut d = writes(fd, SECTOR_SIZE, 32, 0);
        let report = m.run_uring(1, 8, SECOND, &mut d);
        assert_eq!(d.outcomes.len(), 32, "no write lost to backpressure");
        assert!(
            d.outcomes
                .iter()
                .all(|o| matches!(o.status, ChainStatus::Written(_))),
            "all delivered as written"
        );
        assert_eq!(report.errors, 0);
        (m, fd, report)
    };
    let (open_m, open_fd, open) = run(MachineConfig::default(), None);
    assert_eq!(
        (open.device.rejected, open.tenants[0].sq_parks),
        (0, 0),
        "the reference run never parks"
    );
    assert_eq!(open.device.writes, 32);
    let ino = open_m.ino_of(open_fd).expect("ino");
    let parked_runs = [
        ("full SQ", run(ring_depth(2), None)),
        ("tenant budget", run(MachineConfig::default(), Some(1))),
    ];
    for (what, (mut m, fd, report)) in parked_runs {
        assert!(
            report.device.rejected + report.tenants[0].sq_parks > 0,
            "{what}: submissions must have parked"
        );
        // A write is planned once, on its first attempt: no second
        // allocation, no second journal record. Translated again when it
        // is admitted, it finds the runs it was planned onto (nothing
        // moved), so the commands that go out are the un-parked run's.
        assert_eq!(m.ino_of(fd), Some(ino), "{what}");
        let (fs, reference) = (m.fs(), open_m.fs());
        assert_eq!(fs.journal_len(), reference.journal_len(), "{what}");
        assert_eq!(fs.stats(), reference.stats(), "{what}: blocks allocated");
        assert_eq!(
            fs.extents_snapshot(ino).expect("extents"),
            reference.extents_snapshot(ino).expect("extents"),
            "{what}: where the runs went"
        );
        assert_eq!(
            (report.device.writes, report.ios),
            (open.device.writes, open.ios),
            "{what}: commands submitted"
        );
        let (fs, store) = m.fs_and_store();
        for i in 0..32u64 {
            let got = fs
                .read(ino, i * SECTOR_SIZE as u64, SECTOR_SIZE, store)
                .expect("read");
            assert_eq!(got, vec![Writes::fill(i); SECTOR_SIZE], "{what}: block {i}");
        }
    }
}

/// Chain `i`'s record in [`one_lent_buffer_serves_every_write`]:
/// non-zero for its first `i * 97 % len` bytes, zero after them.
fn lent_record(i: u64, len: usize) -> impl Iterator<Item = u8> {
    let nonzero = i as usize * 97 % len;
    (0..len).map(move |p| if p < nonzero { Writes::fill(i) } else { 0 })
}

#[test]
fn one_lent_buffer_serves_every_write() {
    // The driver refills one buffer for every write, as `YcsbMix` does,
    // and eight writes are issued before the first reaches the device:
    // each chain's copy is its own. The records straddle sectors from an
    // unaligned offset, and each is zero past its own length, so a
    // pooled buffer's stale tail, or a neighbour's bytes, would show.
    const LEN: usize = 2 * SECTOR_SIZE + 40;
    const STRIDE: usize = 3 * SECTOR_SIZE;
    const COUNT: u64 = 24;
    struct Lender {
        fd: Fd,
        record: Vec<u8>,
    }
    fn next<'s>(s: &'s mut Lender, i: u64, _: usize, _: &mut SimRng) -> Option<ChainSpec<'s>> {
        if i >= COUNT {
            return None;
        }
        s.record.clear();
        s.record.extend(lent_record(i, LEN));
        let off = (i as usize * STRIDE + 17) as u64;
        Some(write(s.fd, off, &s.record, i % 5 == 4, i))
    }
    let (mut m, fd) = log_machine(MachineConfig::default(), "log.db");
    let state = Lender {
        fd,
        record: Vec::new(),
    };
    let mut d = Script::new(DispatchMode::User, state, next);
    let report = m.run_uring(1, 8, SECOND, &mut d);
    assert_eq!((d.outcomes.len() as u64, report.errors), (COUNT, 0));
    let mut want = vec![0u8; COUNT as usize * STRIDE];
    for i in 0..COUNT {
        let at = i as usize * STRIDE + 17;
        want.splice(at..at + LEN, lent_record(i, LEN));
    }
    let ino = m.ino_of(fd).expect("ino");
    let (fs, store) = m.fs_and_store();
    let got = fs.read(ino, 0, want.len(), store).expect("read");
    let first = got.iter().zip(&want).position(|(a, b)| a != b);
    assert_eq!(first, None, "the first byte that is not its chain's own");
}

#[test]
fn multi_block_write_merges_into_contiguous_segments() {
    // A fresh file's sequential allocation is contiguous, so an 8-block
    // write should reach the device as ONE write command.
    let (mut m, fd) = log_machine(MachineConfig::default(), "big.db");
    let ino = m.ino_of(fd).expect("ino");
    let payload: Vec<u8> = (0..8 * SECTOR_SIZE).map(|i| (i % 253) as u8).collect();
    let outcome = m.write_file(ino, 0, &payload, false).expect("write");
    assert_eq!(outcome.ios, 1, "bio-style merge into one command");
    let st = m.device_stats();
    assert_eq!(st.writes, 1);
    let (fs, store) = m.fs_and_store();
    assert_eq!(
        fs.read(ino, 0, payload.len(), store).expect("read"),
        payload
    );
}

#[test]
fn unaligned_write_read_modify_writes_the_edges() {
    let image = vec![0xAAu8; 2 * SECTOR_SIZE];
    let (mut m, fd) = machine_with(MachineConfig::default(), "rmw.db", &image, None);
    let ino = m.ino_of(fd).expect("ino");
    m.write_file(ino, 100, b"hello world", false)
        .expect("write");
    let (fs, store) = m.fs_and_store();
    let back = fs.read(ino, 98, 15, store).expect("read");
    assert_eq!(&back[2..13], b"hello world");
    assert_eq!(back[0], 0xAA, "surrounding bytes preserved");
}

#[test]
fn direct_reads_see_the_bytes_a_write_just_stored() {
    // Read v1, write v2 through the rings, read again: the second read
    // goes to the device and sees v2.
    let image = vec![1u8; SECTOR_SIZE];
    let (mut m, fd) = machine_with(MachineConfig::default(), "page.db", &image, None);
    let ino = m.ino_of(fd).expect("ino");
    let mut d = reads(fd, DispatchMode::User, 1);
    m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(passed(&d)[0], image, "v1 before the write");
    m.write_file(ino, 0, &vec![2u8; SECTOR_SIZE], true)
        .expect("write");
    let mut d = reads(fd, DispatchMode::User, 1);
    let report = m.run_closed_loop(1, SECOND, &mut d);
    assert_eq!(passed(&d)[0], vec![2u8; SECTOR_SIZE], "v2 after it");
    assert_eq!(report.ios, 1, "the read reached the device");
}

#[test]
fn mixed_read_write_chains_share_queue_slots() {
    // Interleave reads and writes on one thread's queue pair and check
    // both classes complete, with per-class histograms partitioning the
    // total.
    let image = vec![5u8; 8 * SECTOR_SIZE];
    let (mut m, fd) = machine_with(MachineConfig::default(), "mix.db", &image, None);
    let mut d = Script::new(DispatchMode::User, fd, |&mut fd, issued, _, _| {
        let left = 39u64.checked_sub(issued)?;
        Some(if issued.is_multiple_of(2) {
            read(fd, 0, SECTOR_SIZE as u32, 0)
        } else {
            let file_off = (8 + left) * SECTOR_SIZE as u64;
            write(fd, file_off, &[9u8; SECTOR_SIZE], false, 0)
        })
    });
    let report = m.run_closed_loop(2, SECOND, &mut d);
    let written = |o: &&ChainOutcome| matches!(o.status, ChainStatus::Written(_));
    let nwrites = d.outcomes.iter().filter(written).count();
    assert_eq!(d.outcomes.len() - nwrites, 20);
    assert_eq!(nwrites, 20);
    assert_eq!(report.read_latency.count(), 20);
    assert_eq!(report.write_latency.count(), 20);
    assert_eq!(report.latency.count(), 40);
    assert!(report.device.write_doorbells > 0);
    assert!(report.device.reads >= 20 && report.device.writes == 20);
    assert_eq!(report.errors, 0);
}

#[test]
fn read_file_handles_unaligned_ranges_spanning_blocks() {
    // Regression: the request must be sized from (off % block) + len,
    // or an unaligned read spanning a block boundary comes back short.
    let image: Vec<u8> = (0..4 * SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
    let (mut m, fd) = machine_with(MachineConfig::default(), "u.db", &image, None);
    let ino = m.ino_of(fd).expect("ino");
    let got = m.read_file(ino, 100, SECTOR_SIZE).expect("read");
    assert_eq!(got.len(), SECTOR_SIZE, "full length, not truncated");
    assert_eq!(got, &image[100..100 + SECTOR_SIZE]);
    let tail = m
        .read_file(ino, 3 * SECTOR_SIZE as u64 + 500, 12)
        .expect("tail");
    assert_eq!(tail, &image[3 * SECTOR_SIZE + 500..3 * SECTOR_SIZE + 512]);
}

#[test]
fn one_shot_io_leaves_future_mutations_for_the_next_run() {
    // Regression: write_file/read_file between runs must not consume a
    // mutation scheduled for a later simulated instant.
    let (mut m, fd) = machine_with(MachineConfig::default(), "data.db", &chain_file(4), None);
    let ino = m.ino_of(fd).expect("ino");
    m.create_file("scratch.db", &[]).expect("create scratch");
    let scratch = m.fs().open("scratch.db").expect("open");
    // Schedule a relocation far in the future, then do preload I/O.
    m.schedule_relocation(1_000 * SECOND, "data.db");
    let (gen_before, _) = m.fs().generations(ino).expect("gens");
    m.write_file(scratch, 0, &vec![1u8; SECTOR_SIZE], true)
        .expect("preload write");
    let (gen_after, _) = m.fs().generations(ino).expect("gens");
    assert_eq!(
        gen_before, gen_after,
        "the future relocation must not fire during preload I/O"
    );
}

#[test]
fn an_unopened_fd_fails_the_chain_the_same_from_both_origins() {
    // A chain that names a descriptor nobody opened is an I/O error the
    // driver hears of and the report counts — and the thread moves on.
    // (The blocking path used to wedge its thread on the first one:
    // three issued, two done, `errors: 0`. The uring path dropped the
    // SQE and carried on; before that, a write SQE naming a bad fd
    // skewed the batch's read/write accounting into a u64 underflow.)
    let run = |uring: bool| {
        let (mut m, good_fd) =
            machine_with(MachineConfig::default(), "ok.db", &chain_file(1), None);
        // Alternate a bogus-fd write with a valid read.
        let mut d = Script::new(DispatchMode::User, good_fd, |&mut good_fd, issued, _, _| {
            (issued < 8).then(|| {
                if issued.is_multiple_of(2) {
                    write(9999, 0, &[1u8; SECTOR_SIZE], false, issued)
                } else {
                    read(good_fd, 0, SECTOR_SIZE as u32, issued)
                }
            })
        });
        let report = if uring {
            m.run_uring(1, 4, SECOND, &mut d)
        } else {
            m.run_closed_loop(1, SECOND, &mut d)
        };
        (report, d)
    };
    let (sync, uring) = (run(false), run(true));
    for (what, (report, d)) in [("closed loop", &sync), ("uring", &uring)] {
        assert!(report.chains > 0, "{what}: valid reads still complete");
        assert_eq!(
            report.device.writes, 0,
            "{what}: bad-fd writes never reach the device"
        );
        assert_eq!(
            (d.issued, d.outcomes.len()),
            (8, 8),
            "{what}: every chain is heard of"
        );
        assert_eq!(
            (report.chains, report.errors, report.ios),
            (8, 4, 4),
            "{what}"
        );
        for o in &d.outcomes {
            if o.arg().is_multiple_of(2) {
                assert_eq!((&o.status, o.ios), (&ChainStatus::IoError, 0), "{what}");
                assert_eq!((o.token.tenant, o.latency), (DEFAULT_TENANT, 0), "{what}");
            } else {
                assert!(
                    matches!(o.status, ChainStatus::Pass(_)),
                    "{what}: {:?}",
                    o.status
                );
            }
        }
        assert_eq!(report.write_latency.count(), 4, "{what}: counted as writes");
        assert_eq!(report.trace.journal, 0, "{what}: and priced as nothing");
        assert_eq!(report.audit(), Ok(()), "{what}: conserves");
    }
    // No CPU is charged for a chain that never started: the blocking
    // run costs exactly what its four reads cost alone.
    let (mut m, fd) = machine_with(MachineConfig::default(), "ok.db", &chain_file(1), None);
    let alone = m.run_closed_loop(1, SECOND, &mut reads(fd, DispatchMode::User, 4));
    assert_eq!(sync.0.trace.software(), alone.trace.software());
}
