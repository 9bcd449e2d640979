// --- Journal crash-consistency: every record-boundary crash recovers a prefix ----

/// One random metadata-plane operation.
#[derive(Debug, Clone)]
enum FsOp {
    Write { file: u8, block: u8, blocks: u8 },
    Truncate { file: u8, blocks: u8 },
    Unlink { file: u8 },
    Fallocate { file: u8, block: u8, blocks: u8 },
}

fn fs_op_strategy() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        5 => (0u8..3, 0u8..12, 1u8..5).prop_map(|(file, block, blocks)| FsOp::Write { file, block, blocks }),
        2 => (0u8..3, 0u8..8).prop_map(|(file, blocks)| FsOp::Truncate { file, blocks }),
        1 => (0u8..3).prop_map(|file| FsOp::Unlink { file }),
        2 => (0u8..3, 0u8..12, 1u8..5).prop_map(|(file, block, blocks)| FsOp::Fallocate { file, block, blocks }),
    ]
}

/// Runs one op on `fs`, committing AT MOST one transaction (a missing
/// file costs the op: it only creates).
fn run_fs_op(fs: &mut ExtFs, store: &mut SectorStore, op: &FsOp) {
    const BS: u64 = 512;
    match op {
        FsOp::Write {
            file,
            block,
            blocks,
        } => {
            let name = format!("f{file}");
            match fs.open(&name) {
                Ok(ino) => {
                    let data = vec![*block ^ *blocks; *blocks as usize * BS as usize];
                    let _ = fs.write(ino, *block as u64 * BS, &data, store);
                }
                Err(_) => {
                    fs.create(&name).expect("create");
                }
            }
        }
        FsOp::Truncate { file, blocks } => {
            if let Ok(ino) = fs.open(&format!("f{file}")) {
                fs.truncate(ino, *blocks as u64 * BS, store)
                    .expect("truncate");
            }
        }
        FsOp::Unlink { file } => {
            let name = format!("f{file}");
            if fs.open(&name).is_ok() {
                fs.unlink(&name).expect("unlink");
            }
        }
        FsOp::Fallocate {
            file,
            block,
            blocks,
        } => {
            let name = format!("f{file}");
            match fs.open(&name) {
                Ok(ino) => {
                    let _ = fs.fallocate(ino, *block as u64, *blocks as u64, store);
                }
                Err(_) => {
                    fs.create(&name).expect("create");
                }
            }
        }
    }
}

/// Applies `ops` from scratch, returning the fs plus the metadata
/// snapshot at every committed-transaction boundary (`snaps[t]` = state
/// after `t` transactions).
fn replay_ops(ops: &[FsOp]) -> (ExtFs, Vec<FsMeta>) {
    let mut fs = ExtFs::mkfs(1 << 14);
    let mut store = SectorStore::new();
    let mut snaps = vec![fs_meta(&fs)];
    for op in ops {
        run_fs_op(&mut fs, &mut store, op);
        let t = fs.journal().commit_points().len();
        // Ops always commit whole transactions; snapshot state at txn t.
        if t >= snaps.len() {
            snaps.resize(t + 1, fs_meta(&fs));
        }
        snaps[t] = fs_meta(&fs);
    }
    (fs, snaps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn journal_replay_after_any_crash_point_is_a_txn_prefix(
        ops in proptest::collection::vec(fs_op_strategy(), 1..18)
    ) {
        let (reference, snaps) = replay_ops(&ops);
        let total_records = reference.journal().len();
        prop_assert_eq!(
            reference.journal().base(), 0,
            "a sweep from record 0 needs its {}-record world below CHECKPOINT_RECORDS ({})",
            total_records, CHECKPOINT_RECORDS
        );
        let commit_points: Vec<usize> = reference.journal().commit_points().to_vec();
        prop_assert_eq!(
            total_records,
            *commit_points.last().unwrap_or(&0),
            "ops commit whole transactions; nothing dangles"
        );
        // Crash at EVERY record boundary: the recovered metadata must be
        // exactly the state after some prefix of committed transactions
        // — never a torn mix (e.g. a size without its extents).
        for k in 0..=total_records {
            let (crashed, _) = replay_ops(&ops);
            let recovered = crashed.crash_and_recover_at(k);
            let t = commit_points.iter().filter(|&&p| p <= k).count();
            prop_assert_eq!(
                fs_meta(&recovered),
                snaps[t].clone(),
                "crash after {} of {} records must recover exactly txn-prefix {}",
                k, total_records, t
            );
        }
    }
}

/// One step of a checkpointed world: a metadata op, a runtime writer's
/// plan (it joins the running transaction, so metadata ops stop
/// committing on their own), a seal, the barrier CQE of one outstanding
/// seal (in any order), or a checkpoint.
#[derive(Debug, Clone)]
enum CkptStep {
    Op(FsOp),
    Plan { file: u8, block: u8, blocks: u8 },
    Seal,
    Land { pick: u8 },
    Checkpoint,
}

fn ckpt_step_strategy() -> impl Strategy<Value = CkptStep> {
    prop_oneof![
        4 => fs_op_strategy().prop_map(CkptStep::Op),
        3 => (0u8..3, 0u8..12, 1u8..5).prop_map(|(file, block, blocks)| CkptStep::Plan { file, block, blocks }),
        2 => Just(CkptStep::Seal),
        2 => any::<u8>().prop_map(|pick| CkptStep::Land { pick }),
        2 => Just(CkptStep::Checkpoint),
    ]
}

/// Runs `step` on `fs`; `sealed` holds the seals whose barriers have
/// not landed.
fn run_ckpt_step(
    fs: &mut ExtFs,
    store: &mut SectorStore,
    sealed: &mut Vec<bpfstor::fs::SealedTxn>,
    step: &CkptStep,
) {
    match *step {
        CkptStep::Op(ref op) => run_fs_op(fs, store, op),
        CkptStep::Plan {
            file,
            block,
            blocks,
        } => {
            let name = format!("f{file}");
            match fs.open(&name) {
                Ok(ino) => {
                    let len = blocks as usize * 512;
                    fs.plan_write(ino, block as u64 * 512, len, store)
                        .expect("room");
                }
                Err(_) => {
                    fs.create(&name).expect("create");
                }
            }
        }
        CkptStep::Seal => sealed.push(fs.seal_journal()),
        CkptStep::Land { pick } => {
            if !sealed.is_empty() {
                let txn = sealed.remove(pick as usize % sealed.len());
                fs.commit_journal_sealed(txn);
            }
        }
        CkptStep::Checkpoint => fs.checkpoint(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Checkpoints at drawn points — with writers running and seals
    /// outstanding — never change what a crash recovers: after each one,
    /// a crash at every record boundary from the checkpoint on recovers
    /// the same metadata as the same world with its full log, which the
    /// test keeps beside it and never checkpoints.
    #[test]
    fn checkpoints_anywhere_recover_what_the_full_log_does(
        steps in proptest::collection::vec(ckpt_step_strategy(), 1..48)
    ) {
        let mut fs = ExtFs::mkfs(1 << 14);
        let mut full = fs.clone();
        let (mut store, mut full_store) = (SectorStore::new(), SectorStore::new());
        let (mut sealed, mut full_sealed) = (Vec::new(), Vec::new());
        let sweep = |fs: &ExtFs, full: &ExtFs| {
            let j = fs.journal();
            for k in j.base()..=j.len() {
                prop_assert_eq!(
                    fs_meta(&fs.clone().crash_and_recover_at(k)),
                    fs_meta(&full.clone().crash_and_recover_at(k)),
                    "crash after {} records, checkpoint at {}", k, j.base()
                );
            }
        };
        let mut checkpoints = 0;
        for step in &steps {
            run_ckpt_step(&mut fs, &mut store, &mut sealed, step);
            if matches!(step, CkptStep::Checkpoint) {
                checkpoints += 1;
                let j = fs.journal();
                prop_assert_eq!(j.base(), j.committed(), "the committed prefix, no further");
                sweep(&fs, &full);
            } else {
                run_ckpt_step(&mut full, &mut full_store, &mut full_sealed, step);
            }
            prop_assert_eq!(fs_meta(&fs), fs_meta(&full), "a checkpoint moves no live metadata");
            prop_assert_eq!(fs.journal_dirty(), full.journal_dirty());
            prop_assert_eq!(fs.journal().len(), full.journal().len());
        }
        prop_assert_eq!(full.journal().base(), 0, "the reference keeps its full log");
        if checkpoints > 0 {
            sweep(&fs, &full);
        }
    }
}
