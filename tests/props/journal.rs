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

/// Applies `ops` from scratch, returning the fs plus the metadata
/// snapshot at every committed-transaction boundary (`snaps[t]` = state
/// after `t` transactions).
fn replay_ops(ops: &[FsOp]) -> (ExtFs, Vec<FsMeta>) {
    const NBLOCKS: u64 = 1 << 14;
    const BS: u64 = 512;
    let mut fs = ExtFs::mkfs(NBLOCKS);
    let mut store = bpfstor::device::SectorStore::new();
    let mut snaps = vec![fs_meta(&fs)];
    for op in ops {
        // Each arm commits AT MOST one transaction (a missing file costs
        // the op: it only creates), so txn boundaries line up with the
        // snapshots below.
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
                        let _ = fs.write(ino, *block as u64 * BS, &data, &mut store);
                    }
                    Err(_) => {
                        fs.create(&name).expect("create");
                    }
                }
            }
            FsOp::Truncate { file, blocks } => {
                if let Ok(ino) = fs.open(&format!("f{file}")) {
                    fs.truncate(ino, *blocks as u64 * BS, &mut store)
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
                        let _ = fs.fallocate(ino, *block as u64, *blocks as u64, &mut store);
                    }
                    Err(_) => {
                        fs.create(&name).expect("create");
                    }
                }
            }
        }
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
        const NBLOCKS: u64 = 1 << 14;
        let (reference, snaps) = replay_ops(&ops);
        let total_records = reference.journal().len();
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
            let recovered = crashed.crash_and_recover_at(NBLOCKS, k);
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
