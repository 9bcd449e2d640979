// --- Extent-granular write path vs the per-bit / per-sector / per-block code it replaced ---

/// One to three block groups, word-aligned and not, and one device far
/// larger than anything the ops allocate, so that goals, reserves and
/// the used and free counts land past the bitmap's grown end.
const ALLOC_SIZES: [u64; 11] = [
    1,
    63,
    64,
    65,
    200,
    GROUP_BLOCKS,
    GROUP_BLOCKS + 1,
    GROUP_BLOCKS + 70,
    2 * GROUP_BLOCKS + 33,
    3 * GROUP_BLOCKS,
    16 * GROUP_BLOCKS + 5,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn wordwise_allocator_matches_the_bitwise_one(
        size in 0usize..ALLOC_SIZES.len(),
        from_start in any::<bool>(),
        ops in proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..80)
    ) {
        let nblocks = ALLOC_SIZES[size];
        let mut word = BlockAllocator::new(nblocks);
        let mut bit = BitAllocator::new(nblocks);
        let mut live: Vec<Run> = Vec::new();
        for (kind, a, b) in ops {
            match kind {
                // Allocate: short runs, runs that can swallow a group
                // (so the device fills and pass 2 has to wrap), goals
                // anywhere up to past the end. Or, `from_start`, whole
                // words first-fit from block 0: the used blocks fill the
                // bitmap's words, so first fit runs on past its end.
                0..=4 => {
                    let (want, goal) = if from_start {
                        (64 * (1 + a % 3), 0)
                    } else {
                        (1 + a % if kind < 3 { 40 } else { nblocks + 5 }, b % (nblocks + 200))
                    };
                    let got = word.alloc(want, goal);
                    prop_assert_eq!(got, bit.alloc(want, goal), "alloc({}, {})", want, goal);
                    live.extend(got);
                }
                // Release a random slice of a live run.
                5 | 6 => {
                    if live.is_empty() {
                        continue;
                    }
                    let run = live.swap_remove((a % live.len() as u64) as usize);
                    let skip = b % run.len;
                    let len = 1 + (b >> 32) % (run.len - skip);
                    word.release(run.start + skip, len);
                    bit.release(run.start + skip, len);
                    for (start, len) in [(run.start, skip), (run.start + skip + len, run.len - skip - len)] {
                        if len > 0 {
                            live.push(Run { start, len });
                        }
                    }
                }
                // Reserve (replay's path) wherever the range is free.
                _ => {
                    let start = a % nblocks;
                    let len = 1 + b % (nblocks - start).min(150);
                    if bit.all_free(start, len) {
                        word.reserve(start, len);
                        bit.reserve(start, len);
                        live.push(Run { start, len });
                    }
                }
            }
            prop_assert_eq!(word.used(), bit.used);
            prop_assert_eq!(word.free(), nblocks - bit.used);
        }
    }
}

/// Where a sector's last non-zero byte moves it to another slot class
/// of the store (2, 4, 8, 16, 32, 64, 128, 256 or 512 B), from both
/// sides.
const CLASS_EDGES: [usize; 17] = [
    1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255, 256, 511,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn sector_store_matches_the_per_sector_map(
        ops in proptest::collection::vec((0u8..8, 0u64..400, 1u32..50, any::<u8>(), any::<u64>()), 1..60)
    ) {
        // LBAs 0..450, seven 64-LBA leaves, ranges up to 49 sectors that
        // cross leaves: a store whose slots are freed and reused out of
        // LBA order, the small classes inside their first page as it
        // doubles, the whole-sector class over up to 28 pages. Above
        // them, one leaf per `slba` for runs (kind 7).
        let mut store = SectorStore::new();
        let mut oracle = SectorMap::default();
        for (kind, slba, nlb, fill, zeros) in ops {
            match kind {
                0..=2 => {
                    // Sector `j` is all zero where bit `j % 64` of
                    // `zeros` is set, and every sector is for kind 2: a
                    // hole stays one, a stored sector becomes one. The
                    // other sectors have zero bytes too, but not only.
                    let zeros = if kind == 2 { u64::MAX } else { zeros };
                    let data: Vec<u8> = (0..nlb as usize * SECTOR_SIZE)
                        .map(|i| {
                            let zero = zeros >> (i / SECTOR_SIZE % 64) & 1 == 1;
                            if zero { 0 } else { fill.wrapping_add((i / 7) as u8) }
                        })
                        .collect();
                    store.write(slba, &data);
                    oracle.write(slba, &data);
                }
                3 => {
                    store.discard(slba, nlb);
                    oracle.discard(slba, nlb);
                }
                4 => {
                    // Sector `j`'s last non-zero byte sits at a slot
                    // class boundary drawn from 5 bits of `zeros`, any
                    // of the 17; the sectors are then overwritten two
                    // boundaries up or down, which moves each one a
                    // class up or down.
                    let picks: Vec<usize> = (0..nlb as usize)
                        .map(|j| (zeros >> (j % 12 * 5) & 31) as usize % CLASS_EDGES.len())
                        .collect();
                    for moved in [false, true] {
                        let data: Vec<u8> = picks
                            .iter()
                            .enumerate()
                            .flat_map(|(j, &k)| {
                                let up = k < 2 || (k + 2 < CLASS_EDGES.len() && fill >> (j % 8) & 1 == 1);
                                let k = match (moved, up) {
                                    (false, _) => k,
                                    (true, true) => k + 2,
                                    (true, false) => k - 2,
                                };
                                let last = CLASS_EDGES[k];
                                (0..SECTOR_SIZE).map(move |i| match i {
                                    _ if i == last => fill | 1,
                                    _ if i < last => fill.wrapping_add((i / 7) as u8),
                                    _ => 0,
                                })
                            })
                            .collect();
                        store.write(slba, &data);
                        oracle.write(slba, &data);
                        prop_assert_eq!(store.read(slba, nlb), data);
                    }
                }
                5 => {
                    // Each sector of the aligned leaf holding `slba`,
                    // written singly in an order drawn from `zeros`,
                    // then zeroed in another: an empty leaf's array
                    // moves through every class up, then down to none.
                    // The leaf is read whole every eighth step.
                    let leaf = slba / 64 * 64;
                    let order = |bits: u64| {
                        let (step, start) = ((bits | 1) % 64, (bits >> 6) % 64);
                        (0..64).map(move |i| leaf + (step * i + start) % 64)
                    };
                    for (i, lba) in order(zeros).enumerate() {
                        let last = CLASS_EDGES[(lba as usize + fill as usize) % CLASS_EDGES.len()];
                        let mut sector = [0u8; SECTOR_SIZE];
                        sector[..=last].fill(fill.wrapping_add(lba as u8) | 1);
                        store.write(lba, &sector);
                        oracle.write(lba, &sector);
                        prop_assert_eq!(store.read(lba, 1), sector.to_vec());
                        if i % 8 == 7 {
                            prop_assert_eq!(store.read(leaf, 64), oracle.read(leaf, 64));
                        }
                    }
                    for (i, lba) in order(zeros >> 12).enumerate() {
                        store.write(lba, &[0u8; SECTOR_SIZE]);
                        oracle.write(lba, &[0u8; SECTOR_SIZE]);
                        if i % 8 == 7 {
                            prop_assert_eq!(store.read(leaf, 64), oracle.read(leaf, 64));
                        }
                    }
                }
                7 => {
                    // The leaf `512 + 64 * slba`, empty unless an earlier
                    // kind 7 drew the same `slba`, written as one
                    // ascending run: 64 sectors whose last non-zero byte
                    // is one class edge, drawn from `fill`. The run is
                    // then broken at its bottom, its top and a middle
                    // LBA drawn from `zeros` — each by zeroing, a class
                    // change (two edges up or down, as kind 4 does) or a
                    // discard, drawn from `zeros` — and the sector is
                    // written back. The leaf is read whole after each
                    // step.
                    let leaf = 512 + 64 * slba;
                    let edge = fill as usize % CLASS_EDGES.len();
                    let sector = |lba: u64, edge: usize| {
                        let mut sector = vec![0u8; SECTOR_SIZE];
                        sector[..=CLASS_EDGES[edge]].fill(fill.wrapping_add(lba as u8) | 1);
                        sector
                    };
                    let run: Vec<u8> = (leaf..leaf + 64).flat_map(|lba| sector(lba, edge)).collect();
                    store.write(leaf, &run);
                    oracle.write(leaf, &run);
                    prop_assert_eq!(store.read(leaf, 64), oracle.read(leaf, 64));
                    let middle = leaf + 1 + zeros % 62;
                    for (step, lba) in [leaf, leaf + 63, middle].into_iter().enumerate() {
                        match (zeros >> (8 + 2 * step) & 3) % 3 {
                            0 => {
                                store.write(lba, &[0u8; SECTOR_SIZE]);
                                oracle.write(lba, &[0u8; SECTOR_SIZE]);
                            }
                            1 => {
                                let up = edge < 2 || (edge + 2 < CLASS_EDGES.len() && fill >> step & 1 == 1);
                                let moved = sector(lba, if up { edge + 2 } else { edge - 2 });
                                store.write(lba, &moved);
                                oracle.write(lba, &moved);
                            }
                            _ => {
                                store.discard(lba, 1);
                                oracle.discard(lba, 1);
                            }
                        }
                        prop_assert_eq!(store.read(leaf, 64), oracle.read(leaf, 64), "broken at {}", lba);
                        store.write(lba, &sector(lba, edge));
                        oracle.write(lba, &sector(lba, edge));
                        prop_assert_eq!(store.read(leaf, 64), oracle.read(leaf, 64), "written back at {}", lba);
                    }
                }
                _ => {
                    // A partial write framed by the stored edges.
                    let head = fill as usize * 2;
                    let src = vec![fill | 1; (nlb as usize * 37).min(3 * SECTOR_SIZE)];
                    let mut want = oracle.read(slba, ((head + src.len()).div_ceil(SECTOR_SIZE)) as u32);
                    want[head..head + src.len()].copy_from_slice(&src);
                    prop_assert_eq!(store.read_modify(slba, head, &src), want);
                }
            }
            // Every op is followed by reads around and across it.
            let from = slba.saturating_sub(3);
            let want = oracle.read(from, nlb + 6);
            prop_assert_eq!(store.read(from, nlb + 6), want.clone());
            let mut out = vec![0xEEu8; want.len()];
            store.read_into(from, &mut out);
            prop_assert_eq!(out, want);
        }
    }
}

/// One step of the write-path differential.
#[derive(Debug, Clone)]
enum WriteOp {
    /// `blocks` blocks at the file's end, `skip` blocks further on when
    /// leaving a hole, through entry point `via`.
    Append {
        file: usize,
        blocks: u64,
        skip: u64,
        via: u8,
    },
    /// Somewhere inside (or straddling the end of) the file, byte-
    /// unaligned when `delta != 0`.
    Overwrite {
        file: usize,
        at: u64,
        blocks: u64,
        delta: u64,
        via: u8,
    },
    /// Two back-to-back multi-block appends reaching the file system in
    /// swapped order — concurrent writers' submissions (the benchmark's
    /// `plan_write_ooo` shape).
    Swapped {
        file: usize,
        blocks: u64,
    },
    Truncate {
        file: usize,
        blocks: u64,
    },
}

fn write_op_strategy() -> impl Strategy<Value = WriteOp> {
    prop_oneof![
        4 => (0usize..3, 1u64..24, 0u64..4, 0u8..3)
            .prop_map(|(file, blocks, skip, via)| WriteOp::Append { file, blocks, skip: skip.saturating_sub(2), via }),
        3 => (0usize..3, 0u64..60, 1u64..16, 0u64..3, 0u8..3)
            .prop_map(|(file, at, blocks, delta, via)| WriteOp::Overwrite { file, at, blocks, delta: delta * 100, via }),
        2 => (0usize..3, 2u64..12).prop_map(|(file, blocks)| WriteOp::Swapped { file, blocks }),
        1 => (0usize..3, 0u64..40).prop_map(|(file, blocks)| WriteOp::Truncate { file, blocks }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn run_granular_write_path_matches_block_at_a_time(
        two_groups in any::<bool>(),
        ops in proptest::collection::vec(write_op_strategy(), 1..40)
    ) {
        const BS: u64 = Lockstep::BS;
        let mut both = Lockstep::new(two_groups);
        both.check();
        for op in ops {
            match op {
                WriteOp::Append { file, blocks, skip, via } => {
                    let off = (both.end_block(file) + skip) * BS;
                    both.write_range(file, off, blocks * BS, via);
                }
                WriteOp::Overwrite { file, at, blocks, delta, via } => {
                    both.write_range(file, at * BS + delta, blocks * BS - delta, via);
                }
                WriteOp::Swapped { file, blocks } => {
                    let off = both.end_block(file) * BS;
                    both.write_range(file, off + blocks * BS, blocks * BS, 1);
                    both.write_range(file, off, blocks * BS, 1);
                }
                WriteOp::Truncate { file, blocks } => both.truncate(file, blocks * BS),
            }
            both.check();
        }
    }

    #[test]
    fn contiguous_append_logs_one_extent_and_one_size(
        appends in proptest::collection::vec(1u64..200, 1..12)
    ) {
        let mut fs = ExtFs::mkfs(1 << 14);
        let mut store = SectorStore::new();
        let ino = fs.create("log").expect("create");
        let mut end = 0u64;
        for blocks in appends {
            let before = fs.journal().len();
            let segments = fs.plan_write(ino, end * 512, (blocks * 512) as usize, &mut store).expect("room");
            fs.commit_journal();
            prop_assert_eq!(segments, vec![(end, blocks)]);
            let extent = Extent { logical: end, physical: end, len: blocks };
            end += blocks;
            let j = fs.journal();
            prop_assert_eq!(
                &j.committed_records()[before - j.base()..],
                &[
                    JournalRecord::MapExtent { ino, extent },
                    JournalRecord::SetSize { ino, size: end * 512 },
                ][..]
            );
            prop_assert_eq!(fs.extents_snapshot(ino).expect("extents").len(), 1);
        }
    }
}
