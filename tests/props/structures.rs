// --- B-tree: BPF program equals the native oracle --------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn bpf_btree_step_matches_native(
        raw_keys in proptest::collection::btree_set(0u64..1_000_000, 1..(FANOUT_MAX + 1)),
        level in 0u8..4,
        probe in 0u64..1_100_000,
    ) {
        let keys: Vec<u64> = raw_keys.into_iter().collect();
        let slots: Vec<u64> = (0..keys.len() as u64).map(|i| i + 5).collect();
        let page = Node::new(level, keys, slots).encode();
        let native = step_on_page(&page, probe).expect("native");

        let prog = btree_lookup_program();
        let mut maps = MapSet::instantiate(&prog.maps).expect("maps");
        let mut env = RecordingEnv::default();
        let mut scratch = [0u8; 256];
        scratch[..8].copy_from_slice(&probe.to_le_bytes());
        let out = Vm::new()
            .run(
                &prog,
                RunCtx { data: &page, file_off: 0, hop: 0, flags: 0, scratch: &mut scratch },
                &mut maps,
                &mut env,
            )
            .expect("program never traps on valid pages");
        match native {
            Step::Next(off) => {
                prop_assert_eq!(out.ret, action::ACT_RESUBMIT);
                prop_assert_eq!(env.resubmits, vec![off]);
            }
            Step::Found(v) => {
                prop_assert_eq!(out.ret, action::ACT_EMIT);
                prop_assert_eq!(env.emitted, v.to_le_bytes().to_vec());
            }
            Step::Missing => prop_assert_eq!(out.ret, action::ACT_HALT),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn btree_lookup_matches_btreemap(
        raw_keys in proptest::collection::btree_set(0u64..100_000, 2..400),
        fanout in 2usize..16,
        probes in proptest::collection::vec(0u64..110_000, 20),
    ) {
        let keys: Vec<u64> = raw_keys.iter().copied().collect();
        let values: Vec<u64> = keys.iter().map(|k| value_of(*k)).collect();
        let reference: std::collections::BTreeMap<u64, u64> =
            keys.iter().copied().zip(values.iter().copied()).collect();
        let (mut pages, info) = build_pages(&keys, &values, fanout).expect("build");
        for probe in probes {
            let (got, reads) =
                lookup(&mut pages, info.root_block, info.depth, probe).expect("lookup");
            prop_assert_eq!(got, reference.get(&probe).copied());
            prop_assert_eq!(reads, info.depth);
        }
    }
}

// --- Extent tree invariants --------------------------------------------------------

proptest! {
    #[test]
    fn extent_tree_insert_remove_invariants(
        ops in proptest::collection::vec((0u64..256, 1u64..16, any::<bool>()), 1..60)
    ) {
        let mut tree = ExtentTree::new();
        let mut mapped = std::collections::BTreeMap::new(); // logical -> physical
        let mut next_phys = 10_000u64;
        for (lb, len, remove) in ops {
            if remove {
                let removed = tree.remove_range(lb, len);
                // What comes back is what the oracle drops, block for
                // block: same logical blocks, same physical addresses.
                let dropped: Vec<(u64, u64)> =
                    (lb..lb + len).filter_map(|b| Some((b, mapped.remove(&b)?))).collect();
                let returned: Vec<(u64, u64)> = removed
                    .iter()
                    .flat_map(|e| (0..e.len).map(move |i| (e.logical + i, e.physical + i)))
                    .collect();
                prop_assert_eq!(removed.iter().map(|e| e.len).sum::<u64>(), dropped.len() as u64);
                prop_assert!(removed.iter().all(|e| e.len > 0), "{:?}", removed);
                prop_assert_eq!(returned, dropped);
            } else {
                // Each unmapped run of the range goes in as one extent, so
                // removals split extents at both ends (the FS layer never
                // maps over a mapping; overlapping inserts panic by
                // design). An op at an odd `lb` leaves a physical gap
                // after each run, so runs that meet logically merge only
                // sometimes.
                let mut b = lb;
                while b < lb + len {
                    let run = (b..lb + len).take_while(|x| !mapped.contains_key(x)).count() as u64;
                    if run > 0 {
                        tree.insert(Extent { logical: b, physical: next_phys, len: run });
                        mapped.extend((0..run).map(|i| (b + i, next_phys + i)));
                        next_phys += run + lb % 2;
                    }
                    b += run.max(1);
                }
            }
            // The tree stays sorted, with no overlaps and no empty extents.
            let snap = tree.snapshot();
            prop_assert!(snap.iter().all(|e| e.len > 0), "{:?}", snap);
            prop_assert!(snap.windows(2).all(|w| w[0].logical_end() <= w[1].logical), "{:?}", snap);
            // The tree agrees with the reference on every mapped block.
            prop_assert_eq!(tree.mapped_blocks(), mapped.len() as u64);
            for (b, p) in &mapped {
                let got = tree.lookup(*b).map(|(phys, _)| phys);
                prop_assert_eq!(got, Some(*p));
            }
        }
    }
}

// --- SSTable roundtrip ------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn sstable_roundtrip(
        raw in proptest::collection::btree_map(0u64..1_000_000, proptest::collection::vec(any::<u8>(), 1..120), 1..300)
    ) {
        let entries: Vec<(u64, Vec<u8>)> = raw.into_iter().collect();
        let image = build_image(&entries).expect("build");
        prop_assert_eq!(image.len() % BLOCK, 0);
        let footer = Footer::decode(&image[image.len() - BLOCK..]).expect("footer");
        prop_assert_eq!(footer.nkeys, entries.len() as u64);
        // Reassemble every entry from the data blocks, in order.
        let mut all = Vec::new();
        for b in 0..footer.data_blocks as usize {
            all.extend(data_block_entries(&image[b * BLOCK..(b + 1) * BLOCK]).expect("block"));
        }
        prop_assert_eq!(all, entries);
    }
}

// --- SSTable cold get: BPF chain equals the native stepper ---------------------------------

/// Follows one cold get over `image`, footer first: the offsets read,
/// and the value if the key is present. `hop` is handed each block with
/// its hop number and offset, and says what the walker under test does
/// next.
fn walk_cold_get(
    image: &[u8],
    mut hop: impl FnMut(u32, u64, &[u8]) -> ColdStep,
) -> (Vec<u64>, Option<Vec<u8>>) {
    let mut visited = vec![(image.len() - BLOCK) as u64];
    loop {
        let off = *visited.last().expect("starts at the footer");
        let block = &image[off as usize..off as usize + BLOCK];
        match hop(visited.len() as u32 - 1, off, block) {
            ColdStep::Read(next) => visited.push(next),
            ColdStep::Done(found) => return (visited, found.map(|v| v.to_vec())),
        }
        assert!(visited.len() <= image.len() / BLOCK, "runaway chain");
    }
}

/// One hop of the get as the kernel runs it: `prog` on the interpreter
/// over one block, the scratch area carried between hops.
fn bpf_hop(
    prog: &Program,
    scratch: &mut [u8; SCRATCH_SIZE],
    hop: u32,
    off: u64,
    data: &[u8],
) -> ColdStep {
    let mut maps = MapSet::instantiate(&prog.maps).expect("maps");
    let mut env = RecordingEnv::default();
    let ctx = RunCtx {
        data,
        file_off: off,
        hop,
        flags: 0,
        scratch,
    };
    let out = Vm::new()
        .run(prog, ctx, &mut maps, &mut env)
        .expect("never traps on a well-formed table");
    match out.ret {
        action::ACT_RESUBMIT => ColdStep::Read(env.resubmits[0]),
        action::ACT_EMIT => ColdStep::Done(Some(
            Value::try_from(&env.emitted[..]).expect("the program emits one table value"),
        )),
        action::ACT_HALT => ColdStep::Done(None),
        other => panic!("hop {hop} at {off}: action {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Hop for hop, on tables of one to ~29 index blocks: present keys,
    /// keys absent between two present ones, keys outside the table's
    /// range, and both sides of every index-block boundary — the keys
    /// the candidate carried across index blocks decides.
    #[test]
    fn bpf_sst_get_matches_native(
        n in 1u64..=1_200,
        value_size in 1usize..=255,
        base in 0u64..1_000,
        stride in 1u64..5,
        draws in proptest::collection::vec(any::<u64>(), 16),
    ) {
        let entries: Vec<(u64, Vec<u8>)> = (0..n)
            .map(|i| (base + i * stride, vec![(i % 251) as u8 + 1; value_size]))
            .collect();
        let image = build_image(&entries).expect("build");
        let footer = Footer::decode(&image[image.len() - BLOCK..]).expect("footer");
        let prog = sst_get_program(value_size as u32);

        // Entries one index block covers: 42 twelve-byte index entries,
        // each a data block of as many entries as fit.
        let per_index_block = (BLOCK - 2) / 12 * ((BLOCK - 2) / (10 + value_size));
        prop_assert_eq!(footer.index_blocks as usize, entries.len().div_ceil(per_index_block));
        let boundaries = (per_index_block..entries.len())
            .step_by(per_index_block)
            .flat_map(|first| [entries[first - 1].0, entries[first].0]);
        let past_the_end = base + n * stride + 50;
        let probes: Vec<u64> = draws
            .iter()
            .map(|d| d % past_the_end)
            .chain(boundaries)
            .chain([base, base + (n - 1) * stride, past_the_end])
            .collect();
        for key in probes {
            let mut stage = ColdGet::Footer;
            let native = walk_cold_get(&image, |_, _, block| stage.step(key, block));
            let expected = entries
                .binary_search_by_key(&key, |(k, _)| *k)
                .ok()
                .map(|i| entries[i].1.clone());
            prop_assert_eq!(&native.1, &expected, "native result, key {}", key);
            let mut scratch = [0u8; SCRATCH_SIZE];
            scratch[..8].copy_from_slice(&key.to_le_bytes());
            let bpf = walk_cold_get(&image, |hop, off, block| {
                bpf_hop(&prog, &mut scratch, hop, off, block)
            });
            prop_assert_eq!(bpf, native, "key {}", key);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Whatever a block holds — and however short it is — every stage of
    /// the cold get and every checked search returns; none panics. The
    /// shapes steer random bytes past the first check: a plausible
    /// entry count, or a footer's magic.
    #[test]
    fn sst_readers_never_panic_on_arbitrary_blocks(
        mut block in proptest::collection::vec(any::<u8>(), 0..=BLOCK),
        shape in 0u8..3,
        count in 0u16..64,
        key in any::<u64>(),
        remaining in 0u32..4,
        candidate in 0u64..3,
    ) {
        match shape {
            1 if block.len() >= 2 => block[..2].copy_from_slice(&count.to_le_bytes()),
            2 if block.len() >= 4 => block[..4].copy_from_slice(&SST_MAGIC.to_le_bytes()),
            _ => {}
        }
        let index = ColdGet::Index {
            remaining,
            cursor: BLOCK as u64,
            candidate: candidate.checked_sub(1).map(|b| b * BLOCK as u64),
        };
        for mut stage in [ColdGet::Footer, index, ColdGet::Data] {
            if let ColdStep::Read(next) = stage.step(key, &block) {
                prop_assert_eq!(next % BLOCK as u64, 0);
                prop_assert_ne!(stage, ColdGet::Footer);
            }
        }
        let found = data_block_search(&block, key);
        prop_assert_eq!(ColdGet::Data.step(key, &block), ColdStep::Done(found.ok().flatten()));
        if let Ok(entries) = data_block_entries(&block) {
            prop_assert!(entries.len() <= block.len() / 10);
        }
        let _ = index_block_search(&block, key);
    }
}

// --- NVMe ring vs a capped VecDeque ---------------------------------------------------------

/// Depths either side of the ring's first 64 slots, shallow and deep.
const RING_SIZES: [usize; 8] = [2, 3, 4, 63, 64, 65, 100, 4096];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// The ring against a `VecDeque` capped at `size - 1`, over bursts of
    /// pushes and pops that fill it, so that its slot array doubles
    /// while the queued entries wrap round the array's end. First come
    /// `lead` empty trips round the ring — or, with `wrap`, so many that
    /// the 16-bit head and tail counters wrap during the bursts, the
    /// tail below the head while the array regrows.
    #[test]
    fn ring_matches_a_capped_vecdeque(
        size in 0usize..RING_SIZES.len(),
        lead in 0u32..200,
        wrap in any::<bool>(),
        bursts in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..16),
    ) {
        let size = RING_SIZES[size];
        let mut ring = Ring::new(size);
        let mut oracle = std::collections::VecDeque::new();
        for i in 0..if wrap { (1 << 16) - lead } else { lead } {
            ring.push(i).expect("empty");
            prop_assert_eq!(ring.pop(), Some(i));
        }
        let mut next = 0u32;
        for (pushes, pops) in bursts {
            // Up to one past the capacity: the last pushes are refused.
            for _ in 0..usize::from(pushes) % (size + 2) {
                let admitted = oracle.len() < size - 1;
                prop_assert_eq!(ring.is_full(), !admitted);
                if admitted {
                    prop_assert_eq!(ring.push(next), Ok(()));
                    oracle.push_back(next);
                } else {
                    prop_assert_eq!(ring.push(next), Err(next));
                }
                prop_assert_eq!(ring.len(), oracle.len());
                next += 1;
            }
            for _ in 0..usize::from(pops) % (size + 2) {
                prop_assert_eq!(ring.pop(), oracle.pop_front());
                prop_assert_eq!((ring.len(), ring.is_empty()), (oracle.len(), oracle.is_empty()));
            }
        }
        prop_assert_eq!(ring.capacity(), size - 1);
        while let Some(v) = oracle.pop_front() {
            prop_assert_eq!(ring.pop(), Some(v));
        }
        prop_assert_eq!(ring.pop(), None);
    }
}

// --- Histogram quantiles vs exact reference -----------------------------------------------

/// Values anywhere in `0..=u64::MAX`, each octave about as likely as
/// the next, always with 0, a value under 16 and `u64::MAX` among them.
fn any_octave_values() -> impl Strategy<Value = Vec<u64>> {
    let value = prop_oneof![
        0u64..16,
        (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift),
    ];
    proptest::collection::vec(value, 100..2_000).prop_map(|mut values| {
        values.extend([0, 7, u64::MAX]);
        values
    })
}

proptest! {
    #[test]
    fn histogram_quantiles_are_accurate(
        mut values in prop_oneof![
            proptest::collection::vec(1u64..10_000_000, 100..2_000),
            any_octave_values(),
        ],
        split in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let mut h = Histogram::new();
        for v in &values {
            h.record(*v);
        }
        // The same values in two shuffled parts, merged: the same
        // histogram, layout included, and every statistic equal to the
        // fixed 1024-bucket table's.
        let mut shuffled = values.clone();
        let mut rng = SimRng::seed(seed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.index(i + 1));
        }
        let (left, right) = shuffled.split_at(split % (shuffled.len() + 1));
        let (mut merged, mut part) = (Histogram::new(), Histogram::new());
        left.iter().for_each(|&v| merged.record(v));
        right.iter().for_each(|&v| part.record(v));
        merged.merge(&part);
        prop_assert_eq!(&merged, &h);
        let table = oracles::TableHistogram::of(&values);
        prop_assert_eq!(
            (h.count(), h.mean(), h.min(), h.max()),
            (table.count(), table.mean(), table.min(), table.max())
        );
        for q in [0.0f64, 0.1, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(h.quantile(q), table.quantile(q), "q={}", q);
        }
        values.sort_unstable();
        for q in [0.1f64, 0.5, 0.9, 0.99] {
            // Sound property for arbitrary data: the estimate must fall
            // between nearby exact order statistics (rank tolerance ±2,
            // covering ceil/floor conventions), expanded by the ~6.5%
            // worst-case log-bucket width.
            let n = values.len();
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let lo_exact = values[rank.saturating_sub(3)] as f64;
            let hi_exact = values[(rank + 1).min(n - 1)] as f64;
            let approx = h.quantile(q) as f64;
            prop_assert!(
                approx >= lo_exact / 1.07 && approx <= hi_exact * 1.07,
                "q={q} approx={approx} window=[{lo_exact}, {hi_exact}]"
            );
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), values[0]);
        prop_assert_eq!(h.max(), values[values.len() - 1]);
    }
}
