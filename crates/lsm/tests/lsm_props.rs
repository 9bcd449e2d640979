//! Property tests of the LSM tree against a plain map reference, across
//! flush and compaction boundaries.

use std::collections::HashMap;

use bpfstor_device::SectorStore;
use bpfstor_fs::ExtFs;
use bpfstor_lsm::{DirectIo, LsmConfig, LsmTree};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum LsmOp {
    Put(u64, u8),
    Delete(u64),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = LsmOp> {
    prop_oneof![
        8 => (0u64..200, 1u8..=255).prop_map(|(k, v)| LsmOp::Put(k, v)),
        2 => (0u64..200).prop_map(LsmOp::Delete),
        1 => Just(LsmOp::Flush),
    ]
}

fn value_bytes(tag: u8) -> Vec<u8> {
    vec![tag; 24]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn lsm_matches_hashmap_reference(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        let mut fs = ExtFs::mkfs(1 << 18);
        let mut store = SectorStore::new();
        let mut io = DirectIo::new(&mut fs, &mut store);
        // Small memtable so the sequence crosses many flush/compaction
        // boundaries.
        let mut lsm = LsmTree::new(LsmConfig {
            memtable_limit: 1024,
            level_trigger: 3,
        });
        let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();
        for op in &ops {
            match op {
                LsmOp::Put(k, tag) => {
                    lsm.put(&mut io, *k, value_bytes(*tag)).expect("put");
                    reference.insert(*k, value_bytes(*tag));
                }
                LsmOp::Delete(k) => {
                    lsm.delete(&mut io, *k).expect("delete");
                    reference.remove(k);
                }
                LsmOp::Flush => lsm.flush(&mut io).expect("flush"),
            }
        }
        // Every key agrees with the reference, present or absent.
        for k in 0u64..200 {
            prop_assert_eq!(
                lsm.get(&mut io, k).expect("get"),
                reference.get(&k).cloned(),
                "key {}", k
            );
        }
        // Structural invariants: live tables are extent-stable (no live
        // table ever had blocks unmapped) and space is not leaking
        // (dead tables were really unlinked).
        for level in lsm.levels() {
            for table in level {
                let (_, unmap_gen) = io.fs.generations(table.ino).expect("gens");
                prop_assert_eq!(unmap_gen, 0, "live table {} lost blocks", table.name);
            }
        }
        let live_files = io.fs.readdir().len();
        prop_assert_eq!(live_files, lsm.table_count(), "no orphaned table files");
    }
}
