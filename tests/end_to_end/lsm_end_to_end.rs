//! LSM end to end: flush/compaction through the rings, pushdown reads.

use super::*;
use bpfstor::core::{MachineLsmIo, Member, PushdownWorkload};
use bpfstor::kernel::{MachineConfig, DEFAULT_TENANT};
use bpfstor::lsm::{LsmConfig, LsmIo, LsmTree, TableHandle};

const VS: usize = 64;

fn value_for(key: u64) -> Vec<u8> {
    let mut v = vec![0u8; VS];
    v[..8].copy_from_slice(&key.wrapping_mul(0xBEEF17).to_le_bytes());
    v
}

/// Attaches a cold-get workload to a table the `LsmTree` flushed
/// onto `m`, the way a session attaches to the file it created. The
/// workload learns the table from the table itself — every entry
/// read back through the rings — and the image it builds from them
/// must be, byte for byte, what the flush put on disk.
fn attach_to_table(
    m: &mut Machine,
    table: &TableHandle,
    probes: Vec<u64>,
    mode: DispatchMode,
    retry_budget: u32,
) -> Member<Sst> {
    let mut io = MachineLsmIo::new(m);
    let entries = table.read_all(&mut io).expect("read back");
    assert!(entries.iter().all(|(k, v)| *v == value_for(*k)));
    let mut sst = Sst::new(entries, probes);
    let image = sst.build_image().expect("image");
    assert_eq!(
        io.read(table.ino, 0, image.len()).expect("read"),
        image,
        "the flushed table is the image the workload describes"
    );
    Member::attach(m, DEFAULT_TENANT, &table.name, sst, mode, retry_budget).expect("attach")
}

/// The cold-SSTable-get workload, truly end to end: inserts buffer
/// in the memtable, flushes write SSTables through the SQ/CQ rings
/// (journaled, fsync-barriered), compactions read and rewrite
/// tables through the same rings — and then pushdown reads run
/// against the freshly written tables in all three dispatch modes.
#[test]
fn inserts_flush_then_pushdown_reads_in_all_modes() {
    let mut m = machine(MachineConfig::default());
    let mut lsm = LsmTree::new(LsmConfig {
        memtable_limit: 8 * 1024,
        level_trigger: 3,
    });
    {
        let mut io = MachineLsmIo::new(&mut m);
        for key in 0..1_500u64 {
            lsm.put(&mut io, key * 2, value_for(key * 2)).expect("put");
        }
        lsm.flush(&mut io).expect("flush");
    }
    let st = m.device_stats();
    assert!(st.writes > 0, "flush images went through the rings");
    assert!(st.flushes > 0, "every table was fsync-barriered");
    assert!(st.write_doorbells > 0 && st.write_cqes > 0);
    assert!(lsm.stats().compactions > 0, "enough tables to compact");
    assert!(
        st.reads > 0,
        "table opens + compaction inputs were timed ring reads"
    );

    // Pick the biggest live table and probe it cold in every mode.
    let table = lsm
        .levels()
        .iter()
        .flatten()
        .max_by_key(|t| t.footer.nkeys)
        .expect("a live table");
    let (min_key, max_key) = (table.footer.min_key, table.footer.max_key);
    let keys: Vec<u64> = (0..60u64)
        .map(|i| min_key + (i * (max_key - min_key) / 60) / 2 * 2)
        .chain([max_key + 7])
        .collect();
    // Every even key of the table's range was inserted.
    let in_table = |k: &&u64| **k <= max_key && k.is_multiple_of(2);
    let hits = keys.iter().filter(in_table).count() as u64;
    for mode in DispatchMode::ALL {
        let mut d = attach_to_table(&mut m, table, keys.clone(), mode, 0);
        let report = m.run_closed_loop(1, SECOND, &mut d);
        let stats = d.stats();
        assert_eq!(stats.completed, keys.len() as u64, "{mode:?}");
        assert_eq!(
            stats.mismatches, 0,
            "{mode:?}: pushdown over a freshly flushed table agrees with the oracle"
        );
        assert_eq!(stats.errors, 0, "{mode:?}");
        assert_eq!(
            (stats.hits, stats.misses),
            (hits, keys.len() as u64 - hits),
            "{mode:?}"
        );
        assert!(hits > 0 && hits < keys.len() as u64);
        assert_eq!(report.errors, 0, "{mode:?}");
    }
}

/// Mid-run extent remap on a freshly written SSTable: the relocation
/// invalidates the NVMe-layer snapshot while driver-hook chains are
/// in flight; the adapter's rearm-and-retry policy (the kernel
/// reruns the snapshot ioctl and restarts the chain) absorbs it and
/// every lookup still completes correctly.
#[test]
fn mid_run_remap_of_fresh_sstable_exercises_rearm_retry() {
    let mut m = machine(MachineConfig::default());
    let mut lsm = LsmTree::new(LsmConfig {
        memtable_limit: 64 * 1024,
        level_trigger: 8,
    });
    {
        let mut io = MachineLsmIo::new(&mut m);
        for key in 0..800u64 {
            lsm.put(&mut io, key, value_for(key)).expect("put");
        }
        lsm.flush(&mut io).expect("flush");
    }
    let table = &lsm.levels()[0][0];
    let keys: Vec<u64> = (0..400u64).map(|i| (i * 13) % 800).collect();
    let mut d = attach_to_table(&mut m, table, keys.clone(), DispatchMode::DriverHook, 3);
    // Defragment the table's extents shortly into the run.
    m.schedule_relocation(m.now + 100_000, &table.name);
    let report = m.run_closed_loop(2, SECOND, &mut d);
    let stats = d.stats();
    assert_eq!(stats.completed, keys.len() as u64);
    assert_eq!(stats.hits, keys.len() as u64);
    assert_eq!(stats.mismatches, 0, "relocated blocks still decode right");
    assert_eq!(stats.errors, 0, "retry absorbed every invalidation");
    assert!(
        report.rearm_retries > 0,
        "the remap really hit in-flight chains"
    );
}
