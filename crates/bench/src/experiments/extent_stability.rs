//! §4: how often a database's on-disk extents change — the TokuDB-like
//! append model (`extent_stability`) and a real LSM beside it
//! (`lsm_stability`).

use bpfstor_device::{SectorStore, SECTOR_SIZE};
use bpfstor_fs::{ExtFs, ExtentEvent};
use bpfstor_lsm::{DirectIo, LsmConfig, LsmTree};
use bpfstor_workload::{KeyDist, Op, OpMix, YcsbGen};

use super::Scale;
use crate::claims::claim;
use crate::report::Table;

/// §4's TokuDB/YCSB measurement: how often do index-file extents change
/// under a write-heavy workload, and how many changes unmap blocks?
///
/// Model (documented in EXPERIMENTS.md): a TokuDB-like batch B-tree
/// checkpoints dirty nodes in ~4 MiB appends; in-place node updates
/// never touch extents; a background GC reclaims an old region a few
/// times a day. Rates follow the paper's YCSB setup (40r/40u/20i,
/// Zipfian 0.7) at a MariaDB-plausible operation rate. The full-scale
/// horizon is the paper's; the quick one is a single GC period, the
/// shortest that can see an unmapping change at all. Row labels and the
/// `paper` column are the ledger's; measures: the three rows it has.
pub fn extent_stability(scale: Scale) -> Table {
    let insert_rate: f64 = 250.0; // inserts/s (20% of 1250 ops/s)
    let row_bytes: f64 = 100.0;
    let batch_bytes: f64 = (4u64 << 20) as f64;
    let gc_interval_s: f64 = 17_280.0; // a fifth of a day
    let blocks = 1u64 << 23; // 4 GiB address space (a day of appends fits)
    let paper_hours = claim("extent_stability", "hours").paper.number();
    let horizon = scale.pick(gc_interval_s, paper_hours.expect("on file") * 3600.0);
    let hours = horizon / 3600.0;

    let mut fs = ExtFs::mkfs(blocks);
    let mut store = SectorStore::new();
    let ino = fs.create("index.tokudb").expect("create");
    // Initial 32 MiB index.
    fs.fallocate(ino, 0, (32 << 20) / SECTOR_SIZE as u64, &mut store)
        .expect("fallocate");
    fs.drain_events();

    let append_interval = batch_bytes / (insert_rate * row_bytes);
    let mut events: Vec<(f64, bool)> = Vec::new(); // (time, unmapping?)
    let mut t_next_append = append_interval;
    let mut t_next_gc = gc_interval_s;
    let mut appended_blocks = (32u64 << 20) / SECTOR_SIZE as u64;
    while t_next_append <= horizon || t_next_gc <= horizon {
        if t_next_append <= t_next_gc {
            if t_next_append > horizon {
                break;
            }
            let nblocks = (batch_bytes / SECTOR_SIZE as f64) as u64;
            fs.fallocate(ino, appended_blocks, nblocks, &mut store)
                .expect("append");
            appended_blocks += nblocks;
            for ev in fs.drain_events() {
                events.push((t_next_append, matches!(ev, ExtentEvent::Unmapped { .. })));
            }
            t_next_append += append_interval;
        } else {
            if t_next_gc > horizon {
                break;
            }
            // GC: rewrite the most recent ~4 MiB region (checkpoint
            // cleanup) — truncate it away, then re-append it elsewhere.
            // This is the rare unmap+remap pattern the paper observed a
            // handful of times per day.
            let nblocks = (batch_bytes / SECTOR_SIZE as f64) as u64;
            let size = fs.file_size(ino).expect("size");
            fs.truncate(ino, size - batch_bytes as u64, &mut store)
                .expect("gc trunc");
            appended_blocks -= nblocks;
            fs.fallocate(ino, appended_blocks, nblocks, &mut store)
                .expect("gc rewrite");
            appended_blocks += nblocks;
            for ev in fs.drain_events() {
                events.push((t_next_gc, matches!(ev, ExtentEvent::Unmapped { .. })));
            }
            t_next_gc += gc_interval_s;
        }
    }

    // Collapse events at the same instant into one "extent change".
    let mut change_times: Vec<f64> = Vec::new();
    let mut unmap_times: Vec<f64> = Vec::new();
    for (t, unmap) in &events {
        if change_times
            .last()
            .map(|l| (l - t).abs() > 1e-9)
            .unwrap_or(true)
        {
            change_times.push(*t);
        }
        if *unmap
            && unmap_times
                .last()
                .map(|l| (l - t).abs() > 1e-9)
                .unwrap_or(true)
        {
            unmap_times.push(*t);
        }
    }
    let mean_interval = if change_times.len() > 1 {
        (change_times.last().expect("nonempty") - change_times[0]) / (change_times.len() - 1) as f64
    } else {
        horizon
    };
    let unmaps_24h = unmap_times.len() as f64 * (24.0 / hours);

    let mut t = Table::new(
        "§4 extent stability — TokuDB-like index under YCSB 40r/40u/20i, Zipfian 0.7",
        &["metric", "measured", "paper"],
    );
    for (id, value, cell) in [
        ("hours", hours, format!("{hours:.1}")),
        (
            "mean_change_interval_s",
            mean_interval,
            format!("{mean_interval:.0}"),
        ),
        ("unmaps_per_24h", unmaps_24h, format!("{unmaps_24h:.0}")),
    ] {
        let paper = claim("extent_stability", id);
        t.row(vec![paper.what.to_string(), cell, paper.paper.to_string()]);
        t.measure(id, value);
    }
    t.row(vec![
        "total extent changes".to_string(),
        change_times.len().to_string(),
        "-".to_string(),
    ]);
    t.note("in-place node updates never change extents; appends map new blocks without unmapping");
    t
}

/// Companion to the §4 claim: real LSM under the same YCSB mix — live
/// SSTables are never remapped during their lifetime; unmaps happen only
/// when compaction deletes whole files. Measure: the live tables whose
/// extents changed after creation.
pub fn lsm_stability(scale: Scale) -> Table {
    let ops = if scale.quick { 60_000u64 } else { 600_000 };
    let rate = 2_000.0; // ops/s, for time extrapolation
    let mut fs = ExtFs::mkfs(1 << 22);
    let mut store = SectorStore::new();
    let mut io = DirectIo::new(&mut fs, &mut store);
    let mut lsm = LsmTree::new(LsmConfig::default());
    let mut gen = YcsbGen::new(
        OpMix::paper_tokudb(),
        KeyDist::zipfian(10_000, 0.7),
        10_000,
        0x2C5B,
    );
    let value = |k: u64| -> Vec<u8> {
        let mut v = vec![0u8; 64];
        v[..8].copy_from_slice(&k.to_le_bytes());
        v
    };
    for _ in 0..ops {
        match gen.next_op() {
            Op::Read(k) => {
                let _ = lsm.get(&mut io, k).expect("get");
            }
            Op::Update(k) | Op::Insert(k) => {
                lsm.put(&mut io, k, value(k)).expect("put");
            }
            Op::Scan { .. } => {}
        }
    }
    let stats = lsm.stats();
    let fstats = fs.stats();
    let hours = ops as f64 / rate / 3_600.0;
    let mut t = Table::new(
        "§4 companion — LSM SSTable lifecycle under YCSB 40r/40u/20i",
        &["metric", "value"],
    );
    t.row(vec!["operations".to_string(), ops.to_string()]);
    t.row(vec![
        "simulated hours (@2k ops/s)".to_string(),
        format!("{hours:.2}"),
    ]);
    t.row(vec![
        "memtable flushes".to_string(),
        stats.flushes.to_string(),
    ]);
    t.row(vec![
        "compactions".to_string(),
        stats.compactions.to_string(),
    ]);
    t.row(vec![
        "tables written".to_string(),
        stats.tables_written.to_string(),
    ]);
    t.row(vec![
        "tables deleted".to_string(),
        stats.tables_deleted.to_string(),
    ]);
    t.row(vec![
        "fs unmap changes".to_string(),
        fstats.unmap_changes.to_string(),
    ]);
    t.row(vec![
        "live tables".to_string(),
        lsm.table_count().to_string(),
    ]);
    // The §4 invariant: live tables' extents never changed post-creation
    // (creation writes bump the generation; nothing may unmap afterwards).
    let unmapped = |ino| fs.generations(ino).expect("gens").1 != 0;
    let live = lsm.levels().iter().flatten();
    let unstable = live.filter(|table| unmapped(table.ino)).count();
    t.row(vec![
        "live tables extent-stable".to_string(),
        if unstable == 0 { "yes" } else { "NO" }.to_string(),
    ]);
    t.measure("live_tables_remapped", unstable as f64);
    t.note("every unmap comes from deleting a whole dead table, never from a live one");
    t
}
