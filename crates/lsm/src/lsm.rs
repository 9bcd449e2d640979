//! The LSM tree: memtable, levelled SSTables, size-tiered compaction.
//!
//! This is the write-path workload of the paper's §4 extent-stability
//! argument: all file mutation is *create whole file / delete whole
//! file* (flushes and compactions), never in-place rewrites, so the
//! extents of any live SSTable are immutable for its whole lifetime.
//! The extent-stability benchmark drives YCSB through this tree and
//! counts how often the file system fires unmap events.
//!
//! Deletion is modelled with tombstones (empty values are reserved for
//! them). Compaction merges all tables of an overfull level into the
//! next level; tombstones are dropped once they reach the deepest
//! populated level.

use std::collections::BTreeMap;

use bpfstor_fs::FsError;

use crate::bloom::Bloom;
use crate::io::LsmIo;
use crate::sstable::{
    build_image, data_block_entries, data_block_search, index_entries, Footer, SstError, Value,
    BLOCK,
};

/// Tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct LsmConfig {
    /// Flush the memtable once it holds this many bytes.
    pub memtable_limit: usize,
    /// Compact a level once it holds this many tables.
    pub level_trigger: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_limit: 64 * 1024,
            level_trigger: 4,
        }
    }
}

/// Errors from LSM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsmError {
    /// File-system failure.
    Fs(FsError),
    /// SSTable format failure.
    Sst(SstError),
    /// Backend I/O failure (e.g. a failed chain on the simulated
    /// kernel's ring-routed write path).
    Backend(String),
    /// Empty values are reserved for tombstones.
    EmptyValue,
}

impl From<FsError> for LsmError {
    fn from(e: FsError) -> Self {
        LsmError::Fs(e)
    }
}

impl From<SstError> for LsmError {
    fn from(e: SstError) -> Self {
        LsmError::Sst(e)
    }
}

impl std::fmt::Display for LsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LsmError::Fs(e) => write!(f, "fs: {e}"),
            LsmError::Sst(e) => write!(f, "sstable: {e}"),
            LsmError::Backend(e) => write!(f, "backend: {e}"),
            LsmError::EmptyValue => write!(f, "empty values are reserved for tombstones"),
        }
    }
}

impl std::error::Error for LsmError {}

/// An open SSTable with its footer, index, and bloom filter cached in
/// memory (the warm path applications normally run).
#[derive(Debug)]
pub struct TableHandle {
    /// File name in the FS directory.
    pub name: String,
    /// Backing inode.
    pub ino: u64,
    /// Parsed footer.
    pub footer: Footer,
    index: Vec<(u64, u32)>,
    bloom: Bloom,
}

impl TableHandle {
    /// Opens a table by name, loading footer + index + bloom: the
    /// reads go wherever the backend routes them (the machine backend
    /// pays real ring round-trips for each).
    ///
    /// # Errors
    ///
    /// Fails if the file is missing or malformed.
    pub fn open(io: &mut dyn LsmIo, name: &str) -> Result<Self, LsmError> {
        let ino = io.open(name)?;
        let size = io.file_size(ino)?;
        let nblocks = size / BLOCK as u64;
        if nblocks == 0 {
            return Err(LsmError::Sst(SstError::BadFooter));
        }
        let footer_bytes = io.read(ino, (nblocks - 1) * BLOCK as u64, BLOCK)?;
        let footer = Footer::decode(&footer_bytes)?;
        if footer.total_blocks() > nblocks {
            return Err(SstError::Corrupt("table shorter than its footer claims").into());
        }
        // Index blocks.
        let mut index = Vec::new();
        for ib in 0..footer.index_blocks {
            let off = (footer.data_blocks as u64 + ib as u64) * BLOCK as u64;
            index.extend(index_entries(&io.read(ino, off, BLOCK)?)?);
        }
        // Bloom blocks.
        let mut bloom_bytes = Vec::new();
        for bb in 0..footer.bloom_blocks {
            let off =
                (footer.data_blocks as u64 + footer.index_blocks as u64 + bb as u64) * BLOCK as u64;
            bloom_bytes.extend(io.read(ino, off, BLOCK)?);
        }
        let bloom = footer.bloom(&bloom_bytes)?;
        Ok(TableHandle {
            name: name.to_string(),
            ino,
            footer,
            index,
            bloom,
        })
    }

    /// Cheap negative check: key range plus bloom filter.
    pub fn may_contain(&self, key: u64) -> bool {
        key >= self.footer.min_key && key <= self.footer.max_key && self.bloom.may_contain(key)
    }

    /// Warm lookup: one data-block read using the cached index.
    ///
    /// Returns `None` when absent; `Some(empty)` is a tombstone.
    ///
    /// # Errors
    ///
    /// Propagates backend/format failures.
    pub fn get(&self, io: &mut dyn LsmIo, key: u64) -> Result<Option<Value>, LsmError> {
        if !self.may_contain(key) {
            return Ok(None);
        }
        let idx = self.index.partition_point(|(first, _)| *first <= key);
        if idx == 0 {
            return Ok(None);
        }
        let data_block = self.index[idx - 1].1;
        let block = io.read(self.ino, data_block as u64 * BLOCK as u64, BLOCK)?;
        Ok(data_block_search(&block, key)?)
    }

    /// Reads every entry (compaction input).
    ///
    /// # Errors
    ///
    /// Propagates backend/format failures.
    pub fn read_all(&self, io: &mut dyn LsmIo) -> Result<Vec<(u64, Vec<u8>)>, LsmError> {
        let mut out = Vec::new();
        for db in 0..self.footer.data_blocks {
            let block = io.read(self.ino, db as u64 * BLOCK as u64, BLOCK)?;
            out.extend(data_block_entries(&block)?);
        }
        Ok(out)
    }

    /// Total file blocks (footer included) — where a cold lookup starts.
    pub fn file_blocks(&self) -> u64 {
        self.footer.total_blocks()
    }
}

/// Activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsmStats {
    /// Memtable flushes (tables written to level 0).
    pub flushes: u64,
    /// Compactions executed.
    pub compactions: u64,
    /// SSTables created.
    pub tables_written: u64,
    /// SSTables deleted.
    pub tables_deleted: u64,
    /// Point lookups served.
    pub gets: u64,
    /// Writes accepted.
    pub puts: u64,
}

/// The LSM tree.
pub struct LsmTree {
    cfg: LsmConfig,
    memtable: BTreeMap<u64, Vec<u8>>, // empty vec = tombstone
    mem_bytes: usize,
    levels: Vec<Vec<TableHandle>>, // levels[l], newest table first
    seq: u64,
    stats: LsmStats,
}

impl LsmTree {
    /// Creates an empty tree.
    pub fn new(cfg: LsmConfig) -> Self {
        LsmTree {
            cfg,
            memtable: BTreeMap::new(),
            mem_bytes: 0,
            levels: Vec::new(),
            seq: 0,
            stats: LsmStats::default(),
        }
    }

    /// Inserts a key/value pair; a full memtable flushes (and possibly
    /// compacts) through the same backend.
    ///
    /// # Errors
    ///
    /// Rejects empty values ([`LsmError::EmptyValue`]); propagates
    /// backend failures.
    pub fn put(&mut self, io: &mut dyn LsmIo, key: u64, value: Vec<u8>) -> Result<(), LsmError> {
        if value.is_empty() {
            return Err(LsmError::EmptyValue);
        }
        self.stats.puts += 1;
        self.mem_bytes += 8 + value.len();
        self.memtable.insert(key, value);
        if self.mem_bytes >= self.cfg.memtable_limit {
            self.flush(io)?;
        }
        Ok(())
    }

    /// Deletes a key (tombstone insert).
    ///
    /// # Errors
    ///
    /// Propagates backend failures on flush.
    pub fn delete(&mut self, io: &mut dyn LsmIo, key: u64) -> Result<(), LsmError> {
        self.mem_bytes += 8;
        self.memtable.insert(key, Vec::new());
        if self.mem_bytes >= self.cfg.memtable_limit {
            self.flush(io)?;
        }
        Ok(())
    }

    /// Point lookup: memtable, then levels newest-first. The value is
    /// owned: the memtable's are not held to [`MAX_VALUE`](crate::MAX_VALUE)
    /// until they are flushed.
    ///
    /// # Errors
    ///
    /// Propagates backend/format failures.
    pub fn get(&mut self, io: &mut dyn LsmIo, key: u64) -> Result<Option<Vec<u8>>, LsmError> {
        self.stats.gets += 1;
        if let Some(v) = self.memtable.get(&key) {
            return Ok(if v.is_empty() { None } else { Some(v.clone()) });
        }
        for level in &self.levels {
            for table in level {
                if let Some(v) = table.get(io, key)? {
                    return Ok(if v.is_empty() { None } else { Some(v.to_vec()) });
                }
            }
        }
        Ok(None)
    }

    /// Flushes the memtable into a new level-0 table: on the machine
    /// backend the table image rides
    /// the SQ/CQ rings as journaled writes and is made durable by the
    /// backend's sync (fsync barrier) before the table goes live.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn flush(&mut self, io: &mut dyn LsmIo) -> Result<(), LsmError> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let entries: Vec<(u64, Vec<u8>)> = std::mem::take(&mut self.memtable).into_iter().collect();
        self.mem_bytes = 0;
        let name = self.write_table(io, &entries)?;
        let handle = TableHandle::open(io, &name)?;
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].insert(0, handle);
        self.stats.flushes += 1;
        self.compact_if_needed(io)?;
        Ok(())
    }

    fn write_table(
        &mut self,
        io: &mut dyn LsmIo,
        entries: &[(u64, Vec<u8>)],
    ) -> Result<String, LsmError> {
        let name = format!("sst-{:06}.sst", self.seq);
        self.seq += 1;
        let image = build_image(entries)?;
        let ino = io.create(&name)?;
        io.write(ino, 0, &image)?;
        // Durability point: the table must survive a crash before it can
        // shadow (or replace) older data.
        io.sync(ino)?;
        self.stats.tables_written += 1;
        Ok(name)
    }

    fn compact_if_needed(&mut self, io: &mut dyn LsmIo) -> Result<(), LsmError> {
        let mut level = 0;
        while level < self.levels.len() {
            if self.levels[level].len() >= self.cfg.level_trigger {
                self.compact_level(io, level)?;
            }
            level += 1;
        }
        Ok(())
    }

    fn compact_level(&mut self, io: &mut dyn LsmIo, level: usize) -> Result<(), LsmError> {
        self.stats.compactions += 1;
        let tables = std::mem::take(&mut self.levels[level]);
        // Merge newest-wins: iterate oldest table first so newer entries
        // overwrite.
        let mut merged: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for table in tables.iter().rev() {
            for (k, v) in table.read_all(io)? {
                merged.insert(k, v);
            }
        }
        // Tombstones can be dropped iff nothing deeper exists.
        let deepest = self.levels[level + 1..].iter().all(|l| l.is_empty());
        let entries: Vec<(u64, Vec<u8>)> = merged
            .into_iter()
            .filter(|(_, v)| !(deepest && v.is_empty()))
            .collect();
        // Delete inputs first (fires unmap events — the §4 signal).
        for t in tables {
            io.unlink(&t.name)?;
            self.stats.tables_deleted += 1;
        }
        if entries.is_empty() {
            return Ok(());
        }
        let name = self.write_table(io, &entries)?;
        let handle = TableHandle::open(io, &name)?;
        if self.levels.len() <= level + 1 {
            self.levels.push(Vec::new());
        }
        self.levels[level + 1].insert(0, handle);
        Ok(())
    }

    /// Live tables per level, newest first.
    pub fn levels(&self) -> &[Vec<TableHandle>] {
        &self.levels
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LsmStats {
        self.stats
    }

    /// Total live SSTables.
    pub fn table_count(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use bpfstor_device::SectorStore;
    use bpfstor_fs::ExtFs;

    use super::*;
    use crate::io::DirectIo;

    fn setup() -> (ExtFs, SectorStore, LsmTree) {
        (
            ExtFs::mkfs(1 << 20),
            SectorStore::new(),
            LsmTree::new(LsmConfig {
                memtable_limit: 2 * 1024,
                level_trigger: 3,
            }),
        )
    }

    fn val(i: u64) -> Vec<u8> {
        format!("value-{i:08}").into_bytes()
    }

    #[test]
    fn memtable_roundtrip_without_flush() {
        let (mut fs, mut store, mut lsm) = setup();
        let mut io = DirectIo::new(&mut fs, &mut store);
        lsm.put(&mut io, 1, val(1)).expect("put");
        assert_eq!(lsm.get(&mut io, 1).expect("get"), Some(val(1)));
        assert_eq!(lsm.get(&mut io, 2).expect("get"), None);
        assert_eq!(lsm.stats().flushes, 0);
    }

    #[test]
    fn flush_then_get_from_sstable() {
        let (mut fs, mut store, mut lsm) = setup();
        let mut io = DirectIo::new(&mut fs, &mut store);
        for i in 0..50u64 {
            lsm.put(&mut io, i, val(i)).expect("put");
        }
        lsm.flush(&mut io).expect("flush");
        assert_eq!(lsm.mem_bytes, 0);
        assert!(lsm.table_count() >= 1);
        for i in 0..50u64 {
            assert_eq!(lsm.get(&mut io, i).expect("get"), Some(val(i)), "key {i}");
        }
    }

    #[test]
    fn newest_version_wins_across_tables() {
        let (mut fs, mut store, mut lsm) = setup();
        let mut io = DirectIo::new(&mut fs, &mut store);
        lsm.put(&mut io, 7, b"old".to_vec()).expect("put");
        lsm.flush(&mut io).expect("flush");
        lsm.put(&mut io, 7, b"new".to_vec()).expect("put");
        lsm.flush(&mut io).expect("flush");
        assert_eq!(lsm.get(&mut io, 7).expect("get"), Some(b"new".to_vec()));
    }

    #[test]
    fn delete_shadows_older_values() {
        let (mut fs, mut store, mut lsm) = setup();
        let mut io = DirectIo::new(&mut fs, &mut store);
        lsm.put(&mut io, 9, val(9)).expect("put");
        lsm.flush(&mut io).expect("flush");
        lsm.delete(&mut io, 9).expect("delete");
        assert_eq!(lsm.get(&mut io, 9).expect("get"), None);
        lsm.flush(&mut io).expect("flush");
        assert_eq!(lsm.get(&mut io, 9).expect("get"), None);
    }

    #[test]
    fn compaction_merges_and_deletes_inputs() {
        let (mut fs, mut store, mut lsm) = setup();
        let mut io = DirectIo::new(&mut fs, &mut store);
        // Force several flushes to trigger compaction (trigger = 3).
        for round in 0..4u64 {
            for i in 0..40u64 {
                lsm.put(&mut io, i, val(i * 10 + round)).expect("put");
            }
            lsm.flush(&mut io).expect("flush");
        }
        assert!(lsm.stats().compactions >= 1, "compaction triggered");
        assert!(lsm.stats().tables_deleted >= 3, "inputs deleted");
        // Latest round (3) wins for every key.
        for i in 0..40u64 {
            assert_eq!(
                lsm.get(&mut io, i).expect("get"),
                Some(val(i * 10 + 3)),
                "key {i}"
            );
        }
        // FS saw unmap events from the unlinks.
        assert!(io.fs.stats().unmap_changes > 0);
    }

    #[test]
    fn tombstones_dropped_at_deepest_level() {
        let (mut fs, mut store, mut lsm) = setup();
        let mut io = DirectIo::new(&mut fs, &mut store);
        for i in 0..30u64 {
            lsm.put(&mut io, i, val(i)).expect("put");
        }
        lsm.flush(&mut io).expect("flush");
        for i in 0..30u64 {
            lsm.delete(&mut io, i).expect("del");
        }
        lsm.flush(&mut io).expect("flush");
        lsm.flush(&mut io).expect("noop flush");
        // Force compaction by flushing empty-ish memtables via puts.
        for round in 0..4u64 {
            lsm.put(&mut io, 1000 + round, val(round)).expect("put");
            lsm.flush(&mut io).expect("flush");
        }
        for i in 0..30u64 {
            assert_eq!(lsm.get(&mut io, i).expect("get"), None, "key {i}");
        }
    }

    #[test]
    fn bloom_prunes_lookups() {
        let (mut fs, mut store, mut lsm) = setup();
        let mut io = DirectIo::new(&mut fs, &mut store);
        for i in 0..100u64 {
            lsm.put(&mut io, i * 2, val(i)).expect("put");
        }
        lsm.flush(&mut io).expect("flush");
        let table = &lsm.levels()[0][0];
        let mut pruned = 0;
        for probe in (1..200u64).step_by(2) {
            if !table.may_contain(probe) {
                pruned += 1;
            }
        }
        assert!(pruned > 90, "bloom should prune most absent keys: {pruned}");
    }

    #[test]
    fn sstables_are_extent_contiguous() {
        let (mut fs, mut store, mut lsm) = setup();
        let mut io = DirectIo::new(&mut fs, &mut store);
        for i in 0..200u64 {
            lsm.put(&mut io, i, val(i)).expect("put");
        }
        lsm.flush(&mut io).expect("flush");
        for level in lsm.levels() {
            for t in level {
                let snap = io.fs.extents_snapshot(t.ino).expect("snapshot");
                assert_eq!(
                    snap.len(),
                    1,
                    "sequentially written SSTable {} should be one extent",
                    t.name
                );
            }
        }
    }

    #[test]
    fn empty_value_rejected() {
        let (mut fs, mut store, mut lsm) = setup();
        let mut io = DirectIo::new(&mut fs, &mut store);
        assert_eq!(
            lsm.put(&mut io, 1, Vec::new()).unwrap_err(),
            LsmError::EmptyValue
        );
    }

    #[test]
    fn malformed_tables_are_errors_at_open_never_panics() {
        let entries: Vec<(u64, Vec<u8>)> = (0..600u64).map(|i| (i * 3, vec![7; 48])).collect();
        let image = build_image(&entries).expect("image");
        let footer = Footer::decode(&image[image.len() - BLOCK..]).expect("footer");
        let (mut fs, mut store, _) = setup();
        let mut io = DirectIo::new(&mut fs, &mut store);
        let mut open = |name: &str, bytes: &[u8]| {
            let ino = io.create(name).expect("create");
            io.write(ino, 0, bytes).expect("write");
            TableHandle::open(&mut io, name).map(|t| t.index.len())
        };
        assert_eq!(open("intact", &image), Ok(footer.data_blocks as usize));

        // The first index block's count reads 0xFFFF: 2 + 65 535 * 12
        // bytes of entries do not fit a block.
        let mut bad_index = image.clone();
        let at = footer.data_blocks as usize * BLOCK;
        bad_index[at..at + BLOCK].fill(0);
        bad_index[at..at + 2].copy_from_slice(&[0xFF, 0xFF]);
        assert_eq!(
            open("bad-index", &bad_index),
            Err(SstError::Corrupt("index count overflows block").into())
        );

        // Truncated from the front, the footer names blocks the file
        // does not have: reads past its end come back short.
        for (name, keep) in [("footer-only", 1), ("no-data", 4)] {
            let tail = &image[image.len() - keep * BLOCK..];
            let err = open(name, tail).expect_err("truncated");
            assert!(matches!(err, LsmError::Sst(SstError::Corrupt(_))), "{err}");
        }
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        let (mut fs, mut store, mut lsm) = setup();
        let mut io = DirectIo::new(&mut fs, &mut store);
        let mut reference = std::collections::HashMap::new();
        for i in 0..2_000u64 {
            let key = i % 97;
            if i % 7 == 0 {
                lsm.delete(&mut io, key).expect("del");
                reference.remove(&key);
            } else {
                lsm.put(&mut io, key, val(i)).expect("put");
                reference.insert(key, val(i));
            }
        }
        for key in 0..97u64 {
            assert_eq!(
                lsm.get(&mut io, key).expect("get"),
                reference.get(&key).cloned(),
                "key {key}"
            );
        }
    }
}
