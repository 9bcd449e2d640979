//! The extent file system.
//!
//! `ExtFs` owns metadata only — allocation bitmap, inode table,
//! directory, journal. File *data* lives in the device's
//! [`bpfstor_device::SectorStore`], which callers pass into the data-path
//! operations; the simulated kernel charges the timing for those I/Os
//! separately. This split keeps the FS logic synchronous and testable
//! while the kernel stack decides what each access costs.
//!
//! Every metadata change is a [`JournalRecord`], and one function,
//! `MetaPlane::apply`, carries it out: live = apply + log, replay =
//! apply. `apply` changes what recovery keeps — directory, inode table,
//! extent trees, both generation counters and [`FsStats`] — and nothing
//! else. A live operation makes its placement decisions (allocation,
//! data copies), builds the record, applies it and logs it; then it
//! releases the blocks the record unmapped and queues its extent
//! events, which are live-only. A checkpoint applies the committed
//! records to a recovery image — metadata of the same type — and drops
//! them from the journal; crash recovery applies the committed records
//! still retained to a copy of that image. Block ownership is not kept
//! twice: the allocator beside the live metadata is the one record of
//! it, and recovery and [`ExtFs::fsck`] derive it from the extent trees.
//!
//! The piece the paper adds is the **extent-change notification hook**:
//! every operation that maps or unmaps blocks appends an
//! [`ExtentEvent`]; the simulated NVMe layer consumes these to keep its
//! soft-state extent cache coherent (§4 Translation & Security —
//! "a new hook in the file system triggers an invalidation call to the
//! NVMe layer").

use std::borrow::Cow;
use std::collections::BTreeMap;

use bpfstor_device::{SectorStore, SECTOR_SIZE};
use bpfstor_sim::IdMap;

use crate::alloc::BlockAllocator;
use crate::extent::Extent;
use crate::inode::Inode;
use crate::journal::{Journal, JournalRecord, SealedTxn, CHECKPOINT_RECORDS};

/// File-system block size; equal to the device sector size so one block
/// maps to one NVMe logical block (as in the paper's 512 B experiments).
pub const BLOCK_SIZE: usize = SECTOR_SIZE;

/// Errors from file-system operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Name not found.
    NotFound,
    /// Name already exists.
    Exists,
    /// Device out of blocks.
    NoSpace,
    /// Bad inode number.
    BadInode(u64),
    /// Argument validation failure.
    Invalid(&'static str),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file"),
            FsError::Exists => write!(f, "file exists"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::BadInode(i) => write!(f, "bad inode {i}"),
            FsError::Invalid(w) => write!(f, "invalid argument: {w}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Notification emitted on every extent map/unmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtentEvent {
    /// New blocks were mapped (appends). Cached translations for other
    /// offsets remain valid.
    Mapped {
        /// Inode affected.
        ino: u64,
        /// The new mapping.
        extent: Extent,
    },
    /// Blocks were unmapped (truncate/unlink/relocate). The paper's
    /// NVMe-layer cache must invalidate on this.
    Unmapped {
        /// Inode affected.
        ino: u64,
        /// First logical block unmapped.
        logical: u64,
        /// Number of blocks unmapped.
        len: u64,
    },
}

/// Aggregate metadata-activity statistics (drives the §4 extent-
/// stability experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Extent-tree changes of any kind.
    pub extent_changes: u64,
    /// Changes that unmapped blocks (the invalidating kind).
    pub unmap_changes: u64,
    /// Blocks allocated over the lifetime.
    pub blocks_allocated: u64,
    /// Blocks freed over the lifetime.
    pub blocks_freed: u64,
}

/// Block ownership as the extent trees and the allocator each tell it
/// ([`ExtFs::ownership`]). The two agree when all three counts are
/// equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockOwnership {
    /// Blocks mapped, summed over every extent of every inode.
    pub mapped: u64,
    /// How many of those blocks the allocator marks used.
    pub marked: u64,
    /// Blocks the allocator marks used.
    pub used: u64,
}

/// A disagreement [`ExtFs::fsck`] found between the extent trees and the
/// allocator, with the counts that show it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsckError {
    /// A mapped block the allocator holds free: a mapped run was
    /// released, or never taken.
    Unmarked(BlockOwnership),
    /// More blocks mapped than the allocator holds used, each of them
    /// marked: a block is mapped twice.
    DoublyMapped(BlockOwnership),
    /// More blocks used than mapped: a bit no extent owns has leaked.
    Leaked(BlockOwnership),
}

impl std::fmt::Display for FsckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (what, o) = match self {
            FsckError::Unmarked(o) => ("a mapped block is free", o),
            FsckError::DoublyMapped(o) => ("a block is mapped twice", o),
            FsckError::Leaked(o) => ("a used block is mapped by no file", o),
        };
        let (mapped, marked, used) = (o.mapped, o.marked, o.used);
        write!(f, "{what}: {mapped} mapped, {marked} marked, {used} used")
    }
}

impl std::error::Error for FsckError {}

/// What a journal record changes and recovery keeps: the live metadata
/// and the recovery image are both one of these, and
/// [`MetaPlane::apply`] is the only code that edits either. Which
/// blocks are used is not kept here; it follows from the extent trees
/// ([`MetaPlane::extents`]).
#[derive(Debug, Clone)]
struct MetaPlane {
    inodes: IdMap<u64, Inode>,
    dir: BTreeMap<String, u64>,
    next_ino: u64,
    stats: FsStats,
}

/// The extent file system (metadata plane).
///
/// Beside the live metadata it keeps the block allocator and the extent
/// event queue, one of each, and a recovery image: the metadata as of
/// the journal's checkpoint ([`Journal::base`]), which a crash replays
/// the retained committed records on top of.
#[derive(Debug, Clone)]
pub struct ExtFs {
    meta: MetaPlane,
    alloc: BlockAllocator,
    events: Vec<ExtentEvent>,
    journal: Journal,
    image: MetaPlane,
}

impl ExtFs {
    /// Formats a file system over `nblocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `nblocks == 0`.
    pub fn mkfs(nblocks: u64) -> Self {
        let meta = MetaPlane {
            inodes: IdMap::default(),
            dir: BTreeMap::new(),
            next_ino: 1,
            stats: FsStats::default(),
        };
        ExtFs {
            image: meta.clone(),
            meta,
            alloc: BlockAllocator::new(nblocks),
            events: Vec::new(),
            journal: Journal::new(),
        }
    }

    // --- Namespace ---------------------------------------------------------

    /// Creates an empty file, returning its inode number.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] if the name is taken.
    pub fn create(&mut self, name: &str) -> Result<u64, FsError> {
        if self.meta.dir.contains_key(name) {
            return Err(FsError::Exists);
        }
        let ino = self.meta.next_ino;
        self.record(JournalRecord::Create {
            ino,
            name: name.to_string(),
        });
        self.end_op();
        Ok(ino)
    }

    /// Looks a name up.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if absent.
    pub fn open(&self, name: &str) -> Result<u64, FsError> {
        self.meta.dir.get(name).copied().ok_or(FsError::NotFound)
    }

    /// Removes a file, freeing all its blocks (fires unmap events).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if absent.
    pub fn unlink(&mut self, name: &str) -> Result<(), FsError> {
        let ino = self.open(name)?;
        self.truncate_blocks(ino, 0)?;
        self.record(JournalRecord::Unlink {
            ino,
            name: name.to_string(),
        });
        self.end_op();
        Ok(())
    }

    /// Lists directory entries in name order.
    pub fn readdir(&self) -> Vec<(String, u64)> {
        self.meta.dir.iter().map(|(n, &i)| (n.clone(), i)).collect()
    }

    // --- Data path ----------------------------------------------------------

    fn inode(&self, ino: u64) -> Result<&Inode, FsError> {
        self.meta.inodes.get(&ino).ok_or(FsError::BadInode(ino))
    }

    /// File size in bytes.
    pub fn file_size(&self, ino: u64) -> Result<u64, FsError> {
        Ok(self.inode(ino)?.size)
    }

    /// Maps a logical block to `(physical block, contiguous run length)`.
    ///
    /// This is the translation the syscall path performs per I/O — and
    /// the one the NVMe extent cache short-circuits for tagged I/O.
    pub fn map(&self, ino: u64, logical_block: u64) -> Result<Option<(u64, u64)>, FsError> {
        Ok(self.inode(ino)?.extents.lookup(logical_block))
    }

    /// Snapshot of a file's extents (pushed to the NVMe layer by the
    /// install ioctl).
    pub fn extents_snapshot(&self, ino: u64) -> Result<Vec<Extent>, FsError> {
        Ok(self.inode(ino)?.extents.snapshot())
    }

    /// Extent-change generation counters `(any, unmap-only)`.
    pub fn generations(&self, ino: u64) -> Result<(u64, u64), FsError> {
        let i = self.inode(ino)?;
        Ok((i.generation, i.unmap_generation))
    }

    /// Writes `data` at byte offset `off`, allocating blocks as needed.
    /// In-place overwrites do **not** change extents; only fresh
    /// allocations do. The `MapExtent`/`SetSize` records are one
    /// journal transaction: a crash replay sees either the whole write's
    /// metadata or none of it, never a size without its extents.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] if allocation fails mid-write (already-
    /// written bytes stay written, as on a real FS; the allocations that
    /// succeeded are journaled like a whole write's).
    pub fn write(
        &mut self,
        ino: u64,
        off: u64,
        data: &[u8],
        store: &mut SectorStore,
    ) -> Result<(), FsError> {
        if data.is_empty() {
            return Ok(());
        }
        self.inode(ino)?;
        let bs = BLOCK_SIZE as u64;
        let (lb, end) = (off / bs, (off + data.len() as u64).div_ceil(bs));
        let mut segments = Vec::new();
        let failure = self.map_range(ino, lb, end, store, &mut segments).err();
        // One store write per physically contiguous run (the images are
        // cut before any lands: the edges are read from the store).
        let head = (off % bs) as usize;
        let images: Vec<_> = cut_runs(data, head, &segments)
            .map(|(phys, head, piece)| {
                let image = if head == 0 && piece.len().is_multiple_of(BLOCK_SIZE) {
                    Cow::Borrowed(piece)
                } else {
                    Cow::Owned(store.read_modify(phys, head, piece))
                };
                (phys, image)
            })
            .collect();
        for (phys, image) in images {
            store.write(phys, &image);
        }
        let mapped: u64 = segments.iter().map(|&(_, n)| n).sum();
        let pos = off + (data.len() as u64).min((mapped * bs).saturating_sub(head as u64));
        self.grow(ino, pos);
        self.end_op();
        failure.map_or(Ok(()), Err)
    }

    /// Plans a *runtime* write for device submission: performs the
    /// metadata half — block allocation, journal records, size update —
    /// and returns the physical segments, leaving the data transfer to
    /// the caller (the simulated kernel routes it through the NVMe
    /// submission rings as real `Write` commands).
    ///
    /// The write joins the running transaction as a handle and its
    /// records stay there: they become crash-durable only when a seal
    /// that covers them ([`ExtFs::seal_journal`]) commits at its flush
    /// barrier's CQE ([`ExtFs::commit_journal_sealed`]) — ext4's
    /// ordered-mode contract.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] when allocation fails (segments planned so
    /// far are returned in the running transaction, as on a real FS).
    pub fn plan_write(
        &mut self,
        ino: u64,
        off: u64,
        len: usize,
        store: &mut SectorStore,
    ) -> Result<Vec<(u64, u64)>, FsError> {
        let mut segments = Vec::new();
        self.plan_write_into(ino, off, len, store, &mut segments)?;
        Ok(segments)
    }

    /// [`ExtFs::plan_write`] into a vector the caller keeps for its
    /// capacity: `segments` is emptied, then holds the plan. On an
    /// error it holds what was mapped up to the failure — those blocks
    /// stay allocated in the running transaction, but the write is not
    /// planned and the caller should discard them.
    ///
    /// # Errors
    ///
    /// As [`ExtFs::plan_write`].
    pub fn plan_write_into(
        &mut self,
        ino: u64,
        off: u64,
        len: usize,
        store: &mut SectorStore,
        segments: &mut Vec<(u64, u64)>,
    ) -> Result<(), FsError> {
        segments.clear();
        self.inode(ino)?;
        if len == 0 {
            return Ok(());
        }
        self.journal.join_running();
        let bs = BLOCK_SIZE as u64;
        let end = off + len as u64;
        self.map_range(ino, off / bs, end.div_ceil(bs), store, segments)?;
        self.grow(ino, end);
        Ok(())
    }

    /// Seals and commits the running journal transaction at once, for
    /// a caller with no barrier to wait for. A no-op when nothing is
    /// pending. Returns the writer handles the transaction carried.
    pub fn commit_journal(&mut self) -> usize {
        let handles = self.journal.commit();
        self.checkpoint_if_due();
        handles
    }

    /// Seals the running journal transaction: the record range freezes,
    /// the caller issues one flush barrier, and
    /// [`ExtFs::commit_journal_sealed`] runs on its CQE. Writers
    /// arriving in between keep logging into a fresh running
    /// transaction.
    pub fn seal_journal(&mut self) -> SealedTxn {
        self.journal.seal()
    }

    /// Makes a sealed transaction durable (its barrier's CQE arrived).
    pub fn commit_journal_sealed(&mut self, txn: SealedTxn) {
        self.journal.commit_sealed(txn);
        self.checkpoint_if_due();
    }

    /// Journal records logged since mkfs (checkpointed, committed and
    /// pending) — the seal horizon a submitting writer's records fall
    /// under.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// True while a runtime writer has joined the running transaction
    /// (even one that logged nothing, an in-place overwrite) or the
    /// journal holds records that are not yet crash-durable — what a
    /// background writeback flush would persist.
    pub fn journal_dirty(&self) -> bool {
        self.journal.dirty()
    }

    /// Checkpoints the journal (`jbd2_log_do_checkpoint`): applies every
    /// committed record to the recovery image and drops it from the log.
    /// Running and sealed records stay. Every commit runs this once
    /// [`CHECKPOINT_RECORDS`] committed records are retained, so however
    /// long the file system runs, the log holds fewer committed records
    /// than that beside what is outstanding. A crash below the
    /// checkpoint is not simulated ([`ExtFs::crash_and_recover_at`]
    /// panics there), so a test that crashes at every record from 0
    /// keeps its world below the trigger.
    pub fn checkpoint(&mut self) {
        self.image.replay(self.journal.checkpoint().as_slice());
    }

    /// The trigger every commit path ends in.
    fn checkpoint_if_due(&mut self) {
        if self.journal.committed_records().len() >= CHECKPOINT_RECORDS {
            self.checkpoint();
        }
    }

    /// The one durability rule every metadata operation ends in: with
    /// no runtime writer in the running transaction and no seal
    /// outstanding, nothing waits on a barrier, so the operation commits
    /// now; otherwise its records ride the next barrier with the
    /// writers' (as jbd2 does), and commit points stay in seal order.
    fn end_op(&mut self) {
        if self.journal.running_handles() == 0 && !self.journal.seal_outstanding() {
            self.commit_journal();
        }
    }

    /// Reads `len` bytes at offset `off` (zero-filled over holes; short
    /// at EOF).
    pub fn read(
        &self,
        ino: u64,
        off: u64,
        len: usize,
        store: &mut SectorStore,
    ) -> Result<Vec<u8>, FsError> {
        let inode = self.inode(ino)?;
        let end = (off + len as u64).min(inode.size);
        if off >= end {
            return Ok(Vec::new());
        }
        let bs = BLOCK_SIZE as u64;
        let mut out = Vec::with_capacity((end - off) as usize);
        let mut pos = off;
        while pos < end {
            let lb = pos / bs;
            let in_block = (pos % bs) as usize;
            let chunk = ((end - pos) as usize).min(BLOCK_SIZE - in_block);
            match inode.extents.lookup(lb) {
                Some((phys, _)) => {
                    let buf = store.read(phys, 1);
                    out.extend_from_slice(&buf[in_block..in_block + chunk]);
                }
                None => out.extend(std::iter::repeat_n(0u8, chunk)),
            }
            pos += chunk as u64;
        }
        Ok(out)
    }

    /// Translates the logical blocks `[lb, end)` into the physical
    /// `(start, blocks)` runs that hold them now, in logical order,
    /// physically adjacent ones merged: the lookup half of
    /// [`ExtFs::plan_write_into`], and the translation the kernel makes
    /// of every request it admits. `runs` is emptied first.
    ///
    /// # Errors
    ///
    /// [`FsError::BadInode`], or [`FsError::Invalid`] when a block of the
    /// range is not mapped (`runs` then holds the runs before it).
    pub fn map_runs(
        &self,
        ino: u64,
        mut lb: u64,
        end: u64,
        runs: &mut Vec<(u64, u64)>,
    ) -> Result<(), FsError> {
        runs.clear();
        let extents = &self.inode(ino)?.extents;
        while lb < end {
            let (phys, run) = extents
                .lookup(lb)
                .ok_or(FsError::Invalid("unmapped block"))?;
            let len = run.min(end - lb);
            push_run(runs, phys, len);
            lb += len;
        }
        Ok(())
    }

    /// Maps the logical blocks `[lb, end)`, allocating a run for every
    /// unmapped gap, and appends the physical `(start, blocks)` segments
    /// to `segments` in logical order, physically adjacent ones merged.
    /// Returns the number of runs allocated. On failure `segments` holds
    /// what was mapped up to the gap that found the device full.
    fn map_range(
        &mut self,
        ino: u64,
        mut lb: u64,
        end: u64,
        store: &mut SectorStore,
        segments: &mut Vec<(u64, u64)>,
    ) -> Result<usize, FsError> {
        let mut allocated = 0;
        while lb < end {
            let (phys, len) = match self.inode(ino)?.extents.lookup(lb) {
                Some((phys, run)) => (phys, run.min(end - lb)),
                None => {
                    let extent = self.allocate_run(ino, lb, end - lb, store)?;
                    allocated += 1;
                    (extent.physical, extent.len)
                }
            };
            push_run(segments, phys, len);
            lb += len;
        }
        Ok(allocated)
    }

    /// Maps the unmapped logical block `lb` and up to `want - 1` blocks
    /// after it to one physically contiguous run: one allocation, one
    /// discard, one extent-tree insert, one `MapExtent` record, one
    /// `Mapped` event. The run stops short of the next mapped block and
    /// wherever the allocator's free run ends, so callers loop. The
    /// counters advance per block, as if each had been mapped alone.
    fn allocate_run(
        &mut self,
        ino: u64,
        lb: u64,
        want: u64,
        store: &mut SectorStore,
    ) -> Result<Extent, FsError> {
        let extents = &self.inode(ino)?.extents;
        // Goal: extend the mapping of the previous logical block.
        let goal = lb
            .checked_sub(1)
            .and_then(|prev| extents.lookup(prev))
            .map_or(0, |(phys, _)| phys + 1);
        let gap = extents.next_mapped(lb).map_or(u64::MAX, |next| next - lb);
        let want = want.min(gap).min(u32::MAX.into());
        let run = self.alloc.alloc(want, goal).ok_or(FsError::NoSpace)?;
        // Fresh blocks must read as zeros: the physical sectors may hold
        // a deleted file's bytes, which a real FS never exposes.
        store.discard(run.start, run.len as u32);
        let extent = Extent {
            logical: lb,
            physical: run.start,
            len: run.len,
        };
        self.record(JournalRecord::MapExtent { ino, extent });
        Ok(extent)
    }

    /// Preallocates `blocks` contiguous-ish blocks starting at logical
    /// block `lb_start` (like `fallocate`), returning the number of
    /// extents created.
    pub fn fallocate(
        &mut self,
        ino: u64,
        lb_start: u64,
        blocks: u64,
        store: &mut SectorStore,
    ) -> Result<usize, FsError> {
        self.inode(ino)?;
        // A mid-allocation failure still journals what was logged (the
        // blocks allocated so far stay allocated, as in `write`).
        let created = self.map_range(ino, lb_start, lb_start + blocks, store, &mut Vec::new());
        if created.is_ok() {
            self.grow(ino, (lb_start + blocks) * BLOCK_SIZE as u64);
        }
        self.end_op();
        created
    }

    /// Truncates the file to `new_size` bytes, unmapping whole blocks
    /// past the end and zeroing the tail of a partially-kept final block
    /// (so a later extension reads zeros, as on a real file system).
    pub fn truncate(
        &mut self,
        ino: u64,
        new_size: u64,
        store: &mut SectorStore,
    ) -> Result<(), FsError> {
        let bs = BLOCK_SIZE as u64;
        self.truncate_blocks(ino, new_size.div_ceil(bs))?;
        let size = self.inode(ino)?.size;
        if new_size < size && !new_size.is_multiple_of(bs) {
            if let Some((phys, _)) = self.inode(ino)?.extents.lookup(new_size / bs) {
                let keep = (new_size % bs) as usize;
                let mut buf = store.read(phys, 1);
                buf[keep..].fill(0);
                store.write(phys, &buf);
            }
        }
        // Journal the size the inode actually ends at (truncate never
        // extends here), so replay converges with the live state.
        self.record(JournalRecord::SetSize {
            ino,
            size: size.min(new_size),
        });
        self.end_op();
        Ok(())
    }

    /// Unmaps every block at or past `keep_blocks`: one `UnmapRange`.
    fn truncate_blocks(&mut self, ino: u64, keep_blocks: u64) -> Result<(), FsError> {
        let last = self.inode(ino)?.extents.iter().last();
        let last = last.map_or(0, |e| e.logical_end());
        if last > keep_blocks {
            self.record(JournalRecord::UnmapRange {
                ino,
                logical: keep_blocks,
                len: last - keep_blocks,
            });
        }
        Ok(())
    }

    /// Moves every block of the file to fresh physical locations (what a
    /// defragmenter or COW filesystem would do). Guaranteed to fire
    /// unmap events — used to exercise the invalidation path.
    pub fn relocate(&mut self, ino: u64, store: &mut SectorStore) -> Result<(), FsError> {
        for old in self.inode(ino)?.extents.snapshot() {
            // Copy data out, unmap, reallocate away from the old
            // position, copy back.
            let data = store.read(old.physical, old.len as u32);
            self.record(JournalRecord::UnmapRange {
                ino,
                logical: old.logical,
                len: old.len,
            });
            let (mut rest, mut logical) = (&data[..], old.logical);
            let mut goal = (old.physical + 4096) % self.alloc.capacity();
            while !rest.is_empty() {
                let left = (rest.len() / BLOCK_SIZE) as u64;
                let run = self.alloc.alloc(left, goal).ok_or(FsError::NoSpace)?;
                let (piece, tail) = rest.split_at(run.len as usize * BLOCK_SIZE);
                store.write(run.start, piece);
                let extent = Extent {
                    logical,
                    physical: run.start,
                    len: run.len,
                };
                self.record(JournalRecord::MapExtent { ino, extent });
                (rest, logical, goal) = (tail, logical + run.len, run.start + run.len);
            }
        }
        self.end_op();
        Ok(())
    }

    // --- Introspection -----------------------------------------------------

    /// Drains pending extent events (consumed by the NVMe layer); the
    /// queue keeps its buffer.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, ExtentEvent> {
        self.events.drain(..)
    }

    /// Activity counters.
    pub fn stats(&self) -> FsStats {
        self.meta.stats
    }

    /// The journal (inspection and crash-recovery tests).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Simulates a crash after every record reached the log, followed
    /// by journal replay: what was committed survives. Returns the
    /// recovered file system.
    pub fn crash_and_recover(self) -> ExtFs {
        self.crash_and_recover_at(usize::MAX)
    }

    /// Simulates a crash after exactly `persisted` journal records
    /// (counted since mkfs) reached the log (see
    /// [`crate::Journal::crash_at`]) and replays the retained committed
    /// records onto a copy of the recovery image: the recovered state is
    /// some prefix of committed transactions, never a torn one. Its
    /// allocator is derived from the recovered extent trees, and it
    /// queues no extent events. The recovered file system keeps the
    /// image and the retained records.
    ///
    /// # Panics
    ///
    /// Panics if `persisted` is below the journal's checkpoint
    /// ([`crate::Journal::base`]), or if two recovered extents map one
    /// block.
    pub fn crash_and_recover_at(mut self, persisted: usize) -> ExtFs {
        self.journal.crash_at(persisted);
        self.meta = self.image.clone();
        self.meta.replay(self.journal.committed_records());
        self.alloc = BlockAllocator::new(self.alloc.capacity());
        for e in self.meta.extents() {
            self.alloc.reserve(e.physical, e.len);
        }
        self.events.clear();
        self
    }

    /// Block ownership by the extent trees beside the allocator's count,
    /// from one walk of every extent. Allocates nothing.
    pub fn ownership(&self) -> BlockOwnership {
        let mut o = BlockOwnership::default();
        for e in self.meta.extents() {
            o.mapped += e.len;
            o.marked += self.alloc.marked(e.physical, e.len);
        }
        o.used = self.alloc.used();
        o
    }

    /// Checks the allocator against the extent trees: every mapped
    /// block is marked used, and the blocks mapped add up to the blocks
    /// used, so a released mapped run, a block mapped twice and a leaked
    /// bit each show. Allocates nothing.
    ///
    /// # Errors
    ///
    /// The [`FsckError`] that names the disagreement.
    pub fn fsck(&self) -> Result<(), FsckError> {
        let o = self.ownership();
        if o.marked < o.mapped {
            Err(FsckError::Unmarked(o))
        } else if o.mapped > o.used {
            Err(FsckError::DoublyMapped(o))
        } else if o.used > o.mapped {
            Err(FsckError::Leaked(o))
        } else {
            Ok(())
        }
    }

    /// How a live operation changes metadata: apply the record, release
    /// the blocks it unmapped and queue its extent events, then move it
    /// into the running transaction.
    fn record(&mut self, rec: JournalRecord) {
        let unmapped = self.meta.apply(&rec);
        if let JournalRecord::MapExtent { ino, extent } = rec {
            self.events.push(ExtentEvent::Mapped { ino, extent });
        } else if let JournalRecord::UnmapRange { ino, .. } = rec {
            for e in unmapped {
                self.alloc.release(e.physical, e.len);
                let (logical, len) = (e.logical, e.len);
                self.events
                    .push(ExtentEvent::Unmapped { ino, logical, len });
            }
        }
        self.journal.log(rec);
    }

    /// Extends the file to `size` bytes if it is shorter (a `SetSize`).
    fn grow(&mut self, ino: u64, size: u64) {
        if self.meta.inodes.get(&ino).is_some_and(|i| size > i.size) {
            self.record(JournalRecord::SetSize { ino, size });
        }
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.alloc.free()
    }
}

impl MetaPlane {
    /// The one function that changes what a record changes and recovery
    /// keeps — inode table, directory, extent trees, generations and
    /// counters — for live operations ([`ExtFs::record`]), checkpoints
    /// and crash replay ([`MetaPlane::replay`]) alike, so replay
    /// reproduces the live metadata by construction. The counters
    /// advance per block mapped and per range unmapped. Returns the
    /// extents an `UnmapRange` removed, none for any other record.
    fn apply(&mut self, rec: &JournalRecord) -> Vec<Extent> {
        match *rec {
            JournalRecord::Create { ino, ref name } => {
                self.inodes.insert(ino, Inode::new(ino));
                self.dir.insert(name.clone(), ino);
                self.next_ino = self.next_ino.max(ino + 1);
            }
            JournalRecord::Unlink { ino, ref name } => {
                self.dir.remove(name);
                self.inodes.remove(&ino);
            }
            JournalRecord::SetSize { ino, size } => {
                if let Some(inode) = self.inodes.get_mut(&ino) {
                    inode.size = size;
                }
            }
            JournalRecord::MapExtent { ino, extent } => {
                if let Some(inode) = self.inodes.get_mut(&ino) {
                    inode.extents.insert(extent);
                    inode.generation += extent.len;
                    self.stats.extent_changes += extent.len;
                    self.stats.blocks_allocated += extent.len;
                }
            }
            JournalRecord::UnmapRange { ino, logical, len } => {
                if let Some(inode) = self.inodes.get_mut(&ino) {
                    inode.generation += 1;
                    inode.unmap_generation += 1;
                    self.stats.extent_changes += 1;
                    self.stats.unmap_changes += 1;
                    let removed = inode.extents.remove_range(logical, len);
                    self.stats.blocks_freed += removed.iter().map(|e| e.len).sum::<u64>();
                    return removed;
                }
            }
        }
        Vec::new()
    }

    /// Applies committed records in order: a checkpoint and crash replay
    /// alike.
    fn replay(&mut self, records: &[JournalRecord]) {
        for rec in records {
            self.apply(rec);
        }
    }

    /// Every extent of every inode: the one walk block ownership is
    /// derived by, for a recovered allocator and for [`ExtFs::fsck`].
    fn extents(&self) -> impl Iterator<Item = &Extent> {
        self.inodes.values().flat_map(|inode| inode.extents.iter())
    }
}

/// Appends `len` blocks at `phys` to `runs`, extending the last run when
/// they continue it physically.
fn push_run(runs: &mut Vec<(u64, u64)>, phys: u64, len: u64) {
    match runs.last_mut() {
        Some((start, n)) if *start + *n == phys => *n += len,
        _ => runs.push((phys, len)),
    }
}

/// The one run splitter: cuts a payload that starts `head` bytes into
/// the first block of `runs` into one piece per physical run, in order,
/// each with the run's first block and the piece's offset in it. A
/// piece that covers its blocks exactly is its run's whole-block image;
/// one with a partial first or last block is framed by the stored bytes
/// of that block, read from the store as it is when the image is made
/// ([`SectorStore::read_modify_into`]).
pub fn cut_runs<'d, 'r>(
    data: &'d [u8],
    head: usize,
    runs: &'r [(u64, u64)],
) -> impl Iterator<Item = (u64, usize, &'d [u8])> + use<'d, 'r> {
    let (mut rest, mut head) = (data, head);
    runs.iter().map(move |&(start, blocks)| {
        let take = rest.len().min(blocks as usize * BLOCK_SIZE - head);
        let (piece, tail) = rest.split_at(take);
        let cut = (start, head, piece);
        (rest, head) = (tail, 0);
        cut
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ExtFs, SectorStore) {
        (ExtFs::mkfs(65_536), SectorStore::new())
    }

    #[test]
    fn create_open_unlink() {
        let (mut fs, _store) = setup();
        let ino = fs.create("index.db").expect("create");
        assert_eq!(fs.open("index.db").expect("open"), ino);
        assert_eq!(fs.create("index.db").unwrap_err(), FsError::Exists);
        fs.unlink("index.db").expect("unlink");
        assert_eq!(fs.open("index.db").unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn write_read_roundtrip_aligned() {
        let (mut fs, mut store) = setup();
        let ino = fs.create("f").expect("create");
        let data: Vec<u8> = (0..BLOCK_SIZE * 3).map(|i| (i % 256) as u8).collect();
        fs.write(ino, 0, &data, &mut store).expect("write");
        assert_eq!(fs.read(ino, 0, data.len(), &mut store).expect("read"), data);
        assert_eq!(fs.file_size(ino).expect("size"), data.len() as u64);
    }

    #[test]
    fn unaligned_write_read() {
        let (mut fs, mut store) = setup();
        let ino = fs.create("f").expect("create");
        fs.write(ino, 0, &vec![0xAA; BLOCK_SIZE * 2], &mut store)
            .expect("fill");
        fs.write(ino, 100, b"hello world", &mut store)
            .expect("patch");
        let back = fs.read(ino, 98, 15, &mut store).expect("read");
        assert_eq!(&back[2..13], b"hello world");
        assert_eq!(back[0], 0xAA);
    }

    #[test]
    fn read_modify_writes_over_a_short_stored_sector() {
        // The store keeps a sector to its last non-zero half-word: 8
        // bytes at 0 are an 8 B slot, 8 more at 300 widen the sector to
        // a whole one, and zeroing them narrows it again. Each write reads
        // the stored sector for its edges and must keep every byte.
        let (mut fs, mut store) = setup();
        let ino = fs.create("f").expect("create");
        let mut want = [0u8; BLOCK_SIZE];
        for (off, bytes) in [(0, [0x5Au8; 8]), (300, [0xA5; 8]), (300, [0; 8])] {
            fs.write(ino, off, &bytes, &mut store).expect("write");
            want[off as usize..off as usize + 8].copy_from_slice(&bytes);
            let size = fs.file_size(ino).expect("size") as usize;
            let back = fs.read(ino, 0, BLOCK_SIZE, &mut store).expect("read");
            assert_eq!(back, want[..size], "file after the write at {off}");
            let (phys, _) = fs.map(ino, 0).expect("map").expect("mapped");
            assert_eq!(store.read(phys, 1), want, "sector after the write at {off}");
        }
    }

    #[test]
    fn sequential_append_yields_single_extent() {
        let (mut fs, mut store) = setup();
        let ino = fs.create("sstable").expect("create");
        for i in 0..64u64 {
            fs.write(
                ino,
                i * BLOCK_SIZE as u64,
                &vec![i as u8; BLOCK_SIZE],
                &mut store,
            )
            .expect("append");
        }
        assert_eq!(
            fs.extents_snapshot(ino).expect("snapshot").len(),
            1,
            "goal-directed allocation keeps appends contiguous"
        );
    }

    #[test]
    fn overwrite_in_place_changes_no_extents() {
        let (mut fs, mut store) = setup();
        let ino = fs.create("btree").expect("create");
        fs.write(ino, 0, &vec![1u8; BLOCK_SIZE * 8], &mut store)
            .expect("init");
        fs.drain_events();
        let (gen0, _) = fs.generations(ino).expect("gen");
        fs.write(ino, BLOCK_SIZE as u64, &vec![2u8; BLOCK_SIZE], &mut store)
            .expect("overwrite");
        let (gen1, _) = fs.generations(ino).expect("gen");
        assert_eq!(gen0, gen1, "in-place overwrite is extent-stable");
        assert_eq!(fs.drain_events().count(), 0);
    }

    #[test]
    fn map_translates_offsets() {
        let (mut fs, mut store) = setup();
        let ino = fs.create("f").expect("create");
        fs.write(ino, 0, &vec![0u8; BLOCK_SIZE * 4], &mut store)
            .expect("write");
        let (phys0, run0) = fs.map(ino, 0).expect("map").expect("mapped");
        assert_eq!(run0, 4, "one merged extent");
        let (phys2, run2) = fs.map(ino, 2).expect("map").expect("mapped");
        assert_eq!(phys2, phys0 + 2);
        assert_eq!(run2, 2);
        assert!(fs.map(ino, 100).expect("map").is_none());
    }

    #[test]
    fn map_runs_finds_the_runs_a_plan_made_and_refuses_holes() {
        let (mut fs, mut store) = setup();
        let ino = fs.create("f").expect("create");
        let bs = BLOCK_SIZE as u64;
        // Block 4 first, then blocks 0..8 around it: the plan merges
        // what is physically adjacent, and so does the translation.
        fs.plan_write(ino, 4 * bs, BLOCK_SIZE, &mut store)
            .expect("plan");
        let planned = fs
            .plan_write(ino, 0, 8 * BLOCK_SIZE, &mut store)
            .expect("plan");
        let mut runs = vec![(0, 1)];
        fs.map_runs(ino, 0, 8, &mut runs).expect("mapped");
        assert_eq!(runs, planned);
        // After a relocation the same range translates to where the file
        // is now.
        fs.relocate(ino, &mut store).expect("relocate");
        fs.map_runs(ino, 0, 8, &mut runs).expect("mapped");
        assert_ne!(runs, planned);
        assert_eq!(runs[0].0, fs.map(ino, 0).expect("map").expect("mapped").0);
        assert_eq!(runs.iter().map(|&(_, n)| n).sum::<u64>(), 8);
        // A hole refuses the range and leaves the runs before it.
        let err = fs.map_runs(ino, 6, 10, &mut runs).unwrap_err();
        assert_eq!(err, FsError::Invalid("unmapped block"));
        assert_eq!(runs.iter().map(|&(_, n)| n).sum::<u64>(), 2);
    }

    #[test]
    fn events_mapped_on_alloc_unmapped_on_truncate() {
        let (mut fs, mut store) = setup();
        let ino = fs.create("f").expect("create");
        fs.write(ino, 0, &vec![0u8; BLOCK_SIZE * 2], &mut store)
            .expect("write");
        assert!(fs
            .drain_events()
            .all(|e| matches!(e, ExtentEvent::Mapped { .. })));
        fs.truncate(ino, 0, &mut store).expect("truncate");
        assert!(
            fs.drain_events()
                .any(|e| matches!(e, ExtentEvent::Unmapped { .. })),
            "truncate fires unmap"
        );
        assert_eq!(fs.stats().unmap_changes, 1);
    }

    #[test]
    fn unlink_frees_space() {
        let (mut fs, mut store) = setup();
        let before = fs.free_blocks();
        let ino = fs.create("f").expect("create");
        fs.write(ino, 0, &vec![0u8; BLOCK_SIZE * 16], &mut store)
            .expect("write");
        assert_eq!(fs.free_blocks(), before - 16);
        fs.unlink("f").expect("unlink");
        assert_eq!(fs.free_blocks(), before);
    }

    #[test]
    fn relocate_moves_blocks_and_fires_unmap() {
        let (mut fs, mut store) = setup();
        let ino = fs.create("f").expect("create");
        let data: Vec<u8> = (0..BLOCK_SIZE * 4).map(|i| (i % 251) as u8).collect();
        fs.write(ino, 0, &data, &mut store).expect("write");
        let (old_phys, _) = fs.map(ino, 0).expect("map").expect("mapped");
        fs.drain_events();
        fs.relocate(ino, &mut store).expect("relocate");
        let (new_phys, _) = fs.map(ino, 0).expect("map").expect("mapped");
        assert_ne!(old_phys, new_phys, "blocks moved");
        assert_eq!(
            fs.read(ino, 0, data.len(), &mut store).expect("read"),
            data,
            "data preserved"
        );
        assert!(fs
            .drain_events()
            .any(|e| matches!(e, ExtentEvent::Unmapped { .. })));
    }

    #[test]
    fn fallocate_preallocates_contiguously() {
        let (mut fs, _store) = setup();
        let ino = fs.create("f").expect("create");
        let mut store = SectorStore::new();
        let extents = fs.fallocate(ino, 0, 128, &mut store).expect("fallocate");
        assert_eq!(extents, 1, "one contiguous extent on empty fs");
        assert_eq!(fs.extents_snapshot(ino).expect("snap").len(), 1);
        assert_eq!(fs.file_size(ino).expect("size"), 128 * BLOCK_SIZE as u64);
    }

    #[test]
    fn holes_read_as_zero() {
        let (mut fs, mut store) = setup();
        let ino = fs.create("f").expect("create");
        fs.fallocate(ino, 10, 1, &mut store)
            .expect("fallocate block 10");
        // Size covers blocks 0..11 but only block 10 is mapped.
        let data = fs.read(ino, 0, BLOCK_SIZE, &mut store).expect("read hole");
        assert!(data.iter().all(|&b| b == 0));
    }

    #[test]
    fn no_space_error() {
        let mut fs = ExtFs::mkfs(4);
        let mut store = SectorStore::new();
        let ino = fs.create("f").expect("create");
        let err = fs
            .write(ino, 0, &vec![0u8; BLOCK_SIZE * 8], &mut store)
            .unwrap_err();
        assert_eq!(err, FsError::NoSpace);
    }

    #[test]
    fn failed_ops_do_not_wedge_the_journal_open() {
        // Regression: an error path that returned before committing left
        // the transaction open forever, silently making every later
        // metadata op non-durable.
        let mut fs = ExtFs::mkfs(4);
        let mut store = SectorStore::new();
        let ino = fs.create("f").expect("create");
        assert_eq!(
            fs.fallocate(ino, 0, 100, &mut store).unwrap_err(),
            FsError::NoSpace
        );
        assert!(!fs.journal_dirty(), "fallocate failure commits");
        assert_eq!(
            fs.write(ino, 0, &vec![1u8; BLOCK_SIZE * 8], &mut store)
                .unwrap_err(),
            FsError::NoSpace
        );
        assert!(!fs.journal_dirty(), "write failure commits");
        assert_eq!(
            fs.truncate(99, 0, &mut store).unwrap_err(),
            FsError::BadInode(99)
        );
        assert!(!fs.journal_dirty(), "truncate failure commits");
        // Later single-op durability still works.
        fs.create("g").expect("create");
        assert_eq!(
            fs.journal().len(),
            fs.journal().committed(),
            "metadata ops commit again"
        );
    }

    #[test]
    fn metadata_ops_ride_the_barrier_of_a_runtime_writer() {
        let (mut fs, mut store) = setup();
        let log = fs.create("log").expect("create");
        let other = fs.create("other").expect("create");
        fs.write(other, 0, &vec![3u8; BLOCK_SIZE * 2], &mut store)
            .expect("write");
        assert!(!fs.journal_dirty(), "alone, a metadata op commits at once");
        // A runtime writer joins the running transaction...
        fs.plan_write(log, 0, BLOCK_SIZE, &mut store).expect("plan");
        let durable = fs.journal().committed_records().len();
        // ...so a relocation waits for the writer's barrier instead of
        // committing the writer's records ahead of its data.
        fs.relocate(other, &mut store).expect("relocate");
        assert_eq!(fs.journal().committed_records().len(), durable);
        let sealed = fs.seal_journal();
        assert_eq!(sealed.handles, 1);
        // With the seal outstanding and no writer left, an op still
        // waits: committing now would make the sealed records durable
        // before their barrier.
        fs.truncate(other, 0, &mut store).expect("truncate");
        assert_eq!(fs.journal().committed_records().len(), durable);
        fs.commit_journal_sealed(sealed);
        assert_eq!(fs.journal().committed_records().len(), sealed.end);
        assert!(fs.journal_dirty(), "the truncate rides the next barrier");
        fs.create("later").expect("create");
        assert!(!fs.journal_dirty(), "and the next idle op commits it");
        assert_eq!(fs.journal().commit_points().len(), 5);
    }

    #[test]
    fn crash_recovery_rebuilds_metadata() {
        let (mut fs, mut store) = setup();
        let ino = fs.create("persisted").expect("create");
        fs.write(ino, 0, &vec![7u8; BLOCK_SIZE * 4], &mut store)
            .expect("write");
        let extents_before = fs.extents_snapshot(ino).expect("snap");
        let size_before = fs.file_size(ino).expect("size");
        let recovered = fs.crash_and_recover();
        let ino2 = recovered.open("persisted").expect("open");
        assert_eq!(ino2, ino);
        assert_eq!(
            recovered.extents_snapshot(ino2).expect("snap"),
            extents_before
        );
        assert_eq!(recovered.file_size(ino2).expect("size"), size_before);
        // Data is still on the device at the mapped blocks.
        assert_eq!(
            recovered
                .read(ino2, 0, BLOCK_SIZE, &mut store)
                .expect("read"),
            vec![7u8; BLOCK_SIZE]
        );
    }

    #[test]
    fn full_replay_reproduces_generations_counters_and_free_space() {
        let (mut fs, mut store) = setup();
        let a = fs.create("a").expect("create");
        let b = fs.create("b").expect("create");
        let bs = BLOCK_SIZE as u64;
        // Multi-block runs: the counters advance per block mapped.
        fs.write(a, 0, &vec![1u8; BLOCK_SIZE * 6], &mut store)
            .expect("write");
        fs.write(b, 0, &vec![2u8; BLOCK_SIZE * 3], &mut store)
            .expect("write");
        fs.write(a, 6 * bs, &vec![3u8; BLOCK_SIZE * 2], &mut store)
            .expect("append");
        assert_eq!(fs.extents_snapshot(a).expect("snap").len(), 2);
        assert_eq!(fs.generations(a).expect("gen"), (8, 0));
        // One range unmapped over two extents, then every block moved.
        fs.truncate(a, 5 * bs - 100, &mut store).expect("truncate");
        fs.relocate(a, &mut store).expect("relocate");
        fs.relocate(b, &mut store).expect("relocate");
        assert_eq!(fs.generations(a).expect("gen"), (8 + 1 + 1 + 5, 2));
        assert_eq!(
            fs.stats(),
            FsStats {
                extent_changes: 8 + 3 + 1 + (1 + 5) + (1 + 3),
                unmap_changes: 3,
                blocks_allocated: 8 + 3 + 5 + 3,
                blocks_freed: 3 + 5 + 3,
            }
        );
        assert!(!fs.journal_dirty());
        let mut recovered = fs.clone().crash_and_recover();
        assert_eq!(recovered.readdir(), fs.readdir());
        for ino in [a, b] {
            let meta = |fs: &ExtFs| {
                let extents = fs.extents_snapshot(ino).expect("snap");
                (extents, fs.file_size(ino), fs.generations(ino))
            };
            assert_eq!(meta(&recovered), meta(&fs));
        }
        assert_eq!(recovered.stats(), fs.stats());
        assert_eq!(recovered.free_blocks(), fs.free_blocks());
        assert_eq!(recovered.drain_events().count(), 0, "replay fires nothing");
    }

    #[test]
    fn uncommitted_transaction_lost_on_crash() {
        let (mut fs, mut store) = setup();
        fs.create("a").expect("create");
        // unlink uses an explicit transaction internally; simulate a
        // crash mid-transaction by calling journal ops directly.
        let ino = fs.open("a").expect("open");
        fs.write(ino, 0, &vec![1u8; BLOCK_SIZE], &mut store)
            .expect("write");
        let recovered = fs.crash_and_recover();
        assert!(recovered.open("a").is_ok(), "committed create survives");
    }

    #[test]
    fn readdir_sorted() {
        let (mut fs, _) = setup();
        fs.create("b").expect("create");
        fs.create("a").expect("create");
        let names: Vec<String> = fs.readdir().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn a_checkpoint_moves_the_committed_prefix_into_the_image() {
        let (mut fs, mut store) = setup();
        let a = fs.create("a").expect("create");
        fs.write(a, 0, &vec![1u8; BLOCK_SIZE * 4], &mut store)
            .expect("write");
        fs.relocate(a, &mut store).expect("relocate");
        // A runtime writer's records are sealed, not yet durable.
        let b = fs.create("b").expect("create");
        fs.plan_write(b, 0, BLOCK_SIZE * 2, &mut store)
            .expect("plan");
        let sealed = fs.seal_journal();
        let committed = fs.journal().committed();
        let uncheckpointed = fs.clone();
        fs.checkpoint();
        assert_eq!(fs.journal().base(), committed);
        assert!(fs.journal().committed_records().is_empty());
        assert!(fs.journal_dirty(), "the sealed write is still pending");
        assert_eq!(
            fs.image.stats,
            uncheckpointed.clone().crash_and_recover().stats()
        );
        fs.commit_journal_sealed(sealed);
        assert!(!fs.journal_dirty(), "an absolute length, not the window's");
        // Recovery from the image lands where a full-log replay does,
        // at the checkpoint and past it.
        let mut full = uncheckpointed;
        full.commit_journal_sealed(sealed);
        let meta = |fs: ExtFs| {
            let files: Vec<_> = fs
                .readdir()
                .into_iter()
                .map(|(n, i)| {
                    (
                        n,
                        fs.extents_snapshot(i),
                        fs.generations(i),
                        fs.file_size(i),
                    )
                })
                .collect();
            (files, fs.stats(), fs.free_blocks())
        };
        for k in [committed, sealed.end] {
            let recovered = fs.clone().crash_and_recover_at(k);
            assert_eq!(
                meta(recovered),
                meta(full.clone().crash_and_recover_at(k)),
                "{k}"
            );
        }
        assert_eq!(meta(fs.clone().crash_and_recover()), meta(fs.clone()));
        // A crash at every record of either world recovers an allocator
        // that owns exactly the recovered extents' blocks.
        for world in [&fs, &full] {
            for k in world.journal().base()..=world.journal().len() {
                let mut recovered = world.clone().crash_and_recover_at(k);
                assert_eq!(recovered.fsck(), Ok(()), "{k}");
                assert_eq!(recovered.drain_events().count(), 0, "{k}");
            }
        }
    }

    #[test]
    fn fsck_is_clean_after_every_operation_kind() {
        let (mut fs, mut store) = setup();
        let clean = |fs: &ExtFs, what: &str| {
            assert_eq!(fs.fsck(), Ok(()), "after {what}");
            fs.ownership().used
        };
        assert_eq!(clean(&fs, "mkfs"), 0);
        let a = fs.create("a").expect("create");
        let b = fs.create("b").expect("create");
        fs.write(a, 0, &vec![1u8; BLOCK_SIZE * 6], &mut store)
            .expect("write");
        assert_eq!(clean(&fs, "write"), 6);
        fs.fallocate(b, 4, 8, &mut store).expect("fallocate");
        fs.fallocate(b, 0, 16, &mut store)
            .expect("fallocate around");
        assert_eq!(clean(&fs, "fallocate"), 6 + 16);
        fs.plan_write(a, 6 * BLOCK_SIZE as u64, BLOCK_SIZE * 2, &mut store)
            .expect("plan");
        let sealed = fs.seal_journal();
        assert_eq!(clean(&fs, "plan_write"), 8 + 16);
        fs.commit_journal_sealed(sealed);
        fs.truncate(a, 3 * BLOCK_SIZE as u64 - 7, &mut store)
            .expect("truncate");
        assert_eq!(clean(&fs, "truncate"), 3 + 16);
        fs.relocate(b, &mut store).expect("relocate");
        assert_eq!(clean(&fs, "relocate"), 3 + 16);
        fs.checkpoint();
        clean(&fs, "checkpoint");
        fs.unlink("b").expect("unlink");
        assert_eq!(clean(&fs, "unlink"), 3);
        // A write that finds the device full keeps what it mapped.
        let mut small = ExtFs::mkfs(4);
        let c = small.create("c").expect("create");
        let full = small.write(c, 0, &vec![1u8; BLOCK_SIZE * 8], &mut store);
        assert_eq!(full, Err(FsError::NoSpace));
        assert_eq!(clean(&small, "a write past the device's end"), 4);
    }

    #[test]
    fn fsck_names_a_stray_bit_a_released_mapped_run_and_a_block_mapped_twice() {
        let (mut fs, mut store) = setup();
        let a = fs.create("a").expect("create");
        fs.write(a, 0, &vec![1u8; BLOCK_SIZE * 4], &mut store)
            .expect("write");
        let (phys, run) = fs.map(a, 0).expect("map").expect("mapped");
        let counts = |mapped, marked, used| BlockOwnership {
            mapped,
            marked,
            used,
        };
        // A bit no extent owns.
        let mut leaked = fs.clone();
        leaked.alloc.alloc(1, 1_000).expect("stray bit");
        assert_eq!(leaked.fsck(), Err(FsckError::Leaked(counts(4, 4, 5))));
        // A mapped run handed back to the allocator.
        let mut released = fs.clone();
        released.alloc.release(phys, run);
        let unmarked = FsckError::Unmarked(counts(4, 0, 0));
        assert_eq!(released.fsck(), Err(unmarked));
        // A second file mapping the first one's block.
        let b = fs.create("b").expect("create");
        let inode = fs.meta.inodes.get_mut(&b).expect("inode");
        inode.extents.insert(Extent {
            logical: 0,
            physical: phys + 1,
            len: 1,
        });
        let twice = FsckError::DoublyMapped(counts(5, 5, 4));
        assert_eq!(fs.fsck(), Err(twice));
    }

    #[test]
    fn every_commit_path_checkpoints_past_the_trigger() {
        let (mut fs, mut store) = setup();
        let ino = fs.create("log").expect("create");
        let bs = BLOCK_SIZE as u64;
        // Appends of one block log a map and a size: two records each.
        let mut end = 0;
        let mut append = |fs: &mut ExtFs| {
            fs.plan_write(ino, end * bs, BLOCK_SIZE, &mut store)
                .expect("plan");
            end += 1;
        };
        while fs.journal().committed() < CHECKPOINT_RECORDS - 2 {
            append(&mut fs);
            fs.commit_journal();
        }
        assert_eq!(fs.journal().base(), 0);
        append(&mut fs);
        let sealed = fs.seal_journal();
        append(&mut fs);
        fs.commit_journal_sealed(sealed);
        assert_eq!(fs.journal().base(), sealed.end, "at the durable point");
        assert!(fs.journal_dirty(), "the running append stays pending");
        fs.commit_journal();
        assert!(!fs.journal_dirty());
        while fs.journal().committed() - fs.journal().base() < CHECKPOINT_RECORDS - 1 {
            fs.create(&format!("f{}", fs.journal().len()))
                .expect("create");
        }
        let before = fs.journal().base();
        fs.create("last").expect("create");
        assert_eq!(
            fs.journal().base(),
            before + CHECKPOINT_RECORDS,
            "end_op's commit"
        );
        assert_eq!(fs.file_size(ino).expect("size"), end * bs);
        let recovered = fs.clone().crash_and_recover();
        assert_eq!(recovered.extents_snapshot(ino), fs.extents_snapshot(ino));
        assert_eq!(recovered.readdir(), fs.readdir());
        assert_eq!(recovered.free_blocks(), fs.free_blocks());
    }
}
