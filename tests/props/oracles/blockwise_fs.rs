use bpfstor::device::SectorStore;
use bpfstor::fs::alloc::GROUP_BLOCKS;
use bpfstor::fs::{ExtFs, Extent, ExtentTree, FsStats};

use super::{fs_meta, BitAllocator};

/// The metadata half of the file system as it was when `write` and
/// `plan_write` mapped one block per `allocate_block` call: placement,
/// extent trees, generations, counters and sizes, over the bit-at-a-time
/// allocator. No journal — what the journal must replay to is the live
/// state itself.
struct BlockwiseFs {
    alloc: BitAllocator,
    files: Vec<BlockwiseFile>,
    stats: FsStats,
}

#[derive(Default)]
struct BlockwiseFile {
    extents: ExtentTree,
    size: u64,
    generation: u64,
}

impl BlockwiseFs {
    fn allocate_block(&mut self, file: usize, lb: u64) -> Option<u64> {
        let f = &mut self.files[file];
        let goal = lb
            .checked_sub(1)
            .and_then(|prev| f.extents.lookup(prev))
            .map_or(0, |(p, _)| p + 1);
        let run = self.alloc.alloc(1, goal)?;
        f.extents.insert(Extent {
            logical: lb,
            physical: run.start,
            len: 1,
        });
        f.generation += 1;
        self.stats.extent_changes += 1;
        self.stats.blocks_allocated += 1;
        Some(run.start)
    }

    /// Maps `[lb, end)` a block at a time; returns the merged physical
    /// segments and whether the device had room for all of it.
    fn map_blocks(&mut self, file: usize, lb: u64, end: u64) -> (Vec<(u64, u64)>, bool) {
        let mut segments: Vec<(u64, u64)> = Vec::new();
        for lb in lb..end {
            let mapped = self.files[file].extents.lookup(lb).map(|(p, _)| p);
            let Some(phys) = mapped.or_else(|| self.allocate_block(file, lb)) else {
                return (segments, false);
            };
            match segments.last_mut() {
                Some((start, n)) if *start + *n == phys => *n += 1,
                _ => segments.push((phys, 1)),
            }
        }
        (segments, true)
    }

    fn truncate(&mut self, file: usize, new_size: u64) {
        let f = &mut self.files[file];
        let keep = new_size.div_ceil(512);
        let last = f.extents.iter().last().map_or(0, |e| e.logical_end());
        let removed = if last > keep {
            f.extents.remove_range(keep, last - keep)
        } else {
            Vec::new()
        };
        if !removed.is_empty() {
            f.generation += 1;
            self.stats.extent_changes += 1;
            self.stats.unmap_changes += 1;
        }
        for e in removed {
            self.alloc.release(e.physical, e.len);
            self.stats.blocks_freed += e.len;
        }
        f.size = f.size.min(new_size);
    }
}

/// The file system and its block-at-a-time reference, driven in
/// lockstep.
pub struct Lockstep {
    nblocks: u64,
    fs: ExtFs,
    store: SectorStore,
    inos: Vec<u64>,
    reference: BlockwiseFs,
}

impl Lockstep {
    pub const BS: u64 = 512;

    /// Three empty files on one group small enough to fill, or on two
    /// with the first nearly full, so goals and first-fit scans cross
    /// the group boundary.
    pub fn new(two_groups: bool) -> Self {
        let nblocks = if two_groups { GROUP_BLOCKS + 400 } else { 300 };
        let mut fs = ExtFs::mkfs(nblocks);
        let inos = (0..3)
            .map(|i| fs.create(&format!("f{i}")).expect("create"))
            .collect();
        let mut both = Lockstep {
            nblocks,
            fs,
            store: SectorStore::new(),
            inos,
            reference: BlockwiseFs {
                alloc: BitAllocator::new(nblocks),
                files: (0..3).map(|_| BlockwiseFile::default()).collect(),
                stats: Default::default(),
            },
        };
        if two_groups {
            both.write_range(0, 0, (GROUP_BLOCKS - 60) * Self::BS, 2);
        }
        both
    }

    pub fn end_block(&self, file: usize) -> u64 {
        self.reference.files[file].size.div_ceil(Self::BS)
    }

    /// One byte range through `write` (0), `plan_write` (1) or
    /// `fallocate` (2), on both sides.
    pub fn write_range(&mut self, file: usize, off: u64, len: u64, via: u8) {
        let (lb, end) = (off / Self::BS, (off + len).div_ceil(Self::BS));
        let (segments, fit) = self.reference.map_blocks(file, lb, end);
        let covered: u64 = segments.iter().map(|s| s.1).sum();
        let (ino, store) = (self.inos[file], &mut self.store);
        let reached = match via {
            0 => {
                let got = self.fs.write(ino, off, &vec![7u8; len as usize], store);
                assert_eq!(got.is_ok(), fit);
                // A short write ends where the device filled up.
                Some(if fit {
                    off + len
                } else {
                    off.max((lb + covered) * Self::BS)
                })
            }
            1 => {
                let got = self.fs.plan_write(ino, off, len as usize, store);
                self.fs.commit_journal();
                assert_eq!(
                    got.as_ref().ok(),
                    fit.then_some(&segments),
                    "planned segments"
                );
                fit.then_some(off + len)
            }
            _ => {
                let got = self.fs.fallocate(ino, lb, end - lb, store);
                assert_eq!(got.is_ok(), fit);
                fit.then_some(end * Self::BS)
            }
        };
        let f = &mut self.reference.files[file];
        f.size = f.size.max(reached.unwrap_or(0));
    }

    pub fn truncate(&mut self, file: usize, new_size: u64) {
        self.fs
            .truncate(self.inos[file], new_size, &mut self.store)
            .expect("truncate");
        self.reference.truncate(file, new_size);
    }

    /// Placement, extent trees, generations, sizes, counters and free
    /// space agree, and — every step ends on a commit point — journal
    /// replay lands on the live state.
    pub fn check(&self) {
        for (f, &ino) in self.reference.files.iter().zip(&self.inos) {
            assert_eq!(
                self.fs.extents_snapshot(ino).expect("extents"),
                f.extents.snapshot()
            );
            assert_eq!(
                self.fs.generations(ino).expect("generations").0,
                f.generation
            );
            assert_eq!(self.fs.file_size(ino).expect("size"), f.size);
        }
        assert_eq!(self.fs.stats(), self.reference.stats);
        assert_eq!(
            self.fs.free_blocks(),
            self.nblocks - self.reference.alloc.used
        );
        assert!(!self.fs.journal_dirty());
        let recovered = self.fs.clone().crash_and_recover();
        assert_eq!(fs_meta(&recovered), fs_meta(&self.fs));
    }
}
