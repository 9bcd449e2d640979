//! The slow, obviously-right models the property tests compare the
//! real structures against — each the code as it was before it was
//! made fast — and the metadata snapshot every crash property compares
//! two file systems by.

use bpfstor::fs::{ExtFs, Extent, FsStats};

mod bit_allocator;
mod blockwise_fs;
mod sector_map;
mod table_histogram;

pub use bit_allocator::BitAllocator;
pub use blockwise_fs::Lockstep;
pub use sector_map::SectorMap;
pub use table_histogram::TableHistogram;

/// Everything journal replay must reproduce: directory, sizes, extents,
/// both generation counters of every file, the activity counters, and
/// the allocator's free-space accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsMeta {
    files: Vec<FileMeta>,
    stats: FsStats,
    free: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct FileMeta {
    name: String,
    ino: u64,
    size: u64,
    extents: Vec<Extent>,
    /// `(any, unmap-only)` extent-change generations.
    generations: (u64, u64),
}

/// Snapshots `fs`'s metadata, first checking that its allocator owns
/// exactly the blocks its extent trees map (`ExtFs::fsck`): every
/// crash point a property compares is an ownership check too.
pub fn fs_meta(fs: &ExtFs) -> FsMeta {
    assert_eq!(fs.fsck(), Ok(()), "block ownership");
    let files = fs
        .readdir()
        .into_iter()
        .map(|(name, ino)| FileMeta {
            name,
            ino,
            size: fs.file_size(ino).expect("size"),
            extents: fs.extents_snapshot(ino).expect("extents"),
            generations: fs.generations(ino).expect("generations"),
        })
        .collect();
    FsMeta {
        files,
        stats: fs.stats(),
        free: fs.free_blocks(),
    }
}
