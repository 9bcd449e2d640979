//! The slow, obviously-right models the property tests compare the
//! real structures against — each the code as it was before it was
//! made fast — and the metadata snapshot every crash property compares
//! two file systems by.

use bpfstor::fs::{ExtFs, Extent};

mod bit_allocator;
mod blockwise_fs;
mod sector_map;

pub use bit_allocator::BitAllocator;
pub use blockwise_fs::Lockstep;
pub use sector_map::SectorMap;

/// Everything journal replay must reproduce: directory, sizes, extents,
/// and the allocator's free-space accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsMeta {
    files: Vec<(String, u64, u64, Vec<Extent>)>,
    free: u64,
}

pub fn fs_meta(fs: &ExtFs) -> FsMeta {
    let files = fs
        .readdir()
        .into_iter()
        .map(|(name, ino)| {
            (
                name,
                ino,
                fs.file_size(ino).expect("size"),
                fs.extents_snapshot(ino).expect("extents"),
            )
        })
        .collect();
    FsMeta {
        files,
        free: fs.free_blocks(),
    }
}
