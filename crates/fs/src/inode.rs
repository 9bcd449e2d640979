//! Inodes: per-file metadata.

use crate::extent::ExtentTree;

/// A file's metadata: size, extent mappings, and two generation
/// counters — one bumped on every extent change, one only on unmaps
/// (the NVMe extent cache compares `unmap_generation` to detect stale
/// snapshots).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Inode {
    /// Inode number.
    pub ino: u64,
    /// File size in bytes.
    pub size: u64,
    /// Logical→physical mappings.
    pub extents: ExtentTree,
    /// Incremented whenever `extents` changes: by the blocks a map adds,
    /// by one per unmapped range.
    pub generation: u64,
    /// Incremented only when blocks are *unmapped* (the invalidation-
    /// relevant events of §4).
    pub unmap_generation: u64,
}

impl Inode {
    /// Creates an empty file.
    pub fn new(ino: u64) -> Self {
        Inode {
            ino,
            ..Inode::default()
        }
    }

    /// Number of blocks currently mapped.
    pub fn mapped_blocks(&self) -> u64 {
        self.extents.mapped_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Extent;

    #[test]
    fn new_inode_is_empty() {
        let i = Inode::new(7);
        assert_eq!(i.ino, 7);
        assert_eq!(i.size, 0);
        assert_eq!(i.mapped_blocks(), 0);
        assert_eq!(i.generation, 0);
    }

    #[test]
    fn mapped_blocks_counts() {
        let mut i = Inode::new(1);
        i.extents.insert(Extent {
            logical: 0,
            physical: 10,
            len: 4,
        });
        assert_eq!(i.mapped_blocks(), 4);
    }
}
