//! LSM-tree substrate: the immutable-index workload of the paper.
//!
//! §4 of the paper targets data structures whose on-disk files are
//! immutable once written — LSM SSTables are the canonical example —
//! because their file extents stay stable, which is what makes the
//! NVMe-layer extent cache viable. This crate provides:
//!
//! - [`bloom`]: bloom filters for point-lookup pruning;
//! - [`sstable`]: the 512-byte-block SSTable format and the only code
//!   that parses it, with the cold lookup chain (footer → index
//!   block(s) → data block) as one stepper, [`ColdGet`], that is both
//!   the native walk and the oracle for the BPF offload program in
//!   `bpfstor-core`; a value read out of a table is a [`Value`], held
//!   inline;
//! - [`lsm`]: memtable + levels + size-tiered compaction over
//!   `bpfstor-fs`, whose unlink-based lifecycle generates exactly the
//!   unmap-event pattern the §4 extent-stability experiment measures.

pub mod bloom;
pub mod io;
pub mod lsm;
pub mod sstable;

pub use bloom::Bloom;
pub use io::{DirectIo, LsmIo};
pub use lsm::{LsmConfig, LsmError, LsmStats, LsmTree, TableHandle};
pub use sstable::{
    build_image, data_block_entries, data_block_search, index_block_search, ColdGet, ColdStep,
    Footer, SstError, Value, BLOCK, MAX_VALUE, SST_MAGIC,
};
