//! Extent-based file system substrate for the `bpfstor` reproduction.
//!
//! The paper's §4 design hinges on file-system behaviour: the NVMe layer
//! caches a file's logical→physical extent mappings, and the file system
//! promises to call an invalidation hook whenever blocks are unmapped.
//! This crate provides a real (simulated-disk) extent file system with
//! exactly that hook:
//!
//! - [`alloc`]: goal-directed block-group bitmap allocator (ext4-like,
//!   keeps appends contiguous so index files stay extent-stable);
//! - [`extent`]: sorted extent trees with merge/split/unmap;
//! - [`inode`]: per-file metadata with extent-change generations;
//! - [`journal`]: checkpointed transaction journal with crash/replay
//!   (jbd2-lite);
//! - [`pagecache`]: LRU block cache, kept only for the benchmark's
//!   micro-timing (the kernel is `O_DIRECT`-only);
//! - [`fs`]: the [`fs::ExtFs`] facade and the [`fs::ExtentEvent`]
//!   notification stream consumed by the simulated NVMe driver.
//!
//! Data payloads live in the device's sector store; this crate manages
//! metadata and translation only, which is what the storage stack needs
//! to charge realistic per-layer costs.

pub mod alloc;
pub mod extent;
pub mod fs;
pub mod inode;
pub mod journal;
pub mod pagecache;

pub use alloc::BlockAllocator;
pub use extent::{Extent, ExtentTree};
pub use fs::{
    cut_runs, BlockOwnership, ExtFs, ExtentEvent, FsError, FsStats, FsckError, BLOCK_SIZE,
};
pub use inode::Inode;
pub use journal::{Journal, JournalRecord, SealedTxn, CHECKPOINT_RECORDS};
pub use pagecache::{CacheStats, PageCache};
