//! The LSM tree's storage backend abstraction.
//!
//! Every `LsmTree` and `TableHandle` operation takes an [`LsmIo`]
//! backend and routes all table I/O through it:
//!
//! - [`DirectIo`] moves bytes synchronously (metadata + store, no
//!   timing) for unit tests and pure data-structure work;
//! - `bpfstor-core`'s `MachineLsmIo` drives the same calls through the
//!   simulated kernel's journaled write path, so every flushed SSTable
//!   and every compaction read/write pays queueing delay, doorbells,
//!   and interrupts on the device's SQ/CQ rings.

use bpfstor_device::SectorStore;
use bpfstor_fs::ExtFs;

use crate::lsm::LsmError;

/// How table bytes reach (and leave) storage.
pub trait LsmIo {
    /// Creates an empty file, returning its inode.
    ///
    /// # Errors
    ///
    /// Backend-specific failures (name collisions, no space).
    fn create(&mut self, name: &str) -> Result<u64, LsmError>;

    /// Removes a file (compaction deleting a dead table).
    ///
    /// # Errors
    ///
    /// Backend-specific failures.
    fn unlink(&mut self, name: &str) -> Result<(), LsmError>;

    /// Resolves a name to an inode.
    ///
    /// # Errors
    ///
    /// Missing files.
    fn open(&mut self, name: &str) -> Result<u64, LsmError>;

    /// File size in bytes.
    ///
    /// # Errors
    ///
    /// Bad inodes.
    fn file_size(&mut self, ino: u64) -> Result<u64, LsmError>;

    /// Writes `data` at byte offset `off`.
    ///
    /// # Errors
    ///
    /// Backend-specific failures (no space, I/O errors).
    fn write(&mut self, ino: u64, off: u64, data: &[u8]) -> Result<(), LsmError>;

    /// Reads `len` bytes at byte offset `off`.
    ///
    /// # Errors
    ///
    /// Backend-specific failures.
    fn read(&mut self, ino: u64, off: u64, len: usize) -> Result<Vec<u8>, LsmError>;

    /// Makes a freshly written table durable (journal commit / flush
    /// barrier). Default: nothing to do.
    ///
    /// # Errors
    ///
    /// Backend-specific failures.
    fn sync(&mut self, ino: u64) -> Result<(), LsmError> {
        let _ = ino;
        Ok(())
    }
}

/// The untimed backend: metadata straight into [`ExtFs`], bytes straight
/// into the [`SectorStore`] — right for data-structure unit tests.
pub struct DirectIo<'a> {
    /// File-system metadata plane.
    pub fs: &'a mut ExtFs,
    /// Device byte store.
    pub store: &'a mut SectorStore,
}

impl<'a> DirectIo<'a> {
    /// Bundles the two halves into a backend.
    pub fn new(fs: &'a mut ExtFs, store: &'a mut SectorStore) -> Self {
        DirectIo { fs, store }
    }
}

impl LsmIo for DirectIo<'_> {
    fn create(&mut self, name: &str) -> Result<u64, LsmError> {
        Ok(self.fs.create(name)?)
    }

    fn unlink(&mut self, name: &str) -> Result<(), LsmError> {
        Ok(self.fs.unlink(name)?)
    }

    fn open(&mut self, name: &str) -> Result<u64, LsmError> {
        Ok(self.fs.open(name)?)
    }

    fn file_size(&mut self, ino: u64) -> Result<u64, LsmError> {
        Ok(self.fs.file_size(ino)?)
    }

    fn write(&mut self, ino: u64, off: u64, data: &[u8]) -> Result<(), LsmError> {
        Ok(self.fs.write(ino, off, data, self.store)?)
    }

    fn read(&mut self, ino: u64, off: u64, len: usize) -> Result<Vec<u8>, LsmError> {
        Ok(self.fs.read(ino, off, len, self.store)?)
    }
}
