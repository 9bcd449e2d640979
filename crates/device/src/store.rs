//! Sparse sector-addressed backing store.
//!
//! Devices are thin-provisioned: sectors hold real bytes only once
//! written; reads of unwritten sectors return zeroes (as a freshly
//! formatted namespace would). Sparse storage lets the benchmarks build
//! deep B-trees whose *address space* is large while the host memory
//! footprint stays proportional to the bytes actually written.

use std::collections::HashMap;

/// Logical block (sector) size in bytes. The paper's experiments use
/// 512 B reads, so one B-tree node = one sector = one NVMe command.
pub const SECTOR_SIZE: usize = 512;

/// A sparse array of 512-byte sectors.
#[derive(Debug, Default)]
pub struct SectorStore {
    sectors: HashMap<u64, Box<[u8; SECTOR_SIZE]>>,
}

impl SectorStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        SectorStore::default()
    }

    /// Reads `nlb` sectors starting at `slba` into a fresh buffer.
    pub fn read(&mut self, slba: u64, nlb: u32) -> Vec<u8> {
        let mut out = vec![0u8; nlb as usize * SECTOR_SIZE];
        for i in 0..nlb as u64 {
            if let Some(s) = self.sectors.get(&(slba + i)) {
                let at = i as usize * SECTOR_SIZE;
                out[at..at + SECTOR_SIZE].copy_from_slice(&s[..]);
            }
        }
        out
    }

    /// Writes `data` starting at `slba`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of [`SECTOR_SIZE`]; the
    /// NVMe command layer only issues whole sectors.
    pub fn write(&mut self, slba: u64, data: &[u8]) {
        assert!(
            data.len().is_multiple_of(SECTOR_SIZE),
            "write length {} not sector-aligned",
            data.len()
        );
        for (i, chunk) in data.chunks_exact(SECTOR_SIZE).enumerate() {
            let sector = self
                .sectors
                .entry(slba + i as u64)
                .or_insert_with(|| Box::new([0u8; SECTOR_SIZE]));
            sector.copy_from_slice(chunk);
        }
    }

    /// Discards (TRIMs) `nlb` sectors starting at `slba`, returning them
    /// to the all-zero thin-provisioned state.
    pub fn discard(&mut self, slba: u64, nlb: u32) {
        for i in 0..nlb as u64 {
            self.sectors.remove(&(slba + i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_sectors_read_zero() {
        let mut s = SectorStore::new();
        assert_eq!(s.read(42, 2), vec![0u8; 1024]);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut s = SectorStore::new();
        let data: Vec<u8> = (0..SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
        s.write(7, &data);
        assert_eq!(s.read(7, 1), data);
    }

    #[test]
    fn multi_sector_write_spans() {
        let mut s = SectorStore::new();
        let data: Vec<u8> = (0..2 * SECTOR_SIZE).map(|i| (i % 13) as u8).collect();
        s.write(100, &data);
        assert_eq!(s.read(100, 2), data);
        assert_eq!(s.read(101, 1), data[SECTOR_SIZE..]);
        assert_eq!(s.sectors.len(), 2);
    }

    #[test]
    fn partial_overlap_reads_mix_zero_and_data() {
        let mut s = SectorStore::new();
        s.write(5, &[0xAAu8; SECTOR_SIZE]);
        let out = s.read(4, 3);
        assert!(out[..SECTOR_SIZE].iter().all(|&b| b == 0));
        assert!(out[SECTOR_SIZE..2 * SECTOR_SIZE].iter().all(|&b| b == 0xAA));
        assert!(out[2 * SECTOR_SIZE..].iter().all(|&b| b == 0));
    }

    #[test]
    fn discard_zeroes() {
        let mut s = SectorStore::new();
        s.write(9, &[1u8; SECTOR_SIZE]);
        s.discard(9, 1);
        assert_eq!(s.read(9, 1), vec![0u8; SECTOR_SIZE]);
        assert_eq!(s.sectors.len(), 0);
    }

    #[test]
    #[should_panic(expected = "not sector-aligned")]
    fn unaligned_write_panics() {
        SectorStore::new().write(0, &[0u8; 100]);
    }
}
