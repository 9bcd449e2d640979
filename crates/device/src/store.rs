//! Sparse sector-addressed backing store.
//!
//! Devices are thin-provisioned: sectors hold real bytes only once
//! written; reads of unwritten sectors return zeroes (as a freshly
//! formatted namespace would). Sparse storage lets the benchmarks build
//! deep B-trees whose *address space* is large while the host memory
//! footprint stays proportional to the bytes actually written.
//!
//! The sparseness is chunk-granular: the address space is a table of
//! lazily allocated [`CHUNK_SECTORS`]-sector chunks indexed by
//! `lba / CHUNK_SECTORS`, so a ranged read, write or discard costs one
//! `memcpy`/`fill` per chunk it overlaps and a dense image costs its
//! own bytes plus one pointer per chunk. The file system allocates
//! goal-directed — a file's next run starts where its last one ended,
//! else first-fit from the goal's block group (`fs/src/alloc.rs`) —
//! over a device that fills from block 0, which keeps written LBAs,
//! and therefore the table, dense.

/// Logical block (sector) size in bytes. The paper's experiments use
/// 512 B reads, so one B-tree node = one sector = one NVMe command.
pub const SECTOR_SIZE: usize = 512;

/// Sectors per lazily allocated chunk. 8 KiB measured fastest on the
/// write-heavy benchmark workloads (docs/PERF.md has the sweep): one
/// allocation per two 4 KiB appends, and small enough that glibc keeps
/// a dropped image's memory for the next one instead of trimming the
/// heap and faulting every page in again.
const CHUNK_SECTORS: u64 = 16;
const CHUNK_BYTES: usize = CHUNK_SECTORS as usize * SECTOR_SIZE;

type Chunk = Box<[u8; CHUNK_BYTES]>;

/// A sparse array of 512-byte sectors.
#[derive(Debug, Default)]
pub struct SectorStore {
    /// `chunks[lba / CHUNK_SECTORS]`; absent (or past the end) reads as
    /// zeroes. A discarded sector of a present chunk is zero-filled.
    chunks: Vec<Option<Chunk>>,
}

/// Splits `nlb` sectors from `slba` at chunk boundaries: `(chunk index,
/// byte offset in the chunk, byte length)` per overlap, in LBA order.
fn spans(slba: u64, nlb: u64) -> impl Iterator<Item = (usize, usize, usize)> {
    let (mut lba, end) = (slba, slba + nlb);
    std::iter::from_fn(move || {
        if lba == end {
            return None;
        }
        let in_chunk = lba % CHUNK_SECTORS;
        let n = (CHUNK_SECTORS - in_chunk).min(end - lba);
        let span = (
            (lba / CHUNK_SECTORS) as usize,
            in_chunk as usize * SECTOR_SIZE,
            n as usize * SECTOR_SIZE,
        );
        lba += n;
        Some(span)
    })
}

fn sectors_in(bytes: usize, what: &str) -> u64 {
    assert!(
        bytes.is_multiple_of(SECTOR_SIZE),
        "{what} length {bytes} not sector-aligned"
    );
    (bytes / SECTOR_SIZE) as u64
}

impl SectorStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        SectorStore::default()
    }

    fn chunk(&self, idx: usize) -> Option<&Chunk> {
        self.chunks.get(idx)?.as_ref()
    }

    /// Reads `nlb` sectors starting at `slba` into a fresh buffer.
    pub fn read(&mut self, slba: u64, nlb: u32) -> Vec<u8> {
        let mut out = vec![0u8; nlb as usize * SECTOR_SIZE];
        self.read_into(slba, &mut out);
        out
    }

    /// Reads the `out.len() / SECTOR_SIZE` sectors starting at `slba`
    /// into `out`, overwriting all of it.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a multiple of [`SECTOR_SIZE`].
    pub fn read_into(&self, slba: u64, out: &mut [u8]) {
        let mut pos = 0;
        for (idx, at, len) in spans(slba, sectors_in(out.len(), "read")) {
            match self.chunk(idx) {
                Some(c) => out[pos..pos + len].copy_from_slice(&c[at..at + len]),
                None => out[pos..pos + len].fill(0),
            }
            pos += len;
        }
    }

    /// The whole sectors a write of `src`, starting `head` bytes into
    /// sector `slba`, leaves behind: `src` framed by the stored bytes of
    /// its partial first and last sector — the read half of a
    /// read-modify-write, one copy of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `head >= SECTOR_SIZE`.
    pub fn read_modify(&self, slba: u64, head: usize, src: &[u8]) -> Vec<u8> {
        assert!(head < SECTOR_SIZE, "head {head} past the first sector");
        let mut out = Vec::with_capacity((head + src.len()).next_multiple_of(SECTOR_SIZE));
        let mut edge = [0u8; SECTOR_SIZE];
        if head != 0 {
            self.read_into(slba, &mut edge);
            out.extend_from_slice(&edge[..head]);
        }
        out.extend_from_slice(src);
        let tail = out.len() % SECTOR_SIZE;
        if tail != 0 {
            self.read_into(slba + (out.len() / SECTOR_SIZE) as u64, &mut edge);
            out.extend_from_slice(&edge[tail..]);
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
        let nlb = sectors_in(data.len(), "write");
        let table = (slba + nlb).div_ceil(CHUNK_SECTORS) as usize;
        if nlb > 0 && table > self.chunks.len() {
            self.chunks.resize_with(table, || None);
        }
        let mut pos = 0;
        for (idx, at, len) in spans(slba, nlb) {
            let chunk = self.chunks[idx].get_or_insert_with(|| {
                let zeroed = vec![0u8; CHUNK_BYTES].into_boxed_slice();
                zeroed.try_into().expect("CHUNK_BYTES long")
            });
            chunk[at..at + len].copy_from_slice(&data[pos..pos + len]);
            pos += len;
        }
    }

    /// Discards (TRIMs) `nlb` sectors starting at `slba`, returning them
    /// to the all-zero thin-provisioned state. A chunk the range covers
    /// whole is freed.
    pub fn discard(&mut self, slba: u64, nlb: u32) {
        for (idx, at, len) in spans(slba, nlb.into()) {
            let Some(slot) = self.chunks.get_mut(idx) else {
                return;
            };
            if len == CHUNK_BYTES {
                *slot = None;
            } else if let Some(chunk) = slot {
                chunk[at..at + len].fill(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SectorStore {
        fn live_chunks(&self) -> usize {
            self.chunks.iter().flatten().count()
        }

        /// Live heap the store holds: the table plus the chunks.
        fn heap_bytes(&self) -> usize {
            self.chunks.capacity() * std::mem::size_of::<Option<Chunk>>()
                + self.live_chunks() * CHUNK_BYTES
        }
    }

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
    }

    #[test]
    fn ranges_straddle_chunk_boundaries() {
        let mut s = SectorStore::new();
        let slba = CHUNK_SECTORS - 1;
        let data: Vec<u8> = (0..3 * SECTOR_SIZE).map(|i| (i % 17) as u8 + 1).collect();
        s.write(slba, &data);
        assert_eq!(s.live_chunks(), 2);
        assert_eq!(s.read(slba, 3), data);
        let mut out = vec![0xFFu8; 5 * SECTOR_SIZE];
        s.read_into(slba - 1, &mut out);
        assert!(out[..SECTOR_SIZE].iter().all(|&b| b == 0));
        assert_eq!(out[SECTOR_SIZE..4 * SECTOR_SIZE], data);
        assert!(out[4 * SECTOR_SIZE..].iter().all(|&b| b == 0));
        s.discard(slba + 1, 1);
        assert_eq!(s.read(slba, 1), data[..SECTOR_SIZE]);
        assert_eq!(s.read(slba + 1, 1), vec![0u8; SECTOR_SIZE]);
        assert_eq!(s.read(slba + 2, 1), data[2 * SECTOR_SIZE..]);
    }

    #[test]
    fn reads_and_discards_never_allocate() {
        let mut s = SectorStore::new();
        s.read(1 << 40, 4);
        s.read_into(1 << 40, &mut [1u8; SECTOR_SIZE]);
        s.discard(1 << 40, 4);
        s.write(0, &[]);
        assert_eq!(s.heap_bytes(), 0);
    }

    #[test]
    fn read_modify_frames_the_payload_with_stored_edges() {
        let mut s = SectorStore::new();
        s.write(10, &[0xAAu8; 3 * SECTOR_SIZE]);
        // Aligned whole sectors: the payload itself.
        assert_eq!(
            s.read_modify(10, 0, &[1u8; SECTOR_SIZE]),
            [1u8; SECTOR_SIZE]
        );
        // Inside one sector: both edges come from the store.
        let one = s.read_modify(10, 100, b"hello");
        assert_eq!(one.len(), SECTOR_SIZE);
        assert_eq!(&one[100..105], b"hello");
        assert!(one[..100].iter().chain(&one[105..]).all(|&b| b == 0xAA));
        // Head in one sector, tail two sectors on.
        let span = s.read_modify(10, 500, &[7u8; 600]);
        assert_eq!(span.len(), 3 * SECTOR_SIZE);
        assert!(span[..500].iter().all(|&b| b == 0xAA));
        assert!(span[500..1100].iter().all(|&b| b == 7));
        assert!(span[1100..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn dense_image_costs_no_more_than_the_per_sector_map_did() {
        // `device.store_bytes_per_sector` read 534 B with one boxed
        // sector per hash-map entry.
        const SECTORS: u64 = 200_000;
        let mut s = SectorStore::new();
        for slba in 0..SECTORS {
            s.write(slba, &[0xA5u8; SECTOR_SIZE]);
        }
        assert!(
            s.heap_bytes() as u64 <= 534 * SECTORS,
            "{} B for {SECTORS} sectors",
            s.heap_bytes()
        );
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
    }

    #[test]
    fn discarding_a_whole_chunk_frees_it() {
        let mut s = SectorStore::new();
        s.write(CHUNK_SECTORS - 1, &[1u8; 3 * SECTOR_SIZE]);
        s.write(2 * CHUNK_SECTORS, &[2u8; SECTOR_SIZE]);
        assert_eq!(s.live_chunks(), 3);
        s.discard(CHUNK_SECTORS - 1, CHUNK_SECTORS as u32 + 1);
        assert_eq!(
            s.live_chunks(),
            2,
            "only the middle chunk was covered whole"
        );
        assert_eq!(s.read(CHUNK_SECTORS - 1, 3), vec![0u8; 3 * SECTOR_SIZE]);
        assert_eq!(s.read(2 * CHUNK_SECTORS, 1), vec![2u8; SECTOR_SIZE]);
    }

    #[test]
    #[should_panic(expected = "not sector-aligned")]
    fn unaligned_write_panics() {
        SectorStore::new().write(0, &[0u8; 100]);
    }
}
