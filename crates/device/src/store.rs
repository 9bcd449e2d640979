//! Sparse sector-addressed backing store.
//!
//! Devices are thin-provisioned, and the unit of thinness is the sector:
//! a sector holds host memory only while its bytes are not all zero.
//! A sector never written, overwritten with zeroes or discarded is a
//! *hole* and reads as zeroes (as a freshly formatted namespace would).
//! So the benchmarks can build deep B-trees whose *address space* is
//! large, and a log of zero-padded records costs only its non-zero
//! sectors, while the host memory footprint stays proportional to the
//! non-zero bytes actually stored.
//!
//! An index (`slots`, 4 bytes per LBA up to the highest non-zero LBA
//! written) maps each sector to a slot in a slab of fixed
//! [`PAGE_SECTORS`]-sector pages. A write checks each sector: an
//! all-zero one becomes a hole and gives its slot, if it had one, to a
//! free list; any other overwrites its own slot or takes a free one,
//! and the slab grows by a page when no slot is free. A discard frees
//! slots; a read copies each slot or fills zeroes. A dense image costs
//! its own bytes plus 4 bytes of index per sector and one pointer per
//! page. The file system allocates goal-directed — a file's next run
//! starts where its last one ended, else first-fit from the goal's
//! block group (`fs/src/alloc.rs`) — over a device that fills from
//! block 0, which keeps written LBAs, and therefore the index, dense.

/// Logical block (sector) size in bytes. The paper's experiments use
/// 512 B reads, so one B-tree node = one sector = one NVMe command.
pub const SECTOR_SIZE: usize = 512;

/// Sectors per slab page. 8 KiB measured fastest on the write-heavy
/// benchmark workloads (docs/PERF.md §"Chunk size" has the sweep): it is
/// small enough that glibc keeps a dropped image's pages on its free
/// lists for the next image, where 16 KiB and larger blocks are trimmed
/// from the heap and every page of the next image faults in again.
const PAGE_SECTORS: usize = 16;
const PAGE_BYTES: usize = PAGE_SECTORS * SECTOR_SIZE;

type Page = Box<[u8; PAGE_BYTES]>;

/// A sparse array of 512-byte sectors.
#[derive(Debug, Default)]
pub struct SectorStore {
    /// `slots[lba]`: 0 is a hole, `n` is the sector in slot `n - 1`.
    /// Past the end is a hole too.
    slots: Vec<u32>,
    /// The slab: slot `s` is sector `s % PAGE_SECTORS` of
    /// `pages[s / PAGE_SECTORS]`.
    pages: Vec<Page>,
    /// The slots of the slab that hold no sector, taken from the top.
    free: Vec<u32>,
}

fn assert_whole_sectors(bytes: usize, what: &str) {
    assert!(
        bytes.is_multiple_of(SECTOR_SIZE),
        "{what} length {bytes} not sector-aligned"
    );
}

/// Where slot `slot` lives: its page, and its bytes in the page.
fn place(slot: u32) -> (usize, std::ops::Range<usize>) {
    let slot = slot as usize;
    let at = slot % PAGE_SECTORS * SECTOR_SIZE;
    (slot / PAGE_SECTORS, at..at + SECTOR_SIZE)
}

/// Whether a sector's bytes are all zero: an OR over 64-byte blocks,
/// which vectorises, stopping at the first block that is not zero.
fn is_zero(sector: &[u8]) -> bool {
    sector
        .chunks_exact(64)
        .all(|block| block.iter().fold(0, |acc, &b| acc | b) == 0)
}

impl SectorStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        SectorStore::default()
    }

    /// The slot holding sector `lba`, or `None` for a hole.
    fn slot(&self, lba: u64) -> Option<u32> {
        self.slots.get(usize::try_from(lba).ok()?)?.checked_sub(1)
    }

    /// Reads `nlb` sectors starting at `slba` into a fresh buffer.
    pub fn read(&self, slba: u64, nlb: u32) -> Vec<u8> {
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
        assert_whole_sectors(out.len(), "read");
        for (lba, dst) in (slba..).zip(out.chunks_exact_mut(SECTOR_SIZE)) {
            match self.slot(lba) {
                Some(slot) => {
                    let (page, bytes) = place(slot);
                    dst.copy_from_slice(&self.pages[page][bytes]);
                }
                None => dst.fill(0),
            }
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
        assert_whole_sectors(data.len(), "write");
        for (lba, src) in (slba..).zip(data.chunks_exact(SECTOR_SIZE)) {
            if is_zero(src) {
                self.punch(lba);
                continue;
            }
            let idx = usize::try_from(lba).expect("LBA within the address space");
            if idx >= self.slots.len() {
                self.slots.resize(idx + 1, 0);
            }
            let slot = match self.slots[idx] {
                0 => {
                    let slot = self.take_slot();
                    self.slots[idx] = slot + 1;
                    slot
                }
                n => n - 1,
            };
            let (page, bytes) = place(slot);
            self.pages[page][bytes].copy_from_slice(src);
        }
    }

    /// A free slot, growing the slab by a page when none is.
    fn take_slot(&mut self) -> u32 {
        if self.free.is_empty() {
            let first = self.pages.len() * PAGE_SECTORS;
            let end = u32::try_from(first + PAGE_SECTORS).expect("under 2^32 stored sectors");
            let zeroed = vec![0u8; PAGE_BYTES].into_boxed_slice();
            self.pages.push(zeroed.try_into().expect("PAGE_BYTES long"));
            // Highest first, so the page fills from its first slot.
            self.free.extend((end - PAGE_SECTORS as u32..end).rev());
        }
        self.free.pop().expect("a page of free slots")
    }

    /// Makes sector `lba` a hole, freeing its slot if it had one.
    fn punch(&mut self, lba: u64) {
        if let Some(slot) = self.slot(lba) {
            self.slots[lba as usize] = 0;
            self.free.push(slot);
        }
    }

    /// Discards (TRIMs) `nlb` sectors starting at `slba`, returning them
    /// to the all-zero thin-provisioned state and their slots to the
    /// free list.
    pub fn discard(&mut self, slba: u64, nlb: u32) {
        let end = slba.saturating_add(nlb.into()).min(self.slots.len() as u64);
        for lba in slba..end {
            self.punch(lba);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SectorStore {
        /// Live heap the store holds: the index, the free list, the
        /// page table and the pages.
        fn heap_bytes(&self) -> usize {
            (self.slots.capacity() + self.free.capacity()) * size_of::<u32>()
                + self.pages.capacity() * size_of::<Page>()
                + self.pages.len() * PAGE_BYTES
        }
    }

    #[test]
    fn unwritten_sectors_read_zero() {
        let s = SectorStore::new();
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
        // The 16 sectors of a page are a chunk of slots, not of LBAs:
        // fill the first page to one short, so the range lands across it.
        let mut s = SectorStore::new();
        let slba = PAGE_SECTORS as u64 - 1;
        s.write(0, &vec![9u8; (PAGE_SECTORS - 1) * SECTOR_SIZE]);
        let data: Vec<u8> = (0..3 * SECTOR_SIZE).map(|i| (i % 17) as u8 + 1).collect();
        s.write(slba, &data);
        assert_eq!(s.pages.len(), 2);
        assert_eq!(s.read(slba, 3), data);
        let mut out = vec![0xFFu8; 5 * SECTOR_SIZE];
        s.read_into(slba - 1, &mut out);
        assert!(out[..SECTOR_SIZE].iter().all(|&b| b == 9));
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
        s.discard(u64::MAX - 1, u32::MAX);
        s.write(0, &[]);
        assert_eq!(s.heap_bytes(), 0);
    }

    #[test]
    fn a_write_of_zero_sectors_allocates_nothing() {
        let mut s = SectorStore::new();
        s.write(1 << 20, &[0u8; 8 * SECTOR_SIZE]);
        assert_eq!(s.heap_bytes(), 0);
        assert_eq!(s.read(1 << 20, 8), vec![0u8; 8 * SECTOR_SIZE]);
        // One non-zero byte, anywhere in the sector, keeps it.
        let mut last = [0u8; SECTOR_SIZE];
        last[SECTOR_SIZE - 1] = 1;
        s.write(3, &last);
        assert_eq!(s.read(3, 1), last);
        assert_eq!(s.pages.len(), 1);
    }

    #[test]
    fn zeroing_a_sector_makes_it_a_hole() {
        let mut s = SectorStore::new();
        s.write(4, &[7u8; 2 * SECTOR_SIZE]);
        let mut mixed = vec![0u8; 2 * SECTOR_SIZE];
        mixed[SECTOR_SIZE..].fill(8);
        s.write(4, &mixed);
        assert_eq!(s.read(3, 4)[SECTOR_SIZE..3 * SECTOR_SIZE], mixed);
        assert_eq!(
            (s.slot(4), s.slot(5)),
            (None, Some(1)),
            "overwritten in place"
        );
        assert_eq!(s.free.last(), Some(&0), "the zeroed sector's slot is free");
    }

    #[test]
    fn zeroed_and_discarded_slots_are_reused_before_a_page_is_added() {
        const N: u64 = 3 * PAGE_SECTORS as u64;
        let mut s = SectorStore::new();
        s.write(0, &[1u8; N as usize * SECTOR_SIZE]);
        let pages = s.pages.len();
        assert_eq!(pages, 3);
        s.write(0, &[0u8; (N / 2) as usize * SECTOR_SIZE]);
        s.discard(N / 2, (N - N / 2) as u32);
        assert_eq!(s.read(0, N as u32), vec![0u8; N as usize * SECTOR_SIZE]);
        for lba in (N..3 * N).step_by(2) {
            s.write(lba, &[lba as u8 | 1; SECTOR_SIZE]);
        }
        assert_eq!(s.pages.len(), pages, "N non-zero writes added a page");
        for lba in (N..3 * N).step_by(2) {
            assert_eq!(s.read(lba, 2)[..SECTOR_SIZE], [lba as u8 | 1; SECTOR_SIZE]);
        }
        s.write(3 * N, &[2u8; SECTOR_SIZE]);
        assert_eq!(s.pages.len(), pages + 1, "the N + 1st needs a page");
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
    fn zero_padded_records_cost_their_nonzero_sectors() {
        // `tenant_noisy`'s log: 4 KiB records, an 8-byte key and zeroes,
        // appended back to back. Each costs its first sector and eight
        // index entries, not the 4 KiB it spans.
        const RECORDS: usize = 1_000;
        const RECORD: usize = 8 * SECTOR_SIZE;
        let mut s = SectorStore::new();
        let mut record = [0u8; RECORD];
        for key in 0..RECORDS {
            record[..8].copy_from_slice(&(key as u64 + 1).to_le_bytes());
            s.write((key * RECORD / SECTOR_SIZE) as u64, &record);
        }
        let slack = (s.slots.capacity() - s.slots.len()) * size_of::<u32>();
        let index = RECORD / SECTOR_SIZE * size_of::<u32>();
        let bound = RECORDS * (SECTOR_SIZE + index) + PAGE_BYTES + slack;
        assert!(
            s.heap_bytes() <= bound,
            "{} B for {RECORDS} records (bound {bound})",
            s.heap_bytes()
        );
        assert_eq!(s.read(8 * 999, 8)[..8], 1000u64.to_le_bytes());
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
    #[should_panic(expected = "not sector-aligned")]
    fn unaligned_write_panics() {
        SectorStore::new().write(0, &[0u8; 100]);
    }
}
