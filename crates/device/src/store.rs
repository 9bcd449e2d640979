//! Sparse sector-addressed backing store.
//!
//! Devices are thin-provisioned, and the unit of thinness is the 8-byte
//! word: a sector holds host memory for its bytes up to its last
//! non-zero word, rounded up to one of seven slot classes — 8, 16, 32,
//! 64, 128, 256 or 512 B. A sector never written, overwritten with
//! zeroes or discarded is a *hole* and reads as zeroes (as a freshly
//! formatted namespace would). So the benchmarks can build deep B-trees
//! whose *address space* is large, and a log of records that are an
//! 8-byte key and zeroes costs one word per record, while the host
//! memory footprint stays proportional to the non-zero bytes actually
//! stored.
//!
//! An index (`slots`, 4 bytes per LBA up to the highest non-zero LBA
//! written) maps each sector to its class and a slot in that class's
//! slab of 8 KiB pages. A write finds each sector's last non-zero word,
//! scanning from the end: an all-zero sector becomes a hole and gives
//! its slot, if it had one, back to its class; any other overwrites its
//! own slot if its class is unchanged, and otherwise gives the old slot
//! back and takes one of the new class — a slot given back if there is
//! one, else the next from the slab's bump cursor, which adds a page
//! when the last is full. A slab's first page starts one slot long and
//! doubles as it fills, so a small image spread over several classes
//! does not hold a whole page of each; every later page is allocated
//! whole. A discard gives slots back; a read copies a slot's bytes and
//! fills the rest of the sector, or all of a hole, with zeroes. A dense
//! image costs its own bytes plus 4 bytes of index per sector and a
//! two-word pointer per page. The file system allocates goal-directed — a file's
//! next run starts where its last one ended, else first-fit from the
//! goal's block group (`fs/src/alloc.rs`) — over a device that fills
//! from block 0, which keeps written LBAs, and therefore the index,
//! dense.

/// Logical block (sector) size in bytes. The paper's experiments use
/// 512 B reads, so one B-tree node = one sector = one NVMe command.
pub const SECTOR_SIZE: usize = 512;

/// The unit a stored sector is cut to: its bytes up to its last
/// non-zero word are kept, the zeroes after them are not.
const LINE: usize = 8;

/// The unit [`class_of`] scans a sector in first: an OR over 64 bytes
/// vectorises, so finding the last non-zero one costs a few wide ORs
/// before the last non-zero word is looked for inside it.
const SCAN: usize = 64;

/// Slot classes: class `c` holds `LINE << c` bytes, so the last holds a
/// whole sector.
const CLASSES: usize = 7;
const _: () = assert!(LINE << (CLASSES - 1) == SECTOR_SIZE);

/// Slab page size. 8 KiB measured fastest on the write-heavy benchmark
/// workloads (docs/PERF.md §"Chunk size" has the sweep): it is small
/// enough that glibc keeps a dropped image's pages on its free lists for
/// the next image, where 16 KiB and larger blocks are trimmed from the
/// heap and every page of the next image faults in again.
const PAGE_BYTES: usize = 8 << 10;

/// log2 of the slots a page of class 0 holds; class `c` holds half as
/// many as class `c - 1`.
const PAGE_LINES_LOG2: u32 = (PAGE_BYTES / LINE).trailing_zeros();

/// Bits of an index entry that hold the class.
const CLASS_BITS: u32 = 3;
const _: () = assert!(CLASSES <= 1 << CLASS_BITS);

/// Slots a class may hold: an index entry keeps `slot + 1` above the
/// class's bits, and 0 is a hole.
const MAX_SLOTS: u32 = (1 << (32 - CLASS_BITS)) - 1;

/// `PAGE_BYTES` long, but for a slab's first page while it fills.
type Page = Box<[u8]>;

/// A sparse array of 512-byte sectors.
#[derive(Debug, Default)]
pub struct SectorStore {
    /// `slots[lba]`: 0 is a hole, anything else is an [`entry`]. Past
    /// the end is a hole too.
    slots: Vec<u32>,
    /// `slabs[c]` holds the sectors of class `c`.
    slabs: [Slab; CLASSES],
}

/// The slots of one class, `LINE << class` bytes each, cut from pages
/// in order.
#[derive(Debug, Default)]
struct Slab {
    pages: Vec<Page>,
    /// The bump cursor: slots below it have been handed out.
    next: u32,
    /// Slots handed out and given back, taken before the cursor moves.
    /// Empty, and unallocated, while the class only grows.
    free: Vec<u32>,
}

impl Slab {
    /// A slot of `class` for a new sector: one given back, else the
    /// next from the cursor. The first page starts one slot long and
    /// doubles each time it fills until it is `PAGE_BYTES` long; every
    /// later page is added whole.
    fn take(&mut self, class: usize) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.next;
        let (page, at) = place(slot, class);
        match self.pages.get_mut(page) {
            None => {
                let len = if page == 0 { at.end } else { PAGE_BYTES };
                self.pages.push(vec![0u8; len].into_boxed_slice());
            }
            // Only the first page is ever short.
            Some(first) if first.len() < at.end => {
                let mut grown = std::mem::take(first).into_vec();
                grown.resize(2 * grown.len(), 0);
                *first = grown.into_boxed_slice();
            }
            Some(_) => {}
        }
        self.next += 1;
        slot
    }

    /// The bytes of slot `slot` of `class`.
    fn bytes(&self, slot: u32, class: usize) -> &[u8] {
        let (page, at) = place(slot, class);
        &self.pages[page][at]
    }

    fn bytes_mut(&mut self, slot: u32, class: usize) -> &mut [u8] {
        let (page, at) = place(slot, class);
        &mut self.pages[page][at]
    }
}

/// Where slot `slot` of `class` lives: its page, and its bytes in the
/// page.
fn place(slot: u32, class: usize) -> (usize, std::ops::Range<usize>) {
    let per_page_log2 = PAGE_LINES_LOG2 - class as u32;
    let at = ((slot & ((1 << per_page_log2) - 1)) as usize) * (LINE << class);
    ((slot >> per_page_log2) as usize, at..at + (LINE << class))
}

/// The index entry of slot `slot` of `class`.
///
/// # Panics
///
/// Panics if `slot` is not below [`MAX_SLOTS`]: the entry has no room
/// for it.
fn entry(slot: u32, class: usize) -> u32 {
    assert!(
        slot < MAX_SLOTS,
        "SectorStore: class {class} ({} B slots) is full at {MAX_SLOTS} slots",
        LINE << class
    );
    (slot + 1) << CLASS_BITS | class as u32
}

/// The class a sector is stored in — the least whose slot holds its
/// bytes up to its last non-zero word — or `None` if it is all zero.
/// The last non-zero [`SCAN`]-byte span is found first, checking from
/// the end with an OR over each span, which vectorises, so a sector
/// whose last span is not zero costs one check; then the last non-zero
/// word inside that span.
fn class_of(sector: &[u8]) -> Option<usize> {
    let span = sector
        .chunks_exact(SCAN)
        .rposition(|span| span.iter().fold(0, |acc, &b| acc | b) != 0)?;
    let word = sector[span * SCAN..(span + 1) * SCAN]
        .chunks_exact(LINE)
        .rposition(|word| u64::from_ne_bytes(word.try_into().expect("LINE long")) != 0)
        .expect("a non-zero span has a non-zero word");
    let last = span * (SCAN / LINE) + word;
    Some((last + 1).next_power_of_two().trailing_zeros() as usize)
}

fn assert_whole_sectors(bytes: usize, what: &str) {
    assert!(
        bytes.is_multiple_of(SECTOR_SIZE),
        "{what} length {bytes} not sector-aligned"
    );
}

impl SectorStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        SectorStore::default()
    }

    /// The slot and class holding sector `lba`, or `None` for a hole.
    fn slot(&self, lba: u64) -> Option<(u32, usize)> {
        let entry = *self.slots.get(usize::try_from(lba).ok()?)?;
        let class = (entry & ((1 << CLASS_BITS) - 1)) as usize;
        Some(((entry >> CLASS_BITS).checked_sub(1)?, class))
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
                Some((slot, class)) => {
                    let (kept, zeroes) = dst.split_at_mut(LINE << class);
                    kept.copy_from_slice(self.slabs[class].bytes(slot, class));
                    zeroes.fill(0);
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
            let Some(class) = class_of(src) else {
                self.punch(lba);
                continue;
            };
            let idx = usize::try_from(lba).expect("LBA within the address space");
            if idx >= self.slots.len() {
                self.slots.resize(idx + 1, 0);
            }
            let slot = match self.slot(lba) {
                Some((slot, held)) if held == class => slot,
                held => {
                    if let Some((old, held)) = held {
                        self.slabs[held].free.push(old);
                    }
                    let slot = self.slabs[class].take(class);
                    self.slots[idx] = entry(slot, class);
                    slot
                }
            };
            self.slabs[class]
                .bytes_mut(slot, class)
                .copy_from_slice(&src[..LINE << class]);
        }
    }

    /// Makes sector `lba` a hole, giving its slot back if it had one.
    fn punch(&mut self, lba: u64) {
        if let Some((slot, class)) = self.slot(lba) {
            self.slots[lba as usize] = 0;
            self.slabs[class].free.push(slot);
        }
    }

    /// Discards (TRIMs) `nlb` sectors starting at `slba`, returning them
    /// to the all-zero thin-provisioned state and their slots to their
    /// classes.
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

    /// Whole sectors a page holds: the class of a sector whose last
    /// word is not zero.
    const PAGE_SECTORS: usize = PAGE_BYTES / SECTOR_SIZE;
    const WHOLE: usize = CLASSES - 1;

    impl SectorStore {
        /// Live heap the store holds: the index, and each class's free
        /// list, page table and pages.
        fn heap_bytes(&self) -> usize {
            let slabs = self.slabs.iter().map(|slab| {
                slab.free.capacity() * size_of::<u32>()
                    + slab.pages.capacity() * size_of::<Page>()
                    + slab.pages.iter().map(|page| page.len()).sum::<usize>()
            });
            self.slots.capacity() * size_of::<u32>() + slabs.sum::<usize>()
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
        // The 16 whole sectors of a page are a chunk of slots, not of LBAs:
        // fill the first page to one short, so the range lands across it.
        let mut s = SectorStore::new();
        let slba = PAGE_SECTORS as u64 - 1;
        s.write(0, &vec![9u8; (PAGE_SECTORS - 1) * SECTOR_SIZE]);
        let data: Vec<u8> = (0..3 * SECTOR_SIZE).map(|i| (i % 17) as u8 + 1).collect();
        s.write(slba, &data);
        assert_eq!(s.slabs[WHOLE].pages.len(), 2);
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
        assert_eq!(s.slabs[WHOLE].pages.len(), 1);
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
            (None, Some((1, WHOLE))),
            "overwritten in place"
        );
        assert_eq!(
            s.slabs[WHOLE].free.last(),
            Some(&0),
            "the zeroed sector's slot is free"
        );
    }

    #[test]
    fn zeroed_and_discarded_slots_are_reused_before_a_page_is_added() {
        const N: u64 = 3 * PAGE_SECTORS as u64;
        let mut s = SectorStore::new();
        s.write(0, &[1u8; N as usize * SECTOR_SIZE]);
        let pages = s.slabs[WHOLE].pages.len();
        assert_eq!(pages, 3);
        s.write(0, &[0u8; (N / 2) as usize * SECTOR_SIZE]);
        s.discard(N / 2, (N - N / 2) as u32);
        assert_eq!(s.read(0, N as u32), vec![0u8; N as usize * SECTOR_SIZE]);
        for lba in (N..3 * N).step_by(2) {
            s.write(lba, &[lba as u8 | 1; SECTOR_SIZE]);
        }
        assert_eq!(
            s.slabs[WHOLE].pages.len(),
            pages,
            "N non-zero writes added a page"
        );
        for lba in (N..3 * N).step_by(2) {
            assert_eq!(s.read(lba, 2)[..SECTOR_SIZE], [lba as u8 | 1; SECTOR_SIZE]);
        }
        s.write(3 * N, &[2u8; SECTOR_SIZE]);
        assert_eq!(
            s.slabs[WHOLE].pages.len(),
            pages + 1,
            "the N + 1st needs a page"
        );
    }

    #[test]
    fn a_sector_is_kept_to_its_last_nonzero_line() {
        let boundaries = [
            (0, 0),
            (7, 0),
            (8, 1),
            (15, 1),
            (16, 2),
            (31, 2),
            (32, 3),
            (63, 3),
            (64, 4),
            (127, 4),
            (128, 5),
            (255, 5),
            (256, 6),
            (511, 6),
        ];
        for (last, class) in boundaries {
            let mut sector = [0u8; SECTOR_SIZE];
            sector[last] = 0xC3;
            assert_eq!(class_of(&sector), Some(class), "last non-zero byte {last}");
            let mut s = SectorStore::new();
            s.write(2, &sector);
            assert_eq!(s.slot(2), Some((0, class)), "last non-zero byte {last}");
            let mut out = [0xEEu8; SECTOR_SIZE];
            s.read_into(2, &mut out);
            assert_eq!(out, sector, "past the slot the sector reads zero");
        }
        assert_eq!(class_of(&[0u8; SECTOR_SIZE]), None);
    }

    #[test]
    fn a_class_change_frees_the_old_slot_for_reuse_before_a_page_is_added() {
        // A key sector — 8 bytes and zeroes — is kept in an 8 B slot.
        let key = |lba: u64| {
            let mut sector = [0u8; SECTOR_SIZE];
            sector[..8].copy_from_slice(&(lba + 1).to_le_bytes());
            sector
        };
        let per_page = (PAGE_BYTES / LINE) as u64;
        let mut s = SectorStore::new();
        for lba in 0..per_page {
            s.write(lba, &key(lba));
        }
        assert_eq!(s.slabs[0].pages.len(), 1, "one page holds {per_page} keys");
        // Up a class: a byte at 300 moves sector 5 to a whole slot.
        let mut wide = key(5);
        wide[300] = 1;
        s.write(5, &wide);
        assert_eq!(s.slot(5), Some((0, WHOLE)));
        assert_eq!(s.slabs[0].free, [5], "the word it left is free");
        let next = per_page + 1_000;
        s.write(next, &key(next));
        assert_eq!(s.slot(next), Some((5, 0)), "and taken by the next key");
        assert_eq!(s.slabs[0].pages.len(), 1);
        // Down a class: the whole slot is freed, and with no word free
        // the class adds a page.
        s.write(5, &key(5));
        assert_eq!(s.slabs[WHOLE].free, [0]);
        assert_eq!(s.slot(5), Some((per_page as u32, 0)));
        assert_eq!(s.slabs[0].pages.len(), 2);
        for lba in (0..per_page).chain([next]) {
            assert_eq!(s.read(lba, 1), key(lba), "sector {lba}");
        }
    }

    #[test]
    fn a_small_image_over_several_classes_holds_under_a_page() {
        // `fabric_chase`'s image: seven sectors that are an 8-byte
        // pointer and zeroes, and a sentinel with bytes at 8..16. Each
        // class's first page is as long as its slots, not 8 KiB.
        let mut s = SectorStore::new();
        let mut want = Vec::new();
        for lba in 0..8u64 {
            let mut sector = [0u8; SECTOR_SIZE];
            let at = if lba == 7 { 8 } else { 0 };
            sector[at..at + 8].copy_from_slice(&(lba + 1).to_le_bytes());
            s.write(lba, &sector);
            want.extend_from_slice(&sector);
        }
        assert_eq!((s.slot(6), s.slot(7)), (Some((6, 0)), Some((0, 1))));
        assert!(s.heap_bytes() < 1 << 10, "{} B", s.heap_bytes());
        assert_eq!(s.read(0, 8), want);
    }

    #[test]
    fn a_first_page_doubles_to_page_bytes_and_later_pages_are_whole() {
        // Sector `lba` is one word of `lba + 1` and zeroes: an 8 B slot.
        let word = |lba: u64| {
            let mut sector = [0u8; SECTOR_SIZE];
            sector[..LINE].copy_from_slice(&(lba + 1).to_le_bytes());
            sector
        };
        let per_page = (PAGE_BYTES / LINE) as u64;
        let mut s = SectorStore::new();
        for lba in 0..per_page {
            s.write(lba, &word(lba));
            let held = (lba as usize + 1) * LINE;
            assert_eq!(s.slabs[0].pages.len(), 1);
            assert_eq!(s.slabs[0].pages[0].len(), held.next_power_of_two());
        }
        s.write(per_page, &word(per_page));
        let lens: Vec<usize> = s.slabs[0].pages.iter().map(|page| page.len()).collect();
        assert_eq!(lens, [PAGE_BYTES, PAGE_BYTES], "the second page is whole");
        for lba in 0..=per_page {
            assert_eq!(s.read(lba, 1), word(lba), "sector {lba}");
        }
    }

    #[test]
    #[should_panic(expected = "is full at 536870911 slots")]
    fn an_index_entry_past_its_bits_panics() {
        assert_eq!(entry(MAX_SLOTS - 1, WHOLE), u32::MAX - 1);
        entry(MAX_SLOTS, 0);
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
        // appended back to back. Each costs the first word of its first
        // sector and eight index entries, not the 4 KiB it spans, and an
        // append-only log gives no slot back, so it holds no free list.
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
        let bound = RECORDS * (LINE + index) + PAGE_BYTES + slack;
        assert!(
            s.heap_bytes() <= bound,
            "{} B for {RECORDS} records (bound {bound})",
            s.heap_bytes()
        );
        assert!(s.slabs.iter().all(|slab| slab.free.capacity() == 0));
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
