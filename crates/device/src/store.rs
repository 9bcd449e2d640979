//! Sparse sector-addressed backing store.
//!
//! Devices are thin-provisioned, and the unit of thinness is the 2-byte
//! half-word: a sector holds host memory for its bytes up to its last
//! non-zero half-word, rounded up to one of nine slot classes — 2, 4,
//! 8, 16, 32, 64, 128, 256 or 512 B. A sector never written,
//! overwritten with zeroes or discarded is a *hole* and reads as zeroes
//! (as a freshly formatted namespace would). So the benchmarks can build
//! deep B-trees whose *address space* is large, and a log of records
//! that are a little-endian key below 65,536 and zeroes costs a 2 B slot
//! per record (a key below 2^32, a 4 B one), while the host memory
//! footprint stays proportional to the non-zero bytes actually stored.
//!
//! The index is a vector of 64-LBA leaves, one per 64 LBAs up to the
//! highest non-zero LBA written. A leaf holds a bitmap of which of its
//! sectors are stored and where their 4-byte `entry`s — each a class
//! and a slot in that class's slab of 8 KiB pages — are, in LBA order,
//! so a sector's entry is the one at its rank, the count of stored
//! sectors below it in the leaf. A hole costs its bit. A leaf is a
//! *run* while its sectors' slots are consecutive in one class: it
//! keeps the first entry, the entry at rank `i` is that slot plus `i`,
//! and it holds no array. An empty leaf's first sector starts a run; an
//! insert keeps it only if it extends the run at the top with the slot
//! after its last, or at the bottom with the slot before its first, and
//! a removal only at either end. Any other insert or removal, or a
//! class change, expands the leaf once into a packed array of its
//! entries, and the leaf stays one until it empties. The array lives in
//! the store's own slabs, in the least class that holds it (4 B for one
//! entry, 8 B for two, … 256 B for 33 to 64): an insert or a removal shifts
//! the entries above it in place, and moves the array once when its
//! count crosses a power of two; an emptied leaf gives its slot back. A
//! write finds each sector's last non-zero byte, scanning from the end:
//! an all-zero sector becomes a hole and gives its slot, if it had one,
//! back to its class; any other overwrites its own slot if its class is
//! unchanged, and otherwise gives the old slot back and takes one of
//! the new class — a slot given back if there is one, else the next
//! from the slab's bump cursor, which adds a page when the last is
//! full. A slab's first page starts one slot long and doubles as it
//! fills, so a small image spread over several classes does not hold a
//! whole page of each; every later page is allocated whole. A discard
//! gives slots back; a read resolves a leaf once per run of sectors
//! inside it — a run leaf by arithmetic, without an array read — copies
//! each slot's bytes and fills the rest of the sector, or all of a
//! hole, with zeroes. A dense image written in LBA order takes
//! consecutive slots, so its leaves are runs: it costs its own bytes,
//! 16 bytes of leaf per 64 sectors and a two-word pointer per page,
//! 513.6 B a whole sector as measured (517.7 B with a 4-byte entry per
//! sector). The file system allocates goal-directed — a file's next run
//! starts where its last one ended, else first-fit from the goal's
//! block group (`fs/src/alloc.rs`) — over a device that fills from
//! block 0, which keeps written LBAs, and therefore the leaves, dense.

/// Logical block (sector) size in bytes. The paper's experiments use
/// 512 B reads, so one B-tree node = one sector = one NVMe command.
pub const SECTOR_SIZE: usize = 512;

/// The unit a stored sector is cut to: its bytes up to its last
/// non-zero half-word are kept, the zeroes after them are not. Two
/// bytes, not one, so a log whose records' key tails end one byte apart
/// (keys either side of 256) keeps them in one class, and its leaves
/// runs.
const LINE: usize = 2;

/// The unit [`class_of`] scans a sector in first: an OR over 64 bytes
/// vectorises, so finding the last non-zero one costs a few wide ORs
/// before the last non-zero byte is looked for inside it.
const SCAN: usize = 64;

/// Slot classes: class `c` holds `LINE << c` bytes, so the last holds a
/// whole sector.
const CLASSES: usize = 9;
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
const CLASS_BITS: u32 = 4;
const _: () = assert!(CLASSES <= 1 << CLASS_BITS);

/// Slots a class may hold: an index entry keeps `slot + 1` above the
/// class's bits, so no entry is 0.
const MAX_SLOTS: u32 = (1 << (32 - CLASS_BITS)) - 1;

/// LBAs a leaf covers: one bit each of its `present` word.
const LEAF: u64 = u64::BITS as u64;

/// Bytes an index entry takes in a leaf's array; a full leaf's array
/// fits a slot.
const ENTRY: usize = size_of::<u32>();
const _: () = assert!(LEAF as usize * ENTRY <= SECTOR_SIZE);

/// `PAGE_BYTES` long, but for a slab's first page while it fills.
type Page = Box<[u8]>;

/// A sparse array of 512-byte sectors.
#[derive(Debug, Default)]
pub struct SectorStore {
    /// `leaves[i]` indexes sectors `LEAF * i` to `LEAF * i + 63`. Past
    /// the end every sector is a hole.
    leaves: Vec<Leaf>,
    /// `slabs[c]` holds the sectors of class `c`, and the leaves'
    /// arrays of class `c`.
    slabs: [Slab; CLASSES],
}

/// The index of 64 LBAs.
#[derive(Debug, Default, Clone, Copy)]
struct Leaf {
    /// Bit `i` is set if sector `i` of the leaf is stored.
    present: u64,
    /// In a run leaf, the first present sector's entry; else the slot,
    /// in class [`array_class`] of the present count, of the present
    /// sectors' entries in LBA order. Meaningless while `present` is 0.
    array: u32,
    /// The present sectors' slots are one run in one class: the `i`-th
    /// present sector's is the first's plus `i`, and no array is held.
    run: bool,
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
            // Only the first page is ever short. It grows by exactly its
            // length: `resize` alone would round a 4-byte page up to a
            // `Vec`'s least capacity, 8, and boxing it would cost a
            // second call to shrink it back.
            Some(first) if first.len() < at.end => {
                let mut grown = std::mem::take(first).into_vec();
                grown.reserve_exact(grown.len());
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

/// The slot and class of an [`entry`].
fn unpack(entry: u32) -> (u32, usize) {
    (
        (entry >> CLASS_BITS) - 1,
        (entry & ((1 << CLASS_BITS) - 1)) as usize,
    )
}

/// The class of a leaf's array of `count` entries: the least that holds
/// them.
fn array_class(count: usize) -> usize {
    (count * ENTRY)
        .div_ceil(LINE)
        .next_power_of_two()
        .trailing_zeros() as usize
}

/// Where sector `bit` of a leaf with `present` sectors has its entry in
/// the array: the count of present sectors below it.
fn rank(present: u64, bit: u32) -> usize {
    (present & ((1 << bit) - 1)).count_ones() as usize
}

/// Entry `rank` of a run whose first entry is `first`: the slot `rank`
/// on, in the same class.
fn run_entry(first: u32, rank: usize) -> u32 {
    first.wrapping_add((rank as u32) << CLASS_BITS)
}

/// Entry `rank` of an array.
fn entry_at(array: &[u8], rank: usize) -> u32 {
    u32::from_ne_bytes(
        array[rank * ENTRY..][..ENTRY]
            .try_into()
            .expect("ENTRY long"),
    )
}

/// Sets entry `rank` of an array.
fn set_entry_at(array: &mut [u8], rank: usize, entry: u32) {
    array[rank * ENTRY..][..ENTRY].copy_from_slice(&entry.to_ne_bytes());
}

/// The class a sector is stored in — the least whose slot holds its
/// bytes up to its last non-zero [`LINE`] — or `None` if it is all
/// zero. The last non-zero [`SCAN`]-byte span is found first, checking
/// from the end with an OR over each span, which vectorises, so a
/// sector whose last span is not zero costs one check; then the last
/// non-zero 8-byte word inside that span, and its last non-zero byte:
/// read little-endian, the word's top byte is its last.
fn class_of(sector: &[u8]) -> Option<usize> {
    const WORD: usize = size_of::<u64>();
    let span = sector
        .chunks_exact(SCAN)
        .rposition(|span| span.iter().fold(0, |acc, &b| acc | b) != 0)?;
    let (word, bits) = sector[span * SCAN..(span + 1) * SCAN]
        .chunks_exact(WORD)
        .map(|word| u64::from_le_bytes(word.try_into().expect("WORD long")))
        .enumerate()
        .rfind(|&(_, bits)| bits != 0)
        .expect("a non-zero span has a non-zero word");
    let last = span * SCAN + word * WORD + WORD - 1 - (bits.leading_zeros() / u8::BITS) as usize;
    Some((last / LINE + 1).next_power_of_two().trailing_zeros() as usize)
}

/// `bytes` without their zero tail, to 64-byte granularity: up to the
/// end of their last non-zero 64-byte span (empty if all are zero),
/// found from the end with the vectorising OR a stored sector's class
/// is found with.
pub fn trim_zero_tail(bytes: &[u8]) -> &[u8] {
    let mut spans = bytes.chunks_exact(SCAN);
    if spans.remainder().iter().any(|&b| b != 0) {
        return bytes;
    }
    let last = spans.rposition(|span| {
        let span: &[u8; SCAN] = span.try_into().expect("SCAN long");
        span.iter().fold(0, |acc, &b| acc | b) != 0
    });
    &bytes[..last.map_or(0, |span| (span + 1) * SCAN)]
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

    /// The bytes of `leaf`'s array, or `None` if the leaf is empty or a
    /// run.
    fn array(&self, leaf: Leaf) -> Option<&[u8]> {
        let class = array_class(leaf.present.count_ones() as usize);
        (leaf.present != 0 && !leaf.run).then(|| self.slabs[class].bytes(leaf.array, class))
    }

    /// The entry of present sector `rank` of a non-empty leaf.
    fn entry_of(&self, leaf: Leaf, rank: usize) -> u32 {
        match self.array(leaf) {
            Some(array) => entry_at(array, rank),
            None => run_entry(leaf.array, rank),
        }
    }

    /// The leaf holding sector `lba` and the sector's bit in it, if the
    /// sector is stored.
    fn stored(&self, lba: u64) -> Option<(usize, u32)> {
        let (leaf, bit) = (usize::try_from(lba / LEAF).ok()?, (lba % LEAF) as u32);
        (self.leaves.get(leaf)?.present >> bit & 1 == 1).then_some((leaf, bit))
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
        // One run of sectors per leaf: up to the first leaf's end, then
        // whole leaves.
        let head = out.len().min((LEAF - slba % LEAF) as usize * SECTOR_SIZE);
        let (head, rest) = out.split_at_mut(head);
        let mut lba = slba;
        for run in std::iter::once(head).chain(rest.chunks_mut(LEAF as usize * SECTOR_SIZE)) {
            let leaf = usize::try_from(lba / LEAF)
                .ok()
                .and_then(|leaf| self.leaves.get(leaf))
                .copied()
                .unwrap_or_default();
            let first = (lba % LEAF) as u32;
            lba = lba.wrapping_add((run.len() / SECTOR_SIZE) as u64);
            if leaf.present == 0 {
                run.fill(0);
                continue;
            }
            let array = self.array(leaf);
            let mut at = rank(leaf.present, first);
            for (bit, dst) in (first..).zip(run.chunks_exact_mut(SECTOR_SIZE)) {
                if leaf.present >> bit & 1 == 0 {
                    dst.fill(0);
                    continue;
                }
                let (slot, class) = unpack(match array {
                    Some(array) => entry_at(array, at),
                    None => run_entry(leaf.array, at),
                });
                at += 1;
                let (kept, zeroes) = dst.split_at_mut(LINE << class);
                kept.copy_from_slice(self.slabs[class].bytes(slot, class));
                zeroes.fill(0);
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
        let mut out = Vec::new();
        self.read_modify_into(slba, head, src, &mut out);
        out
    }

    /// [`SectorStore::read_modify`] into `out`, whatever it held: it is
    /// cleared and grown at most once, to the image's length.
    ///
    /// # Panics
    ///
    /// Panics if `head >= SECTOR_SIZE`.
    pub fn read_modify_into(&self, slba: u64, head: usize, src: &[u8], out: &mut Vec<u8>) {
        assert!(head < SECTOR_SIZE, "head {head} past the first sector");
        out.clear();
        out.reserve_exact((head + src.len()).next_multiple_of(SECTOR_SIZE));
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
            // A zero sector over a hole — seven of every eight of a
            // zero-padded 4 KiB record — costs a bit test and no call.
            let (class, slot) = match (class_of(src), self.stored(lba)) {
                (None, None) => continue,
                (None, Some((leaf, bit))) => {
                    self.remove(leaf, bit);
                    continue;
                }
                (Some(class), Some((leaf, bit))) => (class, self.retake(leaf, bit, class)),
                (Some(class), None) => {
                    let slot = self.slabs[class].take(class);
                    self.insert(lba, entry(slot, class));
                    (class, slot)
                }
            };
            self.slabs[class]
                .bytes_mut(slot, class)
                .copy_from_slice(&src[..LINE << class]);
        }
    }

    /// The slot of `class` for stored sector `bit` of `leaf`: its own
    /// if its class is unchanged, else a new one, its old slot given
    /// back. A class change expands a run leaf.
    fn retake(&mut self, leaf: usize, bit: u32, class: usize) -> u32 {
        let Leaf {
            present,
            array,
            run,
        } = self.leaves[leaf];
        let (count, at) = (present.count_ones() as usize, rank(present, bit));
        let (old, old_class) = unpack(self.entry_of(self.leaves[leaf], at));
        if old_class == class {
            return old;
        }
        self.slabs[old_class].free.push(old);
        let slot = self.slabs[class].take(class);
        if run {
            self.leaves[leaf].array =
                self.expand(array, count, at, count, Some(entry(slot, class)));
            self.leaves[leaf].run = false;
        } else {
            let held = array_class(count);
            set_entry_at(
                self.slabs[held].bytes_mut(array, held),
                at,
                entry(slot, class),
            );
        }
        slot
    }

    /// Adds `entry` for hole `lba` to its leaf. An empty leaf's first
    /// entry starts a run; a run stays one only if `entry` extends it
    /// at either end, else it is expanded.
    fn insert(&mut self, lba: u64, entry: u32) {
        let leaf = usize::try_from(lba / LEAF).expect("LBA within the address space");
        if leaf >= self.leaves.len() {
            self.leaves.resize(leaf + 1, Leaf::default());
        }
        let bit = (lba % LEAF) as u32;
        let Leaf {
            present,
            array,
            run,
        } = self.leaves[leaf];
        let (count, at) = (present.count_ones() as usize, rank(present, bit));
        let (array, run) = if present == 0 {
            (entry, true)
        } else if !run {
            (self.reshape(array, count, at, Some(entry)), false)
        } else if at == count && entry == run_entry(array, count) {
            (array, true)
        } else if at == 0 && run_entry(entry, 1) == array {
            (entry, true)
        } else {
            (self.expand(array, count, at, count + 1, Some(entry)), false)
        };
        self.leaves[leaf] = Leaf {
            present: present | 1 << bit,
            array,
            run,
        };
    }

    /// Makes stored sector `bit` of `leaf` a hole, giving its slot back
    /// and taking its entry out of the leaf. A run stays one if the
    /// sector is its first or last, else it is expanded.
    fn remove(&mut self, leaf: usize, bit: u32) {
        let Leaf {
            present,
            array,
            run,
        } = self.leaves[leaf];
        let (count, at) = (present.count_ones() as usize, rank(present, bit));
        let (slot, class) = unpack(self.entry_of(self.leaves[leaf], at));
        self.slabs[class].free.push(slot);
        let (array, run) = if !run {
            (self.reshape(array, count, at, None), false)
        } else if at == 0 {
            (run_entry(array, 1), true)
        } else if at == count - 1 {
            (array, true)
        } else {
            (self.expand(array, count, at, count - 1, None), false)
        };
        self.leaves[leaf] = Leaf {
            present: present & !(1 << bit),
            array,
            run,
        };
    }

    /// Puts `insert` in slot `array`, a leaf's array of `count` > 0
    /// entries, as entry `at`, or without one takes entry `at` out, and
    /// returns the array's slot. The entries above `at` shift in place
    /// while the class is still the least that holds them; else all are
    /// moved once to the class that is, and the old slot is given back,
    /// as an emptied array's is.
    fn reshape(&mut self, array: u32, count: usize, at: usize, insert: Option<u32>) -> u32 {
        // The entries above `at`, and where they go.
        let (after, above, to) = match insert {
            Some(_) => (count + 1, at..count, at + 1),
            None => (count - 1, at + 1..count, at),
        };
        let (held, class) = (array_class(count), array_class(after));
        let (above, to) = (above.start * ENTRY..above.end * ENTRY, to * ENTRY);
        let (array, bytes) = if after == 0 {
            self.slabs[held].free.push(array);
            return 0;
        } else if held == class {
            let bytes = self.slabs[class].bytes_mut(array, class);
            bytes.copy_within(above, to);
            (array, bytes)
        } else {
            let moved = self.slabs[class].take(class);
            let [old, new] = self
                .slabs
                .get_disjoint_mut([held, class])
                .expect("an array moves between two classes");
            let (from, into) = (old.bytes(array, held), new.bytes_mut(moved, class));
            into[..at * ENTRY].copy_from_slice(&from[..at * ENTRY]);
            into[to..][..above.len()].copy_from_slice(&from[above]);
            old.free.push(array);
            (moved, into)
        };
        if let Some(entry) = insert {
            set_entry_at(bytes, at, entry);
        }
        array
    }

    /// Writes a run leaf's `count` entries from `first` out as an array
    /// of `after` entries, in the least class that holds them, and
    /// returns its slot: entry `at` is `edit` — put in if `after` is
    /// `count + 1`, put in place of the run's if `after` is `count` — or
    /// taken out if `edit` is `None`.
    fn expand(
        &mut self,
        first: u32,
        count: usize,
        at: usize,
        after: usize,
        edit: Option<u32>,
    ) -> u32 {
        let class = array_class(after);
        let array = self.slabs[class].take(class);
        let bytes = self.slabs[class].bytes_mut(array, class);
        for k in 0..after {
            let entry = match edit {
                Some(entry) if k == at => entry,
                _ if k < at => run_entry(first, k),
                _ => run_entry(first, k + count - after),
            };
            set_entry_at(bytes, k, entry);
        }
        array
    }

    /// Discards (TRIMs) `nlb` sectors starting at `slba`, returning them
    /// to the all-zero thin-provisioned state and their slots to their
    /// classes.
    pub fn discard(&mut self, slba: u64, nlb: u32) {
        let end = slba
            .saturating_add(nlb.into())
            .min(self.leaves.len() as u64 * LEAF);
        for lba in slba..end {
            if let Some((leaf, bit)) = self.stored(lba) {
                self.remove(leaf, bit);
            }
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
        /// Live heap the store holds: the leaves, and each class's free
        /// list, page table and pages (the leaves' arrays among them).
        fn heap_bytes(&self) -> usize {
            let slabs = self.slabs.iter().map(|slab| {
                slab.free.capacity() * size_of::<u32>()
                    + slab.pages.capacity() * size_of::<Page>()
                    + slab.pages.iter().map(|page| page.len()).sum::<usize>()
            });
            self.leaves.capacity() * size_of::<Leaf>() + slabs.sum::<usize>()
        }

        /// The slot and class holding sector `lba`, or `None` for a hole.
        fn slot(&self, lba: u64) -> Option<(u32, usize)> {
            let (leaf, bit) = self.stored(lba)?;
            let leaf = self.leaves[leaf];
            Some(unpack(self.entry_of(leaf, rank(leaf.present, bit))))
        }
    }

    #[test]
    fn unwritten_sectors_read_zero() {
        let s = SectorStore::new();
        assert_eq!(s.read(42, 2), vec![0u8; 1024]);
    }

    #[test]
    fn a_leaf_is_sixteen_bytes() {
        // The run flag sits in the padding after `array`.
        assert_eq!(size_of::<Leaf>(), 16);
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
            (1, 0),
            (2, 1),
            (3, 1),
            (4, 2),
            (7, 2),
            (8, 3),
            (15, 3),
            (16, 4),
            (31, 4),
            (32, 5),
            (63, 5),
            (64, 6),
            (127, 6),
            (128, 7),
            (255, 7),
            (256, 8),
            (511, 8),
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
        // Every position of the last non-zero byte, with non-zero bytes
        // before it in the same word and the span: the class is the
        // least whose slot reaches it.
        for last in 0..SECTOR_SIZE {
            let mut sector = [0u8; SECTOR_SIZE];
            sector[last.saturating_sub(70)..=last].fill(0x5A);
            let least = (0..CLASSES).find(|&c| LINE << c > last);
            assert_eq!(class_of(&sector), least, "last non-zero byte {last}");
        }
    }

    #[test]
    fn a_class_change_frees_the_old_slot_for_reuse_before_a_page_is_added() {
        // A key sector — a little-endian key below 65,536 and zeroes —
        // is kept in a 2 B slot.
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
        assert_eq!(s.slabs[0].free, [5], "the half-word it left is free");
        // The next key, in a leaf of its own, takes that slot before the
        // cursor moves; its leaf starts a run and holds no array, so the
        // cursor does not move at all.
        let next = per_page + 1_000;
        s.write(next, &key(next));
        assert_eq!(s.slot(next), Some((5, 0)), "and taken by the next key");
        assert_eq!(s.slabs[0].next, per_page as u32);
        // Down a class: the whole slot is freed, and with no 2 B slot free
        // the key takes the cursor's next slot, the first of a second
        // page.
        s.write(5, &key(5));
        assert_eq!(s.slabs[WHOLE].free, [0]);
        assert_eq!(s.slot(5), Some((per_page as u32, 0)));
        assert_eq!(s.slabs[0].pages.len(), 2);
        for lba in (0..per_page).chain([next]) {
            assert_eq!(s.read(lba, 1), key(lba), "sector {lba}");
        }
    }

    #[test]
    fn a_leaf_keeps_its_entries_in_the_least_class_that_holds_them() {
        // Whole sectors, so classes below `WHOLE` hold only the leaf's
        // array; each sector's bytes are its LBA's.
        let sector = |lba: u64| [lba as u8 + 1; SECTOR_SIZE];
        let in_use = |s: &SectorStore| -> Vec<u32> {
            let held = |slab: &Slab| slab.next - slab.free.len() as u32;
            s.slabs[..WHOLE].iter().map(held).collect()
        };
        // One slot, in the least class holding `count` 4 B entries, or
        // none for a run.
        let least = |count: usize, run: bool| -> Vec<u32> {
            let class = (0..WHOLE).find(|&c| LINE << c >= count * 4);
            (0..WHOLE)
                .map(|c| u32::from(count > 0 && !run && Some(c) == class))
                .collect()
        };
        let check = |s: &SectorStore, stored: u64, count: usize, run: bool| {
            assert_eq!(s.leaves[0].run, run, "{count} entries");
            assert_eq!(in_use(s), least(count, run), "{count} entries");
            assert_eq!(s.leaves[0].present, stored);
            let want: Vec<u8> = (0..LEAF)
                .flat_map(|lba| match stored >> lba & 1 {
                    1 => sector(lba),
                    _ => [0; SECTOR_SIZE],
                })
                .collect();
            assert_eq!(s.read(0, LEAF as u32), want, "{count} entries");
        };
        let mut s = SectorStore::new();
        let mut stored = 0u64;
        // 37 and 23 are odd, so each order steps through all 64 LBAs.
        // LBAs 0 and 37 take whole slots 0 and 1, a run; LBA 10 lands
        // between them and expands the leaf, for good.
        for (count, lba) in (1..).zip((0..LEAF).map(|i| i * 37 % LEAF)) {
            s.write(lba, &sector(lba));
            stored |= 1 << lba;
            check(&s, stored, count, count <= 2);
        }
        let mut last = 0;
        for (count, lba) in (0..LEAF as usize)
            .rev()
            .zip((0..LEAF).map(|i| (i * 23 + 5) % LEAF))
        {
            last = s.leaves[0].array;
            s.write(lba, &[0u8; SECTOR_SIZE]);
            stored &= !(1 << lba);
            check(&s, stored, count, false);
        }
        // The emptied leaf gave its last array, of one 4 B entry, back
        // to the 4 B class. The next leaf's first sector starts a run
        // and takes no array: the slot stays free and the cursor does
        // not move.
        let one = array_class(1);
        assert_eq!(LINE << one, ENTRY);
        let cursor = s.slabs[one].next;
        s.write(LEAF, &sector(LEAF));
        assert!(s.leaves[1].run);
        assert_eq!(
            (&s.slabs[one].free[..], s.slabs[one].next),
            (&[last][..], cursor)
        );
        let mut want = vec![0u8; 2 * LEAF as usize * SECTOR_SIZE];
        want[LEAF as usize * SECTOR_SIZE..][..SECTOR_SIZE].copy_from_slice(&sector(LEAF));
        assert_eq!(s.read(0, 2 * LEAF as u32), want);
    }

    #[test]
    fn an_ascending_run_of_a_leaf_holds_no_array_slot() {
        // 64 keys, each a 2 B slot, written one at a time up the leaf:
        // class 0 holds the 64 keys and nothing else.
        let mut s = SectorStore::new();
        let mut want = Vec::new();
        for lba in 0..LEAF {
            let mut sector = [0u8; SECTOR_SIZE];
            sector[..8].copy_from_slice(&(lba + 1).to_le_bytes());
            s.write(lba, &sector);
            want.extend_from_slice(&sector);
        }
        assert!(s.leaves[0].run);
        assert_eq!(s.leaves[0].present, u64::MAX);
        assert_eq!((s.slabs[0].next, s.slabs[0].free.len()), (LEAF as u32, 0));
        assert_eq!(s.slot(LEAF - 1), Some((LEAF as u32 - 1, 0)));
        assert_eq!(s.read(0, LEAF as u32), want);
    }

    #[test]
    fn breaking_a_run_expands_it_once_into_the_least_class() {
        // A run of 20 whole sectors at the even LBAs 2..=40, whole slots
        // 0 to 19. Each break leaves one array slot, in the least class
        // for the count after it, and no slot taken and given back on the
        // way; the leaf then stays expanded.
        let sector = |lba: u64| [lba as u8 + 1; SECTOR_SIZE];
        let mut key = [0u8; SECTOR_SIZE];
        key[0] = 0xCC;
        enum Break {
            /// A whole sector at the LBA, after one in the next leaf took
            /// the run's next slot.
            Insert(u64),
            /// The sector at the LBA moves down to a 2 B slot.
            Shrink(u64),
            Discard(u64),
        }
        for (how, count) in [
            (Break::Insert(0), 21),
            (Break::Insert(50), 21),
            (Break::Insert(5), 21),
            (Break::Shrink(2), 20),
            (Break::Shrink(40), 20),
            (Break::Shrink(20), 20),
            (Break::Discard(20), 19),
        ] {
            let mut s = SectorStore::new();
            for lba in (2..=40).step_by(2) {
                s.write(lba, &sector(lba));
            }
            assert!(s.leaves[0].run);
            let mut want = s.read(0, LEAF as u32);
            let (lba, now) = match how {
                Break::Insert(lba) => {
                    s.write(LEAF, &sector(LEAF));
                    (lba, sector(lba))
                }
                Break::Shrink(lba) => (lba, key),
                Break::Discard(lba) => (lba, [0; SECTOR_SIZE]),
            };
            match how {
                Break::Discard(_) => s.discard(lba, 1),
                _ => s.write(lba, &now),
            }
            want[lba as usize * SECTOR_SIZE..][..SECTOR_SIZE].copy_from_slice(&now);
            let leaf = s.leaves[0];
            assert!(!leaf.run, "LBA {lba}");
            assert_eq!(leaf.present.count_ones(), count, "LBA {lba}");
            // The arrays' classes: one slot in the least, none freed.
            // A shrunk sector's 2 B slot is class 0's, which no array
            // is in.
            let keys = u32::from(matches!(how, Break::Shrink(_)));
            let held: Vec<(u32, usize)> = s.slabs[1..WHOLE]
                .iter()
                .map(|slab| (slab.next, slab.free.len()))
                .collect();
            let mut least = vec![(0, 0); WHOLE - 1];
            least[array_class(count as usize) - 1] = (1, 0);
            assert_eq!(held, least, "LBA {lba}");
            assert_eq!((s.slabs[0].next, s.slabs[0].free.len()), (keys, 0));
            assert_eq!(s.read(0, LEAF as u32), want, "LBA {lba}");
            // An append at the expanded leaf's top does not re-form a run.
            s.write(LEAF - 1, &sector(LEAF - 1));
            assert!(!s.leaves[0].run, "LBA {lba}");
        }
    }

    #[test]
    fn a_prepend_below_a_run_stays_a_run() {
        // Whole sectors at LBAs 10..20 take slots 0 to 9. Discarding the
        // bottom one keeps the run, now from slot 1, and gives slot 0
        // back; a sector below then takes slot 0, the run's first − 1.
        let sector = |lba: u64| [lba as u8 + 1; SECTOR_SIZE];
        let mut s = SectorStore::new();
        let mut want = vec![0u8; LEAF as usize * SECTOR_SIZE];
        for lba in 10..20 {
            s.write(lba, &sector(lba));
            want[lba as usize * SECTOR_SIZE..][..SECTOR_SIZE].copy_from_slice(&sector(lba));
        }
        s.discard(10, 1);
        want[10 * SECTOR_SIZE..][..SECTOR_SIZE].fill(0);
        assert!(s.leaves[0].run);
        assert_eq!(s.slot(11), Some((1, WHOLE)));
        s.write(3, &sector(3));
        want[3 * SECTOR_SIZE..][..SECTOR_SIZE].copy_from_slice(&sector(3));
        assert!(s.leaves[0].run);
        assert_eq!(s.slot(3), Some((0, WHOLE)));
        assert_eq!(s.slabs[WHOLE].next, 10);
        assert!(s.slabs[..WHOLE].iter().all(|slab| slab.next == 0));
        assert_eq!(s.read(0, LEAF as u32), want);
    }

    #[test]
    fn a_small_image_over_several_classes_holds_under_a_page() {
        // `fabric_chase`'s image: seven sectors that are the next
        // sector's byte offset (two non-zero bytes) and zeroes, and a
        // sentinel of all-ones and a payload at 8..16. Each class's first
        // page is as long as its slots, not 8 KiB.
        let mut s = SectorStore::new();
        let mut want = Vec::new();
        for lba in 0..8u64 {
            let mut sector = [0u8; SECTOR_SIZE];
            if lba < 7 {
                sector[..8].copy_from_slice(&((lba + 1) * SECTOR_SIZE as u64).to_le_bytes());
            } else {
                sector[..8].copy_from_slice(&u64::MAX.to_le_bytes());
                sector[8..16].copy_from_slice(&0xABAD_1DEA_F00D_CAFE_u64.to_le_bytes());
            }
            s.write(lba, &sector);
            want.extend_from_slice(&sector);
        }
        // The pointers' 2 B class and the sentinel's 16 B one.
        assert_eq!((s.slot(6), s.slot(7)), (Some((6, 0)), Some((0, 3))));
        assert!(s.heap_bytes() < 1 << 10, "{} B", s.heap_bytes());
        assert_eq!(s.read(0, 8), want);
    }

    #[test]
    fn a_first_page_doubles_to_page_bytes_and_later_pages_are_whole() {
        // Sector `lba` is one half-word of `lba + 1` and zeroes: a 2 B
        // slot.
        let word = |lba: u64| {
            let mut sector = [0u8; SECTOR_SIZE];
            let key = u16::try_from(lba + 1).expect("a half-word key");
            sector[..LINE].copy_from_slice(&key.to_le_bytes());
            sector
        };
        let per_page = (PAGE_BYTES / LINE) as u64;
        let mut s = SectorStore::new();
        // Ascending half-words take ascending slots, so every leaf is a
        // run and holds no array: the cursor counts the half-words.
        for lba in 0..per_page {
            s.write(lba, &word(lba));
            let held = s.slabs[0].next as usize * LINE;
            assert_eq!(held, (lba as usize + 1) * LINE, "sector {lba}");
            assert_eq!(s.slabs[0].pages.len(), 1);
            assert_eq!(s.slabs[0].pages[0].len(), held.next_power_of_two());
        }
        assert_eq!(s.slabs[0].next, per_page as u32);
        s.write(per_page, &word(per_page));
        let lens: Vec<usize> = s.slabs[0].pages.iter().map(|page| page.len()).collect();
        assert_eq!(lens, [PAGE_BYTES, PAGE_BYTES], "the second page is whole");
        for lba in 0..=per_page {
            assert_eq!(s.read(lba, 1), word(lba), "sector {lba}");
        }
    }

    #[test]
    #[should_panic(expected = "is full at 268435455 slots")]
    fn an_index_entry_past_its_bits_panics() {
        // The last slot's entry tops the 32 bits: all ones above the
        // 4 class bits, which hold 8 for the whole-sector class.
        assert_eq!(entry(MAX_SLOTS - 1, WHOLE), u32::MAX - 7);
        entry(MAX_SLOTS, 0);
    }

    #[test]
    fn a_trimmed_record_keeps_every_byte_to_its_last_non_zero_span() {
        assert!(trim_zero_tail(&[0u8; 4096]).is_empty());
        let mut rec = [0u8; 4096];
        rec[..8].copy_from_slice(&7u64.to_le_bytes());
        assert_eq!(trim_zero_tail(&rec), &rec[..64]);
        rec[130] = 1;
        assert_eq!(trim_zero_tail(&rec), &rec[..192]);
        // A short last span is kept whole, up to the end.
        assert_eq!(trim_zero_tail(&rec[..150]), &rec[..150]);
        assert_eq!(trim_zero_tail(&[0, 0, 3]), &[0, 0, 3]);
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
        // sector per hash-map entry, and 517.7 B with a 4 B entry per
        // sector in its leaf's array. A dense image's leaves are runs,
        // so it costs its bytes and a share of a 16 B leaf and of a page
        // pointer: 513.6 B.
        const SECTORS: u64 = 200_000;
        let mut s = SectorStore::new();
        for slba in 0..SECTORS {
            s.write(slba, &[0xA5u8; SECTOR_SIZE]);
        }
        assert!(s.leaves.iter().all(|leaf| leaf.run));
        assert!(
            s.heap_bytes() as u64 <= 514 * SECTORS,
            "{} B for {SECTORS} sectors",
            s.heap_bytes()
        );
    }

    #[test]
    fn zero_padded_records_cost_their_nonzero_sectors() {
        // `tenant_noisy`'s log: 4 KiB records, an 8-byte key below
        // 65,536 and zeroes, appended back to back. Each costs the first
        // half-word of its first sector and an eighth of a 16 B leaf —
        // its seven zero sectors a bit each, and no entry, for its leaf
        // is a run — not the 4 KiB it spans: under 6 B, with the leaves'
        // doubling slack, plus a partly filled page per class.
        const RECORDS: usize = 20_000;
        const RECORD: usize = 8 * SECTOR_SIZE;
        let mut s = SectorStore::new();
        let mut record = [0u8; RECORD];
        for key in 0..RECORDS {
            record[..8].copy_from_slice(&(key as u64 + 1).to_le_bytes());
            s.write((key * RECORD / SECTOR_SIZE) as u64, &record);
        }
        let bound = RECORDS * 6 + CLASSES * PAGE_BYTES;
        assert!(
            s.heap_bytes() <= bound,
            "{} B for {RECORDS} records (bound {bound})",
            s.heap_bytes()
        );
        // An append-only log gives no slot back: the keys take class 0's
        // slots in order, so every leaf stays a run and holds no array.
        let free: Vec<usize> = s.slabs.iter().map(|slab| slab.free.len()).collect();
        assert_eq!(free, [0; CLASSES]);
        assert!(s.leaves.iter().all(|leaf| leaf.run));
        assert_eq!(s.slabs[0].next, RECORDS as u32);
        let last = RECORDS as u64 - 1;
        assert_eq!(s.read(8 * last, 8)[..8], RECORDS.to_le_bytes());
    }

    #[test]
    fn a_log_of_one_and_two_byte_keys_stays_a_run_per_leaf() {
        // Keys whose last non-zero byte is their first (below 256) and
        // their second (256 and up), alternating up eight leaves in LBA
        // order: both are kept in a 2 B slot, so each sector takes the
        // slot after the last and every leaf is a run without an array.
        const SECTORS: u64 = 8 * LEAF;
        let key = |lba: u64| {
            let key = if lba.is_multiple_of(2) {
                lba % 255 + 1
            } else {
                256 + lba
            };
            let mut sector = [0u8; SECTOR_SIZE];
            sector[..8].copy_from_slice(&key.to_le_bytes());
            sector
        };
        let mut s = SectorStore::new();
        let mut want = Vec::new();
        for lba in 0..SECTORS {
            s.write(lba, &key(lba));
            want.extend_from_slice(&key(lba));
        }
        assert_eq!(s.leaves.len(), 8);
        assert!(s
            .leaves
            .iter()
            .all(|leaf| leaf.run && leaf.present == u64::MAX));
        assert_eq!(
            (s.slabs[0].next, s.slabs[0].free.len()),
            (SECTORS as u32, 0)
        );
        assert!(s.slabs[1..].iter().all(|slab| slab.next == 0));
        assert_eq!(s.read(0, SECTORS as u32), want);
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
