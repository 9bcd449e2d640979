//! SSTable: immutable sorted-string table files.
//!
//! The paper's §4 leans on LSM SSTables being *immutable once written*
//! ("once an LSM-tree writes SSTable files to disk, they are immutable
//! and their extents are stable"). This module implements that file
//! format on 512-byte blocks:
//!
//! ```text
//! blocks [0, D)          data blocks:  u16 nentries, then packed
//!                        entries (key u64, vlen u16, value bytes);
//!                        entries never span blocks
//! blocks [D, D+I)        index blocks: u16 nentries, then
//!                        (first_key u64, block u32) pairs
//! blocks [D+I, D+I+B)    bloom filter bit words
//! block  D+I+B (last)    footer: magic, D, I, B, nkeys, bloom params
//! ```
//!
//! A *cold* lookup (nothing cached) therefore chains
//! footer → index block(s) → data block — exactly the dependent-I/O
//! pattern the paper offloads; `bpfstor-core` generates the BPF chain
//! and [`ColdGet`], the native walk, is the shared oracle for it.
//!
//! This module is the only Rust that reads a block's bytes. One checked
//! parser per block kind (`index_entries`, `data_entries`) serves the
//! searches, the warm [`TableHandle`](crate::TableHandle) and the cold
//! stepper alike, so a malformed block is an [`SstError`] (a miss, for a
//! cold get) at every reader and a panic at none.

use bpfstor_device::SECTOR_SIZE;

use crate::bloom::Bloom;

/// Block size (= device sector).
pub const BLOCK: usize = SECTOR_SIZE;
/// Footer magic.
pub const SST_MAGIC: u32 = 0x5353_5442; // "SSTB"
/// Maximum value length (bounded so entries fit a block comfortably).
pub const MAX_VALUE: usize = 255;

/// Byte offsets inside the footer block.
pub mod footer_off {
    /// u32 magic.
    pub const MAGIC: usize = 0;
    /// u32 number of data blocks.
    pub const DATA_BLOCKS: usize = 4;
    /// u32 number of index blocks.
    pub const INDEX_BLOCKS: usize = 8;
    /// u32 number of bloom blocks.
    pub const BLOOM_BLOCKS: usize = 12;
    /// u64 number of keys.
    pub const NKEYS: usize = 16;
    /// u64 bloom bit count.
    pub const BLOOM_BITS: usize = 24;
    /// u32 bloom probe count.
    pub const BLOOM_K: usize = 32;
    /// u64 smallest key.
    pub const MIN_KEY: usize = 36;
    /// u64 largest key.
    pub const MAX_KEY: usize = 44;
}

/// Errors from building or reading SSTables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SstError {
    /// Input not strictly sorted by key.
    Unsorted,
    /// Empty table.
    Empty,
    /// Value longer than [`MAX_VALUE`].
    ValueTooLarge(usize),
    /// Footer failed validation.
    BadFooter,
    /// Block failed validation.
    Corrupt(&'static str),
}

impl std::fmt::Display for SstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SstError::Unsorted => write!(f, "entries not sorted"),
            SstError::Empty => write!(f, "empty table"),
            SstError::ValueTooLarge(n) => write!(f, "value of {n} bytes exceeds {MAX_VALUE}"),
            SstError::BadFooter => write!(f, "bad footer"),
            SstError::Corrupt(w) => write!(f, "corrupt table: {w}"),
        }
    }
}

impl std::error::Error for SstError {}

/// A value read out of a table: at most [`MAX_VALUE`] bytes, held
/// inline, so reading one makes no heap call. Derefs to its bytes and
/// compares equal to any byte slice or `Vec<u8>` holding the same ones.
#[derive(Clone, Copy)]
pub struct Value {
    len: u8,
    bytes: [u8; MAX_VALUE],
}

// `Value::len` is a `u8`.
const _: () = assert!(MAX_VALUE <= u8::MAX as usize);

impl TryFrom<&[u8]> for Value {
    type Error = SstError;

    /// Copies `bytes`; [`SstError::ValueTooLarge`] past [`MAX_VALUE`].
    fn try_from(bytes: &[u8]) -> Result<Self, SstError> {
        if bytes.len() > MAX_VALUE {
            return Err(SstError::ValueTooLarge(bytes.len()));
        }
        let mut value = Value {
            len: bytes.len() as u8,
            bytes: [0; MAX_VALUE],
        };
        value.bytes[..bytes.len()].copy_from_slice(bytes);
        Ok(value)
    }
}

impl std::ops::Deref for Value {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        **self == **other
    }
}

impl Eq for Value {}

impl PartialEq<[u8]> for Value {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for Value {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

/// Builds the complete file image for sorted `(key, value)` entries.
///
/// Returns the raw bytes (a whole number of blocks) ready to be written
/// through the file system in one sequential append.
///
/// # Errors
///
/// Rejects unsorted/empty input and oversized values.
pub fn build_image(entries: &[(u64, Vec<u8>)]) -> Result<Vec<u8>, SstError> {
    if entries.is_empty() {
        return Err(SstError::Empty);
    }
    if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(SstError::Unsorted);
    }
    if let Some(big) = entries.iter().find(|(_, v)| v.len() > MAX_VALUE) {
        return Err(SstError::ValueTooLarge(big.1.len()));
    }

    // Pack data blocks.
    let mut data_blocks: Vec<Vec<u8>> = Vec::new();
    let mut index: Vec<(u64, u32)> = Vec::new();
    let mut cur = vec![0u8; 2];
    let mut cur_entries: u16 = 0;
    let mut cur_first: Option<u64> = None;
    let mut bloom = Bloom::new(entries.len(), 10);
    for (key, value) in entries {
        bloom.insert(*key);
        let need = 8 + 2 + value.len();
        if cur.len() + need > BLOCK {
            finish_data_block(
                &mut data_blocks,
                &mut index,
                &mut cur,
                cur_entries,
                cur_first,
            );
            cur = vec![0u8; 2];
            cur_entries = 0;
            cur_first = None;
        }
        if cur_first.is_none() {
            cur_first = Some(*key);
        }
        cur.extend_from_slice(&key.to_le_bytes());
        cur.extend_from_slice(&(value.len() as u16).to_le_bytes());
        cur.extend_from_slice(value);
        cur_entries += 1;
    }
    finish_data_block(
        &mut data_blocks,
        &mut index,
        &mut cur,
        cur_entries,
        cur_first,
    );

    // Pack index blocks: u16 count then 12-byte entries.
    let per_block = (BLOCK - 2) / 12;
    let mut index_blocks: Vec<Vec<u8>> = Vec::new();
    for chunk in index.chunks(per_block) {
        let mut b = vec![0u8; 2];
        b[..2].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
        for (first_key, blkno) in chunk {
            b.extend_from_slice(&first_key.to_le_bytes());
            b.extend_from_slice(&blkno.to_le_bytes());
        }
        b.resize(BLOCK, 0);
        index_blocks.push(b);
    }

    // Bloom blocks: raw words.
    let bloom_bytes: Vec<u8> = bloom.words().iter().flat_map(|w| w.to_le_bytes()).collect();
    let bloom_blocks: Vec<Vec<u8>> = bloom_bytes
        .chunks(BLOCK)
        .map(|c| {
            let mut b = c.to_vec();
            b.resize(BLOCK, 0);
            b
        })
        .collect();

    // Footer.
    let mut footer = vec![0u8; BLOCK];
    put_u32(&mut footer, footer_off::MAGIC, SST_MAGIC);
    put_u32(
        &mut footer,
        footer_off::DATA_BLOCKS,
        data_blocks.len() as u32,
    );
    put_u32(
        &mut footer,
        footer_off::INDEX_BLOCKS,
        index_blocks.len() as u32,
    );
    put_u32(
        &mut footer,
        footer_off::BLOOM_BLOCKS,
        bloom_blocks.len() as u32,
    );
    put_u64(&mut footer, footer_off::NKEYS, entries.len() as u64);
    put_u64(&mut footer, footer_off::BLOOM_BITS, bloom.nbits());
    put_u32(&mut footer, footer_off::BLOOM_K, bloom.k());
    put_u64(&mut footer, footer_off::MIN_KEY, entries[0].0);
    put_u64(
        &mut footer,
        footer_off::MAX_KEY,
        entries[entries.len() - 1].0,
    );

    let mut image = Vec::new();
    for b in data_blocks
        .iter()
        .chain(index_blocks.iter())
        .chain(bloom_blocks.iter())
    {
        image.extend_from_slice(b);
    }
    image.extend_from_slice(&footer);
    Ok(image)
}

fn finish_data_block(
    blocks: &mut Vec<Vec<u8>>,
    index: &mut Vec<(u64, u32)>,
    cur: &mut Vec<u8>,
    entries: u16,
    first: Option<u64>,
) {
    if entries == 0 {
        return;
    }
    cur[..2].copy_from_slice(&entries.to_le_bytes());
    let mut b = std::mem::take(cur);
    b.resize(BLOCK, 0);
    index.push((
        first.expect("entries imply a first key"),
        blocks.len() as u32,
    ));
    blocks.push(b);
}

fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Parsed footer metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Data block count.
    pub data_blocks: u32,
    /// Index block count.
    pub index_blocks: u32,
    /// Bloom block count.
    pub bloom_blocks: u32,
    /// Key count.
    pub nkeys: u64,
    /// Bloom bit count.
    pub bloom_bits: u64,
    /// Bloom probe count.
    pub bloom_k: u32,
    /// Smallest key in the table.
    pub min_key: u64,
    /// Largest key in the table.
    pub max_key: u64,
}

impl Footer {
    /// Total file size in blocks (including the footer).
    pub fn total_blocks(&self) -> u64 {
        self.data_blocks as u64 + self.index_blocks as u64 + self.bloom_blocks as u64 + 1
    }

    /// Rebuilds the bloom filter from the bytes of the table's bloom
    /// blocks.
    ///
    /// # Errors
    ///
    /// [`SstError::Corrupt`] if the footer claims more filter bits than
    /// `bloom_bytes` holds, or none.
    pub(crate) fn bloom(&self, bloom_bytes: &[u8]) -> Result<Bloom, SstError> {
        let nwords = self.bloom_bits.div_ceil(64);
        if nwords == 0 || nwords > (bloom_bytes.len() / 8) as u64 {
            return Err(SstError::Corrupt("bloom filter shorter than its bit count"));
        }
        let words = bloom_bytes
            .chunks_exact(8)
            .take(nwords as usize)
            .map(|c| get_u64(c, 0))
            .collect();
        Ok(Bloom::from_parts(words, self.bloom_bits, self.bloom_k))
    }

    /// Parses a footer block.
    ///
    /// # Errors
    ///
    /// [`SstError::BadFooter`] on magic mismatch or short block.
    pub fn decode(block: &[u8]) -> Result<Footer, SstError> {
        if block.len() < BLOCK {
            return Err(SstError::BadFooter);
        }
        if get_u32(block, footer_off::MAGIC) != SST_MAGIC {
            return Err(SstError::BadFooter);
        }
        Ok(Footer {
            data_blocks: get_u32(block, footer_off::DATA_BLOCKS),
            index_blocks: get_u32(block, footer_off::INDEX_BLOCKS),
            bloom_blocks: get_u32(block, footer_off::BLOOM_BLOCKS),
            nkeys: get_u64(block, footer_off::NKEYS),
            bloom_bits: get_u64(block, footer_off::BLOOM_BITS),
            bloom_k: get_u32(block, footer_off::BLOOM_K),
            min_key: get_u64(block, footer_off::MIN_KEY),
            max_key: get_u64(block, footer_off::MAX_KEY),
        })
    }
}

fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

fn get_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// The checked parser of an *index block*: a `u16` count, then that
/// many 12-byte `(first_key u64, block u32)` entries.
pub(crate) fn index_entries(
    block: &[u8],
) -> Result<impl ExactSizeIterator<Item = (u64, u32)> + '_, SstError> {
    let (count, rest) = block
        .split_first_chunk::<2>()
        .ok_or(SstError::Corrupt("short index block"))?;
    let entries = rest
        .get(..u16::from_le_bytes(*count) as usize * 12)
        .ok_or(SstError::Corrupt("index count overflows block"))?;
    Ok(entries
        .chunks_exact(12)
        .map(|e| (get_u64(e, 0), get_u32(e, 8))))
}

/// Searches one *index block* for `key`: returns the data block number
/// of the last entry with `first_key <= key`, or `None` if the key
/// precedes every entry (it may still be in an earlier index block).
pub fn index_block_search(block: &[u8], key: u64) -> Result<Option<u32>, SstError> {
    Ok(index_entries(block)?
        .take_while(|(first, _)| *first <= key)
        .last()
        .map(|(_, data_block)| data_block))
}

/// The checked parser of a *data block*: a `u16` count, then that many
/// packed `(key u64, vlen u16, value)` entries. Yields an error in place
/// of an entry that would run past the block.
fn data_entries(
    block: &[u8],
) -> Result<impl ExactSizeIterator<Item = Result<(u64, &[u8]), SstError>>, SstError> {
    let (count, mut rest) = block
        .split_first_chunk::<2>()
        .ok_or(SstError::Corrupt("short data block"))?;
    Ok((0..u16::from_le_bytes(*count)).map(move |_| {
        let (head, tail) = rest
            .split_first_chunk::<10>()
            .ok_or(SstError::Corrupt("entry overflows block"))?;
        let vlen = u16::from_le_bytes([head[8], head[9]]) as usize;
        let (value, tail) = tail
            .split_at_checked(vlen)
            .ok_or(SstError::Corrupt("value overflows block"))?;
        rest = tail;
        Ok((get_u64(head, 0), value))
    }))
}

/// Scans one *data block* for `key`, returning the value if present.
/// A value longer than [`MAX_VALUE`] is [`SstError::ValueTooLarge`]: no
/// table [`build_image`] writes holds one.
pub fn data_block_search(block: &[u8], key: u64) -> Result<Option<Value>, SstError> {
    for entry in data_entries(block)? {
        let (k, value) = entry?;
        if k == key {
            return Value::try_from(value).map(Some);
        }
        if k > key {
            break;
        }
    }
    Ok(None)
}

/// Iterates every `(key, value)` of a data block.
pub fn data_block_entries(block: &[u8]) -> Result<Vec<(u64, Vec<u8>)>, SstError> {
    let entries = data_entries(block)?;
    // The count is input: no entry is shorter than its 10-byte header.
    let mut out = Vec::with_capacity(entries.len().min(block.len() / 10));
    for entry in entries {
        let (k, value) = entry?;
        out.push((k, value.to_vec()));
    }
    Ok(out)
}

/// Where a cold get stands between two dependent block reads: the
/// native walk of the footer → index block(s) → data block chain, and
/// the oracle for the BPF chain generated in `bpfstor-core`. A chain
/// starts at [`ColdGet::Footer`] on the table's last block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdGet {
    /// The block read is the footer.
    Footer,
    /// The block read is an index block.
    Index {
        /// Index blocks not yet visited (including this one).
        remaining: u32,
        /// Byte offset of this index block.
        cursor: u64,
        /// Data-block byte offset carried from the previous index
        /// block: where the key lives if it precedes this one.
        candidate: Option<u64>,
    },
    /// The block read is the data block that owns the key's range.
    Data,
}

/// What one [`ColdGet::step`] decided.
// The value moves out by value; boxing it would put back the heap call
// per hit that holding it inline takes away.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColdStep {
    /// Read the block at this file byte offset next (the stage has
    /// advanced to match).
    Read(u64),
    /// The get is complete: the value, if the key is present.
    Done(Option<Value>),
}

impl ColdGet {
    /// One step over the completed `block`. A block the checked parsers
    /// reject ends the get as a miss, exactly like a bad footer.
    pub fn step(&mut self, key: u64, block: &[u8]) -> ColdStep {
        self.try_step(key, block).unwrap_or(ColdStep::Done(None))
    }

    fn try_step(&mut self, key: u64, block: &[u8]) -> Result<ColdStep, SstError> {
        let data_at = |block_no: u32| block_no as u64 * BLOCK as u64;
        let (next, stage) = match *self {
            ColdGet::Footer => {
                let f = Footer::decode(block)?;
                if key < f.min_key || key > f.max_key {
                    return Ok(ColdStep::Done(None));
                }
                // Without in-memory state the walk starts at the first
                // index block and advances through at most all of them.
                let cursor = data_at(f.data_blocks);
                let stage = ColdGet::Index {
                    remaining: f.index_blocks,
                    cursor,
                    candidate: None,
                };
                (cursor, stage)
            }
            ColdGet::Index {
                remaining,
                cursor,
                candidate,
            } => {
                let entries = index_entries(block)?;
                let n = entries.len();
                let best = entries
                    .enumerate()
                    .take_while(|(_, (first, _))| *first <= key)
                    .last();
                match best {
                    // The key precedes this block: the previous block's
                    // last entry (the candidate) owns it, if any.
                    None => match candidate {
                        Some(off) => (off, ColdGet::Data),
                        None => return Ok(ColdStep::Done(None)),
                    },
                    // The key may live in a later index block; remember
                    // this candidate and walk on.
                    Some((i, (_, data_block))) if i + 1 == n && remaining > 1 => {
                        let next = cursor + BLOCK as u64;
                        let stage = ColdGet::Index {
                            remaining: remaining - 1,
                            cursor: next,
                            candidate: Some(data_at(data_block)),
                        };
                        (next, stage)
                    }
                    Some((_, (_, data_block))) => (data_at(data_block), ColdGet::Data),
                }
            }
            ColdGet::Data => return Ok(ColdStep::Done(data_block_search(block, key)?)),
        };
        *self = stage;
        Ok(ColdStep::Read(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Vec<(u64, Vec<u8>)> {
        (0..n)
            .map(|i| (i * 2, format!("v{i}").into_bytes()))
            .collect()
    }

    fn blocks(image: &[u8]) -> Vec<&[u8]> {
        image.chunks(BLOCK).collect()
    }

    #[test]
    fn image_is_block_aligned_with_valid_footer() {
        let image = build_image(&sample(100)).expect("build");
        assert_eq!(image.len() % BLOCK, 0);
        let bs = blocks(&image);
        let f = Footer::decode(bs[bs.len() - 1]).expect("footer");
        assert_eq!(f.nkeys, 100);
        assert_eq!(f.total_blocks() as usize, bs.len());
        assert_eq!(f.min_key, 0);
        assert_eq!(f.max_key, 198);
    }

    /// Walks a cold get over the raw image hop by hop, as the User path
    /// does: the value, and how many blocks were read.
    fn cold_get(image: &[u8], key: u64) -> (Option<Vec<u8>>, u32) {
        let mut off = image.len() - BLOCK;
        let mut stage = ColdGet::Footer;
        for hops in 1..=16 {
            match stage.step(key, &image[off..off + BLOCK]) {
                ColdStep::Read(next) => off = next as usize,
                ColdStep::Done(found) => return (found.map(|v| v.to_vec()), hops),
            }
        }
        panic!("runaway cold get for key {key}");
    }

    #[test]
    fn every_key_found_via_cold_steps() {
        let entries = sample(200);
        let image = build_image(&entries).expect("build");
        for (key, value) in &entries {
            assert_eq!(
                cold_get(&image, *key),
                (Some(value.clone()), 3),
                "key {key}"
            );
        }
    }

    #[test]
    fn cold_get_walks_later_index_blocks_with_the_candidate_carried() {
        // ~34 entries per data block and 42 index entries per index
        // block: 2 000 entries need a second index block.
        let entries = sample(2_000);
        let image = build_image(&entries).expect("build");
        let bs = blocks(&image);
        let f = Footer::decode(bs[bs.len() - 1]).expect("footer");
        assert_eq!(f.index_blocks, 2);
        let first_index: Vec<_> = index_entries(bs[f.data_blocks as usize])
            .expect("index")
            .collect();
        let (boundary_first, boundary_block) = *first_index.last().expect("full block");
        for (key, value) in &entries {
            // Keys from the first index block's last entry on cannot be
            // placed without looking at the second one: the last data
            // block of the first is reached through the carried
            // candidate, the rest through the second block's entries.
            let hops = if *key >= boundary_first { 4 } else { 3 };
            assert_eq!(
                cold_get(&image, *key),
                (Some(value.clone()), hops),
                "key {key}"
            );
        }
        let owned_by_candidate = data_block_entries(bs[boundary_block as usize])
            .expect("data")
            .len();
        assert!(
            owned_by_candidate > 1,
            "the carry decides more than one key"
        );
    }

    #[test]
    fn absent_keys_are_missing() {
        let image = build_image(&sample(100)).expect("build");
        // Odd keys are absent: footer, index and data are all read.
        for key in [1u64, 77, 151] {
            assert_eq!(cold_get(&image, key), (None, 3), "key {key}");
        }
        // Out-of-range keys cut off at the footer.
        assert_eq!(cold_get(&image, 10_000), (None, 1));
    }

    #[test]
    fn malformed_blocks_are_errors_for_the_searches_and_misses_for_a_cold_get() {
        // An index block whose count reads 0xFFFF: 2 + 65 535 * 12 bytes
        // of entries do not fit 512.
        let mut bad_index = vec![0u8; BLOCK];
        bad_index[..2].copy_from_slice(&[0xFF, 0xFF]);
        let overflow = SstError::Corrupt("index count overflows block");
        assert_eq!(index_block_search(&bad_index, 598), Err(overflow.clone()));
        assert_eq!(index_entries(&bad_index).err(), Some(overflow));
        let mut stage = ColdGet::Index {
            remaining: 1,
            cursor: 0,
            candidate: Some(0),
        };
        assert_eq!(stage.step(598, &bad_index), ColdStep::Done(None));

        // A data block whose second entry claims a value past the end.
        let mut bad_data = vec![0u8; BLOCK];
        bad_data[..2].copy_from_slice(&2u16.to_le_bytes());
        bad_data[2..10].copy_from_slice(&1u64.to_le_bytes());
        bad_data[10..12].copy_from_slice(&4u16.to_le_bytes());
        bad_data[16..24].copy_from_slice(&9u64.to_le_bytes());
        bad_data[24..26].copy_from_slice(&600u16.to_le_bytes());
        let overflow = SstError::Corrupt("value overflows block");
        let zeros = Value::try_from(&[0u8; 4][..]).expect("short");
        assert_eq!(data_block_search(&bad_data, 1), Ok(Some(zeros)));
        assert_eq!(data_block_search(&bad_data, 9), Err(overflow.clone()));
        assert_eq!(data_block_entries(&bad_data), Err(overflow));
        assert_eq!(ColdGet::Data.step(9, &bad_data), ColdStep::Done(None));

        // Blocks too short to hold a count.
        for mut stage in [ColdGet::Footer, ColdGet::Data, stage] {
            assert_eq!(stage.step(1, &[7]), ColdStep::Done(None), "{stage:?}");
        }
    }

    #[test]
    fn a_value_longer_than_max_value_is_an_error_and_a_miss() {
        // One entry whose 300-byte value fits the block but not a table.
        let mut block = vec![0u8; BLOCK];
        block[..2].copy_from_slice(&1u16.to_le_bytes());
        block[2..10].copy_from_slice(&5u64.to_le_bytes());
        block[10..12].copy_from_slice(&300u16.to_le_bytes());
        let too_large = SstError::ValueTooLarge(300);
        assert_eq!(data_block_search(&block, 5), Err(too_large.clone()));
        assert_eq!(ColdGet::Data.step(5, &block), ColdStep::Done(None));
        assert_eq!(
            Value::try_from(&block[..256]).err(),
            Some(SstError::ValueTooLarge(256))
        );
        assert_eq!(
            Value::try_from(&block[..MAX_VALUE]).map(|v| v.len()),
            Ok(MAX_VALUE)
        );
    }

    #[test]
    fn a_value_is_its_bytes() {
        let bytes = b"v42".to_vec();
        let value = Value::try_from(&bytes[..]).expect("short");
        let copy = value;
        assert_eq!((&*copy, copy), (&bytes[..], value), "a copy, not a move");
        assert_eq!(value, bytes);
        assert!(value == *b"v42".as_slice());
        assert_eq!(format!("{value:?}"), format!("{bytes:?}"));
        let empty = Value::try_from(&[][..]).expect("empty");
        assert_ne!(empty, value);
        assert!(empty.is_empty());
    }

    #[test]
    fn bloom_roundtrip_from_blocks() {
        let entries = sample(500);
        let image = build_image(&entries).expect("build");
        let bs = blocks(&image);
        let f = Footer::decode(bs[bs.len() - 1]).expect("footer");
        let start = (f.data_blocks + f.index_blocks) as usize * BLOCK;
        let bytes = &image[start..start + f.bloom_blocks as usize * BLOCK];
        let bloom = f.bloom(bytes).expect("bloom");
        for (k, _) in &entries {
            assert!(bloom.may_contain(*k));
        }
    }

    #[test]
    fn data_block_entries_roundtrip() {
        let entries = sample(50);
        let image = build_image(&entries).expect("build");
        let bs = blocks(&image);
        let f = Footer::decode(bs[bs.len() - 1]).expect("footer");
        let mut all = Vec::new();
        for b in &bs[..f.data_blocks as usize] {
            all.extend(data_block_entries(b).expect("entries"));
        }
        assert_eq!(all, entries);
    }

    #[test]
    fn build_rejects_bad_input() {
        assert_eq!(build_image(&[]).unwrap_err(), SstError::Empty);
        assert_eq!(
            build_image(&[(2, vec![]), (1, vec![])]).unwrap_err(),
            SstError::Unsorted
        );
        assert_eq!(
            build_image(&[(1, vec![0u8; 300])]).unwrap_err(),
            SstError::ValueTooLarge(300)
        );
    }

    #[test]
    fn footer_decode_rejects_garbage() {
        assert_eq!(
            Footer::decode(&vec![0u8; BLOCK]).unwrap_err(),
            SstError::BadFooter
        );
        assert_eq!(Footer::decode(&[0u8; 10]).unwrap_err(), SstError::BadFooter);
    }

    #[test]
    fn large_values_pack_fewer_per_block() {
        let entries: Vec<(u64, Vec<u8>)> = (0..20u64).map(|i| (i, vec![i as u8; 200])).collect();
        let image = build_image(&entries).expect("build");
        let bs = blocks(&image);
        let f = Footer::decode(bs[bs.len() - 1]).expect("footer");
        // 210B per entry -> 2 per 512B block -> 10 data blocks.
        assert_eq!(f.data_blocks, 10);
    }
}
