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
//! footer → index block → data block — exactly the dependent-I/O
//! pattern the paper offloads; `bpfstor-core` generates the BPF chain
//! and [`SstLookup`] is the shared oracle for each step.

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

/// Searches one *index block* for `key`: returns the data block number
/// of the last entry with `first_key <= key`, or `None` if the key
/// precedes every entry (it may still be in an earlier index block).
pub fn index_block_search(block: &[u8], key: u64) -> Result<Option<u32>, SstError> {
    if block.len() < 2 {
        return Err(SstError::Corrupt("short index block"));
    }
    let n = u16::from_le_bytes([block[0], block[1]]) as usize;
    if 2 + n * 12 > block.len() {
        return Err(SstError::Corrupt("index count overflows block"));
    }
    let mut best = None;
    for i in 0..n {
        let at = 2 + i * 12;
        let first = get_u64(block, at);
        if first > key {
            break;
        }
        best = Some(get_u32(block, at + 8));
    }
    Ok(best)
}

/// Scans one *data block* for `key`, returning the value if present.
pub fn data_block_search(block: &[u8], key: u64) -> Result<Option<Vec<u8>>, SstError> {
    if block.len() < 2 {
        return Err(SstError::Corrupt("short data block"));
    }
    let n = u16::from_le_bytes([block[0], block[1]]) as usize;
    let mut at = 2;
    for _ in 0..n {
        if at + 10 > block.len() {
            return Err(SstError::Corrupt("entry overflows block"));
        }
        let k = get_u64(block, at);
        let vlen = u16::from_le_bytes([block[at + 8], block[at + 9]]) as usize;
        if at + 10 + vlen > block.len() {
            return Err(SstError::Corrupt("value overflows block"));
        }
        if k == key {
            return Ok(Some(block[at + 10..at + 10 + vlen].to_vec()));
        }
        if k > key {
            return Ok(None);
        }
        at += 10 + vlen;
    }
    Ok(None)
}

/// Iterates every `(key, value)` of a data block.
pub fn data_block_entries(block: &[u8]) -> Result<Vec<(u64, Vec<u8>)>, SstError> {
    if block.len() < 2 {
        return Err(SstError::Corrupt("short data block"));
    }
    let n = u16::from_le_bytes([block[0], block[1]]) as usize;
    let mut at = 2;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if at + 10 > block.len() {
            return Err(SstError::Corrupt("entry overflows block"));
        }
        let k = get_u64(block, at);
        let vlen = u16::from_le_bytes([block[at + 8], block[at + 9]]) as usize;
        if at + 10 + vlen > block.len() {
            return Err(SstError::Corrupt("value overflows block"));
        }
        out.push((k, block[at + 10..at + 10 + vlen].to_vec()));
        at += 10 + vlen;
    }
    Ok(out)
}

/// The three dependent steps of a cold SSTable lookup, used as the
/// oracle for the BPF chain generated in `bpfstor-core`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SstLookup {
    /// Read this file byte offset next.
    Next(u64),
    /// Value found.
    Found(Vec<u8>),
    /// Key definitely absent.
    Missing,
}

/// Cold-lookup step on the footer block of a file with `file_blocks`
/// total blocks: decide which index block to fetch.
pub fn step_footer(footer_block: &[u8], key: u64) -> Result<SstLookup, SstError> {
    let f = Footer::decode(footer_block)?;
    if key < f.min_key || key > f.max_key {
        return Ok(SstLookup::Missing);
    }
    // Without in-memory state we start at the first index block; the
    // index step advances through at most `index_blocks` blocks.
    let first_index_block = f.data_blocks as u64;
    Ok(SstLookup::Next(first_index_block * BLOCK as u64))
}

/// Cold-lookup step on an index block.
pub fn step_index(index_block: &[u8], key: u64) -> Result<SstLookup, SstError> {
    match index_block_search(index_block, key)? {
        Some(data_block) => Ok(SstLookup::Next(data_block as u64 * BLOCK as u64)),
        None => Ok(SstLookup::Missing),
    }
}

/// Cold-lookup step on a data block.
pub fn step_data(data_block: &[u8], key: u64) -> Result<SstLookup, SstError> {
    Ok(match data_block_search(data_block, key)? {
        Some(v) => SstLookup::Found(v),
        None => SstLookup::Missing,
    })
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

    #[test]
    fn every_key_found_via_cold_steps() {
        let entries = sample(200);
        let image = build_image(&entries).expect("build");
        let bs = blocks(&image);
        let nblocks = bs.len() as u64;
        for (key, value) in &entries {
            // footer step
            let step = step_footer(bs[(nblocks - 1) as usize], *key).expect("footer step");
            let SstLookup::Next(mut off) = step else {
                panic!("in-range key must continue: {step:?}");
            };
            // index step(s): walk forward if the key is in a later block.
            let mut result = None;
            for _hop in 0..8 {
                let blk = bs[(off / BLOCK as u64) as usize];
                let step = if result.is_none() {
                    step_index(blk, *key).expect("index step")
                } else {
                    break;
                };
                match step {
                    SstLookup::Next(data_off) => {
                        let dblk = bs[(data_off / BLOCK as u64) as usize];
                        result = Some(step_data(dblk, *key).expect("data step"));
                    }
                    SstLookup::Missing => {
                        result = Some(SstLookup::Missing);
                    }
                    SstLookup::Found(_) => unreachable!(),
                }
                off += BLOCK as u64;
            }
            assert_eq!(result, Some(SstLookup::Found(value.clone())), "key {key}");
        }
    }

    #[test]
    fn absent_keys_are_missing() {
        let entries = sample(100);
        let image = build_image(&entries).expect("build");
        let bs = blocks(&image);
        let f = Footer::decode(bs[bs.len() - 1]).expect("footer");
        // Odd keys are absent.
        for key in [1u64, 77, 151] {
            let first_index = f.data_blocks as usize;
            let data = match step_index(bs[first_index], key).expect("index") {
                SstLookup::Next(off) => bs[(off / BLOCK as u64) as usize],
                other => panic!("{other:?}"),
            };
            assert_eq!(step_data(data, key).expect("data"), SstLookup::Missing);
        }
        // Out-of-range keys cut off at the footer.
        assert_eq!(
            step_footer(bs[bs.len() - 1], 10_000).expect("footer"),
            SstLookup::Missing
        );
    }

    #[test]
    fn bloom_roundtrip_from_blocks() {
        let entries = sample(500);
        let image = build_image(&entries).expect("build");
        let bs = blocks(&image);
        let f = Footer::decode(bs[bs.len() - 1]).expect("footer");
        let start = (f.data_blocks + f.index_blocks) as usize;
        let mut bytes = Vec::new();
        for b in &bs[start..start + f.bloom_blocks as usize] {
            bytes.extend_from_slice(b);
        }
        let words: Vec<u64> = bytes
            .chunks(8)
            .take((f.bloom_bits.div_ceil(64)) as usize)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8B")))
            .collect();
        let bloom = Bloom::from_parts(words, f.bloom_bits, f.bloom_k);
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
