//! The four in-tree [`PushdownWorkload`] implementations: B-tree point
//! lookups, cold SSTable gets, sequential scan/filter/aggregate, and a
//! generic pointer chase.
//!
//! Each bundles (a) the on-disk image builder, (b) the verified BPF
//! traversal program, (c) the native user-path stepper — per-chain state
//! in one [`IdMap`] keyed by [`ChainToken::id`], never by the lookup
//! key, whose value says whether the chain is still walking or has its
//! result — and (d) the result decoder and correctness check. The same
//! [`PushdownSession`](crate::PushdownSession) surface then drives any
//! of them in any [`DispatchMode`](bpfstor_kernel::DispatchMode).

use std::collections::HashMap;

use bpfstor_btree::tree::{build_pages, shape_for_depth, step_on_page, Step, TreeInfo};
use bpfstor_btree::{Node, PAGE_SIZE};
use bpfstor_kernel::{ChainStatus, ChainToken, UserNext};
use bpfstor_lsm::sstable::{ColdGet, ColdStep, Footer};
use bpfstor_lsm::{data_block_entries, Value, BLOCK};
use bpfstor_sim::{IdMap, SimRng};
use bpfstor_vm::Program;

use bpfstor_workload::{KeyDist, Op, OpMix, YcsbGen};

use crate::progs::{
    btree_lookup_program, pointer_chase_program, scan_aggregate_program, sst_get_program,
    ScanResult,
};
use crate::session::{OpSpec, PushdownWorkload, ReadSpec, SessionError, Verdict, WriteSpec};

// --- B-tree -----------------------------------------------------------------

/// The canonical value stored for `key` in generated B-trees: checking
/// lookups needs no lookup table.
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xB7EE
}

/// B-tree point lookups over a generated tree of the given depth — the
/// paper's §3 headline workload. Keys are `0..nkeys` with values from
/// [`value_of`], so every offloaded result is checkable without a
/// lookup table.
#[derive(Debug, Clone)]
pub struct Btree {
    depth: u32,
    max_chains: u64,
    issued: u64,
    nkeys: u64,
    info: Option<TreeInfo>,
}

impl Btree {
    /// A tree of the given depth (1–10 in the paper's sweeps), uniform
    /// random lookups, unbounded chain count.
    pub fn depth(depth: u32) -> Self {
        let (_, nkeys) = shape_for_depth(depth);
        Btree {
            depth,
            max_chains: u64::MAX,
            issued: 0,
            nkeys: nkeys as u64,
            info: None,
        }
    }

    /// Stops closed-loop runs after this many chains.
    pub fn max_chains(mut self, max: u64) -> Self {
        self.max_chains = max;
        self
    }

    /// Number of keys in the tree (keys are `0..nkeys`).
    pub fn nkeys(&self) -> u64 {
        self.nkeys
    }

    /// Byte offset of the root node (valid after the session built).
    pub fn root_off(&self) -> u64 {
        self.info.as_ref().expect("session built").root_block * PAGE_SIZE as u64
    }

    /// Shape of the built tree (valid after the session built).
    pub fn info(&self) -> &TreeInfo {
        self.info.as_ref().expect("session built")
    }
}

impl PushdownWorkload for Btree {
    type Request = u64;
    type Output = u64;

    fn name(&self) -> &str {
        "btree"
    }

    fn build_image(&mut self) -> Result<Vec<u8>, SessionError> {
        let (fanout, nkeys) = shape_for_depth(self.depth);
        let keys: Vec<u64> = (0..nkeys as u64).collect();
        let values: Vec<u64> = keys.iter().map(|k| value_of(*k)).collect();
        let (pages, info) =
            build_pages(&keys, &values, fanout).map_err(|e| SessionError::Build(e.to_string()))?;
        let mut image = Vec::with_capacity(pages.len() * PAGE_SIZE);
        for p in &pages {
            image.extend_from_slice(p);
        }
        self.info = Some(info);
        self.nkeys = nkeys as u64;
        Ok(image)
    }

    fn program(&self) -> Program {
        btree_lookup_program()
    }

    fn first_read(&mut self, req: &u64) -> ReadSpec {
        ReadSpec {
            file_off: self.root_off(),
            len: PAGE_SIZE as u32,
            arg: *req,
        }
    }

    fn next_request(&mut self, rng: &mut SimRng) -> Option<u64> {
        if self.issued >= self.max_chains {
            return None;
        }
        self.issued += 1;
        Some(rng.below(self.nkeys))
    }

    fn user_step(&mut self, token: &ChainToken, data: &[u8]) -> UserNext {
        match step_on_page(data, token.arg) {
            Ok(Step::Next(off)) => UserNext::Continue(off),
            // Leaf (hit or miss): deliver; decode parses the page.
            _ => UserNext::Done,
        }
    }

    fn decode(
        &mut self,
        token: &ChainToken,
        status: &ChainStatus,
    ) -> Result<Option<u64>, SessionError> {
        match status {
            ChainStatus::Emitted(v) if v.len() == 8 => {
                Ok(Some(u64::from_le_bytes(v[..8].try_into().expect("8B"))))
            }
            ChainStatus::Emitted(v) => Err(SessionError::Decode(format!(
                "expected 8-byte value, got {} bytes",
                v.len()
            ))),
            ChainStatus::Halted => Ok(None),
            ChainStatus::Pass(leaf) => match Node::decode(leaf) {
                Ok(node) if node.is_leaf() => Ok(node.find(token.arg)),
                _ => Err(SessionError::Decode("terminal page is not a leaf".into())),
            },
            other => Err(SessionError::Decode(format!("unexpected status {other:?}"))),
        }
    }

    fn check(&self, token: &ChainToken, out: Option<&u64>) -> Verdict {
        let key = token.arg;
        let expected = (key < self.nkeys).then(|| value_of(key));
        if out.copied() == expected {
            Verdict::Ok
        } else {
            Verdict::Mismatch
        }
    }
}

// --- SSTable cold get -------------------------------------------------------

/// Where one native cold get is: between two block reads, or complete
/// and waiting for `decode` to collect its value.
// The value is held inline, so a hit on the user path makes no heap call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum SstChain {
    Walking(ColdGet),
    Finished(Option<Value>),
}

/// Cold SSTable point gets (footer → index block(s) → data block) over a
/// generated fixed-value-size table — the LSM offload of §4.
#[derive(Debug, Clone)]
pub struct Sst {
    entries: Vec<(u64, Vec<u8>)>,
    probes: Vec<u64>,
    max_chains: u64,
    issued: u64,
    value_size: u32,
    footer_off: u64,
    chains: IdMap<u64, SstChain>,
}

impl Sst {
    /// A workload over `entries` (sorted by key, uniform value size)
    /// probing `probes` once each.
    ///
    /// # Panics
    ///
    /// Panics on empty entries or non-uniform value sizes (the BPF
    /// parser needs a fixed stride).
    pub fn new(entries: Vec<(u64, Vec<u8>)>, probes: Vec<u64>) -> Self {
        assert!(!entries.is_empty(), "need at least one entry");
        let value_size = entries[0].1.len() as u32;
        assert!(
            entries.iter().all(|(_, v)| v.len() as u32 == value_size),
            "BPF parsing needs a uniform value size"
        );
        let max_chains = probes.len() as u64;
        Sst {
            entries,
            probes,
            max_chains,
            issued: 0,
            value_size,
            footer_off: 0,
            chains: IdMap::default(),
        }
    }

    /// Stops closed-loop runs after this many chains (probes cycle).
    pub fn max_chains(mut self, max: u64) -> Self {
        self.max_chains = max;
        self
    }

    /// The expected value for `key`.
    ///
    /// # Panics
    ///
    /// Panics if the entry's value is longer than
    /// [`MAX_VALUE`](bpfstor_lsm::MAX_VALUE): no table holds it.
    pub fn expected(&self, key: u64) -> Option<Value> {
        let value = self.value(key)?;
        Some(Value::try_from(value).expect("a table's values fit MAX_VALUE"))
    }

    fn value(&self, key: u64) -> Option<&[u8]> {
        let at = self.entries.binary_search_by_key(&key, |(k, _)| *k);
        at.ok().map(|i| &self.entries[i].1[..])
    }

    /// Byte offset of the footer block (valid once `build_image` ran).
    pub fn footer_off(&self) -> u64 {
        self.footer_off
    }
}

impl PushdownWorkload for Sst {
    type Request = u64;
    type Output = Value;

    fn name(&self) -> &str {
        "sst"
    }

    fn build_image(&mut self) -> Result<Vec<u8>, SessionError> {
        let image = bpfstor_lsm::build_image(&self.entries)
            .map_err(|e| SessionError::Build(e.to_string()))?;
        let footer = Footer::decode(&image[image.len() - BLOCK..])
            .map_err(|e| SessionError::Build(e.to_string()))?;
        self.footer_off = (footer.total_blocks() - 1) * BLOCK as u64;
        Ok(image)
    }

    fn program(&self) -> Program {
        sst_get_program(self.value_size)
    }

    fn first_read(&mut self, req: &u64) -> ReadSpec {
        ReadSpec {
            file_off: self.footer_off,
            len: BLOCK as u32,
            arg: *req,
        }
    }

    fn next_request(&mut self, _rng: &mut SimRng) -> Option<u64> {
        if self.issued >= self.max_chains || self.probes.is_empty() {
            return None;
        }
        let key = self.probes[(self.issued % self.probes.len() as u64) as usize];
        self.issued += 1;
        Some(key)
    }

    fn user_step(&mut self, token: &ChainToken, data: &[u8]) -> UserNext {
        // The walk itself is `bpfstor_lsm`'s; this workload only owns
        // the token-keyed table of where each chain stands.
        let chain = self
            .chains
            .entry(token.id)
            .or_insert(SstChain::Walking(ColdGet::Footer));
        if let SstChain::Walking(stage) = chain {
            match stage.step(token.arg, data) {
                ColdStep::Read(next_off) => return UserNext::Continue(next_off),
                ColdStep::Done(found) => *chain = SstChain::Finished(found),
            }
        }
        UserNext::Done
    }

    fn decode(
        &mut self,
        token: &ChainToken,
        status: &ChainStatus,
    ) -> Result<Option<Value>, SessionError> {
        let chain = self.chains.remove(&token.id);
        match status {
            // Copied into the output, inline: a hit makes no heap call.
            ChainStatus::Emitted(v) => Value::try_from(&v[..])
                .map(Some)
                .map_err(|e| SessionError::Decode(format!("emitted {e}"))),
            ChainStatus::Halted => Ok(None),
            ChainStatus::Pass(_) => Ok(match chain {
                Some(SstChain::Finished(found)) => found,
                _ => None,
            }),
            other => Err(SessionError::Decode(format!("unexpected status {other:?}"))),
        }
    }

    fn check(&self, token: &ChainToken, out: Option<&Value>) -> Verdict {
        if out.map(|v| &v[..]) == self.value(token.arg) {
            Verdict::Ok
        } else {
            Verdict::Mismatch
        }
    }

    fn release(&mut self, token: &ChainToken) {
        self.chains.remove(&token.id);
    }
}

// --- Scan / filter / aggregate ----------------------------------------------

/// Where one native scan is, keyed by [`ChainToken::id`]: walking while
/// data blocks remain, finished — `so_far` is the result — at zero.
#[derive(Debug, Clone, Copy)]
struct ScanChain {
    remaining: u32,
    so_far: ScanResult,
}

/// Whole-table scan with kernel-side filtering and aggregation: `SELECT
/// sum(v), count(*) WHERE v >= threshold` over fixed-width rows, one
/// chain per scan — the paper's database-iterator use case (§3).
#[derive(Debug, Clone)]
pub struct Scan {
    entries: Vec<(u64, Vec<u8>)>,
    thresholds: Vec<u64>,
    max_chains: u64,
    issued: u64,
    value_size: u32,
    data_blocks: u32,
    chains: IdMap<u64, ScanChain>,
    /// Expected aggregates precomputed for the workload's own
    /// thresholds, so `check` does not rescan the table per chain.
    expected_cache: HashMap<u64, ScanResult>,
}

impl Scan {
    /// A workload scanning a table of `entries` once per threshold in
    /// `thresholds`.
    ///
    /// # Panics
    ///
    /// Panics on empty entries, non-uniform value sizes, or values
    /// shorter than the 8-byte aggregated field.
    pub fn new(entries: Vec<(u64, Vec<u8>)>, thresholds: Vec<u64>) -> Self {
        assert!(!entries.is_empty(), "need at least one row");
        let value_size = entries[0].1.len() as u32;
        assert!(
            entries.iter().all(|(_, v)| v.len() as u32 == value_size),
            "BPF parsing needs a uniform value size"
        );
        assert!(value_size >= 8, "need at least a u64 field to aggregate");
        let max_chains = thresholds.len() as u64;
        let mut scan = Scan {
            entries,
            thresholds: Vec::new(),
            max_chains,
            issued: 0,
            value_size,
            data_blocks: 0,
            chains: IdMap::default(),
            expected_cache: HashMap::new(),
        };
        scan.expected_cache = thresholds.iter().map(|&t| (t, scan.expected(t))).collect();
        scan.thresholds = thresholds;
        scan
    }

    /// Stops closed-loop runs after this many chains (thresholds cycle).
    pub fn max_chains(mut self, max: u64) -> Self {
        self.max_chains = max;
        self
    }

    /// Number of data blocks in the table (valid after the session
    /// built).
    pub fn data_blocks(&self) -> u32 {
        self.data_blocks
    }

    /// The natively computed aggregate for `threshold`.
    pub fn expected(&self, threshold: u64) -> ScanResult {
        let mut sum = 0u64;
        let mut count = 0u64;
        for (_, v) in &self.entries {
            let field = u64::from_le_bytes(v[..8].try_into().expect("8B"));
            if field >= threshold {
                sum += field;
                count += 1;
            }
        }
        ScanResult { sum, count }
    }
}

impl PushdownWorkload for Scan {
    type Request = u64;
    type Output = ScanResult;

    fn name(&self) -> &str {
        "scan"
    }

    fn build_image(&mut self) -> Result<Vec<u8>, SessionError> {
        let image = bpfstor_lsm::build_image(&self.entries)
            .map_err(|e| SessionError::Build(e.to_string()))?;
        let footer = Footer::decode(&image[image.len() - BLOCK..])
            .map_err(|e| SessionError::Build(e.to_string()))?;
        self.data_blocks = footer.data_blocks;
        Ok(image)
    }

    fn program(&self) -> Program {
        scan_aggregate_program(self.value_size)
    }

    fn install_flags(&self) -> u32 {
        self.data_blocks
    }

    fn first_read(&mut self, req: &u64) -> ReadSpec {
        ReadSpec {
            file_off: 0,
            len: BLOCK as u32,
            arg: *req,
        }
    }

    fn next_request(&mut self, _rng: &mut SimRng) -> Option<u64> {
        if self.issued >= self.max_chains || self.thresholds.is_empty() {
            return None;
        }
        let t = self.thresholds[(self.issued % self.thresholds.len() as u64) as usize];
        self.issued += 1;
        Some(t)
    }

    fn user_step(&mut self, token: &ChainToken, data: &[u8]) -> UserNext {
        let threshold = token.arg;
        let chain = self.chains.entry(token.id).or_insert(ScanChain {
            remaining: self.data_blocks,
            so_far: ScanResult { sum: 0, count: 0 },
        });
        if let Ok(entries) = data_block_entries(data) {
            for (_, v) in entries {
                let field = u64::from_le_bytes(v[..8].try_into().expect("8B"));
                if field >= threshold {
                    chain.so_far.sum += field;
                    chain.so_far.count += 1;
                }
            }
        }
        chain.remaining -= 1;
        if chain.remaining == 0 {
            UserNext::Done
        } else {
            let next_block = (self.data_blocks - chain.remaining) as u64;
            UserNext::Continue(next_block * BLOCK as u64)
        }
    }

    fn decode(
        &mut self,
        token: &ChainToken,
        status: &ChainStatus,
    ) -> Result<Option<ScanResult>, SessionError> {
        let chain = self.chains.remove(&token.id);
        match status {
            ChainStatus::Emitted(bytes) => ScanResult::parse(bytes)
                .map(Some)
                .ok_or_else(|| SessionError::Decode("malformed 16-byte aggregate".into())),
            ChainStatus::Pass(_) => match chain {
                Some(ScanChain {
                    remaining: 0,
                    so_far,
                }) => Ok(Some(so_far)),
                _ => Err(SessionError::Decode("native scan left no aggregate".into())),
            },
            other => Err(SessionError::Decode(format!("unexpected status {other:?}"))),
        }
    }

    fn check(&self, token: &ChainToken, out: Option<&ScanResult>) -> Verdict {
        let expected = match self.expected_cache.get(&token.arg) {
            Some(e) => *e,
            None => self.expected(token.arg),
        };
        match out {
            Some(got) if *got == expected => Verdict::Ok,
            _ => Verdict::Mismatch,
        }
    }

    fn release(&mut self, token: &ChainToken) {
        self.chains.remove(&token.id);
    }
}

// --- YCSB mixed read/write --------------------------------------------------

/// One request of the mixed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixRequest {
    /// Cold SSTable point get (pushdown-eligible read chain).
    Get(u64),
    /// Log-structured update/insert: append a value record to the write
    /// log past the table image, as a journaled write through the rings.
    Append {
        /// Key being written.
        key: u64,
        /// Chase the data with an fsync barrier (journal commit).
        fsync: bool,
    },
}

/// An LSM-front-end-shaped YCSB mix over one SSTable: reads are cold
/// pushdown gets against the immutable table (any dispatch mode),
/// updates and inserts append fixed-size records to a write log at the
/// end of the same file — journaled writes through the same per-queue
/// SQ/CQ rings, so reads and writes contend for queue slots, doorbells,
/// and interrupts. The table itself is never mutated (extent appends
/// map new blocks without unmapping), so read snapshots stay valid and
/// every read's correctness check still holds under the write storm.
///
/// [`OpMix::paper_tokudb`] (40r/40u/20i) reproduces the paper's TokuDB
/// framing; [`OpMix::ycsb_a`]/[`OpMix::ycsb_b`] cover the standard
/// mixed presets. Scans (absent from these mixes) fall back to gets.
#[derive(Debug, Clone)]
pub struct YcsbMix {
    sst: Sst,
    mix: OpMix,
    seed: u64,
    gen: Option<YcsbGen>,
    /// Byte offset of the next log append (starts at the table image's
    /// end; valid after the session built).
    log_off: u64,
    /// The record every append lends the kernel: zeroed, `write_size`
    /// bytes (rounded up to whole blocks on disk), with the key in its
    /// first bytes, rewritten for each write.
    record: Vec<u8>,
    /// Every Nth write carries an fsync barrier (0 = never).
    fsync_every: u32,
    writes_issued: u64,
    max_chains: u64,
    issued: u64,
}

impl YcsbMix {
    /// A mixed workload over `entries` (sorted, uniform value size) with
    /// the given operation mix. Defaults: 512-byte log records, fsync
    /// every 8th write, Zipfian(0.7) key popularity, unbounded chains.
    pub fn new(entries: Vec<(u64, Vec<u8>)>, mix: OpMix, seed: u64) -> Self {
        YcsbMix {
            sst: Sst::new(entries, Vec::new()),
            mix,
            seed,
            gen: None,
            log_off: 0,
            record: vec![0; 512],
            fsync_every: 8,
            writes_issued: 0,
            max_chains: u64::MAX,
            issued: 0,
        }
    }

    /// Stops closed-loop runs after this many chains.
    pub fn max_chains(mut self, max: u64) -> Self {
        self.max_chains = max;
        self
    }

    /// Overrides the appended record size in bytes.
    pub fn write_size(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "records need at least one byte");
        self.record = vec![0; bytes];
        self
    }

    /// Overrides the fsync cadence (every Nth write; 0 disables).
    pub fn fsync_every(mut self, n: u32) -> Self {
        self.fsync_every = n;
        self
    }

    fn nkeys(&self) -> u64 {
        self.sst.entries.len() as u64
    }

    /// Maps a YCSB keyspace index to a probe key: resident indices hit
    /// the table, indices minted by inserts probe past `max_key` (a
    /// miss — the log is not indexed for reads).
    fn probe_key(&self, idx: u64) -> u64 {
        let n = self.nkeys();
        if idx < n {
            self.sst.entries[idx as usize].0
        } else {
            self.sst.entries[(n - 1) as usize].0 + 1 + (idx - n)
        }
    }

    /// The record of an append of `key`: only its key bytes change
    /// between writes, the rest stays zero.
    fn record_bytes(&mut self, key: u64) -> &[u8] {
        let n = self.record.len().min(8);
        self.record[..n].copy_from_slice(&key.to_le_bytes()[..n]);
        &self.record
    }
}

impl PushdownWorkload for YcsbMix {
    type Request = MixRequest;
    type Output = Value;

    fn name(&self) -> &str {
        "ycsb_mix"
    }

    fn build_image(&mut self) -> Result<Vec<u8>, SessionError> {
        let image = self.sst.build_image()?;
        // The write log opens right after the table image; appends map
        // fresh blocks (no unmaps), so read snapshots stay armed.
        self.log_off = image.len() as u64;
        Ok(image)
    }

    fn program(&self) -> Program {
        self.sst.program()
    }

    fn first_read(&mut self, req: &MixRequest) -> ReadSpec {
        match req {
            MixRequest::Get(key) => self.sst.first_read(key),
            MixRequest::Append { key, .. } => ReadSpec {
                file_off: self.log_off,
                len: self.record.len() as u32,
                arg: *key,
            },
        }
    }

    fn first_op(&mut self, req: &MixRequest) -> OpSpec<'_> {
        match req {
            MixRequest::Get(key) => OpSpec::Read(self.sst.first_read(key)),
            MixRequest::Append { key, fsync } => {
                let off = self.log_off;
                let blocks = self.record.len().div_ceil(BLOCK) as u64;
                self.log_off += blocks * BLOCK as u64;
                OpSpec::Write(WriteSpec {
                    file_off: off,
                    data: self.record_bytes(*key),
                    fsync: *fsync,
                    arg: *key,
                })
            }
        }
    }

    fn next_request(&mut self, _rng: &mut SimRng) -> Option<MixRequest> {
        if self.issued >= self.max_chains {
            return None;
        }
        self.issued += 1;
        let (mix, seed, nkeys) = (self.mix, self.seed, self.nkeys());
        let gen = self
            .gen
            .get_or_insert_with(|| YcsbGen::new(mix, KeyDist::zipfian(nkeys, 0.7), nkeys, seed));
        let op = gen.next_op();
        Some(match op {
            Op::Read(k) | Op::Scan { key: k, .. } => MixRequest::Get(self.probe_key(k)),
            Op::Update(k) => {
                self.writes_issued += 1;
                let fsync = self.fsync_every != 0
                    && self.writes_issued.is_multiple_of(self.fsync_every as u64);
                MixRequest::Append {
                    key: self.probe_key(k),
                    fsync,
                }
            }
            Op::Insert(k) => {
                self.writes_issued += 1;
                let fsync = self.fsync_every != 0
                    && self.writes_issued.is_multiple_of(self.fsync_every as u64);
                MixRequest::Append {
                    key: self.probe_key(k),
                    fsync,
                }
            }
        })
    }

    fn user_step(&mut self, token: &ChainToken, data: &[u8]) -> UserNext {
        self.sst.user_step(token, data)
    }

    fn decode(
        &mut self,
        token: &ChainToken,
        status: &ChainStatus,
    ) -> Result<Option<Value>, SessionError> {
        self.sst.decode(token, status)
    }

    fn check(&self, token: &ChainToken, out: Option<&Value>) -> Verdict {
        self.sst.check(token, out)
    }

    fn release(&mut self, token: &ChainToken) {
        self.sst.release(token);
    }
}

// --- Pointer chase ----------------------------------------------------------

pub use crate::progs::chase::CHASE_END;

/// The canonical payload stored in a chase chain's final block.
pub const CHASE_PAYLOAD: u64 = 0xABAD_1DEA_F00D_CAFE;

/// Generic pointer chase: each 512 B block stores the byte offset of the
/// next in its first eight bytes; the sentinel block's payload is the
/// result. The smallest dependent-I/O shape — a microbenchmark of the
/// resubmit/emit protocol itself. Requests are starting byte offsets.
#[derive(Debug, Clone)]
pub struct Chase {
    hops: u64,
    max_chains: u64,
    issued: u64,
}

impl Chase {
    /// A chain of `hops` blocks; closed-loop requests start at block 0.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is 0.
    pub fn hops(hops: u64) -> Self {
        assert!(hops > 0, "need at least one block");
        Chase {
            hops,
            max_chains: u64::MAX,
            issued: 0,
        }
    }

    /// Stops closed-loop runs after this many chains.
    pub fn max_chains(mut self, max: u64) -> Self {
        self.max_chains = max;
        self
    }

    fn parse_next(data: &[u8]) -> Option<u64> {
        let next = u64::from_le_bytes(data[..8].try_into().ok()?);
        (next != CHASE_END).then_some(next)
    }
}

impl PushdownWorkload for Chase {
    type Request = u64;
    type Output = u64;

    fn name(&self) -> &str {
        "chase"
    }

    fn build_image(&mut self) -> Result<Vec<u8>, SessionError> {
        let block = BLOCK;
        let n = self.hops as usize;
        let mut image = vec![0u8; n * block];
        for i in 0..n {
            let at = i * block;
            if i + 1 < n {
                let next = ((i + 1) * block) as u64;
                image[at..at + 8].copy_from_slice(&next.to_le_bytes());
            } else {
                image[at..at + 8].copy_from_slice(&CHASE_END.to_le_bytes());
                image[at + 8..at + 16].copy_from_slice(&CHASE_PAYLOAD.to_le_bytes());
            }
        }
        Ok(image)
    }

    fn program(&self) -> Program {
        pointer_chase_program()
    }

    fn first_read(&mut self, req: &u64) -> ReadSpec {
        ReadSpec {
            file_off: *req,
            len: BLOCK as u32,
            arg: *req,
        }
    }

    fn next_request(&mut self, _rng: &mut SimRng) -> Option<u64> {
        if self.issued >= self.max_chains {
            return None;
        }
        self.issued += 1;
        Some(0)
    }

    fn user_step(&mut self, _token: &ChainToken, data: &[u8]) -> UserNext {
        match Self::parse_next(data) {
            Some(next) => UserNext::Continue(next),
            None => UserNext::Done,
        }
    }

    fn decode(
        &mut self,
        _token: &ChainToken,
        status: &ChainStatus,
    ) -> Result<Option<u64>, SessionError> {
        match status {
            ChainStatus::Emitted(v) if v.len() == 8 => {
                Ok(Some(u64::from_le_bytes(v[..8].try_into().expect("8B"))))
            }
            ChainStatus::Pass(data) if data.len() >= 16 && Self::parse_next(data).is_none() => Ok(
                Some(u64::from_le_bytes(data[8..16].try_into().expect("8B"))),
            ),
            ChainStatus::Halted => Ok(None),
            other => Err(SessionError::Decode(format!("unexpected status {other:?}"))),
        }
    }

    fn check(&self, _token: &ChainToken, out: Option<&u64>) -> Verdict {
        match out {
            Some(&CHASE_PAYLOAD) => Verdict::Ok,
            _ => Verdict::Mismatch,
        }
    }
}

#[cfg(test)]
mod tests {
    use bpfstor_kernel::DEFAULT_TENANT;
    use bpfstor_lsm::MAX_VALUE;

    use super::*;

    fn token() -> ChainToken {
        ChainToken {
            id: 1,
            tenant: DEFAULT_TENANT,
            arg: 3,
            issued: 0,
        }
    }

    /// What `decode` makes of an `Emitted` buffer of `len` bytes.
    fn decode_emitted<W>(w: &mut W, len: usize) -> Result<Option<Value>, SessionError>
    where
        W: PushdownWorkload<Output = Value>,
    {
        w.decode(&token(), &ChainStatus::Emitted(vec![9; len]))
    }

    #[test]
    fn an_emitted_value_past_max_value_is_a_decode_error() {
        let entries = vec![(3, vec![9; 48])];
        let mut sst = Sst::new(entries.clone(), Vec::new());
        let mut mix = YcsbMix::new(entries, OpMix::paper_tokudb(), 1);
        let too_long = SessionError::Decode("emitted value of 256 bytes exceeds 255".into());
        assert_eq!(
            decode_emitted(&mut sst, MAX_VALUE + 1),
            Err(too_long.clone())
        );
        assert_eq!(decode_emitted(&mut mix, MAX_VALUE + 1), Err(too_long));
        // The longest a table holds decodes whole, and so does the hit.
        let longest = decode_emitted(&mut sst, MAX_VALUE)
            .expect("fits")
            .expect("a hit");
        assert_eq!(longest, vec![9; MAX_VALUE]);
        let hit = decode_emitted(&mut mix, 48).expect("fits");
        assert_eq!(mix.check(&token(), hit.as_ref()), Verdict::Ok);
        assert_eq!(hit, sst.expected(3));
    }
}
