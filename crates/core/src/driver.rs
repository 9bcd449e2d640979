//! The low-level SSTable driver, programmed directly against the
//! kernel's [`ChainDriver`] trait, and the native cold-get stepper it
//! shares with the [`Sst`](crate::workloads::Sst) workload.
//!
//! Most applications should use the
//! [`PushdownSession`](crate::PushdownSession) facade instead;
//! [`SstGetDriver`] remains for tables an
//! [`LsmTree`](bpfstor_lsm::LsmTree) wrote onto an existing machine,
//! which a session (owning its machine and image) cannot adopt.
//!
//! Per-chain state is keyed by [`ChainToken::id`] — never by the lookup
//! key — so concurrent chains for the same key cannot collide.

use std::collections::HashMap;

use bpfstor_kernel::{
    ChainDriver, ChainOutcome, ChainSpec, ChainStart, ChainStatus, ChainToken, ChainVerdict,
    DispatchMode, Fd, UserNext,
};
use bpfstor_sim::SimRng;

use crate::session::SessionStats;

/// The canonical value stored for `key` in generated B-trees: checking
/// lookups needs no lookup table.
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xB7EE
}

/// Per-chain stage of a cold SSTable get on the native (User) path.
/// Mirrors the BPF program's scratch state machine, including the
/// multi-index-block candidate walk. Shared by [`SstGetDriver`] and the
/// [`Sst`](crate::workloads::Sst) workload; keyed by
/// [`ChainToken::id`] in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SstStage {
    Index {
        /// Index blocks not yet visited (including the current one).
        remaining: u32,
        /// Byte offset of the current index block.
        cursor: u64,
        /// Data-block byte offset carried from a previous index block.
        candidate: Option<u64>,
    },
    Data,
}

/// The result of one native cold-get step over a completed block.
pub(crate) enum SstWalk {
    /// Read the next dependent block and carry this stage.
    Continue(u64, SstStage),
    /// The chain is complete: the value, if the key was found.
    Finished(Option<Vec<u8>>),
}

/// One native (user-path) step of a cold SSTable get: `stage` is the
/// chain's current stage (`None` = this block is the footer), `key` the
/// lookup key, `data` the completed block. Pure — callers own the
/// per-chain (token-keyed) stage map.
pub(crate) fn sst_native_step(stage: Option<SstStage>, key: u64, data: &[u8]) -> SstWalk {
    use bpfstor_lsm::sstable::Footer;
    use bpfstor_lsm::{step_data, SstLookup, BLOCK};
    match stage {
        None => {
            // Footer hop: range-check and locate the index region.
            let Ok(footer) = Footer::decode(data) else {
                return SstWalk::Finished(None);
            };
            if key < footer.min_key || key > footer.max_key {
                return SstWalk::Finished(None);
            }
            let cursor = footer.data_blocks as u64 * BLOCK as u64;
            SstWalk::Continue(
                cursor,
                SstStage::Index {
                    remaining: footer.index_blocks,
                    cursor,
                    candidate: None,
                },
            )
        }
        Some(SstStage::Index {
            remaining,
            cursor,
            candidate,
        }) => {
            // Parse the 12-byte (first_key, block) entries.
            let n = u16::from_le_bytes([data[0], data[1]]) as usize;
            let entry = |i: usize| -> (u64, u32) {
                let at = 2 + i * 12;
                (
                    u64::from_le_bytes(data[at..at + 8].try_into().expect("8B")),
                    u32::from_le_bytes(data[at + 8..at + 12].try_into().expect("4B")),
                )
            };
            if n == 0 || entry(0).0 > key {
                // Key precedes this block: the previous block's last
                // entry (the candidate) owns it, if any.
                return match candidate {
                    Some(off) => SstWalk::Continue(off, SstStage::Data),
                    None => SstWalk::Finished(None),
                };
            }
            let mut best = 0;
            for i in 0..n {
                if entry(i).0 > key {
                    break;
                }
                best = i;
            }
            let best_off = entry(best).1 as u64 * BLOCK as u64;
            if best == n - 1 && remaining > 1 {
                // The key may live in a later index block; remember this
                // candidate and walk on.
                let next = cursor + BLOCK as u64;
                SstWalk::Continue(
                    next,
                    SstStage::Index {
                        remaining: remaining - 1,
                        cursor: next,
                        candidate: Some(best_off),
                    },
                )
            } else {
                SstWalk::Continue(best_off, SstStage::Data)
            }
        }
        Some(SstStage::Data) => SstWalk::Finished(match step_data(data, key) {
            Ok(SstLookup::Found(v)) => Some(v),
            _ => None,
        }),
    }
}

/// Cold SSTable point-lookup workload (footer → index → data chain).
pub struct SstGetDriver {
    /// Tagged descriptor of the table file.
    pub fd: Fd,
    /// Dispatch mode under test.
    pub mode: DispatchMode,
    /// Byte offset of the footer block (chains start there).
    pub footer_off: u64,
    /// Keys to look up, cycled.
    pub keys: Vec<u64>,
    /// Expected values (same order as `keys`); `None` = expect a miss.
    pub expect: Vec<Option<Vec<u8>>>,
    /// Stop after this many chains.
    pub max_chains: u64,
    issued: u64,
    /// Counters.
    pub stats: SessionStats,
    // User-path per-chain state, keyed by the chain's token id — NOT the
    // lookup key, so the same key can be in flight on several chains.
    user_state: HashMap<u64, SstStage>,
    // User-path results awaiting chain_done, keyed by token id.
    pending: HashMap<u64, Option<Vec<u8>>>,
    /// Values returned per completed chain (key, value-if-found).
    pub results: Vec<(u64, Option<Vec<u8>>)>,
}

impl SstGetDriver {
    /// Creates a driver over the given probe set.
    pub fn new(
        fd: Fd,
        mode: DispatchMode,
        footer_off: u64,
        keys: Vec<u64>,
        expect: Vec<Option<Vec<u8>>>,
    ) -> Self {
        assert_eq!(keys.len(), expect.len(), "one expectation per key");
        let max_chains = keys.len() as u64;
        SstGetDriver {
            fd,
            mode,
            footer_off,
            keys,
            expect,
            max_chains,
            issued: 0,
            stats: SessionStats::default(),
            user_state: HashMap::new(),
            pending: HashMap::new(),
            results: Vec::new(),
        }
    }
}

impl ChainDriver for SstGetDriver {
    fn mode(&self) -> DispatchMode {
        self.mode
    }

    fn next_op(&mut self, _thread: usize, _rng: &mut SimRng) -> Option<ChainSpec> {
        if self.issued >= self.max_chains {
            return None;
        }
        let key = self.keys[(self.issued % self.keys.len() as u64) as usize];
        self.issued += 1;
        Some(ChainSpec::Read(ChainStart {
            fd: self.fd,
            file_off: self.footer_off,
            len: bpfstor_lsm::BLOCK as u32,
            arg: key,
        }))
    }

    fn user_step(&mut self, _thread: usize, token: &ChainToken, data: &[u8]) -> UserNext {
        match sst_native_step(self.user_state.get(&token.id).copied(), token.arg, data) {
            SstWalk::Continue(next_off, stage) => {
                self.user_state.insert(token.id, stage);
                UserNext::Continue(next_off)
            }
            SstWalk::Finished(found) => {
                self.user_state.remove(&token.id);
                self.pending.insert(token.id, found);
                UserNext::Done
            }
        }
    }

    fn chain_done(&mut self, _thread: usize, outcome: &ChainOutcome) -> ChainVerdict {
        self.stats.completed += 1;
        self.stats.total_ios += outcome.ios as u64;
        self.user_state.remove(&outcome.token.id);
        let key = outcome.arg();
        let found: Option<Vec<u8>> = match &outcome.status {
            ChainStatus::Emitted(v) => Some(v.clone()),
            ChainStatus::Halted => None,
            ChainStatus::Pass(_) => self.pending.remove(&outcome.token.id).flatten(),
            _ => {
                self.pending.remove(&outcome.token.id);
                self.stats.errors += 1;
                return ChainVerdict::Done;
            }
        };
        self.results.push((key, found.clone()));
        match &found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        // Check against the expectation for this key.
        if let Some(idx) = self.keys.iter().position(|k| *k == key) {
            if self.expect[idx] != found {
                self.stats.mismatches += 1;
            }
        }
        ChainVerdict::Done
    }
}
