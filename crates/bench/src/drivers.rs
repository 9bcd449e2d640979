//! Extra workload drivers used only by the harnesses.

use bpfstor_device::SECTOR_SIZE;
use bpfstor_kernel::{
    ChainDriver, ChainOutcome, ChainSpec, ChainStart, ChainStatus, ChainToken, ChainVerdict,
    DispatchMode, Fd, UserNext,
};
use bpfstor_sim::SimRng;

/// Plain random 512 B reads (Figure 1 / Table 1 workload).
pub struct RandomReadDriver {
    /// Target descriptor.
    pub fd: Fd,
    /// File size in blocks.
    pub nblocks: u64,
    /// Chains to issue.
    pub max_chains: u64,
    issued: u64,
    /// Completions observed.
    pub completed: u64,
}

impl RandomReadDriver {
    /// Creates the driver.
    pub fn new(fd: Fd, nblocks: u64, max_chains: u64) -> Self {
        RandomReadDriver {
            fd,
            nblocks,
            max_chains,
            issued: 0,
            completed: 0,
        }
    }
}

impl ChainDriver for RandomReadDriver {
    fn mode(&self) -> DispatchMode {
        DispatchMode::User
    }

    fn next_op(&mut self, _thread: usize, rng: &mut SimRng) -> Option<ChainSpec<'_>> {
        if self.issued >= self.max_chains {
            return None;
        }
        self.issued += 1;
        Some(ChainSpec::Read(ChainStart {
            fd: self.fd,
            file_off: rng.below(self.nblocks) * SECTOR_SIZE as u64,
            len: SECTOR_SIZE as u32,
            arg: 0,
        }))
    }

    fn chain_done(&mut self, _thread: usize, _outcome: &ChainOutcome) -> ChainVerdict {
        self.completed += 1;
        ChainVerdict::Done
    }
}

/// Pointer-chase driver with split-fallback continuation (the A4
/// ablation): when the kernel hands back a [`ChainStatus::SplitFallback`]
/// buffer, the application runs the step itself and restarts the chain
/// at the next hop, exactly as §4 prescribes.
pub struct ChaseFallbackDriver {
    /// Target descriptor.
    pub fd: Fd,
    /// Dispatch mode.
    pub mode: DispatchMode,
    /// Read size per hop in bytes (multi-block sizes can split).
    pub len: u32,
    /// Chains to issue (continuations do not count).
    pub max_chains: u64,
    issued: u64,
    /// Pending restart offsets from split fallbacks.
    pending: Vec<u64>,
    /// Completed logical chains.
    pub completed: u64,
    /// Fallback events observed.
    pub fallbacks: u64,
    /// Chains that ended in an unexpected error.
    pub errors: u64,
}

impl ChaseFallbackDriver {
    /// Creates the driver.
    pub fn new(fd: Fd, mode: DispatchMode, len: u32, max_chains: u64) -> Self {
        ChaseFallbackDriver {
            fd,
            mode,
            len,
            max_chains,
            issued: 0,
            pending: Vec::new(),
            completed: 0,
            fallbacks: 0,
            errors: 0,
        }
    }

    fn parse_next(data: &[u8]) -> Option<u64> {
        let next = u64::from_le_bytes(data[..8].try_into().ok()?);
        if next == u64::MAX {
            None
        } else {
            Some(next)
        }
    }
}

impl ChainDriver for ChaseFallbackDriver {
    fn mode(&self) -> DispatchMode {
        self.mode
    }

    fn next_op(&mut self, _thread: usize, _rng: &mut SimRng) -> Option<ChainSpec<'_>> {
        if let Some(off) = self.pending.pop() {
            return Some(ChainSpec::Read(ChainStart {
                fd: self.fd,
                file_off: off,
                len: self.len,
                arg: 0,
            }));
        }
        if self.issued >= self.max_chains {
            return None;
        }
        self.issued += 1;
        Some(ChainSpec::Read(ChainStart {
            fd: self.fd,
            file_off: 0,
            len: self.len,
            arg: 0,
        }))
    }

    fn user_step(&mut self, _thread: usize, _token: &ChainToken, data: &[u8]) -> UserNext {
        match Self::parse_next(data) {
            Some(next) => UserNext::Continue(next),
            None => UserNext::Done,
        }
    }

    fn chain_done(&mut self, _thread: usize, outcome: &ChainOutcome) -> ChainVerdict {
        match &outcome.status {
            ChainStatus::SplitFallback { data, .. } => {
                self.fallbacks += 1;
                // The app runs the BPF step itself and restarts the chain
                // at the next hop (§4 granularity-mismatch fallback).
                match Self::parse_next(data) {
                    Some(next) => self.pending.push(next),
                    None => self.completed += 1,
                }
            }
            s if s.is_ok() => self.completed += 1,
            _ => self.errors += 1,
        }
        ChainVerdict::Done
    }
}
