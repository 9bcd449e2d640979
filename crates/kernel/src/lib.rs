//! The simulated Linux-like storage stack with BPF hooks.
//!
//! This crate is the substituted "modified kernel" of the paper (see
//! DESIGN.md §2): a deterministic discrete-event model of
//! syscall/ext4/bio/NVMe-driver layers with per-layer CPU costs
//! calibrated to Table 1, plus the paper's actual contribution
//! implemented for real:
//!
//! - two BPF hook points (syscall dispatch layer, NVMe driver
//!   completion) executing verified programs from `bpfstor-vm` over the
//!   real completed block bytes ([`machine`]);
//! - descriptor recycling for driver-hook resubmission;
//! - the NVMe-layer extent soft-state cache with file-system-triggered
//!   invalidation ([`extcache`]);
//! - the per-process resubmission bound (§4 fairness);
//! - the BIO-path fallback for I/Os that straddle extents;
//! - an io_uring-like batched submission path ([`machine::Machine::run_uring`]).
//!
//! [`chain`] defines the application-facing driver interface and the
//! three dispatch modes of Figure 2; [`costs`] holds the Table 1 cost
//! model; [`trace`] accumulates per-layer time for the Table 1 bench.

pub mod chain;
pub mod commit;
pub mod config;
pub mod costs;
pub mod extcache;
pub mod machine;
pub mod reaper;
pub mod tenant;
pub mod trace;

pub use bpfstor_device::{FabricConfig, FabricStats, InitiatorStats};
pub use bpfstor_vm::ExecEngine;
pub use chain::{
    Broken, ChainDriver, ChainOutcome, ChainSpec, ChainStart, ChainStatus, ChainToken,
    ChainVerdict, DispatchMode, Fd, Law, RunReport, UserNext, WriteStart,
};
pub use commit::{CommitLog, CommitPolicy, CommitStats};
pub use config::{ConfigError, ExecClock, MachineConfig};
pub use costs::LayerCosts;
pub use extcache::{ExtCacheStats, ExtentCache};
pub use machine::{KernelError, Machine};
pub use reaper::{ModeTransition, ReapKind, ReapMode, ReaperStats};
pub use tenant::{TenantBreakdown, TenantId, TenantLimits, DEFAULT_TENANT};
pub use trace::{ExecSplit, LayerTrace};
