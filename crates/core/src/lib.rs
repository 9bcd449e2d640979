//! # BPF for storage — the paper's contribution library
//!
//! This crate is deliverable (a): the user-facing library the paper
//! sketches in §4 — "a library that provides a higher-level interface
//! than BPF ... \[containing\] BPF functions to accelerate access and
//! operations on popular data structures, such as B-trees and
//! log-structured merge trees".
//!
//! - [`session`]: the workload-generic pushdown facade —
//!   [`PushdownSession`] drives any [`PushdownWorkload`] through any
//!   dispatch mode, handling program installation (typed
//!   [`ProgHandle`]s), extent re-arming, and
//!   automatic retry on invalidation;
//! - [`workloads`]: the four in-tree workloads — [`Btree`], [`Sst`],
//!   [`Scan`], [`Chase`];
//! - [`progs`]: verified program generators — B-tree traversal, cold
//!   SSTable get (stateful multi-hop chain), sequential
//!   scan/filter/aggregate, and a generic pointer chase.
//!
//! [`session`] is also the only code that attaches a workload to a
//! machine: [`Member::attach`] opens the file for a tenant, installs
//! the program when the dispatch mode runs one, and returns the
//! `ChainDriver` adapter sessions and tenant groups themselves run.
//! Code that brings its own [`Machine`](bpfstor_kernel::Machine) and
//! file — a table an `LsmTree` flushed through the rings — calls it
//! directly; that is the whole low-level path.
//!
//! # Examples
//!
//! ```
//! use bpfstor_core::{Btree, DispatchMode, PushdownSession};
//!
//! // A depth-3 B-tree inside a simulated machine, traversed by a BPF
//! // program resubmitted from the NVMe driver completion hook.
//! let mut session = PushdownSession::builder(Btree::depth(3))
//!     .dispatch(DispatchMode::DriverHook)
//!     .build()
//!     .expect("session");
//! let hit = session.lookup(42).expect("lookup");
//! assert!(hit.found);
//! assert_eq!(hit.ios, 3, "depth-3 tree costs three I/Os");
//! ```

pub mod group;
pub mod lsm_io;
pub mod progs;
pub mod session;
pub mod workloads;

pub use bpfstor_kernel::{
    ChainSpec, ChainStatus, ChainToken, ChainVerdict, CommitLog, CommitPolicy, CommitStats,
    ConfigError, DispatchMode, ExecClock, ExecEngine, ExecSplit, FabricConfig, FabricStats,
    InitiatorStats, MachineConfig, ModeTransition, ProgHandle, ReapKind, ReapMode, ReaperStats,
    RunReport, TransportConfig, WriteStart,
};
pub use bpfstor_kernel::{TenantBreakdown, TenantId, TenantLimits, DEFAULT_TENANT};
pub use group::{GroupOptions, TenantGroup, TenantGroupBuilder};
pub use lsm_io::MachineLsmIo;
pub use progs::{
    btree_lookup_program, btree_lookup_program_with_stats, pointer_chase_program,
    scan_aggregate_program, sst_get_program, stats_slot, ScanResult,
};
pub use session::{
    LookupOutcome, Member, OpSpec, PushdownSession, PushdownWorkload, ReadSpec, SessionBuilder,
    SessionError, SessionStats, Verdict, WriteSpec,
};
pub use workloads::{
    value_of, Btree, Chase, MixRequest, Scan, Sst, YcsbMix, CHASE_END, CHASE_PAYLOAD,
};
