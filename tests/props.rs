//! Property-based tests over the core data structures and, most
//! importantly, the verifier's soundness contract: **a program the
//! verifier accepts never traps at runtime**.
//!
//! One file per subject under `props/`, pulled in with `include!` so
//! that every property keeps its name at the root of this suite; the
//! reference models live in `props/oracles/`, and machines and chain
//! drivers come from the kernel suite's `support` module.

use proptest::prelude::*;

use bpfstor::btree::tree::{build_pages, lookup, step_on_page, Step};
use bpfstor::btree::{Node, FANOUT_MAX};
use bpfstor::core::{
    btree_lookup_program, sst_get_program, value_of, Btree, Chase, PushdownWorkload, Scan, Sst,
};
use bpfstor::device::{DeviceClass, Ring, SectorStore, SECTOR_SIZE};
use bpfstor::fs::alloc::{Run, GROUP_BLOCKS};
use bpfstor::fs::{BlockAllocator, ExtFs, Extent, ExtentTree, JournalRecord, CHECKPOINT_RECORDS};
use bpfstor::kernel::reaper::HYBRID_HIGH_WATERMARK;
use bpfstor::kernel::{
    ChainOutcome, ChainSpec, ChainStatus, ChainToken, ChainVerdict, CommitPolicy, ConfigError,
    DispatchMode, ExecEngine, FabricConfig, Fd, Machine, MachineConfig, RunReport, TenantLimits,
    UserNext,
};
use bpfstor::lsm::sstable::{
    build_image, data_block_entries, data_block_search, index_block_search, ColdGet, ColdStep,
    Footer, SST_MAGIC,
};
use bpfstor::lsm::{Value, BLOCK};
use bpfstor::sim::{
    CoreCountError, Histogram, LatencyDist, Nanos, SimRng, MAX_CONFIG_TIME, SECOND,
};
use bpfstor::vm::insn::{decode, encode, Insn};
use bpfstor::vm::{
    action, compile, ctx_off, helper, verify, Asm, CompiledProg, MapSet, Program, RecordingEnv,
    RunCtx, RunOutcome, Trap, Vm, Width, DEFAULT_INSN_BUDGET, SCRATCH_SIZE,
};

#[path = "../crates/vm/tests/arb/mod.rs"]
mod arb;
#[path = "props/oracles/mod.rs"]
mod oracles;
#[path = "../crates/kernel/tests/support/mod.rs"]
mod support;

use arb::{arb_maps, arb_program};
use oracles::{fs_meta, BitAllocator, FsMeta, Lockstep, SectorMap};
use support::{kv_entries, machine, machine_with, read, write, Script};

include!("props/vm.rs");
include!("props/structures.rs");
include!("props/fs_model.rs");
include!("props/journal.rs");
include!("props/write_path.rs");
include!("props/machine_crash.rs");
include!("props/rings_fabric.rs");
include!("props/reaping_tenancy.rs");
include!("props/isolation.rs");
include!("props/conservation.rs");
include!("props/config.rs");
