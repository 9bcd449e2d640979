//! BPF program generators — the paper's "library \[of\] BPF functions to
//! accelerate access and operations on popular data structures" (§4).
//!
//! Each generator emits a verified-by-construction program for one
//! on-disk layout. The programs are real BPF (they pass the verifier in
//! `bpfstor-vm` and run in its interpreter over the actual block bytes);
//! their structure follows the XDP idiom: load `data`/`data_end`, prove
//! bounds, parse, then either `resubmit()` the next dependent block or
//! `emit()` the result.

pub mod btree;
pub mod chase;
pub mod scan;
pub mod sst;

pub use btree::{btree_lookup_program, btree_lookup_program_with_stats, stats_slot};
pub use chase::pointer_chase_program;
pub use scan::{scan_aggregate_program, ScanResult};
pub use sst::sst_get_program;
