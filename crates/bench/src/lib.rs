//! Benchmark harnesses for the `bpfstor` reproduction.
//!
//! Deliverable (d): for every table and figure in the paper's evaluation
//! there is a regenerating harness, run by name through the one `bench`
//! binary (`bench list` prints the index; [`registry::EXPERIMENTS`] is
//! the table behind it, [`experiments`] the functions and what each
//! asserts). `bench all` regenerates every one of them and judges the
//! [claims ledger](claims): each number of the paper this repository
//! has on file, the value reproduced, and the range it must stay in.

pub mod claims;
pub mod cli;
pub mod drivers;
pub mod experiments;
pub mod registry;
pub mod report;

pub use cli::SweepArgs;
pub use experiments::Scale;
pub use report::Table;
