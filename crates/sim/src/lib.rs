//! Deterministic discrete-event simulation (DES) substrate.
//!
//! Everything in `bpfstor` that needs a notion of *time* — the NVMe device
//! model, the simulated kernel storage stack, the benchmark harnesses —
//! is built on this crate. The design goals, in order:
//!
//! 1. **Determinism.** Given a seed, a simulation produces bit-identical
//!    results on every platform and every run. All randomness flows
//!    through [`rng::SimRng`] (a hand-rolled xoshiro256**), the event heap
//!    breaks timestamp ties with a monotone sequence number, and nothing
//!    consults wall-clock time.
//! 2. **Nanosecond precision.** The paper's Table 1 measures layers in
//!    hundreds of nanoseconds; [`time::Nanos`] is a plain `u64` count of
//!    simulated nanoseconds.
//! 3. **Cheap to drive.** The event queue and CPU model are allocation-
//!    light so harnesses can push tens of millions of events per second of
//!    host time.
//!
//! The crate deliberately knows nothing about storage. It provides:
//!
//! - [`time`]: `Nanos` timestamps and duration helpers,
//! - [`events`]: a time-ordered event queue with deterministic tie-breaks,
//! - [`rng`]: seedable, fork-able deterministic RNG,
//! - [`dist`]: latency distributions (constant, uniform, exponential,
//!   log-normal, bimodal) used by device profiles,
//! - [`cpu`]: an N-core run-to-completion CPU occupancy model,
//! - [`stats`]: log-bucketed latency histograms,
//! - [`ids`]: `IdMap`/`IdSet`, hash tables for the dense integer ids the
//!   simulation mints (no SipHash, no per-process key).

pub mod cpu;
pub mod dist;
pub mod events;
pub mod ids;
pub mod rng;
pub mod stats;
pub mod time;

pub use cpu::{CoreCountError, CoreId, Cores, MAX_CORES};

/// One configuration rule: `Ok(())` when `allowed`, else `Err(refusal)`.
pub fn ensure<E>(allowed: bool, refusal: E) -> Result<(), E> {
    allowed.then_some(()).ok_or(refusal)
}
pub use dist::LatencyDist;
pub use events::EventQueue;
pub use ids::{IdMap, IdSet};
pub use rng::SimRng;
pub use stats::Histogram;
pub use time::{check_time, Nanos, MAX_CONFIG_TIME, MICROSECOND, MILLISECOND, SECOND};
