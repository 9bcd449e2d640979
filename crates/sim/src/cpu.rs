//! N-core CPU occupancy model.
//!
//! The paper's throughput results hinge on *CPU accounting*: the baseline
//! B-tree lookup burns ~3 µs of kernel CPU per I/O and saturates the
//! 6-core test machine at 6 threads, while driver-hook resubmission burns
//! a few hundred nanoseconds, so its advantage widens exactly when the
//! CPU saturates (§3, Figure 3b discussion). This module provides that
//! accounting.
//!
//! The model is deliberately simple and analytic:
//!
//! - a fixed set of cores, each a FIFO queue of run-to-completion jobs;
//! - a job is `(duration, optional core affinity)`; scheduling returns the
//!   interval `[start, end)` during which it occupies its core;
//! - unpinned jobs go to the **earliest-free** core (lowest index on
//!   ties), which approximates Linux's idle-core-first placement;
//! - there is no preemption: every kernel stage we model is sub-
//!   microsecond, so run-to-completion matches reality well.
//!
//! Because jobs never block mid-execution, per-core state is just the
//! time the core becomes free, plus utilization accumulators.

use crate::time::Nanos;

/// Identifies a core, `0..n_cores`.
pub type CoreId = usize;

/// The result of placing a job: where and when it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Core the job ran on.
    pub core: CoreId,
    /// Time the job started executing (>= submission time).
    pub start: Nanos,
    /// Time the job finished (start + duration).
    pub end: Nanos,
}

/// The most cores a machine has: the kernel gives each core its own
/// NVMe I/O queue pair, and NVMe has at most 65,535 of them.
pub const MAX_CORES: usize = 65_535;

/// A core count outside `1..=MAX_CORES` ([`Cores::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreCountError(pub usize);

impl std::fmt::Display for CoreCountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} cores: a machine has 1 to {MAX_CORES}", self.0)
    }
}

/// An N-core run-to-completion CPU model.
///
/// # Examples
///
/// ```
/// use bpfstor_sim::Cores;
/// let mut cores = Cores::new(2);
/// let a = cores.run(0, None, 100); // picks core 0
/// let b = cores.run(0, None, 100); // picks core 1
/// let c = cores.run(0, None, 100); // queues behind the earlier finisher
/// assert_eq!((a.core, a.start, a.end), (0, 0, 100));
/// assert_eq!((b.core, b.start, b.end), (1, 0, 100));
/// assert_eq!(c.start, 100);
/// ```
#[derive(Debug, Clone)]
pub struct Cores {
    free_at: Vec<Nanos>,
    busy_ns: Vec<Nanos>,
}

impl Cores {
    /// The core-count rule, written once: a pool has 1 to [`MAX_CORES`]
    /// cores.
    pub fn check(n: usize) -> Result<(), CoreCountError> {
        crate::ensure((1..=MAX_CORES).contains(&n), CoreCountError(n))
    }

    /// Creates `n` idle cores.
    ///
    /// # Panics
    ///
    /// Panics with [`Cores::check`]'s refusal.
    pub fn new(n: usize) -> Self {
        Self::check(n).unwrap_or_else(|e| panic!("{e}"));
        Cores {
            free_at: vec![0; n],
            busy_ns: vec![0; n],
        }
    }

    /// Number of cores.
    pub fn count(&self) -> usize {
        self.free_at.len()
    }

    /// Schedules a job submitted at `now` lasting `dur` nanoseconds.
    ///
    /// With `affinity = Some(c)` the job is pinned to core `c`; otherwise
    /// it runs on the earliest-free core. Returns the placement interval.
    ///
    /// # Panics
    ///
    /// Panics if the affinity core index is out of range.
    pub fn run(&mut self, now: Nanos, affinity: Option<CoreId>, dur: Nanos) -> Placement {
        let core = match affinity {
            Some(c) => {
                assert!(c < self.free_at.len(), "core {c} out of range");
                c
            }
            None => self.pick_earliest_free(),
        };
        let start = self.free_at[core].max(now);
        let end = start + dur;
        self.free_at[core] = end;
        self.busy_ns[core] += dur;
        Placement { core, start, end }
    }

    fn pick_earliest_free(&self) -> CoreId {
        let mut best = 0;
        for (i, &t) in self.free_at.iter().enumerate().skip(1) {
            if t < self.free_at[best] {
                best = i;
            }
        }
        best
    }

    /// Total busy nanoseconds accumulated on `core`.
    pub fn busy_ns(&self, core: CoreId) -> Nanos {
        self.busy_ns[core]
    }

    /// Aggregate utilization of the machine over `[0, horizon]`.
    ///
    /// Returns a value in `[0, 1]`. A horizon of zero yields zero.
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        let busy: u128 = self.busy_ns.iter().map(|&b| b as u128).sum();
        let capacity = horizon as u128 * self.free_at.len() as u128;
        (busy as f64 / capacity as f64).min(1.0)
    }

    /// Resets all accounting, returning the cores to idle at time zero.
    pub fn reset(&mut self) {
        for t in &mut self.free_at {
            *t = 0;
        }
        for b in &mut self.busy_ns {
            *b = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_serializes() {
        let mut cores = Cores::new(1);
        let a = cores.run(0, None, 50);
        let b = cores.run(10, None, 50);
        assert_eq!(a.end, 50);
        assert_eq!(b.start, 50, "second job waits for the first");
        assert_eq!(b.end, 100);
    }

    #[test]
    fn idle_core_preferred() {
        let mut cores = Cores::new(3);
        let a = cores.run(0, None, 100);
        let b = cores.run(0, None, 100);
        let c = cores.run(0, None, 100);
        let mut used: Vec<CoreId> = vec![a.core, b.core, c.core];
        used.sort_unstable();
        assert_eq!(used, vec![0, 1, 2], "spread across idle cores first");
    }

    #[test]
    fn affinity_is_respected_even_if_busy() {
        let mut cores = Cores::new(2);
        cores.run(0, Some(0), 1_000);
        let pinned = cores.run(0, Some(0), 10);
        assert_eq!(pinned.core, 0);
        assert_eq!(pinned.start, 1_000, "waits despite core 1 being idle");
    }

    #[test]
    fn job_submitted_later_starts_no_earlier_than_now() {
        let mut cores = Cores::new(1);
        let p = cores.run(500, None, 10);
        assert_eq!(p.start, 500);
    }

    #[test]
    fn utilization_accounting() {
        let mut cores = Cores::new(2);
        cores.run(0, Some(0), 1_000);
        cores.run(0, Some(1), 500);
        let u = cores.utilization(1_000);
        assert!((u - 0.75).abs() < 1e-9, "util {u}");
        assert_eq!(cores.busy_ns(0), 1_000);
        assert_eq!(cores.busy_ns(1), 500);
    }

    #[test]
    fn utilization_zero_horizon() {
        let cores = Cores::new(2);
        assert_eq!(cores.utilization(0), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut cores = Cores::new(2);
        cores.run(0, None, 100);
        cores.reset();
        assert_eq!(cores.free_at, [0, 0]);
        assert_eq!(cores.utilization(100), 0.0);
    }

    #[test]
    #[should_panic(expected = "0 cores: a machine has 1 to 65535")]
    fn zero_cores_rejected() {
        Cores::new(0);
    }

    #[test]
    fn saturation_throughput_matches_capacity() {
        // 6 cores, jobs of 3us each, offered continuously from 12 sources:
        // throughput must approach 6 cores / 3us = 2 jobs/us.
        let mut cores = Cores::new(6);
        let mut t = 0;
        let mut done = 0u64;
        let mut last_end = 0;
        while t < 1_000_000 {
            let p = cores.run(t, None, 3_000);
            done += 1;
            last_end = last_end.max(p.end);
            // 12 "threads" keep the queue full: advance offered time slowly.
            t += 500;
        }
        let rate = done as f64 / last_end as f64 * 1_000.0; // jobs per us
        assert!((rate - 2.0).abs() < 0.1, "rate {rate} jobs/us");
    }
}
