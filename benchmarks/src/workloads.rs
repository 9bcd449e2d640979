//! The four workloads, each an *arm* (timed) and a *baseline* (run once
//! for the ratio), driven through the public `bpfstor_core` facade.
//!
//! All four are closed loops: every simulated application thread waits
//! for its reply before issuing the next request. One host thread
//! generates all load. Engines are pinned explicitly, so `BPFSTOR_ENGINE`
//! cannot move a number, and every seed the stack sees is derived from
//! the benchmark's `--seed`.

use std::rc::Rc;
use std::time::Instant;

use bpfstor_core::{
    Btree, Chase, CommitPolicy, DispatchMode, ExecClock, ExecEngine, FabricConfig, MachineConfig,
    PushdownSession, RunReport, SessionStats, TenantGroup, TenantLimits, YcsbMix,
};
use bpfstor_kernel::Machine;
use bpfstor_sim::{Nanos, MILLISECOND};
use bpfstor_vm::Program;
use bpfstor_workload::OpMix;

use crate::alloc;
use crate::trace::{Probe, Recorder};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BtreeRead,
    YcsbWriteMix,
    FabricChase,
    TenantNoisy,
}

/// Which configuration of a workload a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The timed configuration.
    Arm,
    /// The configuration the arm's gain is measured against.
    Baseline,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::BtreeRead,
        Kind::YcsbWriteMix,
        Kind::FabricChase,
        Kind::TenantNoisy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::BtreeRead => "btree_read",
            Kind::YcsbWriteMix => "ycsb_write_mix",
            Kind::FabricChase => "fabric_chase",
            Kind::TenantNoisy => "tenant_noisy",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload exists: the layers it loads and the ones it
    /// bypasses (one line; also `BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::BtreeRead => {
                "Paper Fig. 3b: depth-6 B-tree lookups, driver hook vs user, 6 threads; read-only, so vm and kernel::extcache carry the host cost and the fs write path and device::store writes do nothing"
            }
            Kind::YcsbWriteMix => {
                "YCSB 40r/40u/20i with fsyncs through io_uring rings: fs plan_write/journal, device::store and SST-get hooks all work, so a read-path gain that costs the write path shows here"
            }
            Kind::FabricChase => {
                "BPF-oF pushdown of an 8-hop chase over a 20us fabric vs remote dispatch: wire time dominates, host cost is the kernel event loop, device::transport and sim::events; vm and fs do little"
            }
            Kind::TenantNoisy => {
                "Victim B-tree reader beside a 6-thread 4 KiB write storm on one core: kernel::tenant, reaper::FairSched, group commit and out-of-order fs::alloc carry the load; fair shaping vs none"
            }
        }
    }

    /// Simulated length of one round: short enough for 35 or more timed
    /// rounds in a driver run — the minimum over fewer rounds is much
    /// less steady on a shared box (README, "Measured steadiness") — and
    /// long enough for 65 k chains or more.
    pub fn sim_length(self) -> Nanos {
        match self {
            Kind::BtreeRead => 400 * MILLISECOND,
            Kind::YcsbWriteMix => 600 * MILLISECOND,
            Kind::FabricChase => 1200 * MILLISECOND,
            Kind::TenantNoisy => 400 * MILLISECOND,
        }
    }

    /// The programs the arm installs (for the separately timed
    /// verify/compile spans of the traced round).
    pub fn programs(self) -> Vec<Program> {
        use bpfstor_core::{btree_lookup_program, pointer_chase_program, sst_get_program};
        match self {
            Kind::BtreeRead => vec![btree_lookup_program()],
            Kind::YcsbWriteMix => vec![sst_get_program(VALUE_SIZE as u32)],
            Kind::FabricChase => vec![pointer_chase_program()],
            Kind::TenantNoisy => vec![btree_lookup_program(), sst_get_program(VALUE_SIZE as u32)],
        }
    }

    /// The engine the arm runs its hooks on.
    pub fn engine(self) -> ExecEngine {
        match self {
            Kind::BtreeRead => ExecEngine::Compiled,
            _ => ExecEngine::Interp,
        }
    }
}

/// What one round (fresh session: build, run, drop) measured.
pub struct Round {
    /// Host seconds of image build + mkfs + verify + compile + install +
    /// open (`SessionBuilder::build`, or group build + `add_tenant`s).
    pub setup_s: f64,
    /// Host seconds of the `run_*` call.
    pub run_s: f64,
    /// Host seconds of dropping the session.
    pub teardown_s: f64,
    /// Heap allocations inside the `run_*` call.
    pub run_allocs: u64,
    /// Peak live heap bytes over set-up + run, above the live size at the
    /// start of the round.
    pub peak_live_bytes: usize,
    /// The kernel's report of the run.
    pub report: RunReport,
    /// Chains that ended in error plus checked outputs that mismatched.
    pub failed: u64,
    /// Write chains completed.
    pub write_chains: u64,
    /// Journal records logged during the run.
    pub journal_records: u64,
    /// Mean extents per file after the run.
    pub extents_per_file: f64,
}

/// SplitMix64 step: decorrelates the seeds handed to the stack from the
/// small integers `--seed` usually takes.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Value bytes per SSTable entry in the two YCSB tables.
const VALUE_SIZE: usize = 48;

fn table(entries: u64, field_mul: u64) -> Vec<(u64, Vec<u8>)> {
    (0..entries)
        .map(|i| {
            let mut v = vec![0u8; VALUE_SIZE];
            v[..8].copy_from_slice(&(i * field_mul).to_le_bytes());
            (i * 3, v)
        })
        .collect()
}

/// The 600-entry table `ycsb_write_mix` reads (and the `vm`/`lsm`
/// micro-timings walk).
pub fn ycsb_table() -> Vec<(u64, Vec<u8>)> {
    table(600, 31)
}

fn machine_config(seed: u64, engine: ExecEngine, rec: Option<&Rc<Recorder>>) -> MachineConfig {
    MachineConfig {
        seed,
        exec_engine: engine,
        exec_clock: rec.map(|r| ExecClock::new(r.clock())),
        ..MachineConfig::default()
    }
}

fn failed(report: &RunReport, stats: &[SessionStats]) -> u64 {
    let session_errors: u64 = stats.iter().map(|s| s.errors).sum();
    let mismatches: u64 = stats.iter().map(|s| s.mismatches).sum();
    report.errors.max(session_errors) + mismatches
}

/// Times `f`, as phase `name` of the traced round when there is a
/// recorder.
fn phase<R>(rec: Option<&Rc<Recorder>>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = match rec {
        Some(r) => r.phase(name, f),
        None => f(),
    };
    (out, start.elapsed().as_secs_f64())
}

/// One round of any session type: build, run, read the file system's
/// counters, drop — each timed, with the allocator sampled around them.
fn measure<S>(
    rec: Option<&Rc<Recorder>>,
    build: impl FnOnce() -> S,
    run: impl FnOnce(&mut S) -> (RunReport, Vec<SessionStats>),
    machine: impl Fn(&S) -> &Machine,
) -> Round {
    alloc::reset_peak();
    let live_before = alloc::snapshot().live;
    let (mut session, setup_s) = phase(rec, "setup.install", build);
    let journal_before = machine(&session).fs().journal_len();
    let allocs_before = alloc::snapshot().allocs;
    let ((report, stats), run_s) = phase(rec, "run", || run(&mut session));
    let run_allocs = alloc::snapshot().allocs - allocs_before;
    let peak_live_bytes = alloc::snapshot().peak.saturating_sub(live_before);
    let fs = machine(&session).fs();
    let journal_records = (fs.journal_len() - journal_before) as u64;
    let files = fs.readdir();
    let extents: usize = files
        .iter()
        .map(|(_, ino)| fs.extents_snapshot(*ino).map_or(0, |e| e.len()))
        .sum();
    let extents_per_file = extents as f64 / files.len().max(1) as f64;
    let ((), teardown_s) = phase(rec, "teardown.drop", || drop(session));
    Round {
        setup_s,
        run_s,
        teardown_s,
        run_allocs,
        peak_live_bytes,
        failed: failed(&report, &stats),
        write_chains: stats.iter().map(|s| s.writes).sum(),
        report,
        journal_records,
        extents_per_file,
    }
}

/// Runs one round of `kind`: a fresh session is built, run for the
/// workload's simulated length and dropped. With a recorder the workload
/// callbacks and hook execution are timed as well (the traced round).
///
/// # Panics
///
/// Panics if a session cannot be built — the workloads are fixed, so
/// that is a defect in the stack, and there is nothing to measure.
pub fn run_round(kind: Kind, side: Side, seed: u64, rec: Option<&Rc<Recorder>>) -> Round {
    let until = kind.sim_length();
    let machine_seed = derive_seed(seed, 1);
    let probe_rec = rec.cloned();
    match kind {
        Kind::BtreeRead => measure(
            rec,
            || {
                PushdownSession::builder(Probe::new(Btree::depth(6), probe_rec))
                    .machine_config(machine_config(machine_seed, kind.engine(), rec))
                    .dispatch(match side {
                        Side::Arm => DispatchMode::DriverHook,
                        Side::Baseline => DispatchMode::User,
                    })
                    .build()
                    .expect("btree_read session builds")
            },
            |s| {
                let (report, stats) = s.run_closed_loop(6, until);
                (report, vec![stats])
            },
            |s| s.machine(),
        ),
        Kind::YcsbWriteMix => measure(
            rec,
            || {
                let mix = YcsbMix::new(ycsb_table(), OpMix::paper_tokudb(), derive_seed(seed, 2));
                PushdownSession::builder(Probe::new(mix, probe_rec))
                    .machine_config(machine_config(machine_seed, kind.engine(), rec))
                    .dispatch(match side {
                        Side::Arm => DispatchMode::DriverHook,
                        Side::Baseline => DispatchMode::User,
                    })
                    .queue_depth(64)
                    .commit_policy(CommitPolicy::PerFsync)
                    .build()
                    .expect("ycsb_write_mix session builds")
            },
            |s| {
                let (report, stats) = s.run_uring(2, 16, until);
                (report, vec![stats])
            },
            |s| s.machine(),
        ),
        Kind::FabricChase => measure(
            rec,
            || {
                PushdownSession::builder(Probe::new(Chase::hops(8), probe_rec))
                    .machine_config(machine_config(machine_seed, kind.engine(), rec))
                    .fabric(FabricConfig::symmetric(20_000, 4_000))
                    .dispatch(match side {
                        Side::Arm => DispatchMode::DriverHook,
                        Side::Baseline => DispatchMode::Remote,
                    })
                    .build()
                    .expect("fabric_chase session builds")
            },
            |s| {
                let (report, stats) = s.run_closed_loop(4, until);
                (report, vec![stats])
            },
            |s| s.machine(),
        ),
        Kind::TenantNoisy => measure(
            rec,
            || {
                let fair = side == Side::Arm;
                let mut group = TenantGroup::builder()
                    .machine_config(MachineConfig {
                        cores: 1,
                        // NIC-style moderation: completions arrive in
                        // mixed batches, the regime where reap order
                        // matters and the ring backs up.
                        irq_coalesce_us: 8,
                        irq_coalesce_depth: 8,
                        ..machine_config(machine_seed, kind.engine(), rec)
                    })
                    .queue_depth(16)
                    .commit_policy(CommitPolicy::Group {
                        max_wait_us: 20,
                        max_handles: 16,
                    })
                    .fair_reap(fair)
                    .build();
                let (victim, aggressor) = if fair {
                    (
                        TenantLimits::weighted(8),
                        TenantLimits {
                            sq_slots: Some(2),
                            ..TenantLimits::default()
                        },
                    )
                } else {
                    (TenantLimits::default(), TenantLimits::default())
                };
                group
                    .add_tenant(Probe::new(Btree::depth(3), probe_rec.clone()), victim)
                    .expect("victim tenant attaches");
                let storm = OpMix {
                    read: 0,
                    update: 80,
                    insert: 20,
                    scan: 0,
                };
                let writes = YcsbMix::new(table(256, 17), storm, derive_seed(seed, 3))
                    .write_size(4096)
                    .fsync_every(4);
                group
                    .add_tenant(Probe::new(writes, probe_rec), aggressor)
                    .expect("aggressor tenant attaches");
                group
            },
            |g| {
                // One victim thread; six aggressor threads keep several
                // write chains in flight so the ring actually contends.
                let report = g.run_closed_loop(&[1, 6], until);
                let stats = (0..g.tenant_count() as u32).map(|t| g.stats(t)).collect();
                (report, stats)
            },
            |g| g.machine(),
        ),
    }
}

/// The arm's advantage over its baseline: the paper's headline ratio,
/// returned as `(gain, numerator, denominator)`. Throughput ratio on
/// the three single-tenant workloads; on `tenant_noisy`, where shaping
/// buys the victim latency rather than the machine throughput, the
/// baseline victim's p99 over the arm victim's (every read chain is the
/// victim's, so that is the read p99).
pub fn gain(kind: Kind, arm: &RunReport, baseline: &RunReport) -> (f64, f64, f64) {
    let (a, b) = match kind {
        Kind::TenantNoisy => (
            baseline.read_latency.quantile(0.99) as f64,
            arm.read_latency.quantile(0.99) as f64,
        ),
        _ => (arm.chains_per_sec, baseline.chains_per_sec),
    };
    (a / b, a, b)
}

/// The six rows of the paper's Table 1, in nanoseconds per 512 B read.
pub const TABLE1_NS: [(&str, u64); 6] = [
    ("kernel crossing", 351),
    ("read syscall", 199),
    ("ext4", 2006),
    ("bio", 379),
    ("NVMe driver", 113),
    ("storage device", 3224),
];

/// The Table 1 probe — single-block reads from user space, one thread —
/// returning the largest relative error of a row against the paper, in
/// percent, and that row's name.
pub fn table1_probe(seed: u64) -> (f64, &'static str) {
    let mut session = PushdownSession::builder(Btree::depth(1))
        .machine_config(machine_config(
            derive_seed(seed, 4),
            ExecEngine::Interp,
            None,
        ))
        .dispatch(DispatchMode::User)
        .build()
        .expect("table 1 probe session builds");
    let (report, _) = session.run_closed_loop(1, 100 * MILLISECOND);
    let t = &report.trace;
    let measured = [t.crossing, t.syscall, t.fs, t.bio, t.drv, t.device];
    TABLE1_NS
        .iter()
        .zip(measured)
        .map(|(&(name, paper), total)| {
            let err = (t.per_io(total) - paper as f64).abs() / paper as f64 * 100.0;
            (err, name)
        })
        .fold(
            (0.0, "none"),
            |worst, row| if row.0 > worst.0 { row } else { worst },
        )
}

/// A hash of everything simulated in a report: equal fingerprints mean
/// the simulated clock saw the same run. Host-side measurements
/// (`RunReport::exec` nanoseconds) are left out.
pub fn fingerprint(report: &RunReport) -> u64 {
    let t = &report.trace;
    let d = &report.device;
    let f = &report.fabric;
    let mut words: Vec<u64> = vec![
        report.chains,
        report.ios,
        report.sim_time,
        report.errors,
        report.resubmissions,
        report.rearm_retries,
        t.crossing,
        t.syscall,
        t.fs,
        t.bio,
        t.drv,
        t.device,
        t.app,
        t.bpf,
        t.extent_cache,
        t.journal,
        t.fabric,
        t.fabric_wire,
        t.poll,
        t.ios,
        t.write_ios,
        t.doorbells,
        t.irqs,
        t.polls,
        d.reads,
        d.writes,
        d.flushes,
        d.busy_ns,
        d.rejected,
        d.doorbells,
        d.write_doorbells,
        d.irqs,
        d.cqes,
        d.write_cqes,
        d.empty_polls,
        d.cq_backlog_hwm,
        d.reap_lag_ns,
        f.capsules_sent,
        f.responses,
        f.wire_ns,
        f.capsule_stalls,
        f.retransmits,
        f.bytes_tx,
        f.bytes_rx,
    ];
    for h in [
        &report.latency,
        &report.read_latency,
        &report.write_latency,
        &report.fsync_latency,
    ] {
        words.extend([
            h.count(),
            h.mean().to_bits(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.max(),
        ]);
    }
    // FNV-1a over the words' bytes.
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back_and_unknown_names_do_not() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
            assert!(
                kind.why().len() <= 200,
                "{}: why is one short line",
                kind.name()
            );
            assert!(!kind.why().contains('\n'));
        }
        assert_eq!(Kind::parse("btree"), None);
        assert_eq!(Kind::parse(""), None);
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_by_seed() {
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }
}
