//! Running the workloads and turning rounds into metrics.
//!
//! Two phases, never mixed: the **end-to-end** phase runs untraced timed
//! rounds (fresh session each, interleaved round-robin when several
//! workloads run in one process) and reports the bounded metrics; the
//! **per-layer** phase times each layer's public functions, reads the
//! simulated-clock rows off an untraced round and finishes with the
//! traced rounds. End-to-end numbers never come from a traced round.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bpfstor_core::ExecEngine;
use bpfstor_vm::{compile, verify};

use crate::json::Json;
use crate::layers;
use crate::metrics::{self, END_TO_END};
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{self, fingerprint, run_round, Kind, Round, Side};

/// Timed rounds a workload gets however short `--seconds` is: the host
/// estimators need a few samples to take a minimum or a median of.
const MIN_ROUNDS: usize = 3;

/// Chains an arm must complete for its p99 to have ten samples beyond it
/// a hundred times over.
const MIN_CHAINS: u64 = 10_000;

/// Share by which a round's allocation count may differ from the median
/// of its workload's rounds.
const ALLOC_WOBBLE: f64 = 1e-4;

/// What one workload's run produced.
pub struct Outcome {
    pub kind: Kind,
    /// Chains completed across every round run (arm, baseline, traced).
    pub attempted: u64,
    /// Chains that ended in error plus outputs that failed their check.
    pub failed: u64,
    /// Hash of the arm's simulated results (end-to-end phase).
    pub fingerprint: Option<u64>,
    /// `(name, value)` in [`END_TO_END`] order; empty if not measured.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// `(name, value)` in [`metrics::per_layer`] order; empty if not
    /// measured.
    pub per_layer: Vec<(&'static str, f64)>,
    /// Context a reader needs beside the numbers (round and sample
    /// counts, the bases of ratios).
    pub notes: Vec<String>,
    /// Failed output checks; empty means correct.
    pub problems: Vec<String>,
}

impl Outcome {
    fn new(kind: Kind) -> Self {
        Outcome {
            kind,
            attempted: 0,
            failed: 0,
            fingerprint: None,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            notes: Vec::new(),
            problems: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Counts a round's chains and records its failures.
    fn absorb(&mut self, what: &str, round: &Round) {
        self.attempted += round.report.chains;
        self.failed += round.failed;
        if round.failed > 0 {
            self.problems.push(format!(
                "{what}: {} of {} chains failed or mismatched",
                round.failed, round.report.chains
            ));
        }
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `values`, checked to name exactly the metrics of a table, in its order.
fn in_table_order(
    table: impl Iterator<Item = &'static str>,
    values: Vec<(&'static str, f64)>,
) -> Vec<(&'static str, f64)> {
    assert!(
        table.eq(values.iter().map(|(name, _)| *name)),
        "values do not follow their metric table"
    );
    values
}

/// A run is incorrect once a Table 1 row is this far off the paper.
const TABLE1_LIMIT_PCT: f64 = 1.0;

fn check_table1(outcome: &mut Outcome, (err_pct, row): (f64, &str)) {
    if err_pct >= TABLE1_LIMIT_PCT {
        outcome.problems.push(format!(
            "Table 1 probe: the {row} row is {err_pct:.3}% off the paper (limit {TABLE1_LIMIT_PCT}%)"
        ));
    }
}

// --- end-to-end phase ------------------------------------------------------

/// Per-workload state of the end-to-end phase.
struct Timed {
    outcome: Outcome,
    baseline: Round,
    /// The first timed round; later ones must simulate the same run.
    first: Option<Round>,
    run_allocs: Vec<f64>,
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    peak_mb: Vec<f64>,
    spent_s: f64,
}

impl Timed {
    fn start(kind: Kind, seed: u64) -> Timed {
        let mut outcome = Outcome::new(kind);
        // Warm-up: caches, lazy set-up, allocator arenas.
        let warm = run_round(kind, Side::Arm, seed, None);
        outcome.absorb("warm-up", &warm);
        outcome.fingerprint = Some(fingerprint(&warm.report));
        drop(warm);
        let baseline = run_round(kind, Side::Baseline, seed, None);
        outcome.absorb("baseline", &baseline);
        if kind == Kind::BtreeRead {
            // The workload that reproduces the paper's figure also
            // answers for the cost model underneath it.
            check_table1(&mut outcome, workloads::table1_probe(seed));
        }
        Timed {
            outcome,
            baseline,
            first: None,
            run_allocs: Vec::new(),
            setup_s: Vec::new(),
            run_s: Vec::new(),
            peak_mb: Vec::new(),
            spent_s: 0.0,
        }
    }

    fn wants_more(&self, seconds: f64) -> bool {
        self.run_s.len() < MIN_ROUNDS || self.spent_s < seconds
    }

    fn round(&mut self, seed: u64) {
        let start = Instant::now();
        let round = run_round(self.outcome.kind, Side::Arm, seed, None);
        self.spent_s += start.elapsed().as_secs_f64();
        let n = self.run_s.len() + 1;
        self.outcome.absorb(&format!("round {n}"), &round);
        if Some(fingerprint(&round.report)) != self.outcome.fingerprint {
            self.outcome.problems.push(format!(
                "round {n}: the simulated run differs from the warm-up's for the same seed"
            ));
        }
        self.run_allocs.push(round.run_allocs as f64);
        self.setup_s.push(round.setup_s);
        self.run_s.push(round.run_s);
        self.peak_mb.push(round.peak_live_bytes as f64 / 1e6);
        self.first.get_or_insert(round);
    }

    fn finish(mut self) -> Outcome {
        let kind = self.outcome.kind;
        let first = self.first.take().expect("at least one timed round");
        let arm = &first.report;
        if arm.chains < MIN_CHAINS {
            self.outcome.problems.push(format!(
                "the arm completed {} chains; the p99 needs {MIN_CHAINS}",
                arm.chains
            ));
        }
        // The same simulated run allocates the same — up to a few calls:
        // std's hash maps are keyed per process and per map, and whether a
        // full table with tombstones rehashes in place or reallocates
        // depends on where the keys landed.
        let allocs = stats::median(&self.run_allocs);
        let wobble = self
            .run_allocs
            .iter()
            .map(|a| (a - allocs).abs() / allocs)
            .fold(0.0, f64::max);
        if wobble > ALLOC_WOBBLE {
            self.outcome.problems.push(format!(
                "allocations in the run call differ by {:.4}% between rounds of one simulated run",
                wobble * 100.0
            ));
        }
        let (gain, numerator, denominator) = workloads::gain(kind, arm, &self.baseline.report);
        let ios = arm.ios as f64;
        self.outcome.end_to_end = in_table_order(
            END_TO_END.iter().map(|m| m.name),
            vec![
                ("sim_chains_per_s", arm.chains_per_sec),
                ("sim_p50_us", us(arm.latency.quantile(0.5))),
                ("sim_p99_us", us(arm.latency.quantile(0.99))),
                ("sim_read_p99_us", us(arm.read_latency.quantile(0.99))),
                ("sim_gain_vs_baseline", gain),
                (
                    "sim_cpu_us_per_chain",
                    us(arm.trace.software()) / arm.chains as f64,
                ),
                // Minimum wall: on a shared box noise only ever adds time.
                ("host_ios_per_s", ios / stats::min(&self.run_s)),
                ("host_allocs_per_io", allocs / ios),
                ("host_peak_live_mb", stats::median(&self.peak_mb)),
                ("setup_s", stats::median(&self.setup_s)),
            ],
        );
        self.outcome.notes = vec![
            format!(
                "{} timed rounds of {} simulated ms after 1 warm-up; engine {}",
                self.run_s.len(),
                kind.sim_length() / 1_000_000,
                kind.engine().label()
            ),
            format!(
                "latency samples: {} chains ({} reads, {} writes), {} I/Os",
                arm.latency.count(),
                arm.read_latency.count(),
                arm.write_latency.count(),
                arm.ios
            ),
            match kind {
                Kind::TenantNoisy => format!(
                    "gain {gain:.4} = baseline victim p99 {:.3} sim_us / arm victim p99 {:.3} sim_us",
                    numerator / 1e3,
                    denominator / 1e3
                ),
                _ => format!(
                    "gain {gain:.4} = arm {numerator:.1} chains/sim_s / baseline {denominator:.1} chains/sim_s"
                ),
            },
            format!(
                "run wall min {:.4} s, median {:.4} s; set-up min {:.5} s; {allocs} allocations per run, within {:.5}%",
                stats::min(&self.run_s),
                stats::median(&self.run_s),
                stats::min(&self.setup_s),
                wobble * 100.0
            ),
        ];
        self.outcome
    }
}

/// Runs the end-to-end phase: per workload one warm-up and one baseline
/// round, then timed rounds — round-robin across `kinds` so slow drift
/// of the machine lands on all of them alike — until each has measured
/// for `seconds`.
pub fn end_to_end(kinds: &[Kind], seed: u64, seconds: f64) -> Vec<Outcome> {
    let mut timed: Vec<Timed> = kinds.iter().map(|&k| Timed::start(k, seed)).collect();
    while timed.iter().any(|t| t.wants_more(seconds)) {
        for t in timed.iter_mut().filter(|t| t.wants_more(seconds)) {
            t.round(seed);
        }
    }
    timed.into_iter().map(Timed::finish).collect()
}

// --- per-layer phase -------------------------------------------------------

/// The simulated-clock layer rows of one arm round.
fn sim_rows(round: &Round, table1_err_pct: f64) -> Vec<(&'static str, f64)> {
    let r = &round.report;
    let t = &r.trace;
    let per_io = |x: u64| t.per_io(x);
    let ios = r.ios.max(1) as f64;
    let chains = r.chains.max(1) as f64;
    let lookups = (r.extcache.hits + r.extcache.misses).max(1) as f64;
    let total_cqes: u64 = r.tenants.iter().map(|b| b.cqes).sum();
    let parks: u64 = r.tenants.iter().map(|b| b.sq_parks).sum();
    // The victim (the reader) is the first tenant of every workload.
    let victim_share = r.tenants.first().map_or(0.0, |v| v.reap_share(total_cqes));
    let fabric = &r.fabric;
    in_table_order(
        metrics::SIM_ROWS.iter().map(|m| m.name),
        vec![
            ("kernel.sim_crossing_ns_per_io", per_io(t.crossing)),
            ("kernel.sim_syscall_ns_per_io", per_io(t.syscall)),
            ("kernel.sim_fs_ns_per_io", per_io(t.fs)),
            ("kernel.sim_bio_ns_per_io", per_io(t.bio)),
            ("kernel.sim_drv_ns_per_io", per_io(t.drv)),
            ("kernel.sim_bpf_ns_per_io", per_io(t.bpf)),
            ("kernel.sim_extcache_ns_per_io", per_io(t.extent_cache)),
            ("kernel.sim_journal_ns_per_io", per_io(t.journal)),
            ("kernel.sim_fabric_cpu_ns_per_io", per_io(t.fabric)),
            ("kernel.sim_poll_ns_per_io", per_io(t.poll)),
            ("kernel.sim_app_ns_per_io", per_io(t.app)),
            ("device.sim_service_ns_per_io", per_io(t.device)),
            ("device.sim_wire_ns_per_io", per_io(t.fabric_wire)),
            ("kernel.cpu_util", r.cpu_util),
            ("device.util", r.device_util),
            ("device.doorbells_per_io", r.device.doorbells as f64 / ios),
            ("device.irqs_per_io", t.irqs as f64 / ios),
            ("device.sq_rejected_per_io", r.device.rejected as f64 / ios),
            ("device.cq_backlog_hwm", r.device.cq_backlog_hwm as f64),
            (
                "device.reap_lag_ns_per_io",
                r.device.reap_lag_ns as f64 / r.device.cqes.max(1) as f64,
            ),
            (
                "kernel.extcache_hit_ratio",
                r.extcache.hits as f64 / lookups,
            ),
            (
                "kernel.resubmissions_per_chain",
                r.resubmissions as f64 / chains,
            ),
            ("kernel.rearm_retries", r.rearm_retries as f64),
            ("kernel.flushes_per_fsync", r.commit.flushes_per_fsync()),
            ("kernel.handles_per_commit", r.commit.mean_handles()),
            ("kernel.barrier_us_mean", r.commit.mean_barrier_ns() / 1e3),
            ("kernel.sq_parks_per_chain", parks as f64 / chains),
            ("kernel.victim_reap_share", victim_share),
            (
                "device.capsules_per_chain",
                (fabric.capsules_sent + fabric.responses) as f64 / chains,
            ),
            ("device.capsule_stalls", fabric.capsule_stalls as f64),
            ("device.retransmits", fabric.retransmits as f64),
            (
                "device.wire_bytes_per_chain",
                (fabric.bytes_tx + fabric.bytes_rx) as f64 / chains,
            ),
            (
                "fs.journal_records_per_write",
                round.journal_records as f64 / round.write_chains.max(1) as f64,
            ),
            ("fs.extents_per_file", round.extents_per_file),
            ("kernel.sim_table1_err_pct", table1_err_pct),
            ("core.sim_write_p99_us", us(r.write_latency.quantile(0.99))),
        ],
    )
}

/// One traced round and what its spans add up to.
struct Traced {
    round: Round,
    recorder: std::rc::Rc<Recorder>,
}

fn traced_round(kind: Kind, seed: u64) -> Traced {
    let recorder = Recorder::new();
    // The pieces of set-up that are public on their own, timed on their
    // own; `SessionBuilder::build` then runs them again inside
    // `setup.install`.
    let programs = kind.programs();
    recorder.phase("setup.verify", || {
        for p in &programs {
            verify(p).expect("in-tree programs verify");
        }
    });
    if kind.engine() == ExecEngine::Compiled {
        recorder.phase("setup.compile", || {
            for p in &programs {
                compile(p).expect("verified programs compile");
            }
        });
    }
    let round = run_round(kind, Side::Arm, seed, Some(&recorder));
    Traced { round, recorder }
}

impl Traced {
    /// The traced round's rows, given the fastest untraced `run_*` call
    /// of the same workload.
    fn rows(&self, untraced_run_s: f64) -> Vec<(&'static str, f64)> {
        let rec = &self.recorder;
        let exec = &self.round.report.exec;
        let run_ns = rec.phase_ns("run") as f64;
        let workload_ns = rec.callback_ns().1 as f64;
        let vm_ns = (exec.interp_ns + exec.compiled_ns) as f64;
        in_table_order(
            metrics::TRACE_ROWS.iter().map(|m| m.name),
            vec![
                ("trace.setup_image_us", us(rec.build_image_ns())),
                ("trace.setup_verify_us", us(rec.phase_ns("setup.verify"))),
                ("trace.setup_compile_us", us(rec.phase_ns("setup.compile"))),
                (
                    "trace.setup_install_us",
                    us(rec.phase_ns("setup.install") - rec.build_image_ns()),
                ),
                ("trace.run_workload_share", workload_ns / run_ns),
                ("trace.run_vm_share", vm_ns / run_ns),
                (
                    "trace.run_rest_share",
                    (run_ns - workload_ns - vm_ns) / run_ns,
                ),
                ("vm.compile_fallbacks", exec.fallbacks as f64),
                ("trace.teardown_ms", self.round.teardown_s * 1e3),
                (
                    "trace.overhead_pct",
                    (self.round.run_s / untraced_run_s - 1.0) * 100.0,
                ),
            ],
        )
    }
}

/// Runs rounds until `seconds` have passed (at least `min`), returning
/// the one with the fastest `run_*` call.
fn fastest<T>(
    seconds: f64,
    min: usize,
    mut round: impl FnMut() -> T,
    run_s: impl Fn(&T) -> f64,
) -> T {
    let start = Instant::now();
    let mut best = round();
    let mut n = 1;
    while n < min || start.elapsed().as_secs_f64() < seconds {
        let next = round();
        if run_s(&next) < run_s(&best) {
            best = next;
        }
        n += 1;
    }
    best
}

/// Runs the per-layer phase for each of `kinds`: the host micro-timings
/// and the Table 1 probe once, then per workload untraced rounds (the
/// simulated-clock rows, and the wall the tracing overhead is measured
/// against) and traced rounds, whose Chrome trace lands in `results`.
pub fn per_layer(kinds: &[Kind], seed: u64, seconds: f64, results: &Path) -> Vec<Outcome> {
    let micro = layers::measure(Duration::from_secs_f64(0.4 * seconds * kinds.len() as f64));
    let table1 = workloads::table1_probe(seed);
    let names: Vec<&'static str> = metrics::per_layer().iter().map(|m| m.name).collect();
    kinds
        .iter()
        .map(|&kind| {
            let mut outcome = Outcome::new(kind);
            check_table1(&mut outcome, table1);
            let warm = run_round(kind, Side::Arm, seed, None);
            outcome.absorb("warm-up", &warm);
            drop(warm);
            let untraced = fastest(
                0.25 * seconds,
                2,
                || run_round(kind, Side::Arm, seed, None),
                |r| r.run_s,
            );
            outcome.absorb("untraced round", &untraced);
            let traced = fastest(
                0.25 * seconds,
                1,
                || traced_round(kind, seed),
                |t| t.round.run_s,
            );
            outcome.absorb("traced round", &traced.round);
            if fingerprint(&traced.round.report) != fingerprint(&untraced.report) {
                outcome
                    .problems
                    .push("tracing changed the simulated run".to_string());
            }
            let trace_rows = traced.rows(untraced.run_s);
            let shares: Vec<f64> = trace_rows
                .iter()
                .filter(|(name, _)| name.starts_with("trace.run_"))
                .map(|(_, share)| *share)
                .collect();
            if (shares.iter().sum::<f64>() - 1.0).abs() > 0.01 || shares.iter().any(|s| *s < 0.0) {
                outcome
                    .problems
                    .push(format!("run shares {shares:?} do not partition the run"));
            }
            outcome.per_layer = micro
                .iter()
                .copied()
                .chain(sim_rows(&untraced, table1.0))
                .chain(trace_rows)
                .collect();
            assert!(
                names
                    .iter()
                    .eq(outcome.per_layer.iter().map(|(name, _)| name)),
                "every per-layer metric has a value, in table order"
            );

            let exec = &traced.round.report.exec;
            let file_name = format!("trace_{}_seed{seed}.json", kind.name());
            let file = results.join(&file_name);
            let doc = traced.recorder.chrome_trace(
                kind.name(),
                exec.hops(),
                exec.interp_ns + exec.compiled_ns,
            );
            match write_file(&file, &doc.render()) {
                Ok(()) => outcome
                    .notes
                    .push(format!("Chrome trace: benchmarks/results/{file_name}")),
                Err(e) => outcome
                    .problems
                    .push(format!("cannot write {}: {e}", file.display())),
            }
            outcome.notes.push(format!(
                "traced run {:.4} s vs untraced min {:.4} s; {} hook hops",
                traced.round.run_s,
                untraced.run_s,
                exec.hops()
            ));
            outcome
        })
        .collect()
}

/// Writes `text` to `path`, creating its directory.
pub fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Where traces and saved runs go: `results/` beside the benchmark's
/// manifest (cargo sets `CARGO_MANIFEST_DIR` for `cargo run`; the
/// compile-time value serves a binary started by hand).
pub fn results_dir() -> PathBuf {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest_dir.join("results")
}

// --- output ----------------------------------------------------------------

/// Merges the two phases' outcomes of the same workloads.
pub fn merge(mut end_to_end: Vec<Outcome>, per_layer: Vec<Outcome>) -> Vec<Outcome> {
    for (a, b) in end_to_end.iter_mut().zip(per_layer) {
        assert_eq!(a.kind, b.kind);
        a.attempted += b.attempted;
        a.failed += b.failed;
        a.per_layer = b.per_layer;
        a.notes.extend(b.notes);
        a.problems.extend(b.problems);
    }
    end_to_end
}

/// Prints every metric of `outcomes` by name with its unit.
pub fn print_report(outcomes: &[Outcome]) {
    for o in outcomes {
        println!("== {} ==", o.kind.name());
        for note in &o.notes {
            println!("   {note}");
        }
        if let Some(fp) = o.fingerprint {
            println!("   fingerprint {fp:#018x}");
        }
        for (m, (name, value)) in END_TO_END.iter().zip(&o.end_to_end) {
            println!(
                "   {name:<28} {value:>16.6} {:<8} ({} is better, bound {:.0}%)",
                m.unit,
                m.better.label(),
                m.bound * 100.0
            );
        }
        for (m, (name, value)) in metrics::per_layer().iter().zip(&o.per_layer) {
            println!("   {name:<34} {value:>16.6} {}", m.unit);
        }
        for problem in &o.problems {
            println!("   FAILED CHECK: {problem}");
        }
    }
}

fn metric_objects<'a>(
    values: &'a [(&'static str, f64)],
    units: impl Iterator<Item = &'static str> + 'a,
) -> Json {
    Json::obj(values.iter().zip(units).map(|((name, value), unit)| {
        (
            *name,
            Json::obj([("value", Json::from(*value)), ("unit", Json::str(unit))]),
        )
    }))
}

/// The driver's result line: `correct`, `attempted`, `failed`, `metrics`
/// — the end-to-end metrics with `trace` off, the per-layer ones with it
/// on.
pub fn result_line(o: &Outcome, trace: bool) -> Json {
    let metrics = if trace {
        metric_objects(
            &o.per_layer,
            metrics::per_layer().into_iter().map(|m| m.unit),
        )
    } else {
        metric_objects(&o.end_to_end, END_TO_END.iter().map(|m| m.unit))
    };
    Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::from(o.attempted.max(1))),
        ("failed", Json::from(o.failed)),
        ("metrics", metrics),
    ])
}

/// A whole run as one document: what `compare` reads back and what
/// `baselines/BENCH_<pr>.json` holds.
pub fn document(outcomes: &[Outcome], seed: u64, seconds: f64) -> Json {
    let values = |v: &[(&'static str, f64)]| Json::obj(v.iter().map(|(n, x)| (*n, Json::from(*x))));
    Json::obj([
        ("schema", Json::from(1u64)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("rustc", Json::str(env!("BENCH_RUSTC"))),
        (
            "workloads",
            Json::obj(outcomes.iter().map(|o| {
                (
                    o.kind.name(),
                    Json::obj([
                        ("correct", Json::Bool(o.correct())),
                        ("attempted", Json::from(o.attempted)),
                        ("failed", Json::from(o.failed)),
                        (
                            "fingerprint",
                            o.fingerprint
                                .map_or(Json::Null, |fp| Json::str(format!("{fp:#018x}"))),
                        ),
                        (
                            "notes",
                            Json::Arr(o.notes.iter().map(|n| Json::str(n.as_str())).collect()),
                        ),
                        ("end_to_end", values(&o.end_to_end)),
                        ("per_layer", values(&o.per_layer)),
                    ]),
                )
            })),
        ),
    ])
}

// --- repeat check ----------------------------------------------------------

/// Compares two end-to-end sets of the same code and seed: simulated
/// metrics and fingerprints must agree exactly, host metrics within
/// their own bound. Prints the observed spread of every metric and
/// returns the disagreements.
pub fn repeat_check(first: &[Outcome], second: &[Outcome]) -> Vec<String> {
    let mut failures = Vec::new();
    println!("== repeat check: second set against the first ==");
    for (a, b) in first.iter().zip(second) {
        let name = a.kind.name();
        if a.fingerprint != b.fingerprint {
            failures.push(format!("{name}: fingerprints differ"));
        }
        for (m, ((_, x), (_, y))) in END_TO_END
            .iter()
            .zip(a.end_to_end.iter().zip(&b.end_to_end))
        {
            let spread = (y - x).abs() / x.abs();
            let allowed = if m.exact {
                0.0
            } else {
                m.bound.max(m.floor / x.abs())
            };
            let ok = spread <= allowed;
            println!(
                "   {name:<15} {:<22} {x:>16.6} vs {y:>16.6}  spread {:>7.3}% of {:>6.2}% {}",
                m.name,
                spread * 100.0,
                allowed * 100.0,
                if ok { "ok" } else { "DISAGREES" }
            );
            if !ok {
                failures.push(format!(
                    "{name}: {} differs by {:.3}% (allowed {:.2}%)",
                    m.name,
                    spread * 100.0,
                    allowed * 100.0
                ));
            }
        }
    }
    failures
}
