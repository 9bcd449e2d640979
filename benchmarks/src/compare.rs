//! `compare <parent> <change>`: a verdict per end-to-end metric and
//! workload, from runs saved with `--out`.
//!
//! Each side is one saved run or a directory of them (the protocol in
//! `README.md` asks for at least ten alternating pairs). The bounds are
//! the ones `BENCHMARK.json` fixes. Every ratio is printed with its base.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, SIM_ROWS};
use crate::stats;
use crate::workloads::Kind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound and the parent's own spread, in at
    /// least nine tenths of the pairs.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// No worse than the bound allows.
    WithinBound,
    /// The runs spread wider than the bound, so they cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `change` is than `parent`, in the metric's unit
/// (negative when it is better).
fn worsening(m: &EndToEnd, parent: f64, change: f64) -> f64 {
    match m.better {
        Better::Lower => change - parent,
        Better::Higher => parent - change,
    }
}

fn iqr(values: &[f64]) -> f64 {
    stats::quartiles(values).map_or(0.0, |[q1, _, q3]| q3 - q1)
}

/// The verdict on one metric of one workload, from each side's runs
/// (paired by position).
pub fn verdict(m: &EndToEnd, parent: &[f64], change: &[f64]) -> Verdict {
    let p = stats::median(parent);
    let c = stats::median(change);
    let allowed = (m.bound * p.abs()).max(m.floor);
    let worse_by = worsening(m, p, c);
    // Wider than the bound, the runs cannot resolve a move of the
    // bound's size — unless the two sides do not even overlap.
    let noisy = iqr(parent).max(iqr(change)) > allowed;
    let every = |pred: &dyn Fn(f64) -> bool| {
        change
            .iter()
            .all(|&c| parent.iter().all(|&p| pred(worsening(m, p, c))))
    };
    if worse_by > allowed && (!noisy || every(&|w| w > 0.0)) {
        return Verdict::Regressed;
    }
    let (mut wins, mut losses) = (0usize, 0usize);
    for (&p, &c) in parent.iter().zip(change) {
        let w = worsening(m, p, c);
        wins += usize::from(w < 0.0);
        losses += usize::from(w > 0.0);
    }
    let decided = wins + losses;
    let gain = -worse_by;
    if gain > allowed.max(iqr(parent))
        && decided > 0
        && wins * 10 >= decided * 9
        && (!noisy || every(&|w| w < 0.0))
    {
        return Verdict::Improved;
    }
    if noisy {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

/// One workload of one saved run.
#[derive(Debug, Clone)]
struct Saved {
    fingerprint: Option<String>,
    end_to_end: Vec<(String, f64)>,
    per_layer: Vec<(String, f64)>,
}

/// One saved run.
#[derive(Debug, Clone)]
pub struct Run {
    seed: u64,
    workloads: Vec<(String, Saved)>,
}

fn numbers(v: Option<&Json>) -> Vec<(String, f64)> {
    v.and_then(Json::as_obj)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

impl Run {
    fn parse(text: &str) -> Result<Run, String> {
        let doc = Json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("no \"workloads\" object: not a run saved with --out")?;
        Ok(Run {
            seed: doc.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            workloads: workloads
                .iter()
                .map(|(name, w)| {
                    (
                        name.clone(),
                        Saved {
                            fingerprint: w
                                .get("fingerprint")
                                .and_then(Json::as_str)
                                .map(str::to_string),
                            end_to_end: numbers(w.get("end_to_end")),
                            per_layer: numbers(w.get("per_layer")),
                        },
                    )
                })
                .collect(),
        })
    }

    fn workload(&self, name: &str) -> Option<&Saved> {
        self.workloads
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w)
    }
}

/// Loads one saved run, or every `*.json` of a directory in name order.
///
/// # Errors
///
/// Unreadable or malformed files, and directories without runs.
pub fn load(path: &Path) -> Result<Vec<Run>, String> {
    let read = |p: &Path| -> Result<Run, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Run::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    if !path.is_dir() {
        return Ok(vec![read(path)?]);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no saved runs (*.json)", path.display()));
    }
    files.iter().map(|p| read(p)).collect()
}

fn samples(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.workload(workload))
        .filter_map(|w| {
            w.end_to_end
                .iter()
                .find(|(n, _)| n == metric)
                .map(|(_, v)| *v)
        })
        .collect()
}

/// Per-layer rows that are exact for a seed: the simulated-clock rows and
/// the programs' instruction counts.
fn is_model_row(name: &str) -> bool {
    SIM_ROWS.iter().any(|r| r.name == name) || name.ends_with("_insns_per_hop")
}

/// Whether the simulated clock saw the same runs on both sides, and if
/// not, which simulated per-layer rows moved.
fn fingerprint_line(parent: &[Run], change: &[Run], workload: &str) -> String {
    let mut compared = 0;
    let mut moved: Vec<String> = Vec::new();
    let mut differ = false;
    for p in parent {
        // Simulated results depend on the seed: compare like with like.
        let Some(c) = change.iter().find(|c| c.seed == p.seed) else {
            continue;
        };
        let (Some(pw), Some(cw)) = (p.workload(workload), c.workload(workload)) else {
            continue;
        };
        let (Some(pf), Some(cf)) = (&pw.fingerprint, &cw.fingerprint) else {
            continue;
        };
        compared += 1;
        if pf == cf {
            continue;
        }
        differ = true;
        for (name, pv) in pw.per_layer.iter().filter(|(n, _)| is_model_row(n)) {
            let cv = cw
                .per_layer
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v);
            if let Some(cv) = cv.filter(|cv| cv != pv) {
                if !moved.iter().any(|m| m.starts_with(name.as_str())) {
                    moved.push(format!("{name} {pv} -> {cv}"));
                }
            }
        }
    }
    if compared == 0 {
        return "fingerprint: no run of the same seed on both sides to compare".to_string();
    }
    if !differ {
        return format!(
            "fingerprint: identical on {compared} seed(s) -> host-only change; every sim_* metric must be unchanged"
        );
    }
    if moved.is_empty() {
        "fingerprint: DIFFERS -> model change, and no per-layer row saved on both sides moved; \
         save both sides with the per-layer phase and name the kernel.sim_* / device.sim_* row"
            .to_string()
    } else {
        format!(
            "fingerprint: DIFFERS -> model change; rows that moved: {}",
            moved.join("; ")
        )
    }
}

/// Renders the comparison and says whether any metric regressed.
pub fn compare(parent: &[Run], change: &[Run]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "parent: {} run(s), change: {} run(s); medians, change/parent ratio with its base",
        parent.len(),
        change.len()
    );
    for kind in Kind::ALL {
        let name = kind.name();
        if samples(parent, name, END_TO_END[0].name).is_empty() {
            continue;
        }
        let _ = writeln!(out, "== {name} ==");
        let _ = writeln!(out, "   {}", fingerprint_line(parent, change, name));
        for m in &END_TO_END {
            let (p, c) = (samples(parent, name, m.name), samples(change, name, m.name));
            if p.is_empty() || c.is_empty() {
                let _ = writeln!(out, "   {:<22} missing on one side", m.name);
                continue;
            }
            let v = verdict(m, &p, &c);
            regressed |= v == Verdict::Regressed;
            let (pm, cm) = (stats::median(&p), stats::median(&c));
            let _ = writeln!(
                out,
                "   {:<22} {:>14.6} -> {:>14.6} {:<8} x{:.4} of parent {:.6} ({} is better, bound {:.0}%, spread {:.2}% / {:.2}%): {}",
                m.name,
                pm,
                cm,
                m.unit,
                cm / pm,
                pm,
                m.better.label(),
                m.bound * 100.0,
                stats::spread(&p) * 100.0,
                stats::spread(&c) * 100.0,
                v.label()
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("known metric")
    }

    /// A throughput with a 10% bound, whatever the table says today.
    const THROUGHPUT: EndToEnd = EndToEnd {
        name: "throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        floor: 0.0,
        exact: false,
    };

    #[test]
    fn single_runs_are_judged_against_the_bound() {
        let ios = &THROUGHPUT;
        assert_eq!(verdict(ios, &[1000.0], &[1050.0]), Verdict::WithinBound);
        assert_eq!(verdict(ios, &[1000.0], &[950.0]), Verdict::WithinBound);
        assert_eq!(verdict(ios, &[1000.0], &[880.0]), Verdict::Regressed);
        assert_eq!(verdict(ios, &[1000.0], &[1200.0]), Verdict::Improved);
        let p99 = metric("sim_p99_us"); // lower is better, 10%
        assert_eq!(verdict(p99, &[50.0], &[56.0]), Verdict::Regressed);
        assert_eq!(verdict(p99, &[50.0], &[44.0]), Verdict::Improved);
        assert_eq!(verdict(p99, &[50.0], &[50.0]), Verdict::WithinBound);
    }

    #[test]
    fn setup_s_tolerates_its_absolute_floor() {
        let setup = metric("setup_s"); // 25%, never less than 0.5 ms
                                       // 1.0 ms -> 1.4 ms is +40%, but only 0.4 ms.
        assert_eq!(verdict(setup, &[0.0010], &[0.0014]), Verdict::WithinBound);
        assert_eq!(verdict(setup, &[0.0010], &[0.0016]), Verdict::Regressed);
        // At 100 ms the relative bound is the binding one.
        assert_eq!(verdict(setup, &[0.100], &[0.120]), Verdict::WithinBound);
        assert_eq!(verdict(setup, &[0.100], &[0.130]), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_do_not_overlap() {
        let ios = &THROUGHPUT;
        let parent = [1000.0, 700.0, 1300.0, 800.0, 1200.0, 900.0, 1100.0, 1000.0];
        let change = [950.0, 1250.0, 750.0, 1150.0, 850.0, 1050.0, 950.0, 1000.0];
        assert_eq!(verdict(ios, &parent, &change), Verdict::Unresolved);
        // Just as noisy, but every change run beats every parent run.
        let faster: Vec<f64> = parent.iter().map(|v| v + 2000.0).collect();
        assert_eq!(verdict(ios, &parent, &faster), Verdict::Improved);
        let slower: Vec<f64> = parent.iter().map(|v| v / 4.0).collect();
        assert_eq!(verdict(ios, &parent, &slower), Verdict::Regressed);
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parents_spread() {
        let ios = &THROUGHPUT;
        let parent = [1000.0; 10];
        let mut change = [1200.0; 10];
        assert_eq!(verdict(ios, &parent, &change), Verdict::Improved);
        change[0] = 990.0;
        assert_eq!(
            verdict(ios, &parent, &change),
            Verdict::Improved,
            "9 of 10 pairs"
        );
        change[1] = 990.0;
        assert_eq!(
            verdict(ios, &parent, &change),
            Verdict::WithinBound,
            "8 of 10 pairs"
        );
        // The medians differ by 12%, but the parent's own runs spread 15%.
        let wobbly = [
            1000.0, 925.0, 1075.0, 1000.0, 925.0, 1075.0, 1000.0, 925.0, 1075.0, 1000.0,
        ];
        let better: Vec<f64> = wobbly.iter().map(|v| v * 1.12).collect();
        assert_ne!(verdict(ios, &wobbly, &better), Verdict::Improved);
    }

    fn saved(seed: u64, fingerprint: &str, ios: f64, bpf: f64) -> Run {
        let text = format!(
            r#"{{"schema":1,"seed":{seed},"workloads":{{"btree_read":{{"fingerprint":"{fingerprint}",
            "end_to_end":{{"sim_chains_per_s":242000,"sim_p50_us":25,"sim_p99_us":26,"sim_read_p99_us":26,
            "sim_gain_vs_baseline":1.75,"sim_cpu_us_per_chain":5.6,"host_ios_per_s":{ios},
            "host_allocs_per_io":3,"host_peak_live_mb":40,"setup_s":0.05}},
            "per_layer":{{"kernel.sim_bpf_ns_per_io":{bpf},"vm.interp_btree_hop_ns":900}}}}}}}}"#
        );
        Run::parse(&text).expect("parses")
    }

    #[test]
    fn the_fingerprint_line_tells_a_host_only_change_from_a_model_change() {
        let parent = [saved(1, "0xaa", 700_000.0, 230.0)];
        let host_only = [saved(1, "0xaa", 900_000.0, 230.0)];
        let (text, regressed) = compare(&parent, &host_only);
        assert!(!regressed);
        assert!(text.contains("host-only change"), "{text}");
        assert!(
            text.contains("host_ios_per_s") && text.contains("improved"),
            "{text}"
        );

        let model = [saved(1, "0xbb", 700_000.0, 260.0)];
        let (text, _) = compare(&parent, &model);
        assert!(text.contains("model change"), "{text}");
        assert!(
            text.contains("kernel.sim_bpf_ns_per_io 230 -> 260"),
            "{text}"
        );
        assert!(
            !text.contains("vm.interp_btree_hop_ns"),
            "host timings are not model rows"
        );

        let slower = [saved(1, "0xaa", 500_000.0, 230.0)];
        let (text, regressed) = compare(&parent, &slower);
        assert!(regressed && text.contains("regressed"), "{text}");

        let other_seed = [saved(2, "0xcc", 700_000.0, 230.0)];
        assert!(compare(&parent, &other_seed)
            .0
            .contains("no run of the same seed"));
    }

    #[test]
    fn malformed_saved_runs_are_errors() {
        assert!(Run::parse("{}").is_err());
        assert!(Run::parse("not json").is_err());
        assert!(load(Path::new("/nonexistent/run.json")).is_err());
    }
}
