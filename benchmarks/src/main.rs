//! `bpfstor-perf`: the repository's benchmark.
//!
//! ```text
//! bpfstor-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!              [--repeat-check] [--out FILE]
//! bpfstor-perf compare PARENT CHANGE
//! bpfstor-perf manifest
//! ```
//!
//! Without `--workload` all four workloads run, their timed rounds
//! interleaved; without `--trace` both phases run (end-to-end metrics,
//! then per-layer metrics and the traced rounds). With both flags — the
//! form the benchmark driver uses — the last line of standard output is
//! the result object `BENCHMARK.json`'s contract asks for. See
//! `README.md`.

mod alloc;
mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Kind;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: bpfstor-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat-check] [--out FILE]
       bpfstor-perf compare PARENT CHANGE   (saved runs, or directories of them)
       bpfstor-perf manifest                (prints BENCHMARK.json)
workloads: btree_read, ycsb_write_mix, fabric_chase, tenant_noisy";

/// A parsed measuring invocation.
#[derive(Debug, PartialEq)]
struct Options {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end phase only; `Some(true)`: per-layer
    /// phase only; `None`: both.
    trace: Option<bool>,
    repeat_check: bool,
    out: Option<PathBuf>,
}

/// Parses the measuring form's arguments. Unknown flags, unknown
/// workloads and malformed values are errors, never ignored.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: None,
        repeat_check: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                o.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not a duration in (0, 3600]"))?;
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                });
            }
            "--repeat-check" => o.repeat_check = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.repeat_check && o.trace == Some(true) {
        return Err("--repeat-check compares end-to-end metrics; --trace 1 measures none".into());
    }
    Ok(o)
}

fn measure(o: &Options) -> ExitCode {
    let kinds: Vec<Kind> = o.workload.map_or_else(|| Kind::ALL.to_vec(), |k| vec![k]);
    let results = run::results_dir();
    let mut ok = true;

    let mut outcomes = match o.trace {
        Some(true) => run::per_layer(&kinds, o.seed, o.seconds, &results),
        Some(false) => run::end_to_end(&kinds, o.seed, o.seconds),
        None => {
            let first = run::end_to_end(&kinds, o.seed, o.seconds);
            run::merge(first, run::per_layer(&kinds, o.seed, o.seconds, &results))
        }
    };
    run::print_report(&outcomes);
    if o.repeat_check {
        let second = run::end_to_end(&kinds, o.seed, o.seconds);
        let failures = run::repeat_check(&outcomes, &second);
        for f in &failures {
            println!("REPEAT CHECK FAILED: {f}");
        }
        ok &= failures.is_empty() && second.iter().all(run::Outcome::correct);
    }
    ok &= outcomes.iter().all(run::Outcome::correct);

    // The driver's form names one workload and one phase and reads the
    // last line; every other form saves the whole run as a document.
    let driver_form = o.workload.is_some() && o.trace.is_some();
    if !driver_form || o.out.is_some() {
        let path = o
            .out
            .clone()
            .unwrap_or_else(|| results.join(format!("run_seed{}.json", o.seed)));
        let doc = run::document(&outcomes, o.seed, o.seconds);
        match run::write_file(&path, &doc.pretty()) {
            Ok(()) => println!("saved {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    if driver_form {
        let outcome = outcomes.pop().expect("one workload ran");
        println!(
            "{}",
            run::result_line(&outcome, o.trace == Some(true)).render()
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("bpfstor-perf: a check failed (see FAILED lines above)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest().pretty());
            ExitCode::SUCCESS
        }
        Some("compare") if args.len() == 3 => {
            let sides = compare::load(args[1].as_ref())
                .and_then(|parent| Ok((parent, compare::load(args[2].as_ref())?)));
            match sides {
                Ok((parent, change)) => {
                    let (text, regressed) = compare::compare(&parent, &change);
                    print!("{text}");
                    if regressed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("bpfstor-perf compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("manifest" | "compare" | "-h" | "--help") => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        _ => match parse(&args) {
            Ok(options) => measure(&options),
            Err(e) => {
                eprintln!("bpfstor-perf: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_form_parses() {
        let o = parse(&args(
            "--workload fabric_chase --seed 7 --seconds 10 --trace 1",
        ))
        .expect("ok");
        assert_eq!(
            o,
            Options {
                workload: Some(Kind::FabricChase),
                seed: 7,
                seconds: 10.0,
                trace: Some(true),
                repeat_check: false,
                out: None,
            }
        );
        let defaults = parse(&[]).expect("no arguments is the full run");
        assert_eq!(
            (defaults.workload, defaults.seed, defaults.trace),
            (None, 1, None)
        );
    }

    #[test]
    fn unknown_flags_workloads_and_values_are_errors() {
        for bad in [
            "--workload btree",
            "--workload",
            "--quick",
            "--seed x",
            "--seed -1",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--trace",
            "btree_read",
            "--repeat-check --trace 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
