//! The `bench` binary's command line: one parser, one dispatcher and
//! one output style for every experiment in the
//! [`registry`].
//!
//! ```text
//! bench <name> [--quick] [--seed <N>]
//! bench ablations [extent-cache|bpf-cost|resubmit-bound|split-fallback]... [--quick]
//! bench list
//! bench all [--quick]
//! ```
//!
//! - `--quick`: reduced durations/counts;
//! - `--seed <N>` (or `--seed=N`): override the experiment's default
//!   RNG seed — decimal or `0x`-prefixed hex; only the sweeps take one;
//! - `all`: every table of every experiment, at its default seed, and
//!   the whole claims ledger as `results/claims.csv`.
//!
//! Every run ends with the [ledger](crate::claims) rows of the tables
//! it ran and exits 1 if one is outside its range (or a CSV could not
//! be written).

use std::process::ExitCode;

use crate::claims::{self, CLAIMS};
use crate::experiments::Scale;
use crate::registry::{self, Experiment, Part, EXPERIMENTS};
use crate::report::Table;

/// Parsed flags.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepArgs {
    /// `--quick` was passed.
    pub quick: bool,
    /// `--seed <N>` override, if passed.
    pub seed: Option<u64>,
}

impl SweepArgs {
    /// The run-scale knob for the experiment functions.
    pub fn scale(&self) -> Scale {
        Scale { quick: self.quick }
    }
}

/// What the positional arguments asked for.
pub enum Command {
    /// `bench list`.
    List,
    /// `bench <name> [subset]...`: the experiment's tables to run, in
    /// registry order (all of them when no subset is named); `bench
    /// all`: every table, and `whole` — the ledger is written too.
    Run {
        /// The tables, in print order.
        tables: Vec<&'static Part>,
        /// Every claim is judged, so [`LEDGER_CSV`] is written.
        whole: bool,
    },
}

/// The csv name `bench all` writes the ledger under.
pub const LEDGER_CSV: &str = "claims";

/// The usage message: the flags and every valid name.
pub fn usage() -> String {
    let names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: bench <name>|list|all [--quick] [--seed <N>]\n\
         flags: --quick, --seed <N> (decimal or 0x hex, sweeps only)\n\
         names: {}",
        names.join(", ")
    )
}

/// Parses the `bench` arguments (without the program name).
///
/// # Errors
///
/// Names the offending argument: an unknown flag, experiment or subset,
/// a missing or stray positional, a flag missing its value, a value
/// that does not parse, or a `--seed` the experiment would ignore.
pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<(Command, SweepArgs), String> {
    let mut out = SweepArgs::default();
    let mut positional = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            positional.push(arg);
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--quick" if inline.is_none() => out.quick = true,
            "--seed" => out.seed = Some(parse_seed(&value()?)?),
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    let mut positional = positional.into_iter();
    let name = positional.next().ok_or("no experiment named")?;
    let experiment = match name.as_str() {
        "list" | "all" => None,
        _ => Some(registry::find(&name).ok_or(format!("unknown experiment {name:?}"))?),
    };
    let subsets = experiment.map_or(&[][..], |e| e.subsets);
    let mut named = Vec::new();
    for arg in positional {
        let subset = subsets.iter().position(|s| *s == arg);
        named.push(subset.ok_or(format!("unknown argument {arg:?} after {name}"))?);
    }
    if out.seed.is_some() && !experiment.is_some_and(|e| e.seeded) {
        return Err(format!("{name} takes no --seed"));
    }
    let command = match experiment {
        Some(e) => Command::Run {
            tables: (0..e.tables.len())
                .filter(|i| named.is_empty() || named.contains(i))
                .map(|i| &e.tables[i])
                .collect(),
            whole: false,
        },
        None if name == "all" => Command::Run {
            tables: registry::every_table().collect(),
            whole: true,
        },
        None if out.quick => return Err("list takes no flags".into()),
        None => Command::List,
    };
    Ok((command, out))
}

fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("--seed wants a u64 (decimal or 0x hex), got {v:?}"))
}

/// `bench list`: one line per experiment.
pub fn list() -> String {
    let line = |e: &Experiment| format!("{:<18}{}\n", e.name, e.about);
    EXPERIMENTS.iter().map(line).collect()
}

/// Prints a table and drops its CSV under `results/`; whether the
/// write succeeded.
fn put(table: &Table, csv: &str) -> bool {
    table.print();
    let written = table.write_csv(csv);
    match &written {
        Ok(p) => println!("csv: {}", p.display()),
        Err(e) => eprintln!("error: {csv}.csv not written: {e}"),
    }
    written.is_ok()
}

/// The exit status of a run: 1 if a ledger row failed or a CSV is
/// missing, so a script cannot take a partial run for a good one.
fn status(failed: &[String], written: bool) -> u8 {
    for key in failed {
        eprintln!("error: claim {key} is outside its range (or was not recorded)");
    }
    u8::from(!failed.is_empty() || !written)
}

/// Runs and puts each table, then the ledger rows of what ran.
fn run(tables: &[&'static Part], whole: bool, args: SweepArgs) -> u8 {
    let mut written = true;
    let mut ran = Vec::new();
    for part in tables {
        let t = registry::run(part, args.scale(), args.seed);
        written &= put(&t, part.0);
        ran.push((part.0, t));
    }
    let ledger = claims::ledger(CLAIMS, &ran);
    if whole {
        written &= put(&ledger.table, LEDGER_CSV);
    } else if !ledger.table.rows.is_empty() {
        ledger.table.print();
    }
    status(&ledger.failed, written)
}

/// The `bench` binary: parses the process arguments and runs the
/// command. A bad argument prints the problem and the usage, and exits
/// with status 2 — a sweep silently running on the wrong seed or scale
/// is worse than no sweep.
pub fn main() -> ExitCode {
    let (command, args) = match parse_from(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(problem) => {
            eprintln!("error: {problem}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match command {
        Command::List => {
            print!("{}", list());
            ExitCode::SUCCESS
        }
        Command::Run { tables, whole } => ExitCode::from(run(&tables, whole, args)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Command, SweepArgs), String> {
        parse_from(args.iter().map(|a| a.to_string()))
    }

    /// The flags of a seeded sweep invocation.
    fn flags(args: &[&str]) -> Result<SweepArgs, String> {
        parse(&[&["queue_sweep"], args].concat()).map(|(_, flags)| flags)
    }

    /// `--quick` and the csv names of the tables an invocation runs.
    fn tables(args: &[&str]) -> Result<(bool, Vec<&'static str>), String> {
        let (command, flags) = parse(args)?;
        let Command::Run { tables, .. } = command else {
            return Err(format!("{args:?} is not an experiment run"));
        };
        Ok((flags.quick, tables.iter().map(|(csv, _)| *csv).collect()))
    }

    #[test]
    fn seed_parses_decimal_and_hex_in_both_spellings() {
        assert_eq!(flags(&["--seed", "2024"]).expect("parses").seed, Some(2024));
        assert_eq!(
            flags(&["--seed=0x3117"]).expect("parses").seed,
            Some(0x3117)
        );
        assert_eq!(flags(&[]).expect("parses").seed, None);
        let args = flags(&["--quick", "--seed", "7"]).expect("parses");
        assert!(args.quick && args.scale().quick);
        assert_eq!(args.seed, Some(7));
    }

    #[test]
    fn ablation_subsets_are_checked_against_the_known_names() {
        let all = vec![
            "ablation_extent_cache",
            "ablation_bpf_cost",
            "ablation_resubmit_bound",
            "ablation_split_fallback",
        ];
        assert_eq!(tables(&["ablations"]), Ok((false, all)));
        assert_eq!(
            tables(&["ablations", "split-fallback", "--quick", "bpf-cost"]),
            Ok((true, vec!["ablation_bpf_cost", "ablation_split_fallback"]))
        );
        // The typo that used to run nothing and exit 0.
        let err = tables(&["ablations", "extent_cache"]).expect_err("unknown subset");
        assert!(err.contains("extent_cache"), "{err}");
        assert!(
            tables(&["ablations", "--seed", "7"]).is_err(),
            "ablations take no seed"
        );
    }

    #[test]
    fn unknown_and_malformed_arguments_are_errors() {
        // The misspelling that used to run the canonical seed silently.
        let err = flags(&["--sed", "7"]).expect_err("unknown flag");
        assert!(err.contains("--sed"), "{err}");
        assert!(flags(&["extent-cache"]).is_err(), "stray positional");
        assert!(flags(&["--quick=yes"]).is_err());
        let err = flags(&["--quick", "--seed"]).expect_err("missing value");
        assert!(err.contains("--seed needs a value"), "{err}");
        assert!(flags(&["--seed", "seven"]).is_err());
        assert!(flags(&["--seed=0xZZ"]).is_err());
        // `--engine` went with the second engine: a flag like any other
        // the parser does not know.
        for gone in [&["--engine=compiled"][..], &["--engine", "interp"]] {
            let err = flags(gone).expect_err("unknown flag");
            assert!(err.contains("unknown argument \"--engine"), "{err}");
        }
        assert!(!usage().contains("--engine"));
    }

    #[test]
    fn the_figure_experiments_reject_what_they_used_to_ignore() {
        // `fig3a --quik` ran at full scale and `fig1 --seed 7` dropped
        // the seed, both exiting 0.
        let err = tables(&["fig3a", "--quik"]).expect_err("misspelt flag");
        assert!(err.contains("--quik"), "{err}");
        let err = tables(&["fig1", "--seed", "7"]).expect_err("fig1 has a fixed seed");
        assert!(err.contains("fig1 takes no --seed"), "{err}");
        assert!(parse(&["all", "--seed=7"]).is_err(), "all runs fixed seeds");
        let err = tables(&["table1", "table1"]).expect_err("stray positional");
        assert!(err.contains("after table1"), "{err}");
        let err = tables(&["fig9", "--quick"]).expect_err("unknown experiment");
        assert!(err.contains("fig9"), "{err}");
        assert!(parse(&["--quick"]).is_err(), "no experiment named");
        assert!(parse(&["list", "--quick"]).is_err(), "list takes no flags");
        // The usage printed with each of these names the flags and
        // every experiment.
        let usage = usage();
        for flag in ["--quick", "--seed"] {
            assert!(usage.contains(flag), "{usage}");
        }
        for e in EXPERIMENTS {
            assert!(usage.contains(e.name), "usage lacks {}", e.name);
        }
    }

    #[test]
    fn every_registry_entry_runs_whole_by_name_and_is_listed() {
        let listing = list();
        assert_eq!(listing.lines().count(), EXPERIMENTS.len());
        for e in EXPERIMENTS {
            let csvs: Vec<_> = e.tables.iter().map(|(csv, _)| *csv).collect();
            assert_eq!(tables(&[e.name, "--quick"]), Ok((true, csvs)));
            assert_eq!(tables(&[e.name, "--seed", "7"]).is_ok(), e.seeded);
            let line = format!("{:<18}{}", e.name, e.about);
            assert!(listing.lines().any(|l| l == line), "list lacks {}", e.name);
        }
        assert!(matches!(parse(&["list"]), Ok((Command::List, _))));
    }

    #[test]
    fn all_runs_every_table_of_every_entry_and_writes_the_ledger() {
        let (quick, csvs) = tables(&["all", "--quick"]).expect("all is a run");
        assert!(quick);
        let every: Vec<_> = EXPERIMENTS.iter().flat_map(|e| e.tables).collect();
        assert_eq!(csvs, every.iter().map(|(csv, _)| *csv).collect::<Vec<_>>());
        assert_eq!(
            csvs.len(),
            19,
            "the seeded sweeps run at their default seeds"
        );
        assert!(
            !csvs.contains(&LEDGER_CSV),
            "the ledger has a csv of its own"
        );
        for (args, is_whole) in [(&["all"][..], true), (&["fig1"], false)] {
            let (command, _) = parse(args).expect("parses");
            assert!(matches!(command, Command::Run { whole, .. } if whole == is_whole));
        }
    }

    #[test]
    fn a_failed_claim_or_an_unwritten_csv_is_a_failed_run() {
        assert_eq!(status(&[], true), 0);
        assert_eq!(status(&["fig3b.max_gain".to_string()], true), 1);
        assert_eq!(status(&[], false), 1, "a CSV that could not be written");
    }
}
