//! Shared command-line handling and output emission for the sweep
//! binaries, so every harness offers the same flags and prints/writes
//! results identically.
//!
//! Flags:
//!
//! - `--quick`: reduced durations/counts (the `figures` bench scale);
//! - `--seed <N>` (or `--seed=N`): override the experiment's default
//!   RNG seed — decimal or `0x`-prefixed hex;
//! - `--engine <interp|compiled>` (or `--engine=...`): select the hook
//!   execution engine, overriding `BPFSTOR_ENGINE` and the default.

use bpfstor_kernel::ExecEngine;

use crate::experiments::Scale;
use crate::report::Table;

/// Parsed sweep-binary arguments.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepArgs {
    /// `--quick` was passed.
    pub quick: bool,
    /// `--seed <N>` override, if passed.
    pub seed: Option<u64>,
    /// `--engine <interp|compiled>` override, if passed.
    pub engine: Option<ExecEngine>,
}

impl SweepArgs {
    /// The run-scale knob for the experiment functions.
    pub fn scale(&self) -> Scale {
        Scale { quick: self.quick }
    }
}

/// The flags every sweep binary takes, for the usage message.
pub const USAGE: &str =
    "flags: --quick, --seed <N> (decimal or 0x hex), --engine <interp|compiled>";

/// Parses the process arguments and applies `--engine` (as the
/// `BPFSTOR_ENGINE` default every machine built afterwards reads). An
/// unknown flag or a malformed value prints the problem and the valid
/// flags, then exits with status 2 — a sweep silently running on the
/// wrong seed is worse than no sweep.
pub fn parse_args() -> SweepArgs {
    let args = parse_from(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e, USAGE));
    if let Some(engine) = args.engine {
        std::env::set_var("BPFSTOR_ENGINE", engine.label());
    }
    args
}

/// Prints `problem` and `usage` to standard error and exits with
/// status 2.
pub fn usage_exit(problem: &str, usage: &str) -> ! {
    eprintln!("error: {problem}\n{usage}");
    std::process::exit(2)
}

/// Parses sweep-binary arguments (without the program name).
///
/// # Errors
///
/// Names the offending argument: an unknown flag, a flag missing its
/// value, or a value that does not parse.
pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<SweepArgs, String> {
    let mut out = SweepArgs::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
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
            "--engine" => out.engine = Some(parse_engine(&value()?)?),
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(out)
}

/// The subsets the `ablations` binary knows, in run order.
pub const ABLATIONS: [&str; 4] = [
    "extent-cache",
    "bpf-cost",
    "resubmit-bound",
    "split-fallback",
];

/// Parses the `ablations` binary's arguments: `--quick` plus any number
/// of subset names. Returns the quick flag and the subsets to run, in
/// [`ABLATIONS`] order (all of them when none is named).
///
/// # Errors
///
/// Names the first argument that is neither `--quick` nor a subset.
pub fn parse_ablations(
    args: impl IntoIterator<Item = String>,
) -> Result<(bool, Vec<&'static str>), String> {
    let mut quick = false;
    let mut named = Vec::new();
    for arg in args {
        match ABLATIONS.iter().find(|name| **name == arg) {
            Some(name) => named.push(*name),
            None if arg == "--quick" => quick = true,
            None => return Err(format!("unknown argument {arg:?}")),
        }
    }
    let all = named.is_empty();
    let run = ABLATIONS.into_iter().filter(|n| all || named.contains(n));
    Ok((quick, run.collect()))
}

fn parse_engine(v: &str) -> Result<ExecEngine, String> {
    ExecEngine::parse(v).ok_or_else(|| format!("--engine wants 'interp' or 'compiled', got {v:?}"))
}

fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("--seed wants a u64 (decimal or 0x hex), got {v:?}"))
}

/// Prints each table and drops its CSV under `results/`, with the
/// uniform `csv: <path>` / `csv write failed: <err>` messages the
/// binaries have always emitted.
pub fn emit(tables: &[(Table, &str)]) {
    for (t, name) in tables {
        t.print();
        match t.write_csv(name) {
            Ok(p) => println!("csv: {}", p.display()),
            Err(e) => eprintln!("csv write failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn seed_parses_decimal_and_hex_in_both_spellings() {
        assert_eq!(parse(&["--seed", "2024"]).expect("parses").seed, Some(2024));
        assert_eq!(
            parse(&["--seed=0x3117"]).expect("parses").seed,
            Some(0x3117)
        );
        assert_eq!(parse(&[]).expect("parses").seed, None);
    }

    #[test]
    fn engine_parses_both_tiers() {
        let engine = |args: &[&str]| parse(args).expect("parses").engine;
        assert_eq!(engine(&["--engine=compiled"]), Some(ExecEngine::Compiled));
        assert_eq!(engine(&["--engine", "interp"]), Some(ExecEngine::Interp));
        assert_eq!(engine(&["--engine", "jit"]), Some(ExecEngine::Compiled));
        let args = parse(&["--quick", "--engine=interp", "--seed", "7"]).expect("parses");
        assert!(args.quick && args.scale().quick);
        assert_eq!(
            (args.seed, args.engine),
            (Some(7), Some(ExecEngine::Interp))
        );
    }

    #[test]
    fn ablation_subsets_are_checked_against_the_known_names() {
        let ablations = |args: &[&str]| parse_ablations(args.iter().map(|a| a.to_string()));
        assert_eq!(ablations(&[]), Ok((false, ABLATIONS.to_vec())));
        assert_eq!(
            ablations(&["split-fallback", "--quick", "bpf-cost"]),
            Ok((true, vec!["bpf-cost", "split-fallback"]))
        );
        // The typo that used to run nothing and exit 0.
        let err = ablations(&["extent_cache"]).expect_err("unknown subset");
        assert!(err.contains("extent_cache"), "{err}");
        assert!(
            ablations(&["--seed", "7"]).is_err(),
            "ablations take no seed"
        );
    }

    #[test]
    fn unknown_and_malformed_arguments_are_errors() {
        // The misspelling that used to run the canonical seed silently.
        let err = parse(&["--sed", "7"]).expect_err("unknown flag");
        assert!(err.contains("--sed"), "{err}");
        assert!(parse(&["extent-cache"]).is_err(), "stray positional");
        assert!(parse(&["--quick=yes"]).is_err());
        let err = parse(&["--quick", "--seed"]).expect_err("missing value");
        assert!(err.contains("--seed needs a value"), "{err}");
        assert!(parse(&["--seed", "seven"]).is_err());
        assert!(parse(&["--seed=0xZZ"]).is_err());
        assert!(parse(&["--engine=turbo"]).is_err());
    }
}
