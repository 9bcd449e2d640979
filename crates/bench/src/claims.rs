//! The claims ledger: every number this repository holds itself to, in
//! one table the experiments fill.
//!
//! A [`Claim`] names a measure some table records
//! ([`Table::measure`]), says where the number comes from — a table or
//! figure of the source paper, BPF-oF, or a bound this repository set
//! itself — gives the paper's value *as it is on file in this
//! repository* ([`Paper::NotOnFile`] where it is not: `PAPER.md` is a
//! stub and there is no network, so nothing is filled in from memory),
//! and the range the reproduced value must stay in. A row the model is
//! known to miss keeps the paper's value, is held to where the model
//! stands, and names what the model lacks.
//!
//! The experiments compute and [`ledger`] judges: `bench` prints the
//! rows of whatever it ran and exits 1 on a row outside its range;
//! `bench all` writes the whole ledger as `claims.csv`. Tables that
//! print a paper value ([`claim`]) or a `paper:` note ([`annotate`])
//! read it from here, so no paper value is written down twice.

use std::fmt;

use crate::report::{num, Table};
use Paper::{NoClaim, NotOnFile, Num, Quote};

/// What the paper gives for a claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Paper {
    /// A number printed in the paper.
    Num(f64),
    /// The paper's wording where it gives no table cell (a figure read
    /// off a plot, a sentence of the abstract), as on file.
    Quote(&'static str),
    /// The paper states a value and this repository has no record of it.
    NotOnFile,
    /// No paper states one: the bound is this repository's own.
    NoClaim,
}

impl Paper {
    /// The printed number, if the paper prints one.
    pub fn number(&self) -> Option<f64> {
        match *self {
            Paper::Num(n) => Some(n),
            _ => None,
        }
    }
}

impl fmt::Display for Paper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Paper::Num(n) => f.write_str(&num(*n)),
            Paper::Quote(q) => f.write_str(q),
            Paper::NotOnFile => f.write_str("not on file"),
            Paper::NoClaim => f.write_str("-"),
        }
    }
}

/// One row of the ledger.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// The table ([`crate::registry`] csv name) that records the measure.
    pub csv: &'static str,
    /// The measure's id in that table; `(csv, id)` is the row's key.
    pub id: &'static str,
    /// Where the claim is made.
    pub source: &'static str,
    /// What is measured, with its unit. Tables with a `paper` column use
    /// it as the row label.
    pub what: &'static str,
    /// The paper's value.
    pub paper: Paper,
    /// The reproduced value must lie in `accept.0 ..= accept.1`.
    pub accept: (f64, f64),
    /// For a row the model is known to miss (`accept` then holds the
    /// model to where it stands, not to the paper): what it lacks.
    pub missing: Option<&'static str>,
}

impl Claim {
    /// Marks a row the model is known to miss, naming what it lacks.
    const fn lacking(mut self, layer: &'static str) -> Claim {
        self.missing = Some(layer);
        self
    }
}

const fn row(
    csv: &'static str,
    id: &'static str,
    source: &'static str,
    paper: Paper,
    accept: (f64, f64),
    what: &'static str,
) -> Claim {
    let missing = None;
    Claim {
        csv,
        id,
        source,
        what,
        paper,
        accept,
        missing,
    }
}

/// A Table 1 row: the paper prints `ns`, the model is held within `tol`.
const fn table1(id: &'static str, what: &'static str, ns: f64, tol: f64) -> Claim {
    row(
        "table1",
        id,
        "Table 1",
        Paper::Num(ns),
        within(ns, tol),
        what,
    )
}

const fn within(value: f64, tol: f64) -> (f64, f64) {
    (value * (1.0 - tol), value * (1.0 + tol))
}

const fn at_least(lo: f64) -> (f64, f64) {
    (lo, f64::INFINITY)
}

const fn at_most(hi: f64) -> (f64, f64) {
    (0.0, hi)
}

/// Source of a bound no paper states.
const OWN: &str = "own bound";
/// The software rows of Table 1 are the model's configuration
/// (`LayerCosts`): a nanosecond moved in any of them is out of range.
const CONFIGURED: f64 = 0.005;

/// Every claim, in the order the ledger prints them. Laid out by hand as
/// the table it is: key, source, paper value and range on one line, the
/// wording under it.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    row("fig1", "software_pct_hdd", "Fig. 1", Quote("negligible"), at_most(1.0),
        "software share of a 512 B read on HDD (%)"),
    row("fig1", "software_pct_nand", "Fig. 1", NotOnFile, (2.0, 6.0),
        "software share of a 512 B read on NAND flash (%)"),
    row("fig1", "software_pct_nvm1", "Fig. 1", NotOnFile, (15.0, 30.0),
        "software share of a 512 B read on first-generation Optane (%)"),
    row("fig1", "software_pct_nvm2", "Fig. 1", Quote("~half"), (40.0, 60.0),
        "software share of a 512 B read on second-generation Optane (%)"),

    table1("crossing_ns", "kernel crossing", 351.0, CONFIGURED),
    table1("syscall_ns", "read syscall", 199.0, CONFIGURED),
    table1("ext4_ns", "ext4", 2006.0, CONFIGURED),
    table1("bio_ns", "bio", 379.0, CONFIGURED),
    table1("driver_ns", "NVMe driver", 113.0, CONFIGURED),
    table1("device_ns", "storage device", 3224.0, 0.02),
    table1("total_ns", "total", 6272.0, 0.01),

    row("fig3a", "max_gain", "Fig. 3a", Quote("max ~1.25x"), (1.02, 1.45),
        "largest IOPS gain of the syscall-layer hook over depth x threads (only crossings saved)"),
    row("fig3b", "max_gain", "Fig. 3b + abstract", Quote("up to ~2.5x; abstract: over 2.5x"), (1.8, 3.2),
        "largest IOPS gain of the NVMe-driver hook over depth x threads"),
    row("fig3b", "least_depth_step", "Fig. 3b", Quote("growing with depth"), at_least(1.0),
        "least step of the driver-hook gain from one depth to the next (12 threads; x)"),
    row("fig3b", "saturation_bonus", "Fig. 3b", Quote("largest once CPU saturates"), (1.02, 1.5),
        "depth-10 driver-hook gain at 12 threads over the same at 6 (x)"),
    row("fig3c", "cut_pct_depth10", "Fig. 3c + abstract", Quote("up to ~49%; abstract: by half"), (30.0, 60.0),
        "single-thread latency cut of the driver hook at depth 10 (%)"),
    row("fig3d", "gain_depth10_batch8", "Fig. 3d", Quote(">2.5x at deep trees"), at_least(2.5),
        "io_uring driver-hook gain at depth 10 and batch 8 (x)"),
    row("fig3d", "least_batch_step", "Fig. 3d", Quote("grows with batch size"), at_least(1.0),
        "least step of the depth-10 io_uring gain from one batch size to the next (x)"),
    row("fig3d", "gain_depth3_batch1", "Fig. 3d", Quote("1.3-1.5x at depth 3"), (1.3, 1.6),
        "io_uring driver-hook gain at depth 3 and batch 1 (x)"),
    // At one batch size the model's gain at depth d is d*U/(U+(d-1)*H) for
    // per-hop costs U (an io_uring SQE) and H (a hook resubmission): 1.5x
    // at depth 3 needs H >= U/2, which caps depth 10 at 1.8x. If the
    // paper's depth-3 range spans its batch sizes, its hooked chains pay
    // something per chain that the model does not charge.
    row("fig3d", "gain_depth3_batch8", "Fig. 3d", Quote("1.3-1.5x at depth 3"), (2.0, 2.8),
        "io_uring driver-hook gain at depth 3 and batch 8 (x)")
        .lacking("fixed per-chain cost on the hooked io_uring path"),

    row("extent_stability", "hours", "§4", Num(24.0), (4.8, 24.0),
        "simulated hours"),
    row("extent_stability", "mean_change_interval_s", "§4", Num(159.0), within(159.0, 0.1),
        "mean s between extent changes"),
    row("extent_stability", "unmaps_per_24h", "§4", Num(5.0), (4.0, 6.0),
        "unmapping changes per 24h"),
    row("lsm_stability", "live_tables_remapped", OWN, NoClaim, (0.0, 0.0),
        "live SSTables whose extents changed after creation (§4 companion)"),

    row("fabric_sweep", "latency_gap_5us", "BPF-oF", NotOnFile, (1.0, 8.0),
        "latency of per-hop round trips over pushdown, depth-8 chase, 5 us one-way (x)"),
    row("fabric_sweep", "latency_gap_80us", "BPF-oF", NotOnFile, (4.0, 8.0),
        "the same at 80 us one-way: approaches the chain depth as the wire dominates (x)"),

    row("fabric_contention", "pushdown_chains_gain_4init", OWN, NoClaim, at_least(2.0),
        "write pushdown's gain in fsynced chains/s, 4 initiators at 20 us one-way (x)"),
    row("fabric_contention", "pushdown_iops_gain_4init", OWN, NoClaim, at_least(2.0),
        "the same in device IOPS (x)"),
    row("fabric_contention", "aggregate_step_least", OWN, NoClaim, at_least(0.9),
        "least step of aggregate chains/s from one initiator count to the next, either arm (x)"),
    row("fabric_contention", "four_over_one_least", OWN, NoClaim, at_least(1.5),
        "aggregate chains/s of 4 initiators over 1, the lesser arm (x)"),

    row("reap_sweep", "polled_over_irq_iops_deep", OWN, NoClaim, at_least(1.0),
        "polled over coalesced-interrupt IOPS at batch 32 (x)"),
    row("reap_sweep", "irq_over_polled_cpu_light", OWN, NoClaim, at_most(1.0),
        "interrupt over polled CPU per I/O at batch 1 (x)"),
    row("reap_sweep", "hybrid_over_best_least", OWN, NoClaim, at_least(0.9),
        "hybrid IOPS over the better fixed mode, least over the batches (x)"),
    row("reap_sweep", "hybrid_switches_deep", OWN, NoClaim, at_least(1.0),
        "hybrid reap-mode switches at batch 32"),

    row("group_commit", "per_fsync_barriers_least", OWN, NoClaim, at_least(0.9),
        "flush barriers per fsync under per-fsync commit, least over the writer counts"),
    row("group_commit", "group_barriers_most_8plus", OWN, NoClaim, at_most(0.99),
        "flush barriers per fsync under group commit, most over 8+ writers"),
    row("group_commit", "group_gain_least_8plus", OWN, NoClaim, at_least(1.5),
        "group-commit write IOPS over per-fsync, least over 8+ writers (x)"),
    row("group_commit", "writeback_gain_least_8plus", OWN, NoClaim, at_least(1.2),
        "writeback write IOPS over per-fsync, least over 8+ writers (x)"),

    row("tenant_sweep", "unfair_over_fair_p99", OWN, NoClaim, at_least(1.5),
        "victim p99 unshaped over shaped (SQ budgets + fair reaping), one aggressor (x)"),
    row("tenant_sweep", "fair_over_solo_p99", OWN, NoClaim, at_most(1.25),
        "victim p99 shaped over solo (x)"),
    row("tenant_sweep", "unfair_over_solo_p99", OWN, NoClaim, at_least(1.4),
        "victim p99 unshaped over solo (x)"),
];

/// The claim on measure `id` of table `csv`.
///
/// # Panics
///
/// When there is none: a table asked for a row [`CLAIMS`] does not have.
pub fn claim(csv: &str, id: &str) -> &'static Claim {
    let found = CLAIMS.iter().find(|c| c.csv == csv && c.id == id);
    found.unwrap_or_else(|| panic!("no claim on {csv}.{id}"))
}

/// Appends a `paper:` note to `table` for each claim on it the paper
/// words rather than tabulates.
pub fn annotate(csv: &str, table: &mut Table) {
    for c in CLAIMS.iter().filter(|c| c.csv == csv) {
        if let Paper::Quote(quote) = c.paper {
            table.note(&format!("paper ({}): {quote} — {}", c.source, c.what));
        }
    }
}

/// The judged rows of `claims` on `tables`.
pub struct Ledger {
    /// One row per claim: source, claim, paper, reproduced, accept,
    /// status, read from.
    pub table: Table,
    /// `csv.id` of every row that is outside its range or was never
    /// recorded.
    pub failed: Vec<String>,
}

/// Judges each of `claims` whose table is among `tables` (name, table)
/// by the measure that table recorded.
pub fn ledger(claims: &[Claim], tables: &[(&str, Table)]) -> Ledger {
    let mut table = Table::new(
        "Claims ledger — paper vs reproduced",
        &[
            "source",
            "claim",
            "paper",
            "reproduced",
            "accept",
            "status",
            "read from",
        ],
    );
    let mut failed = Vec::new();
    let mut known_misses = 0;
    for c in claims {
        let Some((_, ran)) = tables.iter().find(|(csv, _)| *csv == c.csv) else {
            continue;
        };
        let key = format!("{}.{}", c.csv, c.id);
        let reproduced = ran.measured(c.id);
        let (lo, hi) = c.accept;
        let inside = reproduced.map(|x| (lo..=hi).contains(&x));
        let status = match (inside, c.missing) {
            (None, _) => "FAIL: not recorded".to_string(),
            (Some(false), _) => "FAIL".to_string(),
            (Some(true), None) => "ok".to_string(),
            (Some(true), Some(layer)) => {
                known_misses += 1;
                format!("known miss: no {layer}")
            }
        };
        if inside != Some(true) {
            failed.push(key.clone());
        }
        table.row(vec![
            c.source.to_string(),
            c.what.to_string(),
            c.paper.to_string(),
            reproduced.map_or("-".to_string(), num),
            format!("{}..{}", num(lo), num(hi)),
            status,
            key,
        ]);
    }
    table.note(&format!(
        "{} claims judged: {} outside their range, {known_misses} where the model is known to miss the paper",
        table.rows.len(),
        failed.len(),
    ));
    Ledger { table, failed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ledger_fails_the_rows_outside_their_range_and_only_those() {
        let hand = |id, accept| row("hand", id, OWN, NoClaim, accept, id);
        let quoted = Claim {
            source: "Fig. 9",
            paper: Quote("~2x"),
            ..hand("gain", (1.5, 2.5))
        };
        let claims = [
            quoted,
            hand("cut", at_least(30.0)),
            hand("typo", at_least(0.0)),
            hand("miss", (2.0, 2.8)).lacking("layer"),
            hand("drifted_miss", (2.0, 2.8)).lacking("layer"),
            row("not_run", "gain", OWN, NoClaim, at_least(9.0), "gain"),
        ];
        let mut table = Table::new("hand-built", &["x"]);
        let measures = [("gain", 2.6), ("cut", 47.0), ("miss", 2.39)];
        for (id, value) in measures.into_iter().chain([("drifted_miss", 1.4)]) {
            table.measure(id, value);
        }
        let got = ledger(&claims, &[("hand", table)]);
        assert_eq!(got.failed, ["hand.gain", "hand.typo", "hand.drifted_miss"]);
        let judged = got.table.rows.iter().map(|r| r[2..].join(" | "));
        let want = [
            "~2x | 2.6 | 1.5..2.5 | FAIL | hand.gain",
            "- | 47 | 30..inf | ok | hand.cut",
            "- | - | 0..inf | FAIL: not recorded | hand.typo",
            "- | 2.39 | 2..2.8 | known miss: no layer | hand.miss",
            "- | 1.4 | 2..2.8 | FAIL | hand.drifted_miss",
        ];
        assert_eq!(judged.collect::<Vec<_>>(), want, "not_run is skipped");
    }

    #[test]
    fn keys_are_unique_ranges_are_ranges_and_only_paper_rows_quote_the_paper() {
        for (i, c) in CLAIMS.iter().enumerate() {
            let twin = CLAIMS[..i].iter().any(|d| (d.csv, d.id) == (c.csv, c.id));
            assert!(!twin, "{}.{} is claimed twice", c.csv, c.id);
            assert!(c.accept.0 <= c.accept.1, "{}.{}: empty range", c.csv, c.id);
            assert_eq!(c.source == OWN, c.paper == NoClaim, "{}.{}", c.csv, c.id);
            if let (Some(n), None) = (c.paper.number(), c.missing) {
                let (lo, hi) = c.accept;
                assert!(
                    (lo..=hi).contains(&n),
                    "{}.{} rejects the paper",
                    c.csv,
                    c.id
                );
            }
        }
        assert_eq!(claim("table1", "ext4_ns").paper.to_string(), "2006");
    }
}
