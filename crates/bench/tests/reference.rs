//! Tier 1's answer to "did a simulated cell move?" and "does this still
//! reproduce the paper?": every registry table, run in-process at quick
//! scale, equals its committed CSV byte for byte, and the claims ledger
//! they fill has no row outside its range.
//!
//! The tables are run on two worker threads at most, each taking the
//! next table not yet taken, which halves this suite's wall time on two
//! cores (fig3a and fig3b, together three quarters of the work, run side
//! by side). The committed CSVs are what `bench all --quick` writes, one
//! table after another on one thread, so the byte-for-byte comparison
//! below is also the check that a table run on a worker equals a serial
//! run of it.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

use bpfstor_bench::claims::{ledger, Ledger, CLAIMS};
use bpfstor_bench::cli::LEDGER_CSV;
use bpfstor_bench::registry::{every_table, run};
use bpfstor_bench::{Scale, Table};

/// How a change that means to move a cell commits the movement.
const RECIPE: &str = "cargo run --release -p bpfstor-bench -- all --quick \
                      && cp results/*.csv crates/bench/reference/";

fn reference_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference")
}

/// Every table at quick scale and default seed, run once for all tests
/// and kept in registry order.
fn tables() -> &'static [(&'static str, Table)] {
    static RAN: OnceLock<Vec<(&'static str, Table)>> = OnceLock::new();
    RAN.get_or_init(|| {
        let parts: Vec<_> = every_table().collect();
        let next = AtomicUsize::new(0);
        let workers = thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let mut ran: Vec<_> = thread::scope(|scope| {
            let workers: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut ran = Vec::new();
                        while let Some(part) = parts.get(next.fetch_add(1, Ordering::Relaxed)) {
                            ran.push((part.0, run(part, Scale { quick: true }, None)));
                        }
                        ran
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|worker| worker.join().expect("a table run panicked"))
                .collect()
        });
        ran.sort_by_key(|&(csv, _)| parts.iter().position(|part| part.0 == csv));
        ran
    })
}

fn whole_ledger() -> Ledger {
    ledger(CLAIMS, tables())
}

/// What to tell whoever moved a cell of `name`.csv: the first line that
/// differs, both ways, and the recipe. `None` when nothing differs.
fn difference(name: &str, committed: &str, got: &str) -> Option<String> {
    if committed == got {
        return None;
    }
    let (want, got): (Vec<_>, Vec<_>) = (committed.lines().collect(), got.lines().collect());
    let at = (0..want.len()).find(|&i| want.get(i) != got.get(i));
    let at = at.unwrap_or(want.len());
    Some(format!(
        "crates/bench/reference/{name}.csv:{} no longer matches what the source produces\n\
         committed: {}\n\
         produced:  {}\n\
         if the cell was meant to move, name the layer that moved it and recommit:\n  {RECIPE}",
        at + 1,
        want.get(at).unwrap_or(&"<end of file>"),
        got.get(at).unwrap_or(&"<end of file>"),
    ))
}

#[test]
fn every_table_matches_its_committed_reference() {
    let ledger = whole_ledger();
    let produced = tables()
        .iter()
        .map(|(csv, t)| (*csv, t))
        .chain([(LEDGER_CSV, &ledger.table)]);
    let mut names = BTreeSet::new();
    for (csv, table) in produced {
        let path = reference_dir().join(format!("{csv}.csv"));
        let committed = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}; commit it:\n  {RECIPE}", path.display()));
        if let Some(report) = difference(csv, &committed, &table.csv()) {
            panic!("{report}");
        }
        names.insert(format!("{csv}.csv"));
    }
    let on_disk: BTreeSet<String> = fs::read_dir(reference_dir())
        .expect("reference directory")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    let orphans: Vec<_> = on_disk.difference(&names).collect();
    assert!(
        orphans.is_empty(),
        "no table produces {orphans:?}: delete them"
    );
}

#[test]
fn no_claim_is_outside_its_range() {
    let ledger = whole_ledger();
    assert_eq!(
        ledger.table.rows.len(),
        CLAIMS.len(),
        "every claim is judged"
    );
    assert!(
        ledger.failed.is_empty(),
        "outside their range: {:?}\n{}",
        ledger.failed,
        ledger.table.render()
    );
}

#[test]
fn every_claim_names_a_registered_csv_and_a_recorded_measure() {
    for c in CLAIMS {
        let table = tables().iter().find(|(csv, _)| *csv == c.csv);
        let (_, table) = table.unwrap_or_else(|| panic!("{}.{}: no such table", c.csv, c.id));
        assert!(
            table.measured(c.id).is_some(),
            "{}.{}: the table records {:?}",
            c.csv,
            c.id,
            table.measures
        );
    }
}

#[test]
fn a_moved_cell_is_reported_with_its_line_and_the_recommit_recipe() {
    let committed = "depth,t=1\n1,0.98x\n2,1.32x\n";
    assert_eq!(difference("fig3b", committed, committed), None);
    let report = difference("fig3b", committed, "depth,t=1\n1,0.98x\n2,1.35x\n").expect("differs");
    for part in [
        "crates/bench/reference/fig3b.csv:3 ",
        "committed: 2,1.32x\n",
        "produced:  2,1.35x\n",
        "all --quick && cp results/*.csv crates/bench/reference/",
    ] {
        assert!(report.contains(part), "{report}");
    }
    // A table that lost or grew a row differs at the first line only one has.
    let shorter = difference("fig3b", committed, "depth,t=1\n1,0.98x\n").expect("differs");
    assert!(shorter.contains("fig3b.csv:3 ") && shorter.contains("produced:  <end of file>"));
    let longer = difference("fig3b", committed, "depth,t=1\n1,0.98x\n2,1.32x\n3,1.49x\n");
    assert!(longer
        .expect("differs")
        .contains("committed: <end of file>"));
}
