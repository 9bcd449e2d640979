//! Runs the DESIGN.md ablations (A1–A4). Pass subset names
//! (`extent-cache`, `bpf-cost`, `resubmit-bound`, `split-fallback`) to
//! run some; default runs all. An unknown name or flag exits with
//! status 2.

use bpfstor_bench::cli::{self, ABLATIONS};
use bpfstor_bench::experiments::{
    ablation_bpf_cost, ablation_extent_cache, ablation_resubmit_bound, ablation_split_fallback,
    Scale,
};

fn main() {
    let (quick, which) = cli::parse_ablations(std::env::args().skip(1)).unwrap_or_else(|e| {
        let usage = format!("usage: ablations [--quick] [{}]...", ABLATIONS.join("|"));
        cli::usage_exit(&e, &usage)
    });
    let scale = Scale { quick };
    for name in which {
        let (table, csv) = match name {
            "extent-cache" => (ablation_extent_cache(scale), "ablation_extent_cache"),
            "bpf-cost" => (ablation_bpf_cost(scale), "ablation_bpf_cost"),
            "resubmit-bound" => (ablation_resubmit_bound(scale), "ablation_resubmit_bound"),
            "split-fallback" => (ablation_split_fallback(scale), "ablation_split_fallback"),
            other => unreachable!("parse_ablations only returns known names, got {other}"),
        };
        table.print();
        if let Err(e) = table.write_csv(csv) {
            eprintln!("csv write failed: {e}");
        }
    }
}
