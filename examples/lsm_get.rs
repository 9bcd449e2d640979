//! LSM offload: cold SSTable point lookups as a kernel-side BPF chain.
//!
//! A *cold* get (no index cached in user space) needs three dependent
//! reads: footer → index block → data block. This example exercises both
//! layers of the API:
//!
//! 1. the **low-level** path — `Member::attach`, the one function that
//!    attaches a workload to a machine (open, install when the mode
//!    runs a program, wrap in the `ChainDriver` adapter sessions
//!    themselves run), called on a table a real `LsmTree` flushed
//!    through the machine's rings;
//! 2. the **high-level** path — a `PushdownSession` over the `Sst`
//!    workload, which creates the file and calls the same function.
//!
//! ```sh
//! cargo run --release --example lsm_get
//! ```

use bpfstor::core::{
    DispatchMode, MachineLsmIo, Member, PushdownSession, PushdownWorkload, Sst, DEFAULT_TENANT,
};
use bpfstor::kernel::{Machine, MachineConfig};
use bpfstor::lsm::{LsmConfig, LsmIo, LsmTree};
use bpfstor::sim::time::pretty;
use bpfstor::sim::SECOND;

const VALUE_SIZE: usize = 64;

fn value_for(key: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_SIZE];
    v[..8].copy_from_slice(&key.wrapping_mul(0xC0FFEE).to_le_bytes());
    v
}

fn main() {
    println!("bpfstor LSM example — cold SSTable gets via the driver hook\n");

    // Build an LSM tree with fixed-size values (the BPF parser needs a
    // uniform stride) and flush everything into SSTables — journaled
    // writes through the SQ/CQ rings, an fsync barrier per table.
    let mut machine = Machine::new(MachineConfig::default());
    let mut lsm = LsmTree::new(LsmConfig::default());
    let mut io = MachineLsmIo::new(&mut machine);
    for key in 0..2_000u64 {
        lsm.put(&mut io, key * 2, value_for(key * 2)).expect("put");
    }
    lsm.flush(&mut io).expect("flush");

    // Pick the largest live table and read it back: the workload learns
    // the table from the table itself.
    let table = lsm
        .levels()
        .iter()
        .flatten()
        .max_by_key(|t| t.footer.nkeys)
        .expect("at least one table");
    let entries = table.read_all(&mut io).expect("read back");
    assert!(entries.iter().all(|(k, v)| *v == value_for(*k)));
    let (min_key, max_key) = (table.footer.min_key, table.footer.max_key);
    println!(
        "table {}: {} keys in [{min_key}, {max_key}], {} blocks",
        table.name,
        table.footer.nkeys,
        table.file_blocks()
    );

    // Probe a mix of present and absent keys.
    let keys: Vec<u64> = (0..64u64)
        .map(|i| min_key + i * ((max_key - min_key) / 64).max(1) / 2 * 2)
        .chain([min_key, max_key, max_key + 11])
        .collect();

    // --- Low-level path: attach to the LSM's own file. ----------------
    for mode in DispatchMode::ALL {
        let mut sst = Sst::new(entries.clone(), keys.clone());
        // `build_image` is how a workload learns its geometry (here:
        // where the footer is); the flush wrote exactly these bytes.
        let image = sst.build_image().expect("image");
        let mut io = MachineLsmIo::new(&mut machine);
        let on_disk = io.read(table.ino, 0, image.len()).expect("read");
        assert_eq!(on_disk, image, "the flushed table is the workload's image");

        let mut member = Member::attach(&mut machine, DEFAULT_TENANT, &table.name, sst, mode, 2)
            .expect("attach");
        let report = machine.run_closed_loop(1, SECOND, &mut member);
        let stats = member.stats();
        println!(
            "{:<28} {} gets: {} hits, {} misses, {} mismatches, mean latency {}",
            mode.label(),
            stats.completed,
            stats.hits,
            stats.misses,
            stats.mismatches,
            pretty(report.mean_latency() as u64),
        );
        assert_eq!(stats.completed, keys.len() as u64);
        assert_eq!(stats.mismatches, 0, "offload must agree with native");
        assert_eq!(stats.errors, 0);
    }

    // --- High-level path: the same cold gets through a session. -------
    let mut session = PushdownSession::builder(Sst::new(entries, keys))
        .dispatch(DispatchMode::DriverHook)
        .build()
        .expect("session construction");
    let (report, stats) = session.run_closed_loop(1, SECOND);
    println!(
        "{:<28} {} gets: {} hits, {} misses, {} mismatches, mean latency {}",
        "PushdownSession<Sst>",
        stats.completed,
        stats.hits,
        stats.misses,
        stats.mismatches,
        pretty(report.mean_latency() as u64),
    );
    assert_eq!(stats.mismatches, 0);

    println!("\nBoth paths return identical values; the hook path saves two");
    println!("full stack traversals per get (footer and index hops never");
    println!("surface to user space).");
}
