//! LSM offload: cold SSTable point lookups as a kernel-side BPF chain.
//!
//! A *cold* get (no index cached in user space) needs three dependent
//! reads: footer → index block → data block. This example exercises both
//! layers of the API over a table flushed by a real `LsmTree`:
//!
//! 1. the **low-level** path — `SstGetDriver` programmed directly
//!    against the kernel's `ChainDriver` trait (per-chain state keyed by
//!    the kernel-minted `ChainToken`), driving a table file the LSM
//!    wrote inside the machine;
//! 2. the **high-level** path — a `PushdownSession` over the `Sst`
//!    workload, where install/rearm/retry are the library's problem.
//!
//! ```sh
//! cargo run --release --example lsm_get
//! ```

use bpfstor::core::{sst_get_program, DispatchMode, PushdownSession, Sst, SstGetDriver};
use bpfstor::kernel::{Machine, MachineConfig};
use bpfstor::lsm::{DirectIo, LsmConfig, LsmTree, BLOCK};
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
    // uniform stride), flush everything into SSTables.
    let mut machine = Machine::new(MachineConfig::default());
    let (fs, store) = machine.fs_and_store();
    let mut io = DirectIo::new(fs, store);
    let mut lsm = LsmTree::new(LsmConfig::default());
    for key in 0..2_000u64 {
        lsm.put(&mut io, key * 2, value_for(key * 2)).expect("put");
    }
    lsm.flush(&mut io).expect("flush");

    // Pick the largest live table and compute its footer offset.
    let table = lsm
        .levels()
        .iter()
        .flatten()
        .max_by_key(|t| t.footer.nkeys)
        .expect("at least one table");
    let name = table.name.clone();
    let footer_off = (table.file_blocks() - 1) * BLOCK as u64;
    let (min_key, max_key, nkeys) = (
        table.footer.min_key,
        table.footer.max_key,
        table.footer.nkeys,
    );
    println!("table {name}: {nkeys} keys in [{min_key}, {max_key}], footer at byte {footer_off}");

    // Probe a mix of present and absent keys; expectations from the
    // canonical value function.
    let keys: Vec<u64> = (0..64u64)
        .map(|i| min_key + i * ((max_key - min_key) / 64).max(1) / 2 * 2)
        .chain([min_key, max_key, max_key + 11])
        .collect();
    let expect: Vec<Option<Vec<u8>>> = keys
        .iter()
        .map(|k| {
            if *k >= min_key && *k <= max_key && *k % 2 == 0 {
                Some(value_for(*k))
            } else {
                None
            }
        })
        .collect();

    // --- Low-level path: ChainDriver against the LSM's own file. ------
    for mode in [DispatchMode::User, DispatchMode::DriverHook] {
        let fd = machine.open(&name, true).expect("open");
        if mode != DispatchMode::User {
            let handle = machine
                .install(fd, sst_get_program(VALUE_SIZE as u32), 0)
                .expect("install");
            assert_eq!(machine.attached(fd), Some(handle));
        }
        let mut d = SstGetDriver::new(fd, mode, footer_off, keys.clone(), expect.clone());
        let report = machine.run_closed_loop(1, SECOND, &mut d);
        println!(
            "{:<28} {} gets: {} hits, {} misses, {} mismatches, mean latency {}",
            mode.label(),
            d.stats.completed,
            d.stats.hits,
            d.stats.misses,
            d.stats.mismatches,
            pretty(report.mean_latency() as u64),
        );
        assert_eq!(d.stats.mismatches, 0, "offload must agree with native");
        assert_eq!(d.stats.errors, 0);
    }

    // --- High-level path: the same cold gets through a session. -------
    let entries: Vec<(u64, Vec<u8>)> = (min_key..=max_key)
        .filter(|k| k % 2 == 0)
        .map(|k| (k, value_for(k)))
        .collect();
    let mut session = PushdownSession::builder(Sst::new(entries, keys.clone()))
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
