//! Allocation regression test for the steady-state I/O path.
//!
//! A recycled descriptor is supposed to be recycled on the host too:
//! once the pools are warm, a hop — submit, doorbell, service, post,
//! reap, hook, resubmit — allocates nothing, locally or on a fabric
//! target. This suite installs a counting allocator and measures the
//! *marginal* cost: the same configuration is run from scratch to
//! simulated time `T` and to `2T`, so set-up, table growth and pool
//! warm-up cancel and what is left is allocations per I/O in the second
//! half. (The benchmark package has its own counter; it is not part of
//! tier 1 and cannot gate it.)
//!
//! A journaled write keeps what the data itself costs and nothing else:
//! the record the workload hands in (an owned `Vec`, the trait's shape)
//! and one store page per 1024 non-zero sectors that land, when each is
//! zero past its first 8-byte word (the store keeps a sector to its
//! last non-zero word; an all-zero sector is a hole and costs a bit of
//! the index). An appended log's sectors take consecutive slots, so
//! each of its 64-LBA index leaves is a run that holds no array of
//! entries. Its plan, its
//! commands, the uring batch and the commit window are kept for their
//! capacity (machine.rs, "Buffer ownership"), and the write loops below
//! measure that the same marginal way, per write chain.
//!
//! Set-up has two costs worth pinning the same way, counted outright,
//! not marginally: verification, which every install pays (its heap
//! calls and its transient peak of live bytes), and the machine itself,
//! which holds host memory for what it uses, not for the queue depth and
//! file-system size it declares — down to its latency histograms, which
//! hold only the octaves their values span.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bpfstor::core::{
    btree_lookup_program, btree_lookup_program_with_stats, sst_get_program, Btree, Chase,
    CommitPolicy, DispatchMode, PushdownSession, PushdownWorkload, SessionStats, TenantGroup,
    TenantLimits, YcsbMix,
};
use bpfstor::fs::CHECKPOINT_RECORDS;
use bpfstor::kernel::{FabricConfig, MachineConfig};
use bpfstor::sim::{Histogram, LatencyDist, MILLISECOND};
use bpfstor::vm::verify;
use bpfstor::workload::OpMix;

#[path = "../crates/kernel/tests/support/mod.rs"]
mod support;

thread_local! {
    // `const`-initialised `Cell`s need no lazy set-up and no
    // destructor, so the allocator may touch them. Per thread: the test
    // harness's other threads do not disturb the counts.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// One heap call that leaves `bytes` more live.
fn grew(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    let live = LIVE.with(|c| c.replace(c.get() + bytes)) + bytes;
    PEAK.with(|c| c.set(c.get().max(live)));
}

fn shrank(bytes: usize) {
    // Saturating: a block allocated on another thread may be freed here.
    LIVE.with(|c| c.set(c.get().saturating_sub(bytes)));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches thread-local
// `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from
        // `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` was returned by this allocator for `layout`,
        // i.e. by `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a chain reads: a pointer chase of so many hops (the program
/// emits from scratch) or a B-tree lookup of that depth (it emits from
/// its stack). Either way, one I/O per hop.
enum Chain {
    Chase(u64),
    Btree(u32),
}

/// One closed loop the path serves: chain shape, dispatch mode, and
/// whether an NVMe-oF fabric sits between the rings and the device.
struct Loop {
    name: &'static str,
    chain: Chain,
    mode: DispatchMode,
    fabric: bool,
    /// Ceiling on marginal allocations per I/O.
    bound: f64,
}

/// Builds the loop's session from scratch, runs it to `until`, and
/// returns `(allocations during the run, device I/Os)`.
fn measure(l: &Loop, until: u64) -> (u64, u64) {
    match l.chain {
        Chain::Chase(hops) => measure_workload(l, Chase::hops(hops), hops, until),
        Chain::Btree(depth) => measure_workload(l, Btree::depth(depth), depth as u64, until),
    }
}

fn measure_workload<W: PushdownWorkload>(
    l: &Loop,
    workload: W,
    hops: u64,
    until: u64,
) -> (u64, u64) {
    let mut b = PushdownSession::builder(workload).dispatch(l.mode);
    if l.fabric {
        b = b.fabric(FabricConfig {
            to_target: LatencyDist::Uniform(16_000, 24_000),
            to_host: LatencyDist::Uniform(16_000, 24_000),
            ..FabricConfig::default()
        });
    }
    let mut s = b.build().expect("session");
    let before = ALLOCS.with(Cell::get);
    let (report, stats) = s.run_closed_loop(4, until);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!((stats.errors, stats.mismatches), (0, 0), "{}", l.name);
    assert_eq!(report.ios, report.chains * hops, "{}", l.name);
    (allocs, report.ios)
}

#[test]
fn steady_state_io_path_does_not_allocate() {
    const T: u64 = 20 * MILLISECOND;
    // The hook loops allocate nothing, per hop or per chain: the
    // `emit` helper hands the kernel a borrow of the program's own
    // memory (scratch for the chase, the stack for the B-tree) and the
    // session decodes the payload in place. Measured 0; bounded at
    // 0.01 so that one allocation per chain, at either chain length,
    // trips it. The single-read loops end in `Pass`, which lends the read
    // buffer to the driver and takes it back: measured 0, bounded at
    // 1.5 so that a decode of theirs would not trip it.
    let loops = [
        Loop {
            name: "local driver-hook chase",
            chain: Chain::Chase(8),
            mode: DispatchMode::DriverHook,
            fabric: false,
            bound: 0.01,
        },
        Loop {
            name: "local driver-hook btree",
            chain: Chain::Btree(4),
            mode: DispatchMode::DriverHook,
            fabric: false,
            bound: 0.01,
        },
        Loop {
            name: "fabric pushdown chase",
            chain: Chain::Chase(8),
            mode: DispatchMode::DriverHook,
            fabric: true,
            bound: 0.01,
        },
        Loop {
            name: "local user single read",
            chain: Chain::Chase(1),
            mode: DispatchMode::User,
            fabric: false,
            bound: 1.5,
        },
        Loop {
            name: "fabric remote single read",
            chain: Chain::Chase(1),
            mode: DispatchMode::Remote,
            fabric: true,
            bound: 1.5,
        },
    ];
    for l in &loops {
        let (a1, i1) = measure(l, T);
        let (a2, i2) = measure(l, 2 * T);
        assert!(
            i1 >= 500 && i2 >= 2 * i1 - 64,
            "{}: {i1} then {i2} I/Os",
            l.name
        );
        let per_io = (a2 as f64 - a1 as f64) / (i2 - i1) as f64;
        println!(
            "{}: {a1} allocs / {i1} ios to T, {a2} / {i2} to 2T: {per_io:.3} per I/O",
            l.name
        );
        assert!(
            per_io <= l.bound,
            "{}: {per_io:.3} allocations per steady-state I/O (bound {}): \
             {a1} allocs / {i1} ios to T, {a2} / {i2} to 2T",
            l.name,
            l.bound
        );
        // No per-process hash key on the path: a repeat counts the same.
        assert_eq!(measure(l, T), (a1, i1), "{}: repeat run", l.name);
    }
}

/// Updates and inserts only: every chain is a log append.
const APPENDS: OpMix = OpMix {
    read: 0,
    update: 80,
    insert: 20,
    scan: 0,
};

/// `mix` over a 600-entry table (512 B records, fsync every 8th write
/// unless overridden).
fn ycsb(mix: OpMix) -> YcsbMix {
    YcsbMix::new(support::kv_entries(600), mix, 7)
}

/// One write loop: a name, the store pages a write chain's record
/// fills (non-zero sectors written / 1024: each is an 8-byte key and
/// zeroes, kept in an 8 B slot), and the run from scratch to
/// `until` that returns `(allocations during the run, write chains
/// completed)`.
struct WriteLoop {
    name: &'static str,
    pages_per_chain: f64,
    run: fn(u64) -> (u64, u64),
}

/// Builds a session, runs it, and returns `(allocations during the run
/// that are the write path's to answer for, write chains completed)`.
/// A get that hits costs one allocation of its own — `Sst::decode`
/// returns the value owned — so hits are taken off the count.
fn measure_writes<S>(
    build: impl FnOnce() -> S,
    run: impl FnOnce(&mut S) -> Vec<SessionStats>,
) -> (u64, u64) {
    let mut s = build();
    let before = ALLOCS.with(Cell::get);
    let stats = run(&mut s);
    let allocs = ALLOCS.with(Cell::get) - before;
    let sum = |f: fn(&SessionStats) -> u64| stats.iter().map(f).sum::<u64>();
    assert_eq!((sum(|s| s.errors), sum(|s| s.mismatches)), (0, 0));
    (allocs - sum(|s| s.hits), sum(|s| s.writes))
}

fn sync_appends(until: u64) -> (u64, u64) {
    measure_writes(
        || {
            PushdownSession::builder(ycsb(APPENDS).fsync_every(8))
                .dispatch(DispatchMode::User)
                .build()
                .expect("session")
        },
        |s| vec![s.run_closed_loop(4, until).1],
    )
}

fn uring_mix(until: u64) -> (u64, u64) {
    measure_writes(
        || {
            PushdownSession::builder(ycsb(OpMix::paper_tokudb()))
                .dispatch(DispatchMode::DriverHook)
                .queue_depth(64)
                .commit_policy(CommitPolicy::PerFsync)
                .build()
                .expect("session")
        },
        |s| vec![s.run_uring(2, 16, until).1],
    )
}

fn tenant_storm(until: u64) -> (u64, u64) {
    measure_writes(
        || {
            let mut g = TenantGroup::builder()
                .queue_depth(16)
                .commit_policy(CommitPolicy::Group {
                    max_wait_us: 20,
                    max_handles: 16,
                })
                .build();
            for _ in 0..2 {
                let storm = ycsb(APPENDS).write_size(4096).fsync_every(4);
                g.add_tenant(storm, TenantLimits::default())
                    .expect("tenant");
            }
            g
        },
        |g| {
            g.run_closed_loop(&[3, 3], until);
            vec![g.stats(0), g.stats(1)]
        },
    )
}

fn fabric_pushdown_appends(until: u64) -> (u64, u64) {
    measure_writes(
        || {
            PushdownSession::builder(ycsb(APPENDS))
                .dispatch(DispatchMode::DriverHook)
                .fabric(FabricConfig::symmetric(20_000, 4_000))
                .build()
                .expect("session")
        },
        |s| vec![s.run_closed_loop(4, until).1],
    )
}

#[test]
fn steady_state_write_path_allocates_only_what_the_data_costs() {
    const T: u64 = 20 * MILLISECOND;
    // Per write chain: the record (1) and the pages it fills. The
    // slack of 0.01 is for the journal's and the tables' amortised
    // doublings; one stray vector per chain — a plan, a command list —
    // reads 1.0 over and trips it. The mix's read chains run the SST
    // hook, which allocates nothing before `decode`.
    let loops = [
        WriteLoop {
            name: "local sync 512 B appends, fsync every 8th",
            pages_per_chain: 1.0 / 1024.0,
            run: sync_appends,
        },
        WriteLoop {
            name: "uring batch-16 40r/40u/20i, per-fsync commit",
            pages_per_chain: 1.0 / 1024.0,
            run: uring_mix,
        },
        WriteLoop {
            name: "two-tenant 4 KiB storm, group commit",
            // An 8-byte key and zeroes: one non-zero sector of eight.
            pages_per_chain: 1.0 / 1024.0,
            run: tenant_storm,
        },
        WriteLoop {
            name: "fabric write pushdown",
            pages_per_chain: 1.0 / 1024.0,
            run: fabric_pushdown_appends,
        },
    ];
    for l in &loops {
        let (a1, w1) = (l.run)(T);
        let (a2, w2) = (l.run)(2 * T);
        assert!(
            w1 >= 200 && w2 >= 2 * w1 - 64,
            "{}: {w1} then {w2} write chains",
            l.name
        );
        let per_chain = (a2 as f64 - a1 as f64) / (w2 - w1) as f64;
        let bound = 1.0 + l.pages_per_chain + 0.01;
        println!(
            "{}: {a1} allocs / {w1} write chains to T, {a2} / {w2} to 2T: \
             {per_chain:.4} per write chain (bound {bound:.4})",
            l.name
        );
        assert!(
            per_chain <= bound,
            "{}: {per_chain:.4} allocations per steady-state write chain (bound {bound:.4}): \
             {a1} allocs / {w1} chains to T, {a2} / {w2} to 2T",
            l.name
        );
        assert_eq!((l.run)(T), (a1, w1), "{}: repeat run", l.name);
    }
}

#[test]
fn a_long_journaled_write_world_keeps_only_what_recovery_needs() {
    // Commits checkpoint the journal's committed prefix into the
    // recovery image, so however long a write world runs, the journal
    // retains fewer than `CHECKPOINT_RECORDS` committed records beside
    // the ones still outstanding (an append-only log held every record
    // since mkfs: 59 % of `ycsb_write_mix`'s peak). The whole world,
    // session build included, peaks at 347 290 B with a 256-record
    // trigger, run leaves in the store's index, latency histograms
    // that hold only the octaves they saw and a recovery image that
    // keeps no block bitmap of its own; the bound adds 4 KiB. An image
    // with its own bitmap cannot fit under it (351 546 B), nor can the
    // 16 384-slot `Vec` (0.66 MB) an 8192-record trigger grows (that
    // world peaked at 1 155 610 B), nor a 4 B index entry per stored
    // sector (512 794 B), nor 8 KiB histograms (430 970 B).
    let (s, _, peak) = heap_use(|| {
        let mut s = PushdownSession::builder(ycsb(APPENDS).fsync_every(8))
            .dispatch(DispatchMode::User)
            .build()
            .expect("session");
        s.run_closed_loop(4, 40 * MILLISECOND);
        s
    });
    let j = s.machine().fs().journal();
    let (retained, outstanding) = (j.len() - j.base(), j.len() - j.committed());
    println!(
        "{} records logged, {} checkpointed, {retained} retained, {outstanding} outstanding, \
         {peak} B at peak",
        j.len(),
        j.base()
    );
    assert!(j.base() >= 2 * CHECKPOINT_RECORDS, "{} records", j.len());
    assert!(
        retained < CHECKPOINT_RECORDS + outstanding,
        "{retained} records retained, {outstanding} outstanding"
    );
    assert!(
        peak <= 347_290 + (4 << 10),
        "{peak} B live at peak, bound 347 290 + 4 KiB"
    );
}

/// Runs `f`, returning its result with the heap calls it made and the
/// most bytes it held live at once above what was live before it.
fn heap_use<R>(f: impl FnOnce() -> R) -> (R, u64, usize) {
    let (calls, live) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    PEAK.with(|c| c.set(live));
    let out = f();
    let peak = PEAK.with(Cell::get) - live;
    (out, ALLOCS.with(Cell::get) - calls, peak)
}

#[test]
fn verification_stays_off_the_heap() {
    // The verifier steps one state in place and remembers states only
    // where control flow joins, in small chunks: well under one heap
    // call per ten analysed instructions (a walk that clones and hashes
    // a state per instruction makes about one each: 1 476 and 2 239),
    // and no more bytes held at once than such a walk holds — the third
    // column, measured on it — because a session's peak of live memory
    // can be at install time.
    let programs = [
        ("btree", btree_lookup_program(), 182_978),
        ("sst", sst_get_program(48), 268_923),
        // With map helper calls, whose checks must not allocate either.
        ("btree+stats", btree_lookup_program_with_stats(), 241_465),
    ];
    for (name, prog, old_peak) in programs {
        let (stats, calls, peak) = heap_use(|| verify(&prog).expect("verifies"));
        println!("{name}: {stats:?}, {calls} heap calls, {peak} B at peak");
        assert!(
            calls * 10 < stats.states as u64,
            "{name}: {calls} heap calls for {} analysed instructions",
            stats.states
        );
        assert!(peak <= old_peak, "{name}: {peak} B live at once");
        let again = heap_use(|| verify(&prog).expect("verifies"));
        assert_eq!(again, (stats, calls, peak), "{name}: repeat run");
    }
}

/// Bytes a machine under `cfg` holds once built.
fn footprint(cfg: MachineConfig) -> usize {
    let before = LIVE.with(Cell::get);
    let m = support::machine(cfg);
    let held = LIVE.with(Cell::get) - before;
    drop(m);
    held
}

#[test]
fn a_machine_holds_what_it_uses_not_what_it_declares() {
    // The default machine declares six 4,096-deep queue pairs and a
    // 2 GiB file system. Its rings start at 64 slots and its block
    // bitmap is empty until a block is written; allocated at their
    // declared sizes they would hold 3.5 MB, and ~47 MB at depth 65,536.
    // Its latency histograms hold nothing until they record: it is
    // 49 206 B, and four empty 8 KiB tables made it 81 942 B.
    let held = footprint(MachineConfig::default());
    println!("default machine: {held} B live once built");
    assert!(held <= 64 << 10, "default machine holds {held} B");
    for depth in [64, 4096, 65_536] {
        let mut cfg = MachineConfig::default();
        cfg.profile.queue_depth = depth;
        assert_eq!(footprint(cfg), held, "queue depth {depth}");
    }
    for fs_blocks in [1 << 14, 1 << 22] {
        let cfg = MachineConfig {
            fs_blocks,
            ..MachineConfig::default()
        };
        assert_eq!(footprint(cfg), held, "{fs_blocks} fs blocks");
    }
}

#[test]
fn a_histogram_holds_only_the_octaves_it_saw() {
    // Empty, it holds no heap at all.
    let (h, calls, peak) = heap_use(Histogram::new);
    assert_eq!((calls, peak), (0, 0), "an empty histogram");
    // Values from one octave (1024..2048 ns): its 16 buckets, 128 B.
    let (h, calls, peak) = heap_use(move || {
        let mut h = h;
        for v in [1_024, 1_500, 2_047] {
            h.record(v);
        }
        h
    });
    assert_eq!((calls, peak), (1, 128), "one octave");
    // A warm record inside the held range makes no heap call; one below
    // it widens the range once, to the hull of both octaves.
    let (mut h, calls, _) = heap_use(move || {
        let mut h = h;
        for v in 1_024..2_048 {
            h.record(v);
        }
        h
    });
    assert_eq!(calls, 0, "warm records");
    let (_, calls, _) = heap_use(|| h.record(600));
    assert_eq!(calls, 1, "a record one octave below");
    assert_eq!(h.quantile(0.0), 600);
}
