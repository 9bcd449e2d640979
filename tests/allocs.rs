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
//! one store page per 4096 non-zero sectors that land, when each is
//! zero past its first two bytes, as a record whose 8-byte key is below
//! 65,536 is (the store keeps a sector to its last non-zero half-word;
//! an all-zero sector is a hole and costs a bit of the index). An appended log's sectors take consecutive slots, so
//! each of its 64-LBA index leaves is a run that holds no array of
//! entries. The record is lent, not given: the workload keeps one
//! buffer and the kernel copies it into a payload buffer from the
//! device's pool, which the command hands back once the store holds
//! the bytes. Its plan, its
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
//!
//! Every number this suite measures is a row of `tests/host_exact.csv`
//! (`world,metric,value`, integers only), and each test compares the
//! rows of its worlds with the committed ones exactly: one heap call or
//! one byte more fails tier 1, and so does a committed row that no test
//! produces. The file's `git log -p` is the trajectory of every exact
//! host number. A change that means to move a number recommits its
//! rows: the failure names each row that moved, with its committed and
//! produced values, and prints every row the world produced, to paste
//! over that world's committed rows. The asserts beside the table are
//! the structural facts no recommit may change: a warm hop allocates
//! nothing, verification makes well under one heap call per ten
//! analysed instructions, the journal retains less than one checkpoint
//! trigger of committed records, a machine's footprint does not depend
//! on the depth or size it declares, and a repeat run counts the same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bpfstor::core::{
    btree_lookup_program, btree_lookup_program_with_stats, sst_get_program, Btree, Chase,
    CommitPolicy, DispatchMode, PushdownSession, PushdownWorkload, SessionStats, Sst, TenantGroup,
    TenantLimits, YcsbMix,
};
use bpfstor::fs::CHECKPOINT_RECORDS;
use bpfstor::kernel::{FabricConfig, MachineConfig};
use bpfstor::sim::{Histogram, LatencyDist, MILLISECOND};
use bpfstor::vm::{verify, Program};
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

/// Where the exact host numbers are committed, and what it holds.
const TABLE: &str = "tests/host_exact.csv";
const COMMITTED: &str = include_str!("host_exact.csv");

/// The world a `world,metric,value` row belongs to.
fn world_of(row: &str) -> &str {
    row.rsplitn(3, ',').last().unwrap_or(row)
}

/// What to tell whoever moved a number of `world`: each committed row
/// of it that the produced rows do not reproduce, in order, beside what
/// was produced, and the rows to paste over them. `None` when all agree.
fn difference(committed: &str, world: &str, metrics: &[&str], values: &[u64]) -> Option<String> {
    let want: Vec<&str> = committed.lines().filter(|r| world_of(r) == world).collect();
    let row = |(m, v): (&&str, &u64)| format!("{world},{m},{v}");
    let got: Vec<String> = metrics.iter().zip(values).map(row).collect();
    let moved: Vec<String> = (0..want.len().max(got.len()))
        .filter(|&i| want.get(i).copied() != got.get(i).map(String::as_str))
        .map(|i| {
            let committed = want.get(i).unwrap_or(&"<none>");
            let produced = got.get(i).map_or("<none>", String::as_str);
            format!("{TABLE}: committed {committed}, produced {produced}")
        })
        .collect();
    let paste = got.join("\n");
    (!moved.is_empty()).then(|| {
        format!(
            "{}\nif the numbers were meant to move, name what moved them and \
             recommit {world:?}'s rows as produced:\n{paste}",
            moved.join("\n")
        )
    })
}

/// Checks each world's rows against the committed table, exactly, and
/// panics once, naming every world of the test whose rows moved.
fn check<'a, const N: usize>(worlds: impl IntoIterator<Item = (&'a str, [&'a str; N], [u64; N])>) {
    let moved: Vec<String> = worlds
        .into_iter()
        .filter_map(|(world, metrics, values)| difference(COMMITTED, world, &metrics, &values))
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n\n"));
}

/// The rows of a loop run from scratch to `T` and to `2T`: heap calls
/// during the run and what it completed, device I/Os or write chains.
const HOOK_ROWS: [&str; 4] = ["allocs_to_T", "ios_to_T", "allocs_to_2T", "ios_to_2T"];
const WRITE_ROWS: [&str; 4] = ["allocs_to_T", "writes_to_T", "allocs_to_2T", "writes_to_2T"];
/// A verification's rows: `VerifiedStats`, heap calls and peak bytes.
const VERIFY_ROWS: [&str; 4] = ["states", "max_path", "heap_calls", "peak_bytes"];

/// What a chain reads: a pointer chase of so many hops (the program
/// emits from scratch), a B-tree lookup of that depth (it emits from
/// its stack) or a cold SSTable get that hits (footer, index block,
/// data block: three hops). Either way, one I/O per hop.
enum Chain {
    Chase(u64),
    Btree(u32),
    SstGet,
}

/// One closed loop the path serves: its name, chain shape, dispatch
/// mode, and whether an NVMe-oF fabric sits between the rings and the
/// device.
struct Loop(&'static str, Chain, DispatchMode, bool);

/// The hook loops allocate nothing, per hop or per chain: the `emit`
/// helper hands the kernel a borrow of the program's own memory
/// (scratch for the chase, the stack for the B-tree) and the session
/// decodes the payload in place. The single-read loops end in `Pass`,
/// which lends the read buffer to the driver and takes it back. An SST
/// hit, emitted or walked natively, is copied into an inline `Value`.
const LOOPS: [Loop; 7] = [
    Loop(
        "local driver-hook chase",
        Chain::Chase(8),
        DispatchMode::DriverHook,
        false,
    ),
    Loop(
        "local driver-hook btree",
        Chain::Btree(4),
        DispatchMode::DriverHook,
        false,
    ),
    Loop(
        "fabric pushdown chase",
        Chain::Chase(8),
        DispatchMode::DriverHook,
        true,
    ),
    Loop(
        "local user single read",
        Chain::Chase(1),
        DispatchMode::User,
        false,
    ),
    Loop(
        "fabric remote single read",
        Chain::Chase(1),
        DispatchMode::Remote,
        true,
    ),
    Loop(
        "local driver-hook sst get",
        Chain::SstGet,
        DispatchMode::DriverHook,
        false,
    ),
    Loop(
        "local user sst get",
        Chain::SstGet,
        DispatchMode::User,
        false,
    ),
];

/// Cold gets over a 600-entry table, every one a hit inside the first
/// index block's range (entries from the 328th on take a fourth read).
fn sst_gets() -> Sst {
    let probes = (0..64).map(|i| i * 15).collect();
    Sst::new(support::kv_entries(600), probes).max_chains(u64::MAX)
}

/// Builds the loop's session from scratch, runs it to `until`, and
/// returns `(allocations during the run, device I/Os)`.
fn measure(l: &Loop, until: u64) -> (u64, u64) {
    match l.1 {
        Chain::Chase(hops) => measure_workload(l, Chase::hops(hops), hops, until),
        Chain::Btree(depth) => measure_workload(l, Btree::depth(depth), depth as u64, until),
        Chain::SstGet => measure_workload(l, sst_gets(), 3, until),
    }
}

fn measure_workload<W: PushdownWorkload>(
    l: &Loop,
    workload: W,
    hops: u64,
    until: u64,
) -> (u64, u64) {
    let &Loop(name, _, mode, fabric) = l;
    let mut b = PushdownSession::builder(workload).dispatch(mode);
    if fabric {
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
    assert_eq!((stats.errors, stats.mismatches), (0, 0), "{name}");
    assert_eq!(report.ios, report.chains * hops, "{name}");
    (allocs, report.ios)
}

#[test]
fn steady_state_io_path_does_not_allocate() {
    const T: u64 = 20 * MILLISECOND;
    check(LOOPS.iter().map(|l @ &Loop(name, ..)| {
        let ((a1, i1), (a2, i2)) = (measure(l, T), measure(l, 2 * T));
        assert_eq!(a2, a1, "{name}: warm hops allocate");
        // No per-process hash key on the path: a repeat counts the same.
        assert_eq!(measure(l, T), (a1, i1), "{name}: repeat run");
        (name, HOOK_ROWS, [a1, i1, a2, i2])
    }));
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

/// Builds a session, runs it, and returns `(allocations during the run,
/// write chains completed)`.
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
    (allocs, sum(|s| s.writes))
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

/// A write loop's run from scratch to `until`: `(allocations during
/// the run, write chains completed)`.
type WriteRun = fn(u64) -> (u64, u64);

/// The write loops, by name. Per write chain, each costs only the store
/// pages it fills: one per 4096 non-zero sectors written, each an 8-byte
/// key below 65,536 and zeroes kept in a 2 B slot. The record is the workload's one
/// buffer, lent at each write and copied into a pooled payload buffer.
/// The mix's read chains run the SST hook and allocate nothing.
const WRITE_LOOPS: [(&str, WriteRun); 4] = [
    (
        "local sync 512 B appends with fsync every 8th",
        sync_appends,
    ),
    (
        "uring batch-16 40r/40u/20i with per-fsync commit",
        uring_mix,
    ),
    ("two-tenant 4 KiB storm with group commit", tenant_storm),
    ("fabric write pushdown", fabric_pushdown_appends),
];

#[test]
fn steady_state_write_path_allocates_only_what_the_data_costs() {
    const T: u64 = 20 * MILLISECOND;
    check(WRITE_LOOPS.map(|(name, run)| {
        let ((a1, w1), (a2, w2)) = (run(T), run(2 * T));
        assert_eq!(run(T), (a1, w1), "{name}: repeat run");
        // Store pages only: a heap call per write chain (a record, a
        // payload, a command's image) would make one per chain at least.
        assert!(
            a2 - a1 < w2 - w1,
            "{name}: {} heap calls over {} write chains",
            a2 - a1,
            w2 - w1
        );
        (name, WRITE_ROWS, [a1, w1, a2, w2])
    }));
}

/// The world of the journaled-write test below, and its rows: records
/// logged, checkpointed and retained, and peak bytes.
const JOURNALED: &str = "long journaled write world";
const JOURNAL_ROWS: [&str; 4] = ["logged", "checkpointed", "retained", "peak_bytes"];

#[test]
fn a_long_journaled_write_world_keeps_only_what_recovery_needs() {
    // Commits checkpoint the journal's committed prefix into the
    // recovery image, so however long a write world runs, the journal
    // retains fewer than `CHECKPOINT_RECORDS` committed records beside
    // the ones still outstanding. The table holds the whole world's
    // peak, session build included.
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
    assert!(j.base() >= 2 * CHECKPOINT_RECORDS, "{} records", j.len());
    assert!(
        retained < CHECKPOINT_RECORDS + outstanding,
        "{retained} records retained, {outstanding} outstanding"
    );
    let (logged, checkpointed) = (j.len() as u64, j.base() as u64);
    let rows = [logged, checkpointed, logged - checkpointed, peak];
    check([(JOURNALED, JOURNAL_ROWS, rows)]);
}

/// Runs `f`, returning its result with the heap calls it made and the
/// most bytes it held live at once above what was live before it.
fn heap_use<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, live) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    PEAK.with(|c| c.set(live));
    let out = f();
    let peak = PEAK.with(Cell::get) - live;
    (out, ALLOCS.with(Cell::get) - calls, peak as u64)
}

/// Builds a program to verify.
type Build = fn() -> Program;

/// The verified programs, the last with map helper calls, whose
/// checks must not allocate either.
const PROGRAMS: [(&str, Build); 3] = [
    ("verify btree", btree_lookup_program),
    ("verify sst", || sst_get_program(48)),
    ("verify btree+stats", btree_lookup_program_with_stats),
];

#[test]
fn verification_stays_off_the_heap() {
    // The verifier steps one state in place and remembers states only
    // where control flow joins, in small chunks: well under one heap
    // call per ten analysed instructions (a walk that clones and hashes
    // a state per instruction makes about one each), and a transient
    // peak the table holds, because a session's peak of live memory can
    // be at install time.
    check(PROGRAMS.map(|(name, program)| {
        let prog = program();
        let (stats, calls, peak) = heap_use(|| verify(&prog).expect("verifies"));
        let (states, max_path) = (stats.states as u64, stats.max_path as u64);
        assert!(calls * 10 < states, "{name}: {calls} calls, {states}");
        let again = heap_use(|| verify(&prog).expect("verifies"));
        assert_eq!(again, (stats, calls, peak), "{name}: repeat run");
        (name, VERIFY_ROWS, [states, max_path, calls, peak])
    }));
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
    // Its latency histograms hold nothing until they record.
    let held = footprint(MachineConfig::default());
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
    check([(MACHINE, ["bytes_held"], [held as u64])]);
}

/// The world of the footprint test above.
const MACHINE: &str = "default machine";

#[test]
fn every_committed_row_belongs_to_a_measured_world() {
    let mut worlds = vec![JOURNALED, MACHINE];
    worlds.extend(LOOPS.map(|l| l.0));
    worlds.extend(WRITE_LOOPS.map(|l| l.0));
    worlds.extend(PROGRAMS.map(|p| p.0));
    let mut rows = COMMITTED.lines();
    assert_eq!(rows.next(), Some("world,metric,value"), "{TABLE}'s header");
    let orphans: Vec<&str> = rows.filter(|r| !worlds.contains(&world_of(r))).collect();
    assert!(orphans.is_empty(), "no test produces {orphans:?}");
}

#[test]
fn a_moved_number_is_reported_with_its_row_and_the_rows_to_recommit() {
    let committed = "world,metric,value\nw,calls,3\nw,bytes,128\nww,calls,9\n";
    let report = |world, values: &[u64]| {
        difference(committed, world, &["calls", "bytes"], values).unwrap_or_default()
    };
    assert_eq!(report("w", &[3, 128]), "");
    let moved = "tests/host_exact.csv: committed w,bytes,128, produced w,bytes,136\n\
                 if the numbers were meant to move, name what moved them and recommit \
                 \"w\"'s rows as produced:\nw,calls,3\nw,bytes,136";
    assert_eq!(report("w", &[3, 136]), moved);
    // A row only one side has reads `<none>` on the other.
    assert!(report("w", &[3])
        .starts_with("tests/host_exact.csv: committed w,bytes,128, produced <none>\n"));
    assert!(report("ww", &[9, 1])
        .starts_with("tests/host_exact.csv: committed <none>, produced ww,bytes,1\n"));
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
