//! Host micro-timings of each layer's public functions, called from
//! outside the crate that owns them.
//!
//! Every figure is the minimum over several batches, each long enough
//! for the clock's resolution not to matter, with inputs and results
//! passed through `black_box`. They exist to explain a move in
//! `host_ios_per_s` or `setup_s` — `README.md` says which metric each one
//! should move, on which workload — and carry no regression bound of
//! their own.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bpfstor_btree::tree::{build_pages, shape_for_depth, step_on_page};
use bpfstor_core::{
    btree_lookup_program, pointer_chase_program, Btree, Chase, DispatchMode, ExecEngine,
    MachineConfig, PushdownSession, PushdownWorkload, Sst,
};
use bpfstor_device::{
    DeviceProfile, FabricConfig, FabricTransport, LocalTransport, NvmeCommand, NvmeDevice, NvmeOp,
    Ring, SectorStore, SubmitClass, Transport, SECTOR_SIZE,
};
use bpfstor_fs::{ExtFs, Extent, ExtentTree, Journal, JournalRecord, PageCache};
use bpfstor_kernel::{
    ChainDriver, ChainOutcome, ChainSpec, ChainStart, ChainVerdict, ExtentCache, Fd, Machine,
};
use bpfstor_lsm::sstable::data_block_search;
use bpfstor_lsm::Bloom;
use bpfstor_sim::{Cores, EventQueue, Histogram, Nanos, SimRng};
use bpfstor_vm::{
    compile, verify, CompiledProg, ExecEnv, MapSet, Program, RunCtx, Vm, SCRATCH_SIZE,
};
use bpfstor_workload::{KeyDist, OpMix, YcsbGen, ZipfState};

use crate::alloc;
use crate::workloads::ycsb_table;

/// Batches timed per figure, after calibration.
const BATCHES: usize = 7;

/// Times batches of `batch` length and keeps the fastest.
pub struct Timer {
    batch: Duration,
}

impl Timer {
    pub fn new(batch: Duration) -> Self {
        Timer { batch }
    }

    /// Nanoseconds per operation. `run(n)` performs about `n` iterations
    /// and returns the time they took and the operations they amounted
    /// to; `max_iters` caps `n` for operations that grow their state.
    fn per_op(&self, max_iters: u64, mut run: impl FnMut(u64) -> (Duration, u64)) -> f64 {
        let mut n = 1u64;
        let mut best = f64::INFINITY;
        // Calibrate: grow `n` until one batch lasts about `self.batch`.
        loop {
            let (elapsed, ops) = run(n);
            if elapsed * 2 >= self.batch || n >= max_iters {
                best = best.min(elapsed.as_nanos() as f64 / ops.max(1) as f64);
                break;
            }
            let scale = if elapsed.is_zero() {
                100.0
            } else {
                (self.batch.as_secs_f64() / elapsed.as_secs_f64()).clamp(2.0, 100.0)
            };
            n = ((n as f64 * scale) as u64).clamp(n + 1, max_iters);
        }
        for _ in 0..BATCHES {
            let (elapsed, ops) = run(n);
            best = best.min(elapsed.as_nanos() as f64 / ops.max(1) as f64);
        }
        best
    }

    /// Nanoseconds per call of `f`.
    fn per_call(&self, mut f: impl FnMut()) -> f64 {
        self.per_op(u64::MAX, |n| {
            let start = Instant::now();
            for _ in 0..n {
                f();
            }
            (start.elapsed(), n)
        })
    }
}

// --- vm ------------------------------------------------------------------

/// The side effects a chain needs from a hook: where to resubmit.
#[derive(Default)]
struct ChainEnv {
    next: Option<u64>,
    emitted: usize,
}

impl ExecEnv for ChainEnv {
    fn resubmit(&mut self, file_off: u64) -> i64 {
        self.next = Some(file_off);
        0
    }

    fn emit(&mut self, data: &[u8]) -> i64 {
        self.emitted += data.len();
        data.len() as i64
    }
}

enum Engine<'a> {
    Interp(&'a Program),
    Compiled(&'a CompiledProg),
}

/// A file image with the program that walks it.
struct Walk {
    image: Vec<u8>,
    first_off: u64,
    block: usize,
    program: Program,
    maps: MapSet,
    /// Arguments (lookup keys) to walk with, cycled.
    args: Vec<u64>,
}

impl Walk {
    fn new<W: PushdownWorkload>(
        mut workload: W,
        first: impl Fn(&W) -> (u64, usize),
        args: Vec<u64>,
    ) -> Walk {
        let image = workload.build_image().expect("image builds");
        let (first_off, block) = first(&workload);
        let program = workload.program();
        verify(&program).expect("in-tree programs verify");
        Walk {
            image,
            first_off,
            block,
            maps: MapSet::instantiate(&program.maps).expect("maps instantiate"),
            program,
            args,
        }
    }

    /// Runs one whole chain the way the kernel's hook does — scratch
    /// seeded with the argument, each hop over the block the previous one
    /// resubmitted to — returning `(hops, instructions retired)`.
    fn chain(&mut self, engine: &Engine<'_>, arg: u64) -> (u64, u64) {
        let mut scratch = [0u8; SCRATCH_SIZE];
        scratch[..8].copy_from_slice(&arg.to_le_bytes());
        let mut off = self.first_off;
        let (mut hops, mut insns) = (0u64, 0u64);
        loop {
            let at = off as usize;
            let mut env = ChainEnv::default();
            let ctx = RunCtx {
                data: black_box(&self.image[at..at + self.block]),
                file_off: off,
                hop: hops as u32,
                flags: 0,
                scratch: &mut scratch,
            };
            let out = match engine {
                Engine::Interp(p) => Vm::new().run(p, ctx, &mut self.maps, &mut env),
                Engine::Compiled(c) => c.run(ctx, &mut self.maps, &mut env),
            }
            .expect("verified programs do not trap");
            hops += 1;
            insns += out.insns;
            black_box(env.emitted);
            match env.next {
                Some(next) => off = next,
                None => return (hops, insns),
            }
        }
    }

    /// `(hops, instructions)` of walking every argument once.
    fn walk_all(&mut self, engine: &Engine<'_>) -> (u64, u64) {
        let args = self.args.clone();
        args.iter().fold((0, 0), |(hops, insns), &arg| {
            let (h, i) = self.chain(engine, arg);
            (hops + h, insns + i)
        })
    }

    /// Nanoseconds per hop on `engine`.
    fn time(&mut self, timer: &Timer, engine: &Engine<'_>) -> f64 {
        timer.per_op(u64::MAX, |n| {
            let start = Instant::now();
            let mut hops = 0;
            for _ in 0..n {
                hops += self.walk_all(engine).0;
            }
            (start.elapsed(), hops)
        })
    }

    /// Pushes `[interp ns/hop, compiled ns/hop, instructions/hop]` under
    /// `names`.
    fn report(
        &mut self,
        timer: &Timer,
        names: [&'static str; 3],
        out: &mut Vec<(&'static str, f64)>,
    ) {
        let program = self.program.clone();
        let compiled = compile(&program).expect("verified programs compile");
        let (hops, insns) = self.walk_all(&Engine::Interp(&program));
        assert_eq!(
            self.walk_all(&Engine::Compiled(&compiled)),
            (hops, insns),
            "engines retire the same instructions"
        );
        let interp_ns = self.time(timer, &Engine::Interp(&program));
        let compiled_ns = self.time(timer, &Engine::Compiled(&compiled));
        out.extend(
            names
                .into_iter()
                .zip([interp_ns, compiled_ns, insns as f64 / hops as f64]),
        );
    }
}

fn vm(timer: &Timer, out: &mut Vec<(&'static str, f64)>) {
    let btree_prog = btree_lookup_program();
    let sst_prog = Sst::new(ycsb_table(), Vec::new()).program();
    out.push((
        "vm.verify_btree_us",
        timer.per_call(|| {
            black_box(verify(black_box(&btree_prog)).expect("verifies"));
        }) / 1e3,
    ));
    out.push((
        "vm.verify_sst_us",
        timer.per_call(|| {
            black_box(verify(black_box(&sst_prog)).expect("verifies"));
        }) / 1e3,
    ));
    out.push((
        "vm.compile_btree_us",
        timer.per_call(|| {
            black_box(compile(black_box(&btree_prog)).expect("compiles"));
        }) / 1e3,
    ));

    // The tree `btree_read` walks.
    let nkeys = Btree::depth(6).nkeys();
    Walk::new(
        Btree::depth(6),
        |w| (w.root_off(), bpfstor_btree::PAGE_SIZE),
        (0..64).map(|i| i * 7919 % nkeys).collect(),
    )
    .report(
        timer,
        [
            "vm.interp_btree_hop_ns",
            "vm.compiled_btree_hop_ns",
            "vm.btree_insns_per_hop",
        ],
        out,
    );
    // The table `ycsb_write_mix` reads.
    Walk::new(
        Sst::new(ycsb_table(), Vec::new()),
        |w| (w.footer_off(), bpfstor_lsm::BLOCK),
        (0..64).map(|i| i * 7919 % 600 * 3).collect(),
    )
    .report(
        timer,
        [
            "vm.interp_sst_hop_ns",
            "vm.compiled_sst_hop_ns",
            "vm.sst_insns_per_hop",
        ],
        out,
    );
    // The chain `fabric_chase` follows.
    Walk::new(Chase::hops(8), |_| (0, bpfstor_lsm::BLOCK), vec![0]).report(
        timer,
        [
            "vm.interp_chase_hop_ns",
            "vm.compiled_chase_hop_ns",
            "vm.chase_insns_per_hop",
        ],
        out,
    );
}

// --- sim -----------------------------------------------------------------

fn sim(timer: &Timer, out: &mut Vec<(&'static str, f64)>) {
    // 64 resident events, each push within 10 us of `now`: the shape the
    // machine's queue has in a closed loop.
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut lcg = 1u64;
    let mut step = move || {
        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        lcg >> 33
    };
    for _ in 0..64 {
        q.push(step() % 10_000, 0);
    }
    out.push((
        "sim.event_push_pop_ns",
        timer.per_call(|| {
            let (now, payload) = q.pop().expect("resident events");
            q.push(now + step() % 10_000, black_box(payload));
        }),
    ));

    let mut cores = Cores::new(6);
    let mut now: Nanos = 0;
    out.push((
        "sim.cores_run_ns",
        timer.per_call(|| {
            now += 97;
            black_box(cores.run(black_box(now), None, 500));
        }),
    ));

    let mut h = Histogram::new();
    let mut v = 1u64;
    out.push((
        "sim.histogram_record_ns",
        timer.per_call(|| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            h.record(black_box(v >> 40));
        }),
    ));

    let mut rng = SimRng::seed(1);
    out.push((
        "sim.rng_next_ns",
        timer.per_call(|| {
            black_box(rng.next());
        }),
    ));
}

// --- device --------------------------------------------------------------

/// Sectors resident in the store / blocks allocated in the file system
/// while their per-operation costs are timed — the sizes the write
/// workloads reach.
const RESIDENT: u64 = 200_000;

fn read_cmd(cid: u64) -> NvmeCommand {
    NvmeCommand {
        cid,
        op: NvmeOp::Read {
            slba: cid % 1024,
            nlb: 1,
        },
    }
}

fn device(timer: &Timer, out: &mut Vec<(&'static str, f64)>) {
    let mut ring: Ring<u64> = Ring::new(64);
    for i in 0..32 {
        ring.push(i).expect("half full");
    }
    out.push((
        "device.ring_push_pop_ns",
        timer.per_call(|| {
            let v = ring.pop().expect("resident entries");
            ring.push(black_box(v)).expect("room");
        }),
    ));

    let nvme = || NvmeDevice::new(DeviceProfile::optane_gen2_p5800x(), 1, SimRng::seed(7));
    // One 512 B read: submit, doorbell, post, reap.
    let cycle = |t: &mut dyn Transport, class: SubmitClass, now: &mut Nanos, cid: &mut u64| {
        *cid += 1;
        t.submit(0, read_cmd(*cid), class, 0)
            .expect("queue has room");
        let done = t.ring_doorbell(*now, 0).expect("queue exists");
        let at = *done.last().expect("one completion instant");
        t.post_ready(at, 0);
        black_box(t.reap(at, 0, usize::MAX));
        *now = at;
    };
    let mut local = LocalTransport::new(nvme());
    let (mut now, mut cid) = (0, 0);
    out.push((
        "device.local_submit_reap_ns",
        timer.per_call(|| cycle(&mut local, SubmitClass::Host, &mut now, &mut cid)),
    ));
    // The pushdown shape: the command capsule crosses out, the terminal
    // response capsule crosses back.
    let mut fabric = FabricTransport::new(
        nvme(),
        FabricConfig::symmetric(20_000, 4_000),
        SimRng::seed(8),
    );
    let (mut now, mut cid) = (0, 0);
    out.push((
        "device.fabric_submit_reap_ns",
        timer.per_call(|| {
            cycle(&mut fabric, SubmitClass::PushdownStart, &mut now, &mut cid);
            let (arrival, _wire) = fabric.response_capsule(now, 0).expect("a fabric");
            now = arrival;
        }),
    ));

    let before = alloc::snapshot().live;
    let mut store = SectorStore::new();
    let sector = [0xA5u8; SECTOR_SIZE];
    for slba in 0..RESIDENT {
        store.write(slba, &sector);
    }
    let bytes = alloc::snapshot().live.saturating_sub(before);
    out.push((
        "device.store_bytes_per_sector",
        bytes as f64 / RESIDENT as f64,
    ));
    let mut slba = 0u64;
    out.push((
        "device.store_read_ns",
        timer.per_call(|| {
            slba = (slba + 7919) % RESIDENT;
            black_box(store.read(black_box(slba), 1));
        }),
    ));
    out.push((
        "device.store_write_ns",
        timer.per_call(|| {
            slba = (slba + 7919) % RESIDENT;
            store.write(black_box(slba), &sector);
        }),
    ));
}

// --- fs ------------------------------------------------------------------

fn fs(timer: &Timer, out: &mut Vec<(&'static str, f64)>) {
    let mut tree = ExtentTree::new();
    for i in 0..1000u64 {
        // Physically discontiguous, so neighbours never merge.
        tree.insert(Extent {
            logical: i * 100,
            physical: 1_000_000 + i * 128,
            len: 100,
        });
    }
    let mut lb = 0u64;
    out.push((
        "fs.extent_lookup_ns",
        timer.per_call(|| {
            lb = (lb + 7919) % 100_000;
            black_box(tree.lookup(black_box(lb)));
        }),
    ));

    // A file system with one file of RESIDENT blocks, appended in order.
    let bs = bpfstor_fs::BLOCK_SIZE as u64;
    let mut store = SectorStore::new();
    let mut grown = ExtFs::mkfs(1 << 22);
    let ino = grown.create("log").expect("fresh name");
    grown
        .plan_write(ino, 0, (RESIDENT * bs) as usize, &mut store)
        .expect("room for the resident blocks");
    grown.commit_journal();
    const APPEND_BLOCKS: u64 = 8;
    let append = |fs: &mut ExtFs, store: &mut SectorStore, slot: u64| {
        let off = (RESIDENT + slot * APPEND_BLOCKS) * bs;
        black_box(
            fs.plan_write(ino, off, (APPEND_BLOCKS * bs) as usize, store)
                .expect("room"),
        );
    };
    // Appends grow the file: a fresh clone per batch keeps every batch
    // at RESIDENT blocks, and the cap keeps a batch well inside the disk.
    // The clone's vectors are exactly full, so one untimed append first
    // lets them regrow outside the timed region.
    let max_appends = 2_000;
    out.push((
        "fs.plan_write_seq_ns",
        timer.per_op(max_appends, |n| {
            let mut fs = grown.clone();
            append(&mut fs, &mut store, 0);
            let start = Instant::now();
            for i in 1..=n {
                append(&mut fs, &mut store, i);
            }
            (start.elapsed(), n * APPEND_BLOCKS)
        }),
    ));
    // Six writers whose appends reach the file system pairwise swapped,
    // as concurrent threads' submissions do: the later offset of each
    // pair is planned first, finds no mapped predecessor, and the
    // allocator falls back to scanning for the first free block.
    out.push((
        "fs.plan_write_ooo_ns",
        timer.per_op(max_appends / 6, |n| {
            let mut fs = grown.clone();
            append(&mut fs, &mut store, 0);
            let start = Instant::now();
            for i in 0..n {
                for slot in [2u64, 1, 4, 3, 6, 5] {
                    append(&mut fs, &mut store, i * 6 + slot);
                }
            }
            (start.elapsed(), n * 6 * APPEND_BLOCKS)
        }),
    ));

    // One writer's transaction: join, two records, commit. The journal
    // keeps every record, so each batch starts a new one.
    let extent = Extent {
        logical: 1,
        physical: 2,
        len: 1,
    };
    out.push((
        "fs.journal_commit_ns",
        timer.per_op(200_000, |n| {
            let mut journal = Journal::new();
            let start = Instant::now();
            for i in 0..n {
                journal.join_running();
                journal.log(JournalRecord::MapExtent { ino: 1, extent });
                journal.log(JournalRecord::SetSize { ino: 1, size: i });
                black_box(journal.commit());
            }
            (start.elapsed(), n)
        }),
    ));

    let mut cache = PageCache::new(4096, bpfstor_fs::BLOCK_SIZE);
    let block = [7u8; bpfstor_fs::BLOCK_SIZE];
    for b in 0..4096u64 {
        cache.insert((1, b), &block);
    }
    let mut b = 0u64;
    out.push((
        "fs.pagecache_get_ns",
        timer.per_call(|| {
            b = (b + 1031) % 4096;
            black_box(cache.get(black_box((1, b))));
        }),
    ));
}

// --- kernel --------------------------------------------------------------

/// A native driver: random single-block reads, or a chase from block 0
/// when a hook walks the chain. No vm in user mode, no workload crate.
struct NativeReads {
    fd: Fd,
    mode: DispatchMode,
    blocks: u64,
    remaining: u64,
}

impl ChainDriver for NativeReads {
    fn mode(&self) -> DispatchMode {
        self.mode
    }

    fn next_op(&mut self, _thread: usize, rng: &mut SimRng) -> Option<ChainSpec> {
        self.remaining = self.remaining.checked_sub(1)?;
        let block = match self.mode {
            DispatchMode::DriverHook => 0,
            _ => rng.below(self.blocks),
        };
        Some(ChainSpec::Read(ChainStart {
            fd: self.fd,
            file_off: block * SECTOR_SIZE as u64,
            len: SECTOR_SIZE as u32,
            arg: 0,
        }))
    }

    fn chain_done(&mut self, _thread: usize, outcome: &ChainOutcome) -> ChainVerdict {
        assert!(
            outcome.status.is_ok(),
            "native chain failed: {:?}",
            outcome.status
        );
        ChainVerdict::Done
    }
}

fn machine_with(image: &[u8]) -> (Machine, Fd) {
    let mut machine = Machine::new(MachineConfig {
        seed: 11,
        exec_engine: ExecEngine::Interp,
        ..MachineConfig::default()
    });
    machine.create_file("data.bin", image).expect("fresh name");
    let fd = machine.open("data.bin", true).expect("file exists");
    (machine, fd)
}

fn machine_ns_per_io(
    timer: &Timer,
    machine: &mut Machine,
    fd: Fd,
    mode: DispatchMode,
    blocks: u64,
) -> f64 {
    timer.per_op(u64::MAX, |n| {
        let mut driver = NativeReads {
            fd,
            mode,
            blocks,
            remaining: n,
        };
        let start = Instant::now();
        let report = machine.run_closed_loop(1, Nanos::MAX / 4, &mut driver);
        (start.elapsed(), report.ios)
    })
}

fn kernel(timer: &Timer, out: &mut Vec<(&'static str, f64)>) {
    let mut cache = ExtentCache::new();
    let extents: Vec<Extent> = (0..64)
        .map(|i| Extent {
            logical: i * 100,
            physical: 10_000 + i * 128,
            len: 100,
        })
        .collect();
    cache.install(7, extents, 0);
    let mut lb = 0u64;
    out.push((
        "kernel.extcache_lookup_ns",
        timer.per_call(|| {
            lb = (lb + 997) % 6_400;
            black_box(cache.lookup(7, black_box(lb)));
        }),
    ));

    let mut rng = SimRng::seed(5);
    let data: Vec<u8> = (0..4096 * SECTOR_SIZE).map(|_| rng.next() as u8).collect();
    let (mut machine, fd) = machine_with(&data);
    out.push((
        "kernel.machine_user_ns_per_io",
        machine_ns_per_io(timer, &mut machine, fd, DispatchMode::User, 4096),
    ));

    let chain = Chase::hops(8).build_image().expect("image builds");
    let (mut machine, fd) = machine_with(&chain);
    machine
        .install(fd, pointer_chase_program(), 0)
        .expect("chase program installs");
    out.push((
        "kernel.machine_hook_ns_per_io",
        machine_ns_per_io(timer, &mut machine, fd, DispatchMode::DriverHook, 8),
    ));

    // Every install adds a program slot; a fresh machine per batch keeps
    // the table small.
    let program = btree_lookup_program();
    out.push((
        "kernel.install_us",
        timer.per_op(1_000, |n| {
            let (mut machine, fd) = machine_with(&chain);
            let start = Instant::now();
            for _ in 0..n {
                black_box(machine.install(fd, program.clone(), 0).expect("installs"));
            }
            (start.elapsed(), n)
        }) / 1e3,
    ));
}

// --- btree, lsm, workload, core -----------------------------------------

fn structures(timer: &Timer, out: &mut Vec<(&'static str, f64)>) {
    let (fanout, nkeys) = shape_for_depth(3);
    let keys: Vec<u64> = (0..nkeys as u64).collect();
    let (pages, info) = build_pages(&keys, &keys, fanout).expect("tree builds");
    let root = pages[info.root_block as usize];
    let mut key = 0u64;
    out.push((
        "btree.native_step_ns",
        timer.per_call(|| {
            key = (key + 7919) % nkeys as u64;
            black_box(step_on_page(black_box(&root), black_box(key)).expect("a node"));
        }),
    ));
    out.push((
        "btree.build_us_per_kkeys",
        timer.per_call(|| {
            black_box(build_pages(black_box(&keys), &keys, fanout).expect("tree builds"));
        }) / 1e3
            / (nkeys as f64 / 1e3),
    ));

    let entries = ycsb_table();
    let image = bpfstor_lsm::build_image(&entries).expect("table builds");
    let block = &image[..bpfstor_lsm::BLOCK];
    let mut i = 0u64;
    out.push((
        "lsm.block_search_ns",
        timer.per_call(|| {
            // Keys of the first data block (7 entries of 58 bytes).
            i = (i + 1) % 7;
            black_box(data_block_search(black_box(block), black_box(i * 3)).expect("a data block"));
        }),
    ));
    let mut bloom = Bloom::new(10_000, 10);
    for k in 0..10_000u64 {
        bloom.insert(k * 3);
    }
    let mut k = 0u64;
    out.push((
        "lsm.bloom_check_ns",
        timer.per_call(|| {
            k += 1;
            black_box(bloom.may_contain(black_box(k)));
        }),
    ));
    out.push((
        "lsm.build_image_us",
        timer.per_call(|| {
            black_box(bpfstor_lsm::build_image(black_box(&entries)).expect("table builds"));
        }) / 1e3,
    ));

    // Inserts grow the keyspace; a fresh generator per batch keeps it
    // near its starting size.
    out.push((
        "workload.ycsb_next_op_ns",
        timer.per_op(1_000_000, |n| {
            let mut gen = YcsbGen::new(OpMix::paper_tokudb(), KeyDist::zipfian(600, 0.7), 600, 3);
            let start = Instant::now();
            for _ in 0..n {
                black_box(gen.next_op());
            }
            (start.elapsed(), n)
        }),
    ));
    let mut zipf = ZipfState::new(1_000_000, 0.99);
    let mut rng = SimRng::seed(2);
    out.push((
        "workload.zipf_sample_ns",
        timer.per_call(|| {
            black_box(zipf.sample(&mut rng, 1_000_000));
        }),
    ));

    let mut session = PushdownSession::builder(Btree::depth(3))
        .engine(ExecEngine::Interp)
        .dispatch(DispatchMode::DriverHook)
        .build()
        .expect("session builds");
    let nkeys = session.workload().nkeys();
    let mut key = 0u64;
    out.push((
        "core.lookup_us",
        timer.per_call(|| {
            key = (key + 7919) % nkeys;
            black_box(session.lookup(black_box(key)).expect("key is present"));
        }) / 1e3,
    ));
}

/// The figures [`measure`] returns, in order: `(name, unit)`.
pub const FIGURES: [(&str, &str); 39] = [
    ("sim.event_push_pop_ns", "ns"),
    ("sim.cores_run_ns", "ns"),
    ("sim.histogram_record_ns", "ns"),
    ("sim.rng_next_ns", "ns"),
    ("vm.verify_btree_us", "us"),
    ("vm.verify_sst_us", "us"),
    ("vm.compile_btree_us", "us"),
    ("vm.interp_btree_hop_ns", "ns"),
    ("vm.compiled_btree_hop_ns", "ns"),
    ("vm.btree_insns_per_hop", "count"),
    ("vm.interp_sst_hop_ns", "ns"),
    ("vm.compiled_sst_hop_ns", "ns"),
    ("vm.sst_insns_per_hop", "count"),
    ("vm.interp_chase_hop_ns", "ns"),
    ("vm.compiled_chase_hop_ns", "ns"),
    ("vm.chase_insns_per_hop", "count"),
    ("device.ring_push_pop_ns", "ns"),
    ("device.local_submit_reap_ns", "ns"),
    ("device.fabric_submit_reap_ns", "ns"),
    ("device.store_bytes_per_sector", "B"),
    ("device.store_read_ns", "ns"),
    ("device.store_write_ns", "ns"),
    ("fs.extent_lookup_ns", "ns"),
    ("fs.plan_write_seq_ns", "ns"),
    ("fs.plan_write_ooo_ns", "ns"),
    ("fs.journal_commit_ns", "ns"),
    ("fs.pagecache_get_ns", "ns"),
    ("kernel.extcache_lookup_ns", "ns"),
    ("kernel.machine_user_ns_per_io", "ns"),
    ("kernel.machine_hook_ns_per_io", "ns"),
    ("kernel.install_us", "us"),
    ("btree.native_step_ns", "ns"),
    ("btree.build_us_per_kkeys", "us"),
    ("lsm.block_search_ns", "ns"),
    ("lsm.bloom_check_ns", "ns"),
    ("lsm.build_image_us", "us"),
    ("workload.ycsb_next_op_ns", "ns"),
    ("workload.zipf_sample_ns", "ns"),
    ("core.lookup_us", "us"),
];

/// Measures every host micro-timing within about `budget`.
pub fn measure(budget: Duration) -> Vec<(&'static str, f64)> {
    // Calibration costs up to two batches on top of the timed ones.
    let timed = FIGURES.len() as u32 * (BATCHES as u32 + 2);
    let timer = Timer::new((budget / timed).max(Duration::from_millis(2)));
    let mut out = Vec::with_capacity(FIGURES.len());
    sim(&timer, &mut out);
    vm(&timer, &mut out);
    device(&timer, &mut out);
    fs(&timer, &mut out);
    kernel(&timer, &mut out);
    structures(&timer, &mut out);
    assert!(
        out.iter()
            .map(|(n, _)| n)
            .eq(FIGURES.iter().map(|(n, _)| n)),
        "every micro-timing is measured, in order"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_reports_time_per_operation() {
        let timer = Timer::new(Duration::from_millis(2));
        let per_op = timer.per_op(u64::MAX, |n| (Duration::from_nanos(50 * n + 1_000_000), n));
        // 1 ms fixed cost amortised over a calibrated batch plus 50 ns each.
        assert!(per_op >= 50.0, "{per_op}");
        let capped = timer.per_op(10, |n| {
            assert!(n <= 10, "the cap holds");
            (Duration::from_nanos(n), n)
        });
        assert_eq!(capped, 1.0);
    }

    #[test]
    fn walks_agree_across_engines_and_count_hops() {
        let mut chase = Walk::new(Chase::hops(8), |_| (0, bpfstor_lsm::BLOCK), vec![0]);
        let program = chase.program.clone();
        let (hops, insns) = chase.chain(&Engine::Interp(&program), 0);
        assert_eq!(hops, 8);
        let compiled = compile(&program).expect("compiles");
        assert_eq!(chase.chain(&Engine::Compiled(&compiled), 0), (hops, insns));

        let mut btree = Walk::new(
            Btree::depth(3),
            |w| (w.root_off(), bpfstor_btree::PAGE_SIZE),
            vec![5],
        );
        let program = btree.program.clone();
        assert_eq!(
            btree.chain(&Engine::Interp(&program), 5).0,
            3,
            "depth-3 tree"
        );
    }
}
