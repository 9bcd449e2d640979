//! Per-layer time accounting (regenerates Table 1).
//!
//! Every nanosecond the machine charges to a CPU or waits on the device
//! is also attributed to a layer bucket here. The `table1` bench divides
//! the buckets by the I/O count to print the paper's breakdown. CPU
//! buckets have one writer, `Machine::charge`; the counters that have a
//! per-tenant twin (`ios`, `write_ios`, `device`) are summed from the
//! tenants when the run's report is built.

use bpfstor_sim::Nanos;

/// The CPU buckets of [`LayerTrace`]: the fields [`LayerTrace::software`]
/// sums. A CPU burst ([`crate::costs`]) is a list of `(Layer, ns)` items,
/// and the machine books each item here as it runs the burst on a core,
/// so the buckets and the cores' busy time cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// [`LayerTrace::crossing`].
    Crossing,
    /// [`LayerTrace::syscall`].
    Syscall,
    /// [`LayerTrace::fs`].
    Fs,
    /// [`LayerTrace::bio`].
    Bio,
    /// [`LayerTrace::drv`].
    Drv,
    /// [`LayerTrace::app`].
    App,
    /// [`LayerTrace::bpf`].
    Bpf,
    /// [`LayerTrace::extent_cache`].
    ExtentCache,
    /// [`LayerTrace::journal`].
    Journal,
    /// [`LayerTrace::fabric`].
    Fabric,
    /// [`LayerTrace::poll`].
    Poll,
}

/// Accumulated nanoseconds per layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTrace {
    /// Kernel boundary crossings (enter + exit).
    pub crossing: Nanos,
    /// Read-syscall / io_uring dispatch layer.
    pub syscall: Nanos,
    /// File system (submission + completion halves).
    pub fs: Nanos,
    /// Block layer.
    pub bio: Nanos,
    /// NVMe driver (including descriptor recycling).
    pub drv: Nanos,
    /// Device service time.
    pub device: Nanos,
    /// Application-level work (reap, parse, reissue).
    pub app: Nanos,
    /// BPF program execution at hooks.
    pub bpf: Nanos,
    /// NVMe-layer extent-cache lookups.
    pub extent_cache: Nanos,
    /// Journal work on the write path: record appends per write
    /// submission plus the commit record built at fsync.
    pub journal: Nanos,
    /// Fabric capsule CPU work (encode/decode on host and target).
    /// Zero on the local transport.
    pub fabric: Nanos,
    /// Fabric wire time (one-way latencies plus fixed target-side
    /// capsule processing) — wait time like [`LayerTrace::device`], not
    /// CPU. Zero on the local transport.
    pub fabric_wire: Nanos,
    /// Completion-poller loop time (polled/hybrid reaping only): CPU
    /// burned visiting CQs, productive or not. The carve against Table
    /// 1's NVMe-driver row: a polled queue pair pays this instead of
    /// the per-interrupt `irq_entry` slice of `drv`.
    pub poll: Nanos,
    /// I/Os sampled.
    pub ios: u64,
    /// Write/flush device commands among them.
    pub write_ios: u64,
    /// Doorbell rings (each may cover a batch of SQEs).
    pub doorbells: u64,
    /// Completion interrupts fired (each may reap several CQEs). Zero
    /// when a queue pair is polled.
    pub irqs: u64,
    /// Poll-loop visits (each may reap several CQEs, or none).
    pub polls: u64,
}

impl LayerTrace {
    /// The bucket CPU time spent in `layer` is booked to.
    pub(crate) fn bucket_mut(&mut self, layer: Layer) -> &mut Nanos {
        match layer {
            Layer::Crossing => &mut self.crossing,
            Layer::Syscall => &mut self.syscall,
            Layer::Fs => &mut self.fs,
            Layer::Bio => &mut self.bio,
            Layer::Drv => &mut self.drv,
            Layer::App => &mut self.app,
            Layer::Bpf => &mut self.bpf,
            Layer::ExtentCache => &mut self.extent_cache,
            Layer::Journal => &mut self.journal,
            Layer::Fabric => &mut self.fabric,
            Layer::Poll => &mut self.poll,
        }
    }

    /// Total software time (everything but the device and the wire).
    pub fn software(&self) -> Nanos {
        self.crossing
            + self.syscall
            + self.fs
            + self.bio
            + self.drv
            + self.app
            + self.bpf
            + self.extent_cache
            + self.journal
            + self.fabric
            + self.poll
    }

    /// Average nanoseconds per I/O for a bucket total.
    pub fn per_io(&self, bucket: Nanos) -> f64 {
        if self.ios == 0 {
            0.0
        } else {
            bucket as f64 / self.ios as f64
        }
    }

    /// Rows of the Table 1 layout: `(label, total ns)`.
    pub fn rows(&self) -> Vec<(&'static str, Nanos)> {
        vec![
            ("kernel crossing", self.crossing),
            ("read syscall", self.syscall),
            ("ext4", self.fs),
            ("bio", self.bio),
            ("NVMe driver", self.drv),
            ("BPF exec", self.bpf),
            ("extent cache", self.extent_cache),
            ("journal", self.journal),
            ("fabric capsule", self.fabric),
            ("poll loop", self.poll),
            ("application", self.app),
            ("storage device", self.device),
            ("fabric wire", self.fabric_wire),
        ]
    }
}

/// Measured host-CPU split of BPF hook execution by engine.
///
/// Unlike every other bucket in this module, these nanoseconds are
/// *real* host CPU sampled from a monotonic clock injected via
/// [`crate::ExecClock`] — they never enter the simulated timeline.
/// The simulated charge for the same hops stays in
/// [`LayerTrace::bpf`], priced from retired instructions, which both
/// engines count identically. With no clock injected the `_ns` fields
/// stay zero and only the hop counters move.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecSplit {
    /// Hook invocations executed by the interpreter.
    pub interp_hops: u64,
    /// Measured host nanoseconds across interpreter hops.
    pub interp_ns: u64,
    /// Hook invocations executed by the compiled engine.
    pub compiled_hops: u64,
    /// Measured host nanoseconds across compiled hops.
    pub compiled_ns: u64,
    /// Always 0: a verified program compiles, so no hop falls back to
    /// the interpreter. Nothing writes the field; it stays until the
    /// benchmark stops reading it (ROADMAP item 1).
    pub fallbacks: u64,
}

impl ExecSplit {
    /// Total hook invocations, either engine.
    pub fn hops(&self) -> u64 {
        self.interp_hops + self.compiled_hops
    }

    /// Folds another split into this one (per-tenant → machine total).
    pub fn absorb(&mut self, other: &ExecSplit) {
        self.interp_hops += other.interp_hops;
        self.interp_ns += other.interp_ns;
        self.compiled_hops += other.compiled_hops;
        self.compiled_ns += other.compiled_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_excludes_device() {
        let t = LayerTrace {
            crossing: 10,
            syscall: 20,
            fs: 30,
            bio: 40,
            drv: 50,
            device: 1000,
            app: 5,
            bpf: 2,
            extent_cache: 1,
            journal: 4,
            fabric: 8,
            fabric_wire: 500,
            poll: 6,
            ios: 1,
            ..LayerTrace::default()
        };
        assert_eq!(t.software(), 176, "wire time is a wait, not software");
    }

    #[test]
    fn every_layer_has_its_own_bucket_and_software_sums_them_all() {
        use Layer::*;
        let layers = [
            Crossing,
            Syscall,
            Fs,
            Bio,
            Drv,
            App,
            Bpf,
            ExtentCache,
            Journal,
            Fabric,
            Poll,
        ];
        let mut t = LayerTrace::default();
        for (i, layer) in layers.into_iter().enumerate() {
            *t.bucket_mut(layer) = 1 << i;
        }
        let buckets = [
            t.crossing,
            t.syscall,
            t.fs,
            t.bio,
            t.drv,
            t.app,
            t.bpf,
            t.extent_cache,
            t.journal,
            t.fabric,
            t.poll,
        ];
        assert_eq!(buckets, std::array::from_fn(|i| 1 << i));
        assert_eq!(t.software(), (1 << layers.len()) - 1);
        assert_eq!((t.device, t.fabric_wire), (0, 0), "waits are not CPU");
    }

    #[test]
    fn per_io_averages() {
        let t = LayerTrace {
            fs: 4000,
            ios: 2,
            ..LayerTrace::default()
        };
        assert!((t.per_io(t.fs) - 2000.0).abs() < 1e-9);
        let empty = LayerTrace::default();
        assert_eq!(empty.per_io(100), 0.0);
    }

    #[test]
    fn rows_cover_all_buckets() {
        let t = LayerTrace::default();
        assert_eq!(t.rows().len(), 13);
    }

    #[test]
    fn exec_split_absorb_sums_each_field() {
        let mut total = ExecSplit::default();
        let a = ExecSplit {
            interp_hops: 4,
            interp_ns: 400,
            compiled_hops: 2,
            compiled_ns: 50,
            ..ExecSplit::default()
        };
        let b = ExecSplit {
            interp_hops: 1,
            interp_ns: 100,
            ..ExecSplit::default()
        };
        total.absorb(&a);
        total.absorb(&b);
        let want = ExecSplit {
            interp_hops: 5,
            interp_ns: 500,
            compiled_hops: 2,
            compiled_ns: 50,
            ..ExecSplit::default()
        };
        assert_eq!(total, want);
        assert_eq!(total.hops(), 7);
    }
}
