//! Spans recorded from the benchmark's own side of each layer boundary.
//!
//! [`Probe`] wraps a [`PushdownWorkload`] and delegates every callback;
//! with a [`Recorder`] attached (the traced round) it times each one.
//! Hook execution inside the machine is timed by the clock the round
//! injects as `MachineConfig::exec_clock`. What is left of the `run` span
//! after workload callbacks and hook execution is the self time of
//! `kernel` + `sim` + `device` + `fs`, which cannot be split from outside
//! the machine.
//!
//! Spans stay in memory; [`Recorder::chrome_trace`] renders them once the
//! round is over.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bpfstor_core::{
    ChainStatus, ChainToken, OpSpec, PushdownWorkload, ReadSpec, SessionError, Verdict,
};
use bpfstor_kernel::UserNext;
use bpfstor_sim::SimRng;
use bpfstor_vm::Program;

use crate::json::Json;

/// Raw spans are kept for callbacks made before this many requests were
/// drawn; later ones only feed the per-kind aggregates.
pub const RAW_CHAINS: u64 = 1000;

/// The workload callbacks, as span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    BuildImage,
    Program,
    NextRequest,
    FirstOp,
    UserStep,
    Decode,
    Check,
    Release,
}

impl Callback {
    const ALL: [Callback; 8] = [
        Callback::BuildImage,
        Callback::Program,
        Callback::NextRequest,
        Callback::FirstOp,
        Callback::UserStep,
        Callback::Decode,
        Callback::Check,
        Callback::Release,
    ];

    fn name(self) -> &'static str {
        match self {
            Callback::BuildImage => "setup.image",
            Callback::Program => "workload.program",
            Callback::NextRequest => "workload.next_request",
            Callback::FirstOp => "workload.first_op",
            Callback::UserStep => "workload.user_step",
            Callback::Decode => "workload.decode",
            Callback::Check => "workload.check",
            Callback::Release => "workload.release",
        }
    }

    /// Set-up callbacks run under `SessionBuilder::build`, the rest
    /// under `run_*`.
    fn in_setup(self) -> bool {
        matches!(self, Callback::BuildImage | Callback::Program)
    }
}

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    dur_ns: u64,
    /// `ChainToken::id` for callbacks that carry a token, the request
    /// sequence number for those that run before one is minted.
    chain: Option<u64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Aggregate {
    count: u64,
    total_ns: u64,
}

#[derive(Debug)]
struct Inner {
    aggregates: [Aggregate; Callback::ALL.len()],
    raw: Vec<Span>,
    phases: Vec<Span>,
    requests: u64,
}

/// In-memory span store for one traced round.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Recorder {
    pub fn new() -> Rc<Recorder> {
        Rc::new(Recorder {
            origin: Instant::now(),
            inner: RefCell::new(Inner {
                aggregates: [Aggregate::default(); Callback::ALL.len()],
                raw: Vec::new(),
                phases: Vec::new(),
                requests: 0,
            }),
        })
    }

    /// Nanoseconds since the recorder was created — also the clock the
    /// traced round hands the machine for hook timing.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The same clock as a free-standing closure, in the shape
    /// `MachineConfig::exec_clock` takes.
    pub fn clock(&self) -> impl Fn() -> u64 + Send + Sync + 'static {
        let origin = self.origin;
        move || origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as the top-level phase span `name`.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let dur_ns = self.now_ns() - start_ns;
        self.inner.borrow_mut().phases.push(Span {
            name,
            parent: None,
            start_ns,
            dur_ns,
            chain: None,
        });
        out
    }

    fn callback<R>(&self, kind: Callback, chain: Option<u64>, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let dur_ns = self.now_ns() - start_ns;
        let mut inner = self.inner.borrow_mut();
        if kind == Callback::NextRequest {
            inner.requests += 1;
        }
        let agg = &mut inner.aggregates[kind as usize];
        agg.count += 1;
        agg.total_ns += dur_ns;
        if inner.requests <= RAW_CHAINS {
            let chain = chain.or(Some(inner.requests));
            inner.raw.push(Span {
                name: kind.name(),
                parent: Some(if kind.in_setup() {
                    "setup.install"
                } else {
                    "run"
                }),
                start_ns,
                dur_ns,
                chain,
            });
        }
        out
    }

    /// Total duration of the phase spans called `name`, in nanoseconds.
    pub fn phase_ns(&self, name: &str) -> u64 {
        let inner = self.inner.borrow();
        inner
            .phases
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Total time inside workload callbacks, split `(set-up, run)`.
    pub fn callback_ns(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        let mut split = (0, 0);
        for kind in Callback::ALL {
            let ns = inner.aggregates[kind as usize].total_ns;
            if kind.in_setup() {
                split.0 += ns;
            } else {
                split.1 += ns;
            }
        }
        split
    }

    /// Time inside `build_image` callbacks, in nanoseconds.
    pub fn build_image_ns(&self) -> u64 {
        self.inner.borrow().aggregates[Callback::BuildImage as usize].total_ns
    }

    /// Renders the Chrome trace (`chrome://tracing`, Perfetto): phase
    /// spans and the first [`RAW_CHAINS`] chains' callbacks on thread 1,
    /// per-kind aggregates — and hook execution, which the machine only
    /// reports as a total — as one span each on thread 2.
    pub fn chrome_trace(&self, workload: &str, hook_hops: u64, hook_ns: u64) -> Json {
        let inner = self.inner.borrow();
        let event = |s: &Span, tid: u64, extra: Vec<(&str, Json)>| {
            let mut args: Vec<(&str, Json)> = Vec::new();
            if let Some(p) = s.parent {
                args.push(("parent", Json::str(p)));
            }
            if let Some(c) = s.chain {
                args.push(("chain", Json::from(c)));
            }
            args.extend(extra);
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(workload)),
                ("ph", Json::str("X")),
                ("ts", Json::from(s.start_ns as f64 / 1e3)),
                ("dur", Json::from(s.dur_ns as f64 / 1e3)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(tid)),
                ("args", Json::obj(args)),
            ])
        };
        let mut events: Vec<Json> = Vec::new();
        for s in inner.phases.iter().chain(&inner.raw) {
            events.push(event(s, 1, Vec::new()));
        }
        let run_start = inner
            .phases
            .iter()
            .find(|s| s.name == "run")
            .map_or(0, |s| s.start_ns);
        let mut at = run_start;
        let mut aggregate = |name: &'static str, parent: &'static str, count: u64, ns: u64| {
            if count == 0 {
                return;
            }
            let span = Span {
                name,
                parent: Some(parent),
                start_ns: at,
                dur_ns: ns,
                chain: None,
            };
            at += ns;
            events.push(event(
                &span,
                2,
                vec![
                    ("count", Json::from(count)),
                    ("aggregate", Json::Bool(true)),
                ],
            ));
        };
        for kind in Callback::ALL {
            let a = inner.aggregates[kind as usize];
            let parent = if kind.in_setup() {
                "setup.install"
            } else {
                "run"
            };
            aggregate(kind.name(), parent, a.count, a.total_ns);
        }
        aggregate("vm.hook", "run", hook_hops, hook_ns);
        Json::obj([
            ("displayTimeUnit", Json::str("ns")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

/// A delegating workload wrapper: transparent without a recorder, a span
/// per callback with one.
pub struct Probe<W> {
    inner: W,
    recorder: Option<Rc<Recorder>>,
}

impl<W> Probe<W> {
    pub fn new(inner: W, recorder: Option<Rc<Recorder>>) -> Self {
        Probe { inner, recorder }
    }
}

/// Runs `$call` under the recorder when there is one.
macro_rules! timed {
    ($self:ident, $kind:expr, $chain:expr, $call:expr) => {
        match &$self.recorder {
            Some(rec) => rec.callback($kind, $chain, || $call),
            None => $call,
        }
    };
}

impl<W: PushdownWorkload> PushdownWorkload for Probe<W> {
    type Request = W::Request;
    type Output = W::Output;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build_image(&mut self) -> Result<Vec<u8>, SessionError> {
        timed!(self, Callback::BuildImage, None, self.inner.build_image())
    }

    fn program(&self) -> Program {
        timed!(self, Callback::Program, None, self.inner.program())
    }

    fn install_flags(&self) -> u32 {
        self.inner.install_flags()
    }

    fn first_read(&mut self, req: &Self::Request) -> ReadSpec {
        self.inner.first_read(req)
    }

    fn first_op(&mut self, req: &Self::Request) -> OpSpec {
        timed!(self, Callback::FirstOp, None, self.inner.first_op(req))
    }

    fn next_request(&mut self, rng: &mut SimRng) -> Option<Self::Request> {
        timed!(
            self,
            Callback::NextRequest,
            None,
            self.inner.next_request(rng)
        )
    }

    fn user_step(&mut self, token: &ChainToken, data: &[u8]) -> UserNext {
        timed!(
            self,
            Callback::UserStep,
            Some(token.id),
            self.inner.user_step(token, data)
        )
    }

    fn decode(
        &mut self,
        token: &ChainToken,
        status: &ChainStatus,
    ) -> Result<Option<Self::Output>, SessionError> {
        timed!(
            self,
            Callback::Decode,
            Some(token.id),
            self.inner.decode(token, status)
        )
    }

    fn check(&self, token: &ChainToken, out: Option<&Self::Output>) -> Verdict {
        timed!(
            self,
            Callback::Check,
            Some(token.id),
            self.inner.check(token, out)
        )
    }

    fn release(&mut self, token: &ChainToken) {
        timed!(
            self,
            Callback::Release,
            Some(token.id),
            self.inner.release(token)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpfstor_core::Chase;

    #[test]
    fn probe_without_a_recorder_is_transparent() {
        let mut plain = Chase::hops(4);
        let mut probed = Probe::new(Chase::hops(4), None);
        assert_eq!(
            plain.build_image().expect("plain"),
            probed.build_image().expect("probed")
        );
        assert_eq!(plain.name(), probed.name());
        assert_eq!(plain.first_read(&512), probed.first_read(&512));
    }

    #[test]
    fn recorder_aggregates_every_callback_and_caps_raw_spans() {
        let rec = Recorder::new();
        let mut w = Probe::new(Chase::hops(4), Some(Rc::clone(&rec)));
        rec.phase("setup.install", || {
            w.build_image().expect("image");
        });
        let mut rng = SimRng::seed(1);
        rec.phase("run", || {
            for _ in 0..RAW_CHAINS + 50 {
                let req = w.next_request(&mut rng).expect("unbounded");
                w.first_op(&req);
            }
        });
        let (setup_ns, run_ns) = rec.callback_ns();
        assert!(setup_ns > 0 && run_ns > 0);
        assert_eq!(rec.build_image_ns(), setup_ns);
        assert!(rec.phase_ns("run") >= run_ns, "callbacks nest inside run");
        let trace = rec.chrome_trace("unit", 7, 700);
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        let named = |n: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(n))
                .count()
        };
        // RAW_CHAINS raw spans (calls after request RAW_CHAINS + 1 is drawn
        // are dropped) plus the one aggregate span.
        assert_eq!(named("workload.next_request"), RAW_CHAINS as usize + 1);
        assert_eq!(named("workload.first_op"), RAW_CHAINS as usize + 1);
        assert_eq!(named("vm.hook"), 1);
        assert_eq!(named("run"), 1);
        let aggregate = events
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some("workload.next_request")
                    && e.get("tid").and_then(Json::as_f64) == Some(2.0)
            })
            .expect("aggregate span");
        assert_eq!(
            aggregate
                .get("args")
                .and_then(|a| a.get("count"))
                .and_then(Json::as_f64),
            Some((RAW_CHAINS + 50) as f64)
        );
    }
}
