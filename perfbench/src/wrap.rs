//! Timing and recording wrappers around the trait objects the program
//! accepts: [`DiskScheduler`], [`TraceSource`] and [`TraceSink`].
//!
//! A wrapper runs in one of three modes. *Timing* opens a span around
//! each forwarded call. *Recording* keeps what the replays need:
//! the scheduler's call tape, the dispatch order of served requests, a
//! sample of scheduler operations, and every arrival. *Inject* busy-waits
//! a fixed time per enqueued request (paid in chunks), for the
//! sensitivity self-test.
//! Every mode forwards every trait method, so the program behaves
//! exactly as without the wrapper.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use obs::{TraceEvent, TraceSink};
use sched::{DiskScheduler, HeadState, Request, Retune};
use workload::TraceSource;

use crate::probe::{Clock, Span};

/// What the wrappers of one pass do.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    pub clock: Clock,
    pub timing: bool,
    pub record: bool,
    /// Busy-wait per enqueued request (ns); 0 = off.
    pub inject_ns: u64,
    /// Requests' worth of scheduler operations kept from shard 0 for the
    /// SFC and heap-insert replays.
    pub sample_reqs: usize,
    /// Note the shard's clock every [`SLICE`] enqueued requests.
    pub slice: bool,
}

impl Mode {
    /// Forward only, noting slice marks (a plain pass of the batch farm).
    pub fn plain() -> Self {
        Mode {
            clock: Clock {
                eps_ns: 0.0,
                span_ns: 0.0,
            },
            timing: false,
            record: false,
            inject_ns: 0,
            sample_reqs: 0,
            slice: true,
        }
    }

    pub fn timing(clock: Clock) -> Self {
        Mode {
            clock,
            timing: true,
            slice: false,
            ..Mode::plain()
        }
    }

    pub fn recording(clock: Clock, sample_reqs: usize) -> Self {
        Mode {
            clock,
            record: true,
            sample_reqs,
            slice: false,
            ..Mode::plain()
        }
    }

    pub fn inject(inject_ns: u64) -> Self {
        Mode {
            inject_ns,
            ..Mode::plain()
        }
    }

    /// Whether the pass is probed layer by layer (timed or recorded).
    pub fn probes(&self) -> bool {
        self.timing || self.record
    }

    /// Whether the pass is measured as a whole (plain or injected).
    pub fn is_plain(mode: Option<Mode>) -> bool {
        !mode.is_some_and(|m| m.probes())
    }
}

/// Smallest injected busy-wait paid at once (ns).
const SPIN_CHUNK_NS: i64 = 20_000;

/// No request: an empty dequeue on the tape.
pub const NONE: u64 = u64::MAX;

/// One scheduler call the engine made, as the engine replay needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeOp {
    /// `enqueue_batch` of `len` requests starting with id `first`.
    Batch { first: u64, len: u32 },
    /// `dequeue` that returned this id ([`NONE`] when empty).
    Pop(u64),
}

/// One scheduler operation kept for the SFC and heap-insert replays.
#[derive(Debug, Clone)]
pub enum SchedOp {
    Batch(Vec<Request>, HeadState),
    Pop(HeadState),
    Retune(Retune, HeadState),
}

/// Everything one shard's wrapper measured or recorded.
#[derive(Debug, Default)]
pub struct SchedStats {
    pub shard: usize,
    pub enqueue: Span,
    pub enqueued: u64,
    pub dequeue: Span,
    pub empty_dequeues: u64,
    pub scan: Span,
    pub retune: Span,
    pub drain: Span,
    pub depth_sum: u64,
    pub depth_max: usize,
    /// Shard-clock readings (ns since construction) every [`SLICE`]
    /// enqueued requests.
    pub marks: Vec<f64>,
    /// Construction and drop of the wrapper: the shard's lifetime.
    pub born: Option<Instant>,
    pub died: Option<Instant>,
    pub tape: Vec<TapeOp>,
    /// Ids delivered to this shard's scheduler.
    pub delivered: Vec<u64>,
    /// Ids dispatched before their deadline, in dispatch order: the
    /// requests the disk served.
    pub served: Vec<u64>,
    pub ops: Vec<SchedOp>,
    pub sampled_reqs: usize,
}

impl SchedStats {
    /// The shard's lifetime (ns).
    pub fn busy_ns(&self) -> f64 {
        match (self.born, self.died) {
            (Some(a), Some(b)) => b.duration_since(a).as_nanos() as f64,
            _ => 0.0,
        }
    }
}

/// Collects each wrapper's stats when it is dropped.
pub type StatsSink = Arc<Mutex<Vec<SchedStats>>>;

pub struct ProbedScheduler {
    inner: Box<dyn DiskScheduler>,
    st: SchedStats,
    mode: Mode,
    out: StatsSink,
    born: Instant,
    scan: Cell<Span>,
    /// Busy-wait owed (ns); negative after a wait overshot.
    owed_ns: i64,
}

impl ProbedScheduler {
    pub fn new(inner: Box<dyn DiskScheduler>, shard: usize, mode: Mode, out: StatsSink) -> Self {
        let born = Instant::now();
        ProbedScheduler {
            inner,
            st: SchedStats {
                shard,
                born: Some(born),
                ..SchedStats::default()
            },
            mode,
            out,
            born,
            scan: Cell::new(Span::default()),
            owed_ns: 0,
        }
    }

    /// Owe `inject_ns` per request and pay the debt in waits of at least
    /// [`SPIN_CHUNK_NS`], carrying any overshoot: a wait per request
    /// would add a clock read or two to each, well above the nominal
    /// time when a request costs a few hundred nanoseconds.
    fn spin(&mut self, requests: usize) {
        if self.mode.inject_ns == 0 {
            return;
        }
        self.owed_ns += (self.mode.inject_ns * requests as u64) as i64;
        if self.owed_ns < SPIN_CHUNK_NS {
            return;
        }
        let t = Instant::now();
        while (t.elapsed().as_nanos() as i64) < self.owed_ns {
            std::hint::spin_loop();
        }
        self.owed_ns -= t.elapsed().as_nanos() as i64;
    }

    fn count_enqueued(&mut self, n: usize) {
        let before = self.st.enqueued;
        self.st.enqueued += n as u64;
        if self.mode.slice && before / SLICE != self.st.enqueued / SLICE {
            self.st.marks.push(self.born.elapsed().as_nanos() as f64);
        }
    }

    fn sampling(&self) -> bool {
        self.mode.record && self.st.shard == 0 && self.st.sampled_reqs < self.mode.sample_reqs
    }

    fn record_batch(&mut self, batch: &[Request], head: &HeadState) {
        if !self.mode.record || batch.is_empty() {
            return;
        }
        self.st.tape.push(TapeOp::Batch {
            first: batch[0].id,
            len: batch.len() as u32,
        });
        self.st.delivered.extend(batch.iter().map(|r| r.id));
        if self.sampling() {
            self.st.sampled_reqs += batch.len();
            self.st.ops.push(SchedOp::Batch(batch.to_vec(), *head));
        }
    }
}

impl Drop for ProbedScheduler {
    fn drop(&mut self) {
        self.st.died = Some(Instant::now());
        self.st.scan = self.scan.get();
        // The batch farm builds one scheduler per shard up front only to
        // read its queue capacity; those never see a call.
        if self.st.enqueue.calls + self.st.dequeue.calls == 0 {
            return;
        }
        if let Ok(mut out) = self.out.lock() {
            out.push(std::mem::take(&mut self.st));
        }
    }
}

macro_rules! span {
    ($self:ident, $span:ident, $call:expr) => {{
        if $self.mode.timing {
            let open = $self.st.$span.begin();
            let r = $call;
            $self.st.$span.end(open, &$self.mode.clock);
            r
        } else {
            $self.st.$span.calls += 1;
            $call
        }
    }};
}

impl DiskScheduler for ProbedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn enqueue(&mut self, req: Request, head: &HeadState) {
        self.spin(1);
        self.record_batch(std::slice::from_ref(&req), head);
        self.count_enqueued(1);
        span!(self, enqueue, self.inner.enqueue(req, head))
    }

    fn enqueue_batch(&mut self, batch: &[Request], head: &HeadState) {
        self.spin(batch.len());
        self.record_batch(batch, head);
        self.count_enqueued(batch.len());
        span!(self, enqueue, self.inner.enqueue_batch(batch, head))
    }

    fn dequeue(&mut self, head: &HeadState) -> Option<Request> {
        if self.mode.probes() {
            let depth = self.inner.len();
            self.st.depth_sum += depth as u64;
            self.st.depth_max = self.st.depth_max.max(depth);
        }
        if self.sampling() {
            self.st.ops.push(SchedOp::Pop(*head));
        }
        let r = span!(self, dequeue, self.inner.dequeue(head));
        match &r {
            None => self.st.empty_dequeues += 1,
            Some(req) if self.mode.record && !req.is_late(head.now_us) => {
                self.st.served.push(req.id)
            }
            Some(_) => {}
        }
        if self.mode.record {
            self.st
                .tape
                .push(TapeOp::Pop(r.as_ref().map_or(NONE, |q| q.id)));
        }
        r
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        // `&self`: the span accumulates in a cell, folded in at drop.
        let mut span = self.scan.get();
        if self.mode.timing {
            let open = span.begin();
            self.inner.for_each_pending(f);
            span.end(open, &self.mode.clock);
        } else {
            span.calls += 1;
            self.inner.for_each_pending(f);
        }
        self.scan.set(span);
    }

    fn sheds(&self) -> u64 {
        self.inner.sheds()
    }

    fn queue_capacity(&self) -> Option<usize> {
        self.inner.queue_capacity()
    }

    fn retune(&mut self, knob: &Retune, head: &HeadState) -> bool {
        if self.sampling() {
            self.st.ops.push(SchedOp::Retune(*knob, *head));
        }
        span!(self, retune, self.inner.retune(knob, head))
    }

    fn drain_pending(&mut self, head: &HeadState) -> Vec<Request> {
        span!(self, drain, self.inner.drain_pending(head))
    }
}

/// A [`TraceSource`] wrapper. It times `next` and, because the daemon's
/// `ingest` calls `handle` between a `next` and the following `observe`,
/// it also times the daemon's handling of each arrival from outside.
pub struct ProbedSource<T> {
    inner: T,
    mode: Mode,
    pub next: Span,
    /// Daemon time per arrival: from `next` returning to `observe`.
    pub handle: Span,
    /// Per-arrival handle times (ns), for the percentiles.
    pub handle_samples: Vec<f64>,
    pending: Option<crate::probe::Open>,
    /// Every arrival, when recording.
    pub arrivals: Vec<Request>,
}

impl<T: TraceSource> ProbedSource<T> {
    pub fn new(inner: T, mode: Mode) -> Self {
        ProbedSource {
            inner,
            mode,
            next: Span::default(),
            handle: Span::default(),
            handle_samples: Vec::new(),
            pending: None,
            arrivals: Vec::new(),
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: TraceSource> Iterator for ProbedSource<T> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let r = if self.mode.timing {
            let open = self.next.begin();
            let r = self.inner.next();
            self.next.end(open, &self.mode.clock);
            r
        } else {
            self.inner.next()
        };
        if let Some(req) = &r {
            if self.mode.record {
                self.arrivals.push(req.clone());
            }
            if self.mode.timing {
                self.pending = Some(self.handle.begin());
            }
        }
        r
    }
}

impl<T: TraceSource> TraceSource for ProbedSource<T> {
    fn observe(&mut self, backlog: usize) {
        if let Some(open) = self.pending.take() {
            let ns = self.handle.end(open, &self.mode.clock);
            self.handle_samples.push(ns);
        }
        self.inner.observe(backlog);
    }
}

/// Arrivals (or enqueued requests) per slice of a plain pass.
pub const SLICE: u64 = 1024;

/// A [`TraceSource`] that notes the pass clock every [`SLICE`]
/// arrivals, so a plain pass splits into slices aligned across passes.
pub struct Sliced<T> {
    inner: T,
    n: u64,
    start: Instant,
    /// Pass-clock readings (ns) at each slice boundary.
    pub marks: Vec<f64>,
}

impl<T> Sliced<T> {
    pub fn new(inner: T, start: Instant) -> Self {
        Sliced {
            inner,
            n: 0,
            start,
            marks: Vec::new(),
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: TraceSource> Iterator for Sliced<T> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.n > 0 && self.n.is_multiple_of(SLICE) {
            self.marks.push(self.start.elapsed().as_nanos() as f64);
        }
        self.n += 1;
        self.inner.next()
    }
}

impl<T: TraceSource> TraceSource for Sliced<T> {
    fn observe(&mut self, backlog: usize) {
        self.inner.observe(backlog);
    }
}

/// Slice durations (ns) from slice-boundary marks and the pass's end.
pub fn slices(marks: &[f64], end_ns: f64) -> Vec<f64> {
    let mut prev = 0.0;
    marks
        .iter()
        .chain(std::iter::once(&end_ns))
        .map(|&m| {
            let d = m - prev;
            prev = m;
            d
        })
        .collect()
}

/// A [`TraceSink`] wrapper timing every emitted event.
pub struct ProbedSink<S> {
    pub inner: S,
    pub emit: Span,
    clock: Clock,
}

impl<S> ProbedSink<S> {
    pub fn new(inner: S, clock: Clock) -> Self {
        ProbedSink {
            inner,
            emit: Span::default(),
            clock,
        }
    }
}

impl<S: TraceSink> TraceSink for ProbedSink<S> {
    const ENABLED: bool = S::ENABLED;

    fn emit(&mut self, event: &TraceEvent) {
        let open = self.emit.begin();
        self.inner.emit(event);
        self.emit.end(open, &self.clock);
    }
}
