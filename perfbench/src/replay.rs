//! Layers measured by replay: recorded inputs fed again through a layer's
//! public functions, timed in bulk.
//!
//! Each replay runs a few repetitions on fresh state and keeps the
//! fastest: a replay is measured once per traced run, so a repetition
//! slowed by other tenants of the host would otherwise inflate a layer
//! that the farm's residual self time then pays for. The engine replay drives a fresh [`EngineStepper`] (or the
//! batch engine) with a *tape* scheduler that hands back exactly the
//! recorded dequeue outcomes, so the engine retraces its recorded path
//! at nearly no scheduler cost.

use std::time::Instant;

use cascade::{CascadeConfig, CascadedSfc, Encapsulator};
use farm::{FarmConfig, OnlineRouter, Parallelism};
use obs::{FlightRecorder, NullSink, TelemetryConfig, TraceSink, TriggerConfig};
use sched::{DiskScheduler, HeadState, Request};
use sim::admission::StreamGate;
use sim::{DiskService, EngineStepper, ServiceProvider, SimOptions};

use crate::alloc;
use crate::probe::Clock;
use crate::workloads::{Ev, CYLINDERS};
use crate::wrap::{SchedOp, SchedStats, TapeOp, NONE};

const REPS: usize = 5;

/// Fastest time (ns) of `REPS` runs of `run` on fresh `prepare`d state.
fn timed<S>(prepare: impl FnMut() -> S, run: impl FnMut(S)) -> f64 {
    timed_allocs(prepare, run).0
}

/// [`timed`], also returning the allocations one run makes.
fn timed_allocs<S>(mut prepare: impl FnMut() -> S, mut run: impl FnMut(S)) -> (f64, u64) {
    let mut allocs = 0;
    let fastest = (0..REPS)
        .map(|_| {
            let state = prepare();
            let a0 = alloc::thread();
            let t = Instant::now();
            run(state);
            let ns = t.elapsed().as_nanos() as f64;
            allocs = alloc::thread() - a0;
            ns
        })
        .fold(f64::INFINITY, f64::min);
    (fastest, allocs)
}

/// Arrivals indexed by id (every source here numbers ids densely).
pub fn by_id(arrivals: &[Request]) -> Result<Vec<Request>, String> {
    let mut v = arrivals.to_vec();
    v.sort_unstable_by_key(|r| r.id);
    match v.iter().enumerate().find(|(i, r)| r.id != *i as u64) {
        Some((i, r)) => Err(format!("arrival ids are not dense: id {} at {i}", r.id)),
        None => Ok(v),
    }
}

/// Admission gate over every arrival in order. Returns the total time
/// (ns), its allocations, the admitted flags and the rejection count.
pub fn gate(arrivals: &[Request], max_streams: u32, idle_us: u64) -> (f64, u64, Vec<bool>, u64) {
    let mut admitted = vec![false; arrivals.len()];
    let mut rejections = 0;
    let (ns, allocs) = timed_allocs(
        || StreamGate::new(max_streams, idle_us),
        |mut g| {
            for (slot, r) in admitted.iter_mut().zip(arrivals) {
                *slot = g.admit(r.stream, r.arrival_us);
            }
            rejections = g.rejections();
        },
    );
    (ns, allocs, admitted, rejections)
}

/// Online routing of the admitted arrivals, every shard eligible.
/// Returns the total time (ns) and allocations.
pub fn route(admitted: &[&Request], cfg: &FarmConfig, capacities: &[Option<usize>]) -> (f64, u64) {
    timed_allocs(
        || OnlineRouter::new(cfg, capacities),
        |mut router| {
            for r in admitted {
                std::hint::black_box(router.route(r));
            }
        },
    )
}

/// The batch farm's trace streamed through a [`workload::VecSource`]
/// (ns): what a source costs a farm that pre-generates its trace.
pub fn source(trace: &[Request]) -> f64 {
    timed(
        || workload::VecSource::new(trace.to_vec()),
        |src| {
            for r in src {
                std::hint::black_box(r);
            }
        },
    )
}

/// The disk model over each shard's served requests in dispatch order.
/// Returns the total time (ns) and allocations.
pub fn disk(scheds: &[SchedStats], store: &[Request]) -> (f64, u64) {
    timed_allocs(
        || (),
        |()| {
            for s in scheds {
                let mut svc = DiskService::table1();
                for &id in &s.served {
                    std::hint::black_box(svc.service(&store[id as usize]));
                }
            }
        },
    )
}

/// A scheduler that replays a recorded call tape: `enqueue_batch` checks
/// the chunk against the tape and `dequeue` returns the recorded
/// outcome. Any mismatch marks the replay diverged.
struct Tape<'a> {
    ops: &'a [TapeOp],
    pos: usize,
    store: &'a [Request],
    len: usize,
    diverged: bool,
}

impl<'a> Tape<'a> {
    fn new(ops: &'a [TapeOp], store: &'a [Request]) -> Self {
        Tape {
            ops,
            pos: 0,
            store,
            len: 0,
            diverged: false,
        }
    }

    fn check(&self, shard: usize) -> Result<(), String> {
        if self.diverged || self.pos != self.ops.len() {
            return Err(format!(
                "engine replay diverged on shard {shard} at tape op {} of {}",
                self.pos,
                self.ops.len()
            ));
        }
        Ok(())
    }
}

impl DiskScheduler for Tape<'_> {
    fn name(&self) -> &'static str {
        "tape"
    }

    fn enqueue(&mut self, req: Request, head: &HeadState) {
        self.enqueue_batch(std::slice::from_ref(&req), head);
    }

    fn enqueue_batch(&mut self, batch: &[Request], _head: &HeadState) {
        match self.ops.get(self.pos) {
            Some(&TapeOp::Batch { first, len })
                if first == batch[0].id && len as usize == batch.len() =>
            {
                self.pos += 1;
                self.len += batch.len();
            }
            _ => self.diverged = true,
        }
    }

    fn dequeue(&mut self, _head: &HeadState) -> Option<Request> {
        match self.ops.get(self.pos) {
            Some(&TapeOp::Pop(id)) => {
                self.pos += 1;
                if id == NONE {
                    None
                } else {
                    self.len = self.len.saturating_sub(1);
                    Some(self.store[id as usize].clone())
                }
            }
            _ => {
                self.diverged = true;
                None
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn for_each_pending(&self, _f: &mut dyn FnMut(&Request)) {}
}

/// An enabled sink that only counts: the engine replays build every
/// trace event the live engine builds, while the emit itself (measured
/// as its own layer) costs next to nothing.
#[derive(Default)]
struct Counted(u64);

impl TraceSink for Counted {
    fn emit(&mut self, _event: &obs::TraceEvent) {
        self.0 += 1;
    }
}

/// What walking the tapes costs without the engine: the request clones
/// the tape hands out. Taken off the engine replay's time.
fn tape_walk_ns(scheds: &[SchedStats], store: &[Request]) -> f64 {
    timed(
        || (),
        |()| {
            for s in scheds {
                for op in &s.tape {
                    if let TapeOp::Pop(id) = *op {
                        if id != NONE {
                            std::hint::black_box(store[id as usize].clone());
                        }
                    }
                }
                for &id in &s.delivered {
                    std::hint::black_box(store[id as usize].clone());
                }
            }
        },
    )
}

enum Status {
    Active,
    Draining(u64),
    Drained,
}

struct Member<'a> {
    stepper: EngineStepper,
    tape: Tape<'a>,
    service: DiskService,
    sink: Counted,
    status: Status,
}

impl<'a> Member<'a> {
    fn new(tape: &'a [TapeOp], store: &'a [Request], options: SimOptions) -> Self {
        Member {
            stepper: EngineStepper::new(options, CYLINDERS),
            tape: Tape::new(tape, store),
            service: DiskService::table1(),
            sink: Counted::default(),
            status: Status::Active,
        }
    }

    fn pump(&mut self, t: u64) {
        let horizon = match self.status {
            Status::Drained => return,
            Status::Draining(close) if close <= t => {
                self.status = Status::Drained;
                close
            }
            _ => t,
        };
        self.stepper
            .run_until(horizon, &mut self.tape, &mut self.service, &mut self.sink);
    }
}

/// The daemon's engines, replayed: every event pumps every live member
/// to its time, arrivals go to the shard that received them, and each
/// member's scheduler is its recorded tape. Returns the engine's own
/// time (ns) — the replay less the disk model and the tape walk — and
/// the replay's allocations.
pub fn engine_daemon<'a>(
    events: &[Ev],
    scheds: &'a [SchedStats],
    store: &'a [Request],
    options: SimOptions,
    shards: usize,
    disk_ns: f64,
) -> Result<(f64, u64), String> {
    let tape_of = |shard: usize| -> &'a [TapeOp] {
        scheds
            .iter()
            .find(|s| s.shard == shard)
            .map_or(&[], |s| s.tape.as_slice())
    };
    let mut shard_of = vec![usize::MAX; store.len()];
    for s in scheds {
        for &id in &s.delivered {
            shard_of[id as usize] = s.shard;
        }
    }
    let member = |shard: usize| Member::new(tape_of(shard), store, options);
    let run = |members: &mut Vec<Member<'a>>| {
        for ev in events {
            let t = ev.at();
            for m in members.iter_mut() {
                m.pump(t);
            }
            match *ev {
                Ev::Arrival { id, .. } => {
                    if let Some(m) = members.get_mut(shard_of[id as usize]) {
                        m.stepper.submit(store[id as usize].clone());
                    }
                }
                Ev::Add(_) => members.push(member(members.len())),
                Ev::Drain { shard, close, .. } => members[shard].status = Status::Draining(close),
                Ev::Tick(_) => {}
            }
        }
        for m in members.iter_mut() {
            match m.status {
                Status::Drained => {}
                Status::Draining(close) => m.pump(close),
                Status::Active => m.stepper.finish(&mut m.tape, &mut m.service, &mut m.sink),
            }
        }
    };
    // One checked run first: the tapes must be consumed exactly.
    let mut members: Vec<Member<'a>> = (0..shards).map(member).collect();
    run(&mut members);
    for (shard, m) in members.iter().enumerate() {
        m.tape.check(shard)?;
    }
    drop(members);
    let (ns, allocs) = timed_allocs(
        || (0..shards).map(member).collect::<Vec<_>>(),
        |mut members| run(&mut members),
    );
    Ok((
        (ns - disk_ns - tape_walk_ns(scheds, store)).max(0.0),
        allocs,
    ))
}

/// The batch farm's engines, replayed shard by shard through the batch
/// engine with each shard's recorded tape. Returns the engine's own time
/// and the replay's allocations.
pub fn engine_batch(
    shard_traces: &[Vec<Request>],
    scheds: &[SchedStats],
    store: &[Request],
    options: SimOptions,
    disk_ns: f64,
) -> Result<(f64, u64), String> {
    let run = |check: bool| -> Result<(), String> {
        for s in scheds {
            let mut tape = Tape::new(&s.tape, store);
            let mut svc = DiskService::table1();
            let mut sink = Counted::default();
            std::hint::black_box(sim::simulate_traced(
                &mut tape,
                &shard_traces[s.shard],
                &mut svc,
                options,
                &mut sink,
            ));
            if check {
                tape.check(s.shard)?;
            }
        }
        Ok(())
    };
    run(true)?;
    let (ns, allocs) = timed_allocs(|| (), |()| run(false).expect("checked replay"));
    Ok((
        (ns - disk_ns - tape_walk_ns(scheds, store)).max(0.0),
        allocs,
    ))
}

/// Flight-recorder emission: each member's last recorded events (its
/// ring) replayed into a fresh recorder of the same shape. Returns ns
/// and allocations per event.
pub fn obs_emit(
    recorders: &[FlightRecorder],
    shape: (usize, TelemetryConfig, TriggerConfig),
) -> (f64, f64) {
    let (capacity, telemetry, triggers) = shape;
    let mut total_ns = 0.0;
    let mut total_allocs = 0;
    let mut total_events = 0usize;
    for r in recorders {
        let events = r.clone().force_dump(u64::MAX).events.clone();
        total_events += events.len();
        let (ns, allocs) = timed_allocs(
            || FlightRecorder::new(capacity, telemetry, triggers),
            |mut fresh| {
                for e in &events {
                    fresh.emit(e);
                }
                std::hint::black_box(fresh);
            },
        );
        total_ns += ns;
        total_allocs += allocs;
    }
    let events = total_events.max(1) as f64;
    (total_ns / events, total_allocs as f64 / events)
}

fn batches(ops: &[SchedOp]) -> impl Iterator<Item = (&[Request], &HeadState)> {
    ops.iter().filter_map(|op| match op {
        SchedOp::Batch(reqs, head) => Some((reqs.as_slice(), head)),
        _ => None,
    })
}

/// SFC stage costs (ns per request): the recorded chunks characterized
/// by encapsulators with later stages skipped (§4.1), SFC1 alone, then
/// SFC1+SFC2, then the full cascade.
pub fn sfc_stages(ops: &[SchedOp], config: &CascadeConfig) -> [f64; 3] {
    let reqs: usize = batches(ops).map(|(b, _)| b.len()).sum();
    if reqs == 0 {
        return [0.0; 3];
    }
    let mut upto = [config.clone(), config.clone(), config.clone()];
    upto[0].stage2 = None;
    upto[0].stage3 = None;
    upto[1].stage3 = None;
    let mut out = Vec::with_capacity(reqs);
    let cumulative: Vec<f64> = upto
        .iter()
        .map(|cfg| {
            let enc = Encapsulator::new(cfg.clone()).expect("valid stage subset");
            timed(
                || (),
                |()| {
                    out.clear();
                    for (batch, head) in batches(ops) {
                        enc.map_batch_into(batch, head, &mut out);
                    }
                    std::hint::black_box(&out);
                },
            ) / reqs as f64
        })
        .collect();
    [
        cumulative[0],
        (cumulative[1] - cumulative[0]).max(0.0),
        (cumulative[2] - cumulative[1]).max(0.0),
    ]
}

/// Heap insert (ns per request): the recorded operations replayed on a
/// fresh member, with only the `insert_characterized` calls timed.
pub fn heap_insert(ops: &[SchedOp], config: &CascadeConfig, clock: &Clock) -> f64 {
    let inserted: usize = batches(ops).map(|(b, _)| b.len()).sum();
    let fastest = (0..REPS)
        .map(|_| {
            let mut s = CascadedSfc::new(config.clone()).expect("valid cascade config");
            let mut values = Vec::new();
            let mut total = 0.0;
            for op in ops {
                match op {
                    SchedOp::Batch(reqs, head) => {
                        values.clear();
                        s.encapsulator().map_batch_into(reqs, head, &mut values);
                        let pairs: Vec<(Request, u128)> =
                            reqs.iter().cloned().zip(values.iter().copied()).collect();
                        let t = Instant::now();
                        for (r, v) in pairs {
                            s.insert_characterized(r, v);
                        }
                        total += (t.elapsed().as_nanos() as f64 - clock.eps_ns).max(0.0);
                    }
                    SchedOp::Pop(head) => {
                        std::hint::black_box(s.dequeue(head));
                    }
                    SchedOp::Retune(knob, head) => {
                        s.retune(knob, head);
                    }
                }
            }
            total
        })
        .fold(f64::INFINITY, f64::min);
    fastest / inserted.max(1) as f64
}

/// Concurrent ingest (ns per request): `farm::ingest_routed` into one
/// member at two producers, and serially, over chunks of recorded
/// arrivals. Returns `(concurrent, serial)`.
pub fn ingest(arrivals: &[Request], config: &CascadeConfig) -> (f64, f64) {
    const CHUNK: usize = 4096;
    let n = arrivals.len().min(8 * CHUNK);
    if n == 0 {
        return (0.0, 0.0);
    }
    let mut unbounded = config.clone();
    unbounded.dispatch.max_queue = None;
    let heads = [HeadState::new(0, 0, CYLINDERS)];
    let per_req = |parallelism: Parallelism| {
        let cfg = FarmConfig::new(1).with_parallelism(parallelism);
        timed(
            || {
                (0..n.div_ceil(CHUNK))
                    .map(|_| [CascadedSfc::new(unbounded.clone()).expect("valid cascade config")])
                    .collect::<Vec<_>>()
            },
            |mut members| {
                for (chunk, member) in arrivals[..n].chunks(CHUNK).zip(&mut members) {
                    std::hint::black_box(farm::ingest_routed(
                        chunk,
                        &cfg,
                        member,
                        &heads,
                        &mut NullSink,
                    ));
                }
            },
        ) / n as f64
    };
    (
        per_req(Parallelism::threads(2)),
        per_req(Parallelism::Serial),
    )
}
