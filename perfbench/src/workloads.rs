//! The three workloads: how each builds its inputs from the seed, and
//! one pass of each through the program, plain or probed.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig, PreemptionMode, Stage1, Stage2Combiner};
use ctrl::{Controller, ControllerConfig, GridPoint};
use farm::{
    DaemonConfig, DaemonEvent, DaemonReport, FarmConfig, FarmDaemon, FarmOutcome, MemberStatus,
    Parallelism, RoutePolicy,
};
use obs::{FlightRecorder, SharedSink, Snapshot, TelemetryConfig, TriggerConfig};
use sched::{DiskScheduler, Request};
use sfc::CurveKind;
use sim::{DiskService, SimOptions};
use workload::{PoissonConfig, SessionConfig, SessionSource, VecSource, VodConfig};

use crate::alloc;
use crate::probe::Span;
use crate::simres::SimSummary;
use crate::wrap::{
    Mode, ProbedScheduler, ProbedSink, ProbedSource, SchedStats, Sliced, StatsSink, SLICE,
};

pub const CYLINDERS: u32 = 3832;

/// The warm-up in each set-up runs this fraction (1/n) of the input, so
/// set-up time is mostly building the inputs, the daemon and the farm.
pub const WARM_SHARE: usize = 16;

fn warm_prefix(trace: &[Request]) -> &[Request] {
    &trace[..trace.len() / WARM_SHARE]
}

/// Simulated µs per session that keeps the closed loop at the scenario
/// suite's density: one million sessions over six hours.
const US_PER_SESSION: u64 = 21_600;

/// A daemon member's flight-recorder shape: the daemon's default ring
/// capacity, the given windows, default anomaly triggers.
fn recorder_shape(telemetry: TelemetryConfig) -> (usize, TelemetryConfig, TriggerConfig) {
    (1 << 12, telemetry, TriggerConfig::default())
}

/// One scheduler-visible event of a daemon pass, kept for the engine
/// replay: every event pumps every live member to its time first.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    Arrival { at: u64, id: u64 },
    Tick(u64),
    Add(u64),
    Drain { at: u64, shard: usize, close: u64 },
}

impl Ev {
    pub fn at(&self) -> u64 {
        match *self {
            Ev::Arrival { at, .. } | Ev::Tick(at) | Ev::Add(at) | Ev::Drain { at, .. } => at,
        }
    }
}

/// Counts that show each workload's mechanism fired.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mechanism {
    pub rejections: u64,
    pub sheds: u64,
    pub redirects: u64,
    pub retunes: u64,
    pub migrations: u64,
    pub quarantines: u64,
    pub live_sessions_peak: usize,
    /// Mean queue depth at dispatch, from the telemetry histogram.
    pub queue_depth_mean: f64,
}

/// What the probes saw during one pass (empty for plain passes).
#[derive(Default)]
pub struct Observed {
    pub scheds: Vec<SchedStats>,
    pub next: Span,
    pub handle: Span,
    pub handle_samples: Vec<f64>,
    pub deltas: Span,
    /// `FarmDaemon::shutdown`: the backlog run out after the last event.
    pub shutdown: Span,
    pub observe: Span,
    pub decide: Span,
    pub acting_decisions: u64,
    pub sink_emit: Span,
    /// Batch farm: first shard start to last shard end (ns).
    pub parallel_wall_ns: f64,
    /// Recording: every arrival, in arrival order.
    pub arrivals: Vec<Request>,
    /// Recording: the daemon's events, for the engine replay.
    pub events: Vec<Ev>,
    /// Recording: each daemon member's flight recorder.
    pub recorders: Vec<FlightRecorder>,
    /// Telemetry events recorded, and how many of them were sheds (the
    /// cascade emits those inside its own enqueue).
    pub events_total: u64,
    pub shed_events: u64,
}

pub struct PassOut {
    pub arrivals: u64,
    pub wall_ns: f64,
    /// Plain passes: per concurrent lane, the durations of its aligned
    /// slices of [`SLICE`] requests (empty for probed passes) ...
    pub lanes: Vec<Vec<f64>>,
    /// ... and the pass time outside every lane (ns).
    pub serial_ns: f64,
    pub allocs: u64,
    pub sim: SimSummary,
    /// 64-bit hash of the full per-shard outcome, for bit-identity checks.
    pub fingerprint: u64,
    pub failures: Vec<String>,
    pub mech: Mechanism,
    pub observed: Observed,
}

fn fingerprint(parts: &impl std::fmt::Debug) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{parts:?}").hash(&mut h);
    h.finish()
}

/// Wrap a member scheduler in a probe when the pass is probed.
fn probed(
    inner: Box<dyn DiskScheduler>,
    shard: usize,
    probe: &Option<(Mode, StatsSink)>,
) -> Box<dyn DiskScheduler> {
    match probe {
        Some((mode, out)) => Box::new(ProbedScheduler::new(inner, shard, *mode, out.clone())),
        None => inner,
    }
}

fn take_stats(out: &StatsSink) -> Vec<SchedStats> {
    let mut v = std::mem::take(&mut *out.lock().expect("stats lock poisoned"));
    v.sort_by_key(|s| s.shard);
    v
}

fn daemon_checks(report: &DaemonReport) -> Vec<String> {
    let mut failures = Vec::new();
    if let Err(e) = report.ledger() {
        failures.push(e);
    }
    if let Err(e) = report.reconcile_events() {
        failures.push(e);
    }
    failures
}

fn daemon_summary(report: &DaemonReport) -> (SimSummary, u64, u64, u64, f64) {
    let mut snap = Snapshot::new();
    for r in &report.recorders {
        snap.merge(&r.windows().cumulative());
    }
    let sim = SimSummary::new(
        &report.per_shard,
        report.arrivals,
        report.sheds(),
        report.admission_rejections,
        report.migrated,
        snap.response_us.clone(),
    );
    let fp = fingerprint(&(
        &report.per_shard,
        &report.routed_per_shard,
        &report.sheds_per_shard,
        &report.statuses,
        &snap,
        (
            report.arrivals,
            report.admission_rejections,
            report.redirects,
        ),
        (report.migrated, report.quarantines, report.retunes),
    ));
    (
        sim,
        fp,
        snap.counters.total_events(),
        snap.counters.sheds,
        snap.queue_depth.mean(),
    )
}

fn daemon_mechanism(report: &DaemonReport) -> Mechanism {
    Mechanism {
        rejections: report.admission_rejections,
        sheds: report.sheds(),
        redirects: report.redirects,
        retunes: report.retunes,
        migrations: report.migrated,
        quarantines: report.quarantines,
        live_sessions_peak: 0,
        queue_depth_mean: 0.0,
    }
}

/// A workload: inputs built from the seed, and one pass through the
/// program.
pub trait Workload {
    /// Run one pass. `probe` is `None` for the plain program.
    fn pass(&self, probe: Option<Mode>) -> PassOut;
    /// A plain pass over the first [`WARM_SHARE`]th of the input: builds
    /// the daemon or farm and warms caches and the allocator.
    fn warm_up(&self);
    /// The member scheduler's configuration (for the replays).
    fn member_config(&self) -> CascadeConfig;
    /// The farm configuration (for the routing replay).
    fn farm_config(&self) -> FarmConfig;
    /// Engine options of every member.
    fn options(&self) -> SimOptions;
    /// Admission gate shape, if the workload has a gate.
    fn gate(&self) -> Option<(u32, u64)>;
    /// Flight-recorder shape of daemon members.
    fn recorder(&self) -> Option<(usize, TelemetryConfig, TriggerConfig)>;
    /// The trace, when the workload runs the batch farm rather than the
    /// daemon.
    fn batch_trace(&self) -> Option<&[Request]> {
        None
    }
}

// ---------------------------------------------------------------- closed_loop

pub struct ClosedLoop {
    pub seed: u64,
    pub sessions: u64,
}

impl ClosedLoop {
    fn source(&self) -> SessionSource {
        let mut sc = SessionConfig::mixed(self.sessions, self.sessions * US_PER_SESSION);
        sc.newsbyte_fraction = 0.3;
        sc.cylinders = CYLINDERS;
        SessionSource::new(sc, self.seed)
    }

    fn daemon(&self, probe: Option<(Mode, StatsSink)>) -> FarmDaemon {
        let member = self.member_config();
        FarmDaemon::new(
            DaemonConfig::new(self.farm_config(), self.options())
                .with_admission(768, 5_000_000)
                .with_telemetry(TelemetryConfig::exact(), TriggerConfig::default()),
            move |shard, sink: SharedSink<FlightRecorder>| {
                let s = CascadedSfc::with_sink(member.clone(), sink).expect("valid cascade config");
                probed(Box::new(s), shard, &probe)
            },
            |_| DiskService::table1(),
        )
    }
}

impl Workload for ClosedLoop {
    fn warm_up(&self) {
        ClosedLoop {
            seed: self.seed,
            sessions: self.sessions / WARM_SHARE as u64,
        }
        .pass(None);
    }

    fn pass(&self, probe: Option<Mode>) -> PassOut {
        let out = StatsSink::default();
        let mut daemon = self.daemon(probe.map(|m| (m, out.clone())));
        let source = self.source();
        let mut observed = Observed::default();
        let (wall_ns, allocs, report, peak_live);
        let mut lanes = Vec::new();
        match probe.filter(Mode::probes) {
            None => {
                let a0 = alloc::total();
                let t = Instant::now();
                let mut source = Sliced::new(source, t);
                daemon.ingest(&mut source);
                report = daemon.shutdown();
                wall_ns = t.elapsed().as_nanos() as f64;
                allocs = alloc::total() - a0;
                peak_live = source.inner().peak_live_sessions();
                lanes.push(crate::wrap::slices(&source.marks, wall_ns));
            }
            Some(mode) => {
                let mut source = ProbedSource::new(source, mode);
                let a0 = alloc::total();
                let t = Instant::now();
                daemon.ingest(&mut source);
                let open = observed.shutdown.begin();
                report = daemon.shutdown();
                observed.shutdown.end(open, &mode.clock);
                wall_ns = t.elapsed().as_nanos() as f64;
                allocs = alloc::total() - a0;
                peak_live = source.inner().peak_live_sessions();
                observed.next = source.next;
                observed.handle = source.handle;
                observed.handle_samples = std::mem::take(&mut source.handle_samples);
                observed.events = source
                    .arrivals
                    .iter()
                    .map(|r| Ev::Arrival {
                        at: r.arrival_us,
                        id: r.id,
                    })
                    .collect();
                observed.arrivals = source.arrivals;
            }
        }
        let (sim, fingerprint, events_total, shed_events, depth) = daemon_summary(&report);
        observed.events_total = events_total;
        observed.shed_events = shed_events;
        let mut mech = daemon_mechanism(&report);
        mech.live_sessions_peak = peak_live;
        mech.queue_depth_mean = depth;
        let failures = daemon_checks(&report);
        if probe.is_some_and(|m| m.record) {
            observed.recorders = report.recorders;
        }
        observed.scheds = take_stats(&out);
        PassOut {
            arrivals: sim.arrivals,
            wall_ns,
            lanes,
            serial_ns: 0.0,
            allocs,
            sim,
            fingerprint,
            failures,
            mech,
            observed,
        }
    }

    fn member_config(&self) -> CascadeConfig {
        CascadeConfig::paper_default(1, CYLINDERS)
            .with_dispatch(DispatchConfig::paper_default().with_max_queue(16))
    }

    fn farm_config(&self) -> FarmConfig {
        FarmConfig::new(4)
            .with_policy(RoutePolicy::LeastLoaded)
            .with_redirects()
    }

    fn options(&self) -> SimOptions {
        SimOptions::with_shape(1, 4).dropping()
    }

    fn gate(&self) -> Option<(u32, u64)> {
        Some((768, 5_000_000))
    }

    fn recorder(&self) -> Option<(usize, TelemetryConfig, TriggerConfig)> {
        Some(recorder_shape(TelemetryConfig::exact()))
    }
}

// ----------------------------------------------------------- poisson_overload

pub struct PoissonOverload {
    pub trace: Vec<Request>,
}

impl PoissonOverload {
    pub fn new(seed: u64, requests: usize, mean_interarrival_us: u64) -> Self {
        let mut cfg = PoissonConfig::figure8(requests);
        cfg.mean_interarrival_us = mean_interarrival_us;
        PoissonOverload {
            trace: cfg.generate(seed),
        }
    }
}

/// Span of the shards' lifetimes, from the wrappers' own clocks.
fn parallel_wall(scheds: &[SchedStats]) -> f64 {
    let start = scheds.iter().filter_map(|s| s.born).min();
    let end = scheds.iter().filter_map(|s| s.died).max();
    match (start, end) {
        (Some(a), Some(b)) => b.duration_since(a).as_nanos() as f64,
        _ => 0.0,
    }
}

/// The batch farm's accounting: every arrival routed once, and each
/// shard's routed requests end served, dropped, failed or shed.
fn farm_checks(outcome: &FarmOutcome, snap: &Snapshot, arrivals: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let routed: u64 = outcome.routed_per_shard.iter().sum();
    if routed != arrivals {
        failures.push(format!("farm routed {routed} of {arrivals} arrivals"));
    }
    for (s, m) in outcome.per_shard.iter().enumerate() {
        let accounted = m.requests_total() + outcome.sheds_per_shard[s];
        if accounted != outcome.routed_per_shard[s] {
            failures.push(format!(
                "shard {s}: {accounted} accounted of {} routed",
                outcome.routed_per_shard[s]
            ));
        }
    }
    if snap.counters.arrivals != arrivals {
        failures.push(format!(
            "arrival events {} != arrivals {arrivals}",
            snap.counters.arrivals
        ));
    }
    if snap.counters.sheds != outcome.sheds() {
        failures.push(format!(
            "shed events {} != sheds {}",
            snap.counters.sheds,
            outcome.sheds()
        ));
    }
    failures
}

impl Workload for PoissonOverload {
    fn pass(&self, probe: Option<Mode>) -> PassOut {
        self.run(&self.trace, probe)
    }

    fn warm_up(&self) {
        self.run(warm_prefix(&self.trace), None);
    }

    /// A 3-D Hilbert SFC1 at 2^21 levels per dimension, a Hilbert SFC2
    /// over (priority, deadline), the paper's SFC3 and dispatcher, no
    /// queue bound.
    fn member_config(&self) -> CascadeConfig {
        let mut cfg = CascadeConfig::paper_default(3, CYLINDERS);
        cfg.stage1 = Some(Stage1 {
            curve: CurveKind::Hilbert,
            dims: 3,
            level_bits: 21,
        });
        if let Some(s2) = &mut cfg.stage2 {
            s2.combiner = Stage2Combiner::Curve(CurveKind::Hilbert);
        }
        cfg
    }

    fn farm_config(&self) -> FarmConfig {
        FarmConfig::new(2).with_parallelism(Parallelism::threads(2))
    }

    fn options(&self) -> SimOptions {
        SimOptions::with_shape(3, 8).dropping()
    }

    fn gate(&self) -> Option<(u32, u64)> {
        None
    }

    fn recorder(&self) -> Option<(usize, TelemetryConfig, TriggerConfig)> {
        None
    }

    fn batch_trace(&self) -> Option<&[Request]> {
        Some(&self.trace)
    }
}

impl PoissonOverload {
    fn run(&self, trace: &[Request], probe: Option<Mode>) -> PassOut {
        let out = StatsSink::default();
        let cfg = self.farm_config();
        let member = self.member_config();
        let options = self.options();
        let plain = Mode::is_plain(probe);
        // Plain passes too: the wrapper notes each shard's slice marks.
        let mode = probe.unwrap_or_else(Mode::plain);
        let make = |shard: usize| -> Box<dyn DiskScheduler> {
            let s = CascadedSfc::new(member.clone()).expect("valid cascade config");
            Box::new(ProbedScheduler::new(Box::new(s), shard, mode, out.clone()))
        };
        let mut observed = Observed::default();
        let a0 = alloc::total();
        let t = Instant::now();
        let (outcome, snap) = match probe {
            Some(Mode {
                timing: true,
                clock,
                ..
            }) => {
                let (outcome, sinks) = farm::simulate_farm_traced(
                    trace,
                    &cfg,
                    make,
                    options,
                    |_| DiskService::table1(),
                    |_| ProbedSink::new(Snapshot::new(), clock),
                );
                let mut snap = Snapshot::new();
                for s in &sinks {
                    snap.merge(&s.inner);
                    observed.sink_emit.merge(&s.emit);
                }
                (outcome, snap)
            }
            _ => farm::simulate_farm(trace, &cfg, make, options),
        };
        let wall_ns = t.elapsed().as_nanos() as f64;
        let allocs = alloc::total() - a0;
        let failures = farm_checks(&outcome, &snap, trace.len() as u64);
        observed.scheds = take_stats(&out);
        observed.parallel_wall_ns = parallel_wall(&observed.scheds);
        let lanes = if plain {
            observed
                .scheds
                .iter()
                .map(|s| crate::wrap::slices(&s.marks, s.busy_ns()))
                .collect()
        } else {
            Vec::new()
        };
        if probe.is_some_and(|m| m.record) {
            observed.arrivals = trace.to_vec();
        }
        observed.events_total = snap.counters.total_events();
        let sim = SimSummary::new(
            &outcome.per_shard,
            trace.len() as u64,
            outcome.sheds(),
            0,
            0,
            snap.response_us.clone(),
        );
        let fingerprint = fingerprint(&(
            &outcome.per_shard,
            &outcome.sheds_per_shard,
            &outcome.routed_per_shard,
            outcome.redirects,
            &snap,
        ));
        PassOut {
            arrivals: trace.len() as u64,
            wall_ns,
            lanes,
            serial_ns: wall_ns - observed.parallel_wall_ns,
            allocs,
            sim,
            fingerprint,
            failures,
            mech: Mechanism {
                sheds: outcome.sheds(),
                redirects: outcome.redirects,
                queue_depth_mean: snap.queue_depth.mean(),
                ..Mechanism::default()
            },
            observed,
        }
    }
}

// ---------------------------------------------------------------- tuned_churn

/// The detuned start: deadline-blind, unpartitioned, fully preemptive.
const DETUNED: GridPoint = GridPoint {
    f: 0.0,
    r: 1,
    w: 0.0,
};
const TUNED_SHARDS: usize = 4;
const TUNED_MAX_QUEUE: usize = 24;
const CADENCE: usize = 16;
const HANDOFF_US: u64 = 50_000;

pub struct TunedChurn {
    pub trace: Vec<Request>,
}

impl TunedChurn {
    /// `segments` back-to-back VoD populations of `streams` streams,
    /// `segment_us` each: every segment draws fresh stream levels, phases
    /// and cylinders, so one seed's run averages over several
    /// populations instead of riding on one.
    pub fn new(seed: u64, streams: u32, segments: u64, segment_us: u64) -> Self {
        let mut wl = VodConfig::mpeg1(streams);
        wl.duration_us = segment_us;
        let parts = (0..segments)
            .map(|k| {
                let mut part = wl.generate(seed.wrapping_mul(segments).wrapping_add(k));
                for r in &mut part {
                    r.arrival_us += k * segment_us;
                    r.deadline_us += k * segment_us;
                    r.stream += k * u64::from(streams);
                }
                part
            })
            .collect();
        TunedChurn {
            trace: workload::merge_traces(parts),
        }
    }

    fn telemetry() -> TelemetryConfig {
        TelemetryConfig::exact().window_log2(19).depth(2)
    }
}

impl Workload for TunedChurn {
    fn pass(&self, probe: Option<Mode>) -> PassOut {
        self.run(&self.trace, probe)
    }

    fn warm_up(&self) {
        self.run(warm_prefix(&self.trace), None);
    }

    /// The paper's 1-D VoD cascade at the detuned grid point, with a
    /// bounded queue so overload sheds.
    fn member_config(&self) -> CascadeConfig {
        let mut cfg = CascadeConfig::paper_default(1, CYLINDERS)
            .with_dispatch(DispatchConfig::paper_default().with_max_queue(TUNED_MAX_QUEUE));
        if let Some(s2) = cfg.stage2.as_mut() {
            s2.combiner = Stage2Combiner::Weighted { f: DETUNED.f };
        }
        if let Some(s3) = cfg.stage3.as_mut() {
            s3.partitions = DETUNED.r;
        }
        cfg.dispatch.mode = PreemptionMode::Conditional { window: DETUNED.w };
        cfg
    }

    fn farm_config(&self) -> FarmConfig {
        FarmConfig::new(TUNED_SHARDS)
            .with_policy(RoutePolicy::HashStream)
            .with_redirects()
    }

    fn options(&self) -> SimOptions {
        SimOptions::with_shape(1, 8).dropping()
    }

    fn gate(&self) -> Option<(u32, u64)> {
        None
    }

    fn recorder(&self) -> Option<(usize, TelemetryConfig, TriggerConfig)> {
        Some(recorder_shape(Self::telemetry()))
    }
}

impl TunedChurn {
    fn run(&self, trace: &[Request], probe: Option<Mode>) -> PassOut {
        let out = StatsSink::default();
        let member = self.member_config();
        let probe_pair = probe.map(|m| (m, out.clone()));
        let mut daemon = FarmDaemon::new(
            DaemonConfig::new(self.farm_config(), self.options())
                .with_telemetry(Self::telemetry(), TriggerConfig::default()),
            move |shard, sink: SharedSink<FlightRecorder>| {
                let s = CascadedSfc::with_sink(member.clone(), sink).expect("valid cascade config");
                probed(Box::new(s), shard, &probe_pair)
            },
            |_| DiskService::table1(),
        );
        // The search seed is the controller's own default: only the trace
        // comes from the workload seed.
        let mut controller = Controller::new(
            TUNED_SHARDS,
            ControllerConfig {
                seed_point: DETUNED,
                ..ControllerConfig::default()
            },
        );
        let n = trace.len();
        let (drain_from, add_at) = (n * 2 / 5, n * 3 / 5);
        let timing = probe.is_some_and(|m| m.timing);
        let record = probe.is_some_and(|m| m.record);
        let clock = probe.map(|m| m.clock);
        let mut ob = Observed::default();
        let mut source = VecSource::new(trace.to_vec());

        // Times one call when the pass is timed.
        macro_rules! timed {
            ($span:expr, $call:expr) => {{
                if timing {
                    let open = $span.begin();
                    let r = $call;
                    $span.end(open, clock.as_ref().expect("timed passes carry a clock"));
                    r
                } else {
                    $call
                }
            }};
        }

        let plain = Mode::is_plain(probe);
        let mut marks = Vec::new();
        let a0 = alloc::total();
        let t0 = Instant::now();
        let mut drained = false;
        let mut i = 0usize;
        while let Some(r) = timed!(ob.next, source.next()) {
            let t = r.arrival_us;
            if plain && i > 0 && (i as u64).is_multiple_of(SLICE) {
                marks.push(t0.elapsed().as_nanos() as f64);
            }
            // Drain the first shard in rotation. A quarantined shard gets
            // no new arrivals, so once reinstated it may have nothing left
            // to migrate; with none in rotation, retry at the next arrival.
            let in_rotation = (1..TUNED_SHARDS).find(|&s| daemon.status(s) == MemberStatus::Active);
            if let Some(shard) = in_rotation.filter(|_| i >= drain_from && !drained) {
                timed!(
                    ob.handle,
                    daemon.handle(DaemonEvent::DrainShard {
                        at_us: t,
                        shard,
                        handoff_window_us: HANDOFF_US,
                    })
                );
                if let MemberStatus::Draining { close_at_us } = daemon.status(shard) {
                    drained = true;
                    if record {
                        ob.events.push(Ev::Drain {
                            at: t,
                            shard,
                            close: close_at_us,
                        });
                    }
                } else if record {
                    ob.events.push(Ev::Tick(t));
                }
            }
            if i == add_at {
                timed!(ob.handle, daemon.handle(DaemonEvent::AddShard { at_us: t }));
                if record {
                    ob.events.push(Ev::Add(t));
                }
            }
            if record {
                ob.events.push(Ev::Arrival { at: t, id: r.id });
                ob.arrivals.push(r.clone());
            }
            if let Some(clock) = clock.filter(|_| timing) {
                let open = ob.handle.begin();
                daemon.handle(DaemonEvent::Arrival(r));
                ob.handle_samples.push(ob.handle.end(open, &clock));
            } else {
                daemon.handle(DaemonEvent::Arrival(r));
            }
            i += 1;
            if i.is_multiple_of(CADENCE) {
                for delta in timed!(ob.deltas, daemon.take_shard_deltas()) {
                    timed!(ob.observe, controller.observe(&delta));
                }
                let actions = timed!(ob.decide, controller.decide(t));
                ob.acting_decisions += u64::from(!actions.is_empty());
                for action in actions {
                    timed!(ob.handle, daemon.handle(action.into_event(t)));
                    if record {
                        ob.events.push(Ev::Tick(t));
                    }
                }
            }
        }
        let report = timed!(ob.shutdown, daemon.shutdown());
        let wall_ns = t0.elapsed().as_nanos() as f64;
        let allocs = alloc::total() - a0;

        let (sim, fingerprint, events_total, shed_events, depth) = daemon_summary(&report);
        let fingerprint = fingerprint ^ controller.fingerprint();
        ob.events_total = events_total;
        ob.shed_events = shed_events;
        let mut mech = daemon_mechanism(&report);
        mech.queue_depth_mean = depth;
        let failures = daemon_checks(&report);
        if record {
            ob.recorders = report.recorders;
        }
        ob.scheds = take_stats(&out);
        PassOut {
            arrivals: sim.arrivals,
            wall_ns,
            lanes: if plain {
                vec![crate::wrap::slices(&marks, wall_ns)]
            } else {
                Vec::new()
            },
            serial_ns: 0.0,
            allocs,
            sim,
            fingerprint,
            failures,
            mech,
            observed: ob,
        }
    }
}
