//! Perf-regression gate: eight microbenchmark workloads measured
//! best-of-N, reported as `BENCH_sched.json`, and checked against the
//! committed baseline in CI.
//!
//! The eight numbers cover the stack's hot paths:
//!
//! * **dispatch throughput** — enqueue/dequeue interleave through the
//!   optimized [`CascadedSfc`] on the Figure-8 Poisson workload
//!   (ops/s; higher is better),
//! * **engine rate** — a full discrete-event simulation (arrivals,
//!   cascade, disk model) of the Figure-8 workload end to end
//!   (requests/s; higher is better),
//! * **farm routing rate** — [`farm::route_trace`] with redirects over a
//!   VoD trace on 8 shards (requests/s; higher is better),
//! * **daemon rate** — the continuous-operation [`farm::FarmDaemon`]
//!   (online routing, admission, per-member steppers, supervision
//!   bookkeeping) fed an arrivals-only VoD event stream end to end
//!   (requests/s; higher is better),
//! * **controller decision rate** — the self-tuning control plane's
//!   steady-state observe→score→propose loop over the default search
//!   grid (windows scored/s; higher is better),
//! * **scenario session rate** — the closed-loop scenario harness
//!   ([`crate::scenario`]: session population, think times, admission
//!   gate, farm daemon) driven end to end at a reduced population
//!   (sessions/s; higher is better),
//! * **batched characterization throughput** — the 8-lane
//!   [`sfc::CurveKernel::index_batch`] pass over the order-21 3-D
//!   Hilbert grid, the lane-stepped `u64` automaton fast path
//!   (points/s; higher is better),
//! * **SFC mapping latency** — `Hilbert(3 dims, 2^7 side)` index
//!   mapping (ns/op; lower is better).
//!
//! The JSON is hand-rolled (no serde in the tree): a flat object of
//! `f64` fields plus a schema tag. The parser is forward-compatible:
//! unknown keys are ignored and a *missing* metric only produces a
//! warning (the gate skips it), so an older baseline keeps gating the
//! metrics it has while a new one is being established. [`check`] fails
//! when any metric regresses past the tolerance (default 20%);
//! improvements never fail, so the committed baseline only needs
//! refreshing when the code gets deliberately faster.

use std::hint::black_box;
use std::time::Instant;

use cascade::{CascadeConfig, CascadedSfc};
use farm::{route_trace, DaemonConfig, DaemonEvent, FarmConfig, FarmDaemon, RoutePolicy};
use obs::{NullSink, TelemetryConfig, TraceSink};
use sched::{DiskScheduler, Fcfs, HeadState, Request};
use sfc::{CurveKernel, CurveKind, Hilbert, SpaceFillingCurve};
use sim::{simulate, simulate_traced, DiskService, SimOptions};
use workload::{PoissonConfig, VodConfig};

/// The measured (or baseline) perf numbers. A `NaN` field in a parsed
/// baseline means the metric was absent from the file (see
/// [`PerfReport::from_json`]); [`check`] skips such metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfReport {
    /// Cascaded-SFC enqueue+dequeue operations per second.
    pub dispatch_ops_per_s: f64,
    /// Full simulation-engine throughput in requests per second.
    pub engine_reqs_per_s: f64,
    /// Farm routing pass throughput in requests per second.
    pub routing_reqs_per_s: f64,
    /// Continuous-operation daemon throughput in requests per second.
    pub daemon_reqs_per_s: f64,
    /// Controller decision throughput (windows scored per second).
    pub ctrl_decisions_per_s: f64,
    /// Closed-loop scenario throughput (sessions driven per second).
    pub scenario_sessions_per_s: f64,
    /// Lane-parallel batched characterization throughput (points/s).
    pub characterize_batch_pts_per_s: f64,
    /// Hilbert index mapping latency in nanoseconds per op.
    pub sfc_ns_per_op: f64,
}

/// Schema tag embedded in the JSON so a stale baseline file is rejected
/// rather than silently mis-read.
pub const SCHEMA: &str = "bench-sched-v1";

impl PerfReport {
    /// Serialize as the committed `BENCH_sched.json` format.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \
             \"dispatch_ops_per_s\": {:.1},\n  \
             \"engine_reqs_per_s\": {:.1},\n  \
             \"routing_reqs_per_s\": {:.1},\n  \
             \"daemon_reqs_per_s\": {:.1},\n  \
             \"ctrl_decisions_per_s\": {:.1},\n  \
             \"scenario_sessions_per_s\": {:.1},\n  \
             \"characterize_batch_pts_per_s\": {:.1},\n  \
             \"sfc_ns_per_op\": {:.3}\n}}\n",
            self.dispatch_ops_per_s,
            self.engine_reqs_per_s,
            self.routing_reqs_per_s,
            self.daemon_reqs_per_s,
            self.ctrl_decisions_per_s,
            self.scenario_sessions_per_s,
            self.characterize_batch_pts_per_s,
            self.sfc_ns_per_op
        )
    }

    /// Parse the `BENCH_sched.json` format written by [`Self::to_json`].
    ///
    /// Forward-compatible by construction: keys this build does not know
    /// are ignored, and a known key missing from the file yields a
    /// warning plus a `NaN` field instead of an error, so baselines and
    /// binaries can evolve independently. Only a schema-tag mismatch is
    /// fatal.
    pub fn from_json(text: &str) -> Result<(PerfReport, Vec<String>), String> {
        if !text.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
            return Err(format!("baseline is not a {SCHEMA} file"));
        }
        let mut warnings = Vec::new();
        let mut field = |key: &str| match json_f64(text, key) {
            Ok(v) => v,
            Err(e) => {
                warnings.push(format!("baseline: {e} — metric will be skipped"));
                f64::NAN
            }
        };
        let report = PerfReport {
            dispatch_ops_per_s: field("dispatch_ops_per_s"),
            engine_reqs_per_s: field("engine_reqs_per_s"),
            routing_reqs_per_s: field("routing_reqs_per_s"),
            daemon_reqs_per_s: field("daemon_reqs_per_s"),
            ctrl_decisions_per_s: field("ctrl_decisions_per_s"),
            scenario_sessions_per_s: field("scenario_sessions_per_s"),
            characterize_batch_pts_per_s: field("characterize_batch_pts_per_s"),
            sfc_ns_per_op: field("sfc_ns_per_op"),
        };
        Ok((report, warnings))
    }
}

/// Extract a numeric field from a flat hand-rolled JSON object.
fn json_f64(text: &str, key: &str) -> Result<f64, String> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle).ok_or_else(|| format!("missing {key}"))?;
    let rest = &text[at + needle.len()..];
    let rest = rest
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("malformed value near {key}"))?;
    let value: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    value
        .parse()
        .map_err(|_| format!("cannot parse {key} value {value:?}"))
}

/// Dispatch throughput: interleaved enqueue/dequeue bursts through the
/// optimized cascade on the Figure-8 workload. Returns ops/s.
fn bench_dispatch(seed: u64) -> f64 {
    let trace = PoissonConfig::figure8(4_000).generate(seed);
    let cfg = CascadeConfig::paper_default(3, 3832);
    let mut s = CascadedSfc::new(cfg).expect("valid cascade config");
    let head = HeadState::new(0, 0, 3832);
    let pending = trace.clone();

    let mut ops = 0u64;
    let start = Instant::now();
    for chunk in pending.chunks(8) {
        for r in chunk {
            s.enqueue(r.clone(), &head);
            ops += 1;
        }
        for _ in 0..4 {
            if let Some(r) = s.dequeue(&head) {
                black_box(r.id);
                ops += 1;
            }
        }
    }
    while let Some(r) = s.dequeue(&head) {
        black_box(r.id);
        ops += 1;
    }
    ops as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Engine rate: run the whole discrete-event loop — batched arrival
/// delivery, cascade scheduling, seek/rotation/transfer accounting —
/// over a Figure-8 trace against the Table-1 disk. Returns requests/s.
fn bench_engine(seed: u64) -> f64 {
    let trace = PoissonConfig::figure8(6_000).generate(seed);
    let mut s = CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).expect("valid config");
    let mut service = DiskService::table1();
    let options = SimOptions::with_shape(3, 16)
        .dropping()
        .without_inversions();

    let start = Instant::now();
    let m = simulate(&mut s, &trace, &mut service, options);
    black_box(m.served);
    trace.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Farm routing rate: the serial model-driven placement pass with
/// redirects over a VoD trace on 8 shards. Returns requests/s.
fn bench_routing(seed: u64) -> f64 {
    let mut wl = VodConfig::mpeg1(48);
    wl.duration_us = 4_000_000;
    let trace = wl.generate(seed);
    let cfg = FarmConfig::new(8)
        .with_policy(RoutePolicy::LeastLoaded)
        .with_redirects();
    let caps = vec![Some(64); 8];

    let start = Instant::now();
    let placement = route_trace(&trace, &cfg, &caps, &mut NullSink);
    black_box(placement.redirects);
    trace.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Daemon rate: the whole continuous-operation stack — online routing,
/// the admission gate, per-member engine steppers and supervision
/// bookkeeping — fed an arrivals-only VoD event stream on 4 shards.
/// Returns requests/s.
fn bench_daemon(seed: u64) -> f64 {
    let mut wl = VodConfig::mpeg1(48);
    wl.duration_us = 4_000_000;
    let trace = wl.generate(seed);
    let cfg = FarmConfig::new(4).with_policy(RoutePolicy::LeastLoaded);
    let options = SimOptions::with_shape(1, 8).dropping().without_inversions();
    let daemon = FarmDaemon::new(
        DaemonConfig::new(cfg, options),
        |_, _| Box::new(Fcfs::new()),
        |_| DiskService::table1(),
    );

    let start = Instant::now();
    let report = daemon.run(trace.iter().cloned().map(DaemonEvent::Arrival));
    black_box(report.served());
    trace.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Controller decision rate: a 4-shard [`ctrl::Controller`] over the
/// default 336-point grid fed one painful pre-built telemetry window
/// per shard per round, scoring and searching on every round (the
/// steady-state observe→score→propose loop, including the farm-wide
/// policy table). Returns windows scored per second.
fn bench_ctrl(seed: u64) -> f64 {
    use obs::{ShardDelta, Snapshot, TraceEvent, TraceSink, WindowDelta};
    let mut snapshot = Snapshot::new();
    for id in 0..24u64 {
        snapshot.emit(&TraceEvent::ServiceComplete {
            now_us: id * 1_000,
            req: id,
            response_us: 40_000,
            late: id % 3 == 0,
        });
    }
    let shards = 4usize;
    let deltas: Vec<ShardDelta> = (0..shards)
        .map(|shard| ShardDelta {
            shard,
            delta: WindowDelta {
                epoch: 0,
                start_us: 0,
                window_us: 1 << 19,
                partial: false,
                snapshot: snapshot.clone(),
            },
        })
        .collect();
    let mut controller = ctrl::Controller::new(
        shards,
        ctrl::ControllerConfig {
            search: ctrl::SearchConfig {
                seed,
                ..Default::default()
            },
            policies: vec![RoutePolicy::HashStream, RoutePolicy::LeastLoaded],
            ..Default::default()
        },
    );
    let rounds = 4_000u64;
    let start = Instant::now();
    for round in 0..rounds {
        for delta in &deltas {
            controller.observe(delta);
        }
        black_box(controller.decide((round + 1) << 19).len());
    }
    controller.decisions() as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Scenario session rate: the whole closed-loop stack — the session
/// population with think times and backpressure, the admission gate,
/// routing, per-member steppers — at a 20k-session population (the
/// scenario smoke gate's own test scale). Returns sessions/s.
fn bench_scenario(seed: u64) -> f64 {
    let cfg = crate::scenario::Config {
        seed,
        sessions: 20_000,
        horizon_us: 432_000_000,
        ..Default::default()
    };
    let start = Instant::now();
    let (report, started, ..) = crate::scenario::closed_loop(&cfg);
    black_box(report.served());
    started as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Batched 3-D Hilbert characterization throughput:
/// [`CurveKernel::index_batch`] over a pre-generated point set on the
/// order-21 grid (the `u64` lane-automaton fast path, the finest 3-D
/// shape that fits it) vs the per-point scalar `index` on the identical
/// points. Returns `(batch, scalar)` in points/s; the report keeps the
/// batch number, the perf binary prints the ratio.
fn bench_characterize(seed: u64) -> (f64, f64) {
    let bits = 21u32;
    let kernel = CurveKernel::build(CurveKind::Hilbert, 3, bits).expect("valid hilbert shape");
    let side = 1u64 << bits;
    // splitmix64 point stream, generated outside the timed region.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let points: Vec<[u64; 3]> = (0..1 << 15)
        .map(|_| [next() % side, next() % side, next() % side])
        .collect();
    let rounds = 8u32;
    let pts = points.len() as f64;

    // Time each round separately and keep the best: on a shared host a
    // background-tenant stall mid-block would otherwise drag the whole
    // measurement, and it can hit either side.
    let mut out = vec![0u128; points.len()];
    let (mut batch, mut scalar) = (0.0f64, 0.0f64);
    for _ in 0..rounds {
        let start = Instant::now();
        kernel.index_batch(&points, &mut out);
        black_box(out.last().copied());
        batch = batch.max(pts / start.elapsed().as_secs_f64().max(1e-9));

        let start = Instant::now();
        let mut acc = 0u128;
        for p in &points {
            acc ^= kernel.index(p);
        }
        black_box(acc);
        scalar = scalar.max(pts / start.elapsed().as_secs_f64().max(1e-9));
    }
    (batch, scalar)
}

/// Measure the batch-vs-scalar characterization speedup, best of
/// `samples` interleaved pairs, and return the comparison line the perf
/// binary prints next to the JSON. Both sides of the pair run in the
/// same process on the identical points, so the ratio is self-relative
/// and machine-independent.
pub fn measure_speedups(seed: u64, samples: u32) -> Vec<String> {
    let samples = samples.max(1);
    let mut ch = (0.0f64, 0.0f64);
    for _ in 0..samples {
        let (batch, scalar) = bench_characterize(seed);
        ch.0 = ch.0.max(batch);
        ch.1 = ch.1.max(scalar);
    }
    vec![format!(
        "characterize: batch {:.0} pts/s vs scalar {:.0} pts/s (x{:.2})",
        ch.0,
        ch.1,
        ch.0 / ch.1.max(1e-9)
    )]
}

/// SFC mapping latency: Hilbert index over 3 dims with side 128, on
/// pseudo-random pre-generated points. Returns ns/op.
fn bench_sfc(seed: u64) -> f64 {
    let curve = Hilbert::new(3, 7).expect("valid hilbert shape");
    let side = curve.side();
    // splitmix64 point stream, generated outside the timed region.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let points: Vec<[u64; 3]> = (0..1 << 16)
        .map(|_| [next() % side, next() % side, next() % side])
        .collect();

    let start = Instant::now();
    for p in &points {
        black_box(curve.index(p));
    }
    start.elapsed().as_nanos() as f64 / points.len() as f64
}

/// Measure all nine workloads, best of `samples` runs each (best-of-N
/// filters scheduler noise: the fastest run is the least perturbed).
pub fn measure(seed: u64, samples: u32) -> PerfReport {
    let samples = samples.max(1);
    let best = |f: &dyn Fn() -> f64, higher_is_better: bool| {
        (0..samples)
            .map(|_| f())
            .fold(None::<f64>, |acc, x| match acc {
                None => Some(x),
                Some(a) if higher_is_better => Some(a.max(x)),
                Some(a) => Some(a.min(x)),
            })
            .unwrap_or(0.0)
    };
    PerfReport {
        dispatch_ops_per_s: best(&|| bench_dispatch(seed), true),
        engine_reqs_per_s: best(&|| bench_engine(seed), true),
        routing_reqs_per_s: best(&|| bench_routing(seed), true),
        daemon_reqs_per_s: best(&|| bench_daemon(seed), true),
        ctrl_decisions_per_s: best(&|| bench_ctrl(seed), true),
        scenario_sessions_per_s: best(&|| bench_scenario(seed), true),
        characterize_batch_pts_per_s: best(&|| bench_characterize(seed).0, true),
        sfc_ns_per_op: best(&|| bench_sfc(seed), false),
    }
}

/// Telemetry off-vs-on throughput on the two hot paths the live sink
/// instruments. Both sides of each pair run the identical workload in
/// the same process; the ratio is self-relative, so the overhead gate
/// does not depend on a committed baseline or on machine speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Engine throughput with the disabled [`NullSink`] (requests/s).
    pub engine_null_reqs_per_s: f64,
    /// Engine throughput with the default live windowed sink.
    pub engine_live_reqs_per_s: f64,
    /// Dispatch throughput with the disabled [`NullSink`] (ops/s).
    pub dispatch_null_ops_per_s: f64,
    /// Dispatch throughput with the default live windowed sink.
    pub dispatch_live_ops_per_s: f64,
}

impl OverheadReport {
    /// Fractional engine slowdown with telemetry on (0.05 = 5% slower).
    pub fn engine_overhead(&self) -> f64 {
        self.engine_null_reqs_per_s / self.engine_live_reqs_per_s.max(1e-9) - 1.0
    }

    /// Fractional dispatch slowdown with telemetry on.
    pub fn dispatch_overhead(&self) -> f64 {
        self.dispatch_null_ops_per_s / self.dispatch_live_ops_per_s.max(1e-9) - 1.0
    }
}

/// The overhead-gate workload: the Figure-8 Poisson mix pushed to ~78%
/// utilization (near saturation — the paper's interesting regime, and
/// the regime where per-request scheduling work is largest, so the gate
/// measures telemetry against a realistic denominator rather than an
/// artificially cheap drop-everything loop).
fn overhead_trace(seed: u64) -> Vec<Request> {
    let mut cfg = PoissonConfig::figure8(60_000);
    cfg.mean_interarrival_us = 18_000;
    cfg.generate(seed)
}

fn overhead_engine_run<S: TraceSink>(trace: &[Request], sink: &mut S) -> f64 {
    let mut s = CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).expect("valid config");
    let mut service = DiskService::table1();
    let options = SimOptions::with_shape(3, 16).dropping();
    let start = Instant::now();
    let m = simulate_traced(&mut s, trace, &mut service, options, sink);
    black_box(m.served);
    trace.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn overhead_dispatch_run<S: TraceSink>(trace: &[Request], sink: S) -> f64 {
    let mut s =
        CascadedSfc::with_sink(CascadeConfig::paper_default(3, 3832), sink).expect("valid config");
    let head = HeadState::new(0, 0, 3832);
    let mut ops = 0u64;
    let start = Instant::now();
    for chunk in trace.chunks(8) {
        for r in chunk {
            s.enqueue(r.clone(), &head);
            ops += 1;
        }
        for _ in 0..4 {
            if let Some(r) = s.dequeue(&head) {
                black_box(r.id);
                ops += 1;
            }
        }
    }
    while let Some(r) = s.dequeue(&head) {
        black_box(r.id);
        ops += 1;
    }
    ops as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Measure telemetry overhead, best of `samples` *interleaved* pairs:
/// each round runs the off and on variants back to back, so slow drift
/// (thermal, cache, scheduler) perturbs both sides alike and the
/// best-of ratio stays honest on noisy single-core machines. One
/// untimed warmup round first faults in the traces and code paths, so
/// cold-start cost never lands asymmetrically on either side.
pub fn measure_overhead(seed: u64, samples: u32) -> OverheadReport {
    let samples = samples.max(1);
    let trace = overhead_trace(seed);
    let dispatch_trace = PoissonConfig::figure8(8_000).generate(seed);
    black_box(overhead_engine_run(&trace, &mut NullSink));
    black_box(overhead_engine_run(
        &trace,
        &mut TelemetryConfig::default().sink(),
    ));
    black_box(overhead_dispatch_run(&dispatch_trace, NullSink));
    black_box(overhead_dispatch_run(
        &dispatch_trace,
        TelemetryConfig::default().sink(),
    ));
    let mut report = OverheadReport {
        engine_null_reqs_per_s: 0.0,
        engine_live_reqs_per_s: 0.0,
        dispatch_null_ops_per_s: 0.0,
        dispatch_live_ops_per_s: 0.0,
    };
    for _ in 0..samples {
        report.engine_null_reqs_per_s = report
            .engine_null_reqs_per_s
            .max(overhead_engine_run(&trace, &mut NullSink));
        let mut live = TelemetryConfig::default().sink();
        report.engine_live_reqs_per_s = report
            .engine_live_reqs_per_s
            .max(overhead_engine_run(&trace, &mut live));
        black_box(live.cumulative().counters.arrivals);
        report.dispatch_null_ops_per_s = report
            .dispatch_null_ops_per_s
            .max(overhead_dispatch_run(&dispatch_trace, NullSink));
        report.dispatch_live_ops_per_s = report.dispatch_live_ops_per_s.max(overhead_dispatch_run(
            &dispatch_trace,
            TelemetryConfig::default().sink(),
        ));
    }
    report
}

/// Gate a measured [`OverheadReport`] against a fractional `budget`
/// (0.05 = telemetry may cost at most 5% of NullSink throughput). On
/// failure the `Err` still carries every line, so the CI log shows both
/// paths' numbers.
pub fn check_overhead(report: &OverheadReport, budget: f64) -> Result<Vec<String>, Vec<String>> {
    let mut lines = Vec::new();
    let mut over = false;
    let mut gauge = |name: &str, null: f64, live: f64, overhead: f64| {
        let ok = overhead <= budget;
        over |= !ok;
        lines.push(format!(
            "{name}: off {null:.0}/s, on {live:.0}/s, overhead {:+.2}% (budget {:.1}%) {}",
            overhead * 100.0,
            budget * 100.0,
            if ok { "ok" } else { "OVER BUDGET" }
        ));
    };
    gauge(
        "engine",
        report.engine_null_reqs_per_s,
        report.engine_live_reqs_per_s,
        report.engine_overhead(),
    );
    gauge(
        "dispatch",
        report.dispatch_null_ops_per_s,
        report.dispatch_live_ops_per_s,
        report.dispatch_overhead(),
    );
    if over {
        Err(lines)
    } else {
        Ok(lines)
    }
}

/// Compare a fresh measurement against the committed baseline. A
/// throughput metric regresses when it falls below `(1 - tolerance)` of
/// the baseline; a latency metric when it rises above `(1 + tolerance)`.
/// A `NaN` baseline field (metric absent from the file) is skipped, not
/// failed. Returns the per-metric report lines; on failure, `Err` still
/// carries *every* line — old value, new value, ratio and signed delta —
/// so a CI log shows the whole picture, not just the regressed metric.
pub fn check(
    current: &PerfReport,
    baseline: &PerfReport,
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut lines = Vec::new();
    let mut regressed = false;
    let mut gauge = |name: &str, cur: f64, base: f64, higher_is_better: bool| {
        if base.is_nan() {
            lines.push(format!("{name}: {cur:.1} (no baseline — skipped)"));
            return;
        }
        let ratio = if base > 0.0 { cur / base } else { f64::NAN };
        let delta = (ratio - 1.0) * 100.0;
        let ok = if higher_is_better {
            cur >= base * (1.0 - tolerance)
        } else {
            cur <= base * (1.0 + tolerance)
        };
        let verdict = if ok { "ok" } else { "REGRESSED" };
        regressed |= !ok;
        lines.push(format!(
            "{name}: {cur:.1} vs baseline {base:.1} (x{ratio:.2}, {delta:+.1}%) {verdict}"
        ));
    };
    gauge(
        "dispatch_ops_per_s",
        current.dispatch_ops_per_s,
        baseline.dispatch_ops_per_s,
        true,
    );
    gauge(
        "engine_reqs_per_s",
        current.engine_reqs_per_s,
        baseline.engine_reqs_per_s,
        true,
    );
    gauge(
        "routing_reqs_per_s",
        current.routing_reqs_per_s,
        baseline.routing_reqs_per_s,
        true,
    );
    gauge(
        "daemon_reqs_per_s",
        current.daemon_reqs_per_s,
        baseline.daemon_reqs_per_s,
        true,
    );
    gauge(
        "ctrl_decisions_per_s",
        current.ctrl_decisions_per_s,
        baseline.ctrl_decisions_per_s,
        true,
    );
    gauge(
        "scenario_sessions_per_s",
        current.scenario_sessions_per_s,
        baseline.scenario_sessions_per_s,
        true,
    );
    gauge(
        "characterize_batch_pts_per_s",
        current.characterize_batch_pts_per_s,
        baseline.characterize_batch_pts_per_s,
        true,
    );
    gauge(
        "sfc_ns_per_op",
        current.sfc_ns_per_op,
        baseline.sfc_ns_per_op,
        false,
    );
    if regressed {
        Err(lines)
    } else {
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips() {
        let report = PerfReport {
            dispatch_ops_per_s: 1_234_567.8,
            engine_reqs_per_s: 456_789.1,
            routing_reqs_per_s: 98_765.4,
            daemon_reqs_per_s: 54_321.9,
            ctrl_decisions_per_s: 24_680.2,
            scenario_sessions_per_s: 13_579.5,
            characterize_batch_pts_per_s: 8_642_097.3,
            sfc_ns_per_op: 41.125,
        };
        let (back, warnings) = PerfReport::from_json(&report.to_json()).expect("roundtrip");
        assert!(warnings.is_empty(), "{warnings:?}");
        assert!((back.dispatch_ops_per_s - report.dispatch_ops_per_s).abs() < 0.1);
        assert!((back.engine_reqs_per_s - report.engine_reqs_per_s).abs() < 0.1);
        assert!((back.routing_reqs_per_s - report.routing_reqs_per_s).abs() < 0.1);
        assert!((back.daemon_reqs_per_s - report.daemon_reqs_per_s).abs() < 0.1);
        assert!((back.ctrl_decisions_per_s - report.ctrl_decisions_per_s).abs() < 0.1);
        assert!((back.scenario_sessions_per_s - report.scenario_sessions_per_s).abs() < 0.1);
        assert!(
            (back.characterize_batch_pts_per_s - report.characterize_batch_pts_per_s).abs() < 0.1
        );
        assert!((back.sfc_ns_per_op - report.sfc_ns_per_op).abs() < 0.001);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        assert!(PerfReport::from_json("{\"schema\": \"other\"}").is_err());
        assert!(PerfReport::from_json("{}").is_err());
    }

    #[test]
    fn unknown_keys_are_ignored_and_missing_keys_warn() {
        // A baseline from a *newer* build: an extra metric this build
        // doesn't know about must not disturb parsing.
        let newer = format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \
             \"dispatch_ops_per_s\": 10.0,\n  \
             \"engine_reqs_per_s\": 20.0,\n  \
             \"routing_reqs_per_s\": 30.0,\n  \
             \"daemon_reqs_per_s\": 35.0,\n  \
             \"ctrl_decisions_per_s\": 38.0,\n  \
             \"scenario_sessions_per_s\": 39.0,\n  \
             \"characterize_batch_pts_per_s\": 39.5,\n  \
             \"sfc_ns_per_op\": 40.0,\n  \
             \"future_metric_per_s\": 50.0\n}}\n"
        );
        let (r, warnings) = PerfReport::from_json(&newer).expect("unknown keys are fine");
        assert!(warnings.is_empty());
        assert_eq!(r.dispatch_ops_per_s, 10.0);
        // A baseline from an *older* build: the absent metric warns and
        // parses as NaN; check() then skips it instead of failing.
        let older = format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \
             \"dispatch_ops_per_s\": 1000.0,\n  \
             \"routing_reqs_per_s\": 1000.0,\n  \
             \"daemon_reqs_per_s\": 1000.0,\n  \
             \"ctrl_decisions_per_s\": 1000.0,\n  \
             \"scenario_sessions_per_s\": 1000.0,\n  \
             \"characterize_batch_pts_per_s\": 1000.0,\n  \
             \"sfc_ns_per_op\": 100.0\n}}\n"
        );
        let (base, warnings) = PerfReport::from_json(&older).expect("missing key is a warning");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("engine_reqs_per_s"));
        assert!(base.engine_reqs_per_s.is_nan());
        let current = PerfReport {
            dispatch_ops_per_s: 1000.0,
            engine_reqs_per_s: 123.0, // would regress against any number
            routing_reqs_per_s: 1000.0,
            daemon_reqs_per_s: 1000.0,
            ctrl_decisions_per_s: 1000.0,
            scenario_sessions_per_s: 1000.0,
            characterize_batch_pts_per_s: 1000.0,
            sfc_ns_per_op: 100.0,
        };
        let lines = check(&current, &base, 0.2).expect("NaN baseline is skipped");
        assert!(lines.iter().any(|l| l.contains("skipped")));
    }

    #[test]
    fn check_flags_only_true_regressions() {
        let base = PerfReport {
            dispatch_ops_per_s: 1000.0,
            engine_reqs_per_s: 1000.0,
            routing_reqs_per_s: 1000.0,
            daemon_reqs_per_s: 1000.0,
            ctrl_decisions_per_s: 1000.0,
            scenario_sessions_per_s: 1000.0,
            characterize_batch_pts_per_s: 1000.0,
            sfc_ns_per_op: 100.0,
        };
        // Improvements and in-tolerance dips pass.
        let fine = PerfReport {
            dispatch_ops_per_s: 850.0,
            engine_reqs_per_s: 1000.0,
            routing_reqs_per_s: 2000.0,
            daemon_reqs_per_s: 900.0,
            ctrl_decisions_per_s: 1100.0,
            scenario_sessions_per_s: 950.0,
            characterize_batch_pts_per_s: 1200.0,
            sfc_ns_per_op: 115.0,
        };
        assert!(check(&fine, &base, 0.2).is_ok());
        // A past-tolerance throughput drop fails, and the failure report
        // carries every metric's old/new/delta, not just the regressed one.
        let slow = PerfReport {
            dispatch_ops_per_s: 700.0,
            ..fine
        };
        let lines = check(&slow, &base, 0.2).unwrap_err();
        assert_eq!(lines.len(), 8);
        assert_eq!(lines.iter().filter(|l| l.contains("REGRESSED")).count(), 1);
        let bad = lines.iter().find(|l| l.contains("REGRESSED")).unwrap();
        assert!(bad.contains("dispatch_ops_per_s"));
        assert!(bad.contains("700.0") && bad.contains("1000.0"));
        assert!(bad.contains("-30.0%"));
        // …and so does a past-tolerance latency rise.
        let laggy = PerfReport {
            sfc_ns_per_op: 130.0,
            ..fine
        };
        assert!(check(&laggy, &base, 0.2).is_err());
    }

    #[test]
    fn overhead_gate_passes_within_budget_and_fails_over_it() {
        let report = OverheadReport {
            engine_null_reqs_per_s: 1000.0,
            engine_live_reqs_per_s: 970.0, // +3.1% overhead
            dispatch_null_ops_per_s: 1000.0,
            dispatch_live_ops_per_s: 990.0, // +1.0%
        };
        let lines = check_overhead(&report, 0.05).expect("within budget");
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.ends_with("ok")));
        // Telemetry *speeding things up* (noise) is never a failure.
        let noisy = OverheadReport {
            engine_live_reqs_per_s: 1010.0,
            ..report
        };
        assert!(check_overhead(&noisy, 0.05).is_ok());
        // Past-budget slowdown fails, and the report carries both paths.
        let slow = OverheadReport {
            engine_live_reqs_per_s: 900.0, // +11.1%
            ..report
        };
        let lines = check_overhead(&slow, 0.05).unwrap_err();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines.iter().filter(|l| l.contains("OVER BUDGET")).count(),
            1
        );
        assert!(lines[0].contains("engine"));
    }

    #[test]
    fn measure_overhead_produces_positive_pairs() {
        let r = measure_overhead(crate::DEFAULT_SEED, 1);
        assert!(r.engine_null_reqs_per_s > 0.0);
        assert!(r.engine_live_reqs_per_s > 0.0);
        assert!(r.dispatch_null_ops_per_s > 0.0);
        assert!(r.dispatch_live_ops_per_s > 0.0);
    }

    #[test]
    fn measure_produces_positive_numbers() {
        let report = measure(crate::DEFAULT_SEED, 1);
        assert!(report.dispatch_ops_per_s > 0.0);
        assert!(report.engine_reqs_per_s > 0.0);
        assert!(report.routing_reqs_per_s > 0.0);
        assert!(report.daemon_reqs_per_s > 0.0);
        assert!(report.ctrl_decisions_per_s > 0.0);
        assert!(report.scenario_sessions_per_s > 0.0);
        assert!(report.characterize_batch_pts_per_s > 0.0);
        assert!(report.sfc_ns_per_op > 0.0);
    }

    #[test]
    fn speedup_lines_carry_both_sides_of_each_pair() {
        let lines = measure_speedups(crate::DEFAULT_SEED, 1);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("batch") && lines[0].contains("scalar"));
        assert!(lines[0].contains("(x"));
    }
}
