//! The traced run: per-layer costs, with each layer's share of traced
//! wall time.
//!
//! A run alternates a plain pass and a *timing* pass (spans on every call)
//! for `--seconds`, then makes one *recording* pass whose recorded
//! inputs feed the replays. Simulation is deterministic, so all three
//! passes do the same work; each must produce bit-identical results.
//! Live layers come from the timing passes, replayed layers from the
//! recording pass; the median over timing passes is reported.

use std::time::Instant;

use sched::Request;

use crate::probe::{median, Clock, Span};
use crate::replay;
use crate::workloads::{PassOut, Workload};
use crate::wrap::{Mode, SchedStats};

/// Scheduler operations kept from shard 0 for the SFC and heap-insert
/// replays (requests' worth).
const SAMPLE_REQS: usize = 1 << 15;
/// Fewest plain/timing pass pairs per traced run.
const MIN_PAIRS: usize = 2;

/// Costs measured once by replay over the recording pass.
struct Replays {
    /// Totals over the whole pass (ns) and their allocations.
    admit_ns: f64,
    route_ns: f64,
    route_allocs: u64,
    disk_ns: f64,
    disk_allocs: u64,
    engine_ns: f64,
    engine_allocs: u64,
    /// Per unit.
    obs_ns_per_event: f64,
    obs_allocs_per_event: f64,
    sfc: [f64; 3],
    heap_insert_ns: f64,
    ingest: (f64, f64),
    /// Batch farm only: the trace streamed through `VecSource`.
    source_ns: f64,
}

fn replays(w: &dyn Workload, rec: &PassOut, clock: &Clock, failures: &mut Vec<String>) -> Replays {
    let ob = &rec.observed;
    let store = match replay::by_id(&ob.arrivals) {
        Ok(s) => s,
        Err(e) => {
            failures.push(e);
            Vec::new()
        }
    };
    let scheds = &ob.scheds;
    let farm = w.farm_config();
    let member = w.member_config();

    let (admit_ns, admitted) = match w.gate() {
        Some((max_streams, idle)) => {
            let (ns, _, admitted, rejections) = replay::gate(&ob.arrivals, max_streams, idle);
            if rejections != rec.mech.rejections {
                failures.push(format!(
                    "gate replay rejects {rejections}, the daemon rejected {}",
                    rec.mech.rejections
                ));
            }
            (ns, admitted)
        }
        None => (0.0, vec![true; ob.arrivals.len()]),
    };
    let admitted_reqs: Vec<&Request> = ob
        .arrivals
        .iter()
        .zip(&admitted)
        .filter_map(|(r, &a)| a.then_some(r))
        .collect();
    let capacities: Vec<Option<usize>> = (0..farm.shards)
        .map(|_| member.dispatch.max_queue)
        .collect();
    let (route_ns, route_allocs) = replay::route(&admitted_reqs, &farm, &capacities);
    let (disk_ns, disk_allocs) = replay::disk(scheds, &store);

    let engine = match w.batch_trace() {
        Some(trace) => {
            let placement = farm::route_trace(trace, &farm, &capacities, &mut obs::NullSink);
            replay::engine_batch(
                &placement.shard_traces,
                scheds,
                &store,
                w.options(),
                disk_ns,
            )
        }
        _ => replay::engine_daemon(
            &ob.events,
            scheds,
            &store,
            w.options(),
            farm.shards,
            disk_ns,
        ),
    };
    let (engine_ns, engine_allocs) = engine.unwrap_or_else(|e| {
        failures.push(e);
        (0.0, 0)
    });

    let (obs_ns_per_event, obs_allocs_per_event) = match w.recorder() {
        Some(shape) => replay::obs_emit(&ob.recorders, shape),
        None => (0.0, 0.0),
    };
    let ops = scheds
        .iter()
        .find(|s| s.shard == 0)
        .map_or(&[][..], |s| s.ops.as_slice());
    let source_ns = w.batch_trace().map_or(0.0, replay::source);
    Replays {
        admit_ns,
        route_ns,
        route_allocs,
        disk_ns,
        disk_allocs,
        engine_ns,
        engine_allocs,
        obs_ns_per_event,
        obs_allocs_per_event,
        sfc: replay::sfc_stages(ops, &member),
        heap_insert_ns: replay::heap_insert(ops, &member, clock),
        ingest: replay::ingest(&ob.arrivals, &member),
        source_ns,
    }
}

/// One ledger row: a layer's time over the pass, how it was measured,
/// and whether it sits on the pass's traced wall time.
struct Row {
    layer: &'static str,
    ns: f64,
    allocs: f64,
    how: &'static str,
}

/// A metric's name, value and unit.
type Metric = (&'static str, f64, &'static str);

/// Per-layer metrics and ledger rows of one timing pass.
fn layer_metrics(
    w: &dyn Workload,
    a: &PassOut,
    plain_wall_ns: f64,
    r: &Replays,
    clock: &Clock,
) -> (Vec<Metric>, Vec<Row>, f64) {
    let n = a.arrivals.max(1) as f64;
    let ob = &a.observed;
    let sum = |f: fn(&SchedStats) -> Span| {
        let mut s = Span::default();
        for st in &ob.scheds {
            s.merge(&f(st));
        }
        s
    };
    let enqueue = sum(|s| s.enqueue);
    let dequeue = sum(|s| s.dequeue);
    let retune = sum(|s| s.retune);
    let drain = sum(|s| s.drain);
    let scan = sum(|s| s.scan);
    let enqueued: u64 = ob.scheds.iter().map(|s| s.enqueued).sum();
    let empty: u64 = ob.scheds.iter().map(|s| s.empty_dequeues).sum();
    let depth_sum: u64 = ob.scheds.iter().map(|s| s.depth_sum).sum();
    let depth_max = ob.scheds.iter().map(|s| s.depth_max).max().unwrap_or(0);
    let cascade_ns = enqueue.ns + dequeue.ns + retune.ns + drain.ns;
    let cascade_allocs = (enqueue.allocs + dequeue.allocs + retune.allocs + drain.allocs) as f64;
    let batch_farm = w.batch_trace().is_some();

    let obs_events = ob.events_total.saturating_sub(ob.shed_events) as f64;
    let (obs_ns, obs_per_event, obs_allocs, obs_how) = if batch_farm {
        let emit = &ob.sink_emit;
        (emit.ns, emit.per_call_ns(), emit.allocs as f64, "live")
    } else {
        (
            r.obs_ns_per_event * obs_events,
            r.obs_ns_per_event,
            r.obs_allocs_per_event * obs_events,
            "replay",
        )
    };
    let ctrl_ns = ob.observe.ns + ob.decide.ns;
    let ctrl_allocs = (ob.observe.allocs + ob.decide.allocs) as f64;
    let sim_allocs = scan.allocs as f64 + r.engine_allocs as f64;
    // Spans opened inside the farm's own time, and around it.
    let inner_spans = enqueue.calls
        + dequeue.calls
        + retune.calls
        + drain.calls
        + scan.calls
        + ob.sink_emit.calls;
    let outer_spans = [
        ob.next,
        ob.handle,
        ob.deltas,
        ob.shutdown,
        ob.observe,
        ob.decide,
    ]
    .iter()
    .map(|s| s.calls)
    .sum::<u64>();
    let clock_ns = clock.overhead_ns(inner_spans + outer_spans);

    // The farm's inclusive time per arrival, and the time the ledger
    // divides into shares.
    let (handle_ns, handle_allocs, denominator, busy_ratio, source_ns, source_how) = if batch_farm {
        let parallel = ob.parallel_wall_ns;
        let busy: f64 = ob.scheds.iter().map(SchedStats::busy_ns).sum();
        let serial = (a.wall_ns - parallel).max(0.0);
        let threads = ob.scheds.len().max(1) as f64;
        let others = cascade_allocs + scan.allocs as f64 + obs_allocs + r.engine_allocs as f64;
        (
            serial,
            (a.allocs as f64 - others - r.disk_allocs as f64).max(0.0),
            serial + busy,
            busy / (threads * parallel.max(1.0)),
            r.source_ns,
            "replay, off path",
        )
    } else {
        let handle = ob.handle.ns + ob.deltas.ns + ob.shutdown.ns;
        (
            handle,
            (ob.handle.allocs + ob.deltas.allocs + ob.shutdown.allocs) as f64,
            a.wall_ns,
            handle / a.wall_ns,
            ob.next.ns,
            "live",
        )
    };
    let children =
        cascade_ns + scan.ns + r.admit_ns + r.route_ns + r.disk_ns + obs_ns + r.engine_ns;
    let handle_self = if batch_farm {
        handle_ns - r.route_ns
    } else {
        handle_ns - children - clock.overhead_ns(inner_spans)
    };
    let farm_allocs = if batch_farm {
        handle_allocs
    } else {
        (handle_allocs
            - cascade_allocs
            - sim_allocs
            - r.route_allocs as f64
            - r.disk_allocs as f64
            - obs_allocs)
            .max(0.0)
    };

    let rows = vec![
        Row {
            layer: "workload.source",
            ns: source_ns,
            allocs: ob.next.allocs as f64,
            how: source_how,
        },
        Row {
            layer: "farm (self)",
            ns: handle_self,
            allocs: farm_allocs,
            how: "residual",
        },
        Row {
            layer: "farm.route",
            ns: r.route_ns,
            allocs: r.route_allocs as f64,
            how: "replay",
        },
        Row {
            layer: "sim.admit",
            ns: r.admit_ns,
            allocs: 0.0,
            how: "replay",
        },
        Row {
            layer: "sim.inversion_scan",
            ns: scan.ns,
            allocs: scan.allocs as f64,
            how: "live",
        },
        Row {
            layer: "sim.engine",
            ns: r.engine_ns,
            allocs: r.engine_allocs as f64,
            how: "replay",
        },
        Row {
            layer: "cascade",
            ns: cascade_ns,
            allocs: cascade_allocs,
            how: "live",
        },
        Row {
            layer: "disk.service",
            ns: r.disk_ns,
            allocs: r.disk_allocs as f64,
            how: "replay",
        },
        Row {
            layer: "obs.emit",
            ns: obs_ns,
            allocs: obs_allocs,
            how: obs_how,
        },
        Row {
            layer: "ctrl",
            ns: ctrl_ns,
            allocs: ctrl_allocs,
            how: "live",
        },
        Row {
            layer: "trace.clock",
            ns: clock_ns,
            allocs: 0.0,
            how: "tracing",
        },
    ];
    let on_path: f64 = rows
        .iter()
        .filter(|row| row.how != "replay, off path")
        .map(|row| row.ns)
        .sum();
    let unattributed = 1.0 - on_path / denominator.max(1.0);

    let mut samples = ob.handle_samples.clone();
    let pct = |q: f64, v: &mut Vec<f64>| {
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(f64::total_cmp);
        v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
    };
    let calls = |s: &Span| s.calls.max(1) as f64;
    // The SFC and heap-insert replays give a cost per request enqueued;
    // every enqueued request pays it, so per arrival it scales by the
    // requests enqueued per arrival.
    let per_enqueued = enqueued as f64 / n;
    let metrics = vec![
        ("workload.source_ns_per_req", source_ns / n, "ns"),
        (
            "workload.live_sessions_peak",
            a.mech.live_sessions_peak as f64,
            "count",
        ),
        (
            "workload.allocs_per_req",
            ob.next.allocs as f64 / n,
            "count",
        ),
        ("farm.handle_ns_per_req", handle_ns / n, "ns"),
        ("farm.handle_self_ns_per_req", handle_self / n, "ns"),
        ("farm.handle_p50_ns", pct(0.50, &mut samples), "ns"),
        ("farm.handle_p99_ns", pct(0.99, &mut samples), "ns"),
        ("farm.route_ns_per_req", r.route_ns / n, "ns"),
        (
            "farm.redirects_per_req",
            a.mech.redirects as f64 / n,
            "count",
        ),
        ("farm.allocs_per_req", farm_allocs / n, "count"),
        ("sim.admit_ns_per_req", r.admit_ns / n, "ns"),
        (
            "sim.admission_reject_ratio",
            a.mech.rejections as f64 / n,
            "ratio",
        ),
        (
            "sim.dequeue_calls_per_req",
            dequeue.calls as f64 / n,
            "count",
        ),
        (
            "sim.empty_dequeue_ratio",
            empty as f64 / calls(&dequeue),
            "ratio",
        ),
        (
            "sim.enqueue_chunk_mean",
            enqueued as f64 / calls(&enqueue),
            "count",
        ),
        ("sim.inversion_scan_ns_per_req", scan.ns / n, "ns"),
        ("sim.engine_residual_ns_per_req", r.engine_ns / n, "ns"),
        ("sim.exec_busy_ratio", busy_ratio, "ratio"),
        ("sim.allocs_per_req", sim_allocs / n, "count"),
        ("cascade.enqueue_ns_per_req", enqueue.ns / n, "ns"),
        ("cascade.dequeue_ns_per_call", dequeue.per_call_ns(), "ns"),
        (
            "cascade.queue_depth_mean",
            depth_sum as f64 / calls(&dequeue),
            "count",
        ),
        ("cascade.queue_depth_max", depth_max as f64, "count"),
        (
            "cascade.heap_insert_ns_per_req",
            r.heap_insert_ns * per_enqueued,
            "ns",
        ),
        ("cascade.sheds_per_req", a.mech.sheds as f64 / n, "count"),
        ("cascade.sfc1_ns_per_req", r.sfc[0] * per_enqueued, "ns"),
        ("cascade.sfc2_ns_per_req", r.sfc[1] * per_enqueued, "ns"),
        ("cascade.sfc3_ns_per_req", r.sfc[2] * per_enqueued, "ns"),
        ("cascade.retune_ns_per_call", retune.per_call_ns(), "ns"),
        ("cascade.drain_ns_per_call", drain.per_call_ns(), "ns"),
        ("cascade.ingest_concurrent_ns_per_req", r.ingest.0, "ns"),
        ("cascade.ingest_serial_ns_per_req", r.ingest.1, "ns"),
        ("cascade.allocs_per_req", cascade_allocs / n, "count"),
        ("disk.service_ns_per_req", r.disk_ns / n, "ns"),
        ("disk.allocs_per_req", r.disk_allocs as f64 / n, "count"),
        ("obs.emit_ns_per_event", obs_per_event, "ns"),
        ("obs.events_per_req", ob.events_total as f64 / n, "count"),
        ("obs.allocs_per_req", obs_allocs / n, "count"),
        ("ctrl.observe_ns_per_delta", ob.observe.per_call_ns(), "ns"),
        ("ctrl.decide_ns_per_call", ob.decide.per_call_ns(), "ns"),
        ("ctrl.ns_per_req", ctrl_ns / n, "ns"),
        (
            "ctrl.acting_decision_ratio",
            ob.acting_decisions as f64 / calls(&ob.decide),
            "ratio",
        ),
        ("ctrl.allocs_per_req", ctrl_allocs / n, "count"),
        ("trace.unattributed_ratio", unattributed, "ratio"),
        (
            "trace.overhead_ratio",
            a.wall_ns / plain_wall_ns - 1.0,
            "ratio",
        ),
    ];
    (metrics, rows, denominator)
}

/// Per-layer metrics that apply to every workload, in the order the
/// JSON line reports them. The rest print in the ledger only.
pub const REPORTED: &[&str] = &[
    "workload.source_ns_per_req",
    "workload.live_sessions_peak",
    "workload.allocs_per_req",
    "farm.handle_ns_per_req",
    "farm.handle_self_ns_per_req",
    "farm.route_ns_per_req",
    "farm.redirects_per_req",
    "farm.allocs_per_req",
    "sim.admission_reject_ratio",
    "sim.dequeue_calls_per_req",
    "sim.empty_dequeue_ratio",
    "sim.enqueue_chunk_mean",
    "sim.inversion_scan_ns_per_req",
    "sim.engine_residual_ns_per_req",
    "sim.exec_busy_ratio",
    "sim.allocs_per_req",
    "cascade.enqueue_ns_per_req",
    "cascade.dequeue_ns_per_call",
    "cascade.queue_depth_mean",
    "cascade.queue_depth_max",
    "cascade.heap_insert_ns_per_req",
    "cascade.sheds_per_req",
    "cascade.sfc1_ns_per_req",
    "cascade.sfc2_ns_per_req",
    "cascade.sfc3_ns_per_req",
    "cascade.ingest_concurrent_ns_per_req",
    "cascade.ingest_serial_ns_per_req",
    "cascade.allocs_per_req",
    "disk.service_ns_per_req",
    "disk.allocs_per_req",
    "obs.emit_ns_per_event",
    "obs.events_per_req",
    "obs.allocs_per_req",
    "ctrl.acting_decision_ratio",
    "ctrl.allocs_per_req",
    "trace.unattributed_ratio",
    "trace.overhead_ratio",
];

/// The traced run (module docs). Returns arrivals attempted and the
/// per-layer metrics.
pub fn traced_run(
    workload: &str,
    w: &dyn Workload,
    clock: Clock,
    seconds: f64,
    failures: &mut Vec<String>,
) -> (u64, Vec<(String, f64, String)>) {
    let start = Instant::now();
    let mut pairs: Vec<(f64, PassOut)> = Vec::new();
    let mut reference = None;
    while pairs.len() < MIN_PAIRS || start.elapsed().as_secs_f64() < seconds {
        let plain = w.pass(None);
        let timed = w.pass(Some(Mode::timing(clock)));
        let fp = *reference.get_or_insert(plain.fingerprint);
        for (what, p) in [("plain", &plain), ("traced", &timed)] {
            failures.extend(p.failures.iter().cloned());
            if p.fingerprint != fp {
                failures.push(format!(
                    "{what} pass results differ from the first plain pass"
                ));
            }
        }
        pairs.push((plain.wall_ns, timed));
    }
    let rec = w.pass(Some(Mode::recording(clock, SAMPLE_REQS)));
    failures.extend(rec.failures.iter().cloned());
    if Some(rec.fingerprint) != reference {
        failures.push("recording pass results differ from the plain pass".into());
    }
    let r = replays(w, &rec, &clock, failures);

    let mut per_pass = Vec::new();
    let mut ledger = None;
    for (plain_ns, a) in &pairs {
        let (metrics, rows, denominator) = layer_metrics(w, a, *plain_ns, &r, &clock);
        per_pass.push(metrics);
        ledger = Some((rows, denominator, a.arrivals));
    }
    let names: Vec<&str> = per_pass[0].iter().map(|m| m.0).collect();
    let medians: Vec<(String, f64, String)> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut v: Vec<f64> = per_pass.iter().map(|m| m[i].1).collect();
            (
                name.to_string(),
                median(&mut v),
                per_pass[0][i].2.to_string(),
            )
        })
        .collect();

    let (rows, denominator, arrivals) = ledger.expect("at least one timing pass");
    print_ledger(workload, &rows, denominator, arrivals, &medians);
    let metric = |name: &str| medians.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    let unattributed = metric("trace.unattributed_ratio");
    if unattributed.abs() > 0.10 {
        failures.push(format!(
            "unattributed share of traced time {unattributed:.3} exceeds 0.10"
        ));
    }
    // The farm's self time is a residual: its inclusive time less every
    // layer measured inside it. Below zero, those layers over-attribute.
    let handle_self = metric("farm.handle_self_ns_per_req");
    if handle_self < 0.0 {
        failures.push(format!(
            "farm self time {handle_self:.1} ns/arrival is negative: \
             the layers measured inside the farm over-attribute"
        ));
    }
    let attempted = pairs.iter().map(|(_, a)| a.arrivals).sum::<u64>() + rec.arrivals;
    let reported = medians
        .into_iter()
        .filter(|m| REPORTED.contains(&m.0.as_str()))
        .collect();
    (attempted, reported)
}

fn print_ledger(
    workload: &str,
    rows: &[Row],
    denominator: f64,
    arrivals: u64,
    medians: &[(String, f64, String)],
) {
    let n = arrivals.max(1) as f64;
    println!("# per-layer ledger, {workload} (last timing pass, {arrivals} arrivals)");
    println!(
        "# {:<22} {:>12} {:>8} {:>12}  measured",
        "layer", "ns/arrival", "share", "allocs/arr"
    );
    for row in rows {
        let share = if row.how.ends_with("off path") {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * row.ns / denominator.max(1.0))
        };
        println!(
            "# {:<22} {:>12.1} {:>8} {:>12.3}  {}",
            row.layer,
            row.ns / n,
            share,
            row.allocs / n,
            row.how
        );
    }
    println!(
        "# traced time divided into shares: {:.1} ns/arrival",
        denominator / n
    );
    println!("# sub-layers measured by replay inside the cascade row: sfc1/sfc2/sfc3, heap_insert");
    for (name, value, unit) in medians {
        let flag = if REPORTED.contains(&name.as_str()) {
            ""
        } else {
            "  (ledger only)"
        };
        println!("{name:<40} {value:>16.4} {unit}{flag}");
    }
}
