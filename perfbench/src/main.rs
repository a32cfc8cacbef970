//! The repository benchmark: runs one workload through the Cascaded-SFC
//! farm, checks its outputs, and prints the end-to-end metrics (or, with
//! `--trace 1`, the per-layer ledger) ending in one JSON line.
//!
//! ```text
//! perfbench --workload closed_loop --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every layer is measured from outside the program: wrappers around the
//! trait objects it accepts, timers around its public calls, and replays
//! of recorded inputs through other layers' public functions (see
//! `wrap.rs` and `replay.rs`).

mod alloc;
mod layers;
mod probe;
mod replay;
mod simres;
mod workloads;
mod wrap;

use std::time::Instant;

use probe::{median, Clock};
use workloads::{ClosedLoop, PassOut, PoissonOverload, TunedChurn, Workload};
use wrap::Mode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Setups per run; the median is reported.
const SETUPS: usize = 9;
/// Fewest measured passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject: f64,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        inject: 0.0,
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--inject-slowdown" => args.inject = value.parse().map_err(|e| bad(&e))?,
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Why each workload is in the benchmark (as in `BENCHMARK.json`).
fn why(workload: &str) -> &'static str {
    match workload {
        "closed_loop" => {
            "North-star path: closed-loop VoD and NewsByte sessions with a flash \
             crowd through the 4-shard daemon; the session source and the daemon \
             do the work"
        }
        "poisson_overload" => {
            "Figure-8 Poisson trace past saturation on the 2-thread batch farm: \
             deep queues make characterization, heap work and the inversion scan \
             do the work"
        }
        _ => {
            "Detuned 4-shard VoD daemon under a live ctrl controller with a drain \
             and an added shard: retunes, migrations, quarantines and heavy \
             shedding"
        }
    }
}

/// Build a workload's inputs from the seed.
fn build(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "closed_loop" => Box::new(ClosedLoop {
            seed,
            sessions: 150_000,
        }),
        "poisson_overload" => Box::new(PoissonOverload::new(seed, 300_000, 4_000)),
        "tuned_churn" => Box::new(TunedChurn::new(seed, 120, 6, 200_000_000)),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Peak resident memory (MiB) from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checks every pass must pass, plus agreement with the first pass.
fn check_pass(p: &PassOut, first: Option<&PassOut>, failures: &mut Vec<String>) {
    failures.extend(p.failures.iter().cloned());
    if p.sim.unaccounted() != 0 {
        failures.push(format!("{} arrivals unaccounted", p.sim.unaccounted()));
    }
    if let Some(f) = first {
        if p.fingerprint != f.fingerprint {
            failures.push("two passes over the same input diverge".into());
        }
    }
}

/// Each workload's mechanism must fire, or the run measured the wrong
/// thing.
fn check_mechanism(workload: &str, p: &PassOut, failures: &mut Vec<String>) {
    let m = &p.mech;
    let fired = match workload {
        "closed_loop" => m.rejections > 0 && m.sheds > 0,
        "poisson_overload" => m.queue_depth_mean >= 10.0,
        _ => m.retunes > 0 && m.migrations > 0 && m.quarantines > 0,
    };
    if !fired {
        failures.push(format!("{workload}: mechanism did not fire: {m:?}"));
    }
}

fn emit_json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, String)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = build(&args.workload, args.seed) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.commit
    );
    println!("# why: {}", why(&args.workload));
    let clock = Clock::calibrate();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let w = build(&args.workload, args.seed).expect("checked above");
        w.warm_up();
        setups.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let w = workload.expect("at least one setup");
    let setup_s = median(&mut setups);

    let mut failures = Vec::new();
    let (attempted, metrics) = if args.trace {
        layers::traced_run(
            &args.workload,
            w.as_ref(),
            clock,
            args.seconds,
            &mut failures,
        )
    } else {
        measured_run(&args, w.as_ref(), setup_s, &mut failures)
    };
    for f in &failures {
        println!("# FAILED: {f}");
    }
    let correct = failures.is_empty();
    // Operations are arrivals driven to a terminal ledger state; an
    // arrival fails when the ledger cannot place it.
    let failed = if correct { 0 } else { attempted.max(1) };
    emit_json(correct, attempted.max(1), failed, &metrics);
    if !correct {
        std::process::exit(1);
    }
}

/// The untraced run: plain passes for `seconds`, reporting the
/// end-to-end metrics.
fn measured_run(
    args: &Args,
    w: &dyn Workload,
    setup_s: f64,
    failures: &mut Vec<String>,
) -> (u64, Vec<(String, f64, String)>) {
    let mode = if args.inject > 0.0 {
        // Calibrate the busy-wait so that it adds `inject` times the
        // pass time, as `reqs_per_s` estimates it, to every concurrent
        // lane: the daemon's one thread runs all its shards, while each
        // batch-farm shard has a thread of its own. Wrapped passes that
        // do not wait give the pass time and each shard's enqueued
        // requests.
        let cal: Vec<PassOut> = (0..MIN_PASSES)
            .map(|_| w.pass(Some(Mode::inject(0))))
            .collect();
        let pass_ns = 1e9 * cal[0].arrivals as f64 / least_disturbed_rate(&cal, failures);
        let enqueued = cal[0].observed.scheds.iter().map(|s| s.enqueued);
        let per_lane = if cal[0].lanes.len() > 1 {
            enqueued.max().unwrap_or(0)
        } else {
            enqueued.sum()
        };
        let inject_ns = (args.inject * pass_ns / per_lane.max(1) as f64).round() as u64;
        println!("# injecting {inject_ns} ns of busy-wait per enqueued request");
        Some(Mode::inject(inject_ns))
    } else {
        None
    };
    let start = Instant::now();
    let mut passes: Vec<PassOut> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let p = w.pass(mode);
        check_pass(&p, passes.first(), failures);
        passes.push(p);
    }
    let first = &passes[0];
    check_mechanism(&args.workload, first, failures);
    if passes.iter().any(|p| p.allocs != first.allocs) {
        let counts: Vec<u64> = passes.iter().map(|p| p.allocs).collect();
        println!("# note: allocation counts differ between passes: {counts:?}");
    }
    let attempted: u64 = passes.iter().map(|p| p.arrivals).sum();
    let rate = least_disturbed_rate(&passes, failures);
    let mut allocs: Vec<f64> = passes
        .iter()
        .map(|p| p.allocs as f64 / p.arrivals.max(1) as f64)
        .collect();
    let sim = &first.sim;
    println!(
        "# {} passes of {} arrivals; {} served (response percentiles over {} samples)",
        passes.len(),
        first.arrivals,
        sim.served,
        sim.response_us.count()
    );
    println!("# mechanism: {:?}", first.mech);
    let metrics: Vec<(String, f64, String)> = [
        ("reqs_per_s", rate, "1/s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("allocs_per_req", median(&mut allocs), "count"),
        ("sim_miss_ratio", sim.miss_ratio(), "ratio"),
        ("sim_response_p50_ms", sim.response_ms(0.50), "ms"),
        ("sim_response_p99_ms", sim.response_ms(0.99), "ms"),
        (
            "sim_response_max_ms",
            sim.max_response_us as f64 / 1e3,
            "ms",
        ),
        (
            "sim_inversions_per_served",
            sim.inversions_per_served(),
            "count",
        ),
        ("sim_seek_ms_per_served", sim.seek_ms_per_served(), "ms"),
    ]
    .into_iter()
    .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
    .collect();
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    (attempted, metrics)
}

/// Arrivals per second of the least disturbed execution the passes
/// observed. The host is shared, so a pass can lose a large part of its
/// time to other tenants. Every pass does the same work in the same
/// order, so for each aligned slice of requests the fastest pass is the
/// closest to undisturbed. Per concurrent lane (the one daemon thread,
/// or each batch-farm shard), the slice minimums add up to that lane's
/// undisturbed time; the slowest lane plus the fastest serial remainder
/// is the pass's.
fn least_disturbed_rate(passes: &[PassOut], failures: &mut Vec<String>) -> f64 {
    let first = &passes[0];
    let shape = |p: &PassOut| p.lanes.iter().map(Vec::len).collect::<Vec<_>>();
    if first.lanes.is_empty() || passes.iter().any(|p| shape(p) != shape(first)) {
        failures.push("passes split into different slices".into());
        // Not a number: no rate, and no busy-wait calibrated from it.
        return f64::NAN;
    }
    let lane_ns = |l: usize| -> f64 {
        (0..first.lanes[l].len())
            .map(|k| {
                passes
                    .iter()
                    .map(|p| p.lanes[l][k])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    let slowest = (0..first.lanes.len()).map(lane_ns).fold(0.0, f64::max);
    let serial = passes
        .iter()
        .map(|p| p.serial_ns)
        .fold(f64::INFINITY, f64::min);
    first.arrivals as f64 / ((slowest + serial.max(0.0)) / 1e9)
}
