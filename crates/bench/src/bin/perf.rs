//! Perf-regression gate runner.
//!
//! ```text
//! cargo run -p bench --release --bin perf -- --mode measure|baseline|check
//!     [--seed N] [--samples N] [--baseline PATH] [--tolerance F]
//! ```
//!
//! * `measure` (default) prints a fresh `BENCH_sched.json` to stdout,
//!   plus the batch-vs-scalar characterization speedup ratio on stderr.
//! * `baseline` measures and writes it to `--baseline` (the file CI
//!   compares against — commit it after deliberate perf changes).
//! * `check` measures, loads `--baseline`, and exits 1 when any metric
//!   regresses past `--tolerance` (default 0.2 = 20%). Run in release;
//!   a debug build will always look like a regression.
//! * `overhead` measures telemetry-off vs telemetry-on throughput on
//!   the engine and dispatch hot paths (interleaved best-of pairs) and
//!   exits 1 when the live sink costs more than `--budget` (default
//!   0.05 = 5%) of the NullSink baseline. Self-relative: no baseline
//!   file involved.

use bench::args::Args;
use bench::perf::{check, check_overhead, measure, measure_overhead, measure_speedups, PerfReport};

fn main() {
    let args = Args::parse(&["mode", "seed", "samples", "baseline", "tolerance", "budget"]);
    let seed = args.get("seed", bench::DEFAULT_SEED);
    let samples: u32 = args.get("samples", 3u32);
    let baseline_path: String = args.get("baseline", "BENCH_sched.json".to_string());
    let tolerance: f64 = args.get("tolerance", 0.2f64);
    let budget: f64 = args.get("budget", 0.05f64);

    match args.one_of("mode", &["measure", "baseline", "check", "overhead"]) {
        "measure" => {
            print!("{}", measure(seed, samples).to_json());
            for line in measure_speedups(seed, samples) {
                eprintln!("# {line}");
            }
        }
        "overhead" => {
            let report = measure_overhead(seed, samples.max(9));
            match check_overhead(&report, budget) {
                Ok(lines) => {
                    for line in lines {
                        eprintln!("# {line}");
                    }
                    eprintln!(
                        "# telemetry overhead OK: within {:.1}% budget",
                        budget * 100.0
                    );
                }
                Err(failures) => {
                    for line in failures {
                        eprintln!("# {line}");
                    }
                    eprintln!(
                        "# telemetry overhead FAILED: live sink costs more than {:.1}%",
                        budget * 100.0
                    );
                    std::process::exit(1);
                }
            }
        }
        "baseline" => {
            let report = measure(seed, samples);
            if let Err(e) = std::fs::write(&baseline_path, report.to_json()) {
                eprintln!("# cannot write {baseline_path}: {e}");
                std::process::exit(1);
            }
            eprintln!("# wrote baseline {baseline_path}");
            for line in measure_speedups(seed, samples) {
                eprintln!("# {line}");
            }
            print!("{}", report.to_json());
        }
        "check" => {
            let text = match std::fs::read_to_string(&baseline_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("# perf check FAILED: cannot read {baseline_path}: {e}");
                    std::process::exit(1);
                }
            };
            let baseline = match PerfReport::from_json(&text) {
                Ok((b, warnings)) => {
                    for w in warnings {
                        eprintln!("# warning: {w}");
                    }
                    b
                }
                Err(e) => {
                    eprintln!("# perf check FAILED: {e}");
                    std::process::exit(1);
                }
            };
            let current = measure(seed, samples);
            match check(&current, &baseline, tolerance) {
                Ok(lines) => {
                    for line in lines {
                        eprintln!("# {line}");
                    }
                    eprintln!(
                        "# perf check OK: within {:.0}% of baseline",
                        tolerance * 100.0
                    );
                }
                Err(failures) => {
                    for line in failures {
                        eprintln!("# {line}");
                    }
                    eprintln!(
                        "# perf check FAILED: regression past {:.0}% tolerance",
                        tolerance * 100.0
                    );
                    std::process::exit(1);
                }
            }
        }
        _ => unreachable!("one_of limits the choices"),
    }
}
