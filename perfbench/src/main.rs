//! End-to-end benchmark of the harvester stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ga_campaign|netlist_jobs|array_pss> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints diagnostics to stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`. See README.md for the workloads and metrics.

mod array_pss;
mod ga_campaign;
mod layers;
mod measure;
mod netlist_jobs;
mod refkernel;

use measure::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where traced runs write their spans: under the build directory, which
/// is never committed.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    base.join("perfbench-traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

pub fn write_trace(tracer: &Tracer, workload: &str, seed: u64) {
    let path = trace_path(workload, seed);
    match tracer.write(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "ga_campaign" => ga_campaign::run,
        "netlist_jobs" => netlist_jobs::run,
        "array_pss" => array_pss::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut report = run(args.seed, args.seconds, args.trace);
    for m in &report.metrics {
        if !m.value.is_finite() {
            report.problems.push(format!("{} is {}", m.name, m.value));
        }
    }
    report.correct = report.problems.is_empty() && report.failed == 0;
    for problem in &report.problems {
        eprintln!("check failed: {problem}");
    }
    for m in &report.metrics {
        eprintln!("{:40} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
