//! End-to-end benchmark of fdb through its public front doors.
//!
//! ```text
//! perfbench --workload <read_hot|derived_update|durable_write> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a properties line, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when an output check failed and 2 on a usage or set-up
//! error. See README.md.

mod durable;
mod engine_wl;
mod gen;
mod phase;
mod replay;
mod report;
mod spans;
mod stats;

use std::process::ExitCode;

use engine_wl::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // End-to-end numbers are taken with tracing off; the traced phase
    // turns it on for itself.
    fdb_obs::causal::set_tracing(false);
    let result = match args.workload.as_str() {
        "read_hot" => engine_wl::run(Workload::ReadHot, args.seed, args.seconds, args.trace),
        "derived_update" => {
            engine_wl::run(Workload::DerivedUpdate, args.seed, args.seconds, args.trace)
        }
        "durable_write" => durable::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    report.property("workload", report::json_str(&args.workload));
    report.property("seed", args.seed);
    report.property("seconds", args.seconds);
    report.property(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for p in report.problems() {
        eprintln!("perfbench: check failed: {p}");
    }
    let (props, result) = report.render(args.trace);
    println!("{props}");
    println!("{result}");
    // `render` turned any unmeasured end-to-end metric into a problem.
    if result.starts_with("{\"correct\": true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
