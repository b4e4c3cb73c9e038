//! File-to-distances benchmark of the sparse-apsp workspace.
//!
//! ```text
//! apsp-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                --apsp PATH/TO/apsp --work-dir DIR
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of standard output is the result object. The exit
//! code is 1 when any attempt failed. See `README.md` for the workloads
//! and what each metric measures.

mod check;
mod harness;
mod host;
mod mem;
mod report;
mod span;
mod stats;
mod traced;
mod untraced;
mod workloads;

use harness::Ctx;
use host::Host;
use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Workload, RANKS};

/// Parsed command line; a repeated flag keeps its last value.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    apsp: Option<PathBuf>,
    work_dir: PathBuf,
    probe_input: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        apsp: None,
        work_dir: PathBuf::from(".bench_build/perfbench"),
        probe_input: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--apsp" => args.apsp = Some(PathBuf::from(value)),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--probe-setup" => args.probe_input = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn workload(name: Option<&str>) -> Result<&'static Workload, String> {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    let name =
        name.ok_or_else(|| format!("--workload is required: one of {}", names.join(", ")))?;
    Workload::by_name(name)
        .ok_or_else(|| format!("unknown workload {name}: one of {}", names.join(", ")))
}

/// Checks that a pass emitted exactly its declared metrics, in order,
/// under valid names and units.
fn declared(outcome: &Outcome, spec: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if got == spec && got.iter().all(|(n, u)| report::valid_name(n) && report::valid_unit(u)) {
        Ok(())
    } else {
        Err(format!("emitted metrics {got:?} differ from the declared {spec:?}"))
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let w = workload(args.workload.as_deref())?;
    if let Some(input) = &args.probe_input {
        println!("{}", harness::probe_setup(w, input)?);
        return Ok(ExitCode::SUCCESS);
    }
    let apsp = args.apsp.ok_or("--apsp PATH (the release apsp binary) is required")?;
    if !apsp.is_file() {
        return Err(format!("no apsp binary at {}", apsp.display()));
    }
    let ctx = Ctx {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        apsp,
        dir: args.work_dir.join(format!("{}-seed{}", w.name, args.seed)),
        host: Host::detect(),
    };
    println!(
        "perfbench {} seed={} trace={} seconds={} ranks p={RANKS} on nproc={} ({}): \
         ranks outnumber cores, so no scaling claim is made",
        w.name,
        ctx.seed,
        u8::from(args.trace),
        ctx.seconds,
        ctx.host.nproc,
        ctx.host.cpu_model
    );
    let (outcome, spans) = if args.trace {
        let (outcome, tracer) = traced::run(&ctx)?;
        declared(&outcome, &traced::METRICS)?;
        (outcome, Some(tracer))
    } else {
        let outcome = untraced::run(&ctx)?;
        declared(&outcome, &untraced::METRICS)?;
        (outcome, None)
    };
    let context = format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"ranks\": {RANKS}, {}, \
         \"error_rate\": {}}}}}",
        w.name,
        ctx.seed,
        u8::from(args.trace),
        ctx.host.json_fields(),
        outcome.error_rate()
    );
    if let Some(tracer) = spans {
        let path = ctx.dir.join("spans.jsonl");
        std::fs::write(&path, format!("{context}\n{}", tracer.to_jsonl()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    print!("{}", outcome.table());
    println!("{context}");
    println!("{}", outcome.result_line());
    Ok(if outcome.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}
