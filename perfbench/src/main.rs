//! `perfbench` — measured host-time benchmark of the particle-animation
//! workspace.
//!
//! ```text
//! perfbench --workload <snow|fountain|render|wide|sessions> [--seed N]
//!           [--seconds S] [--trace 0|1] [--tiny] [--trace-dir DIR]
//! ```
//!
//! Runs one workload for `--seconds`, checks its outputs, and prints as its
//! last stdout line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The traced run also writes its spans to
//! `--trace-dir` (default `.bench_out`). Exits 1 when any check fails, 2 on
//! bad arguments. `--tiny` shrinks every workload for the smoke test.

mod alloc;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Ctx;
use workloads::{Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Snow,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        trace_dir: PathBuf::from(".bench_out"),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host: Vec<(&str, String)> = vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", env!("PERFBENCH_COMMIT").to_string()),
    ];
    let facts: Vec<String> = host.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("perfbench: {}", facts.join(" "));

    let mut ctx = Ctx::new(args.seed, args.seconds, args.tiny, args.trace);
    let run = ctx.tracer.begin("run");
    workloads::run(&mut ctx, args.workload);
    ctx.tracer.end(run);
    if args.trace {
        let file = format!("trace-{}-seed{}.json", args.workload.name(), args.seed);
        let path = args.trace_dir.join(file);
        match ctx.tracer.write(&path, &host) {
            Ok(()) => println!("perfbench: spans written to {}", path.display()),
            Err(e) => ctx.checks.op(false, || format!("writing {}: {e}", path.display())),
        }
    }
    let line = ctx.result_line();
    println!("{line}");
    if ctx.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
