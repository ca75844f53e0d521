//! `bench` — write one machine-readable artifact, `BENCH_3.json` …
//! `BENCH_8.json`. The subcommand is the artifact number; `bench` alone
//! prints every subcommand's usage line.
//!
//! * `3` — Tables 1–3 plus the traced snow/fountain runs (`psa_bench::export`).
//! * `4` — the kernel worker-count sweep plus frame hot-path allocation
//!   counts, measured with this binary's counting global allocator
//!   (`export4`).
//! * `5` — the `EventSim` scaling sweep: rank counts × {snow, fountain,
//!   vortex} × {SLB, DLB} plus flat-versus-fat-tree makespans (`export5`).
//! * `6` — the balancer-suite matrix: workloads × {baseline, degraded
//!   manager links} × six strategies, with the dead-zone gates whenever
//!   the sweep reaches 128 ranks (`export6`).
//! * `7` — the session-pool service sweep with one solo-parity spot check
//!   per cell (`export7`).
//! * `8` — checkpoint recovery priced against restart-from-frame-0
//!   (`export8`).
//!
//! Each subcommand validates its export before writing `BENCH_N.json`
//! (the default `--out`). Exit status: 0 written, 1 validation or write
//! failed, 2 bad command line (the subcommand's usage line is printed).
//! `--seed` takes decimal or `0x` hex, the form the run echoes.

mod counting_alloc;
mod staging;

use std::process::exit;
use std::str::FromStr;

use psa_bench::artifact::Artifact;
use psa_bench::{export, export4, export5, export6, export7, export8};

type Command = fn(Flags) -> Result<(), String>;

/// Subcommand, usage line, entry point.
const COMMANDS: [(&str, &str, Command); 6] = [
    ("3", "bench 3 [--scale S] [--frames F] [--out PATH]", bench3),
    ("4", "bench 4 [--scale S] [--frames F] [--out PATH]", bench4),
    (
        "5",
        "bench 5 [--ranks 8,32,128,512,1024] [--frames F] [--systems N] [--particles P] [--scale S] [--out PATH]",
        bench5,
    ),
    (
        "6",
        "bench 6 [--ranks 8,32,128,512,1024] [--frames F] [--systems N] [--particles P] [--scale S] [--out PATH]",
        bench6,
    ),
    (
        "7",
        "bench 7 [--sessions 100,300,1000] [--frames F] [--particles P] [--seed S] [--out PATH]",
        bench7,
    ),
    (
        "8",
        "bench 8 [--calculators 4,8] [--intervals 2,3,4] [--crash-frames 2,4,5,8,11] [--frames F] [--particles P] [--seed S] [--out PATH]",
        bench8,
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((&(_, usage, run), rest)) = args
        .split_first()
        .and_then(|(c, rest)| COMMANDS.iter().find(|(id, ..)| id == c).map(|cmd| (cmd, rest)))
    else {
        let usages: Vec<&str> = COMMANDS.iter().map(|(_, usage, _)| *usage).collect();
        eprintln!("usage:\n  {}", usages.join("\n  "));
        exit(2);
    };
    let pairs = split_pairs(rest).unwrap_or_else(|e| usage_error(usage, &e));
    if let Err(e) = run(Flags { usage, pairs }) {
        eprintln!("{e}");
        exit(1);
    }
}

fn usage_error(usage: &str, msg: &str) -> ! {
    eprintln!("{msg}\nusage: {usage}");
    exit(2);
}

/// Validate `data`, then write it to `out`.
fn emit(tag: &str, data: &impl Artifact, out: &str) -> Result<(), String> {
    data.validate().map_err(|e| format!("{tag} validation failed: {e}"))?;
    let json = data.to_json().map_err(|e| format!("{tag}: {e}"))?;
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn bench3(mut f: Flags) -> Result<(), String> {
    let scale = f.value("--scale", 10.0);
    let frames = f.value("--frames", 25);
    let out = f.value("--out", "BENCH_3.json".to_string());
    f.finish();
    eprintln!(
        "collecting BENCH_3 (scale {scale}, {frames} frames) — tables 1-3 + traced snow/fountain runs"
    );
    let data = export::collect(scale, frames);
    for t in &data.traced {
        eprintln!(
            "{:<9} {:<7} speedup {:5.2}  {:7.0} migrated/proc/frame  {:7.0} KB/frame",
            t.experiment, t.config, t.speedup, t.migrated_per_proc_frame, t.migration_kb_per_frame
        );
    }
    emit("BENCH_3", &data, &out)
}

fn bench4(mut f: Flags) -> Result<(), String> {
    let scale = f.value("--scale", 10.0);
    let frames = f.value("--frames", 25);
    let out = f.value("--out", "BENCH_4.json".to_string());
    f.finish();
    eprintln!(
        "collecting BENCH_4 (scale {scale}, {frames} frames) — worker sweep + allocation counts"
    );
    let allocations = staging::measure_allocations();
    let data = export4::collect4(scale, frames, allocations);
    for e in &data.experiments {
        let s4 = e.scaling.iter().find(|s| s.workers == 4).map_or(0.0, |s| s.speedup);
        eprintln!(
            "{:<9} chunks {:>7}  4-worker compute speedup {:4.2}  fingerprint invariant: {}",
            e.experiment, e.total_chunks, s4, e.fingerprint_invariant
        );
    }
    eprintln!(
        "staging allocations/frame: naive {} -> hot path {}",
        allocations.naive_per_frame, allocations.hot_path_per_frame
    );
    emit("BENCH_4", &data, &out)
}

fn bench5(mut f: Flags) -> Result<(), String> {
    let ranks = f.list("--ranks", export5::BENCH5_RANKS);
    let frames = f.value("--frames", 10);
    let systems = f.value("--systems", 100);
    let particles = f.value("--particles", 200);
    let scale = f.value("--scale", 50.0);
    let out = f.value("--out", "BENCH_5.json".to_string());
    f.finish();
    eprintln!(
        "collecting BENCH_5 (ranks {ranks:?}, {systems} systems x {particles} particles, {frames} frames)"
    );
    let data = export5::collect5(&ranks, frames, systems, particles, scale);
    for e in &data.experiments {
        for c in &e.cells {
            eprintln!(
                "{:<9} {:>5}r {}  speedup {:>8.2}  rounds {:>3}  imbalance {:>6.3}  wall {:>7.2}s",
                e.workload,
                c.ranks,
                c.balance,
                c.speedup,
                c.balance_rounds,
                c.mean_imbalance,
                c.wall_seconds
            );
        }
    }
    for t in &data.topology {
        eprintln!(
            "{:<9} {:>5}r topology: flat {:.3}s vs fat-tree(r{}) {:.3}s",
            t.workload, t.ranks, t.flat_makespan, t.radix, t.fat_tree_makespan
        );
    }
    emit("BENCH_5", &data, &out)
}

fn bench6(mut f: Flags) -> Result<(), String> {
    let ranks = f.list("--ranks", export6::BENCH6_RANKS);
    let frames = f.value("--frames", 60);
    let systems = f.value("--systems", 1);
    let particles = f.value("--particles", 700);
    let scale = f.value("--scale", 500.0);
    let out = f.value("--out", "BENCH_6.json".to_string());
    f.finish();
    eprintln!(
        "collecting BENCH_6 (ranks {ranks:?}, {systems} system(s) x {particles} particles, scale {scale}, {frames} frames)"
    );
    let data = export6::collect6(&ranks, frames, systems, particles, scale);
    for e in &data.experiments {
        for c in &e.cells {
            eprintln!(
                "{:<9} {:>5}r {:<12} {:<10} makespan {:>9.4}  orders {:>9}  imb {:>7.3} -> {:>7.3}  wall {:>6.2}s",
                e.workload,
                c.ranks,
                c.scenario,
                c.strategy,
                c.makespan,
                c.orders,
                c.mean_imbalance,
                c.final_imbalance,
                c.wall_seconds
            );
        }
    }
    emit("BENCH_6", &data, &out)
}

fn bench7(mut f: Flags) -> Result<(), String> {
    let sessions = f.list("--sessions", export7::BENCH7_SESSIONS);
    let frames = f.value("--frames", 10);
    let particles = f.value("--particles", 300);
    let seed = f.seed(0xBE7C_0007);
    let out = f.value("--out", "BENCH_7.json".to_string());
    f.finish();
    eprintln!(
        "collecting BENCH_7 (sessions {sessions:?}, {frames} frames x {particles} particles/system, seed {seed:#x})"
    );
    let data = export7::collect7(&sessions, frames, particles, seed);
    for c in &data.cells {
        eprintln!(
            "{:<8} {:>5} sessions  {:>8.2} sessions/s  p50 {:>8.4}s  p99 {:>8.4}s  wait {:>8.4}s  wall {:>6.2}s",
            c.workload,
            c.sessions,
            c.sessions_per_sec,
            c.p50_latency,
            c.p99_latency,
            c.mean_queue_wait,
            c.wall_seconds
        );
    }
    emit("BENCH_7", &data, &out)
}

fn bench8(mut f: Flags) -> Result<(), String> {
    let calculators = f.list("--calculators", export8::BENCH8_CALCULATORS);
    let intervals = f.list("--intervals", export8::BENCH8_INTERVALS);
    let crash_frames = f.list("--crash-frames", export8::BENCH8_CRASH_FRAMES);
    let frames = f.value("--frames", 12);
    let particles = f.value("--particles", 300);
    let seed = f.seed(0xBE7C_0008);
    let out = f.value("--out", "BENCH_8.json".to_string());
    f.finish();
    eprintln!(
        "collecting BENCH_8 (calculators {calculators:?} x intervals {intervals:?} x crashes {crash_frames:?}, {frames} frames x {particles} particles/system, seed {seed:#x})"
    );
    let data = export8::collect8(&calculators, &intervals, &crash_frames, frames, particles, seed);
    for c in &data.cells {
        eprintln!(
            "{:>2}c interval {:>2} crash@{:>2}  {}  replayed {:>2}  recovery {:>9.4}s  restart {:>9.4}s  saved {:>9.4}s",
            c.calculators,
            c.interval,
            c.crash_frame,
            if c.recovered { "recovered" } else { "degraded " },
            c.frames_replayed,
            c.recovery_cost,
            c.restart_cost,
            c.saved
        );
    }
    emit("BENCH_8", &data, &out)
}

/// One subcommand's `--flag value` pairs. Each read removes its flag;
/// [`Flags::finish`] rejects whatever no read claimed. Every bad command
/// line exits 2 with the subcommand's usage line.
struct Flags {
    usage: &'static str,
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn fail(&self, msg: &str) -> ! {
        usage_error(self.usage, msg)
    }

    /// The last value given for `flag`, if any; later occurrences win.
    fn take(&mut self, flag: &str) -> Option<String> {
        let mut last = None;
        self.pairs.retain(|(f, v)| {
            let hit = f == flag;
            if hit {
                last = Some(v.clone());
            }
            !hit
        });
        last
    }

    fn value<T: FromStr>(&mut self, flag: &str, default: T) -> T {
        match self.take(flag) {
            None => default,
            Some(raw) => parse_value(flag, &raw).unwrap_or_else(|e| self.fail(&e)),
        }
    }

    /// A comma-separated list.
    fn list<T: FromStr + Clone>(&mut self, flag: &str, default: &[T]) -> Vec<T> {
        match self.take(flag) {
            None => default.to_vec(),
            Some(raw) => raw
                .split(',')
                .map(|v| parse_value(flag, v.trim()))
                .collect::<Result<_, _>>()
                .unwrap_or_else(|e| self.fail(&e)),
        }
    }

    fn seed(&mut self, default: u64) -> u64 {
        match self.take("--seed") {
            None => default,
            Some(raw) => parse_seed(&raw).unwrap_or_else(|e| self.fail(&e)),
        }
    }

    fn finish(self) {
        if let Some((flag, _)) = self.pairs.first() {
            self.fail(&format!("unknown argument: {flag}"));
        }
    }
}

/// Split a command line into `--flag value` pairs.
fn split_pairs(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument: {flag}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        pairs.push((flag.clone(), value.clone()));
    }
    Ok(pairs)
}

fn parse_value<T: FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

/// Decimal, or hex with a `0x` prefix (the form `bench 7`/`bench 8` echo).
fn parse_seed(raw: &str) -> Result<u64, String> {
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    };
    parsed.ok_or_else(|| format!("--seed: cannot parse `{raw}` as decimal or 0x hex"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn echoed_seed_parses_back() {
        for seed in [0u64, 7, 0xBE7C_0007, 0xBE7C_0008, u64::MAX] {
            assert_eq!(parse_seed(&format!("{seed:#x}")), Ok(seed));
            assert_eq!(parse_seed(&seed.to_string()), Ok(seed));
        }
        assert_eq!(parse_seed("0XFF"), Ok(255));
        for bad in ["", "0x", "0xg1", "seven", "-1"] {
            assert!(parse_seed(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn malformed_command_lines_are_errors_not_panics() {
        assert!(split_pairs(&args(&["--frames"])).unwrap_err().contains("needs a value"));
        assert!(split_pairs(&args(&["12"])).unwrap_err().contains("unexpected argument"));
        let pairs = split_pairs(&args(&["--frames", "8", "--frames", "9"])).unwrap();
        let mut f = Flags { usage: "", pairs };
        assert_eq!(f.value("--frames", 0u64), 9, "the last occurrence wins");
        assert!(f.pairs.is_empty());
        assert!(parse_value::<u64>("--frames", "twelve").is_err());
        assert!(parse_value::<f64>("--scale", "").is_err());
        assert_eq!(parse_value::<f64>("--scale", "50"), Ok(50.0));
    }
}
