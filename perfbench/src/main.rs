//! End-to-end and per-layer benchmark of the A3C-S co-search system.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload solo_search --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. One workload runs per process, through
//! the program's public APIs only. With `--trace 0` the run repeats one
//! block of work from the seed's inputs (a co-search, a fleet, or a round
//! of designs) for about `--seconds`, two or three times, and reports the
//! end-to-end metrics at reference host speed (see `calib`); with
//! `--trace 1` it runs the block untraced, under a `telemetry::Session`,
//! and untraced again, and reports the per-layer metrics. Every run checks its outputs, prints their digest, and ends
//! with one JSON result line; a failed check makes the exit code nonzero.

mod accel;
mod calib;
mod digest;
mod fleet;
mod layers;
mod report;
mod solo;
mod stats;

use a3cs_envs::{Breakout, Environment};
use report::{result_line, Outcome, END_TO_END, LAYERS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["solo_search", "fleet_guarded", "accel_design"];

/// Everything a workload may derive its inputs from.
pub struct Ctx {
    pub seed: u64,
    /// Least measured time; `0` means the workload's minimum work only.
    pub seconds: f64,
    /// Pool lanes: the paper host's 2, capped at the cores available.
    pub lanes: usize,
    /// Per-run directory for checkpoints, removed when the run ends.
    pub scratch: PathBuf,
}

impl Ctx {
    /// The seed of input stream `stream` of this run.
    pub fn derive(&self, stream: u64) -> u64 {
        mix(self.seed, stream)
    }
}

/// SplitMix64 of `seed` and `stream`: independent seeds from one run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn breakout(seed: u64) -> Box<dyn Environment> {
    Box::new(Breakout::new(seed))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {WORKLOADS:?}",
            parsed.workload
        ));
    }
    if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
        return Err(format!(
            "--seconds {}: expected a non-negative number",
            parsed.seconds
        ));
    }
    Ok(parsed)
}

/// The commit of a git checkout, when there is one.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
}

/// Digest of the program's sources, which names the commit in a checkout
/// that is not a git repository.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates", "vendor"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut d = digest::Digest::new();
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            d.debug(&file).u64(bytes.len() as u64).bytes(&bytes);
        }
    }
    d.finish()
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args, ctx: &Ctx) -> Outcome {
    match args.workload.as_str() {
        "solo_search" => match solo::Plan::standard(ctx) {
            Ok(plan) => solo::run(ctx, &plan, args.trace),
            Err(e) => failed(e),
        },
        "fleet_guarded" => match fleet::Plan::standard(ctx) {
            Ok(plan) => fleet::run(ctx, &plan, args.trace),
            Err(e) => failed(e),
        },
        _ => accel::run(ctx, &accel::Plan::standard(ctx), args.trace),
    }
}

fn failed(problem: String) -> Outcome {
    let mut out = Outcome::default();
    out.problems.push(problem);
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let scratch = PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        lanes: cores.min(2),
        scratch,
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let commit = git_commit().unwrap_or_else(|| format!("none (sources {:016x})", source_digest()));
    println!(
        "host: available_cores={cores} pool_lanes={} commit={commit}",
        ctx.lanes
    );

    let mut outcome = run(&args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    let declared: Vec<(&str, &str)> = if args.trace {
        LAYERS.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        match peak_rss_mb() {
            Ok(mb) => outcome.set("peak_rss_mb", mb),
            Err(e) => outcome.problems.push(e),
        }
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let line = result_line(&mut outcome, &declared);

    for note in &outcome.notes {
        println!("  {note}");
    }
    println!("digest: {:016x}", outcome.digest);
    for (name, unit) in &declared {
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        match LAYERS.iter().find(|l| l.name == *name) {
            Some(l) => println!(
                "{name} = {value:.6} {unit}  (moves {} on {})",
                l.moves, l.on
            ),
            None => println!("{name} = {value:.6} {unit}"),
        }
    }
    for problem in &outcome.problems {
        println!("FAILED: {problem}");
    }
    println!("{line}");
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Telemetry is process-global: workload tests run one at a time.
    pub fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn ctx(name: &str) -> Ctx {
        Ctx {
            seed: 1,
            seconds: 0.0,
            lanes: 2,
            scratch: PathBuf::from(".perfbench_tmp").join(format!("{name}-{}", std::process::id())),
        }
    }

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args(&[
            "--workload",
            "fleet_guarded",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_guarded", 7, 2.5, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "accel_design", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "accel_design", "--seed"]).is_err());
        assert!(args(&["--workload", "accel_design", "--bogus", "1"]).is_err());
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let seeds: std::collections::BTreeSet<u64> = (0..3)
            .flat_map(|s| (0..100).map(move |k| mix(s, k)))
            .collect();
        assert_eq!(seeds.len(), 300);
    }
}
