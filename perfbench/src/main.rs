//! The REAP workspace's layered benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--rev <revision>] [--out <detail.json>] [--spans <spans.jsonl>]
//! ```
//!
//! Workloads: `fleet-reap`, `fleet-mpc24`, `fleet-intermittent`,
//! `serve-mixed` (see `fleet.rs` and `serve.rs`). An untraced run
//! (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) attributes the workload's end-to-end path to its layers
//! and prints the per-layer metrics. The last stdout line is the result
//! object; the line before it is the detail block (workload-and-host
//! block, timing summaries, every value). A failed correctness check
//! makes the run exit non-zero and report no metric.
//!
//! Normally launched through `perfbench/run.py`, which builds this
//! binary first.

mod fleet;
mod golden;
mod loadgen;
mod report;
mod serve;
mod stats;
mod trace;

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use report::{Block, Outcome, PER_LAYER};

const USAGE: &str =
    "usage: perfbench --workload <fleet-reap|fleet-mpc24|fleet-intermittent|serve-mixed> \
     --seed <n> --seconds <s> --trace <0|1> [--rev <revision>] [--out <path>] [--spans <path>]";

/// Worker threads of every workload: at most two, so results from hosts
/// with more cores stay comparable with the 2-core reference host.
const MAX_THREADS: usize = 2;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub rev: String,
    pub out: Option<PathBuf>,
    pub spans: Option<PathBuf>,
    /// Worker threads (`min(nproc, MAX_THREADS)`).
    pub threads: NonZeroUsize,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut rev, mut out, mut spans) = ("unknown".to_string(), None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(number(&value)?),
                "--seconds" => seconds = Some(number(&value)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    });
                }
                "--rev" => rev = value,
                "--out" => out = Some(PathBuf::from(value)),
                "--spans" => spans = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let nproc = nproc();
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            rev,
            out,
            spans,
            threads: NonZeroUsize::new(nproc.min(MAX_THREADS)).expect("nproc >= 1"),
        })
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (users, days, offered) = if let Some(spec) = fleet::Spec::of(&args.workload) {
        (spec.users, spec.days, Vec::new())
    } else if args.workload == serve::WORKLOAD {
        (serve::USERS, 1, serve::RATES_RPS.to_vec())
    } else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let mut out = Outcome::new(Block {
        workload: args.workload.clone(),
        seed: args.seed,
        users,
        days,
        threads: args.threads.get(),
        nproc: nproc(),
        offered_rps: offered,
        seconds: args.seconds,
        trace: args.trace,
        rev: args.rev.clone(),
        cpu: cpu_model(),
    });
    if args.trace {
        for (name, _) in PER_LAYER {
            out.set(name, 0.0);
        }
    }
    let started = Instant::now();
    let mut out = match (fleet::Spec::of(&args.workload), args.trace) {
        (Some(spec), false) => fleet::run(&args, spec, out),
        (Some(spec), true) => fleet::run_traced(&args, spec, out, args.spans.as_deref()),
        (None, _) => serve::run(&args, out),
    };
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb),
            None => out.check(false, || "cannot read the peak resident set".into()),
        }
    }
    eprintln!(
        "perfbench: {} finished in {:.1} s",
        args.workload,
        started.elapsed().as_secs_f64()
    );
    std::process::exit(out.finish(args.out.as_deref()));
}

/// Runs `f` at least `min` and at most `max` times, stopping early once
/// `budget` has elapsed; returns its samples.
pub fn repeat(min: usize, max: usize, budget: Duration, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || (samples.len() < max && start.elapsed() < budget) {
        samples.push(f());
    }
    samples
}

/// SplitMix64's finalizer: a well-mixed 64-bit value from any input.
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a, the digest of golden outputs.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Writes the traced run's spans, when a path was given.
pub fn write_spans(tr: &trace::Tracer, path: Option<&Path>) {
    if let Some(path) = path {
        match tr.write(path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tr.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
}

/// Peak resident set of this process (Linux `VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
