//! The hybrid-LSH benchmark: one command, five workloads, every answer
//! checked against the benchmark's own arithmetic.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer breakdown (see
//! `README.md` next to this package). Diagnostics go to standard
//! error. A wrong answer makes the run exit with code 1.

mod common;
mod layers;
mod mixture;
mod paper;

use common::{summarize, Metrics, Sample};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 5] =
    ["paper-hamming", "paper-webspam", "serve-mixture", "live-churn", "dist-2shard"];

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [&str; 6] =
    ["setup_s", "ops_per_s", "query_p50_ms", "query_p99_ms", "neighbors_found", "peak_rss_mb"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed of the generated query tape.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad --seed {value:?}"))?)
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {}", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back: its metrics and the operation tally.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics by name.
    pub metrics: Metrics,
    /// Operations attempted (queries answered, points written, answers
    /// checked).
    pub attempted: u64,
    /// Operations that returned an error instead of an answer.
    pub failed: u64,
    /// Wrong answers, described.
    pub wrong: Vec<String>,
}

impl Outcome {
    /// Records a wrong answer (the first few are printed).
    pub fn wrong(&mut self, what: String) {
        if self.wrong.len() < 10 {
            eprintln!("WRONG: {what}");
        }
        self.wrong.push(what);
    }

    /// Records a failed operation (the first few are printed).
    pub fn failed(&mut self, what: String) {
        if self.failed < 10 {
            eprintln!("FAILED: {what}");
        }
        self.failed += 1;
    }

    /// Sets `ops_per_s`, `query_p50_ms` and `query_p99_ms` from the
    /// samples of a measured phase that lasted `wall` seconds.
    pub fn latency(&mut self, what: &str, samples: Vec<Sample>, wall: f64) {
        let ops: u64 = samples.iter().map(|s| s.ops).sum();
        let s = summarize(samples, wall);
        eprintln!("# {} {what} latency samples, {ops} operations in {wall:.3} s", s.samples);
        self.metrics.set("ops_per_s", s.ops_per_s, "1/s");
        self.metrics.set("query_p50_ms", s.p50_ms, "ms");
        self.metrics.set("query_p99_ms", s.p99_ms, "ms");
    }
}

/// A run that has not finished after this long is stopped.
const WATCHDOG_S: u64 = 170;

/// Ends the process with code 3 if the run overruns `WATCHDOG_S`,
/// first removing this process's scratch directories.
fn watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_S));
        eprintln!("perfbench: run exceeded {WATCHDOG_S} s; stopping");
        common::remove_scratch_of(std::process::id());
        std::process::exit(3);
    });
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            std::process::exit(2);
        }
    };
    watchdog();
    let mut out = match args.workload.as_str() {
        "paper-hamming" => paper::hamming(&args),
        "paper-webspam" => paper::webspam(&args),
        "serve-mixture" => mixture::serve(&args),
        "live-churn" => mixture::live(&args),
        "dist-2shard" => mixture::dist(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    if args.trace {
        out.metrics.retain(|name| !END_TO_END.contains(&name));
    } else {
        out.metrics.set("peak_rss_mb", common::peak_rss_mb(), "MB");
    }
    let correct = out.wrong.is_empty();
    println!("{}", out.metrics.to_json(correct, out.attempted, out.failed));
    if !correct {
        eprintln!("perfbench: {} wrong answer(s)", out.wrong.len());
        std::process::exit(1);
    }
}
