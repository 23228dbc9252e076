//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4-ref|tenants-n1000|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives the repository's public APIs from outside
//! (bc-experiments, bc-system, bc-workloads, bc-serve), checks the
//! outputs, and prints one `metric <name> <value> <unit>` line per
//! measured quantity followed by a last line holding one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! JSON carries the end-to-end metrics of `BENCHMARK.json`, measured with
//! no instrumentation; with `--trace 1` it carries the per-layer metrics,
//! measured by timing calls into each layer, and half the run's work goes
//! untraced so the tracing overhead is reported too. `--seconds` sets the
//! amount of work through [`work_units`].
//! `perfbench/README.md` defines every metric.

mod fig4;
mod layers;
mod metrics;
mod serve;
mod tenants;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use metrics::{Metric, MetricKind};
use trace::Span;

/// Sweep workers, gateway workers and the tenants pool size: the
/// benchmark loads the host from one process with at most two threads
/// simulating at a time.
pub const WORKERS: usize = 2;

/// A seed kept out of every tuning run, for re-checking later claims
/// on inputs nobody optimized against.
pub const HELD_OUT_SEED: u64 = 20_151_205;

/// Units of work (passes, rounds) that fill `seconds`, given what one
/// unit takes on a 2-core host: a function of the arguments alone, so
/// every run with the same arguments does the same work. At least `min`.
pub fn work_units(seconds: Duration, nominal: Duration, min: usize) -> usize {
    ((seconds.as_secs_f64() / nominal.as_secs_f64()).round() as usize).max(min)
}

/// Runs `pass` `count` times back to back. Returns each pass's wall time
/// with its result.
pub fn passes<P>(count: usize, mut pass: impl FnMut() -> P) -> Vec<(Duration, P)> {
    (0..count)
        .map(|_| {
            let started = Instant::now();
            let result = pass();
            (started.elapsed(), result)
        })
        .collect()
}

/// Index of the pass whose wall time is the (lower) median.
pub fn median_pass<P>(passes: &[(Duration, P)]) -> usize {
    let mut order: Vec<usize> = (0..passes.len()).collect();
    order.sort_by_key(|&i| passes[i].0);
    order[(order.len() - 1) / 2]
}

/// Everything one workload run produced.
pub struct Outcome {
    /// Operations attempted: cells on the sweep workloads, jobs on serve.
    pub attempted: u64,
    /// Operations that failed, aborted unexpectedly, were refused or
    /// returned output that failed its check.
    pub failed: u64,
    /// Workload-level output checks, by name.
    pub checks: Vec<(String, bool)>,
    /// sha256 over every report byte the workload produced.
    pub digest: String,
    /// Every measured quantity, end-to-end and per-layer alike.
    pub metrics: Vec<Metric>,
    /// Trace spans (empty unless traced).
    pub spans: Vec<Span>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut pairs = argv.chunks(2);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("flag '{}' has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds must be a positive number, got '{value}'"))?;
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                });
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

/// Host facts and inputs recorded beside every result.
fn host_line(args: &Args, size: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "# host {{\"host_cores\": {cores}, \"workers\": {WORKERS}, \"workload\": \"{}\", \
         \"size\": \"{size}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{git_rev}\", \"code_rev\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.traced),
        bc_experiments::schema::CODE_REV,
    )
}

/// Scratch space inside the checkout (the gateway's result store); the
/// per-process subdirectory is removed when the run ends.
fn work_dir() -> std::io::Result<PathBuf> {
    let dir = std::env::current_dir()?
        .join(".bench_work")
        .join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fig4-ref|tenants-n1000|serve-mixed \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let size = match args.workload.as_str() {
        "fig4-ref" => "reference",
        "tenants-n1000" => "n1000-m4",
        "serve-mixed" => "tiny",
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    println!("{}", host_line(&args, size));

    let work = work_dir().unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create the work directory: {e}");
        std::process::exit(1);
    });
    let outcome = match args.workload.as_str() {
        "fig4-ref" => fig4::run(args.seed, args.seconds, args.traced),
        "tenants-n1000" => tenants::run(args.seed, args.seconds, args.traced),
        _ => serve::run(args.seed, args.seconds, args.traced, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    if args.traced {
        let path = work.with_file_name(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_spans(&path, &outcome.spans) {
            Ok(()) => println!(
                "# spans {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    for (name, ok) in &outcome.checks {
        println!("# check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    println!("# digest sha256:{}", outcome.digest);
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }

    let kind = if args.traced {
        MetricKind::PerLayer
    } else {
        MetricKind::EndToEnd
    };
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|(_, ok)| *ok);
    println!(
        "{}",
        metrics::result_json(
            correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics,
            kind
        )
    );
}
