//! The sweep-as-a-service daemon.
//!
//! ```text
//! bc-serve [--addr 127.0.0.1:7171] [--cache-dir .bc-cache] [--jobs N]
//!          [--cas-max-bytes N]
//! bc-serve --smoke [--size tiny]
//! ```
//!
//! Serves the `/v1` job API (see `bc_serve::gateway`) until killed.
//! `--cas-max-bytes` caps the result store: after every write the oldest
//! objects are evicted until the store fits (eviction counters appear on
//! `/v1/stats`); an evicted result just re-simulates on its next request.
//! The cache directory is the one the figure binaries' `--cache-dir`
//! takes, so a sweep run on the command line and a job submitted here
//! fill and serve the same store.
//! `--smoke` instead runs the self-check CI uses: bind an ephemeral port
//! with a fresh cache, submit the figure-4 sweep twice over real HTTP,
//! and require the second (warm) submission to be served entirely from
//! the content-addressed store, byte-identical and ≥10× faster.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use bc_serve::{client, Cas, Gateway, Server};

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let addr = arg_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let cache_dir = arg_value(&args, "--cache-dir").unwrap_or_else(|| ".bc-cache".to_string());
    let jobs = arg_value(&args, "--jobs")
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });

    if args.iter().any(|a| a == "--smoke") {
        let size = arg_value(&args, "--size").unwrap_or_else(|| "tiny".to_string());
        return smoke(&size, jobs);
    }

    let cas_max_bytes = match arg_value(&args, "--cas-max-bytes") {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("bc-serve: invalid --cas-max-bytes '{raw}'");
                return ExitCode::FAILURE;
            }
        },
    };
    let cas = match Cas::open_bounded(&cache_dir, cas_max_bytes) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bc-serve: cannot open cache dir '{cache_dir}': {e}");
            return ExitCode::FAILURE;
        }
    };
    let gateway = Gateway::with_cas(cas, jobs, Gateway::default_runner());
    let handler = Arc::new(move |req: &bc_serve::Request| gateway.handle(req));
    let server = match Server::start(&addr, handler) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bc-serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "bc-serve: listening on {} (cache '{cache_dir}', {jobs} workers)",
        server.addr()
    );
    loop {
        std::thread::park();
    }
}

/// The CI self-check: cold fig4 sweep, then warm resubmission that must
/// be all cache hits, byte-identical, and ≥10× faster.
fn smoke(size: &str, jobs: usize) -> ExitCode {
    let cache_dir = std::env::temp_dir().join(format!("bc-serve-smoke-{}", std::process::id()));
    let result = smoke_in(size, jobs, &cache_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
    match result {
        Ok(()) => {
            eprintln!("bc-serve --smoke: ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bc-serve --smoke: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn smoke_in(size: &str, jobs: usize, cache_dir: &std::path::Path) -> Result<(), String> {
    let gateway = Gateway::new(cache_dir, jobs).map_err(|e| format!("open cache: {e}"))?;
    let handler = Arc::new(move |req: &bc_serve::Request| gateway.handle(req));
    let server = Server::start("127.0.0.1:0", handler).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let spec = format!("{{\"matrix\": \"fig4\", \"size\": \"{size}\"}}");

    let submit = |pass: &str| -> Result<(u64, usize, f64, String), String> {
        let started = Instant::now();
        let (status, body) = client::post(addr, "/v1/jobs", &spec)?;
        if status != 200 {
            return Err(format!("{pass} submit: status {status}: {body}"));
        }
        let id = body
            .split(|c: char| !c.is_ascii_digit())
            .find(|s| !s.is_empty())
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| format!("{pass} submit: no id in {body}"))?;
        let final_status = client::wait_for_job(addr, id)?;
        if !final_status.contains("\"state\": \"done\"") {
            return Err(format!("{pass} job did not finish clean: {final_status}"));
        }
        let cells = final_status
            .split("\"cells\": ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse::<usize>().ok())
            .ok_or_else(|| format!("{pass}: no cell count in {final_status}"))?;
        Ok((id, cells, started.elapsed().as_secs_f64(), final_status))
    };

    let (cold_id, cells, cold_secs, _) = submit("cold")?;
    let (warm_id, _, warm_secs, warm_status) = submit("warm")?;
    if !warm_status.contains(&format!("\"hits\": {cells}")) {
        return Err(format!("warm pass was not all cache hits: {warm_status}"));
    }
    for i in 0..cells {
        let (s1, cold) = client::get(addr, &format!("/v1/jobs/{cold_id}/cells/{i}"))?;
        let (s2, warm) = client::get(addr, &format!("/v1/jobs/{warm_id}/cells/{i}"))?;
        if s1 != 200 || s2 != 200 {
            return Err(format!("cell {i}: statuses {s1}/{s2}"));
        }
        if cold != warm {
            return Err(format!("cell {i}: warm bytes differ from cold bytes"));
        }
    }
    eprintln!(
        "smoke: {cells} cells, cold {cold_secs:.2}s, warm {warm_secs:.2}s \
         ({:.1}x)",
        cold_secs / warm_secs.max(1e-9)
    );
    if warm_secs * 10.0 > cold_secs {
        return Err(format!(
            "warm pass not >=10x faster (cold {cold_secs:.3}s, warm {warm_secs:.3}s)"
        ));
    }
    Ok(())
}
