//! `serve-mixed`: an in-process bc-serve — `Gateway::with_cas` with two
//! workers behind `Server` on loopback — driven by one closed-loop
//! client. Each round submits a tiny `fig5` job with a fresh seed (every
//! cell misses, simulates and is stored) and then resubmits three
//! earlier seeds (every cell hits). The client fetches every cell of
//! every job. Hit jobs are HTTP, store and schema work with no
//! simulation; miss jobs are almost all simulation.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bc_experiments::schema::{self, json};
use bc_experiments::{cell_seed, matrices, SweepCell};
use bc_serve::{client, Cas, Gateway, Request, Runner, Server};
use bc_system::{System, SystemConfig};
use bc_workloads::WorkloadSize;

use crate::layers::Layers;
use crate::metrics::{beyond, blocked_quantile, median, ms, peak_rss_mib, ratio, Metrics};
use crate::trace::{Spans, TimedSource};
use crate::{work_units, Outcome, WORKERS};

/// Set-up groups per run, before any traffic. A group is
/// [`STARTS_PER_GROUP`] back-to-back service start-ups and one build of
/// the first job's machines. One start-up takes ~150 µs and spreads by
/// half its median from one to the next, so set-up reports the median
/// over groups of a group's mean start-up, plus the median build. (Sampled
/// later in the run, bind and connect slow down as the client's closed
/// connections pile up in TIME_WAIT.)
const SETUP_GROUPS: usize = 9;
const STARTS_PER_GROUP: usize = 16;
/// Resubmissions of earlier seeds after each fresh-seed job.
const HITS_PER_ROUND: u64 = 3;
/// 23 rounds give 69 hit jobs, 10 of them beyond p85.
const MIN_ROUNDS: usize = 23;
/// Hit-job latencies per block of the percentiles: the hit jobs of
/// [`MIN_ROUNDS`] rounds, 10 of them beyond p85.
const LAT_BLOCK: usize = MIN_ROUNDS * HITS_PER_ROUND as usize;
/// Fresh-seed jobs whose bodies the digest covers: the first rounds, which
/// every run of a seed does whatever `--seconds` and `--trace` are.
const DIGEST_ROUNDS: usize = MIN_ROUNDS / 2;
/// One round on a 2-core host.
const NOMINAL_ROUND: Duration = Duration::from_millis(350);
/// Salt separating the resubmission choices from the job seeds.
const PICK_SALT: u64 = 0x7069_636b;

fn spec(seed: u64) -> String {
    format!("{{\"matrix\": \"fig5\", \"size\": \"tiny\", \"seed\": {seed}}}")
}

/// The cells the gateway runs for [`spec`]`(seed)`.
fn job_cells(seed: u64) -> Vec<SweepCell> {
    matrices::fig5(WorkloadSize::Tiny)
        .seed(seed)
        .audit(false)
        .cells()
}

/// Σ `System::build` over `cells`, each machine dropped untimed.
fn build_all(cells: &[SweepCell]) -> Result<Duration, String> {
    let mut total = Duration::ZERO;
    for cell in cells {
        let started = Instant::now();
        let system = System::build(&cell.config).map_err(|e| format!("{}: {e}", cell.label))?;
        total += started.elapsed();
        drop(system);
    }
    Ok(total)
}

/// What the gateway's runner did, observed from the wrapper around it.
#[derive(Default)]
struct RunnerStats {
    ns: AtomicU64,
    cycles: AtomicU64,
    /// Per-layer totals; filled only by the traced runner.
    layers: Mutex<Layers>,
}

/// `Gateway::default_runner` with a stopwatch around each call.
fn timed_runner(stats: &Arc<RunnerStats>) -> Runner {
    let inner = Gateway::default_runner();
    let stats = Arc::clone(stats);
    Arc::new(move |config: &SystemConfig| {
        let started = Instant::now();
        let result = inner(config);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        stats.ns.fetch_add(ns, Ordering::Relaxed);
        if let Ok(report) = &result {
            stats.cycles.fetch_add(report.cycles, Ordering::Relaxed);
        }
        result
    })
}

/// The default runner's work (build, run), split into timed phases with
/// stream synthesis attributed through a [`TimedSource`].
fn traced_runner(stats: &Arc<RunnerStats>, spans: &Arc<Spans>) -> Runner {
    let stats = Arc::clone(stats);
    let spans = Arc::clone(spans);
    Arc::new(move |config: &SystemConfig| {
        let started = Instant::now();
        let source = TimedSource::new();
        let mut system =
            System::build_with_source(config, &source).map_err(|e| format!("build failed: {e}"))?;
        let build_end = Instant::now();
        let report = system.run();
        let run_end = Instant::now();
        drop(system);
        let end = Instant::now();
        let id = spans.id();
        spans.record(id, None, "serve.runner", config.seed, started, end);
        spans.leaf(id, "system.build", config.seed, started, build_end);
        spans.leaf(id, "system.run", config.seed, build_end, run_end);
        let ns = u64::try_from((end - started).as_nanos()).unwrap_or(u64::MAX);
        stats.ns.fetch_add(ns, Ordering::Relaxed);
        stats.cycles.fetch_add(report.cycles, Ordering::Relaxed);
        let mut layers = stats.layers.lock().expect("runner stats poisoned");
        layers.add_report(&report);
        layers.add_phases(build_end - started, run_end - build_end, Duration::ZERO);
        layers.synth_s += source.counters.ns.load(Ordering::Relaxed) as f64 / 1e9;
        layers.next_op_calls += source.counters.next_op_calls.load(Ordering::Relaxed);
        Ok(report)
    })
}

/// A running gateway and the store directory behind it.
struct Service {
    server: Server,
    dir: std::path::PathBuf,
}

/// Set-up: `Cas::open` + `Gateway::with_cas` + `Server` bind, until the
/// service has answered its first request.
fn start(dir: &Path, runner: Runner) -> Result<(Service, Duration), String> {
    let started = Instant::now();
    let cas = Cas::open(dir).map_err(|e| format!("open store: {e}"))?;
    let gateway = Gateway::with_cas(cas, WORKERS, runner);
    let handler = Arc::new(move |req: &Request| gateway.handle(req));
    let server = Server::start("127.0.0.1:0", handler).map_err(|e| format!("bind: {e}"))?;
    let (status, body) = client::get(server.addr(), "/v1/stats")?;
    if status != 200 {
        return Err(format!("first request refused ({status}): {body}"));
    }
    let took = started.elapsed();
    Ok((
        Service {
            server,
            dir: dir.to_path_buf(),
        },
        took,
    ))
}

fn field_u64(body: &str, key: &str) -> Result<u64, String> {
    json::parse(body)
        .ok()
        .and_then(|v| v.get(key).and_then(json::Value::as_u64))
        .ok_or_else(|| format!("no '{key}' in {body:.120}"))
}

/// One job as the client saw it.
struct Job {
    seed: u64,
    ok: bool,
    latency: Duration,
    hits: u64,
    bodies: Vec<String>,
    polls: u64,
    submit: Duration,
    /// (start, end) of every status poll and cell fetch.
    status: Vec<(Instant, Instant)>,
    fetch: Vec<(Instant, Instant)>,
    cas_get: Vec<Duration>,
}

/// Submits, polls to completion and fetches every cell: the job's
/// latency runs from submit to the last cell in hand. Polling backs off
/// from 0.25 ms to 2 ms as the job ages, keeping resolution under 2% of
/// the latency while bounding the load polls put on the host.
fn job(addr: SocketAddr, seed: u64, trace: Option<(&Spans, &Cas)>) -> Result<Job, String> {
    let started = Instant::now();
    let (status, body) = client::post(addr, "/v1/jobs", &spec(seed))?;
    if status != 200 {
        return Err(format!("submit refused ({status}): {body}"));
    }
    let submit = started.elapsed();
    let id = field_u64(&body, "id")?;
    let cells = field_u64(&body, "cells")?;
    let mut status_times = Vec::new();
    let final_status = loop {
        let t = Instant::now();
        let (code, body) = client::get(addr, &format!("/v1/jobs/{id}"))?;
        status_times.push((t, Instant::now()));
        if code != 200 {
            return Err(format!("status of job {id} ({code}): {body}"));
        }
        let state = json::parse(&body)
            .ok()
            .and_then(|v| v.get("state").and_then(|s| s.as_str().map(str::to_string)))
            .ok_or_else(|| format!("no state in {body}"))?;
        if state != "queued" && state != "running" {
            break body;
        }
        let pause =
            (started.elapsed() / 50).clamp(Duration::from_micros(250), Duration::from_millis(2));
        std::thread::sleep(pause);
    };
    let mut bodies = Vec::new();
    let mut fetch = Vec::new();
    for i in 0..cells {
        let t = Instant::now();
        let (code, body) = client::get(addr, &format!("/v1/jobs/{id}/cells/{i}"))?;
        fetch.push((t, Instant::now()));
        if code != 200 {
            return Err(format!("cell {i} of job {id} ({code}): {body}"));
        }
        bodies.push(body);
    }
    let latency = started.elapsed();
    let done =
        final_status.contains("\"state\": \"done\"") && field_u64(&final_status, "failures")? == 0;
    let mut cas_get = Vec::new();
    if let Some((spans, probe)) = trace {
        let end = started + latency;
        let job_span = spans.id();
        spans.record(job_span, None, "job", id, started, end);
        spans.leaf(job_span, "serve.submit", id, started, started + submit);
        for &(t, end) in &status_times {
            spans.leaf(job_span, "serve.status", id, t, end);
        }
        for &(t, end) in &fetch {
            spans.leaf(job_span, "serve.cell_fetch", id, t, end);
        }
        let keys_body = client::get(addr, &format!("/v1/jobs/{id}/keys"))?.1;
        let keys = match json::parse(&keys_body)
            .ok()
            .and_then(|v| v.get("keys").cloned())
        {
            Some(json::Value::Array(keys)) => keys,
            _ => return Err(format!("no keys for job {id}: {keys_body}")),
        };
        for key in keys.iter().filter_map(json::Value::as_str) {
            let t = Instant::now();
            let found = probe.get(key).is_some();
            let end = Instant::now();
            cas_get.push(end - t);
            spans.leaf(job_span, "cas.get", id, t, end);
            if !found {
                return Err(format!("key {key} of job {id} is not in the store"));
            }
        }
    }
    Ok(Job {
        seed,
        ok: done,
        latency,
        hits: field_u64(&final_status, "hits")?,
        bodies,
        polls: status_times.len() as u64,
        submit,
        status: status_times,
        fetch,
        cas_get,
    })
}

/// Everything a run of rounds against one service produced.
#[derive(Default)]
struct Rounds {
    round_walls: Vec<Duration>,
    misses: Vec<Job>,
    hits: Vec<Job>,
    /// Jobs whose output failed a check.
    bad: u64,
}

/// Runs `count` rounds against the service at `addr`, numbering fresh
/// seeds from `first_round`.
fn rounds(
    addr: SocketAddr,
    seed: u64,
    first_round: usize,
    count: usize,
    trace: Option<(&Spans, &Cas)>,
) -> Result<Rounds, String> {
    let mut out = Rounds::default();
    for r in first_round..first_round + count {
        let round_start = Instant::now();
        let fresh = job(addr, cell_seed(seed, &[r as u64]), trace)?;
        if fresh.hits != 0 || !fresh.ok {
            out.bad += 1;
        }
        out.misses.push(fresh);
        for h in 0..HITS_PER_ROUND {
            let pick = cell_seed(seed ^ PICK_SALT, &[r as u64, h]) as usize % out.misses.len();
            let earlier = &out.misses[pick];
            let again = job(addr, earlier.seed, trace)?;
            if !again.ok
                || again.hits != again.bodies.len() as u64
                || again.bodies != earlier.bodies
            {
                out.bad += 1;
            }
            out.hits.push(again);
        }
        out.round_walls.push(round_start.elapsed());
    }
    Ok(out)
}

/// One cell per fresh-seed job, rebuilt and rerun directly and encoded
/// with `schema::encode_report`, must equal the bytes the gateway served.
/// Returns the number of mismatches.
fn direct_mismatches(misses: &[Job]) -> u64 {
    let bad = AtomicU64::new(0);
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let r = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = misses.get(r) else { break };
                let cells = job_cells(job.seed);
                let i = r % cells.len();
                let direct = System::build(&cells[i].config)
                    .map(|mut s| schema::encode_report(&s.run()))
                    .ok();
                if direct.as_ref() != job.bodies.get(i) {
                    eprintln!(
                        "perfbench: seed {} cell {i} differs from a direct run",
                        job.seed
                    );
                    bad.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    bad.into_inner()
}

/// `/v1/stats` store counters: (hits, misses, puts, corrupt).
fn store_stats(addr: SocketAddr) -> Result<(u64, u64, u64, u64), String> {
    let (_, body) = client::get(addr, "/v1/stats")?;
    let cas = json::parse(&body)
        .ok()
        .and_then(|v| v.get("cas").cloned())
        .ok_or_else(|| format!("no cas stats in {body}"))?;
    let get = |k: &str| {
        cas.get(k)
            .and_then(json::Value::as_u64)
            .ok_or_else(|| format!("no cas.{k} in {body}"))
    };
    Ok((get("hits")?, get("misses")?, get("puts")?, get("corrupt")?))
}

fn durations_ms(ds: impl Iterator<Item = Duration>) -> Vec<f64> {
    ds.map(ms).collect()
}

pub fn run(seed: u64, seconds: Duration, traced: bool, work: &Path) -> Result<Outcome, String> {
    let plain_stats = Arc::new(RunnerStats::default());
    let first_job = job_cells(cell_seed(seed, &[0]));
    let (mut starts, mut builds) = (Vec::new(), Vec::new());
    let mut service = None;
    for g in 0..SETUP_GROUPS {
        let mut group = Duration::ZERO;
        for k in 0..STARTS_PER_GROUP {
            let dir = work.join(format!("store-{g}-{k}"));
            let (s, took) = start(&dir, timed_runner(&plain_stats))?;
            group += took;
            service = Some(s); // the previous service stops as it drops
        }
        starts.push(group.as_secs_f64() / STARTS_PER_GROUP as f64);
        builds.push(build_all(&first_job)?.as_secs_f64());
    }
    let service = service.expect("at least one set-up");
    let addr = service.server.addr();

    let units = work_units(seconds, NOMINAL_ROUND, MIN_ROUNDS);
    let count = if traced { (units / 2).max(1) } else { units };
    let plain = rounds(addr, seed, 0, count, None)?;
    // Peak memory of the service under load, before the checks below
    // build machines of their own.
    let peak_rss = peak_rss_mib();
    let plain_store = store_stats(addr)?;
    drop(service);

    let spans = Arc::new(Spans::new());
    let traced_stats = Arc::new(RunnerStats::default());
    let instrumented = if traced {
        let (service, _) = start(
            &work.join("store-traced"),
            traced_runner(&traced_stats, &spans),
        )?;
        let probe = Cas::open(&service.dir).map_err(|e| format!("open probe store: {e}"))?;
        let addr = service.server.addr();
        let r = rounds(
            addr,
            seed,
            plain.round_walls.len(),
            count,
            Some((&spans, &probe)),
        )?;
        traced_stats
            .layers
            .lock()
            .expect("runner stats poisoned")
            .peak_rss_mib = peak_rss_mib();
        let store = store_stats(addr)?;
        Some((r, store))
    } else {
        None
    };

    let direct_bad = direct_mismatches(&plain.misses);
    let all: Vec<&Rounds> = std::iter::once(&plain)
        .chain(instrumented.as_ref().map(|(r, _)| r))
        .collect();
    let attempted: u64 = all
        .iter()
        .map(|r| (r.misses.len() + r.hits.len()) as u64)
        .sum();
    let failed = all.iter().map(|r| r.bad).sum::<u64>() + direct_bad;

    let mut checks = Vec::new();
    for (label, rounds, (hits, misses, puts, corrupt)) in std::iter::once(("", &plain, plain_store))
        .chain(instrumented.as_ref().map(|(r, s)| ("traced ", r, *s)))
    {
        let cells = |jobs: &[Job]| jobs.iter().map(|j| j.bodies.len() as u64).sum::<u64>();
        let (miss_cells, hit_cells) = (cells(&rounds.misses), cells(&rounds.hits));
        checks.push((
            format!("{label}store counters reconcile (hits {hits}, misses {misses}, puts {puts}, corrupt {corrupt})"),
            hits == hit_cells && misses == miss_cells && puts == miss_cells && corrupt == 0,
        ));
    }
    let digest_bytes: Vec<u8> = plain
        .misses
        .iter()
        .take(DIGEST_ROUNDS)
        .flat_map(|j| j.bodies.iter().flat_map(|b| b.as_bytes().iter().copied()))
        .collect();

    let miss_ms = durations_ms(plain.misses.iter().map(|j| j.latency));
    let mut m = Metrics::default();
    let wall_s = median(
        &plain
            .round_walls
            .iter()
            .map(Duration::as_secs_f64)
            .collect::<Vec<_>>(),
    );
    if let Some((r, (hits, misses, puts, corrupt))) = &instrumented {
        let mut layers =
            std::mem::take(&mut *traced_stats.layers.lock().expect("runner stats poisoned"));
        let jobs = || r.misses.iter().chain(&r.hits);
        layers.submit_ms = median(&durations_ms(jobs().map(|j| j.submit)));
        let spans_ms = |pairs: &[(Instant, Instant)]| {
            pairs.iter().map(|&(t, end)| end - t).collect::<Vec<_>>()
        };
        layers.status_ms = median(&durations_ms(jobs().flat_map(|j| spans_ms(&j.status))));
        layers.cell_fetch_ms = median(&durations_ms(jobs().flat_map(|j| spans_ms(&j.fetch))));
        layers.status_polls = ratio(
            jobs().map(|j| j.polls).sum::<u64>() as f64,
            jobs().count() as f64,
        );
        layers.cas_get_ms = median(&durations_ms(
            jobs().flat_map(|j| j.cas_get.iter().copied()),
        ));
        layers.runner_s = traced_stats.ns.load(Ordering::Relaxed) as f64 / 1e9;
        layers.cas_hit_ratio = ratio(*hits as f64, (hits + misses) as f64);
        layers.cas_puts = *puts;
        layers.cas_corrupt = *corrupt;
        layers.job_miss_p50_ms = median(&durations_ms(r.misses.iter().map(|j| j.latency)));
        let traced_walls: Vec<f64> = r.round_walls.iter().map(Duration::as_secs_f64).collect();
        layers.overhead_s = median(&traced_walls) - wall_s;
        layers.render(&mut m);
    } else {
        let hit_ms = durations_ms(plain.hits.iter().map(|j| j.latency));
        let runner_s = plain_stats.ns.load(Ordering::Relaxed) as f64 / 1e9;
        let cycles = plain_stats.cycles.load(Ordering::Relaxed) as f64;
        m.push("wall_s", wall_s, "s");
        // Set-up: the service's start-up plus Σ `System::build` over the
        // first job's cells, the machines it has to build before it can
        // answer.
        let (start_s, job_build_s) = (median(&starts), median(&builds));
        m.push("setup_s", start_s + job_build_s, "s");
        m.push("sim_cycles_per_s", ratio(cycles, runner_s), "cycles/s");
        let (p50, p85) = (
            blocked_quantile(&hit_ms, LAT_BLOCK, 0.5),
            blocked_quantile(&hit_ms, LAT_BLOCK, 0.85),
        );
        m.push("lat_p50_ms", p50, "ms");
        m.push("lat_p85_ms", p85, "ms");
        // The same two values under this workload's own names.
        m.push("job_hit_p50_ms", p50, "ms");
        m.push("job_hit_p85_ms", p85, "ms");
        m.push("peak_rss_mib", peak_rss, "MiB");
        m.count("lat_samples", hit_ms.len() as u64);
        m.count("lat_blocks", (hit_ms.len() / LAT_BLOCK).max(1) as u64);
        m.count(
            "lat_beyond_p85",
            beyond(&hit_ms[..LAT_BLOCK.min(hit_ms.len())], 85) as u64,
        );
        m.count("rounds", plain.round_walls.len() as u64);
        m.push("service_start_s", start_s, "s");
        m.push("job_build_s", job_build_s, "s");
        m.push("job_miss_p50_ms", median(&miss_ms), "ms");
        m.push(
            "status_polls_per_job",
            ratio(
                plain
                    .misses
                    .iter()
                    .chain(&plain.hits)
                    .map(|j| j.polls)
                    .sum::<u64>() as f64,
                attempted as f64,
            ),
            "polls/job",
        );
        m.push(
            "failed_frac",
            ratio(failed as f64, attempted as f64),
            "ratio",
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        checks,
        digest: bc_sim::sha256::hex_digest(&digest_bytes),
        metrics: m.0,
        spans: spans.take(),
    })
}
