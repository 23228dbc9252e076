//! `tenants-n1000`: `MultiTenantSystem` with N=1000 tenants over M=4
//! accelerators, on both memory backends, each over [`SEEDS`] seeds
//! derived from the workload seed. This is the write and revocation path
//! (scheduler, PT zeroing on every unbind, downgrade storms,
//! kill-on-violation); it synthesizes no access streams.
//!
//! A pass runs one grid per seed — the seed's config crossed with both
//! backends — through `tenants_grid::run_tenants_cells` on two workers,
//! as the `tenants` binary does, then encodes every report with
//! `tenants_matrix_json`. A grid is the operation whose latency is
//! reported. Traced passes build and run each grid's two cells on two
//! threads of their own instead, so that build and run can be timed apart.

use std::time::{Duration, Instant};

use bc_experiments::cell_seed;
use bc_experiments::tenants_grid::{
    run_tenants_cells, tenants_cells, tenants_matrix_json, TenantsCell,
};
use bc_mem::dram::MemBackend;
use bc_system::{MultiTenantSystem, TenantsConfig, TenantsReport};

use crate::layers::Layers;
use crate::metrics::{beyond, median, ms, peak_rss_mib, quantile, ratio, Metrics};
use crate::trace::Spans;
use crate::{median_pass, passes, work_units, Outcome, WORKERS};

/// Seeds, so grids, per pass.
const SEEDS: u64 = 8;
const TENANTS: usize = 1000;
const ACCELS: usize = 4;
const BACKENDS: [MemBackend; 2] = [MemBackend::LocalDram, MemBackend::CxlPool];
/// One pass on a 2-core host.
const NOMINAL_PASS: Duration = Duration::from_millis(3300);
/// 9 passes give 72 grid latencies, 10 of them beyond p85.
const MIN_PASSES: usize = 9;
/// Set-ups per run; the reported set-up time is their median.
const SETUP_REPEATS: usize = 3;

/// One grid per derived seed, each over both backends.
fn grids(seed: u64) -> Vec<Vec<TenantsCell>> {
    (0..SEEDS)
        .map(|k| {
            let base = TenantsConfig {
                tenants: TENANTS,
                accels: ACCELS,
                seed: cell_seed(seed, &[k]),
                audit: false,
                ..TenantsConfig::default()
            };
            tenants_cells(&base, &BACKENDS)
        })
        .collect()
}

/// One cell of a traced pass, with where its time went.
struct CellRun {
    build: Duration,
    run: Duration,
    wall: Duration,
}

/// One grid: its reports in cell order, its wall time, and (traced
/// passes only) its cells' phase times.
struct Grid {
    reports: Vec<(String, TenantsReport)>,
    wall: Duration,
    cells: Vec<CellRun>,
}

/// A traced grid: every cell on a thread of its own (there are as many
/// cells as workers), with build and run timed apart.
fn traced_grid(cells: &[TenantsCell], spans: &Spans, parent: u64) -> Result<Grid, String> {
    let started = Instant::now();
    let outcomes: Vec<Result<(TenantsReport, CellRun), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                scope.spawn(move || {
                    let t = Instant::now();
                    let mut system = MultiTenantSystem::build(&cell.config)
                        .map_err(|e| format!("{}: build failed: {e}", cell.label))?;
                    let build_end = Instant::now();
                    let report = system.run();
                    let run_end = Instant::now();
                    drop(system);
                    let end = Instant::now();
                    let id = spans.id();
                    spans.record(id, Some(parent), "cell", i as u64, t, end);
                    spans.leaf(id, "system.build", i as u64, t, build_end);
                    spans.leaf(id, "system.run", i as u64, build_end, run_end);
                    spans.leaf(id, "system.drop", i as u64, run_end, end);
                    let run = CellRun {
                        build: build_end - t,
                        run: run_end - build_end,
                        wall: end - t,
                    };
                    Ok((report, run))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("cell panicked".to_string()))
            })
            .collect()
    });
    let mut grid = Grid {
        reports: Vec::new(),
        wall: started.elapsed(),
        cells: Vec::new(),
    };
    for (cell, outcome) in cells.iter().zip(outcomes) {
        let (report, run) = outcome?;
        grid.reports.push((cell.label.clone(), report));
        grid.cells.push(run);
    }
    Ok(grid)
}

struct Pass {
    grids: Vec<Grid>,
    encode: Duration,
    json: String,
}

fn pass(grids: &[Vec<TenantsCell>], spans: Option<&Spans>) -> Result<Pass, String> {
    let started = Instant::now();
    let parent = spans.map(Spans::id);
    let mut done = Vec::new();
    for cells in grids {
        done.push(match spans.zip(parent) {
            Some((spans, parent)) => traced_grid(cells, spans, parent)?,
            None => {
                let t = Instant::now();
                let reports = run_tenants_cells(cells, WORKERS);
                Grid {
                    reports,
                    wall: t.elapsed(),
                    cells: Vec::new(),
                }
            }
        });
    }
    let encode_start = Instant::now();
    let all: Vec<(String, TenantsReport)> = done
        .iter()
        .flat_map(|g| g.reports.iter().cloned())
        .collect();
    let json = tenants_matrix_json(&all);
    let end = Instant::now();
    if let (Some(spans), Some(id)) = (spans, parent) {
        spans.leaf(id, "experiments.encode", 0, encode_start, end);
        spans.record(id, None, "pass", 0, started, end);
    }
    Ok(Pass {
        grids: done,
        encode: end - encode_start,
        json,
    })
}

/// Σ `MultiTenantSystem::build` over every cell.
fn setup(grids: &[Vec<TenantsCell>]) -> Result<Duration, String> {
    let mut total = Duration::ZERO;
    for cell in grids.iter().flatten() {
        let t = Instant::now();
        let system =
            MultiTenantSystem::build(&cell.config).map_err(|e| format!("{}: {e}", cell.label))?;
        total += t.elapsed();
        drop(system);
    }
    Ok(total)
}

/// Every report of a pass, in cell order.
fn reports(p: &Pass) -> Vec<&TenantsReport> {
    p.grids
        .iter()
        .flat_map(|g| g.reports.iter().map(|(_, r)| r))
        .collect()
}

fn ok_report(r: &TenantsReport) -> bool {
    !r.aborted && r.completed + r.killed == TENANTS as u64
}

/// Re-runs, untimed and with the audit oracle on, every cell whose
/// report counts lucky probes: wild writes the border let through. One
/// is right only when the guessed frame was the prober's own grant,
/// which the oracle checks decision by decision; 2 of 10 random workload
/// seeds have one. Returns how many cells were re-run and whether each
/// came back clean with the same probe counts.
fn audit_lucky(grids: &[Vec<TenantsCell>], first: &Pass) -> (usize, bool) {
    let lucky: Vec<(&TenantsCell, &TenantsReport)> = grids
        .iter()
        .flatten()
        .zip(reports(first))
        .filter(|(_, r)| r.probes.2 > 0)
        .collect();
    let clean = lucky.iter().all(|(cell, timed)| {
        let config = TenantsConfig {
            audit: true,
            ..cell.config.clone()
        };
        MultiTenantSystem::build(&config).is_ok_and(|mut system| {
            let audited = system.run();
            audited.audit.is_some() && audited.audit_clean() && audited.probes == timed.probes
        })
    });
    (lucky.len(), clean)
}

/// Geometric mean of the nonzero values (0 when there are none).
fn geomean_nonzero(values: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<f64> = values.filter(|&x| x > 0).map(|x| x as f64).collect();
    bc_sim::stats::geometric_mean(&v).unwrap_or(0.0)
}

pub fn run(seed: u64, seconds: Duration, traced: bool) -> Result<Outcome, String> {
    let grids = grids(seed);
    // Set-up runs in traced runs too, so both halves start equally warm.
    let setups = (0..SETUP_REPEATS)
        .map(|_| setup(&grids).map(|d| d.as_secs_f64()))
        .collect::<Result<Vec<_>, _>>()?;
    let setup_s = median(&setups);
    let units = work_units(seconds, NOMINAL_PASS, MIN_PASSES);
    let count = if traced { (units / 2).max(1) } else { units };
    let plain = passes(count, || pass(&grids, None));
    let spans = Spans::new();
    let instrumented = if traced {
        passes(count, || pass(&grids, Some(&spans)))
    } else {
        Vec::new()
    };
    let unwrap = |ps: Vec<(Duration, Result<Pass, String>)>| {
        ps.into_iter()
            .map(|(wall, p)| p.map(|p| (wall, p)))
            .collect::<Result<Vec<_>, _>>()
    };
    let (plain, instrumented) = (unwrap(plain)?, unwrap(instrumented)?);
    let all = || plain.iter().chain(&instrumented).map(|(_, p)| p);

    let attempted = all().map(|p| reports(p).len() as u64).sum();
    let failed = all()
        .flat_map(|p| reports(p))
        .filter(|r| !ok_report(r))
        .count() as u64;
    if failed > 0 {
        eprintln!("perfbench: {failed} tenants cells failed their check");
    }
    let digests: Vec<String> = all()
        .map(|p| bc_sim::sha256::hex_digest(p.json.as_bytes()))
        .collect();
    let (lucky_cells, lucky_clean) = audit_lucky(&grids, &plain[0].1);
    let checks = vec![
        (
            "every pass produced identical reports".to_string(),
            digests.iter().all(|d| *d == digests[0]),
        ),
        (
            format!("every lucky probe hit the prober's own frame (audited re-run of {lucky_cells} cells)"),
            lucky_clean,
        ),
    ];
    let tail = geomean_nonzero(reports(&plain[0].1).iter().map(|r| r.completion_p99));

    let mut m = Metrics::default();
    let walls: Vec<f64> = plain.iter().map(|(w, _)| w.as_secs_f64()).collect();
    let wall_s = median(&walls);
    if traced {
        let (_, p) = &instrumented[median_pass(&instrumented)];
        let mut layers = Layers::default();
        for r in reports(p) {
            layers.cycles += r.cycles;
            layers.events += r.events;
            layers.bc_checks += r.checks;
            layers.iotlb.0 += r.translations;
            layers.iotlb.1 += r.walks;
            layers.ats_walks += r.walks;
            layers.dram_reads += r.dram_reads;
            layers.dram_writes += r.dram_writes;
            layers.preempts += r.preempts;
            layers.binds += r.binds;
            layers.storms += r.storms;
            layers.pt_zero_blocks += r.pt_zero_blocks;
            layers.killed += r.killed;
        }
        let cells = || p.grids.iter().flat_map(|g| &g.cells);
        for c in cells() {
            layers.add_phases(c.build, c.run, Duration::ZERO);
        }
        layers.kill_p99_cycles = geomean_nonzero(reports(p).iter().map(|r| r.kill_p99));
        layers.tenant_p99_cycles = tail;
        // The matrix JSON is encoded after the last grid, on one thread.
        let pool_wall: Duration = p.grids.iter().map(|g| g.wall).sum();
        let cell_walls: Vec<Duration> = cells().map(|c| c.wall).collect();
        layers.set_pool(WORKERS, pool_wall, &cell_walls);
        layers.encode_s = p.encode.as_secs_f64();
        let traced_walls: Vec<f64> = instrumented.iter().map(|(w, _)| w.as_secs_f64()).collect();
        layers.overhead_s = median(&traced_walls) - wall_s;
        layers.peak_rss_mib = peak_rss_mib();
        layers.render(&mut m);
    } else {
        let grid_walls = || {
            plain
                .iter()
                .flat_map(|(_, p)| p.grids.iter().map(|g| g.wall))
        };
        let lat: Vec<f64> = grid_walls().map(ms).collect();
        let cycles: u64 = plain
            .iter()
            .flat_map(|(_, p)| reports(p))
            .map(|r| r.cycles)
            .sum();
        let worker_s = WORKERS as f64 * grid_walls().map(|w| w.as_secs_f64()).sum::<f64>();
        m.push("wall_s", wall_s, "s");
        m.push("setup_s", setup_s, "s");
        m.push(
            "sim_cycles_per_s",
            ratio(cycles as f64, worker_s),
            "cycles/s",
        );
        m.push("lat_p50_ms", quantile(&lat, 0.5), "ms");
        m.push("lat_p85_ms", quantile(&lat, 0.85), "ms");
        // The same two values under this workload's own names.
        m.push("grid_p50_ms", quantile(&lat, 0.5), "ms");
        m.push("grid_p85_ms", quantile(&lat, 0.85), "ms");
        m.push("peak_rss_mib", peak_rss_mib(), "MiB");
        m.count("lat_samples", lat.len() as u64);
        m.count("lat_beyond_p85", beyond(&lat, 85) as u64);
        m.count("passes", plain.len() as u64);
        m.push(
            "failed_frac",
            ratio(failed as f64, attempted as f64),
            "ratio",
        );
        m.push("tenant_p99_cycles", tail, "cycles");
    }
    Ok(Outcome {
        attempted,
        failed,
        checks,
        digest: digests[0].clone(),
        metrics: m.0,
        spans: spans.take(),
    })
}
