//! `fig4-ref`: the paper's Figure 4 matrix at reference size — 2 GPU
//! classes × 5 safety models × 7 Rodinia workloads = 70 cells — on the
//! sweep engine's pool (`bc_experiments::run_cells_with`). Every cell
//! builds a fresh machine, so modeled caches and TLBs start empty.

use std::time::{Duration, Instant};

use bc_experiments::matrices::{self, FIG4_GPUS, FIG4_SAFETIES};
use bc_experiments::sweep::CellOutcome;
use bc_experiments::{
    geomean_overhead, run_cells_with, schema, SweepCell, SweepMatrix, SweepOptions,
};
use bc_system::{RunReport, System};
use bc_workloads::WorkloadSize;

use crate::layers::Layers;
use crate::metrics::{beyond, median, ms, peak_rss_mib, quantile, ratio, Metrics};
use crate::trace::{Spans, TimedSource};
use crate::{median_pass, passes, work_units, Outcome, WORKERS};

/// The paper's Figure 4 geomeans, `[4a, 4b]` × (Full IOMMU, CAPI-like,
/// BC-noBCC, BC-BCC), as overhead fractions (as printed by `fig4`).
const PAPER_GEOMEANS: [[f64; 4]; 2] = [
    [3.74, 0.0381, 0.0204, 0.0015],
    [0.85, 0.165, 0.0726, 0.0084],
];

/// One pass on a 2-core host.
const NOMINAL_PASS: Duration = Duration::from_secs(20);
/// The host's speed drifts by up to 30% from one minute to the next, and
/// one pass sits inside one stretch of it; the median over two passes
/// spans more of the drift.
const MIN_PASSES: usize = 2;

/// Figure 4 labels of the two GPU classes, in `FIG4_GPUS` order.
const FIGURES: [&str; 2] = ["4a", "4b"];

fn matrix(seed: u64) -> SweepMatrix {
    matrices::fig4(WorkloadSize::Reference, &FIG4_GPUS)
        .seed(seed)
        .audit(false)
}

/// One cell's report, its canonical bytes and where its time went.
struct CellRun {
    report: RunReport,
    bytes: String,
    build: Duration,
    run: Duration,
    encode: Duration,
    synth_ns: u64,
    next_op_calls: u64,
}

fn run_cell(cell: &SweepCell, trace: Option<(&Spans, u64)>, owner: u64) -> Result<CellRun, String> {
    let started = Instant::now();
    let source = trace.map(|_| TimedSource::new());
    let built = match &source {
        Some(source) => System::build_with_source(&cell.config, source),
        None => System::build(&cell.config),
    };
    let mut system = built.map_err(|e| format!("build failed: {e}"))?;
    let build_end = Instant::now();
    let report = system.run();
    let run_end = Instant::now();
    drop(system);
    let drop_end = Instant::now();
    let bytes = schema::encode_report(&report);
    let encode_end = Instant::now();
    if let Some((spans, parent)) = trace {
        let id = spans.id();
        spans.record(id, Some(parent), "cell", owner, started, encode_end);
        spans.leaf(id, "system.build", owner, started, build_end);
        spans.leaf(id, "system.run", owner, build_end, run_end);
        spans.leaf(id, "system.drop", owner, run_end, drop_end);
        spans.leaf(id, "experiments.encode", owner, drop_end, encode_end);
    }
    let (synth_ns, next_op_calls) = source.map_or((0, 0), |s| {
        let c = &s.counters;
        (
            c.ns.load(std::sync::atomic::Ordering::Relaxed),
            c.next_op_calls.load(std::sync::atomic::Ordering::Relaxed),
        )
    });
    Ok(CellRun {
        report,
        bytes,
        build: build_end - started,
        run: run_end - build_end,
        encode: encode_end - drop_end,
        synth_ns,
        next_op_calls,
    })
}

fn pass(cells: &[SweepCell], spans: Option<&Spans>) -> Vec<CellOutcome<CellRun>> {
    let started = Instant::now();
    let parent = spans.map(Spans::id);
    let index = |cell: &SweepCell| {
        cells
            .iter()
            .position(|c| c.coords == cell.coords)
            .unwrap_or(usize::MAX) as u64
    };
    let outcomes = run_cells_with(cells, &SweepOptions::with_jobs(WORKERS), |cell| {
        run_cell(cell, spans.zip(parent), index(cell))
    });
    if let (Some(spans), Some(id)) = (spans, parent) {
        spans.record(id, None, "pass", 0, started, Instant::now());
    }
    outcomes
}

/// Figure 4 geomeans `[gpu][safe scheme]` of one pass, if every cell ran.
fn geomeans(outcomes: &[CellOutcome<CellRun>]) -> Option<[[f64; 4]; 2]> {
    let reports: Vec<&RunReport> = outcomes
        .iter()
        .map(|o| o.result.as_ref().ok().map(|c| &c.report))
        .collect::<Option<_>>()?;
    let nw = bc_experiments::WORKLOADS.len();
    let ns = FIG4_SAFETIES.len();
    let at = |g: usize, s: usize, w: usize| reports[(g * ns + s) * nw + w];
    let mut out = [[0.0; 4]; 2];
    for (g, row) in out.iter_mut().enumerate() {
        for (k, slot) in row.iter_mut().enumerate() {
            let overheads: Vec<f64> = (0..nw)
                .map(|w| at(g, k + 1, w).overhead_vs(at(g, 0, w)))
                .collect();
            *slot = geomean_overhead(&overheads);
        }
    }
    Some(out)
}

/// Mean |ln((1 + measured) / (1 + paper))| over the 8 geomeans.
fn paper_err(g: &[[f64; 4]; 2]) -> f64 {
    let mut sum = 0.0;
    for (measured, paper) in g.iter().flatten().zip(PAPER_GEOMEANS.iter().flatten()) {
        sum += ((1.0 + measured) / (1.0 + paper)).ln().abs();
    }
    sum / 8.0
}

fn digest(outcomes: &[CellOutcome<CellRun>]) -> String {
    let mut bytes = Vec::new();
    for o in outcomes {
        match &o.result {
            Ok(c) => bytes.extend_from_slice(c.bytes.as_bytes()),
            Err(e) => bytes.extend_from_slice(format!("error: {e}").as_bytes()),
        }
    }
    bc_sim::sha256::hex_digest(&bytes)
}

fn ok_cell(o: &CellOutcome<CellRun>) -> bool {
    matches!(&o.result, Ok(c) if !c.report.aborted)
}

pub fn run(seed: u64, seconds: Duration, traced: bool) -> Result<Outcome, String> {
    let started = Instant::now();
    let cells = matrix(seed).cells();
    let construct = started.elapsed();
    let units = work_units(seconds, NOMINAL_PASS, MIN_PASSES);
    let count = if traced { (units / 2).max(1) } else { units };
    let plain = passes(count, || pass(&cells, None));
    let spans = Spans::new();
    let instrumented = if traced {
        passes(count, || pass(&cells, Some(&spans)))
    } else {
        Vec::new()
    };
    let all = || plain.iter().chain(&instrumented);

    let attempted = all().map(|(_, p)| p.len() as u64).sum();
    let failed = all()
        .flat_map(|(_, p)| p.iter())
        .filter(|o| !ok_cell(o))
        .count() as u64;
    for o in all().flat_map(|(_, p)| p.iter()).filter(|o| !ok_cell(o)) {
        eprintln!("perfbench: cell {} failed or aborted", o.label);
    }
    let digests: Vec<String> = all().map(|(_, p)| digest(p)).collect();
    let first = &plain[0].1;
    let g = geomeans(first);
    let mut checks = vec![(
        "every pass produced identical reports".to_string(),
        digests.iter().all(|d| *d == digests[0]),
    )];
    // BC-BCC's near-zero cost is checked against BC-noBCC's, not against
    // a fixed 1%: bfs on the highly threaded GPU moves from -5% to +14%
    // under BC-BCC from one matrix seed to another (every other workload
    // stays at 0), so the 4a geomean leaves ±1% on some seeds.
    let shape_ok = g.is_some_and(|g| {
        g.iter()
            .all(|r| r[0] > r[1] && r[1] > r[2] && r[2] > r[3] && r[3].abs() < r[2])
    });
    checks.push((
        "Figure 4 order Full IOMMU > CAPI-like > BC-noBCC > BC-BCC, |BC-BCC| < BC-noBCC"
            .to_string(),
        shape_ok,
    ));
    let err = g.as_ref().map_or(0.0, paper_err);

    let mut m = Metrics::default();
    let walls: Vec<f64> = plain.iter().map(|(w, _)| w.as_secs_f64()).collect();
    let wall_s = median(&walls);
    if traced {
        let pick = median_pass(&instrumented);
        let (wall, outcomes) = &instrumented[pick];
        let mut layers = Layers::default();
        for o in outcomes {
            if let Ok(c) = &o.result {
                layers.add_report(&c.report);
                layers.add_phases(c.build, c.run, c.encode);
                layers.synth_s += c.synth_ns as f64 / 1e9;
                layers.next_op_calls += c.next_op_calls;
            }
        }
        let cell_walls: Vec<Duration> = outcomes.iter().map(|o| o.wall).collect();
        layers.set_pool(WORKERS, *wall, &cell_walls);
        layers.fig4_paper_err = err;
        let traced_walls: Vec<f64> = instrumented.iter().map(|(w, _)| w.as_secs_f64()).collect();
        layers.overhead_s = median(&traced_walls) - wall_s;
        layers.peak_rss_mib = peak_rss_mib();
        layers.render(&mut m);
    } else {
        let lat: Vec<f64> = plain
            .iter()
            .flat_map(|(_, p)| p.iter().map(|o| ms(o.wall)))
            .collect();
        let (cycles, run_s) = plain
            .iter()
            .flat_map(|(_, p)| p.iter())
            .filter_map(|o| o.result.as_ref().ok())
            .fold((0u64, 0.0), |(cy, s), c| {
                (cy + c.report.cycles, s + c.run.as_secs_f64())
            });
        // Set-up: matrix construction + Σ `System::build` of a pass's
        // cells, median over passes.
        let setups: Vec<f64> = plain
            .iter()
            .map(|(_, p)| {
                let builds: Duration = p
                    .iter()
                    .filter_map(|o| o.result.as_ref().ok())
                    .map(|c| c.build)
                    .sum();
                (construct + builds).as_secs_f64()
            })
            .collect();
        m.push("wall_s", wall_s, "s");
        m.push("setup_s", median(&setups), "s");
        m.push("sim_cycles_per_s", ratio(cycles as f64, run_s), "cycles/s");
        m.push("lat_p50_ms", quantile(&lat, 0.5), "ms");
        m.push("lat_p85_ms", quantile(&lat, 0.85), "ms");
        // The same two values under this workload's own names.
        m.push("cell_p50_ms", quantile(&lat, 0.5), "ms");
        m.push("cell_p85_ms", quantile(&lat, 0.85), "ms");
        m.push("peak_rss_mib", peak_rss_mib(), "MiB");
        m.count("lat_samples", lat.len() as u64);
        m.count("lat_beyond_p85", beyond(&lat, 85) as u64);
        m.count("passes", plain.len() as u64);
        m.push(
            "failed_frac",
            ratio(failed as f64, attempted as f64),
            "ratio",
        );
        m.push("fig4_paper_err", err, "ln-ratio");
        if let Some(g) = g {
            for (fig, row) in FIGURES.iter().zip(g) {
                for (scheme, value) in ["full-iommu", "capi-like", "bc-nobcc", "bc-bcc"]
                    .iter()
                    .zip(row)
                {
                    m.push(&format!("geomean.{fig}.{scheme}"), value * 100.0, "%");
                }
            }
        }
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
