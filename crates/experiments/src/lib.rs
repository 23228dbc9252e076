//! Shared plumbing for the experiment binaries.
// bc-lint: allow-file(float) — figure/table harness: overhead ratios,
// percentage labels and geomeans computed from finished RunReports;
// nothing here feeds a running simulation.
//!
//! Each binary regenerates one table or figure of the paper:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — qualitative comparison of approaches |
//! | `table2` | Table 2 — configurations under study |
//! | `table3` | Table 3 — simulation configuration |
//! | `fig4`   | Figure 4a/4b — runtime overhead of the safety approaches |
//! | `fig5`   | Figure 5 — Border Control requests per cycle |
//! | `fig6`   | Figure 6 — BCC miss ratio vs size and pages/entry |
//! | `fig7`   | Figure 7 — overhead vs permission-downgrade rate |
//! | `storage`| §5.2.3 — area and memory storage overheads |
//! | `attacks`| §2.1 threat vectors demonstrated per configuration |
//!
//! All binaries accept `--size tiny|small|reference` (default `small`) and
//! print aligned text tables to stdout. Reference size reproduces the
//! paper-shape numbers recorded in `EXPERIMENTS.md`; smaller sizes are for
//! quick smoke runs. Sweep binaries also accept `--jobs N` (cells run
//! concurrently), `--audit` (runtime invariant auditor) and `--cache-dir
//! PATH` (serve each cell from the result store [`cas`] when it holds
//! the cell's report, simulating and filing it otherwise); none of them
//! changes a single report byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cas;
pub mod matrices;
pub mod schema;
pub mod sweep;
pub mod tenants_grid;

use bc_system::{GpuClass, RunReport, SafetyModel, System, SystemConfig};
use bc_workloads::WorkloadSize;

pub use sweep::{
    cell_seed, run_cells_with, CellOutcome, SweepCell, SweepMatrix, SweepOptions, SweepResults,
};

/// The seven workloads in Figure 4's x-axis order.
pub const WORKLOADS: [&str; 7] = [
    "backprop",
    "bfs",
    "hotspot",
    "lud",
    "nn",
    "nw",
    "pathfinder",
];

/// Parses `--size` from argv (default [`WorkloadSize::Small`]).
#[must_use]
pub fn size_from_args() -> WorkloadSize {
    let args: Vec<String> = std::env::args().collect();
    match args
        .windows(2)
        .find(|w| w[0] == "--size")
        .map(|w| w[1].as_str())
    {
        Some("tiny") => WorkloadSize::Tiny,
        Some("reference") | Some("ref") => WorkloadSize::Reference,
        Some("small") | None => WorkloadSize::Small,
        Some(other) => {
            eprintln!("unknown --size '{other}', using small");
            WorkloadSize::Small
        }
    }
}

/// Whether `--csv` was passed (machine-readable output after the table).
#[must_use]
pub fn csv_from_args() -> bool {
    std::env::args().any(|a| a == "--csv")
}

/// Whether `--audit` was passed: every sweep cell then runs with the
/// runtime invariant auditor ([`bc_sim::audit`]) threaded through it —
/// shadow permission oracle, BCC subset sweeps, timing monitors — and the
/// sweep summary reports aggregate assertion/finding counts. Audited runs
/// are cycle-identical to unaudited ones, just slower on the host.
#[must_use]
pub fn audit_from_args() -> bool {
    std::env::args().any(|a| a == "--audit")
}

/// Parses `--jobs N` from argv (default: available parallelism). Values
/// below 1 or unparsable values fall back to the default with a warning.
#[must_use]
pub fn jobs_from_args() -> usize {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let args: Vec<String> = std::env::args().collect();
    match args
        .windows(2)
        .find(|w| w[0] == "--jobs")
        .map(|w| w[1].as_str())
    {
        None => default,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("invalid --jobs '{raw}', using {default}");
                default
            }
        },
    }
}

/// Opens the result store named by `--cache-dir PATH`, if any: every
/// [`SweepMatrix::run`] cell is then served from it on a hit and filed
/// into it on a miss ([`cas::Cas::memo`]). The directory is the one
/// `bc-serve --cache-dir` uses, so either fills it for the other. An
/// unopenable directory warns and the sweep simulates every cell.
#[must_use]
pub fn cache_from_args() -> Option<std::sync::Arc<cas::Cas>> {
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .windows(2)
        .find(|w| w[0] == "--cache-dir")
        .map(|w| w[1].clone())?;
    match cas::Cas::open(&path) {
        Ok(cas) => Some(std::sync::Arc::new(cas)),
        Err(e) => {
            eprintln!("cannot open --cache-dir '{path}': {e}; simulating every cell");
            None
        }
    }
}

/// A baseline configuration for one (workload, GPU class, size) cell.
#[must_use]
pub fn base_config(workload: &str, gpu: GpuClass, size: WorkloadSize) -> SystemConfig {
    let mut c = SystemConfig::table3_defaults();
    c.workload = workload.to_string();
    c.gpu_class = gpu;
    c.size = size;
    // Bound per-wavefront work so the 70-run figure sweeps stay fast while
    // still simulating hundreds of thousands of ops per run.
    c.max_ops_per_wavefront = Some(match size {
        WorkloadSize::Tiny => 1_500,
        WorkloadSize::Small => 4_000,
        WorkloadSize::Reference => 12_000,
    });
    c
}

/// Builds and runs one configuration, panicking with context on failure
/// (these binaries are leaf tools; failing loudly is the right move).
#[must_use]
pub fn run(config: &SystemConfig) -> RunReport {
    System::build(config)
        .unwrap_or_else(|e| panic!("building {} failed: {e}", config.workload))
        .run()
}

/// Runs one (safety, workload, gpu) cell and its unsafe baseline, returning
/// `(overhead, report)` where overhead is relative runtime vs ATS-only.
#[must_use]
pub fn overhead_of(
    safety: SafetyModel,
    workload: &str,
    gpu: GpuClass,
    size: WorkloadSize,
) -> (f64, RunReport) {
    let mut base = base_config(workload, gpu, size);
    base.safety = SafetyModel::AtsOnlyIommu;
    let baseline = run(&base);
    let mut cfg = base_config(workload, gpu, size);
    cfg.safety = safety;
    let report = run(&cfg);
    (report.overhead_vs(&baseline), report)
}

/// Prints a row-major matrix with a left header column.
pub fn print_matrix(title: &str, col_heads: &[String], rows: &[(String, Vec<String>)]) {
    println!("== {title} ==");
    let w0 = rows
        .iter()
        .map(|(h, _)| h.len())
        .chain(std::iter::once(8))
        .max()
        .unwrap_or(8);
    let widths: Vec<usize> = col_heads
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|(_, r)| r.get(i).map(|s| s.len()).unwrap_or(0))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(h.len())
        })
        .collect();
    print!("{:w0$}", "");
    for (h, w) in col_heads.iter().zip(&widths) {
        print!("  {h:>w$}");
    }
    println!();
    for (head, row) in rows {
        print!("{head:<w0$}");
        for (cell, w) in row.iter().zip(&widths) {
            print!("  {cell:>w$}");
        }
        println!();
    }
}

/// Formats an overhead fraction the way the paper's figures label it.
#[must_use]
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// Geometric mean of `(1 + overhead)` values, reported back as an
/// overhead — how the paper aggregates Figure 4.
#[must_use]
pub fn geomean_overhead(overheads: &[f64]) -> f64 {
    let factors: Vec<f64> = overheads.iter().map(|o| 1.0 + o.max(-0.999)).collect();
    bc_sim::stats::geometric_mean(&factors)
        .map(|g| g - 1.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_overhead_matches_hand_math() {
        // Factors 1.0 and 4.0 -> geomean 2.0 -> overhead 1.0.
        let g = geomean_overhead(&[0.0, 3.0]);
        assert!((g - 1.0).abs() < 1e-12);
        assert_eq!(geomean_overhead(&[]), 0.0);
    }

    #[test]
    fn workload_list_matches_figure_order() {
        assert_eq!(WORKLOADS.len(), 7);
        assert_eq!(WORKLOADS[0], "backprop");
        assert_eq!(WORKLOADS[6], "pathfinder");
    }

    #[test]
    fn base_config_caps_ops() {
        let c = base_config("nn", GpuClass::HighlyThreaded, WorkloadSize::Tiny);
        assert_eq!(c.max_ops_per_wavefront, Some(1_500));
        assert_eq!(c.workload, "nn");
    }

    #[test]
    fn tiny_cell_runs_end_to_end() {
        let (overhead, report) = overhead_of(
            SafetyModel::BorderControlBcc,
            "nn",
            GpuClass::ModeratelyThreaded,
            WorkloadSize::Tiny,
        );
        assert!(report.cycles > 0);
        assert!(overhead > -0.5 && overhead < 0.5, "overhead {overhead}");
    }
}
