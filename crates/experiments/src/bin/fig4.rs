//! Figure 4: runtime overhead of each safety approach relative to the
//! unsafe ATS-only IOMMU baseline, for both GPU classes.
//!
//! All 5 safety × 7 workload × 2 GPU cells (70 at `--gpu both`) are
//! independent simulations, so they run on the parallel sweep engine.
//!
//! Usage: `fig4 [--size tiny|small|reference] [--gpu highly|moderate|both]
//!              [--jobs N] [--csv] [--cache-dir PATH]`
//!
//! `--cache-dir` serves every cell already in the result store instead
//! of simulating it; the printed figure is byte-identical either way.

use bc_experiments::matrices::{self, FIG4_SAFETIES};
use bc_experiments::{
    csv_from_args, geomean_overhead, pct, print_matrix, size_from_args, SweepOptions, WORKLOADS,
};
use bc_system::GpuClass;

fn main() {
    let size = size_from_args();
    let csv = csv_from_args();
    let args: Vec<String> = std::env::args().collect();
    let gpus: Vec<GpuClass> = match args
        .windows(2)
        .find(|w| w[0] == "--gpu")
        .map(|w| w[1].as_str())
    {
        Some("highly") => vec![GpuClass::HighlyThreaded],
        Some("moderate") => vec![GpuClass::ModeratelyThreaded],
        _ => vec![GpuClass::HighlyThreaded, GpuClass::ModeratelyThreaded],
    };
    let safeties = FIG4_SAFETIES;
    let results = matrices::fig4(size, &gpus).run(&SweepOptions::default());

    for (gi, gpu) in gpus.iter().enumerate() {
        let label = match gpu {
            GpuClass::HighlyThreaded => "Figure 4a: Highly threaded GPU",
            GpuClass::ModeratelyThreaded => "Figure 4b: Moderately threaded GPU",
        };
        let mut rows = Vec::new();
        let mut csv_lines = vec!["gpu,safety,workload,overhead".to_string()];
        for (si, safety) in safeties.iter().enumerate().skip(1) {
            let mut overheads = Vec::new();
            for (wi, w) in WORKLOADS.iter().enumerate() {
                let baseline = results.report([0, gi, 0, wi]);
                let report = results.report([0, gi, si, wi]);
                let o = report.overhead_vs(baseline);
                overheads.push(o);
                csv_lines.push(format!("{},{},{w},{o:.6}", gpu.label(), safety.label()));
            }
            let mut cells: Vec<String> = overheads.iter().map(|o| pct(*o)).collect();
            cells.push(pct(geomean_overhead(&overheads)));
            rows.push((safety.label().to_string(), cells));
        }
        let mut heads: Vec<String> = WORKLOADS.iter().map(|s| s.to_string()).collect();
        heads.push("geomean".to_string());
        print_matrix(
            &format!("{label} — runtime overhead vs ATS-only IOMMU"),
            &heads,
            &rows,
        );
        println!();
        if csv {
            for l in &csv_lines {
                println!("{l}");
            }
            println!();
        }
    }
    println!(
        "(paper geomeans — 4a: full IOMMU 374%, CAPI-like 3.81%, BC-noBCC 2.04%, BC-BCC 0.15%;"
    );
    println!("                 4b: full IOMMU 85%, CAPI-like 16.5%, BC-noBCC 7.26%, BC-BCC 0.84%)");
    eprintln!("\n{}", results.summary());
}
