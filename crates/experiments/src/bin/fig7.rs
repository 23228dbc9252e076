//! Figure 7: runtime overhead as the permission-downgrade rate varies
//! from 0 to 1000 downgrades per second, for Border Control-BCC and the
//! unsafe ATS-only IOMMU, on both GPU classes.
//!
//! Each curve is normalized to its *own* zero-downgrade runtime, exactly
//! as the paper plots it. A geometric mean over the suite smooths
//! per-workload noise. The downgrade rate is the sweep's override axis:
//! 7 rates × 2 safeties × 2 GPUs × 7 workloads = 196 independent cells on
//! the parallel sweep engine (the rate-0 slice doubles as the baselines).
//!
//! Usage: `fig7 [--size tiny|small|reference] [--jobs N] [--csv] [--cache-dir PATH]`

// bc-lint: allow-file(float) — overhead-ratio labels for the figure; summary output only.
use bc_experiments::matrices::{self, FIG4_GPUS, FIG7_DENSITY_SCALE, FIG7_RATES, FIG7_SAFETIES};
use bc_experiments::{
    csv_from_args, geomean_overhead, pct, print_matrix, size_from_args, SweepOptions, WORKLOADS,
};

fn main() {
    let size = size_from_args();
    let csv = csv_from_args();
    // The scheduling-relevant range of the paper: "10-200 downgrades per
    // second" is today's context-switch rate. The overrides inject at
    // FIG7_DENSITY_SCALE times the labelled rate (see matrices.rs) and
    // the measured overhead is rescaled back below.
    let rates = FIG7_RATES;
    let safeties = FIG7_SAFETIES;
    let gpus = FIG4_GPUS;
    let results = matrices::fig7(size).run(&SweepOptions::default());

    let mut rows = Vec::new();
    let mut csv_lines = vec!["safety,gpu,rate_per_s,overhead".to_string()];
    for (si, safety) in safeties.iter().enumerate() {
        for (gi, gpu) in gpus.iter().enumerate() {
            let mut cells = Vec::new();
            for (ri, &rate) in rates.iter().enumerate() {
                let overheads: Vec<f64> = WORKLOADS
                    .iter()
                    .enumerate()
                    .map(|(wi, _)| {
                        let base = results.report([0, gi, si, wi]).cycles;
                        let r = results.report([ri, gi, si, wi]);
                        (r.cycles as f64 / base as f64 - 1.0) / FIG7_DENSITY_SCALE as f64
                    })
                    .collect();
                let g = geomean_overhead(&overheads);
                cells.push(pct(g));
                csv_lines.push(format!("{},{},{rate},{g:.6}", safety.label(), gpu.label()));
            }
            rows.push((format!("{} / {}", safety.label(), gpu.label()), cells));
        }
    }
    let heads: Vec<String> = rates.iter().map(|r| format!("{r}/s")).collect();
    print_matrix(
        "Figure 7: runtime overhead vs permission-downgrade rate",
        &heads,
        &rows,
    );
    println!("\n(paper: ≈0.02% at the 10-200/s Linux scheduling rate; Border Control");
    println!(" costs roughly twice the unsafe baseline, and stays well under 0.5%");
    println!(" even at 1000 downgrades/s)");
    if csv {
        for l in csv_lines {
            println!("{l}");
        }
    }
    eprintln!("\n{}", results.summary());
}
