//! Figure 5: number of requests per cycle checked by Border Control, for
//! the highly threaded GPU. The seven workload runs are independent, so
//! they go through the parallel sweep engine.
//!
//! Usage: `fig5 [--size tiny|small|reference] [--jobs N] [--cache-dir PATH]`

// bc-lint: allow-file(float) — mean requests-per-cycle label for the figure; summary output only.
use bc_experiments::{matrices, print_matrix, size_from_args, SweepOptions, WORKLOADS};

fn main() {
    let size = size_from_args();
    let results = matrices::fig5(size).run(&SweepOptions::default());

    let mut rows = Vec::new();
    let mut rates = Vec::new();
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let rate = results.report([0, 0, 0, wi]).checks_per_cycle();
        rates.push(rate);
        rows.push((w.to_string(), vec![format!("{rate:.3}")]));
    }
    let avg = rates.iter().sum::<f64>() / rates.len() as f64;
    rows.push(("AVG".to_string(), vec![format!("{avg:.3}")]));
    print_matrix(
        "Figure 5: Border Control checks per cycle (highly threaded GPU)",
        &["requests/cycle".to_string()],
        &rows,
    );
    println!("\n(paper: average ≈ 0.11; backprop lowest ≈ 0.025, bfs highest ≈ 0.29;");
    println!(" conclusion — bandwidth at Border Control is not a bottleneck)");
    eprintln!("\n{}", results.summary());
}
