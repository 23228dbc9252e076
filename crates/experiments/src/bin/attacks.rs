//! §2.1 threat vectors demonstrated against every configuration: a
//! malicious accelerator forging physical write probes while running a
//! real workload. Two override slices share the sweep: a `LogOnly` census
//! (every probe counted) and the default `KillProcess` response (what the
//! paper's OS actually does on the first violation). The ten cells are
//! independent on the parallel sweep engine.
//!
//! Usage: `attacks [--size tiny|small|reference] [--jobs N] [--audit] [--cache-dir PATH]`

use bc_experiments::{matrices, print_matrix, size_from_args, SweepOptions};
use bc_system::{RunReport, SafetyModel};

/// What actually became of the victim process, from the run's abort
/// reason — not inferred from probe counts.
fn outcome(r: &RunReport) -> String {
    match r.abort_reason {
        Some(reason) => reason.label().to_string(),
        None if r.accel_disabled => "accelerator fenced".to_string(),
        None => "ran to completion".to_string(),
    }
}

fn main() {
    let size = size_from_args();
    let results = matrices::attacks(size).run(&SweepOptions::default());

    let mut rows = Vec::new();
    for (si, safety) in SafetyModel::ALL.iter().enumerate() {
        let census = results.report([0, 0, si, 0]);
        let killed = results.report([1, 0, si, 0]);
        let (attempted, blocked, succeeded) = census.probes;
        rows.push((
            safety.label().to_string(),
            vec![
                attempted.to_string(),
                succeeded.to_string(),
                blocked.to_string(),
                census.violation_count.to_string(),
                if succeeded > 0 { "CORRUPTED" } else { "intact" }.to_string(),
                outcome(killed),
            ],
        ));
    }
    print_matrix(
        "Malicious accelerator: forged physical write probes",
        &[
            "probes".to_string(),
            "succeeded".to_string(),
            "blocked".to_string(),
            "violations reported".to_string(),
            "host memory".to_string(),
            "under KillProcess".to_string(),
        ],
        &rows,
    );
    println!("\nNotes:");
    println!("- ATS-only IOMMU: every forged probe lands; host memory is corrupted and");
    println!("  nothing is even reported — the §2.1 integrity violation.");
    println!("- Full IOMMU / CAPI-like: the accelerator has no physical-address path at");
    println!("  all, so probes cannot be issued (blocked by construction).");
    println!("- Border Control: probes reach the border, are checked against the");
    println!("  Protection Table, blocked, and reported to the OS. A probe can only");
    println!("  'succeed' if it happens to hit a page the process legitimately owns —");
    println!("  which is not a violation of the threat model (§2.2).");
    println!("\n(The census column uses LogOnly; the last column reruns each cell under");
    println!(" the default KillProcess policy and reports the run's abort reason —");
    println!(" distinguishing a Border Control kill from a run that simply finished.)");
    eprintln!("\n{}", results.summary());
}
