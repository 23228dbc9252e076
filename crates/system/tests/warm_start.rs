//! Fork-identity suite for simulator warm-start snapshots.
//!
//! The contract under test: running a machine straight through and
//! running the same machine snapshot-then-restore at an arbitrary cut
//! produce byte-identical reports — across every safety model, with the
//! host actor, the invariant auditor, malicious hardware, downgrade
//! storms, and huge pages in play. Reports are
//! compared through their full `Debug` rendering, which covers every
//! counter, violation record, and audit finding.

use bc_accel::Behavior;
use bc_sim::snapshot::SnapError;
use bc_sim::Cycle;
use bc_system::{GpuClass, RestoreError, SafetyModel, System, SystemConfig};
use bc_workloads::{LiveSynthesis, WorkloadSize};

const REV: &str = "warm-start-test-rev";

fn tiny(safety: SafetyModel) -> SystemConfig {
    let mut c = SystemConfig::table3_defaults();
    c.safety = safety;
    c.gpu_class = GpuClass::ModeratelyThreaded;
    c.workload = "nn".to_string();
    c.size = WorkloadSize::Tiny;
    c.max_ops_per_wavefront = Some(400);
    c
}

fn straight(c: &SystemConfig) -> String {
    format!("{:?}", System::build(c).expect("builds").run())
}

/// Run to `cut`, serialize, restore from the bytes, and finish the run.
fn forked(c: &SystemConfig, cut: u64) -> String {
    let mut s = System::build(c).expect("builds");
    let bytes = s.snapshot_to(Cycle::new(cut), REV);
    let mut restored = System::restore(c, &bytes, REV, &LiveSynthesis).expect("restores");
    format!("{:?}", restored.run())
}

#[test]
fn fork_identity_across_safety_models() {
    for safety in [
        SafetyModel::FullIommu,
        SafetyModel::CapiLike,
        SafetyModel::AtsOnlyIommu,
        SafetyModel::BorderControlNoBcc,
        SafetyModel::BorderControlBcc,
    ] {
        let c = tiny(safety);
        assert_eq!(
            straight(&c),
            forked(&c, 3_000),
            "fork divergence under {safety:?}"
        );
    }
}

#[test]
fn fork_identity_at_varied_cuts() {
    let c = tiny(SafetyModel::BorderControlBcc);
    let want = straight(&c);
    // Cut at the very start (nothing simulated before the snapshot),
    // mid-run, and far past completion (pending calendar empty).
    for cut in [0, 1, 500, 7_777, u64::MAX / 2] {
        assert_eq!(want, forked(&c, cut), "fork divergence at cut {cut}");
    }
}

#[test]
fn fork_identity_with_host_audit_and_downgrades() {
    let mut c = tiny(SafetyModel::BorderControlBcc);
    c.host_activity = Some(bc_system::HostActivityConfig::default());
    c.audit = true;
    c.downgrades_per_second = 50_000;
    assert_eq!(straight(&c), forked(&c, 4_000));
}

#[test]
fn fork_identity_with_malicious_hardware() {
    for safety in [SafetyModel::AtsOnlyIommu, SafetyModel::BorderControlBcc] {
        let mut c = tiny(safety);
        c.behavior = Behavior::Malicious {
            probe_period: 50,
            probe_writes: true,
        };
        assert_eq!(
            straight(&c),
            forked(&c, 2_500),
            "fork divergence for malicious hardware under {safety:?}"
        );
    }
}

#[test]
fn fork_identity_with_huge_pages() {
    let mut c = tiny(SafetyModel::BorderControlNoBcc);
    c.use_huge_pages = true;
    assert_eq!(straight(&c), forked(&c, 2_000));
}

#[test]
fn restore_rejects_foreign_configs() {
    let c = tiny(SafetyModel::BorderControlBcc);
    let bytes = System::build(&c)
        .expect("builds")
        .snapshot_to(Cycle::new(1_000), REV);

    let mut other = c.clone();
    other.workload = "bfs".to_string();
    assert!(matches!(
        System::restore(&other, &bytes, REV, &LiveSynthesis),
        Err(RestoreError::ConfigMismatch)
    ));

    let mut seeded = c.clone();
    seeded.seed ^= 1;
    assert!(matches!(
        System::restore(&seeded, &bytes, REV, &LiveSynthesis),
        Err(RestoreError::ConfigMismatch)
    ));

    // The snapshotting config itself restores.
    assert!(System::restore(&c, &bytes, REV, &LiveSynthesis).is_ok());
}

#[test]
fn restore_rejects_stale_code_revisions() {
    let c = tiny(SafetyModel::AtsOnlyIommu);
    let bytes = System::build(&c)
        .expect("builds")
        .snapshot_to(Cycle::new(1_000), REV);
    assert!(matches!(
        System::restore(&c, &bytes, "some-other-rev", &LiveSynthesis),
        Err(RestoreError::Snapshot(SnapError::CodeRevMismatch { .. }))
    ));
}

#[test]
fn restore_rejects_truncated_bytes() {
    let c = tiny(SafetyModel::AtsOnlyIommu);
    let bytes = System::build(&c)
        .expect("builds")
        .snapshot_to(Cycle::new(1_000), REV);
    let cut = &bytes[..bytes.len() - 3];
    assert!(matches!(
        System::restore(&c, cut, REV, &LiveSynthesis),
        Err(RestoreError::Snapshot(_))
    ));
}
