//! Validates the committed `BENCH_*.json` perf trajectories (and, when
//! `$BENCH_VALIDATE_EXTRA` lists them, freshly-emitted quick files) with
//! the shared rules in [`bc_bench::validate`] — the same checks CI runs,
//! so a malformed emit fails `cargo test` locally before it fails a
//! workflow.

// Test driver: failing fast on setup errors is correct here.
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use bc_bench::validate;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

/// Every committed trajectory file parses and satisfies its bench's
/// numeric rules (full-mode: the serve file must show the >=10x warm
/// speedup the service PR is pinned to).
#[test]
fn committed_trajectories_validate() {
    let root = repo_root();
    let mut seen = 0;
    for name in [
        "BENCH_sweep.json",
        "BENCH_flush.json",
        "BENCH_tenants.json",
        "BENCH_serve.json",
    ] {
        let path = root.join(name);
        assert!(path.exists(), "missing committed trajectory {name}");
        match validate::validate_file(&path) {
            Ok(summary) => println!("{summary}"),
            Err(e) => panic!("{e}"),
        }
        seen += 1;
    }
    assert_eq!(seen, 4);
}

/// CI points `$BENCH_VALIDATE_EXTRA` (colon-separated paths) at the
/// quick-mode files it just emitted; locally this is a no-op.
#[test]
fn extra_files_validate_when_requested() {
    let Some(extra) = std::env::var_os("BENCH_VALIDATE_EXTRA") else {
        return;
    };
    let extra = extra.into_string().unwrap();
    for path in extra.split(':').filter(|p| !p.is_empty()) {
        match validate::validate_file(std::path::Path::new(path)) {
            Ok(summary) => println!("{summary}"),
            Err(e) => panic!("{e}"),
        }
    }
}
