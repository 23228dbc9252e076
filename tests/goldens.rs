//! Golden-report snapshot tests.
//!
//! Each tiny-size run's `RunReport` is serialized with
//! [`RunReport::to_json`] and compared byte-for-byte against a committed
//! golden under `tests/goldens/`. Any change to simulated timing — a
//! scheduler swap, a port-model rewrite, an MSHR change — that alters even
//! one counter fails here, which is exactly the property the calendar-queue
//! migration is pinned by.
//!
//! Regenerate after an *intentional* behavior change with:
//!
//! ```text
//! BLESS=1 cargo test --test goldens
//! ```
//!
//! and review the golden diff like any other code change.

// Driver/harness code: failing fast on setup errors is the right behavior.
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use bc_experiments::cas::Cas;
use bc_experiments::schema;
use bc_system::{GpuClass, SafetyModel, System, SystemConfig};
use bc_workloads::WorkloadSize;

fn tiny(safety: SafetyModel, workload: &str) -> SystemConfig {
    let mut c = SystemConfig::table3_defaults();
    c.safety = safety;
    c.gpu_class = GpuClass::ModeratelyThreaded;
    c.workload = workload.to_string();
    c.size = WorkloadSize::Tiny;
    c.max_ops_per_wavefront = Some(1_500);
    c
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Safety label -> filename fragment ("Border Control-BCC" -> "border-control-bcc").
fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect::<String>()
        .split('-')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("-")
}

fn check(name: &str, json: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with: BLESS=1 cargo test --test goldens",
            path.display()
        )
    });
    assert_eq!(
        want, json,
        "RunReport drifted from golden {name}; if the timing change is \
         intentional, regenerate with BLESS=1 cargo test --test goldens \
         and review the diff"
    );
}

/// Every safety model, two workloads with different access shapes
/// (regular nn, irregular bfs), pinned byte-for-byte.
#[test]
fn tiny_run_reports_match_goldens() {
    for safety in SafetyModel::ALL {
        for workload in ["nn", "bfs"] {
            let report = System::build(&tiny(safety, workload))
                .expect("tiny config builds")
                .run();
            let name = format!("tiny_{}_{}.json", slug(safety.label()), workload);
            check(&name, &report.to_json());
        }
    }
}

/// The same ten configurations, run through the result store: a cold
/// pass simulates and files every report, a second pass must be served
/// entirely from the store, and the decoded-then-re-encoded report must
/// reproduce the committed golden byte-for-byte — a hit never changes an
/// answer.
#[test]
fn tiny_run_reports_match_goldens_through_the_result_cache() {
    if std::env::var_os("BLESS").is_some() {
        return; // goldens may be mid-rewrite under the straight-run test
    }
    // The PID only namespaces a scratch directory; nothing simulated
    // depends on it.
    let dir = std::env::temp_dir().join(format!("bc-goldens-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cas = Cas::open(&dir).unwrap();
    for pass in ["cold", "hit"] {
        for safety in SafetyModel::ALL {
            for workload in ["nn", "bfs"] {
                let config = tiny(safety, workload);
                let memo = cas
                    .memo(&Cas::key_for(&config), || {
                        System::build(&config).map(|mut s| s.run())
                    })
                    .expect("tiny config builds");
                assert_eq!(memo.hit, pass == "hit", "{pass} pass, {workload}");
                let name = format!("tiny_{}_{}.json", slug(safety.label()), workload);
                check(&name, &schema::encode_report(&memo.report));
            }
        }
    }
    let stats = cas.stats();
    assert_eq!((stats.puts, stats.hits, stats.corrupt), (10, 10, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same ten configurations with the runtime invariant auditor on:
/// every audited run must come back clean (a `shard-order` finding would
/// mean a component sent below the executor's lookahead floor) and, with
/// the audit block detached, byte-identical to its golden — auditing
/// observes, it never moves a cycle.
#[test]
fn audited_runs_are_clean_and_match_goldens() {
    if std::env::var_os("BLESS").is_some() {
        return; // goldens may be mid-rewrite under the straight-run test
    }
    for safety in SafetyModel::ALL {
        for workload in ["nn", "bfs"] {
            let mut config = tiny(safety, workload);
            config.audit = true;
            let mut report = System::build(&config).expect("tiny config builds").run();
            let audit = report.audit.take().expect("audited run attaches audit");
            assert!(
                audit.is_clean(),
                "{}/{workload}: audit findings {:?}",
                safety.label(),
                audit.findings
            );
            assert!(audit.assertions > 0, "auditor must actually have run");
            let name = format!("tiny_{}_{}.json", slug(safety.label()), workload);
            check(&name, &report.to_json());
        }
    }
}

/// The goldens themselves stay well-formed JSON (brace balance and
/// required keys) — catches hand edits that would break downstream
/// tooling before a diff review does.
#[test]
fn goldens_are_well_formed() {
    if std::env::var_os("BLESS").is_some() {
        return; // files may be mid-rewrite under the other test
    }
    let dir = golden_path("");
    let mut seen = 0;
    for entry in
        std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("missing {}: {e}", dir.display()))
    {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let open = text.matches('{').count() + text.matches('[').count();
        let close = text.matches('}').count() + text.matches(']').count();
        assert_eq!(open, close, "unbalanced JSON in {}", path.display());
        for key in ["\"safety\"", "\"cycles\"", "\"events\"", "\"audit\""] {
            assert!(text.contains(key), "{} lacks {key}", path.display());
        }
    }
    assert_eq!(seen, 10, "expected 5 safety models x 2 workloads");
}
