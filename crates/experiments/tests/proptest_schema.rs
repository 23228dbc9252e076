//! Property tests for the canonical config schema.
//!
//! The cache-key contract (`bc-serve`) requires that for *any* reachable
//! [`SystemConfig`] — not just the handful of matrix shapes the figure
//! binaries build — `encode(decode(encode(c))) == encode(c)` byte for
//! byte, and that key material is a pure function of the config and the
//! simulator revision. These tests drive the whole coordinate space: every enum
//! axis, u64 seeds up to `u64::MAX`, optional fields both ways, and float
//! knobs in the host-activity config.

use bc_accel::Behavior;
use bc_core::FlushPolicy;
use bc_experiments::schema::{self, SchemaError};
use bc_mem::MemBackend;
use bc_os::ViolationPolicy;
use bc_system::{GpuClass, HostActivityConfig, SafetyModel, SystemConfig};
use bc_workloads::WorkloadSize;
use proptest::prelude::*;

const WORKLOAD_NAMES: [&str; 8] = [
    "backprop",
    "bfs",
    "hotspot",
    "lud",
    "nn",
    "nw",
    "pathfinder",
    "custom workload \"quoted\\weird\"",
];

fn behavior_strategy() -> impl Strategy<Value = Behavior> {
    prop_oneof![
        Just(Behavior::Correct),
        Just(Behavior::BuggyStaleTlb),
        (1u64..5000, any::<bool>()).prop_map(|(probe_period, probe_writes)| {
            Behavior::Malicious {
                probe_period,
                probe_writes,
            }
        }),
    ]
}

fn host_strategy() -> impl Strategy<Value = Option<HostActivityConfig>> {
    prop_oneof![
        Just(None),
        (1u64..1000, 0u64..101, 0u64..101, 0u64..(1 << 30)).prop_map(
            |(period, shared, write, private_bytes)| {
                Some(HostActivityConfig {
                    period,
                    // Fractions land on awkward decimals on purpose: the
                    // canonical float spelling must survive them.
                    shared_fraction: shared as f64 / 101.0,
                    write_fraction: write as f64 / 101.0,
                    private_bytes,
                })
            }
        ),
    ]
}

/// An arbitrary reachable configuration: table-3 defaults with every
/// schema-visible axis resampled.
fn config_strategy() -> impl Strategy<Value = SystemConfig> {
    let enums = (
        0usize..SafetyModel::ALL.len(),
        0usize..2,
        behavior_strategy(),
        0usize..WORKLOAD_NAMES.len(),
        0usize..3,
    );
    let words = (
        any::<u64>(),
        0u64..1_000_000,
        1u64..1 << 40,
        0u64..10_000,
        1u64..64,
    );
    let flags = (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    );
    let extras = (host_strategy(), 0u64..20_000, 1usize..32, any::<bool>());
    (enums, words, flags, extras).prop_map(
        |(
            (safety, gpu, behavior, workload, size),
            (seed, rate, phys, latency, ports),
            (parallel, huge, record, trace, audit),
            (host_activity, max_ops, hop, selective),
        )| {
            let mut c = SystemConfig::table3_defaults();
            c.safety = SafetyModel::ALL[safety];
            c.gpu_class = [GpuClass::HighlyThreaded, GpuClass::ModeratelyThreaded][gpu];
            c.behavior = behavior;
            c.workload = WORKLOAD_NAMES[workload].to_string();
            c.size = [
                WorkloadSize::Tiny,
                WorkloadSize::Small,
                WorkloadSize::Reference,
            ][size];
            c.seed = seed;
            c.downgrades_per_second = rate;
            c.phys_bytes = phys;
            c.iommu_hop_latency = latency;
            c.l2_ports = ports as usize;
            c.parallel_read_check = parallel;
            c.use_huge_pages = huge;
            c.record_check_stream = record;
            c.trace = trace;
            c.audit = audit;
            c.host_activity = host_activity;
            c.max_ops_per_wavefront = (max_ops > 0).then_some(max_ops);
            c.cluster_hop_latency = hop as u64;
            c.flush_policy = if selective {
                FlushPolicy::Selective
            } else {
                FlushPolicy::FullFlush
            };
            c.violation_policy = [
                ViolationPolicy::KillProcess,
                ViolationPolicy::DisableAccelerator,
                ViolationPolicy::LogOnly,
            ][(seed % 3) as usize];
            c.dram.backend = if seed % 2 == 0 {
                MemBackend::LocalDram
            } else {
                MemBackend::CxlPool
            };
            c
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode → encode is the identity on canonical bytes, for
    /// any reachable coordinate. This is the exact property the cache
    /// key rests on.
    #[test]
    fn encode_decode_encode_is_identity(config in config_strategy()) {
        let first = schema::encode_config(&config);
        let decoded = match schema::decode_config(&first) {
            Ok(decoded) => decoded,
            Err(e) => return Err(TestCaseError::fail(format!(
                "canonical encoding failed to decode: {e}\n{first}"
            ))),
        };
        let second = schema::encode_config(&decoded);
        prop_assert_eq!(&first, &second, "round trip changed canonical bytes");
    }

    /// Key material is a pure function of the config: the decoded twin
    /// keys identically, and a seed flip or revision change never does.
    #[test]
    fn key_material_is_stable(
        config in config_strategy(),
        seed_flip in 1u64..u64::MAX,
    ) {
        let key = schema::config_key_material(&config, schema::CODE_REV);
        let decoded = schema::decode_config(&schema::encode_config(&config))
            .map_err(|e| TestCaseError::fail(format!("decode: {e}")))?;
        prop_assert_eq!(
            &key,
            &schema::config_key_material(&decoded, schema::CODE_REV)
        );

        let mut reseeded = config.clone();
        reseeded.seed ^= seed_flip;
        prop_assert_ne!(
            &key,
            &schema::config_key_material(&reseeded, schema::CODE_REV)
        );
        prop_assert_ne!(&key, &schema::config_key_material(&config, "other-rev"));
    }

    /// u64 seeds survive exactly — the decoder must never round them
    /// through f64 (2^53 would silently alias nearby seeds).
    #[test]
    fn seeds_survive_bit_exact(config in config_strategy()) {
        let decoded = schema::decode_config(&schema::encode_config(&config))
            .map_err(|e| TestCaseError::fail(format!("decode: {e}")))?;
        prop_assert_eq!(decoded.seed, config.seed);
        prop_assert_eq!(decoded.phys_bytes, config.phys_bytes);
    }

    /// Any single unknown top-level field makes the document undecodable
    /// with a typed error — silently-ignored fields would alias distinct
    /// cache keys.
    #[test]
    fn unknown_fields_never_decode(config in config_strategy(), tag in 0u64..1000) {
        let text = schema::encode_config(&config);
        let with_extra = text.replacen(
            "\"safety\":",
            &format!("\"injected_{tag}\": 1,\n  \"safety\":"),
            1,
        );
        let err = match schema::decode_config(&with_extra) {
            Err(e) => e,
            Ok(_) => return Err(TestCaseError::fail("unknown field decoded")),
        };
        prop_assert_eq!(
            err,
            SchemaError::UnknownField {
                field: format!("injected_{tag}"),
            }
        );
    }
}

/// The one coordinate proptest generation can't reach naturally: the
/// exact golden configs, whose keys are pinned across processes in
/// `crates/serve/tests/golden/keys.json`. Here we pin the *material*
/// prefix so a key-material format change is caught in this crate too.
#[test]
fn key_material_spells_code_rev_first() {
    let config = SystemConfig::table3_defaults();
    let material = schema::config_key_material(&config, schema::CODE_REV);
    assert!(
        material.starts_with(&format!("{{\"code_rev\": \"{}\"", schema::CODE_REV)),
        "{material:.80}"
    );
    assert!(material.contains(&format!("\"schema\": {}", schema::SCHEMA_VERSION)));
    assert!(!material.contains("\"shards\""), "retired in schema 2");
}
