//! Shared numeric validation for the `BENCH_*.json` trajectory files.
//!
//! Every bench emits a machine-readable JSON file (committed full-mode
//! trajectories at the repo root, quick-mode smoke files in CI). The
//! validation rules — which keys must exist, which values must be
//! positive numbers, which counts must reconcile — used to live as inline
//! python in the CI workflow, invisible to `cargo test` and duplicated
//! per bench. They live here instead, on the same strict JSON parser the
//! result schema uses ([`bc_experiments::schema::json`]), and are run by
//! `crates/bench/tests/bench_json.rs` locally and in CI.
//!
//! [`validate_file`] dispatches on the file's `"bench"` field, so new
//! benches add one rule set and every caller (test, CI, tooling) picks it
//! up.

use bc_experiments::schema::json::{self, Value};

/// One parsed bench document plus the label used in error messages.
pub struct Doc {
    label: String,
    root: Value,
}

impl Doc {
    /// Parses `text`, labelling errors with `label` (usually the path).
    pub fn parse(label: impl Into<String>, text: &str) -> Result<Doc, String> {
        let label = label.into();
        let root = json::parse(text).map_err(|e| format!("{label}: malformed JSON: {e}"))?;
        Ok(Doc { label, root })
    }

    /// The value at dotted `path` (`"cell_latency_ms.p99"`), descending
    /// through objects only.
    fn lookup(&self, path: &str) -> Result<&Value, String> {
        let mut v = &self.root;
        for seg in path.split('.') {
            v = v
                .get(seg)
                .ok_or_else(|| format!("{} missing {path}", self.label))?;
        }
        Ok(v)
    }

    /// The number at `path` — a JSON number, never a string or null (the
    /// perf trajectory is diffed across PRs; a malformed emit must fail
    /// rather than ship an unreadable data point).
    pub fn number(&self, path: &str) -> Result<f64, String> {
        self.lookup(path)?
            .as_f64()
            .ok_or_else(|| format!("{}: {path} is not a number", self.label))
    }

    /// The number at `path`, required strictly positive.
    pub fn positive(&self, path: &str) -> Result<f64, String> {
        let v = self.number(path)?;
        if v > 0.0 {
            Ok(v)
        } else {
            Err(format!("{}: {path} = {v} not positive", self.label))
        }
    }

    /// The exact-integer number at `path` (u64-ranged).
    pub fn integer(&self, path: &str) -> Result<u64, String> {
        self.lookup(path)?
            .as_u64()
            .ok_or_else(|| format!("{}: {path} is not an unsigned integer", self.label))
    }

    /// The string at `path`.
    pub fn string(&self, path: &str) -> Result<&str, String> {
        self.lookup(path)?
            .as_str()
            .ok_or_else(|| format!("{}: {path} is not a string", self.label))
    }

    /// The bool at `path`.
    pub fn boolean(&self, path: &str) -> Result<bool, String> {
        self.lookup(path)?
            .as_bool()
            .ok_or_else(|| format!("{}: {path} is not a boolean", self.label))
    }

    /// The array at `path`, as documents sharing this one's label.
    pub fn array(&self, path: &str) -> Result<Vec<Doc>, String> {
        match self.lookup(path)? {
            Value::Array(items) => Ok(items
                .iter()
                .map(|v| Doc {
                    label: format!("{}:{path}[]", self.label),
                    root: v.clone(),
                })
                .collect()),
            _ => Err(format!("{}: {path} is not an array", self.label)),
        }
    }
}

fn validate_sweep(d: &Doc) -> Result<String, String> {
    for key in ["cells", "events"] {
        d.positive(key)?;
    }
    let cps = d.positive("cells_per_sec")?;
    let eps = d.positive("events_per_sec")?;
    let p50 = d.positive("cell_latency_ms.p50")?;
    let p99 = d.positive("cell_latency_ms.p99")?;
    if p99 < p50 {
        return Err(format!("{}: p99 {p99} below p50 {p50}", d.label));
    }
    Ok(format!(
        "{cps:.2} cells/s, {eps:.0} events/s, quick={}",
        d.boolean("quick")?
    ))
}

fn validate_flush(d: &Doc) -> Result<String, String> {
    d.positive("flushes")?;
    let fps = d.positive("flushes_per_sec")?;
    let lines = d.positive("mean_scan_lines")?;
    Ok(format!("{fps:.0} flushes/s, {lines:.1} lines/scan"))
}

fn validate_tenants(d: &Doc) -> Result<String, String> {
    let tenants = d.integer("tenants")?;
    let accels = d.integer("accels")?;
    let cores = d.integer("host_cores")?;
    d.positive("events")?;
    d.positive("wall_s")?;
    d.positive("events_per_sec")?;
    let cells = d.array("cells")?;
    if cells.len() != 2 {
        return Err(format!(
            "{}: expected local-dram and cxl-pool cells, got {}",
            d.label,
            cells.len()
        ));
    }
    for cell in &cells {
        let backend = cell.string("backend")?.to_string();
        // Tails, not means: the per-tenant completion and kill latency
        // quantiles are the experiment's headline.
        if cell.integer("completed")? + cell.integer("killed")? != tenants {
            return Err(format!("{}/{backend}: tenants unaccounted for", d.label));
        }
        let (c50, c99) = (
            cell.integer("completion_p50")?,
            cell.integer("completion_p99")?,
        );
        if !(0 < c50 && c50 <= c99) {
            return Err(format!("{}/{backend}: bad completion tail", d.label));
        }
        let (k50, k99) = (cell.integer("kill_p50")?, cell.integer("kill_p99")?);
        if !(0 < k50 && k50 <= k99) {
            return Err(format!("{}/{backend}: bad kill tail", d.label));
        }
    }
    let p99 = cells
        .first()
        .map(|c| c.integer("completion_p99"))
        .transpose()?
        .unwrap_or(0);
    Ok(format!(
        "{tenants}x{accels}, p99={p99} cycles, cores={cores}"
    ))
}

fn validate_serve(d: &Doc) -> Result<String, String> {
    let cells = d.integer("cells")?;
    if cells == 0 {
        return Err(format!("{}: zero cells", d.label));
    }
    let cold = d.positive("cold_wall_s")?;
    let warm = d.positive("warm_wall_s")?;
    let speedup = d.positive("speedup")?;
    if (speedup - cold / warm).abs() > 0.1 * speedup {
        return Err(format!(
            "{}: speedup {speedup} inconsistent with cold/warm {:.2}",
            d.label,
            cold / warm
        ));
    }
    // The warm pass must be served entirely from the store.
    if d.integer("warm_hits")? != cells {
        return Err(format!("{}: warm pass was not all cache hits", d.label));
    }
    // The committed trajectory pins the PR's acceptance bar: a warm sweep
    // is served at least 10x faster than a cold one. Quick-mode smoke
    // files only require the cache to win at all — CI runners are noisy
    // and quick cells are tiny.
    let floor = if d.boolean("quick")? { 1.0 } else { 10.0 };
    if speedup < floor {
        return Err(format!(
            "{}: speedup {speedup:.1}x below the {floor}x floor",
            d.label
        ));
    }
    Ok(format!(
        "{cells} cells, cold {cold:.2}s, warm {warm:.3}s, {speedup:.1}x"
    ))
}

/// Validates one bench document by its `"bench"` field, returning the
/// one-line summary CI prints.
pub fn validate_text(label: &str, text: &str) -> Result<String, String> {
    let d = Doc::parse(label, text)?;
    let summary = match d.string("bench")? {
        "sweep" => validate_sweep(&d)?,
        "flush" => validate_flush(&d)?,
        "tenants" => validate_tenants(&d)?,
        "serve" => validate_serve(&d)?,
        other => return Err(format!("{label}: unknown bench kind '{other}'")),
    };
    Ok(format!("{label}: {summary}"))
}

/// Reads and validates the bench JSON at `path`.
pub fn validate_file(path: &std::path::Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: unreadable: {e}", path.display()))?;
    validate_text(&path.display().to_string(), &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_rules_catch_the_regressions_they_claim_to() {
        let good = r#"{
          "bench": "serve", "matrix": "fig4", "size": "tiny", "quick": false,
          "cells": 70, "cold_wall_s": 1.2, "warm_wall_s": 0.05,
          "speedup": 24.0, "warm_hits": 70
        }"#;
        assert!(validate_text("good", good).is_ok());

        for (name, bad) in [
            (
                "missed cache",
                good.replace("\"warm_hits\": 70", "\"warm_hits\": 69"),
            ),
            (
                "slow warm",
                good.replace("\"speedup\": 24.0", "\"speedup\": 4.0")
                    .replace("\"warm_wall_s\": 0.05", "\"warm_wall_s\": 0.3"),
            ),
            (
                "inconsistent",
                good.replace("\"speedup\": 24.0", "\"speedup\": 99.0"),
            ),
            (
                "string number",
                good.replace("\"cells\": 70", "\"cells\": \"70\""),
            ),
            ("missing key", good.replace("\"cells\": 70,", "")),
        ] {
            assert!(validate_text(name, &bad).is_err(), "{name} accepted");
        }
    }

    #[test]
    fn quick_serve_files_only_need_the_cache_to_win() {
        let quick = r#"{
          "bench": "serve", "matrix": "fig5", "size": "tiny", "quick": true,
          "cells": 7, "cold_wall_s": 0.1, "warm_wall_s": 0.05,
          "speedup": 2.0, "warm_hits": 7
        }"#;
        assert!(validate_text("quick", quick).is_ok());
        let losing = quick
            .replace("\"speedup\": 2.0", "\"speedup\": 0.5")
            .replace("\"warm_wall_s\": 0.05", "\"warm_wall_s\": 0.2");
        assert!(validate_text("losing", &losing).is_err());
    }

    #[test]
    fn unknown_kinds_and_malformed_json_are_rejected() {
        assert!(validate_text("x", "{\"bench\": \"mystery\"}").is_err());
        assert!(validate_text("x", "not json").is_err());
        assert!(validate_text("x", "{\"no_bench\": 1}").is_err());
    }

    #[test]
    fn tenants_reconciliation_is_enforced() {
        let good = r#"{
          "bench": "tenants", "tenants": 8, "accels": 2, "host_cores": 4,
          "events": 100, "wall_s": 0.5, "events_per_sec": 200.0, "cells": [
            {"backend": "local-dram", "completed": 6, "killed": 2,
             "completion_p50": 10, "completion_p99": 20, "kill_p50": 3, "kill_p99": 9},
            {"backend": "cxl-pool", "completed": 8, "killed": 0,
             "completion_p50": 12, "completion_p99": 30, "kill_p50": 4, "kill_p99": 11}
          ]
        }"#;
        assert!(
            validate_text("good", good).is_ok(),
            "{:?}",
            validate_text("good", good)
        );
        let unbalanced = good.replace("\"completed\": 6", "\"completed\": 5");
        assert!(validate_text("unbalanced", &unbalanced).is_err());
    }
}
