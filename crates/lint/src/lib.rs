//! `bc-lint` — workspace determinism & robustness lint.
//!
//! Every guarantee this reproduction makes (golden `RunReport`s
//! byte-identical at any `--jobs`, results cacheable by
//! `sha256(config)`) rests on the simulation crates being
//! *deterministic by construction*. The determinism suites and golden
//! snapshots enforce that dynamically; `bc-lint` enforces it
//! statically, at the source boundary — the paper's border-check
//! discipline applied to our own code. See DESIGN.md §14 for the rule
//! catalog, tier table and waiver grammar.
//!
//! The tool is std-only and self-contained: it tokenizes every
//! first-party Rust file with a hand-rolled lexer ([`lexer`]), applies
//! a per-crate-tier rule catalog ([`rules`]), resolves inline waiver
//! directives ([`waiver`]), and emits deterministic human-readable or
//! `--json` output, sorted by `(path, line, rule)` regardless of
//! directory walk order.

pub mod lexer;
pub mod rules;
pub mod selftest;
pub mod waiver;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rules::{RuleId, Tier};

/// Crates whose `src/` trees are in the deterministic tier: their code
/// runs inside simulated time and must never consult wall clocks,
/// OS entropy, iteration-order-unstable containers, or (unannotated)
/// floating point.
pub const DETERMINISTIC_CRATES: [&str; 11] = [
    "sim",
    "core",
    "mem",
    "cache",
    "os",
    "iommu",
    "accel",
    "system",
    "workloads",
    "experiments",
    "trace",
];

/// Protocol crates: the subset whose integer widths encode protocol
/// state; narrowing `as` casts there are flagged.
pub const PROTOCOL_CRATES: [&str; 3] = ["core", "mem", "os"];

/// One reported (unwaived) finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub path: String,
    pub rule: RuleId,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// One finding that an inline waiver suppressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waived {
    pub path: String,
    pub rule: RuleId,
    pub line: u32,
    pub waiver_line: u32,
    pub reason: String,
}

/// Aggregate result of linting a file set.
#[derive(Debug, Default)]
pub struct LintReport {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    pub waived: Vec<Waived>,
}

impl LintReport {
    /// True when there is nothing unwaived to report.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Waiver counts per rule, in rule order (only non-zero entries).
    #[must_use]
    pub fn waiver_counts(&self) -> Vec<(RuleId, usize)> {
        RuleId::ALL
            .into_iter()
            .map(|r| (r, self.waived.iter().filter(|w| w.rule == r).count()))
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// Deterministic human-readable rendering.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}:{}: {}: {}",
                f.path,
                f.line,
                f.col,
                f.rule.name(),
                f.message
            );
        }
        let waivers = self
            .waiver_counts()
            .into_iter()
            .map(|(r, n)| format!("{} {}", n, r.name()))
            .collect::<Vec<_>>()
            .join(", ");
        let waivers = if waivers.is_empty() {
            String::new()
        } else {
            format!(" [waived: {waivers}]")
        };
        let verdict = if self.clean() { "clean — " } else { "" };
        let _ = writeln!(
            out,
            "bc-lint: {}{} finding{}, {} waived, {} files scanned{}",
            verdict,
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.waived.len(),
            self.files_scanned,
            waivers
        );
        out
    }

    /// Deterministic JSON rendering (hand-rolled; the lint is std-only
    /// by design, like every serializer in this workspace).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"path\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&f.path),
                f.line,
                f.col,
                json_str(f.rule.name()),
                json_str(&f.message)
            );
        }
        out.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"waived\": [");
        for (i, w) in self.waived.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"waiver_line\": {}, \"reason\": {}}}",
                json_str(&w.path),
                w.line,
                json_str(w.rule.name()),
                w.waiver_line,
                json_str(&w.reason)
            );
        }
        out.push_str(if self.waived.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"waiver_counts\": {");
        let counts = self.waiver_counts();
        for (i, (r, n)) in counts.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {}: {}", json_str(r.name()), n);
        }
        out.push_str(if counts.is_empty() { "}\n" } else { "\n  }\n" });
        out.push('}');
        out.push('\n');
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Tier of a workspace-relative path (forward slashes).
#[must_use]
pub fn tier_for(rel_path: &str) -> Tier {
    let mut tier = Tier::default();
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        if let Some((krate, tail)) = rest.split_once('/') {
            if tail.starts_with("src/") || tail == "src" {
                tier.deterministic = DETERMINISTIC_CRATES.contains(&krate);
                tier.protocol = PROTOCOL_CRATES.contains(&krate);
            }
        }
    }
    tier
}

/// Lints one in-memory file at the given tier, resolving waivers.
/// Returns `(unwaived findings, waived findings)`, both sorted.
#[must_use]
pub fn lint_source(rel_path: &str, content: &str, tier: Tier) -> (Vec<Finding>, Vec<Waived>) {
    let lexed = lexer::lex(content);
    let raw = rules::scan(&lexed, tier);
    let mut directives = waiver::parse_directives(&lexed.comments, &lexed.tokens);

    let mut findings = Vec::new();
    let mut waived = Vec::new();

    for b in &directives.bad {
        findings.push(Finding {
            path: rel_path.to_string(),
            rule: RuleId::BadDirective,
            line: b.line,
            col: b.col,
            message: b.message.clone(),
        });
    }

    for f in &raw {
        let covering = if f.rule.waivable() {
            directives
                .waivers
                .iter_mut()
                .find(|w| w.covers(f.rule, f.line))
        } else {
            None
        };
        match covering {
            Some(w) => {
                w.used = true;
                waived.push(Waived {
                    path: rel_path.to_string(),
                    rule: f.rule,
                    line: f.line,
                    waiver_line: w.line,
                    reason: w.reason.clone(),
                });
            }
            None => {
                let message = match f.rule {
                    RuleId::Parse => f.what.clone(),
                    RuleId::AllowNeedsReason => f.rule.describe().to_string(),
                    _ => format!("`{}`: {}", f.what, f.rule.describe()),
                };
                findings.push(Finding {
                    path: rel_path.to_string(),
                    rule: f.rule,
                    line: f.line,
                    col: f.col,
                    message,
                });
            }
        }
    }

    for w in &directives.waivers {
        if !w.used {
            let names = w
                .rules
                .iter()
                .map(|r| r.name())
                .collect::<Vec<_>>()
                .join(", ");
            findings.push(Finding {
                path: rel_path.to_string(),
                rule: RuleId::UnusedWaiver,
                line: w.line,
                col: w.col,
                message: format!("waiver for ({names}) suppresses nothing; remove it"),
            });
        }
    }

    findings.sort_by_key(|f| (f.line, f.rule, f.col));
    waived.sort_by_key(|w| (w.line, w.rule));
    (findings, waived)
}

/// The workspace directories bc-lint walks, relative to the root.
pub const WALK_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Collects every first-party `.rs` file under `root`, sorted by
/// relative path so results never depend on directory enumeration
/// order. Skips `vendor/`, `target/`, and `tests/fixtures/` corpora
/// (which are lint *inputs*, exercised by `--self-test`).
pub fn collect_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    for top in WALK_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" {
                continue;
            }
            if name == "fixtures"
                && dir
                    .file_name()
                    .is_some_and(|d| d.to_string_lossy() == "tests")
            {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Lints the workspace rooted at `root`, plus any `extra` in-memory
/// files (the `--inject` path). Output ordering is fully deterministic.
pub fn lint_workspace(
    root: &Path,
    extra: &[(String, String, Tier)],
) -> std::io::Result<LintReport> {
    let files = collect_files(root)?;
    let mut report = LintReport {
        files_scanned: files.len() + extra.len(),
        ..LintReport::default()
    };
    for (rel, abs) in &files {
        let content = std::fs::read_to_string(abs)?;
        let (f, w) = lint_source(rel, &content, tier_for(rel));
        report.findings.extend(f);
        report.waived.extend(w);
    }
    for (rel, content, tier) in extra {
        let (f, w) = lint_source(rel, content, *tier);
        report.findings.extend(f);
        report.waived.extend(w);
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule, a.col).cmp(&(&b.path, b.line, b.rule, b.col)));
    report
        .waived
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_mapping() {
        assert!(tier_for("crates/sim/src/audit.rs").deterministic);
        assert!(!tier_for("crates/sim/src/audit.rs").protocol);
        assert!(tier_for("crates/core/src/proto.rs").protocol);
        assert!(tier_for("crates/os/src/kernel.rs").deterministic);
        assert!(!tier_for("crates/sim/tests/foo.rs").deterministic);
        assert!(!tier_for("crates/serve/src/gateway.rs").deterministic);
        assert!(!tier_for("crates/check/src/lib.rs").deterministic);
        assert!(!tier_for("tests/goldens.rs").deterministic);
        assert!(!tier_for("src/lib.rs").deterministic);
    }

    #[test]
    fn waived_finding_moves_to_waived_list_and_marks_waiver_used() {
        let src = "\
// bc-lint: allow(float) — summary-only ratio
fn ratio(a: u64, b: u64) -> f64 { a as f64 / b as f64 }
";
        let tier = Tier {
            deterministic: true,
            protocol: false,
        };
        let (f, w) = lint_source("x.rs", src, tier);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].rule, RuleId::Float);
    }

    #[test]
    fn unused_waiver_is_a_finding() {
        let (f, w) = lint_source(
            "x.rs",
            "// bc-lint: allow(float) — nothing here floats\nfn a() {}\n",
            Tier {
                deterministic: true,
                protocol: false,
            },
        );
        assert!(w.is_empty());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::UnusedWaiver);
    }

    #[test]
    fn json_escaping_and_shape() {
        let report = LintReport {
            files_scanned: 1,
            findings: vec![Finding {
                path: "a\"b.rs".into(),
                rule: RuleId::Float,
                line: 1,
                col: 2,
                message: "quote \" backslash \\ newline \n done".into(),
            }],
            waived: vec![],
        };
        let j = report.to_json();
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("\\n done"));
        assert!(j.contains("\"files_scanned\": 1"));
    }
}
