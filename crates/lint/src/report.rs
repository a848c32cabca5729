//! Findings, lint identifiers and machine-readable output.

use std::collections::BTreeMap;

use serde::{Serialize, Value};

/// Order-dependent iteration over `HashMap`/`HashSet`.
pub const HASH_ITER: &str = "hash_iter";
/// `Instant::now` / `SystemTime::now` in aggregate-feeding code.
pub const WALL_CLOCK: &str = "wall_clock";
/// Ambient randomness (`thread_rng`, `from_entropy`, `OsRng`).
pub const ENTROPY: &str = "entropy";
/// `std::env::var`-family reads in aggregate-feeding code.
pub const ENV_READ: &str = "env_read";
/// Malformed metric name, or a dynamic name without a declaration.
pub const METRIC_NAME: &str = "metric_name";
/// One metric name used under two instrument types.
pub const METRIC_TYPE: &str = "metric_type";
/// Code ↔ `METRICS.md` drift (missing or stale row).
pub const METRIC_REGISTRY: &str = "metric_registry";
/// Magic wire tags / schema constants defined or inlined outside their
/// single home crate.
pub const FORMAT_CONSTANT: &str = "format_constant";
/// `unsafe` outside the explicit allowlist.
pub const UNSAFE_BLOCK: &str = "unsafe_block";
/// `unwrap()`/`expect()` in library code above the per-crate ratchet.
pub const PANIC_BUDGET: &str = "panic_budget";
/// Malformed `// fnpr-lint:` directive (e.g. allow without a reason).
pub const ALLOW_SYNTAX: &str = "allow_syntax";

/// Every lint id, in severity-then-name order; `allow(<lint>, …)` must
/// name one of these.
pub const LINTS: &[&str] = &[
    HASH_ITER,
    WALL_CLOCK,
    ENTROPY,
    ENV_READ,
    METRIC_NAME,
    METRIC_TYPE,
    METRIC_REGISTRY,
    FORMAT_CONSTANT,
    UNSAFE_BLOCK,
    PANIC_BUDGET,
    ALLOW_SYNTAX,
];

/// One diagnostic: a lint id anchored at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Finding {
    /// Lint id (one of [`LINTS`]).
    pub lint: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-oriented explanation (single line).
    pub message: String,
}

impl Finding {
    /// Builds a finding.
    #[must_use]
    pub fn new(lint: &'static str, file: &str, line: u32, message: String) -> Self {
        Self {
            lint,
            file: file.to_string(),
            line,
            message,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// The result of one `check` run.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// All findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// Number of files lexed.
    pub files_scanned: usize,
    /// Informational notes (e.g. ratchet slack) — never failures.
    pub notes: Vec<String>,
}

impl CheckOutcome {
    /// Findings per lint id (zero-count lints omitted).
    #[must_use]
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for finding in &self.findings {
            *counts.entry(finding.lint).or_insert(0) += 1;
        }
        counts
    }

    /// The machine-readable report (stable field order, schema v1).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self);
        json.push('\n');
        json
    }
}

impl Serialize for CheckOutcome {
    fn to_value(&self) -> Value {
        let counts = self
            .counts()
            .into_iter()
            .map(|(lint, n)| (lint.to_string(), n.to_value()))
            .collect();
        Value::Map(vec![
            ("schema_version".into(), Value::Int(1)),
            ("files_scanned".into(), self.files_scanned.to_value()),
            ("findings".into(), self.findings.to_value()),
            ("counts".into(), Value::Map(counts)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_shape() {
        let mut outcome = CheckOutcome {
            files_scanned: 3,
            ..Default::default()
        };
        outcome.findings.push(Finding::new(
            HASH_ITER,
            "crates/x/src/lib.rs",
            7,
            "iterates a HashMap \"m\"".to_string(),
        ));
        let json = outcome.to_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("\\\"m\\\""));
        assert!(json.contains("\"hash_iter\": 1"));
    }

    #[test]
    fn escaping_handles_controls() {
        let mut outcome = CheckOutcome::default();
        outcome.findings.push(Finding::new(
            HASH_ITER,
            "src/lib.rs",
            1,
            "a\"b\\c\nd\u{1}".to_string(),
        ));
        let json = outcome.to_json();
        assert!(json.contains("\"a\\\"b\\\\c\\nd\\u0001\""), "{json}");
    }

    #[test]
    fn display_is_file_line_lint() {
        let f = Finding::new(WALL_CLOCK, "src/lib.rs", 12, "no".into());
        assert_eq!(f.to_string(), "src/lib.rs:12: [wall_clock] no");
    }
}
