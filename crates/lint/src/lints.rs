//! The determinism, unsafe/panic-budget and format-constant passes.
//!
//! All passes are token-pattern matchers over [`crate::lexer`] output —
//! deliberately flow- and type-insensitive. Where that loses precision
//! (a hash map smuggled through a lock guard), the lint errs on silence;
//! where it over-approximates (a name that merely *looks* like a tracked
//! map), the `// fnpr-lint: allow(…)` escape hatch with a mandatory
//! reason keeps the suppression auditable.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Tok;
use crate::report::{
    Finding, ENTROPY, ENV_READ, FORMAT_CONSTANT, HASH_ITER, PANIC_BUDGET, UNSAFE_BLOCK, WALL_CLOCK,
};
use crate::scan::SourceFile;

/// Crates whose *library* code is exempt from the determinism lints:
/// telemetry (`fnpr-obs`) and the figure/bench harness (`fnpr-bench`) are
/// write-only side channels that legitimately read clocks and env vars.
pub const DETERMINISM_EXEMPT_CRATES: &[&str] = &["obs", "bench"];

/// Files allowed to contain `unsafe` (workspace-relative). Empty: the
/// whole tree is `#![forbid(unsafe_code)]` today — grow this list
/// consciously, one reviewed file at a time.
pub const UNSAFE_ALLOWLIST: &[&str] = &[];

/// Magic wire/format tags that must be defined as a `const` in exactly
/// one crate and only referenced elsewhere. The retired `FNPR1`, `FNPRW1`
/// and `FNPRL1` have no definition left; watching them keeps each from
/// coming back as an inline literal.
pub const FORMAT_TAGS: &[&str] = &["FNPR1", "FNPR2", "FNPRW1", "FNPRL1"];

/// Schema-version constants that must have exactly one defining crate.
pub const VERSION_CONSTS: &[&str] = &[
    "ANALYSIS_VERSION",
    "LEDGER_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
];

/// Hash-container iteration methods whose visit order is nondeterministic.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Whether the determinism family runs on this file at all.
#[must_use]
pub fn determinism_applies(file: &SourceFile) -> bool {
    !file.is_test && !file.is_sink && !DETERMINISM_EXEMPT_CRATES.contains(&file.crate_name.as_str())
}

/// Collects identifiers bound or typed as `HashMap`/`HashSet` in `file`:
/// `name: [&[mut]] [path::]Hash{Map,Set}<…>` annotations (lets, fields,
/// params) and `let [mut] name = Hash{Map,Set}::…` initializers.
#[must_use]
pub fn tracked_hash_bindings(file: &SourceFile) -> BTreeSet<String> {
    let lexed = &file.lexed;
    let mut tracked = BTreeSet::new();
    for i in 0..lexed.tokens.len() {
        // `name : <type>` — lone colon only (skip `::`).
        if lexed.punct(i) == Some(':')
            && lexed.punct(i + 1) != Some(':')
            && (i == 0 || lexed.punct(i - 1) != Some(':'))
        {
            let (Some(name), mut j) = (lexed.ident(i.wrapping_sub(1)), i + 1) else {
                continue;
            };
            // Skip reference/mut prefixes and lifetimes.
            while lexed.punct(j) == Some('&')
                || lexed.ident(j) == Some("mut")
                || matches!(lexed.tokens.get(j).map(|t| &t.tok), Some(Tok::Lifetime(_)))
            {
                j += 1;
            }
            // Walk the type path to its final segment.
            let mut last = None;
            while let Some(seg) = lexed.ident(j) {
                last = Some(seg);
                if lexed.is_path_sep(j + 1) {
                    j += 3;
                } else {
                    break;
                }
            }
            if matches!(last, Some("HashMap" | "HashSet")) {
                tracked.insert(name.to_string());
            }
        }
        // `let [mut] name = … Hash{Map,Set} :: …` up to the terminator.
        if lexed.ident(i) == Some("let") {
            let mut j = i + 1;
            if lexed.ident(j) == Some("mut") {
                j += 1;
            }
            let Some(name) = lexed.ident(j) else { continue };
            if lexed.punct(j + 1) != Some('=') {
                continue;
            }
            let mut k = j + 2;
            while k < lexed.tokens.len() {
                match lexed.punct(k) {
                    Some(';') | Some('{') => break,
                    _ => {}
                }
                if matches!(lexed.ident(k), Some("HashMap" | "HashSet")) && lexed.is_path_sep(k + 1)
                {
                    tracked.insert(name.to_string());
                    break;
                }
                k += 1;
            }
        }
    }
    tracked
}

/// The determinism pass: hash iteration, wall clocks, entropy and env
/// reads, all gated on [`determinism_applies`], test regions and allow
/// directives.
pub fn determinism_pass(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !determinism_applies(file) {
        return;
    }
    let tracked = tracked_hash_bindings(file);
    let lexed = &file.lexed;
    let flag = |findings: &mut Vec<Finding>, lint, line: u32, message: String| {
        if !file.allowed(line, lint) {
            findings.push(Finding::new(lint, &file.rel_path, line, message));
        }
    };
    for i in 0..lexed.tokens.len() {
        if file.in_test_region(i) {
            continue;
        }
        // `<recv>.iter()` family on a tracked binding / `self.field`.
        if lexed.punct(i) == Some('.')
            && lexed
                .ident(i + 1)
                .is_some_and(|m| ITER_METHODS.contains(&m))
            && lexed.punct(i + 2) == Some('(')
        {
            let receiver = match lexed.ident(i.wrapping_sub(1)) {
                Some("self") => None, // bare `self.iter()` — not a map
                Some(name)
                    if i >= 3
                        && lexed.punct(i - 2) == Some('.')
                        && lexed.ident(i - 3) == Some("self") =>
                {
                    Some(name)
                }
                Some(_) if i >= 2 && lexed.punct(i - 2) == Some('.') => None, // deeper chain
                Some(name) => Some(name),
                None => None,
            };
            if let Some(name) = receiver {
                if tracked.contains(name) {
                    flag(
                        findings,
                        HASH_ITER,
                        lexed.line(i + 1),
                        format!(
                            "`{name}.{}()` iterates a HashMap/HashSet in nondeterministic \
                             order; use a BTreeMap/BTreeSet or sort the keys first",
                            lexed.ident(i + 1).unwrap_or_default()
                        ),
                    );
                }
            }
        }
        // `for pat in <expr> {` where expr is `[&[mut]] name` or
        // `[&[mut]] self.field` of a tracked binding.
        if lexed.ident(i) == Some("for") {
            if let Some((name, line)) = for_loop_hash_target(file, i, &tracked) {
                flag(
                    findings,
                    HASH_ITER,
                    line,
                    format!(
                        "`for … in {name}` iterates a HashMap/HashSet in nondeterministic \
                         order; use a BTreeMap/BTreeSet or sort the keys first"
                    ),
                );
            }
        }
        // Wall clocks.
        if matches!(lexed.ident(i), Some("Instant" | "SystemTime"))
            && lexed.is_path_sep(i + 1)
            && lexed.ident(i + 3) == Some("now")
        {
            flag(
                findings,
                WALL_CLOCK,
                lexed.line(i + 3),
                format!(
                    "`{}::now` in aggregate-feeding code; clocks may only feed \
                     write-only telemetry (fnpr-obs) or declared sinks",
                    lexed.ident(i).unwrap_or_default()
                ),
            );
        }
        // Ambient entropy.
        if matches!(
            lexed.ident(i),
            Some("thread_rng" | "from_entropy" | "OsRng")
        ) {
            flag(
                findings,
                ENTROPY,
                lexed.line(i),
                format!(
                    "`{}` injects ambient randomness; derive RNG streams from \
                     (seed, grid coordinates) instead",
                    lexed.ident(i).unwrap_or_default()
                ),
            );
        }
        // Environment reads.
        if lexed.ident(i) == Some("env")
            && lexed.is_path_sep(i + 1)
            && matches!(
                lexed.ident(i + 3),
                Some("var" | "var_os" | "vars" | "vars_os")
            )
        {
            flag(
                findings,
                ENV_READ,
                lexed.line(i + 3),
                format!(
                    "`env::{}` read in aggregate-feeding code; route configuration \
                     through the validated spec instead",
                    lexed.ident(i + 3).unwrap_or_default()
                ),
            );
        }
    }
}

/// For the `for` keyword at `for_idx`, resolves the loop target if it is
/// a plain (possibly referenced) tracked binding or `self.field`.
fn for_loop_hash_target(
    file: &SourceFile,
    for_idx: usize,
    tracked: &BTreeSet<String>,
) -> Option<(String, u32)> {
    let lexed = &file.lexed;
    // Find `in` at paren/bracket depth 0 (it cannot appear in a pattern).
    let mut depth = 0i32;
    let mut in_idx = None;
    for j in for_idx + 1..lexed.tokens.len().min(for_idx + 64) {
        match lexed.punct(j) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some('{') => return None, // hit a body without `in`: not a for-loop
            _ => {}
        }
        if depth == 0 && lexed.ident(j) == Some("in") {
            in_idx = Some(j);
            break;
        }
    }
    let in_idx = in_idx?;
    // Expression tokens up to the body `{`.
    let mut j = in_idx + 1;
    while lexed.punct(j) == Some('&') || lexed.ident(j) == Some("mut") {
        j += 1;
    }
    let first = lexed.ident(j)?;
    let (name, end) = if first == "self" && lexed.punct(j + 1) == Some('.') {
        (lexed.ident(j + 2)?.to_string(), j + 3)
    } else {
        (first.to_string(), j + 1)
    };
    if lexed.punct(end) != Some('{') {
        return None; // longer expression — method-call rule covers chains
    }
    if tracked.contains(&name) {
        Some((name, lexed.line(in_idx)))
    } else {
        None
    }
}

/// The `unsafe` pass: any `unsafe` keyword outside test code and the
/// explicit [`UNSAFE_ALLOWLIST`] is a finding.
pub fn unsafe_pass(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.is_test || UNSAFE_ALLOWLIST.contains(&file.rel_path.as_str()) {
        return;
    }
    let lexed = &file.lexed;
    for i in 0..lexed.tokens.len() {
        if lexed.ident(i) == Some("unsafe") && !file.in_test_region(i) {
            let line = lexed.line(i);
            if !file.allowed(line, UNSAFE_BLOCK) {
                findings.push(Finding::new(
                    UNSAFE_BLOCK,
                    &file.rel_path,
                    line,
                    "`unsafe` outside the allowlist (crates/lint/src/lints.rs \
                     UNSAFE_ALLOWLIST); every crate is #![forbid(unsafe_code)]"
                        .to_string(),
                ));
            }
        }
    }
}

/// Per-crate `unwrap()`/`expect()` call sites in library code (non-test,
/// non-sink, outside test regions, minus `allow(panic_budget, …)` lines).
pub fn collect_panic_sites(file: &SourceFile, sites: &mut BTreeMap<String, Vec<(String, u32)>>) {
    if file.is_test || file.is_sink {
        return;
    }
    let lexed = &file.lexed;
    for i in 0..lexed.tokens.len() {
        if lexed.punct(i) == Some('.')
            && matches!(lexed.ident(i + 1), Some("unwrap" | "expect"))
            && lexed.punct(i + 2) == Some('(')
            && !file.in_test_region(i)
        {
            let line = lexed.line(i + 1);
            if !file.allowed(line, PANIC_BUDGET) {
                sites
                    .entry(file.crate_name.clone())
                    .or_default()
                    .push((file.rel_path.clone(), line));
            }
        }
    }
}

/// Cross-file format-constant state: definitions and inline literal uses
/// of each watched tag / version constant.
#[derive(Default)]
pub struct FormatSites {
    /// tag → const-definition sites (file, line, crate).
    pub tag_defs: BTreeMap<String, Vec<(String, u32, String)>>,
    /// tag → non-definition string-literal sites.
    pub tag_inline: Vec<(String, String, u32)>,
    /// version const → definition sites (file, line, crate).
    pub const_defs: BTreeMap<String, Vec<(String, u32, String)>>,
}

/// Collects format-constant sites from one file (skips test files and
/// test regions; comments never reach the token stream).
pub fn collect_format_sites(file: &SourceFile, sites: &mut FormatSites) {
    // The lint crate necessarily enumerates every watched tag in
    // FORMAT_TAGS, so it is exempt from its own pass.
    if file.is_test || file.crate_name == "lint" {
        return;
    }
    let lexed = &file.lexed;
    for i in 0..lexed.tokens.len() {
        if file.in_test_region(i) {
            continue;
        }
        if let Some(value) = lexed.str_value(i) {
            for tag in FORMAT_TAGS {
                if !literal_mentions_tag(value, tag) {
                    continue;
                }
                let line = lexed.line(i);
                if is_const_definition(file, i) {
                    sites.tag_defs.entry((*tag).to_string()).or_default().push((
                        file.rel_path.clone(),
                        line,
                        file.crate_name.clone(),
                    ));
                } else if !file.allowed(line, FORMAT_CONSTANT) {
                    sites
                        .tag_inline
                        .push(((*tag).to_string(), file.rel_path.clone(), line));
                }
            }
        }
        if lexed.ident(i) == Some("const")
            && lexed
                .ident(i + 1)
                .is_some_and(|name| VERSION_CONSTS.contains(&name))
        {
            sites
                .const_defs
                .entry(lexed.ident(i + 1).unwrap_or_default().to_string())
                .or_default()
                .push((
                    file.rel_path.clone(),
                    lexed.line(i + 1),
                    file.crate_name.clone(),
                ));
        }
    }
}

/// A literal "mentions" a tag only when the tag appears on a token
/// boundary (so `FNPRW1` does not count as a mention of `FNPR1`… which it
/// would not anyway, but `FNPR1x` must not either).
fn literal_mentions_tag(value: &str, tag: &str) -> bool {
    let mut rest = value;
    while let Some(pos) = rest.find(tag) {
        let after = rest[pos + tag.len()..].chars().next();
        if !after.is_some_and(|c| c.is_ascii_alphanumeric()) {
            return true;
        }
        rest = &rest[pos + tag.len()..];
    }
    false
}

/// Whether the string literal at token `idx` is the initializer of a
/// `const` item (walk back to the statement start looking for `const`).
fn is_const_definition(file: &SourceFile, idx: usize) -> bool {
    let lexed = &file.lexed;
    let mut j = idx;
    while j > 0 {
        j -= 1;
        match lexed.punct(j) {
            Some(';') | Some('{') | Some('}') => return false,
            _ => {}
        }
        if lexed.ident(j) == Some("const") {
            return true;
        }
    }
    false
}

/// Reconciles the collected [`FormatSites`] into findings: multi-crate
/// definitions and inline (non-const) tag literals.
pub fn format_constant_findings(sites: &FormatSites, findings: &mut Vec<Finding>) {
    for (name, defs) in sites.tag_defs.iter().chain(sites.const_defs.iter()) {
        let crates: BTreeSet<&str> = defs.iter().map(|(_, _, c)| c.as_str()).collect();
        if crates.len() > 1 {
            for (file, line, krate) in defs.iter().skip(1) {
                findings.push(Finding::new(
                    FORMAT_CONSTANT,
                    file,
                    *line,
                    format!(
                        "`{name}` is defined in multiple crates ({}); it must have \
                         exactly one home ({} also defines it)",
                        krate, defs[0].0
                    ),
                ));
            }
        }
    }
    for (tag, file, line) in &sites.tag_inline {
        let home = sites
            .tag_defs
            .get(tag)
            .and_then(|d| d.first())
            .map_or_else(|| "its defining crate".to_string(), |(f, _, _)| f.clone());
        findings.push(Finding::new(
            FORMAT_CONSTANT,
            file,
            *line,
            format!(
                "magic tag `{tag}` embedded in a string literal; reference the \
                 const from {home} so a version bump cannot drift"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::analyze_source;

    fn run_determinism(src: &str) -> Vec<Finding> {
        let file = analyze_source("crates/demo/src/lib.rs", src);
        let mut findings = Vec::new();
        determinism_pass(&file, &mut findings);
        findings
    }

    #[test]
    fn hash_map_iteration_is_flagged() {
        let f = run_determinism(
            "use std::collections::HashMap;\n\
             fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    for (k, v) in &m {}\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, HASH_ITER);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn hash_map_keys_on_self_field() {
        let f = run_determinism(
            "struct S { index: HashMap<u32, u32> }\n\
             impl S {\n    fn g(&self) { for k in self.index.keys() { let _ = k; } }\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn btreemap_is_clean() {
        let f = run_determinism(
            "fn f() {\n    let m: std::collections::BTreeMap<u32, u32> = Default::default();\n\
             \u{20}   for (k, v) in &m {}\n}\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn hash_map_lookup_is_clean() {
        let f = run_determinism(
            "fn f() {\n    let mut m: HashMap<u32, u32> = HashMap::new();\n\
             \u{20}   m.insert(1, 2);\n    let _ = m.get(&1);\n}\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn vec_of_hash_maps_outer_iteration_is_clean() {
        // Iterating the Vec is deterministic; only the map itself is hash
        // ordered.
        let f = run_determinism(
            "struct S { shards: Vec<HashMap<u32, u32>> }\n\
             impl S {\n    fn g(&self) { for shard in &self.shards { let _ = shard; } }\n}\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn clocks_entropy_env_flagged_and_allow_suppresses() {
        let src = "fn f() {\n\
            \u{20}   let t = Instant::now();\n\
            \u{20}   let r = thread_rng();\n\
            \u{20}   let v = std::env::var(\"X\");\n\
            \u{20}   let ok = Instant::now(); // fnpr-lint: allow(wall_clock, \"telemetry\")\n\
            }\n";
        let f = run_determinism(src);
        let lints: Vec<_> = f.iter().map(|f| (f.lint, f.line)).collect();
        assert_eq!(lints, vec![(WALL_CLOCK, 2), (ENTROPY, 3), (ENV_READ, 4)]);
    }

    #[test]
    fn sinks_tests_and_exempt_crates_are_skipped() {
        for path in [
            "crates/campaign/src/bin/tool.rs",
            "crates/campaign/tests/t.rs",
            "crates/obs/src/lib.rs",
            "crates/bench/src/lib.rs",
        ] {
            let file = analyze_source(path, "fn f() { let t = Instant::now(); }");
            let mut findings = Vec::new();
            determinism_pass(&file, &mut findings);
            assert!(findings.is_empty(), "{path} should be exempt");
        }
    }

    #[test]
    fn unsafe_flagged_outside_allowlist() {
        let file = analyze_source(
            "crates/demo/src/lib.rs",
            "fn f() { unsafe { std::hint::unreachable_unchecked() } }",
        );
        let mut findings = Vec::new();
        unsafe_pass(&file, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, UNSAFE_BLOCK);
    }

    #[test]
    fn panic_sites_skip_tests_and_allows() {
        let src = "fn f() {\n\
            \u{20}   x.unwrap();\n\
            \u{20}   y.expect(\"m\"); // fnpr-lint: allow(panic_budget, \"lock poisoning is fatal\")\n\
            }\n\
            #[cfg(test)]\nmod tests { fn t() { z.unwrap(); } }\n";
        let file = analyze_source("crates/demo/src/lib.rs", src);
        let mut sites = BTreeMap::new();
        collect_panic_sites(&file, &mut sites);
        assert_eq!(
            sites["demo"],
            vec![("crates/demo/src/lib.rs".to_string(), 2)]
        );
    }

    #[test]
    fn format_tag_const_definition_vs_inline() {
        let def = analyze_source(
            "crates/a/src/lib.rs",
            "pub const FORMAT: &str = \"FNPR9\";\npub const STORE: &str = \"FNPR2\";\n",
        );
        let inline = analyze_source(
            "crates/b/src/lib.rs",
            "fn f() { let s = \"FNPR2 1234 payload\"; }\n",
        );
        let mut sites = FormatSites::default();
        collect_format_sites(&def, &mut sites);
        collect_format_sites(&inline, &mut sites);
        let mut findings = Vec::new();
        format_constant_findings(&sites, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, "crates/b/src/lib.rs");
        assert!(findings[0].message.contains("FNPR2"));
    }

    #[test]
    fn tag_mention_requires_boundary() {
        assert!(literal_mentions_tag("FNPR2 x", "FNPR2"));
        assert!(literal_mentions_tag("FNPR2", "FNPR2"));
        assert!(!literal_mentions_tag("FNPR2abc", "FNPR2"));
        assert!(!literal_mentions_tag("FNPRW1", "FNPR1"));
    }

    #[test]
    fn duplicate_version_const_definitions_flagged() {
        let a = analyze_source(
            "crates/a/src/lib.rs",
            "pub const ANALYSIS_VERSION: u64 = 1;",
        );
        let b = analyze_source(
            "crates/b/src/lib.rs",
            "pub const ANALYSIS_VERSION: u64 = 2;",
        );
        let mut sites = FormatSites::default();
        collect_format_sites(&a, &mut sites);
        collect_format_sites(&b, &mut sites);
        let mut findings = Vec::new();
        format_constant_findings(&sites, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, "crates/b/src/lib.rs");
    }
}
