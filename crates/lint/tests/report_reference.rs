//! The `--json` report writer as it was before the report went through the
//! `serde_json` codec — `CheckOutcome::to_json` with `json_escape` — kept
//! as a reference and compared with the crate on random outcomes and on
//! the seeded fixture workspace. Layout may differ; the documents may not:
//! both texts must parse with `serde_json::parse_value` to equal trees,
//! key order included.

use std::path::Path;

use fnpr_lint::report::{CheckOutcome, Finding, LINTS};
use fnpr_lint::{check_workspace, CheckOptions};
use proptest::prelude::*;

mod reference {
    use std::fmt::Write as _;

    use fnpr_lint::report::CheckOutcome;

    /// The reference writer. A trait, so the body keeps its `self`; call
    /// it as `Reference::to_json(&outcome)`.
    pub trait Reference {
        fn to_json(&self) -> String;
    }

    impl Reference for CheckOutcome {
        fn to_json(&self) -> String {
            let mut out = String::from("{\n  \"schema_version\": 1,\n");
            let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
            out.push_str("  \"findings\": [\n");
            for (i, f) in self.findings.iter().enumerate() {
                let comma = if i + 1 == self.findings.len() {
                    ""
                } else {
                    ","
                };
                let _ = writeln!(
                    out,
                    "    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}",
                    json_escape(f.lint),
                    json_escape(&f.file),
                    f.line,
                    json_escape(&f.message),
                    comma
                );
            }
            out.push_str("  ],\n  \"counts\": {");
            let counts = self.counts();
            for (i, (lint, n)) in counts.iter().enumerate() {
                let comma = if i + 1 == counts.len() { "" } else { ", " };
                let _ = write!(out, "\"{}\": {}{}", json_escape(lint), n, comma);
            }
            out.push_str("}\n}\n");
            out
        }
    }

    /// Minimal JSON string escaping (quotes, backslashes, control chars).
    #[must_use]
    pub fn json_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }
}

use reference::Reference;

/// Both writers give the same document for `outcome`.
fn assert_same_document(outcome: &CheckOutcome) {
    let old = Reference::to_json(outcome);
    let new = outcome.to_json();
    let old_tree = serde_json::parse_value(&old).expect("the reference text parses");
    let new_tree = serde_json::parse_value(&new).expect("the crate's text parses");
    assert_eq!(old_tree, new_tree, "\nreference: {old}\ncrate: {new}");
}

/// Characters file names, messages and lint ids are drawn from: plain
/// text, quotes, backslashes, control characters, DEL and non-ASCII text.
const TEXT_CHARS: &[char] = &[
    'a', 'Z', '0', '.', ' ', '/', ':', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}',
    '\u{1f}', '\u{7f}', 'é', '日', '\u{2028}', '😀',
];

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..TEXT_CHARS.len(), 0..10)
        .prop_map(|picks| picks.into_iter().map(|i| TEXT_CHARS[i]).collect())
}

/// A lint id: a real one, or hostile text with the `'static` lifetime a
/// finding holds.
fn arb_lint() -> BoxedStrategy<&'static str> {
    prop_oneof![
        (0..LINTS.len()).prop_map(|i| LINTS[i]),
        arb_text().prop_map(|text| &*Box::leak(text.into_boxed_str())),
    ]
    .boxed()
}

fn arb_finding() -> BoxedStrategy<Finding> {
    const LINES: &[u32] = &[0, 1, u32::MAX];
    (
        arb_lint(),
        arb_text(),
        prop_oneof![(0..LINES.len()).prop_map(|i| LINES[i]), 0u32..=u32::MAX],
        arb_text(),
    )
        .prop_map(|(lint, file, line, message)| Finding::new(lint, &file, line, message))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn report_matches_reference(
        findings in prop::collection::vec(arb_finding(), 0..8),
        files_scanned in prop_oneof![0usize..1000, 0usize..=usize::MAX],
        notes in prop::collection::vec(arb_text(), 0..3),
    ) {
        assert_same_document(&CheckOutcome { findings, files_scanned, notes });
    }
}

/// A real report, one finding of every lint, is the same document under
/// both writers.
#[test]
fn fixture_report_matches_reference() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let outcome = check_workspace(&root, CheckOptions::default()).expect("fixture scan");
    assert!(!outcome.findings.is_empty());
    assert_same_document(&outcome);
}
