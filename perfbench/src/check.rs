//! The output check behind the failed-point count.
//!
//! Every timed run's CSV must be byte-identical to the set-up run's (the
//! engine's determinism contract across thread counts and store state),
//! and at [`DEFAULT_SEED`] the set-up CSV must also match the digest
//! recorded here. A point fails when its CSV row differs from the
//! reference or when it reports a dominance or simulator violation. The
//! naive bound's unsoundness is *not* a failure: it is the paper's
//! Figure 2 effect, which the soundness workload exists to show.

use std::collections::BTreeSet;

use fnpr_campaign::CampaignReport;

use crate::workloads::Workload;

/// The seed whose full-size CSV digests are recorded in
/// [`recorded_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// The [`digest`] of each workload's full-size CSV at [`DEFAULT_SEED`].
#[must_use]
pub fn recorded_digest(workload: Workload) -> &'static str {
    match workload {
        Workload::Acceptance => "d6ed68819641a90a",
        Workload::Soundness => "44bcc5e844f30b4d",
        Workload::Cfg => "ab0aca0b5d19c3b5",
        Workload::Multicore => "8e48d0765616df5e",
    }
}

/// 64-bit FNV-1a over the CSV bytes, as 16 hex digits.
#[must_use]
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Grid points in a report, in CSV row order (a soundness point is one
/// trial).
#[must_use]
pub fn points(report: &CampaignReport) -> usize {
    report.acceptance.len()
        + report.multicore.len()
        + report.cfg.len()
        + report.soundness.iter().map(|s| s.rows.len()).sum::<usize>()
}

/// Methods in ascending acceptance power: a tighter bound may only admit
/// more task sets, and `no_delay` admits the most.
const POWER_CHAIN: [&str; 4] = ["eq4", "algorithm1", "algorithm1_capped", "no_delay"];

/// Whether per-method accepted counts break the dominance chain.
fn breaks_chain(methods: &[String], accepted: &[usize]) -> bool {
    let chain: Vec<usize> = POWER_CHAIN
        .iter()
        .filter_map(|name| methods.iter().position(|m| m == name))
        .collect();
    chain.windows(2).any(
        |pair| match (accepted.get(pair[0]), accepted.get(pair[1])) {
            (Some(weaker), Some(stronger)) => stronger < weaker,
            _ => true,
        },
    )
}

/// Row indices of the points that report a dominance or simulator
/// violation.
#[must_use]
pub fn violating_points(report: &CampaignReport) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for (i, p) in report.acceptance.iter().enumerate() {
        if breaks_chain(&report.methods, &p.accepted) {
            out.insert(i);
        }
    }
    for (i, p) in report.multicore.iter().enumerate() {
        if p.sim_violations > 0 || breaks_chain(&report.methods, &p.accepted) {
            out.insert(i);
        }
    }
    for (i, p) in report.cfg.iter().enumerate() {
        if p.dominance_violations > 0 {
            out.insert(i);
        }
    }
    let mut row = 0;
    for shard in &report.soundness {
        let bad = shard.theorem1_violations + shard.eq4_violations + shard.sim_violations > 0;
        for _ in &shard.rows {
            if bad {
                out.insert(row);
            }
            row += 1;
        }
    }
    out
}

/// Failed points of one run: rows whose CSV bytes differ from the
/// reference (a differing header fails every point; missing or extra rows
/// fail too), united with the points that report a violation. Capped at
/// the reference's point count.
#[must_use]
pub fn failed_points(reference_csv: &str, csv: &str, report: &CampaignReport) -> usize {
    let reference: Vec<&str> = reference_csv.lines().collect();
    let actual: Vec<&str> = csv.lines().collect();
    let points = reference.len().saturating_sub(1);
    if reference.first() != actual.first() {
        return points;
    }
    let mut failed = violating_points(report);
    for row in 0..points.max(actual.len().saturating_sub(1)) {
        if reference.get(row + 1) != actual.get(row + 1) {
            failed.insert(row);
        }
    }
    // A trailing-newline difference is invisible to `lines()`.
    if failed.is_empty() && reference_csv != csv {
        failed.insert(0);
    }
    failed.len().min(points.max(1))
}
