//! The two oracles against the dynamic programs they replaced.
//!
//! [`exact_worst_case_with_limit`] and [`naive_bound_with_limit`] walk their
//! candidate chains with a segment index, merge the chains and read the
//! adversary's successors off them. The references below are the earlier
//! formulation: collect the chain points into one list, sort and
//! deduplicate it, and binary-search the curve (and, in the adversary, the
//! list) for every candidate. Both must agree bit for bit: the total, every
//! returned point and its delay, and the `Err` / `Ok(None)` outcome.
//!
//! Chains meet only where two of them land on the same float. Random real
//! breakpoints almost never do, so the integer-grid cases (integer
//! breakpoints, values and `Q`) carry the duplicate-merging path; a separate
//! test checks that they do.

use fnpr_core::{
    exact_worst_case_with_limit, naive_bound_with_limit, AnalysisError, DelayCurve, NaiveBound,
    WorstCaseRun, DEFAULT_MAX_ADVERSARY_CANDIDATES, DEFAULT_MAX_CANDIDATES,
};
use proptest::prelude::*;

mod reference {
    use super::*;

    /// The adversary's chain points in walk order, duplicates included.
    pub fn exact_candidates(
        curve: &DelayCurve,
        q: f64,
        limit: usize,
    ) -> Result<Vec<f64>, AnalysisError> {
        let end = curve.domain_end();
        // Anchors: earliest legal point and segment starts in [q, end).
        let mut frontier: Vec<f64> = vec![q];
        for seg in curve.segments() {
            if seg.start > q && seg.start < end {
                frontier.push(seg.start);
            }
        }
        // Closure under the tight-successor map p -> p + q - f(p).
        let mut candidates: Vec<f64> = Vec::new();
        while let Some(p) = frontier.pop() {
            if p >= end {
                continue;
            }
            candidates.push(p);
            if candidates.len() > limit {
                return Err(AnalysisError::IterationLimit { limit });
            }
            frontier.push(p + q - curve.value_at(p));
        }
        Ok(candidates)
    }

    pub fn exact_worst_case(
        curve: &DelayCurve,
        q: f64,
        limit: usize,
    ) -> Result<Option<WorstCaseRun>, AnalysisError> {
        if !(q.is_finite() && q > 0.0) {
            return Err(AnalysisError::InvalidQ { q });
        }
        if curve.max_value() >= q {
            return Ok(None);
        }
        if q >= curve.domain_end() {
            return Ok(Some(WorstCaseRun {
                preemptions: Vec::new(),
                total_delay: 0.0,
                q,
            }));
        }
        let mut candidates = exact_candidates(curve, q, limit)?;
        candidates.sort_by(f64::total_cmp);
        candidates.dedup();

        // DP right-to-left: best[i] = f(c_i) + max(0, max best[j] over
        // c_j >= c_i + q - f(c_i)). suffix_best[i] = (max best[i..], argmax).
        let n = candidates.len();
        let mut best = vec![0.0f64; n];
        let mut next: Vec<Option<usize>> = vec![None; n];
        let mut suffix_best: Vec<(f64, usize)> = vec![(0.0, 0); n];
        for i in (0..n).rev() {
            let value = curve.value_at(candidates[i]);
            let threshold = candidates[i] + q - value;
            // First index with candidate >= threshold.
            let from = candidates.partition_point(|&c| c < threshold);
            best[i] = value;
            if from < n {
                let (succ_best, succ_idx) = suffix_best[from];
                if succ_best > 0.0 {
                    best[i] = value + succ_best;
                    next[i] = Some(succ_idx);
                }
            }
            suffix_best[i] = if i + 1 < n && suffix_best[i + 1].0 > best[i] {
                suffix_best[i + 1]
            } else {
                (best[i], i)
            };
        }
        if n == 0 {
            return Ok(Some(WorstCaseRun {
                preemptions: Vec::new(),
                total_delay: 0.0,
                q,
            }));
        }
        let (total, mut at) = suffix_best[0];
        let mut preemptions = Vec::new();
        loop {
            preemptions.push((candidates[at], curve.value_at(candidates[at])));
            match next[at] {
                Some(succ) => at = succ,
                None => break,
            }
        }
        Ok(Some(WorstCaseRun {
            preemptions,
            total_delay: total,
            q,
        }))
    }

    /// The naive selection's chain points in walk order, duplicates
    /// included.
    pub fn naive_candidates(
        curve: &DelayCurve,
        q: f64,
        limit: usize,
    ) -> Result<Vec<f64>, AnalysisError> {
        let end = curve.domain_end();
        // Anchor points: the earliest legal point and every segment start >= q.
        let mut anchors: Vec<f64> = vec![q];
        for seg in curve.segments() {
            if seg.start > q && seg.start < end {
                anchors.push(seg.start);
            }
        }
        // Candidate closure under +q steps.
        let mut candidates: Vec<f64> = Vec::new();
        for &anchor in &anchors {
            let mut p = anchor;
            while p < end {
                candidates.push(p);
                if candidates.len() > limit {
                    return Err(AnalysisError::IterationLimit { limit });
                }
                p += q;
            }
        }
        Ok(candidates)
    }

    pub fn naive_bound(
        curve: &DelayCurve,
        q: f64,
        limit: usize,
    ) -> Result<NaiveBound, AnalysisError> {
        if !(q.is_finite() && q > 0.0) {
            return Err(AnalysisError::InvalidQ { q });
        }
        if q >= curve.domain_end() {
            return Ok(NaiveBound {
                points: Vec::new(),
                total_delay: 0.0,
                q,
            });
        }
        let mut candidates = naive_candidates(curve, q, limit)?;
        candidates.sort_by(f64::total_cmp);
        candidates.dedup();

        // DP over candidates: best[i] = value(c_i) + max over best[j], c_j <= c_i - q.
        let n = candidates.len();
        let mut best = vec![0.0f64; n];
        let mut back: Vec<Option<usize>> = vec![None; n];
        // prefix_best[i] = (max of best[0..=i], index of the max)
        let mut prefix_best: Vec<(f64, usize)> = vec![(0.0, 0); n];
        let mut j = 0usize; // first index NOT yet eligible (c_j > c_i - q)
        for i in 0..n {
            while j < n && candidates[j] <= candidates[i] - q {
                j += 1;
            }
            let value = curve.value_at(candidates[i]);
            if j > 0 {
                let (prev_best, prev_idx) = prefix_best[j - 1];
                best[i] = value + prev_best;
                back[i] = Some(prev_idx);
            } else {
                best[i] = value;
            }
            prefix_best[i] = if i > 0 && prefix_best[i - 1].0 >= best[i] {
                prefix_best[i - 1]
            } else {
                (best[i], i)
            };
        }
        // Traceback from the global optimum.
        let (total, mut at) = prefix_best[n - 1];
        let mut chain = Vec::new();
        loop {
            chain.push((candidates[at], curve.value_at(candidates[at])));
            match back[at] {
                Some(prev) => at = prev,
                None => break,
            }
        }
        chain.reverse();
        Ok(NaiveBound {
            points: chain,
            total_delay: total,
            q,
        })
    }
}

/// Point lists agree bit for bit.
fn assert_points_identical(a: &[(f64, f64)], b: &[(f64, f64)]) {
    assert_eq!(a.len(), b.len(), "{a:?} vs {b:?}");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            (x.0.to_bits(), x.1.to_bits()),
            (y.0.to_bits(), y.1.to_bits()),
            "{a:?} vs {b:?}"
        );
    }
}

/// Both oracles agree with their references on `(curve, q)` under `limit`.
fn assert_matches_reference(curve: &DelayCurve, q: f64, limit: usize) {
    let ctx = format!("q {q} limit {limit} curve {curve:?}");
    match (
        exact_worst_case_with_limit(curve, q, limit),
        reference::exact_worst_case(curve, q, limit),
    ) {
        (Ok(Some(a)), Ok(Some(b))) => {
            assert_eq!(a.total_delay.to_bits(), b.total_delay.to_bits(), "{ctx}");
            assert_eq!(a.q.to_bits(), b.q.to_bits(), "{ctx}");
            assert_points_identical(&a.preemptions, &b.preemptions);
        }
        (a, b) => assert_eq!(a, b, "exact: {ctx}"),
    }
    match (
        naive_bound_with_limit(curve, q, limit),
        reference::naive_bound(curve, q, limit),
    ) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.total_delay.to_bits(), b.total_delay.to_bits(), "{ctx}");
            assert_eq!(a.q.to_bits(), b.q.to_bits(), "{ctx}");
            assert_points_identical(&a.points, &b.points);
        }
        (a, b) => assert_eq!(a, b, "naive: {ctx}"),
    }
}

/// A curve of `(length, value)` pieces laid end to end from 0.
fn curve_from_pieces(pieces: &[(f64, f64)]) -> DelayCurve {
    let mut points = Vec::with_capacity(pieces.len());
    let mut at = 0.0;
    for &(len, value) in pieces {
        points.push((at, value));
        at += len;
    }
    DelayCurve::from_breakpoints(points, at).expect("generated curve is valid")
}

/// The soundness workload's trials with its default ranges: the
/// `random_step_curve` shape (`segments` equal pieces over `[0, C)`, values
/// uniform in `[0, max]`) with `C` in [50, 400), 2–11 segments, `max` in
/// [1, 8), and `Q` = the curve's peak + [0.5, 10).
fn soundness_case() -> impl Strategy<Value = (DelayCurve, f64)> {
    (
        50.0f64..400.0,
        prop::collection::vec(0.0f64..=1.0, 2..12),
        1.0f64..8.0,
        0.5f64..10.0,
    )
        .prop_map(|(c, draws, max_value, slack)| {
            let segments = draws.len() as f64;
            let points = draws
                .iter()
                .enumerate()
                .map(|(k, &u)| (c * k as f64 / segments, u * max_value));
            let curve = DelayCurve::from_breakpoints(points, c).expect("valid curve");
            let q = curve.max_value() + slack;
            (curve, q)
        })
}

/// Integer breakpoints, values and `Q`. `Q` ranges over values below, at
/// and above the peak, and past the domain end.
fn integer_case() -> impl Strategy<Value = (DelayCurve, f64)> {
    (
        prop::collection::vec((1u64..=12, 0u64..=9), 1..30),
        1u64..=14,
    )
        .prop_map(|(pieces, q)| {
            let pieces: Vec<(f64, f64)> = pieces
                .iter()
                .map(|&(len, value)| (len as f64, value as f64))
                .collect();
            (curve_from_pieces(&pieces), q as f64)
        })
}

/// At least 200 short pieces with `Q` above the peak.
fn long_case() -> impl Strategy<Value = (DelayCurve, f64)> {
    (
        prop::collection::vec((0.2f64..4.0, 0.0f64..6.0), 200..400),
        0.5f64..20.0,
    )
        .prop_map(|(pieces, slack)| {
            let curve = curve_from_pieces(&pieces);
            let q = curve.max_value() + slack;
            (curve, q)
        })
}

/// At least 200 integer pieces with an integer `Q` at or above the peak.
fn long_integer_case() -> impl Strategy<Value = (DelayCurve, f64)> {
    (
        prop::collection::vec((1u64..=4, 0u64..=5), 200..300),
        0u64..=8,
    )
        .prop_map(|(pieces, slack)| {
            let pieces: Vec<(f64, f64)> = pieces
                .iter()
                .map(|&(len, value)| (len as f64, value as f64))
                .collect();
            let curve = curve_from_pieces(&pieces);
            let q = curve.max_value() + slack as f64;
            (curve, q)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn soundness_curves_match((curve, q) in soundness_case()) {
        assert_matches_reference(&curve, q, DEFAULT_MAX_ADVERSARY_CANDIDATES);
    }

    #[test]
    fn integer_grids_match((curve, q) in integer_case()) {
        assert_matches_reference(&curve, q, DEFAULT_MAX_ADVERSARY_CANDIDATES);
    }

    /// Budgets of 1–200 steps, so the limit fires on many cases and only
    /// just holds on some.
    #[test]
    fn small_budgets_match(
        (curve, q) in prop_oneof![soundness_case(), integer_case()],
        limit in 1usize..=200,
    ) {
        assert_matches_reference(&curve, q, limit);
    }

    /// `Q` at or past the domain end, and `Q` at or below the peak.
    #[test]
    fn degenerate_q_matches(
        (curve, _) in integer_case(),
        beyond in 0.0f64..50.0,
        below in 0.5f64..=1.0,
    ) {
        assert_matches_reference(&curve, curve.domain_end() + beyond, DEFAULT_MAX_CANDIDATES);
        let q = curve.max_value() * below;
        if q > 0.0 {
            assert_matches_reference(&curve, q, DEFAULT_MAX_CANDIDATES);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn long_curves_match((curve, q) in long_case()) {
        assert_matches_reference(&curve, q, DEFAULT_MAX_CANDIDATES);
    }

    #[test]
    fn long_integer_curves_match((curve, q) in long_integer_case()) {
        assert_matches_reference(&curve, q, DEFAULT_MAX_CANDIDATES);
    }
}

/// Whether the chains of `(curve, q)` meet: more chain points than
/// distinct candidates.
fn chains_meet(candidates: Result<Vec<f64>, AnalysisError>) -> bool {
    let mut candidates = candidates.expect("within the budget");
    let steps = candidates.len();
    candidates.sort_by(f64::total_cmp);
    candidates.dedup();
    candidates.len() < steps
}

/// The integer grids reach the duplicate-merging path of both oracles on
/// most cases; without it the comparison above would not test it.
#[test]
fn integer_grid_chains_meet() {
    let mut rng = proptest::TestRng::deterministic("integer_grid_chains_meet");
    let strategy = integer_case();
    let limit = DEFAULT_MAX_CANDIDATES;
    let (mut exact, mut exact_met, mut naive, mut naive_met) = (0, 0, 0, 0);
    for _ in 0..400 {
        let (curve, q) = strategy.generate(&mut rng);
        if q >= curve.domain_end() {
            continue;
        }
        naive += 1;
        naive_met += usize::from(chains_meet(reference::naive_candidates(&curve, q, limit)));
        if curve.max_value() < q {
            exact += 1;
            exact_met += usize::from(chains_meet(reference::exact_candidates(&curve, q, limit)));
        }
    }
    assert!(
        exact_met * 2 > exact,
        "exact: chains met on {exact_met} of {exact}"
    );
    assert!(
        naive_met * 2 > naive,
        "naive: chains met on {naive_met} of {naive}"
    );
}

/// A one-float-wide segment whose delay sits one float below `Q`: the
/// adversary's rounded step from its start lands *below* that start
/// (`1.75 + 2^-52 → 1.75`). The chain goes on from there, and the reference
/// finds no successor for the point it stepped back from.
#[test]
fn rounded_backward_step_matches() {
    let eps = f64::EPSILON; // 2^-52
    let q = 0.5;
    let f = q - eps / 4.0; // the largest float below 0.5
    let curve =
        DelayCurve::from_breakpoints([(0.0, 0.0), (1.75 + eps, f), (1.75 + 2.0 * eps, 0.0)], 3.0)
            .unwrap();
    let start = 1.75 + eps;
    assert!(start + q - f < start, "the step must round backwards");
    assert_matches_reference(&curve, q, DEFAULT_MAX_ADVERSARY_CANDIDATES);
    let run = exact_worst_case_with_limit(&curve, q, DEFAULT_MAX_ADVERSARY_CANDIDATES)
        .unwrap()
        .unwrap();
    assert!(run.total_delay > 0.0);
}

/// A step that rounds back onto its own point never leaves it, so both
/// oracles run out of budget instead of looping forever.
#[test]
fn stuck_chain_exhausts_the_budget() {
    let q = 1.0;
    let f = 1.0 - f64::EPSILON / 2.0; // the largest float below 1
    let curve = DelayCurve::from_breakpoints([(0.0, 0.0), (10.0, f)], 20.0).unwrap();
    assert_eq!(10.0 + q - f, 10.0);
    for limit in [1, 50, 1000] {
        assert_eq!(
            exact_worst_case_with_limit(&curve, q, limit),
            Err(AnalysisError::IterationLimit { limit })
        );
        assert_matches_reference(&curve, q, limit);
    }
}
