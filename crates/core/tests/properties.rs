//! Property-based tests for the core analyses.
//!
//! The central invariant chain, checked on randomly generated step curves:
//!
//! ```text
//! naive_bound  ≤  exact_worst_case  ≤  algorithm1  ≤  eq4_bound
//! ```
//!
//! * the left link shows the naive selection is optimistic (paper Figure 2);
//! * the middle link is Theorem 1 (soundness of Algorithm 1);
//! * the right link is the paper's dominance claim over the state of the art.

use fnpr_core::{
    algorithm1, algorithm1_capped, algorithm1_from, algorithm1_trace, algorithm1_with_limit,
    eq4_bound_for_curve, exact_worst_case, naive_bound, BoundOutcome, DelayCurve,
};
use proptest::prelude::*;

#[path = "support/algorithm1_reference.rs"]
mod reference;

/// Asserts two bound outcomes are *bit*-identical: same variant, same float
/// bit patterns, same window counts (stricter than `==`, which would let
/// `-0.0` pass for `0.0`).
fn assert_bit_identical(a: &BoundOutcome, b: &BoundOutcome) {
    match (a, b) {
        (BoundOutcome::Converged(x), BoundOutcome::Converged(y)) => {
            assert_eq!(x.total_delay.to_bits(), y.total_delay.to_bits());
            assert_eq!(x.windows, y.windows);
            assert_eq!(x.q.to_bits(), y.q.to_bits());
            assert_eq!(x.wcet.to_bits(), y.wcet.to_bits());
        }
        (
            BoundOutcome::Divergent {
                at_progress: ap,
                window_delay: wd,
                q: qa,
            },
            BoundOutcome::Divergent {
                at_progress: bp,
                window_delay: bd,
                q: qb,
            },
        ) => {
            assert_eq!(ap.to_bits(), bp.to_bits());
            assert_eq!(wd.to_bits(), bd.to_bits());
            assert_eq!(qa.to_bits(), qb.to_bits());
        }
        _ => panic!("outcome variants differ: {a:?} vs {b:?}"),
    }
}

/// A random piecewise-constant curve: segment (length, value) pairs.
fn arb_curve() -> impl Strategy<Value = DelayCurve> {
    prop::collection::vec((1.0f64..60.0, 0.0f64..10.0), 1..16).prop_map(|pieces| {
        let mut points = Vec::with_capacity(pieces.len());
        let mut at = 0.0;
        for &(len, value) in &pieces {
            points.push((at, value));
            at += len;
        }
        DelayCurve::from_breakpoints(points, at).expect("generated curve is valid")
    })
}

/// A curve plus a region length `q` strictly above the curve maximum (so all
/// analyses converge).
fn arb_convergent_case() -> impl Strategy<Value = (DelayCurve, f64)> {
    (arb_curve(), 0.5f64..40.0).prop_map(|(curve, slack)| {
        let q = curve.max_value() + slack;
        (curve, q)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// naive <= exact <= algorithm1 <= eq4 on every convergent instance.
    #[test]
    fn bound_ordering((curve, q) in arb_convergent_case()) {
        let naive = naive_bound(&curve, q).unwrap().total_delay;
        let exact = exact_worst_case(&curve, q)
            .unwrap()
            .expect("q > max value implies finite worst case")
            .total_delay;
        let alg1 = algorithm1(&curve, q)
            .unwrap()
            .expect_converged()
            .total_delay;
        let eq4 = eq4_bound_for_curve(&curve, q)
            .unwrap()
            .expect_converged()
            .total_delay;
        prop_assert!(naive <= exact + 1e-9, "naive {} > exact {}", naive, exact);
        prop_assert!(exact <= alg1 + 1e-9, "exact {} > alg1 {} (Theorem 1!)", exact, alg1);
        prop_assert!(alg1 <= eq4 + 1e-9, "alg1 {} > eq4 {}", alg1, eq4);
    }

    /// The per-window trace is internally consistent with Algorithm 1's
    /// definition (lines 5-14 of the paper's listing).
    #[test]
    fn trace_invariants((curve, q) in arb_convergent_case()) {
        let (outcome, trace) = algorithm1_trace(&curve, q).unwrap();
        let bound = outcome.expect_converged();
        let mut expected_progress = q;
        let mut total = 0.0;
        for (k, w) in trace.iter().enumerate() {
            prop_assert_eq!(w.index, k);
            prop_assert!((w.progress - expected_progress).abs() < 1e-9);
            // p_cross within the window, clamped to the domain.
            prop_assert!(w.p_cross >= w.progress - 1e-12);
            prop_assert!(w.p_cross <= (w.progress + q).min(curve.domain_end()) + 1e-12);
            // The charged delay is the window maximum.
            let max = curve.max_on(w.progress, w.p_cross).unwrap();
            prop_assert!((w.delay - max).abs() < 1e-12);
            // Progress guarantee.
            prop_assert!((w.next_progress - (w.progress + q - w.delay)).abs() < 1e-9);
            expected_progress = w.next_progress;
            total += w.delay;
        }
        prop_assert!((total - bound.total_delay).abs() < 1e-6);
        prop_assert_eq!(trace.len(), bound.windows);
        // Termination condition: final next_progress is past the task end.
        if let Some(last) = trace.last() {
            prop_assert!(last.next_progress >= curve.domain_end() - 1e-9);
        }
    }

    /// `first_crossing` returns the infimum of the crossing set: the curve
    /// meets the line at the returned point and stays strictly below it
    /// before.
    #[test]
    fn first_crossing_is_infimum(
        (curve, q) in arb_convergent_case(),
        frac in 0.0f64..1.0,
    ) {
        let from = frac * curve.domain_end();
        let limit = from + q;
        match curve.first_crossing(from, q).unwrap() {
            Some(p) => {
                prop_assert!(p >= from - 1e-12);
                prop_assert!(p <= limit + 1e-12);
                prop_assert!(
                    curve.value_at(p) >= limit - p - 1e-9,
                    "no crossing at returned point"
                );
                // Strictly below the line before p (sampled).
                for k in 1..32 {
                    let x = from + (p - from) * (k as f64) / 32.0;
                    if x < p {
                        prop_assert!(
                            curve.value_at(x) < limit - x + 1e-9,
                            "crossing earlier than returned: f({}) = {} >= {}",
                            x, curve.value_at(x), limit - x
                        );
                    }
                }
            }
            None => {
                // Only possible when the domain ends inside the window.
                prop_assert!(limit >= curve.domain_end());
            }
        }
    }

    /// `from_windows` equals the brute-force pointwise max of the windows.
    #[test]
    fn from_windows_matches_bruteforce(
        windows in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..10.0),
            0..12,
        ),
        samples in prop::collection::vec(0.0f64..120.0, 16),
    ) {
        let normalised: Vec<(f64, f64, f64)> = windows
            .iter()
            .map(|&(a, b, v)| (a.min(b), a.max(b), v))
            .collect();
        let curve = DelayCurve::from_windows(normalised.iter().copied(), 120.0).unwrap();
        for &t in &samples {
            let expected = normalised
                .iter()
                .filter(|&&(lo, hi, _)| lo <= t && t < hi)
                .map(|&(_, _, v)| v)
                .fold(0.0f64, f64::max);
            let got = curve.value_at(t);
            prop_assert!(
                (got - expected).abs() < 1e-9,
                "window max mismatch at {}: {} vs {}", t, got, expected
            );
        }
    }

    /// `pointwise_max` really is the pointwise maximum.
    #[test]
    fn pointwise_max_matches_bruteforce(
        a in arb_curve(),
        lens in prop::collection::vec((1.0f64..60.0, 0.0f64..10.0), 1..16),
        samples in prop::collection::vec(0.0f64..1.0, 16),
    ) {
        // Build b over the same domain as a.
        let end = a.domain_end();
        let total: f64 = lens.iter().map(|&(l, _)| l).sum();
        let mut points = Vec::new();
        let mut at = 0.0;
        for &(len, value) in &lens {
            if at < end {
                points.push((at, value));
            }
            at += len / total * end;
        }
        let b = DelayCurve::from_breakpoints(points, end).unwrap();
        let m = a.pointwise_max(&b).unwrap();
        for &frac in &samples {
            let t = frac * end * 0.999;
            let expected = a.value_at(t).max(b.value_at(t));
            prop_assert!((m.value_at(t) - expected).abs() < 1e-12);
        }
        prop_assert!(m.dominates(&a));
        prop_assert!(m.dominates(&b));
    }

    /// The Eq. 4 result satisfies its own fixpoint equation.
    #[test]
    fn eq4_is_a_fixpoint((curve, q) in arb_convergent_case()) {
        let bound = eq4_bound_for_curve(&curve, q).unwrap().expect_converged();
        let c = curve.domain_end();
        let d = curve.max_value();
        let inflated = bound.inflated_wcet();
        let recomputed = c + (inflated / q).ceil() * d;
        // Allow the one-ulp ceiling guard used by the implementation.
        prop_assert!(
            (recomputed - inflated).abs() <= d + 1e-6,
            "not a fixpoint: C'={}, recomputed={}", inflated, recomputed
        );
    }

    /// Scaling and clamping interact with max_value as expected.
    #[test]
    fn scale_clamp_algebra(curve in arb_curve(), k in 0.0f64..4.0, cap in 0.0f64..12.0) {
        let scaled = curve.scaled(k).unwrap();
        prop_assert!((scaled.max_value() - curve.max_value() * k).abs() < 1e-9);
        let clamped = curve.clamped(cap).unwrap();
        prop_assert!(clamped.max_value() <= cap + 1e-12);
        prop_assert!(curve.dominates(&clamped));
    }

    /// Resampling is conservative end to end: the coarse curve dominates
    /// pointwise, and the Algorithm 1 bound computed from it covers the
    /// exact worst case of the original.
    #[test]
    fn resampling_stays_sound(
        (curve, q) in arb_convergent_case(),
        step_frac in 0.05f64..0.5,
    ) {
        let step = curve.domain_end() * step_frac;
        let coarse = curve.resampled(step).unwrap();
        prop_assert!(coarse.dominates(&curve));
        let exact = exact_worst_case(&curve, q)
            .unwrap()
            .expect("q above the fine max")
            .total_delay;
        // The coarse max can only grow; q may now sit below it (divergent
        // coarse analysis = infinite bound, which trivially covers).
        if let Some(coarse_bound) = algorithm1(&coarse, q).unwrap().total_delay() {
            prop_assert!(
                coarse_bound >= exact - 1e-9,
                "coarse bound {} below exact {}",
                coarse_bound,
                exact
            );
        }
    }

    /// Rebuilding a curve from its own segments is the identity.
    #[test]
    fn segments_round_trip(curve in arb_curve()) {
        let rebuilt = DelayCurve::from_breakpoints(
            curve.segments().map(|s| (s.start, s.value)),
            curve.domain_end(),
        )
        .unwrap();
        prop_assert_eq!(rebuilt, curve);
    }

    /// Algorithm 1 and the exact adversary agree perfectly on constant
    /// curves (no shape information to exploit, no analysis artifacts).
    #[test]
    fn constant_curves_are_tight(value in 0.0f64..10.0, c in 10.0f64..500.0, slack in 0.1f64..20.0) {
        let curve = DelayCurve::constant(value, c).unwrap();
        let q = value + slack;
        let alg1 = algorithm1(&curve, q).unwrap().expect_converged().total_delay;
        let exact = exact_worst_case(&curve, q).unwrap().unwrap().total_delay;
        prop_assert!((alg1 - exact).abs() < 1e-6, "alg1 {} != exact {}", alg1, exact);
    }

    /// The fused-cursor kernel is bit-identical to the per-call reference
    /// implementation on arbitrary curves — converged outcomes.
    #[test]
    fn cursor_matches_reference_when_convergent((curve, q) in arb_convergent_case()) {
        let fused = algorithm1(&curve, q).unwrap();
        let per_call = reference::algorithm1(&curve, q).unwrap();
        assert_bit_identical(&fused, &per_call);
    }

    /// Same, with `q` drawn across the whole divergence boundary (delay ≥ q
    /// stalls progress): divergent certificates must match bit for bit too.
    #[test]
    fn cursor_matches_reference_across_divergence(
        curve in arb_curve(),
        q in 0.5f64..12.0,
    ) {
        let fused = algorithm1(&curve, q).unwrap();
        let per_call = reference::algorithm1(&curve, q).unwrap();
        assert_bit_identical(&fused, &per_call);
    }

    /// Iteration-limit outcomes agree: both paths exhaust the same budget
    /// on the same window (or both finish).
    #[test]
    fn cursor_matches_reference_under_iteration_limits(
        (curve, q) in arb_convergent_case(),
        limit in 0usize..24,
    ) {
        match (
            algorithm1_with_limit(&curve, q, limit),
            reference::algorithm1_with_limit(&curve, q, limit),
        ) {
            (Ok(a), Ok(b)) => assert_bit_identical(&a, &b),
            (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
            (a, b) => prop_assert!(false, "outcomes differ: {:?} vs {:?}", a, b),
        }
    }

    /// `algorithm1_from` (remaining-delay analysis) is bit-identical to the
    /// reference from arbitrary start progress, including starts beyond the
    /// domain and q values below the curve maximum.
    #[test]
    fn cursor_matches_reference_from_any_progress(
        curve in arb_curve(),
        q in 0.5f64..20.0,
        frac in 0.0f64..1.2,
    ) {
        let start = frac * curve.domain_end();
        let fused = algorithm1_from(&curve, q, start).unwrap();
        let per_call = reference::algorithm1_from(&curve, q, start).unwrap();
        assert_bit_identical(&fused, &per_call);
    }

    /// The bounded-min-heap capped path is *bit*-identical to the
    /// trace-materializing selection it replaced: sort every window charge
    /// descending, take the `cap` largest, sum largest-first — on arbitrary
    /// curves, caps straddling the window count, and scale factors
    /// (including divergent parameterisations, which must stay `None`).
    #[test]
    fn capped_heap_matches_trace_selection(
        curve in arb_curve(),
        q in 0.5f64..30.0,
        factor in 0.0f64..2.0,
        cap in 0usize..40,
    ) {
        let scaled = curve.scaled(factor).unwrap();
        let capped = algorithm1_capped(&scaled, q, cap).unwrap();
        let (outcome, trace) = algorithm1_trace(&scaled, q).unwrap();
        match outcome {
            BoundOutcome::Divergent { .. } => prop_assert_eq!(capped, None),
            BoundOutcome::Converged(bound) => {
                let mut charges: Vec<f64> = trace.iter().map(|w| w.delay).collect();
                charges.sort_by(|a, b| b.total_cmp(a));
                let expected: f64 = charges.iter().take(cap).sum();
                let capped = capped.expect("trace converged");
                prop_assert_eq!(capped.total_delay.to_bits(), expected.to_bits());
                prop_assert_eq!(
                    capped.charged_windows,
                    charges.iter().take(cap).filter(|&&d| d > 0.0).count()
                );
                prop_assert_eq!(capped.cap, cap);
                prop_assert_eq!(&capped.uncapped, &bound);
                // The cap is a refinement: never above the plain total.
                prop_assert!(capped.total_delay <= bound.total_delay + 1e-9);
            }
        }
    }
}
