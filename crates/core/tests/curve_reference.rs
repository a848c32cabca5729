//! [`DelayCurve::from_fn_upper`] against the sampler it replaced.
//!
//! The sampler evaluates `f` once at each cell boundary and shares the value
//! between the two cells that meet there. The reference below is the earlier
//! formulation: three calls per cell, `f(lo)`, `f(mid)` and `f(hi)`. Both
//! must build the same curve bit for bit (every segment and the structural
//! hash) or fail with the same error, including the `BadValue` index of a
//! cell whose samples are all NaN.
//!
//! The steps cover `end / 64` (the synthetic task sets' grid), steps that do
//! not divide `end`, steps larger than `end`, and steps one rounding away
//! from a divisor, where the last cell's `hi` is clamped to `end` and can
//! differ from where the next cell would start.

use fnpr_core::{CurveError, DelayCurve};
use proptest::prelude::*;

/// The three-samples-per-cell sampler.
fn reference<F: Fn(f64) -> f64>(f: F, end: f64, step: f64) -> Result<DelayCurve, CurveError> {
    if !(end.is_finite() && end > 0.0) {
        return Err(CurveError::BadDomain { end });
    }
    if !(step.is_finite() && step > 0.0) {
        return Err(CurveError::BadStep { step });
    }
    let cells = (end / step).ceil() as usize;
    let mut points = Vec::with_capacity(cells.max(1));
    for k in 0..cells.max(1) {
        let lo = (k as f64) * step;
        let hi = ((k + 1) as f64 * step).min(end);
        let mid = 0.5 * (lo + hi);
        let sample = f(lo).max(f(mid)).max(f(hi));
        if !sample.is_finite() {
            return Err(CurveError::BadValue {
                index: k,
                value: sample,
            });
        }
        points.push((lo, sample.max(0.0)));
    }
    DelayCurve::from_breakpoints(points, end)
}

/// Every segment as bits, the domain end as bits, and the 128-bit hash.
type Fingerprint = (Vec<(u64, u64, u64)>, u64, u128);

fn fingerprint(curve: &DelayCurve) -> Fingerprint {
    let segments = curve
        .segments()
        .map(|s| (s.start.to_bits(), s.end.to_bits(), s.value.to_bits()))
        .collect();
    (
        segments,
        curve.domain_end().to_bits(),
        curve.structural_hash128(),
    )
}

/// Asserts that both samplers give the same curve bit for bit, or the same
/// error (compared through `Debug`, since a NaN sample is not `==` itself).
fn assert_same<F: Fn(f64) -> f64>(f: F, end: f64, step: f64) -> Result<DelayCurve, CurveError> {
    let fast = DelayCurve::from_fn_upper(&f, end, step);
    let slow = reference(&f, end, step);
    match (&fast, &slow) {
        (Ok(a), Ok(b)) => {
            assert_eq!(fingerprint(a), fingerprint(b), "end {end} step {step}");
            assert_eq!(a, b);
        }
        (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "end {end} step {step}"),
        _ => panic!("end {end} step {step}: {fast:?} against {slow:?}"),
    }
    fast
}

/// An `end` and a step for it: `end / 64`, a non-divisor, one larger than
/// `end`, an exact divisor, or a divisor nudged by a few ulps.
fn arb_end_and_step() -> impl Strategy<Value = (f64, f64)> {
    (
        prop_oneof![1e-3f64..1.0, 1.0f64..100.0, 100.0f64..5000.0],
        0u8..5,
        1u64..120,
        0.0f64..1.0,
        -8i64..8,
    )
        .prop_map(|(end, kind, n, x, ulps)| {
            let step = match kind {
                0 => end / 64.0,
                1 => end / (n as f64 + 0.05 + 0.9 * x),
                2 => end * (1.0 + 3.0 * x),
                3 => end / n as f64,
                _ => f64::from_bits(((end / n as f64).to_bits() as i64 + ulps) as u64),
            };
            (end, step)
        })
}

/// `amplitude · exp(−(t − mu)² / (2·sigma²)) + offset` with `mu`, `sigma`
/// relative to `end`; a negative offset drives samples below zero.
fn bell(end: f64, mu: f64, sigma: f64, amplitude: f64, offset: f64) -> impl Fn(f64) -> f64 {
    let (mu, sigma) = (mu * end, sigma * end);
    move |t: f64| amplitude * (-(t - mu) * (t - mu) / (2.0 * sigma * sigma)).exp() + offset
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Smooth bells, including ones pushed partly below zero.
    #[test]
    fn bells_sample_to_identical_curves(
        (end, step) in arb_end_and_step(),
        mu in -0.2f64..1.2,
        sigma in 0.01f64..0.5,
        amplitude in 0.0f64..20.0,
        offset in prop_oneof![Just(0.0), -5.0f64..5.0],
    ) {
        let _ = assert_same(bell(end, mu, sigma, amplitude, offset), end, step);
    }

    /// A closure that returns NaN on one whole cell: every sample of that
    /// cell is NaN, so both samplers fail at its index. The neighbouring
    /// cells see NaN only at their shared boundary, which `max` skips.
    #[test]
    fn nan_cell_gives_the_same_bad_value_index(
        (end, step) in arb_end_and_step(),
        pick in 0.0f64..1.0,
    ) {
        let cells = ((end / step).ceil() as usize).max(1);
        let cell = ((pick * cells as f64) as usize).min(cells - 1);
        let lo = cell as f64 * step;
        let hi = ((cell + 1) as f64 * step).min(end);
        let inner = bell(end, 0.5, 0.2, 8.0, 0.0);
        let f = move |t: f64| if (lo..=hi).contains(&t) { f64::NAN } else { inner(t) };
        let out = assert_same(f, end, step);
        prop_assert!(
            matches!(out, Err(CurveError::BadValue { index, .. }) if index == cell),
            "{out:?} at cell {cell} of {cells}"
        );
    }

    /// An infinite sample at a shared boundary fails the cell that ends
    /// there, in both samplers.
    #[test]
    fn infinite_boundary_sample_fails_the_same_cell(
        (end, step) in arb_end_and_step(),
        pick in 0.0f64..1.0,
    ) {
        let cells = ((end / step).ceil() as usize).max(1);
        let cell = ((pick * cells as f64) as usize).min(cells - 1);
        let boundary = ((cell + 1) as f64 * step).min(end);
        let inner = bell(end, 0.3, 0.1, 3.0, 0.5);
        let f = move |t: f64| if t == boundary { f64::INFINITY } else { inner(t) };
        let out = assert_same(f, end, step);
        prop_assert!(
            matches!(out, Err(CurveError::BadValue { index, .. }) if index == cell),
            "{out:?} at cell {cell} of {cells}"
        );
    }
}

/// Steps one rounding below a divisor: `⌈end / step⌉` counts a last cell
/// whose start `(cells − 1)·step` lands at or past `end`, while the cell
/// before it already ends at `end`. Both samplers reach the same breakpoint
/// error.
#[test]
fn last_cell_past_the_end_fails_alike() {
    let cases: [(f64, f64); 4] = [
        (0.001045653501547542, 3.872790746472377e-05),
        (0.0010525230466518574, 1.3156538083148216e-05),
        (0.5582139175486949, 0.023258913231195617),
        (1.293850107137615, 0.014218133045468295),
    ];
    for (end, step) in cases {
        let cells = (end / step).ceil() as usize;
        assert!((cells - 1) as f64 * step >= end, "{end} / {step}");
        let out = assert_same(bell(end, 0.5, 0.2, 4.0, 0.0), end, step);
        assert!(
            matches!(out, Err(CurveError::BreakpointBeyondEnd { .. })),
            "{out:?}"
        );
    }
}

/// Malformed domains and steps fail before any sample, alike.
#[test]
fn malformed_inputs_fail_alike() {
    let f = bell(10.0, 0.5, 0.2, 4.0, 0.0);
    for (end, step) in [
        (0.0, 1.0),
        (-1.0, 1.0),
        (f64::NAN, 1.0),
        (f64::INFINITY, 1.0),
        (10.0, 0.0),
        (10.0, -2.0),
        (10.0, f64::NAN),
        (10.0, f64::INFINITY),
    ] {
        assert!(assert_same(&f, end, step).is_err());
    }
}
