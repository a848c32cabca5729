//! Synthetic preemption-delay functions, including the paper's Figure 4
//! benchmark set.
//!
//! Section VI evaluates Algorithm 1 on three synthetic `fi` functions with
//! `C = 4000` and maximum value 10: two bell-shaped ("Gaussian 1" with
//! σ² = 300, µ = 2000 and a vertical offset of 10; "Gaussian 2" with ten
//! times the variance, no offset) and one with two local maxima separated in
//! time. The printed parameters are partly self-contradictory (an offset of
//! 10 with a maximum of 10 leaves no amplitude; σ² = 300 on a 0..4000 axis
//! is a needle, unlike the printed figure), so this module keeps every
//! mutually consistent literal — `C = 4000`, `µ = 2000`, max value 10, a
//! 10× variance ratio between the Gaussians, amplitude-normalised peaks —
//! and documents the calibration: variances scaled to span the plotted
//! domain (σ₁² = 9·10⁴, σ₂² = 9·10⁵). The "flat" reading of the offset
//! clause is provided separately as [`flat_adversarial`], the worst case
//! for the proposed analysis (it degenerates to the Eq. 4 baseline). See
//! `DESIGN.md` for the full discussion; none of this affects the Figure 5
//! shape claims.

use fnpr_core::{CurveError, DelayCurve};
use rand::Rng;

/// Domain end (`C`) of the Figure 4 functions.
pub const FIGURE4_WCET: f64 = 4000.0;

/// Maximum value of every Figure 4 function.
pub const FIGURE4_MAX: f64 = 10.0;

/// Sampling step used to turn the smooth functions into conservative step
/// curves (fine enough that the staircase is invisible at plot scale).
pub const FIGURE4_STEP: f64 = 4.0;

/// A Gaussian bell `amplitude · exp(−(t − mu)² / (2·sigma²)) + offset`,
/// sampled into a conservative step curve over `[0, c)` by
/// [`DelayCurve::from_gaussian_upper`].
///
/// The curve is the one [`DelayCurve::from_fn_upper`] samples from the
/// bell, bit for bit, but a cell takes `exp` only at the samples whose
/// exponent is within `1e-12` of the cell's largest: the others cannot win
/// the cell's maximum, because `exp` is accurate to about one ulp. A
/// 64-cell curve takes about 64 `exp` calls instead of 129.
///
/// # Errors
///
/// Propagates [`CurveError`] for malformed `c`/`step` or non-finite
/// parameters.
pub fn gaussian_curve(
    mu: f64,
    sigma_sq: f64,
    amplitude: f64,
    offset: f64,
    c: f64,
    step: f64,
) -> Result<DelayCurve, CurveError> {
    DelayCurve::from_gaussian_upper(mu, sigma_sq, amplitude, offset, c, step)
}

/// "Gaussian 1" of Figure 4: the narrower bell (σ₁² = 9·10⁴, µ = 2000,
/// peak 10).
///
/// # Panics
///
/// Never — parameters are static.
#[must_use]
pub fn figure4_gaussian1() -> DelayCurve {
    gaussian_curve(2000.0, 9.0e4, FIGURE4_MAX, 0.0, FIGURE4_WCET, FIGURE4_STEP)
        .expect("static parameters")
}

/// "Gaussian 2" of Figure 4: ten times the variance of Gaussian 1
/// (σ₂² = 9·10⁵, µ = 2000, peak 10, no offset) — the flatter, wider bell.
///
/// # Panics
///
/// Never — parameters are static.
#[must_use]
pub fn figure4_gaussian2() -> DelayCurve {
    gaussian_curve(2000.0, 9.0e5, FIGURE4_MAX, 0.0, FIGURE4_WCET, FIGURE4_STEP)
        .expect("static parameters")
}

/// The "2 local maximum" function of Figure 4: two bells separated in time
/// (peaks 10 and 8 at t = 1200 and t = 2800), combined pointwise.
///
/// # Panics
///
/// Never — parameters are static.
#[must_use]
pub fn figure4_two_local_maxima() -> DelayCurve {
    let first = gaussian_curve(
        1200.0,
        6.25e4, // σ = 250
        FIGURE4_MAX,
        0.0,
        FIGURE4_WCET,
        FIGURE4_STEP,
    )
    .expect("static parameters");
    let second = gaussian_curve(2800.0, 6.25e4, 8.0, 0.0, FIGURE4_WCET, FIGURE4_STEP)
        .expect("static parameters");
    first.pointwise_max(&second).expect("identical domains")
}

/// The flat max-valued curve — the literal "offset 10, max 10" reading of
/// Gaussian 1 and the adversarial case where the progression-aware analysis
/// has no shape to exploit (Algorithm 1 ≈ Eq. 4).
///
/// # Panics
///
/// Never — parameters are static.
#[must_use]
pub fn flat_adversarial() -> DelayCurve {
    DelayCurve::constant(FIGURE4_MAX, FIGURE4_WCET).expect("static parameters")
}

/// The three Figure 4 benchmark functions with their paper names.
#[must_use]
pub fn figure4_all() -> Vec<(&'static str, DelayCurve)> {
    vec![
        ("Gaussian 1", figure4_gaussian1()),
        ("Gaussian 2", figure4_gaussian2()),
        ("2 local maximum", figure4_two_local_maxima()),
    ]
}

/// A random piecewise-constant curve: `segments` pieces over `[0, c)` with
/// values uniform in `[0, max_value]`.
///
/// # Errors
///
/// Propagates [`CurveError`] for malformed `c` or non-positive `segments`.
pub fn random_step_curve<R: Rng>(
    rng: &mut R,
    c: f64,
    segments: usize,
    max_value: f64,
) -> Result<DelayCurve, CurveError> {
    let segments = segments.max(1);
    let mut points = Vec::with_capacity(segments);
    for k in 0..segments {
        let start = c * (k as f64) / (segments as f64);
        points.push((start, rng.gen_range(0.0..=max_value)));
    }
    DelayCurve::from_breakpoints(points, c)
}

/// A random unimodal ("working-set build-up and decay") curve — the shape
/// the paper's Section III narrative describes: low delay early, a peak
/// while the working set is live, decay afterwards.
///
/// # Errors
///
/// Propagates [`CurveError`] for malformed parameters.
pub fn random_unimodal_curve<R: Rng>(
    rng: &mut R,
    c: f64,
    max_value: f64,
    step: f64,
) -> Result<DelayCurve, CurveError> {
    let mu = rng.gen_range(0.2 * c..0.8 * c);
    let sigma = rng.gen_range(0.05 * c..0.3 * c);
    let amplitude = rng.gen_range(0.3 * max_value..max_value);
    gaussian_curve(mu, sigma * sigma, amplitude, 0.0, c, step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn figure4_invariants() {
        for (name, curve) in figure4_all() {
            assert_eq!(curve.domain_end(), FIGURE4_WCET, "{name}");
            assert!(
                curve.max_value() <= FIGURE4_MAX + 1e-6,
                "{name} exceeds max"
            );
            assert!(
                curve.max_value() >= FIGURE4_MAX * 0.99,
                "{name} peak too low: {}",
                curve.max_value()
            );
            // Peaks near the documented centres (the bimodal one peaks off
            // centre by construction).
            let probe = if name == "2 local maximum" {
                1200.0
            } else {
                2000.0
            };
            assert!(curve.value_at(probe) > 9.0, "{name} hollow at its peak");
        }
    }

    #[test]
    fn gaussian2_is_wider_than_gaussian1() {
        let g1 = figure4_gaussian1();
        let g2 = figure4_gaussian2();
        // At 1000 away from the mean the wide bell retains far more mass.
        assert!(g2.value_at(1000.0) > g1.value_at(1000.0) * 2.0);
        // Total mass comparison.
        assert!(g2.integral() > 2.0 * g1.integral());
    }

    #[test]
    fn two_local_maxima_really_has_two() {
        let f = figure4_two_local_maxima();
        let peak1 = f.value_at(1200.0);
        let valley = f.value_at(2000.0);
        let peak2 = f.value_at(2800.0);
        assert!(peak1 > valley + 3.0);
        assert!(peak2 > valley + 3.0);
        assert!((peak1 - FIGURE4_MAX).abs() < 0.1);
        assert!((peak2 - 8.0).abs() < 0.1);
    }

    #[test]
    fn flat_adversarial_is_constant_max() {
        let f = flat_adversarial();
        assert_eq!(f.max_value(), FIGURE4_MAX);
        assert_eq!(f.value_at(0.0), f.value_at(3999.0));
        assert_eq!(f.segment_count(), 1);
    }

    #[test]
    fn random_curves_are_valid_and_seeded() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_step_curve(&mut rng, 100.0, 10, 5.0).unwrap();
        assert!(a.max_value() <= 5.0);
        assert_eq!(a.domain_end(), 100.0);
        let mut rng2 = StdRng::seed_from_u64(7);
        let b = random_step_curve(&mut rng2, 100.0, 10, 5.0).unwrap();
        assert_eq!(a, b); // determinism
        let u = random_unimodal_curve(&mut rng, 200.0, 8.0, 1.0).unwrap();
        assert!(u.max_value() <= 8.0 + 1e-9);
    }
}
