//! The naive point-selection "bound" — **deliberately unsound**, kept for the
//! paper's Figure 2 demonstration.
//!
//! Section V opens by refuting the tempting approach of picking, from `fi`,
//! the maximum-weight set of preemption points pairwise at least `Qi` apart.
//! This under-counts: at run time, *servicing a preemption delay consumes
//! window time without consuming progress*, so a real schedule can squeeze in
//! more preemptions than any `Qi`-spaced point set on the progress axis
//! admits. The simulator's adversary (`fnpr-sim`) constructs exactly such
//! runs, and the property tests assert that this bound is violated while
//! [`algorithm1`] is not.
//!
//! The maximisation itself is solved *exactly* for piecewise-constant curves:
//! an optimal point set can be normalised (shifting points left never changes
//! their value within a segment and only relaxes successor constraints) so
//! that every point is either a segment start, the earliest legal point `Qi`,
//! or exactly `Qi` after its predecessor. So every candidate lies on the
//! `+Qi` chain of one anchor (`Qi`, or a segment start past it). One sort
//! of their concatenation merges the chains; a point where two chains meet
//! becomes one candidate. A dynamic program then walks the sorted
//! candidates with one forward pointer for the spacing constraint and one
//! segment index, so `fi` is read without a search.
//!
//! The candidate budget ([`DEFAULT_MAX_CANDIDATES`], or the `limit` of
//! [`naive_bound_with_limit`]) counts chain steps before the chains merge: a
//! point where `j` chains meet counts `j` times.
//!
//! [`algorithm1`]: crate::algorithm1

use crate::chains;
use crate::curve::DelayCurve;
use crate::error::AnalysisError;

/// Default cap on the DP's chain steps, counted before duplicate points
/// merge (see the module docs).
pub const DEFAULT_MAX_CANDIDATES: usize = 4_000_000;

/// Result of the naive maximum-weight point selection.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBound {
    /// The selected preemption points and their delays, in increasing
    /// progress order; pairwise at least `q` apart, all in `[q, C)`.
    pub points: Vec<(f64, f64)>,
    /// Sum of the selected delays — the naive (unsound) total.
    pub total_delay: f64,
    /// The region length used for the spacing constraint.
    pub q: f64,
}

/// Computes the naive maximum-weight `q`-spaced point selection over `fi`.
///
/// The first point must lie at or after `q` (a job cannot be preempted before
/// progressing `q` units) and all points lie strictly inside the domain.
///
/// # Errors
///
/// * [`AnalysisError::InvalidQ`] if `q` is not finite and strictly positive;
/// * [`AnalysisError::IterationLimit`] if the `+q` chains take more than
///   [`DEFAULT_MAX_CANDIDATES`] steps (extremely fragmented curves with tiny
///   `q`).
///
/// # Examples
///
/// ```
/// use fnpr_core::{naive_bound, DelayCurve};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = DelayCurve::constant(2.0, 10.0)?;
/// // Points at 4 and 8 (two fit): naive total 4 — but Algorithm 1 charges 6,
/// // because a real run replays delay time (see crate-level docs).
/// let naive = naive_bound(&f, 4.0)?;
/// assert_eq!(naive.total_delay, 4.0);
/// assert_eq!(naive.points.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn naive_bound(curve: &DelayCurve, q: f64) -> Result<NaiveBound, AnalysisError> {
    naive_bound_with_limit(curve, q, DEFAULT_MAX_CANDIDATES)
}

/// [`naive_bound`] with an explicit budget of chain steps.
///
/// # Errors
///
/// As [`naive_bound`], with the supplied `limit`.
pub fn naive_bound_with_limit(
    curve: &DelayCurve,
    q: f64,
    limit: usize,
) -> Result<NaiveBound, AnalysisError> {
    if !(q.is_finite() && q > 0.0) {
        return Err(AnalysisError::InvalidQ { q });
    }
    let end = curve.domain_end();
    if q >= end {
        return Ok(NaiveBound {
            points: Vec::new(),
            total_delay: 0.0,
            q,
        });
    }
    // The `+q` chains, concatenated, then sorted.
    let mut candidates: Vec<f64> = Vec::new();
    for (anchor, _) in chains::anchors(curve, q) {
        let mut p = anchor;
        while p < end {
            candidates.push(p);
            if candidates.len() > limit {
                return Err(AnalysisError::IterationLimit { limit });
            }
            p += q;
        }
    }
    // Every candidate is a positive finite sum, whose bit patterns order as
    // the values do; equal values have equal bits, so the unstable sort and
    // `dedup` leave exactly what a stable `total_cmp` sort would, without
    // the stable sort's scratch buffer.
    candidates.sort_unstable_by_key(|p| p.to_bits());
    candidates.dedup();

    // DP over candidates: best[i] = value(c_i) + max over best[j], c_j <= c_i - q.
    // `k` is the segment holding c_i, stepped forward with it.
    let (starts, seg_values) = curve.raw();
    let n = candidates.len();
    let mut values = vec![0.0f64; n];
    let mut back: Vec<Option<usize>> = vec![None; n];
    // prefix_best[i] = (max of best[0..=i], index of the max)
    let mut prefix_best: Vec<(f64, usize)> = vec![(0.0, 0); n];
    let mut j = 0usize; // first index NOT yet eligible (c_j > c_i - q)
    let mut k = 0usize;
    for i in 0..n {
        while j < n && candidates[j] <= candidates[i] - q {
            j += 1;
        }
        while k + 1 < starts.len() && starts[k + 1] <= candidates[i] {
            k += 1;
        }
        let value = seg_values[k];
        values[i] = value;
        let mut best = value;
        if j > 0 {
            let (prev_best, prev_idx) = prefix_best[j - 1];
            best = value + prev_best;
            back[i] = Some(prev_idx);
        }
        prefix_best[i] = if i > 0 && prefix_best[i - 1].0 >= best {
            prefix_best[i - 1]
        } else {
            (best, i)
        };
    }
    // Traceback from the global optimum.
    let (total, mut at) = prefix_best[n - 1];
    let mut chain = Vec::new();
    loop {
        chain.push((candidates[at], values[at]));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::algorithm1;

    #[test]
    fn constant_curve_point_count() {
        // C=10, q=4: points at 4 and 8 (progress axis): 2 x 2 = 4.
        let f = DelayCurve::constant(2.0, 10.0).unwrap();
        let naive = naive_bound(&f, 4.0).unwrap();
        assert_eq!(naive.total_delay, 4.0);
        assert_eq!(naive.points, vec![(4.0, 2.0), (8.0, 2.0)]);
    }

    #[test]
    fn no_points_when_q_exceeds_domain() {
        let f = DelayCurve::constant(2.0, 10.0).unwrap();
        let naive = naive_bound(&f, 10.0).unwrap();
        assert!(naive.points.is_empty());
        assert_eq!(naive.total_delay, 0.0);
    }

    #[test]
    fn picks_the_two_peaks() {
        // Two tall spikes far apart beat many small values.
        let f = DelayCurve::from_breakpoints(
            [
                (0.0, 1.0),
                (30.0, 9.0),
                (35.0, 1.0),
                (80.0, 7.0),
                (85.0, 1.0),
            ],
            100.0,
        )
        .unwrap();
        let naive = naive_bound(&f, 20.0).unwrap();
        // Optimal: 30 (9), 80 (7) and one more 1-valued point in between
        // (e.g. 50 and ... 50->80 gap 30 >= 20 ok) plus one after 85?
        // Points: 20(1), 40? Let's just check the two peaks are chosen and
        // the total is at least 16.
        assert!(naive.total_delay >= 16.0);
        assert!(naive.points.iter().any(|&(p, v)| p == 30.0 && v == 9.0));
        assert!(naive.points.iter().any(|&(p, v)| p == 80.0 && v == 7.0));
        // Spacing constraint respected.
        for pair in naive.points.windows(2) {
            assert!(pair[1].0 - pair[0].0 >= 20.0 - 1e-12);
        }
    }

    #[test]
    fn spacing_constraint_forces_choice() {
        // Peaks 9 and 8 only 5 apart with q=20: must pick exactly one of
        // them; 9 wins.
        let f =
            DelayCurve::from_breakpoints([(0.0, 0.0), (40.0, 9.0), (42.0, 8.0), (45.0, 0.0)], 60.0)
                .unwrap();
        let naive = naive_bound(&f, 20.0).unwrap();
        assert_eq!(naive.total_delay, 9.0);
    }

    #[test]
    fn naive_never_exceeds_algorithm1() {
        // The naive selection under-counts, so it must be <= Algorithm 1
        // (which Theorem 1 proves is an upper bound on the same quantity).
        let shapes = [
            DelayCurve::constant(2.0, 200.0).unwrap(),
            DelayCurve::from_breakpoints([(0.0, 6.0), (50.0, 1.0), (150.0, 3.0)], 200.0).unwrap(),
            DelayCurve::from_breakpoints([(0.0, 0.0), (90.0, 9.0), (110.0, 0.0)], 200.0).unwrap(),
        ];
        for f in &shapes {
            for q in [10.0, 30.0, 75.0] {
                let naive = naive_bound(f, q).unwrap().total_delay;
                if let Some(alg1) = algorithm1(f, q).unwrap().total_delay() {
                    assert!(
                        naive <= alg1 + 1e-9,
                        "naive {naive} > algorithm1 {alg1} at q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn naive_strictly_undercounts_on_constant_curve() {
        // The Figure-2 phenomenon in numbers: on f == 2, C=10, q=4 a real run
        // fits 3 preemptions (Algorithm 1 charges 6) but only 2 points fit on
        // the progress axis (naive charges 4).
        let f = DelayCurve::constant(2.0, 10.0).unwrap();
        let naive = naive_bound(&f, 4.0).unwrap().total_delay;
        let alg1 = algorithm1(&f, 4.0).unwrap().expect_converged().total_delay;
        assert!(naive < alg1);
    }

    #[test]
    fn rejects_invalid_q() {
        let f = DelayCurve::constant(1.0, 10.0).unwrap();
        assert!(naive_bound(&f, 0.0).is_err());
        assert!(naive_bound(&f, f64::NAN).is_err());
    }

    #[test]
    fn candidate_budget_is_enforced() {
        let f = DelayCurve::constant(1.0, 1000.0).unwrap();
        assert!(matches!(
            naive_bound_with_limit(&f, 0.001, 100),
            Err(AnalysisError::IterationLimit { limit: 100 })
        ));
    }
}
