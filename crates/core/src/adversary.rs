//! Exact worst-case adversary for the paper's run model.
//!
//! Section III/V's run-time semantics induce the following model of a single
//! job's execution under floating non-preemptive regions, when the adversary
//! fully controls higher-priority releases:
//!
//! * a preemption at progress `p` costs `fi(p)` extra execution time;
//! * measuring time on the job's own execution clock `x` (CPU time it
//!   consumes, progress plus delay servicing), two consecutive preemptions
//!   are at least `Q` apart: `x_{k+1} ≥ x_k + Q`;
//! * progress at the `k`-th preemption is `p_k = x_k − Σ_{j<k} fi(p_j)`, so
//!   the progress-axis constraint is `p_{k+1} ≥ p_k + Q − fi(p_k)`;
//! * the first preemption needs `p_1 ≥ Q` and every `p_k < C`.
//!
//! The **exact worst case** is the supremum of `Σ fi(p_k)` over all feasible
//! sequences. It is the quantity Theorem 1 upper-bounds, so for every curve:
//!
//! ```text
//! naive_bound  ≤  exact_worst_case  ≤  algorithm1
//! ```
//!
//! with the left inequality strict in general (the paper's Figure 2: paying
//! delay consumes window time, admitting more preemptions than any Q-spaced
//! point set), and the right inequality measuring the pessimism of
//! Algorithm 1 (its "analysis artifacts" discussed with Figure 5).
//!
//! For piecewise-constant curves the supremum is attained on a finite
//! candidate set: shifting a preemption point left within a segment keeps its
//! delay and only relaxes its successor's constraint, so an optimal sequence
//! can be normalised so every point is a segment start, the earliest legal
//! point `Q`, or *exactly* tight against its predecessor
//! (`p + Q − fi(p)`). So every candidate lies on the tight-successor chain
//! of one anchor (`Q`, or a segment start past it). A chain is strictly
//! increasing (`fi < Q`) and stops at the domain end. Walking it carries the
//! segment index along, so `fi` is read without a search.
//!
//! The dynamic program needs the candidates in increasing order. Each chain
//! already is, so a heap over the chain heads merges them in `O(n log k)`
//! for `n` candidates on `k` chains, and a point where two chains meet
//! becomes one candidate. (Should a rounded step fail to climb, the heap
//! takes the rest of that chain as a chain of its own.) The first candidate
//! that may follow `c` is the first one at or past `c + Q − fi(c)`, which
//! is exactly the next point of `c`'s own chain. So the program reads each
//! successor's index off the chain and does no search either.
//!
//! The candidate budget ([`DEFAULT_MAX_ADVERSARY_CANDIDATES`], or the
//! `limit` of [`exact_worst_case_with_limit`]) counts chain steps before
//! the chains merge: a point where `j` chains meet counts `j` times.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::chains;
use crate::curve::DelayCurve;
use crate::error::AnalysisError;

/// Default cap on the adversary's chain steps, counted before duplicate
/// points merge (see the module docs).
pub const DEFAULT_MAX_ADVERSARY_CANDIDATES: usize = 4_000_000;

/// An exact worst-case preemption scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstCaseRun {
    /// Preemption progress points and the delay paid at each, in order.
    pub preemptions: Vec<(f64, f64)>,
    /// The exact worst-case cumulative preemption delay.
    pub total_delay: f64,
    /// The region length.
    pub q: f64,
}

impl WorstCaseRun {
    /// Number of preemptions in the worst-case scenario.
    #[must_use]
    pub fn preemption_count(&self) -> usize {
        self.preemptions.len()
    }
}

/// Computes the exact worst-case cumulative preemption delay (see module
/// docs) for a job with delay function `curve` and region length `q`.
///
/// Requires `max fi < q`; otherwise the supremum is infinite (a preemption
/// storm can pin the job at one progress point forever) and
/// `Ok(None)` is returned.
///
/// # Errors
///
/// * [`AnalysisError::InvalidQ`] if `q` is not finite and strictly positive;
/// * [`AnalysisError::IterationLimit`] if the tight-successor chains take
///   more than [`DEFAULT_MAX_ADVERSARY_CANDIDATES`] steps.
///
/// # Examples
///
/// ```
/// use fnpr_core::{exact_worst_case, naive_bound, DelayCurve};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The Figure-2 phenomenon: on a constant curve the adversary fits three
/// // preemptions where the naive point selection only counts two.
/// let f = DelayCurve::constant(2.0, 10.0)?;
/// let exact = exact_worst_case(&f, 4.0)?.expect("finite");
/// assert_eq!(exact.total_delay, 6.0);
/// assert_eq!(exact.preemption_count(), 3);
/// assert_eq!(naive_bound(&f, 4.0)?.total_delay, 4.0);
/// # Ok(())
/// # }
/// ```
pub fn exact_worst_case(curve: &DelayCurve, q: f64) -> Result<Option<WorstCaseRun>, AnalysisError> {
    exact_worst_case_with_limit(curve, q, DEFAULT_MAX_ADVERSARY_CANDIDATES)
}

/// [`exact_worst_case`] with an explicit budget of chain steps.
///
/// # Errors
///
/// As [`exact_worst_case`], with the supplied `limit`.
pub fn exact_worst_case_with_limit(
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
    let end = curve.domain_end();
    let empty = WorstCaseRun {
        preemptions: Vec::new(),
        total_delay: 0.0,
        q,
    };
    if q >= end {
        return Ok(Some(empty));
    }
    // The chain points by slot, in walk order, with `fi` read at the
    // segment index each chain carries along. `heads` holds one entry per
    // increasing run `[first, last]` of slots, keyed by its next point: a
    // run ends where its chain does or where a step fails to climb. Every
    // point is positive, so its bit pattern orders like its value.
    let (starts, seg_values) = curve.raw();
    let mut slots: Vec<(f64, f64)> = Vec::new();
    let mut heads = BinaryHeap::new();
    for (mut p, mut k) in chains::anchors(curve, q) {
        let mut first = slots.len();
        loop {
            let value = seg_values[k];
            slots.push((p, value));
            if slots.len() > limit {
                return Err(AnalysisError::IterationLimit { limit });
            }
            let next = p + q - value;
            if !(p < next && next < end) {
                let last = slots.len() - 1;
                heads.push(Reverse((slots[first].0.to_bits(), first, last)));
                first = last + 1;
            }
            if next >= end {
                break;
            }
            k = chains::seek(starts, k, next);
            p = next;
        }
    }

    // Merge the runs into increasing candidates: `order[i]` is a slot
    // holding candidate `i`, `rank[s]` the candidate at slot `s`. Equal
    // points (where chains meet) are one candidate.
    let mut order: Vec<usize> = Vec::with_capacity(slots.len());
    let mut rank = vec![0; slots.len()];
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((bits, s, last)) = *head;
        if order.last().is_none_or(|&o| slots[o].0.to_bits() != bits) {
            order.push(s);
        }
        rank[s] = order.len() - 1;
        if s < last {
            *head = Reverse((slots[s + 1].0.to_bits(), s + 1, last));
        } else {
            PeekMut::pop(head);
        }
    }

    // DP right-to-left: best[i] = f(c_i) + max(0, max best[j] over
    // c_j >= c_i + q - f(c_i)). suffix_best[i] = (max best[i..], argmax).
    // The threshold is the next point of c_i's chain, at the next slot, or
    // past the end when the chain stops there. (After a step that rounded
    // backwards, that point lies left of c_i; its entry is not filled yet
    // and reads (0, 0), so c_i gets no successor.)
    let n = order.len();
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut suffix_best: Vec<(f64, usize)> = vec![(0.0, 0); n];
    for i in (0..n).rev() {
        let s = order[i];
        let (point, value) = slots[s];
        let mut best = value;
        if point + q - value < end {
            let (succ_best, succ_idx) = suffix_best[rank[s + 1]];
            if succ_best > 0.0 {
                best = value + succ_best;
                next[i] = Some(succ_idx);
            }
        }
        suffix_best[i] = if i + 1 < n && suffix_best[i + 1].0 > best {
            suffix_best[i + 1]
        } else {
            (best, i)
        };
    }
    let Some(&(total, mut at)) = suffix_best.first() else {
        return Ok(Some(empty));
    };
    let mut preemptions = Vec::new();
    loop {
        preemptions.push(slots[order[at]]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::algorithm1;
    use crate::naive::naive_bound;

    #[test]
    fn constant_curve_matches_algorithm1_exactly() {
        // On a constant curve Algorithm 1 has no pessimism: windows charge
        // the constant everywhere, matching the tightest adversary.
        let f = DelayCurve::constant(2.0, 10.0).unwrap();
        let exact = exact_worst_case(&f, 4.0).unwrap().unwrap();
        assert_eq!(exact.total_delay, 6.0);
        assert_eq!(exact.preemptions, vec![(4.0, 2.0), (6.0, 2.0), (8.0, 2.0)]);
        let alg1 = algorithm1(&f, 4.0).unwrap().expect_converged();
        assert_eq!(alg1.total_delay, exact.total_delay);
    }

    #[test]
    fn infinite_when_delay_reaches_q() {
        let f = DelayCurve::constant(5.0, 100.0).unwrap();
        assert_eq!(exact_worst_case(&f, 5.0).unwrap(), None);
        assert_eq!(exact_worst_case(&f, 3.0).unwrap(), None);
        assert!(exact_worst_case(&f, 6.0).unwrap().is_some());
    }

    #[test]
    fn empty_run_when_q_covers_task() {
        let f = DelayCurve::constant(2.0, 10.0).unwrap();
        let exact = exact_worst_case(&f, 10.0).unwrap().unwrap();
        assert_eq!(exact.total_delay, 0.0);
        assert!(exact.preemptions.is_empty());
    }

    #[test]
    fn feasibility_of_returned_run() {
        let f = DelayCurve::from_breakpoints(
            [(0.0, 3.0), (40.0, 8.0), (60.0, 1.0), (90.0, 5.0)],
            130.0,
        )
        .unwrap();
        let q = 12.0;
        let exact = exact_worst_case(&f, q).unwrap().unwrap();
        // Replay the run and check every model constraint.
        let mut prev: Option<(f64, f64)> = None;
        for &(p, d) in &exact.preemptions {
            assert_eq!(d, f.value_at(p));
            assert!(p >= q - 1e-12);
            assert!(p < f.domain_end());
            if let Some((pp, pd)) = prev {
                assert!(
                    p >= pp + q - pd - 1e-12,
                    "spacing violated: {p} < {pp} + {q} - {pd}"
                );
            }
            prev = Some((p, d));
        }
        let sum: f64 = exact.preemptions.iter().map(|&(_, d)| d).sum();
        assert!((sum - exact.total_delay).abs() < 1e-9);
    }

    #[test]
    fn sandwiched_between_naive_and_algorithm1() {
        let shapes = [
            DelayCurve::from_breakpoints([(0.0, 6.0), (50.0, 1.0), (150.0, 3.0)], 200.0).unwrap(),
            DelayCurve::from_breakpoints([(0.0, 0.0), (90.0, 9.0), (110.0, 0.0)], 200.0).unwrap(),
            DelayCurve::from_breakpoints(
                [(0.0, 2.0), (25.0, 7.0), (60.0, 0.0), (120.0, 4.5)],
                200.0,
            )
            .unwrap(),
        ];
        for f in &shapes {
            for q in [11.0, 23.0, 47.0, 95.0] {
                let naive = naive_bound(f, q).unwrap().total_delay;
                let exact = exact_worst_case(f, q).unwrap().unwrap().total_delay;
                let alg1 = algorithm1(f, q).unwrap().expect_converged().total_delay;
                assert!(
                    naive <= exact + 1e-9,
                    "naive {naive} > exact {exact} (q={q})"
                );
                assert!(
                    exact <= alg1 + 1e-9,
                    "exact {exact} > alg1 {alg1} (q={q}) — Theorem 1 violated!"
                );
            }
        }
    }

    #[test]
    fn figure2_gap_exists_for_some_curve() {
        // There must exist configurations where the adversary strictly beats
        // the naive selection — otherwise Figure 2's warning is vacuous.
        let f = DelayCurve::constant(3.0, 40.0).unwrap();
        let naive = naive_bound(&f, 8.0).unwrap().total_delay;
        let exact = exact_worst_case(&f, 8.0).unwrap().unwrap().total_delay;
        assert!(
            exact > naive,
            "expected strict gap, naive={naive}, exact={exact}"
        );
    }

    #[test]
    fn rejects_invalid_q() {
        let f = DelayCurve::constant(1.0, 10.0).unwrap();
        assert!(exact_worst_case(&f, 0.0).is_err());
        assert!(exact_worst_case(&f, f64::NEG_INFINITY).is_err());
    }
}
