//! Arrival-constrained refinement of Algorithm 1 (the paper's future work
//! item (ii)).
//!
//! Section VII: *"it is indeed impossible for a task to get preempted every
//! `Qi` time units as assumed by Algorithm 1 unless the periods of the other
//! tasks enable such a preemption scenario"*. When the higher-priority
//! workload can release at most `N` jobs while the analysed job is alive,
//! the job suffers at most `N` preemptions — yet plain Algorithm 1 charges
//! one delay per `Q`-window regardless.
//!
//! The refinement keeps Theorem 1's window structure and simply re-charges:
//! any run with at most `N` preemptions is covered by *some* `N` of the
//! per-window charges (Theorem 1's induction maps the `k`-th preemption of a
//! run to the `k`-th window, and dropping preemptions only advances
//! progress, so each of the `≤ N` preemptions is still dominated by a
//! distinct window charge). The sum of the **`N` largest window charges**
//! therefore upper-bounds the cumulative delay of every `≤ N`-preemption
//! run — never worse than the plain total, and strictly better whenever the
//! window count exceeds `N`.
//!
//! `fnpr-sched` derives `N` from the task set (releases of higher-priority
//! tasks during the inflated response window); here the cap is a parameter.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::algorithm1::{run_from, BoundOutcome, DelayBound, DEFAULT_MAX_WINDOWS};
use crate::curve::DelayCurve;
use crate::error::AnalysisError;

/// Result of the arrival-capped analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CappedBound {
    /// The plain Algorithm 1 bound (cap ignored).
    pub uncapped: DelayBound,
    /// The applied preemption cap.
    pub cap: usize,
    /// Upper bound on the cumulative delay of any run with at most `cap`
    /// preemptions: the sum of the `cap` largest window charges.
    pub total_delay: f64,
    /// Number of windows that actually carry a positive charge.
    pub charged_windows: usize,
}

impl CappedBound {
    /// The inflated WCET `C′ = C + total_delay` under the cap.
    #[must_use]
    pub fn inflated_wcet(&self) -> f64 {
        self.uncapped.wcet + self.total_delay
    }
}

/// Runs Algorithm 1 and keeps only the `max_preemptions` largest window
/// charges (see the module docs for the soundness argument).
///
/// # Errors
///
/// As [`algorithm1`](crate::algorithm1).
///
/// # Examples
///
/// ```
/// use fnpr_core::{algorithm1, algorithm1_capped, DelayCurve};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = DelayCurve::constant(2.0, 10.0)?;
/// // Plain Algorithm 1 charges three windows (total 6)...
/// let plain = algorithm1(&f, 4.0)?.expect_converged();
/// assert_eq!(plain.total_delay, 6.0);
/// // ...but if the rest of the system can only release one job while this
/// // one runs, a single charge suffices.
/// let capped = algorithm1_capped(&f, 4.0, 1)?.expect("converged");
/// assert_eq!(capped.total_delay, 2.0);
/// # Ok(())
/// # }
/// ```
pub fn algorithm1_capped(
    curve: &DelayCurve,
    q: f64,
    max_preemptions: usize,
) -> Result<Option<CappedBound>, AnalysisError> {
    let mut top = TopCharges::new(max_preemptions);
    let outcome = run_from(curve, q, q, DEFAULT_MAX_WINDOWS, |w| top.offer(w.delay))?;
    let uncapped = match outcome {
        BoundOutcome::Converged(bound) => bound,
        BoundOutcome::Divergent { .. } => return Ok(None),
    };
    let (total_delay, charged_windows) = top.fold_descending();
    Ok(Some(CappedBound {
        uncapped,
        cap: max_preemptions,
        total_delay,
        charged_windows,
    }))
}

/// A window charge ordered by [`f64::total_cmp`] (charges come from
/// validated finite curves, but a total order keeps the heap's invariants
/// unconditional).
struct Charge(f64);

impl PartialEq for Charge {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0).is_eq()
    }
}
impl Eq for Charge {}
impl PartialOrd for Charge {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Charge {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A bounded min-heap of the `cap` largest window charges seen so far —
/// O(windows · log cap) time and O(min(cap, windows)) space, replacing the
/// full `Vec<WindowRecord>` trace the capped path used to materialize just
/// to sort it once. The result is bit-identical to descending-sort-then-
/// take-`cap`: the retained multiset is the same (ties are bitwise-equal
/// floats), and [`Self::fold_descending`] sums it in the same
/// largest-first order.
struct TopCharges {
    cap: usize,
    heap: BinaryHeap<Reverse<Charge>>,
}

impl TopCharges {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            // Windows, not `cap`, bound the heap; near-divergent runs can
            // have huge caps with few actual windows, so let it grow.
            heap: BinaryHeap::with_capacity(cap.min(64)),
        }
    }

    /// Offers one charge, keeping only the `cap` largest.
    fn offer(&mut self, delay: f64) {
        if self.cap == 0 {
            return;
        }
        if self.heap.len() < self.cap {
            self.heap.push(Reverse(Charge(delay)));
        } else if let Some(Reverse(smallest)) = self.heap.peek() {
            if smallest.0.total_cmp(&delay) == Ordering::Less {
                self.heap.pop();
                self.heap.push(Reverse(Charge(delay)));
            }
        }
    }

    /// `(sum of retained charges, count of strictly positive ones)`, summed
    /// largest-first via `Iterator::sum` — the exact float-order *and*
    /// empty-sum identity of the pre-heap `sort-descending.take(cap).sum()`
    /// implementation (std's empty `f64` sum is `-0.0`, and bit-identity
    /// includes that).
    fn fold_descending(self) -> (f64, usize) {
        // `into_sorted_vec` on `Reverse` elements yields descending charges.
        let descending = self.heap.into_sorted_vec();
        let charged = descending
            .iter()
            .filter(|Reverse(Charge(d))| *d > 0.0)
            .count();
        let total = descending.into_iter().map(|Reverse(Charge(d))| d).sum();
        (total, charged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::algorithm1;

    #[test]
    fn cap_zero_means_no_delay() {
        let f = DelayCurve::constant(3.0, 100.0).unwrap();
        let capped = algorithm1_capped(&f, 10.0, 0).unwrap().unwrap();
        assert_eq!(capped.total_delay, 0.0);
        assert_eq!(capped.charged_windows, 0);
        assert_eq!(capped.inflated_wcet(), 100.0);
    }

    #[test]
    fn large_cap_equals_plain_bound() {
        let f = DelayCurve::from_breakpoints([(0.0, 4.0), (30.0, 1.0)], 90.0).unwrap();
        let plain = algorithm1(&f, 9.0).unwrap().expect_converged();
        let capped = algorithm1_capped(&f, 9.0, 10_000).unwrap().unwrap();
        assert!((capped.total_delay - plain.total_delay).abs() < 1e-12);
        assert_eq!(capped.uncapped, plain);
    }

    #[test]
    fn cap_takes_largest_charges() {
        // Charges: first windows pay 4 (early expensive phase), later 1.
        let f = DelayCurve::from_breakpoints([(0.0, 4.0), (20.0, 1.0)], 100.0).unwrap();
        let capped = algorithm1_capped(&f, 10.0, 2).unwrap().unwrap();
        // The two largest are the 4s (windows at progress 10 and 16).
        assert_eq!(capped.total_delay, 8.0);
        assert_eq!(capped.charged_windows, 2);
    }

    #[test]
    fn monotone_in_cap() {
        let f =
            DelayCurve::from_breakpoints([(0.0, 2.0), (25.0, 5.0), (50.0, 0.5)], 150.0).unwrap();
        let mut last = 0.0;
        for cap in 0..12 {
            let capped = algorithm1_capped(&f, 8.0, cap).unwrap().unwrap();
            assert!(capped.total_delay >= last - 1e-12);
            last = capped.total_delay;
        }
        let plain = algorithm1(&f, 8.0).unwrap().expect_converged();
        assert!(last <= plain.total_delay + 1e-12);
    }

    #[test]
    fn divergent_reports_none() {
        let f = DelayCurve::constant(5.0, 100.0).unwrap();
        assert_eq!(algorithm1_capped(&f, 4.0, 3).unwrap(), None);
    }

    #[test]
    fn rejects_invalid_q() {
        let f = DelayCurve::constant(1.0, 10.0).unwrap();
        assert!(algorithm1_capped(&f, 0.0, 1).is_err());
    }

    #[test]
    fn heap_selection_is_bit_identical_to_the_trace_sort() {
        // The pre-heap implementation materialized every WindowRecord,
        // sorted charges descending and summed the first `cap`. The bounded
        // min-heap must reproduce that total to the bit, including the
        // charged-window count, across caps straddling the window count.
        use crate::algorithm1::algorithm1_trace;
        let curves = [
            DelayCurve::from_breakpoints([(0.0, 4.0), (20.0, 1.0), (55.0, 3.5)], 100.0).unwrap(),
            DelayCurve::from_breakpoints([(0.0, 0.0), (40.0, 9.0), (50.0, 0.0)], 100.0).unwrap(),
            DelayCurve::constant(2.0, 97.0).unwrap(),
        ];
        for curve in &curves {
            for q in [7.0, 10.0, 19.5] {
                for factor in [1.0, 0.35, 1.6] {
                    let scaled = curve.scaled(factor).unwrap();
                    let (outcome, trace) = algorithm1_trace(&scaled, q).unwrap();
                    for cap in [0usize, 1, 2, 3, 7, 1000] {
                        let capped = algorithm1_capped(&scaled, q, cap).unwrap();
                        match outcome.clone() {
                            BoundOutcome::Divergent { .. } => assert_eq!(capped, None),
                            BoundOutcome::Converged(bound) => {
                                let mut charges: Vec<f64> = trace.iter().map(|w| w.delay).collect();
                                charges.sort_by(|a, b| b.total_cmp(a));
                                let expected: f64 = charges.iter().take(cap).sum();
                                let expected_charged =
                                    charges.iter().take(cap).filter(|&&d| d > 0.0).count();
                                let capped = capped.expect("converged");
                                assert_eq!(capped.total_delay.to_bits(), expected.to_bits());
                                assert_eq!(capped.charged_windows, expected_charged);
                                assert_eq!(capped.uncapped, bound);
                                assert_eq!(capped.cap, cap);
                            }
                        }
                    }
                }
            }
        }
    }
}
