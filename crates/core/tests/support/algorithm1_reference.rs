//! The pre-cursor per-call implementation of Algorithm 1, kept as the
//! differential-testing and benchmarking baseline.
//!
//! Each window issues three independent curve queries
//! ([`DelayCurve::first_crossing`], [`DelayCurve::max_on`],
//! [`DelayCurve::argmax_on`]), each a binary search plus a segment scan —
//! O(windows × segments) per run. `tests/properties.rs` asserts the fused
//! kernel is bit-identical to this path on arbitrary curves (including
//! divergent and iteration-limit outcomes), and the `bound_kernel` bench
//! group (which includes this file with `#[path]`) measures the speedup.
//! Only the public API of `fnpr-core` is used.

use fnpr_core::{AnalysisError, BoundOutcome, DelayBound, DelayCurve, DEFAULT_MAX_WINDOWS};

/// Per-call-queries counterpart of [`fnpr_core::algorithm1`].
///
/// # Errors
///
/// As [`fnpr_core::algorithm1`].
pub fn algorithm1(curve: &DelayCurve, q: f64) -> Result<BoundOutcome, AnalysisError> {
    algorithm1_with_limit(curve, q, DEFAULT_MAX_WINDOWS)
}

/// Per-call-queries counterpart of [`fnpr_core::algorithm1_with_limit`].
///
/// # Errors
///
/// As [`fnpr_core::algorithm1_with_limit`].
pub fn algorithm1_with_limit(
    curve: &DelayCurve,
    q: f64,
    limit: usize,
) -> Result<BoundOutcome, AnalysisError> {
    if !(q.is_finite() && q > 0.0) {
        return Err(AnalysisError::InvalidQ { q });
    }
    run_from(curve, q, q, limit)
}

/// Per-call-queries counterpart of [`fnpr_core::algorithm1_from`].
///
/// # Errors
///
/// As [`fnpr_core::algorithm1_from`].
pub fn algorithm1_from(
    curve: &DelayCurve,
    q: f64,
    start_progress: f64,
) -> Result<BoundOutcome, AnalysisError> {
    if !(start_progress.is_finite() && start_progress >= 0.0) {
        return Err(AnalysisError::InvalidDelay {
            delay: start_progress,
        });
    }
    run_from(curve, q, start_progress, DEFAULT_MAX_WINDOWS)
}

fn run_from(
    curve: &DelayCurve,
    q: f64,
    first_candidate: f64,
    limit: usize,
) -> Result<BoundOutcome, AnalysisError> {
    if !(q.is_finite() && q > 0.0) {
        return Err(AnalysisError::InvalidQ { q });
    }
    let wcet = curve.domain_end();
    let mut total_delay = 0.0f64;
    let mut next_progress = first_candidate;
    let mut windows = 0usize;
    while next_progress < wcet {
        if windows >= limit {
            return Err(AnalysisError::IterationLimit { limit });
        }
        let progress = next_progress;
        let p_cross = curve
            .first_crossing(progress, q)
            .expect("validated inputs")
            .unwrap_or(wcet)
            .min(wcet);
        let delay = curve.max_on(progress, p_cross).expect("validated interval");
        let _p_max = curve
            .argmax_on(progress, p_cross)
            .expect("validated interval");
        if delay >= q {
            return Ok(BoundOutcome::Divergent {
                at_progress: progress,
                window_delay: delay,
                q,
            });
        }
        next_progress = progress + q - delay;
        total_delay += delay;
        windows += 1;
    }
    Ok(BoundOutcome::Converged(DelayBound {
        total_delay,
        windows,
        q,
        wcet,
    }))
}
