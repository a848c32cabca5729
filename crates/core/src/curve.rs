//! Piecewise-constant preemption-delay functions (`fi(t)` in the paper).
//!
//! A [`DelayCurve`] maps a task's *progress* `t ∈ [0, C)` (execution performed
//! in isolation, not wall-clock time) to an upper bound on the delay the task
//! incurs if it is preempted exactly when it has progressed by `t`.
//!
//! Curves derived from control-flow graphs (Section IV of the paper) are
//! naturally piecewise constant: the set `BB(t)` of basic blocks possibly
//! executing at progress `t` only changes at block-window boundaries, so
//! `fi(t) = max {CRPD_b : b ∈ BB(t)}` is a step function. Smooth synthetic
//! curves (the paper's Figure 4) are conservatively sampled into step
//! functions via [`DelayCurve::from_fn_upper`].

use std::collections::{BinaryHeap, HashMap};

use serde::{Deserialize, Serialize, Value};

use crate::error::CurveError;
use crate::hash::StructuralHasher;

/// One maximal constant piece of a [`DelayCurve`].
///
/// The segment covers the right-open progress interval `[start, end)` and the
/// curve takes the value `value` everywhere in it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Inclusive start of the segment, in progress units.
    pub start: f64,
    /// Exclusive end of the segment, in progress units.
    pub end: f64,
    /// Upper bound on the preemption delay over `[start, end)`.
    pub value: f64,
}

impl Segment {
    /// Length of the segment.
    ///
    /// ```
    /// use fnpr_core::Segment;
    /// let seg = Segment { start: 2.0, end: 5.0, value: 1.0 };
    /// assert_eq!(seg.len(), 3.0);
    /// ```
    #[must_use]
    pub fn len(&self) -> f64 {
        self.end - self.start
    }

    /// Returns `true` if the segment covers no progress at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// An upper-bound preemption-delay function, piecewise constant over `[0, C)`.
///
/// This is the paper's `fi`: `value_at(t)` bounds the delay paid by a job of
/// `τi` preempted after `t` units of progress. The *domain end* is the task's
/// worst-case execution time `C`.
///
/// # Invariants
///
/// * at least one segment, the first starting at progress `0`;
/// * breakpoints strictly increasing and strictly below the domain end;
/// * every value finite and non-negative;
/// * the domain end finite and strictly positive.
///
/// Constructors validate these invariants and return [`CurveError`] on
/// violation.
///
/// # Examples
///
/// ```
/// use fnpr_core::DelayCurve;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Delay of 8 while the working set is live, 1 afterwards.
/// let f = DelayCurve::from_breakpoints([(0.0, 8.0), (60.0, 1.0)], 100.0)?;
/// assert_eq!(f.value_at(10.0), 8.0);
/// assert_eq!(f.value_at(60.0), 1.0);
/// assert_eq!(f.max_value(), 8.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DelayCurve {
    /// Segment start offsets; `starts[0] == 0.0`, strictly increasing.
    starts: Vec<f64>,
    /// Segment values; `values[k]` holds on `[starts[k], starts[k+1])`.
    values: Vec<f64>,
    /// Domain end (the task WCET `C`); the last segment is `[starts[n-1], end)`.
    end: f64,
    /// 128-bit structural hash over (segments, domain end), computed once
    /// at construction; see [`DelayCurve::structural_hash128`]. The low
    /// word is the historical 64-bit hash ([`DelayCurve::structural_hash`]).
    hash: u128,
}

/// Structural hash over validated `(starts, values, end)` data: every
/// segment's `(start, end, value)` triple followed by the domain end,
/// mixed with the workspace's one [`StructuralHasher`].
fn structural_hash_of(starts: &[f64], values: &[f64], end: f64) -> u128 {
    let mut h = StructuralHasher::new(0x43_55_52_56); // "CURV"
    for k in 0..starts.len() {
        let seg_end = starts.get(k + 1).copied().unwrap_or(end);
        h = h.f64(starts[k]).f64(seg_end).f64(values[k]);
    }
    h.f64(end).finish128()
}

impl DelayCurve {
    /// Builds a curve with a single constant value over `[0, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::BadDomain`] if `end` is not finite and positive,
    /// or [`CurveError::BadValue`] if `value` is negative or not finite.
    ///
    /// ```
    /// use fnpr_core::DelayCurve;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let f = DelayCurve::constant(10.0, 4000.0)?;
    /// assert_eq!(f.value_at(1234.5), 10.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn constant(value: f64, end: f64) -> Result<Self, CurveError> {
        Self::from_breakpoints([(0.0, value)], end)
    }

    /// Builds a curve from `(start, value)` breakpoints and a domain end.
    ///
    /// Each pair `(s_k, v_k)` states that the curve takes value `v_k` on
    /// `[s_k, s_{k+1})` (the last piece extends to `end`). Adjacent pieces with
    /// equal values are merged.
    ///
    /// # Errors
    ///
    /// Returns a [`CurveError`] describing the first violated invariant (empty
    /// input, bad domain, missing origin, non-monotonic or out-of-range
    /// breakpoints, negative or non-finite values).
    pub fn from_breakpoints<I>(points: I, end: f64) -> Result<Self, CurveError>
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        Self::from_breakpoints_reserved(points, end, 0)
    }

    /// [`Self::from_breakpoints`] with room for `capacity` segments
    /// reserved up front. Only the sampler reserves: its cells rarely
    /// merge, so the reservation replaces every regrowth of both vectors.
    /// Curves whose breakpoints mostly merge (such as those composed by
    /// [`Self::from_windows`]) grow as they need and keep no unused room.
    fn from_breakpoints_reserved<I>(
        points: I,
        end: f64,
        capacity: usize,
    ) -> Result<Self, CurveError>
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        if !(end.is_finite() && end > 0.0) {
            return Err(CurveError::BadDomain { end });
        }
        let mut starts = Vec::with_capacity(capacity);
        let mut values = Vec::with_capacity(capacity);
        for (index, (start, value)) in points.into_iter().enumerate() {
            if !start.is_finite() {
                return Err(CurveError::NonMonotonic {
                    index,
                    previous: starts.last().copied().unwrap_or(f64::NAN),
                    current: start,
                });
            }
            if index == 0 && start != 0.0 {
                return Err(CurveError::MissingOrigin { first: start });
            }
            if let Some(&previous) = starts.last() {
                if start <= previous {
                    return Err(CurveError::NonMonotonic {
                        index,
                        previous,
                        current: start,
                    });
                }
            }
            if start >= end {
                return Err(CurveError::BreakpointBeyondEnd { index, start, end });
            }
            if !(value.is_finite() && value >= 0.0) {
                return Err(CurveError::BadValue { index, value });
            }
            // Merge runs of equal values as we go.
            if values.last() == Some(&value) {
                continue;
            }
            starts.push(start);
            values.push(value);
        }
        if starts.is_empty() {
            return Err(CurveError::Empty);
        }
        let hash = structural_hash_of(&starts, &values, end);
        Ok(Self {
            starts,
            values,
            end,
            hash,
        })
    }

    /// Builds a conservative step-function upper bound of a continuous
    /// function by sampling it on a regular grid.
    ///
    /// On each grid cell `[lo, hi)` with `lo = k·step` and
    /// `hi = min((k+1)·step, end)` the curve takes
    /// `max(f(lo), f((lo + hi)/2), f(hi))`, which upper-bounds any `f` that
    /// is monotone on each half cell — in particular the Gaussian-shaped
    /// benchmark functions of the paper when `step` is small relative to
    /// their width. The last cell therefore samples at `end`. Negative
    /// samples are clamped to zero (a preemption delay cannot be negative).
    ///
    /// A cell's `hi` is the next cell's `lo`, so that boundary sample is
    /// taken once and shared between the two cells: a 64-cell curve calls
    /// `f` 129 times, not 192. A sample is shared only when the two points
    /// are the same float (the clamp to `end` can make them differ), so `f`
    /// must return the same value whenever it is called at the same point.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::BadDomain`] or [`CurveError::BadStep`] on
    /// malformed `end`/`step`, or [`CurveError::BadValue`] if `f` produces a
    /// non-finite sample.
    ///
    /// ```
    /// use fnpr_core::DelayCurve;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let bell = |t: f64| 10.0 * (-(t - 50.0) * (t - 50.0) / 200.0).exp();
    /// let f = DelayCurve::from_fn_upper(bell, 100.0, 1.0)?;
    /// assert!(f.value_at(50.0) >= bell(50.0));
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_fn_upper<F>(f: F, end: f64, step: f64) -> Result<Self, CurveError>
    where
        F: Fn(f64) -> f64,
    {
        if !(end.is_finite() && end > 0.0) {
            return Err(CurveError::BadDomain { end });
        }
        if !(step.is_finite() && step > 0.0) {
            return Err(CurveError::BadStep { step });
        }
        let cells = ((end / step).ceil() as usize).max(1);
        let mut points = Vec::with_capacity(cells);
        // The previous cell's `hi` (as bits) and `f(hi)`.
        let mut boundary: Option<(u64, f64)> = None;
        for k in 0..cells {
            let lo = (k as f64) * step;
            let hi = ((k + 1) as f64 * step).min(end);
            let mid = 0.5 * (lo + hi);
            let at_lo = match boundary {
                Some((bits, sample)) if bits == lo.to_bits() => sample,
                _ => f(lo),
            };
            let at_mid = f(mid);
            let at_hi = f(hi);
            boundary = Some((hi.to_bits(), at_hi));
            let sample = at_lo.max(at_mid).max(at_hi);
            if !sample.is_finite() {
                return Err(CurveError::BadValue {
                    index: k,
                    value: sample,
                });
            }
            points.push((lo, sample.max(0.0)));
        }
        Self::from_breakpoints_reserved(points, end, cells)
    }

    /// Builds the pointwise maximum over a set of constant *windows*.
    ///
    /// Each window `(start, end, value)` contributes `value` on
    /// `[start, end)`; outside every window the curve is zero. This is exactly
    /// the Section IV composition `fi(t) = max {CRPD_b : b ∈ BB(t)}` where each
    /// basic block `b` contributes its execution window with value `CRPD_b`.
    ///
    /// Windows may overlap arbitrarily and are clamped to `[0, domain_end)`.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::BadDomain`] on a malformed domain end,
    /// [`CurveError::BadInterval`] on a window with `start > end` or non-finite
    /// bounds, or [`CurveError::BadValue`] on a negative or non-finite value.
    ///
    /// ```
    /// use fnpr_core::DelayCurve;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // Two overlapping block windows: CRPD 4 on [0,30), CRPD 9 on [10,20).
    /// let f = DelayCurve::from_windows([(0.0, 30.0, 4.0), (10.0, 20.0, 9.0)], 40.0)?;
    /// assert_eq!(f.value_at(5.0), 4.0);
    /// assert_eq!(f.value_at(15.0), 9.0);
    /// assert_eq!(f.value_at(35.0), 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_windows<I>(windows: I, domain_end: f64) -> Result<Self, CurveError>
    where
        I: IntoIterator<Item = (f64, f64, f64)>,
    {
        if !(domain_end.is_finite() && domain_end > 0.0) {
            return Err(CurveError::BadDomain { end: domain_end });
        }
        // Sweep line over window open/close events, tracking the multiset of
        // active values. Event times are the clamped window bounds.
        #[derive(Clone, Copy)]
        struct Event {
            at: f64,
            value: f64,
            open: bool,
        }
        let mut events = Vec::new();
        for (index, (lo, hi, value)) in windows.into_iter().enumerate() {
            if !(lo.is_finite() && hi.is_finite()) || lo > hi {
                return Err(CurveError::BadInterval { lo, hi });
            }
            if !(value.is_finite() && value >= 0.0) {
                return Err(CurveError::BadValue { index, value });
            }
            let lo = lo.max(0.0);
            let hi = hi.min(domain_end);
            if lo >= hi {
                continue; // entirely outside the domain
            }
            // Normalize -0.0 so a value's open and close events share one
            // heap key and the bit-order trick below stays monotone.
            let value = if value == 0.0 { 0.0 } else { value };
            events.push(Event {
                at: lo,
                value,
                open: true,
            });
            events.push(Event {
                at: hi,
                value,
                open: false,
            });
        }
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        // Active multiset as a lazy-deletion max-heap keyed by the value's
        // bit pattern (order-preserving for non-negative floats): O(w log w)
        // over w windows, where the previous sorted-`Vec` insert/remove was
        // O(w²) on heavily overlapping CFG block windows. Closing a window
        // defers its removal until its value surfaces at the top.
        let mut active: BinaryHeap<u64> = BinaryHeap::new();
        let mut closed: HashMap<u64, usize> = HashMap::new();
        let mut points: Vec<(f64, f64)> = Vec::new();
        let mut cursor = 0usize;
        let push_point = |at: f64, value: f64, points: &mut Vec<(f64, f64)>| {
            if let Some(&mut (last_at, ref mut last_v)) = points.last_mut() {
                if last_at == at {
                    *last_v = value;
                    return;
                }
            }
            points.push((at, value));
        };
        if events.first().map(|e| e.at) != Some(0.0) {
            points.push((0.0, 0.0));
        }
        while cursor < events.len() {
            let at = events[cursor].at;
            while cursor < events.len() && events[cursor].at == at {
                let ev = events[cursor];
                let bits = ev.value.to_bits();
                if ev.open {
                    active.push(bits);
                } else {
                    *closed.entry(bits).or_insert(0) += 1;
                }
                cursor += 1;
            }
            if at < domain_end {
                // Surface the live maximum, discarding closed entries.
                while let Some(&top) = active.peek() {
                    match closed.get_mut(&top) {
                        Some(pending) => {
                            *pending -= 1;
                            if *pending == 0 {
                                closed.remove(&top);
                            }
                            active.pop();
                        }
                        None => break,
                    }
                }
                let value = active.peek().map_or(0.0, |&bits| f64::from_bits(bits));
                push_point(at, value, &mut points);
            }
        }
        Self::from_breakpoints(points, domain_end)
    }

    /// End of the curve's domain — the task's worst-case execution time `C`.
    #[must_use]
    pub fn domain_end(&self) -> f64 {
        self.end
    }

    /// Number of maximal constant segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.starts.len()
    }

    /// Structural hash of the curve: every segment's `(start, end, value)`
    /// triple plus the domain end, canonicalized (`-0.0` → `0.0`) and
    /// stable across platforms and runs.
    ///
    /// Computed **once** at construction and cached, so memo layers keying
    /// on curve identity (e.g. campaign `(curve, Q)` bound caches) pay O(1)
    /// per lookup instead of re-hashing every segment. Serde round-trips
    /// recompute it from the deserialized segments, so the cache can never
    /// go stale.
    ///
    /// ```
    /// use fnpr_core::DelayCurve;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let a = DelayCurve::from_breakpoints([(0.0, 8.0), (40.0, 1.0)], 100.0)?;
    /// let b = DelayCurve::from_breakpoints([(0.0, 8.0), (40.0, 1.0)], 100.0)?;
    /// assert_eq!(a.structural_hash(), b.structural_hash());
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn structural_hash(&self) -> u64 {
        self.hash as u64
    }

    /// 128-bit structural hash of the curve: the low word is exactly
    /// [`Self::structural_hash`] (value-compatible for in-process sharding
    /// and legacy keys), the high word comes from the hasher's independent
    /// second lane ([`StructuralHasher::finish128`]). Cached at
    /// construction like the 64-bit value. Memo tables and the on-disk
    /// result store key curves by this, so a 64-bit collision between two
    /// distinct curves can no longer alias their cached results.
    #[must_use]
    pub fn structural_hash128(&self) -> u128 {
        self.hash
    }

    /// Raw `(starts, values)` storage for the in-crate scan kernels
    /// ([`crate::cursor::CurveCursor`]).
    pub(crate) fn raw(&self) -> (&[f64], &[f64]) {
        (&self.starts, &self.values)
    }

    /// Earliest point in the closed interval `[lo, hi]` (clamped to the
    /// domain) where the curve attains its maximum over that interval.
    ///
    /// # Errors
    ///
    /// As [`DelayCurve::max_on`].
    pub fn argmax_on(&self, lo: f64, hi: f64) -> Result<f64, CurveError> {
        let target = self.max_on(lo, hi)?;
        let lo_c = lo.clamp(0.0, self.end);
        let hi_c = hi.clamp(0.0, self.end);
        for k in self.segment_index_at(lo_c)..self.starts.len() {
            let seg = self.segment(k);
            if seg.start > hi_c {
                break;
            }
            if seg.end > lo_c && seg.value == target {
                return Ok(seg.start.max(lo_c));
            }
        }
        // The maximum was read from the segment starting exactly at `hi`.
        Ok(hi_c)
    }

    /// Iterates over the maximal constant segments in increasing order.
    ///
    /// ```
    /// use fnpr_core::DelayCurve;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let f = DelayCurve::from_breakpoints([(0.0, 1.0), (5.0, 3.0)], 10.0)?;
    /// let lens: Vec<f64> = f.segments().map(|s| s.len()).collect();
    /// assert_eq!(lens, vec![5.0, 5.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        (0..self.starts.len()).map(move |k| Segment {
            start: self.starts[k],
            end: if k + 1 < self.starts.len() {
                self.starts[k + 1]
            } else {
                self.end
            },
            value: self.values[k],
        })
    }

    /// Value of the curve at progress `t`.
    ///
    /// `t` is clamped into the domain: queries before `0` read the first
    /// segment and queries at or beyond the domain end read the last segment.
    /// Within the domain, segments are right-open, so the value at a
    /// breakpoint is the value of the segment *starting* there.
    #[must_use]
    pub fn value_at(&self, t: f64) -> f64 {
        self.values[self.segment_index_at(t)]
    }

    /// Index of the segment containing `t` (clamped into the domain).
    pub(crate) fn segment_index_at(&self, t: f64) -> usize {
        match self.starts.binary_search_by(|probe| probe.total_cmp(&t)) {
            Ok(k) => k,
            Err(0) => 0,
            Err(k) => k - 1,
        }
    }

    /// The segment with index `k` (bounds assumed valid).
    pub(crate) fn segment(&self, k: usize) -> Segment {
        Segment {
            start: self.starts[k],
            end: if k + 1 < self.starts.len() {
                self.starts[k + 1]
            } else {
                self.end
            },
            value: self.values[k],
        }
    }

    /// Global maximum of the curve (the `max_t fi(t)` of Eq. 4).
    #[must_use]
    pub fn max_value(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Maximum of the curve over the closed progress interval `[lo, hi]`.
    ///
    /// The interval is clamped to the domain. A segment `[s, e)` contributes
    /// if it intersects `[lo, hi]`, i.e. `s <= hi && e > lo`; the closed upper
    /// endpoint reads the segment starting exactly at `hi`, matching
    /// [`DelayCurve::value_at`].
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::BadInterval`] if `lo > hi` or either bound is not
    /// finite.
    pub fn max_on(&self, lo: f64, hi: f64) -> Result<f64, CurveError> {
        if !(lo.is_finite() && hi.is_finite()) || lo > hi {
            return Err(CurveError::BadInterval { lo, hi });
        }
        let lo = lo.clamp(0.0, self.end);
        let hi = hi.clamp(0.0, self.end);
        // Only segments intersecting [lo, hi] contribute; start at the one
        // containing lo (a closed upper endpoint reads the segment starting
        // exactly at hi, which the loop condition `start <= hi` includes).
        let mut best = f64::NEG_INFINITY;
        for k in self.segment_index_at(lo)..self.starts.len() {
            let seg = self.segment(k);
            if seg.start > hi {
                break;
            }
            if seg.end > lo || (seg.end == self.end && lo >= self.end) {
                best = best.max(seg.value);
            }
        }
        if best == f64::NEG_INFINITY {
            // Interval degenerated to the domain end point: read last value.
            best = *self.values.last().expect("curve is never empty");
        }
        Ok(best)
    }

    /// First point `p ∈ [from, from + q]` where the curve meets or exceeds the
    /// window's anti-diagonal line `D(p) = from + q − p` (the paper's `p∩`,
    /// Algorithm 1 lines 7–10).
    ///
    /// With a piecewise-constant curve an exact equality may not exist, so the
    /// crossing is the *infimum* of `{p : f(p) ≥ from + q − p}`; this keeps
    /// Theorem 1's argument intact (see `DESIGN.md`). Because `f ≥ 0` and the
    /// line reaches `0` at `from + q`, a crossing always exists when
    /// `from + q` lies within the domain; `None` is returned only when the
    /// curve's domain ends before any crossing, in which case the caller
    /// should treat the whole remaining domain `[from, domain_end)` as the
    /// search interval.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::BadInterval`] if `from` is not finite or `q` is
    /// not finite and strictly positive.
    pub fn first_crossing(&self, from: f64, q: f64) -> Result<Option<f64>, CurveError> {
        if !(from.is_finite() && q.is_finite() && q > 0.0) {
            return Err(CurveError::BadInterval {
                lo: from,
                hi: from + q,
            });
        }
        let limit = from + q;
        for k in self.segment_index_at(from.max(0.0))..self.starts.len() {
            let seg = self.segment(k);
            if seg.end <= from {
                continue;
            }
            if seg.start > limit {
                break;
            }
            // Within this segment, f(p) = seg.value; the condition
            // seg.value >= limit - p  <=>  p >= limit - seg.value.
            let candidate = (limit - seg.value).max(seg.start).max(from);
            if candidate <= limit && candidate < seg.end {
                return Ok(Some(candidate));
            }
        }
        Ok(None)
    }

    /// Pointwise maximum of two curves over the same domain.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::DomainMismatch`] if the domains differ.
    pub fn pointwise_max(&self, other: &DelayCurve) -> Result<DelayCurve, CurveError> {
        if self.end != other.end {
            return Err(CurveError::DomainMismatch {
                left: self.end,
                right: other.end,
            });
        }
        let mut points = Vec::new();
        let mut i = 0usize;
        let mut j = 0usize;
        while i < self.starts.len() || j < other.starts.len() {
            let si = self.starts.get(i).copied().unwrap_or(f64::INFINITY);
            let sj = other.starts.get(j).copied().unwrap_or(f64::INFINITY);
            let at = si.min(sj);
            if si <= at {
                i += 1;
            }
            if sj <= at {
                j += 1;
            }
            let left = self.values[i.saturating_sub(1).min(self.values.len() - 1)];
            let right = other.values[j.saturating_sub(1).min(other.values.len() - 1)];
            points.push((at, left.max(right)));
        }
        DelayCurve::from_breakpoints(points, self.end)
    }

    /// Returns a curve scaled by a non-negative factor.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::BadValue`] if `factor` is negative or not finite.
    pub fn scaled(&self, factor: f64) -> Result<DelayCurve, CurveError> {
        if !(factor.is_finite() && factor >= 0.0) {
            return Err(CurveError::BadValue {
                index: 0,
                value: factor,
            });
        }
        DelayCurve::from_breakpoints(
            self.starts
                .iter()
                .zip(&self.values)
                .map(|(&s, &v)| (s, v * factor)),
            self.end,
        )
    }

    /// Returns a curve whose values are clamped to at most `cap`.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::BadValue`] if `cap` is negative or not finite.
    pub fn clamped(&self, cap: f64) -> Result<DelayCurve, CurveError> {
        if !(cap.is_finite() && cap >= 0.0) {
            return Err(CurveError::BadValue {
                index: 0,
                value: cap,
            });
        }
        DelayCurve::from_breakpoints(
            self.starts
                .iter()
                .zip(&self.values)
                .map(|(&s, &v)| (s, v.min(cap))),
            self.end,
        )
    }

    /// Conservatively coarsens the curve onto a regular grid: each cell of
    /// width `step` takes the maximum of the original curve over it.
    ///
    /// The result *pointwise dominates* the original (so every delay bound
    /// computed from it remains sound) while having at most `⌈C/step⌉`
    /// segments — a precision/speed dial for very fragmented curves (e.g.
    /// CFGs with thousands of blocks).
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::BadStep`] if `step` is not finite and strictly
    /// positive.
    ///
    /// ```
    /// use fnpr_core::DelayCurve;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let fine = DelayCurve::from_breakpoints(
    ///     [(0.0, 1.0), (3.0, 5.0), (4.0, 2.0), (11.0, 0.5)], 20.0)?;
    /// let coarse = fine.resampled(10.0)?;
    /// assert!(coarse.segment_count() <= 2);
    /// assert!(coarse.dominates(&fine));
    /// # Ok(())
    /// # }
    /// ```
    pub fn resampled(&self, step: f64) -> Result<DelayCurve, CurveError> {
        if !(step.is_finite() && step > 0.0) {
            return Err(CurveError::BadStep { step });
        }
        let cells = (self.end / step).ceil() as usize;
        let mut points = Vec::with_capacity(cells.max(1));
        for k in 0..cells.max(1) {
            let lo = k as f64 * step;
            let hi = ((k + 1) as f64 * step).min(self.end);
            let value = self
                .max_on(lo, hi)
                .expect("cell bounds are finite and ordered");
            points.push((lo, value));
        }
        DelayCurve::from_breakpoints(points, self.end)
    }

    /// Integral of the curve over its whole domain.
    ///
    /// Useful as a scale-free summary of "how much delay mass" a curve
    /// carries; used by the experiment harness for reporting.
    #[must_use]
    pub fn integral(&self) -> f64 {
        self.segments().map(|s| s.value * s.len()).sum()
    }

    /// Returns `true` if `self(t) >= other(t)` for every `t` in the common
    /// domain (domains must match for a `true` result).
    #[must_use]
    pub fn dominates(&self, other: &DelayCurve) -> bool {
        if self.end != other.end {
            return false;
        }
        // Evaluate at every breakpoint of either curve.
        self.starts
            .iter()
            .chain(other.starts.iter())
            .all(|&t| self.value_at(t) >= other.value_at(t))
    }
}

// Hand-written (de)serialization: only the defining data (`starts`,
// `values`, `end`) travels; the cached structural hash is recomputed on
// deserialization (via the validating constructor), so it can never go
// stale and old serialized curves stay readable.
impl Serialize for DelayCurve {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("starts".to_string(), self.starts.to_value()),
            ("values".to_string(), self.values.to_value()),
            ("end".to_string(), self.end.to_value()),
        ])
    }
}

impl Deserialize for DelayCurve {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::new("expected a map for DelayCurve"))?;
        let starts: Vec<f64> =
            serde::de_field(serde::value::map_get(map, "starts"), "DelayCurve.starts")?;
        let values: Vec<f64> =
            serde::de_field(serde::value::map_get(map, "values"), "DelayCurve.values")?;
        let end: f64 = serde::de_field(serde::value::map_get(map, "end"), "DelayCurve.end")?;
        if starts.len() != values.len() {
            return Err(serde::Error::new(format!(
                "DelayCurve: {} starts but {} values",
                starts.len(),
                values.len()
            )));
        }
        DelayCurve::from_breakpoints(starts.into_iter().zip(values), end)
            .map_err(|e| serde::Error::new(format!("DelayCurve: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(points: &[(f64, f64)], end: f64) -> DelayCurve {
        DelayCurve::from_breakpoints(points.iter().copied(), end).expect("valid curve")
    }

    #[test]
    fn constant_curve_basics() {
        let f = DelayCurve::constant(10.0, 4000.0).unwrap();
        assert_eq!(f.segment_count(), 1);
        assert_eq!(f.value_at(0.0), 10.0);
        assert_eq!(f.value_at(3999.9), 10.0);
        assert_eq!(f.max_value(), 10.0);
        assert_eq!(f.domain_end(), 4000.0);
        assert_eq!(f.integral(), 40000.0);
    }

    #[test]
    fn rejects_bad_domains_and_values() {
        assert!(matches!(
            DelayCurve::constant(1.0, 0.0),
            Err(CurveError::BadDomain { .. })
        ));
        assert!(matches!(
            DelayCurve::constant(1.0, f64::NAN),
            Err(CurveError::BadDomain { .. })
        ));
        assert!(matches!(
            DelayCurve::constant(-1.0, 10.0),
            Err(CurveError::BadValue { .. })
        ));
        assert!(matches!(
            DelayCurve::constant(f64::INFINITY, 10.0),
            Err(CurveError::BadValue { .. })
        ));
    }

    #[test]
    fn rejects_malformed_breakpoints() {
        assert!(matches!(
            DelayCurve::from_breakpoints([(1.0, 2.0)], 10.0),
            Err(CurveError::MissingOrigin { .. })
        ));
        assert!(matches!(
            DelayCurve::from_breakpoints([(0.0, 2.0), (5.0, 1.0), (5.0, 3.0)], 10.0),
            Err(CurveError::NonMonotonic { .. })
        ));
        assert!(matches!(
            DelayCurve::from_breakpoints([(0.0, 2.0), (10.0, 1.0)], 10.0),
            Err(CurveError::BreakpointBeyondEnd { .. })
        ));
        assert!(matches!(
            DelayCurve::from_breakpoints(std::iter::empty(), 10.0),
            Err(CurveError::Empty)
        ));
    }

    #[test]
    fn equal_adjacent_values_are_merged() {
        let f = curve(&[(0.0, 2.0), (3.0, 2.0), (6.0, 1.0)], 10.0);
        assert_eq!(f.segment_count(), 2);
        assert_eq!(f.value_at(4.0), 2.0);
    }

    #[test]
    fn value_at_uses_right_open_segments() {
        let f = curve(&[(0.0, 5.0), (10.0, 7.0)], 20.0);
        assert_eq!(f.value_at(9.999), 5.0);
        assert_eq!(f.value_at(10.0), 7.0);
        // Clamped queries.
        assert_eq!(f.value_at(-1.0), 5.0);
        assert_eq!(f.value_at(20.0), 7.0);
        assert_eq!(f.value_at(1e9), 7.0);
    }

    #[test]
    fn max_on_closed_interval() {
        let f = curve(&[(0.0, 1.0), (10.0, 9.0), (20.0, 3.0)], 30.0);
        assert_eq!(f.max_on(0.0, 5.0).unwrap(), 1.0);
        // Closed right endpoint touches the 9-valued segment.
        assert_eq!(f.max_on(0.0, 10.0).unwrap(), 9.0);
        assert_eq!(f.max_on(12.0, 15.0).unwrap(), 9.0);
        assert_eq!(f.max_on(20.0, 29.0).unwrap(), 3.0);
        // Interval wider than domain clamps.
        assert_eq!(f.max_on(-5.0, 100.0).unwrap(), 9.0);
        // Degenerate point interval.
        assert_eq!(f.max_on(10.0, 10.0).unwrap(), 9.0);
        assert!(f.max_on(5.0, 1.0).is_err());
    }

    #[test]
    fn first_crossing_constant_curve() {
        // f == 2 on [0,10); from 4, window 4: line hits f at p = 8 - 2 = 6.
        let f = DelayCurve::constant(2.0, 10.0).unwrap();
        assert_eq!(f.first_crossing(4.0, 4.0).unwrap(), Some(6.0));
        // Window end beyond domain, value below line everywhere until end:
        // from 8, q 4: candidate = max(12 - 2, 8) = 10, not < end=10 -> None.
        assert_eq!(f.first_crossing(8.0, 4.0).unwrap(), None);
    }

    #[test]
    fn first_crossing_tall_segment_is_immediate() {
        // A value >= q crosses the line at the window start.
        let f = DelayCurve::constant(5.0, 100.0).unwrap();
        assert_eq!(f.first_crossing(10.0, 5.0).unwrap(), Some(10.0));
        assert_eq!(f.first_crossing(10.0, 4.0).unwrap(), Some(10.0));
    }

    #[test]
    fn first_crossing_skips_low_segments() {
        // Zero until 50, then 10. From 0 with q=60 the line is
        // D(p) = 60 - p; at p=50 the curve jumps to 10 >= 60-50=10: cross at 50.
        let f = curve(&[(0.0, 0.0), (50.0, 10.0)], 100.0);
        assert_eq!(f.first_crossing(0.0, 60.0).unwrap(), Some(50.0));
        // With q=70 the crossing inside the tall segment: p = 70 - 10 = 60.
        assert_eq!(f.first_crossing(0.0, 70.0).unwrap(), Some(60.0));
        // With q=40 the window ends (at 40) inside the zero segment where the
        // line reaches 0 = f: crossing at the window end.
        assert_eq!(f.first_crossing(0.0, 40.0).unwrap(), Some(40.0));
    }

    #[test]
    fn first_crossing_validates_inputs() {
        let f = DelayCurve::constant(1.0, 10.0).unwrap();
        assert!(f.first_crossing(f64::NAN, 1.0).is_err());
        assert!(f.first_crossing(0.0, 0.0).is_err());
        assert!(f.first_crossing(0.0, -3.0).is_err());
    }

    #[test]
    fn from_windows_composes_max() {
        let f = DelayCurve::from_windows(
            [(0.0, 30.0, 4.0), (10.0, 20.0, 9.0), (25.0, 35.0, 2.0)],
            40.0,
        )
        .unwrap();
        assert_eq!(f.value_at(0.0), 4.0);
        assert_eq!(f.value_at(10.0), 9.0);
        assert_eq!(f.value_at(19.9), 9.0);
        assert_eq!(f.value_at(20.0), 4.0);
        assert_eq!(f.value_at(26.0), 4.0);
        assert_eq!(f.value_at(31.0), 2.0);
        assert_eq!(f.value_at(36.0), 0.0);
    }

    #[test]
    fn from_windows_handles_gaps_and_clamping() {
        // Window starting before 0 and one past the domain end.
        let f = DelayCurve::from_windows([(-5.0, 5.0, 3.0), (50.0, 60.0, 7.0)], 20.0).unwrap();
        assert_eq!(f.value_at(0.0), 3.0);
        assert_eq!(f.value_at(5.0), 0.0);
        assert_eq!(f.value_at(19.0), 0.0);
        // No windows at all: identically zero.
        let z = DelayCurve::from_windows(std::iter::empty(), 10.0).unwrap();
        assert_eq!(z.max_value(), 0.0);
    }

    #[test]
    fn from_windows_identical_duplicate_windows() {
        let f = DelayCurve::from_windows([(0.0, 10.0, 5.0), (0.0, 10.0, 5.0)], 20.0).unwrap();
        assert_eq!(f.value_at(5.0), 5.0);
        assert_eq!(f.value_at(15.0), 0.0);
    }

    #[test]
    fn from_fn_upper_bounds_gaussian() {
        let bell = |t: f64| 10.0 * (-(t - 2000.0) * (t - 2000.0) / (2.0 * 9.0e4)).exp();
        let f = DelayCurve::from_fn_upper(bell, 4000.0, 4.0).unwrap();
        for k in 0..4000 {
            let t = k as f64;
            assert!(
                f.value_at(t) + 1e-9 >= bell(t),
                "not an upper bound at t={t}: {} < {}",
                f.value_at(t),
                bell(t)
            );
        }
        assert!(f.max_value() <= 10.0 + 1e-9);
    }

    #[test]
    fn from_fn_upper_samples_each_boundary_once() {
        let calls = std::cell::Cell::new(0usize);
        let f = |t: f64| {
            calls.set(calls.get() + 1);
            t
        };
        // 64 cells: 65 boundaries (0, 1, …, 64) and 64 midpoints.
        let ramp = DelayCurve::from_fn_upper(f, 64.0, 1.0).unwrap();
        assert_eq!(calls.get(), 129);
        // The last cell, [63, 63.5), samples at `end`, not at 64.
        calls.set(0);
        let short = DelayCurve::from_fn_upper(f, 63.5, 1.0).unwrap();
        assert_eq!(calls.get(), 129);
        assert_eq!(short.value_at(63.0), 63.5);
        assert_eq!(ramp.value_at(63.0), 64.0);
    }

    #[test]
    fn pointwise_max_and_dominates() {
        let a = curve(&[(0.0, 1.0), (5.0, 4.0)], 10.0);
        let b = curve(&[(0.0, 3.0), (7.0, 2.0)], 10.0);
        let m = a.pointwise_max(&b).unwrap();
        assert_eq!(m.value_at(0.0), 3.0);
        assert_eq!(m.value_at(5.0), 4.0);
        assert_eq!(m.value_at(8.0), 4.0);
        assert!(m.dominates(&a));
        assert!(m.dominates(&b));
        assert!(!a.dominates(&b));
        let c = DelayCurve::constant(9.0, 11.0).unwrap();
        assert!(a.pointwise_max(&c).is_err());
        assert!(!c.dominates(&a));
    }

    #[test]
    fn scaled_and_clamped() {
        let f = curve(&[(0.0, 2.0), (5.0, 8.0)], 10.0);
        let g = f.scaled(0.5).unwrap();
        assert_eq!(g.value_at(0.0), 1.0);
        assert_eq!(g.value_at(6.0), 4.0);
        let h = f.clamped(3.0).unwrap();
        assert_eq!(h.value_at(0.0), 2.0);
        assert_eq!(h.value_at(6.0), 3.0);
        assert!(f.scaled(-1.0).is_err());
        assert!(f.clamped(f64::NAN).is_err());
    }

    #[test]
    fn resampled_dominates_and_coarsens() {
        let fine = curve(
            &[(0.0, 1.0), (3.0, 5.0), (4.0, 2.0), (11.0, 0.5), (17.0, 3.0)],
            20.0,
        );
        let coarse = fine.resampled(5.0).unwrap();
        assert!(coarse.segment_count() <= 4);
        assert!(coarse.dominates(&fine));
        // Cell [0,5) must carry the 5-peak.
        assert_eq!(coarse.value_at(1.0), 5.0);
        // Step larger than the domain: one constant segment at the max.
        let flat = fine.resampled(100.0).unwrap();
        assert_eq!(flat.segment_count(), 1);
        assert_eq!(flat.max_value(), fine.max_value());
        assert!(fine.resampled(0.0).is_err());
        assert!(fine.resampled(f64::NAN).is_err());
    }

    #[test]
    fn integral_sums_segment_areas() {
        let f = curve(&[(0.0, 2.0), (4.0, 0.0), (8.0, 5.0)], 10.0);
        assert_eq!(f.integral(), 2.0 * 4.0 + 0.0 + 5.0 * 2.0);
    }

    #[test]
    fn debug_representation_nonempty() {
        let f = curve(&[(0.0, 2.0), (4.0, 7.5)], 10.0);
        let repr = format!("{f:?}");
        assert!(repr.contains("starts"));
        assert!(repr.contains("7.5"));
    }

    #[test]
    fn structural_hash_distinguishes_shapes_and_survives_round_trips() {
        let a = curve(&[(0.0, 8.0), (40.0, 1.0)], 100.0);
        let b = curve(&[(0.0, 8.0), (40.0, 2.0)], 100.0);
        let c = curve(&[(0.0, 8.0), (40.0, 1.0)], 101.0);
        assert_ne!(a.structural_hash(), b.structural_hash());
        assert_ne!(a.structural_hash(), c.structural_hash());
        assert_eq!(a.structural_hash(), a.clone().structural_hash());
        // Derived curves rebuild (and re-cache) their own hashes.
        assert_ne!(
            a.structural_hash(),
            a.scaled(2.0).unwrap().structural_hash()
        );
        assert_eq!(
            a.structural_hash(),
            a.scaled(1.0).unwrap().structural_hash()
        );
    }

    #[test]
    fn serde_round_trip_recomputes_the_hash() {
        let f = curve(&[(0.0, 2.0), (4.0, 7.5)], 10.0);
        let back = DelayCurve::from_value(&f.to_value()).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.structural_hash(), f.structural_hash());
        // Mismatched lengths and invalid shapes are rejected.
        let broken = serde::Value::Map(vec![
            ("starts".to_string(), vec![0.0f64, 4.0].to_value()),
            ("values".to_string(), vec![2.0f64].to_value()),
            ("end".to_string(), 10.0f64.to_value()),
        ]);
        assert!(DelayCurve::from_value(&broken).is_err());
    }

    #[test]
    fn from_windows_many_overlapping_windows() {
        // Heavily overlapping nested windows — the O(w²) worst case of the
        // old sorted-Vec multiset. 20k windows must both finish quickly and
        // agree with the brute-force pointwise maximum.
        let n = 20_000usize;
        let domain = 1_000.0;
        let windows: Vec<(f64, f64, f64)> = (0..n)
            .map(|i| {
                let inset = i as f64 * domain / (2.2 * n as f64);
                (inset, domain - inset, (i % 97) as f64)
            })
            .collect();
        let f = DelayCurve::from_windows(windows.iter().copied(), domain).unwrap();
        for &t in &[0.0, 1.0, 123.456, 454.0, 499.9, 500.1, 700.0, 999.9] {
            let expected = windows
                .iter()
                .filter(|&&(lo, hi, _)| lo <= t && t < hi)
                .map(|&(_, _, v)| v)
                .fold(0.0f64, f64::max);
            assert_eq!(f.value_at(t), expected, "mismatch at t={t}");
        }
    }

    #[test]
    fn from_windows_duplicate_values_close_correctly() {
        // Two same-valued windows whose lifetimes only partially overlap:
        // the lazy-deletion heap must keep one alive after the other ends.
        let f =
            DelayCurve::from_windows([(0.0, 10.0, 5.0), (5.0, 20.0, 5.0), (0.0, 30.0, 1.0)], 30.0)
                .unwrap();
        assert_eq!(f.value_at(12.0), 5.0);
        assert_eq!(f.value_at(19.9), 5.0);
        assert_eq!(f.value_at(20.0), 1.0);
    }
}
