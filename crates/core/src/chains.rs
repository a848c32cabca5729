//! The candidate chains both oracles search ([`crate::naive_bound`] and
//! [`crate::exact_worst_case`]).
//!
//! Each oracle normalises an optimal point sequence so that every point is
//! an *anchor* (the earliest legal point `q`, or a segment start past it) or
//! one fixed step after its predecessor: `p + q` for the naive selection,
//! the tight successor `p + q − fi(p)` for the adversary. So every
//! candidate lies on the chain of one anchor, and a chain stops at its
//! first point at or past the domain end. The adversary's step reads `fi`,
//! so its chains carry their segment index along ([`seek`]).

use crate::curve::DelayCurve;

/// The anchors of `0 < q < end`, each with the index of the segment it lies
/// in: `q` first, then every segment start in `(q, end)` in order.
pub(crate) fn anchors(curve: &DelayCurve, q: f64) -> impl Iterator<Item = (f64, usize)> + '_ {
    let (starts, _) = curve.raw();
    // Every segment start lies below `end`, so the anchors past `q` are the
    // starts after the segment holding `q`.
    let first = curve.segment_index_at(q);
    std::iter::once((q, first)).chain((first + 1..starts.len()).map(|k| (starts[k], k)))
}

/// The index of the segment holding `t > 0`, found from `k`, the segment
/// holding the chain's previous point. Forward, it gallops: it probes 1, 2,
/// 4, … segments ahead and binary-searches the last gap, so a step across
/// `d` segments costs `O(log d)` comparisons. It also moves back, because
/// the adversary's rounded step `p + q − fi(p)` can land below `p` when
/// `q − fi(p)` is far below the spacing of floats near `p`.
pub(crate) fn seek(starts: &[f64], k: usize, t: f64) -> usize {
    let ahead = &starts[k + 1..];
    let mut probe = 1;
    while probe <= ahead.len() && ahead[probe - 1] <= t {
        probe *= 2;
    }
    let passed = probe / 2;
    let window = &ahead[passed..probe.min(ahead.len())];
    let mut k = k + passed + window.partition_point(|&start| start <= t);
    while k > 0 && starts[k] > t {
        k -= 1;
    }
    k
}
