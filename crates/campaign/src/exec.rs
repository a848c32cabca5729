//! The sharded executor: a deterministic parallel map over grid shards.
//!
//! Work is split at *shard* granularity (one grid point or one block of
//! trials). Worker threads claim shards from a shared atomic cursor, so any
//! thread may process any shard — but each shard's computation is a pure
//! function of the campaign seed and the shard index (never of the claiming
//! thread), and results land in a slot vector indexed by shard. The
//! aggregate output is therefore bit-identical at every thread count; only
//! wall-clock changes.
//!
//! Shards are claimed in *runs* of consecutive indices, one run per cursor
//! step, and the claiming thread computes its run in order. A workload
//! whose adjacent shards share memoized work (the `[cfg]` Q points of one
//! program shape and cache geometry share their delay curves) passes that
//! group's size as the run length, so one thread derives the shared values
//! while the others claim other groups, instead of two threads racing to
//! compute the same memo entry.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use fnpr_obs::ProgressMeter;

use crate::error::CampaignError;

/// Resolves the worker-thread count: explicit request, else all cores.
#[must_use]
pub fn resolve_threads(requested: Option<usize>) -> NonZeroUsize {
    requested
        .and_then(NonZeroUsize::new)
        .unwrap_or_else(|| std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
}

/// The label the next [`parallel_map`] uses for its live progress line
/// (typically the campaign name). `None` — the default — disables the
/// meter entirely; the campaign runner installs the label around a run and
/// clears it afterwards.
static PROGRESS_LABEL: Mutex<Option<String>> = Mutex::new(None);

/// Installs (or clears) the progress-line label for subsequent
/// [`parallel_map`] calls on this process.
pub fn set_progress_label(label: Option<String>) {
    *PROGRESS_LABEL.lock().expect("progress label poisoned") = label;
}

/// The histogram name the next [`parallel_map`] records per-shard wall
/// times into (e.g. `campaign.point.micros.acceptance`), on top of the
/// always-on `campaign.shard.micros` roll-up. The campaign runner installs
/// the workload-specific name around a run and clears it afterwards.
static POINT_HISTOGRAM: Mutex<Option<String>> = Mutex::new(None);

/// Installs (or clears) the per-point timing histogram for subsequent
/// [`parallel_map`] calls on this process.
pub fn set_point_histogram(name: Option<String>) {
    *POINT_HISTOGRAM.lock().expect("point histogram poisoned") = name;
}

/// Resolves the installed per-point histogram handle, if telemetry is on
/// and a name is installed.
fn point_histogram() -> Option<fnpr_obs::Histogram> {
    if !fnpr_obs::enabled() {
        return None;
    }
    let name = POINT_HISTOGRAM
        .lock()
        .expect("point histogram poisoned")
        .clone()?;
    // fnpr-lint: metric(histogram, "campaign.point.micros.{}")
    Some(fnpr_obs::histogram(&name))
}

/// Builds the live meter for a map over `count` shards, if telemetry, the
/// progress display and a label are all present.
fn build_meter(count: usize) -> Option<ProgressMeter> {
    if !fnpr_obs::enabled() || !fnpr_obs::progress_enabled() {
        return None;
    }
    let label = PROGRESS_LABEL
        .lock()
        .expect("progress label poisoned")
        .clone()?;
    Some(
        ProgressMeter::new(label, count as u64)
            .with_ratio(
                "memo",
                fnpr_obs::counter("campaign.memo.hit"),
                fnpr_obs::counter("campaign.memo.miss"),
            )
            .with_ratio(
                "store",
                fnpr_obs::counter("campaign.store.points.restored"),
                fnpr_obs::counter("campaign.store.points.computed"),
            ),
    )
}

/// Runs `work(i)` for every `i in 0..count` on `threads` workers and
/// returns the results in index order. Each cursor step claims a run of
/// `run` consecutive shards (the last run may be shorter), which the
/// claiming thread computes in index order. `work` failures abort the map
/// at the first error (already-claimed runs still finish, each up to its
/// own first failing shard).
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing shard.
///
/// # Panics
///
/// Propagates panics from `work` (the scope re-raises them on join).
pub fn parallel_map<T, E, F>(
    count: usize,
    threads: NonZeroUsize,
    run: NonZeroUsize,
    work: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let run = run.get();
    let threads = threads.get().min(count.div_ceil(run).max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let failed = AtomicUsize::new(usize::MAX);

    // Write-only telemetry: the gauge/counters/spans/meter observe the map
    // but never influence claiming order or results.
    fnpr_obs::gauge!("campaign.points.total").set(count as u64);
    let claimed = fnpr_obs::counter!("campaign.shards.claimed");
    let retired = fnpr_obs::counter!("campaign.shards.retired");
    let done = fnpr_obs::counter!("campaign.points.done");
    // Wall-time distributions: every shard into the cross-workload
    // roll-up (straggler shards show up as the max/p99 gap), plus the
    // workload-specific histogram when the runner installed one. Timing
    // is taken only while telemetry is enabled, so the disabled cost
    // stays one relaxed load.
    let shard_micros = fnpr_obs::histogram!("campaign.shard.micros");
    let point_micros = point_histogram();
    let meter = build_meter(count);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Check the failure flag BEFORE each claim, never inside a
                // run: a claimed run must fill its slots in order up to its
                // own first error, or the collection loop below could find
                // a hole beneath the lowest error.
                if failed.load(Ordering::Relaxed) != usize::MAX {
                    return;
                }
                let first = cursor.fetch_add(run, Ordering::Relaxed);
                if first >= count {
                    return;
                }
                for (i, slot) in slots.iter().enumerate().skip(first).take(run) {
                    claimed.incr();
                    // fnpr-lint: allow(wall_clock, "feeds the write-only shard-latency histogram, never a result")
                    let started = fnpr_obs::enabled().then(std::time::Instant::now);
                    let result = {
                        let _span = fnpr_obs::span_shard("campaign.shard", "campaign", i as u64);
                        work(i)
                    };
                    if let Some(started) = started {
                        let micros = started.elapsed().as_micros() as u64;
                        shard_micros.record(micros);
                        if let Some(h) = point_micros {
                            h.record(micros);
                        }
                    }
                    let stop = result.is_err();
                    if stop {
                        failed.fetch_min(i, Ordering::Relaxed);
                    }
                    *slot.lock().expect("result slot poisoned") = Some(result);
                    retired.incr();
                    done.incr();
                    if let Some(meter) = &meter {
                        meter.tick();
                    }
                    // Crash-resume drills: an armed kill switch aborts the
                    // process here, mid-campaign, with shards persisted.
                    kill_switch_tick();
                    if stop {
                        break;
                    }
                }
            });
        }
    });

    let mut out = Vec::with_capacity(count);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().expect("result slot poisoned") {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            // A hole lies in a run that was never claimed or after the
            // failing shard its run stopped at. The cursor hands runs out
            // in index order, so an unclaimed run sits above every claimed
            // one, the lowest error's included; and a claimed run stops
            // only at its own error (the abort check precedes each claim).
            // Either way the hole sits above an error, so the loop returns
            // at the lowest Err before reaching any hole.
            None => unreachable!("shard {i} unprocessed without a failure"),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Kill switch (crash-resume drills)
// ---------------------------------------------------------------------

/// The environment variable arming the kill switch: `kill_after=N` aborts
/// the process once `N` shards have retired; unset, empty, `0` or `off`
/// leaves it disarmed.
pub const FAULT_ENV: &str = "FNPR_FAULT";

/// Disarmed sentinel for [`KILL_AFTER`].
const KILL_DISARMED: u64 = u64::MAX;
/// Retired-shard threshold at which the process aborts.
static KILL_AFTER: AtomicU64 = AtomicU64::new(KILL_DISARMED);
/// Retired shards since the switch was last armed.
static KILL_RETIRED: AtomicU64 = AtomicU64::new(0);

/// Parses a [`FAULT_ENV`] value (`None` = unset) into the kill-switch
/// threshold.
///
/// # Errors
///
/// [`CampaignError::Spec`] on anything but a disarming value or
/// `kill_after=N`.
fn parse_kill_switch(value: Option<&str>) -> Result<Option<u64>, CampaignError> {
    let value = match value.map(str::trim) {
        None | Some("" | "0" | "off") => return Ok(None),
        Some(value) => value,
    };
    let after = value
        .split_once('=')
        .filter(|(key, _)| key.trim() == "kill_after")
        .and_then(|(_, n)| n.trim().parse().ok());
    after.map(Some).ok_or_else(|| {
        CampaignError::Spec(format!(
            "{FAULT_ENV}: expected `kill_after=N` (the only key), got {value:?}"
        ))
    })
}

/// The kill-switch threshold [`FAULT_ENV`] requests for this process.
///
/// # Errors
///
/// As [`parse_kill_switch`].
pub(crate) fn kill_after_from_env() -> Result<Option<u64>, CampaignError> {
    // fnpr-lint: allow(env_read, "crash-resume drill switch; aborting never changes a persisted result")
    let value = std::env::var(FAULT_ENV).ok();
    parse_kill_switch(value.as_deref())
}

/// Arms (or, with `None`, disarms) the kill switch: [`parallel_map`]
/// aborts the process once `after` shards have retired. Process-global —
/// intended for one CLI run at a time (the crash-resume drill), not for
/// concurrent in-process campaigns.
pub(crate) fn arm_kill_switch(after: Option<u64>) {
    KILL_RETIRED.store(0, Ordering::SeqCst);
    KILL_AFTER.store(after.unwrap_or(KILL_DISARMED), Ordering::SeqCst);
}

/// Counts one retired shard against the kill switch; aborts the process
/// (no destructors — the SIGKILL analogue) at the armed threshold. One
/// relaxed load when disarmed.
fn kill_switch_tick() {
    let limit = KILL_AFTER.load(Ordering::Relaxed);
    if limit == KILL_DISARMED {
        return;
    }
    let retired = KILL_RETIRED.fetch_add(1, Ordering::SeqCst) + 1;
    if retired >= limit {
        eprintln!(
            "fnpr-campaign: fault: aborting coordinator after {retired} retired shards \
             (kill_after = {limit})"
        );
        std::process::abort();
    }
}

/// Splits `seed` material and shard coordinates into an independent RNG
/// stream id (SplitMix64-style avalanche over the concatenation).
#[must_use]
pub fn stream_seed(tag: u64, campaign_seed: u64, words: &[u64]) -> u64 {
    stream_key128(tag, campaign_seed, words) as u64
}

/// The 128-bit key for the same derivation: memo tables and the on-disk
/// [`crate::store`] key by this, while `key as u64` recovers exactly
/// [`stream_seed`] (the hasher's 128-bit finish keeps the 64-bit value as
/// its low word) — so one derivation yields both the collision-resistant
/// cache key and the value-compatible RNG seed.
#[must_use]
pub fn stream_key128(tag: u64, campaign_seed: u64, words: &[u64]) -> u128 {
    let mut h = crate::memo::ScenarioHasher::new(tag).word(campaign_seed);
    for &w in words {
        h = h.word(w);
    }
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn maps_in_order_at_any_thread_count() {
        // Run lengths include one that does not divide the count and one
        // longer than the whole map.
        for run in [1usize, 3, 7, 150] {
            for threads in [1usize, 2, 8] {
                let out: Vec<usize> =
                    parallel_map(100, nz(threads), nz(run), |i| Ok::<_, ()>(i * i)).unwrap();
                assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn first_error_wins() {
        // Shard 3 is always claimed before any later failing shard, and a
        // claimed shard always fills its slot: the lowest error is
        // reported deterministically. With runs of 4, shard 3 fails after
        // three successes in its run, and later runs fail too (shard 10
        // mid-run in 8..12).
        for run in [1usize, 4] {
            let err = parallel_map::<(), usize, _>(50, nz(4), nz(run), |i| {
                if i % 7 == 3 {
                    Err(i)
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert_eq!(err, 3, "run {run}");
        }
    }

    #[test]
    fn kill_switch_is_inert_below_threshold_and_when_disarmed() {
        arm_kill_switch(None);
        kill_switch_tick(); // must not abort
        arm_kill_switch(Some(1_000_000));
        kill_switch_tick(); // still far below the threshold
        arm_kill_switch(None);
    }

    #[test]
    fn kill_switch_env_accepts_only_kill_after() {
        for off in [None, Some(""), Some(" "), Some("0"), Some("off")] {
            assert_eq!(parse_kill_switch(off).unwrap(), None, "{off:?}");
        }
        assert_eq!(parse_kill_switch(Some("kill_after=4")).unwrap(), Some(4));
        for bad in [
            "1",
            "on",
            "crash=0.5",
            "kill_after",
            "kill_after=x",
            "a=1,kill_after=4",
        ] {
            let err = parse_kill_switch(Some(bad)).unwrap_err().to_string();
            assert!(err.contains("kill_after"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn empty_map_is_fine() {
        for run in [1usize, 5] {
            let out: Vec<u8> = parallel_map(0, nz(2), nz(run), |_| Ok::<_, ()>(0)).unwrap();
            assert!(out.is_empty());
        }
    }

    #[test]
    fn stream_seeds_differ_per_coordinate() {
        let a = stream_seed(1, 2012, &[0, 0]);
        let b = stream_seed(1, 2012, &[0, 1]);
        let c = stream_seed(2, 2012, &[0, 0]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, stream_seed(1, 2012, &[0, 0]));
    }

    #[test]
    fn stream_key_low_word_is_the_seed() {
        for (tag, seed, words) in [
            (1u64, 2012u64, vec![0u64, 0]),
            (7, 0, vec![]),
            (2, u64::MAX, vec![3, 4, 5]),
        ] {
            let key = stream_key128(tag, seed, &words);
            assert_eq!(key as u64, stream_seed(tag, seed, &words));
            assert_ne!(key >> 64, 0, "high word should be populated");
        }
    }
}
