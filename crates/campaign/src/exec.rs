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
//!
//! The campaign runner starts one map per run and hands it its progress
//! label, per-point histogram and kill-switch threshold
//! (`MapSettings`); nothing here is process-global.

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

/// What one campaign run hands its map besides the work: how the map
/// reports, and when a crash-resume drill kills it. The default is a
/// silent, disarmed map.
#[derive(Default)]
pub(crate) struct MapSettings {
    /// Live progress-line label (the campaign name); `None` disables the
    /// meter.
    pub label: Option<String>,
    /// The workload's per-point wall-time histogram
    /// (`campaign.point.micros.<workload>`), recorded on top of the
    /// always-on `campaign.shard.micros` roll-up; `None` while telemetry
    /// is off.
    pub point_micros: Option<fnpr_obs::Histogram>,
    /// Kill-switch threshold ([`FAULT_ENV`]): the process aborts once this
    /// many shards have retired.
    pub kill_after: Option<u64>,
}

/// Builds the live meter for a map over `count` shards, if telemetry, the
/// progress display and a label are all present.
fn build_meter(count: usize, label: Option<&str>) -> Option<ProgressMeter> {
    if !fnpr_obs::enabled() || !fnpr_obs::progress_enabled() {
        return None;
    }
    Some(
        ProgressMeter::new(label?, count as u64)
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
/// own first failing shard). `settings` only observe the map, or abort
/// the process; they never change a result.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing shard.
///
/// # Panics
///
/// Propagates panics from `work` (the scope re-raises them on join).
pub(crate) fn parallel_map<T, E, F>(
    count: usize,
    threads: NonZeroUsize,
    run: NonZeroUsize,
    settings: &MapSettings,
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
    // workload-specific histogram when the runner passed one. Timing is
    // taken only while telemetry is enabled, so the disabled cost stays
    // one relaxed load.
    let shard_micros = fnpr_obs::histogram!("campaign.shard.micros");
    let meter = build_meter(count, settings.label.as_deref());
    let kill_switch = KillSwitch::new(settings.kill_after);

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
                        if let Some(h) = settings.point_micros {
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
                    kill_switch.tick();
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

/// The kill switch of one map: aborts the process (no destructors — the
/// SIGKILL analogue) once `after` shards have retired. Disarmed, a tick
/// costs one branch.
struct KillSwitch {
    after: Option<u64>,
    retired: AtomicU64,
}

impl KillSwitch {
    fn new(after: Option<u64>) -> Self {
        Self {
            after,
            retired: AtomicU64::new(0),
        }
    }

    /// Counts one retired shard; aborts the process at the threshold.
    fn tick(&self) {
        let Some(limit) = self.after else {
            return;
        };
        let retired = self.retired.fetch_add(1, Ordering::SeqCst) + 1;
        if retired >= limit {
            eprintln!(
                "fnpr-campaign: fault: aborting coordinator after {retired} retired shards \
                 (kill_after = {limit})"
            );
            std::process::abort();
        }
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
                    parallel_map(100, nz(threads), nz(run), &MapSettings::default(), |i| {
                        Ok::<_, ()>(i * i)
                    })
                    .unwrap();
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
            let err =
                parallel_map::<(), usize, _>(50, nz(4), nz(run), &MapSettings::default(), |i| {
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
        KillSwitch::new(None).tick(); // must not abort
        KillSwitch::new(Some(1_000_000)).tick(); // still far below the threshold
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
            let out: Vec<u8> = parallel_map(0, nz(2), nz(run), &MapSettings::default(), |_| {
                Ok::<_, ()>(0)
            })
            .unwrap();
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
