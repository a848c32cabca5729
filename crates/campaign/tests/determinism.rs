//! The campaign engine's headline guarantee, property-tested: the same
//! validated spec produces **bit-identical** CSV and JSON aggregates at 1,
//! 2 and 8 worker threads, for randomly drawn specs of both workloads —
//! and, with a persistent result store attached, a warm re-run of an
//! *extended* grid computes only the new points while its aggregates stay
//! byte-identical to a cold full run.

use std::collections::BTreeMap;

use fnpr_campaign::store::ResultStore;
use fnpr_campaign::{run_campaign_with_store, CampaignSpec, WorkloadKind};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

mod common;

fn render(spec: &CampaignSpec, threads: usize) -> (String, String) {
    let campaign = spec.validate().expect("generated specs are valid");
    let outcome = run_campaign_with_store(&campaign, Some(threads), None).expect("campaign runs");
    (outcome.report.to_csv(), outcome.report.to_json())
}

fn assert_thread_invariant(spec: &CampaignSpec) {
    let baseline = render(spec, 1);
    for threads in [2, 8] {
        let other = render(spec, threads);
        assert_eq!(
            baseline, other,
            "aggregates changed between 1 and {threads} threads"
        );
    }
}

fn arb_acceptance_spec() -> impl Strategy<Value = CampaignSpec> {
    (
        0u64..1000,                                 // seed
        2usize..6,                                  // sets per point
        prop::collection::vec(0.35f64..0.85, 1..3), // utilization grid
        3usize..6,                                  // tasks per set
    )
        .prop_map(|(seed, sets, utilizations, n)| {
            CampaignSpec::parse(&format!(
                r#"
name = "prop-acceptance"
seed = {seed}
workload = "acceptance"

[acceptance]
sets_per_point = {sets}
max_attempts_factor = 10
utilizations = {{ values = [{us}] }}

[acceptance.taskset]
n = {n}
utilization = 0.0
period_range = [10.0, 1000.0]
deadline_factor = [1.0, 1.0]
"#,
                us = utilizations
                    .iter()
                    .map(|u| format!("{u:.4}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            ))
            .expect("template parses")
        })
}

fn arb_soundness_spec() -> impl Strategy<Value = CampaignSpec> {
    (0u64..1000, 3usize..12, 1usize..5, 0u64..2).prop_map(|(seed, trials, per_shard, simulate)| {
        CampaignSpec::parse(&format!(
            r#"
name = "prop-soundness"
seed = {seed}
workload = "soundness"

[soundness]
trials = {trials}
trials_per_shard = {per_shard}
simulate = {}
"#,
            simulate == 1
        ))
        .expect("template parses")
    })
}

fn arb_multicore_spec() -> impl Strategy<Value = CampaignSpec> {
    (0u64..1000, 2usize..5, 0.3f64..0.6, 0u64..2).prop_map(|(seed, sets, u, simulate)| {
        CampaignSpec::parse(&format!(
            r#"
name = "prop-multicore"
seed = {seed}
workload = "multicore"

[multicore]
sets_per_point = {sets}
max_attempts_factor = 10
cores = [2]
tasks_per_core = 2
utilizations = {{ values = [{u:.4}] }}
sim_per_point = 1
simulate = {}

[multicore.taskset]
n = 1
utilization = 0.0
period_range = [10.0, 100.0]
deadline_factor = [1.0, 1.0]
"#,
            simulate == 1
        ))
        .expect("template parses")
    })
}

fn arb_cfg_spec() -> impl Strategy<Value = CampaignSpec> {
    (
        0u64..1000,               // seed
        2usize..5,                // programs per point
        1usize..4,                // depth
        0u64..17,                 // footprint
        (0.2f64..0.4, 1usize..4), // q_scales: first value, count
    )
        .prop_map(|(seed, programs, depth, footprint, (q, q_count))| {
            // 1-3 distinct q_scales, so the executor claims runs longer
            // than one shard (one run per shape and geometry).
            let qs = (0..q_count)
                .map(|k| format!("{:.4}", q + 0.25 * k as f64))
                .collect::<Vec<_>>()
                .join(", ");
            CampaignSpec::parse(&format!(
                r#"
name = "prop-cfg"
seed = {seed}
workload = "cfg"

[cfg]
programs_per_point = {programs}
depths = [{depth}]
loop_iterations = [3]
footprints = [{footprint}]
q_scales = {{ values = [{qs}] }}
sets = [16, 64]
associativity = [1]
line_bytes = [16]
reload_cost = [10.0]
"#
            ))
            .expect("template parses")
        })
}

/// Builds the acceptance spec used by the store-extension property.
fn acceptance_spec_for(seed: u64, sets: usize, utilizations: &[f64]) -> CampaignSpec {
    CampaignSpec::parse(&format!(
        r#"
name = "prop-store"
seed = {seed}
workload = "acceptance"

[acceptance]
sets_per_point = {sets}
max_attempts_factor = 10
utilizations = {{ values = [{us}] }}

[acceptance.taskset]
n = 4
utilization = 0.0
period_range = [10.0, 1000.0]
deadline_factor = [1.0, 1.0]
"#,
        us = utilizations
            .iter()
            .map(|u| format!("{u:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
    ))
    .expect("template parses")
}

/// Runs with the full telemetry stack live (counters + span/trace
/// collection), and appends the run's ledger record to `ledger` the way
/// the CLI does after a `--ledger` run. The point of the
/// telemetry-invariance property: this function and [`render`] must be
/// interchangeable.
fn render_with_telemetry(
    spec: &CampaignSpec,
    threads: usize,
    ledger: &std::path::Path,
) -> (String, String) {
    fnpr_obs::set_enabled(true);
    fnpr_obs::set_trace_collection(true);
    let campaign = spec.validate().expect("generated specs are valid");
    let outcome = run_campaign_with_store(&campaign, Some(threads), None).expect("campaign runs");
    let record = fnpr_campaign::ledger::ledger_record(&campaign, &outcome, 0.5);
    fnpr_campaign::ledger::append_record(ledger, &record).expect("ledger appends");
    let out = (outcome.report.to_csv(), outcome.report.to_json());
    // Drain the trace buffer so repeated proptest cases cannot grow it
    // without bound, and stop collecting between cases. Counters stay
    // enabled: tests in this binary run concurrently, and flipping the
    // global switch off here could drop increments another test is
    // asserting on — telemetry state must never matter for outputs, which
    // is exactly what the caller asserts.
    let events = fnpr_obs::take_trace_events();
    assert!(
        !events.is_empty(),
        "trace collection was on but no spans were recorded"
    );
    fnpr_obs::set_trace_collection(false);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Acceptance campaigns: identical aggregates at 1, 2 and 8 threads.
    #[test]
    fn acceptance_aggregates_are_thread_invariant(spec in arb_acceptance_spec()) {
        assert_thread_invariant(&spec);
    }

    /// Soundness campaigns: identical aggregates at 1, 2 and 8 threads,
    /// across shard sizes and with/without the simulator.
    #[test]
    fn soundness_aggregates_are_thread_invariant(spec in arb_soundness_spec()) {
        assert_thread_invariant(&spec);
    }

    /// Multicore campaigns: identical aggregates at 1, 2 and 8 threads —
    /// the same contract the original workloads established, covering the
    /// partitioning, global tests and m-core simulator streams.
    #[test]
    fn multicore_aggregates_are_thread_invariant(spec in arb_multicore_spec()) {
        assert_thread_invariant(&spec);
    }

    /// Telemetry is a write-only side channel: with counters, spans, trace
    /// collection AND run-ledger appends all live, CSV/JSON aggregates
    /// stay byte-identical to a telemetry-off run at 1, 2 and 8 threads.
    /// This is the contract that lets every layer instrument its hot paths
    /// without threatening the determinism guarantees above.
    #[test]
    fn telemetry_never_touches_aggregates(spec in arb_acceptance_spec()) {
        let dir = common::scratch_dir("telemetry_prop");
        let ledger = dir.join("LEDGER.jsonl");
        let baseline = render(&spec, 1);
        for threads in [1usize, 2, 8] {
            let traced = render_with_telemetry(&spec, threads, &ledger);
            prop_assert_eq!(
                &traced,
                &baseline,
                "aggregates changed with telemetry on at {} threads",
                threads
            );
        }
        // The side channel itself is healthy: three valid records of one
        // scenario, percentiles ordered and clamped to the observed max.
        let view = fnpr_campaign::ledger::read_ledger(&ledger).expect("ledger reads back");
        prop_assert_eq!(view.records.len(), 3);
        prop_assert_eq!((view.invalid, view.stale), (0, 0));
        let scenario = &view.records[0].scenario;
        for r in &view.records {
            prop_assert_eq!(&r.scenario, scenario);
            prop_assert!(r.p50_us <= r.p90_us && r.p90_us <= r.p99_us);
            prop_assert!(r.p99_us <= r.max_us as f64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// CFG campaigns: identical aggregates at 1, 2 and 8 threads — the
    /// program-generation, pipeline and memo layers (programs shared across
    /// geometry points, curves shared across Q points) must not leak
    /// scheduling into results.
    #[test]
    fn cfg_aggregates_are_thread_invariant(spec in arb_cfg_spec()) {
        assert_thread_invariant(&spec);
    }

    /// The store's headline guarantee (ISSUE 5 acceptance criterion): after
    /// a base run populates the store, a warm run of an **extended** grid —
    /// at 1, 2 and 8 threads — computes only the new points, restores every
    /// base point, and produces CSV/JSON byte-identical to a cold full run
    /// without any store. Seed derivation is unchanged by the store (same
    /// contract the thread-invariance properties pin down).
    #[test]
    fn warm_extended_grid_is_byte_identical_to_cold(
        seed in 0u64..1000,
        sets in 2usize..5,
        base_us in prop::collection::vec(0.35f64..0.55, 1..3),
        new_u in 0.56f64..0.80,
    ) {
        let dir = common::scratch_dir("store_prop");
        let path = dir.join("store.log");

        let mut extended_us = base_us.clone();
        extended_us.push(new_u); // disjoint ranges: genuinely new points
        let base = acceptance_spec_for(seed, sets, &base_us).validate().unwrap();
        let extended = acceptance_spec_for(seed, sets, &extended_us).validate().unwrap();

        // Cold reference: the full extended grid, no store.
        let reference = render(&acceptance_spec_for(seed, sets, &extended_us), 1);

        // Populate with the base grid.
        let store = ResultStore::open(&path).unwrap();
        run_campaign_with_store(&base, Some(2), Some(&store)).unwrap();

        let base_points = 2 * base_us.len() as u64; // 2 policies per utilization
        for (round, threads) in [1usize, 2, 8].into_iter().enumerate() {
            // Fresh handle per run: per-run counters over the same file.
            let store = ResultStore::open(&path).unwrap();
            let outcome =
                run_campaign_with_store(&extended, Some(threads), Some(&store)).unwrap();
            prop_assert_eq!(
                &(outcome.report.to_csv(), outcome.report.to_json()),
                &reference,
                "warm extended aggregates drifted at {} threads",
                threads
            );
            let stats = outcome.store.unwrap();
            if round == 0 {
                // First warm run: exactly the new utilization's points.
                prop_assert_eq!(stats.points_restored, base_points);
                prop_assert_eq!(stats.points_computed, 2);
            } else {
                prop_assert_eq!(stats.points_restored, base_points + 2);
                prop_assert_eq!(stats.points_computed, 0);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A cold run with no store and a warm run over the sharded directory
    /// it populated produce identical bytes — and the warm run computes
    /// nothing.
    #[test]
    fn warm_sharded_store_matches_cold(
        seed in 0u64..1000,
        sets in 2usize..4,
        u in 0.35f64..0.75,
    ) {
        let dir = common::scratch_dir("store_layout_prop");
        let spec = acceptance_spec_for(seed, sets, &[u]);
        let campaign = spec.validate().unwrap();
        let reference = render(&spec, 2);

        // Cold populate + warm re-run over the sharded directory.
        let sharded = dir.join("sharded.fnprstore");
        run_campaign_with_store(&campaign, Some(2), Some(&ResultStore::open(&sharded).unwrap()))
            .unwrap();
        let warm = run_campaign_with_store(
            &campaign,
            Some(2),
            Some(&ResultStore::open(&sharded).unwrap()),
        )
        .unwrap();
        prop_assert_eq!(
            &(warm.report.to_csv(), warm.report.to_json()),
            &reference,
            "warm sharded aggregates drifted"
        );
        prop_assert_eq!(warm.store.as_ref().unwrap().points_computed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Serde mirror of the `--metrics` snapshot document's scalar fields.
/// `fnpr-obs` writes the file from its own `Value` tree; parsing it back
/// into this separate mirror pins the format to plain standard JSON that
/// any consumer can read. Its three name-keyed maps are read from the
/// parsed tree with [`entry`].
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct MetricsDoc {
    schema_version: u64,
    label: String,
    scenario: String,
    store_path: Option<String>,
    points_total: u64,
    points_done: u64,
    elapsed_seconds: f64,
    span_count: u64,
}

/// The entry `name` of the snapshot's map `map` (`counters`, `gauges` or
/// `histograms`).
fn entry<'a>(tree: &'a Value, map: &str, name: &str) -> Option<&'a Value> {
    tree.get(map)?.get(name)
}

/// An integer entry of the snapshot's map `map`.
fn count(tree: &Value, map: &str, name: &str) -> Option<i64> {
    entry(tree, map, name).and_then(Value::as_i64)
}

/// Mirror of `fnpr_obs::HistogramSnapshot`, one `histograms` entry.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct HistogramDoc {
    count: u64,
    sum: u64,
    max: u64,
    p50: f64,
    p90: f64,
    p99: f64,
}

/// The `--metrics` JSON round-trips through the serde shim: the
/// writer's output parses into [`MetricsDoc`], survives a
/// re-serialize/re-parse cycle, and preserves every field — including a
/// label that needs JSON escaping.
#[test]
fn metrics_snapshot_round_trips_through_the_serde_shim() {
    // Five samples of 8 in bucket 4 ([8, 15]), with an observed max of 15.
    let mut buckets = [0u64; 64];
    buckets[4] = 5;
    let report = fnpr_obs::MetricsReport {
        schema_version: fnpr_obs::METRICS_SCHEMA_VERSION,
        label: "determinism \"quoted\" \\ label".to_string(),
        scenario: "59ef3a68c946026a".to_string(),
        store_path: Some("campaign.fnprstore".to_string()),
        points_total: 42,
        points_done: 40,
        elapsed_seconds: 1.25,
        span_count: 7,
        counters: BTreeMap::from([
            ("campaign.memo.hit".to_string(), 31),
            ("campaign.points.done".to_string(), 40),
        ]),
        gauges: BTreeMap::from([("campaign.points.total".to_string(), 42)]),
        histograms: BTreeMap::from([(
            "campaign.shard.points".to_string(),
            fnpr_obs::HistogramSnapshot::from_parts(5, 40, 15, &buckets),
        )]),
    };
    let json = report.to_json();
    let doc: MetricsDoc = serde_json::from_str(&json).expect("metrics JSON parses via serde");
    let tree = serde_json::parse_value(&json).expect("metrics JSON parses");
    assert_eq!(doc.schema_version, fnpr_obs::METRICS_SCHEMA_VERSION);
    assert_eq!(doc.label, report.label);
    assert_eq!(doc.scenario, "59ef3a68c946026a");
    assert_eq!(doc.store_path.as_deref(), Some("campaign.fnprstore"));
    assert_eq!((doc.points_total, doc.points_done), (42, 40));
    assert_eq!(doc.elapsed_seconds, 1.25);
    assert_eq!(doc.span_count, 7);
    assert_eq!(count(&tree, "counters", "campaign.memo.hit"), Some(31));
    assert_eq!(count(&tree, "gauges", "campaign.points.total"), Some(42));
    let hist = entry(&tree, "histograms", "campaign.shard.points").unwrap();
    let hist = HistogramDoc::from_value(hist).expect("histogram entry parses");
    assert_eq!((hist.count, hist.sum, hist.max), (5, 40, 15));
    // The percentiles survive the shim as plain numbers with the
    // histogram's ordering intact.
    assert!(hist.p50 <= hist.p90 && hist.p90 <= hist.p99);
    assert!(hist.p99 <= hist.max as f64);
    assert!(
        hist.p50 >= 8.0,
        "p50 below the sampled bucket: {}",
        hist.p50
    );
    // Fixpoint: a shim re-serialize / re-parse cycle loses nothing.
    let again: MetricsDoc = serde_json::from_str(&serde_json::to_string(&doc)).expect("re-parse");
    assert_eq!(again, doc);
    let again = serde_json::parse_value(&serde_json::value_to_string(&tree)).expect("re-parse");
    assert_eq!(again, tree);
}

/// A live-registry snapshot also parses: enable telemetry, run a real
/// campaign, and feed `MetricsReport::gather` output through the same
/// mirror — the keys instrumented across the workspace show up.
#[test]
fn gathered_metrics_parse_and_carry_campaign_counters() {
    fnpr_obs::set_enabled(true);
    let spec = CampaignSpec::parse(
        r#"
seed = 7
workload = "soundness"
[soundness]
trials = 8
trials_per_shard = 2
"#,
    )
    .unwrap();
    let campaign = spec.validate().unwrap();
    run_campaign_with_store(&campaign, Some(2), None).unwrap();
    let report = fnpr_obs::MetricsReport::gather(
        "gather-test",
        fnpr_obs::gauge("campaign.points.total").value(),
        fnpr_obs::counter("campaign.points.done").value(),
        0.25,
    )
    .with_scenario(&format!("{:016x}", campaign.scenario_hash()))
    .with_store_path(None);
    let json = report.to_json();
    let doc: MetricsDoc = serde_json::from_str(&json).expect("gathered JSON parses");
    let tree = serde_json::parse_value(&json).expect("gathered JSON parses");
    assert_eq!(doc.label, "gather-test");
    assert_eq!(doc.scenario, format!("{:016x}", campaign.scenario_hash()));
    assert_eq!(doc.store_path, None, "absent store must read back as None");
    for key in [
        "campaign.shards.claimed",
        "campaign.shards.retired",
        "campaign.points.done",
    ] {
        assert!(
            count(&tree, "counters", key).is_some_and(|v| v > 0),
            "expected live counter {key} in gathered snapshot"
        );
    }
    // The always-on shard roll-up carries live, ordered percentiles.
    let shard = entry(&tree, "histograms", "campaign.shard.micros")
        .expect("shard timing histogram in gathered snapshot");
    let shard = HistogramDoc::from_value(shard).expect("histogram entry parses");
    assert!(shard.count > 0);
    assert!(shard.p50 <= shard.p90 && shard.p90 <= shard.p99);
    assert!(shard.p99 <= shard.max as f64);
}

/// The memo layer must not leak scheduling into results: running the same
/// campaign twice in one process (warm memo) matches a cold run.
#[test]
fn warm_memo_matches_cold_run() {
    let spec = CampaignSpec::parse(
        r#"
seed = 99
workload = "acceptance"
[acceptance]
sets_per_point = 4
max_attempts_factor = 10
utilizations = { values = [0.5, 0.7] }
"#,
    )
    .unwrap();
    let cold = render(&spec, 4);
    let warm = render(&spec, 4);
    assert_eq!(cold, warm);
    assert_eq!(
        spec.validate().unwrap().workload_kind(),
        WorkloadKind::Acceptance
    );
}
