//! Result pipeline: per-shard aggregates, the campaign summary, and CSV /
//! JSON rendering.
//!
//! Everything here is a plain named-field struct so the shim serde derive
//! produces real impls; the JSON aggregate is `serde_json::to_string_pretty`
//! of [`CampaignReport`]. All floating-point aggregates are folded in shard
//! order, keeping output byte-identical across thread counts.

use std::fmt::Write as _;

use fnpr_sched::DelayMethod;
use serde::{Deserialize, Serialize};

use crate::spec::WorkloadKind;
use crate::GridWorkload;

/// One (policy × utilization) grid point of an acceptance campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceptancePoint {
    /// Policy label (`fp` / `edf`).
    pub policy: String,
    /// Total utilization of the point.
    pub utilization: f64,
    /// Task sets successfully generated (equipped and feasible).
    pub generated: usize,
    /// Generation attempts spent (includes resampling).
    pub attempts: usize,
    /// Accepted-set counts, aligned with the campaign's method list.
    pub accepted: Vec<usize>,
    /// Acceptance ratios (`accepted / generated`), same alignment.
    pub ratios: Vec<f64>,
    /// Mean Eq.4 overhead ÷ Algorithm 1 overhead over the
    /// `pessimism_gap_count` sets with measurable overhead (≥ 1 when the
    /// paper's dominance claim holds; 0 when no set qualified).
    pub pessimism_gap_mean: f64,
    /// Worst observed Eq.4 ÷ Algorithm 1 overhead ratio.
    pub pessimism_gap_max: f64,
    /// Sets contributing to `pessimism_gap_mean` (the campaign-level mean
    /// weights each point by this, not by `generated`).
    pub pessimism_gap_count: usize,
}

/// One (m × policy × allocation × utilization) grid point of a multicore
/// campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MulticorePoint {
    /// Core count.
    pub m: usize,
    /// Policy label (`fp` / `edf`).
    pub policy: String,
    /// Allocation label (`first_fit` / `worst_fit` / `best_fit` /
    /// `global`).
    pub allocation: String,
    /// *Per-core* utilization of the point (total target is `m ×` this).
    pub utilization: f64,
    /// Task sets successfully generated.
    pub generated: usize,
    /// Generation attempts spent (includes resampling).
    pub attempts: usize,
    /// Accepted-set counts, aligned with the campaign's method list.
    pub accepted: Vec<usize>,
    /// Acceptance ratios (`accepted / generated`), same alignment.
    pub ratios: Vec<f64>,
    /// Per-task Theorem 1 checks run by the m-core simulator.
    pub sim_checks: usize,
    /// Checks where the observed cumulative delay exceeded the Algorithm 1
    /// bound — expected 0.
    pub sim_violations: usize,
    /// Jobs simulated (denominator of `migrations_mean`).
    pub sim_jobs: usize,
    /// Total migrations observed across simulated jobs.
    pub sim_migrations: u64,
    /// Mean migrations per simulated job (0 when nothing was simulated;
    /// structurally 0 for partitioned allocations).
    pub migrations_mean: f64,
}

/// One grid point of a `[cfg]` campaign: generated structured programs of
/// one shape, analysed through the full Section IV pipeline under one cache
/// geometry, bounded against one `Qi` choice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CfgPoint {
    /// Human-readable shape tag (spec `tag` prefix + `d<depth>_l<loop>_f<footprint>`).
    pub shape: String,
    /// Maximum region nesting depth of the generated programs.
    pub depth: usize,
    /// Maximum loop iteration bound drawn.
    pub loop_iterations: u64,
    /// Distinct data lines in the access pool.
    pub footprint: u64,
    /// Cache sets.
    pub sets: usize,
    /// Cache ways per set.
    pub associativity: usize,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Block reload time (CRPD cost per evicted useful line).
    pub reload_cost: f64,
    /// `Qi` as a fraction of each program's WCET.
    pub q_scale: f64,
    /// Programs generated and analysed at this point.
    pub programs: usize,
    /// Mean basic-block count per program.
    pub blocks_mean: f64,
    /// Mean WCET of the reduced graphs.
    pub wcet_mean: f64,
    /// Mean peak of the derived delay curves `fi`.
    pub curve_max_mean: f64,
    /// Programs whose Algorithm 1 bound converged at this `Qi`.
    pub alg1_converged: usize,
    /// Programs whose Eq. 4 bound converged at this `Qi`.
    pub eq4_converged: usize,
    /// Mean Algorithm 1 cumulative delay over converged programs.
    pub delay_mean: f64,
    /// Mean Eq.4 ÷ Algorithm 1 delay ratio over `pessimism_count`
    /// programs (>= 1 when the paper's dominance claim holds).
    pub pessimism_mean: f64,
    /// Worst observed Eq.4 ÷ Algorithm 1 ratio.
    pub pessimism_max: f64,
    /// Programs contributing to `pessimism_mean` (both bounds converged
    /// with measurable Algorithm 1 delay).
    pub pessimism_count: usize,
    /// Programs violating the dominance ordering (Algorithm 1 above Eq. 4,
    /// or diverging where Eq. 4 converged) — expected 0.
    pub dominance_violations: usize,
}

/// One trial row of a soundness campaign (granularity follows
/// `trials_per_shard`; by default one row per trial).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoundnessRow {
    /// Trial index within the campaign.
    pub trial: usize,
    /// Region length analysed.
    pub q: f64,
    /// The unsound naive bound (paper Figure 2).
    pub naive: f64,
    /// The exact adversary's worst case.
    pub exact: f64,
    /// Algorithm 1's bound.
    pub algorithm1: f64,
    /// The Eq. 4 state-of-the-art bound.
    pub eq4: f64,
    /// Worst simulated delay (absent when simulation is off).
    pub sim_max: Option<f64>,
}

/// One shard of a soundness campaign: its rows plus streaming counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoundnessShard {
    /// First trial index of the shard.
    pub first_trial: usize,
    /// Per-trial results.
    pub rows: Vec<SoundnessRow>,
    /// Trials where the naive bound fell below the exact worst case
    /// (evidence of Figure 2's unsoundness).
    pub naive_unsound: usize,
    /// Trials violating Theorem 1 (`exact > algorithm1`) — expected 0.
    pub theorem1_violations: usize,
    /// Trials violating Eq. 4 dominance (`algorithm1 > eq4`) — expected 0.
    pub eq4_violations: usize,
    /// Trials where simulation exceeded Algorithm 1's bound — expected 0.
    pub sim_violations: usize,
    /// Sum of `algorithm1 / exact` tightness ratios (over `ratio_count`).
    pub ratio_sum: f64,
    /// Worst tightness ratio.
    pub ratio_max: f64,
    /// Trials contributing to `ratio_sum`.
    pub ratio_count: usize,
}

/// Per-run counters of the persistent result store ([`crate::store`]):
/// how many grid points/shards were restored from disk vs computed, and
/// the load-time health counts. **Deliberately not part of [`CampaignReport`]**: a warm re-run
/// must emit byte-identical CSV/JSON to a cold one, and these counters are
/// exactly what differs between the two — they render on stderr via
/// [`std::fmt::Display`] instead (`grep`-able; CI asserts a warm smoke run
/// reports `0 points computed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Grid points / shards served from the store.
    pub points_restored: u64,
    /// Grid points / shards computed (and persisted) this run.
    pub points_computed: u64,
    /// Corrupt/truncated/unknown-version lines skipped at load, plus
    /// undecodable payloads hit at lookup time.
    pub invalid_entries: u64,
    /// Well-formed lines from a different analysis fingerprint (never
    /// served; recomputed; reclaimed by `store gc`).
    pub stale_entries: u64,
    /// Failed or refused writes (I/O errors, non-round-trippable values).
    pub write_errors: u64,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Hit rates via the one shared percentage helper (`fnpr_obs`), so
        // this line and the live progress meter can never disagree on
        // rounding. CI greps pin the `N points restored, M points
        // computed` prefix — keep it stable.
        write!(
            f,
            "{} points restored, {} points computed ({:.1}% restored); \
             {} invalid, {} stale entries, {} write errors",
            self.points_restored,
            self.points_computed,
            fnpr_obs::percent(
                self.points_restored,
                self.points_restored + self.points_computed
            ),
            self.invalid_entries,
            self.stale_entries,
            self.write_errors,
        )
    }
}

/// Cross-workload campaign totals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Generated task sets (acceptance) or trials (soundness).
    pub instances: usize,
    /// Points/trials violating the paper's dominance ordering — 0 when the
    /// reproduction holds.
    pub dominance_violations: usize,
    /// Simulation runs exceeding the analytical bound — 0 when sound.
    pub sim_violations: usize,
    /// Trials where the naive bound was optimistic (soundness only).
    pub naive_unsound: usize,
    /// Mean tightness/pessimism ratio (workload-specific; see point docs).
    pub pessimism_mean: f64,
    /// Worst tightness/pessimism ratio.
    pub pessimism_max: f64,
}

/// The full campaign result: everything the CSV/JSON exports contain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign name from the spec.
    pub name: String,
    /// Which workload ran.
    pub workload: WorkloadKind,
    /// Master seed.
    pub seed: u64,
    /// Stable scenario hash (hex) — two reports with equal hashes ran
    /// identical scenarios.
    pub scenario: String,
    /// Method column labels (acceptance/multicore; empty for soundness).
    pub methods: Vec<String>,
    /// Acceptance grid points (empty for other workloads).
    pub acceptance: Vec<AcceptancePoint>,
    /// Soundness shards (empty for other workloads).
    pub soundness: Vec<SoundnessShard>,
    /// Multicore grid points (empty for other workloads).
    pub multicore: Vec<MulticorePoint>,
    /// CFG-workload grid points (empty for other workloads).
    pub cfg: Vec<CfgPoint>,
    /// Totals.
    pub summary: Summary,
}

/// One cell of a CSV row, written by [`push_row`].
enum Cell<'a> {
    /// A string field, quoted per RFC 4180 when it contains a comma,
    /// double quote, CR or LF (embedded quotes doubled). String fields in
    /// reports (policy/allocation labels, user-chosen shape tags) must go
    /// through this — an unquoted comma in a tag would shift every later
    /// column of its row.
    Text(&'a str),
    /// A count.
    Count(u64),
    /// A float aggregate at the given precision. A non-finite value is the
    /// *empty field* — the CSV twin of the JSON export's `null` (the shim
    /// serializes NaN/Inf as `null`), so the two renderings of one report
    /// can never disagree about which aggregates were undefined.
    Float(f64, usize),
}

/// Appends one CSV row, cells separated by commas and ended by a newline,
/// writing every cell straight into `out`.
fn push_row<'a>(out: &mut String, cells: impl IntoIterator<Item = Cell<'a>>) {
    for (k, cell) in cells.into_iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        match cell {
            Cell::Text(s) if s.contains([',', '"', '\n', '\r']) => {
                out.push('"');
                for (k, part) in s.split('"').enumerate() {
                    if k > 0 {
                        out.push_str("\"\"");
                    }
                    out.push_str(part);
                }
                out.push('"');
            }
            Cell::Text(s) => out.push_str(s),
            Cell::Count(n) => {
                let _ = write!(out, "{n}");
            }
            Cell::Float(x, precision) if x.is_finite() => {
                let _ = write!(out, "{x:.precision$}");
            }
            Cell::Float(..) => {}
        }
    }
    out.push('\n');
}

impl CampaignReport {
    /// Renders the campaign-canonical CSV (header + one row per grid point
    /// or trial). String fields are RFC-4180 quoted; non-finite float
    /// aggregates render as empty fields (JSON renders them as `null`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        use Cell::{Count, Float, Text};
        let count = |n: usize| Count(n as u64);
        let methods = self.methods.iter().map(String::as_str);
        let mut out = String::new();
        match self.workload {
            WorkloadKind::Acceptance => {
                let columns = ["policy", "utilization", "generated", "attempts"]
                    .into_iter()
                    .chain(methods)
                    .chain(["pessimism_gap_mean", "pessimism_gap_max"]);
                push_row(&mut out, columns.map(Text));
                for p in &self.acceptance {
                    let ratios = p.ratios.iter().map(|&r| Float(r, 4));
                    let row = [
                        Text(&p.policy),
                        Float(p.utilization, 4),
                        count(p.generated),
                        count(p.attempts),
                    ];
                    let gap = [
                        Float(p.pessimism_gap_mean, 4),
                        Float(p.pessimism_gap_max, 4),
                    ];
                    push_row(&mut out, row.into_iter().chain(ratios).chain(gap));
                }
            }
            WorkloadKind::Soundness => {
                out.push_str("trial,q,naive,exact,algorithm1,eq4,sim_max\n");
                for row in self.soundness.iter().flat_map(|shard| &shard.rows) {
                    push_row(
                        &mut out,
                        [
                            count(row.trial),
                            Float(row.q, 3),
                            Float(row.naive, 3),
                            Float(row.exact, 3),
                            Float(row.algorithm1, 3),
                            Float(row.eq4, 3),
                            Float(row.sim_max.unwrap_or(f64::NAN), 3),
                        ],
                    );
                }
            }
            WorkloadKind::Multicore => {
                let columns = ["m", "policy", "allocation", "utilization"]
                    .into_iter()
                    .chain(["generated", "attempts"])
                    .chain(methods)
                    .chain(["sim_checks", "sim_violations", "migrations_mean"]);
                push_row(&mut out, columns.map(Text));
                for p in &self.multicore {
                    let ratios = p.ratios.iter().map(|&r| Float(r, 4));
                    let row = [
                        count(p.m),
                        Text(&p.policy),
                        Text(&p.allocation),
                        Float(p.utilization, 4),
                        count(p.generated),
                        count(p.attempts),
                    ];
                    let sim = [
                        count(p.sim_checks),
                        count(p.sim_violations),
                        Float(p.migrations_mean, 4),
                    ];
                    push_row(&mut out, row.into_iter().chain(ratios).chain(sim));
                }
            }
            WorkloadKind::Cfg => {
                out.push_str(
                    "shape,depth,loop_iterations,footprint,sets,associativity,line_bytes,\
                     reload_cost,q_scale,programs,blocks_mean,wcet_mean,curve_max_mean,\
                     alg1_converged,eq4_converged,delay_mean,pessimism_mean,pessimism_max,\
                     dominance_violations\n",
                );
                for p in &self.cfg {
                    push_row(
                        &mut out,
                        [
                            Text(&p.shape),
                            count(p.depth),
                            Count(p.loop_iterations),
                            Count(p.footprint),
                            count(p.sets),
                            count(p.associativity),
                            Count(p.line_bytes),
                            Float(p.reload_cost, 2),
                            Float(p.q_scale, 4),
                            count(p.programs),
                            Float(p.blocks_mean, 2),
                            Float(p.wcet_mean, 2),
                            Float(p.curve_max_mean, 2),
                            count(p.alg1_converged),
                            count(p.eq4_converged),
                            Float(p.delay_mean, 3),
                            Float(p.pessimism_mean, 4),
                            Float(p.pessimism_max, 4),
                            count(p.dominance_violations),
                        ],
                    );
                }
            }
        }
        out
    }

    /// Renders the JSON aggregate.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self);
        s.push('\n');
        s
    }
}

/// Folds one workload's finished points, in report order, into the
/// campaign summary (deterministic at any thread count).
#[must_use]
pub fn summarize<W: GridWorkload>(params: &W, outputs: &[W::Output]) -> Summary {
    let mut summary = Summary {
        instances: 0,
        dominance_violations: 0,
        sim_violations: 0,
        naive_unsound: 0,
        pessimism_mean: 0.0,
        pessimism_max: 0.0,
    };
    params.fold(outputs, &mut summary);
    summary
}

/// Acceptance ratios `accepted / generated`, all 0 when no set was
/// generated.
pub(crate) fn acceptance_ratios(accepted: &[usize], generated: usize) -> Vec<f64> {
    accepted
        .iter()
        .map(|&a| {
            if generated == 0 {
                0.0
            } else {
                a as f64 / generated as f64
            }
        })
        .collect()
}

/// How often one point's accepted counts (aligned with `methods`) break
/// the methods' order of acceptance power: a tighter delay bound can only
/// admit more task sets, and `None` (no delay) admits the most of all.
/// Each adjacent pair of the methods present must be non-decreasing.
pub(crate) fn chain_violations(methods: &[DelayMethod], accepted: &[usize]) -> usize {
    const POWER_CHAIN: [DelayMethod; 4] = [
        DelayMethod::Eq4,
        DelayMethod::Algorithm1,
        DelayMethod::Algorithm1Capped,
        DelayMethod::None,
    ];
    let chain: Vec<usize> = POWER_CHAIN
        .iter()
        .filter_map(|m| methods.iter().position(|x| x == m))
        .collect();
    chain
        .windows(2)
        .filter(|pair| accepted[pair[1]] < accepted[pair[0]])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, Workload};

    /// The validated default parameters of `kind`.
    fn defaults(kind: WorkloadKind) -> Workload {
        let spec = CampaignSpec {
            workload: Some(kind),
            ..CampaignSpec::default()
        };
        spec.validate().unwrap().workload
    }

    /// The summary of acceptance points under the four default methods.
    fn acceptance_summary(points: &[AcceptancePoint]) -> Summary {
        match defaults(WorkloadKind::Acceptance) {
            Workload::Acceptance(params) => summarize(&params, points),
            _ => unreachable!(),
        }
    }

    fn cfg_summary(points: &[CfgPoint]) -> Summary {
        match defaults(WorkloadKind::Cfg) {
            Workload::Cfg(params) => summarize(&params, points),
            _ => unreachable!(),
        }
    }

    fn soundness_summary(shards: &[SoundnessShard]) -> Summary {
        match defaults(WorkloadKind::Soundness) {
            Workload::Soundness(params) => summarize(&params, shards),
            _ => unreachable!(),
        }
    }

    fn sample_acceptance_report() -> CampaignReport {
        let points = vec![AcceptancePoint {
            policy: "fp".into(),
            utilization: 0.5,
            generated: 10,
            attempts: 12,
            accepted: vec![10, 6, 8, 8],
            ratios: vec![1.0, 0.6, 0.8, 0.8],
            pessimism_gap_mean: 1.5,
            pessimism_gap_max: 2.0,
            pessimism_gap_count: 9,
        }];
        let methods: Vec<String> = ["no_delay", "eq4", "algorithm1", "algorithm1_capped"]
            .map(String::from)
            .to_vec();
        let summary = acceptance_summary(&points);
        CampaignReport {
            name: "t".into(),
            workload: WorkloadKind::Acceptance,
            seed: 1,
            scenario: "abcd".into(),
            methods,
            acceptance: points,
            soundness: vec![],
            multicore: vec![],
            cfg: vec![],
            summary,
        }
    }

    #[test]
    fn store_stats_display_pins_the_stderr_format() {
        // The CI smoke job greps for "8 points computed" (cold run) and
        // "8 points restored, 0 points computed" (warm run) — the exact
        // rendering of this line is load-bearing.
        let cold = StoreStats {
            points_restored: 0,
            points_computed: 8,
            invalid_entries: 0,
            stale_entries: 0,
            write_errors: 0,
        };
        let line = cold.to_string();
        assert!(
            line.contains("8 points computed"),
            "cold grep broke: {line}"
        );
        assert_eq!(
            line,
            "0 points restored, 8 points computed (0.0% restored); \
             0 invalid, 0 stale entries, 0 write errors"
        );

        let warm = StoreStats {
            points_restored: 8,
            points_computed: 0,
            invalid_entries: 1,
            stale_entries: 2,
            write_errors: 3,
        };
        let line = warm.to_string();
        assert!(
            line.contains("8 points restored, 0 points computed"),
            "warm grep broke: {line}"
        );
        assert_eq!(
            line,
            "8 points restored, 0 points computed (100.0% restored); \
             1 invalid, 2 stale entries, 3 write errors"
        );
    }

    #[test]
    fn acceptance_csv_shape() {
        let csv = sample_acceptance_report().to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "policy,utilization,generated,attempts,no_delay,eq4,algorithm1,algorithm1_capped,pessimism_gap_mean,pessimism_gap_max"
        );
        assert_eq!(
            lines.next().unwrap(),
            "fp,0.5000,10,12,1.0000,0.6000,0.8000,0.8000,1.5000,2.0000"
        );
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn json_round_trips() {
        let report = sample_acceptance_report();
        let parsed: CampaignReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    fn sample_cfg_point() -> CfgPoint {
        CfgPoint {
            shape: "d2_l4_f8".into(),
            depth: 2,
            loop_iterations: 4,
            footprint: 8,
            sets: 16,
            associativity: 1,
            line_bytes: 16,
            reload_cost: 10.0,
            q_scale: 0.5,
            programs: 6,
            blocks_mean: 7.5,
            wcet_mean: 52.0,
            curve_max_mean: 18.0,
            alg1_converged: 6,
            eq4_converged: 5,
            delay_mean: 30.0,
            pessimism_mean: 1.4,
            pessimism_max: 2.0,
            pessimism_count: 5,
            dominance_violations: 0,
        }
    }

    fn sample_cfg_report() -> CampaignReport {
        let points = vec![sample_cfg_point()];
        let summary = cfg_summary(&points);
        CampaignReport {
            name: "c".into(),
            workload: WorkloadKind::Cfg,
            seed: 1,
            scenario: "abcd".into(),
            methods: vec![],
            acceptance: vec![],
            soundness: vec![],
            multicore: vec![],
            cfg: points,
            summary,
        }
    }

    #[test]
    fn cfg_csv_shape_and_summary() {
        let report = sample_cfg_report();
        let csv = report.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "shape,depth,loop_iterations,footprint,sets,associativity,line_bytes,reload_cost,\
             q_scale,programs,blocks_mean,wcet_mean,curve_max_mean,alg1_converged,eq4_converged,\
             delay_mean,pessimism_mean,pessimism_max,dominance_violations"
        );
        assert_eq!(
            lines.next().unwrap(),
            "d2_l4_f8,2,4,8,16,1,16,10.00,0.5000,6,7.50,52.00,18.00,6,5,30.000,1.4000,2.0000,0"
        );
        assert_eq!(lines.next(), None);
        assert_eq!(report.summary.instances, 6);
        assert_eq!(report.summary.dominance_violations, 0);
        assert!((report.summary.pessimism_mean - 1.4).abs() < 1e-12);
        assert_eq!(report.summary.pessimism_max, 2.0);
        // JSON round-trips the cfg points too.
        let parsed: CampaignReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(&parsed, &report);
    }

    #[test]
    fn cfg_summary_counts_dominance_violations() {
        let mut point = sample_cfg_point();
        point.dominance_violations = 2;
        let summary = cfg_summary(&[point]);
        assert_eq!(summary.dominance_violations, 2);
    }

    #[test]
    fn csv_quotes_string_fields_per_rfc4180() {
        // A user-chosen tag containing commas, quotes and a newline must
        // not shift columns or break rows.
        let mut report = sample_cfg_report();
        report.cfg[0].shape = "sweep \"A\", 2nd\ntry:d2_l4_f8".into();
        let csv = report.to_csv();
        let header_cols = csv.lines().next().unwrap().split(',').count();
        // The row survives as one logical record: quoted field intact.
        let body = csv.split_once('\n').unwrap().1;
        assert!(
            body.starts_with("\"sweep \"\"A\"\", 2nd\ntry:d2_l4_f8\","),
            "bad quoting: {body}"
        );
        // Stripping the quoted field (it ends at the last `",`) leaves
        // exactly the remaining columns.
        let rest = body.rsplit("\",").next().unwrap();
        assert_eq!(rest.trim_end().split(',').count(), header_cols - 1);

        // Plain fields stay unquoted.
        let field = |s: &str| {
            let mut out = String::new();
            push_row(&mut out, [Cell::Text(s)]);
            out.pop();
            out
        };
        assert_eq!(field("first_fit"), "first_fit");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(field("line\nbreak"), "\"line\nbreak\"");

        // The multicore arm quotes its labels through the same helper.
        let mc = MulticorePoint {
            m: 2,
            policy: "fp,custom".into(),
            allocation: "first_fit".into(),
            utilization: 0.4,
            generated: 1,
            attempts: 1,
            accepted: vec![1],
            ratios: vec![1.0],
            sim_checks: 0,
            sim_violations: 0,
            sim_jobs: 0,
            sim_migrations: 0,
            migrations_mean: 0.0,
        };
        let report = CampaignReport {
            name: "m".into(),
            workload: WorkloadKind::Multicore,
            seed: 1,
            scenario: "abcd".into(),
            methods: vec!["no_delay".into()],
            acceptance: vec![],
            soundness: vec![],
            multicore: vec![mc],
            cfg: vec![],
            summary: acceptance_summary(&[]),
        };
        let row = report.to_csv().lines().nth(1).unwrap().to_string();
        assert!(row.starts_with("2,\"fp,custom\",first_fit,"), "row: {row}");
    }

    #[test]
    fn non_finite_aggregates_encode_as_empty_csv_and_json_null() {
        let mut report = sample_acceptance_report();
        report.acceptance[0].pessimism_gap_mean = f64::NAN;
        report.acceptance[0].pessimism_gap_max = f64::INFINITY;
        report.summary.pessimism_mean = f64::NAN;
        // CSV: the NaN/Inf columns are empty fields, not "NaN"/"inf".
        let csv = report.to_csv();
        let row = csv.lines().nth(1).unwrap();
        assert!(row.ends_with(",,"), "non-finite fields not empty: {row}");
        assert!(!csv.contains("NaN") && !csv.contains("inf"), "{csv}");
        // JSON: the same aggregates are null (shim behaviour), so the two
        // exports agree about which values were undefined.
        let json = report.to_json();
        assert!(
            json.contains("\"pessimism_gap_mean\": null"),
            "JSON kept a non-finite literal: {json}"
        );
        assert!(json.contains("\"pessimism_gap_max\": null"));
        // Column count stays intact for downstream CSV parsers.
        let header_cols = csv.lines().next().unwrap().split(',').count();
        assert_eq!(row.split(',').count(), header_cols);
    }

    #[test]
    fn summary_flags_dominance_violation() {
        let mut report = sample_acceptance_report();
        // Algorithm 1 accepting FEWER sets than Eq. 4 is a violation.
        report.acceptance[0].accepted = vec![10, 8, 6, 6];
        let summary = acceptance_summary(&report.acceptance);
        assert_eq!(summary.dominance_violations, 1);
        // An inflated method beating no-delay is also flagged.
        report.acceptance[0].accepted = vec![5, 6, 6, 6];
        let summary = acceptance_summary(&report.acceptance);
        assert!(summary.dominance_violations >= 1);
        // The canonical ordering is clean.
        report.acceptance[0].accepted = vec![10, 6, 8, 8];
        let summary = acceptance_summary(&report.acceptance);
        assert_eq!(summary.dominance_violations, 0);
    }

    #[test]
    fn soundness_summary_accumulates() {
        let shards = vec![
            SoundnessShard {
                first_trial: 0,
                rows: vec![SoundnessRow {
                    trial: 0,
                    q: 10.0,
                    naive: 1.0,
                    exact: 2.0,
                    algorithm1: 2.0,
                    eq4: 3.0,
                    sim_max: Some(1.5),
                }],
                naive_unsound: 1,
                theorem1_violations: 0,
                eq4_violations: 0,
                sim_violations: 0,
                ratio_sum: 1.0,
                ratio_max: 1.0,
                ratio_count: 1,
            },
            SoundnessShard {
                first_trial: 1,
                rows: vec![],
                naive_unsound: 2,
                theorem1_violations: 1,
                eq4_violations: 0,
                sim_violations: 1,
                ratio_sum: 2.2,
                ratio_max: 1.2,
                ratio_count: 2,
            },
        ];
        let summary = soundness_summary(&shards);
        assert_eq!(summary.instances, 1);
        assert_eq!(summary.naive_unsound, 3);
        assert_eq!(summary.dominance_violations, 1);
        assert_eq!(summary.sim_violations, 1);
        assert!((summary.pessimism_mean - (3.2 / 3.0)).abs() < 1e-12);
        assert!((summary.pessimism_max - 1.2).abs() < 1e-12);
    }
}
