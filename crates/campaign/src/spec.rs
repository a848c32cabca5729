//! Scenario specs: the serde-backed description of a campaign.
//!
//! A spec file (TOML or JSON) names a workload and its parameter grid; the
//! `fnpr-campaign run` flags hold every run setting. [`CampaignSpec`] is
//! the file as written: each workload table deserializes straight into its
//! `*Params` type, whose `Default` fills absent keys, and an unknown key is
//! a parse error. [`CampaignSpec::validate`] expands the grid axes and
//! checks every value into the [`Campaign`] the executor runs.

use std::fmt;
use std::ops::Deref;

use fnpr_multicore::Heuristic;
use fnpr_sched::{DelayMethod, Task};
use fnpr_synth::{Policy, ProgramGenParams, TaskSetParams, DATA_STRIDE};
use serde::{Deserialize, Serialize};

use crate::error::CampaignError;
use crate::memo::{hash_list, ScenarioHasher};
use crate::report::SoundnessRow;
use crate::GridWorkload;

/// Which experiment family a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Schedulability acceptance ratios over a (policy × utilization) grid
    /// (the Section V-style sweep the paper motivates).
    Acceptance,
    /// Theorem 1 / Figure 2 soundness sweep over random step curves, with
    /// optional simulator validation.
    Soundness,
    /// Multiprocessor acceptance ratios over an (m × utilization ×
    /// allocation × policy) grid, with m-core simulator soundness checks.
    Multicore,
    /// Generated structured programs through the full Section IV pipeline
    /// (compile → CRPD → delay curve → bounds), swept over cache-geometry
    /// and program-shape axes against `Qi`.
    Cfg,
}

impl WorkloadKind {
    /// The spec-file key for this workload (the `workload = "..."` value
    /// and the name of its parameter table) — also the suffix of its
    /// per-point timing histogram (`campaign.point.micros.<key>`) and the
    /// `workload` field of run-ledger records.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            WorkloadKind::Acceptance => "acceptance",
            WorkloadKind::Soundness => "soundness",
            WorkloadKind::Multicore => "multicore",
            WorkloadKind::Cfg => "cfg",
        }
    }
}

/// How tasks reach cores in the multicore workload: one of the partitioned
/// bin-packing heuristics, or global scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Allocation {
    /// Partitioned, first-fit decreasing.
    FirstFit,
    /// Partitioned, worst-fit decreasing (spreads load).
    WorstFit,
    /// Partitioned, best-fit decreasing (packs tight).
    BestFit,
    /// Global scheduling (density / BCL tests, m-core dispatcher).
    Global,
}

impl Allocation {
    /// The partitioned heuristic, or `None` for global scheduling.
    #[must_use]
    pub fn heuristic(self) -> Option<Heuristic> {
        match self {
            Allocation::FirstFit => Some(Heuristic::FirstFit),
            Allocation::WorstFit => Some(Heuristic::WorstFit),
            Allocation::BestFit => Some(Heuristic::BestFit),
            Allocation::Global => None,
        }
    }
}

/// A campaign spec as written: every key is optional ([`Campaign`] holds
/// the values that apply), and an unknown key is an error.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CampaignSpec {
    /// Campaign name, used in report headers and the run ledger (default
    /// `campaign`).
    pub name: Option<String>,
    /// Master seed. Every scenario's RNG stream is a pure function of this
    /// seed and the scenario's grid coordinates — never of thread count.
    pub seed: Option<u64>,
    /// Which workload to run. When absent and exactly one workload table
    /// (`[acceptance]` / `[soundness]` / `[multicore]` / `[cfg]`) is
    /// present, that workload is inferred; otherwise the default is
    /// acceptance.
    pub workload: Option<WorkloadKind>,
    /// The `[acceptance]` table.
    pub acceptance: Option<AcceptanceParams>,
    /// The `[soundness]` table.
    pub soundness: Option<SoundnessParams>,
    /// The `[multicore]` table.
    pub multicore: Option<MulticoreParams>,
    /// The `[cfg]` table.
    pub cfg: Option<CfgParams>,
}

/// A sweep axis: an explicit `values` list or an inclusive `start`/`stop`
/// range with `step`, which validation expands into `values` in place.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct GridSpec {
    /// Range start (inclusive).
    pub start: Option<f64>,
    /// Range stop (inclusive, up to float slack).
    pub stop: Option<f64>,
    /// Range step (> 0; default 0.1).
    pub step: Option<f64>,
    /// Explicit values (overrides the range fields).
    pub values: Option<Vec<f64>>,
}

impl GridSpec {
    /// The inclusive range `start..=stop` by `step`.
    fn range(start: f64, stop: f64, step: f64) -> Self {
        Self {
            start: Some(start),
            stop: Some(stop),
            step: Some(step),
            values: None,
        }
    }

    /// Replaces the axis by its values, naming its `key` in any error (an
    /// empty axis, a bad range, more values than the allocator grants).
    fn expand(&mut self, key: &str) -> Check {
        let grid = format!("{key}: grid");
        if let Some(values) = &self.values {
            let subject = format_args!("{grid} `values`");
            return require(!values.is_empty(), subject, "is empty");
        }
        let (Some(start), Some(stop)) = (self.start, self.stop) else {
            return Err(invalid(grid, "needs either `values` or `start`/`stop`"));
        };
        let step = self.step.unwrap_or(0.1);
        let range = format!("start {start}, stop {stop}, step {step}");
        let finite = start.is_finite() && stop.is_finite() && step.is_finite();
        let ok = finite && step > 0.0 && stop >= start;
        require(ok, format_args!("{key}: bad grid range:"), &range)?;
        let count = ((stop - start) / step + 1.5).floor() as usize;
        let mut values = Vec::new();
        if values.try_reserve_exact(count).is_err() {
            let subject = format_args!("{grid} range expands to {count} values,");
            let rule = format_args!("more than this host can allocate: {range}");
            return Err(invalid(subject, rule));
        }
        // At least `start` itself: `count >= 1` once `stop >= start`.
        let steps = (0..count).map(|i| start + step * i as f64);
        values.extend(steps.filter(|&u| u <= stop + 1e-9));
        self.values = Some(values);
        Ok(())
    }
}

impl Deref for GridSpec {
    type Target = [f64];

    /// The axis values (none for an unexpanded range).
    fn deref(&self) -> &[f64] {
        self.values.as_deref().unwrap_or_default()
    }
}

impl<'a> IntoIterator for &'a GridSpec {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The policies a task-set sweep covers by default.
const POLICIES: [Policy; 2] = [Policy::FixedPriority, Policy::Edf];

/// The WCET-inflation methods a task-set sweep compares by default.
const METHODS: [DelayMethod; 4] = [
    DelayMethod::None,
    DelayMethod::Eq4,
    DelayMethod::Algorithm1,
    DelayMethod::Algorithm1Capped,
];

/// Acceptance-ratio workload parameters: the `[acceptance]` table.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct AcceptanceParams {
    /// Random task sets per grid point (default 200).
    pub sets_per_point: usize,
    /// Resampling budget per set: at most `sets_per_point ×` this many
    /// attempts per point (default 50).
    pub max_attempts_factor: usize,
    /// Scheduling policies to sweep (default: fixed-priority and EDF).
    pub policies: Vec<Policy>,
    /// Utilization axis (default 0.3..=0.9 step 0.1).
    pub utilizations: GridSpec,
    /// WCET-inflation methods to compare (default: all four).
    pub methods: Vec<DelayMethod>,
    /// `Qi` scale relative to each task's maximum admissible region
    /// (default 0.8).
    pub q_scale: f64,
    /// Delay-curve peak as a fraction of `Qi` (default 0.6).
    pub delay_frac: f64,
    /// Task-set generation template; its `utilization` field is replaced by
    /// each grid point's value (default [`TaskSetParams::default`]).
    pub taskset: TaskSetParams,
}

impl Default for AcceptanceParams {
    fn default() -> Self {
        Self {
            sets_per_point: 200,
            max_attempts_factor: 50,
            policies: POLICIES.to_vec(),
            utilizations: GridSpec::range(0.3, 0.9, 0.1),
            methods: METHODS.to_vec(),
            q_scale: 0.8,
            delay_frac: 0.6,
            taskset: TaskSetParams::default(),
        }
    }
}

/// Soundness-sweep workload parameters: the `[soundness]` table.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct SoundnessParams {
    /// Number of random curves (default 300).
    pub trials: usize,
    /// Trials per shard — the executor's work unit and CSV row granularity
    /// (default 1: one row per trial, like the original binary).
    pub trials_per_shard: usize,
    /// Whether to validate each bound against the discrete-event simulator
    /// (default true).
    pub simulate: bool,
    /// Task length `C` range (default `[50, 400]`).
    pub c_range: (f64, f64),
    /// Step-curve segment count range, half-open (default `[2, 12)`).
    pub segments: (u64, u64),
    /// Curve max value range (default `[1, 8]`).
    pub max_value_range: (f64, f64),
    /// Slack of `Q` above the curve maximum (default `[0.5, 10]`).
    pub q_slack_range: (f64, f64),
}

impl Default for SoundnessParams {
    fn default() -> Self {
        Self {
            trials: 300,
            trials_per_shard: 1,
            simulate: true,
            c_range: (50.0, 400.0),
            segments: (2, 12),
            max_value_range: (1.0, 8.0),
            q_slack_range: (0.5, 10.0),
        }
    }
}

/// Multicore-workload parameters: the `[multicore]` table.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct MulticoreParams {
    /// Random task sets per grid point (default 60).
    pub sets_per_point: usize,
    /// Resampling budget per set (default 50 attempts).
    pub max_attempts_factor: usize,
    /// Core-count axis (default `[2, 4]`).
    pub cores: Vec<usize>,
    /// Tasks per core: `n = m × tasks_per_core` (default 3).
    pub tasks_per_core: usize,
    /// Scheduling policies to sweep (default: fixed-priority and EDF).
    pub policies: Vec<Policy>,
    /// Allocation axis (default: all three heuristics plus global).
    pub allocations: Vec<Allocation>,
    /// *Per-core* utilization axis: each set targets `m·U` total
    /// (default 0.3..=0.7 step 0.1).
    pub utilizations: GridSpec,
    /// WCET-inflation methods to compare (default: all four).
    pub methods: Vec<DelayMethod>,
    /// `Qi` scale: fraction of the admissible bound (partitioned) or of
    /// the WCET (global); default 0.8.
    pub q_scale: f64,
    /// Delay-curve peak as a fraction of `Qi` (default 0.6).
    pub delay_frac: f64,
    /// Run the m-core simulator against the Algorithm 1 per-job bound on
    /// sampled instances (default true).
    pub simulate: bool,
    /// Instances per grid point fed to the simulator (default 2).
    pub sim_per_point: usize,
    /// Simulation horizon as a multiple of the largest period (default 3).
    pub sim_horizon_factor: f64,
    /// Task-set generation template; `n` and `utilization` are replaced by
    /// the grid (default [`TaskSetParams::default`]).
    pub taskset: TaskSetParams,
}

impl Default for MulticoreParams {
    fn default() -> Self {
        Self {
            sets_per_point: 60,
            max_attempts_factor: 50,
            cores: vec![2, 4],
            tasks_per_core: 3,
            policies: POLICIES.to_vec(),
            allocations: vec![
                Allocation::FirstFit,
                Allocation::WorstFit,
                Allocation::BestFit,
                Allocation::Global,
            ],
            utilizations: GridSpec::range(0.3, 0.7, 0.1),
            methods: METHODS.to_vec(),
            q_scale: 0.8,
            delay_frac: 0.6,
            simulate: true,
            sim_per_point: 2,
            sim_horizon_factor: 3.0,
            taskset: TaskSetParams::default(),
        }
    }
}

/// CFG-workload parameters, the `[cfg]` table: generated structured
/// programs through the full pipeline, swept over program-shape axes
/// (depth × loop bound × data footprint), cache-geometry axes (sets ×
/// associativity × line size × reload cost) and a `Qi` axis.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct CfgParams {
    /// Generated programs per grid point (default 8).
    pub programs_per_point: usize,
    /// Free-form label prefixed to every row's shape tag (default none).
    /// Arbitrary text is fine — CSV output quotes it per RFC 4180.
    pub tag: String,
    /// Program nesting-depth axis (default `[2, 3]`; 0 = single block).
    pub depths: Vec<usize>,
    /// Maximum-loop-iteration axis (default `[4]`).
    pub loop_iterations: Vec<u64>,
    /// Data-footprint axis: distinct data lines per program (default
    /// `[8]`; 0 = instruction fetches only).
    pub footprints: Vec<u64>,
    /// `Qi` axis as fractions of each program's WCET (default
    /// `[0.25, 0.5]`).
    pub q_scales: GridSpec,
    /// Cache-set axis (default `[32]`).
    pub sets: Vec<usize>,
    /// Associativity axis (default `[1]`).
    pub associativity: Vec<usize>,
    /// Line-size axis in bytes (default `[16]`; at most the generator's
    /// data stride, [`DATA_STRIDE`], so footprint entries cannot alias
    /// onto one line).
    pub line_bytes: Vec<u64>,
    /// Block-reload-time axis, written `reload_cost` (default `[10.0]`).
    #[serde(rename = "reload_cost")]
    pub reload_costs: Vec<f64>,
    /// Program-generation template, the `[cfg.program]` table (default
    /// [`ProgramGenParams::default`]); the grid sets its `max_depth`,
    /// `max_loop_iterations` and `footprint_lines`.
    pub program: ProgramGenParams,
}

impl Default for CfgParams {
    fn default() -> Self {
        Self {
            programs_per_point: 8,
            tag: String::new(),
            depths: vec![2, 3],
            loop_iterations: vec![4],
            footprints: vec![8],
            q_scales: GridSpec {
                values: Some(vec![0.25, 0.5]),
                ..GridSpec::default()
            },
            sets: vec![32],
            associativity: vec![1],
            line_bytes: vec![16],
            reload_costs: vec![10.0],
            program: ProgramGenParams::default(),
        }
    }
}

/// A validated campaign: defaults applied, grids expanded, invariants
/// checked. This is what [`crate::run_campaign_with_store`] executes.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name.
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// The workload with concrete parameters.
    pub workload: Workload,
}

/// Validated workload parameters: grid axes expanded, every value checked.
#[derive(Debug, Clone)]
pub enum Workload {
    /// The `[acceptance]` table.
    Acceptance(AcceptanceParams),
    /// The `[soundness]` table.
    Soundness(SoundnessParams),
    /// The `[multicore]` table.
    Multicore(MulticoreParams),
    /// The `[cfg]` table.
    Cfg(CfgParams),
}

impl CampaignSpec {
    /// Parses a spec from TOML or JSON text, sniffing the format: anything
    /// whose first non-blank byte is `{` parses as JSON, else TOML.
    ///
    /// # Errors
    ///
    /// Propagates parse errors from either format, an unknown key among
    /// them.
    pub fn parse(text: &str) -> Result<Self, CampaignError> {
        if text.trim_start().starts_with('{') {
            Ok(serde_json::from_str(text)?)
        } else {
            Ok(toml::from_str(text)?)
        }
    }

    /// Loads and parses a spec file.
    ///
    /// # Errors
    ///
    /// I/O and parse errors.
    pub fn load(path: &std::path::Path) -> Result<Self, CampaignError> {
        Self::parse(&std::fs::read_to_string(path)?)
    }

    /// Loads, parses *and validates* a spec file, annotating semantic
    /// validation failures with the offending TOML line: the shim parser's
    /// key/line index maps the first `` `key` `` a validation message
    /// names back to where that key was written — looked up under the
    /// *active workload's* table first, so a stray `q_scale` in an unused
    /// table cannot steal the annotation. (Shape errors — wrong type,
    /// unknown variant, unknown key — are already line-annotated by the
    /// parser itself.)
    ///
    /// # Errors
    ///
    /// I/O, parse and validation errors.
    pub fn load_validated(path: &std::path::Path) -> Result<Campaign, CampaignError> {
        let text = std::fs::read_to_string(path)?;
        if text.trim_start().starts_with('{') {
            return Self::parse(&text)?.validate();
        }
        // One parse: deserialize from the spanned document's value tree.
        let (value, index) = toml::parse_document_spanned(&text)?;
        let spec: CampaignSpec =
            serde::Deserialize::from_value(&value).map_err(|e| index.annotate(e))?;
        let workload_table = spec.workload_kind().key();
        spec.validate().map_err(|e| match e {
            CampaignError::Spec(msg) => {
                let annotated = backquoted_key(&msg)
                    .and_then(|key| {
                        index
                            .line_of(&format!("{workload_table}.{key}"))
                            .map(|line| (format!("{workload_table}.{key}"), line))
                            .or_else(|| index.line_of(key).map(|line| (key.to_string(), line)))
                            .or_else(|| index.find_key(key).map(|(p, line)| (p.to_string(), line)))
                    })
                    .map(|(path, line)| format!("line {line} (key `{path}`): {msg}"));
                CampaignError::Spec(annotated.unwrap_or(msg))
            }
            other => other,
        })
    }

    /// Expands the grid axes of the workload's table (its `Default` when
    /// the table is absent) and checks every value.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spec`] describing the first problem found.
    pub fn validate(&self) -> Result<Campaign, CampaignError> {
        let workload = match self.workload_kind() {
            WorkloadKind::Acceptance => Workload::Acceptance(table(&self.acceptance).validated()?),
            WorkloadKind::Soundness => Workload::Soundness(table(&self.soundness).validated()?),
            WorkloadKind::Multicore => Workload::Multicore(table(&self.multicore).validated()?),
            WorkloadKind::Cfg => Workload::Cfg(table(&self.cfg).validated()?),
        };
        Ok(Campaign {
            name: self.name.clone().unwrap_or_else(|| "campaign".into()),
            seed: self.seed.unwrap_or(2012),
            workload,
        })
    }

    /// The `workload` key, else the one workload table present (so that
    /// `[soundness]` alone runs soundness), else acceptance.
    fn workload_kind(&self) -> WorkloadKind {
        let mut present = [
            (self.acceptance.is_some(), WorkloadKind::Acceptance),
            (self.soundness.is_some(), WorkloadKind::Soundness),
            (self.multicore.is_some(), WorkloadKind::Multicore),
            (self.cfg.is_some(), WorkloadKind::Cfg),
        ]
        .into_iter()
        .filter_map(|(present, kind)| present.then_some(kind));
        match (self.workload, present.next(), present.next()) {
            (Some(kind), ..) | (None, Some(kind), None) => kind,
            _ => WorkloadKind::Acceptance,
        }
    }
}

/// Checks the task-set sweep fields [`AcceptanceParams`] and
/// [`MulticoreParams`] share; `$axis` names the utilization axis. The
/// generator samples `period_range` and `deadline_factor`.
macro_rules! check_sweep {
    ($p:expr, $axis:expr) => {
        at_least_one("`sets_per_point`", $p.sets_per_point)?;
        non_empty("`policies`", &$p.policies)?;
        non_empty("`methods`", &$p.methods)?;
        within("`q_scale`", $p.q_scale, HALF_OPEN_UNIT, "")?;
        let convergent = " to keep analyses convergent";
        within("`delay_frac`", $p.delay_frac, OPEN_UNIT, convergent)?;
        axis_within($axis, &$p.utilizations, OPEN_UNIT)?;
        at_least_one("`max_attempts_factor`", $p.max_attempts_factor)?;
        let (ts, closed) = (&$p.taskset, "must be finite with 0 < lo <= hi");
        finite_pair("`period_range`", ts.period_range, false, closed)?;
        finite_pair("`deadline_factor`", ts.deadline_factor, false, closed)?;
    };
}

impl AcceptanceParams {
    /// Expands the utilization axis and checks every value.
    fn validated(mut self) -> Result<Self, CampaignError> {
        self.utilizations.expand("`utilizations`")?;
        check_sweep!(self, "utilization grid");
        let n = self.taskset.n;
        at_least_one("taskset `n`", n)?;
        allocatable::<Task>(Some(n), format_args!("taskset `n` = {n}"), "one task set")?;
        Ok(self)
    }
}

impl MulticoreParams {
    /// Expands the utilization axis and checks every value.
    fn validated(mut self) -> Result<Self, CampaignError> {
        self.utilizations.expand("`utilizations`")?;
        counts("`cores`", &self.cores, "core counts")?;
        let per_core = self.tasks_per_core;
        at_least_one("`tasks_per_core`", per_core)?;
        // A set on the most cores holds `m × tasks_per_core` tasks.
        let m = self.cores.iter().copied().max().unwrap_or_default();
        let subject = format_args!("`tasks_per_core` = {per_core} on {m} cores");
        allocatable::<Task>(m.checked_mul(per_core), subject, "one task set")?;
        non_empty("`allocations`", &self.allocations)?;
        let horizon = self.sim_horizon_factor;
        let rule = format_args!("must be positive, got {horizon}");
        let ok = horizon.is_finite() && horizon > 0.0;
        require(ok, "`sim_horizon_factor`", rule)?;
        check_sweep!(self, "per-core utilization grid");
        Ok(self)
    }
}

impl SoundnessParams {
    /// Checks every value.
    fn validated(self) -> Result<Self, CampaignError> {
        at_least_one("`trials`", self.trials)?;
        at_least_one("`trials_per_shard`", self.trials_per_shard)?;
        let open = "must satisfy 0 < lo < hi < inf";
        finite_pair("`c_range`", self.c_range, true, open)?;
        finite_pair("`max_value_range`", self.max_value_range, true, open)?;
        finite_pair("`q_slack_range`", self.q_slack_range, true, open)?;
        let (lo, hi) = self.segments;
        let rule = format_args!("must satisfy 1 <= lo < hi, got ({lo}, {hi})");
        require(lo >= 1 && hi > lo, "`segments`", rule)?;
        // Every segment start past `Q` is a candidate of both oracles, so a
        // curve with more segments than their budget cannot be bounded.
        let budget = fnpr_core::DEFAULT_MAX_CANDIDATES as u64;
        let rule = format_args!(
            "draws at most hi - 1 segments, which must not exceed the oracles' candidate \
             budget {budget}, got ({lo}, {hi})"
        );
        require(hi - 1 <= budget, "`segments`", rule)?;
        // The run holds one row per trial and at most one shard per trial.
        let subject = format_args!("`trials` = {}", self.trials);
        allocatable::<(usize, SoundnessRow)>(Some(self.trials), subject, "its shards and rows")?;
        Ok(self)
    }
}

impl CfgParams {
    /// Expands the `Qi` axis and checks every value.
    fn validated(mut self) -> Result<Self, CampaignError> {
        self.q_scales.expand("`q_scales`")?;
        let p = &self.program;
        at_least_one("`programs_per_point`", self.programs_per_point)?;
        non_empty("`depths`", &self.depths)?;
        // Program size grows like fan^depth (fan-out max_sequence for
        // sequences, 2 for branches): refuse sizes that hang or OOM a run.
        let branches = if p.branch_probability > 0.0 { 2 } else { 0 };
        let fan = p.max_sequence.max(branches);
        for &d in &self.depths {
            // Generation recurses once per level, so depth is bounded too.
            let rule = format_args!("value {d} exceeds the maximum nesting depth 64");
            require(d <= 64, "`depths`", rule)?;
            let nodes = (fan as f64).powi(d as i32);
            let rule = format_args!(
                "value {d} with region fan-out {fan} (max_sequence {}, branches 2-way) expands \
                 to ~{nodes:.0} statement nodes per program; keep fan^depth <= 1e6",
                p.max_sequence
            );
            require(nodes <= 1e6, "`depths`", rule)?;
        }
        counts("`loop_iterations`", &self.loop_iterations, "bounds")?;
        non_empty("`footprints`", &self.footprints)?;
        axis_within("`q_scales`", &self.q_scales, HALF_OPEN_UNIT)?;
        counts("`sets`", &self.sets, "set counts")?;
        // The cache analysis of a point holds three words per cache set.
        let sets = self.sets.iter().copied().max().unwrap_or_default();
        let subject = format_args!("`sets` value {sets}");
        allocatable::<[usize; 3]>(Some(sets), subject, "the cache analysis")?;
        counts("`associativity`", &self.associativity, "way counts")?;
        counts("`line_bytes`", &self.line_bytes, "line sizes")?;
        // A line wider than the pool's stride aliases footprint entries.
        if let Some(&line) = self.line_bytes.iter().find(|&&l| l > DATA_STRIDE) {
            let rule = format_args!(
                "value {line} exceeds the generator's data stride ({DATA_STRIDE}); distinct \
                 footprint lines would alias onto one cache line"
            );
            return Err(invalid("`line_bytes`", rule));
        }
        let costs = &self.reload_costs;
        let ok = !costs.is_empty() && costs.iter().all(|&b| b.is_finite() && b >= 0.0);
        let rule = "must be a non-empty list of finite costs >= 0";
        require(ok, "`reload_cost`", rule)?;
        at_least_one("`max_sequence`", p.max_sequence)?;
        let rule = "must satisfy 0 < lo < hi";
        finite_pair("`cost_range`", p.cost_range, true, rule)?;
        let (bp, lp) = (p.branch_probability, p.loop_probability);
        let ok = bp >= 0.0 && lp >= 0.0 && bp + lp <= 1.0;
        let rule = format_args!("must stay within [0, 1], got {bp} + {lp}");
        require(ok, "`branch_probability` + `loop_probability`", rule)?;
        at_least_one("`block_bytes`", p.block_bytes)?;
        let (lo, hi) = p.accesses_per_block;
        let rule = format_args!("must satisfy lo <= hi, got ({lo}, {hi})");
        require(lo <= hi, "`accesses_per_block`", rule)?;
        Ok(self)
    }
}

impl Campaign {
    /// The workload discriminant (for reports and dispatch).
    #[must_use]
    pub fn workload_kind(&self) -> WorkloadKind {
        match self.workload {
            Workload::Acceptance(_) => WorkloadKind::Acceptance,
            Workload::Soundness(_) => WorkloadKind::Soundness,
            Workload::Multicore(_) => WorkloadKind::Multicore,
            Workload::Cfg(_) => WorkloadKind::Cfg,
        }
    }

    /// A stable structural hash of everything that determines results:
    /// the campaign id in reports. Each
    /// workload hashes its kind, its [`GridWorkload::template`] and its
    /// axis lists.
    #[must_use]
    pub fn scenario_hash(&self) -> u64 {
        let h = ScenarioHasher::new(0x4341_4d50) // "CAMP"
            .str(&self.name)
            .word(self.seed);
        let h = match &self.workload {
            // The acceptance axes predate length prefixes.
            Workload::Acceptance(a) => {
                let h = a.template(h.word(1));
                let h = a.policies.iter().fold(h, |h, &p| h.word(policy_tag(p)));
                let h = a.methods.iter().fold(h, |h, &m| h.word(method_tag(m)));
                a.utilizations.iter().fold(h, |h, &u| h.f64(u))
            }
            Workload::Soundness(s) => s.template(h.word(2).word(s.trials as u64)),
            Workload::Multicore(mc) => {
                let h = mc.template(h.word(3));
                let h = hash_list(h, &mc.cores, |h, m| h.word(m as u64));
                let h = hash_list(h, &mc.policies, |h, p| h.word(policy_tag(p)));
                let h = hash_list(h, &mc.allocations, |h, a| h.word(allocation_tag(a)));
                let h = hash_list(h, &mc.methods, |h, m| h.word(method_tag(m)));
                hash_list(h, &mc.utilizations, ScenarioHasher::f64)
            }
            Workload::Cfg(c) => {
                let h = c.template(h.word(4));
                let h = hash_list(h, &c.depths, |h, d| h.word(d as u64));
                let h = hash_list(h, &c.loop_iterations, ScenarioHasher::word);
                let h = hash_list(h, &c.footprints, ScenarioHasher::word);
                let h = hash_list(h, &c.q_scales, ScenarioHasher::f64);
                let h = hash_list(h, &c.sets, |h, s| h.word(s as u64));
                let h = hash_list(h, &c.associativity, |h, a| h.word(a as u64));
                let h = hash_list(h, &c.line_bytes, ScenarioHasher::word);
                hash_list(h, &c.reload_costs, ScenarioHasher::f64)
            }
        };
        h.finish()
    }
}

/// The outcome of one validation check.
type Check = Result<(), CampaignError>;

/// An interval whose ends are open `(`/`)` or closed `[`/`]`, printed the
/// way validation messages show it.
#[derive(Clone, Copy)]
struct Interval(char, f64, f64, char);

const OPEN_UNIT: Interval = Interval('(', 0.0, 1.0, ')');
const HALF_OPEN_UNIT: Interval = Interval('(', 0.0, 1.0, ']');

impl Interval {
    fn contains(self, x: f64) -> bool {
        let Self(open, lo, hi, close) = self;
        (x > lo || open == '[' && x == lo) && (x < hi || close == ']' && x == hi)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}, {}{}", self.0, self.1, self.2, self.3)
    }
}

/// Words every validation message: `subject`, mostly a backquoted key
/// (mapped to its line by [`CampaignSpec::load_validated`]), then `rule`.
fn invalid(subject: impl fmt::Display, rule: impl fmt::Display) -> CampaignError {
    CampaignError::Spec(format!("{subject} {rule}"))
}

/// [`invalid`] unless `ok`.
fn require(ok: bool, subject: impl fmt::Display, rule: impl fmt::Display) -> Check {
    ok.then_some(()).ok_or_else(|| invalid(subject, rule))
}

/// A count `>= 1`.
fn at_least_one<T: Default + PartialEq>(key: &str, n: T) -> Check {
    require(n != T::default(), key, "must be >= 1")
}

/// A non-empty list.
fn non_empty<T>(key: &str, list: &[T]) -> Check {
    require(!list.is_empty(), key, "must be non-empty")
}

/// A non-empty list of counts `>= 1`, which `what` names.
fn counts<T: Default + PartialEq>(key: &str, list: &[T], what: &str) -> Check {
    let ok = !list.is_empty() && !list.contains(&T::default());
    let rule = format_args!("must be a non-empty list of {what} >= 1");
    require(ok, key, rule)
}

/// A value in `range`; `note` follows the interval in the message.
fn within(key: &str, x: f64, range: Interval, note: &str) -> Check {
    let rule = format_args!("must be in {range}{note}, got {x}");
    require(range.contains(x), key, rule)
}

/// Every value of an axis in `range`.
fn axis_within(subject: &str, values: &[f64], range: Interval) -> Check {
    match values.iter().find(|&&x| !range.contains(x)) {
        Some(x) => Err(invalid(format_args!("{subject} value {x} outside"), range)),
        None => Ok(()),
    }
}

/// A finite `(lo, hi)` pair with `0 < lo` and `lo < hi` (`lo <= hi` when
/// not `strict`), which `rule` words.
fn finite_pair(key: &str, (lo, hi): (f64, f64), strict: bool, rule: &str) -> Check {
    let ordered = if strict { lo < hi } else { lo <= hi };
    let ok = lo.is_finite() && hi.is_finite() && lo > 0.0 && ordered;
    require(ok, key, format_args!("{rule}, got ({lo}, {hi})"))
}

/// Room for `n` values of `T` (`None`: a count that overflows), which a
/// run would abort on failing to allocate: `subject` needs it for `what`.
fn allocatable<T>(n: Option<usize>, subject: impl fmt::Display, what: &str) -> Check {
    let fits = n.is_some_and(|n| Vec::<T>::new().try_reserve_exact(n).is_ok());
    let rule = format_args!("needs more memory for {what} than this host can allocate");
    require(fits, subject, rule)
}

/// A workload table as written, or its `Default` when absent.
fn table<T: Clone + Default>(table: &Option<T>) -> T {
    table.clone().unwrap_or_default()
}

/// The first `` `key` ``-quoted token of a validation message.
fn backquoted_key(msg: &str) -> Option<&str> {
    let start = msg.find('`')? + 1;
    let end = msg[start..].find('`')? + start;
    (start < end).then(|| &msg[start..end])
}

/// A stable tag per policy (used in hashes and RNG stream derivation —
/// the single source for the 11/13 alphabet).
#[must_use]
pub fn policy_tag(p: Policy) -> u64 {
    match p {
        Policy::FixedPriority => 11,
        Policy::Edf => 13,
    }
}

/// A stable tag per allocation strategy (used in hashes and RNG stream
/// derivation).
#[must_use]
pub fn allocation_tag(a: Allocation) -> u64 {
    match a {
        Allocation::FirstFit => 21,
        Allocation::WorstFit => 22,
        Allocation::BestFit => 23,
        Allocation::Global => 24,
    }
}

/// Human-readable CSV labels for allocation strategies.
#[must_use]
pub fn allocation_label(a: Allocation) -> &'static str {
    match a {
        Allocation::FirstFit => "first_fit",
        Allocation::WorstFit => "worst_fit",
        Allocation::BestFit => "best_fit",
        Allocation::Global => "global",
    }
}

/// A stable tag per delay method (used in hashes and RNG stream
/// derivation).
#[must_use]
pub fn method_tag(m: DelayMethod) -> u64 {
    match m {
        DelayMethod::None => 1,
        DelayMethod::Eq4 => 2,
        DelayMethod::Algorithm1 => 3,
        DelayMethod::Algorithm1Capped => 4,
    }
}

/// Human-readable CSV labels for methods (the acceptance and multicore
/// CSV column names).
#[must_use]
pub fn method_label(m: DelayMethod) -> &'static str {
    match m {
        DelayMethod::None => "no_delay",
        DelayMethod::Eq4 => "eq4",
        DelayMethod::Algorithm1 => "algorithm1",
        DelayMethod::Algorithm1Capped => "algorithm1_capped",
    }
}

/// Human-readable CSV labels for policies.
#[must_use]
pub fn policy_label(p: Policy) -> &'static str {
    match p {
        Policy::FixedPriority => "fp",
        Policy::Edf => "edf",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_range_expansion_is_inclusive() {
        let mut values = GridSpec::range(0.3, 0.9, 0.1);
        values.expand("`u`").unwrap();
        assert_eq!(values.len(), 7);
        assert!((values[0] - 0.3).abs() < 1e-12);
        assert!((values[6] - 0.9).abs() < 1e-9);
    }

    #[test]
    fn grid_rejects_degenerate_ranges() {
        for (start, stop, step) in [
            (f64::NAN, 0.9, 0.1),
            (0.3, f64::NAN, 0.1),
            (0.3, 0.9, f64::NAN),
            (0.3, 0.9, 0.0),
            (0.3, 0.9, f64::INFINITY),
            (0.9, 0.3, 0.1),
        ] {
            let mut grid = GridSpec::range(start, stop, step);
            assert!(
                grid.expand("`u`").is_err(),
                "accepted {start}..{stop} step {step}"
            );
        }
    }

    #[test]
    fn grid_explicit_values_win() {
        let mut grid = GridSpec {
            values: Some(vec![0.42]),
            ..GridSpec::range(0.0, 1.0, 0.5)
        };
        grid.expand("`u`").unwrap();
        assert_eq!(*grid, [0.42]);
    }

    #[test]
    fn toml_spec_round_trip() {
        let text = r#"
name = "smoke"
seed = 7
workload = "acceptance"

[acceptance]
sets_per_point = 10
policies = ["fixed_priority", "edf"]
methods = ["none", "eq4", "algorithm1"]
utilizations = { values = [0.5, 0.6] }

[acceptance.taskset]
n = 4
utilization = 0.5
period_range = [10.0, 100.0]
deadline_factor = [1.0, 1.0]
"#;
        let spec = CampaignSpec::parse(text).unwrap();
        let campaign = spec.validate().unwrap();
        assert_eq!(campaign.name, "smoke");
        assert_eq!(campaign.seed, 7);
        let Workload::Acceptance(a) = &campaign.workload else {
            panic!("expected acceptance");
        };
        assert_eq!(a.sets_per_point, 10);
        assert_eq!(a.policies, vec![Policy::FixedPriority, Policy::Edf]);
        assert_eq!(a.methods.len(), 3);
        assert_eq!(*a.utilizations, [0.5, 0.6]);
        assert_eq!(a.taskset.n, 4);
    }

    #[test]
    fn json_spec_parses_too() {
        let spec = CampaignSpec::parse(r#"{"workload": "soundness", "soundness": {"trials": 5}}"#)
            .unwrap();
        let campaign = spec.validate().unwrap();
        let Workload::Soundness(s) = &campaign.workload else {
            panic!("expected soundness");
        };
        assert_eq!(s.trials, 5);
        assert!(s.simulate);
    }

    #[test]
    fn json_spec_strings_decode_surrogate_pairs() {
        let spec = CampaignSpec::parse(
            r#"{"name": "emoji \ud83d\ude00", "workload": "soundness", "soundness": {"trials": 5}}"#,
        )
        .unwrap();
        assert_eq!(spec.validate().unwrap().name, "emoji \u{1f600}");
        // A lone or reversed surrogate is a spec error, not U+FFFD.
        for name in [r"\ud83d", r"\ude00", r"\ude00\ud83d", r"x\ud83d y"] {
            let text = format!(r#"{{"name": "{name}", "workload": "soundness"}}"#);
            let err = CampaignSpec::parse(&text).unwrap_err().to_string();
            assert!(err.contains("surrogate"), "{name}: {err}");
        }
    }

    #[test]
    fn defaults_validate() {
        let campaign = CampaignSpec::default().validate().unwrap();
        assert_eq!(campaign.seed, 2012);
        let Workload::Acceptance(a) = &campaign.workload else {
            panic!("default workload is acceptance");
        };
        assert_eq!(a.sets_per_point, 200);
        assert_eq!(a.utilizations.len(), 7);
        assert_eq!(a.methods.len(), 4);
    }

    /// A `[<workload>.taskset]` table with the given period range and
    /// deadline factors (the table needs every field).
    fn taskset_table(workload: &str, period_range: &str, deadline_factor: &str) -> String {
        format!(
            "workload = \"{workload}\"\n[{workload}.taskset]\nn = 3\nutilization = 0.5\n\
             period_range = {period_range}\ndeadline_factor = {deadline_factor}\n"
        )
    }

    #[test]
    fn rejects_bad_specs() {
        let spec = CampaignSpec {
            acceptance: Some(AcceptanceParams {
                delay_frac: 1.5,
                ..AcceptanceParams::default()
            }),
            ..CampaignSpec::default()
        };
        assert!(spec.validate().is_err());

        let spec = CampaignSpec {
            workload: Some(WorkloadKind::Soundness),
            soundness: Some(SoundnessParams {
                trials: 0,
                ..SoundnessParams::default()
            }),
            ..CampaignSpec::default()
        };
        assert!(spec.validate().is_err());

        // Values the generators cannot sample (a panic in a worker) or
        // would silently degrade must fail validation, naming the key.
        for (text, key) in [
            (
                taskset_table("acceptance", "[10.0, 1000.0]", "[1.0, 0.5]"),
                "deadline_factor",
            ),
            (
                taskset_table("acceptance", "[0.0, 1000.0]", "[1.0, 1.0]"),
                "period_range",
            ),
            (
                "[acceptance]\nmax_attempts_factor = 0\n".into(),
                "max_attempts_factor",
            ),
            ("[soundness]\nc_range = [50.0, inf]\n".into(), "c_range"),
            (
                "[soundness]\ntrials_per_shard = 0\n".into(),
                "trials_per_shard",
            ),
            (
                "[soundness]\ntrials = 2\nsegments = [1, 100000000000]\nsimulate = false\n".into(),
                "segments",
            ),
            // Sizes no allocator grants: the shard grid and the rows.
            (
                "[soundness]\ntrials = 100000000000000\nsimulate = false\n".into(),
                "trials",
            ),
            (
                "[soundness]\ntrials = 100000000000000\ntrials_per_shard = 100000000000000\n\
                 simulate = false\n"
                    .into(),
                "trials",
            ),
            (
                "[acceptance]\nutilizations = { start = 0.1, stop = 0.9, step = 1e-15 }\n".into(),
                "utilizations",
            ),
            // A task count no allocator grants, or one that overflows.
            (
                "[acceptance.taskset]\nn = 100000000000\nutilization = 0.5\n\
                 period_range = [10.0, 1000.0]\ndeadline_factor = [1.0, 1.0]\n"
                    .into(),
                "`n`",
            ),
            (
                "[multicore]\ncores = [4]\ntasks_per_core = 4611686018427387904\n".into(),
                "tasks_per_core",
            ),
            ("[cfg]\nsets = [1000000000000]\n".into(), "sets"),
        ] {
            let err = CampaignSpec::parse(&text).unwrap().validate().unwrap_err();
            assert!(err.to_string().contains(key), "{text:?}: {err}");
        }
    }

    #[test]
    fn unknown_keys_are_refused_by_name() {
        // Each of these once ran on defaults, its key dropped unread.
        for (text, frame) in [
            (
                r#"{"workload": "soundness", "soundness": {"trails": 5}}"#,
                "SoundnessParams.trails",
            ),
            (
                "[acceptence]\nsets_per_point = 3\n",
                "CampaignSpec.acceptence",
            ),
            (
                "workload = \"cfg\"\n[cfg.program]\nmax_depth = 9\n",
                "ProgramGenParams.max_depth",
            ),
            ("[cfg]\nreload_costs = [1.0]\n", "CfgParams.reload_costs"),
            (
                "[multicore]\nutilizations = { values = [0.5], stp = 0.1 }\n",
                "GridSpec.stp",
            ),
            (
                "[acceptance.taskset]\nn = 3\nutilization = 0.5\nperiod_range = [1.0, 2.0]\n\
                 deadline_factor = [1.0, 1.0]\nperiods = [1.0]\n",
                "TaskSetParams.periods",
            ),
            // Run settings are `fnpr-campaign run` flags, not spec keys.
            ("threads = 2\n", "CampaignSpec.threads"),
            ("[output]\ncsv = \"x.csv\"\n", "CampaignSpec.output"),
            ("[store]\npath = \"s\"\n", "CampaignSpec.store"),
            ("[telemetry]\nprogress = false\n", "CampaignSpec.telemetry"),
        ] {
            let err = CampaignSpec::parse(text).unwrap_err().to_string();
            assert!(
                err.contains(&format!("{frame}: unknown key")),
                "{text:?}: {err}"
            );
            // A TOML spec's error also names the line.
            assert!(text.starts_with('{') || err.contains("line "), "{err}");
        }
        // A key spelled with a dash or a capital is placed on its own line.
        for key in ["sets-per-point", "Sets_per_point"] {
            let text = format!("[acceptance]\nq_scale = 0.5\n{key} = 3\n");
            let err = CampaignSpec::parse(&text).unwrap_err().to_string();
            let at = format!("line 3 (key `acceptance.{key}`)");
            assert!(err.contains(&at), "{err}");
        }
    }

    #[test]
    fn multicore_spec_round_trip() {
        let text = r#"
name = "mc"
seed = 3
workload = "multicore"

[multicore]
sets_per_point = 12
cores = [2, 4]
tasks_per_core = 2
allocations = ["first_fit", "global"]
utilizations = { values = [0.4, 0.6] }
methods = ["none", "algorithm1"]
simulate = false
"#;
        let campaign = CampaignSpec::parse(text).unwrap().validate().unwrap();
        let Workload::Multicore(m) = &campaign.workload else {
            panic!("expected multicore");
        };
        assert_eq!(m.sets_per_point, 12);
        assert_eq!(m.cores, vec![2, 4]);
        assert_eq!(m.tasks_per_core, 2);
        assert_eq!(
            m.allocations,
            vec![Allocation::FirstFit, Allocation::Global]
        );
        assert_eq!(*m.utilizations, [0.4, 0.6]);
        assert_eq!(m.methods.len(), 2);
        assert!(!m.simulate);
        assert_eq!(campaign.workload_kind(), WorkloadKind::Multicore);
    }

    #[test]
    fn multicore_defaults_validate() {
        let spec = CampaignSpec {
            workload: Some(WorkloadKind::Multicore),
            ..CampaignSpec::default()
        };
        let Workload::Multicore(m) = spec.validate().unwrap().workload else {
            panic!("expected multicore");
        };
        assert_eq!(m.cores, vec![2, 4]);
        assert_eq!(m.allocations.len(), 4);
        assert_eq!(m.methods.len(), 4);
        assert!(m.simulate);
    }

    #[test]
    fn workload_is_inferred_from_a_lone_table() {
        // `[soundness]` alone must not silently run an acceptance campaign.
        let spec = CampaignSpec::parse("[soundness]\ntrials = 5\n").unwrap();
        assert_eq!(
            spec.validate().unwrap().workload_kind(),
            WorkloadKind::Soundness
        );
        let spec = CampaignSpec::parse("[multicore]\nsets_per_point = 3\n").unwrap();
        assert_eq!(
            spec.validate().unwrap().workload_kind(),
            WorkloadKind::Multicore
        );
        let spec = CampaignSpec::parse("[cfg]\nprograms_per_point = 3\n").unwrap();
        assert_eq!(spec.validate().unwrap().workload_kind(), WorkloadKind::Cfg);
        // An explicit `workload` key always wins over the tables.
        let spec =
            CampaignSpec::parse("workload = \"acceptance\"\n[soundness]\ntrials = 5\n").unwrap();
        assert_eq!(
            spec.validate().unwrap().workload_kind(),
            WorkloadKind::Acceptance
        );
    }

    #[test]
    fn unknown_workload_names_the_valid_kinds() {
        let err = CampaignSpec::parse("workload = \"multicre\"\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("multicre"), "offending value absent: {msg}");
        for kind in ["acceptance", "soundness", "multicore", "cfg"] {
            assert!(msg.contains(kind), "valid kind {kind} absent: {msg}");
        }
        // And the toml line index points at the offending line.
        assert!(msg.contains("line 1"), "line annotation absent: {msg}");
    }

    #[test]
    fn multicore_rejects_bad_specs() {
        for text in [
            "workload = \"multicore\"\n[multicore]\ncores = []\n",
            "workload = \"multicore\"\n[multicore]\ncores = [0]\n",
            "workload = \"multicore\"\n[multicore]\ntasks_per_core = 0\n",
            "workload = \"multicore\"\n[multicore]\nutilizations = { values = [1.5] }\n",
            "workload = \"multicore\"\n[multicore]\nsim_horizon_factor = 0.0\n",
            &taskset_table("multicore", "[10.0, 1000.0]", "[2.0, 1.0]"),
            &taskset_table("multicore", "[0.0, 1000.0]", "[1.0, 1.0]"),
            "workload = \"multicore\"\n[multicore]\nmax_attempts_factor = 0\n",
        ] {
            let spec = CampaignSpec::parse(text).unwrap();
            assert!(spec.validate().is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn cfg_spec_round_trip() {
        let text = r#"
name = "cfg"
seed = 3
workload = "cfg"

[cfg]
programs_per_point = 5
tag = "sweep A"
depths = [1, 2]
loop_iterations = [3, 6]
footprints = [0, 8]
q_scales = { values = [0.3, 0.6] }
sets = [16, 64]
associativity = [1, 2]
line_bytes = [16]
reload_cost = [5.0, 10.0]

[cfg.program]
max_sequence = 2
cost_range = [2.0, 12.0]
branch_probability = 0.4
loop_probability = 0.3
block_bytes = 32
accesses_per_block = [0, 2]
"#;
        let campaign = CampaignSpec::parse(text).unwrap().validate().unwrap();
        let Workload::Cfg(c) = &campaign.workload else {
            panic!("expected cfg");
        };
        assert_eq!(c.programs_per_point, 5);
        assert_eq!(c.tag, "sweep A");
        assert_eq!(c.depths, vec![1, 2]);
        assert_eq!(c.loop_iterations, vec![3, 6]);
        assert_eq!(c.footprints, vec![0, 8]);
        assert_eq!(*c.q_scales, [0.3, 0.6]);
        assert_eq!(c.sets, vec![16, 64]);
        assert_eq!(c.associativity, vec![1, 2]);
        assert_eq!(c.line_bytes, vec![16]);
        assert_eq!(c.reload_costs, vec![5.0, 10.0]);
        assert_eq!(c.program.max_sequence, 2);
        assert_eq!(c.program.cost_range, (2.0, 12.0));
        assert_eq!(c.program.block_bytes, 32);
        assert_eq!(c.program.accesses_per_block, (0, 2));
        assert_eq!(campaign.workload_kind(), WorkloadKind::Cfg);
    }

    #[test]
    fn cfg_defaults_validate() {
        let spec = CampaignSpec {
            workload: Some(WorkloadKind::Cfg),
            ..CampaignSpec::default()
        };
        let Workload::Cfg(c) = spec.validate().unwrap().workload else {
            panic!("expected cfg");
        };
        assert_eq!(c.programs_per_point, 8);
        assert_eq!(c.depths, vec![2, 3]);
        assert_eq!(*c.q_scales, [0.25, 0.5]);
        assert_eq!(c.sets, vec![32]);
        assert!(c.tag.is_empty());
    }

    #[test]
    fn cfg_rejects_bad_specs() {
        for text in [
            "workload = \"cfg\"\n[cfg]\nprograms_per_point = 0\n",
            "workload = \"cfg\"\n[cfg]\ndepths = []\n",
            "workload = \"cfg\"\n[cfg]\nloop_iterations = [0]\n",
            "workload = \"cfg\"\n[cfg]\nq_scales = { values = [1.5] }\n",
            "workload = \"cfg\"\n[cfg]\nsets = [0]\n",
            "workload = \"cfg\"\n[cfg]\nassociativity = []\n",
            "workload = \"cfg\"\n[cfg]\nline_bytes = [0]\n",
            "workload = \"cfg\"\n[cfg]\nline_bytes = [128]\n",
            "workload = \"cfg\"\n[cfg]\ndepths = [30]\n",
            // Branch fan-out (2-way) must count even when max_sequence = 1.
            "workload = \"cfg\"\n[cfg]\ndepths = [24]\n[cfg.program]\nmax_sequence = 1\nbranch_probability = 1.0\nloop_probability = 0.0\n",
            // Recursion depth is bounded even at fan-out 1 (node count 1).
            "workload = \"cfg\"\n[cfg]\ndepths = [500000]\n[cfg.program]\nmax_sequence = 1\nbranch_probability = 0.0\nloop_probability = 0.0\n",
            "workload = \"cfg\"\n[cfg]\nreload_cost = [-1.0]\n",
            "workload = \"cfg\"\n[cfg]\n[cfg.program]\ncost_range = [5.0, 2.0]\n",
            "workload = \"cfg\"\n[cfg]\n[cfg.program]\nbranch_probability = 0.8\nloop_probability = 0.4\n",
            "workload = \"cfg\"\n[cfg]\n[cfg.program]\naccesses_per_block = [3, 1]\n",
        ] {
            let spec = CampaignSpec::parse(text).unwrap();
            assert!(spec.validate().is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn cfg_hash_tracks_every_axis() {
        let base = "workload = \"cfg\"\n[cfg]\n";
        let hash = |body: &str| {
            CampaignSpec::parse(&format!("{base}{body}"))
                .unwrap()
                .validate()
                .unwrap()
                .scenario_hash()
        };
        let reference = hash("");
        for body in [
            "programs_per_point = 9\n",
            "tag = \"x\"\n",
            "depths = [2]\n",
            "loop_iterations = [5]\n",
            "footprints = [9]\n",
            "q_scales = { values = [0.5] }\n",
            "sets = [64]\n",
            "associativity = [2]\n",
            "line_bytes = [32]\n",
            "reload_cost = [2.0]\n",
        ] {
            assert_ne!(reference, hash(body), "axis change not hashed: {body}");
        }
        assert_eq!(reference, hash("")); // stable
    }

    #[test]
    fn load_validated_points_semantic_errors_at_their_line() {
        let dir = std::env::temp_dir().join("fnpr_campaign_spec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_q_scale.toml");
        std::fs::write(
            &path,
            "workload = \"acceptance\"\n\n[acceptance]\nq_scale = 1.5\n",
        )
        .unwrap();
        let err = CampaignSpec::load_validated(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 4"), "line annotation absent: {msg}");
        assert!(msg.contains("q_scale"), "key absent: {msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_validated_prefers_the_active_workload_table() {
        // A valid q_scale in the *unused* acceptance table must not steal
        // the annotation from the offending multicore one.
        let dir = std::env::temp_dir().join("fnpr_campaign_spec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("two_tables.toml");
        std::fs::write(
            &path,
            "workload = \"multicore\"\n\n[acceptance]\nq_scale = 0.5\n\n[multicore]\nq_scale = 1.5\n",
        )
        .unwrap();
        let err = CampaignSpec::load_validated(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 7"), "wrong line: {msg}");
        assert!(msg.contains("`multicore.q_scale`"), "wrong key: {msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multicore_hash_axes_cannot_alias() {
        // cores=[2, 11] + policies=[edf] vs cores=[2] + policies=[fp, edf]:
        // without length separators both would feed the hasher ...2,11,13...
        let parse = |text: &str| {
            CampaignSpec::parse(text)
                .unwrap()
                .validate()
                .unwrap()
                .scenario_hash()
        };
        let a =
            parse("workload = \"multicore\"\n[multicore]\ncores = [2, 11]\npolicies = [\"edf\"]\n");
        let b = parse(
            "workload = \"multicore\"\n[multicore]\ncores = [2]\npolicies = [\"fixed_priority\", \"edf\"]\n",
        );
        assert_ne!(a, b);
    }

    #[test]
    fn backquoted_key_extraction() {
        assert_eq!(
            backquoted_key("`q_scale` must be in (0, 1]"),
            Some("q_scale")
        );
        assert_eq!(backquoted_key("no keys here"), None);
        assert_eq!(backquoted_key("empty `` quotes"), None);
    }

    #[test]
    fn spec_json_round_trip_preserves_the_scenario() {
        // A spec serialized to JSON (the other accepted spec syntax) must
        // validate to the same scenario: serialize → parse → validate.
        let spec = CampaignSpec::parse(
            "name = \"wire\"\nseed = 99\nworkload = \"multicore\"\n\
             [multicore]\nsets_per_point = 5\ncores = [2]\ntasks_per_core = 2\n\
             utilizations = { values = [0.4] }\n",
        )
        .unwrap();
        let json = serde_json::to_string(&spec);
        let reparsed = CampaignSpec::parse(&json).unwrap();
        let a = spec.validate().unwrap();
        let b = reparsed.validate().unwrap();
        assert_eq!(a.scenario_hash(), b.scenario_hash());
        assert_eq!(a.name, b.name);
    }

    #[test]
    fn scenario_hash_tracks_inputs_not_outputs() {
        let base = CampaignSpec {
            seed: Some(1),
            ..CampaignSpec::default()
        };
        let a = base.validate().unwrap().scenario_hash();
        assert_eq!(a, base.validate().unwrap().scenario_hash());
        let mut other_seed = base;
        other_seed.seed = Some(2);
        assert_ne!(a, other_seed.validate().unwrap().scenario_hash());
    }
}
