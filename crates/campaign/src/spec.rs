//! Scenario specs: the serde-backed description of a campaign.
//!
//! A spec file (TOML or JSON) names a workload, its parameter grid, and
//! where to put the results. [`CampaignSpec`] is the raw deserialized
//! form — almost everything optional — and [`Campaign`] is the validated
//! form with defaults applied, which the executor consumes.

use fnpr_multicore::Heuristic;
use fnpr_sched::DelayMethod;
use fnpr_synth::{Policy, ProgramGenParams, TaskSetParams};
use serde::{Deserialize, Serialize};

use crate::error::CampaignError;
use crate::memo::{hash_list, ScenarioHasher};
use crate::report::SoundnessRow;
use crate::GridWorkload;

/// Which experiment family a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Schedulability acceptance ratios over a (policy × utilization) grid
    /// (the experiment `acceptance_ratio` motivates; paper Section V).
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

/// Raw deserialized campaign spec (everything optional; see [`Campaign`]
/// for the defaults).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name, used in report headers and default output paths.
    pub name: Option<String>,
    /// Master seed. Every scenario's RNG stream is a pure function of this
    /// seed and the scenario's grid coordinates — never of thread count.
    pub seed: Option<u64>,
    /// Worker threads (CLI `--threads` overrides; default: all cores).
    pub threads: Option<usize>,
    /// Which workload to run. When absent and exactly one workload table
    /// (`[acceptance]` / `[soundness]` / `[multicore]` / `[cfg]`) is
    /// present, that workload is inferred; otherwise the default is
    /// acceptance.
    pub workload: Option<WorkloadKind>,
    /// Acceptance-workload parameters.
    pub acceptance: Option<AcceptanceSpec>,
    /// Soundness-workload parameters.
    pub soundness: Option<SoundnessSpec>,
    /// Multicore-workload parameters.
    pub multicore: Option<MulticoreSpec>,
    /// CFG-workload parameters.
    pub cfg: Option<CfgSpec>,
    /// Output locations.
    pub output: Option<OutputSpec>,
    /// Persistent result store ([`crate::store`]).
    pub store: Option<StoreSpec>,
    /// Observability settings ([`TelemetrySpec`]).
    pub telemetry: Option<TelemetrySpec>,
}

/// A one-dimensional sweep axis: either an explicit `values` list or an
/// inclusive `start`/`stop` range with `step`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GridSpec {
    /// Range start (inclusive).
    pub start: Option<f64>,
    /// Range stop (inclusive, up to float slack).
    pub stop: Option<f64>,
    /// Range step (> 0).
    pub step: Option<f64>,
    /// Explicit values (overrides the range fields).
    pub values: Option<Vec<f64>>,
}

impl GridSpec {
    /// Expands the axis into concrete values.
    ///
    /// # Errors
    ///
    /// Rejects empty axes, non-positive steps, reversed ranges and ranges
    /// with more values than the allocator can hold.
    pub fn expand(&self) -> Result<Vec<f64>, CampaignError> {
        if let Some(values) = &self.values {
            if values.is_empty() {
                return Err(CampaignError::Spec("grid `values` is empty".into()));
            }
            return Ok(values.clone());
        }
        let (Some(start), Some(stop)) = (self.start, self.stop) else {
            return Err(CampaignError::Spec(
                "grid needs either `values` or `start`/`stop`".into(),
            ));
        };
        let step = self.step.unwrap_or(0.1);
        if !start.is_finite()
            || !stop.is_finite()
            || !step.is_finite()
            || step <= 0.0
            || stop < start
        {
            return Err(CampaignError::Spec(format!(
                "bad grid range: start {start}, stop {stop}, step {step}"
            )));
        }
        let count = ((stop - start) / step + 1.5).floor() as usize;
        let mut values = try_vec(count).ok_or_else(|| {
            CampaignError::Spec(format!(
                "grid range expands to {count} values, more than this host can allocate: \
                 start {start}, stop {stop}, step {step}"
            ))
        })?;
        values.extend(
            (0..count)
                .map(|i| start + step * i as f64)
                .filter(|&u| u <= stop + 1e-9),
        );
        if values.is_empty() {
            return Err(CampaignError::Spec(format!(
                "grid range expanded to no values: start {start}, stop {stop}, step {step}"
            )));
        }
        Ok(values)
    }
}

/// Acceptance-ratio workload parameters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AcceptanceSpec {
    /// Random task sets per grid point (default 200).
    pub sets_per_point: Option<usize>,
    /// Resampling budget per set: at most `sets_per_point ×` this many
    /// attempts per point (default 50).
    pub max_attempts_factor: Option<usize>,
    /// Scheduling policies to sweep (default: fixed-priority and EDF).
    pub policies: Option<Vec<Policy>>,
    /// Utilization axis (default 0.3..=0.9 step 0.1).
    pub utilizations: Option<GridSpec>,
    /// WCET-inflation methods to compare (default: all four).
    pub methods: Option<Vec<DelayMethod>>,
    /// `Qi` scale relative to each task's maximum admissible region
    /// (default 0.8).
    pub q_scale: Option<f64>,
    /// Delay-curve peak as a fraction of `Qi` (default 0.6).
    pub delay_frac: Option<f64>,
    /// Task-set generation template; its `utilization` field is replaced by
    /// each grid point's value (default [`TaskSetParams::default`]).
    pub taskset: Option<TaskSetParams>,
}

/// Soundness-sweep workload parameters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SoundnessSpec {
    /// Number of random curves (default 300).
    pub trials: Option<usize>,
    /// Trials per shard — the executor's work unit and CSV row granularity
    /// (default 1: one row per trial, like the original binary).
    pub trials_per_shard: Option<usize>,
    /// Whether to validate each bound against the discrete-event simulator
    /// (default true).
    pub simulate: Option<bool>,
    /// Task length `C` range (default `[50, 400]`).
    pub c_range: Option<(f64, f64)>,
    /// Step-curve segment count range, half-open (default `[2, 12)`).
    pub segments: Option<(u64, u64)>,
    /// Curve max value range (default `[1, 8]`).
    pub max_value_range: Option<(f64, f64)>,
    /// Slack of `Q` above the curve maximum (default `[0.5, 10]`).
    pub q_slack_range: Option<(f64, f64)>,
}

/// Multicore-workload parameters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MulticoreSpec {
    /// Random task sets per grid point (default 60).
    pub sets_per_point: Option<usize>,
    /// Resampling budget per set (default 50 attempts).
    pub max_attempts_factor: Option<usize>,
    /// Core-count axis (default `[2, 4]`).
    pub cores: Option<Vec<usize>>,
    /// Tasks per core: `n = m × tasks_per_core` (default 3).
    pub tasks_per_core: Option<usize>,
    /// Scheduling policies to sweep (default: fixed-priority and EDF).
    pub policies: Option<Vec<Policy>>,
    /// Allocation axis (default: all three heuristics plus global).
    pub allocations: Option<Vec<Allocation>>,
    /// *Per-core* utilization axis: each set targets `m·U` total
    /// (default 0.3..=0.7 step 0.1).
    pub utilizations: Option<GridSpec>,
    /// WCET-inflation methods to compare (default: all four).
    pub methods: Option<Vec<DelayMethod>>,
    /// `Qi` scale: fraction of the admissible bound (partitioned) or of
    /// the WCET (global); default 0.8.
    pub q_scale: Option<f64>,
    /// Delay-curve peak as a fraction of `Qi` (default 0.6).
    pub delay_frac: Option<f64>,
    /// Run the m-core simulator against the Algorithm 1 per-job bound on
    /// sampled instances (default true).
    pub simulate: Option<bool>,
    /// Instances per grid point fed to the simulator (default 2).
    pub sim_per_point: Option<usize>,
    /// Simulation horizon as a multiple of the largest period (default 3).
    pub sim_horizon_factor: Option<f64>,
    /// Task-set generation template; `n` and `utilization` are replaced by
    /// the grid (default [`TaskSetParams::default`]).
    pub taskset: Option<TaskSetParams>,
}

/// CFG-workload parameters: generated structured programs through the full
/// pipeline, swept over program-shape axes (depth × loop bound × data
/// footprint), cache-geometry axes (sets × associativity × line size ×
/// reload cost) and a `Qi` axis.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CfgSpec {
    /// Generated programs per grid point (default 8).
    pub programs_per_point: Option<usize>,
    /// Free-form label prefixed to every row's shape tag (default none).
    /// Arbitrary text is fine — CSV output quotes it per RFC 4180.
    pub tag: Option<String>,
    /// Program nesting-depth axis (default `[2, 3]`; 0 = single block).
    pub depths: Option<Vec<usize>>,
    /// Maximum-loop-iteration axis (default `[4]`).
    pub loop_iterations: Option<Vec<u64>>,
    /// Data-footprint axis: distinct data lines per program (default
    /// `[8]`; 0 = instruction fetches only).
    pub footprints: Option<Vec<u64>>,
    /// `Qi` axis as fractions of each program's WCET (default
    /// `[0.25, 0.5]`).
    pub q_scales: Option<GridSpec>,
    /// Cache-set axis (default `[32]`).
    pub sets: Option<Vec<usize>>,
    /// Associativity axis (default `[1]`).
    pub associativity: Option<Vec<usize>>,
    /// Line-size axis in bytes (default `[16]`; at most the generator's
    /// data stride, [`fnpr_synth::DATA_STRIDE`], so footprint entries
    /// cannot alias onto one line).
    pub line_bytes: Option<Vec<u64>>,
    /// Block-reload-time axis (default `[10.0]`).
    pub reload_cost: Option<Vec<f64>>,
    /// Program-generation template; `max_depth`, `max_loop_iterations` and
    /// `footprint_lines` are replaced by the grid axes.
    pub program: Option<ProgramSpec>,
}

/// Optional overrides for the non-axis program-generation parameters (see
/// [`fnpr_synth::ProgramGenParams`] for the semantics and defaults).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProgramSpec {
    /// Maximum children of a sequence region.
    pub max_sequence: Option<usize>,
    /// Per-block execution-time range.
    pub cost_range: Option<(f64, f64)>,
    /// Probability of a region being a branch.
    pub branch_probability: Option<f64>,
    /// Probability of a region being a loop.
    pub loop_probability: Option<f64>,
    /// Code bytes per basic block.
    pub block_bytes: Option<u64>,
    /// Inclusive range of data accesses per basic block.
    pub accesses_per_block: Option<(usize, usize)>,
}

/// Where to write results. Relative paths resolve against the working
/// directory of the `fnpr-campaign` process.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OutputSpec {
    /// CSV aggregate path (`-` or absent: stdout).
    pub csv: Option<String>,
    /// JSON aggregate path (absent: not emitted unless `--json` is given).
    pub json: Option<String>,
}

/// The persistent, content-addressed result store ([`crate::store`]):
/// finished grid points, and nothing else, are appended here keyed by
/// structural scenario hashes, so warm re-runs and grid *extensions*
/// restore previously measured points instead of recomputing them
/// (aggregates stay byte-identical either way). The CLI's `--store` flag
/// overrides the path; restored/computed counts print on stderr.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StoreSpec {
    /// Store directory path (relative paths resolve against the working
    /// directory). Required when the `[store]` table is present.
    pub path: Option<String>,
}

/// Optional observability settings (the `fnpr-obs` side channel): where to
/// write the metrics snapshot and Chrome trace, and whether to paint the
/// live progress line. The CLI's `--metrics`/`--trace-out` flags override
/// the paths. Like `[output]` and `[store]`, telemetry is **not** part of
/// [`Campaign::scenario_hash`] — observing a run cannot change what it
/// computes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TelemetrySpec {
    /// Metrics-snapshot JSON path (absent: not emitted unless `--metrics`
    /// is given).
    pub metrics: Option<String>,
    /// Chrome trace-event JSON path (absent: spans are counted but not
    /// buffered unless `--trace-out` is given).
    pub trace: Option<String>,
    /// Run-ledger path (`LEDGER.jsonl`; absent: no run record is appended
    /// unless `--ledger` is given). See [`crate::ledger`] and the
    /// `fnpr-campaign history` subcommand.
    pub ledger: Option<String>,
    /// Live stderr progress line (default true; `--quiet` suppresses).
    pub progress: Option<bool>,
}

/// A validated campaign: defaults applied, grids expanded, invariants
/// checked. This is what [`crate::run_campaign`] executes.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name.
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Spec-requested worker threads, if any.
    pub threads: Option<usize>,
    /// The workload with concrete parameters.
    pub workload: Workload,
    /// Output locations (raw; the CLI applies them).
    pub output: OutputSpec,
    /// Result-store path, when the spec enables persistence. Like the
    /// outputs, this is **not** part of [`Campaign::scenario_hash`] — where
    /// results are cached cannot change what they are.
    pub store_path: Option<String>,
    /// Observability settings (raw; the CLI applies them). Excluded from
    /// [`Campaign::scenario_hash`] like the outputs and the store path.
    pub telemetry: TelemetrySpec,
}

/// Validated workload parameters.
#[derive(Debug, Clone)]
pub enum Workload {
    /// See [`AcceptanceSpec`].
    Acceptance(AcceptanceParams),
    /// See [`SoundnessSpec`].
    Soundness(SoundnessParams),
    /// See [`MulticoreSpec`].
    Multicore(MulticoreParams),
    /// See [`CfgSpec`].
    Cfg(CfgParams),
}

/// Validated acceptance parameters (no options left).
#[derive(Debug, Clone)]
pub struct AcceptanceParams {
    /// Task sets per grid point.
    pub sets_per_point: usize,
    /// Attempt budget multiplier.
    pub max_attempts_factor: usize,
    /// Policies axis.
    pub policies: Vec<Policy>,
    /// Utilization axis.
    pub utilizations: Vec<f64>,
    /// Methods compared at every point.
    pub methods: Vec<DelayMethod>,
    /// `Qi` scale.
    pub q_scale: f64,
    /// Curve peak fraction of `Qi`.
    pub delay_frac: f64,
    /// Generation template (utilization replaced per point).
    pub taskset: TaskSetParams,
}

/// Validated soundness parameters (no options left).
#[derive(Debug, Clone)]
pub struct SoundnessParams {
    /// Trial count.
    pub trials: usize,
    /// Executor work unit.
    pub trials_per_shard: usize,
    /// Simulator validation on/off.
    pub simulate: bool,
    /// `C` range.
    pub c_range: (f64, f64),
    /// Segment count range (half-open).
    pub segments: (u64, u64),
    /// Curve max value range.
    pub max_value_range: (f64, f64),
    /// `Q` slack range.
    pub q_slack_range: (f64, f64),
}

/// Validated multicore parameters (no options left).
#[derive(Debug, Clone)]
pub struct MulticoreParams {
    /// Task sets per grid point.
    pub sets_per_point: usize,
    /// Attempt budget per set.
    pub max_attempts_factor: usize,
    /// Core-count axis.
    pub cores: Vec<usize>,
    /// Tasks per core.
    pub tasks_per_core: usize,
    /// Policies axis.
    pub policies: Vec<Policy>,
    /// Allocation axis.
    pub allocations: Vec<Allocation>,
    /// Per-core utilization axis.
    pub utilizations: Vec<f64>,
    /// Methods compared at every point.
    pub methods: Vec<DelayMethod>,
    /// `Qi` scale.
    pub q_scale: f64,
    /// Curve peak fraction of `Qi`.
    pub delay_frac: f64,
    /// Simulator validation on/off.
    pub simulate: bool,
    /// Simulated instances per point.
    pub sim_per_point: usize,
    /// Horizon multiple of the largest period.
    pub sim_horizon_factor: f64,
    /// Generation template (`n`/`utilization` replaced per point).
    pub taskset: TaskSetParams,
}

/// Validated CFG-workload parameters (no options left).
#[derive(Debug, Clone)]
pub struct CfgParams {
    /// Programs per grid point.
    pub programs_per_point: usize,
    /// User label prefixed to shape tags (may be empty).
    pub tag: String,
    /// Depth axis.
    pub depths: Vec<usize>,
    /// Loop-iteration axis.
    pub loop_iterations: Vec<u64>,
    /// Footprint axis.
    pub footprints: Vec<u64>,
    /// `Qi` axis (fractions of WCET).
    pub q_scales: Vec<f64>,
    /// Cache-set axis.
    pub sets: Vec<usize>,
    /// Associativity axis.
    pub associativity: Vec<usize>,
    /// Line-size axis.
    pub line_bytes: Vec<u64>,
    /// Reload-cost axis.
    pub reload_costs: Vec<f64>,
    /// Generation template (axis fields replaced per point).
    pub program: ProgramGenParams,
}

impl CampaignSpec {
    /// Parses a spec from TOML or JSON text, sniffing the format: anything
    /// whose first non-blank byte is `{` parses as JSON, else TOML.
    ///
    /// # Errors
    ///
    /// Propagates parse errors from either format.
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
    /// unknown variant — are already line-annotated by the parser itself.)
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
        let workload_table = spec
            .workload
            .or_else(|| spec.inferred_workload())
            .unwrap_or(WorkloadKind::Acceptance)
            .key();
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

    /// Applies defaults and checks invariants.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spec`] describing the first problem found.
    pub fn validate(&self) -> Result<Campaign, CampaignError> {
        let workload = match self.workload.or_else(|| self.inferred_workload()) {
            Some(WorkloadKind::Acceptance) | None => {
                Workload::Acceptance(self.validate_acceptance()?)
            }
            Some(WorkloadKind::Soundness) => Workload::Soundness(self.validate_soundness()?),
            Some(WorkloadKind::Multicore) => Workload::Multicore(self.validate_multicore()?),
            Some(WorkloadKind::Cfg) => Workload::Cfg(self.validate_cfg()?),
        };
        if let Some(0) = self.threads {
            return Err(CampaignError::Spec("`threads` must be >= 1".into()));
        }
        let store_path = match &self.store {
            None => None,
            Some(store) => match &store.path {
                Some(path) if !path.trim().is_empty() => Some(path.clone()),
                _ => {
                    return Err(CampaignError::Spec(
                        "`path` is required in the [store] table (a store with \
                         nowhere to live cannot cache anything)"
                            .into(),
                    ))
                }
            },
        };
        Ok(Campaign {
            name: self.name.clone().unwrap_or_else(|| "campaign".into()),
            seed: self.seed.unwrap_or(2012),
            threads: self.threads,
            workload,
            output: self.output.clone().unwrap_or_default(),
            store_path,
            telemetry: self.telemetry.clone().unwrap_or_default(),
        })
    }

    /// Infers the workload from which parameter table is present, when the
    /// `workload` key is absent and exactly one table is given — writing
    /// `[soundness]` alone should not silently run an acceptance campaign.
    fn inferred_workload(&self) -> Option<WorkloadKind> {
        let present = [
            self.acceptance
                .is_some()
                .then_some(WorkloadKind::Acceptance),
            self.soundness.is_some().then_some(WorkloadKind::Soundness),
            self.multicore.is_some().then_some(WorkloadKind::Multicore),
            self.cfg.is_some().then_some(WorkloadKind::Cfg),
        ];
        let mut it = present.into_iter().flatten();
        match (it.next(), it.next()) {
            (Some(kind), None) => Some(kind),
            _ => None,
        }
    }

    fn validate_acceptance(&self) -> Result<AcceptanceParams, CampaignError> {
        let a = self.acceptance.clone().unwrap_or_default();
        let params = AcceptanceParams {
            sets_per_point: a.sets_per_point.unwrap_or(200),
            max_attempts_factor: a.max_attempts_factor.unwrap_or(50),
            policies: a
                .policies
                .unwrap_or_else(|| vec![Policy::FixedPriority, Policy::Edf]),
            utilizations: expand_axis(
                "utilizations",
                &a.utilizations.unwrap_or(GridSpec {
                    start: Some(0.3),
                    stop: Some(0.9),
                    step: Some(0.1),
                    values: None,
                }),
            )?,
            methods: a.methods.unwrap_or_else(|| {
                vec![
                    DelayMethod::None,
                    DelayMethod::Eq4,
                    DelayMethod::Algorithm1,
                    DelayMethod::Algorithm1Capped,
                ]
            }),
            q_scale: a.q_scale.unwrap_or(0.8),
            delay_frac: a.delay_frac.unwrap_or(0.6),
            taskset: a.taskset.unwrap_or_default(),
        };
        if params.sets_per_point == 0 {
            return Err(CampaignError::Spec("`sets_per_point` must be >= 1".into()));
        }
        if params.policies.is_empty() {
            return Err(CampaignError::Spec("`policies` must be non-empty".into()));
        }
        if params.methods.is_empty() {
            return Err(CampaignError::Spec("`methods` must be non-empty".into()));
        }
        if !(params.q_scale > 0.0 && params.q_scale <= 1.0) {
            return Err(CampaignError::Spec(format!(
                "`q_scale` must be in (0, 1], got {}",
                params.q_scale
            )));
        }
        if !(params.delay_frac > 0.0 && params.delay_frac < 1.0) {
            return Err(CampaignError::Spec(format!(
                "`delay_frac` must be in (0, 1) to keep analyses convergent, got {}",
                params.delay_frac
            )));
        }
        for &u in &params.utilizations {
            if !(u > 0.0 && u < 1.0) {
                return Err(CampaignError::Spec(format!(
                    "utilization grid value {u} outside (0, 1)"
                )));
            }
        }
        if params.taskset.n == 0 {
            return Err(CampaignError::Spec("taskset `n` must be >= 1".into()));
        }
        validate_taskset(&params.taskset, params.max_attempts_factor)?;
        Ok(params)
    }

    fn validate_multicore(&self) -> Result<MulticoreParams, CampaignError> {
        let m = self.multicore.clone().unwrap_or_default();
        let params = MulticoreParams {
            sets_per_point: m.sets_per_point.unwrap_or(60),
            max_attempts_factor: m.max_attempts_factor.unwrap_or(50),
            cores: m.cores.unwrap_or_else(|| vec![2, 4]),
            tasks_per_core: m.tasks_per_core.unwrap_or(3),
            policies: m
                .policies
                .unwrap_or_else(|| vec![Policy::FixedPriority, Policy::Edf]),
            allocations: m.allocations.unwrap_or_else(|| {
                vec![
                    Allocation::FirstFit,
                    Allocation::WorstFit,
                    Allocation::BestFit,
                    Allocation::Global,
                ]
            }),
            utilizations: expand_axis(
                "utilizations",
                &m.utilizations.unwrap_or(GridSpec {
                    start: Some(0.3),
                    stop: Some(0.7),
                    step: Some(0.1),
                    values: None,
                }),
            )?,
            methods: m.methods.unwrap_or_else(|| {
                vec![
                    DelayMethod::None,
                    DelayMethod::Eq4,
                    DelayMethod::Algorithm1,
                    DelayMethod::Algorithm1Capped,
                ]
            }),
            q_scale: m.q_scale.unwrap_or(0.8),
            delay_frac: m.delay_frac.unwrap_or(0.6),
            simulate: m.simulate.unwrap_or(true),
            sim_per_point: m.sim_per_point.unwrap_or(2),
            sim_horizon_factor: m.sim_horizon_factor.unwrap_or(3.0),
            taskset: m.taskset.unwrap_or_default(),
        };
        if params.sets_per_point == 0 {
            return Err(CampaignError::Spec("`sets_per_point` must be >= 1".into()));
        }
        if params.cores.is_empty() || params.cores.contains(&0) {
            return Err(CampaignError::Spec(
                "`cores` must be a non-empty list of core counts >= 1".into(),
            ));
        }
        if params.tasks_per_core == 0 {
            return Err(CampaignError::Spec("`tasks_per_core` must be >= 1".into()));
        }
        if params.policies.is_empty() {
            return Err(CampaignError::Spec("`policies` must be non-empty".into()));
        }
        if params.allocations.is_empty() {
            return Err(CampaignError::Spec(
                "`allocations` must be non-empty".into(),
            ));
        }
        if params.methods.is_empty() {
            return Err(CampaignError::Spec("`methods` must be non-empty".into()));
        }
        if !(params.q_scale > 0.0 && params.q_scale <= 1.0) {
            return Err(CampaignError::Spec(format!(
                "`q_scale` must be in (0, 1], got {}",
                params.q_scale
            )));
        }
        if !(params.delay_frac > 0.0 && params.delay_frac < 1.0) {
            return Err(CampaignError::Spec(format!(
                "`delay_frac` must be in (0, 1) to keep analyses convergent, got {}",
                params.delay_frac
            )));
        }
        for &u in &params.utilizations {
            if !(u > 0.0 && u < 1.0) {
                return Err(CampaignError::Spec(format!(
                    "per-core utilization grid value {u} outside (0, 1)"
                )));
            }
        }
        if !(params.sim_horizon_factor.is_finite() && params.sim_horizon_factor > 0.0) {
            return Err(CampaignError::Spec(format!(
                "`sim_horizon_factor` must be positive, got {}",
                params.sim_horizon_factor
            )));
        }
        validate_taskset(&params.taskset, params.max_attempts_factor)?;
        Ok(params)
    }

    fn validate_cfg(&self) -> Result<CfgParams, CampaignError> {
        let c = self.cfg.clone().unwrap_or_default();
        let template = c.program.unwrap_or_default();
        let defaults = ProgramGenParams::default();
        let program = ProgramGenParams {
            max_sequence: template.max_sequence.unwrap_or(defaults.max_sequence),
            cost_range: template.cost_range.unwrap_or(defaults.cost_range),
            branch_probability: template
                .branch_probability
                .unwrap_or(defaults.branch_probability),
            loop_probability: template
                .loop_probability
                .unwrap_or(defaults.loop_probability),
            block_bytes: template.block_bytes.unwrap_or(defaults.block_bytes),
            accesses_per_block: template
                .accesses_per_block
                .unwrap_or(defaults.accesses_per_block),
            // Axis fields; replaced per grid point.
            ..defaults
        };
        let params = CfgParams {
            programs_per_point: c.programs_per_point.unwrap_or(8),
            tag: c.tag.unwrap_or_default(),
            depths: c.depths.unwrap_or_else(|| vec![2, 3]),
            loop_iterations: c.loop_iterations.unwrap_or_else(|| vec![4]),
            footprints: c.footprints.unwrap_or_else(|| vec![8]),
            q_scales: expand_axis(
                "q_scales",
                &c.q_scales.unwrap_or(GridSpec {
                    start: None,
                    stop: None,
                    step: None,
                    values: Some(vec![0.25, 0.5]),
                }),
            )?,
            sets: c.sets.unwrap_or_else(|| vec![32]),
            associativity: c.associativity.unwrap_or_else(|| vec![1]),
            line_bytes: c.line_bytes.unwrap_or_else(|| vec![16]),
            reload_costs: c.reload_cost.unwrap_or_else(|| vec![10.0]),
            program,
        };
        if params.programs_per_point == 0 {
            return Err(CampaignError::Spec(
                "`programs_per_point` must be >= 1".into(),
            ));
        }
        if params.depths.is_empty() {
            return Err(CampaignError::Spec("`depths` must be non-empty".into()));
        }
        // Program size grows like fan^depth, where the per-level fan-out
        // is max_sequence for sequences but always 2 for branches; reject
        // grids whose estimated node count would hang or OOM the run
        // instead of failing here with a named cause.
        let fan = if params.program.branch_probability > 0.0 {
            params.program.max_sequence.max(2)
        } else {
            params.program.max_sequence
        };
        for &d in &params.depths {
            // Generation and compilation recurse once per nesting level, so
            // depth is also bounded on its own — a fan-out-1 spec must not
            // sneak past the node-count estimate into a stack overflow.
            if d > 64 {
                return Err(CampaignError::Spec(format!(
                    "`depths` value {d} exceeds the maximum nesting depth 64"
                )));
            }
            let nodes = (fan as f64).powi(d as i32);
            if nodes > 1e6 {
                return Err(CampaignError::Spec(format!(
                    "`depths` value {d} with region fan-out {fan} (max_sequence {}, \
                     branches 2-way) expands to ~{nodes:.0} statement nodes per \
                     program; keep fan^depth <= 1e6",
                    params.program.max_sequence
                )));
            }
        }
        if params.loop_iterations.is_empty() || params.loop_iterations.contains(&0) {
            return Err(CampaignError::Spec(
                "`loop_iterations` must be a non-empty list of bounds >= 1".into(),
            ));
        }
        if params.footprints.is_empty() {
            return Err(CampaignError::Spec("`footprints` must be non-empty".into()));
        }
        for &q in &params.q_scales {
            if !(q > 0.0 && q <= 1.0) {
                return Err(CampaignError::Spec(format!(
                    "`q_scales` value {q} outside (0, 1]"
                )));
            }
        }
        if params.sets.is_empty() || params.sets.contains(&0) {
            return Err(CampaignError::Spec(
                "`sets` must be a non-empty list of set counts >= 1".into(),
            ));
        }
        if params.associativity.is_empty() || params.associativity.contains(&0) {
            return Err(CampaignError::Spec(
                "`associativity` must be a non-empty list of way counts >= 1".into(),
            ));
        }
        if params.line_bytes.is_empty() || params.line_bytes.contains(&0) {
            return Err(CampaignError::Spec(
                "`line_bytes` must be a non-empty list of line sizes >= 1".into(),
            ));
        }
        // The generator spaces its data pool DATA_STRIDE bytes apart so
        // each footprint entry occupies its own cache line; a larger line
        // would silently alias pool entries and skew the footprint axis.
        if let Some(&line) = params
            .line_bytes
            .iter()
            .find(|&&l| l > fnpr_synth::DATA_STRIDE)
        {
            return Err(CampaignError::Spec(format!(
                "`line_bytes` value {line} exceeds the generator's data stride \
                 ({}); distinct footprint lines would alias onto one cache line",
                fnpr_synth::DATA_STRIDE
            )));
        }
        if params.reload_costs.is_empty()
            || params
                .reload_costs
                .iter()
                .any(|&b| !(b.is_finite() && b >= 0.0))
        {
            return Err(CampaignError::Spec(
                "`reload_cost` must be a non-empty list of finite costs >= 0".into(),
            ));
        }
        if params.program.max_sequence == 0 {
            return Err(CampaignError::Spec("`max_sequence` must be >= 1".into()));
        }
        let (lo, hi) = params.program.cost_range;
        if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && hi > lo) {
            return Err(CampaignError::Spec(format!(
                "`cost_range` must satisfy 0 < lo < hi, got ({lo}, {hi})"
            )));
        }
        let (bp, lp) = (
            params.program.branch_probability,
            params.program.loop_probability,
        );
        if !(bp.is_finite() && lp.is_finite() && bp >= 0.0 && lp >= 0.0 && bp + lp <= 1.0) {
            return Err(CampaignError::Spec(format!(
                "`branch_probability` + `loop_probability` must stay within [0, 1], got {bp} + {lp}"
            )));
        }
        if params.program.block_bytes == 0 {
            return Err(CampaignError::Spec("`block_bytes` must be >= 1".into()));
        }
        let (alo, ahi) = params.program.accesses_per_block;
        if alo > ahi {
            return Err(CampaignError::Spec(format!(
                "`accesses_per_block` must satisfy lo <= hi, got ({alo}, {ahi})"
            )));
        }
        Ok(params)
    }

    fn validate_soundness(&self) -> Result<SoundnessParams, CampaignError> {
        let s = self.soundness.clone().unwrap_or_default();
        let params = SoundnessParams {
            trials: s.trials.unwrap_or(300),
            trials_per_shard: s.trials_per_shard.unwrap_or(1),
            simulate: s.simulate.unwrap_or(true),
            c_range: s.c_range.unwrap_or((50.0, 400.0)),
            segments: s.segments.unwrap_or((2, 12)),
            max_value_range: s.max_value_range.unwrap_or((1.0, 8.0)),
            q_slack_range: s.q_slack_range.unwrap_or((0.5, 10.0)),
        };
        if params.trials == 0 {
            return Err(CampaignError::Spec("`trials` must be >= 1".into()));
        }
        if params.trials_per_shard == 0 {
            return Err(CampaignError::Spec(
                "`trials_per_shard` must be >= 1".into(),
            ));
        }
        for (name, (lo, hi)) in [
            ("c_range", params.c_range),
            ("max_value_range", params.max_value_range),
            ("q_slack_range", params.q_slack_range),
        ] {
            if !(lo > 0.0 && hi > lo && hi.is_finite()) {
                return Err(CampaignError::Spec(format!(
                    "`{name}` must satisfy 0 < lo < hi < inf, got ({lo}, {hi})"
                )));
            }
        }
        if params.segments.0 < 1 || params.segments.1 <= params.segments.0 {
            return Err(CampaignError::Spec(format!(
                "`segments` must satisfy 1 <= lo < hi, got {:?}",
                params.segments
            )));
        }
        // Every segment start past `Q` is a candidate of both oracles, so a
        // curve with more segments than their budget cannot be bounded.
        let max_segments = fnpr_core::DEFAULT_MAX_CANDIDATES as u64;
        if params.segments.1 - 1 > max_segments {
            return Err(CampaignError::Spec(format!(
                "`segments` draws at most hi - 1 segments, which must not exceed \
                 the oracles' candidate budget {max_segments}, got {:?}",
                params.segments
            )));
        }
        // The run holds one shard index per shard and one row per trial.
        let shards = params.trials.div_ceil(params.trials_per_shard);
        if try_vec::<usize>(shards).is_none() || try_vec::<SoundnessRow>(params.trials).is_none() {
            return Err(CampaignError::Spec(format!(
                "`trials` = {} needs more memory for its shards and rows than this host \
                 can allocate",
                params.trials
            )));
        }
        Ok(params)
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

    /// A stable structural hash of everything that determines results
    /// (not outputs or thread counts): the campaign id in reports. Each
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

/// Checks the task-set generation settings the acceptance and multicore
/// workloads share: a nonzero resampling budget, and a template whose
/// `period_range` and `deadline_factor` are finite with `0 < lo <= hi`
/// (the generator samples both; an empty range or a zero period panics
/// it). `n` and `utilization` are left to each workload, because the grid
/// replaces `utilization` in both and `n` in multicore.
fn validate_taskset(
    template: &TaskSetParams,
    max_attempts_factor: usize,
) -> Result<(), CampaignError> {
    if max_attempts_factor == 0 {
        return Err(CampaignError::Spec(
            "`max_attempts_factor` must be >= 1".into(),
        ));
    }
    for (name, (lo, hi)) in [
        ("period_range", template.period_range),
        ("deadline_factor", template.deadline_factor),
    ] {
        if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && lo <= hi) {
            return Err(CampaignError::Spec(format!(
                "`{name}` must be finite with 0 < lo <= hi, got ({lo}, {hi})"
            )));
        }
    }
    Ok(())
}

/// Expands the axis `grid` of the spec key `key`, naming the key in any
/// error.
fn expand_axis(key: &str, grid: &GridSpec) -> Result<Vec<f64>, CampaignError> {
    grid.expand().map_err(|e| match e {
        CampaignError::Spec(msg) => CampaignError::Spec(format!("`{key}`: {msg}")),
        other => other,
    })
}

/// An empty `Vec` with room for `n` values, or `None` when the allocator
/// refuses. A failed allocation aborts the process instead of panicking,
/// so validation reserves what a run must hold before any point computes.
fn try_vec<T>(n: usize) -> Option<Vec<T>> {
    let mut values = Vec::new();
    values.try_reserve_exact(n).ok()?;
    Some(values)
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

/// Human-readable CSV labels for methods, matching the original
/// `acceptance_ratio` binary's column names.
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
        let grid = GridSpec {
            start: Some(0.3),
            stop: Some(0.9),
            step: Some(0.1),
            values: None,
        };
        let values = grid.expand().unwrap();
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
            let grid = GridSpec {
                start: Some(start),
                stop: Some(stop),
                step: Some(step),
                values: None,
            };
            assert!(
                grid.expand().is_err(),
                "accepted {start}..{stop} step {step}"
            );
        }
    }

    #[test]
    fn grid_explicit_values_win() {
        let grid = GridSpec {
            start: Some(0.0),
            stop: Some(1.0),
            step: Some(0.5),
            values: Some(vec![0.42]),
        };
        assert_eq!(grid.expand().unwrap(), vec![0.42]);
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

[output]
csv = "out.csv"
json = "out.json"
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
        assert_eq!(a.utilizations, vec![0.5, 0.6]);
        assert_eq!(a.taskset.n, 4);
        assert_eq!(campaign.output.csv.as_deref(), Some("out.csv"));
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
            acceptance: Some(AcceptanceSpec {
                delay_frac: Some(1.5),
                ..AcceptanceSpec::default()
            }),
            ..CampaignSpec::default()
        };
        assert!(spec.validate().is_err());

        let spec = CampaignSpec {
            workload: Some(WorkloadKind::Soundness),
            soundness: Some(SoundnessSpec {
                trials: Some(0),
                ..SoundnessSpec::default()
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
        ] {
            let err = CampaignSpec::parse(&text).unwrap().validate().unwrap_err();
            assert!(err.to_string().contains(key), "{text:?}: {err}");
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
        assert_eq!(m.utilizations, vec![0.4, 0.6]);
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
        assert_eq!(c.q_scales, vec![0.3, 0.6]);
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
        assert_eq!(c.q_scales, vec![0.25, 0.5]);
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
        // Outputs stay out of the hash.
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
    fn store_spec_round_trips_and_validates() {
        let spec = CampaignSpec::parse(
            "workload = \"soundness\"\n[soundness]\ntrials = 3\n[store]\npath = \"results.log\"\n",
        )
        .unwrap();
        let campaign = spec.validate().unwrap();
        assert_eq!(campaign.store_path.as_deref(), Some("results.log"));
        // Absent [store] table: no persistence.
        let spec =
            CampaignSpec::parse("workload = \"soundness\"\n[soundness]\ntrials = 3\n").unwrap();
        assert_eq!(spec.validate().unwrap().store_path, None);
        // A [store] table without a usable path is a spec error, not a
        // silently disabled cache.
        for text in [
            "workload = \"soundness\"\n[soundness]\ntrials = 3\n[store]\n",
            "workload = \"soundness\"\n[soundness]\ntrials = 3\n[store]\npath = \"  \"\n",
        ] {
            let err = CampaignSpec::parse(text).unwrap().validate().unwrap_err();
            assert!(err.to_string().contains("path"), "bad message: {err}");
        }
    }

    #[test]
    fn telemetry_spec_round_trips_with_defaults() {
        let spec = CampaignSpec::parse(
            "workload = \"soundness\"\n[soundness]\ntrials = 3\n\
             [telemetry]\nmetrics = \"m.json\"\ntrace = \"t.json\"\n\
             ledger = \"LEDGER.jsonl\"\nprogress = false\n",
        )
        .unwrap();
        let campaign = spec.validate().unwrap();
        assert_eq!(campaign.telemetry.metrics.as_deref(), Some("m.json"));
        assert_eq!(campaign.telemetry.trace.as_deref(), Some("t.json"));
        assert_eq!(campaign.telemetry.ledger.as_deref(), Some("LEDGER.jsonl"));
        assert_eq!(campaign.telemetry.progress, Some(false));
        // Absent table: everything off/default.
        let spec =
            CampaignSpec::parse("workload = \"soundness\"\n[soundness]\ntrials = 3\n").unwrap();
        let campaign = spec.validate().unwrap();
        assert_eq!(campaign.telemetry.metrics, None);
        assert_eq!(campaign.telemetry.trace, None);
        assert_eq!(campaign.telemetry.ledger, None);
        assert_eq!(campaign.telemetry.progress, None);
    }

    #[test]
    fn telemetry_stays_out_of_the_scenario_hash() {
        // Observing a run cannot change what it computes: warm/cold,
        // traced/untraced runs must report the same scenario id.
        let base = CampaignSpec {
            seed: Some(5),
            ..CampaignSpec::default()
        };
        let mut with_telemetry = base.clone();
        with_telemetry.telemetry = Some(TelemetrySpec {
            metrics: Some("m.json".into()),
            trace: Some("t.json".into()),
            ledger: Some("LEDGER.jsonl".into()),
            progress: Some(false),
        });
        assert_eq!(
            base.validate().unwrap().scenario_hash(),
            with_telemetry.validate().unwrap().scenario_hash()
        );
    }

    #[test]
    fn store_path_stays_out_of_the_scenario_hash() {
        // Like the outputs: where results are cached cannot change what
        // they are — warm and cold runs must report the same scenario id.
        let base = CampaignSpec {
            seed: Some(5),
            ..CampaignSpec::default()
        };
        let mut with_store = base.clone();
        with_store.store = Some(StoreSpec {
            path: Some("x.log".into()),
        });
        assert_eq!(
            base.validate().unwrap().scenario_hash(),
            with_store.validate().unwrap().scenario_hash()
        );
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
        let mut with_output = base.clone();
        with_output.output = Some(OutputSpec {
            csv: Some("x.csv".into()),
            json: None,
        });
        assert_eq!(a, with_output.validate().unwrap().scenario_hash());
        let mut other_seed = base;
        other_seed.seed = Some(2);
        assert_ne!(a, other_seed.validate().unwrap().scenario_hash());
    }
}
