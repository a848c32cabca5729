//! Random *structured program* generation — the AST-level sibling of
//! [`crate::cfggen`].
//!
//! Where [`crate::random_cfg`] emits raw graphs, [`random_program`] emits a
//! [`Stmt`] tree — nested sequences, if/else branches and bounded loops with
//! per-block execution intervals *and per-block data accesses* — and
//! compiles it through `fnpr_cfg::ast::compile`, so the generated artefact
//! carries everything the Section IV pipeline needs: a reducible CFG, loop
//! bounds, a linear code layout, and the data-access annotations that drive
//! the useful-cache-block analysis.
//!
//! Data accesses are drawn from a pool of `footprint_lines` distinct
//! addresses spaced [`DATA_STRIDE`] bytes apart starting at [`DATA_BASE`]
//! (far above any code layout), so the *footprint* axis of a campaign sweep
//! directly controls how much cache reuse — and therefore CRPD — a program
//! can exhibit, independently of the cache geometry it is later analysed
//! under.

use fnpr_cfg::ast::{compile, CompiledProgram, Stmt};
use fnpr_cfg::CfgError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Base byte address of the synthetic data region. Code layouts start at 0
/// and span `blocks × block_bytes` bytes — far below this — so data and
/// code accesses never alias.
pub const DATA_BASE: u64 = 1 << 20;

/// Byte distance between consecutive pool addresses. At least as large as
/// any realistic cache line, so each pool entry occupies its own line for
/// every swept geometry.
pub const DATA_STRIDE: u64 = 64;

/// Parameters for [`random_program`]. A campaign spec's `[cfg.program]`
/// table deserializes into it: an absent key keeps its default, and the
/// three fields the campaign grid sets are not keys at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ProgramGenParams {
    /// Maximum nesting depth of regions (0 = a single basic block).
    #[serde(skip)]
    pub max_depth: usize,
    /// Maximum children of a sequence region (>= 1).
    pub max_sequence: usize,
    /// Per-block execution-time range: BCET and WCET are both drawn inside
    /// `[lo, hi)` (BCET first, then WCET in `[BCET, hi)`).
    pub cost_range: (f64, f64),
    /// Maximum loop iteration bound to draw (>= 1). Minimum bounds are
    /// drawn in `0..=max`, so skippable loops (min 0) occur naturally.
    #[serde(skip)]
    pub max_loop_iterations: u64,
    /// Probability of a region being a branch (vs. loop vs. sequence).
    pub branch_probability: f64,
    /// Probability of a region being a loop.
    pub loop_probability: f64,
    /// Code bytes per basic block (for the layout).
    pub block_bytes: u64,
    /// Distinct data lines in the access pool (0 = no data accesses).
    #[serde(skip)]
    pub footprint_lines: u64,
    /// Inclusive range of data accesses drawn per basic block.
    pub accesses_per_block: (usize, usize),
}

impl Default for ProgramGenParams {
    fn default() -> Self {
        Self {
            max_depth: 3,
            max_sequence: 3,
            cost_range: (1.0, 20.0),
            max_loop_iterations: 6,
            branch_probability: 0.3,
            loop_probability: 0.25,
            block_bytes: 64,
            footprint_lines: 8,
            accesses_per_block: (1, 3),
        }
    }
}

/// A generated program: the statement tree and its compiled form.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedProgram {
    /// The structured source.
    pub program: Stmt,
    /// The compiled CFG, loop bounds, layout and data accesses.
    pub compiled: CompiledProgram,
}

/// Generates a random structured program and compiles it.
///
/// The tree shape mirrors [`crate::random_cfg`]: at each level a region is
/// a branch with probability `branch_probability`, a loop with
/// `loop_probability`, and otherwise a sequence of up to `max_sequence`
/// sub-regions; depth 0 regions are single basic blocks. Every basic block
/// draws its execution interval from `cost_range` and its data accesses
/// from the footprint pool.
///
/// # Errors
///
/// Propagates [`CfgError`] from compilation (cannot happen for the shapes
/// generated here; the signature avoids panicking on future edits).
pub fn random_program<R: Rng>(
    rng: &mut R,
    params: &ProgramGenParams,
) -> Result<GeneratedProgram, CfgError> {
    fnpr_obs::counter!("synth.programs.generated").incr();
    let mut labels = 0usize;
    let program = gen_region(rng, params, params.max_depth, &mut labels);
    let compiled = compile(&program, params.block_bytes)?;
    Ok(GeneratedProgram { program, compiled })
}

/// One basic block with random cost and accesses.
fn gen_basic<R: Rng>(rng: &mut R, params: &ProgramGenParams, labels: &mut usize) -> Stmt {
    let (lo, hi) = params.cost_range;
    // Both bounds stay inside [lo, hi): min < hi by construction, so the
    // width draw is over a non-empty range.
    let min = rng.gen_range(lo..hi);
    let width = rng.gen_range(0.0..(hi - min));
    let (acc_lo, acc_hi) = params.accesses_per_block;
    let count = if params.footprint_lines == 0 {
        0
    } else {
        rng.gen_range(acc_lo..=acc_hi)
    };
    let accesses: Vec<u64> = (0..count)
        .map(|_| DATA_BASE + rng.gen_range(0..params.footprint_lines) * DATA_STRIDE)
        .collect();
    let label = format!("b{labels}");
    *labels += 1;
    Stmt::basic_accessing(label, min, min + width, accesses)
}

fn gen_region<R: Rng>(
    rng: &mut R,
    params: &ProgramGenParams,
    depth: usize,
    labels: &mut usize,
) -> Stmt {
    if depth == 0 {
        return gen_basic(rng, params, labels);
    }
    let roll: f64 = rng.gen();
    if roll < params.branch_probability {
        Stmt::branch(
            gen_region(rng, params, depth - 1, labels),
            gen_region(rng, params, depth - 1, labels),
        )
    } else if roll < params.branch_probability + params.loop_probability {
        let max_iter = rng.gen_range(1..=params.max_loop_iterations);
        let min_iter = rng.gen_range(0..=max_iter);
        Stmt::loop_between(
            min_iter,
            max_iter,
            gen_region(rng, params, depth - 1, labels),
        )
    } else {
        let count = rng.gen_range(1..=params.max_sequence.max(1));
        Stmt::seq((0..count).map(|_| gen_region(rng, params, depth - 1, labels)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_cfg::{reduce_loops, StartOffsets};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_programs_compile_and_reduce() {
        let params = ProgramGenParams::default();
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            let generated = random_program(&mut rng, &params).unwrap();
            let compiled = &generated.compiled;
            assert_eq!(compiled.accesses.len(), compiled.cfg.len());
            let reduced = reduce_loops(&compiled.cfg, &compiled.loop_bounds)
                .unwrap_or_else(|e| panic!("seed {seed}: reduction failed: {e}"));
            assert!(reduced.cfg.is_acyclic());
            assert!(StartOffsets::analyze(&reduced.cfg).is_ok());
        }
    }

    #[test]
    fn accesses_stay_inside_the_footprint_pool() {
        let params = ProgramGenParams {
            footprint_lines: 4,
            ..ProgramGenParams::default()
        };
        let mut rng = StdRng::seed_from_u64(11);
        let generated = random_program(&mut rng, &params).unwrap();
        let mut any = false;
        for addrs in &generated.compiled.accesses {
            for &a in addrs {
                any = true;
                assert!(a >= DATA_BASE);
                assert_eq!((a - DATA_BASE) % DATA_STRIDE, 0);
                assert!((a - DATA_BASE) / DATA_STRIDE < 4);
            }
        }
        assert!(any, "default access rate should touch data somewhere");
    }

    #[test]
    fn block_costs_stay_inside_the_configured_range() {
        let params = ProgramGenParams {
            cost_range: (2.0, 9.0),
            ..ProgramGenParams::default()
        };
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let generated = random_program(&mut rng, &params).unwrap();
            for block in generated.compiled.cfg.blocks() {
                if block.exec.max == 0.0 {
                    continue; // structural glue
                }
                assert!(
                    block.exec.min >= 2.0 && block.exec.max < 9.0,
                    "seed {seed}: block cost [{}, {}] escaped [2, 9)",
                    block.exec.min,
                    block.exec.max
                );
            }
        }
    }

    #[test]
    fn zero_footprint_means_no_data_accesses() {
        let params = ProgramGenParams {
            footprint_lines: 0,
            ..ProgramGenParams::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let generated = random_program(&mut rng, &params).unwrap();
        assert!(generated.compiled.accesses.iter().all(Vec::is_empty));
    }

    #[test]
    fn determinism_per_seed() {
        let params = ProgramGenParams::default();
        let a = random_program(&mut StdRng::seed_from_u64(9), &params).unwrap();
        let b = random_program(&mut StdRng::seed_from_u64(9), &params).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn depth_zero_gives_a_single_leaf() {
        let params = ProgramGenParams {
            max_depth: 0,
            ..ProgramGenParams::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let generated = random_program(&mut rng, &params).unwrap();
        // Synthetic entry + one leaf.
        assert_eq!(generated.compiled.cfg.len(), 2);
        assert!(generated.compiled.loop_bounds.is_empty());
    }
}
