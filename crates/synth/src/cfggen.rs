//! Random structured control-flow graph generation.
//!
//! Graphs are built from nested single-entry/single-exit regions —
//! sequences, if/else diamonds and bounded loops — so they are always
//! reducible and mirror the shape of compiler-generated code. Alongside the
//! graph, a *code layout* `(block, base address, size)` is produced for the
//! cache substrate (`fnpr_cache::AccessMap::from_code_layout`).

use std::collections::BTreeMap;

use fnpr_cfg::{BlockId, Cfg, CfgBuilder, CfgError, ExecInterval, LoopBound};
use rand::Rng;

/// Parameters for [`random_cfg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfgGenParams {
    /// Maximum nesting depth of regions.
    pub max_depth: usize,
    /// Maximum children of a sequence region.
    pub max_sequence: usize,
    /// Per-block execution-time range (min cost drawn first, width second).
    pub cost_range: (f64, f64),
    /// Maximum loop iteration bound to draw.
    pub max_loop_iterations: u64,
    /// Probability of a region being a branch (vs. loop vs. leaf).
    pub branch_probability: f64,
    /// Probability of a region being a loop.
    pub loop_probability: f64,
    /// Code bytes per basic block (for the layout).
    pub block_bytes: u64,
}

impl Default for CfgGenParams {
    fn default() -> Self {
        Self {
            max_depth: 3,
            max_sequence: 4,
            cost_range: (1.0, 20.0),
            max_loop_iterations: 8,
            branch_probability: 0.3,
            loop_probability: 0.2,
            block_bytes: 64,
        }
    }
}

/// A generated graph: the CFG, the loop bounds its reduction needs, and a
/// straight-line code layout for cache analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedCfg {
    /// The (possibly cyclic) control-flow graph.
    pub cfg: Cfg,
    /// Iteration bounds keyed by loop header.
    pub loop_bounds: BTreeMap<BlockId, LoopBound>,
    /// `(block, base, size)` triples laying blocks out contiguously.
    pub layout: Vec<(BlockId, u64, u64)>,
}

/// Generates a random reducible CFG with bounded loops.
///
/// # Errors
///
/// Propagates [`CfgError`] from graph construction (cannot happen for the
/// shapes generated here; the signature avoids panicking on future edits).
pub fn random_cfg<R: Rng>(rng: &mut R, params: &CfgGenParams) -> Result<GeneratedCfg, CfgError> {
    let mut builder = CfgBuilder::new();
    let mut bounds = BTreeMap::new();
    let entry = leaf(rng, params, &mut builder);
    let exit = region(
        rng,
        params,
        &mut builder,
        &mut bounds,
        entry,
        params.max_depth,
    )?;
    let _ = exit;
    let cfg = builder.build()?;
    let layout = (0..cfg.len())
        .map(|b| {
            (
                BlockId(b),
                b as u64 * params.block_bytes,
                params.block_bytes,
            )
        })
        .collect();
    Ok(GeneratedCfg {
        cfg,
        loop_bounds: bounds,
        layout,
    })
}

/// Adds one leaf block with a random cost.
fn leaf<R: Rng>(rng: &mut R, params: &CfgGenParams, builder: &mut CfgBuilder) -> BlockId {
    let (lo, hi) = params.cost_range;
    let min = rng.gen_range(lo..hi);
    let width = rng.gen_range(0.0..(hi - lo));
    builder.block(ExecInterval::new(min, min + width).expect("positive costs"))
}

/// Emits a region hanging off `from`; returns the region's exit block.
fn region<R: Rng>(
    rng: &mut R,
    params: &CfgGenParams,
    builder: &mut CfgBuilder,
    bounds: &mut BTreeMap<BlockId, LoopBound>,
    from: BlockId,
    depth: usize,
) -> Result<BlockId, CfgError> {
    if depth == 0 {
        let b = leaf(rng, params, builder);
        builder.edge(from, b)?;
        return Ok(b);
    }
    let roll: f64 = rng.gen();
    if roll < params.branch_probability {
        // Diamond: from -> {left | right} -> join.
        let left_head = leaf(rng, params, builder);
        builder.edge(from, left_head)?;
        let left_exit = region(rng, params, builder, bounds, left_head, depth - 1)?;
        let right_head = leaf(rng, params, builder);
        builder.edge(from, right_head)?;
        let right_exit = region(rng, params, builder, bounds, right_head, depth - 1)?;
        let join = leaf(rng, params, builder);
        builder.edge(left_exit, join)?;
        builder.edge(right_exit, join)?;
        Ok(join)
    } else if roll < params.branch_probability + params.loop_probability {
        // Bounded loop: from -> header; header -> body...body_exit -> header;
        // header -> after.
        let header = leaf(rng, params, builder);
        builder.edge(from, header)?;
        let body_head = leaf(rng, params, builder);
        builder.edge(header, body_head)?;
        let body_exit = region(rng, params, builder, bounds, body_head, depth - 1)?;
        builder.edge(body_exit, header)?;
        let max_iter = rng.gen_range(1..=params.max_loop_iterations);
        let min_iter = rng.gen_range(1..=max_iter);
        bounds.insert(header, LoopBound::new(min_iter, max_iter).expect("valid"));
        let after = leaf(rng, params, builder);
        builder.edge(header, after)?;
        Ok(after)
    } else {
        // Sequence of 1..max_sequence sub-regions.
        let count = rng.gen_range(1..=params.max_sequence.max(1));
        let mut at = from;
        for _ in 0..count {
            let head = leaf(rng, params, builder);
            builder.edge(at, head)?;
            at = region(rng, params, builder, bounds, head, depth.saturating_sub(1))?;
        }
        Ok(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_cfg::{reduce_loops, StartOffsets};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_graphs_are_valid_and_reducible() {
        let params = CfgGenParams::default();
        for seed in 0..25 {
            let mut rng = StdRng::seed_from_u64(seed);
            let generated = random_cfg(&mut rng, &params).unwrap();
            // Every loop has a bound and reduction succeeds.
            let reduced = reduce_loops(&generated.cfg, &generated.loop_bounds)
                .unwrap_or_else(|e| panic!("seed {seed}: reduction failed: {e}"));
            assert!(reduced.cfg.is_acyclic());
            // The reduced graph supports the offset analysis.
            let offsets = StartOffsets::analyze(&reduced.cfg).unwrap();
            assert!(!offsets.is_empty());
        }
    }

    #[test]
    fn layout_covers_every_block() {
        let mut rng = StdRng::seed_from_u64(3);
        let generated = random_cfg(&mut rng, &CfgGenParams::default()).unwrap();
        assert_eq!(generated.layout.len(), generated.cfg.len());
        for (i, &(b, base, size)) in generated.layout.iter().enumerate() {
            assert_eq!(b.index(), i);
            assert_eq!(base, i as u64 * 64);
            assert_eq!(size, 64);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let params = CfgGenParams::default();
        let a = random_cfg(&mut StdRng::seed_from_u64(9), &params).unwrap();
        let b = random_cfg(&mut StdRng::seed_from_u64(9), &params).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn depth_zero_gives_small_graphs() {
        let params = CfgGenParams {
            max_depth: 0,
            ..CfgGenParams::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let generated = random_cfg(&mut rng, &params).unwrap();
        assert!(generated.cfg.len() <= 3);
        assert!(generated.cfg.is_acyclic());
    }
}
