//! Property-based tests for the CFG substrate.

use std::collections::{BTreeMap, BTreeSet};

use fnpr_cfg::{
    natural_loops, reduce_loops, BlockId, Cfg, CfgBuilder, CfgError, ExecInterval, GraphTiming,
    LoopBound, Occupancy, StartOffsets,
};
use proptest::prelude::*;

/// A random layered DAG: `layers` of blocks, edges only between consecutive
/// layers (plus a guaranteed chain so everything is reachable).
#[derive(Debug, Clone)]
struct LayeredDag {
    layer_sizes: Vec<usize>,
    costs: Vec<(f64, f64)>,           // (min, width) per block
    extra_edges: Vec<(usize, usize)>, // indices into consecutive layers
}

fn arb_dag() -> impl Strategy<Value = LayeredDag> {
    (
        prop::collection::vec(1usize..4, 2..6),
        prop::collection::vec((0.5f64..20.0, 0.0f64..15.0), 24),
        prop::collection::vec((0usize..16, 0usize..16), 0..20),
    )
        .prop_map(|(layer_sizes, costs, extra_edges)| LayeredDag {
            layer_sizes,
            costs,
            extra_edges,
        })
}

fn build_dag(dag: &LayeredDag) -> (Cfg, Vec<Vec<BlockId>>) {
    let mut builder = CfgBuilder::new();
    let mut layers: Vec<Vec<BlockId>> = Vec::new();
    let mut cost_iter = dag.costs.iter().cycle();
    // A single entry block, then the declared layers.
    let entry = {
        let &(lo, width) = cost_iter.next().unwrap();
        builder.block(ExecInterval::new(lo, lo + width).unwrap())
    };
    layers.push(vec![entry]);
    for &size in &dag.layer_sizes {
        let mut layer = Vec::new();
        for _ in 0..size {
            let &(lo, width) = cost_iter.next().unwrap();
            layer.push(builder.block(ExecInterval::new(lo, lo + width).unwrap()));
        }
        layers.push(layer);
    }
    // Guaranteed connectivity: every block of layer k+1 has a predecessor in
    // layer k (first block), and every layer-k block at least one successor.
    for k in 0..layers.len() - 1 {
        for &to in &layers[k + 1] {
            builder.edge(layers[k][0], to).unwrap();
        }
        for &from in &layers[k][1..] {
            builder.edge(from, layers[k + 1][0]).unwrap();
        }
    }
    // Extra edges between consecutive layers (dedup errors ignored).
    for &(a, b) in &dag.extra_edges {
        let k = a % (layers.len() - 1);
        let from = layers[k][a % layers[k].len()];
        let to = layers[k + 1][b % layers[k + 1].len()];
        let _ = builder.edge(from, to);
    }
    (builder.build().unwrap(), layers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Eqs. 2-3 as inequalities over every edge: a successor can start no
    /// earlier than this predecessor's earliest finish allows the *minimum*,
    /// and no later than its latest finish.
    #[test]
    fn offset_edge_invariants(dag in arb_dag()) {
        let (cfg, _) = build_dag(&dag);
        let offsets = StartOffsets::analyze(&cfg).unwrap();
        for (u, v) in cfg.edges() {
            let eu = cfg.block(u).exec;
            prop_assert!(
                offsets.earliest_start(v) <= offsets.earliest_start(u) + eu.min + 1e-9
            );
            prop_assert!(
                offsets.latest_start(v) >= offsets.latest_start(u) + eu.max - 1e-9
            );
            prop_assert!(offsets.earliest_start(v) <= offsets.latest_start(v));
        }
        // Entry pinned at zero (Eq. 1).
        prop_assert_eq!(offsets.earliest_start(cfg.entry()), 0.0);
        prop_assert_eq!(offsets.latest_start(cfg.entry()), 0.0);
    }

    /// The union of execution windows covers [0, WCET): at any progress
    /// point below the WCET some block may be executing.
    #[test]
    fn occupancy_covers_domain(dag in arb_dag(), fracs in prop::collection::vec(0.0f64..1.0, 12)) {
        let (cfg, _) = build_dag(&dag);
        let occ = Occupancy::analyze(&cfg).unwrap();
        let timing = GraphTiming::analyze(&cfg).unwrap();
        prop_assert_eq!(occ.wcet(), timing.wcet);
        for &frac in &fracs {
            let t = frac * timing.wcet * 0.999999;
            prop_assert!(
                !occ.blocks_at(t).is_empty(),
                "no block can execute at progress {} < wcet {}",
                t,
                timing.wcet
            );
        }
        prop_assert!(occ.blocks_at(timing.wcet).is_empty());
    }

    /// BCET never exceeds WCET, and both respect simple path bounds.
    #[test]
    fn timing_sanity(dag in arb_dag()) {
        let (cfg, _) = build_dag(&dag);
        let timing = GraphTiming::analyze(&cfg).unwrap();
        prop_assert!(timing.bcet <= timing.wcet);
        let min_total: f64 = cfg.blocks().map(|b| b.exec.min).fold(f64::INFINITY, f64::min);
        let max_total: f64 = cfg.blocks().map(|b| b.exec.max).sum();
        prop_assert!(timing.bcet >= min_total); // at least the cheapest block
        prop_assert!(timing.wcet <= max_total); // at most every block once
    }

    /// A DAG has no natural loops and reduction is the identity on shape.
    #[test]
    fn dag_reduction_is_identity(dag in arb_dag()) {
        let (cfg, _) = build_dag(&dag);
        prop_assert!(natural_loops(&cfg).is_empty());
        let reduced = reduce_loops(&cfg, &BTreeMap::new()).unwrap();
        prop_assert_eq!(reduced.cfg.len(), cfg.len());
        let reduced_timing = GraphTiming::analyze(&reduced.cfg).unwrap();
        let original_timing = GraphTiming::analyze(&cfg).unwrap();
        prop_assert_eq!(reduced_timing, original_timing);
    }

    /// Loop reduction of a simple counted loop brackets the exact unrolled
    /// execution time: collapsing `entry -> (header -> body)^n -> exit` is
    /// conservative on both sides.
    #[test]
    fn loop_reduction_brackets_unrolled_time(
        entry_cost in 0.5f64..10.0,
        header_cost in 0.5f64..10.0,
        body_cost in 0.5f64..10.0,
        exit_cost in 0.5f64..10.0,
        n in 1u64..8,
    ) {
        let iv = |c: f64| ExecInterval::new(c, c).unwrap();
        // Looping version.
        let mut b = CfgBuilder::new();
        let entry = b.block(iv(entry_cost));
        let header = b.block(iv(header_cost));
        let body = b.block(iv(body_cost));
        let exit = b.block(iv(exit_cost));
        b.edge(entry, header).unwrap();
        b.edge(header, body).unwrap();
        b.edge(body, header).unwrap();
        b.edge(header, exit).unwrap();
        let looped = b.build().unwrap();
        let mut bounds = BTreeMap::new();
        bounds.insert(header, LoopBound::exact(n).unwrap());
        let reduced = reduce_loops(&looped, &bounds).unwrap();
        let reduced_timing = GraphTiming::analyze(&reduced.cfg).unwrap();

        // Exact unrolled version: header appears n times, body n-1 times
        // (the n-th header entry exits).
        let mut u = CfgBuilder::new();
        let uentry = u.block(iv(entry_cost));
        let mut prev = uentry;
        for k in 0..n {
            let h = u.block(iv(header_cost));
            u.edge(prev, h).unwrap();
            prev = h;
            if k + 1 < n {
                let bd = u.block(iv(body_cost));
                u.edge(prev, bd).unwrap();
                prev = bd;
            }
        }
        let uexit = u.block(iv(exit_cost));
        u.edge(prev, uexit).unwrap();
        let unrolled = u.build().unwrap();
        let exact = GraphTiming::analyze(&unrolled).unwrap();

        prop_assert!(
            reduced_timing.wcet >= exact.wcet - 1e-9,
            "reduced WCET {} below exact unrolled {}",
            reduced_timing.wcet,
            exact.wcet
        );
        prop_assert!(
            reduced_timing.bcet <= exact.bcet + 1e-9,
            "reduced BCET {} above exact unrolled {}",
            reduced_timing.bcet,
            exact.bcet
        );
    }

    /// Window export used by the delay-curve pipeline matches blocks_at.
    #[test]
    fn value_windows_consistent_with_blocks_at(
        dag in arb_dag(),
        fracs in prop::collection::vec(0.0f64..1.0, 8),
    ) {
        let (cfg, _) = build_dag(&dag);
        let occ = Occupancy::analyze(&cfg).unwrap();
        let windows = occ.value_windows(|b| b.index() as f64);
        for &frac in &fracs {
            let t = frac * occ.wcet() * 0.999999;
            let from_windows: Vec<usize> = windows
                .iter()
                .filter(|&&(lo, hi, _)| lo <= t && t < hi)
                .map(|&(_, _, v)| v as usize)
                .collect();
            let from_query: Vec<usize> =
                occ.blocks_at(t).iter().map(|b| b.index()).collect();
            prop_assert_eq!(from_windows, from_query);
        }
    }
}

/// A random graph of 2–7 blocks: a spanning tree from the entry plus extra
/// edges, self-loops and back edges included (none into the entry, which
/// has no predecessor).
fn arb_cyclic_cfg() -> impl Strategy<Value = Cfg> {
    (
        2usize..8,
        prop::collection::vec(0usize..7, 6),
        prop::collection::vec((0usize..7, 0usize..7), 0..10),
    )
        .prop_map(|(n, parents, extra)| {
            let mut edges: BTreeSet<(usize, usize)> =
                (1..n).map(|i| (parents[i - 1] % i, i)).collect();
            edges.extend(extra.iter().map(|&(from, to)| (from % n, 1 + to % (n - 1))));
            let mut builder = CfgBuilder::new();
            let iv = ExecInterval::new(1.0, 2.0).unwrap();
            let ids: Vec<BlockId> = (0..n).map(|_| builder.block(iv)).collect();
            for (from, to) in edges {
                builder.edge(ids[from], ids[to]).unwrap();
            }
            builder.build().unwrap()
        })
}

/// Hecht and Ullman's T1/T2 test: drop self-loops (T1) and merge a block
/// with a single predecessor into that predecessor (T2) until neither
/// applies. The graph is reducible exactly when one block is left.
fn t1_t2_reducible(cfg: &Cfg) -> bool {
    let n = cfg.len();
    let mut succs: Vec<BTreeSet<usize>> = (0..n)
        .map(|i| {
            cfg.successors(BlockId(i))
                .iter()
                .map(|b| b.index())
                .collect()
        })
        .collect();
    let mut alive: Vec<usize> = (0..n).collect();
    loop {
        for (i, out) in succs.iter_mut().enumerate() {
            out.remove(&i);
        }
        let merge = alive.iter().find_map(|&v| {
            let mut preds = alive.iter().filter(|&&u| succs[u].contains(&v));
            match (preds.next(), preds.next()) {
                (Some(&u), None) => Some((u, v)),
                _ => None,
            }
        });
        let Some((u, v)) = merge else {
            return alive.len() == 1;
        };
        let moved = std::mem::take(&mut succs[v]);
        succs[u].remove(&v);
        succs[u].extend(moved);
        alive.retain(|&b| b != v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// With every block bounded, loop reduction succeeds exactly on the
    /// graphs the T1/T2 test calls reducible and reports every other graph
    /// as irreducible, whether or not the irreducible region sits inside a
    /// natural loop. Every reduced graph then passes the start-offset,
    /// occupancy and timing analyses that `PreparedProgram::new` runs on
    /// it (the last two build on the first).
    #[test]
    fn reduce_loops_accepts_exactly_the_reducible_graphs(cfg in arb_cyclic_cfg()) {
        let bound = LoopBound::new(1, 3).unwrap();
        let bounds: BTreeMap<BlockId, LoopBound> =
            (0..cfg.len()).map(|i| (BlockId(i), bound)).collect();
        match reduce_loops(&cfg, &bounds) {
            Ok(reduced) => {
                prop_assert!(t1_t2_reducible(&cfg), "reduced an irreducible graph: {:?}", cfg);
                prop_assert!(reduced.cfg.is_acyclic());
                let offsets = StartOffsets::analyze(&reduced.cfg);
                prop_assert!(offsets.is_ok(), "{:?} for {:?}", offsets.err(), cfg);
                let occupancy = Occupancy::analyze(&reduced.cfg);
                prop_assert!(occupancy.is_ok(), "{:?} for {:?}", occupancy.err(), cfg);
                let timing = GraphTiming::analyze(&reduced.cfg);
                prop_assert!(timing.is_ok(), "{:?} for {:?}", timing.err(), cfg);
            }
            Err(CfgError::Irreducible { .. }) => {
                prop_assert!(!t1_t2_reducible(&cfg), "refused a reducible graph: {:?}", cfg);
            }
            Err(e) => panic!("{e:?} for {cfg:?}"),
        }
    }
}
