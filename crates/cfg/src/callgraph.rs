//! Acyclic call-graph analysis.
//!
//! Section IV: "tasks containing function calls can be analyzed provided that
//! their call graph is acyclic by first analyzing the leaves in the call
//! graph". A [`Program`] is a set of named functions, each with its own
//! control-flow graph, per-block call sites and loop bounds. Analysis runs
//! bottom-up: every function is summarised to a `[bcet, wcet]` interval; call
//! sites in callers add the callee's interval to the calling block's
//! execution interval; loops are reduced along the way. The root function's
//! fully *call-inclusive, loop-free* graph is returned for the window and
//! delay-curve pipeline.

use std::collections::BTreeMap;

use crate::block::{BlockId, ExecInterval};
use crate::error::CfgError;
use crate::graph::{Cfg, CfgBuilder};
use crate::loops::{reduce_loops, LoopBound, ReducedCfg};
use crate::offsets::GraphTiming;

/// One function of a program.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// The function's name (unique within a [`Program`]).
    pub name: String,
    /// The function body.
    pub cfg: Cfg,
    /// Call sites: callee names per calling block (a block may call several
    /// functions in sequence).
    pub calls: BTreeMap<BlockId, Vec<String>>,
    /// Iteration bounds for every natural loop of `cfg`, keyed by header.
    pub loop_bounds: BTreeMap<BlockId, LoopBound>,
}

impl Function {
    /// Creates a call-free, loop-bound-free function.
    #[must_use]
    pub fn new(name: impl Into<String>, cfg: Cfg) -> Self {
        Self {
            name: name.into(),
            cfg,
            calls: BTreeMap::new(),
            loop_bounds: BTreeMap::new(),
        }
    }

    /// Registers a call from `block` to `callee`, builder-style.
    #[must_use]
    pub fn with_call(mut self, block: BlockId, callee: impl Into<String>) -> Self {
        self.calls.entry(block).or_default().push(callee.into());
        self
    }

    /// Registers a loop bound, builder-style.
    #[must_use]
    pub fn with_loop_bound(mut self, header: BlockId, bound: LoopBound) -> Self {
        self.loop_bounds.insert(header, bound);
        self
    }
}

/// Summary of one analysed function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSummary {
    /// Whole-function timing (call-inclusive, loops reduced).
    pub timing: GraphTiming,
    /// The function's call-inclusive, loop-free graph with provenance.
    pub reduced: ReducedCfg,
}

/// A program: a set of functions closed under calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    functions: BTreeMap<String, Function>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a function.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::DuplicateFunction`] if the name is taken.
    pub fn add_function(&mut self, function: Function) -> Result<(), CfgError> {
        if self.functions.contains_key(&function.name) {
            return Err(CfgError::DuplicateFunction {
                function: function.name,
            });
        }
        self.functions.insert(function.name.clone(), function);
        Ok(())
    }

    /// Access a function by name.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.get(name)
    }

    /// Names in bottom-up (callee-before-caller) order.
    ///
    /// # Errors
    ///
    /// * [`CfgError::UnknownFunction`] if a call site names a missing
    ///   function;
    /// * [`CfgError::RecursiveCall`] if the call graph has a cycle.
    pub fn bottom_up_order(&self) -> Result<Vec<String>, CfgError> {
        // Kahn's algorithm over the call graph.
        let mut out_count: BTreeMap<&str, usize> = BTreeMap::new(); // calls yet unresolved
        let mut callers: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (name, function) in &self.functions {
            let mut callees = 0usize;
            for targets in function.calls.values() {
                for callee in targets {
                    if !self.functions.contains_key(callee) {
                        return Err(CfgError::UnknownFunction {
                            function: callee.clone(),
                        });
                    }
                    callees += 1;
                    callers.entry(callee).or_default().push(name);
                }
            }
            out_count.insert(name, callees);
        }
        let mut ready: Vec<&str> = out_count
            .iter()
            .filter(|&(_, &c)| c == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut order = Vec::with_capacity(self.functions.len());
        while let Some(name) = ready.pop() {
            order.push(name.to_owned());
            if let Some(cs) = callers.get(name) {
                for &caller in cs {
                    let c = out_count.get_mut(caller).expect("caller exists");
                    *c -= 1;
                    if *c == 0 {
                        ready.push(caller);
                    }
                }
            }
        }
        if order.len() < self.functions.len() {
            let stuck = out_count
                .iter()
                .find(|&(_, &c)| c > 0)
                .map(|(&n, _)| n.to_owned())
                .unwrap_or_default();
            return Err(CfgError::RecursiveCall { function: stuck });
        }
        Ok(order)
    }

    /// Analyses every function bottom-up and returns the per-function
    /// summaries.
    ///
    /// Call sites inflate the calling block's execution interval by the
    /// callee's `[bcet, wcet]`; loops are then reduced with the function's
    /// bounds. The summary's `reduced` graph is therefore both call-inclusive
    /// and loop-free, ready for [`StartOffsets::analyze`] /
    /// [`Occupancy::analyze`].
    ///
    /// # Errors
    ///
    /// Propagates call-graph errors ([`CfgError::UnknownFunction`],
    /// [`CfgError::RecursiveCall`]) and loop-reduction errors
    /// ([`CfgError::MissingLoopBound`], [`CfgError::Irreducible`], ...).
    ///
    /// [`StartOffsets::analyze`]: crate::StartOffsets::analyze
    /// [`Occupancy::analyze`]: crate::Occupancy::analyze
    pub fn analyze(&self) -> Result<BTreeMap<String, FunctionSummary>, CfgError> {
        let order = self.bottom_up_order()?;
        let mut summaries: BTreeMap<String, FunctionSummary> = BTreeMap::new();
        for name in order {
            let function = &self.functions[&name];
            let inclusive = inline_call_costs(function, &summaries)?;
            let reduced = reduce_loops(&inclusive, &function.loop_bounds)?;
            let timing = GraphTiming::analyze(&reduced.cfg)?;
            summaries.insert(name, FunctionSummary { timing, reduced });
        }
        Ok(summaries)
    }

    /// Convenience: analyses the program and returns the summary of `root`.
    ///
    /// # Errors
    ///
    /// As [`Program::analyze`], plus [`CfgError::UnknownFunction`] if `root`
    /// does not exist.
    pub fn analyze_root(&self, root: &str) -> Result<FunctionSummary, CfgError> {
        if !self.functions.contains_key(root) {
            return Err(CfgError::UnknownFunction {
                function: root.to_owned(),
            });
        }
        let mut summaries = self.analyze()?;
        Ok(summaries.remove(root).expect("root analysed"))
    }
}

/// Clones the function's graph with call costs added to calling blocks.
fn inline_call_costs(
    function: &Function,
    summaries: &BTreeMap<String, FunctionSummary>,
) -> Result<Cfg, CfgError> {
    let mut builder = CfgBuilder::new();
    for block in function.cfg.blocks() {
        let mut exec = block.exec;
        if let Some(callees) = function.calls.get(&block.id) {
            for callee in callees {
                let summary = summaries
                    .get(callee)
                    .ok_or_else(|| CfgError::UnknownFunction {
                        function: callee.clone(),
                    })?;
                exec = exec.plus(ExecInterval {
                    min: summary.timing.bcet,
                    max: summary.timing.wcet,
                });
            }
        }
        let id = builder.block(exec);
        builder.set_label(id, block.label.clone());
    }
    for (from, to) in function.cfg.edges() {
        builder.edge(from, to)?;
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::ExecInterval;

    fn iv(min: f64, max: f64) -> ExecInterval {
        ExecInterval::new(min, max).unwrap()
    }

    fn straight_line(costs: &[(f64, f64)]) -> (Cfg, Vec<BlockId>) {
        let mut b = CfgBuilder::new();
        let ids: Vec<BlockId> = costs.iter().map(|&(lo, hi)| b.block(iv(lo, hi))).collect();
        for pair in ids.windows(2) {
            b.edge(pair[0], pair[1]).unwrap();
        }
        (b.build().unwrap(), ids)
    }

    #[test]
    fn leaf_function_timing() {
        let (cfg, _) = straight_line(&[(2.0, 3.0), (4.0, 6.0)]);
        let mut program = Program::new();
        program.add_function(Function::new("leaf", cfg)).unwrap();
        let summary = program.analyze_root("leaf").unwrap();
        assert_eq!(summary.timing.bcet, 6.0);
        assert_eq!(summary.timing.wcet, 9.0);
    }

    #[test]
    fn call_costs_are_inlined() {
        let (leaf_cfg, _) = straight_line(&[(10.0, 20.0)]);
        let (root_cfg, root_ids) = straight_line(&[(1.0, 1.0), (2.0, 2.0)]);
        let mut program = Program::new();
        program
            .add_function(Function::new("leaf", leaf_cfg))
            .unwrap();
        program
            .add_function(Function::new("root", root_cfg).with_call(root_ids[1], "leaf"))
            .unwrap();
        let summary = program.analyze_root("root").unwrap();
        // root = 1 + (2 + leaf[10,20]) = [13, 23].
        assert_eq!(summary.timing.bcet, 13.0);
        assert_eq!(summary.timing.wcet, 23.0);
    }

    #[test]
    fn two_calls_from_one_block() {
        let (leaf_cfg, _) = straight_line(&[(5.0, 7.0)]);
        let (root_cfg, root_ids) = straight_line(&[(1.0, 1.0)]);
        let mut program = Program::new();
        program
            .add_function(Function::new("leaf", leaf_cfg))
            .unwrap();
        program
            .add_function(
                Function::new("root", root_cfg)
                    .with_call(root_ids[0], "leaf")
                    .with_call(root_ids[0], "leaf"),
            )
            .unwrap();
        let summary = program.analyze_root("root").unwrap();
        assert_eq!(summary.timing.bcet, 11.0);
        assert_eq!(summary.timing.wcet, 15.0);
    }

    #[test]
    fn deep_call_chain() {
        // a calls b calls c; bottom-up order must resolve c first.
        let mut program = Program::new();
        let (c_cfg, _) = straight_line(&[(1.0, 2.0)]);
        let (b_cfg, b_ids) = straight_line(&[(1.0, 1.0)]);
        let (a_cfg, a_ids) = straight_line(&[(1.0, 1.0)]);
        program.add_function(Function::new("c", c_cfg)).unwrap();
        program
            .add_function(Function::new("b", b_cfg).with_call(b_ids[0], "c"))
            .unwrap();
        program
            .add_function(Function::new("a", a_cfg).with_call(a_ids[0], "b"))
            .unwrap();
        let order = program.bottom_up_order().unwrap();
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        assert!(pos("c") < pos("b"));
        assert!(pos("b") < pos("a"));
        let summary = program.analyze_root("a").unwrap();
        assert_eq!(summary.timing.bcet, 3.0);
        assert_eq!(summary.timing.wcet, 4.0);
    }

    #[test]
    fn diamond_call_graph_shares_callee() {
        // a calls b and c; both call d. d must be summarised once and both
        // paths must include it.
        let mut program = Program::new();
        let (d_cfg, _) = straight_line(&[(10.0, 10.0)]);
        let (b_cfg, b_ids) = straight_line(&[(1.0, 1.0)]);
        let (c_cfg, c_ids) = straight_line(&[(2.0, 2.0)]);
        let (a_cfg, a_ids) = straight_line(&[(1.0, 1.0), (1.0, 1.0)]);
        program.add_function(Function::new("d", d_cfg)).unwrap();
        program
            .add_function(Function::new("b", b_cfg).with_call(b_ids[0], "d"))
            .unwrap();
        program
            .add_function(Function::new("c", c_cfg).with_call(c_ids[0], "d"))
            .unwrap();
        program
            .add_function(
                Function::new("a", a_cfg)
                    .with_call(a_ids[0], "b")
                    .with_call(a_ids[1], "c"),
            )
            .unwrap();
        let summaries = program.analyze().unwrap();
        assert_eq!(summaries["b"].timing.wcet, 11.0);
        assert_eq!(summaries["c"].timing.wcet, 12.0);
        // a = 1 + b(11) + 1 + c(12) = 25.
        assert_eq!(summaries["a"].timing.wcet, 25.0);
        assert_eq!(summaries["a"].timing.bcet, 25.0);
    }

    #[test]
    fn recursion_is_rejected() {
        let (f_cfg, f_ids) = straight_line(&[(1.0, 1.0)]);
        let (g_cfg, g_ids) = straight_line(&[(1.0, 1.0)]);
        let mut program = Program::new();
        program
            .add_function(Function::new("f", f_cfg).with_call(f_ids[0], "g"))
            .unwrap();
        program
            .add_function(Function::new("g", g_cfg).with_call(g_ids[0], "f"))
            .unwrap();
        assert!(matches!(
            program.bottom_up_order(),
            Err(CfgError::RecursiveCall { .. })
        ));
    }

    #[test]
    fn unknown_callee_is_rejected() {
        let (f_cfg, f_ids) = straight_line(&[(1.0, 1.0)]);
        let mut program = Program::new();
        program
            .add_function(Function::new("f", f_cfg).with_call(f_ids[0], "ghost"))
            .unwrap();
        assert!(matches!(
            program.analyze(),
            Err(CfgError::UnknownFunction { .. })
        ));
        assert!(matches!(
            program.analyze_root("nope"),
            Err(CfgError::UnknownFunction { .. })
        ));
    }

    #[test]
    fn duplicate_function_rejected() {
        let (cfg, _) = straight_line(&[(1.0, 1.0)]);
        let mut program = Program::new();
        program
            .add_function(Function::new("f", cfg.clone()))
            .unwrap();
        assert!(matches!(
            program.add_function(Function::new("f", cfg)),
            Err(CfgError::DuplicateFunction { .. })
        ));
    }

    #[test]
    fn function_with_loop_and_call() {
        // Loop body calls a leaf; loop runs exactly 3 times.
        let (leaf_cfg, _) = straight_line(&[(2.0, 2.0)]);
        let mut b = CfgBuilder::new();
        let entry = b.block(iv(1.0, 1.0));
        let header = b.block(iv(1.0, 1.0));
        let body = b.block(iv(1.0, 1.0));
        let exit = b.block(iv(1.0, 1.0));
        b.edge(entry, header).unwrap();
        b.edge(header, body).unwrap();
        b.edge(body, header).unwrap();
        b.edge(header, exit).unwrap();
        let cfg = b.build().unwrap();
        let mut program = Program::new();
        program
            .add_function(Function::new("leaf", leaf_cfg))
            .unwrap();
        program
            .add_function(
                Function::new("root", cfg)
                    .with_call(body, "leaf")
                    .with_loop_bound(header, LoopBound::exact(3).unwrap()),
            )
            .unwrap();
        let summary = program.analyze_root("root").unwrap();
        // Per iteration: header 1 + (body 1 + leaf 2) = 4 max; exit source is
        // the header (earliest finish 1): min per iteration 1.
        // Loop: [3, 12]; total = entry 1 + loop + exit 1 = [5, 14].
        assert_eq!(summary.timing.bcet, 5.0);
        assert_eq!(summary.timing.wcet, 14.0);
        assert!(summary.reduced.cfg.is_acyclic());
    }
}
