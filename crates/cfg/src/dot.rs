//! Graphviz DOT export for debugging and documentation.

use std::fmt::Write as _;

use crate::graph::Cfg;
use crate::offsets::StartOffsets;

/// Renders the graph in Graphviz DOT syntax.
///
/// Nodes show the block id (or label) and the execution interval; pass
/// `offsets` to additionally annotate each block with its computed
/// `[smin, smax]` start offsets, matching the paper's Figure 1(b).
///
/// ```
/// use fnpr_cfg::{dot, fixtures};
/// let cfg = fixtures::figure1_cfg();
/// let rendered = dot::to_dot(&cfg, None);
/// assert!(rendered.starts_with("digraph cfg {"));
/// assert!(rendered.contains("b0 -> b1"));
/// ```
#[must_use]
pub fn to_dot(cfg: &Cfg, offsets: Option<&StartOffsets>) -> String {
    let mut out = String::from("digraph cfg {\n");
    out.push_str("  node [shape=box, fontname=\"monospace\"];\n");
    for block in cfg.blocks() {
        let name = block
            .label
            .clone()
            .unwrap_or_else(|| block.id.index().to_string());
        let mut annotation = format!("[{}, {}]", block.exec.min, block.exec.max);
        if let Some(o) = offsets {
            let _ = write!(
                annotation,
                "\\ns=[{}, {}]",
                o.earliest_start(block.id),
                o.latest_start(block.id)
            );
        }
        let _ = writeln!(out, "  {} [label=\"{}\\n{}\"];", block.id, name, annotation);
    }
    for (from, to) in cfg.edges() {
        let _ = writeln!(out, "  {from} -> {to};");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure1_cfg;

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let cfg = figure1_cfg();
        let rendered = to_dot(&cfg, None);
        for i in 0..cfg.len() {
            assert!(rendered.contains(&format!("b{i} [label=")));
        }
        assert_eq!(rendered.matches(" -> ").count(), cfg.edges().count());
    }

    #[test]
    fn dot_with_offsets_annotates_starts() {
        let cfg = figure1_cfg();
        let offsets = StartOffsets::analyze(&cfg).unwrap();
        let rendered = to_dot(&cfg, Some(&offsets));
        assert!(rendered.contains("s=[30, 65]")); // block 3's published offsets
        assert!(rendered.contains("s=[65, 180]")); // block 10
    }
}
