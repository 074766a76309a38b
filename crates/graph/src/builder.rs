//! Mutable construction of [`Graph`] snapshots.

use crate::dict::{Dictionary, Vocabulary};
use crate::graph::{Graph, LabelAdjacency};
use crate::ids::{LabelId, NodeId};
use crate::runs::{GraphPublishStats, PairRun};
use std::sync::Arc;

/// Incrementally accumulates nodes and labeled edges, then freezes them into
/// an immutable [`Graph`].
///
/// Duplicate edges (same source, label and target) are deduplicated at build
/// time; the edge count reported by the resulting graph counts distinct
/// labeled edges, matching the paper's set-based edge relations.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    node_dict: Dictionary,
    label_dict: Dictionary,
    edges: Vec<(LabelId, NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for roughly `nodes` nodes and `edges`
    /// edges.
    pub fn with_capacity(edges: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(edges),
            ..Self::default()
        }
    }

    /// Interns a node by name, returning its id. Useful for adding isolated
    /// nodes or pre-registering names in a fixed order.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        NodeId(self.node_dict.intern(name))
    }

    /// Interns a label by name, returning its id.
    pub fn add_label(&mut self, name: &str) -> LabelId {
        let code = self.label_dict.intern(name);
        assert!(
            code < (1 << 15),
            "pathix supports at most 2^15 distinct labels"
        );
        LabelId(code as u16)
    }

    /// Adds the labeled edge `label(src, dst)` using node and label names.
    pub fn add_edge_named(&mut self, src: &str, label: &str, dst: &str) {
        let s = self.add_node(src);
        let l = self.add_label(label);
        let d = self.add_node(dst);
        self.add_edge(s, l, d);
    }

    /// Adds the labeled edge `label(src, dst)` using already-interned ids.
    ///
    /// Node ids created through [`GraphBuilder::add_node`] (or numeric nodes
    /// added through [`GraphBuilder::add_edge_numeric`]) are required;
    /// passing ids that were never interned results in a panic at build time.
    pub fn add_edge(&mut self, src: NodeId, label: LabelId, dst: NodeId) {
        self.edges.push((label, src, dst));
    }

    /// Convenience for synthetic generators that work with numeric node ids:
    /// node `i` is interned under the name `i.to_string()`.
    pub fn add_edge_numeric(&mut self, src: u64, label: &str, dst: u64) {
        let s = self.add_node(&src.to_string());
        let l = self.add_label(label);
        let d = self.add_node(&dst.to_string());
        self.add_edge(s, l, d);
    }

    /// Number of edges added so far (before deduplication).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of nodes interned so far.
    pub fn pending_nodes(&self) -> usize {
        self.node_dict.len()
    }

    /// Freezes the builder into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        let node_count = self.node_dict.len();
        let label_count = self.label_dict.len();
        let mut edges_by_label: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); label_count];
        for (l, s, d) in &self.edges {
            assert!(
                s.index() < node_count && d.index() < node_count,
                "edge endpoint was not interned via the builder"
            );
            edges_by_label[l.index()].push((*s, *d));
        }
        let mut edge_count = 0;
        let mut labels = Vec::with_capacity(label_count);
        for mut per_label in edges_by_label {
            per_label.sort_unstable();
            per_label.dedup();
            edge_count += per_label.len();
            let mut reversed: Vec<(NodeId, NodeId)> =
                per_label.iter().map(|&(s, d)| (d, s)).collect();
            reversed.sort_unstable();
            labels.push(LabelAdjacency {
                forward: PairRun::from_sorted(per_label),
                backward: PairRun::from_sorted(reversed),
            });
        }
        let vocab = Arc::new(Vocabulary::from_dictionaries(
            self.node_dict,
            self.label_dict,
        ));
        let nodes_view = vocab.nodes.freeze(node_count as u32);
        let labels_view = vocab.labels.freeze(label_count as u32);
        Graph {
            vocab,
            nodes_view,
            labels_view,
            labels: Arc::new(labels),
            edge_count,
            last_publish: GraphPublishStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SignedLabel;

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "x", "b");
        b.add_edge_named("a", "x", "b");
        b.add_edge_named("a", "x", "c");
        assert_eq!(b.pending_edges(), 3);
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn isolated_nodes_are_counted() {
        let mut b = GraphBuilder::new();
        b.add_node("lonely");
        b.add_edge_named("a", "x", "b");
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
        let lonely = g.node_id("lonely").unwrap();
        assert_eq!(g.total_degree(lonely), 0);
    }

    #[test]
    fn numeric_edges_intern_by_decimal_name() {
        let mut b = GraphBuilder::new();
        b.add_edge_numeric(10, "e", 20);
        let g = b.build();
        assert!(g.node_id("10").is_some());
        assert!(g.node_id("20").is_some());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_are_supported() {
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "x", "a");
        let g = b.build();
        let a = g.node_id("a").unwrap();
        let x = g.label_id("x").unwrap();
        assert!(g.has_edge(a, x, a));
        assert_eq!(
            g.neighbors(a, SignedLabel::forward(x)).collect::<Vec<_>>(),
            vec![a]
        );
        assert_eq!(
            g.neighbors(a, SignedLabel::backward(x)).collect::<Vec<_>>(),
            vec![a]
        );
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.label_count(), 0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = GraphBuilder::with_capacity(16);
        b.add_edge_named("a", "x", "b");
        assert_eq!(b.pending_nodes(), 2);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }
}
