//! Query results with name resolution helpers.

use crate::db::PathDb;
use pathix_graph::NodeId;
use pathix_plan::{ExecutionStats, Strategy};

/// The answer of an RPQ: a sorted, duplicate-free set of node pairs plus
/// execution metadata.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pairs: Vec<(NodeId, NodeId)>,
    /// Execution statistics (timing, plan shape).
    pub stats: ExecutionStats,
    /// The strategy that produced this result.
    pub strategy: Strategy,
}

impl QueryResult {
    pub(crate) fn new(
        pairs: Vec<(NodeId, NodeId)>,
        stats: ExecutionStats,
        strategy: Strategy,
    ) -> Self {
        QueryResult {
            pairs,
            stats,
            strategy,
        }
    }

    /// The answer pairs, sorted by `(source, target)`.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Number of answer pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when the query has no answers.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Membership test by node id.
    pub fn contains(&self, source: NodeId, target: NodeId) -> bool {
        self.pairs.binary_search(&(source, target)).is_ok()
    }

    /// Membership test by node name, resolved through the database's graph.
    pub fn contains_named(&self, db: &PathDb, source: &str, target: &str) -> bool {
        match (db.graph().node_id(source), db.graph().node_id(target)) {
            (Some(s), Some(t)) => self.contains(s, t),
            _ => false,
        }
    }

    /// Resolves the answer pairs to node names (unknown ids render as `?`).
    pub fn named_pairs(&self, db: &PathDb) -> Vec<(String, String)> {
        self.pairs
            .iter()
            .map(|&(s, t)| {
                (
                    db.graph().node_name(s).unwrap_or("?").to_owned(),
                    db.graph().node_name(t).unwrap_or("?").to_owned(),
                )
            })
            .collect()
    }

    /// All distinct source nodes of the answer, ascending.
    pub fn sources(&self) -> Vec<NodeId> {
        // The pairs are sorted by source already.
        let mut out: Vec<NodeId> = self.pairs.iter().map(|&(s, _)| s).collect();
        out.dedup();
        out
    }

    /// All distinct target nodes of the answer.
    pub fn targets(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.pairs.iter().map(|&(_, t)| t).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Targets reachable from a given source node, ascending.
    pub fn targets_of(&self, source: NodeId) -> Vec<NodeId> {
        let start = self.pairs.partition_point(|&(s, _)| s < source);
        let end = self.pairs.partition_point(|&(s, _)| s <= source);
        self.pairs[start..end].iter().map(|&(_, t)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::db::{PathDb, PathDbConfig};
    use pathix_graph::GraphBuilder;

    fn db() -> PathDb {
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "x", "b");
        b.add_edge_named("a", "x", "c");
        b.add_edge_named("b", "x", "c");
        PathDb::build(b.build(), PathDbConfig::with_k(2))
    }

    #[test]
    fn accessors_and_membership() {
        let db = db();
        let r = db.query("x").unwrap();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(r.contains_named(&db, "a", "b"));
        assert!(!r.contains_named(&db, "b", "a"));
        assert!(!r.contains_named(&db, "a", "nobody"));
        let a = db.graph().node_id("a").unwrap();
        assert_eq!(r.targets_of(a).len(), 2);
        assert_eq!(r.sources().len(), 2);
        assert_eq!(r.targets().len(), 2);
    }

    #[test]
    fn sources_and_targets_of_read_runs_of_the_sorted_pairs() {
        let db = db();
        let r = db.query("x").unwrap();
        let [a, b, c] = ["a", "b", "c"].map(|name| db.graph().node_id(name).unwrap());
        assert_eq!(r.sources(), [a, b]);
        assert_eq!(r.targets_of(a), [b, c]);
        assert_eq!(r.targets_of(b), [c]);
        assert_eq!(r.targets_of(c), []);
        assert_eq!(r.targets_of(pathix_graph::NodeId(99)), []);
    }

    #[test]
    fn named_pairs_resolve_names() {
        let db = db();
        let r = db.query("x/x").unwrap();
        let named = r.named_pairs(&db);
        assert_eq!(named, vec![("a".to_owned(), "c".to_owned())]);
    }
}
