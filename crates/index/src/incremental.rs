//! Incremental maintenance of the k-path index under edge updates.
//!
//! The paper builds `I_{G,k}` once over a static graph; keeping the index
//! consistent while the graph changes is the natural follow-up (and the cost
//! the paper's §3.1 footnote on index construction implicitly defers). §3.1's
//! index is a *set* of `⟨p, a, b⟩` keys, and [`apply_op`] maintains that set
//! by **rederivation** — the "delete and rederive" (DRed) side of Gupta,
//! Mumick & Subrahmanian, *Maintaining Views Incrementally* (SIGMOD 1993),
//! restricted to the keys one edge can touch. An op on edge `e` has two graph
//! epochs: `G⁻` without `e` and `G⁺` with it.
//!
//! * *Candidates.* Every `⟨p, a, b⟩` with a `p`-walk through `e`: per
//!   orientation of `e` as a step, the prefixes walked toward it on `G⁻`
//!   times the suffixes walked away from it on `G⁺` (splitting a walk at its
//!   first use of `e`), `|p| ≤ k`.
//! * *Transitions.* A candidate changes membership iff `(a, b) ∉ p(G⁻)`:
//!   an insert adds it, a delete removes it; every other candidate keeps an
//!   alternative walk that avoids `e`.
//! * *The test.* Meet in the middle on `G⁻`: split `p = p₁ · p₂` at
//!   `⌈|p|/2⌉`; `(a, b) ∈ p(G⁻)` iff the frontier of `a` along `p₁` meets the
//!   frontier of `b` along `p₂⁻`. Frontiers are memoised for the op; at
//!   `|p| = 2` the test is one merge of two sorted neighbour runs, at
//!   `|p| = 1` an edge test.
//!
//! The function holds no index of its own: the caller hands it the [`Graph`]
//! epoch the index describes, and [`apply_op`] advances it by one op
//! ([`Graph::insert_edge`] / [`Graph::remove_edge`], which also decide
//! whether the op is a no-op) and walks the epochs on either side. Both live
//! inside the k-neighbourhood of the edge, so an update costs that
//! neighbourhood, never the index. Each op's transitions come out one per
//! key in ascending key order, so the same updates always produce the same
//! log; storage backends replay it and count their own paths.

use crate::backend::{EntryChange, EntryDeltas};
use crate::enumerate::PathRelation;
use crate::pathkey::{encode_entry, encode_path_prefix};
use pathix_graph::{EdgeOp, Graph, LabelId, NodeId, SignedLabel};
use pathix_rpq::ast::inverse_path;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

/// An edge update applied to a `PathDb`: by id, or by name (the named forms
/// intern unseen vocabulary on the fly). `PathDb::apply` resolves every
/// variant to an [`EdgeOp`] before it reaches [`apply_op`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphUpdate {
    /// Insert the edge `src --label--> dst` (no-op if already present).
    InsertEdge {
        /// Source node.
        src: NodeId,
        /// Edge label.
        label: LabelId,
        /// Target node.
        dst: NodeId,
    },
    /// Delete the edge `src --label--> dst` (no-op if absent).
    DeleteEdge {
        /// Source node.
        src: NodeId,
        /// Edge label.
        label: LabelId,
        /// Target node.
        dst: NodeId,
    },
    /// Insert an edge by external names, interning any unseen node or label
    /// name into the database's live vocabulary (streaming ingest).
    InsertEdgeNamed {
        /// Source node name.
        src: String,
        /// Edge label name.
        label: String,
        /// Target node name.
        dst: String,
    },
    /// Delete an edge by external names. Unknown names make this a no-op
    /// (nothing is interned: a deletion cannot create vocabulary).
    DeleteEdgeNamed {
        /// Source node name.
        src: String,
        /// Edge label name.
        label: String,
        /// Target node name.
        dst: String,
    },
}

impl GraphUpdate {
    /// Shorthand for an id-based insertion.
    pub fn insert(src: NodeId, label: LabelId, dst: NodeId) -> Self {
        GraphUpdate::InsertEdge { src, label, dst }
    }

    /// Shorthand for an id-based deletion.
    pub fn delete(src: NodeId, label: LabelId, dst: NodeId) -> Self {
        GraphUpdate::DeleteEdge { src, label, dst }
    }

    /// Shorthand for a name-based insertion.
    ///
    /// ```
    /// use pathix_index::GraphUpdate;
    ///
    /// let update = GraphUpdate::insert_named("ada", "knows", String::from("jan"));
    /// assert_eq!(
    ///     update,
    ///     GraphUpdate::InsertEdgeNamed {
    ///         src: "ada".into(),
    ///         label: "knows".into(),
    ///         dst: "jan".into(),
    ///     }
    /// );
    /// // Names resolve against a database's live vocabulary, not here.
    /// assert_eq!(update.as_op(), None);
    /// ```
    pub fn insert_named(
        src: impl Into<String>,
        label: impl Into<String>,
        dst: impl Into<String>,
    ) -> Self {
        GraphUpdate::InsertEdgeNamed {
            src: src.into(),
            label: label.into(),
            dst: dst.into(),
        }
    }

    /// Shorthand for a name-based deletion.
    pub fn delete_named(
        src: impl Into<String>,
        label: impl Into<String>,
        dst: impl Into<String>,
    ) -> Self {
        GraphUpdate::DeleteEdgeNamed {
            src: src.into(),
            label: label.into(),
            dst: dst.into(),
        }
    }

    /// The already-resolved edge operation, or `None` for the named variants
    /// (which need a vocabulary to resolve against).
    pub fn as_op(&self) -> Option<EdgeOp> {
        match *self {
            GraphUpdate::InsertEdge { src, label, dst } => Some(EdgeOp::insert(src, label, dst)),
            GraphUpdate::DeleteEdge { src, label, dst } => Some(EdgeOp::delete(src, label, dst)),
            GraphUpdate::InsertEdgeNamed { .. } | GraphUpdate::DeleteEdgeNamed { .. } => None,
        }
    }
}

/// Applies one edge operation: advances `graph` — the epoch the k-path index
/// over label paths of length ≤ `k` currently describes — by `op`, and
/// records in `log` every key that enters (insert) or leaves (delete) the
/// index, one record per key in ascending key order. Returns `false`,
/// changing and logging nothing, when `op` is a no-op on `graph` (an insert
/// of a present edge, a delete of an absent one).
///
/// This is the bridge that makes the storage backends mutable: the
/// rederivation runs once here, and the resulting [`EntryDeltas`] are
/// replayed verbatim against the chunk runs (plain and
/// delta/varint-encoded) and the paged B+tree (see
/// [`MutablePathIndexBackend`](crate::MutablePathIndexBackend)).
///
/// ```
/// use pathix_graph::{EdgeOp, GraphBuilder, SignedLabel};
/// use pathix_index::pathkey::encode_entry;
/// use pathix_index::{apply_op, EntryChange, EntryDeltas};
///
/// let mut builder = GraphBuilder::new();
/// let [ada, jan, zoe] = ["ada", "jan", "zoe"].map(|name| builder.add_node(name));
/// let knows = builder.add_label("knows");
/// let mut graph = builder.build();
/// let mut log = EntryDeltas::new();
/// assert!(apply_op(&mut graph, 2, EdgeOp::insert(ada, knows, jan), &mut log));
/// assert!(apply_op(&mut graph, 2, EdgeOp::insert(jan, knows, zoe), &mut log));
/// let kk = [SignedLabel::forward(knows); 2];
/// let ada_zoe = encode_entry(&kk, ada, zoe);
/// assert!(log.ops().contains(&(ada_zoe.clone(), EntryChange::Added)));
///
/// log.clear();
/// assert!(apply_op(&mut graph, 2, EdgeOp::delete(jan, knows, zoe), &mut log));
/// assert!(log.ops().contains(&(ada_zoe, EntryChange::Removed)));
/// assert!(!graph.has_edge(jan, knows, zoe));
/// // Deleting it again is a no-op.
/// log.clear();
/// assert!(!apply_op(&mut graph, 2, EdgeOp::delete(jan, knows, zoe), &mut log));
/// assert!(log.is_empty());
/// ```
///
/// # Panics
/// Panics if `k` is 0, or if an endpoint or the label of `op` is not
/// interned in `graph`.
pub fn apply_op(graph: &mut Graph, k: usize, op: EdgeOp, log: &mut EntryDeltas) -> bool {
    assert!(k >= 1, "the k-path index requires k ≥ 1");
    let before = graph.clone();
    let changed = if op.insert {
        graph.insert_edge(op.src, op.label, op.dst)
    } else {
        graph.remove_edge(op.src, op.label, op.dst)
    };
    if !changed {
        return false;
    }
    let (without, with) = if op.insert {
        (&before, &*graph)
    } else {
        (&*graph, &before)
    };
    let change = if op.insert {
        EntryChange::Added
    } else {
        EntryChange::Removed
    };
    let mut frontiers = Frontiers::on(without);
    for PathRelation { path, pairs } in candidates(without, with, k, op) {
        let split = path.len().div_ceil(2);
        let head = frontiers.half(&path[..split]);
        let tail = frontiers.half(&inverse_path(&path[split..]));
        for (a, b) in pairs {
            if !frontiers.meet(head, a, tail, b) {
                log.record(&encode_entry(&path, a, b), change);
            }
        }
    }
    true
}

/// The keys a walk through the edge of `op` can realise, grouped by path in
/// key order, each path's pairs sorted and distinct: per orientation of the
/// edge as a step, every prefix walked toward it on `without` (the epoch
/// lacking the edge) times every suffix walked away from it on `with` (the
/// epoch holding it), `|prefix| + 1 + |suffix| ≤ k`.
fn candidates(without: &Graph, with: &Graph, k: usize, op: EdgeOp) -> Vec<PathRelation> {
    // Keyed by the encoded ⟨p⟩ prefix: its length byte comes first, so no
    // path's prefix starts another's, and prefix order is key order.
    let mut by_path: BTreeMap<Vec<u8>, PathRelation> = BTreeMap::new();
    // A `+ℓ` step realises the pair (src, dst), an `ℓ⁻` step (dst, src).
    let orientations = [
        (SignedLabel::forward(op.label), op.src, op.dst),
        (SignedLabel::backward(op.label), op.dst, op.src),
    ];
    for (step, step_from, step_to) in orientations {
        let prefixes = reach_by_path(without, step_from, k - 1, true);
        let suffixes = reach_by_path(with, step_to, k - 1, false);
        for (prefix, sources) in &prefixes {
            for (suffix, targets) in &suffixes {
                if prefix.len() + 1 + suffix.len() > k {
                    continue;
                }
                let path = [prefix.as_slice(), &[step][..], suffix.as_slice()].concat();
                let rel =
                    by_path
                        .entry(encode_path_prefix(&path))
                        .or_insert_with(|| PathRelation {
                            path,
                            pairs: Vec::new(),
                        });
                rel.pairs.extend(
                    sources
                        .iter()
                        .flat_map(|&a| targets.iter().map(move |&b| (a, b))),
                );
            }
        }
    }
    by_path
        .into_values()
        .map(|mut rel| {
            rel.pairs.sort_unstable();
            rel.pairs.dedup();
            rel
        })
        .collect()
}

/// Enumerates, for every label path `q` with `|q| ≤ max_len`, the nodes at
/// the far end of a `q`-walk on `graph` that has `anchor` at one end,
/// ascending and distinct.
///
/// With `toward_anchor = false` the result maps `q → {end | anchor -q-> end}`;
/// with `toward_anchor = true` it maps `q → {start | start -q-> anchor}`.
fn reach_by_path(
    graph: &Graph,
    anchor: NodeId,
    max_len: usize,
    toward_anchor: bool,
) -> Vec<(Vec<SignedLabel>, Vec<NodeId>)> {
    let mut result = vec![(Vec::new(), vec![anchor])];
    let mut frontier = 0;
    while frontier < result.len() {
        let (path, nodes) = &result[frontier];
        frontier += 1;
        if path.len() == max_len {
            continue;
        }
        let mut grown = Vec::new();
        for sl in graph.signed_labels() {
            // Walking *toward* the anchor extends the path on the left and
            // traverses the new first step backwards; walking away extends
            // on the right and traverses it forwards.
            let traverse = if toward_anchor { sl.inverse() } else { sl };
            let next = step(graph, nodes, traverse);
            if next.is_empty() {
                continue;
            }
            let next_path = if toward_anchor {
                [&[sl][..], path.as_slice()].concat()
            } else {
                [path.as_slice(), &[sl][..]].concat()
            };
            grown.push((next_path, next));
        }
        result.extend(grown);
    }
    result
}

/// The nodes one `sl` step away from any of `nodes`, ascending and distinct.
fn step(graph: &Graph, nodes: &[NodeId], sl: SignedLabel) -> Vec<NodeId> {
    let mut next: Vec<NodeId> = nodes.iter().flat_map(|&n| graph.neighbors(n, sl)).collect();
    next.sort_unstable();
    next.dedup();
    next
}

/// Frontiers on one graph epoch, memoised for one op: the nodes reachable
/// from a node along a half path, keyed by `(half, node)`, where halves are
/// interned once per path they split.
struct Frontiers<'g> {
    graph: &'g Graph,
    ids: HashMap<Vec<SignedLabel>, usize>,
    halves: Vec<Vec<SignedLabel>>,
    memo: HashMap<(usize, NodeId), Vec<NodeId>>,
}

impl<'g> Frontiers<'g> {
    fn on(graph: &'g Graph) -> Self {
        Frontiers {
            graph,
            ids: HashMap::new(),
            halves: Vec::new(),
            memo: HashMap::new(),
        }
    }

    /// The id of the half path `half`.
    fn half(&mut self, half: &[SignedLabel]) -> usize {
        if let Some(&id) = self.ids.get(half) {
            return id;
        }
        let id = self.halves.len();
        self.ids.insert(half.to_vec(), id);
        self.halves.push(half.to_vec());
        id
    }

    /// Computes the frontier of `node` along half `id` unless memoised.
    fn ensure(&mut self, id: usize, node: NodeId) {
        let (graph, half) = (self.graph, &self.halves[id]);
        self.memo.entry((id, node)).or_insert_with(|| {
            half.iter()
                .fold(vec![node], |nodes, &sl| step(graph, &nodes, sl))
        });
    }

    /// `true` iff some node is reachable from `a` along half `head` and from
    /// `b` along half `tail`: `(a, b) ∈ (head · tail⁻)(G)`.
    fn meet(&mut self, head: usize, a: NodeId, tail: usize, b: NodeId) -> bool {
        self.ensure(head, a);
        self.ensure(tail, b);
        let (xs, ys) = (&self.memo[&(head, a)], &self.memo[&(tail, b)]);
        let (mut i, mut j) = (0, 0);
        while i < xs.len() && j < ys.len() {
            match xs[i].cmp(&ys[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => return true,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate_paths;
    use crate::pathkey::decode_entry;
    use pathix_datagen::paper_example_graph;
    use pathix_graph::GraphBuilder;
    use std::collections::BTreeSet;

    type Edge = (NodeId, LabelId, NodeId);

    /// The keys of `I_{G,k}` over `graph`, from a full enumeration.
    fn key_set(graph: &Graph, k: usize) -> BTreeSet<Vec<u8>> {
        enumerate_paths(graph, k)
            .iter()
            .flat_map(|rel| {
                rel.pairs
                    .iter()
                    .map(move |&(a, b)| encode_entry(&rel.path, a, b))
            })
            .collect()
    }

    /// A key set kept by replaying [`apply_op`]'s log, together with the
    /// graph epoch it describes.
    struct Live {
        k: usize,
        graph: Graph,
        keys: BTreeSet<Vec<u8>>,
    }

    impl Live {
        /// The key set over `graph`, seeded by a full enumeration.
        fn over(graph: &Graph, k: usize) -> Live {
            Live {
                k,
                graph: graph.clone(),
                keys: key_set(graph, k),
            }
        }

        /// The key set at `k` over an edgeless graph that interns nodes
        /// `0..nodes` and labels `0..labels`.
        fn blank(k: usize, nodes: u32, labels: u16) -> Live {
            Live::over(&blank_graph(nodes, labels), k)
        }

        /// Applies `op`, replaying its log into the key set; a double add or
        /// the removal of an absent key fails the test.
        fn apply(&mut self, op: EdgeOp) -> bool {
            let mut log = EntryDeltas::new();
            let changed = apply_op(&mut self.graph, self.k, op, &mut log);
            self.replay(&log);
            changed
        }

        fn replay(&mut self, log: &EntryDeltas) {
            for (key, change) in log.ops() {
                match change {
                    EntryChange::Added => assert!(self.keys.insert(key.clone()), "double add"),
                    EntryChange::Removed => assert!(self.keys.remove(key), "remove of absent key"),
                }
            }
        }

        fn insert(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
            self.apply(EdgeOp::insert(src, label, dst))
        }

        fn delete(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
            self.apply(EdgeOp::delete(src, label, dst))
        }

        fn contains(&self, path: &[SignedLabel], a: NodeId, b: NodeId) -> bool {
            self.keys.contains(&encode_entry(path, a, b))
        }

        /// The pairs of `path` in the key set, in `(source, target)` order.
        fn scan_path(&self, path: &[SignedLabel]) -> Vec<(NodeId, NodeId)> {
            self.keys
                .iter()
                .filter_map(|key| decode_entry(key))
                .filter(|(p, _, _)| p == path)
                .map(|(_, a, b)| (a, b))
                .collect()
        }
    }

    /// An edgeless graph interning nodes `0..nodes` and labels `0..labels`.
    fn blank_graph(nodes: u32, labels: u16) -> Graph {
        let mut builder = GraphBuilder::new();
        for node in 0..nodes {
            builder.add_node(&node.to_string());
        }
        for label in 0..labels {
            builder.add_label(&label.to_string());
        }
        builder.build()
    }

    /// The labeled edges of `g`.
    fn edges_of(g: &Graph) -> BTreeSet<Edge> {
        g.labels()
            .flat_map(|l| g.edges(l).map(move |(s, d)| (s, l, d)))
            .collect()
    }

    /// The key set over `g` kept by replaying its edges one insertion at a
    /// time, starting from `g`'s node and label ids without any edge.
    fn replayed(g: &Graph, k: usize) -> Live {
        let mut live = Live::blank(k, g.node_count() as u32, g.label_count() as u16);
        for (src, label, dst) in edges_of(g) {
            assert!(live.insert(src, label, dst));
        }
        live
    }

    /// Reference oracle: distinct pairs of `path` over an explicit edge set.
    fn oracle_pairs(edges: &BTreeSet<Edge>, path: &[SignedLabel]) -> Vec<(NodeId, NodeId)> {
        let step = |node: NodeId, sl: SignedLabel| -> Vec<NodeId> {
            edges
                .iter()
                .filter_map(|&(s, l, d)| {
                    if l != sl.label {
                        return None;
                    }
                    if sl.is_backward() {
                        (d == node).then_some(s)
                    } else {
                        (s == node).then_some(d)
                    }
                })
                .collect()
        };
        let nodes: BTreeSet<NodeId> = edges.iter().flat_map(|&(s, _, d)| [s, d]).collect();
        let mut pairs: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for &start in &nodes {
            let mut frontier = vec![start];
            for &sl in path {
                let mut next = Vec::new();
                for node in frontier {
                    next.extend(step(node, sl));
                }
                next.sort_unstable();
                next.dedup();
                frontier = next;
            }
            pairs.extend(frontier.into_iter().map(|end| (start, end)));
        }
        pairs.into_iter().collect()
    }

    /// All signed paths of length 1..=k over labels `0..labels`.
    fn all_paths(labels: u16, k: usize) -> Vec<Vec<SignedLabel>> {
        let alphabet: Vec<SignedLabel> = (0..labels)
            .flat_map(|l| {
                [
                    SignedLabel::forward(LabelId(l)),
                    SignedLabel::backward(LabelId(l)),
                ]
            })
            .collect();
        let mut result: Vec<Vec<SignedLabel>> = Vec::new();
        let mut level: Vec<Vec<SignedLabel>> = vec![Vec::new()];
        for _ in 0..k {
            let mut next = Vec::new();
            for p in &level {
                for &sl in &alphabet {
                    let mut q = p.clone();
                    q.push(sl);
                    next.push(q);
                }
            }
            result.extend(next.iter().cloned());
            level = next;
        }
        result
    }

    fn assert_matches_oracle(live: &Live, edges: &BTreeSet<Edge>, labels: u16) {
        for path in all_paths(labels, live.k) {
            let expected = oracle_pairs(edges, &path);
            assert_eq!(
                live.scan_path(&path),
                expected,
                "pair set mismatch for path {path:?}"
            );
        }
    }

    #[test]
    fn from_graph_matches_the_bulk_enumeration() {
        let g = paper_example_graph();
        for k in 1..=3 {
            let relations = enumerate_paths(&g, k);
            let live = replayed(&g, k);
            assert_eq!(
                live.keys.len(),
                relations.iter().map(|r| r.pairs.len()).sum::<usize>()
            );
            for rel in &relations {
                assert_eq!(live.scan_path(&rel.path), rel.pairs, "path {:?}", rel.path);
            }
        }
    }

    #[test]
    fn insertions_match_rebuild_after_every_step() {
        let knows = LabelId(0);
        let likes = LabelId(1);
        let script: Vec<Edge> = vec![
            (NodeId(0), knows, NodeId(1)),
            (NodeId(1), knows, NodeId(2)),
            (NodeId(2), likes, NodeId(0)),
            (NodeId(0), likes, NodeId(3)),
            (NodeId(3), knows, NodeId(0)),
            (NodeId(2), knows, NodeId(2)),
            (NodeId(1), likes, NodeId(3)),
        ];
        let mut live = Live::blank(3, 4, 2);
        let mut edges = BTreeSet::new();
        for edge in script {
            assert!(live.insert(edge.0, edge.1, edge.2));
            edges.insert(edge);
            assert_matches_oracle(&live, &edges, 2);
        }
    }

    #[test]
    fn deletions_match_rebuild_after_every_step() {
        let g = paper_example_graph();
        let mut live = replayed(&g, 2);
        let mut edges = edges_of(&g);
        let labels = g.label_count() as u16;
        let script: Vec<Edge> = edges.iter().copied().step_by(3).collect();
        for edge in script {
            assert!(live.delete(edge.0, edge.1, edge.2));
            edges.remove(&edge);
            assert_matches_oracle(&live, &edges, labels);
        }
    }

    #[test]
    fn deleting_everything_empties_the_index() {
        let g = paper_example_graph();
        let mut live = replayed(&g, 3);
        for (src, label, dst) in edges_of(&g) {
            assert!(live.delete(src, label, dst));
        }
        assert!(live.keys.is_empty());
        assert_eq!(live.graph.edge_count(), 0);
    }

    #[test]
    fn insert_then_delete_restores_previous_state() {
        let g = paper_example_graph();
        let mut live = replayed(&g, 2);
        let before = live.keys.clone();
        let knows = g.label_id("knows").unwrap();
        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        assert!(!g.has_edge(sue, knows, tim));
        let (mut added, mut removed) = (EntryDeltas::new(), EntryDeltas::new());
        assert!(apply_op(
            &mut live.graph,
            2,
            EdgeOp::insert(sue, knows, tim),
            &mut added
        ));
        live.replay(&added);
        assert_ne!(live.keys, before);
        assert!(apply_op(
            &mut live.graph,
            2,
            EdgeOp::delete(sue, knows, tim),
            &mut removed
        ));
        live.replay(&removed);
        assert_eq!(live.keys, before);
        // The delete takes back exactly the keys the insert brought.
        let keys = |log: &EntryDeltas| log.ops().iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&added), keys(&removed));
    }

    #[test]
    fn duplicate_insert_and_absent_delete_are_noops() {
        let knows = LabelId(0);
        let mut live = Live::blank(2, 7, 1);
        assert!(live.insert(NodeId(0), knows, NodeId(1)));
        let mut log = EntryDeltas::new();
        for op in [
            EdgeOp::insert(NodeId(0), knows, NodeId(1)),
            EdgeOp::delete(NodeId(5), knows, NodeId(6)),
        ] {
            assert!(!apply_op(&mut live.graph, 2, op, &mut log));
        }
        assert!(log.is_empty());
        assert_eq!(live.graph.edge_count(), 1);
    }

    #[test]
    fn pair_survives_while_an_alternative_walk_exists() {
        // Two length-2 walks from 0 to 3: via 1 and via 2. Deleting one leg
        // must keep (0, 3) in the k=2 relation; deleting both removes it.
        let l = LabelId(0);
        let mut live = Live::blank(2, 4, 1);
        live.insert(NodeId(0), l, NodeId(1));
        live.insert(NodeId(1), l, NodeId(3));
        live.insert(NodeId(0), l, NodeId(2));
        live.insert(NodeId(2), l, NodeId(3));
        let ll = [SignedLabel::forward(l), SignedLabel::forward(l)];
        assert!(live.contains(&ll, NodeId(0), NodeId(3)));
        live.delete(NodeId(1), l, NodeId(3));
        assert!(live.contains(&ll, NodeId(0), NodeId(3)));
        live.delete(NodeId(2), l, NodeId(3));
        assert!(!live.contains(&ll, NodeId(0), NodeId(3)));
    }

    #[test]
    fn self_loops_are_counted_once_per_walk() {
        // A loop lies on its own walks in both orientations: every key it
        // realises must still be logged once.
        let l = LabelId(0);
        let mut log = EntryDeltas::new();
        let mut graph = blank_graph(8, 1);
        assert!(apply_op(
            &mut graph,
            3,
            EdgeOp::insert(NodeId(7), l, NodeId(7)),
            &mut log
        ));
        let logged: BTreeSet<Vec<u8>> = log.ops().iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(logged.len(), log.len(), "a key logged twice");
        assert_eq!(logged, key_set(&graph, 3));
        // One loop yields (7, 7) under each of the 2 + 4 + 8 signed paths.
        assert_eq!(log.len(), 14);
        let mut live = Live::over(&graph, 3);
        live.delete(NodeId(7), l, NodeId(7));
        assert!(live.keys.is_empty());
    }

    #[test]
    fn scan_output_is_sorted_by_source_then_target() {
        // Within one op the log is in key order, so one path's pairs come in
        // (source, target) order.
        let g = paper_example_graph();
        let knows = g.label_id("knows").unwrap();
        let kk = [SignedLabel::forward(knows); 2];
        let mut graph = g.clone();
        let mut log = EntryDeltas::new();
        let (sue, tim) = (g.node_id("sue").unwrap(), g.node_id("tim").unwrap());
        assert!(apply_op(
            &mut graph,
            2,
            EdgeOp::insert(tim, knows, sue),
            &mut log
        ));
        let pairs: Vec<(NodeId, NodeId)> = log
            .ops()
            .iter()
            .filter_map(|(key, _)| decode_entry(key))
            .filter(|(p, _, _)| p == &kk)
            .map(|(_, a, b)| (a, b))
            .collect();
        assert!(pairs.len() > 1, "{pairs:?}");
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bulk_build_matches_replayed_insertions() {
        let g = paper_example_graph();
        for k in 1..=3 {
            let Live {
                keys: replayed,
                graph: chain,
                ..
            } = replayed(&g, k);
            assert_eq!(key_set(&g, k), replayed, "k = {k}");
            assert_eq!(edges_of(&chain), edges_of(&g));
        }
    }

    #[test]
    fn bulk_build_stays_consistent_under_further_updates() {
        let g = paper_example_graph();
        let mut live = Live::over(&g, 2);
        let mut edges = edges_of(&g);
        let labels = g.label_count() as u16;
        let removed: Vec<Edge> = edges.iter().copied().step_by(2).collect();
        for edge in removed {
            assert!(live.delete(edge.0, edge.1, edge.2));
            edges.remove(&edge);
        }
        assert_matches_oracle(&live, &edges, labels);
    }

    #[test]
    fn apply_logged_records_key_transitions() {
        let knows = LabelId(0);
        let mut graph = blank_graph(2, 1);
        let mut log = EntryDeltas::new();

        // A fresh edge creates entries: every logged op is an Added key of
        // the rebuilt index, and the log holds all of them.
        let insert = EdgeOp::insert(NodeId(0), knows, NodeId(1));
        assert!(apply_op(&mut graph, 2, insert, &mut log));
        let rebuilt = key_set(&graph, 2);
        assert_eq!(log.len(), rebuilt.len());
        for (key, change) in log.ops() {
            assert_eq!(*change, EntryChange::Added);
            assert!(rebuilt.contains(key));
        }

        // Deleting the edge reverses every transition.
        log.clear();
        let delete = EdgeOp::delete(NodeId(0), knows, NodeId(1));
        assert!(apply_op(&mut graph, 2, delete, &mut log));
        assert_eq!(log.len(), rebuilt.len());
        assert!(log.ops().iter().all(|(_, c)| *c == EntryChange::Removed));
        assert!(key_set(&graph, 2).is_empty());

        // A no-op update logs nothing.
        log.clear();
        assert!(!apply_op(&mut graph, 2, delete, &mut log));
        assert!(log.is_empty());
    }

    #[test]
    fn replaying_the_log_reproduces_the_key_set() {
        let g = paper_example_graph();
        let mut graph = g.clone();
        let mut shadow = key_set(&g, 2);

        let mut rng_edges: Vec<Edge> = edges_of(&g).into_iter().collect();
        rng_edges.truncate(6);
        let mut log = EntryDeltas::new();
        for &(s, l, d) in &rng_edges {
            apply_op(&mut graph, 2, EdgeOp::delete(s, l, d), &mut log);
        }
        for &(s, l, d) in &rng_edges {
            apply_op(&mut graph, 2, EdgeOp::insert(s, l, d), &mut log);
        }
        for (key, change) in log.ops() {
            match change {
                EntryChange::Added => assert!(shadow.insert(key.clone()), "double add"),
                EntryChange::Removed => assert!(shadow.remove(key), "remove of absent key"),
            }
        }
        assert_eq!(
            shadow,
            key_set(&graph, 2),
            "log replay diverged from a rebuild"
        );
    }

    /// Effective updates on the paper graph: every third edge deleted, then
    /// re-inserted, then one new edge.
    fn churn(g: &Graph) -> Vec<EdgeOp> {
        let some: Vec<Edge> = edges_of(g).into_iter().step_by(3).collect();
        let mut ops: Vec<EdgeOp> = some
            .iter()
            .map(|&(s, l, d)| EdgeOp::delete(s, l, d))
            .collect();
        ops.extend(some.iter().map(|&(s, l, d)| EdgeOp::insert(s, l, d)));
        let knows = g.label_id("knows").unwrap();
        ops.push(EdgeOp::insert(
            g.node_id("sue").unwrap(),
            knows,
            g.node_id("tim").unwrap(),
        ));
        ops
    }

    #[test]
    fn each_op_logs_its_transitions_once_per_key_in_key_order() {
        let g = paper_example_graph();
        let mut graph = g.clone();
        for op in churn(&g) {
            let mut log = EntryDeltas::new();
            assert!(apply_op(&mut graph, 3, op, &mut log));
            assert!(!log.is_empty(), "{op:?}");
            assert!(
                log.ops().windows(2).all(|w| w[0].0 < w[1].0),
                "{op:?}: transitions out of key order"
            );
        }
    }

    #[test]
    fn independently_seeded_writers_log_identical_deltas() {
        // Two graphs built separately, not a clone: a clone would share
        // whatever state decides the emission order.
        let logs: Vec<EntryDeltas> = (0..2)
            .map(|_| {
                let g = paper_example_graph();
                let mut graph = g.clone();
                let mut log = EntryDeltas::new();
                for op in churn(&g) {
                    assert!(apply_op(&mut graph, 3, op, &mut log));
                }
                log
            })
            .collect();
        assert!(logs[0].len() > 100);
        assert!(
            logs[0] == logs[1],
            "the two writers logged different deltas"
        );
    }

    #[test]
    fn apply_dispatches_updates() {
        let l = LabelId(0);
        let mut live = Live::blank(1, 2, 1);
        assert!(live.apply(EdgeOp::insert(NodeId(0), l, NodeId(1))));
        assert!(live.graph.has_edge(NodeId(0), l, NodeId(1)));
        assert!(live.apply(EdgeOp::delete(NodeId(0), l, NodeId(1))));
        assert!(!live.graph.has_edge(NodeId(0), l, NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "not interned")]
    fn an_uninterned_endpoint_panics() {
        let mut graph = blank_graph(2, 1);
        let op = EdgeOp::insert(NodeId(0), LabelId(0), NodeId(2));
        apply_op(&mut graph, 2, op, &mut EntryDeltas::new());
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn k_zero_is_rejected() {
        let mut graph = blank_graph(2, 1);
        let op = EdgeOp::insert(NodeId(0), LabelId(0), NodeId(1));
        apply_op(&mut graph, 0, op, &mut EntryDeltas::new());
    }

    #[test]
    fn the_membership_test_meets_in_the_middle_at_every_length() {
        // A chain 0 → 1 → 2 → 3 → 4 plus a detour 0 → 5 → 2: the frontiers
        // of each half decide (a, b) ∈ p(G) for |p| = 1 (an edge test), 2
        // (one merge) and 3, 4 (a two-step half).
        let l = LabelId(0);
        let mut graph = blank_graph(6, 1);
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 2)] {
            assert!(graph.insert_edge(NodeId(s), l, NodeId(d)));
        }
        let fwd = SignedLabel::forward(l);
        let mut frontiers = Frontiers::on(&graph);
        for len in 1..=4usize {
            let path = vec![fwd; len];
            let expected = oracle_pairs(&edges_of(&graph), &path);
            let split = len.div_ceil(2);
            let head = frontiers.half(&path[..split]);
            let tail = frontiers.half(&inverse_path(&path[split..]));
            for a in 0..6 {
                for b in 0..6 {
                    let (a, b) = (NodeId(a), NodeId(b));
                    assert_eq!(
                        frontiers.meet(head, a, tail, b),
                        expected.contains(&(a, b)),
                        "|p| = {len}, ({a:?}, {b:?})"
                    );
                }
            }
        }
        // Halves are interned once: [l], [], [l, l], [l⁻], [l⁻, l⁻].
        assert_eq!(frontiers.halves.len(), 5);
    }

    #[test]
    fn a_candidate_with_a_walk_avoiding_the_edge_does_not_transition() {
        // 0 → 1 → 3 exists; inserting 0 → 2 → 3 makes (0, 3) a candidate of
        // l/l twice over, and the pair stays: it was in l/l(G⁻) already.
        let l = LabelId(0);
        let ll = [SignedLabel::forward(l); 2];
        let mut graph = blank_graph(4, 1);
        for (s, d) in [(0, 1), (1, 3), (0, 2)] {
            assert!(graph.insert_edge(NodeId(s), l, NodeId(d)));
        }
        let op = EdgeOp::insert(NodeId(2), l, NodeId(3));
        let mut with = graph.clone();
        assert!(with.insert_edge(NodeId(2), l, NodeId(3)));
        let relations = candidates(&graph, &with, 2, op);
        let ll_rel = relations.iter().find(|rel| rel.path == ll).unwrap();
        assert_eq!(ll_rel.pairs, [(NodeId(0), NodeId(3))]);
        let mut log = EntryDeltas::new();
        assert!(apply_op(&mut graph, 2, op, &mut log));
        assert!(!log
            .ops()
            .iter()
            .any(|(key, _)| key == &encode_entry(&ll, NodeId(0), NodeId(3))));
        // The converse step and the edge itself are new.
        assert!(log.ops().contains(&(
            encode_entry(&[SignedLabel::forward(l)], NodeId(2), NodeId(3)),
            EntryChange::Added
        )));
    }

    #[test]
    fn a_batch_log_nets_out_to_the_difference_of_two_rebuilds() {
        // One log across a whole batch, as `PathDb::apply` keeps it: folded
        // to each key's first and last transition, it is the difference of
        // the rebuilds before and after the batch.
        let g = paper_example_graph();
        let mut graph = g.clone();
        let mut log = EntryDeltas::new();
        for op in churn(&g) {
            apply_op(&mut graph, 2, op, &mut log);
        }
        let mut net: BTreeMap<&[u8], (EntryChange, EntryChange)> = BTreeMap::new();
        for (key, change) in log.ops() {
            net.entry(key)
                .and_modify(|(_, last)| *last = *change)
                .or_insert((*change, *change));
        }
        let (before, after) = (key_set(&g, 2), key_set(&graph, 2));
        let netted: Vec<(Vec<u8>, bool)> = net
            .into_iter()
            .filter(|(_, (first, last))| first == last)
            .map(|(key, (_, last))| (key.to_vec(), last == EntryChange::Added))
            .collect();
        let expected: Vec<(Vec<u8>, bool)> = before
            .symmetric_difference(&after)
            .map(|key| (key.clone(), after.contains(key)))
            .collect();
        assert_eq!(netted, expected);
        // Every third edge went and came back: most keys cancel.
        assert!(
            log.len() > 2 * expected.len(),
            "{} vs {}",
            log.len(),
            expected.len()
        );
    }

    #[test]
    fn a_skewed_stream_on_a_generated_graph_logs_what_rebuilds_differ_by() {
        // The benchmark's data-set generator at a small scale, k = 2: hub
        // inserts and data-set deletes, each op checked against two
        // rebuilds.
        let mut graph = pathix_datagen::advogato_like(pathix_datagen::AdvogatoConfig {
            scale: 0.01,
            seed: 0x0AD0_6A70,
            ..Default::default()
        });
        let mut by_degree: Vec<NodeId> = graph.nodes().collect();
        by_degree.sort_by_key(|&n| (std::cmp::Reverse(graph.total_degree(n)), n.0));
        let mut deletable: Vec<Edge> = edges_of(&graph).into_iter().collect();
        let labels: Vec<LabelId> = graph.labels().collect();
        let mut transitions = 0;
        for i in 0..40usize {
            let op = if i % 10 == 9 {
                let (s, l, d) = deletable.swap_remove(i * 7 % deletable.len());
                EdgeOp::delete(s, l, d)
            } else {
                let (a, b) = (by_degree[i % 5], by_degree[(i * 3 + 1) % 11]);
                EdgeOp::insert(a, labels[i % labels.len()], b)
            };
            let before = key_set(&graph, 2);
            let mut log = EntryDeltas::new();
            apply_op(&mut graph, 2, op, &mut log);
            let after = key_set(&graph, 2);
            let expected: Vec<&Vec<u8>> = before.symmetric_difference(&after).collect();
            let logged: Vec<&Vec<u8>> = log.ops().iter().map(|(key, _)| key).collect();
            assert_eq!(logged, expected, "op {i}: {op:?}");
            transitions += log.len();
        }
        assert!(transitions > 40, "{transitions}");
    }

    mod property {
        use super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// A random update over ≤ 5 nodes and 2 labels, self-loops included;
        /// deletions pick arbitrary edges and are no-ops when absent, so
        /// scripts freely mix effective and no-op updates.
        fn random_update(rng: &mut StdRng) -> EdgeOp {
            let src = NodeId(rng.gen_range(0..5u32));
            let label = LabelId(rng.gen_range(0..2u32) as u16);
            let dst = NodeId(rng.gen_range(0..5u32));
            if rng.gen_bool(0.5) {
                EdgeOp::insert(src, label, dst)
            } else {
                EdgeOp::delete(src, label, dst)
            }
        }

        /// After any update script, every path's pair set equals a fresh
        /// evaluation over the surviving edge set.
        #[test]
        fn random_update_scripts_match_oracle() {
            for case in 0..64u64 {
                let mut rng = StdRng::seed_from_u64(0x0AC1E + case);
                let k = rng.gen_range(1..=3usize);
                let mut live = Live::blank(k, 5, 2);
                let mut edges: BTreeSet<Edge> = BTreeSet::new();
                for _ in 0..rng.gen_range(1..40usize) {
                    let update = random_update(&mut rng);
                    let edge = (update.src, update.label, update.dst);
                    let expected_change = if update.insert {
                        edges.insert(edge)
                    } else {
                        edges.remove(&edge)
                    };
                    let changed = live.apply(update);
                    assert_eq!(changed, expected_change, "case {case}");
                }
                for path in all_paths(2, k) {
                    assert_eq!(
                        live.scan_path(&path),
                        oracle_pairs(&edges, &path),
                        "case {case}"
                    );
                }
            }
        }

        /// Each op logs exactly the symmetric difference of two rebuilds,
        /// one before and one after it, in key order: keys only the later
        /// rebuild holds as Added, keys only the earlier one holds as
        /// Removed, and nothing for a no-op.
        #[test]
        fn each_op_logs_the_symmetric_difference_of_two_rebuilds() {
            let mut effective = 0;
            for case in 0..64u64 {
                let mut rng = StdRng::seed_from_u64(0x05E7D + case);
                let k = rng.gen_range(1..=3usize);
                let mut graph = blank_graph(5, 2);
                for _ in 0..rng.gen_range(1..40usize) {
                    let op = random_update(&mut rng);
                    let before = key_set(&graph, k);
                    let mut log = EntryDeltas::new();
                    effective += usize::from(apply_op(&mut graph, k, op, &mut log));
                    let after = key_set(&graph, k);
                    let expected: Vec<(Vec<u8>, EntryChange)> = before
                        .symmetric_difference(&after)
                        .map(|key| {
                            let change = if after.contains(key) {
                                EntryChange::Added
                            } else {
                                EntryChange::Removed
                            };
                            (key.clone(), change)
                        })
                        .collect();
                    assert_eq!(log.ops(), expected, "case {case}, {op:?}");
                }
            }
            assert!(effective > 500, "{effective} effective ops");
        }

        /// Every transition is a candidate, and every candidate has a walk
        /// through the edge on the epoch that holds it.
        #[test]
        fn candidates_cover_the_transitions_and_hold_on_the_epoch_with_the_edge() {
            for case in 0..64u64 {
                let mut rng = StdRng::seed_from_u64(0xCA4D + case);
                let k = rng.gen_range(1..=3usize);
                let mut graph = blank_graph(5, 2);
                for _ in 0..rng.gen_range(1..30usize) {
                    let op = random_update(&mut rng);
                    let before = graph.clone();
                    let mut log = EntryDeltas::new();
                    if !apply_op(&mut graph, k, op, &mut log) {
                        continue;
                    }
                    let (without, with) = if op.insert {
                        (&before, &graph)
                    } else {
                        (&graph, &before)
                    };
                    let mut candidate_keys = BTreeSet::new();
                    for rel in candidates(without, with, k, op) {
                        let holds = crate::naive_path_eval(with, &rel.path);
                        for (a, b) in rel.pairs {
                            assert!(holds.contains(&(a, b)), "case {case}");
                            candidate_keys.insert(encode_entry(&rel.path, a, b));
                        }
                    }
                    for (key, _) in log.ops() {
                        assert!(candidate_keys.contains(key), "case {case}");
                    }
                }
            }
        }

        /// Transitions are symmetric under path inversion: ⟨p, a, b⟩ enters
        /// or leaves the index exactly when ⟨p⁻, b, a⟩ does.
        #[test]
        fn transitions_are_converse_symmetric() {
            for case in 0..64u64 {
                let mut rng = StdRng::seed_from_u64(0xC0A0E + case);
                let mut graph = blank_graph(5, 2);
                for _ in 0..rng.gen_range(1..25usize) {
                    let mut log = EntryDeltas::new();
                    apply_op(&mut graph, 2, random_update(&mut rng), &mut log);
                    let logged: BTreeSet<(Vec<u8>, bool)> = log
                        .ops()
                        .iter()
                        .map(|(key, change)| (key.clone(), *change == EntryChange::Added))
                        .collect();
                    for (key, added) in &logged {
                        let (path, a, b) = decode_entry(key).unwrap();
                        let mirror = encode_entry(&inverse_path(&path), b, a);
                        assert!(logged.contains(&(mirror, *added)), "case {case}");
                    }
                }
            }
        }
    }
}
