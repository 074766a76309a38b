//! The edge-labeled graph: bulk-built via [`crate::GraphBuilder`], then grown
//! in O(Δ) epochs through shared-structure update batches.

use crate::dict::{DictView, Vocabulary};
use crate::ids::{LabelId, NodeId, SignedLabel};
use crate::runs::{GraphPublishStats, Pair, PairRun};
use pathix_audit::{AuditReport, StructuralAudit};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Both directions of one label's edge relation, chunked and `Arc`-shared
/// (see [`crate::runs`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct LabelAdjacency {
    /// `(source, target)` pairs, ascending.
    pub(crate) forward: PairRun,
    /// `(target, source)` pairs, ascending — the converse relation, so `ℓ⁻`
    /// navigation is as cheap as `ℓ`.
    pub(crate) backward: PairRun,
}

/// One edge mutation, already resolved to interned ids.
///
/// Within one [`Graph::commit_batch`] the ops of a `(label, src, dst)` key
/// net out by their first and last transition:
///
/// ```
/// use pathix_graph::{EdgeOp, GraphBuilder};
///
/// let mut b = GraphBuilder::new();
/// b.add_edge_named("ada", "knows", "jan");
/// let g = b.build();
/// let (ada, jan) = (g.node_id("ada").unwrap(), g.node_id("jan").unwrap());
/// let knows = g.label_id("knows").unwrap();
///
/// let next = g.commit_batch(
///     g.vocab_batch(),
///     &[
///         EdgeOp::delete(ada, knows, jan),
///         EdgeOp::insert(jan, knows, ada),
///         // Inserted and deleted again inside the batch: a net no-op.
///         EdgeOp::insert(jan, knows, jan),
///         EdgeOp::delete(jan, knows, jan),
///     ],
/// );
/// assert!(!next.has_edge(ada, knows, jan));
/// assert!(next.has_edge(jan, knows, ada));
/// assert!(!next.has_edge(jan, knows, jan));
/// assert_eq!(next.edge_count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeOp {
    pub src: NodeId,
    pub label: LabelId,
    pub dst: NodeId,
    /// `true` inserts the edge, `false` removes it.
    pub insert: bool,
}

impl EdgeOp {
    /// An edge insertion.
    pub fn insert(src: NodeId, label: LabelId, dst: NodeId) -> Self {
        EdgeOp {
            src,
            label,
            dst,
            insert: true,
        }
    }

    /// An edge removal.
    pub fn delete(src: NodeId, label: LabelId, dst: NodeId) -> Self {
        EdgeOp {
            src,
            label,
            dst,
            insert: false,
        }
    }
}

/// The vocabulary side of an in-flight update batch: the next epoch's node
/// and label counts, growing as the writer interns unseen names into the
/// shared store. Existing snapshots keep their frozen lengths — a name
/// interned here only becomes visible in the graph returned by
/// [`Graph::commit_batch`].
#[derive(Debug)]
pub struct VocabBatch {
    vocab: Arc<Vocabulary>,
    node_len: u32,
    label_len: u32,
}

impl VocabBatch {
    /// Resolves a node name against the batch-visible vocabulary.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.vocab.nodes.lookup(name, self.node_len).map(NodeId)
    }

    /// Resolves a label name against the batch-visible vocabulary.
    pub fn label_id(&self, name: &str) -> Option<LabelId> {
        self.vocab
            .labels
            .lookup(name, self.label_len)
            .map(|c| LabelId(c as u16))
    }

    /// Interns a node name, returning its id (existing names keep theirs).
    pub fn intern_node(&mut self, name: &str) -> NodeId {
        let code = self.vocab.nodes.intern(name);
        self.node_len = self.node_len.max(code + 1);
        NodeId(code)
    }

    /// Interns a label name, returning its id.
    ///
    /// # Panics
    /// Panics when the label vocabulary would exceed `2^15` entries (the
    /// same bound [`crate::GraphBuilder::add_label`] enforces).
    pub fn intern_label(&mut self, name: &str) -> LabelId {
        let code = self.vocab.labels.intern(name);
        assert!(
            code < (1 << 15),
            "pathix supports at most 2^15 distinct labels"
        );
        self.label_len = self.label_len.max(code + 1);
        LabelId(code as u16)
    }

    /// The node count the committed graph will report.
    pub fn node_count(&self) -> usize {
        self.node_len as usize
    }

    /// The label count the committed graph will report.
    pub fn label_count(&self) -> usize {
        self.label_len as usize
    }
}

/// A finite, directed, edge-labeled graph (Section 2.1 of the paper).
///
/// Built in bulk via [`crate::GraphBuilder`]; all query and indexing
/// machinery treats a shared `&Graph` as a consistent snapshot. A graph value
/// is an **epoch** over structurally shared storage:
///
/// * per label, the edge relation and its converse live in bounded immutable
///   chunks behind `Arc`s ([`crate::runs`]), so cloning a graph and
///   committing an update batch ([`Graph::commit_batch`]) both cost O(Δ)
///   rather than O(V + E) — untouched chunks are re-shared by refcount bump;
/// * the node/label vocabulary is one shared append-only store
///   ([`crate::dict::Vocabulary`]); each epoch sees a frozen prefix through
///   lock-free [`DictView`]s while the writer interns new names live.
///
/// [`Graph::insert_edge`] / [`Graph::remove_edge`] are the edge-at-a-time
/// form: each publishes a one-op epoch in place, which is how the counting
/// index of `pathix-index` steps a scratch graph through an update batch.
///
/// Committing a batch returns the next epoch and leaves this one untouched;
/// names the batch interns become visible only in the committed graph:
///
/// ```
/// use pathix_graph::{EdgeOp, Graph, SignedLabel};
///
/// let g0 = Graph::empty();
/// let mut vocab = g0.vocab_batch();
/// let (ada, jan) = (vocab.intern_node("ada"), vocab.intern_node("jan"));
/// let knows = vocab.intern_label("knows");
/// let g1 = g0.commit_batch(vocab, &[EdgeOp::insert(ada, knows, jan)]);
///
/// assert_eq!((g0.node_count(), g0.edge_count()), (0, 0));
/// assert_eq!(g0.node_id("ada"), None);
/// assert_eq!((g1.node_count(), g1.edge_count(), g1.label_count()), (2, 1, 1));
/// assert_eq!(g1.node_name(ada), Some("ada"));
/// assert_eq!(g1.edges(knows).collect::<Vec<_>>(), [(ada, jan)]);
/// // Both directions of a label are navigable.
/// let back: Vec<_> = g1.neighbors(jan, SignedLabel::backward(knows)).collect();
/// assert_eq!(back, [ada]);
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) vocab: Arc<Vocabulary>,
    pub(crate) nodes_view: DictView,
    pub(crate) labels_view: DictView,
    /// Per label adjacency, indexed by label id; `labels.len()` always
    /// equals the visible label count.
    pub(crate) labels: Arc<Vec<LabelAdjacency>>,
    pub(crate) edge_count: usize,
    pub(crate) last_publish: GraphPublishStats,
}

impl Graph {
    /// An empty graph over an empty vocabulary — the seed for pure-streaming
    /// ingest, where every node, label and edge arrives through update
    /// batches.
    pub fn empty() -> Graph {
        crate::builder::GraphBuilder::new().build()
    }

    /// Number of nodes (size of `nodes(G)` plus any isolated nodes that were
    /// explicitly added).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes_view.len()
    }

    /// Total number of distinct labeled edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Size of the vocabulary `L`.
    #[inline]
    pub fn label_count(&self) -> usize {
        self.labels_view.len()
    }

    /// Iterator over all node ids `0..node_count`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over all label ids.
    pub fn labels(&self) -> impl Iterator<Item = LabelId> {
        (0..self.label_count() as u16).map(LabelId)
    }

    /// Iterator over the signed alphabet `{ℓ, ℓ⁻ | ℓ ∈ L}` in
    /// `(label, direction)` order.
    pub fn signed_labels(&self) -> impl Iterator<Item = SignedLabel> {
        (0..self.label_count() as u16).flat_map(|l| {
            [
                SignedLabel::forward(LabelId(l)),
                SignedLabel::backward(LabelId(l)),
            ]
        })
    }

    fn adjacency(&self, label: LabelId) -> Option<&LabelAdjacency> {
        self.labels.get(label.index())
    }

    /// The edge relation `ℓ^G` in ascending `(source, target)` order,
    /// deduplicated, streamed chunk by chunk.
    pub fn edges(&self, label: LabelId) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adjacency(label)
            .map(|a| a.forward.iter())
            .into_iter()
            .flatten()
    }

    /// The pair relation of a signed label: `ℓ^G` itself, or its converse for
    /// `ℓ⁻`. The result is sorted by `(source, target)` — for `ℓ⁻` this is
    /// the stored converse run, so no re-sort is needed.
    pub fn signed_pairs(&self, sl: SignedLabel) -> Vec<(NodeId, NodeId)> {
        self.adjacency(sl.label)
            .map(|a| {
                if sl.is_backward() {
                    a.backward.iter().collect()
                } else {
                    a.forward.iter().collect()
                }
            })
            .unwrap_or_default()
    }

    /// Neighbors reachable from `node` over one occurrence of `sl`
    /// (forward edges for `ℓ`, reverse edges for `ℓ⁻`), in ascending order.
    pub fn neighbors(&self, node: NodeId, sl: SignedLabel) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency(sl.label)
            .map(|a| {
                if sl.is_backward() {
                    a.backward.seconds_for(node)
                } else {
                    a.forward.seconds_for(node)
                }
            })
            .into_iter()
            .flatten()
    }

    /// Out-degree of `node` under label `ℓ`.
    pub fn out_degree(&self, node: NodeId, label: LabelId) -> usize {
        self.adjacency(label)
            .map_or(0, |a| a.forward.count_first(node))
    }

    /// In-degree of `node` under label `ℓ`.
    pub fn in_degree(&self, node: NodeId, label: LabelId) -> usize {
        self.adjacency(label)
            .map_or(0, |a| a.backward.count_first(node))
    }

    /// Total degree of `node` over every label and both directions.
    pub fn total_degree(&self, node: NodeId) -> usize {
        self.labels()
            .map(|l| self.out_degree(node, l) + self.in_degree(node, l))
            .sum()
    }

    /// `true` if the edge `ℓ(src, dst)` exists.
    pub fn has_edge(&self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        self.adjacency(label)
            .is_some_and(|a| a.forward.contains((src, dst)))
    }

    /// Resolves a node name to its id (restricted to this epoch's frozen
    /// vocabulary prefix; takes a brief read lock on the shared name map).
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.vocab
            .nodes
            .lookup(name, self.nodes_view.len)
            .map(NodeId)
    }

    /// Resolves a node id back to its external name — lock-free through this
    /// epoch's frozen view.
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        self.nodes_view.name(node.0)
    }

    /// Resolves a label name to its id.
    pub fn label_id(&self, name: &str) -> Option<LabelId> {
        self.vocab
            .labels
            .lookup(name, self.labels_view.len)
            .map(|c| LabelId(c as u16))
    }

    /// Resolves a label id back to its external name — lock-free.
    pub fn label_name(&self, label: LabelId) -> Option<&str> {
        self.labels_view.name(label.0 as u32)
    }

    /// All label names in id order.
    pub fn label_names(&self) -> Vec<&str> {
        self.labels_view.iter().map(|(_, s)| s).collect()
    }

    /// Number of edges carrying `label`.
    pub fn label_edge_count(&self, label: LabelId) -> usize {
        self.adjacency(label).map_or(0, |a| a.forward.len())
    }

    /// Opens a vocabulary batch against this epoch: name lookups see this
    /// graph's frozen prefix plus whatever the batch itself interns. Hand the
    /// batch back to [`Graph::commit_batch`] to publish the next epoch.
    pub fn vocab_batch(&self) -> VocabBatch {
        VocabBatch {
            vocab: Arc::clone(&self.vocab),
            node_len: self.nodes_view.len,
            label_len: self.labels_view.len,
        }
    }

    /// Publishes the next epoch: applies `ops` (net first/last-transition
    /// semantics per `(label, src, dst)` key — an edge inserted and deleted
    /// within one batch is a no-op) and adopts the batch's vocabulary
    /// growth. Only the chunks containing a changed pair are rebuilt;
    /// untouched labels and chunks are re-shared by refcount bump, so the
    /// cost is O(Δ · chunk + labels), never O(V + E). `self` is untouched —
    /// readers of this epoch keep a bit-stable view.
    ///
    /// # Panics
    /// Panics if an op references an id outside the batch's vocabulary, or
    /// if `batch` came from a different graph lineage.
    pub fn commit_batch(&self, batch: VocabBatch, ops: &[EdgeOp]) -> Graph {
        assert!(
            Arc::ptr_eq(&self.vocab, &batch.vocab),
            "vocab batch belongs to a different graph lineage"
        );
        let mut by_label: BTreeMap<LabelId, Vec<(Pair, bool)>> = BTreeMap::new();
        for op in ops {
            assert!(
                op.src.0 < batch.node_len && op.dst.0 < batch.node_len,
                "edge endpoint was not interned in this graph"
            );
            assert!(
                (op.label.0 as u32) < batch.label_len,
                "edge label was not interned in this graph"
            );
            by_label
                .entry(op.label)
                .or_default()
                .push(((op.src, op.dst), op.insert));
        }
        // Per label, the net ops that actually change the stored relation.
        let per_label: BTreeMap<LabelId, Vec<(Pair, bool)>> = by_label
            .into_iter()
            .filter_map(|(label, transitions)| {
                let stored = self.adjacency(label).map(|a| &a.forward);
                let mut net = PairRun::net_ops(transitions);
                net.retain(|&(pair, insert)| insert != stored.is_some_and(|r| r.contains(pair)));
                (!net.is_empty()).then_some((label, net))
            })
            .collect();

        let mut stats = GraphPublishStats::default();
        let mut edge_count = self.edge_count;
        let mut labels = Vec::with_capacity(batch.label_len as usize);
        for l in 0..batch.label_len as u16 {
            let prev = self.labels.get(l as usize);
            match per_label.get(&LabelId(l)) {
                Some(label_ops) => {
                    stats.labels_rebuilt += 1;
                    let base = prev.cloned().unwrap_or_default();
                    let mut converse: Vec<(Pair, bool)> = label_ops
                        .iter()
                        .map(|&((s, t), insert)| ((t, s), insert))
                        .collect();
                    converse.sort_unstable_by_key(|&(p, _)| p);
                    for &(_, insert) in label_ops {
                        if insert {
                            edge_count += 1;
                        } else {
                            edge_count -= 1;
                        }
                    }
                    labels.push(LabelAdjacency {
                        forward: base.forward.apply(
                            label_ops,
                            &mut stats.chunks_shared,
                            &mut stats.chunks_rebuilt,
                        ),
                        backward: base.backward.apply(
                            &converse,
                            &mut stats.chunks_shared,
                            &mut stats.chunks_rebuilt,
                        ),
                    });
                }
                None => {
                    stats.labels_shared += 1;
                    match prev {
                        Some(adj) => {
                            stats.chunks_shared +=
                                adj.forward.chunks().len() + adj.backward.chunks().len();
                            labels.push(adj.clone());
                        }
                        None => labels.push(LabelAdjacency::default()),
                    }
                }
            }
        }

        // Re-freeze a view only when the vocabulary actually grew; otherwise
        // re-share this epoch's view with an `Arc` bump.
        let nodes_view = if batch.node_len == self.nodes_view.len {
            self.nodes_view.clone()
        } else {
            self.vocab.nodes.freeze(batch.node_len)
        };
        let labels_view = if batch.label_len == self.labels_view.len {
            self.labels_view.clone()
        } else {
            self.vocab.labels.freeze(batch.label_len)
        };
        Graph {
            vocab: batch.vocab,
            nodes_view,
            labels_view,
            labels: Arc::new(labels),
            edge_count,
            last_publish: stats,
        }
    }

    /// What the most recent [`Graph::commit_batch`] (or the edge-at-a-time
    /// wrappers) reused versus rebuilt — all zeros on a bulk-built graph.
    pub fn last_publish_stats(&self) -> GraphPublishStats {
        self.last_publish
    }

    /// Total number of adjacency chunks across all labels and both
    /// directions.
    pub fn chunk_count(&self) -> usize {
        self.labels
            .iter()
            .map(|a| a.forward.chunks().len() + a.backward.chunks().len())
            .sum()
    }

    /// Total names interned into the shared vocabulary store across the whole
    /// graph lineage, as `(nodes, labels)` — at least this epoch's visible
    /// counts, more when later epochs (or in-flight batches) grew it.
    pub fn vocab_interned(&self) -> (usize, usize) {
        (self.vocab.nodes.len(), self.vocab.labels.len())
    }

    /// Inserts the labeled edge `label(src, dst)`, publishing a one-op epoch
    /// in place. Returns `false` (and changes nothing) if the edge is
    /// already present.
    ///
    /// # Panics
    /// Panics if `src`, `dst` or `label` were never interned.
    pub fn insert_edge(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        self.check_update_ids(src, label, dst);
        if self.has_edge(src, label, dst) {
            return false;
        }
        *self = self.commit_batch(self.vocab_batch(), &[EdgeOp::insert(src, label, dst)]);
        true
    }

    /// Removes the labeled edge `label(src, dst)`, publishing a one-op epoch
    /// in place. Returns `false` if the edge is absent.
    ///
    /// # Panics
    /// Panics if `src`, `dst` or `label` were never interned.
    pub fn remove_edge(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        self.check_update_ids(src, label, dst);
        if !self.has_edge(src, label, dst) {
            return false;
        }
        *self = self.commit_batch(self.vocab_batch(), &[EdgeOp::delete(src, label, dst)]);
        true
    }

    fn check_update_ids(&self, src: NodeId, label: LabelId, dst: NodeId) {
        assert!(
            src.index() < self.node_count() && dst.index() < self.node_count(),
            "edge endpoint was not interned in this graph"
        );
        assert!(
            label.index() < self.label_count(),
            "edge label was not interned in this graph"
        );
    }

    /// Renders a human-readable label-path string such as `knows/worksFor-`
    /// for diagnostics and explain output.
    pub fn format_signed_label(&self, sl: SignedLabel) -> String {
        let name = self
            .label_name(sl.label)
            .map(str::to_owned)
            .unwrap_or_else(|| format!("l{}", sl.label.0));
        if sl.is_backward() {
            format!("{name}-")
        } else {
            name
        }
    }
}

impl StructuralAudit for Graph {
    /// Walks every label's chunked adjacency and the vocabulary views,
    /// verifying the invariants the navigation and publish paths silently
    /// rely on:
    ///
    /// * `adjacency-arity` — one adjacency entry per visible label;
    /// * per run (both directions): `chunk-nonempty` / `chunk-size-max` /
    ///   `chunk-coalesced` / `chunk-sorted` / `chunk-disjoint` /
    ///   `fence-parallel` / `fence-tight` / `run-count` (see
    ///   [`crate::runs`]);
    /// * `forward-backward-agree` — the backward run is exactly the sorted
    ///   converse of the forward run;
    /// * `endpoint-in-range` — every stored endpoint is a visible node id;
    /// * `edge-count` — the sum of forward run lengths matches the published
    ///   edge count;
    /// * `dict-code-density` — every visible code resolves to a name (the
    ///   append-only store must be dense up to each frozen length);
    /// * `dict-roundtrip` — label names resolve back to their ids.
    fn audit(&self, report: &mut AuditReport) {
        report.check(
            "adjacency-arity",
            "graph",
            self.labels.len() == self.label_count(),
            || {
                format!(
                    "{} adjacency entries for {} visible labels",
                    self.labels.len(),
                    self.label_count()
                )
            },
        );
        for (what, view) in [("nodes", &self.nodes_view), ("labels", &self.labels_view)] {
            let resolved = (0..view.len).filter(|&c| view.name(c).is_some()).count();
            let loc = format!("dictionary {what}");
            report.check("dict-code-density", &loc, resolved == view.len(), || {
                format!("only {resolved} of {} codes resolve to names", view.len())
            });
        }
        for label in self.labels() {
            if let Some(name) = self.label_name(label) {
                report.check(
                    "dict-roundtrip",
                    &format!("label {}", label.0),
                    self.label_id(name) == Some(label),
                    || format!("name {name:?} does not resolve back to label {}", label.0),
                );
            }
        }
        let node_count = self.node_count();
        let mut edges = 0usize;
        for label in self.labels() {
            let Some(adj) = self.adjacency(label) else {
                continue; // arity violation already recorded
            };
            let loc = format!("label {}", label.0);
            adj.forward.audit(&format!("{loc} forward"), report);
            adj.backward.audit(&format!("{loc} backward"), report);
            let mut converse: Vec<Pair> = adj.forward.iter().map(|(s, t)| (t, s)).collect();
            converse.sort_unstable();
            report.check(
                "forward-backward-agree",
                &loc,
                converse.len() == adj.backward.len()
                    && converse.iter().copied().eq(adj.backward.iter()),
                || {
                    format!(
                        "backward run ({} pairs) is not the sorted converse of the forward run \
                         ({} pairs)",
                        adj.backward.len(),
                        adj.forward.len()
                    )
                },
            );
            report.check(
                "endpoint-in-range",
                &loc,
                adj.forward
                    .iter()
                    .all(|(s, t)| s.index() < node_count && t.index() < node_count),
                || format!("an edge endpoint is at or past the node count {node_count}"),
            );
            edges += adj.forward.len();
        }
        report.check("edge-count", "graph", edges == self.edge_count, || {
            format!(
                "runs hold {edges} edges but the graph claims {}",
                self.edge_count
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::runs::CHUNK_MAX;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge_named("ada", "knows", "jan");
        b.add_edge_named("jan", "knows", "zoe");
        b.add_edge_named("zoe", "worksFor", "ada");
        b.add_edge_named("ada", "knows", "zoe");
        b.build()
    }

    fn neighbor_vec(g: &Graph, node: NodeId, sl: SignedLabel) -> Vec<NodeId> {
        g.neighbors(node, sl).collect()
    }

    #[test]
    fn counts() {
        let g = sample();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.label_count(), 2);
    }

    #[test]
    fn name_resolution_roundtrip() {
        let g = sample();
        for name in ["ada", "jan", "zoe"] {
            let id = g.node_id(name).unwrap();
            assert_eq!(g.node_name(id), Some(name));
        }
        for name in ["knows", "worksFor"] {
            let id = g.label_id(name).unwrap();
            assert_eq!(g.label_name(id), Some(name));
        }
        assert_eq!(g.node_id("nobody"), None);
        assert_eq!(g.label_id("likes"), None);
    }

    #[test]
    fn forward_and_backward_navigation() {
        let g = sample();
        let knows = g.label_id("knows").unwrap();
        let ada = g.node_id("ada").unwrap();
        let jan = g.node_id("jan").unwrap();
        let zoe = g.node_id("zoe").unwrap();

        assert_eq!(
            neighbor_vec(&g, ada, SignedLabel::forward(knows)),
            vec![jan, zoe]
        );
        assert_eq!(
            neighbor_vec(&g, zoe, SignedLabel::backward(knows)),
            vec![ada, jan]
        );
        assert_eq!(g.out_degree(ada, knows), 2);
        assert_eq!(g.in_degree(zoe, knows), 2);
        assert_eq!(g.total_degree(ada), 3);
    }

    #[test]
    fn signed_pairs_are_sorted_and_converse() {
        let g = sample();
        let knows = g.label_id("knows").unwrap();
        let fwd = g.signed_pairs(SignedLabel::forward(knows));
        let bwd = g.signed_pairs(SignedLabel::backward(knows));
        assert_eq!(fwd.len(), bwd.len());
        let mut expect: Vec<_> = fwd.iter().map(|&(s, t)| (t, s)).collect();
        expect.sort_unstable();
        assert_eq!(bwd, expect);
        assert!(fwd.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn has_edge_checks_direction_and_label() {
        let g = sample();
        let knows = g.label_id("knows").unwrap();
        let works = g.label_id("worksFor").unwrap();
        let ada = g.node_id("ada").unwrap();
        let jan = g.node_id("jan").unwrap();
        let zoe = g.node_id("zoe").unwrap();
        assert!(g.has_edge(ada, knows, jan));
        assert!(!g.has_edge(jan, knows, ada));
        assert!(g.has_edge(zoe, works, ada));
        assert!(!g.has_edge(zoe, knows, ada));
    }

    #[test]
    fn signed_labels_enumerates_alphabet_in_order() {
        let g = sample();
        let alphabet: Vec<_> = g.signed_labels().collect();
        assert_eq!(alphabet.len(), 4);
        assert!(alphabet.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn insert_edge_updates_relation_and_both_adjacencies() {
        let mut g = sample();
        let knows = g.label_id("knows").unwrap();
        let jan = g.node_id("jan").unwrap();
        let ada = g.node_id("ada").unwrap();
        assert!(!g.has_edge(jan, knows, ada));
        assert!(g.insert_edge(jan, knows, ada));
        assert!(!g.insert_edge(jan, knows, ada), "duplicate is a no-op");
        assert_eq!(g.edge_count(), 5);
        assert!(g.has_edge(jan, knows, ada));
        assert!(g
            .neighbors(jan, SignedLabel::forward(knows))
            .any(|n| n == ada));
        assert!(g
            .neighbors(ada, SignedLabel::backward(knows))
            .any(|n| n == jan));
        let edges: Vec<_> = g.edges(knows).collect();
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn remove_edge_restores_the_previous_state() {
        let mut g = sample();
        let knows = g.label_id("knows").unwrap();
        let ada = g.node_id("ada").unwrap();
        let jan = g.node_id("jan").unwrap();
        let before_edges: Vec<_> = g.edges(knows).collect();
        let zoe = g.node_id("zoe").unwrap();
        assert!(g.insert_edge(jan, knows, ada));
        assert!(g.remove_edge(jan, knows, ada));
        assert_eq!(g.edges(knows).collect::<Vec<_>>(), before_edges);
        assert_eq!(g.edge_count(), 4);
        assert!(!g.remove_edge(jan, knows, ada), "absent removal is a no-op");
        // Removing a real edge drops it from both directions.
        assert!(g.remove_edge(ada, knows, zoe));
        assert!(!g.has_edge(ada, knows, zoe));
        assert!(!g
            .neighbors(zoe, SignedLabel::backward(knows))
            .any(|n| n == ada));
    }

    #[test]
    #[should_panic(expected = "was not interned")]
    fn inserting_with_unknown_node_panics() {
        let mut g = sample();
        let knows = g.label_id("knows").unwrap();
        g.insert_edge(NodeId(99), knows, NodeId(0));
    }

    #[test]
    fn format_signed_label_uses_names() {
        let g = sample();
        let knows = g.label_id("knows").unwrap();
        assert_eq!(g.format_signed_label(SignedLabel::forward(knows)), "knows");
        assert_eq!(
            g.format_signed_label(SignedLabel::backward(knows)),
            "knows-"
        );
    }

    #[test]
    fn commit_batch_shares_untouched_labels_across_epochs() {
        // Two labels, one large: touching only the small label must re-share
        // the big label's chunk lists by pointer.
        let mut b = GraphBuilder::new();
        for i in 0..(2 * CHUNK_MAX as u64) {
            b.add_edge_numeric(i, "big", i + 1);
        }
        b.add_edge_numeric(0, "tiny", 1);
        let g = b.build();
        let tiny = g.label_id("tiny").unwrap();
        let n0 = g.node_id("0").unwrap();
        let n2 = g.node_id("2").unwrap();

        let next = g.commit_batch(g.vocab_batch(), &[EdgeOp::insert(n0, tiny, n2)]);
        assert_eq!(next.edge_count(), g.edge_count() + 1);
        let big = g.label_id("big").unwrap();
        assert!(std::ptr::eq(
            g.labels[big.index()].forward.chunks(),
            next.labels[big.index()].forward.chunks(),
        ));
        let stats = next.last_publish_stats();
        assert_eq!(stats.labels_shared, 1);
        assert_eq!(stats.labels_rebuilt, 1);
        assert!(stats.chunks_shared >= g.labels[big.index()].forward.chunks().len());
        // The old epoch is untouched.
        assert!(!g.has_edge(n0, tiny, n2));
        assert!(next.has_edge(n0, tiny, n2));
    }

    #[test]
    fn insert_then_delete_within_one_batch_is_net_noop() {
        let g = sample();
        let knows = g.label_id("knows").unwrap();
        let jan = g.node_id("jan").unwrap();
        let ada = g.node_id("ada").unwrap();
        let next = g.commit_batch(
            g.vocab_batch(),
            &[
                EdgeOp::insert(jan, knows, ada),
                EdgeOp::delete(jan, knows, ada),
            ],
        );
        assert_eq!(next.edge_count(), g.edge_count());
        assert!(!next.has_edge(jan, knows, ada));
    }

    #[test]
    fn vocab_batch_interns_names_visible_only_after_commit() {
        let g = sample();
        let mut batch = g.vocab_batch();
        let mia = batch.intern_node("mia");
        let likes = batch.intern_label("likes");
        let ada = batch.node_id("ada").unwrap();
        assert_eq!(batch.node_count(), 4);
        assert_eq!(batch.label_count(), 3);

        let next = g.commit_batch(batch, &[EdgeOp::insert(ada, likes, mia)]);
        // The old epoch still resolves neither name nor id...
        assert_eq!(g.node_id("mia"), None);
        assert_eq!(g.label_id("likes"), None);
        assert_eq!(g.node_name(mia), None);
        assert_eq!(g.node_count(), 3);
        // ...while the new epoch sees the grown vocabulary and the edge.
        assert_eq!(next.node_id("mia"), Some(mia));
        assert_eq!(next.label_id("likes"), Some(likes));
        assert_eq!(next.node_name(mia), Some("mia"));
        assert!(next.has_edge(ada, likes, mia));
        assert_eq!(next.label_names(), vec!["knows", "worksFor", "likes"]);
    }

    #[test]
    fn streaming_commits_from_empty_match_a_bulk_build() {
        let bulk = sample();
        let mut g = Graph::empty();
        for (src, label, dst) in [
            ("ada", "knows", "jan"),
            ("jan", "knows", "zoe"),
            ("zoe", "worksFor", "ada"),
            ("ada", "knows", "zoe"),
        ] {
            let mut batch = g.vocab_batch();
            let s = batch.intern_node(src);
            let l = batch.intern_label(label);
            let d = batch.intern_node(dst);
            g = g.commit_batch(batch, &[EdgeOp::insert(s, l, d)]);
        }
        assert_eq!(g.node_count(), bulk.node_count());
        assert_eq!(g.edge_count(), bulk.edge_count());
        assert_eq!(g.label_names(), bulk.label_names());
        for label in bulk.labels() {
            let name = bulk.label_name(label).unwrap();
            let mine = g.label_id(name).unwrap();
            assert_eq!(
                g.edges(mine).collect::<Vec<_>>(),
                bulk.edges(label).collect::<Vec<_>>(),
                "label {name}"
            );
        }
        let mut report = AuditReport::new();
        report.run("graph", &g);
        report.assert_clean("streaming build");
    }

    #[test]
    fn audit_is_clean_on_built_and_mutated_graphs() {
        let mut g = sample();
        let mut report = AuditReport::new();
        report.run("graph", &g);
        report.assert_clean("fresh build");
        let knows = g.label_id("knows").unwrap();
        let jan = g.node_id("jan").unwrap();
        let ada = g.node_id("ada").unwrap();
        g.insert_edge(jan, knows, ada);
        g.remove_edge(ada, knows, jan);
        let mut report = AuditReport::new();
        report.run("graph", &g);
        report.assert_clean("after mutations");
    }

    /// The invariant names the audit reports for `g`, in discovery order.
    fn violated(g: &Graph) -> Vec<&'static str> {
        let mut report = AuditReport::new();
        report.run("graph", g);
        report.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn seeded_corruption_trips_each_graph_auditor() {
        let clean = sample();
        let knows = clean.label_id("knows").unwrap();
        assert_eq!(violated(&clean), Vec::<&str>::new());

        // One chunk-level corruption (each run-level check is seeded beside
        // `PairRun` itself): the graph audit must reach into every run.
        let mut corrupt = clean.clone();
        {
            let labels = Arc::make_mut(&mut corrupt.labels);
            let run = &mut labels[knows.index()].forward;
            let mut pairs: Vec<Pair> = run.iter().collect();
            pairs.swap(0, 1);
            *run = PairRun::from_chunks_unchecked(vec![pairs]);
        }
        assert!(
            violated(&corrupt).contains(&"chunk-sorted"),
            "swapped pairs must trip the sortedness audit"
        );

        // A backward run that is no longer the forward run's converse.
        let mut corrupt = clean.clone();
        {
            let labels = Arc::make_mut(&mut corrupt.labels);
            let adj = &mut labels[knows.index()];
            let mut pairs: Vec<_> = adj.backward.iter().collect();
            pairs.pop();
            adj.backward = PairRun::from_sorted(pairs);
        }
        assert!(
            violated(&corrupt).contains(&"forward-backward-agree"),
            "a dropped converse pair must trip the agreement audit"
        );

        // A sparse dictionary: a visible code with no name behind it.
        let mut corrupt = clean.clone();
        corrupt.nodes_view.len += 1;
        assert!(
            violated(&corrupt).contains(&"dict-code-density"),
            "a code past the stored names must trip the density audit"
        );
    }
}
