//! Incremental maintenance of the k-path index under edge updates.
//!
//! The paper builds `I_{G,k}` once over a static graph; keeping the index
//! consistent while the graph changes is the natural follow-up (and the cost
//! the paper's §3.1 footnote on index construction implicitly defers). This
//! module implements **counting-based view maintenance** for the k-path
//! index: every stored `⟨p, a, b⟩` entry carries the number of distinct walks
//! of shape `p` from `a` to `b`, so that
//!
//! * inserting an edge adds, for every label path `p` of length ≤ k and every
//!   position at which the new edge can participate, the product of the walk
//!   counts of the prefix (walked on the graph epoch *without* the edge) and
//!   of the suffix (walked on the epoch *with* it) — the standard
//!   telescoping delta rule;
//! * deleting an edge subtracts the symmetric products, and an entry is
//!   removed only when its walk count reaches zero, which is exactly when no
//!   alternative walk realizes the pair.
//!
//! The index holds no adjacency of its own. The caller hands it the
//! [`Graph`] epoch it describes; [`IncrementalKPathIndex::apply_logged`]
//! advances that epoch by one op ([`Graph::insert_edge`] /
//! [`Graph::remove_edge`], which also decide whether the op is a no-op) and
//! walks the epochs on either side of it. Because the prefix/suffix walks
//! live inside the k-neighborhood of the updated edge, a single update
//! touches only that neighborhood rather than the whole index. Each op's
//! walk-count writes come out one per key in ascending key order, so the
//! same updates always produce the same log.
//!
//! The maintained key set is identical to [`crate::SharedKPathIndex`] built
//! from scratch over the same graph (property-tested in this module and in
//! the integration suite). The index keeps no statistics: the storage
//! backends that replay its log count their own paths, and callers refresh
//! [`crate::PathHistogram`] from those counts at whatever cadence their
//! optimizer needs.

use crate::backend::{EntryChange, EntryDeltas};
use crate::pathkey::{decode_entry, decode_pair, encode_entry, encode_path_prefix};
use pathix_audit::{AuditReport, StructuralAudit};
use pathix_graph::{EdgeOp, Graph, LabelId, NodeId, SignedLabel};
use pathix_rpq::ast::inverse_path;
use pathix_storage::prefix_successor;
use std::cmp::Ordering;
use std::collections::btree_map::{self, BTreeMap, Entry};
use std::collections::HashMap;
use std::ops::Bound;

/// An edge update applied to a `PathDb`: by id, or by name (the named forms
/// intern unseen vocabulary on the fly). `PathDb::apply` resolves every
/// variant to an [`EdgeOp`] before it reaches the [`IncrementalKPathIndex`].
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

/// A k-path index that stays consistent under edge insertions and deletions.
///
/// Unlike [`crate::SharedKPathIndex`] (which stores the bare pairs), this
/// index stores a walk count per `⟨p, a, b⟩` entry and applies counting delta
/// rules on every update, so the visible pair sets always equal what a full
/// rebuild over the current edge set would produce. It keeps no copy of the
/// edges: [`IncrementalKPathIndex::apply_logged`] advances the caller's
/// [`Graph`] epoch by the op and walks the epochs before and after it.
///
/// ```
/// use pathix_graph::{EdgeOp, GraphBuilder};
/// use pathix_index::{EntryDeltas, IncrementalKPathIndex};
///
/// let mut builder = GraphBuilder::new();
/// let [ada, jan, zoe] = ["ada", "jan", "zoe"].map(|name| builder.add_node(name));
/// let knows = builder.add_label("knows");
/// let mut graph = builder.build();
/// let mut index = IncrementalKPathIndex::bulk_from_graph(&graph, 2);
/// let mut log = EntryDeltas::new();
/// index.apply_logged(&mut graph, EdgeOp::insert(ada, knows, jan), &mut log);
/// index.apply_logged(&mut graph, EdgeOp::insert(jan, knows, zoe), &mut log);
/// let kk = [knows.into(), knows.into()];
/// assert_eq!(index.scan_path(&kk), vec![(ada, zoe)]);
/// assert!(index.apply_logged(&mut graph, EdgeOp::delete(jan, knows, zoe), &mut log));
/// assert!(index.scan_path(&kk).is_empty());
/// assert!(!graph.has_edge(jan, knows, zoe));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalKPathIndex {
    k: usize,
    /// `⟨p, a, b⟩ → walk count`, keyed by the [`crate::pathkey`] encoding.
    tree: BTreeMap<Vec<u8>, u64>,
}

impl IncrementalKPathIndex {
    /// Builds the index over an existing graph with bulk counted path
    /// enumeration — the same level-by-level joins [`crate::enumerate_paths`]
    /// runs, except carrying walk multiplicities — and a single bulk load.
    ///
    /// The result is identical to replaying the graph's edges one insertion
    /// at a time (property-tested) at a fraction of the cost, which is what
    /// makes upgrading a bulk-built database to live updates affordable.
    pub fn bulk_from_graph(graph: &Graph, k: usize) -> Self {
        assert!(k >= 1, "the k-path index requires k ≥ 1");
        let mut entries: Vec<(Vec<u8>, u64)> = enumerate_counted_paths(graph, k)
            .iter()
            .flat_map(|(path, pairs)| {
                pairs
                    .iter()
                    .map(move |&((a, b), walks)| (encode_entry(path, a, b), walks))
            })
            .collect();
        // Paths of different lengths interleave in key order; sorting in
        // place first makes the map's bulk build a single linear pass.
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        IncrementalKPathIndex {
            k,
            tree: entries.into_iter().collect(),
        }
    }

    /// Rebuilds a live writer from persisted `(entry key, walk count)` pairs
    /// — the values a durable backend (the paged B+tree) stores on disk.
    ///
    /// This is the restart path: instead of re-enumerating every counted path
    /// relation of the graph ([`IncrementalKPathIndex::bulk_from_graph`]),
    /// the entries stream straight into a bulk load. `entries` must arrive
    /// in ascending key order (the order any tree scan yields) with strictly
    /// positive counts.
    ///
    /// Fails (with a description, to be wrapped by the caller) when a key is
    /// not a well-formed `⟨p, a, b⟩` entry, when a count is zero, or when the
    /// keys are out of order — all symptoms of a corrupt persisted tree.
    pub fn from_persisted_entries(
        k: usize,
        entries: impl IntoIterator<Item = (Vec<u8>, u64)>,
    ) -> Result<Self, String> {
        if k < 1 {
            return Err("the k-path index requires k ≥ 1".to_string());
        }
        let mut loaded: Vec<(Vec<u8>, u64)> = Vec::new();
        for (key, count) in entries {
            let Some((path, a, b)) = decode_entry(&key) else {
                return Err(format!(
                    "persisted key of {} byte(s) is not a well-formed index entry",
                    key.len()
                ));
            };
            if count == 0 {
                return Err(format!(
                    "persisted entry for path {path:?} pair ({a:?}, {b:?}) has a zero walk count"
                ));
            }
            if let Some((prev, _)) = loaded.last() {
                if *prev >= key {
                    return Err("persisted entries are not in ascending key order".to_string());
                }
            }
            loaded.push((key, count));
        }
        Ok(IncrementalKPathIndex {
            k,
            tree: loaded.into_iter().collect(),
        })
    }

    /// The locality parameter k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of `⟨p, a, b⟩` entries currently stored.
    pub fn entry_count(&self) -> usize {
        self.tree.len()
    }

    /// `I_{G,k}(⟨p⟩)`: the current pairs of `p(G)` in `(source, target)`
    /// order.
    ///
    /// Panics if `path` is empty or longer than k.
    pub fn scan_path(&self, path: &[SignedLabel]) -> Vec<(NodeId, NodeId)> {
        assert!(
            !path.is_empty() && path.len() <= self.k,
            "scan_path expects a path of length 1..=k"
        );
        prefix_range(&self.tree, &encode_path_prefix(path))
            .map(|(key, _)| decode_pair(key))
            .collect()
    }

    /// Membership test for `⟨p, a, b⟩`.
    pub fn contains(&self, path: &[SignedLabel], source: NodeId, target: NodeId) -> bool {
        self.tree
            .contains_key(encode_entry(path, source, target).as_slice())
    }

    /// Number of distinct walks of shape `path` from `source` to `target`
    /// (zero if the pair is not in the index).
    pub fn walk_count(&self, path: &[SignedLabel], source: NodeId, target: NodeId) -> u64 {
        self.tree
            .get(encode_entry(path, source, target).as_slice())
            .copied()
            .unwrap_or(0)
    }

    /// Applies one edge operation: advances `graph` — the epoch the index
    /// currently describes — by `op`, updates every affected entry, and
    /// records each key-level transition (entry appeared / disappeared) and
    /// each absolute walk-count write in `log`, one write per key in
    /// ascending key order. Returns `false`, changing and logging nothing,
    /// when `op` is a no-op on `graph` (an insert of a present edge, a
    /// delete of an absent one).
    ///
    /// This is the bridge that makes the storage backends mutable: the
    /// counting delta enumeration runs once here, and the resulting
    /// [`EntryDeltas`] are replayed verbatim against the chunk runs (plain
    /// and delta/varint-encoded) and the paged B+tree (see
    /// [`MutablePathIndexBackend`](crate::MutablePathIndexBackend)).
    ///
    /// # Panics
    /// Panics if an endpoint or the label of `op` is not interned in `graph`.
    pub fn apply_logged(&mut self, graph: &mut Graph, op: EdgeOp, log: &mut EntryDeltas) -> bool {
        let before = graph.clone();
        let changed = if op.insert {
            graph.insert_edge(op.src, op.label, op.dst)
        } else {
            graph.remove_edge(op.src, op.label, op.dst)
        };
        if !changed {
            return false;
        }
        // Prefixes walk the epoch without the edge, suffixes the epoch with
        // it: Δ(R₁⋯Rₙ) = Σᵢ R₁ᵒ⋯Rᵢ₋₁ᵒ · Δe · Rᵢ₊₁ⁿ⋯Rₙⁿ for an insertion
        // (old → new). A deletion subtracts the same products with the roles
        // of the two epochs swapped (new → old).
        let (without, with) = if op.insert {
            (&before, &*graph)
        } else {
            (&*graph, &before)
        };
        for (key, count) in self.edge_delta(without, with, op) {
            if op.insert {
                self.add_to_entry(key, count, log);
            } else {
                self.subtract_from_entry(&key, count, log);
            }
        }
        true
    }

    /// Walk-count deltas contributed by the edge of `op` for every label path
    /// of length ≤ k, with path prefixes walked on `without` (the epoch
    /// lacking the edge) and suffixes on `with` (the epoch holding it), as
    /// encoded `(key, count)` pairs in ascending key order, one per key.
    fn edge_delta(&self, without: &Graph, with: &Graph, op: EdgeOp) -> Vec<(Vec<u8>, u64)> {
        let mut out = Vec::new();
        // The two orientations in which the edge can realize a path step: a
        // `+ℓ` step gains the pair (src, dst), a `ℓ⁻` step gains (dst, src).
        // Every (path, position) combination is covered by exactly one of
        // them, so there is no double counting (including self-loops).
        let orientations = [
            (SignedLabel::forward(op.label), op.src, op.dst),
            (SignedLabel::backward(op.label), op.dst, op.src),
        ];
        for (step, step_from, step_to) in orientations {
            // All (prefix, suffix) shapes around the step, |prefix| + 1 +
            // |suffix| ≤ k. Prefix walks end at `step_from`, suffix walks
            // start at `step_to`.
            let prefixes = walks_by_path(without, step_from, self.k - 1, true);
            let suffixes = walks_by_path(with, step_to, self.k - 1, false);
            for (prefix, sources) in &prefixes {
                for (suffix, targets) in &suffixes {
                    if prefix.len() + 1 + suffix.len() > self.k {
                        continue;
                    }
                    let path = [prefix.as_slice(), &[step][..], suffix.as_slice()].concat();
                    for (&a, &ca) in sources {
                        for (&b, &cb) in targets {
                            out.push((encode_entry(&path, a, b), ca * cb));
                        }
                    }
                }
            }
        }
        // Different splits of one path around the step can reach the same
        // entry: sort by key and fold them into one write.
        out.sort_unstable_by(|x, y| x.0.cmp(&y.0));
        out.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        out
    }

    fn add_to_entry(&mut self, key: Vec<u8>, delta: u64, log: &mut EntryDeltas) {
        debug_assert!(delta > 0);
        match self.tree.entry(key) {
            Entry::Occupied(mut slot) => {
                *slot.get_mut() += delta;
                log.record_count(slot.key(), *slot.get());
            }
            Entry::Vacant(slot) => {
                log.record(slot.key(), EntryChange::Added);
                log.record_count(slot.key(), delta);
                slot.insert(delta);
            }
        }
    }

    fn subtract_from_entry(&mut self, key: &[u8], delta: u64, log: &mut EntryDeltas) {
        let count = self
            .tree
            .get_mut(key)
            .expect("deletion delta must target an existing entry");
        debug_assert!(*count >= delta, "walk counts must not go negative");
        if *count > delta {
            *count -= delta;
            log.record_count(key, *count);
        } else {
            log.record(key, EntryChange::Removed);
            log.record_count(key, 0);
            self.tree.remove(key);
        }
    }
}

/// A label path with its walk-counted pair relation, sorted by `(a, b)`.
pub type CountedRelation = (Vec<SignedLabel>, Vec<((NodeId, NodeId), u64)>);

/// Computes, level by level, the counted relation of every label path of
/// length ≤ k: `path → sorted [((a, b), #walks)]`. The mirror-path trick of
/// [`crate::enumerate_paths`] applies unchanged because walk counts are
/// converse-symmetric. The result is ordered by `(length, path)`.
///
/// Public so durable backends (the paged B+tree) can bulk-build the same
/// counted entries [`IncrementalKPathIndex::bulk_from_graph`] seeds from.
pub fn enumerate_counted_paths(graph: &Graph, k: usize) -> Vec<CountedRelation> {
    let mut result: Vec<CountedRelation> = Vec::new();
    let mut prev: Vec<CountedRelation> = graph
        .signed_labels()
        .filter_map(|sl| {
            let pairs: Vec<((NodeId, NodeId), u64)> = graph
                .signed_pairs(sl)
                .into_iter()
                .map(|pair| (pair, 1))
                .collect();
            (!pairs.is_empty()).then(|| (vec![sl], pairs))
        })
        .collect();
    for _level in 2..=k {
        let mut next: Vec<CountedRelation> = Vec::new();
        for (path, pairs) in &prev {
            for sl in graph.signed_labels() {
                let mut extended = path.clone();
                extended.push(sl);
                let inv = inverse_path(&extended);
                if extended.cmp(&inv) == Ordering::Greater {
                    continue;
                }
                let mut counted: HashMap<(NodeId, NodeId), u64> = HashMap::new();
                for &((a, b), walks) in pairs {
                    for c in graph.neighbors(b, sl) {
                        *counted.entry((a, c)).or_insert(0) += walks;
                    }
                }
                if counted.is_empty() {
                    continue;
                }
                let mut sorted: Vec<_> = counted.into_iter().collect();
                sorted.sort_unstable_by_key(|&(pair, _)| pair);
                if extended != inv {
                    let mut mirror: Vec<_> = sorted
                        .iter()
                        .map(|&((a, b), walks)| ((b, a), walks))
                        .collect();
                    mirror.sort_unstable_by_key(|&(pair, _)| pair);
                    next.push((inv, mirror));
                }
                next.push((extended, sorted));
            }
        }
        result.append(&mut prev);
        prev = next;
    }
    result.append(&mut prev);
    result.sort_by(|a, b| (a.0.len(), &a.0).cmp(&(b.0.len(), &b.0)));
    result
}

impl StructuralAudit for IncrementalKPathIndex {
    /// Checks the entry tree:
    ///
    /// * `entry-decodable` — every stored key is a well-formed `⟨p, a, b⟩`
    ///   entry;
    /// * `walk-count-positive` — no entry survives at a zero walk count (the
    ///   delta rules must remove a pair exactly when its last walk dies).
    fn audit(&self, report: &mut AuditReport) {
        let mut undecodable = 0u64;
        let mut zero_count = 0u64;
        let mut first_zero = String::new();
        for (key, &count) in &self.tree {
            let Some((path, a, b)) = decode_entry(key) else {
                undecodable += 1;
                continue;
            };
            if count == 0 {
                zero_count += 1;
                if first_zero.is_empty() {
                    first_zero = format!("path {path:?} pair ({a:?}, {b:?})");
                }
            }
        }
        report.check("entry-decodable", "tree", undecodable == 0, || {
            format!("{undecodable} stored key(s) are not well-formed index entries")
        });
        report.check("walk-count-positive", "tree", zero_count == 0, || {
            format!("{zero_count} entry(ies) stored with a zero walk count, first at {first_zero}")
        });
    }
}

/// Enumerates, for every label path `q` with `|q| ≤ max_len`, the walk
/// counts on `graph` between `anchor` and the far endpoint.
///
/// With `toward_anchor = false` the result maps `q → {end ↦ #walks of q
/// from anchor to end}`; with `toward_anchor = true` it maps `q → {start ↦
/// #walks of q from start to anchor}`.
fn walks_by_path(
    graph: &Graph,
    anchor: NodeId,
    max_len: usize,
    toward_anchor: bool,
) -> Vec<(Vec<SignedLabel>, HashMap<NodeId, u64>)> {
    let mut result = vec![(Vec::new(), HashMap::from([(anchor, 1u64)]))];
    let mut frontier = 0;
    while frontier < result.len() {
        let (path, counts) = &result[frontier];
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
            let mut next: HashMap<NodeId, u64> = HashMap::new();
            for (&node, &count) in counts {
                for to in graph.neighbors(node, traverse) {
                    *next.entry(to).or_insert(0) += count;
                }
            }
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

/// The entries of `tree` whose key starts with `prefix`, in key order: the
/// half-open range `[prefix, prefix_successor(prefix))`, unbounded above when
/// no successor exists (an empty or all-`0xFF` prefix).
fn prefix_range<'a>(
    tree: &'a BTreeMap<Vec<u8>, u64>,
    prefix: &[u8],
) -> btree_map::Range<'a, Vec<u8>, u64> {
    let successor = prefix_successor(prefix);
    let upper = successor
        .as_deref()
        .map_or(Bound::Unbounded, Bound::Excluded);
    tree.range::<[u8], _>((Bound::Included(prefix), upper))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate_paths;
    use crate::pathkey::encode_path_source_prefix;
    use pathix_datagen::paper_example_graph;
    use pathix_graph::GraphBuilder;
    use std::collections::BTreeSet;

    type Edge = (NodeId, LabelId, NodeId);

    /// A counting index together with the graph epoch it walks.
    struct Live {
        index: IncrementalKPathIndex,
        graph: Graph,
    }

    impl Live {
        /// The bulk-seeded index over `graph`.
        fn over(graph: &Graph, k: usize) -> Live {
            Live {
                index: IncrementalKPathIndex::bulk_from_graph(graph, k),
                graph: graph.clone(),
            }
        }

        /// The index at `k` over an edgeless graph that interns nodes
        /// `0..nodes` and labels `0..labels`.
        fn blank(k: usize, nodes: u32, labels: u16) -> Live {
            let mut builder = GraphBuilder::new();
            for node in 0..nodes {
                builder.add_node(&node.to_string());
            }
            for label in 0..labels {
                builder.add_label(&label.to_string());
            }
            Live::over(&builder.build(), k)
        }

        fn apply(&mut self, op: EdgeOp) -> bool {
            self.index
                .apply_logged(&mut self.graph, op, &mut EntryDeltas::new())
        }

        fn insert(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
            self.apply(EdgeOp::insert(src, label, dst))
        }

        fn delete(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
            self.apply(EdgeOp::delete(src, label, dst))
        }
    }

    /// The labeled edges of `g`.
    fn edges_of(g: &Graph) -> BTreeSet<Edge> {
        g.labels()
            .flat_map(|l| g.edges(l).map(move |(s, d)| (s, l, d)))
            .collect()
    }

    /// The index over `g` built by replaying its edges one insertion at a
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

    fn assert_matches_oracle(index: &IncrementalKPathIndex, edges: &BTreeSet<Edge>, labels: u16) {
        for path in all_paths(labels, index.k()) {
            let expected = oracle_pairs(edges, &path);
            let actual = index.scan_path(&path);
            assert_eq!(actual, expected, "pair set mismatch for path {path:?}");
        }
    }

    #[test]
    fn from_graph_matches_the_bulk_enumeration() {
        let g = paper_example_graph();
        for k in 1..=3 {
            let relations = enumerate_paths(&g, k);
            let incremental = replayed(&g, k).index;
            assert_eq!(
                incremental.entry_count(),
                relations.iter().map(|r| r.pairs.len()).sum::<usize>()
            );
            for rel in &relations {
                assert!(rel.pairs.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(
                    incremental.scan_path(&rel.path),
                    rel.pairs,
                    "path {:?}",
                    rel.path
                );
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
            assert_matches_oracle(&live.index, &edges, 2);
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
            assert_matches_oracle(&live.index, &edges, labels);
        }
    }

    #[test]
    fn deleting_everything_empties_the_index() {
        let g = paper_example_graph();
        let mut live = replayed(&g, 3);
        for (src, label, dst) in edges_of(&g) {
            assert!(live.delete(src, label, dst));
        }
        assert_eq!(live.index.entry_count(), 0);
        assert_eq!(live.graph.edge_count(), 0);
    }

    #[test]
    fn insert_then_delete_restores_previous_state() {
        let g = paper_example_graph();
        let mut live = replayed(&g, 2);
        let before = live.index.tree.clone();
        let knows = g.label_id("knows").unwrap();
        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        assert!(!g.has_edge(sue, knows, tim));
        assert!(live.insert(sue, knows, tim));
        assert_ne!(live.index.entry_count(), before.len());
        assert!(live.delete(sue, knows, tim));
        assert_eq!(live.index.tree, before);
    }

    #[test]
    fn duplicate_insert_and_absent_delete_are_noops() {
        let knows = LabelId(0);
        let mut live = Live::blank(2, 7, 1);
        assert!(live.insert(NodeId(0), knows, NodeId(1)));
        let entries = live.index.entry_count();
        let mut log = EntryDeltas::new();
        for op in [
            EdgeOp::insert(NodeId(0), knows, NodeId(1)),
            EdgeOp::delete(NodeId(5), knows, NodeId(6)),
        ] {
            assert!(!live.index.apply_logged(&mut live.graph, op, &mut log));
            assert_eq!(live.index.entry_count(), entries);
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
        assert_eq!(live.index.walk_count(&ll, NodeId(0), NodeId(3)), 2);
        live.delete(NodeId(1), l, NodeId(3));
        assert!(live.index.contains(&ll, NodeId(0), NodeId(3)));
        assert_eq!(live.index.walk_count(&ll, NodeId(0), NodeId(3)), 1);
        live.delete(NodeId(2), l, NodeId(3));
        assert!(!live.index.contains(&ll, NodeId(0), NodeId(3)));
    }

    #[test]
    fn self_loops_are_counted_once_per_walk() {
        let l = LabelId(0);
        let mut live = Live::blank(3, 8, 1);
        live.insert(NodeId(7), l, NodeId(7));
        let edges: BTreeSet<Edge> = [(NodeId(7), l, NodeId(7))].into_iter().collect();
        assert_matches_oracle(&live.index, &edges, 1);
        // One loop edge yields exactly one walk of each length n: the loop
        // traversed n times (forwards or backwards per step).
        let p = [SignedLabel::forward(l), SignedLabel::backward(l)];
        assert_eq!(live.index.walk_count(&p, NodeId(7), NodeId(7)), 1);
        live.delete(NodeId(7), l, NodeId(7));
        assert_eq!(live.index.entry_count(), 0);
    }

    #[test]
    fn scan_output_is_sorted_by_source_then_target() {
        let g = paper_example_graph();
        let index = replayed(&g, 2).index;
        let knows = SignedLabel::forward(g.label_id("knows").unwrap());
        let pairs = index.scan_path(&[knows, knows]);
        assert!(!pairs.is_empty());
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bulk_build_matches_replayed_insertions() {
        let g = paper_example_graph();
        for k in 1..=3 {
            let Live {
                index: replayed,
                graph: chain,
            } = replayed(&g, k);
            let bulk = IncrementalKPathIndex::bulk_from_graph(&g, k);
            // Same keys, same walk count under every key.
            assert_eq!(bulk.tree, replayed.tree, "k = {k}");
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
        assert_matches_oracle(&live.index, &edges, labels);
    }

    #[test]
    fn apply_logged_records_key_transitions() {
        let knows = LabelId(0);
        let Live {
            mut index,
            mut graph,
        } = Live::blank(2, 2, 1);
        let mut log = EntryDeltas::new();

        // A fresh edge creates entries: every logged op is an Added key that
        // the index now contains.
        let insert = EdgeOp::insert(NodeId(0), knows, NodeId(1));
        assert!(index.apply_logged(&mut graph, insert, &mut log));
        assert_eq!(log.len(), index.entry_count());
        for (key, change) in log.ops() {
            assert_eq!(*change, EntryChange::Added);
            let (path, a, b) = crate::pathkey::decode_entry(key).unwrap();
            assert!(index.contains(&path, a, b));
        }

        // Deleting the edge reverses every transition; replaying the log in
        // order over a set reproduces the index's key set at each point.
        log.clear();
        let delete = EdgeOp::delete(NodeId(0), knows, NodeId(1));
        assert!(index.apply_logged(&mut graph, delete, &mut log));
        assert!(log.ops().iter().all(|(_, c)| *c == EntryChange::Removed));
        assert_eq!(index.entry_count(), 0);

        // A no-op update logs nothing.
        log.clear();
        assert!(!index.apply_logged(&mut graph, delete, &mut log));
        assert!(log.is_empty());
    }

    #[test]
    fn replaying_the_log_reproduces_the_key_set() {
        let g = paper_example_graph();
        let Live {
            mut index,
            mut graph,
        } = Live::over(&g, 2);
        let mut shadow: BTreeSet<Vec<u8>> = index.tree.keys().cloned().collect();

        let mut rng_edges: Vec<Edge> = edges_of(&g).into_iter().collect();
        rng_edges.truncate(6);
        let mut log = EntryDeltas::new();
        for &(s, l, d) in &rng_edges {
            index.apply_logged(&mut graph, EdgeOp::delete(s, l, d), &mut log);
        }
        for &(s, l, d) in &rng_edges {
            index.apply_logged(&mut graph, EdgeOp::insert(s, l, d), &mut log);
        }
        for (key, change) in log.ops() {
            match change {
                EntryChange::Added => assert!(shadow.insert(key.clone()), "double add"),
                EntryChange::Removed => assert!(shadow.remove(key), "remove of absent key"),
            }
        }
        let live: BTreeSet<Vec<u8>> = index.tree.keys().cloned().collect();
        assert_eq!(shadow, live, "log replay diverged from the index");
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
    fn each_op_writes_its_counts_once_per_key_in_key_order() {
        let g = paper_example_graph();
        let Live {
            mut index,
            mut graph,
        } = Live::over(&g, 3);
        for op in churn(&g) {
            let mut log = EntryDeltas::new();
            assert!(index.apply_logged(&mut graph, op, &mut log));
            assert!(!log.counts().is_empty(), "{op:?}");
            assert!(
                log.counts().windows(2).all(|w| w[0].0 < w[1].0),
                "{op:?}: count writes out of key order"
            );
            assert!(
                log.ops().windows(2).all(|w| w[0].0 < w[1].0),
                "{op:?}: transitions out of key order"
            );
        }
    }

    #[test]
    fn independently_seeded_writers_log_identical_deltas() {
        // Two bulk seeds, not a clone: a clone would share whatever state
        // decides the emission order.
        let g = paper_example_graph();
        let logs: Vec<EntryDeltas> = (0..2)
            .map(|_| {
                let Live {
                    mut index,
                    mut graph,
                } = Live::over(&g, 3);
                let mut log = EntryDeltas::new();
                for op in churn(&g) {
                    assert!(index.apply_logged(&mut graph, op, &mut log));
                }
                log
            })
            .collect();
        assert!(logs[0].counts().len() > 100);
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
    #[should_panic(expected = "length 1..=k")]
    fn scanning_longer_than_k_panics() {
        let index = IncrementalKPathIndex::bulk_from_graph(&Graph::empty(), 1);
        let l = SignedLabel::forward(LabelId(0));
        let _ = index.scan_path(&[l, l]);
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn k_zero_is_rejected() {
        let _ = IncrementalKPathIndex::bulk_from_graph(&Graph::empty(), 0);
    }

    /// Keys of `tree` under `prefix`, via the range helper.
    fn keys_under(tree: &BTreeMap<Vec<u8>, u64>, prefix: &[u8]) -> Vec<Vec<u8>> {
        prefix_range(tree, prefix).map(|(k, _)| k.clone()).collect()
    }

    /// Targets under the `⟨p, source⟩` prefix of `tree`, via the range
    /// helper.
    fn targets_from(
        tree: &BTreeMap<Vec<u8>, u64>,
        path: &[SignedLabel],
        source: NodeId,
    ) -> Vec<NodeId> {
        prefix_range(tree, &encode_path_source_prefix(path, source))
            .map(|(key, _)| decode_pair(key).1)
            .collect()
    }

    fn key_map<const N: usize>(keys: [&[u8]; N]) -> BTreeMap<Vec<u8>, u64> {
        keys.into_iter().map(|key| (key.to_vec(), 1)).collect()
    }

    #[test]
    fn prefix_range_is_unbounded_above_when_the_prefix_has_no_successor() {
        let tree = key_map([&[0xFE, 0xFF], &[0xFF], &[0xFF, 0x00], &[0xFF, 0xFF, 0x03]]);
        assert_eq!(prefix_successor(&[0xFF, 0xFF]), None);
        assert_eq!(
            keys_under(&tree, &[0xFF]),
            [vec![0xFF], vec![0xFF, 0x00], vec![0xFF, 0xFF, 0x03]]
        );
        assert_eq!(keys_under(&tree, &[0xFF, 0xFF]), [vec![0xFF, 0xFF, 0x03]]);
        assert_eq!(keys_under(&tree, &[]).len(), tree.len());
    }

    #[test]
    fn prefix_range_with_a_carrying_successor_excludes_the_shorter_upper_bound() {
        // [0x01, 0xFF] carries to [0x02]: the upper bound is shorter than the
        // prefix, and both it and everything above it must stay out.
        let tree = key_map([
            &[0x01, 0xFE, 0xFF],
            &[0x01, 0xFF],
            &[0x01, 0xFF, 0x00],
            &[0x01, 0xFF, 0xFF, 0xFF],
            &[0x02],
            &[0x02, 0x00],
        ]);
        assert_eq!(prefix_successor(&[0x01, 0xFF]), Some(vec![0x02]));
        assert_eq!(
            keys_under(&tree, &[0x01, 0xFF]),
            [
                vec![0x01, 0xFF],
                vec![0x01, 0xFF, 0x00],
                vec![0x01, 0xFF, 0xFF, 0xFF]
            ]
        );
    }

    #[test]
    fn scans_stop_at_a_neighbour_differing_in_the_last_prefix_byte() {
        // Labels 0 and 1 give the signed steps +0, 0⁻, +1, 1⁻: the path
        // prefixes of adjacent steps differ only in their last byte, and so do
        // the source prefixes of adjacent node ids.
        let (l0, l1) = (LabelId(0), LabelId(1));
        let mut live = Live::blank(1, 9, 2);
        for src in [NodeId(6), NodeId(7), NodeId(8)] {
            for (label, dst) in [(l0, NodeId(1)), (l0, NodeId(2)), (l1, NodeId(3))] {
                live.insert(src, label, dst);
            }
        }
        let fwd0 = [SignedLabel::forward(l0)];
        let expected: Vec<_> = [6, 7, 8]
            .into_iter()
            .flat_map(|s| [(NodeId(s), NodeId(1)), (NodeId(s), NodeId(2))])
            .collect();
        assert_eq!(live.index.scan_path(&fwd0), expected);
        let tree = &live.index.tree;
        assert_eq!(targets_from(tree, &fwd0, NodeId(7)), [NodeId(1), NodeId(2)]);
        assert_eq!(
            targets_from(tree, &[SignedLabel::forward(l1)], NodeId(7)),
            [NodeId(3)]
        );
    }

    #[test]
    fn scan_path_from_the_largest_node_id_carries_the_successor() {
        // The source prefix of NodeId(u32::MAX) ends in four 0xFF bytes, so
        // its successor must carry into the path bytes. No graph interns
        // that many nodes: the k = 1 entries of the edges max → 4, max → max
        // and (max − 1) → 5 are keyed directly.
        let l = LabelId(0);
        let max = NodeId(u32::MAX);
        let (fwd, bwd) = ([SignedLabel::forward(l)], [SignedLabel::backward(l)]);
        let tree: BTreeMap<Vec<u8>, u64> = [
            (max, NodeId(4)),
            (max, max),
            (NodeId(u32::MAX - 1), NodeId(5)),
        ]
        .into_iter()
        .flat_map(|(a, b)| [encode_entry(&fwd, a, b), encode_entry(&bwd, b, a)])
        .map(|key| (key, 1))
        .collect();
        let prefix = encode_path_source_prefix(&fwd, max);
        assert!(prefix.ends_with(&[0xFF; 4]));
        assert!(prefix_successor(&prefix).is_some_and(|s| s.len() < prefix.len()));
        assert_eq!(targets_from(&tree, &fwd, max), [NodeId(4), max]);
        assert_eq!(targets_from(&tree, &fwd, NodeId(u32::MAX - 1)), [NodeId(5)]);
        // The next path in key order (0⁻) starts right after max's entries.
        assert_eq!(targets_from(&tree, &bwd, NodeId(4)), [max]);
    }

    /// The paper graph with the `(key, walk count)` stream a durable backend
    /// would hand back for it at k = 2.
    fn persisted_fixture() -> (IncrementalKPathIndex, Vec<(Vec<u8>, u64)>) {
        let reference = IncrementalKPathIndex::bulk_from_graph(&paper_example_graph(), 2);
        let entries = reference
            .tree
            .iter()
            .map(|(k, &c)| (k.clone(), c))
            .collect();
        (reference, entries)
    }

    #[test]
    fn a_faithful_persisted_stream_reloads_the_identical_index() {
        let (reference, entries) = persisted_fixture();
        let reloaded = IncrementalKPathIndex::from_persisted_entries(2, entries)
            .expect("a faithful entry stream reloads");
        assert_eq!(reloaded.tree, reference.tree);
        assert_eq!(violated(&reloaded), Vec::<&str>::new());
    }

    #[test]
    fn persisted_entries_out_of_key_order_are_rejected() {
        let (_, mut entries) = persisted_fixture();
        entries.swap(0, 1);
        let err = IncrementalKPathIndex::from_persisted_entries(2, entries).unwrap_err();
        assert!(err.contains("ascending key order"), "{err}");
    }

    #[test]
    fn a_duplicated_persisted_entry_is_rejected() {
        // A `collect()` into the map would silently keep the last count.
        let (_, mut entries) = persisted_fixture();
        entries[1] = entries[0].clone();
        let err = IncrementalKPathIndex::from_persisted_entries(2, entries).unwrap_err();
        assert!(err.contains("ascending key order"), "{err}");
    }

    #[test]
    fn a_zero_count_persisted_entry_is_rejected() {
        let (_, mut entries) = persisted_fixture();
        entries[2].1 = 0;
        let err = IncrementalKPathIndex::from_persisted_entries(2, entries).unwrap_err();
        assert!(err.contains("zero walk count"), "{err}");
    }

    mod property {
        use super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// A random update over ≤ 5 nodes and 2 labels; deletions pick
        /// arbitrary edges and are skipped when absent, so scripts freely mix
        /// effective and no-op updates.
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
                        live.index.scan_path(&path),
                        oracle_pairs(&edges, &path),
                        "case {case}"
                    );
                }
            }
        }

        /// Walk counts are symmetric under path inversion: the number of
        /// p-walks a→b equals the number of p⁻-walks b→a.
        #[test]
        fn walk_counts_are_converse_symmetric() {
            for case in 0..64u64 {
                let mut rng = StdRng::seed_from_u64(0xC0A0E + case);
                let mut live = Live::blank(2, 5, 2);
                for _ in 0..rng.gen_range(1..25usize) {
                    live.apply(random_update(&mut rng));
                }
                let index = &live.index;
                for path in all_paths(2, 2) {
                    let inv = pathix_rpq::ast::inverse_path(&path);
                    for (a, b) in index.scan_path(&path) {
                        assert_eq!(
                            index.walk_count(&path, a, b),
                            index.walk_count(&inv, b, a),
                            "case {case}"
                        );
                    }
                }
            }
        }
    }

    /// The invariant names the audit reports for `index`, in discovery order.
    fn violated(index: &IncrementalKPathIndex) -> Vec<&'static str> {
        let mut report = AuditReport::new();
        report.run("incremental", index);
        report.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn audit_is_clean_on_a_maintained_index() {
        let g = paper_example_graph();
        let mut live = Live::over(&g, 2);
        assert_eq!(violated(&live.index), Vec::<&str>::new(), "after bulk seed");
        let knows = g.label_id("knows").unwrap();
        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        assert!(live.insert(sue, knows, tim));
        assert_eq!(violated(&live.index), Vec::<&str>::new(), "after insert");
        assert!(live.delete(sue, knows, tim));
        assert_eq!(violated(&live.index), Vec::<&str>::new(), "after delete");
    }

    #[test]
    fn seeded_corruption_trips_the_counting_auditor() {
        let g = paper_example_graph();
        let clean = IncrementalKPathIndex::bulk_from_graph(&g, 2);

        // A zero walk count left behind in the map (the delta rules must
        // delete the key instead).
        let mut corrupt = clean.clone();
        let key = corrupt
            .tree
            .keys()
            .next()
            .cloned()
            .expect("non-empty index");
        corrupt.tree.insert(key, 0);
        assert!(
            violated(&corrupt).contains(&"walk-count-positive"),
            "a zero-count entry must trip the auditor"
        );

        // A key that is no ⟨p, a, b⟩ entry.
        let mut corrupt = clean.clone();
        corrupt.tree.insert(vec![0xFF], 1);
        assert!(
            violated(&corrupt).contains(&"entry-decodable"),
            "a malformed key must trip the auditor"
        );
    }
}
