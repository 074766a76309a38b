//! The structurally-shared, read-optimized k-path index that live databases
//! publish as their memory-backend snapshots — and, in another chunk
//! encoding, as their compressed-backend snapshots.
//!
//! Republishing a bulk-loaded tree after a batch of updates would mean
//! rebuilding it over the **whole** entry set — an O(index) cost per publish
//! that throws away the locality the paper's update rules guarantee (an
//! update only touches the k-neighborhood of the changed edge).
//! [`SharedKPathIndex`] holds the index's logical content — every
//! `⟨p, a, b⟩` triple, served in `(source, target)` order per path — as a
//! map from label paths to pair relations:
//!
//! ```text
//! runs : [ path₁ → (PairRun, source bloom),  path₂ → (…), … ]   by (length, path)
//! ```
//!
//! Each relation is a [`PairRun`] — the same chunked, `Arc`-shared sorted
//! run the graph keeps its adjacency in; chunk cutting, fences, net apply
//! and the chunk-level audit all live there. This module adds what is the
//! index's own: the path directory, a per-run bloom filter over source
//! nodes, the per-path cardinalities read off the run lengths and the skip
//! counter.
//!
//! The index is generic over the runs' [`ChunkCodec`]: `SharedKPathIndex`
//! (plain chunks) is the memory backend, and `SharedKPathIndex<Varint>` —
//! `pathix_pagestore::CompressedPathStore`, delta/varint chunks — the
//! compressed one. Both build, probe, publish and audit through this code.
//!
//! Publishing a batch ([`SharedKPathIndex::apply_delta_batch`], driven by the
//! [`EntryDeltas`](crate::EntryDeltas) log [`crate::apply_op`] emits) hands each
//! touched path's net key changes to [`PairRun::apply`] and re-shares every
//! untouched run wholesale, so the publish cost is **O(Δ · chunk)** — flat in
//! the index size. A run the batch empties is dropped; a path the batch
//! fills for the first time gets a new run. Old snapshots keep their `Arc`s,
//! which is what makes every published epoch fully isolated for free:
//! nothing a reader holds is ever mutated.

use crate::backend::{
    check_scan_path, BackendBatchScan, BackendError, BackendResult, BackendStats, BatchScan,
    DeltaBatch, EntryChange, MutablePathIndexBackend, PairBatch, PathIndexBackend,
};
use crate::enumerate::enumerate_paths;
use crate::pathkey::decode_entry;
use pathix_audit::{AuditReport, StructuralAudit};
use pathix_graph::{ChunkCodec, Graph, NodeId, PairRun, Plain, SignedLabel};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A path keyed for `(length, path)` ordering.
type PathKey = (usize, Vec<SignedLabel>);

/// The net key changes of one path, sorted by pair (`true` = the key
/// appeared) — what [`PairRun::apply`] takes.
type PathOps = Vec<((NodeId, NodeId), bool)>;

/// A tiny blocked bloom filter over a run's source nodes (512 bits, two
/// multiplicative hashes). Rebuilds OR the batch's added sources into the
/// previous epoch's filter, so it stays a **superset** of the live sources —
/// deletions leave stale bits behind, which only costs false positives —
/// and publish cost stays O(Δ) instead of O(run).
#[derive(Debug, Clone, Copy, Default)]
struct SourceBloom {
    bits: [u64; 8],
}

impl SourceBloom {
    fn slots(src: NodeId) -> (usize, usize) {
        // Top 9 bits of two multiplicative hashes (low bits of x·odd are a
        // mere permutation of x's low bits and cluster on dense node IDs).
        let a = (src.0.wrapping_mul(0x9E37_79B9) >> 23) as usize;
        let b = (src.0.wrapping_mul(0x85EB_CA6B) >> 23) as usize;
        (a, b)
    }

    fn insert(&mut self, src: NodeId) {
        let (a, b) = Self::slots(src);
        self.bits[a / 64] |= 1 << (a % 64);
        self.bits[b / 64] |= 1 << (b % 64);
    }

    /// `false` means `src` is definitely not a source of this run.
    fn maybe_contains(&self, src: NodeId) -> bool {
        let (a, b) = Self::slots(src);
        self.bits[a / 64] & (1 << (a % 64)) != 0 && self.bits[b / 64] & (1 << (b % 64)) != 0
    }
}

/// One path relation: its pairs in ascending `(source, target)` order plus a
/// superset filter over its source nodes. An untouched run is re-shared
/// across epochs by cloning the [`PairRun`] (two refcount bumps) and copying
/// the bloom.
#[derive(Debug, Clone)]
struct Run<C: ChunkCodec> {
    path: Vec<SignedLabel>,
    pairs: PairRun<C>,
    bloom: SourceBloom,
}

/// What one publish reused versus rebuilt — the observable evidence that a
/// publish was proportional to the touched neighborhood, not the index.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunPublishStats {
    /// Runs taken over wholesale from the previous epoch (`Arc` bumps only).
    pub runs_shared: usize,
    /// Runs with at least one rebuilt chunk.
    pub runs_rebuilt: usize,
    /// Chunks re-shared from the previous epoch.
    pub chunks_shared: usize,
    /// Chunks rebuilt because a key inside them changed.
    pub chunks_rebuilt: usize,
}

/// A k-path index over per-path chunked runs in encoding `C` (plain unless
/// named), with structural sharing across epochs (see the module docs) —
/// what a live database's memory and compressed backends publish as their
/// snapshots.
#[derive(Debug, Clone)]
pub struct SharedKPathIndex<C: ChunkCodec = Plain> {
    k: usize,
    node_count: usize,
    entries: u64,
    /// Sorted by `(path length, path)` — the order
    /// [`PathIndexBackend::per_path_counts`] promises.
    runs: Vec<Run<C>>,
    /// The length of every run, in run order.
    per_path_counts: Vec<(Vec<SignedLabel>, u64)>,
    last_publish: RunPublishStats,
    /// Chunks bypassed by bound-source probes (fences + bloom). Shared
    /// (`Arc`) across clones and epochs so any snapshot reports the lineage's
    /// global total.
    chunks_skipped: Arc<AtomicU64>,
}

/// The memory backend's constructor and its borrowing scan.
impl SharedKPathIndex {
    /// Builds the index over `graph` for locality parameter `k ≥ 1`:
    /// [`enumerate_paths`], one [`PairRun`] per non-empty relation.
    ///
    /// The three lookup shapes of the paper's Example 3.1:
    ///
    /// ```
    /// use pathix_datagen::paper_example_graph;
    /// use pathix_graph::SignedLabel;
    /// use pathix_index::SharedKPathIndex;
    ///
    /// let g = paper_example_graph();
    /// let index = SharedKPathIndex::build(&g, 2);
    /// let path = [
    ///     SignedLabel::forward(g.label_id("supervisor").unwrap()),
    ///     SignedLabel::backward(g.label_id("worksFor").unwrap()),
    /// ];
    /// let (kim, sue) = (g.node_id("kim").unwrap(), g.node_id("sue").unwrap());
    ///
    /// // ⟨p⟩: the whole relation, in (source, target) order.
    /// assert_eq!(index.scan_path(&path).collect::<Vec<_>>(), [(kim, sue)]);
    /// // ⟨p, s⟩: the targets of one source.
    /// assert_eq!(index.scan_path_from(&path, kim), [sue]);
    /// assert!(index.scan_path_from(&path, sue).is_empty());
    /// // ⟨p, s, t⟩: membership.
    /// assert!(index.contains(&path, kim, sue));
    /// assert!(!index.contains(&path, sue, kim));
    /// ```
    pub fn build(graph: &Graph, k: usize) -> Self {
        Self::build_in(graph, k)
    }

    /// `I_{G,k}(⟨p⟩)` as a chunk-streaming iterator.
    pub fn scan_path(&self, path: &[SignedLabel]) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.run(path).into_iter().flat_map(|r| r.pairs.iter())
    }
}

impl<C: ChunkCodec> SharedKPathIndex<C> {
    /// [`SharedKPathIndex::build`] in chunk encoding `C`.
    pub fn build_in(graph: &Graph, k: usize) -> Self {
        assert!(k >= 1, "the k-path index requires k ≥ 1");
        let relations = enumerate_paths(graph, k);
        let mut runs = Vec::with_capacity(relations.len());
        let mut per_path_counts = Vec::with_capacity(relations.len());
        let mut entries = 0u64;
        for rel in relations {
            let mut pairs = rel.pairs;
            pairs.sort_unstable();
            pairs.dedup();
            entries += pairs.len() as u64;
            per_path_counts.push((rel.path.clone(), pairs.len() as u64));
            let mut bloom = SourceBloom::default();
            for &(s, _) in &pairs {
                bloom.insert(s);
            }
            runs.push(Run {
                path: rel.path,
                pairs: PairRun::from_sorted_in(pairs),
                bloom,
            });
        }
        SharedKPathIndex {
            k,
            node_count: graph.node_count(),
            entries,
            runs,
            per_path_counts,
            last_publish: RunPublishStats::default(),
            chunks_skipped: Arc::default(),
        }
    }

    /// Chunks that bound-source probes skipped without reading, thanks to
    /// per-chunk source fences and the per-run bloom filter. The counter is
    /// shared across snapshots, so any clone reports the global total.
    pub fn chunks_skipped(&self) -> u64 {
        self.chunks_skipped.load(Ordering::Relaxed)
    }

    /// A snapshot of this index to publish: an O(paths) clone that shares
    /// every chunk. The view stays bit-stable no matter what the original
    /// absorbs afterwards — later batches replace chunks, they never mutate
    /// them.
    pub fn reader_view(&self) -> Self {
        self.clone()
    }

    /// What the most recent [`SharedKPathIndex::apply_delta_batch`] reused
    /// versus rebuilt (all zeros before the first batch).
    pub fn last_publish_stats(&self) -> RunPublishStats {
        self.last_publish
    }

    /// Total number of chunks across all runs.
    pub fn chunk_count(&self) -> usize {
        self.runs.iter().map(|r| r.pairs.chunks().len()).sum()
    }

    /// Number of non-empty path relations stored.
    pub fn path_count(&self) -> usize {
        self.runs.len()
    }

    /// The relation of `path`, if it is non-empty.
    pub fn relation(&self, path: &[SignedLabel]) -> Option<&PairRun<C>> {
        self.run(path).map(|r| &r.pairs)
    }

    /// The run of `path`, if that relation is non-empty.
    fn run(&self, path: &[SignedLabel]) -> Option<&Run<C>> {
        self.runs
            .binary_search_by(|r| (r.path.len(), r.path.as_slice()).cmp(&(path.len(), path)))
            .ok()
            .map(|i| &self.runs[i])
    }

    /// `I_{G,k}(⟨p, source⟩)`: targets reachable from `source` via `p`.
    ///
    /// Bound probes never read a chunk that cannot hold `source`: the per-run
    /// bloom filter rejects absent sources outright, and the run's fences
    /// narrow the rest to the covering chunk range without touching pair
    /// data. Skipped chunks are counted.
    pub fn scan_path_from(&self, path: &[SignedLabel], source: NodeId) -> Vec<NodeId> {
        let Some(run) = self.run(path) else {
            return Vec::new();
        };
        let chunks = run.pairs.chunks();
        if !run.bloom.maybe_contains(source) {
            self.chunks_skipped
                .fetch_add(chunks.len() as u64, Ordering::Relaxed);
            return Vec::new();
        }
        let covering = run.pairs.covering_chunks(source);
        self.chunks_skipped
            .fetch_add((chunks.len() - covering.len()) as u64, Ordering::Relaxed);
        let mut scratch = Vec::new();
        let mut targets = Vec::new();
        for chunk in &chunks[covering] {
            let pairs = C::pairs(chunk, &mut scratch);
            let from = pairs.partition_point(|&(s, _)| s < source);
            targets.extend(
                pairs[from..]
                    .iter()
                    .take_while(|&&(s, _)| s == source)
                    .map(|&(_, t)| t),
            );
        }
        targets
    }

    /// `I_{G,k}(⟨p, source, target⟩)`: membership test.
    pub fn contains(&self, path: &[SignedLabel], source: NodeId, target: NodeId) -> bool {
        self.run(path).is_some_and(|run| {
            run.bloom.maybe_contains(source) && run.pairs.contains((source, target))
        })
    }

    /// Rebuilds only the chunks whose keys the batch changed, sharing every
    /// other chunk with the previous epoch. Returns the new index plus what it
    /// reused; callers publish the result and keep serving the old value to
    /// existing readers.
    fn with_batch(&self, batch: &DeltaBatch<'_>) -> BackendResult<Self> {
        // The log records key transitions in order; each path's nets down to
        // the sorted real changes of its run.
        let mut by_path: BTreeMap<PathKey, PathOps> = BTreeMap::new();
        for (key, change) in batch.deltas.ops() {
            let (path, a, b) = decode_entry(key).ok_or_else(|| {
                BackendError::new(
                    C::BACKEND,
                    format!("malformed delta key {key:?} in batch log"),
                )
            })?;
            by_path
                .entry((path.len(), path))
                .or_default()
                .push(((a, b), *change == EntryChange::Added));
        }
        let mut stats = RunPublishStats::default();
        let mut runs = Vec::with_capacity(self.runs.len() + by_path.len());
        let mut old = self.runs.iter().peekable();
        let share = |run: &Run<C>, runs: &mut Vec<Run<C>>, stats: &mut RunPublishStats| {
            stats.runs_shared += 1;
            stats.chunks_shared += run.pairs.chunks().len();
            runs.push(run.clone());
        };
        for ((len, path), transitions) in by_path {
            let key = (len, path.as_slice());
            while let Some(run) = old.next_if(|r| (r.path.len(), r.path.as_slice()) < key) {
                share(run, &mut runs, &mut stats);
            }
            let prev = old.next_if(|r| r.path == path);
            let ops = PairRun::net_ops(transitions);
            if ops.is_empty() {
                // Every change of this path cancelled out within the batch.
                if let Some(run) = prev {
                    share(run, &mut runs, &mut stats);
                }
                continue;
            }
            stats.runs_rebuilt += 1;
            let (pairs, mut bloom) = prev.map(|r| (r.pairs.clone(), r.bloom)).unwrap_or_default();
            // Extend the previous epoch's bloom with the added sources —
            // O(Δ), keeping it a superset of the live sources.
            for &((s, _), added) in &ops {
                if added {
                    bloom.insert(s);
                }
            }
            let pairs = pairs.apply(&ops, &mut stats.chunks_shared, &mut stats.chunks_rebuilt);
            if !pairs.is_empty() {
                runs.push(Run { path, pairs, bloom });
            }
        }
        for run in old {
            share(run, &mut runs, &mut stats);
        }

        let per_path_counts: Vec<_> = runs
            .iter()
            .map(|r| (r.path.clone(), r.pairs.len() as u64))
            .collect();
        Ok(SharedKPathIndex {
            k: self.k,
            node_count: batch.node_count,
            entries: per_path_counts.iter().map(|(_, n)| n).sum(),
            runs,
            per_path_counts,
            last_publish: stats,
            chunks_skipped: Arc::clone(&self.chunks_skipped),
        })
    }
}

/// Batched scan over a run's chunk list: whole chunk slices are copied into
/// the batch columns per call instead of iterating pair-at-a-time — the
/// chunked layout's native bulk extraction path. An encoded chunk is decoded
/// into `scratch` once per batch it feeds.
struct ChunkBatchScan<'a, C: ChunkCodec> {
    chunks: &'a [Arc<C::Chunk>],
    chunk: usize,
    offset: usize,
    scratch: Vec<(NodeId, NodeId)>,
}

impl<C: ChunkCodec> BatchScan for ChunkBatchScan<'_, C> {
    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        batch.clear();
        while self.chunk < self.chunks.len() && !batch.is_full() {
            let pairs = C::pairs(&self.chunks[self.chunk], &mut self.scratch);
            let take = batch.remaining_capacity().min(pairs.len() - self.offset);
            batch.extend_from_pairs(&pairs[self.offset..self.offset + take]);
            self.offset += take;
            if self.offset == pairs.len() {
                self.chunk += 1;
                self.offset = 0;
            }
        }
        Ok(batch.len())
    }
}

impl<C: ChunkCodec> PathIndexBackend for SharedKPathIndex<C> {
    fn backend_name(&self) -> &'static str {
        C::BACKEND
    }

    fn k(&self) -> usize {
        self.k
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn scan_path_batches(&self, path: &[SignedLabel]) -> BackendResult<BackendBatchScan<'_>> {
        check_scan_path(self.backend_name(), self.k, path)?;
        let chunks = self.run(path).map(|r| r.pairs.chunks()).unwrap_or(&[]);
        Ok(Box::new(ChunkBatchScan::<C> {
            chunks,
            chunk: 0,
            offset: 0,
            scratch: Vec::new(),
        }))
    }

    fn scan_path_from(&self, path: &[SignedLabel], source: NodeId) -> BackendResult<Vec<NodeId>> {
        check_scan_path(self.backend_name(), self.k, path)?;
        Ok(SharedKPathIndex::scan_path_from(self, path, source))
    }

    fn contains(
        &self,
        path: &[SignedLabel],
        source: NodeId,
        target: NodeId,
    ) -> BackendResult<bool> {
        check_scan_path(self.backend_name(), self.k, path)?;
        Ok(SharedKPathIndex::contains(self, path, source, target))
    }

    fn per_path_counts(&self) -> &[(Vec<SignedLabel>, u64)] {
        &self.per_path_counts
    }

    /// `approx_bytes` is what the chunks' encoding says they take: 8 bytes
    /// per entry for plain chunks.
    fn stats(&self) -> BackendStats {
        BackendStats {
            backend: self.backend_name(),
            k: self.k,
            entries: self.entries,
            distinct_paths: self.per_path_counts.len(),
            approx_bytes: self
                .runs
                .iter()
                .flat_map(|r| r.pairs.chunks())
                .map(|chunk| C::footprint(chunk) as u64)
                .sum(),
        }
    }
}

impl<C: ChunkCodec> MutablePathIndexBackend for SharedKPathIndex<C> {
    /// Publishes the next epoch in place: O(touched chunks), with everything
    /// untouched shared structurally. Only fails on a malformed delta log.
    fn apply_delta_batch(&mut self, batch: &DeltaBatch<'_>) -> BackendResult<()> {
        *self = self.with_batch(batch)?;
        Ok(())
    }
}

impl<C: ChunkCodec> StructuralAudit for SharedKPathIndex<C> {
    /// Walks every run and pair, verifying the invariants the scan and probe
    /// paths silently rely on:
    ///
    /// * `runs-ordered` — runs strictly ascending by `(length, path)` (the
    ///   binary search in `SharedKPathIndex::run` assumes it);
    /// * per run, everything [`PairRun::audit`] checks: `chunk-decodable` /
    ///   `chunk-nonempty` / `chunk-size-max` / `chunk-coalesced` /
    ///   `chunk-sorted` / `chunk-disjoint` / `fence-parallel` / `fence-tight`
    ///   / `run-count`;
    /// * `bloom-sound` — every present source passes the run's bloom filter
    ///   (the superset property: deletions may leave stale bits, but a live
    ///   source must never be rejected);
    /// * `counts-consistent` / `entry-count` — the published per-path
    ///   cardinalities and the entry total match what the runs hold.
    fn audit(&self, report: &mut AuditReport) {
        for pair in self.runs.windows(2) {
            report.check(
                "runs-ordered",
                &format!("run {:?}", pair[1].path),
                (pair[0].path.len(), &pair[0].path) < (pair[1].path.len(), &pair[1].path),
                || format!("follows run {:?} out of (length, path) order", pair[0].path),
            );
        }
        report.check(
            "counts-consistent",
            "index",
            self.runs.len() == self.per_path_counts.len()
                && self
                    .runs
                    .iter()
                    .zip(&self.per_path_counts)
                    .all(|(run, (path, _))| run.path == *path),
            || {
                format!(
                    "{} runs vs {} per-path counts (or mismatched paths)",
                    self.runs.len(),
                    self.per_path_counts.len()
                )
            },
        );
        let mut entries = 0u64;
        let mut scratch = Vec::new();
        for run in &self.runs {
            let loc = format!("path {:?}", run.path);
            run.pairs.audit(&loc, report);
            let mut run_entries = 0u64;
            let mut bloom_misses = 0u64;
            for chunk in run.pairs.chunks() {
                for &(s, _) in C::pairs(chunk, &mut scratch) {
                    run_entries += 1;
                    bloom_misses += u64::from(!run.bloom.maybe_contains(s));
                }
            }
            report.check("bloom-sound", &loc, bloom_misses == 0, || {
                format!("{bloom_misses} present source(s) rejected by the run's bloom filter")
            });
            let recorded = self.path_cardinality(&run.path);
            report.check(
                "counts-consistent",
                &loc,
                recorded == Some(run_entries),
                || {
                    format!(
                        "the run holds {run_entries} pairs but the published count is {recorded:?}"
                    )
                },
            );
            entries += run_entries;
        }
        report.check("entry-count", "index", entries == self.entries, || {
            format!(
                "runs hold {entries} pairs but the index claims {}",
                self.entries
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apply_op, naive_path_eval, EntryDeltas};
    use pathix_datagen::{paper_example_graph, social_network, SocialConfig};
    use pathix_graph::{EdgeOp, GraphBuilder, LabelId};
    use pathix_rpq::ast::inverse_path;

    /// Pairs in the synthetic relations below: far past the bound at which
    /// [`PairRun`] cuts a chunk, so the runs span several (each test asserts
    /// the chunk count it needs).
    const MANY: u32 = 1536;

    /// The batch that logged `deltas` and left `graph` behind.
    fn delta_batch<'a>(graph: &Graph, deltas: &'a EntryDeltas) -> DeltaBatch<'a> {
        DeltaBatch {
            deltas,
            node_count: graph.node_count(),
            seq: 1,
        }
    }

    /// An edgeless graph interning nodes `0..nodes` and labels `0..labels`:
    /// the epoch a synthetic test grows through delta batches.
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

    /// An index over no relation at k = 1, to grow through delta batches.
    fn empty_index() -> SharedKPathIndex {
        SharedKPathIndex {
            k: 1,
            node_count: 0,
            entries: 0,
            runs: Vec::new(),
            per_path_counts: Vec::new(),
            last_publish: RunPublishStats::default(),
            chunks_skipped: Arc::default(),
        }
    }

    #[test]
    fn build_matches_the_reference_evaluation() {
        let g = paper_example_graph();
        for k in 1..=3 {
            let relations = enumerate_paths(&g, k);
            let shared = SharedKPathIndex::build(&g, k);
            let mut counts = Vec::new();
            for rel in &relations {
                let path = &rel.path;
                let expected = naive_path_eval(&g, path);
                let actual: Vec<_> = shared.scan_path(path).collect();
                assert_eq!(actual, expected, "path {path:?}");
                for &(a, b) in &expected {
                    assert!(shared.contains(path, a, b));
                    let targets: Vec<_> = expected
                        .iter()
                        .filter(|&&(s, _)| s == a)
                        .map(|&(_, t)| t)
                        .collect();
                    assert_eq!(shared.scan_path_from(path, a), targets);
                }
                counts.push((path.clone(), expected.len() as u64));
            }
            assert_eq!(shared.per_path_counts(), counts);
            assert_eq!(
                shared.stats().entries,
                counts.iter().map(|(_, c)| c).sum::<u64>()
            );
        }
    }

    fn sl(g: &Graph, name: &str, backward: bool) -> SignedLabel {
        let id = g.label_id(name).unwrap();
        if backward {
            SignedLabel::backward(id)
        } else {
            SignedLabel::forward(id)
        }
    }

    #[test]
    fn a_bulk_built_multi_chunk_run_scans_in_source_target_order() {
        let g = social_network(SocialConfig {
            people: 150,
            companies: 8,
            ..Default::default()
        });
        let index = SharedKPathIndex::build(&g, 2);
        let knows = sl(&g, "knows", false);
        let path = [knows, knows];
        assert!(
            index.run(&path).unwrap().pairs.chunks().len() > 1,
            "the relation must span several chunks to exercise the build-time cut"
        );
        let pairs: Vec<_> = index.scan_path(&path).collect();
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(pairs, naive_path_eval(&g, &path));
    }

    #[test]
    fn scan_path_from_returns_exactly_the_targets_of_every_node() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 3);
        let path = [sl(&g, "knows", false), sl(&g, "worksFor", false)];
        let reference = naive_path_eval(&g, &path);
        // Includes nodes that are no source of the relation: the bloom and
        // the fences must answer "nothing", not a neighbour's targets.
        for node in g.nodes() {
            let expected: Vec<NodeId> = reference
                .iter()
                .filter(|&&(a, _)| a == node)
                .map(|&(_, b)| b)
                .collect();
            assert_eq!(index.scan_path_from(&path, node), expected, "{node:?}");
        }
    }

    #[test]
    fn contains_answers_membership() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 2);
        let path = [sl(&g, "supervisor", false), sl(&g, "worksFor", true)];
        let kim = g.node_id("kim").unwrap();
        let sue = g.node_id("sue").unwrap();
        let ada = g.node_id("ada").unwrap();
        // supervisor ∘ worksFor⁻ = {(kim, sue)} by construction.
        assert!(index.contains(&path, kim, sue));
        assert!(!index.contains(&path, kim, ada));
        assert!(!index.contains(&path, sue, kim));
    }

    #[test]
    fn inverse_paths_are_converse_relations_in_the_index() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 2);
        let p = vec![sl(&g, "knows", false), sl(&g, "worksFor", false)];
        let q = inverse_path(&p);
        let mut swapped: Vec<_> = index.scan_path(&q).map(|(a, b)| (b, a)).collect();
        swapped.sort_unstable();
        let direct: Vec<_> = index.scan_path(&p).collect();
        assert!(!direct.is_empty());
        assert_eq!(direct, swapped);
    }

    #[test]
    fn k1_index_has_only_single_labels() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 1);
        assert!(index.per_path_counts().iter().all(|(p, _)| p.len() == 1));
        let stats = index.stats();
        assert_eq!(stats.k, 1);
        assert_eq!(stats.distinct_paths, 6);
        assert_eq!(
            stats.entries,
            index.per_path_counts().iter().map(|(_, c)| *c).sum::<u64>()
        );
    }

    #[test]
    fn stats_grow_with_k() {
        let g = paper_example_graph();
        let s1 = SharedKPathIndex::build(&g, 1).stats();
        let s2 = SharedKPathIndex::build(&g, 2).stats();
        let s3 = SharedKPathIndex::build(&g, 3).stats();
        assert!(s1.entries < s2.entries && s2.entries < s3.entries);
        assert!(s1.distinct_paths < s2.distinct_paths);
        assert!(s1.approx_bytes < s3.approx_bytes);
    }

    #[test]
    fn path_cardinality_is_exact_and_absent_beyond_k() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 2);
        let knows = sl(&g, "knows", false);
        let expected = naive_path_eval(&g, &[knows]).len() as u64;
        assert_eq!(index.path_cardinality(&[knows]), Some(expected));
        assert_eq!(index.path_cardinality(&[knows, knows, knows]), None);
    }

    #[test]
    fn scanning_a_path_longer_than_k_is_a_backend_error() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 1);
        let backend: &dyn PathIndexBackend = &index;
        let knows = sl(&g, "knows", false);
        let too_long = [knows, knows];
        assert!(backend.collect_path(&too_long).is_err());
        assert!(backend.scan_path_batches(&too_long).is_err());
        assert!(backend
            .scan_path_from(&too_long, g.node_id("sue").unwrap())
            .is_err());
        assert!(backend.collect_path(&[knows]).is_ok());
    }

    #[test]
    fn delta_publish_matches_a_rebuild_and_shares_structure() {
        let g = paper_example_graph();
        let k = 2;
        let shared = SharedKPathIndex::build(&g, k);
        let mut graph = g.clone();

        let knows = g.label_id("knows").unwrap();
        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        let mut deltas = EntryDeltas::new();
        assert!(apply_op(
            &mut graph,
            k,
            EdgeOp::insert(sue, knows, tim),
            &mut deltas,
        ));
        let next = shared.with_batch(&delta_batch(&graph, &deltas)).unwrap();

        // The rule advanced the graph epoch to the updated graph.
        let rebuilt = SharedKPathIndex::build(&graph, k);
        assert_eq!(next.per_path_counts(), rebuilt.per_path_counts());
        for (path, _) in rebuilt.per_path_counts() {
            let expected: Vec<_> = rebuilt.scan_path(path).collect();
            let actual: Vec<_> = next.scan_path(path).collect();
            assert_eq!(actual, expected, "path {path:?}");
        }
        let publish = next.last_publish_stats();
        assert!(publish.runs_shared > 0, "{publish:?}");
        assert!(publish.runs_rebuilt > 0, "{publish:?}");
        // The old value is untouched: full snapshot isolation.
        assert_eq!(
            shared.per_path_counts(),
            SharedKPathIndex::build(&g, k).per_path_counts()
        );
    }

    #[test]
    fn add_then_remove_within_one_batch_is_net_noop() {
        let g = paper_example_graph();
        let shared = SharedKPathIndex::build(&g, 2);
        let mut graph = g.clone();
        let knows = g.label_id("knows").unwrap();
        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        let mut deltas = EntryDeltas::new();
        let insert = EdgeOp::insert(sue, knows, tim);
        let delete = EdgeOp::delete(sue, knows, tim);
        assert!(apply_op(&mut graph, 2, insert, &mut deltas));
        assert!(apply_op(&mut graph, 2, delete, &mut deltas));
        assert!(!deltas.is_empty(), "transitions were logged both ways");
        let next = shared.with_batch(&delta_batch(&graph, &deltas)).unwrap();
        assert_eq!(next.stats().entries, shared.stats().entries);
        for (path, _) in shared.per_path_counts() {
            assert_eq!(
                next.scan_path(path).collect::<Vec<_>>(),
                shared.scan_path(path).collect::<Vec<_>>(),
                "path {path:?}"
            );
        }
    }

    #[test]
    fn chunked_runs_split_and_stay_sorted_under_churn() {
        // A synthetic single-label chain large enough to force several chunks,
        // then heavy delete/insert churn replayed through delta batches.
        let l = LabelId(0);
        let mut graph = blank_graph(MANY + 1, 1);
        let mut deltas = EntryDeltas::new();
        for i in 0..(MANY) {
            apply_op(
                &mut graph,
                1,
                EdgeOp::insert(NodeId(i), l, NodeId(i + 1)),
                &mut deltas,
            );
        }
        let empty = empty_index();
        let mut shared = empty.with_batch(&delta_batch(&graph, &deltas)).unwrap();
        assert!(shared.chunk_count() > 1, "chain must span several chunks");

        for round in 0..4u32 {
            deltas.clear();
            for i in (round..(MANY)).step_by(7) {
                let update = if i % 2 == 0 {
                    EdgeOp::delete(NodeId(i), l, NodeId(i + 1))
                } else {
                    EdgeOp::insert(NodeId(i), l, NodeId(i + 1))
                };
                apply_op(&mut graph, 1, update, &mut deltas);
            }
            shared = shared.with_batch(&delta_batch(&graph, &deltas)).unwrap();
            let rebuilt = SharedKPathIndex::build(&graph, 1);
            assert_eq!(shared.per_path_counts(), rebuilt.per_path_counts());
            for (path, count) in rebuilt.per_path_counts() {
                let pairs: Vec<_> = shared.scan_path(path).collect();
                assert_eq!(pairs.len() as u64, *count, "round {round}, path {path:?}");
                assert!(pairs.windows(2).all(|w| w[0] < w[1]), "round {round}");
                assert_eq!(pairs, naive_path_eval(&graph, path), "round {round}");
            }
            let publish = shared.last_publish_stats();
            assert!(
                publish.chunks_rebuilt > 0,
                "round {round}: churn must rebuild chunks"
            );
        }
    }

    #[test]
    fn delete_heavy_churn_does_not_fragment_runs() {
        // Build a large single-path run, then delete almost everything in
        // scattered batches: the chunk count must shrink with the live
        // entries (undersized rebuilt regions absorb their neighbors)
        // instead of staying at the run's historical peak.
        let l = LabelId(0);
        let n = 4 * MANY;
        let mut graph = blank_graph(n, 1);
        let mut deltas = EntryDeltas::new();
        for i in 0..n {
            apply_op(
                &mut graph,
                1,
                EdgeOp::insert(NodeId(i), l, NodeId(i)),
                &mut deltas,
            );
        }
        let empty = empty_index();
        let mut shared = empty.with_batch(&delta_batch(&graph, &deltas)).unwrap();
        let peak_chunks = shared.chunk_count();
        assert!(peak_chunks >= 8);

        // Delete 15 of every 16 entries, scattered, over several batches.
        for offset in 0..15u32 {
            deltas.clear();
            for i in ((offset)..n).step_by(16) {
                apply_op(
                    &mut graph,
                    1,
                    EdgeOp::delete(NodeId(i), l, NodeId(i)),
                    &mut deltas,
                );
            }
            shared = shared.with_batch(&delta_batch(&graph, &deltas)).unwrap();
        }
        // Self-loops index under both signed directions: two runs.
        let live = shared.stats().entries as usize;
        assert_eq!(live, 2 * (n as usize / 16));
        // The audit's `chunk-coalesced` check is the bound itself (every
        // non-final chunk keeps at least the run primitive's minimum fill);
        // with a sixteenth of the entries left, so is a fraction of the peak.
        assert_eq!(violated(&shared), Vec::<&str>::new());
        assert!(
            4 * shared.chunk_count() <= peak_chunks,
            "run stayed fragmented: {} chunks for {live} live entries (peak {peak_chunks})",
            shared.chunk_count()
        );
        let pairs: Vec<_> = shared.scan_path(&[SignedLabel::forward(l)]).collect();
        assert_eq!(pairs, naive_path_eval(&graph, &[SignedLabel::forward(l)]));
    }

    #[test]
    fn untouched_chunks_are_pointer_identical_across_epochs() {
        let l0 = LabelId(0);
        let l1 = LabelId(1);
        let mut graph = blank_graph(MANY, 2);
        let mut deltas = EntryDeltas::new();
        for i in 0..(MANY) {
            apply_op(
                &mut graph,
                1,
                EdgeOp::insert(NodeId(i), l0, NodeId(i)),
                &mut deltas,
            );
        }
        apply_op(
            &mut graph,
            1,
            EdgeOp::insert(NodeId(0), l1, NodeId(1)),
            &mut deltas,
        );
        let base = empty_index()
            .with_batch(&delta_batch(&graph, &deltas))
            .unwrap();

        // Touch only label 1: every chunk of the big label-0 runs must be the
        // same allocation in the next epoch.
        deltas.clear();
        apply_op(
            &mut graph,
            1,
            EdgeOp::insert(NodeId(2), l1, NodeId(3)),
            &mut deltas,
        );
        let next = base.with_batch(&delta_batch(&graph, &deltas)).unwrap();
        let fwd0 = [SignedLabel::forward(l0)];
        let before = base.run(&fwd0).unwrap();
        let after = next.run(&fwd0).unwrap();
        assert!(
            std::ptr::eq(before.pairs.chunks(), after.pairs.chunks()),
            "an untouched run must re-share its whole chunk list"
        );
        assert!(next.last_publish_stats().runs_shared >= 1);
    }

    #[test]
    fn bound_probes_skip_chunks_and_count_them() {
        // A multi-chunk single-label chain: probing one source must read at
        // most the chunks whose fences admit it and count the rest skipped.
        let l = LabelId(0);
        let mut graph = blank_graph(2 * MANY + 1, 1);
        let mut deltas = EntryDeltas::new();
        let n_edges = 2 * MANY;
        for i in 0..n_edges {
            apply_op(
                &mut graph,
                1,
                EdgeOp::insert(NodeId(i), l, NodeId(i + 1)),
                &mut deltas,
            );
        }
        let empty = empty_index();
        let shared = empty.with_batch(&delta_batch(&graph, &deltas)).unwrap();
        let path = [SignedLabel::forward(l)];
        let chunk_count = shared.run(&path).unwrap().pairs.chunks().len();
        assert!(chunk_count >= 4, "need several chunks, got {chunk_count}");

        let before = shared.chunks_skipped();
        assert_eq!(shared.scan_path_from(&path, NodeId(0)), vec![NodeId(1)]);
        let after_hit = shared.chunks_skipped();
        assert!(
            after_hit - before >= chunk_count as u64 - 1,
            "a fenced probe must bypass all but the covering chunk"
        );

        // A source that no run contains: the bloom rejects it outright and
        // charges the whole run as skipped.
        let absent = NodeId(u32::MAX - 1);
        assert!(shared.scan_path_from(&path, absent).is_empty());
        assert!(!shared.contains(&path, absent, NodeId(0)));
        assert!(shared.chunks_skipped() > after_hit);
    }

    #[test]
    fn bloom_stays_a_superset_across_rebuilds() {
        let g = paper_example_graph();
        let shared = SharedKPathIndex::build(&g, 2);
        let mut graph = g.clone();
        let knows = g.label_id("knows").unwrap();
        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        let mut deltas = EntryDeltas::new();
        assert!(apply_op(
            &mut graph,
            2,
            EdgeOp::insert(sue, knows, tim),
            &mut deltas,
        ));
        let next = shared.with_batch(&delta_batch(&graph, &deltas)).unwrap();

        let rebuilt = SharedKPathIndex::build(&graph, 2);
        // Every live entry must pass the (possibly inherited) bloom — no
        // false negatives — so bound probes match a from-scratch build.
        for (path, _) in rebuilt.per_path_counts.clone() {
            for (s, t) in next.scan_path(&path).collect::<Vec<_>>() {
                assert!(
                    next.contains(&path, s, t),
                    "path {path:?} lost ({s:?},{t:?})"
                );
            }
            for s in (0..graph.node_count() as u32).map(NodeId) {
                assert_eq!(
                    next.scan_path_from(&path, s),
                    rebuilt.scan_path_from(&path, s),
                    "path {path:?} source {s:?}"
                );
            }
        }
    }

    #[test]
    fn batched_scan_matches_streaming_scan() {
        let g = paper_example_graph();
        let shared = SharedKPathIndex::build(&g, 2);
        for (path, _) in shared.per_path_counts().to_vec() {
            let streamed: Vec<_> = SharedKPathIndex::scan_path(&shared, &path).collect();
            let mut batched = Vec::new();
            let mut scan = PathIndexBackend::scan_path_batches(&shared, &path).unwrap();
            let mut batch = PairBatch::with_capacity(7);
            while scan.next_batch(&mut batch).unwrap() > 0 {
                batched.extend(batch.iter());
            }
            assert_eq!(batched, streamed, "path {path:?}");
        }
    }

    #[test]
    fn backend_trait_contract() {
        let g = paper_example_graph();
        let shared = SharedKPathIndex::build(&g, 2);
        let backend: &dyn PathIndexBackend = &shared;
        assert_eq!(backend.backend_name(), "memory");
        assert_eq!(backend.k(), 2);
        assert_eq!(backend.node_count(), g.node_count());
        let (path, count) = backend.per_path_counts()[0].clone();
        let via_trait = backend.collect_path(&path).unwrap();
        assert_eq!(via_trait.len() as u64, count);
        assert_eq!(backend.path_cardinality(&path), Some(count));
        assert!(backend.collect_path(&[]).is_err());
        let missing = [SignedLabel::forward(LabelId(999))];
        assert!(backend.collect_path(&missing).unwrap().is_empty());
        assert_eq!(backend.path_cardinality(&missing), None);
        assert!(backend.stats().entries > 0);
    }

    /// The invariant names the audit reports for `index`, in discovery order.
    fn violated(index: &SharedKPathIndex) -> Vec<&'static str> {
        let mut report = AuditReport::new();
        report.run("memory", index);
        report.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn audit_is_clean_after_build_and_after_delta_publishes() {
        let g = paper_example_graph();
        let mut shared = SharedKPathIndex::build(&g, 2);
        let mut graph = g.clone();
        assert_eq!(violated(&shared), Vec::<&str>::new());

        let knows = g.label_id("knows").unwrap();
        let mut rng_edges = vec![
            (g.node_id("sue").unwrap(), g.node_id("tim").unwrap()),
            (g.node_id("tim").unwrap(), g.node_id("kim").unwrap()),
            (g.node_id("kim").unwrap(), g.node_id("sue").unwrap()),
        ];
        rng_edges.extend(rng_edges.clone());
        let mut deltas = EntryDeltas::new();
        for (i, (src, dst)) in rng_edges.into_iter().enumerate() {
            deltas.clear();
            let update = if i < 3 {
                EdgeOp::insert(src, knows, dst)
            } else {
                EdgeOp::delete(src, knows, dst)
            };
            if apply_op(&mut graph, 2, update, &mut deltas) {
                shared = shared.with_batch(&delta_batch(&graph, &deltas)).unwrap();
            }
            assert_eq!(violated(&shared), Vec::<&str>::new(), "publish {i}");
        }
    }

    #[test]
    fn seeded_corruption_trips_each_run_auditor() {
        let g = paper_example_graph();
        let clean = SharedKPathIndex::build(&g, 2);
        let mut report = AuditReport::new();
        report.run("memory", &clean);
        report.assert_clean("fresh build");
        let fat = clean
            .runs
            .iter()
            .position(|r| r.pairs.len() >= 2)
            .expect("the paper graph has a multi-pair run");

        // Two runs out of (length, path) order: `run` binary-searches them.
        let mut corrupt = clean.clone();
        corrupt.runs.swap(0, 1);
        assert!(
            violated(&corrupt).contains(&"runs-ordered"),
            "swapped runs must trip the directory-order audit"
        );

        // One chunk-level corruption (each run-level check is seeded beside
        // `PairRun` itself): the index audit must reach into every run.
        let mut corrupt = clean.clone();
        {
            let run = &mut corrupt.runs[fat];
            let mut pairs: Vec<_> = run.pairs.iter().collect();
            pairs.swap(0, 1);
            run.pairs = PairRun::from_chunks_unchecked(vec![pairs]);
        }
        assert!(
            violated(&corrupt).contains(&"chunk-sorted"),
            "swapped pairs must trip the sortedness audit"
        );

        // A wiped bloom: present sources become false negatives.
        let mut corrupt = clean.clone();
        corrupt.runs[fat].bloom = SourceBloom::default();
        assert!(
            violated(&corrupt).contains(&"bloom-sound"),
            "a lost bloom bit must trip the soundness audit"
        );

        // A published cardinality that disagrees with the stored pairs.
        let mut corrupt = clean.clone();
        corrupt.per_path_counts[fat].1 += 1;
        assert!(
            violated(&corrupt).contains(&"counts-consistent"),
            "a count off by one must trip the cardinality audit"
        );
    }

    #[test]
    fn bloom_soundness_and_superset_hold_across_a_publish_sequence() {
        // Direct unit coverage for the per-run source bloom, independent of
        // the end-to-end harness: across a sequence of delta publishes with
        // mixed churn, (a) every live source passes its run's bloom — no
        // false negatives ever — and (b) each surviving run's bloom bits are
        // a superset of the previous epoch's (rebuilds only OR bits in).
        let l = LabelId(0);
        let n = MANY;
        let mut graph = blank_graph(2 * n, 1);
        let mut deltas = EntryDeltas::new();
        for i in 0..n {
            apply_op(
                &mut graph,
                1,
                EdgeOp::insert(NodeId(2 * i), l, NodeId(2 * i + 1)),
                &mut deltas,
            );
        }
        let empty = empty_index();
        let mut shared = empty.with_batch(&delta_batch(&graph, &deltas)).unwrap();

        for round in 0..5u32 {
            deltas.clear();
            for i in (round..n).step_by(5) {
                let update = if i % 2 == 0 {
                    EdgeOp::delete(NodeId(2 * i), l, NodeId(2 * i + 1))
                } else {
                    EdgeOp::insert(NodeId(2 * i + 1), l, NodeId(2 * i))
                };
                apply_op(&mut graph, 1, update, &mut deltas);
            }
            let prev_blooms: Vec<(Vec<SignedLabel>, [u64; 8])> = shared
                .runs
                .iter()
                .map(|r| (r.path.clone(), r.bloom.bits))
                .collect();
            let next = shared.with_batch(&delta_batch(&graph, &deltas)).unwrap();

            for run in &next.runs {
                for (s, _) in run.pairs.iter() {
                    assert!(
                        run.bloom.maybe_contains(s),
                        "round {round}: live source {s:?} rejected by the bloom of {:?}",
                        run.path
                    );
                }
                if let Some((_, before)) = prev_blooms.iter().find(|(p, _)| *p == run.path) {
                    for (now, before) in run.bloom.bits.iter().zip(before) {
                        assert_eq!(
                            now & before,
                            *before,
                            "round {round}: the bloom of {:?} dropped bits across a publish",
                            run.path
                        );
                    }
                }
            }
            shared = next;
        }
    }
}
