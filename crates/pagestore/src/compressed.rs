//! Compressed per-path pair blocks with a mutable delta overlay.
//!
//! The paper's companion work (reference \[14\]) investigates the *size* of a
//! from-scratch path index and how far compression can shrink it. This module
//! provides that compressed representation: for every label path `p` of
//! length ≤ k, the sorted pair set `p(G)` is stored as one delta/varint block
//! ([`crate::varint::encode_pairs`]) keyed by the path, instead of one B+tree
//! entry per pair.
//!
//! The trade-off mirrors the one studied there: blocks are far smaller than
//! per-pair keys (each pair repeats the full path prefix in the B+tree), but
//! source-prefix lookups (`I_{G,k}(p, a)`) must decode the block up to `a`
//! instead of seeking directly.
//!
//! ## Live updates
//!
//! Compressed blocks cannot absorb point mutations in place, so the store
//! keeps a per-path **delta overlay**: a sorted side-table of membership
//! overrides (`pair → present/absent`) that every scan merges with the block
//! decode on the fly. When a path's overlay grows past a configurable
//! threshold the block is rewritten with the overlay folded in (a
//! *compaction*) and the overlay cleared, so scans never pay for more than a
//! bounded side-table. Blocks are shared (`Arc`) between clones, which makes
//! publishing an immutable snapshot after each update batch O(paths) instead
//! of O(index) — the overlay maps are small by construction.

use crate::varint::{encode_pairs, PairDecoder};
use pathix_audit::{AuditReport, StructuralAudit};
use pathix_graph::Graph;
use pathix_graph::{NodeId, SignedLabel};
use pathix_index::backend::{
    check_scan_path, BackendBatchScan, BackendError, BackendResult, BackendStats, BatchScan,
    DeltaBatch, EntryChange, MutablePathIndexBackend, PairBatch, PathIndexBackend,
};
use pathix_index::pathkey::{decode_entry, encode_path_prefix};
use pathix_index::{enumerate_paths, paths_k_cardinality};
use std::collections::btree_map;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Size accounting of a [`CompressedPathStore`] compared against the
/// uncompressed per-entry B+tree representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionStats {
    /// Number of distinct label paths stored.
    pub paths: usize,
    /// Total number of `(source, target)` pairs across all paths (blocks and
    /// overlays combined).
    pub pairs: u64,
    /// Bytes of compressed block payload plus overlay side-tables (excluding
    /// the path keys).
    pub compressed_bytes: u64,
    /// Bytes the same data occupies as one B+tree entry per pair
    /// (`⟨path, source, target⟩` keys with empty values).
    pub uncompressed_bytes: u64,
}

impl CompressionStats {
    /// Compression ratio `uncompressed / compressed` (1.0 when empty).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.uncompressed_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// State of the delta overlay of a [`CompressedPathStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlayStats {
    /// Number of paths with a non-empty overlay side-table.
    pub overlaid_paths: usize,
    /// Total membership overrides across all overlays.
    pub overlay_entries: u64,
    /// Overlay size at which a path's block is rewritten.
    pub compaction_threshold: usize,
    /// Block rewrites performed so far.
    pub compactions: u64,
}

/// Per-pair membership override: `true` = present, `false` = deleted.
type Overlay = BTreeMap<(u32, u32), bool>;

/// A compressed, path-keyed store of the pair sets `p(G)` for `|p| ≤ k`.
#[derive(Debug, Clone)]
pub struct CompressedPathStore {
    k: usize,
    node_count: usize,
    per_path_counts: Vec<(Vec<SignedLabel>, u64)>,
    paths_k_size: u64,
    blocks: BTreeMap<Vec<u8>, Arc<Block>>,
    /// Membership overrides not yet folded into the blocks, keyed like
    /// `blocks` by the encoded path prefix.
    overlays: BTreeMap<Vec<u8>, Overlay>,
    compaction_threshold: usize,
    compactions: u64,
    inserts_applied: u64,
    deletes_applied: u64,
    /// Segments bypassed by source-fence checks on bound probes, shared
    /// across clones/reader views so it totals over the store's lineage.
    blocks_skipped: Arc<AtomicU64>,
}

/// Pairs stored per [`Segment`]: small enough that a bound probe decodes at
/// most a few hundred pairs, large enough that the per-segment fence/length
/// overhead stays negligible.
const SEGMENT_PAIRS: usize = 512;

/// One independently decodable slice of a block: the delta chain restarts at
/// every segment boundary, so a probe can skip straight to the segment whose
/// source fence covers it.
#[derive(Debug)]
struct Segment {
    bytes: Vec<u8>,
    /// Smallest source in the segment.
    min_src: u32,
    /// Largest source in the segment.
    max_src: u32,
}

#[derive(Debug)]
struct Block {
    /// Non-empty segments in ascending `(source, target)` order.
    segments: Vec<Segment>,
}

/// Segments a sorted pair list into independently decodable fenced slices.
fn encode_block(pairs: &[(u32, u32)]) -> Block {
    Block {
        segments: pairs
            .chunks(SEGMENT_PAIRS)
            .map(|chunk| Segment {
                bytes: encode_pairs(chunk),
                min_src: chunk[0].0,
                max_src: chunk[chunk.len() - 1].0,
            })
            .collect(),
    }
}

impl CompressedPathStore {
    /// Default overlay size past which a path's block is rewritten.
    pub const DEFAULT_COMPACTION_THRESHOLD: usize = 1024;

    /// Builds the store for every label path of length ≤ k over `graph`.
    pub fn build(graph: &Graph, k: usize) -> Self {
        let relations = enumerate_paths(graph, k);
        let paths_k_size = paths_k_cardinality(graph, &relations);
        let mut per_path_counts = Vec::with_capacity(relations.len());
        let mut blocks = BTreeMap::new();
        for rel in &relations {
            let mut pairs: Vec<(u32, u32)> = rel.pairs.iter().map(|(s, t)| (s.0, t.0)).collect();
            pairs.sort_unstable();
            pairs.dedup();
            per_path_counts.push((rel.path.clone(), pairs.len() as u64));
            blocks.insert(
                encode_path_prefix(&rel.path),
                Arc::new(encode_block(&pairs)),
            );
        }
        CompressedPathStore {
            k,
            node_count: graph.node_count(),
            per_path_counts,
            paths_k_size,
            blocks,
            overlays: BTreeMap::new(),
            compaction_threshold: Self::DEFAULT_COMPACTION_THRESHOLD,
            compactions: 0,
            inserts_applied: 0,
            deletes_applied: 0,
            blocks_skipped: Arc::default(),
        }
    }

    /// This store with a different overlay compaction threshold (clamped to
    /// ≥ 1): a path whose overlay reaches the threshold after a delta batch
    /// has its block rewritten and the overlay cleared.
    pub fn with_compaction_threshold(mut self, threshold: usize) -> Self {
        self.compaction_threshold = threshold.max(1);
        self
    }

    /// An immutable read view of the current state: blocks are shared, the
    /// (bounded) overlay side-tables are copied. This is the snapshot a live
    /// database publishes after each update batch; unlike the paged backend,
    /// views of the compressed store are fully isolated from later updates.
    pub fn reader_view(&self) -> CompressedPathStore {
        self.clone()
    }

    /// Number of nodes of the indexed graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The locality parameter the store was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of distinct label paths currently holding at least one pair.
    pub fn path_count(&self) -> usize {
        self.per_path_counts.len()
    }

    /// Decodes and returns `p(G)` in `(source, target)` order, or an empty
    /// vector when the path is not stored (unknown label or `|p| > k`).
    pub fn pairs(&self, path: &[SignedLabel]) -> Vec<(NodeId, NodeId)> {
        self.scan_prefix(&encode_path_prefix(path))
            .map(|(s, t)| (NodeId(s), NodeId(t)))
            .collect()
    }

    fn segments(&self, prefix: &[u8]) -> &[Segment] {
        self.blocks
            .get(prefix)
            .map(|b| b.segments.as_slice())
            .unwrap_or(&[])
    }

    /// Streaming scan of one path's pairs as raw `u32`s in `(source, target)`
    /// order (empty when the path is not stored): the block decode merged
    /// with the path's overlay on the fly.
    fn scan_prefix(&self, prefix: &[u8]) -> CompressedPairScan<'_> {
        static EMPTY_OVERLAY: Overlay = Overlay::new();
        let base = SegmentCursor::new(self.segments(prefix));
        let overlay = self.overlays.get(prefix).unwrap_or(&EMPTY_OVERLAY).iter();
        CompressedPairScan::new(base, overlay)
    }

    /// Targets reachable from `source` via `path`.
    ///
    /// Bound probes are the win for segmentation: every segment whose source
    /// fence excludes `source` is bypassed without decoding a byte (counted
    /// in [`Self::blocks_skipped`]); only covering segments are decoded, and
    /// the path's overlay range for `source` is merged on top.
    pub fn targets_from(&self, path: &[SignedLabel], source: NodeId) -> Vec<NodeId> {
        let prefix = encode_path_prefix(path);
        let mut out: Vec<u32> = Vec::new();
        for seg in self.segments(&prefix) {
            if seg.max_src < source.0 || seg.min_src > source.0 {
                self.blocks_skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            for (s, t) in PairDecoder::new(&seg.bytes) {
                if s > source.0 {
                    break;
                }
                if s == source.0 {
                    out.push(t);
                }
            }
        }
        if let Some(overlay) = self.overlays.get(&prefix) {
            for (&(_, t), &present) in overlay.range((source.0, 0)..=(source.0, u32::MAX)) {
                match out.binary_search(&t) {
                    Ok(i) if !present => {
                        out.remove(i);
                    }
                    Err(i) if present => {
                        out.insert(i, t);
                    }
                    _ => {}
                }
            }
        }
        out.into_iter().map(NodeId).collect()
    }

    /// Segments bypassed so far by bound-probe fence checks (totalled over
    /// this store's whole clone lineage).
    pub fn blocks_skipped(&self) -> u64 {
        self.blocks_skipped.load(Ordering::Relaxed)
    }

    /// Membership test for `(source, target) ∈ p(G)`.
    pub fn contains(&self, path: &[SignedLabel], source: NodeId, target: NodeId) -> bool {
        let pair = (source.0, target.0);
        if let Some(overlay) = self.overlays.get(&encode_path_prefix(path)) {
            if let Some(&present) = overlay.get(&pair) {
                return present;
            }
        }
        self.targets_from(path, source).contains(&target)
    }

    /// Folds `prefix`'s overlay into a freshly encoded block (or removes the
    /// path entirely when no pair survives) and clears the overlay.
    fn compact_prefix(&mut self, prefix: &[u8]) {
        let merged: Vec<(u32, u32)> = self.scan_prefix(prefix).collect();
        if merged.is_empty() {
            self.blocks.remove(prefix);
        } else {
            self.blocks
                .insert(prefix.to_vec(), Arc::new(encode_block(&merged)));
        }
        self.overlays.remove(prefix);
        self.compactions += 1;
    }

    /// State of the delta overlay (side-table sizes, compactions so far).
    pub fn overlay_stats(&self) -> OverlayStats {
        OverlayStats {
            overlaid_paths: self.overlays.len(),
            overlay_entries: self.overlays.values().map(|o| o.len() as u64).sum(),
            compaction_threshold: self.compaction_threshold,
            compactions: self.compactions,
        }
    }

    /// Size accounting versus the per-entry B+tree layout.
    pub fn stats(&self) -> CompressionStats {
        let mut pairs = 0u64;
        let mut compressed = 0u64;
        let mut uncompressed = 0u64;
        for (path, count) in &self.per_path_counts {
            pairs += count;
            // One B+tree entry per pair: the full composite key (path prefix
            // plus 8 bytes of node ids) with an empty value.
            uncompressed += count * (1 + 2 * path.len() as u64 + 8);
        }
        for (key, block) in &self.blocks {
            // Each segment carries its payload plus two 4-byte source fences.
            compressed += key.len() as u64
                + block
                    .segments
                    .iter()
                    .map(|s| s.bytes.len() as u64 + 8)
                    .sum::<u64>();
        }
        for overlay in self.overlays.values() {
            // One override costs a pair (8 bytes) plus the present flag.
            compressed += overlay.len() as u64 * 9;
        }
        CompressionStats {
            paths: self.per_path_counts.len(),
            pairs,
            compressed_bytes: compressed,
            uncompressed_bytes: uncompressed,
        }
    }
}

/// Sequential decode of a block's segment chain: the delta decoder restarts
/// at every segment boundary, yielding the block's pairs in order.
#[derive(Debug, Clone)]
struct SegmentCursor<'a> {
    segments: &'a [Segment],
    /// Index of the segment `cur` decodes.
    idx: usize,
    cur: PairDecoder<'a>,
}

/// A valid encoding of zero pairs, for cursors over empty segment lists.
static EMPTY_SEGMENT: &[u8] = &[0];

impl<'a> SegmentCursor<'a> {
    fn new(segments: &'a [Segment]) -> Self {
        let cur = PairDecoder::new(
            segments
                .first()
                .map(|s| s.bytes.as_slice())
                .unwrap_or(EMPTY_SEGMENT),
        );
        SegmentCursor {
            segments,
            idx: 0,
            cur,
        }
    }

    /// Advances to the next segment; `false` when the chain is exhausted.
    fn advance_segment(&mut self) -> bool {
        self.idx += 1;
        match self.segments.get(self.idx) {
            Some(seg) => {
                self.cur = PairDecoder::new(&seg.bytes);
                true
            }
            None => false,
        }
    }
}

impl Iterator for SegmentCursor<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        loop {
            if let Some(pair) = self.cur.next() {
                return Some(pair);
            }
            if !self.advance_segment() {
                return None;
            }
        }
    }
}

/// Batch-at-a-time decode of a segment chain straight into a [`PairBatch`],
/// used when a path has no overlay to merge.
struct SegmentBatchScan<'a> {
    cursor: SegmentCursor<'a>,
}

impl BatchScan for SegmentBatchScan<'_> {
    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        batch.clear();
        loop {
            self.cursor.cur.decode_into(batch);
            if batch.is_full() || !self.cursor.advance_segment() {
                return Ok(batch.len());
            }
        }
    }
}

/// Streaming merge of one path's block decode with its overlay side-table,
/// in ascending `(source, target)` order.
#[derive(Debug, Clone)]
struct CompressedPairScan<'a> {
    base: SegmentCursor<'a>,
    base_next: Option<(u32, u32)>,
    overlay: btree_map::Iter<'a, (u32, u32), bool>,
    overlay_next: Option<((u32, u32), bool)>,
}

impl<'a> CompressedPairScan<'a> {
    fn new(
        mut base: SegmentCursor<'a>,
        mut overlay: btree_map::Iter<'a, (u32, u32), bool>,
    ) -> Self {
        let base_next = base.next();
        let overlay_next = overlay.next().map(|(&p, &v)| (p, v));
        CompressedPairScan {
            base,
            base_next,
            overlay,
            overlay_next,
        }
    }
}

impl Iterator for CompressedPairScan<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        loop {
            match (self.base_next, self.overlay_next) {
                (None, None) => return None,
                // Only base pairs left (or the next base pair sorts first):
                // the block entry stands.
                (Some(bp), Some((op, _))) if bp < op => {
                    self.base_next = self.base.next();
                    return Some(bp);
                }
                (Some(bp), None) => {
                    self.base_next = self.base.next();
                    return Some(bp);
                }
                // The overlay overrides the block entry for the same pair.
                (Some(bp), Some((op, present))) if bp == op => {
                    self.base_next = self.base.next();
                    self.overlay_next = self.overlay.next().map(|(&p, &v)| (p, v));
                    if present {
                        return Some(op);
                    }
                }
                // Overlay-only pair: emit if present, skip tombstones for
                // pairs the block never held (added then removed again).
                (_, Some((op, present))) => {
                    self.overlay_next = self.overlay.next().map(|(&p, &v)| (p, v));
                    if present {
                        return Some(op);
                    }
                }
            }
        }
    }
}

/// The merged scan as a batch producer: overlaid paths fill the caller's
/// batch straight from the merge.
impl BatchScan for CompressedPairScan<'_> {
    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        batch.clear();
        while !batch.is_full() {
            let Some((s, t)) = self.next() else { break };
            batch.push((NodeId(s), NodeId(t)));
        }
        Ok(batch.len())
    }
}

/// Structural audit of the compressed layout: every segment decodes back to
/// a sorted slice whose source fences are exact (the fences are what bound
/// probes trust to skip segments), segment chains stay ascending and
/// disjoint, overlays stay under the compaction threshold a batch leaves
/// behind, and a merged scan of every path reproduces its advertised count.
impl StructuralAudit for CompressedPathStore {
    fn audit(&self, report: &mut AuditReport) {
        let names: BTreeMap<Vec<u8>, String> = self
            .per_path_counts
            .iter()
            .map(|(path, _)| (encode_path_prefix(path), format!("{path:?}")))
            .collect();
        let name = |prefix: &[u8]| {
            names
                .get(prefix)
                .cloned()
                .unwrap_or_else(|| format!("{prefix:02x?}"))
        };

        for (prefix, block) in &self.blocks {
            let mut prev_last: Option<(u32, u32)> = None;
            for (i, seg) in block.segments.iter().enumerate() {
                let loc = format!("{} seg {i}", name(prefix));
                let pairs: Vec<(u32, u32)> = PairDecoder::new(&seg.bytes).collect();
                report.check("segment-nonempty", &loc, !pairs.is_empty(), || {
                    "segment decodes to zero pairs".into()
                });
                if pairs.is_empty() {
                    continue;
                }
                report.check("segment-size", &loc, pairs.len() <= SEGMENT_PAIRS, || {
                    format!("{} pairs exceed the {SEGMENT_PAIRS}-pair cap", pairs.len())
                });
                let unsorted = pairs.windows(2).filter(|w| w[0] >= w[1]).count();
                report.check("segment-sorted", &loc, unsorted == 0, || {
                    format!("{unsorted} adjacent pair(s) out of order")
                });
                let min_src = pairs.iter().map(|&(s, _)| s).min().unwrap_or(0);
                let max_src = pairs.iter().map(|&(s, _)| s).max().unwrap_or(0);
                report.check(
                    "segment-fence-tight",
                    &loc,
                    seg.min_src == min_src && seg.max_src == max_src,
                    || {
                        format!(
                            "fence [{}, {}] but decoded sources span [{min_src}, {max_src}]",
                            seg.min_src, seg.max_src
                        )
                    },
                );
                if let Some(prev) = prev_last {
                    report.check("segment-disjoint", &loc, prev < pairs[0], || {
                        format!(
                            "first pair {:?} does not follow the previous segment's last {prev:?}",
                            pairs[0]
                        )
                    });
                }
                prev_last = Some(*pairs.last().unwrap());
            }
        }

        for (prefix, overlay) in &self.overlays {
            report.check(
                "overlay-bounded",
                &name(prefix),
                overlay.len() < self.compaction_threshold,
                || {
                    format!(
                        "{} override(s) at/over the compaction threshold {}",
                        overlay.len(),
                        self.compaction_threshold
                    )
                },
            );
        }

        for (path, count) in &self.per_path_counts {
            let prefix = encode_path_prefix(path);
            let loc = format!("{path:?}");
            let mut n = 0u64;
            let mut unsorted = 0usize;
            let mut prev: Option<(u32, u32)> = None;
            for pair in self.scan_prefix(&prefix) {
                if prev.is_some_and(|p| p >= pair) {
                    unsorted += 1;
                }
                prev = Some(pair);
                n += 1;
            }
            report.check("merged-scan-sorted", &loc, unsorted == 0, || {
                format!("{unsorted} adjacent merged pair(s) out of order")
            });
            report.check("counts-consistent", &loc, n == *count, || {
                format!("per_path_counts says {count} pair(s), a merged scan yields {n}")
            });
        }

        // A prefix stored outside per_path_counts must merge to nothing —
        // anything else is a path the statistics have lost track of.
        for prefix in self.blocks.keys().chain(self.overlays.keys()) {
            if !names.contains_key(prefix) {
                let n = self.scan_prefix(prefix).count();
                report.check("orphan-prefix", &format!("{prefix:02x?}"), n == 0, || {
                    format!("{n} pair(s) stored for a path missing from per_path_counts")
                });
            }
        }
    }
}

impl PathIndexBackend for CompressedPathStore {
    fn backend_name(&self) -> &'static str {
        "compressed"
    }

    fn k(&self) -> usize {
        self.k
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn scan_path_batches(&self, path: &[SignedLabel]) -> BackendResult<BackendBatchScan<'_>> {
        check_scan_path(self.backend_name(), self.k, path)?;
        let prefix = encode_path_prefix(path);
        if self.overlays.get(&prefix).is_none_or(Overlay::is_empty) {
            // No overrides to merge: decode segments straight into batches.
            Ok(Box::new(SegmentBatchScan {
                cursor: SegmentCursor::new(self.segments(&prefix)),
            }))
        } else {
            Ok(Box::new(self.scan_prefix(&prefix)))
        }
    }

    fn scan_path_from(&self, path: &[SignedLabel], source: NodeId) -> BackendResult<Vec<NodeId>> {
        check_scan_path(self.backend_name(), self.k, path)?;
        Ok(self.targets_from(path, source))
    }

    fn contains(
        &self,
        path: &[SignedLabel],
        source: NodeId,
        target: NodeId,
    ) -> BackendResult<bool> {
        check_scan_path(self.backend_name(), self.k, path)?;
        Ok(CompressedPathStore::contains(self, path, source, target))
    }

    fn per_path_counts(&self) -> &[(Vec<SignedLabel>, u64)] {
        &self.per_path_counts
    }

    fn paths_k_size(&self) -> u64 {
        self.paths_k_size
    }

    fn stats(&self) -> BackendStats {
        let s = CompressedPathStore::stats(self);
        BackendStats {
            backend: self.backend_name(),
            k: self.k,
            entries: s.pairs,
            distinct_paths: s.paths,
            paths_k_size: self.paths_k_size,
            approx_bytes: s.compressed_bytes,
        }
    }
}

impl MutablePathIndexBackend for CompressedPathStore {
    /// Replays the batch's key transitions into the per-path overlays,
    /// adopts the fresh statistics, and compacts every path whose overlay
    /// reached the configured threshold.
    fn apply_delta_batch(&mut self, batch: &DeltaBatch<'_>) -> BackendResult<()> {
        for (key, change) in batch.deltas.ops() {
            let (path, a, b) = decode_entry(key).ok_or_else(|| {
                BackendError::new("compressed", "malformed index key in delta batch")
            })?;
            let prefix = encode_path_prefix(&path);
            self.overlays
                .entry(prefix)
                .or_default()
                .insert((a.0, b.0), matches!(change, EntryChange::Added));
        }
        self.per_path_counts = batch.per_path_counts.to_vec();
        self.paths_k_size = batch.paths_k_size;
        self.node_count = batch.node_count;
        self.inserts_applied += batch.inserted_edges;
        self.deletes_applied += batch.deleted_edges;

        let due: Vec<Vec<u8>> = self
            .overlays
            .iter()
            .filter(|(_, overlay)| overlay.len() >= self.compaction_threshold)
            .map(|(prefix, _)| prefix.clone())
            .collect();
        for prefix in due {
            self.compact_prefix(&prefix);
        }
        Ok(())
    }

    fn updates_applied(&self) -> (u64, u64) {
        (self.inserts_applied, self.deletes_applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_datagen::paper_example_graph;
    use pathix_graph::{EdgeOp, SignedLabel};
    use pathix_index::{EntryDeltas, IncrementalKPathIndex, SharedKPathIndex};

    fn knows(g: &Graph) -> SignedLabel {
        SignedLabel::forward(g.label_id("knows").unwrap())
    }

    #[test]
    fn matches_the_uncompressed_index_on_the_paper_example() {
        let g = paper_example_graph();
        let k = 3;
        let index = SharedKPathIndex::build(&g, k);
        let store = CompressedPathStore::build(&g, k);
        assert_eq!(store.k(), k);
        assert_eq!(store.path_count(), index.per_path_counts().len());
        for (path, count) in index.per_path_counts() {
            let from_index: Vec<_> = index.scan_path(path).collect();
            let from_store = store.pairs(path);
            assert_eq!(from_index, from_store, "path {path:?}");
            assert_eq!(store.path_cardinality(path), Some(*count));
        }
    }

    #[test]
    fn lookup_shapes_match_example_31_semantics() {
        let g = paper_example_graph();
        let store = CompressedPathStore::build(&g, 2);
        let kn = knows(&g);
        let path = [kn, kn];
        let all = store.pairs(&path);
        assert!(!all.is_empty());
        let (src, dst) = all[0];
        assert!(store.targets_from(&path, src).contains(&dst));
        assert!(store.contains(&path, src, dst));
        // A node pair that is definitely absent.
        assert!(!store.contains(&path, NodeId(u32::MAX - 1), NodeId(0)));
    }

    #[test]
    fn unknown_paths_scan_empty() {
        let g = paper_example_graph();
        let store = CompressedPathStore::build(&g, 1);
        let kn = knows(&g);
        // Length 2 > k = 1 is not stored.
        assert!(store.pairs(&[kn, kn]).is_empty());
        assert_eq!(store.path_cardinality(&[kn, kn]), None);
    }

    #[test]
    fn compression_beats_the_per_entry_layout() {
        let g = paper_example_graph();
        let store = CompressedPathStore::build(&g, 3);
        let stats = store.stats();
        assert!(stats.pairs > 0);
        assert!(
            stats.compressed_bytes < stats.uncompressed_bytes,
            "compressed {} !< uncompressed {}",
            stats.compressed_bytes,
            stats.uncompressed_bytes
        );
        assert!(stats.ratio() > 1.0);
    }

    /// Applies `updates` through the shared counting rules and hands the
    /// resulting key deltas to the store, mirroring what `PathDb::apply`
    /// does per batch.
    fn apply_updates(
        store: &mut CompressedPathStore,
        oracle: &mut IncrementalKPathIndex,
        updates: &[EdgeOp],
    ) {
        let mut deltas = EntryDeltas::new();
        let mut inserted = 0;
        let mut deleted = 0;
        for &update in updates {
            if oracle.apply_logged(update, &mut deltas) {
                if update.insert {
                    inserted += 1;
                } else {
                    deleted += 1;
                }
            }
        }
        store
            .apply_delta_batch(&DeltaBatch {
                deltas: &deltas,
                per_path_counts: oracle.per_path_counts(),
                paths_k_size: oracle.paths_k_size(),
                node_count: oracle.node_count(),
                inserted_edges: inserted,
                deleted_edges: deleted,
                seq: 1,
            })
            .unwrap();
    }

    #[test]
    fn overlaid_store_answers_like_a_rebuild() {
        let g = paper_example_graph();
        let k = 2;
        let mut store = CompressedPathStore::build(&g, k);
        let mut oracle = IncrementalKPathIndex::bulk_from_graph(&g, k);

        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        let kim = g.node_id("kim").unwrap();
        let liz = g.node_id("liz").unwrap();
        let knows_l = g.label_id("knows").unwrap();
        let supervisor = g.label_id("supervisor").unwrap();
        let updates = [
            EdgeOp::insert(sue, knows_l, tim),
            EdgeOp::delete(kim, supervisor, liz),
        ];
        apply_updates(&mut store, &mut oracle, &updates);
        assert_eq!(store.updates_applied(), (1, 1));
        assert!(store.overlay_stats().overlay_entries > 0);

        let mut updated = g.clone();
        assert!(updated.insert_edge(sue, knows_l, tim));
        assert!(updated.remove_edge(kim, supervisor, liz));
        let rebuilt = CompressedPathStore::build(&updated, k);
        assert_eq!(store.path_count(), rebuilt.path_count());
        assert_eq!(
            PathIndexBackend::paths_k_size(&store),
            PathIndexBackend::paths_k_size(&rebuilt)
        );
        for (path, count) in rebuilt.per_path_counts.clone() {
            assert_eq!(store.pairs(&path), rebuilt.pairs(&path), "path {path:?}");
            assert_eq!(store.path_cardinality(&path), Some(count));
            for (s, t) in rebuilt.pairs(&path) {
                assert!(store.contains(&path, s, t));
                assert!(store.targets_from(&path, s).contains(&t));
            }
        }
        // Reader views stay pinned while the writer keeps going.
        let view = store.reader_view();
        apply_updates(
            &mut store,
            &mut oracle,
            &[EdgeOp::delete(sue, knows_l, tim)],
        );
        let kn = knows(&g);
        assert!(view.pairs(&[kn]).contains(&(sue, tim)));
        assert!(!store.pairs(&[kn]).contains(&(sue, tim)));
    }

    #[test]
    fn compaction_folds_overlays_into_blocks_past_the_threshold() {
        let g = paper_example_graph();
        let mut store = CompressedPathStore::build(&g, 2).with_compaction_threshold(1);
        let mut oracle = IncrementalKPathIndex::bulk_from_graph(&g, 2);
        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        let knows_l = g.label_id("knows").unwrap();
        apply_updates(
            &mut store,
            &mut oracle,
            &[EdgeOp::insert(sue, knows_l, tim)],
        );
        let stats = store.overlay_stats();
        assert_eq!(
            stats.overlay_entries, 0,
            "threshold 1 must compact every touched path"
        );
        assert!(stats.compactions > 0);
        assert_eq!(stats.compaction_threshold, 1);
        // The compacted blocks carry the update.
        let kn = knows(&g);
        assert!(store.pairs(&[kn]).contains(&(sue, tim)));
        // Deleting every pair of a path through compaction drops its block.
        let blocks_with_path = store.blocks.len();
        let deletions: Vec<EdgeOp> = g
            .labels()
            .flat_map(|l| g.edges(l).map(move |(s, d)| (s, l, d)))
            .map(|(src, label, dst)| EdgeOp::delete(src, label, dst))
            .chain(std::iter::once(EdgeOp::delete(sue, knows_l, tim)))
            .collect();
        apply_updates(&mut store, &mut oracle, &deletions);
        assert_eq!(store.path_count(), 0);
        assert!(store.blocks.len() < blocks_with_path);
        assert!(
            store.blocks.is_empty(),
            "empty paths must drop their blocks"
        );
    }

    #[test]
    fn multi_segment_blocks_round_trip_and_fence_probes() {
        // A single-label chain with several segments' worth of pairs.
        let mut b = pathix_graph::GraphBuilder::new();
        let n = 3 * SEGMENT_PAIRS as u32;
        for i in 0..n {
            b.add_edge_named(&format!("n{i}"), "l", &format!("n{}", i + 1));
        }
        let g = b.build();
        let store = CompressedPathStore::build(&g, 1);
        let path = [SignedLabel::forward(g.label_id("l").unwrap())];
        let prefix = encode_path_prefix(&path);
        let segments = store.segments(&prefix).len();
        assert!(segments >= 3, "need several segments, got {segments}");

        // Full decode matches the chain.
        assert_eq!(store.pairs(&path).len(), n as usize);
        // A bound probe decodes only the covering segment and counts the
        // bypassed ones.
        let before = store.blocks_skipped();
        let src = g.node_id("n0").unwrap();
        assert_eq!(
            store.targets_from(&path, src),
            vec![g.node_id("n1").unwrap()]
        );
        assert_eq!(
            store.blocks_skipped() - before,
            segments as u64 - 1,
            "all but one segment must be fence-skipped"
        );
    }

    #[test]
    fn batched_scan_matches_streaming_with_and_without_overlay() {
        let g = paper_example_graph();
        let mut store = CompressedPathStore::build(&g, 2);
        let mut oracle = IncrementalKPathIndex::bulk_from_graph(&g, 2);
        let drain = |store: &CompressedPathStore, path: &[SignedLabel]| {
            let mut scan = PathIndexBackend::scan_path_batches(store, path).unwrap();
            let mut batch = PairBatch::with_capacity(5);
            let mut out = Vec::new();
            while scan.next_batch(&mut batch).unwrap() > 0 {
                out.extend(batch.iter());
            }
            out
        };
        let check = |store: &CompressedPathStore| {
            for (path, _) in store.per_path_counts.clone() {
                let streamed: Vec<_> = store.pairs(&path);
                assert_eq!(drain(store, &path), streamed, "path {path:?}");
            }
        };
        check(&store);
        // Un-compacted overlays force the merged fallback path.
        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        apply_updates(
            &mut store,
            &mut oracle,
            &[EdgeOp::insert(sue, g.label_id("knows").unwrap(), tim)],
        );
        assert!(store.overlay_stats().overlay_entries > 0);
        check(&store);
    }

    #[test]
    fn merged_batch_scan_across_a_segment_boundary_equals_a_rebuild() {
        // l(G) is a chain of three segments; m has no edge (hence no block)
        // until the batch below.
        let mut b = pathix_graph::GraphBuilder::new();
        let n = 3 * SEGMENT_PAIRS as u32;
        for i in 0..n {
            b.add_edge_named(&format!("n{i}"), "l", &format!("n{}", i + 1));
        }
        b.add_label("m");
        let g = b.build();
        let (l, m) = (g.label_id("l").unwrap(), g.label_id("m").unwrap());
        let mut store = CompressedPathStore::build(&g, 1);
        let mut oracle = IncrementalKPathIndex::bulk_from_graph(&g, 1);
        let born = encode_path_prefix(&[SignedLabel::forward(m)]);
        assert!(!store.blocks.contains_key(&born));

        // Around the first segment boundary (source 512): tombstones for
        // block pairs, overlay-only pairs between and after them, plus the
        // first pairs of a path born in the overlay.
        let edge = SEGMENT_PAIRS as u32;
        let mut updates = Vec::new();
        let mut updated = g.clone();
        for i in (edge - 4..edge + 4).map(NodeId) {
            let next = NodeId(i.0 + 1);
            updates.push(EdgeOp::delete(i, l, next));
            assert!(updated.remove_edge(i, l, next));
        }
        for i in (edge - 8..edge + 8).step_by(2).map(NodeId) {
            let far = NodeId(i.0 + 7);
            updates.extend([EdgeOp::insert(i, l, far), EdgeOp::insert(far, m, i)]);
            assert!(updated.insert_edge(i, l, far) && updated.insert_edge(far, m, i));
        }
        apply_updates(&mut store, &mut oracle, &updates);
        assert!(
            store.overlay_stats().overlaid_paths >= 4,
            "nothing compacted"
        );
        assert!(!store.blocks.contains_key(&born));

        let rebuilt = CompressedPathStore::build(&updated, 1);
        assert_eq!(store.per_path_counts(), rebuilt.per_path_counts());
        for (path, count) in rebuilt.per_path_counts() {
            for capacity in [1, 100, SEGMENT_PAIRS - 1] {
                let mut scan = store.scan_path_batches(path).unwrap();
                let mut batch = PairBatch::with_capacity(capacity);
                let mut merged = Vec::new();
                while scan.next_batch(&mut batch).unwrap() > 0 {
                    assert!(batch.len() <= capacity);
                    merged.extend(batch.iter());
                }
                assert_eq!(scan.next_batch(&mut batch).unwrap(), 0, "sticky end");
                assert_eq!(merged, rebuilt.pairs(path), "{path:?} at {capacity}");
                assert_eq!(merged.len() as u64, *count);
            }
        }
    }

    #[test]
    fn paths_born_from_updates_scan_without_a_base_block() {
        // k = 2 over a single edge: inserting a second edge creates label
        // paths that had no pairs (hence no block) at build time.
        let mut b = pathix_graph::GraphBuilder::new();
        b.add_edge_named("a", "l", "b");
        b.add_node("c");
        let g = b.build();
        let mut store = CompressedPathStore::build(&g, 2);
        let mut oracle = IncrementalKPathIndex::bulk_from_graph(&g, 2);
        let l = g.label_id("l").unwrap();
        let bb = g.node_id("b").unwrap();
        let cc = g.node_id("c").unwrap();
        apply_updates(&mut store, &mut oracle, &[EdgeOp::insert(bb, l, cc)]);
        let fwd = SignedLabel::forward(l);
        let aa = g.node_id("a").unwrap();
        assert_eq!(store.pairs(&[fwd, fwd]), vec![(aa, cc)]);
        assert_eq!(store.path_cardinality(&[fwd, fwd]), Some(1));
    }

    /// Names of the invariants a full audit of `store` finds violated.
    fn violated(store: &CompressedPathStore) -> Vec<&'static str> {
        let mut report = AuditReport::new();
        report.run("compressed", store);
        report.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn audit_is_clean_after_build_updates_and_compaction() {
        let g = paper_example_graph();
        let mut store = CompressedPathStore::build(&g, 2).with_compaction_threshold(3);
        let mut oracle = IncrementalKPathIndex::bulk_from_graph(&g, 2);
        assert!(violated(&store).is_empty(), "freshly built store");

        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        let kim = g.node_id("kim").unwrap();
        let liz = g.node_id("liz").unwrap();
        let knows_l = g.label_id("knows").unwrap();
        let supervisor = g.label_id("supervisor").unwrap();
        let scripts: [&[EdgeOp]; 3] = [
            &[EdgeOp::insert(sue, knows_l, tim)],
            &[EdgeOp::delete(kim, supervisor, liz)],
            &[
                EdgeOp::delete(sue, knows_l, tim),
                EdgeOp::insert(kim, supervisor, liz),
            ],
        ];
        for (i, updates) in scripts.iter().enumerate() {
            apply_updates(&mut store, &mut oracle, updates);
            assert!(violated(&store).is_empty(), "after batch {i}");
        }
    }

    #[test]
    fn seeded_corruption_trips_the_segment_auditors() {
        let g = paper_example_graph();
        let clean = CompressedPathStore::build(&g, 2);
        let fat = clean
            .blocks
            .iter()
            .max_by_key(|(_, b)| b.segments.len())
            .map(|(p, _)| p.clone())
            .unwrap();

        // A fence that excludes sources the segment actually holds: bound
        // probes would silently skip them.
        let mut store = clean.clone();
        let block = store.blocks.get(&fat).unwrap();
        let segments = block
            .segments
            .iter()
            .map(|s| Segment {
                bytes: s.bytes.clone(),
                min_src: s.min_src + 1,
                max_src: s.max_src,
            })
            .collect();
        store
            .blocks
            .insert(fat.clone(), Arc::new(Block { segments }));
        assert!(violated(&store).contains(&"segment-fence-tight"));

        // Statistics that disagree with a merged scan.
        let mut store = clean.clone();
        store.per_path_counts[0].1 += 1;
        assert!(violated(&store).contains(&"counts-consistent"));

        // An overlay that should have been compacted away.
        let mut store = clean.clone().with_compaction_threshold(2);
        let overlay = store.overlays.entry(fat.clone()).or_default();
        overlay.insert((u32::MAX - 1, 0), true);
        overlay.insert((u32::MAX - 1, 1), true);
        assert!(violated(&store).contains(&"overlay-bounded"));

        // A pair surviving under a path the statistics no longer list.
        let mut store = clean.clone();
        let dropped = store.per_path_counts.remove(0);
        assert!(dropped.1 > 0, "need a non-empty path to orphan");
        assert!(violated(&store).contains(&"orphan-prefix"));
    }
}
