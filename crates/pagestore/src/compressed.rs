//! The compressed backend: the memory backend's index in delta/varint chunks.
//!
//! The paper's companion work (reference \[14\]) investigates the *size* of a
//! from-scratch path index and how far compression can shrink it. This
//! module is this repository's answer, and it is small because the layout is
//! not its own: a [`CompressedPathStore`] is a [`SharedKPathIndex`] whose
//! runs store each chunk in the [`Varint`] encoding ([`crate::varint::encode_pairs`]: source
//! deltas and same-source target gaps as LEB128 varints, the delta chain
//! restarting per chunk) instead of as a plain pair `Vec`. Chunk cutting,
//! fences, the per-run source bloom, bound-probe chunk skipping, the
//! O(Δ · chunk) publish of `PairRun::apply` with every untouched chunk
//! re-shared by `Arc`, and the structural audit are the memory backend's own
//! code.
//!
//! The trade-off mirrors the one studied there: an encoded chunk takes about
//! a quarter of the plain pairs' bytes (and far less than one B+tree key per
//! pair), but every read decodes it — a scan decodes each chunk, a bound
//! probe the chunks its fences admit, and a publish re-encodes the chunks it
//! rebuilds.

use crate::varint::{decode_pairs, encode_sorted, PairDecoder};
use pathix_graph::{ChunkCodec, NodeId};
use pathix_index::SharedKPathIndex;

/// The k-path index over delta/varint chunks — what
/// `BackendChoice::Compressed` builds.
pub type CompressedPathStore = SharedKPathIndex<Varint>;

/// The delta/varint chunk encoding: each chunk is one independently
/// decodable [`crate::varint`] block.
#[derive(Debug, Clone, Copy, Default)]
pub struct Varint;

impl ChunkCodec for Varint {
    type Chunk = Vec<u8>;
    const BACKEND: &'static str = "compressed";

    fn encode(pairs: Vec<(NodeId, NodeId)>) -> Vec<u8> {
        encode_sorted(pairs.len(), pairs.iter().map(|&(s, t)| (s.0, t.0)))
    }

    fn pairs<'a>(
        chunk: &'a Vec<u8>,
        scratch: &'a mut Vec<(NodeId, NodeId)>,
    ) -> &'a [(NodeId, NodeId)] {
        let decoder = PairDecoder::new(chunk);
        scratch.clear();
        // A pair takes at least two bytes, whatever a corrupt header claims.
        scratch.reserve(decoder.remaining().min(chunk.len() / 2));
        scratch.extend(decoder.map(|(s, t)| (NodeId(s), NodeId(t))));
        scratch
    }

    /// The encoded bytes plus the chunk's 16-byte `(first, last)` fence.
    fn footprint(chunk: &Vec<u8>) -> usize {
        chunk.len() + std::mem::size_of::<[(NodeId, NodeId); 2]>()
    }

    fn decodes(chunk: &Vec<u8>) -> bool {
        decode_pairs(chunk).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_audit::{AuditReport, StructuralAudit};
    use pathix_datagen::paper_example_graph;
    use pathix_graph::{EdgeOp, Graph, GraphBuilder, PairRun, Plain, SignedLabel};
    use pathix_index::backend::{DeltaBatch, MutablePathIndexBackend, PairBatch, PathIndexBackend};
    use pathix_index::{apply_op, EntryDeltas};
    use std::sync::Arc;

    type Pair = (NodeId, NodeId);

    /// `PairRun`'s bound on the pairs of one chunk; built runs are cut at
    /// half of it.
    const CHUNK_MAX: u32 = 512;

    fn knows(g: &Graph) -> SignedLabel {
        SignedLabel::forward(g.label_id("knows").unwrap())
    }

    /// A single-label chain `n0 -l-> n1 -l-> … -l-> n{len}`.
    fn chain_graph(len: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..len {
            b.add_edge_named(&format!("n{i}"), "l", &format!("n{}", i + 1));
        }
        b.build()
    }

    /// Applies `updates` through the rederivation rule and hands the
    /// resulting key deltas to the store, mirroring what `PathDb::apply`
    /// does per batch.
    fn apply_updates<C: ChunkCodec>(
        store: &mut SharedKPathIndex<C>,
        k: usize,
        graph: &mut Graph,
        updates: &[EdgeOp],
    ) {
        let mut deltas = EntryDeltas::new();
        for &update in updates {
            apply_op(graph, k, update, &mut deltas);
        }
        store
            .apply_delta_batch(&DeltaBatch {
                deltas: &deltas,
                node_count: graph.node_count(),
                seq: 1,
            })
            .unwrap();
    }

    /// Names of the invariants a full audit of `store` finds violated.
    fn violated(store: &impl StructuralAudit) -> Vec<&'static str> {
        let mut report = AuditReport::new();
        report.run("compressed", store);
        report.violations().iter().map(|v| v.invariant).collect()
    }

    /// Every path of `store` answers like `rebuilt` (a store built from
    /// scratch on the same graph): counts, scans, both probe shapes.
    fn assert_answers_like(store: &CompressedPathStore, rebuilt: &CompressedPathStore) {
        assert_eq!(store.per_path_counts(), rebuilt.per_path_counts());
        for (path, count) in rebuilt.per_path_counts() {
            let pairs = rebuilt.collect_path(path).unwrap();
            assert_eq!(store.collect_path(path).unwrap(), pairs, "path {path:?}");
            assert_eq!(store.path_cardinality(path), Some(*count));
            for &(s, t) in &pairs {
                assert!(store.contains(path, s, t), "{path:?} ({s:?}, {t:?})");
                assert_eq!(
                    store.scan_path_from(path, s),
                    rebuilt.scan_path_from(path, s)
                );
            }
        }
    }

    /// A batch that empties a path drops its run and its count row; a later
    /// batch that fills it again brings both back in `(length, path)` order.
    /// The publish is the same code in both chunk encodings.
    fn an_emptied_path_drops_its_run_and_a_refill_restores_it_in<C: ChunkCodec>() {
        let g = paper_example_graph();
        let built = SharedKPathIndex::<C>::build_in(&g, 2);
        let mut index = built.clone();
        let mut graph = g.clone();
        let supervisor = g.label_id("supervisor").unwrap();
        let edges: Vec<(NodeId, NodeId)> = g.edges(supervisor).collect();
        let ops = |insert| -> Vec<EdgeOp> {
            edges
                .iter()
                .map(|&(s, d)| EdgeOp {
                    insert,
                    ..EdgeOp::insert(s, supervisor, d)
                })
                .collect()
        };
        let sup = [SignedLabel::forward(supervisor)];
        assert!(index.path_cardinality(&sup).is_some());

        apply_updates(&mut index, 2, &mut graph, &ops(false));
        assert_eq!(graph.edges(supervisor).count(), 0);
        assert_eq!(index.path_cardinality(&sup), None);
        assert!(index.relation(&sup).is_none());
        assert!(index
            .per_path_counts()
            .iter()
            .all(|(path, _)| path.iter().all(|step| step.label != supervisor)));
        let emptied = SharedKPathIndex::<C>::build_in(&graph, 2);
        assert_eq!(index.per_path_counts(), emptied.per_path_counts());
        assert_eq!(index.stats().entries, emptied.stats().entries);
        assert_eq!(violated(&index), Vec::<&str>::new(), "after emptying");

        apply_updates(&mut index, 2, &mut graph, &ops(true));
        let counts = index.per_path_counts();
        assert_eq!(counts, built.per_path_counts());
        assert!(counts
            .windows(2)
            .all(|w| (w[0].0.len(), &w[0].0) < (w[1].0.len(), &w[1].0)));
        for (path, _) in counts {
            assert_eq!(
                index.collect_path(path),
                built.collect_path(path),
                "{path:?}"
            );
        }
        assert_eq!(violated(&index), Vec::<&str>::new(), "after refilling");
    }

    #[test]
    fn an_emptied_path_drops_its_run_and_a_refill_restores_it() {
        an_emptied_path_drops_its_run_and_a_refill_restores_it_in::<Plain>();
        an_emptied_path_drops_its_run_and_a_refill_restores_it_in::<Varint>();
    }

    #[test]
    fn matches_the_uncompressed_index_on_the_paper_example() {
        let g = paper_example_graph();
        let k = 3;
        let index = SharedKPathIndex::build(&g, k);
        let store = CompressedPathStore::build_in(&g, k);
        assert_eq!(store.k(), k);
        assert_eq!(store.path_count(), index.per_path_counts().len());
        assert_eq!(store.per_path_counts(), index.per_path_counts());
        for (path, count) in index.per_path_counts() {
            let from_index: Vec<_> = index.scan_path(path).collect();
            assert_eq!(store.collect_path(path).unwrap(), from_index, "{path:?}");
            assert_eq!(store.path_cardinality(path), Some(*count));
        }
        // Same chunk boundaries as the plain index, chunk for chunk.
        assert_eq!(store.chunk_count(), index.chunk_count());
    }

    #[test]
    fn lookup_shapes_match_example_31_semantics() {
        let g = paper_example_graph();
        let store = CompressedPathStore::build_in(&g, 2);
        let kn = knows(&g);
        let path = [kn, kn];
        let all = store.collect_path(&path).unwrap();
        assert!(!all.is_empty());
        let (src, dst) = all[0];
        assert!(store.scan_path_from(&path, src).contains(&dst));
        assert!(store.contains(&path, src, dst));
        // A node pair that is definitely absent.
        assert!(!store.contains(&path, NodeId(u32::MAX - 1), NodeId(0)));
    }

    #[test]
    fn unknown_paths_scan_empty() {
        let g = paper_example_graph();
        let store = CompressedPathStore::build_in(&g, 1);
        let kn = knows(&g);
        // Length 2 > k = 1 is not stored.
        assert!(store.relation(&[kn, kn]).is_none());
        assert_eq!(store.path_cardinality(&[kn, kn]), None);
        let unknown = [SignedLabel::forward(pathix_graph::LabelId(99))];
        assert!(store.collect_path(&unknown).unwrap().is_empty());
        assert!(store.scan_path_from(&unknown, NodeId(0)).is_empty());
    }

    #[test]
    fn compression_beats_the_per_entry_layout() {
        let g = paper_example_graph();
        let store = CompressedPathStore::build_in(&g, 3);
        let stats = store.stats();
        assert!(stats.entries > 0);
        // One B+tree entry per pair: the full composite key (path prefix
        // plus 8 bytes of node ids) with an empty value.
        let per_entry: u64 = store
            .per_path_counts()
            .iter()
            .map(|(path, count)| count * (1 + 2 * path.len() as u64 + 8))
            .sum();
        assert!(
            stats.approx_bytes < per_entry,
            "compressed {} !< per-entry {per_entry}",
            stats.approx_bytes
        );
        let plain = SharedKPathIndex::build(&g, 3).stats();
        assert_eq!(plain.approx_bytes, 8 * plain.entries);
        assert!(stats.approx_bytes < plain.approx_bytes);
    }

    #[test]
    fn overlaid_store_answers_like_a_rebuild() {
        // "Overlaid": batches applied on top of the build.
        let g = paper_example_graph();
        let k = 2;
        let mut store = CompressedPathStore::build_in(&g, k);
        let mut graph = g.clone();

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
        apply_updates(&mut store, k, &mut graph, &updates);
        let one = |label| [SignedLabel::forward(label)];
        assert!(store.contains(&one(knows_l), sue, tim));
        assert!(!store.contains(&one(supervisor), kim, liz));

        let mut updated = g.clone();
        assert!(updated.insert_edge(sue, knows_l, tim));
        assert!(updated.remove_edge(kim, supervisor, liz));
        assert_answers_like(&store, &CompressedPathStore::build_in(&updated, k));

        // Reader views stay pinned while the writer keeps going.
        let view = store.reader_view();
        apply_updates(
            &mut store,
            k,
            &mut graph,
            &[EdgeOp::delete(sue, knows_l, tim)],
        );
        let kn = knows(&g);
        assert!(view.contains(&[kn], sue, tim));
        assert!(!store.contains(&[kn], sue, tim));
    }

    #[test]
    fn multi_segment_blocks_round_trip_and_fence_probes() {
        // A single-label chain whose relation spans several chunks (the
        // compressed store's "segments").
        let n = 3 * CHUNK_MAX;
        let g = chain_graph(n);
        let store = CompressedPathStore::build_in(&g, 1);
        let path = [SignedLabel::forward(g.label_id("l").unwrap())];
        let chunks = store.relation(&path).unwrap().chunks().len();
        assert!(chunks >= 3, "need several chunks, got {chunks}");

        assert_eq!(store.collect_path(&path).unwrap().len(), n as usize);
        // A bound probe decodes only the covering chunk and counts the
        // bypassed ones.
        let before = store.chunks_skipped();
        let src = g.node_id("n0").unwrap();
        assert_eq!(
            store.scan_path_from(&path, src),
            vec![g.node_id("n1").unwrap()]
        );
        assert_eq!(
            store.chunks_skipped() - before,
            chunks as u64 - 1,
            "all but one chunk must be fence-skipped"
        );
    }

    #[test]
    fn batched_scan_matches_streaming_before_and_after_a_batch() {
        let g = paper_example_graph();
        let mut store = CompressedPathStore::build_in(&g, 2);
        let mut graph = g.clone();
        let check = |store: &CompressedPathStore, graph: &Graph| {
            let memory = SharedKPathIndex::build(graph, 2);
            for (path, _) in memory.per_path_counts() {
                let mut scan = store.scan_path_batches(path).unwrap();
                let mut batch = PairBatch::with_capacity(5);
                let mut drained = Vec::new();
                while scan.next_batch(&mut batch).unwrap() > 0 {
                    drained.extend(batch.iter());
                }
                let streamed: Vec<_> = memory.scan_path(path).collect();
                assert_eq!(drained, streamed, "path {path:?}");
            }
        };
        check(&store, &g);
        let sue = g.node_id("sue").unwrap();
        let tim = g.node_id("tim").unwrap();
        let knows_l = g.label_id("knows").unwrap();
        apply_updates(
            &mut store,
            2,
            &mut graph,
            &[EdgeOp::insert(sue, knows_l, tim)],
        );
        let mut updated = g.clone();
        assert!(updated.insert_edge(sue, knows_l, tim));
        check(&store, &updated);
    }

    #[test]
    fn merged_batch_scan_across_a_segment_boundary_equals_a_rebuild() {
        // l(G) is a chain of several chunks; m has no edge (hence no run)
        // until the batch below.
        let mut b = GraphBuilder::new();
        for i in 0..3 * CHUNK_MAX {
            b.add_edge_named(&format!("n{i}"), "l", &format!("n{}", i + 1));
        }
        b.add_label("m");
        let g = b.build();
        let (l, m) = (g.label_id("l").unwrap(), g.label_id("m").unwrap());
        let mut store = CompressedPathStore::build_in(&g, 1);
        let mut graph = g.clone();
        let born = [SignedLabel::forward(m)];
        assert!(store.relation(&born).is_none());

        // Around the first chunk boundary (source 256): removals of stored
        // pairs, insertions between and after them, plus the first pairs of
        // a path born in the batch.
        let edge = CHUNK_MAX / 2;
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
        apply_updates(&mut store, 1, &mut graph, &updates);
        assert!(store.relation(&born).is_some());
        assert_eq!(violated(&store), Vec::<&str>::new());

        let rebuilt = CompressedPathStore::build_in(&updated, 1);
        assert_eq!(store.per_path_counts(), rebuilt.per_path_counts());
        for (path, count) in rebuilt.per_path_counts() {
            for capacity in [1, 100, CHUNK_MAX as usize - 1] {
                let mut scan = store.scan_path_batches(path).unwrap();
                let mut batch = PairBatch::with_capacity(capacity);
                let mut merged = Vec::new();
                while scan.next_batch(&mut batch).unwrap() > 0 {
                    assert!(batch.len() <= capacity);
                    merged.extend(batch.iter());
                }
                assert_eq!(scan.next_batch(&mut batch).unwrap(), 0, "sticky end");
                assert_eq!(
                    merged,
                    rebuilt.collect_path(path).unwrap(),
                    "{path:?} at {capacity}"
                );
                assert_eq!(merged.len() as u64, *count);
            }
        }
    }

    #[test]
    fn paths_born_from_updates_scan_without_a_base_block() {
        // k = 2 over a single edge: inserting a second edge creates label
        // paths that had no pairs (hence no run) at build time.
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "l", "b");
        b.add_node("c");
        let g = b.build();
        let mut store = CompressedPathStore::build_in(&g, 2);
        let mut graph = g.clone();
        let l = g.label_id("l").unwrap();
        let (aa, bb, cc) = (
            g.node_id("a").unwrap(),
            g.node_id("b").unwrap(),
            g.node_id("c").unwrap(),
        );
        apply_updates(&mut store, 2, &mut graph, &[EdgeOp::insert(bb, l, cc)]);
        let fwd = SignedLabel::forward(l);
        assert_eq!(store.collect_path(&[fwd, fwd]).unwrap(), vec![(aa, cc)]);
        assert_eq!(store.path_cardinality(&[fwd, fwd]), Some(1));

        // Deleting every edge empties every path: no run, no chunk is left.
        apply_updates(
            &mut store,
            2,
            &mut graph,
            &[EdgeOp::delete(aa, l, bb), EdgeOp::delete(bb, l, cc)],
        );
        assert_eq!((store.path_count(), store.chunk_count()), (0, 0));
        assert_eq!(violated(&store), Vec::<&str>::new());
    }

    #[test]
    fn audit_is_clean_after_build_updates_and_compaction() {
        // "Compaction": the re-cut and coalescing of rebuilt chunks.
        let g = paper_example_graph();
        let mut store = CompressedPathStore::build_in(&g, 2);
        let mut graph = g.clone();
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
            apply_updates(&mut store, 2, &mut graph, updates);
            assert!(violated(&store).is_empty(), "after batch {i}");
        }
    }

    #[test]
    fn a_publish_reshares_untouched_chunks_and_earlier_views_stay_put() {
        // A long chain label (many chunks) beside a short one.
        let mut b = GraphBuilder::new();
        for i in 0..4 * CHUNK_MAX {
            b.add_edge_named(&format!("n{i}"), "l", &format!("n{}", i + 1));
        }
        b.add_edge_named("n0", "m", "n1");
        let g = b.build();
        let (l, m) = (g.label_id("l").unwrap(), g.label_id("m").unwrap());
        let chain = [SignedLabel::forward(l)];
        let mut store = CompressedPathStore::build_in(&g, 1);
        let mut graph = g.clone();

        // Every view with its complete answer at the time it was taken.
        type Answers = Vec<(Vec<Pair>, Vec<Vec<NodeId>>)>;
        let answers = |store: &CompressedPathStore| -> Answers {
            store
                .per_path_counts()
                .iter()
                .map(|(path, _)| {
                    let targets = (0..=4 * CHUNK_MAX + 1)
                        .step_by(37)
                        .map(|s| store.scan_path_from(path, NodeId(s)))
                        .collect();
                    (store.collect_path(path).unwrap(), targets)
                })
                .collect()
        };
        let mut views = vec![(store.reader_view(), answers(&store))];
        let batches = [
            vec![EdgeOp::insert(NodeId(700), l, NodeId(5))],
            vec![EdgeOp::delete(NodeId(1500), l, NodeId(1501))],
            vec![EdgeOp::insert(NodeId(3), m, NodeId(9))],
        ];
        for (i, batch) in batches.iter().enumerate() {
            let before = store.relation(&chain).unwrap().clone();
            let chunks_before = store.chunk_count();
            apply_updates(&mut store, 1, &mut graph, batch);
            let after = store.relation(&chain).unwrap();
            let shared = after
                .chunks()
                .iter()
                .filter(|c| before.chunks().iter().any(|o| Arc::ptr_eq(o, c)))
                .count();
            // The edge lands in one chunk of its label's run and one of the
            // converse run; every other chunk is re-shared by pointer.
            let touched = usize::from(i < 2);
            assert_eq!(shared, before.chunks().len() - touched, "batch {i}");
            let publish = store.last_publish_stats();
            assert_eq!(
                (publish.runs_rebuilt, publish.chunks_rebuilt),
                (2, 2),
                "batch {i}: {publish:?}"
            );
            assert_eq!(
                (publish.runs_shared, publish.chunks_shared),
                (2, chunks_before - 2),
                "batch {i}: {publish:?}"
            );
            views.push((store.reader_view(), answers(&store)));
            for (j, (view, answered)) in views.iter().enumerate() {
                assert_eq!(&answers(view), answered, "view {j} after batch {i}");
                assert_eq!(violated(view), Vec::<&str>::new(), "view {j}");
            }
        }
    }

    #[test]
    fn seeded_corruption_trips_chunk_decodable() {
        let pairs: Vec<Pair> = (0..CHUNK_MAX + 88)
            .map(|i| (NodeId(i / 3), NodeId(i)))
            .collect();
        let run = PairRun::<Varint>::from_sorted_in(pairs);
        let mut report = AuditReport::new();
        run.audit("run", &mut report);
        report.assert_clean("freshly cut varint run");

        // Truncated bytes: the chunk announces more pairs than it holds. The
        // audit reports it rather than panicking on the short decode.
        let mut chunks: Vec<Vec<u8>> = run.chunks().iter().map(|c| c.to_vec()).collect();
        let half = chunks[1].len() / 2;
        chunks[1].truncate(half);
        let truncated = PairRun::<Varint>::from_chunks_unchecked(chunks.clone());
        let mut report = AuditReport::new();
        truncated.audit("run", &mut report);
        let found: Vec<_> = report.violations().iter().map(|v| v.invariant).collect();
        assert!(found.contains(&"chunk-decodable"), "{found:?}");

        // Trailing bytes decode fine as a prefix, yet are not a valid chunk.
        chunks[1] = run.chunks()[1].to_vec();
        chunks[1].push(0);
        let trailing = PairRun::<Varint>::from_chunks_unchecked(chunks);
        let mut report = AuditReport::new();
        trailing.audit("run", &mut report);
        let found: Vec<_> = report.violations().iter().map(|v| v.invariant).collect();
        assert_eq!(found, ["chunk-decodable"]);
    }

    /// Every pair of `run`, decoded chunk by chunk.
    fn pairs_of<C: ChunkCodec>(run: &PairRun<C>) -> Vec<Pair> {
        let mut scratch = Vec::new();
        run.chunks()
            .iter()
            .flat_map(|c| C::pairs(c, &mut scratch).to_vec())
            .collect()
    }

    fn chain(n: u32) -> Vec<Pair> {
        (0..n).map(|i| (NodeId(i), NodeId(i + 1))).collect()
    }

    fn apply_shares_untouched_chunks_in<C: ChunkCodec>() {
        let run = PairRun::<C>::from_sorted_in(chain(4 * CHUNK_MAX));
        let (mut shared, mut rebuilt) = (0, 0);
        // Touch one pair near the front: every later chunk must be the same
        // allocation in the next epoch.
        let next = run.apply(&[((NodeId(0), NodeId(7)), true)], &mut shared, &mut rebuilt);
        assert_eq!(next.len(), run.len() + 1);
        assert!(rebuilt >= 1);
        assert!(shared >= run.chunks().len() - 2);
        let same_allocation = next
            .chunks()
            .iter()
            .filter(|c| run.chunks().iter().any(|o| Arc::ptr_eq(o, c)))
            .count();
        assert!(
            same_allocation >= run.chunks().len() - 2,
            "{}: chunks were not re-shared",
            C::BACKEND
        );
    }

    #[test]
    fn apply_shares_untouched_chunks() {
        apply_shares_untouched_chunks_in::<Plain>();
        apply_shares_untouched_chunks_in::<Varint>();
    }

    fn apply_matches_a_sorted_rebuild_under_churn_in<C: ChunkCodec>() {
        let mut reference: Vec<Pair> = chain(3 * CHUNK_MAX);
        let mut run = PairRun::<C>::from_sorted_in(reference.clone());
        for round in 0..4u32 {
            let mut ops: Vec<(Pair, bool)> = Vec::new();
            for i in (round..3 * CHUNK_MAX).step_by(5) {
                let pair = (NodeId(i), NodeId(i + 1));
                let present = reference.binary_search(&pair).is_ok();
                ops.push((pair, !present));
                if present {
                    reference.retain(|&p| p != pair);
                } else {
                    let at = reference.partition_point(|&p| p < pair);
                    reference.insert(at, pair);
                }
            }
            ops.sort_unstable_by_key(|&(p, _)| p);
            let mut rebuilt = 0;
            run = run.apply(&ops, &mut 0, &mut rebuilt);
            assert_eq!(pairs_of(&run), reference, "{} round {round}", C::BACKEND);
            assert!(rebuilt > 0, "{} round {round}", C::BACKEND);
            let mut report = AuditReport::new();
            run.audit("run", &mut report);
            report.assert_clean(C::BACKEND);
        }
    }

    #[test]
    fn apply_matches_a_sorted_rebuild_under_churn() {
        apply_matches_a_sorted_rebuild_under_churn_in::<Plain>();
        apply_matches_a_sorted_rebuild_under_churn_in::<Varint>();
    }

    fn delete_heavy_churn_does_not_fragment_in<C: ChunkCodec>() {
        let n = 8 * CHUNK_MAX;
        let mut run = PairRun::<C>::from_sorted_in(chain(n));
        for offset in 0..15u32 {
            let ops: Vec<(Pair, bool)> = (offset..n)
                .step_by(16)
                .map(|i| ((NodeId(i), NodeId(i + 1)), false))
                .collect();
            run = run.apply(&ops, &mut 0, &mut 0);
        }
        let live = run.len();
        assert_eq!(live, n as usize / 16);
        assert_eq!(pairs_of(&run).len(), live);
        // CHUNK_MIN, the coalescing bound, is a quarter of CHUNK_MAX.
        assert!(
            run.chunks().len() <= live / (CHUNK_MAX as usize / 4) + 2,
            "{}: run stayed fragmented: {} chunks for {live} live pairs",
            C::BACKEND,
            run.chunks().len()
        );
    }

    #[test]
    fn delete_heavy_churn_does_not_fragment() {
        delete_heavy_churn_does_not_fragment_in::<Plain>();
        delete_heavy_churn_does_not_fragment_in::<Varint>();
    }
}
