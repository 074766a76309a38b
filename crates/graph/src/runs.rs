//! The one chunked, structurally-shared sorted pair relation — [`PairRun`].
//!
//! The paper has a single sorted relation per label path (§3.1: `⟨p⟩(G)` in
//! `(source, target)` order; the length-1 paths are the graph's own
//! `⟨ℓ⟩(G)` / `⟨ℓ⁻⟩(G)`), and this is its single container: [`crate::Graph`]
//! keeps each label's forward and backward adjacency in one, and the k-path
//! index keeps each path relation in one. A run is a sequence of bounded,
//! immutable **chunks** of `(first, second)` pairs behind `Arc`s, with the
//! exact `(first pair, last pair)` of every chunk kept as a fence:
//!
//! ```text
//! run   : [Arc<chunk>, Arc<chunk>, …]          (ascending, disjoint)
//! chunk : ≤ CHUNK_MAX sorted pairs, in the run's encoding
//! fence : (first pair, last pair) per chunk    (probes skip by fence alone)
//! ```
//!
//! Applying a batch of pair changes ([`PairRun::apply`]) rebuilds only the
//! chunks that contain a changed pair and re-shares every other chunk by
//! bumping its refcount, so a publish costs **O(Δ · chunk)** instead of
//! O(relation). Old epochs keep their `Arc`s untouched, which is what makes
//! every published snapshot fully isolated for free.
//!
//! How a chunk stores its pairs is the one thing runs differ in: a
//! [`ChunkCodec`]. The default, [`Plain`], keeps the sorted `Vec` and lends it
//! out in place — the graph and the memory backend run on it. An encoded
//! codec (the compressed backend's delta/varint chunks) decodes a chunk into
//! a caller's scratch buffer whenever its pairs are read. Cutting, fences,
//! `apply`'s merge / re-cut / coalesce and the audit are one code path for
//! every codec.

use crate::ids::NodeId;
use pathix_audit::AuditReport;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::Range;
use std::sync::Arc;

/// Preferred number of pairs per chunk: rebuilt chunk groups are re-cut to
/// this size. Smaller chunks shrink the publish ceiling (Δ scattered pairs
/// rebuild at most Δ chunks of this size) at the price of more `Arc` bumps
/// per re-shared run; 256 pairs ≈ 2 KiB keeps both cheap.
pub(crate) const CHUNK_TARGET: usize = 256;

/// A chunk never exceeds this many pairs; larger merge results are split.
pub(crate) const CHUNK_MAX: usize = 2 * CHUNK_TARGET;

/// A rebuilt region smaller than this absorbs its untouched right neighbor
/// instead of being emitted as its own chunk, so delete-heavy churn cannot
/// fragment a run into ever-tinier chunks: the chunk count stays
/// proportional to the live pairs, not to the run's historical peak.
pub(crate) const CHUNK_MIN: usize = CHUNK_TARGET / 2;

/// A sorted pair inside a run: `(source, target)` for a path relation or
/// forward adjacency, `(target, source)` for the converse.
pub(crate) type Pair = (NodeId, NodeId);

/// How a [`PairRun`] stores the sorted pairs of one chunk — the only part of
/// a run that depends on its encoding.
pub trait ChunkCodec: Clone + Debug + Default + Send + Sync + 'static {
    /// One stored chunk.
    type Chunk: Clone + Debug + Default + Send + Sync;

    /// The name an index backend keeping its runs in this encoding reports.
    const BACKEND: &'static str;

    /// Stores a sorted, duplicate-free, non-empty pair list as one chunk.
    fn encode(pairs: Vec<(NodeId, NodeId)>) -> Self::Chunk;

    /// The pairs of `chunk`, ascending. A plain chunk lends its own slice and
    /// leaves `scratch` alone; an encoded chunk is decoded into `scratch`
    /// (replacing what it held), which the result borrows.
    fn pairs<'a>(
        chunk: &'a Self::Chunk,
        scratch: &'a mut Vec<(NodeId, NodeId)>,
    ) -> &'a [(NodeId, NodeId)];

    /// Bytes `chunk` counts for in an index's size accounting.
    fn footprint(chunk: &Self::Chunk) -> usize;

    /// `false` when `chunk`'s bytes do not decode exactly to the pairs they
    /// announce; [`ChunkCodec::pairs`] then yields only the prefix that does.
    fn decodes(_chunk: &Self::Chunk) -> bool {
        true
    }
}

/// The default encoding: a chunk is its sorted pair `Vec`, read in place.
#[derive(Debug, Clone, Copy, Default)]
pub struct Plain;

impl ChunkCodec for Plain {
    type Chunk = Vec<(NodeId, NodeId)>;
    const BACKEND: &'static str = "memory";

    fn encode(pairs: Vec<Pair>) -> Vec<Pair> {
        pairs
    }

    fn pairs<'a>(chunk: &'a Vec<Pair>, _scratch: &'a mut Vec<Pair>) -> &'a [Pair] {
        chunk
    }

    fn footprint(chunk: &Vec<Pair>) -> usize {
        std::mem::size_of_val(chunk.as_slice())
    }
}

/// What one graph publish reused versus rebuilt — the observable evidence
/// that the publish was proportional to the touched neighborhood, not the
/// graph.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GraphPublishStats {
    /// Labels whose adjacency was taken over wholesale (`Arc` bumps only).
    pub labels_shared: usize,
    /// Labels with at least one rebuilt chunk.
    pub labels_rebuilt: usize,
    /// Chunks re-shared from the previous epoch.
    pub chunks_shared: usize,
    /// Chunks rebuilt because a pair inside them changed.
    pub chunks_rebuilt: usize,
}

/// First and last transition a pair went through inside one batch: equal
/// means apply it, opposed means the pair ended where it began.
#[derive(Debug, Clone, Copy)]
struct NetOp {
    first: bool,
    last: bool,
}

/// One sorted pair relation: bounded chunks in ascending pair order, stored
/// in encoding `C` (plain unless named), plus per-chunk `(first pair, last
/// pair)` fences for chunk skipping. Both the chunk list and the fence list
/// live behind `Arc`s so an untouched run is re-shared across epochs with two
/// refcount bumps — publish cost stays O(touched chunks), with no O(total
/// chunks) pointer copying.
///
/// ```
/// use pathix_graph::{NodeId, PairRun};
///
/// let pair = |a, b| (NodeId(a), NodeId(b));
/// let run = PairRun::from_sorted(vec![pair(0, 1), pair(0, 2), pair(3, 0)]);
/// assert!(run.contains(pair(0, 2)));
/// assert_eq!(run.seconds_for(NodeId(0)).collect::<Vec<_>>(), [NodeId(1), NodeId(2)]);
///
/// // The next epoch: sorted real transitions in, a new run out.
/// let (mut shared, mut rebuilt) = (0, 0);
/// let ops = PairRun::net_ops([(pair(0, 2), false), (pair(2, 2), true)]);
/// let next = run.apply(&ops, &mut shared, &mut rebuilt);
/// assert_eq!(next.iter().collect::<Vec<_>>(), [pair(0, 1), pair(2, 2), pair(3, 0)]);
/// assert_eq!(run.len(), 3, "the old epoch is untouched");
/// ```
#[derive(Debug, Clone, Default)]
pub struct PairRun<C: ChunkCodec = Plain> {
    chunks: Arc<Vec<Arc<C::Chunk>>>,
    /// `(first pair, last pair)` per chunk, parallel to the chunk list.
    fences: Arc<Vec<(Pair, Pair)>>,
    len: usize,
}

/// The plain run's constructor and its borrowing reads, which lend pairs
/// straight out of the chunks.
impl PairRun {
    /// Builds a run from pairs already sorted ascending and deduplicated.
    pub fn from_sorted(pairs: Vec<(NodeId, NodeId)>) -> PairRun {
        Self::from_sorted_in(pairs)
    }

    /// All pairs in ascending order, streamed chunk by chunk.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.chunks.iter().flat_map(|c| c.iter().copied())
    }

    /// The second components of every pair whose first component is `first`,
    /// in ascending order — the targets of a source, or forward/backward
    /// neighbors, depending on which run this is. Fences skip every chunk
    /// that cannot contain `first`.
    pub fn seconds_for(&self, first: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.chunks[self.covering_chunks(first)]
            .iter()
            .flat_map(move |chunk| {
                let lo = chunk.partition_point(|&(a, _)| a < first);
                chunk[lo..]
                    .iter()
                    .take_while(move |&&(a, _)| a == first)
                    .map(|&(_, b)| b)
            })
    }

    /// Number of pairs whose first component is `first` (a degree count),
    /// via partition points only.
    pub fn count_first(&self, first: NodeId) -> usize {
        self.chunks[self.covering_chunks(first)]
            .iter()
            .map(|chunk| {
                chunk.partition_point(|&(a, _)| a <= first)
                    - chunk.partition_point(|&(a, _)| a < first)
            })
            .sum()
    }

    /// Nets the transitions one run saw inside one batch (`true` = the pair
    /// appeared, `false` = it disappeared, in arrival order) down to the
    /// sorted ops [`PairRun::apply`] takes. Relative to the pre-batch state a
    /// pair's net effect is determined by its first and last transition:
    /// equal means apply it, opposed means the pair ended where it started.
    pub fn net_ops(
        transitions: impl IntoIterator<Item = ((NodeId, NodeId), bool)>,
    ) -> Vec<((NodeId, NodeId), bool)> {
        let mut net: BTreeMap<Pair, NetOp> = BTreeMap::new();
        for (pair, insert) in transitions {
            net.entry(pair)
                .and_modify(|op| op.last = insert)
                .or_insert(NetOp {
                    first: insert,
                    last: insert,
                });
        }
        net.into_iter()
            .filter_map(|(pair, op)| (op.first == op.last).then_some((pair, op.first)))
            .collect()
    }
}

impl<C: ChunkCodec> PairRun<C> {
    /// [`PairRun::from_sorted`] in encoding `C`: the same cut, each chunk
    /// encoded.
    pub fn from_sorted_in(pairs: Vec<(NodeId, NodeId)>) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "unsorted run input");
        let mut cut = Cut::new(pairs.len().div_ceil(CHUNK_TARGET), 0);
        if pairs.len() <= CHUNK_MAX {
            cut.push(pairs);
        } else {
            // Re-cut at CHUNK_TARGET so freshly built chunks leave headroom.
            for chunk in pairs.chunks(CHUNK_TARGET) {
                cut.push(chunk.to_vec());
            }
        }
        cut.into_run()
    }

    /// Builds a run over `chunks` as stored, decoding each to recompute
    /// fences and the pair total.
    ///
    /// Chunks are never empty by construction; should a corrupt empty chunk
    /// appear anyway, its fence is simply omitted (leaving `fences` shorter
    /// than the chunk list), which the structural audit reports instead of
    /// panicking.
    fn from_chunks(chunks: Vec<Arc<C::Chunk>>) -> Self {
        let mut scratch = Vec::new();
        let mut fences = Vec::with_capacity(chunks.len());
        let mut len = 0;
        for chunk in &chunks {
            let pairs = C::pairs(chunk, &mut scratch);
            len += pairs.len();
            if let (Some(&first), Some(&last)) = (pairs.first(), pairs.last()) {
                fences.push((first, last));
            }
        }
        PairRun {
            chunks: Arc::new(chunks),
            fences: Arc::new(fences),
            len,
        }
    }

    /// [`PairRun::from_sorted`] without the cut and without any check: the
    /// chunks are stored as given. This is how the seeded-corruption tests of
    /// the auditors built on [`PairRun::audit`] obtain a run that violates a
    /// chunk invariant. Not for production use.
    #[doc(hidden)]
    pub fn from_chunks_unchecked(chunks: Vec<C::Chunk>) -> Self {
        Self::from_chunks(chunks.into_iter().map(Arc::new).collect())
    }

    /// Number of pairs stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the run stores no pair.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk list, ascending and disjoint — batched scans read whole
    /// chunks, and `Arc::ptr_eq` on two epochs' chunks shows sharing.
    pub fn chunks(&self) -> &[Arc<C::Chunk>] {
        &self.chunks
    }

    /// `true` if `pair` is stored. Fences narrow the probe to at most one
    /// chunk without touching pair data.
    pub fn contains(&self, pair: (NodeId, NodeId)) -> bool {
        let i = self.fences.partition_point(|&(_, max)| max < pair);
        self.chunks.get(i).is_some_and(|chunk| {
            C::pairs(chunk, &mut Vec::new())
                .binary_search(&pair)
                .is_ok()
        })
    }

    /// The chunk range whose fences admit pairs starting with `first` (both
    /// fence bounds are non-decreasing across the run); every chunk outside
    /// it is skipped by a bound probe without being read.
    pub fn covering_chunks(&self, first: NodeId) -> Range<usize> {
        let start = self.fences.partition_point(|&(_, (max, _))| max < first);
        let stop = start + self.fences[start..].partition_point(|&((min, _), _)| min <= first);
        start.min(self.chunks.len())..stop.min(self.chunks.len())
    }

    /// Applies net pair changes (`true` = insert, `false` = remove; sorted by
    /// pair, each a real transition relative to this run) and returns the next
    /// epoch's run. Untouched chunks are re-shared; touched ones are merged
    /// with their changes and re-cut, with undersized rebuilt regions
    /// coalescing into their right neighbor. Every chunk of `self` is added
    /// to exactly one of `shared` (same allocation in the result) and
    /// `rebuilt` (copied into a new chunk).
    pub fn apply(
        &self,
        ops: &[((NodeId, NodeId), bool)],
        shared: &mut usize,
        rebuilt: &mut usize,
    ) -> Self {
        let prev = self.chunks.as_slice();
        let mut cut = Cut::new(prev.len() + 1, self.len);
        let mut pending: Vec<Pair> = Vec::new();
        let mut scratch: Vec<Pair> = Vec::new();
        let mut oi = 0usize;
        for (ci, chunk) in prev.iter().enumerate() {
            // Pairs strictly below the next chunk's first pair belong to this
            // chunk (the first chunk also takes everything below it).
            let upper = self.fences.get(ci + 1).map(|&(first, _)| first);
            let start = oi;
            while oi < ops.len() && upper.is_none_or(|u| ops[oi].0 < u) {
                oi += 1;
            }
            let my_ops = &ops[start..oi];
            match self.fences.get(ci) {
                Some(&fence)
                    if my_ops.is_empty() && (pending.is_empty() || pending.len() >= CHUNK_MIN) =>
                {
                    cut.flush(&mut pending);
                    cut.share(chunk, fence);
                    *shared += 1;
                }
                // Touched — or untouched, but the rebuilt region to its left
                // came out undersized: coalesce it into that region rather
                // than emit a sliver (copying one extra chunk keeps the run
                // compact).
                _ => {
                    let pairs = C::pairs(chunk, &mut scratch);
                    cut.len = cut.len.saturating_sub(pairs.len());
                    merge_chunk(pairs, my_ops, &mut pending);
                    *rebuilt += 1;
                    cut.emit_full(&mut pending);
                }
            }
        }
        // A previously-empty run takes all its ops here.
        if prev.is_empty() {
            for &(pair, insert) in ops {
                debug_assert!(insert, "removal from an empty run");
                if insert {
                    pending.push(pair);
                }
            }
        }
        cut.flush(&mut pending);
        cut.into_run()
    }

    /// Audits this run's chunk/fence invariants under `loc` — the checks the
    /// scan, probe and publish paths silently rely on:
    ///
    /// * `chunk-decodable` — every chunk's bytes decode exactly to the pairs
    ///   they announce (always true of a plain chunk);
    /// * `fence-parallel` / `fence-tight` — one fence per chunk, equal to the
    ///   chunk's true `(first, last)` pair (a loose fence silently breaks
    ///   chunk skipping on bound probes);
    /// * `chunk-nonempty` / `chunk-size-max` / `chunk-coalesced` — every
    ///   chunk holds `1..=CHUNK_MAX` pairs, and every non-final chunk holds
    ///   at least `CHUNK_MIN` (the anti-fragmentation coalescing bound);
    /// * `chunk-sorted` / `chunk-disjoint` — pairs strictly ascending inside
    ///   each chunk and across chunk boundaries;
    /// * `run-count` — the cached length matches what the chunks hold.
    pub fn audit(&self, loc: &str, report: &mut AuditReport) {
        report.check(
            "fence-parallel",
            loc,
            self.fences.len() == self.chunks.len(),
            || {
                format!(
                    "{} fences for {} chunks",
                    self.fences.len(),
                    self.chunks.len()
                )
            },
        );
        let mut entries = 0usize;
        let mut prev_last: Option<Pair> = None;
        let mut scratch = Vec::new();
        for (ci, stored) in self.chunks.iter().enumerate() {
            let cloc = format!("{loc} chunk {ci}");
            report.check("chunk-decodable", &cloc, C::decodes(stored), || {
                "chunk bytes do not decode to the pairs they announce".to_string()
            });
            let chunk = C::pairs(stored, &mut scratch);
            report.check("chunk-nonempty", &cloc, !chunk.is_empty(), || {
                "empty chunk stored in run".to_string()
            });
            report.check("chunk-size-max", &cloc, chunk.len() <= CHUNK_MAX, || {
                format!(
                    "{} pairs exceed the CHUNK_MAX bound of {CHUNK_MAX}",
                    chunk.len()
                )
            });
            if ci + 1 < self.chunks.len() {
                report.check("chunk-coalesced", &cloc, chunk.len() >= CHUNK_MIN, || {
                    format!(
                        "non-final chunk of {} pairs is below the CHUNK_MIN coalescing \
                         bound of {CHUNK_MIN}",
                        chunk.len()
                    )
                });
            }
            report.check(
                "chunk-sorted",
                &cloc,
                chunk.windows(2).all(|w| w[0] < w[1]),
                || "pairs are not strictly ascending".to_string(),
            );
            if let (Some(prev), Some(&first)) = (prev_last, chunk.first()) {
                report.check("chunk-disjoint", &cloc, prev < first, || {
                    format!("first pair {first:?} does not follow previous chunk's {prev:?}")
                });
            }
            prev_last = chunk.last().copied();
            if let (Some(&fence), Some(&first), Some(&last)) =
                (self.fences.get(ci), chunk.first(), chunk.last())
            {
                report.check("fence-tight", &cloc, fence == (first, last), || {
                    format!(
                        "fence {fence:?} but true pair bounds are {:?}",
                        (first, last)
                    )
                });
            }
            entries += chunk.len();
        }
        report.check("run-count", loc, entries == self.len, || {
            format!(
                "chunks hold {entries} pairs but the run claims {}",
                self.len
            )
        });
    }
}

/// The chunks, fences and pair count of a run being assembled.
struct Cut<C: ChunkCodec> {
    chunks: Vec<Arc<C::Chunk>>,
    fences: Vec<(Pair, Pair)>,
    len: usize,
}

impl<C: ChunkCodec> Cut<C> {
    /// An empty cut with room for `chunks` chunks that counts `len` pairs
    /// already.
    fn new(chunks: usize, len: usize) -> Self {
        Cut {
            chunks: Vec::with_capacity(chunks),
            fences: Vec::with_capacity(chunks),
            len,
        }
    }

    /// Encodes `pairs` (sorted; empty is skipped) as the next chunk.
    fn push(&mut self, pairs: Vec<Pair>) {
        if let (Some(&first), Some(&last)) = (pairs.first(), pairs.last()) {
            self.fences.push((first, last));
            self.len += pairs.len();
            self.chunks.push(Arc::new(C::encode(pairs)));
        }
    }

    /// Takes over `chunk` and its fence from the previous epoch.
    fn share(&mut self, chunk: &Arc<C::Chunk>, fence: (Pair, Pair)) {
        self.chunks.push(Arc::clone(chunk));
        self.fences.push(fence);
    }

    /// Emits target-sized chunks while `pending` is at or over
    /// [`CHUNK_MAX`] — the single size invariant every emitted chunk obeys.
    fn emit_full(&mut self, pending: &mut Vec<Pair>) {
        while pending.len() >= CHUNK_MAX {
            let rest = pending.split_off(CHUNK_TARGET);
            self.push(std::mem::replace(pending, rest));
        }
    }

    /// Emits all of `pending` as chunks (target-sized while full, then the
    /// rest).
    fn flush(&mut self, pending: &mut Vec<Pair>) {
        self.emit_full(pending);
        if !pending.is_empty() {
            self.push(std::mem::take(pending));
        }
    }

    fn into_run(self) -> PairRun<C> {
        PairRun {
            chunks: Arc::new(self.chunks),
            fences: Arc::new(self.fences),
            len: self.len,
        }
    }
}

/// Merges one chunk's pairs with its sorted net changes into `pending`.
fn merge_chunk(chunk: &[Pair], ops: &[(Pair, bool)], pending: &mut Vec<Pair>) {
    let mut pi = 0usize;
    for &(pair, insert) in ops {
        while pi < chunk.len() && chunk[pi] < pair {
            pending.push(chunk[pi]);
            pi += 1;
        }
        let present = pi < chunk.len() && chunk[pi] == pair;
        if insert {
            debug_assert!(!present, "inserted pair {pair:?} already present");
            pending.push(pair);
        } else {
            debug_assert!(present, "removed pair {pair:?} not present");
        }
        if present {
            pi += 1;
        }
    }
    pending.extend_from_slice(&chunk[pi..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs_of(run: &PairRun) -> Vec<Pair> {
        run.iter().collect()
    }

    fn chain(n: u32) -> Vec<Pair> {
        (0..n).map(|i| (NodeId(i), NodeId(i + 1))).collect()
    }

    /// `run.apply(ops)` with the reuse counters discarded.
    fn applied(run: &PairRun, ops: &[(Pair, bool)]) -> PairRun {
        run.apply(ops, &mut 0, &mut 0)
    }

    #[test]
    fn from_sorted_roundtrips_and_cuts_chunks() {
        let pairs = chain(3 * CHUNK_MAX as u32);
        let run = PairRun::from_sorted(pairs.clone());
        assert_eq!(run.len(), pairs.len());
        assert_eq!(pairs_of(&run), pairs);
        assert!(run.chunks.len() > 1, "a long run must span several chunks");
        assert!(run.chunks.iter().all(|c| c.len() <= CHUNK_MAX));
    }

    #[test]
    fn contains_and_seconds_use_fences() {
        let run = PairRun::from_sorted(chain(4 * CHUNK_MAX as u32));
        assert!(run.contains((NodeId(0), NodeId(1))));
        assert!(!run.contains((NodeId(0), NodeId(2))));
        let mid = 2 * CHUNK_MAX as u32;
        assert_eq!(
            run.seconds_for(NodeId(mid)).collect::<Vec<_>>(),
            vec![NodeId(mid + 1)]
        );
        assert_eq!(run.count_first(NodeId(mid)), 1);
        assert_eq!(run.count_first(NodeId(u32::MAX)), 0);
    }

    #[test]
    fn apply_shares_untouched_chunks() {
        let run = PairRun::from_sorted(chain(4 * CHUNK_MAX as u32));
        let (mut shared, mut rebuilt) = (0, 0);
        // Touch one pair near the front: every later chunk must be the same
        // allocation in the next epoch.
        let next = run.apply(&[((NodeId(0), NodeId(7)), true)], &mut shared, &mut rebuilt);
        assert_eq!(next.len(), run.len() + 1);
        assert!(rebuilt >= 1);
        assert!(shared >= run.chunks.len() - 2);
        let same_allocation = next
            .chunks
            .iter()
            .filter(|c| run.chunks.iter().any(|o| Arc::ptr_eq(o, c)))
            .count();
        assert!(
            same_allocation >= run.chunks.len() - 2,
            "chunks were not re-shared"
        );
    }

    #[test]
    fn apply_matches_a_sorted_rebuild_under_churn() {
        let mut reference: Vec<Pair> = chain(3 * CHUNK_MAX as u32);
        let mut run = PairRun::from_sorted(reference.clone());
        for round in 0..4u32 {
            let mut ops: Vec<(Pair, bool)> = Vec::new();
            for i in (round..3 * CHUNK_MAX as u32).step_by(5) {
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
            assert_eq!(pairs_of(&run), reference, "round {round}");
            assert!(rebuilt > 0, "round {round}");
        }
    }

    #[test]
    fn delete_heavy_churn_does_not_fragment() {
        let n = 8 * CHUNK_MAX as u32;
        let mut run = PairRun::from_sorted(chain(n));
        for offset in 0..15u32 {
            let ops: Vec<(Pair, bool)> = (offset..n)
                .step_by(16)
                .map(|i| ((NodeId(i), NodeId(i + 1)), false))
                .collect();
            run = applied(&run, &ops);
        }
        let live = run.len();
        assert_eq!(live, n as usize / 16);
        assert!(
            run.chunks.len() <= live / CHUNK_MIN + 2,
            "run stayed fragmented: {} chunks for {live} live pairs",
            run.chunks.len()
        );
    }

    #[test]
    fn net_ops_keeps_agreeing_first_and_last_transitions_sorted() {
        let pair = |a, b| (NodeId(a), NodeId(b));
        let net = PairRun::net_ops([
            (pair(5, 0), true),
            (pair(1, 1), false),
            // In and out again: ended where it started.
            (pair(3, 3), true),
            (pair(3, 3), false),
            // Out, in, out: a net removal.
            (pair(2, 0), false),
            (pair(2, 0), true),
            (pair(2, 0), false),
        ]);
        assert_eq!(
            net,
            [(pair(1, 1), false), (pair(2, 0), false), (pair(5, 0), true)]
        );
    }

    /// The invariant names the audit reports for `run`, in discovery order.
    fn violated(run: &PairRun) -> Vec<&'static str> {
        let mut report = AuditReport::new();
        run.audit("run", &mut report);
        report.violations().iter().map(|v| v.invariant).collect()
    }

    /// A clean three-chunk run to corrupt, one invariant at a time.
    fn clean() -> PairRun {
        let run = PairRun::from_sorted(chain(3 * CHUNK_TARGET as u32 + 40));
        assert_eq!(run.chunks.len(), 4);
        assert_eq!(violated(&run), Vec::<&str>::new());
        run
    }

    /// `run` with chunk `ci` replaced by `chunk`, fences and length recomputed
    /// — so only the chunk-level checks can fire.
    fn with_chunk(run: &PairRun, ci: usize, chunk: Vec<Pair>) -> PairRun {
        let mut chunks = run.chunks.as_ref().clone();
        chunks[ci] = Arc::new(chunk);
        PairRun::from_chunks(chunks)
    }

    #[test]
    fn audit_is_clean_on_built_and_churned_runs() {
        let run = clean();
        let churned = applied(&run, &[((NodeId(1), NodeId(9)), true)]);
        assert_eq!(violated(&churned), Vec::<&str>::new());
        assert_eq!(violated(&PairRun::default()), Vec::<&str>::new());
    }

    #[test]
    fn seeded_corruption_trips_fence_parallel() {
        let mut run = clean();
        Arc::make_mut(&mut run.fences).pop();
        assert_eq!(violated(&run), ["fence-parallel"]);
    }

    #[test]
    fn seeded_corruption_trips_chunk_nonempty() {
        // `from_chunks` omits the fence of an empty chunk, so the fence list
        // comes out short as well.
        let run = with_chunk(&clean(), 3, Vec::new());
        assert_eq!(violated(&run), ["fence-parallel", "chunk-nonempty"]);
    }

    #[test]
    fn seeded_corruption_trips_chunk_size_max() {
        let run = clean();
        let mut fat = run.chunks[3].as_ref().clone();
        let from = fat.last().unwrap().0 .0 + 1;
        fat.extend((from..from + CHUNK_MAX as u32).map(|i| (NodeId(i), NodeId(i))));
        assert_eq!(violated(&with_chunk(&run, 3, fat)), ["chunk-size-max"]);
    }

    #[test]
    fn seeded_corruption_trips_chunk_coalesced() {
        let run = clean();
        let sliver = run.chunks[1][..CHUNK_MIN - 1].to_vec();
        assert_eq!(violated(&with_chunk(&run, 1, sliver)), ["chunk-coalesced"]);
    }

    #[test]
    fn seeded_corruption_trips_chunk_sorted() {
        let run = clean();
        let mut swapped = run.chunks[1].as_ref().clone();
        swapped.swap(10, 11);
        assert_eq!(violated(&with_chunk(&run, 1, swapped)), ["chunk-sorted"]);
    }

    #[test]
    fn seeded_corruption_trips_chunk_disjoint() {
        // Chunk 2 starts again at chunk 1's last pair: sorted inside, tight
        // fences, but overlapping its left neighbor.
        let run = clean();
        let mut overlapping = run.chunks[2].as_ref().clone();
        overlapping.insert(0, *run.chunks[1].last().unwrap());
        assert_eq!(
            violated(&with_chunk(&run, 2, overlapping)),
            ["chunk-disjoint"]
        );
    }

    #[test]
    fn seeded_corruption_trips_fence_tight() {
        // A loose fence silently widens (or narrows) what bound probes read.
        let mut run = clean();
        let fence = &mut Arc::make_mut(&mut run.fences)[1];
        fence.1 .0 = NodeId(fence.1 .0 .0 - 1);
        assert_eq!(violated(&run), ["fence-tight"]);
    }

    #[test]
    fn seeded_corruption_trips_run_count() {
        let mut run = clean();
        run.len += 1;
        assert_eq!(violated(&run), ["run-count"]);
    }
}
