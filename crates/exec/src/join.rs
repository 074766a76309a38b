//! Composition joins: merge join and hash join.
//!
//! Both operators compute the composition of two pair relations
//! `L ∘ R = {(x, z) | (x, y) ∈ L, (y, z) ∈ R}` — the physical counterpart of
//! the `◦` operator after a disjunct has been cut into index-sized pieces.
//!
//! Both consume their inputs batch-at-a-time through an internal batch
//! reader: the
//! merge join advances over sorted key columns with galloping (exponential
//! probe + binary search) when runs are skewed, and the hash join drains its
//! build side into a flat open-addressing table probed per left batch.

use crate::operator::{BoxedPairStream, Pair, PairStream, Sortedness};
use pathix_graph::NodeId;
use pathix_index::backend::{BackendError, BackendResult, PairBatch};

/// Which column of a batch carries the merge key for one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyCol {
    /// Keys are in the source column (right join inputs).
    Source,
    /// Keys are in the target column (left join inputs).
    Target,
}

/// First index in `keys` whose value is ≥ `key`, found by exponential probe
/// followed by binary search — O(log d) in the distance d advanced, so a long
/// non-matching run costs its logarithm instead of its length.
fn gallop_lower_bound(keys: &[NodeId], key: NodeId) -> usize {
    if keys.is_empty() || keys[0] >= key {
        return 0;
    }
    let mut hi = 1;
    while hi < keys.len() && keys[hi] < key {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(keys.len());
    lo + keys[lo..hi].partition_point(|&k| k < key)
}

/// A buffered batch-at-a-time reader over one join input, exposing peeking,
/// key-directed skipping and whole-group extraction over the batch's sorted
/// key column.
struct BatchReader<'a> {
    input: BoxedPairStream<'a>,
    buf: PairBatch,
    pos: usize,
    done: bool,
}

impl<'a> BatchReader<'a> {
    fn new(input: BoxedPairStream<'a>) -> Self {
        BatchReader {
            input,
            buf: PairBatch::new(),
            pos: 0,
            done: false,
        }
    }

    /// Ensures at least one unconsumed buffered pair, pulling input batches
    /// as needed. Returns `false` once the input is exhausted.
    fn fill(&mut self) -> BackendResult<bool> {
        while !self.done && self.pos >= self.buf.len() {
            self.pos = 0;
            if self.input.next_batch(&mut self.buf)? == 0 {
                self.done = true;
                self.buf.clear();
            }
        }
        Ok(!self.done)
    }

    /// The next unconsumed pair, without consuming it.
    fn peek(&mut self) -> BackendResult<Option<Pair>> {
        Ok(if self.fill()? {
            Some(self.buf.get(self.pos))
        } else {
            None
        })
    }

    /// Consumes the pair last returned by a successful [`peek`](Self::peek).
    fn advance(&mut self) {
        self.pos += 1;
    }

    fn keys(&self, col: KeyCol) -> &[NodeId] {
        match col {
            KeyCol::Source => self.buf.sources(),
            KeyCol::Target => self.buf.targets(),
        }
    }

    /// Consumes every pair whose key is < `key` (the key column must be
    /// non-decreasing, which the merge join's sortedness contract provides).
    fn skip_until(&mut self, key: NodeId, col: KeyCol) -> BackendResult<()> {
        while self.fill()? {
            self.pos += gallop_lower_bound(&self.keys(col)[self.pos..], key);
            if self.pos < self.buf.len() {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Consumes the run of pairs whose key equals `key` (positioned at its
    /// start) and appends their value column — the *other* column — to `out`.
    fn take_group(&mut self, key: NodeId, col: KeyCol, out: &mut Vec<NodeId>) -> BackendResult<()> {
        while self.fill()? {
            let end = self.pos + self.keys(col)[self.pos..].partition_point(|&k| k <= key);
            if end == self.pos {
                return Ok(());
            }
            let vals = match col {
                KeyCol::Source => self.buf.targets(),
                KeyCol::Target => self.buf.sources(),
            };
            out.extend_from_slice(&vals[self.pos..end]);
            let at_batch_end = end == self.buf.len();
            self.pos = end;
            if !at_batch_end {
                return Ok(());
            }
            // The group may continue into the next batch.
        }
        Ok(())
    }
}

/// Merge join over the shared middle node.
///
/// Requires the left input sorted by **target** and the right input sorted by
/// **source** (the planner arranges this by scanning inverse paths). This is
/// the join the paper prefers "whenever possible (to make the best use of the
/// physical sort order of the index)".
pub struct MergeJoinOp<'a> {
    left: BatchReader<'a>,
    right: BatchReader<'a>,
    // Scratch buffers reused across matching groups — refilling must not
    // allocate per group.
    left_group: Vec<NodeId>,
    right_group: Vec<NodeId>,
    out_buf: Vec<Pair>,
    out_pos: usize,
    // A backend error is latched: polling again after an error must re-raise
    // it, never resume merging from half-advanced input cursors.
    poisoned: Option<BackendError>,
}

impl<'a> MergeJoinOp<'a> {
    /// Creates a merge join. Panics if the inputs do not provide the
    /// required sort orders — the planner must only emit valid merge joins.
    /// (Input *errors* are deferred to the first pull.)
    pub fn new(left: BoxedPairStream<'a>, right: BoxedPairStream<'a>) -> Self {
        assert!(
            left.sortedness().is_by_target(),
            "merge join requires the left input sorted by target"
        );
        assert!(
            right.sortedness().is_by_source(),
            "merge join requires the right input sorted by source"
        );
        MergeJoinOp {
            left: BatchReader::new(left),
            right: BatchReader::new(right),
            left_group: Vec::new(),
            right_group: Vec::new(),
            out_buf: Vec::new(),
            out_pos: 0,
            poisoned: None,
        }
    }

    /// Gathers the next group of matching pairs into the reused `out_buf`.
    fn refill(&mut self) -> BackendResult<bool> {
        self.out_buf.clear();
        self.out_pos = 0;
        loop {
            let (Some(lp), Some(rp)) = (self.left.peek()?, self.right.peek()?) else {
                return Ok(false);
            };
            let (lkey, rkey) = (lp.1, rp.0);
            if lkey < rkey {
                self.left.skip_until(rkey, KeyCol::Target)?;
            } else if rkey < lkey {
                self.right.skip_until(lkey, KeyCol::Source)?;
            } else {
                // Collect the full group on both sides, then cross-product.
                self.left_group.clear();
                self.right_group.clear();
                self.left
                    .take_group(lkey, KeyCol::Target, &mut self.left_group)?;
                self.right
                    .take_group(lkey, KeyCol::Source, &mut self.right_group)?;
                self.out_buf
                    .reserve(self.left_group.len() * self.right_group.len());
                for &x in &self.left_group {
                    for &z in &self.right_group {
                        self.out_buf.push((x, z));
                    }
                }
                return Ok(true);
            }
        }
    }
}

impl PairStream for MergeJoinOp<'_> {
    fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        loop {
            if self.out_pos < self.out_buf.len() {
                let pair = self.out_buf[self.out_pos];
                self.out_pos += 1;
                return Ok(Some(pair));
            }
            match self.refill() {
                Ok(true) => {}
                Ok(false) => return Ok(None),
                Err(e) => {
                    self.poisoned = Some(e.clone());
                    return Err(e);
                }
            }
        }
    }

    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        batch.clear();
        loop {
            if self.out_pos < self.out_buf.len() {
                let take = (self.out_buf.len() - self.out_pos).min(batch.remaining_capacity());
                batch.extend_from_pairs(&self.out_buf[self.out_pos..self.out_pos + take]);
                self.out_pos += take;
                if batch.is_full() {
                    return Ok(batch.len());
                }
                continue;
            }
            match self.refill() {
                Ok(true) => {}
                Ok(false) => return Ok(batch.len()),
                Err(e) => {
                    self.poisoned = Some(e.clone());
                    return Err(e);
                }
            }
        }
    }

    fn sortedness(&self) -> Sortedness {
        Sortedness::Unsorted
    }
}

/// A flat open-addressing hash table mapping middle nodes to contiguous
/// ranges of right-side targets.
///
/// All values live in one `vals` array grouped by key (a stable sort keeps
/// each key's stream order); `slots` is a power-of-two open-addressing array
/// probed by fibonacci hashing with linear stepping, holding group indices.
/// Probing touches two flat arrays instead of chasing `HashMap` buckets and
/// per-key `Vec` allocations.
#[derive(Default)]
struct FlatTable {
    /// Group index + 1 per slot; 0 marks an empty slot. Load factor ≤ ½.
    slots: Vec<u32>,
    /// `(key, start, len)` ranges into `vals`, one per distinct key.
    groups: Vec<(NodeId, u32, u32)>,
    /// All right-side targets, grouped by key, stream order within a key.
    vals: Vec<NodeId>,
}

impl FlatTable {
    fn build(mut pairs: Vec<Pair>) -> FlatTable {
        // Stable: within-key order stays the build stream's order.
        pairs.sort_by_key(|&(k, _)| k);
        let mut vals = Vec::with_capacity(pairs.len());
        let mut groups: Vec<(NodeId, u32, u32)> = Vec::new();
        for (k, v) in pairs {
            match groups.last_mut() {
                Some(g) if g.0 == k => g.2 += 1,
                _ => groups.push((k, vals.len() as u32, 1)),
            }
            vals.push(v);
        }
        let cap = (groups.len() * 2).next_power_of_two().max(8);
        let mut slots = vec![0u32; cap];
        for (i, g) in groups.iter().enumerate() {
            let mut slot = Self::hash(g.0) & (cap - 1);
            while slots[slot] != 0 {
                slot = (slot + 1) & (cap - 1);
            }
            slots[slot] = i as u32 + 1;
        }
        FlatTable {
            slots,
            groups,
            vals,
        }
    }

    fn hash(key: NodeId) -> usize {
        ((key.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    /// The `vals` range joined to `key`, if any.
    fn probe(&self, key: NodeId) -> Option<(usize, usize)> {
        if self.groups.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = Self::hash(key) & mask;
        loop {
            match self.slots[slot] {
                0 => return None,
                g => {
                    let (k, start, len) = self.groups[(g - 1) as usize];
                    if k == key {
                        return Some((start as usize, (start + len) as usize));
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// Hash join over the shared middle node.
///
/// The right input is materialized into a flat open-addressing table keyed
/// by its source
/// node; the left input is streamed batch-at-a-time and probed by its target
/// node. Used whenever the merge join's sort-order requirements cannot be met
/// (e.g. when one input is an intermediate join result).
pub struct HashJoinOp<'a> {
    left: BatchReader<'a>,
    right: Option<BoxedPairStream<'a>>,
    table: FlatTable,
    // Matches of the current probe pair still to emit (resume state when an
    // output batch fills mid-probe): source node + `vals` range.
    cur_src: NodeId,
    cur_start: usize,
    cur_end: usize,
    // A backend error is latched: polling again after an error must re-raise
    // it, never stream answers computed from a partially built hash table.
    poisoned: Option<BackendError>,
}

impl<'a> HashJoinOp<'a> {
    /// Creates a hash join; the right side is built into the hash table on
    /// first use.
    pub fn new(left: BoxedPairStream<'a>, right: BoxedPairStream<'a>) -> Self {
        HashJoinOp {
            left: BatchReader::new(left),
            right: Some(right),
            table: FlatTable::default(),
            cur_src: NodeId(0),
            cur_start: 0,
            cur_end: 0,
            poisoned: None,
        }
    }

    fn ensure_built(&mut self) -> BackendResult<()> {
        if let Some(mut right) = self.right.take() {
            let mut batch = PairBatch::new();
            let mut pairs = Vec::new();
            while right.next_batch(&mut batch)? > 0 {
                pairs.extend(batch.iter());
            }
            self.table = FlatTable::build(pairs);
        }
        Ok(())
    }

    /// Moves to the next probing left pair with at least one match.
    /// Returns `false` when the left input is exhausted.
    fn next_probe(&mut self) -> BackendResult<bool> {
        loop {
            let Some((src, tgt)) = self.left.peek()? else {
                return Ok(false);
            };
            self.left.advance();
            if let Some((start, end)) = self.table.probe(tgt) {
                self.cur_src = src;
                self.cur_start = start;
                self.cur_end = end;
                return Ok(true);
            }
        }
    }

    fn next_pair_inner(&mut self) -> BackendResult<Option<Pair>> {
        self.ensure_built()?;
        loop {
            if self.cur_start < self.cur_end {
                let pair = (self.cur_src, self.table.vals[self.cur_start]);
                self.cur_start += 1;
                return Ok(Some(pair));
            }
            if !self.next_probe()? {
                return Ok(None);
            }
        }
    }

    fn next_batch_inner(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        self.ensure_built()?;
        batch.clear();
        loop {
            while self.cur_start < self.cur_end && !batch.is_full() {
                batch.push((self.cur_src, self.table.vals[self.cur_start]));
                self.cur_start += 1;
            }
            if batch.is_full() || !self.next_probe()? {
                return Ok(batch.len());
            }
        }
    }
}

impl PairStream for HashJoinOp<'_> {
    fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        match self.next_pair_inner() {
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
            ok => ok,
        }
    }

    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        match self.next_batch_inner(batch) {
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
            ok => ok,
        }
    }

    fn sortedness(&self) -> Sortedness {
        Sortedness::Unsorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::collect_pairs;
    use crate::scan::MaterializedOp;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    /// Reference composition for cross-checking.
    fn compose(left: &[Pair], right: &[Pair]) -> Vec<Pair> {
        let mut out = Vec::new();
        for &(x, y) in left {
            for &(y2, z) in right {
                if y == y2 {
                    out.push((x, z));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn by_target(mut pairs: Vec<Pair>) -> MaterializedOp {
        pairs.sort_unstable_by_key(|&(a, b)| (b, a));
        MaterializedOp::new(pairs, Sortedness::ByTarget)
    }

    fn by_source(mut pairs: Vec<Pair>) -> MaterializedOp {
        pairs.sort_unstable();
        MaterializedOp::new(pairs, Sortedness::BySource)
    }

    #[test]
    fn merge_join_composes_relations() {
        let left = vec![(n(1), n(10)), (n(2), n(10)), (n(3), n(11)), (n(4), n(12))];
        let right = vec![
            (n(10), n(20)),
            (n(10), n(21)),
            (n(12), n(22)),
            (n(13), n(23)),
        ];
        let join = MergeJoinOp::new(
            Box::new(by_target(left.clone())),
            Box::new(by_source(right.clone())),
        );
        assert_eq!(collect_pairs(join).unwrap(), compose(&left, &right));
    }

    #[test]
    fn hash_join_composes_relations() {
        let left = vec![(n(1), n(10)), (n(2), n(10)), (n(3), n(11)), (n(4), n(12))];
        let right = vec![
            (n(10), n(20)),
            (n(10), n(21)),
            (n(12), n(22)),
            (n(13), n(23)),
        ];
        let join = HashJoinOp::new(
            Box::new(MaterializedOp::new(left.clone(), Sortedness::Unsorted)),
            Box::new(MaterializedOp::new(right.clone(), Sortedness::Unsorted)),
        );
        assert_eq!(collect_pairs(join).unwrap(), compose(&left, &right));
    }

    #[test]
    fn joins_agree_on_duplicate_heavy_inputs() {
        // Many pairs sharing the same middle node exercise group handling.
        let left: Vec<Pair> = (0..20).map(|i| (n(i), n(100 + i % 3))).collect();
        let right: Vec<Pair> = (0..15).map(|i| (n(100 + i % 3), n(200 + i))).collect();
        let merge = MergeJoinOp::new(
            Box::new(by_target(left.clone())),
            Box::new(by_source(right.clone())),
        );
        let hash = HashJoinOp::new(
            Box::new(MaterializedOp::new(left.clone(), Sortedness::Unsorted)),
            Box::new(MaterializedOp::new(right.clone(), Sortedness::Unsorted)),
        );
        let expected = compose(&left, &right);
        assert_eq!(collect_pairs(merge).unwrap(), expected);
        assert_eq!(collect_pairs(hash).unwrap(), expected);
        assert_eq!(expected.len(), 20 * 5);
    }

    #[test]
    fn galloping_advancement_matches_the_reference_on_skewed_runs() {
        // One side has long runs of keys the other side never matches — the
        // workload galloping exists for. Include runs that straddle batch
        // boundaries (well over BATCH_CAPACITY pairs per key).
        let mut left: Vec<Pair> = Vec::new();
        for key in [5u32, 1000, 5000] {
            for i in 0..1500 {
                left.push((n(i), n(key)));
            }
        }
        let right: Vec<Pair> = (0..3000).map(|i| (n(2 * i), n(i))).collect();
        let expected = compose(&left, &right);
        let join = MergeJoinOp::new(Box::new(by_target(left)), Box::new(by_source(right)));
        assert_eq!(collect_pairs(join).unwrap(), expected);
    }

    #[test]
    fn gallop_lower_bound_matches_partition_point() {
        let keys: Vec<NodeId> = [0u32, 1, 1, 3, 7, 7, 7, 8, 20, 40, 41, 42, 90]
            .iter()
            .map(|&v| n(v))
            .collect();
        for probe in 0..=100u32 {
            let expected = keys.partition_point(|&k| k < n(probe));
            assert_eq!(gallop_lower_bound(&keys, n(probe)), expected, "{probe}");
        }
        assert_eq!(gallop_lower_bound(&[], n(1)), 0);
    }

    #[test]
    fn joins_drain_identically_pair_and_batch_wise() {
        let left: Vec<Pair> = (0..900).map(|i| (n(i), n(i % 7))).collect();
        let right: Vec<Pair> = (0..300).map(|i| (n(i % 7), n(i))).collect();
        let pair_wise = {
            let mut join = MergeJoinOp::new(
                Box::new(by_target(left.clone())),
                Box::new(by_source(right.clone())),
            );
            let mut out = Vec::new();
            while let Some(p) = join.next_pair().unwrap() {
                out.push(p);
            }
            out
        };
        let batch_wise = {
            let mut join = MergeJoinOp::new(
                Box::new(by_target(left.clone())),
                Box::new(by_source(right.clone())),
            );
            let mut out = Vec::new();
            let mut batch = PairBatch::new();
            while join.next_batch(&mut batch).unwrap() > 0 {
                out.extend(batch.iter());
            }
            out
        };
        assert_eq!(pair_wise, batch_wise);
        let hash_pair_wise = {
            let mut join = HashJoinOp::new(
                Box::new(by_target(left.clone())),
                Box::new(by_source(right.clone())),
            );
            let mut out = Vec::new();
            while let Some(p) = join.next_pair().unwrap() {
                out.push(p);
            }
            out
        };
        let hash_batch_wise = {
            let mut join = HashJoinOp::new(Box::new(by_target(left)), Box::new(by_source(right)));
            let mut out = Vec::new();
            let mut batch = PairBatch::new();
            while join.next_batch(&mut batch).unwrap() > 0 {
                out.extend(batch.iter());
            }
            out
        };
        assert_eq!(hash_pair_wise, hash_batch_wise);
    }

    #[test]
    fn empty_inputs_produce_empty_output() {
        let some = vec![(n(1), n(2))];
        let merge = MergeJoinOp::new(
            Box::new(by_target(vec![])),
            Box::new(by_source(some.clone())),
        );
        assert!(collect_pairs(merge).unwrap().is_empty());
        let hash = HashJoinOp::new(
            Box::new(MaterializedOp::new(some, Sortedness::Unsorted)),
            Box::new(MaterializedOp::new(vec![], Sortedness::Unsorted)),
        );
        assert!(collect_pairs(hash).unwrap().is_empty());
    }

    #[test]
    fn disjoint_keys_produce_empty_output() {
        let left = vec![(n(1), n(5)), (n(2), n(6))];
        let right = vec![(n(7), n(1)), (n(8), n(2))];
        let merge = MergeJoinOp::new(
            Box::new(by_target(left.clone())),
            Box::new(by_source(right.clone())),
        );
        assert!(collect_pairs(merge).unwrap().is_empty());
    }

    /// A stream that yields one pair, then an error, then (wrongly, like a
    /// drained backend scan would) a clean end — the shape that could trick a
    /// join into returning silently partial results on re-poll.
    struct FailingOp {
        yielded: bool,
        errored: bool,
        sortedness: Sortedness,
    }

    impl FailingOp {
        fn new(sortedness: Sortedness) -> Self {
            FailingOp {
                yielded: false,
                errored: false,
                sortedness,
            }
        }
    }

    impl PairStream for FailingOp {
        fn next_pair(&mut self) -> pathix_index::BackendResult<Option<Pair>> {
            if !self.yielded {
                self.yielded = true;
                return Ok(Some((n(1), n(10))));
            }
            if !self.errored {
                self.errored = true;
                return Err(pathix_index::BackendError::new("test", "page torn"));
            }
            Ok(None)
        }

        fn sortedness(&self) -> Sortedness {
            self.sortedness
        }
    }

    #[test]
    fn joins_stay_poisoned_after_a_backend_error() {
        // Hash join: the error hits while building the right side; polling
        // again must re-raise it, not answer from a partial hash table.
        let mut hash = HashJoinOp::new(
            Box::new(by_source(vec![(n(1), n(10)), (n(2), n(10))])),
            Box::new(FailingOp::new(Sortedness::BySource)),
        );
        let first = hash.next_pair();
        assert!(first.is_err(), "build-side error must surface");
        let second = hash.next_pair();
        assert_eq!(
            first.unwrap_err(),
            second.unwrap_err(),
            "hash join must stay poisoned"
        );

        // Merge join: the error hits while batching up the left input (the
        // operator buffers ahead of the first emitted pair).
        let mut merge = MergeJoinOp::new(
            Box::new(FailingOp::new(Sortedness::ByTarget)),
            Box::new(by_source(vec![(n(10), n(20)), (n(10), n(21))])),
        );
        let first = merge.next_pair();
        assert!(first.is_err(), "input error must surface");
        let second = merge.next_pair();
        assert_eq!(
            first.unwrap_err(),
            second.unwrap_err(),
            "merge join must stay poisoned"
        );
    }

    #[test]
    #[should_panic(expected = "sorted by target")]
    fn merge_join_rejects_unsorted_left() {
        let _ = MergeJoinOp::new(
            Box::new(MaterializedOp::new(vec![], Sortedness::Unsorted)),
            Box::new(by_source(vec![])),
        );
    }

    #[test]
    #[should_panic(expected = "sorted by source")]
    fn merge_join_rejects_unsorted_right() {
        let _ = MergeJoinOp::new(
            Box::new(by_target(vec![])),
            Box::new(MaterializedOp::new(vec![], Sortedness::Unsorted)),
        );
    }
}
