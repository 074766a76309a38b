//! Leaf operators: index scans, the identity relation, materialized inputs.

use crate::operator::{Pair, PairStream, Sortedness};
use pathix_graph::NodeId;
use pathix_graph::SignedLabel;
use pathix_index::backend::{BackendBatchScan, BackendResult, PairBatch, PathIndexBackend};
use pathix_rpq::ast::inverse_path;

/// Whether an index scan reads the path itself or its inverse.
///
/// Scanning the inverse path `p⁻` yields the same relation `p(G)` (after
/// swapping the pair back into `(source, target)` orientation) but ordered by
/// the path's **target** — the paper's device for making merge joins
/// applicable ("the subexpression has been inverted to obtain the correct
/// sort order").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOrientation {
    /// Scan `p`: pairs arrive in `(source, target)` order.
    Forward,
    /// Scan `p⁻` and swap: pairs arrive in `(target, source)`-major order.
    Inverse,
}

/// A prefix scan of a k-path index backend for one label path.
///
/// The operator is built against any [`PathIndexBackend`] — the in-memory
/// chunk runs (plain or compressed) or the buffer-pool-backed paged index —
/// and streams whatever the backend streams, surfacing its errors.
pub struct IndexScanOp<'a> {
    scan: BackendBatchScan<'a>,
    orientation: ScanOrientation,
    /// Buffer serving pair-at-a-time pulls (cursor streaming); batch pulls
    /// drain any buffered remainder first so mixed pulls stay in order.
    buf: PairBatch,
    pos: usize,
}

impl<'a> IndexScanOp<'a> {
    /// Creates a scan of `path` over `index` with the given orientation.
    ///
    /// Fails (with the backend's error) if the scan cannot be opened, e.g.
    /// when the first page of a disk-resident index cannot be read or the
    /// path length violates the planner contract.
    pub fn new<B: PathIndexBackend + ?Sized>(
        index: &'a B,
        path: &[SignedLabel],
        orientation: ScanOrientation,
    ) -> BackendResult<Self> {
        let scan = match orientation {
            ScanOrientation::Forward => index.scan_path_batches(path)?,
            ScanOrientation::Inverse => index.scan_path_batches(&inverse_path(path))?,
        };
        Ok(IndexScanOp {
            scan,
            orientation,
            buf: PairBatch::new(),
            pos: 0,
        })
    }

    /// Pulls the next backend batch into `batch`, restoring the semantic
    /// `(source, target)` orientation for inverse scans. An associated
    /// function over disjoint fields so it composes with a borrowed
    /// `self.buf`.
    fn fill(
        scan: &mut BackendBatchScan<'a>,
        orientation: ScanOrientation,
        batch: &mut PairBatch,
    ) -> BackendResult<usize> {
        let n = scan.next_batch(batch)?;
        // The index stores the inverse path's pairs as (target, source of the
        // original path); swap the columns back so the semantic orientation
        // is uniform while the physical order stays target-major.
        if n > 0 && orientation == ScanOrientation::Inverse {
            batch.swap_columns();
        }
        Ok(n)
    }
}

impl PairStream for IndexScanOp<'_> {
    fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
        if self.pos >= self.buf.len() {
            self.pos = 0;
            if Self::fill(&mut self.scan, self.orientation, &mut self.buf)? == 0 {
                return Ok(None);
            }
        }
        let pair = self.buf.get(self.pos);
        self.pos += 1;
        Ok(Some(pair))
    }

    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        if self.pos < self.buf.len() {
            // Flush the remainder of the pair-serving buffer first.
            batch.clear();
            while self.pos < self.buf.len() && !batch.is_full() {
                batch.push(self.buf.get(self.pos));
                self.pos += 1;
            }
            return Ok(batch.len());
        }
        Self::fill(&mut self.scan, self.orientation, batch)
    }

    fn sortedness(&self) -> Sortedness {
        match self.orientation {
            ScanOrientation::Forward => Sortedness::BySource,
            ScanOrientation::Inverse => Sortedness::ByTarget,
        }
    }
}

/// The identity relation `ε(G) = {(n, n) | n ∈ nodes(G)}`.
pub struct EpsilonScanOp {
    next: u32,
    node_count: u32,
}

impl EpsilonScanOp {
    /// Creates the identity scan for a graph with `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        EpsilonScanOp {
            next: 0,
            node_count: node_count as u32,
        }
    }
}

impl PairStream for EpsilonScanOp {
    fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
        if self.next >= self.node_count {
            return Ok(None);
        }
        let n = NodeId(self.next);
        self.next += 1;
        Ok(Some((n, n)))
    }

    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        batch.clear();
        while self.next < self.node_count && !batch.is_full() {
            let n = NodeId(self.next);
            self.next += 1;
            batch.push((n, n));
        }
        Ok(batch.len())
    }

    fn sortedness(&self) -> Sortedness {
        Sortedness::Both
    }
}

/// A pre-materialized pair stream (used for intermediate results and tests).
pub struct MaterializedOp {
    pairs: Vec<Pair>,
    pos: usize,
    sortedness: Sortedness,
}

impl MaterializedOp {
    /// Wraps an already-computed pair list. The caller is responsible for the
    /// `sortedness` claim being accurate.
    pub fn new(pairs: Vec<Pair>, sortedness: Sortedness) -> Self {
        MaterializedOp {
            pairs,
            pos: 0,
            sortedness,
        }
    }
}

impl PairStream for MaterializedOp {
    fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
        let pair = self.pairs.get(self.pos).copied();
        self.pos += pair.is_some() as usize;
        Ok(pair)
    }

    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        batch.clear();
        let take = batch.capacity().min(self.pairs.len() - self.pos);
        batch.extend_from_pairs(&self.pairs[self.pos..self.pos + take]);
        self.pos += take;
        Ok(batch.len())
    }

    fn sortedness(&self) -> Sortedness {
        self.sortedness
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::collect_pairs;
    use pathix_datagen::paper_example_graph;
    use pathix_index::{naive_path_eval, SharedKPathIndex};

    #[test]
    fn forward_scan_is_source_sorted_and_complete() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 2);
        let knows = SignedLabel::forward(g.label_id("knows").unwrap());
        let path = vec![knows, knows];
        let mut scan = IndexScanOp::new(&index, &path, ScanOrientation::Forward).unwrap();
        assert_eq!(scan.sortedness(), Sortedness::BySource);
        let mut pairs = Vec::new();
        while let Some(p) = scan.next_pair().unwrap() {
            pairs.push(p);
        }
        assert!(pairs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(pairs, naive_path_eval(&g, &path));
    }

    #[test]
    fn inverse_scan_yields_same_relation_target_sorted() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 2);
        let knows = SignedLabel::forward(g.label_id("knows").unwrap());
        let works = SignedLabel::forward(g.label_id("worksFor").unwrap());
        let path = vec![knows, works];
        let mut scan = IndexScanOp::new(&index, &path, ScanOrientation::Inverse).unwrap();
        assert_eq!(scan.sortedness(), Sortedness::ByTarget);
        let mut pairs = Vec::new();
        while let Some(p) = scan.next_pair().unwrap() {
            pairs.push(p);
        }
        // Target-major order.
        assert!(pairs
            .windows(2)
            .all(|w| (w[0].1, w[0].0) <= (w[1].1, w[1].0)));
        // Same relation as the forward scan.
        let mut sorted = pairs;
        sorted.sort_unstable();
        assert_eq!(sorted, naive_path_eval(&g, &path));
    }

    #[test]
    fn scans_work_through_a_trait_object() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 2);
        let backend: &dyn PathIndexBackend = &index;
        let knows = SignedLabel::forward(g.label_id("knows").unwrap());
        let path = vec![knows];
        let scan = IndexScanOp::new(backend, &path, ScanOrientation::Forward).unwrap();
        assert_eq!(collect_pairs(scan).unwrap(), naive_path_eval(&g, &path));
    }

    #[test]
    fn contract_violations_surface_as_errors() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 1);
        let knows = SignedLabel::forward(g.label_id("knows").unwrap());
        let err = IndexScanOp::new(&index, &[knows, knows], ScanOrientation::Forward);
        assert!(err.is_err(), "scanning past k must error, not panic");
    }

    #[test]
    fn epsilon_scan_is_identity() {
        let g = paper_example_graph();
        let scan = EpsilonScanOp::new(g.node_count());
        let pairs = collect_pairs(scan).unwrap();
        assert_eq!(pairs.len(), g.node_count());
        assert!(pairs.iter().all(|&(a, b)| a == b));
    }

    #[test]
    fn mixed_pair_and_batch_pulls_observe_each_pair_once() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 2);
        let knows = SignedLabel::forward(g.label_id("knows").unwrap());
        let works = SignedLabel::forward(g.label_id("worksFor").unwrap());
        let path = vec![knows, works];
        let reference: Vec<Pair> = {
            let mut scan = IndexScanOp::new(&index, &path, ScanOrientation::Inverse).unwrap();
            let mut pairs = Vec::new();
            while let Some(p) = scan.next_pair().unwrap() {
                pairs.push(p);
            }
            pairs
        };
        // Pull two pairs, then drain batch-at-a-time: same pairs, same order.
        let mut scan = IndexScanOp::new(&index, &path, ScanOrientation::Inverse).unwrap();
        let mut mixed = Vec::new();
        for _ in 0..2 {
            mixed.push(scan.next_pair().unwrap().unwrap());
        }
        let mut batch = PairBatch::with_capacity(3);
        while scan.next_batch(&mut batch).unwrap() > 0 {
            mixed.extend(batch.iter());
        }
        assert_eq!(mixed, reference);
    }

    #[test]
    fn materialized_passes_through() {
        let n = NodeId;
        let op = MaterializedOp::new(vec![(n(0), n(1)), (n(2), n(3))], Sortedness::BySource);
        assert_eq!(op.sortedness(), Sortedness::BySource);
        assert_eq!(collect_pairs(op).unwrap().len(), 2);
    }
}
