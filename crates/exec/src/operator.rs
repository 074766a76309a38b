//! The operator protocol shared by all physical operators.

use pathix_graph::NodeId;
use pathix_index::backend::{BackendResult, PairBatch};

/// A partial query result: the start node of the matched path prefix and the
/// current frontier node.
pub type Pair = (NodeId, NodeId);

/// The order in which an operator emits its pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sortedness {
    /// Sorted by `(source, target)`.
    BySource,
    /// Sorted by `(target, source)`.
    ByTarget,
    /// Sorted under both interpretations (only the identity relation).
    Both,
    /// No usable order.
    Unsorted,
}

impl Sortedness {
    /// `true` if a consumer needing source-major order can use this stream.
    pub fn is_by_source(self) -> bool {
        matches!(self, Sortedness::BySource | Sortedness::Both)
    }

    /// `true` if a consumer needing target-major order can use this stream.
    pub fn is_by_target(self) -> bool {
        matches!(self, Sortedness::ByTarget | Sortedness::Both)
    }
}

/// A pull-based stream of node pairs, produced either one pair or one
/// [`PairBatch`] at a time.
///
/// Both pulls are fallible: index scans may read from disk-resident backends,
/// so any operator (and anything stacked on top of one) can surface a
/// [`pathix_index::BackendError`] instead of a pair. Operators propagate
/// errors upward unchanged; the executor converts them into query errors.
///
/// `next_pair` and `next_batch` have default implementations in terms of each
/// other, so an implementor must override **at least one** (overriding
/// neither recurses). The built-in operators override both: `next_batch` is
/// the fast bulk path used by `collect_pairs` and the plan executor, while
/// `next_pair` serves cursor streaming and `limit`/`exists` early
/// termination. Both pulls draw from the same underlying position — mixing
/// them observes each pair exactly once, in the same order.
///
/// An implementor that only knows how to produce one pair at a time gets
/// the batch pull for free:
///
/// ```
/// use pathix_exec::{Pair, PairBatch, PairStream, Sortedness};
/// use pathix_graph::NodeId;
/// use pathix_index::BackendResult;
///
/// /// The pairs (0, 1), (1, 2), … (n − 1, n).
/// struct Chain {
///     next: u32,
///     n: u32,
/// }
///
/// impl PairStream for Chain {
///     fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
///         if self.next == self.n {
///             return Ok(None);
///         }
///         self.next += 1;
///         Ok(Some((NodeId(self.next - 1), NodeId(self.next))))
///     }
///
///     fn sortedness(&self) -> Sortedness {
///         Sortedness::BySource
///     }
/// }
///
/// let mut chain = Chain { next: 0, n: 5 };
/// assert_eq!(chain.next_pair().unwrap(), Some((NodeId(0), NodeId(1))));
/// let mut batch = PairBatch::with_capacity(3);
/// assert_eq!(chain.next_batch(&mut batch).unwrap(), 3);
/// assert_eq!(batch.get(0), (NodeId(1), NodeId(2)));
/// assert_eq!(chain.next_batch(&mut batch).unwrap(), 1); // a short batch …
/// assert_eq!(chain.next_batch(&mut batch).unwrap(), 0); // … then exhausted
/// assert_eq!(chain.next_pair().unwrap(), None);
/// ```
pub trait PairStream {
    /// Produces the next pair, `Ok(None)` when exhausted, or the backend
    /// error that interrupted the scan.
    ///
    /// The default pulls a capacity-1 batch, which allocates per call; batch
    /// producers that expect pair-at-a-time consumers should override this
    /// with a buffered implementation.
    fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
        let mut one = PairBatch::with_capacity(1);
        Ok(if self.next_batch(&mut one)? == 0 {
            None
        } else {
            Some(one.get(0))
        })
    }

    /// Clears `batch` and refills it with up to `batch.capacity()` of the
    /// stream's next pairs, in stream order. Returns how many pairs were
    /// produced; `Ok(0)` means the stream is exhausted. Producers may return
    /// short, non-empty batches mid-stream — consumers keep pulling until 0.
    ///
    /// The default loops `next_pair`, which preserves semantics for
    /// pair-at-a-time implementors but forfeits the bulk-movement win.
    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        batch.clear();
        while !batch.is_full() {
            match self.next_pair()? {
                Some(pair) => batch.push(pair),
                None => break,
            }
        }
        Ok(batch.len())
    }

    /// The order guarantee of this stream.
    fn sortedness(&self) -> Sortedness;
}

/// Owned, dynamically dispatched pair stream (operators borrow the index, so
/// the lifetime ties the stream to it).
pub type BoxedPairStream<'a> = Box<dyn PairStream + 'a>;

impl<'a> PairStream for BoxedPairStream<'a> {
    fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
        (**self).next_pair()
    }

    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        (**self).next_batch(batch)
    }

    fn sortedness(&self) -> Sortedness {
        (**self).sortedness()
    }
}

/// Drains a stream into a sorted, duplicate-free vector — the final
/// set-semantics answer of an RPQ — or the first backend error encountered.
/// Drains batch-at-a-time.
pub fn collect_pairs(mut stream: impl PairStream) -> BackendResult<Vec<Pair>> {
    let mut out = Vec::new();
    let mut batch = PairBatch::new();
    while stream.next_batch(&mut batch)? > 0 {
        out.extend(batch.iter());
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::MaterializedOp;

    #[test]
    fn sortedness_predicates() {
        assert!(Sortedness::BySource.is_by_source());
        assert!(!Sortedness::BySource.is_by_target());
        assert!(Sortedness::ByTarget.is_by_target());
        assert!(Sortedness::Both.is_by_source() && Sortedness::Both.is_by_target());
        assert!(!Sortedness::Unsorted.is_by_source());
        assert!(!Sortedness::Unsorted.is_by_target());
    }

    #[test]
    fn collect_pairs_sorts_and_dedups() {
        let n = NodeId;
        let stream = MaterializedOp::new(
            vec![(n(3), n(1)), (n(1), n(2)), (n(3), n(1)), (n(0), n(9))],
            Sortedness::Unsorted,
        );
        assert_eq!(
            collect_pairs(stream).unwrap(),
            vec![(n(0), n(9)), (n(1), n(2)), (n(3), n(1))]
        );
    }

    #[test]
    fn boxed_stream_delegates() {
        let n = NodeId;
        let inner = MaterializedOp::new(vec![(n(1), n(1))], Sortedness::Both);
        let mut boxed: BoxedPairStream<'_> = Box::new(inner);
        assert_eq!(boxed.sortedness(), Sortedness::Both);
        assert_eq!(boxed.next_pair().unwrap(), Some((n(1), n(1))));
        assert_eq!(boxed.next_pair().unwrap(), None);
    }

    /// An operator that only implements `next_pair`, exercising the default
    /// `next_batch` shim.
    struct PairOnly {
        next: u32,
        end: u32,
    }

    impl PairStream for PairOnly {
        fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
            if self.next >= self.end {
                return Ok(None);
            }
            let i = self.next;
            self.next += 1;
            Ok(Some((NodeId(i), NodeId(i + 100))))
        }

        fn sortedness(&self) -> Sortedness {
            Sortedness::BySource
        }
    }

    #[test]
    fn default_next_batch_wraps_a_pair_at_a_time_operator() {
        let mut op = PairOnly { next: 0, end: 5 };
        let mut batch = PairBatch::with_capacity(3);
        assert_eq!(op.next_batch(&mut batch).unwrap(), 3);
        assert_eq!(batch.get(2), (NodeId(2), NodeId(102)));
        assert_eq!(op.next_batch(&mut batch).unwrap(), 2);
        assert_eq!(op.next_batch(&mut batch).unwrap(), 0);
    }

    /// An operator that only implements `next_batch`, exercising the default
    /// `next_pair` shim.
    struct BatchOnly {
        pairs: Vec<Pair>,
        pos: usize,
    }

    impl PairStream for BatchOnly {
        fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
            batch.clear();
            while self.pos < self.pairs.len() && !batch.is_full() {
                batch.push(self.pairs[self.pos]);
                self.pos += 1;
            }
            Ok(batch.len())
        }

        fn sortedness(&self) -> Sortedness {
            Sortedness::Unsorted
        }
    }

    #[test]
    fn default_next_pair_wraps_a_batch_only_operator() {
        let n = NodeId;
        let mut op = BatchOnly {
            pairs: vec![(n(1), n(2)), (n(3), n(4))],
            pos: 0,
        };
        assert_eq!(op.next_pair().unwrap(), Some((n(1), n(2))));
        assert_eq!(op.next_pair().unwrap(), Some((n(3), n(4))));
        assert_eq!(op.next_pair().unwrap(), None);
    }
}
