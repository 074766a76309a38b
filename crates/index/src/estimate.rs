//! Cardinality estimation for label paths and joins.
//!
//! The planner's cost model needs cardinality estimates for
//!
//! * sub-paths of length ≤ k — answered directly by the
//!   [`PathHistogram`],
//! * longer paths (whole disjuncts) — estimated by decomposing the path into
//!   length-≤k chunks and combining the chunk estimates under the standard
//!   attribute-independence assumption,
//! * join results — estimated with the same independence assumption over the
//!   node domain.

use crate::histogram::PathHistogram;
use pathix_graph::SignedLabel;

/// Estimates cardinalities of label-path relations and joins over a graph
/// with `node_count` nodes.
#[derive(Debug, Clone)]
pub struct CardinalityEstimator<'a> {
    histogram: &'a PathHistogram,
    node_count: usize,
}

impl<'a> CardinalityEstimator<'a> {
    /// Creates an estimator backed by `histogram` for a graph with
    /// `node_count` nodes.
    pub fn new(histogram: &'a PathHistogram, node_count: usize) -> Self {
        CardinalityEstimator {
            histogram,
            node_count: node_count.max(1),
        }
    }

    /// The underlying histogram.
    pub fn histogram(&self) -> &PathHistogram {
        self.histogram
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Estimated cardinality of `path(G)` for a path of any length.
    ///
    /// Paths of length ≤ k use the histogram directly; longer paths are cut
    /// into consecutive chunks of length k (the last chunk may be shorter)
    /// and combined as
    /// `|c₁| · Π (|cᵢ| / |V|)` — each additional chunk acts as a filter whose
    /// matching probability is `|cᵢ| / (|V|·|V|)` applied to `|V|` candidate
    /// extensions.
    ///
    /// Every chunk estimate is clamped to a floor of 1: a chunk absent from
    /// the histogram (or summarized at zero) would otherwise zero out the
    /// whole product, collapsing the `minSupport`/`minJoin` cost ordering —
    /// every candidate plan containing such a chunk would cost the same 0 and
    /// the planner would pick arbitrarily.
    pub fn path_cardinality(&self, path: &[SignedLabel]) -> f64 {
        if path.is_empty() {
            return self.node_count as f64;
        }
        let k = self.histogram.k();
        if path.len() <= k {
            return self.chunk_cardinality(path);
        }
        let (first, rest) = path.split_at(k);
        let mut estimate = self.chunk_cardinality(first);
        for chunk in rest.chunks(k) {
            estimate = self.join_cardinality(estimate, self.chunk_cardinality(chunk));
        }
        estimate
    }

    /// Histogram estimate for a chunk of length ≤ k, floored at 1.
    fn chunk_cardinality(&self, chunk: &[SignedLabel]) -> f64 {
        self.histogram
            .estimated_cardinality(chunk)
            .unwrap_or(0.0)
            .max(1.0)
    }

    /// Estimated cardinality of joining two pair relations on a shared node
    /// column: `|L| · |R| / |V|` (independence over the join domain).
    pub fn join_cardinality(&self, left: f64, right: f64) -> f64 {
        (left * right) / self.node_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::EstimationMode;
    use pathix_graph::SignedLabel;

    fn sl(code: u16) -> SignedLabel {
        SignedLabel::from_code(code)
    }

    fn histogram() -> PathHistogram {
        let counts = vec![
            (vec![sl(0)], 100),
            (vec![sl(1)], 50),
            (vec![sl(0), sl(1)], 200),
            (vec![sl(1), sl(0)], 40),
        ];
        PathHistogram::build(&counts, 2, EstimationMode::Exact)
    }

    #[test]
    fn short_paths_use_the_histogram_directly() {
        let h = histogram();
        let est = CardinalityEstimator::new(&h, 100);
        assert_eq!(est.path_cardinality(&[sl(0)]), 100.0);
        assert_eq!(est.path_cardinality(&[sl(0), sl(1)]), 200.0);
    }

    #[test]
    fn long_paths_combine_chunks_with_independence() {
        let h = histogram();
        let est = CardinalityEstimator::new(&h, 100);
        // Path of length 3 = chunk [0,1] (200) then chunk [0] (100):
        // 200 * 100 / 100 = 200.
        let card = est.path_cardinality(&[sl(0), sl(1), sl(0)]);
        assert!((card - 200.0).abs() < 1e-9);
        // Length 4 = [0,1] then [1,0]: 200 * 40 / 100 = 80.
        let card = est.path_cardinality(&[sl(0), sl(1), sl(1), sl(0)]);
        assert!((card - 80.0).abs() < 1e-9);
    }

    #[test]
    fn empty_path_estimates_node_count() {
        let h = histogram();
        let est = CardinalityEstimator::new(&h, 42);
        assert_eq!(est.path_cardinality(&[]), 42.0);
    }

    #[test]
    fn join_cardinality_uses_independence() {
        let h = histogram();
        let est = CardinalityEstimator::new(&h, 10);
        assert_eq!(est.join_cardinality(30.0, 20.0), 60.0);
    }

    #[test]
    fn unknown_chunks_floor_at_one() {
        let h = histogram();
        let est = CardinalityEstimator::new(&h, 100);
        // A path absent from the histogram estimates the floor, not zero...
        assert_eq!(est.path_cardinality(&[sl(7)]), 1.0);
        // ...and an unknown chunk no longer zeroes out the whole product:
        // chunk [0,1] (200) joined with chunk [7] (floored to 1) over 100
        // nodes.
        assert_eq!(est.path_cardinality(&[sl(0), sl(1), sl(7)]), 2.0);
    }
}
