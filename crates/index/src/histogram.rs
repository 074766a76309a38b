//! The k-path histogram `sel_{G,k}` (Section 3.2 of the paper).
//!
//! The paper's selectivity divides `|p(G)|` by the number of node pairs that
//! any path of length ≤ k connects. Every decision the planners take
//! compares two such values, so that shared denominator cancels and the
//! histogram estimates the cardinality `|p(G)|` itself, for every label path
//! `p` with `|p| ≤ k`. Following the paper we implement it as an
//! **equi-depth histogram** over the per-path cardinalities: paths are
//! sorted by cardinality and grouped into buckets of (approximately) equal
//! total depth, and every path in a bucket is estimated by the bucket mean.
//! An exact mode (one count per path) is kept for the histogram ablation
//! (`run_experiments ablation`).

use pathix_graph::SignedLabel;
use std::collections::HashMap;

/// How path cardinalities are summarized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimationMode {
    /// Store the exact cardinality of every path (upper bound on histogram
    /// quality; more space).
    Exact,
    /// Equi-depth histogram with the given number of buckets (the paper's
    /// choice; constant space per bucket).
    EquiDepth {
        /// Number of buckets.
        buckets: usize,
    },
}

impl Default for EstimationMode {
    fn default() -> Self {
        EstimationMode::EquiDepth { buckets: 32 }
    }
}

/// Summary of one equi-depth bucket, for diagnostics and the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketSummary {
    /// Number of label paths assigned to the bucket.
    pub paths: usize,
    /// Sum of the exact cardinalities of those paths.
    pub total_count: u64,
    /// The estimate every member path receives.
    pub estimate: f64,
    /// Smallest exact cardinality in the bucket.
    pub min_count: u64,
    /// Largest exact cardinality in the bucket.
    pub max_count: u64,
}

/// The cardinality estimation structure for label paths of length ≤ k.
#[derive(Debug, Clone, PartialEq)]
pub struct PathHistogram {
    k: usize,
    mode: EstimationMode,
    estimates: HashMap<Vec<SignedLabel>, f64>,
    buckets: Vec<BucketSummary>,
}

impl PathHistogram {
    /// Builds the histogram from exact per-path counts (a backend's
    /// [`crate::PathIndexBackend::per_path_counts`]).
    pub fn build(
        per_path_counts: &[(Vec<SignedLabel>, u64)],
        k: usize,
        mode: EstimationMode,
    ) -> Self {
        let mut estimates = HashMap::with_capacity(per_path_counts.len());
        let mut buckets = Vec::new();
        match mode {
            EstimationMode::Exact => {
                for (path, count) in per_path_counts {
                    estimates.insert(path.clone(), *count as f64);
                }
                if !per_path_counts.is_empty() {
                    let total: u64 = per_path_counts.iter().map(|(_, c)| *c).sum();
                    buckets.push(BucketSummary {
                        paths: per_path_counts.len(),
                        total_count: total,
                        estimate: total as f64 / per_path_counts.len() as f64,
                        min_count: per_path_counts.iter().map(|(_, c)| *c).min().unwrap_or(0),
                        max_count: per_path_counts.iter().map(|(_, c)| *c).max().unwrap_or(0),
                    });
                }
            }
            EstimationMode::EquiDepth { buckets: requested } => {
                let requested = requested.max(1);
                let mut sorted: Vec<(&Vec<SignedLabel>, u64)> =
                    per_path_counts.iter().map(|(p, c)| (p, *c)).collect();
                sorted.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
                let grand_total: u64 = sorted.iter().map(|(_, c)| *c).sum();
                let depth_target = (grand_total as f64 / requested as f64).max(1.0);
                let mut current: Vec<(&Vec<SignedLabel>, u64)> = Vec::new();
                let mut current_depth = 0u64;
                let flush = |members: &mut Vec<(&Vec<SignedLabel>, u64)>,
                             estimates: &mut HashMap<Vec<SignedLabel>, f64>,
                             buckets: &mut Vec<BucketSummary>| {
                    if members.is_empty() {
                        return;
                    }
                    let total: u64 = members.iter().map(|(_, c)| *c).sum();
                    let estimate = total as f64 / members.len() as f64;
                    buckets.push(BucketSummary {
                        paths: members.len(),
                        total_count: total,
                        estimate,
                        min_count: members.iter().map(|(_, c)| *c).min().unwrap_or(0),
                        max_count: members.iter().map(|(_, c)| *c).max().unwrap_or(0),
                    });
                    for (path, _) in members.drain(..) {
                        estimates.insert(path.clone(), estimate);
                    }
                };
                for (path, count) in sorted {
                    // Close the current bucket before a heavy path would blow
                    // past the depth target; heavy hitters then occupy their
                    // own buckets, which keeps light paths' estimates tight.
                    if !current.is_empty() && (current_depth + count) as f64 > depth_target {
                        flush(&mut current, &mut estimates, &mut buckets);
                        current_depth = 0;
                    }
                    current.push((path, count));
                    current_depth += count;
                }
                flush(&mut current, &mut estimates, &mut buckets);
            }
        }
        PathHistogram {
            k,
            mode,
            estimates,
            buckets,
        }
    }

    /// The locality parameter k of the underlying index.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The estimation mode the histogram was built with.
    pub fn mode(&self) -> EstimationMode {
        self.mode
    }

    /// Bucket summaries (one entry in [`EstimationMode::Exact`] mode).
    pub fn buckets(&self) -> &[BucketSummary] {
        &self.buckets
    }

    /// Estimated cardinality `|p(G)|` for a path of length ≤ k.
    ///
    /// Returns `None` when `|p| > k` (the histogram cannot answer); returns
    /// `Some(0.0)` for in-range paths whose relation is empty.
    pub fn estimated_cardinality(&self, path: &[SignedLabel]) -> Option<f64> {
        if path.is_empty() || path.len() > self.k {
            return None;
        }
        Some(self.estimates.get(path).copied().unwrap_or(0.0))
    }

    /// Number of paths the histogram knows about.
    pub fn path_count(&self) -> usize {
        self.estimates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_graph::LabelId;

    fn sl(code: u16) -> SignedLabel {
        SignedLabel::from_code(code)
    }

    fn sample_counts() -> Vec<(Vec<SignedLabel>, u64)> {
        vec![
            (vec![sl(0)], 100),
            (vec![sl(1)], 10),
            (vec![sl(2)], 12),
            (vec![sl(3)], 95),
            (vec![sl(0), sl(1)], 500),
            (vec![sl(1), sl(0)], 500),
            (vec![sl(2), sl(3)], 3),
            (vec![sl(3), sl(2)], 3),
        ]
    }

    #[test]
    fn exact_mode_returns_exact_counts() {
        let h = PathHistogram::build(&sample_counts(), 2, EstimationMode::Exact);
        assert_eq!(h.estimated_cardinality(&[sl(0)]), Some(100.0));
        assert_eq!(h.estimated_cardinality(&[sl(2), sl(3)]), Some(3.0));
        assert_eq!(h.buckets().len(), 1);
    }

    #[test]
    fn equi_depth_buckets_have_similar_depth() {
        let h = PathHistogram::build(
            &sample_counts(),
            2,
            EstimationMode::EquiDepth { buckets: 4 },
        );
        assert!(h.buckets().len() >= 2, "expected multiple buckets");
        let depths: Vec<u64> = h.buckets().iter().map(|b| b.total_count).collect();
        let max = *depths.iter().max().unwrap();
        // No bucket should be empty.
        assert!(depths.iter().all(|&d| d > 0));
        // Every bucket except possibly the last should be at least a fraction
        // of the largest.
        assert!(depths[..depths.len() - 1].iter().all(|&d| d * 8 >= max));
    }

    #[test]
    fn equi_depth_preserves_relative_order_of_extremes() {
        let h = PathHistogram::build(
            &sample_counts(),
            2,
            EstimationMode::EquiDepth { buckets: 4 },
        );
        let rare = h.estimated_cardinality(&[sl(2), sl(3)]).unwrap();
        let common = h.estimated_cardinality(&[sl(0), sl(1)]).unwrap();
        assert!(
            rare < common,
            "rare path ({rare}) should estimate below common path ({common})"
        );
    }

    #[test]
    fn unknown_but_in_range_paths_estimate_zero() {
        let h = PathHistogram::build(&sample_counts(), 2, EstimationMode::default());
        let missing = vec![SignedLabel::forward(LabelId(40))];
        assert_eq!(h.estimated_cardinality(&missing), Some(0.0));
    }

    #[test]
    fn out_of_range_paths_are_none() {
        let h = PathHistogram::build(&sample_counts(), 2, EstimationMode::default());
        let long = vec![sl(0), sl(1), sl(2)];
        assert_eq!(h.estimated_cardinality(&long), None);
        assert_eq!(h.estimated_cardinality(&[]), None);
    }

    #[test]
    fn empty_input_builds_an_empty_histogram() {
        let h = PathHistogram::build(&[], 2, EstimationMode::default());
        assert_eq!(h.path_count(), 0);
        assert!(h.buckets().is_empty());
        assert_eq!(h.estimated_cardinality(&[sl(0)]), Some(0.0));
    }
}
