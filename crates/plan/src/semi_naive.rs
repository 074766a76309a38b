//! The semi-naive strategy: left-to-right length-k chunking.
//!
//! Section 4 of the paper: each disjunct is processed from left to right,
//! consuming k labels at a time; the first join can exploit the index sort
//! order (by scanning the inverse of the leading chunk) and is a merge join,
//! subsequent joins take an intermediate result on the left and are hash
//! joins. This reproduces the example plans of the paper, e.g. for
//! `kkwkwkww` with k = 3:
//!
//! ```text
//! [ I(w⁻k⁻k⁻) ⋈merge I(kwk) ] ⋈hash I(ww)
//! ```

use crate::plan::PhysicalPlan;
use crate::planner::PlannerContext;
use pathix_index::PathIndexBackend;
use pathix_rpq::LabelPath;

/// Splits a disjunct into consecutive chunks of at most `k` labels.
pub fn chunk_left_to_right(disjunct: &LabelPath, k: usize) -> Vec<LabelPath> {
    disjunct.chunks(k.max(1)).map(<[_]>::to_vec).collect()
}

/// Plans one disjunct by composing its length-k chunks left to right; the
/// empty disjunct has no chunk and is `ε`.
pub fn plan_disjunct<B: PathIndexBackend + ?Sized>(
    disjunct: &LabelPath,
    ctx: &PlannerContext<'_, B>,
) -> PhysicalPlan {
    chunk_left_to_right(disjunct, ctx.k())
        .into_iter()
        .map(PhysicalPlan::scan)
        .reduce(PhysicalPlan::compose)
        .unwrap_or(PhysicalPlan::Epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinAlgorithm;
    use pathix_datagen::paper_example_graph;
    use pathix_exec::ScanOrientation;
    use pathix_graph::SignedLabel;
    use pathix_index::{EstimationMode, PathHistogram, SharedKPathIndex};

    fn fixture(k: usize) -> (SharedKPathIndex, PathHistogram) {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, k);
        let hist = PathHistogram::build(index.per_path_counts(), k, EstimationMode::Exact);
        (index, hist)
    }

    fn path_of_len(n: usize) -> LabelPath {
        (0..n)
            .map(|i| SignedLabel::from_code((i % 4) as u16))
            .collect()
    }

    #[test]
    fn chunking_is_greedy_from_the_left() {
        let p = path_of_len(8);
        let chunks = chunk_left_to_right(&p, 3);
        let lens: Vec<usize> = chunks.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![3, 3, 2]);
        let rejoined: LabelPath = chunks.concat();
        assert_eq!(rejoined, p);
    }

    #[test]
    fn short_disjunct_is_a_single_scan() {
        let (index, hist) = fixture(3);
        let ctx = PlannerContext::new(&index, &hist);
        let plan = plan_disjunct(&path_of_len(3), &ctx);
        assert!(matches!(plan, PhysicalPlan::IndexScan { .. }));
        assert_eq!(plan.max_scanned_path_len(), 3);
    }

    #[test]
    fn paper_example_join_mix_for_length_eight() {
        // kkwkwkww (length 8) with k = 3: merge then hash (Section 4).
        let (index, hist) = fixture(3);
        let ctx = PlannerContext::new(&index, &hist);
        let plan = plan_disjunct(&path_of_len(8), &ctx);
        assert_eq!(plan.join_count(), 2);
        assert_eq!(plan.merge_join_count(), 1);
        match &plan {
            PhysicalPlan::Join {
                algorithm, left, ..
            } => {
                assert_eq!(*algorithm, JoinAlgorithm::Hash);
                assert_eq!(left.merge_join_count(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn leading_chunk_is_scanned_inverted_for_the_merge_join() {
        let (index, hist) = fixture(3);
        let ctx = PlannerContext::new(&index, &hist);
        let plan = plan_disjunct(&path_of_len(6), &ctx);
        match &plan {
            PhysicalPlan::Join { left, right, .. } => match (left.as_ref(), right.as_ref()) {
                (
                    PhysicalPlan::IndexScan {
                        orientation: o1, ..
                    },
                    PhysicalPlan::IndexScan {
                        orientation: o2, ..
                    },
                ) => {
                    assert_eq!(*o1, ScanOrientation::Inverse);
                    assert_eq!(*o2, ScanOrientation::Forward);
                }
                other => panic!("unexpected children {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn number_of_scans_is_ceil_n_over_k() {
        let (index, hist) = fixture(3);
        let ctx = PlannerContext::new(&index, &hist);
        for n in 1..=10 {
            let plan = plan_disjunct(&path_of_len(n), &ctx);
            assert_eq!(plan.scan_count(), n.div_ceil(3), "length {n}");
        }
    }
}
