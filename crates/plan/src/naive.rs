//! The naive strategy: k fixed at 1.
//!
//! The paper's naive method indexes edge labels only ("which corresponds to
//! automaton-based evaluation"): every disjunct is cut into single-label
//! scans that are composed left to right. It runs against any k-path index
//! because length-1 paths are always present, so its runtime does not change
//! with k — exactly the flat "naive" line of Figure 2.

use crate::plan::PhysicalPlan;
use crate::planner::PlannerContext;
use pathix_index::PathIndexBackend;
use pathix_rpq::LabelPath;

/// Plans one non-empty disjunct with single-label scans composed left to
/// right.
pub fn plan_disjunct<B: PathIndexBackend + ?Sized>(
    disjunct: &LabelPath,
    _ctx: &PlannerContext<'_, B>,
) -> PhysicalPlan {
    debug_assert!(!disjunct.is_empty());
    let mut plan = PhysicalPlan::scan(vec![disjunct[0]]);
    for &step in &disjunct[1..] {
        plan = PhysicalPlan::compose(plan, PhysicalPlan::scan(vec![step]));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinAlgorithm;
    use crate::planner::PlannerContext;
    use pathix_datagen::paper_example_graph;
    use pathix_graph::SignedLabel;
    use pathix_index::{EstimationMode, PathHistogram, SharedKPathIndex};

    fn ctx_fixture(k: usize) -> (SharedKPathIndex, PathHistogram) {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, k);
        let hist = PathHistogram::build(index.per_path_counts(), k, EstimationMode::Exact);
        (index, hist)
    }

    #[test]
    fn every_scan_is_a_single_label() {
        let (index, hist) = ctx_fixture(3);
        let ctx = PlannerContext::new(&index, &hist);
        let disjunct: LabelPath = (0..5).map(|c| SignedLabel::from_code(c % 4)).collect();
        let plan = plan_disjunct(&disjunct, &ctx);
        assert_eq!(plan.scan_count(), 5);
        assert_eq!(plan.join_count(), 4);
        assert_eq!(plan.max_scanned_path_len(), 1);
    }

    #[test]
    fn first_join_is_merge_rest_are_hash() {
        let (index, hist) = ctx_fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        let disjunct: LabelPath = (0..4).map(SignedLabel::from_code).collect();
        let plan = plan_disjunct(&disjunct, &ctx);
        // Left-deep tree: only the innermost (first) join has two leaf scans.
        assert_eq!(plan.merge_join_count(), 1);
        assert_eq!(plan.join_count(), 3);
        match plan {
            PhysicalPlan::Join { algorithm, .. } => assert_eq!(algorithm, JoinAlgorithm::Hash),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_label_disjunct_is_just_a_scan() {
        let (index, hist) = ctx_fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        let disjunct = vec![SignedLabel::from_code(0)];
        let plan = plan_disjunct(&disjunct, &ctx);
        assert!(matches!(plan, PhysicalPlan::IndexScan { .. }));
    }
}
