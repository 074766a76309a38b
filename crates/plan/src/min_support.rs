//! The minSupport strategy: recursive splitting on the most selective
//! length-k sub-path.
//!
//! Following Section 4 of the paper, a disjunct `D` longer than k is split
//! around its most selective contiguous length-k sub-path `D'` (per the
//! histogram `sel_{G,k}`), the two remaining pieces are planned recursively,
//! and the alternative join orders around `D'` are costed, keeping the
//! cheapest. Scanning `D'` versus its inverse `D'⁻` (the paper's third and
//! fourth alternatives) is handled inside [`PhysicalPlan::compose`], which
//! orients leaf scans to enable merge joins automatically.

use crate::cost::cost_plan;
use crate::plan::PhysicalPlan;
use crate::planner::PlannerContext;
use pathix_index::{CardinalityEstimator, PathIndexBackend};
use pathix_rpq::LabelPath;

/// Plans one non-empty disjunct with the minSupport strategy.
pub fn plan_disjunct<B: PathIndexBackend + ?Sized>(
    disjunct: &LabelPath,
    ctx: &PlannerContext<'_, B>,
) -> PhysicalPlan {
    let estimator = ctx.estimator();
    plan_rec(disjunct, ctx, &estimator)
}

fn plan_rec<B: PathIndexBackend + ?Sized>(
    disjunct: &[pathix_graph::SignedLabel],
    ctx: &PlannerContext<'_, B>,
    estimator: &CardinalityEstimator<'_>,
) -> PhysicalPlan {
    debug_assert!(!disjunct.is_empty());
    let k = ctx.k();
    if disjunct.len() <= k {
        return PhysicalPlan::scan(disjunct.to_vec());
    }

    // Step 2: find the most selective length-k window.
    let split = most_selective_window(disjunct, k, ctx);
    let d_prime = &disjunct[split..split + k];
    let d_left = &disjunct[..split];
    let d_right = &disjunct[split + k..];

    // Step 3: recur on the left and right remainders.
    let left_plan = (!d_left.is_empty()).then(|| plan_rec(d_left, ctx, estimator));
    let right_plan = (!d_right.is_empty()).then(|| plan_rec(d_right, ctx, estimator));
    let pivot = PhysicalPlan::scan(d_prime.to_vec());

    // Step 4: cost the alternative join orders and keep the cheapest.
    match (left_plan, right_plan) {
        (None, None) => pivot,
        (Some(l), None) => PhysicalPlan::compose(l, pivot),
        (None, Some(r)) => PhysicalPlan::compose(pivot, r),
        (Some(l), Some(r)) => {
            let left_first =
                PhysicalPlan::compose(PhysicalPlan::compose(l.clone(), pivot.clone()), r.clone());
            let right_first = PhysicalPlan::compose(l, PhysicalPlan::compose(pivot, r));
            let c_left = cost_plan(&left_first, estimator).cost;
            let c_right = cost_plan(&right_first, estimator).cost;
            if c_left <= c_right {
                left_first
            } else {
                right_first
            }
        }
    }
}

/// Index of the most selective (smallest estimated cardinality) length-k
/// window of `disjunct`; ties break toward the leftmost window.
fn most_selective_window<B: PathIndexBackend + ?Sized>(
    disjunct: &[pathix_graph::SignedLabel],
    k: usize,
    ctx: &PlannerContext<'_, B>,
) -> usize {
    let histogram = ctx.histogram();
    let mut best_index = 0;
    let mut best_estimate = f64::INFINITY;
    for start in 0..=disjunct.len() - k {
        let window = &disjunct[start..start + k];
        let estimate = histogram
            .estimated_cardinality(window)
            .unwrap_or(f64::INFINITY);
        if estimate < best_estimate {
            best_estimate = estimate;
            best_index = start;
        }
    }
    best_index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannerContext;
    use pathix_datagen::paper_example_graph;
    use pathix_graph::{Graph, SignedLabel};
    use pathix_index::{EstimationMode, PathHistogram, SharedKPathIndex};

    fn fixture(k: usize) -> (Graph, SharedKPathIndex, PathHistogram) {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, k);
        let hist = PathHistogram::build(index.per_path_counts(), k, EstimationMode::Exact);
        (g, index, hist)
    }

    fn sl(g: &Graph, name: &str, backward: bool) -> SignedLabel {
        let id = g.label_id(name).unwrap();
        if backward {
            SignedLabel::backward(id)
        } else {
            SignedLabel::forward(id)
        }
    }

    #[test]
    fn short_disjuncts_are_single_scans() {
        let (g, index, hist) = fixture(3);
        let ctx = PlannerContext::new(&index, &hist);
        let k = sl(&g, "knows", false);
        let plan = plan_disjunct(&vec![k, k], &ctx);
        assert!(matches!(plan, PhysicalPlan::IndexScan { .. }));
    }

    #[test]
    fn split_prefers_the_most_selective_window() {
        let (g, index, hist) = fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        let knows = sl(&g, "knows", false);
        let sup = sl(&g, "supervisor", false);
        // supervisor has a single edge, so any window containing it is far
        // more selective than knows/knows.
        let disjunct = vec![knows, knows, knows, sup];
        let idx = most_selective_window(&disjunct, 2, &ctx);
        assert_eq!(idx, 2, "window [knows, supervisor] should win");
    }

    #[test]
    fn plans_cover_the_whole_disjunct() {
        let (g, index, hist) = fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        let knows = sl(&g, "knows", false);
        let works = sl(&g, "worksFor", false);
        for len in 1usize..=7 {
            let disjunct: LabelPath = (0..len)
                .map(|i| if i % 2 == 0 { knows } else { works })
                .collect();
            let plan = plan_disjunct(&disjunct, &ctx);
            // Scanned labels, re-concatenated in order, must equal the
            // disjunct.
            let mut scanned = Vec::new();
            collect_scans_in_order(&plan, &mut scanned);
            let rebuilt: LabelPath = scanned.concat();
            assert_eq!(rebuilt, disjunct, "length {len}");
            // minSupport does not minimize the number of lookups (that is
            // minJoin's job) but it can never need more scans than labels.
            assert!(plan.scan_count() >= len.div_ceil(2).max(1));
            assert!(plan.scan_count() <= len);
        }
    }

    fn collect_scans_in_order(plan: &PhysicalPlan, out: &mut Vec<LabelPath>) {
        match plan {
            PhysicalPlan::IndexScan { path, .. } => out.push(path.clone()),
            PhysicalPlan::Epsilon => {}
            PhysicalPlan::Join { left, right, .. } => {
                collect_scans_in_order(left, out);
                collect_scans_in_order(right, out);
            }
            PhysicalPlan::Union(children) => {
                for c in children {
                    collect_scans_in_order(c, out);
                }
            }
        }
    }

    #[test]
    fn produces_at_least_one_merge_join_on_long_disjuncts() {
        let (g, index, hist) = fixture(3);
        let ctx = PlannerContext::new(&index, &hist);
        let knows = sl(&g, "knows", false);
        let works = sl(&g, "worksFor", false);
        let disjunct = vec![knows, knows, works, knows, works, works];
        let plan = plan_disjunct(&disjunct, &ctx);
        assert!(plan.join_count() >= 1);
        assert!(plan.merge_join_count() >= 1);
    }
}
