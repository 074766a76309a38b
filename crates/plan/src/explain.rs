//! Human-readable plan rendering ("EXPLAIN" output).

use crate::cost::cost_plan;
use crate::plan::{JoinAlgorithm, PhysicalPlan};
use crate::planner::PlannerContext;
use pathix_exec::ScanOrientation;
use pathix_graph::Graph;
use pathix_index::PathIndexBackend;
use pathix_rpq::ast::format_label_path;

/// Renders a physical plan as an indented tree with label names, join
/// algorithms, scan orientations and cost estimates — the "life of a query"
/// view the paper's demonstration walks through.
pub fn explain<B: PathIndexBackend + ?Sized>(
    plan: &PhysicalPlan,
    graph: &Graph,
    ctx: &PlannerContext<'_, B>,
) -> String {
    let estimator = ctx.estimator();
    let mut out = String::new();
    render(plan, graph, ctx, &estimator, 0, &mut out);
    out
}

fn render<B: PathIndexBackend + ?Sized>(
    plan: &PhysicalPlan,
    graph: &Graph,
    ctx: &PlannerContext<'_, B>,
    estimator: &pathix_index::CardinalityEstimator<'_>,
    depth: usize,
    out: &mut String,
) {
    let indent = "  ".repeat(depth);
    let cost = cost_plan(plan, estimator);
    match plan {
        PhysicalPlan::IndexScan { path, orientation } => {
            let dir = match orientation {
                ScanOrientation::Forward => "forward",
                ScanOrientation::Inverse => "inverse",
            };
            out.push_str(&format!(
                "{indent}IndexScan [{}] ({dir}, est. rows {:.0})\n",
                format_label_path(path, graph),
                cost.cardinality
            ));
        }
        PhysicalPlan::Epsilon => {
            out.push_str(&format!(
                "{indent}Epsilon (identity over {} nodes)\n",
                ctx.node_count()
            ));
        }
        PhysicalPlan::Join {
            algorithm,
            left,
            right,
        } => {
            let name = match algorithm {
                JoinAlgorithm::Merge => "MergeJoin",
                JoinAlgorithm::Hash => "HashJoin",
            };
            out.push_str(&format!(
                "{indent}{name} (est. rows {:.0}, est. cost {:.0})\n",
                cost.cardinality, cost.cost
            ));
            render(left, graph, ctx, estimator, depth + 1, out);
            render(right, graph, ctx, estimator, depth + 1, out);
        }
        PhysicalPlan::Union(children) => {
            out.push_str(&format!(
                "{indent}Union of {} disjuncts (est. rows {:.0}, est. cost {:.0})\n",
                children.len(),
                cost.cardinality,
                cost.cost
            ));
            for child in children {
                render(child, graph, ctx, estimator, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_query, PlannerContext, Strategy};
    use pathix_datagen::paper_example_graph;
    use pathix_index::{EstimationMode, PathHistogram, SharedKPathIndex};
    use pathix_rpq::{parse, to_disjuncts, RewriteOptions};

    #[test]
    fn explain_mentions_labels_joins_and_estimates() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 2);
        let hist = PathHistogram::build(index.per_path_counts(), 2, EstimationMode::default());
        let ctx = PlannerContext::new(&index, &hist);
        let expr = parse("knows/(knows/worksFor){2,4}/worksFor")
            .unwrap()
            .bind(&g)
            .unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        let plan = plan_query(Strategy::MinSupport, &disjuncts, &ctx);
        let text = explain(&plan, &g, &ctx);
        assert!(text.contains("Union of 3 disjuncts"));
        assert!(text.contains("IndexScan"));
        assert!(text.contains("knows"));
        assert!(text.contains("worksFor"));
        assert!(text.contains("Join"));
        assert!(text.contains("est. rows"));
        // Indentation shows tree structure.
        assert!(text.lines().any(|l| l.starts_with("    ")));
    }

    #[test]
    fn explain_epsilon_plan() {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 1);
        let hist = PathHistogram::build(index.per_path_counts(), 1, EstimationMode::default());
        let ctx = PlannerContext::new(&index, &hist);
        let expr = parse("knows?").unwrap().bind(&g).unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        let plan = plan_query(Strategy::SemiNaive, &disjuncts, &ctx);
        let text = explain(&plan, &g, &ctx);
        assert!(text.contains("Epsilon"));
        assert!(text.contains("9 nodes"));
    }
}
