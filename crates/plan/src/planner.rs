//! Strategy selection and whole-query planning.

use crate::plan::PhysicalPlan;
use crate::{min_join, min_support, naive, semi_naive};
use pathix_index::{CardinalityEstimator, PathHistogram, PathIndexBackend};
use pathix_rpq::LabelPath;

/// The four evaluation strategies of the paper (Sections 4 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// k fixed at 1: only single edge labels are scanned, equivalent to
    /// automaton-based evaluation.
    Naive,
    /// Left-to-right chunking into length-k segments.
    SemiNaive,
    /// Recursive split on the most selective length-k sub-path.
    MinSupport,
    /// Minimal number of index lookups, segmentation chosen by cost.
    MinJoin,
}

impl Strategy {
    /// All strategies in the order the paper reports them.
    ///
    /// ```
    /// use pathix_plan::Strategy;
    ///
    /// let names: Vec<_> = Strategy::all().iter().map(Strategy::name).collect();
    /// assert_eq!(names, ["naive", "semi-naive", "minSupport", "minJoin"]);
    /// assert_eq!(Strategy::MinSupport.to_string(), "minSupport");
    /// ```
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::Naive,
            Strategy::SemiNaive,
            Strategy::MinSupport,
            Strategy::MinJoin,
        ]
    }

    /// The name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::SemiNaive => "semi-naive",
            Strategy::MinSupport => "minSupport",
            Strategy::MinJoin => "minJoin",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a strategy needs to plan: the index backend (for k and the
/// node count) and the histogram (for selectivity estimates).
///
/// The context is generic over the [`PathIndexBackend`], so the same
/// strategies plan against the in-memory, paged and compressed indexes;
/// `B: ?Sized` additionally admits `dyn PathIndexBackend`.
pub struct PlannerContext<'a, B: PathIndexBackend + ?Sized> {
    index: &'a B,
    histogram: &'a PathHistogram,
}

impl<B: PathIndexBackend + ?Sized> Clone for PlannerContext<'_, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<B: PathIndexBackend + ?Sized> Copy for PlannerContext<'_, B> {}

impl<B: PathIndexBackend + ?Sized> std::fmt::Debug for PlannerContext<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannerContext")
            .field("backend", &self.index.backend_name())
            .field("k", &self.k())
            .field("node_count", &self.node_count())
            .finish()
    }
}

impl<'a, B: PathIndexBackend + ?Sized> PlannerContext<'a, B> {
    /// Creates a context over an index backend and its histogram.
    ///
    /// ```
    /// use pathix_datagen::paper_example_graph;
    /// use pathix_index::{EstimationMode, PathHistogram, PathIndexBackend, SharedKPathIndex};
    /// use pathix_plan::PlannerContext;
    ///
    /// let g = paper_example_graph();
    /// let index = SharedKPathIndex::build(&g, 2);
    /// let histogram = PathHistogram::build(
    ///     index.per_path_counts(), 2, EstimationMode::default());
    ///
    /// let ctx = PlannerContext::new(&index, &histogram);
    /// assert_eq!((ctx.k(), ctx.node_count()), (2, g.node_count()));
    /// // `?Sized`: the same context plans against a trait object.
    /// let backend: &dyn PathIndexBackend = &index;
    /// assert_eq!(PlannerContext::new(backend, &histogram).k(), 2);
    /// ```
    pub fn new(index: &'a B, histogram: &'a PathHistogram) -> Self {
        PlannerContext { index, histogram }
    }

    /// The index locality parameter k.
    pub fn k(&self) -> usize {
        self.index.k()
    }

    /// Number of nodes of the indexed graph.
    pub fn node_count(&self) -> usize {
        self.index.node_count()
    }

    /// The histogram used for selectivity estimates.
    pub fn histogram(&self) -> &'a PathHistogram {
        self.histogram
    }

    /// The index backend being planned against.
    pub fn index(&self) -> &'a B {
        self.index
    }

    /// A cardinality estimator over the histogram.
    pub fn estimator(&self) -> CardinalityEstimator<'a> {
        CardinalityEstimator::new(self.histogram, self.node_count())
    }
}

/// Plans a single disjunct (a label path; the empty path is ε).
pub fn plan_disjunct<B: PathIndexBackend + ?Sized>(
    strategy: Strategy,
    disjunct: &LabelPath,
    ctx: &PlannerContext<'_, B>,
) -> PhysicalPlan {
    if disjunct.is_empty() {
        return PhysicalPlan::Epsilon;
    }
    match strategy {
        Strategy::Naive => naive::plan_disjunct(disjunct, ctx),
        Strategy::SemiNaive => semi_naive::plan_disjunct(disjunct, ctx),
        Strategy::MinSupport => min_support::plan_disjunct(disjunct, ctx),
        Strategy::MinJoin => min_join::plan_disjunct(disjunct, ctx),
    }
}

/// Plans a whole query given its disjuncts: the union of the per-disjunct
/// plans (a single disjunct skips the union node).
///
/// ```
/// use pathix_datagen::paper_example_graph;
/// use pathix_index::{EstimationMode, PathHistogram, PathIndexBackend, SharedKPathIndex};
/// use pathix_plan::{execute, plan_query, PhysicalPlan, PlannerContext, Strategy};
/// use pathix_rpq::{parse, to_disjuncts, RewriteOptions};
///
/// let g = paper_example_graph();
/// let index = SharedKPathIndex::build(&g, 2);
/// let histogram = PathHistogram::build(
///     index.per_path_counts(), 2, EstimationMode::default());
/// let ctx = PlannerContext::new(&index, &histogram);
/// let disjuncts = |query: &str| {
///     to_disjuncts(&parse(query).unwrap().bind(&g).unwrap(), RewriteOptions::default()).unwrap()
/// };
///
/// // One disjunct of length 3 at k = 2: a join, no union node. Naive (k = 1
/// // scans only) needs one join more than the strategies that use 2-paths.
/// let chain = disjuncts("knows/knows/worksFor");
/// let naive = plan_query(Strategy::Naive, &chain, &ctx);
/// let min_join = plan_query(Strategy::MinJoin, &chain, &ctx);
/// assert!(matches!(min_join, PhysicalPlan::Join { .. }));
/// assert_eq!((naive.join_count(), min_join.join_count()), (2, 1));
/// // Plans differ, answers do not.
/// assert_eq!(execute(&naive, &index).unwrap(), execute(&min_join, &index).unwrap());
///
/// // Several disjuncts: the union of their plans.
/// let union = plan_query(Strategy::MinSupport, &disjuncts("knows|worksFor-"), &ctx);
/// assert!(matches!(&union, PhysicalPlan::Union(children) if children.len() == 2));
/// ```
pub fn plan_query<B: PathIndexBackend + ?Sized>(
    strategy: Strategy,
    disjuncts: &[LabelPath],
    ctx: &PlannerContext<'_, B>,
) -> PhysicalPlan {
    let plans: Vec<PhysicalPlan> = disjuncts
        .iter()
        .map(|d| plan_disjunct(strategy, d, ctx))
        .collect();
    match <[PhysicalPlan; 1]>::try_from(plans) {
        Ok([plan]) => plan,
        Err(plans) => PhysicalPlan::Union(plans),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_datagen::paper_example_graph;
    use pathix_graph::SignedLabel;
    use pathix_index::{EstimationMode, SharedKPathIndex};

    fn fixture() -> (SharedKPathIndex, PathHistogram) {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, 2);
        let hist = PathHistogram::build(index.per_path_counts(), 2, EstimationMode::Exact);
        (index, hist)
    }

    #[test]
    fn strategy_names_match_the_paper() {
        let names: Vec<_> = Strategy::all().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["naive", "semi-naive", "minSupport", "minJoin"]);
        assert_eq!(Strategy::MinJoin.to_string(), "minJoin");
    }

    #[test]
    fn empty_disjunct_plans_to_epsilon() {
        let (index, hist) = fixture();
        let ctx = PlannerContext::new(&index, &hist);
        for s in Strategy::all() {
            assert_eq!(plan_disjunct(s, &Vec::new(), &ctx), PhysicalPlan::Epsilon);
        }
    }

    #[test]
    fn single_disjunct_skips_union() {
        let (index, hist) = fixture();
        let ctx = PlannerContext::new(&index, &hist);
        let d = vec![SignedLabel::from_code(0)];
        let plan = plan_query(Strategy::SemiNaive, &[d], &ctx);
        assert!(!matches!(plan, PhysicalPlan::Union(_)));
    }

    #[test]
    fn multiple_disjuncts_form_a_union() {
        let (index, hist) = fixture();
        let ctx = PlannerContext::new(&index, &hist);
        let d1 = vec![SignedLabel::from_code(0)];
        let d2 = vec![SignedLabel::from_code(2)];
        let plan = plan_query(Strategy::SemiNaive, &[d1, d2], &ctx);
        match plan {
            PhysicalPlan::Union(children) => assert_eq!(children.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn context_works_through_a_trait_object() {
        let (index, hist) = fixture();
        let dyn_index: &dyn PathIndexBackend = &index;
        let ctx = PlannerContext::new(dyn_index, &hist);
        assert_eq!(ctx.k(), 2);
        assert_eq!(ctx.node_count(), 9);
        let d = vec![SignedLabel::from_code(0), SignedLabel::from_code(2)];
        let plan = plan_query(Strategy::MinSupport, &[d], &ctx);
        assert!(plan.scan_count() >= 1);
    }

    #[test]
    fn context_accessors() {
        let (index, hist) = fixture();
        let ctx = PlannerContext::new(&index, &hist);
        assert_eq!(ctx.k(), 2);
        assert_eq!(ctx.node_count(), 9);
        assert_eq!(ctx.estimator().node_count(), 9);
        assert!(format!("{ctx:?}").contains("memory"));
    }
}
