//! Per-execution options: strategy, limits, cancellation and the paper's
//! Example 3.1 source/target bindings, as one reusable builder.

use pathix_exec::CancelToken;
use pathix_graph::NodeId;
use pathix_plan::Strategy;

/// How (and how much of) a query execution should run.
///
/// An options value is independent of any database, so it can be stored as a
/// client's default and reused across queries:
///
/// ```
/// use pathix_core::{PathDb, PathDbConfig, QueryOptions, Strategy};
/// use pathix_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge_named("ada", "knows", "jan");
/// b.add_edge_named("jan", "worksFor", "acme");
/// let db = PathDb::build(b.build(), PathDbConfig::with_k(2));
///
/// let prepared = db.prepare("knows/worksFor").unwrap();
/// let result = prepared
///     .run(&db, QueryOptions::new().strategy(Strategy::MinJoin).limit(10))
///     .unwrap();
/// assert_eq!(result.len(), 1);
/// ```
///
/// The `source`/`target` bindings reproduce the paper's Example 3.1 lookup
/// shapes: a fully unbound query enumerates `p(G)`, binding the source asks
/// "which nodes does `s` reach", binding both asks "does `s` reach `t`"
/// (which combines naturally with [`QueryOptions::exists`]). Bound shapes
/// are answered by index probes from the bound node and cost what their
/// frontiers reach.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryOptions {
    strategy: Option<Strategy>,
    limit: Option<usize>,
    count_only: bool,
    source: Option<NodeId>,
    target: Option<NodeId>,
    cancel: Option<CancelToken>,
}

impl QueryOptions {
    /// Default options: the database's default strategy, no limit, no
    /// bindings, materialized pairs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shorthand for `QueryOptions::new().strategy(strategy)`, the most
    /// common override.
    pub fn with_strategy(strategy: Strategy) -> Self {
        Self::new().strategy(strategy)
    }

    /// Evaluate with an explicit strategy instead of the database default.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Stop after `limit` distinct answer pairs: the operator tree stops
    /// being pulled as soon as the limit is reached.
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Count distinct answers without materializing them: the result carries
    /// statistics (including the count in `stats.result_pairs`) but an empty
    /// pair list.
    pub fn count_only(mut self) -> Self {
        self.count_only = true;
        self
    }

    /// Shorthand for `limit(1).count_only()`: "is the answer non-empty",
    /// terminating at the first match. With both ends bound this is the
    /// paper's `⟨p, s, t⟩` membership probe: the walk from `s` finishes with
    /// one point or prefix probe of the index, and a union stops at its
    /// first disjunct that reaches `t`.
    pub fn exists(self) -> Self {
        self.limit(1).count_only()
    }

    /// Only keep answers whose source is `source` (Example 3.1's
    /// `(p, s, ·)` lookup shape).
    ///
    /// The binding is pushed into the index: execution walks the frontier
    /// from `source` through the plan's ≤ k-length segments with `⟨p, s⟩`
    /// prefix probes (or one filtered scan per level once the frontier is
    /// large against the relation), so the cost follows the frontiers — not
    /// the answer of the unbound query, which is never evaluated.
    pub fn source(mut self, source: NodeId) -> Self {
        self.source = Some(source);
        self
    }

    /// Only keep answers whose target is `target` (Example 3.1's
    /// `(p, ·, t)` lookup shape).
    ///
    /// Pushed into the index like [`QueryOptions::source`]: alone, the walk
    /// starts at `target` and runs backward through the inverse paths;
    /// together with a source, the forward walk ends in a `⟨p, s, t⟩` probe.
    /// The cost follows the frontiers, not the unbound answer.
    pub fn target(mut self, target: NodeId) -> Self {
        self.target = Some(target);
        self
    }

    /// Attach a cooperative cancellation token (possibly deadline-bearing).
    ///
    /// Token-bearing executions always stream through the cursor path — even
    /// a fully unbound query — so the token is checked as the stream
    /// advances (per source and level of a walk, at every batch boundary of
    /// the operator tree) and a tripped token surfaces as
    /// [`crate::QueryError::Cancelled`] or
    /// [`crate::QueryError::DeadlineExceeded`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token_ref(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The explicit strategy, if one was set.
    pub fn strategy_override(&self) -> Option<Strategy> {
        self.strategy
    }

    /// The answer-pair limit, if one was set.
    pub fn limit_value(&self) -> Option<usize> {
        self.limit
    }

    /// Whether only the answer count is wanted.
    pub fn is_count_only(&self) -> bool {
        self.count_only
    }

    /// The bound source node, if any.
    pub fn bound_source(&self) -> Option<NodeId> {
        self.source
    }

    /// The bound target node, if any.
    pub fn bound_target(&self) -> Option<NodeId> {
        self.target
    }

    /// `true` when nothing restricts or reshapes the answer: no limit, no
    /// bindings, full materialization. Such runs can use the batch executor
    /// and its whole-answer statistics.
    pub(crate) fn is_full_materialization(&self) -> bool {
        self.limit.is_none()
            && !self.count_only
            && self.source.is_none()
            && self.target.is_none()
            && self.cancel.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_settings() {
        let options = QueryOptions::new()
            .strategy(Strategy::MinJoin)
            .limit(100)
            .count_only();
        assert_eq!(options.strategy_override(), Some(Strategy::MinJoin));
        assert_eq!(options.limit_value(), Some(100));
        assert!(options.is_count_only());
        assert!(!options.is_full_materialization());
    }

    #[test]
    fn defaults_are_a_full_materialization() {
        let options = QueryOptions::new();
        assert_eq!(options.strategy_override(), None);
        assert!(options.is_full_materialization());
        assert_eq!(
            (options.bound_source(), options.bound_target()),
            (None, None)
        );
    }

    #[test]
    fn exists_is_limit_one_count_only() {
        let options = QueryOptions::new().exists();
        assert_eq!(options.limit_value(), Some(1));
        assert!(options.is_count_only());
    }

    #[test]
    fn bindings_filter_pairs() {
        // The filtering itself is the bound stream's (`Cursor`); here: a
        // binding is recorded and rules out the batch executor.
        let options = QueryOptions::new().source(NodeId(1)).target(NodeId(2));
        assert_eq!(options.bound_source(), Some(NodeId(1)));
        assert_eq!(options.bound_target(), Some(NodeId(2)));
        assert!(!options.is_full_materialization());
        assert!(!QueryOptions::new()
            .target(NodeId(2))
            .is_full_materialization());
    }

    #[test]
    fn a_cancel_token_forces_the_cursor_path() {
        let token = CancelToken::new();
        let options = QueryOptions::new().cancel_token(token.clone());
        assert!(!options.is_full_materialization());
        assert_eq!(options.cancel_token_ref(), Some(&token));
        // Identity equality: the same options with a *different* token are
        // a different value.
        assert_ne!(
            options,
            QueryOptions::new().cancel_token(CancelToken::new())
        );
    }
}
