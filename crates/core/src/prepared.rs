//! Compile once, execute many: the prepared-query half of the API split.

use crate::cache::CompiledQuery;
use crate::cursor::Cursor;
use crate::db::{PathDb, Snapshot};
use crate::error::QueryError;
use crate::options::QueryOptions;
use crate::result::QueryResult;
use pathix_plan::{execute_with_stats, PhysicalPlan, Strategy};
use pathix_rpq::LabelPath;
use std::sync::Arc;

/// A query whose parse → bind → rewrite work has been done once, up front.
///
/// Created by [`PathDb::prepare`]. The handle owns the rewritten disjunct
/// list and lazily caches one [`PhysicalPlan`] per strategy **per database
/// epoch**: executing it N times under S strategies costs exactly one
/// compilation and at most S planning runs while the database stands still,
/// and after a [`PathDb::apply`] batch the next execution transparently
/// replans against the fresh statistics instead of serving a stale physical
/// plan. The underlying compiled entry is shared with the database's plan
/// cache, so the handle stays valid (and cheap to clone) even after the cache
/// evicts the entry.
///
/// A prepared query is bound to the database that prepared it: the disjuncts
/// reference that database's label vocabulary and the plans its histogram.
/// Running it against any other [`PathDb`] is rejected with
/// [`QueryError::DatabaseMismatch`]. (Live updates never change the
/// vocabulary, so the handle survives them.)
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
/// let colleagues = db.prepare("knows/worksFor").unwrap();
/// for _ in 0..3 {
///     let result = colleagues.run(&db, QueryOptions::new()).unwrap();
///     assert_eq!(result.len(), 1);
/// }
/// // One compilation, one plan — however often the query ran.
/// let stats = db.plan_cache_stats();
/// assert_eq!(stats.compilations, 1);
/// assert_eq!(stats.plans, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    entry: Arc<CompiledQuery>,
    /// Identity of the preparing database, checked on every execution.
    db_id: u64,
}

impl PreparedQuery {
    pub(crate) fn new(entry: Arc<CompiledQuery>, db_id: u64) -> Self {
        PreparedQuery { entry, db_id }
    }

    /// The original query text.
    pub fn text(&self) -> &str {
        self.entry.text()
    }

    /// The label-path disjuncts the query rewrote to.
    pub fn disjuncts(&self) -> &[LabelPath] {
        self.entry.disjuncts()
    }

    /// `true` once a physical plan for `strategy` has been planned (plans
    /// are lazy: preparing a query plans nothing). The plan may still be
    /// replanned on next use if the database has moved to a newer epoch.
    pub fn is_planned(&self, strategy: Strategy) -> bool {
        self.entry.existing_plan(strategy).is_some()
    }

    fn check_db(&self, db: &PathDb) -> Result<(), QueryError> {
        if db.instance_id() == self.db_id {
            Ok(())
        } else {
            Err(QueryError::DatabaseMismatch)
        }
    }

    /// The physical plan of this query under `strategy`, planning it on
    /// first use and reusing it while the database stays at the same epoch.
    pub fn plan(&self, db: &PathDb, strategy: Strategy) -> Result<Arc<PhysicalPlan>, QueryError> {
        let snapshot = db.snapshot();
        self.plan_on(db, &snapshot, strategy)
    }

    /// [`PreparedQuery::plan`] against an explicit snapshot, so one execution
    /// plans and runs against the same epoch.
    pub(crate) fn plan_on(
        &self,
        db: &PathDb,
        snapshot: &Snapshot,
        strategy: Strategy,
    ) -> Result<Arc<PhysicalPlan>, QueryError> {
        self.check_db(db)?;
        let (plan, planned) = self
            .entry
            .plan_for(strategy, snapshot.epoch(), |disjuncts| {
                snapshot.plan_disjuncts(strategy, disjuncts)
            });
        if planned {
            db.plan_cache().record_plan();
        }
        Ok(plan)
    }

    /// Executes the query under `options`, returning the materialized
    /// answer. The whole execution runs against one [`Snapshot`], taken at
    /// entry.
    ///
    /// * Unrestricted runs (no limit/bindings/count/token) behave exactly
    ///   like [`PathDb::query`]: the full sorted, duplicate-free pair set.
    /// * `limit`/`source`/`target` restrict the answer; execution stops as
    ///   soon as the limit is satisfied.
    /// * `count_only` reports the distinct-answer count in
    ///   `stats.result_pairs` while leaving the pair list empty.
    pub fn run(&self, db: &PathDb, options: QueryOptions) -> Result<QueryResult, QueryError> {
        // An already-tripped token never starts executing. Mid-run checks
        // happen on the cursor path, which a token-bearing run always takes.
        if let Some(token) = options.cancel_token_ref() {
            if token.deadline_exceeded() {
                return Err(QueryError::DeadlineExceeded);
            }
            if token.cancel_requested() {
                return Err(QueryError::Cancelled);
            }
        }
        let strategy = options
            .strategy_override()
            .unwrap_or(db.config().default_strategy);
        let snapshot = db.snapshot();
        let plan = self.plan_on(db, &snapshot, strategy)?;

        if options.is_full_materialization() {
            let (pairs, stats) = execute_with_stats(plan.as_ref(), snapshot.index())?;
            db.record_pulled(stats.pairs_pulled);
            return Ok(QueryResult::new(pairs, stats, strategy));
        }

        // Restricted runs stream through a cursor so limits terminate early.
        // The cursor owns the snapshot, so it observes exactly the state this
        // run planned against.
        let mut cursor = Cursor::open(snapshot, plan, options.clone(), db.pulled_sink())?;
        if options.is_count_only() {
            // Count without materializing: drain the cursor, keep nothing.
            for item in &mut cursor {
                item?;
            }
            let stats = cursor.stats();
            return Ok(QueryResult::new(Vec::new(), stats, strategy));
        }
        let mut pairs = Vec::new();
        for item in &mut cursor {
            pairs.push(item?);
        }
        let mut stats = cursor.stats();
        pairs.sort_unstable();
        stats.result_pairs = pairs.len();
        Ok(QueryResult::new(pairs, stats, strategy))
    }

    /// Opens a streaming [`Cursor`] over the answer under `options`.
    ///
    /// The cursor owns a [`Snapshot`] taken at open — see the
    /// snapshot-at-open contract on [`Cursor`] — so it needs no borrow of
    /// the database and never blocks concurrent updates.
    pub fn cursor(&self, db: &PathDb, options: QueryOptions) -> Result<Cursor, QueryError> {
        let strategy = options
            .strategy_override()
            .unwrap_or(db.config().default_strategy);
        let snapshot = db.snapshot();
        let plan = self.plan_on(db, &snapshot, strategy)?;
        Cursor::open(snapshot, plan, options, db.pulled_sink())
    }

    /// Number of distinct answers under `options` (respecting limit and
    /// bindings) without materializing them.
    pub fn count(&self, db: &PathDb, options: QueryOptions) -> Result<usize, QueryError> {
        self.cursor(db, options)?.count()
    }

    /// `true` if the query has at least one answer under the options'
    /// bindings. Terminates at the first match.
    pub fn exists(&self, db: &PathDb, options: QueryOptions) -> Result<bool, QueryError> {
        Ok(self.count(db, options.limit(1))? > 0)
    }
}
