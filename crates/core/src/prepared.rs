//! Compile once, execute many: the prepared-query half of the API split.
//!
//! Compilation (parse → bind → rewrite) and planning are pure functions of
//! the query text, the database vocabulary and the chosen strategy. An
//! ad-hoc [`PathDb::run`] pays both on every call — a few microseconds for
//! a text of a few disjuncts, hundreds for one that rewrites to hundreds —
//! while a [`PreparedQuery`] pays compilation once and keeps one plan per
//! strategy for as long as the database stays at the epoch it was planned
//! at.

use crate::cursor::Cursor;
use crate::db::{PathDb, Snapshot};
use crate::error::QueryError;
use crate::options::QueryOptions;
use crate::result::QueryResult;
use pathix_plan::{execute_with_stats, PhysicalPlan, Strategy};
use pathix_rpq::LabelPath;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A query whose parse → bind → rewrite work has been done once, up front.
///
/// Created by [`PathDb::prepare`]. The handle owns the rewritten disjunct
/// list and lazily plans one [`PhysicalPlan`] per strategy **per database
/// epoch**: executing it N times under S strategies costs exactly one
/// compilation and at most S planning runs while the database stands still,
/// and after a [`PathDb::apply`] batch the next execution transparently
/// replans against the fresh statistics instead of serving a stale physical
/// plan. Clones share the disjuncts and the plans, so a handle cloned into
/// several threads plans each strategy once per epoch between them.
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
/// assert_eq!(stats.hits, 2);
/// ```
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    compiled: Arc<Compiled>,
    /// Identity of the preparing database, checked on every execution.
    db_id: u64,
}

/// What a [`PreparedQuery`] and its clones share: the text, its disjuncts
/// and one lazily-planned, **epoch-tagged** plan slot per strategy.
///
/// The disjuncts are immutable once compiled — they depend only on the query
/// text and the database's label vocabulary, which live updates never change.
/// Plans additionally depend on the histogram, so each slot remembers the
/// database [epoch](crate::PathDb::epoch) it was planned at.
#[derive(Debug)]
struct Compiled {
    text: String,
    disjuncts: Vec<LabelPath>,
    plans: [PlanSlot; 4],
}

/// A plan and the epoch it was planned at.
type Planned = (u64, Arc<PhysicalPlan>);

/// One lazily-planned, epoch-tagged plan.
type PlanSlot = Mutex<Option<Planned>>;

/// The slot index of a strategy in [`Compiled::plans`].
fn slot(strategy: Strategy) -> usize {
    match strategy {
        Strategy::Naive => 0,
        Strategy::SemiNaive => 1,
        Strategy::MinSupport => 2,
        Strategy::MinJoin => 3,
    }
}

impl Compiled {
    /// The slot for `strategy`. A slot is written only after planning
    /// returns, so a panic inside a planning run leaves its previous value
    /// intact and a poisoned lock is safe to enter.
    fn slot(&self, strategy: Strategy) -> MutexGuard<'_, Option<Planned>> {
        self.plans[slot(strategy)]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The plan for `strategy` at database epoch `epoch`, planning (or
    /// **replanning**, when the slot's plan was made at an older epoch)
    /// via `plan`. Returns the plan and whether the closure ran.
    ///
    /// A plan tagged with a *newer* epoch is served as-is to readers still on
    /// older snapshots: plans are answer-invariant (only their cost quality
    /// depends on the statistics), so draining pre-update executions must not
    /// thrash the slot against post-update ones.
    ///
    /// The slot lock is held across planning, so concurrent executions of the
    /// same handle and strategy plan exactly once per epoch instead of racing.
    fn plan_for(
        &self,
        strategy: Strategy,
        epoch: u64,
        plan: impl FnOnce(&[LabelPath]) -> PhysicalPlan,
    ) -> (Arc<PhysicalPlan>, bool) {
        let mut slot = self.slot(strategy);
        if let Some((planned_at, planned)) = slot.as_ref() {
            if *planned_at >= epoch {
                return (Arc::clone(planned), false);
            }
        }
        let planned = Arc::new(plan(&self.disjuncts));
        *slot = Some((epoch, Arc::clone(&planned)));
        (planned, true)
    }
}

/// The front end's counters, as [`PathDb::plan_cache_stats`] reports them.
///
/// `compilations` and `plans` are the expensive events: a prepared query
/// executed N times under S distinct strategies contributes exactly one
/// compilation and at most S plans, however large N grows, while every
/// ad-hoc [`PathDb::run`] contributes one of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plan lookups of a prepared query (a run, a cursor or
    /// [`PreparedQuery::plan`]) served by a plan its handle already held.
    /// An ad-hoc run plans afresh, so it never counts here.
    pub hits: u64,
    /// Parse → bind → rewrite runs performed (one per [`PathDb::prepare`]
    /// and per ad-hoc call, failed ones included).
    pub compilations: u64,
    /// `plan_query` runs performed (at most one per prepared handle,
    /// strategy and epoch).
    pub plans: u64,
}

/// The monotonic counters behind [`PlanCacheStats`], one set per database.
#[derive(Debug, Default)]
pub(crate) struct PlanCounters {
    hits: AtomicU64,
    compilations: AtomicU64,
    plans: AtomicU64,
}

impl PlanCounters {
    pub(crate) fn record_compilation(&self) {
        self.compilations.fetch_add(1, Ordering::Relaxed);
    }

    fn record_plan_use(&self, planned: bool) {
        let counter = if planned { &self.plans } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            compilations: self.compilations.load(Ordering::Relaxed),
            plans: self.plans.load(Ordering::Relaxed),
        }
    }
}

impl PreparedQuery {
    pub(crate) fn new(text: String, disjuncts: Vec<LabelPath>, db_id: u64) -> Self {
        PreparedQuery {
            compiled: Arc::new(Compiled {
                text,
                disjuncts,
                plans: [const { PlanSlot::new(None) }; 4],
            }),
            db_id,
        }
    }

    /// The original query text.
    pub fn text(&self) -> &str {
        &self.compiled.text
    }

    /// The label-path disjuncts the query rewrote to.
    pub fn disjuncts(&self) -> &[LabelPath] {
        &self.compiled.disjuncts
    }

    /// `true` once a physical plan for `strategy` has been planned (plans
    /// are lazy: preparing a query plans nothing). The plan may still be
    /// replanned on next use if the database has moved to a newer epoch.
    pub fn is_planned(&self, strategy: Strategy) -> bool {
        self.compiled.slot(strategy).is_some()
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
            .compiled
            .plan_for(strategy, snapshot.epoch(), |disjuncts| {
                snapshot.plan_disjuncts(strategy, disjuncts)
            });
        db.plan_counters.record_plan_use(planned);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::PathDbConfig;
    use pathix_datagen::paper_example_graph;

    fn unplanned() -> PreparedQuery {
        PreparedQuery::new("q".into(), vec![Vec::new()], 0)
    }

    fn planned_epoch(prepared: &PreparedQuery, strategy: Strategy) -> Option<u64> {
        prepared
            .compiled
            .slot(strategy)
            .as_ref()
            .map(|(epoch, _)| *epoch)
    }

    fn example_db() -> PathDb {
        PathDb::build(paper_example_graph(), PathDbConfig::with_k(2))
    }

    #[test]
    fn plans_fill_at_most_once_per_strategy_and_epoch() {
        let prepared = unplanned();
        let entry = &prepared.compiled;
        let mut runs = 0;
        for _ in 0..3 {
            entry.plan_for(Strategy::Naive, 0, |_| {
                runs += 1;
                PhysicalPlan::Epsilon
            });
        }
        assert_eq!(runs, 1);
        assert!(prepared.is_planned(Strategy::Naive));
        assert!(!prepared.is_planned(Strategy::MinJoin));
        assert_eq!(prepared.text(), "q");
        assert_eq!(prepared.disjuncts().len(), 1);
    }

    #[test]
    fn an_epoch_bump_invalidates_the_cached_plan() {
        let prepared = unplanned();
        let entry = &prepared.compiled;
        let (_, planned) = entry.plan_for(Strategy::Naive, 0, |_| PhysicalPlan::Epsilon);
        assert!(planned);
        // Same epoch: served from the slot.
        let (_, planned) = entry.plan_for(Strategy::Naive, 0, |_| PhysicalPlan::Epsilon);
        assert!(!planned);
        // Newer epoch: transparently replanned and re-tagged.
        let (_, planned) = entry.plan_for(Strategy::Naive, 1, |_| PhysicalPlan::Epsilon);
        assert!(planned);
        assert_eq!(planned_epoch(&prepared, Strategy::Naive), Some(1));
        let (_, planned) = entry.plan_for(Strategy::Naive, 1, |_| PhysicalPlan::Epsilon);
        assert!(!planned);
        // A reader still draining an older snapshot is served the newer plan
        // instead of thrashing the slot back and forth.
        let (_, planned) = entry.plan_for(Strategy::Naive, 0, |_| PhysicalPlan::Epsilon);
        assert!(!planned);
        assert_eq!(planned_epoch(&prepared, Strategy::Naive), Some(1));
    }

    #[test]
    fn hits_count_executions_served_by_an_existing_plan() {
        let db = example_db();
        let prepared = db.prepare("supervisor/worksFor-").unwrap();
        for _ in 0..3 {
            prepared.run(&db, QueryOptions::new()).unwrap();
        }
        prepared.plan(&db, Strategy::MinJoin).unwrap();
        assert_eq!(
            db.plan_cache_stats(),
            PlanCacheStats {
                hits: 2,
                compilations: 1,
                plans: 2
            }
        );
    }

    #[test]
    fn clones_share_their_plan_slots() {
        let db = example_db();
        let prepared = db.prepare("knows/worksFor").unwrap();
        let clone = prepared.clone();
        clone.run(&db, QueryOptions::new()).unwrap();
        assert!(prepared.is_planned(db.config().default_strategy));
        prepared.run(&db, QueryOptions::new()).unwrap();
        let stats = db.plan_cache_stats();
        assert_eq!((stats.plans, stats.hits), (1, 1), "{stats:?}");
        // A second `prepare` of the same text is a new handle: it compiles
        // and plans on its own.
        db.prepare("knows/worksFor")
            .unwrap()
            .run(&db, QueryOptions::new())
            .unwrap();
        let stats = db.plan_cache_stats();
        assert_eq!((stats.compilations, stats.plans), (2, 2), "{stats:?}");
    }

    #[test]
    fn failed_compilations_are_counted_and_return_no_handle() {
        let db = example_db();
        assert!(matches!(db.prepare("///"), Err(QueryError::Parse(_))));
        assert!(matches!(
            db.run("likes", QueryOptions::new()),
            Err(QueryError::Bind(_))
        ));
        let stats = db.plan_cache_stats();
        assert_eq!((stats.compilations, stats.plans), (2, 0), "{stats:?}");
    }

    #[test]
    fn prepared_queries_are_send_and_sync() {
        fn shareable<T: Send + Sync + Clone + 'static>() {}
        shareable::<PreparedQuery>();
    }
}
