//! Integration tests of the compile-once / execute-many API: prepared
//! queries, the plan cache, streaming cursors and shared sessions.
//!
//! These pin the PR's acceptance criteria: executing a [`PreparedQuery`]
//! N times performs exactly one parse/bind/rewrite and at most one plan per
//! strategy (observable in [`PlanCacheStats`]), and a cursor with `limit(L)`
//! stops pulling from the operator tree early (observable in
//! [`pathix::ExecutionStats::pairs_pulled`]).

use pathix::datagen::{advogato_like, paper_example_graph, AdvogatoConfig};
use pathix::{BackendChoice, PathDb, PathDbConfig, QueryError, QueryOptions, Session, Strategy};
use std::sync::Arc;

fn example_db() -> PathDb {
    PathDb::build(paper_example_graph(), PathDbConfig::with_k(2))
}

fn all_backend_choices(tag: &str) -> Vec<BackendChoice> {
    let file = std::env::temp_dir().join(format!(
        "pathix-prepared-{}-{tag}.pages",
        std::process::id()
    ));
    vec![
        BackendChoice::Memory,
        BackendChoice::PagedInMemory { pool_frames: 16 },
        BackendChoice::OnDisk {
            path: file,
            pool_frames: 16,
        },
        BackendChoice::Compressed,
    ]
}

/// Removes the page file an `OnDisk` choice pointed at.
fn cleanup(choice: &BackendChoice) {
    if let BackendChoice::OnDisk { path, .. } = choice {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn prepared_query_compiles_once_and_plans_once_per_strategy() {
    let db = example_db();
    let prepared = db.prepare("knows/(knows/worksFor){2,4}/worksFor").unwrap();
    // Preparation compiles but does not plan.
    assert_eq!(db.plan_cache_stats().compilations, 1);
    assert_eq!(db.plan_cache_stats().plans, 0);
    assert!(!prepared.is_planned(Strategy::MinJoin));

    // N executions across S strategies.
    for _ in 0..5 {
        for strategy in Strategy::all() {
            prepared
                .run(&db, QueryOptions::with_strategy(strategy))
                .unwrap();
        }
    }
    let stats = db.plan_cache_stats();
    assert_eq!(stats.compilations, 1, "{stats:?}");
    assert_eq!(stats.plans, 4, "at most one plan per strategy: {stats:?}");
    assert!(prepared.is_planned(Strategy::MinJoin));

    // Re-preparing the same text is a cache hit, not a new compilation.
    let again = db.prepare("knows/(knows/worksFor){2,4}/worksFor").unwrap();
    assert_eq!(db.plan_cache_stats().compilations, 1);
    assert_eq!(again.disjuncts(), prepared.disjuncts());
}

#[test]
fn prepared_queries_run_on_every_backend() {
    let query = "supervisor/worksFor-";
    for choice in all_backend_choices("every-backend") {
        let config = PathDbConfig::with_k(2).with_backend(choice.clone());
        let db = PathDb::try_build(paper_example_graph(), config).unwrap();
        let prepared = db.prepare(query).unwrap();
        for _ in 0..3 {
            for strategy in Strategy::all() {
                let result = prepared
                    .run(&db, QueryOptions::with_strategy(strategy))
                    .unwrap();
                assert_eq!(
                    result.named_pairs(&db),
                    vec![("kim".to_owned(), "sue".to_owned())],
                    "backend {choice:?}, strategy {strategy}"
                );
            }
        }
        let stats = db.plan_cache_stats();
        assert_eq!(stats.compilations, 1, "backend {choice:?}: {stats:?}");
        assert!(stats.plans <= 4, "backend {choice:?}: {stats:?}");
        drop(db);
        cleanup(&choice);
    }
}

#[test]
fn cursor_limit_terminates_execution_early() {
    // A denser graph so the full answer is meaningfully larger than the
    // limit.
    let graph = advogato_like(AdvogatoConfig {
        scale: 0.02,
        ..AdvogatoConfig::default()
    });
    let db = PathDb::build(graph, PathDbConfig::with_k(2));
    let query = "journeyer/journeyer";
    let prepared = db.prepare(query).unwrap();

    // Full drain: how many pairs does a complete run pull?
    let mut full = prepared.cursor(&db, QueryOptions::new()).unwrap();
    let mut full_count = 0;
    for item in &mut full {
        item.unwrap();
        full_count += 1;
    }
    let full_stats = full.stats();
    assert!(
        full_count > 10,
        "need a non-trivial answer, got {full_count}"
    );
    assert!(full_stats.pairs_pulled >= full_count);

    // Limited drain: strictly fewer pairs pulled from the operator tree.
    let mut limited = prepared.cursor(&db, QueryOptions::new().limit(1)).unwrap();
    let mut limited_count = 0;
    for item in &mut limited {
        item.unwrap();
        limited_count += 1;
    }
    let limited_stats = limited.stats();
    assert_eq!(limited_count, 1);
    assert!(
        limited_stats.pairs_pulled < full_stats.pairs_pulled,
        "limit(1) pulled {} pairs, full run pulled {}",
        limited_stats.pairs_pulled,
        full_stats.pairs_pulled
    );

    // The materialized run() path reports the same early termination.
    let result = prepared.run(&db, QueryOptions::new().limit(1)).unwrap();
    assert_eq!(result.len(), 1);
    assert!(result.stats.pairs_pulled < full_stats.pairs_pulled);

    // exists() is the degenerate limit: one pull chain, boolean answer.
    assert!(prepared.exists(&db, QueryOptions::new()).unwrap());
}

#[test]
fn cursor_streams_the_batch_answer() {
    let db = example_db();
    let query = "(supervisor|worksFor|worksFor-){4,5}";
    let prepared = db.prepare(query).unwrap();
    let streamed = prepared
        .cursor(&db, QueryOptions::new())
        .unwrap()
        .collect_sorted()
        .unwrap();
    let batch = db.query(query).unwrap();
    assert_eq!(streamed, batch.pairs());
    // count() agrees without materializing.
    assert_eq!(
        prepared.count(&db, QueryOptions::new()).unwrap(),
        batch.len()
    );
}

#[test]
fn cursor_reports_parse_bind_rewrite_errors_up_front() {
    let db = example_db();
    assert!(matches!(db.prepare("///"), Err(QueryError::Parse(_))));
    assert!(matches!(db.prepare("likes"), Err(QueryError::Bind(_))));
    assert!(matches!(
        db.prepare("knows{5,2}"),
        Err(QueryError::Rewrite(_))
    ));
    // Errors are not cached.
    assert_eq!(db.plan_cache_stats().entries, 0);
}

#[test]
fn sessions_share_one_database_across_threads() {
    let db = Arc::new(PathDb::build(
        paper_example_graph(),
        PathDbConfig::with_k(2),
    ));
    let session =
        Session::new(Arc::clone(&db)).with_defaults(QueryOptions::with_strategy(Strategy::MinJoin));
    let queries = [
        "supervisor/worksFor-",
        "knows/knows/worksFor",
        "(supervisor|worksFor|worksFor-){4,5}",
    ];

    let reference: Vec<usize> = queries
        .iter()
        .map(|q| session.query(q).unwrap().len())
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let session = session.clone();
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..5 {
                    for (qi, query) in queries.iter().enumerate() {
                        let result = session.query(query).unwrap();
                        assert_eq!(result.strategy, Strategy::MinJoin);
                        assert_eq!(result.len(), reference[qi], "round {round} on {query}");
                    }
                }
            });
        }
    });

    // Every thread hit the same cache: three compilations total, ever.
    let stats = db.plan_cache_stats();
    assert_eq!(stats.compilations, 3, "{stats:?}");
    assert!(stats.hits >= (4 * 5 * 3) as u64, "{stats:?}");
}

#[test]
fn sessions_share_prepared_queries_across_threads() {
    let db = Arc::new(PathDb::build(
        paper_example_graph(),
        PathDbConfig::with_k(2),
    ));
    let session = Session::new(Arc::clone(&db));
    let prepared = session.prepare("knows/worksFor").unwrap();
    let expected = prepared.run(&db, QueryOptions::new()).unwrap().len();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let session = session.clone();
            let prepared = prepared.clone();
            scope.spawn(move || {
                for _ in 0..10 {
                    let n = session.cursor(&prepared).unwrap().count().unwrap();
                    assert_eq!(n, expected);
                }
            });
        }
    });
    assert_eq!(db.plan_cache_stats().compilations, 1);
}

#[test]
fn count_only_streams_and_respects_limits() {
    let db = example_db();
    let query = "(supervisor|worksFor|worksFor-){4,5}";
    let full = db.query(query).unwrap();
    let counted = db.run(query, QueryOptions::new().count_only()).unwrap();
    assert!(counted.pairs().is_empty());
    assert_eq!(counted.stats.result_pairs, full.len());
    // count_only + limit terminates early, like any other cursor run.
    let probe = db.run(query, QueryOptions::new().exists()).unwrap();
    assert_eq!(probe.stats.result_pairs, 1);
    assert!(probe.stats.pairs_pulled <= counted.stats.pairs_pulled);
}
