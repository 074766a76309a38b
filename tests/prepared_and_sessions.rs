//! Integration tests of the compile-once / execute-many API: prepared
//! queries, streaming cursors, and one database shared across threads.
//!
//! These pin the PR's acceptance criteria: executing a [`PreparedQuery`]
//! N times performs exactly one parse/bind/rewrite and at most one plan per
//! strategy (observable in [`PlanCacheStats`]), and a cursor with `limit(L)`
//! stops pulling from the operator tree early (observable in
//! [`pathix::ExecutionStats::pairs_pulled`]).

use pathix::datagen::{advogato_like, paper_example_graph, AdvogatoConfig};
use pathix::{
    BackendChoice, GraphUpdate, PathDb, PathDbConfig, QueryError, QueryOptions, Strategy,
};
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

    // Re-preparing the same text compiles it again, to the same disjuncts.
    let again = db.prepare("knows/(knows/worksFor){2,4}/worksFor").unwrap();
    assert_eq!(db.plan_cache_stats().compilations, 2);
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
    // Each attempt compiled, none planned.
    let stats = db.plan_cache_stats();
    assert_eq!((stats.compilations, stats.plans), (3, 0), "{stats:?}");
}

#[test]
fn sessions_share_one_database_across_threads() {
    let db = Arc::new(PathDb::build(
        paper_example_graph(),
        PathDbConfig::with_k(2),
    ));
    let min_join = || QueryOptions::with_strategy(Strategy::MinJoin);
    let queries = [
        "supervisor/worksFor-",
        "knows/knows/worksFor",
        "(supervisor|worksFor|worksFor-){4,5}",
    ];

    let reference: Vec<usize> = queries
        .iter()
        .map(|q| db.run(q, min_join()).unwrap().len())
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let db = Arc::clone(&db);
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..5 {
                    for (qi, query) in queries.iter().enumerate() {
                        let result = db.run(query, min_join()).unwrap();
                        assert_eq!(result.strategy, Strategy::MinJoin);
                        assert_eq!(result.len(), reference[qi], "round {round} on {query}");
                    }
                }
            });
        }
    });

    // Every ad-hoc call compiled and planned once; none reused a plan.
    let stats = db.plan_cache_stats();
    let calls = (3 + 4 * 5 * 3) as u64;
    assert_eq!(
        (stats.compilations, stats.plans),
        (calls, calls),
        "{stats:?}"
    );
    assert_eq!(stats.hits, 0, "{stats:?}");
}

#[test]
fn sessions_share_prepared_queries_across_threads() {
    let db = Arc::new(PathDb::build(
        paper_example_graph(),
        PathDbConfig::with_k(2),
    ));
    let prepared = db.prepare("knows/worksFor").unwrap();
    let expected = prepared.run(&db, QueryOptions::new()).unwrap().len();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let db = Arc::clone(&db);
            let prepared = prepared.clone();
            scope.spawn(move || {
                for _ in 0..10 {
                    let n = prepared
                        .cursor(&db, QueryOptions::new())
                        .unwrap()
                        .count()
                        .unwrap();
                    assert_eq!(n, expected);
                }
            });
        }
    });
    // The clones share one compilation and one plan.
    let stats = db.plan_cache_stats();
    assert_eq!((stats.compilations, stats.plans), (1, 1), "{stats:?}");
    assert_eq!(stats.hits, 4 * 10, "{stats:?}");
}

#[test]
fn concurrent_clones_replan_once_after_an_apply() {
    let db = Arc::new(PathDb::build(
        paper_example_graph(),
        PathDbConfig::with_k(2),
    ));
    let prepared = db.prepare("supervisor/worksFor-").unwrap();
    prepared.run(&db, QueryOptions::new()).unwrap();
    db.apply(&[GraphUpdate::InsertEdgeNamed {
        src: "tim".into(),
        label: "supervisor".into(),
        dst: "joe".into(),
    }])
    .unwrap();

    // Four threads run their clones at once against the new epoch: the slot
    // lock is held across planning, so exactly one of them replans.
    let start = Arc::new(std::sync::Barrier::new(4));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let (db, prepared, start) = (Arc::clone(&db), prepared.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                (0..5)
                    .map(|_| prepared.run(&db, QueryOptions::new()).unwrap().len())
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for thread in threads {
        assert_eq!(thread.join().unwrap(), vec![2; 5]);
    }
    let stats = db.plan_cache_stats();
    assert_eq!((stats.compilations, stats.plans), (1, 2), "{stats:?}");
    assert_eq!(stats.hits, 4 * 5 - 1, "{stats:?}");
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

/// The same text run ad hoc and through a [`PreparedQuery`] answers alike:
/// on every backend, under every strategy and every Example 3.1 shape
/// (source-bound, both-bound `exists`, unbound `limit`), before and after an
/// update moves the database to a new epoch.
#[test]
fn ad_hoc_and_prepared_runs_agree_before_and_after_an_apply() {
    let texts = [
        "supervisor/worksFor-",
        "knows/knows",
        "(knows|worksFor){1,3}",
    ];
    let named = |insert: bool, src: &str, label: &str, dst: &str| {
        let (src, label, dst) = (src.to_owned(), label.to_owned(), dst.to_owned());
        if insert {
            GraphUpdate::InsertEdgeNamed { src, label, dst }
        } else {
            GraphUpdate::DeleteEdgeNamed { src, label, dst }
        }
    };
    let batch = [
        named(false, "kim", "supervisor", "liz"),
        named(true, "tim", "supervisor", "joe"),
        named(true, "sue", "knows", "zoe"),
    ];
    let agree = |db: &PathDb, text: &str, handle: &pathix::PreparedQuery, options: QueryOptions| {
        let ad_hoc = db.run(text, options.clone()).unwrap();
        let prepared = handle.run(db, options.clone()).unwrap();
        assert_eq!(ad_hoc.pairs(), prepared.pairs(), "{text} under {options:?}");
        assert_eq!(
            ad_hoc.stats.result_pairs, prepared.stats.result_pairs,
            "{text} under {options:?}"
        );
        ad_hoc
    };
    for choice in all_backend_choices("ad-hoc-vs-prepared") {
        let config = PathDbConfig::with_k(2).with_backend(choice.clone());
        let db = PathDb::try_build(paper_example_graph(), config).unwrap();
        let handles: Vec<_> = texts.iter().map(|t| db.prepare(t).unwrap()).collect();
        let mut answers = Vec::new();
        for apply in [false, true] {
            if apply {
                db.apply(&batch).unwrap();
            }
            let nodes: Vec<_> = db.graph().nodes().collect();
            for (text, handle) in texts.iter().zip(&handles) {
                let truth = db.query_automaton(text).unwrap();
                for strategy in Strategy::all() {
                    let base = QueryOptions::with_strategy(strategy);
                    let full = agree(&db, text, handle, base.clone());
                    assert_eq!(full.pairs(), &truth[..], "{choice:?}: {text}, {strategy}");
                    let limited = agree(&db, text, handle, base.clone().limit(2));
                    assert_eq!(limited.len(), truth.len().min(2));
                    for &s in &nodes {
                        agree(&db, text, handle, base.clone().source(s));
                        for &t in &nodes {
                            let probe =
                                agree(&db, text, handle, base.clone().source(s).target(t).exists());
                            let expected = truth.binary_search(&(s, t)).is_ok();
                            assert_eq!(
                                probe.stats.result_pairs == 1,
                                expected,
                                "{text} ({s:?}, {t:?})"
                            );
                        }
                    }
                }
                answers.push(truth);
            }
        }
        // The batch changed every text's answer, so "after" tested new state.
        let (before, after) = answers.split_at(texts.len());
        assert!(before.iter().zip(after).all(|(b, a)| b != a), "{choice:?}");
        drop(db);
        cleanup(&choice);
    }
}
