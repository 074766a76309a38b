//! What one execution path buys: on every backend, a many-disjunct union
//! query — the shape a per-disjunct worker pool would be pointed at — honours
//! `limit`, `exists`, cancellation, deadlines and `count_only` through
//! `PreparedQuery::run` alone, without the serving tier. A run that
//! materialized each disjunct on its own thread could honour none of them.

mod common;

use pathix::graph::GraphBuilder;
use pathix::{NodeId, PathDb, QueryError, QueryOptions};
use pathix_core::CancelToken;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// 14 disjuncts (2 + 4 + 8 label paths of length 1–3): completes, and its
/// answer is a few thousand pairs.
const UNION: &str = "(e|e-){1,3}";

/// 112 disjuncts of length 4–6 over the dense graph: never completes inside
/// a test — it has to be interrupted.
const HEAVY: &str = "(e|e-){4,6}";

/// The same dense random graph (150 nodes, ≈ 1200 edges) on each of the four
/// backends.
fn dense_dbs(tag: &str) -> (Vec<(&'static str, PathDb)>, PathBuf) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = GraphBuilder::new();
    for _ in 0..1200 {
        let s = rng.gen_range(0..150u32);
        let t = rng.gen_range(0..150u32);
        b.add_edge_named(&format!("v{s}"), "e", &format!("v{t}"));
    }
    common::on_every_backend(&format!("one-exec-{tag}"), &b.build(), 64)
}

#[test]
fn limit_pulls_a_bounded_number_of_pairs() {
    let (dbs, dir) = dense_dbs("limit");
    for (name, db) in &dbs {
        let prepared = db.prepare(UNION).unwrap();
        let full = prepared.run(db, QueryOptions::new()).unwrap();
        assert!(full.len() > 1_000, "{name}: {} pairs", full.len());

        let before = db.pairs_pulled_total();
        let limited = prepared.run(db, QueryOptions::new().limit(5)).unwrap();
        assert_eq!(limited.len(), 5, "{name}");
        assert!(
            limited.pairs().iter().all(|&(s, t)| full.contains(s, t)),
            "{name}: a limited run may only return answers of the full run"
        );
        assert!(
            limited.stats.pairs_pulled >= 5
                && limited.stats.pairs_pulled * 100 < full.stats.pairs_pulled,
            "{name}: limit(5) pulled {} pairs, the full run {}",
            limited.stats.pairs_pulled,
            full.stats.pairs_pulled
        );
        // The abandoned cursor still accounts for the work it did.
        assert_eq!(
            db.pairs_pulled_total() - before,
            limited.stats.pairs_pulled as u64,
            "{name}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn exists_stops_at_the_first_pair() {
    let (dbs, dir) = dense_dbs("exists");
    for (name, db) in &dbs {
        let prepared = db.prepare(UNION).unwrap();
        let probe = prepared.run(db, QueryOptions::new().exists()).unwrap();
        assert!(probe.is_empty(), "{name}: exists materializes nothing");
        assert_eq!(probe.stats.result_pairs, 1, "{name}");
        assert_eq!(probe.stats.pairs_pulled, 1, "{name}");
        assert!(prepared.exists(db, QueryOptions::new()).unwrap(), "{name}");

        // A binding no answer satisfies has to drain the whole tree to say no.
        let nowhere = QueryOptions::new().source(NodeId(u32::MAX)).exists();
        let miss = prepared.run(db, nowhere).unwrap();
        assert_eq!(miss.stats.result_pairs, 0, "{name}");
        assert!(miss.stats.pairs_pulled > 1_000, "{name}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn an_already_cancelled_token_never_starts() {
    let (dbs, dir) = dense_dbs("cancelled");
    for (name, db) in &dbs {
        let prepared = db.prepare(HEAVY).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let before = db.pairs_pulled_total();
        let started = Instant::now();
        let err = prepared
            .run(db, QueryOptions::new().cancel_token(token))
            .unwrap_err();
        assert!(matches!(err, QueryError::Cancelled), "{name}: {err}");
        assert_eq!(
            db.pairs_pulled_total(),
            before,
            "{name}: nothing was pulled"
        );
        assert!(started.elapsed() < Duration::from_secs(5), "{name}");

        let expired = CancelToken::with_deadline(Instant::now());
        let err = prepared
            .run(db, QueryOptions::new().cancel_token(expired))
            .unwrap_err();
        assert!(matches!(err, QueryError::DeadlineExceeded), "{name}: {err}");
        assert_eq!(
            db.pairs_pulled_total(),
            before,
            "{name}: nothing was pulled"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_deadline_expiring_mid_run_surfaces_through_prepared_run() {
    let (dbs, dir) = dense_dbs("deadline");
    for (name, db) in &dbs {
        let prepared = db.prepare(HEAVY).unwrap();
        // Plan once up front so the budget below is spent executing.
        assert!(prepared.exists(db, QueryOptions::new()).unwrap(), "{name}");

        let before = db.pairs_pulled_total();
        let started = Instant::now();
        let token = CancelToken::with_budget(Duration::from_millis(150));
        let err = prepared
            .run(db, QueryOptions::new().cancel_token(token))
            .unwrap_err();
        assert!(matches!(err, QueryError::DeadlineExceeded), "{name}: {err}");
        assert!(
            db.pairs_pulled_total() > before,
            "{name}: the run was under way when the deadline hit"
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{name}: interrupted {:?} after a 150 ms budget",
            started.elapsed()
        );

        // The same token shape, cancelled from outside instead of by time.
        let token = CancelToken::new();
        let remote = token.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            remote.cancel();
        });
        let err = prepared
            .run(db, QueryOptions::new().cancel_token(token))
            .unwrap_err();
        canceller.join().unwrap();
        assert!(matches!(err, QueryError::Cancelled), "{name}: {err}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn count_only_and_limit_agree_with_the_filtered_full_answer() {
    let (dbs, dir) = dense_dbs("count");
    for (name, db) in &dbs {
        let prepared = db.prepare(UNION).unwrap();
        let full = prepared.run(db, QueryOptions::new()).unwrap();
        let counted = prepared.run(db, QueryOptions::new().count_only()).unwrap();
        assert!(counted.is_empty(), "{name}");
        assert_eq!(counted.stats.result_pairs, full.len(), "{name}");

        let source = full.pairs()[full.len() / 2].0;
        let target = full.pairs()[full.len() / 3].1;
        let bindings = [
            QueryOptions::new().source(source),
            QueryOptions::new().target(target),
            QueryOptions::new().source(source).target(target),
        ];
        for options in bindings {
            let expected: Vec<_> = full
                .pairs()
                .iter()
                .copied()
                .filter(|&(s, t)| {
                    options.bound_source().is_none_or(|b| b == s)
                        && options.bound_target().is_none_or(|b| b == t)
                })
                .collect();
            assert!(!expected.is_empty(), "{name}: {options:?}");

            let bound = prepared.run(db, options.clone()).unwrap();
            assert_eq!(bound.pairs(), expected, "{name}: {options:?}");
            let counted = prepared.run(db, options.clone().count_only()).unwrap();
            assert!(counted.is_empty(), "{name}: {options:?}");
            assert_eq!(
                counted.stats.result_pairs,
                expected.len(),
                "{name}: {options:?}"
            );

            let cap = 3.min(expected.len());
            let limited = prepared.run(db, options.clone().limit(3)).unwrap();
            assert_eq!(limited.len(), cap, "{name}: {options:?}");
            assert!(
                limited.pairs().iter().all(|p| expected.contains(p)),
                "{name}: {options:?}"
            );
            let capped = prepared.run(db, options.limit(3).count_only()).unwrap();
            assert_eq!(capped.stats.result_pairs, cap, "{name}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}
