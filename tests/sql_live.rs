//! The §5 relational deployment under updates: after every kind of batch a
//! live database absorbs, a `SqlPathDb` rebuilt from that database must answer
//! exactly like the native pipeline under every strategy, on every backend —
//! the bridge reads whatever the backend's post-update scans deliver (rebuilt
//! chunks, re-encoded chunks, copy-on-write pages), not a freshly bulk-built
//! index.

mod common;

use pathix::datagen::paper_example_graph;
use pathix::sql::SqlPathDb;
use pathix::{GraphUpdate, PathDb, QueryOptions, Strategy};
use std::path::PathBuf;

const QUERIES: [&str; 6] = [
    "supervisor/worksFor-",
    "knows/knows/worksFor",
    "worksFor-/worksFor",
    "(supervisor|worksFor|worksFor-){2,3}",
    "knows/(knows/worksFor){1,2}",
    // Contains ε: one identity pair per row of the bridged `nodes` table.
    "knows{0,2}",
];

/// The paper's example graph, live, on each of the four backends.
fn live_dbs(tag: &str) -> (Vec<(&'static str, PathDb)>, PathBuf) {
    common::on_every_backend(&format!("sql-live-{tag}"), &paper_example_graph(), 16)
}

/// Rebuilds the relational mirror from the live database and compares it with
/// the native answers of every strategy, query by query.
fn assert_sql_matches_native(db: &PathDb, queries: &[&str], context: &str) {
    let relational = SqlPathDb::from_path_db(db).unwrap();
    assert_eq!(relational.graph().node_count(), db.graph().node_count());
    assert_eq!(relational.graph().edge_count(), db.graph().edge_count());
    for query in queries {
        let via_sql = relational.query_pairs(query).unwrap();
        for strategy in Strategy::all() {
            let native: Vec<(u32, u32)> = db
                .run(query, QueryOptions::with_strategy(strategy))
                .unwrap()
                .pairs()
                .iter()
                .map(|&(a, b)| (a.0, b.0))
                .collect();
            assert_eq!(via_sql, native, "{context}: query {query}, {strategy}");
        }
    }
}

#[test]
fn sql_answers_track_native_answers_after_an_insert_batch() {
    let (dbs, dir) = live_dbs("insert");
    for (name, db) in &dbs {
        let before = SqlPathDb::from_path_db(db).unwrap();
        let g = db.graph();
        let node = |n: &str| g.node_id(n).unwrap();
        let knows = g.label_id("knows").unwrap();
        let supervisor = g.label_id("supervisor").unwrap();
        let stats = db
            .apply(&[
                GraphUpdate::insert(node("sue"), knows, node("tim")),
                GraphUpdate::insert(node("tim"), knows, node("sue")),
                GraphUpdate::insert(node("ada"), supervisor, node("jan")),
                GraphUpdate::insert(node("liz"), knows, node("liz")),
            ])
            .unwrap();
        assert_eq!(stats.inserted, 4, "{name}");
        assert_sql_matches_native(db, &QUERIES, &format!("{name}, after inserts"));

        // The batch really changed what the bridge has to deliver.
        let after = SqlPathDb::from_path_db(db).unwrap();
        assert_ne!(
            after.query_pairs("supervisor/worksFor-").unwrap(),
            before.query_pairs("supervisor/worksFor-").unwrap(),
            "{name}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sql_answers_track_native_answers_after_a_delete_batch() {
    let (dbs, dir) = live_dbs("delete");
    for (name, db) in &dbs {
        let g = db.graph();
        let node = |n: &str| g.node_id(n).unwrap();
        let knows = g.label_id("knows").unwrap();
        let works_for = g.label_id("worksFor").unwrap();
        let supervisor = g.label_id("supervisor").unwrap();
        let stats = db
            .apply(&[
                GraphUpdate::delete(node("jan"), knows, node("ada")),
                GraphUpdate::delete(node("tim"), works_for, node("kim")),
                // The only supervisor edge: its label's relations empty out.
                GraphUpdate::delete(node("kim"), supervisor, node("liz")),
                GraphUpdate::delete(node("ada"), knows, node("sam")), // absent
            ])
            .unwrap();
        assert_eq!((stats.deleted, stats.no_ops), (3, 1), "{name}");
        assert_sql_matches_native(db, &QUERIES, &format!("{name}, after deletes"));

        let relational = SqlPathDb::from_path_db(db).unwrap();
        assert!(
            relational
                .query_pairs("supervisor/worksFor-")
                .unwrap()
                .is_empty(),
            "{name}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sql_answers_track_native_answers_after_a_named_insert_interns_vocabulary() {
    let (dbs, dir) = live_dbs("named");
    for (name, db) in &dbs {
        let nodes_before = db.graph().node_count();
        db.apply(&[
            // A node the vocabulary has never seen …
            GraphUpdate::insert_named("max", "knows", "ada"),
            GraphUpdate::insert_named("zoe", "worksFor", "max"),
            // … and a label it has never seen.
            GraphUpdate::insert_named("max", "mentors", "sue"),
        ])
        .unwrap();
        assert_eq!(db.graph().node_count(), nodes_before + 1, "{name}");
        assert!(db.graph().label_id("mentors").is_some(), "{name}");

        let mut queries = QUERIES.to_vec();
        queries.extend(["mentors/worksFor", "knows/mentors-", "mentors{0,1}"]);
        assert_sql_matches_native(db, &queries, &format!("{name}, after named inserts"));

        // The new node is a row of `nodes` (its ε pair) and an endpoint of
        // bridged index entries.
        let max = db.graph().node_id("max").unwrap().0;
        let relational = SqlPathDb::from_path_db(db).unwrap();
        let reach = relational.query_pairs("knows{0,2}").unwrap();
        assert!(reach.contains(&(max, max)), "{name}");
        assert!(reach.iter().any(|&(s, t)| s == max && t != max), "{name}");
    }
    let _ = std::fs::remove_dir_all(dir);
}
