//! Integration tests for the data-in/data-out paths: edge-list loading and
//! the on-disk database's close and open feeding the query pipeline.

use pathix::graph::loader::{load_edge_list_str, to_edge_list_string};
use pathix::{BackendChoice, PathDb, PathDbConfig, QueryOptions, Strategy};

const EDGES: &str = "\
# a tiny project/person graph
alice knows bob
bob knows carol
carol knows dave
alice worksFor acme
bob worksFor acme
carol worksFor globex
dave worksFor globex
carol supervisor dave
";

#[test]
fn edge_list_to_queries() {
    let graph = load_edge_list_str(EDGES).unwrap();
    assert_eq!(graph.node_count(), 6);
    assert_eq!(graph.edge_count(), 8);
    let db = PathDb::build(graph, PathDbConfig::with_k(2));
    // Colleagues: same employer.
    let colleagues = db.query("worksFor/worksFor-").unwrap();
    assert!(colleagues.contains_named(&db, "alice", "bob"));
    assert!(colleagues.contains_named(&db, "carol", "dave"));
    assert!(!colleagues.contains_named(&db, "alice", "carol"));
    // Knows someone supervised by carol.
    let q = db.query("knows/supervisor-").unwrap();
    assert!(q.contains_named(&db, "carol", "carol") || !q.is_empty());
}

#[test]
fn edge_list_roundtrip_preserves_query_answers() {
    let graph = load_edge_list_str(EDGES).unwrap();
    let text = to_edge_list_string(&graph);
    let graph2 = load_edge_list_str(&text).unwrap();
    let db1 = PathDb::build(graph, PathDbConfig::with_k(2));
    let db2 = PathDb::build(graph2, PathDbConfig::with_k(2));
    for query in ["knows/knows", "worksFor/worksFor-", "supervisor?"] {
        let a = db1.query(query).unwrap().named_pairs(&db1);
        let b = db2.query(query).unwrap().named_pairs(&db2);
        let mut a = a;
        let mut b = b;
        a.sort();
        b.sort();
        assert_eq!(
            a, b,
            "answers changed across edge-list roundtrip for {query}"
        );
    }
}

#[test]
fn on_disk_close_and_open_preserve_query_answers() {
    let dir = std::env::temp_dir().join(format!("pathix-close-open-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = PathDbConfig::with_k(2).with_backend(BackendChoice::OnDisk {
        path: dir.join("db.pages"),
        pool_frames: 16,
    });
    let graph = load_edge_list_str(EDGES).unwrap();
    let built = PathDb::build(graph.clone(), PathDbConfig::with_k(2));
    let db = PathDb::try_build(graph, config.clone()).unwrap();
    db.close().unwrap();
    drop(db);
    let reopened = PathDb::open(config).unwrap();
    for strategy in Strategy::all() {
        let a = built
            .run("knows{1,3}/worksFor", QueryOptions::with_strategy(strategy))
            .unwrap();
        let b = reopened
            .run("knows{1,3}/worksFor", QueryOptions::with_strategy(strategy))
            .unwrap();
        assert_eq!(a.pairs(), b.pairs());
    }
    // Ids, and so every pair above, come back as they were built.
    for name in ["alice", "bob", "carol", "dave", "acme", "globex"] {
        assert_eq!(reopened.graph().node_id(name), built.graph().node_id(name));
    }
    reopened.close().unwrap();
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}
