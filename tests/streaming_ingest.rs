//! Differential property harness for streaming ingest.
//!
//! A database that starts from **nothing** ([`PathDb::empty`]) and absorbs
//! its entire graph through name-based [`PathDb::apply`] batches — new nodes
//! *and* new labels interned mid-stream — must be indistinguishable from a
//! database bulk-built over the final graph. Over random ingest scripts
//! (deterministic PRNG, `PATHIX_PROP_CASES`-scaled) and all four backends,
//! after the full script:
//!
//! * the streamed database resolves the same vocabulary to the same ids as a
//!   bulk build that interns names in first-appearance order,
//! * every query in the pool returns identical pairs on all four strategies,
//! * the structural audit ([`PathDb::audit`]) is clean after every batch
//!   (full coverage under `PATHIX_AUDIT=1`).
//!
//! The scripts mix duplicate insertions, deletions of live edges and
//! deletions of names never seen (which must intern nothing).

use pathix::{
    BackendChoice, GraphBuilder, GraphUpdate, PathDb, PathDbConfig, QueryOptions, Strategy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of random cases to run (quick profile via `PATHIX_PROP_CASES`).
fn cases() -> u64 {
    std::env::var("PATHIX_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

/// Structural audit gate: full coverage under `PATHIX_AUDIT=1`, every fourth
/// call otherwise (see `tests/backend_update_equivalence.rs`).
fn audit_gate(db: &PathDb, context: &str) {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let full = std::env::var("PATHIX_AUDIT").is_ok_and(|v| v == "1");
    if full || CALLS.fetch_add(1, Ordering::Relaxed).is_multiple_of(4) {
        db.audit().assert_clean(context);
    }
}

/// A per-test scratch directory, removed on drop (even on panic).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pathix-ingest-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Oracle state of an ingest script: the live edge set plus the
/// first-appearance intern order of names, mirrored exactly from how
/// `PathDb::apply` resolves a named insertion (source node, then label, then
/// target node; deletions intern nothing).
#[derive(Default)]
struct Oracle {
    edges: BTreeSet<(String, String, String)>,
    node_order: Vec<String>,
    label_order: Vec<String>,
}

impl Oracle {
    fn observe(&mut self, update: &GraphUpdate) {
        match update {
            GraphUpdate::InsertEdgeNamed { src, label, dst } => {
                if !self.node_order.contains(src) {
                    self.node_order.push(src.clone());
                }
                if !self.label_order.contains(label) {
                    self.label_order.push(label.clone());
                }
                if !self.node_order.contains(dst) {
                    self.node_order.push(dst.clone());
                }
                self.edges.insert((src.clone(), label.clone(), dst.clone()));
            }
            GraphUpdate::DeleteEdgeNamed { src, label, dst } => {
                self.edges
                    .remove(&(src.clone(), label.clone(), dst.clone()));
            }
            other => panic!("ingest scripts are name-based, got {other:?}"),
        }
    }

    /// Bulk-builds the final graph, interning names in the same order the
    /// streamed database did so node and label ids line up exactly.
    fn bulk_graph(&self) -> pathix::Graph {
        let mut b = GraphBuilder::new();
        for name in &self.node_order {
            b.add_node(name);
        }
        for name in &self.label_order {
            b.add_label(name);
        }
        for (src, label, dst) in &self.edges {
            b.add_edge_named(src, label, dst);
        }
        b.build()
    }
}

/// One random named update. Batch `batch_no` draws from name pools that grow
/// with the batch index, so fresh node *and* label names keep arriving
/// mid-stream; deletions occasionally reference names nobody ever inserted.
fn random_named_update(rng: &mut StdRng, batch_no: usize, oracle: &Oracle) -> GraphUpdate {
    let node_pool = 4 + 2 * batch_no as u32;
    let label_pool = 1 + batch_no.min(2) as u16;
    if rng.gen_bool(0.7) || oracle.edges.is_empty() {
        GraphUpdate::insert_named(
            format!("n{}", rng.gen_range(0..node_pool)),
            format!("l{}", rng.gen_range(0..label_pool)),
            format!("n{}", rng.gen_range(0..node_pool)),
        )
    } else if rng.gen_bool(0.25) {
        // A deletion of names never inserted: must be a no-op that interns
        // nothing.
        GraphUpdate::delete_named("ghost-src", "ghost-label", "ghost-dst")
    } else {
        let target = rng.gen_range(0..oracle.edges.len());
        let (src, label, dst) = oracle.edges.iter().nth(target).unwrap().clone();
        GraphUpdate::delete_named(src, label, dst)
    }
}

/// RPQs over the label vocabulary the scripts generate.
fn query_pool(labels: usize) -> Vec<String> {
    let mut queries = vec![
        "l0".to_string(),
        "l0-".to_string(),
        "l0/l0".to_string(),
        "l0{0,2}".to_string(),
    ];
    if labels >= 2 {
        queries.push("l0/l1-".to_string());
        queries.push("(l0|l1){1,3}".to_string());
    }
    if labels >= 3 {
        queries.push("l2/l0".to_string());
    }
    queries
}

#[test]
fn streaming_ingest_matches_bulk_build_on_every_backend() {
    let dir = TempDir::new("harness");
    for case in 0..cases() {
        let mut rng = StdRng::seed_from_u64(0x16e57 ^ case);
        let k = rng.gen_range(1..=3usize);
        let choices = [
            BackendChoice::Memory,
            BackendChoice::PagedInMemory { pool_frames: 4 },
            BackendChoice::OnDisk {
                path: dir.path(&format!("case-{case}.pages")),
                pool_frames: 4,
            },
            BackendChoice::Compressed,
        ];
        let dbs: Vec<PathDb> = choices
            .iter()
            .map(|choice| {
                let config = PathDbConfig {
                    ..PathDbConfig::with_k(k).with_backend(choice.clone())
                };
                PathDb::empty(config).expect("empty database build failed")
            })
            .collect();
        for db in &dbs {
            assert_eq!(db.stats().nodes, 0, "case {case}: empty db has nodes");
            assert_eq!(db.stats().edges, 0, "case {case}: empty db has edges");
        }

        let mut oracle = Oracle::default();
        for batch_no in 0..rng.gen_range(2..5usize) {
            let updates: Vec<GraphUpdate> = (0..rng.gen_range(2..8usize))
                .map(|_| {
                    let update = random_named_update(&mut rng, batch_no, &oracle);
                    oracle.observe(&update);
                    update
                })
                .collect();
            let outcomes: Vec<_> = dbs
                .iter()
                .map(|db| db.apply(&updates).expect("streaming apply failed"))
                .collect();
            for (db, outcome) in dbs.iter().zip(&outcomes) {
                assert_eq!(
                    outcome,
                    &outcomes[0],
                    "case {case} batch {batch_no}: {} reports a different UpdateStats",
                    db.backend_name()
                );
            }
            for db in &dbs {
                audit_gate(
                    db,
                    &format!(
                        "streaming case {case} batch {batch_no} ({})",
                        db.backend_name()
                    ),
                );
            }
        }

        // The streamed vocabulary must line up with a bulk build that interns
        // names in first-appearance order — same names, same ids.
        let bulk_graph = oracle.bulk_graph();
        let streamed = dbs[0].graph();
        assert_eq!(
            streamed.node_count(),
            bulk_graph.node_count(),
            "case {case}: node count diverged"
        );
        assert_eq!(
            streamed.edge_count(),
            bulk_graph.edge_count(),
            "case {case}: edge count diverged"
        );
        assert_eq!(
            streamed.label_count(),
            bulk_graph.label_count(),
            "case {case}: label count diverged"
        );
        for name in &oracle.node_order {
            assert_eq!(
                streamed.node_id(name),
                bulk_graph.node_id(name),
                "case {case}: node {name:?} interned at a different id"
            );
        }
        for name in &oracle.label_order {
            assert_eq!(
                streamed.label_id(name),
                bulk_graph.label_id(name),
                "case {case}: label {name:?} interned at a different id"
            );
        }

        // And every backend answers every pool query identically to the bulk
        // build, on every strategy.
        let rebuilt = PathDb::build(bulk_graph, PathDbConfig::with_k(k));
        for query in query_pool(oracle.label_order.len()) {
            for strategy in Strategy::all() {
                let reference = rebuilt
                    .run(&query, QueryOptions::with_strategy(strategy))
                    .expect("bulk query failed");
                for db in &dbs {
                    let live = db
                        .run(&query, QueryOptions::with_strategy(strategy))
                        .expect("streamed query failed");
                    assert_eq!(
                        live.pairs(),
                        reference.pairs(),
                        "case {case}: {} diverges from bulk build on {query} \
                         ({strategy}, k = {k})",
                        db.backend_name()
                    );
                }
            }
        }
    }
}

#[test]
fn deleting_unknown_names_interns_nothing_and_keeps_the_epoch() {
    let db = PathDb::empty(PathDbConfig::with_k(2)).unwrap();
    db.apply(&[GraphUpdate::insert_named("ada", "knows", "jan")])
        .unwrap();
    let epoch = db.epoch();
    let stats = db
        .apply(&[GraphUpdate::delete_named("ghost", "phantom", "wraith")])
        .unwrap();
    assert_eq!(stats.deleted, 0);
    assert_eq!(stats.no_ops, 1);
    assert_eq!(
        db.epoch(),
        epoch,
        "a pure no-op batch must not bump the epoch"
    );
    let graph = db.graph();
    assert_eq!(graph.node_count(), 2, "ghost names must not be interned");
    assert_eq!(graph.label_count(), 1);
    assert_eq!(graph.node_id("ghost"), None);
}

#[test]
fn named_and_id_updates_mix_within_one_batch() {
    let db = PathDb::empty(PathDbConfig::with_k(2)).unwrap();
    db.apply(&[GraphUpdate::insert_named("ada", "knows", "jan")])
        .unwrap();
    let graph = db.graph();
    let ada = graph.node_id("ada").unwrap();
    let jan = graph.node_id("jan").unwrap();
    let knows = graph.label_id("knows").unwrap();
    // One batch: an id-based deletion of the existing edge plus a named
    // insertion that grows the vocabulary.
    let stats = db
        .apply(&[
            GraphUpdate::delete(ada, knows, jan),
            GraphUpdate::insert_named("jan", "worksFor", "zoe"),
        ])
        .unwrap();
    assert_eq!((stats.inserted, stats.deleted), (1, 1));
    let graph = db.graph();
    assert!(!graph.has_edge(ada, knows, jan));
    assert_eq!(graph.label_names(), vec!["knows", "worksFor"]);
    assert!(graph.node_id("zoe").is_some());
    db.audit().assert_clean("mixed batch");
}

#[test]
fn empty_database_is_queryable_once_vocabulary_arrives() {
    let db = PathDb::empty(PathDbConfig::with_k(2)).unwrap();
    assert!(db.query("anything").is_err(), "no vocabulary yet");
    db.apply(&[
        GraphUpdate::insert_named("ada", "knows", "jan"),
        GraphUpdate::insert_named("jan", "knows", "zoe"),
    ])
    .unwrap();
    let result = db.query("knows/knows").unwrap();
    let graph = db.graph();
    let ada = graph.node_id("ada").unwrap();
    let zoe = graph.node_id("zoe").unwrap();
    assert_eq!(result.pairs(), &[(ada, zoe)]);
}
