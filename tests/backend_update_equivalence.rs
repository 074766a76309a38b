//! Cross-backend differential property harness for live updates.
//!
//! The k-path index `I_{G,k}` has four storage representations (in-memory
//! chunk runs, paged B+tree over an in-memory page store, paged B+tree on disk,
//! delta/varint-encoded chunk runs), and since the mutable-backend PR
//! all four absorb [`PathDb::apply`] batches. This harness is the acceptance
//! gate for that claim: over random graphs and random update scripts
//! (deterministic PRNG, `PATHIX_PROP_CASES`-scaled), after **every** batch,
//!
//! * every backend pair returns identical answer sets and identical
//!   [`ExecutionStats::result_pairs`] for a pool of RPQs across all four
//!   strategies,
//! * every backend equals a database rebuilt from scratch over the updated
//!   graph,
//! * the published structural statistics (entry count, epoch) agree
//!   everywhere, and every backend's own per-path counts and the histogram
//!   built from them equal the rebuild's.

use pathix::{
    BackendChoice, GraphBuilder, GraphUpdate, LabelId, NodeId, PathDb, PathDbConfig,
    PathIndexBackend, QueryOptions, Strategy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of random cases to run (quick profile via `PATHIX_PROP_CASES`).
fn cases() -> u64 {
    std::env::var("PATHIX_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

/// Structural audit gate: after a batch is applied the database must pass
/// [`PathDb::audit`]. Full coverage under `PATHIX_AUDIT=1`; otherwise every
/// fourth call audits, keeping the quick CI profile fast while still
/// exercising the auditors on real mutation histories.
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
            "pathix-equiv-{}-{}-{tag}",
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

/// A random graph over `nodes` named nodes and `labels` named labels. Every
/// node and label is interned up front (updates may only reference interned
/// ids), and every label gets at least one edge so the vocabulary is fully
/// live from the start.
fn random_graph(rng: &mut StdRng, nodes: u32, labels: u16) -> pathix::Graph {
    let mut b = GraphBuilder::new();
    for n in 0..nodes {
        b.add_node(&format!("n{n}"));
    }
    for l in 0..labels {
        let src = rng.gen_range(0..nodes);
        let dst = rng.gen_range(0..nodes);
        b.add_edge_named(&format!("n{src}"), &format!("l{l}"), &format!("n{dst}"));
    }
    for _ in 0..rng.gen_range(0..nodes * 2) {
        let src = rng.gen_range(0..nodes);
        let dst = rng.gen_range(0..nodes);
        let l = rng.gen_range(0..labels);
        b.add_edge_named(&format!("n{src}"), &format!("l{l}"), &format!("n{dst}"));
    }
    b.build()
}

/// A pool of RPQs exercising single labels, inverses, composition, union and
/// bounded recursion over the generated vocabulary.
fn query_pool(labels: u16) -> Vec<String> {
    let mut queries = vec![
        "l0".to_string(),
        "l0-".to_string(),
        "l0/l0".to_string(),
        "l0-/l0".to_string(),
        "l0{0,2}".to_string(),
    ];
    if labels >= 2 {
        queries.push("l1".to_string());
        queries.push("l0/l1-".to_string());
        queries.push("(l0|l1){1,3}".to_string());
    }
    queries
}

fn random_update(rng: &mut StdRng, nodes: u32, labels: u16) -> GraphUpdate {
    let src = NodeId(rng.gen_range(0..nodes));
    let dst = NodeId(rng.gen_range(0..nodes));
    let label = LabelId(rng.gen_range(0..labels));
    if rng.gen_bool(0.55) {
        GraphUpdate::InsertEdge { src, label, dst }
    } else {
        GraphUpdate::DeleteEdge { src, label, dst }
    }
}

#[test]
fn all_backends_answer_identically_after_every_update_batch() {
    let dir = TempDir::new("harness");
    for case in 0..cases() {
        let mut rng = StdRng::seed_from_u64(0xD1FF + case);
        let nodes = rng.gen_range(4..9u32);
        let labels = rng.gen_range(1..4u16);
        let k = rng.gen_range(1..=3usize);
        let graph = random_graph(&mut rng, nodes, labels);
        let queries = query_pool(labels);

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
                PathDb::try_build(graph.clone(), config).expect("backend build failed")
            })
            .collect();

        for batch_no in 0..rng.gen_range(1..4usize) {
            let updates: Vec<GraphUpdate> = (0..rng.gen_range(1..9usize))
                .map(|_| random_update(&mut rng, nodes, labels))
                .collect();

            // Every backend reports the identical batch outcome...
            let outcomes: Vec<_> = dbs
                .iter()
                .map(|db| db.apply(&updates).expect("apply failed"))
                .collect();
            for (db, outcome) in dbs.iter().zip(&outcomes) {
                assert_eq!(
                    outcome,
                    &outcomes[0],
                    "case {case} batch {batch_no}: {} reports a different UpdateStats",
                    db.backend_name()
                );
            }

            // ...passes the structural invariant audit...
            for db in &dbs {
                audit_gate(
                    db,
                    &format!("case {case} batch {batch_no} ({})", db.backend_name()),
                );
            }

            // ...the identical structural statistics...
            let rebuilt = PathDb::build(dbs[0].graph().as_ref().clone(), PathDbConfig::with_k(k));
            for db in &dbs {
                assert_eq!(
                    db.stats().index.entries,
                    rebuilt.stats().index.entries,
                    "case {case} batch {batch_no}: {} entry count diverged from rebuild",
                    db.backend_name()
                );
                let counts = rebuilt.index().per_path_counts().to_vec();
                assert_eq!(
                    db.index().per_path_counts(),
                    counts,
                    "case {case} batch {batch_no}: {} per-path counts diverged from rebuild",
                    db.backend_name()
                );
                let (live, fresh) = (db.histogram(), rebuilt.histogram());
                for (path, _) in &counts {
                    assert_eq!(
                        live.estimated_cardinality(path),
                        fresh.estimated_cardinality(path),
                        "case {case} batch {batch_no}: {} histogram diverged on {path:?}",
                        db.backend_name()
                    );
                }
            }

            // ...and identical answers (pairs and stats pair counts) to each
            // other and to the from-scratch rebuild, on every strategy.
            for query in &queries {
                for strategy in Strategy::all() {
                    let reference = rebuilt
                        .run(query, QueryOptions::with_strategy(strategy))
                        .expect("rebuild query failed");
                    for db in &dbs {
                        let live = db
                            .run(query, QueryOptions::with_strategy(strategy))
                            .expect("live query failed");
                        assert_eq!(
                            live.pairs(),
                            reference.pairs(),
                            "case {case} batch {batch_no}: {} diverges from rebuild on {query} \
                             ({strategy}, k = {k})",
                            db.backend_name()
                        );
                        assert_eq!(
                            live.stats.result_pairs,
                            reference.stats.result_pairs,
                            "case {case} batch {batch_no}: {} result_pairs diverges on {query} \
                             ({strategy})",
                            db.backend_name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn bound_lookup_shapes_agree_across_backends_after_updates() {
    // Example 3.1's bound shapes ((p, s, ·), (p, ·, t), (p, s, t)) on every
    // backend after a mutation, including count-only and exists probes.
    let dir = TempDir::new("bound-shapes");
    let mut rng = StdRng::seed_from_u64(0xB0B0);
    let nodes = 6u32;
    let labels = 2u16;
    let graph = random_graph(&mut rng, nodes, labels);
    let choices = [
        BackendChoice::Memory,
        BackendChoice::PagedInMemory { pool_frames: 4 },
        BackendChoice::OnDisk {
            path: dir.path("bound.pages"),
            pool_frames: 4,
        },
        BackendChoice::Compressed,
    ];
    let dbs: Vec<PathDb> = choices
        .iter()
        .map(|choice| {
            PathDb::try_build(
                graph.clone(),
                PathDbConfig::with_k(2).with_backend(choice.clone()),
            )
            .unwrap()
        })
        .collect();
    let updates: Vec<GraphUpdate> = (0..12)
        .map(|_| random_update(&mut rng, nodes, labels))
        .collect();
    for db in &dbs {
        db.apply(&updates).unwrap();
        audit_gate(db, &format!("bound shapes ({})", db.backend_name()));
    }

    let query = "l0/l1-";
    let reference = dbs[0].query(query).unwrap();
    for db in &dbs[1..] {
        let prepared = db.prepare(query).unwrap();
        for node in 0..nodes {
            let node = NodeId(node);
            let bound = prepared.run(db, QueryOptions::new().source(node)).unwrap();
            let expected: Vec<_> = reference
                .pairs()
                .iter()
                .copied()
                .filter(|&(s, _)| s == node)
                .collect();
            assert_eq!(
                bound.pairs(),
                &expected[..],
                "{}: source binding diverged",
                db.backend_name()
            );
            for &(s, t) in &expected {
                assert!(
                    prepared
                        .exists(db, QueryOptions::new().source(s).target(t))
                        .unwrap(),
                    "{}: exists probe diverged",
                    db.backend_name()
                );
            }
        }
        assert_eq!(
            prepared.count(db, QueryOptions::new()).unwrap(),
            reference.len(),
            "{}: count diverged",
            db.backend_name()
        );
    }
}
