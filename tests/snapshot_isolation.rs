//! Cross-backend snapshot isolation: a reader view opened *before* a batch
//! is **bit-stable** across arbitrarily many later batches, on all four
//! storage backends.
//!
//! This pins what the copy-on-write work had to deliver: memory and
//! compressed snapshots were always isolated (they own their data), but
//! paged/on-disk snapshots used to share pages with the writer, so a view
//! taken before a batch observed later page rewrites. Page-level
//! copy-on-write closes that gap — the writer relocates instead of
//! overwriting any page a live snapshot can reach — and this suite fails
//! loudly if it ever regresses: every open snapshot is re-read, in full,
//! after every later batch and compared byte-for-byte against what it
//! answered when it was opened. The paged backends run with a tiny buffer
//! pool so the snapshots' pages are constantly evicted and re-read from the
//! backing store, proving the isolation holds on disk, not just in cache.
//!
//! The number of random cases honours `PATHIX_PROP_CASES` so CI can run a
//! fixed-seed quick profile.

use pathix::datagen::paper_example_graph;
use pathix::{
    BackendChoice, GraphUpdate, LabelId, NodeId, PathDb, PathDbConfig, PathIndexBackend, Snapshot,
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
        .unwrap_or(16)
}

/// A random update over the paper graph's interned vocabulary.
fn random_update(rng: &mut StdRng, nodes: u32, labels: u16) -> GraphUpdate {
    let src = NodeId(rng.gen_range(0..nodes));
    let dst = NodeId(rng.gen_range(0..nodes));
    let label = LabelId(rng.gen_range(0..labels));
    if rng.gen_bool(0.6) {
        GraphUpdate::InsertEdge { src, label, dst }
    } else {
        GraphUpdate::DeleteEdge { src, label, dst }
    }
}

/// Structural audit gate: after a batch is applied the database must pass
/// [`PathDb::audit`] — here with snapshots pinned, so the writer-side
/// lifecycle checks (pinned roots disjoint from free and retired-at-older
/// epochs) see real concurrent histories. Full coverage under
/// `PATHIX_AUDIT=1`; otherwise every fourth call audits.
fn audit_gate(db: &PathDb, context: &str) {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let full = std::env::var("PATHIX_AUDIT").is_ok_and(|v| v == "1");
    if full || CALLS.fetch_add(1, Ordering::Relaxed).is_multiple_of(4) {
        db.audit().assert_clean(context);
    }
}

/// A per-test scratch directory for the on-disk backend, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pathix-snapiso-{}-{}-{tag}",
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

/// All four storage backends. The paged pools are deliberately tiny (4
/// frames) so snapshot pages cannot survive in cache across batches.
fn all_backends(dir: &TempDir, case: u64) -> Vec<BackendChoice> {
    vec![
        BackendChoice::Memory,
        BackendChoice::PagedInMemory { pool_frames: 4 },
        BackendChoice::OnDisk {
            path: dir.path(&format!("case-{case}.pages")),
            pool_frames: 4,
        },
        BackendChoice::Compressed,
    ]
}

/// Every indexed path's pair list, in scan order.
type IndexBits = Vec<(Vec<pathix::SignedLabel>, Vec<(NodeId, NodeId)>)>;

/// The full observable content of a snapshot's index: every indexed path's
/// pair list, in scan order — "the bits" a reader can see.
fn index_bits(snapshot: &Snapshot) -> IndexBits {
    let index = snapshot.index();
    index
        .per_path_counts()
        .iter()
        .map(|(path, count)| {
            let pairs: Vec<(NodeId, NodeId)> = index.collect_path(path).unwrap();
            assert_eq!(
                pairs.len() as u64,
                *count,
                "path {path:?}: scan disagrees with the recorded cardinality"
            );
            pairs.windows(2).for_each(|w| {
                assert!(w[0] < w[1], "path {path:?}: scan order broken");
            });
            (path.clone(), pairs)
        })
        .collect()
}

/// Point probes through the other two lookup shapes of Example 3.1, so the
/// stability claim covers `scan_path_from` and `contains` too.
fn probe_bits(snapshot: &Snapshot, bits: &IndexBits) {
    let index = snapshot.index();
    for (path, pairs) in bits {
        if let Some(&(a, b)) = pairs.first() {
            assert!(index.contains(path, a, b).unwrap());
            let targets: Vec<NodeId> = pairs
                .iter()
                .filter(|&&(s, _)| s == a)
                .map(|&(_, t)| t)
                .collect();
            assert_eq!(index.scan_path_from(path, a).unwrap(), targets);
        }
    }
}

#[test]
fn reader_views_are_bit_stable_across_later_batches_on_every_backend() {
    let dir = TempDir::new("bitstable");
    for case in 0..cases() {
        for choice in all_backends(&dir, case) {
            let mut rng = StdRng::seed_from_u64(0x150_1A7E + case);
            let k = rng.gen_range(1..=2usize);
            let config = PathDbConfig {
                ..PathDbConfig::with_k(k).with_backend(choice.clone())
            };
            let db = PathDb::try_build(paper_example_graph(), config).unwrap();
            let nodes = db.graph().node_count() as u32;
            let labels = db.graph().label_count() as u16;

            // Open snapshots as batches land, keep them all alive, and
            // re-verify every one of them after every later batch.
            let mut held: Vec<(u64, Snapshot, Vec<_>)> = Vec::new();
            for _batch in 0..rng.gen_range(3..7usize) {
                let snapshot = db.snapshot();
                let bits = index_bits(&snapshot);
                held.push((snapshot.epoch(), snapshot, bits));

                let updates: Vec<GraphUpdate> = (0..rng.gen_range(1..12usize))
                    .map(|_| random_update(&mut rng, nodes, labels))
                    .collect();
                db.apply(&updates).unwrap();
                audit_gate(&db, &format!("case {case} on {choice:?}, snapshots held"));

                for (epoch, snapshot, bits) in &held {
                    assert_eq!(
                        &index_bits(snapshot),
                        bits,
                        "case {case}, backend {choice:?}: the view opened at epoch {epoch} \
                         changed under later batches"
                    );
                    probe_bits(snapshot, bits);
                }
            }

            // Dropping older snapshots (out of order) must not disturb the
            // survivors — reclaimed pages belong to dead epochs only.
            while held.len() > 1 {
                held.remove(0);
                db.apply(&[random_update(&mut rng, nodes, labels)]).unwrap();
                audit_gate(&db, &format!("case {case} on {choice:?}, snapshot dropped"));
                for (epoch, snapshot, bits) in &held {
                    assert_eq!(
                        &index_bits(snapshot),
                        bits,
                        "case {case}, backend {choice:?}: epoch {epoch} view corrupted after \
                         an older snapshot was dropped"
                    );
                }
            }
        }
    }
}

#[test]
fn a_snapshot_held_while_the_writer_churns_still_matches_a_rebuild_of_its_graph() {
    // The stability claim above says "unchanged"; this one says "and it was
    // the *right* content": a held view equals a from-scratch database built
    // over the graph as it stood when the view was opened.
    let dir = TempDir::new("rebuild");
    for choice in all_backends(&dir, 99) {
        let db = PathDb::try_build(
            paper_example_graph(),
            PathDbConfig::with_k(2).with_backend(choice.clone()),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0xB17_5AFE);
        let nodes = db.graph().node_count() as u32;
        let labels = db.graph().label_count() as u16;

        // Mutate, snapshot, keep mutating.
        db.apply(
            &(0..6)
                .map(|_| random_update(&mut rng, nodes, labels))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let snapshot = db.snapshot();
        let frozen_graph = snapshot.graph().clone();
        for _ in 0..4 {
            db.apply(
                &(0..6)
                    .map(|_| random_update(&mut rng, nodes, labels))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            audit_gate(&db, &format!("writer churn on {choice:?}"));
        }

        let rebuilt = PathDb::build(frozen_graph, PathDbConfig::with_k(2));
        let rebuilt_snapshot = rebuilt.snapshot();
        assert_eq!(
            index_bits(&snapshot),
            index_bits(&rebuilt_snapshot),
            "backend {choice:?}: a held view must equal a rebuild of the graph it was opened on"
        );
    }
}
