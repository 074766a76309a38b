//! Incremental index maintenance: keep `I_{G,k}` consistent while edges
//! arrive and disappear, without rebuilding from scratch.
//!
//! The paper builds its k-path index once over a static graph; this example
//! exercises the counting-based maintenance extension
//! ([`pathix::index::IncrementalKPathIndex`]) on a stream of social-network
//! updates and compares its cost and results against full rebuilds.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use pathix::datagen::{social_network, SocialConfig};
use pathix::graph::EdgeOp;
use pathix::index::{DeltaBatch, IncrementalKPathIndex, MutablePathIndexBackend, SharedKPathIndex};
use pathix::{EntryDeltas, Graph, GraphBuilder, LabelId, NodeId, PathIndexBackend};
use std::time::Instant;

/// Collects the labeled edge list of a graph.
fn edge_list(graph: &Graph) -> Vec<(NodeId, LabelId, NodeId)> {
    graph
        .labels()
        .flat_map(|l| graph.edges(l).map(move |(s, d)| (s, l, d)))
        .collect()
}

/// Rebuilds a `Graph` (preserving node and label ids) from an edge subset.
fn graph_from_edges(template: &Graph, edges: &[(NodeId, LabelId, NodeId)]) -> Graph {
    let mut builder = GraphBuilder::with_capacity(edges.len());
    for node in template.nodes() {
        builder.add_node(template.node_name(node).expect("node is interned"));
    }
    for label in template.labels() {
        builder.add_label(template.label_name(label).expect("label is interned"));
    }
    for &(src, label, dst) in edges {
        builder.add_edge(src, label, dst);
    }
    builder.build()
}

fn main() {
    const K: usize = 2;

    // A mid-sized social graph; the last 10% of its edges arrive "later" as a
    // stream of insertions, and 5% of the initial edges are later retracted.
    let full = social_network(SocialConfig {
        people: 600,
        companies: 30,
        knows_per_person: 6,
        ..Default::default()
    });
    let all_edges = edge_list(&full);
    let split = all_edges.len() * 9 / 10;
    let (initial, arriving) = all_edges.split_at(split);
    let retracted: Vec<_> = initial.iter().copied().step_by(20).collect();

    println!(
        "graph: {} nodes, {} edges ({} initial, {} arriving, {} retracted later), k = {K}\n",
        full.node_count(),
        all_edges.len(),
        initial.len(),
        arriving.len(),
        retracted.len()
    );

    // 1. Seed the incremental index with the initial edge set.
    let mut graph = graph_from_edges(&full, initial);
    let start = Instant::now();
    let mut live = IncrementalKPathIndex::bulk_from_graph(&graph, K);
    println!(
        "seeded incremental index: {} entries in {:?}",
        live.entry_count(),
        start.elapsed()
    );
    // The memory backend a database would publish, built over the same
    // initial graph; it replays the update log below and counts its own
    // paths.
    let mut published = SharedKPathIndex::build(&graph, K);

    // 2. Apply the update stream: insertions first, then the retractions.
    //    Each op advances `graph` by one epoch, and the counting rules walk
    //    the epochs before and after it.
    let start = Instant::now();
    let mut log = EntryDeltas::new();
    let mut stream_inserts = 0usize;
    let mut stream_deletes = 0usize;
    for &(src, label, dst) in arriving {
        let op = EdgeOp::insert(src, label, dst);
        stream_inserts += usize::from(live.apply_logged(&mut graph, op, &mut log));
    }
    for &(src, label, dst) in &retracted {
        let op = EdgeOp::delete(src, label, dst);
        stream_deletes += usize::from(live.apply_logged(&mut graph, op, &mut log));
    }
    let incremental_time = start.elapsed();
    println!(
        "applied {stream_inserts} insertions + {stream_deletes} deletions incrementally \
         in {incremental_time:?} ({} logged walk-count writes)",
        log.counts().len()
    );

    // 3. The same final state via a full rebuild, for comparison.
    let final_edges: Vec<_> = all_edges
        .iter()
        .copied()
        .filter(|e| !retracted.contains(e))
        .collect();
    let final_graph = graph_from_edges(&full, &final_edges);
    let start = Instant::now();
    let rebuilt = SharedKPathIndex::build(&final_graph, K);
    let rebuild_time = start.elapsed();
    println!(
        "full rebuild of the final graph: {} entries in {rebuild_time:?}",
        rebuilt.stats().entries
    );
    // Staying fresh after *every* update would need one rebuild per update;
    // the incremental path only touches the k-neighborhood of the edge.
    let per_update = incremental_time / (stream_inserts + stream_deletes).max(1) as u32;
    println!(
        "per-update maintenance cost ≈ {per_update:?} — {:.0}× cheaper than rebuilding \
         after each update\n",
        rebuild_time.as_secs_f64() / per_update.as_secs_f64().max(1e-9)
    );

    // 4. Verify both routes agree on every indexed path relation, and that
    //    the epoch chain ended at the final graph.
    assert_eq!(graph.edge_count(), final_graph.edge_count());
    assert_eq!(live.entry_count() as u64, rebuilt.stats().entries);
    for (path, _) in rebuilt.per_path_counts() {
        let expected: Vec<_> = rebuilt.scan_path(path).collect();
        assert_eq!(live.scan_path(path), expected, "path {path:?} diverged");
    }
    println!(
        "incremental maintenance and full rebuild agree on all {} path relations ✔",
        rebuilt.stats().distinct_paths
    );
    published
        .apply_delta_batch(&DeltaBatch {
            deltas: &log,
            node_count: graph.node_count(),
            inserted_edges: stream_inserts as u64,
            deleted_edges: stream_deletes as u64,
            seq: 1,
        })
        .expect("a log from the counting rules replays");
    assert_eq!(published.per_path_counts(), rebuilt.per_path_counts());
    println!(
        "the memory backend replayed the same log and counts the rebuild's {} entries ✔",
        published.stats().entries
    );

    // 5. Walk counts explain *why* pairs survive deletions: a pair stays in
    //    the index exactly while at least one walk still realizes it.
    let knows = full.label_id("knows").expect("label exists");
    let kk: [pathix::SignedLabel; 2] = [knows.into(), knows.into()];
    let survivors = live.scan_path(&kk);
    if let Some(&(a, b)) = survivors.first() {
        println!(
            "example: ({}, {}) is connected by {} distinct knows/knows walks",
            full.node_name(a).unwrap_or("?"),
            full.node_name(b).unwrap_or("?"),
            live.walk_count(&kk, a, b)
        );
    }
}
