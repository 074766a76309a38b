//! Incremental index maintenance: keep `I_{G,k}` consistent while edges
//! arrive and disappear, without rebuilding from scratch.
//!
//! The paper builds its k-path index once over a static graph; this example
//! exercises the rederivation rule that maintains it
//! ([`pathix::index::apply_op`]) on a stream of social-network updates: the
//! rule logs which keys enter and leave the index, the memory backend
//! replays that log, and the result is checked against a full rebuild.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use pathix::datagen::{social_network, SocialConfig};
use pathix::graph::EdgeOp;
use pathix::index::{apply_op, DeltaBatch, EntryChange, MutablePathIndexBackend, SharedKPathIndex};
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

    // 1. Build the index a database would publish over the initial edges.
    let mut graph = graph_from_edges(&full, initial);
    let start = Instant::now();
    let mut published = SharedKPathIndex::build(&graph, K);
    println!(
        "built the initial index: {} entries in {:?}",
        published.stats().entries,
        start.elapsed()
    );

    // 2. Apply the update stream: insertions first, then the retractions.
    //    Each op advances `graph` by one epoch, and the rule walks the
    //    epochs before and after it; the writer holds no copy of the index.
    let start = Instant::now();
    let mut log = EntryDeltas::new();
    let mut stream_inserts = 0usize;
    let mut stream_deletes = 0usize;
    for &(src, label, dst) in arriving {
        let op = EdgeOp::insert(src, label, dst);
        stream_inserts += usize::from(apply_op(&mut graph, K, op, &mut log));
    }
    for &(src, label, dst) in &retracted {
        let op = EdgeOp::delete(src, label, dst);
        stream_deletes += usize::from(apply_op(&mut graph, K, op, &mut log));
    }
    let incremental_time = start.elapsed();
    let added = log
        .ops()
        .iter()
        .filter(|(_, change)| *change == EntryChange::Added)
        .count();
    println!(
        "applied {stream_inserts} insertions + {stream_deletes} deletions incrementally \
         in {incremental_time:?} ({added} keys added, {} removed)",
        log.len() - added
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

    // 4. Replay the log into the published index and verify it agrees with
    //    the rebuild on every path relation, and that the epoch chain ended
    //    at the final graph.
    assert_eq!(graph.edge_count(), final_graph.edge_count());
    published
        .apply_delta_batch(&DeltaBatch {
            deltas: &log,
            node_count: graph.node_count(),
            seq: 1,
        })
        .expect("a log from the rederivation rule replays");
    assert_eq!(published.per_path_counts(), rebuilt.per_path_counts());
    for (path, _) in rebuilt.per_path_counts() {
        let expected: Vec<_> = rebuilt.scan_path(path).collect();
        let replayed: Vec<_> = published.scan_path(path).collect();
        assert_eq!(replayed, expected, "path {path:?} diverged");
    }
    println!(
        "the replayed log and a full rebuild agree on all {} entries of {} path relations ✔",
        rebuilt.stats().entries,
        rebuilt.stats().distinct_paths
    );
}
