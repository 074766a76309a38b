//! Experiment **X9** (extension): incremental index maintenance versus full
//! rebuild.
//!
//! The paper builds `I_{G,k}` once; this experiment quantifies the follow-up
//! question a deployment immediately faces — what a single edge update costs
//! when the index is maintained with the counting delta rules of
//! [`pathix_index::IncrementalKPathIndex`], compared against rebuilding the
//! whole index from scratch after every change.

use crate::datasets::build_advogato;
use crate::report::{write_json, Table};
use pathix_graph::{Graph, LabelId, NodeId};
use pathix_index::{IncrementalKPathIndex, PathIndexBackend, SharedKPathIndex};
use std::time::Instant;

/// One `(k, batch)` measurement.
#[derive(Debug, Clone)]
pub struct IncrementalRow {
    /// Locality parameter.
    pub k: usize,
    /// Index entries before the update batch.
    pub entries: usize,
    /// Number of edges deleted and re-inserted.
    pub batch: usize,
    /// Mean time of one incremental deletion, in microseconds.
    pub delete_us: f64,
    /// Mean time of one incremental insertion, in microseconds.
    pub insert_us: f64,
    /// Time of one full `SharedKPathIndex::build` over the same graph, in
    /// milliseconds.
    pub rebuild_ms: f64,
    /// `rebuild_ms * 1000 / insert_us` — how many incremental insertions one
    /// rebuild pays for.
    pub rebuild_per_insert: f64,
}

/// The X9 report.
#[derive(Debug, Clone)]
pub struct IncrementalReport {
    /// Advogato-like scale factor.
    pub scale: f64,
    /// All rows.
    pub rows: Vec<IncrementalRow>,
}

/// Every `step`-th edge of the graph, used as the update batch.
fn update_batch(graph: &Graph, step: usize) -> Vec<(NodeId, LabelId, NodeId)> {
    graph
        .labels()
        .flat_map(|l| graph.edges(l).map(move |(s, d)| (s, l, d)))
        .step_by(step.max(1))
        .collect()
}

/// Runs the incremental maintenance experiment for `k ∈ {1, 2}` (k = 3 is
/// excluded: replaying tens of millions of walk deltas is exactly the
/// workload the experiment shows one should avoid rebuilding for).
pub fn incremental_maintenance(scale: f64) -> IncrementalReport {
    let graph = build_advogato(scale);
    println!(
        "== X9: incremental maintenance vs rebuild (scale {scale}: {} nodes, {} edges)\n",
        graph.node_count(),
        graph.edge_count()
    );
    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "k",
        "entries",
        "batch",
        "delete (µs/edge)",
        "insert (µs/edge)",
        "rebuild (ms)",
        "rebuilds avoided per insert",
    ]);
    for k in [1usize, 2] {
        let start = Instant::now();
        let rebuilt = SharedKPathIndex::build(&graph, k);
        let rebuild_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut live = IncrementalKPathIndex::from_graph(&graph, k);
        let entries = live.entry_count();
        assert_eq!(
            entries as u64,
            rebuilt.stats().entries,
            "seeding must match a rebuild"
        );

        let batch = update_batch(&graph, graph.edge_count() / 200);
        let start = Instant::now();
        for &(src, label, dst) in &batch {
            live.delete_edge(src, label, dst);
        }
        let delete_us = start.elapsed().as_secs_f64() * 1e6 / batch.len().max(1) as f64;
        let start = Instant::now();
        for &(src, label, dst) in &batch {
            live.insert_edge(src, label, dst);
        }
        let insert_us = start.elapsed().as_secs_f64() * 1e6 / batch.len().max(1) as f64;
        assert_eq!(
            live.entry_count(),
            entries,
            "delete + re-insert must restore the index"
        );

        let rebuild_per_insert = rebuild_ms * 1e3 / insert_us.max(1e-9);
        table.push_row(vec![
            k.to_string(),
            entries.to_string(),
            batch.len().to_string(),
            format!("{delete_us:.1}"),
            format!("{insert_us:.1}"),
            format!("{rebuild_ms:.1}"),
            format!("{rebuild_per_insert:.0}"),
        ]);
        rows.push(IncrementalRow {
            k,
            entries,
            batch: batch.len(),
            delete_us,
            insert_us,
            rebuild_ms,
            rebuild_per_insert,
        });
    }
    println!("{}", table.render());
    println!(
        "expected shape: a single incremental update costs microseconds to low milliseconds \
         (it only touches the k-neighborhood of the edge), orders of magnitude less than the \
         full rebuild that would otherwise be needed to stay fresh; the per-update cost grows \
         with k (larger neighborhoods), so the ratio narrows as k increases but stays large.\n"
    );
    let report = IncrementalReport { scale, rows };
    write_json("incremental_maintenance", &report);
    report
}

crate::impl_to_json!(IncrementalRow {
    k,
    entries,
    batch,
    delete_us,
    insert_us,
    rebuild_ms,
    rebuild_per_insert
});
crate::impl_to_json!(IncrementalReport { scale, rows });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_maintenance_runs_at_tiny_scale() {
        let report = incremental_maintenance(0.01);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!(row.batch > 0);
            assert!(row.insert_us > 0.0 && row.delete_us > 0.0);
            assert!(row.rebuild_ms > 0.0);
        }
        // The k = 2 index is strictly larger than the k = 1 index.
        assert!(report.rows[1].entries > report.rows[0].entries);
    }
}
