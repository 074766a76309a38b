//! Experiment **X1** (extension, thesis-style): k-path index construction
//! cost and size as a function of k, on the Advogato-like graph and a
//! Barabási–Albert graph.

use crate::datasets::{build_advogato, build_ba};
use crate::report::Table;
use pathix_core::{PathDb, PathDbConfig};
use pathix_graph::Graph;
use std::time::Instant;

/// One `(dataset, k)` measurement.
#[derive(Debug, Clone)]
pub struct IndexBuildRow {
    /// Dataset name.
    pub dataset: String,
    /// Nodes in the graph.
    pub nodes: usize,
    /// Edges in the graph.
    pub edges: usize,
    /// Locality parameter.
    pub k: usize,
    /// Index entries (`⟨p, a, b⟩` triples).
    pub entries: u64,
    /// Distinct label paths indexed.
    pub paths: usize,
    /// Chunks of the in-memory backend's shared-run index (X1 builds
    /// `Memory`, whose runs are cut into bounded `Arc`-shared chunks).
    pub chunks: usize,
    /// Approximate key bytes stored.
    pub approx_bytes: u64,
    /// Wall-clock construction time in milliseconds (enumeration +
    /// histogram + bulk load).
    pub build_ms: f64,
}

/// The X1 report.
#[derive(Debug, Clone)]
pub struct IndexBuildReport {
    /// Scale used for the Advogato-like dataset.
    pub scale: f64,
    /// All rows.
    pub rows: Vec<IndexBuildRow>,
}

fn measure(
    name: &str,
    graph: &Graph,
    ks: &[usize],
    rows: &mut Vec<IndexBuildRow>,
    table: &mut Table,
) {
    for &k in ks {
        let start = Instant::now();
        let db = PathDb::build(graph.clone(), PathDbConfig::with_k(k));
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        let stats = db.stats().index;
        // X1 always builds the in-memory backend: chunked shared runs.
        let chunks = db
            .index()
            .as_memory()
            .map(|index| index.chunk_count())
            .unwrap_or(0);
        table.push_row(vec![
            name.to_owned(),
            k.to_string(),
            stats.entries.to_string(),
            stats.distinct_paths.to_string(),
            chunks.to_string(),
            format!("{:.1}", stats.approx_bytes as f64 / (1024.0 * 1024.0)),
            format!("{build_ms:.0}"),
        ]);
        rows.push(IndexBuildRow {
            dataset: name.to_owned(),
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            k,
            entries: stats.entries,
            paths: stats.distinct_paths,
            chunks,
            approx_bytes: stats.approx_bytes,
            build_ms,
        });
    }
}

/// Runs the index construction experiment.
pub fn index_construction(scale: f64, ks: &[usize]) -> IndexBuildReport {
    println!("== X1: index construction cost and size vs k\n");
    let advogato = build_advogato(scale);
    let ba = build_ba((2_000.0 * scale.max(0.05)).round() as usize, 42);
    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "dataset",
        "k",
        "entries",
        "paths",
        "chunks",
        "size (MiB)",
        "build (ms)",
    ]);
    measure("advogato-like", &advogato, ks, &mut rows, &mut table);
    measure("barabasi-albert", &ba, ks, &mut rows, &mut table);
    println!("{}", table.render());
    println!(
        "expected shape: entries and build time grow sharply with k (the price paid for the \
         query-time speedups of F2).\n"
    );
    IndexBuildReport { scale, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_construction_runs_at_tiny_scale() {
        let report = index_construction(0.01, &[1, 2]);
        assert_eq!(report.rows.len(), 4);
        // Entries grow with k within a dataset.
        assert!(report.rows[1].entries > report.rows[0].entries);
        assert!(report.rows[3].entries > report.rows[2].entries);
    }
}
