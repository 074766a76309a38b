//! Experiment **X6** (extension): index size on disk and compression — the
//! dimension of the companion study the paper cites (reference \[14\]).
//!
//! For k ∈ {1, 2, 3} the k-path index is materialized three ways:
//!
//! * the in-memory chunk runs the query pipeline uses (approximate bytes),
//! * a paged B+tree in 4 KiB pages behind a buffer pool (pages / bytes on
//!   disk),
//! * delta/varint-compressed per-path pair blocks (bytes + compression
//!   ratio).
//!
//! A second table reports buffer-pool behaviour of a cold versus warm index
//! scan with a deliberately small pool.

use crate::datasets::build_advogato;
use crate::report::{write_json, Table};
use pathix_graph::SignedLabel;
use pathix_index::{PathIndexBackend, SharedKPathIndex};
use pathix_pagestore::{CompressedPathStore, PagedPathIndex};
use std::time::Instant;

/// One `(k)` size measurement.
#[derive(Debug, Clone)]
pub struct PagedRow {
    /// Locality parameter.
    pub k: usize,
    /// Index entries.
    pub entries: u64,
    /// In-memory approximate key bytes.
    pub memory_bytes: u64,
    /// Pages of the paged B+tree.
    pub pages: u32,
    /// Bytes on disk of the paged B+tree.
    pub disk_bytes: u64,
    /// Bytes of the compressed per-path blocks.
    pub compressed_bytes: u64,
    /// Compression ratio versus one entry per pair.
    pub compression_ratio: f64,
    /// Paged build time in milliseconds.
    pub paged_build_ms: f64,
}

/// The X6 report.
#[derive(Debug, Clone)]
pub struct PagedReport {
    /// Scale factor used.
    pub scale: f64,
    /// Size rows per k.
    pub rows: Vec<PagedRow>,
    /// Cold-scan misses with an 8-frame pool (k = 2).
    pub cold_misses: u64,
    /// Warm-scan misses with an 8-frame pool (k = 2).
    pub warm_misses: u64,
}

/// Runs the on-disk size / compression experiment at the given scale.
pub fn paged_index(scale: f64) -> PagedReport {
    let graph = build_advogato(scale);
    println!(
        "== X6: index size on disk and compression (scale {scale}: {} nodes, {} edges)\n",
        graph.node_count(),
        graph.edge_count()
    );
    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "k",
        "entries",
        "memory keys (KiB)",
        "paged (pages)",
        "paged (KiB)",
        "compressed (KiB)",
        "ratio",
        "paged build (ms)",
    ]);
    for k in 1..=3usize {
        let memory = SharedKPathIndex::build(&graph, k);
        let start = Instant::now();
        let paged = PagedPathIndex::build_in_memory(&graph, k, 256).unwrap();
        let paged_build_ms = start.elapsed().as_secs_f64() * 1e3;
        let compressed = CompressedPathStore::build(&graph, k);
        let cstats = compressed.stats();
        let stats = paged.stats();
        let row = PagedRow {
            k,
            entries: stats.entries,
            memory_bytes: memory.stats().approx_bytes,
            pages: stats.tree.pages,
            disk_bytes: stats.tree.bytes_on_disk,
            compressed_bytes: cstats.compressed_bytes,
            compression_ratio: cstats.ratio(),
            paged_build_ms,
        };
        table.push_row(vec![
            k.to_string(),
            row.entries.to_string(),
            format!("{:.1}", row.memory_bytes as f64 / 1024.0),
            row.pages.to_string(),
            format!("{:.1}", row.disk_bytes as f64 / 1024.0),
            format!("{:.1}", row.compressed_bytes as f64 / 1024.0),
            format!("{:.2}x", row.compression_ratio),
            format!("{:.1}", row.paged_build_ms),
        ]);
        rows.push(row);
    }
    println!("{}", table.render());

    // Buffer-pool behaviour: cold vs warm scan of a 2-path with 8 frames.
    let paged = PagedPathIndex::build_in_memory(&graph, 2, 8).unwrap();
    let journeyer = SignedLabel::forward(
        graph
            .label_id("journeyer")
            .unwrap_or_else(|| graph.labels().next().expect("graph has labels")),
    );
    let path = [journeyer, journeyer];
    paged.reset_pool_stats();
    let _ = paged.scan_path(&path).unwrap();
    let cold = paged.pool_stats();
    paged.reset_pool_stats();
    let _ = paged.scan_path(&path).unwrap();
    let warm = paged.pool_stats();
    println!(
        "buffer pool (8 frames, k = 2): cold scan {} misses / {} hits, repeated scan {} misses / {} hits\n",
        cold.misses, cold.hits, warm.misses, warm.hits
    );
    println!(
        "expected shape: entries and bytes grow sharply with k; the compressed blocks are \
         several times smaller than the per-entry layout; a warm scan misses (far) less than a \
         cold one.\n"
    );

    let report = PagedReport {
        scale,
        rows,
        cold_misses: cold.misses,
        warm_misses: warm.misses,
    };
    write_json("paged_index", &report);
    report
}

crate::impl_to_json!(PagedRow {
    k,
    entries,
    memory_bytes,
    pages,
    disk_bytes,
    compressed_bytes,
    compression_ratio,
    paged_build_ms
});
crate::impl_to_json!(PagedReport {
    scale,
    rows,
    cold_misses,
    warm_misses
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paged_experiment_runs_at_tiny_scale() {
        let report = paged_index(0.005);
        assert_eq!(report.rows.len(), 3);
        assert!(report.rows.iter().all(|r| r.compression_ratio > 1.0));
        assert!(report.rows[2].entries >= report.rows[0].entries);
    }
}
