//! The k-path index on disk: paged B+tree, buffer pool behaviour and
//! delta/varint compression — the questions studied by the companion work the
//! paper cites (index size, compression, performance).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example disk_index
//! ```

use pathix::datagen::{advogato_like, AdvogatoConfig};
use pathix::index::SharedKPathIndex;
use pathix::pagestore::{CompressedPathStore, PagedPathIndex};
use pathix::{PathIndexBackend, SignedLabel};
use std::time::Instant;

fn main() {
    // A small Advogato-like social network (3 trust labels, heavy-tailed
    // degrees); scale up with PATHIX_BENCH_SCALE if you want bigger numbers.
    let scale = std::env::var("PATHIX_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let graph = advogato_like(AdvogatoConfig::scaled(scale));
    println!(
        "graph: {} nodes, {} edges, {} labels\n",
        graph.node_count(),
        graph.edge_count(),
        graph.label_count()
    );

    println!(
        "{:>3}  {:>10}  {:>8}  {:>10}  {:>12}  {:>12}  {:>7}",
        "k", "entries", "pages", "disk (KiB)", "compressed", "ratio", "build"
    );
    for k in 1..=3usize {
        // 1. The in-memory index (what the query pipeline uses).
        let t = Instant::now();
        let memory_index = SharedKPathIndex::build(&graph, k);
        let build = t.elapsed();

        // 2. The same index bulk-loaded into 4 KiB pages behind a 64-frame
        //    buffer pool, backed by a real file in the target directory.
        let path = std::env::temp_dir().join(format!("pathix-disk-index-k{k}.pages"));
        let paged = PagedPathIndex::build_on_disk(&graph, k, &path, 64).unwrap();
        let stats = paged.stats();

        // 3. The same chunk runs as the in-memory index, each chunk delta +
        //    varint encoded; the ratio is the page file's size over theirs.
        let compressed = CompressedPathStore::build_in(&graph, k)
            .stats()
            .approx_bytes;

        println!(
            "{k:>3}  {:>10}  {:>8}  {:>10.1}  {:>10.1} KiB  {:>11.2}x  {:>6.0?}",
            memory_index.stats().entries,
            stats.tree.pages,
            stats.tree.bytes_on_disk as f64 / 1024.0,
            compressed as f64 / 1024.0,
            stats.tree.bytes_on_disk as f64 / compressed as f64,
            build
        );
        std::fs::remove_file(&path).ok();
    }

    // Buffer-pool behaviour: a cold scan misses, repeating it hits.
    println!(
        "\nbuffer pool behaviour (k = 2, 8-frame pool, scanning the `journeyer.journeyer` paths):"
    );
    let paged = PagedPathIndex::build_in_memory(&graph, 2, 8).unwrap();
    let knows = SignedLabel::forward(graph.label_id("journeyer").unwrap());
    paged.reset_pool_stats();
    let cold = {
        let pairs = paged.scan_path(&[knows, knows]).unwrap();
        (pairs.len(), paged.pool_stats())
    };
    paged.reset_pool_stats();
    let warm = {
        let pairs = paged.scan_path(&[knows, knows]).unwrap();
        (pairs.len(), paged.pool_stats())
    };
    println!(
        "  cold scan: {} pairs, {} hits / {} misses",
        cold.0, cold.1.hits, cold.1.misses
    );
    println!(
        "  warm scan: {} pairs, {} hits / {} misses",
        warm.0, warm.1.hits, warm.1.misses
    );
}
