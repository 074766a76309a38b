//! Dataset construction shared by the experiment runners.

use pathix_core::{PathDb, PathDbConfig};
use pathix_datagen::{advogato_like, barabasi_albert, AdvogatoConfig};
use pathix_graph::Graph;

/// Default scale factor applied to the Advogato node/edge counts when
/// `PATHIX_BENCH_SCALE` is not set.
///
/// The paper runs on the full 6,541-node network; a 10% sample keeps the
/// full k = 1..3 × 4-strategy × 8-query sweep (including the k = 3 index
/// build) in the low tens of seconds while preserving the relative ordering
/// of the methods.
pub const DEFAULT_SCALE: f64 = 0.10;

/// Reads the benchmark scale from `PATHIX_BENCH_SCALE` (default
/// [`DEFAULT_SCALE`], clamped to `(0, 1]`).
pub fn bench_scale() -> f64 {
    std::env::var("PATHIX_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(|s| s.clamp(0.001, 1.0))
        .unwrap_or(DEFAULT_SCALE)
}

/// Builds the Advogato-like benchmark graph at the given scale.
pub fn build_advogato(scale: f64) -> Graph {
    advogato_like(AdvogatoConfig::scaled(scale))
}

/// Builds a [`PathDb`] over the Advogato-like graph for a given k.
pub fn build_advogato_db(scale: f64, k: usize) -> PathDb {
    PathDb::build(build_advogato(scale), PathDbConfig::with_k(k))
}

/// Builds a Barabási–Albert graph with `nodes` nodes for the scaling
/// experiment (3 labels like Advogato, 4 edges per node).
pub fn build_ba(nodes: usize, seed: u64) -> Graph {
    barabasi_albert(nodes, 4, &["a", "b", "c"], seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_advogato_db_builds() {
        let db = build_advogato_db(0.01, 2);
        assert!(db.stats().index.entries > 0);
        assert_eq!(db.k(), 2);
    }

    #[test]
    fn ba_graph_builds() {
        let g = build_ba(200, 3);
        assert_eq!(g.node_count(), 200);
        assert_eq!(g.label_count(), 3);
    }
}
