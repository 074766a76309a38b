//! Advogato-like trust network generator.
//!
//! Advogato (Massa et al., DASC 2009; KONECT id `advogato`) is the real-world
//! dataset used in the paper's Figure 2: **6,541 nodes and 51,127 edges**
//! whose labels are the three trust certification levels `apprentice`,
//! `journeyer` and `master`. The original download is not available in this
//! offline reproduction, so this generator produces a graph with
//!
//! * the same node count, edge count and vocabulary size (scaled by
//!   [`AdvogatoConfig::scale`]),
//! * a heavy-tailed in/out-degree distribution (discrete power law over the
//!   node ranks), matching the hub-dominated structure of the real trust
//!   network,
//! * a skewed label distribution (most certifications are at the lower trust
//!   levels, as in the real data).
//!
//! The generator is deterministic for a fixed seed and configuration.

use pathix_graph::{Graph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Node count of the real Advogato dataset.
pub const ADVOGATO_NODES: usize = 6_541;
/// Edge count of the real Advogato dataset.
pub const ADVOGATO_EDGES: usize = 51_127;
/// The three trust levels used as edge labels.
pub const ADVOGATO_LABELS: [&str; 3] = ["apprentice", "journeyer", "master"];

/// Configuration of the Advogato-like generator.
#[derive(Debug, Clone, Copy)]
pub struct AdvogatoConfig {
    /// Scale factor applied to the real node and edge counts. `1.0` produces
    /// the full-size graph; benchmarks default to smaller scales so that
    /// k = 3 index construction stays laptop-friendly.
    pub scale: f64,
    /// Power-law exponent of the rank-based degree weights (larger values
    /// concentrate more edges on the hubs). The default of 0.6 reproduces a
    /// heavy-tailed degree distribution whose largest hubs certify a few
    /// percent of the network, as in the real data, without collapsing the
    /// graph into a single dense core.
    pub exponent: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for AdvogatoConfig {
    fn default() -> Self {
        AdvogatoConfig {
            scale: 1.0,
            exponent: 0.6,
            seed: 0xAD06A70,
        }
    }
}

impl AdvogatoConfig {
    /// A configuration scaled to `scale`, keeping the other defaults.
    pub fn scaled(scale: f64) -> Self {
        AdvogatoConfig {
            scale,
            ..Self::default()
        }
    }

    /// Number of nodes this configuration generates.
    pub fn node_count(&self) -> usize {
        ((ADVOGATO_NODES as f64) * self.scale).round().max(8.0) as usize
    }

    /// Number of edges this configuration aims to generate.
    pub fn edge_count(&self) -> usize {
        ((ADVOGATO_EDGES as f64) * self.scale).round().max(16.0) as usize
    }
}

/// Generates an Advogato-like trust network.
///
/// ```
/// use pathix_datagen::{advogato_like, AdvogatoConfig};
///
/// let config = AdvogatoConfig::scaled(0.01);
/// let graph = advogato_like(config);
/// assert_eq!(graph.node_count(), config.node_count()); // 65 of the 6,541
/// assert_eq!(graph.label_names(), ["apprentice", "journeyer", "master"]);
/// // Duplicate rejection may fall a little short of the edge target.
/// assert!(graph.edge_count() <= config.edge_count());
/// assert!(graph.edge_count() * 100 >= config.edge_count() * 95);
/// // Same configuration, same graph.
/// let again = advogato_like(config);
/// assert!(graph.labels().all(|l| graph.edges(l).eq(again.edges(l))));
/// ```
pub fn advogato_like(config: AdvogatoConfig) -> Graph {
    let n = config.node_count();
    let m = config.edge_count();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Rank-based power-law weights: node i has weight (i + 1)^-exponent.
    // Cumulative weights allow O(log n) sampling by binary search.
    let sampler = PowerLawSampler::new(n, config.exponent);

    // Label skew of the real data: most certifications are at the two lower
    // trust levels.
    let label_cumulative = [0.45f64, 0.82, 1.0];

    let mut builder = GraphBuilder::with_capacity(m);
    // Intern nodes up front so node ids are 0..n in rank order (rank 0 is the
    // largest hub).
    for i in 0..n {
        builder.add_node(&format!("u{i}"));
    }
    for label in ADVOGATO_LABELS {
        builder.add_label(label);
    }

    let mut seen: HashSet<(u32, u32, u8)> = HashSet::with_capacity(m * 2);
    let mut added = 0usize;
    let mut attempts = 0usize;
    let max_attempts = m * 40;
    while added < m && attempts < max_attempts {
        attempts += 1;
        let src = sampler.sample(&mut rng);
        let dst = sampler.sample(&mut rng);
        if src == dst {
            continue;
        }
        let r: f64 = rng.gen();
        let label_idx = label_cumulative.iter().position(|&c| r <= c).unwrap_or(2) as u8;
        if !seen.insert((src as u32, dst as u32, label_idx)) {
            continue;
        }
        builder.add_edge_named(
            &format!("u{src}"),
            ADVOGATO_LABELS[label_idx as usize],
            &format!("u{dst}"),
        );
        added += 1;
    }
    builder.build()
}

/// Samples node ranks from a discrete power-law distribution.
struct PowerLawSampler {
    cumulative: Vec<f64>,
}

impl PowerLawSampler {
    fn new(n: usize, exponent: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(exponent);
            cumulative.push(acc);
        }
        PowerLawSampler { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty sampler");
        let x: f64 = rng.gen::<f64>() * total;
        self.cumulative.partition_point(|&c| c < x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_published_counts() {
        let cfg = AdvogatoConfig::default();
        assert_eq!(cfg.node_count(), ADVOGATO_NODES);
        assert_eq!(cfg.edge_count(), ADVOGATO_EDGES);
    }

    #[test]
    fn small_scale_generates_requested_size() {
        let cfg = AdvogatoConfig::scaled(0.05);
        let g = advogato_like(cfg);
        assert_eq!(g.node_count(), cfg.node_count());
        assert_eq!(g.label_count(), 3);
        // Duplicate rejection can fall slightly short of the target, but the
        // generator should get within a few percent.
        let target = cfg.edge_count();
        assert!(
            g.edge_count() >= target * 95 / 100,
            "generated {} edges, wanted ≈{}",
            g.edge_count(),
            target
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = AdvogatoConfig {
            scale: 0.03,
            ..Default::default()
        };
        let a = advogato_like(cfg);
        let b = advogato_like(cfg);
        assert_eq!(a.edge_count(), b.edge_count());
        for label in a.labels() {
            let name = a.label_name(label).unwrap();
            let lb = b.label_id(name).unwrap();
            assert!(a.edges(label).eq(b.edges(lb)));
        }
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        let a = advogato_like(AdvogatoConfig {
            scale: 0.03,
            seed: 1,
            ..Default::default()
        });
        let b = advogato_like(AdvogatoConfig {
            scale: 0.03,
            seed: 2,
            ..Default::default()
        });
        let same_edges = a.labels().all(|l| {
            a.edges(l)
                .eq(b.edges(b.label_id(a.label_name(l).unwrap()).unwrap()))
        });
        assert!(!same_edges);
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = advogato_like(AdvogatoConfig::scaled(0.1));
        let mut degrees: Vec<usize> = g.nodes().map(|n| g.total_degree(n)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top_share: usize = degrees.iter().take(degrees.len() / 20).sum();
        let total: usize = degrees.iter().sum();
        // The top 5% of nodes should carry well over a quarter of all degree.
        assert!(
            top_share * 4 > total,
            "top-5% share {top_share} of {total} is not heavy-tailed"
        );
    }

    #[test]
    fn all_three_labels_are_used() {
        let g = advogato_like(AdvogatoConfig::scaled(0.05));
        for name in ADVOGATO_LABELS {
            let l = g.label_id(name).unwrap();
            assert!(g.label_edge_count(l) > 0, "label {name} unused");
        }
    }
}
