//! Experiment **X3** (extension / ablation): the value of the lightweight
//! histogram. The paper's §5 observation is that the histogram-guided
//! strategies (minSupport / minJoin) beat semi-naive; this ablation
//! additionally compares the equi-depth histogram against exact per-path
//! statistics to show the cheap summary loses almost nothing.

use crate::datasets::build_advogato;
use crate::report::Table;
use pathix_core::{EstimationMode, PathDb, PathDbConfig, QueryOptions, Strategy};
use pathix_datagen::advogato_queries;

/// One query measured under the three planner configurations.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Query name.
    pub query: String,
    /// semi-naive (no selectivity information used) in milliseconds.
    pub no_histogram_ms: f64,
    /// minSupport with the equi-depth histogram in milliseconds.
    pub equi_depth_ms: f64,
    /// minSupport with exact per-path counts in milliseconds.
    pub exact_ms: f64,
}

/// The X3 report.
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// Scale factor used.
    pub scale: f64,
    /// Index locality parameter.
    pub k: usize,
    /// Per-query rows.
    pub rows: Vec<AblationRow>,
}

/// Runs the histogram ablation at the given scale with a k = 3 index.
pub fn histogram_ablation(scale: f64) -> AblationReport {
    let k = 3;
    let graph = build_advogato(scale);
    println!(
        "== X3: histogram ablation (scale {scale}: {} nodes, {} edges, k = {k})\n",
        graph.node_count(),
        graph.edge_count()
    );
    let equi = PathDb::build(
        graph.clone(),
        PathDbConfig {
            estimation: EstimationMode::EquiDepth { buckets: 32 },
            ..PathDbConfig::with_k(k)
        },
    );
    let exact = PathDb::build(
        graph,
        PathDbConfig {
            estimation: EstimationMode::Exact,
            ..PathDbConfig::with_k(k)
        },
    );
    let mut rows = Vec::new();
    let mut table = Table::new(vec![
        "query",
        "semi-naive / no stats (ms)",
        "minSupport + equi-depth (ms)",
        "minSupport + exact (ms)",
    ]);
    for q in advogato_queries() {
        let no_hist = equi
            .run(&q.text, QueryOptions::with_strategy(Strategy::SemiNaive))
            .unwrap();
        let with_equi = equi
            .run(&q.text, QueryOptions::with_strategy(Strategy::MinSupport))
            .unwrap();
        let with_exact = exact
            .run(&q.text, QueryOptions::with_strategy(Strategy::MinSupport))
            .unwrap();
        assert_eq!(no_hist.len(), with_equi.len());
        assert_eq!(with_equi.len(), with_exact.len());
        let row = AblationRow {
            query: q.name.clone(),
            no_histogram_ms: no_hist.stats.elapsed.as_secs_f64() * 1e3,
            equi_depth_ms: with_equi.stats.elapsed.as_secs_f64() * 1e3,
            exact_ms: with_exact.stats.elapsed.as_secs_f64() * 1e3,
        };
        table.push_row(vec![
            q.name.clone(),
            format!("{:.3}", row.no_histogram_ms),
            format!("{:.3}", row.equi_depth_ms),
            format!("{:.3}", row.exact_ms),
        ]);
        rows.push(row);
    }
    println!("{}", table.render());
    println!(
        "expected shape: the two histogram-guided columns are at or below semi-naive, and the \
         equi-depth summary performs like exact statistics (the paper's \"value of the \
         lightweight histogram\").\n"
    );
    AblationReport { scale, k, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_at_tiny_scale() {
        let report = histogram_ablation(0.005);
        assert_eq!(report.rows.len(), 8);
    }
}
