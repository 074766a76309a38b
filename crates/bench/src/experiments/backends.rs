//! Experiment **X7** (extension): the same RPQ workload executed against the
//! three index backends the query pipeline is generic over — the in-memory
//! chunk runs, the buffer-pool-backed paged B+tree and the compressed per-path
//! pair blocks.
//!
//! The paper's index is storage-agnostic; its companion study (ref. \[14\])
//! measures the in-memory vs disk-resident vs compressed trade-off. With the
//! `PathIndexBackend` refactor the identical plan runs on each backend, so
//! this experiment can report (a) that the answers agree and (b) what each
//! backend's latency and footprint look like.

use crate::datasets::build_advogato;
use crate::report::{format_duration_ms, write_json, Table};
use pathix_core::{BackendChoice, PathDb, PathDbConfig, PathIndexBackend, QueryOptions, Strategy};
use pathix_datagen::advogato_queries;
use std::time::Instant;

/// One `(backend, query)` measurement.
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// Backend name (`memory`, `paged`, `compressed`).
    pub backend: String,
    /// Query name (`A1`..`A8`).
    pub query: String,
    /// Result pairs.
    pub answers: usize,
    /// Median query latency in milliseconds.
    pub median_ms: f64,
}

/// The X7 report.
#[derive(Debug, Clone)]
pub struct BackendReport {
    /// Scale factor used.
    pub scale: f64,
    /// Locality parameter used.
    pub k: usize,
    /// Approximate index footprint per backend, in bytes.
    pub footprint_bytes: Vec<(String, u64)>,
    /// Latency rows.
    pub rows: Vec<BackendRow>,
}

fn median_latency_ms(db: &PathDb, query: &str, runs: usize) -> (usize, f64) {
    let mut answers = 0;
    let mut samples: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            let result = db
                .run(query, QueryOptions::with_strategy(Strategy::MinSupport))
                .expect("benchmark query failed");
            answers = result.len();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    (answers, samples[samples.len() / 2])
}

/// Runs the backend comparison at the given scale with locality `k`.
pub fn backend_comparison(scale: f64, k: usize) -> BackendReport {
    let graph = build_advogato(scale);
    println!(
        "== X7: query latency across index backends (scale {scale}: {} nodes, {} edges, k = {k})\n",
        graph.node_count(),
        graph.edge_count()
    );

    let backends = [
        ("memory", BackendChoice::Memory),
        ("paged", BackendChoice::PagedInMemory { pool_frames: 256 }),
        ("compressed", BackendChoice::Compressed),
    ];
    let queries = advogato_queries();

    let mut rows = Vec::new();
    let mut footprints = Vec::new();
    let mut table = Table::new(vec![
        "query",
        "answers",
        "memory (ms)",
        "paged (ms)",
        "compressed (ms)",
    ]);
    let mut per_query: Vec<Vec<String>> = queries.iter().map(|q| vec![q.name.clone()]).collect();

    let mut reference_answers: Option<Vec<usize>> = None;
    for (name, choice) in &backends {
        let start = Instant::now();
        let db = PathDb::try_build(
            graph.clone(),
            PathDbConfig::with_k(k).with_backend(choice.clone()),
        )
        .expect("backend build failed");
        let build = start.elapsed();
        let stats = db.index().stats();
        footprints.push(((*name).to_owned(), stats.approx_bytes));
        println!(
            "{name:>11}: built in {} ms, {} entries, ~{} KiB",
            format_duration_ms(build),
            stats.entries,
            stats.approx_bytes / 1024
        );

        let mut answer_counts = Vec::new();
        for (qi, query) in queries.iter().enumerate() {
            let (answers, median) = median_latency_ms(&db, &query.text, 5);
            answer_counts.push(answers);
            if per_query[qi].len() == 1 {
                per_query[qi].push(answers.to_string());
            }
            per_query[qi].push(format!("{median:.3}"));
            rows.push(BackendRow {
                backend: (*name).to_owned(),
                query: query.name.clone(),
                answers,
                median_ms: median,
            });
        }
        match &reference_answers {
            None => reference_answers = Some(answer_counts),
            Some(reference) => assert_eq!(
                reference, &answer_counts,
                "{name} backend disagrees with the reference answers"
            ),
        }
    }
    println!();
    for row in per_query {
        table.push_row(row);
    }
    println!("{}", table.render());
    println!(
        "expected shape: every backend returns identical answer counts; memory is fastest, \
         the paged backend pays buffer-pool indirection, the compressed backend pays block \
         decoding but holds the smallest footprint.\n"
    );

    let report = BackendReport {
        scale,
        k,
        footprint_bytes: footprints,
        rows,
    };
    write_json("backend_comparison", &report);
    report
}

crate::impl_to_json!(BackendRow {
    backend,
    query,
    answers,
    median_ms
});
crate::impl_to_json!(BackendReport {
    scale,
    k,
    footprint_bytes,
    rows
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_experiment_runs_at_tiny_scale() {
        let report = backend_comparison(0.005, 2);
        // 3 backends × 8 queries.
        assert_eq!(report.rows.len(), 24);
        assert_eq!(report.footprint_bytes.len(), 3);
        // Identical answers per query across backends (also asserted inside).
        for q in ["A1", "A5"] {
            let answers: Vec<usize> = report
                .rows
                .iter()
                .filter(|r| r.query == q)
                .map(|r| r.answers)
                .collect();
            assert!(answers.windows(2).all(|w| w[0] == w[1]), "query {q}");
        }
    }
}
