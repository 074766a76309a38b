//! The storage layers alone: direct `PathIndexBackend` calls on the
//! memory, paged and compressed snapshots, over every indexed path and
//! Zipf-drawn sources. No workload owns these calls; they put the read
//! cost of each backend next to the space it takes. Traced pass only.

use crate::env::{timed, DirUsage, Env, Tally};
use crate::metrics::Values;
use crate::rng::{Rng, Zipf};
use crate::sizing::{K, SMALL_POOL};
use crate::sut::{
    self, drain_scan, BackendChoice, NodeId, PathDb, PathDbConfig, PathIndexBackend, SignedLabel,
};
use crate::trace::Tracer;

/// Probes per backend: enough for a stable mean at a few µs each.
const PROBES: usize = 4_000;

struct Probes {
    paths: Vec<Vec<SignedLabel>>,
    /// `(path index, source, target)`.
    draws: Vec<(usize, NodeId, NodeId)>,
}

/// Pairs per second of one full batched scan of every path.
fn scan_rate(
    db: &PathDb,
    probes: &Probes,
    name: &'static str,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let index = db.index();
    let span = tracer.enter(name, 0);
    let mut pairs = 0u64;
    for path in &probes.paths {
        pairs += drain_scan(&index, path)?;
    }
    let ns = tracer.exit(span);
    Ok(pairs as f64 / (ns as f64 / 1e9))
}

/// Mean µs of `scan_path_from` and of `contains` over the draws.
fn probe_cost(
    db: &PathDb,
    probes: &Probes,
    name: &'static str,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let index = db.index();
    let span = tracer.enter(name, 0);
    let mut found = 0usize;
    for &(path, source, _) in &probes.draws {
        found += index
            .scan_path_from(&probes.paths[path], source)
            .map_err(|e| e.to_string())?
            .len();
    }
    let from_us = tracer.exit(span) as f64 / 1e3 / probes.draws.len() as f64;
    let (seconds, hits) = timed(|| {
        probes
            .draws
            .iter()
            .try_fold(0usize, |hits, &(path, source, target)| {
                index
                    .contains(&probes.paths[path], source, target)
                    .map(|hit| hits + usize::from(hit))
            })
    });
    std::hint::black_box((found, hits.map_err(|e| e.to_string())?));
    Ok((from_us, seconds * 1e6 / probes.draws.len() as f64))
}

pub fn trace(
    env: &Env,
    tracer: &mut Tracer,
    values: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    let graph = &env.dataset.graph;
    let build = |backend| {
        PathDb::try_build(graph.clone(), PathDbConfig::with_k(K).with_backend(backend))
            .map_err(|e| format!("build: {e}"))
    };
    let memory = build(BackendChoice::Memory)?;
    let dir = env.data.fresh("layers");
    let page_file = dir.join("db.pages");
    let paged = PathDb::try_build(graph.clone(), sut::on_disk(page_file.clone(), SMALL_POOL))
        .map_err(|e| format!("build: {e}"))?;
    let compressed = build(BackendChoice::Compressed)?;

    let paths: Vec<Vec<SignedLabel>> = memory
        .index()
        .per_path_counts()
        .iter()
        .map(|(p, _)| p.clone())
        .collect();
    let mut rng = Rng::new(env.seed, "layer-probes");
    let nodes = Zipf::new(env.dataset.by_degree.len(), 1.0);
    let draws = (0..PROBES)
        .map(|_| {
            let mut node = || env.dataset.by_degree[nodes.sample(&mut rng)];
            let (source, target) = (node(), node());
            (rng.below(paths.len()), source, target)
        })
        .collect();
    let probes = Probes { paths, draws };

    let entries = |db: &PathDb| db.stats().index.entries.max(1) as f64;
    values.set(
        "index.scan_pairs_per_s",
        scan_rate(&memory, &probes, "index.scan", tracer)?,
    );
    let skipped_before = memory.stats().storage.chunks_skipped;
    let (from_us, contains_us) = probe_cost(&memory, &probes, "index.probe", tracer)?;
    values.set("index.probe_us", from_us);
    values.set("index.contains_us", contains_us);
    values.set(
        "index.chunks_skipped_per_probe",
        (memory.stats().storage.chunks_skipped - skipped_before) as f64 / (2 * PROBES) as f64,
    );
    values.set(
        "index.bytes_per_entry",
        memory.stats().index.approx_bytes as f64 / entries(&memory),
    );

    values.set(
        "pagestore.scan_pairs_per_s",
        scan_rate(&paged, &probes, "pagestore.scan", tracer)?,
    );
    values.set(
        "pagestore.probe_us",
        probe_cost(&paged, &probes, "pagestore.probe", tracer)?.0,
    );
    values.set(
        "pagestore.page_bytes_per_entry",
        DirUsage::of(&dir, &page_file).page_file as f64 / entries(&paged),
    );
    values.set(
        "pagestore.compressed_scan_pairs_per_s",
        scan_rate(&compressed, &probes, "pagestore.compressed_scan", tracer)?,
    );
    values.set(
        "pagestore.compressed_bytes_per_entry",
        compressed.stats().index.approx_bytes as f64 / entries(&compressed),
    );

    // The three backends must hold the same index.
    let total = |db: &PathDb| db.stats().index.entries;
    tally.check(
        total(&memory) == total(&paged) && total(&memory) == total(&compressed),
        || {
            format!(
                "backends disagree on entry counts: {} / {} / {}",
                total(&memory),
                total(&paged),
                total(&compressed)
            )
        },
    );
    Ok(())
}
