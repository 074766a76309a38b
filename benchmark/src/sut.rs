//! The system under test: the one file that names `pathix_*` crates.
//!
//! Every other module reaches pathix through the re-exports and the few
//! helpers below, so a PR that renames or deletes a pathix item edits this
//! file and nothing else in the benchmark. `README.md` lists each imported
//! symbol. Nothing ROADMAP schedules for deletion is imported: no
//! `KPathIndex`, `IncrementalKPathIndex`, `pathix_storage`, pairwise or
//! parallel executor, `QueryOptions::threads` or `IterBatchScan`.

pub use pathix_core::{
    BackendChoice, DbStats, GraphUpdate, HistogramRefresh, IndexBackend, PathDb, PathDbConfig,
    PathIndexBackend, PreparedQuery, QueryError, QueryOptions, Snapshot, Strategy,
};
pub use pathix_datagen::{
    advogato_like, advogato_queries, AdvogatoConfig, QueryFamily, WorkloadConfig, WorkloadGenerator,
};
pub use pathix_exec::{PairBatch, PairStream};
pub use pathix_graph::{EdgeOp, Graph, NodeId, SignedLabel};
pub use pathix_index::BatchScan;
pub use pathix_pagestore::{Wal, PAGE_SIZE};
pub use pathix_plan::{open_stream, plan_query, PhysicalPlan, PlannerContext};
pub use pathix_serve::{QueryTicket, ServeConfig, ServeError, Server, WriteTicket};

/// A node pair of an answer.
pub type Pair = (NodeId, NodeId);

/// Plans `disjuncts` against one snapshot under `strategy` — the call
/// `PathDb` makes on a plan-cache miss or an epoch change.
pub fn plan_on(
    snapshot: &Snapshot,
    strategy: Strategy,
    disjuncts: &[Vec<SignedLabel>],
) -> PhysicalPlan {
    let ctx = PlannerContext::new(snapshot.index(), snapshot.histogram());
    plan_query(strategy, disjuncts, &ctx)
}

/// The label paths of the index scans at the leaves of `plan`.
pub fn leaf_paths(plan: &PhysicalPlan, out: &mut Vec<Vec<SignedLabel>>) {
    match plan {
        PhysicalPlan::IndexScan { path, .. } => out.push(path.clone()),
        PhysicalPlan::Epsilon => {}
        PhysicalPlan::Join { left, right, .. } => {
            leaf_paths(left, out);
            leaf_paths(right, out);
        }
        PhysicalPlan::Union(children) => children.iter().for_each(|c| leaf_paths(c, out)),
    }
}

/// Drains one batched index scan, returning the pairs it delivered.
pub fn drain_scan(index: &IndexBackend, path: &[SignedLabel]) -> Result<u64, String> {
    let mut scan = index.scan_path_batches(path).map_err(|e| e.to_string())?;
    let mut batch = PairBatch::new();
    let mut pairs = 0u64;
    loop {
        let n = scan.next_batch(&mut batch).map_err(|e| e.to_string())?;
        if n == 0 {
            return Ok(pairs);
        }
        pairs += n as u64;
        std::hint::black_box(batch.sources());
    }
}

/// The on-disk database configuration every disk workload uses.
pub fn on_disk(path: std::path::PathBuf, pool_frames: usize) -> PathDbConfig {
    PathDbConfig::with_k(crate::sizing::K).with_backend(BackendChoice::OnDisk { path, pool_frames })
}
