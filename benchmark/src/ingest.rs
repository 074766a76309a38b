//! Phase `ingest-durable`: the whole `apply` path with real durability —
//! resolve names → counting delta → log append + fsync → B+tree replay
//! with copy-on-write → graph commit → histogram rebuild → publish — across
//! several checkpoint cycles, then an abandoned writer and a reopen. The
//! index, the page store and the graph are written here; the other phases
//! only read them.

use crate::env::{check_against_twin, rss_peak_mb, timed, DirUsage, Env, Tally};
use crate::inputs::{self, Dataset};
use crate::metrics::Values;
use crate::phase::{share, Phase, PASSES};
use crate::sizing::{PhaseSize, K, SMALL_POOL, TRAILING_RECORDS};
use crate::stats::median;
use crate::sut::{
    self, BackendChoice, DbStats, EdgeOp, Graph, GraphUpdate, HistogramRefresh, PathDb,
    PathDbConfig, Wal, PAGE_SIZE,
};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};

fn disk_config(dir: &Path, size: &PhaseSize) -> PathDbConfig {
    sut::on_disk(dir.join("db.pages"), SMALL_POOL)
        .with_wal_checkpoint_every(size.checkpoint_every as u64)
}

/// What the database in `dir` holds on disk.
fn usage(dir: &Path) -> DirUsage {
    DirUsage::of(dir, &dir.join("db.pages"))
}

fn set_up(env: &Env, config: PathDbConfig) -> Result<(f64, PathDb), String> {
    let (seconds, db) = timed(|| {
        let dataset = Dataset::generate(env.scale);
        PathDb::try_build(dataset.graph, config)
    });
    Ok((seconds, db.map_err(|e| format!("build: {e}"))?))
}

/// What one closed-loop stream of batches did.
#[derive(Debug, Default)]
struct Stream {
    /// Latency of every batch, ms, in order.
    latencies_ms: Vec<f64>,
    /// Which batches folded the log into a checkpoint.
    checkpointed: Vec<bool>,
    effective: u64,
    delta_entries: u64,
    /// Log bytes appended by the batches that did not checkpoint (a
    /// checkpointing batch truncates the log before it can be measured).
    log_bytes: u64,
    log_batches: u64,
    checkpoint_bytes: u64,
    write_backs: u64,
    cow_copies: u64,
    chunks_rebuilt: u64,
    inserted: u64,
    deleted: u64,
}

impl Stream {
    /// Log bytes of the whole stream, the unobservable records of
    /// checkpointing batches taken at the mean of the observed ones.
    fn log_bytes_total(&self) -> f64 {
        self.log_bytes as f64 * self.latencies_ms.len() as f64 / self.log_batches.max(1) as f64
    }

    /// Edges a graph of `before` edges holds after this stream.
    fn edges_after(&self, before: u64) -> u64 {
        before + self.inserted - self.deleted
    }

    /// Appends `later`, a continuation of this stream.
    fn absorb(&mut self, later: Stream) {
        self.latencies_ms.extend(later.latencies_ms);
        self.checkpointed.extend(later.checkpointed);
        self.effective += later.effective;
        self.delta_entries += later.delta_entries;
        self.log_bytes += later.log_bytes;
        self.log_batches += later.log_batches;
        self.checkpoint_bytes += later.checkpoint_bytes;
        self.write_backs += later.write_backs;
        self.cow_copies += later.cow_copies;
        self.chunks_rebuilt += later.chunks_rebuilt;
        self.inserted += later.inserted;
        self.deleted += later.deleted;
    }
}

/// Applies `batches` one after another, sampling the program's counters
/// and (for a database in `dir`) the directory between batches. With a
/// tracer, every `apply` call sits in a span of the given name.
fn stream(
    db: &PathDb,
    dir: Option<&Path>,
    batches: &[Vec<GraphUpdate>],
    mut spans: Option<(&mut Tracer, &'static str)>,
    tally: &mut Tally,
) -> Stream {
    let mut out = Stream::default();
    let counters = |stats: &DbStats| {
        (
            stats.storage.pool.map_or(0, |p| p.write_backs),
            stats.storage.cow.map_or(0, |c| c.page_copies),
        )
    };
    let (mut write_backs, mut cow_copies) = counters(&db.stats());
    let mut before = dir.map(usage);
    for (i, batch) in batches.iter().enumerate() {
        let span = spans
            .as_mut()
            .map(|(tracer, name)| tracer.enter(name, i as u32));
        let (seconds, result) = timed(|| db.apply(batch));
        if let (Some((tracer, _)), Some(id)) = (spans.as_mut(), span) {
            tracer.exit(id);
        }
        match result {
            Ok(stats) => {
                tally.ok();
                out.latencies_ms.push(seconds * 1e3);
                out.effective += stats.inserted + stats.deleted;
                out.inserted += stats.inserted;
                out.deleted += stats.deleted;
                out.delta_entries += stats.delta_entries;
            }
            Err(e) => {
                tally.fail(format!("apply: {e}"));
                continue;
            }
        }
        let stats = db.stats();
        out.chunks_rebuilt += stats.graph_publish.chunks_rebuilt as u64;
        let (wb, cow) = counters(&stats);
        out.write_backs += wb - write_backs;
        out.cow_copies += cow - cow_copies;
        (write_backs, cow_copies) = (wb, cow);
        let mut checkpointed = false;
        if let (Some(dir), Some(prev)) = (dir, before) {
            let now = usage(dir);
            if now.log > prev.log {
                out.log_bytes += now.log - prev.log;
                out.log_batches += 1;
            } else {
                // The log shrank: this batch wrote a checkpoint and reset it.
                checkpointed = true;
                out.checkpoint_bytes += now.checkpoint;
            }
            before = Some(now);
        }
        out.checkpointed.push(checkpointed);
    }
    out
}

/// Abandons `db` the way a killed process does — no `close`, no `Drop`
/// flush — and opens its directory again; seconds the open took.
fn abandon_and_reopen(db: PathDb, dir: &Path, size: &PhaseSize) -> Result<(f64, PathDb), String> {
    std::mem::forget(db);
    let (seconds, reopened) = timed(|| PathDb::open(disk_config(dir, size)));
    Ok((seconds, reopened.map_err(|e| format!("reopen: {e}"))?))
}

/// Untimed: the reopened database passes the structural audit, holds
/// exactly the acknowledged edges, and answers A1–A6 like its twin, a
/// from-scratch memory build over its graph.
fn verify(reopened: &PathDb, expected: u64, tally: &mut Tally) -> Result<(), String> {
    let report = reopened.audit();
    tally.check(report.is_clean(), || {
        format!("audit after reopen: {:?}", report.violations())
    });
    let edges = reopened.stats().edges as u64;
    tally.check(edges == expected, || {
        format!("reopened graph has {edges} edges, acknowledged updates give {expected}")
    });
    let graph: Graph = (*reopened.graph()).clone();
    let twin = PathDb::try_build(graph, PathDbConfig::with_k(K))
        .map_err(|e| format!("twin build: {e}"))?;
    check_against_twin(reopened, &twin, "the reopened database", tally);
    Ok(())
}

/// The untraced pass: `first_apply_ms`, `apply_p50_ms`, `updates_per_s`,
/// `disk_bytes_per_update`, `reopen_ms`, `db_disk_mb`.
///
/// Each slice builds its share of the fresh databases (the cold first
/// apply), streams its share of the batches into the live one, abandons the
/// writer `TRAILING_RECORDS` commits past a checkpoint and reopens it; the
/// next slice continues on what the reopen recovered.
pub struct IngestPhase {
    size: PhaseSize,
    /// Every commit of the live database, in order.
    batches: Vec<Vec<GraphUpdate>>,
    /// Where each slice's commits end.
    ends: [usize; PASSES],
    live: Option<(PathBuf, PathDb)>,
    setups: Vec<f64>,
    first_ms: Vec<f64>,
    /// The timed batches of all slices.
    applied: Stream,
    /// Edges the graph must hold after every commit so far, timed or cold.
    edges: u64,
    reopen_ms: Vec<f64>,
    rss: Option<f64>,
}

impl IngestPhase {
    pub fn start(env: &Env, size: &PhaseSize) -> Result<IngestPhase, String> {
        let cycles = size.batches / size.checkpoint_every;
        let mut ends = [0; PASSES];
        let mut pinned = Vec::new();
        let mut n = 0;
        for (i, end) in ends.iter_mut().enumerate() {
            // A slice starts on a cold writer (fresh, or just reopened) and
            // ends `TRAILING_RECORDS` commits past a checkpoint.
            pinned.push(n);
            n += share(cycles, i) * size.checkpoint_every + TRAILING_RECORDS;
            pinned.extend(n - TRAILING_RECORDS..n);
            *end = n;
        }
        Ok(IngestPhase {
            size: *size,
            batches: inputs::update_batches(&env.dataset, env.seed, "ingest", n, &pinned),
            ends,
            live: None,
            setups: Vec::new(),
            first_ms: Vec::new(),
            applied: Stream::default(),
            edges: env.dataset.graph.edge_count() as u64,
            reopen_ms: Vec::new(),
            rss: None,
        })
    }
}

impl Phase for IngestPhase {
    fn pass(&mut self, env: &Env, i: usize, tally: &mut Tally) -> Result<(), String> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        // The cold cost: the first apply on freshly built databases. The
        // first of them all becomes the live database.
        for _ in 0..share(self.size.fresh_builds, i).max(usize::from(i == 0)) {
            let dir = env.data.fresh("ingest");
            let (seconds, db) = set_up(env, disk_config(&dir, &self.size))?;
            self.setups.push(seconds);
            let cold = stream(&db, None, &self.batches[..1], None, tally);
            self.first_ms.extend(&cold.latencies_ms);
            if self.live.is_none() {
                self.edges = cold.edges_after(self.edges);
                self.live = Some((dir, db));
            }
        }
        let (dir, db) = self.live.take().ok_or("no live database")?;
        if i > 0 {
            // A reopened writer reseeds its shadow index on its first apply:
            // a cold cost `first_apply_ms` owns, kept out of the stream.
            let cold = stream(&db, None, &self.batches[start..=start], None, tally);
            self.edges = cold.edges_after(self.edges);
        }
        let timed = stream(
            &db,
            Some(&dir),
            &self.batches[start + 1..self.ends[i]],
            None,
            tally,
        );
        self.edges = timed.edges_after(self.edges);
        self.applied.absorb(timed);
        if self.rss.is_none() {
            // Abandoned writers are leaked on purpose; keep them out.
            self.rss = Some(rss_peak_mb());
        }
        let (seconds, reopened) = abandon_and_reopen(db, &dir, &self.size)?;
        self.reopen_ms.push(seconds * 1e3);
        self.live = Some((dir, reopened));
        Ok(())
    }

    fn rss_mark(&self) -> Option<f64> {
        self.rss
    }

    fn finish(
        self: Box<Self>,
        _env: &Env,
        values: &mut Values,
        tally: &mut Tally,
    ) -> Result<Vec<f64>, String> {
        let applied = &self.applied;
        values.set("first_apply_ms", median(&self.first_ms));
        values.set_percentile("apply_p50_ms", &applied.latencies_ms, 0.50);
        let stream_seconds = applied.latencies_ms.iter().sum::<f64>() / 1e3;
        values.set("updates_per_s", applied.effective as f64 / stream_seconds);
        let bytes = applied.write_backs as f64 * PAGE_SIZE as f64
            + applied.log_bytes_total()
            + applied.checkpoint_bytes as f64;
        values.set(
            "disk_bytes_per_update",
            bytes / applied.effective.max(1) as f64,
        );
        values.set("reopen_ms", median(&self.reopen_ms));
        let (dir, reopened) = self.live.as_ref().ok_or("no live database")?;
        values.set("db_disk_mb", usage(dir).total() as f64 / (1024.0 * 1024.0));
        verify(reopened, self.edges, tally)?;
        Ok(self.setups)
    }
}

/// Resolves one batch of named updates against `graph` the way `apply`
/// does and commits it, returning the seconds `Graph::commit_batch` took.
fn commit_alone(graph: &Graph, batch: &[GraphUpdate]) -> f64 {
    let mut vocab = graph.vocab_batch();
    let mut ops = Vec::with_capacity(batch.len());
    for update in batch {
        match update {
            GraphUpdate::InsertEdgeNamed { src, label, dst } => {
                let (s, l, d) = (
                    vocab.intern_node(src),
                    vocab.intern_label(label),
                    vocab.intern_node(dst),
                );
                ops.push(EdgeOp::insert(s, l, d));
            }
            GraphUpdate::DeleteEdgeNamed { src, label, dst } => {
                if let (Some(s), Some(l), Some(d)) = (
                    vocab.node_id(src),
                    vocab.label_id(label),
                    vocab.node_id(dst),
                ) {
                    ops.push(EdgeOp::delete(s, l, d));
                }
            }
            other => ops.extend(other.as_op()),
        }
    }
    let (seconds, committed) = timed(|| graph.commit_batch(vocab, &ops));
    std::hint::black_box(committed.edge_count());
    seconds
}

/// The traced pass. `apply` has no seams to time from outside, so its
/// shares come from replaying one update stream under four configurations
/// and differencing, plus direct calls where a public function exists
/// (`Graph::commit_batch`, `Wal::append` + `sync`).
pub fn trace(
    env: &Env,
    size: &PhaseSize,
    native: bool,
    tracer: &mut Tracer,
    values: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    // One checkpoint cycle plus the trailing records at least, so the
    // checkpoint stall and the replay cost are both observed.
    let cycles = (size.batches / 4 / size.checkpoint_every).max(1);
    let n = cycles * size.checkpoint_every + TRAILING_RECORDS;
    let pinned: Vec<usize> = std::iter::once(0).chain(n - TRAILING_RECORDS..n).collect();
    let batches = inputs::update_batches(&env.dataset, env.seed, "ingest", n, &pinned);
    let memory = |refresh| PathDbConfig::with_k(K).with_histogram_refresh(refresh);

    let replay = |name: &'static str,
                  config: PathDbConfig,
                  dir: Option<&Path>,
                  tracer: &mut Tracer,
                  tally: &mut Tally|
     -> Result<(Stream, Stream, PathDb), String> {
        let (_, db) = set_up(env, config)?;
        let cold = stream(&db, None, &batches[..1], None, tally);
        let applied = stream(&db, dir, &batches[1..], Some((tracer, name)), tally);
        Ok((cold, applied, db))
    };

    // Graph commit alone, on each pre-batch graph of the memory stream.
    let (_, commit_db) = set_up(env, memory(HistogramRefresh::Manual))?;
    let mut commit_us = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let id = tracer.enter("graph.commit_batch", i as u32);
        commit_us.push(commit_alone(&commit_db.graph(), batch) * 1e6);
        tracer.exit(id);
        if let Err(e) = commit_db.apply(batch) {
            tally.fail(format!("apply (memory): {e}"));
        }
    }
    drop(commit_db);

    let (_, manual, _) = replay(
        "apply.memory",
        memory(HistogramRefresh::Manual),
        None,
        tracer,
        tally,
    )?;
    let (_, refreshed, _) = replay(
        "apply.memory+histogram",
        memory(HistogramRefresh::default()),
        None,
        tracer,
        tally,
    )?;
    let paged_config = PathDbConfig::with_k(K).with_backend(BackendChoice::PagedInMemory {
        pool_frames: SMALL_POOL,
    });
    let (_, paged, _) = replay("apply.paged", paged_config, None, tracer, tally)?;
    let dir = env.data.fresh("ingest-trace");
    let (cold, disk, disk_db) = replay(
        "apply.disk",
        disk_config(&dir, size),
        Some(&dir),
        tracer,
        tally,
    )?;

    let us = |s: &Stream| median(&s.latencies_ms) * 1e3;
    let per_batch = |total: u64, s: &Stream| total as f64 / s.latencies_ms.len().max(1) as f64;
    let (index_us, histogram_us) = (us(&manual), us(&refreshed) - us(&manual));
    let (tree_us, durable_us) = (us(&paged) - us(&refreshed), us(&disk) - us(&paged));
    values.set("index.apply_us_per_batch", index_us);
    values.set(
        "index.delta_entries_per_update",
        manual.delta_entries as f64 / manual.effective.max(1) as f64,
    );
    values.set("index.histogram_us_per_batch", histogram_us);
    values.set("graph.commit_us_per_batch", median(&commit_us));
    values.set(
        "graph.chunks_rebuilt_per_batch",
        per_batch(manual.chunks_rebuilt, &manual),
    );
    values.set("pagestore.tree_us_per_batch", tree_us);
    values.set("pagestore.durable_us_per_batch", durable_us);
    values.set(
        "pagestore.wal_bytes_per_update",
        disk.log_bytes_total() / disk.effective.max(1) as f64,
    );
    values.set(
        "pagestore.write_backs_per_batch",
        per_batch(disk.write_backs, &disk),
    );
    values.set(
        "pagestore.cow_copies_per_batch",
        per_batch(disk.cow_copies, &disk),
    );
    let disk_latencies_us: Vec<f64> = disk.latencies_ms.iter().map(|ms| ms * 1e3).collect();
    values.set_percentile("pagestore.apply_p95_us", &disk_latencies_us, 0.95);
    let stalls: Vec<f64> = disk
        .latencies_ms
        .iter()
        .zip(&disk.checkpointed)
        .filter(|(_, &c)| c)
        .map(|(ms, _)| *ms)
        .collect();
    values.set(
        "pagestore.checkpoint_stall_ms",
        median(&stalls) - median(&disk.latencies_ms),
    );

    // Log append + fsync alone, with records of the observed size.
    let record = vec![0xA5u8; (disk.log_bytes / disk.log_batches.max(1)).max(16) as usize];
    let mut wal =
        Wal::open(env.data.fresh("scratch-log")).map_err(|e| format!("scratch log: {e}"))?;
    let mut wal_us = Vec::new();
    for i in 0..disk.latencies_ms.len() {
        let id = tracer.enter("wal.append_sync", i as u32);
        let (seconds, result) = timed(|| wal.append(&record).and_then(|()| wal.sync()));
        tracer.exit(id);
        result.map_err(|e| format!("scratch log append: {e}"))?;
        wal_us.push(seconds * 1e6);
    }
    let wal_us = median(&wal_us);
    values.set("pagestore.wal_append_sync_us", wal_us);

    let disk_us = us(&disk);
    values.set(
        "core.first_apply_stall_ms",
        median(&cold.latencies_ms) - disk_us / 1e3,
    );
    values.set("core.apply_residual_us", durable_us - wal_us);
    let (seconds, reopened) = abandon_and_reopen(disk_db, &dir, size)?;
    values.set(
        "core.open_replay_us_per_record",
        seconds * 1e6 / TRAILING_RECORDS as f64,
    );
    if native {
        // The spans wrap the very calls the untraced pass times, so the
        // tracer's own cost is what separates the two clocks.
        let spanned_ms = tracer
            .total_ns_by_name()
            .get("apply.disk")
            .copied()
            .unwrap_or(0) as f64
            / 1e6;
        values.set(
            "trace.overhead_frac",
            spanned_ms / disk.latencies_ms.iter().sum::<f64>() - 1.0,
        );
        values.set(
            "trace.coverage",
            (index_us + histogram_us + tree_us + wal_us) / disk_us,
        );
    }
    let edges = env.dataset.graph.edge_count() as u64;
    verify(&reopened, disk.edges_after(cold.edges_after(edges)), tally)
}
