//! Phase `serve-mixed`: the lookup mix and the update mix at once through
//! `pathix_serve::Server` (two workers) over an on-disk index that fits
//! its pool. **Open loop**: one generator thread submits both streams on a
//! clock and collects the replies afterwards, so a slow tier accumulates
//! queueing delay instead of slowing its own load down. Copy-on-write page
//! copies under pinned reader snapshots, per-epoch replans and shared
//! admission queues show here and nowhere else.

use crate::env::{check_against_twin, timed, Env, Tally};
use crate::inputs::{self, Arrival, Dataset, LookupOp};
use crate::metrics::Values;
use crate::sizing::{
    PhaseSize, DEADLINE_MS, K, LARGE_POOL, MAX_GENERATOR_LAG_US, QUERY_POOL, READ_RATE, WRITE_RATE,
};
use crate::stats::median;
use crate::sut::{
    self, GraphUpdate, PathDb, PathDbConfig, QueryError, QueryTicket, ServeConfig, ServeError,
    Server, WriteTicket,
};
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn set_up(env: &Env) -> Result<(f64, Server), String> {
    let dir = env.data.fresh("serve");
    let (seconds, server) = timed(|| {
        let dataset = Dataset::generate(env.scale);
        let db = PathDb::try_build(
            dataset.graph,
            sut::on_disk(dir.join("db.pages"), LARGE_POOL),
        )?;
        Ok::<_, QueryError>(Server::new(
            Arc::new(db),
            ServeConfig {
                workers: 2,
                default_deadline: Some(Duration::from_millis(DEADLINE_MS)),
                ..ServeConfig::default()
            },
        ))
    });
    Ok((seconds, server.map_err(|e| format!("on-disk build: {e}"))?))
}

/// One answered read, all instants as the generator and the reply saw them.
struct Read {
    scheduled: Instant,
    submitted: Instant,
    queued_for: Duration,
    finished: Instant,
}

/// What one open-loop run observed.
#[derive(Default)]
struct Observed {
    reads: Vec<Read>,
    write_ack_ms: Vec<f64>,
    /// Acknowledged batches by the epoch their commit published.
    acked: Vec<(u64, usize)>,
    lag_us: Vec<f64>,
    submitted: u64,
    shed: u64,
    deadline: u64,
}

enum Pending {
    Read(QueryTicket),
    Write(usize, WriteTicket),
}

/// Drives the schedule against `server` from this thread alone. Waiting
/// sleeps (never spins), so the generator leaves both cores to the workers.
fn open_loop(
    server: &Server,
    pool: &[String],
    ops: &[LookupOp],
    batches: &[Vec<GraphUpdate>],
    seconds: f64,
    tally: &mut Tally,
) -> Observed {
    let schedule = inputs::schedule(seconds, READ_RATE, WRITE_RATE);
    let mut seen = Observed::default();
    let mut pending: Vec<(Instant, Instant, Pending)> = Vec::with_capacity(schedule.len());
    let start = Instant::now() + Duration::from_millis(5);
    for (offset, arrival) in schedule {
        let scheduled = start + Duration::from_secs_f64(offset);
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let submitted = Instant::now();
        seen.lag_us
            .push(submitted.saturating_duration_since(scheduled).as_secs_f64() * 1e6);
        seen.submitted += 1;
        let ticket = match arrival {
            Arrival::Read(i) => {
                let op = &ops[i % ops.len()];
                server
                    .submit_query(&pool[op.text], op.options())
                    .map(Pending::Read)
            }
            Arrival::Write(i) => server
                .submit_write(batches[i].clone())
                .map(|t| Pending::Write(i, t)),
        };
        match ticket {
            Ok(ticket) => pending.push((scheduled, submitted, ticket)),
            Err(ServeError::Overloaded { .. }) => {
                seen.shed += 1;
                tally.fail("request shed by admission control");
            }
            Err(e) => tally.fail(format!("submit: {e}")),
        }
    }
    for (scheduled, submitted, ticket) in pending {
        let failure = match ticket {
            Pending::Read(ticket) => match ticket.wait() {
                Ok(reply) => {
                    seen.reads.push(Read {
                        scheduled,
                        submitted,
                        queued_for: reply.queued_for,
                        finished: reply.finished_at,
                    });
                    None
                }
                Err(e) => Some(e),
            },
            Pending::Write(i, ticket) => match ticket.wait() {
                Ok(reply) => {
                    seen.write_ack_ms.push(
                        reply
                            .finished_at
                            .saturating_duration_since(scheduled)
                            .as_secs_f64()
                            * 1e3,
                    );
                    seen.acked.push((reply.stats.epoch, i));
                    None
                }
                Err(e) => Some(e),
            },
        };
        match failure {
            None => tally.ok(),
            Some(ServeError::DeadlineExceeded) => {
                seen.deadline += 1;
                tally.fail("request exceeded its deadline");
            }
            Some(e) => tally.fail(format!("request: {e}")),
        }
    }
    seen
}

/// Everything one open-loop run leaves behind.
struct Served {
    setups: Vec<f64>,
    server: Server,
    pool: Vec<String>,
    ops: Vec<LookupOp>,
    seen: Observed,
}

/// Builds the tier, warms it (plan cache, buffer pool, and the writer's
/// first-apply stall, which `first_apply_ms` owns), runs the open loop and
/// verifies the acknowledged state.
fn serve_once(env: &Env, size: &PhaseSize, tally: &mut Tally) -> Result<Served, String> {
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..size.setup_reps {
        if let Some(previous) = server.take() {
            Server::shutdown(previous).map_err(|e| format!("shutdown: {e}"))?;
        }
        let (seconds, built) = set_up(env)?;
        setups.push(seconds);
        server = Some(built);
    }
    let server = server.ok_or("no set-up repetition ran")?;
    let reads = (size.serve_seconds * READ_RATE) as usize;
    let writes = (size.serve_seconds * WRITE_RATE) as usize;
    // Served reads share the lookup phase's pool but draw their own list.
    let pool = inputs::query_pool(&server.db(), &env.dataset, QUERY_POOL);
    let warmup = inputs::lookup_ops(
        &env.dataset,
        env.seed,
        "served-warmup",
        pool.len(),
        size.lookup_warmup,
    );
    let ops = inputs::lookup_ops(
        &env.dataset,
        env.seed,
        "served-lookups",
        pool.len(),
        reads.max(1),
    );
    let warm_batch = inputs::update_batches(&env.dataset, env.seed, "served-warmup", 1, &[]);
    let batches = inputs::update_batches(&env.dataset, env.seed, "served", writes.max(1), &[]);

    server
        .write(warm_batch[0].clone())
        .map_err(|e| format!("warm-up write: {e}"))?;
    for op in &warmup {
        server
            .query(&pool[op.text], op.options())
            .map_err(|e| format!("warm-up read: {e}"))?;
    }

    let seen = open_loop(&server, &pool, &ops, &batches, size.serve_seconds, tally);
    // Latencies count from the scheduled instant, so a late generator
    // shows in them; a generator late at the median is a broken schedule.
    let lag = median(&seen.lag_us);
    tally.check(lag <= MAX_GENERATOR_LAG_US, || {
        format!("open loop invalid: the generator ran {lag:.0} us late at the median (limit {MAX_GENERATOR_LAG_US} us)")
    });

    // Untimed: the acknowledged state passes the audit and answers like a
    // twin that applied exactly the acknowledged batches, in commit order.
    let db = server.db();
    let report = db.audit();
    tally.check(report.is_clean(), || {
        format!("audit of the served database: {:?}", report.violations())
    });
    let twin = PathDb::try_build(env.dataset.graph.clone(), PathDbConfig::with_k(K))
        .map_err(|e| format!("twin build: {e}"))?;
    let mut order = seen.acked.clone();
    order.sort_unstable();
    twin.apply(&warm_batch[0])
        .map_err(|e| format!("twin: {e}"))?;
    for (_, i) in order {
        twin.apply(&batches[i]).map_err(|e| format!("twin: {e}"))?;
    }
    check_against_twin(&db, &twin, "the served state", tally);
    Ok(Served {
        setups,
        server,
        pool,
        ops,
        seen,
    })
}

fn latency_ms(read: &Read) -> f64 {
    read.finished
        .saturating_duration_since(read.scheduled)
        .as_secs_f64()
        * 1e3
}

/// The untraced pass. Served latencies move by 11-36 % between runs of the
/// same code on this sandbox (README, "Noise calibration"), so none of them
/// is an end-to-end metric; this pass contributes the tier's set-up time, its
/// memory peak, and its share of `attempted` / `failed` — sheds, deadline
/// aborts and the acknowledged-state check. Returns the set-up samples.
pub fn measure(env: &Env, size: &PhaseSize, tally: &mut Tally) -> Result<Vec<f64>, String> {
    let served = serve_once(env, size, tally)?;
    served
        .server
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;
    Ok(served.setups)
}

/// The traced pass. The tier's shares come from what each reply reports
/// (`queued_for`, `finished_at`) and the generator's own clock, turned into
/// spans after the fact; nothing is added to the request path.
pub fn trace(
    env: &Env,
    size: &PhaseSize,
    native: bool,
    tracer: &mut Tracer,
    values: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    let served = serve_once(env, size, tally)?;
    let seen = &served.seen;
    let (mut queue_us, mut service_us, mut latency_us) = (vec![], vec![], vec![]);
    let recording = Instant::now();
    for (i, read) in seen.reads.iter().enumerate() {
        let dequeued = read.submitted + read.queued_for;
        let root = tracer.record(
            "serve.request",
            i as u32,
            read.scheduled,
            read.finished,
            None,
        );
        tracer.record(
            "serve.generator_lag",
            i as u32,
            read.scheduled,
            read.submitted,
            Some(root),
        );
        tracer.record(
            "serve.queue_wait",
            i as u32,
            read.submitted,
            dequeued,
            Some(root),
        );
        tracer.record(
            "serve.service",
            i as u32,
            dequeued,
            read.finished,
            Some(root),
        );
        queue_us.push(read.queued_for.as_secs_f64() * 1e6);
        service_us.push(
            read.finished
                .saturating_duration_since(dequeued)
                .as_secs_f64()
                * 1e6,
        );
        latency_us.push(latency_ms(read) * 1e3);
    }
    let recording_us = recording.elapsed().as_secs_f64() * 1e6;
    values.set_percentile("serve.queue_wait_p50_us", &queue_us, 0.50);
    values.set_percentile("serve.queue_wait_p99_us", &queue_us, 0.99);
    values.set_percentile("serve.service_p50_us", &service_us, 0.50);
    values.set_percentile("serve.read_p50_us", &latency_us, 0.50);
    values.set_percentile("serve.read_p90_us", &latency_us, 0.90);
    values.set_percentile("serve.read_p99_us", &latency_us, 0.99);
    let write_ack_us: Vec<f64> = seen.write_ack_ms.iter().map(|ms| ms * 1e3).collect();
    values.set_percentile("serve.write_ack_p50_us", &write_ack_us, 0.50);
    values.set(
        "serve.shed_frac",
        seen.shed as f64 / seen.submitted.max(1) as f64,
    );
    values.set(
        "serve.deadline_frac",
        seen.deadline as f64 / seen.submitted.max(1) as f64,
    );
    values.set(
        "serve.max_in_flight",
        served.server.health().counters.max_in_flight as f64,
    );
    values.set_percentile("serve.generator_lag_p99_us", &seen.lag_us, 0.99);

    // What the tier adds to an idle lookup: the same operations one at a
    // time through the server and straight into the database.
    let db = served.server.db();
    let sample = &served.ops[..served.ops.len().min(size.verify_sample.max(100))];
    let (mut through_tier, mut direct) = (vec![], vec![]);
    for op in sample {
        let text = &served.pool[op.text];
        let (seconds, reply) = timed(|| served.server.query(text, op.options()));
        if reply.is_ok() {
            through_tier.push(seconds * 1e6);
        }
        let (seconds, answer) = timed(|| db.run(text, op.options()));
        if answer.is_ok() {
            direct.push(seconds * 1e6);
        }
    }
    values.set("serve.overhead_us", median(&through_tier) - median(&direct));
    if native {
        // Spans are rebuilt from reply fields after the run, so the request
        // path is the untraced one; recording them is all tracing costs.
        let total_us = latency_us.iter().sum::<f64>().max(1.0);
        values.set("trace.overhead_frac", recording_us / total_us);
        values.set(
            "trace.coverage",
            (queue_us.iter().sum::<f64>() + service_us.iter().sum::<f64>()) / total_us,
        );
    }
    served
        .server
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))
}
