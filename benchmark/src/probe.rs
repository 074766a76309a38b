//! Phase `probe-disk`: the lookup shapes of the paper's Example 3.1 through
//! `PathDb::run` on an on-disk index twelve times its buffer pool. Runs are
//! short, so pool misses, B+tree descent, plan-cache misses and the
//! un-pushed-down source binding each own a visible share; joins own
//! little. The opposite profile to the card.

use crate::env::{timed, Env, Tally};
use crate::inputs::{self, Dataset, LookupKind, LookupOp};
use crate::metrics::Values;
use crate::phase::{share, Phase};
use crate::sizing::{PhaseSize, QUERY_POOL, SMALL_POOL};
use crate::stats::mean;
use crate::sut::{
    self, open_stream, Pair, PairStream, PathDb, PhysicalPlan, QueryOptions, Snapshot,
};
use crate::trace::Tracer;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

fn set_up(env: &Env) -> Result<(f64, PathDb), String> {
    let dir = env.data.fresh("probe");
    let (seconds, db) = timed(|| {
        let dataset = Dataset::generate(env.scale);
        PathDb::try_build(
            dataset.graph,
            sut::on_disk(dir.join("db.pages"), SMALL_POOL),
        )
    });
    Ok((seconds, db.map_err(|e| format!("on-disk build: {e}"))?))
}

/// The database, the query pool and the operation list of one pass.
pub struct Probe {
    pub db: PathDb,
    pub pool: Vec<String>,
    pub warmup: Vec<LookupOp>,
    pub ops: Vec<LookupOp>,
}

impl Probe {
    pub fn new(env: &Env, db: PathDb, warmup: usize, n: usize) -> Probe {
        let pool = inputs::query_pool(&db, &env.dataset, QUERY_POOL);
        Probe {
            warmup: inputs::lookup_ops(
                &env.dataset,
                env.seed,
                "lookups-warmup",
                pool.len(),
                warmup,
            ),
            ops: inputs::lookup_ops(&env.dataset, env.seed, "lookups", pool.len(), n),
            db,
            pool,
        }
    }

    /// Runs `ops` through `PathDb::run`, returning latencies in ms.
    pub fn run(&self, ops: &[LookupOp], tally: &mut Tally) -> Vec<f64> {
        let mut latencies = Vec::with_capacity(ops.len());
        for op in ops {
            let (seconds, result) = timed(|| self.db.run(&self.pool[op.text], op.options()));
            match result {
                Ok(answer) => {
                    std::hint::black_box(answer.stats.result_pairs);
                    tally.ok();
                    latencies.push(seconds * 1e3);
                }
                Err(e) => tally.fail(format!("lookup {op:?}: {e}")),
            }
        }
        latencies
    }

    /// Untimed: every bound lookup of a sample must equal the filter of its
    /// query's unbound answer.
    pub fn verify(&self, sample: usize, tally: &mut Tally) {
        let mut unbound: HashMap<usize, Vec<Pair>> = HashMap::new();
        for op in self.ops.iter().take(sample) {
            let text = &self.pool[op.text];
            let full = match unbound.entry(op.text) {
                Entry::Occupied(known) => known.into_mut(),
                Entry::Vacant(slot) => match self.db.run(text, QueryOptions::new()) {
                    Ok(full) => slot.insert(full.pairs().to_vec()),
                    Err(e) => {
                        tally.fail(format!("unbound {text}: {e}"));
                        continue;
                    }
                },
            };
            let answer = match self.db.run(text, op.options()) {
                Ok(answer) => answer,
                Err(e) => {
                    tally.fail(format!("lookup {op:?}: {e}"));
                    continue;
                }
            };
            let holds = match op.kind {
                LookupKind::From(s) => {
                    let expected: Vec<Pair> = full.iter().copied().filter(|p| p.0 == s).collect();
                    answer.pairs() == expected
                }
                LookupKind::Exists(s, t) => {
                    (answer.stats.result_pairs > 0) == full.binary_search(&(s, t)).is_ok()
                }
                LookupKind::FirstTen => {
                    answer.len() == full.len().min(10)
                        && answer.pairs().iter().all(|p| full.binary_search(p).is_ok())
                }
            };
            tally.check(holds, || {
                format!("{op:?} on {text} is not the filter of the unbound answer")
            });
        }
    }
}

/// The untraced pass: `lookup_p50_ms`, `lookup_p95_ms`, `lookups_per_s`.
pub struct ProbePhase {
    probe: Probe,
    size: PhaseSize,
    setups: Vec<f64>,
    done: usize,
    latencies: Vec<f64>,
}

impl ProbePhase {
    pub fn start(env: &Env, size: &PhaseSize) -> Result<ProbePhase, String> {
        let mut setups = Vec::new();
        let mut db = None;
        for _ in 0..size.setup_reps {
            drop(db.take());
            let (seconds, built) = set_up(env)?;
            setups.push(seconds);
            db = Some(built);
        }
        let probe = Probe::new(
            env,
            db.ok_or("no set-up repetition ran")?,
            size.lookup_warmup,
            size.lookups,
        );
        probe.run(&probe.warmup, &mut Tally::default());
        Ok(ProbePhase {
            probe,
            size: *size,
            setups,
            done: 0,
            latencies: Vec::with_capacity(size.lookups),
        })
    }
}

impl Phase for ProbePhase {
    fn pass(&mut self, _env: &Env, i: usize, tally: &mut Tally) -> Result<(), String> {
        let end = self.done + share(self.probe.ops.len(), i);
        self.latencies
            .extend(self.probe.run(&self.probe.ops[self.done..end], tally));
        self.done = end;
        Ok(())
    }

    fn finish(
        self: Box<Self>,
        _env: &Env,
        values: &mut Values,
        tally: &mut Tally,
    ) -> Result<Vec<f64>, String> {
        values.set_percentile("lookup_p50_ms", &self.latencies, 0.50);
        values.set_percentile("lookup_p95_ms", &self.latencies, 0.95);
        values.set(
            "lookups_per_s",
            self.latencies.len() as f64 / (self.latencies.iter().sum::<f64>() / 1e3),
        );
        self.probe.verify(self.size.verify_sample, tally);
        Ok(self.setups)
    }
}

/// One lookup the way `PathDb::run` executes it, but against an explicit
/// plan: restricted runs pull pair by pair through the filter, the
/// duplicate check and the limit, exactly as the cursor does.
fn execute(
    snapshot: &Snapshot,
    plan: &PhysicalPlan,
    op: &LookupOp,
) -> Result<(u64, Vec<Pair>), String> {
    let mut stream = open_stream(plan, snapshot.index()).map_err(|e| e.to_string())?;
    let options = op.options();
    let admits = |p: Pair| {
        options.bound_source().is_none_or(|s| s == p.0)
            && options.bound_target().is_none_or(|t| t == p.1)
    };
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let mut pulled = 0u64;
    let limit = options.limit_value().unwrap_or(usize::MAX);
    while out.len() < limit {
        let Some(pair) = stream.next_pair().map_err(|e| e.to_string())? else {
            break;
        };
        pulled += 1;
        if admits(pair) && seen.insert(pair) {
            out.push(pair);
        }
    }
    Ok((pulled, out))
}

/// The traced pass: the front end timed over the whole pool, a quarter of
/// the lookups decomposed into compile → rewrite → plan → drain → finalize
/// spans, and the same lookups untraced with the plan-cache and buffer-pool
/// counters differenced around them.
pub fn trace(
    env: &Env,
    size: &PhaseSize,
    native: bool,
    tracer: &mut Tracer,
    values: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    let (_, db) = set_up(env)?;
    let probe = Probe::new(env, db, size.lookup_warmup, (size.lookups / 4).max(40));
    let db = &probe.db;
    let strategy = db.config().default_strategy;

    // Front end, once per pool text.
    let snapshot = db.snapshot();
    let (mut parse_us, mut rewrite_us, mut plan_us) = (vec![], vec![], vec![]);
    let (mut disjunct_count, mut joins, mut merge_joins) = (0usize, 0usize, 0usize);
    for (i, text) in probe.pool.iter().enumerate() {
        let span = tracer.enter("rpq.parse", i as u32);
        let expr = db.compile(text).map_err(|e| e.to_string())?;
        parse_us.push(tracer.exit(span) as f64 / 1e3);
        let span = tracer.enter("rpq.rewrite", i as u32);
        let disjuncts = db.disjuncts(&expr).map_err(|e| e.to_string())?;
        rewrite_us.push(tracer.exit(span) as f64 / 1e3);
        let span = tracer.enter("plan.plan", i as u32);
        let plan = sut::plan_on(&snapshot, strategy, &disjuncts);
        plan_us.push(tracer.exit(span) as f64 / 1e3);
        disjunct_count += disjuncts.len();
        joins += plan.join_count();
        merge_joins += plan.merge_join_count();
    }
    let texts = probe.pool.len() as f64;
    let (parse, rewrite, plan) = (mean(&parse_us), mean(&rewrite_us), mean(&plan_us));
    values.set("rpq.parse_us", parse);
    values.set("rpq.rewrite_us", rewrite);
    values.set("rpq.disjuncts_per_query", disjunct_count as f64 / texts);
    values.set("plan.plan_us", plan);
    values.set("plan.joins_per_query", joins as f64 / texts);
    values.set(
        "plan.merge_join_frac",
        merge_joins as f64 / joins.max(1) as f64,
    );

    // Untraced, with the program's own counters differenced around it.
    probe.run(&probe.warmup, &mut Tally::default());
    let cache_before = db.plan_cache_stats();
    let pool_before = db
        .stats()
        .storage
        .pool
        .ok_or("the on-disk backend reports no pool")?;
    let untraced = probe.run(&probe.ops, tally);
    let cache = db.plan_cache_stats();
    let pool = db
        .stats()
        .storage
        .pool
        .ok_or("the on-disk backend reports no pool")?;
    let n = probe.ops.len() as f64;
    let compilations = (cache.compilations - cache_before.compilations) as f64 / n;
    let plans = (cache.plans - cache_before.plans) as f64 / n;
    let (hits, misses) = (
        (pool.hits - pool_before.hits) as f64,
        (pool.misses - pool_before.misses) as f64,
    );
    values.set(
        "core.plan_cache_hit_rate",
        (cache.hits - cache_before.hits) as f64 / n,
    );
    values.set("core.compilations_per_lookup", compilations);
    values.set("pagestore.pool_hit_rate", hits / (hits + misses).max(1.0));
    values.set("pagestore.misses_per_lookup", misses / n);
    values.set(
        "pagestore.evictions_per_lookup",
        (pool.evictions - pool_before.evictions) as f64 / n,
    );
    values.set(
        "pagestore.read_ahead_pages_per_lookup",
        (pool.read_ahead_pages - pool_before.read_ahead_pages) as f64 / n,
    );
    values.set_percentile("core.lookup_p99_ms", &untraced, 0.99);
    let untraced_us = mean(&untraced) * 1e3;
    let front_end_us = compilations * (parse + rewrite) + plans * plan;
    values.set("core.front_end_share", front_end_us / untraced_us);

    // Decomposed. Every lookup compiles and plans here, where the untraced
    // pass mostly hits the plan cache; the comparison below weights the
    // front end by the measured miss rates instead.
    let snapshot = db.snapshot();
    let (mut back_end_us, mut drain_us, mut finalize_us) = (vec![], vec![], vec![]);
    let (mut pulled_total, mut result_total) = (0u64, 0u64);
    for (i, op) in probe.ops.iter().enumerate() {
        let id = i as u32;
        let text = &probe.pool[op.text];
        let root = tracer.enter("lookup.op", id);
        let span = tracer.enter("rpq.parse", id);
        let expr = db.compile(text).map_err(|e| e.to_string())?;
        tracer.exit(span);
        let span = tracer.enter("rpq.rewrite", id);
        let disjuncts = db.disjuncts(&expr).map_err(|e| e.to_string())?;
        tracer.exit(span);
        let span = tracer.enter("plan.plan", id);
        let plan = sut::plan_on(&snapshot, strategy, &disjuncts);
        tracer.exit(span);
        let back_end = tracer.enter("lookup.execute", id);
        let span = tracer.enter("exec.drain", id);
        let (pulled, mut pairs) = execute(&snapshot, &plan, op)?;
        drain_us.push(tracer.exit(span) as f64 / 1e3);
        let span = tracer.enter("exec.finalize", id);
        pairs.sort_unstable();
        finalize_us.push(tracer.exit(span) as f64 / 1e3);
        back_end_us.push(tracer.exit(back_end) as f64 / 1e3);
        tracer.exit(root);
        pulled_total += pulled;
        result_total += pairs.len() as u64;
    }
    values.set("exec.pairs_pulled", pulled_total as f64 / n);
    values.set("exec.result_pairs", result_total as f64 / n);
    values.set(
        "exec.pulled_per_result",
        pulled_total as f64 / result_total.max(1) as f64,
    );
    if native {
        values.set(
            "trace.overhead_frac",
            (front_end_us + mean(&back_end_us)) / untraced_us - 1.0,
        );
        values.set(
            "trace.coverage",
            (front_end_us + mean(&drain_us) + mean(&finalize_us)) / untraced_us,
        );
    }
    probe.verify(size.verify_sample.min(40), tally);
    Ok(())
}
