//! Phase `fig2-enumerate`: the paper's Figure 2. A1–A8 prepared once on the
//! memory backend, default strategy, full materialization, one client in a
//! closed loop. Joins, unions, distinct and index scans do all the work;
//! the front end, the page store, the graph and the serving tier do none.

use crate::env::{hash_pairs, timed, Env, Tally};
use crate::inputs::{self, Dataset};
use crate::metrics::Values;
use crate::phase::{share, Phase};
use crate::rng::Rng;
use crate::sizing::{PhaseSize, K, SMALL_POOL};
use crate::stats::{geomean, median};
use crate::sut::{
    self, drain_scan, leaf_paths, open_stream, PairBatch, PairStream, PathDb, PathDbConfig,
    PreparedQuery, QueryOptions, Strategy,
};
use crate::trace::Tracer;

/// Generates the data set and builds the phase's database; seconds taken.
fn set_up(env: &Env) -> Result<(f64, PathDb), String> {
    let (seconds, db) = timed(|| {
        let dataset = Dataset::generate(env.scale);
        PathDb::try_build(dataset.graph, PathDbConfig::with_k(K))
    });
    Ok((seconds, db.map_err(|e| format!("memory build: {e}"))?))
}

struct Card {
    db: PathDb,
    names: Vec<String>,
    prepared: Vec<PreparedQuery>,
}

impl Card {
    fn new(db: PathDb) -> Result<Card, String> {
        let (names, texts): (Vec<_>, Vec<_>) = inputs::card().into_iter().unzip();
        let prepared = texts
            .iter()
            .map(|t| db.prepare(t).map_err(|e| format!("prepare {t}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Card {
            db,
            names,
            prepared,
        })
    }

    /// Runs `rounds` rounds of the card, each in a seeded order, returning
    /// per-query latencies in ms.
    fn rounds(
        &self,
        rounds: usize,
        rng: &mut Rng,
        options: &QueryOptions,
        tally: &mut Tally,
    ) -> Vec<Vec<f64>> {
        let mut latencies = vec![Vec::with_capacity(rounds); self.prepared.len()];
        let mut order: Vec<usize> = (0..self.prepared.len()).collect();
        for _ in 0..rounds {
            rng.shuffle(&mut order);
            for &q in &order {
                let (seconds, result) = timed(|| self.prepared[q].run(&self.db, options.clone()));
                match result {
                    Ok(answer) => {
                        std::hint::black_box(answer.len());
                        tally.ok();
                        latencies[q].push(seconds * 1e3);
                    }
                    Err(e) => tally.fail(format!("{}: {e}", self.names[q])),
                }
            }
        }
        latencies
    }

    fn answer_hashes(&self, db: &PathDb, strategy: Strategy) -> Result<Vec<u64>, String> {
        inputs::card()
            .iter()
            .map(|(name, text)| {
                db.run(text, QueryOptions::with_strategy(strategy))
                    .map(|r| hash_pairs(r.pairs()))
                    .map_err(|e| format!("{name} under {strategy}: {e}"))
            })
            .collect()
    }

    /// Untimed: every strategy (and, at full size, the on-disk backend)
    /// must give each A-query the same answer.
    fn verify(&self, env: &Env, full: bool, tally: &mut Tally) -> Result<(), String> {
        let default = self.db.config().default_strategy;
        let reference = self.answer_hashes(&self.db, default)?;
        let others: Vec<Strategy> = if full {
            Strategy::all()
                .into_iter()
                .filter(|&s| s != default)
                .collect()
        } else {
            vec![Strategy::SemiNaive]
        };
        for strategy in others {
            let hashes = self.answer_hashes(&self.db, strategy)?;
            for (q, name) in self.names.iter().enumerate() {
                tally.check(hashes[q] == reference[q], || {
                    format!("{name}: {strategy} disagrees with {default}")
                });
            }
        }
        if full {
            let dir = env.data.fresh("card-verify");
            let disk = PathDb::try_build(
                env.dataset.graph.clone(),
                sut::on_disk(dir.join("db.pages"), SMALL_POOL),
            )
            .map_err(|e| format!("on-disk build: {e}"))?;
            let hashes = self.answer_hashes(&disk, default)?;
            for (q, name) in self.names.iter().enumerate() {
                tally.check(hashes[q] == reference[q], || {
                    format!("{name}: on-disk backend disagrees with memory")
                });
            }
        }
        Ok(())
    }
}

/// The untraced pass: `card_geomean_ms`, `card_total_ms`.
pub struct CardPhase {
    card: Card,
    rng: Rng,
    size: PhaseSize,
    native: bool,
    setups: Vec<f64>,
    /// Per query, the latency of every timed execution, ms.
    latencies: Vec<Vec<f64>>,
}

impl CardPhase {
    pub fn start(env: &Env, size: &PhaseSize, native: bool) -> Result<CardPhase, String> {
        let mut setups = Vec::new();
        let mut db = None;
        for _ in 0..size.setup_reps {
            let (seconds, built) = set_up(env)?;
            setups.push(seconds);
            db = Some(built);
        }
        let card = Card::new(db.ok_or("no set-up repetition ran")?)?;
        let mut rng = Rng::new(env.seed, "card-order");
        card.rounds(
            size.card_warmup,
            &mut rng,
            &QueryOptions::new(),
            &mut Tally::default(),
        );
        Ok(CardPhase {
            latencies: vec![Vec::new(); card.prepared.len()],
            card,
            rng,
            size: *size,
            native,
            setups,
        })
    }
}

impl Phase for CardPhase {
    fn pass(&mut self, _env: &Env, i: usize, tally: &mut Tally) -> Result<(), String> {
        let rounds = share(self.size.card_rounds, i);
        let slice = self
            .card
            .rounds(rounds, &mut self.rng, &QueryOptions::new(), tally);
        for (all, new) in self.latencies.iter_mut().zip(slice) {
            all.extend(new);
        }
        Ok(())
    }

    fn finish(
        self: Box<Self>,
        env: &Env,
        values: &mut Values,
        tally: &mut Tally,
    ) -> Result<Vec<f64>, String> {
        let medians: Vec<f64> = self.latencies.iter().map(|l| median(l)).collect();
        values.set("card_geomean_ms", geomean(&medians));
        values.set("card_total_ms", medians.iter().sum());
        self.card.verify(env, self.native, tally)?;
        Ok(self.setups)
    }
}

/// The traced pass: a quarter of the rounds, each execution decomposed into
/// drain and finalize spans, leaf scans re-drained alone, the same rounds
/// untraced for comparison, and the four strategies against each other.
pub fn trace(
    env: &Env,
    size: &PhaseSize,
    native: bool,
    tracer: &mut Tracer,
    values: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    let (build_seconds, db) = set_up(env)?;
    values.set("index.build_ms", build_seconds * 1e3);
    let card = Card::new(db)?;
    let rounds = (size.card_rounds / 4).max(2);
    let mut rng = Rng::new(env.seed, "card-order");
    let default = card.db.config().default_strategy;

    card.rounds(1, &mut rng, &QueryOptions::new(), &mut Tally::default());
    let untraced = card.rounds(rounds, &mut rng, &QueryOptions::new(), tally);
    let untraced_ms: Vec<f64> = untraced.iter().map(|l| median(l)).collect();
    for (name, ms) in card.names.iter().zip(&untraced_ms) {
        let metric =
            crate::metrics::find(&format!("core.q_{name}_ms")).ok_or("unknown card query")?;
        values.set(metric.name, *ms);
    }

    let snapshot = card.db.snapshot();
    let n = card.prepared.len();
    let (mut op_ms, mut drain_ms, mut finalize_ms, mut leaf_ms) = (
        vec![vec![]; n],
        vec![vec![]; n],
        vec![vec![]; n],
        vec![vec![]; n],
    );
    let (mut pulled_total, mut result_total) = (0u64, 0u64);
    // Planned once, as a prepared query is; the leaves are the index scans
    // each plan starts from.
    let plans: Vec<_> = card
        .prepared
        .iter()
        .map(|prepared| {
            let plan = sut::plan_on(&snapshot, default, prepared.disjuncts());
            let mut leaves = Vec::new();
            leaf_paths(&plan, &mut leaves);
            (plan, leaves)
        })
        .collect();
    for round in 0..rounds {
        for (q, (plan, leaves)) in plans.iter().enumerate() {
            let op_id = (round * n + q) as u32;
            let op = tracer.enter("card.op", op_id);
            let drain = tracer.enter("exec.drain", op_id);
            let mut pairs = Vec::new();
            let mut batch = PairBatch::new();
            let mut stream = open_stream(plan, snapshot.index()).map_err(|e| e.to_string())?;
            while stream.next_batch(&mut batch).map_err(|e| e.to_string())? > 0 {
                pairs.extend(batch.iter());
            }
            drop(stream);
            drain_ms[q].push(tracer.exit(drain) as f64 / 1e6);
            let pulled = pairs.len() as u64;
            let finalize = tracer.enter("exec.finalize", op_id);
            pairs.sort_unstable();
            pairs.dedup();
            finalize_ms[q].push(tracer.exit(finalize) as f64 / 1e6);
            op_ms[q].push(tracer.exit(op) as f64 / 1e6);
            if round == 0 {
                pulled_total += pulled;
                result_total += pairs.len() as u64;
            }
            // The plan's leaf scans drained alone: what of the drain is the
            // index's, the rest being the joins', unions' and distinct's.
            let scans = tracer.enter("index.leaf_scans", op_id);
            for path in leaves {
                drain_scan(snapshot.index(), path)?;
            }
            leaf_ms[q].push(tracer.exit(scans) as f64 / 1e6);
        }
    }
    let sum_of_medians = |per_query: &[Vec<f64>]| per_query.iter().map(|l| median(l)).sum::<f64>();
    let (drain, finalize, leaves) = (
        sum_of_medians(&drain_ms),
        sum_of_medians(&finalize_ms),
        sum_of_medians(&leaf_ms),
    );
    values.set("exec.drain_ms", drain);
    values.set("exec.join_self_ms", drain - leaves);
    values.set("exec.finalize_ms", finalize);
    values.set("exec.pairs_per_s", pulled_total as f64 / (drain / 1e3));
    values.set("exec.card_pairs_pulled", pulled_total as f64);
    values.set(
        "exec.card_pulled_per_result",
        pulled_total as f64 / result_total.max(1) as f64,
    );

    // Strategy regret: the default strategy's card against the per-query
    // best of all four.
    let reps = if native { 3 } else { 1 };
    let mut best = untraced_ms.clone();
    for strategy in Strategy::all() {
        if strategy == default {
            continue;
        }
        let options = QueryOptions::with_strategy(strategy);
        card.rounds(1, &mut rng, &options, &mut Tally::default());
        let ms = card.rounds(reps, &mut rng, &options, tally);
        for (q, l) in ms.iter().enumerate() {
            best[q] = best[q].min(median(l));
        }
    }
    values.set(
        "plan.strategy_regret",
        untraced_ms.iter().sum::<f64>() / best.iter().sum::<f64>(),
    );

    if native {
        let untraced_total: f64 = untraced_ms.iter().sum();
        values.set(
            "trace.overhead_frac",
            sum_of_medians(&op_ms) / untraced_total - 1.0,
        );
        values.set("trace.coverage", (drain + finalize) / untraced_total);
    }
    card.verify(env, false, tally)
}
