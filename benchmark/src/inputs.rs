//! Everything a run feeds the program, generated up front: the query pool,
//! the lookup list, the update stream and the open-loop schedule. The
//! program receives only these inputs, never the seed.
//!
//! **What `--seed` varies.** The *set* of operations of a phase is fixed —
//! drawn once from [`DATASET_SEED`], like the data set — and `--seed`
//! decides their *order*. Ten seeds therefore time the same work in ten
//! orders, and the spread between them is the machine's and the order's,
//! not the draw's: with operation sets drawn from the seed, `lookup_p99_ms`
//! moved by 30-60 % from seed to seed (it lands on whichever heavy query the
//! draw happened to favour) and no bound the contract allows could hold.

use crate::rng::{fnv1a, Rng, Zipf, FNV_OFFSET};
use crate::sizing::{self, DATASET_SEED};
use crate::sut::{
    advogato_like, advogato_queries, AdvogatoConfig, Graph, GraphUpdate, NodeId, PathDb,
    QueryFamily, QueryOptions, WorkloadConfig, WorkloadGenerator,
};
use std::collections::HashSet;

/// The fixed data set plus what the generators need to know about it.
#[derive(Debug)]
pub struct Dataset {
    pub graph: Graph,
    /// Node ids by descending total degree (ties by id).
    pub by_degree: Vec<NodeId>,
    pub labels: Vec<String>,
}

impl Dataset {
    pub fn generate(scale: f64) -> Dataset {
        let graph = advogato_like(AdvogatoConfig {
            scale,
            seed: DATASET_SEED,
            ..AdvogatoConfig::default()
        });
        let mut by_degree: Vec<NodeId> = graph.nodes().collect();
        by_degree.sort_by_key(|&n| (std::cmp::Reverse(graph.total_degree(n)), n.0));
        let labels = graph.label_names().into_iter().map(str::to_owned).collect();
        Dataset {
            graph,
            by_degree,
            labels,
        }
    }
}

/// The eight queries of the paper's Figure 2 as `(name, text)`.
pub fn card() -> Vec<(String, String)> {
    advogato_queries()
        .into_iter()
        .map(|q| (q.name, q.text))
        .collect()
}

/// `size` distinct query texts, the same for every seed: A1–A6, then
/// generated queries admitted by a static rule (disjunct length and count,
/// see [`sizing`]) — never by measured time. `db` only compiles candidates
/// to apply the rule.
pub fn query_pool(db: &PathDb, dataset: &Dataset, size: usize) -> Vec<String> {
    let mut pool: Vec<String> = card().into_iter().take(6).map(|(_, text)| text).collect();
    let mut seen: HashSet<String> = pool.iter().cloned().collect();
    let mut generator = WorkloadGenerator::new(
        &dataset.graph,
        WorkloadConfig {
            max_chain_len: 3,
            max_union_branches: 2,
            max_recursion: 2,
            inverse_probability: 0.25,
            seed: Rng::new(DATASET_SEED, "query-pool").next_u64(),
        },
    );
    let families = [
        QueryFamily::Chain,
        QueryFamily::ChainWithInverse,
        QueryFamily::UnionOfChains,
        QueryFamily::BoundedRecursion,
    ];
    // With 3 labels the admitted space holds thousands of texts; the cap
    // only bounds the loop should a later generator shrink it.
    for attempt in 0..size * 200 {
        if pool.len() >= size {
            break;
        }
        let text = generator.generate(families[attempt % families.len()]);
        if seen.contains(&text) {
            continue;
        }
        let admitted = db
            .compile(&text)
            .and_then(|expr| db.disjuncts(&expr))
            .is_ok_and(|disjuncts| {
                disjuncts.len() <= sizing::MAX_DISJUNCTS
                    && disjuncts
                        .iter()
                        .all(|d| d.len() <= sizing::MAX_DISJUNCT_LEN)
            });
        if admitted {
            seen.insert(text.clone());
            pool.push(text);
        }
    }
    pool
}

/// The three lookup shapes of the paper's Example 3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupKind {
    /// `(p, s, ·)`: everything reachable from one source.
    From(NodeId),
    /// `(p, s, t)`: a membership test.
    Exists(NodeId, NodeId),
    /// `(p, ·, ·)` cut off after ten answers.
    FirstTen,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupOp {
    /// Index into the query pool.
    pub text: usize,
    pub kind: LookupKind,
}

impl LookupOp {
    pub fn options(&self) -> QueryOptions {
        match self.kind {
            LookupKind::From(s) => QueryOptions::new().source(s),
            LookupKind::Exists(s, t) => QueryOptions::new().source(s).target(t).exists(),
            LookupKind::FirstTen => QueryOptions::new().limit(10),
        }
    }
}

/// `n` lookups: 50 % source-bound, 25 % membership, 25 % first-ten; texts
/// Zipf(1.0) over the pool, endpoints Zipf(1.0) over degree rank. The set
/// is fixed per `(stream, n)`; `seed` orders it.
pub fn lookup_ops(
    dataset: &Dataset,
    seed: u64,
    stream: &str,
    pool: usize,
    n: usize,
) -> Vec<LookupOp> {
    let mut rng = Rng::new(DATASET_SEED, stream);
    let texts = Zipf::new(pool, 1.0);
    let nodes = Zipf::new(dataset.by_degree.len(), 1.0);
    let mut ops: Vec<LookupOp> = (0..n)
        .map(|_| {
            let text = texts.sample(&mut rng);
            let shape = rng.below(4);
            let mut node = || dataset.by_degree[nodes.sample(&mut rng)];
            let kind = match shape {
                0 | 1 => LookupKind::From(node()),
                2 => LookupKind::Exists(node(), node()),
                _ => LookupKind::FirstTen,
            };
            LookupOp { text, kind }
        })
        .collect();
    Rng::new(seed, stream).shuffle(&mut ops);
    ops
}

/// `n` update batches of [`sizing::BATCH_OPS`] named operations: 70 %
/// inserts between existing nodes (endpoints by the data set's own rank
/// power law, so hub neighbourhoods grow the way they were generated), 20 %
/// inserts naming a brand-new node, 10 % deletes of edges of the data set.
///
/// Every batch stands alone — inserts name edges neither the data set nor
/// another batch holds, deletes name distinct data-set edges — so every
/// operation is effective in any order and counts repeat. The set is fixed
/// per `(stream, n)`; `seed` orders the batches, except those at the
/// `pinned` positions — the ones applied to a cold writer (`first_apply_ms`)
/// and the ones a reopen replays (`reopen_ms`) stay where they are.
pub fn update_batches(
    dataset: &Dataset,
    seed: u64,
    stream: &str,
    n: usize,
    pinned: &[usize],
) -> Vec<Vec<GraphUpdate>> {
    let mut rng = Rng::new(DATASET_SEED, stream);
    let nodes = Zipf::new(dataset.by_degree.len(), sizing::UPDATE_SKEW);
    let graph = &dataset.graph;
    let name = |node: NodeId| graph.node_name(node).unwrap_or("?").to_owned();
    let mut deletable: Vec<(String, String, String)> = graph
        .labels()
        .flat_map(|l| graph.edges(l).map(move |(s, t)| (s, l, t)))
        .map(|(s, l, t)| {
            (
                name(s),
                graph.label_name(l).unwrap_or("?").to_owned(),
                name(t),
            )
        })
        .collect();
    rng.shuffle(&mut deletable);
    let mut held: HashSet<(String, String, String)> = HashSet::new();
    let mut fresh = 0usize;
    let mut batches = Vec::with_capacity(n);
    for _ in 0..n {
        let mut batch = Vec::with_capacity(sizing::BATCH_OPS);
        while batch.len() < sizing::BATCH_OPS {
            let roll = rng.below(10);
            if roll == 9 {
                if let Some((src, label, dst)) = deletable.pop() {
                    batch.push(GraphUpdate::delete_named(src, label, dst));
                    continue;
                }
            }
            // Label skew of the data set: 45 / 37 / 18 %.
            let label_index = match rng.below(100) {
                0..=44 => 0,
                45..=81 => 1,
                _ => 2,
            } % dataset.labels.len();
            let label = dataset.labels[label_index].clone();
            let a = dataset.by_degree[nodes.sample(&mut rng)];
            let edge = if roll >= 7 {
                fresh += 1;
                let newcomer = format!("{stream}-{fresh}");
                if rng.below(2) == 0 {
                    (newcomer, label, name(a))
                } else {
                    (name(a), label, newcomer)
                }
            } else {
                let b = dataset.by_degree[nodes.sample(&mut rng)];
                let known = graph
                    .label_id(&label)
                    .is_some_and(|l| graph.has_edge(a, l, b));
                if a == b || known {
                    continue;
                }
                (name(a), label, name(b))
            };
            if held.insert(edge.clone()) {
                batch.push(GraphUpdate::insert_named(edge.0, edge.1, edge.2));
            }
        }
        batches.push(batch);
    }
    let movable: Vec<usize> = (0..n).filter(|i| !pinned.contains(i)).collect();
    let mut order = movable.clone();
    Rng::new(seed, stream).shuffle(&mut order);
    let mut shuffled = batches.clone();
    for (&to, &from) in movable.iter().zip(&order) {
        shuffled[to] = std::mem::take(&mut batches[from]);
    }
    shuffled
}

/// What the open-loop generator submits at one scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Index into the lookup list.
    Read(usize),
    /// Index into the batch list.
    Write(usize),
}

/// Both streams of `serve-mixed` merged on one clock: `(offset in seconds,
/// arrival)` in time order. Writes sit half an interval off the reads so the
/// two never share an instant.
pub fn schedule(seconds: f64, read_rate: f64, write_rate: f64) -> Vec<(f64, Arrival)> {
    let reads = (seconds * read_rate) as usize;
    let writes = (seconds * write_rate) as usize;
    let mut events: Vec<(f64, Arrival)> = (0..reads)
        .map(|i| (i as f64 / read_rate, Arrival::Read(i)))
        .chain((0..writes).map(|i| {
            (
                (i as f64 + 0.5) / write_rate + 0.5 / read_rate,
                Arrival::Write(i),
            )
        }))
        .collect();
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    events
}

/// Fingerprint of a lookup list.
pub fn hash_lookups(ops: &[LookupOp]) -> u64 {
    ops.iter()
        .fold(FNV_OFFSET, |h, op| fnv1a(format!("{op:?}").as_bytes(), h))
}

/// Fingerprint of an update stream.
pub fn hash_batches(batches: &[Vec<GraphUpdate>]) -> u64 {
    batches.iter().flatten().fold(FNV_OFFSET, |h, update| {
        fnv1a(format!("{update:?}").as_bytes(), h)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::{K, SMOKE_SCALE};
    use crate::sut::PathDbConfig;

    #[test]
    fn same_seed_same_ops_different_seed_different_ops() {
        let dataset = Dataset::generate(SMOKE_SCALE);
        let lookups = |seed| hash_lookups(&lookup_ops(&dataset, seed, "lookups", 64, 500));
        let updates = |seed| hash_batches(&update_batches(&dataset, seed, "updates", 40, &[0]));
        assert_eq!(lookups(1), lookups(1));
        assert_ne!(lookups(1), lookups(2));
        assert_eq!(updates(1), updates(1));
        assert_ne!(updates(1), updates(2));
    }

    #[test]
    fn seeds_order_one_fixed_set_of_operations() {
        let dataset = Dataset::generate(SMOKE_SCALE);
        let sorted = |seed| {
            let mut ops: Vec<String> = lookup_ops(&dataset, seed, "lookups", 64, 300)
                .iter()
                .map(|o| format!("{o:?}"))
                .collect();
            ops.sort();
            ops
        };
        assert_eq!(sorted(1), sorted(2));
        let pinned = [0, 12, 13, 14, 38, 39];
        let (a, b) = (
            update_batches(&dataset, 1, "w", 40, &pinned),
            update_batches(&dataset, 2, "w", 40, &pinned),
        );
        assert_ne!(a, b);
        // Cold batches and replayed ones keep their places.
        for i in pinned {
            assert_eq!(a[i], b[i], "position {i}");
        }
        let sorted = |mut batches: Vec<Vec<GraphUpdate>>| {
            batches.sort_by_key(|b| format!("{b:?}"));
            batches
        };
        assert_eq!(sorted(a), sorted(b));
    }

    #[test]
    fn lookup_mix_and_skew() {
        let dataset = Dataset::generate(SMOKE_SCALE);
        let ops = lookup_ops(&dataset, 5, "lookups", 64, 4_000);
        let from = ops
            .iter()
            .filter(|o| matches!(o.kind, LookupKind::From(_)))
            .count();
        let exists = ops
            .iter()
            .filter(|o| matches!(o.kind, LookupKind::Exists(..)))
            .count();
        assert!((1_800..2_200).contains(&from), "{from}");
        assert!((800..1_200).contains(&exists), "{exists}");
        let top = ops.iter().filter(|o| o.text == 0).count();
        let tail = ops.iter().filter(|o| o.text == 63).count();
        assert!(top > 10 * tail.max(1), "Zipf texts: {top} vs {tail}");
    }

    #[test]
    fn update_stream_is_effective_and_well_mixed() {
        let dataset = Dataset::generate(SMOKE_SCALE);
        let batches = update_batches(&dataset, 9, "w", 100, &[]);
        assert!(batches.iter().all(|b| b.len() == sizing::BATCH_OPS));
        let db = PathDb::try_build(dataset.graph.clone(), PathDbConfig::with_k(K)).unwrap();
        let (mut no_ops, mut deleted, mut inserted) = (0, 0, 0);
        let nodes_before = db.stats().nodes;
        for batch in &batches {
            let stats = db.apply(batch).unwrap();
            no_ops += stats.no_ops;
            deleted += stats.deleted;
            inserted += stats.inserted;
        }
        assert_eq!(no_ops, 0, "every generated update changes the graph");
        let total = (100 * sizing::BATCH_OPS) as u64;
        assert_eq!(inserted + deleted, total);
        assert!(
            (total * 6 / 100..total * 14 / 100).contains(&deleted),
            "{deleted}"
        );
        let newcomers = (db.stats().nodes - nodes_before) as u64;
        assert!(
            (total * 15 / 100..total * 25 / 100).contains(&newcomers),
            "{newcomers}"
        );
    }

    #[test]
    fn query_pool_is_distinct_and_admitted() {
        let dataset = Dataset::generate(SMOKE_SCALE);
        let db = PathDb::try_build(dataset.graph.clone(), PathDbConfig::with_k(K)).unwrap();
        let pool = query_pool(&db, &dataset, 128);
        assert_eq!(pool.len(), 128);
        assert_eq!(pool.iter().collect::<HashSet<_>>().len(), 128);
        assert_eq!(pool[0], "journeyer/master");
        for text in &pool {
            let disjuncts = db.disjuncts(&db.compile(text).unwrap()).unwrap();
            assert!(
                disjuncts
                    .iter()
                    .all(|d| d.len() <= sizing::MAX_DISJUNCT_LEN),
                "{text}"
            );
        }
        assert_eq!(pool, query_pool(&db, &dataset, 128));
    }

    #[test]
    fn schedule_interleaves_both_streams_in_time_order() {
        let events = schedule(2.0, 100.0, 10.0);
        assert_eq!(events.len(), 220);
        assert!(events.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(events[0], (0.0, Arrival::Read(0)));
        let writes = events
            .iter()
            .filter(|e| matches!(e.1, Arrival::Write(_)))
            .count();
        assert_eq!(writes, 20);
    }
}
