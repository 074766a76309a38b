//! Model test for [`PairRun`], the one chunked sorted-run primitive under
//! both the graph's adjacency and the k-path index's path relations: random
//! insert/delete batches against a `BTreeSet` of pairs, over runs spanning
//! several chunks.
//!
//! After every batch the run must equal the model, audit clean, answer every
//! probe shape like the model, and have re-shared (by pointer) every chunk
//! the batch could not have touched.
//!
//! Cases are driven by a fixed-seed SplitMix64, so a failure reproduces
//! exactly.

use pathix_audit::AuditReport;
use pathix_graph::{NodeId, PairRun};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

type Pair = (NodeId, NodeId);

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn in_range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next() % u64::from(hi - lo)) as u32
    }
}

/// First components live in `FIRST_LO..FIRST_HI` (leaving room for probes
/// below the minimum and above the maximum), seconds in `0..SECONDS`, so one
/// first component regularly straddles a chunk boundary.
const FIRST_LO: u32 = 10;
const FIRST_HI: u32 = 610;
const SECONDS: u32 = 8;

fn random_pair(rng: &mut SplitMix64, first_lo: u32, first_hi: u32) -> Pair {
    (
        NodeId(rng.in_range(first_lo, first_hi)),
        NodeId(rng.in_range(0, SECONDS)),
    )
}

fn assert_audit_clean(run: &PairRun, ctx: &str) {
    let mut report = AuditReport::new();
    run.audit("run", &mut report);
    assert!(report.is_clean(), "{ctx}: {:?}", report.violations());
}

/// Every read of `run` against the model: full iteration, the cached length,
/// membership, and the three first-component probes for present, absent,
/// below-minimum and above-maximum keys plus every chunk-boundary key.
fn assert_matches_model(run: &PairRun, model: &BTreeSet<Pair>, rng: &mut SplitMix64, ctx: &str) {
    assert!(run.iter().eq(model.iter().copied()), "{ctx}: iteration");
    assert_eq!(run.len(), model.len(), "{ctx}: len");
    assert_eq!(run.is_empty(), model.is_empty(), "{ctx}: is_empty");
    assert_audit_clean(run, ctx);

    let mut pairs: Vec<Pair> = (0..24)
        .map(|_| random_pair(rng, FIRST_LO, FIRST_HI))
        .collect();
    pairs.extend(model.iter().step_by(model.len() / 16 + 1).copied());
    pairs.push((NodeId(FIRST_LO - 1), NodeId(0)));
    pairs.push((NodeId(FIRST_HI + 1), NodeId(0)));
    for chunk in run.chunks() {
        pairs.extend([chunk[0], chunk[chunk.len() - 1]]);
    }
    for pair in pairs {
        assert_eq!(
            run.contains(pair),
            model.contains(&pair),
            "{ctx}: contains {pair:?}"
        );
        let first = pair.0;
        let seconds: Vec<NodeId> = model
            .range((first, NodeId(0))..=(first, NodeId(u32::MAX)))
            .map(|&(_, second)| second)
            .collect();
        assert_eq!(
            run.seconds_for(first).collect::<Vec<_>>(),
            seconds,
            "{ctx}: seconds_for {first:?}"
        );
        assert_eq!(
            run.count_first(first),
            seconds.len(),
            "{ctx}: count_first {first:?}"
        );
        // Exactly the chunks whose fences admit `first`.
        let admitting: Vec<usize> = (0..run.chunks().len())
            .filter(|&i| {
                let chunk = &run.chunks()[i];
                chunk[0].0 <= first && first <= chunk[chunk.len() - 1].0
            })
            .collect();
        assert_eq!(
            run.covering_chunks(first).collect::<Vec<_>>(),
            admitting,
            "{ctx}: covering_chunks {first:?}"
        );
    }
}

/// Applies `ops` and checks the reuse accounting: every predecessor chunk is
/// counted exactly once, `shared` is the number of chunks carried over by
/// pointer, a chunk whose key range (and whose left neighbor's) saw no op is
/// among them, and at most one untouched neighbor is rebuilt per touched
/// chunk (the undersized-region coalescing).
fn apply_checked(run: &PairRun, ops: &[(Pair, bool)], ctx: &str) -> PairRun {
    let (mut shared, mut rebuilt) = (0usize, 0usize);
    let next = run.apply(ops, &mut shared, &mut rebuilt);
    let prev = run.chunks();
    assert_eq!(shared + rebuilt, prev.len(), "{ctx}: reuse accounting");
    let carried = |chunk: &Arc<Vec<Pair>>| next.chunks().iter().any(|c| Arc::ptr_eq(c, chunk));
    assert_eq!(
        prev.iter().filter(|c| carried(c)).count(),
        shared,
        "{ctx}: shared chunks are the same allocations"
    );
    // An op belongs to the last chunk starting at or below it (the first
    // chunk also takes everything below it).
    let mut touched = vec![false; prev.len()];
    for &(pair, _) in ops {
        if !prev.is_empty() {
            let owner = prev.partition_point(|c| c[0] <= pair).saturating_sub(1);
            touched[owner] = true;
        }
    }
    for (i, chunk) in prev.iter().enumerate() {
        if !touched[i] && (i == 0 || !touched[i - 1]) {
            assert!(carried(chunk), "{ctx}: untouched chunk {i} was copied");
        }
    }
    let touched_chunks = touched.iter().filter(|&&t| t).count();
    assert!(
        rebuilt <= 2 * touched_chunks,
        "{ctx}: {rebuilt} chunks rebuilt for {touched_chunks} touched"
    );
    next
}

/// A batch of real transitions relative to `model` (present pairs are
/// removed, absent ones inserted), sorted by pair; the model is updated.
fn toggle_batch(
    rng: &mut SplitMix64,
    model: &mut BTreeSet<Pair>,
    size: usize,
    first_lo: u32,
    first_hi: u32,
) -> Vec<(Pair, bool)> {
    let mut ops: BTreeMap<Pair, bool> = BTreeMap::new();
    for _ in 0..size {
        let pair = random_pair(rng, first_lo, first_hi);
        ops.entry(pair).or_insert_with(|| !model.contains(&pair));
    }
    for (&pair, &insert) in &ops {
        if insert {
            model.insert(pair);
        } else {
            model.remove(&pair);
        }
    }
    ops.into_iter().collect()
}

#[test]
fn random_batches_keep_the_run_equal_to_a_btreeset() {
    for seed in [0x9A1E, 0x9A1F, 0x9A20] {
        let mut rng = SplitMix64(seed);
        let mut model: BTreeSet<Pair> = (0..2_400)
            .map(|_| random_pair(&mut rng, FIRST_LO, FIRST_HI))
            .collect();
        let mut run = PairRun::from_sorted(model.iter().copied().collect());
        assert!(
            run.chunks().len() >= 4,
            "seed {seed:#x}: need several chunks"
        );
        assert_matches_model(&run, &model, &mut rng, &format!("seed {seed:#x} build"));

        for batch in 0..60 {
            let ctx = format!("seed {seed:#x} batch {batch}");
            // Alternate scattered batches with ones confined to a narrow key
            // window, and (every sixth) a delete-heavy sweep of one window.
            let window_lo = rng.in_range(FIRST_LO, FIRST_HI - 40);
            let (lo, hi) = match batch % 3 {
                0 => (FIRST_LO, FIRST_HI),
                _ => (window_lo, window_lo + 40),
            };
            let ops = if batch % 6 == 5 {
                let doomed: Vec<(Pair, bool)> = model
                    .range((NodeId(lo), NodeId(0))..(NodeId(hi), NodeId(0)))
                    .map(|&pair| (pair, false))
                    .collect();
                for (pair, _) in &doomed {
                    model.remove(pair);
                }
                doomed
            } else {
                let size = rng.in_range(1, 48) as usize;
                toggle_batch(&mut rng, &mut model, size, lo, hi)
            };
            run = apply_checked(&run, &ops, &ctx);
            assert_matches_model(&run, &model, &mut rng, &ctx);
        }
    }
}

#[test]
fn a_run_grows_from_empty_and_empties_out_again() {
    let mut rng = SplitMix64(0xE0E0);
    let empty = PairRun::default();
    assert!(PairRun::from_sorted(Vec::new()).chunks().is_empty());
    assert_matches_model(&empty, &BTreeSet::new(), &mut rng, "default");

    let mut model = BTreeSet::new();
    let inserts = toggle_batch(&mut rng, &mut model, 1_500, FIRST_LO, FIRST_HI);
    let full = apply_checked(&empty, &inserts, "fill");
    assert!(full.chunks().len() >= 4, "the fill must cut several chunks");
    assert_matches_model(&full, &model, &mut rng, "fill");

    let removals: Vec<(Pair, bool)> = model.iter().map(|&pair| (pair, false)).collect();
    let drained = apply_checked(&full, &removals, "drain");
    assert!(drained.chunks().is_empty());
    assert_matches_model(&drained, &BTreeSet::new(), &mut rng, "drain");
    assert_matches_model(&full, &model, &mut rng, "the old epoch after the drain");
}

#[test]
fn a_batch_that_nets_to_nothing_shares_every_chunk() {
    let mut rng = SplitMix64(0x0FF);
    let model: BTreeSet<Pair> = (0..2_000)
        .map(|_| random_pair(&mut rng, FIRST_LO, FIRST_HI))
        .collect();
    let run = PairRun::from_sorted(model.iter().copied().collect());
    let present = *model.iter().nth(700).expect("the model holds 700+ pairs");
    let absent = (NodeId(FIRST_HI + 5), NodeId(0));
    let ops = PairRun::net_ops([
        (absent, true),
        (present, false),
        (absent, false),
        (present, true),
    ]);
    assert!(ops.is_empty(), "{ops:?}");
    let next = apply_checked(&run, &ops, "net-zero");
    assert_eq!(next.chunks().len(), run.chunks().len());
    for (before, after) in run.chunks().iter().zip(next.chunks()) {
        assert!(Arc::ptr_eq(before, after));
    }
    assert_matches_model(&next, &model, &mut rng, "net-zero");
}
