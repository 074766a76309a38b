//! Randomized model tests: the paged B+tree and the compressed pair blocks
//! are checked against simple in-memory models (`BTreeMap`, plain vectors).
//!
//! Driven by the vendored deterministic PRNG (the environment is offline, so
//! no proptest); every case is seeded and reproduces exactly.

use pathix_audit::AuditReport;
use pathix_pagestore::varint::{decode_pairs, encode_pairs, PairDecoder};
use pathix_pagestore::{BufferPool, PagedBTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Arbitrary small byte-string keys: short alphabets produce many prefix
/// collisions, which is what stresses ordering and splits.
fn random_key(rng: &mut StdRng) -> Vec<u8> {
    const ALPHABET: [u8; 6] = [0, 1, 7, 42, 200, 255];
    let len = rng.gen_range(1..12usize);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

/// A full structural audit of `tree` finds nothing.
fn assert_audit_clean(tree: &PagedBTree, context: &str) {
    let mut report = AuditReport::new();
    report.run("paged-btree", tree);
    report.assert_clean(context);
}

fn random_value(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0..20usize);
    (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect()
}

/// Inserting any multiset of key/value pairs leaves the paged tree with
/// exactly the contents of a `BTreeMap` model, in the same order.
#[test]
fn paged_btree_matches_btreemap_model() {
    for case in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x9A6E + case);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut tree = PagedBTree::create(BufferPool::in_memory(8)).unwrap();
        for _ in 0..rng.gen_range(1..300usize) {
            let (k, v) = (random_key(&mut rng), random_value(&mut rng));
            model.insert(k.clone(), v.clone());
            tree.insert(k, v).unwrap();
        }
        for _ in 0..rng.gen_range(0..50usize) {
            let k = random_key(&mut rng);
            assert_eq!(tree.delete(&k).unwrap(), model.remove(&k), "case {case}");
        }
        assert_eq!(tree.len(), model.len() as u64, "case {case}");
        let tree_entries: Vec<_> = tree.iter().unwrap().map(Result::unwrap).collect();
        let model_entries: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(tree_entries, model_entries, "case {case}");
        assert_audit_clean(&tree, &format!("case {case}"));
    }
}

/// Range scans agree with the model for arbitrary bounds.
#[test]
fn paged_btree_range_matches_model() {
    for case in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x4A4E + case);
        let mut entries: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for _ in 0..rng.gen_range(0..200usize) {
            entries.insert(random_key(&mut rng), random_value(&mut rng));
        }
        let tree = PagedBTree::bulk_load(
            BufferPool::in_memory(8),
            entries.iter().map(|(k, v)| (k.clone(), v.clone())),
        )
        .unwrap();
        let start = random_key(&mut rng);
        let end = random_key(&mut rng);
        let (lo, hi) = if start <= end {
            (start, end)
        } else {
            (end, start)
        };
        let expected: Vec<_> = entries
            .range(lo.clone()..hi.clone())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let got: Vec<_> = tree
            .range(&lo, Some(&hi))
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(got, expected, "case {case}");
    }
}

/// Bulk load and incremental insert produce identical trees.
#[test]
fn bulk_load_equals_incremental_inserts() {
    for case in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xB01C + case);
        let mut entries: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for _ in 0..rng.gen_range(0..200usize) {
            entries.insert(random_key(&mut rng), random_value(&mut rng));
        }
        let bulk = PagedBTree::bulk_load(
            BufferPool::in_memory(8),
            entries.iter().map(|(k, v)| (k.clone(), v.clone())),
        )
        .unwrap();
        let mut incr = PagedBTree::create(BufferPool::in_memory(8)).unwrap();
        for (k, v) in &entries {
            incr.insert(k.clone(), v.clone()).unwrap();
        }
        let a: Vec<_> = bulk.iter().unwrap().map(Result::unwrap).collect();
        let b: Vec<_> = incr.iter().unwrap().map(Result::unwrap).collect();
        assert_eq!(a, b, "case {case}");
        assert_audit_clean(&bulk, &format!("bulk, case {case}"));
        assert_audit_clean(&incr, &format!("incremental, case {case}"));
    }
}

/// Delta/varint pair blocks round-trip any sorted pair set.
#[test]
fn pair_blocks_round_trip() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xB10C + case);
        let mut raw: BTreeSet<(u32, u32)> = BTreeSet::new();
        for _ in 0..rng.gen_range(0..500usize) {
            raw.insert((rng.gen_range(0..5_000u32), rng.gen_range(0..5_000u32)));
        }
        let pairs: Vec<(u32, u32)> = raw.into_iter().collect();
        let block = encode_pairs(&pairs);
        assert_eq!(decode_pairs(&block), Some(pairs.clone()), "case {case}");
        let streamed: Vec<_> = PairDecoder::new(&block).collect();
        assert_eq!(streamed, pairs, "case {case}");
    }
}
