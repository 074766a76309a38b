//! Randomized properties of [`prefix_successor`], the helper every ordered
//! map in the workspace turns a prefix scan into a range scan with.
//!
//! The build environment is offline, so instead of proptest these properties
//! are driven by the vendored deterministic PRNG: every case is seeded, so a
//! failure reproduces exactly.

use pathix_storage::prefix_successor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random byte string of `1..max_len` bytes, biased toward `0xFF` so the
/// carry path is exercised often.
fn random_prefix(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(1..max_len);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.3) {
                0xFF
            } else {
                rng.gen_range(0..256u32) as u8
            }
        })
        .collect()
}

#[test]
fn prefix_successor_is_a_tight_upper_bound() {
    let mut rng = StdRng::seed_from_u64(0x5CC);
    for case in 0..512 {
        let prefix = random_prefix(&mut rng, 8);
        if let Some(succ) = prefix_successor(&prefix) {
            // Every extension of the prefix sorts strictly below the
            // successor.
            assert!(prefix < succ, "case {case}");
            let mut extended = prefix.clone();
            extended.extend_from_slice(&[0xFF; 4]);
            assert!(extended < succ, "case {case}");
            assert!(!succ.starts_with(&prefix), "case {case}");
        } else {
            // Only all-0xFF prefixes have no successor.
            assert!(prefix.iter().all(|&b| b == 0xFF), "case {case}");
        }
    }
}

/// The twin of the bound above, from the keys' side: a key falls in
/// `[prefix, successor)` exactly when it starts with the prefix. Short
/// prefixes over a three-letter alphabet make random keys hit and miss the
/// prefix about equally often.
#[test]
fn the_successor_range_holds_exactly_the_prefixed_keys() {
    let mut rng = StdRng::seed_from_u64(0x5CD);
    let alphabet = [0x00u8, 0x7F, 0xFF];
    let mut hits = 0usize;
    let mut misses = 0usize;
    for case in 0..256 {
        let prefix: Vec<u8> = (0..rng.gen_range(1..4usize))
            .map(|_| alphabet[rng.gen_range(0..3usize)])
            .collect();
        let succ = prefix_successor(&prefix);
        for _ in 0..32 {
            let key: Vec<u8> = (0..rng.gen_range(0..6usize))
                .map(|_| alphabet[rng.gen_range(0..3usize)])
                .collect();
            let in_range = key >= prefix && succ.as_ref().is_none_or(|s| key < *s);
            assert_eq!(
                in_range,
                key.starts_with(&prefix),
                "case {case}: prefix {prefix:?}, key {key:?}, successor {succ:?}"
            );
            if in_range {
                hits += 1;
            } else {
                misses += 1;
            }
        }
    }
    assert!(hits > 100 && misses > 100, "{hits} hits, {misses} misses");
}
