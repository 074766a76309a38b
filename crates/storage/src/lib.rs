//! # pathix-storage
//!
//! Order-preserving composite byte-string keys: the [`KeyBuf`] builder the
//! k-path index encodes `⟨label path, sourceID, targetID⟩` entries with, and
//! [`prefix_successor`], which turns a prefix scan over such keys into a
//! half-open range scan of any ordered map.
//!
//! The crate is a leaf with no dependencies; the ordered maps themselves live
//! with their owners (`std::collections::BTreeMap` in `pathix-index`, the
//! paged B+tree in `pathix-pagestore`).
//!
//! ```
//! use pathix_storage::{prefix_successor, KeyBuf};
//! use std::collections::BTreeMap;
//!
//! // ⟨label, source, target⟩ keys: big-endian fields sort like the tuple.
//! let key = |label: u16, src: u32, dst: u32| {
//!     let mut k = KeyBuf::new();
//!     k.push_u16(label).push_u32(src).push_u32(dst);
//!     k.finish()
//! };
//! let map: BTreeMap<Vec<u8>, ()> =
//!     [key(1, 1, 2), key(1, 1, 3), key(1, 2, 1), key(2, 1, 1)]
//!         .into_iter()
//!         .map(|k| (k, ()))
//!         .collect();
//!
//! // Everything under ⟨label 1, source 1⟩ is one half-open range.
//! let mut prefix = KeyBuf::new();
//! prefix.push_u16(1).push_u32(1);
//! let prefix = prefix.finish();
//! let upper = prefix_successor(&prefix).expect("the prefix is not all 0xFF");
//! let hits: Vec<_> = map.range(prefix..upper).map(|(k, _)| k.clone()).collect();
//! assert_eq!(hits, [key(1, 1, 2), key(1, 1, 3)]);
//! ```

pub mod keys;

pub use keys::{prefix_successor, KeyBuf};
