//! Variable-length integer and delta encoding of sorted node-pair lists.
//!
//! The k-path index is highly compressible: within one label path the pairs
//! are sorted by `(source, target)`, so consecutive sources are
//! non-decreasing and, within one source, targets are strictly increasing.
//! The companion work the paper cites (reference \[14\]) studies exactly this —
//! index size and compression of a from-scratch path index. This module
//! provides the two building blocks:
//!
//! * LEB128 **varint** encoding of `u64` values, and
//! * **delta encoding** of a sorted `(u32, u32)` pair list: each source is
//!   stored as a delta from the previous source, and each target as a delta
//!   from the previous target of the same source (or raw when the source
//!   changes).

use pathix_graph::NodeId;
use pathix_index::backend::PairBatch;

/// Appends the LEB128 encoding of `value` to `out`.
pub fn encode_u64(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a LEB128 `u64` starting at `*pos`, advancing `*pos` past it.
///
/// Returns `None` on truncated input or encodings longer than 10 bytes.
pub fn decode_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        result |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(result);
        }
        shift += 7;
    }
}

/// Number of bytes [`encode_u64`] uses for `value`.
pub fn encoded_len_u64(value: u64) -> usize {
    let bits = 64 - value.leading_zeros();
    bits.max(1).div_ceil(7) as usize
}

/// Delta- and varint-encodes a pair list sorted by `(source, target)`.
///
/// The caller must pass a sorted, duplicate-free slice; this is asserted in
/// debug builds.
pub fn encode_pairs(pairs: &[(u32, u32)]) -> Vec<u8> {
    encode_sorted(pairs.len(), pairs.iter().copied())
}

/// [`encode_pairs`] over the `len` pairs `pairs` yields.
pub(crate) fn encode_sorted(len: usize, pairs: impl Iterator<Item = (u32, u32)>) -> Vec<u8> {
    let mut out = Vec::with_capacity(len * 2 + 8);
    encode_u64(len as u64, &mut out);
    let mut prev: Option<(u32, u32)> = None;
    for (src, dst) in pairs {
        debug_assert!(
            prev.is_none_or(|p| p < (src, dst)),
            "pair list must be sorted and duplicate-free"
        );
        let dsrc = src - prev.map_or(0, |(s, _)| s);
        encode_u64(u64::from(dsrc), &mut out);
        match prev {
            // Same source as the previous pair: targets are strictly
            // increasing, store the gap minus one.
            Some((_, prev_dst)) if dsrc == 0 => encode_u64(u64::from(dst - prev_dst - 1), &mut out),
            _ => encode_u64(u64::from(dst), &mut out),
        }
        prev = Some((src, dst));
    }
    out
}

/// Decodes a block produced by [`encode_pairs`].
///
/// Returns `None` if the block is truncated or malformed.
pub fn decode_pairs(bytes: &[u8]) -> Option<Vec<(u32, u32)>> {
    let mut pos = 0usize;
    let count = decode_u64(bytes, &mut pos)? as usize;
    let mut pairs = Vec::with_capacity(count);
    let mut prev: Option<(u32, u32)> = None;
    for _ in 0..count {
        let dsrc = decode_u64(bytes, &mut pos)?;
        let second = decode_u64(bytes, &mut pos)?;
        let src = prev
            .map_or(0u32, |(s, _)| s)
            .checked_add(u32::try_from(dsrc).ok()?)?;
        let dst = match prev {
            Some((_, prev_dst)) if dsrc == 0 => prev_dst
                .checked_add(u32::try_from(second).ok()?)?
                .checked_add(1)?,
            _ => u32::try_from(second).ok()?,
        };
        pairs.push((src, dst));
        prev = Some((src, dst));
    }
    if pos != bytes.len() {
        return None;
    }
    Some(pairs)
}

/// Streaming decoder over a block produced by [`encode_pairs`].
///
/// Yields pairs one at a time without materializing the whole list; malformed
/// input simply ends the iteration early (use [`decode_pairs`] when strict
/// validation is required).
#[derive(Debug, Clone)]
pub struct PairDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
    prev: Option<(u32, u32)>,
}

impl<'a> PairDecoder<'a> {
    /// Creates a decoder over an encoded block.
    pub fn new(bytes: &'a [u8]) -> Self {
        let mut pos = 0;
        let remaining = decode_u64(bytes, &mut pos).unwrap_or(0) as usize;
        PairDecoder {
            bytes,
            pos,
            remaining,
            prev: None,
        }
    }

    /// Number of pairs the block claims to contain (remaining to yield).
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Decodes pairs directly into `batch` (appending) until the batch is
    /// full or the block is exhausted, returning the number appended.
    ///
    /// This is the batch-at-a-time fast path: one virtual call moves up to a
    /// whole batch instead of one `Iterator::next` per pair.
    pub fn decode_into(&mut self, batch: &mut PairBatch) -> usize {
        let mut appended = 0;
        while !batch.is_full() {
            let Some((s, t)) = self.next() else { break };
            batch.push((NodeId(s), NodeId(t)));
            appended += 1;
        }
        appended
    }
}

impl Iterator for PairDecoder<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.remaining == 0 {
            return None;
        }
        let dsrc = decode_u64(self.bytes, &mut self.pos)?;
        let second = decode_u64(self.bytes, &mut self.pos)?;
        let src = self
            .prev
            .map_or(0u32, |(s, _)| s)
            .checked_add(u32::try_from(dsrc).ok()?)?;
        let dst = match self.prev {
            Some((_, prev_dst)) if dsrc == 0 => prev_dst
                .checked_add(u32::try_from(second).ok()?)?
                .checked_add(1)?,
            _ => u32::try_from(second).ok()?,
        };
        self.prev = Some((src, dst));
        self.remaining -= 1;
        Some((src, dst))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            encode_u64(v, &mut buf);
            assert_eq!(buf.len(), encoded_len_u64(v), "length for {v}");
            let mut pos = 0;
            assert_eq!(decode_u64(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncated_input() {
        let mut buf = Vec::new();
        encode_u64(300, &mut buf);
        let mut pos = 0;
        assert_eq!(decode_u64(&buf[..1], &mut pos), None);
    }

    #[test]
    fn pair_block_round_trip() {
        let pairs = vec![(0, 1), (0, 2), (0, 9), (3, 0), (3, 7), (120, 4), (120, 5)];
        let block = encode_pairs(&pairs);
        assert_eq!(decode_pairs(&block).unwrap(), pairs);
        let streamed: Vec<_> = PairDecoder::new(&block).collect();
        assert_eq!(streamed, pairs);
    }

    #[test]
    fn empty_block_round_trip() {
        let block = encode_pairs(&[]);
        assert_eq!(decode_pairs(&block).unwrap(), Vec::<(u32, u32)>::new());
        assert_eq!(PairDecoder::new(&block).count(), 0);
    }

    #[test]
    fn dense_runs_compress_well() {
        // 1000 pairs out of a single source: 2 bytes of key material each
        // would cost 8000 bytes raw; delta encoding stays near 2 KiB.
        let pairs: Vec<(u32, u32)> = (0..1000).map(|i| (42, i * 3)).collect();
        let block = encode_pairs(&pairs);
        assert!(block.len() < pairs.len() * 4, "block {} bytes", block.len());
        assert_eq!(decode_pairs(&block).unwrap(), pairs);
    }

    #[test]
    fn first_pair_zero_zero_round_trips() {
        let pairs = vec![(0, 0), (0, 1), (1, 0)];
        let block = encode_pairs(&pairs);
        assert_eq!(decode_pairs(&block).unwrap(), pairs);
        assert_eq!(PairDecoder::new(&block).collect::<Vec<_>>(), pairs);
    }

    #[test]
    fn decode_into_fills_batches_and_resumes() {
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i / 4, i * 7)).collect();
        let block = encode_pairs(&pairs);
        let mut decoder = PairDecoder::new(&block);
        let mut batch = PairBatch::with_capacity(33);
        let mut out = Vec::new();
        loop {
            batch.clear();
            if decoder.decode_into(&mut batch) == 0 {
                break;
            }
            out.extend(batch.iter().map(|(s, t)| (s.0, t.0)));
        }
        assert_eq!(out, pairs);
    }

    #[test]
    fn malformed_blocks_are_rejected() {
        let pairs = vec![(1, 2), (3, 4)];
        let mut block = encode_pairs(&pairs);
        block.pop();
        assert!(decode_pairs(&block).is_none());
        // Trailing garbage is also rejected by the strict decoder.
        let mut block = encode_pairs(&pairs);
        block.push(0);
        assert!(decode_pairs(&block).is_none());
    }
}
