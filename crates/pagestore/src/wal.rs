//! The write-ahead log: segmented, CRC-framed group commit ahead of page
//! writeback.
//!
//! One [`CommitRecord`] per applied update batch is appended and
//! `sync_data`'d **before** any page of the batch may reach the page file
//! (including buffer-pool evictions — the caller appends before mutating the
//! paged tree at all). After a crash, [`Wal::replay`] returns every fully
//! committed record in commit order; the opener re-commits the ones the
//! graph checkpoint does not cover and, for those whose effects did not
//! reach the pages (the paged tree's meta page records the highest applied
//! sequence number), rederives the batch with the code a live apply runs.
//!
//! ## Frame format
//!
//! Each record is framed as `[len: u32 LE | crc32: u32 LE | payload]`, where
//! the CRC covers the payload bytes ([`frame`], [`read_frame`]). A frame
//! that is cut short or fails its CRC is the torn tail of an append the
//! crash interrupted, whose batch was never acknowledged, only when it is
//! the log's last bytes; anywhere else it is corruption, and replay fails.
//!
//! The payload is a [`CommitRecord`]: a format byte, the sequence number,
//! then the batch's interned names and its effective edge ops — the batch,
//! not its effects on the index. A payload of another format fails
//! [`CommitRecord::decode`] instead of being misread. The graph checkpoint
//! next to the log is one such frame too, holding the whole graph as one
//! record: every name new, every edge an insert.
//!
//! ## Segments
//!
//! The log is a directory of append-only segment files
//! (`00000000000000000001.seg`, …): rotation keeps any single file small,
//! and a checkpoint truncates the whole log by deleting every segment and
//! starting a fresh one. Segment numbering never restarts within a log's
//! lifetime, so a half-finished truncation (some segments deleted, then a
//! crash) still replays the surviving records in order.

use crate::fault;
use pathix_graph::{EdgeOp, LabelId, NodeId};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Bytes after which [`Wal::append`] rotates to a fresh segment file.
const SEGMENT_BYTES: u64 = 1 << 19;

/// Sanity bound on one record's payload: appending a larger one is refused.
const MAX_RECORD_BYTES: usize = 1 << 26;

const SEGMENT_SUFFIX: &str = ".seg";

/// The first byte of every [`CommitRecord`] payload. Layout 3 logs the batch
/// alone; layout 2, which also logged the key transitions, and layout 1,
/// which had no format byte and logged absolute walk counts, are refused
/// rather than misread.
const RECORD_FORMAT: u8 = 3;

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum guarding every
/// frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Nibble-at-a-time table: 16 entries, built in const context so the
    // hot path is two lookups per byte with no runtime initialization.
    const TABLE: [u32; 16] = {
        let mut table = [0u32; 16];
        let mut i = 0;
        while i < 16 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 4 {
                crc = (crc >> 1) ^ if crc & 1 == 1 { 0xEDB8_8320 } else { 0 };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &byte in bytes {
        crc = (crc >> 4) ^ TABLE[((crc ^ byte as u32) & 0xF) as usize];
        crc = (crc >> 4) ^ TABLE[((crc ^ (byte >> 4) as u32) & 0xF) as usize];
    }
    !crc
}

/// `payload` framed as `[len: u32 LE | crc32: u32 LE | payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// The frame at the head of a byte string, as [`read_frame`] finds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// An intact frame: its payload and the bytes after it.
    Intact(&'a [u8], &'a [u8]),
    /// A frame that is cut short or fails its CRC; `last` when no byte
    /// follows the length it announces.
    Damaged {
        /// Nothing follows the frame.
        last: bool,
    },
}

/// Reads the frame at the head of `bytes`.
pub fn read_frame(bytes: &[u8]) -> Frame<'_> {
    let Some((header, rest)) = bytes.split_first_chunk::<8>() else {
        return Frame::Damaged { last: true };
    };
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if rest.len() < len {
        return Frame::Damaged { last: true };
    }
    let (payload, rest) = rest.split_at(len);
    if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
        return Frame::Damaged {
            last: rest.is_empty(),
        };
    }
    Frame::Intact(payload, rest)
}

/// One committed update batch, exactly as the writer resolved it: the new
/// names it interned (in id order, so replay re-interns identically) and the
/// effective edge operations. Its effects on the index are not logged:
/// recovery rederives them from the ops on the graph epoch the record was
/// committed against. Replay is idempotent because the graph and tree sides
/// each skip records their checkpoint already covers: a fresh record meets
/// exactly the state it was logged against, where each of its ops is
/// effective.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommitRecord {
    /// Monotonic commit sequence number (1-based; 0 is the bulk build).
    pub seq: u64,
    /// Node names interned by this batch, in ascending id order.
    pub new_nodes: Vec<String>,
    /// Label names interned by this batch, in ascending id order.
    pub new_labels: Vec<String>,
    /// Effective edge operations (no-ops excluded), in application order.
    pub ops: Vec<EdgeOp>,
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// The next `N` bytes of `bytes` at `pos`, advancing `pos` past them.
fn get_array_at<const N: usize>(bytes: &[u8], pos: &mut usize) -> io::Result<[u8; N]> {
    let end = pos.checked_add(N).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(corrupt("record truncated"));
    };
    let mut buf = [0u8; N];
    buf.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(buf)
}

fn get_u32_at(bytes: &[u8], pos: &mut usize) -> io::Result<u32> {
    get_array_at(bytes, pos).map(u32::from_le_bytes)
}

fn get_string_at(bytes: &[u8], pos: &mut usize) -> io::Result<String> {
    let len = get_u32_at(bytes, pos)? as usize;
    let end = pos.checked_add(len).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(corrupt("record truncated"));
    };
    let name = String::from_utf8(bytes[*pos..end].to_vec());
    *pos = end;
    name.map_err(|_| corrupt("name is not UTF-8"))
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt WAL: {what}"))
}

impl CommitRecord {
    /// Serializes the record into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.ops.len() * 11);
        out.push(RECORD_FORMAT);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.new_nodes.len() as u32).to_le_bytes());
        for name in &self.new_nodes {
            put_bytes(&mut out, name.as_bytes());
        }
        out.extend_from_slice(&(self.new_labels.len() as u32).to_le_bytes());
        for name in &self.new_labels {
            put_bytes(&mut out, name.as_bytes());
        }
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            out.extend_from_slice(&op.src.0.to_le_bytes());
            out.extend_from_slice(&op.label.0.to_le_bytes());
            out.extend_from_slice(&op.dst.0.to_le_bytes());
            out.push(op.insert as u8);
        }
        out
    }

    /// Deserializes a frame payload produced by [`CommitRecord::encode`].
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        if bytes.first() != Some(&RECORD_FORMAT) {
            return Err(corrupt("unknown record format"));
        }
        let pos = &mut 1usize;
        let seq = get_array_at(bytes, pos).map(u64::from_le_bytes)?;
        let node_len = get_u32_at(bytes, pos)? as usize;
        let mut new_nodes = Vec::with_capacity(node_len.min(1024));
        for _ in 0..node_len {
            new_nodes.push(get_string_at(bytes, pos)?);
        }
        let label_len = get_u32_at(bytes, pos)? as usize;
        let mut new_labels = Vec::with_capacity(label_len.min(1024));
        for _ in 0..label_len {
            new_labels.push(get_string_at(bytes, pos)?);
        }
        let op_len = get_u32_at(bytes, pos)? as usize;
        let mut ops = Vec::with_capacity(op_len.min(4096));
        for _ in 0..op_len {
            let src = NodeId(get_u32_at(bytes, pos)?);
            let label = LabelId(get_array_at(bytes, pos).map(u16::from_le_bytes)?);
            let dst = NodeId(get_u32_at(bytes, pos)?);
            ops.push(match get_array_at(bytes, pos)? {
                [1] => EdgeOp::insert(src, label, dst),
                [0] => EdgeOp::delete(src, label, dst),
                _ => return Err(corrupt("unknown edge op")),
            });
        }
        if *pos != bytes.len() {
            return Err(corrupt("trailing bytes after record"));
        }
        Ok(CommitRecord {
            seq,
            new_nodes,
            new_labels,
            ops,
        })
    }
}

/// Size and shape statistics of a [`Wal`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Segment files currently on disk.
    pub segments: u64,
    /// Bytes appended to the current segment.
    pub current_segment_bytes: u64,
    /// Records appended through this handle (not counting replayed history).
    pub records_appended: u64,
    /// `sync_data` calls performed through this handle.
    pub syncs: u64,
}

/// An append-only, segmented write-ahead log rooted at a directory.
///
/// ```
/// use pathix_graph::{EdgeOp, LabelId, NodeId};
/// use pathix_pagestore::{CommitRecord, Wal};
///
/// let dir = std::env::temp_dir().join(format!("pathix-doc-wal-{}", std::process::id()));
/// let record = |seq: u64| CommitRecord {
///     seq,
///     ops: vec![EdgeOp::insert(NodeId(0), LabelId(0), NodeId(seq as u32))],
///     ..CommitRecord::default()
/// };
///
/// let mut wal = Wal::open(&dir).unwrap();
/// wal.append(&record(1).encode()).unwrap();
/// wal.append(&record(2).encode()).unwrap();
/// wal.sync().unwrap(); // only now are the two records durable
/// assert_eq!((wal.stats().records_appended, wal.stats().syncs), (2, 1));
/// drop(wal);
///
/// // A restart replays every committed record, oldest first …
/// let replayed: Vec<_> = Wal::replay(&dir)
///     .unwrap()
///     .iter()
///     .map(|payload| CommitRecord::decode(payload).unwrap())
///     .collect();
/// assert_eq!(replayed, [record(1), record(2)]);
///
/// // … and a checkpoint truncates the log.
/// let mut wal = Wal::open(&dir).unwrap();
/// wal.reset().unwrap();
/// assert!(Wal::replay(&dir).unwrap().is_empty());
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    current_segment: u64,
    segment_bytes: u64,
    segment_limit: u64,
    stats: WalStats,
}

/// Segment files of `dir` as `(segment number, path)`, ascending.
fn segments_in(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_suffix(SEGMENT_SUFFIX) else {
            continue;
        };
        let Ok(number) = stem.parse::<u64>() else {
            continue;
        };
        segments.push((number, entry.path()));
    }
    segments.sort_unstable();
    Ok(segments)
}

fn segment_path(dir: &Path, number: u64) -> PathBuf {
    dir.join(format!("{number:020}{SEGMENT_SUFFIX}"))
}

impl Wal {
    /// Opens (creating if absent) the log rooted at `dir`, positioned to
    /// append after the last complete record.
    pub fn open<P: AsRef<Path>>(dir: P) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let segments = segments_in(&dir)?;
        let (current_segment, path) = match segments.last() {
            Some(&(number, ref path)) => (number, path.clone()),
            None => (1, segment_path(&dir, 1)),
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let segment_bytes = file.metadata()?.len();
        Ok(Wal {
            dir,
            file,
            current_segment,
            segment_bytes,
            segment_limit: SEGMENT_BYTES,
            stats: WalStats {
                segments: segments.len().max(1) as u64,
                current_segment_bytes: segment_bytes,
                ..WalStats::default()
            },
        })
    }

    /// Appends one framed record. The record is not durable until
    /// [`Wal::sync`] returns.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_RECORD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "WAL record of {} bytes exceeds the frame bound",
                    payload.len()
                ),
            ));
        }
        if self.segment_bytes >= self.segment_limit {
            self.rotate()?;
        }
        fault::hit("wal-append")?;
        let frame = frame(payload);
        self.file.write_all(&frame)?;
        self.segment_bytes += frame.len() as u64;
        self.stats.records_appended += 1;
        self.stats.current_segment_bytes = self.segment_bytes;
        Ok(())
    }

    /// Makes every appended record durable (`sync_data`).
    pub fn sync(&mut self) -> io::Result<()> {
        fault::hit("wal-sync")?;
        self.file.sync_data()?;
        self.stats.syncs += 1;
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        let next = self.current_segment + 1;
        let path = segment_path(&self.dir, next);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        self.file = file;
        self.current_segment = next;
        self.segment_bytes = 0;
        self.stats.segments += 1;
        self.stats.current_segment_bytes = 0;
        Ok(())
    }

    /// Deletes every segment and starts a fresh one — the truncation step of
    /// a checkpoint, called only after the checkpoint itself is durable.
    /// Numbering continues from the next segment, so a crash that interrupts
    /// the deletions leaves a log whose surviving records still replay in
    /// order (and are skipped as already applied).
    pub fn reset(&mut self) -> io::Result<()> {
        let next = self.current_segment + 1;
        let path = segment_path(&self.dir, next);
        fault::hit("wal-reset")?;
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        self.file = file;
        self.current_segment = next;
        self.segment_bytes = 0;
        self.stats.current_segment_bytes = 0;
        let mut kept = 0u64;
        for (number, path) in segments_in(&self.dir)? {
            if number == next {
                kept += 1;
                continue;
            }
            fault::hit("wal-truncate")?;
            fs::remove_file(&path)?;
        }
        self.stats.segments = kept;
        Ok(())
    }

    /// Statistics of this handle.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Reads every fully committed record payload under `dir`, oldest first.
    /// A missing directory replays as empty.
    ///
    /// A frame that is cut short or fails its CRC ends the replay when it is
    /// the log's last bytes: nothing follows it in its segment and every
    /// later segment is empty. It is then the torn tail of the append the
    /// crash interrupted, and everything before it is intact. Any other
    /// damaged frame would drop the acknowledged records after it, so it is
    /// an [`io::ErrorKind::InvalidData`] error instead.
    pub fn replay<P: AsRef<Path>>(dir: P) -> io::Result<Vec<Vec<u8>>> {
        let dir = dir.as_ref();
        if !dir.exists() {
            return Ok(Vec::new());
        }
        let mut records = Vec::new();
        let mut segments = segments_in(dir)?.into_iter();
        while let Some((number, path)) = segments.next() {
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let mut rest = bytes.as_slice();
            while !rest.is_empty() {
                match read_frame(rest) {
                    Frame::Intact(payload, after) => {
                        records.push(payload.to_vec());
                        rest = after;
                    }
                    Frame::Damaged { last } => {
                        let mut tail = last;
                        for (_, later) in segments.by_ref() {
                            tail &= fs::metadata(&later)?.len() == 0;
                        }
                        if !tail {
                            return Err(corrupt(&format!(
                                "a damaged frame in segment {number} is not the log's tail"
                            )));
                        }
                        return Ok(records);
                    }
                }
            }
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pathix-wal-{}-{}-{}", std::process::id(), tag, n));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_sync_replay_round_trip() {
        let dir = temp_wal_dir("roundtrip");
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
            wal.sync().unwrap();
            assert_eq!(wal.stats().records_appended, 2);
        }
        // Reopening appends after the existing records.
        {
            let mut wal = Wal::open(&dir).unwrap();
            wal.append(b"third").unwrap();
            wal.sync().unwrap();
        }
        let records = Wal::replay(&dir).unwrap();
        assert_eq!(
            records,
            vec![b"first".to_vec(), b"second".to_vec(), b"third".to_vec()]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_not_an_error() {
        let dir = temp_wal_dir("torn");
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(b"keep me").unwrap();
        wal.sync().unwrap();
        // Simulate a torn append: a frame header promising more bytes than
        // the file holds.
        let seg = segments_in(&dir).unwrap().pop().unwrap().1;
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"way too short");
        fs::write(&seg, &bytes).unwrap();
        assert_eq!(Wal::replay(&dir).unwrap(), vec![b"keep me".to_vec()]);

        // A CRC failure also ends replay.
        let mut bytes = fs::read(&seg).unwrap();
        bytes.truncate(8 + b"keep me".len());
        let tail = bytes.len() - 1;
        bytes[tail] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        assert_eq!(Wal::replay(&dir).unwrap(), Vec::<Vec<u8>>::new());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_damaged_frame_that_is_not_the_tail_is_an_error() {
        let dir = temp_wal_dir("damaged");
        let mut wal = Wal::open(&dir).unwrap();
        for payload in [b"first", b"secnd"] {
            wal.append(payload).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let seg = segments_in(&dir).unwrap().pop().unwrap().1;
        let intact = fs::read(&seg).unwrap();

        // A flipped payload byte in the first frame, with the second after it.
        let mut bytes = intact.clone();
        bytes[8] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        let err = Wal::replay(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A torn last frame is the tail while every later segment is empty …
        fs::write(&seg, &intact[..intact.len() - 2]).unwrap();
        let later = segment_path(&dir, 2);
        fs::write(&later, b"").unwrap();
        assert_eq!(Wal::replay(&dir).unwrap(), vec![b"first".to_vec()]);

        // … and an error once a later segment holds a record.
        fs::write(&later, frame(b"third")).unwrap();
        let err = Wal::replay(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_frame_finds_intact_and_damaged_frames() {
        let framed = frame(b"payload");
        let mut two = framed.clone();
        two.extend_from_slice(&framed);
        assert_eq!(read_frame(&framed), Frame::Intact(b"payload", &[]));
        assert_eq!(read_frame(&two), Frame::Intact(b"payload", &framed[..]));
        for cut in 0..framed.len() {
            assert_eq!(
                read_frame(&framed[..cut]),
                Frame::Damaged { last: true },
                "cut at {cut}"
            );
        }
        let mut flipped = two.clone();
        flipped[9] ^= 1;
        assert_eq!(read_frame(&flipped), Frame::Damaged { last: false });
        assert_eq!(
            read_frame(&flipped[..framed.len()]),
            Frame::Damaged { last: true }
        );
    }

    #[test]
    fn rotation_and_reset() {
        let dir = temp_wal_dir("rotate");
        let mut wal = Wal::open(&dir).unwrap();
        wal.segment_limit = 64;
        let payload = vec![7u8; 50];
        for _ in 0..5 {
            wal.append(&payload).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.stats().segments > 1, "small limit must rotate");
        assert_eq!(Wal::replay(&dir).unwrap().len(), 5);

        wal.reset().unwrap();
        assert_eq!(wal.stats().segments, 1);
        assert_eq!(Wal::replay(&dir).unwrap().len(), 0);
        // The log is still appendable after a reset.
        wal.append(b"after reset").unwrap();
        wal.sync().unwrap();
        assert_eq!(Wal::replay(&dir).unwrap(), vec![b"after reset".to_vec()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_record_codec_round_trips() {
        let record = CommitRecord {
            seq: 42,
            new_nodes: vec!["alice".to_string(), "bob".to_string()],
            new_labels: vec!["knows".to_string()],
            ops: vec![
                EdgeOp::insert(NodeId(0), LabelId(0), NodeId(1)),
                EdgeOp::delete(NodeId(1), LabelId(0), NodeId(0)),
            ],
        };
        let bytes = record.encode();
        assert_eq!(CommitRecord::decode(&bytes).unwrap(), record);

        // Truncations at every prefix length decode to an error, never a
        // panic or a bogus record.
        for cut in 0..bytes.len() {
            assert!(CommitRecord::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(CommitRecord::decode(&trailing).is_err());
        let mut unknown = bytes.clone();
        *unknown.last_mut().unwrap() = 2;
        assert!(CommitRecord::decode(&unknown).is_err());
    }

    /// The head of a layout-1 or layout-2 record after its format byte (if
    /// any): seq, the inserted and deleted edge counts, no new name, and one
    /// op `+0(0, 1)`.
    fn old_head(seq: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for word in [seq, 1, 0] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(&0u32.to_le_bytes()); // no new node
        out.extend_from_slice(&0u32.to_le_bytes()); // no new label
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&[0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1]); // +0(0, 1)
        out
    }

    /// A record in layout 1: no format byte, then `(key, walk count)` pairs.
    fn layout_1(seq: u64, counts: &[(&[u8], u64)]) -> Vec<u8> {
        let mut out = old_head(seq);
        out.extend_from_slice(&(counts.len() as u32).to_le_bytes());
        for (key, count) in counts {
            put_bytes(&mut out, key);
            out.extend_from_slice(&count.to_le_bytes());
        }
        out
    }

    /// A record in layout 2: format byte 2, then `(key, transition)` pairs.
    fn layout_2(seq: u64, transitions: &[(&[u8], bool)]) -> Vec<u8> {
        let mut out = vec![2];
        out.extend_from_slice(&old_head(seq));
        out.extend_from_slice(&(transitions.len() as u32).to_le_bytes());
        for (key, added) in transitions {
            put_bytes(&mut out, key);
            out.push(u8::from(*added));
        }
        out
    }

    #[test]
    fn records_in_layouts_1_and_2_are_refused() {
        let counts: [(&[u8], u64); 2] = [(&[1, 0, 0], 2), (&[1, 0, 1], 0)];
        let transitions: [(&[u8], bool); 2] = [(&[1, 0, 0], true), (&[1, 0, 1], false)];
        // Small and large sequence numbers, including one whose low byte is
        // the current format byte, so a layout-1 record passes the first
        // check.
        for seq in [1, 2, 7, u64::from(RECORD_FORMAT), 258, 1 << 40] {
            for (layout, bytes) in [
                (1, layout_1(seq, &counts)),
                (2, layout_2(seq, &transitions)),
            ] {
                let err = CommitRecord::decode(&bytes).unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "layout {layout}, seq {seq}"
                );
            }
        }
    }
}
