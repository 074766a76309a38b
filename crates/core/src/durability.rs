//! Durable-writer plumbing for the on-disk backend: the graph checkpoint
//! file and the path layout tying it to the page file and write-ahead log.
//!
//! The paged B+tree persists the index side of a [`crate::PathDb`] (its
//! entry keys); the graph side — vocabulary and adjacency — is
//! persisted as a **checkpoint**: one CRC-framed [`GraphSnapshot`] plus the
//! commit sequence number it covers, rewritten atomically (temp file +
//! rename) every [`crate::PathDbConfig::wal_checkpoint_every`] batches and
//! at open. Batches after the checkpoint live only in the WAL
//! ([`pathix_pagestore::Wal`]) as [`pathix_pagestore::CommitRecord`]s; replay
//! re-interns their names in id order, which reproduces ids — and therefore
//! index entry keys — exactly, and re-applies their edge ops the way a live
//! batch does.
//!
//! For a page file at `db.pages`, the checkpoint lives at `db.pages.graph`
//! and the log segments under `db.pages.wal/`.

use pathix_graph::{Graph, GraphSnapshot};
use pathix_pagestore::fault;
use pathix_pagestore::wal::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Where the write-ahead log of the page file at `page_path` lives.
pub(crate) fn wal_dir(page_path: &Path) -> PathBuf {
    append_extension(page_path, "wal")
}

/// Where the graph checkpoint of the page file at `page_path` lives.
pub(crate) fn checkpoint_path(page_path: &Path) -> PathBuf {
    append_extension(page_path, "graph")
}

fn append_extension(path: &Path, ext: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".");
    name.push(ext);
    path.with_file_name(name)
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt checkpoint: {what}"),
    )
}

fn get_u16_at(bytes: &[u8], pos: &mut usize) -> io::Result<u16> {
    let end = pos.checked_add(2).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(corrupt("truncated"));
    };
    let mut buf = [0u8; 2];
    buf.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(u16::from_le_bytes(buf))
}

fn get_u32_at(bytes: &[u8], pos: &mut usize) -> io::Result<u32> {
    let end = pos.checked_add(4).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(corrupt("truncated"));
    };
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(u32::from_le_bytes(buf))
}

fn get_u64_at(bytes: &[u8], pos: &mut usize) -> io::Result<u64> {
    let end = pos.checked_add(8).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(corrupt("truncated"));
    };
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(u64::from_le_bytes(buf))
}

fn get_string_at(bytes: &[u8], pos: &mut usize) -> io::Result<String> {
    let len = get_u32_at(bytes, pos)? as usize;
    let end = pos.checked_add(len).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(corrupt("truncated"));
    };
    let out =
        String::from_utf8(bytes[*pos..end].to_vec()).map_err(|_| corrupt("name is not UTF-8"))?;
    *pos = end;
    Ok(out)
}

fn put_string(out: &mut Vec<u8>, name: &str) {
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

/// Serializes `(seq, snapshot)` into a checkpoint payload.
fn encode(snapshot: &GraphSnapshot, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + snapshot.edges.len() * 10);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(snapshot.nodes.len() as u32).to_le_bytes());
    for name in &snapshot.nodes {
        put_string(&mut out, name);
    }
    out.extend_from_slice(&(snapshot.labels.len() as u32).to_le_bytes());
    for name in &snapshot.labels {
        put_string(&mut out, name);
    }
    out.extend_from_slice(&(snapshot.edges.len() as u64).to_le_bytes());
    for &(label, src, dst) in &snapshot.edges {
        out.extend_from_slice(&label.to_le_bytes());
        out.extend_from_slice(&src.to_le_bytes());
        out.extend_from_slice(&dst.to_le_bytes());
    }
    out
}

/// Deserializes a checkpoint payload back into `(snapshot, seq)`.
fn decode(bytes: &[u8]) -> io::Result<(GraphSnapshot, u64)> {
    let pos = &mut 0usize;
    let seq = get_u64_at(bytes, pos)?;
    let node_len = get_u32_at(bytes, pos)? as usize;
    let mut nodes = Vec::with_capacity(node_len.min(1 << 20));
    for _ in 0..node_len {
        nodes.push(get_string_at(bytes, pos)?);
    }
    let label_len = get_u32_at(bytes, pos)? as usize;
    let mut labels = Vec::with_capacity(label_len.min(1 << 16));
    for _ in 0..label_len {
        labels.push(get_string_at(bytes, pos)?);
    }
    let edge_len = get_u64_at(bytes, pos)? as usize;
    let mut edges = Vec::with_capacity(edge_len.min(1 << 22));
    for _ in 0..edge_len {
        let label = get_u16_at(bytes, pos)?;
        let src = get_u32_at(bytes, pos)?;
        let dst = get_u32_at(bytes, pos)?;
        edges.push((label, src, dst));
    }
    if *pos != bytes.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok((
        GraphSnapshot {
            nodes,
            labels,
            edges,
        },
        seq,
    ))
}

/// Writes the checkpoint for `graph` as of commit `seq` to `path`,
/// atomically: the CRC-framed payload goes to a temp file, is synced, and
/// replaces the previous checkpoint by rename — a crash at any step leaves
/// either the old or the new checkpoint intact, never a torn one.
pub(crate) fn write_checkpoint(path: &Path, graph: &Graph, seq: u64) -> io::Result<()> {
    let payload = encode(&GraphSnapshot::from_graph(graph), seq);
    let mut framed = Vec::with_capacity(8 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);

    let tmp = append_extension(path, "tmp");
    fault::hit("checkpoint-write")?;
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(&framed)?;
    fault::hit("checkpoint-sync")?;
    file.sync_data()?;
    drop(file);
    fault::hit("checkpoint-rename")?;
    fs::rename(&tmp, path)?;
    // Make the rename itself durable where the platform allows it.
    if let Some(dir) = path.parent() {
        if let Ok(dir) = File::open(dir) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Loads the checkpoint at `path`, returning the graph and the commit
/// sequence number it covers. Fails on a missing file, a bad frame, a CRC
/// mismatch, or a malformed payload.
pub(crate) fn load_checkpoint(path: &Path) -> io::Result<(Graph, u64)> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 8 {
        return Err(corrupt("file shorter than its frame header"));
    }
    let pos = &mut 0usize;
    let len = get_u32_at(&bytes, pos)? as usize;
    let expected = get_u32_at(&bytes, pos)?;
    if bytes.len() - 8 != len {
        return Err(corrupt("frame length does not match the file"));
    }
    let payload = &bytes[8..];
    if crc32(payload) != expected {
        return Err(corrupt("CRC mismatch"));
    }
    let (snapshot, seq) = decode(payload)?;
    Ok((snapshot.into_graph(), seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_datagen::paper_example_graph;

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pathix-ckpt-{}-{tag}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join("db.pages")
    }

    #[test]
    fn sibling_paths_hang_off_the_page_file() {
        let page = PathBuf::from("/data/db.pages");
        assert_eq!(wal_dir(&page), PathBuf::from("/data/db.pages.wal"));
        assert_eq!(
            checkpoint_path(&page),
            PathBuf::from("/data/db.pages.graph")
        );
    }

    #[test]
    fn checkpoint_round_trips_graph_and_seq() {
        let page = temp_path("roundtrip");
        let ckpt = checkpoint_path(&page);
        let g = paper_example_graph();
        write_checkpoint(&ckpt, &g, 17).unwrap();
        let (back, seq) = load_checkpoint(&ckpt).unwrap();
        assert_eq!(seq, 17);
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        // Ids (and so index keys) are reproduced exactly.
        for name in ["kim", "sue", "tim"] {
            assert_eq!(back.node_id(name), g.node_id(name));
        }
        // Rewriting replaces atomically.
        write_checkpoint(&ckpt, &g, 18).unwrap();
        assert_eq!(load_checkpoint(&ckpt).unwrap().1, 18);
        fs::remove_dir_all(page.parent().unwrap()).ok();
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let page = temp_path("corrupt");
        let ckpt = checkpoint_path(&page);
        assert!(load_checkpoint(&ckpt).is_err(), "missing file");
        let g = paper_example_graph();
        write_checkpoint(&ckpt, &g, 3).unwrap();
        let mut bytes = fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&ckpt, &bytes).unwrap();
        assert!(load_checkpoint(&ckpt).is_err(), "flipped byte");
        let bytes = fs::read(&ckpt).unwrap();
        fs::write(&ckpt, &bytes[..bytes.len() - 3]).unwrap();
        assert!(load_checkpoint(&ckpt).is_err(), "truncated");
        fs::remove_dir_all(page.parent().unwrap()).ok();
    }
}
