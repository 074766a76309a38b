//! Durable-writer plumbing for the on-disk backend: the one record format
//! the graph is kept in, the check every such record passes, the graph
//! checkpoint file and the path layout tying it to the page file and
//! write-ahead log.
//!
//! The paged B+tree persists the index side of a [`crate::PathDb`] (its
//! entry keys); the graph side — vocabulary and adjacency — is persisted as
//! [`CommitRecord`]s. A batch is one record in the write-ahead log
//! ([`pathix_pagestore::Wal`]): the names it interned and its effective
//! edge ops. The **checkpoint** is one record too, framed like a log record
//! and rewritten atomically (temp file + rename) every
//! [`crate::PathDbConfig::wal_checkpoint_every`] batches and at open: the
//! *base record* of the whole graph at the commit it covers, in which every
//! name is new and every edge is an insert. Recovery builds the graph from
//! the base record in bulk, then replays the log's later records; both pass
//! [`check_record`], and re-interning their names in id order reproduces ids
//! — and therefore index entry keys — exactly.
//!
//! For a page file at `db.pages`, the checkpoint lives at `db.pages.graph`
//! and the log segments under `db.pages.wal/`.

use crate::db::MAX_LABELS;
use pathix_graph::{EdgeOp, Graph, GraphBuilder, LabelId, NodeId};
use pathix_pagestore::fault;
use pathix_pagestore::wal::{frame, read_frame, Frame};
use pathix_pagestore::CommitRecord;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
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

/// Assembles the commit record of `after` as of commit `seq` over `before`:
/// the names `after` interned past `before` (ids `before.node_count()..` /
/// `before.label_count()..`, in id order, so replay re-interns them
/// identically) and `ops`. Over [`Graph::empty`] with every edge as an
/// insert, it is the base record of `after`.
pub(crate) fn commit_record(
    seq: u64,
    before: &Graph,
    after: &Graph,
    ops: Vec<EdgeOp>,
) -> CommitRecord {
    let new_nodes = (before.node_count()..after.node_count())
        .map(|id| {
            after
                .node_name(NodeId(id as u32))
                .unwrap_or_default()
                .to_owned()
        })
        .collect();
    let new_labels = (before.label_count()..after.label_count())
        .map(|id| {
            after
                .label_name(LabelId(id as u16))
                .unwrap_or_default()
                .to_owned()
        })
        .collect();
    CommitRecord {
        seq,
        new_nodes,
        new_labels,
        ops,
    }
}

/// The check every durable record passes — the checkpoint's base record and
/// each logged one — before a graph is built from it: its labels fit under
/// [`MAX_LABELS`], each name it carries interns to the next id of `vocab`
/// (which held `nodes` nodes and `labels` labels before it), and every op
/// names an interned node and label. Interns the names as it checks them.
pub(crate) fn check_record<V>(
    record: &CommitRecord,
    vocab: &mut V,
    (nodes, labels): (usize, usize),
    intern_node: fn(&mut V, &str) -> NodeId,
    intern_label: fn(&mut V, &str) -> LabelId,
) -> Result<(), String> {
    let node_count = nodes + record.new_nodes.len();
    let label_count = labels + record.new_labels.len();
    if label_count > MAX_LABELS {
        return Err(format!(
            "{label_count} labels exceed the cap of {MAX_LABELS}"
        ));
    }
    for (next, name) in (nodes..).zip(&record.new_nodes) {
        if intern_node(vocab, name).index() != next {
            return Err(format!("node name {name:?} is interned twice"));
        }
    }
    for (next, name) in (labels..).zip(&record.new_labels) {
        if intern_label(vocab, name).index() != next {
            return Err(format!("label name {name:?} is interned twice"));
        }
    }
    let uninterned = |op: &&EdgeOp| {
        op.src.index() >= node_count
            || op.dst.index() >= node_count
            || op.label.index() >= label_count
    };
    if let Some(op) = record.ops.iter().find(uninterned) {
        return Err(format!(
            "{op:?} names an id that was never interned \
             ({node_count} nodes, {label_count} labels)"
        ));
    }
    Ok(())
}

fn corrupt(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt checkpoint: {what}"),
    )
}

/// The base record of `graph` as of commit `seq`: every name new, every
/// edge an insert.
fn base_record(graph: &Graph, seq: u64) -> CommitRecord {
    let edges = graph
        .labels()
        .flat_map(|label| {
            graph
                .edges(label)
                .map(move |(src, dst)| EdgeOp::insert(src, label, dst))
        })
        .collect();
    commit_record(seq, &Graph::empty(), graph, edges)
}

/// Writes the checkpoint for `graph` as of commit `seq` to `path`,
/// atomically: the framed base record goes to a temp file, is synced, and
/// replaces the previous checkpoint by rename — a crash at any step leaves
/// either the old or the new checkpoint intact, never a torn one.
pub(crate) fn write_checkpoint(path: &Path, graph: &Graph, seq: u64) -> io::Result<()> {
    let framed = frame(&base_record(graph, seq).encode());

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
/// sequence number it covers. Fails on a missing file, a file that is not
/// one intact frame, a payload that is not a commit record, and a base
/// record that fails [`check_record`] or deletes an edge.
pub(crate) fn load_checkpoint(path: &Path) -> io::Result<(Graph, u64)> {
    let bytes = fs::read(path)?;
    let Frame::Intact(payload, []) = read_frame(&bytes) else {
        return Err(corrupt("the file is not one intact frame"));
    };
    let base = CommitRecord::decode(payload)?;
    let mut builder = GraphBuilder::with_capacity(base.ops.len());
    check_record(
        &base,
        &mut builder,
        (0, 0),
        GraphBuilder::add_node,
        GraphBuilder::add_label,
    )
    .map_err(corrupt)?;
    if let Some(op) = base.ops.iter().find(|op| !op.insert) {
        return Err(corrupt(format!("the base record deletes an edge: {op:?}")));
    }
    for op in &base.ops {
        builder.add_edge(op.src, op.label, op.dst);
    }
    Ok((builder.build(), base.seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_datagen::paper_example_graph;
    use pathix_graph::load_edge_list_str;

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

    /// `graph` through its checkpoint file and back.
    fn round_trip(graph: &Graph, tag: &str) -> Graph {
        let page = temp_path(tag);
        let ckpt = checkpoint_path(&page);
        write_checkpoint(&ckpt, graph, 5).unwrap();
        let (back, seq) = load_checkpoint(&ckpt).unwrap();
        assert_eq!(seq, 5);
        fs::remove_dir_all(page.parent().unwrap()).ok();
        back
    }

    #[test]
    fn the_base_record_preserves_structure() {
        let g = load_edge_list_str("ada knows jan\njan knows zoe\nzoe worksFor ada\n").unwrap();
        let base = base_record(&g, 5);
        assert_eq!((base.new_nodes.len(), base.new_labels.len()), (3, 2));
        assert_eq!(base.ops.len(), 3);
        assert!(base.ops.iter().all(|op| op.insert));
        let back = round_trip(&g, "structure");
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.label_count(), g.label_count());
        assert_eq!(base_record(&back, 5), base);
    }

    #[test]
    fn the_base_record_of_an_empty_graph_is_empty() {
        let base = base_record(&Graph::empty(), 5);
        assert_eq!(
            base,
            CommitRecord {
                seq: 5,
                ..CommitRecord::default()
            }
        );
        let back = round_trip(&Graph::empty(), "empty");
        assert_eq!((back.node_count(), back.label_count()), (0, 0));
        assert_eq!(back.edge_count(), 0);
    }

    #[test]
    fn the_base_record_preserves_ids() {
        // `b` is interned before `a`, so ids are not in name order.
        let g = load_edge_list_str("b x c\na x b\n").unwrap();
        let back = round_trip(&g, "ids");
        for name in ["a", "b", "c"] {
            assert_eq!(back.node_id(name), g.node_id(name));
        }
        assert_eq!(back.label_id("x"), g.label_id("x"));
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
