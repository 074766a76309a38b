//! Kill-at-any-point crash-recovery harness for the durable on-disk writer.
//!
//! The write path of an on-disk [`PathDb`] performs a sequence of durable
//! operations per committed batch: a WAL append and sync of the commit
//! record, buffer-pool page writes and syncs during B+tree writeback, and —
//! on the checkpoint cadence — a checkpoint write/sync/rename plus a log
//! reset. Every one of those sites calls [`pathix_pagestore::fault::hit`];
//! this harness measures how many such operations a clean run performs, then
//! replays the run once per operation index with a fault armed there —
//! simulating a process killed at that exact point (and, as on a dead
//! machine, at every durable operation after it).
//!
//! After each simulated kill the database is reopened with [`PathDb::open`],
//! which replays the committed WAL records the crash left unapplied. The
//! recovered database must (a) pass the full structural audit, (b) answer a
//! fixed query card — all strategies — exactly like a never-crashed twin
//! that applied some **prefix** of the batch sequence (batches are atomic:
//! applied entirely or not at all), and (c) that prefix must cover at least
//! every batch the crashed run had acknowledged (an `Ok` from `apply` is a
//! durability promise). A second test kills *recovery itself* at every
//! durable operation and re-recovers; a third checks the recovered answers
//! against never-crashed twins on all four backends.
//!
//! The batch script includes name-based insertions so re-interning logged
//! names (the live vocabulary) is exercised on every path. A second script
//! runs the same kill trials on a graph with enough labels that the index's
//! per-path counts outgrow the page file's meta page, so every write of
//! their overflow pages is a kill site too. Run with
//! `PATHIX_AUDIT=1` to additionally audit after every replayed batch inside
//! `PathDb::open` (the CI recovery step does).

use pathix_core::{
    BackendChoice, GraphUpdate, PathDb, PathDbConfig, PathIndexBackend, QueryError, QueryOptions,
    Strategy,
};
use pathix_datagen::paper_example_graph;
use pathix_graph::{Graph, GraphBuilder};
use pathix_pagestore::fault;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

/// The fault registry is process-global: every test here arms it, so they
/// serialize on this lock.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// A per-trial scratch directory, removed on drop (even on panic).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pathix-walrec-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn on_disk(path: PathBuf) -> PathDbConfig {
    PathDbConfig::with_k(2)
        .with_backend(BackendChoice::OnDisk {
            path,
            pool_frames: 8,
        })
        // Small cadence so the run exercises checkpoint + truncate too.
        .with_wal_checkpoint_every(2)
}

/// The scripted update sequence. Every batch changes the answer card (so
/// prefixes are distinguishable), and batches 2 and 4 intern names that did
/// not exist at build time — the live vocabulary must survive the crash.
fn scripted_batches() -> Vec<Vec<GraphUpdate>> {
    vec![
        vec![GraphUpdate::insert_named("tim", "knows", "zoe")],
        vec![
            GraphUpdate::insert_named("zan", "mentors", "sue"),
            GraphUpdate::insert_named("zan", "knows", "tim"),
        ],
        vec![GraphUpdate::delete_named("kim", "supervisor", "liz")],
        vec![
            GraphUpdate::insert_named("ada", "mentors", "zan"),
            GraphUpdate::delete_named("zan", "knows", "tim"),
        ],
        vec![GraphUpdate::insert_named("jan", "knows", "zoe")],
    ]
}

const QUERIES: [&str; 4] = [
    "supervisor/worksFor-",
    "knows",
    "mentors/knows",
    "knows-/knows",
];

/// The full answer card of a database: every query × every strategy, as
/// sorted named pairs (names make the card id-assignment-independent; a
/// query whose labels are not in the vocabulary yet reads `unbound`).
fn answer_card(db: &PathDb) -> Vec<String> {
    answer_card_of(db, &QUERIES)
}

/// [`answer_card`] over `queries`.
fn answer_card_of(db: &PathDb, queries: &[&str]) -> Vec<String> {
    let mut card = Vec::new();
    for &query in queries {
        for strategy in Strategy::all() {
            match db.run(query, QueryOptions::with_strategy(strategy)) {
                Ok(result) => {
                    let mut named = result.named_pairs(db);
                    named.sort();
                    card.push(format!("{query} [{strategy}] {named:?}"));
                }
                Err(QueryError::Bind(_)) => card.push(format!("{query} [{strategy}] unbound")),
                Err(e) => panic!("query {query} [{strategy}] failed: {e}"),
            }
        }
    }
    card
}

/// Never-crashed twin on the memory backend that applied `prefix` batches.
fn memory_twin(batches: &[Vec<GraphUpdate>], prefix: usize) -> PathDb {
    memory_twin_of(paper_example_graph(), batches, prefix)
}

/// [`memory_twin`] over `base`.
fn memory_twin_of(base: Graph, batches: &[Vec<GraphUpdate>], prefix: usize) -> PathDb {
    let twin = PathDb::try_build(base, PathDbConfig::with_k(2)).unwrap();
    for batch in &batches[..prefix] {
        twin.apply(batch).unwrap();
    }
    twin
}

/// Applies batches until one fails (the simulated crash), returning how many
/// were acknowledged.
fn run_until_crash(db: &PathDb, batches: &[Vec<GraphUpdate>]) -> usize {
    let mut acknowledged = 0;
    for batch in batches {
        match db.apply(batch) {
            Ok(_) => acknowledged += 1,
            Err(_) => break,
        }
    }
    acknowledged
}

#[test]
fn kill_at_every_durable_operation_recovers_a_consistent_prefix() {
    let _serial = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    kill_at_every_durable_operation(paper_example_graph, &scripted_batches(), &QUERIES);
}

/// Three nodes and ten labels `l0`…`l9`, each with edges n0 → n1 and
/// n1 → n0 (every third also n1 → n2): each of the 20 + 20² signed label
/// paths of length ≤ 2 is non-empty, so the per-path counts (13 bytes a
/// path) need an overflow page past the meta page.
fn many_label_graph() -> Graph {
    let mut b = GraphBuilder::new();
    for label in 0..10 {
        let name = format!("l{label}");
        b.add_edge_named("n0", &name, "n1");
        b.add_edge_named("n1", &name, "n0");
        if label % 3 == 0 {
            b.add_edge_named("n1", &name, "n2");
        }
    }
    b.build()
}

#[test]
fn kill_at_every_durable_operation_recovers_counts_that_overflow_the_meta_page() {
    let _serial = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let db = PathDb::try_build(many_label_graph(), PathDbConfig::with_k(2)).unwrap();
    let rows = db.index().per_path_counts().len();
    assert!(rows >= 420, "{rows} paths fit the meta page");
    // A new node beside a deletion, then a new label beside an insertion.
    let batches = vec![
        vec![
            GraphUpdate::insert_named("new", "l1", "n1"),
            GraphUpdate::delete_named("n0", "l1", "n1"),
        ],
        vec![
            GraphUpdate::insert_named("n0", "l10", "n2"),
            GraphUpdate::insert_named("n2", "l0", "n0"),
        ],
    ];
    kill_at_every_durable_operation(many_label_graph, &batches, &["l0/l1", "l1", "l0-/l10"]);
}

/// Kills a run of `batches` over `base` at each of its durable operations in
/// turn; every reopened database must audit clean and answer `queries`
/// like a never-crashed twin that applied a prefix covering every
/// acknowledged batch and at most the one in flight.
fn kill_at_every_durable_operation(
    base: fn() -> Graph,
    batches: &[Vec<GraphUpdate>],
    queries: &[&str],
) {
    // Twin answer cards for every prefix — all distinct, or a kill trial
    // could silently match the wrong prefix.
    let twins: Vec<Vec<String>> = (0..=batches.len())
        .map(|prefix| answer_card_of(&memory_twin_of(base(), batches, prefix), queries))
        .collect();
    for a in 0..twins.len() {
        for b in a + 1..twins.len() {
            assert_ne!(twins[a], twins[b], "prefixes {a} and {b} are ambiguous");
        }
    }

    // Clean run: count the durable operations of the apply phase.
    let total_ops = {
        let dir = TempDir::new("count");
        let db = PathDb::try_build(base(), on_disk(dir.path("idx.pages"))).unwrap();
        fault::count_ops();
        for batch in batches {
            db.apply(batch).unwrap();
        }
        fault::disarm_count()
    };
    assert!(
        total_ops > batches.len() as u64 * 2,
        "suspiciously few durable operations: {total_ops}"
    );

    for op in 0..total_ops {
        let dir = TempDir::new(&format!("kill-{op}"));
        let path = dir.path("idx.pages");
        let db = PathDb::try_build(base(), on_disk(path.clone())).unwrap();
        fault::arm(op);
        let acknowledged = run_until_crash(&db, batches);
        // The crashed process performs no orderly shutdown: it is dropped
        // with the fault still armed, so even drop-time backstop flushes
        // fail, exactly as on a dead machine.
        drop(db);
        let fired = fault::disarm();

        let recovered = PathDb::open(on_disk(path))
            .unwrap_or_else(|e| panic!("open after kill at op {op} (site {fired:?}) failed: {e}"));
        let report = recovered.audit();
        assert!(
            report.is_clean(),
            "audit after kill at op {op} (site {fired:?}): {:?}",
            report.violations()
        );
        let card = answer_card_of(&recovered, queries);
        let Some(matched) = twins.iter().position(|t| *t == card) else {
            panic!("kill at op {op} (site {fired:?}): recovered state matches no prefix");
        };
        assert!(
            matched >= acknowledged,
            "kill at op {op} (site {fired:?}): {acknowledged} batches were acknowledged \
             but recovery reproduced only {matched}"
        );
        assert!(
            matched <= acknowledged + 1,
            "kill at op {op} (site {fired:?}): recovery invented batch {matched} \
             beyond the {acknowledged} acknowledged and the one in flight"
        );
        recovered.close().unwrap();
    }
}

/// Copies the durable state (page file, checkpoint, WAL directory) so a
/// dirty pre-recovery state can be restored and re-crashed.
fn copy_recursively(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_recursively(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
}

#[test]
fn recovery_itself_is_restartable_at_every_durable_operation() {
    let _serial = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let batches = scripted_batches();

    // Produce a dirty state with several batches committed to the log but
    // killed during writeback: the fault fires a few operations into the
    // run, and everything after the first firing fails too.
    let dirty = TempDir::new("dirty");
    {
        let db =
            PathDb::try_build(paper_example_graph(), on_disk(dirty.path("idx.pages"))).unwrap();
        fault::arm(7);
        run_until_crash(&db, &batches);
        drop(db);
        assert!(fault::disarm().is_some(), "the kill never fired");
    }

    // Reference recovery on a copy: count its durable operations and record
    // the answers it produces.
    let (recovery_ops, want) = {
        let scratch = TempDir::new("reference");
        copy_recursively(&dirty.0, &scratch.0);
        fault::count_ops();
        let recovered = PathDb::open(on_disk(scratch.path("idx.pages"))).unwrap();
        let ops = fault::disarm_count();
        (ops, answer_card(&recovered))
    };
    assert!(recovery_ops > 0, "recovery performed no durable operations");

    // Kill recovery at every durable operation, then recover again: the
    // second recovery must land in the same state the uninterrupted one did.
    for op in 0..recovery_ops {
        let scratch = TempDir::new(&format!("rerecover-{op}"));
        copy_recursively(&dirty.0, &scratch.0);
        let path = scratch.path("idx.pages");
        fault::arm(op);
        let attempt = PathDb::open(on_disk(path.clone()));
        drop(attempt);
        let fired = fault::disarm();
        assert!(fired.is_some(), "recovery op {op} never fired");

        let recovered = PathDb::open(on_disk(path)).unwrap_or_else(|e| {
            panic!("re-recovery after killing recovery at op {op} (site {fired:?}): {e}")
        });
        assert!(
            recovered.audit().is_clean(),
            "audit after re-recovery (killed at op {op}, site {fired:?})"
        );
        assert_eq!(
            answer_card(&recovered),
            want,
            "re-recovery diverged (killed at op {op}, site {fired:?})"
        );
    }
}

/// Readers that pinned a snapshot and opened cursors *before* the kill must
/// stream their full answers, bit for bit, while the write path dies under
/// them — and the database must still recover a consistent prefix
/// afterwards. Snapshots are immutable once published, so a dead writer is
/// invisible to a cursor already holding one.
#[test]
fn concurrent_readers_stream_bit_stable_answers_across_a_kill_and_reopen() {
    let _serial = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let batches = scripted_batches();
    let dir = TempDir::new("readers");
    let path = dir.path("idx.pages");
    let db = PathDb::try_build(paper_example_graph(), on_disk(path.clone())).unwrap();
    db.apply(&batches[0]).unwrap();
    let pinned_epoch = db.epoch();
    let prepared = db.prepare("knows").unwrap();
    let mut expected = prepared
        .cursor(&db, QueryOptions::new())
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    expected.sort_unstable();

    // Three parties rendezvous twice: once when every reader has opened its
    // cursor (so all cursors pin the pre-kill epoch), once when the kill has
    // happened (so the drain demonstrably crosses it).
    let barrier = Barrier::new(3);
    let mut acknowledged_tail = 0;
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (db, prepared, barrier, expected) = (&db, &prepared, &barrier, &expected);
                scope.spawn(move || {
                    let snapshot = db.snapshot();
                    let mut cursor = prepared.cursor(db, QueryOptions::new()).unwrap();
                    assert_eq!(cursor.epoch(), pinned_epoch);
                    let first = cursor
                        .next()
                        .map(|pair| pair.expect("cursor failed before the kill"));
                    barrier.wait();
                    barrier.wait();
                    // The writer is dead now; keep draining the same cursor.
                    let mut pairs: Vec<_> = first.into_iter().collect();
                    for pair in cursor {
                        pairs.push(pair.expect("cursor failed after the kill"));
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    pairs.sort_unstable();
                    assert_eq!(&pairs, expected, "answers drifted across the kill");
                    assert_eq!(snapshot.epoch(), pinned_epoch, "pinned snapshot moved");
                })
            })
            .collect();
        barrier.wait();
        // Kill at the WAL sync of the next batch: the writer dies before any
        // page writeback, so the readers' snapshot pages stay untouched.
        fault::arm(1);
        acknowledged_tail = run_until_crash(&db, &batches[1..]);
        barrier.wait();
        for reader in readers {
            reader.join().expect("a reader panicked");
        }
    });
    assert_eq!(acknowledged_tail, 0, "the armed fault should kill batch 1");

    // Fresh reads still serve off the last published snapshot even though
    // the write path is dead and the fault is still armed.
    let post = db.run("knows", QueryOptions::new()).unwrap();
    let mut post_pairs = post.pairs().to_vec();
    post_pairs.sort_unstable();
    assert_eq!(post_pairs, expected);

    drop(db);
    let fired = fault::disarm();
    assert!(fired.is_some(), "the kill never fired");

    let recovered = PathDb::open(on_disk(path)).unwrap();
    assert!(
        recovered.audit().is_clean(),
        "audit after the concurrent-reader kill"
    );
    let card = answer_card(&recovered);
    let matched = (0..=batches.len())
        .position(|p| answer_card(&memory_twin(&batches, p)) == card)
        .expect("recovered state matches no prefix of the batch script");
    assert!((1..=2).contains(&matched), "batch 0 was acknowledged");
    recovered.close().unwrap();
}

#[test]
fn recovered_database_matches_never_crashed_twins_on_every_backend() {
    let _serial = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let batches = scripted_batches();

    let dir = TempDir::new("twins");
    let path = dir.path("idx.pages");
    let db = PathDb::try_build(paper_example_graph(), on_disk(path.clone())).unwrap();
    // Kill mid-batch: a few durable operations in, the WAL commit of the
    // in-flight batch is durable but its page writeback is not.
    fault::arm(3);
    let acknowledged = run_until_crash(&db, &batches);
    drop(db);
    let fired = fault::disarm();
    assert!(fired.is_some(), "the kill never fired");

    let recovered = PathDb::open(on_disk(path)).unwrap();
    assert!(recovered.audit().is_clean());
    let card = answer_card(&recovered);

    // Identify the committed prefix, then demand the same answers from
    // never-crashed twins on all four backends, all strategies.
    let prefix = (0..=batches.len())
        .find(|&p| answer_card(&memory_twin(&batches, p)) == card)
        .expect("recovered state matches no prefix of the batch script");
    assert!(prefix >= acknowledged);

    let twin_dir = TempDir::new("twin-backends");
    let choices = vec![
        BackendChoice::Memory,
        BackendChoice::PagedInMemory { pool_frames: 8 },
        BackendChoice::OnDisk {
            path: twin_dir.path("twin.pages"),
            pool_frames: 8,
        },
        BackendChoice::Compressed,
    ];
    for choice in choices {
        let config = PathDbConfig::with_k(2).with_backend(choice.clone());
        let twin = PathDb::try_build(paper_example_graph(), config).unwrap();
        for batch in &batches[..prefix] {
            twin.apply(batch).unwrap();
        }
        assert_eq!(answer_card(&twin), card, "backend {choice:?}");
    }
}
