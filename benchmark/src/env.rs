//! What the phases of one run share: the data set, the seed, a scratch
//! directory inside the checkout, and the tally of operations and failures.

use crate::inputs::{self, Dataset};
use crate::rng::{fnv1a, FNV_OFFSET};
use crate::sizing;
use crate::sut::{Pair, PathDb, QueryOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `benchmark/out` of the checkout the command runs in (the driver runs it
/// from the checkout's root), else next to the manifest it was built from.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// A directory for one run's databases, removed when the run ends.
#[derive(Debug)]
pub struct DataDir {
    root: PathBuf,
    next: std::cell::Cell<usize>,
}

impl DataDir {
    pub fn create() -> std::io::Result<DataDir> {
        let root = out_dir().join(format!("data-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(DataDir {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh directory holding nothing; databases put their page file,
    /// checkpoint and log inside.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir).expect("creating a database directory under benchmark/out");
        dir
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Bytes under a database directory, split the way the write path uses
/// them, without naming pathix's files: the page file is the file the
/// database was given, a checkpoint is any other regular file, and a log is
/// whatever sits in sub-directories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirUsage {
    pub page_file: u64,
    pub checkpoint: u64,
    pub log: u64,
}

impl DirUsage {
    pub fn of(dir: &Path, page_file: &Path) -> DirUsage {
        fn tree(dir: &Path) -> u64 {
            std::fs::read_dir(dir).map_or(0, |entries| {
                entries
                    .flatten()
                    .map(|e| match e.metadata() {
                        Ok(m) if m.is_dir() => tree(&e.path()),
                        Ok(m) => m.len(),
                        Err(_) => 0,
                    })
                    .sum()
            })
        }
        let mut usage = DirUsage::default();
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                usage.log += tree(&entry.path());
            } else if entry.path() == page_file {
                usage.page_file += meta.len();
            } else {
                usage.checkpoint += meta.len();
            }
        }
        usage
    }

    pub fn total(&self) -> u64 {
        self.page_file + self.checkpoint + self.log
    }
}

/// Operations tried and operations that failed — errors, sheds, deadline
/// aborts and answers failing verification alike.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, note: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        // Keep the first few reasons; a broken build fails thousands of ops.
        if self.notes.len() < 20 {
            self.notes.push(note.into());
        }
    }

    /// Counts one verification check.
    pub fn check(&mut self, holds: bool, note: impl FnOnce() -> String) {
        if holds {
            self.ok();
        } else {
            self.fail(note());
        }
    }
}

/// Everything the phases of one run share.
#[derive(Debug)]
pub struct Env {
    pub dataset: Dataset,
    pub scale: f64,
    pub seed: u64,
    pub data: DataDir,
}

impl Env {
    pub fn new(seed: u64, smoke: bool) -> std::io::Result<Env> {
        let scale = if smoke {
            sizing::SMOKE_SCALE
        } else {
            sizing::SCALE
        };
        Ok(Env {
            dataset: Dataset::generate(scale),
            scale,
            seed,
            data: DataDir::create()?,
        })
    }
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Fingerprint of an answer: equal answers hash equal.
pub fn hash_pairs(pairs: &[Pair]) -> u64 {
    pairs
        .iter()
        .fold(FNV_OFFSET ^ pairs.len() as u64, |h, (s, t)| {
            fnv1a(&t.0.to_le_bytes(), fnv1a(&s.0.to_le_bytes(), h))
        })
}

/// Untimed check that `db` answers A1–A6 exactly like `twin`, a database
/// known to hold the right state; `what` names `db` in a failure note.
pub fn check_against_twin(db: &PathDb, twin: &PathDb, what: &str, tally: &mut Tally) {
    for (name, text) in inputs::card().into_iter().take(6) {
        let answer = |db: &PathDb| {
            db.run(&text, QueryOptions::new())
                .map(|r| hash_pairs(r.pairs()))
        };
        match (answer(db), answer(twin)) {
            (Ok(a), Ok(b)) => {
                tally.check(a == b, || format!("{name}: {what} disagrees with its twin"))
            }
            (a, b) => tally.fail(format!("{name}: {:?} / {:?}", a.err(), b.err())),
        }
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
