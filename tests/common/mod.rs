//! Shared by the integration suites that run one scenario on all four
//! backends.

use pathix::{BackendChoice, Graph, PathDb, PathDbConfig};
use std::path::PathBuf;

/// `graph` at k = 2 on each of the four backends, plus the scratch directory
/// holding the on-disk one (remove it when done). `tag` keeps the page files
/// of concurrently running tests apart.
pub fn on_every_backend(
    tag: &str,
    graph: &Graph,
    pool_frames: usize,
) -> (Vec<(&'static str, PathDb)>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pathix-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let choices = [
        ("memory", BackendChoice::Memory),
        ("paged", BackendChoice::PagedInMemory { pool_frames }),
        (
            "on-disk",
            BackendChoice::OnDisk {
                path: dir.join("index.pages"),
                pool_frames,
            },
        ),
        ("compressed", BackendChoice::Compressed),
    ];
    let dbs = choices
        .into_iter()
        .map(|(name, choice)| {
            let config = PathDbConfig::with_k(2).with_backend(choice);
            (name, PathDb::try_build(graph.clone(), config).unwrap())
        })
        .collect();
    (dbs, dir)
}
