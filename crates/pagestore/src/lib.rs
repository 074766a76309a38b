//! # pathix-pagestore
//!
//! Disk-oriented storage for the k-path index: a page/disk-manager layer, a
//! clock-eviction buffer pool, a paged B+tree over slotted pages, delta/varint
//! compression of pair lists (the chunk encoding of the compressed backend),
//! and a paged variant of the k-path index.
//!
//! The EDBT 2016 paper prototypes `I_{G,k}` on PostgreSQL B+tree tables; its
//! companion work (reference \[14\]) builds the index from scratch and studies
//! *index size, compression and performance*. The in-memory
//! `pathix_index::SharedKPathIndex` answers the query-planning questions of
//! the paper itself; this crate answers the storage questions of that
//! companion study without leaving the repository:
//!
//! * how large is the index on disk as k grows ([`PagedPathIndex`]),
//! * how much does delta/varint compression of the pair sets save
//!   ([`CompressedPathStore`]: the in-memory index with every chunk
//!   [`Varint`]-encoded),
//! * how does a bounded buffer pool behave under index scans
//!   ([`BufferPool`] statistics).
//!
//! ```
//! use pathix_datagen::paper_example_graph;
//! use pathix_pagestore::PagedPathIndex;
//! use pathix_graph::SignedLabel;
//!
//! let g = paper_example_graph();
//! let index = PagedPathIndex::build_in_memory(&g, 2, 16).unwrap();
//! let knows = SignedLabel::forward(g.label_id("knows").unwrap());
//! assert!(!index.scan_path(&[knows]).unwrap().is_empty());
//! ```

pub mod btree;
pub mod buffer;
pub mod compressed;
pub mod disk;
pub mod fault;
pub mod page;
pub mod paged_index;
pub mod slotted;
pub mod varint;
pub mod wal;

pub use btree::{CowStats, PagedBTree, PagedRangeIter, PagedTreeStats, MAX_ENTRY_SIZE};
pub use buffer::{BufferPool, PoolStats};
pub use compressed::{CompressedPathStore, Varint};
pub use disk::{DiskManager, DiskStats};
pub use page::{PageBuf, PageId, PAGE_SIZE};
pub use paged_index::{PagedIndexStats, PagedPathIndex};
pub use wal::{CommitRecord, Wal, WalStats};
