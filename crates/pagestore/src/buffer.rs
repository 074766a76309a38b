//! Buffer pool: a fixed set of in-memory frames caching disk pages.
//!
//! Every page access made by the paged B+tree goes through
//! [`BufferPool::with_page`] / [`BufferPool::with_page_mut`]. The pool keeps
//! at most `capacity` pages resident, evicting with the **clock** (second
//! chance) policy, writes back dirty pages on eviction and on
//! [`BufferPool::flush_all`], and counts hits, misses and evictions so the
//! benchmark harness can report the I/O behaviour of cold vs. warm index
//! scans.
//!
//! The pool is internally synchronized with a [`std::sync::Mutex`], so a
//! shared reference can be used from several threads (the parallel query
//! executor scans disjuncts concurrently).

use crate::disk::{DiskManager, DiskStats};
use crate::page::{PageId, PAGE_SIZE};
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

/// Cache-behaviour counters of a [`BufferPool`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that required a disk read.
    pub misses: u64,
    /// Frames written back and reused for another page.
    pub evictions: u64,
    /// Dirty pages written back to disk (on eviction or flush).
    pub write_backs: u64,
    /// Pages loaded speculatively by [`BufferPool::prefetch`] before any
    /// request touched them (not counted as hits or misses).
    pub read_ahead_pages: u64,
}

#[derive(Debug)]
struct Frame {
    page: Option<PageId>,
    data: Box<[u8]>,
    dirty: bool,
    referenced: bool,
}

impl Frame {
    fn empty() -> Self {
        Frame {
            page: None,
            data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            dirty: false,
            referenced: false,
        }
    }
}

#[derive(Debug)]
struct PoolInner {
    disk: DiskManager,
    frames: Vec<Frame>,
    /// Maps a resident page id to its frame index.
    table: HashMap<u32, usize>,
    clock_hand: usize,
    stats: PoolStats,
}

/// A clock-eviction buffer pool over a [`DiskManager`].
///
/// Cloning is cheap: clones share the frames, the page table and the backing
/// store (the pool is a handle to one `Arc`'d interior). This is what lets a
/// mutable paged index and the read snapshots published from it serve the
/// same pages.
#[derive(Debug, Clone)]
pub struct BufferPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl BufferPool {
    /// Locks the pool, recovering the guard if a panicking thread poisoned
    /// the mutex (the pool's state is a cache and stays structurally valid).
    fn locked(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Creates a pool with room for `capacity` resident pages (minimum 2:
    /// the B+tree meta page plus one data page).
    pub fn new(disk: DiskManager, capacity: usize) -> Self {
        let capacity = capacity.max(2);
        BufferPool {
            inner: Arc::new(Mutex::new(PoolInner {
                disk,
                frames: (0..capacity).map(|_| Frame::empty()).collect(),
                table: HashMap::with_capacity(capacity),
                clock_hand: 0,
                stats: PoolStats::default(),
            })),
        }
    }

    /// Convenience constructor: in-memory disk, `capacity` frames.
    pub fn in_memory(capacity: usize) -> Self {
        Self::new(DiskManager::in_memory(), capacity)
    }

    /// Number of frames in the pool.
    pub fn capacity(&self) -> usize {
        self.locked().frames.len()
    }

    /// Number of pages allocated on the underlying disk.
    pub fn num_pages(&self) -> u32 {
        self.locked().disk.num_pages()
    }

    /// Size of the backing store in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.locked().disk.size_bytes()
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.locked().stats
    }

    /// Physical I/O statistics of the underlying disk manager.
    pub fn disk_stats(&self) -> DiskStats {
        self.locked().disk.stats()
    }

    /// Resets the hit/miss/eviction counters (the disk counters are kept).
    pub fn reset_stats(&self) {
        self.locked().stats = PoolStats::default();
    }

    /// Allocates a fresh page on disk and caches it (zero-filled, dirty).
    pub fn allocate_page(&self) -> io::Result<PageId> {
        let mut inner = self.locked();
        let pid = inner.disk.allocate()?;
        inner.install_blank(pid)?;
        Ok(pid)
    }

    /// Caches the existing page `pid` zero-filled and dirty without reading
    /// it from disk: for a caller that rewrites the whole page, such as a
    /// B+tree recycling a free page.
    pub fn reuse_page(&self, pid: PageId) -> io::Result<()> {
        self.locked().install_blank(pid)
    }

    /// Runs `f` over an immutable view of page `pid`.
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> io::Result<R> {
        let mut inner = self.locked();
        let frame_idx = inner.load_frame(pid)?;
        let frame = &mut inner.frames[frame_idx];
        frame.referenced = true;
        Ok(f(&frame.data))
    }

    /// Runs `f` over a mutable view of page `pid` and marks the page dirty.
    pub fn with_page_mut<R>(&self, pid: PageId, f: impl FnOnce(&mut [u8]) -> R) -> io::Result<R> {
        let mut inner = self.locked();
        let frame_idx = inner.load_frame(pid)?;
        let frame = &mut inner.frames[frame_idx];
        frame.referenced = true;
        frame.dirty = true;
        Ok(f(&mut frame.data))
    }

    /// Best-effort read-ahead: loads the given pages into frames so an
    /// imminent sequential scan finds them resident.
    ///
    /// Already-resident pages are left untouched (their reference bits are
    /// not set, so prefetching never delays their eviction). At most
    /// `capacity - 2` pages are prefetched per call so speculative loads
    /// cannot sweep the working set out of a small pool. Read errors are
    /// swallowed — the demand read will surface them — and the affected
    /// mapping is uninstalled so no frame caches garbage.
    pub fn prefetch(&self, pids: &[PageId]) {
        let mut inner = self.locked();
        let budget = inner.frames.len().saturating_sub(2);
        for &pid in pids.iter().take(budget) {
            if inner.table.contains_key(&pid.0) {
                continue;
            }
            let Ok(idx) = inner.acquire_frame(pid) else {
                continue;
            };
            let mut data = std::mem::take(&mut inner.frames[idx].data);
            let res = inner.disk.read_page(pid, &mut data);
            inner.frames[idx].data = data;
            if res.is_ok() {
                inner.stats.read_ahead_pages += 1;
            } else {
                // Leave no mapping to uninitialized frame contents.
                inner.frames[idx].page = None;
                inner.table.remove(&pid.0);
            }
        }
    }

    /// Writes every dirty resident page back to disk and syncs the file.
    pub fn flush_all(&self) -> io::Result<()> {
        let mut inner = self.locked();
        for idx in 0..inner.frames.len() {
            inner.write_back(idx)?;
        }
        inner.disk.sync()
    }
}

impl PoolInner {
    /// Ensures `pid` is resident, reading it from disk if needed, and returns
    /// its frame index.
    fn load_frame(&mut self, pid: PageId) -> io::Result<usize> {
        if let Some(&idx) = self.table.get(&pid.0) {
            self.stats.hits += 1;
            return Ok(idx);
        }
        self.stats.misses += 1;
        let idx = self.acquire_frame(pid)?;
        let frame = &mut self.frames[idx];
        self.disk.read_page(pid, &mut frame.data)?;
        Ok(idx)
    }

    /// Finds a frame for `pid` (evicting if necessary) and installs the
    /// mapping. The frame's *contents* are left to the caller.
    fn acquire_frame(&mut self, pid: PageId) -> io::Result<usize> {
        if let Some(&idx) = self.table.get(&pid.0) {
            return Ok(idx);
        }
        // Prefer an empty frame.
        if let Some(idx) = self.frames.iter().position(|f| f.page.is_none()) {
            self.install(idx, pid);
            return Ok(idx);
        }
        // Clock sweep: skip recently-referenced frames once, evict the first
        // frame whose reference bit is already clear.
        let n = self.frames.len();
        let victim = loop {
            let idx = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % n;
            if self.frames[idx].referenced {
                self.frames[idx].referenced = false;
            } else {
                break idx;
            }
        };
        self.write_back(victim)?;
        self.stats.evictions += 1;
        if let Some(old) = self.frames[victim].page {
            self.table.remove(&old.0);
        }
        self.install(victim, pid);
        Ok(victim)
    }

    /// Maps `pid` to a frame holding zeros, marked dirty and referenced.
    fn install_blank(&mut self, pid: PageId) -> io::Result<()> {
        let frame_idx = self.acquire_frame(pid)?;
        let frame = &mut self.frames[frame_idx];
        frame.data.fill(0);
        frame.dirty = true;
        frame.referenced = true;
        Ok(())
    }

    fn install(&mut self, idx: usize, pid: PageId) {
        self.frames[idx].page = Some(pid);
        self.frames[idx].dirty = false;
        self.frames[idx].referenced = false;
        self.table.insert(pid.0, idx);
    }

    /// Writes frame `idx` back to disk if it is dirty.
    fn write_back(&mut self, idx: usize) -> io::Result<()> {
        if self.frames[idx].dirty {
            if let Some(pid) = self.frames[idx].page {
                self.stats.write_backs += 1;
                let data = std::mem::take(&mut self.frames[idx].data);
                let res = self.disk.write_page(pid, &data);
                self.frames[idx].data = data;
                res?;
                self.frames[idx].dirty = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{get_u32, put_u32};

    #[test]
    fn pages_survive_eviction_pressure() {
        // 3 frames, 16 pages: every page gets its id written at offset 0 and
        // must read back correctly despite constant eviction.
        let pool = BufferPool::in_memory(3);
        let mut pids = Vec::new();
        for i in 0..16u32 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| put_u32(p, 0, i * 7 + 1))
                .unwrap();
            pids.push(pid);
        }
        for (i, pid) in pids.iter().enumerate() {
            let v = pool.with_page(*pid, |p| get_u32(p, 0)).unwrap();
            assert_eq!(v, i as u32 * 7 + 1, "page {pid}");
        }
        let stats = pool.stats();
        assert!(stats.evictions > 0, "expected evictions with 3 frames");
        assert!(stats.write_backs > 0);
        assert!(stats.misses > 0);
    }

    #[test]
    fn repeated_access_hits_the_cache() {
        let pool = BufferPool::in_memory(4);
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |p| put_u32(p, 8, 99)).unwrap();
        pool.reset_stats();
        for _ in 0..10 {
            let v = pool.with_page(pid, |p| get_u32(p, 8)).unwrap();
            assert_eq!(v, 99);
        }
        let stats = pool.stats();
        assert_eq!(stats.hits, 10);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn prefetch_loads_evicted_pages_back_without_demand_traffic() {
        let pool = BufferPool::in_memory(8);
        let mut pids = Vec::new();
        for i in 0..20u32 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| put_u32(p, 0, i + 1)).unwrap();
            pids.push(pid);
        }
        // The earliest pages have been swept out by now.
        pool.reset_stats();
        pool.prefetch(&pids[0..4]);
        let stats = pool.stats();
        assert_eq!(stats.read_ahead_pages, 4);
        assert_eq!(stats.misses, 0, "prefetch must not count as demand misses");
        assert_eq!(stats.hits, 0);
        for (i, pid) in pids[0..4].iter().enumerate() {
            let v = pool.with_page(*pid, |p| get_u32(p, 0)).unwrap();
            assert_eq!(v, i as u32 + 1);
        }
        assert_eq!(pool.stats().hits, 4, "prefetched pages must be resident");
        // Prefetching resident pages is a no-op.
        pool.prefetch(&pids[0..4]);
        assert_eq!(pool.stats().read_ahead_pages, 4);
    }

    #[test]
    fn flush_all_persists_dirty_pages_to_disk() {
        let dir = std::env::temp_dir().join(format!("pathix-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flush.pages");
        {
            let pool = BufferPool::new(DiskManager::create(&path).unwrap(), 4);
            let pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| put_u32(p, 100, 0xC0FFEE))
                .unwrap();
            pool.flush_all().unwrap();
        }
        {
            let pool = BufferPool::new(DiskManager::open(&path).unwrap(), 4);
            let v = pool.with_page(PageId(0), |p| get_u32(p, 100)).unwrap();
            assert_eq!(v, 0xC0FFEE);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_reused_page_is_blank_and_dirty_without_a_disk_read() {
        let pool = BufferPool::in_memory(2);
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |p| put_u32(p, 0, 7)).unwrap();
        // Two more pages push `pid` out of the pool and onto the disk.
        pool.allocate_page().unwrap();
        pool.allocate_page().unwrap();
        pool.reset_stats();
        pool.reuse_page(pid).unwrap();
        assert_eq!(pool.with_page(pid, |p| get_u32(p, 0)).unwrap(), 0);
        let stats = pool.stats();
        assert_eq!((stats.misses, stats.hits), (0, 1), "{stats:?}");
        // The blank page replaces the old bytes on disk.
        pool.flush_all().unwrap();
        pool.allocate_page().unwrap();
        pool.allocate_page().unwrap();
        assert_eq!(pool.with_page(pid, |p| get_u32(p, 0)).unwrap(), 0);
    }

    #[test]
    fn minimum_capacity_is_enforced() {
        let pool = BufferPool::in_memory(0);
        assert_eq!(pool.capacity(), 2);
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        let c = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |p| put_u32(p, 0, 1)).unwrap();
        pool.with_page_mut(b, |p| put_u32(p, 0, 2)).unwrap();
        pool.with_page_mut(c, |p| put_u32(p, 0, 3)).unwrap();
        assert_eq!(pool.with_page(a, |p| get_u32(p, 0)).unwrap(), 1);
        assert_eq!(pool.with_page(b, |p| get_u32(p, 0)).unwrap(), 2);
        assert_eq!(pool.with_page(c, |p| get_u32(p, 0)).unwrap(), 3);
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let pool = Arc::new(BufferPool::in_memory(8));
        let mut pids = Vec::new();
        for i in 0..8u32 {
            let pid = pool.allocate_page().unwrap();
            pool.with_page_mut(pid, |p| put_u32(p, 0, i)).unwrap();
            pids.push(pid);
        }
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let pids = pids.clone();
                std::thread::spawn(move || {
                    for (i, pid) in pids.iter().enumerate() {
                        let v = pool.with_page(*pid, |p| get_u32(p, 0)).unwrap();
                        assert_eq!(v, i as u32);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
