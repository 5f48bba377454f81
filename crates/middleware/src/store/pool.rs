//! The buffer pool: lock-striped LRU page frames with pin counts.
//!
//! `N` independent LRU segments ([`LruCore`]) behind their own
//! mutexes, selected by page-number hash, each counting hits and
//! evictions — a single mutex would serialize every page lookup of
//! every concurrent cursor. Frames are `Arc<[u8]>` (one allocation
//! each); a frame whose `Arc` is still held by a
//! reader is *pinned* — the eviction loop refreshes it instead of
//! dropping it, so a page a cursor is decoding can never be yanked out
//! from under it (the pool temporarily exceeds capacity if every frame
//! is pinned).
//!
//! Actual storage reads happen *outside* the stripe locks (the caller
//! reads, then [`PagePool::insert`]s), so a slow disk never serializes
//! unrelated pages. Two cursors on different threads (requests under
//! `Engine::run_many`) missing the same page concurrently may both
//! read it — a benign duplicated read, counted twice, which is exactly
//! what happened physically; on one thread each miss is one read.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};

use crate::lru::LruCore;
use crate::stats::PageIoStats;

/// One page frame: immutable page bytes shared with readers.
pub(crate) type Frame = Arc<[u8]>;

/// Number of independent LRU segments.
const POOL_STRIPES: usize = 8;

/// A lock-striped LRU pool of page frames with pin-aware eviction and
/// cumulative hit/read/eviction counters.
#[derive(Debug)]
pub(crate) struct PagePool {
    stripes: Vec<Mutex<LruCore<u64, Frame>>>,
    /// Pages actually read from storage (misses the caller resolved).
    reads: AtomicU64,
}

impl PagePool {
    /// A pool holding at least `capacity` frames across
    /// [`POOL_STRIPES`] segments (0 disables caching — every access
    /// reads storage).
    pub(crate) fn new(capacity: usize) -> PagePool {
        let per = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(POOL_STRIPES)
        };
        PagePool {
            stripes: (0..POOL_STRIPES)
                .map(|_| Mutex::new(LruCore::new(per)))
                .collect(),
            reads: AtomicU64::new(0),
        }
    }

    fn stripe(&self, page: u64) -> &Mutex<LruCore<u64, Frame>> {
        let h = page.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.stripes[(h >> 32) as usize % self.stripes.len()]
    }

    fn lock(stripe: &Mutex<LruCore<u64, Frame>>) -> std::sync::MutexGuard<'_, LruCore<u64, Frame>> {
        stripe.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks a page up, counting a hit (a miss is counted as the read
    /// that resolves it, by [`PagePool::insert`]).
    pub(crate) fn get(&self, page: u64) -> Option<Frame> {
        Self::lock(self.stripe(page)).get(page)
    }

    /// Installs a freshly read page, evicting unpinned LRU frames
    /// beyond capacity, and counts the storage read that produced it.
    pub(crate) fn insert(&self, page: u64, frame: Frame) {
        // ordering(Relaxed): telemetry-only read counter — nothing
        // branches on it; the frame itself is published by the stripe lock.
        self.reads.fetch_add(1, Relaxed);
        Self::lock(self.stripe(page)).insert_with(page, frame, |f| Arc::strong_count(f) > 1);
    }

    /// Cumulative pool counters. The stripes are locked one at a time,
    /// so under concurrent traffic the sums are a per-stripe-consistent
    /// snapshot, not a global linearization; the counters are monotone
    /// between [`PagePool::clear`] calls, which brackets any snapshot
    /// by the true counts at the first and last stripe lock.
    pub(crate) fn stats(&self) -> PageIoStats {
        let (hits, evictions) = self.stripes.iter().fold((0, 0), |(h, e), s| {
            let guard = Self::lock(s);
            (h + guard.hits(), e + guard.evictions())
        });
        // `skipped` is a drain-level notion (pages never requested at
        // all), so the store tracks it outside the pool and folds it in.
        PageIoStats {
            // ordering(Relaxed): report-time read of the telemetry
            // counter; a slightly stale value is acceptable.
            reads: self.reads.load(Relaxed),
            hits,
            evictions,
            skipped: 0,
        }
    }

    /// Frames currently resident.
    pub(crate) fn resident(&self) -> usize {
        self.stripes.iter().map(|s| Self::lock(s).len()).sum()
    }

    /// Drops every frame **and** resets the counters — how benchmarks
    /// return to a cold pool without reopening the file.
    pub(crate) fn clear(&self) {
        for s in &self.stripes {
            Self::lock(s).clear();
        }
        // ordering(Relaxed): resetting the telemetry counter — readers
        // only ever report it, never branch on it.
        self.reads.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_hits_reads_and_evictions() {
        let pool = PagePool::new(8);
        assert!(pool.get(0).is_none());
        pool.insert(0, Arc::from([0u8; 16]));
        assert!(pool.get(0).is_some());
        let s = pool.stats();
        assert_eq!((s.reads, s.hits), (1, 1));

        for p in 1..100 {
            pool.insert(p, Arc::from([0u8; 16]));
        }
        assert!(pool.stats().evictions > 0);
        assert!(pool.resident() <= 16, "capacity is per-stripe rounded up");
    }

    #[test]
    fn pinned_frames_survive_pressure() {
        let pool = PagePool::new(8);
        pool.insert(0, Arc::from([7u8; 16]));
        let pinned = pool.get(0).expect("just inserted");
        for p in 1..200 {
            pool.insert(p, Arc::from([0u8; 16]));
        }
        assert!(
            pool.get(0).is_some(),
            "a frame with a live reader must not be evicted"
        );
        drop(pinned);
    }

    #[test]
    fn clear_resets_everything() {
        let pool = PagePool::new(4);
        pool.insert(0, Arc::from([]));
        let _ = pool.get(0);
        pool.clear();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.stats(), PageIoStats::ZERO);
    }

    #[test]
    fn zero_capacity_pool_never_caches() {
        let pool = PagePool::new(0);
        pool.insert(0, Arc::from([]));
        assert!(pool.get(0).is_none());
        assert_eq!(pool.stats().reads, 1, "the read still happened");
    }
}
