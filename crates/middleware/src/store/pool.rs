//! The buffer pool: a page table swept by a CLOCK hand.
//!
//! A page number is a dense index into a file whose page count the
//! header knows, so the pool is one slot per page: the frame while the
//! page is resident, and a reference bit a hit sets. A lookup locks its
//! own slot and nothing else — no hash, no shared lock — so readers of
//! different pages never contend. A reader that holds a page across
//! calls (the sorted cursor) pins it with [`PagePool::get`], an `Arc`
//! clone; a probe reads the frame in place under the slot's lock with
//! [`PagePool::with_resident`] and counts its hit itself, so a warm probe
//! touches neither the frame's refcount nor the shared hit counter.
//!
//! The resident pages sit on one ring, the table in page order. An
//! insert that takes the pool past its capacity locks the CLOCK hand
//! (the hand's mutex before any slot's) and sweeps: a referenced frame
//! loses its bit and stays, a *pinned* frame — one whose `Arc` a reader
//! still holds — stays, and the first frame that is neither is evicted.
//! So a page a cursor is decoding is never yanked out from under it.
//! A sweep gives up after two passes over the ring: if every frame is
//! pinned the pool stays over capacity until a pin drops, and the next
//! insert brings it back. The hand passes an empty slot by reading one
//! flag, so a sweep costs a flag per page it passes; the full two
//! passes are paid only while readers pin more frames than the pool
//! holds.
//!
//! Lock order: the hand before any slot, and never two slots at once.
//! Under a slot's lock a reader may take the store's error slot, a leaf
//! that takes nothing while it is held.
//!
//! Storage reads happen outside every lock (the caller reads, then
//! [`PagePool::insert`]s), so a slow disk never serializes unrelated
//! pages. Two cursors on different threads (requests under
//! `Engine::run_many`) missing the same page concurrently may both
//! read it — a benign duplicated read, counted twice, which is exactly
//! what happened physically; on one thread each miss is one read.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::stats::PageIoStats;

/// One page frame: immutable page bytes shared with readers.
pub(crate) type Frame = Arc<[u8]>;

/// One page's place in the table.
#[derive(Debug, Default)]
struct Slot {
    frame: Mutex<Option<Frame>>,
    /// Whether `frame` holds a page. Written under the slot's lock; the
    /// hand reads it without, to pass an empty slot cheaply.
    resident: AtomicBool,
    /// Set by a hit, cleared by the passing hand.
    referenced: AtomicBool,
}

/// A page table of frames with a CLOCK hand, pin-aware eviction and
/// cumulative hit/read/eviction counters.
#[derive(Debug)]
pub(crate) struct PagePool {
    /// Frames the pool holds once no reader pins more.
    capacity: usize,
    /// One slot per page of the file; none when caching is disabled.
    slots: Box<[Slot]>,
    /// The slot the sweep looks at next.
    hand: Mutex<usize>,
    /// Frames in the table.
    resident: AtomicUsize,
    /// Pages actually read from storage (misses the caller resolved).
    reads: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl PagePool {
    /// A pool of `capacity` frames over a file of `pages` pages
    /// (capacity 0 disables caching — every access reads storage — and
    /// allocates no table).
    pub(crate) fn new(capacity: usize, pages: u64) -> PagePool {
        let slots = if capacity == 0 { 0 } else { pages as usize };
        PagePool {
            capacity,
            slots: (0..slots).map(|_| Slot::default()).collect(),
            hand: Mutex::new(0),
            resident: AtomicUsize::new(0),
            reads: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks a page up and pins it, counting a hit (a miss is counted
    /// as the read that resolves it, by [`PagePool::insert`]).
    pub(crate) fn get(&self, page: u64) -> Option<Frame> {
        let slot = self.slots.get(page as usize)?;
        let frame = Arc::clone(lock(&slot.frame).as_ref()?);
        // ordering(Relaxed): the reference bit is a replacement hint and
        // the hit counter telemetry; the frame was handed over under the
        // slot's lock.
        slot.referenced.store(true, Relaxed);
        // ordering(Relaxed): telemetry-only hit counter.
        self.hits.fetch_add(1, Relaxed);
        Some(frame)
    }

    /// Runs `read` on page `page`'s frame under the slot's lock, when
    /// the page is resident, and sets its reference bit: a lookup that
    /// neither clones the frame nor counts the hit. The caller counts it
    /// and hands the count back through [`PagePool::add_hits`]. `read`
    /// runs under the slot's mutex, so it must take no lock but a leaf
    /// (the store's error slot), and no other slot's.
    #[inline]
    pub(crate) fn with_resident<R>(&self, page: u64, read: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let slot = self.slots.get(page as usize)?;
        let held = lock(&slot.frame);
        let frame = held.as_deref()?;
        // ordering(Relaxed): the reference bit is a replacement hint; the
        // frame is read under the slot's lock.
        slot.referenced.store(true, Relaxed);
        Some(read(frame))
    }

    /// Adds `hits` lookups a reader served through
    /// [`PagePool::with_resident`] and counted itself.
    pub(crate) fn add_hits(&self, hits: u64) {
        if hits > 0 {
            // ordering(Relaxed): telemetry-only hit counter.
            self.hits.fetch_add(hits, Relaxed);
        }
    }

    /// Installs a freshly read page, reference bit clear, and counts
    /// the storage read that produced it. Past capacity, the hand
    /// sweeps until the pool is back at capacity or every frame it met
    /// in two passes was pinned.
    pub(crate) fn insert(&self, page: u64, frame: Frame) {
        // ordering(Relaxed): telemetry-only read counter — nothing
        // branches on it; the frame itself is published by the slot lock.
        self.reads.fetch_add(1, Relaxed);
        let Some(slot) = self.slots.get(page as usize) else {
            return;
        };
        let past_capacity = {
            let mut held = lock(&slot.frame);
            if held.is_some() {
                // Another thread read the same page first.
                return;
            }
            *held = Some(frame);
            // ordering(Relaxed): a hint the hand re-checks under this lock.
            slot.resident.store(true, Relaxed);
            // ordering(Relaxed): counted before the slot's lock is let
            // go, so no eviction of this frame can count first; the
            // count only decides whether to sweep, and the sweep runs
            // under the hand's lock.
            self.resident.fetch_add(1, Relaxed) >= self.capacity
        };
        if !past_capacity {
            return;
        }
        let mut hand = lock(&self.hand);
        for _ in 0..2 * self.slots.len() {
            // ordering(Relaxed): as above — the hand's lock orders the sweeps.
            if self.resident.load(Relaxed) <= self.capacity {
                break;
            }
            let slot = &self.slots[*hand];
            *hand = if *hand + 1 == self.slots.len() {
                0
            } else {
                *hand + 1
            };
            // ordering(Relaxed): both bits are hints; the lock below
            // decides.
            if !slot.resident.load(Relaxed) || slot.referenced.swap(false, Relaxed) {
                continue;
            }
            let mut held = lock(&slot.frame);
            // The slot's lock stops new readers, so a count of one is
            // the pool's own reference: no cursor holds the frame.
            if held.as_ref().is_some_and(|f| Arc::strong_count(f) == 1) {
                *held = None;
                // ordering(Relaxed): the hint and the counters, all
                // written under the hand's lock.
                slot.resident.store(false, Relaxed);
                // ordering(Relaxed): see above.
                self.resident.fetch_sub(1, Relaxed);
                // ordering(Relaxed): telemetry-only eviction counter.
                self.evictions.fetch_add(1, Relaxed);
            }
        }
    }

    /// Cumulative pool counters. Each is read on its own, so under
    /// concurrent traffic the snapshot is per-counter consistent; the
    /// counters are monotone between [`PagePool::clear`] calls.
    pub(crate) fn stats(&self) -> PageIoStats {
        // ordering(Relaxed): report-time reads of the telemetry
        // counters; a slightly stale value is acceptable.
        let load = |counter: &AtomicU64| counter.load(Relaxed);
        // `skipped` is a drain-level notion (pages never requested at
        // all), so the store tracks it outside the pool and folds it in.
        PageIoStats {
            reads: load(&self.reads),
            hits: load(&self.hits),
            evictions: load(&self.evictions),
            skipped: 0,
        }
    }

    /// Frames currently resident.
    pub(crate) fn resident(&self) -> usize {
        // ordering(Relaxed): a report-time read.
        self.resident.load(Relaxed)
    }

    /// Drops every frame **and** resets the counters — how benchmarks
    /// return to a cold pool without reopening the file.
    pub(crate) fn clear(&self) {
        let _hand = lock(&self.hand);
        for slot in &self.slots {
            if lock(&slot.frame).take().is_some() {
                // ordering(Relaxed): written under the hand's lock, as
                // every eviction is.
                self.resident.fetch_sub(1, Relaxed);
            }
            // ordering(Relaxed): hints, re-checked under the slot lock.
            slot.resident.store(false, Relaxed);
            // ordering(Relaxed): see above.
            slot.referenced.store(false, Relaxed);
        }
        for counter in [&self.reads, &self.hits, &self.evictions] {
            // ordering(Relaxed): resetting a telemetry counter — readers
            // only ever report it, never branch on it.
            counter.store(0, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_hits_reads_and_evictions() {
        let pool = PagePool::new(8, 100);
        assert!(pool.get(0).is_none());
        pool.insert(0, Arc::from([0u8; 16]));
        assert!(pool.get(0).is_some());
        let s = pool.stats();
        assert_eq!((s.reads, s.hits), (1, 1));

        for p in 1..100 {
            pool.insert(p, Arc::from([0u8; 16]));
        }
        assert!(pool.stats().evictions > 0);
        assert!(pool.resident() <= 8, "the pool holds its capacity");
    }

    #[test]
    fn pinned_frames_survive_pressure() {
        let pool = PagePool::new(8, 200);
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
    fn a_hit_buys_a_second_chance() {
        let pool = PagePool::new(2, 3);
        pool.insert(0, Arc::from([]));
        pool.insert(1, Arc::from([]));
        let _ = pool.get(0);
        pool.insert(2, Arc::from([]));
        assert_eq!(pool.stats().evictions, 1);
        assert!(pool.get(1).is_none(), "the unreferenced page goes");
        assert!(pool.get(0).is_some(), "the referenced page stays");
    }

    #[test]
    fn a_read_in_place_buys_a_second_chance_and_counts_nothing() {
        let pool = PagePool::new(2, 3);
        pool.insert(0, Arc::from([5u8]));
        pool.insert(1, Arc::from([]));
        assert_eq!(pool.with_resident(0, |frame| frame.to_vec()), Some(vec![5]));
        assert_eq!(pool.with_resident(2, <[u8]>::len), None, "not resident");
        assert_eq!(pool.stats().hits, 0, "the reader counts its own hits");
        pool.add_hits(1);
        assert_eq!(pool.stats().hits, 1);
        pool.insert(2, Arc::from([]));
        assert!(
            pool.with_resident(1, |_| ()).is_none(),
            "the unread page goes"
        );
        assert!(
            pool.with_resident(0, |_| ()).is_some(),
            "the read page stays"
        );
    }

    #[test]
    fn clear_resets_everything() {
        let pool = PagePool::new(4, 1);
        pool.insert(0, Arc::from([]));
        let _ = pool.get(0);
        pool.clear();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.stats(), PageIoStats::ZERO);
    }

    #[test]
    fn zero_capacity_pool_never_caches() {
        let pool = PagePool::new(0, 1);
        pool.insert(0, Arc::from([]));
        assert!(pool.get(0).is_none());
        assert_eq!(pool.stats().reads, 1, "the read still happened");
    }
}
