//! A generic bounded LRU map with lazy-deletion recency tracking: the
//! replacement machinery under the page frames of the paged store's
//! buffer pool ([`crate::store`]), its one user.
//!
//! The core keeps two cumulative counters — hits and evictions — and
//! supports *pinned* entries: an entry the caller's `retain` predicate
//! claims is still in use is skipped (and refreshed) at eviction time,
//! the way a buffer pool must never drop a page a reader still holds.
//!
//! Recency is tracked by lazy deletion: every touch pushes a
//! `(key, stamp)` pair onto a queue, and only a queue entry carrying
//! the key's *current* stamp represents its true recency; stale pairs
//! are discarded when popped. The queue is rebuilt from live entries
//! when stale pairs dominate.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A bounded LRU map: `capacity` entries, hit and eviction counters,
/// and pin-aware eviction. Not thread-safe — the store's buffer pool
/// keeps one per stripe, each behind its own mutex.
#[derive(Debug)]
pub(crate) struct LruCore<K, V> {
    capacity: usize,
    /// key → (value, last-use stamp).
    entries: HashMap<K, (V, u64)>,
    /// Recency queue with lazy deletion: stale stamps are skipped at
    /// eviction time.
    queue: VecDeque<(K, u64)>,
    tick: u64,
    hits: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Copy, V: Clone> LruCore<K, V> {
    /// Creates a map holding at most `capacity` entries (0 disables
    /// insertion entirely).
    pub(crate) fn new(capacity: usize) -> LruCore<K, V> {
        LruCore {
            capacity,
            entries: HashMap::new(),
            queue: VecDeque::new(),
            tick: 0,
            hits: 0,
            evictions: 0,
        }
    }

    /// Number of entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Cumulative lookups answered from the map.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative entries dropped to make room (lazy-deletion stale
    /// queue pairs are not evictions; only a live entry removed for
    /// capacity counts).
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drops every entry **and** resets both counters. The counters
    /// describe the lifetime of the held content — hits against frames
    /// that no longer exist would mix generations — so content and
    /// counters reset together.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.queue.clear();
        self.hits = 0;
        self.evictions = 0;
    }

    /// Looks `key` up; a hit refreshes its recency and is counted.
    pub(crate) fn get(&mut self, key: K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let (value, stamp) = self.entries.get_mut(&key)?;
        *stamp = tick;
        let value = value.clone();
        self.queue.push_back((key, tick));
        self.hits += 1;
        self.maybe_compact();
        Some(value)
    }

    /// Peeks at `key` without touching recency or counters.
    #[cfg(test)]
    pub(crate) fn peek(&self, key: K) -> Option<&V> {
        self.entries.get(&key).map(|(v, _)| v)
    }

    /// Inserts (or refreshes) an entry, evicting least-recently-used
    /// entries beyond capacity. An entry for which `retain` returns
    /// true is *pinned*: it is re-queued with fresh recency instead of
    /// evicted. If every entry is pinned the map temporarily exceeds
    /// capacity — a buffer pool must never drop a frame a reader still
    /// holds.
    pub(crate) fn insert_with(&mut self, key: K, value: V, retain: impl Fn(&V) -> bool) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        self.entries.insert(key, (value, self.tick));
        self.queue.push_back((key, self.tick));
        let mut pinned_skips = 0usize;
        while self.entries.len() > self.capacity {
            let Some((old, stamp)) = self.queue.pop_front() else {
                break;
            };
            // Lazy deletion: only a queue entry carrying the key's
            // *current* stamp represents its true recency.
            let pinned = match self.entries.get(&old) {
                Some(&(ref value, s)) if s == stamp => retain(value),
                _ => continue,
            };
            if pinned {
                // Refresh the pinned entry's recency and move on; give
                // up once we have cycled past every live entry, so an
                // all-pinned map cannot spin forever.
                self.tick += 1;
                if let Some(entry) = self.entries.get_mut(&old) {
                    entry.1 = self.tick;
                }
                self.queue.push_back((old, self.tick));
                pinned_skips += 1;
                if pinned_skips > self.entries.len() {
                    break;
                }
            } else {
                self.entries.remove(&old);
                self.evictions += 1;
            }
        }
        self.maybe_compact();
    }

    /// Current length of the lazy recency queue (tests assert the
    /// compaction bound).
    #[cfg(test)]
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Bounds the lazy queue: when stale entries dominate, rebuild it
    /// from the live entries in recency order.
    fn maybe_compact(&mut self) {
        if self.queue.len() <= self.capacity.saturating_mul(4) + 8 {
            return;
        }
        let mut live: Vec<(K, u64)> = self
            .entries
            .iter()
            .map(|(&key, &(_, stamp))| (key, stamp))
            .collect();
        live.sort_by_key(|&(_, stamp)| stamp);
        self.queue = live.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_counts_hits() {
        let mut lru: LruCore<u32, u32> = LruCore::new(4);
        assert_eq!(lru.get(1), None);
        lru.insert_with(1, 10, |_| false);
        assert_eq!(lru.get(1), Some(10));
        assert_eq!(lru.hits(), 1);
    }

    #[test]
    fn eviction_is_lru_and_counted() {
        let mut lru: LruCore<u32, u32> = LruCore::new(2);
        lru.insert_with(1, 10, |_| false);
        lru.insert_with(2, 20, |_| false);
        assert_eq!(lru.get(1), Some(10)); // refresh 1 → 2 is LRU
        lru.insert_with(3, 30, |_| false);
        assert_eq!(lru.evictions(), 1);
        assert_eq!(lru.get(2), None, "LRU entry 2 must be the one evicted");
        assert_eq!(lru.get(1), Some(10));
        assert_eq!(lru.get(3), Some(30));
    }

    #[test]
    fn pinned_entries_survive_eviction() {
        let mut lru: LruCore<u32, u32> = LruCore::new(2);
        lru.insert_with(1, 10, |_| false);
        lru.insert_with(2, 20, |_| false);
        // Pin value 10: inserting a third entry must evict 2, not 1,
        // even though 1 is least recently used.
        lru.insert_with(3, 30, |&v| v == 10);
        assert_eq!(lru.peek(1), Some(&10), "pinned entry must survive");
        assert_eq!(lru.peek(2), None);
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn all_pinned_exceeds_capacity_without_spinning() {
        let mut lru: LruCore<u32, u32> = LruCore::new(2);
        lru.insert_with(1, 10, |_| true);
        lru.insert_with(2, 20, |_| true);
        lru.insert_with(3, 30, |_| true);
        assert_eq!(lru.len(), 3, "all pinned: capacity temporarily exceeded");
        assert_eq!(lru.evictions(), 0);
    }

    #[test]
    fn clear_resets_counters_and_content() {
        let mut lru: LruCore<u32, u32> = LruCore::new(2);
        lru.insert_with(1, 10, |_| false);
        lru.insert_with(2, 20, |_| false);
        lru.insert_with(3, 30, |_| false);
        let _ = lru.get(3);
        let _ = lru.get(99);
        assert!(lru.hits() > 0 && lru.evictions() > 0);
        lru.clear();
        assert_eq!(lru.len(), 0);
        assert_eq!((lru.hits(), lru.evictions()), (0, 0));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut lru: LruCore<u32, u32> = LruCore::new(0);
        lru.insert_with(1, 10, |_| false);
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.get(1), None);
    }

    #[test]
    fn queue_compaction_preserves_recency() {
        let mut lru: LruCore<u32, u32> = LruCore::new(4);
        for i in 0..4 {
            lru.insert_with(i, i, |_| false);
        }
        // Hammer one key until the lazy queue compacts, then verify
        // recency order is still honoured at the next eviction.
        for _ in 0..100 {
            let _ = lru.get(0);
        }
        lru.insert_with(100, 100, |_| false);
        assert_eq!(lru.peek(0), Some(&0), "hot key must survive");
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn queue_stays_bounded_under_churn() {
        let mut lru: LruCore<u64, u32> = LruCore::new(4);
        for i in 0..10_000u64 {
            lru.insert_with(i % 16, 1, |_| false);
            let _ = lru.get(i % 16);
        }
        assert!(lru.len() <= 4);
        assert!(
            lru.queue_len() <= 4 * 4 + 8,
            "lazy queue compacted (len {})",
            lru.queue_len()
        );
    }
}
