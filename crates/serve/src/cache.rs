//! Result cache: repeated popular circuits are free.
//!
//! Keyed by `(fingerprint, seed, shots)` — the fingerprint already
//! covers width, gate stream, strategy, backend, and observables (see
//! [`JobSpec::fingerprint`](crate::job::JobSpec::fingerprint)), and
//! seed/shots pin the sampling — so a hit can return the *stored bytes*
//! of the earlier result and remain bit-identical to recomputing it.
//! Bounded FIFO eviction: the serving win is bursts of the same popular
//! circuit, which FIFO captures without LRU bookkeeping. A body is one
//! shared [`Arc<str>`]: its job, the cache and every hit hold one copy.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Cache key: `(job fingerprint, seed, shots)`.
pub type CacheKey = (u64, u64, u64);

/// A bounded map from finished work to its exact result body.
#[derive(Debug, Default)]
pub struct ResultCache {
    map: HashMap<CacheKey, Arc<str>>,
    order: VecDeque<CacheKey>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache { map: HashMap::new(), order: VecDeque::new(), capacity, hits: 0, misses: 0 }
    }

    /// Look up a finished result, counting the hit or miss.
    pub fn lookup(&mut self, key: CacheKey) -> Option<Arc<str>> {
        match self.map.get(&key) {
            Some(body) => {
                self.hits += 1;
                Some(Arc::clone(body))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store a finished result body, evicting the oldest entry at
    /// capacity. Re-inserting an existing key refreshes nothing — the
    /// body is deterministic for the key, so the first write stands.
    pub fn insert(&mut self, key: CacheKey, body: Arc<str>) {
        if self.capacity == 0 || self.map.contains_key(&key) {
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
        self.map.insert(key, body);
        self.order.push_back(key);
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_stored_bytes() {
        let mut cache = ResultCache::new(4);
        assert!(cache.lookup((1, 2, 3)).is_none());
        cache.insert((1, 2, 3), "{\"x\":1}".into());
        assert_eq!(cache.lookup((1, 2, 3)).as_deref(), Some("{\"x\":1}"));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn a_hit_shares_its_own_keys_body() {
        let mut cache = ResultCache::new(4);
        let bodies: Vec<Arc<str>> = vec!["a".into(), "b".into(), "c".into()];
        for (k, body) in bodies.iter().enumerate() {
            cache.insert((k as u64, 0, 0), Arc::clone(body));
        }
        for (k, body) in bodies.iter().enumerate() {
            let hit = cache.lookup((k as u64, 0, 0)).unwrap();
            assert!(Arc::ptr_eq(&hit, body), "key {k} answered {hit:?}, not {body:?}");
        }
    }

    #[test]
    fn fifo_eviction_bounds_the_map() {
        let mut cache = ResultCache::new(2);
        cache.insert((1, 0, 0), "a".into());
        cache.insert((2, 0, 0), "b".into());
        cache.insert((3, 0, 0), "c".into());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup((1, 0, 0)).is_none());
        assert_eq!(cache.lookup((3, 0, 0)).as_deref(), Some("c"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResultCache::new(0);
        cache.insert((1, 0, 0), "a".into());
        assert!(cache.is_empty());
        assert!(cache.lookup((1, 0, 0)).is_none());
    }
}
