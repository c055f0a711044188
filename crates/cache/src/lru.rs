//! The workspace's one bounded map: a hash map with a logical clock for
//! recency, evicting the least recently used entry when full.
//!
//! Eviction scans for the minimum tick, which is O(n) in the map's size —
//! acceptable because the maps are small (a [`crate::PredicateCache`]
//! splits its capacity across shards, the engine's plan memo holds 1 024
//! plans and its filter cache a few hundred bitmaps) and eviction only
//! runs when one is full. This buys a
//! plain `HashMap` with no intrusive list and no unsafe code.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A map holding at most `capacity` entries; inserting into a full map
/// first evicts the entry least recently read or written.
#[derive(Debug)]
pub struct Lru<K, V> {
    map: HashMap<K, Entry<V>>,
    capacity: usize,
    tick: u64,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map bounded at `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            capacity,
            tick: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `key`, bumping its recency on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        let e = self.map.get_mut(key)?;
        e.last_used = self.tick;
        Some(&e.value)
    }

    /// Look up `key` for writing, leaving its recency untouched.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get_mut(key).map(|e| &mut e.value)
    }

    /// Membership probe that leaves recency untouched — admission-control
    /// classification must not perturb the LRU order or hit statistics.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// Insert `key`, evicting the least-recently-used entry when the map
    /// is at capacity. Returns the number of evictions (0 or 1).
    pub fn insert(&mut self, key: K, value: V) -> u64 {
        self.tick += 1;
        let mut evicted = 0;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            evicted = u64::from(self.pop_lru().is_some());
        }
        let last_used = self.tick;
        self.map.insert(key, Entry { value, last_used });
        evicted
    }

    /// Remove and return the entry least recently read or written — the
    /// one `insert` evicts — for a caller that bounds something other
    /// than the entry count.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let victim = (self.map.iter())
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())?;
        self.map.remove_entry(&victim).map(|(k, e)| (k, e.value))
    }

    /// Remove `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.remove(key).map(|e| e.value)
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// All `(key, value)` pairs, in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, e)| (k, &e.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut s = Lru::new(2);
        assert_eq!(s.insert("a".to_string(), 1), 0);
        assert_eq!(s.insert("b".to_string(), 2), 0);
        // Touch "a" so "b" becomes the LRU victim.
        assert!(s.get("a").is_some());
        assert_eq!(s.insert("c".to_string(), 3), 1);
        assert!(s.get("a").is_some());
        assert!(s.get("b").is_none());
        assert!(s.get("c").is_some());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn pop_lru_takes_what_insert_would_evict() {
        let mut s = Lru::new(usize::MAX);
        s.insert("a".to_string(), 1);
        s.insert("b".to_string(), 2);
        assert!(s.get("a").is_some());
        assert_eq!(s.pop_lru(), Some(("b".to_string(), 2)));
        assert_eq!(s.remove("a"), Some(1));
        assert_eq!((s.pop_lru(), s.remove("a")), (None, None));
    }

    #[test]
    fn reinsert_updates_without_evicting() {
        let mut s = Lru::new(1);
        s.insert("a".to_string(), 1);
        assert_eq!(s.insert("a".to_string(), 9), 0);
        assert_eq!(s.get("a"), Some(&9));
    }
}
