//! [`KeyedMap`] and [`KeyedSet`]: the workspace's one hashed container.
//!
//! A std hash table visits its entries in an order set by its hasher's
//! seed, which differs between processes. Any output built from that
//! order would break the golden pins, so `clippy.toml` bans
//! `std::collections::{HashMap, HashSet}` everywhere but here, and these
//! wrappers expose only probes: no `iter`, `keys`, `values`, `drain` or
//! `IntoIterator`. A table that must be walked is a `BTreeMap` instead.
//! The reductions that do visit every entry cannot leak the visit
//! order: [`KeyedMap::retain`] takes a `Fn` closure, which may edit the
//! value it is handed but carries no state from one visit to the next,
//! [`KeyedMap::all`] answers one boolean and [`KeyedMap::sorted_values`]
//! sorts what it collects.
#![expect(clippy::disallowed_types, reason = "the one home of std's hash tables")]

use crate::heap::{buckets_for, HeapSize};
use std::borrow::Borrow;
use std::collections::{hash_map, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};

/// A hash map with probes and no iteration (see the module docs).
#[derive(Clone)]
pub struct KeyedMap<K, V, S = RandomState>(HashMap<K, V, S>);

impl<K, V, S: Default> Default for KeyedMap<K, V, S> {
    fn default() -> Self {
        KeyedMap(HashMap::default())
    }
}

impl<K: Hash + Eq, V> KeyedMap<K, V> {
    pub fn new() -> Self {
        KeyedMap(HashMap::new())
    }
}

impl<K: Hash + Eq, V, S: BuildHasher> KeyedMap<K, V, S> {
    pub fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.0.get(key)
    }

    pub fn get_mut<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        self.0.get_mut(key)
    }

    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.0.remove(key)
    }

    pub fn entry(&mut self, key: K) -> hash_map::Entry<'_, K, V> {
        self.0.entry(key)
    }

    /// Keep the entries `keep` admits; it may edit each value it sees.
    pub fn retain(&mut self, keep: impl Fn(&K, &mut V) -> bool) {
        self.0.retain(keep)
    }

    /// Whether every entry satisfies `pred`.
    pub fn all(&self, pred: impl Fn(&K, &V) -> bool) -> bool {
        self.0.iter().all(|(k, v)| pred(k, v))
    }

    /// Every value, in ascending order.
    pub fn sorted_values(&self) -> Vec<V>
    where
        V: Ord + Clone,
    {
        let mut values: Vec<V> = self.0.values().cloned().collect();
        values.sort_unstable();
        values
    }
}

impl<K, V, S> KeyedMap<K, V, S> {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    pub fn clear(&mut self) {
        self.0.clear()
    }
}

/// Hash tables are charged at their capacity footprint: hashbrown keeps
/// one byte of control metadata plus one `(K, V)` slot per bucket, with
/// capacity ≈ 8/7 of the reported `capacity()`.
impl<K: HeapSize, V: HeapSize, S> HeapSize for KeyedMap<K, V, S> {
    fn heap_bytes(&self) -> usize {
        let buckets = buckets_for(self.0.capacity());
        buckets * (size_of::<(K, V)>() + 1)
            + self.0.iter().map(|(k, v)| k.heap_bytes() + v.heap_bytes()).sum::<usize>()
    }
}

/// A hash set with probes and no iteration (see the module docs).
#[derive(Clone)]
pub struct KeyedSet<T, S = RandomState>(HashSet<T, S>);

/// Prints the size only: the entries would come out in hasher order.
impl<T, S> fmt::Debug for KeyedSet<T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyedSet").field("len", &self.len()).finish_non_exhaustive()
    }
}

impl<T, S: Default> Default for KeyedSet<T, S> {
    fn default() -> Self {
        KeyedSet(HashSet::default())
    }
}

impl<T: Hash + Eq> KeyedSet<T> {
    pub fn new() -> Self {
        KeyedSet(HashSet::new())
    }

    pub fn with_capacity(capacity: usize) -> Self {
        KeyedSet(HashSet::with_capacity(capacity))
    }
}

impl<T: Hash + Eq, S: BuildHasher> KeyedSet<T, S> {
    /// Whether `value` was new.
    pub fn insert(&mut self, value: T) -> bool {
        self.0.insert(value)
    }

    /// Whether `value` was present.
    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
    {
        self.0.remove(value)
    }
}

impl<T, S> KeyedSet<T, S> {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn clear(&mut self) {
        self.0.clear()
    }
}

impl<T: HeapSize, S> HeapSize for KeyedSet<T, S> {
    fn heap_bytes(&self) -> usize {
        let buckets = buckets_for(self.0.capacity());
        buckets * (size_of::<T>() + 1) + self.0.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retain_drops_and_edits() {
        let mut m = KeyedMap::new();
        for i in 0..10u64 {
            m.insert(i, i * 10);
        }
        m.retain(|k, v| {
            *v += 1;
            k % 2 == 0
        });
        assert_eq!(m.len(), 5);
        assert_eq!(m.get(&4), Some(&41));
        assert_eq!(m.get(&3), None);
        assert!(m.all(|k, v| *v == k * 10 + 1));
        assert_eq!(m.sorted_values(), [1, 21, 41, 61, 81]);
    }

    /// Byte for byte what the accounting charged the std tables before
    /// they were wrapped.
    #[test]
    fn heap_bytes_match_the_std_tables() {
        let mut m: KeyedMap<u64, Vec<u32>> = KeyedMap::new();
        assert_eq!(m.heap_bytes(), 0);
        let mut s: KeyedSet<u32> = KeyedSet::with_capacity(3);
        for i in 0..100u32 {
            m.insert(i as u64, Vec::with_capacity(i as usize % 4));
            s.insert(i);
        }
        let std_map = |m: &HashMap<u64, Vec<u32>>| {
            buckets_for(m.capacity()) * (size_of::<(u64, Vec<u32>)>() + 1)
                + m.values().map(|v| v.capacity() * 4).sum::<usize>()
        };
        assert_eq!(m.heap_bytes(), std_map(&m.0));
        assert_eq!(m.heap_bytes(), 128 * 33 + 150 * 4);
        assert_eq!(s.heap_bytes(), buckets_for(s.0.capacity()) * 5);
        assert_eq!(s.heap_bytes(), 128 * 5);
    }
}
