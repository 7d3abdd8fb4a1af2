//! Local value storage: a multimap from key to opaque values with expiry.
//!
//! Multimap semantics matter for PIERSearch: all `Inverted(keyword, fileID)`
//! tuples for one keyword hash to the same key and must coexist at the
//! owner. Values are deduplicated by content so republishing is idempotent.
//!
//! # Layout
//!
//! An ordered map from key to that key's values in insertion order, each
//! value a boxed byte slice with its expiry: the shape of the eager model
//! `tests/idle_tick_equivalence.rs` holds the store against. The largest
//! DHTs any run builds have a few hundred nodes (the churn experiment, the
//! §7 deployment), too few replicas per node for a `Vec` per key and a box
//! per value to be worth a custom layout; an expired value gives its heap
//! back the moment a sweep drops it.
//!
//! Expired values are swept *lazily on the read path* ([`Storage::fetch`])
//! as well as by the periodic pass, so a quiet key that is read but never
//! rewritten sheds its dead entries without waiting for the expiry tick.
//!
//! The periodic pass itself ([`Storage::expire`]) is free while nothing is
//! due: the store keeps a *lower bound* on its earliest expiry and returns
//! before touching a chain while `now` is below it. Every new value lowers
//! the bound, a full pass recomputes it from the survivors, and nothing
//! ever raises it otherwise — extending or dropping the value that holds
//! the minimum leaves the bound merely early, which costs one pass that
//! finds nothing and re-tightens it.
#![deny(clippy::cast_possible_truncation)]

use crate::key::Key;
use pier_netsim::{HeapSize, SimTime};
use std::collections::BTreeMap;

/// One key's values in insertion order, each with its expiry.
type Chain = Vec<(Box<[u8]>, SimTime)>;

/// Per-node value store.
#[derive(Default)]
pub struct Storage {
    /// A key whose last value is swept leaves the map.
    chains: BTreeMap<Key, Chain>,
    /// No value expires before this instant (`None`: no value at all), so
    /// [`Storage::expire`] has nothing to do while `now` is below it.
    earliest_expiry: Option<SimTime>,
}

impl Storage {
    pub fn new() -> Self {
        Storage::default()
    }

    /// Insert a value under `key`. If an identical value exists its expiry
    /// is extended instead (idempotent republish). Returns `true` if the
    /// value was new.
    pub fn insert(&mut self, key: Key, bytes: Vec<u8>, expires: SimTime) -> bool {
        let chain = self.chains.entry(key).or_default();
        // Republish must match even a value that has expired but not yet
        // been swept — the wire protocol carries no "now", so extension is
        // unconditional.
        if let Some((_, e)) = chain.iter_mut().find(|(v, _)| **v == *bytes) {
            *e = (*e).max(expires);
            return false;
        }
        chain.push((bytes.into_boxed_slice(), expires));
        self.earliest_expiry = Some(self.earliest_expiry.map_or(expires, |e| e.min(expires)));
        true
    }

    /// All live values under `key` at `now`, without mutating the store
    /// (diagnostics / test inspection; the protocol read path is
    /// [`Storage::fetch`]).
    pub fn get(&self, key: &Key, now: SimTime) -> Vec<&[u8]> {
        let chain = self.chains.get(key).map_or(&[][..], Vec::as_slice);
        chain.iter().filter(|(_, e)| *e > now).map(|(v, _)| &**v).collect()
    }

    /// All live values under `key` at `now`, sweeping any expired values
    /// found on the way (lazy reclamation: a key that is read but never
    /// rewritten still sheds its dead entries). The expiry bound is
    /// already below the survivors and does not move.
    pub fn fetch(&mut self, key: &Key, now: SimTime) -> Vec<&[u8]> {
        if let Some(chain) = self.chains.get_mut(key) {
            chain.retain(|(_, e)| *e > now);
            if chain.is_empty() {
                self.chains.remove(key);
            }
        }
        self.get(key, now)
    }

    /// Number of live values under `key`.
    pub fn count(&self, key: &Key, now: SimTime) -> usize {
        self.get(key, now).len()
    }

    /// Drop expired values, walking keys in ascending order; returns how
    /// many were removed. Costs nothing while `now` is below the expiry
    /// bound, since no value has `expires <= now`; a pass rebuilds the
    /// bound from the survivors.
    pub fn expire(&mut self, now: SimTime) -> usize {
        if self.earliest_expiry.is_none_or(|e| now < e) {
            return 0;
        }
        let mut removed = 0;
        let mut earliest = None;
        self.chains.retain(|_, chain| {
            let before = chain.len();
            chain.retain(|(_, e)| *e > now);
            removed += before - chain.len();
            earliest = chain.iter().map(|(_, e)| *e).chain(earliest).min();
            !chain.is_empty()
        });
        self.earliest_expiry = earliest;
        removed
    }

    /// Number of distinct keys with at least one (possibly expired but
    /// unswept) value.
    pub fn key_count(&self) -> usize {
        self.chains.len()
    }

    /// Total bytes of stored values, expired but unswept ones included.
    pub fn total_bytes(&self) -> usize {
        self.chains.values().flatten().map(|(v, _)| v.len()).sum()
    }

    /// Iterate over all keys (diagnostics / handoff).
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.chains.keys()
    }

    /// Drop everything (session teardown: a node leaving the overlay takes
    /// its replicas with it; only republishing restores them elsewhere).
    pub fn clear(&mut self) {
        *self = Storage::default();
    }
}

impl HeapSize for Storage {
    fn heap_bytes(&self) -> usize {
        self.chains.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_micros(s * 1_000_000)
    }

    #[test]
    fn multimap_accumulates() {
        let mut s = Storage::new();
        let k = Key::hash(b"keyword");
        assert!(s.insert(k, b"a".to_vec(), t(10)));
        assert!(s.insert(k, b"b".to_vec(), t(10)));
        assert_eq!(s.get(&k, t(0)).len(), 2);
        assert_eq!(s.count(&k, t(0)), 2);
        assert_eq!(s.total_bytes(), 2);
    }

    #[test]
    fn values_keep_insertion_order() {
        let mut s = Storage::new();
        let k = Key::hash(b"keyword");
        for v in [b"a".to_vec(), b"b".to_vec(), b"c".to_vec()] {
            s.insert(k, v, t(10));
        }
        assert_eq!(s.get(&k, t(0)), vec![&b"a"[..], &b"b"[..], &b"c"[..]]);
    }

    #[test]
    fn duplicate_insert_extends_expiry() {
        let mut s = Storage::new();
        let k = Key::hash(b"k");
        assert!(s.insert(k, b"v".to_vec(), t(5)));
        assert!(!s.insert(k, b"v".to_vec(), t(20)), "duplicate is not new");
        assert_eq!(s.total_bytes(), 1, "no double counting");
        // Still alive past the first expiry.
        assert_eq!(s.get(&k, t(10)).len(), 1);
    }

    #[test]
    fn duplicate_insert_never_shortens_expiry() {
        let mut s = Storage::new();
        let k = Key::hash(b"k");
        s.insert(k, b"v".to_vec(), t(20));
        s.insert(k, b"v".to_vec(), t(5));
        assert_eq!(s.get(&k, t(10)).len(), 1);
    }

    #[test]
    fn expiry_filters_and_reclaims() {
        let mut s = Storage::new();
        let k = Key::hash(b"k");
        s.insert(k, b"old".to_vec(), t(5));
        s.insert(k, b"new".to_vec(), t(50));
        assert_eq!(s.get(&k, t(10)).len(), 1, "expired value hidden from reads");
        assert_eq!(s.expire(t(10)), 1);
        assert_eq!(s.total_bytes(), 3);
        assert_eq!(s.key_count(), 1);
        assert_eq!(s.expire(t(100)), 1);
        assert_eq!(s.key_count(), 0, "empty keys dropped");
        assert_eq!(s.total_bytes(), 0);
    }

    /// Regression for the leak the old layout had: an expired value under a
    /// key that is read but never rewritten stayed resident until the next
    /// same-key insert (or a global expiry pass). The read path now sweeps.
    #[test]
    fn fetch_reclaims_expired_values() {
        let mut s = Storage::new();
        let k = Key::hash(b"quiet");
        s.insert(k, b"stale".to_vec(), t(5));
        s.insert(k, b"fresh".to_vec(), t(50));
        assert_eq!(s.fetch(&k, t(10)), vec![&b"fresh"[..]]);
        assert_eq!(s.total_bytes(), 5, "stale bytes no longer counted live");
        // A fully-expired key disappears from the index on read.
        let lone = Key::hash(b"lone");
        s.insert(lone, b"x".to_vec(), t(5));
        assert!(s.fetch(&lone, t(10)).is_empty());
        assert_eq!(s.keys().filter(|&&key| key == lone).count(), 0);
        // `expire` finds nothing left to do for the swept chain.
        assert_eq!(s.expire(t(10)), 0);
    }

    #[test]
    fn expired_values_release_their_heap() {
        let mut s = Storage::new();
        let k = Key::hash(b"k");
        // Fill with short-lived values, expire them, refill: nothing the
        // expired rounds held may stay resident.
        let big = vec![0xAB; 1024];
        for round in 0..64 {
            for i in 0..8u8 {
                let mut v = big.clone();
                v[0] = i;
                v[1] = round;
                s.insert(k, v, t(5));
            }
            assert_eq!(s.expire(t(10)), 8);
        }
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.heap_bytes(), 0, "no heap held for zero values");
    }

    #[test]
    fn missing_key_is_empty() {
        let mut s = Storage::new();
        assert!(s.get(&Key::hash(b"nope"), t(0)).is_empty());
        assert!(s.fetch(&Key::hash(b"nope"), t(0)).is_empty());
        assert_eq!(s.count(&Key::hash(b"nope"), t(0)), 0);
    }
}
