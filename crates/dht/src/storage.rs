//! Local value storage: a multimap from key to opaque values with expiry.
//!
//! Multimap semantics matter for PIERSearch: all `Inverted(keyword, fileID)`
//! tuples for one keyword hash to the same key and must coexist at the
//! owner. Values are deduplicated by content so republishing is idempotent.
//!
//! # Layout
//!
//! The store is columnar: value bytes live in one append-only arena per
//! node, each value is a fixed-size [`Slot`] (offset, length, expiry, chain
//! link), and the key index is a pair of sorted parallel vectors
//! (`keys[i]`'s chain starts at `heads[i]`). Compared to the former
//! `HashMap<Key, Vec<StoredValue>>` this removes the per-key `Vec` header,
//! the per-value `Vec<u8>` header, and all hash-table slack — at metro
//! scale the posting replicas on a node are thousands of ~20-byte tuples,
//! where three pointer-sized headers per value tripled the footprint.
//!
//! Freed slots go on a free list and their arena bytes are accounted in
//! `dead_bytes`; the arena compacts when more than half of it is dead, so
//! `end_session`/expiry churn cannot leak arena space. Expired values are
//! also swept *lazily on the read path* ([`Storage::fetch`]): the old
//! layout only reclaimed an expired entry when the same key was next
//! written, which on quiet keys meant the bytes survived until the periodic
//! expiry tick (or forever, for nodes whose tick was disabled).
//!
//! The periodic pass itself ([`Storage::expire`]) is free while nothing is
//! due: the store keeps a *lower bound* on its earliest expiry and returns
//! before touching a chain while `now` is below it. Every new slot lowers
//! the bound, a full pass recomputes it from the survivors, and nothing
//! ever raises it otherwise — extending or dropping the value that holds
//! the minimum leaves the bound merely early, which costs one pass that
//! finds nothing and re-tightens it.

use crate::key::Key;
use pier_netsim::{HeapSize, SimTime};

/// Chain terminator / "no slot".
const NONE: u32 = u32::MAX;

/// One stored value: where its bytes sit in the arena, when it dies, and
/// the next value under the same key (insertion order).
#[derive(Clone, Copy, Debug)]
struct Slot {
    off: u32,
    len: u32,
    expires: SimTime,
    next: u32,
}

/// Per-node value store.
#[derive(Default)]
pub struct Storage {
    /// Sorted distinct keys; parallel to `heads`.
    keys: Vec<Key>,
    /// First slot of each key's chain (`NONE` never persists: empty keys
    /// are removed from the index).
    heads: Vec<u32>,
    slots: Vec<Slot>,
    /// Reusable slot indices (their arena bytes are dead).
    free: Vec<u32>,
    /// All value bytes, live and dead, back to back.
    arena: Vec<u8>,
    /// Bytes of live values (what `total_bytes` reports).
    live_bytes: usize,
    /// Arena bytes owned by freed slots, reclaimed at the next compaction.
    dead_bytes: usize,
    /// No slot expires before this instant (`None`: no slot at all), so
    /// [`Storage::expire`] has nothing to do while `now` is below it.
    earliest_expiry: Option<SimTime>,
}

impl Storage {
    pub fn new() -> Self {
        Storage::default()
    }

    fn value(&self, s: u32) -> &[u8] {
        let Slot { off, len, .. } = self.slots[s as usize];
        &self.arena[off as usize..(off + len) as usize]
    }

    /// Insert a value under `key`. If an identical value exists its expiry
    /// is extended instead (idempotent republish). Returns `true` if the
    /// value was new.
    pub fn insert(&mut self, key: Key, bytes: Vec<u8>, expires: SimTime) -> bool {
        let i = match self.keys.binary_search(&key) {
            Ok(i) => i,
            Err(i) => {
                self.keys.insert(i, key);
                self.heads.insert(i, NONE);
                i
            }
        };
        // Walk to the chain tail, deduplicating on the way (republish must
        // match even a value that has expired but not yet been swept — the
        // wire protocol carries no "now", so extension is unconditional).
        let mut tail = NONE;
        let mut s = self.heads[i];
        while s != NONE {
            if self.value(s) == bytes.as_slice() {
                let e = &mut self.slots[s as usize].expires;
                *e = (*e).max(expires);
                return false;
            }
            tail = s;
            s = self.slots[s as usize].next;
        }
        let off = u32::try_from(self.arena.len()).expect("value arena exceeds u32 offsets");
        self.arena.extend_from_slice(&bytes);
        self.live_bytes += bytes.len();
        let len = u32::try_from(bytes.len()).expect("stored value exceeds u32 length");
        let slot = Slot { off, len, expires, next: NONE };
        self.note_expiry(expires);
        let new = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                u32::try_from(self.slots.len() - 1).expect("slot table exceeds u32 indices")
            }
        };
        if tail == NONE {
            self.heads[i] = new;
        } else {
            self.slots[tail as usize].next = new;
        }
        true
    }

    /// All live values under `key` at `now`, without mutating the store
    /// (diagnostics / test inspection; the protocol read path is
    /// [`Storage::fetch`]).
    pub fn get(&self, key: &Key, now: SimTime) -> Vec<&[u8]> {
        let Ok(i) = self.keys.binary_search(key) else { return Vec::new() };
        let mut out = Vec::new();
        let mut s = self.heads[i];
        while s != NONE {
            let slot = self.slots[s as usize];
            if slot.expires > now {
                out.push(&self.arena[slot.off as usize..(slot.off + slot.len) as usize]);
            }
            s = slot.next;
        }
        out
    }

    /// All live values under `key` at `now`, sweeping any expired values
    /// found on the way (lazy reclamation: a key that is read but never
    /// rewritten still sheds its dead entries).
    pub fn fetch(&mut self, key: &Key, now: SimTime) -> Vec<&[u8]> {
        match self.keys.binary_search(key) {
            Ok(i) => {
                self.sweep_chain(i, now);
                self.maybe_compact();
                self.get(key, now)
            }
            Err(_) => Vec::new(),
        }
    }

    /// Number of live values under `key`.
    pub fn count(&self, key: &Key, now: SimTime) -> usize {
        self.get(key, now).len()
    }

    /// Lower the expiry bound to cover a slot that dies at `expires`.
    fn note_expiry(&mut self, expires: SimTime) {
        self.earliest_expiry = Some(self.earliest_expiry.map_or(expires, |e| e.min(expires)));
    }

    /// Unlink every expired slot in chain `i`; removes the key from the
    /// index if the chain empties. Returns how many values were dropped.
    /// Survivors are folded into the expiry bound, which is how
    /// [`Storage::expire`] rebuilds it in the same pass (on the read path
    /// the bound is already below them and does not move).
    fn sweep_chain(&mut self, i: usize, now: SimTime) -> usize {
        let mut removed = 0;
        let mut prev = NONE;
        let mut s = self.heads[i];
        while s != NONE {
            let Slot { len, expires, next, .. } = self.slots[s as usize];
            if expires > now {
                prev = s;
                self.note_expiry(expires);
            } else {
                if prev == NONE {
                    self.heads[i] = next;
                } else {
                    self.slots[prev as usize].next = next;
                }
                self.free.push(s);
                self.live_bytes -= len as usize;
                self.dead_bytes += len as usize;
                removed += 1;
            }
            s = next;
        }
        if self.heads[i] == NONE {
            self.keys.remove(i);
            self.heads.remove(i);
        }
        removed
    }

    /// Drop expired values; returns how many were removed. Costs nothing
    /// while `now` is below the expiry bound: no slot has `expires <= now`,
    /// and compaction cannot be due either (dead bytes only appear in
    /// sweeps, each of which already ends in `maybe_compact`, and the arena
    /// only grows in between).
    pub fn expire(&mut self, now: SimTime) -> usize {
        if self.earliest_expiry.is_none_or(|e| now < e) {
            return 0;
        }
        self.earliest_expiry = None;
        let mut removed = 0;
        let mut i = 0;
        while i < self.keys.len() {
            let before = self.keys.len();
            removed += self.sweep_chain(i, now);
            // Only advance when the key survived (sweep may remove it).
            if self.keys.len() == before {
                i += 1;
            }
        }
        self.maybe_compact();
        removed
    }

    /// Rewrite the arena with only live bytes once more than half of it is
    /// dead (and the waste is worth a copy). Chain order is preserved, so
    /// reads are unaffected.
    fn maybe_compact(&mut self) {
        if self.dead_bytes <= 4096 || self.dead_bytes * 2 <= self.arena.len() {
            return;
        }
        let mut arena = Vec::with_capacity(self.live_bytes);
        for &head in &self.heads {
            let mut s = head;
            while s != NONE {
                let slot = &mut self.slots[s as usize];
                let off = u32::try_from(arena.len()).expect("compacted arena exceeds u32 offsets");
                let (a, b) = (slot.off as usize, (slot.off + slot.len) as usize);
                slot.off = off;
                s = slot.next;
                arena.extend_from_slice(&self.arena[a..b]);
            }
        }
        self.arena = arena;
        self.dead_bytes = 0;
    }

    /// Number of distinct keys with at least one (possibly expired but
    /// unswept) value.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Total live value bytes.
    pub fn total_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Arena bytes held by swept values, pending compaction. Reported so
    /// memory accounting sees reclaimable space explicitly.
    pub fn dead_bytes(&self) -> usize {
        self.dead_bytes
    }

    /// Iterate over all keys (diagnostics / handoff).
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.keys.iter()
    }

    /// Drop everything (session teardown: a node leaving the overlay takes
    /// its replicas with it; only republishing restores them elsewhere).
    /// O(dropped): buffers are freed wholesale, no per-value work.
    pub fn clear(&mut self) {
        *self = Storage::default();
    }
}

impl HeapSize for Storage {
    fn heap_bytes(&self) -> usize {
        self.arena.capacity()
            + self.keys.capacity() * size_of::<Key>()
            + self.heads.capacity() * size_of::<u32>()
            + self.slots.capacity() * size_of::<Slot>()
            + self.free.capacity() * size_of::<u32>()
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
        assert_eq!(s.dead_bytes(), 5, "…and reported as reclaimable");
        // A fully-expired key disappears from the index on read.
        let lone = Key::hash(b"lone");
        s.insert(lone, b"x".to_vec(), t(5));
        assert!(s.fetch(&lone, t(10)).is_empty());
        assert_eq!(s.keys().filter(|&&key| key == lone).count(), 0);
        // `expire` finds nothing left to do for the swept chain.
        assert_eq!(s.expire(t(10)), 0);
    }

    #[test]
    fn freed_slots_are_reused_and_arena_compacts() {
        let mut s = Storage::new();
        let k = Key::hash(b"k");
        // Fill with short-lived values, expire them, refill: slot storage
        // must not grow, and the arena must compact away the dead bytes.
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
        assert!(
            s.heap_bytes() < 64 * 8 * 1024,
            "arena must compact: {} bytes held for zero live values",
            s.heap_bytes()
        );
    }

    #[test]
    fn missing_key_is_empty() {
        let mut s = Storage::new();
        assert!(s.get(&Key::hash(b"nope"), t(0)).is_empty());
        assert!(s.fetch(&Key::hash(b"nope"), t(0)).is_empty());
        assert_eq!(s.count(&Key::hash(b"nope"), t(0)), 0);
    }
}
