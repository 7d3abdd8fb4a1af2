//! [`Deadlines`]: the one table of open requests, each with the time it
//! times out.
//!
//! Every role that waits for an answer (a DHT RPC, a PIER client query,
//! a PIERSearch search) keys its requests by an id it issues in
//! increasing order and gives each the same timeout from its opening
//! time. Keys then open in increasing order with non-decreasing due
//! times, so the overdue entries are always a prefix of the key order and
//! a sweep reads one live entry. An entry leaves the table exactly once,
//! answered ([`Deadlines::close`]) or overdue ([`Deadlines::pop_due`]),
//! and either way it is handed back by value: "ends once" is ownership,
//! not a flag.

use crate::heap::HeapSize;
use crate::time::SimTime;
use std::collections::BTreeMap;

/// Open requests in key order, each with its due time (see the module
/// docs for the ordering invariant).
pub struct Deadlines<K, V> {
    entries: BTreeMap<K, (SimTime, V)>,
}

impl<K, V> Default for Deadlines<K, V> {
    fn default() -> Self {
        Deadlines { entries: BTreeMap::new() }
    }
}

impl<K: Ord + Copy, V> Deadlines<K, V> {
    /// Open `key`, due at `due`. The key must exceed every open key and
    /// `due` must not precede their due times.
    pub fn open(&mut self, key: K, due: SimTime, value: V) {
        debug_assert!(
            self.entries
                .last_key_value()
                .is_none_or(|(&last, &(last_due, _))| { last < key && last_due <= due }),
            "keys open in increasing order with non-decreasing due times"
        );
        self.entries.insert(key, (due, value));
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.entries.get_mut(key).map(|(_, v)| v)
    }

    /// End `key` answered; `None` if it is not open.
    pub fn close(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|(_, v)| v)
    }

    /// End the oldest entry if it is due at or before `now`. Repeated
    /// calls end the overdue entries in key order.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(K, V)> {
        let first = self.entries.first_entry().filter(|e| e.get().0 <= now)?;
        let (key, (_, value)) = first.remove_entry();
        Some((key, value))
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<K: HeapSize, V: HeapSize> HeapSize for Deadlines<K, V> {
    fn heap_bytes(&self) -> usize {
        self.entries.heap_bytes()
    }
}
