//! `IdCounter` — a flat open-addressed counter map for small integer keys.
//!
//! The hybrid rare-item schemes' per-node counters (the TF/TPF tables,
//! SAM's replica sightings) would pay SipHash plus a control-byte table
//! for what is really "bump a counter keyed by a dense u32 (or a packed
//! pair)". This map stores keys and counts in two parallel
//! `Vec<u64>`s with multiply-shift hashing and linear probing: half the
//! slot width of `HashMap<u64, u64>`'s (key, value, ctrl) layout, no
//! per-lookup hasher state, and `heap_bytes` is exact by construction.
//!
//! Keys are arbitrary `u64`s except the sentinel `u64::MAX` (vacant); the
//! callers key by `TermId` (`u32`) or by two packed `u32`s, so the
//! sentinel is unreachable. Iteration order is table order — deterministic
//! for a given insertion sequence, but *not* insertion order; callers that
//! aggregate must not let iteration order leak into results.

use pier_netsim::HeapSize;

/// Vacant-slot marker. `u64::MAX` is not a valid key.
const VACANT: u64 = u64::MAX;

/// Fibonacci multiplier (odd, near 2^64/φ): spreads dense ids across the
/// table so linear probing sees few collisions.
const MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressed `u64 → u64` counter map.
#[derive(Clone, Debug, Default)]
pub struct IdCounter {
    /// Power-of-two sized; `VACANT` marks empty slots. Parallel to `counts`.
    keys: Vec<u64>,
    counts: Vec<u64>,
    len: usize,
}

impl IdCounter {
    pub fn new() -> Self {
        IdCounter::default()
    }

    fn slot(&self, key: u64) -> usize {
        // Multiply-shift: high bits of key*MULT, masked to table size.
        (key.wrapping_mul(MULT) >> 32) as usize & (self.keys.len() - 1)
    }

    /// Index of `key`'s slot, or of the vacant slot where it would go.
    fn probe(&self, key: u64) -> usize {
        debug_assert!(!self.keys.is_empty());
        let mask = self.keys.len() - 1;
        let mut i = self.slot(key);
        loop {
            if self.keys[i] == key || self.keys[i] == VACANT {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![VACANT; cap]);
        let old_counts = std::mem::take(&mut self.counts);
        self.counts = vec![0; cap];
        for (k, c) in old_keys.into_iter().zip(old_counts) {
            if k != VACANT {
                let i = self.probe(k);
                self.keys[i] = k;
                self.counts[i] = c;
            }
        }
    }

    /// Add `delta` to `key`'s count, returning the new value.
    pub fn add(&mut self, key: u64, delta: u64) -> u64 {
        debug_assert_ne!(key, VACANT, "u64::MAX is the vacant sentinel");
        // Grow at 7/8 occupancy, like the stdlib table.
        if self.keys.is_empty() || (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let i = self.probe(key);
        if self.keys[i] == VACANT {
            self.keys[i] = key;
            self.len += 1;
        }
        self.counts[i] += delta;
        self.counts[i]
    }

    /// The count for `key`, or `None` if never added.
    pub fn get(&self, key: u64) -> Option<u64> {
        if self.keys.is_empty() {
            return None;
        }
        let i = self.probe(key);
        (self.keys[i] != VACANT).then(|| self.counts[i])
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All (key, count) pairs in table order (deterministic for a given
    /// insertion sequence; not insertion order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys.iter().zip(&self.counts).filter(|(&k, _)| k != VACANT).map(|(&k, &c)| (k, c))
    }
}

impl HeapSize for IdCounter {
    fn heap_bytes(&self) -> usize {
        (self.keys.capacity() + self.counts.capacity()) * size_of::<u64>()
    }
}

/// Pack two `u32`s into one counter key (for pair counters like TPF).
pub fn pack_pair(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut c = IdCounter::new();
        assert_eq!(c.get(7), None);
        assert_eq!(c.add(7, 1), 1);
        assert_eq!(c.add(7, 2), 3);
        assert_eq!(c.get(7), Some(3));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn survives_growth() {
        let mut c = IdCounter::new();
        for k in 0..10_000u64 {
            c.add(k, k + 1);
        }
        assert_eq!(c.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(c.get(k), Some(k + 1), "key {k}");
        }
        assert_eq!(c.get(10_001), None);
    }

    #[test]
    fn matches_hashmap_reference() {
        use std::collections::HashMap;
        let mut c = IdCounter::new();
        let mut m: HashMap<u64, u64> = HashMap::new();
        // A fixed pseudo-random op sequence over a small key space, so
        // collisions and repeats both occur.
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = (x >> 33) % 257;
            let delta = x % 7;
            c.add(key, delta);
            *m.entry(key).or_default() += delta;
        }
        assert_eq!(c.len(), m.len());
        for (k, v) in &m {
            assert_eq!(c.get(*k), Some(*v));
        }
        let mut pairs: Vec<(u64, u64)> = c.iter().collect();
        pairs.sort_unstable();
        let mut want: Vec<(u64, u64)> = m.into_iter().collect();
        want.sort_unstable();
        assert_eq!(pairs, want);
    }

    #[test]
    fn pair_packing_is_injective() {
        assert_ne!(pack_pair(1, 2), pack_pair(2, 1));
        assert_eq!(pack_pair(0xAAAA_BBBB, 0xCCCC_DDDD), 0xAAAA_BBBB_CCCC_DDDDu64);
    }

    #[test]
    fn heap_bytes_is_exact() {
        let mut c = IdCounter::new();
        assert_eq!(pier_netsim::HeapSize::heap_bytes(&c), 0);
        c.add(1, 1);
        assert_eq!(
            pier_netsim::HeapSize::heap_bytes(&c),
            (c.keys.capacity() + c.counts.capacity()) * 8
        );
    }
}
