//! Heap accounting for node state: the [`HeapSize`] trait and the
//! per-subsystem accumulator behind [`crate::Sim::mem_stats`].
//!
//! `heap_bytes` reports *owned heap* bytes — allocations reachable through
//! owning pointers, excluding the shallow `size_of::<Self>()` (which lives
//! in the parent's allocation) and excluding shared state behind `Arc`
//! (one process-wide copy is accounted once by whoever owns the canonical
//! reference, not once per clone). The numbers are an accounting model,
//! not an allocator census: capacity is charged where a container exposes
//! it (`Vec`, [`KeyedMap`](crate::keyed::KeyedMap)), and intrusive
//! allocator overhead (malloc headers, size-class rounding) is
//! deliberately ignored so the totals stay stable across allocators.

use std::collections::BTreeMap;

/// Owned heap bytes of a value (see the module docs for the model).
pub trait HeapSize {
    fn heap_bytes(&self) -> usize;
}

macro_rules! zero_heap {
    ($($t:ty),* $(,)?) => {
        $(impl HeapSize for $t {
            fn heap_bytes(&self) -> usize {
                0
            }
        })*
    };
}

zero_heap!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char);
zero_heap!(crate::actor::NodeId, crate::time::SimTime, crate::time::SimDuration);

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_bytes)
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * size_of::<T>() + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Box<[T]> {
    fn heap_bytes(&self) -> usize {
        self.len() * size_of::<T>() + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

/// `Arc<str>` is charged its text plus the two refcount words — at the
/// owner. Shared clones elsewhere should *not* re-add it; types holding a
/// non-owning clone account `0` for it explicitly.
impl HeapSize for std::sync::Arc<str> {
    fn heap_bytes(&self) -> usize {
        self.len() + 2 * size_of::<usize>()
    }
}

/// B-tree nodes hold up to 11 `(K, V)` pairs; charge ~⅔ occupancy, the
/// steady-state fill of random insertion order.
impl<K: HeapSize, V: HeapSize> HeapSize for BTreeMap<K, V> {
    fn heap_bytes(&self) -> usize {
        let slots = self.len() + self.len() / 2;
        slots * size_of::<(K, V)>()
            + self.iter().map(|(k, v)| k.heap_bytes() + v.heap_bytes()).sum::<usize>()
    }
}

/// Buckets behind a hash table of `capacity` (see [`crate::keyed`]).
pub(crate) fn buckets_for(capacity: usize) -> usize {
    if capacity == 0 {
        0
    } else {
        (capacity * 8 / 7).next_power_of_two()
    }
}

/// Per-subsystem byte accumulator filled by [`crate::Actor::mem_stats`]
/// implementations. Labels are static, dot-scoped (`"leaf.share"`,
/// `"dht.storage"`), so totals group naturally in reports.
#[derive(Default, Debug)]
pub struct MemAcc {
    by_subsystem: BTreeMap<&'static str, u64>,
}

impl MemAcc {
    pub fn new() -> MemAcc {
        MemAcc::default()
    }

    /// Charge `bytes` to `subsystem` (accumulates across calls and nodes).
    pub fn add(&mut self, subsystem: &'static str, bytes: usize) {
        *self.by_subsystem.entry(subsystem).or_insert(0) += bytes as u64;
    }

    pub fn get(&self, subsystem: &str) -> u64 {
        self.by_subsystem.get(subsystem).copied().unwrap_or(0)
    }

    pub fn total(&self) -> u64 {
        self.by_subsystem.values().sum()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.by_subsystem.iter().map(|(k, v)| (*k, *v))
    }
}

/// What [`crate::Sim::mem_stats`] reports: per-subsystem node-state bytes
/// plus the kernel's own footprint.
#[derive(Debug)]
pub struct MemStats {
    /// Number of nodes in the simulation.
    pub nodes: usize,
    /// Node-state bytes by subsystem label (summed across all nodes).
    pub subsystems: MemAcc,
    /// Kernel bytes: event queues, node table, cross-shard mailboxes.
    pub kernel_bytes: u64,
}

impl MemStats {
    /// Total accounted bytes (node state + kernel).
    pub fn total_bytes(&self) -> u64 {
        self.subsystems.total() + self.kernel_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyed::KeyedMap;

    #[test]
    fn scalars_have_no_heap() {
        assert_eq!(0u64.heap_bytes(), 0);
        assert_eq!(1.5f64.heap_bytes(), 0);
        assert_eq!(crate::actor::NodeId::new(3).heap_bytes(), 0);
    }

    #[test]
    fn vec_charges_capacity_not_len() {
        let mut v: Vec<u32> = Vec::with_capacity(16);
        v.push(1);
        assert_eq!(v.heap_bytes(), 16 * 4);
        let empty: Vec<u64> = Vec::new();
        assert_eq!(empty.heap_bytes(), 0);
    }

    #[test]
    fn boxed_slice_charges_exact_len() {
        let b: Box<[u32]> = vec![1, 2, 3].into_boxed_slice();
        assert_eq!(b.heap_bytes(), 12);
    }

    #[test]
    fn nested_containers_recurse() {
        let v: Vec<Vec<u8>> = vec![Vec::with_capacity(10), Vec::with_capacity(5)];
        assert_eq!(v.heap_bytes(), v.capacity() * size_of::<Vec<u8>>() + 15);
    }

    #[test]
    fn string_and_arc_str() {
        assert_eq!(String::new().heap_bytes(), 0);
        assert_eq!(String::from("abcd").heap_bytes(), 4);
        let a: std::sync::Arc<str> = std::sync::Arc::from("abcd");
        assert_eq!(a.heap_bytes(), 4 + 2 * size_of::<usize>());
    }

    #[test]
    fn hashmap_charges_buckets() {
        let empty: KeyedMap<u64, u64> = KeyedMap::new();
        assert_eq!(empty.heap_bytes(), 0);
        let mut m = KeyedMap::new();
        for i in 0..100u64 {
            m.insert(i, i);
        }
        // ≥ one (K, V) slot + 1 ctrl byte per entry; capacity is a power
        // of two's 7/8, so at most ~2.3× the minimum.
        let min = 100 * (16 + 1);
        assert!(m.heap_bytes() >= min, "{} < {min}", m.heap_bytes());
        assert!(m.heap_bytes() <= 3 * min, "{} way over {min}", m.heap_bytes());
    }

    #[test]
    fn btreemap_charges_slots() {
        let mut m = BTreeMap::new();
        for i in 0..100u64 {
            m.insert(i, i);
        }
        assert!(m.heap_bytes() >= 100 * 16);
    }

    #[test]
    fn option_charges_inner() {
        let some: Option<Vec<u32>> = Some(Vec::with_capacity(4));
        assert_eq!(some.heap_bytes(), 16);
        assert_eq!(None::<Vec<u32>>.heap_bytes(), 0);
    }

    #[test]
    fn mem_acc_accumulates_by_label() {
        let mut acc = MemAcc::new();
        acc.add("leaf.share", 100);
        acc.add("leaf.share", 50);
        acc.add("dht.storage", 7);
        assert_eq!(acc.get("leaf.share"), 150);
        assert_eq!(acc.get("dht.storage"), 7);
        assert_eq!(acc.get("nope"), 0);
        assert_eq!(acc.total(), 157);
        let labels: Vec<&str> = acc.iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["dht.storage", "leaf.share"], "sorted labels");
    }

    #[test]
    fn mem_stats_totals() {
        let mut acc = MemAcc::new();
        acc.add("a", 30);
        let stats = MemStats { nodes: 3, subsystems: acc, kernel_bytes: 12 };
        assert_eq!(stats.total_bytes(), 42);
    }
}
