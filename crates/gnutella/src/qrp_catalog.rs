//! Process-wide QRP filter catalog: content-hashed interning of
//! [`QrpFilter`]s behind `Arc`, the `ShareCatalog` pattern applied to the
//! routing plane.
//!
//! Leaf shares are drawn from a Zipf catalog, so many leaves advertise
//! identical share-views and therefore publish byte-identical filters.
//! Every holder of a leaf filter — the leaf's own cached copy, and the
//! entry each of its ultrapeers keeps — resolves through [`intern`], so
//! the process stores one copy per distinct filter content no matter how
//! many nodes (or kernel shards) reference it.
//!
//! Determinism: `intern` is a pure function of filter *content* — two
//! calls with equal filters return `Arc`s to equal content, and nothing
//! behavioral (matching, wire size) can observe which
//! allocation was returned. Bucket bookkeeping (which `Weak` is still
//! live) varies with drop timing across labs, but only affects memory
//! accounting snapshots taken at quiescent points, never simulation
//! state.

use crate::bloom::QrpFilter;
use pier_netsim::HeapSize;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, Weak};

/// Interner buckets: content hash → live (weak) filters with that hash.
/// Weak references let a dropped lab's filters free their memory while the
/// catalog itself lives for the process (a sweep builds several labs in
/// one run).
type Buckets = BTreeMap<u64, Vec<Weak<QrpFilter>>>;

// pier-lint: allow(shard-static): content-addressed interner — the result
// of `intern` is a pure function of the filter's content (the `TABLE` /
// `ShareCatalog` precedent), so shard workers can never observe divergent
// state through it, and its iteration order is never exposed to the sim.
static CATALOG: Mutex<Buckets> = Mutex::new(BTreeMap::new());

/// Return the canonical shared copy of `filter`, interning it if its
/// content is new. Dead entries in the touched bucket are pruned on the
/// way through.
pub fn intern(filter: QrpFilter) -> Arc<QrpFilter> {
    let hash = filter.content_hash();
    // Poisoned only if another thread panicked holding the lock: the run has failed.
    let mut buckets = CATALOG.lock().expect("qrp catalog poisoned");
    let bucket = buckets.entry(hash).or_default();
    let mut found = None;
    bucket.retain(|w| match w.upgrade() {
        Some(live) => {
            if found.is_none() && *live == filter {
                found = Some(live);
            }
            true
        }
        None => false,
    });
    if let Some(live) = found {
        return live;
    }
    let canonical = Arc::new(filter);
    bucket.push(Arc::downgrade(&canonical));
    canonical
}

/// Snapshot of the live catalog contents.
#[derive(Clone, Copy, Debug, Default)]
pub struct QrpCatalogStats {
    /// Distinct live filters.
    pub unique: usize,
    /// Bytes one copy of each live filter costs the process: the struct,
    /// the `Arc` refcounts, and the owned position/bit storage.
    pub bytes: usize,
}

/// Live unique-filter count and byte cost. Heap accounting charges each
/// interned filter exactly once, here — holders charge only their
/// pointer-sized entries.
pub fn stats() -> QrpCatalogStats {
    // Poisoned only if another thread panicked holding the lock: the run has failed.
    let buckets = CATALOG.lock().expect("qrp catalog poisoned");
    let mut s = QrpCatalogStats::default();
    // pier-lint: allow(det-iter): commutative sum over a BTreeMap (the
    // lint can't see the map type through the MutexGuard); visit order
    // cannot change the count or byte total, and the result feeds memory
    // accounting only, never simulation state.
    for bucket in buckets.values() {
        for w in bucket {
            if let Some(live) = w.upgrade() {
                s.unique += 1;
                s.bytes += size_of::<QrpFilter>() + 2 * size_of::<usize>() + live.heap_bytes();
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Filters whose content can't collide with other tests sharing the
    /// process-wide catalog.
    fn filter_of(tag: &str, terms: usize) -> QrpFilter {
        let mut f = QrpFilter::with_defaults();
        for i in 0..terms {
            f.insert(&format!("catalog_{tag}_{i}"));
        }
        f
    }

    #[test]
    fn identical_content_interns_to_one_allocation() {
        let a = intern(filter_of("dup", 40));
        let b = intern(filter_of("dup", 40));
        assert!(Arc::ptr_eq(&a, &b), "equal content must share one allocation");
        let c = intern(filter_of("other", 40));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn representation_does_not_split_the_catalog() {
        let sparse = filter_of("repr", 30);
        let mut dense = sparse.clone();
        dense.promote_to_dense();
        let a = intern(sparse);
        let b = intern(dense);
        assert!(Arc::ptr_eq(&a, &b), "interning is by content, not representation");
    }

    #[test]
    fn dead_entries_are_pruned_and_reinterned() {
        // Other tests share the process-wide catalog, so assert behavior
        // around content this test alone interns, not global counts.
        let tmp = intern(filter_of("temp", 25));
        drop(tmp);
        let again = intern(filter_of("temp", 25));
        assert!(again.contains("catalog_temp_0"), "re-intern after drop yields a live filter");
        let keep = intern(filter_of("keep", 25));
        let s = stats();
        assert!(s.unique >= 1, "a held filter is live in the stats");
        assert!(
            s.bytes >= keep.count_ones() as usize * size_of::<u32>(),
            "live filters stay charged"
        );
    }
}
