//! Property tests: a `FileStore` sharing the process-wide `ShareCatalog`
//! is observationally identical to one owning its `FileMeta`s outright —
//! same iteration order, same token union, same query-matching results —
//! and a whole network's shares interned into one catalog
//! (`FileStore::shared_all`) answer exactly as per-node stores do, QRP
//! filter included. (The columnar layout may only change bytes, never
//! behavior.)

use pier_gnutella::{FileMeta, FileStore, QrpFilter, ShareCatalog};
use proptest::prelude::*;
use std::sync::Arc;

/// Small word pool, so shares collide and queries hit.
const WORDS: [&str; 7] = ["alpha", "beta", "gamma", "delta", "live", "mix", "remix"];
const EXTS: [&str; 3] = ["mp3", "avi", "zip"];

/// Filenames as (word indices, extension index), rendered at use.
fn name_strategy() -> impl Strategy<Value = String> {
    (prop::collection::vec(0usize..WORDS.len(), 1..5), 0usize..EXTS.len()).prop_map(|(ws, ext)| {
        let words: Vec<&str> = ws.iter().map(|&w| WORDS[w]).collect();
        format!("{}.{}", words.join("_"), EXTS[ext])
    })
}

fn flat(metas: Vec<&FileMeta>) -> Vec<(Arc<str>, u64)> {
    metas.into_iter().map(|m| (m.name.clone(), m.size)).collect()
}

/// A store over its own private catalog, one id per listed file: the
/// per-node layout interning replaced.
fn private(share: &[FileMeta]) -> FileStore {
    let catalog = Arc::new(ShareCatalog::build(share.iter().cloned()));
    FileStore::shared(catalog, (0..share.len() as u32).collect())
}

/// The QRP filter of the tokens `store` shares.
fn qrp_filter(store: &FileStore) -> QrpFilter {
    let mut filter = QrpFilter::with_defaults();
    filter.insert_ids(&store.token_union());
    filter
}

proptest! {
    #[test]
    fn shared_view_equals_owning_store(
        names in prop::collection::vec(name_strategy(), 1..40),
        picks in prop::collection::vec(0usize..1_000, 0..25),
        queries in prop::collection::vec(name_strategy(), 0..8),
    ) {
        let metas: Vec<FileMeta> = names
            .iter()
            .enumerate()
            .map(|(i, n)| FileMeta::new(n, 1_000 + i as u64))
            .collect();
        let catalog = Arc::new(ShareCatalog::build(metas.iter().cloned()));
        // An arbitrary leaf view: any multiset of catalog files, any order.
        let ids: Vec<u32> = picks.iter().map(|&p| (p % names.len()) as u32).collect();

        let owning = FileStore::new(ids.iter().map(|&i| metas[i as usize].clone()).collect());
        let shared = FileStore::shared(Arc::clone(&catalog), ids.into_boxed_slice());

        prop_assert_eq!(owning.len(), shared.len());
        prop_assert_eq!(owning.is_empty(), shared.is_empty());
        // Iteration order, the QRP token union, and query results must
        // all be indistinguishable between the two layouts.
        prop_assert_eq!(flat(owning.iter().collect()), flat(shared.iter().collect()));
        prop_assert_eq!(owning.token_union(), shared.token_union());
        for q in &queries {
            prop_assert_eq!(flat(owning.matching_query(q)), flat(shared.matching_query(q)));
        }
    }

    /// Interning a network's shares changes nothing a node can observe:
    /// files repeat across nodes, one name comes in several sizes, and a
    /// share may list a file twice.
    #[test]
    fn interned_shares_equal_per_node_stores(
        files in prop::collection::vec((name_strategy(), 0u64..3), 1..30),
        shares in prop::collection::vec(prop::collection::vec(0usize..1_000, 0..12), 1..20),
        queries in prop::collection::vec(name_strategy(), 1..6),
    ) {
        let shares: Vec<Vec<FileMeta>> = shares
            .iter()
            .map(|picks| {
                picks.iter().map(|&p| &files[p % files.len()]).map(|(n, z)| FileMeta::new(n, *z)).collect()
            })
            .collect();
        let interned = FileStore::shared_all(shares.clone());
        prop_assert_eq!(interned.len(), shares.len());
        let mut distinct = pier_netsim::keyed::KeyedSet::new();
        for file in shares.iter().flatten() {
            distinct.insert(file);
        }
        prop_assert_eq!(interned[0].catalog().len(), distinct.len(), "each (name, size) once");
        for (store, share) in interned.iter().zip(&shares) {
            prop_assert!(Arc::ptr_eq(store.catalog(), interned[0].catalog()));
            for reference in [private(share), FileStore::new(share.clone())] {
                prop_assert_eq!(store.len(), reference.len());
                prop_assert_eq!(flat(store.iter().collect()), flat(reference.iter().collect()));
                prop_assert_eq!(store.metas(), reference.metas());
                prop_assert_eq!(store.token_union(), reference.token_union());
                prop_assert!(qrp_filter(store) == qrp_filter(&reference), "QRP tables differ");
                for q in &queries {
                    prop_assert_eq!(
                        flat(store.matching_query(q)),
                        flat(reference.matching_query(q))
                    );
                }
            }
        }
    }
}
