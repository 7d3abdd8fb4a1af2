//! Shared-file metadata and Gnutella-side query matching.
//!
//! Matching follows LimeWire semantics: a query matches a file when every
//! query term appears as a *token* of the filename (case-insensitive).
//! Unlike PIERSearch (§3.1 of the paper), plain Gnutella does **not** strip
//! stop-words — that asymmetry is part of the system being reproduced, and
//! it lives in the shared scanner's layering: this crate uses the raw
//! [`pier_vocab::scan`]; PIERSearch adds the stop-word policy on top.
//!
//! Post-interning, matching is sorted-`TermId`-slice intersection (binary
//! search per query term) instead of per-file `HashSet<String>` probes.
//!
//! # Memory layout
//!
//! File metadata lives in a [`ShareCatalog`]: one columnar, immutable copy
//! of every distinct file — names, sizes, sorted token sets in a flat
//! `TermId` arena, and each file's QRP table positions in a flat
//! `u16` arena, both indexed by `u32` offsets. A node's [`FileStore`] holds
//! an `Arc` to the catalog plus an `Arc<[FileId]>` of the files it shares,
//! so replicating a file onto ten thousand leaves costs 4 bytes per leaf,
//! not a `FileMeta` + token-set clone per leaf. Matching reads through the
//! token arena; a leaf's QRP table is a [`QrpView`] of its store, read
//! through the position arena, so no node holds a filter of its own and
//! publishing one costs two `Arc` bumps. Every network builder interns its
//! shares into one catalog ([`FileStore::shared_all`]), and
//! [`FileStore::new`] is its one-share case.
//!
//! Sharing is safe because the catalog is read-only after construction: the
//! network only ever *matches against* shares, it never mutates them, and a
//! node that goes down keeps its `FileStore` for when it revives.
#![deny(clippy::cast_possible_truncation)]

use crate::bloom::{table_positions, QrpView};
use pier_netsim::keyed::KeyedMap;
use pier_netsim::HeapSize;
use pier_vocab::{scan, TermId};
use std::sync::{Arc, OnceLock};

/// One shared file. The name is `Arc`-shared: a `Hit` travelling the
/// reverse path is cloned once per hop and per message chunk, and with a
/// pointer-sized name clone those hops stop allocating — the last string
/// hot spot on the result path (wire-size accounting is unchanged: the
/// retained text and its byte length are identical).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FileMeta {
    pub name: Arc<str>,
    pub size: u64,
}

impl FileMeta {
    pub fn new(name: &str, size: u64) -> Self {
        FileMeta { name: Arc::from(name), size }
    }
}

/// Index of a distinct file within a [`ShareCatalog`].
pub type FileId = u32;

/// The process-wide columnar file catalog: one copy of every distinct
/// file's metadata and sorted token set, shared by every [`FileStore`]
/// built from it. Immutable after construction.
#[derive(Debug, Default)]
pub struct ShareCatalog {
    /// One `FileMeta` per distinct file (names are `Arc<str>`, so handing
    /// them out to `Hit`s clones pointers).
    metas: Vec<FileMeta>,
    /// Flat arena of per-file token sets (each sorted, deduplicated).
    token_arena: Vec<TermId>,
    /// `token_off[i]..token_off[i + 1]` is file `i`'s slice of the arena.
    token_off: Vec<u32>,
    /// Flat arena of per-file QRP table positions (each sorted,
    /// deduplicated): the positions of the file's tokens.
    qrp_arena: Vec<u16>,
    /// `qrp_off[i]..qrp_off[i + 1]` is file `i`'s slice of `qrp_arena`.
    qrp_off: Vec<u32>,
}

impl ShareCatalog {
    /// Build the catalog from distinct files, scanning each name once.
    pub fn build(files: impl IntoIterator<Item = FileMeta>) -> ShareCatalog {
        let metas: Vec<FileMeta> = files.into_iter().collect();
        let mut token_arena = Vec::new();
        let mut token_off = Vec::with_capacity(metas.len() + 1);
        token_off.push(0u32);
        for f in &metas {
            let mut t = scan(&f.name);
            t.sort_unstable();
            t.dedup();
            token_arena.extend_from_slice(&t);
            // Holds: a few tokens per distinct file, and catalogs hold millions of files.
            let end = u32::try_from(token_arena.len()).expect("token arena exceeds u32 offsets");
            token_off.push(end);
        }
        token_arena.shrink_to_fit();
        let hashes = pier_vocab::qrp_hashes_of(&token_arena);
        let (mut qrp_arena, mut qrp_off, mut file) = (vec![], vec![0u32], vec![]);
        for span in token_off.windows(2) {
            file.clear();
            file.extend(table_positions(&hashes[span[0] as usize..span[1] as usize]));
            file.sort_unstable();
            file.dedup();
            qrp_arena.extend_from_slice(&file);
            // Holds: at most twice the token arena, which fits `u32` offsets.
            qrp_off.push(u32::try_from(qrp_arena.len()).expect("qrp arena exceeds u32 offsets"));
        }
        qrp_arena.shrink_to_fit();
        ShareCatalog { metas, token_arena, token_off, qrp_arena, qrp_off }
    }

    /// Number of distinct files.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    pub fn meta(&self, id: FileId) -> &FileMeta {
        &self.metas[id as usize]
    }

    /// File `id`'s distinct name tokens, sorted by `TermId`.
    pub fn tokens(&self, id: FileId) -> &[TermId] {
        let (a, b) = (self.token_off[id as usize], self.token_off[id as usize + 1]);
        &self.token_arena[a as usize..b as usize]
    }

    /// File `id`'s QRP table positions, ascending.
    pub(crate) fn qrp_positions(&self, id: FileId) -> &[u16] {
        let (a, b) = (self.qrp_off[id as usize], self.qrp_off[id as usize + 1]);
        &self.qrp_arena[a as usize..b as usize]
    }

    /// Heap bytes of the per-file QRP positions and their offsets.
    pub fn qrp_heap_bytes(&self) -> usize {
        self.qrp_arena.capacity() * size_of::<u16>() + self.qrp_off.capacity() * size_of::<u32>()
    }

    /// Does file `id` match the query (every term a token of its name)?
    pub fn matches(&self, id: FileId, terms: &[TermId]) -> bool {
        let tokens = self.tokens(id);
        !terms.is_empty() && terms.iter().all(|t| tokens.binary_search(t).is_ok())
    }
}

impl HeapSize for ShareCatalog {
    fn heap_bytes(&self) -> usize {
        self.metas.capacity() * size_of::<FileMeta>()
            + self.metas.iter().map(|m| m.name.heap_bytes()).sum::<usize>()
            + self.token_arena.capacity() * size_of::<TermId>()
            + self.token_off.capacity() * size_of::<u32>()
            + self.qrp_heap_bytes()
    }
}

/// A node's share: an `Arc<[FileId]>` into a shared [`ShareCatalog`]. The
/// id list is shared with the node's [`QrpView`]s, so a clone is two `Arc`
/// bumps.
#[derive(Clone, Debug)]
pub struct FileStore {
    pub(crate) catalog: Arc<ShareCatalog>,
    pub(crate) files: Arc<[FileId]>,
}

impl Default for FileStore {
    /// The shared empty store, so shareless nodes — every ultrapeer in the
    /// lab — cost no allocation.
    fn default() -> Self {
        // Write-once cache of a constant, so shards can never observe
        // different state through it (`tests/static_inventory.rs`).
        static EMPTY: OnceLock<FileStore> = OnceLock::new();
        let empty = || FileStore { catalog: Arc::default(), files: Arc::new([]) };
        EMPTY.get_or_init(empty).clone()
    }
}

impl FileStore {
    /// A store over one share: the one-share case of
    /// [`FileStore::shared_all`].
    pub fn new(files: Vec<FileMeta>) -> Self {
        // Holds: `shared_all` returns one store per share.
        FileStore::shared_all([files]).pop().expect("one share in, one store out")
    }

    /// One store per share, all reading through one [`ShareCatalog`] that
    /// holds each distinct `(name, size)` once. `FileId`s are assigned in
    /// first-seen order — node order, then share order — and each store
    /// keeps its share's order, duplicates included.
    pub fn shared_all(shares: impl IntoIterator<Item = Vec<FileMeta>>) -> Vec<FileStore> {
        // Ids follow `metas`' first-seen order.
        let (mut ids, mut metas) = (KeyedMap::<FileMeta, FileId>::new(), Vec::new());
        let mut intern = |meta: FileMeta| {
            *ids.entry(meta).or_insert_with_key(|meta| {
                metas.push(meta.clone());
                // Holds: distinct files of one network, far below 2³².
                u32::try_from(metas.len() - 1).expect("share catalog exceeds u32 file ids")
            })
        };
        let views: Vec<Box<[FileId]>> =
            shares.into_iter().map(|share| share.into_iter().map(&mut intern).collect()).collect();
        let catalog = Arc::new(ShareCatalog::build(metas));
        views.into_iter().map(|files| FileStore::shared(Arc::clone(&catalog), files)).collect()
    }

    /// A share of `files` (catalog indices) backed by a shared catalog.
    pub fn shared(catalog: Arc<ShareCatalog>, files: Box<[FileId]>) -> Self {
        // An empty share takes the shared empty id list.
        let files = if files.is_empty() { FileStore::default().files } else { files.into() };
        FileStore { catalog, files }
    }

    /// The share's QRP table: a view of this store, not a copy.
    pub fn qrp_view(&self) -> QrpView {
        QrpView(self.clone())
    }

    /// The catalog this share reads through.
    pub fn catalog(&self) -> &Arc<ShareCatalog> {
        &self.catalog
    }

    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// The shared files' metadata, in share order.
    pub fn iter(&self) -> impl Iterator<Item = &FileMeta> + '_ {
        self.files.iter().map(|&id| self.catalog.meta(id))
    }

    /// Owned metadata of the whole share (BrowseHost replies; names are
    /// pointer clones).
    pub fn metas(&self) -> Vec<FileMeta> {
        self.iter().cloned().collect()
    }

    /// All distinct tokens across the share, sorted: what a QRP filter of
    /// the share would advertise (the equivalence oracle for
    /// [`FileStore::qrp_view`]). Computed on each call.
    pub fn token_union(&self) -> Vec<TermId> {
        let mut tokens: Vec<TermId> =
            self.files.iter().flat_map(|&id| self.catalog.tokens(id).iter().copied()).collect();
        tokens.sort_unstable();
        tokens.dedup();
        tokens
    }

    /// Files matching a query (every query term must be a filename token).
    pub fn matching(&self, terms: &[TermId]) -> Vec<&FileMeta> {
        if terms.is_empty() {
            return Vec::new();
        }
        self.files
            .iter()
            .filter(|&&id| self.catalog.matches(id, terms))
            .map(|&id| self.catalog.meta(id))
            .collect()
    }

    /// Convenience for drivers/tests: tokenize a query string and match.
    pub fn matching_query(&self, query: &str) -> Vec<&FileMeta> {
        self.matching(&scan(query))
    }

    /// Heap bytes owned by *this node* for its share — the id list, not
    /// the shared catalog (accounted once per process).
    pub fn own_heap_bytes(&self) -> usize {
        self.files.len() * size_of::<FileId>()
    }
}

impl HeapSize for FileStore {
    /// Charges only per-node state; the shared catalog is accounted once at
    /// process level, not once per store (see [`FileStore::own_heap_bytes`]).
    fn heap_bytes(&self) -> usize {
        self.own_heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_vocab::scan_text;

    #[test]
    fn tokenize_splits_and_lowercases() {
        assert_eq!(
            scan_text("Led_Zeppelin-Stairway (live).MP3"),
            vec!["led", "zeppelin", "stairway", "live", "mp3"]
        );
        assert_eq!(scan_text(""), Vec::<String>::new());
        assert_eq!(scan_text("___"), Vec::<String>::new());
        assert_eq!(scan_text("abc123"), vec!["abc123"]);
    }

    #[test]
    fn matching_requires_all_terms() {
        let store = FileStore::new(vec![
            FileMeta::new("led_zeppelin_iv.mp3", 1),
            FileMeta::new("led_astray.avi", 2),
            FileMeta::new("pink_floyd_wall.mp3", 3),
        ]);
        assert_eq!(store.matching_query("led zeppelin").len(), 1);
        assert_eq!(store.matching_query("led").len(), 2);
        assert_eq!(store.matching_query("LED").len(), 2, "case-insensitive");
        assert_eq!(store.matching_query("led floyd").len(), 0);
        assert_eq!(store.matching_query("").len(), 0, "empty query matches nothing");
    }

    #[test]
    fn token_match_not_substring() {
        let store = FileStore::new(vec![FileMeta::new("zeppelins.mp3", 1)]);
        // "zeppelin" is a substring of token "zeppelins" but not a token.
        assert_eq!(store.matching_query("zeppelin").len(), 0);
        assert_eq!(store.matching_query("zeppelins").len(), 1);
    }

    #[test]
    fn all_tokens_dedup_and_sorted() {
        let store = FileStore::new(vec![FileMeta::new("a_b.mp3", 1), FileMeta::new("b_c.mp3", 1)]);
        let tokens = store.token_union();
        assert_eq!(tokens.len(), 4); // a, b, c, mp3
        assert!(tokens.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        // Exactly the union of the per-file sets.
        let mut names = pier_vocab::texts_of(&tokens);
        names.sort();
        assert_eq!(names, vec!["a", "b", "c", "mp3"]);
    }

    /// Sorted-slice matching must agree with the HashSet<String> scheme it
    /// replaced, on arbitrary names (see also the property test in
    /// tests/matching_equivalence.rs).
    #[test]
    fn sorted_slice_matches_hashset_reference() {
        let names = ["Some_Song (remix).mp3", "other.track.07.ogg", "Ünïcode-Näme.avi"];
        let store = FileStore::new(names.iter().map(|n| FileMeta::new(n, 1)).collect());
        for q in ["some song", "track 07", "näme", "missing term", ""] {
            let fast: Vec<&str> = store.matching_query(q).iter().map(|f| &*f.name).collect();
            let terms = scan_text(q);
            let slow: Vec<&str> = names
                .iter()
                .filter(|n| {
                    let set: std::collections::BTreeSet<String> =
                        scan_text(n).into_iter().collect();
                    !terms.is_empty() && terms.iter().all(|t| set.contains(t))
                })
                .copied()
                .collect();
            assert_eq!(fast, slow, "query {q:?}");
        }
    }

    /// A shared-catalog store must behave exactly like a store built from
    /// the same metadata via the single-owner path: same share order, same
    /// matches, same QRP token union.
    #[test]
    fn shared_store_equals_owning_store() {
        let metas: Vec<FileMeta> = ["rare_live_cut.mp3", "common_hit.mp3", "b_side.ogg"]
            .iter()
            .map(|n| FileMeta::new(n, 9))
            .collect();
        let catalog = Arc::new(ShareCatalog::build(metas.clone()));
        let shared = FileStore::shared(catalog, vec![2u32, 0].into_boxed_slice());
        let owning = FileStore::new(vec![metas[2].clone(), metas[0].clone()]);
        assert_eq!(shared.len(), owning.len());
        assert_eq!(shared.metas(), owning.metas(), "share order preserved");
        assert_eq!(shared.token_union(), owning.token_union());
        for q in ["rare live", "b side", "common", "nothing here"] {
            let a: Vec<&str> = shared.matching_query(q).iter().map(|f| &*f.name).collect();
            let b: Vec<&str> = owning.matching_query(q).iter().map(|f| &*f.name).collect();
            assert_eq!(a, b, "query {q:?}");
        }
    }

    #[test]
    fn default_store_shares_the_static_empty_catalog() {
        let a = FileStore::default();
        let b = FileStore::default();
        assert!(Arc::ptr_eq(a.catalog(), b.catalog()));
        assert!(b.qrp_view().is_view_of(&a), "one empty id list");
        assert_eq!(a.own_heap_bytes(), 0);
        assert!(a.is_empty() && a.token_union().is_empty());
        assert!(a.matching_query("anything").is_empty());
    }
}
