//! Query Routing Protocol (QRP) Bloom filters.
//!
//! LimeWire leaves publish a Bloom filter of their filename keywords to
//! their ultrapeers; ultrapeers use it for *last-hop* filtering — a query is
//! forwarded to a leaf only if every query term hits the leaf's filter
//! (footnote 2 of the paper). False positives cause harmless extra
//! forwards; false negatives cannot occur.
//!
//! Terms are interned: the Kirsch–Mitzenmacher double-hash pair of each
//! term is computed once at intern time and cached in the term table (and
//! in every [`Terms`] payload), so the flood hot path never re-hashes
//! string bytes. The cached pair is produced by the exact historical
//! per-byte mix, so filters are bit-identical to the string-hashing ones.
//!
//! There is one table geometry, LimeWire's: 65,536 slots and two hash
//! functions, so every position is a `u16`.
//!
//! A leaf does not build a filter at all: its table is a [`QrpView`] of
//! its share, read through the positions the share catalog stores once
//! per distinct file. The union of each file's positions is exactly the
//! position set of the union of its tokens, so a view answers every probe
//! as the filter built from the share would — `QrpFilter` stays as that
//! oracle. An ultrapeer screens each leaf before the exact test: a
//! 128-bit [`QrpScreen`] has bit `b` set iff some position `p` of the leaf
//! has `p >> 9 == b`, and a query with a block the screen lacks cannot
//! match that leaf.

use crate::files::FileStore;
use pier_vocab::{intern, TermId, Terms};
use std::sync::Arc;

/// log2 of the table bits one [`QrpScreen`] bit covers: 128 blocks of
/// 512 bits over the 65,536-bit table.
const SCREEN_SHIFT: u32 = 9;
/// 64-bit words in the table.
const WORDS: usize = QrpFilter::DEFAULT_BITS as usize / 64;

/// A 128-bit block screen over table positions: bit `b` is set iff some
/// position `p` has `p >> 9 == b`.
pub type QrpScreen = [u64; 2];

/// Set position `p`'s block in `screen`.
#[inline]
fn screen_add(screen: &mut QrpScreen, p: u16) {
    let b = p >> SCREEN_SHIFT;
    screen[usize::from(b >> 6)] |= 1 << (b & 63);
}

/// The table positions of terms' cached hash pairs, [`QrpFilter::DEFAULT_HASHES`]
/// per term, first term first (Kirsch–Mitzenmacher: `h1 + i·h2 mod m`).
/// The share catalog stores them per file; a probe and the filter test them.
pub(crate) fn table_positions(hashes: &[(u64, u64)]) -> impl Iterator<Item = u16> + '_ {
    let m = u64::from(QrpFilter::DEFAULT_BITS);
    hashes.iter().flat_map(move |&(h1, h2)| {
        (0..u64::from(QrpFilter::DEFAULT_HASHES))
            .map(move |i| (h1.wrapping_add(h2.wrapping_mul(i)) % m) as u16)
    })
}

/// The QRP table: a 65,536-bit Bloom filter over lowercase terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QrpFilter {
    bits: Box<[u64; WORDS]>,
}

impl QrpFilter {
    /// Standard LimeWire table size is 65,536 slots; two hashes keep the
    /// false-positive rate low at leaf-share sizes (hundreds of keywords).
    pub const DEFAULT_BITS: u32 = 65_536;
    pub const DEFAULT_HASHES: u32 = 2;

    /// An empty table.
    pub fn with_defaults() -> Self {
        QrpFilter { bits: Box::new([0; WORDS]) }
    }

    #[inline]
    fn test_bit(&self, p: u16) -> bool {
        self.bits[usize::from(p / 64)] & (1 << (p % 64)) != 0
    }

    /// Insert a batch of interned terms with one term-table read.
    pub fn insert_ids(&mut self, ids: &[TermId]) {
        for p in table_positions(&pier_vocab::qrp_hashes_of(ids)) {
            self.bits[usize::from(p / 64)] |= 1 << (p % 64);
        }
    }

    /// Insert a term by text (assumed already lowercase).
    pub fn insert(&mut self, term: &str) {
        self.insert_ids(&[intern(term)]);
    }

    /// Might this filter contain the term with this cached hash pair?
    pub fn contains_hashes(&self, h: (u64, u64)) -> bool {
        table_positions(&[h]).all(|p| self.test_bit(p))
    }

    /// Might this filter contain `term`?
    pub fn contains(&self, term: &str) -> bool {
        self.contains_hashes(pier_vocab::qrp_hashes(intern(term)))
    }

    /// Would a query (all of `terms`) route to this filter's owner? Uses
    /// the hash pairs cached in the payload — no table access, no hashing.
    pub fn matches_all(&self, terms: &Terms) -> bool {
        !terms.is_empty() && terms.qrp_hashes().iter().all(|&h| self.contains_hashes(h))
    }

    /// [`QrpFilter::matches_all`] against a precomputed [`QrpProbe`]:
    /// the same answer, with the position arithmetic hoisted out of the
    /// per-filter loop.
    pub fn matches_probe(&self, probe: &QrpProbe) -> bool {
        !probe.positions.is_empty() && probe.positions.iter().all(|&p| self.test_bit(p))
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }
}

/// One query's table positions, computed once and tested against many
/// leaves. The ultrapeer last-hop loop probes every leaf with the same
/// query, and the position arithmetic depends only on the query — so
/// hoisting it turns the inner loop into pure position tests.
pub struct QrpProbe {
    /// Flattened `terms × k` positions, first term first (the early-exit
    /// order of [`QrpFilter::matches_all`]). Empty ⇔ empty query, which
    /// routes nowhere.
    positions: Vec<u16>,
}

impl QrpProbe {
    /// Precompute the probe for `terms`.
    pub fn with_defaults(terms: &Terms) -> QrpProbe {
        let hashes = terms.qrp_hashes();
        let mut positions = Vec::with_capacity(hashes.len() * QrpFilter::DEFAULT_HASHES as usize);
        positions.extend(table_positions(hashes));
        QrpProbe { positions }
    }

    /// The blocks of the probe's positions: a leaf whose
    /// [`QrpView::screen`] lacks one cannot match.
    pub fn screen(&self) -> QrpScreen {
        let mut screen = [0; 2];
        self.positions.iter().for_each(|&p| screen_add(&mut screen, p));
        screen
    }
}

/// A leaf's QRP table: a read-only view of its share, matched through the
/// positions its catalog stores once per distinct file. It exposes only
/// what an ultrapeer needs to route — its screen and the exact probe test
/// — never the share's tokens or files. Cloning it costs two `Arc` bumps.
#[derive(Clone, Debug)]
pub struct QrpView(pub(crate) FileStore);

impl QrpView {
    /// The positions of each shared file, in share order.
    fn spans(&self) -> impl Iterator<Item = &[u16]> + '_ {
        let store = &self.0;
        store.files.iter().map(|&f| store.catalog.qrp_positions(f))
    }

    /// The blocks of every position the share sets.
    pub fn screen(&self) -> QrpScreen {
        let mut screen = [0; 2];
        self.spans().flatten().for_each(|&p| screen_add(&mut screen, p));
        screen
    }

    /// Would the probe's query route to this leaf: is every probe position
    /// set by some shared file? The same answer as
    /// [`QrpFilter::matches_probe`] on the filter built from the share.
    pub fn matches(&self, probe: &QrpProbe) -> bool {
        !probe.positions.is_empty()
            && probe
                .positions
                .iter()
                .all(|p| self.spans().any(|span| span.binary_search(p).is_ok()))
    }

    /// Is this a view of `store`'s own id list (no copy of it)?
    pub fn is_view_of(&self, store: &FileStore) -> bool {
        Arc::ptr_eq(&self.0.files, &store.files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = QrpFilter::with_defaults();
        let terms: Vec<String> = (0..500).map(|i| format!("term{i}")).collect();
        for t in &terms {
            f.insert(t);
        }
        for t in &terms {
            assert!(f.contains(t), "false negative on {t}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = QrpFilter::with_defaults();
        for i in 0..300 {
            f.insert(&format!("present{i}"));
        }
        let fp = (0..10_000).filter(|i| f.contains(&format!("absent{i}"))).count();
        let rate = fp as f64 / 10_000.0;
        // 300 keywords in 65536 bits with k=2: expected fp rate well below 1%.
        assert!(rate < 0.01, "false positive rate {rate}");
    }

    #[test]
    fn matches_all_semantics() {
        let mut f = QrpFilter::with_defaults();
        f.insert("led");
        f.insert("zeppelin");
        assert!(f.matches_all(&Terms::from_text("led zeppelin")));
        assert!(f.matches_all(&Terms::from_text("led")));
        assert!(!f.matches_all(&Terms::from_text("led floyd")));
        assert!(!f.matches_all(&Terms::from_text("")), "empty query routes nowhere");
    }

    #[test]
    fn id_and_string_paths_agree() {
        // The cached-hash path must produce bit-identical filters to the
        // historical string-hashing path (same bits, same answers).
        let mut by_str = QrpFilter::with_defaults();
        let mut by_id = QrpFilter::with_defaults();
        let terms = ["led", "zeppelin", "stairway", "07"];
        for t in &terms {
            by_str.insert(t);
        }
        let ids: Vec<TermId> = terms.iter().map(|t| intern(t)).collect();
        by_id.insert_ids(&ids);
        assert_eq!(by_id, by_str, "cached hashes must set the exact same bits");
        for (t, id) in terms.iter().zip(&ids) {
            assert!(by_id.contains(t));
            assert!(by_str.contains_hashes(pier_vocab::qrp_hashes(*id)));
        }
    }

    #[test]
    fn probe_agrees_with_matches_all() {
        let mut f = QrpFilter::with_defaults();
        for t in ["led", "zeppelin", "stairway"] {
            f.insert(t);
        }
        for text in ["led zeppelin", "led", "led floyd", "floyd", ""] {
            let q = Terms::from_text(text);
            assert_eq!(
                f.matches_probe(&QrpProbe::with_defaults(&q)),
                f.matches_all(&q),
                "{text:?}"
            );
        }
    }

    #[test]
    fn filter_header_stays_32_bytes() {
        // A filter is this header plus its table: any inline field here is
        // paid once per filter the oracle builds.
        assert!(size_of::<QrpFilter>() <= 32, "QrpFilter is {} B", size_of::<QrpFilter>());
    }
}
