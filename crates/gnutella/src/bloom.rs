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
//! A leaf share is a few hundred keywords against a 65,536-slot table, so
//! over 99% of the bits are zero. The filter is therefore two-mode: it starts
//! [`Repr::Sparse`] — a sorted slice of set bit positions, binary-searched
//! on probe — and promotes itself to the classic [`Repr::Dense`]
//! bit table once the position count crosses [`QrpFilter::sparse_limit`]
//! (the break-even point where 4-byte positions would cost more than the
//! `m/8`-byte table). The two representations are semantically identical:
//! same positions set, same membership answers, same wire size. Equality
//! and the content hash both speak the canonical position set, never the
//! representation, so promotion can never perturb a determinism pin.
//!
//! Every probe goes through an inline 4096-block summary bitmap first
//! (`QrpFilter::summary`): one 512-byte-resident load rejects probes to
//! clear blocks before any repr dispatch, table access, or binary search —
//! the O(1) fast path of the miss-dominated last-hop loop. An ultrapeer
//! goes one step further and ORs its leaves' summaries into one
//! [`QrpUnion`]: a query with any position in a block no leaf has set
//! cannot match any of them, so the loop is not entered at all.

use pier_vocab::{intern, TermId, Terms};

/// Words in a filter's inline block-summary bitmap. 64 words cover 4,096
/// blocks of 16 bits each over the default 65,536-bit table: at leaf-share
/// densities (hundreds of set bits) ~96% of the blocks are clear, so the
/// summary settles almost every miss probe with a single 512-byte-resident
/// load.
const SUMMARY_WORDS: usize = 64;
/// Blocks the summary covers: bit `b` is set iff some position lands in
/// block `b` (blocks alias mod 4096 for tables above 65,536 bits).
const SUMMARY_BLOCKS: u32 = (SUMMARY_WORDS * 64) as u32;
/// log2 of the bit positions per summary block (16-bit blocks).
const SUMMARY_SHIFT: u32 = 4;

/// Set-bit storage. `Sparse` holds the ascending, duplicate-free bit
/// positions; `Dense` is the flat bit table. Promotion is monotone:
/// inserts may turn `Sparse` into `Dense`, never the reverse.
#[derive(Clone, Debug)]
enum Repr {
    Sparse(Box<[u32]>),
    Dense(Vec<u64>),
}

/// Word index and bit mask of position `p`'s block in a summary bitmap.
#[inline]
fn summary_slot(p: u32) -> (usize, u64) {
    let b = (p >> SUMMARY_SHIFT) % SUMMARY_BLOCKS;
    ((b >> 6) as usize, 1 << (b & 63))
}

/// The summary bitmap of a sorted position set.
fn summary_of(positions: &[u32]) -> [u64; SUMMARY_WORDS] {
    let mut s = [0u64; SUMMARY_WORDS];
    for &p in positions {
        let (w, bit) = summary_slot(p);
        s[w] |= bit;
    }
    s
}

/// A fixed-size Bloom filter over lowercase terms.
#[derive(Clone, Debug)]
pub struct QrpFilter {
    /// First-level block summary: bit `b` is set iff some position lands
    /// in 16-bit block `b mod 4096`. A probe whose block bit is clear is
    /// rejected with this one load — no repr dispatch, no table or
    /// position-slice access. At leaf-share densities (hundreds of set
    /// bits in 65,536) the summary is ~96% clear, so the miss-dominated
    /// last-hop path almost never leaves these 512 bytes. Derived state:
    /// maintained on every insert, never hashed or compared.
    summary: [u64; SUMMARY_WORDS],
    repr: Repr,
    /// Number of bits (power of two not required).
    m: u32,
    /// Hash functions per term.
    k: u32,
}

impl pier_netsim::HeapSize for QrpFilter {
    fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Sparse(pos) => pos.len() * size_of::<u32>(),
            Repr::Dense(bits) => bits.capacity() * size_of::<u64>(),
        }
    }
}

/// Bit position `i` of a term's cached double-hash pair in an `m`-bit
/// table (Kirsch–Mitzenmacher: `h1 + i·h2 mod m`).
#[inline]
fn bit_position(m: u32, (h1, h2): (u64, u64), i: u32) -> u32 {
    (h1.wrapping_add(h2.wrapping_mul(i as u64)) % m as u64) as u32
}

/// Ascending set-bit positions of a dense table.
fn dense_positions(bits: &[u64]) -> impl Iterator<Item = u32> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        (0..64u32).filter(move |b| word >> b & 1 == 1).map(move |b| w as u32 * 64 + b)
    })
}

impl QrpFilter {
    /// Standard LimeWire table size is 65,536 slots; two hashes keep the
    /// false-positive rate low at leaf-share sizes (hundreds of keywords).
    pub const DEFAULT_BITS: u32 = 65_536;
    pub const DEFAULT_HASHES: u32 = 2;

    pub fn new(m: u32, k: u32) -> Self {
        assert!(m >= 64, "filter too small");
        assert!(k >= 1);
        QrpFilter { summary: [0; SUMMARY_WORDS], repr: Repr::Sparse(Box::default()), m, k }
    }

    pub fn with_defaults() -> Self {
        QrpFilter::new(Self::DEFAULT_BITS, Self::DEFAULT_HASHES)
    }

    /// Positions a sparse table may hold before promoting to dense: at
    /// 4 bytes per position, `m/32` positions cost exactly the dense
    /// table's `m/8` bytes, so sparse storage never exceeds dense.
    pub const fn sparse_limit(m: u32) -> usize {
        (m / 32) as usize
    }

    /// Is the filter still in the sparse position-list representation?
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// Force the dense bit-table representation (the pre-sparse layout;
    /// benchmarks use it as the comparison plane). Inserts promote
    /// automatically past [`QrpFilter::sparse_limit`].
    pub fn promote_to_dense(&mut self) {
        if let Repr::Sparse(pos) = &self.repr {
            let mut bits = vec![0u64; self.m.div_ceil(64) as usize];
            for &p in pos.iter() {
                bits[(p / 64) as usize] |= 1 << (p % 64);
            }
            self.repr = Repr::Dense(bits);
        }
    }

    /// Install a sorted duplicate-free position set, promoting when it
    /// crosses the sparse limit.
    fn set_positions(&mut self, positions: Vec<u32>) {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must be sorted+deduped"
        );
        self.summary = summary_of(&positions);
        if positions.len() > Self::sparse_limit(self.m) {
            let mut bits = vec![0u64; self.m.div_ceil(64) as usize];
            for p in positions {
                bits[(p / 64) as usize] |= 1 << (p % 64);
            }
            self.repr = Repr::Dense(bits);
        } else {
            self.repr = Repr::Sparse(positions.into_boxed_slice());
        }
    }

    #[inline]
    fn set_bit(&mut self, p: u32) {
        let (w, bit) = summary_slot(p);
        self.summary[w] |= bit;
        match &mut self.repr {
            Repr::Dense(bits) => bits[(p / 64) as usize] |= 1 << (p % 64),
            Repr::Sparse(pos) => {
                if let Err(at) = pos.binary_search(&p) {
                    let mut v = Vec::with_capacity(pos.len() + 1);
                    v.extend_from_slice(&pos[..at]);
                    v.push(p);
                    v.extend_from_slice(&pos[at..]);
                    self.set_positions(v);
                }
            }
        }
    }

    #[inline]
    fn test_bit(&self, p: u32) -> bool {
        // Summary first: one load settles ~96% of probes at leaf-share
        // densities, for either representation.
        let (w, bit) = summary_slot(p);
        if self.summary[w] & bit == 0 {
            return false;
        }
        match &self.repr {
            Repr::Dense(bits) => bits[(p / 64) as usize] & (1 << (p % 64)) != 0,
            Repr::Sparse(pos) => pos.binary_search(&p).is_ok(),
        }
    }

    /// Insert an interned term.
    pub fn insert_id(&mut self, id: TermId) {
        self.insert_hashes(pier_vocab::qrp_hashes(id));
    }

    /// Insert a batch of interned terms with one table read. On a sparse
    /// filter this merges every new position in one sort+dedup instead of
    /// rebuilding the slice per bit — the path every leaf publish takes.
    pub fn insert_ids(&mut self, ids: &[TermId]) {
        let hashes = pier_vocab::qrp_hashes_of(ids);
        let merged = match &self.repr {
            Repr::Dense(_) => None,
            Repr::Sparse(existing) => {
                let mut v = Vec::with_capacity(existing.len() + hashes.len() * self.k as usize);
                v.extend_from_slice(existing);
                for &h in &hashes {
                    for i in 0..self.k {
                        v.push(bit_position(self.m, h, i));
                    }
                }
                v.sort_unstable();
                v.dedup();
                Some(v)
            }
        };
        match merged {
            Some(v) => self.set_positions(v),
            None => {
                for h in hashes {
                    self.insert_hashes(h);
                }
            }
        }
    }

    fn insert_hashes(&mut self, h: (u64, u64)) {
        // One pass: each position is computed and set in place (no
        // temporary position buffer).
        for i in 0..self.k {
            self.set_bit(bit_position(self.m, h, i));
        }
    }

    /// Insert a term by text (assumed already lowercase).
    pub fn insert(&mut self, term: &str) {
        self.insert_id(intern(term));
    }

    /// Might this filter contain the term with this cached hash pair?
    pub fn contains_hashes(&self, h: (u64, u64)) -> bool {
        (0..self.k).all(|i| self.test_bit(bit_position(self.m, h, i)))
    }

    /// Might this filter contain this interned term?
    pub fn contains_id(&self, id: TermId) -> bool {
        self.contains_hashes(pier_vocab::qrp_hashes(id))
    }

    /// Might this filter contain `term`?
    pub fn contains(&self, term: &str) -> bool {
        self.contains_id(intern(term))
    }

    /// Would a query (all of `terms`) route to this filter's owner? Uses
    /// the hash pairs cached in the payload — no table access, no hashing.
    pub fn matches_all(&self, terms: &Terms) -> bool {
        !terms.is_empty() && terms.qrp_hashes().iter().all(|&h| self.contains_hashes(h))
    }

    /// [`QrpFilter::matches_all`] against a precomputed [`QrpProbe`].
    /// Same answer for any filter; the probe just hoists the position
    /// arithmetic out of the per-filter loop.
    pub fn matches_probe(&self, probe: &QrpProbe) -> bool {
        if self.m == probe.m && self.k == probe.k {
            !probe.positions.is_empty() && probe.positions.iter().all(|&p| self.test_bit(p))
        } else {
            // Geometry mismatch (never the case inside one network):
            // recompute positions for this filter's own table.
            self.matches_all(&probe.terms)
        }
    }

    /// Wire size when published leaf→ultrapeer. Real QRP sends a compressed
    /// patch; raw table bytes are a conservative upper bound and what we
    /// account — deliberately representation-independent, so the in-memory
    /// sparse/dense split never shows up in message byte totals.
    pub fn wire_size(&self) -> usize {
        (self.m as usize).div_ceil(8)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        match &self.repr {
            Repr::Sparse(pos) => pos.len() as u32,
            Repr::Dense(bits) => bits.iter().map(|w| w.count_ones()).sum(),
        }
    }

    /// Content hash over `(m, k, set positions)` — what the process-wide
    /// filter catalog interns on. Representation-independent, like `Eq`.
    pub fn content_hash(&self) -> u64 {
        let mut state = (self.m as u64) << 32 | self.k as u64;
        let mut acc = pier_netsim::split_mix64(&mut state);
        let mut fold = |p: u32| {
            state = acc ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            acc = pier_netsim::split_mix64(&mut state);
        };
        match &self.repr {
            Repr::Sparse(pos) => pos.iter().copied().for_each(&mut fold),
            Repr::Dense(bits) => dense_positions(bits).for_each(&mut fold),
        }
        acc
    }
}

/// One query's probe positions against `(m, k)` tables, computed once and
/// tested against many filters. The ultrapeer last-hop loop probes every
/// leaf filter with the same query, and the position arithmetic (a 64-bit
/// modulo per bit) depends only on the query and the table geometry — so
/// hoisting it turns the inner loop into pure bit tests.
pub struct QrpProbe {
    m: u32,
    k: u32,
    /// Flattened `terms × k` positions, first term first (the early-exit
    /// order of [`QrpFilter::matches_all`]). Empty ⇔ empty query, which
    /// routes nowhere.
    positions: Vec<u32>,
    /// The query (an `Arc` bump, not a copy): its cached hash pairs serve
    /// the geometry-mismatch fallback.
    terms: Terms,
}

impl QrpProbe {
    /// Precompute the probe for `terms` against `(m, k)` tables.
    pub fn new(m: u32, k: u32, terms: &Terms) -> QrpProbe {
        let hashes = terms.qrp_hashes();
        let mut positions = Vec::with_capacity(hashes.len() * k as usize);
        for &h in hashes {
            for i in 0..k {
                positions.push(bit_position(m, h, i));
            }
        }
        QrpProbe { m, k, positions, terms: terms.clone() }
    }

    /// Probe against the standard LimeWire table geometry.
    pub fn with_defaults(terms: &Terms) -> QrpProbe {
        QrpProbe::new(QrpFilter::DEFAULT_BITS, QrpFilter::DEFAULT_HASHES, terms)
    }

    /// Could any filter folded into `union` match this probe? `false` is
    /// exact — a filter matches only if every probe position is set, hence
    /// every position's block is set in its summary and so in the union —
    /// and costs at most one load per position in 512 resident bytes.
    /// `true` means "ask the filters": every position's block is some
    /// leaf's, or the union cannot speak for this probe's geometry.
    pub(crate) fn may_match_any(&self, union: &QrpUnion) -> bool {
        if union.foreign || (self.m, self.k) != QrpUnion::GEOMETRY {
            return true;
        }
        !self.positions.is_empty()
            && self.positions.iter().all(|&p| {
                let (w, bit) = summary_slot(p);
                union.blocks[w] & bit != 0
            })
    }
}

/// The union of many filters' block summaries: one screen in front of an
/// ultrapeer's whole last-hop loop. Block `b` is set iff some folded
/// filter of the standard table geometry has a position in block `b`; a
/// filter of any other geometry sets `foreign`, which turns the screen off
/// (its positions for the same term land elsewhere, so the union cannot
/// rule it out). Grow-only: a filter leaving the set means rebuilding
/// from the rest.
#[derive(Clone, Debug)]
pub(crate) struct QrpUnion {
    blocks: [u64; SUMMARY_WORDS],
    foreign: bool,
}

impl QrpUnion {
    /// The `(m, k)` the union speaks for — what
    /// [`QrpProbe::with_defaults`] probes.
    const GEOMETRY: (u32, u32) = (QrpFilter::DEFAULT_BITS, QrpFilter::DEFAULT_HASHES);

    /// The union of no filters.
    pub(crate) fn new() -> Self {
        QrpUnion { blocks: [0; SUMMARY_WORDS], foreign: false }
    }

    /// Fold one more filter in.
    pub(crate) fn add(&mut self, filter: &QrpFilter) {
        if (filter.m, filter.k) == Self::GEOMETRY {
            for (u, s) in self.blocks.iter_mut().zip(&filter.summary) {
                *u |= s;
            }
        } else {
            self.foreign = true;
        }
    }
}

/// Equality is over content — `(m, k, set positions)` — not representation,
/// so a promoted filter equals its never-promoted twin.
impl PartialEq for QrpFilter {
    fn eq(&self, other: &Self) -> bool {
        if self.m != other.m || self.k != other.k {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => a == b,
            (Repr::Dense(a), Repr::Dense(b)) => a == b,
            (Repr::Sparse(s), Repr::Dense(d)) | (Repr::Dense(d), Repr::Sparse(s)) => {
                s.len() as u32 == d.iter().map(|w| w.count_ones()).sum::<u32>()
                    && s.iter().all(|&p| d[(p / 64) as usize] & (1 << (p % 64)) != 0)
            }
        }
    }
}

impl Eq for QrpFilter {}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_netsim::HeapSize;

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
        let mut by_str = QrpFilter::new(1024, 3);
        let mut by_id = QrpFilter::new(1024, 3);
        let terms = ["led", "zeppelin", "stairway", "07"];
        for t in &terms {
            by_str.insert(t);
        }
        let ids: Vec<TermId> = terms.iter().map(|t| intern(t)).collect();
        by_id.insert_ids(&ids);
        assert_eq!(by_id, by_str, "cached hashes must set the exact same bits");
        for (t, id) in terms.iter().zip(&ids) {
            assert!(by_id.contains(t));
            assert!(by_str.contains_id(*id));
        }
    }

    #[test]
    fn wire_size_matches_table() {
        let f = QrpFilter::with_defaults();
        assert_eq!(f.wire_size(), 8192);
        assert_eq!(QrpFilter::new(100, 2).wire_size(), 13);
    }

    #[test]
    fn promotion_at_threshold_preserves_content() {
        // m=1024 → sparse_limit 32 positions. Drive a filter across the
        // threshold one term at a time and check it against an eagerly
        // dense twin at every step.
        let mut adaptive = QrpFilter::new(1024, 2);
        let mut eager = QrpFilter::new(1024, 2);
        eager.promote_to_dense();
        assert_eq!(QrpFilter::sparse_limit(1024), 32);
        let mut crossed = false;
        for i in 0..100 {
            let t = format!("promo{i}");
            adaptive.insert(&t);
            eager.insert(&t);
            assert_eq!(adaptive, eager, "content diverged at term {i}");
            assert_eq!(adaptive.count_ones(), eager.count_ones());
            assert_eq!(adaptive.content_hash(), eager.content_hash());
            if !adaptive.is_sparse() {
                crossed = true;
            }
        }
        assert!(crossed, "100 terms × k=2 in 1024 bits must cross the 32-position limit");
        assert!(!adaptive.is_sparse(), "promotion is monotone");
    }

    #[test]
    fn sparse_heap_is_bounded_by_dense() {
        let mut f = QrpFilter::with_defaults();
        let mut dense = QrpFilter::with_defaults();
        dense.promote_to_dense();
        let dense_bytes = dense.heap_bytes();
        assert_eq!(dense_bytes, 8192);
        for i in 0..3000 {
            f.insert(&format!("s{i}"));
            assert!(
                f.heap_bytes() <= dense_bytes,
                "repr must never cost more than the dense table ({} > {dense_bytes})",
                f.heap_bytes()
            );
        }
        // A typical leaf share (hundreds of keywords) stays far under.
        let mut leaf = QrpFilter::with_defaults();
        for i in 0..200 {
            leaf.insert(&format!("leaf{i}"));
        }
        assert!(leaf.is_sparse());
        assert!(leaf.heap_bytes() <= 400 * 4);
    }

    #[test]
    fn probe_agrees_with_matches_all() {
        let mut sparse = QrpFilter::with_defaults();
        for t in ["led", "zeppelin", "stairway"] {
            sparse.insert(t);
        }
        let mut dense = sparse.clone();
        dense.promote_to_dense();
        let mut other_geometry = QrpFilter::new(1024, 3);
        other_geometry.insert("led");
        other_geometry.insert("zeppelin");
        for text in ["led zeppelin", "led", "led floyd", "floyd", ""] {
            let q = Terms::from_text(text);
            let probe = QrpProbe::with_defaults(&q);
            assert_eq!(sparse.matches_probe(&probe), sparse.matches_all(&q), "sparse {text:?}");
            assert_eq!(dense.matches_probe(&probe), dense.matches_all(&q), "dense {text:?}");
            assert_eq!(
                other_geometry.matches_probe(&probe),
                other_geometry.matches_all(&q),
                "mismatched geometry must fall back, not misroute: {text:?}"
            );
        }
    }

    #[test]
    fn content_hash_distinguishes_and_matches() {
        let mut a = QrpFilter::with_defaults();
        let mut b = QrpFilter::with_defaults();
        a.insert("same");
        b.insert("same");
        assert_eq!(a.content_hash(), b.content_hash());
        b.insert("extra");
        assert_ne!(a.content_hash(), b.content_hash());
        assert_ne!(
            QrpFilter::new(128, 2).content_hash(),
            QrpFilter::new(128, 3).content_hash(),
            "dimensions are part of the content"
        );
    }
}
