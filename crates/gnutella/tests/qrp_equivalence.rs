//! Property tests pinning the sparse QRP representation to the dense
//! bit tables it replaced: a filter built from arbitrary term sets must
//! answer every probe identically before and after `promote_to_dense`,
//! a hoisted [`QrpProbe`] must agree with per-term matching on either
//! representation (and across geometry mismatches), and a Bloom filter's
//! one hard guarantee — no false negatives — must hold for every
//! inserted term. These are the semantics the golden determinism pins
//! ride on: if sparse and dense ever diverge, message counts shift.
//! Sparse positions are 2-byte, so the top of the 16-bit range is pinned
//! bit by bit, and tables too wide for it must start dense.
//!
//! A leaf publishes no filter, only a [`QrpView`] of its share; the filter
//! built from the share's token union is the oracle it must equal on every
//! probe, with a screen that never rejects a leaf the view matches.

use pier_gnutella::{FileMeta, FileStore, QrpFilter, QrpProbe, QrpScreen, Terms};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Build one sparse and one (force-promoted) dense filter from the same
/// term names. The sparse side is only promoted by its density
/// heuristic, so small term sets keep it sparse — asserted below.
fn both_planes(names: &[String]) -> (QrpFilter, QrpFilter) {
    let mut sparse = QrpFilter::with_defaults();
    for n in names {
        sparse.insert(n);
    }
    let mut dense = sparse.clone();
    dense.promote_to_dense();
    (sparse, dense)
}

proptest! {
    /// Representation is invisible: equality, content hash, wire size,
    /// population count, and every single-term probe agree between the
    /// sparse filter and its promoted copy.
    #[test]
    fn sparse_equals_promoted_dense(
        names in proptest::collection::vec("[a-z0-9]{2,8}", 0..40),
        probes in proptest::collection::vec("[a-z0-9]{2,8}", 0..20),
    ) {
        let (sparse, dense) = both_planes(&names);
        prop_assert!(sparse.is_sparse(), "40 terms × k=2 stays far under the density threshold");
        prop_assert!(!dense.is_sparse());
        prop_assert_eq!(&sparse, &dense);
        prop_assert_eq!(sparse.content_hash(), dense.content_hash());
        prop_assert_eq!(sparse.wire_size(), dense.wire_size());
        prop_assert_eq!(sparse.count_ones(), dense.count_ones());
        for p in &probes {
            prop_assert!(sparse.contains(p) == dense.contains(p), "probe {:?} diverged", p);
        }
    }

    /// A Bloom filter never lies about membership: every inserted term
    /// is contained, and any query drawn from the inserted set matches,
    /// on both representations.
    #[test]
    fn no_false_negatives(
        names in proptest::collection::vec("[a-z0-9]{2,8}", 1..40),
        pick in proptest::collection::vec(any::<u32>(), 1..5),
    ) {
        let (sparse, dense) = both_planes(&names);
        for n in &names {
            prop_assert!(sparse.contains(n));
            prop_assert!(dense.contains(n));
        }
        let query: Vec<String> =
            pick.iter().map(|&i| names[i as usize % names.len()].clone()).collect();
        let terms = Terms::from_text(&query.join(" "));
        prop_assert!(sparse.matches_all(&terms));
        prop_assert!(dense.matches_all(&terms));
    }

    /// The hoisted probe is a pure optimization: `matches_probe` equals
    /// `matches_all` on both representations, whether the probe's
    /// geometry matches the filter's (position fast path) or not
    /// (stored-hash fallback).
    #[test]
    fn probe_equals_per_term_matching(
        names in proptest::collection::vec("[a-z0-9]{2,8}", 0..40),
        query in "[a-z0-9 ]{0,30}",
    ) {
        let (sparse, dense) = both_planes(&names);
        let terms = Terms::from_text(&query);
        let probe = QrpProbe::with_defaults(&terms);
        prop_assert_eq!(sparse.matches_probe(&probe), sparse.matches_all(&terms));
        prop_assert_eq!(dense.matches_probe(&probe), dense.matches_all(&terms));

        let mut other = QrpFilter::new(QrpFilter::DEFAULT_BITS / 2, QrpFilter::DEFAULT_HASHES);
        for n in &names {
            other.insert(n);
        }
        prop_assert_eq!(other.matches_probe(&probe), other.matches_all(&terms));
    }

    /// 2-byte positions reach the top of the 16-bit range: over the upper
    /// half of the default table (32,768 … 65,535) the sparse list and its
    /// promoted table set exactly the same bits. `TOP_TERM` lands on
    /// 65,535 itself, so the last position is always exercised.
    #[test]
    fn sparse_and_dense_agree_at_the_top_of_the_16_bit_range(
        names in proptest::collection::vec("[a-z0-9]{2,8}", 0..200),
    ) {
        let mut names = names;
        names.push(TOP_TERM.to_string());
        let (sparse, dense) = both_planes(&names);
        prop_assert!(sparse.is_sparse());
        // `(p, 0)` probes bit `p` alone, for every hash function.
        let bit = |f: &QrpFilter, p: u32| f.contains_hashes((u64::from(p), 0));
        prop_assert!(bit(&sparse, 65_535) && bit(&dense, 65_535));
        let mut upper = 0;
        for p in 32_768..QrpFilter::DEFAULT_BITS {
            prop_assert_eq!(bit(&sparse, p), bit(&dense, p), "position {}", p);
            upper += u32::from(bit(&sparse, p));
        }
        let lower = (0..32_768).filter(|&p| bit(&dense, p)).count() as u32;
        prop_assert_eq!(lower + upper, sparse.count_ones());
        prop_assert_eq!(sparse.content_hash(), dense.content_hash());
    }
}

/// A term whose second QRP position in the default table is 65,535 (found
/// by scanning `top0`, `top1`, …; asserted below).
const TOP_TERM: &str = "top55724";

#[test]
fn the_top_term_lands_on_the_last_position() {
    let (h1, h2) = pier_vocab::qrp_hashes(pier_vocab::intern(TOP_TERM));
    let m = u64::from(QrpFilter::DEFAULT_BITS);
    assert_eq!(h1.wrapping_add(h2) % m, 65_535);
}

/// Positions of a table wider than 65,536 bits do not fit 2 bytes, so
/// such a filter starts dense; up to 65,536 bits it starts sparse.
#[test]
fn a_filter_wider_than_16_bit_positions_starts_dense() {
    assert!(QrpFilter::new(65_536, 2).is_sparse());
    assert_eq!(QrpFilter::sparse_limit(65_536), 4_096);
    let mut wide = QrpFilter::new(65_537, 2);
    assert!(!wide.is_sparse());
    let mut wider = QrpFilter::new(1 << 20, 3);
    assert!(!wider.is_sparse());
    for t in ["alpha", "bravo", TOP_TERM] {
        wide.insert(t);
        wider.insert(t);
    }
    for t in ["alpha", "bravo", TOP_TERM] {
        assert!(wide.contains(t) && wider.contains(t), "{t}");
    }
    assert_eq!(wide.count_ones(), 6, "three terms × k=2, no collision");
}

/// The 128-block screen of the oracle's set bits (`(p, 0)` probes bit `p`
/// alone, for every hash function).
fn oracle_screen(filter: &QrpFilter) -> QrpScreen {
    let mut screen = [0; 2];
    for p in (0..QrpFilter::DEFAULT_BITS).filter(|&p| filter.contains_hashes((u64::from(p), 0))) {
        screen[(p >> 15) as usize] |= 1 << (p >> 9 & 63);
    }
    screen
}

/// `store`'s view against the filter of its token union, on every query.
fn view_equals_filter(store: &FileStore, queries: &[Terms]) -> Result<(), TestCaseError> {
    let mut filter = QrpFilter::with_defaults();
    filter.insert_ids(&store.token_union());
    let view = store.qrp_view();
    let screen = view.screen();
    prop_assert_eq!(screen, oracle_screen(&filter));
    for q in queries {
        let probe = QrpProbe::with_defaults(q);
        let routed = view.matches(&probe);
        prop_assert_eq!(routed, filter.matches_probe(&probe), "{:?}", q);
        let other = QrpProbe::new(1024, 3, q);
        prop_assert_eq!(view.matches(&other), routed, "another geometry's probe: {:?}", q);
        let need = probe.screen();
        let admitted = need[0] & !screen[0] | need[1] & !screen[1] == 0;
        prop_assert!(admitted || !routed, "the screen rejected a matching leaf: {:?}", q);
    }
    Ok(())
}

/// File names of one to four words from a small pool, so shares overlap.
fn file_name() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-h][0-9]", 1..5).prop_map(|words| words.join("_"))
}

proptest! {
    /// A share view is its filter: shares of up to 64 files drawn from one
    /// catalog (empty shares and files listed twice among them), plus one
    /// share of more than 2,048 tokens, whose filter is dense.
    #[test]
    fn share_view_equals_its_filter(
        names in prop::collection::vec(file_name(), 1..40),
        shares in prop::collection::vec(prop::collection::vec(0usize..1_000, 0..65), 1..6),
        big_tokens in 2_300usize..2_600,
        queries in prop::collection::vec("[a-h][0-9]( [a-h][0-9]){0,2}", 1..16),
    ) {
        let mut metas: Vec<Vec<FileMeta>> = shares
            .iter()
            .map(|picks| picks.iter().map(|&i| FileMeta::new(&names[i % names.len()], 1)).collect())
            .collect();
        // 40 tokens a file, every one distinct.
        let big: Vec<String> = (0..big_tokens).map(|t| format!("big{t}")).collect();
        metas.push(big.chunks(40).map(|words| FileMeta::new(&words.join("_"), 2)).collect());
        let stores = FileStore::shared_all(metas);

        let mut filter = QrpFilter::with_defaults();
        filter.insert_ids(&stores[stores.len() - 1].token_union());
        prop_assert!(!filter.is_sparse(), "{} tokens make a dense filter", big_tokens);

        let mut queries: Vec<Terms> = queries.iter().map(|q| Terms::from_text(q)).collect();
        queries.extend(["", "big0", "big7 big2299", "big0 a0"].map(Terms::from_text));
        for store in &stores {
            // Some queries the share surely matches: its own tokens.
            let own = pier_vocab::texts_of(&store.token_union());
            queries.extend(own.chunks(2).take(3).map(|words| Terms::from_text(&words.join(" "))));
        }
        for store in &stores {
            view_equals_filter(store, &queries)?;
        }
    }
}
