//! Property tests pinning the QRP table's semantics: a hoisted
//! [`QrpProbe`] must agree with per-term matching, and a Bloom filter's
//! one hard guarantee — no false negatives — must hold for every inserted
//! term. These are the semantics the golden determinism pins ride on.
//!
//! A leaf publishes no filter, only a [`QrpView`] of its share; the filter
//! built from the share's token union is the oracle it must equal on every
//! probe, with a screen that never rejects a leaf the view matches.
//! Positions are 2-byte, so a share holding `TOP_TERM`, whose position is
//! the last of the table, pins the top of the 16-bit range.

use pier_gnutella::{FileMeta, FileStore, QrpFilter, QrpProbe, QrpScreen, Terms};
use proptest::prelude::*;
use proptest::TestCaseError;

/// The filter of `names`.
fn filter_of(names: &[String]) -> QrpFilter {
    let mut filter = QrpFilter::with_defaults();
    for n in names {
        filter.insert(n);
    }
    filter
}

proptest! {
    /// A Bloom filter never lies about membership: every inserted term
    /// is contained, and any query drawn from the inserted set matches.
    #[test]
    fn no_false_negatives(
        names in proptest::collection::vec("[a-z0-9]{2,8}", 1..40),
        pick in proptest::collection::vec(any::<u32>(), 1..5),
    ) {
        let filter = filter_of(&names);
        for n in &names {
            prop_assert!(filter.contains(n));
        }
        let query: Vec<String> =
            pick.iter().map(|&i| names[i as usize % names.len()].clone()).collect();
        prop_assert!(filter.matches_all(&Terms::from_text(&query.join(" "))));
    }

    /// The hoisted probe is a pure optimization: `matches_probe` equals
    /// `matches_all`.
    #[test]
    fn probe_equals_per_term_matching(
        names in proptest::collection::vec("[a-z0-9]{2,8}", 0..40),
        query in "[a-z0-9 ]{0,30}",
    ) {
        let filter = filter_of(&names);
        let terms = Terms::from_text(&query);
        prop_assert_eq!(filter.matches_probe(&QrpProbe::with_defaults(&terms)), filter.matches_all(&terms));
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
    /// share of more than 2,048 tokens and one whose file sets the table's
    /// last position.
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
        metas.push(vec![FileMeta::new(&format!("{TOP_TERM}_a0"), 3)]);
        let stores = FileStore::shared_all(metas);

        let mut queries: Vec<Terms> = queries.iter().map(|q| Terms::from_text(q)).collect();
        queries.extend(["", "big0", "big7 big2299", "big0 a0", TOP_TERM].map(Terms::from_text));
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
