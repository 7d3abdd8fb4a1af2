//! The QRP positions a [`Terms`] carries, against a reference copy of the
//! historical per-term hash mix. Every Bloom bit a leaf's table sets and
//! every position an ultrapeer tests comes from these positions, so a
//! drift in the mix, the double-hashing step or the term order would move
//! every routing decision while each table still agreed with itself.

use pier_vocab::{Terms, QRP_HASHES, QRP_TABLE_BITS};
use proptest::prelude::*;

/// SplitMix64, copied here so that a change to the simulator's generator
/// shows up as a moved position.
fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The positions the historical filter set for `term`: the per-byte mix
/// gives the pair `(h1, h2)` (`h2` odd), and position `i` is
/// `(h1 + i·h2) mod 65,536`.
fn reference_positions(term: &str) -> Vec<u16> {
    let mut state = 0xF11E_D00D_u64;
    for &b in term.as_bytes() {
        state = state.rotate_left(8) ^ u64::from(b);
        split_mix64(&mut state);
    }
    let h1 = split_mix64(&mut state);
    let h2 = split_mix64(&mut state) | 1;
    (0..2u64).map(|i| (h1.wrapping_add(h2.wrapping_mul(i)) % 65_536) as u16).collect()
}

/// The reference positions of a whole query, term by term.
fn reference_probe(terms: &Terms) -> Vec<u16> {
    pier_vocab::texts_of(terms).iter().flat_map(|t| reference_positions(t)).collect()
}

#[test]
fn the_geometry_is_limewires() {
    assert_eq!((QRP_TABLE_BITS, QRP_HASHES), (65_536, 2));
}

/// Positions captured from the hash-pair implementation these cached
/// positions replaced.
#[test]
fn known_terms_keep_their_positions() {
    let pinned: [(&str, [u16; 2]); 5] = [
        ("led", [1_661, 41_464]),
        ("zeppelin", [4_025, 5_784]),
        ("top55724", [46_780, 65_535]),
        ("ö", [34_540, 12_587]),
        ("mp3", [30_004, 30_095]),
    ];
    for (term, positions) in pinned {
        assert_eq!(pier_vocab::qrp_positions(pier_vocab::intern(term)), positions, "{term:?}");
        assert_eq!(reference_positions(term), positions, "reference for {term:?}");
    }
}

proptest! {
    /// Any text, scanned: two positions per term in query order,
    /// duplicates kept, each equal to the reference mix's.
    #[test]
    fn terms_carry_the_reference_positions(
        words in prop::collection::vec(any::<String>(), 0..8),
        repeat in 0usize..3,
    ) {
        let mut words = words;
        if let Some(first) = words.first().cloned() {
            words.extend(std::iter::repeat_n(first, repeat));
        }
        let terms = Terms::from_text(&words.join(" "));
        prop_assert_eq!(terms.qrp_positions().len(), QRP_HASHES * terms.len());
        prop_assert_eq!(terms.qrp_positions(), &reference_probe(&terms)[..]);
        prop_assert_eq!(pier_vocab::qrp_positions_of(terms.ids()), reference_probe(&terms));
    }

    /// Short lowercase words, so the same terms recur within and across
    /// cases.
    #[test]
    fn token_queries_carry_the_reference_positions(query in "[a-c0-2 ]{0,20}") {
        let terms = Terms::from_text(&query);
        prop_assert_eq!(terms.qrp_positions(), &reference_probe(&terms)[..]);
    }
}
