//! A deterministic pseudo-word dictionary: pronounceable, distinct terms
//! for synthetic filenames ("banero", "kiluda", …). Tokenization and
//! matching live in `pier-vocab` (the shared scanner).

use pier_netsim::split_mix64;

const ONSETS: &[&str] =
    &["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch", "st"];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u"];

/// The `idx`-th dictionary word. Deterministic, distinct for distinct
/// indices (the index is woven into the syllable choices), 4–8 letters.
pub fn word(idx: usize) -> String {
    let mut state = 0x57AB_1E5E_ED00_0000u64 ^ idx as u64;
    let h = split_mix64(&mut state);
    let syllables = 2 + (h % 2) as usize + usize::from(idx > 4096);
    let mut out = String::new();
    let mut residual = idx as u64;
    let mut mix = h >> 8;
    for _ in 0..syllables {
        let o = (residual % ONSETS.len() as u64) as usize;
        residual /= ONSETS.len() as u64;
        let v = (mix % VOWELS.len() as u64) as usize;
        mix /= VOWELS.len() as u64;
        out.push_str(ONSETS[o]);
        out.push_str(VOWELS[v]);
    }
    // Residual index bits become a disambiguating suffix when needed.
    if residual > 0 {
        out.push_str(&residual.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_vocab::{matches, scan, scan_text};
    use std::collections::BTreeSet;

    #[test]
    fn words_are_distinct_and_wordlike() {
        let mut seen = BTreeSet::new();
        for i in 0..50_000 {
            let w = word(i);
            assert!(w.len() >= 3, "word {i} too short: {w}");
            assert!(w.chars().all(|c| c.is_ascii_alphanumeric()));
            assert!(seen.insert(w.clone()), "collision at {i}: {w}");
        }
    }

    #[test]
    fn words_are_deterministic() {
        assert_eq!(word(42), word(42));
        assert_ne!(word(42), word(43));
    }

    #[test]
    fn tokenizer_matches_expectations() {
        assert_eq!(scan_text("Banero_Kiluda-03.mp3"), vec!["banero", "kiluda", "03", "mp3"]);
    }

    #[test]
    fn matching_semantics() {
        let toks = scan("banero_kiluda_live.mp3");
        assert!(matches(&scan("banero kiluda"), &toks));
        assert!(!matches(&scan("banero zzz"), &toks));
        assert!(!matches(&[], &toks), "empty query matches nothing");
    }
}
