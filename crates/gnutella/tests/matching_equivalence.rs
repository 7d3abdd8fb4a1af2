//! Property tests pinning the interning refactor to the behaviour it
//! replaced:
//!
//! * the shared scanner (`pier_vocab::scan`) ≡ the old
//!   `gnutella::files::tokenize` (reimplemented here as the reference);
//! * scanner + indexing policy ≡ the old `piersearch::tokenize::keywords`
//!   (stop-words out, short tokens out, first-occurrence dedup);
//! * sorted-`TermId`-slice matching ≡ the old per-file `HashSet<String>`
//!   matching, on arbitrary filenames and queries.

use pier_gnutella::{FileMeta, FileStore};
use pier_vocab::{policy, scan, texts_of};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The old `gnutella::files::tokenize`, verbatim, as the reference.
fn legacy_tokenize(name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in name.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The old `piersearch::tokenize::keywords`, verbatim, as the reference.
fn legacy_keywords(name: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut cur = String::new();
    let push = |s: &mut String, out: &mut Vec<String>| {
        if s.len() >= 2 && !policy::is_stop_word(s) && !out.iter().any(|t| t == s) {
            out.push(std::mem::take(s));
        } else {
            s.clear();
        }
    };
    for ch in name.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else {
            push(&mut cur, &mut out);
        }
    }
    push(&mut cur, &mut out);
    out
}

/// The old `FileStore` matcher: tokenize query, then per-file
/// `HashSet<String>` membership for every term.
fn legacy_matching(names: &[String], query: &str) -> Vec<String> {
    let terms = legacy_tokenize(query);
    names
        .iter()
        .filter(|n| {
            let set: BTreeSet<String> = legacy_tokenize(n).into_iter().collect();
            !terms.is_empty() && terms.iter().all(|t| set.contains(t))
        })
        .cloned()
        .collect()
}

proptest! {
    #[test]
    fn shared_scanner_equals_legacy_tokenize(name in any::<String>()) {
        prop_assert_eq!(texts_of(&scan(&name)), legacy_tokenize(&name));
    }

    #[test]
    fn policy_keywords_equal_legacy_keywords(name in any::<String>()) {
        prop_assert_eq!(texts_of(&policy::keywords(&name)), legacy_keywords(&name));
    }

    /// Structured filenames too (the arbitrary-String case rarely produces
    /// multi-token names): word-ish segments joined by separators.
    #[test]
    fn policy_keywords_equal_legacy_on_filenames(
        parts in proptest::collection::vec("[a-zA-Z0-9]{0,6}", 0..6),
        ext in "(mp3|avi|x|zip|the|song)",
    ) {
        let name = format!("{}.{}", parts.join("_"), ext);
        prop_assert_eq!(texts_of(&policy::keywords(&name)), legacy_keywords(&name));
        prop_assert_eq!(texts_of(&scan(&name)), legacy_tokenize(&name));
    }

    #[test]
    fn sorted_slice_matching_equals_hashset_matching(
        names in proptest::collection::vec("[a-z0-9_ .]{0,12}", 0..8),
        query in "[a-z0-9_ ]{0,10}",
    ) {
        let store = FileStore::new(names.iter().map(|n| FileMeta::new(n, 1)).collect());
        let fast: Vec<String> =
            store.matching_query(&query).iter().map(|f| f.name.to_string()).collect();
        prop_assert_eq!(fast, legacy_matching(&names, &query));
    }

    #[test]
    fn sorted_slice_matching_equals_hashset_on_arbitrary_strings(
        names in proptest::collection::vec(any::<String>(), 0..6),
        query in any::<String>(),
    ) {
        let store = FileStore::new(names.iter().map(|n| FileMeta::new(n, 1)).collect());
        let fast: Vec<String> =
            store.matching_query(&query).iter().map(|f| f.name.to_string()).collect();
        prop_assert_eq!(fast, legacy_matching(&names, &query));
    }
}
