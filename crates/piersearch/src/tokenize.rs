//! Keyword extraction for publishing and querying (§3.1 of the paper):
//! filename terms, minus stop-words — "Stop-words such as 'MP3' and 'the'
//! are usually not considered."
//!
//! The tokenizer itself is the workspace-shared scanner in `pier-vocab`;
//! this module is the PIERSearch *policy layer* on top of it (stop-words
//! out, single characters out, first-occurrence dedup). Plain Gnutella
//! deliberately skips the policy — that asymmetry is part of the system
//! being reproduced.

use pier_vocab::TermId;

/// Stop-words never indexed or queried (re-exported from the shared
/// policy layer).
pub use pier_vocab::policy::{is_stop_word, STOP_WORDS};

/// Tokenize a filename into indexable keywords: lowercase alphanumeric
/// runs, stop-words removed, single characters dropped, deduplicated
/// (keeping first-occurrence order) — as interned term ids.
pub fn keywords(name: &str) -> Vec<TermId> {
    pier_vocab::policy::keywords(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_vocab::texts_of;

    fn kw(name: &str) -> Vec<String> {
        texts_of(&keywords(name))
    }

    #[test]
    fn extracts_and_filters() {
        assert_eq!(
            kw("The_Led-Zeppelin.Stairway.To.Heaven.MP3"),
            vec!["led", "zeppelin", "stairway", "heaven"]
        );
    }

    #[test]
    fn dedups_preserving_order() {
        assert_eq!(kw("live live at leeds live.mp3"), vec!["live", "leeds"]);
    }

    #[test]
    fn drops_single_chars_and_stop_words() {
        assert_eq!(kw("a b c of the mp3"), Vec::<String>::new());
        assert_eq!(kw("x zz"), vec!["zz"]);
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(kw("BJÖRK-Jóga"), vec!["björk", "jóga"]);
    }

    #[test]
    fn empty_and_symbol_only() {
        assert_eq!(kw(""), Vec::<String>::new());
        assert_eq!(kw("!!!---...///"), Vec::<String>::new());
    }

    #[test]
    fn query_terms_match_keywords() {
        assert_eq!(pier_vocab::policy::keywords("The Zeppelin"), keywords("the_zeppelin.avi"));
    }

    #[test]
    fn stop_word_list_is_lowercase_and_queryable() {
        for w in STOP_WORDS {
            assert_eq!(*w, w.to_lowercase());
            assert!(is_stop_word(w));
        }
        assert!(!is_stop_word("zeppelin"));
    }
}
