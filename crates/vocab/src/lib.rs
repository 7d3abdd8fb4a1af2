#![forbid(unsafe_code)]
//! # pier-vocab — the process-wide interned term vocabulary
//!
//! Every layer of the reproduction used to push `Vec<String>` keywords
//! around: the workload generator tokenized filenames into strings, the
//! Gnutella cores cloned a term string per flooded neighbor, `FileStore`
//! matched via per-file `HashSet<String>`, and the QRP Bloom filters
//! re-hashed raw bytes on every check. This crate replaces that spine with
//! interned [`TermId`]s:
//!
//! * [`TermId`] — a dense `u32` into the process-wide [term table]. The
//!   table retains, per term, its text, its byte length (so Gnutella 0.6
//!   wire-size accounting stays faithful to the joined-string framing) and
//!   its QRP double-hash pair (so Bloom filters never re-hash bytes and
//!   produce *bit-identical* filters to the string path).
//! * [`Terms`] — an immutable, `Arc`-shared term list with its wire length
//!   and QRP hashes precomputed once. Flooding a query to N neighbors
//!   clones a pointer, not N strings, and every relay hop re-uses the
//!   cached hashes for last-hop QRP checks.
//! * [`scan`] — the one shared tokenizer (lowercase alphanumeric runs,
//!   order kept, duplicates kept), with [`scan_text`] as its string form;
//!   Gnutella matching and workload generation both call it directly.
//! * [`policy`] — PIERSearch's §3.1 indexing policy *layered on top* of
//!   the shared scanner: stop-words out, single characters out,
//!   first-occurrence dedup. Plain Gnutella deliberately skips this layer
//!   (the paper's asymmetry: "Stop-words … are usually not considered" by
//!   PIERSearch, while Gnutella matches every token).
//!
//! Ids are assigned in first-intern order, which may differ between runs
//! (parallel sweep trials intern concurrently). Nothing observable may
//! therefore depend on id *values*: matching compares ids for equality,
//! wire sizes come from retained byte lengths and Bloom bits from hashes of
//! the term bytes. Ids are never put on a wire: a message's size counts
//! the term text, never an id.
//!
//! [term table]: intern

use pier_netsim::split_mix64;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

// ---------------------------------------------------------------------------
// TermId + the global table
// ---------------------------------------------------------------------------

/// An interned term: a dense index into the process-wide term table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// Dense index into per-term side tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TermId({} = {:?})", self.0, &*text(*self))
    }
}

struct TermInfo {
    text: Arc<str>,
    /// UTF-8 byte length (what the joined-query wire framing counts).
    byte_len: u32,
    /// Kirsch–Mitzenmacher double-hash pair for QRP Bloom filters,
    /// precomputed from the term bytes at intern time.
    qrp: (u64, u64),
    /// Passes the PIERSearch indexing policy (≥ 2 bytes, not a stop-word).
    indexable: bool,
}

#[derive(Default)]
struct Table {
    by_text: HashMap<Arc<str>, TermId>,
    terms: Vec<TermInfo>,
}

fn table() -> &'static RwLock<Table> {
    static TABLE: OnceLock<RwLock<Table>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(Table::default()))
}

/// Shared access to the term table.
fn read_table() -> RwLockReadGuard<'static, Table> {
    // Holds: only `write_table`'s holder can poison the lock, see there.
    table().read().expect("term table poisoned")
}

/// Exclusive access to the term table.
fn write_table() -> RwLockWriteGuard<'static, Table> {
    // Holds: a poisoned lock means `intern` panicked while holding it, and
    // it panics only once the `u32` id space is spent: a process past that
    // point cannot intern again, so every later access panics as well.
    table().write().expect("term table poisoned")
}

/// The QRP double-hash pair of a term — the exact per-byte mix the Bloom
/// filter historically applied, so cached-hash filters stay bit-identical
/// to freshly hashed ones.
fn qrp_hash_pair(term: &str) -> (u64, u64) {
    let mut state = 0xF11E_D00D_u64;
    for b in term.as_bytes() {
        state = state.rotate_left(8) ^ (*b as u64);
        split_mix64(&mut state);
    }
    let h1 = split_mix64(&mut state);
    let h2 = split_mix64(&mut state) | 1;
    (h1, h2)
}

/// Intern `term`, returning its id. Idempotent and thread-safe; ids are
/// assigned in first-intern order for the lifetime of the process.
///
/// The table is append-only and never evicts: anything interned stays
/// resident. Workload generation bounds its junk contribution to
/// O(miss rate × queries) throwaway miss-query terms per generated
/// trace — dozens to a few thousand entries per trial, shared across
/// trials when the random suffixes collide. An eviction/scoping story
/// only becomes worth it if traces start interning unbounded unique
/// content (see ROADMAP).
pub fn intern(term: &str) -> TermId {
    if let Some(&id) = read_table().by_text.get(term) {
        return id;
    }
    let mut t = write_table();
    if let Some(&id) = t.by_text.get(term) {
        return id;
    }
    let id = TermId(u32::try_from(t.terms.len()).expect("term id space exhausted"));
    let text: Arc<str> = Arc::from(term);
    t.terms.push(TermInfo {
        text: text.clone(),
        // Holds: interned text is a token or a filename, far below 4 GiB.
        byte_len: u32::try_from(term.len()).expect("term longer than u32::MAX bytes"),
        qrp: qrp_hash_pair(term),
        indexable: term.len() >= 2 && !policy::is_stop_word(term),
    });
    t.by_text.insert(text, id);
    id
}

/// The id of an already-interned term, or `None`.
pub fn lookup(term: &str) -> Option<TermId> {
    read_table().by_text.get(term).copied()
}

/// The term's text (cheap `Arc` clone).
pub fn text(id: TermId) -> Arc<str> {
    read_table().terms[id.index()].text.clone()
}

/// The term's UTF-8 byte length.
pub fn byte_len(id: TermId) -> usize {
    read_table().terms[id.index()].byte_len as usize
}

/// The term's precomputed QRP double-hash pair.
pub fn qrp_hashes(id: TermId) -> (u64, u64) {
    read_table().terms[id.index()].qrp
}

/// The QRP hash pairs of a whole slice, under one table read — the batch
/// form QRP filter construction uses.
pub fn qrp_hashes_of(ids: &[TermId]) -> Vec<(u64, u64)> {
    let t = read_table();
    ids.iter().map(|id| t.terms[id.index()].qrp).collect()
}

/// Number of distinct terms interned so far.
pub fn vocab_len() -> usize {
    read_table().terms.len()
}

/// Resolve a slice of ids to owned strings (test/driver convenience).
pub fn texts_of(ids: &[TermId]) -> Vec<String> {
    let t = read_table();
    ids.iter().map(|id| t.terms[id.index()].text.to_string()).collect()
}

/// Join the ids' texts with spaces — the Gnutella 0.6 query payload text.
pub fn join_text(ids: &[TermId]) -> String {
    let t = read_table();
    let mut out = String::new();
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&t.terms[id.index()].text);
    }
    out
}

// ---------------------------------------------------------------------------
// The shared scanner
// ---------------------------------------------------------------------------

/// The one scanner loop: visit each lowercase alphanumeric run of `name`
/// in order (duplicates included). Both the string and the interning form
/// are thin wrappers, so tokenization can never drift between them.
fn scan_with(name: &str, mut visit: impl FnMut(&mut String)) {
    let mut cur = String::new();
    for ch in name.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            visit(&mut cur);
            cur.clear();
        }
    }
    if !cur.is_empty() {
        visit(&mut cur);
    }
}

/// Tokenize into lowercase alphanumeric runs, **as strings** — the shared
/// scanner both protocol families build on (reference form; [`scan`] is
/// the interning form).
pub fn scan_text(name: &str) -> Vec<String> {
    let mut out = Vec::new();
    scan_with(name, |tok| out.push(tok.clone()));
    out
}

/// Tokenize into interned ids: lowercase alphanumeric runs, order kept,
/// duplicates kept — Gnutella token semantics (no stop-word filtering).
pub fn scan(name: &str) -> Vec<TermId> {
    let mut out = Vec::new();
    scan_with(name, |tok| out.push(intern(tok)));
    out
}

/// Does the (pre-tokenized) query match the file's tokens under Gnutella
/// semantics? Every query term must appear among the file's tokens.
pub fn matches(query_terms: &[TermId], file_tokens: &[TermId]) -> bool {
    !query_terms.is_empty() && query_terms.iter().all(|t| file_tokens.contains(t))
}

// ---------------------------------------------------------------------------
// The PIERSearch indexing policy (layered on the scanner)
// ---------------------------------------------------------------------------

pub mod policy {
    //! PIERSearch's §3.1 keyword policy: the shared scanner's tokens minus
    //! stop-words and single characters, deduplicated in first-occurrence
    //! order. Plain Gnutella deliberately does **not** apply this layer.

    use super::{read_table, scan, TermId};

    /// Stop-words never indexed or queried. Mix of English function words
    /// and filesharing boilerplate (extensions, rip tags).
    pub const STOP_WORDS: &[&str] = &[
        "the", "a", "an", "of", "and", "or", "to", "in", "on", "for", "by", "at", "vs", "mp3",
        "mp4", "avi", "mpg", "mpeg", "wav", "ogg", "wma", "mov", "zip", "rar", "exe", "jpg", "gif",
        "txt", "pdf", "iso", "bin", "cd", "dvd", "divx", "xvid", "rip", "www", "com", "net", "org",
    ];

    /// Is this (lowercase) token a stop-word?
    pub fn is_stop_word(token: &str) -> bool {
        STOP_WORDS.contains(&token)
    }

    /// Does the term pass the indexing policy (≥ 2 bytes, not a
    /// stop-word)? The verdict is cached in the term table at intern time.
    pub fn indexable(id: TermId) -> bool {
        read_table().terms[id.index()].indexable
    }

    /// Apply the policy to a scanned token list: drop non-indexable terms
    /// and duplicates, keeping first-occurrence order.
    pub fn filter_indexable(ids: &[TermId]) -> Vec<TermId> {
        let t = read_table();
        let mut out: Vec<TermId> = Vec::with_capacity(ids.len());
        for &id in ids {
            if t.terms[id.index()].indexable && !out.contains(&id) {
                out.push(id);
            }
        }
        out
    }

    /// Tokenize a filename into indexable keywords: the shared scanner
    /// plus this policy layer (the historical `piersearch::keywords`).
    pub fn keywords(name: &str) -> Vec<TermId> {
        filter_indexable(&scan(name))
    }
}

// ---------------------------------------------------------------------------
// Terms: the shared wire payload
// ---------------------------------------------------------------------------

struct TermsInner {
    ids: Box<[TermId]>,
    /// Bytes of the space-joined query text (Gnutella 0.6 framing):
    /// Σ byte_len + (n − 1) separators; 0 when empty.
    wire_len: u32,
    /// Per-term QRP hash pairs, for lock-free Bloom checks at every hop.
    qrp: Box<[(u64, u64)]>,
}

/// An immutable, reference-counted term list — the keyword payload every
/// protocol message carries. Cloning is an `Arc` bump; the wire length and
/// QRP hashes are computed once at construction.
#[derive(Clone)]
pub struct Terms(Arc<TermsInner>);

impl Terms {
    /// Build from already-interned ids (one table read for the caches).
    pub fn from_ids(ids: Vec<TermId>) -> Terms {
        let t = read_table();
        let mut wire = 0u32;
        let mut qrp = Vec::with_capacity(ids.len());
        for &id in &ids {
            let info = &t.terms[id.index()];
            wire += info.byte_len;
            qrp.push(info.qrp);
        }
        drop(t);
        // Holds: a term list comes from one query or filename, far fewer
        // than 4 billion terms.
        wire += u32::try_from(ids.len().saturating_sub(1)).expect("term list exceeds u32 ids");
        Terms(Arc::new(TermsInner {
            ids: ids.into_boxed_slice(),
            wire_len: wire,
            qrp: qrp.into_boxed_slice(),
        }))
    }

    /// Scan + intern a query string (driver/test boundary; protocol paths
    /// pass `Terms` along by clone).
    pub fn from_text(query: &str) -> Terms {
        Terms::from_ids(scan(query))
    }

    pub fn ids(&self) -> &[TermId] {
        &self.0.ids
    }

    /// Bytes this term list occupies in a Gnutella 0.6 query payload —
    /// identical to the byte length of [`Terms::text`].
    pub fn wire_len(&self) -> usize {
        self.0.wire_len as usize
    }

    /// The precomputed QRP hash pair per term.
    pub fn qrp_hashes(&self) -> &[(u64, u64)] {
        &self.0.qrp
    }

    /// The space-joined query text (resolves through the table).
    pub fn text(&self) -> String {
        join_text(&self.0.ids)
    }
}

impl Deref for Terms {
    type Target = [TermId];
    fn deref(&self) -> &[TermId] {
        &self.0.ids
    }
}

impl PartialEq for Terms {
    fn eq(&self, other: &Self) -> bool {
        self.0.ids == other.0.ids
    }
}

impl Eq for Terms {}

impl std::hash::Hash for Terms {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.ids.hash(state);
    }
}

impl fmt::Debug for Terms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Terms({:?})", self.text())
    }
}

impl From<&str> for Terms {
    fn from(query: &str) -> Terms {
        Terms::from_text(query)
    }
}

impl From<&String> for Terms {
    fn from(query: &String) -> Terms {
        Terms::from_text(query)
    }
}

impl From<String> for Terms {
    fn from(query: String) -> Terms {
        Terms::from_text(&query)
    }
}

impl From<&Terms> for Terms {
    fn from(terms: &Terms) -> Terms {
        terms.clone()
    }
}

impl From<Vec<TermId>> for Terms {
    fn from(ids: Vec<TermId>) -> Terms {
        Terms::from_ids(ids)
    }
}

impl From<&[TermId]> for Terms {
    fn from(ids: &[TermId]) -> Terms {
        Terms::from_ids(ids.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_distinct() {
        let a = intern("zeppelin");
        let b = intern("zeppelin");
        let c = intern("floyd");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(&*text(a), "zeppelin");
        assert_eq!(byte_len(a), 8);
        assert_eq!(lookup("zeppelin"), Some(a));
    }

    #[test]
    fn scan_matches_scan_text() {
        let name = "The_Led-Zeppelin.Stairway (live).MP3";
        let ids = scan(name);
        assert_eq!(texts_of(&ids), scan_text(name));
        assert_eq!(scan_text(name), vec!["the", "led", "zeppelin", "stairway", "live", "mp3"]);
        assert!(scan("___").is_empty());
    }

    #[test]
    fn scan_keeps_duplicates_policy_dedups() {
        let ids = scan("live live at leeds live.mp3");
        assert_eq!(texts_of(&ids), vec!["live", "live", "at", "leeds", "live", "mp3"]);
        let kw = policy::filter_indexable(&ids);
        assert_eq!(texts_of(&kw), vec!["live", "leeds"]);
        assert_eq!(policy::keywords("live live at leeds live.mp3"), kw);
    }

    #[test]
    fn policy_flags_cached_at_intern() {
        assert!(!policy::indexable(intern("mp3")), "stop-word");
        assert!(!policy::indexable(intern("x")), "single char");
        assert!(policy::indexable(intern("zz")));
        // Multi-byte single characters are ≥ 2 bytes, matching the
        // historical byte-length rule.
        assert!(policy::indexable(intern("ö")));
    }

    #[test]
    fn terms_wire_len_equals_joined_text_len() {
        for q in ["led zeppelin", "x", "", "björk jóga 03"] {
            let t = Terms::from_text(q);
            assert_eq!(t.wire_len(), t.text().len(), "query {q:?}");
        }
        assert_eq!(Terms::from_text("led zep").wire_len(), 7);
        assert_eq!(Terms::from_text("").wire_len(), 0);
    }

    #[test]
    fn terms_qrp_hashes_match_table() {
        let t = Terms::from_text("led zeppelin");
        assert_eq!(t.qrp_hashes().len(), 2);
        assert_eq!(t.qrp_hashes()[0], qrp_hashes(t.ids()[0]));
        assert_eq!(t.qrp_hashes()[1], qrp_hashes(intern("zeppelin")));
        // h2 is forced odd (double hashing needs it coprime with the table
        // size in the power-of-two case).
        assert_eq!(t.qrp_hashes()[0].1 & 1, 1);
    }

    #[test]
    fn terms_clone_shares_storage() {
        let a = Terms::from_text("one two three");
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.ids().as_ptr(), b.ids().as_ptr()), "clone must share the Arc");
    }

    #[test]
    fn matches_semantics() {
        let toks = scan("banero_kiluda_live.mp3");
        assert!(matches(&scan("banero kiluda"), &toks));
        assert!(!matches(&scan("banero zzz"), &toks));
        assert!(!matches(&[], &toks), "empty query matches nothing");
    }
}
