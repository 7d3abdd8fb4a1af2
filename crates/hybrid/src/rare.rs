//! Online rare-item identification (§5): the localized schemes a hybrid
//! ultrapeer runs over its observed traffic to decide what to publish into
//! the DHT. The trace-driven counterparts used for Figures 13–15, and the
//! Random baseline those figures compare against, live in
//! `pier_model::schemes`; these are the deployable versions.

use pier_gnutella::Hit;
use pier_netsim::NodeId;
use pier_vocab::{intern, pack_pair, scan, IdCounter};

/// A file instance observed in traffic (a query hit, or a BrowseHost entry).
/// The name shares the `FileMeta`'s `Arc` — snooping and publish queues
/// clone pointers, not strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservedItem {
    pub name: std::sync::Arc<str>,
    pub size: u64,
    pub host: NodeId,
}

impl ObservedItem {
    pub fn from_hit(h: &Hit) -> Self {
        ObservedItem { name: h.file.name.clone(), size: h.file.size, host: h.host }
    }
}

/// The §5 schemes, in their online (traffic-observing) form.
///
/// * `Qrs` — publish the results of queries whose result set stayed below
///   a threshold (handled by the proxy's per-query window; `is_rare` is
///   not meaningful for it).
/// * `Tf` / `Tpf` — maintain term / adjacent-term-pair frequencies from
///   observed filenames; a file is rare if its rarest term/pair is below
///   the threshold.
/// * `Sam` — maintain per-filename replica estimates from observed traffic
///   (the paper's low-bandwidth alternative to active sampling); rare if
///   the estimate is at or below the threshold.
///
/// Counter tables are [`IdCounter`]s keyed by dense term indices: a term
/// for TF, a packed adjacent pair for TPF, and the *interned lowercased
/// filename* for SAM (whole names intern like terms do, so SAM needs no
/// per-node `String` keys — one process-wide copy of each observed name).
pub enum RareScheme {
    Qrs { results_threshold: usize },
    Tf { threshold: u64, counts: IdCounter },
    Tpf { threshold: u64, counts: IdCounter },
    Sam { threshold: u32, counts: IdCounter },
}

impl RareScheme {
    pub fn qrs(results_threshold: usize) -> Self {
        RareScheme::Qrs { results_threshold }
    }

    pub fn tf(threshold: u64) -> Self {
        RareScheme::Tf { threshold, counts: IdCounter::new() }
    }

    pub fn tpf(threshold: u64) -> Self {
        RareScheme::Tpf { threshold, counts: IdCounter::new() }
    }

    pub fn sam(threshold: u32) -> Self {
        RareScheme::Sam { threshold, counts: IdCounter::new() }
    }

    pub fn name(&self) -> &'static str {
        match self {
            RareScheme::Qrs { .. } => "QRS",
            RareScheme::Tf { .. } => "TF",
            RareScheme::Tpf { .. } => "TPF",
            RareScheme::Sam { .. } => "SAM",
        }
    }

    /// Update statistics with one observed file instance.
    pub fn observe(&mut self, name: &str) {
        match self {
            RareScheme::Qrs { .. } => {}
            RareScheme::Tf { counts, .. } => {
                for t in scan(name) {
                    counts.add(t.index() as u64, 1);
                }
            }
            RareScheme::Tpf { counts, .. } => {
                let toks = scan(name);
                for w in toks.windows(2) {
                    counts.add(pack_pair(w[0].index() as u32, w[1].index() as u32), 1);
                }
            }
            RareScheme::Sam { counts, .. } => {
                counts.add(intern(&name.to_lowercase()).index() as u64, 1);
            }
        }
    }

    /// Does the scheme currently judge this file rare? `None` means the
    /// scheme does not make pull-based decisions (QRS).
    pub fn is_rare(&self, name: &str) -> Option<bool> {
        match self {
            RareScheme::Qrs { .. } => None,
            RareScheme::Tf { threshold, counts } => {
                let min = scan(name)
                    .iter()
                    .map(|t| counts.get(t.index() as u64).unwrap_or(0))
                    .min()
                    .unwrap_or(0);
                Some(min < *threshold)
            }
            RareScheme::Tpf { threshold, counts } => {
                let toks = scan(name);
                let min = toks
                    .windows(2)
                    .map(|w| {
                        counts.get(pack_pair(w[0].index() as u32, w[1].index() as u32)).unwrap_or(0)
                    })
                    .min()
                    .unwrap_or(0);
                Some(min < *threshold)
            }
            RareScheme::Sam { threshold, counts } => {
                // `lookup`, not `intern`: probing a never-observed name
                // must not grow the process-wide table.
                let est = pier_vocab::lookup(&name.to_lowercase())
                    .and_then(|id| counts.get(id.index() as u64))
                    .unwrap_or(1)
                    .max(1);
                Some(est <= u64::from(*threshold))
            }
        }
    }

    /// Heap bytes held by the scheme's counter tables.
    pub fn heap_bytes(&self) -> usize {
        use pier_netsim::HeapSize;
        match self {
            RareScheme::Qrs { .. } => 0,
            RareScheme::Tf { counts, .. }
            | RareScheme::Tpf { counts, .. }
            | RareScheme::Sam { counts, .. } => counts.heap_bytes(),
        }
    }

    /// QRS result-size threshold, if this is the QRS scheme.
    pub fn qrs_threshold(&self) -> Option<usize> {
        match self {
            RareScheme::Qrs { results_threshold } => Some(*results_threshold),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tf_learns_from_traffic() {
        let mut s = RareScheme::tf(3);
        // Before any observation everything is rare (count 0).
        assert_eq!(s.is_rare("popular_song.mp3"), Some(true));
        for _ in 0..5 {
            s.observe("popular_song.mp3");
        }
        assert_eq!(s.is_rare("popular_song.mp3"), Some(false));
        // A file sharing one popular term but containing a rare one.
        assert_eq!(s.is_rare("popular_rarity.mp3"), Some(true));
    }

    #[test]
    fn tpf_distinguishes_pairs() {
        let mut s = RareScheme::tpf(3);
        for _ in 0..5 {
            s.observe("alpha_beta.mp3");
        }
        assert_eq!(s.is_rare("alpha_beta.mp3"), Some(false));
        // Same terms, different adjacency.
        assert_eq!(s.is_rare("beta_alpha.mp3"), Some(true));
    }

    #[test]
    fn sam_counts_replica_sightings() {
        let mut s = RareScheme::sam(2);
        s.observe("One_Copy.mp3");
        assert_eq!(s.is_rare("one_copy.mp3"), Some(true), "case-insensitive estimate");
        for _ in 0..5 {
            s.observe("one_copy.mp3");
        }
        assert_eq!(s.is_rare("one_copy.mp3"), Some(false));
        // Never-seen file: lower bound estimate is 1 → rare when t ≥ 1.
        assert_eq!(s.is_rare("unseen.mp3"), Some(true));
    }

    #[test]
    fn qrs_is_window_driven() {
        let s = RareScheme::qrs(20);
        assert_eq!(s.is_rare("anything"), None);
        assert_eq!(s.qrs_threshold(), Some(20));
        assert_eq!(RareScheme::tf(1).qrs_threshold(), None);
    }
}
