//! The Publisher (§3.1): turns a shared file into Item + Inverted (or
//! InvertedCache) tuples and puts them into the DHT.

use crate::schema::{
    inverted_cache_tuple, inverted_tuple, ItemRecord, INVERTED, INVERTED_CACHE, ITEM,
};
use crate::tokenize::keywords;
use pier_dht::{DhtCore, DhtNet, Key};
use pier_netsim::{NodeId, SimDuration, SimTime};
use pier_qp::PierCore;

/// Which inverted-index layout to publish (§3.2 discusses the trade-off).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexMode {
    /// `Inverted(keyword, fileID)` — compact postings, queries need the
    /// distributed join.
    Inverted,
    /// `InvertedCache(keyword, fileID, fulltext)` — filename cached on
    /// every posting; queries resolve at a single site but publishing costs
    /// more per file.
    InvertedCache,
}

/// What one `publish_file` call shipped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Tuples generated (1 Item + one posting per keyword).
    pub tuples: usize,
    /// Distinct keywords indexed.
    pub keywords: usize,
    /// Total encoded value bytes (excluding DHT routing/RPC overhead,
    /// which the simulator accounts separately per message).
    pub value_bytes: usize,
}

/// One file under soft-state maintenance: enough to regenerate and re-ship
/// its whole tuple set, plus its per-file refresh deadline.
#[derive(Clone, Debug)]
struct SoftStateEntry {
    filename: String,
    filesize: u64,
    host: NodeId,
    port: u16,
    next_at: SimTime,
}

/// The publishing half of PIERSearch.
#[derive(Clone, Debug)]
pub struct Publisher {
    pub mode: IndexMode,
    /// The §5 soft-state loop: when set, every published file is
    /// remembered and its full tuple set is re-published each interval
    /// (values carry the DHT's `value_ttl`; the interval must undercut
    /// both the TTL and the median node session for postings to survive
    /// churn). Driven by [`Publisher::tick`] from the embedding actor's
    /// maintenance timer — which revival re-arms, so a publisher that
    /// churns out resumes refreshing when it returns.
    pub refresh_interval: Option<SimDuration>,
    soft_state: Vec<SoftStateEntry>,
    /// File ids already under maintenance (idempotence guard).
    tracked: pier_netsim::keyed::KeyedSet<Key>,
}

impl Publisher {
    pub fn new(mode: IndexMode) -> Self {
        Publisher {
            mode,
            refresh_interval: None,
            soft_state: Vec::new(),
            tracked: pier_netsim::keyed::KeyedSet::new(),
        }
    }

    /// Files currently under soft-state maintenance.
    pub fn soft_state_len(&self) -> usize {
        self.soft_state.len()
    }

    /// Publish one shared file: an Item tuple keyed by fileID plus one
    /// posting tuple per keyword. Returns what was shipped, or `None` if
    /// the filename yields no indexable keywords. With a configured
    /// `refresh_interval` the file also enters the soft-state set and is
    /// re-published every interval from [`Publisher::tick`].
    #[allow(
        clippy::too_many_arguments,
        reason = "the file's fields and the DHT's handles, as the call sites hold them"
    )]
    pub fn publish_file(
        &mut self,
        pier: &mut PierCore,
        dht: &mut DhtCore,
        net: &mut dyn DhtNet,
        filename: &str,
        filesize: u64,
        host: NodeId,
        port: u16,
    ) -> Option<PublishStats> {
        let stats = self.ship(pier, dht, net, filename, filesize, host, port, false)?;
        if let Some(interval) = self.refresh_interval {
            let fid = crate::schema::file_id(filename, filesize, host, port);
            if self.tracked.insert(fid) {
                self.soft_state.push(SoftStateEntry {
                    filename: filename.to_string(),
                    filesize,
                    host,
                    port,
                    next_at: net.now() + interval,
                });
            }
        }
        Some(stats)
    }

    /// Soft-state maintenance: re-publish every file whose refresh deadline
    /// passed. Call from the embedding actor's periodic tick.
    pub fn tick(&mut self, pier: &mut PierCore, dht: &mut DhtCore, net: &mut dyn DhtNet) {
        let Some(interval) = self.refresh_interval else {
            return;
        };
        let now = net.now();
        for i in 0..self.soft_state.len() {
            if self.soft_state[i].next_at > now {
                continue;
            }
            let e = &self.soft_state[i];
            self.ship(pier, dht, net, &e.filename, e.filesize, e.host, e.port, true);
            net.count(crate::classes::SOFT_REFRESH_FILES.id(), 1);
            self.soft_state[i].next_at = now + interval;
        }
    }

    /// Generate and ship one file's tuple set (the shared path of first
    /// publish and soft-state refresh). First publish rides the cheap
    /// Bamboo-style recursive store (the §7 cost numbers); refreshes set
    /// `replicated` and go through the replicated put (placement by lookup,
    /// acks unread), whose STORE RPC timeouts double as routing-table
    /// repair — under churn a fire-and-forget RouteStore dies silently.
    #[allow(clippy::too_many_arguments, reason = "publish_file's arguments plus the refresh flag")]
    fn ship(
        &self,
        pier: &mut PierCore,
        dht: &mut DhtCore,
        net: &mut dyn DhtNet,
        filename: &str,
        filesize: u64,
        host: NodeId,
        port: u16,
        replicated: bool,
    ) -> Option<PublishStats> {
        let terms = keywords(filename);
        if terms.is_empty() {
            net.count(crate::classes::UNINDEXABLE_FILE.id(), 1);
            return None;
        }
        let record = ItemRecord::new(filename, filesize, host, port);
        let mut stats = PublishStats::default();

        let item = record.to_tuple();
        stats.value_bytes += item.encoded_size();
        stats.tuples += 1;
        // Holds: `to_tuple` builds the Item row of `catalog()`'s own schema.
        pier.publish(dht, net, ITEM, &item, replicated).expect("tuple conforms");

        let words = pier_vocab::texts_of(&terms);
        for word in &words {
            let (table, tuple) = match self.mode {
                IndexMode::Inverted => (INVERTED, inverted_tuple(word, record.file_id)),
                IndexMode::InvertedCache => {
                    (INVERTED_CACHE, inverted_cache_tuple(word, record.file_id, filename))
                }
            };
            stats.value_bytes += tuple.encoded_size();
            stats.tuples += 1;
            // Holds: each table's posting comes from its schema's constructor.
            pier.publish(dht, net, table, &tuple, replicated).expect("tuple conforms");
        }
        stats.keywords = terms.len();
        net.count(crate::classes::FILES_PUBLISHED.id(), 1);
        net.count(crate::classes::PUBLISH_VALUE_BYTES.id(), stats.value_bytes as u64);
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{inverted_cache_tuple, inverted_tuple};

    #[test]
    fn cache_mode_costs_more_per_file() {
        // Pure tuple-size arithmetic (no network needed): the InvertedCache
        // posting carries the filename redundantly.
        let f = pier_dht::Key::hash(b"f");
        let name = "led_zeppelin_stairway_to_heaven_live.mp3";
        let words = pier_vocab::texts_of(&keywords(name));
        let plain: usize = words.iter().map(|t| inverted_tuple(t, f).encoded_size()).sum();
        let cached: usize =
            words.iter().map(|t| inverted_cache_tuple(t, f, name).encoded_size()).sum();
        assert!(cached > plain + name.len(), "cache mode must cost more: {cached} vs {plain}");
        // But the same number of tuples: led/zeppelin/stairway/heaven/live
        // ("to" and "mp3" are stop-words).
        assert_eq!(keywords(name).len(), 5);
    }

    #[test]
    fn publish_stats_accounting_shape() {
        // The per-file ratio the paper reports (3.5 KB vs 4 KB) is dominated
        // by per-keyword postings; verify the ratio direction on encoded
        // tuples for a typical filename.
        let name = "artist_album_track_title.mp3";
        let f = pier_dht::Key::hash(b"x");
        let item = ItemRecord::new(name, 4_000_000, NodeId::new(1), 6346).to_tuple();
        let words = pier_vocab::texts_of(&keywords(name));
        let inv: usize = words.iter().map(|t| inverted_tuple(t, f).encoded_size()).sum();
        let invc: usize =
            words.iter().map(|t| inverted_cache_tuple(t, f, name).encoded_size()).sum();
        let plain_total = item.encoded_size() + inv;
        let cache_total = item.encoded_size() + invc;
        let ratio = cache_total as f64 / plain_total as f64;
        assert!(
            (1.05..2.5).contains(&ratio),
            "cache/plain publish ratio should be modest (paper: 4/3.5 ≈ 1.14), got {ratio}"
        );
    }
}
