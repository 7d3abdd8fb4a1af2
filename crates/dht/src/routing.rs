//! k-bucket routing tables.
//!
//! Bucket `i` holds contacts whose XOR distance from the local key has `i`
//! leading zero bits — i.e. bucket 0 covers the far half of the identifier
//! space and each successive bucket halves the range. Buckets keep
//! least-recently-seen contacts at the front; fresh traffic moves a contact
//! to the back (Kademlia's LRU policy, which favours long-lived nodes — the
//! same stability bias ultrapeer election applies in Gnutella).

use crate::contact::Contact;
use crate::key::{Distance, Key, KEY_BITS};
use pier_netsim::{NodeId, SimTime};

/// Result of offering a contact to the table.
#[derive(Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Contact stored (or refreshed).
    Stored,
    /// Bucket full; `evict_candidate` is the least-recently-seen contact.
    /// The owner should ping it and call [`RoutingTable::remove`] if it is
    /// dead. The offered contact is remembered as a replacement candidate.
    Full { evict_candidate: Contact },
    /// The contact is the local node itself; never stored.
    SelfEntry,
}

#[derive(Clone, Debug)]
struct Bucket {
    /// Front = least recently seen.
    entries: Vec<Contact>,
    /// Most recent contact that did not fit (replacement cache of size 1).
    pending: Option<Contact>,
    /// Last time a lookup touched this bucket's range.
    last_touched: SimTime,
}

impl Bucket {
    fn new() -> Self {
        Bucket { entries: Vec::new(), pending: None, last_touched: SimTime::ZERO }
    }
}

/// The routing table: 160 k-buckets plus the local identity.
pub struct RoutingTable {
    local: Contact,
    k: usize,
    buckets: Vec<Bucket>,
    /// Buckets at or past this index have never held a contact, so the
    /// nearest-first walks stop here instead of at bucket 159.
    depth: usize,
}

impl pier_netsim::HeapSize for RoutingTable {
    fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * size_of::<Bucket>()
            + self
                .buckets
                .iter()
                .map(|b| b.entries.capacity() * size_of::<Contact>())
                .sum::<usize>()
    }
}

impl RoutingTable {
    pub fn new(local: Contact, k: usize) -> Self {
        assert!(k > 0, "bucket capacity must be positive");
        RoutingTable { local, k, buckets: (0..KEY_BITS).map(|_| Bucket::new()).collect(), depth: 0 }
    }

    pub fn local(&self) -> Contact {
        self.local
    }

    /// Total number of stored contacts.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.entries.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record that we heard from `contact` (request or response received).
    pub fn observe(&mut self, contact: Contact, now: SimTime) -> InsertOutcome {
        let Some(idx) = self.local.key.bucket_index(&contact.key) else {
            return InsertOutcome::SelfEntry;
        };
        self.depth = self.depth.max(idx + 1);
        let bucket = &mut self.buckets[idx];
        bucket.last_touched = now;
        if let Some(pos) = bucket.entries.iter().position(|c| c.key == contact.key) {
            // Move to the most-recently-seen end.
            let c = bucket.entries.remove(pos);
            bucket.entries.push(c);
            return InsertOutcome::Stored;
        }
        if bucket.entries.len() < self.k {
            bucket.entries.push(contact);
            return InsertOutcome::Stored;
        }
        bucket.pending = Some(contact);
        InsertOutcome::Full { evict_candidate: bucket.entries[0] }
    }

    /// Remove a contact that failed to respond; the pending replacement (if
    /// any) takes its slot.
    pub fn remove(&mut self, key: &Key) {
        let Some(idx) = self.local.key.bucket_index(key) else {
            return;
        };
        let bucket = &mut self.buckets[idx];
        if let Some(pos) = bucket.entries.iter().position(|c| c.key == *key) {
            bucket.entries.remove(pos);
            if let Some(p) = bucket.pending.take() {
                bucket.entries.push(p);
            }
        }
    }

    /// The non-empty buckets whose contacts are all strictly closer to the
    /// target than the local node, nearest bucket first. `own` is the local
    /// node's distance to the target.
    ///
    /// A contact in bucket `i` shares exactly `i` leading bits with the
    /// local key, so its distance to the target equals `own` above bit `i`
    /// and differs from it at bit `i`; every contact in a deeper bucket, and
    /// the local node itself, still agrees with `own` at bit `i`. Bucket `i`
    /// as a whole is therefore nearer than all of those where `own` has bit
    /// `i` set and farther than all of them where it is clear. Nearest
    /// first, the table reads: the buckets at the set bits of `own`,
    /// shallowest first; the local node; the buckets at the clear bits,
    /// deepest first.
    fn closer_buckets(&self, own: Distance) -> impl Iterator<Item = &[Contact]> {
        (own.leading_zeros()..self.depth)
            .filter(move |&i| own.bit(i))
            .map(|i| self.buckets[i].entries.as_slice())
            .filter(|entries| !entries.is_empty())
    }

    /// The non-empty buckets farther from the target than the local node,
    /// nearest bucket first (see [`Self::closer_buckets`]).
    fn farther_buckets(&self, own: Distance) -> impl Iterator<Item = &[Contact]> {
        (0..self.depth)
            .rev()
            .filter(move |&i| !own.bit(i))
            .map(|i| self.buckets[i].entries.as_slice())
            .filter(|entries| !entries.is_empty())
    }

    /// The `n` contacts closest to `target`, ascending by XOR distance.
    ///
    /// Walks the buckets nearest first and sorts each one on its own, so it
    /// stops at the bucket that completes `n` and never orders more than
    /// `k` contacts at a time.
    pub fn closest(&self, target: &Key, n: usize) -> Vec<Contact> {
        let own = self.local.key.distance(target);
        let mut out = Vec::new();
        for entries in self.closer_buckets(own).chain(self.farther_buckets(own)) {
            if out.len() >= n {
                break;
            }
            let start = out.len();
            out.extend_from_slice(entries);
            // Keys within a table are distinct, so distances are too and
            // the unstable sort has exactly one result.
            out[start..].sort_unstable_by_key(|c| c.key.distance(target));
        }
        out.truncate(n);
        out
    }

    /// The single closest contact strictly closer to `target` than the
    /// local node, if any — the greedy step of recursive routing.
    pub fn next_hop(&self, target: &Key) -> Option<Contact> {
        let own = self.local.key.distance(target);
        self.closer_buckets(own).next()?.iter().min_by_key(|c| c.key.distance(target)).copied()
    }

    /// Whether the local node is closer to `target` than every stored
    /// contact (i.e. we are the owner as far as we can tell).
    pub fn is_owner(&self, target: &Key) -> bool {
        self.next_hop(target).is_none()
    }

    /// Buckets that have not been touched since `cutoff`, shallowest first,
    /// as refresh targets (a random-ish key inside each stale bucket's
    /// range). Lazy, and bounded by `depth`: nothing past it holds a contact.
    pub fn stale_refresh_targets(&self, cutoff: SimTime) -> impl Iterator<Item = Key> + '_ {
        self.buckets[..self.depth]
            .iter()
            .enumerate()
            .filter(move |(_, b)| !b.entries.is_empty() && b.last_touched < cutoff)
            .map(|(i, _)| self.local.key.with_flipped_bit(i))
    }

    /// Snapshot of every contact (diagnostics, warm-start verification).
    pub fn contacts(&self) -> impl Iterator<Item = Contact> + '_ {
        self.buckets.iter().flat_map(|b| b.entries.iter().copied())
    }

    /// Does the table contain this exact node?
    pub fn contains(&self, node: NodeId) -> bool {
        self.contacts().any(|c| c.node == node)
    }

    /// Occupancy of each non-empty bucket (diagnostics).
    pub fn bucket_sizes(&self) -> Vec<(usize, usize)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.entries.is_empty())
            .map(|(i, b)| (i, b.entries.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contact(i: u32) -> Contact {
        Contact::for_node(NodeId::new(i))
    }

    fn table(k: usize) -> RoutingTable {
        RoutingTable::new(contact(0), k)
    }

    #[test]
    fn observe_and_lookup() {
        let mut t = table(8);
        for i in 1..=50 {
            t.observe(contact(i), SimTime::ZERO);
        }
        assert!(t.len() <= 50);
        assert!(!t.is_empty());
        let target = Key::hash(b"somewhere");
        let closest = t.closest(&target, 8);
        assert!(closest.len() <= 8);
        // Ascending distance order.
        for w in closest.windows(2) {
            assert!(w[0].key.distance(&target) <= w[1].key.distance(&target));
        }
    }

    #[test]
    fn closest_is_globally_correct() {
        let mut t = table(20);
        let mut everyone = Vec::new();
        for i in 1..=200 {
            let c = contact(i);
            everyone.push(c);
            t.observe(c, SimTime::ZERO);
        }
        let target = Key::hash(b"target");
        everyone.sort_by_key(|c| c.key.distance(&target));
        let got = t.closest(&target, 5);
        // Every table-stored contact at least as close as got[4] must appear.
        let stored: std::collections::HashSet<_> = t.contacts().map(|c| c.node).collect();
        let expect: Vec<_> =
            everyone.iter().filter(|c| stored.contains(&c.node)).take(5).map(|c| c.node).collect();
        assert_eq!(got.iter().map(|c| c.node).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn self_never_stored() {
        let mut t = table(4);
        assert_eq!(t.observe(contact(0), SimTime::ZERO), InsertOutcome::SelfEntry);
        assert!(t.is_empty());
    }

    #[test]
    fn duplicate_observation_moves_to_mru() {
        let mut t = table(4);
        // Find several contacts in the same bucket.
        let local_key = contact(0).key;
        let mut same_bucket = Vec::new();
        let mut i = 1;
        let want_bucket = local_key.bucket_index(&contact(1).key).unwrap();
        while same_bucket.len() < 3 {
            let c = contact(i);
            if local_key.bucket_index(&c.key) == Some(want_bucket) {
                same_bucket.push(c);
            }
            i += 1;
        }
        for c in &same_bucket {
            t.observe(*c, SimTime::ZERO);
        }
        // Re-observe the first; it should become most recently seen, so when
        // the bucket fills (k=4 leaves room) the evict candidate is another.
        t.observe(same_bucket[0], SimTime::from_micros(10));
        // Fill the bucket to capacity and overflow it.
        let mut extra = Vec::new();
        while extra.len() < 2 {
            let c = contact(i);
            if local_key.bucket_index(&c.key) == Some(want_bucket) {
                extra.push(c);
            }
            i += 1;
        }
        t.observe(extra[0], SimTime::from_micros(20));
        match t.observe(extra[1], SimTime::from_micros(30)) {
            InsertOutcome::Full { evict_candidate } => {
                assert_eq!(evict_candidate, same_bucket[1], "LRU entry is the evict candidate");
            }
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn eviction_promotes_pending() {
        let mut t = table(1);
        let local_key = contact(0).key;
        // Two contacts in the same bucket; capacity 1.
        let mut found = Vec::new();
        let mut i = 1;
        let want = local_key.bucket_index(&contact(1).key).unwrap();
        while found.len() < 2 {
            let c = contact(i);
            if local_key.bucket_index(&c.key) == Some(want) {
                found.push(c);
            }
            i += 1;
        }
        assert_eq!(t.observe(found[0], SimTime::ZERO), InsertOutcome::Stored);
        match t.observe(found[1], SimTime::ZERO) {
            InsertOutcome::Full { evict_candidate } => assert_eq!(evict_candidate, found[0]),
            other => panic!("expected Full, got {other:?}"),
        }
        // Evict the stale entry: the pending contact takes its place.
        t.remove(&found[0].key);
        assert!(t.contains(found[1].node));
        assert!(!t.contains(found[0].node));
    }

    #[test]
    fn next_hop_strictly_closer_or_owner() {
        let mut t = table(8);
        for i in 1..=100 {
            t.observe(contact(i), SimTime::ZERO);
        }
        let target = Key::hash(b"t");
        match t.next_hop(&target) {
            Some(hop) => {
                assert!(hop.key.distance(&target) < t.local().key.distance(&target));
                assert!(!t.is_owner(&target));
            }
            None => assert!(t.is_owner(&target)),
        }
        // The local node always owns its own key... unless a contact equals
        // the key, which cannot happen for hashed node keys here.
        assert!(t.is_owner(&t.local().key));
    }

    #[test]
    fn stale_buckets_produce_refresh_targets() {
        let mut t = table(4);
        for i in 1..=30 {
            t.observe(contact(i), SimTime::from_micros(5));
        }
        let targets: Vec<Key> = t.stale_refresh_targets(SimTime::from_micros(100)).collect();
        assert!(!targets.is_empty());
        // Each refresh target must land in the bucket it refreshes.
        let filled: Vec<usize> = t.bucket_sizes().iter().map(|(i, _)| *i).collect();
        for target in &targets {
            let idx = t.local().key.bucket_index(target).unwrap();
            assert!(filled.contains(&idx));
        }
        // Touching buckets clears them from the stale list.
        for i in 1..=30 {
            t.observe(contact(i), SimTime::from_micros(200));
        }
        assert_eq!(t.stale_refresh_targets(SimTime::from_micros(100)).count(), 0);
    }

    #[test]
    fn remove_unknown_is_noop() {
        let mut t = table(4);
        t.observe(contact(1), SimTime::ZERO);
        let before = t.len();
        t.remove(&Key::hash(b"nobody"));
        assert_eq!(t.len(), before);
    }
}
