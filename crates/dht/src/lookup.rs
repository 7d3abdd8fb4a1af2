//! Iterative lookup: the α-parallel search that underlies `FIND_NODE`,
//! `FIND_VALUE`, and the placement step of `STORE`.
//!
//! The state machine is pure (no I/O): the core asks it which contacts to
//! query next and feeds it responses/failures; it reports completion when
//! the k closest live candidates have all answered.

use crate::contact::Contact;
use crate::key::{Distance, Key};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EntryState {
    New,
    InFlight,
    Responded,
    Failed,
}

/// One candidate, with its distance to the target computed once on entry.
#[derive(Clone, Copy)]
struct Entry {
    distance: Distance,
    contact: Contact,
    state: EntryState,
}

/// What the lookup is for; drives which RPC the core sends and what happens
/// on completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LookupKind {
    /// Populate routing state / find owners (FIND_NODE).
    Node,
    /// Retrieve values (FIND_VALUE).
    Value,
    /// Find the replica set, then store `value` with `ttl_us` there.
    Publish { value: Vec<u8>, ttl_us: u64 },
}

/// One in-progress iterative lookup.
pub struct Lookup {
    pub target: Key,
    pub kind: LookupKind,
    k: usize,
    alpha: usize,
    /// Sorted ascending by XOR distance to `target`; no duplicates; never
    /// contains the local node.
    entries: Vec<Entry>,
    /// Values collected from FIND_VALUE responses (deduplicated).
    pub values: Vec<Vec<u8>>,
    /// How many distinct nodes supplied values.
    pub value_holders: usize,
    /// Total RPCs issued (for hop/message accounting).
    pub queries_sent: u32,
}

impl pier_netsim::HeapSize for Lookup {
    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * size_of::<Entry>()
            + self.values.heap_bytes()
            + match &self.kind {
                LookupKind::Publish { value, .. } => value.heap_bytes(),
                _ => 0,
            }
    }
}

impl Lookup {
    pub fn new(
        target: Key,
        kind: LookupKind,
        k: usize,
        alpha: usize,
        self_key: Key,
        seeds: Vec<Contact>,
    ) -> Self {
        let mut lookup = Lookup {
            target,
            kind,
            k,
            alpha,
            entries: Vec::new(),
            values: Vec::new(),
            value_holders: 0,
            queries_sent: 0,
        };
        lookup.add_candidates(&seeds, self_key);
        lookup
    }

    /// Merge new candidates, keeping the list sorted and deduplicated.
    pub fn add_candidates(&mut self, contacts: &[Contact], self_key: Key) {
        for c in contacts {
            if c.key == self_key {
                continue;
            }
            let distance = c.key.distance(&self.target);
            if let Err(pos) = self.position(distance) {
                self.entries.insert(pos, Entry { distance, contact: *c, state: EntryState::New });
            }
        }
    }

    /// Index of the candidate at `distance` (`Ok`), or where it would be
    /// inserted (`Err`). Distances to one target are equal only for equal
    /// keys, so this also finds a candidate by key.
    fn position(&self, distance: Distance) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&distance, |e| e.distance)
    }

    /// Contacts to query now: new entries among the k closest non-failed
    /// candidates, respecting the α in-flight limit. Marks them in-flight.
    pub fn next_batch(&mut self) -> Vec<Contact> {
        let in_flight = self.entries.iter().filter(|e| e.state == EntryState::InFlight).count();
        let mut budget = self.alpha.saturating_sub(in_flight);
        let mut out = Vec::new();
        let mut considered = 0;
        for e in self.entries.iter_mut() {
            if e.state == EntryState::Failed {
                continue;
            }
            considered += 1;
            if considered > self.k {
                break;
            }
            if e.state == EntryState::New && budget > 0 {
                e.state = EntryState::InFlight;
                budget -= 1;
                out.push(e.contact);
            }
        }
        self.queries_sent += out.len() as u32;
        out
    }

    /// Record a response from `from` (candidates already merged separately).
    pub fn on_response(&mut self, from: &Key) {
        self.mark(from, EntryState::Responded);
    }

    /// Record values carried by a FIND_VALUE response.
    pub fn on_values(&mut self, from: &Key, values: Vec<Vec<u8>>) {
        self.mark(from, EntryState::Responded);
        if !values.is_empty() {
            self.value_holders += 1;
        }
        for v in values {
            if !self.values.contains(&v) {
                self.values.push(v);
            }
        }
    }

    /// Record an RPC failure (timeout) from `from`.
    pub fn on_failure(&mut self, from: &Key) {
        self.mark(from, EntryState::Failed);
    }

    fn mark(&mut self, key: &Key, state: EntryState) {
        if let Ok(pos) = self.position(key.distance(&self.target)) {
            self.entries[pos].state = state;
        }
    }

    /// Complete when nothing is in flight and no unqueried candidate remains
    /// within the k closest live entries.
    pub fn is_complete(&self) -> bool {
        if self.entries.iter().any(|e| e.state == EntryState::InFlight) {
            return false;
        }
        !self
            .entries
            .iter()
            .filter(|e| e.state != EntryState::Failed)
            .take(self.k)
            .any(|e| e.state == EntryState::New)
    }

    /// The n closest contacts that responded, ascending by distance.
    pub fn closest_responded(&self, n: usize) -> Vec<Contact> {
        self.entries
            .iter()
            .filter(|e| e.state == EntryState::Responded)
            .take(n)
            .map(|e| e.contact)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_netsim::NodeId;

    fn contact(i: u32) -> Contact {
        Contact::for_node(NodeId::new(i))
    }

    fn by_distance(target: &Key, mut contacts: Vec<Contact>) -> Vec<Contact> {
        contacts.sort_by_key(|c| c.key.distance(target));
        contacts
    }

    #[test]
    fn queries_alpha_closest_first() {
        let target = Key::hash(b"t");
        let seeds: Vec<Contact> = (1..=10).map(contact).collect();
        let sorted = by_distance(&target, seeds.clone());
        let mut l = Lookup::new(target, LookupKind::Node, 8, 3, Key::for_node(0), seeds);
        let batch = l.next_batch();
        assert_eq!(batch, sorted[..3].to_vec());
        assert!(l.next_batch().is_empty(), "alpha limit respected");
    }

    #[test]
    fn completes_when_k_closest_respond() {
        let target = Key::hash(b"t");
        let seeds: Vec<Contact> = (1..=5).map(contact).collect();
        let mut l = Lookup::new(target, LookupKind::Node, 3, 2, Key::for_node(0), seeds);
        while !l.is_complete() {
            let batch = l.next_batch();
            assert!(!batch.is_empty(), "must make progress");
            for c in batch {
                l.on_response(&c.key);
            }
        }
        let result = l.closest_responded(3);
        assert_eq!(result.len(), 3);
        for w in result.windows(2) {
            assert!(w[0].key.distance(&target) <= w[1].key.distance(&target));
        }
    }

    #[test]
    fn failures_pull_in_replacements() {
        let target = Key::hash(b"t");
        let seeds: Vec<Contact> = (1..=6).map(contact).collect();
        let sorted = by_distance(&target, seeds.clone());
        let mut l = Lookup::new(target, LookupKind::Node, 3, 6, Key::for_node(0), seeds);
        let batch = l.next_batch();
        assert_eq!(batch.len(), 3, "k closest queried");
        // All three fail: the next three must be offered.
        for c in &batch {
            l.on_failure(&c.key);
        }
        assert!(!l.is_complete());
        let retry = l.next_batch();
        assert_eq!(retry, sorted[3..6].to_vec());
        for c in &retry {
            l.on_response(&c.key);
        }
        assert!(l.is_complete());
        assert_eq!(l.closest_responded(3), sorted[3..6].to_vec());
    }

    #[test]
    fn all_failed_completes_empty() {
        let target = Key::hash(b"t");
        let mut l = Lookup::new(target, LookupKind::Node, 3, 3, Key::for_node(0), vec![contact(1)]);
        let batch = l.next_batch();
        l.on_failure(&batch[0].key);
        assert!(l.is_complete());
        assert!(l.closest_responded(3).is_empty());
    }

    #[test]
    fn empty_seed_completes_immediately() {
        let l = Lookup::new(Key::hash(b"t"), LookupKind::Node, 3, 3, Key::for_node(0), vec![]);
        assert!(l.is_complete());
    }

    #[test]
    fn candidates_deduplicated_and_self_excluded() {
        let target = Key::hash(b"t");
        let self_key = Key::for_node(0);
        let mut l = Lookup::new(target, LookupKind::Node, 8, 3, self_key, vec![contact(1)]);
        l.add_candidates(
            &[contact(1), Contact::new(self_key, NodeId::new(0)), contact(2)],
            self_key,
        );
        let entries: Vec<Contact> = l.entries.iter().map(|e| e.contact).collect();
        assert_eq!(entries, by_distance(&target, vec![contact(1), contact(2)]));
    }

    #[test]
    fn new_closer_candidates_keep_lookup_alive() {
        let target = Key::hash(b"t");
        let self_key = Key::for_node(0);
        // Pick seeds so we can find a closer candidate to inject later.
        let pool: Vec<Contact> = (1..=50).map(contact).collect();
        let sorted = by_distance(&target, pool.clone());
        let far = sorted[10..13].to_vec();
        let near = sorted[0];
        let mut l = Lookup::new(target, LookupKind::Node, 3, 3, self_key, far.clone());
        let batch = l.next_batch();
        for c in &batch {
            l.on_response(&c.key);
        }
        assert!(l.is_complete());
        // A response introduces a closer node: lookup must reopen.
        l.add_candidates(&[near], self_key);
        assert!(!l.is_complete());
        let batch2 = l.next_batch();
        assert_eq!(batch2, vec![near]);
        l.on_response(&near.key);
        assert!(l.is_complete());
        assert_eq!(l.closest_responded(1), vec![near]);
    }

    #[test]
    fn values_deduplicate_and_count_holders() {
        let target = Key::hash(b"t");
        let mut l = Lookup::new(
            target,
            LookupKind::Value,
            3,
            3,
            Key::for_node(0),
            vec![contact(1), contact(2)],
        );
        let batch = l.next_batch();
        l.on_values(&batch[0].key, vec![b"a".to_vec(), b"b".to_vec()]);
        l.on_values(&batch[1].key, vec![b"b".to_vec(), b"c".to_vec()]);
        assert_eq!(l.values.len(), 3);
        assert_eq!(l.value_holders, 2);
    }

    #[test]
    fn queries_sent_accumulates() {
        let target = Key::hash(b"t");
        let seeds: Vec<Contact> = (1..=4).map(contact).collect();
        let mut l = Lookup::new(target, LookupKind::Node, 4, 2, Key::for_node(0), seeds);
        let b1 = l.next_batch();
        for c in &b1 {
            l.on_response(&c.key);
        }
        let b2 = l.next_batch();
        assert_eq!(l.queries_sent as usize, b1.len() + b2.len());
    }
}
