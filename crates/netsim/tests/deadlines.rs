//! `Deadlines` against a reference that does the full work: a plain
//! `BTreeMap` whose sweep scans every entry for the smallest overdue key.
//! Random `open` / `close` / `pop_due` sequences that keep the table's
//! ordering rule (keys open in increasing order with non-decreasing due
//! times) must end the same entries, in the same order, with the same
//! values, and must end each key at most once.

use pier_netsim::{Deadlines, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The full-scan reference.
#[derive(Default)]
struct Reference {
    entries: BTreeMap<u64, (SimTime, u32)>,
}

impl Reference {
    fn pop_due(&mut self, now: SimTime) -> Option<(u64, u32)> {
        let key = self.entries.iter().filter(|(_, (due, _))| *due <= now).map(|(&k, _)| k).min()?;
        self.entries.remove(&key).map(|(_, v)| (key, v))
    }
}

/// One step: 0 opens (`a` is the key gap, `b` the due-time step), 1 closes
/// key `a` (open, ended or never opened), 2 sweeps at a time drawn from `a`
/// up to just past the latest due time, 3 bumps the value of key `a`.
type Op = (u8, u64, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..4, 0u64..64, 0u64..8), 0..80)
}

proptest! {
    #[test]
    fn deadlines_match_a_full_scan(ops in ops()) {
        let mut table: Deadlines<u64, u32> = Deadlines::default();
        let mut reference = Reference::default();
        let mut ended = BTreeSet::new();
        let (mut next_key, mut last_due, mut opened) = (0u64, 0u64, 0u32);
        for (op, a, b) in ops {
            match op {
                0 => {
                    next_key += 1 + a % 3;
                    last_due += b;
                    let due = SimTime::from_micros(last_due);
                    table.open(next_key, due, opened);
                    reference.entries.insert(next_key, (due, opened));
                    opened += 1;
                }
                1 => {
                    let key = a % (next_key + 2);
                    let got = table.close(&key);
                    prop_assert_eq!(got, reference.entries.remove(&key).map(|(_, v)| v));
                    if got.is_some() {
                        prop_assert!(ended.insert(key), "key {} ended twice", key);
                    }
                }
                2 => {
                    let now = SimTime::from_micros(a * (last_due + 8) / 64);
                    loop {
                        let got = table.pop_due(now);
                        prop_assert_eq!(got, reference.pop_due(now), "sweep at {:?}", now);
                        let Some((key, _)) = got else { break };
                        prop_assert!(ended.insert(key), "key {} ended twice", key);
                    }
                }
                _ => {
                    let key = a % (next_key + 2);
                    let want = reference.entries.get_mut(&key).map(|(_, v)| v);
                    let got = table.get_mut(&key);
                    prop_assert_eq!(got.as_deref(), want.as_deref());
                    if let (Some(got), Some(want)) = (got, want) {
                        *got += 1000;
                        *want += 1000;
                    }
                }
            }
            prop_assert_eq!(table.is_empty(), reference.entries.is_empty());
        }
        // Everything still open ends now, in key order.
        let never = SimTime::from_micros(u64::MAX);
        while let Some(got) = table.pop_due(never) {
            prop_assert_eq!(Some(got), reference.pop_due(never));
            prop_assert!(ended.insert(got.0), "key {} ended twice", got.0);
        }
        prop_assert!(reference.entries.is_empty());
    }
}

/// `clear` ends nothing: what was open is gone, and the table opens again.
#[test]
fn clear_forgets_every_entry() {
    let mut table: Deadlines<u64, &str> = Deadlines::default();
    table.open(1, SimTime::from_micros(5), "a");
    table.open(2, SimTime::from_micros(5), "b");
    table.clear();
    assert!(table.is_empty());
    assert_eq!(table.pop_due(SimTime::from_micros(u64::MAX)), None);
    table.open(3, SimTime::from_micros(9), "c");
    assert_eq!(table.close(&3), Some("c"));
}

/// Breaking the ordering rule is caught where it happens (debug builds).
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "increasing order")]
fn an_earlier_due_time_is_rejected() {
    let mut table: Deadlines<u64, ()> = Deadlines::default();
    table.open(1, SimTime::from_micros(10), ());
    table.open(2, SimTime::from_micros(9), ());
}
