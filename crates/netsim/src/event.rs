//! The event queue: an exact calendar queue (Brown, CACM 1988) ordered by a
//! shard-count-independent key.
//!
//! Every event is ordered by [`EventKey`] — `(arrival time, send time,
//! scheduling node, per-node sequence)`. The per-node sequence number is a
//! monotone counter over everything a node schedules (message sends and
//! timers alike), so the key is *intrinsic to the workload*: it does not
//! depend on which shard pushed the event or on any global push order.
//! That is what lets the sharded kernel merge cross-shard deliveries at
//! window barriers and still pop events in the exact order a one-shard run
//! would — ties at the same arrival time break first by when they were
//! sent, then by who scheduled them, then FIFO per scheduler.
//!
//! Time is cut into 2¹⁰ µs buckets, and a ring of 1,024 of them covers the
//! ≈ 1.05 s after the *cursor* bucket. Every pending event sits in exactly
//! one place: the *run* (at or behind the cursor, sorted by key and popped
//! from the front), the *ring* (later buckets, unsorted, with an occupancy
//! mask) or the *heap* (past the ring, plus pushes at or behind the cursor
//! that sort before the run's last event — mostly cross-shard mail landing
//! behind a cursor that a peek moved ahead). A push appends to its bucket;
//! the heap's top moves to the run's front when it sorts first; when both
//! are spent, the cursor moves to the next occupied bucket, heap events now
//! inside the ring move in, and that bucket is sorted once. So pops come
//! out in exactly key order, and a drained bucket's buffer is freed: memory
//! tracks the live events.

use crate::actor::{NodeId, TimerToken};
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

pub(crate) enum EventKind<M> {
    /// Deliver `msg` from `from` to `dst`.
    Deliver { from: NodeId, dst: NodeId, msg: M },
    /// Fire timer `token` at `dst`, provided the arming epoch still matches.
    Timer { dst: NodeId, token: TimerToken, epoch: u32 },
}

/// Total order on pending events, independent of shard count and push
/// order. Lexicographic: arrival time, send time, scheduling node id,
/// per-node schedule sequence.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct EventKey {
    /// Arrival (pop) time.
    pub time: SimTime,
    /// Virtual time at which the event was scheduled (send time / timer
    /// arm time). Always `<= time`.
    pub sent: SimTime,
    /// The node that scheduled the event (message source; for timers, the
    /// owner itself).
    pub src: NodeId,
    /// The scheduler's per-node monotone sequence number at schedule time.
    pub seq: u32,
}

/// log₂ of a bucket's width in microseconds.
const BUCKET_SHIFT: u32 = 10;
/// Buckets in the ring (a horizon of 2²⁰ µs).
const RING: usize = 1 << 10;

type Entry<M> = (EventKey, EventKind<M>);

fn bucket_of(time: SimTime) -> u64 {
    time.as_micros() >> BUCKET_SHIFT
}

/// A heap entry, ordered by its key alone.
struct HeapEntry<M>(EventKey, EventKind<M>);

impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<M> Eq for HeapEntry<M> {}

/// Min-queue of pending events.
pub(crate) struct EventQueue<M> {
    /// The bucket (`time >> BUCKET_SHIFT`) last opened into the run.
    cursor: u64,
    /// Pending events in a bucket `<= cursor` and not in `heap`, by key.
    run: VecDeque<Entry<M>>,
    /// Buckets `cursor + 1 .. cursor + RING`, bucket `b` at `b % RING`.
    ring: Box<[Vec<Entry<M>>; RING]>,
    /// Bit `i` is set iff `ring[i]` is non-empty.
    occupied: [u64; RING / 64],
    /// Events in a bucket `>= cursor + RING`, and pushes into a bucket
    /// `<= cursor` that sort before the run's last event.
    heap: BinaryHeap<Reverse<HeapEntry<M>>>,
    /// Pending events, wherever they sit.
    len: usize,
    processed: u64,
    peak: usize,
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            cursor: 0,
            run: VecDeque::new(),
            ring: Box::new(std::array::from_fn(|_| Vec::new())),
            occupied: [0; RING / 64],
            heap: BinaryHeap::new(),
            len: 0,
            processed: 0,
            peak: 0,
        }
    }

    pub fn push(&mut self, key: EventKey, kind: EventKind<M>) {
        let b = bucket_of(key.time);
        if b > self.cursor && b - self.cursor < RING as u64 {
            self.file(b, (key, kind));
        } else if b <= self.cursor && self.run.back().is_none_or(|last| last.0 <= key) {
            self.run.push_back((key, kind));
        } else {
            self.heap.push(Reverse(HeapEntry(key, kind)));
        }
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    pub fn pop(&mut self) -> Option<(EventKey, EventKind<M>)> {
        let entry = self.run()?.pop_front().expect("an opened bucket holds an event");
        self.len -= 1;
        self.processed += 1;
        Some(entry)
    }

    /// The next event's key. Takes `&mut self` because finding the next
    /// event may open the next bucket.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        self.run().map(|run| run[0].0)
    }

    /// Heap footprint of the queue, charged at capacity: the ring's spine
    /// and bucket buffers, the run and the heap.
    pub fn heap_bytes(&self) -> usize {
        let buffered: usize = self.ring.iter().map(Vec::capacity).sum();
        size_of_val(&*self.ring)
            + (buffered + self.run.capacity()) * size_of::<Entry<M>>()
            + self.heap.capacity() * size_of::<Reverse<HeapEntry<M>>>()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Events popped over the queue's lifetime.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// High-water mark of simultaneously pending events.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Put an event into ring bucket `b` (`cursor < b < cursor + RING`).
    fn file(&mut self, b: u64, entry: Entry<M>) {
        let i = b as usize % RING;
        self.ring[i].push(entry);
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    /// The run with the next event at its front (`None` if none is pending):
    /// the heap's top moves there if it sorts first or, with the run spent,
    /// lies at or behind the cursor; else a spent run is refilled from the
    /// next occupied bucket, or with the ring empty the heap's first bucket.
    fn run(&mut self) -> Option<&mut VecDeque<Entry<M>>> {
        let (top, cursor) = (self.heap.peek().map(|top| top.0 .0), self.cursor);
        if top.is_some_and(|k| self.run.front().map_or(bucket_of(k.time) <= cursor, |e| k < e.0)) {
            let Reverse(HeapEntry(key, kind)) = self.heap.pop().expect("peeked event vanished");
            self.run.push_front((key, kind));
        } else if self.run.is_empty() {
            self.cursor = match self.next_occupied() {
                Some(b) => b,
                None => bucket_of(top?.time),
            };
            let horizon = self.cursor + RING as u64;
            while self.heap.peek().is_some_and(|top| bucket_of(top.0 .0.time) < horizon) {
                let Reverse(HeapEntry(key, kind)) = self.heap.pop().expect("peeked event vanished");
                self.file(bucket_of(key.time), (key, kind));
            }
            let i = self.cursor as usize % RING;
            self.occupied[i / 64] &= !(1 << (i % 64));
            let mut opened = std::mem::take(&mut self.ring[i]);
            opened.sort_unstable_by_key(|e| e.0);
            self.run = VecDeque::from(opened);
        }
        Some(&mut self.run)
    }

    /// The first occupied ring bucket after the cursor, `None` if the ring
    /// is empty: one lap of the mask, at most 17 word reads — the lap ends
    /// on its first word again, whose low bits close the circle.
    fn next_occupied(&self) -> Option<u64> {
        let from = (self.cursor as usize + 1) % RING;
        (0..=RING / 64).find_map(|lap| {
            let w = (from / 64 + lap) % (RING / 64);
            let word = self.occupied[w] & if lap == 0 { !0 << (from % 64) } else { !0 };
            let slot = w * 64 + word.trailing_zeros() as usize;
            (word != 0).then(|| self.cursor + 1 + ((slot + RING - from) % RING) as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn key(time: u64, sent: u64, src: u32, seq: u32) -> EventKey {
        EventKey {
            time: SimTime::from_micros(time),
            sent: SimTime::from_micros(sent),
            src: NodeId::new(src),
            seq,
        }
    }

    fn deliver(src: u32, tag: u32) -> EventKind<u32> {
        EventKind::Deliver { from: NodeId::new(src), dst: NodeId::new(0), msg: tag }
    }

    /// A popped event as its key and payload tag.
    fn tagged((key, kind): (EventKey, EventKind<u32>)) -> (EventKey, u32) {
        match kind {
            EventKind::Deliver { msg, .. } => (key, msg),
            EventKind::Timer { .. } => panic!("the tests push deliveries only"),
        }
    }

    fn drain_tags(q: &mut EventQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop().map(|e| tagged(e).1)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(key(30, 0, 0, 0), deliver(0, 3));
        q.push(key(10, 0, 0, 1), deliver(0, 1));
        q.push(key(20, 0, 0, 2), deliver(0, 2));
        let order: Vec<u64> =
            std::iter::from_fn(|| q.pop().map(|(k, _)| k.time.as_micros())).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    /// Satellite regression: events scheduled by one node for the same
    /// arrival `SimTime` pop FIFO in schedule order (the per-node sequence
    /// is the final tie-break). The cross-shard merge depends on this.
    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(key(5, 1, 0, i), deliver(0, i));
        }
        assert_eq!(drain_tags(&mut q), (0..10).collect::<Vec<_>>());
    }

    /// Ties at the same arrival time across *different* schedulers order by
    /// (send time, scheduler id) — intrinsic to the workload, so any shard
    /// layout pops them identically.
    #[test]
    fn cross_source_ties_order_by_sent_then_src() {
        let mut q = EventQueue::new();
        // Same arrival t=100. Pushed in scrambled order on purpose.
        q.push(key(100, 40, 1, 9), deliver(1, 2)); // sent later
        q.push(key(100, 20, 7, 0), deliver(7, 1)); // sent early, high id
        q.push(key(100, 20, 3, 5), deliver(3, 0)); // sent early, low id
        q.push(key(100, 40, 1, 10), deliver(1, 3)); // same sender, later seq
        assert_eq!(drain_tags(&mut q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(key(7, 0, 2, 4), deliver(2, 0));
        assert_eq!(q.peek_key(), Some(key(7, 0, 2, 4)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_key(), None);
    }

    /// `len`, `peak` and `processed` (what `Sim::event_stats` reports)
    /// count events wherever they sit — run, ring or heap — and peeks,
    /// which may open buckets, move none of them.
    #[test]
    fn accounts_processed_peak_and_len() {
        let mut q = EventQueue::new();
        q.push(key(0, 0, 0, 1), deliver(0, 1)); // the run
        q.push(key(0, 0, 0, 0), deliver(0, 0)); // the heap: sorts before the run's last
        q.push(key(5_000, 0, 0, 2), deliver(0, 2)); // the ring
        q.push(key(9_000_000, 0, 0, 3), deliver(0, 3)); // the heap: past the ring
        assert_eq!((q.len(), q.peak(), q.processed()), (4, 4, 0));
        for (tag, at) in [(0, 0), (1, 0), (2, 5_000), (3, 9_000_000)] {
            assert_eq!(q.peek_key(), Some(key(at, 0, 0, tag)));
            assert_eq!(q.pop().map(tagged), Some((key(at, 0, 0, tag), tag)));
        }
        assert_eq!((q.len(), q.peak(), q.processed()), (0, 4, 4));
        for round in 0..50u32 {
            let t = 10_000_000 + u64::from(round) * 300_000;
            for i in 0..4 {
                q.push(key(t + u64::from(i) * 700, t, 0, 4 + round * 4 + i), deliver(0, i));
            }
            assert_eq!(drain_tags(&mut q), vec![0, 1, 2, 3]);
        }
        assert_eq!((q.len(), q.peak(), q.processed()), (0, 4, 204));
    }

    /// How far ahead of `now` a model-test push lands, by class: the same
    /// microsecond, the same bucket, the next bucket, 20–90 ms, a 400 ms
    /// tick, straddling the ring's horizon, or 2–600 s past it.
    fn delay(class: u8, now: u64, raw: u64) -> u64 {
        const W: u64 = 1 << BUCKET_SHIFT;
        let into = now % W;
        match class {
            0 => 0,
            1 => raw % (W - into),
            2 => W - into + raw % W,
            3 => 20_000 + raw % 70_001,
            4 => 400_000,
            5 => (RING as u64 - 1) * W + raw % (2 * W),
            _ => 2_000_000 + raw % 598_000_001,
        }
    }

    proptest! {
        /// The calendar queue against an ordered-set model under random
        /// interleavings of push, pop, peek and `run_until`-style deadlines
        /// (pop what is due, peek past the deadline — carrying the cursor
        /// across the idle gap, or an idle jump longer than the horizon —
        /// then park the clock at the deadline so later pushes land behind
        /// the cursor). Pops match key for key and payload for payload, and
        /// `len` / `peak` / `processed` match after every step.
        ///
        /// Planted bugs it catches: skipping the migration of heap events
        /// into the ring (always, or only when the cursor advances through
        /// the ring), filing a push at or behind the cursor into the ring,
        /// an occupancy bit left set on an opened bucket, and a heap top
        /// left behind the run's front.
        #[test]
        fn queue_matches_ordered_set_model(
            ops in prop::collection::vec((0u8..10, 0u8..7, any::<u64>()), 1..300)
        ) {
            let mut q = EventQueue::new();
            let mut model = BTreeSet::new();
            let (mut now, mut seq, mut peak, mut processed) = (0u64, 0u32, 0usize, 0u64);
            for (op, class, raw) in ops {
                match op {
                    0..=4 => {
                        let k = key(now + delay(class, now, raw), now, (raw % 5) as u32, seq);
                        seq += 1;
                        q.push(k, deliver(k.src.raw(), k.seq));
                        model.insert(k);
                        peak = peak.max(model.len());
                    }
                    5 | 6 => {
                        let want = model.pop_first();
                        prop_assert_eq!(q.pop().map(tagged), want.map(|k| (k, k.seq)));
                        if let Some(k) = want {
                            now = k.time.as_micros();
                            processed += 1;
                        }
                    }
                    7 => prop_assert_eq!(q.peek_key(), model.first().copied()),
                    _ => {
                        let deadline = now + delay(class, now, raw);
                        while let Some(&k) = model.first() {
                            if k.time.as_micros() > deadline {
                                break;
                            }
                            model.remove(&k);
                            prop_assert_eq!(q.pop().map(tagged), Some((k, k.seq)));
                            processed += 1;
                        }
                        prop_assert_eq!(q.peek_key(), model.first().copied());
                        now = deadline;
                    }
                }
                prop_assert_eq!((q.len(), q.peak(), q.processed()), (model.len(), peak, processed));
            }
            while let Some(k) = model.pop_first() {
                prop_assert_eq!(q.pop().map(tagged), Some((k, k.seq)));
                processed += 1;
            }
            prop_assert_eq!(q.pop().map(tagged), None);
            prop_assert_eq!((q.len(), q.processed()), (0, processed));
        }
    }
}
