//! Causal query tracing: a deterministic sampled subset of queries is
//! registered here by GUID, and instrumentation points across the protocol
//! crates emit sim-timestamped [`TraceEvent`]s through a cheap cloneable
//! [`TraceHandle`].
//!
//! Everything in this module is clock-free and RNG-free: events carry *sim*
//! time only, ordering is fully determined by the kernel's deterministic pop
//! order, and the tracer never touches `Metrics`. Turning tracing on or off
//! must therefore leave every pinned statistic bit-identical (see
//! `tests/determinism.rs`).

use pier_netsim::{NodeId, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Dense per-run trace identifier (index into the tracer's meta table).
pub type TraceId = u32;

/// What happened at one instrumentation point. The generic `n`/`m` payload
/// fields of [`TraceEvent`] mean, per kind:
///
/// | kind            | emitted by           | `n`                  | `m`               |
/// |-----------------|----------------------|----------------------|-------------------|
/// | `QueryStart`    | lab driver           | ttl                  | —                 |
/// | `RelayRecv`     | ultrapeer            | ttl (as received)    | hops (as received)|
/// | `DupDrop`       | ultrapeer            | ttl                  | hops              |
/// | `QrpScreen`     | ultrapeer            | leaves forwarded     | leaves screened   |
/// | `LeafMatch`     | leaf                 | hits returned        | —                 |
/// | `HitRelay`      | ultrapeer (reverse)  | hits in batch        | —                 |
/// | `HitArrive`     | origin ultrapeer     | hits in batch        | total hits so far |
/// | `DhtLookupStart`| dht core             | op id                | kind (0=value)    |
/// | `DhtHop`        | dht core             | rpcs issued in batch | op id             |
/// | `DhtTimeout`    | dht core             | rpcs timed out       | op id             |
/// | `DhtLookupDone` | dht core             | total rpcs sent      | op id             |
/// | `PierFallback`  | hybrid ultrapeer     | gnutella hits so far | —                 |
/// | `PierDone`      | hybrid ultrapeer     | pier hits            | —                 |
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    QueryStart,
    RelayRecv,
    DupDrop,
    QrpScreen,
    LeafMatch,
    HitRelay,
    HitArrive,
    DhtLookupStart,
    DhtHop,
    DhtTimeout,
    DhtLookupDone,
    PierFallback,
    PierDone,
}

impl TraceKind {
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::QueryStart => "query_start",
            TraceKind::RelayRecv => "relay_recv",
            TraceKind::DupDrop => "dup_drop",
            TraceKind::QrpScreen => "qrp_screen",
            TraceKind::LeafMatch => "leaf_match",
            TraceKind::HitRelay => "hit_relay",
            TraceKind::HitArrive => "hit_arrive",
            TraceKind::DhtLookupStart => "dht_lookup_start",
            TraceKind::DhtHop => "dht_hop",
            TraceKind::DhtTimeout => "dht_timeout",
            TraceKind::DhtLookupDone => "dht_lookup_done",
            TraceKind::PierFallback => "pier_fallback",
            TraceKind::PierDone => "pier_done",
        }
    }

    pub fn parse(s: &str) -> Option<TraceKind> {
        Some(match s {
            "query_start" => TraceKind::QueryStart,
            "relay_recv" => TraceKind::RelayRecv,
            "dup_drop" => TraceKind::DupDrop,
            "qrp_screen" => TraceKind::QrpScreen,
            "leaf_match" => TraceKind::LeafMatch,
            "hit_relay" => TraceKind::HitRelay,
            "hit_arrive" => TraceKind::HitArrive,
            "dht_lookup_start" => TraceKind::DhtLookupStart,
            "dht_hop" => TraceKind::DhtHop,
            "dht_timeout" => TraceKind::DhtTimeout,
            "dht_lookup_done" => TraceKind::DhtLookupDone,
            "pier_fallback" => TraceKind::PierFallback,
            "pier_done" => TraceKind::PierDone,
            _ => return None,
        })
    }
}

/// One instrumentation-point record. `seq` is a per-`(trace, node)` counter
/// assigned in emit order; since the kernel pops events deterministically,
/// the full sort key `(trace, at_us, node, seq)` yields the same event file
/// for any shard count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub trace: TraceId,
    pub at_us: u64,
    /// Raw node id (`NodeId::raw`) where the event happened.
    pub node: u64,
    pub seq: u32,
    pub kind: TraceKind,
    /// Causal parent node for propagation kinds (the relaying ultrapeer for
    /// `RelayRecv`/`DupDrop`/`LeafMatch`, the hit sender for `HitRelay`).
    pub from: Option<u64>,
    pub n: u64,
    pub m: u64,
}

impl TraceEvent {
    fn sort_key(&self) -> (TraceId, u64, u64, u32) {
        (self.trace, self.at_us, self.node, self.seq)
    }
}

/// Per-trace registration metadata (one JSONL `meta` line each).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    pub trace: TraceId,
    pub guid: u64,
    /// Raw node id of the originating ultrapeer.
    pub root: u64,
    pub at_us: u64,
    pub terms: String,
}

#[derive(Default)]
struct TracerInner {
    metas: Vec<TraceMeta>,
    by_guid: BTreeMap<u64, TraceId>,
    events: Vec<TraceEvent>,
    /// Next `seq` per `(trace, node)`.
    seq: BTreeMap<(TraceId, u64), u32>,
}

/// Collects trace events for the sampled queries of one lab run. Shared via
/// `Arc` between the driver and every instrumented core; the mutex is
/// uncontended in single-shard runs and cheap relative to event dispatch in
/// sharded ones (only sampled queries ever reach it).
#[derive(Default)]
pub struct Tracer {
    inner: Mutex<TracerInner>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Register a sampled query at injection time. Emits the `QueryStart`
    /// root event and maps the wire GUID to the new dense [`TraceId`].
    pub fn register(&self, guid: u64, root: u64, at_us: u64, ttl: u64, terms: &str) -> TraceId {
        let mut g = self.inner.lock().expect("tracer poisoned");
        let id = g.metas.len() as TraceId;
        g.metas.push(TraceMeta { trace: id, guid, root, at_us, terms: terms.to_string() });
        g.by_guid.insert(guid, id);
        drop(g);
        self.emit(TraceEvent {
            trace: id,
            at_us,
            node: root,
            seq: 0,
            kind: TraceKind::QueryStart,
            from: None,
            n: ttl,
            m: 0,
        });
        id
    }

    /// Is this wire GUID one of the sampled queries?
    pub fn lookup(&self, guid: u64) -> Option<TraceId> {
        self.inner.lock().expect("tracer poisoned").by_guid.get(&guid).copied()
    }

    /// Record one event; the caller-provided `seq` is ignored and replaced
    /// with the next per-`(trace, node)` counter value.
    pub fn emit(&self, mut ev: TraceEvent) {
        let mut g = self.inner.lock().expect("tracer poisoned");
        let seq = g.seq.entry((ev.trace, ev.node)).or_insert(0);
        ev.seq = *seq;
        *seq += 1;
        g.events.push(ev);
    }

    pub fn event_count(&self) -> usize {
        self.inner.lock().expect("tracer poisoned").events.len()
    }

    pub fn metas(&self) -> Vec<TraceMeta> {
        self.inner.lock().expect("tracer poisoned").metas.clone()
    }

    /// All events in the canonical deterministic order.
    pub fn sorted_events(&self) -> Vec<TraceEvent> {
        let g = self.inner.lock().expect("tracer poisoned");
        let mut evs = g.events.clone();
        evs.sort_by_key(TraceEvent::sort_key);
        evs
    }

    /// Serialize metas + events as JSONL (one `meta` line per trace followed
    /// by the sorted event lines).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for m in self.metas() {
            let _ = writeln!(
                out,
                "{{\"meta\":true,\"trace\":{},\"guid\":{},\"root\":{},\"at_us\":{},\"terms\":\"{}\"}}",
                m.trace,
                m.guid,
                m.root,
                m.at_us,
                escape(&m.terms)
            );
        }
        for e in self.sorted_events() {
            let _ = write!(
                out,
                "{{\"trace\":{},\"kind\":\"{}\",\"at_us\":{},\"node\":{},\"seq\":{}",
                e.trace,
                e.kind.name(),
                e.at_us,
                e.node,
                e.seq
            );
            if let Some(f) = e.from {
                let _ = write!(out, ",\"from\":{f}");
            }
            let _ = writeln!(out, ",\"n\":{},\"m\":{}}}", e.n, e.m);
        }
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A cheap cloneable handle the protocol cores hold. `TraceHandle::default()`
/// is inert: every method is a no-op costing one `Option` check, so the
/// untraced hot path stays untouched. There is deliberately no process-global
/// tracer — labs running in parallel tests would mix events — so handles are
/// plumbed explicitly at spawn/config time.
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<Tracer>>);

impl TraceHandle {
    pub fn new(tracer: Arc<Tracer>) -> Self {
        TraceHandle(Some(tracer))
    }

    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Resolve a wire GUID to a trace id, if tracing is on and the query is
    /// sampled. Instrumentation points gate all work behind this.
    pub fn lookup(&self, guid: u64) -> Option<TraceId> {
        self.0.as_ref()?.lookup(guid)
    }

    // One positional arg per `TraceEvent` field (minus `seq`, which the
    // tracer assigns); call sites read like the struct literal itself.
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        trace: TraceId,
        at_us: u64,
        node: u64,
        kind: TraceKind,
        from: Option<u64>,
        n: u64,
        m: u64,
    ) {
        if let Some(t) = &self.0 {
            t.emit(TraceEvent { trace, at_us, node, seq: 0, kind, from, n, m });
        }
    }

    /// [`TraceHandle::emit`] for the query with wire GUID `guid`, if it is
    /// sampled — the whole of an instrumentation point that needs the
    /// trace id for nothing else. Takes the simulator's own types so call
    /// sites pass `net.now()` / `net.self_node()` as they are.
    #[allow(clippy::too_many_arguments)]
    pub fn emit_guid(
        &self,
        guid: u64,
        at: SimTime,
        node: NodeId,
        kind: TraceKind,
        from: Option<NodeId>,
        n: u64,
        m: u64,
    ) {
        if let Some(trace) = self.lookup(guid) {
            let from = from.map(|f| f.index() as u64);
            self.emit(trace, at.as_micros(), node.index() as u64, kind, from, n, m);
        }
    }

    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.0.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_then_lookup_round_trips() {
        let t = Tracer::new();
        let id = t.register(0xDEAD, 7, 1_000, 4, "led zeppelin");
        assert_eq!(id, 0);
        assert_eq!(t.lookup(0xDEAD), Some(0));
        assert_eq!(t.lookup(0xBEEF), None);
        let id2 = t.register(0xBEEF, 9, 2_000, 4, "cat video");
        assert_eq!(id2, 1);
        // QueryStart emitted per registration.
        assert_eq!(t.event_count(), 2);
    }

    #[test]
    fn seq_is_per_trace_node_and_sort_is_stable() {
        let t = Tracer::new();
        t.register(1, 10, 0, 4, "q");
        let h = TraceHandle::new(Arc::new(Tracer::new()));
        assert!(h.is_active());
        // Two events on the same node get seq 0, 1; a different node restarts.
        t.emit(TraceEvent {
            trace: 0,
            at_us: 5,
            node: 3,
            seq: 99,
            kind: TraceKind::RelayRecv,
            from: Some(10),
            n: 3,
            m: 1,
        });
        t.emit(TraceEvent {
            trace: 0,
            at_us: 5,
            node: 3,
            seq: 99,
            kind: TraceKind::QrpScreen,
            from: None,
            n: 1,
            m: 2,
        });
        t.emit(TraceEvent {
            trace: 0,
            at_us: 5,
            node: 2,
            seq: 99,
            kind: TraceKind::RelayRecv,
            from: Some(10),
            n: 3,
            m: 1,
        });
        let evs = t.sorted_events();
        assert_eq!(evs.len(), 4);
        // QueryStart (at 0) first, then node 2 before node 3 at equal time.
        assert_eq!(evs[0].kind, TraceKind::QueryStart);
        assert_eq!((evs[1].node, evs[1].seq), (2, 0));
        assert_eq!((evs[2].node, evs[2].seq), (3, 0));
        assert_eq!((evs[3].node, evs[3].seq), (3, 1));
    }

    #[test]
    fn inert_handle_is_a_no_op() {
        let h = TraceHandle::default();
        assert!(!h.is_active());
        assert_eq!(h.lookup(42), None);
        h.emit(0, 0, 0, TraceKind::RelayRecv, None, 0, 0); // must not panic
    }

    #[test]
    fn jsonl_has_meta_then_events_and_escapes_terms() {
        let t = Tracer::new();
        t.register(11, 5, 100, 4, "a \"b\" \\ c");
        let out = t.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"meta\":true,"));
        assert!(lines[0].contains("a \\\"b\\\" \\\\ c"));
        assert!(lines[1].contains("\"kind\":\"query_start\""));
        assert!(lines[1].contains("\"n\":4"));
    }
}
