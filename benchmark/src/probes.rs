//! Micro-probes: ns per operation of each layer's hot public function, on
//! the code as it is now (no reconstructions of deleted code to compare
//! against). One timing helper serves every probe: rounds are interleaved
//! across probes and each keeps its minimum, so host drift during the run
//! hits all probes alike and the minimum rejects interference.

use pier_bench::floodbench;
use pier_dht::{Contact, DhtMsg, Key, Request, RoutingTable, Storage};
use pier_gnutella::{QrpFilter, QrpProbe, Terms};
use pier_hybrid::RareScheme;
use pier_netsim::{
    Actor, ConstantLatency, Ctx, Histogram, MetricClass, Metrics, NodeId, Sim, SimConfig,
    SimDuration, SimTime, TimerToken,
};
use pier_qp::ops::SymmetricHashJoin;
use pier_qp::{Tuple, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 5;

struct Probe<'a> {
    name: &'static str,
    /// Operations one call performs.
    ops: u64,
    run: Box<dyn FnMut() + 'a>,
    best_ns: f64,
}

impl<'a> Probe<'a> {
    fn new(name: &'static str, ops: u64, run: impl FnMut() + 'a) -> Probe<'a> {
        Probe { name, ops, run: Box::new(run), best_ns: f64::INFINITY }
    }
}

/// Interleaved min-of-N: every round times every probe once.
fn measure(probes: &mut [Probe<'_>]) {
    for _ in 0..ROUNDS {
        for p in probes.iter_mut() {
            let t0 = Instant::now();
            (p.run)();
            let ns = t0.elapsed().as_nanos() as f64 / p.ops as f64;
            p.best_ns = p.best_ns.min(ns);
        }
    }
}

pier_netsim::metric_classes! {
    PROBE_CLASS = "bench.probe";
}

struct PingPong {
    peer: NodeId,
    class: MetricClass,
}

impl Actor<u32> for PingPong {
    fn on_start(&mut self, ctx: &mut dyn Ctx<u32>) {
        if ctx.self_id().index() == 0 {
            ctx.send(self.peer, 0, 23, self.class);
        }
    }
    fn on_message(&mut self, ctx: &mut dyn Ctx<u32>, from: NodeId, msg: u32) {
        ctx.send(from, msg.wrapping_add(1), 23, self.class);
    }
    fn on_timer(&mut self, _: &mut dyn Ctx<u32>, _: TimerToken) {}
}

/// Run every probe; returns `name → ns per operation`.
pub fn run_all() -> BTreeMap<&'static str, f64> {
    let class = PROBE_CLASS.id();
    let names: Vec<String> = (0..512)
        .map(|i| format!("artist_{:02}_album_{:02}_track_title_{i:04}.mp3", i % 40, i % 13))
        .collect();
    let keys: Vec<Key> = names.iter().map(|n| Key::hash_str(n)).collect();

    // netsim: a two-actor ping-pong is one push + pop + deliver per event.
    let mut sim: Sim<u32> =
        Sim::new(SimConfig::with_seed(1).latency(ConstantLatency(SimDuration::from_millis(1))));
    sim.add_node(PingPong { peer: NodeId::new(1), class });
    sim.add_node(PingPong { peer: NodeId::new(0), class });
    // Past both `on_start`s, short of the first delivery: from here on a
    // millisecond of simulated time is exactly one message event.
    sim.run_for(SimDuration::from_micros(500));
    let mut metrics = Metrics::new();
    let mut histogram = Histogram::new();

    // gnutella: the relay hop on floodbench's sparse workload, and a QRP
    // filter the size of a leaf's share.
    let flood = floodbench::sparse_workload();
    let flood_hop_ns = std::cell::Cell::new(f64::INFINITY);
    let share_terms: Vec<pier_vocab::TermId> =
        names.iter().take(64).flat_map(|n| pier_vocab::scan(n)).collect();
    let mut filter = QrpFilter::with_defaults();
    filter.insert_ids(&share_terms);
    let qrp_probes: Vec<QrpProbe> = names
        .iter()
        .map(|n| QrpProbe::with_defaults(&Terms::from_ids(pier_vocab::policy::keywords(n))))
        .collect();

    // dht: a k=8 table over 1,000 contacts; storage holding 512 keys.
    let contacts: Vec<Contact> = (0..1_000).map(|i| Contact::for_node(NodeId::new(i))).collect();
    let mut table = RoutingTable::new(contacts[0], 8);
    for c in &contacts[1..] {
        table.observe(*c, SimTime::ZERO);
    }
    let far = SimTime::ZERO + SimDuration::from_secs(1_000_000);
    let mut storage = Storage::new();
    for (i, k) in keys.iter().enumerate() {
        storage.insert(*k, vec![i as u8; 48], far);
    }

    // pier / codec: a posting tuple and the store request that carries it.
    let posting =
        |i: usize| Tuple::new(vec![Value::Str(format!("kw{}", i % 32)), Value::Key(keys[i])]);
    let store_msg = DhtMsg::Request {
        id: 7,
        from: contacts[1],
        body: Request::Store { key: keys[0], value: posting(0).encode(), ttl_us: 900_000_000 },
    };
    let store_bytes = pier_codec::to_bytes(&store_msg).expect("DHT messages serialize");
    let tuple = posting(0);

    // hybrid: TF / TPF / SAM, warmed with the corpus.
    let mut schemes = [RareScheme::tf(3), RareScheme::tpf(3), RareScheme::sam(3)];
    for s in &mut schemes {
        for n in &names {
            s.observe(n);
        }
    }

    let mut probes = vec![
        Probe::new("netsim.dispatch_ns", 100_000, || {
            let start = sim.event_stats().processed;
            sim.run_for(SimDuration::from_secs(100));
            assert_eq!(sim.event_stats().processed - start, 100_000);
        }),
        Probe::new("netsim.record_send_ns", 1_000_000, || {
            for i in 0..1_000_000u64 {
                metrics.record_send(black_box(class), black_box(i & 0xFF));
            }
            black_box(metrics.total_bytes);
        }),
        Probe::new("netsim.histogram_record_ns", 1_000_000, || {
            for i in 0..1_000_000u64 {
                histogram.record(black_box((i % 977) as f64 * 0.013));
            }
            black_box(histogram.len());
        }),
        // `bench_interned` times itself (median of its own rounds, a
        // fresh fixture each); keep the best of ours.
        Probe::new("gnutella.relay_hop_ns", 1, || {
            let ns = floodbench::bench_interned(&flood, 4_000);
            flood_hop_ns.set(flood_hop_ns.get().min(ns));
        }),
        Probe::new("gnutella.qrp_match_ns", 100 * qrp_probes.len() as u64, || {
            let mut hits = 0u32;
            for _ in 0..100 {
                for p in &qrp_probes {
                    hits += u32::from(black_box(&filter).matches_probe(black_box(p)));
                }
            }
            black_box(hits);
        }),
        Probe::new("gnutella.qrp_build_ns", 200, || {
            for _ in 0..200 {
                let mut f = QrpFilter::with_defaults();
                f.insert_ids(black_box(&share_terms));
                black_box(f.count_ones());
            }
        }),
        Probe::new("dht.closest_ns", 20 * keys.len() as u64, || {
            for _ in 0..20 {
                for k in &keys {
                    black_box(table.closest(black_box(k), 8));
                }
            }
        }),
        Probe::new("dht.storage_insert_ns", 20 * keys.len() as u64, || {
            let mut s = Storage::new();
            for round in 0..20u8 {
                for k in &keys {
                    s.insert(*k, vec![round; 48], far);
                }
            }
            black_box(s.key_count());
        }),
        Probe::new("dht.storage_get_ns", 100 * keys.len() as u64, || {
            let mut n = 0usize;
            for _ in 0..100 {
                for k in &keys {
                    n += storage.get(black_box(k), SimTime::ZERO).len();
                }
            }
            black_box(n);
        }),
        // ns per expired value: fill, then expire everything.
        Probe::new("dht.storage_expire_ns", 10 * keys.len() as u64, || {
            let soon = SimTime::ZERO + SimDuration::from_secs(1);
            for _ in 0..10 {
                let mut s = Storage::new();
                for k in &keys {
                    s.insert(*k, vec![1; 48], soon);
                }
                black_box(s.expire(far));
            }
        }),
        Probe::new("pier.shj_ns_per_tuple", 2 * keys.len() as u64, || {
            let mut join = SymmetricHashJoin::new(1, 1);
            let mut out = 0usize;
            for i in 0..keys.len() {
                out += join.push_left(posting(i)).len();
                out += join.push_right(posting(i)).len();
            }
            black_box(out);
        }),
        Probe::new("piersearch.keywords_ns", 20 * names.len() as u64, || {
            for _ in 0..20 {
                for n in &names {
                    black_box(piersearch::tokenize::keywords(black_box(n)));
                }
            }
        }),
        Probe::new("hybrid.rare_observe_ns", 3 * names.len() as u64, || {
            for s in &mut schemes {
                for n in &names {
                    s.observe(n);
                    black_box(s.is_rare(n));
                }
            }
        }),
        Probe::new("model.pf_gnutella_ns", 200, || {
            for r in 1..=200u64 {
                black_box(pier_model::pf_gnutella_frac(black_box(8_000), 0.05, r));
            }
        }),
        // Steady state: every term is already in the table.
        Probe::new("vocab.intern_ns", 20 * names.len() as u64, || {
            for _ in 0..20 {
                for n in &names {
                    black_box(pier_vocab::intern(black_box(n)));
                }
            }
        }),
        Probe::new("vocab.scan_ns", 20 * names.len() as u64, || {
            for _ in 0..20 {
                for n in &names {
                    black_box(pier_vocab::scan(black_box(n)));
                }
            }
        }),
        Probe::new("codec.encoded_size_ns", 20_000, || {
            for _ in 0..10_000 {
                black_box(black_box(&store_msg).encoded_len());
                black_box(black_box(&tuple).encoded_size());
            }
        }),
        Probe::new("codec.to_bytes_ns", 10_000, || {
            for _ in 0..10_000 {
                black_box(pier_codec::to_bytes(black_box(&store_msg)).expect("serializes"));
            }
        }),
        Probe::new("codec.from_bytes_ns", 10_000, || {
            for _ in 0..10_000 {
                let m: DhtMsg =
                    pier_codec::from_bytes(black_box(&store_bytes)).expect("round-trips");
                black_box(m);
            }
        }),
    ];
    measure(&mut probes);
    let mut out: BTreeMap<&'static str, f64> = probes.iter().map(|p| (p.name, p.best_ns)).collect();
    drop(probes);
    out.insert("gnutella.relay_hop_ns", flood_hop_ns.get());
    out
}
