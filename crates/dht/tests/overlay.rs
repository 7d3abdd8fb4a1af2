//! End-to-end overlay tests: real simulator, real protocol messages.

use pier_dht::{
    bootstrap, Contact, DhtApp, DhtConfig, DhtCore, DhtEvent, DhtMsg, DhtNet, DhtNode, Key, NullApp,
};
use pier_netsim::{ConstantLatency, NodeId, Sim, SimConfig, SimDuration};
use std::collections::BTreeMap;

/// Test app that records every event it sees.
#[derive(Default)]
struct Recorder {
    events: Vec<DhtEvent>,
}

impl DhtApp for Recorder {
    fn on_event(&mut self, _dht: &mut DhtCore, _net: &mut dyn DhtNet, event: DhtEvent) {
        self.events.push(event);
    }
}

fn build_network(n: u32, seed: u64) -> (Sim<DhtMsg>, Vec<NodeId>) {
    let cfg = SimConfig::with_seed(seed).latency(ConstantLatency(SimDuration::from_millis(20)));
    let mut sim = Sim::new(cfg);
    let mut ids = Vec::new();
    for i in 0..n {
        let contact = Contact::for_node(NodeId::new(i));
        let bootstrap = if i == 0 { None } else { Some(Contact::for_node(ids[0])) };
        let core = DhtCore::new(DhtConfig::test(), contact);
        let id = sim.add_node(DhtNode::new(core, Recorder::default(), bootstrap));
        ids.push(id);
    }
    (sim, ids)
}

type Node = DhtNode<Recorder>;

#[test]
fn join_protocol_converges() {
    let (mut sim, ids) = build_network(30, 7);
    sim.run_for(SimDuration::from_secs(60));
    // Every node (except the seed) must have fired Joined and have a
    // populated routing table.
    for &id in &ids[1..] {
        let node = sim.actor::<Node>(id);
        assert!(
            node.app.events.iter().any(|e| matches!(e, DhtEvent::Joined { .. })),
            "{id} never joined"
        );
        assert!(node.core.table().len() >= 3, "{id} has an empty table");
    }
}

#[test]
fn put_then_get_from_any_node() {
    let (mut sim, ids) = build_network(30, 8);
    sim.run_for(SimDuration::from_secs(60));

    let key = Key::hash_str("led zeppelin iv");
    sim.with_actor_ctx::<Node, _>(ids[5], |node, ctx| {
        let mut net = pier_dht::CtxNet { ctx };
        node.core.put(&mut net, key, b"value-one".to_vec());
        node.core.put(&mut net, key, b"value-two".to_vec());
    });
    sim.run_for(SimDuration::from_secs(20));
    {
        let node = sim.actor::<Node>(ids[5]);
        let puts: Vec<_> =
            node.app.events.iter().filter(|e| matches!(e, DhtEvent::PutDone { .. })).collect();
        assert_eq!(puts.len(), 2, "both puts must complete");
        for p in puts {
            if let DhtEvent::PutDone { acks, .. } = p {
                assert!(*acks >= 1, "value must be stored somewhere");
            }
        }
    }

    // Get from a different node: both values must come back.
    sim.with_actor_ctx::<Node, _>(ids[20], |node, ctx| {
        let mut net = pier_dht::CtxNet { ctx };
        node.core.get(&mut net, key);
    });
    sim.run_for(SimDuration::from_secs(20));
    let node = sim.actor::<Node>(ids[20]);
    let got = node
        .app
        .events
        .iter()
        .find_map(|e| match e {
            DhtEvent::GetDone { values, .. } => Some(values.clone()),
            _ => None,
        })
        .expect("get must complete");
    let mut got_sorted = got;
    got_sorted.sort();
    assert_eq!(got_sorted, vec![b"value-one".to_vec(), b"value-two".to_vec()]);
}

#[test]
fn routed_payload_reaches_single_owner() {
    let (mut sim, ids) = build_network(40, 9);
    sim.run_for(SimDuration::from_secs(90));

    let key = Key::hash_str("a rare keyword");
    // Route the same payload from several different origins.
    for &src in &[ids[3], ids[17], ids[33]] {
        sim.with_actor_ctx::<Node, _>(src, |node, ctx| {
            let mut net = pier_dht::CtxNet { ctx };
            node.core.route(&mut net, key, b"plan".to_vec());
        });
    }
    sim.run_for(SimDuration::from_secs(10));

    let mut deliveries: BTreeMap<NodeId, usize> = BTreeMap::new();
    for &id in &ids {
        let node = sim.actor::<Node>(id);
        let n =
            node.app.events.iter().filter(|e| matches!(e, DhtEvent::RouteDelivered { .. })).count();
        if n > 0 {
            deliveries.insert(id, n);
        }
    }
    assert_eq!(deliveries.len(), 1, "all routes must converge on one owner: {deliveries:?}");
    assert_eq!(deliveries.values().sum::<usize>(), 3);
}

#[test]
fn survives_churn_with_replication() {
    let (mut sim, ids) = build_network(40, 10);
    sim.run_for(SimDuration::from_secs(90));

    let key = Key::hash_str("churn-resistant");
    sim.with_actor_ctx::<Node, _>(ids[1], |node, ctx| {
        let mut net = pier_dht::CtxNet { ctx };
        node.core.put(&mut net, key, b"precious".to_vec());
    });
    sim.run_for(SimDuration::from_secs(20));

    // Find one holder and take it down (replication = 2 in the test config).
    let holder = ids
        .iter()
        .find(|&&id| {
            sim.actor::<Node>(id).core.storage().get(&key, sim.now()).contains(&&b"precious"[..])
        })
        .copied()
        .expect("someone stores the value");
    sim.set_down(holder);
    sim.run_for(SimDuration::from_secs(30));

    // A get from a live node still finds the value on the surviving replica.
    let querier = ids.iter().find(|&&id| id != holder).copied().unwrap();
    sim.with_actor_ctx::<Node, _>(querier, |node, ctx| {
        let mut net = pier_dht::CtxNet { ctx };
        node.core.get(&mut net, key);
    });
    sim.run_for(SimDuration::from_secs(30));
    let node = sim.actor::<Node>(querier);
    let found = node.app.events.iter().any(
        |e| matches!(e, DhtEvent::GetDone { values, .. } if values.contains(&b"precious".to_vec())),
    );
    assert!(found, "value must survive the loss of one replica");
}

/// Session semantics under churn: a leaving holder takes its replica with
/// it (storage cleared on `on_down`), so without republishing the value is
/// simply gone — and the publisher putting it again (what PIERSearch's
/// soft-state refresh loop does each interval) restores it onto live
/// nodes. The revived holder re-arms its maintenance tick and re-primes
/// its table via a self-lookup.
#[test]
fn churned_holder_loses_replica_and_republish_restores_it() {
    let (mut sim, ids) = build_network(30, 21);
    sim.run_for(SimDuration::from_secs(60));

    let key = Key::hash_str("soft-state-posting");
    let publisher = ids[2];
    let put = |sim: &mut Sim<DhtMsg>| {
        sim.with_actor_ctx::<Node, _>(publisher, |node, ctx| {
            let mut net = pier_dht::CtxNet { ctx };
            node.core.put(&mut net, key, b"posting".to_vec());
        });
    };
    put(&mut sim);
    sim.run_for(SimDuration::from_secs(10));

    let holders = |sim: &Sim<DhtMsg>| -> Vec<NodeId> {
        ids.iter()
            .copied()
            .filter(|&id| {
                sim.is_up(id)
                    && sim
                        .actor::<Node>(id)
                        .core
                        .storage()
                        .get(&key, sim.now())
                        .iter()
                        .any(|v| v == b"posting")
            })
            .collect()
    };
    let initial = holders(&sim);
    assert!(!initial.is_empty(), "the put must store somewhere");

    // Every holder (except the publisher, whose refresh is the soft state
    // under test) churns out: their replicas vanish.
    for &h in initial.iter().filter(|&&h| h != publisher) {
        sim.set_down(h);
        assert!(
            sim.actor::<Node>(h).core.storage().get(&key, sim.now()).is_empty(),
            "a leaving node must drop its replicas"
        );
    }
    // One refresh interval later (half the test config's 120 s TTL) the
    // publisher puts again, onto live nodes; the revived ex-holders rejoin
    // empty.
    sim.run_for(SimDuration::from_secs(50));
    put(&mut sim);
    sim.run_for(SimDuration::from_secs(20));
    for &h in initial.iter().filter(|&&h| h != publisher) {
        sim.set_up(h);
    }
    sim.run_for(SimDuration::from_secs(10));
    let after = holders(&sim);
    assert!(!after.is_empty(), "republish must restore the value onto live nodes");

    // A get from an uninvolved node finds it again.
    let querier = ids.iter().copied().find(|id| !initial.contains(id)).unwrap();
    sim.with_actor_ctx::<Node, _>(querier, |node, ctx| {
        let mut net = pier_dht::CtxNet { ctx };
        node.core.get(&mut net, key);
    });
    sim.run_for(SimDuration::from_secs(30));
    let found = sim.actor::<Node>(querier).app.events.iter().any(
        |e| matches!(e, DhtEvent::GetDone { values, .. } if values.contains(&b"posting".to_vec())),
    );
    assert!(found, "value must be retrievable after churn + republish");
}

/// A revived node re-primes its routing table through a self-lookup even
/// though its original bootstrap contact is long gone.
#[test]
fn revival_reprimes_routing_table_without_bootstrap() {
    let (mut sim, ids) = build_network(30, 22);
    sim.run_for(SimDuration::from_secs(60));
    let victim = ids[9];
    let table_before = sim.actor::<Node>(victim).core.table().len();
    assert!(table_before > 0);

    sim.set_down(victim);
    // The seed node (its historical bootstrap) dies while it is away.
    sim.set_down(ids[0]);
    sim.run_for(SimDuration::from_secs(30));
    sim.set_up(victim);
    sim.run_for(SimDuration::from_secs(30));

    let node = sim.actor::<Node>(victim);
    assert!(!node.core.table().is_empty(), "table re-primed from surviving contacts");
    // The revival self-lookup completes as a (second) Joined event.
    let joins = node.app.events.iter().filter(|e| matches!(e, DhtEvent::Joined { .. })).count();
    assert!(joins >= 2, "revival must re-run the join walk (saw {joins})");
}

#[test]
fn warm_start_matches_protocol_join_behaviour() {
    // Build a 200-node overlay with warm tables and verify puts/gets work
    // without any join traffic.
    let cfg = SimConfig::with_seed(11).latency(ConstantLatency(SimDuration::from_millis(20)));
    let mut sim = Sim::new(cfg);
    let contacts: Vec<Contact> = (0..200).map(|i| Contact::for_node(NodeId::new(i))).collect();
    let mut ids = Vec::new();
    for c in &contacts {
        let mut core = DhtCore::new(DhtConfig::test(), *c);
        bootstrap::fill_table(core.table_mut(), &contacts, 4);
        ids.push(sim.add_node(DhtNode::new(core, Recorder::default(), None)));
    }
    let key = Key::hash_str("warm");
    sim.with_actor_ctx::<Node, _>(ids[150], |node, ctx| {
        let mut net = pier_dht::CtxNet { ctx };
        node.core.put(&mut net, key, b"started".to_vec());
    });
    sim.run_for(SimDuration::from_secs(10));
    sim.with_actor_ctx::<Node, _>(ids[3], |node, ctx| {
        let mut net = pier_dht::CtxNet { ctx };
        node.core.get(&mut net, key);
    });
    sim.run_for(SimDuration::from_secs(10));
    let node = sim.actor::<Node>(ids[3]);
    let found = node.app.events.iter().any(
        |e| matches!(e, DhtEvent::GetDone { values, .. } if values.contains(&b"started".to_vec())),
    );
    assert!(found);
}

#[test]
fn lookup_cost_scales_logarithmically() {
    // Average FIND_NODE queries per lookup should grow slowly with N.
    let cost = |n: u32| -> f64 {
        let cfg = SimConfig::with_seed(100 + n as u64)
            .latency(ConstantLatency(SimDuration::from_millis(10)));
        let mut sim = Sim::new(cfg);
        let contacts: Vec<Contact> = (0..n).map(|i| Contact::for_node(NodeId::new(i))).collect();
        let mut ids = Vec::new();
        for c in &contacts {
            let mut core = DhtCore::new(DhtConfig::test(), *c);
            bootstrap::fill_table(core.table_mut(), &contacts, 4);
            ids.push(sim.add_node(DhtNode::new(core, NullApp, None)));
        }
        for i in 0..20u32 {
            let key = Key::hash(format!("probe{i}").as_bytes());
            let src = ids[(i as usize * 7) % ids.len()];
            sim.with_actor_ctx::<DhtNode<NullApp>, _>(src, |node, ctx| {
                let mut net = pier_dht::CtxNet { ctx };
                node.core.iterative_find_node(&mut net, key);
            });
        }
        sim.run_for(SimDuration::from_secs(30));
        let h = sim.metrics_mut().histogram("dht.lookup.queries");
        assert!(h.len() >= 20);
        h.mean()
    };
    let small = cost(50);
    let large = cost(800);
    assert!(small > 0.0 && large > 0.0);
    // 16x more nodes must cost far less than 16x more queries.
    assert!(large < small * 4.0, "small={small} large={large}");
}

#[test]
fn scoped_lookup_emits_a_complete_dht_trace() {
    use pier_trace::{TraceHandle, TraceKind, Tracer};
    use std::sync::Arc;

    let (mut sim, ids) = build_network(30, 9);
    sim.run_for(SimDuration::from_secs(60));

    let key = Key::hash_str("traced value");
    sim.with_actor_ctx::<Node, _>(ids[4], |node, ctx| {
        let mut net = pier_dht::CtxNet { ctx };
        node.core.put(&mut net, key, b"v".to_vec());
    });
    sim.run_for(SimDuration::from_secs(20));

    let tracer = Arc::new(Tracer::default());
    let t = tracer.register(0xBEEF, ids[12].index() as u64, 0, 0, "traced value");
    sim.with_actor_ctx::<Node, _>(ids[12], |node, ctx| {
        node.core.set_trace(TraceHandle::new(Arc::clone(&tracer)));
        let mut net = pier_dht::CtxNet { ctx };
        node.core.trace_scope(t);
        node.core.get(&mut net, key);
        node.core.clear_trace_scope();
    });
    sim.run_for(SimDuration::from_secs(20));

    let events = tracer.sorted_events();
    let count = |k: TraceKind| events.iter().filter(|e| e.kind == k).count();
    assert_eq!(count(TraceKind::DhtLookupStart), 1);
    assert!(count(TraceKind::DhtHop) >= 1, "at least one rpc batch");
    assert_eq!(count(TraceKind::DhtLookupDone), 1);
    // Scope cleared: maintenance lookups afterwards are not attributed.
    let start = events.iter().find(|e| e.kind == TraceKind::DhtLookupStart).unwrap();
    assert_eq!(start.m, 0, "value-kind lookup");
    assert!(events
        .iter()
        .all(|e| e.node == ids[12].index() as u64 || e.kind == TraceKind::QueryStart));
    // Done reports total rpcs sent, consistent with the hop batches.
    let done = events.iter().find(|e| e.kind == TraceKind::DhtLookupDone).unwrap();
    let batched: u64 = events.iter().filter(|e| e.kind == TraceKind::DhtHop).map(|e| e.n).sum();
    assert_eq!(done.n, batched);
}
