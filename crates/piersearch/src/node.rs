//! Full PIERSearch node: DHT + PIER + Publisher + Search Engine in one
//! actor (Figure 1 of the paper).

use crate::publisher::{IndexMode, Publisher};
use crate::search::{SearchEngine, SearchEvent};
use pier_dht::{DhtApp, DhtCore, DhtEvent, DhtNet, DhtNode};
use pier_qp::PierCore;
use std::collections::VecDeque;

/// The application stack above the DHT on a PIERSearch node.
pub struct PierSearchApp {
    pub pier: PierCore,
    pub engine: SearchEngine,
    pub publisher: Publisher,
    pub events: VecDeque<SearchEvent>,
}

impl PierSearchApp {
    pub fn new(mode: IndexMode) -> Self {
        PierSearchApp {
            pier: PierCore::new(crate::schema::catalog()),
            engine: SearchEngine::new(mode),
            publisher: Publisher::new(mode),
            events: VecDeque::new(),
        }
    }

    pub fn take_events(&mut self) -> Vec<SearchEvent> {
        self.events.drain(..).collect()
    }
}

impl DhtApp for PierSearchApp {
    fn on_event(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet, event: DhtEvent) {
        // PIER consumes engine traffic (routed plans, batches, results)...
        let consumed = self.pier.on_dht_event(dht, net, &event);
        // ...whose client-side effects flow into the search engine...
        for pe in self.pier.take_events() {
            self.engine.on_pier_event(dht, net, &pe);
        }
        // ...and Item fetches complete through raw DHT events.
        if !consumed {
            self.engine.on_dht_event(dht, net, &event);
        }
        self.events.extend(self.engine.take_events());
    }

    fn mem_stats(&self, acc: &mut pier_netsim::MemAcc) {
        use pier_netsim::HeapSize;
        acc.add("pier.term_stats", self.engine.term_stats.heap_bytes());
    }

    fn on_tick(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet) {
        self.pier.tick(dht, net);
        self.publisher.tick(&mut self.pier, dht, net);
        for pe in self.pier.take_events() {
            self.engine.on_pier_event(dht, net, &pe);
        }
        self.engine.tick(net);
        self.events.extend(self.engine.take_events());
    }
}

/// A ready-to-spawn PIERSearch node.
pub type PierSearchNode = DhtNode<PierSearchApp>;
