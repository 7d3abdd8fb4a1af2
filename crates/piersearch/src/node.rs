//! Full PIERSearch node: DHT + PIER + Publisher + Search Engine in one
//! actor (Figure 1 of the paper).

use crate::publisher::{IndexMode, Publisher};
use crate::search::SearchEngine;
use pier_dht::{DhtApp, DhtCore, DhtEvent, DhtNet, DhtNode};
use pier_qp::PierCore;

/// The application stack above the DHT on a PIERSearch node. The search
/// engine's events wait in [`SearchEngine::take_events`].
pub struct PierSearchApp {
    pub pier: PierCore,
    pub engine: SearchEngine,
    pub publisher: Publisher,
}

impl PierSearchApp {
    pub fn new(mode: IndexMode) -> Self {
        PierSearchApp {
            pier: PierCore::new(crate::schema::catalog()),
            engine: SearchEngine::new(mode),
            publisher: Publisher::new(mode),
        }
    }
}

impl DhtApp for PierSearchApp {
    fn on_event(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet, event: DhtEvent) {
        // PIER consumes engine traffic (routed plans, batches, results),
        // whose client-side effects flow into the search engine; Item
        // fetches complete through raw DHT events.
        if !self.pier.on_dht_event(dht, net, &event) {
            self.engine.on_dht_event(net, &event);
        }
        for pe in self.pier.take_events() {
            self.engine.on_pier_event(dht, net, &pe);
        }
    }

    fn on_tick(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet) {
        self.pier.tick(dht, net);
        self.publisher.tick(&mut self.pier, dht, net);
        for pe in self.pier.take_events() {
            self.engine.on_pier_event(dht, net, &pe);
        }
        self.engine.tick(net);
    }
}

/// A ready-to-spawn PIERSearch node.
pub type PierSearchNode = DhtNode<PierSearchApp>;
