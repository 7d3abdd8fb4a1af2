//! The union message type of the hybrid network: every node speaks
//! Gnutella; hybrid ultrapeers additionally speak the DHT protocol
//! (the paper's client "participates in two separate networks", §7).
//! Through the `From` impls both protocols' stock adapters send on it; as a
//! [`GnutellaCarrier`] it runs the stock Gnutella actors, which count and
//! drop DHT traffic as a stock LimeWire client drops what it cannot parse.

use pier_dht::DhtMsg;
use pier_gnutella::{GnutellaCarrier, GnutellaMsg};
use pier_netsim::MetricClass;

/// A message on the hybrid network.
#[derive(Clone, Debug)]
pub enum HybridMsg {
    G(GnutellaMsg),
    D(DhtMsg),
}

impl HybridMsg {
    /// Interned metrics class, delegated to the wrapped protocol message.
    pub fn class(&self) -> MetricClass {
        match self {
            HybridMsg::G(m) => m.class(),
            HybridMsg::D(m) => m.class(),
        }
    }
}

impl From<GnutellaMsg> for HybridMsg {
    fn from(m: GnutellaMsg) -> Self {
        HybridMsg::G(m)
    }
}

impl From<DhtMsg> for HybridMsg {
    fn from(m: DhtMsg) -> Self {
        HybridMsg::D(m)
    }
}

impl GnutellaCarrier for HybridMsg {
    fn into_gnutella(self) -> Result<GnutellaMsg, MetricClass> {
        match self {
            HybridMsg::G(m) => Ok(m),
            HybridMsg::D(_) => Err(crate::classes::DHT_MSG_TO_PLAIN_NODE.id()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_delegate() {
        let g = HybridMsg::G(GnutellaMsg::CrawlPing);
        assert_eq!(g.class().name(), "gnutella.crawl_ping");
    }
}
