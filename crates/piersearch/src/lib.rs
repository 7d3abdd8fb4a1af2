#![forbid(unsafe_code)]
//! # piersearch — DHT-based keyword search on PIER
//!
//! The paper's primary artifact (§3): a search engine for filesharing
//! networks built on the PIER query processor.
//!
//! * The [`Publisher`] turns each shared file into an
//!   `Item(fileID, filename, filesize, ipAddress, port)` tuple plus one
//!   `Inverted(keyword, fileID)` posting per filename keyword (stop-words
//!   removed), published into the DHT under their index keys. The
//!   [`IndexMode::InvertedCache`] variant caches the filename on every
//!   posting (Fig. 3).
//! * The [`SearchEngine`] compiles a multi-keyword query into a PIER plan —
//!   a distributed symmetric-hash-join chain across the keyword sites
//!   (Fig. 2), or a single-site substring-filter plan in InvertedCache
//!   mode — then fetches the matching `Item` tuples from the DHT.
//!
//! [`PierSearchNode`] assembles DHT + PIER + Publisher + Search Engine into
//! one simulator actor (Fig. 1). The hybrid ultrapeer hosts a stock
//! `PierSearchNode` next to its Gnutella ultrapeer core.

pub mod classes;
mod node;
mod publisher;
mod schema;
mod search;
pub mod tokenize;

pub use node::{PierSearchApp, PierSearchNode};
pub use publisher::{IndexMode, PublishStats, Publisher};
pub use schema::{
    catalog, file_id, inverted_cache_table, inverted_cache_tuple, inverted_table, inverted_tuple,
    item_table, ItemRecord, INVERTED, INVERTED_CACHE, ITEM,
};
pub use search::{SearchEngine, SearchEvent, SearchState, SEARCH_TIMEOUT};
