//! Interned metric classes for the PIER engine, registered once per
//! process (see `pier_netsim::metric_classes!`).

#![expect(clippy::disallowed_methods, reason = "the crate's metric classes are registered here")]

pier_netsim::metric_classes! {
    // Wire payload classes (PIER messages ride inside DHT Route/AppDirect).
    pub INSTALL = "pier.install";
    pub BATCH = "pier.batch";
    pub BATCH_EOF = "pier.batch_eof";
    pub RESULTS = "pier.results";
    pub RESULTS_EOF = "pier.results_eof";

    // Engine-level counters.
    pub PUBLISHED_TUPLES = "pier.published_tuples";
    pub PUBLISHED_BYTES = "pier.published_bytes";
    pub QUERIES_ISSUED = "pier.queries_issued";
    pub INSTALL_SENT = "pier.install_sent";
    pub QUERY_TIMEOUT = "pier.query_timeout";
    pub SCAN_DECODE_ERROR = "pier.scan_decode_error";
    pub SCANNED_TUPLES = "pier.scanned_tuples";
    pub PROBE_TUPLES = "pier.probe_tuples";
    pub RESULT_TUPLES = "pier.result_tuples";
    pub SHIPPED_TUPLES = "pier.shipped_tuples";
    pub ORPHAN_RESULTS = "pier.orphan_results";
    pub PROTOCOL_VIOLATION = "pier.protocol_violation";

    // Histograms.
    pub STAGE_PROBED = "pier.stage.probed";
}
