//! Interned metric classes for PIERSearch, registered once per process
//! (see `pier_netsim::metric_classes!`).

#![expect(clippy::disallowed_methods, reason = "the crate's metric classes are registered here")]

pier_netsim::metric_classes! {
    pub SEARCHES = "piersearch.searches";
    pub UNSEARCHABLE_QUERY = "piersearch.unsearchable_query";
    pub MALFORMED_MATCH = "piersearch.malformed_match";
    pub MALFORMED_ITEM = "piersearch.malformed_item";
    pub SEARCH_TIMEOUT = "piersearch.search_timeout";
    pub UNRESOLVED_MATCH = "piersearch.unresolved_match";
    pub UNINDEXABLE_FILE = "piersearch.unindexable_file";
    pub FILES_PUBLISHED = "piersearch.files_published";
    pub PUBLISH_VALUE_BYTES = "piersearch.publish_value_bytes";
    pub SOFT_REFRESH_FILES = "piersearch.soft_refresh_files";

    // Histograms.
    pub FIRST_RESULT_LATENCY_S = "piersearch.first_result_latency_s";
    pub RESULTS_PER_SEARCH = "piersearch.results_per_search";
}
