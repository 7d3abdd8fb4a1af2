//! The notation of the analytical model: the Table 1 / Table 2 glossary
//! behind Equations (1)–(5).

/// Pretty-print the Table 1 / Table 2 glossary (the `repro model-params`
/// experiment re-emits the paper's notation tables).
pub fn params_glossary() -> Vec<(&'static str, &'static str)> {
    vec![
        ("N", "Number of nodes in the system"),
        ("N_horizon", "Distinct nodes contacted when a query is flooded (incl. the query node)"),
        ("R_i", "Number of replicas for item i"),
        ("T_i", "Lifetime of item i in the network"),
        ("Q_i", "Frequency that item i is queried per time unit"),
        ("PF_i,Gnutella", "Probability item i is found in the Gnutella network (Eq. 2)"),
        ("PNF_i,Gnutella", "1 − PF_i,Gnutella"),
        ("PF_i,DHT", "Probability item i is published into the DHT"),
        ("PF_i,hybrid", "Probability item i is found in the hybrid system (Eq. 1)"),
        ("CS_i,hybrid", "Cost/time of searching item i in the hybrid system (Eq. 3)"),
        ("CS_i,DHT", "Cost of searching item i in the DHT (≈ log N messages)"),
        ("CP_i,DHT", "Cost of publishing item i and its posting entries into the DHT"),
        ("CO_i,hybrid", "Overall cost/time of supporting item i (Eq. 4)"),
        ("CP_all,hybrid", "Total publishing cost of the hybrid system (Eq. 5)"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glossary_covers_both_tables() {
        let g = params_glossary();
        assert_eq!(g.len(), 14);
        assert!(g.iter().any(|(k, _)| *k == "N_horizon"));
        assert!(g.iter().any(|(k, _)| *k == "CP_all,hybrid"));
    }
}
