//! Figures 9–12 (§6.2): the analytical model driven by the calibrated
//! trace — PF-threshold, publishing overhead, and QR/QDR versus the
//! replica threshold, at search horizons of 5/15/30%.

use crate::experiments::Report;
use crate::lab::Scale;
use crate::output::{f, s, Table};
use crate::sweep::Summary;
use pier_model::{pf_threshold_curve, threshold_sweep, TraceView};
use pier_trace::Obs;
use pier_workload::{Catalog, CatalogConfig, Evaluator, QueryConfig, QueryTrace};

/// Build the §6.2 trace view (catalog + query ground truth) with the
/// default calibration seeds.
pub fn trace_view(scale: Scale) -> (Catalog, QueryTrace, TraceView) {
    trace_view_with_seeds(scale, 0x962, 0x1962)
}

/// Seeded variant for sweeps: catalog and trace seeds derived from one
/// per-trial master seed.
pub fn trace_view_seeded(scale: Scale, seed: u64) -> (Catalog, QueryTrace, TraceView) {
    trace_view_with_seeds(
        scale,
        pier_netsim::derive_seed(seed, 0x962),
        pier_netsim::derive_seed(seed, 0x1962),
    )
}

fn trace_view_with_seeds(
    scale: Scale,
    catalog_seed: u64,
    trace_seed: u64,
) -> (Catalog, QueryTrace, TraceView) {
    let cfg = match scale {
        Scale::Quick | Scale::Sparse => CatalogConfig {
            hosts: 8_000,
            distinct_files: 20_000,
            max_replicas: 800,
            vocab: 6_000,
            phrases: 2_000,
            seed: catalog_seed,
        },
        // The paper's §6.2 trace: 315,546 instances at 75,129 hosts.
        Scale::Full => CatalogConfig {
            hosts: 75_129,
            distinct_files: 150_000,
            max_replicas: 3_000,
            vocab: 38_900,
            phrases: 12_000,
            seed: catalog_seed,
        },
        // Double the §6.2 trace magnitude.
        Scale::Metro | Scale::MetroLite => CatalogConfig {
            hosts: 150_000,
            distinct_files: 300_000,
            max_replicas: 6_000,
            vocab: 77_800,
            phrases: 24_000,
            seed: catalog_seed,
        },
    };
    let catalog = Catalog::generate(cfg);
    let queries = match scale {
        Scale::Quick | Scale::Sparse => 350,
        Scale::Full => 350,
        Scale::Metro | Scale::MetroLite => 500,
    };
    let trace = QueryTrace::generate(&catalog, QueryConfig { queries, seed: trace_seed });
    let eval = Evaluator::new(&catalog);
    let view = TraceView {
        replicas: catalog.replica_counts(),
        queries: trace.queries.iter().map(|q| eval.eval(q).files).collect(),
        hosts: catalog.config.hosts as u64,
    };
    (catalog, trace, view)
}

/// One sweep trial: the paper-anchored points of Figures 10–12 from a
/// seeded trace, plus the Figure 9 threshold-1 PF levels.
///
/// Analytic model — `_shards` is accepted for the uniform sweep interface,
/// but there is no simulation kernel here to shard.
pub fn trial(scale: Scale, seed: u64, _shards: usize) -> Summary {
    let (_catalog, _trace, view) = trace_view_seeded(scale, seed);
    let thresholds: Vec<u32> = vec![0, 1, 2];
    let sweep_h5 = threshold_sweep(&view, 0.05, thresholds.clone());
    let sweep_h15 = threshold_sweep(&view, 0.15, thresholds);
    let pf = pf_threshold_curve(view.hosts, 0.15, 1..=1);
    let mut s = Summary::new();
    s.set("pub_overhead_t1_pct", 100.0 * sweep_h5[1].overhead);
    s.set("qr_t1_h5_pct", 100.0 * sweep_h5[1].avg_qr);
    s.set("qr_t1_h15_pct", 100.0 * sweep_h15[1].avg_qr);
    s.set("qdr_t2_h15_pct", 100.0 * sweep_h15[2].avg_qdr);
    s.set("pf_threshold_t1_h15", pf[0].pf_threshold);
    s
}

pub fn run(scale: Scale, _shards: usize, _obs: &Obs) -> Report {
    let (_catalog, _trace, view) = trace_view(scale);
    let horizons = [0.05, 0.15, 0.30];

    // Figure 9.
    let mut t9 = Table::new(
        "Figure 9: PF-threshold vs replica threshold",
        &["replica_threshold", "h=5%", "h=15%", "h=30%"],
    );
    let curves: Vec<_> =
        horizons.iter().map(|&h| pf_threshold_curve(view.hosts, h, 0..=20)).collect();
    for (i, c0) in curves[0].iter().enumerate() {
        t9.row(vec![
            s(i),
            f(c0.pf_threshold, 3),
            f(curves[1][i].pf_threshold, 3),
            f(curves[2][i].pf_threshold, 3),
        ]);
    }

    // Figures 10–12 share the threshold sweep.
    let thresholds: Vec<u32> = (0..=10).chain([12, 15, 20]).collect();
    let sweeps: Vec<_> =
        horizons.iter().map(|&h| threshold_sweep(&view, h, thresholds.clone())).collect();

    let mut t10 = Table::new(
        "Figure 10: publishing overhead vs replica threshold (paper: 23% at t=1)",
        &["replica_threshold", "published_pct_items"],
    );
    for p in &sweeps[0] {
        t10.row(vec![s(p.replica_threshold), f(100.0 * p.overhead, 1)]);
    }

    let mut t11 = Table::new(
        "Figure 11: average QR vs replica threshold (paper t=1: 47/52/61%)",
        &["replica_threshold", "h=5%", "h=15%", "h=30%"],
    );
    let mut t12 = Table::new(
        "Figure 12: average QDR vs replica threshold (paper t=2,h=15%: ~93%)",
        &["replica_threshold", "h=5%", "h=15%", "h=30%"],
    );
    for (i, p0) in sweeps[0].iter().enumerate() {
        t11.row(vec![
            s(p0.replica_threshold),
            f(100.0 * p0.avg_qr, 1),
            f(100.0 * sweeps[1][i].avg_qr, 1),
            f(100.0 * sweeps[2][i].avg_qr, 1),
        ]);
        t12.row(vec![
            s(p0.replica_threshold),
            f(100.0 * p0.avg_qdr, 1),
            f(100.0 * sweeps[1][i].avg_qdr, 1),
            f(100.0 * sweeps[2][i].avg_qdr, 1),
        ]);
    }

    Report { tables: vec![t9, t10, t11, t12], events: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_model_figures_match_paper_anchors() {
        let tables = run(Scale::Quick, 1, &Obs::default()).tables;
        let (t9, t10, t11, t12) = (&tables[0], &tables[1], &tables[2], &tables[3]);

        // Fig 9: monotone rising, diminishing, horizon-ordered.
        let col = |t: &Table, r: usize, c: usize| -> f64 { t.rows[r][c].parse().unwrap() };
        for r in 1..t9.rows.len() {
            for c in 1..=3 {
                assert!(col(t9, r, c) >= col(t9, r - 1, c));
            }
            assert!(col(t9, r, 1) < col(t9, r, 2));
            assert!(col(t9, r, 2) < col(t9, r, 3));
        }

        // Fig 10: the 23% anchor at threshold 1 (calibrated ±3pp).
        let pub_at_1 = col(t10, 1, 1);
        assert!((pub_at_1 - 23.0).abs() < 3.0, "overhead at t=1: {pub_at_1}%");

        // Fig 11: t=0 equals the horizon; t=1 jumps far above it.
        assert!((col(t11, 0, 1) - 5.0).abs() < 0.5);
        assert!((col(t11, 0, 3) - 30.0).abs() < 0.5);
        let qr1_h5 = col(t11, 1, 1);
        assert!(qr1_h5 > 25.0, "QR at t=1,h=5% must jump well above 5%: {qr1_h5}");
        // Horizon ordering per row.
        for r in 0..t11.rows.len() {
            assert!(col(t11, r, 1) <= col(t11, r, 2) + 1e-9);
            assert!(col(t11, r, 2) <= col(t11, r, 3) + 1e-9);
        }

        // Fig 12: QDR ≥ QR everywhere; very high already at t=2 (paper 93%).
        for r in 0..t12.rows.len() {
            for c in 1..=3 {
                assert!(col(t12, r, c) >= col(t11, r, c) - 1e-9);
            }
        }
        let qdr2_h15 = col(t12, 2, 2);
        assert!(qdr2_h15 > 70.0, "QDR at t=2,h=15%: {qdr2_h15}");
    }
}
