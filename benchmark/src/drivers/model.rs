//! `model_sweep`: the §6 trace-driven model with no simulator under it —
//! `figs9to12::trace_view_seeded` → `threshold_sweep` → `pf_threshold_curve`
//! → `figs13to15::compute_curves`, composed so catalog, trace, evaluator
//! and model each carry their own span.

use super::Outcome;
use crate::spans::{Spans, NO_OP};
use pier_bench::experiments::figs13to15::{at_overhead, compute_curves};
use pier_model::{pf_threshold_curve, threshold_sweep, ThresholdSweepPoint, TraceView};
use pier_netsim::derive_seed;
use pier_workload::{Catalog, CatalogConfig, Evaluator, QueryConfig, QueryTrace};
use std::time::Instant;

pub struct ModelParams {
    pub hosts: usize,
    pub distinct_files: usize,
    pub max_replicas: usize,
    pub vocab: usize,
    pub phrases: usize,
    pub queries: usize,
}

impl ModelParams {
    /// The `Scale::Quick` trace of `figs9to12::trace_view`.
    pub fn quick() -> ModelParams {
        ModelParams {
            hosts: 8_000,
            distinct_files: 20_000,
            max_replicas: 800,
            vocab: 6_000,
            phrases: 2_000,
            queries: 350,
        }
    }
}

/// The Figure 13 horizon, also the low horizon of the threshold sweep.
const HORIZON: f64 = 0.05;
const HORIZON_HIGH: f64 = 0.15;

pub fn run(p: &ModelParams, seed: u64, setup_only: bool, sp: &mut Spans) -> Outcome {
    let t0 = Instant::now();
    let mut out = Outcome::default();

    // ---- set-up: the trace view ---------------------------------------------
    let setup = sp.enter("bench.setup", NO_OP);
    let catalog = sp.span("workload.catalog", NO_OP, || {
        Catalog::generate(CatalogConfig {
            hosts: p.hosts,
            distinct_files: p.distinct_files,
            max_replicas: p.max_replicas,
            vocab: p.vocab,
            phrases: p.phrases,
            seed: derive_seed(seed, 0x962),
            ..Default::default()
        })
    });
    let trace = sp.span("workload.query_trace", NO_OP, || {
        QueryTrace::generate(
            &catalog,
            QueryConfig {
                queries: p.queries,
                seed: derive_seed(seed, 0x1962),
                ..Default::default()
            },
        )
    });
    let eval = sp.span("workload.evaluator_build", NO_OP, || Evaluator::new(&catalog));
    let queries: Vec<Vec<u32>> = trace
        .queries
        .iter()
        .enumerate()
        .map(|(qi, q)| sp.span("workload.eval", qi as u64, || eval.eval(q).files))
        .collect();
    let view = TraceView {
        replicas: catalog.replica_counts(),
        queries,
        hosts: catalog.config.hosts as u64,
    };
    sp.exit(setup);
    out.setup_s = t0.elapsed().as_secs_f64();
    let matches: usize = view.queries.iter().map(Vec::len).sum();
    out.count("model.matches", matches as f64);
    if setup_only {
        return out;
    }

    // ---- run: the sweeps and the scheme curves --------------------------------
    let inject = sp.enter("bench.replay_inject", NO_OP);
    let thresholds: Vec<u32> = (0..=10).chain([12, 15, 20]).collect();
    let sweep_low =
        sp.span("model.threshold_sweep", 0, || threshold_sweep(&view, HORIZON, thresholds.clone()));
    let sweep_high = sp.span("model.threshold_sweep", 1, || {
        threshold_sweep(&view, HORIZON_HIGH, thresholds.clone())
    });
    let pf = sp.span("model.pf_curve", 2, || pf_threshold_curve(view.hosts, HORIZON_HIGH, 0..=20));
    let curves = sp.span("model.scheme_curves", 3, || compute_curves(&catalog, &view, HORIZON));
    sp.exit(inject);

    // ---- analysis -------------------------------------------------------------
    let analysis = sp.enter("bench.analysis", NO_OP);
    let curve_points: usize = curves.iter().map(|c| c.points.len()).sum();
    out.work = (sweep_low.len() + sweep_high.len() + curve_points) as u64;
    out.attempted = out.work + pf.len() as u64;
    let finite_sweep = |s: &ThresholdSweepPoint| {
        s.overhead.is_finite() && s.avg_qr.is_finite() && s.avg_qdr.is_finite()
    };
    out.failed = sweep_low.iter().chain(&sweep_high).filter(|s| !finite_sweep(s)).count() as u64
        + pf.iter().filter(|p| !p.pf_threshold.is_finite()).count() as u64
        + curves
            .iter()
            .flat_map(|c| &c.points)
            .filter(|(o, qr, qdr)| !(o.is_finite() && qr.is_finite() && qdr.is_finite()))
            .count() as u64;

    for (sweep, horizon) in [(&sweep_low, HORIZON), (&sweep_high, HORIZON_HIGH)] {
        let monotone = sweep.windows(2).all(|w| {
            w[1].overhead >= w[0].overhead
                && w[1].avg_qr >= w[0].avg_qr - 1e-12
                && w[1].avg_qdr >= w[0].avg_qdr - 1e-12
        });
        out.check(monotone, || format!("threshold sweep at h={horizon} is not monotone"));
        // Nothing published: recall is exactly the flooding horizon.
        out.check((sweep[0].avg_qr - horizon).abs() < 1e-9, || {
            format!("QR(t=0) = {} at horizon {horizon}", sweep[0].avg_qr)
        });
        let in_range = sweep
            .iter()
            .all(|s| (0.0..=1.0).contains(&s.avg_qr) && (0.0..=1.0 + 1e-12).contains(&s.avg_qdr));
        out.check(in_range, || format!("recall outside [0,1] at h={horizon}"));
    }
    out.check(pf.windows(2).all(|w| w[1].pf_threshold > w[0].pf_threshold), || {
        "PF-threshold curve is not increasing".to_string()
    });

    // The keys of `figs9to12::trial`, then those of `figs13to15::trial`.
    out.summary = vec![
        ("pub_overhead_t1_pct".into(), 100.0 * sweep_low[1].overhead),
        ("qr_t1_h5_pct".into(), 100.0 * sweep_low[1].avg_qr),
        ("qr_t1_h15_pct".into(), 100.0 * sweep_high[1].avg_qr),
        ("qdr_t2_h15_pct".into(), 100.0 * sweep_high[2].avg_qdr),
        ("pf_threshold_t1_h15".into(), pf[1].pf_threshold),
    ];
    for c in &curves {
        let key = format!(
            "qr_b50_{}_pct",
            c.name.to_lowercase().replace(['(', '%'], "").replace(')', "")
        );
        out.summary.push((key, 100.0 * at_overhead(c, 0.5, |p| p.1)));
    }
    let perfect = curves.iter().find(|c| c.name == "Perfect").expect("Perfect curve");
    out.summary.push(("qdr_b50_perfect_pct".into(), 100.0 * at_overhead(perfect, 0.5, |p| p.2)));
    out.sim_recall = sweep_low[1].avg_qr;

    // Upper bound on Equation-2 evaluations: every matching file of every
    // query, once per published-set evaluation.
    out.count("model.pf_terms", matches as f64 * out.work as f64);
    out.count("vocab.terms", pier_vocab::vocab_len() as f64);
    sp.exit(analysis);
    out
}

/// The model's cost is one Equation-2 term per (query, matching file) per
/// evaluation, and a trace's total match count is heavy-tailed in its seed
/// (117k–284k over 64 seeds at the shipped size). Run time would follow.
/// So the workload's trace is, of `CANDIDATES` traces derived from the
/// seed, the one whose match count is nearest `TARGET_MATCHES` (the
/// median): still a pure function of the seed, and steady across seeds.
pub const TARGET_MATCHES: usize = 185_000;
pub const CANDIDATES: u64 = 16;

pub fn steady_seed(p: &ModelParams, seed: u64) -> u64 {
    (0..CANDIDATES)
        .map(|i| derive_seed(seed, i))
        .min_by_key(|&s| total_matches(p, s).abs_diff(TARGET_MATCHES))
        .expect("at least one candidate")
}

/// Σ over queries of matching distinct files in the trace `seed` yields.
fn total_matches(p: &ModelParams, seed: u64) -> usize {
    let out = run(p, seed, true, &mut Spans::new(false));
    out.counts.get("model.matches").map_or(0, |m| *m as usize)
}
