//! Figures 13–15 (§6.3): comparing the rare-item publishing schemes —
//! Perfect, SAM, TPF, TF, Random — on average QR/QDR as a function of the
//! publishing budget, plus SAM's sample-size sensitivity.

use crate::experiments::figs9to12::{trace_view, trace_view_seeded};
use crate::experiments::Report;
use crate::lab::Scale;
use crate::output::{f, s, Table};
use crate::sweep::Summary;
use pier_model::{schemes, PublishedSet, SchemeInput, TraceView};
use pier_trace::Obs;
use pier_workload::Catalog;

/// One scheme's sweep: (overhead, QR, QDR) points sorted by overhead.
pub struct SchemeCurve {
    pub name: String,
    pub points: Vec<(f64, f64, f64)>,
}

fn curve(
    name: &str,
    view: &TraceView,
    horizon: f64,
    sets: impl IntoIterator<Item = PublishedSet>,
) -> SchemeCurve {
    let mut points: Vec<(f64, f64, f64)> = sets
        .into_iter()
        .map(|p| (p.overhead(&view.replicas), view.avg_qr(horizon, &p), view.avg_qdr(horizon, &p)))
        .collect();
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    SchemeCurve { name: name.to_string(), points }
}

/// Linear interpolation of a curve at a target overhead.
pub fn at_overhead(c: &SchemeCurve, x: f64, metric: impl Fn(&(f64, f64, f64)) -> f64) -> f64 {
    let pts = &c.points;
    if pts.is_empty() {
        return 0.0;
    }
    if x <= pts[0].0 {
        return metric(&pts[0]);
    }
    for w in pts.windows(2) {
        if x <= w[1].0 {
            let t = if w[1].0 > w[0].0 { (x - w[0].0) / (w[1].0 - w[0].0) } else { 0.0 };
            return metric(&w[0]) + t * (metric(&w[1]) - metric(&w[0]));
        }
    }
    metric(pts.last().unwrap())
}

/// Compute every scheme's curve at the Figure 13 horizon (5%).
pub fn compute_curves(catalog: &Catalog, view: &TraceView, horizon: f64) -> Vec<SchemeCurve> {
    let tokens: Vec<Vec<pier_vocab::TermId>> =
        catalog.files.iter().map(|f| f.tokens.clone()).collect();
    let replicas = view.replicas.clone();
    let input = SchemeInput { tokens: &tokens, replicas: &replicas };
    let hosts = view.hosts;

    let perfect_ts: Vec<u32> = vec![0, 1, 2, 3, 5, 8, 12, 20, 40, 80, 200, 1_000, 100_000];
    let perfect =
        curve("Perfect", view, horizon, perfect_ts.iter().map(|&t| schemes::perfect(&input, t)));

    let random = curve(
        "Random",
        view,
        horizon,
        (0..=10).map(|i| schemes::random(&input, i as f64 / 10.0, 77)),
    );

    // TF/TPF thresholds: quantiles of the observed frequency statistics so
    // the sweep spans the budget axis.
    let tf_map = catalog.term_instance_freq();
    let tf_ts = threshold_ladder(&tf_map.sorted_values());
    let tf = curve("TF", view, horizon, tf_ts.iter().map(|&t| schemes::tf(&input, &tf_map, t)));

    let pf_map = catalog.pair_instance_freq();
    let pf_ts = threshold_ladder(&pf_map.sorted_values());
    let tpf = curve("TPF", view, horizon, pf_ts.iter().map(|&t| schemes::tpf(&input, &pf_map, t)));

    let sam_ts: Vec<u32> = vec![0, 1, 2, 3, 5, 8, 12, 20, 40, 80, 200, 1_000, 100_000];
    let sam15 = curve(
        "SAM(15%)",
        view,
        horizon,
        sam_ts.iter().map(|&t| schemes::sam(&input, hosts, 0.15, t, 15)),
    );
    let sam5 = curve(
        "SAM(5%)",
        view,
        horizon,
        sam_ts.iter().map(|&t| schemes::sam(&input, hosts, 0.05, t, 5)),
    );
    let sam100 = curve(
        "SAM(100%)",
        view,
        horizon,
        sam_ts.iter().map(|&t| schemes::sam(&input, hosts, 1.0, t, 100)),
    );

    vec![perfect, sam100, sam15, sam5, tpf, tf, random]
}

/// A ladder of thresholds spanning the value distribution (quantiles plus
/// extremes), deduplicated.
fn threshold_ladder(sorted: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64, 1, 2];
    for q in [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.97, 1.0] {
        let idx = ((sorted.len() as f64 - 1.0) * q) as usize;
        out.push(sorted.get(idx).copied().unwrap_or(0) + 1);
    }
    out.push(u64::MAX);
    out.sort_unstable();
    out.dedup();
    out
}

pub fn run(scale: Scale, _shards: usize, _obs: &Obs) -> Report {
    let (catalog, _trace, view) = trace_view(scale);
    let curves = compute_curves(&catalog, &view, 0.05);

    let budgets = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let mut t13 = Table::new(
        "Figure 13: average QR vs publishing budget, horizon 5%",
        &["budget_pct", "Perfect", "SAM(15%)", "TPF", "TF", "Random"],
    );
    let mut t14 = Table::new(
        "Figure 14: average QDR vs publishing budget, horizon 5%",
        &["budget_pct", "Perfect", "SAM(15%)", "TPF", "TF", "Random"],
    );
    let pick = |name: &str| curves.iter().find(|c| c.name == name).expect("curve exists");
    for &b in &budgets {
        let mut row13 = vec![s((b * 100.0) as u32)];
        let mut row14 = vec![s((b * 100.0) as u32)];
        for name in ["Perfect", "SAM(15%)", "TPF", "TF", "Random"] {
            let c = pick(name);
            row13.push(f(100.0 * at_overhead(c, b, |p| p.1), 1));
            row14.push(f(100.0 * at_overhead(c, b, |p| p.2), 1));
        }
        t13.row(row13);
        t14.row(row14);
    }

    let mut t15 = Table::new(
        "Figure 15: SAM sample-size sensitivity, average QR, horizon 5%",
        &["budget_pct", "Perfect/SAM(100%)", "SAM(15%)", "SAM(5%)", "Random/SAM(0%)"],
    );
    for &b in &budgets {
        t15.row(vec![
            s((b * 100.0) as u32),
            f(100.0 * at_overhead(pick("SAM(100%)"), b, |p| p.1), 1),
            f(100.0 * at_overhead(pick("SAM(15%)"), b, |p| p.1), 1),
            f(100.0 * at_overhead(pick("SAM(5%)"), b, |p| p.1), 1),
            f(100.0 * at_overhead(pick("Random"), b, |p| p.1), 1),
        ]);
    }

    Report { tables: vec![t13, t14, t15], events: None }
}

/// One sweep trial: each scheme's QR at the 50% publishing budget
/// (horizon 5%) from a seeded trace — the paper's Figure 13 mid-axis cut.
///
/// Analytic model — `_shards` is accepted for the uniform sweep interface,
/// but there is no simulation kernel here to shard.
pub fn trial(scale: Scale, seed: u64, _shards: usize) -> Summary {
    let (catalog, _trace, view) = trace_view_seeded(scale, seed);
    let curves = compute_curves(&catalog, &view, 0.05);
    let mut s = Summary::new();
    for c in &curves {
        let key = format!(
            "qr_b50_{}_pct",
            c.name.to_lowercase().replace(['(', '%'], "").replace(')', "")
        );
        s.set(&key, 100.0 * at_overhead(c, 0.5, |p| p.1));
    }
    s.set("qdr_b50_perfect_pct", {
        let perfect = curves.iter().find(|c| c.name == "Perfect").expect("Perfect curve");
        100.0 * at_overhead(perfect, 0.5, |p| p.2)
    });
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scheme_ordering_matches_paper() {
        let (catalog, _trace, view) = trace_view(Scale::Quick);
        let curves = compute_curves(&catalog, &view, 0.05);
        let pick = |name: &str| curves.iter().find(|c| c.name == name).unwrap();

        for budget in [0.3, 0.5, 0.7] {
            let perfect = at_overhead(pick("Perfect"), budget, |p| p.1);
            let sam100 = at_overhead(pick("SAM(100%)"), budget, |p| p.1);
            let sam15 = at_overhead(pick("SAM(15%)"), budget, |p| p.1);
            let sam5 = at_overhead(pick("SAM(5%)"), budget, |p| p.1);
            let tf = at_overhead(pick("TF"), budget, |p| p.1);
            let tpf = at_overhead(pick("TPF"), budget, |p| p.1);
            let random = at_overhead(pick("Random"), budget, |p| p.1);

            // Paper's ordering: Perfect best, Random worst, SAM near
            // Perfect, TF/TPF in between.
            assert!((perfect - sam100).abs() < 0.02, "SAM(100%) ≈ Perfect");
            assert!(perfect >= sam15 - 0.02, "budget {budget}");
            assert!(sam15 >= sam5 - 0.03, "more sampling is better");
            assert!(sam15 > random + 0.05, "SAM must clearly beat Random");
            assert!(tf > random + 0.03, "TF must beat Random");
            assert!(tpf > random + 0.03, "TPF must beat Random");
            assert!(perfect >= tf - 0.02 && perfect >= tpf - 0.02);
        }

        // QDR ordering too (Figure 14).
        let budget = 0.5;
        let perfect_qdr = at_overhead(pick("Perfect"), budget, |p| p.2);
        let random_qdr = at_overhead(pick("Random"), budget, |p| p.2);
        assert!(perfect_qdr > random_qdr + 0.05);
    }
}
