//! `compare <a.json> <b.json>`: set a candidate result file (b) against a
//! baseline (a) under the bounds of `BENCHMARK.json`, one row per (metric,
//! workload). Host-time metrics are judged by median and spread; simulated
//! quantities repeat exactly for a fixed seed, so any move in the wrong
//! direction counts.

use crate::json::Json;
use crate::run::median;
use crate::spec::{MetricSpec, Spec};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The repetitions spread wider than the bound: the medians cannot
    /// settle the question either way.
    Unresolved,
    /// Exact metrics only: identical.
    Same,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
        }
    }
}

/// `(max − min) / median` of one side's repetitions; 0 with fewer than two.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// Judge a host-time metric: `a` baseline repetitions, `b` candidate's.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    // Orient so that larger is worse.
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let (ma, mb) = (sign * median(a), sign * median(b));
    let worsening = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    if spread(a).max(spread(b)) > bound {
        // Noisy runs: the medians settle nothing, unless every run of one
        // side beats every run of the other.
        if worst(b) < best(a) {
            Verdict::Better
        } else if best(b) > worst(a) && worsening > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Judge a simulated quantity, which must repeat exactly.
pub fn judge_exact(a: f64, b: f64, higher_is_better: bool) -> Verdict {
    if a.to_bits() == b.to_bits() || a == b {
        Verdict::Same
    } else if (b > a) == higher_is_better {
        Verdict::Better
    } else {
        Verdict::Worse
    }
}

fn is_exact(name: &str) -> bool {
    name.starts_with("sim") || name == "netsim.events"
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(workload: &Json, metric: &str) -> Option<Vec<f64>> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(m.get("values")?.as_arr().iter().filter_map(Json::as_f64).collect())
}

fn layer_value(workload: &Json, metric: &str) -> Option<f64> {
    workload.get("per_layer")?.get(metric)?.get("value")?.as_f64()
}

fn row(workload: &str, m: &MetricSpec, a: f64, b: f64, detail: &str, v: Verdict) {
    println!(
        "{:<16} {:<26} {:>16.6} {:>16.6} {:<6} {:<13} {}",
        workload,
        m.name,
        a,
        b,
        m.unit,
        v.label(),
        detail
    );
}

/// Returns whether no (metric, workload) pair got worse.
pub fn run(spec: &Spec, path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (label, file) in [("a", &a), ("b", &b)] {
        let m = file.get("manifest").ok_or_else(|| format!("{label}: no manifest"))?;
        println!("{label}: {}", m.to_line());
    }
    println!(
        "\n{:<16} {:<26} {:>16} {:>16} {:<6} {:<13} detail",
        "workload", "metric", "a", "b", "unit", "verdict"
    );
    let mut any_worse = false;
    for workload in &spec.workloads {
        let (Some(wa), Some(wb)) = (
            a.get("workloads").and_then(|w| w.get(workload)),
            b.get("workloads").and_then(|w| w.get(workload)),
        ) else {
            println!("{workload:<16} missing from one of the files");
            continue;
        };
        let (da, db) =
            (wa.get("digest").and_then(Json::as_str), wb.get("digest").and_then(Json::as_str));
        println!(
            "{:<16} {:<26} {:>16} {:>16} {:<6} {}",
            workload,
            "digest",
            da.unwrap_or("-"),
            db.unwrap_or("-"),
            "",
            if da == db { "same" } else { "differs" }
        );
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (values(wa, &m.name), values(wb, &m.name)) else { continue };
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if is_exact(&m.name) {
                judge_exact(median(&va), median(&vb), m.higher_is_better)
            } else {
                judge(&va, &vb, m.higher_is_better, bound)
            };
            let change =
                100.0 * (median(&vb) - median(&va)) / median(&va).abs().max(f64::MIN_POSITIVE);
            let detail = format!(
                "{change:+.2}% (bound {:.0}%, spread a {:.1}% b {:.1}%)",
                100.0 * bound,
                100.0 * spread(&va),
                100.0 * spread(&vb)
            );
            row(workload, m, median(&va), median(&vb), &detail, verdict);
            any_worse |= verdict == Verdict::Worse;
        }
        for m in spec.per_layer.iter().filter(|m| is_exact(&m.name)) {
            let (Some(va), Some(vb)) = (layer_value(wa, &m.name), layer_value(wb, &m.name)) else {
                continue;
            };
            let verdict = judge_exact(va, vb, m.higher_is_better);
            row(workload, m, va, vb, "exact", verdict);
            any_worse |= verdict == Verdict::Worse;
        }
    }
    println!(
        "\n{}",
        if any_worse { "at least one metric got WORSE" } else { "no metric got worse" }
    );
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_time_verdicts() {
        // Lower is better, bound 10%.
        let base = [10.0, 10.1, 9.9];
        assert_eq!(judge(&base, &[10.2, 10.3, 10.1], false, 0.10), Verdict::WithinBound);
        assert_eq!(judge(&base, &[12.0, 12.1, 11.9], false, 0.10), Verdict::Worse);
        assert_eq!(judge(&base, &[8.0, 8.1, 7.9], false, 0.10), Verdict::Better);
        // Spread wider than the bound: the medians settle nothing…
        assert_eq!(judge(&[10.0, 12.0, 8.0], &[10.5, 12.5, 8.5], false, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&[10.0, 12.0, 8.0], &[11.5, 13.5, 9.0], false, 0.10), Verdict::Unresolved);
        // …unless every run of one side beats every run of the other.
        assert_eq!(judge(&[10.0, 12.0, 8.0], &[6.0, 7.0, 5.0], false, 0.10), Verdict::Better);
        assert_eq!(judge(&[10.0, 12.0, 8.0], &[14.0, 17.0, 13.0], false, 0.10), Verdict::Worse);
        // Higher is better.
        assert_eq!(judge(&[100.0, 101.0], &[80.0, 81.0], true, 0.10), Verdict::Worse);
        assert_eq!(judge(&[100.0, 101.0], &[120.0, 121.0], true, 0.10), Verdict::Better);
    }

    #[test]
    fn exact_verdicts() {
        assert_eq!(judge_exact(0.5, 0.5, true), Verdict::Same);
        assert_eq!(judge_exact(0.5, 0.6, true), Verdict::Better);
        assert_eq!(judge_exact(0.5, 0.4, true), Verdict::Worse);
        assert_eq!(judge_exact(100.0, 101.0, false), Verdict::Worse);
    }
}
