//! The parent side: re-execute this binary once per repetition, gather the
//! children's result lines, and reduce them to the metrics `BENCHMARK.json`
//! names.

use crate::json::{obj, Json};
use crate::rep::Instrument;
use crate::spec::Spec;
use crate::{manifest, probes};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long the end-to-end side keeps starting repetitions.
    pub seconds: f64,
    pub smoke: bool,
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Run this binary as a child with `args`, wait for it, and parse the last
/// line it printed. A child that exits non-zero is an error: the
/// repetition's operations all count as failed and the run is void.
fn spawn_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition {args:?} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("repetition printed nothing")?;
    Json::parse(line).map_err(|e| format!("repetition output: {e}"))
}

/// One child repetition of `workload`: `mode` is `["--trace", "0|1"]` or
/// `["--instrument", name]`.
fn child(workload: &str, opts: Options, mode: [&str; 2]) -> Result<Json, String> {
    let mut args: Vec<String> = ["rep", "--workload", workload].map(String::from).into();
    args.extend(mode.map(String::from));
    args.extend(["--seed".to_string(), opts.seed.to_string()]);
    if opts.smoke {
        args.push("--smoke".to_string());
    }
    eprintln!("  {workload}: repetition ({} {})…", &mode[0][2..], mode[1]);
    spawn_child(&args)
}

fn rep(workload: &str, opts: Options, traced: bool) -> Result<Json, String> {
    child(workload, opts, ["--trace", if traced { "1" } else { "0" }])
}

fn num(rep: &Json, key: &str) -> f64 {
    rep.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn digest(rep: &Json) -> &str {
    rep.get("digest").and_then(Json::as_str).unwrap_or("")
}

fn violations(rep: &Json) -> Vec<String> {
    rep.get("violations")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect()
}

/// The untraced repetitions of one workload.
pub struct EndToEnd {
    pub reps: Vec<Json>,
}

impl EndToEnd {
    /// Start repetitions, each in a fresh process, until `seconds` have
    /// passed (always at least one).
    pub fn measure(workload: &str, opts: Options) -> Result<EndToEnd, String> {
        let start = Instant::now();
        let mut reps = vec![rep(workload, opts, false)?];
        while start.elapsed().as_secs_f64() < opts.seconds {
            reps.push(rep(workload, opts, false)?);
        }
        Ok(EndToEnd { reps })
    }

    /// One value per repetition of an end-to-end metric.
    pub fn values(&self, metric: &str) -> Result<Vec<f64>, String> {
        self.reps
            .iter()
            .map(|r| match metric {
                "wall_s" | "setup_s" | "run_s" | "peak_rss_mb" | "sim_recall" => Ok(num(r, metric)),
                "work_per_s" => Ok(num(r, "work") / num(r, "run_s")),
                other => {
                    Err(format!("BENCHMARK.json names an unknown end-to-end metric '{other}'"))
                }
            })
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| num(r, "attempted") as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| num(r, "failed") as u64).sum()
    }

    pub fn digest(&self) -> &str {
        digest(&self.reps[0])
    }

    /// Every check that did not hold: the drivers' own, plus "all
    /// repetitions produced the same digest".
    pub fn violations(&self) -> Vec<String> {
        let mut all: Vec<String> = self.reps.iter().flat_map(violations).collect();
        if self.reps.iter().any(|r| digest(r) != self.digest()) {
            all.push("repetitions disagree on the digest".to_string());
        }
        all
    }
}

/// Host seconds of `flood_replay`'s build + replay with one of pier-trace's
/// instruments on, as a percentage over `baseline_s`.
fn instrument_overhead_pct(
    opts: Options,
    instrument: Instrument,
    baseline_s: f64,
) -> Result<f64, String> {
    let r = child("flood_replay", opts, ["--instrument", instrument.name()])?;
    Ok(100.0 * (num(&r, "wall_s") - baseline_s) / baseline_s)
}

/// The traced side of one workload.
pub struct Traced {
    pub rep: Json,
    /// Every per-layer row this workload produced, by name.
    pub rows: BTreeMap<String, f64>,
}

/// The micro-probes: workload-independent, so `all` runs them once.
pub fn probe_rows() -> BTreeMap<&'static str, f64> {
    eprintln!("  micro-probes…");
    probes::run_all()
}

/// One traced repetition reduced to per-layer rows, `probes` folded in.
/// `baseline` is an untraced repetition of the same workload and seed.
pub fn traced(
    workload: &str,
    opts: Options,
    baseline: &Json,
    probes: &BTreeMap<&'static str, f64>,
) -> Result<Traced, String> {
    let rep = rep(workload, opts, true)?;
    let mut rows: BTreeMap<String, f64> = BTreeMap::new();

    // S rows: self-time by span name. They sum to the traced wall exactly.
    let mut run_calls = 0.0;
    let mut kernel_s = 0.0;
    for (name, v) in rep.get("self_s").map(Json::entries).unwrap_or_default() {
        let (self_s, calls) = match v.as_arr() {
            [s, n] => (s.as_f64().unwrap_or(0.0), n.as_f64().unwrap_or(0.0)),
            _ => return Err(format!("malformed self_s entry for {name}")),
        };
        rows.insert(format!("{name}_s"), self_s);
        match name.as_str() {
            "workload.eval" => {
                rows.insert("workload.eval_us_per_query".into(), 1e6 * self_s / calls.max(1.0));
            }
            // The spans under which the kernel runs. `ChurnDriver::advance`
            // runs it once per membership flip it applies (added below) and
            // once more to reach its deadline.
            "netsim.run" | "gnutella.qrp_warmup" | "churn.advance" => {
                run_calls += calls;
                kernel_s += self_s;
            }
            _ => {}
        }
    }
    // C rows: counts the repetition read from the program's counters.
    for (name, v) in rep.get("counts").map(Json::entries).unwrap_or_default() {
        rows.insert(name.clone(), v.as_f64().unwrap_or(0.0));
    }
    run_calls += rows.get("churn.transitions").copied().unwrap_or(0.0);
    rows.insert("netsim.run_calls".into(), run_calls);
    let events = rows.get("netsim.events").copied().unwrap_or(0.0);
    rows.insert(
        "netsim.ns_per_event".into(),
        if events > 0.0 { 1e9 * kernel_s / events } else { 0.0 },
    );
    if let Some(k) = rep.get("kernel") {
        rows.insert("netsim.windows".into(), num(k, "windows"));
        rows.insert("netsim.cross_shard_sends".into(), num(k, "cross_shard_sends"));
        rows.insert("netsim.barrier_wait_s".into(), num(k, "barrier_wait_s"));
    }

    // Simulated quantities: exact for a fixed seed.
    let attempted = num(&rep, "attempted").max(1.0);
    rows.insert("sim.msgs_per_op".into(), num(&rep, "sim_msgs") / attempted);
    rows.insert("sim.bytes_per_op".into(), num(&rep, "sim_bytes") / attempted);
    if let Some(f) = rep.get("first_result") {
        rows.insert("sim.first_result_s".into(), num(f, "median_s"));
        rows.insert("sim.first_result_tail_s".into(), num(f, "tail_s"));
        rows.insert("sim.first_result_tail_pct".into(), num(f, "tail_pct"));
        rows.insert("sim.first_result_n".into(), num(f, "n"));
    }
    rows.insert("bench.fail_share".into(), num(&rep, "failed") / attempted);

    // The recorder's own cost, and pier-trace's instruments on the flood.
    let traced_wall = num(&rep, "wall_s");
    let base_wall = num(baseline, "wall_s");
    rows.insert("bench.traced_wall_s".into(), traced_wall);
    rows.insert("bench.spans".into(), num(&rep, "spans"));
    rows.insert("bench.span_overhead_pct".into(), 100.0 * (traced_wall - base_wall) / base_wall);
    if workload == "flood_replay" {
        let collected_s = num(baseline, "collected_s");
        for (row, instrument) in [
            ("trace.profile_overhead_pct", Instrument::Profile),
            ("trace.trace64_overhead_pct", Instrument::Trace64),
        ] {
            rows.insert(row.into(), instrument_overhead_pct(opts, instrument, collected_s)?);
        }
    }

    // P rows.
    for (name, ns) in probes {
        rows.insert(name.to_string(), *ns);
    }
    Ok(Traced { rep, rows })
}

/// The contract's result line for `--trace 0`.
pub fn end_to_end_result(spec: &Spec, workload: &str, opts: Options) -> Result<Json, String> {
    let e2e = EndToEnd::measure(workload, opts)?;
    let violations = e2e.violations();
    for v in &violations {
        eprintln!("  {workload}: CHECK FAILED: {v}");
    }
    let mut metrics = Json::Obj(Vec::new());
    for m in &spec.end_to_end {
        let value = median(&e2e.values(&m.name)?);
        metrics.push(&m.name, obj([("value", value.into()), ("unit", m.unit.as_str().into())]));
    }
    Ok(obj([
        ("correct", violations.is_empty().into()),
        ("attempted", e2e.attempted().into()),
        ("failed", e2e.failed().into()),
        ("metrics", metrics),
    ]))
}

fn per_layer_metrics(spec: &Spec, rows: &BTreeMap<String, f64>) -> Result<Json, String> {
    // A row computed here that `BENCHMARK.json` does not list means the two
    // have drifted apart, which must not pass silently.
    let unlisted: Vec<&String> =
        rows.keys().filter(|k| !spec.per_layer.iter().any(|m| &m.name == *k)).collect();
    if !unlisted.is_empty() {
        return Err(format!("per-layer rows missing from BENCHMARK.json: {unlisted:?}"));
    }
    let mut metrics = Json::Obj(Vec::new());
    for m in &spec.per_layer {
        // A layer this workload never enters reads 0.
        let value = rows.get(&m.name).copied().unwrap_or(0.0);
        metrics.push(&m.name, obj([("value", value.into()), ("unit", m.unit.as_str().into())]));
    }
    Ok(metrics)
}

/// The checks a traced run adds to the untraced ones: tracing must not
/// change the result, and (given `flood_replay`'s digest) the two-shard
/// replay must equal the one-shard replay bit for bit.
fn traced_violations(t: &Traced, untraced: &str, single_shard: Option<&str>) -> Vec<String> {
    let mut v = violations(&t.rep);
    if digest(&t.rep) != untraced {
        v.push("the traced repetition's digest differs from the untraced one's".to_string());
    }
    if single_shard.is_some_and(|d| d != untraced) {
        v.push("flood_replay_s2's digest differs from flood_replay's".to_string());
    }
    v
}

/// The contract's result line for `--trace 1`.
pub fn per_layer_result(spec: &Spec, workload: &str, opts: Options) -> Result<Json, String> {
    let baseline = rep(workload, opts, false)?;
    let t = traced(workload, opts, &baseline, &probe_rows())?;
    let single_shard = match workload {
        "flood_replay_s2" => Some(rep("flood_replay", opts, false)?),
        _ => None,
    };
    let mut violations = violations(&baseline);
    violations.extend(traced_violations(&t, digest(&baseline), single_shard.as_ref().map(digest)));
    for v in &violations {
        eprintln!("  {workload}: CHECK FAILED: {v}");
    }
    Ok(obj([
        ("correct", violations.is_empty().into()),
        ("attempted", ((num(&baseline, "attempted") + num(&t.rep, "attempted")) as u64).into()),
        ("failed", ((num(&baseline, "failed") + num(&t.rep, "failed")) as u64).into()),
        ("metrics", per_layer_metrics(spec, &t.rows)?),
    ]))
}

/// `all`: every workload, end to end and traced; prints every metric by
/// name with its unit and writes the result file `compare` reads. Returns
/// whether every check held and nothing failed.
pub fn all(spec: &Spec, opts: Options) -> Result<bool, String> {
    let names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    let mut file = obj([("manifest", manifest::manifest(opts.seed, opts.smoke, &names))]);
    let mut workloads = Json::Obj(Vec::new());
    let mut ok = true;
    let mut digests: BTreeMap<String, String> = BTreeMap::new();
    let mut computed: Vec<String> = Vec::new();
    let probes = probe_rows();

    for workload in &names {
        eprintln!("{workload}");
        let e2e = EndToEnd::measure(workload, opts)?;
        let t = traced(workload, opts, &e2e.reps[0], &probes)?;
        let single_shard = match *workload {
            "flood_replay_s2" => digests.get("flood_replay").map(String::as_str),
            _ => None,
        };
        let mut violations = e2e.violations();
        violations.extend(traced_violations(&t, e2e.digest(), single_shard));
        digests.insert(workload.to_string(), e2e.digest().to_string());
        let failed = e2e.failed() + num(&t.rep, "failed") as u64;
        ok &= violations.is_empty() && failed == 0;

        println!("\n== {workload}  (digest {}, {} repetitions)", e2e.digest(), e2e.reps.len());
        let mut e2e_json = Json::Obj(Vec::new());
        for m in &spec.end_to_end {
            let values = e2e.values(&m.name)?;
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            println!(
                "  {:<34} {:>16.6} {:<6} (min {:.6}, max {:.6}, n={})",
                m.name,
                median(&values),
                m.unit,
                lo,
                hi,
                values.len()
            );
            e2e_json.push(
                &m.name,
                obj([
                    ("median", median(&values).into()),
                    ("min", lo.into()),
                    ("max", hi.into()),
                    ("values", values.into()),
                    ("unit", m.unit.as_str().into()),
                ]),
            );
        }
        println!(
            "  {:<34} {:>16} of {}",
            "failed",
            failed,
            e2e.attempted() + num(&t.rep, "attempted") as u64
        );
        let layer = per_layer_metrics(spec, &t.rows)?;
        for (name, m) in layer.entries() {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {:<34} {:>16.6} {:<6}", name, num(m, "value"), unit);
        }
        for v in &violations {
            println!("  CHECK FAILED: {v}");
        }
        computed.extend(t.rows.keys().cloned());
        workloads.push(
            workload,
            obj([
                ("digest", e2e.digest().into()),
                ("reps", e2e.reps.len().into()),
                ("attempted", e2e.attempted().into()),
                ("failed", failed.into()),
                ("violations", violations.into()),
                ("summary", t.rep.get("summary").cloned().unwrap_or(Json::Null)),
                ("end_to_end", e2e_json),
                ("per_layer", layer),
            ]),
        );
    }
    // The other direction of the drift check: a listed row no workload
    // ever computes is a dead name.
    for m in &spec.per_layer {
        if !computed.contains(&m.name) {
            println!("CHECK FAILED: BENCHMARK.json lists '{}' but no workload computes it", m.name);
            ok = false;
        }
    }
    file.push("workloads", workloads);
    let tag = if opts.smoke { "_smoke" } else { "" };
    let path = manifest::out_dir().join(format!("results_{}{tag}.json", opts.seed));
    manifest::write_file(&path, &file.to_pretty())?;
    println!("\nresults: {}", path.display());
    Ok(ok)
}
