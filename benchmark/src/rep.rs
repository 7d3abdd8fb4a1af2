//! One repetition of one workload, in this (child) process. Every
//! repetition gets a fresh process so `peak_rss_mb` and the process-wide
//! interners (the `pier-vocab` term table, the QRP filter catalog) start
//! cold each time. The parent reads the single JSON line printed here.

use crate::json::{obj, Json};
use crate::run::median;
use crate::spans::{Spans, NO_OP};
use crate::{manifest, workloads};
use pier_bench::lab::Lab;
use pier_netsim::{KernelProbe, MAX_SHARDS};
use pier_trace::Obs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which of pier-trace's own instruments an overhead re-run switches on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Instrument {
    Profile,
    Trace64,
}

impl Instrument {
    pub fn parse(s: &str) -> Option<Instrument> {
        match s {
            "profile" => Some(Instrument::Profile),
            "trace64" => Some(Instrument::Trace64),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Instrument::Profile => "profile",
            Instrument::Trace64 => "trace64",
        }
    }
}

/// The benchmark's kernel probe: window count, cross-shard sends, and the
/// host time shards spend blocked on the window barrier. All counters are
/// statistics that publish no other data, hence `Relaxed`; a shard's
/// `barrier_begin`/`barrier_end` pair runs on that shard's own thread.
struct WindowProbe {
    origin: Instant,
    windows: AtomicU64,
    cross_sends: AtomicU64,
    wait_ns: AtomicU64,
    begin_ns: Vec<AtomicU64>,
}

impl WindowProbe {
    fn new() -> WindowProbe {
        WindowProbe {
            origin: Instant::now(),
            windows: AtomicU64::new(0),
            cross_sends: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            begin_ns: (0..MAX_SHARDS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl KernelProbe for WindowProbe {
    fn window_done(&self, shard: u32, _now_us: u64, _drained: u64, cross_sends: u64) {
        if shard == 0 {
            self.windows.fetch_add(1, Ordering::Relaxed);
        }
        self.cross_sends.fetch_add(cross_sends, Ordering::Relaxed);
    }

    fn barrier_begin(&self, shard: u32) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.begin_ns[shard as usize].store(now, Ordering::Relaxed);
    }

    fn barrier_end(&self, shard: u32) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let began = self.begin_ns[shard as usize].load(Ordering::Relaxed);
        self.wait_ns.fetch_add(now.saturating_sub(began), Ordering::Relaxed);
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median and the highest percentile with at least ten samples beyond it.
fn first_result_stats(samples: &mut [f64]) -> Json {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let n = samples.len();
    let at = |pct: f64| -> f64 {
        if n == 0 {
            return 0.0;
        }
        let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        samples[rank - 1]
    };
    let tail_pct = [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    obj([
        ("median_s", at(50.0).into()),
        ("tail_pct", tail_pct.into()),
        ("tail_s", at(tail_pct).into()),
        ("n", n.into()),
    ])
}

/// Set-up is re-timed until this many samples exist or this much host time
/// has gone into set-up, whichever comes first: the big set-ups (seconds)
/// are timed once per repetition, the small ones up to nine times.
const SETUP_SAMPLES: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;

/// Run one repetition and print its result line.
pub fn run(workload: &str, seed: u64, traced: bool, smoke: bool) -> Result<(), String> {
    let input_seed = workloads::input_seed(workload, seed, smoke);
    let mut sp = Spans::new(traced);
    let probe = traced.then(|| Arc::new(WindowProbe::new()));
    let t0 = Instant::now();
    let root = sp.enter("bench.unattributed", NO_OP);
    let kernel_probe = probe.clone().map(|p| p as Arc<dyn KernelProbe>);
    let mut out = workloads::run(workload, input_seed, smoke, false, &mut sp, kernel_probe)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    sp.exit(root);
    let wall_s = t0.elapsed().as_secs_f64();
    // The repetition is over and timed. A cheap set-up is now timed a few
    // more times on its own, so `setup_s` is a median of several rather
    // than one sample of a few tens of milliseconds.
    let mut setups = vec![out.setup_s];
    while setups.len() < SETUP_SAMPLES && setups.iter().sum::<f64>() < SETUP_BUDGET_S {
        let again = workloads::run(workload, input_seed, smoke, true, &mut Spans::new(false), None)
            .expect("the workload ran once already");
        setups.push(again.setup_s);
    }

    let mut line = obj([
        ("workload", workload.into()),
        ("seed", seed.into()),
        ("input_seed", format!("{input_seed:#x}").into()),
        ("traced", traced.into()),
        ("wall_s", wall_s.into()),
        ("setup_s", median(&setups).into()),
        ("setup_samples", setups.len().into()),
        ("run_s", (wall_s - out.setup_s).into()),
        ("collected_s", out.collected_s.into()),
        ("work", out.work.into()),
        ("attempted", out.attempted.into()),
        ("failed", out.failed.into()),
        ("sim_msgs", out.sim_msgs.into()),
        ("sim_bytes", out.sim_bytes.into()),
        ("sim_recall", out.sim_recall.into()),
        ("first_result", first_result_stats(&mut out.first_result_s)),
        ("peak_rss_mb", peak_rss_mb().into()),
        ("digest", format!("{:016x}", out.digest()).into()),
        ("violations", std::mem::take(&mut out.violations).into()),
        (
            "summary",
            Json::Obj(out.summary.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect()),
        ),
        (
            "counts",
            Json::Obj(out.counts.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect()),
        ),
    ]);
    if let Some(p) = &probe {
        line.push(
            "kernel",
            obj([
                ("windows", p.windows.load(Ordering::Relaxed).into()),
                ("cross_shard_sends", p.cross_sends.load(Ordering::Relaxed).into()),
                ("barrier_wait_s", (p.wait_ns.load(Ordering::Relaxed) as f64 / 1e9).into()),
            ]),
        );
    }
    if traced {
        let self_times = sp.self_times();
        line.push(
            "self_s",
            Json::Obj(
                self_times
                    .iter()
                    .map(|(name, (s, n))| (name.to_string(), Json::from(vec![*s, *n as f64])))
                    .collect(),
            ),
        );
        line.push("spans", sp.len());
        let mut file = obj([("manifest", manifest::manifest(seed, smoke, &[workload]))]);
        file.push("trace", sp.to_json());
        let path = manifest::out_dir().join(format!("trace_{workload}.json"));
        manifest::write_file(&path, &file.to_line())?;
        line.push("trace_file", path.display().to_string());
    }
    println!("{}", line.to_line());
    Ok(())
}

/// `flood_replay` once more through `Lab::build_with` / `replay_with` with
/// one of pier-trace's instruments on; prints the host seconds it took, to
/// set against an instruments-off repetition's build + replay time.
pub fn run_instrumented(seed: u64, smoke: bool, instrument: Instrument) -> Result<(), String> {
    let obs = match instrument {
        Instrument::Profile => Obs::configure(true, 0, false),
        Instrument::Trace64 => Obs::configure(false, 64, false),
    };
    let (cfg, rate) = workloads::flood_lab(seed, smoke);
    let t0 = Instant::now();
    let mut lab = Lab::build_with(cfg, &obs);
    let results = lab.replay_with(rate, &obs);
    let wall_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(results.len());
    let line = obj([
        ("instrument", instrument.name().into()),
        ("wall_s", wall_s.into()),
        ("events", lab.sim.event_stats().processed.into()),
    ]);
    println!("{}", line.to_line());
    Ok(())
}
