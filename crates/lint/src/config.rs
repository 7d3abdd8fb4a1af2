//! Per-crate lint configuration.
//!
//! The workspace config is code, not a file: the build environment is
//! offline and the crate set is small and stable, so a constructor
//! naming every crate's lint set is the clearest single source of truth
//! (and the `lint_clean` tier-1 test keeps it honest — an unlisted new
//! crate fails the workspace walk loudly).

use std::collections::BTreeMap;

/// Which passes run for one crate, plus their allowlists.
#[derive(Clone, Debug, Default)]
pub struct CrateRules {
    /// DET-ITER: unordered-container iteration must be sorted, sunk into
    /// an order-insensitive reduction, or annotated. On for crates whose
    /// code runs inside (or builds the inputs of) the simulation.
    pub det_iter: bool,
    /// DET-CLOCK: no wall-clock reads; sim code gets time from `Ctx`.
    pub det_clock: bool,
    /// Workspace-relative path suffixes DET-CLOCK *exempts* even when the
    /// pass is on: confined profiling modules whose wall-clock reads are
    /// read-only observers of the sim, never inputs to it. Keep this list
    /// short — each entry needs a written reason at its insertion site.
    pub det_clock_allow_paths: &'static [&'static str],
    /// DET-ENTROPY: no ambient entropy; all randomness is seeded streams.
    pub det_entropy: bool,
    /// SHARD-STATIC: no mutable/interior-mutable statics that could carry
    /// state across shard boundaries.
    pub shard_static: bool,
    /// METRIC-RAW: metric classes are registered in `classes` modules.
    pub metric_raw: bool,
    /// CAST-NARROW applies to these workspace-relative path suffixes
    /// (arena/columnar index code where a silent truncation corrupts
    /// offsets at metro scale). Empty = pass off.
    pub cast_narrow_paths: &'static [&'static str],
    /// Static names SHARD-STATIC accepts without an annotation: the
    /// registered process-wide interners and metric registries, which are
    /// deterministic by construction (content-addressed, iteration never
    /// exposed) and deliberately shared across shards.
    pub shard_static_allow: &'static [&'static str],
}

impl CrateRules {
    /// Everything on — the baseline for sim-affecting crates.
    fn sim() -> Self {
        CrateRules {
            det_iter: true,
            det_clock: true,
            det_entropy: true,
            shard_static: true,
            metric_raw: true,
            ..Default::default()
        }
    }

    /// Support crates: everything except DET-ITER (their iteration output
    /// never reaches sim event ordering directly; the sim crates' lints
    /// catch it at the boundary).
    fn support() -> Self {
        CrateRules { det_iter: false, ..Self::sim() }
    }
}

/// Workspace-root directories walked beside `crates/*/src`: the examples
/// and the root integration tests. Their files are keyed in
/// [`workspace_rules`] by the directory name itself.
pub const ROOT_DIRS: [&str; 2] = ["examples", "tests"];

/// The workspace lint map, keyed by `crates/<dir>` directory name or by a
/// [`ROOT_DIRS`] name.
pub fn workspace_rules() -> BTreeMap<&'static str, CrateRules> {
    let mut m = BTreeMap::new();

    // Sim-affecting crates: protocol state machines and the machinery
    // that drives them. DET-ITER enforced.
    m.insert("gnutella", CrateRules { cast_narrow_paths: &["src/files.rs"], ..CrateRules::sim() });
    m.insert("dht", CrateRules { cast_narrow_paths: &["src/storage.rs"], ..CrateRules::sim() });
    m.insert("piersearch", CrateRules::sim());
    m.insert("hybrid", CrateRules::sim());
    m.insert("churn", CrateRules::sim());
    m.insert(
        "netsim",
        CrateRules {
            // The kernel owns the process-wide metric registry; its
            // `classes` machinery is *defined* here, so METRIC-RAW would
            // flag the implementation of the sanctioned path itself.
            metric_raw: false,
            shard_static_allow: &["REGISTRY"],
            ..CrateRules::sim()
        },
    );
    m.insert("workload", CrateRules::sim());

    // Support crates.
    m.insert(
        "vocab",
        CrateRules {
            cast_narrow_paths: &["src/lib.rs"],
            // The process-wide term interner: ids are handed out in
            // first-intern order (deterministic per run of a
            // deterministic workload) and its iteration is never exposed.
            shard_static_allow: &["TABLE"],
            ..CrateRules::support()
        },
    );
    m.insert("codec", CrateRules::support());
    m.insert("pier", CrateRules::support());
    m.insert("model", CrateRules::support());
    m.insert("lint", CrateRules::support());

    // pier-bench is the one place wall-clock timing is the point
    // (benchmarks, sweep wall-time reporting). Everything else still
    // applies — a bench-driven trial must stay seeded and shard-safe.
    m.insert("bench", CrateRules { det_clock: false, ..CrateRules::support() });

    // pier-trace is observability: the tracer/report modules are clock-free
    // and fully linted, but the profiling module is *about* wall-clock
    // (phase timers, barrier-wait measurement, the progress heartbeat), so
    // DET-CLOCK exempts exactly `src/profile.rs`. That confinement is safe
    // because profiling is a read-only observer behind `KernelProbe` /
    // `PhaseTimer`: it receives already-computed sim state and has no
    // channel back into RNG streams, event ordering, or `Metrics`.
    m.insert(
        "trace",
        CrateRules { det_clock_allow_paths: &["src/profile.rs"], ..CrateRules::support() },
    );

    // What a reader runs and what the golden pins compare: same seed,
    // same bytes, so DET-ITER covers these — test code included, since a
    // root `tests/` file is nothing but test code. The other passes stay
    // off: examples and tests time themselves and build their own statics.
    for dir in ROOT_DIRS {
        m.insert(dir, CrateRules { det_iter: true, ..Default::default() });
    }

    m
}
