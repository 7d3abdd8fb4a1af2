//! One module per reproduced experiment, and the one table that lists
//! them. See DESIGN.md's "Experiment index" for the paper-artifact →
//! module map.
//!
//! [`EXPERIMENTS`] is the only place an experiment's name, aliases and
//! entry points are written: `repro <id>` resolves through
//! [`Experiment::find`], `repro all` iterates the table, `repro sweep`
//! takes the rows that have a `trial`, and the usage text is generated
//! from it. Adding an experiment is one row.

pub mod ablations;
pub mod churn;
pub mod fig8;
pub mod figs13to15;
pub mod figs4to7;
pub mod figs9to12;
pub mod horizon;
pub mod sec5_posting;
pub mod sec7_deploy;

use crate::lab::Scale;
use crate::output::{emit, s, Table};
use crate::sweep::Summary;
use pier_netsim::EventStats;
use pier_trace::Obs;

/// What one single run hands back for presentation.
pub struct Report {
    pub tables: Vec<Table>,
    /// Kernel event-queue accounting, for the experiments that drive a
    /// simulator and report its throughput.
    pub events: Option<EventStats>,
}

/// One row of the experiment table.
pub struct Experiment {
    /// The canonical id; with `-` → `_` also the result-file stem.
    pub name: &'static str,
    /// Other spellings `repro` accepts (figure numbers, section names).
    pub aliases: &'static [&'static str],
    /// The single run at the experiment's canonical seed:
    /// `(scale, kernel shards, observability)`.
    pub run: fn(Scale, usize, &Obs) -> Report,
    /// One seeded sweep trial: `(scale, seed, kernel shards)`. `None` only
    /// for `model-params`, which has no random component.
    pub trial: Option<fn(Scale, u64, usize) -> Summary>,
}

/// Every experiment, in the order `repro all` runs them.
pub static EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        name: "figs4to7",
        aliases: &["fig4", "fig5", "fig6", "fig7", "figs4-7"],
        run: figs4to7::run,
        trial: Some(figs4to7::trial),
    },
    Experiment { name: "fig8", aliases: &["crawl"], run: fig8::run, trial: Some(fig8::trial) },
    Experiment {
        name: "figs9to12",
        aliases: &["fig9", "fig10", "fig11", "fig12", "figs9-12"],
        run: figs9to12::run,
        trial: Some(figs9to12::trial),
    },
    Experiment {
        name: "figs13to15",
        aliases: &["fig13", "fig14", "fig15", "figs13-15"],
        run: figs13to15::run,
        trial: Some(figs13to15::trial),
    },
    Experiment {
        name: "sec5-posting",
        aliases: &[],
        run: sec5_posting::run,
        trial: Some(sec5_posting::trial),
    },
    Experiment {
        name: "sec7-deploy",
        aliases: &[],
        run: sec7_deploy::run,
        trial: Some(sec7_deploy::trial),
    },
    Experiment {
        name: "model-params",
        aliases: &["table1", "table2"],
        run: model_params,
        trial: None,
    },
    Experiment {
        name: "ablations",
        aliases: &["ablation-timeout"],
        run: ablations::run,
        trial: Some(ablations::trial),
    },
    Experiment {
        name: "horizon",
        aliases: &["sparse"],
        run: horizon::run,
        trial: Some(horizon::trial),
    },
    Experiment { name: "churn", aliases: &[], run: churn::run, trial: Some(churn::trial) },
];

impl Experiment {
    /// The row `id` names, by canonical name or alias.
    pub fn find(id: &str) -> Option<&'static Experiment> {
        EXPERIMENTS.iter().find(|e| e.name == id || e.aliases.contains(&id))
    }

    /// The "known experiments" line of `repro`'s usage text: every name
    /// `keep` selects, each followed by its aliases.
    pub fn known(keep: impl Fn(&Experiment) -> bool) -> String {
        let rows = EXPERIMENTS.iter().filter(|e| keep(e)).map(|e| {
            if e.aliases.is_empty() {
                e.name.to_string()
            } else {
                format!("{} ({})", e.name, e.aliases.join(", "))
            }
        });
        rows.collect::<Vec<_>>().join(", ")
    }
}

/// One single run of `exp`, the way `repro <id>` and every step of
/// `repro all` do it: inside its own `exp.<name>` phase, timed, with the
/// kernel-throughput line when it drove a simulator, tables printed and
/// written as CSV. Only this path prints — `trial`s stay silent so
/// parallel sweep workers don't interleave output.
#[expect(clippy::disallowed_methods, reason = "times the run; the clock feeds back into nothing")]
pub fn run_one(exp: &Experiment, scale: Scale, shards: usize, obs: &Obs) -> Report {
    let _phase = obs.phase(&format!("exp.{}", exp.name));
    let t0 = std::time::Instant::now();
    let report = (exp.run)(scale, shards, obs);
    // Result-file stem: CSVs are `results/<stem>_<i>.csv`.
    let stem = exp.name.replace('-', "_");
    if let Some(events) = report.events {
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        println!(
            "  {stem}: {} kernel events in {secs:.2}s ({:.0} events/s, {shards} shard(s), \
peak {} pending)",
            events.processed,
            events.processed as f64 / secs,
            events.peak_pending,
        );
    }
    emit(&report.tables, &stem);
    report
}

/// `repro model-params`: re-emit the paper's Tables 1 and 2 (the model
/// notation) from the implementation, so the glossary and the code cannot
/// drift apart.
fn model_params(_scale: Scale, _shards: usize, _obs: &Obs) -> Report {
    let mut t = Table::new(
        "Tables 1 & 2: model parameters and variables (defined in pier-model)",
        &["symbol", "meaning"],
    );
    for (sym, meaning) in pier_model::cost::params_glossary() {
        t.row(vec![s(sym), s(meaning)]);
    }
    Report { tables: vec![t], events: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The table is the only list of experiments, so its own consistency
    /// is the whole contract: unambiguous ids, every historical spelling
    /// still resolves, and file stems are today's.
    #[test]
    fn table_is_consistent() {
        let mut ids = BTreeSet::new();
        for e in &EXPERIMENTS {
            assert!(ids.insert(e.name), "duplicate name {}", e.name);
        }
        for e in &EXPERIMENTS {
            for a in e.aliases {
                assert!(ids.insert(a), "alias {a} of {} collides with another id", e.name);
            }
        }
        for e in &EXPERIMENTS {
            assert_eq!(Experiment::find(e.name).map(|f| f.name), Some(e.name));
        }

        // Every spelling the two deleted lists (`repro`'s match and
        // `sweep::Experiment::parse`) accepted.
        let resolves = |id: &str, name: &str| {
            assert_eq!(Experiment::find(id).map(|e| e.name), Some(name), "{id}");
        };
        for id in ["fig4", "fig5", "fig6", "fig7", "figs4-7", "figs4to7"] {
            resolves(id, "figs4to7");
        }
        for id in ["fig8", "crawl"] {
            resolves(id, "fig8");
        }
        for id in ["fig9", "fig10", "fig11", "fig12", "figs9-12", "figs9to12"] {
            resolves(id, "figs9to12");
        }
        for id in ["fig13", "fig14", "fig15", "figs13-15", "figs13to15"] {
            resolves(id, "figs13to15");
        }
        for id in ["model-params", "table1", "table2"] {
            resolves(id, "model-params");
        }
        for id in ["ablations", "ablation-timeout"] {
            resolves(id, "ablations");
        }
        for id in ["horizon", "sparse"] {
            resolves(id, "horizon");
        }
        for id in ["sec5-posting", "sec7-deploy", "churn"] {
            resolves(id, id);
        }
        assert!(Experiment::find("nonsense").is_none());
        assert!(Experiment::find("all").is_none() && Experiment::find("sweep").is_none());

        // Everything sweeps except the glossary.
        let unsweepable: Vec<&str> =
            EXPERIMENTS.iter().filter(|e| e.trial.is_none()).map(|e| e.name).collect();
        assert_eq!(unsweepable, ["model-params"]);

        // The ten CSV prefixes `repro` has always written.
        let stems: Vec<String> = EXPERIMENTS.iter().map(|e| e.name.replace('-', "_")).collect();
        assert_eq!(
            stems,
            [
                "figs4to7",
                "fig8",
                "figs9to12",
                "figs13to15",
                "sec5_posting",
                "sec7_deploy",
                "model_params",
                "ablations",
                "horizon",
                "churn"
            ]
        );
    }
}
