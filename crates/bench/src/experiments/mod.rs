//! One module per reproduced experiment. See DESIGN.md's "Experiment
//! index" for the paper-artifact → module map.

pub mod ablations;
pub mod churn;
pub mod fig8;
pub mod figs13to15;
pub mod figs4to7;
pub mod figs9to12;
pub mod horizon;
pub mod sec5_posting;
pub mod sec7_deploy;

use crate::output::{s, Table};

/// `repro model-params`: re-emit the paper's Tables 1 and 2 (the model
/// notation) from the implementation, so the glossary and the code cannot
/// drift apart.
pub fn model_params() -> Vec<Table> {
    let mut t = Table::new(
        "Tables 1 & 2: model parameters and variables (defined in pier-model)",
        &["symbol", "meaning"],
    );
    for (sym, meaning) in pier_model::cost::params_glossary() {
        t.row(vec![s(sym), s(meaning)]);
    }
    vec![t]
}
