//! Compare the §5 rare-item publishing schemes on a calibrated synthetic
//! trace: the recall each scheme buys per unit of publishing budget
//! (Figures 13–15 in miniature).
//!
//! ```text
//! cargo run --release --example rare_item_schemes
//! ```

use pier_p2p::model::{schemes, SchemeInput, TraceView};
use pier_p2p::workload::{Catalog, CatalogConfig, Evaluator, QueryConfig, QueryTrace};

fn main() {
    let catalog = Catalog::generate(CatalogConfig {
        hosts: 10_000,
        distinct_files: 25_000,
        max_replicas: 1_000,
        vocab: 8_000,
        phrases: 2_500,
        seed: 2024,
    });
    println!(
        "catalog: {} distinct files, {} instances on {} hosts (β = {:.2}, singleton mass {:.1}%)",
        catalog.files.len(),
        catalog.instances(),
        catalog.config.hosts,
        catalog.beta,
        100.0 * catalog.instance_mass_at_most(1)
    );

    let trace = QueryTrace::generate(&catalog, QueryConfig { queries: 400, ..Default::default() });
    let eval = Evaluator::new(&catalog);
    let view = TraceView {
        replicas: catalog.replica_counts(),
        queries: trace.queries.iter().map(|q| eval.eval(q).files).collect(),
        hosts: catalog.config.hosts as u64,
    };
    let horizon = 0.05;
    println!(
        "search horizon: {:.0}% of hosts → baseline QR = {:.0}%\n",
        100.0 * horizon,
        100.0 * horizon
    );

    let tokens: Vec<Vec<pier_p2p::vocab::TermId>> =
        catalog.files.iter().map(|f| f.tokens.clone()).collect();
    let replicas = view.replicas.clone();
    let input = SchemeInput { tokens: &tokens, replicas: &replicas };
    let tf_map = catalog.term_instance_freq();
    let pf_map = catalog.pair_instance_freq();

    println!("{:<28} {:>10} {:>8} {:>8}", "scheme (parameter)", "budget%", "QR%", "QDR%");
    let show = |name: &str, p: pier_p2p::model::PublishedSet| {
        println!(
            "{:<28} {:>10.1} {:>8.1} {:>8.1}",
            name,
            100.0 * p.overhead(&view.replicas),
            100.0 * view.avg_qr(horizon, &p),
            100.0 * view.avg_qdr(horizon, &p)
        );
    };
    show("Perfect (R ≤ 1)", schemes::perfect(&input, 1));
    show("Perfect (R ≤ 2)", schemes::perfect(&input, 2));
    show("Perfect (R ≤ 5)", schemes::perfect(&input, 5));
    show("SAM 15% (est ≤ 2)", schemes::sam(&input, view.hosts, 0.15, 2, 1));
    show("SAM 5%  (est ≤ 2)", schemes::sam(&input, view.hosts, 0.05, 2, 1));
    show("TF  (tf < 25)", schemes::tf(&input, &tf_map, 25));
    show("TPF (pf < 25)", schemes::tpf(&input, &pf_map, 25));
    show("Random (25%)", schemes::random(&input, 0.25, 1));

    println!("\n→ publishing only the rarest items buys most of the recall;");
    println!("  the localized schemes approach the Perfect oracle (Fig. 13-15).");
}
