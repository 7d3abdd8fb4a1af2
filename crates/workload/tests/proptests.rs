//! Property tests for the heavy-tailed samplers and the ground-truth
//! evaluator.
//!
//! Whatever the shape parameter, samples must stay inside the declared
//! support. The `PowerLaw` case is a regression test for the missing
//! end-of-CDF clamp (extreme `beta` pushes almost all normalized mass onto
//! the first rank, so `cdf.last()` can sit a hair below 1.0 and a draw
//! above it used to escape to `max + 1`).
//!
//! [`Evaluator::eval`] answers from its posting intersection alone, with
//! no per-file token check; a brute-force scan with the network's matcher
//! is its oracle.

use pier_netsim::stream_rng;
use pier_workload::{Catalog, CatalogConfig, DistinctFile, Evaluator, PowerLaw, Query, Zipf};
use proptest::prelude::*;

/// Words of the random catalogs; a query word past the pool is unknown.
const POOL: usize = 12;

fn word(i: usize) -> String {
    if i < POOL {
        format!("w{i}")
    } else {
        format!("unknown{i}")
    }
}

proptest! {
    #[test]
    fn power_law_samples_stay_in_support(
        max in 1usize..2_000,
        // Extreme shapes on both ends: near-uniform and near-degenerate
        // (milli-beta, since the vendored proptest has integer ranges only).
        milli_beta in 0u32..12_000,
        seed in any::<u64>(),
    ) {
        let beta = milli_beta as f64 / 1_000.0;
        let p = PowerLaw::new(max, beta);
        let mut rng = stream_rng(seed, 0);
        for _ in 0..256 {
            let r = p.sample(&mut rng);
            prop_assert!((1..=max).contains(&r), "sample {r} outside 1..={max} (beta {beta})");
        }
    }

    #[test]
    fn zipf_samples_stay_in_support(
        n in 1usize..2_000,
        milli_s in 0u32..8_000,
        seed in any::<u64>(),
    ) {
        let z = Zipf::new(n, milli_s as f64 / 1_000.0);
        let mut rng = stream_rng(seed, 1);
        for _ in 0..256 {
            let k = z.sample(&mut rng);
            prop_assert!(k < n, "sample {k} outside 0..{n}");
        }
    }

    /// The evaluator equals a brute-force scan, files and instances, on
    /// random catalogs: names repeat words, and queries repeat terms and
    /// hold terms no file has (or no term at all).
    #[test]
    fn evaluator_agrees_with_brute_force(
        files in prop::collection::vec(
            (prop::collection::vec(0usize..POOL, 1..6), 1usize..5),
            1..60,
        ),
        queries in prop::collection::vec(prop::collection::vec(0usize..POOL + 2, 0..5), 1..24),
    ) {
        let files: Vec<DistinctFile> = files
            .iter()
            .map(|(words, replicas)| {
                let name: Vec<String> = words.iter().map(|&w| word(w)).collect();
                let name = name.join("_") + ".mp3";
                let tokens = pier_vocab::scan(&name);
                DistinctFile { name, tokens, hosts: (0..*replicas as u32).collect() }
            })
            .collect();
        let catalog =
            Catalog { config: CatalogConfig::default(), files, host_files: vec![], beta: 1.0 };
        let eval = Evaluator::new(&catalog);
        for words in &queries {
            let q = Query { terms: words.iter().map(|&w| pier_vocab::intern(&word(w))).collect() };
            let truth = eval.eval(&q);
            let brute: Vec<u32> = (0..catalog.files.len() as u32)
                .filter(|&i| pier_vocab::matches(&q.terms, &catalog.files[i as usize].tokens))
                .collect();
            let instances: u64 =
                brute.iter().map(|&i| u64::from(catalog.files[i as usize].replicas())).sum();
            prop_assert_eq!(&truth.files, &brute, "query {:?}", q.text());
            prop_assert_eq!(truth.instances, instances, "query {:?}", q.text());
        }
    }
}
