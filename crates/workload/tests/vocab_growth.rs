//! Guard on the append-only term table: generating a workload must intern
//! O(catalog vocabulary) terms, not O(tokens processed) — the ROADMAP
//! caveat. The table never evicts, so a generator that interned per-token
//! (or per-query) junk would grow the process without bound across sweep
//! trials. Interned-term counts are read through `pier_vocab::vocab_len`,
//! the same gauge `repro` reports after a run.
//!
//! The table is process-global and other tests intern concurrently, so
//! every assertion is on a *delta* with headroom for unrelated interning —
//! the bounds are loose enough to never flake and tight enough that
//! per-token growth (tens of thousands of terms here) would trip them.

use pier_vocab::vocab_len;
use pier_workload::{Catalog, CatalogConfig, QueryConfig, QueryTrace};

fn generate(seed: u64) -> (Catalog, QueryTrace) {
    let catalog = Catalog::generate(CatalogConfig {
        hosts: 1_500,
        distinct_files: 3_000,
        max_replicas: 60,
        vocab: 400,
        phrases: 120,
        seed,
    });
    let trace = QueryTrace::generate(&catalog, QueryConfig { queries: 2_000, seed: seed ^ 0xBEEF });
    (catalog, trace)
}

#[test]
fn trace_generation_interns_o_vocab() {
    let before = vocab_len();
    let (catalog, trace) = generate(0x90CAB);
    let delta = vocab_len() - before;

    // 3k files ⇒ ~15k name tokens scanned, 2k queries ⇒ ~4k query terms:
    // a per-token interner would add tens of thousands of entries. The
    // legitimate contributions are the 400-word vocabulary, a handful of
    // fixed tokens (extensions, track numbers), name-dedup suffixes, and
    // one throwaway term per miss query (6% of 2k ≈ 120).
    let vocab = 400;
    let fixed = 5 + 20; // extensions + zero-padded track numbers
    let miss_upper = (0.06f64 * 2_000.0 * 4.0) as usize; // 4× headroom
    let bound = vocab + fixed + miss_upper + 600; // + dedup/parallel slack
    assert!(
        delta <= bound,
        "generation interned {delta} terms for a {vocab}-word vocabulary \
         (bound {bound}): the generator is interning per token, not per term"
    );
    // Sanity: the workload really did exercise far more tokens than that.
    let tokens_scanned: usize = catalog.files.iter().map(|f| f.tokens.len()).sum::<usize>()
        + trace.queries.iter().map(|q| q.terms.len()).sum::<usize>();
    assert!(tokens_scanned > 4 * bound, "workload too small to prove the bound");
}

#[test]
fn regeneration_interns_nothing_new() {
    let (_, _) = generate(0x90CAB2);
    let mid = vocab_len();
    // Same seed ⇒ identical names and query terms ⇒ interning is a pure
    // cache hit; only concurrently-running tests may add entries.
    let (_, _) = generate(0x90CAB2);
    let delta = vocab_len() - mid;
    assert!(
        delta <= 256,
        "re-generating an identical trace interned {delta} new terms — \
         interning is not idempotent"
    );
}
