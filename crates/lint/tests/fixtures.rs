//! Per-pass fixtures: each lint must fire on a minimal positive example,
//! stay quiet on the matching negative, and honor a justified
//! allow-annotation. The final test is the seeded-mutation check the
//! acceptance criteria ask for: injecting each bug class into a clean
//! fixture must produce exactly that rule.

use pier_lint::analyze_source;
use pier_lint::report::Report;

fn rule_ids(rep: &Report) -> Vec<&'static str> {
    rep.findings.iter().map(|f| f.rule.id()).collect()
}

fn assert_clean(rep: &Report) {
    assert!(rep.findings.is_empty(), "expected clean, got:\n{}", rep.render_text());
}

fn assert_fires(rep: &Report, rule: &str) {
    assert!(
        rule_ids(rep).contains(&rule),
        "expected a {rule} finding, got:\n{}",
        rep.render_text()
    );
}

// ---------------------------------------------------------------------------
// DET-ITER
// ---------------------------------------------------------------------------

const DET_ITER_POS: &str = r#"
use std::collections::HashMap;
pub struct S { pub m: HashMap<u32, u32> }
impl S {
    pub fn order_sensitive(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for k in self.m.keys() {
            out.push(*k);
        }
        out
    }
}
"#;

#[test]
fn det_iter_fires_on_unsorted_hashmap_keys() {
    let rep = analyze_source("gnutella", "src/fx.rs", DET_ITER_POS);
    assert_fires(&rep, "det-iter");
}

#[test]
fn det_iter_quiet_on_btreemap() {
    let src = DET_ITER_POS.replace("HashMap", "BTreeMap");
    assert_clean(&analyze_source("gnutella", "src/fx.rs", &src));
}

#[test]
fn det_iter_quiet_when_collected_then_sorted() {
    let src = r#"
use std::collections::HashMap;
pub struct S { pub m: HashMap<u32, u32> }
impl S {
    pub fn sorted_keys(&self) -> Vec<u32> {
        let mut ks: Vec<u32> = self.m.keys().copied().collect();
        ks.sort();
        ks
    }
}
"#;
    assert_clean(&analyze_source("gnutella", "src/fx.rs", src));
}

#[test]
fn det_iter_quiet_on_order_insensitive_reduction() {
    let src = r#"
use std::collections::HashMap;
pub struct S { pub m: HashMap<u32, u32> }
impl S {
    pub fn total(&self) -> u32 {
        self.m.values().sum()
    }
}
"#;
    assert_clean(&analyze_source("gnutella", "src/fx.rs", src));
}

#[test]
fn det_iter_suppressed_by_justified_allow() {
    let src = r#"
use std::collections::HashMap;
pub struct S { pub m: HashMap<u32, u32> }
impl S {
    pub fn histogram(&self) -> usize {
        let mut n = 0;
        // pier-lint: allow(det-iter): commutative accumulation so visit
        // order cannot change the result value.
        for k in self.m.keys() {
            n += (*k as usize) & 1;
        }
        n
    }
}
"#;
    let rep = analyze_source("gnutella", "src/fx.rs", src);
    assert_clean(&rep);
    assert_eq!(rep.allows_used.len(), 1, "the annotation must register as used");
}

#[test]
fn det_iter_off_in_support_crates() {
    // codec never touches sim state; its rule set has det-iter off.
    assert_clean(&analyze_source("codec", "src/fx.rs", DET_ITER_POS));
}

#[test]
fn det_iter_ignores_test_code() {
    let src = format!("#[cfg(test)]\nmod tests {{\n{}\n}}\n", DET_ITER_POS);
    assert_clean(&analyze_source("gnutella", "src/fx.rs", &src));
}

#[test]
fn det_iter_covers_examples_and_root_tests() {
    // The shape `examples/gnutella_crawl.rs:48` had before its start ids
    // were sorted: ten start nodes in `HashMap` key order.
    let crawl = r#"
fn main() {
    let c = crawl();
    let starts: Vec<_> = c.graph.adj.keys().copied().take(10).collect();
    report(&starts);
}
"#;
    let rep = analyze_source("examples", "examples/gnutella_crawl.rs", crawl);
    assert_fires(&rep, "det-iter");
    assert_eq!(rep.findings[0].path, "examples/gnutella_crawl.rs");
    let sorted = crawl.replace(
        "let starts: Vec<_> = c.graph.adj.keys().copied().take(10).collect();",
        "let mut ids: Vec<_> = c.graph.adj.keys().copied().collect();\n    ids.sort_unstable();\n    \
         let starts: Vec<_> = ids.into_iter().take(10).collect();",
    );
    assert_clean(&analyze_source("examples", "examples/gnutella_crawl.rs", &sorted));
    // A root test file is all test code: `#[test]` bodies are linted.
    let test = format!("#[test]\nfn pins() {{\n{}\n}}\n", DET_ITER_POS);
    assert_fires(&analyze_source("tests", "tests/determinism.rs", &test), "det-iter");
}

#[test]
fn det_iter_sort_after_a_positional_cut_does_not_sanitize() {
    let src = r#"
use std::collections::HashMap;
pub struct S { pub m: HashMap<u32, u32> }
impl S {
    pub fn some_keys(&self) -> Vec<u32> {
        let mut ks: Vec<u32> = self.m.keys().copied().take(3).collect();
        ks.sort();
        ks
    }
}
"#;
    assert_fires(&analyze_source("gnutella", "src/fx.rs", src), "det-iter");
    let all = src.replace(".take(3)", "");
    assert_clean(&analyze_source("gnutella", "src/fx.rs", &all));
    let counted = "use std::collections::HashMap;\npub fn n(m: &HashMap<u32, u32>) -> usize \
                   { m.values().take(3).count() }\n";
    assert_fires(&analyze_source("gnutella", "src/fx.rs", counted), "det-iter");
}

// ---------------------------------------------------------------------------
// DET-CLOCK
// ---------------------------------------------------------------------------

const DET_CLOCK_POS: &str = r#"
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
"#;

#[test]
fn det_clock_fires_on_instant_now() {
    assert_fires(&analyze_source("dht", "src/fx.rs", DET_CLOCK_POS), "det-clock");
}

#[test]
fn det_clock_allowed_in_bench() {
    // pier-bench is the one crate that measures wall time on purpose.
    assert_clean(&analyze_source("bench", "src/fx.rs", DET_CLOCK_POS));
}

#[test]
fn det_clock_suppressed_by_justified_allow() {
    let src = r#"
pub fn stamp_ms() -> u64 {
    // pier-lint: allow(det-clock): value is logged, never branched on.
    let t = std::time::Instant::now();
    t.elapsed().as_millis() as u64
}
"#;
    let rep = analyze_source("dht", "src/fx.rs", src);
    assert_clean(&rep);
    assert_eq!(rep.allows_used.len(), 1);
}

// ---------------------------------------------------------------------------
// DET-ENTROPY
// ---------------------------------------------------------------------------

#[test]
fn det_entropy_fires_everywhere_even_bench() {
    let src = "pub fn roll() -> u64 { rand::thread_rng().gen() }\n";
    assert_fires(&analyze_source("bench", "src/fx.rs", src), "det-entropy");
}

#[test]
fn det_entropy_quiet_on_seeded_rng() {
    let src = "pub fn rng(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed) }\n";
    assert_clean(&analyze_source("gnutella", "src/fx.rs", src));
}

// ---------------------------------------------------------------------------
// SHARD-STATIC
// ---------------------------------------------------------------------------

#[test]
fn shard_static_fires_on_interior_mutable_static() {
    let src = "static CACHE: std::sync::Mutex<u64> = std::sync::Mutex::new(0);\n";
    assert_fires(&analyze_source("gnutella", "src/fx.rs", src), "shard-static");
}

#[test]
fn shard_static_fires_on_static_mut_and_thread_local() {
    let src = "static mut HITS: u64 = 0;\n";
    assert_fires(&analyze_source("dht", "src/fx.rs", src), "shard-static");
    let src = "thread_local! { static TLS: u64 = 0; }\n";
    assert_fires(&analyze_source("dht", "src/fx.rs", src), "shard-static");
}

#[test]
fn shard_static_quiet_on_immutable_static_and_registered_names() {
    assert_clean(&analyze_source("gnutella", "src/fx.rs", "static N: u64 = 5;\n"));
    // `TABLE` is vocab's registered interner; the config whitelists it.
    let src = "static TABLE: OnceLock<Interner> = OnceLock::new();\n";
    assert_clean(&analyze_source("vocab", "src/fx.rs", src));
}

#[test]
fn shard_static_suppressed_by_justified_allow() {
    let src = r#"
// pier-lint: allow(shard-static): write-once constant cache that all
// shards observe identically after first use.
static EMPTY2: OnceLock<u64> = OnceLock::new();
"#;
    let rep = analyze_source("gnutella", "src/fx.rs", src);
    assert_clean(&rep);
    assert_eq!(rep.allows_used.len(), 1);
}

// ---------------------------------------------------------------------------
// METRIC-RAW
// ---------------------------------------------------------------------------

#[test]
fn metric_raw_fires_outside_classes_module() {
    let src = "pub fn c() -> MetricClass { MetricClass::new(\"adhoc.metric\") }\n";
    assert_fires(&analyze_source("gnutella", "src/fx.rs", src), "metric-raw");
}

#[test]
fn metric_raw_allowed_inside_classes_module() {
    let src = "pub fn c() -> MetricClass { MetricClass::new(\"ok.metric\") }\n";
    assert_clean(&analyze_source("gnutella", "src/classes.rs", src));
}

// ---------------------------------------------------------------------------
// CAST-NARROW
// ---------------------------------------------------------------------------

#[test]
fn cast_narrow_fires_in_pinned_module() {
    let src = "pub fn off(len: usize) -> u32 { len as u32 }\n";
    assert_fires(&analyze_source("dht", "src/storage.rs", src), "cast-narrow");
}

#[test]
fn cast_narrow_scoped_to_pinned_paths_and_narrow_targets() {
    // Same cast elsewhere in the crate: not an arena index, not flagged.
    let src = "pub fn off(len: usize) -> u32 { len as u32 }\n";
    assert_clean(&analyze_source("dht", "src/fx.rs", src));
    // Widening cast in the pinned module: fine.
    let src = "pub fn wide(x: u32) -> u64 { x as u64 }\n";
    assert_clean(&analyze_source("dht", "src/storage.rs", src));
}

#[test]
fn cast_narrow_suppressed_by_justified_allow() {
    let src = r#"
pub fn off(len: usize) -> u32 {
    // pier-lint: allow(cast-narrow): bounded by MAX_SLOTS checked above.
    len as u32
}
"#;
    let rep = analyze_source("dht", "src/storage.rs", src);
    assert_clean(&rep);
    assert_eq!(rep.allows_used.len(), 1);
}

// ---------------------------------------------------------------------------
// UNSAFE-AUDIT
// ---------------------------------------------------------------------------

#[test]
fn unsafe_audit_fires_on_root_missing_forbid() {
    let rep = analyze_source("gnutella", "src/lib.rs", "pub fn f() {}\n");
    assert_fires(&rep, "unsafe-audit");
}

#[test]
fn unsafe_audit_quiet_with_forbid_attribute() {
    let rep = analyze_source("gnutella", "src/lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n");
    assert_clean(&rep);
}

#[test]
fn unsafe_audit_counts_unsafe_instead_of_demanding_forbid() {
    let rep = analyze_source("gnutella", "src/lib.rs", "pub unsafe fn f() {}\n");
    // A crate that really uses unsafe can't forbid it; the lint reports
    // the count instead of a finding.
    assert_clean(&rep);
    assert_eq!(rep.unsafe_counts.get("gnutella"), Some(&1));
}

// ---------------------------------------------------------------------------
// Annotation hygiene: bad-allow / unused-allow
// ---------------------------------------------------------------------------

#[test]
fn bad_allow_on_unknown_rule() {
    let src = "// pier-lint: allow(made-up-rule): some words of reason\npub fn f() {}\n";
    assert_fires(&analyze_source("gnutella", "src/fx.rs", src), "bad-allow");
}

#[test]
fn bad_allow_on_thin_reason() {
    let src = "// pier-lint: allow(det-clock): ok\npub fn f() {}\n";
    assert_fires(&analyze_source("gnutella", "src/fx.rs", src), "bad-allow");
}

#[test]
fn unused_allow_on_clean_line() {
    let src = "// pier-lint: allow(det-clock): nothing here needs this\npub fn f() {}\n";
    assert_fires(&analyze_source("gnutella", "src/fx.rs", src), "unused-allow");
}

#[test]
fn prose_mentioning_the_grammar_is_not_an_annotation() {
    let src = "//! Suppress with `pier-lint: allow(det-iter): <reason>` comments.\npub fn f() {}\n";
    assert_clean(&analyze_source("gnutella", "src/fx.rs", src));
}

// ---------------------------------------------------------------------------
// Seeded mutations: prove each pass fires when its bug class is injected
// into a fixture verified clean first.
// ---------------------------------------------------------------------------

const CLEAN_BASE: &str = r#"
use std::collections::HashMap;

pub struct S {
    pub m: HashMap<u32, u32>,
}

impl S {
    pub fn size(&self) -> usize {
        self.m.len()
    }
}
"#;

#[test]
fn seeded_mutations_are_each_caught() {
    assert_clean(&analyze_source("gnutella", "src/fx.rs", CLEAN_BASE));

    let mutations: &[(&str, &str)] = &[
        ("let _rng = rand::thread_rng();", "det-entropy"),
        ("let _t0 = std::time::Instant::now();", "det-clock"),
        ("for k in s.m.keys() { let _ = k; }", "det-iter"),
        ("let _c = MetricClass::new(\"mutant.metric\");", "metric-raw"),
    ];
    for (mutation, rule) in mutations {
        let src = format!("{CLEAN_BASE}\npub fn mutated(s: &S) {{\n    {mutation}\n}}\n");
        let rep = analyze_source("gnutella", "src/fx.rs", &src);
        assert_fires(&rep, rule);
        assert_eq!(
            rep.findings.len(),
            1,
            "mutation {mutation:?} should add exactly one finding:\n{}",
            rep.render_text()
        );
    }

    // Item-level mutations (statics) and path-scoped ones (casts).
    let src = format!("{CLEAN_BASE}\nstatic MUT_CACHE: RefCell<u64> = RefCell::new(0);\n");
    assert_fires(&analyze_source("gnutella", "src/fx.rs", &src), "shard-static");

    let base = "pub fn off(len: usize) -> u64 { len as u64 }\n";
    assert_clean(&analyze_source("dht", "src/storage.rs", base));
    let src = base.replace("u64", "u16");
    assert_fires(&analyze_source("dht", "src/storage.rs", &src), "cast-narrow");
}
