//! Every `static` item in the workspace, pinned by name. A static outlives
//! one simulation and is shared by every kernel shard, so each one must be
//! a constant or a write-once, content-addressed table that no shard can
//! observe differently. Clippy cannot tell such a static from a mutable
//! one (`thread_local!` is banned in `clippy.toml`, `static mut` by
//! `forbid(unsafe_code)`), so a new static fails here until it is listed
//! with its reason.

use std::collections::BTreeSet;
use std::path::Path;

/// `(name, why every shard sees the same value)`.
const ALLOWED: [(&str, &str); 6] = [
    ("$name", "metric_classes!: a class id is interned once per name, never by shard"),
    ("REGISTRY", "netsim's metric-class interner: names map to ids, ids are never iterated"),
    ("TABLE", "vocab's term interner: text maps to id, ids are never put on a wire"),
    ("EMPTY", "gnutella's shared empty FileStore: written once, a constant"),
    ("EXPERIMENTS", "bench's experiment table: immutable"),
    ("LAZY", "netsim's test of lazy class registration"),
];

fn collect(dir: &Path, found: &mut BTreeSet<(String, String)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect(&path, found);
        } else if path.extension().is_some_and(|e| e == "rs") {
            for line in std::fs::read_to_string(&path).unwrap().lines() {
                let mut words = line
                    .split_whitespace()
                    .skip_while(|w| w.starts_with("pub") || w.starts_with('$'));
                if words.next() == Some("static") {
                    let name = words.find(|w| *w != "mut").unwrap_or_default();
                    let name = name.trim_end_matches(':').to_string();
                    found.insert((name, path.display().to_string()));
                }
            }
        }
    }
}

#[test]
fn every_static_is_listed_with_its_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = BTreeSet::new();
    for dir in ["src", "examples", "tests"] {
        collect(&root.join(dir), &mut found);
    }
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        collect(&krate.unwrap().path().join("src"), &mut found);
    }
    let names: BTreeSet<&str> = found.iter().map(|(name, _)| name.as_str()).collect();
    let allowed: BTreeSet<&str> = ALLOWED.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, allowed, "statics found (name, file): {found:#?}");
}
