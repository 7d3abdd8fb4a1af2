//! The vendored proptest reads a string literal as a regex-shaped
//! generator, and implements only part of regex syntax. What it does not
//! implement must panic at generation: read as literal text, a pattern
//! would silently test less than it says. This feeds the generator every
//! pattern the workspace's property tests use, found by scanning their
//! sources, and checks that each unsupported form is refused.

use proptest::{Strategy, TestRng};
use std::path::{Path, PathBuf};

/// The `.rs` files under `dir` and its subdirectories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for path in entries.map(|e| e.expect("readable directory").path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The string literal that starts at `src[start]` (just past its opening
/// quote), unescaped.
fn literal_at(src: &str, start: usize) -> String {
    let mut out = String::new();
    let mut chars = src[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return out,
            '\\' => out.push(chars.next().expect("escape inside a literal")),
            c => out.push(c),
        }
    }
    panic!("unterminated literal")
}

/// Every string literal used as a strategy in `src`: after `in `, as the
/// element of `vec(`, or mapped with `.prop_map`.
fn patterns_in(src: &str) -> Vec<String> {
    let mut found = Vec::new();
    for marker in ["in \"", "vec(\""] {
        found.extend(src.match_indices(marker).map(|(i, _)| literal_at(src, i + marker.len())));
    }
    for (end, _) in src.match_indices("\".prop_map(") {
        let open = src[..end].rfind('"').expect("an opening quote");
        found.push(literal_at(src, open + 1));
    }
    found
}

fn workspace_patterns() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("tests"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("readable crates/").path();
        rust_files(&krate.join("src"), &mut files);
        rust_files(&krate.join("tests"), &mut files);
    }
    let this = root.join(file!());
    let mut found: Vec<String> = files
        .iter()
        .filter(|f| **f != this)
        .map(|f| std::fs::read_to_string(f).expect("readable source"))
        .filter(|src| src.contains("proptest"))
        .flat_map(|src| patterns_in(&src))
        .collect();
    found.sort();
    found.dedup();
    found
}

fn generate(pattern: &str, seed: u64) -> String {
    let pattern: &'static str = pattern.to_string().leak();
    pattern.generate(&mut TestRng::from_seed(seed))
}

#[test]
fn every_pattern_the_workspace_uses_generates() {
    let found = workspace_patterns();
    for known in ["[a-d]{0,3}", "[a-h][0-9]", "[a-z0-9_ .]{0,12}"] {
        assert!(found.iter().any(|p| p == known), "the scan misses {known:?}: {found:?}");
    }
    for pattern in &found {
        for seed in 0..64 {
            generate(pattern, seed);
        }
    }
}

#[test]
fn supported_syntax_generates_what_it_says() {
    for seed in 0..64 {
        let s = generate("[a-c]x{2}\\.[0-1]?", seed);
        assert!(s.len() == 4 || s.len() == 5, "{s:?}");
        assert!(s.starts_with(['a', 'b', 'c']) && s[1..].starts_with("xx."), "{s:?}");
        assert!(s[4..].chars().all(|c| c == '0' || c == '1'), "{s:?}");
    }
}

#[test]
fn unsupported_syntax_panics_at_generation() {
    // Space-separated: groups and alternation, `.`, anchors, class
    // escapes, negated / empty / unclosed classes, an escape in a class,
    // quantifiers with nothing to repeat, bad `{}` bounds, and a trailing
    // backslash.
    let unsupported = [
        "(mp3|avi) a|b a) a.b ^a a$ \\d{2} \\w+ \\PC* [^a] [] [a-z [\\d]",
        "*a a{2}? a+* a{,3} a{x} a{3,1} x\\",
    ];
    for pattern in unsupported.iter().flat_map(|s| s.split(' ')) {
        let refused = std::panic::catch_unwind(|| generate(pattern, 0));
        assert!(refused.is_err(), "{pattern:?} generated {:?}", refused.unwrap());
    }
}
