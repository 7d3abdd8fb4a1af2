#![forbid(unsafe_code)]
//! `pier-lint` — workspace determinism & shard-safety static analysis.
//!
//! The whole value of this reproduction rests on bit-identical
//! determinism: golden pins in `tests/determinism.rs`, shard-count
//! independence (PR 6), jobs-independence (PR 3). The bug class that
//! threatens it — unordered iteration, ambient clocks/entropy,
//! process-wide mutable statics, silent narrowing casts in arena code —
//! kept being caught by hand-audit luck (PR 3, PR 4). This crate catches
//! it mechanically at CI time.
//!
//! The analyzer is a source-level, token-stream pass over every
//! `crates/*/src` file (and, for DET-ITER, every `examples/` and root
//! `tests/` file), built on its own small comment/string/raw-string
//! aware lexer ([`lexer`]) — the build environment is offline (no `syn`),
//! matching how `vendor/serde_derive` hand-rolls its parsing. The lint
//! catalog and the per-crate sets live in [`config`]; suppressions are
//! inline `// pier-lint: allow(<rule>): <reason>` annotations
//! ([`annotations`]) whose reasons are mandatory and whose staleness is
//! itself a finding.
//!
//! Run it as `cargo run -p pier-lint -- [--deny] [--json]`, or from tests
//! via [`analyze_workspace`].

pub mod annotations;
pub mod config;
pub mod lexer;
pub mod passes;
pub mod report;

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use config::CrateRules;
use passes::FileCtx;
use report::{Finding, Report, Rule};

/// One source file presented to the analyzer (in-memory so tests can
/// feed fixtures without touching disk).
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Crate directory name under `crates/` (e.g. `gnutella`), or a
    /// [`config::ROOT_DIRS`] name for a file under the workspace root.
    pub crate_dir: String,
    /// Crate-relative path (e.g. `src/ultrapeer.rs`); for a root
    /// directory's file, workspace-relative (`examples/gnutella_crawl.rs`).
    pub rel_path: String,
    pub src: String,
}

impl SourceFile {
    pub fn new(crate_dir: &str, rel_path: &str, src: &str) -> Self {
        SourceFile {
            crate_dir: crate_dir.to_string(),
            rel_path: rel_path.to_string(),
            src: src.to_string(),
        }
    }

    /// Is this file under a workspace-root directory, not a crate?
    fn in_root_dir(&self) -> bool {
        config::ROOT_DIRS.contains(&self.crate_dir.as_str())
    }

    fn workspace_path(&self) -> String {
        if self.in_root_dir() {
            self.rel_path.clone()
        } else {
            format!("crates/{}/{}", self.crate_dir, self.rel_path)
        }
    }

    /// Crate root files must carry `#![forbid(unsafe_code)]` when the
    /// crate has no unsafe: the lib root plus every bin root.
    fn is_crate_root(&self) -> bool {
        self.rel_path == "src/lib.rs"
            || self.rel_path == "src/main.rs"
            || (self.rel_path.starts_with("src/bin/") && self.rel_path.ends_with(".rs"))
    }
}

/// Analyze a set of files under a rules map. This is the whole pipeline:
/// lex → test-mask → annotations → per-file passes → workspace passes
/// (UNSAFE-AUDIT, unused/malformed annotations).
pub fn analyze_files(
    files: &[SourceFile],
    rules_map: &BTreeMap<&'static str, CrateRules>,
) -> Report {
    // A crate missing from the config gets the strictest rule set: new
    // crates are linted hard until someone names their lint set.
    let strictest = CrateRules {
        det_iter: true,
        det_clock: true,
        det_clock_allow_paths: &[],
        det_entropy: true,
        shard_static: true,
        metric_raw: true,
        cast_narrow_paths: &[],
        shard_static_allow: &[],
    };

    let mut rep = Report::default();
    // crate -> (unsafe count, roots missing the forbid attribute).
    let mut per_crate: BTreeMap<String, (usize, Vec<(String, bool)>)> = BTreeMap::new();

    for f in files {
        let rules = rules_map.get(f.crate_dir.as_str()).unwrap_or(&strictest);
        let lexed = lexer::lex(&f.src);
        // A root `tests/` file is all test code, and checking it is the
        // point: nothing there is masked.
        let mask = if f.in_root_dir() {
            vec![false; lexed.toks.len()]
        } else {
            lexer::test_mask(&lexed.toks)
        };
        let mut ann = annotations::parse(&lexed.comments);
        ann.resolve_targets(&lexed.toks);

        let path = f.workspace_path();
        let ctx = FileCtx {
            crate_dir: &f.crate_dir,
            path: &path,
            rel_path: &f.rel_path,
            toks: &lexed.toks,
            mask: &mask,
        };
        passes::run_all(&ctx, rules, &mut ann, &mut rep.findings);

        // Annotation hygiene.
        for (line, problem) in &ann.malformed {
            rep.findings.push(Finding {
                rule: Rule::BadAllow,
                path: path.clone(),
                line: *line,
                msg: problem.clone(),
            });
        }
        for a in &ann.allows {
            if a.used {
                rep.allows_used.push((path.clone(), a.line, a.rule, a.reason.clone()));
            } else {
                rep.findings.push(Finding {
                    rule: Rule::UnusedAllow,
                    path: path.clone(),
                    line: a.line,
                    msg: format!(
                        "allow({}) suppresses nothing here; remove it (stale \
                         suppressions hide future regressions)",
                        a.rule.id()
                    ),
                });
            }
        }

        // UNSAFE-AUDIT bookkeeping.
        let entry = per_crate.entry(f.crate_dir.clone()).or_default();
        entry.0 += passes::count_unsafe(&lexed.toks);
        if f.is_crate_root() {
            entry.1.push((path.clone(), passes::has_forbid_unsafe(&lexed.toks)));
        }
        rep.files_scanned += 1;
    }

    // UNSAFE-AUDIT: a crate with zero unsafe must pin that down with
    // `#![forbid(unsafe_code)]` on every crate root, so future unsafe
    // requires an explicit, reviewed opt-out.
    for (krate, (count, roots)) in &per_crate {
        rep.unsafe_counts.insert(krate.clone(), *count);
        if *count == 0 {
            for (root_path, has_forbid) in roots {
                if !has_forbid {
                    rep.findings.push(Finding {
                        rule: Rule::UnsafeAudit,
                        path: root_path.clone(),
                        line: 1,
                        msg: format!(
                            "crate `{krate}` contains no unsafe code but this crate \
                             root lacks `#![forbid(unsafe_code)]`"
                        ),
                    });
                }
            }
        }
    }

    rep.sort();
    rep
}

/// Convenience for fixture tests: analyze one in-memory file under the
/// workspace rules for `crate_dir`.
pub fn analyze_source(crate_dir: &str, rel_path: &str, src: &str) -> Report {
    analyze_files(&[SourceFile::new(crate_dir, rel_path, src)], &config::workspace_rules())
}

/// Walk `<root>/crates/*/src/**/*.rs` and `<root>/{examples,tests}/**/*.rs`
/// and analyze everything under the workspace rules. `root` is the
/// workspace root (the directory holding `crates/`). File order is sorted,
/// so reports are byte-stable.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    crate_dirs.sort();
    for crate_dir in &crate_dirs {
        collect_files(&crates_dir.join(crate_dir), "src", crate_dir, &mut files)?;
    }
    for dir in config::ROOT_DIRS {
        collect_files(root, dir, dir, &mut files)?;
    }
    Ok(analyze_files(&files, &config::workspace_rules()))
}

/// Read every `.rs` file under `<base>/<sub>` (if it exists) as
/// `crate_dir`'s, with `rel_path` relative to `base`, in sorted order.
fn collect_files(
    base: &Path,
    sub: &str,
    crate_dir: &str,
    files: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let dir = base.join(sub);
    if !dir.is_dir() {
        return Ok(());
    }
    let mut paths = Vec::new();
    collect_rs(&dir, &mut paths)?;
    paths.sort();
    for p in paths {
        let rel = p.strip_prefix(base).expect("collected under base");
        files.push(SourceFile {
            crate_dir: crate_dir.to_string(),
            rel_path: rel.to_string_lossy().replace('\\', "/"),
            src: std::fs::read_to_string(&p)?,
        });
    }
    Ok(())
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Locate the workspace root from a crate's manifest dir (used by the
/// bin and the tier-1 test; `crates/lint` → two levels up).
pub fn workspace_root_from(manifest_dir: &str) -> std::path::PathBuf {
    Path::new(manifest_dir)
        .join("..")
        .join("..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(manifest_dir).join("..").join(".."))
}
