//! The header every file under `benchmark/out/` carries, so any two result
//! files can be told apart and compared meaningfully, and the few places
//! the benchmark touches the file system.

use crate::json::{obj, Json};
use crate::workloads;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Bumped whenever the layout of a result or trace file changes.
pub const SCHEMA_VERSION: u64 = 1;

/// The repository root: the benchmark package's parent directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("package has a parent").to_path_buf()
}

pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).lines().next().map(str::to_string))?
}

/// The commit of the checkout, when it is a git repository (the driver's
/// checkouts are not: they read "unknown").
fn commit() -> String {
    let root = repo_root();
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    first_line_of(Command::new("git").arg("-C").arg(&root).args(["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn manifest(seed: u64, smoke: bool, names: &[&str]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("schema_version", SCHEMA_VERSION.into()),
        ("commit", commit().into()),
        ("seed", seed.into()),
        ("smoke", smoke.into()),
        ("nproc", nproc.into()),
        (
            "rustc",
            first_line_of(Command::new("rustc").arg("--version"))
                .unwrap_or_else(|| "unknown".to_string())
                .into(),
        ),
        (
            "workload_parameters",
            Json::Obj(
                names.iter().map(|n| (n.to_string(), workloads::params_json(n, smoke))).collect(),
            ),
        ),
    ])
}
