//! Workspace traversal: finds and reads every `.rs` file the rules should
//! see.
//!
//! The walk is sorted at every level so the diagnostic stream is
//! byte-identical run to run — the linter holds itself to the same
//! determinism bar it enforces.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];

/// Collects all `.rs` files under `root` with their contents,
/// workspace-relative with forward slashes, sorted by path. `vendor/` is
/// included: the `forbid-unsafe` rule covers the shim crates too (content
/// rules scope themselves to `crates/…` paths, so vendor code is
/// otherwise untouched).
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    paths
        .into_iter()
        .map(|rel| {
            let text = fs::read_to_string(root.join(&rel))?;
            Ok((rel, text))
        })
        .collect()
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// The workspace root when running via `cargo run -p hmd-analyze`:
/// two levels up from this crate's manifest.
pub fn default_root() -> PathBuf {
    let manifest = env!("CARGO_MANIFEST_DIR");
    Path::new(manifest)
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_workspace_walk_is_sorted_and_nonempty() {
        let files = collect_rust_files(&default_root()).expect("workspace is readable");
        assert!(
            files.len() > 20,
            "expected a real workspace, got {} files",
            files.len()
        );
        let paths: Vec<&String> = files.iter().map(|(p, _)| p).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
        assert!(paths.iter().any(|p| p.as_str() == "crates/core/src/lib.rs"));
        assert!(paths.iter().any(|p| p.starts_with("vendor/")));
        assert!(!paths.iter().any(|p| p.contains("target/")));
    }
}
