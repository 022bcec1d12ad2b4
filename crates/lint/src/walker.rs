//! Workspace discovery: which files to lint and how to classify them.
//!
//! The walk covers the root crate's `src/` and every `crates/*/src` — the
//! same set the workspace compiles as library/binary code. `tests/`,
//! `benches/` and `examples/` trees are intentionally out of scope:
//! fixture files must never be linted as product code.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{FileKind, FileOpts};

/// One file scheduled for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the walk root (slash-separated for stable output).
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Rule-scoping classification.
    pub opts: FileOpts,
}

/// Walks `root` (a workspace checkout) and returns every lintable Rust
/// source file, sorted by relative path.
///
/// # Errors
///
/// Returns [`io::Error`] when a directory listed for the walk cannot be
/// read. A missing `crates/` or `src/` directory is not an error — the
/// walk just covers what exists.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        collect(&src, root, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            let member_src = member.join("src");
            if member_src.is_dir() {
                collect(&member_src, root, &mut files)?;
            }
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// Recursively collects `.rs` files under `dir`.
fn collect(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel_path = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                opts: classify(&rel_path),
                abs_path: path,
                rel_path,
            });
        }
    }
    Ok(())
}

/// Classifies a file by its workspace-relative path.
pub fn classify(rel_path: &str) -> FileOpts {
    let is_bin = rel_path.split('/').any(|c| c == "bin") || rel_path.ends_with("/main.rs");
    FileOpts {
        kind: if is_bin {
            FileKind::Binary
        } else {
            FileKind::Library
        },
        // Request handlers run on a bounded worker pool with per-request
        // deadlines; R7 bans blocking primitives there.
        handler: rel_path.starts_with("crates/serve/src/"),
        // Job/engine code runs under cooperative cancellation; R10
        // requires its model-evaluating loops to poll.
        job: rel_path.starts_with("crates/jobs/src/") || rel_path.starts_with("crates/fleet/src/"),
    }
}

/// Finds the workspace root by walking up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        let lib = classify("crates/core/src/units.rs");
        assert_eq!(lib.kind, FileKind::Library);
        assert!(!lib.handler);

        let serve = classify("crates/serve/src/service.rs");
        assert_eq!(serve.kind, FileKind::Library);
        assert!(serve.handler);
        assert!(!serve.job);

        let jobs = classify("crates/jobs/src/pool.rs");
        assert!(jobs.job);
        assert!(!jobs.handler);

        let fleet = classify("crates/fleet/src/engine.rs");
        assert!(fleet.job);

        let bin = classify("crates/bench/src/bin/fig03_ras_sweep.rs");
        assert_eq!(bin.kind, FileKind::Binary);

        let cli = classify("src/bin/relia.rs");
        assert_eq!(cli.kind, FileKind::Binary);

        let main = classify("crates/lint/src/main.rs");
        assert_eq!(main.kind, FileKind::Binary);
    }

    #[test]
    fn discovers_this_workspace() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("lint crate lives in the workspace");
        let files = discover(&root).expect("walk succeeds");
        assert!(files
            .iter()
            .any(|f| f.rel_path == "crates/core/src/units.rs"));
        assert!(files.iter().any(|f| f.rel_path == "src/lib.rs"));
        // Sorted and free of non-source trees.
        assert!(files.windows(2).all(|w| w[0].rel_path < w[1].rel_path));
        assert!(files.iter().all(|f| !f.rel_path.contains("tests/")));
        assert!(files.iter().all(|f| !f.rel_path.contains("target/")));
    }
}
