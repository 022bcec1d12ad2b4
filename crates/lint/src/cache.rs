//! The `.lint-cache` manifest behind `relia lint --incremental`.
//!
//! Incremental mode must not change what the linter reports, only what it
//! re-reads. Two properties make the skip sound:
//!
//! 1. **Only clean files are cached.** A file enters the manifest only
//!    when its per-file diagnostics were empty, so skipping it can never
//!    hide a finding — a file with findings is re-analyzed every run
//!    until it is fixed.
//! 2. **Workspace rules are recomputed every run.** The manifest stores
//!    each clean file's [`FileSummary`] (lock-nesting edges + deferred
//!    `allow(lock-order-inversion)` pragmas) verbatim, so the R9 lock
//!    graph sees exactly what a full analysis would have produced.
//!
//! The manifest is a line-oriented text file, committed to the repo so a
//! fresh checkout starts warm:
//!
//! ```text
//! relia-lint-cache v1
//! file <rel_path> <fnv1a64-hex>
//! edge <first> <second> <first_line> <second_line>
//! defer <pragma_line> <target_line> <used 0|1>
//! ```
//!
//! `edge`/`defer` lines belong to the most recent `file` line. Any parse
//! problem — missing header, wrong version, malformed line — discards the
//! whole cache and the run degrades to a full lint: a corrupt manifest
//! costs time, never correctness. Bump the version string whenever rule
//! semantics change so stale manifests self-invalidate.

use crate::graph::{FileSummary, LockEdge};
use crate::pragma::DeferredAllow;
use relia_core::seal::write_atomic;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Manifest header; the version suffix invalidates caches across rule
/// changes.
const HEADER: &str = "relia-lint-cache v1";

/// Name of the manifest file at the workspace root.
pub const CACHE_FILE: &str = ".lint-cache";

/// One cached file: its content hash and workspace-rule inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// FNV-1a 64 hash of the file's bytes ([`relia_core::seal::fnv1a`]).
    pub hash: u64,
    /// The file's contribution to workspace-level rules.
    pub summary: FileSummary,
}

/// Loads the manifest at `path`. Returns `None` — degrade to a full lint
/// — when the file is missing, unreadable, or malformed in any way.
pub fn load(path: &Path) -> Option<BTreeMap<String, CacheEntry>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    if lines.next()? != HEADER {
        return None;
    }
    let mut entries = BTreeMap::new();
    let mut current: Option<(String, CacheEntry)> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split(' ');
        match parts.next()? {
            "file" => {
                if let Some((name, entry)) = current.take() {
                    entries.insert(name, entry);
                }
                let name = parts.next()?.to_owned();
                let hash = u64::from_str_radix(parts.next()?, 16).ok()?;
                if parts.next().is_some() {
                    return None;
                }
                current = Some((
                    name,
                    CacheEntry {
                        hash,
                        summary: FileSummary::default(),
                    },
                ));
            }
            "edge" => {
                let entry = &mut current.as_mut()?.1;
                entry.summary.edges.push(LockEdge {
                    first: parts.next()?.to_owned(),
                    second: parts.next()?.to_owned(),
                    first_line: parts.next()?.parse().ok()?,
                    second_line: parts.next()?.parse().ok()?,
                });
                if parts.next().is_some() {
                    return None;
                }
            }
            "defer" => {
                let entry = &mut current.as_mut()?.1;
                entry.summary.deferred_allows.push(DeferredAllow {
                    line: parts.next()?.parse().ok()?,
                    target_line: parts.next()?.parse().ok()?,
                    used: match parts.next()? {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    },
                });
                if parts.next().is_some() {
                    return None;
                }
            }
            _ => return None,
        }
    }
    if let Some((name, entry)) = current.take() {
        entries.insert(name, entry);
    }
    Some(entries)
}

/// Serializes `entries` to the manifest text form (sorted by path — the
/// map's iteration order — so the committed file diffs cleanly).
pub fn render(entries: &BTreeMap<String, CacheEntry>) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for (name, e) in entries {
        let _ = writeln!(out, "file {} {:016x}", name, e.hash);
        for edge in &e.summary.edges {
            let _ = writeln!(
                out,
                "edge {} {} {} {}",
                edge.first, edge.second, edge.first_line, edge.second_line
            );
        }
        for d in &e.summary.deferred_allows {
            let _ = writeln!(
                out,
                "defer {} {} {}",
                d.line,
                d.target_line,
                u8::from(d.used)
            );
        }
    }
    out
}

/// Writes the manifest to `path` atomically, so an interrupted write can
/// never leave a torn manifest behind.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn save(path: &Path, entries: &BTreeMap<String, CacheEntry>) -> io::Result<()> {
    write_atomic(path, render(entries).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BTreeMap<String, CacheEntry> {
        let mut m = BTreeMap::new();
        m.insert(
            "crates/a/src/lib.rs".to_owned(),
            CacheEntry {
                hash: 0xdead_beef_0123_4567,
                summary: FileSummary {
                    edges: vec![LockEdge {
                        first: "slow".into(),
                        second: "stats".into(),
                        first_line: 3,
                        second_line: 4,
                    }],
                    deferred_allows: vec![DeferredAllow {
                        line: 9,
                        target_line: 10,
                        used: false,
                    }],
                },
            },
        );
        m.insert(
            "src/lib.rs".to_owned(),
            CacheEntry {
                hash: 1,
                summary: FileSummary::default(),
            },
        );
        m
    }

    #[test]
    fn round_trips() {
        let entries = sample();
        let text = render(&entries);
        let dir = std::env::temp_dir().join(format!("lint-cache-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CACHE_FILE);
        std::fs::write(&path, &text).unwrap();
        let loaded = load(&path).expect("cache parses");
        assert_eq!(loaded, entries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_degrades_to_none() {
        let entries = sample();
        let base = render(&entries);
        let dir = std::env::temp_dir().join(format!("lint-cache-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CACHE_FILE);
        for bad in [
            "".to_owned(),
            "relia-lint-cache v0\n".to_owned(),
            base.replace("edge", "wedge"),
            base.replace("file ", "file extra "),
            base.replacen(HEADER, "not-a-header", 1),
        ] {
            std::fs::write(&path, &bad).unwrap();
            assert!(load(&path).is_none(), "accepted corrupt cache: {bad:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_none() {
        assert!(load(Path::new("/nonexistent/.lint-cache")).is_none());
    }
}
