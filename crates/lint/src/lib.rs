#![forbid(unsafe_code)]
//! # relia-lint
//!
//! An offline, std-only static analyzer for the relia workspace's
//! physical-unit and reliability invariants. The paper's model is a
//! minefield of silently confusable scalars — kelvin vs. celsius, stress
//! seconds vs. wall seconds, duty cycles vs. RAS ratios — and the serving
//! tier layered on top adds the concurrency hazards (held guards, lock
//! ordering, unpollable loops, leaking gauges) that corrupt results
//! *operationally* instead. These rules, which no compiler lint can
//! express, turn both classes into build failures:
//!
//! * **R1 `unit-leak`** — unit-named `pub fn` parameters or struct fields
//!   (`temp*`, `t_active`, `t_standby`, `*_k`, `duration`, `period`,
//!   `lifetime`) typed as bare `f64` instead of `Kelvin`/`Seconds`.
//! * **R3 `float-eq`** — `==`/`!=` against a non-zero float literal.
//! * **R6 `celsius-kelvin`** — a literal in (0, 150] wrapped directly in
//!   `Kelvin(...)`: 85 K is cryogenic, 85 °C is a die temperature.
//! * **R7 `blocking-in-handler`** — `thread::sleep` or unbounded
//!   `.read_to_end(` in request-handler library code (`crates/serve/src/`):
//!   a blocked handler pins a worker-pool slot and defeats the server's
//!   deadline and backpressure design.
//! * **R8 `guard-across-blocking`** — a live lock guard spans
//!   `thread::sleep`, socket/channel I/O, or a cold model evaluation
//!   ([`flow`]).
//! * **R9 `lock-order-inversion`** — two locks acquired in opposite
//!   nesting order anywhere in the workspace; both sites are reported
//!   ([`graph`]).
//! * **R10 `unpolled-loop`** — a handler/job loop evaluates the model
//!   without polling a `CancelToken`/`Deadline` ([`flow`]).
//! * **R11 `counter-leak`** — a metrics gauge incremented on an entry
//!   path with an early `return` before the decrement/handoff ([`flow`]).
//!
//! Violations are suppressed per line with
//! `// relia-lint: allow(rule-id)` — trailing on the offending line, or
//! standalone on the line above it. A pragma that suppresses nothing is
//! itself an error (`stale-allow`), so allows cannot outlive their reason.
//!
//! Panics and prints in library code, and `unsafe` anywhere, are the
//! compiler's to catch: the workspace `Cargo.toml` sets clippy's
//! `unwrap_used`, `expect_used`, `print_stdout` and `print_stderr` and
//! rustc's `unsafe_code`, and a justified site carries
//! `#[expect(clippy::expect_used, reason = "...")]`. The aliases R2, R4 and
//! R5 named this crate's copies of those lints and are not reused.
//!
//! ## Pipeline
//!
//! ```text
//! lexer → scope tracker → per-file rules (R1, R3, R6–R8, R10, R11) ┐
//!                       → lock edges + deferred pragmas ───────────┴→ finish():
//!                                         workspace lock graph (R9) + pragma audit
//! ```
//!
//! Per-file analysis ([`analyze_source`]) is pure in the file's content
//! and classification, which is what makes `--jobs N` (same results in
//! discovery order, any worker count) sound. Workspace rules run in
//! [`finish`] over every file's [`graph::FileSummary`].
//!
//! The analyzer is a hand-rolled lexer plus token-stream rules — no
//! rustc internals, no syn, no network — so it runs identically offline
//! and in CI. Its front end is `relia lint`.

pub mod diag;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod pragma;
pub mod rules;
pub mod scope;
pub mod walker;

use std::path::Path;

pub use diag::Diagnostic;
pub use rules::{FileKind, FileOpts, RULES};

/// Everything one file contributes: its own findings plus its inputs to
/// the workspace-level rules.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    /// Per-file diagnostics, pragma-filtered and sorted.
    pub diags: Vec<Diagnostic>,
    /// Lock edges and deferred pragmas for the workspace pass.
    pub summary: graph::FileSummary,
}

/// Analyzes one in-memory source file: lex, scope-track, run every
/// per-file rule, apply pragmas. Pure in `(file, source, opts)`.
pub fn analyze_source(file: &str, source: &str, opts: &FileOpts) -> FileAnalysis {
    let lexed = lexer::lex(source);
    let scopes = scope::analyze(&lexed);
    let (mut pragmas, mut diags) = pragma::parse(file, &lexed);
    let mut violations = rules::check(file, &lexed, opts);
    violations.extend(flow::check(file, &lexed, &scopes, opts));
    let (kept, deferred_allows) = pragma::apply_deferring(file, &mut pragmas, violations);
    diags.extend(kept);
    diag::sort(&mut diags);
    FileAnalysis {
        diags,
        summary: graph::FileSummary {
            edges: flow::lock_edges(&lexed, &scopes, opts),
            deferred_allows,
        },
    }
}

/// Combines per-file analyses into the final report: concatenates file
/// diagnostics, runs the workspace lock graph (R9), applies deferred
/// `allow(lock-order-inversion)` pragmas, and reports the stale ones.
pub fn finish(files: Vec<(String, FileAnalysis)>) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut summaries: Vec<(String, graph::FileSummary)> = Vec::with_capacity(files.len());
    for (name, analysis) in files {
        diags.extend(analysis.diags);
        summaries.push((name, analysis.summary));
    }
    let r9 = graph::check(&summaries);
    for d in r9 {
        let allow = summaries
            .iter_mut()
            .find(|(name, _)| *name == d.file)
            .and_then(|(_, s)| {
                s.deferred_allows
                    .iter_mut()
                    .find(|a| a.target_line == d.line)
            });
        match allow {
            Some(a) => a.used = true,
            None => diags.push(d),
        }
    }
    for (name, s) in &summaries {
        for a in s.deferred_allows.iter().filter(|a| !a.used) {
            diags.push(Diagnostic {
                file: name.clone(),
                line: a.line,
                col: 1,
                rule: "stale-allow",
                message: format!(
                    "allow({}) suppresses nothing — remove the pragma or the fix that \
                     outlived it",
                    pragma::DEFERRED_RULE
                ),
            });
        }
    }
    diag::sort(&mut diags);
    diags
}

/// Lints a set of in-memory sources as one workspace — per-file rules
/// plus the cross-file lock graph. The unit the multi-file fixture tests
/// drive.
pub fn lint_sources(files: &[(&str, &str, FileOpts)]) -> Vec<Diagnostic> {
    finish(
        files
            .iter()
            .map(|(name, source, opts)| ((*name).to_owned(), analyze_source(name, source, opts)))
            .collect(),
    )
}

/// Lints one in-memory source file through the full pipeline (the
/// workspace pass sees a single file). This is the unit the fixture
/// self-tests drive.
pub fn lint_source(file: &str, source: &str, opts: &FileOpts) -> Vec<Diagnostic> {
    finish(vec![(file.to_owned(), analyze_source(file, source, opts))])
}

/// Lints every workspace source file under `root` on `jobs` worker
/// threads (at least one), returning the sorted diagnostics. The output is
/// identical for every worker count.
///
/// # Errors
///
/// Returns an error string when the walk, a file read or a lint worker
/// fails — an I/O problem, not a lint finding.
pub fn lint_workspace(root: &Path, jobs: usize) -> Result<Vec<Diagnostic>, String> {
    let files = walker::discover(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let analyze_one = |f: &walker::SourceFile| -> Result<FileAnalysis, String> {
        let source = std::fs::read_to_string(&f.abs_path)
            .map_err(|e| format!("reading {}: {e}", f.abs_path.display()))?;
        Ok(analyze_source(&f.rel_path, &source, &f.opts))
    };

    // `run_ordered` returns outcomes in job (= discovery) order for any
    // worker count, which keeps `--jobs N` output byte-identical to
    // `--jobs 1`.
    let outcomes = relia_jobs::run_ordered(&files, jobs, |_, f| analyze_one(f));
    let mut analyses = Vec::with_capacity(files.len());
    for (f, outcome) in files.iter().zip(outcomes) {
        analyses.push((f.rel_path.clone(), outcome.into_result()??));
    }
    Ok(finish(analyses))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: FileOpts = FileOpts {
        kind: FileKind::Library,
        handler: false,
        job: false,
    };

    #[test]
    fn lint_source_ties_rules_to_pragmas() {
        let src = "fn f() {\n    Kelvin(85.0); // relia-lint: allow(R6)\n    Kelvin(85.0);\n}\n";
        let diags = lint_source("f.rs", src, &LIB);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn lint_sources_catches_cross_file_inversion() {
        let a = "pub fn f(s: &S) {\n let g = s.alpha.lock();\n let h = s.beta.lock();\n}\n";
        let b = "pub fn g(s: &S) {\n let h = s.beta.lock();\n let g = s.alpha.lock();\n}\n";
        let diags = lint_sources(&[("a.rs", a, LIB), ("b.rs", b, LIB)]);
        let r9: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "lock-order-inversion")
            .collect();
        assert_eq!(r9.len(), 2, "{diags:?}");
        assert_eq!((r9[0].file.as_str(), r9[0].line), ("a.rs", 3));
        assert_eq!((r9[1].file.as_str(), r9[1].line), ("b.rs", 3));
        assert!(r9[0].message.contains("b.rs:3"), "{}", r9[0].message);
    }

    #[test]
    fn deferred_allows_suppress_r9_and_go_stale_without_it() {
        let a = "pub fn f(s: &S) {\n let g = s.alpha.lock();\n let h = s.beta.lock(); // relia-lint: allow(lock-order-inversion)\n}\n";
        let b = "pub fn g(s: &S) {\n let h = s.beta.lock();\n let g = s.alpha.lock(); // relia-lint: allow(lock-order-inversion)\n}\n";
        let diags = lint_sources(&[("a.rs", a, LIB), ("b.rs", b, LIB)]);
        assert!(diags.is_empty(), "{diags:?}");
        // With no inversion anywhere, the same pragma is stale.
        let clean = "pub fn f(s: &S) {\n let g = s.alpha.lock(); // relia-lint: allow(lock-order-inversion)\n}\n";
        let diags = lint_sources(&[("c.rs", clean, LIB)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "stale-allow");
    }

    #[test]
    fn the_workspace_is_clean() {
        // The acceptance bar: `relia lint` reports zero violations on the
        // tree this crate ships in.
        let root = walker::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let diags = lint_workspace(&root, 1).expect("workspace lints");
        assert!(
            diags.is_empty(),
            "workspace has lint violations:\n{}",
            diags
                .iter()
                .map(Diagnostic::render_text)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// True when `manifest` has a `[lints]` table saying `workspace = true`.
    fn inherits_workspace_lints(manifest: &str) -> bool {
        let mut in_lints = false;
        manifest.lines().map(str::trim).any(|line| {
            if line.starts_with('[') {
                in_lints = line == "[lints]";
            }
            in_lints && line.replace(' ', "") == "workspace=true"
        })
    }

    #[test]
    fn every_workspace_member_inherits_the_workspace_lints() {
        // Clippy's panic and print lints and rustc's `unsafe_code` reach a
        // package only through `[lints] workspace = true`.
        let root = walker::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let mut manifests = vec![root.join("Cargo.toml")];
        for entry in std::fs::read_dir(root.join("crates")).expect("crates/ lists") {
            let manifest = entry.expect("crates/ lists").path().join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        }
        assert!(manifests.len() > 1, "no member manifests under crates/");
        let missing: Vec<_> = manifests
            .iter()
            .filter(|m| !inherits_workspace_lints(&std::fs::read_to_string(m).expect("reads")))
            .collect();
        assert!(
            missing.is_empty(),
            "no `[lints] workspace = true` in {missing:?}"
        );
    }

    #[test]
    fn parallel_and_incremental_runs_match_serial() {
        let root = walker::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let serial = lint_workspace(&root, 1).expect("serial");
        let parallel = lint_workspace(&root, 8).expect("parallel");
        assert_eq!(serial, parallel);
    }
}
