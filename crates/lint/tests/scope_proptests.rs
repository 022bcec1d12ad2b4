//! Property-based hardening of the lexer + scope tracker.
//!
//! The linter walks every source file in the workspace, including ones a
//! developer is mid-edit on — so the bar is: arbitrary bytes, valid UTF-8
//! or not, never panic any stage of the pipeline, and the scope tracker's
//! invariants (spans inside the token stream, starts before ends) hold
//! even on unbalanced garbage. Deterministic unit tests in `src/scope.rs`
//! pin the exact semantics; these tests pin totality.

use proptest::collection::vec;
use proptest::prelude::*;
use relia_lint::{analyze_source, lexer, scope, FileKind, FileOpts};

const LIB: FileOpts = FileOpts {
    kind: FileKind::Library,
    handler: true,
    job: true,
};

/// Asserts every span invariant the rules rely on, then runs the full
/// per-file pipeline (which must also be total).
fn well_formed(src: &str) {
    let lexed = lexer::lex(src);
    let scopes = scope::analyze(&lexed);
    let n = lexed.tokens.len();
    let in_range = |span: (usize, usize)| span.0 <= span.1 && (n == 0 || span.1 < n);
    for f in &scopes.functions {
        assert!(in_range(f.body), "fn body {:?} of {n} tokens", f.body);
    }
    for l in &scopes.loops {
        assert!(in_range(l.body), "loop body {:?} of {n} tokens", l.body);
    }
    for g in &scopes.guards {
        assert!(in_range(g.live), "guard span {:?} of {n} tokens", g.live);
    }
    for a in &scopes.acquisitions {
        assert!(a.tok < n, "acquisition {} of {n} tokens", a.tok);
    }
    let _ = analyze_source("fuzz.rs", src, &LIB);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (lossily decoded, as a walker would see after a bad
    /// checkout) never panic lexing, scope analysis, or the rule pipeline.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..=300)) {
        well_formed(&String::from_utf8_lossy(&bytes));
    }

    /// Printable garbage — unbalanced parens, stray `=`s, newlines — keeps
    /// every scope span in bounds.
    #[test]
    fn garbage_text_keeps_spans_balanced(src in "[ -~\\n]{0,200}") {
        well_formed(&src);
    }

    /// Rust-shaped fragments (the adversarial middle ground: real keywords,
    /// wrong nesting) are total too.
    #[test]
    fn rust_shaped_fragments_are_total(
        parts in vec(
            prop_oneof![
                Just("fn f() {"),
                Just("}"),
                Just("{"),
                Just("let g = m.lock();"),
                Just("for x in xs {"),
                Just("while let Some(v) = it.next() {"),
                Just("drop(g);"),
                Just("return;"),
                Just("m.conn_enqueued();"),
                Just("m.conn_dequeued();"),
                Just("delta_vth(t);"),
                Just("thread::sleep(d);"),
                Just("// relia-lint: allow(float-eq)"),
                Just("#[cfg(test)]"),
                Just("mod t {"),
                Just("match x {"),
                Just("=> {"),
                Just("\"str {"),
            ],
            0..=24,
        )
    ) {
        well_formed(&parts.join("\n"));
    }
}
