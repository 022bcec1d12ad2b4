//! Fixture-driven self-tests: every rule gets a positive fixture (known
//! violations at known lines), a suppressed fixture (the same code made
//! clean with `// relia-lint: allow(...)` pragmas), and a clean fixture
//! (idiomatic code that must not trip the rule). Fixtures live under
//! `tests/fixtures/` and are linted in memory — they are never compiled.

use relia_lint::{lint_source, lint_sources, Diagnostic, FileKind, FileOpts};

const LIB: FileOpts = FileOpts {
    kind: FileKind::Library,
    handler: false,
    job: false,
};

const HANDLER: FileOpts = FileOpts {
    kind: FileKind::Library,
    handler: true,
    job: false,
};

const JOB: FileOpts = FileOpts {
    kind: FileKind::Library,
    handler: false,
    job: true,
};

fn lint(source: &str, opts: FileOpts) -> Vec<Diagnostic> {
    lint_source("fixture.rs", source, &opts)
}

/// (rule, line) pairs for compact assertions.
fn shape(diags: &[Diagnostic]) -> Vec<(&'static str, u32)> {
    diags.iter().map(|d| (d.rule, d.line)).collect()
}

#[test]
fn r1_positive_flags_fields_and_params() {
    let d = lint(include_str!("fixtures/r1_positive.rs"), LIB);
    assert_eq!(
        shape(&d),
        vec![
            ("unit-leak", 2),
            ("unit-leak", 3),
            ("unit-leak", 4),
            ("unit-leak", 9),
            ("unit-leak", 9),
        ],
        "{d:?}"
    );
}

#[test]
fn r1_suppressed_is_clean() {
    let d = lint(include_str!("fixtures/r1_suppressed.rs"), LIB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r1_clean_is_clean() {
    let d = lint(include_str!("fixtures/r1_clean.rs"), LIB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r3_positive_flags_nonzero_float_comparisons() {
    let d = lint(include_str!("fixtures/r3_positive.rs"), LIB);
    assert_eq!(shape(&d), vec![("float-eq", 2), ("float-eq", 5)], "{d:?}");
}

#[test]
fn r3_suppressed_is_clean() {
    let d = lint(include_str!("fixtures/r3_suppressed.rs"), LIB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r3_clean_is_clean() {
    let d = lint(include_str!("fixtures/r3_clean.rs"), LIB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r6_positive_flags_celsius_looking_literals() {
    let d = lint(include_str!("fixtures/r6_positive.rs"), LIB);
    assert_eq!(
        shape(&d),
        vec![
            ("celsius-kelvin", 2),
            ("celsius-kelvin", 3),
            ("celsius-kelvin", 4),
        ],
        "{d:?}"
    );
    assert!(d[0].message.contains("from_celsius"), "{:?}", d[0]);
}

#[test]
fn r6_suppressed_is_clean() {
    let d = lint(include_str!("fixtures/r6_suppressed.rs"), LIB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r6_clean_is_clean() {
    let d = lint(include_str!("fixtures/r6_clean.rs"), LIB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r7_positive_flags_handler_code_but_not_plain_libs() {
    let src = include_str!("fixtures/r7_positive.rs");
    let d = lint(src, HANDLER);
    assert_eq!(
        shape(&d),
        vec![
            ("blocking-in-handler", 2),
            ("blocking-in-handler", 3),
            ("blocking-in-handler", 5),
        ],
        "{d:?}"
    );
    let plain = lint(src, LIB);
    assert!(
        plain.is_empty(),
        "R7 only applies to handler code: {plain:?}"
    );
}

#[test]
fn r7_covers_breaker_and_brownout_handler_paths() {
    // Overload-control code is handler code: a breaker that *sleeps out*
    // its cooldown or a brownout path that slurps the body would pin the
    // very worker slots the control exists to protect.
    let src = include_str!("fixtures/r7_breaker_positive.rs");
    let d = lint(src, HANDLER);
    assert_eq!(
        shape(&d),
        vec![
            ("blocking-in-handler", 6),
            ("blocking-in-handler", 12),
            ("blocking-in-handler", 14),
        ],
        "{d:?}"
    );
}

#[test]
fn r7_suppressed_is_clean() {
    let d = lint(include_str!("fixtures/r7_suppressed.rs"), HANDLER);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r7_clean_is_clean() {
    let d = lint(include_str!("fixtures/r7_clean.rs"), HANDLER);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r8_positive_flags_guards_spanning_blocking_calls() {
    let d = lint(include_str!("fixtures/r8_positive.rs"), LIB);
    assert_eq!(
        shape(&d),
        vec![
            ("guard-across-blocking", 3),
            ("guard-across-blocking", 4),
            ("guard-across-blocking", 10),
        ],
        "{d:?}"
    );
    assert!(d[0].message.contains("thread::sleep"), "{:?}", d[0]);
    assert!(d[2].message.contains("delta_vth"), "{:?}", d[2]);
}

#[test]
fn r8_suppressed_is_clean() {
    let d = lint(include_str!("fixtures/r8_suppressed.rs"), LIB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r8_clean_is_clean() {
    let d = lint(include_str!("fixtures/r8_clean.rs"), LIB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r8_span_guards_held_across_blocking_are_not_flagged() {
    // RAII *span* guards (relia-obs tracing) deliberately stay open
    // across blocking phases — that is what they measure. R8 tracks only
    // lock guards (`.lock()`/`.read()`/`.write()`), so a span guard held
    // across `thread::sleep` or `recv()` must stay clean.
    let d = lint(include_str!("fixtures/r8_span_guard_clean.rs"), LIB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r9_positive_catches_inversion_across_two_files() {
    let d = lint_sources(&[
        ("a.rs", include_str!("fixtures/r9_positive_a.rs"), LIB),
        ("b.rs", include_str!("fixtures/r9_positive_b.rs"), LIB),
    ]);
    let r9: Vec<_> = d
        .iter()
        .filter(|d| d.rule == "lock-order-inversion")
        .collect();
    assert_eq!(r9.len(), 2, "{d:?}");
    assert_eq!((r9[0].file.as_str(), r9[0].line), ("a.rs", 3));
    assert_eq!((r9[1].file.as_str(), r9[1].line), ("b.rs", 3));
    // Each site names the other, so the fix is actionable from either end.
    assert!(r9[0].message.contains("b.rs:3"), "{}", r9[0].message);
    assert!(r9[1].message.contains("a.rs:3"), "{}", r9[1].message);
}

#[test]
fn r9_single_file_alone_is_silent() {
    // Nesting order is only wrong relative to the rest of the workspace.
    let d = lint(include_str!("fixtures/r9_positive_a.rs"), LIB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r9_suppressed_is_clean() {
    let d = lint_sources(&[
        ("a.rs", include_str!("fixtures/r9_suppressed_a.rs"), LIB),
        ("b.rs", include_str!("fixtures/r9_suppressed_b.rs"), LIB),
    ]);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r9_clean_is_clean() {
    let d = lint_sources(&[
        ("a.rs", include_str!("fixtures/r9_clean_a.rs"), LIB),
        ("b.rs", include_str!("fixtures/r9_clean_b.rs"), LIB),
    ]);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r10_positive_flags_unpolled_loops_in_job_code_only() {
    let src = include_str!("fixtures/r10_positive.rs");
    let d = lint(src, JOB);
    assert_eq!(
        shape(&d),
        vec![("unpolled-loop", 4), ("unpolled-loop", 13)],
        "{d:?}"
    );
    let plain = lint(src, LIB);
    assert!(
        plain.is_empty(),
        "R10 only applies to handler/job code: {plain:?}"
    );
}

#[test]
fn r10_suppressed_is_clean() {
    let d = lint(include_str!("fixtures/r10_suppressed.rs"), JOB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r10_clean_is_clean() {
    let d = lint(include_str!("fixtures/r10_clean.rs"), JOB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r11_positive_flags_unbalanced_early_returns() {
    let d = lint(include_str!("fixtures/r11_positive.rs"), LIB);
    assert_eq!(
        shape(&d),
        vec![("counter-leak", 4), ("counter-leak", 14)],
        "{d:?}"
    );
    assert!(d[0].message.contains("jobs"), "{:?}", d[0]);
    assert!(d[1].message.contains("permits"), "{:?}", d[1]);
}

#[test]
fn r11_suppressed_is_clean() {
    let d = lint(include_str!("fixtures/r11_suppressed.rs"), LIB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r11_clean_is_clean() {
    let d = lint(include_str!("fixtures/r11_clean.rs"), LIB);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn stale_pragma_is_itself_reported() {
    let d = lint(include_str!("fixtures/stale_pragma.rs"), LIB);
    assert_eq!(shape(&d), vec![("stale-allow", 1)], "{d:?}");
}

#[test]
fn malformed_pragmas_are_reported() {
    let d = lint(include_str!("fixtures/bad_pragma.rs"), LIB);
    assert_eq!(
        shape(&d),
        vec![("bad-pragma", 1), ("bad-pragma", 2)],
        "{d:?}"
    );
}

#[test]
fn json_rendering_round_trips_the_fixture_shape() {
    let d = lint(include_str!("fixtures/r6_positive.rs"), LIB);
    let line = d[0].render_json();
    for key in ["\"file\":", "\"line\":2,", "\"rule\":\"celsius-kelvin\""] {
        assert!(line.contains(key), "{line}");
    }
}
