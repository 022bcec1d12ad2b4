//! The domain rules.
//!
//! | id | rule | scope |
//! |----|------|-------|
//! | R1 `unit-leak` | unit-named `pub fn` param / struct field typed bare `f64` | everywhere |
//! | R3 `float-eq` | `==` / `!=` against a non-zero float literal | non-test code |
//! | R6 `celsius-kelvin` | literal in (0, 150] wrapped directly in `Kelvin(...)` | everywhere |
//! | R7 `blocking-in-handler` | `thread::sleep` / `.read_to_end(` | handler library code (`#[cfg(test)]` exempt) |
//! | R8 `guard-across-blocking` | live lock guard spans a blocking call | library code ([`crate::flow`]) |
//! | R9 `lock-order-inversion` | locks acquired in opposite nesting order | whole workspace ([`crate::graph`]) |
//! | R10 `unpolled-loop` | model-evaluating loop never polls cancellation | handler/job library code ([`crate::flow`]) |
//! | R11 `counter-leak` | gauge inc'd, early `return` skips the dec | library code ([`crate::flow`]) |
//!
//! Comparisons against exactly `0.0` are exempt from R3: an exact-zero
//! sentinel check is well-defined in IEEE-754 and idiomatic in this
//! codebase (`duty_cycle == 0.0`). R6's lower bound is likewise exclusive
//! so `Kelvin(0.0)` (absolute zero, used by physicality tests) stays legal
//! while `Kelvin(85.0)` — almost certainly 85 °C — is caught.
//!
//! R7 applies only to files classified as request-handler code (today:
//! `crates/serve/src/`). A worker thread that sleeps or slurps an
//! unbounded body holds a pool slot hostage and defeats the server's
//! deadline/backpressure design; handlers must wait on
//! `Condvar::wait_timeout` and read request bodies with bounded,
//! incremental `read` calls instead.

use crate::diag::Diagnostic;
use crate::lexer::{literal_value, Lexed, TokKind, Token};
use crate::scope::test_mod_spans;

/// How a file participates in the build, for rule scoping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Part of a library crate's `src/` tree.
    Library,
    /// A binary target (`src/bin/*`, `main.rs`).
    Binary,
}

/// Per-file lint context.
#[derive(Debug, Clone, Copy)]
pub struct FileOpts {
    /// Library or binary.
    pub kind: FileKind,
    /// True for request-handler library code (the serve crate), where R7
    /// applies.
    pub handler: bool,
    /// True for background-job/engine library code (the jobs and fleet
    /// crates), where R10 applies alongside handler code.
    pub job: bool,
}

/// One rule's registry entry: everything the alias resolver, `--list-rules`,
/// and the SARIF writer need. Adding a rule is one row here plus its checker.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Short alias (`R1`, …), fixed for the rule's life.
    pub alias: &'static str,
    /// Canonical id (`unit-leak`, …).
    pub id: &'static str,
    /// One-line summary, used as the SARIF rule description.
    pub summary: &'static str,
}

/// The rule registry, in alias order. R2, R4 and R5 are compiler lints
/// now (see the crate docs); their numbers are never reused.
pub const RULES: [RuleInfo; 8] = [
    RuleInfo {
        alias: "R1",
        id: "unit-leak",
        summary: "unit-named pub field/param typed bare f64",
    },
    RuleInfo {
        alias: "R3",
        id: "float-eq",
        summary: "==/!= against a non-zero float literal",
    },
    RuleInfo {
        alias: "R6",
        id: "celsius-kelvin",
        summary: "celsius-looking literal wrapped in Kelvin(...)",
    },
    RuleInfo {
        alias: "R7",
        id: "blocking-in-handler",
        summary: "blocking call in request-handler code",
    },
    RuleInfo {
        alias: "R8",
        id: "guard-across-blocking",
        summary: "live lock guard spans a blocking call",
    },
    RuleInfo {
        alias: "R9",
        id: "lock-order-inversion",
        summary: "locks acquired in opposite nesting order across the workspace",
    },
    RuleInfo {
        alias: "R10",
        id: "unpolled-loop",
        summary: "model-evaluating loop never polls cancellation",
    },
    RuleInfo {
        alias: "R11",
        id: "counter-leak",
        summary: "gauge incremented but an early return skips the decrement",
    },
];

/// Resolves a rule id or `R<n>` alias (either case) to the canonical id.
pub fn rule_by_name(name: &str) -> Option<&'static str> {
    RULES
        .iter()
        .find(|r| r.id == name || r.alias.eq_ignore_ascii_case(name))
        .map(|r| r.id)
}

/// Field/parameter names that denote a physical quantity and therefore must
/// carry a unit newtype instead of a bare `f64`.
fn is_unit_name(name: &str) -> bool {
    matches!(
        name,
        "temp" | "t_active" | "t_standby" | "duration" | "period" | "lifetime" | "lifetimes"
    ) || name.starts_with("temp_")
        || (name.len() > 2 && name.ends_with("_k"))
}

/// Runs every rule over one lexed file, returning raw (pre-pragma)
/// violations.
pub fn check(file: &str, lexed: &Lexed, opts: &FileOpts) -> Vec<Diagnostic> {
    let toks = &lexed.tokens;
    let test_spans = test_mod_spans(toks);
    let in_test = |line: u32| test_spans.iter().any(|&(a, b)| line >= a && line <= b);
    let mut out = Vec::new();

    let mut push = |tok: &Token, rule: &'static str, message: String| {
        out.push(Diagnostic {
            file: file.to_owned(),
            line: tok.line,
            col: tok.col,
            rule,
            message,
        });
    };

    // --- R1: unit-named f64 struct fields and pub fn params. ---
    for (tok, context) in raw_unit_leaks(toks) {
        push(
            tok,
            "unit-leak",
            format!(
                "{context} `{}` is a bare `f64` — use `Kelvin`/`Seconds` from relia-core so \
                 kelvin/celsius and stress/wall seconds cannot be confused",
                tok.text
            ),
        );
    }

    // --- R3: float equality. ---
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") || in_test(t.line) {
            continue;
        }
        let float_operand = |tok: Option<&Token>| -> bool {
            tok.is_some_and(|tok| {
                tok.kind == TokKind::Float && literal_value(&tok.text).is_some_and(|v| v != 0.0)
            })
        };
        if float_operand(i.checked_sub(1).and_then(|k| toks.get(k)))
            || float_operand(toks.get(i + 1))
        {
            push(
                t,
                "float-eq",
                format!(
                    "float `{}` against a non-zero literal — compare with a tolerance \
                     (rounding makes exact equality fragile)",
                    t.text
                ),
            );
        }
    }

    // --- R6: celsius-looking literal inside Kelvin(...). ---
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "Kelvin"
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
            && toks.get(i + 3).is_some_and(|t| t.text == ")")
        {
            if let Some(lit) = toks.get(i + 2) {
                if matches!(lit.kind, TokKind::Int | TokKind::Float) {
                    if let Some(v) = literal_value(&lit.text) {
                        if v > 0.0 && v <= 150.0 {
                            out.push(Diagnostic {
                                file: file.to_owned(),
                                line: lit.line,
                                col: lit.col,
                                rule: "celsius-kelvin",
                                message: format!(
                                    "`Kelvin({})` is {v} K — cryogenic; this looks like a \
                                     celsius value, use `Kelvin::from_celsius({})`",
                                    lit.text, lit.text
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    // --- R7: blocking primitives in request-handler library code. ---
    if opts.handler && opts.kind == FileKind::Library {
        for w in toks.windows(3) {
            if w[0].kind == TokKind::Ident
                && w[0].text == "thread"
                && w[1].text == "::"
                && w[2].kind == TokKind::Ident
                && w[2].text == "sleep"
                && !in_test(w[2].line)
            {
                out.push(Diagnostic {
                    file: file.to_owned(),
                    line: w[2].line,
                    col: w[2].col,
                    rule: "blocking-in-handler",
                    message: "`thread::sleep` in handler code pins a worker-pool slot and \
                              ignores the request deadline — wait on `Condvar::wait_timeout` \
                              or check `Deadline::fire_if_due` instead"
                        .to_owned(),
                });
            }
        }
        for w in toks.windows(2) {
            if w[0].kind == TokKind::Punct
                && w[0].text == "."
                && w[1].kind == TokKind::Ident
                && w[1].text == "read_to_end"
                && !in_test(w[1].line)
            {
                out.push(Diagnostic {
                    file: file.to_owned(),
                    line: w[1].line,
                    col: w[1].col,
                    rule: "blocking-in-handler",
                    message: "`.read_to_end(...)` in handler code reads without a byte bound \
                              — an oversized or never-ending body wedges the worker; read \
                              incrementally against `Limits::max_body`"
                        .to_owned(),
                });
            }
        }
    }

    out
}

/// Finds R1 sites: unit-named `ident : f64` (or `Vec<f64>`) in struct bodies
/// and `pub fn` parameter lists. Returns the offending name token plus a
/// context label.
fn raw_unit_leaks(toks: &[Token]) -> Vec<(&Token, &'static str)> {
    let mut hits = Vec::new();

    // Struct fields.
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "struct" {
            // Skip name and any generics, find `{` (tuple/unit structs end
            // at `(` or `;` and carry no named fields).
            let mut j = i + 1;
            let mut angle = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "{" if angle == 0 => break,
                    "(" | ";" if angle == 0 => {
                        j = toks.len();
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if j < toks.len() {
                let mut depth = 0i32;
                let mut k = j;
                while k + 2 < toks.len() {
                    match toks[k].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    // A field at depth 1: `name : f64` with `name` starting
                    // a field (previous token is `{`, `,`, or `]` from an
                    // attribute, or `pub`/`)` from a visibility modifier).
                    if depth == 1
                        && toks[k + 1].kind == TokKind::Ident
                        && toks[k + 2].text == ":"
                        && matches!(toks[k].text.as_str(), "{" | "," | "]" | "pub" | ")")
                        && is_unit_name(&toks[k + 1].text)
                        && bare_f64_type(&toks[k + 3..])
                    {
                        hits.push((&toks[k + 1], "struct field"));
                    }
                    k += 1;
                }
                i = k;
            } else {
                i = j;
            }
        }
        i += 1;
    }

    // pub fn parameters.
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "pub") {
            i += 1;
            continue;
        }
        // Skip `pub(crate)` / `pub(in …)`.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.text == "(") {
            let mut depth = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if toks.get(j).is_none_or(|t| t.text != "fn") {
            i += 1;
            continue;
        }
        // Skip fn name + generics to the opening paren.
        let mut k = j + 1;
        let mut angle = 0i32;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "(" if angle == 0 => break,
                _ => {}
            }
            k += 1;
        }
        // Scan params at paren depth 1.
        let mut depth = 0i32;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if depth == 1
                && k + 2 < toks.len()
                && toks[k + 1].kind == TokKind::Ident
                && toks[k + 2].text == ":"
                && matches!(toks[k].text.as_str(), "(" | ",")
                && is_unit_name(&toks[k + 1].text)
                && bare_f64_type(&toks[k + 3..])
            {
                hits.push((&toks[k + 1], "pub fn parameter"));
            }
            k += 1;
        }
        i = k + 1;
    }

    hits
}

/// True when the type starting at `rest[0]` is exactly `f64` or `Vec<f64>`
/// (terminated by `,`, `)`, or `}`).
fn bare_f64_type(rest: &[Token]) -> bool {
    let ends = |t: Option<&Token>| t.is_none_or(|t| matches!(t.text.as_str(), "," | ")" | "}"));
    if rest.first().is_some_and(|t| t.text == "f64") {
        return ends(rest.get(1));
    }
    if rest.len() >= 4
        && rest[0].text == "Vec"
        && rest[1].text == "<"
        && rest[2].text == "f64"
        && rest[3].text == ">"
    {
        return ends(rest.get(4));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lib() -> FileOpts {
        FileOpts {
            kind: FileKind::Library,
            handler: false,
            job: false,
        }
    }

    fn handler() -> FileOpts {
        FileOpts {
            handler: true,
            ..lib()
        }
    }

    fn check_src(src: &str, opts: FileOpts) -> Vec<Diagnostic> {
        check("f.rs", &lex(src), &opts)
    }

    #[test]
    fn rule_aliases_resolve() {
        assert_eq!(rule_by_name("R1"), Some("unit-leak"));
        assert_eq!(rule_by_name("float-eq"), Some("float-eq"));
        assert_eq!(rule_by_name("R6"), Some("celsius-kelvin"));
        assert_eq!(rule_by_name("R7"), Some("blocking-in-handler"));
        assert_eq!(rule_by_name("R9"), Some("lock-order-inversion"));
        assert_eq!(rule_by_name("r11"), Some("counter-leak"));
        // Retired numbers and ids stay unknown, never reassigned.
        for retired in ["R2", "R4", "R5", "unwrap-in-lib", "print-in-lib"] {
            assert_eq!(rule_by_name(retired), None, "{retired}");
        }
        assert_eq!(rule_by_name("R12"), None);
        assert_eq!(rule_by_name("R0"), None);
        assert_eq!(rule_by_name("bogus"), None);
    }

    #[test]
    fn r1_flags_struct_fields_and_pub_fn_params() {
        let src = "pub struct S { pub t_standby: f64, ok: Kelvin }\n\
                   pub fn f(temp: f64, watts: f64) {}\n";
        let d = check_src(src, lib());
        let r1: Vec<_> = d.iter().filter(|d| d.rule == "unit-leak").collect();
        assert_eq!(r1.len(), 2, "{d:?}");
        assert_eq!(r1[0].line, 1);
        assert_eq!(r1[1].line, 2);
    }

    #[test]
    fn r1_flags_vec_f64_axes_and_k_suffix() {
        let src = "pub struct Grid { lifetimes: Vec<f64> }\npub fn g(ambient_k: f64) {}\n";
        let d = check_src(src, lib());
        assert_eq!(d.iter().filter(|d| d.rule == "unit-leak").count(), 2);
    }

    #[test]
    fn r1_ignores_private_fns_closures_and_typed_params() {
        let src = "fn private(temp: f64) {}\n\
                   pub fn typed(temp: Kelvin, period: Seconds) {}\n\
                   pub fn closure() { let f = |temp: f64| temp; }\n";
        let d = check_src(src, lib());
        assert!(d.iter().all(|d| d.rule != "unit-leak"), "{d:?}");
    }

    #[test]
    fn r3_flags_nonzero_float_eq_only() {
        let src = "fn f() { if x == 1.5 {} if x != 2e3 {} if x == 0.0 {} if n == 3 {} }\n";
        let d = check_src(src, lib());
        assert_eq!(d.iter().filter(|d| d.rule == "float-eq").count(), 2);
    }

    #[test]
    fn r6_flags_cryogenic_kelvin_literals() {
        let src = "fn f() { let a = Kelvin(85.0); let b = Kelvin(330.0); \
                   let c = Kelvin(0.0); let d = Kelvin(t_c + 273.15); }\n";
        let d = check_src(src, lib());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "celsius-kelvin");
        assert!(d[0].message.contains("from_celsius"));
    }

    #[test]
    fn r7_flags_blocking_calls_in_handler_code_only() {
        let src = "pub fn f(r: &mut impl Read) {\n\
                   std::thread::sleep(d);\n\
                   thread::sleep(d);\n\
                   r.read_to_end(&mut buf);\n\
                   }\n";
        let d = check_src(src, handler());
        let r7: Vec<_> = d
            .iter()
            .filter(|d| d.rule == "blocking-in-handler")
            .collect();
        assert_eq!(r7.len(), 3, "{d:?}");
        assert_eq!(r7[0].line, 2);
        assert_eq!(r7[1].line, 3);
        assert_eq!(r7[2].line, 4);
        // Same source outside handler scope — or in a binary — is legal.
        assert!(check_src(src, lib())
            .iter()
            .all(|d| d.rule != "blocking-in-handler"));
        let bin = FileOpts {
            kind: FileKind::Binary,
            ..handler()
        };
        assert!(check_src(src, bin)
            .iter()
            .all(|d| d.rule != "blocking-in-handler"));
    }

    #[test]
    fn r7_exempts_test_modules_and_nonblocking_reads() {
        let src = "pub fn ok(r: &mut impl Read) { r.read_exact(&mut buf); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { thread::sleep(d); }\n}\n";
        let d = check_src(src, handler());
        assert!(d.iter().all(|d| d.rule != "blocking-in-handler"), "{d:?}");
    }

    #[test]
    fn test_mod_exemption_covers_nested_braces() {
        let src = "#[cfg(test)]\nmod tests {\n fn a() { if x { y == 1.5; } }\n}\n\
                   pub fn real() { z == 2.5; }\n";
        let d = check_src(src, lib());
        assert_eq!(d.iter().filter(|d| d.rule == "float-eq").count(), 1);
        assert_eq!(d[0].line, 5);
    }
}
