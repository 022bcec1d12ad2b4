//! Inline suppression pragmas.
//!
//! A violation is silenced by a line comment of the form
//!
//! ```text
//! // relia-lint: allow(rule-id)
//! // relia-lint: allow(rule-id, other-rule)
//! ```
//!
//! placed either on the offending line (trailing comment, which covers
//! only that line) or alone on the line directly above it (which covers
//! only the next line). Every pragma must suppress at least one violation;
//! a pragma that suppresses nothing is itself reported (`stale-allow`), so
//! suppressions cannot outlive the code they excuse. Rule ids accept a
//! short `R<n>` alias for every registered rule (see
//! [`RULES`](crate::rules::RULES)).
//!
//! One rule needs special handling: R9 `lock-order-inversion` is decided
//! by the *workspace* lock graph, after every file has been analyzed. An
//! `allow(lock-order-inversion)` pragma therefore cannot be judged
//! used-or-stale inside [`apply_deferring`]; it is returned as a
//! [`DeferredAllow`] and resolved by [`crate::finish`] once the graph has
//! spoken.

use crate::diag::Diagnostic;
use crate::lexer::Lexed;
use crate::rules::rule_by_name;

/// The one rule whose pragmas are resolved at workspace level.
pub const DEFERRED_RULE: &str = "lock-order-inversion";

/// An `allow(lock-order-inversion)` pragma awaiting the workspace pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeferredAllow {
    /// 1-based line of the pragma comment.
    pub line: u32,
    /// The single line the pragma covers.
    pub target_line: u32,
    /// True when the pragma already silenced a per-file violation (it
    /// named other rules too) — it can no longer be reported stale.
    pub used: bool,
}

/// One parsed `allow` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Rules this pragma silences (canonical ids).
    pub rules: Vec<&'static str>,
    /// 1-based line of the pragma comment.
    pub line: u32,
    /// The single line this pragma covers: its own line for a trailing
    /// comment, the next line for a standalone comment.
    pub target_line: u32,
    /// True once the pragma has silenced at least one violation.
    pub used: bool,
}

const PREFIX: &str = "relia-lint:";

/// Extracts pragmas from a file's comments. Malformed pragmas (bad syntax,
/// unknown rule names) produce diagnostics immediately — a suppression that
/// silently fails to parse would be worse than a violation.
pub fn parse(file: &str, lexed: &Lexed) -> (Vec<Pragma>, Vec<Diagnostic>) {
    let mut pragmas = Vec::new();
    let mut diags = Vec::new();
    for c in &lexed.comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix(PREFIX) else {
            continue;
        };
        let rest = rest.trim();
        let inner = rest
            .strip_prefix("allow(")
            .and_then(|s| s.strip_suffix(')'));
        let Some(inner) = inner else {
            diags.push(Diagnostic {
                file: file.to_owned(),
                line: c.line,
                col: 1,
                rule: "bad-pragma",
                message: format!(
                    "malformed pragma {text:?}: expected `relia-lint: allow(rule-id, ...)`"
                ),
            });
            continue;
        };
        let mut rules = Vec::new();
        let mut ok = true;
        for name in inner.split(',') {
            let name = name.trim();
            match rule_by_name(name) {
                Some(id) => rules.push(id),
                None => {
                    diags.push(Diagnostic {
                        file: file.to_owned(),
                        line: c.line,
                        col: 1,
                        rule: "bad-pragma",
                        message: format!("unknown rule {name:?} in allow pragma"),
                    });
                    ok = false;
                }
            }
        }
        if ok && !rules.is_empty() {
            let trailing = lexed.tokens.iter().any(|t| t.line == c.line);
            pragmas.push(Pragma {
                rules,
                line: c.line,
                target_line: if trailing { c.line } else { c.line + 1 },
                used: false,
            });
        }
    }
    (pragmas, diags)
}

/// Applies pragmas to raw violations: a violation on the pragma's target
/// line, for a rule the pragma names, is dropped and the pragma marked
/// used. Unused pragmas then become `stale-allow` diagnostics.
///
/// Workspace-decided rules are the exception: pragmas naming
/// [`DEFERRED_RULE`] come back as [`DeferredAllow`]s instead of being
/// judged stale here.
pub fn apply_deferring(
    file: &str,
    pragmas: &mut [Pragma],
    violations: Vec<Diagnostic>,
) -> (Vec<Diagnostic>, Vec<DeferredAllow>) {
    let mut out = Vec::new();
    for v in violations {
        let mut suppressed = false;
        for p in pragmas.iter_mut() {
            if v.line == p.target_line && p.rules.contains(&v.rule) {
                p.used = true;
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            out.push(v);
        }
    }
    let mut deferred = Vec::new();
    for p in pragmas.iter() {
        if p.rules.contains(&DEFERRED_RULE) {
            deferred.push(DeferredAllow {
                line: p.line,
                target_line: p.target_line,
                used: p.used,
            });
            continue;
        }
        if !p.used {
            out.push(Diagnostic {
                file: file.to_owned(),
                line: p.line,
                col: 1,
                rule: "stale-allow",
                message: format!(
                    "allow({}) suppresses nothing — remove the pragma or the fix that outlived it",
                    p.rules.join(", ")
                ),
            });
        }
    }
    (out, deferred)
}

/// [`apply_deferring`] with the workspace pass collapsed away: a deferred
/// pragma that silenced nothing per-file is reported stale immediately.
/// Single-file convenience for tests and `lint_source`-without-workspace
/// callers.
pub fn apply(file: &str, pragmas: &mut [Pragma], violations: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let (mut out, deferred) = apply_deferring(file, pragmas, violations);
    for d in deferred.iter().filter(|d| !d.used) {
        out.push(Diagnostic {
            file: file.to_owned(),
            line: d.line,
            col: 1,
            rule: "stale-allow",
            message: format!(
                "allow({DEFERRED_RULE}) suppresses nothing — remove the pragma or the fix \
                 that outlived it"
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn diag(line: u32, rule: &'static str) -> Diagnostic {
        Diagnostic {
            file: "f.rs".into(),
            line,
            col: 1,
            rule,
            message: "x".into(),
        }
    }

    #[test]
    fn parses_single_and_multi_rule_pragmas() {
        let lexed = lex("// relia-lint: allow(float-eq)\n// relia-lint: allow(R6, unit-leak)\n");
        let (pragmas, diags) = parse("f.rs", &lexed);
        assert!(diags.is_empty());
        assert_eq!(pragmas.len(), 2);
        assert_eq!(pragmas[0].rules, vec!["float-eq"]);
        assert_eq!(pragmas[1].rules, vec!["celsius-kelvin", "unit-leak"]);
    }

    #[test]
    fn rejects_malformed_and_unknown() {
        // Retired rules (now compiler lints) are unknown too, so a leftover
        // pragma cannot pass silently.
        for pragma in [
            "allow float-eq",
            "allow(no-such-rule)",
            "allow(unwrap-in-lib)",
            "allow(R2)",
        ] {
            let (pragmas, diags) = parse("f.rs", &lex(&format!("// relia-lint: {pragma}\n")));
            assert!(pragmas.is_empty(), "{pragma}");
            assert_eq!(diags.len(), 1, "{pragma}");
            assert_eq!(diags[0].rule, "bad-pragma");
        }
    }

    #[test]
    fn standalone_pragma_covers_only_the_next_line() {
        let lexed = lex("// relia-lint: allow(float-eq)\n");
        let (mut pragmas, _) = parse("f.rs", &lexed);
        let kept = apply(
            "f.rs",
            &mut pragmas,
            vec![
                diag(1, "float-eq"),
                diag(2, "float-eq"),
                diag(3, "float-eq"),
            ],
        );
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|d| d.line != 2));
    }

    #[test]
    fn trailing_pragma_covers_only_its_own_line() {
        let lexed = lex("let x = 1.5; // relia-lint: allow(float-eq)\nlet y = 2.5;\n");
        let (mut pragmas, _) = parse("f.rs", &lexed);
        let kept = apply(
            "f.rs",
            &mut pragmas,
            vec![diag(1, "float-eq"), diag(2, "float-eq")],
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 2);
    }

    #[test]
    fn wrong_rule_does_not_suppress() {
        let lexed = lex("// relia-lint: allow(unit-leak)\n");
        let (mut pragmas, _) = parse("f.rs", &lexed);
        let kept = apply("f.rs", &mut pragmas, vec![diag(2, "float-eq")]);
        // The violation survives and the pragma is reported stale.
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().any(|d| d.rule == "float-eq"));
        assert!(kept.iter().any(|d| d.rule == "stale-allow"));
    }

    #[test]
    fn lock_order_pragmas_defer_to_the_workspace_pass() {
        let lexed = lex("// relia-lint: allow(lock-order-inversion)\n");
        let (mut pragmas, _) = parse("f.rs", &lexed);
        let (kept, deferred) = apply_deferring("f.rs", &mut pragmas, Vec::new());
        assert!(kept.is_empty(), "{kept:?}");
        assert_eq!(deferred.len(), 1);
        assert_eq!(deferred[0].target_line, 2);
        assert!(!deferred[0].used);
        // The non-deferring wrapper restores the strict judgment.
        let (mut pragmas, _) = parse("f.rs", &lexed);
        let kept = apply("f.rs", &mut pragmas, Vec::new());
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].rule, "stale-allow");
    }

    #[test]
    fn unused_pragma_is_reported() {
        let lexed = lex("// relia-lint: allow(float-eq)\n");
        let (mut pragmas, _) = parse("f.rs", &lexed);
        let kept = apply("f.rs", &mut pragmas, Vec::new());
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].rule, "stale-allow");
    }
}
