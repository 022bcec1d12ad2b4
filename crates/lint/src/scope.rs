//! Scope tracking: the flow-aware layer between the lexer and the rules.
//!
//! The token-stream rules (R1–R7) ask "does this pattern occur?"; the
//! concurrency rules (R8–R11) ask "does it occur *while* something else is
//! live?". This module answers the second kind of question without a real
//! parser: a brace/paren-aware pass over the lexed token stream recovers
//!
//! * **function spans** — every `fn` with a body, innermost-wins for
//!   nested items and closures are left inline (a closure's body belongs
//!   to the function that builds it, which is where its locks live);
//! * **block structure** — a matching-brace map, so a binding's enclosing
//!   block (its drop scope) is known;
//! * **lock-guard bindings** — `let g = x.lock()…;`, `if let Ok(g) =
//!   x.read()`, and friends, each with the *lock identity* (the receiver's
//!   field/variable name) and the token range the guard is live over
//!   (binding to end of enclosing block, truncated by `drop(g)`);
//! * **loop bodies** — `loop`/`while`/`for` spans with their enclosing
//!   loop chain, for per-iteration poll checks.
//!
//! The tracker shares the lexer's contract: it must never panic and must
//! return *balanced* spans (`start <= end`, ends clamped to the token
//! stream) on arbitrary — including syntactically invalid — input, because
//! it runs on whatever bytes the tree contains. A proptest pins this.

use crate::lexer::{Lexed, TokKind, Token};

/// Methods whose no-argument call form acquires a synchronization guard.
/// `.read()`/`.write()` with arguments are I/O, not locks — the empty
/// parens are what disambiguate `RwLock::read()` from `Read::read(buf)`.
pub const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// One lock-guard binding and the range it is live over.
#[derive(Debug, Clone)]
pub struct GuardBinding {
    /// The bound variable (`guard` in `let guard = m.lock()…`).
    pub var: String,
    /// Lock identity: the receiver's last field/variable name (`slow` for
    /// `self.slow.lock()`). `?` when the receiver is not a plain path.
    pub lock: String,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Token range `[start, end]` the guard is live over: from the
    /// acquisition to the end of the enclosing block, truncated at an
    /// explicit `drop(var)`.
    pub live: (usize, usize),
}

/// One bare lock acquisition site (bound or inline).
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Lock identity (see [`GuardBinding::lock`]).
    pub lock: String,
    /// Token index of the method-name token.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
}

/// One `loop`/`while`/`for` body.
#[derive(Debug, Clone)]
pub struct LoopScope {
    /// 1-based line of the loop keyword.
    pub line: u32,
    /// Token index of the loop keyword.
    pub head: usize,
    /// Token range `[open, close]` of the body braces.
    pub body: (usize, usize),
}

/// One function with a body.
#[derive(Debug, Clone)]
pub struct FnScope {
    /// Function name (`<anon>` when the header is malformed).
    pub name: String,
    /// Token index of the `fn` keyword.
    pub head: usize,
    /// Token range `[open, close]` of the body braces.
    pub body: (usize, usize),
}

/// The scope-tracking result for one file.
#[derive(Debug, Default)]
pub struct ScopeAnalysis {
    /// Functions with bodies, in source order.
    pub functions: Vec<FnScope>,
    /// Guard bindings, in source order.
    pub guards: Vec<GuardBinding>,
    /// Every lock acquisition, in source order.
    pub acquisitions: Vec<Acquisition>,
    /// Loop bodies, in source order.
    pub loops: Vec<LoopScope>,
    /// `match_brace[i]` for an opening-brace token `i` is its closing
    /// brace (clamped to the last token when unbalanced); other indices
    /// map to themselves.
    match_brace: Vec<usize>,
    /// Innermost enclosing block close for each token (stream end when at
    /// top level).
    enclosing_close: Vec<usize>,
}

impl ScopeAnalysis {
    /// The innermost function whose body contains token `i`.
    pub fn function_of(&self, i: usize) -> Option<&FnScope> {
        self.functions
            .iter()
            .filter(|f| f.body.0 <= i && i <= f.body.1)
            .max_by_key(|f| f.body.0)
    }

    /// Loops (outermost first) whose bodies contain token `i`.
    pub fn loops_containing(&self, i: usize) -> Vec<&LoopScope> {
        self.loops
            .iter()
            .filter(|l| l.body.0 <= i && i <= l.body.1)
            .collect()
    }
}

/// Runs the scope tracker over a lexed file. Never panics; malformed
/// input degrades to clamped spans rather than an error.
pub fn analyze(lexed: &Lexed) -> ScopeAnalysis {
    let toks = &lexed.tokens;
    let mut out = ScopeAnalysis {
        match_brace: brace_map(toks),
        ..ScopeAnalysis::default()
    };
    out.enclosing_close = enclosing_map(toks, &out.match_brace);
    find_functions(toks, &out.match_brace, &mut out.functions);
    find_loops(toks, &out.match_brace, &mut out.loops);
    find_acquisitions(toks, &mut out.acquisitions);
    out.guards = find_guards(toks, &out.match_brace, &out.enclosing_close);
    out
}

/// Matching-close index for every opening brace; identity elsewhere.
/// Unbalanced opens clamp to the last token.
fn brace_map(toks: &[Token]) -> Vec<usize> {
    let mut map: Vec<usize> = (0..toks.len()).collect();
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "{" => stack.push(i),
            "}" => {
                if let Some(open) = stack.pop() {
                    map[open] = i;
                }
            }
            _ => {}
        }
    }
    let last = toks.len().saturating_sub(1);
    for open in stack {
        map[open] = last;
    }
    map
}

/// Innermost enclosing block close for every token index.
fn enclosing_map(toks: &[Token], match_brace: &[usize]) -> Vec<usize> {
    let last = toks.len().saturating_sub(1);
    let mut out = vec![last; toks.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..toks.len() {
        while let Some(&close) = stack.last() {
            if i > close {
                stack.pop();
            } else {
                break;
            }
        }
        out[i] = stack.last().copied().unwrap_or(last);
        if toks[i].text == "{" {
            stack.push(match_brace[i]);
        }
    }
    out
}

/// Collects `fn name … { … }` spans. Trait declarations (`fn f();`) have
/// no body and are skipped.
fn find_functions(toks: &[Token], match_brace: &[usize], out: &mut Vec<FnScope>) {
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn") {
            continue;
        }
        let name = toks
            .get(i + 1)
            .filter(|t| t.kind == TokKind::Ident)
            .map_or_else(|| "<anon>".to_owned(), |t| t.text.clone());
        // Scan to the body `{` at zero paren/angle depth; a `;` first
        // means a bodyless declaration.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut open = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        if let Some(open) = open {
            out.push(FnScope {
                name,
                head: i,
                body: (open, match_brace[open]),
            });
        }
    }
}

/// Collects `loop`/`while`/`for` body spans.
fn find_loops(toks: &[Token], match_brace: &[usize], out: &mut Vec<LoopScope>) {
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident
            && matches!(toks[i].text.as_str(), "loop" | "while" | "for"))
        {
            continue;
        }
        // `for` in `impl Trait for T` is not a loop: its body brace is an
        // impl block. Disambiguate by the preceding token.
        if toks[i].text == "for"
            && i > 0
            && (toks[i - 1].kind == TokKind::Ident || toks[i - 1].text == ">")
        {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => {
                    out.push(LoopScope {
                        line: toks[i].line,
                        head: i,
                        body: (j, match_brace[j]),
                    });
                    break;
                }
                ";" if depth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
    }
}

/// True when tokens at `i` are an empty-parens lock call: `. lock ( )`.
fn is_lock_call(toks: &[Token], i: usize) -> bool {
    toks[i].text == "."
        && toks
            .get(i + 1)
            .is_some_and(|t| t.kind == TokKind::Ident && LOCK_METHODS.contains(&t.text.as_str()))
        && toks.get(i + 2).is_some_and(|t| t.text == "(")
        && toks.get(i + 3).is_some_and(|t| t.text == ")")
}

/// The lock identity for the call at `.`-token `i`: the last plain ident
/// of the receiver chain (`slow` for `self.slow.lock()`), skipping one
/// balanced `(…)`/`[…]` group (`shard` for `self.shard(k).lock()`).
fn lock_identity(toks: &[Token], i: usize) -> String {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match toks[j].text.as_str() {
            ")" | "]" => {
                let close = toks[j].text.clone();
                let open = if close == ")" { "(" } else { "[" };
                let mut depth = 1i32;
                while j > 0 && depth > 0 {
                    j -= 1;
                    if toks[j].text == close {
                        depth += 1;
                    } else if toks[j].text == open {
                        depth -= 1;
                    }
                }
                continue;
            }
            _ => {}
        }
        if toks[j].kind == TokKind::Ident {
            return toks[j].text.clone();
        }
        return "?".to_owned();
    }
    "?".to_owned()
}

/// Collects every lock acquisition site.
fn find_acquisitions(toks: &[Token], out: &mut Vec<Acquisition>) {
    for i in 0..toks.len() {
        if is_lock_call(toks, i) {
            out.push(Acquisition {
                lock: lock_identity(toks, i),
                tok: i + 1,
                line: toks[i + 1].line,
            });
        }
    }
}

/// Collects guard bindings: a `let` (plain, `if let`, or `while let`)
/// whose initializer contains a lock acquisition. The guard is live from
/// the acquisition to the end of the enclosing block (plain `let`) or the
/// bound block (`if let`/`while let`), truncated by `drop(var)`.
fn find_guards(toks: &[Token], match_brace: &[usize], enclosing: &[usize]) -> Vec<GuardBinding> {
    let last = toks.len().saturating_sub(1);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "let") {
            continue;
        }
        let conditional = i > 0
            && toks[i - 1].kind == TokKind::Ident
            && matches!(toks[i - 1].text.as_str(), "if" | "while");
        // Pattern: tokens between `let` and the first `=` at depth 0
        // (`==` is a distinct token, so plain comparisons cannot confuse
        // this).
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut eq = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                "=" if depth <= 0 => {
                    eq = Some(j);
                    break;
                }
                ";" | "{" if depth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(eq) = eq else { continue };
        let var = pattern_var(&toks[i + 1..eq]);
        // Initializer: from `=` to the statement end — `;` at depth 0 for
        // a plain let, the body `{` at depth 0 for `if let`/`while let`.
        let mut depth = 0i32;
        let mut k = eq + 1;
        let mut end = None;
        let mut inner_let = false;
        let mut acquisition: Option<(usize, u32, String)> = None;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 && conditional => {
                    end = Some(k);
                    break;
                }
                "{" => depth += 1,
                "}" => depth -= 1,
                // A nested `let` inside a block-expression initializer
                // owns any acquisition after it (`let v = { let g =
                // m.lock(); … }` does not make `v` a guard).
                "let" => inner_let = true,
                ";" if depth <= 0 => {
                    end = Some(k);
                    break;
                }
                _ => {}
            }
            if !inner_let && acquisition.is_none() && is_lock_call(toks, k) {
                acquisition = Some((k + 1, toks[k + 1].line, lock_identity(toks, k)));
            }
            k += 1;
        }
        let (Some(end), Some((acq_tok, acq_line, lock))) = (end, acquisition) else {
            continue;
        };
        let Some(var) = var else { continue };
        // Live range: binding statement end to the drop scope's close.
        let live_end = if conditional && toks[end].text == "{" {
            match_brace.get(end).copied().unwrap_or(end)
        } else {
            enclosing.get(i).copied().unwrap_or(last)
        };
        let live_end = truncate_at_drop(toks, &var, end, live_end);
        out.push(GuardBinding {
            var,
            lock,
            line: acq_line,
            live: (acq_tok, live_end.max(acq_tok)),
        });
    }
    out
}

/// The guard variable bound by a `let` pattern: the last ident that is not
/// a binding keyword or an enum constructor (`Ok(mut guard)` → `guard`).
/// `None` for `_` or patterns with no plain binding.
fn pattern_var(pattern: &[Token]) -> Option<String> {
    pattern
        .iter()
        .rev()
        .find(|t| {
            t.kind == TokKind::Ident
                && !matches!(
                    t.text.as_str(),
                    "mut" | "ref" | "box" | "Ok" | "Err" | "Some" | "None" | "_"
                )
                && !t.text.chars().next().is_some_and(char::is_uppercase)
        })
        .map(|t| t.text.clone())
}

/// Truncates a guard's live range at an explicit `drop(var)` call.
fn truncate_at_drop(toks: &[Token], var: &str, from: usize, live_end: usize) -> usize {
    let mut i = from;
    while i + 3 <= live_end && i + 3 < toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "drop"
            && toks[i + 1].text == "("
            && toks[i + 2].text == var
            && toks[i + 3].text == ")"
        {
            return i;
        }
        i += 1;
    }
    live_end
}

/// Line spans `[start, end]` of `#[cfg(test)] mod … { … }` blocks — the
/// scoping every rule shares for test exemptions.
pub(crate) fn test_mod_spans(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
            && toks[i + 4].text == "test"
            && toks[i + 5].text == ")"
            && toks[i + 6].text == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Find the `{` that opens the annotated item (skipping further
        // attributes and the item header), then brace-match.
        let mut j = i + 7;
        while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
            j += 1;
        }
        if j >= toks.len() || toks[j].text == ";" {
            i = j;
            continue;
        }
        let start = toks[i].line;
        let mut depth = 0i32;
        let mut end = toks[j].line;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end = toks[j].line;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        spans.push((start, end));
        i = j + 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scopes(src: &str) -> ScopeAnalysis {
        analyze(&lex(src))
    }

    #[test]
    fn functions_and_bodies_are_spanned() {
        let s = scopes("fn a() { x(); }\nimpl T { fn b(&self) -> u8 { 0 } }\ntrait Q { fn c(); }");
        let names: Vec<&str> = s.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        for f in &s.functions {
            assert!(f.body.0 <= f.body.1);
        }
    }

    #[test]
    fn guard_binding_spans_to_block_end() {
        let s = scopes("fn f(m: &Mutex<u8>) {\n let g = m.lock().unwrap();\n use_it(&g);\n}\n");
        assert_eq!(s.guards.len(), 1);
        let g = &s.guards[0];
        assert_eq!(g.var, "g");
        assert_eq!(g.lock, "m");
        assert_eq!(g.line, 2);
    }

    #[test]
    fn match_wrapped_and_if_let_bindings_are_found() {
        let s = scopes(
            "fn f() {\n let guard = match rx.lock() { Ok(g) => g, Err(_) => return };\n\
             if let Ok(mut slot) = cell.lock() { *slot = None; }\n}\n",
        );
        let vars: Vec<&str> = s.guards.iter().map(|g| g.var.as_str()).collect();
        assert_eq!(vars, vec!["guard", "slot"]);
        assert_eq!(s.guards[0].lock, "rx");
        assert_eq!(s.guards[1].lock, "cell");
    }

    #[test]
    fn empty_parens_distinguish_locks_from_io() {
        let s = scopes(
            "fn f() { let a = rw.read().unwrap(); let n = sock.read(&mut buf).unwrap(); }\n",
        );
        assert_eq!(s.guards.len(), 1);
        assert_eq!(s.guards[0].lock, "rw");
        assert_eq!(s.acquisitions.len(), 1);
    }

    #[test]
    fn drop_truncates_liveness() {
        let s = scopes("fn f() {\n let g = m.lock().unwrap();\n drop(g);\n blocking();\n}\n");
        let g = &s.guards[0];
        let drop_tok = s.guards[0].live.1;
        // The live range ends at the `drop` keyword, before `blocking`.
        assert!(g.live.0 < drop_tok);
        let lexed = lex("fn f() {\n let g = m.lock().unwrap();\n drop(g);\n blocking();\n}\n");
        assert_eq!(lexed.tokens[drop_tok].text, "drop");
    }

    #[test]
    fn underscore_bindings_are_not_guards() {
        let s = scopes("fn f() { let _ = m.lock(); }\n");
        assert!(s.guards.is_empty());
        assert_eq!(s.acquisitions.len(), 1);
    }

    #[test]
    fn loops_are_spanned_and_nested_lookup_works() {
        let src = "fn f() { for i in 0..n { while go { work(); } } }\nimpl Display for T {}\n";
        let s = scopes(src);
        assert_eq!(s.loops.len(), 2, "impl-for is not a loop: {:?}", s.loops);
        let inner = &s.loops[1];
        let enclosing = s.loops_containing(inner.body.0 + 1);
        assert_eq!(enclosing.len(), 2);
    }

    #[test]
    fn unbalanced_input_yields_clamped_spans() {
        for src in [
            "fn f() { let g = m.lock();",
            "}}}{{{",
            "fn {",
            "let g = m.lock(",
        ] {
            let s = scopes(src);
            for f in &s.functions {
                assert!(f.body.0 <= f.body.1);
            }
            for g in &s.guards {
                assert!(g.live.0 <= g.live.1);
            }
            for l in &s.loops {
                assert!(l.body.0 <= l.body.1);
            }
        }
    }

    #[test]
    fn shard_call_receivers_resolve_to_the_method_name() {
        let s = scopes("fn f() { let g = self.shard(key).lock().unwrap(); }\n");
        assert_eq!(s.guards[0].lock, "shard");
    }
}
