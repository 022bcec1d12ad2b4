//! The flow-aware rules: what must not happen *while something is live*.
//!
//! | id | rule | scope |
//! |----|------|-------|
//! | R8 `guard-across-blocking` | a live lock guard spans a blocking call | library code |
//! | R10 `unpolled-loop` | a loop evaluates the model without polling cancellation | handler/job library code |
//! | R11 `counter-leak` | a gauge is incremented but an early `return` skips the decrement | library code |
//!
//! All three run on the [`scope`](crate::scope) tracker's output. The
//! fourth flow rule, R9 `lock-order-inversion`, needs the *whole
//! workspace*: this module only extracts each file's nested-acquisition
//! edges ([`lock_edges`]); the graph lives in [`graph`](crate::graph).
//!
//! **R8.** A `MutexGuard`/`RwLock` guard held across `thread::sleep`,
//! socket I/O (`.accept(`, `.connect(`, `.read_to_end(`), a channel
//! `.recv(`, or a cold model evaluation (`delta_vth*`) serializes every
//! other acquirer behind an operation with unbounded latency. The fix is
//! almost always scope narrowing: bind the guard in a block, copy what is
//! needed, and drop it before blocking.
//!
//! **R10.** Handler and job code runs under cooperative cancellation
//! (`CancelToken`/`Deadline`); a loop that evaluates the model without a
//! per-iteration poll (`is_cancelled`, `fire_if_due`, `is_due`) turns the
//! watchdog into a no-op for exactly the iterations that dominate wall
//! time. A poll in any enclosing loop of the same function satisfies the
//! rule (chunked designs poll per chunk).
//!
//! **R11.** The serving tier's metrics ledger must balance: a gauge
//! incremented on an entry path (`*_enqueued`, `fetch_add` on a paired
//! atomic) must be decremented — or handed to a drop guard (`adopt*`) —
//! on *every* path out. The chaos suite asserts this dynamically; R11
//! catches the early `return` between the increment and its balance point
//! statically. A function is only checked when it contains the balance
//! point itself, so split enter/exit helpers stay legal.

use crate::diag::Diagnostic;
use crate::graph::LockEdge;
use crate::lexer::{Lexed, TokKind, Token};
use crate::rules::{FileKind, FileOpts};
use crate::scope::{test_mod_spans, ScopeAnalysis};

/// Channel/socket method names that block with unbounded latency.
const BLOCKING_METHODS: [&str; 5] = ["recv", "recv_timeout", "accept", "connect", "read_to_end"];

/// Idents that poll cooperative cancellation.
const POLL_IDENTS: [&str; 3] = ["is_cancelled", "fire_if_due", "is_due"];

/// Method-name suffix pairs that form an entry/exit gauge.
const GAUGE_SUFFIX_PAIRS: [(&str, &str); 4] = [
    ("_enqueued", "_dequeued"),
    ("_acquired", "_released"),
    ("_entered", "_exited"),
    ("_started", "_finished"),
];

/// Runs the per-file flow rules (R8, R10, R11).
pub fn check(
    file: &str,
    lexed: &Lexed,
    scopes: &ScopeAnalysis,
    opts: &FileOpts,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if opts.kind != FileKind::Library {
        return out;
    }
    let toks = &lexed.tokens;
    let test_spans = test_mod_spans(toks);
    let in_test = |line: u32| test_spans.iter().any(|&(a, b)| line >= a && line <= b);

    check_guard_across_blocking(file, toks, scopes, &in_test, &mut out);
    if opts.handler || opts.job {
        check_unpolled_loops(file, toks, scopes, &in_test, &mut out);
    }
    check_counter_leaks(file, toks, scopes, &in_test, &mut out);
    out
}

/// Extracts this file's lock-nesting edges for the workspace R9 graph:
/// one edge per (guard live over `first`, acquisition of `second`) pair.
pub fn lock_edges(lexed: &Lexed, scopes: &ScopeAnalysis, opts: &FileOpts) -> Vec<LockEdge> {
    if opts.kind != FileKind::Library {
        return Vec::new();
    }
    let test_spans = test_mod_spans(&lexed.tokens);
    let in_test = |line: u32| test_spans.iter().any(|&(a, b)| line >= a && line <= b);
    let mut edges = Vec::new();
    for g in &scopes.guards {
        if g.lock == "?" || in_test(g.line) {
            continue;
        }
        for a in &scopes.acquisitions {
            if a.tok > g.live.0
                && a.tok <= g.live.1
                && a.lock != g.lock
                && a.lock != "?"
                && !in_test(a.line)
            {
                edges.push(LockEdge {
                    first: g.lock.clone(),
                    second: a.lock.clone(),
                    first_line: g.line,
                    second_line: a.line,
                });
            }
        }
    }
    edges
}

/// True when the ident at `i` names a cold model evaluation.
fn is_model_eval(toks: &[Token], i: usize) -> bool {
    toks[i].kind == TokKind::Ident
        && toks[i].text.starts_with("delta_vth")
        && toks.get(i + 1).is_some_and(|t| t.text == "(")
}

/// The blocking operation starting at token `i`, if any: a short label
/// for the diagnostic, or `None`.
fn blocking_op(toks: &[Token], i: usize) -> Option<String> {
    let t = &toks[i];
    if t.kind == TokKind::Ident
        && t.text == "thread"
        && toks.get(i + 1).is_some_and(|t| t.text == "::")
        && toks.get(i + 2).is_some_and(|t| t.text == "sleep")
    {
        return Some("thread::sleep".to_owned());
    }
    if t.text == "."
        && toks.get(i + 1).is_some_and(|t| {
            t.kind == TokKind::Ident && BLOCKING_METHODS.contains(&t.text.as_str())
        })
        && toks.get(i + 2).is_some_and(|t| t.text == "(")
    {
        return Some(format!(".{}(", toks[i + 1].text));
    }
    if is_model_eval(toks, i) {
        return Some(format!("{}(", t.text));
    }
    None
}

/// R8: a live guard spans a blocking call.
fn check_guard_across_blocking(
    file: &str,
    toks: &[Token],
    scopes: &ScopeAnalysis,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    for g in &scopes.guards {
        if in_test(g.line) {
            continue;
        }
        for i in (g.live.0 + 1)..=g.live.1.min(toks.len().saturating_sub(1)) {
            let Some(op) = blocking_op(toks, i) else {
                continue;
            };
            let site = if toks[i].text == "." { i + 1 } else { i };
            if in_test(toks[site].line) {
                continue;
            }
            out.push(Diagnostic {
                file: file.to_owned(),
                line: toks[site].line,
                col: toks[site].col,
                rule: "guard-across-blocking",
                message: format!(
                    "guard `{}` on lock `{}` (acquired line {}) is still live across `{op}` — \
                     every other acquirer now waits on this call; narrow the guard's scope or \
                     `drop({})` first",
                    g.var, g.lock, g.line, g.var
                ),
            });
        }
    }
}

/// R10: a loop evaluates the model with no cancellation poll in its body
/// or any enclosing loop of the same function.
fn check_unpolled_loops(
    file: &str,
    toks: &[Token],
    scopes: &ScopeAnalysis,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    let contains_poll = |range: (usize, usize)| {
        toks[range.0..=range.1.min(toks.len().saturating_sub(1))]
            .iter()
            .any(|t| t.kind == TokKind::Ident && POLL_IDENTS.contains(&t.text.as_str()))
    };
    for l in &scopes.loops {
        if in_test(l.line) || l.body.0 >= toks.len() {
            continue;
        }
        let eval = (l.body.0..=l.body.1.min(toks.len().saturating_sub(1)))
            .find(|&i| is_model_eval(toks, i));
        let Some(eval) = eval else { continue };
        // The *innermost* loop around the evaluation owns the finding;
        // outer loops would double-report the same site.
        let innermost = scopes
            .loops_containing(eval)
            .into_iter()
            .max_by_key(|c| c.body.0)
            .map(|c| c.head);
        if innermost != Some(l.head) {
            continue;
        }
        let polled = scopes
            .loops_containing(eval)
            .iter()
            .any(|c| contains_poll(c.body));
        if polled {
            continue;
        }
        out.push(Diagnostic {
            file: file.to_owned(),
            line: toks[eval].line,
            col: toks[eval].col,
            rule: "unpolled-loop",
            message: format!(
                "loop (line {}) evaluates `{}` without polling a `CancelToken`/`Deadline` — \
                 the watchdog cannot cancel what never polls; check `is_cancelled`/`fire_if_due` \
                 each iteration (or once per chunk in an enclosing loop)",
                l.line, toks[eval].text
            ),
        });
    }
}

/// A gauge increment or decrement call site.
struct GaugeCall {
    /// Gauge identity: the receiver ident for `fetch_add`/`fetch_sub`,
    /// the method stem for suffix pairs (`conn` for `conn_enqueued`).
    id: String,
    /// Token index of the method-name ident.
    tok: usize,
    /// True for the increment side.
    inc: bool,
}

/// Collects every gauge-shaped call in the file.
fn gauge_calls(toks: &[Token]) -> Vec<GaugeCall> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "."
            || toks.get(i + 1).is_none_or(|t| t.kind != TokKind::Ident)
            || toks.get(i + 2).is_none_or(|t| t.text != "(")
        {
            continue;
        }
        let name = toks[i + 1].text.as_str();
        if name == "fetch_add" || name == "fetch_sub" {
            // Identity: the atomic's field/variable name before the dot.
            if let Some(prev) = i.checked_sub(1).and_then(|k| toks.get(k)) {
                if prev.kind == TokKind::Ident {
                    out.push(GaugeCall {
                        id: prev.text.clone(),
                        tok: i + 1,
                        inc: name == "fetch_add",
                    });
                }
            }
            continue;
        }
        for (inc_suffix, dec_suffix) in GAUGE_SUFFIX_PAIRS {
            if let Some(stem) = name.strip_suffix(inc_suffix) {
                out.push(GaugeCall {
                    id: stem.to_owned(),
                    tok: i + 1,
                    inc: true,
                });
            } else if let Some(stem) = name.strip_suffix(dec_suffix) {
                out.push(GaugeCall {
                    id: stem.to_owned(),
                    tok: i + 1,
                    inc: false,
                });
            }
        }
    }
    out
}

/// R11: within a function that both increments a gauge and balances it
/// later (decrement or `adopt*` drop-guard handoff), an intervening
/// `return` leaks the increment.
fn check_counter_leaks(
    file: &str,
    toks: &[Token],
    scopes: &ScopeAnalysis,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    let calls = gauge_calls(toks);
    // A gauge is only a gauge when the file holds both sides.
    let is_gauge = |id: &str| {
        calls.iter().any(|c| c.inc && c.id == id) && calls.iter().any(|c| !c.inc && c.id == id)
    };
    let is_handoff = |t: &Token| t.kind == TokKind::Ident && t.text.contains("adopt");
    for call in calls.iter().filter(|c| c.inc && is_gauge(&c.id)) {
        if in_test(toks[call.tok].line) {
            continue;
        }
        let Some(f) = scopes.function_of(call.tok) else {
            continue;
        };
        let body_end = f.body.1.min(toks.len().saturating_sub(1));
        // The balance point: the next decrement or handoff of this gauge
        // in the same function. Without one the function is an
        // enter-only helper and stays out of scope.
        let balance = calls
            .iter()
            .find(|c| !c.inc && c.id == call.id && c.tok > call.tok && c.tok <= body_end);
        let handoff = (call.tok + 1..=body_end).find(|&i| is_handoff(&toks[i]));
        let balance_tok = match (balance.map(|c| c.tok), handoff) {
            (Some(b), Some(h)) => b.min(h),
            (Some(b), None) => b,
            (None, Some(h)) => h,
            (None, None) => continue,
        };
        for i in (call.tok + 1)..balance_tok {
            let t = &toks[i];
            if t.kind == TokKind::Ident && t.text == "return" && !in_test(t.line) {
                out.push(Diagnostic {
                    file: file.to_owned(),
                    line: t.line,
                    col: t.col,
                    rule: "counter-leak",
                    message: format!(
                        "gauge `{}` incremented at line {} has no decrement or drop-guard \
                         handoff before this `return` — the metrics ledger can never balance \
                         again; decrement on the early path or adopt a guard first",
                        call.id, toks[call.tok].line
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope;

    fn lib() -> FileOpts {
        FileOpts {
            kind: FileKind::Library,
            handler: false,
            job: false,
        }
    }

    fn job() -> FileOpts {
        FileOpts { job: true, ..lib() }
    }

    fn run(src: &str, opts: FileOpts) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let scopes = scope::analyze(&lexed);
        check("f.rs", &lexed, &scopes, &opts)
    }

    #[test]
    fn r8_flags_guard_across_sleep_and_recv() {
        let src = "pub fn f(m: &Mutex<u8>, rx: &Mutex<Receiver<u8>>) {\n\
                   let g = m.lock().unwrap();\n\
                   thread::sleep(d);\n\
                   let q = rx.lock().unwrap();\n\
                   let item = q.recv();\n\
                   }\n";
        let d = run(src, lib());
        let r8: Vec<_> = d
            .iter()
            .filter(|d| d.rule == "guard-across-blocking")
            .collect();
        // g spans sleep + recv; q spans recv.
        assert_eq!(r8.len(), 3, "{d:?}");
        assert_eq!(r8[0].line, 3);
    }

    #[test]
    fn r8_respects_drop_and_scoping() {
        let src = "pub fn f(m: &Mutex<u8>) {\n\
                   let g = m.lock().unwrap();\n\
                   let v = *g;\n\
                   drop(g);\n\
                   thread::sleep(d);\n\
                   { let h = m.lock().unwrap(); }\n\
                   thread::sleep(d);\n\
                   }\n";
        let d = run(src, lib());
        assert!(d.iter().all(|d| d.rule != "guard-across-blocking"), "{d:?}");
    }

    #[test]
    fn r8_flags_model_eval_under_guard() {
        let src = "pub fn f(c: &Mutex<Cache>) {\n\
                   let g = c.lock().unwrap();\n\
                   let dv = model.delta_vth(key);\n\
                   }\n";
        let d = run(src, lib());
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("delta_vth"));
    }

    #[test]
    fn r10_flags_unpolled_eval_loops_in_job_code_only() {
        let src = "pub fn f(points: &[P]) {\n\
                   for p in points {\n\
                   let dv = delta_vth(p);\n\
                   }\n\
                   }\n";
        let d = run(src, job());
        assert_eq!(d.iter().filter(|d| d.rule == "unpolled-loop").count(), 1);
        assert!(run(src, lib()).iter().all(|d| d.rule != "unpolled-loop"));
    }

    #[test]
    fn r10_accepts_polls_in_body_or_enclosing_loop() {
        let polled = "pub fn f(points: &[P], cancel: &CancelToken) {\n\
                      for p in points {\n\
                      if cancel.is_cancelled() { return; }\n\
                      let dv = delta_vth(p);\n\
                      }\n\
                      }\n";
        assert!(run(polled, job()).is_empty());
        let chunked = "pub fn f(chunks: &[C], d: &Deadline) {\n\
                       for c in chunks {\n\
                       if d.fire_if_due(now) { return; }\n\
                       for p in c.points { let dv = delta_vth(p); }\n\
                       }\n\
                       }\n";
        assert!(run(chunked, job()).is_empty());
    }

    #[test]
    fn r11_flags_early_return_between_inc_and_dec() {
        let src = "pub fn f(m: &M) -> Result<(), E> {\n\
                   m.conn_enqueued();\n\
                   if full() {\n\
                   return Err(E::Shed);\n\
                   }\n\
                   work();\n\
                   m.conn_dequeued();\n\
                   Ok(())\n\
                   }\n";
        let d = run(src, lib());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "counter-leak");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn r11_accepts_balanced_paths_handoffs_and_split_helpers() {
        let balanced = "pub fn f(m: &M) {\n\
                        m.conn_enqueued();\n\
                        if full() { m.conn_dequeued(); return; }\n\
                        work();\n\
                        m.conn_dequeued();\n\
                        }\n";
        assert!(run(balanced, lib()).is_empty());
        let handoff = "pub fn f(m: &M) {\n\
                       m.conn_enqueued();\n\
                       let _g = m.adopt_inflight();\n\
                       if full() { return; }\n\
                       m.conn_dequeued();\n\
                       }\n";
        assert!(run(handoff, lib()).is_empty());
        // Enter-only helper: the dec lives in another function.
        let split = "pub fn enter(m: &M) { m.conn_enqueued(); if x { return; } }\n\
                     pub fn leave(m: &M) { m.conn_dequeued(); }\n";
        assert!(run(split, lib()).is_empty());
    }

    #[test]
    fn r11_ignores_monotone_counters() {
        let src = "pub fn f(m: &M) {\n\
                   m.requests.fetch_add(1, Relaxed);\n\
                   if bad() { return; }\n\
                   work();\n\
                   }\n";
        assert!(run(src, lib()).is_empty());
    }

    #[test]
    fn lock_edges_record_nesting_order() {
        let src = "pub fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                   let ga = a.lock().unwrap();\n\
                   let gb = b.lock().unwrap();\n\
                   }\n";
        let lexed = lex(src);
        let scopes = scope::analyze(&lexed);
        let edges = lock_edges(&lexed, &scopes, &lib());
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!(
            (edges[0].first.as_str(), edges[0].second.as_str()),
            ("a", "b")
        );
    }
}
