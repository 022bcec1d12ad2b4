//! R9 `lock-order-inversion`: the whole-workspace lock-acquisition graph.
//!
//! Every file contributes edges — one per "guard for lock `first` still
//! live when lock `second` is acquired" pair ([`crate::flow::lock_edges`]).
//! Locks are identified by name (the receiver ident before `.lock()` /
//! `.read()` / `.write()`), so `self.slow.lock()` in two files is one
//! node `slow`. That is deliberately coarse: same-named locks on
//! different types collapse into one node, which can over-report but
//! never under-report — and a pragma documents any accepted collision.
//!
//! A finding is an *edge that participates in a cycle*: `a → b` is
//! reported when some path `b → … → a` also exists anywhere in the
//! workspace. Both sites are named so the fix (pick one order) is
//! actionable from either end. Self-edges never arise (`lock_edges`
//! drops same-name pairs); re-entrant acquisition of one mutex is a
//! deadlock too, but not an *ordering* bug, and R8's scope-narrowing
//! pressure shrinks guard spans until it cannot hide.

use crate::diag::Diagnostic;
use crate::rules::RULE_IDS;
use std::collections::{BTreeMap, BTreeSet};

/// One nested acquisition: the guard for `first` was live when `second`
/// was acquired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock held first (outer).
    pub first: String,
    /// Lock acquired while `first` was held (inner).
    pub second: String,
    /// Line of the outer acquisition.
    pub first_line: u32,
    /// Line of the inner acquisition — the diagnostic site.
    pub second_line: u32,
}

/// Everything the workspace pass needs from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileSummary {
    /// Lock-nesting edges contributed by this file.
    pub edges: Vec<LockEdge>,
    /// `allow(lock-order-inversion)` pragmas, resolved at workspace level.
    pub deferred_allows: Vec<crate::pragma::DeferredAllow>,
}

/// Runs cycle detection over every file's edges and reports each edge
/// that sits on a cycle, at its inner-acquisition site. Pragmas are
/// applied by the caller ([`crate::finish`]), not here.
pub fn check(files: &[(String, FileSummary)]) -> Vec<Diagnostic> {
    // adjacency: lock -> set of locks acquired under it
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (_, summary) in files {
        for e in &summary.edges {
            adj.entry(&e.first).or_default().insert(&e.second);
        }
    }
    let reachable = |from: &str, to: &str| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    // A representative counter-site for the message: some edge out of
    // `b` that lies on a `b -> … -> a` path. With a two-lock inversion
    // this is exactly the opposite-order acquisition.
    let counter_site = |a: &str, b: &str| -> Option<(String, u32)> {
        for (file, summary) in files {
            for e in &summary.edges {
                if e.first == b && reachable(&e.second, a) {
                    return Some((file.clone(), e.second_line));
                }
            }
        }
        None
    };
    let mut out = Vec::new();
    for (file, summary) in files {
        for e in &summary.edges {
            if !reachable(&e.second, &e.first) {
                continue;
            }
            let via = counter_site(&e.first, &e.second)
                .map(|(f, l)| format!("{f}:{l}"))
                .unwrap_or_else(|| "elsewhere in the workspace".to_owned());
            out.push(Diagnostic {
                file: file.clone(),
                line: e.second_line,
                col: 1,
                rule: RULE_IDS[8],
                message: format!(
                    "lock `{}` acquired while `{}` is held (held since line {}), but the \
                     opposite order is taken at {} — pick one nesting order workspace-wide \
                     or these sites can deadlock",
                    e.second, e.first, e.first_line, via
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(first: &str, second: &str, l1: u32, l2: u32) -> LockEdge {
        LockEdge {
            first: first.to_owned(),
            second: second.to_owned(),
            first_line: l1,
            second_line: l2,
        }
    }

    fn file(name: &str, edges: Vec<LockEdge>) -> (String, FileSummary) {
        (
            name.to_owned(),
            FileSummary {
                edges,
                deferred_allows: Vec::new(),
            },
        )
    }

    #[test]
    fn consistent_order_is_clean() {
        let files = vec![
            file("a.rs", vec![edge("slow", "stats", 3, 4)]),
            file("b.rs", vec![edge("slow", "stats", 10, 11)]),
            file("c.rs", vec![edge("stats", "log", 7, 8)]),
        ];
        assert!(check(&files).is_empty());
    }

    #[test]
    fn two_file_inversion_reports_both_sites() {
        let files = vec![
            file("a.rs", vec![edge("slow", "stats", 3, 4)]),
            file("b.rs", vec![edge("stats", "slow", 10, 11)]),
        ];
        let d = check(&files);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!((d[0].file.as_str(), d[0].line), ("a.rs", 4));
        assert!(d[0].message.contains("b.rs:11"), "{}", d[0].message);
        assert_eq!((d[1].file.as_str(), d[1].line), ("b.rs", 11));
        assert!(d[1].message.contains("a.rs:4"), "{}", d[1].message);
    }

    #[test]
    fn three_lock_cycle_reports_every_edge() {
        let files = vec![
            file("a.rs", vec![edge("x", "y", 1, 2)]),
            file("b.rs", vec![edge("y", "z", 1, 2)]),
            file("c.rs", vec![edge("z", "x", 1, 2)]),
        ];
        assert_eq!(check(&files).len(), 3);
    }

    #[test]
    fn diamond_without_cycle_is_clean() {
        let files = vec![file(
            "a.rs",
            vec![
                edge("root", "left", 1, 2),
                edge("root", "right", 3, 4),
                edge("left", "leaf", 5, 6),
                edge("right", "leaf", 7, 8),
            ],
        )];
        assert!(check(&files).is_empty());
    }
}
