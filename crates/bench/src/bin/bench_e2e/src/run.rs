//! What one workload run hands back: end-to-end metrics, the failure
//! tally, and (traced runs) the layer ledger, client spans and the raw
//! program dumps for the trace file.

use std::time::{Duration, Instant};

use crate::stats::{END_TO_END, TIMINGS};

/// Untimed load before every timed window.
pub const WARMUP: Duration = Duration::from_secs(2);

/// Attempted/failed operation counts. A failed check is a failed
/// operation, never a panic; the first few messages are kept for stderr.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// A failure not tied to a separately counted attempt.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    /// Adds another tally's counts (and messages, up to the same cap).
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }
}

/// One client-side span: a call from the benchmark into `relia`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Most recent client spans of one thread, kept in memory until exit.
pub struct SpanRing {
    epoch: Instant,
    cap: usize,
    spans: Vec<Span>,
    next: usize,
}

impl SpanRing {
    /// Retains up to `cap` spans; `cap == 0` records nothing.
    pub fn new(epoch: Instant, cap: usize) -> SpanRing {
        SpanRing {
            epoch,
            cap,
            spans: Vec::with_capacity(cap),
            next: 0,
        }
    }

    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.cap == 0 {
            return;
        }
        let span = Span {
            name,
            start_ns: nanos(start - self.epoch),
            dur_ns: nanos(end - start),
        };
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.spans[self.next] = span;
            self.next = (self.next + 1) % self.cap;
        }
    }

    pub fn into_spans(mut self) -> Vec<Span> {
        self.spans.rotate_left(self.next);
        self.spans
    }
}

pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One row of a traced run's layer ledger.
pub struct LedgerRow {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: &'static str,
}

impl LedgerRow {
    pub fn new(name: &str, value: f64, unit: &'static str, note: &'static str) -> LedgerRow {
        LedgerRow {
            name: name.to_owned(),
            value,
            unit,
            note,
        }
    }
}

/// Where one operation's mean time went, as the program itself reports
/// it; `residual_us` is what no layer accounts for.
pub struct Ledger {
    /// "request" or "run": the unit the rows are averaged over.
    pub per: &'static str,
    pub rows: Vec<LedgerRow>,
    pub e2e_mean_us: f64,
    pub explained_us: f64,
}

impl Ledger {
    pub fn residual_us(&self) -> f64 {
        self.e2e_mean_us - self.explained_us
    }

    /// The layers explain the client-side mean to within 10%.
    pub fn reconciles(&self) -> bool {
        self.e2e_mean_us > 0.0 && (self.residual_us() / self.e2e_mean_us).abs() <= 0.10
    }
}

/// Result of one workload run.
pub struct RunResult {
    pub tally: Tally,
    /// Values in [`END_TO_END`] order.
    pub e2e: [f64; END_TO_END.len()],
    /// What each end-to-end metric measures on this workload.
    pub what: [&'static str; END_TO_END.len()],
    /// Values in [`TIMINGS`] order, over the timed window.
    pub timing: [f64; TIMINGS.len()],
    /// The unit of work the timings are for.
    pub timed: &'static str,
    /// Workload-specific rows printed beside the end-to-end table.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Traced runs only.
    pub ledger: Option<Ledger>,
    pub spans: Vec<Span>,
    /// Raw JSON values for the trace file, by key.
    pub dumps: Vec<(&'static str, String)>,
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sorted-sample quantile in microseconds (0 when there are no samples).
pub fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    crate::stats::quantile(sorted_ns, q).map_or(0.0, |ns| ns / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ring_keeps_the_most_recent_in_order() {
        let epoch = Instant::now();
        let mut ring = SpanRing::new(epoch, 3);
        let names = ["a", "b", "c", "d", "e"];
        for name in names {
            let now = Instant::now();
            ring.record(name, now, now);
        }
        let kept: Vec<&str> = ring.into_spans().iter().map(|s| s.name).collect();
        assert_eq!(kept, ["c", "d", "e"]);
        let mut off = SpanRing::new(epoch, 0);
        off.record("x", epoch, epoch);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn json_strings_escape_controls_and_quotes() {
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn ledger_reconciles_within_ten_percent() {
        let ledger = |e2e, explained| Ledger {
            per: "request",
            rows: vec![],
            e2e_mean_us: e2e,
            explained_us: explained,
        };
        assert!(ledger(10.0, 9.2).reconciles());
        assert!(!ledger(10.0, 8.5).reconciles());
        assert!((ledger(10.0, 8.5).residual_us() - 1.5).abs() < 1e-12);
    }
}
