//! Service-side counters and the Prometheus text exposition.
//!
//! The server's own counters (requests, responses by class, shed load,
//! coalescing) become a [`MetricsSnapshot`] and are merged with the shared
//! memo cache's snapshot from relia-jobs — one typed pipeline from atomic
//! counter to `/metrics` body, no renderer-specific formatting of internal
//! structs.

use std::sync::atomic::{AtomicU64, Ordering};

use relia_core::json::fmt_f64;
use relia_jobs::MetricsSnapshot;
use relia_obs::{hist, HistSnapshot};

/// Monotonic counters of one server instance. All methods are `Relaxed`
/// atomics: these are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections refused with 503 because the task queue was full.
    pub shed: AtomicU64,
    /// Requests parsed and routed.
    pub requests: AtomicU64,
    /// Responses with a 2xx status.
    pub responses_ok: AtomicU64,
    /// Responses with a 4xx status.
    pub responses_client_error: AtomicU64,
    /// Responses with a 5xx status (the shed 503s included).
    pub responses_server_error: AtomicU64,
    /// Requests that blew their evaluation deadline (504).
    pub deadline_exceeded: AtomicU64,
    /// Requests that never parsed but were answered (400/408/413).
    pub parse_errors: AtomicU64,
    /// Reads that timed out mid-message (the 408s, slow dribbles
    /// included).
    pub read_timeouts: AtomicU64,
    /// Response writes that timed out against a stalled peer.
    pub write_timeouts: AtomicU64,
    /// Connections whose peer quit mid-message (truncated request line,
    /// headers, or body).
    pub conn_truncated: AtomicU64,
    /// Connections lost to transport errors (resets, broken pipes).
    pub conn_io_errors: AtomicU64,
    /// Connections dropped because a socket option (read/write timeout)
    /// could not be set — serving such a peer would be unbounded.
    pub sockopt_failures: AtomicU64,
}

impl ServeMetrics {
    /// Bumps `counter` by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a finished response by status class.
    pub fn record_status(&self, status: u16) {
        match status {
            200..=299 => Self::bump(&self.responses_ok),
            400..=499 => Self::bump(&self.responses_client_error),
            _ => Self::bump(&self.responses_server_error),
        }
        if status == 504 {
            Self::bump(&self.deadline_exceeded);
        }
    }

    /// Typed snapshot of every counter, in declaration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MetricsSnapshot {
            counters: vec![
                ("serve_connections", c(&self.connections)),
                ("serve_shed", c(&self.shed)),
                ("serve_requests", c(&self.requests)),
                ("serve_responses_ok", c(&self.responses_ok)),
                (
                    "serve_responses_client_error",
                    c(&self.responses_client_error),
                ),
                (
                    "serve_responses_server_error",
                    c(&self.responses_server_error),
                ),
                ("serve_deadline_exceeded", c(&self.deadline_exceeded)),
                ("serve_parse_errors", c(&self.parse_errors)),
                ("serve_read_timeouts", c(&self.read_timeouts)),
                ("serve_write_timeouts", c(&self.write_timeouts)),
                ("serve_conn_truncated", c(&self.conn_truncated)),
                ("serve_conn_io_errors", c(&self.conn_io_errors)),
                ("serve_sockopt_failures", c(&self.sockopt_failures)),
            ],
            gauges: vec![],
            histograms: vec![],
        }
    }
}

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# TYPE` line then `relia_<name> <value>` per series.
/// Histograms render cumulative `_bucket{le="…"}` lines (upper edges in
/// seconds — samples are stored as nanoseconds), `_sum`, and `_count`.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        out.push_str(&format!(
            "# TYPE relia_{name} counter\nrelia_{name} {value}\n"
        ));
    }
    for (name, value) in &snapshot.gauges {
        out.push_str(&format!(
            "# TYPE relia_{name} gauge\nrelia_{name} {}\n",
            fmt_f64(*value)
        ));
    }
    for (name, h) in &snapshot.histograms {
        render_histogram(&mut out, name, h);
    }
    out
}

/// Appends one Prometheus histogram: cumulative buckets at each *occupied*
/// log2 edge (valid exposition — scrapers only require cumulative counts
/// to be non-decreasing with `le`), then the mandatory `+Inf`/sum/count.
fn render_histogram(out: &mut String, name: &str, h: &HistSnapshot) {
    out.push_str(&format!("# TYPE relia_{name} histogram\n"));
    let mut cumulative = 0u64;
    for (i, &b) in h.buckets.iter().enumerate() {
        if b == 0 {
            continue;
        }
        cumulative += b;
        let (_, hi_ns) = hist::bucket_bounds(i);
        out.push_str(&format!(
            "relia_{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            fmt_f64(hi_ns as f64 / 1e9)
        ));
    }
    out.push_str(&format!("relia_{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
    out.push_str(&format!(
        "relia_{name}_sum {}\n",
        fmt_f64(h.sum_ns as f64 / 1e9)
    ));
    out.push_str(&format!("relia_{name}_count {}\n", h.count));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_names_every_counter() {
        let m = ServeMetrics::default();
        ServeMetrics::bump(&m.connections);
        m.record_status(200);
        m.record_status(404);
        m.record_status(503);
        m.record_status(504);
        let s = m.snapshot();
        assert_eq!(s.counter("serve_connections"), Some(1));
        assert_eq!(s.counter("serve_responses_ok"), Some(1));
        assert_eq!(s.counter("serve_responses_client_error"), Some(1));
        assert_eq!(s.counter("serve_responses_server_error"), Some(2));
        assert_eq!(s.counter("serve_deadline_exceeded"), Some(1));
        ServeMetrics::bump(&m.read_timeouts);
        ServeMetrics::bump(&m.sockopt_failures);
        assert_eq!(
            s.counter("serve_read_timeouts"),
            Some(0),
            "pre-bump snapshot"
        );
        let s = m.snapshot();
        assert_eq!(s.counter("serve_read_timeouts"), Some(1));
        assert_eq!(s.counter("serve_sockopt_failures"), Some(1));
        assert_eq!(s.counter("serve_conn_truncated"), Some(0));
        assert_eq!(s.counters.len(), 13, "every declared counter is exposed");
    }

    #[test]
    fn prometheus_rendering_has_type_lines_and_values() {
        let m = ServeMetrics::default();
        ServeMetrics::bump(&m.requests);
        let merged = m
            .snapshot()
            .merged(relia_jobs::CacheStats::default().snapshot());
        let text = render_prometheus(&merged);
        assert!(text.contains("# TYPE relia_serve_requests counter\nrelia_serve_requests 1\n"));
        assert!(text.contains("# TYPE relia_cache_hits counter\nrelia_cache_hits 0\n"));
        assert!(text.contains("# TYPE relia_cache_hit_rate gauge\nrelia_cache_hit_rate 0\n"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn prometheus_histograms_pin_cumulative_bucket_counts() {
        let h = relia_obs::LatencyHist::new();
        for ns in [1u64, 3, 3, 1000] {
            h.record_ns(ns);
        }
        let snap = MetricsSnapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![("serve_request_seconds", h.snapshot())],
        };
        // 1 ns → bucket [1,2), 3+3 ns → [2,4), 1000 ns → [512,1024):
        // cumulative counts 1, 3, 4 at edges 2 ns, 4 ns, 1024 ns.
        let expected = "# TYPE relia_serve_request_seconds histogram\n\
             relia_serve_request_seconds_bucket{le=\"0.000000002\"} 1\n\
             relia_serve_request_seconds_bucket{le=\"0.000000004\"} 3\n\
             relia_serve_request_seconds_bucket{le=\"0.000001024\"} 4\n\
             relia_serve_request_seconds_bucket{le=\"+Inf\"} 4\n\
             relia_serve_request_seconds_sum 0.000001007\n\
             relia_serve_request_seconds_count 4\n";
        assert_eq!(render_prometheus(&snap), expected);
    }

    #[test]
    fn empty_histogram_still_renders_inf_sum_and_count() {
        let snap = MetricsSnapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![("serve_eval_seconds", HistSnapshot::default())],
        };
        let text = render_prometheus(&snap);
        assert!(text.contains("relia_serve_eval_seconds_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("relia_serve_eval_seconds_sum 0\n"));
        assert!(text.contains("relia_serve_eval_seconds_count 0\n"));
    }
}
