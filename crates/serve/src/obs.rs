//! Server-side observability: the span ring behind `GET /debug/trace`,
//! per-phase latency histograms surfaced on `/metrics`, the process
//! uptime gauge, and the slow-request log.
//!
//! One [`ServeObs`] lives on [`ServeState`](crate::service::ServeState).
//! The connection loop opens a `request` span per message and records the
//! `read`, `queue_wait`, and `write` phases; the degrade handler nests
//! `surface`, `evaluate`, and `serialize` under it. Every phase also
//! feeds a [`LatencyHist`], so `/metrics` carries the full latency
//! breakdown as Prometheus histograms while `/debug/trace` shows the most
//! recent individual spans.
//!
//! Recording is always cheap: histograms are relaxed atomics, and a
//! tracer built with capacity 0 allocates ids but stores nothing — the
//! `--trace 0` configuration costs a handful of atomic increments per
//! request.

use std::sync::Mutex;
use std::time::Instant;

use relia_core::json;
use relia_jobs::MetricsSnapshot;
use relia_obs::{fmt_ns, LatencyHist, Tracer};

/// Default span-ring capacity (`--trace` overrides; 0 disables).
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// Where slow-request lines go: the CLI passes stderr, tests pass a
/// collector.
pub type SlowSink = Box<dyn Fn(&str) + Send + Sync>;

/// Per-server observability state: span ring, phase histograms, slow-log
/// threshold, and the start instant behind `process_uptime_seconds`.
pub struct ServeObs {
    /// The span ring behind `GET /debug/trace`.
    pub tracer: Tracer,
    /// Whole-request latency (first byte read → response written).
    pub request: LatencyHist,
    /// Request arrival: first byte → fully parsed.
    pub read: LatencyHist,
    /// Connection queue wait: accepted → claimed by a worker.
    pub queue: LatencyHist,
    /// Surface-tier interpolated lookups on `/v1/degrade`.
    pub surface: LatencyHist,
    /// Exact-path `/v1/degrade` evaluations: the memo-cache lookup, and
    /// the model on a miss.
    pub eval: LatencyHist,
    /// Response-body rendering.
    pub serialize: LatencyHist,
    /// Response write to the socket.
    pub write: LatencyHist,
    slow_ns: u64,
    sink: Mutex<SlowSink>,
    started: Instant,
}

impl std::fmt::Debug for ServeObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeObs")
            .field("tracer", &self.tracer)
            .field("slow_ns", &self.slow_ns)
            .finish()
    }
}

impl Default for ServeObs {
    fn default() -> Self {
        ServeObs::new()
    }
}

impl ServeObs {
    /// Observability at the defaults: a [`DEFAULT_TRACE_CAPACITY`]-slot
    /// span ring, slow-request log off.
    pub fn new() -> Self {
        ServeObs {
            tracer: Tracer::new(DEFAULT_TRACE_CAPACITY),
            request: LatencyHist::new(),
            read: LatencyHist::new(),
            queue: LatencyHist::new(),
            surface: LatencyHist::new(),
            eval: LatencyHist::new(),
            serialize: LatencyHist::new(),
            write: LatencyHist::new(),
            slow_ns: 0,
            sink: Mutex::new(Box::new(|_| {})),
            started: Instant::now(),
        }
    }

    /// Replaces the tracer (builder style) — the CLI sizes the ring from
    /// `--trace N`, tests inject a deterministic clock.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Enables the slow-request log: requests slower than `slow_ms` are
    /// reported through `sink` (builder style; 0 disables).
    #[must_use]
    pub fn with_slow_log(mut self, slow_ms: u64, sink: SlowSink) -> Self {
        self.slow_ns = slow_ms.saturating_mul(1_000_000);
        self.sink = Mutex::new(sink);
        self
    }

    /// Records a finished request into the request histogram and, when it
    /// crossed the slow threshold, emits one slow-log line.
    pub fn observe_request(&self, method: &str, path: &str, status: u16, dur_ns: u64) {
        self.request.record_ns(dur_ns);
        if self.slow_ns > 0 && dur_ns >= self.slow_ns {
            let line = format!(
                "slow request: {method} {path} -> {status} in {} (threshold {} ms)",
                fmt_ns(dur_ns as f64),
                self.slow_ns / 1_000_000
            );
            #[expect(clippy::expect_used, reason = "a poisoned lock is a bug to surface")]
            let sink = self.sink.lock().expect("slow-log sink poisoned");
            sink(&line);
        }
    }

    /// Seconds since this state was built (the `process_uptime_seconds`
    /// gauge).
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The observability slice of `/metrics`: uptime gauge, dropped-span
    /// counter, and every phase histogram (present even when empty, so
    /// dashboards see stable series).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("serve_spans_dropped", self.tracer.dropped())],
            gauges: vec![("process_uptime_seconds", self.uptime_seconds())],
            histograms: vec![
                ("serve_request_seconds", self.request.snapshot()),
                ("serve_read_seconds", self.read.snapshot()),
                ("serve_queue_seconds", self.queue.snapshot()),
                ("serve_surface_seconds", self.surface.snapshot()),
                ("serve_eval_seconds", self.eval.snapshot()),
                ("serve_serialize_seconds", self.serialize.snapshot()),
                ("serve_write_seconds", self.write.snapshot()),
            ],
        }
    }

    /// The `GET /debug/trace` body: the ring's current spans, oldest
    /// first, each with alphabetically ordered keys —
    /// `{"dropped":N,"spans":[{"dur_ns":…,"id":…,"name":…,"parent":…,"start_ns":…}]}`.
    pub fn trace_json(&self) -> String {
        let spans: Vec<String> = self
            .tracer
            .recent()
            .iter()
            .map(|s| {
                format!(
                    "{{\"dur_ns\":{},\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{}}}",
                    s.dur_ns,
                    s.id,
                    json::escape(s.name),
                    s.parent,
                    s.start_ns
                )
            })
            .collect();
        format!(
            "{{\"dropped\":{},\"spans\":[{}]}}",
            self.tracer.dropped(),
            spans.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn snapshot_exposes_uptime_and_every_phase_histogram() {
        let obs = ServeObs::new();
        obs.eval.record_ns(1000);
        let s = obs.snapshot();
        assert!(s.gauge("process_uptime_seconds").is_some());
        assert_eq!(s.counter("serve_spans_dropped"), Some(0));
        assert_eq!(s.histograms.len(), 7);
        assert_eq!(
            s.histogram("serve_surface_seconds").map(|h| h.count),
            Some(0)
        );
        assert_eq!(s.histogram("serve_eval_seconds").map(|h| h.count), Some(1));
        assert_eq!(
            s.histogram("serve_request_seconds").map(|h| h.count),
            Some(0),
            "empty phases still publish a series"
        );
    }

    #[test]
    fn trace_json_is_schema_stable_and_parses() {
        let clock = Arc::new(relia_obs::TestClock::new());
        let obs = ServeObs::new().with_tracer(Tracer::with_clock(8, clock.clone()));
        let root = obs.tracer.span("request");
        clock.advance(50);
        drop(obs.tracer.child("evaluate", root.id()));
        clock.advance(25);
        drop(root);

        let body = obs.trace_json();
        assert_eq!(
            body,
            "{\"dropped\":0,\"spans\":[\
             {\"dur_ns\":75,\"id\":1,\"name\":\"request\",\"parent\":0,\"start_ns\":0},\
             {\"dur_ns\":0,\"id\":2,\"name\":\"evaluate\",\"parent\":1,\"start_ns\":50}]}"
        );
        let parsed = json::parse(body.as_bytes()).unwrap();
        let spans = parsed.get("spans").and_then(json::Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
    }

    #[test]
    fn slow_requests_are_logged_past_the_threshold_only() {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        let obs = ServeObs::new().with_slow_log(
            10,
            Box::new(move |line| sink.lock().unwrap().push(line.to_owned())),
        );
        obs.observe_request("POST", "/v1/degrade", 200, 9_999_999);
        assert!(lines.lock().unwrap().is_empty());
        obs.observe_request("POST", "/v1/degrade", 200, 12_000_000);
        let logged = lines.lock().unwrap();
        assert_eq!(logged.len(), 1);
        assert!(logged[0].contains("POST /v1/degrade -> 200"));
        assert!(logged[0].contains("12"), "duration rendered: {}", logged[0]);
        assert_eq!(obs.request.count(), 2);
    }
}
