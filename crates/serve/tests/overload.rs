//! Overload-control integration: brownout mode and the health state
//! machine, driven through the real `handle` router with an evaluator the
//! test controls.

#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use relia_core::{CancelToken, Deadline, Kelvin, StressKey};
use relia_jobs::ShardedCache;
use relia_serve::{
    handle, DegradeQuery, HealthState, ModelEval, Request, Response, ServeState,
    DEFAULT_BROWNOUT_HIGH_WATER,
};

/// A counting evaluator that answers 0.0145 V for every key but one, which
/// it refuses every time, as a deterministic model refusal would.
struct CountingEval {
    refused: Option<StressKey>,
    calls: AtomicUsize,
}

impl CountingEval {
    fn new(refused: Option<StressKey>) -> Self {
        CountingEval {
            refused,
            calls: AtomicUsize::new(0),
        }
    }

    fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl ModelEval for CountingEval {
    fn delta_vth(&self, key: StressKey) -> Result<f64, String> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.refused == Some(key) {
            Err("refused operating point".to_owned())
        } else {
            Ok(0.0145)
        }
    }
}

fn query(t_standby: f64) -> DegradeQuery {
    DegradeQuery {
        ras: (1.0, 9.0),
        t_standby_k: Kelvin(t_standby),
        lifetime_s: 1.0e8,
        p_active: 0.5,
        p_standby: 1.0,
    }
}

fn degrade_request(t_standby: f64) -> Request {
    Request {
        method: "POST".to_owned(),
        target: "/v1/degrade".to_owned(),
        http11: true,
        headers: vec![],
        body: query(t_standby).to_body().into_bytes(),
    }
}

fn get(path: &str) -> Request {
    Request {
        method: "GET".to_owned(),
        target: path.to_owned(),
        http11: true,
        headers: vec![],
        body: Vec::new(),
    }
}

fn send(state: &ServeState, request: &Request) -> Response {
    let deadline = Deadline::new(CancelToken::new(), Instant::now() + Duration::from_secs(30));
    handle(state, request, &deadline).0
}

fn counting_state(eval: &Arc<CountingEval>, high_water: u64) -> ServeState {
    ServeState::with_eval(
        Arc::new(ShardedCache::default()),
        Arc::clone(eval) as Arc<dyn ModelEval>,
        Duration::from_secs(30),
    )
    .unwrap()
    .with_brownout_high_water(high_water)
}

#[test]
fn one_clients_refused_key_sheds_no_one_else() {
    let refused = query(330.0).stress_key().unwrap();
    let eval = Arc::new(CountingEval::new(Some(refused)));
    let state = counting_state(&eval, DEFAULT_BROWNOUT_HIGH_WATER);

    // The same refusal, evaluated and answered every time.
    for i in 1..=6 {
        assert_eq!(send(&state, &degrade_request(330.0)).status, 500, "{i}");
        assert_eq!(eval.calls(), i);
    }
    // Another client's cold key still evaluates, and health stays green.
    assert_eq!(send(&state, &degrade_request(360.0)).status, 200);
    assert_eq!(eval.calls(), 7);
    let health = send(&state, &get("/healthz"));
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"{\"status\":\"ok\"}");
    assert_eq!(state.snapshot().counter("serve_brownout_sheds"), Some(0));
}

#[test]
fn brownout_serves_memoized_answers_and_sheds_cold_work() {
    let eval = Arc::new(CountingEval::new(None));
    let state = counting_state(&eval, 0);
    // Warm the memo cache directly.
    let warm = query(330.0);
    state
        .cache
        .insert_checked(warm.stress_key().unwrap(), 0.0145)
        .unwrap();

    // Past the (zero) high-water mark: the warmed key gets a full 200
    // through the brownout gate, served from the cache...
    state.overload.conn_enqueued();
    let hit = send(&state, &degrade_request(330.0));
    assert_eq!(hit.status, 200);
    assert!(String::from_utf8(hit.body.clone())
        .unwrap()
        .contains("\"delta_vth_v\":0.0145"));
    assert_eq!(eval.calls(), 0, "served from the cache");
    // ...while a cold key is shed fast with a jittered Retry-After, and
    // without an evaluator call.
    let shed = send(&state, &degrade_request(360.0));
    assert_eq!(shed.status, 503);
    let retry_after = shed.retry_after.expect("shed advertises Retry-After");
    assert!((1..=3).contains(&retry_after), "default jitter is 1..=3");
    assert_eq!(eval.calls(), 0, "shed without evaluating");
    assert_eq!(state.snapshot().counter("serve_brownout_sheds"), Some(1));
}

#[test]
fn queue_congestion_engages_and_releases_brownout() {
    let eval = Arc::new(CountingEval::new(None));
    let state = counting_state(&eval, 0);
    let warm = query(330.0);
    state
        .cache
        .insert_checked(warm.stress_key().unwrap(), 0.0145)
        .unwrap();

    // At the (zero) high-water mark cold work evaluates...
    assert!(!state.overload.queue_congested());
    assert_eq!(send(&state, &degrade_request(360.0)).status, 200);
    assert_eq!(eval.calls(), 1);
    // ...one connection past it, cache hits answer and cold work sheds...
    state.overload.conn_enqueued();
    assert!(state.overload.queue_congested());
    assert_eq!(send(&state, &degrade_request(330.0)).status, 200);
    assert_eq!(send(&state, &degrade_request(390.0)).status, 503);
    assert_eq!(eval.calls(), 1);
    // ...and back under the mark, cold work evaluates again.
    state.overload.conn_dequeued();
    assert!(!state.overload.queue_congested());
    assert_eq!(send(&state, &degrade_request(390.0)).status, 200);
    assert_eq!(eval.calls(), 2);
}

#[test]
fn healthz_reports_degraded_with_retry_after_and_recovers() {
    let eval = Arc::new(CountingEval::new(None));
    let state = counting_state(&eval, 0);
    let transitions = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&transitions);
    state
        .health
        .set_logger(Box::new(move |t| sink.lock().unwrap().push(*t)));
    let healthy = send(&state, &get("/healthz"));
    assert_eq!(healthy.status, 200);
    assert_eq!(healthy.body, b"{\"status\":\"ok\"}");
    assert_eq!(state.health.current(), HealthState::Healthy);

    state.overload.conn_enqueued();
    let degraded = send(&state, &get("/healthz"));
    assert_eq!(degraded.status, 203);
    assert_eq!(degraded.body, b"{\"status\":\"degraded\",\"inflight\":1}");
    assert!(
        degraded.retry_after.is_some(),
        "degraded advertises a retry"
    );
    assert_eq!(state.health.current(), HealthState::Degraded);

    // Recovery: back under the mark, and health walks back to Healthy on
    // the next observation.
    state.overload.conn_dequeued();
    let healthy_again = send(&state, &get("/healthz"));
    assert_eq!(healthy_again.status, 200);
    assert_eq!(healthy_again.body, b"{\"status\":\"ok\"}");
    assert_eq!(state.health.transitions(), 2, "Healthy→Degraded→Healthy");
    assert_eq!(
        state.snapshot().counter("serve_health_transitions"),
        Some(2)
    );
    let log = transitions.lock().unwrap();
    assert_eq!(log[0].from, HealthState::Healthy);
    assert_eq!(log[0].to, HealthState::Degraded);
    assert_eq!(log[1].to, HealthState::Healthy);
}
