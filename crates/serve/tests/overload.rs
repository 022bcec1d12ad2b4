//! Overload-control integration: the circuit breaker, brownout mode, and
//! the health state machine, driven through the real `handle` router with
//! an evaluator whose failures the test controls.

#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use relia_core::{CancelToken, Deadline, Kelvin, StressKey};
use relia_jobs::ShardedCache;
use relia_serve::{
    handle, BreakerState, DegradeQuery, Endpoint, HealthState, ModelEval, OverloadConfig, Request,
    Response, ServeState,
};

/// An evaluator that fails while `broken` is set and heals on demand.
struct FlakyEval {
    broken: AtomicBool,
    calls: AtomicUsize,
}

impl FlakyEval {
    fn new(broken: bool) -> Self {
        FlakyEval {
            broken: AtomicBool::new(broken),
            calls: AtomicUsize::new(0),
        }
    }

    fn heal(&self) {
        self.broken.store(false, Ordering::SeqCst);
    }

    fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl ModelEval for FlakyEval {
    fn delta_vth(&self, _key: StressKey) -> Result<f64, String> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.broken.load(Ordering::SeqCst) {
            Err("injected evaluator failure".to_owned())
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

fn flaky_state(eval: &Arc<FlakyEval>, config: OverloadConfig) -> ServeState {
    ServeState::with_eval(
        Arc::new(ShardedCache::default()),
        Arc::clone(eval) as Arc<dyn ModelEval>,
        Duration::from_secs(30),
    )
    .unwrap()
    .with_overload(config)
}

#[test]
fn consecutive_failures_open_the_breaker_and_shed_cold_work() {
    let eval = Arc::new(FlakyEval::new(true));
    let state = flaky_state(
        &eval,
        OverloadConfig {
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(3600),
            ..OverloadConfig::default()
        },
    );

    // Three failures burn the budget; each is answered 500.
    for i in 0..3 {
        let response = send(&state, &degrade_request(330.0 + f64::from(i)));
        assert_eq!(response.status, 500, "failure {i}");
    }
    assert_eq!(
        state.overload.breaker(Endpoint::Degrade).state(),
        BreakerState::Open
    );

    // Open breaker, cold key, cooldown far away: fast 503 + Retry-After,
    // with no evaluator call.
    let calls_before = eval.calls();
    let response = send(&state, &degrade_request(400.0));
    assert_eq!(response.status, 503);
    let retry_after = response.retry_after.expect("shed advertises Retry-After");
    assert!((1..=3).contains(&retry_after), "default jitter is 1..=3");
    assert_eq!(eval.calls(), calls_before, "shed without evaluating");

    let snapshot = state.snapshot();
    assert_eq!(snapshot.counter("serve_breaker_opens"), Some(1));
    assert_eq!(snapshot.counter("serve_brownout_sheds"), Some(1));
    assert_eq!(
        snapshot.gauge("serve_breaker_state_degrade"),
        Some(2.0),
        "open encodes as gauge 2"
    );
    assert_eq!(snapshot.gauge("serve_breaker_state_sweep"), Some(0.0));
}

#[test]
fn open_breaker_still_serves_memoized_answers() {
    let eval = Arc::new(FlakyEval::new(true));
    let state = flaky_state(
        &eval,
        OverloadConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(3600),
            ..OverloadConfig::default()
        },
    );
    // Warm the memo cache directly (the evaluator itself is broken).
    let warm = query(330.0);
    let key = warm.stress_key().unwrap();
    state.cache.insert_checked(key, 0.0145).unwrap();

    assert_eq!(send(&state, &degrade_request(360.0)).status, 500);
    assert_eq!(
        state.overload.breaker(Endpoint::Degrade).state(),
        BreakerState::Open
    );

    // The warmed key gets a full 200 through the brownout gate...
    let calls_before = eval.calls();
    let hit = send(&state, &degrade_request(330.0));
    assert_eq!(hit.status, 200);
    assert!(String::from_utf8(hit.body.clone())
        .unwrap()
        .contains("\"delta_vth_v\":0.0145"));
    assert_eq!(eval.calls(), calls_before, "served from the cache");
    // ...while a cold key is shed.
    assert_eq!(send(&state, &degrade_request(390.0)).status, 503);
}

#[test]
fn half_open_probe_recovers_a_healed_service() {
    let eval = Arc::new(FlakyEval::new(true));
    let state = flaky_state(
        &eval,
        OverloadConfig {
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(50),
            ..OverloadConfig::default()
        },
    );
    assert_eq!(send(&state, &degrade_request(330.0)).status, 500);
    assert_eq!(send(&state, &degrade_request(331.0)).status, 500);
    assert_eq!(
        state.overload.breaker(Endpoint::Degrade).state(),
        BreakerState::Open
    );

    eval.heal();
    thread::sleep(Duration::from_millis(80));

    // First post-cooldown request is the probe; its success closes the
    // breaker and normal service resumes.
    assert_eq!(send(&state, &degrade_request(332.0)).status, 200);
    assert_eq!(
        state.overload.breaker(Endpoint::Degrade).state(),
        BreakerState::Closed
    );
    assert_eq!(send(&state, &degrade_request(333.0)).status, 200);
}

#[test]
fn a_failed_probe_reopens_the_breaker() {
    let eval = Arc::new(FlakyEval::new(true));
    let state = flaky_state(
        &eval,
        OverloadConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(50),
            ..OverloadConfig::default()
        },
    );
    assert_eq!(send(&state, &degrade_request(330.0)).status, 500);
    thread::sleep(Duration::from_millis(80));
    // Still broken: the probe fails, the breaker reopens, the next
    // request (inside the restarted cooldown) is shed without evaluating.
    assert_eq!(send(&state, &degrade_request(331.0)).status, 500);
    assert_eq!(
        state.overload.breaker(Endpoint::Degrade).state(),
        BreakerState::Open
    );
    let calls_before = eval.calls();
    assert_eq!(send(&state, &degrade_request(332.0)).status, 503);
    assert_eq!(eval.calls(), calls_before);
    assert_eq!(state.snapshot().counter("serve_breaker_opens"), Some(2));
}

#[test]
fn queue_congestion_engages_brownout_with_closed_breakers() {
    let eval = Arc::new(FlakyEval::new(false));
    let state = flaky_state(
        &eval,
        OverloadConfig {
            brownout_high_water: 0,
            ..OverloadConfig::default()
        },
    );
    let warm = query(330.0);
    state
        .cache
        .insert_checked(warm.stress_key().unwrap(), 0.0145)
        .unwrap();

    // Past the (zero) high-water mark: cache hits answer, cold work sheds.
    state.overload.conn_enqueued();
    assert_eq!(send(&state, &degrade_request(330.0)).status, 200);
    assert_eq!(send(&state, &degrade_request(360.0)).status, 503);
    assert_eq!(
        state.overload.breaker(Endpoint::Degrade).state(),
        BreakerState::Closed,
        "brownout here is queue pressure, not breaker state"
    );

    // Back under the mark: cold work evaluates again.
    state.overload.conn_dequeued();
    assert_eq!(send(&state, &degrade_request(360.0)).status, 200);
}

#[test]
fn healthz_reports_degraded_with_retry_after_and_recovers() {
    let eval = Arc::new(FlakyEval::new(true));
    let state = flaky_state(
        &eval,
        OverloadConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(3600),
            ..OverloadConfig::default()
        },
    );
    let transitions = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&transitions);
    state
        .health
        .set_logger(Box::new(move |t| sink.lock().unwrap().push(*t)));
    let healthy = send(&state, &get("/healthz"));
    assert_eq!(healthy.status, 200);
    assert_eq!(healthy.body, b"{\"status\":\"ok\"}");
    assert_eq!(state.health.current(), HealthState::Healthy);

    assert_eq!(send(&state, &degrade_request(330.0)).status, 500);
    let degraded = send(&state, &get("/healthz"));
    assert_eq!(degraded.status, 203);
    let body = String::from_utf8(degraded.body.clone()).unwrap();
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"breaker\":\"open\""), "{body}");
    assert!(
        degraded.retry_after.is_some(),
        "degraded advertises a retry"
    );
    assert_eq!(state.health.current(), HealthState::Degraded);

    // Recovery: close the breaker via a successful settle, and health
    // walks back to Healthy on the next observation.
    eval.heal();
    state.overload.breaker(Endpoint::Degrade).record_success();
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

#[test]
fn endpoint_breakers_are_independent() {
    let eval = Arc::new(FlakyEval::new(true));
    let state = flaky_state(
        &eval,
        OverloadConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(3600),
            ..OverloadConfig::default()
        },
    );
    assert_eq!(send(&state, &degrade_request(330.0)).status, 500);
    assert_eq!(
        state.overload.breaker(Endpoint::Degrade).state(),
        BreakerState::Open
    );
    // Sweep and fleet still run: their breakers never tripped. (The sweep
    // here is a parse failure — a 400 — which must NOT burn their budget.)
    let mut sweep = Request {
        method: "POST".to_owned(),
        target: "/v1/sweep".to_owned(),
        http11: true,
        headers: vec![],
        body: b"{\"nonsense\":true}".to_vec(),
    };
    assert_eq!(send(&state, &sweep).status, 400);
    assert_eq!(
        state.overload.breaker(Endpoint::Sweep).state(),
        BreakerState::Closed,
        "4xx answers do not burn the error budget"
    );
    sweep.body = b"not json at all".to_vec();
    assert_eq!(send(&state, &sweep).status, 400);
    assert_eq!(
        state.overload.breaker(Endpoint::Sweep).state(),
        BreakerState::Closed
    );
}
