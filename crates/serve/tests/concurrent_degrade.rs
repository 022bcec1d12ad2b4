//! Concurrent `/v1/degrade` requests for one cold key. Each request looks
//! its key up in the shared memo cache itself: threads that race on the
//! miss each evaluate the model, but the value is a pure function of the
//! key, so every answer carries the same bytes and the cache counts one hit
//! or one miss per request.

#![allow(clippy::unwrap_used)]

use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use relia_core::{CancelToken, Deadline, Kelvin};
use relia_serve::{handle, Action, DegradeQuery, Request, ServeState};

#[test]
fn concurrent_requests_for_one_cold_key_answer_the_same_bytes() {
    const N: usize = 8;
    let state = ServeState::new(Duration::from_secs(30)).unwrap();
    let query = DegradeQuery {
        ras: (1.0, 9.0),
        t_standby_k: Kelvin(330.0),
        lifetime_s: 1.0e8,
        p_active: 0.5,
        p_standby: 1.0,
    };
    let start = Barrier::new(N);
    let answers: Vec<_> = thread::scope(|scope| {
        let workers: Vec<_> = (0..N)
            .map(|_| {
                scope.spawn(|| {
                    let request = Request {
                        method: "POST".to_owned(),
                        target: "/v1/degrade".to_owned(),
                        http11: true,
                        headers: vec![],
                        body: query.to_body().into_bytes(),
                    };
                    let deadline =
                        Deadline::new(CancelToken::new(), Instant::now() + Duration::from_secs(30));
                    start.wait();
                    handle(&state, &request, &deadline)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    for (response, action) in &answers {
        assert_eq!(
            response.status,
            200,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        assert_eq!(*action, Action::Continue);
        assert_eq!(response.body, answers[0].0.body, "answers differ");
    }
    let snap = state.snapshot();
    let hits = snap.counter("cache_hits").unwrap();
    let misses = snap.counter("cache_misses").unwrap();
    assert!(misses >= 1, "a cold key evaluates at least once");
    assert_eq!(hits + misses, N as u64, "one lookup per request");
}
