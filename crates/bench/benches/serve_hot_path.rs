//! Criterion bench: the `relia-serve` hot request path.
//!
//! The serving claim is that a warm degrade query costs parse + cache
//! lookup + render, not a model evaluation. These benches isolate each
//! stage — HTTP request framing, JSON body parsing, and the full
//! `handle()` dispatch on a warm cache — plus the cold-evaluation
//! baseline, so a regression in any stage of the hot path is visible in
//! isolation.

#![allow(clippy::unwrap_used)]
use std::io::Cursor;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use relia_core::{CancelToken, Deadline, Kelvin};
use relia_serve::{handle, parse_degrade, read_request, DegradeQuery, Limits, Request, ServeState};

const QUERY: DegradeQuery = DegradeQuery {
    ras: (1.0, 9.0),
    t_standby_k: Kelvin(330.0),
    lifetime_s: 1.0e8,
    p_active: 0.5,
    p_standby: 1.0,
};

fn raw_request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/degrade HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn degrade_request(body: &str) -> Request {
    Request {
        method: "POST".to_owned(),
        target: "/v1/degrade".to_owned(),
        http11: true,
        headers: vec![],
        body: body.as_bytes().to_vec(),
    }
}

fn deadline() -> Deadline {
    Deadline::new(CancelToken::new(), Instant::now() + Duration::from_secs(60))
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_hot_path");
    let body = QUERY.to_body();

    // Stage 1: HTTP framing alone.
    let wire = raw_request(&body);
    let limits = Limits::default();
    group.bench_function("http_parse_degrade", |b| {
        b.iter(|| {
            let mut reader = Cursor::new(black_box(wire.as_slice()));
            read_request(&mut reader, &limits).unwrap()
        })
    });

    // Stage 2: JSON body → validated query.
    group.bench_function("json_parse_degrade", |b| {
        b.iter(|| parse_degrade(black_box(body.as_bytes())).unwrap())
    });

    // Stage 3: full dispatch on a warm cache — the steady-state cost of a
    // served query.
    let state = ServeState::new(Duration::from_secs(60)).unwrap();
    let request = degrade_request(&body);
    let warmup = handle(&state, &request, &deadline());
    assert_eq!(warmup.0.status, 200);
    group.bench_function("handle_degrade_warm_cache", |b| {
        b.iter(|| handle(black_box(&state), &request, &deadline()))
    });

    // Baseline: the same dispatch with a cold cache every iteration (one
    // real model evaluation per call). The warm/cold gap is what the
    // shared memo cache buys each served request.
    group.bench_function("handle_degrade_cold_cache", |b| {
        b.iter(|| {
            let cold = ServeState::new(Duration::from_secs(60)).unwrap();
            handle(black_box(&cold), &request, &deadline())
        })
    });

    // Surface tier: the same dispatch answered by multilinear
    // interpolation from a mounted response surface — no model
    // evaluation, no memo cache, just bracket + blend + render. The
    // acceptance claim is >= 100x over the cold baseline.
    let model = relia_core::NbtiModel::ptm90().unwrap();
    let spec = relia_surface::BuildSpec {
        t_standby_k: relia_surface::kelvin_spaced(320.0, 400.0, 9),
        ras_fraction: relia_surface::lin_spaced(0.1, 0.9, 9),
        lifetime_s: relia_surface::log_spaced(1e6, 1e9, 13),
        workers: 2,
        ..relia_surface::BuildSpec::paper_defaults()
    };
    let artifact = relia_surface::build(&model, &spec).unwrap();
    let surface = relia_surface::Surface::from_artifact(artifact).unwrap();
    let surfaced = ServeState::new(Duration::from_secs(60))
        .unwrap()
        .with_surface(surface);
    let warm = handle(&surfaced, &request, &deadline());
    assert_eq!(warm.0.status, 200);
    assert_eq!(
        surfaced.surface().unwrap().hits(),
        1,
        "the bench query must be a surface hit"
    );
    group.bench_function("handle_degrade_surface", |b| {
        b.iter(|| handle(black_box(&surfaced), &request, &deadline()))
    });

    // The lookup alone — what the surface tier substitutes for the model
    // evaluation inside handle_degrade_cold_cache. This pair carries the
    // acceptance claim (>= 100x, gated by `bench_micro --check`); the
    // full-dispatch stages above additionally pay HTTP/JSON framing,
    // which both tiers share.
    let surface_query = relia_surface::SurfaceQuery {
        t_active_k: Kelvin(relia_jobs::SWEEP_TEMP_ACTIVE_K),
        t_standby_k: QUERY.t_standby_k,
        ras_fraction: QUERY.ras.0 / (QUERY.ras.0 + QUERY.ras.1),
        lifetime_s: QUERY.lifetime_s,
        p_active: QUERY.p_active,
        p_standby: QUERY.p_standby,
    };
    let tier = surfaced.surface().unwrap();
    assert!(!tier.surface().lookup(&surface_query).unwrap().clamped);
    group.bench_function("surface_lookup", |b| {
        b.iter(|| tier.surface().lookup(black_box(&surface_query)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
