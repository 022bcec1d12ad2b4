//! Load generator and end-to-end correctness check for `relia-serve`.
//!
//! Fires a mixed workload (degrade queries over a small grid, inline
//! sweeps, health and metrics probes) at a server and verifies every
//! response **byte for byte** against values computed by direct library
//! calls — the served numbers must be indistinguishable from local ones.
//! At the end it asserts the shared memo cache actually absorbed repeats
//! (hit count > 0) and drains the server gracefully.
//!
//! ```text
//! cargo run --release -p relia-serve --example loadgen            # self-hosted, 10k requests
//! cargo run --release -p relia-serve --example loadgen -- \
//!     --requests 1000 --threads 2 --addr 127.0.0.1:4599          # external server
//! ```
//!
//! Exit code 0 only if every request succeeded, every body matched, and
//! the cache hit rate was non-zero.
//!
//! With `--surface PATH` the self-hosted server mounts a precomputed
//! response surface. Degrade bodies are then checked against the exact
//! oracle within the documented interpolation bound instead of byte for
//! byte, and the run asserts the surface ledger balances: every degrade
//! answer is either a surface hit or an exact fallback, and
//! `clamps <= misses <= fallbacks`.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use relia_core::json::fmt_f64;
use relia_core::{DelayDegradation, Kelvin, NbtiModel, NbtiParams, Seconds};
use relia_flow::{DeltaVthCache, NoCache};
use relia_jobs::{JobTask, SweepSpec, Workload};
use relia_obs::{fmt_ns, HistSnapshot, LatencyHist};
use relia_serve::{degrade_body, DegradeQuery, ServeConfig, ServeState, Server, ServerHandle};

mod common;
use common::{read_response, scrape_counter, write_request};

struct Args {
    requests: usize,
    threads: usize,
    addr: Option<String>,
    surface: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        requests: 10_000,
        threads: 4,
        addr: None,
        surface: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> Result<&str, String> {
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--requests" => {
                args.requests = value(i)?.parse().map_err(|e| format!("--requests: {e}"))?;
                i += 2;
            }
            "--threads" => {
                args.threads = value(i)?.parse().map_err(|e| format!("--threads: {e}"))?;
                if args.threads == 0 {
                    return Err("--threads must be >= 1".to_owned());
                }
                i += 2;
            }
            "--addr" => {
                args.addr = Some(value(i)?.to_owned());
                i += 2;
            }
            "--surface" => {
                args.surface = Some(PathBuf::from(value(i)?));
                i += 2;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// One expected request/response pair, precomputed from direct library
/// calls before the first byte goes over the wire.
#[derive(Clone)]
struct Expected {
    method: &'static str,
    path: &'static str,
    request_body: String,
    /// Exact response body, or `None` for responses checked by content
    /// (e.g. `/metrics`, which contains live counters).
    response_body: Option<String>,
    /// When set, `delta_vth_v` is compared to the oracle within this
    /// relative bound instead of byte for byte — the surface contract.
    tolerance: Option<f64>,
}

/// The degrade-query grid: small enough that every query repeats many
/// times (exercising the memo cache), varied enough to cover the RAS,
/// temperature and stress-probability axes.
fn degrade_grid() -> Vec<DegradeQuery> {
    let mut grid = Vec::new();
    for ras in [(1.0, 9.0), (2.0, 8.0), (5.0, 5.0)] {
        for t_standby in [320.0, 340.0, 360.0, 380.0] {
            // 0.5/1.0 is the pair surface artifacts carry by default, so
            // a `--surface` run exercises hits and fallbacks alike.
            for p_active in [0.3, 0.5, 0.6] {
                grid.push(DegradeQuery {
                    ras,
                    t_standby_k: Kelvin(t_standby),
                    lifetime_s: 1.0e8,
                    p_active,
                    p_standby: 1.0,
                });
            }
        }
    }
    grid
}

/// Computes the exact expected `/v1/degrade` body with no server and no
/// cache in the loop.
fn expected_degrade(query: &DegradeQuery) -> Result<String, String> {
    let model = NbtiModel::ptm90().map_err(|e| e.to_string())?;
    let params = NbtiParams::ptm90().map_err(|e| e.to_string())?;
    let key = query.stress_key()?;
    let dvth = NoCache.delta_vth(key, &model).map_err(|e| e.to_string())?;
    let frac = DelayDegradation::new(&params)
        .linear(dvth)
        .map_err(|e| e.to_string())?;
    Ok(degrade_body(dvth, frac))
}

/// Builds the inline-sweep request plus its exact expected response, by
/// walking the same canonical point order the server uses.
fn expected_sweep() -> Result<Expected, String> {
    let spec = SweepSpec {
        workload: Workload::ModelDeltaVth {
            p_active: 0.5,
            p_standby: 1.0,
        },
        ras: vec![(1.0, 9.0), (5.0, 5.0)],
        t_standby: vec![Kelvin(330.0), Kelvin(360.0)],
        lifetimes: vec![Seconds(1.0e8)],
    };
    let model = NbtiModel::ptm90().map_err(|e| e.to_string())?;
    let mut rendered = Vec::new();
    for point in spec.points() {
        let JobTask::Model {
            p_active,
            p_standby,
        } = point.task
        else {
            return Err("model sweep produced a non-model task".to_owned());
        };
        let query = DegradeQuery {
            ras: point.ras,
            t_standby_k: point.t_standby,
            lifetime_s: point.lifetime.0,
            p_active,
            p_standby,
        };
        let dvth = NoCache
            .delta_vth(query.stress_key()?, &model)
            .map_err(|e| e.to_string())?;
        rendered.push(format!(
            "{{\"ras\":[{},{}],\"t_standby_k\":{},\"lifetime_s\":{},\"delta_vth_v\":{}}}",
            fmt_f64(point.ras.0),
            fmt_f64(point.ras.1),
            fmt_f64(point.t_standby.0),
            fmt_f64(point.lifetime.0),
            fmt_f64(dvth)
        ));
    }
    Ok(Expected {
        method: "POST",
        path: "/v1/sweep",
        tolerance: None,
        request_body: "{\"workload\":{\"kind\":\"model\",\"p_active\":0.5,\"p_standby\":1},\
                       \"ras\":[[1,9],[5,5]],\"t_standby_k\":[330,360],\"lifetime_s\":[1e8]}"
            .to_owned(),
        response_body: Some(format!(
            "{{\"count\":{},\"points\":[{}]}}",
            rendered.len(),
            rendered.join(",")
        )),
    })
}

/// One request over an existing keep-alive connection; returns an error
/// string describing any status or byte mismatch.
fn check_one(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    expected: &Expected,
) -> Result<(), String> {
    write_request(
        stream,
        expected.method,
        expected.path,
        expected.request_body.as_bytes(),
    )
    .map_err(|e| format!("{} {}: write: {e}", expected.method, expected.path))?;
    let (status, body) =
        read_response(reader).map_err(|e| format!("{} {}: {e}", expected.method, expected.path))?;
    if status != 200 {
        return Err(format!(
            "{} {}: status {status}: {}",
            expected.method,
            expected.path,
            String::from_utf8_lossy(&body)
        ));
    }
    if let Some(want) = &expected.response_body {
        if let Some(bound) = expected.tolerance {
            let got = String::from_utf8_lossy(&body);
            let approx = scrape_delta_vth(&got)
                .ok_or_else(|| format!("{}: no delta_vth_v in {got}", expected.path))?;
            let exact = scrape_delta_vth(want)
                .ok_or_else(|| format!("{}: no delta_vth_v in oracle {want}", expected.path))?;
            let err = relia_surface::rel_error(approx, exact);
            if err > bound {
                return Err(format!(
                    "{} {}: delta_vth_v off by {err:e} (> bound {bound:e}):\
                     \n  want {want}\n  got  {got}",
                    expected.method, expected.path
                ));
            }
        } else if body != want.as_bytes() {
            return Err(format!(
                "{} {}: byte mismatch:\n  want {}\n  got  {}",
                expected.method,
                expected.path,
                want,
                String::from_utf8_lossy(&body)
            ));
        }
    } else if body.is_empty() {
        return Err(format!("{} {}: empty body", expected.method, expected.path));
    }
    Ok(())
}

/// Pulls the `delta_vth_v` number out of a degrade response body.
fn scrape_delta_vth(body: &str) -> Option<f64> {
    let rest = body.split_once("\"delta_vth_v\":")?.1;
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    // Precompute every expected byte sequence before opening a socket.
    // With a surface mounted, degrade answers may be interpolated, so the
    // byte oracle relaxes to the documented relative-error bound.
    let tolerance = args
        .surface
        .as_ref()
        .map(|_| relia_surface::DOCUMENTED_ERROR_BOUND);
    let grid = degrade_grid();
    let degrade_expected: Vec<Expected> = grid
        .iter()
        .map(|q| {
            Ok(Expected {
                method: "POST",
                path: "/v1/degrade",
                request_body: q.to_body(),
                response_body: Some(expected_degrade(q)?),
                tolerance,
            })
        })
        .collect::<Result<_, String>>()?;
    let sweep_expected = expected_sweep()?;
    let health_expected = Expected {
        method: "GET",
        path: "/healthz",
        request_body: String::new(),
        response_body: Some("{\"status\":\"ok\"}".to_owned()),
        tolerance: None,
    };
    let metrics_expected = Expected {
        method: "GET",
        path: "/metrics",
        request_body: String::new(),
        response_body: None,
        tolerance: None,
    };

    // Self-host unless pointed at an external server.
    let mut hosted: Option<(ServerHandle, thread::JoinHandle<_>)> = None;
    let addr = match &args.addr {
        Some(addr) => addr.clone(),
        None => {
            let config = ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                threads: args.threads + 2,
                queue_depth: 64,
                ..ServeConfig::default()
            };
            let mut state = ServeState::new(Duration::from_secs(30))?;
            if let Some(path) = &args.surface {
                let surface = relia_surface::Surface::load(path)
                    .map_err(|e| format!("cannot mount surface {}: {e}", path.display()))?;
                state = state.with_surface(surface);
            }
            let state = Arc::new(state);
            let server = Server::bind(config, state).map_err(|e| e.to_string())?;
            let addr = server.local_addr().to_string();
            let handle = server.handle();
            let join = thread::spawn(move || server.run());
            hosted = Some((handle, join));
            addr
        }
    };

    let failures = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let degrade_ok = Arc::new(AtomicU64::new(0));
    let per_thread = args.requests.div_ceil(args.threads);

    let workers: Vec<_> = (0..args.threads)
        .map(|t| {
            let addr = addr.clone();
            let degrade_expected = degrade_expected.clone();
            let sweep_expected = sweep_expected.clone();
            let health_expected = health_expected.clone();
            let metrics_expected = metrics_expected.clone();
            let failures = Arc::clone(&failures);
            let completed = Arc::clone(&completed);
            let degrade_ok = Arc::clone(&degrade_ok);
            thread::spawn(move || {
                // Client-side latency, per thread; snapshots merge at the
                // end (the merge is order-independent).
                let hist = LatencyHist::new();
                let stream = match TcpStream::connect(&addr) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("thread {t}: connect {addr}: {e}");
                        failures.fetch_add(per_thread as u64, Ordering::Relaxed);
                        return hist.snapshot();
                    }
                };
                stream.set_nodelay(true).ok();
                let mut reader = BufReader::new(match stream.try_clone() {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("thread {t}: clone: {e}");
                        failures.fetch_add(per_thread as u64, Ordering::Relaxed);
                        return hist.snapshot();
                    }
                });
                let mut stream = stream;
                for i in 0..per_thread {
                    let expected = if i % 97 == 11 {
                        &sweep_expected
                    } else if i % 31 == 7 {
                        &health_expected
                    } else if i % 53 == 5 {
                        &metrics_expected
                    } else {
                        &degrade_expected[(i * 7 + t) % degrade_expected.len()]
                    };
                    let started = Instant::now();
                    match check_one(&mut stream, &mut reader, expected) {
                        Ok(()) => {
                            hist.record(started.elapsed());
                            completed.fetch_add(1, Ordering::Relaxed);
                            if expected.path == "/v1/degrade" {
                                degrade_ok.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) => {
                            eprintln!("thread {t} request {i}: {e}");
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                hist.snapshot()
            })
        })
        .collect();
    let mut latency = HistSnapshot::default();
    for worker in workers {
        latency.merge(&worker.join().map_err(|_| "client thread panicked")?);
    }

    // Scrape the cache counters, then drain the server gracefully.
    let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut stream = stream;
    write_request(&mut stream, "GET", "/metrics", b"").map_err(|e| e.to_string())?;
    let (status, metrics_body) = read_response(&mut reader)?;
    if status != 200 {
        return Err(format!("final /metrics returned {status}"));
    }
    let metrics_text = String::from_utf8_lossy(&metrics_body);
    let hits = scrape_counter(&metrics_text, "relia_cache_hits ").unwrap_or(0);
    let misses = scrape_counter(&metrics_text, "relia_cache_misses ").unwrap_or(0);
    let leads = scrape_counter(&metrics_text, "relia_serve_coalesce_leads ").unwrap_or(0);
    let joins = scrape_counter(&metrics_text, "relia_serve_coalesce_joins ").unwrap_or(0);
    let surface_active = scrape_counter(&metrics_text, "relia_surface_active ").unwrap_or(0);
    let surface_hits = scrape_counter(&metrics_text, "relia_surface_hits ").unwrap_or(0);
    let surface_misses = scrape_counter(&metrics_text, "relia_surface_misses ").unwrap_or(0);
    let surface_fallbacks = scrape_counter(&metrics_text, "relia_surface_fallbacks ").unwrap_or(0);
    let surface_clamps = scrape_counter(&metrics_text, "relia_surface_clamps ").unwrap_or(0);

    write_request(&mut stream, "POST", "/admin/shutdown", b"").map_err(|e| e.to_string())?;
    let (status, _) = read_response(&mut reader)?;
    if status != 200 {
        return Err(format!("/admin/shutdown returned {status}"));
    }
    if let Some((_handle, join)) = hosted {
        join.join()
            .map_err(|_| "server thread panicked")?
            .map_err(|e| format!("server run: {e}"))?;
    }

    let completed = completed.load(Ordering::Relaxed);
    let failures = failures.load(Ordering::Relaxed);
    println!(
        "loadgen: {completed} ok, {failures} failed; cache {hits} hits / {misses} misses; \
         coalesce {leads} leads / {joins} joins"
    );
    if latency.count > 0 {
        println!(
            "loadgen: client latency p50 {} / p90 {} / p99 {} over {} requests",
            fmt_ns(latency.p50()),
            fmt_ns(latency.p90()),
            fmt_ns(latency.p99()),
            latency.count
        );
    }
    if failures > 0 {
        return Err(format!("{failures} requests failed or mismatched"));
    }
    if hits == 0 {
        return Err("cache hit count is zero — memoization is not engaging".to_owned());
    }
    // The surface ledger must balance in every configuration: a declined
    // lookup is a fallback, and a clamp is one kind of declined lookup.
    if !(surface_clamps <= surface_misses && surface_misses <= surface_fallbacks) {
        return Err(format!(
            "surface ledger out of order: clamps {surface_clamps} <= misses \
             {surface_misses} <= fallbacks {surface_fallbacks} violated"
        ));
    }
    if surface_active == 1 {
        println!(
            "loadgen: surface {surface_hits} hits / {surface_misses} misses / \
             {surface_fallbacks} fallbacks / {surface_clamps} clamps"
        );
        if args.surface.is_some() && args.addr.is_none() {
            // Self-hosted with a known artifact: every degrade answer is
            // accounted for as a hit or an exact fallback — no request
            // leaves the ledger.
            let degrade_ok = degrade_ok.load(Ordering::Relaxed);
            if surface_hits + surface_fallbacks != degrade_ok {
                return Err(format!(
                    "surface ledger does not balance: {surface_hits} hits + \
                     {surface_fallbacks} fallbacks != {degrade_ok} degrade answers"
                ));
            }
            if surface_hits == 0 {
                return Err("surface hit count is zero — the tier is not engaging".to_owned());
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
