//! End-to-end probe for the observability surface of `relia-serve`.
//!
//! Boots a server (or targets an external one via `--addr`), fires a few
//! degrade requests, then validates the two observability endpoints:
//!
//! * `GET /metrics` — `relia_build_info` and `process_uptime_seconds`
//!   present; every `relia_serve_*_seconds` histogram well-formed:
//!   cumulative `_bucket{le=…}` counts non-decreasing with strictly
//!   increasing edges, the `+Inf` bucket equal to `_count`, and the
//!   hot-path phases (`eval`, `coalesce`, `serialize`) actually populated.
//! * `GET /debug/trace` — parses as JSON of the pinned shape
//!   (`{"dropped":N,"spans":[…]}`, each span carrying exactly
//!   `dur_ns`/`id`/`name`/`parent`/`start_ns`), with the request-lifecycle
//!   span names present and every child's id above its parent's.
//!
//! ```text
//! cargo run --release -p relia-serve --example obs_probe                  # self-hosted
//! cargo run --release -p relia-serve --example obs_probe -- --addr HOST   # external server
//! ```
//!
//! Exit code 0 only if every shape check passes.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use std::io::BufReader;
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use relia_core::{json, Kelvin};
use relia_serve::{DegradeQuery, ServeConfig, ServeState, Server};

mod common;
use common::{read_response, write_request};

fn parse_addr() -> Result<Option<String>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.as_slice() {
        [] => Ok(None),
        [flag, addr] if flag == "--addr" => Ok(Some(addr.clone())),
        other => Err(format!(
            "usage: obs_probe [--addr HOST:PORT], got {other:?}"
        )),
    }
}

/// Validates one Prometheus histogram family inside the exposition text:
/// strictly increasing `le` edges, non-decreasing cumulative counts, a
/// final `+Inf` bucket, and `_count` consistent with it.
fn check_histogram(metrics: &str, name: &str) -> Result<u64, String> {
    let bucket_prefix = format!("relia_{name}_bucket{{le=\"");
    let mut last_edge = f64::NEG_INFINITY;
    let mut last_count = 0u64;
    let mut inf_count: Option<u64> = None;
    let mut buckets = 0usize;
    for line in metrics.lines() {
        let Some(rest) = line.strip_prefix(&bucket_prefix) else {
            continue;
        };
        let (edge_str, count_str) = rest
            .split_once("\"}")
            .ok_or_else(|| format!("{name}: malformed bucket line {line:?}"))?;
        let count: u64 = count_str
            .trim()
            .parse()
            .map_err(|e| format!("{name}: bucket count {count_str:?}: {e}"))?;
        if edge_str == "+Inf" {
            inf_count = Some(count);
        } else {
            let edge: f64 = edge_str
                .parse()
                .map_err(|e| format!("{name}: bucket edge {edge_str:?}: {e}"))?;
            if edge <= last_edge {
                return Err(format!("{name}: bucket edges not increasing at {edge}"));
            }
            last_edge = edge;
        }
        if count < last_count {
            return Err(format!(
                "{name}: cumulative counts decrease at le={edge_str} ({count} < {last_count})"
            ));
        }
        last_count = count;
        buckets += 1;
    }
    if buckets == 0 {
        return Err(format!("{name}: no bucket lines on /metrics"));
    }
    let inf = inf_count.ok_or_else(|| format!("{name}: missing +Inf bucket"))?;
    let count_line = format!("relia_{name}_count ");
    let total: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix(&count_line))
        .ok_or_else(|| format!("{name}: missing _count line"))?
        .trim()
        .parse()
        .map_err(|e| format!("{name}: _count: {e}"))?;
    if inf != total {
        return Err(format!("{name}: +Inf bucket {inf} != _count {total}"));
    }
    if !metrics.contains(&format!("relia_{name}_sum ")) {
        return Err(format!("{name}: missing _sum line"));
    }
    Ok(total)
}

/// Validates the `/debug/trace` body: pinned key set per span, ids above
/// parents, and the expected request-lifecycle names present.
fn check_trace(body: &[u8]) -> Result<usize, String> {
    let parsed = json::parse(body).map_err(|e| format!("trace body: {e}"))?;
    parsed
        .get("dropped")
        .and_then(json::Json::as_f64)
        .ok_or("trace: missing numeric \"dropped\"")?;
    let spans = parsed
        .get("spans")
        .and_then(json::Json::as_arr)
        .ok_or("trace: missing \"spans\" array")?;
    let mut names = Vec::new();
    for span in spans {
        let json::Json::Obj(members) = span else {
            return Err("trace: span is not an object".to_owned());
        };
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if keys != ["dur_ns", "id", "name", "parent", "start_ns"] {
            return Err(format!("trace: unexpected span keys {keys:?}"));
        }
        let id = span.get("id").and_then(json::Json::as_f64).unwrap_or(-1.0);
        let parent = span
            .get("parent")
            .and_then(json::Json::as_f64)
            .unwrap_or(-1.0);
        if id < 1.0 || parent < 0.0 || parent >= id {
            return Err(format!("trace: bad id/parent pair ({id}, {parent})"));
        }
        names.push(
            span.get("name")
                .and_then(json::Json::as_str)
                .ok_or("trace: span missing name")?
                .to_owned(),
        );
    }
    for want in ["request", "read", "coalesce", "evaluate", "serialize"] {
        if !names.iter().any(|n| n == want) {
            return Err(format!("trace: no {want:?} span in {names:?}"));
        }
    }
    Ok(spans.len())
}

fn run() -> Result<(), String> {
    let external = parse_addr()?;

    let mut hosted = None;
    let addr = match &external {
        Some(addr) => addr.clone(),
        None => {
            let config = ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                threads: 2,
                ..ServeConfig::default()
            };
            let state = Arc::new(ServeState::new(Duration::from_secs(30))?);
            let server = Server::bind(config, state).map_err(|e| e.to_string())?;
            let addr = server.local_addr().to_string();
            hosted = Some(thread::spawn(move || server.run()));
            addr
        }
    };

    let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut stream = stream;

    // A few degrade requests so the phase histograms and span ring have
    // real traffic (repeats also exercise the coalesce/cache path).
    let query = DegradeQuery {
        ras: (2.0, 8.0),
        t_standby_k: Kelvin(350.0),
        lifetime_s: 1.0e8,
        p_active: 0.5,
        p_standby: 1.0,
    };
    let degrades = 3u64;
    for _ in 0..degrades {
        write_request(
            &mut stream,
            "POST",
            "/v1/degrade",
            query.to_body().as_bytes(),
        )
        .map_err(|e| format!("degrade write: {e}"))?;
        let (status, body) = read_response(&mut reader)?;
        if status != 200 {
            return Err(format!(
                "degrade returned {status}: {}",
                String::from_utf8_lossy(&body)
            ));
        }
    }

    write_request(&mut stream, "GET", "/metrics", b"").map_err(|e| e.to_string())?;
    let (status, body) = read_response(&mut reader)?;
    if status != 200 {
        return Err(format!("/metrics returned {status}"));
    }
    let metrics = String::from_utf8_lossy(&body);
    if !metrics.contains("relia_build_info{version=\"") {
        return Err("metrics: missing relia_build_info line".to_owned());
    }
    if !metrics.contains("relia_process_uptime_seconds ") {
        return Err("metrics: missing process_uptime_seconds gauge".to_owned());
    }
    let phases = [
        "serve_request_seconds",
        "serve_read_seconds",
        "serve_queue_seconds",
        "serve_coalesce_seconds",
        "serve_eval_seconds",
        "serve_serialize_seconds",
        "serve_write_seconds",
    ];
    let mut counts = Vec::new();
    for phase in phases {
        counts.push((phase, check_histogram(&metrics, phase)?));
    }
    // The in-handler phases must have seen every degrade request; eval
    // may legitimately be lower when the memo cache absorbed repeats, but
    // never zero after a cold start.
    for (phase, floor) in [
        ("serve_coalesce_seconds", degrades),
        ("serve_serialize_seconds", degrades),
        ("serve_eval_seconds", 1),
    ] {
        let &(_, got) = counts
            .iter()
            .find(|(name, _)| *name == phase)
            .ok_or("phase table out of sync")?;
        if got < floor {
            return Err(format!("{phase}: count {got} < expected floor {floor}"));
        }
    }

    write_request(&mut stream, "GET", "/debug/trace", b"").map_err(|e| e.to_string())?;
    let (status, trace_body) = read_response(&mut reader)?;
    if status != 200 {
        return Err(format!("/debug/trace returned {status}"));
    }
    let span_count = check_trace(&trace_body)?;

    write_request(&mut stream, "POST", "/admin/shutdown", b"").map_err(|e| e.to_string())?;
    let (status, _) = read_response(&mut reader)?;
    if status != 200 {
        return Err(format!("/admin/shutdown returned {status}"));
    }
    if let Some(join) = hosted {
        join.join()
            .map_err(|_| "server thread panicked")?
            .map_err(|e| format!("server run: {e}"))?;
    }

    let summary: Vec<String> = counts
        .iter()
        .map(|(name, count)| format!("{name}={count}"))
        .collect();
    println!(
        "obs_probe: {} histograms well-formed ({}); trace held {span_count} span(s)",
        phases.len(),
        summary.join(" ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("obs_probe: {e}");
            ExitCode::FAILURE
        }
    }
}
