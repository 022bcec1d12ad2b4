//! `serve-warm` and `serve-cold`: closed-loop load from two callers, each
//! on its own keep-alive connection, against one `relia serve --threads 2`
//! over loopback. The mix is synthetic. Closed loop and concurrent
//! callers follow `loadgen` (crates/serve/examples/loadgen.rs); two is
//! `nproc` on the reference host, and an open-loop generator would compete
//! with the server for the same two CPUs.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use bench_e2e::inputs::{self, Rng, Workload, MEMO_GOLDENS, MEMO_KEYS, SWEEP_POINTS};
use bench_e2e::stats;

use crate::child::{run_cli, Ctx, Server};
use crate::http::{encode_request, last_ndjson_line, Conn};
use crate::run::{
    json_string, nanos, quantile_us, Ledger, LedgerRow, RunResult, Span, SpanRing, Tally, WARMUP,
};

/// Closed-loop callers, one connection each; the server runs as many
/// workers, so no connection waits for one.
const CALLERS: usize = 2;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Entries the server's memo cache holds before it evicts.
const MEMO_CAPACITY: usize = 65_536;
/// Random stream of the `serve-cold` cache fill (callers use 0 and 1).
const FILL_STREAM: u64 = 99;
/// Span-ring capacity for the traced server and the traced client.
const TRACE_SLOTS: usize = 65_536;
/// One in this many surface/cold answers is re-checked after the run.
const SAMPLE_EVERY: u64 = 64;
const MAX_SAMPLES: usize = 1024;
/// Surface/cold answers must stay within this relative error of exact.
const SURFACE_BOUND: f64 = 1e-2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Surface,
    Memo(usize),
    Cold,
    Sweep,
    Fleet,
}

impl Kind {
    fn of(workload: Workload, i: u64) -> Kind {
        match workload {
            Workload::ServeWarm if i.is_multiple_of(2) => Kind::Surface,
            Workload::ServeWarm => Kind::Memo((i / 2 % MEMO_KEYS as u64) as usize),
            _ => match i % 200 {
                99 => Kind::Sweep,
                199 => Kind::Fleet,
                _ => Kind::Cold,
            },
        }
    }

    fn path(self) -> &'static str {
        match self {
            Kind::Sweep => "/v1/sweep",
            Kind::Fleet => "/v1/fleet",
            _ => "/v1/degrade",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::Sweep => "client.sweep",
            Kind::Fleet => "client.fleet",
            _ => "client.degrade",
        }
    }

    fn is_degrade(self) -> bool {
        self.path() == "/v1/degrade"
    }
}

fn count(haystack: &[u8], needle: &[u8]) -> usize {
    haystack
        .windows(needle.len())
        .filter(|w| *w == needle)
        .count()
}

/// Checks one answer without panicking; `Err` counts as a failed request.
fn check(kind: Kind, status: u16, body: &[u8]) -> Result<(), String> {
    let lossy = || {
        String::from_utf8_lossy(body)
            .chars()
            .take(200)
            .collect::<String>()
    };
    if status != 200 {
        return Err(format!("{}: status {status}: {}", kind.path(), lossy()));
    }
    let ok = match kind {
        Kind::Memo(k) => body == MEMO_GOLDENS[k].as_bytes(),
        Kind::Surface | Kind::Cold => {
            body.starts_with(b"{\"delta_vth_v\":") && body.ends_with(b"}")
        }
        Kind::Sweep => {
            body.starts_with(format!("{{\"count\":{SWEEP_POINTS},").as_bytes())
                && count(body, b"\"delta_vth_v\":") == SWEEP_POINTS
        }
        Kind::Fleet => last_ndjson_line(body).is_some_and(|l| {
            l.starts_with(format!("{{\"samples\":{},", inputs::FLEET_HTTP_SAMPLES).as_bytes())
        }),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: unexpected answer ({kind:?}): {}",
            kind.path(),
            lossy()
        ))
    }
}

/// The `delta_vth_v` number of a degrade answer.
fn delta_vth(body: &[u8]) -> Option<f64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split_once("\"delta_vth_v\":")?.1;
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// What one caller measured.
#[derive(Default)]
struct CallerOut {
    /// Round trips of the degrade requests started inside the timed
    /// window, and of the sweeps and fleets.
    degrade_ns: Vec<u64>,
    sweep_ns: Vec<u64>,
    fleet_ns: Vec<u64>,
    /// Requests of every kind started inside the timed window.
    timed: u64,
    timed_ns_sum: u128,
    tally: Tally,
    /// 200 answers to `/v1/degrade`, and to surface points in particular.
    degrade_ok: u64,
    surface_ok: u64,
    /// `(request body, answer body)` pairs re-checked after the run.
    samples: Vec<(String, Vec<u8>)>,
    spans: Vec<Span>,
    /// Traced runs, caller 0: `/metrics` as the window opened and as it
    /// closed.
    metrics: Vec<String>,
}

impl CallerOut {
    fn failed(error: &str) -> CallerOut {
        let mut out = CallerOut::default();
        out.tally.fail(error.to_owned());
        out
    }
}

struct Plan {
    workload: Workload,
    seed: u64,
    addr: String,
    warm_end: Instant,
    end: Instant,
    epoch: Instant,
    traced: bool,
    barrier: Barrier,
}

/// One closed-loop caller. In a traced run caller 0 scrapes `/metrics`
/// again once every caller has stopped.
fn caller(plan: &Plan, id: usize) -> CallerOut {
    let mut out = CallerOut::default();
    let mut spans = SpanRing::new(plan.epoch, if plan.traced { TRACE_SLOTS } else { 0 });
    let conn = load(plan, id, &mut out, &mut spans);
    if plan.traced {
        plan.barrier.wait();
        if let (0, Some(mut c)) = (id, conn) {
            scrape_into(&mut c, &mut out);
        }
    }
    out.spans = spans.into_spans();
    out
}

/// Warm-up, then the timed window. `None` when the connection was lost
/// for good (counted as a failure).
fn load(plan: &Plan, id: usize, out: &mut CallerOut, spans: &mut SpanRing) -> Option<Conn> {
    let mut conn = match Conn::connect(&plan.addr) {
        Ok(c) => c,
        Err(e) => {
            out.tally.fail(e);
            return None;
        }
    };
    let window = (plan.end - plan.warm_end).as_secs_f64();
    out.degrade_ns.reserve((window * 64_000.0) as usize);
    let memo: Vec<Vec<u8>> = (0..MEMO_KEYS)
        .map(|k| {
            let mut request = Vec::new();
            encode_request(
                &mut request,
                "POST",
                "/v1/degrade",
                inputs::memo_point(k).body().as_bytes(),
            );
            request
        })
        .collect();
    let mut rng = Rng::new(plan.workload, plan.seed, id as u64);
    let (mut body, mut request) = (String::with_capacity(2048), Vec::with_capacity(2048));
    // Requests sent, and fresh (surface or cold) answers that passed.
    let (mut i, mut fresh_ok) = (0u64, 0u64);
    loop {
        let now = Instant::now();
        if now >= plan.end {
            return Some(conn);
        }
        let timed = now >= plan.warm_end;
        if plan.traced && id == 0 && timed && out.metrics.is_empty() {
            scrape_into(&mut conn, out);
        }
        let kind = Kind::of(plan.workload, i);
        i += 1;
        let wire: &[u8] = match kind {
            Kind::Memo(k) => &memo[k],
            _ => {
                body.clear();
                match kind {
                    Kind::Surface => inputs::surface_point(&mut rng).write_body(&mut body),
                    Kind::Cold => inputs::cold_point(&mut rng).write_body(&mut body),
                    Kind::Sweep => body.push_str(&inputs::sweep_body(&mut rng)),
                    _ => body.push_str(&inputs::fleet_body(&mut rng)),
                }
                request.clear();
                encode_request(&mut request, "POST", kind.path(), body.as_bytes());
                &request
            }
        };
        let t0 = Instant::now();
        let sent = conn.send(wire);
        let t1 = Instant::now();
        let answered = matches!(sent, Ok(200));
        let outcome = match sent {
            Ok(status) => check(kind, status, &conn.body),
            Err(e) => {
                // The connection's framing is lost: start a fresh one.
                match Conn::connect(&plan.addr) {
                    Ok(fresh) => conn = fresh,
                    Err(again) => {
                        out.tally.record(Err(format!("{e}; reconnect: {again}")));
                        return None;
                    }
                }
                Err(e)
            }
        };
        let ok = outcome.is_ok();
        out.tally.record(outcome);
        if answered && kind.is_degrade() {
            out.degrade_ok += 1;
            out.surface_ok += u64::from(kind == Kind::Surface);
        }
        if ok && timed && matches!(kind, Kind::Surface | Kind::Cold) {
            fresh_ok += 1;
            if fresh_ok.is_multiple_of(SAMPLE_EVERY) && out.samples.len() < MAX_SAMPLES {
                out.samples.push((body.clone(), conn.body.clone()));
            }
        }
        if timed {
            let ns = nanos(t1 - t0);
            match kind {
                Kind::Sweep => out.sweep_ns.push(ns),
                Kind::Fleet => out.fleet_ns.push(ns),
                _ => out.degrade_ns.push(ns),
            }
            out.timed += 1;
            out.timed_ns_sum += u128::from(ns);
            spans.record(kind.span(), t0, t1);
        }
    }
}

/// Appends the server's `/metrics` to `out.metrics` (traced runs).
fn scrape_into(conn: &mut Conn, out: &mut CallerOut) {
    match conn.call("GET", "/metrics", b"") {
        Ok(body) => out.metrics.push(String::from_utf8_lossy(body).into_owned()),
        Err(e) => out.tally.fail(e),
    }
}

/// Fills a `serve-cold` server's memo cache to its cap with fresh keys,
/// 64 per sweep, split over the callers' connections, so that the window
/// sees steady-state evictions however fast the host is.
fn fill_cache(addr: &str, seed: u64) -> Tally {
    let sweeps = MEMO_CAPACITY / SWEEP_POINTS / CALLERS;
    let fill = |c: usize| {
        let mut tally = Tally::default();
        let mut rng = Rng::new(Workload::ServeCold, seed, FILL_STREAM + c as u64);
        let mut conn = match Conn::connect(addr) {
            Ok(conn) => conn,
            Err(e) => {
                tally.fail(e);
                return tally;
            }
        };
        let mut request = Vec::new();
        for _ in 0..sweeps {
            request.clear();
            let sweep = inputs::sweep_body(&mut rng);
            encode_request(&mut request, "POST", Kind::Sweep.path(), sweep.as_bytes());
            match conn.send(&request) {
                Ok(status) => tally.record(check(Kind::Sweep, status, &conn.body)),
                Err(e) => {
                    tally.record(Err(e));
                    break;
                }
            }
        }
        tally
    };
    let mut total = Tally::default();
    thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS).map(|c| s.spawn(move || fill(c))).collect();
        for handle in handles {
            total.absorb(handle.join().unwrap_or_else(|_| {
                let mut tally = Tally::default();
                tally.fail("cache-fill thread panicked".to_owned());
                tally
            }));
        }
    });
    total
}

/// `name value` pairs of a Prometheus exposition (unlabelled series only).
fn prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_owned(), value.trim().parse().ok()?))
        })
        .collect()
}

fn scrape(server: &Server) -> Result<String, String> {
    let mut conn = server.connect()?;
    let body = conn.call("GET", "/metrics", b"")?;
    Ok(String::from_utf8_lossy(body).into_owned())
}

fn server_args(surface: Option<&str>, traced: bool) -> Vec<String> {
    let mut args = vec!["--threads".to_owned(), "2".to_owned()];
    if let Some(path) = surface {
        args.extend(["--surface".to_owned(), path.to_owned()]);
    }
    if traced {
        args.extend(["--trace".to_owned(), TRACE_SLOTS.to_string()]);
    }
    args
}

/// Set-up, [`SETUP_REPS`] times: brings a fresh server into the state the
/// workload measures. `serve-warm` builds the surface and boots on it;
/// `serve-cold` boots bare and fills the memo cache to its cap. The last
/// server is kept for the run. Returns it with the median set-up time.
fn setup(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    traced: bool,
    spans: &mut SpanRing,
    tally: &mut Tally,
) -> Result<(Server, f64), String> {
    let warm = workload == Workload::ServeWarm;
    let surface = ctx.tmp_path("surface.rls").to_string_lossy().into_owned();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<Server> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            previous.shutdown()?;
        }
        let t0 = Instant::now();
        if warm {
            let build =
                ["surface", "build", "--workers", "2", "--out", &surface].map(str::to_owned);
            run_cli(&ctx.relia, &build, false)?.ok("relia surface build")?;
            spans.record("setup.surface_build", t0, Instant::now());
        }
        let t1 = Instant::now();
        let server = Server::spawn(
            &ctx.relia,
            &server_args(warm.then_some(surface.as_str()), traced),
        )?;
        let t2 = Instant::now();
        spans.record("setup.spawn", t1, t2);
        if !warm {
            tally.absorb(fill_cache(&server.addr, seed));
            spans.record("setup.fill", t2, Instant::now());
        }
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(server);
    }
    let server = kept.ok_or("no set-up repetitions")?;
    Ok((server, stats::median(&mut times).unwrap_or(0.0)))
}

pub fn run(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let epoch = Instant::now();
    let mut spans = SpanRing::new(epoch, if traced { TRACE_SLOTS } else { 0 });
    let mut tally = Tally::default();
    let (server, setup_s) = setup(ctx, workload, seed, traced, &mut spans, &mut tally)?;

    let warm_end = Instant::now() + WARMUP;
    let plan = Plan {
        workload,
        seed,
        addr: server.addr.clone(),
        warm_end,
        end: warm_end + Duration::from_secs_f64(seconds),
        epoch,
        traced,
        barrier: Barrier::new(CALLERS),
    };
    let outs: Vec<CallerOut> = thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|id| {
                let plan = &plan;
                s.spawn(move || caller(plan, id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| CallerOut::failed("caller thread panicked"))
            })
            .collect()
    });
    let mut all = CallerOut::default();
    let mut client_spans = Vec::new();
    for out in outs {
        all.degrade_ns.extend(out.degrade_ns);
        all.sweep_ns.extend(out.sweep_ns);
        all.fleet_ns.extend(out.fleet_ns);
        all.timed += out.timed;
        all.timed_ns_sum += out.timed_ns_sum;
        all.degrade_ok += out.degrade_ok;
        all.surface_ok += out.surface_ok;
        all.samples.extend(out.samples);
        all.metrics.extend(out.metrics);
        client_spans.extend(out.spans);
        tally.absorb(out.tally);
    }

    // Untimed oracles.
    let t_check = Instant::now();
    if workload == Workload::ServeWarm {
        let rechecked = check_surface_samples(&server, &all.samples, &mut tally)?;
        tally.record(check_surface_ledger(
            &scrape(&server)?,
            all.degrade_ok + rechecked,
            all.surface_ok,
        ));
    } else {
        check_cold_samples(ctx, &all.samples, &mut tally)?;
    }
    spans.record("check.oracles", t_check, Instant::now());

    let mut dumps = Vec::new();
    if traced {
        let mut conn = server.connect()?;
        let trace = String::from_utf8_lossy(conn.call("GET", "/debug/trace", b"")?).into_owned();
        dumps.push(("server_trace", trace));
        let metrics = all.metrics.last().map_or("", String::as_str);
        dumps.push(("server_metrics", json_string(metrics)));
    }
    let peak_rss_mib = server.peak_rss_mib()?;
    server.shutdown()?;

    all.degrade_ns.sort_unstable();
    all.sweep_ns.sort_unstable();
    all.fleet_ns.sort_unstable();
    let ms = |v: &[u64], q| quantile_us(v, q) / 1e3;
    let mut extra = vec![
        ("degrade_requests", all.degrade_ns.len() as f64, "count"),
        ("rechecked_answers", all.samples.len() as f64, "count"),
        (
            "error_rate",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    if workload == Workload::ServeCold {
        extra.extend([
            ("sweep64_p50_ms", ms(&all.sweep_ns, 0.5), "ms"),
            ("sweep64_p99_ms", ms(&all.sweep_ns, 0.99), "ms"),
            ("fleet10k_p50_ms", ms(&all.fleet_ns, 0.5), "ms"),
            ("fleet10k_p99_ms", ms(&all.fleet_ns, 0.99), "ms"),
        ]);
    }
    // Traced runs difference the server's phase sums across the window.
    let client_mean_us = all.timed_ns_sum as f64 / all.timed.max(1) as f64 / 1e3;
    let ledger = match all.metrics.as_slice() {
        [before, after] => Some(serve_ledger(
            &prometheus(before),
            &prometheus(after),
            client_mean_us,
            seconds,
        )),
        _ => None,
    };
    client_spans.extend(spans.into_spans());
    Ok(RunResult {
        tally,
        e2e: [setup_s, peak_rss_mib],
        what: [
            if workload == Workload::ServeWarm {
                "surface build + spawn to listening (median of 3)"
            } else {
                "spawn + memo-cache fill to its cap (median of 3)"
            },
            "server VmHWM before shutdown",
        ],
        timing: [
            quantile_us(&all.degrade_ns, 0.5),
            quantile_us(&all.degrade_ns, 0.99),
            all.timed as f64 / seconds,
        ],
        timed: "POST /v1/degrade round trip; requests/s of all endpoints",
        extra,
        ledger,
        spans: client_spans,
        dumps,
    })
}

/// Re-asks each sampled surface answer with `?mode=exact` and requires it
/// within the documented 1e-2 bound. Returns the number of extra degrade
/// answers this added to the server's ledger.
fn check_surface_samples(
    server: &Server,
    samples: &[(String, Vec<u8>)],
    tally: &mut Tally,
) -> Result<u64, String> {
    let mut conn = server.connect()?;
    let mut answered = 0;
    for (request, surface_answer) in samples {
        let outcome = conn
            .call("POST", "/v1/degrade?mode=exact", request.as_bytes())
            .and_then(|exact| {
                answered += 1;
                let (Some(s), Some(e)) = (delta_vth(surface_answer), delta_vth(exact)) else {
                    return Err("unparseable delta_vth_v".to_owned());
                };
                let err = ((s - e) / e).abs();
                if err <= SURFACE_BOUND {
                    Ok(())
                } else {
                    Err(format!(
                        "surface answer {s} is {err:e} from exact {e} for {request}"
                    ))
                }
            });
        tally.record(outcome);
    }
    Ok(answered)
}

/// Every degrade answer is a surface hit or an exact fallback, and every
/// in-domain (0.5, 1.0) point was a hit.
fn check_surface_ledger(metrics: &str, degrade_ok: u64, surface_ok: u64) -> Result<(), String> {
    let m = prometheus(metrics);
    let get = |name: &str| m.get(name).copied().unwrap_or(-1.0) as i64;
    let (hits, fallbacks) = (get("relia_surface_hits"), get("relia_surface_fallbacks"));
    if hits + fallbacks != degrade_ok as i64 || hits != surface_ok as i64 {
        return Err(format!(
            "surface ledger: {hits} hits + {fallbacks} fallbacks vs {degrade_ok} degrade answers \
             ({surface_ok} surface points)"
        ));
    }
    Ok(())
}

/// Byte-compares sampled cold answers with a fresh server that has never
/// seen them (an empty memo cache, so every one is evaluated exactly).
fn check_cold_samples(
    ctx: &Ctx,
    samples: &[(String, Vec<u8>)],
    tally: &mut Tally,
) -> Result<(), String> {
    let reference = Server::spawn(&ctx.relia, &server_args(None, false))?;
    let mut conn = reference.connect()?;
    for (request, answer) in samples {
        let outcome = conn
            .call("POST", "/v1/degrade", request.as_bytes())
            .and_then(|fresh| {
                if fresh == answer.as_slice() {
                    Ok(())
                } else {
                    Err(format!(
                        "cold answer {} differs from a fresh evaluation {} for {request}",
                        String::from_utf8_lossy(answer),
                        String::from_utf8_lossy(fresh)
                    ))
                }
            });
        tally.record(outcome);
    }
    drop(conn);
    reference.shutdown()
}

/// Per-request means over the timed window from the server's own phase
/// histograms (`_sum`/`_count`), differenced between the `/metrics` scrapes
/// `before` and `after` the window. The server's request span explains the
/// client mean; what it leaves (the client's send and receive syscalls and
/// any wake-up outside the span) is `wire.residual_us`.
fn serve_ledger(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    client_mean_us: f64,
    seconds: f64,
) -> Ledger {
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    let requests = delta("relia_serve_request_seconds_count").max(1.0);
    let per_request_us =
        |phase: &str| delta(&format!("relia_serve_{phase}_seconds_sum")) * 1e6 / requests;
    let request = per_request_us("request");
    let read = per_request_us("read");
    let surface = per_request_us("surface");
    let coalesce = per_request_us("coalesce");
    let evaluate = per_request_us("eval");
    let serialize = per_request_us("serialize");
    let write = per_request_us("write");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (hits, misses) = (delta("relia_cache_hits"), delta("relia_cache_misses"));
    let (s_hits, s_fallbacks) = (
        delta("relia_surface_hits"),
        delta("relia_surface_fallbacks"),
    );
    let rows = vec![
        LedgerRow::new("server.read_us", read, "us", "first byte to parsed request"),
        LedgerRow::new("service.surface_us", surface, "us", "surface lookups"),
        LedgerRow::new(
            "core.evaluate_us",
            evaluate,
            "us",
            "memo-cache lookup, and the model on a miss",
        ),
        LedgerRow::new(
            "service.coalesce_us",
            coalesce - evaluate,
            "us",
            "single-flight + memo cache, less evaluate",
        ),
        LedgerRow::new("service.serialize_us", serialize, "us", "JSON rendering"),
        LedgerRow::new("server.write_us", write, "us", "response write syscalls"),
        LedgerRow::new(
            "service.self_us",
            request - read - surface - coalesce - serialize - write,
            "us",
            "request span less its child phases (sweep and fleet handling has none)",
        ),
        LedgerRow::new(
            "wire.residual_us",
            client_mean_us - request,
            "us",
            "client mean less the server request span",
        ),
        LedgerRow::new(
            "cache.hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
            "memo cache",
        ),
        LedgerRow::new(
            "cache.evictions_per_s",
            delta("relia_cache_evictions") / seconds,
            "1/s",
            "memo cache at its cap",
        ),
        LedgerRow::new(
            "surface.hit_ratio",
            ratio(s_hits, s_hits + s_fallbacks),
            "ratio",
            "hits / degrade answers",
        ),
    ];
    Ledger {
        per: "request",
        rows,
        e2e_mean_us: client_mean_us,
        explained_us: request,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_fail_softly_on_wrong_answers() {
        assert!(check(Kind::Memo(0), 200, MEMO_GOLDENS[0].as_bytes()).is_ok());
        assert!(check(Kind::Memo(1), 200, MEMO_GOLDENS[0].as_bytes()).is_err());
        assert!(check(Kind::Cold, 503, b"{\"error\":\"x\"}").is_err());
        assert!(check(
            Kind::Cold,
            200,
            b"{\"delta_vth_v\":0.02,\"delay_degradation\":0.03}"
        )
        .is_ok());
        assert!(check(
            Kind::Fleet,
            200,
            b"{\"chunk\":1,\"of\":5}\n{\"error\":\"deadline\"}\n"
        )
        .is_err());
        assert!(check(
            Kind::Fleet,
            200,
            b"{\"chunk\":5,\"of\":5}\n{\"samples\":10000,\"seed\":1}\n"
        )
        .is_ok());
        assert!(check(Kind::Sweep, 200, b"{\"count\":64,\"points\":[]}").is_err());
    }

    #[test]
    fn mixes_follow_the_workload_definitions() {
        let warm: Vec<Kind> = (0..4).map(|i| Kind::of(Workload::ServeWarm, i)).collect();
        assert_eq!(
            warm,
            [Kind::Surface, Kind::Memo(0), Kind::Surface, Kind::Memo(1)]
        );
        let cold: Vec<Kind> = (0..200).map(|i| Kind::of(Workload::ServeCold, i)).collect();
        assert_eq!(cold.iter().filter(|k| **k == Kind::Sweep).count(), 1);
        assert_eq!(cold.iter().filter(|k| **k == Kind::Fleet).count(), 1);
        assert_eq!(cold.iter().filter(|k| **k == Kind::Cold).count(), 198);
    }

    #[test]
    fn prometheus_scrape_skips_labels_and_comments() {
        let m = prometheus("# TYPE x counter\nrelia_cache_hits 7\nrelia_build_info{version=\"0\"} 1\nrelia_x_sum 0.5\n");
        assert_eq!(m.get("relia_cache_hits"), Some(&7.0));
        assert_eq!(m.get("relia_x_sum"), Some(&0.5));
        assert_eq!(m.len(), 2);
        assert_eq!(
            delta_vth(b"{\"delta_vth_v\":0.0215,\"delay_degradation\":0.03}"),
            Some(0.0215)
        );
    }

    #[test]
    fn ledger_differences_the_scrapes_and_leaves_the_wire() {
        let scrape = |count: f64, request_s: f64, write_s: f64| {
            prometheus(&format!(
                "relia_serve_request_seconds_count {count}\n\
                 relia_serve_request_seconds_sum {request_s}\n\
                 relia_serve_write_seconds_sum {write_s}\n"
            ))
        };
        // 100 warm-up requests, then 1000 in the window of 20 us each
        // (12 us in write); the client saw 21 us per request.
        let ledger = serve_ledger(
            &scrape(100.0, 0.005, 0.001),
            &scrape(1100.0, 0.025, 0.013),
            21.0,
            1.0,
        );
        let row = |name: &str| {
            ledger
                .rows
                .iter()
                .find(|r| r.name == name)
                .map(|r| r.value)
                .unwrap()
        };
        assert!((row("server.write_us") - 12.0).abs() < 1e-9);
        assert!((row("service.self_us") - 8.0).abs() < 1e-9);
        assert!((row("wire.residual_us") - 1.0).abs() < 1e-9);
        assert!((ledger.explained_us - 20.0).abs() < 1e-9);
        assert!(ledger.reconciles());
    }
}
