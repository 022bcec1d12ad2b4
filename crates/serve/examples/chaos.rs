//! Chaos harness for `relia-serve` (requires feature `fault-inject`).
//!
//! Boots a server, then drives it through a seeded mix of socket-level
//! faults — slow dribbles, partial writes, mid-message disconnects,
//! truncations, stalled keep-alive peers — and asserts the hardening
//! invariants hold:
//!
//! * every connection terminates (nothing wedges a worker forever);
//! * each fault gets its contracted answer (control traffic `200`,
//!   slowloris `408`, truncation `400`);
//! * the metrics ledger balances: every response traces back to a parsed
//!   request, a shed connection, or an answered parse error;
//! * `/healthz` is green afterwards and the graceful drain returns
//!   cleanly — a handler panic anywhere turns into a dirty exit.
//!
//! The fault schedule is a pure function of `--seed`, so a failing run
//! is replayed exactly by rerunning with the same seed.
//!
//! ```text
//! cargo run -p relia-serve --features fault-inject --example chaos
//! cargo run -p relia-serve --features fault-inject --example chaos -- \
//!     --seed 1234 --conns 64 --addr 127.0.0.1:4599
//! ```
//!
//! With `--addr`, faults are thrown at an external server instead; the
//! ledger/drain invariants (which need exclusive traffic) are skipped.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use relia_core::Kelvin;
use relia_serve::{
    ChaosPlan, ConnFault, DegradeQuery, FaultStream, ServeConfig, ServeState, Server,
};

mod common;
use common::{read_response, scrape_counter};

/// The server-side arrival budget the fault mix is calibrated against: a
/// 1-byte-per-30 ms dribble of a ~150-byte request must blow it, a
/// 16-bytes-per-1 ms dribble must fit inside it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(1);

struct Args {
    seed: u64,
    conns: u64,
    threads: usize,
    addr: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 7,
        conns: 48,
        threads: 4,
        addr: None,
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
            "--seed" => {
                args.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 2;
            }
            "--conns" => {
                args.conns = value(i)?.parse().map_err(|e| format!("--conns: {e}"))?;
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
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Drives one connection through its scheduled fault. `Ok(())` means the
/// fault's contract held; `Err` describes the violation.
fn run_conn(addr: &str, fault: ConnFault, request: &[u8]) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // Generous client-side timeout: its only job is turning a stuck
    // connection (an invariant violation) into an error instead of a hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let reader_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(reader_half);
    let mut faulted = FaultStream::new(stream, fault);

    let write_result = faulted.write_all(request).and_then(|()| faulted.flush());
    match fault {
        ConnFault::Disconnect { .. } => {
            // The peer reset itself mid-message; any outcome short of a
            // hang is acceptable. The server-side ledger is checked later.
            Ok(())
        }
        ConnFault::Dribble { chunk: 1, .. } => {
            // Slowloris. The server must cut us off: either the 408
            // arrives, or the lingering close ran out of grace and reset
            // the connection under our still-dribbling writes.
            match read_response(&mut reader) {
                Ok((408, _)) => Ok(()),
                Ok((status, _)) => Err(format!("slow dribble answered {status}, want 408")),
                Err(_) if write_result.is_err() => Ok(()),
                Err(e) => Err(format!("slow dribble: {e}")),
            }
        }
        ConnFault::Truncate { .. } => {
            write_result.map_err(|e| format!("truncated write failed: {e}"))?;
            let (status, _) = read_response(&mut reader)?;
            if status == 400 {
                Ok(())
            } else {
                Err(format!("truncation answered {status}, want 400"))
            }
        }
        ConnFault::Clean | ConnFault::Dribble { .. } | ConnFault::ShortWrite { .. } => {
            write_result.map_err(|e| format!("write failed: {e}"))?;
            let (status, _) = read_response(&mut reader)?;
            if status == 200 {
                Ok(())
            } else {
                Err(format!("answered {status}, want 200"))
            }
        }
        ConnFault::StallKeepAlive { .. } => {
            write_result.map_err(|e| format!("write failed: {e}"))?;
            let (status, _) = read_response(&mut reader)?;
            if status != 200 {
                return Err(format!("answered {status}, want 200"));
            }
            // Now go silent on the keep-alive connection, then close.
            faulted.finish();
            Ok(())
        }
    }
}

/// One plain request/response exchange (no faults).
fn exchange(addr: &str, method: &str, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let head =
        format!("{method} {path} HTTP/1.1\r\nconnection: close\r\ncontent-length: 0\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let (status, body) = read_response(&mut reader)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// The metrics-ledger invariant: every recorded response traces back to a
/// parsed request (minus the in-flight scrape itself), a shed connection,
/// or an answered parse error. Polls briefly so connections still being
/// torn down can finish counting.
fn assert_ledger_balances(addr: &str) -> Result<(), String> {
    let mut last = String::new();
    for _ in 0..40 {
        let (status, body) = exchange(addr, "GET", "/metrics")?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        let c = |name: &str| scrape_counter(&body, name).unwrap_or(0);
        let responses = c("relia_serve_responses_ok ")
            + c("relia_serve_responses_client_error ")
            + c("relia_serve_responses_server_error ");
        let expected = c("relia_serve_requests ") - 1
            + c("relia_serve_shed ")
            + c("relia_serve_parse_errors ");
        if responses == expected {
            return Ok(());
        }
        last = format!("{responses} responses, expected {expected}");
        thread::sleep(Duration::from_millis(50));
    }
    Err(format!("metrics ledger never balanced: {last}"))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let plan = ChaosPlan::new(args.seed);

    let mut hosted = None;
    let addr = match &args.addr {
        Some(addr) => addr.clone(),
        None => {
            let config = ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                threads: args.threads,
                queue_depth: 64,
                ..ServeConfig::default()
            };
            let state = Arc::new(ServeState::new(REQUEST_TIMEOUT)?);
            let server = Server::bind(config, state).map_err(|e| e.to_string())?;
            let addr = server.local_addr().to_string();
            let handle = server.handle();
            let join = thread::spawn(move || server.run());
            hosted = Some((handle, join));
            addr
        }
    };

    // ~150 bytes on the wire: long enough that every Truncate/Disconnect
    // budget (< 40 bytes) cuts it short, short enough that the fast
    // dribble finishes far inside the arrival budget.
    let body = DegradeQuery {
        ras: (2.0, 8.0),
        t_standby_k: Kelvin(350.0),
        lifetime_s: 1.0e8,
        p_active: 0.5,
        p_standby: 1.0,
    }
    .to_body();
    let request = format!(
        "POST /v1/degrade HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes();

    // A watchdog turns a stuck connection into a dirty exit instead of a
    // hang — "every connection terminates" is the invariant under test.
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            thread::sleep(Duration::from_secs(120));
            if !done.load(Ordering::Acquire) {
                eprintln!("chaos: watchdog fired — a connection is stuck");
                std::process::exit(3);
            }
        });
    }

    let next = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(AtomicU64::new(0));
    let mut slow_dribbles = 0u64;
    let mut truncates = 0u64;
    for i in 0..args.conns {
        match plan.fault_for(i) {
            ConnFault::Dribble { chunk: 1, .. } => slow_dribbles += 1,
            ConnFault::Truncate { .. } => truncates += 1,
            _ => {}
        }
    }

    let workers: Vec<_> = (0..args.threads)
        .map(|_| {
            let addr = addr.clone();
            let request = request.clone();
            let next = Arc::clone(&next);
            let failures = Arc::clone(&failures);
            let conns = args.conns;
            thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= conns {
                    return;
                }
                let fault = plan.fault_for(i);
                if let Err(e) = run_conn(&addr, fault, &request) {
                    eprintln!("chaos: conn {i} ({fault:?}): {e}");
                    failures.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().map_err(|_| "client thread panicked")?;
    }
    done.store(true, Ordering::Release);

    let failures = failures.load(Ordering::Relaxed);
    if failures > 0 {
        return Err(format!(
            "{failures} connections violated their fault contract"
        ));
    }

    // Post-chaos invariants. The ledger and counter pins need exclusive
    // traffic, so they only run against a self-hosted server.
    let (status, health) = exchange(&addr, "GET", "/healthz")?;
    if status != 200 || health != "{\"status\":\"ok\"}" {
        return Err(format!("post-chaos /healthz: {status} {health}"));
    }
    if hosted.is_some() {
        assert_ledger_balances(&addr)?;
        let (_, metrics) = exchange(&addr, "GET", "/metrics")?;
        let c = |name: &str| scrape_counter(&metrics, name).unwrap_or(0);
        let read_timeouts = c("relia_serve_read_timeouts ");
        if read_timeouts != slow_dribbles {
            return Err(format!(
                "{read_timeouts} read timeouts counted, want exactly {slow_dribbles} \
                 (one per scheduled slowloris)"
            ));
        }
        if c("relia_serve_conn_truncated ") < truncates {
            return Err(format!(
                "{} truncated connections counted, want >= {truncates}",
                c("relia_serve_conn_truncated ")
            ));
        }
    }

    // Graceful drain must still work, and the run must report no handler
    // panics (a dirty drain is how the server surfaces them).
    if let Some((_handle, join)) = hosted {
        let (status, _) = exchange(&addr, "POST", "/admin/shutdown")?;
        if status != 200 {
            return Err(format!("/admin/shutdown answered {status}"));
        }
        join.join()
            .map_err(|_| "server thread panicked")?
            .map_err(|e| format!("server run: {e}"))?;
    }

    println!(
        "chaos: seed {} — {} connections ({slow_dribbles} slowloris, {truncates} truncations) \
         survived; ledger balanced; drain clean",
        plan.seed(),
        args.conns
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("chaos: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
