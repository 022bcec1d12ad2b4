//! The TCP front end: accept loop, bounded worker queue, keep-alive
//! connection handling, and graceful drain.
//!
//! ## Backpressure
//!
//! Accepted connections are handed to a bounded [`TaskPool`]
//! (relia-jobs). When the queue is full, the accept loop *sheds* the
//! connection immediately — `503` with `Retry-After`, then close — instead
//! of letting an unbounded backlog grow. The queue depth is the server's
//! entire buffering policy; nothing else queues.
//!
//! ## Deadlines
//!
//! Two clocks bound request arrival. The socket read timeout catches a
//! peer that goes silent mid-request (`408`). It is not enough on its
//! own: the timeout resets on every byte, so a slowloris peer dribbling
//! one byte per interval would hold a worker forever. `BudgetReader`
//! closes that hole — a single wall-clock budget per message, started at
//! its first byte, turns the slow dribble into the same `408`. A
//! [`Deadline`] created when the request is fully parsed then bounds
//! evaluation (`504`), checked cooperatively between sweep points and
//! threaded into aging analyses as a [`CancelToken`].
//!
//! Failing to *set* those socket timeouts would mean serving an unbounded
//! peer; such connections are counted (`serve_sockopt_failures`) and
//! dropped instead.
//!
//! One setting, [`ServeState::request_timeout`], sizes all three clocks
//! and the socket write timeout.
//!
//! ## Framing
//!
//! [`route`] answers a request with a rendered response or an admitted
//! fleet study. The connection loop matches no endpoint: it streams a
//! study with chunked framing when the peer speaks HTTP/1.1, and writes
//! every other answer — a study's included, for HTTP/1.0 peers — with
//! `content-length` framing.
//!
//! ## Graceful drain
//!
//! [`ServerHandle::shutdown`] (or `POST /admin/shutdown`) marks the state
//! as draining, raises the stop flag, and pokes the listener with a local
//! connection so `accept` wakes immediately. The accept loop stops taking
//! work; keep-alive handlers send `Connection: close` on their next
//! response or fall out of their idle read; [`Server::run`] then joins the
//! pool and returns — every accepted request is answered, none are
//! abandoned.
//!
//! [`CancelToken`]: relia_core::CancelToken

use std::io::{self, BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use relia_core::{CancelToken, Deadline};
use relia_jobs::{default_workers, TaskPool};

use crate::http::{read_request, write_response, Limits, ParseError, Response};
use crate::metrics::ServeMetrics;
use crate::service::{route, Action, Reply, ServeState};

/// Server knobs. The per-request timeout lives on the
/// [`ServeState`] the server is bound with.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads; 0 means [`default_workers`].
    pub threads: usize,
    /// Bounded connection queue depth; beyond it, load is shed with 503.
    pub queue_depth: usize,
    /// HTTP parse limits.
    pub limits: Limits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 0,
            queue_depth: 64,
            limits: Limits::default(),
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<ServeState>,
    config: ServeConfig,
    stop: Arc<AtomicBool>,
}

/// Triggers a graceful drain from another thread (or from a handler).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServeState>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Begins the drain: shed new work, wake the accept loop, let
    /// [`Server::run`] finish in-flight requests and return.
    pub fn shutdown(&self) {
        self.state.begin_drain();
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway local connection.
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
        }
        let _ = TcpStream::connect_timeout(&poke, Duration::from_millis(200));
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Server {
    /// Binds the listener (without accepting yet).
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim.
    pub fn bind(config: ServeConfig, state: Arc<ServeState>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            local_addr,
            state,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can stop this server from anywhere.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
            stop: Arc::clone(&self.stop),
            addr: self.local_addr,
        }
    }

    /// Serves until [`ServerHandle::shutdown`] is called, then drains and
    /// returns. Every accepted connection is either served or answered
    /// with a shed 503; none are silently dropped.
    ///
    /// # Errors
    ///
    /// Only fatal listener errors; per-connection I/O failures are
    /// absorbed (the peer is gone — nobody to report to).
    pub fn run(self) -> io::Result<()> {
        let threads = if self.config.threads == 0 {
            default_workers()
        } else {
            self.config.threads
        };
        let pool = TaskPool::new(threads, self.config.queue_depth);
        let handle = self.handle();
        let timeout = self.state.request_timeout();

        for incoming in self.listener.incoming() {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            let stream = match incoming {
                Ok(s) => s,
                // Transient accept errors (per-connection resets) are not
                // fatal to the listener.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            ServeMetrics::bump(&self.state.metrics.connections);
            // A connection whose read/write timeout cannot be set would be
            // unbounded; count it and drop it rather than serve it.
            if stream.set_read_timeout(Some(timeout)).is_err()
                || stream.set_write_timeout(Some(timeout)).is_err()
            {
                ServeMetrics::bump(&self.state.metrics.sockopt_failures);
                continue;
            }
            // Nagle only costs latency; failure to disable it is harmless.
            let _ = stream.set_nodelay(true);

            // Keep a dup of the socket so a shed connection can still be
            // answered after the closure (owning the original) is dropped.
            let shed_copy = stream.try_clone().ok();
            let state = Arc::clone(&self.state);
            let limits = self.config.limits;
            let conn_handle = handle.clone();
            // Count the connection into the in-flight gauge while it is
            // queued; the handler adopts the slot via a drop guard.
            self.state.overload.conn_enqueued();
            let enqueued = Instant::now();
            let submit = pool.try_submit(move || {
                let _inflight = state.overload.adopt_inflight();
                // Queue wait: accepted → claimed by this worker. The span
                // is retroactive (its start predates any guard).
                let waited = enqueued.elapsed();
                state.obs.queue.record(waited);
                let waited_ns = u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
                let now = state.obs.tracer.now_ns();
                state
                    .obs
                    .tracer
                    .record("queue_wait", 0, now.saturating_sub(waited_ns), waited_ns);
                serve_connection(&state, stream, &limits, &conn_handle);
            });
            if submit.is_err() {
                self.state.overload.conn_dequeued();
                ServeMetrics::bump(&self.state.metrics.shed);
                self.state.metrics.record_status(503);
                if let Some(mut s) = shed_copy {
                    let mut shed = Response::error(503, "server is at capacity");
                    shed.retry_after = Some(1);
                    shed.close = true;
                    let _ = write_response(&mut s, &shed);
                }
            }
        }
        // Finish everything that was accepted, then return. A handler
        // panic is a bug the drain must not paper over: surface it as the
        // run's error so chaos suites (and operators) see a dirty exit.
        let panicked = pool.panic_counter();
        pool.drain();
        let panics = panicked.load(Ordering::Relaxed);
        if panics > 0 {
            return Err(io::Error::other(format!(
                "{panics} connection handler(s) panicked"
            )));
        }
        Ok(())
    }
}

/// Caps the total wall clock one request may spend *arriving*. The socket
/// read timeout resets on every byte, so by itself it never fires against
/// a peer dribbling one byte per interval (slowloris). This wrapper
/// starts a clock when the first byte of a message is seen; once the
/// budget is spent, further reads fail like a socket timeout, which
/// [`read_request`] maps to `408`. Idle time *between* keep-alive
/// messages is not billed — the clock only runs while a message is in
/// flight.
struct BudgetReader<R> {
    inner: BufReader<R>,
    budget: Duration,
    started: Option<Instant>,
}

impl<R: Read> BudgetReader<R> {
    fn new(inner: R, budget: Duration) -> Self {
        BudgetReader {
            inner: BufReader::new(inner),
            budget,
            started: None,
        }
    }

    /// Resets the clock for the next message on a keep-alive connection.
    fn begin_message(&mut self) {
        self.started = None;
    }

    /// When the current message's first byte arrived (None until then) —
    /// the request span's start and the read phase's zero point.
    fn message_started(&self) -> Option<Instant> {
        self.started
    }
}

impl<R: Read> BufRead for BudgetReader<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if let Some(started) = self.started {
            if started.elapsed() > self.budget {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "request arrival budget exhausted",
                ));
            }
        } else if !self.inner.fill_buf()?.is_empty() {
            // First byte of the message: the budget clock starts.
            self.started = Some(Instant::now());
        }
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
    }
}

impl<R: Read> Read for BudgetReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// Classifies a write failure into the connection-fault counters.
/// Returns whether the write succeeded.
fn write_counted(state: &ServeState, written: io::Result<()>) -> bool {
    match written {
        Ok(()) => true,
        Err(e) => {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                ServeMetrics::bump(&state.metrics.write_timeouts);
            } else {
                ServeMetrics::bump(&state.metrics.conn_io_errors);
            }
            false
        }
    }
}

/// Lingering close after an error response to a request we did not
/// finish reading. Closing immediately would leave the peer's unread
/// bytes in our receive buffer, which turns the close into a TCP reset —
/// destroying the just-written response before the peer reads it.
/// Instead: FIN our side, then discard whatever the peer is still
/// sending until it closes or a short grace period expires.
fn linger_close(stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut sink = [0u8; 1024];
    let mut stream = stream;
    while Instant::now() < deadline {
        match Read::read(&mut stream, &mut sink) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
}

/// Classifies a request-read failure into the connection-fault counters.
fn count_parse_error(state: &ServeState, error: &ParseError) {
    match error {
        ParseError::Timeout => ServeMetrics::bump(&state.metrics.read_timeouts),
        ParseError::Bad(what) if what.contains("truncated") => {
            ServeMetrics::bump(&state.metrics.conn_truncated);
        }
        ParseError::Io(_) => ServeMetrics::bump(&state.metrics.conn_io_errors),
        _ => {}
    }
}

/// Serves one connection: read → route → respond, keep-alive until the
/// peer closes, an error occurs, or the server starts draining.
fn serve_connection(
    state: &ServeState,
    stream: TcpStream,
    limits: &Limits,
    server_handle: &ServerHandle,
) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let timeout = state.request_timeout();
    let mut reader = BudgetReader::new(stream, timeout);
    loop {
        reader.begin_message();
        match read_request(&mut reader, limits) {
            Ok(request) => {
                // Read phase: first byte on the wire → fully parsed. The
                // request's root span is backdated to that first byte so
                // handler phases nest under the true request window.
                let arrival = reader.message_started().unwrap_or_else(Instant::now);
                let read_elapsed = arrival.elapsed();
                state.obs.read.record(read_elapsed);
                let read_ns = u64::try_from(read_elapsed.as_nanos()).unwrap_or(u64::MAX);
                let start_ns = state.obs.tracer.now_ns().saturating_sub(read_ns);
                let root = state.obs.tracer.span_at("request", 0, start_ns);
                state
                    .obs
                    .tracer
                    .record("read", root.id(), start_ns, read_ns);

                let deadline = Deadline::new(CancelToken::new(), Instant::now() + timeout);
                // Decided after the answer: a shutdown request starts the
                // drain, and a draining server closes every connection.
                let keep_alive =
                    |close: bool| !close && request.keep_alive() && !state.is_draining();
                let (status, action, keep) = match route(state, &request, &deadline, root.id()) {
                    // HTTP/1.0 peers cannot parse chunked framing; their
                    // studies are buffered below like every other answer.
                    Reply::Stream(job) if request.http11 => {
                        let (status, result) = job.stream(&mut writer);
                        let written = write_counted(state, result);
                        // An error frame replaced the summary: close.
                        (
                            status,
                            Action::Continue,
                            written && keep_alive(status != 200),
                        )
                    }
                    reply => {
                        let (mut response, action) = reply.buffered();
                        let keep = keep_alive(response.close);
                        response.close = !keep;
                        let write_span = state.obs.tracer.child("write", root.id());
                        let t_write = Instant::now();
                        let written = write_counted(state, write_response(&mut writer, &response));
                        state.obs.write.record(t_write.elapsed());
                        drop(write_span);
                        (response.status, action, written && keep)
                    }
                };
                state.metrics.record_status(status);
                let dur_ns = root.finish();
                state
                    .obs
                    .observe_request(&request.method, request.path(), status, dur_ns);
                if action == Action::Shutdown {
                    server_handle.shutdown();
                }
                if !keep {
                    return;
                }
            }
            Err(e) => {
                count_parse_error(state, &e);
                if let Some(status) = e.status() {
                    ServeMetrics::bump(&state.metrics.parse_errors);
                    let mut response = Response::error(status, &e.to_string());
                    response.close = true;
                    state.metrics.record_status(status);
                    if write_counted(state, write_response(&mut writer, &response)) {
                        linger_close(&writer);
                    }
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Read, Write};
    use std::thread;

    fn boot(
        config: ServeConfig,
        request_timeout: Duration,
    ) -> (SocketAddr, ServerHandle, thread::JoinHandle<io::Result<()>>) {
        let state = Arc::new(ServeState::new(request_timeout).unwrap());
        let server = Server::bind(config, state).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = thread::spawn(move || server.run());
        (addr, handle, runner)
    }

    fn roundtrip(addr: SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        read_one_response(&mut reader)
    }

    fn read_one_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    #[test]
    fn serves_health_and_drains_cleanly() {
        let (addr, handle, runner) = boot(
            ServeConfig {
                threads: 2,
                queue_depth: 8,
                ..ServeConfig::default()
            },
            Duration::from_secs(2),
        );
        let (status, body) = roundtrip(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"status\":\"ok\"}");
        handle.shutdown();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let (addr, handle, runner) = boot(
            ServeConfig {
                threads: 2,
                queue_depth: 8,
                ..ServeConfig::default()
            },
            Duration::from_secs(2),
        );
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for _ in 0..3 {
            w.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let (status, _) = read_one_response(&mut reader);
            assert_eq!(status, 200);
        }
        drop(w);
        drop(reader);
        handle.shutdown();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_and_oversized_requests_get_their_statuses_over_the_wire() {
        let (addr, handle, runner) = boot(
            ServeConfig {
                threads: 2,
                queue_depth: 8,
                limits: Limits {
                    max_body: 128,
                    ..Limits::default()
                },
                ..ServeConfig::default()
            },
            Duration::from_secs(2),
        );
        let (status, _) = roundtrip(addr, "GARBAGE LINE\r\n\r\n");
        assert_eq!(status, 400);
        let big = format!(
            "POST /v1/degrade HTTP/1.1\r\nContent-Length: 500\r\n\r\n{}",
            "x".repeat(500)
        );
        let (status, _) = roundtrip(addr, &big);
        assert_eq!(status, 413);
        handle.shutdown();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn an_aging_sweep_point_the_model_refuses_is_a_client_error() {
        let (addr, handle, runner) = boot(
            ServeConfig {
                threads: 2,
                queue_depth: 8,
                ..ServeConfig::default()
            },
            Duration::from_secs(30),
        );
        // Always stressed at 400 K for 1.8e16 s: c17's shifts pass the gate
        // overdrive, where the degraded timing is undefined.
        let body = "{\"workload\":{\"kind\":\"aging\",\"circuits\":[\"c17\"],\
             \"policies\":[\"worst\"]},\"ras\":[[1,0]],\"t_standby_k\":[400],\
             \"lifetime_s\":[1.8e16]}";
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write!(
            w,
            "POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let (status, text) = read_one_response(&mut reader);
        assert_eq!(status, 400, "{text}");
        assert!(
            text.starts_with("{\"error\":\"timing: invalid threshold shift"),
            "{text}"
        );
        // On the same connection, so the sweep's status is counted first.
        w.write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (_, metrics) = read_one_response(&mut reader);
        assert!(
            metrics.contains("relia_serve_responses_client_error 1\n")
                && metrics.contains("relia_serve_responses_server_error 0\n"),
            "{metrics}"
        );
        handle.shutdown();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn stalled_request_times_out_with_408() {
        let (addr, handle, runner) = boot(
            ServeConfig {
                threads: 2,
                queue_depth: 8,
                ..ServeConfig::default()
            },
            Duration::from_millis(200),
        );
        let mut stream = TcpStream::connect(addr).unwrap();
        // Half a request line, then silence.
        stream.write_all(b"POST /v1/degr").unwrap();
        let mut reader = BufReader::new(stream);
        let (status, _) = read_one_response(&mut reader);
        assert_eq!(status, 408);
        handle.shutdown();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn slow_header_dribble_exhausts_the_arrival_budget_with_408() {
        // Each byte lands well inside the 250 ms socket timeout, so the
        // per-read clock alone would never fire; the total arrival budget
        // must be what converts the dribble into a 408.
        let (addr, handle, runner) = boot(
            ServeConfig {
                threads: 2,
                queue_depth: 8,
                ..ServeConfig::default()
            },
            Duration::from_millis(250),
        );
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let dribble = b"GET /healthz HTTP/1.1\r\nX-Slow: yes\r\n";
        let started = Instant::now();
        let mut sent_all = true;
        for &byte in dribble {
            if stream.write_all(&[byte]).is_err() {
                // The server may close on us once the budget fires.
                sent_all = false;
                break;
            }
            thread::sleep(Duration::from_millis(40));
            if started.elapsed() > Duration::from_secs(3) {
                break;
            }
        }
        let _ = sent_all; // either way, the response must be a 408
        let mut reader = BufReader::new(stream);
        let (status, _) = read_one_response(&mut reader);
        assert_eq!(status, 408);
        handle.shutdown();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn mid_body_disconnect_recycles_the_worker_cleanly() {
        // Single worker: if a truncated body wedged or killed it, the
        // follow-up healthz could never be served.
        let state = Arc::new(ServeState::new(Duration::from_secs(2)).unwrap());
        let server = Server::bind(
            ServeConfig {
                threads: 1,
                queue_depth: 8,
                ..ServeConfig::default()
            },
            Arc::clone(&state),
        )
        .unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = thread::spawn(move || server.run());

        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"POST /v1/degrade HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"tem")
                .unwrap();
            // Half-close so the server sees EOF mid-body immediately; keep
            // the read side open to collect the 400.
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reader = BufReader::new(stream);
            let (status, _) = read_one_response(&mut reader);
            assert_eq!(status, 400);
        }

        // The same (only) worker serves the next connection.
        let (status, body) = roundtrip(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"status\":\"ok\"}");
        let snapshot = state.metrics.snapshot();
        assert_eq!(snapshot.counter("serve_conn_truncated"), Some(1));
        assert_eq!(snapshot.counter("serve_parse_errors"), Some(1));
        handle.shutdown();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn live_requests_populate_latency_histograms_and_trace() {
        let (addr, handle, runner) = boot(
            ServeConfig {
                threads: 2,
                queue_depth: 8,
                ..ServeConfig::default()
            },
            Duration::from_secs(5),
        );
        let body = "{\"ras\":[1,9],\"t_standby_k\":330,\"lifetime_s\":1e8,\
             \"p_active\":0.5,\"p_standby\":1}";
        let (status, _) = roundtrip(
            addr,
            &format!(
                "POST /v1/degrade HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        );
        assert_eq!(status, 200);

        let (status, metrics) =
            roundtrip(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200);
        assert!(metrics.starts_with("# TYPE relia_build_info gauge\n"));
        for series in [
            "# TYPE relia_serve_request_seconds histogram\n",
            "# TYPE relia_serve_read_seconds histogram\n",
            "# TYPE relia_serve_queue_seconds histogram\n",
            "# TYPE relia_serve_eval_seconds histogram\n",
            "# TYPE relia_process_uptime_seconds gauge\n",
        ] {
            assert!(metrics.contains(series), "missing {series:?}");
        }
        // The degrade request finished before the scrape arrived, so the
        // read/queue phases have seen at least two events (degrade + this
        // scrape's own connection) and eval exactly one.
        assert!(metrics.contains("relia_serve_eval_seconds_count 1\n"));

        let (status, trace) = roundtrip(
            addr,
            "GET /debug/trace HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        for name in ["queue_wait", "read", "request", "evaluate", "write"] {
            assert!(
                trace.contains(&format!("\"name\":\"{name}\"")),
                "missing span {name:?} in {trace}"
            );
        }
        handle.shutdown();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn fleet_streams_chunked_over_the_wire_and_keeps_alive() {
        let (addr, handle, runner) = boot(
            ServeConfig {
                threads: 2,
                queue_depth: 8,
                ..ServeConfig::default()
            },
            Duration::from_secs(30),
        );
        let body = "{\"ras\":[1,9],\"t_standby_k\":330,\"p_active\":0.5,\"p_standby\":1,\
             \"times_s\":[1e8],\"samples\":2000}";
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        w.write_all(
            format!(
                "POST /v1/fleet HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();

        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        assert!(status_line.contains("200"), "{status_line}");
        let mut chunked = false;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            assert!(
                !line.to_ascii_lowercase().starts_with("content-length"),
                "streamed response must not carry a content-length"
            );
            if line.eq_ignore_ascii_case("transfer-encoding: chunked") {
                chunked = true;
            }
        }
        assert!(chunked);
        let mut payload = String::new();
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line).unwrap();
            let size = usize::from_str_radix(size_line.trim_end(), 16).unwrap();
            let mut buf = vec![0u8; size + 2];
            reader.read_exact(&mut buf).unwrap();
            if size == 0 {
                break;
            }
            payload.push_str(std::str::from_utf8(&buf[..size]).unwrap());
        }
        assert!(payload.contains("\"chunk\":1"), "{payload}");
        assert!(payload.contains("\"samples\":2000"), "{payload}");
        assert!(payload.contains("\"lifetime_s\":{"), "{payload}");

        // The connection survives the streamed response: keep-alive works.
        w.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (status, health) = read_one_response(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(health, "{\"status\":\"ok\"}");
        handle.shutdown();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_endpoint_drains_the_server() {
        let (addr, _handle, runner) = boot(
            ServeConfig {
                threads: 2,
                queue_depth: 8,
                ..ServeConfig::default()
            },
            Duration::from_secs(2),
        );
        let (status, body) = roundtrip(addr, "POST /admin/shutdown HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"status\":\"draining\"}");
        // run() returns without any external shutdown() call.
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn overload_is_shed_with_503_and_retry_after() {
        // One worker, queue depth 1, and the worker is wedged by a slow
        // request → the 3rd+ connection must be shed.
        let (addr, handle, runner) = boot(
            ServeConfig {
                threads: 1,
                queue_depth: 1,
                ..ServeConfig::default()
            },
            Duration::from_secs(2),
        );
        // Wedge the worker: open a connection and send nothing; the worker
        // blocks in read for up to request_timeout.
        let wedge1 = TcpStream::connect(addr).unwrap();
        let wedge2 = TcpStream::connect(addr).unwrap();
        // Now hammer until a shed 503 appears (the accept loop races the
        // queue, so not every attempt is guaranteed to shed).
        let mut saw_shed = false;
        for _ in 0..20 {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut reader = BufReader::new(stream);
            let mut status_line = String::new();
            if reader.read_line(&mut status_line).is_err() {
                continue;
            }
            if status_line.contains("503") {
                let mut rest = String::new();
                while reader.read_line(&mut rest).is_ok() && rest.trim_end() != "" {
                    if rest.to_ascii_lowercase().starts_with("retry-after:") {
                        saw_shed = true;
                    }
                    rest.clear();
                }
                if saw_shed {
                    break;
                }
            }
        }
        assert!(saw_shed, "expected at least one 503 with retry-after");
        drop(wedge1);
        drop(wedge2);
        handle.shutdown();
        runner.join().unwrap().unwrap();
    }
}
