//! The wire, pinned: a live server answers a fixed request script over
//! HTTP/1.1 and HTTP/1.0, and the raw bytes of every answer — status line,
//! headers, framing and body — must equal `fixtures/wire.http`.
//!
//! The script covers every endpoint whose answer carries no timing:
//! degrade (`?mode=exact` and a 400 too), a model sweep and an oversized
//! one (413), a 5,000-sample fleet (chunked on a keep-alive HTTP/1.1
//! connection, `content-length` framed for HTTP/1.0), a malformed fleet,
//! 405 and 404, and healthz; then a server in brownout that sheds cold
//! degrade, sweep and fleet work with `retry-after`; then a graceful drain
//! answering requests on connections opened before it. `/metrics` and
//! `/debug/trace` bodies carry timings and stay out (`obs_probe` checks
//! their shape).

#![allow(clippy::unwrap_used)]

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use relia_serve::{ServeConfig, ServeState, Server, ServerHandle, DEFAULT_BROWNOUT_HIGH_WATER};

/// Every request's deadline: generous, so a debug build never times out.
const TIMEOUT: Duration = Duration::from_secs(60);

const FIXTURE: &[u8] = include_bytes!("fixtures/wire.http");

const DEGRADE: &str = "{\"ras\":[1,9],\"t_standby_k\":330,\"lifetime_s\":1e8,\
     \"p_active\":0.5,\"p_standby\":1}";

const SWEEP: &str = "{\"workload\":{\"kind\":\"model\",\"p_active\":0.5,\"p_standby\":1},\
     \"ras\":[[1,9],[1,5]],\"t_standby_k\":[330,400],\"lifetime_s\":[3.156e7,1e8]}";

const FLEET: &str = "{\"ras\":[1,9],\"t_standby_k\":330,\"p_active\":0.5,\"p_standby\":1,\
     \"times_s\":[3.156e7,1e8],\"samples\":5000}";

fn oversized_sweep() -> String {
    let lifetimes: Vec<String> = (1..=300).map(|i| format!("{i}e6")).collect();
    format!(
        "{{\"workload\":{{\"kind\":\"model\",\"p_active\":0.5,\"p_standby\":1}},\
         \"ras\":[[1,9]],\"t_standby_k\":[330],\"lifetime_s\":[{}]}}",
        lifetimes.join(",")
    )
}

/// The script both HTTP versions send: (method, target, body).
fn script() -> Vec<(&'static str, &'static str, String)> {
    vec![
        ("POST", "/v1/degrade", DEGRADE.to_owned()),
        ("POST", "/v1/degrade?mode=exact", DEGRADE.to_owned()),
        ("POST", "/v1/degrade", "{\"ras\":[1]}".to_owned()),
        ("POST", "/v1/sweep", SWEEP.to_owned()),
        ("POST", "/v1/sweep", oversized_sweep()),
        ("POST", "/v1/fleet", FLEET.to_owned()),
        ("GET", "/healthz", String::new()),
        ("POST", "/v1/fleet", "nope".to_owned()),
        ("GET", "/v1/fleet", String::new()),
        ("GET", "/nope", String::new()),
    ]
}

fn request(version: &str, method: &str, target: &str, body: &str) -> Vec<u8> {
    let length = if method == "POST" {
        format!("content-length: {}\r\n", body.len())
    } else {
        String::new()
    };
    format!("{method} {target} HTTP/{version}\r\n{length}\r\n{body}").into_bytes()
}

/// Reads one response's raw bytes off a keep-alive connection, framed by
/// its `content-length` or its chunked encoding.
fn read_response(reader: &mut impl BufRead) -> Vec<u8> {
    let mut raw = Vec::new();
    let mut content_length = 0usize;
    let mut chunked = false;
    loop {
        let start = raw.len();
        reader.read_until(b'\n', &mut raw).unwrap();
        let line = String::from_utf8_lossy(&raw[start..]).to_ascii_lowercase();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
        chunked |= line == "transfer-encoding: chunked";
    }
    if !chunked {
        let start = raw.len();
        raw.resize(start + content_length, 0);
        reader.read_exact(&mut raw[start..]).unwrap();
        return raw;
    }
    loop {
        let start = raw.len();
        reader.read_until(b'\n', &mut raw).unwrap();
        let size_line = String::from_utf8_lossy(&raw[start..]).into_owned();
        let size = usize::from_str_radix(size_line.trim_end(), 16).unwrap();
        let start = raw.len();
        raw.resize(start + size + 2, 0);
        reader.read_exact(&mut raw[start..]).unwrap();
        if size == 0 {
            return raw;
        }
    }
}

/// One keep-alive HTTP/1.1 connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        Conn {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, method: &str, target: &str, body: &str) -> Vec<u8> {
        self.writer
            .write_all(&request("1.1", method, target, body))
            .unwrap();
        read_response(&mut self.reader)
    }
}

/// One HTTP/1.0 exchange on its own connection, read until the server
/// closes it.
fn send_http10(addr: SocketAddr, method: &str, target: &str, body: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream
        .write_all(&request("1.0", method, target, body))
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    raw
}

/// The concatenated answers, each behind a `=== label` line.
#[derive(Default)]
struct Capture(Vec<u8>);

impl Capture {
    fn push(&mut self, label: &str, raw: &[u8]) {
        self.0
            .extend_from_slice(format!("=== {label}\n").as_bytes());
        self.0.extend_from_slice(raw);
        self.0.push(b'\n');
    }
}

fn boot(
    brownout_high_water: u64,
) -> (SocketAddr, ServerHandle, thread::JoinHandle<io::Result<()>>) {
    let state = Arc::new(
        ServeState::new(TIMEOUT)
            .unwrap()
            .with_brownout_high_water(brownout_high_water),
    );
    let config = ServeConfig {
        threads: 6,
        queue_depth: 16,
        ..ServeConfig::default()
    };
    let server = Server::bind(config, state).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    (addr, handle, thread::spawn(move || server.run()))
}

fn capture() -> Vec<u8> {
    let mut out = Capture::default();

    let (addr, _handle, runner) = boot(DEFAULT_BROWNOUT_HIGH_WATER);
    let mut keep_alive = Conn::open(addr);
    for (method, target, body) in script() {
        let raw = keep_alive.send(method, target, &body);
        out.push(&format!("HTTP/1.1 {method} {target}"), &raw);
    }
    for (method, target, body) in script() {
        let raw = send_http10(addr, method, target, &body);
        out.push(&format!("HTTP/1.0 {method} {target}"), &raw);
    }
    // Three connections opened (and served once) before the drain begins.
    let mut early: Vec<Conn> = (0..3).map(|_| Conn::open(addr)).collect();
    for (i, conn) in early.iter_mut().enumerate() {
        let raw = conn.send("GET", "/healthz", "");
        out.push(&format!("early connection {i}: GET /healthz"), &raw);
    }
    let raw = keep_alive.send("POST", "/admin/shutdown", "");
    out.push("HTTP/1.1 POST /admin/shutdown", &raw);
    let raw = early[0].send("POST", "/v1/degrade", DEGRADE);
    out.push("draining, early connection 0: POST /v1/degrade", &raw);
    let raw = early[1].send("POST", "/v1/fleet", FLEET);
    out.push("draining, early connection 1: POST /v1/fleet", &raw);
    let raw = early[2].send("GET", "/healthz", "");
    out.push("draining, early connection 2: GET /healthz", &raw);
    drop(keep_alive);
    drop(early);
    runner.join().unwrap().unwrap();

    // Every connection counts into the in-flight gauge, so a zero
    // high-water mark browns out the server for its own requests.
    let (addr, handle, runner) = boot(0);
    let mut conn = Conn::open(addr);
    for (method, target, body) in [
        ("POST", "/v1/degrade", DEGRADE),
        ("POST", "/v1/sweep", SWEEP),
        ("POST", "/v1/fleet", FLEET),
        ("GET", "/healthz", ""),
    ] {
        let raw = conn.send(method, target, body);
        out.push(&format!("brownout, HTTP/1.1 {method} {target}"), &raw);
    }
    drop(conn);
    handle.shutdown();
    runner.join().unwrap().unwrap();
    out.0
}

/// The fixture minus its leading `#` comment lines.
fn expected() -> &'static [u8] {
    let mut rest = FIXTURE;
    while rest.first() == Some(&b'#') {
        let end = rest.iter().position(|&b| b == b'\n').unwrap();
        rest = &rest[end + 1..];
    }
    rest
}

#[test]
fn every_answer_matches_the_pinned_wire_bytes() {
    let actual = capture();
    let expected = expected();
    if actual == expected {
        return;
    }
    // Name the first answer that moved, not just the byte offset.
    let split = |bytes: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(bytes)
            .split("\n=== ")
            .map(str::to_owned)
            .collect()
    };
    let (actual, expected) = (split(&actual), split(expected));
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a, e, "an answer's wire bytes changed");
    }
    assert_eq!(
        actual.len(),
        expected.len(),
        "the number of answers changed"
    );
}
