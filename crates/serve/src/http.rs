//! A hardened HTTP/1.1 request reader and response writer over any
//! buffered byte stream.
//!
//! This is deliberately a *subset* of HTTP/1.1 — exactly what an offline
//! JSON API needs and nothing a parser bug can hide in:
//!
//! * request line + headers + `Content-Length` body; no chunked *request*
//!   bodies, no trailers, no upgrades, no continuation lines (responses
//!   may stream with chunked transfer encoding — see
//!   [`write_chunked_head`]);
//! * every dimension is bounded ([`Limits`]): request-line bytes, header
//!   count and line bytes, body bytes — oversize input maps to **413**;
//! * malformed input (bad request line, bad header syntax, bad
//!   `Content-Length`, truncated message) maps to **400**;
//! * a read that times out mid-message maps to **408** — but a timeout (or
//!   clean close) *between* messages on a keep-alive connection is a
//!   normal end of connection, not an error;
//! * reads are incremental and exact: there is no `read_to_end` anywhere a
//!   hostile peer could stall (relia-lint R7 enforces this for serve
//!   code).
//!
//! The reader/writer are pure functions of the stream, so property tests
//! drive them with in-memory cursors and the server drives them with
//! `TcpStream`s — same code path.

use std::io::{self, BufRead, Write};

use relia_core::json;

/// Upper bounds on one request's dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Longest accepted request line (method + target + version), bytes.
    pub max_request_line: usize,
    /// Longest accepted single header line, bytes.
    pub max_header_line: usize,
    /// Most headers accepted.
    pub max_headers: usize,
    /// Largest accepted body, bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 * 1024,
            max_header_line: 8 * 1024,
            max_headers: 64,
            max_body: 64 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method token, as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path, query string included).
    pub target: String,
    /// True for `HTTP/1.1`, false for `HTTP/1.0`.
    pub http11: bool,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header named `name` (lower-case), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The path component of the target (query string stripped).
    pub fn path(&self) -> &str {
        self.target
            .split_once('?')
            .map_or(self.target.as_str(), |(p, _)| p)
    }

    /// Whether the connection should stay open after this exchange
    /// (HTTP/1.1 defaults to keep-alive, 1.0 to close).
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// How reading a request failed, mapped to the response status the server
/// must send (if any).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Syntactically invalid request → **400**.
    Bad(&'static str),
    /// A limit was exceeded → **413**.
    TooLarge(&'static str),
    /// The read timed out mid-message → **408**.
    Timeout,
    /// The peer closed (or timed out) between messages: normal end of a
    /// keep-alive connection. No response is owed.
    Closed,
    /// Transport failure; the connection is unusable.
    Io(io::ErrorKind),
}

impl ParseError {
    /// The HTTP status the server should answer with, or `None` when the
    /// connection just ends.
    pub fn status(&self) -> Option<u16> {
        match self {
            ParseError::Bad(_) => Some(400),
            ParseError::TooLarge(_) => Some(413),
            ParseError::Timeout => Some(408),
            ParseError::Closed | ParseError::Io(_) => None,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Bad(what) => write!(f, "bad request: {what}"),
            ParseError::TooLarge(what) => write!(f, "request too large: {what}"),
            ParseError::Timeout => write!(f, "timed out reading the request"),
            ParseError::Closed => write!(f, "connection closed"),
            ParseError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one line (terminated by `\n`; a trailing `\r` is stripped) with a
/// byte cap. `started` reports whether any bytes had already been consumed
/// for the current message — it decides whether EOF/timeouts mean a clean
/// connection end ([`ParseError::Closed`]) or a damaged message.
fn read_line(
    reader: &mut impl BufRead,
    cap: usize,
    started: bool,
    too_large: &'static str,
) -> Result<String, ParseError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if is_timeout(&e) => {
                return Err(if started || !line.is_empty() {
                    ParseError::Timeout
                } else {
                    ParseError::Closed
                });
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e.kind())),
        };
        if available.is_empty() {
            // EOF: clean between messages, truncation inside one.
            return Err(if started || !line.is_empty() {
                ParseError::Bad("truncated message")
            } else {
                ParseError::Closed
            });
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |p| p + 1);
        if line.len() + take > cap + 2 {
            // +2 tolerates the \r\n itself on an exactly-cap-sized line.
            return Err(ParseError::TooLarge(too_large));
        }
        line.extend_from_slice(&available[..take]);
        reader.consume(take);
        if newline.is_some() {
            while matches!(line.last(), Some(b'\n' | b'\r')) {
                line.pop();
            }
            return String::from_utf8(line).map_err(|_| ParseError::Bad("non-utf-8 header bytes"));
        }
    }
}

fn valid_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"-!#$%&'*+.^_`|~".contains(&b))
}

/// Reads one request from `reader`.
///
/// # Errors
///
/// [`ParseError::Closed`] when the peer ended the connection cleanly
/// before sending anything; the other variants as documented on
/// [`ParseError`].
pub fn read_request(reader: &mut impl BufRead, limits: &Limits) -> Result<Request, ParseError> {
    // Tolerate one empty line before the request line (robustness against
    // sloppy pipelining), per RFC 9112 §2.2.
    let mut request_line = read_line(reader, limits.max_request_line, false, "request line")?;
    if request_line.is_empty() {
        request_line = read_line(reader, limits.max_request_line, false, "request line")?;
    }
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseError::Bad("malformed request line")),
    };
    if !valid_token(method) {
        return Err(ParseError::Bad("invalid method token"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::Bad("unsupported http version")),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line(reader, limits.max_header_line, true, "header line")?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(ParseError::TooLarge("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Bad("header without ':'"))?;
        if !valid_token(name) {
            // Also rejects leading whitespace, i.e. obsolete line folding.
            return Err(ParseError::Bad("invalid header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut request = Request {
        method: method.to_owned(),
        target: target.to_owned(),
        http11,
        headers,
        body: Vec::new(),
    };

    if request.header("transfer-encoding").is_some() {
        return Err(ParseError::Bad("transfer-encoding is not supported"));
    }
    let content_length = match request.header("content-length") {
        None => 0,
        Some(v) => {
            if request
                .headers
                .iter()
                .filter(|(n, _)| n == "content-length")
                .count()
                > 1
            {
                return Err(ParseError::Bad("duplicate content-length"));
            }
            v.parse::<usize>()
                .map_err(|_| ParseError::Bad("invalid content-length"))?
        }
    };
    if content_length > limits.max_body {
        return Err(ParseError::TooLarge("body exceeds limit"));
    }
    if content_length > 0 {
        let mut body = vec![0u8; content_length];
        let mut filled = 0;
        while filled < content_length {
            match reader.read(&mut body[filled..]) {
                Ok(0) => return Err(ParseError::Bad("truncated body")),
                Ok(n) => filled += n,
                Err(e) if is_timeout(&e) => return Err(ParseError::Timeout),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ParseError::Io(e.kind())),
            }
        }
        request.body = body;
    }
    Ok(request)
}

/// One response about to be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Adds `Retry-After: <secs>` (load shedding).
    pub retry_after: Option<u32>,
    /// Forces `Connection: close`.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            retry_after: None,
            close: false,
        }
    }

    /// A JSON error response `{"error":"<message>"}`.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!("{{\"error\":\"{}\"}}", json::escape(message)),
        )
    }

    /// A plain-text response (the Prometheus exposition format).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into(),
            retry_after: None,
            close: false,
        }
    }
}

/// Canonical reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        203 => "Non-Authoritative Information",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes `response` (HTTP/1.1 framing, explicit `Content-Length`).
///
/// # Errors
///
/// Returns the underlying transport error, which the caller treats as a
/// dead connection.
pub fn write_response(w: &mut impl Write, response: &Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    if let Some(secs) = response.retry_after {
        head.push_str(&format!("retry-after: {secs}\r\n"));
    }
    if response.close {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(&response.body)?;
    w.flush()
}

/// Writes the head of a streamed response: status line, `content-type`,
/// and `transfer-encoding: chunked` instead of a `Content-Length`. The
/// caller then emits body pieces with [`write_chunk`] and terminates with
/// [`write_chunked_end`]. HTTP/1.1 only — 1.0 peers cannot parse chunked
/// framing, so callers fall back to a buffered [`write_response`].
///
/// # Errors
///
/// Returns the underlying transport error (a dead connection).
pub fn write_chunked_head(
    w: &mut impl Write,
    status: u16,
    content_type: &'static str,
    close: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\n",
        status,
        reason(status),
    );
    if close {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.flush()
}

/// Writes one chunk: hex size, CRLF, data, CRLF — flushed so the peer sees
/// progress immediately. Empty slices are skipped (a zero-length chunk
/// would terminate the body; that is [`write_chunked_end`]'s job).
///
/// # Errors
///
/// Returns the underlying transport error (a dead connection).
pub fn write_chunk(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    w.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    w.write_all(data)?;
    w.write_all(b"\r\n")?;
    w.flush()
}

/// Terminates a chunked body (`0\r\n\r\n`, no trailers).
///
/// # Errors
///
/// Returns the underlying transport error (a dead connection).
pub fn write_chunked_end(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Read};

    fn parse(bytes: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut Cursor::new(bytes.to_vec()), &Limits::default())
    }

    #[test]
    fn parses_a_post_with_body() {
        let r = parse(b"POST /v1/degrade HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.target, "/v1/degrade");
        assert!(r.http11);
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.body, b"abcd");
        assert!(r.keep_alive());
    }

    #[test]
    fn parses_bare_lf_and_query_strings() {
        let r = parse(b"GET /metrics?verbose=1 HTTP/1.0\n\n").unwrap();
        assert_eq!(r.path(), "/metrics");
        assert!(!r.http11);
        assert!(!r.keep_alive(), "1.0 defaults to close");
    }

    #[test]
    fn connection_header_overrides_default() {
        let r = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive());
        let r = parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(r.keep_alive());
    }

    #[test]
    fn clean_eof_is_closed() {
        assert_eq!(parse(b"").unwrap_err(), ParseError::Closed);
        assert_eq!(parse(b"").unwrap_err().status(), None);
    }

    #[test]
    fn malformed_requests_map_to_400() {
        for bad in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"G<ET / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon\r\n\r\n",
            b"GET / HTTP/1.1\r\n:empty-name\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: two\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n12345",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            b"GET / HTTP/1.1\r\ntrunc",
        ] {
            let e = parse(bad).unwrap_err();
            assert_eq!(e.status(), Some(400), "{bad:?} → {e:?}");
        }
    }

    #[test]
    fn oversized_requests_map_to_413() {
        let limits = Limits {
            max_request_line: 64,
            max_header_line: 64,
            max_headers: 2,
            max_body: 8,
        };
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        let e = read_request(&mut Cursor::new(long_target.into_bytes()), &limits).unwrap_err();
        assert_eq!(e.status(), Some(413));

        let long_header = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "y".repeat(100));
        let e = read_request(&mut Cursor::new(long_header.into_bytes()), &limits).unwrap_err();
        assert_eq!(e.status(), Some(413));

        let many = b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n";
        let e = read_request(&mut Cursor::new(many.to_vec()), &limits).unwrap_err();
        assert_eq!(e.status(), Some(413));

        let big_body = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        let e = read_request(&mut Cursor::new(big_body.to_vec()), &limits).unwrap_err();
        assert_eq!(e.status(), Some(413));
    }

    /// A reader that yields its prefix then times out, like a socket with
    /// `read_timeout` set and a stalled peer.
    struct Stall {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for Stall {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn stalled(prefix: &[u8]) -> Result<Request, ParseError> {
        let mut reader = io::BufReader::new(Stall {
            data: prefix.to_vec(),
            pos: 0,
        });
        read_request(&mut reader, &Limits::default())
    }

    #[test]
    fn timeouts_mid_message_map_to_408() {
        for prefix in [
            &b"POST / HT"[..],
            b"POST / HTTP/1.1\r\nContent-",
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n123",
        ] {
            let e = stalled(prefix).unwrap_err();
            assert_eq!(e.status(), Some(408), "{prefix:?} → {e:?}");
        }
    }

    #[test]
    fn timeout_between_messages_is_a_clean_close() {
        assert_eq!(stalled(b"").unwrap_err(), ParseError::Closed);
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let two = b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/degrade HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let mut cursor = Cursor::new(two.to_vec());
        let a = read_request(&mut cursor, &Limits::default()).unwrap();
        assert_eq!(a.path(), "/healthz");
        let b = read_request(&mut cursor, &Limits::default()).unwrap();
        assert_eq!(b.path(), "/v1/degrade");
        assert_eq!(b.body, b"{}");
        assert_eq!(
            read_request(&mut cursor, &Limits::default()).unwrap_err(),
            ParseError::Closed
        );
    }

    #[test]
    fn response_writer_frames_correctly() {
        let mut out = Vec::new();
        let mut r = Response::json(200, br#"{"ok":true}"#.to_vec());
        r.close = true;
        r.retry_after = Some(2);
        write_response(&mut out, &r).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn error_response_escapes_the_message() {
        let r = Response::error(400, "bad \"x\"");
        assert_eq!(r.body, br#"{"error":"bad \"x\""}"#);
        assert_eq!(reason(203), "Non-Authoritative Information");
        assert_eq!(reason(404), "Not Found");
        assert_eq!(reason(503), "Service Unavailable");
    }

    #[test]
    fn chunked_writer_frames_hex_sizes_and_terminates() {
        let mut out = Vec::new();
        write_chunked_head(&mut out, 200, "application/json", false).unwrap();
        write_chunk(&mut out, b"hello").unwrap();
        // 26 bytes → hex "1a".
        write_chunk(&mut out, &[b'x'; 26]).unwrap();
        write_chunk(&mut out, b"").unwrap(); // skipped, not a terminator
        write_chunked_end(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        assert!(!text.contains("content-length"));
        let body_at = text.find("\r\n\r\n").unwrap() + 4;
        assert_eq!(
            &text[body_at..],
            format!("5\r\nhello\r\n1a\r\n{}\r\n0\r\n\r\n", "x".repeat(26))
        );
    }

    #[test]
    fn chunked_head_can_demand_close() {
        let mut out = Vec::new();
        write_chunked_head(&mut out, 200, "application/json", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }
}
