//! Minimal HTTP/1.1 client: keep-alive connections, one `write_all` per
//! request, and response parsing for both `content-length` and chunked
//! (NDJSON-streamed) bodies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest response body accepted (`/debug/trace` with 65,536 spans is the
/// biggest the server sends, at a few MiB).
const MAX_BODY: usize = 64 << 20;

/// Appends a complete request (head and body) to `out`.
pub fn encode_request(out: &mut Vec<u8>, method: &str, path: &str, body: &[u8]) {
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\ncontent-length: ");
    out.extend_from_slice(body.len().to_string().as_bytes());
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

/// Reads one CRLF-terminated line into `line` (terminator stripped).
fn read_line(r: &mut impl BufRead, line: &mut Vec<u8>) -> Result<(), String> {
    line.clear();
    let n = r
        .read_until(b'\n', line)
        .map_err(|e| format!("read: {e}"))?;
    if n == 0 {
        return Err("connection closed mid-response".to_owned());
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(())
}

fn header_value<'a>(line: &'a [u8], name: &str) -> Option<&'a [u8]> {
    let colon = line.iter().position(|&b| b == b':')?;
    let (key, value) = line.split_at(colon);
    key.eq_ignore_ascii_case(name.as_bytes())
        .then(|| value[1..].trim_ascii())
}

fn parse_usize(bytes: &[u8], radix: u32) -> Result<usize, String> {
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|s| usize::from_str_radix(s, radix).ok())
        .ok_or_else(|| format!("bad number {:?}", String::from_utf8_lossy(bytes)))
}

/// Reads one response into `body` (cleared first) and returns its status.
/// `line` is scratch space reused across calls.
pub fn read_response(
    r: &mut impl BufRead,
    line: &mut Vec<u8>,
    body: &mut Vec<u8>,
) -> Result<u16, String> {
    body.clear();
    read_line(r, line)?;
    let status = line
        .split(|&b| b == b' ')
        .nth(1)
        .and_then(|code| parse_usize(code, 10).ok())
        .and_then(|code| u16::try_from(code).ok())
        .ok_or_else(|| format!("bad status line {:?}", String::from_utf8_lossy(line)))?;
    let mut length = None;
    let mut chunked = false;
    loop {
        read_line(r, line)?;
        if line.is_empty() {
            break;
        }
        if let Some(v) = header_value(line, "content-length") {
            length = Some(parse_usize(v, 10)?);
        } else if let Some(v) = header_value(line, "transfer-encoding") {
            chunked = v.eq_ignore_ascii_case(b"chunked");
        }
    }
    if chunked {
        loop {
            read_line(r, line)?;
            let size_end = line.iter().position(|&b| b == b';').unwrap_or(line.len());
            let size = parse_usize(line[..size_end].trim_ascii(), 16)?;
            if size == 0 {
                // Trailers (none expected) end at an empty line.
                loop {
                    read_line(r, line)?;
                    if line.is_empty() {
                        return Ok(status);
                    }
                }
            }
            read_body(r, body, size)?;
            read_line(r, line)?;
            if !line.is_empty() {
                return Err("chunk not followed by CRLF".to_owned());
            }
        }
    }
    let length = length.ok_or("response has neither content-length nor chunked framing")?;
    read_body(r, body, length)?;
    Ok(status)
}

fn read_body(r: &mut impl Read, body: &mut Vec<u8>, size: usize) -> Result<(), String> {
    let start = body.len();
    if start + size > MAX_BODY {
        return Err(format!("response body over {MAX_BODY} bytes"));
    }
    body.resize(start + size, 0);
    r.read_exact(&mut body[start..])
        .map_err(|e| format!("reading body: {e}"))
}

/// The last non-empty line of an NDJSON body.
pub fn last_ndjson_line(body: &[u8]) -> Option<&[u8]> {
    body.split(|&b| b == b'\n').rev().find(|l| !l.is_empty())
}

/// A keep-alive client connection with reusable buffers.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
    /// Body of the most recent response.
    pub body: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = BufReader::with_capacity(
            64 << 10,
            stream.try_clone().map_err(|e| format!("clone: {e}"))?,
        );
        Ok(Conn {
            stream,
            reader,
            line: Vec::with_capacity(256),
            body: Vec::with_capacity(64 << 10),
        })
    }

    /// Sends one encoded request and reads its response into `self.body`.
    pub fn send(&mut self, request: &[u8]) -> Result<u16, String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        read_response(&mut self.reader, &mut self.line, &mut self.body)
    }

    /// Encodes and sends one request; the body of a 200 answer is returned.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> Result<&[u8], String> {
        let mut request = Vec::with_capacity(64 + body.len());
        encode_request(&mut request, method, path, body);
        match self.send(&request)? {
            200 => Ok(&self.body),
            status => Err(format!(
                "{method} {path}: status {status}: {}",
                String::from_utf8_lossy(&self.body)
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
        let mut reader = raw;
        let (mut line, mut body) = (Vec::new(), Vec::new());
        let status = read_response(&mut reader, &mut line, &mut body)?;
        Ok((status, body))
    }

    #[test]
    fn request_is_one_buffer_with_content_length() {
        let mut out = Vec::new();
        encode_request(&mut out, "POST", "/v1/degrade", b"{}");
        assert_eq!(
            out,
            b"POST /v1/degrade HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}".to_vec()
        );
    }

    #[test]
    fn content_length_bodies_parse_back_to_back() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nContent-Length: 5\r\n\r\nhello\
                    HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\nretry-after: 1\r\n\r\n";
        let mut reader = &raw[..];
        let (mut line, mut body) = (Vec::new(), Vec::new());
        assert_eq!(read_response(&mut reader, &mut line, &mut body), Ok(200));
        assert_eq!(body, b"hello");
        assert_eq!(read_response(&mut reader, &mut line, &mut body), Ok(503));
        assert!(body.is_empty());
        assert!(reader.is_empty());
    }

    #[test]
    fn chunked_ndjson_bodies_are_reassembled() {
        let pieces = [
            "{\"chunk\":1,\"of\":2}\n",
            "{\"chunk\":2,",
            "\"of\":2}\n{\"samples\":10000}\n",
        ];
        let mut raw = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                        Transfer-Encoding: chunked\r\n\r\n"
            .to_vec();
        for piece in pieces {
            raw.extend_from_slice(format!("{:x}\r\n{piece}\r\n", piece.len()).as_bytes());
        }
        raw.extend_from_slice(b"0\r\n\r\n");
        let (status, body) = parse(&raw).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, pieces.concat().into_bytes());
        assert_eq!(last_ndjson_line(&body), Some(&b"{\"samples\":10000}"[..]));
    }

    #[test]
    fn malformed_responses_are_errors_not_panics() {
        assert!(parse(b"").is_err());
        assert!(parse(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\n\r\n").is_err(), "no framing");
        assert!(parse(b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nshort").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n2\r\nabXX").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999\r\n\r\n").is_err());
    }
}
