//! The minimal HTTP/1.1 client the serve examples share: one request
//! written, one `content-length`-framed response read, one Prometheus
//! counter scraped. Each example uses the subset it needs.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Writes one request with a `content-length` header and `body`.
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Reads one response: its status code and its `content-length` body.
pub fn read_response(reader: &mut BufReader<TcpStream>) -> Result<(u16, Vec<u8>), String> {
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("reading status line: {e}"))?;
    if status_line.is_empty() {
        return Err("eof before status line".to_owned());
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("reading header: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse().ok())
        {
            content_length = v;
        }
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("reading body: {e}"))?;
    Ok((status, body))
}

/// Scrapes one counter value out of a Prometheus text exposition.
pub fn scrape_counter(metrics_text: &str, name: &str) -> Option<u64> {
    metrics_text.lines().find_map(|line| {
        line.strip_prefix(name)
            .and_then(|rest| rest.trim().parse().ok())
    })
}
