//! Property-based fuzzing of the HTTP/1.1 request parser.
//!
//! The parser sits directly on untrusted socket bytes, so the bar is: it
//! never panics, and every rejection maps to the documented status class —
//! 400 for malformed syntax, 413 for exceeded limits, quiet close for a
//! clean EOF before a request starts. Random inputs here are adversarial
//! by construction (raw bytes, truncations, oversized fields, pipelined
//! garbage); the deterministic unit tests in `src/http.rs` pin the exact
//! cases.

use std::io::Cursor;

use proptest::collection::vec;
use proptest::prelude::*;
use relia_serve::{read_request, Limits, ParseError};

fn small_limits() -> Limits {
    Limits {
        max_request_line: 128,
        max_header_line: 128,
        max_headers: 8,
        max_body: 256,
    }
}

/// Drains a byte stream through the parser until it errors or the stream
/// is exhausted, returning every outcome. Never more than `cap` rounds, so
/// a pathological accept-everything bug cannot loop forever.
fn parse_all(bytes: &[u8], limits: &Limits) -> Vec<Result<(), ParseError>> {
    let mut reader = Cursor::new(bytes.to_vec());
    let mut outcomes = Vec::new();
    for _ in 0..64 {
        match read_request(&mut reader, limits) {
            Ok(_) => outcomes.push(Ok(())),
            Err(e) => {
                let stop = matches!(e, ParseError::Closed | ParseError::Io(_));
                outcomes.push(Err(e));
                if stop {
                    break;
                }
            }
        }
    }
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the parser, and every error carries a
    /// defined mapping (400 / 413 / 408, or a quiet close).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..=300)) {
        for outcome in parse_all(&bytes, &small_limits()) {
            if let Err(e) = outcome {
                let ok = matches!(e.status(), Some(400 | 413 | 408) | None);
                prop_assert!(ok, "unexpected mapping for {e:?}");
            }
        }
    }

    /// Printable garbage lines are rejected as 400 (or parse as a valid
    /// request if the generator happens to spell one), never a panic.
    #[test]
    fn garbage_text_maps_to_400_or_parses(line in "[ -~]{0,120}") {
        let mut bytes = line.clone().into_bytes();
        bytes.extend_from_slice(b"\r\n\r\n");
        let mut reader = Cursor::new(bytes);
        match read_request(&mut reader, &small_limits()) {
            Ok(req) => drop(req),
            Err(e) => prop_assert!(
                matches!(e.status(), Some(400 | 413) | None),
                "line {line:?} mapped to {e:?}"
            ),
        }
    }

    /// A syntactically valid request round-trips regardless of the target
    /// and body the generator picks. (The vendored proptest ignores regex
    /// classes, so the path segment is mapped onto `[a-z]` explicitly.)
    #[test]
    fn valid_requests_round_trip(
        seg in vec(0u8..26, 1..=24)
            .prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect::<String>()),
        body in vec(any::<u8>(), 0..=200),
    ) {
        let raw = format!(
            "POST /v1/{seg} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut bytes = raw.into_bytes();
        bytes.extend_from_slice(&body);
        let mut reader = Cursor::new(bytes);
        let req = read_request(&mut reader, &small_limits()).unwrap();
        prop_assert_eq!(req.method.as_str(), "POST");
        let want = format!("/v1/{seg}");
        prop_assert_eq!(req.path(), want.as_str());
        prop_assert_eq!(&req.body, &body);
    }

    /// A declared body longer than `max_body` is 413 before any body byte
    /// is trusted; a longer-than-declared stream does not leak extra bytes
    /// into the request.
    #[test]
    fn oversized_declared_bodies_are_413(extra in 1usize..=4096) {
        let limits = small_limits();
        let n = limits.max_body + extra;
        let raw = format!("POST /v1/degrade HTTP/1.1\r\ncontent-length: {n}\r\n\r\n");
        let mut bytes = raw.into_bytes();
        bytes.extend_from_slice(&vec![b'x'; n]);
        let mut reader = Cursor::new(bytes);
        let e = read_request(&mut reader, &limits).unwrap_err();
        prop_assert_eq!(e.status(), Some(413), "{e:?}");
    }

    /// Truncating a valid request at any byte yields a clean close or a
    /// 400/408-class error — never a panic, never a phantom request.
    #[test]
    fn truncation_never_panics(cut in 0usize..=64) {
        let raw = b"POST /v1/degrade HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
        let cut = cut.min(raw.len());
        let mut reader = Cursor::new(raw[..cut].to_vec());
        match read_request(&mut reader, &small_limits()) {
            Ok(req) => prop_assert_eq!(&req.body, b"hello", "full request at cut={cut}"),
            Err(e) => prop_assert!(
                matches!(e.status(), Some(400 | 408) | None),
                "cut={cut} mapped to {e:?}"
            ),
        }
    }

    /// Pipelined valid requests followed by garbage: the valid prefix
    /// parses request-by-request, then the garbage is rejected without
    /// affecting the already-parsed ones.
    #[test]
    fn pipelined_prefix_survives_trailing_garbage(
        count in 1usize..=4,
        junk in vec(any::<u8>(), 1..=64),
    ) {
        let mut bytes = Vec::new();
        for _ in 0..count {
            bytes.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        }
        bytes.extend_from_slice(&junk);
        let outcomes = parse_all(&bytes, &small_limits());
        let parsed = outcomes.iter().take_while(|o| o.is_ok()).count();
        prop_assert!(parsed >= count, "{parsed} < {count}: {outcomes:?}");
    }
}
