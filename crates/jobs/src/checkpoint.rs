//! Crash-safe JSONL checkpointing for interruptible sweeps.
//!
//! A checkpoint file is a header line followed by one JSON object per
//! finished job, appended (and flushed) as results arrive. Every line —
//! header included — ends with a CRC-32 of the rest of the object, so
//! corruption (torn writes, bit rot, editor accidents) is *detected*
//! rather than silently parsed into wrong numbers:
//!
//! ```text
//! {"header":"relia-sweep-checkpoint","version":2,"fingerprint":"9a3c…","total":40,"crc":"1b2c3d4e"}
//! {"index":7,"kind":"aging","worst_delta_vth":0.0312,…,"crc":"5e6f7a8b"}
//! {"index":3,"kind":"model","delta_vth":0.0287,"crc":"9c0d1e2f"}
//! {"index":5,"kind":"failed","reason":"panic: …","attempts":3,"crc":"30415263"}
//! ```
//!
//! Floats are serialized with Rust's shortest-round-trip `Display` and
//! parsed back with `str::parse::<f64>`, so a resumed value is *bit-equal*
//! to the original — resuming cannot perturb results. The header carries
//! the [`SweepSpec`](crate::SweepSpec) fingerprint; resuming against a
//! different spec is rejected rather than silently mixing grids.
//!
//! Two read paths with different contracts:
//!
//! * [`load`] is **strict**: any invalid record line is a
//!   [`CheckpointError::CorruptRecord`]. Use it when corruption should be
//!   surfaced, not papered over.
//! * [`salvage`] recovers the **longest valid prefix**: records are
//!   consumed up to the first invalid line; that line and everything after
//!   it are dropped (the count is reported), and when anything was dropped
//!   the file is atomically rewritten to exactly the valid prefix — so a
//!   later append continues from a clean line boundary instead of
//!   concatenating onto a torn one.
//!
//! File creation and the salvage rewrite both go through
//! [`write_atomic`], so a crash mid-create never leaves a half-written
//! header for the next run to trip over.
//!
//! The values are flat and self-describing, so the hand-rolled parser below
//! only handles what the writer emits: one-level objects of strings,
//! numbers, and `null`.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;

use relia_core::seal::{crc32, crc32_extend, lossy_lines, write_atomic};

use crate::spec::{JobResult, JobStatus};

const HEADER_NAME: &str = "relia-sweep-checkpoint";
const VERSION: u64 = 2;

/// Typed error for checkpoint I/O and decoding.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying filesystem error.
    Io(io::Error),
    /// The file exists but has no header line.
    Empty,
    /// The header line is damaged or is not a relia sweep checkpoint.
    BadHeader {
        /// What was wrong with it.
        what: &'static str,
    },
    /// The header names a version this build cannot read.
    UnsupportedVersion {
        /// The version found in the file.
        found: u64,
    },
    /// A record line failed its CRC or did not parse (strict [`load`]
    /// only; [`salvage`] recovers the prefix instead).
    CorruptRecord {
        /// 1-based line number of the first bad line.
        line_no: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::Empty => write!(f, "checkpoint file is empty"),
            CheckpointError::BadHeader { what } => write!(f, "checkpoint header: {what}"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint version {found} (want {VERSION})")
            }
            CheckpointError::CorruptRecord { line_no } => {
                write!(f, "corrupt checkpoint record at line {line_no}")
            }
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A loaded checkpoint: the header identity plus the last recorded status
/// of every job index present in the file.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Spec fingerprint recorded at creation.
    pub fingerprint: u64,
    /// Grid size recorded at creation.
    pub total: usize,
    /// Last-written status per job index.
    pub statuses: BTreeMap<usize, JobStatus>,
}

impl Checkpoint {
    /// Indices whose jobs completed (these are skipped on resume).
    pub fn completed_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.statuses
            .iter()
            .filter(|(_, s)| matches!(s, JobStatus::Completed(_)))
            .map(|(&i, _)| i)
    }
}

/// What [`salvage`] recovered from a (possibly corrupted) checkpoint.
#[derive(Debug)]
pub struct Salvage {
    /// The longest valid prefix, parsed.
    pub checkpoint: Checkpoint,
    /// Record lines dropped (the first invalid line and everything after
    /// it). When non-zero, the file on disk has been rewritten to the
    /// valid prefix.
    pub dropped_records: usize,
}

/// The parsed header plus the raw record lines that follow it.
struct RawCheckpoint {
    header_line: String,
    fingerprint: u64,
    total: usize,
    record_lines: Vec<String>,
}

fn read_raw(path: &Path) -> Result<Option<RawCheckpoint>, CheckpointError> {
    // Lossy lines: bit rot can produce invalid UTF-8, which must surface as
    // an invalid *record* (the mangled text fails its CRC) rather than an
    // unreadable file.
    let Some(mut lines) = lossy_lines(path)? else {
        return Ok(None);
    };
    let header_line = lines.next().ok_or(CheckpointError::Empty)??;
    let header_body = verify_crc(&header_line).ok_or(CheckpointError::BadHeader {
        what: "crc mismatch or missing",
    })?;
    let header = parse_object(header_body).ok_or(CheckpointError::BadHeader {
        what: "not a JSON object",
    })?;
    if header.str_field("header") != Some(HEADER_NAME) {
        return Err(CheckpointError::BadHeader {
            what: "not a relia sweep checkpoint",
        });
    }
    match header.num_field("version") {
        Some(v) if v == VERSION as f64 => {}
        Some(v) => {
            return Err(CheckpointError::UnsupportedVersion { found: v as u64 });
        }
        None => {
            return Err(CheckpointError::BadHeader {
                what: "missing version",
            });
        }
    }
    let fingerprint = header
        .str_field("fingerprint")
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or(CheckpointError::BadHeader {
            what: "missing fingerprint",
        })?;
    let total =
        header
            .num_field("total")
            .map(|n| n as usize)
            .ok_or(CheckpointError::BadHeader {
                what: "missing total",
            })?;
    let record_lines = lines.collect::<io::Result<Vec<String>>>()?;
    Ok(Some(RawCheckpoint {
        header_line,
        fingerprint,
        total,
        record_lines,
    }))
}

/// Validates one record line (CRC + parse). `None` when invalid.
fn decode_record(line: &str) -> Option<(usize, JobStatus)> {
    let body = verify_crc(line)?;
    record_from(&parse_object(body)?)
}

/// Loads a checkpoint strictly, or `Ok(None)` when `path` does not exist.
///
/// # Errors
///
/// Any unreadable file, damaged header, or invalid record line (CRC
/// mismatch, torn tail, unparseable object) is an error. Use [`salvage`]
/// to recover the valid prefix of a damaged file instead.
pub fn load(path: &Path) -> Result<Option<Checkpoint>, CheckpointError> {
    let Some(raw) = read_raw(path)? else {
        return Ok(None);
    };
    let mut statuses = BTreeMap::new();
    for (offset, line) in raw.record_lines.iter().enumerate() {
        if line.trim().is_empty() {
            // A trailing newline artifact, not data; strict mode tolerates
            // blank lines only at the very end.
            if raw.record_lines[offset..]
                .iter()
                .all(|l| l.trim().is_empty())
            {
                break;
            }
            return Err(CheckpointError::CorruptRecord {
                line_no: offset + 2,
            });
        }
        let Some((index, status)) = decode_record(line) else {
            return Err(CheckpointError::CorruptRecord {
                line_no: offset + 2, // +1 header, +1 one-based
            });
        };
        statuses.insert(index, status);
    }
    Ok(Some(Checkpoint {
        fingerprint: raw.fingerprint,
        total: raw.total,
        statuses,
    }))
}

/// Loads the longest valid prefix of a checkpoint, or `Ok(None)` when
/// `path` does not exist.
///
/// Records are consumed up to the first invalid line; that line and every
/// line after it count as dropped. When anything was dropped the file is
/// **atomically rewritten** ([`write_atomic`]) to exactly the valid
/// prefix, so a subsequent [`CheckpointWriter::append`] starts on a clean
/// line boundary.
///
/// # Errors
///
/// Filesystem errors and a damaged/foreign *header* are still fatal — a
/// file whose identity cannot be established is not safe to resume from.
pub fn salvage(path: &Path) -> Result<Option<Salvage>, CheckpointError> {
    let Some(raw) = read_raw(path)? else {
        return Ok(None);
    };
    let mut statuses = BTreeMap::new();
    let mut valid_lines = 0usize;
    for line in &raw.record_lines {
        let Some((index, status)) = decode_record(line) else {
            break;
        };
        statuses.insert(index, status);
        valid_lines += 1;
    }
    let dropped_records = raw.record_lines.len() - valid_lines;
    if dropped_records > 0 {
        let mut text = raw.header_line;
        text.push('\n');
        for line in &raw.record_lines[..valid_lines] {
            text.push_str(line);
            text.push('\n');
        }
        write_atomic(path, text.as_bytes())?;
    }
    Ok(Some(Salvage {
        checkpoint: Checkpoint {
            fingerprint: raw.fingerprint,
            total: raw.total,
            statuses,
        },
        dropped_records,
    }))
}

/// An open checkpoint being appended to, one flushed line per result.
#[derive(Debug)]
pub struct CheckpointWriter {
    out: BufWriter<File>,
}

impl CheckpointWriter {
    /// Creates a checkpoint with a fresh header, atomically
    /// ([`write_atomic`]), so `path` never holds a half-written header.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from creation, the header write, or the rename.
    pub fn create(path: &Path, fingerprint: u64, total: usize) -> Result<Self, CheckpointError> {
        let header_body = format!(
            "{{\"header\":\"{HEADER_NAME}\",\"version\":{VERSION},\
             \"fingerprint\":\"{fingerprint:016x}\",\"total\":{total}}}"
        );
        write_atomic(path, format!("{}\n", seal(&header_body)).as_bytes())?;
        CheckpointWriter::append(path)
    }

    /// Reopens an existing checkpoint for appending (the header is already
    /// on disk; the caller has verified it via [`load`] or [`salvage`]).
    ///
    /// # Errors
    ///
    /// Returns I/O errors from opening.
    pub fn append(path: &Path) -> Result<Self, CheckpointError> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(CheckpointWriter {
            out: BufWriter::new(file),
        })
    }

    /// Appends one job's status (with its CRC) and flushes, so a kill
    /// loses at most the line being written — and [`salvage`] detects that
    /// torn line instead of mis-parsing it.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the write.
    pub fn record(&mut self, index: usize, status: &JobStatus) -> Result<(), CheckpointError> {
        let body = record_body(index, status);
        writeln!(self.out, "{}", seal(&body))?;
        self.out.flush()?;
        Ok(())
    }
}

/// Serializes one record as a flat JSON object (without the CRC field).
fn record_body(index: usize, status: &JobStatus) -> String {
    match status {
        JobStatus::Completed(JobResult::Aging {
            worst_delta_vth,
            degradation,
            nominal_delay_ps,
            degraded_delay_ps,
            standby_leakage,
            active_leakage,
        }) => {
            let standby = match standby_leakage {
                Some(v) => fmt_f64(*v),
                None => "null".to_owned(),
            };
            format!(
                "{{\"index\":{index},\"kind\":\"aging\",\
                 \"worst_delta_vth\":{},\"degradation\":{},\
                 \"nominal_delay_ps\":{},\"degraded_delay_ps\":{},\
                 \"standby_leakage\":{standby},\"active_leakage\":{}}}",
                fmt_f64(*worst_delta_vth),
                fmt_f64(*degradation),
                fmt_f64(*nominal_delay_ps),
                fmt_f64(*degraded_delay_ps),
                fmt_f64(*active_leakage),
            )
        }
        JobStatus::Completed(JobResult::Model { delta_vth }) => {
            format!(
                "{{\"index\":{index},\"kind\":\"model\",\"delta_vth\":{}}}",
                fmt_f64(*delta_vth)
            )
        }
        JobStatus::Failed { reason, attempts } => {
            format!(
                "{{\"index\":{index},\"kind\":\"failed\",\"reason\":\"{}\",\
                 \"attempts\":{attempts}}}",
                escape(reason)
            )
        }
        JobStatus::TimedOut { elapsed_ms } => {
            format!("{{\"index\":{index},\"kind\":\"timed_out\",\"elapsed_ms\":{elapsed_ms}}}")
        }
    }
}

/// Appends the CRC-32 of `body` as a final `"crc"` field:
/// `{…}` becomes `{…,"crc":"xxxxxxxx"}`.
fn seal(body: &str) -> String {
    debug_assert!(body.starts_with('{') && body.ends_with('}'));
    format!(
        "{},\"crc\":\"{:08x}\"}}",
        &body[..body.len() - 1],
        crc32(body.as_bytes())
    )
}

/// Checks a sealed line's CRC and returns the body (the object without the
/// CRC field) on success.
fn verify_crc(line: &str) -> Option<&str> {
    let line = line.trim_end();
    let marker = ",\"crc\":\"";
    let pos = line.rfind(marker)?;
    let hex = &line[pos + marker.len()..];
    let hex = hex.strip_suffix("\"}")?;
    if hex.len() != 8 {
        return None;
    }
    let stored = u32::from_str_radix(hex, 16).ok()?;
    // The body is everything before the crc field, re-closed.
    let prefix = &line[..pos];
    if crc32_extend(crc32(prefix.as_bytes()), b"}") == stored {
        // The prefix is the body minus its closing brace; `parse_object`
        // treats end-of-input as the close, so the slice parses as the
        // original object without a copy.
        Some(prefix)
    } else {
        None
    }
}

/// Shortest-round-trip float serialization; keeps non-finite values
/// representable (JSON has no infinities, so they are quoted strings — the
/// parser maps them back).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("\"{v}\"")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A parser for exactly the JSON subset the writer emits: one flat object
// per line, values limited to strings, numbers, and null. The object may
// arrive without its closing brace (the CRC verifier hands back the body
// prefix); end-of-input after a complete field counts as the close.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
    Null,
}

#[derive(Debug, Default)]
struct FlatObject {
    fields: Vec<(String, Value)>,
}

impl FlatObject {
    fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    fn str_field(&self, name: &str) -> Option<&str> {
        match self.field(name) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    fn num_field(&self, name: &str) -> Option<f64> {
        match self.field(name) {
            Some(Value::Num(n)) => Some(*n),
            // Non-finite floats round-trip as quoted strings.
            Some(Value::Str(s)) => s.parse().ok(),
            _ => None,
        }
    }
}

fn parse_object(line: &str) -> Option<FlatObject> {
    let mut chars = line.trim().chars().peekable();
    if chars.next()? != '{' {
        return None;
    }
    let mut obj = FlatObject::default();
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            None => break, // CRC-verified body prefix: end of input closes
            Some('}') => {
                chars.next();
                break;
            }
            Some(',') => {
                chars.next();
                continue;
            }
            Some('"') => {
                let key = parse_string(&mut chars)?;
                skip_ws(&mut chars);
                if chars.next()? != ':' {
                    return None;
                }
                skip_ws(&mut chars);
                let value = parse_value(&mut chars)?;
                obj.fields.push((key, value));
            }
            _ => return None,
        }
    }
    Some(obj)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn parse_value(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<Value> {
    match chars.peek()? {
        '"' => parse_string(chars).map(Value::Str),
        'n' => {
            for expected in "null".chars() {
                if chars.next()? != expected {
                    return None;
                }
            }
            Some(Value::Null)
        }
        _ => {
            let mut token = String::new();
            while chars
                .peek()
                .is_some_and(|&c| c != ',' && c != '}' && !c.is_whitespace())
            {
                token.push(chars.next()?);
            }
            token.parse().ok().map(Value::Num)
        }
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

fn record_from(obj: &FlatObject) -> Option<(usize, JobStatus)> {
    let index = obj.num_field("index")? as usize;
    let status = match obj.str_field("kind")? {
        "aging" => JobStatus::Completed(JobResult::Aging {
            worst_delta_vth: obj.num_field("worst_delta_vth")?,
            degradation: obj.num_field("degradation")?,
            nominal_delay_ps: obj.num_field("nominal_delay_ps")?,
            degraded_delay_ps: obj.num_field("degraded_delay_ps")?,
            standby_leakage: match obj.field("standby_leakage")? {
                Value::Null => None,
                Value::Num(n) => Some(*n),
                Value::Str(s) => Some(s.parse().ok()?),
            },
            active_leakage: obj.num_field("active_leakage")?,
        }),
        "model" => JobStatus::Completed(JobResult::Model {
            delta_vth: obj.num_field("delta_vth")?,
        }),
        "failed" => JobStatus::Failed {
            reason: obj.str_field("reason")?.to_owned(),
            attempts: obj.num_field("attempts")? as u32,
        },
        "timed_out" => JobStatus::TimedOut {
            elapsed_ms: obj.num_field("elapsed_ms")? as u64,
        },
        _ => return None,
    };
    Some((index, status))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("relia-ckpt-{}-{name}.jsonl", std::process::id()));
        p
    }

    fn aging(v: f64) -> JobStatus {
        JobStatus::Completed(JobResult::Aging {
            worst_delta_vth: v,
            degradation: 0.05 + v,
            nominal_delay_ps: 123.456,
            degraded_delay_ps: 130.0,
            standby_leakage: Some(1.25e-6),
            active_leakage: 2.5e-6,
        })
    }

    #[test]
    fn round_trips_bit_exactly() {
        let path = tmp("roundtrip");
        let mut w = CheckpointWriter::create(&path, 0xdead_beef, 5).unwrap();
        let statuses = [
            aging(0.031_234_567_890_123),
            JobStatus::Completed(JobResult::Model {
                delta_vth: 1.0 / 3.0,
            }),
            JobStatus::Failed {
                reason: "panic: \"quoted\"\nand newline \t tab".into(),
                attempts: 3,
            },
            JobStatus::Completed(JobResult::Aging {
                worst_delta_vth: 0.0,
                degradation: 0.0,
                nominal_delay_ps: 100.0,
                degraded_delay_ps: 100.0,
                standby_leakage: None,
                active_leakage: f64::MIN_POSITIVE,
            }),
            JobStatus::TimedOut { elapsed_ms: 1234 },
        ];
        for (i, s) in statuses.iter().enumerate() {
            w.record(i, s).unwrap();
        }
        drop(w);

        let ckpt = load(&path).unwrap().unwrap();
        assert_eq!(ckpt.fingerprint, 0xdead_beef);
        assert_eq!(ckpt.total, 5);
        assert_eq!(ckpt.statuses.len(), 5);
        for (i, s) in statuses.iter().enumerate() {
            assert_eq!(ckpt.statuses.get(&i), Some(s), "index {i}");
        }
        assert_eq!(ckpt.completed_indices().collect::<Vec<_>>(), vec![0, 1, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_none() {
        assert!(load(&tmp("missing-never-created")).unwrap().is_none());
        assert!(salvage(&tmp("missing-never-created")).unwrap().is_none());
    }

    #[test]
    fn strict_load_rejects_a_torn_last_line() {
        let path = tmp("torn-strict");
        let mut w = CheckpointWriter::create(&path, 7, 3).unwrap();
        w.record(0, &aging(0.01)).unwrap();
        drop(w);
        // Simulate a kill mid-write: append half a record.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"index\":1,\"kind\":\"ag").unwrap();
        drop(f);

        match load(&path) {
            Err(CheckpointError::CorruptRecord { line_no }) => assert_eq!(line_no, 3),
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn salvage_recovers_the_valid_prefix_and_rewrites() {
        let path = tmp("torn-salvage");
        let mut w = CheckpointWriter::create(&path, 7, 3).unwrap();
        w.record(0, &aging(0.01)).unwrap();
        w.record(1, &aging(0.02)).unwrap();
        drop(w);
        let clean = std::fs::read_to_string(&path).unwrap();
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"index\":2,\"kind\":\"ag").unwrap();
        drop(f);

        let s = salvage(&path).unwrap().unwrap();
        assert_eq!(s.dropped_records, 1);
        assert_eq!(s.checkpoint.statuses.len(), 2);
        assert_eq!(s.checkpoint.statuses.get(&0), Some(&aging(0.01)));
        // The file was rewritten back to exactly the clean prefix…
        assert_eq!(std::fs::read_to_string(&path).unwrap(), clean);
        // …so a follow-up append produces a loadable file.
        let mut w = CheckpointWriter::append(&path).unwrap();
        w.record(2, &aging(0.03)).unwrap();
        drop(w);
        let ckpt = load(&path).unwrap().unwrap();
        assert_eq!(ckpt.statuses.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_bit_flip_is_detected_and_everything_after_it_dropped() {
        let path = tmp("bitflip");
        let mut w = CheckpointWriter::create(&path, 9, 4).unwrap();
        for i in 0..4 {
            w.record(i, &aging(0.01 * (i + 1) as f64)).unwrap();
        }
        drop(w);
        // Flip one bit in the digits of record line 2 (index 1).
        let mut bytes = std::fs::read(&path).unwrap();
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        let target = line_starts[2] + 20;
        bytes[target] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();

        assert!(matches!(
            load(&path),
            Err(CheckpointError::CorruptRecord { line_no: 3 })
        ));
        let s = salvage(&path).unwrap().unwrap();
        assert_eq!(s.dropped_records, 3, "bad line + 2 after it");
        assert_eq!(s.checkpoint.statuses.len(), 1);
        assert_eq!(s.checkpoint.statuses.get(&0), Some(&aging(0.01)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appended_records_win_over_earlier_ones() {
        let path = tmp("lastwins");
        let mut w = CheckpointWriter::create(&path, 7, 3).unwrap();
        w.record(
            2,
            &JobStatus::Failed {
                reason: "first".into(),
                attempts: 1,
            },
        )
        .unwrap();
        drop(w);
        let mut w = CheckpointWriter::append(&path).unwrap();
        w.record(2, &aging(0.02)).unwrap();
        drop(w);
        let ckpt = load(&path).unwrap().unwrap();
        assert_eq!(ckpt.statuses.get(&2), Some(&aging(0.02)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_header_is_an_error_even_for_salvage() {
        let path = tmp("badheader");
        std::fs::write(&path, "{\"header\":\"something-else\",\"version\":2}\n").unwrap();
        assert!(load(&path).is_err());
        assert!(salvage(&path).is_err());
        std::fs::write(&path, "").unwrap();
        assert!(matches!(load(&path), Err(CheckpointError::Empty)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn old_version_is_rejected_with_its_number() {
        let path = tmp("oldversion");
        let body = "{\"header\":\"relia-sweep-checkpoint\",\"version\":1,\
                    \"fingerprint\":\"0000000000000007\",\"total\":1}";
        std::fs::write(&path, format!("{}\n", seal(body))).unwrap();
        assert!(matches!(
            load(&path),
            Err(CheckpointError::UnsupportedVersion { found: 1 })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_floats_survive() {
        let path = tmp("nonfinite");
        let mut w = CheckpointWriter::create(&path, 1, 1).unwrap();
        w.record(
            0,
            &JobStatus::Completed(JobResult::Model {
                delta_vth: f64::INFINITY,
            }),
        )
        .unwrap();
        drop(w);
        let ckpt = load(&path).unwrap().unwrap();
        assert_eq!(
            ckpt.statuses.get(&0),
            Some(&JobStatus::Completed(JobResult::Model {
                delta_vth: f64::INFINITY
            }))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_leaves_no_temp_file_behind() {
        let path = tmp("atomic");
        let w = CheckpointWriter::create(&path, 1, 1).unwrap();
        drop(w);
        assert!(path.exists());
        assert!(!std::path::PathBuf::from(format!("{}.tmp", path.display())).exists());
        std::fs::remove_file(&path).ok();
    }
}
