//! Crash-safe JSONL checkpointing for interruptible sweeps.
//!
//! A checkpoint is a [`Journal`]: a header line, then one JSON object per
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
//! to the original — resuming cannot perturb results.
//!
//! [`open`] checks the header before it reads a record: a damaged or
//! foreign header, or one written for a different
//! [`SweepSpec`](crate::SweepSpec) (its fingerprint and grid size), refuses
//! the file and leaves it untouched. Past the header, the journal's one
//! salvage policy holds: every intact record is kept, the last record of
//! an index wins, a damaged line costs only its own job, and the file is
//! healed on disk before the next append.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io;
use std::path::Path;

use relia_core::journal::Journal;
use relia_core::json::{self, Json};
use relia_core::seal::{crc32, crc32_extend};

use crate::engine::SweepError;
use crate::pool::JobOutcome;
use crate::spec::JobResult;

const HEADER_NAME: &str = "relia-sweep-checkpoint";
const VERSION: u64 = 2;

/// Typed error for checkpoint I/O and headers.
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

/// An existing checkpoint, opened to resume its sweep.
#[derive(Debug)]
pub struct Checkpoint {
    /// Last-written outcome per job index, from every intact record.
    pub statuses: BTreeMap<usize, JobOutcome<JobResult>>,
    /// Lines skipped as damaged; the healed file no longer holds them.
    pub skipped: usize,
    /// Appends to the checkpoint.
    pub writer: CheckpointWriter,
}

/// Opens the checkpoint at `path` to resume the sweep whose spec has
/// `fingerprint` and `total` points, or `Ok(None)` when there is no file.
/// A file that needed it is healed on disk first ([`Journal::open`]).
///
/// # Errors
///
/// [`SweepError::CheckpointMismatch`] for a checkpoint of another spec,
/// and [`SweepError::Checkpoint`] for a damaged or foreign header or an
/// unreadable file. A refused file is left untouched.
pub fn open(path: &Path, fingerprint: u64, total: usize) -> Result<Option<Checkpoint>, SweepError> {
    let mut statuses = BTreeMap::new();
    let opened = Journal::open(
        path,
        |header| match read_header(header)? {
            (found, n) if found == fingerprint && n == total => Ok(()),
            (found, _) => Err(SweepError::CheckpointMismatch {
                expected: fingerprint,
                found,
            }),
        },
        |line| {
            decode_record(line)
                .map(|(index, status)| statuses.insert(index, status))
                .is_some()
        },
    )
    .map_err(CheckpointError::Io)??;
    Ok(opened.map(|(journal, skipped)| Checkpoint {
        statuses,
        skipped,
        writer: CheckpointWriter { journal },
    }))
}

/// The spec fingerprint and grid size a header line records.
fn read_header(line: &str) -> Result<(u64, usize), CheckpointError> {
    if line.is_empty() {
        return Err(CheckpointError::Empty);
    }
    let bad = |what| CheckpointError::BadHeader { what };
    let verified = verify_crc(line).ok_or(bad("crc mismatch or missing"))?;
    let header = json::parse(verified.as_bytes()).map_err(|_| bad("not a JSON object"))?;
    if header.get("header").and_then(Json::as_str) != Some(HEADER_NAME) {
        return Err(bad("not a relia sweep checkpoint"));
    }
    match uint::<u64>(&header, "version") {
        Some(VERSION) => {}
        Some(found) => return Err(CheckpointError::UnsupportedVersion { found }),
        None => return Err(bad("missing version")),
    }
    let fingerprint = header
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or(bad("missing fingerprint"))?;
    let total = uint(&header, "total").ok_or(bad("missing total"))?;
    Ok((fingerprint, total))
}

/// Validates one record line (CRC + parse). `None` when invalid.
fn decode_record(line: &str) -> Option<(usize, JobOutcome<JobResult>)> {
    let line = verify_crc(line)?;
    record_from(&json::parse(line.as_bytes()).ok()?)
}

/// An open checkpoint being appended to, one flushed line per result.
#[derive(Debug)]
pub struct CheckpointWriter {
    journal: Journal,
}

impl CheckpointWriter {
    /// Creates a checkpoint holding just its header, atomically
    /// ([`Journal::create`]), so `path` never holds a half-written header.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from creation, the header write, or the rename.
    pub fn create(path: &Path, fingerprint: u64, total: usize) -> Result<Self, CheckpointError> {
        let header = seal(&format!(
            "{{\"header\":\"{HEADER_NAME}\",\"version\":{VERSION},\
             \"fingerprint\":\"{fingerprint:016x}\",\"total\":{total}}}"
        ));
        let journal = Journal::create(path, &header)?;
        Ok(CheckpointWriter { journal })
    }

    /// Appends one job's outcome (with its CRC) as one line and flushes
    /// it, so a kill loses at most the line being written — and the next
    /// [`open`] detects that torn line instead of mis-parsing it.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the write.
    pub fn record(
        &mut self,
        index: usize,
        outcome: &JobOutcome<JobResult>,
    ) -> Result<(), CheckpointError> {
        Ok(self.journal.append(seal(&record_body(index, outcome)))?)
    }
}

/// Serializes one record as a flat JSON object (without the CRC field).
fn record_body(index: usize, outcome: &JobOutcome<JobResult>) -> String {
    match outcome {
        JobOutcome::Completed(JobResult::Aging {
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
        JobOutcome::Completed(JobResult::Model { delta_vth }) => {
            format!(
                "{{\"index\":{index},\"kind\":\"model\",\"delta_vth\":{}}}",
                fmt_f64(*delta_vth)
            )
        }
        JobOutcome::Failed { reason, attempts } => {
            format!(
                "{{\"index\":{index},\"kind\":\"failed\",\"reason\":\"{}\",\
                 \"attempts\":{attempts}}}",
                json::escape(reason)
            )
        }
        JobOutcome::TimedOut { elapsed_ms } => {
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

/// Checks a sealed line's CRC and returns the line on success. A sealed
/// line is itself one complete JSON object, `crc` field included.
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
    (crc32_extend(crc32(prefix.as_bytes()), b"}") == stored).then_some(line)
}

/// [`json::fmt_f64`], except that non-finite values stay representable:
/// JSON has no infinities, so a checkpoint quotes them (`"inf"`, `"NaN"`)
/// and [`num`] maps them back. Responses write `null` instead.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        json::fmt_f64(v)
    } else {
        format!("\"{v}\"")
    }
}

/// A float field: a JSON number, or a quoted non-finite value.
fn num(value: &Json) -> Option<f64> {
    match value {
        Json::Num(n) => Some(*n),
        Json::Str(s) => s.parse().ok(),
        _ => None,
    }
}

/// An integer field: a non-negative whole number that fits `T`. Anything
/// else (negative, fractional, too large, quoted) makes the line invalid
/// rather than being truncated or saturated by a cast.
fn uint<T: TryFrom<u64>>(obj: &Json, name: &str) -> Option<T> {
    let n = obj.get(name)?.as_f64()?;
    // `u64::MAX as f64` is 2^64, one past the largest u64.
    if n < 0.0 || n.fract() != 0.0 || n >= u64::MAX as f64 {
        return None;
    }
    T::try_from(n as u64).ok()
}

fn record_from(obj: &Json) -> Option<(usize, JobOutcome<JobResult>)> {
    let index = uint(obj, "index")?;
    let float = |name| num(obj.get(name)?);
    let outcome = match obj.get("kind")?.as_str()? {
        "aging" => JobOutcome::Completed(JobResult::Aging {
            worst_delta_vth: float("worst_delta_vth")?,
            degradation: float("degradation")?,
            nominal_delay_ps: float("nominal_delay_ps")?,
            degraded_delay_ps: float("degraded_delay_ps")?,
            standby_leakage: match obj.get("standby_leakage")? {
                Json::Null => None,
                v => Some(num(v)?),
            },
            active_leakage: float("active_leakage")?,
        }),
        "model" => JobOutcome::Completed(JobResult::Model {
            delta_vth: float("delta_vth")?,
        }),
        "failed" => JobOutcome::Failed {
            reason: obj.get("reason")?.as_str()?.to_owned(),
            attempts: uint(obj, "attempts")?,
        },
        "timed_out" => JobOutcome::TimedOut {
            elapsed_ms: uint(obj, "elapsed_ms")?,
        },
        _ => return None,
    };
    Some((index, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write as _;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("relia-ckpt-{}-{name}.jsonl", std::process::id()));
        p
    }

    fn aging(v: f64) -> JobOutcome<JobResult> {
        JobOutcome::Completed(JobResult::Aging {
            worst_delta_vth: v,
            degradation: 0.05 + v,
            nominal_delay_ps: 123.456,
            degraded_delay_ps: 130.0,
            standby_leakage: Some(1.25e-6),
            active_leakage: 2.5e-6,
        })
    }

    /// Opens `path` as a checkpoint of `(fingerprint, total)` and returns
    /// its statuses and skip count, after checking that opening it again
    /// skips nothing and leaves the (healed) file byte for byte.
    fn reopen(
        path: &Path,
        fingerprint: u64,
        total: usize,
    ) -> (BTreeMap<usize, JobOutcome<JobResult>>, usize) {
        let Checkpoint {
            statuses, skipped, ..
        } = open(path, fingerprint, total).unwrap().unwrap();
        let healed = std::fs::read(path).unwrap();
        let again = open(path, fingerprint, total).unwrap().unwrap();
        assert_eq!((&again.statuses, again.skipped), (&statuses, 0));
        assert_eq!(std::fs::read(path).unwrap(), healed);
        (statuses, skipped)
    }

    fn open_err(path: &Path) -> SweepError {
        open(path, 7, 3).expect_err("a refused checkpoint")
    }

    #[test]
    fn round_trips_bit_exactly() {
        let path = tmp("roundtrip");
        let mut w = CheckpointWriter::create(&path, 0xdead_beef, 5).unwrap();
        let statuses = [
            aging(0.031_234_567_890_123),
            JobOutcome::Completed(JobResult::Model {
                delta_vth: 1.0 / 3.0,
            }),
            JobOutcome::Failed {
                reason: "panic: \"quoted\"\nand newline \t tab".into(),
                attempts: 3,
            },
            JobOutcome::Completed(JobResult::Aging {
                worst_delta_vth: 0.0,
                degradation: 0.0,
                nominal_delay_ps: 100.0,
                degraded_delay_ps: 100.0,
                standby_leakage: None,
                active_leakage: f64::MIN_POSITIVE,
            }),
            JobOutcome::TimedOut { elapsed_ms: 1234 },
        ];
        for (i, s) in statuses.iter().enumerate() {
            w.record(i, s).unwrap();
        }
        drop(w);

        let (read, skipped) = reopen(&path, 0xdead_beef, 5);
        assert_eq!(skipped, 0);
        assert_eq!(read.len(), 5);
        for (i, s) in statuses.iter().enumerate() {
            assert_eq!(read.get(&i), Some(s), "index {i}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_none() {
        assert!(open(&tmp("missing-never-created"), 7, 3).unwrap().is_none());
    }

    #[test]
    fn salvage_recovers_the_valid_prefix_and_rewrites() {
        let path = tmp("torn-salvage");
        let mut w = CheckpointWriter::create(&path, 7, 3).unwrap();
        w.record(0, &aging(0.01)).unwrap();
        w.record(1, &aging(0.02)).unwrap();
        drop(w);
        let clean = std::fs::read_to_string(&path).unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"index\":2,\"kind\":\"ag").unwrap();
        drop(f);

        let Checkpoint {
            statuses,
            skipped,
            writer: mut w,
        } = open(&path, 7, 3).unwrap().unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(statuses.len(), 2);
        assert_eq!(statuses.get(&0), Some(&aging(0.01)));
        // The file was rewritten back to exactly the clean prefix…
        assert_eq!(std::fs::read_to_string(&path).unwrap(), clean);
        // …so a follow-up append produces a clean file.
        w.record(2, &aging(0.03)).unwrap();
        drop(w);
        let (statuses, skipped) = reopen(&path, 7, 3);
        assert_eq!((statuses.len(), skipped), (3, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_bit_flip_costs_only_its_own_record() {
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

        let (statuses, skipped) = reopen(&path, 9, 4);
        assert_eq!(skipped, 1, "the flipped line alone");
        assert_eq!(statuses.keys().copied().collect::<Vec<_>>(), [0, 2, 3]);
        for i in [0, 2, 3] {
            assert_eq!(statuses.get(&i), Some(&aging(0.01 * (i + 1) as f64)));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appended_records_win_over_earlier_ones() {
        let path = tmp("lastwins");
        let mut w = CheckpointWriter::create(&path, 7, 3).unwrap();
        w.record(
            2,
            &JobOutcome::Failed {
                reason: "first".into(),
                attempts: 1,
            },
        )
        .unwrap();
        drop(w);
        let mut w = open(&path, 7, 3).unwrap().unwrap().writer;
        w.record(2, &aging(0.02)).unwrap();
        drop(w);
        let (statuses, _) = reopen(&path, 7, 3);
        assert_eq!(statuses.get(&2), Some(&aging(0.02)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_header_is_an_error_even_for_salvage() {
        let path = tmp("badheader");
        let foreign = "{\"header\":\"something-else\",\"version\":2}\n{\"index\":0}";
        std::fs::write(&path, foreign).unwrap();
        assert!(matches!(
            open_err(&path),
            SweepError::Checkpoint(CheckpointError::BadHeader { .. })
        ));
        // Refused, so left as it was: not healed, not truncated.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), foreign);
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            open_err(&path),
            SweepError::Checkpoint(CheckpointError::Empty)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn old_version_is_rejected_with_its_number() {
        let path = tmp("oldversion");
        let body = "{\"header\":\"relia-sweep-checkpoint\",\"version\":1,\
                    \"fingerprint\":\"0000000000000007\",\"total\":1}";
        std::fs::write(&path, format!("{}\n", seal(body))).unwrap();
        assert!(matches!(
            open_err(&path),
            SweepError::Checkpoint(CheckpointError::UnsupportedVersion { found: 1 })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn negative_and_fractional_integers_invalidate_the_line() {
        let path = tmp("badints");
        for bad in [
            r#"{"index":-1,"kind":"model","delta_vth":0.5}"#,
            r#"{"index":2.9,"kind":"failed","reason":"x","attempts":-4}"#,
        ] {
            let mut w = CheckpointWriter::create(&path, 7, 3).unwrap();
            w.record(0, &aging(0.01)).unwrap();
            drop(w);
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{}", seal(bad)).unwrap();
            writeln!(f, "{}", seal(&record_body(1, &aging(0.02)))).unwrap();
            drop(f);
            let (statuses, skipped) = reopen(&path, 7, 3);
            assert_eq!(skipped, 1, "{bad}");
            assert_eq!(statuses.len(), 2);
            assert_eq!(statuses.get(&0), Some(&aging(0.01)));
            assert_eq!(statuses.get(&1), Some(&aging(0.02)));
        }
        for total in ["-3", "2.5"] {
            let header = format!(
                "{{\"header\":\"relia-sweep-checkpoint\",\"version\":2,\
                 \"fingerprint\":\"0000000000000007\",\"total\":{total}}}"
            );
            std::fs::write(&path, format!("{}\n", seal(&header))).unwrap();
            assert!(matches!(
                open_err(&path),
                SweepError::Checkpoint(CheckpointError::BadHeader {
                    what: "missing total"
                })
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_floats_survive() {
        let path = tmp("nonfinite");
        let mut w = CheckpointWriter::create(&path, 1, 1).unwrap();
        w.record(
            0,
            &JobOutcome::Completed(JobResult::Model {
                delta_vth: f64::INFINITY,
            }),
        )
        .unwrap();
        drop(w);
        let (statuses, _) = reopen(&path, 1, 1);
        assert_eq!(
            statuses.get(&0),
            Some(&JobOutcome::Completed(JobResult::Model {
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
