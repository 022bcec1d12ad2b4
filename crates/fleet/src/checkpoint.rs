//! Crash-safe fleet checkpoints: a [`Journal`] of completed chunk
//! accumulators, one CRC-sealed line each.
//!
//! Format (one record per line):
//!
//! ```text
//! relia-fleet-checkpoint v1 <fingerprint hex>
//! chunk <index> <crc hex> <word hex> <word hex> ...
//! ```
//!
//! The header binds the file to a `(spec, chunk size)` fingerprint;
//! [`open`] refuses a mismatched file whole and leaves it untouched. Past
//! the header, the journal's one salvage policy holds: a chunk line that
//! fails its CRC or parse (a torn write from a crash, bit rot) is skipped,
//! every intact record is kept, and the file is healed on disk before the
//! next append — the engine simply recomputes the lost chunks.

use crate::accum::ChunkAccum;
use crate::error::FleetError;
use relia_core::journal::Journal;
use relia_core::seal::crc32;
use std::collections::BTreeMap;
use std::path::Path;

const HEADER_TAG: &str = "relia-fleet-checkpoint";
const HEADER_VERSION: &str = "v1";

/// One sealed record line: `chunk <index> <crc> <words...>`.
fn record_line(index: usize, acc: &ChunkAccum) -> String {
    let payload = chunk_payload(index, &acc.to_words());
    let crc = crc32(payload.as_bytes());
    let idx_end = payload.find(' ').unwrap_or(payload.len());
    format!(
        "chunk {} {crc:08x}{}",
        &payload[..idx_end],
        &payload[idx_end..]
    )
}

fn chunk_payload(index: usize, words: &[u64]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(words.len() * 17 + 24);
    let _ = write!(s, "{index:x}");
    for w in words {
        let _ = write!(s, " {w:x}");
    }
    s
}

/// Appends completed chunks to a checkpoint as they arrive.
pub struct CheckpointWriter {
    journal: Journal,
}

impl CheckpointWriter {
    /// Creates (or replaces) the checkpoint at `path` with the header
    /// binding it to `fingerprint`, atomically: `path` never holds a
    /// half-written header.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] on any filesystem failure.
    pub fn create(path: &Path, fingerprint: u64) -> Result<Self, FleetError> {
        let header = format!("{HEADER_TAG} {HEADER_VERSION} {fingerprint:016x}");
        let journal = Journal::create(path, &header).map_err(io_err)?;
        Ok(CheckpointWriter { journal })
    }

    /// Writes one completed chunk as one line and flushes it, so a crash
    /// immediately after still finds the record intact.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] on any filesystem failure.
    pub fn record(&mut self, index: usize, acc: &ChunkAccum) -> Result<(), FleetError> {
        self.journal.append(record_line(index, acc)).map_err(io_err)
    }
}

/// An existing checkpoint, opened to resume its run.
pub struct Checkpoint {
    /// Every intact chunk, keyed by chunk index.
    pub chunks: BTreeMap<usize, ChunkAccum>,
    /// Lines skipped as damaged; the healed file no longer holds them.
    pub skipped: usize,
    /// Appends to the checkpoint.
    pub writer: CheckpointWriter,
}

/// Opens the checkpoint at `path` to resume the run with `fingerprint`
/// and `times` evaluation times, or `Ok(None)` when there is no file. A
/// file that needed it is healed on disk first ([`Journal::open`]).
///
/// # Errors
///
/// [`FleetError::Checkpoint`] when the header is missing, malformed, or
/// fingerprint-mismatched (the file is then left untouched);
/// [`FleetError::Io`] on read or rewrite failures.
pub fn open(path: &Path, fingerprint: u64, times: usize) -> Result<Option<Checkpoint>, FleetError> {
    let mut chunks = BTreeMap::new();
    let opened = Journal::open(
        path,
        |header| check_header(header, fingerprint),
        |line| {
            parse_chunk_line(line, times)
                .map(|(index, acc)| chunks.insert(index, acc))
                .is_some()
        },
    )
    .map_err(io_err)??;
    Ok(opened.map(|(journal, skipped)| Checkpoint {
        chunks,
        skipped,
        writer: CheckpointWriter { journal },
    }))
}

fn check_header(header: &str, fingerprint: u64) -> Result<(), FleetError> {
    let mut parts = header.split_whitespace();
    let what = if header.is_empty() {
        "checkpoint file is empty".to_owned()
    } else if parts.next() != Some(HEADER_TAG) || parts.next() != Some(HEADER_VERSION) {
        "unrecognized checkpoint header".to_owned()
    } else {
        match parts.next().and_then(|s| u64::from_str_radix(s, 16).ok()) {
            Some(fp) if fp == fingerprint => return Ok(()),
            Some(fp) => format!(
                "checkpoint fingerprint {fp:016x} does not match this run ({fingerprint:016x}); \
                 the spec or chunk size changed"
            ),
            None => "unreadable checkpoint fingerprint".to_owned(),
        }
    };
    Err(FleetError::Checkpoint(what))
}

fn parse_chunk_line(line: &str, times: usize) -> Option<(usize, ChunkAccum)> {
    let rest = line.strip_prefix("chunk ")?;
    let mut parts = rest.split_whitespace();
    let index_str = parts.next()?;
    let crc_str = parts.next()?;
    let index = usize::from_str_radix(index_str, 16).ok()?;
    let expect_crc = u32::from_str_radix(crc_str, 16).ok()?;
    let mut words = Vec::new();
    for w in parts {
        words.push(u64::from_str_radix(w, 16).ok()?);
    }
    let payload = chunk_payload(index, &words);
    if crc32(payload.as_bytes()) != expect_crc {
        return None;
    }
    let acc = ChunkAccum::from_words(times, &words)?;
    Some((index, acc))
}

fn io_err(e: std::io::Error) -> FleetError {
    FleetError::Io(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("relia_fleet_ckpt_{}_{name}", std::process::id()));
        p
    }

    fn sample_acc(times: usize, salt: u64) -> ChunkAccum {
        let mut acc = ChunkAccum::new(times);
        let mut rng = crate::SplitMix64::new(salt);
        for _ in 0..100 {
            acc.samples += 1;
            for t in acc.per_time.iter_mut() {
                let v = rng.next_f64() * 0.3;
                t.frac.record(v);
                t.moments.record(v);
            }
            acc.lifetime_log10.record(rng.next_f64() * 14.0);
        }
        acc
    }

    /// Opens a checkpoint that must exist.
    fn open_present(path: &Path, fingerprint: u64, times: usize) -> Checkpoint {
        open(path, fingerprint, times)
            .expect("open")
            .expect("present")
    }

    #[test]
    fn round_trip_preserves_chunks_exactly() {
        let path = tmp("roundtrip");
        let a = sample_acc(2, 1);
        let b = sample_acc(2, 2);
        {
            let mut w = CheckpointWriter::create(&path, 0xABCD).expect("create");
            w.record(0, &a).expect("record");
            w.record(3, &b).expect("record");
        }
        let Checkpoint {
            chunks, skipped, ..
        } = open_present(&path, 0xABCD, 2);
        assert_eq!(skipped, 0);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[&0], a);
        assert_eq!(chunks[&3], b);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_rejects_file() {
        let path = tmp("mismatch");
        {
            let mut w = CheckpointWriter::create(&path, 1).expect("create");
            w.record(0, &sample_acc(1, 3)).expect("record");
        }
        // Damage the tail too: a refused file must not be healed.
        let len = fs::metadata(&path).expect("stat").len();
        fs::File::options()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_len(len - 7))
            .expect("truncate");
        let before = fs::read(&path).expect("read");
        assert!(matches!(open(&path, 2, 1), Err(FleetError::Checkpoint(_))));
        assert_eq!(fs::read(&path).expect("read"), before);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let path = tmp("salvage");
        {
            let mut w = CheckpointWriter::create(&path, 7).expect("create");
            w.record(0, &sample_acc(1, 4)).expect("record");
            w.record(1, &sample_acc(1, 5)).expect("record");
        }
        // Corrupt the second record and append a torn partial line, as a
        // crash mid-write would leave behind.
        let text = fs::read_to_string(&path).expect("read");
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let flipped = lines[2].replace('7', "8");
        lines[2] = if flipped == lines[2] {
            lines[2].replace('3', "4")
        } else {
            flipped
        };
        lines.push("chunk 2 deadbeef 1 2".to_owned());
        lines.push("chunk".to_owned());
        fs::write(&path, lines.join("\n")).expect("write");

        let Checkpoint {
            chunks, skipped, ..
        } = open_present(&path, 7, 1);
        assert_eq!(chunks.len(), 1);
        assert!(chunks.contains_key(&0));
        assert_eq!(skipped, 3);
        // The salvage rewrote the file to its intact records.
        let healed = open_present(&path, 7, 1);
        assert_eq!((healed.chunks, healed.skipped), (chunks, 0));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn append_after_salvage_keeps_existing_records() {
        let path = tmp("append");
        {
            let mut w = CheckpointWriter::create(&path, 9).expect("create");
            w.record(0, &sample_acc(1, 6)).expect("record");
        }
        {
            let mut w = open_present(&path, 9, 1).writer;
            w.record(1, &sample_acc(1, 7)).expect("record");
        }
        let Checkpoint {
            chunks, skipped, ..
        } = open_present(&path, 9, 1);
        assert_eq!(skipped, 0);
        assert_eq!(chunks.len(), 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_loads_empty() {
        let path = tmp("missing");
        let _ = fs::remove_file(&path);
        assert!(open(&path, 1, 1).expect("open").is_none());
    }
}
