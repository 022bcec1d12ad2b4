//! Crash-safe fleet checkpoints: an append-only text file of completed
//! chunk accumulators, each line independently CRC-protected.
//!
//! Format (one record per line):
//!
//! ```text
//! relia-fleet-checkpoint v1 <fingerprint hex>
//! chunk <index> <crc hex> <word hex> <word hex> ...
//! ```
//!
//! The header binds the file to a `(spec, chunk size)` fingerprint; a
//! mismatch rejects the whole file. Individual chunk lines that fail their
//! CRC or parse (a torn write from a crash, bit rot) are *skipped*,
//! salvaging every intact record — the engine simply recomputes the lost
//! chunks. When anything was skipped, [`load`] atomically rewrites the file
//! to the intact records, so the next append starts on a clean line
//! instead of extending a torn one.

use crate::accum::ChunkAccum;
use crate::error::FleetError;
use relia_core::seal::{crc32, lossy_lines, write_atomic};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

const HEADER_TAG: &str = "relia-fleet-checkpoint";
const HEADER_VERSION: &str = "v1";

fn header_line(fingerprint: u64) -> String {
    format!("{HEADER_TAG} {HEADER_VERSION} {fingerprint:016x}\n")
}

/// One sealed record line: `chunk <index> <crc> <words...>\n`.
fn record_line(index: usize, acc: &ChunkAccum) -> String {
    let payload = chunk_payload(index, &acc.to_words());
    let crc = crc32(payload.as_bytes());
    let idx_end = payload.find(' ').unwrap_or(payload.len());
    format!(
        "chunk {} {crc:08x}{}\n",
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

/// Appends completed chunks to `path` as they arrive.
pub struct CheckpointWriter {
    file: File,
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
        write_atomic(path, header_line(fingerprint).as_bytes()).map_err(io_err)?;
        CheckpointWriter::append(path)
    }

    /// Reopens an existing checkpoint for appending (after a salvage load).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] on any filesystem failure.
    pub fn append(path: &Path) -> Result<Self, FleetError> {
        let file = OpenOptions::new().append(true).open(path).map_err(io_err)?;
        Ok(CheckpointWriter { file })
    }

    /// Writes one completed chunk and flushes, so a crash immediately
    /// after still finds the record intact.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] on any filesystem failure.
    pub fn record(&mut self, index: usize, acc: &ChunkAccum) -> Result<(), FleetError> {
        // Single write call so the line is as close to atomic as the OS gives us.
        self.file
            .write_all(record_line(index, acc).as_bytes())
            .map_err(io_err)?;
        self.file.flush().map_err(io_err)
    }
}

/// Loads every intact chunk from `path`.
///
/// Returns the salvaged accumulators keyed by chunk index and the number of
/// lines that were skipped as corrupt. Missing file → empty map. When any
/// line was skipped, the file is atomically rewritten to the header plus
/// the intact records.
///
/// # Errors
///
/// [`FleetError::Checkpoint`] when the header is missing, malformed, or
/// fingerprint-mismatched; [`FleetError::Io`] on read or rewrite failures.
pub fn load(
    path: &Path,
    fingerprint: u64,
    times: usize,
) -> Result<(BTreeMap<usize, ChunkAccum>, usize), FleetError> {
    let Some(mut lines) = lossy_lines(path).map_err(io_err)? else {
        return Ok((BTreeMap::new(), 0));
    };
    let header = match lines.next() {
        Some(Ok(l)) => l,
        Some(Err(e)) => return Err(io_err(e)),
        None => {
            return Err(FleetError::Checkpoint(
                "checkpoint file is empty".to_owned(),
            ))
        }
    };
    let mut parts = header.split_whitespace();
    if parts.next() != Some(HEADER_TAG) || parts.next() != Some(HEADER_VERSION) {
        return Err(FleetError::Checkpoint(
            "unrecognized checkpoint header".to_owned(),
        ));
    }
    let fp = parts
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| FleetError::Checkpoint("unreadable checkpoint fingerprint".to_owned()))?;
    if fp != fingerprint {
        return Err(FleetError::Checkpoint(format!(
            "checkpoint fingerprint {fp:016x} does not match this run ({fingerprint:016x}); \
             the spec or chunk size changed"
        )));
    }

    let mut chunks = BTreeMap::new();
    let mut skipped = 0_usize;
    for line in lines {
        let line = line.map_err(io_err)?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_chunk_line(&line, times) {
            Some((index, acc)) => {
                chunks.insert(index, acc);
            }
            None => skipped += 1,
        }
    }
    if skipped > 0 {
        let mut text = header_line(fingerprint);
        for (&index, acc) in &chunks {
            text.push_str(&record_line(index, acc));
        }
        write_atomic(path, text.as_bytes()).map_err(io_err)?;
    }
    Ok((chunks, skipped))
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
        let (chunks, skipped) = load(&path, 0xABCD, 2).expect("load");
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
        assert!(matches!(load(&path, 2, 1), Err(FleetError::Checkpoint(_))));
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

        let (chunks, skipped) = load(&path, 7, 1).expect("salvage load");
        assert_eq!(chunks.len(), 1);
        assert!(chunks.contains_key(&0));
        assert_eq!(skipped, 3);
        // The salvage rewrote the file to its intact records.
        let (healed, skipped) = load(&path, 7, 1).expect("healed load");
        assert_eq!((healed, skipped), (chunks, 0));
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
            let mut w = CheckpointWriter::append(&path).expect("append");
            w.record(1, &sample_acc(1, 7)).expect("record");
        }
        let (chunks, skipped) = load(&path, 9, 1).expect("load");
        assert_eq!(skipped, 0);
        assert_eq!(chunks.len(), 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_loads_empty() {
        let path = tmp("missing");
        let _ = fs::remove_file(&path);
        let (chunks, skipped) = load(&path, 1, 1).expect("load");
        assert!(chunks.is_empty());
        assert_eq!(skipped, 0);
    }
}
