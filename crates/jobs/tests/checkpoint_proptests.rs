//! Property-based corruption tests for the checkpoint salvage path.
//!
//! The guarantee under test: for *any* written checkpoint damaged by tail
//! truncation or a single bit flip in its record region, [`open`] recovers
//! **exactly** the intact records — never a mis-parsed record, never fewer
//! than the intact ones — and heals the file, so opening it again skips
//! nothing and leaves it byte for byte.
//!
//! [`open`]: relia_jobs::open_checkpoint

#![allow(clippy::unwrap_used)]
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use relia_jobs::{open_checkpoint, Checkpoint, CheckpointWriter, JobOutcome, JobResult};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "relia-ckpt-prop-{}-{}-{name}.jsonl",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

/// Writes one record per value and returns the file's line layout:
/// `(start, content_len)` byte offsets for every line, header included.
fn write_checkpoint(path: &Path, values: &[f64]) -> Vec<(usize, usize)> {
    let mut w = CheckpointWriter::create(path, 0xfeed, values.len()).unwrap();
    for (i, &v) in values.iter().enumerate() {
        w.record(i, &JobOutcome::Completed(JobResult::Model { delta_vth: v }))
            .unwrap();
    }
    drop(w);
    let text = std::fs::read_to_string(path).unwrap();
    let mut layout = Vec::new();
    let mut start = 0usize;
    for line in text.split_inclusive('\n') {
        let content_len = line.trim_end_matches('\n').len();
        layout.push((start, content_len));
        start += line.len();
    }
    layout
}

/// Opens the damaged checkpoint and checks that it recovers exactly the
/// records at `kept`, skipping `skipped` lines, and that the healed file
/// opens again without skipping anything or changing.
fn assert_kept(path: &Path, values: &[f64], kept: &[usize], skipped: usize) {
    let Checkpoint {
        statuses,
        skipped: s,
        ..
    } = open_checkpoint(path, 0xfeed, values.len())
        .unwrap()
        .unwrap();
    assert_eq!(s, skipped, "skipped-line count");
    // Exactly the intact records, bit-equal values.
    assert_eq!(statuses.keys().copied().collect::<Vec<_>>(), kept);
    for &i in kept {
        assert_eq!(
            statuses.get(&i),
            Some(&JobOutcome::Completed(JobResult::Model {
                delta_vth: values[i]
            })),
            "record {i}"
        );
    }
    let healed = std::fs::read(path).unwrap();
    let again = open_checkpoint(path, 0xfeed, values.len())
        .unwrap()
        .unwrap();
    assert_eq!(
        (again.statuses, again.skipped),
        (statuses, 0),
        "the healed file skips nothing"
    );
    assert_eq!(std::fs::read(path).unwrap(), healed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tail truncation of any length: every record whose content bytes are
    /// fully intact survives; everything at or past the cut is dropped.
    #[test]
    fn salvage_recovers_exactly_the_valid_prefix_after_truncation(
        values in prop::collection::vec(-1.0e3f64..1.0e3, 1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let path = tmp("trunc");
        let layout = write_checkpoint(&path, &values);
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        // Cut somewhere inside the record region (never into the header).
        let (header_start, header_len) = layout[0];
        let record_region = file_len - (header_start + header_len + 1);
        let cut = 1 + (cut_frac * (record_region.saturating_sub(1)) as f64) as usize;
        let keep = file_len - cut;

        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(keep as u64).unwrap();
        drop(f);

        // A record survives iff all of its content bytes survive (a lost
        // trailing newline alone does not invalidate the line). Records cut
        // off entirely are simply absent; only a torn partial line still
        // present in the file counts as "dropped" by salvage.
        let surviving = layout[1..]
            .iter()
            .take_while(|&&(start, content_len)| start + content_len <= keep)
            .count();
        let present = layout[1..].iter().filter(|&&(start, _)| start < keep).count();
        let kept: Vec<usize> = (0..surviving).collect();
        assert_kept(&path, &values, &kept, present - surviving);
        std::fs::remove_file(&path).ok();
    }

    /// A single bit flip anywhere in the record region: the CRC catches
    /// it, the damaged line alone is skipped, and every record before and
    /// after it survives untouched.
    #[test]
    fn salvage_recovers_exactly_the_valid_prefix_after_a_bit_flip(
        values in prop::collection::vec(-1.0e3f64..1.0e3, 1..8),
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let path = tmp("flip");
        let layout = write_checkpoint(&path, &values);
        let mut bytes = std::fs::read(&path).unwrap();
        let record_start = layout[1].0;
        let target = record_start
            + (pos_frac * (bytes.len() - record_start - 1) as f64) as usize;
        bytes[target] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        // The line whose span (content + newline) contains the flip is
        // damaged; flipping an *interior* newline merges it with the next
        // line into one damaged line, so both records are lost — either way
        // exactly one line is skipped.
        let damaged = layout[1..]
            .iter()
            .position(|&(start, content_len)| target < start + content_len + 1)
            .unwrap();
        let merges_two_lines = layout[1..]
            .iter()
            .any(|&(start, content_len)| target == start + content_len)
            && target != bytes.len() - 1;
        let lost = damaged..=damaged + usize::from(merges_two_lines);
        let kept: Vec<usize> = (0..values.len()).filter(|i| !lost.contains(i)).collect();
        assert_kept(&path, &values, &kept, 1);
        std::fs::remove_file(&path).ok();
    }
}
