//! The sweep checkpoint's on-disk format, pinned by a committed file.
//!
//! `fixtures/sweep_checkpoint_v2.jsonl` holds every record kind, a `null`
//! standby leakage, ±inf and NaN, and a failure reason that needs every
//! kind of string escape. Today's reader must recover it exactly, so files
//! written by earlier builds keep resuming. Today's writer must reproduce
//! it byte for byte, except for the `failed` record: earlier builds also
//! wrote its attempt count, which the reader ignores.

use std::path::{Path, PathBuf};

use relia_jobs::{open_checkpoint, Checkpoint, CheckpointWriter, JobOutcome, JobResult};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sweep_checkpoint_v2.jsonl")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "relia-ckpt-format-{}-{name}.jsonl",
        std::process::id()
    ))
}

/// The outcomes the fixture was written from, in index order.
fn statuses() -> Vec<JobOutcome<JobResult>> {
    vec![
        JobOutcome::Completed(JobResult::Aging {
            worst_delta_vth: 0.031_234_567_890_123,
            degradation: 0.052_631_578_947_368_42,
            nominal_delay_ps: 716.5,
            degraded_delay_ps: 754.211_111_111_1,
            standby_leakage: Some(4.650_000_000_000_001e-5),
            active_leakage: 2.5e-6,
        }),
        JobOutcome::Completed(JobResult::Aging {
            worst_delta_vth: f64::NAN,
            degradation: f64::INFINITY,
            nominal_delay_ps: 100.0,
            degraded_delay_ps: f64::NEG_INFINITY,
            standby_leakage: None,
            active_leakage: f64::MIN_POSITIVE,
        }),
        JobOutcome::Completed(JobResult::Aging {
            worst_delta_vth: -0.0,
            degradation: 5e-324,
            nominal_delay_ps: f64::MAX,
            degraded_delay_ps: 1.0 / 3.0,
            standby_leakage: Some(f64::NEG_INFINITY),
            active_leakage: 0.0,
        }),
        JobOutcome::Completed(JobResult::Model {
            delta_vth: 1.0 / 3.0,
        }),
        JobOutcome::Completed(JobResult::Model {
            delta_vth: f64::NAN,
        }),
        JobOutcome::Failed {
            reason: "panic: \"quoted\" back\\slash\ttab \u{1} \u{e9} \u{1F600}".into(),
        },
        JobOutcome::TimedOut { elapsed_ms: 1234 },
    ]
}

/// `status` with every float as its bit pattern, so NaN equals itself and
/// `-0.0` differs from `0.0`.
fn bits(status: &JobOutcome<JobResult>) -> (String, Vec<Option<u64>>) {
    match status {
        JobOutcome::Completed(JobResult::Aging {
            worst_delta_vth,
            degradation,
            nominal_delay_ps,
            degraded_delay_ps,
            standby_leakage,
            active_leakage,
        }) => (
            "aging".into(),
            vec![
                Some(worst_delta_vth.to_bits()),
                Some(degradation.to_bits()),
                Some(nominal_delay_ps.to_bits()),
                Some(degraded_delay_ps.to_bits()),
                standby_leakage.map(f64::to_bits),
                Some(active_leakage.to_bits()),
            ],
        ),
        JobOutcome::Completed(JobResult::Model { delta_vth }) => {
            ("model".into(), vec![Some(delta_vth.to_bits())])
        }
        JobOutcome::Failed { reason } => (format!("failed: {reason}"), vec![]),
        JobOutcome::TimedOut { elapsed_ms } => ("timed_out".into(), vec![Some(*elapsed_ms)]),
    }
}

#[test]
fn the_committed_checkpoint_reads_back_and_rewrites_byte_for_byte() {
    let expected = statuses();
    let committed = std::fs::read(fixture()).unwrap();

    // Open a copy: a reader bug must not rewrite the committed file. The
    // open succeeds only for the fingerprint and grid size in its header.
    let copy = tmp("read");
    std::fs::write(&copy, &committed).unwrap();
    let Checkpoint {
        statuses, skipped, ..
    } = open_checkpoint(&copy, 0x0123_4567_89ab_cdef, expected.len())
        .unwrap()
        .unwrap();
    assert_eq!(skipped, 0);
    assert_eq!(
        std::fs::read(&copy).unwrap(),
        committed,
        "an intact file stays"
    );
    let got: Vec<_> = statuses.values().map(bits).collect();
    let want: Vec<_> = expected.iter().map(bits).collect();
    assert_eq!(got, want);
    assert_eq!(
        statuses.keys().copied().collect::<Vec<_>>(),
        (0..expected.len()).collect::<Vec<_>>()
    );
    std::fs::remove_file(&copy).ok();

    let written = tmp("write");
    let mut w = CheckpointWriter::create(&written, 0x0123_4567_89ab_cdef, expected.len()).unwrap();
    for (i, status) in expected.iter().enumerate() {
        w.record(i, status).unwrap();
    }
    drop(w);
    let text = std::fs::read_to_string(&written).unwrap();
    std::fs::remove_file(&written).ok();
    let committed = String::from_utf8(committed).unwrap();
    let failed_line = committed.lines().nth(6).unwrap();
    assert!(failed_line.contains(r#""attempts":3,"crc":"a312daef"}"#));
    let expected = committed.replace(failed_line, FAILED_RECORD);
    assert_eq!(text, expected);
}

/// The `failed` record as this build writes it: the fixture's line
/// without `"attempts":3`, under its new CRC.
const FAILED_RECORD: &str = r#"{"index":5,"kind":"failed","reason":"panic: \"quoted\" back\\slash\ttab \u0001 é 😀","crc":"9659fa04"}"#;
