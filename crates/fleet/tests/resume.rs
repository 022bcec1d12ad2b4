//! Checkpoint/resume and cancellation behaviour of the fleet engine, end
//! to end through `run_fleet`.

#![allow(clippy::expect_used)]

use relia_core::CancelToken;
use relia_fleet::{run_fleet, FleetError, FleetOptions, FleetSpec};
use std::fs;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "relia_fleet_resume_{}_{name}.ckpt",
        std::process::id()
    ));
    p
}

fn spec(samples: usize) -> FleetSpec {
    let mut s = FleetSpec::paper_defaults().expect("defaults build");
    s.samples = samples;
    s.seed = 0xDEC0DE;
    s
}

#[test]
fn second_run_resumes_every_chunk_and_matches_exactly() {
    let path = tmp("full");
    let _ = fs::remove_file(&path);
    let spec = spec(1_000);
    let opts = FleetOptions {
        workers: 2,
        chunk: 128,
        checkpoint: Some(path.clone()),
        cancel: None,
        trace: None,
    };
    let first = run_fleet(&spec, &opts).expect("first run");
    assert_eq!(first.metrics.resumed_chunks, 0);
    assert_eq!(first.metrics.executed_chunks, first.metrics.total_chunks);

    let second = run_fleet(&spec, &opts).expect("resumed run");
    assert_eq!(second.metrics.executed_chunks, 0);
    assert_eq!(second.metrics.resumed_chunks, second.metrics.total_chunks);
    assert_eq!(first.summary, second.summary);
    let _ = fs::remove_file(&path);
}

#[test]
fn corrupted_chunk_is_recomputed_without_losing_the_rest() {
    let path = tmp("salvage");
    let _ = fs::remove_file(&path);
    let spec = spec(1_000);
    let opts = FleetOptions {
        workers: 1,
        chunk: 128,
        checkpoint: Some(path.clone()),
        cancel: None,
        trace: None,
    };
    let first = run_fleet(&spec, &opts).expect("first run");

    // Tear one record the way a crash mid-append would.
    let text = fs::read_to_string(&path).expect("read checkpoint");
    let mut lines: Vec<&str> = text.lines().collect();
    let torn = &lines[2][..lines[2].len() / 2];
    lines[2] = torn;
    fs::write(&path, lines.join("\n")).expect("rewrite checkpoint");

    let second = run_fleet(&spec, &opts).expect("salvage run");
    assert_eq!(second.metrics.executed_chunks, 1);
    assert_eq!(
        second.metrics.resumed_chunks,
        second.metrics.total_chunks - 1
    );
    assert_eq!(second.metrics.salvaged_skips, 1);
    assert_eq!(first.summary, second.summary);
    let _ = fs::remove_file(&path);
}

#[test]
fn bit_rot_in_a_record_is_skipped_not_an_io_error() {
    let path = tmp("bitrot");
    let _ = fs::remove_file(&path);
    let spec = spec(1_000);
    let opts = FleetOptions {
        workers: 1,
        chunk: 128,
        checkpoint: Some(path.clone()),
        cancel: None,
        trace: None,
    };
    let first = run_fleet(&spec, &opts).expect("first run");

    // Set the high bit of one record byte: the line is no longer UTF-8.
    let mut bytes = fs::read(&path).expect("read checkpoint");
    let record = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
    bytes[record + 20] ^= 0x80;
    fs::write(&path, bytes).expect("rewrite checkpoint");

    let second = run_fleet(&spec, &opts).expect("resume over bit rot");
    assert_eq!(second.metrics.executed_chunks, 1);
    assert_eq!(second.metrics.salvaged_skips, 1);
    assert_eq!(first.summary, second.summary);
    let _ = fs::remove_file(&path);
}

#[test]
fn a_torn_tail_heals_on_the_first_resume() {
    let path = tmp("torn");
    let _ = fs::remove_file(&path);
    let spec = spec(1_000);
    let opts = FleetOptions {
        workers: 1,
        chunk: 128,
        checkpoint: Some(path.clone()),
        cancel: None,
        trace: None,
    };
    let first = run_fleet(&spec, &opts).expect("first run");

    // A crash mid-append: the last record loses its tail and newline.
    let len = fs::metadata(&path).expect("stat checkpoint").len();
    fs::File::options()
        .write(true)
        .open(&path)
        .and_then(|f| f.set_len(len - 7))
        .expect("truncate checkpoint");

    let second = run_fleet(&spec, &opts).expect("salvage run");
    assert_eq!(second.metrics.executed_chunks, 1);
    assert_eq!(second.metrics.salvaged_skips, 1);
    let third = run_fleet(&spec, &opts).expect("healed run");
    assert_eq!(third.metrics.executed_chunks, 0);
    assert_eq!(third.metrics.salvaged_skips, 0);
    assert_eq!(first.summary, third.summary);
    let _ = fs::remove_file(&path);
}

#[test]
fn changing_the_spec_rejects_the_old_checkpoint() {
    let path = tmp("fingerprint");
    let _ = fs::remove_file(&path);
    let a = spec(1_000);
    let opts = FleetOptions {
        workers: 1,
        chunk: 128,
        checkpoint: Some(path.clone()),
        cancel: None,
        trace: None,
    };
    run_fleet(&a, &opts).expect("first run");

    let mut b = a.clone();
    b.guardband = 0.1;
    let err = run_fleet(&b, &opts).expect_err("fingerprint mismatch");
    assert!(matches!(err, FleetError::Checkpoint(_)), "got {err}");

    // A different chunk size is a different run too.
    let err = run_fleet(
        &a,
        &FleetOptions {
            chunk: 64,
            ..opts.clone()
        },
    )
    .expect_err("chunk size mismatch");
    assert!(matches!(err, FleetError::Checkpoint(_)), "got {err}");
    let _ = fs::remove_file(&path);
}

#[test]
fn cancellation_mid_run_checkpoints_progress_and_resume_completes() {
    let path = tmp("cancel");
    let _ = fs::remove_file(&path);
    // Big enough that a short delay cancels it mid-flight on one worker.
    let spec = spec(200_000);
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            token.cancel();
        })
    };
    let opts = FleetOptions {
        workers: 1,
        chunk: 512,
        checkpoint: Some(path.clone()),
        cancel: Some(token),
        trace: None,
    };
    let err = run_fleet(&spec, &opts).expect_err("must cancel");
    assert!(matches!(err, FleetError::Cancelled), "got {err}");
    canceller.join().expect("canceller thread");

    // Resume with a fresh token: completes, and the summary is the same
    // bytes a never-interrupted run produces.
    let resumed = run_fleet(
        &spec,
        &FleetOptions {
            cancel: None,
            trace: None,
            ..opts.clone()
        },
    )
    .expect("resumed run");
    assert_eq!(
        resumed.metrics.resumed_chunks + resumed.metrics.executed_chunks,
        resumed.metrics.total_chunks
    );

    let clean = run_fleet(
        &spec,
        &FleetOptions {
            workers: 4,
            chunk: 512,
            checkpoint: None,
            cancel: None,
            trace: None,
        },
    )
    .expect("clean run");
    assert_eq!(resumed.summary, clean.summary);
    let _ = fs::remove_file(&path);
}

#[test]
fn every_other_record_resumes_bit_identically_at_any_worker_count() {
    let spec = spec(5_000);
    let fresh = run_fleet(
        &spec,
        &FleetOptions {
            workers: 1,
            chunk: 128,
            ..FleetOptions::default()
        },
    )
    .expect("fresh run");
    for workers in [1, 2, 8] {
        let path = tmp(&format!("every_other_{workers}"));
        let _ = fs::remove_file(&path);
        let opts = FleetOptions {
            workers,
            chunk: 128,
            checkpoint: Some(path.clone()),
            cancel: None,
            trace: None,
        };
        let first = run_fleet(&spec, &opts).expect("checkpointed run");
        let total = first.metrics.total_chunks;

        // Keep the header and every other record, so resumed and freshly
        // sampled chunks interleave in the fold.
        let text = fs::read_to_string(&path).expect("read checkpoint");
        let kept: String = text
            .lines()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, line)| format!("{line}\n"))
            .collect();
        fs::write(&path, kept).expect("rewrite checkpoint");

        let resumed = run_fleet(&spec, &opts).expect("resumed run");
        assert_eq!(
            resumed.metrics.resumed_chunks,
            total / 2,
            "{workers} workers"
        );
        assert_eq!(resumed.metrics.executed_chunks, total - total / 2);
        assert_eq!(
            format!("{:?}", resumed.summary),
            format!("{:?}", fresh.summary),
            "{workers} workers"
        );
        let _ = fs::remove_file(&path);
    }
}
