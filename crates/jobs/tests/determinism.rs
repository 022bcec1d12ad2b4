//! The engine's headline guarantees: scheduling determinism, bit-exact
//! checkpoint/resume, per-job fault isolation, and a working memo cache.

#![allow(clippy::unwrap_used)]
use std::path::{Path, PathBuf};

use relia_core::units::{Kelvin, Seconds};
use relia_jobs::{
    builtin_resolver, open_checkpoint, run_sweep, CheckpointWriter, JobOutcome, PolicySpec,
    SweepError, SweepOptions, SweepSpec, Workload,
};

fn aging_spec() -> SweepSpec {
    SweepSpec {
        workload: Workload::CircuitAging {
            circuits: vec!["c17".into()],
            policies: vec![PolicySpec::Worst, PolicySpec::Best, PolicySpec::Footer],
        },
        ras: vec![(1.0, 1.0), (1.0, 9.0)],
        t_standby: vec![Kelvin(330.0), Kelvin(400.0)],
        lifetimes: vec![Seconds(1.0e7), Seconds(1.0e8)],
    }
}

fn model_spec() -> SweepSpec {
    SweepSpec {
        workload: Workload::ModelDeltaVth {
            p_active: 0.5,
            p_standby: 1.0,
        },
        ras: vec![(1.0, 1.0), (1.0, 5.0), (1.0, 9.0)],
        t_standby: vec![Kelvin(330.0), Kelvin(360.0), Kelvin(400.0)],
        lifetimes: vec![Seconds(1.0e6), Seconds(1.0e8)],
    }
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("relia-jobs-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn options(workers: usize) -> SweepOptions {
    SweepOptions {
        workers,
        ..SweepOptions::default()
    }
}

#[test]
fn one_worker_and_many_workers_agree_exactly() {
    for spec in [aging_spec(), model_spec()] {
        let solo = run_sweep(&spec, &options(1), builtin_resolver).unwrap();
        for workers in [2, 8] {
            let parallel = run_sweep(&spec, &options(workers), builtin_resolver).unwrap();
            // PartialEq on JobOutcome compares the f64 payloads exactly:
            // the results must be byte-identical, not merely close.
            assert_eq!(solo.statuses, parallel.statuses, "workers={workers}");
            assert_eq!(solo.points, parallel.points);
        }
        assert_eq!(solo.metrics.total_jobs, spec.len());
        assert_eq!(solo.metrics.failed_jobs, 0);
    }
}

#[test]
fn cache_gets_hits_on_an_aging_sweep() {
    let out = run_sweep(&aging_spec(), &options(4), builtin_resolver).unwrap();
    // Every gate of c17 whose worst PMOS sees the same quantized stress
    // point lands on the same key, so hits are guaranteed within one job,
    // let alone across the grid.
    assert!(out.metrics.cache.hits > 0, "{:?}", out.metrics.cache);
    assert!(out.metrics.cache.misses > 0);
    assert!(out.metrics.cache.entries as u64 <= out.metrics.cache.misses);
    assert!(out.metrics.cache.hit_rate() > 0.0);
}

#[test]
fn resumed_sweep_matches_uninterrupted_sweep() {
    let spec = aging_spec();
    let uninterrupted = run_sweep(&spec, &options(4), builtin_resolver).unwrap();

    // Run once with a checkpoint to collect the record lines, then build a
    // truncated checkpoint holding only the first half of the jobs —
    // exactly what a kill partway through leaves behind.
    let full_path = tmp("full");
    run_sweep(
        &spec,
        &SweepOptions {
            workers: 2,
            checkpoint: Some(full_path.clone()),
            ..SweepOptions::default()
        },
        builtin_resolver,
    )
    .unwrap();
    let full = open_checkpoint(&full_path, spec.fingerprint(), spec.len())
        .unwrap()
        .unwrap();
    assert_eq!(full.skipped, 0, "a finished run leaves a clean checkpoint");

    let half_path = tmp("half");
    let mut w = CheckpointWriter::create(&half_path, spec.fingerprint(), spec.len()).unwrap();
    for (&index, status) in full.statuses.iter().take(spec.len() / 2) {
        w.record(index, status).unwrap();
    }
    drop(w);

    let resumed = run_sweep(
        &spec,
        &SweepOptions {
            workers: 4,
            checkpoint: Some(half_path.clone()),
            ..SweepOptions::default()
        },
        builtin_resolver,
    )
    .unwrap();
    assert_eq!(resumed.metrics.resumed_jobs, spec.len() / 2);
    assert_eq!(resumed.metrics.executed_jobs, spec.len() - spec.len() / 2);
    assert_eq!(resumed.statuses, uninterrupted.statuses);

    // The resumed checkpoint now holds every job; a further resume
    // executes nothing and still agrees.
    let third = run_sweep(
        &spec,
        &SweepOptions {
            workers: 4,
            checkpoint: Some(half_path.clone()),
            ..SweepOptions::default()
        },
        builtin_resolver,
    )
    .unwrap();
    assert_eq!(third.metrics.executed_jobs, 0);
    assert_eq!(third.metrics.resumed_jobs, spec.len());
    assert_eq!(third.statuses, uninterrupted.statuses);

    std::fs::remove_file(&full_path).ok();
    std::fs::remove_file(&half_path).ok();
}

#[test]
fn checkpoint_from_a_different_spec_is_rejected() {
    let path = tmp("mismatch");
    run_sweep(
        &model_spec(),
        &SweepOptions {
            workers: 2,
            checkpoint: Some(path.clone()),
            ..SweepOptions::default()
        },
        builtin_resolver,
    )
    .unwrap();
    let err = run_sweep(
        &aging_spec(),
        &SweepOptions {
            workers: 2,
            checkpoint: Some(path.clone()),
            ..SweepOptions::default()
        },
        builtin_resolver,
    )
    .unwrap_err();
    assert!(
        matches!(err, SweepError::CheckpointMismatch { .. }),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

/// Options that resume from (or create) the checkpoint at `path`.
fn checkpointed(path: &Path) -> SweepOptions {
    SweepOptions {
        workers: 2,
        checkpoint: Some(path.to_owned()),
        ..SweepOptions::default()
    }
}

/// Damages the second record of the checkpoint at `path` (its third line)
/// and returns the damaged bytes.
fn damage_second_record(path: &Path) -> Vec<u8> {
    let mut bytes = std::fs::read(path).unwrap();
    let line_3 = 1 + bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .nth(1)
        .unwrap()
        .0;
    bytes[line_3 + 2] ^= 0x20; // `"index"` becomes `"Index"`
    std::fs::write(path, &bytes).unwrap();
    bytes
}

#[test]
fn a_damaged_checkpoint_of_another_spec_is_refused_untouched() {
    let path = tmp("damaged-mismatch");
    run_sweep(&model_spec(), &checkpointed(&path), builtin_resolver).unwrap();
    let damaged = damage_second_record(&path);

    let other = SweepSpec {
        ras: vec![(1.0, 5.0)],
        ..model_spec()
    };
    let err = run_sweep(&other, &checkpointed(&path), builtin_resolver).unwrap_err();
    assert!(
        matches!(err, SweepError::CheckpointMismatch { .. }),
        "{err}"
    );
    assert!(std::fs::read(&path).unwrap() == damaged, "left as it was");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_corrupt_middle_line_costs_only_its_own_job() {
    let spec = model_spec();
    let path = tmp("middle");
    let first = run_sweep(&spec, &checkpointed(&path), builtin_resolver).unwrap();
    damage_second_record(&path);

    let resumed = run_sweep(&spec, &checkpointed(&path), builtin_resolver).unwrap();
    assert_eq!(resumed.metrics.salvaged_dropped, 1);
    assert_eq!(
        resumed.metrics.executed_jobs, 1,
        "every later record resumed"
    );
    assert_eq!(resumed.metrics.resumed_jobs, spec.len() - 1);
    assert_eq!(resumed.statuses, first.statuses);
    let again = run_sweep(&spec, &checkpointed(&path), builtin_resolver).unwrap();
    assert_eq!(again.metrics.salvaged_dropped, 0, "the file was healed");
    assert_eq!(again.metrics.executed_jobs, 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_last_record_without_its_newline_does_not_swallow_the_next_append() {
    let spec = model_spec();
    let path = tmp("unterminated");
    let first = run_sweep(&spec, &checkpointed(&path), builtin_resolver).unwrap();
    // Delete one record and cut the final newline.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.remove(3);
    std::fs::write(&path, lines.join("\n")).unwrap();

    let resumed = run_sweep(&spec, &checkpointed(&path), builtin_resolver).unwrap();
    assert_eq!(
        resumed.metrics.salvaged_dropped, 0,
        "the last record is intact"
    );
    assert_eq!(resumed.metrics.executed_jobs, 1, "the deleted record's job");
    let again = run_sweep(&spec, &checkpointed(&path), builtin_resolver).unwrap();
    assert_eq!(
        again.metrics.salvaged_dropped, 0,
        "the append got its own line"
    );
    assert_eq!(again.metrics.executed_jobs, 0);
    assert_eq!(again.statuses, first.statuses);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_degenerate_point_fails_alone() {
    let mut spec = aging_spec();
    // (0, 0) RAS weights are rejected by Ras::new → that point fails while
    // the rest of the grid completes.
    spec.ras.push((0.0, 0.0));
    let out = run_sweep(&spec, &options(4), builtin_resolver).unwrap();
    let failed = out
        .statuses
        .iter()
        .filter(|s| matches!(s, JobOutcome::Failed { .. }))
        .count();
    // One bad ras × 2 temps × 2 lifetimes × 3 policies.
    assert_eq!(failed, 12);
    assert_eq!(out.metrics.failed_jobs, 12);
    let completed = out
        .statuses
        .iter()
        .filter(|s| s.completed().is_some())
        .count();
    assert_eq!(completed, spec.len() - 12);
}

#[test]
fn unknown_circuit_is_a_sweep_error() {
    let mut spec = aging_spec();
    if let Workload::CircuitAging { circuits, .. } = &mut spec.workload {
        circuits.push("not-a-benchmark".into());
    }
    let err = run_sweep(&spec, &options(1), builtin_resolver).unwrap_err();
    assert!(matches!(err, SweepError::UnknownCircuit { .. }), "{err}");
}

#[test]
fn empty_grid_is_a_sweep_error() {
    let mut spec = aging_spec();
    spec.lifetimes.clear();
    assert!(matches!(
        run_sweep(&spec, &options(1), builtin_resolver),
        Err(SweepError::EmptySpec)
    ));
}
