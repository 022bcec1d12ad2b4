//! The resilience acceptance suite (requires `--features fault-inject`).
//!
//! Each test injects one class of deterministic fault and proves the
//! corresponding recovery path end to end through [`run_sweep`]:
//!
//! 1. an injected cooperative hang becomes [`JobOutcome::TimedOut`] without
//!    stalling the pool;
//! 2. an injected transient panic succeeds after retry, and the recovered
//!    sweep is byte-identical to a fault-free run;
//! 3. a checkpoint corrupted behind the engine's back (torn tail, bit
//!    flips, duplicated records) resumes from every intact record and
//!    still produces byte-identical final output;
//! 4. an injected NaN surfaces as a structured failure and never enters
//!    the memo cache.

#![allow(clippy::unwrap_used)]
#![cfg(feature = "fault-inject")]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use relia_core::units::{Kelvin, Seconds};
use relia_jobs::fault::{self, Fault, FaultPlan};
use relia_jobs::{
    builtin_resolver, open_checkpoint, run_sweep, JobOutcome, SweepOptions, SweepSpec, Workload,
};

/// A fast all-model grid (18 points, each a single cached evaluation).
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
    p.push(format!("relia-fi-{}-{name}.jsonl", std::process::id()));
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
fn an_injected_hang_times_out_without_stalling_the_pool() {
    let spec = model_spec();
    let hung = 4usize;
    let opts = SweepOptions {
        workers: 4,
        job_timeout: Some(Duration::from_millis(150)),
        faults: Some(Arc::new(
            FaultPlan::new().with(hung, Fault::Hang { ms: 120_000 }),
        )),
        ..SweepOptions::default()
    };
    let started = Instant::now();
    let out = run_sweep(&spec, &opts, builtin_resolver).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the watchdog, not the 120 s hang budget, must end the job"
    );
    for (i, status) in out.statuses.iter().enumerate() {
        if i == hung {
            match status {
                JobOutcome::TimedOut { elapsed_ms } => {
                    assert!(*elapsed_ms >= 100, "ran to the vicinity of the deadline");
                }
                other => panic!("job {hung} should time out, got {other:?}"),
            }
        } else {
            assert!(status.completed().is_some(), "job {i} must be unaffected");
        }
    }
    assert_eq!(out.metrics.timed_out_jobs, 1);
    assert_eq!(out.metrics.failed_jobs, 0);
}

#[test]
fn an_injected_transient_panic_succeeds_after_retry() {
    let spec = model_spec();
    let clean = run_sweep(&spec, &options(2), builtin_resolver).unwrap();

    let flaky = 7usize;
    let opts = SweepOptions {
        workers: 2,
        retries: 2,
        faults: Some(Arc::new(
            FaultPlan::new().with(flaky, Fault::Panic { times: 2 }),
        )),
        ..SweepOptions::default()
    };
    let out = run_sweep(&spec, &opts, builtin_resolver).unwrap();
    assert_eq!(out.metrics.failed_jobs, 0, "retries absorbed the panics");
    assert_eq!(out.metrics.retried_jobs, 2);
    // Recovery is invisible in the results: byte-identical to fault-free.
    assert_eq!(out.statuses, clean.statuses);
}

#[test]
fn an_exhausted_retry_budget_reports_the_panic_with_its_attempt_count() {
    let spec = model_spec();
    let flaky = 3usize;
    let opts = SweepOptions {
        workers: 2,
        retries: 1,
        faults: Some(Arc::new(
            FaultPlan::new().with(flaky, Fault::Panic { times: 5 }),
        )),
        ..SweepOptions::default()
    };
    let out = run_sweep(&spec, &opts, builtin_resolver).unwrap();
    match &out.statuses[flaky] {
        JobOutcome::Failed { reason, attempts } => {
            assert!(reason.contains("panic"), "reason: {reason}");
            assert_eq!(*attempts, 2, "1 initial + 1 retry");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(out.metrics.failed_jobs, 1);
    assert_eq!(out.metrics.retried_jobs, 1);
}

#[test]
fn a_corrupted_checkpoint_resumes_from_the_salvaged_prefix() {
    let spec = model_spec();
    let clean = run_sweep(&spec, &options(2), builtin_resolver).unwrap();

    // Torn tail: truncate into the middle of the final record.
    let path = tmp("torn");
    let with_ckpt = |p: &PathBuf| SweepOptions {
        workers: 2,
        checkpoint: Some(p.clone()),
        ..SweepOptions::default()
    };
    run_sweep(&spec, &with_ckpt(&path), builtin_resolver).unwrap();
    fault::truncate_tail(&path, 7).unwrap();
    let resumed = run_sweep(&spec, &with_ckpt(&path), builtin_resolver).unwrap();
    assert_eq!(resumed.metrics.salvaged_dropped, 1, "the torn record");
    assert_eq!(resumed.metrics.resumed_jobs, spec.len() - 1);
    assert_eq!(resumed.metrics.executed_jobs, 1, "only the torn job re-ran");
    assert_eq!(resumed.statuses, clean.statuses, "byte-identical output");

    // Bit rot: seeded random flips somewhere in the record region.
    let path2 = tmp("bitrot");
    run_sweep(&spec, &with_ckpt(&path2), builtin_resolver).unwrap();
    fault::flip_random_bits(&path2, 0xdecade, 3).unwrap();
    let resumed = run_sweep(&spec, &with_ckpt(&path2), builtin_resolver).unwrap();
    assert!(resumed.metrics.salvaged_dropped >= 1, "flips were detected");
    assert_eq!(resumed.statuses, clean.statuses, "byte-identical output");

    // Duplicate record: valid CRC, so nothing is dropped — last-wins
    // absorbs it and no work re-runs.
    let path3 = tmp("dup");
    run_sweep(&spec, &with_ckpt(&path3), builtin_resolver).unwrap();
    fault::duplicate_last_record(&path3).unwrap();
    let resumed = run_sweep(&spec, &with_ckpt(&path3), builtin_resolver).unwrap();
    assert_eq!(resumed.metrics.salvaged_dropped, 0);
    assert_eq!(resumed.metrics.executed_jobs, 0);
    assert_eq!(resumed.statuses, clean.statuses);

    // After each salvage + re-run, the file is clean and complete again:
    // re-opening it skips nothing and finds every job completed.
    for p in [&path, &path2, &path3] {
        let ckpt = open_checkpoint(p, spec.fingerprint(), spec.len())
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.skipped, 0);
        let completed = ckpt
            .statuses
            .values()
            .filter(|s| matches!(s, JobOutcome::Completed(_)))
            .count();
        assert_eq!(completed, spec.len());
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn an_injected_nan_is_a_structured_error_and_never_enters_the_cache() {
    let spec = model_spec();
    let clean = run_sweep(&spec, &options(2), builtin_resolver).unwrap();

    let poisoned = 0usize;
    let opts = SweepOptions {
        workers: 2,
        retries: 3, // must NOT help: a NaN result is a permanent failure
        faults: Some(Arc::new(FaultPlan::new().with(poisoned, Fault::Nan))),
        ..SweepOptions::default()
    };
    let out = run_sweep(&spec, &opts, builtin_resolver).unwrap();
    match &out.statuses[poisoned] {
        JobOutcome::Failed { reason, attempts } => {
            assert!(
                reason.contains("non-finite"),
                "structured NonFinite diagnostic, got: {reason}"
            );
            assert_eq!(*attempts, 1, "permanent failures skip the retry budget");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(out.metrics.retried_jobs, 0);
    // The cache holds exactly the same entries as a fault-free run — the
    // NaN was rejected at admission, not stored.
    assert_eq!(out.metrics.cache.entries, clean.metrics.cache.entries);
    // Every other job still produced bit-identical numbers.
    for (i, (a, b)) in out.statuses.iter().zip(&clean.statuses).enumerate() {
        if i != poisoned {
            assert_eq!(a, b, "job {i}");
        }
    }
}
