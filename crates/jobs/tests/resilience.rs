//! The resilience paths of the sweep engine, end to end through
//! [`run_sweep`]:
//!
//! 1. a real straggler, a cold c7552 aging job, runs into the watchdog and
//!    becomes [`JobOutcome::TimedOut`], and the c17 job behind it on the
//!    same worker completes;
//! 2. a checkpoint damaged behind the engine's back (torn tail, bit flips,
//!    a duplicated record) resumes from every intact record and still
//!    produces byte-identical final output.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use relia_core::units::{Kelvin, Seconds};
use relia_jobs::{
    builtin_resolver, open_checkpoint, run_sweep, JobOutcome, JobTask, PolicySpec, SweepOptions,
    SweepSpec, Workload,
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
    p.push(format!(
        "relia-resilience-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// The job deadline of the straggler test. On a 2-vCPU VM a cold c7552
/// job runs its ΔV_th loop for ~20 ms in a release build and ~0.4 s in a
/// debug one, so the watchdog always fires inside it; a whole c17 job
/// takes ~0.1 ms in release and ~3 ms in debug, and it polls the token
/// once, before its first gate.
const STRAGGLER_TIMEOUT: Duration = Duration::from_millis(5);

#[test]
fn a_cold_c7552_job_times_out_and_the_c17_job_behind_it_completes() {
    let spec = SweepSpec {
        workload: Workload::CircuitAging {
            circuits: vec!["c7552".into(), "c17".into()],
            policies: vec![PolicySpec::Worst],
        },
        ras: vec![(1.0, 9.0)],
        t_standby: vec![Kelvin(330.0)],
        lifetimes: vec![Seconds::from_years(1.0)],
    };
    let opts = SweepOptions {
        workers: 1,
        job_timeout: Some(STRAGGLER_TIMEOUT),
        ..SweepOptions::default()
    };
    let started = Instant::now();
    let out = run_sweep(&spec, &opts, builtin_resolver).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the pool must drain promptly"
    );
    for (point, status) in out.points.iter().zip(&out.statuses) {
        let JobTask::Aging { circuit, .. } = &point.task else {
            panic!("an aging grid");
        };
        match (circuit.as_str(), status) {
            ("c7552", JobOutcome::TimedOut { elapsed_ms }) => {
                assert!(
                    *elapsed_ms >= STRAGGLER_TIMEOUT.as_millis() as u64,
                    "ran to its deadline, stopped after {elapsed_ms} ms"
                );
            }
            ("c17", JobOutcome::Completed(_)) => {}
            (circuit, other) => panic!("{circuit}: unexpected {other:?}"),
        }
    }
    assert_eq!(out.statuses.len(), 2);
    assert_eq!(out.metrics.timed_out_jobs, 1);
    assert_eq!(out.metrics.failed_jobs, 0);
}

#[test]
fn a_corrupted_checkpoint_resumes_from_the_salvaged_prefix() {
    let spec = model_spec();
    let with_ckpt = |p: &PathBuf| SweepOptions {
        workers: 2,
        checkpoint: Some(p.clone()),
        ..SweepOptions::default()
    };
    let clean_path = tmp("clean");
    let clean = run_sweep(&spec, &with_ckpt(&clean_path), builtin_resolver).unwrap();
    let written = std::fs::read(&clean_path).unwrap();
    std::fs::remove_file(&clean_path).ok();
    let record_starts: Vec<usize> = written
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .filter(|&i| i < written.len())
        .collect();
    assert_eq!(
        record_starts.len(),
        spec.len(),
        "a header and one line per job"
    );

    // Torn tail: cut into the middle of the final record.
    let torn = tmp("torn");
    std::fs::write(&torn, &written[..written.len() - 7]).unwrap();
    let resumed = run_sweep(&spec, &with_ckpt(&torn), builtin_resolver).unwrap();
    assert_eq!(resumed.metrics.salvaged_dropped, 1, "the torn record");
    assert_eq!(resumed.metrics.resumed_jobs, spec.len() - 1);
    assert_eq!(resumed.metrics.executed_jobs, 1, "only the torn job re-ran");
    assert_eq!(resumed.statuses, clean.statuses, "byte-identical output");

    // Bit rot: one flipped bit in each of three records.
    let rotten = tmp("bitrot");
    let mut bytes = written.clone();
    for line in [1, 6, 11] {
        bytes[record_starts[line] + 20] ^= 0x04;
    }
    std::fs::write(&rotten, &bytes).unwrap();
    let resumed = run_sweep(&spec, &with_ckpt(&rotten), builtin_resolver).unwrap();
    assert_eq!(
        resumed.metrics.salvaged_dropped, 3,
        "each flip was detected"
    );
    assert_eq!(resumed.metrics.executed_jobs, 3);
    assert_eq!(resumed.statuses, clean.statuses, "byte-identical output");

    // Duplicate record: valid CRC, so nothing is dropped — last-wins
    // absorbs it and no work re-runs.
    let doubled = tmp("dup");
    let last = &written[*record_starts.last().unwrap()..];
    std::fs::write(&doubled, [&written[..], last].concat()).unwrap();
    let resumed = run_sweep(&spec, &with_ckpt(&doubled), builtin_resolver).unwrap();
    assert_eq!(resumed.metrics.salvaged_dropped, 0);
    assert_eq!(resumed.metrics.executed_jobs, 0);
    assert_eq!(resumed.statuses, clean.statuses);

    // After each salvage + re-run, the file is clean and complete again:
    // re-opening it skips nothing and finds every job completed.
    for p in [&torn, &rotten, &doubled] {
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
