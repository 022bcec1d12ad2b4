//! The sweep engine: prepare once per circuit, fan out over workers, memoize
//! model evaluations, checkpoint as results land.
//!
//! Determinism contract: for a given [`SweepSpec`] and circuit resolver,
//! [`run_sweep`] produces an identical `statuses` vector for **any** worker
//! count and **any** interruption/resume pattern. The three pieces that
//! make this hold:
//!
//! 1. the grid enumeration is a pure function of the spec
//!    ([`SweepSpec::points`]);
//! 2. every model evaluation goes through a
//!    [`StressKey`](relia_core::StressKey)'s canonical point, so a cache
//!    hit equals the miss-path computation bit-for-bit;
//! 3. checkpointed floats round-trip exactly (shortest `Display` ↔
//!    `parse`), so resumed values equal freshly computed ones.
//!
//! Resilience contract, layered on top:
//!
//! * every job runs once: a model error, an invalid parameter or a panic
//!   makes it [`JobOutcome::Failed`] with its reason. A grid point is a
//!   pure function of its inputs, so a second run would fail the same way;
//! * with [`SweepOptions::job_timeout`] set, a watchdog cancels straggling
//!   jobs cooperatively — they surface as [`JobOutcome::TimedOut`] and the
//!   pool drains instead of hanging;
//! * checkpoints are opened through [`checkpoint::open`], which refuses a
//!   file of another spec before touching it, and resumes a file damaged
//!   by a crash (torn tail, bit rot) from every intact record instead of
//!   aborting the batch — only the damaged lines' jobs re-run, and their
//!   count lands in [`SweepMetrics::salvaged_dropped`];
//! * a non-finite ΔV_th is rejected at the cache-admission boundary
//!   ([`ShardedCache::insert_checked`]) and becomes a structured job
//!   failure; `NaN` can never enter the memo table.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use relia_core::{CancelToken, NbtiModel, Ras};
use relia_flow::{paper_stress_key, AgingAnalysis, AnalysisPrep, DeltaVthCache, FlowConfig};
use relia_netlist::Circuit;

use relia_obs::{LatencyHist, Tracer};

use crate::cache::ShardedCache;
use crate::checkpoint::{self, CheckpointError, CheckpointWriter};
use crate::metrics::{SweepMetrics, SweepTimings};
use crate::pool::{self, JobOutcome, PoolConfig};
use crate::spec::{JobPoint, JobResult, JobTask, SweepSpec, Workload};

/// The paper's baseline period and active temperature, shared by every
/// sweep point (defined once in relia-flow).
pub use relia_flow::{
    PAPER_PERIOD_S as SWEEP_PERIOD_S, PAPER_TEMP_ACTIVE_K as SWEEP_TEMP_ACTIVE_K,
};

/// Knobs of one engine run.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 means [`pool::default_workers`].
    pub workers: usize,
    /// Checkpoint file: created if absent, resumed from (keeping every
    /// intact record) if present.
    pub checkpoint: Option<PathBuf>,
    /// Per-job soft deadline; stragglers become [`JobOutcome::TimedOut`].
    pub job_timeout: Option<Duration>,
    /// When set, the run records spans — the pool's queue-wait and
    /// execute spans plus `checkpoint_flush` — into this tracer. Latency
    /// histograms ([`SweepTimings`]) are always collected; spans are
    /// opt-in.
    pub trace: Option<Arc<Tracer>>,
}

/// Why a sweep could not run (job-level failures do *not* land here — they
/// become [`JobOutcome::Failed`] entries so one bad point cannot sink a
/// batch).
#[derive(Debug)]
pub enum SweepError {
    /// The spec's grid has no points.
    EmptySpec,
    /// A filesystem operation failed.
    Io(io::Error),
    /// The checkpoint file could not be read, written, or trusted.
    Checkpoint(CheckpointError),
    /// The circuit resolver rejected a name.
    UnknownCircuit {
        /// The name that failed to resolve.
        name: String,
        /// Resolver diagnostic.
        detail: String,
    },
    /// Building a circuit's [`AnalysisPrep`] failed.
    Prep {
        /// The circuit being prepared.
        name: String,
        /// Flow-layer diagnostic.
        detail: String,
    },
    /// The checkpoint belongs to a different spec.
    CheckpointMismatch {
        /// Fingerprint of the spec being run.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::EmptySpec => write!(f, "sweep grid is empty (an axis has no values)"),
            SweepError::Io(e) => write!(f, "sweep I/O failed: {e}"),
            SweepError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
            SweepError::UnknownCircuit { name, detail } => {
                write!(f, "cannot load circuit {name:?}: {detail}")
            }
            SweepError::Prep { name, detail } => {
                write!(f, "cannot prepare circuit {name:?}: {detail}")
            }
            SweepError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different sweep \
                 (spec fingerprint {expected:016x}, checkpoint {found:016x})"
            ),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Io(e) => Some(e),
            SweepError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SweepError {
    fn from(e: io::Error) -> Self {
        SweepError::Io(e)
    }
}

impl From<CheckpointError> for SweepError {
    fn from(e: CheckpointError) -> Self {
        SweepError::Checkpoint(e)
    }
}

/// Everything a finished sweep hands back: the enumerated grid, one
/// outcome per point (index-aligned with the grid), and the run's metrics.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The enumerated grid, in canonical order.
    pub points: Vec<JobPoint>,
    /// `statuses[i]` is the fate of `points[i]`.
    pub statuses: Vec<JobOutcome<JobResult>>,
    /// Operational summary.
    pub metrics: SweepMetrics,
}

/// Resolves builtin benchmark names (`c17`, `c432`, …) via
/// [`relia_netlist::iscas`]. The CLI layers file loading on top; library
/// users can pass any closure.
pub fn builtin_resolver(name: &str) -> Result<Circuit, String> {
    relia_netlist::iscas::try_circuit(name).map_err(|e| e.to_string())
}

/// Runs the sweep described by `spec`.
///
/// `resolve` maps circuit names from the spec's workload to circuits
/// (see [`builtin_resolver`]).
///
/// # Errors
///
/// Returns [`SweepError`] for an empty grid, unresolvable circuits, failed
/// preparation, or checkpoint problems. Per-job analysis errors, panics,
/// and timeouts are *not* errors at this level; they surface as
/// [`JobOutcome::Failed`] / [`JobOutcome::TimedOut`] entries in the outcome.
pub fn run_sweep<R>(
    spec: &SweepSpec,
    options: &SweepOptions,
    resolve: R,
) -> Result<SweepOutcome, SweepError>
where
    R: Fn(&str) -> Result<Circuit, String>,
{
    let points = spec.points();
    if points.is_empty() {
        return Err(SweepError::EmptySpec);
    }
    let fingerprint = spec.fingerprint();
    let t_prepare = Instant::now();

    // --- Prepare phase: one circuit + AnalysisPrep per distinct name. ---
    let mut prepared: HashMap<String, Arc<(Circuit, AnalysisPrep)>> = HashMap::new();
    #[expect(clippy::expect_used, reason = "paper defaults are valid")]
    let base_config = FlowConfig::paper_defaults().expect("paper defaults are valid");
    if let Workload::CircuitAging { circuits, .. } = &spec.workload {
        for name in circuits {
            if prepared.contains_key(name) {
                continue;
            }
            let circuit = resolve(name).map_err(|detail| SweepError::UnknownCircuit {
                name: name.clone(),
                detail,
            })?;
            let prep =
                AgingAnalysis::prep(&base_config, &circuit).map_err(|e| SweepError::Prep {
                    name: name.clone(),
                    detail: e.to_string(),
                })?;
            prepared.insert(name.clone(), Arc::new((circuit, prep)));
        }
    }
    #[expect(clippy::expect_used, reason = "built-in calibration is valid")]
    let model = NbtiModel::ptm90().expect("built-in calibration is valid");
    let prepare_secs = t_prepare.elapsed().as_secs_f64();

    // --- Checkpoint phase: resume previous results, open the writer. ---
    let mut statuses: Vec<Option<JobOutcome<JobResult>>> = vec![None; points.len()];
    let mut resumed_jobs = 0usize;
    let mut salvaged_dropped = 0usize;
    let mut writer: Option<CheckpointWriter> = None;
    if let Some(path) = &options.checkpoint {
        writer = Some(match checkpoint::open(path, fingerprint, points.len())? {
            Some(ckpt) => {
                salvaged_dropped = ckpt.skipped;
                for (index, status) in ckpt.statuses {
                    // Only completed jobs are final; failed and timed-out
                    // ones re-run.
                    if index < points.len() && matches!(status, JobOutcome::Completed(_)) {
                        statuses[index] = Some(status);
                        resumed_jobs += 1;
                    }
                }
                ckpt.writer
            }
            None => CheckpointWriter::create(path, fingerprint, points.len())?,
        });
    }
    let pending: Vec<usize> = (0..points.len())
        .filter(|&i| statuses[i].is_none())
        .collect();

    // --- Execute phase. ---
    let workers = if options.workers == 0 {
        pool::default_workers()
    } else {
        options.workers
    };
    let cache = ShardedCache::default();
    let pool_config = PoolConfig {
        workers,
        job_timeout: options.job_timeout,
        trace: options.trace.clone(),
    };
    let job_hist = LatencyHist::new();
    let checkpoint_hist = LatencyHist::new();
    let t_execute = Instant::now();
    let mut checkpoint_error: Option<CheckpointError> = None;
    let outcomes = pool::run_pool(
        &pending,
        &pool_config,
        |_, &index, token| {
            let t_job = Instant::now();
            let result = execute_point(&points[index], &prepared, &model, &cache, token);
            job_hist.record(t_job.elapsed());
            result
        },
        |k, outcome| {
            if let Some(w) = writer.as_mut() {
                if checkpoint_error.is_none() {
                    let flush_span = options.trace.as_deref().map(|t| t.span("checkpoint_flush"));
                    let t_flush = Instant::now();
                    let flushed = w.record(pending[k], outcome);
                    checkpoint_hist.record(t_flush.elapsed());
                    drop(flush_span);
                    if let Err(e) = flushed {
                        checkpoint_error = Some(e);
                    }
                }
            }
        },
    );
    let execute_secs = t_execute.elapsed().as_secs_f64();
    if let Some(e) = checkpoint_error {
        return Err(SweepError::Checkpoint(e));
    }
    for (k, outcome) in outcomes.into_iter().enumerate() {
        statuses[pending[k]] = Some(outcome);
    }

    #[expect(clippy::expect_used, reason = "every index is resumed or executed")]
    let statuses: Vec<JobOutcome<JobResult>> = statuses
        .into_iter()
        .map(|s| s.expect("every index resolved or executed"))
        .collect();
    let failed_jobs = statuses
        .iter()
        .filter(|s| matches!(s, JobOutcome::Failed { .. }))
        .count();
    let timed_out_jobs = statuses
        .iter()
        .filter(|s| matches!(s, JobOutcome::TimedOut { .. }))
        .count();
    let metrics = SweepMetrics {
        total_jobs: points.len(),
        executed_jobs: pending.len(),
        resumed_jobs,
        failed_jobs,
        timed_out_jobs,
        salvaged_dropped,
        workers,
        cache: cache.stats(),
        prepare_secs,
        execute_secs,
        timings: SweepTimings {
            job: job_hist.snapshot(),
            checkpoint: checkpoint_hist.snapshot(),
        },
    };
    Ok(SweepOutcome {
        points,
        statuses,
        metrics,
    })
}

/// Evaluates one grid point. An analysis error becomes its reason; the
/// pool catches panics separately.
fn execute_point(
    point: &JobPoint,
    prepared: &HashMap<String, Arc<(Circuit, AnalysisPrep)>>,
    model: &NbtiModel,
    cache: &ShardedCache,
    token: &CancelToken,
) -> Result<JobResult, String> {
    let ras = Ras::new(point.ras.0, point.ras.1).map_err(|e| e.to_string())?;
    match &point.task {
        JobTask::Aging { circuit, policy } => {
            let pair = prepared
                .get(circuit)
                .ok_or_else(|| format!("circuit {circuit:?} was not prepared"))?;
            let mut config =
                FlowConfig::with_schedule(ras, point.t_standby).map_err(|e| e.to_string())?;
            config.lifetime = point.lifetime;
            let report = AgingAnalysis::from_prep(&config, &pair.0, pair.1.clone())
                .with_cache(cache, token)
                .run(&policy.to_policy())
                .map_err(|e| e.to_string())?;
            Ok(JobResult::Aging {
                worst_delta_vth: report.worst_delta_vth(),
                degradation: report.degradation_fraction(),
                nominal_delay_ps: report.nominal.max_delay_ps(),
                degraded_delay_ps: report.degraded.max_delay_ps(),
                standby_leakage: report.standby_leakage,
                active_leakage: report.active_leakage,
            })
        }
        JobTask::Model {
            p_active,
            p_standby,
        } => {
            let key = paper_stress_key(ras, point.t_standby, *p_active, *p_standby, point.lifetime)
                .map_err(|e| e.to_string())?;
            let delta_vth = cache.delta_vth(key, model).map_err(|e| e.to_string())?;
            Ok(JobResult::Model { delta_vth })
        }
    }
}
