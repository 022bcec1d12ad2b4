//! The fleet Monte Carlo engine.
//!
//! A fleet run evaluates the NBTI delay-degradation model for thousands of
//! correlated variation samples. The expensive, *sample-independent* work —
//! the Arrhenius exponentials, the AC-recursion prefix, and the equivalent
//! stress-time transform — is hoisted once per evaluation time into a
//! [`HoistedStress`], every time from one AC walk
//! ([`relia_core::NbtiModel::hoist_lifetimes`]); the per-sample loop is
//! then a handful of flops on a structure-of-arrays accumulator.
//!
//! Samples are drawn in fixed-size chunks, each chunk from its own
//! [`SplitMix64`] stream derived from `(seed, chunk index)`, and chunk
//! accumulators merge in index order — so the summary is bit-identical for
//! any worker count, and completed chunks checkpoint to disk for resume.

use crate::accum::{ChunkAccum, FRAC_HI};
use crate::checkpoint::{self, CheckpointWriter};
use crate::error::FleetError;
use crate::spec::FleetSpec;
use relia_core::seal::SplitMix64;
use relia_core::{
    CancelToken, HoistedStress, ModelError, NbtiModel, Seconds, VariationKernel, Volts,
    VthDistribution,
};
use relia_jobs::{default_workers, run_folded, JobOutcome};
use relia_obs::{fmt_ns, HistSnapshot, LatencyHist, Tracer};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Default samples per chunk: small enough for responsive cancellation and
/// cheap checkpoints, large enough to amortize scheduling.
pub const DEFAULT_CHUNK: usize = 2048;

/// How many samples the inner loop draws between cancellation polls.
const CANCEL_POLL_EVERY: usize = 256;

/// Knobs for one engine invocation (everything *outside* the statistical
/// spec: parallelism, chunking, persistence, cancellation).
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Worker threads; 0 means one per available core.
    pub workers: usize,
    /// Samples per chunk; 0 means [`DEFAULT_CHUNK`]. Part of the run
    /// fingerprint — resuming requires the same chunk size.
    pub chunk: usize,
    /// Checkpoint file to append completed chunks to (and resume from).
    pub checkpoint: Option<PathBuf>,
    /// External cancellation token; the run stops at the next chunk/poll
    /// boundary once cancelled.
    pub cancel: Option<CancelToken>,
    /// Span ring recording `fleet_hoist`, per-chunk `fleet_chunk`, and
    /// `fleet_merge` spans — hot-path attribution for `relia fleet
    /// --trace`. The chunk-duration histogram is collected regardless.
    pub trace: Option<Arc<Tracer>>,
}

/// Fleet statistics at one evaluation time.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPoint {
    /// Evaluation time.
    pub time: Seconds,
    /// Mean delay-degradation fraction across the fleet.
    pub mean: f64,
    /// Standard deviation of the degradation fraction.
    pub std_dev: f64,
    /// Median degradation fraction.
    pub p50: f64,
    /// 90th-percentile degradation fraction.
    pub p90: f64,
    /// 99th-percentile degradation fraction.
    pub p99: f64,
    /// Fraction of devices still within the delay guardband.
    pub yield_fraction: f64,
}

/// Projected-lifetime percentiles, in seconds, from the `t^(1/4)` power-law
/// extrapolation anchored at the last evaluation time.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeSummary {
    /// 1st-percentile (worst-device) lifetime.
    pub p01: f64,
    /// 10th-percentile lifetime.
    pub p10: f64,
    /// Median lifetime.
    pub p50: f64,
}

/// The statistical outcome of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Devices sampled.
    pub samples: u64,
    /// Seed the run was drawn from.
    pub seed: u64,
    /// Delay guardband the yield numbers refer to.
    pub guardband: f64,
    /// One entry per evaluation time, in spec order.
    pub points: Vec<FleetPoint>,
    /// Lifetime projection across the fleet.
    pub lifetime: LifetimeSummary,
}

/// Operational counters for one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Chunks the sample count decomposed into.
    pub total_chunks: u64,
    /// Chunks actually evaluated this run.
    pub executed_chunks: u64,
    /// Chunks restored from the checkpoint instead of recomputed.
    pub resumed_chunks: u64,
    /// Corrupt checkpoint lines skipped during salvage.
    pub salvaged_skips: u64,
    /// Worker threads used.
    pub workers: u64,
    /// Devices sampled.
    pub samples: u64,
    /// Wall-clock seconds spent in the sampling phase.
    pub execute_secs: f64,
    /// Per-chunk evaluation latency (executed chunks only; resumed chunks
    /// cost no sampling time).
    pub chunk_seconds: HistSnapshot,
}

impl fmt::Display for FleetMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fleet: {} samples in {} chunks ({} executed, {} resumed) on {} workers in {:.3}s",
            self.samples,
            self.total_chunks,
            self.executed_chunks,
            self.resumed_chunks,
            self.workers,
            self.execute_secs
        )?;
        if self.chunk_seconds.count > 0 {
            write!(
                f,
                "\nchunk latency: p50 {} / p90 {} / p99 {} over {} chunks",
                fmt_ns(self.chunk_seconds.p50()),
                fmt_ns(self.chunk_seconds.p90()),
                fmt_ns(self.chunk_seconds.p99()),
                self.chunk_seconds.count
            )?;
        }
        Ok(())
    }
}

/// Everything [`run_fleet`] returns.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The fleet statistics.
    pub summary: FleetSummary,
    /// Operational counters.
    pub metrics: FleetMetrics,
}

/// The prepared, sample-independent state of a fleet study: one
/// [`HoistedStress`] per evaluation time plus the variation constants.
///
/// Public so benchmarks and the batch/scalar equivalence tests can drive
/// the hoisted path directly.
pub struct FleetEvaluator {
    hoisted: Vec<HoistedStress>,
    times: Vec<Seconds>,
    dist: VthDistribution,
    unit: VthDistribution,
    mean: f64,
    sigma: f64,
    corr: f64,
    corr_ortho: f64,
    rate_sigma: f64,
    vdd: f64,
    alpha: f64,
    guardband: f64,
    t_ref: f64,
}

impl FleetEvaluator {
    /// Validates `spec` and hoists the per-stress-point model terms —
    /// everything expensive happens here, **once**, not per sample.
    ///
    /// # Errors
    ///
    /// [`FleetError::Invalid`] for a bad spec, [`FleetError::Model`] when
    /// the model rejects it: a Vth distribution whose ±3.5σ clamp range
    /// escapes `[0, vdd)`, or a worst device whose delay degradation
    /// reaches [`FRAC_HI`], the top of the fleet's histogram (every device
    /// past its gate overdrive does, since α > [`FRAC_HI`]).
    pub fn prepare(spec: &FleetSpec) -> Result<Self, FleetError> {
        spec.validate()?;
        let model = NbtiModel::ptm90()?;
        let schedule = spec.schedule()?;
        let stress = spec.stress()?;
        // The times share a schedule and stress: one AC walk hoists them all.
        let hoisted = model.hoist_lifetimes(&spec.times, &schedule, &stress)?;
        let kernel = VariationKernel::new(model.params());
        let mean = spec.dist.mean().0;
        let sigma = spec.dist.sigma().0;
        let corr_ortho = (1.0 - spec.correlation * spec.correlation).max(0.0).sqrt();
        // Both Box–Muller draws clamp z to ±3.5. A device's delay fraction
        // grows with time and is log-convex in its vth0 draw, so the worst
        // device the sampler can draw has an extreme vth0 draw, the largest
        // rate draw and the last time; at FRAC_HI the histogram saturates.
        if let Some(last) = hoisted.last() {
            for z in [-3.5, 3.5] {
                last.check_vth0(Volts(mean + sigma * z))?;
            }
            let worst = [-3.5, 3.5]
                .into_iter()
                .map(|z| {
                    let vth0 = mean + sigma * z;
                    // Without a spread the sampler's correlated draw is 0.
                    let z1 = if sigma > 0.0 { z } else { 0.0 };
                    let m = (spec.rate_sigma * (spec.correlation * z1 + corr_ortho * 3.5)).exp();
                    kernel.alpha * (last.delta_vth_at(vth0) * m) / (kernel.vdd - vth0)
                })
                .fold(0.0, f64::max);
            if worst >= FRAC_HI {
                return Err(FleetError::Model(ModelError::InvalidParameter {
                    name: "worst-device delay degradation",
                    value: worst,
                    expected: "< 0.5, the top of the fleet's delay histogram",
                }));
            }
        }
        // A unit-normal via the same clamped Box–Muller the distribution
        // API provides: N(1, 1) shifted back to zero mean.
        let unit = VthDistribution::new(Volts(1.0), Volts(1.0))?;
        Ok(FleetEvaluator {
            hoisted,
            times: spec.times.clone(),
            dist: spec.dist,
            unit,
            mean,
            sigma,
            corr: spec.correlation,
            corr_ortho,
            rate_sigma: spec.rate_sigma,
            vdd: kernel.vdd,
            alpha: kernel.alpha,
            guardband: spec.guardband,
            t_ref: spec.times.last().map_or(0.0, |t| t.0),
        })
    }

    /// The evaluation times this evaluator was prepared for.
    pub fn times(&self) -> &[Seconds] {
        &self.times
    }

    /// Draws one device and folds it into `acc`. Consumes exactly four
    /// uniform variates: two for the time-zero Vth, two for the
    /// degradation-rate multiplier.
    pub fn sample_into(&self, rng: &mut SplitMix64, acc: &mut ChunkAccum) {
        let u1 = rng.next_f64();
        let u2 = rng.next_f64();
        let vth0 = self.dist.sample_box_muller(u1, u2).0;
        // Standardized time-zero deviation, reused as the correlated part
        // of the rate draw (Hassan & Roy: fast devices age faster, which a
        // negative correlation expresses).
        let z1 = if self.sigma > 0.0 {
            (vth0 - self.mean) / self.sigma
        } else {
            0.0
        };
        let u3 = rng.next_f64();
        let u4 = rng.next_f64();
        let z2 = self.unit.sample_box_muller(u3, u4).0 - 1.0;
        let m = (self.rate_sigma * (self.corr * z1 + self.corr_ortho * z2)).exp();
        let od = self.vdd - vth0;

        acc.samples += 1;
        let mut dv_ref = 0.0;
        // Bounded fan-in (MAX_TIMES = 16 hoisted terms, enforced at spec
        // validation); cancellation is polled per sample in run_chunk.
        for (h, t) in self.hoisted.iter().zip(acc.per_time.iter_mut()) {
            let dv = h.delta_vth_at(vth0) * m; // relia-lint: allow(unpolled-loop)
                                               // First-order alpha-power delay growth: Δd/d = α·ΔVth/overdrive.
            let frac = self.alpha * dv / od;
            t.frac.record(frac);
            t.moments.record(frac);
            if frac <= self.guardband {
                t.ok += 1;
            }
            dv_ref = dv;
        }
        // ΔVth ∝ t^(1/4) ⇒ the guardband is crossed at
        // t_fail = t_ref · (ΔVth_allowed / ΔVth(t_ref))⁴.
        let dv_allow = self.guardband * od / self.alpha;
        let t_fail = if dv_ref > 0.0 {
            self.t_ref * (dv_allow / dv_ref).powi(4)
        } else {
            f64::INFINITY
        };
        acc.lifetime_log10.record(t_fail.log10());
    }

    /// Evaluates chunk `index` of `[start, start + len)` samples on its own
    /// derived stream. Returns `None` if `cancel` fired mid-chunk.
    pub fn run_chunk(
        &self,
        seed: u64,
        index: usize,
        len: usize,
        cancel: &CancelToken,
    ) -> Option<ChunkAccum> {
        let mut rng = SplitMix64::stream(seed, index as u64);
        let mut acc = ChunkAccum::new(self.times.len());
        for drawn in 0..len {
            if drawn % CANCEL_POLL_EVERY == 0 && cancel.is_cancelled() {
                return None;
            }
            self.sample_into(&mut rng, &mut acc);
        }
        Some(acc)
    }

    /// Reduces a fully merged accumulator to the fleet summary. Callers
    /// that drive [`run_chunk`](Self::run_chunk) themselves (e.g. a server
    /// loop interleaving deadline checks) merge chunks **in index order**
    /// and finish here; the result is then byte-identical to
    /// [`run_fleet`]'s at the same chunk size.
    pub fn summarize(&self, spec: &FleetSpec, total: &ChunkAccum) -> FleetSummary {
        let points = total
            .per_time
            .iter()
            .zip(&self.times)
            .map(|(t, &time)| FleetPoint {
                time,
                mean: t.moments.mean(),
                std_dev: t.moments.std_dev(),
                p50: t.frac.quantile(0.50),
                p90: t.frac.quantile(0.90),
                p99: t.frac.quantile(0.99),
                yield_fraction: if total.samples == 0 {
                    0.0
                } else {
                    t.ok as f64 / total.samples as f64
                },
            })
            .collect();
        let life = &total.lifetime_log10;
        let lifetime = LifetimeSummary {
            p01: 10.0_f64.powf(life.quantile(0.01)),
            p10: 10.0_f64.powf(life.quantile(0.10)),
            p50: 10.0_f64.powf(life.quantile(0.50)),
        };
        FleetSummary {
            samples: total.samples,
            seed: spec.seed,
            guardband: spec.guardband,
            points,
            lifetime,
        }
    }
}

/// Runs a fleet study: chunked, parallel, checkpointed, cancellable.
///
/// The summary depends only on `(spec, chunk size)` — never on the worker
/// count or scheduling order.
///
/// # Errors
///
/// [`FleetError::Invalid`]/[`FleetError::Model`] for a bad spec,
/// [`FleetError::Cancelled`] when the token fires before completion,
/// [`FleetError::Checkpoint`]/[`FleetError::Io`] for resume problems.
pub fn run_fleet(spec: &FleetSpec, opts: &FleetOptions) -> Result<FleetOutcome, FleetError> {
    let trace = opts.trace.as_deref();
    let hoist_span = trace.map(|t| t.span("fleet_hoist"));
    let eval = FleetEvaluator::prepare(spec)?;
    drop(hoist_span);
    let chunk = if opts.chunk == 0 {
        DEFAULT_CHUNK
    } else {
        opts.chunk
    };
    let total_chunks = spec.samples.div_ceil(chunk);
    let fingerprint = spec.fingerprint(chunk);

    let (mut resumed, salvaged_skips, mut writer) = match &opts.checkpoint {
        Some(path) => match checkpoint::open(path, fingerprint, spec.times.len())? {
            Some(ckpt) => (ckpt.chunks, ckpt.skipped, Some(ckpt.writer)),
            None => (
                BTreeMap::new(),
                0,
                Some(CheckpointWriter::create(path, fingerprint)?),
            ),
        },
        None => (BTreeMap::new(), 0, None),
    };
    resumed.retain(|&i, _| i < total_chunks);
    let resumed_chunks = resumed.len();
    let todo: Vec<usize> = (0..total_chunks)
        .filter(|i| !resumed.contains_key(i))
        .collect();

    let workers = if opts.workers == 0 {
        default_workers()
    } else {
        opts.workers
    };
    let cancel = opts.cancel.clone().unwrap_or_default();

    // Chunks fold into the total strictly in chunk-index order — resumed
    // ones as the pool's cursor passes their index — so the float sums are
    // the same bytes no matter how chunks were scheduled or resumed.
    let mut total = ChunkAccum::new(spec.times.len());
    let started = Instant::now();
    let chunk_hist = LatencyHist::new();
    let mut write_err: Option<FleetError> = None;
    let mut fold_err: Option<FleetError> = None;
    run_folded(
        &todo,
        workers,
        |_, &index| {
            let start = index * chunk;
            let len = chunk.min(spec.samples - start);
            let span = trace.map(|t| t.span("fleet_chunk"));
            let t_chunk = Instant::now();
            let acc = eval.run_chunk(spec.seed, index, len, &cancel);
            chunk_hist.record(t_chunk.elapsed());
            drop(span);
            acc
        },
        |slot, outcome| {
            if let JobOutcome::Completed(Some(acc)) = outcome {
                if let (Some(w), None) = (writer.as_mut(), write_err.as_ref()) {
                    if let Err(e) = w.record(todo[slot], acc) {
                        write_err = Some(e);
                    }
                }
            }
        },
        |slot, outcome| {
            let index = todo[slot];
            if fold_err.is_none() {
                fold_err = fold_resumed(&mut total, &mut resumed, index)
                    .and_then(|()| match outcome.into_result() {
                        Ok(Some(acc)) => total.merge(&acc),
                        Ok(None) => Err(FleetError::Cancelled),
                        Err(reason) => Err(FleetError::Internal(format!(
                            "chunk {index} did not complete: {reason}"
                        ))),
                    })
                    .err();
            }
        },
    );
    let execute_secs = started.elapsed().as_secs_f64();
    if let Some(e) = write_err.or(fold_err) {
        return Err(e);
    }
    if cancel.is_cancelled() {
        return Err(FleetError::Cancelled);
    }

    let merge_span = trace.map(|t| t.span("fleet_merge"));
    fold_resumed(&mut total, &mut resumed, total_chunks)?;
    if total.samples != spec.samples as u64 {
        return Err(FleetError::Internal(format!(
            "merged {} samples, expected {}",
            total.samples, spec.samples
        )));
    }
    drop(merge_span);

    let summary = eval.summarize(spec, &total);
    let metrics = FleetMetrics {
        total_chunks: total_chunks as u64,
        executed_chunks: todo.len() as u64,
        resumed_chunks: resumed_chunks as u64,
        salvaged_skips: salvaged_skips as u64,
        workers: workers as u64,
        samples: total.samples,
        execute_secs,
        chunk_seconds: chunk_hist.snapshot(),
    };
    Ok(FleetOutcome { summary, metrics })
}

/// Merges, in index order, every resumed chunk below `upto` into `total`
/// and drops it.
fn fold_resumed(
    total: &mut ChunkAccum,
    resumed: &mut BTreeMap<usize, ChunkAccum>,
    upto: usize,
) -> Result<(), FleetError> {
    while let Some(entry) = resumed.first_entry() {
        if *entry.key() >= upto {
            break;
        }
        total.merge(&entry.remove())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(samples: usize) -> FleetSpec {
        let mut spec = FleetSpec::paper_defaults().expect("defaults build");
        spec.samples = samples;
        spec
    }

    #[test]
    fn prepare_refuses_a_fleet_whose_worst_drawable_device_tops_the_histogram() {
        // No V_th spread and a rate draw fully correlated with it: every
        // device is the nominal one, a few percent at the defaults' times.
        let mut spec = small_spec(100);
        spec.dist = VthDistribution::new(Volts(0.22), Volts(0.0)).expect("no spread");
        spec.rate_sigma = 2.0;
        spec.correlation = 1.0;
        let out = run_fleet(&spec, &FleetOptions::default()).expect("every device is nominal");
        assert!(out.summary.points.iter().all(|p| p.p99 < 0.1), "{out:?}");
        // An independent rate draw can reach e^7 times the nominal shift.
        spec.correlation = 0.0;
        let refused = FleetEvaluator::prepare(&spec).err();
        assert!(matches!(refused, Some(FleetError::Model(_))), "{refused:?}");
    }

    #[test]
    fn summary_is_sane_on_defaults() {
        let spec = small_spec(800);
        let out = run_fleet(&spec, &FleetOptions::default()).expect("run");
        assert_eq!(out.summary.samples, 800);
        assert_eq!(out.summary.points.len(), 3);
        for p in &out.summary.points {
            assert!(p.mean > 0.0 && p.mean < 0.5, "mean {}", p.mean);
            assert!(p.std_dev >= 0.0);
            assert!(p.p50 <= p.p90 && p.p90 <= p.p99, "percentiles not ordered");
            assert!((0.0..=1.0).contains(&p.yield_fraction));
        }
        // Degradation grows with time, yield shrinks.
        let means: Vec<f64> = out.summary.points.iter().map(|p| p.mean).collect();
        assert!(means.windows(2).all(|w| w[0] <= w[1]));
        let yields: Vec<f64> = out
            .summary
            .points
            .iter()
            .map(|p| p.yield_fraction)
            .collect();
        assert!(yields.windows(2).all(|w| w[0] >= w[1]));
        // Lifetime percentiles are finite, positive, ordered.
        let l = &out.summary.lifetime;
        assert!(l.p01.is_finite() && l.p01 > 0.0);
        assert!(l.p01 <= l.p10 && l.p10 <= l.p50);
    }

    #[test]
    fn hoisted_samples_match_scalar_model_exactly() {
        // One device drawn by the evaluator must equal the scalar
        // delta_vth_with_vth0 path (times the rate multiplier) to the bit.
        let mut spec = small_spec(1);
        spec.rate_sigma = 0.0;
        let eval = FleetEvaluator::prepare(&spec).expect("prepare");
        let model = NbtiModel::ptm90().expect("model");
        let schedule = spec.schedule().expect("schedule");
        let stress = spec.stress().expect("stress");

        let mut rng = SplitMix64::stream(spec.seed, 0);
        for _ in 0..200 {
            let u1 = rng.next_f64();
            let u2 = rng.next_f64();
            let vth0 = spec.dist.sample_box_muller(u1, u2).0;
            for (h, &t) in eval.hoisted.iter().zip(&spec.times) {
                let scalar = model
                    .delta_vth_with_vth0(t, &schedule, &stress, Volts(vth0))
                    .expect("scalar eval");
                assert_eq!(h.delta_vth_at(vth0).to_bits(), scalar.to_bits());
            }
        }
    }

    #[test]
    fn chunk_size_is_part_of_the_contract_but_workers_are_not() {
        let spec = small_spec(700);
        let base = run_fleet(
            &spec,
            &FleetOptions {
                workers: 1,
                chunk: 128,
                ..FleetOptions::default()
            },
        )
        .expect("run");
        let wide = run_fleet(
            &spec,
            &FleetOptions {
                workers: 7,
                chunk: 128,
                ..FleetOptions::default()
            },
        )
        .expect("run");
        assert_eq!(base.summary, wide.summary);
    }

    #[test]
    fn trace_attributes_hoist_chunks_and_merge() {
        let spec = small_spec(700);
        let tracer = Arc::new(Tracer::new(64));
        let out = run_fleet(
            &spec,
            &FleetOptions {
                workers: 2,
                chunk: 128,
                trace: Some(Arc::clone(&tracer)),
                ..FleetOptions::default()
            },
        )
        .expect("run");
        let spans = tracer.recent();
        let count = |n: &str| spans.iter().filter(|s| s.name == n).count();
        assert_eq!(count("fleet_hoist"), 1);
        assert_eq!(count("fleet_chunk"), 6, "ceil(700/128) chunks");
        assert_eq!(count("fleet_merge"), 1);
        assert_eq!(out.metrics.chunk_seconds.count, 6);
        let text = out.metrics.to_string();
        assert!(text.contains("chunk latency: p50 "), "{text}");
    }

    #[test]
    fn cancelled_token_aborts_the_run() {
        let spec = small_spec(5_000);
        let token = CancelToken::new();
        token.cancel();
        let err = run_fleet(
            &spec,
            &FleetOptions {
                cancel: Some(token),
                ..FleetOptions::default()
            },
        )
        .expect_err("must cancel");
        assert!(matches!(err, FleetError::Cancelled));
    }

    #[test]
    fn correlation_knob_shifts_the_spread() {
        // With a strong negative correlation, low-Vth (fast, high-overdrive)
        // devices draw larger rate multipliers, widening the degradation
        // spread versus the uncorrelated case.
        let mut anti = small_spec(4_000);
        anti.correlation = -0.9;
        anti.rate_sigma = 0.25;
        let mut uncorr = anti.clone();
        uncorr.correlation = 0.0;
        let a = run_fleet(&anti, &FleetOptions::default()).expect("run");
        let u = run_fleet(&uncorr, &FleetOptions::default()).expect("run");
        let last = a.summary.points.len() - 1;
        assert!(
            a.summary.points[last].std_dev > u.summary.points[last].std_dev,
            "anti-correlated spread {} should exceed uncorrelated {}",
            a.summary.points[last].std_dev,
            u.summary.points[last].std_dev
        );
    }
}
