#![forbid(unsafe_code)]
//! `bench_layers` — the per-layer half of the relia benchmark. Feeds the
//! seeded inputs of one `bench_e2e` workload through each library layer's
//! public functions in-process, with a timer around every call, and prints
//! one `layer <name> <value>` line per metric (units in
//! `bench_e2e::stats::PER_LAYER`). `bench_e2e --trace 1` runs it; by hand:
//!
//! ```text
//! bench_layers --workload serve-cold --seed 1 --tmp /path/to/scratch
//! ```
//!
//! It also re-derives the memo-key answers `bench_e2e` checks the server
//! against from the library, and exits 1 if any differs.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench_e2e::inputs::{
    self, DegradePoint, Rng, Workload, MEMO_GOLDENS, MEMO_KEYS, SWEEP_CIRCUITS,
};
use bench_e2e::stats::{self, PER_LAYER};
use relia::core::{
    CancelToken, Deadline, DelayDegradation, EquivalentCycle, Kelvin, ModeSchedule, NbtiModel,
    NbtiParams, PmosStress, Ras, Seconds, StressKey,
};
use relia::fleet::checkpoint::CheckpointWriter;
use relia::fleet::{run_fleet, FleetEvaluator, FleetOptions, FleetSpec};
use relia::flow::{AgingAnalysis, DeltaVthCache, FlowConfig, NoCache, StandbyPolicy};
use relia::jobs::{
    builtin_resolver, run_sweep, PolicySpec, ShardedCache, SweepOptions, SweepSpec, SWEEP_PERIOD_S,
    SWEEP_TEMP_ACTIVE_K,
};
use relia::obs::Tracer;
use relia::serve::{
    degrade_body, handle, parse_degrade, read_request, write_response, Limits, Request, Response,
};
use relia::surface::{BuildSpec, Surface, SurfaceQuery};

/// Degrade inputs drawn per workload.
const POINTS: usize = 4096;
/// Timing rounds per probe; the median round is reported.
const ROUNDS: usize = 5;
/// Target length of one timing round.
const ROUND: Duration = Duration::from_millis(30);

/// Median nanoseconds per call of `f(i)`, `i` cycling over `0..len`.
fn per_call_ns(len: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut calls = 8usize;
    let mut next = 0usize;
    let mut run = |calls: usize| {
        let start = Instant::now();
        for _ in 0..calls {
            f(next % len);
            next += 1;
        }
        start.elapsed()
    };
    // Calibrate so that one round lasts about ROUND.
    loop {
        let spent = run(calls);
        if spent >= ROUND / 8 || calls >= 1 << 26 {
            calls = ((calls as f64) * ROUND.as_secs_f64() / spent.as_secs_f64().max(1e-9)).ceil()
                as usize;
            break;
        }
        calls *= 8;
    }
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| run(calls).as_nanos() as f64 / calls as f64)
        .collect();
    stats::median(&mut rounds).unwrap_or(0.0)
}

/// Median wall time of `reps` calls of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&mut times).unwrap_or(0.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    tmp: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut tmp) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse().ok(),
            "--tmp" => tmp = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload
            .ok_or("--workload serve-warm|serve-cold|fleet-cli|circuit-sweep is required")?,
        seed: seed.ok_or("--seed N is required")?,
        tmp: tmp.ok_or("--tmp DIR is required")?,
    })
}

/// Collected `layer` rows, printed in `PER_LAYER` order at the end.
#[derive(Default)]
struct Rows(Vec<(&'static str, f64)>);

impl Rows {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }
}

/// The workload's degrade queries: the serve-warm mix (surface points and
/// memo keys alternating) or fresh serve-cold keys for every other
/// workload.
fn degrade_points(workload: Workload, seed: u64) -> Vec<DegradePoint> {
    let mut rng = Rng::new(workload, seed, 0);
    (0..POINTS)
        .map(|i| match workload {
            Workload::ServeWarm if i % 2 == 0 => inputs::surface_point(&mut rng),
            Workload::ServeWarm => inputs::memo_point(i / 2 % MEMO_KEYS),
            _ => inputs::cold_point(&mut rng),
        })
        .collect()
}

fn request_bytes(point: &DegradePoint, target: &str) -> Vec<u8> {
    let body = point.body();
    format!(
        "POST {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn schedule_of(ras: (f64, f64), t_standby: Kelvin) -> Result<ModeSchedule, String> {
    let ras = Ras::new(ras.0, ras.1).map_err(|e| e.to_string())?;
    ModeSchedule::new(
        ras,
        Seconds(SWEEP_PERIOD_S),
        Kelvin(SWEEP_TEMP_ACTIVE_K),
        t_standby,
    )
    .map_err(|e| e.to_string())
}

/// The memo-key answers `bench_e2e` holds the server to, re-derived from
/// the library with no cache in the loop.
fn check_memo_goldens(model: &NbtiModel, degradation: &DelayDegradation) -> Result<(), String> {
    for (k, golden) in MEMO_GOLDENS.iter().enumerate() {
        let query = parse_degrade(inputs::memo_point(k).body().as_bytes())
            .map_err(|r| String::from_utf8_lossy(&r.body).into_owned())?;
        let dvth = NoCache
            .delta_vth(query.stress_key()?, model)
            .map_err(|e| e.to_string())?;
        let body = degrade_body(dvth, degradation.linear(dvth).map_err(|e| e.to_string())?);
        if body != *golden {
            return Err(format!(
                "memo key {k}: library gives {body}, bench_e2e expects {golden}"
            ));
        }
    }
    Ok(())
}

/// http, json, service, cache and core: the per-request path of
/// `/v1/degrade`, one function at a time.
fn request_path(
    rows: &mut Rows,
    workload: Workload,
    seed: u64,
    surface: &Surface,
) -> Result<(), String> {
    let model = NbtiModel::ptm90().map_err(|e| e.to_string())?;
    let params = NbtiParams::ptm90().map_err(|e| e.to_string())?;
    let degradation = DelayDegradation::new(&params);
    check_memo_goldens(&model, &degradation)?;

    let points = degrade_points(workload, seed);
    let bodies: Vec<String> = points.iter().map(DegradePoint::body).collect();
    let wires: Vec<Vec<u8>> = points
        .iter()
        .map(|p| request_bytes(p, "/v1/degrade"))
        .collect();
    let limits = Limits::default();
    rows.put(
        "http.read_request_ns",
        per_call_ns(wires.len(), |i| {
            black_box(read_request(&mut &wires[i][..], &limits).is_ok());
        }),
    );
    rows.put(
        "json.parse_degrade_ns",
        per_call_ns(bodies.len(), |i| {
            black_box(parse_degrade(bodies[i].as_bytes()).is_ok());
        }),
    );
    let queries = bodies
        .iter()
        .map(|b| {
            parse_degrade(b.as_bytes()).map_err(|r| String::from_utf8_lossy(&r.body).into_owned())
        })
        .collect::<Result<Vec<_>, _>>()?;
    rows.put(
        "service.stress_key_ns",
        per_call_ns(queries.len(), |i| {
            black_box(queries[i].stress_key().is_ok());
        }),
    );
    let keys = queries
        .iter()
        .map(|q| q.stress_key())
        .collect::<Result<Vec<StressKey>, _>>()?;
    let mut stressed = Vec::with_capacity(points.len());
    for q in &queries {
        let schedule = schedule_of(q.ras, q.t_standby_k)?;
        let stress = PmosStress::new(q.p_active, q.p_standby).map_err(|e| e.to_string())?;
        stressed.push((schedule, stress, Seconds(q.lifetime_s)));
    }
    rows.put(
        "core.equivalent_cycle_ns",
        per_call_ns(stressed.len(), |i| {
            let (schedule, stress, _) = &stressed[i];
            black_box(EquivalentCycle::build(model.params(), schedule, stress).is_ok());
        }),
    );
    let mut cycles = Vec::with_capacity(stressed.len());
    for (schedule, stress, lifetime) in &stressed {
        let eq =
            EquivalentCycle::build(model.params(), schedule, stress).map_err(|e| e.to_string())?;
        let n = ((lifetime.0 / schedule.period().0).floor() as u64).max(1);
        cycles.push((eq.stress, n));
    }
    rows.put(
        "core.ac_recursion_ns",
        per_call_ns(cycles.len(), |i| {
            black_box(cycles[i].0.trap_factor(black_box(cycles[i].1)));
        }),
    );
    rows.put(
        "core.kv_ns",
        per_call_ns(stressed.len(), |i| {
            black_box(model.kv(black_box(stressed[i].0.temp_active())));
        }),
    );
    rows.put(
        "core.delta_vth_ns",
        per_call_ns(keys.len(), |i| {
            black_box(keys[i].evaluate(&model).is_ok());
        }),
    );
    let dvth = keys
        .iter()
        .map(|k| k.evaluate(&model))
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| e.to_string())?;
    rows.put(
        "core.delay_linear_ns",
        per_call_ns(dvth.len(), |i| {
            black_box(degradation.linear(black_box(dvth[i])).is_ok());
        }),
    );
    let fracs = dvth
        .iter()
        .map(|&v| degradation.linear(v))
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| e.to_string())?;
    rows.put(
        "json.degrade_body_ns",
        per_call_ns(dvth.len(), |i| {
            black_box(degrade_body(dvth[i], fracs[i]));
        }),
    );
    let responses: Vec<Response> = (0..dvth.len())
        .map(|i| Response::json(200, degrade_body(dvth[i], fracs[i])))
        .collect();
    let mut out = Vec::with_capacity(512);
    rows.put(
        "http.write_response_ns",
        per_call_ns(responses.len(), |i| {
            out.clear();
            black_box(write_response(&mut out, &responses[i]).is_ok());
        }),
    );
    rows.put(
        "core.hoist_ns",
        per_call_ns(stressed.len(), |i| {
            let (schedule, stress, lifetime) = &stressed[i];
            black_box(model.hoist(*lifetime, schedule, stress).is_ok());
        }),
    );
    let (schedule, stress, lifetime) = &stressed[0];
    let hoisted = model
        .hoist(*lifetime, schedule, stress)
        .map_err(|e| e.to_string())?;
    let vth0: Vec<f64> = (0..POINTS)
        .map(|i| 0.19 + 0.06 * i as f64 / POINTS as f64)
        .collect();
    rows.put(
        "core.delta_vth_at_ns",
        per_call_ns(vth0.len(), |i| {
            black_box(hoisted.delta_vth_at(black_box(vth0[i])));
        }),
    );

    // Memo cache: a hit, and a miss that must evict at the 65,536 cap.
    let cache = ShardedCache::default();
    for (k, v) in keys.iter().zip(&dvth) {
        cache.insert_checked(*k, *v).map_err(|e| e.to_string())?;
    }
    rows.put(
        "cache.peek_ns",
        per_call_ns(keys.len(), |i| {
            black_box(cache.peek(&keys[i]));
        }),
    );
    let mut fresh_rng = Rng::new(Workload::ServeCold, seed ^ 0xcac4e, 1);
    let mut fresh_key = || inputs::cold_point(&mut fresh_rng).body();
    let full = ShardedCache::default();
    let mut fill = Vec::with_capacity(full.capacity() + 4 * POINTS);
    for _ in 0..full.capacity() + 4 * POINTS {
        let query = parse_degrade(fresh_key().as_bytes())
            .map_err(|r| String::from_utf8_lossy(&r.body).into_owned())?;
        fill.push(query.stress_key()?);
    }
    let (prefill, inserts) = fill.split_at(full.capacity());
    for k in prefill {
        full.insert_checked(*k, 0.02).map_err(|e| e.to_string())?;
    }
    let mut next_insert = 0;
    let mut insert_rounds: Vec<f64> = (0..4)
        .map(|_| {
            let start = Instant::now();
            for k in &inserts[next_insert..next_insert + POINTS] {
                black_box(full.insert_checked(*k, 0.02).is_ok());
            }
            next_insert += POINTS;
            start.elapsed().as_nanos() as f64 / POINTS as f64
        })
        .collect();
    rows.put(
        "cache.miss_insert_ns",
        stats::median(&mut insert_rounds).unwrap_or(0.0),
    );

    // The whole handler: warm answers (surface hits and memo hits) for
    // serve-warm, a fresh evaluation per call for the cold mix.
    let state = relia::serve::ServeState::new(Duration::from_secs(60))?;
    let state = if workload == Workload::ServeWarm {
        state.with_surface(surface.clone())
    } else {
        state
    };
    let requests = wires
        .iter()
        .map(|w| read_request(&mut &w[..], &limits).map_err(|e| e.to_string()))
        .collect::<Result<Vec<Request>, _>>()?;
    let deadline = Deadline::new(
        CancelToken::new(),
        Instant::now() + Duration::from_secs(3600),
    );
    let handle_ns = if workload == Workload::ServeWarm {
        for r in &requests {
            handle(&state, r, &deadline);
        }
        per_call_ns(requests.len(), |i| {
            black_box(handle(&state, &requests[i], &deadline).0.status);
        })
    } else {
        // Every call a key the cache has never seen.
        let per_round = POINTS / ROUNDS;
        let mut fresh = requests.chunks_exact(per_round);
        median_ns(ROUNDS, || {
            for r in fresh.next().unwrap_or_default() {
                black_box(handle(&state, r, &deadline).0.status);
            }
        }) / per_round as f64
    };
    rows.put("service.handle_ns", handle_ns);
    Ok(())
}

/// Builds the paper-default surface on two workers (as `relia surface
/// build --workers 2` does), then times loading and lookups.
fn surface_layer(rows: &mut Rows, seed: u64, tmp: &Path) -> Result<Surface, String> {
    let model = NbtiModel::ptm90().map_err(|e| e.to_string())?;
    let spec = BuildSpec {
        workers: 2,
        ..BuildSpec::paper_defaults()
    };
    let start = Instant::now();
    let artifact = relia::surface::build(&model, &spec).map_err(|e| e.to_string())?;
    rows.put("surface.build_s", start.elapsed().as_secs_f64());
    let path = tmp.join("layers-surface.rls");
    artifact.write(&path).map_err(|e| e.to_string())?;
    let mut loaded = None;
    let load_ns = median_ns(ROUNDS, || loaded = Some(Surface::load(&path)));
    rows.put("surface.load_ms", load_ns / 1e6);
    let surface = loaded
        .ok_or("surface never loaded")?
        .map_err(|e| e.to_string())?;
    let mut rng = Rng::new(Workload::ServeWarm, seed, 7);
    let queries: Vec<SurfaceQuery> = (0..POINTS)
        .map(|_| {
            let p = inputs::surface_point(&mut rng);
            SurfaceQuery {
                t_active_k: Kelvin(SWEEP_TEMP_ACTIVE_K),
                t_standby_k: Kelvin(p.t_standby_k()),
                ras_fraction: p.ras.0 / (p.ras.0 + p.ras.1),
                lifetime_s: p.lifetime_s,
                p_active: p.p_active,
                p_standby: p.p_standby,
            }
        })
        .collect();
    rows.put(
        "surface.lookup_ns",
        per_call_ns(queries.len(), |i| {
            black_box(surface.lookup(&queries[i]));
        }),
    );
    Ok(surface)
}

/// One `fleet-cli` run in-process with a span ring, plus the checkpoint
/// writer on its own.
fn fleet_layer(rows: &mut Rows, seed: u64, tmp: &Path) -> Result<(), String> {
    let mut spec = FleetSpec::paper_defaults().map_err(|e| e.to_string())?;
    spec.samples = inputs::FLEET_CLI_SAMPLES as usize;
    spec.seed = inputs::fleet_seeds(seed)[0];
    let tracer = Arc::new(Tracer::new(65_536));
    let checkpoint = tmp.join("layers-fleet.ckpt");
    let _ = std::fs::remove_file(&checkpoint);
    let opts = FleetOptions {
        workers: 2,
        checkpoint: Some(checkpoint.clone()),
        trace: Some(Arc::clone(&tracer)),
        ..FleetOptions::default()
    };
    let start = Instant::now();
    let outcome = run_fleet(&spec, &opts).map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let span_s = |name: &str| -> f64 {
        tracer
            .recent()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e9)
            .sum()
    };
    let (hoist, chunks, merge) = (
        span_s("fleet_hoist"),
        span_s("fleet_chunk"),
        span_s("fleet_merge"),
    );
    let execute = outcome.metrics.execute_secs;
    rows.put("fleet.hoist_us", hoist * 1e6);
    rows.put(
        "fleet.chunk_ns_per_sample",
        chunks * 1e9 / spec.samples as f64,
    );
    rows.put("fleet.merge_us", merge * 1e6);
    // Speed-up of the second worker: 1.0 when two workers halve the
    // sampling time, 0.5 when they do not shorten it at all.
    let _ = std::fs::remove_file(&checkpoint);
    let one_worker = FleetOptions {
        workers: 1,
        checkpoint: Some(checkpoint.clone()),
        ..FleetOptions::default()
    };
    let serial = run_fleet(&spec, &one_worker).map_err(|e| e.to_string())?;
    rows.put(
        "fleet.parallel_efficiency",
        serial.metrics.execute_secs / (2.0 * execute),
    );
    rows.put(
        "fleet.residual_ms",
        (wall_s - hoist - execute - merge) * 1e3,
    );

    let eval = FleetEvaluator::prepare(&spec).map_err(|e| e.to_string())?;
    let acc = eval
        .run_chunk(
            spec.seed,
            0,
            relia::fleet::DEFAULT_CHUNK,
            &CancelToken::new(),
        )
        .ok_or("chunk cancelled")?;
    let mut writer =
        CheckpointWriter::create(&checkpoint, spec.fingerprint(relia::fleet::DEFAULT_CHUNK))
            .map_err(|e| e.to_string())?;
    let records = outcome.metrics.total_chunks as usize;
    let start = Instant::now();
    for index in 0..records {
        writer.record(index, &acc).map_err(|e| e.to_string())?;
    }
    rows.put(
        "fleet.checkpoint_us_per_chunk",
        start.elapsed().as_secs_f64() * 1e6 / records as f64,
    );
    let _ = std::fs::remove_file(&checkpoint);
    Ok(())
}

/// The circuit flow layer by layer on each `circuit-sweep` circuit, then a
/// whole 32-job sweep through the jobs engine; means over the circuits.
fn circuit_layers(rows: &mut Rows, seed: u64, tmp: &Path) -> Result<(), String> {
    let mut sums = [0.0f64; 10];
    let (mut hits, mut lookups) = (0u64, 0u64);
    for (index, name) in SWEEP_CIRCUITS.iter().enumerate() {
        let circuit = builtin_resolver(name)?;
        let resolve = median_ns(3, || {
            black_box(builtin_resolver(name).is_ok());
        });
        let [v1, v2] = inputs::standby_vectors(seed, index, circuit.primary_inputs().len());
        let bits = |v: &str| -> Vec<bool> { v.bytes().map(|b| b == b'1').collect() };
        let vector = bits(&v1);
        let ras = Ras::new(1.0, 9.0).map_err(|e| e.to_string())?;
        let mut config =
            FlowConfig::with_schedule(ras, Kelvin(330.0)).map_err(|e| e.to_string())?;
        config.lifetime = Seconds::from_years(1.0);
        let prep = median_ns(3, || {
            black_box(AgingAnalysis::prep(&config, &circuit).is_ok());
        });
        let analysis = AgingAnalysis::new(&config, &circuit).map_err(|e| e.to_string())?;
        let policy = StandbyPolicy::InputVector(vector.clone());
        let sim = per_call_ns(1, |_| {
            black_box(relia::sim::logic::simulate(&circuit, &vector).is_ok());
        });
        let gate_dvth = median_ns(3, || {
            black_box(
                analysis
                    .gate_delta_vth_at_cached(&policy, config.lifetime, &ShardedCache::default())
                    .is_ok(),
            );
        });
        let dvth = analysis
            .gate_delta_vth_at_cached(&policy, config.lifetime, &ShardedCache::default())
            .map_err(|e| e.to_string())?;
        let sta_nominal = per_call_ns(1, |_| {
            black_box(relia::sta::TimingAnalysis::nominal(&circuit));
        });
        let sta_degraded = per_call_ns(1, |_| {
            black_box(
                relia::sta::TimingAnalysis::degraded(&circuit, &dvth, config.nbti.params()).is_ok(),
            );
        });
        let leakage = per_call_ns(1, |_| {
            black_box(
                relia::leakage::circuit_leakage(&circuit, &vector, analysis.leakage_table())
                    .is_ok(),
            );
        });

        let spec = SweepSpec {
            workload: relia::jobs::Workload::CircuitAging {
                circuits: vec![(*name).to_owned()],
                policies: ["worst", "best", &v1, &v2]
                    .iter()
                    .map(|p| PolicySpec::parse(p))
                    .collect::<Result<_, _>>()?,
            },
            ras: vec![(1.0, 5.0), (1.0, 9.0)],
            t_standby: vec![Kelvin(330.0), Kelvin(400.0)],
            lifetimes: vec![Seconds::from_years(1.0), Seconds::from_years(10.0)],
        };
        let checkpoint = tmp.join("layers-sweep.jsonl");
        let _ = std::fs::remove_file(&checkpoint);
        let options = SweepOptions {
            workers: 2,
            checkpoint: Some(checkpoint.clone()),
            ..SweepOptions::default()
        };
        let start = Instant::now();
        let outcome = run_sweep(&spec, &options, builtin_resolver).map_err(|e| e.to_string())?;
        let wall_s = start.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&checkpoint);
        let m = &outcome.metrics;
        if m.executed_jobs as u64 != inputs::SWEEP_JOBS || m.failed_jobs != 0 {
            return Err(format!(
                "{name}: sweep ran {} jobs, {} failed",
                m.executed_jobs, m.failed_jobs
            ));
        }
        hits += m.cache.hits;
        lookups += m.cache.hits + m.cache.misses;
        let row = [
            resolve / 1e6,
            prep / 1e6,
            gate_dvth / 1e6,
            sim / 1e3,
            sta_nominal / 1e6,
            sta_degraded / 1e6,
            leakage / 1e3,
            m.prepare_secs * 1e3,
            m.execute_secs * 1e3,
            (wall_s - m.prepare_secs - m.execute_secs) * 1e3,
        ];
        for (sum, v) in sums.iter_mut().zip(row) {
            *sum += v;
        }
    }
    let n = SWEEP_CIRCUITS.len() as f64;
    let names = [
        "netlist.resolve_ms",
        "flow.prep_ms",
        "flow.gate_dvth_ms",
        "sim.logic_us",
        "sta.nominal_ms",
        "sta.degraded_ms",
        "leakage.circuit_us",
        "jobs.prepare_ms",
        "jobs.execute_ms",
        "jobs.residual_ms",
    ];
    for (name, sum) in names.iter().zip(sums) {
        rows.put(name, sum / n);
    }
    rows.put("cache.hit_ratio", hits as f64 / lookups.max(1) as f64);
    Ok(())
}

fn run(args: &Args) -> Result<Rows, String> {
    let mut rows = Rows::default();
    let surface = surface_layer(&mut rows, args.seed, &args.tmp)?;
    request_path(&mut rows, args.workload, args.seed, &surface)?;
    fleet_layer(&mut rows, args.seed, &args.tmp)?;
    circuit_layers(&mut rows, args.seed, &args.tmp)?;
    Ok(rows)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_layers: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(rows) => {
            for def in PER_LAYER {
                if let Some((name, value)) = rows.0.iter().find(|(n, _)| *n == def.name) {
                    println!("layer {name} {value}");
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_layers: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_goldens_match_the_library() {
        let model = NbtiModel::ptm90().unwrap();
        let degradation = DelayDegradation::new(&NbtiParams::ptm90().unwrap());
        check_memo_goldens(&model, &degradation).unwrap();
    }

    #[test]
    fn every_row_is_a_declared_per_layer_metric() {
        let declared = |name: &str| PER_LAYER.iter().any(|d| d.name == name);
        let fleet = [
            "fleet.hoist_us",
            "fleet.chunk_ns_per_sample",
            "fleet.merge_us",
            "fleet.parallel_efficiency",
            "fleet.residual_ms",
            "fleet.checkpoint_us_per_chunk",
        ];
        assert!(fleet.iter().all(|n| declared(n)));
        let points = degrade_points(Workload::ServeWarm, 3);
        assert_eq!(points.len(), POINTS);
        assert_eq!(points[1], inputs::memo_point(0));
        let wire = request_bytes(&points[0], "/v1/degrade");
        let request = read_request(&mut &wire[..], &Limits::default()).unwrap();
        assert!(parse_degrade(&request.body).is_ok());
    }
}
