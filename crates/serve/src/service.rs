//! The service layer: request routing, wire schemas, and the degradation
//! handlers — everything between a parsed [`Request`] and a [`Response`]
//! or an admitted fleet study, with no sockets in sight (so tests drive it
//! directly). [`route`] lists the endpoints.
//!
//! ## Parity with the batch engine
//!
//! `/v1/degrade` evaluates through the *same* canonical path as the sweep
//! engine's model workload: one [`relia_flow::paper_stress_key`] (the
//! paper's baseline schedule, [`StressKey::quantize`]), then the shared
//! memo cache.
//! A value served over HTTP is bit-equal to the one a batch sweep or a
//! direct library call produces; responses render floats with the
//! shortest-round-trip convention so the bytes match too.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use relia_core::ac::LANES;
use relia_core::json::{self, fmt_f64, Json};
use relia_core::{
    Deadline, Kelvin, NbtiModel, NbtiParams, Ras, Seconds, StressKey, Volts, VthDistribution,
};
use relia_fleet::{ChunkAccum, FleetError, FleetEvaluator, FleetSpec, FleetSummary, DEFAULT_CHUNK};
use relia_flow::{
    paper_stress_key, AgingAnalysis, AgingReport, AnalysisPrep, DeltaVthCache, FlowConfig,
    FlowError,
};
use relia_jobs::{
    builtin_resolver, MetricsSnapshot, PolicySpec, ShardedCache, SweepSpec, Workload,
    SWEEP_TEMP_ACTIVE_K,
};
use relia_netlist::Circuit;
use relia_surface::{Surface, SurfaceQuery};

use crate::coalesce::SingleFlight;
use crate::http::{write_chunk, write_chunked_end, write_chunked_head, Request, Response};
use crate::metrics::{render_prometheus, ServeMetrics};
use crate::obs::ServeObs;
use crate::overload::{HealthMachine, HealthState, OverloadControl};

/// Largest grid `/v1/sweep` accepts inline; bigger grids belong to the
/// batch engine (`relia sweep`), and get a 413 telling the caller so.
pub const MAX_SWEEP_POINTS: usize = 256;

/// Largest Monte Carlo fleet `/v1/fleet` accepts inline; bigger studies
/// belong to the batch engine (`relia fleet`), and get a 413.
pub const MAX_FLEET_SAMPLES: usize = 100_000;

/// Most evaluation times one `/v1/fleet` request may carry.
pub const MAX_FLEET_TIMES: usize = 16;

/// How one model evaluation is produced. The production implementation is
/// [`CachedEval`] (shared memo cache); tests inject gated/counting
/// implementations to observe coalescing deterministically.
pub trait ModelEval: Send + Sync {
    /// ΔV_th in volts for the canonical point of `key`.
    ///
    /// # Errors
    ///
    /// A human-readable reason; the service maps it to HTTP 500.
    fn delta_vth(&self, key: StressKey) -> Result<f64, String>;

    /// [`ModelEval::delta_vth`] for every key of `keys`, in order. The
    /// default asks once per key; [`CachedEval`] evaluates a batch's
    /// distinct cache misses together.
    fn delta_vth_many(&self, keys: &[StressKey]) -> Vec<Result<f64, String>> {
        keys.iter().map(|&key| self.delta_vth(key)).collect()
    }
}

/// The production evaluator: the process-wide sharded memo cache in front
/// of the NBTI model.
pub struct CachedEval {
    cache: Arc<ShardedCache>,
    model: NbtiModel,
}

impl ModelEval for CachedEval {
    fn delta_vth(&self, key: StressKey) -> Result<f64, String> {
        self.cache
            .delta_vth(key, &self.model)
            .map_err(|e| e.to_string())
    }

    fn delta_vth_many(&self, keys: &[StressKey]) -> Vec<Result<f64, String>> {
        self.cache
            .delta_vth_many(keys, &self.model)
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect()
    }
}

/// The precomputed response surface mounted under `/v1/degrade`, plus its
/// serving ledger. In-domain lookups with a known stress pair answer by
/// interpolation (a *hit*); everything the surface declines — an unknown
/// pair, an out-of-domain *clamp* — is a *miss* and falls back to exact
/// evaluation; *fallbacks* counts every request that took the exact path
/// while the surface was mounted (misses plus explicit `?mode=exact`), so
/// `clamps ≤ misses ≤ fallbacks` always holds.
pub struct SurfaceTier {
    surface: Surface,
    hits: AtomicU64,
    misses: AtomicU64,
    fallbacks: AtomicU64,
    clamps: AtomicU64,
}

impl SurfaceTier {
    /// Mounts a bound-checked surface with a zeroed ledger.
    pub fn new(surface: Surface) -> Self {
        SurfaceTier {
            surface,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            clamps: AtomicU64::new(0),
        }
    }

    /// The mounted surface.
    pub fn surface(&self) -> &Surface {
        &self.surface
    }

    /// Lookups answered by interpolation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups the surface declined (unknown pair or out-of-domain clamp).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Degrade requests that took the exact path while the surface was
    /// mounted: every miss, plus explicit `?mode=exact` requests.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// The out-of-domain subset of misses (clamped interpolations are
    /// never served; the documented error bound holds only in-domain).
    pub fn clamps(&self) -> u64 {
        self.clamps.load(Ordering::Relaxed)
    }
}

/// Everything the handlers share: evaluator, memo cache, single-flight
/// gate, prepared circuits, counters, and limits.
pub struct ServeState {
    /// The server-wide ΔV_th memo table that `/v1/degrade` and `/v1/sweep`
    /// share (`relia sweep` owns a private one).
    pub cache: Arc<ShardedCache>,
    /// Service counters.
    pub metrics: ServeMetrics,
    /// The in-flight gauge and the brownout gate that watches it.
    pub overload: OverloadControl,
    /// The `Healthy → Degraded → Draining` machine behind `/healthz`.
    pub health: HealthMachine,
    /// Span ring, phase latency histograms, and the slow-request log.
    pub obs: ServeObs,
    surface: Option<SurfaceTier>,
    eval: Arc<dyn ModelEval>,
    flight: SingleFlight<StressKey, Result<f64, String>>,
    degradation: relia_core::DelayDegradation,
    preps: Mutex<HashMap<String, Arc<(Circuit, AnalysisPrep)>>>,
    base_config: FlowConfig,
    request_timeout: Duration,
    draining: AtomicBool,
}

impl ServeState {
    /// Production state: built-in PTM 90 nm calibration, a fresh shared
    /// cache, `request_timeout` as every request's timeout (see
    /// [`ServeState::request_timeout`]).
    ///
    /// # Errors
    ///
    /// Only if the built-in calibration fails to validate (it cannot).
    pub fn new(request_timeout: Duration) -> Result<Self, String> {
        let cache = Arc::new(ShardedCache::default());
        let model = NbtiModel::ptm90().map_err(|e| e.to_string())?;
        let eval = Arc::new(CachedEval {
            cache: Arc::clone(&cache),
            model,
        });
        ServeState::with_eval(cache, eval, request_timeout)
    }

    /// State with an injected evaluator (tests observe or gate evaluations
    /// through this seam; everything else is the production wiring).
    ///
    /// # Errors
    ///
    /// Only if the built-in calibration fails to validate (it cannot).
    pub fn with_eval(
        cache: Arc<ShardedCache>,
        eval: Arc<dyn ModelEval>,
        request_timeout: Duration,
    ) -> Result<Self, String> {
        let params = NbtiParams::ptm90().map_err(|e| e.to_string())?;
        Ok(ServeState {
            cache,
            metrics: ServeMetrics::default(),
            overload: OverloadControl::default(),
            health: HealthMachine::new(),
            obs: ServeObs::new(),
            surface: None,
            eval,
            flight: SingleFlight::new(),
            degradation: relia_core::DelayDegradation::new(&params),
            preps: Mutex::new(HashMap::new()),
            base_config: FlowConfig::paper_defaults().map_err(|e| e.to_string())?,
            request_timeout,
            draining: AtomicBool::new(false),
        })
    }

    /// Sets the in-flight connection count beyond which brownout engages
    /// (builder style; meant for construction time, before traffic — the
    /// gauge and the shed counter reset).
    pub fn with_brownout_high_water(mut self, high_water: u64) -> Self {
        self.overload = OverloadControl::new(high_water);
        self
    }

    /// Replaces the observability state (builder style; construction
    /// time) — the CLI sizes the span ring and slow-log threshold here.
    pub fn with_obs(mut self, obs: ServeObs) -> Self {
        self.obs = obs;
        self
    }

    /// Mounts a precomputed response surface (builder style; construction
    /// time): `/v1/degrade` then answers in-domain queries with a known
    /// stress pair by multilinear interpolation and falls back to exact
    /// evaluation for everything else (and for `?mode=exact`). The caller
    /// is expected to have [`Surface::verify_model`]-checked the artifact
    /// against the serving calibration.
    pub fn with_surface(mut self, surface: Surface) -> Self {
        self.surface = Some(SurfaceTier::new(surface));
        self
    }

    /// The mounted surface tier, if any.
    pub fn surface(&self) -> Option<&SurfaceTier> {
        self.surface.as_ref()
    }

    /// The per-request timeout: the socket timeouts, the arrival budget
    /// and the evaluation deadline.
    pub fn request_timeout(&self) -> Duration {
        self.request_timeout
    }

    /// True once a graceful drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Begins draining: subsequent requests are shed with 503.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// The merged metrics snapshot behind `GET /metrics`: service counters,
    /// single-flight counters, and the shared memo cache.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // The surface ledger is published even when no surface is mounted
        // (all zeros, gauge 0), so dashboards see stable series.
        let tier = |f: fn(&SurfaceTier) -> u64| self.surface.as_ref().map_or(0, f);
        self.metrics
            .snapshot()
            .merged(MetricsSnapshot {
                counters: vec![
                    ("serve_coalesce_leads", self.flight.leads()),
                    ("serve_coalesce_joins", self.flight.joins()),
                    ("serve_brownout_sheds", self.overload.brownout_sheds()),
                    ("serve_health_transitions", self.health.transitions()),
                    ("surface_hits", tier(SurfaceTier::hits)),
                    ("surface_misses", tier(SurfaceTier::misses)),
                    ("surface_fallbacks", tier(SurfaceTier::fallbacks)),
                    ("surface_clamps", tier(SurfaceTier::clamps)),
                ],
                gauges: vec![
                    ("serve_inflight", self.overload.inflight() as f64),
                    (
                        "surface_active",
                        if self.surface.is_some() { 1.0 } else { 0.0 },
                    ),
                ],
                histograms: vec![],
            })
            .merged(self.obs.snapshot())
            .merged(self.cache.stats().snapshot())
    }

    fn prep_for(&self, name: &str) -> Result<Arc<(Circuit, AnalysisPrep)>, Response> {
        #[expect(clippy::expect_used, reason = "a poisoned lock is a bug to surface")]
        let mut preps = self.preps.lock().expect("prep table poisoned");
        if let Some(found) = preps.get(name) {
            return Ok(Arc::clone(found));
        }
        let circuit = builtin_resolver(name)
            .map_err(|e| Response::error(400, &format!("unknown circuit {name:?}: {e}")))?;
        let prep = AgingAnalysis::prep(&self.base_config, &circuit)
            .map_err(|e| Response::error(500, &format!("cannot prepare {name:?}: {e}")))?;
        let pair = Arc::new((circuit, prep));
        preps.insert(name.to_owned(), Arc::clone(&pair));
        Ok(pair)
    }
}

/// What the connection loop must do after writing the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep serving.
    Continue,
    /// Begin the graceful drain (stop accepting, finish in-flight work).
    Shutdown,
}

/// One degradation query: the paper's operating schedule (RAS split,
/// standby temperature, lifetime) plus the device's stress probabilities.
/// The mode-cycle period and active temperature are fixed at the sweep
/// engine's baseline so served values match batch results exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeQuery {
    /// `(active, standby)` RAS weights.
    pub ras: (f64, f64),
    /// Standby temperature.
    pub t_standby_k: Kelvin,
    /// Operating lifetime in seconds.
    pub lifetime_s: f64,
    /// Active-mode stress probability.
    pub p_active: f64,
    /// Standby-mode stress probability.
    pub p_standby: f64,
}

impl DegradeQuery {
    /// The canonical JSON body for this query (what `loadgen` sends).
    pub fn to_body(&self) -> String {
        format!(
            "{{\"ras\":[{},{}],\"t_standby_k\":{},\"lifetime_s\":{},\
             \"p_active\":{},\"p_standby\":{}}}",
            fmt_f64(self.ras.0),
            fmt_f64(self.ras.1),
            fmt_f64(self.t_standby_k.0),
            fmt_f64(self.lifetime_s),
            fmt_f64(self.p_active),
            fmt_f64(self.p_standby)
        )
    }

    /// The quantized stress key this query evaluates — the *same*
    /// construction as the sweep engine's model workload.
    ///
    /// # Errors
    ///
    /// A parameter-validation message (maps to HTTP 400).
    pub fn stress_key(&self) -> Result<StressKey, String> {
        let ras = Ras::new(self.ras.0, self.ras.1).map_err(|e| e.to_string())?;
        let lifetime = Seconds(self.lifetime_s);
        paper_stress_key(
            ras,
            self.t_standby_k,
            self.p_active,
            self.p_standby,
            lifetime,
        )
        .map_err(|e| e.to_string())
    }
}

fn require_f64(obj: &Json, name: &'static str) -> Result<f64, Response> {
    obj.get(name)
        .and_then(Json::as_f64)
        .ok_or_else(|| Response::error(400, &format!("missing or non-numeric field {name:?}")))
}

fn parse_ras_pair(value: &Json) -> Result<(f64, f64), Response> {
    match value.as_arr() {
        Some([a, s]) => match (a.as_f64(), s.as_f64()) {
            (Some(a), Some(s)) => Ok((a, s)),
            _ => Err(Response::error(400, "ras entries must be numbers")),
        },
        _ => Err(Response::error(400, "ras must be a two-element array")),
    }
}

/// Parses a `/v1/degrade` body.
///
/// # Errors
///
/// The 400 response describing what is malformed.
pub fn parse_degrade(body: &[u8]) -> Result<DegradeQuery, Response> {
    let root = json::parse(body).map_err(|e| Response::error(400, &e.to_string()))?;
    let ras = parse_ras_pair(
        root.get("ras")
            .ok_or_else(|| Response::error(400, "missing field \"ras\""))?,
    )?;
    Ok(DegradeQuery {
        ras,
        t_standby_k: Kelvin(require_f64(&root, "t_standby_k")?),
        lifetime_s: require_f64(&root, "lifetime_s")?,
        p_active: require_f64(&root, "p_active")?,
        p_standby: require_f64(&root, "p_standby")?,
    })
}

/// Renders the `/v1/degrade` response body. Public so load generators can
/// compute the expected bytes from direct library calls.
pub fn degrade_body(delta_vth_v: f64, delay_degradation: f64) -> String {
    format!(
        "{{\"delta_vth_v\":{},\"delay_degradation\":{}}}",
        fmt_f64(delta_vth_v),
        fmt_f64(delay_degradation)
    )
}

/// The brownout answer for cold work: a fast 503 with jittered
/// `Retry-After`, counted, and `Connection` left open (the peer is
/// welcome back after the advertised delay).
fn brownout_shed(state: &ServeState, what: &str) -> Response {
    state.overload.count_brownout_shed();
    let mut response = Response::error(
        503,
        &format!("overloaded: {what} shed, retry after the advertised delay"),
    );
    response.retry_after = Some(state.overload.retry_after());
    response
}

/// The `/v1/degrade` answer for `delta_vth`. A shift past the gate
/// overdrive, where eq. 21's delay diverges, is the query's own fault: a
/// 400, like every other model refusal.
fn render_degrade(state: &ServeState, delta_vth: f64) -> Response {
    match state.degradation.linear(delta_vth) {
        Ok(frac) => Response::json(200, degrade_body(delta_vth, frac)),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// How `/v1/degrade` should answer: through the surface tier when one is
/// mounted (the default), or forced down the exact evaluation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DegradeMode {
    Surface,
    Exact,
}

/// Reads the optional `mode` query parameter off the request target.
/// Unknown parameters are ignored (they always were — the router strips
/// the query string); an unknown `mode` *value* is a 400.
fn degrade_mode(target: &str) -> Result<DegradeMode, Response> {
    let Some((_, query)) = target.split_once('?') else {
        return Ok(DegradeMode::Surface);
    };
    let mut mode = DegradeMode::Surface;
    for param in query.split('&') {
        match param.split_once('=') {
            Some(("mode", "surface")) => mode = DegradeMode::Surface,
            Some(("mode", "exact")) => mode = DegradeMode::Exact,
            Some(("mode", other)) => {
                return Err(Response::error(
                    400,
                    &format!("unknown mode {other:?} (want surface|exact)"),
                ))
            }
            _ => {}
        }
    }
    Ok(mode)
}

/// Tries to answer a degrade query from the surface tier. `Some` is a hit
/// (interpolated, in-domain, unclamped — the documented error bound
/// applies); `None` means the surface declined and the caller must take
/// the exact path, with the ledger already updated.
fn surface_answer(
    state: &ServeState,
    tier: &SurfaceTier,
    query: &DegradeQuery,
    parent: u64,
) -> Option<Response> {
    let span = state.obs.tracer.child("surface", parent);
    let t_lookup = Instant::now();
    let hit = tier.surface.lookup(&SurfaceQuery {
        t_active_k: Kelvin(SWEEP_TEMP_ACTIVE_K),
        t_standby_k: query.t_standby_k,
        ras_fraction: query.ras.0 / (query.ras.0 + query.ras.1),
        lifetime_s: query.lifetime_s,
        p_active: query.p_active,
        p_standby: query.p_standby,
    });
    state.obs.surface.record(t_lookup.elapsed());
    drop(span);
    match hit {
        Some(lookup) if !lookup.clamped => {
            ServeMetrics::bump(&tier.hits);
            Some(render_degrade(state, lookup.delta_vth_v))
        }
        Some(_) => {
            // Clamped: a value exists but the error bound does not hold
            // out of domain — serve exact instead.
            ServeMetrics::bump(&tier.clamps);
            ServeMetrics::bump(&tier.misses);
            ServeMetrics::bump(&tier.fallbacks);
            None
        }
        None => {
            ServeMetrics::bump(&tier.misses);
            ServeMetrics::bump(&tier.fallbacks);
            None
        }
    }
}

/// The overload protocol of every evaluation-bearing endpoint: at or
/// under the brownout high-water mark the request goes to `run`; past it,
/// `browned_out` answers it (a memo hit or a brownout shed).
fn gated<'a>(
    state: &ServeState,
    browned_out: impl FnOnce() -> Response,
    run: impl FnOnce() -> Reply<'a>,
) -> Reply<'a> {
    if state.overload.queue_congested() {
        Reply::Respond(browned_out())
    } else {
        run()
    }
}

fn handle_degrade<'a>(
    state: &ServeState,
    request: &Request,
    deadline: &Deadline,
    parent: u64,
) -> Reply<'a> {
    let parsed = degrade_mode(&request.target).and_then(|mode| {
        let query = parse_degrade(&request.body)?;
        let key = query.stress_key().map_err(|e| Response::error(400, &e))?;
        Ok((mode, query, key))
    });
    let (mode, query, key) = match parsed {
        Ok(parsed) => parsed,
        Err(r) => return Reply::Respond(r),
    };
    // The surface tier sits before the overload gate: like a cache peek,
    // an interpolated hit takes no evaluation slot and stays answerable
    // under brownout. `stress_key()` already validated the operating
    // point, so the RAS fraction below is well-defined.
    if let Some(tier) = state.surface() {
        match mode {
            DegradeMode::Exact => ServeMetrics::bump(&tier.fallbacks),
            DegradeMode::Surface => {
                if let Some(response) = surface_answer(state, tier, &query, parent) {
                    return Reply::Respond(response);
                }
            }
        }
    }
    gated(
        state,
        // Brownout: a memoized answer is still a full answer (bit-equal
        // to an evaluation); only cold work is refused.
        || match state.cache.peek(&key) {
            Some(delta_vth) => render_degrade(state, delta_vth),
            None => brownout_shed(state, "cold degrade evaluation"),
        },
        || Reply::Respond(degrade_eval(state, key, deadline, parent)),
    )
}

fn degrade_eval(state: &ServeState, key: StressKey, deadline: &Deadline, parent: u64) -> Response {
    // The queue wait may already have consumed the deadline.
    if deadline.fire_if_due(Instant::now()) {
        return Response::error(504, "request deadline exceeded");
    }
    let obs = &state.obs;
    // `coalesce` is what *this* request waited for the shared value —
    // leader and joiners alike; `evaluate` exists only on the leader (the
    // closure runs once per cold key).
    let coalesce_span = obs.tracer.child("coalesce", parent);
    let t_coalesce = Instant::now();
    let result = state.flight.run(key, || {
        let eval_span = obs.tracer.child("evaluate", coalesce_span.id());
        let t_eval = Instant::now();
        let value = state.eval.delta_vth(key);
        obs.eval.record(t_eval.elapsed());
        drop(eval_span);
        value
    });
    obs.coalesce.record(t_coalesce.elapsed());
    drop(coalesce_span);
    let delta_vth = match result {
        Ok(v) => v,
        Err(e) => return Response::error(500, &e),
    };
    let serialize_span = obs.tracer.child("serialize", parent);
    let t_serialize = Instant::now();
    let response = render_degrade(state, delta_vth);
    obs.serialize.record(t_serialize.elapsed());
    drop(serialize_span);
    response
}

fn parse_f64_list(root: &Json, name: &'static str) -> Result<Vec<f64>, Response> {
    let arr = root
        .get(name)
        .and_then(Json::as_arr)
        .ok_or_else(|| Response::error(400, &format!("missing or non-array field {name:?}")))?;
    arr.iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| Response::error(400, &format!("{name:?} entries must be numbers")))
        })
        .collect()
}

fn parse_str_list(root: &Json, name: &'static str) -> Result<Vec<String>, Response> {
    let arr = root
        .get(name)
        .and_then(Json::as_arr)
        .ok_or_else(|| Response::error(400, &format!("missing or non-array field {name:?}")))?;
    arr.iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| Response::error(400, &format!("{name:?} entries must be strings")))
        })
        .collect()
}

/// Parses a `/v1/sweep` body into the batch engine's [`SweepSpec`] — same
/// grid semantics, same canonical point order.
///
/// # Errors
///
/// The 400 (malformed) or 413 (grid too large) response.
pub fn parse_sweep(body: &[u8]) -> Result<SweepSpec, Response> {
    let root = json::parse(body).map_err(|e| Response::error(400, &e.to_string()))?;
    let workload = root
        .get("workload")
        .ok_or_else(|| Response::error(400, "missing field \"workload\""))?;
    let kind = workload
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| Response::error(400, "workload needs a \"kind\" of model|aging"))?;
    let workload = match kind {
        "model" => Workload::ModelDeltaVth {
            p_active: require_f64(workload, "p_active")?,
            p_standby: require_f64(workload, "p_standby")?,
        },
        "aging" => {
            let circuits = parse_str_list(workload, "circuits")?;
            let policies = parse_str_list(workload, "policies")?
                .iter()
                .map(|s| PolicySpec::parse(s))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| Response::error(400, &e))?;
            Workload::CircuitAging { circuits, policies }
        }
        other => {
            return Err(Response::error(
                400,
                &format!("unknown workload kind {other:?} (want model|aging)"),
            ))
        }
    };
    let ras_values = root
        .get("ras")
        .and_then(Json::as_arr)
        .ok_or_else(|| Response::error(400, "missing or non-array field \"ras\""))?
        .iter()
        .map(parse_ras_pair)
        .collect::<Result<Vec<_>, _>>()?;
    let spec = SweepSpec {
        workload,
        ras: ras_values,
        t_standby: parse_f64_list(&root, "t_standby_k")?
            .into_iter()
            .map(Kelvin)
            .collect(),
        lifetimes: parse_f64_list(&root, "lifetime_s")?
            .into_iter()
            .map(Seconds)
            .collect(),
    };
    if spec.is_empty() {
        return Err(Response::error(400, "sweep grid is empty"));
    }
    if spec.len() > MAX_SWEEP_POINTS {
        return Err(Response::error(
            413,
            &format!(
                "inline sweep of {} points exceeds the limit of {MAX_SWEEP_POINTS}; \
                 use the batch engine (relia sweep) for large grids",
                spec.len()
            ),
        ));
    }
    // Both workloads key their model calls by standby temperature and
    // lifetime, so a value the key lattice cannot hold is a bad request,
    // whichever workload runs.
    for &t_standby in &spec.t_standby {
        StressKey::temp_mk("temp_standby", t_standby)
            .map_err(|e| Response::error(400, &e.to_string()))?;
    }
    for &lifetime in &spec.lifetimes {
        StressKey::lifetime_ms(lifetime).map_err(|e| Response::error(400, &e.to_string()))?;
    }
    Ok(spec)
}

fn handle_sweep<'a>(state: &ServeState, request: &Request, deadline: &Deadline) -> Reply<'a> {
    // Inline sweeps are cold batch work by definition: under brownout
    // they are shed whole, before the body is even parsed.
    gated(
        state,
        || brownout_shed(state, "inline sweep"),
        || Reply::Respond(sweep_response(state, request, deadline)),
    )
}

fn sweep_response(state: &ServeState, request: &Request, deadline: &Deadline) -> Response {
    let spec = match parse_sweep(&request.body) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let mut answer = SweepAnswer::new(&spec);
    let written = match &spec.workload {
        Workload::ModelDeltaVth {
            p_active,
            p_standby,
        } => model_points(state, &spec, *p_active, *p_standby, deadline, &mut answer),
        Workload::CircuitAging { circuits, policies } => {
            aging_points(state, &spec, circuits, policies, deadline, &mut answer)
        }
    };
    match written {
        Ok(()) => answer.finish(),
        Err(r) => r,
    }
}

/// Bytes reserved per point of a sweep answer: a model point's object is
/// ~90.
const SWEEP_POINT_BYTES: usize = 96;

/// A `/v1/sweep` answer, `{"count":N,"points":[…]}`, written in place:
/// each coordinate is formatted once per axis value, and each point's
/// object is appended straight to the body.
struct SweepAnswer {
    body: String,
    ras: Vec<String>,
    t_standby: Vec<String>,
    lifetimes: Vec<String>,
}

impl SweepAnswer {
    fn new(spec: &SweepSpec) -> SweepAnswer {
        let mut body = format!("{{\"count\":{},\"points\":[", spec.len());
        body.reserve(SWEEP_POINT_BYTES * spec.len());
        SweepAnswer {
            body,
            ras: spec
                .ras
                .iter()
                .map(|&(a, s)| format!("\"ras\":[{},{}]", fmt_f64(a), fmt_f64(s)))
                .collect(),
            t_standby: spec
                .t_standby
                .iter()
                .map(|t| format!(",\"t_standby_k\":{}", fmt_f64(t.0)))
                .collect(),
            lifetimes: spec
                .lifetimes
                .iter()
                .map(|l| format!(",\"lifetime_s\":{}", fmt_f64(l.0)))
                .collect(),
        }
    }

    /// Appends the point at `(RAS, T_standby, lifetime)` axis indices
    /// `(r, t, l)`: its coordinates, then what `fields` writes.
    fn point(&mut self, (r, t, l): (usize, usize, usize), fields: impl FnOnce(&mut String)) {
        // The head ends in `[` and every point in `}`.
        if !self.body.ends_with('[') {
            self.body.push(',');
        }
        self.body.push('{');
        self.body.push_str(&self.ras[r]);
        self.body.push_str(&self.t_standby[t]);
        self.body.push_str(&self.lifetimes[l]);
        self.body.push(',');
        fields(&mut self.body);
        self.body.push('}');
    }

    fn finish(mut self) -> Response {
        self.body.push_str("]}");
        Response::json(200, self.body)
    }
}

/// A model sweep, [`LANES`] `(RAS, T_standby)` rows of lifetimes per
/// batch, so each batch's memo-cache misses are evaluated together and
/// their AC recursions share one lane-parallel walk. Rows skip
/// single-flight: a cached value is canonical per key, so a row racing a
/// degrade request for the same key computes the same bits.
///
/// A batch answers with the error a row-by-row loop meets first. A key is
/// refused (400) for its row's RAS pair or the workload's probabilities,
/// since [`parse_sweep`] has checked every standby temperature and
/// lifetime, so the keys ahead of the first refused one are whole rows:
/// they are evaluated, and their evaluation errors (500) come first.
fn model_points(
    state: &ServeState,
    spec: &SweepSpec,
    p_active: f64,
    p_standby: f64,
    deadline: &Deadline,
    answer: &mut SweepAnswer,
) -> Result<(), Response> {
    let points: Vec<(usize, usize, usize)> = spec.grid().collect();
    let mut keys = Vec::with_capacity(LANES * spec.lifetimes.len());
    for batch in points.chunks(LANES * spec.lifetimes.len()) {
        // Cooperative deadline check between batches: a sweep that blows
        // its budget returns 504 instead of hogging a worker.
        if deadline.fire_if_due(Instant::now()) {
            return Err(Response::error(504, "request deadline exceeded"));
        }
        keys.clear();
        let mut refused = Ok(());
        for &(r, t, l) in batch {
            let query = DegradeQuery {
                ras: spec.ras[r],
                t_standby_k: spec.t_standby[t],
                lifetime_s: spec.lifetimes[l].0,
                p_active,
                p_standby,
            };
            match query.stress_key() {
                Ok(key) => keys.push(key),
                Err(e) => {
                    refused = Err(Response::error(400, &e));
                    break;
                }
            }
        }
        for (&point, value) in batch.iter().zip(state.eval.delta_vth_many(&keys)) {
            let v = value.map_err(|e| Response::error(500, &e))?;
            answer.point(point, |body| {
                body.push_str("\"delta_vth_v\":");
                json::push_f64(body, v);
            });
        }
        refused?;
    }
    Ok(())
}

/// A circuit-aging sweep, one point at a time, `(circuit, policy)` tasks
/// outermost.
fn aging_points(
    state: &ServeState,
    spec: &SweepSpec,
    circuits: &[String],
    policies: &[PolicySpec],
    deadline: &Deadline,
    answer: &mut SweepAnswer,
) -> Result<(), Response> {
    for circuit in circuits {
        for policy in policies {
            let task = format!(
                "\"circuit\":\"{}\",\"policy\":\"{}\",",
                json::escape(circuit),
                json::escape(&policy.label())
            );
            for point in spec.grid() {
                // Cooperative deadline check between points.
                if deadline.fire_if_due(Instant::now()) {
                    return Err(Response::error(504, "request deadline exceeded"));
                }
                let report = run_aging_point(state, spec, circuit, policy, point, deadline)?;
                answer.point(point, |body| {
                    body.push_str(&task);
                    body.push_str("\"worst_delta_vth_v\":");
                    json::push_f64(body, report.worst_delta_vth());
                    body.push_str(",\"delay_degradation\":");
                    json::push_f64(body, report.degradation_fraction());
                    body.push_str(",\"nominal_delay_ps\":");
                    json::push_f64(body, report.nominal.max_delay_ps());
                    body.push_str(",\"degraded_delay_ps\":");
                    json::push_f64(body, report.degraded.max_delay_ps());
                });
            }
        }
    }
    Ok(())
}

fn run_aging_point(
    state: &ServeState,
    spec: &SweepSpec,
    circuit: &str,
    policy: &PolicySpec,
    (r, t, l): (usize, usize, usize),
    deadline: &Deadline,
) -> Result<AgingReport, Response> {
    let pair = state.prep_for(circuit)?;
    let (active, standby) = spec.ras[r];
    let ras = Ras::new(active, standby).map_err(|e| Response::error(400, &e.to_string()))?;
    let mut config = FlowConfig::with_schedule(ras, spec.t_standby[t])
        .map_err(|e| Response::error(400, &e.to_string()))?;
    config.lifetime = spec.lifetimes[l];
    AgingAnalysis::from_prep(&config, &pair.0, pair.1.clone())
        .with_cache(state.cache.as_ref(), deadline.token())
        .run(&policy.to_policy())
        .map_err(|e| match e {
            FlowError::Cancelled => Response::error(504, "request deadline exceeded"),
            other => Response::error(500, &other.to_string()),
        })
}

fn optional_f64(root: &Json, name: &'static str, default: f64) -> Result<f64, Response> {
    match root.get(name) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| Response::error(400, &format!("field {name:?} must be a number"))),
    }
}

/// Parses a `/v1/fleet` body into a [`FleetSpec`]. Required fields mirror
/// `/v1/sweep` (`ras`, `t_standby_k`, `p_active`, `p_standby`) plus
/// `times_s` and `samples`; `seed`, `correlation`, `rate_sigma`,
/// `guardband`, `vth_mean_v`, and `vth_sigma_v` default to the paper's
/// fleet study.
///
/// # Errors
///
/// The 400 (malformed) or 413 (fleet too large) response.
pub fn parse_fleet(body: &[u8]) -> Result<FleetSpec, Response> {
    let root = json::parse(body).map_err(|e| Response::error(400, &e.to_string()))?;
    let defaults = FleetSpec::paper_defaults()
        .map_err(|e| Response::error(500, &format!("builtin fleet defaults: {e}")))?;
    let ras = parse_ras_pair(
        root.get("ras")
            .ok_or_else(|| Response::error(400, "missing field \"ras\""))?,
    )?;
    let ras = Ras::new(ras.0, ras.1).map_err(|e| Response::error(400, &e.to_string()))?;
    let times: Vec<Seconds> = parse_f64_list(&root, "times_s")?
        .into_iter()
        .map(Seconds)
        .collect();
    if times.len() > MAX_FLEET_TIMES {
        return Err(Response::error(
            413,
            &format!(
                "{} evaluation times exceed the limit of {MAX_FLEET_TIMES}",
                times.len()
            ),
        ));
    }
    let samples = require_f64(&root, "samples")?;
    if !samples.is_finite() || samples < 1.0 {
        return Err(Response::error(400, "samples must be a positive count"));
    }
    if samples > MAX_FLEET_SAMPLES as f64 {
        return Err(Response::error(
            413,
            &format!(
                "inline fleet of {samples} samples exceeds the limit of {MAX_FLEET_SAMPLES}; \
                 use the batch engine (relia fleet) for larger studies"
            ),
        ));
    }
    let mean = optional_f64(&root, "vth_mean_v", defaults.dist.mean().0)?;
    let sigma = optional_f64(&root, "vth_sigma_v", defaults.dist.sigma().0)?;
    let dist = VthDistribution::new(Volts(mean), Volts(sigma))
        .map_err(|e| Response::error(400, &e.to_string()))?;
    let seed = optional_f64(&root, "seed", defaults.seed as f64)?;
    if !seed.is_finite() || seed < 0.0 {
        return Err(Response::error(400, "seed must be a non-negative integer"));
    }
    Ok(FleetSpec {
        ras,
        t_standby: Kelvin(require_f64(&root, "t_standby_k")?),
        p_active: require_f64(&root, "p_active")?,
        p_standby: require_f64(&root, "p_standby")?,
        times,
        dist,
        correlation: optional_f64(&root, "correlation", defaults.correlation)?,
        rate_sigma: optional_f64(&root, "rate_sigma", defaults.rate_sigma)?,
        guardband: optional_f64(&root, "guardband", defaults.guardband)?,
        samples: samples as usize,
        seed: seed as u64,
    })
}

/// Renders the `/v1/fleet` response body. Public so clients can compute
/// the expected bytes from a direct [`relia_fleet::run_fleet`] call at the
/// default chunk size.
pub fn fleet_body(summary: &FleetSummary, chunks: usize) -> String {
    let points: Vec<String> = summary
        .points
        .iter()
        .map(|p| {
            format!(
                "{{\"time_s\":{},\"mean\":{},\"std_dev\":{},\"p50\":{},\"p90\":{},\
                 \"p99\":{},\"yield\":{}}}",
                fmt_f64(p.time.0),
                fmt_f64(p.mean),
                fmt_f64(p.std_dev),
                fmt_f64(p.p50),
                fmt_f64(p.p90),
                fmt_f64(p.p99),
                fmt_f64(p.yield_fraction)
            )
        })
        .collect();
    format!(
        "{{\"samples\":{},\"seed\":{},\"guardband\":{},\"chunks\":{chunks},\
         \"points\":[{}],\"lifetime_s\":{{\"p01\":{},\"p10\":{},\"p50\":{}}}}}",
        summary.samples,
        summary.seed,
        fmt_f64(summary.guardband),
        points.join(","),
        fmt_f64(summary.lifetime.p01),
        fmt_f64(summary.lifetime.p10),
        fmt_f64(summary.lifetime.p50)
    )
}

fn handle_fleet<'a>(state: &ServeState, request: &Request, deadline: &'a Deadline) -> Reply<'a> {
    // Fleet studies have no memo cache to answer from: brownout sheds
    // them whole, before parsing.
    gated(
        state,
        || brownout_shed(state, "inline fleet study"),
        || match prepare_fleet(&request.body) {
            Ok((spec, eval)) => Reply::Stream(Box::new(FleetJob {
                deadline,
                spec,
                eval,
            })),
            Err(r) => Reply::Respond(r),
        },
    )
}

/// Parses a `/v1/fleet` body and prepares its evaluator. `Err` is the
/// 400/413/500 response, decided before any byte reaches the wire.
fn prepare_fleet(body: &[u8]) -> Result<(FleetSpec, FleetEvaluator), Response> {
    let spec = parse_fleet(body)?;
    match FleetEvaluator::prepare(&spec) {
        Ok(eval) => Ok((spec, eval)),
        Err(e @ (FleetError::Invalid { .. } | FleetError::Model(_))) => {
            Err(Response::error(400, &e.to_string()))
        }
        Err(e) => Err(Response::error(500, &e.to_string())),
    }
}

/// Evaluates a prepared fleet chunk by chunk and returns the final
/// response: `200` with the summary, or the `504`/`500` failure.
/// `progress(done, of)` runs after each merged chunk; its error aborts the
/// loop and is returned as is.
///
/// The deadline is polled between chunks, exactly like `/v1/sweep` between
/// grid points. Merging in index order keeps the summary byte-identical to
/// `relia fleet` at the same (default) chunk size.
fn run_fleet_chunks<E>(
    spec: &FleetSpec,
    eval: &FleetEvaluator,
    deadline: &Deadline,
    mut progress: impl FnMut(usize, usize) -> Result<(), E>,
) -> Result<Response, E> {
    let total_chunks = spec.samples.div_ceil(DEFAULT_CHUNK);
    let mut total = ChunkAccum::new(spec.times.len());
    for index in 0..total_chunks {
        if deadline.fire_if_due(Instant::now()) {
            return Ok(Response::error(504, "request deadline exceeded"));
        }
        let start = index * DEFAULT_CHUNK;
        let len = DEFAULT_CHUNK.min(spec.samples - start);
        let Some(acc) = eval.run_chunk(spec.seed, index, len, deadline.token()) else {
            return Ok(Response::error(504, "request deadline exceeded"));
        };
        if let Err(e) = total.merge(&acc) {
            return Ok(Response::error(500, &e.to_string()));
        }
        progress(index + 1, total_chunks)?;
    }
    Ok(Response::json(
        200,
        fleet_body(&eval.summarize(spec, &total), total_chunks),
    ))
}

/// An admitted `/v1/fleet` study: the drain check, the overload gate, the
/// parse and the prepare have passed, and nothing has touched the wire.
/// Running it — [`buffered`](Self::buffered) or [`stream`](Self::stream)
/// — produces its answer.
#[must_use = "an admitted study answers only when it runs"]
pub struct FleetJob<'a> {
    deadline: &'a Deadline,
    spec: FleetSpec,
    eval: FleetEvaluator,
}

impl FleetJob<'_> {
    /// Evaluates the study and returns its one answer: `200` with the
    /// summary, or the `504`/`500` failure.
    pub fn buffered(self) -> Response {
        let Ok(response) = run_fleet_chunks(&self.spec, &self.eval, self.deadline, |_, _| {
            Ok::<(), std::convert::Infallible>(())
        });
        response
    }

    /// Streams the study to an HTTP/1.1 peer: a `200` chunked head, one
    /// NDJSON progress frame per evaluated chunk (`{"chunk":i,"of":N}`),
    /// then the [`buffered`](Self::buffered) body as the last frame — or,
    /// after a mid-stream deadline or merge failure, the `{"error":…}` body
    /// in its place. Returns the logical status (504/500 after an error
    /// frame: the connection must close) and the transport's result. A
    /// write failure stops the study and keeps the head's 200, since a
    /// vanished peer is no verdict on the model.
    pub fn stream(self, w: &mut impl io::Write) -> (u16, io::Result<()>) {
        let streamed = self.write_chunked(w);
        let status = streamed.as_ref().map_or(200, |&status| status);
        (status, streamed.map(|_| ()))
    }

    fn write_chunked(&self, w: &mut impl io::Write) -> io::Result<u16> {
        write_chunked_head(w, 200, "application/json", false)?;
        let mut last = run_fleet_chunks(&self.spec, &self.eval, self.deadline, |done, of| {
            write_chunk(w, format!("{{\"chunk\":{done},\"of\":{of}}}\n").as_bytes())
        })?;
        // The summary, or the `{"error":…}` body that replaces it.
        last.body.push(b'\n');
        write_chunk(w, &last.body)?;
        write_chunked_end(w)?;
        Ok(last.status)
    }
}

fn handle_metrics(state: &ServeState) -> Response {
    // Build info leads the exposition: a constant-1 series whose labels
    // carry the version, the Prometheus idiom for joinable metadata.
    let mut body = format!(
        "# TYPE relia_build_info gauge\nrelia_build_info{{version=\"{}\"}} 1\n",
        env!("CARGO_PKG_VERSION")
    );
    body.push_str(&render_prometheus(&state.snapshot()));
    Response::text(200, body)
}

fn handle_health(state: &ServeState) -> Response {
    let health = state
        .health
        .observe(state.is_draining(), state.overload.queue_congested());
    match health {
        HealthState::Degraded => {
            // 203: answered authoritatively about *ourselves*, but the
            // service behind us is impaired. Retry-After tells probes
            // (and patient clients) when to look again.
            let mut response = Response::json(
                203,
                format!(
                    "{{\"status\":\"degraded\",\"inflight\":{}}}",
                    state.overload.inflight()
                ),
            );
            response.retry_after = Some(state.overload.retry_after());
            response
        }
        other => Response::json(200, format!("{{\"status\":\"{}\"}}", other.label())),
    }
}

/// What [`route`] decided for one request.
#[must_use = "a reply answers only when it is written"]
pub enum Reply<'a> {
    /// Write this response and keep serving.
    Respond(Response),
    /// Write this response, then begin the graceful drain.
    Shutdown(Response),
    /// An admitted `/v1/fleet` study; the caller picks its framing.
    Stream(Box<FleetJob<'a>>),
}

impl Reply<'_> {
    /// The reply as one rendered response: a fleet study runs to its
    /// [`buffered`](FleetJob::buffered) answer.
    pub fn buffered(self) -> (Response, Action) {
        match self {
            Reply::Respond(response) => (response, Action::Continue),
            Reply::Shutdown(response) => (response, Action::Shutdown),
            Reply::Stream(job) => (job.buffered(), Action::Continue),
        }
    }
}

/// Routes one request, the one entry point of every endpoint:
///
/// | Endpoint               | Meaning                                        |
/// |------------------------|------------------------------------------------|
/// | `POST /v1/degrade`     | one stress point → ΔV_th and delay degradation |
/// | `POST /v1/sweep`       | a small inline grid (bounded, canonical order) |
/// | `POST /v1/fleet`       | a bounded Monte Carlo fleet aging study        |
/// | `GET /healthz`         | liveness and drain state                       |
/// | `GET /metrics`         | Prometheus text exposition                     |
/// | `GET /debug/trace`     | most recent request spans (JSON)               |
/// | `POST /admin/shutdown` | begin graceful drain                           |
///
/// Each path and its method appear once below: another method on a known
/// path answers 405, an unknown path 404. While draining, everything but
/// `/healthz` answers 503. Handler phases (`surface`, `coalesce`,
/// `evaluate`, `serialize`) nest under the span `parent` in
/// `GET /debug/trace`; 0 makes them roots.
pub fn route<'a>(
    state: &ServeState,
    request: &Request,
    deadline: &'a Deadline,
    parent: u64,
) -> Reply<'a> {
    ServeMetrics::bump(&state.metrics.requests);
    if state.is_draining() && request.path() != "/healthz" {
        let mut r = Response::error(503, "server is draining");
        r.retry_after = Some(1);
        r.close = true;
        return Reply::Respond(r);
    }
    match request.path() {
        "/healthz" => on(request, "GET", || Reply::Respond(handle_health(state))),
        "/metrics" => on(request, "GET", || Reply::Respond(handle_metrics(state))),
        "/debug/trace" => on(request, "GET", || {
            Reply::Respond(Response::json(200, state.obs.trace_json()))
        }),
        "/v1/degrade" => on(request, "POST", || {
            handle_degrade(state, request, deadline, parent)
        }),
        "/v1/sweep" => on(request, "POST", || handle_sweep(state, request, deadline)),
        "/v1/fleet" => on(request, "POST", || handle_fleet(state, request, deadline)),
        "/admin/shutdown" => on(request, "POST", || {
            state.begin_drain();
            Reply::Shutdown(Response::json(200, "{\"status\":\"draining\"}"))
        }),
        path => Reply::Respond(Response::error(404, &format!("no such endpoint: {path}"))),
    }
}

/// `then()` when `request` uses `method`, its endpoint's one method; 405
/// otherwise.
fn on<'a>(request: &Request, method: &str, then: impl FnOnce() -> Reply<'a>) -> Reply<'a> {
    if request.method == method {
        then()
    } else {
        Reply::Respond(Response::error(405, "method not allowed for this endpoint"))
    }
}

/// Answers one request in process: [`route`] without a parent span, a
/// fleet study run to its buffered answer.
pub fn handle(state: &ServeState, request: &Request, deadline: &Deadline) -> (Response, Action) {
    route(state, request, deadline, 0).buffered()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relia_flow::NoCache;
    use relia_jobs::SWEEP_PERIOD_S;

    fn state() -> ServeState {
        ServeState::new(Duration::from_secs(5)).unwrap()
    }

    fn deadline(timeout: Duration) -> Deadline {
        Deadline::new(relia_core::CancelToken::new(), Instant::now() + timeout)
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_owned(),
            target: path.to_owned(),
            http11: true,
            headers: vec![],
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_owned(),
            target: path.to_owned(),
            http11: true,
            headers: vec![],
            body: vec![],
        }
    }

    /// The coordinates a sweep point's object opens with, rendered point
    /// by point: the reference for the answer's per-axis writer.
    fn point_prefix(point: &relia_jobs::JobPoint) -> String {
        format!(
            "\"ras\":[{},{}],\"t_standby_k\":{},\"lifetime_s\":{}",
            fmt_f64(point.ras.0),
            fmt_f64(point.ras.1),
            fmt_f64(point.t_standby.0),
            fmt_f64(point.lifetime.0)
        )
    }

    const QUERY: DegradeQuery = DegradeQuery {
        ras: (1.0, 9.0),
        t_standby_k: Kelvin(330.0),
        lifetime_s: 1.0e8,
        p_active: 0.5,
        p_standby: 1.0,
    };

    #[test]
    fn degrade_matches_a_direct_library_call_byte_for_byte() {
        let s = state();
        let d = deadline(Duration::from_secs(5));
        let (response, action) = handle(&s, &post("/v1/degrade", &QUERY.to_body()), &d);
        assert_eq!(response.status, 200);
        assert_eq!(action, Action::Continue);

        // The independent ground truth: quantize + evaluate, no cache.
        let model = NbtiModel::ptm90().unwrap();
        let key = QUERY.stress_key().unwrap();
        let dvth = NoCache.delta_vth(key, &model).unwrap();
        let params = NbtiParams::ptm90().unwrap();
        let frac = relia_core::DelayDegradation::new(&params)
            .linear(dvth)
            .unwrap();
        assert_eq!(response.body, degrade_body(dvth, frac).into_bytes());
    }

    #[test]
    fn degrade_hits_the_cache_on_repeat() {
        let s = state();
        let d = deadline(Duration::from_secs(5));
        let req = post("/v1/degrade", &QUERY.to_body());
        let first = handle(&s, &req, &d).0;
        let second = handle(&s, &req, &d).0;
        assert_eq!(first.body, second.body);
        let stats = s.cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn degrade_rejects_bad_bodies_with_400() {
        let s = state();
        let d = deadline(Duration::from_secs(5));
        for body in [
            "",
            "not json",
            "{}",
            "{\"ras\":[1],\"t_standby_k\":330,\"lifetime_s\":1,\"p_active\":0.5,\"p_standby\":1}",
            "{\"ras\":[1,9],\"t_standby_k\":330,\"lifetime_s\":1,\"p_active\":2.5,\"p_standby\":1}",
            "{\"ras\":[1,9],\"t_standby_k\":-10,\"lifetime_s\":1,\"p_active\":0.5,\"p_standby\":1}",
            "{\"ras\":[1,9],\"t_standby_k\":330,\"lifetime_s\":-1,\"p_active\":0.5,\"p_standby\":1}",
            "{\"ras\":[1,9],\"t_standby_k\":330,\"lifetime_s\":1e17,\"p_active\":0.5,\"p_standby\":1}",
            // Standby temperatures off the 1 mK key lattice.
            "{\"ras\":[1,9],\"t_standby_k\":0.0004,\"lifetime_s\":1,\"p_active\":0.5,\"p_standby\":1}",
            "{\"ras\":[1,9],\"t_standby_k\":4294968,\"lifetime_s\":1,\"p_active\":0.5,\"p_standby\":1}",
            "{\"ras\":[1,9],\"t_standby_k\":1e300,\"lifetime_s\":1,\"p_active\":0.5,\"p_standby\":1}",
        ] {
            let r = handle(&s, &post("/v1/degrade", body), &d).0;
            assert_eq!(
                r.status,
                400,
                "{body:?} → {:?}",
                String::from_utf8_lossy(&r.body)
            );
        }
    }

    #[test]
    fn a_shift_past_the_gate_overdrive_answers_400() {
        // Always stressed at 400 K for 1.8e16 s: ΔV_th passes V_g − V_th0,
        // where eq. 21's delay diverges.
        let body = "{\"ras\":[1,0],\"t_standby_k\":400,\"lifetime_s\":1.8e16,\
                    \"p_active\":1,\"p_standby\":1}";
        let s = state();
        let d = deadline(Duration::from_secs(5));
        let r = handle(&s, &post("/v1/degrade", body), &d).0;
        let text = String::from_utf8_lossy(&r.body);
        assert_eq!(r.status, 400, "{text}");
        assert!(
            text.starts_with("{\"error\":\"invalid parameter delta_vth = 4.054")
                && text.ends_with("; expected [0, overdrive]\"}"),
            "{text}"
        );
    }

    #[test]
    fn expired_deadline_maps_to_504() {
        let s = state();
        let d = deadline(Duration::ZERO);
        let r = handle(&s, &post("/v1/degrade", &QUERY.to_body()), &d).0;
        assert_eq!(r.status, 504);
        let sweep_body = "{\"workload\":{\"kind\":\"model\",\"p_active\":0.5,\"p_standby\":1},\
             \"ras\":[[1,9]],\"t_standby_k\":[330],\"lifetime_s\":[1e8]}";
        let r = handle(&s, &post("/v1/sweep", sweep_body), &d).0;
        assert_eq!(r.status, 504);
    }

    #[test]
    fn model_sweep_matches_degrade_values_in_canonical_order() {
        let s = state();
        let d = deadline(Duration::from_secs(30));
        let body = "{\"workload\":{\"kind\":\"model\",\"p_active\":0.5,\"p_standby\":1},\
             \"ras\":[[1,9]],\"t_standby_k\":[330,400],\"lifetime_s\":[1e8]}";
        let r = handle(&s, &post("/v1/sweep", body), &d).0;
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.starts_with("{\"count\":2,\"points\":["));
        // Canonical order: t_standby sweeps 330 then 400.
        let i330 = text.find("\"t_standby_k\":330").unwrap();
        let i400 = text.find("\"t_standby_k\":400").unwrap();
        assert!(i330 < i400);
        // Values equal the degrade path's.
        let model = NbtiModel::ptm90().unwrap();
        let mut q = QUERY;
        q.t_standby_k = Kelvin(400.0);
        let dvth = q.stress_key().unwrap().evaluate(&model).unwrap();
        assert!(text.contains(&format!("\"delta_vth_v\":{}", fmt_f64(dvth))));

        // More rows than one lane group, a RAS pair listed twice, and a
        // zero lifetime: every point's bytes are the degrade path's value
        // in canonical order.
        let body = "{\"workload\":{\"kind\":\"model\",\"p_active\":0.3,\"p_standby\":1},\
             \"ras\":[[1,9],[1,5],[1,9]],\"t_standby_k\":[330,345,361.5,370,385,400],\
             \"lifetime_s\":[1e8,0,3.2e7]}";
        let r = handle(&s, &post("/v1/sweep", body), &d).0;
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let points = parse_sweep(body.as_bytes()).unwrap().points();
        assert!(points.len() / 3 > LANES);
        let expected: Vec<String> = points
            .iter()
            .map(|point| {
                let key = DegradeQuery {
                    ras: point.ras,
                    t_standby_k: point.t_standby,
                    lifetime_s: point.lifetime.0,
                    p_active: 0.3,
                    p_standby: 1.0,
                }
                .stress_key()
                .unwrap();
                let dvth = fmt_f64(key.evaluate(&model).unwrap());
                format!("{{{},\"delta_vth_v\":{dvth}}}", point_prefix(point))
            })
            .collect();
        let expected = format!(
            "{{\"count\":{},\"points\":[{}]}}",
            points.len(),
            expected.join(",")
        );
        assert_eq!(String::from_utf8(r.body).unwrap(), expected);
    }

    #[test]
    fn model_sweeps_answer_the_same_bytes_from_a_constantly_evicting_cache() {
        let tiny = Arc::new(ShardedCache::with_capacity(2, 8));
        let eval = Arc::new(CachedEval {
            cache: Arc::clone(&tiny),
            model: NbtiModel::ptm90().unwrap(),
        });
        let evicting =
            ServeState::with_eval(Arc::clone(&tiny), eval, Duration::from_secs(5)).unwrap();
        let roomy = state();
        let d = deadline(Duration::from_secs(60));
        let bodies = [
            // 4 RAS pairs x 4 standby temperatures x 4 lifetimes.
            "{\"workload\":{\"kind\":\"model\",\"p_active\":0.5,\"p_standby\":1},\
             \"ras\":[[1,9],[1,5],[1,1],[5,1]],\"t_standby_k\":[330,350,370,400],\
             \"lifetime_s\":[1e6,3.2e7,1e8,1e9]}",
            // More rows than one lane group, a RAS pair listed twice, and a
            // zero lifetime.
            "{\"workload\":{\"kind\":\"model\",\"p_active\":0.3,\"p_standby\":0.2},\
             \"ras\":[[1,9],[1,5],[1,9]],\"t_standby_k\":[330,345,361.5,370,385,400],\
             \"lifetime_s\":[1e8,0,3.2e7]}",
        ];
        // Every body twice: the default cache answers the repeat from
        // memory, the 2 x 8 one evaluates it again.
        for body in bodies.iter().chain(&bodies) {
            let a = handle(&evicting, &post("/v1/sweep", body), &d).0;
            let b = handle(&roomy, &post("/v1/sweep", body), &d).0;
            assert_eq!(a.status, 200, "{:?}", String::from_utf8_lossy(&a.body));
            assert_eq!(
                String::from_utf8(a.body).unwrap(),
                String::from_utf8(b.body).unwrap()
            );
        }
        assert!(tiny.stats().evictions > 100, "{:?}", tiny.stats());
        assert_eq!(roomy.cache.stats().evictions, 0);
        assert!(roomy.cache.stats().hits >= 118, "{:?}", roomy.cache.stats());
    }

    #[test]
    fn aging_sweep_reports_circuit_results() {
        let s = state();
        let d = deadline(Duration::from_secs(60));
        // c17 listed twice, so four (circuit, policy) tasks each walk a
        // grid of two RAS pairs by two standby temperatures.
        let body = "{\"workload\":{\"kind\":\"aging\",\"circuits\":[\"c17\",\"c17\"],\
             \"policies\":[\"worst\",\"best\"]},\
             \"ras\":[[1,9],[1,1]],\"t_standby_k\":[330,400],\"lifetime_s\":[1e8]}";
        let r = handle(&s, &post("/v1/sweep", body), &d).0;
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("\"count\":16"));
        assert!(text.contains("\"policy\":\"worst\""));
        assert!(text.contains("\"policy\":\"best\""));
        // The whole body, point by point: each report computed apart from
        // the server, uncached, from the preparation it also uses.
        let circuit = builtin_resolver("c17").unwrap();
        let prep = AgingAnalysis::prep(&FlowConfig::paper_defaults().unwrap(), &circuit).unwrap();
        let points = parse_sweep(body.as_bytes()).unwrap().points();
        let expected: Vec<String> = points
            .iter()
            .map(|point| {
                let relia_jobs::JobTask::Aging {
                    circuit: name,
                    policy,
                } = &point.task
                else {
                    panic!("an aging sweep has aging tasks");
                };
                let ras = Ras::new(point.ras.0, point.ras.1).unwrap();
                let mut config = FlowConfig::with_schedule(ras, point.t_standby).unwrap();
                config.lifetime = point.lifetime;
                let report = AgingAnalysis::from_prep(&config, &circuit, prep.clone())
                    .run(&policy.to_policy())
                    .unwrap();
                format!(
                    "{{{},\"circuit\":\"{name}\",\"policy\":\"{}\",\"worst_delta_vth_v\":{},\
                     \"delay_degradation\":{},\"nominal_delay_ps\":{},\"degraded_delay_ps\":{}}}",
                    point_prefix(point),
                    policy.label(),
                    fmt_f64(report.worst_delta_vth()),
                    fmt_f64(report.degradation_fraction()),
                    fmt_f64(report.nominal.max_delay_ps()),
                    fmt_f64(report.degraded.max_delay_ps())
                )
            })
            .collect();
        let expected = format!(
            "{{\"count\":{},\"points\":[{}]}}",
            points.len(),
            expected.join(",")
        );
        assert_eq!(text, expected);
    }

    #[test]
    fn a_refused_sweep_row_answers_400_after_the_rows_ahead_of_it() {
        let s = state();
        let d = deadline(Duration::from_secs(30));
        // Row three of four has a RAS pair the schedule refuses.
        let body = "{\"workload\":{\"kind\":\"model\",\"p_active\":0.5,\"p_standby\":1},\
             \"ras\":[[1,9],[0,0]],\"t_standby_k\":[330,360],\"lifetime_s\":[1e8,3.2e7]}";
        let r = handle(&s, &post("/v1/sweep", body), &d).0;
        assert_eq!(r.status, 400, "{:?}", String::from_utf8_lossy(&r.body));
        assert!(String::from_utf8_lossy(&r.body).contains("invalid parameter ras = 0"));
        // As row by row: the two rows ahead were evaluated, the rest not.
        assert_eq!(s.cache.stats().entries, 4);
        // A standby temperature is checked with the lifetimes, before any
        // row runs.
        let s = state();
        let body = "{\"workload\":{\"kind\":\"model\",\"p_active\":0.5,\"p_standby\":1},\
             \"ras\":[[1,9]],\"t_standby_k\":[330,360,-10,400],\"lifetime_s\":[1e8,3.2e7]}";
        let r = handle(&s, &post("/v1/sweep", body), &d).0;
        assert_eq!(r.status, 400, "{:?}", String::from_utf8_lossy(&r.body));
        assert!(String::from_utf8_lossy(&r.body).contains("temp_standby = -10 K"));
        assert_eq!(s.cache.stats().entries, 0);
    }

    #[test]
    fn oversized_sweeps_get_413_and_unknown_circuits_400() {
        let s = state();
        let d = deadline(Duration::from_secs(5));
        let lifetimes: Vec<String> = (1..=300).map(|i| format!("{i}e6")).collect();
        let body = format!(
            "{{\"workload\":{{\"kind\":\"model\",\"p_active\":0.5,\"p_standby\":1}},\
             \"ras\":[[1,9]],\"t_standby_k\":[330],\"lifetime_s\":[{}]}}",
            lifetimes.join(",")
        );
        let r = handle(&s, &post("/v1/sweep", &body), &d).0;
        assert_eq!(r.status, 413);

        let body = "{\"workload\":{\"kind\":\"aging\",\"circuits\":[\"nope\"],\
             \"policies\":[\"worst\"]},\
             \"ras\":[[1,9]],\"t_standby_k\":[330],\"lifetime_s\":[1e8]}";
        let r = handle(&s, &post("/v1/sweep", body), &d).0;
        assert_eq!(r.status, 400);

        for body in ["not json at all", "{\"nonsense\":true}"] {
            let r = handle(&s, &post("/v1/sweep", body), &d).0;
            assert_eq!(r.status, 400, "{body}");
        }

        // A lifetime or a standby temperature the memo keys cannot hold is
        // refused by both workloads: 0.0004 K would key to 0 mK, and 1e7 K
        // and up would saturate a u32 of millikelvin onto one key.
        for workload in [
            "{\"kind\":\"model\",\"p_active\":0.5,\"p_standby\":1}",
            "{\"kind\":\"aging\",\"circuits\":[\"c17\"],\"policies\":[\"worst\"]}",
        ] {
            for (t_standby, lifetime, refused) in [
                ("330", "-1", "total_time"),
                ("330", "1e17", "total_time"),
                ("330,0.0004", "1e8", "temp_standby"),
                ("330,1e7", "1e8", "temp_standby"),
                ("330,1e300", "1e8", "temp_standby"),
            ] {
                let body = format!(
                    "{{\"workload\":{workload},\"ras\":[[1,9]],\"t_standby_k\":[{t_standby}],\
                     \"lifetime_s\":[{lifetime}]}}"
                );
                let r = handle(&s, &post("/v1/sweep", &body), &d).0;
                assert_eq!(r.status, 400, "{body}");
                let text = String::from_utf8(r.body).unwrap();
                assert!(text.contains(refused), "{text}");
            }
        }
    }

    const FLEET_BODY: &str = "{\"ras\":[1,9],\"t_standby_k\":330,\"p_active\":0.5,\
         \"p_standby\":1,\"times_s\":[3.156e7,1e8],\"samples\":2000}";

    #[test]
    fn fleet_matches_the_batch_engine_byte_for_byte() {
        let s = state();
        let d = deadline(Duration::from_secs(30));
        let r = handle(&s, &post("/v1/fleet", FLEET_BODY), &d).0;
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));

        // Ground truth: the fleet library at the default chunk size.
        let mut spec = FleetSpec::paper_defaults().unwrap();
        spec.times = vec![Seconds(3.156e7), Seconds(1e8)];
        spec.samples = 2000;
        let out = relia_fleet::run_fleet(&spec, &relia_fleet::FleetOptions::default()).unwrap();
        let expected = fleet_body(
            &out.summary,
            spec.samples.div_ceil(relia_fleet::DEFAULT_CHUNK),
        );
        assert_eq!(r.body, expected.into_bytes());
    }

    #[test]
    fn fleet_serves_ten_thousand_samples_within_the_deadline() {
        let s = state();
        let d = deadline(Duration::from_secs(60));
        let body = "{\"ras\":[1,9],\"t_standby_k\":330,\"p_active\":0.5,\"p_standby\":1,\
             \"times_s\":[3.156e7,9.468e7,1e8],\"samples\":10000,\"seed\":7}";
        let r = handle(&s, &post("/v1/fleet", body), &d).0;
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("\"samples\":10000"));
        assert!(text.contains("\"seed\":7"));
        assert!(text.contains("\"chunks\":5"));
        assert!(text.contains("\"lifetime_s\":{"));
    }

    #[test]
    fn fleet_rejects_oversized_and_malformed_requests() {
        let s = state();
        let d = deadline(Duration::from_secs(5));
        // Too many samples → 413.
        let body = "{\"ras\":[1,9],\"t_standby_k\":330,\"p_active\":0.5,\"p_standby\":1,\
             \"times_s\":[1e8],\"samples\":100001}";
        assert_eq!(handle(&s, &post("/v1/fleet", body), &d).0.status, 413);
        // Too many times → 413.
        let times: Vec<String> = (1..=17).map(|i| format!("{i}e6")).collect();
        let body = format!(
            "{{\"ras\":[1,9],\"t_standby_k\":330,\"p_active\":0.5,\"p_standby\":1,\
             \"times_s\":[{}],\"samples\":100}}",
            times.join(",")
        );
        assert_eq!(handle(&s, &post("/v1/fleet", &body), &d).0.status, 413);
        // Malformed bodies → 400.
        for body in [
            "",
            "not json",
            "{}",
            // Missing samples.
            "{\"ras\":[1,9],\"t_standby_k\":330,\"p_active\":0.5,\"p_standby\":1,\
             \"times_s\":[1e8]}",
            // Decreasing times.
            "{\"ras\":[1,9],\"t_standby_k\":330,\"p_active\":0.5,\"p_standby\":1,\
             \"times_s\":[1e8,1e7],\"samples\":100}",
            // Correlation out of range.
            "{\"ras\":[1,9],\"t_standby_k\":330,\"p_active\":0.5,\"p_standby\":1,\
             \"times_s\":[1e8],\"samples\":100,\"correlation\":2}",
            // Vth spread escapes [0, vdd).
            "{\"ras\":[1,9],\"t_standby_k\":330,\"p_active\":0.5,\"p_standby\":1,\
             \"times_s\":[1e8],\"samples\":100,\"vth_mean_v\":0.9,\"vth_sigma_v\":0.1}",
        ] {
            let r = handle(&s, &post("/v1/fleet", body), &d).0;
            assert_eq!(
                r.status,
                400,
                "{body:?} → {:?}",
                String::from_utf8_lossy(&r.body)
            );
        }
    }

    #[test]
    fn fleet_honours_deadline_and_drain() {
        let s = state();
        let r = handle(
            &s,
            &post("/v1/fleet", FLEET_BODY),
            &deadline(Duration::ZERO),
        )
        .0;
        assert_eq!(r.status, 504);

        s.begin_drain();
        let (r, _) = handle(
            &s,
            &post("/v1/fleet", FLEET_BODY),
            &deadline(Duration::from_secs(5)),
        );
        assert_eq!(r.status, 503);
        assert_eq!(r.retry_after, Some(1));
    }

    #[test]
    fn routing_covers_health_metrics_404_405() {
        let s = state();
        let d = deadline(Duration::from_secs(5));
        let r = handle(&s, &get("/healthz"), &d).0;
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"{\"status\":\"ok\"}");

        let r = handle(&s, &get("/metrics"), &d).0;
        assert_eq!(r.status, 200);
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("relia_serve_requests"));
        assert!(text.contains("relia_cache_hits"));
        assert!(text.contains("relia_serve_coalesce_leads"));

        let r = handle(&s, &get("/debug/trace"), &d).0;
        assert_eq!(r.status, 200);
        assert!(String::from_utf8(r.body)
            .unwrap()
            .starts_with("{\"dropped\":"));

        assert_eq!(handle(&s, &get("/nope"), &d).0.status, 404);
        assert_eq!(handle(&s, &get("/v1/degrade"), &d).0.status, 405);
        assert_eq!(handle(&s, &get("/v1/fleet"), &d).0.status, 405);
        assert_eq!(handle(&s, &post("/healthz", ""), &d).0.status, 405);
        assert_eq!(handle(&s, &post("/debug/trace", ""), &d).0.status, 405);
    }

    #[test]
    fn metrics_leads_with_build_info_and_uptime() {
        let s = state();
        let d = deadline(Duration::from_secs(5));
        let r = handle(&s, &get("/metrics"), &d).0;
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.starts_with(&format!(
            "# TYPE relia_build_info gauge\nrelia_build_info{{version=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION")
        )));
        assert!(text.contains("# TYPE relia_process_uptime_seconds gauge\n"));
    }

    #[test]
    fn degrade_populates_phase_histograms_on_metrics() {
        let s = state();
        let d = deadline(Duration::from_secs(5));
        assert_eq!(
            handle(&s, &post("/v1/degrade", &QUERY.to_body()), &d)
                .0
                .status,
            200
        );
        let snap = s.snapshot();
        for name in [
            "serve_coalesce_seconds",
            "serve_eval_seconds",
            "serve_serialize_seconds",
        ] {
            assert_eq!(snap.histogram(name).map(|h| h.count), Some(1), "{name}");
        }
        let text = String::from_utf8(handle(&s, &get("/metrics"), &d).0.body).unwrap();
        assert!(text.contains("# TYPE relia_serve_eval_seconds histogram\n"));
        assert!(text.contains("relia_serve_eval_seconds_count 1\n"));
        // One sample → exactly one finite bucket, cumulative count 1.
        assert!(text.contains("relia_serve_eval_seconds_bucket{le=\"+Inf\"} 1\n"));
    }

    #[test]
    fn debug_trace_returns_schema_pinned_spans_for_a_real_request() {
        let clock = Arc::new(relia_obs::TestClock::new());
        let s = state().with_obs(
            crate::obs::ServeObs::new().with_tracer(relia_obs::Tracer::with_clock(16, clock)),
        );
        let d = deadline(Duration::from_secs(5));
        let root = s.obs.tracer.span("request");
        let parent = root.id();
        let r = route(&s, &post("/v1/degrade", &QUERY.to_body()), &d, parent).buffered();
        assert_eq!(r.0.status, 200);
        drop(root);

        let r = handle(&s, &get("/debug/trace"), &d).0;
        assert_eq!(r.status, 200);
        let root_json = json::parse(&r.body).unwrap();
        assert_eq!(root_json.get("dropped").and_then(Json::as_f64), Some(0.0));
        let spans = root_json.get("spans").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = spans
            .iter()
            .map(|s| s.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, ["request", "coalesce", "evaluate", "serialize"]);
        for span in spans {
            for key in ["dur_ns", "id", "parent", "start_ns"] {
                assert!(span.get(key).and_then(Json::as_f64).is_some(), "{key}");
            }
        }
        // `coalesce` and `serialize` nest under the request root;
        // `evaluate` under `coalesce` (the leader's closure).
        let by_name = |n: &str| {
            spans
                .iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some(n))
                .unwrap()
        };
        let root_id = by_name("request").get("id").and_then(Json::as_f64).unwrap();
        assert_eq!(
            by_name("coalesce").get("parent").and_then(Json::as_f64),
            Some(root_id)
        );
        assert_eq!(
            by_name("serialize").get("parent").and_then(Json::as_f64),
            Some(root_id)
        );
        assert_eq!(
            by_name("evaluate").get("parent").and_then(Json::as_f64),
            by_name("coalesce").get("id").and_then(Json::as_f64)
        );
    }

    /// One 9×9×13 surface shared by the tier tests — building it is the
    /// expensive part (a few thousand model evaluations).
    fn test_surface() -> Surface {
        static SURFACE: std::sync::OnceLock<Surface> = std::sync::OnceLock::new();
        SURFACE
            .get_or_init(|| {
                let model = NbtiModel::ptm90().unwrap();
                let spec = relia_surface::BuildSpec {
                    t_active_k: vec![Kelvin(SWEEP_TEMP_ACTIVE_K)],
                    t_standby_k: relia_surface::kelvin_spaced(320.0, 400.0, 9),
                    ras_fraction: relia_surface::lin_spaced(0.1, 0.9, 9),
                    lifetime_s: relia_surface::log_spaced(1e6, 1e9, 13),
                    pairs: vec![(0.5, 1.0)],
                    period_s: SWEEP_PERIOD_S,
                    workers: 2,
                };
                Surface::from_artifact(relia_surface::build(&model, &spec).unwrap()).unwrap()
            })
            .clone()
    }

    fn body_delta_vth(response: &Response) -> f64 {
        json::parse(&response.body)
            .unwrap()
            .get("delta_vth_v")
            .and_then(Json::as_f64)
            .unwrap()
    }

    #[test]
    fn surface_tier_serves_hits_within_the_documented_bound() {
        let s = state().with_surface(test_surface());
        let d = deadline(Duration::from_secs(5));
        let r = handle(&s, &post("/v1/degrade", &QUERY.to_body()), &d).0;
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let tier = s.surface().unwrap();
        assert_eq!(
            (tier.hits(), tier.misses(), tier.fallbacks(), tier.clamps()),
            (1, 0, 0, 0)
        );
        let exact = body_delta_vth(&handle(&state(), &post("/v1/degrade", &QUERY.to_body()), &d).0);
        let err = relia_surface::rel_error(body_delta_vth(&r), exact);
        assert!(
            err <= relia_surface::DOCUMENTED_ERROR_BOUND,
            "rel error {err:e}"
        );
        // The ledger and gauge reach /metrics; the lookup fed its histogram.
        let snap = s.snapshot();
        assert_eq!(snap.counter("surface_hits"), Some(1));
        assert_eq!(snap.counter("surface_fallbacks"), Some(0));
        assert_eq!(snap.gauge("surface_active"), Some(1.0));
        assert_eq!(
            snap.histogram("serve_surface_seconds").map(|h| h.count),
            Some(1)
        );
        let text = String::from_utf8(handle(&s, &get("/metrics"), &d).0.body).unwrap();
        assert!(text.contains("relia_surface_hits 1\n"));
        assert!(text.contains("relia_surface_active 1\n"));
        // Without a surface the series still exist, at zero.
        let plain = state().snapshot();
        assert_eq!(plain.counter("surface_hits"), Some(0));
        assert_eq!(plain.gauge("surface_active"), Some(0.0));
    }

    #[test]
    fn surface_misses_and_clamps_fall_back_to_exact_byte_parity() {
        let s = state().with_surface(test_surface());
        let plain = state();
        let d = deadline(Duration::from_secs(5));
        // Standby temperature below the grid domain → clamp → exact path.
        let mut q = QUERY;
        q.t_standby_k = Kelvin(310.0);
        let r = handle(&s, &post("/v1/degrade", &q.to_body()), &d).0;
        let expect = handle(&plain, &post("/v1/degrade", &q.to_body()), &d).0;
        assert_eq!(r.status, 200);
        assert_eq!(r.body, expect.body, "fallback is byte-identical to exact");
        let tier = s.surface().unwrap();
        assert_eq!(
            (tier.hits(), tier.misses(), tier.fallbacks(), tier.clamps()),
            (0, 1, 1, 1)
        );
        // A stress pair the artifact has no block for → miss, no clamp.
        let mut q2 = QUERY;
        q2.p_active = 0.7;
        assert_eq!(
            handle(&s, &post("/v1/degrade", &q2.to_body()), &d).0.status,
            200
        );
        assert_eq!(
            (tier.hits(), tier.misses(), tier.fallbacks(), tier.clamps()),
            (0, 2, 2, 1)
        );
    }

    #[test]
    fn mode_exact_escape_hatch_keeps_byte_parity() {
        let s = state().with_surface(test_surface());
        let plain = state();
        let d = deadline(Duration::from_secs(5));
        let r = handle(&s, &post("/v1/degrade?mode=exact", &QUERY.to_body()), &d).0;
        let expect = handle(&plain, &post("/v1/degrade", &QUERY.to_body()), &d).0;
        assert_eq!(r.status, 200);
        assert_eq!(r.body, expect.body);
        let tier = s.surface().unwrap();
        assert_eq!((tier.hits(), tier.fallbacks()), (0, 1));
        // mode=surface is the default spelled out; unknown values are 400.
        let r = handle(&s, &post("/v1/degrade?mode=surface", &QUERY.to_body()), &d).0;
        assert_eq!(r.status, 200);
        assert_eq!(tier.hits(), 1);
        let r = handle(&s, &post("/v1/degrade?mode=banana", &QUERY.to_body()), &d).0;
        assert_eq!(r.status, 400);
        // Without a surface mounted, ?mode=exact is a harmless no-op.
        let r = handle(
            &plain,
            &post("/v1/degrade?mode=exact", &QUERY.to_body()),
            &d,
        )
        .0;
        assert_eq!(r.status, 200);
    }

    #[test]
    fn surface_hit_traces_a_surface_span() {
        let clock = Arc::new(relia_obs::TestClock::new());
        let s = state()
            .with_obs(
                crate::obs::ServeObs::new().with_tracer(relia_obs::Tracer::with_clock(16, clock)),
            )
            .with_surface(test_surface());
        let d = deadline(Duration::from_secs(5));
        let root = s.obs.tracer.span("request");
        let r = route(&s, &post("/v1/degrade", &QUERY.to_body()), &d, root.id()).buffered();
        assert_eq!(r.0.status, 200);
        drop(root);
        let parsed = json::parse(s.obs.trace_json().as_bytes()).unwrap();
        let names: Vec<&str> = parsed
            .get("spans")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|sp| sp.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, ["request", "surface"]);
    }

    /// Decodes a chunked wire capture into (head, reassembled body).
    fn decode_chunked(raw: &[u8]) -> (String, String) {
        let text = std::str::from_utf8(raw).unwrap();
        let split = text.find("\r\n\r\n").unwrap();
        let head = &text[..split];
        let mut rest = &text[split + 4..];
        let mut body = String::new();
        loop {
            let line_end = rest.find("\r\n").unwrap();
            let size = usize::from_str_radix(&rest[..line_end], 16).unwrap();
            rest = &rest[line_end + 2..];
            if size == 0 {
                assert_eq!(rest, "\r\n", "terminator, no trailers");
                break;
            }
            body.push_str(&rest[..size]);
            assert_eq!(&rest[size..size + 2], "\r\n");
            rest = &rest[size + 2..];
        }
        (head.to_owned(), body)
    }

    #[test]
    fn streamed_fleet_reports_progress_then_the_buffered_summary() {
        let s = state();
        let d = deadline(Duration::from_secs(30));
        let mut wire = Vec::new();
        let Reply::Stream(job) = route(&s, &post("/v1/fleet", FLEET_BODY), &d, 0) else {
            panic!("expected an admitted study");
        };
        let (status, written) = job.stream(&mut wire);
        assert_eq!(status, 200);
        written.unwrap();
        let (head, body) = decode_chunked(&wire);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains("transfer-encoding: chunked"));
        let chunks = 2000usize.div_ceil(DEFAULT_CHUNK);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), chunks + 1);
        assert_eq!(lines[0], format!("{{\"chunk\":1,\"of\":{chunks}}}"));
        // The final frame is exactly the buffered summary body.
        let mut spec = FleetSpec::paper_defaults().unwrap();
        spec.times = vec![Seconds(3.156e7), Seconds(1e8)];
        spec.samples = 2000;
        let ground = relia_fleet::run_fleet(&spec, &relia_fleet::FleetOptions::default()).unwrap();
        assert_eq!(*lines.last().unwrap(), fleet_body(&ground.summary, chunks));
        assert_eq!(s.metrics.snapshot().counter("serve_requests"), Some(1));
    }

    #[test]
    fn streamed_fleet_buffers_pre_stream_failures() {
        let s = state();
        let d = deadline(Duration::from_secs(5));
        // Parse errors are rendered responses: they never reach a stream.
        match route(&s, &post("/v1/fleet", "nope"), &d, 0) {
            Reply::Respond(r) => assert_eq!(r.status, 400),
            _ => panic!("expected a buffered 400"),
        }
        s.begin_drain();
        match route(&s, &post("/v1/fleet", FLEET_BODY), &d, 0) {
            Reply::Respond(r) => {
                assert_eq!(r.status, 503);
                assert!(r.close);
            }
            _ => panic!("expected a buffered 503"),
        }
    }

    #[test]
    fn streamed_fleet_mid_stream_deadline_emits_an_error_frame() {
        let s = state();
        let d = deadline(Duration::ZERO);
        let mut wire = Vec::new();
        let Reply::Stream(job) = route(&s, &post("/v1/fleet", FLEET_BODY), &d, 0) else {
            panic!("expected an admitted study");
        };
        let (status, written) = job.stream(&mut wire);
        assert_eq!(status, 504);
        written.unwrap();
        let (_, body) = decode_chunked(&wire);
        assert_eq!(body, "{\"error\":\"request deadline exceeded\"}\n");
    }

    /// A peer that hung up: every write fails.
    struct Gone;

    impl io::Write for Gone {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_stream_cut_by_its_peer_keeps_the_heads_status() {
        let s = state();
        let d = deadline(Duration::from_secs(30));
        let Reply::Stream(job) = route(&s, &post("/v1/fleet", FLEET_BODY), &d, 0) else {
            panic!("expected an admitted study");
        };
        let (status, written) = job.stream(&mut Gone);
        assert_eq!(status, 200, "the head's status: no verdict on the model");
        assert!(written.is_err());
    }

    #[test]
    fn shutdown_drains_and_sheds_later_requests() {
        let s = state();
        let d = deadline(Duration::from_secs(5));
        let (r, action) = handle(&s, &post("/admin/shutdown", ""), &d);
        assert_eq!(r.status, 200);
        assert_eq!(action, Action::Shutdown);
        assert!(s.is_draining());

        let (r, action) = handle(&s, &post("/v1/degrade", &QUERY.to_body()), &d);
        assert_eq!(r.status, 503);
        assert_eq!(r.retry_after, Some(1));
        assert_eq!(action, Action::Continue);

        // Health stays reachable for orchestration probes.
        let r = handle(&s, &get("/healthz"), &d).0;
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"{\"status\":\"draining\"}");
    }
}
