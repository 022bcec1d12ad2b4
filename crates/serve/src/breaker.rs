//! Adaptive overload control: a per-endpoint circuit breaker around model
//! evaluation, a brownout gate, and the server's health state machine.
//!
//! ## Circuit breaker
//!
//! Each evaluation-bearing endpoint (`/v1/degrade`, `/v1/sweep`,
//! `/v1/fleet`) owns a [`CircuitBreaker`]:
//!
//! ```text
//!            threshold consecutive 5xx/504
//!   Closed ───────────────────────────────▶ Open
//!     ▲                                      │ cooldown elapses
//!     │ probe succeeds          probe fails  ▼
//!     └────────────────── HalfOpen ◀─────────┘
//!                          (one probe at a time)
//! ```
//!
//! The hot path is lock-free: while the breaker is closed, [`admit`]
//! reads one atomic and returns. Only state *transitions* take the mutex,
//! so a healthy server pays nanoseconds per request for the protection.
//!
//! ## Brownout
//!
//! [`OverloadControl::gate`] combines the breaker with a queue-depth
//! high-water mark: when the breaker is open or too many connections are
//! in flight, evaluation is gated to **cache-hit-only** — a memoized
//! answer is still served, a cold evaluation becomes a fast
//! `503 + Retry-After` (with deterministic bounded jitter so a
//! synchronized client fleet doesn't retry in lockstep).
//!
//! ## Health
//!
//! [`HealthMachine`] folds the overload signals into the
//! `Healthy → Degraded → Draining` state behind `/healthz`, counting and
//! logging every transition. Draining is absorbing; Healthy ↔ Degraded
//! follow the brownout signal.
//!
//! [`admit`]: CircuitBreaker::admit

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use relia_core::seal::SplitMix64;

/// Overload-control knobs, all CLI-settable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Consecutive evaluation failures (5xx/504) that open a breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker waits before admitting a half-open probe.
    pub breaker_cooldown: Duration,
    /// In-flight connections (queued + handling) beyond which brownout
    /// engages even with the breakers closed.
    pub brownout_high_water: u64,
    /// Smallest `Retry-After` a brownout shed advertises, seconds.
    pub retry_after_base: u32,
    /// Jitter span added to the base: advertised values are uniform in
    /// `base..=base + jitter`, from a deterministic sequence.
    pub retry_after_jitter: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(1),
            brownout_high_water: 48,
            retry_after_base: 1,
            retry_after_jitter: 2,
        }
    }
}

/// The three breaker states (also the `/metrics` gauge encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation (gauge 0).
    Closed,
    /// Cooldown elapsed; one probe may test the water (gauge 1).
    HalfOpen,
    /// Shedding; evaluation is not attempted (gauge 2).
    Open,
}

impl BreakerState {
    /// The `/metrics` gauge value.
    pub fn gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }

    /// The `/healthz` body token.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::HalfOpen => "half-open",
            BreakerState::Open => "open",
        }
    }
}

const TAG_CLOSED: u8 = 0;
const TAG_HALF_OPEN: u8 = 1;
const TAG_OPEN: u8 = 2;

/// What [`CircuitBreaker::admit`] decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: evaluate normally.
    Normal,
    /// Breaker half-open and this request won the probe slot: evaluate,
    /// and the reported outcome decides Closed vs Open.
    Probe,
    /// Breaker open (or the probe slot is taken): do not evaluate.
    Shed,
}

/// Fields only touched on state transitions (never on the closed-state
/// hot path).
#[derive(Debug)]
struct BreakerSlow {
    opened_at: Option<Instant>,
    probe_in_flight: bool,
}

/// A consecutive-failure circuit breaker with half-open probes. All
/// methods take the caller's `Instant` so tests drive time explicitly.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    tag: AtomicU8,
    failures: AtomicU32,
    opens: AtomicU64,
    slow: Mutex<BreakerSlow>,
}

impl CircuitBreaker {
    /// A closed breaker opening after `threshold` consecutive failures
    /// (min 1) and probing after `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            tag: AtomicU8::new(TAG_CLOSED),
            failures: AtomicU32::new(0),
            opens: AtomicU64::new(0),
            slow: Mutex::new(BreakerSlow {
                opened_at: None,
                probe_in_flight: false,
            }),
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        match self.tag.load(Ordering::Acquire) {
            TAG_OPEN => BreakerState::Open,
            TAG_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Closed → Open transitions so far.
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// Gate one request at time `now`. Lock-free while closed.
    pub fn admit(&self, now: Instant) -> Admission {
        if self.tag.load(Ordering::Acquire) == TAG_CLOSED {
            return Admission::Normal;
        }
        // relia-lint: allow(unwrap-in-lib)
        let mut slow = self.slow.lock().expect("breaker state poisoned");
        match self.tag.load(Ordering::Acquire) {
            TAG_CLOSED => Admission::Normal, // raced a probe close
            TAG_OPEN => {
                let cooled = slow
                    .opened_at
                    .is_none_or(|at| now.duration_since(at) >= self.cooldown);
                if cooled && !slow.probe_in_flight {
                    slow.probe_in_flight = true;
                    self.tag.store(TAG_HALF_OPEN, Ordering::Release);
                    Admission::Probe
                } else {
                    Admission::Shed
                }
            }
            _ => {
                // Half-open: one probe at a time.
                if slow.probe_in_flight {
                    Admission::Shed
                } else {
                    slow.probe_in_flight = true;
                    Admission::Probe
                }
            }
        }
    }

    /// Reports a successful evaluation: resets the failure run; a probe
    /// success closes the breaker.
    pub fn record_success(&self) {
        if self.tag.load(Ordering::Acquire) == TAG_CLOSED {
            self.failures.store(0, Ordering::Relaxed);
            return;
        }
        // relia-lint: allow(unwrap-in-lib)
        let mut slow = self.slow.lock().expect("breaker state poisoned");
        if self.tag.load(Ordering::Acquire) != TAG_CLOSED {
            slow.probe_in_flight = false;
            slow.opened_at = None;
            self.failures.store(0, Ordering::Relaxed);
            self.tag.store(TAG_CLOSED, Ordering::Release);
        }
    }

    /// Reports a failed evaluation (5xx/504) at time `now`: extends the
    /// failure run (opening the breaker at the threshold); a probe
    /// failure reopens immediately.
    pub fn record_failure(&self, now: Instant) {
        match self.tag.load(Ordering::Acquire) {
            TAG_CLOSED => {
                let run = self.failures.fetch_add(1, Ordering::Relaxed) + 1;
                if run >= self.threshold {
                    // relia-lint: allow(unwrap-in-lib)
                    let mut slow = self.slow.lock().expect("breaker state poisoned");
                    if self.tag.load(Ordering::Acquire) == TAG_CLOSED {
                        slow.opened_at = Some(now);
                        slow.probe_in_flight = false;
                        self.opens.fetch_add(1, Ordering::Relaxed);
                        self.tag.store(TAG_OPEN, Ordering::Release);
                    }
                }
            }
            TAG_HALF_OPEN => {
                // relia-lint: allow(unwrap-in-lib)
                let mut slow = self.slow.lock().expect("breaker state poisoned");
                if self.tag.load(Ordering::Acquire) == TAG_HALF_OPEN {
                    slow.opened_at = Some(now);
                    slow.probe_in_flight = false;
                    self.opens.fetch_add(1, Ordering::Relaxed);
                    self.tag.store(TAG_OPEN, Ordering::Release);
                }
            }
            _ => {} // already open; the clock keeps running from opened_at
        }
    }
}

/// The evaluation-bearing endpoints, each with its own breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/degrade`.
    Degrade,
    /// `POST /v1/sweep`.
    Sweep,
    /// `POST /v1/fleet`.
    Fleet,
}

/// What the overload gate decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalGate {
    /// Evaluate normally.
    Normal,
    /// Half-open probe: evaluate, outcome decides the breaker.
    Probe,
    /// Brownout: serve only from the cache; a miss is a fast 503.
    CacheOnly,
}

/// Decrements the in-flight gauge on drop, so a panicking handler still
/// releases its slot.
#[derive(Debug)]
pub struct InflightGuard<'a> {
    gauge: &'a AtomicU64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The server-wide overload controller: three per-endpoint breakers, the
/// in-flight gauge the brownout high-water mark watches, and the shed
/// counters behind `/metrics`.
#[derive(Debug)]
pub struct OverloadControl {
    config: OverloadConfig,
    degrade: CircuitBreaker,
    sweep: CircuitBreaker,
    fleet: CircuitBreaker,
    inflight: AtomicU64,
    brownout_sheds: AtomicU64,
    jitter_seq: AtomicU64,
}

impl Default for OverloadControl {
    fn default() -> Self {
        OverloadControl::new(OverloadConfig::default())
    }
}

impl OverloadControl {
    /// A controller with every breaker closed and nothing in flight.
    pub fn new(config: OverloadConfig) -> Self {
        let breaker = || CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown);
        OverloadControl {
            config,
            degrade: breaker(),
            sweep: breaker(),
            fleet: breaker(),
            inflight: AtomicU64::new(0),
            brownout_sheds: AtomicU64::new(0),
            jitter_seq: AtomicU64::new(0),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &OverloadConfig {
        &self.config
    }

    /// The breaker guarding `endpoint`.
    pub fn breaker(&self, endpoint: Endpoint) -> &CircuitBreaker {
        match endpoint {
            Endpoint::Degrade => &self.degrade,
            Endpoint::Sweep => &self.sweep,
            Endpoint::Fleet => &self.fleet,
        }
    }

    /// Connections currently queued or being handled.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Accounts a connection entering the queue (accept loop side).
    pub fn conn_enqueued(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Reverses [`conn_enqueued`](Self::conn_enqueued) for a connection
    /// that was shed before a handler adopted it.
    pub fn conn_dequeued(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Adopts an enqueued connection into a drop guard: the handler holds
    /// it for the connection's lifetime and the gauge self-corrects even
    /// if the handler panics.
    pub fn adopt_inflight(&self) -> InflightGuard<'_> {
        InflightGuard {
            gauge: &self.inflight,
        }
    }

    /// True when the queue is past the brownout high-water mark.
    pub fn queue_congested(&self) -> bool {
        self.inflight() > self.config.brownout_high_water
    }

    /// True when the server should advertise degraded service: any
    /// breaker not closed, or the queue past its high-water mark.
    pub fn degraded(&self) -> bool {
        self.queue_congested()
            || [Endpoint::Degrade, Endpoint::Sweep, Endpoint::Fleet]
                .iter()
                .any(|&e| self.breaker(e).state() != BreakerState::Closed)
    }

    /// Gate one request for `endpoint` at time `now`.
    pub fn gate(&self, endpoint: Endpoint, now: Instant) -> EvalGate {
        match self.breaker(endpoint).admit(now) {
            Admission::Probe => EvalGate::Probe,
            Admission::Shed => EvalGate::CacheOnly,
            Admission::Normal => {
                if self.queue_congested() {
                    EvalGate::CacheOnly
                } else {
                    EvalGate::Normal
                }
            }
        }
    }

    /// Reports the final status of a gated request to its breaker: 5xx
    /// and 504 burn the error budget, everything else (including 4xx —
    /// the service answered, the request was wrong) counts as healthy.
    /// Always settles a probe, so the slot cannot leak.
    pub fn settle(&self, endpoint: Endpoint, status: u16, now: Instant) {
        if status >= 500 {
            self.breaker(endpoint).record_failure(now);
        } else {
            self.breaker(endpoint).record_success();
        }
    }

    /// Counts one brownout shed (cache miss answered with a fast 503).
    pub fn count_brownout_shed(&self) {
        self.brownout_sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Brownout sheds so far.
    pub fn brownout_sheds(&self) -> u64 {
        self.brownout_sheds.load(Ordering::Relaxed)
    }

    /// The next `Retry-After` value: `base..=base + jitter`, drawn from a
    /// [`SplitMix64`] hash of a sequence counter — bounded jitter without
    /// ambient entropy, so chaos runs stay reproducible.
    pub fn retry_after(&self) -> u32 {
        let span = u64::from(self.config.retry_after_jitter) + 1;
        let seq = self.jitter_seq.fetch_add(1, Ordering::Relaxed);
        let z = SplitMix64::new(seq).next_u64();
        self.config.retry_after_base + (z % span) as u32
    }

    /// Total Closed → Open transitions across every endpoint.
    pub fn breaker_opens(&self) -> u64 {
        self.degrade.opens() + self.sweep.opens() + self.fleet.opens()
    }
}

/// The `/healthz` states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Full service.
    Healthy,
    /// Overload control is active (breaker open/half-open or brownout).
    Degraded,
    /// Graceful drain in progress; this state is absorbing.
    Draining,
}

impl HealthState {
    /// The `/healthz` body token.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Draining => "draining",
        }
    }
}

/// One recorded health transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// Monotonic transition number (1-based).
    pub seq: u64,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
}

/// Most recent transitions the in-memory log retains.
const HEALTH_LOG_CAP: usize = 64;

type HealthLogger = Box<dyn Fn(&HealthTransition) + Send + Sync>;

struct HealthInner {
    current: HealthState,
    log: Vec<HealthTransition>,
    seq: u64,
    logger: Option<HealthLogger>,
}

/// The observed health state machine: each [`observe`](HealthMachine::observe)
/// folds the drain flag and the overload signal into the current state,
/// recording (and optionally logging) every transition.
pub struct HealthMachine {
    inner: Mutex<HealthInner>,
    transitions: AtomicU64,
}

impl std::fmt::Debug for HealthMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMachine")
            .field("transitions", &self.transitions.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for HealthMachine {
    fn default() -> Self {
        HealthMachine {
            inner: Mutex::new(HealthInner {
                current: HealthState::Healthy,
                log: Vec::new(),
                seq: 0,
                logger: None,
            }),
            transitions: AtomicU64::new(0),
        }
    }
}

impl HealthMachine {
    /// A machine starting Healthy.
    pub fn new() -> Self {
        HealthMachine::default()
    }

    /// Installs a transition logger (the CLI prints transitions to
    /// stderr; the library itself never prints).
    pub fn set_logger(&self, logger: HealthLogger) {
        // relia-lint: allow(unwrap-in-lib)
        let mut inner = self.inner.lock().expect("health state poisoned");
        inner.logger = Some(logger);
    }

    /// Folds the current signals into the state machine and returns the
    /// resulting state. `draining` is absorbing; otherwise `degraded`
    /// selects between Degraded and Healthy.
    pub fn observe(&self, draining: bool, degraded: bool) -> HealthState {
        let next = if draining {
            HealthState::Draining
        } else if degraded {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        };
        // relia-lint: allow(unwrap-in-lib)
        let mut inner = self.inner.lock().expect("health state poisoned");
        if inner.current == HealthState::Draining {
            return HealthState::Draining; // absorbing
        }
        if next != inner.current {
            inner.seq += 1;
            let transition = HealthTransition {
                seq: inner.seq,
                from: inner.current,
                to: next,
            };
            inner.current = next;
            if inner.log.len() == HEALTH_LOG_CAP {
                inner.log.remove(0);
            }
            inner.log.push(transition);
            self.transitions.fetch_add(1, Ordering::Relaxed);
            if let Some(logger) = &inner.logger {
                logger(&transition);
            }
        }
        inner.current
    }

    /// The state as of the last observation.
    pub fn current(&self) -> HealthState {
        // relia-lint: allow(unwrap-in-lib)
        self.inner.lock().expect("health state poisoned").current
    }

    /// Total transitions recorded.
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// The retained transition log (the most recent 64 entries), oldest
    /// first.
    pub fn log(&self) -> Vec<HealthTransition> {
        // relia-lint: allow(unwrap-in-lib)
        let inner = self.inner.lock().expect("health state poisoned");
        inner.log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Instant {
        Instant::now()
    }

    #[test]
    fn breaker_opens_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(3, Duration::from_secs(1));
        let now = t0();
        assert_eq!(b.admit(now), Admission::Normal);
        b.record_failure(now);
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Closed, "under threshold");
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        assert_eq!(b.admit(now), Admission::Shed, "open sheds immediately");
    }

    #[test]
    fn a_success_resets_the_failure_run() {
        let b = CircuitBreaker::new(3, Duration::from_secs(1));
        let now = t0();
        b.record_failure(now);
        b.record_failure(now);
        b.record_success();
        b.record_failure(now);
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Closed, "run was reset");
    }

    #[test]
    fn half_open_admits_exactly_one_probe_and_success_closes() {
        let b = CircuitBreaker::new(1, Duration::from_millis(100));
        let now = t0();
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Open);
        // Before the cooldown: shed.
        assert_eq!(b.admit(now + Duration::from_millis(50)), Admission::Shed);
        // After the cooldown: one probe, others shed behind it.
        let later = now + Duration::from_millis(150);
        assert_eq!(b.admit(later), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(later), Admission::Shed, "probe slot is taken");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(later), Admission::Normal);
    }

    #[test]
    fn a_failed_probe_reopens_and_restarts_the_cooldown() {
        let b = CircuitBreaker::new(1, Duration::from_millis(100));
        let now = t0();
        b.record_failure(now);
        let probe_at = now + Duration::from_millis(150);
        assert_eq!(b.admit(probe_at), Admission::Probe);
        b.record_failure(probe_at);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        // The cooldown restarts from the probe failure.
        assert_eq!(
            b.admit(probe_at + Duration::from_millis(50)),
            Admission::Shed
        );
        assert_eq!(
            b.admit(probe_at + Duration::from_millis(150)),
            Admission::Probe
        );
    }

    #[test]
    fn gate_goes_cache_only_past_the_high_water_mark() {
        let control = OverloadControl::new(OverloadConfig {
            brownout_high_water: 2,
            ..OverloadConfig::default()
        });
        let now = t0();
        assert_eq!(control.gate(Endpoint::Degrade, now), EvalGate::Normal);
        control.conn_enqueued();
        control.conn_enqueued();
        control.conn_enqueued();
        assert!(control.queue_congested());
        assert!(control.degraded());
        assert_eq!(control.gate(Endpoint::Degrade, now), EvalGate::CacheOnly);
        {
            let _a = control.adopt_inflight();
            let _b = control.adopt_inflight();
        }
        control.conn_dequeued();
        assert_eq!(control.inflight(), 0);
        assert_eq!(control.gate(Endpoint::Degrade, now), EvalGate::Normal);
        assert!(!control.degraded());
    }

    #[test]
    fn settle_burns_budget_only_on_5xx() {
        let control = OverloadControl::new(OverloadConfig {
            breaker_threshold: 2,
            ..OverloadConfig::default()
        });
        let now = t0();
        control.settle(Endpoint::Sweep, 500, now);
        control.settle(Endpoint::Sweep, 400, now);
        control.settle(Endpoint::Sweep, 500, now);
        assert_eq!(
            control.breaker(Endpoint::Sweep).state(),
            BreakerState::Closed,
            "the 400 reset the run"
        );
        control.settle(Endpoint::Sweep, 504, now);
        assert_eq!(control.breaker(Endpoint::Sweep).state(), BreakerState::Open);
        assert_eq!(control.breaker_opens(), 1);
        // The other endpoints are independent.
        assert_eq!(
            control.breaker(Endpoint::Degrade).state(),
            BreakerState::Closed
        );
        assert_eq!(control.gate(Endpoint::Degrade, now), EvalGate::Normal);
        assert_eq!(control.gate(Endpoint::Sweep, now), EvalGate::CacheOnly);
    }

    #[test]
    fn retry_after_is_bounded_and_deterministic() {
        let a = OverloadControl::new(OverloadConfig {
            retry_after_base: 1,
            retry_after_jitter: 2,
            ..OverloadConfig::default()
        });
        let b = OverloadControl::new(OverloadConfig {
            retry_after_base: 1,
            retry_after_jitter: 2,
            ..OverloadConfig::default()
        });
        let seq_a: Vec<u32> = (0..64).map(|_| a.retry_after()).collect();
        let seq_b: Vec<u32> = (0..64).map(|_| b.retry_after()).collect();
        assert_eq!(seq_a, seq_b, "jitter is a deterministic sequence");
        assert!(seq_a.iter().all(|&v| (1..=3).contains(&v)));
        assert!(seq_a.windows(2).any(|w| w[0] != w[1]), "jitter varies");
        // Zero jitter degenerates to the base.
        let c = OverloadControl::new(OverloadConfig {
            retry_after_base: 7,
            retry_after_jitter: 0,
            ..OverloadConfig::default()
        });
        assert!((0..16).all(|_| c.retry_after() == 7));
    }

    #[test]
    fn health_machine_walks_healthy_degraded_draining() {
        let h = HealthMachine::new();
        assert_eq!(h.current(), HealthState::Healthy);
        assert_eq!(h.observe(false, false), HealthState::Healthy);
        assert_eq!(h.transitions(), 0, "no-op observations record nothing");
        assert_eq!(h.observe(false, true), HealthState::Degraded);
        assert_eq!(h.observe(false, false), HealthState::Healthy);
        assert_eq!(h.observe(true, false), HealthState::Draining);
        assert_eq!(h.transitions(), 3);
        // Draining absorbs every later signal.
        assert_eq!(h.observe(false, false), HealthState::Draining);
        assert_eq!(h.observe(false, true), HealthState::Draining);
        assert_eq!(h.transitions(), 3);
        let log = h.log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].from, HealthState::Healthy);
        assert_eq!(log[0].to, HealthState::Degraded);
        assert_eq!(log[2].to, HealthState::Draining);
        assert_eq!(log[2].seq, 3);
    }

    #[test]
    fn health_logger_sees_every_transition() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let h = HealthMachine::new();
        let seen = Arc::new(AtomicUsize::new(0));
        let seen_by_logger = Arc::clone(&seen);
        h.set_logger(Box::new(move |t| {
            assert!(t.seq >= 1);
            seen_by_logger.fetch_add(1, Ordering::Relaxed);
        }));
        h.observe(false, true);
        h.observe(false, true);
        h.observe(false, false);
        assert_eq!(seen.load(Ordering::Relaxed), 2);
    }
}
