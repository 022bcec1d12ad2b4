//! Overload control: a brownout gate on the in-flight connection count,
//! and the server's health state machine.
//!
//! ## Brownout
//!
//! Every connection counts into an in-flight gauge from the moment the
//! accept loop queues it until its handler finishes. At or under the
//! brownout high-water mark, evaluation is admitted; past it,
//! [`OverloadControl::queue_congested`] gates evaluation to
//! **cache-hit-only** — a memoized answer is still served, a cold
//! evaluation becomes a fast `503 + Retry-After` (with deterministic
//! bounded jitter so a synchronized client fleet doesn't retry in
//! lockstep).
//!
//! ## Health
//!
//! [`HealthMachine`] folds the drain flag and the brownout signal into the
//! `Healthy → Degraded → Draining` state behind `/healthz` each time
//! `/healthz` is read, counting each transition it sees and handing it to
//! an optional logger. Draining is absorbing; Healthy ↔ Degraded follow
//! the brownout signal.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use relia_core::seal::SplitMix64;

/// In-flight connections (queued + handling) beyond which brownout
/// engages, unless [`OverloadControl::new`] is given another mark.
pub const DEFAULT_BROWNOUT_HIGH_WATER: u64 = 48;

/// Smallest `Retry-After` a brownout shed advertises, seconds.
const RETRY_AFTER_BASE: u32 = 1;

/// Jitter span added to the base: advertised values are uniform in
/// `RETRY_AFTER_BASE..=RETRY_AFTER_BASE + RETRY_AFTER_JITTER`.
const RETRY_AFTER_JITTER: u32 = 2;

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

/// The server-wide overload controller: the in-flight gauge the brownout
/// high-water mark watches, and the shed counter behind `/metrics`.
#[derive(Debug)]
pub struct OverloadControl {
    brownout_high_water: u64,
    inflight: AtomicU64,
    brownout_sheds: AtomicU64,
    jitter_seq: AtomicU64,
}

impl Default for OverloadControl {
    fn default() -> Self {
        OverloadControl::new(DEFAULT_BROWNOUT_HIGH_WATER)
    }
}

impl OverloadControl {
    /// A controller with nothing in flight, browning out past
    /// `brownout_high_water` in-flight connections.
    pub fn new(brownout_high_water: u64) -> Self {
        OverloadControl {
            brownout_high_water,
            inflight: AtomicU64::new(0),
            brownout_sheds: AtomicU64::new(0),
            jitter_seq: AtomicU64::new(0),
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

    /// True when the queue is past the brownout high-water mark: cold
    /// evaluation is shed, and the server advertises degraded service.
    pub fn queue_congested(&self) -> bool {
        self.inflight() > self.brownout_high_water
    }

    /// Counts one brownout shed (cache miss answered with a fast 503).
    pub fn count_brownout_shed(&self) {
        self.brownout_sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Brownout sheds so far.
    pub fn brownout_sheds(&self) -> u64 {
        self.brownout_sheds.load(Ordering::Relaxed)
    }

    /// The next `Retry-After` value, 1 to 3 seconds, drawn from a
    /// [`SplitMix64`] hash of a sequence counter — bounded jitter without
    /// ambient entropy, so chaos runs stay reproducible.
    pub fn retry_after(&self) -> u32 {
        let span = u64::from(RETRY_AFTER_JITTER) + 1;
        let seq = self.jitter_seq.fetch_add(1, Ordering::Relaxed);
        let z = SplitMix64::new(seq).next_u64();
        RETRY_AFTER_BASE + (z % span) as u32
    }
}

/// The `/healthz` states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Full service.
    Healthy,
    /// Brownout: the in-flight count is past the high-water mark.
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

type HealthLogger = Box<dyn Fn(&HealthTransition) + Send + Sync>;

struct HealthInner {
    current: HealthState,
    seq: u64,
    logger: Option<HealthLogger>,
}

/// The observed health state machine: each [`observe`](HealthMachine::observe)
/// folds the drain flag and the brownout signal into the current state,
/// counting (and optionally logging) the transition it makes, if any. The
/// server observes only when `/healthz` is read, so a brownout that comes
/// and goes between two reads records no transition.
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
        #[expect(clippy::expect_used, reason = "a poisoned lock is a bug to surface")]
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
        #[expect(clippy::expect_used, reason = "a poisoned lock is a bug to surface")]
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
            self.transitions.fetch_add(1, Ordering::Relaxed);
            if let Some(logger) = &inner.logger {
                logger(&transition);
            }
        }
        inner.current
    }

    /// The state as of the last observation.
    pub fn current(&self) -> HealthState {
        #[expect(clippy::expect_used, reason = "a poisoned lock is a bug to surface")]
        self.inner.lock().expect("health state poisoned").current
    }

    /// Total transitions observed.
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn gate_goes_cache_only_past_the_high_water_mark() {
        let control = OverloadControl::new(2);
        assert!(!control.queue_congested());
        control.conn_enqueued();
        control.conn_enqueued();
        assert!(!control.queue_congested(), "at the mark cold work runs");
        control.conn_enqueued();
        assert!(control.queue_congested(), "cache-hit-only");
        {
            let _a = control.adopt_inflight();
            let _b = control.adopt_inflight();
        }
        control.conn_dequeued();
        assert_eq!(control.inflight(), 0);
        assert!(!control.queue_congested());
    }

    #[test]
    fn retry_after_is_bounded_and_deterministic() {
        let a = OverloadControl::default();
        let b = OverloadControl::default();
        let seq_a: Vec<u32> = (0..64).map(|_| a.retry_after()).collect();
        let seq_b: Vec<u32> = (0..64).map(|_| b.retry_after()).collect();
        assert_eq!(seq_a, seq_b, "jitter is a deterministic sequence");
        assert!(seq_a.iter().all(|&v| (1..=3).contains(&v)));
        assert!(seq_a.windows(2).any(|w| w[0] != w[1]), "jitter varies");
    }

    #[test]
    fn health_machine_walks_healthy_degraded_draining() {
        let h = HealthMachine::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        h.set_logger(Box::new(move |t| sink.lock().unwrap().push(*t)));
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
        let log = seen.lock().unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].from, HealthState::Healthy);
        assert_eq!(log[0].to, HealthState::Degraded);
        assert_eq!(log[2].to, HealthState::Draining);
        assert_eq!(log[2].seq, 3);
    }

    #[test]
    fn health_logger_sees_every_transition() {
        use std::sync::atomic::AtomicUsize;
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
