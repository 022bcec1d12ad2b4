//! A std-only ordered worker pool with per-job fault isolation and
//! watchdog deadlines.
//!
//! Workers claim jobs from a shared atomic counter (work stealing without
//! queues), run each one under [`std::panic::catch_unwind`], and report
//! `(index, outcome)` pairs over a channel. The collector delivers results
//! **in job index order**, so the output order is a function of the job
//! list alone — never of thread scheduling — and a failing job poisons
//! nothing: it becomes [`JobOutcome::Failed`] (or
//! [`JobOutcome::TimedOut`]) while every other job completes normally.
//!
//! In-order delivery: the collector hands outcome `i` on as soon as
//! outcomes `0..i` have gone, buffering only those that finished ahead of
//! a lower, unfinished index. [`run_pool`] and [`run_ordered`] collect the
//! stream into a `Vec`. [`run_folded`] lets the caller fold it instead and
//! bounds the buffer with a **window**: a worker does not start job `i`
//! until `i < consumed + 2 · workers`, so a run over any number of jobs
//! keeps at most that many outcomes alive.
//!
//! Every job runs once. A panic, or an `Err(reason)` the job returns,
//! makes it [`JobOutcome::Failed`] with that reason. There is no retry:
//! the sweep, fleet and surface jobs are pure functions of their inputs,
//! so a second run would fail the same way. When [`PoolConfig::job_timeout`] is set, a watchdog thread cancels the
//! job's [`CancelToken`] once the soft deadline passes. Cancellation is
//! cooperative: the job polls the token (a circuit job hands it to
//! `AgingAnalysis::with_cache`) and returns early; the pool reports the
//! job as [`JobOutcome::TimedOut`] and drains instead of hanging.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use relia_core::CancelToken;
use relia_obs::Tracer;

/// The fate of one job: completed with its value, failed with a reason
/// (panic or the job's own diagnostic), or cancelled by the watchdog.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome<T> {
    /// The job ran to completion.
    Completed(T),
    /// The job panicked or returned an error; the run carried on without
    /// it.
    Failed {
        /// The panic message or the job's own diagnostic.
        reason: String,
    },
    /// The watchdog deadline expired and the job honored its cancellation
    /// token.
    TimedOut {
        /// Wall-clock milliseconds the job ran before stopping.
        elapsed_ms: u64,
    },
}

impl<T> JobOutcome<T> {
    /// The completed value, if any.
    pub fn completed(&self) -> Option<&T> {
        match self {
            JobOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// The completed value, or why the job did not complete: the
    /// failure's reason, or `"watchdog deadline expired"`.
    ///
    /// # Errors
    ///
    /// Returns the reason for a [`JobOutcome::Failed`] or
    /// [`JobOutcome::TimedOut`] job.
    pub fn into_result(self) -> Result<T, String> {
        match self {
            JobOutcome::Completed(v) => Ok(v),
            JobOutcome::Failed { reason } => Err(reason),
            JobOutcome::TimedOut { .. } => Err("watchdog deadline expired".to_owned()),
        }
    }
}

/// Full configuration of one pool run.
#[derive(Debug, Clone, Default)]
pub struct PoolConfig {
    /// Worker threads, clamped to `1..=jobs.len()`: 0 runs one worker. A
    /// caller that wants the machine's parallelism passes
    /// [`default_workers`].
    pub workers: usize,
    /// Per-job soft deadline. `None` disables the watchdog.
    pub job_timeout: Option<Duration>,
    /// When set, the pool records `job_queue_wait` (claim delay from pool
    /// start) and `job_execute` (per job) spans into this tracer.
    pub trace: Option<Arc<Tracer>>,
}

impl PoolConfig {
    /// A config running `workers` threads with no watchdog and no spans.
    pub fn with_workers(workers: usize) -> Self {
        PoolConfig {
            workers,
            ..PoolConfig::default()
        }
    }
}

/// The number of workers to use when the caller does not care: the
/// machine's available parallelism (1 if it cannot be determined).
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Why [`TaskPool::try_submit`] rejected a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity; the caller should shed load
    /// (retry later, or answer 503 in a serving context).
    QueueFull,
    /// The pool has begun draining and accepts no new work.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "task queue is full"),
            SubmitError::Draining => write!(f, "task pool is draining"),
        }
    }
}

impl std::error::Error for SubmitError {}

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A long-lived worker pool with a **bounded** submission queue.
///
/// Where [`run_pool`] executes a finite job list and returns, `TaskPool`
/// serves an open-ended stream of tasks — the shape a request-serving
/// workload needs. The queue bound is the backpressure mechanism: when
/// producers outrun the workers, [`TaskPool::try_submit`] fails with
/// [`SubmitError::QueueFull`] *immediately* instead of buffering without
/// limit, so the caller can shed load while the system is still healthy.
///
/// Every task runs under [`catch_unwind`]: a panicking task is counted
/// ([`TaskPool::panic_counter`]) and its worker keeps serving.
///
/// [`TaskPool::drain`] is the graceful shutdown: the queue closes (new
/// submissions fail with [`SubmitError::Draining`]), queued and in-flight
/// tasks run to completion, and the workers are joined.
#[derive(Debug)]
pub struct TaskPool {
    tx: Option<mpsc::SyncSender<Task>>,
    handles: Vec<thread::JoinHandle<()>>,
    panicked: Arc<AtomicU64>,
}

impl TaskPool {
    /// A pool of `workers` threads (min 1) over a queue of `queue_depth`
    /// waiting tasks (min 1).
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let (tx, rx) = mpsc::sync_channel::<Task>(queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let panicked = Arc::new(AtomicU64::new(0));
        let handles = (0..workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let panicked = Arc::clone(&panicked);
                thread::spawn(move || loop {
                    let task = {
                        let guard = match rx.lock() {
                            Ok(g) => g,
                            Err(_) => return, // a sibling panicked holding the lock
                        };
                        // Blocking on recv *is* this lock's purpose: std's
                        // Receiver is !Sync, so the mutex serializes the
                        // dequeue and idle workers must park right here.
                        // relia-lint: allow(guard-across-blocking)
                        guard.recv()
                    };
                    match task {
                        Ok(task) => {
                            if catch_unwind(AssertUnwindSafe(task)).is_err() {
                                panicked.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => return, // queue closed: drain complete
                    }
                })
            })
            .collect();
        TaskPool {
            tx: Some(tx),
            handles,
            panicked,
        }
    }

    /// Submits a task without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::Draining`] once [`TaskPool::drain`] has been called.
    pub fn try_submit(&self, task: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let Some(tx) = self.tx.as_ref() else {
            return Err(SubmitError::Draining);
        };
        tx.try_send(Box::new(task)).map_err(|e| match e {
            mpsc::TrySendError::Full(_) => SubmitError::QueueFull,
            mpsc::TrySendError::Disconnected(_) => SubmitError::Draining,
        })
    }

    /// A shared handle to the count of tasks that panicked (their workers
    /// survived). It outlives [`TaskPool::drain`] (which consumes the
    /// pool), so a server can drain and *then* decide whether the run was
    /// clean.
    pub fn panic_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.panicked)
    }

    /// Graceful shutdown: closes the queue, lets queued and in-flight
    /// tasks finish, and joins every worker.
    pub fn drain(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        self.tx = None; // closes the channel; workers exit once drained
        for handle in self.handles.drain(..) {
            // A worker only panics if the runtime itself is broken — every
            // task body is already caught.
            let _ = handle.join();
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// How often the watchdog scans the running-job slots.
const WATCHDOG_TICK: Duration = Duration::from_millis(2);

/// How many jobs per worker [`run_folded`] may start ahead of the lowest
/// unconsumed index: enough that a worker finishing early rarely waits on
/// a slow neighbour, few enough that the buffer stays a handful of
/// outcomes at any job count.
const WINDOW_PER_WORKER: usize = 2;

/// Runs every job and returns the outcomes **in job order** (no
/// watchdog). `workers` is clamped to `1..=jobs.len()`; `run` receives
/// the job's index and a reference to the job. See [`run_pool`] for the
/// full-featured variant.
pub fn run_ordered<J, T, F>(jobs: &[J], workers: usize, run: F) -> Vec<JobOutcome<T>>
where
    J: Sync,
    T: Send,
    F: Fn(usize, &J) -> T + Sync,
{
    run_pool(
        jobs,
        &PoolConfig::with_workers(workers),
        |i, j, _| Ok(run(i, j)),
        |_, _| {},
    )
}

/// Runs every job and folds the outcomes into the caller's state **in job
/// order**, keeping only a bounded window of them alive.
///
/// `observe(i, &outcome)` fires on the collector thread as each outcome
/// arrives — in **completion** order, so a checkpoint writer hanging off it
/// records a job the moment it finishes. `consume(i, outcome)` then takes
/// each outcome by value in job order `0, 1, 2, …`, once the outcomes below
/// it have been consumed. A worker starts job `i` only while
/// `i < consumed + 2 · workers`, so at most that many outcomes are ever
/// running or buffered, however many jobs there are. Both closures run on
/// one thread and need no synchronization of their own; a panic in either
/// releases the workers and propagates to the caller.
pub fn run_folded<J, T, F, O, C>(jobs: &[J], workers: usize, run: F, observe: O, consume: C)
where
    J: Sync,
    T: Send,
    F: Fn(usize, &J) -> T + Sync,
    O: FnMut(usize, &JobOutcome<T>),
    C: FnMut(usize, JobOutcome<T>),
{
    run_in_order(
        jobs,
        &PoolConfig::with_workers(workers),
        true,
        |i, j, _| Ok(run(i, j)),
        observe,
        consume,
    );
}

/// Runs every job with panic isolation and cooperative watchdog
/// deadlines, returning the outcomes **in job order**.
///
/// `run` receives the job's index, the job, and its [`CancelToken`];
/// long-running jobs should poll the token so the watchdog can turn a
/// straggler into [`JobOutcome::TimedOut`] instead of a pool-stalling
/// hang. An `Err(reason)` makes the job [`JobOutcome::Failed`]. `observe`
/// is invoked from the collector thread in completion order. Claiming is
/// not windowed: a job waiting on its deadline never holds the other
/// workers back.
pub fn run_pool<J, T, F, O>(
    jobs: &[J],
    config: &PoolConfig,
    run: F,
    observe: O,
) -> Vec<JobOutcome<T>>
where
    J: Sync,
    T: Send,
    F: Fn(usize, &J, &CancelToken) -> Result<T, String> + Sync,
    O: FnMut(usize, &JobOutcome<T>),
{
    let mut outcomes = Vec::with_capacity(jobs.len());
    run_in_order(jobs, config, false, run, observe, |_, outcome| {
        outcomes.push(outcome)
    });
    outcomes
}

/// The one collector behind every finite pool run: spawns the workers (and
/// the watchdog when a deadline is set) and hands each outcome to `observe`
/// as it arrives and to `consume` in job order. With `windowed`, workers
/// stay within [`WINDOW_PER_WORKER`] jobs per worker of the consumed
/// prefix.
fn run_in_order<J, T, F, O, C>(
    jobs: &[J],
    config: &PoolConfig,
    windowed: bool,
    run: F,
    mut observe: O,
    mut consume: C,
) where
    J: Sync,
    T: Send,
    F: Fn(usize, &J, &CancelToken) -> Result<T, String> + Sync,
    O: FnMut(usize, &JobOutcome<T>),
    C: FnMut(usize, JobOutcome<T>),
{
    if jobs.is_empty() {
        return;
    }
    let workers = config.workers.max(1).min(jobs.len());
    let pool_start_ns = config.trace.as_ref().map(|t| t.now_ns());
    let next = AtomicUsize::new(0);
    let cursor = Cursor::new(windowed.then_some(WINDOW_PER_WORKER * workers));
    // One slot per worker: the token and deadline of the job it is
    // currently running, scanned by the watchdog.
    let slots: Vec<Mutex<Option<(CancelToken, Instant)>>> =
        (0..workers).map(|_| Mutex::new(None)).collect();
    let (tx, rx) = mpsc::channel::<(usize, JobOutcome<T>)>();

    thread::scope(|scope| {
        // Closes the cursor when the collector returns *or unwinds*: a
        // panic in `observe` or `consume` must still wake the workers parked
        // on the window and stop the watchdog, or the scope would wait on
        // them forever instead of propagating the panic.
        let _close = CloseOnDrop(&cursor);
        if config.job_timeout.is_some() {
            let slots = &slots;
            let cursor = &cursor;
            scope.spawn(move || {
                while !cursor.is_closed() {
                    for slot in slots {
                        if let Ok(guard) = slot.lock() {
                            if let Some((token, deadline)) = guard.as_ref() {
                                if Instant::now() >= *deadline {
                                    token.cancel();
                                }
                            }
                        }
                    }
                    thread::park_timeout(WATCHDOG_TICK);
                }
            });
        }
        for slot in &slots {
            let tx = tx.clone();
            let next = &next;
            let cursor = &cursor;
            let run = &run;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() || !cursor.admit(i) {
                    break;
                }
                if let (Some(tracer), Some(t0)) = (config.trace.as_deref(), pool_start_ns) {
                    // Claim delay from pool start: how long the job sat
                    // behind earlier work before a worker reached it.
                    tracer.record("job_queue_wait", 0, t0, tracer.now_ns().saturating_sub(t0));
                }
                let outcome = run_one(i, &jobs[i], config, slot, run);
                if tx.send((i, outcome)).is_err() {
                    break; // collector gone; nothing left to report to
                }
            });
        }
        drop(tx);
        // `ahead[k]` holds the outcome of job `consumed + k` once it has
        // finished ahead of a lower, still-running index.
        let mut ahead: VecDeque<Option<JobOutcome<T>>> = VecDeque::new();
        let mut consumed = 0;
        for (i, outcome) in rx {
            observe(i, &outcome);
            assert!(i >= consumed, "every claimed job reports exactly once");
            let k = i - consumed;
            if ahead.len() <= k {
                ahead.resize_with(k + 1, || None);
            }
            ahead[k] = Some(outcome);
            let before = consumed;
            while let Some(outcome) = ahead.front_mut().and_then(Option::take) {
                ahead.pop_front();
                consume(consumed, outcome);
                consumed += 1;
            }
            if consumed > before {
                cursor.advance(consumed);
            }
        }
        // Every worker has exited, so every claimed job has reported.
        assert!(
            consumed == jobs.len() && ahead.is_empty(),
            "every claimed job reports exactly once"
        );
    });
}

/// The consumed prefix of a pool run, shared with its workers.
struct Cursor {
    /// How many jobs past the consumed prefix a worker may start; `None`
    /// never holds a worker back.
    window: Option<usize>,
    state: Mutex<CursorState>,
    moved: Condvar,
}

struct CursorState {
    consumed: usize,
    /// Set once the collector has returned or is unwinding.
    closed: bool,
}

impl Cursor {
    fn new(window: Option<usize>) -> Self {
        Cursor {
            window,
            state: Mutex::new(CursorState {
                consumed: 0,
                closed: false,
            }),
            moved: Condvar::new(),
        }
    }

    /// Every critical section below only reads or overwrites plain
    /// fields, so a poisoned lock still guards a valid state.
    fn lock(&self) -> MutexGuard<'_, CursorState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until job `index` falls inside the window. False when the
    /// run closed first: the worker must stop claiming.
    fn admit(&self, index: usize) -> bool {
        let Some(window) = self.window else {
            return true;
        };
        let state = self
            .moved
            .wait_while(self.lock(), |s| {
                !s.closed && index >= s.consumed.saturating_add(window)
            })
            .unwrap_or_else(PoisonError::into_inner);
        !state.closed
    }

    /// Publishes a longer consumed prefix to the parked workers.
    fn advance(&self, consumed: usize) {
        if self.window.is_some() {
            self.lock().consumed = consumed;
            self.moved.notify_all();
        }
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

/// Closes a [`Cursor`] when dropped, including during an unwind.
struct CloseOnDrop<'a>(&'a Cursor);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.moved.notify_all();
    }
}

/// Runs one job under its deadline and reports its outcome.
fn run_one<J, T, F>(
    index: usize,
    job: &J,
    config: &PoolConfig,
    slot: &Mutex<Option<(CancelToken, Instant)>>,
    run: &F,
) -> JobOutcome<T>
where
    F: Fn(usize, &J, &CancelToken) -> Result<T, String>,
{
    let token = CancelToken::new();
    let started = Instant::now();
    if let Some(timeout) = config.job_timeout {
        if let Ok(mut guard) = slot.lock() {
            *guard = Some((token.clone(), started + timeout));
        }
    }
    let execute_span = config.trace.as_deref().map(|t| t.span("job_execute"));
    let result = catch_unwind(AssertUnwindSafe(|| run(index, job, &token)));
    drop(execute_span);
    if let Ok(mut guard) = slot.lock() {
        *guard = None;
    }
    let elapsed_ms = started.elapsed().as_millis() as u64;

    let reason = match result {
        // A value that lands after cancellation is still a valid value:
        // the deadline is soft, and the work is already done.
        Ok(Ok(value)) => return JobOutcome::Completed(value),
        Ok(Err(reason)) => reason,
        Err(payload) => format!("panic: {}", panic_reason(payload.as_ref())),
    };
    if token.is_cancelled() {
        // The watchdog fired during the job; whatever error it surfaced
        // on its way out, the operative fact is the deadline.
        return JobOutcome::TimedOut { elapsed_ms };
    }
    JobOutcome::Failed { reason }
}

/// Extracts a human-readable message from a panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_are_in_job_order_for_any_worker_count() {
        let jobs: Vec<u64> = (0..64).collect();
        for workers in [1, 2, 7, 64, 1000] {
            let out = run_ordered(&jobs, workers, |i, &j| {
                assert_eq!(i as u64, j);
                j * j
            });
            let values: Vec<u64> = out
                .iter()
                .map(|o| *o.completed().expect("no panics here"))
                .collect();
            assert_eq!(values, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_job_fails_alone() {
        let jobs: Vec<usize> = (0..16).collect();
        let out = run_ordered(&jobs, 4, |_, &j| {
            if j == 7 {
                panic!("job {j} exploded");
            }
            j
        });
        for (i, outcome) in out.iter().enumerate() {
            if i == 7 {
                match outcome {
                    JobOutcome::Failed { reason } => {
                        assert!(reason.contains("exploded"), "{reason}");
                    }
                    other => panic!("job 7 should fail, got {other:?}"),
                }
            } else {
                assert_eq!(outcome.completed(), Some(&i));
            }
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let runs = AtomicU64::new(0);
        let jobs: Vec<usize> = (0..257).collect();
        let out = run_ordered(&jobs, 8, |_, _| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(runs.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn observer_sees_every_outcome() {
        let jobs: Vec<usize> = (0..32).collect();
        let mut seen = Vec::new();
        run_folded(&jobs, 4, |_, &j| j, |i, _| seen.push(i), |_, _| {});
        seen.sort_unstable();
        assert_eq!(seen, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn fold_consumes_every_job_once_in_order_at_any_worker_count() {
        let jobs: Vec<u64> = (0..200).collect();
        for workers in [1, 2, 7, 64] {
            let mut consumed = Vec::new();
            run_folded(
                &jobs,
                workers,
                |i, &j| {
                    assert_eq!(i as u64, j);
                    j * j
                },
                |_, _| {},
                |i, outcome| {
                    assert_eq!(outcome.completed(), Some(&(i as u64 * i as u64)));
                    consumed.push(i);
                },
            );
            assert_eq!(consumed, (0..200).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    /// Spins until `counter` reaches `target`, without sleeping.
    fn wait_for(counter: &AtomicUsize, target: usize) {
        while counter.load(Ordering::SeqCst) < target {
            thread::yield_now();
        }
    }

    #[test]
    fn a_slow_first_job_holds_the_window_and_still_yields_in_order() {
        for workers in [2, 3, 7] {
            let window = WINDOW_PER_WORKER * workers;
            let jobs: Vec<usize> = (0..100).collect();
            let finished = AtomicUsize::new(0);
            let started_past_window = AtomicUsize::new(0);
            let mut consumed = Vec::new();
            run_folded(
                &jobs,
                workers,
                |i, _| {
                    if i == 0 {
                        // Finish last of the first window: every other job
                        // the window admits completes before job 0 does.
                        wait_for(&finished, window - 1);
                    } else if i >= window && finished.load(Ordering::SeqCst) < window {
                        started_past_window.fetch_add(1, Ordering::SeqCst);
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    i
                },
                |_, _| {},
                |i, outcome| {
                    assert_eq!(outcome.completed(), Some(&i));
                    consumed.push(i);
                },
            );
            assert_eq!(consumed, jobs, "{workers} workers");
            assert_eq!(
                started_past_window.load(Ordering::SeqCst),
                0,
                "no job at or past the window started before job 0 finished"
            );
        }
    }

    /// Counts live instances and the high-water mark.
    struct Tracked<'a> {
        live: &'a AtomicUsize,
    }

    impl<'a> Tracked<'a> {
        fn new(live: &'a AtomicUsize, peak: &AtomicUsize) -> Self {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            Tracked { live }
        }
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn fold_keeps_at_most_the_window_plus_workers_alive() {
        for workers in [1, 2, 4] {
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let jobs: Vec<usize> = (0..300).collect();
            let mut consumed = 0;
            run_folded(
                &jobs,
                workers,
                |i, _| {
                    // Every seventh job yields a while, so later jobs finish
                    // ahead of it and pile up in the buffer.
                    if i % 7 == 0 {
                        for _ in 0..50 {
                            thread::yield_now();
                        }
                    }
                    Tracked::new(&live, &peak)
                },
                |_, _| {},
                |_, outcome| {
                    drop(outcome);
                    consumed += 1;
                },
            );
            assert_eq!(consumed, 300);
            assert_eq!(live.load(Ordering::SeqCst), 0);
            let bound = WINDOW_PER_WORKER * workers + workers;
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= bound, "{peak} alive at once, bound {bound}");
        }
    }

    /// Runs `fold` on its own thread and reports whether it panicked,
    /// failing instead of hanging if it never returns.
    fn panics_without_hanging(fold: impl FnOnce() + Send + 'static) -> bool {
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            let panicked = catch_unwind(AssertUnwindSafe(fold)).is_err();
            let _ = tx.send(panicked);
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a panicking fold must release its workers, not hang");
        handle.join().unwrap();
        panicked
    }

    /// Job 0 finishes only after the rest of the first window, so by then
    /// the workers have claimed past it and park on the window.
    fn fold_that_panics_in(stage: &'static str) -> impl FnOnce() + Send + 'static {
        move || {
            let workers = 3;
            let window = WINDOW_PER_WORKER * workers;
            let jobs: Vec<usize> = (0..1000).collect();
            let finished = AtomicUsize::new(0);
            run_folded(
                &jobs,
                workers,
                |i, _| {
                    if i == 0 {
                        wait_for(&finished, window - 1);
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                },
                |i, _| {
                    if stage == "observe" && i == 0 {
                        panic!("observe exploded");
                    }
                },
                |i, _| {
                    if stage == "consume" && i == 0 {
                        panic!("consume exploded");
                    }
                },
            );
        }
    }

    #[test]
    fn a_panic_in_consume_or_observe_propagates_and_releases_the_workers() {
        assert!(panics_without_hanging(fold_that_panics_in("consume")));
        assert!(panics_without_hanging(fold_that_panics_in("observe")));
        assert!(!panics_without_hanging(fold_that_panics_in("neither")));
    }

    #[test]
    fn a_panic_in_observe_stops_the_watchdog_too() {
        let config = PoolConfig {
            workers: 2,
            job_timeout: Some(Duration::from_secs(60)),
            ..PoolConfig::default()
        };
        assert!(panics_without_hanging(move || {
            let jobs: Vec<usize> = (0..8).collect();
            run_pool(
                &jobs,
                &config,
                |_, &j, _| Ok(j),
                |_, _| panic!("observe exploded"),
            );
        }));
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<JobOutcome<()>> = run_ordered(&[] as &[u8], 4, |_, _| {});
        assert!(out.is_empty());
    }

    #[test]
    fn permanent_failure_fails_fast() {
        let calls = AtomicU32::new(0);
        let outcomes = run_pool(
            &[0usize],
            &PoolConfig::with_workers(1),
            |_, _, _| -> Result<(), String> {
                calls.fetch_add(1, Ordering::Relaxed);
                Err("bad parameter".into())
            },
            |_, _| {},
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1, "the job runs once");
        assert_eq!(
            outcomes,
            [JobOutcome::Failed {
                reason: "bad parameter".into()
            }]
        );
    }

    #[test]
    fn a_cooperative_straggler_times_out_without_stalling_the_pool() {
        let jobs: Vec<usize> = (0..8).collect();
        let config = PoolConfig {
            workers: 4,
            job_timeout: Some(Duration::from_millis(20)),
            ..PoolConfig::default()
        };
        let started = Instant::now();
        let outcomes = run_pool(
            &jobs,
            &config,
            |_, &j, token: &CancelToken| {
                if j == 3 {
                    // A cooperative hang: poll the token like a real
                    // analysis loop would.
                    while !token.is_cancelled() {
                        thread::sleep(Duration::from_millis(1));
                    }
                    return Err("cancelled".to_owned());
                }
                Ok(j)
            },
            |_, _| {},
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "pool must drain promptly"
        );
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 3 {
                match outcome {
                    JobOutcome::TimedOut { elapsed_ms } => {
                        assert!(*elapsed_ms >= 15, "ran at least near the deadline");
                    }
                    other => panic!("expected TimedOut, got {other:?}"),
                }
            } else {
                assert_eq!(outcome.completed(), Some(&i), "job {i} unaffected");
            }
        }
    }

    #[test]
    fn pool_records_queue_wait_and_execute_spans() {
        let tracer = Arc::new(Tracer::new(64));
        let config = PoolConfig {
            workers: 2,
            job_timeout: None,
            trace: Some(Arc::clone(&tracer)),
        };
        run_pool(&[0usize, 1], &config, |_, _, _| Ok(()), |_, _| {});
        let spans = tracer.recent();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("job_queue_wait"), 2, "one claim per job");
        assert_eq!(count("job_execute"), 2, "one execution per job");
    }

    #[test]
    fn task_pool_runs_every_submitted_task() {
        let pool = TaskPool::new(4, 64);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            loop {
                let c = Arc::clone(&counter);
                match pool.try_submit(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }) {
                    Ok(()) => break,
                    Err(SubmitError::QueueFull) => thread::yield_now(),
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn task_pool_sheds_load_when_the_queue_is_full() {
        // One worker wedged on a gate, queue depth 1: the first task
        // occupies the worker, the second fills the queue, the third must
        // be rejected with QueueFull.
        let pool = TaskPool::new(1, 1);
        let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let g = Arc::clone(&gate);
        pool.try_submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        // Whether or not the worker has picked the blocker up yet, the
        // queue holds at most one waiting task — repeated submissions must
        // hit the bound almost immediately.
        let mut saw_full = false;
        for _ in 0..1000 {
            match pool.try_submit(|| {}) {
                Ok(()) => {}
                Err(SubmitError::QueueFull) => {
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(saw_full, "a bounded queue must eventually reject");
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.drain();
    }

    #[test]
    fn task_pool_survives_panicking_tasks() {
        let pool = TaskPool::new(2, 16);
        pool.try_submit(|| panic!("task exploded")).unwrap();
        let ran = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&ran);
        // Submission may race the panic; retry on a full queue only.
        loop {
            let r2 = Arc::clone(&r);
            match pool.try_submit(move || {
                r2.fetch_add(1, Ordering::Relaxed);
            }) {
                Ok(()) => break,
                Err(SubmitError::QueueFull) => thread::yield_now(),
                Err(e) => panic!("unexpected {e}"),
            }
        }
        pool.drain();
        assert_eq!(ran.load(Ordering::Relaxed), 1, "worker survived the panic");
    }

    #[test]
    fn drained_pool_rejects_and_drop_is_clean() {
        let pool = TaskPool::new(1, 4);
        pool.try_submit(|| {}).unwrap();
        pool.drain();
        let pool = TaskPool::new(1, 4);
        drop(pool); // Drop also joins
    }

    #[test]
    fn task_pool_counters_add_up() {
        let pool = TaskPool::new(2, 32);
        let panics = pool.panic_counter();
        let ran = Arc::new(AtomicU64::new(0));
        for i in 0..10 {
            loop {
                let ran = Arc::clone(&ran);
                let submitted = pool.try_submit(move || {
                    if i % 3 == 0 {
                        panic!("task {i} exploded");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                });
                match submitted {
                    Ok(()) => break,
                    Err(SubmitError::QueueFull) => thread::yield_now(),
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }
        pool.drain();
        assert_eq!(panics.load(Ordering::Relaxed), 4, "tasks 0, 3, 6 and 9");
        assert_eq!(ran.load(Ordering::Relaxed), 6, "every other task ran");
    }

    #[test]
    fn into_result_reports_the_failure_reason() {
        let failed: JobOutcome<()> = JobOutcome::Failed {
            reason: "second".into(),
        };
        assert_eq!(failed.into_result(), Err("second".to_owned()));
        let timed_out: JobOutcome<()> = JobOutcome::TimedOut { elapsed_ms: 5 };
        assert_eq!(
            timed_out.into_result(),
            Err("watchdog deadline expired".to_owned())
        );
        let done: JobOutcome<u8> = JobOutcome::Completed(1);
        assert_eq!(done.into_result(), Ok(1));
    }
}
