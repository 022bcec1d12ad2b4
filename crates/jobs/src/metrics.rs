//! Summary statistics of one sweep run, and the typed snapshot API that
//! every renderer (the CLI sweep summary, `relia-serve`'s Prometheus
//! `/metrics` endpoint) draws from.

use std::fmt;

use relia_obs::{fmt_ns, HistSnapshot};

use crate::cache::CacheStats;

/// A typed, named snapshot of counters and gauges.
///
/// This is the **one source of truth** for exposing operational numbers:
/// anything that renders metrics — the sweep summary, a Prometheus
/// exposition, a JSON status endpoint — iterates these typed pairs instead
/// of `Debug`-formatting internal structs, so names stay stable and no
/// renderer can drift from the counters themselves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters as `(name, value)`, in declaration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Point-in-time gauges as `(name, value)`, in declaration order.
    pub gauges: Vec<(&'static str, f64)>,
    /// Latency histograms as `(name, snapshot)`, in declaration order.
    ///
    /// Names carry a `_seconds` suffix by convention: samples are stored
    /// as log2-bucketed nanoseconds ([`HistSnapshot`]) and renderers
    /// convert to seconds at the edge (e.g. Prometheus `le` labels).
    pub histograms: Vec<(&'static str, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// Appends every series of `other` after this snapshot's own (callers
    /// namespace their series, so concatenation is collision-free).
    pub fn merged(mut self, other: MetricsSnapshot) -> MetricsSnapshot {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        self
    }
}

impl CacheStats {
    /// Typed snapshot of the memo-cache counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("cache_hits", self.hits),
                ("cache_misses", self.misses),
                ("cache_entries", self.entries as u64),
                ("cache_evictions", self.evictions),
            ],
            gauges: vec![("cache_hit_rate", self.hit_rate())],
            histograms: vec![],
        }
    }
}

/// Per-sweep latency distributions, recorded while the pool runs and
/// frozen into the outcome's metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepTimings {
    /// Wall time of each executed job (one sample per attempt that
    /// completed, successfully or not).
    pub job: HistSnapshot,
    /// Wall time of each checkpoint record flush.
    pub checkpoint: HistSnapshot,
}

impl SweepTimings {
    /// The histogram section these timings contribute to a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![
                ("sweep_job_seconds", self.job.clone()),
                ("sweep_checkpoint_seconds", self.checkpoint.clone()),
            ],
        }
    }
}

/// What a sweep did, for the operator: job counts, resilience accounting
/// (retries, timeouts, salvaged checkpoint damage), cache effectiveness,
/// and wall-clock split between the prepare and execute phases.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepMetrics {
    /// Grid size of the spec.
    pub total_jobs: usize,
    /// Jobs actually executed this run.
    pub executed_jobs: usize,
    /// Jobs skipped because a checkpoint already held their results.
    pub resumed_jobs: usize,
    /// Jobs that ended in [`JobOutcome::Failed`](crate::JobOutcome::Failed).
    pub failed_jobs: usize,
    /// Jobs that ended in [`JobOutcome::TimedOut`](crate::JobOutcome::TimedOut).
    pub timed_out_jobs: usize,
    /// Retry attempts across all jobs (a job that succeeded on its second
    /// attempt contributes 1).
    pub retried_jobs: u64,
    /// Checkpoint lines skipped as damaged when the run opened its
    /// checkpoint (the jobs they recorded re-run).
    pub salvaged_dropped: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Memo-cache counters at the end of the run.
    pub cache: CacheStats,
    /// Seconds spent resolving circuits and building [`AnalysisPrep`]s.
    ///
    /// [`AnalysisPrep`]: relia_flow::AnalysisPrep
    pub prepare_secs: f64,
    /// Seconds spent in the worker pool.
    pub execute_secs: f64,
    /// Per-job and per-checkpoint-flush latency distributions.
    pub timings: SweepTimings,
}

impl SweepMetrics {
    /// Typed snapshot of every field, cache counters included.
    ///
    /// The `Display` rendering below does not derive from this method: it
    /// reads the fields itself, so a field added to the struct must be
    /// added to both.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("sweep_total_jobs", self.total_jobs as u64),
                ("sweep_executed_jobs", self.executed_jobs as u64),
                ("sweep_resumed_jobs", self.resumed_jobs as u64),
                ("sweep_failed_jobs", self.failed_jobs as u64),
                ("sweep_timed_out_jobs", self.timed_out_jobs as u64),
                ("sweep_retried_jobs", self.retried_jobs),
                ("sweep_salvaged_dropped", self.salvaged_dropped as u64),
                ("sweep_workers", self.workers as u64),
            ],
            gauges: vec![
                ("sweep_prepare_seconds", self.prepare_secs),
                ("sweep_execute_seconds", self.execute_secs),
            ],
            histograms: vec![],
        }
        .merged(self.timings.snapshot())
        .merged(self.cache.snapshot())
    }
}

impl fmt::Display for SweepMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sweep: {} jobs ({} executed, {} resumed, {} failed, {} timed out) on {} workers",
            self.total_jobs,
            self.executed_jobs,
            self.resumed_jobs,
            self.failed_jobs,
            self.timed_out_jobs,
            self.workers
        )?;
        if self.retried_jobs > 0 || self.salvaged_dropped > 0 {
            writeln!(
                f,
                "resilience: {} retries, {} corrupt checkpoint records salvaged away",
                self.retried_jobs, self.salvaged_dropped
            )?;
        }
        writeln!(
            f,
            "cache: {} hits / {} misses ({:.1}% hit rate), {} entries",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.entries
        )?;
        write!(
            f,
            "time: {:.3}s prepare + {:.3}s execute",
            self.prepare_secs, self.execute_secs
        )?;
        if self.timings.job.count > 0 {
            let j = &self.timings.job;
            write!(
                f,
                "\njob latency: p50 {} / p90 {} / p99 {} over {} executions",
                fmt_ns(j.p50()),
                fmt_ns(j.p90()),
                fmt_ns(j.p99()),
                j.count
            )?;
        }
        if self.timings.checkpoint.count > 0 {
            let c = &self.timings.checkpoint;
            write!(
                f,
                "\ncheckpoint flush: p50 {} / p99 {} over {} records",
                fmt_ns(c.p50()),
                fmt_ns(c.p99()),
                c.count
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_every_headline_number() {
        let m = SweepMetrics {
            total_jobs: 40,
            executed_jobs: 30,
            resumed_jobs: 10,
            failed_jobs: 2,
            timed_out_jobs: 1,
            retried_jobs: 3,
            salvaged_dropped: 4,
            workers: 8,
            cache: CacheStats {
                hits: 75,
                misses: 25,
                entries: 25,
                evictions: 0,
            },
            prepare_secs: 0.25,
            execute_secs: 1.5,
            timings: SweepTimings::default(),
        };
        let text = m.to_string();
        for needle in [
            "40 jobs",
            "30 executed",
            "10 resumed",
            "2 failed",
            "1 timed out",
            "3 retries",
            "4 corrupt checkpoint records",
            "8 workers",
            "75.0% hit rate",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text:?}");
        }
    }

    #[test]
    fn resilience_line_is_omitted_when_quiet() {
        let m = SweepMetrics::default();
        assert!(!m.to_string().contains("resilience"));
    }

    #[test]
    fn snapshot_exposes_every_field_with_stable_names() {
        let m = SweepMetrics {
            total_jobs: 40,
            executed_jobs: 30,
            resumed_jobs: 10,
            failed_jobs: 2,
            timed_out_jobs: 1,
            retried_jobs: 3,
            salvaged_dropped: 4,
            workers: 8,
            cache: CacheStats {
                hits: 75,
                misses: 25,
                entries: 25,
                evictions: 6,
            },
            prepare_secs: 0.25,
            execute_secs: 1.5,
            timings: SweepTimings::default(),
        };
        let s = m.snapshot();
        assert_eq!(s.counter("sweep_total_jobs"), Some(40));
        assert_eq!(s.counter("sweep_executed_jobs"), Some(30));
        assert_eq!(s.counter("sweep_resumed_jobs"), Some(10));
        assert_eq!(s.counter("sweep_failed_jobs"), Some(2));
        assert_eq!(s.counter("sweep_timed_out_jobs"), Some(1));
        assert_eq!(s.counter("sweep_retried_jobs"), Some(3));
        assert_eq!(s.counter("sweep_salvaged_dropped"), Some(4));
        assert_eq!(s.counter("sweep_workers"), Some(8));
        assert_eq!(s.counter("cache_hits"), Some(75));
        assert_eq!(s.counter("cache_misses"), Some(25));
        assert_eq!(s.counter("cache_entries"), Some(25));
        assert_eq!(s.counter("cache_evictions"), Some(6));
        assert_eq!(s.gauge("sweep_prepare_seconds"), Some(0.25));
        assert_eq!(s.gauge("sweep_execute_seconds"), Some(1.5));
        assert_eq!(s.gauge("cache_hit_rate"), Some(0.75));
        assert_eq!(s.counter("no_such_series"), None);
        assert_eq!(s.gauge("no_such_series"), None);
        // Guard against a field added to SweepMetrics but not the
        // snapshot: counters cover all 8 integer fields + 4 cache series.
        assert_eq!(s.counters.len(), 12);
        assert_eq!(s.gauges.len(), 3);
        assert_eq!(s.histograms.len(), 2);
        assert!(s.histogram("sweep_job_seconds").is_some());
        assert!(s.histogram("sweep_checkpoint_seconds").is_some());
        assert!(s.histogram("no_such_series").is_none());
    }

    #[test]
    fn display_appends_timing_percentiles_when_present() {
        let hist = relia_obs::LatencyHist::new();
        for us in [50u64, 100, 200, 400] {
            hist.record_ns(us * 1_000);
        }
        let m = SweepMetrics {
            executed_jobs: 4,
            timings: SweepTimings {
                job: hist.snapshot(),
                checkpoint: HistSnapshot::default(),
            },
            ..SweepMetrics::default()
        };
        let text = m.to_string();
        assert!(text.contains("job latency: p50"), "{text}");
        assert!(text.contains("over 4 executions"), "{text}");
        assert!(!text.contains("checkpoint flush"), "{text}");
    }

    #[test]
    fn merged_snapshots_concatenate() {
        let a = MetricsSnapshot {
            counters: vec![("a_one", 1)],
            gauges: vec![],
            histograms: vec![],
        };
        let b = MetricsSnapshot {
            counters: vec![("b_two", 2)],
            gauges: vec![("b_rate", 0.5)],
            histograms: vec![("b_lat_seconds", HistSnapshot::default())],
        };
        let m = a.merged(b);
        assert_eq!(m.counter("a_one"), Some(1));
        assert_eq!(m.counter("b_two"), Some(2));
        assert_eq!(m.gauge("b_rate"), Some(0.5));
        assert!(m.histogram("b_lat_seconds").is_some());
    }
}
