//! `fleet-cli` and `circuit-sweep`: back-to-back runs of the `relia fleet`
//! and `relia sweep` commands, one at a time, each on two workers.

use std::time::Instant;

use bench_e2e::inputs::{self, Workload, FLEET_CLI_SAMPLES, SWEEP_CIRCUITS, SWEEP_JOBS};
use bench_e2e::stats;

use crate::child::{run_cli, CliRun, Ctx};
use crate::run::{json_string, quantile_us, Ledger, LedgerRow, RunResult, SpanRing, Tally, WARMUP};

/// Span-ring capacity passed to `relia fleet --trace` and for client spans.
const TRACE_SLOTS: &str = "65536";

/// One kind of CLI run of the workload, cycled in order.
struct Job {
    args: Vec<String>,
    /// Work units the run completes (samples or sweep jobs).
    units: f64,
    /// Where the run writes its checkpoint (removed before each run).
    checkpoint: String,
}

/// Parses a `relia_obs::fmt_ns` rendering (`812ms`, `35.2µs`, `1.02s`).
fn parse_duration_ns(text: &str) -> Option<f64> {
    let scaled = |suffix: &str, scale: f64| -> Option<f64> {
        text.strip_suffix(suffix)?
            .parse::<f64>()
            .ok()
            .map(|v| v * scale)
    };
    scaled("ns", 1.0)
        .or_else(|| scaled("µs", 1e3))
        .or_else(|| scaled("ms", 1e6))
        .or_else(|| scaled("s", 1e9))
}

/// The value after `prefix` in the first stderr line that has it, up to
/// the next space.
fn field<'a>(stderr: &'a str, prefix: &str) -> Option<&'a str> {
    stderr.lines().find_map(|l| {
        let rest = &l[l.find(prefix)? + prefix.len()..];
        Some(rest.split_whitespace().next().unwrap_or(""))
    })
}

/// `trace: <span> N span(s), total <dur>` from `relia fleet --trace`.
fn span_total_ns(stderr: &str, span: &str) -> Option<f64> {
    stderr.lines().find_map(|l| {
        let rest = l.strip_prefix("trace: ")?.trim_start().strip_prefix(span)?;
        parse_duration_ns(rest.split("total ").nth(1)?.trim())
    })
}

fn fleet_jobs(ctx: &Ctx, seed: u64, traced: bool) -> Vec<Job> {
    let checkpoint = ctx.tmp_path("fleet.ckpt").to_string_lossy().into_owned();
    inputs::fleet_seeds(seed)
        .iter()
        .map(|s| {
            let mut args: Vec<String> = [
                "fleet",
                "--samples",
                &FLEET_CLI_SAMPLES.to_string(),
                "--workers",
                "2",
            ]
            .map(str::to_owned)
            .into();
            args.extend([
                "--seed".to_owned(),
                s.to_string(),
                "--checkpoint".to_owned(),
                checkpoint.clone(),
            ]);
            if traced {
                args.extend(["--trace".to_owned(), TRACE_SLOTS.to_owned()]);
            }
            Job {
                args,
                units: FLEET_CLI_SAMPLES as f64,
                checkpoint: checkpoint.clone(),
            }
        })
        .collect()
}

fn sweep_jobs(ctx: &Ctx, seed: u64, widths: &[usize]) -> Vec<Job> {
    let checkpoint = ctx.tmp_path("sweep.jsonl").to_string_lossy().into_owned();
    SWEEP_CIRCUITS
        .iter()
        .zip(widths)
        .enumerate()
        .map(|(i, (circuit, &width))| {
            let mut args = vec!["sweep".to_owned(), format!("builtin:{circuit}")];
            args.extend(inputs::sweep_grid_flags(&inputs::standby_vectors(
                seed, i, width,
            )));
            args.extend(["--jobs", "2", "--checkpoint"].map(str::to_owned));
            args.push(checkpoint.clone());
            Job {
                args,
                units: SWEEP_JOBS as f64,
                checkpoint: checkpoint.clone(),
            }
        })
        .collect()
}

/// Checks a run's own report: every unit of work executed fresh, none
/// failed.
fn check_run(workload: Workload, run: &CliRun) -> Result<(), String> {
    if !run.status.success() {
        return Err(format!("exited with {}: {}", run.status, run.stderr.trim()));
    }
    let (expect, stdout_ok) = match workload {
        Workload::FleetCli => {
            let chunks = FLEET_CLI_SAMPLES.div_ceil(2048);
            (
                format!("fleet: {FLEET_CLI_SAMPLES} samples in {chunks} chunks ({chunks} executed, 0 resumed)"),
                run.stdout.starts_with(format!("fleet: {FLEET_CLI_SAMPLES} devices").as_bytes()),
            )
        }
        _ => {
            let text = String::from_utf8_lossy(&run.stdout);
            (
                format!("sweep: {SWEEP_JOBS} jobs ({SWEEP_JOBS} executed, 0 resumed, 0 failed, 0 timed out)"),
                text.lines().count() == SWEEP_JOBS as usize + 1
                    && !text.contains("FAILED")
                    && !text.contains("TIMEOUT"),
            )
        }
    };
    if !run.stderr.contains(&expect) {
        return Err(format!(
            "expected `{expect}` in stderr, got: {}",
            run.stderr.trim()
        ));
    }
    if !stdout_ok {
        return Err(format!(
            "malformed report: {}",
            String::from_utf8_lossy(&run.stdout)
        ));
    }
    Ok(())
}

/// The primary-input width of each sweep circuit, from `relia info`.
fn input_widths(ctx: &Ctx) -> Result<Vec<usize>, String> {
    SWEEP_CIRCUITS
        .iter()
        .map(|c| {
            let args = ["info".to_owned(), format!("builtin:{c}")];
            let run = run_cli(&ctx.relia, &args, false)?.ok("relia info")?;
            let text = String::from_utf8_lossy(&run.stdout);
            field(&text, "inputs  :")
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| format!("no input count in: {text}"))
        })
        .collect()
}

/// Seconds the run reports for its execute phase: the fleet's sampling
/// pool (`on 2 workers in 0.435s`) or the sweep's jobs (`0.187s execute`).
fn execute_s(workload: Workload, stderr: &str) -> Option<f64> {
    let prefix = match workload {
        Workload::FleetCli => " workers in ",
        _ => "prepare + ",
    };
    field(stderr, prefix)?.trim_end_matches('s').parse().ok()
}

/// Per-run means of what the program reports about itself.
#[derive(Default)]
struct Reported {
    runs: f64,
    wall_us: f64,
    hoist_us: f64,
    chunk_us: f64,
    execute_us: f64,
    merge_us: f64,
    prepare_us: f64,
    cache_hits: f64,
    cache_lookups: f64,
}

impl Reported {
    fn add(&mut self, workload: Workload, run: &CliRun) -> Result<(), String> {
        let err = || format!("unparseable run report: {}", run.stderr.trim());
        let secs = |s: Option<&str>| s.and_then(|v| v.trim_end_matches('s').parse::<f64>().ok());
        self.runs += 1.0;
        self.wall_us += run.wall_ns as f64 / 1e3;
        self.execute_us += execute_s(workload, &run.stderr).ok_or_else(err)? * 1e6;
        match workload {
            Workload::FleetCli => {
                let span = |name| span_total_ns(&run.stderr, name).ok_or_else(err);
                self.hoist_us += span("fleet_hoist")? / 1e3;
                self.chunk_us += span("fleet_chunk")? / 1e3;
                self.merge_us += span("fleet_merge")? / 1e3;
            }
            _ => {
                self.prepare_us += secs(field(&run.stderr, "time: ")).ok_or_else(err)? * 1e6;
                let count = |p| {
                    field(&run.stderr, p)
                        .and_then(|v| v.parse::<f64>().ok())
                        .ok_or_else(err)
                };
                let hits = count("cache: ")?;
                self.cache_hits += hits;
                self.cache_lookups += hits + count("hits / ")?;
            }
        }
        Ok(())
    }

    fn ledger(&self, workload: Workload) -> Ledger {
        let n = self.runs.max(1.0);
        let mean = |v: f64| v / n;
        let (rows, explained) = match workload {
            Workload::FleetCli => {
                let chunk_wall = mean(self.chunk_us) / 2.0;
                let explained = mean(self.hoist_us + self.execute_us + self.merge_us);
                let rows = vec![
                    LedgerRow::new(
                        "fleet.hoist_us",
                        mean(self.hoist_us),
                        "us",
                        "FleetEvaluator::prepare",
                    ),
                    LedgerRow::new(
                        "fleet.chunks_us",
                        chunk_wall,
                        "us",
                        "sampling, per worker (chunk spans / 2)",
                    ),
                    LedgerRow::new(
                        "fleet.pool_us",
                        mean(self.execute_us) - chunk_wall,
                        "us",
                        "execute less sampling: dispatch, checkpoint records, imbalance",
                    ),
                    LedgerRow::new(
                        "fleet.merge_us",
                        mean(self.merge_us),
                        "us",
                        "ordered accumulator merge",
                    ),
                    LedgerRow::new(
                        "fleet.worker_busy",
                        self.chunk_us / (2.0 * self.execute_us.max(1.0)),
                        "ratio",
                        "chunk time / (2 workers x execute)",
                    ),
                ];
                (rows, explained)
            }
            _ => {
                let rows = vec![
                    LedgerRow::new(
                        "jobs.prepare_us",
                        mean(self.prepare_us),
                        "us",
                        "resolve circuits + AnalysisPrep",
                    ),
                    LedgerRow::new(
                        "jobs.execute_us",
                        mean(self.execute_us),
                        "us",
                        "32 aging jobs on the pool",
                    ),
                    LedgerRow::new(
                        "cache.hit_ratio",
                        self.cache_hits / self.cache_lookups.max(1.0),
                        "ratio",
                        "run-private memo cache",
                    ),
                ];
                (rows, mean(self.prepare_us + self.execute_us))
            }
        };
        let mut ledger = Ledger {
            per: "run",
            rows,
            e2e_mean_us: mean(self.wall_us),
            explained_us: explained,
        };
        ledger.rows.push(LedgerRow::new(
            "process.residual_us",
            ledger.residual_us(),
            "us",
            "run wall time no phase accounts for (exec, arguments, output, exit)",
        ));
        ledger
    }
}

pub fn run(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let epoch = Instant::now();
    let mut spans = SpanRing::new(epoch, if traced { 65_536 } else { 0 });
    let jobs = match workload {
        Workload::FleetCli => fleet_jobs(ctx, seed, traced),
        _ => sweep_jobs(ctx, seed, &input_widths(ctx)?),
    };
    let mut references: Vec<Option<Vec<u8>>> = vec![None; jobs.len()];
    let mut tally = Tally::default();
    let mut wall_ns: Vec<u64> = Vec::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut units = 0.0;
    let mut peak_kib = 0u64;
    let mut reported = Reported::default();
    let mut stderrs = Vec::new();
    let span_name = if workload == Workload::FleetCli {
        "cli.fleet"
    } else {
        "cli.sweep"
    };

    // A circuit-sweep window is whole passes over the four circuits, so
    // every run weighs its circuit the same; fleet runs all cost the same.
    let cycle = if workload == Workload::CircuitSweep {
        jobs.len()
    } else {
        1
    };
    let start = Instant::now();
    let mut timed_start: Option<Instant> = None;
    let mut i = 0usize;
    loop {
        if i.is_multiple_of(cycle) {
            let now = Instant::now();
            match timed_start {
                Some(t) if (now - t).as_secs_f64() >= seconds => break,
                None if now - start >= WARMUP => timed_start = Some(now),
                _ => {}
            }
        }
        let slot = i % jobs.len();
        let job = &jobs[slot];
        i += 1;
        let _ = std::fs::remove_file(&job.checkpoint);
        let t0 = Instant::now();
        let run = run_cli(&ctx.relia, &job.args, true)?;
        spans.record(span_name, t0, Instant::now());
        let mut outcome = check_run(workload, &run);
        if outcome.is_ok() {
            // A repeated seed or circuit must reproduce its first run byte
            // for byte (timing goes to stderr, so stdout compares whole).
            match &references[slot] {
                Some(first) if first != &run.stdout => {
                    outcome = Err(format!(
                        "stdout of `relia {}` differs from its first run",
                        job.args[..2].join(" ")
                    ));
                }
                Some(_) => {}
                None => references[slot] = Some(run.stdout.clone()),
            }
        }
        let ok = outcome.is_ok();
        tally.record(outcome);
        if timed_start.is_none() {
            continue;
        }
        wall_ns.push(run.wall_ns);
        peak_kib = peak_kib.max(run.peak_kib);
        if !ok {
            continue;
        }
        units += job.units;
        // Set-up: the run's fixed cost, everything but the execute phase
        // it reports (process start, circuit preparation or the fleet
        // hoist and merge, output).
        match execute_s(workload, &run.stderr) {
            Some(execute) => setup_s.push(run.wall_ns as f64 / 1e9 - execute),
            None => tally.fail(format!("no execute time in: {}", run.stderr.trim())),
        }
        if traced {
            if let Err(e) = reported.add(workload, &run) {
                tally.fail(e);
            }
            stderrs.push(json_string(&run.stderr));
        }
    }
    let window_s = timed_start.map_or(0.0, |t| t.elapsed().as_secs_f64());
    let _ = std::fs::remove_file(&jobs[0].checkpoint);

    wall_ns.sort_unstable();
    let mut dumps = Vec::new();
    if traced {
        dumps.push(("cli_stderr", format!("[{}]", stderrs.join(","))));
    }
    Ok(RunResult {
        e2e: [
            stats::median(&mut setup_s).unwrap_or(0.0),
            peak_kib as f64 / 1024.0,
        ],
        what: [
            "run wall time less its reported execute phase, median over the window",
            "max VmHWM over runs (sampled every 10 ms)",
        ],
        timing: [
            quantile_us(&wall_ns, 0.5),
            quantile_us(&wall_ns, 0.99),
            units / window_s.max(f64::MIN_POSITIVE),
        ],
        timed: match workload {
            Workload::FleetCli => "relia fleet run (4M samples, 2 workers); samples/s",
            _ => "relia sweep run (32 jobs, 2 workers); jobs/s",
        },
        extra: vec![
            ("runs", wall_ns.len() as f64, "count"),
            (
                "error_rate",
                tally.failed as f64 / tally.attempted.max(1) as f64,
                "ratio",
            ),
        ],
        ledger: traced.then(|| reported.ledger(workload)),
        tally,
        spans: spans.into_spans(),
        dumps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_renderings_parse_back() {
        assert_eq!(parse_duration_ns("812ms"), Some(812e6));
        assert_eq!(parse_duration_ns("35.2µs"), Some(35.2e3));
        assert_eq!(parse_duration_ns("1.02s"), Some(1.02e9));
        assert_eq!(parse_duration_ns("950ns"), Some(950.0));
        assert_eq!(parse_duration_ns("fast"), None);
    }

    #[test]
    fn fleet_trace_lines_are_read() {
        let stderr = "fleet: 4000000 samples in 1954 chunks (1954 executed, 0 resumed) on 2 workers in 0.435s\n\
                      chunk latency: p50 399µs / p90 508µs / p99 2.78ms over 1954 chunks\n\
                      trace: fleet_chunk   1954 span(s), total 812ms\n\
                      trace: fleet_hoist      1 span(s), total 35.2µs\n\
                      trace: fleet_merge      1 span(s), total 1.02ms\n";
        assert_eq!(span_total_ns(stderr, "fleet_chunk"), Some(812e6));
        assert_eq!(span_total_ns(stderr, "fleet_hoist"), Some(35.2e3));
        assert_eq!(field(stderr, " workers in "), Some("0.435s"));
        let sweep = "cache: 6864 hits / 7840 misses (46.7% hit rate), 7840 entries\n\
                     time: 0.077s prepare + 0.187s execute\n";
        assert_eq!(field(sweep, "time: "), Some("0.077s"));
        assert_eq!(field(sweep, "prepare + "), Some("0.187s"));
        assert_eq!(field(sweep, "cache: "), Some("6864"));
        assert_eq!(field(sweep, "hits / "), Some("7840"));
    }
}
