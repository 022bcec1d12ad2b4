#![forbid(unsafe_code)]
//! `bench_e2e` — the repository benchmark. Builds the shipped `relia`
//! binary and drives it the way its callers do: over loopback HTTP
//! (`relia serve`) and through the CLI (`relia fleet`, `relia sweep`),
//! checking every answer. See README.md beside this file.
//!
//! ```text
//! bench_e2e --workload W --seed N --seconds S --trace 0|1 [--repeat N]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Exit 0 when the run completed (correct or not),
//! 1 when it could not run, 2 on a usage error.

mod child;
mod cli;
mod http;
mod run;
mod serve;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use bench_e2e::inputs::Workload;
use bench_e2e::stats::{self, Better, END_TO_END, PER_LAYER, TIMINGS};

use child::Ctx;
use run::{json_string, RunResult};

const USAGE: &str = "usage: bench_e2e --workload serve-warm|serve-cold|fleet-cli|circuit-sweep \
                     --seed N --seconds S --trace 0|1 [--repeat N]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut repeat) = (None, None, false, 1);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                repeat = value.parse().map_err(|_| bad())?;
                if repeat == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        repeat,
    };
    if args.trace && args.repeat > 1 {
        return Err("--repeat applies to untraced runs only".to_owned());
    }
    Ok(args)
}

fn run_workload(ctx: &Ctx, args: &Args, seed: u64, traced: bool) -> Result<RunResult, String> {
    match args.workload {
        Workload::ServeWarm | Workload::ServeCold => {
            serve::run(ctx, args.workload, seed, args.seconds, traced)
        }
        Workload::FleetCli | Workload::CircuitSweep => {
            cli::run(ctx, args.workload, seed, args.seconds, traced)
        }
    }
}

fn print_errors(result: &RunResult) {
    for e in &result.tally.errors {
        eprintln!("bench_e2e: check failed: {e}");
    }
}

fn print_e2e(result: &RunResult) {
    println!("{:<20} {:>16} {:<6} measures", "metric", "value", "unit");
    for (i, m) in END_TO_END.iter().enumerate() {
        println!(
            "{:<20} {:>16.3} {:<6} {}",
            m.name, result.e2e[i], m.unit, result.what[i]
        );
    }
    for (t, value) in TIMINGS.iter().zip(result.timing) {
        println!(
            "{:<20} {value:>16.3} {:<6} per-layer: {}",
            t.name, t.unit, result.timed
        );
    }
    for (name, value, unit) in &result.extra {
        println!("{name:<20} {value:>16.3} {unit:<6}");
    }
    println!(
        "operations: {} attempted, {} failed",
        result.tally.attempted, result.tally.failed
    );
}

fn e2e_line(result: &RunResult) -> Result<String, String> {
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(result.e2e)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    let t = &result.tally;
    stats::result_line(t.failed == 0, t.attempted, t.failed, &metrics)
}

/// `--repeat N`: N untraced runs on seeds `seed..seed+N`, then min /
/// median / max per metric and timing, flagging any end-to-end metric
/// whose spread `(max - min) / median` exceeds its bound.
fn repeat(ctx: &Ctx, args: &Args) -> Result<String, String> {
    let mut runs = Vec::new();
    for k in 0..args.repeat as u64 {
        let result = run_workload(ctx, args, args.seed + k, false)?;
        println!("-- run {} (seed {})", k + 1, args.seed + k);
        print_e2e(&result);
        print_errors(&result);
        runs.push(result);
    }
    println!("-- {} runs of {}", runs.len(), args.workload.name());
    println!(
        "{:<20} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "min", "median", "max", "spread", "bound"
    );
    // Prints one row; returns the median.
    let row = |name: &str, bound: Option<f64>, mut values: Vec<f64>| {
        let median = stats::median(&mut values).unwrap_or(0.0);
        let (min, max) = (values[0], values[values.len() - 1]);
        let spread = if median != 0.0 {
            (max - min) / median
        } else {
            f64::INFINITY
        };
        let (bound_text, flag) = match bound {
            Some(b) if spread > b => (b.to_string(), "  EXCEEDS BOUND"),
            Some(b) => (b.to_string(), ""),
            None => ("-".to_owned(), ""),
        };
        println!(
            "{name:<20} {min:>14.3} {median:>14.3} {max:>14.3} {spread:>8.4} {bound_text:>6}{flag}"
        );
        median
    };
    let mut medians = Vec::new();
    for (i, m) in END_TO_END.iter().enumerate() {
        let median = row(
            m.name,
            Some(m.bound),
            runs.iter().map(|r| r.e2e[i]).collect(),
        );
        medians.push((m.name, median, m.unit));
    }
    for (i, t) in TIMINGS.iter().enumerate() {
        row(t.name, None, runs.iter().map(|r| r.timing[i]).collect());
    }
    let attempted = runs.iter().map(|r| r.tally.attempted).sum();
    let failed = runs.iter().map(|r| r.tally.failed).sum();
    stats::result_line(failed == 0, attempted, failed, &medians)
}

/// Runs `bench_layers` on the same workload and seed; returns its
/// `layer <name> <value>` rows.
fn layers(ctx: &Ctx, args: &Args) -> Result<Vec<(String, f64)>, String> {
    let binary = ctx.build_layers()?;
    let output = Command::new(&binary)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--tmp",
        ])
        .arg(&ctx.tmp)
        .output()
        .map_err(|e| format!("running {}: {e}", binary.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "bench_layers failed ({}): {}{}",
            output.status,
            stdout,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(stdout
        .lines()
        .filter_map(|l| {
            let mut parts = l.strip_prefix("layer ")?.split_whitespace();
            Some((parts.next()?.to_owned(), parts.next()?.parse().ok()?))
        })
        .collect())
}

/// Change of a metric under tracing, in percent (positive = worse).
fn overhead(better: Better, plain: f64, traced: f64) -> f64 {
    let change = (traced - plain) / plain * 100.0;
    if better == Better::Higher {
        -change
    } else {
        change
    }
}

fn write_trace_file(
    ctx: &Ctx,
    args: &Args,
    traced: &RunResult,
    layer_rows: &[(String, f64)],
) -> Result<String, String> {
    let spans: Vec<String> = traced
        .spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            format!(
                "{{\"dur_ns\":{},\"id\":{},\"name\":\"{}\",\"parent\":0,\"start_ns\":{}}}",
                s.dur_ns,
                id + 1,
                s.name,
                s.start_ns
            )
        })
        .collect();
    let layers: Vec<String> = layer_rows
        .iter()
        .map(|(n, v)| format!("{}:{v}", json_string(n)))
        .collect();
    let mut body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"client_spans\":[{}],\"layers\":{{{}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        spans.join(","),
        layers.join(",")
    );
    for (key, value) in &traced.dumps {
        body.push_str(&format!(",\"{key}\":{value}"));
    }
    body.push('}');
    let path = ctx.out.join(format!("{}.trace.json", args.workload.name()));
    std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// `--trace 1`: an untraced pass, a traced replay of the same workload and
/// seed, then `bench_layers`. Prints the layer ledger and the tracing
/// overhead; the result line carries the per-layer metrics.
fn traced(ctx: &Ctx, args: &Args) -> Result<String, String> {
    let plain = run_workload(ctx, args, args.seed, false)?;
    print_errors(&plain);
    let traced = run_workload(ctx, args, args.seed, true)?;
    print_errors(&traced);
    let ledger = traced
        .ledger
        .as_ref()
        .ok_or("traced run produced no ledger")?;
    let layer_rows = layers(ctx, args)?;

    println!(
        "-- end to end, untraced vs traced ({})",
        args.workload.name()
    );
    println!(
        "{:<20} {:>14} {:>14} {:>10}",
        "metric", "untraced", "traced", "overhead%"
    );
    let compared = END_TO_END
        .iter()
        .zip(plain.e2e.iter().zip(traced.e2e))
        .map(|(m, (&p, t))| (m.name, m.better, p, t))
        .chain(
            TIMINGS
                .iter()
                .zip(plain.timing.iter().zip(traced.timing))
                .map(|(m, (&p, t))| (m.name, m.better, p, t)),
        );
    let mut p50_overhead = 0.0;
    for (name, better, p, t) in compared {
        let pct = overhead(better, p, t);
        if name == TIMINGS[0].name {
            p50_overhead = pct;
        }
        println!("{name:<20} {p:>14.3} {t:>14.3} {pct:>10.2}");
    }
    println!("-- layer ledger, mean per {} (traced run)", ledger.per);
    println!("{:<28} {:>14} {:<6} note", "layer", "value", "unit");
    for row in &ledger.rows {
        println!(
            "{:<28} {:>14.3} {:<6} {}",
            row.name, row.value, row.unit, row.note
        );
    }
    println!(
        "client mean {:.3} us, layers {:.3} us, remainder {:.3} us ({:.1}%): {}",
        ledger.e2e_mean_us,
        ledger.explained_us,
        ledger.residual_us(),
        ledger.residual_us() / ledger.e2e_mean_us * 100.0,
        if ledger.reconciles() {
            "reconciled within 10%"
        } else {
            "NOT reconciled within 10%"
        }
    );
    println!("-- in-process layers (bench_layers, same seed)");
    for (name, value) in &layer_rows {
        println!("{name:<32} {value:>16.4}");
    }
    println!(
        "trace: {}",
        write_trace_file(ctx, args, &traced, &layer_rows)?
    );

    let mut ledger_values = vec![
        ("ledger.e2e_mean_us", ledger.e2e_mean_us),
        ("ledger.explained_us", ledger.explained_us),
        ("ledger.residual_us", ledger.residual_us()),
        ("ledger.trace_overhead_pct", p50_overhead),
    ];
    ledger_values.extend(TIMINGS.iter().map(|t| t.name).zip(plain.timing));
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for def in PER_LAYER {
        let value = ledger_values
            .iter()
            .find(|(n, _)| *n == def.name)
            .map(|&(_, v)| v)
            .or_else(|| {
                layer_rows
                    .iter()
                    .find(|(n, _)| n == def.name)
                    .map(|&(_, v)| v)
            })
            .ok_or_else(|| format!("no measurement for per-layer metric {}", def.name))?;
        metrics.push((def.name, value, def.unit));
    }
    // The reconciliation is one more check of the traced run.
    let reconciled = ledger.reconciles();
    if !reconciled {
        eprintln!("bench_e2e: check failed: the layer ledger does not reconcile within 10%");
    }
    let attempted = plain.tally.attempted + traced.tally.attempted + 1;
    let failed = plain.tally.failed + traced.tally.failed + u64::from(!reconciled);
    stats::result_line(failed == 0, attempted, failed, &metrics)
}

fn real_main(argv: &[String]) -> Result<String, String> {
    let args = parse_args(argv).map_err(|e| format!("usage: {e}"))?;
    let started = Instant::now();
    let ctx = Ctx::prepare()?;
    eprintln!(
        "bench_e2e: {} seed {} for {} s{} (relia at {}, ready in {:.1} s)",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        ctx.relia
            .strip_prefix(&ctx.root)
            .unwrap_or(Path::new(&ctx.relia))
            .display(),
        started.elapsed().as_secs_f64()
    );
    let line = if args.trace {
        traced(&ctx, &args)
    } else if args.repeat > 1 {
        repeat(&ctx, &args)
    } else {
        run_workload(&ctx, &args, args.seed, false).and_then(|result| {
            print_e2e(&result);
            print_errors(&result);
            e2e_line(&result)
        })
    };
    ctx.cleanup();
    line
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) if e.starts_with("usage: ") => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_are_validated() {
        let a = parse_args(&argv(
            "--workload fleet-cli --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.repeat),
            (Workload::FleetCli, 3, 10.0, true, 1)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve-warm --seed x --seconds 1 --trace 0",
            "--workload serve-warm --seed 1 --seconds 0 --trace 0",
            "--workload serve-warm --seed 1 --seconds 1 --trace 2",
            "--workload serve-warm --seed 1 --seconds 1 --trace 1 --repeat 3",
            "--workload serve-warm --seconds 1",
            "--workload serve-warm --seed 1 --seconds",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
