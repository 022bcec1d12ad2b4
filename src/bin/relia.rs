//! `relia` — command-line front end for the aging/leakage toolkit.
//!
//! `relia help` prints every subcommand with its flags (`USAGE` below);
//! `relia serve --help`, `relia fleet --help` and `relia surface --help`
//! have their own pages. Netlists are ISCAS85 `.bench` or structural
//! Verilog (`.v`, `.sv`) files; `builtin:c432` names a bundled benchmark.
//!
//! Every subcommand reads its words through one [`Args`] reader, so a flag
//! means the same thing wherever it appears. `help`, `-h` or `--help`
//! anywhere prints the subcommand's usage and exits 0. An unknown flag, a
//! word left over after a subcommand's last positional, a missing or
//! unparsable value, a zero count or a non-positive duration is a usage
//! error (exit 2, followed by the subcommand's usage page on stderr); a
//! parsed value the model or engine refuses fails like any analysis
//! (exit 1).

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use relia::cells::Library;
use relia::core::{Kelvin, Ras, Seconds};
use relia::flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
use relia::ivc::{co_optimize, search_mlv_set, MlvSearchConfig};
use relia::jobs::{self, JobOutcome, JobResult, JobTask, PolicySpec, SweepSpec, Workload};
use relia::netlist::stats::CircuitStats;
use relia::netlist::{bench, dot, iscas, Circuit};
use relia::sta::TimingAnalysis;

/// How a run ends other than in success: a request for a usage page
/// (stdout, exit 0), an invocation mistake (exit 2, usage reminder on
/// stderr) or a failed analysis (exit 1).
enum CliError {
    Help(&'static str),
    Usage(String),
    Analysis(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Analysis(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Help(usage)) => {
            println!("{usage}");
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("relia: {msg}");
            eprintln!();
            eprintln!("{}", usage_page(args.first().map_or("", String::as_str)));
            ExitCode::from(2)
        }
        Err(CliError::Analysis(msg)) => {
            eprintln!("relia: {msg}");
            ExitCode::from(1)
        }
    }
}

const USAGE: &str = "usage:
  relia info    <netlist.bench | builtin:NAME>   circuit statistics
  relia timing  <netlist>                        nominal critical path
  relia paths   <netlist> [K]                    top-K critical paths
  relia aging   <netlist> [--ras A:S] [--tstandby K] [--years Y]
                [--standby worst|best|footer|BITS]
                                                 one aging analysis
  relia sweep   [netlist ...] [--ras A:S,...] [--tstandby K,...]
                [--years Y,...] [--standby P,...] [--jobs N]
                [--checkpoint PATH] [--retries N]
                [--job-timeout SECS]             parallel batch sweep
  relia mlv     <netlist> [--ras A:S] [--tstandby K] [--years Y]
                                                 leakage/NBTI co-optimal vectors
  relia dot     <netlist>                        Graphviz export
  relia verilog <netlist>                        structural Verilog export
  relia csv     <netlist> [aging flags]          per-gate aging report
  relia liberty                                  characterized library export
  relia lib                                      cell-library leakage/MLV table
  relia serve   [--addr HOST:PORT] [--threads N] [--queue-depth N]
                [--request-timeout SECS] [--breaker-threshold N]
                [--breaker-cooldown SECS] [--brownout-high-water N]
                [--surface PATH]                 HTTP degradation-query service
  relia fleet   [--samples N] [--seed N] [--times S,...]
                [--guardband G] [--workers N] [--chunk N]
                [--checkpoint PATH]              fleet-scale Monte Carlo aging
  relia surface build [--out PATH] [--tstandby LO:HI:N] [--ras LO:HI:N]
                [--times LO:HI:N] [--pairs PA:PS,...] [--workers N]
                                                 precompute a response surface
  relia surface probe <artifact> [--tstandby K] [--ras A:S] [--time S]
                [--pactive P] [--pstandby P]     interpolated lookup from an artifact
  relia lint    [--root PATH] [--format text|json|sarif]
                [--jobs N] [--list-rules]        workspace static analysis
  relia list                                     built-in benchmarks
  relia help                                     this message
  relia --version                                toolkit version

sweep notes:
  list-valued flags are comma-separated and multiply into a cartesian grid
  (circuits x standby policies x ras x tstandby x years); defaults give a
  40-job grid on builtin:c17. omit --jobs to use all cores (an explicit
  --jobs 0 is a usage error). --checkpoint resumes completed jobs from
  PATH if it exists, salvaging a corrupt tail. --retries N re-runs
  transiently failed jobs (panics) up to N times with exponential backoff;
  --job-timeout SECS cancels stragglers cooperatively (reported as
  TIMEOUT rows, re-run on resume).";

/// The usage page of subcommand `cmd`: what `help` prints and what
/// follows a usage error. `serve`, `fleet` and `surface` have their own.
fn usage_page(cmd: &str) -> &'static str {
    match cmd {
        "serve" => SERVE_USAGE,
        "fleet" => FLEET_USAGE,
        "surface" => SURFACE_USAGE,
        _ => USAGE,
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let (cmd, rest) = args.split_first().ok_or_else(|| missing("command"))?;
    let words = || Args::new(rest, usage_page(cmd));
    match cmd.as_str() {
        "help" | "-h" | "--help" => Err(CliError::Help(USAGE)),
        "version" | "-V" | "--version" => {
            println!("relia {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        }
        "sweep" => run_sweep_command(words()?),
        "serve" => run_serve_command(words()?),
        "fleet" => run_fleet_command(words()?),
        "surface" => run_surface_command(words()?),
        "lint" => run_lint_command(words()?),
        "list" => {
            words()?.end()?;
            for name in iscas::names() {
                let c = iscas::circuit(name).expect("known name");
                let (pi, po, gates, depth) = c.stats();
                println!("{name:>8}: {pi:>4} in, {po:>4} out, {gates:>5} gates, depth {depth}");
            }
            Ok(())
        }
        "info" => {
            let mut args = words()?;
            let circuit = args.circuit()?;
            args.end()?;
            let s = CircuitStats::of(&circuit);
            println!("circuit {}", circuit.name());
            println!("  inputs  : {}", s.inputs);
            println!("  outputs : {}", s.outputs);
            println!("  gates   : {}", s.gates);
            println!("  depth   : {}", s.depth);
            println!("  pmos    : {}", s.pmos_devices);
            println!(
                "  fanout  : mean {:.2}, max {}",
                s.mean_fanout, s.max_fanout
            );
            println!("  cells   :");
            for (name, count) in &s.cell_histogram {
                println!("    {name:>10} x {count}");
            }
            Ok(())
        }
        "timing" => {
            let mut args = words()?;
            let circuit = args.circuit()?;
            args.end()?;
            let report = TimingAnalysis::nominal(&circuit);
            println!("max delay: {:.1} ps", report.max_delay_ps());
            println!("critical path ({} gates):", report.critical_path().len());
            for g in report.critical_path() {
                let gate = circuit.gate(*g);
                println!(
                    "  {:>12} {:<8} arrival {:>8.1} ps",
                    gate.name(),
                    circuit.library().cell(gate.cell()).name(),
                    report.arrival(gate.output())
                );
            }
            Ok(())
        }
        "aging" => {
            let mut args = words()?;
            let circuit = args.circuit()?;
            let (config, standby) = read_options(args, true)?;
            let analysis = AgingAnalysis::new(&config, &circuit).map_err(stringify)?;
            let policy = standby_policy(&standby, &circuit)?;
            let report = analysis.run(&policy).map_err(stringify)?;
            println!(
                "schedule: active {:.1} s @ {}, standby {:.1} s @ {}; lifetime {:.2} years",
                config.schedule.t_active().0,
                config.schedule.temp_active(),
                config.schedule.t_standby().0,
                config.schedule.temp_standby(),
                config.lifetime.to_years()
            );
            println!("nominal delay : {:.1} ps", report.nominal.max_delay_ps());
            println!("aged delay    : {:.1} ps", report.degraded.max_delay_ps());
            println!(
                "degradation   : {:.2}%",
                report.degradation_fraction() * 100.0
            );
            println!("worst dVth    : {:.1} mV", report.worst_delta_vth() * 1e3);
            if let Some(leak) = report.standby_leakage {
                println!("standby leak  : {:.2} uA", leak * 1e6);
            }
            println!("active leak   : {:.2} uA", report.active_leakage * 1e6);
            Ok(())
        }
        "mlv" => {
            let mut args = words()?;
            let circuit = args.circuit()?;
            // The search picks the standby vectors, so `--standby` would
            // have nothing to set.
            let (config, _) = read_options(args, false)?;
            let analysis = AgingAnalysis::new(&config, &circuit).map_err(stringify)?;
            let set = search_mlv_set(&analysis, &MlvSearchConfig::default()).map_err(stringify)?;
            let co = co_optimize(&analysis, &set).map_err(stringify)?;
            println!(
                "{} MLVs within 4% of minimum leakage {:.3} uA",
                set.vectors().len(),
                set.min_leakage() * 1e6
            );
            for (i, e) in co.evaluations.iter().enumerate() {
                let marker = if i == co.best_for_nbti {
                    " <= co-optimal"
                } else {
                    ""
                };
                let bits: String = e
                    .vector
                    .iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect();
                println!(
                    "  {bits}  leak {:.3} uA  aging +{:.3}%{marker}",
                    e.leakage * 1e6,
                    e.degradation * 100.0
                );
            }
            Ok(())
        }
        "paths" => {
            let mut args = words()?;
            let circuit = args.circuit()?;
            let k = match args.next() {
                Some(k) => parse(k, "path count")?,
                None => 5,
            };
            args.end()?;
            let report = TimingAnalysis::nominal(&circuit);
            let top = relia::sta::k_critical_paths(&circuit, &report, k);
            for (i, path) in top.iter().enumerate() {
                let names: Vec<&str> = path.gates.iter().map(|g| circuit.gate(*g).name()).collect();
                println!(
                    "#{:<2} {:>8.1} ps  {} -> {}  [{}]",
                    i + 1,
                    path.delay_ps,
                    circuit.net(path.start).name(),
                    circuit.net(path.endpoint).name(),
                    names.join(" ")
                );
            }
            Ok(())
        }
        "lib" => {
            use relia::cells::Vector;
            use relia::leakage::{DeviceModels, LeakageTable};
            words()?.end()?;
            let lib = Library::ptm90();
            let table = LeakageTable::build(&lib, &DeviceModels::ptm90(), Kelvin(400.0));
            println!(
                "{:>10} {:>5} {:>6} {:>10} {:>12} {:>12} {:>14}",
                "cell", "pins", "pmos", "MLV", "min leak", "max leak", "MLV stress"
            );
            for (id, cell) in lib.iter() {
                let n = cell.num_pins();
                let (mlv, min_leak) = table.min_vector(id, n);
                let max_leak = Vector::all(n)
                    .map(|v| table.of(id, v).total())
                    .fold(0.0f64, f64::max);
                let stressed = cell
                    .stressed_pmos(&mlv.to_bools())
                    .iter()
                    .filter(|&&s| s)
                    .count();
                println!(
                    "{:>10} {:>5} {:>6} {:>10} {:>9.1} nA {:>9.1} nA {:>10}/{}",
                    cell.name(),
                    n,
                    cell.pmos_count(),
                    mlv.to_string(),
                    min_leak * 1e9,
                    max_leak * 1e9,
                    stressed,
                    cell.pmos_count()
                );
            }
            Ok(())
        }
        "dot" => {
            let mut args = words()?;
            let circuit = args.circuit()?;
            args.end()?;
            print!("{}", dot::to_dot(&circuit, &dot::DotOptions::default()));
            Ok(())
        }
        "verilog" => {
            let mut args = words()?;
            let circuit = args.circuit()?;
            args.end()?;
            print!("{}", relia::netlist::verilog::write(&circuit));
            Ok(())
        }
        "csv" => {
            let mut args = words()?;
            let circuit = args.circuit()?;
            let (config, standby) = read_options(args, true)?;
            let analysis = AgingAnalysis::new(&config, &circuit).map_err(stringify)?;
            let report = analysis
                .run(&standby_policy(&standby, &circuit)?)
                .map_err(stringify)?;
            print!("{}", relia::flow::report::to_csv(&circuit, &report));
            Ok(())
        }
        "liberty" => {
            words()?.end()?;
            print!(
                "{}",
                relia::leakage::liberty::export(&Library::ptm90(), Kelvin(400.0))
            );
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other}"))),
    }
}

/// Shorthand for the repeated "required positional missing" usage error.
fn missing(what: &str) -> CliError {
    CliError::Usage(format!("missing {what}"))
}

/// The words after a subcommand, read left to right as positional words and
/// `--flag value` pairs. The caller matches each word; for a flag it reads
/// the value through the helper that gives the flag its meaning, so a
/// count, a duration, a list or `--ras` parses the same way in every
/// subcommand.
struct Args<'a> {
    words: std::slice::Iter<'a, String>,
    /// The word [`Args::next`] returned last: the flag a value belongs to.
    flag: &'a str,
}

impl<'a> Args<'a> {
    /// Reads `words`, unless `help`, `-h` or `--help` is among them: that
    /// asks for `usage` instead.
    fn new(words: &'a [String], usage: &'static str) -> Result<Self, CliError> {
        if words
            .iter()
            .any(|w| matches!(w.as_str(), "help" | "-h" | "--help"))
        {
            return Err(CliError::Help(usage));
        }
        Ok(Args {
            words: words.iter(),
            flag: "",
        })
    }

    /// The next word: a positional, a switch, or a flag whose value the
    /// caller reads next.
    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.words.next()?;
        Some(self.flag)
    }

    /// The circuit named by the next word (a netlist path or `builtin:NAME`).
    fn circuit(&mut self) -> Result<Circuit, CliError> {
        Ok(load(self.next().ok_or_else(|| missing("netlist"))?)?)
    }

    /// Ends a subcommand whose words are all read: a leftover one is a
    /// usage error.
    fn end(mut self) -> Result<(), CliError> {
        self.next().map_or(Ok(()), |word| Err(unknown(word)))
    }

    /// The current flag's value, whatever it looks like.
    fn value(&mut self) -> Result<&'a str, CliError> {
        let flag = self.flag;
        self.words
            .next()
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("flag {flag} needs a value")))
    }

    /// The value read as a number (`what` names it in the error).
    fn number<T: FromStr>(&mut self, what: &str) -> Result<T, CliError> {
        parse(self.value()?, what)
    }

    /// The value read as a count of at least 1.
    fn count<T: FromStr + PartialEq + From<u8>>(&mut self, what: &str) -> Result<T, CliError> {
        let n = self.number(what)?;
        if n == T::from(0) {
            return Err(CliError::Usage(format!("{} must be at least 1", self.flag)));
        }
        Ok(n)
    }

    /// The value read as a positive, finite number of seconds.
    fn duration(&mut self, what: &str) -> Result<Duration, CliError> {
        let value = self.value()?;
        let secs: f64 = parse(value, what)?;
        if !(secs > 0.0 && secs.is_finite()) {
            return Err(CliError::Usage(format!(
                "{} must be positive, got {value}",
                self.flag
            )));
        }
        Ok(Duration::from_secs_f64(secs))
    }

    /// The value read as a comma-separated list, each item by `item`.
    fn list<T>(&mut self, item: impl Fn(&str) -> Result<T, CliError>) -> Result<Vec<T>, CliError> {
        self.value()?.split(',').map(item).collect()
    }

    /// The value of `--ras A:S`, as the model takes it: a ratio it
    /// refuses fails the run (exit 1).
    fn ras(&mut self) -> Result<Ras, CliError> {
        let (active, standby) = pair(self.value()?, "--ras", "A:S", "ratio")?;
        Ok(Ras::new(active, standby).map_err(stringify)?)
    }
}

/// `text` read as a number, or the usage error `bad {what} {text}`.
fn parse<T: FromStr>(text: &str, what: &str) -> Result<T, CliError> {
    text.parse()
        .map_err(|_| CliError::Usage(format!("bad {what} {text}")))
}

/// `text` read as an `X:Y` pair of numbers; `shape` is how `flag` spells it.
fn pair(text: &str, flag: &str, shape: &str, what: &str) -> Result<(f64, f64), CliError> {
    let (x, y) = text
        .split_once(':')
        .ok_or_else(|| CliError::Usage(format!("{flag} expects {shape}, got {text}")))?;
    Ok((parse(x, what)?, parse(y, what)?))
}

/// The usage error for a word no arm of a subcommand matched.
fn unknown(word: &str) -> CliError {
    CliError::Usage(if word.starts_with("--") {
        format!("unknown flag {word}")
    } else {
        format!("unexpected argument {word}")
    })
}

/// `relia lint [--root PATH] [--format text|json|sarif] ...` — the
/// front end of `relia-lint`. Violations print to stdout (rustc-style
/// text, JSONL or one SARIF document) and the command exits 1, matching
/// the analysis-failure convention; flag mistakes exit 2 like every other
/// subcommand. `--list-rules` prints the rule table and exits 0.
fn run_lint_command(mut args: Args) -> Result<(), CliError> {
    use relia::lint::{diag, lint_workspace, walker, RULES};

    let mut root: Option<PathBuf> = None;
    let mut format = "text";
    let mut jobs = 1;
    while let Some(flag) = args.next() {
        match flag {
            "--root" => root = Some(PathBuf::from(args.value()?)),
            "--format" => {
                format = args.value()?;
                if !matches!(format, "text" | "json" | "sarif") {
                    return Err(CliError::Usage(format!(
                        "--format wants text|json|sarif, got {format:?}"
                    )));
                }
            }
            "--jobs" => jobs = args.count("job count")?,
            "--list-rules" => {
                for (i, r) in RULES.iter().enumerate() {
                    println!("R{} {} — {}", i + 1, r.id, r.summary);
                }
                return Ok(());
            }
            other => return Err(unknown(other)),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| CliError::Usage(format!("cannot read current dir: {e}")))?;
            walker::find_workspace_root(&cwd).ok_or_else(|| {
                CliError::Usage("no workspace Cargo.toml above the current directory".into())
            })?
        }
    };
    let diags = lint_workspace(&root, jobs).map_err(CliError::Usage)?;
    match format {
        "sarif" => println!("{}", diag::render_sarif(&diags)),
        "json" => diags.iter().for_each(|d| println!("{}", d.render_json())),
        _ => diags.iter().for_each(|d| println!("{}", d.render_text())),
    }
    if diags.is_empty() {
        Ok(())
    } else {
        Err(CliError::Analysis(format!(
            "{} lint violation(s)",
            diags.len()
        )))
    }
}

const SERVE_USAGE: &str = "usage: relia serve [flags]

Serves NBTI degradation queries over HTTP (std-only, offline):

  POST /v1/degrade      one stress point -> dVth + delay degradation
  POST /v1/sweep        small inline grid (canonical sweep order)
  POST /v1/fleet        Monte Carlo fleet summary (relia-fleet engine)
  GET  /healthz         liveness / drain state
  GET  /metrics         Prometheus text exposition (latency histograms,
                        build info, uptime included)
  GET  /debug/trace     most recent request spans as JSON
  POST /admin/shutdown  graceful drain (finish in-flight, then exit 0)

flags:
  --addr HOST:PORT        bind address (default 127.0.0.1:0 = ephemeral
                          port; the resolved address is printed on stdout)
  --threads N             worker threads (default: all cores)
  --queue-depth N         bounded connection queue; beyond it new
                          connections are shed with 503 + Retry-After
                          (default 64, must be >= 1)
  --request-timeout SECS  per-request deadline: socket reads (408) and
                          evaluation (504) both (default 5)
  --breaker-threshold N   consecutive evaluation failures (5xx) that open
                          an endpoint's circuit breaker (default 5, must
                          be >= 1)
  --breaker-cooldown SECS open-breaker cooldown before a half-open probe
                          is admitted (default 1)
  --brownout-high-water N in-flight connections beyond which brownout
                          engages: cache hits still answer, cold work is
                          shed with 503 + Retry-After (default 48)
  --trace N               span-ring capacity behind GET /debug/trace
                          (default 1024; 0 disables span recording)
  --slow-ms MS            log requests slower than MS milliseconds to
                          stderr (default 0 = off)
  --surface PATH          mount a precomputed response surface (built by
                          `relia surface build`): in-domain /v1/degrade
                          queries answer by multilinear interpolation in
                          microseconds, out-of-domain or unknown-pair
                          queries fall back to exact evaluation, and
                          `?mode=exact` forces the exact path per
                          request. Artifacts whose measured sup-error
                          exceeds the documented bound or whose model
                          fingerprint mismatches the serving calibration
                          are refused at startup (exit 1)

Identical concurrent queries are coalesced into one model evaluation, and
all queries share one process-wide dVth memo cache. Health transitions
(Healthy -> Degraded -> Draining) are logged to stderr; /healthz answers
203 + Retry-After while degraded.";

/// `relia serve` — boots the HTTP service and blocks until drained.
fn run_serve_command(mut args: Args) -> Result<(), CliError> {
    let mut config = relia::serve::ServeConfig::default();
    let mut request_timeout = Duration::from_secs(5);
    let mut overload = relia::serve::OverloadConfig::default();
    let mut trace_capacity = relia::serve::DEFAULT_TRACE_CAPACITY;
    let mut slow_ms: u64 = 0;
    let mut surface_path: Option<PathBuf> = None;
    while let Some(flag) = args.next() {
        match flag {
            "--addr" => config.addr = args.value()?.to_owned(),
            "--threads" => config.threads = args.count("thread count")?,
            "--queue-depth" => config.queue_depth = args.count("queue depth")?,
            "--request-timeout" => request_timeout = args.duration("timeout")?,
            "--breaker-threshold" => {
                overload.breaker_threshold = args.count("breaker threshold")?
            }
            "--breaker-cooldown" => overload.breaker_cooldown = args.duration("cooldown")?,
            "--brownout-high-water" => {
                overload.brownout_high_water = args.number("high-water mark")?;
            }
            "--trace" => trace_capacity = args.number("trace capacity")?,
            "--slow-ms" => slow_ms = args.number("slow threshold")?,
            "--surface" => surface_path = Some(PathBuf::from(args.value()?)),
            other => return Err(unknown(other)),
        }
    }
    let obs = relia::serve::ServeObs::new()
        .with_tracer(relia::obs::Tracer::new(trace_capacity))
        .with_slow_log(slow_ms, Box::new(|line| eprintln!("relia-serve {line}")));
    let mut state = relia::serve::ServeState::new(request_timeout)
        .map_err(CliError::Analysis)?
        .with_overload(overload)
        .with_obs(obs);
    if let Some(path) = &surface_path {
        let surface = relia::surface::Surface::load(path).map_err(|e| {
            CliError::Analysis(format!("cannot mount surface {}: {e}", path.display()))
        })?;
        let model = relia::core::NbtiModel::ptm90().map_err(stringify)?;
        surface
            .verify_model(&model)
            .map_err(|e| CliError::Analysis(format!("surface {}: {e}", path.display())))?;
        eprintln!(
            "relia-serve surface: mounted {} (sup-error {:e}, bound {:e})",
            path.display(),
            surface.sup_error(),
            relia::surface::DOCUMENTED_ERROR_BOUND
        );
        state = state.with_surface(surface);
    }
    let state = Arc::new(state);
    // Operators watch health from stderr; stdout stays machine-parseable.
    state.health.set_logger(Box::new(|t| {
        eprintln!(
            "relia-serve health: {} -> {} (transition {})",
            t.from.label(),
            t.to.label(),
            t.seq
        );
    }));
    let server = relia::serve::Server::bind(config, state)
        .map_err(|e| CliError::Analysis(format!("cannot bind: {e}")))?;
    // The resolved address (ephemeral port included) goes to stdout so
    // scripts and load generators can discover it.
    println!("relia-serve listening on {}", server.local_addr());
    server
        .run()
        .map_err(|e| CliError::Analysis(format!("server failed: {e}")))
}

const FLEET_USAGE: &str = "usage: relia fleet [flags]

Monte Carlo aging across a device fleet: correlated Vth/rate variation
drawn from a seeded PRNG, evaluated with the hoisted batch kernel, and
summarized as degradation percentiles, yield vs time, and projected
lifetime percentiles.

flags:
  --samples N          devices to draw (default 10000)
  --seed N             PRNG seed, decimal or 0xHEX (default 0xf1612a)
  --times S,S,...      evaluation times in seconds, non-decreasing
                       (default 3.156e7,9.468e7,1e8)
  --ras A:S            active:standby duty ratio (default 1:9)
  --tstandby K         standby temperature in kelvin (default 330)
  --pactive P          active-mode stress probability (default 0.5)
  --pstandby P         standby-mode stress probability (default 1)
  --vth-mean V         fresh Vth mean in volts (default 0.22)
  --vth-sigma V        fresh Vth sigma in volts (default 0.010)
  --correlation C      Vth/rate correlation in [-1, 1] (default -0.4)
  --rate-sigma S       lognormal aging-rate spread (default 0.08)
  --guardband G        delay guardband fraction in (0, 1) (default 0.08)
  --workers N          worker threads (default: all cores; an explicit
                       --workers 0 is a usage error)
  --chunk N            samples per chunk (default 2048; part of the
                       checkpoint fingerprint)
  --checkpoint PATH    append completed chunks to PATH and resume from it
  --trace N            record hoist/chunk/merge spans into an N-slot ring
                       and print per-phase attribution to stderr (0 = off)

Summaries are bit-identical for a fixed seed and chunk size regardless
of --workers.";

/// `relia fleet` — the CLI face of the `relia-fleet` batch engine.
///
/// Flag mistakes (unparseable numbers, unknown flags, an explicit zero
/// worker/chunk count) exit 2; spec violations the engine rejects
/// (e.g. an out-of-range guardband) and checkpoint mismatches exit 1.
fn run_fleet_command(mut args: Args) -> Result<(), CliError> {
    use relia::core::{Volts, VthDistribution};
    use relia::fleet::{run_fleet, FleetOptions, FleetSpec};

    let mut spec = FleetSpec::paper_defaults().map_err(stringify)?;
    let mut opts = FleetOptions::default();
    let mut vth_mean = spec.dist.mean().0;
    let mut vth_sigma = spec.dist.sigma().0;
    while let Some(flag) = args.next() {
        match flag {
            "--samples" => spec.samples = args.number("sample count")?,
            "--seed" => {
                let value = args.value()?;
                let (v, bad) = (value.trim(), || {
                    CliError::Usage(format!("bad seed {value}"))
                });
                spec.seed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16).map_err(|_| bad())?,
                    None => v.parse().map_err(|_| bad())?,
                };
            }
            "--times" => spec.times = args.list(|t| parse(t, "time").map(Seconds))?,
            "--ras" => spec.ras = args.ras()?,
            "--tstandby" => spec.t_standby = Kelvin(args.number("kelvin")?),
            "--pactive" => spec.p_active = args.number("probability")?,
            "--pstandby" => spec.p_standby = args.number("probability")?,
            "--vth-mean" => vth_mean = args.number("voltage")?,
            "--vth-sigma" => vth_sigma = args.number("voltage")?,
            "--correlation" => spec.correlation = args.number("correlation")?,
            "--rate-sigma" => spec.rate_sigma = args.number("rate sigma")?,
            "--guardband" => spec.guardband = args.number("guardband")?,
            "--workers" => opts.workers = args.count("worker count")?,
            "--chunk" => opts.chunk = args.count("chunk size")?,
            "--checkpoint" => opts.checkpoint = Some(PathBuf::from(args.value()?)),
            "--trace" => {
                let capacity: usize = args.number("trace capacity")?;
                if capacity > 0 {
                    opts.trace = Some(Arc::new(relia::obs::Tracer::new(capacity)));
                }
            }
            other => return Err(unknown(other)),
        }
    }
    spec.dist = VthDistribution::new(Volts(vth_mean), Volts(vth_sigma)).map_err(stringify)?;

    let outcome = run_fleet(&spec, &opts).map_err(|e| CliError::Analysis(e.to_string()))?;
    let summary = &outcome.summary;
    println!(
        "fleet: {} devices, seed {:#x}, guardband {:.1}%",
        summary.samples,
        summary.seed,
        summary.guardband * 100.0
    );
    println!(
        "{:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "time", "mean", "std", "p50", "p90", "p99", "yield"
    );
    for p in &summary.points {
        println!(
            "{:>11.4e}s {:>7.3}% {:>7.3}% {:>7.3}% {:>7.3}% {:>7.3}% {:>7.2}%",
            p.time.0,
            p.mean * 100.0,
            p.std_dev * 100.0,
            p.p50 * 100.0,
            p.p90 * 100.0,
            p.p99 * 100.0,
            p.yield_fraction * 100.0
        );
    }
    let lt = &summary.lifetime;
    println!(
        "lifetime: p01 {:.2} years, p10 {:.2} years, p50 {:.2} years",
        Seconds(lt.p01).to_years(),
        Seconds(lt.p10).to_years(),
        Seconds(lt.p50).to_years()
    );
    eprintln!("{}", outcome.metrics);
    if let Some(tracer) = &opts.trace {
        // Hot-path attribution over the retained spans: where the wall
        // clock went, phase by phase (hoisting vs sampling vs merging).
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64)> =
            std::collections::BTreeMap::new();
        for span in tracer.recent() {
            let entry = by_name.entry(span.name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += span.dur_ns;
        }
        for (name, (count, total_ns)) in by_name {
            eprintln!(
                "trace: {name:<12} {count:>5} span(s), total {}",
                relia::obs::fmt_ns(total_ns as f64)
            );
        }
        if tracer.dropped() > 0 {
            eprintln!(
                "trace: {} span(s) dropped under contention",
                tracer.dropped()
            );
        }
    }
    Ok(())
}

const SURFACE_USAGE: &str = "usage: relia surface <build | probe> [flags]

Precomputed degradation response surface: an offline builder fills a
dense (T_active x T_standby x RAS x lifetime) grid per stress pair with
exact model evaluations, measures the multilinear-interpolation
sup-error at every cell midpoint, and seals both into a versioned,
CRC-32-protected artifact that `relia serve --surface` mounts as a
microsecond-latency hot tier.

relia surface build [flags]
  --out PATH          artifact path (default surface.rls; written via
                      tmp + rename, so a crash never leaves a torn file)
  --tstandby LO:HI:N  standby-temperature axis, N linear points in
                      kelvin (default 310:410:21)
  --ras LO:HI:N       RAS active-fraction axis, N linear points in
                      (0, 1) (default 0.05:0.95:37)
  --times LO:HI:N     lifetime axis, N log-spaced points in seconds
                      (default 1e6:1e10:41)
  --pairs PA:PS,...   stress-probability pairs, one value block each
                      (default 0.5:1)
  --workers N         builder threads (default: all cores)

The measured sup-error is printed and embedded in the header; a build
whose error exceeds the documented bound is refused (exit 1) — densify
the grid instead of shipping an artifact the server would reject.

relia surface probe <artifact> [flags]
  --tactive K         active temperature (default: the engine baseline)
  --tstandby K        standby temperature in kelvin (default 330)
  --ras A:S           active:standby duty ratio (default 1:9)
  --time S            lifetime in seconds (default 1e8)
  --pactive P         active-mode stress probability (default 0.5)
  --pstandby P        standby-mode stress probability (default 1)

Probe answers one interpolated lookup, reports whether the query was
clamped to the grid domain, and cross-checks the in-domain answer
against exact evaluation (exit 1 if the relative error exceeds the
documented bound).";

/// `relia surface` — builds and probes response-surface artifacts.
fn run_surface_command(mut args: Args) -> Result<(), CliError> {
    match args.next() {
        None => Err(CliError::Help(SURFACE_USAGE)),
        Some("build") => run_surface_build(args),
        Some("probe") => run_surface_probe(args),
        Some(other) => Err(CliError::Usage(format!(
            "unknown surface subcommand {other} (expected build or probe)"
        ))),
    }
}

/// The current flag's value read as an axis `LO:HI:N`, spaced
/// logarithmically or linearly.
fn axis(args: &mut Args, log: bool) -> Result<Vec<f64>, CliError> {
    let value = args.value()?;
    let bad = || CliError::Usage(format!("{} expects LO:HI:N, got {value}", args.flag));
    let parts: Vec<&str> = value.split(':').collect();
    let [lo, hi, n] = parts.as_slice() else {
        return Err(bad());
    };
    let lo: f64 = lo.parse().map_err(|_| bad())?;
    let hi: f64 = hi.parse().map_err(|_| bad())?;
    let n: usize = n.parse().map_err(|_| bad())?;
    if n == 0 {
        return Err(bad());
    }
    Ok(if log {
        relia::surface::log_spaced(lo, hi, n)
    } else {
        relia::surface::lin_spaced(lo, hi, n)
    })
}

fn run_surface_build(mut args: Args) -> Result<(), CliError> {
    let mut spec = relia::surface::BuildSpec::paper_defaults();
    let mut out = PathBuf::from("surface.rls");
    while let Some(flag) = args.next() {
        match flag {
            "--out" => out = PathBuf::from(args.value()?),
            "--tstandby" => {
                spec.t_standby_k = axis(&mut args, false)?.into_iter().map(Kelvin).collect();
            }
            "--ras" => spec.ras_fraction = axis(&mut args, false)?,
            "--times" => spec.lifetime_s = axis(&mut args, true)?,
            "--pairs" => {
                spec.pairs = args.list(|p| pair(p, "--pairs", "PA:PS,...", "probability"))?;
            }
            "--workers" => spec.workers = args.count("worker count")?,
            other => return Err(unknown(other)),
        }
    }
    let model = relia::core::NbtiModel::ptm90().map_err(stringify)?;
    let artifact = relia::surface::build(&model, &spec).map_err(stringify)?;
    let bound = relia::surface::DOCUMENTED_ERROR_BOUND;
    if artifact.sup_error > bound {
        return Err(CliError::Analysis(format!(
            "measured sup-error {:e} exceeds the documented bound {bound:e}; \
             refusing to write {} — densify the grid",
            artifact.sup_error,
            out.display()
        )));
    }
    artifact.write(&out).map_err(stringify)?;
    let g = &artifact.grid;
    println!("surface: wrote {}", out.display());
    println!(
        "  grid: {} x {} x {} x {} nodes, {} stress pair(s), {} values",
        g.t_active_k().len(),
        g.t_standby_k().len(),
        g.ras_fraction().len(),
        g.lifetime_s().len(),
        artifact.pairs.len(),
        artifact.pairs.len() * g.len()
    );
    println!(
        "  sup-error: {:e} over {} midpoint samples (bound {bound:e})",
        artifact.sup_error, artifact.error_samples
    );
    Ok(())
}

fn run_surface_probe(mut args: Args) -> Result<(), CliError> {
    let path = PathBuf::from(
        args.next()
            .ok_or_else(|| CliError::Usage("surface probe needs an artifact path".into()))?,
    );
    let mut query = relia::surface::SurfaceQuery {
        t_active_k: Kelvin(jobs::SWEEP_TEMP_ACTIVE_K),
        t_standby_k: Kelvin(330.0),
        ras_fraction: 0.1,
        lifetime_s: 1e8,
        p_active: 0.5,
        p_standby: 1.0,
    };
    while let Some(flag) = args.next() {
        match flag {
            "--tactive" => query.t_active_k = Kelvin(args.number("kelvin")?),
            "--tstandby" => query.t_standby_k = Kelvin(args.number("kelvin")?),
            "--ras" => query.ras_fraction = args.ras()?.active_fraction(),
            "--time" => query.lifetime_s = args.number("time")?,
            "--pactive" => query.p_active = args.number("probability")?,
            "--pstandby" => query.p_standby = args.number("probability")?,
            other => return Err(unknown(other)),
        }
    }
    let model = relia::core::NbtiModel::ptm90().map_err(stringify)?;
    let surface = relia::surface::Surface::load(&path)
        .map_err(|e| CliError::Analysis(format!("cannot load {}: {e}", path.display())))?;
    surface
        .verify_model(&model)
        .map_err(|e| CliError::Analysis(format!("{}: {e}", path.display())))?;
    let g = &surface.artifact().grid;
    println!(
        "surface: {} — grid {} x {} x {} x {}, {} pair(s), sup-error {:e}",
        path.display(),
        g.t_active_k().len(),
        g.t_standby_k().len(),
        g.ras_fraction().len(),
        g.lifetime_s().len(),
        surface.artifact().pairs.len(),
        surface.sup_error()
    );
    let lookup = surface.lookup(&query).ok_or_else(|| {
        CliError::Analysis(format!(
            "stress pair ({}, {}) is not in the artifact",
            query.p_active, query.p_standby
        ))
    })?;
    println!("delta_vth_v: {:e}", lookup.delta_vth_v);
    println!("clamped: {}", lookup.clamped);
    if lookup.clamped {
        // Out-of-domain answers carry no accuracy contract; nothing to gate.
        return Ok(());
    }
    let exact = relia::surface::evaluate_exact(&model, surface.artifact().period_s, &query)
        .map_err(stringify)?;
    let err = relia::surface::rel_error(lookup.delta_vth_v, exact);
    let bound = relia::surface::DOCUMENTED_ERROR_BOUND;
    println!("rel-error: {err:e} vs exact {exact:e} (bound {bound:e})");
    if err > bound {
        return Err(CliError::Analysis(format!(
            "interpolated answer misses exact evaluation by {err:e} (> bound {bound:e})"
        )));
    }
    Ok(())
}

/// `relia sweep`: list-valued flags are comma-separated, add up when
/// repeated and multiply into a cartesian grid.
fn run_sweep_command(mut args: Args) -> Result<(), CliError> {
    let (mut circuits, mut policies) = (Vec::new(), Vec::new());
    let (mut ras, mut t_standby, mut years) = (Vec::new(), Vec::new(), Vec::new());
    let mut options = jobs::SweepOptions::default();
    while let Some(word) = args.next() {
        match word {
            "--ras" => ras.extend(args.list(|p| pair(p, "--ras", "A:S", "ratio"))?),
            "--tstandby" => t_standby.extend(args.list(|p| parse(p, "kelvin").map(Kelvin))?),
            "--years" => years.extend(args.list(|p| parse::<f64>(p, "years"))?),
            "--standby" => {
                policies.extend(args.list(|p| PolicySpec::parse(p).map_err(CliError::Usage))?);
            }
            "--jobs" => options.workers = args.count("job count")?,
            "--checkpoint" => options.checkpoint = Some(PathBuf::from(args.value()?)),
            "--retries" => options.retries = args.number("retry count")?,
            "--job-timeout" => options.job_timeout = Some(args.duration("timeout")?),
            circuit if !circuit.starts_with("--") => circuits.push(circuit.to_owned()),
            other => return Err(unknown(other)),
        }
    }
    // Defaults chosen so a bare `relia sweep` exercises a 40-job grid.
    if circuits.is_empty() {
        circuits.push("builtin:c17".to_owned());
    }
    if policies.is_empty() {
        policies = vec![PolicySpec::Worst, PolicySpec::Best];
    }
    if ras.is_empty() {
        ras = vec![(1.0, 1.0), (1.0, 3.0), (1.0, 5.0), (1.0, 7.0), (1.0, 9.0)];
    }
    if t_standby.is_empty() {
        t_standby = [330.0, 350.0, 370.0, 400.0].map(Kelvin).to_vec();
    }
    if years.is_empty() {
        years.push(Seconds(1.0e8).to_years());
    }
    let spec = SweepSpec {
        workload: Workload::CircuitAging { circuits, policies },
        ras,
        t_standby,
        lifetimes: years.into_iter().map(Seconds::from_years).collect(),
    };
    let outcome = jobs::run_sweep(&spec, &options, load).map_err(|e| match e {
        // An empty grid means the invocation described no work — that is a
        // usage problem (exit 2), not an analysis failure (exit 1).
        jobs::SweepError::EmptySpec => CliError::Usage(e.to_string()),
        other => CliError::Analysis(other.to_string()),
    })?;

    println!(
        "{:>10} {:>8} {:>6} {:>9} {:>8} {:>9} {:>7} {:>9} {:>9} {:>10}",
        "circuit", "standby", "ras", "tstandby", "years", "dVth", "degr", "nominal", "aged", "leak"
    );
    for (point, status) in outcome.points.iter().zip(&outcome.statuses) {
        let (circuit, policy) = match &point.task {
            JobTask::Aging { circuit, policy } => (
                circuit.strip_prefix("builtin:").unwrap_or(circuit),
                policy.label(),
            ),
            JobTask::Model { .. } => ("<model>", "-".to_owned()),
        };
        let prefix = format!(
            "{:>10} {:>8} {:>6} {:>8.0}K {:>8.2}",
            circuit,
            policy,
            format!("{}:{}", point.ras.0, point.ras.1),
            point.t_standby.0,
            point.lifetime.to_years()
        );
        match status {
            JobOutcome::Completed(JobResult::Aging {
                worst_delta_vth,
                degradation,
                nominal_delay_ps,
                degraded_delay_ps,
                standby_leakage,
                ..
            }) => {
                let leak = standby_leakage
                    .map(|l| format!("{:.2}uA", l * 1e6))
                    .unwrap_or_else(|| "-".to_owned());
                println!(
                    "{prefix} {:>7.2}mV {:>6.2}% {:>7.1}ps {:>7.1}ps {:>10}",
                    worst_delta_vth * 1e3,
                    degradation * 100.0,
                    nominal_delay_ps,
                    degraded_delay_ps,
                    leak
                );
            }
            JobOutcome::Completed(JobResult::Model { delta_vth }) => {
                println!("{prefix} {:>7.2}mV", delta_vth * 1e3);
            }
            JobOutcome::Failed { reason, attempts } => {
                if *attempts > 1 {
                    println!("{prefix} FAILED after {attempts} attempts: {reason}");
                } else {
                    println!("{prefix} FAILED: {reason}");
                }
            }
            JobOutcome::TimedOut { elapsed_ms } => {
                println!("{prefix} TIMEOUT after {:.1}s", *elapsed_ms as f64 / 1e3);
            }
        }
    }
    eprintln!("{}", outcome.metrics);
    Ok(())
}

fn stringify(e: impl Display) -> String {
    e.to_string()
}

fn load(source: &str) -> Result<Circuit, String> {
    if let Some(name) = source.strip_prefix("builtin:") {
        return iscas::circuit(name).ok_or_else(|| format!("unknown builtin {name}"));
    }
    let text = std::fs::read_to_string(source).map_err(|e| format!("cannot read {source}: {e}"))?;
    if source.ends_with(".v") || source.ends_with(".sv") {
        relia::netlist::verilog::parse(&text, Library::ptm90()).map_err(stringify)
    } else {
        bench::parse(&text, Library::ptm90()).map_err(stringify)
    }
}

/// The flags `aging`, `mlv` and `csv` share: the analysis config, and the
/// standby policy where the subcommand `takes_standby`.
fn read_options(mut args: Args, takes_standby: bool) -> Result<(FlowConfig, PolicySpec), CliError> {
    let mut ras = Ras::new(1.0, 9.0).map_err(stringify)?;
    let (mut t_standby, mut years) = (Kelvin(330.0), Seconds(1.0e8).to_years());
    let mut standby = PolicySpec::Worst;
    while let Some(flag) = args.next() {
        match flag {
            "--ras" => ras = args.ras()?,
            "--tstandby" => t_standby = Kelvin(args.number("kelvin")?),
            "--years" => years = args.number("years")?,
            "--standby" if takes_standby => {
                standby = PolicySpec::parse(args.value()?).map_err(CliError::Usage)?
            }
            other => return Err(unknown(other)),
        }
    }
    let mut config = FlowConfig::with_schedule(ras, t_standby).map_err(stringify)?;
    config.lifetime = Seconds::from_years(years);
    Ok((config, standby))
}

/// `spec` as `circuit`'s standby policy, once a vector is known to fit it.
fn standby_policy(spec: &PolicySpec, circuit: &Circuit) -> Result<StandbyPolicy, String> {
    let inputs = circuit.primary_inputs().len();
    match spec {
        PolicySpec::Vector(v) if v.len() != inputs => Err(format!(
            "standby vector has {} bits, circuit has {inputs} inputs",
            v.len()
        )),
        spec => Ok(spec.to_policy()),
    }
}
