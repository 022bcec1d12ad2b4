//! Child processes: building the binaries, `relia serve` instances, and
//! timed CLI runs. Every child is waited for; a hung one is killed.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::http::Conn;

/// Longest any single child may run before it is killed.
const CHILD_LIMIT: Duration = Duration::from_secs(120);
/// How often a timed CLI run samples the child's VmHWM.
const RSS_POLL: Duration = Duration::from_millis(10);

/// Where the benchmark builds, runs and writes.
pub struct Ctx {
    /// Repository root (holds the workspace `Cargo.toml`).
    pub root: PathBuf,
    /// Cargo target directory shared by every build.
    pub target: PathBuf,
    /// The `relia` binary under test.
    pub relia: PathBuf,
    /// Output directory for trace files (`<target>/bench_e2e`).
    pub out: PathBuf,
    /// Per-process scratch directory for checkpoints and artifacts.
    pub tmp: PathBuf,
}

impl Ctx {
    /// Resolves the repository around this package and builds `relia`.
    pub fn prepare() -> Result<Ctx, String> {
        let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = manifest_dir.join("../../../../..");
        if !root.join("Cargo.toml").is_file() || !root.join("src/bin/relia.rs").is_file() {
            return Err(format!(
                "{} is not a relia checkout (no workspace Cargo.toml / src/bin/relia.rs)",
                root.display()
            ));
        }
        let root = root
            .canonicalize()
            .map_err(|e| format!("resolving {}: {e}", root.display()))?;
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => {
                let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
                cwd.join(dir)
            }
            None => root.join("target"),
        };
        cargo_build(
            &root,
            &target,
            &root.join("Cargo.toml"),
            &["--bin", "relia"],
        )?;
        let out = target.join("bench_e2e");
        let tmp = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
        Ok(Ctx {
            relia: target.join("release").join("relia"),
            root,
            target,
            out,
            tmp,
        })
    }

    /// Builds `bench_layers` (traced runs only) and returns its path.
    pub fn build_layers(&self) -> Result<PathBuf, String> {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench_layers/Cargo.toml");
        cargo_build(&self.root, &self.target, &manifest, &[])?;
        Ok(self.target.join("release").join("bench_layers"))
    }

    pub fn tmp_path(&self, name: &str) -> PathBuf {
        self.tmp.join(name)
    }

    /// Removes the scratch directory.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

fn cargo_build(root: &Path, target: &Path, manifest: &Path, extra: &[&str]) -> Result<(), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(manifest)
        .arg("--target-dir")
        .arg(target)
        .args(extra)
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!(
            "cargo build of {} failed ({status})",
            manifest.display()
        ))
    }
}

/// The child's peak resident set (`VmHWM`) in KiB, while it runs.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

fn kill(pid: u32) {
    let _ = Command::new("kill")
        .args(["-KILL", &pid.to_string()])
        .stderr(Stdio::null())
        .status();
}

/// One finished CLI run.
pub struct CliRun {
    pub wall_ns: u64,
    /// Highest VmHWM sampled while it ran (0 when not polled).
    pub peak_kib: u64,
    pub status: ExitStatus,
    pub stdout: Vec<u8>,
    pub stderr: String,
}

impl CliRun {
    /// `Err` with the run's stderr unless it exited 0.
    pub fn ok(self, what: &str) -> Result<CliRun, String> {
        if self.status.success() {
            Ok(self)
        } else {
            Err(format!(
                "{what} exited with {}: {}",
                self.status,
                self.stderr.trim()
            ))
        }
    }
}

/// Runs `relia <args>` to completion, timing spawn to exit exactly and,
/// with `poll_rss`, sampling its VmHWM every [`RSS_POLL`].
pub fn run_cli(relia: &Path, args: &[String], poll_rss: bool) -> Result<CliRun, String> {
    let started = Instant::now();
    let child = Command::new(relia)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", relia.display()))?;
    let pid = child.id();
    let (done_tx, done_rx) = mpsc::channel();
    let waiter = thread::spawn(move || {
        let output = child.wait_with_output();
        let ended = Instant::now();
        let _ = done_tx.send(());
        (output, ended)
    });
    let tick = if poll_rss {
        RSS_POLL
    } else {
        Duration::from_millis(50)
    };
    let mut peak_kib = 0;
    loop {
        match done_rx.recv_timeout(tick) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                if poll_rss {
                    peak_kib = peak_kib.max(vm_hwm_kib(pid).unwrap_or(0));
                }
                if started.elapsed() > CHILD_LIMIT {
                    kill(pid);
                }
            }
        }
    }
    let (output, ended) = waiter.join().map_err(|_| "CLI waiter thread panicked")?;
    let Output {
        status,
        stdout,
        stderr,
    } = output.map_err(|e| format!("waiting for relia: {e}"))?;
    Ok(CliRun {
        wall_ns: u64::try_from((ended - started).as_nanos()).unwrap_or(u64::MAX),
        peak_kib,
        status,
        stdout,
        stderr: String::from_utf8_lossy(&stderr).into_owned(),
    })
}

/// A running `relia serve`, shut down (or killed) on drop.
pub struct Server {
    child: Child,
    stdout_drain: Option<JoinHandle<()>>,
    pub addr: String,
}

impl Server {
    /// Spawns `relia serve <args>` and waits for its listening line.
    pub fn spawn(relia: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(relia)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning relia serve: {e}"))?;
        let stdout = child
            .stdout
            .take()
            .ok_or("relia serve has no stdout pipe")?;
        let (line_tx, line_rx) = mpsc::channel();
        let stdout_drain = thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            let _ = line_tx.send(line);
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        let mut server = Server {
            child,
            stdout_drain: Some(stdout_drain),
            addr: String::new(),
        };
        let line = line_rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| "relia serve printed no listening line within 60 s".to_owned())?;
        server.addr = line
            .trim()
            .strip_prefix("relia-serve listening on ")
            .ok_or_else(|| format!("unexpected first line from relia serve: {line:?}"))?
            .to_owned();
        Ok(server)
    }

    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        vm_hwm_kib(self.child.id())
            .map(|kib| kib as f64 / 1024.0)
            .ok_or_else(|| "cannot read the server's VmHWM".to_owned())
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr)
    }

    /// Graceful drain via `POST /admin/shutdown`; the process must exit 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let drained = self
            .connect()
            .and_then(|mut c| c.call("POST", "/admin/shutdown", b"").map(|_| ()));
        let status = self.wait(Duration::from_secs(30));
        drained?;
        match status? {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("relia serve exited with {s}")),
            None => Err("relia serve did not drain within 30 s (killed)".to_owned()),
        }
    }

    /// Waits up to `limit`; kills the server if it is still running.
    fn wait(&mut self, limit: Duration) -> Result<Option<ExitStatus>, String> {
        let deadline = Instant::now() + limit;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                Ok(None) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break None;
                }
                Err(e) => return Err(format!("waiting for relia serve: {e}")),
            }
        };
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
        Ok(status)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.stdout_drain.is_some() {
            let _ = self.wait(Duration::ZERO);
        }
    }
}
