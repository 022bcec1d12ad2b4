//! Integration tests for the `relia` command-line front end.

#![allow(clippy::expect_used)]
use std::process::Command;

fn relia(args: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = relia_coded(args);
    (code == Some(0), stdout, stderr)
}

fn relia_coded(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_relia"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_shows_the_suite() {
    let (ok, stdout, _) = relia(&["list"]);
    assert!(ok);
    for name in ["c17", "c432", "c7552"] {
        assert!(stdout.contains(name), "{name} missing from:\n{stdout}");
    }
}

#[test]
fn info_on_builtin() {
    let (ok, stdout, _) = relia(&["info", "builtin:c17"]);
    assert!(ok);
    assert!(stdout.contains("gates   : 6"));
    assert!(stdout.contains("NAND2 x 6"));
}

#[test]
fn timing_reports_critical_path() {
    let (ok, stdout, _) = relia(&["timing", "builtin:c432"]);
    assert!(ok);
    assert!(stdout.contains("max delay"));
    assert!(stdout.contains("critical path"));
}

#[test]
fn aging_with_flags() {
    let (ok, stdout, _) = relia(&[
        "aging",
        "builtin:c17",
        "--ras",
        "1:5",
        "--tstandby",
        "370",
        "--standby",
        "footer",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("degradation"));
    assert!(stdout.contains("370 K"));
}

#[test]
fn aging_with_explicit_vector() {
    let (ok, stdout, _) = relia(&["aging", "builtin:c17", "--standby", "00110"]);
    assert!(ok);
    assert!(stdout.contains("standby leak"));
}

#[test]
fn dot_emits_graphviz() {
    let (ok, stdout, _) = relia(&["dot", "builtin:c17"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
}

#[test]
fn parses_bench_file_from_disk() {
    let dir = std::env::temp_dir().join("relia_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tiny.bench");
    std::fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOR(a, b)\n").expect("write");
    let (ok, stdout, _) = relia(&["info", path.to_str().expect("utf-8 path")]);
    assert!(ok);
    assert!(stdout.contains("gates   : 1"));
}

#[test]
fn bad_command_fails_with_usage() {
    let (ok, _, stderr) = relia(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn bad_vector_width_is_reported() {
    let (ok, _, stderr) = relia(&["aging", "builtin:c17", "--standby", "111"]);
    assert!(!ok);
    assert!(stderr.contains("5 inputs"), "{stderr}");
}

#[test]
fn lib_report_covers_catalog() {
    let (ok, stdout, _) = relia(&["lib"]);
    assert!(ok);
    for cell in ["INV", "NAND2", "NOR3", "AOI21", "NAND2_X2"] {
        assert!(stdout.contains(cell), "{cell} missing");
    }
    // The co-optimization conflict is visible in the report: NOR2's MLV
    // stresses nothing, NAND2's stresses everything.
    assert!(stdout
        .lines()
        .any(|l| l.contains("NOR2 ") && l.contains("0/2")));
    assert!(stdout
        .lines()
        .any(|l| l.contains("NAND2 ") && l.contains("2/2")));
}

#[test]
fn paths_subcommand_enumerates() {
    let (ok, stdout, _) = relia(&["paths", "builtin:c17", "3"]);
    assert!(ok);
    assert_eq!(stdout.lines().count(), 3);
    assert!(stdout.contains("ps"));
}

#[test]
fn csv_export_has_per_gate_rows() {
    let (ok, stdout, _) = relia(&["csv", "builtin:c17"]);
    assert!(ok);
    assert_eq!(stdout.lines().count(), 7); // header + 6 gates
    assert!(stdout.starts_with("gate,cell,level,"));
}

#[test]
fn liberty_export_is_emitted() {
    let (ok, stdout, _) = relia(&["liberty"]);
    assert!(ok);
    assert!(stdout.contains("library (relia_ptm90)"));
    assert!(stdout.contains("leakage_power"));
}

#[test]
fn help_prints_usage_to_stdout_and_succeeds() {
    let (code, stdout, stderr) = relia_coded(&["help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("usage"));
    assert!(stdout.contains("sweep"));
    assert!(stdout.contains("fleet"));
    assert!(stdout.contains("relia surface build"));
    assert!(stdout.contains("relia surface probe"));
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn usage_errors_exit_2_and_analysis_errors_exit_1() {
    let (code, _, stderr) = relia_coded(&["frobnicate"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = relia_coded(&[]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = relia_coded(&["aging", "builtin:c17", "--ras", "oops"]);
    assert_eq!(code, Some(2), "{stderr}");
    // A readable invocation pointing at a missing file is an analysis error.
    let (code, _, stderr) = relia_coded(&["info", "/no/such/file.bench"]);
    assert_eq!(code, Some(1), "{stderr}");
    // ... as is a well-formed standby vector of the wrong width.
    let (code, _, _) = relia_coded(&["aging", "builtin:c17", "--standby", "111"]);
    assert_eq!(code, Some(1));
}

#[test]
fn a_word_after_the_last_positional_is_a_usage_error() {
    for args in [
        &["info", "builtin:c17", "--bogus", "1"][..],
        &["timing", "builtin:c17", "extra"],
        &["paths", "builtin:c17", "3", "extra"],
        &["dot", "builtin:c17", "--ras", "1:9"],
        &["verilog", "builtin:c17", "extra"],
        &["list", "--bogus"],
        &["lib", "--bogus", "1"],
        &["liberty", "--tstandby", "330"],
    ] {
        let (code, stdout, stderr) = relia_coded(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(
            first.starts_with("relia: unknown flag")
                || first.starts_with("relia: unexpected argument"),
            "{args:?}: {first}"
        );
    }
}

#[test]
fn a_usage_error_is_followed_by_its_subcommands_page() {
    for (args, page, flag) in [
        (
            &["fleet", "--trace", "lots"][..],
            "usage: relia fleet",
            "--trace",
        ),
        (
            &["serve", "--slow-ms", "-5"],
            "usage: relia serve",
            "--slow-ms",
        ),
        (
            &["surface", "build", "--bogus"],
            "usage: relia surface",
            "--out",
        ),
        (
            &["aging", "builtin:c17", "--bogus"],
            "relia aging",
            "--years",
        ),
        (&["frobnicate"], "relia aging", "--years"),
    ] {
        let (code, _, stderr) = relia_coded(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(page),
            "{args:?} printed another page:\n{stderr}"
        );
        assert!(
            stderr.contains(flag),
            "{args:?}: page lacks {flag}:\n{stderr}"
        );
    }
    // The fleet page replaces the general one, whose `relia timing` line
    // it lacks.
    let (_, _, stderr) = relia_coded(&["fleet", "--trace", "lots"]);
    assert!(!stderr.contains("relia timing"), "{stderr}");
}

#[test]
fn mlv_lists_years_which_moves_its_answer_and_refuses_standby() {
    let (_, usage, _) = relia_coded(&["help"]);
    let mlv = usage.lines().find(|l| l.contains("relia mlv")).unwrap();
    assert!(mlv.contains("[--years Y]"), "{mlv}");
    let (_, one, _) = relia_coded(&["mlv", "builtin:c17", "--years", "1"]);
    let (_, ten, _) = relia_coded(&["mlv", "builtin:c17", "--years", "10"]);
    assert!(one.contains("aging +2.367%"), "{one}");
    assert!(ten.contains("aging +4.209%"), "{ten}");
    let (code, stdout, stderr) = relia_coded(&["mlv", "builtin:c17", "--standby", "best"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.starts_with("relia: unknown flag --standby"),
        "{stderr}"
    );
}

#[test]
fn sweep_exit_codes_are_pinned() {
    // Success → 0 (with the watchdog flag accepted).
    let (code, _, stderr) = relia_coded(&[
        "sweep",
        "builtin:c17",
        "--ras",
        "1:1",
        "--tstandby",
        "330",
        "--standby",
        "worst",
        "--job-timeout",
        "30",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    // Usage → 2: an explicit zero worker count...
    let (code, _, stderr) = relia_coded(&["sweep", "--jobs", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--jobs must be at least 1"), "{stderr}");
    // ... and a grid axis that parses to nothing.
    let (code, _, stderr) = relia_coded(&["sweep", "--tstandby", ""]);
    assert_eq!(code, Some(2), "{stderr}");
    // Analysis failure → 1: resuming from a file that is not a checkpoint
    // (its header cannot be authenticated, so it is not safe to salvage).
    let dir = std::env::temp_dir().join("relia_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bogus = dir.join(format!("bogus-{}.jsonl", std::process::id()));
    std::fs::write(&bogus, "this is not a checkpoint\n").expect("write");
    let (code, _, stderr) = relia_coded(&[
        "sweep",
        "builtin:c17",
        "--checkpoint",
        bogus.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("checkpoint"), "{stderr}");
    std::fs::remove_file(&bogus).ok();
}

#[test]
fn sweep_runs_a_small_grid() {
    let (ok, stdout, stderr) = relia(&[
        "sweep",
        "builtin:c17",
        "--ras",
        "1:1,1:9",
        "--tstandby",
        "330,400",
        "--standby",
        "worst,best",
        "--jobs",
        "2",
    ]);
    assert!(ok, "{stderr}");
    // Header + 2 ras x 2 temps x 2 policies = 9 lines.
    assert_eq!(stdout.lines().count(), 9, "{stdout}");
    assert!(stdout.contains("c17"));
    assert!(stdout.contains("mV"));
    assert!(!stdout.contains("FAILED"), "{stdout}");
    assert!(stderr.contains("sweep: 8 jobs"), "{stderr}");
    assert!(stderr.contains("cache:"), "{stderr}");
}

#[test]
fn sweep_on_c3540_has_no_failed_jobs() {
    // c3540's signal probabilities sum to one ulp above 1 at some nets;
    // the cell layer clamps them, so neither policy fails validation.
    let (ok, stdout, stderr) = relia(&[
        "sweep",
        "builtin:c3540",
        "--ras",
        "1:9",
        "--tstandby",
        "330",
        "--years",
        "1",
        "--standby",
        "worst,best",
    ]);
    assert!(ok, "{stderr}");
    assert!(!stdout.contains("FAILED"), "{stdout}");
    assert!(stderr.contains("0 failed"), "{stderr}");
}

#[test]
fn sweep_rows_fail_on_a_negative_lifetime() {
    // The memoized path refuses the lifetime the uncached model refuses,
    // instead of quantizing it to t = 0.
    let (ok, stdout, stderr) = relia(&[
        "sweep",
        "builtin:c17",
        "--ras",
        "1:9",
        "--tstandby",
        "330",
        "--years",
        "-1",
        "--standby",
        "worst",
    ]);
    assert!(ok, "{stderr}");
    let row = stdout.lines().nth(1).expect("one result row");
    assert!(
        row.contains("FAILED: nbti model: invalid parameter total_time = -31557600"),
        "{stdout}"
    );
    assert!(stderr.contains("1 failed"), "{stderr}");
}

#[test]
fn sweep_resumes_from_checkpoint() {
    let dir = std::env::temp_dir().join("relia_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join(format!("sweep-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let args = [
        "sweep",
        "builtin:c17",
        "--ras",
        "1:1,1:5",
        "--tstandby",
        "330,400",
        "--standby",
        "worst",
        "--checkpoint",
        ckpt.to_str().expect("utf-8 path"),
    ];
    let (ok, first, stderr) = relia(&args);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("0 resumed"), "{stderr}");
    // Second run finds every job in the checkpoint and recomputes nothing,
    // yet prints the identical table.
    let (ok, second, stderr) = relia(&args);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("(0 executed, 4 resumed"), "{stderr}");
    assert_eq!(first, second);
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn fleet_help_and_exit_codes_are_pinned() {
    // `relia fleet --help` → 0 with the flag table on stdout.
    let (code, stdout, stderr) = relia_coded(&["fleet", "--help"]);
    assert_eq!(code, Some(0), "{stderr}");
    for needle in [
        "usage: relia fleet",
        "--samples",
        "--seed",
        "--guardband",
        "--checkpoint",
        "--trace",
        "bit-identical",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in {stdout}");
    }
    // Flag mistakes → 2.
    let (code, _, stderr) = relia_coded(&["fleet", "--bogus", "1"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = relia_coded(&["fleet", "--trace", "lots"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("bad trace capacity"), "{stderr}");
    let (code, _, stderr) = relia_coded(&["fleet", "--samples", "many"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = relia_coded(&["fleet", "--workers", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--workers must be at least 1"), "{stderr}");
    let (code, _, stderr) = relia_coded(&["fleet", "--chunk", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = relia_coded(&["fleet", "--seed"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("needs a value"), "{stderr}");
    // Well-formed numbers the engine rejects → 1.
    let (code, _, stderr) = relia_coded(&["fleet", "--samples", "64", "--guardband", "1.5"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("guardband"), "{stderr}");
    let (code, _, stderr) = relia_coded(&["fleet", "--samples", "64", "--correlation", "2"]);
    assert_eq!(code, Some(1), "{stderr}");
}

#[test]
fn fleet_runs_and_resumes_deterministically() {
    let dir = std::env::temp_dir().join("relia_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join(format!("fleet-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let args = [
        "fleet",
        "--samples",
        "10000",
        "--seed",
        "0x2a",
        "--chunk",
        "1024",
        "--checkpoint",
        ckpt.to_str().expect("utf-8 path"),
    ];
    let (ok, first, stderr) = relia(&args);
    assert!(ok, "{stderr}");
    assert!(first.contains("fleet: 10000 devices, seed 0x2a"), "{first}");
    assert!(first.contains("yield"), "{first}");
    assert!(first.contains("lifetime: p01"), "{first}");
    assert!(stderr.contains("(10 executed, 0 resumed)"), "{stderr}");
    // Second run restores every chunk from the checkpoint and prints the
    // byte-identical table.
    let (ok, second, stderr) = relia(&args);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("(0 executed, 10 resumed)"), "{stderr}");
    assert_eq!(first, second);
    // A different worker count changes nothing either.
    let mut more = args.to_vec();
    more.extend(["--workers", "3"]);
    let (ok, third, stderr) = relia(&more);
    assert!(ok, "{stderr}");
    assert_eq!(first, third);
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn fleet_trace_prints_phase_attribution_to_stderr() {
    let (ok, stdout, stderr) = relia(&[
        "fleet",
        "--samples",
        "2000",
        "--chunk",
        "512",
        "--trace",
        "64",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("lifetime: p01"), "{stdout}");
    assert!(stderr.contains("trace: fleet_hoist"), "{stderr}");
    assert!(stderr.contains("trace: fleet_chunk"), "{stderr}");
    assert!(stderr.contains("trace: fleet_merge"), "{stderr}");
    assert!(stderr.contains("4 span(s)"), "4 chunks of 512: {stderr}");
    // The attribution is stderr-only garnish: stdout stays identical to
    // an untraced run.
    let (ok, untraced, stderr) = relia(&["fleet", "--samples", "2000", "--chunk", "512"]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, untraced);
    assert!(!stderr.contains("trace:"), "{stderr}");
}

#[test]
fn version_prints_and_exits_0() {
    for flag in ["--version", "-V", "version"] {
        let (code, stdout, stderr) = relia_coded(&[flag]);
        assert_eq!(code, Some(0), "{flag}: {stderr}");
        assert!(
            stdout.starts_with("relia ") && stdout.trim().len() > "relia ".len(),
            "{flag}: {stdout:?}"
        );
        assert!(stderr.is_empty(), "{flag}: {stderr}");
    }
}

#[test]
fn serve_help_and_usage_exit_codes_are_pinned() {
    // `relia serve --help` → 0 with the endpoint table on stdout.
    let (code, stdout, stderr) = relia_coded(&["serve", "--help"]);
    assert_eq!(code, Some(0), "{stderr}");
    for needle in [
        "usage: relia serve",
        "/v1/degrade",
        "/v1/sweep",
        "/healthz",
        "/metrics",
        "--queue-depth",
        "--request-timeout",
        "--brownout-high-water",
        "--trace",
        "--slow-ms",
        "/debug/trace",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in {stdout}");
    }
    // Flag mistakes → 2.
    let (code, _, stderr) = relia_coded(&["serve", "--bogus", "1"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = relia_coded(&["serve", "--queue-depth", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--queue-depth"), "{stderr}");
    let (code, _, stderr) = relia_coded(&["serve", "--threads", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = relia_coded(&["serve", "--request-timeout", "-1"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = relia_coded(&["serve", "--brownout-high-water", "-3"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = relia_coded(&["serve", "--trace", "lots"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("bad trace capacity"), "{stderr}");
    let (code, _, stderr) = relia_coded(&["serve", "--slow-ms", "-5"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("bad slow threshold"), "{stderr}");
    // An unbindable address is an analysis failure → 1.
    let (code, _, stderr) = relia_coded(&["serve", "--addr", "256.0.0.1:99999"]);
    assert_eq!(code, Some(1), "{stderr}");
}

#[test]
fn serve_boots_answers_and_drains_to_exit_0() {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_relia"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("relia-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_owned();

    let request = |verb: &str, path: &str| -> String {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        write!(s, "{verb} {path} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).expect("read response");
        response
    };
    let health = request("GET", "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(health.contains("{\"status\":\"ok\"}"), "{health}");
    let metrics = request("GET", "/metrics");
    assert!(metrics.contains("relia_serve_requests"), "{metrics}");
    let shutdown = request("POST", "/admin/shutdown");
    assert!(shutdown.starts_with("HTTP/1.1 200"), "{shutdown}");

    let status = child.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");
}

#[test]
fn surface_help_and_exit_codes_are_pinned() {
    // `relia surface --help` (and the bare subcommand) → 0 with the
    // build/probe tables on stdout.
    for args in [&["surface", "--help"][..], &["surface", "help"]] {
        let (code, stdout, stderr) = relia_coded(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        for needle in [
            "usage: relia surface",
            "build",
            "probe",
            "--tstandby",
            "--pairs",
            "sup-error",
        ] {
            assert!(stdout.contains(needle), "missing {needle:?} in {stdout}");
        }
    }
    // Invocation mistakes → 2.
    let (code, _, stderr) = relia_coded(&["surface", "frobnicate"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown surface subcommand"), "{stderr}");
    let (code, _, stderr) = relia_coded(&["surface", "build", "--tstandby", "nope"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("LO:HI:N"), "{stderr}");
    let (code, _, stderr) = relia_coded(&["surface", "build", "--ras", "0.1:0.9"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = relia_coded(&["surface", "build", "--workers", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = relia_coded(&["surface", "build", "--pairs", "0.5"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = relia_coded(&["surface", "probe"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = relia_coded(&["surface", "probe", "x.rls", "--ras", "oops"]);
    assert_eq!(code, Some(2), "{stderr}");
    // A missing or unreadable artifact is an analysis failure → 1, for
    // probe and for mounting at serve startup alike.
    let (code, _, stderr) = relia_coded(&["surface", "probe", "/no/such/artifact.rls"]);
    assert_eq!(code, Some(1), "{stderr}");
    let (code, _, stderr) = relia_coded(&["serve", "--surface", "/no/such/artifact.rls"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("cannot mount surface"), "{stderr}");
}

#[test]
fn surface_build_probe_and_serve_round_trip() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = std::env::temp_dir().join("relia_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let artifact = dir.join(format!("surface-{}.rls", std::process::id()));
    let path = artifact.to_str().expect("utf-8 path");

    // Build a small but bound-holding grid.
    let (code, stdout, stderr) = relia_coded(&[
        "surface",
        "build",
        "--out",
        path,
        "--tstandby",
        "320:400:9",
        "--ras",
        "0.1:0.9:9",
        "--times",
        "1e6:1e9:13",
        "--workers",
        "2",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("surface: wrote"), "{stdout}");
    assert!(stdout.contains("grid: 1 x 9 x 9 x 13"), "{stdout}");
    assert!(stdout.contains("sup-error:"), "{stdout}");

    // In-domain probe: interpolated answer, unclamped, error gated.
    let (code, stdout, stderr) = relia_coded(&["surface", "probe", path, "--tstandby", "335"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("delta_vth_v:"), "{stdout}");
    assert!(stdout.contains("clamped: false"), "{stdout}");
    assert!(stdout.contains("rel-error:"), "{stdout}");

    // Out-of-domain probe: clamped, reported, no error gate.
    let (code, stdout, stderr) = relia_coded(&["surface", "probe", path, "--tstandby", "310"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("clamped: true"), "{stdout}");
    assert!(!stdout.contains("rel-error:"), "{stdout}");

    // A stress pair the artifact does not carry → 1.
    let (code, _, stderr) = relia_coded(&["surface", "probe", path, "--pactive", "0.7"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("not in the artifact"), "{stderr}");

    // Mount the artifact and serve: surface answers count as hits, the
    // gauge reports the tier as active, and drain still exits 0.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_relia"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--surface",
            path,
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut stdout_pipe = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut banner = String::new();
    stdout_pipe.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("relia-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_owned();
    let request = |verb: &str, path: &str, body: &str| -> String {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        write!(
            s,
            "{verb} {path} HTTP/1.1\r\nConnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).expect("read response");
        response
    };
    let body = "{\"ras\":[1,9],\"t_standby_k\":330,\"lifetime_s\":1e8,\
                \"p_active\":0.5,\"p_standby\":1}";
    let degrade = request("POST", "/v1/degrade", body);
    assert!(degrade.starts_with("HTTP/1.1 200"), "{degrade}");
    assert!(degrade.contains("delta_vth_v"), "{degrade}");
    let metrics = request("GET", "/metrics", "");
    assert!(metrics.contains("relia_surface_active 1"), "{metrics}");
    assert!(metrics.contains("relia_surface_hits 1"), "{metrics}");
    let shutdown = request("POST", "/admin/shutdown", "");
    assert!(shutdown.starts_with("HTTP/1.1 200"), "{shutdown}");
    assert_eq!(child.wait().expect("server exits").code(), Some(0));

    // A truncated artifact is refused (torn-file rejection) → 1.
    let bytes = std::fs::read(&artifact).expect("read artifact");
    std::fs::write(&artifact, &bytes[..bytes.len() - 7]).expect("truncate");
    let (code, _, stderr) = relia_coded(&["surface", "probe", path]);
    assert_eq!(code, Some(1), "{stderr}");
    std::fs::remove_file(&artifact).ok();
}

/// The committed workspace root, which the burn-down guarantees lints
/// clean — `check.sh` relies on that exit 0.
fn workspace_root() -> &'static str {
    env!("CARGO_MANIFEST_DIR")
}

#[test]
fn lint_workspace_is_clean_in_every_format() {
    for format in ["text", "json", "sarif"] {
        let (code, _, stderr) =
            relia_coded(&["lint", "--root", workspace_root(), "--format", format]);
        assert_eq!(code, Some(0), "--format {format}: {stderr}");
    }
}

#[test]
fn lint_parallel_output_is_byte_identical_to_serial() {
    let run = |jobs: &str| {
        relia_coded(&[
            "lint",
            "--root",
            workspace_root(),
            "--format",
            "json",
            "--jobs",
            jobs,
        ])
    };
    let (code, serial, stderr) = run("1");
    assert_eq!(code, Some(0), "{stderr}");
    let (code, parallel, stderr) = run("8");
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(serial, parallel, "worker count must not reorder output");
}

#[test]
fn lint_sarif_output_validates_against_the_minimal_schema() {
    use relia::core::json::{parse, Json};

    let (code, stdout, stderr) =
        relia_coded(&["lint", "--root", workspace_root(), "--format", "sarif"]);
    assert_eq!(code, Some(0), "{stderr}");
    let doc = parse(stdout.as_bytes()).expect("SARIF output is valid JSON");

    // Minimal SARIF 2.1.0 shape: version + $schema at top level, exactly
    // one run whose driver names the tool and declares every rule id.
    assert_eq!(
        doc.get("version").and_then(Json::as_str),
        Some("2.1.0"),
        "{stdout}"
    );
    let schema = doc.get("$schema").and_then(Json::as_str).expect("$schema");
    assert!(schema.contains("sarif-2.1.0"), "{schema}");
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert_eq!(runs.len(), 1);
    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(
        driver.get("name").and_then(Json::as_str),
        Some("relia-lint")
    );
    let rules = driver.get("rules").and_then(Json::as_arr).expect("rules");
    let ids: Vec<&str> = rules
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_str))
        .collect();
    for rule in relia::lint::RULES {
        assert!(ids.contains(&rule.id), "driver.rules missing {}", rule.id);
    }
    // The burned-down workspace reports zero results.
    let results = runs[0].get("results").and_then(Json::as_arr);
    assert_eq!(results.map(<[Json]>::len), Some(0), "{stdout}");
}

#[test]
fn lint_list_rules_prints_r1_to_r11_in_order() {
    let (code, stdout, stderr) = relia_coded(&["lint", "--list-rules"]);
    assert_eq!(code, Some(0), "{stderr}");
    // R2, R4 and R5 are compiler lints now; the other numbers stay put.
    let rules = [
        ("R1", "unit-leak"),
        ("R3", "float-eq"),
        ("R6", "celsius-kelvin"),
        ("R7", "blocking-in-handler"),
        ("R8", "guard-across-blocking"),
        ("R9", "lock-order-inversion"),
        ("R10", "unpolled-loop"),
        ("R11", "counter-leak"),
    ];
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), rules.len(), "{stdout}");
    for (line, (alias, id)) in lines.iter().zip(rules) {
        let prefix = format!("{alias} {id} — ");
        assert!(line.starts_with(&prefix), "{line:?}");
    }
}

#[test]
fn lint_flag_mistakes_exit_2() {
    for args in [
        &["lint", "--jobs", "0"][..],
        &["lint", "--jobs", "many"],
        &["lint", "--jobs"],
        &["lint", "--format", "xml"],
        &["lint", "--format"],
        &["lint", "--root"],
        &["lint", "--bogus"],
    ] {
        let (code, _, stderr) = relia_coded(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
    }
}

#[test]
fn lint_seeded_violation_exits_1_and_lands_in_sarif_results() {
    use relia::core::json::{parse, Json};

    let dir = std::env::temp_dir().join(format!("relia_lint_cli_{}", std::process::id()));
    std::fs::create_dir_all(dir.join("src")).expect("temp workspace");
    std::fs::write(
        dir.join("src/util.rs"),
        "pub fn hot() -> Kelvin {\n    Kelvin(85.0)\n}\n",
    )
    .expect("seed violation");
    let root = dir.to_str().expect("utf-8 path");

    let (code, stdout, stderr) = relia_coded(&["lint", "--root", root]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.contains("celsius-kelvin"), "{stdout}");
    assert!(stderr.contains("lint violation"), "{stderr}");

    let (code, sarif, _) = relia_coded(&["lint", "--root", root, "--format", "sarif"]);
    assert_eq!(code, Some(1));
    let doc = parse(sarif.as_bytes()).expect("SARIF output is valid JSON");
    let results = doc.get("runs").and_then(Json::as_arr).expect("runs")[0]
        .get("results")
        .and_then(Json::as_arr)
        .expect("results");
    assert_eq!(results.len(), 1, "{sarif}");
    assert_eq!(
        results[0].get("ruleId").and_then(Json::as_str),
        Some("celsius-kelvin")
    );
    let region = results[0]
        .get("locations")
        .and_then(Json::as_arr)
        .and_then(|l| l.first())
        .and_then(|l| l.get("physicalLocation"))
        .expect("physicalLocation");
    assert_eq!(
        region
            .get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(Json::as_str),
        Some("src/util.rs")
    );
    assert_eq!(
        region
            .get("region")
            .and_then(|r| r.get("startLine"))
            .and_then(Json::as_f64),
        Some(2.0)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verilog_round_trip_through_cli() {
    let (ok, verilog, _) = relia(&["verilog", "builtin:c17"]);
    assert!(ok);
    assert!(verilog.starts_with("module c17"));
    // Feed it back through a .v file.
    let dir = std::env::temp_dir().join("relia_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("c17.v");
    std::fs::write(&path, &verilog).expect("write");
    let (ok, stdout, _) = relia(&["info", path.to_str().expect("utf-8 path")]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("gates   : 6"));
}

/// Replays every `$ relia` line of `tests/fixtures/cli_usage.txt` and
/// renders what the binary did in the fixture's own format, so the whole
/// transcript compares as one string.
#[test]
fn usage_transcript_matches_the_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/cli_usage.txt");
    let fixture = std::fs::read_to_string(path).unwrap();
    let mut seen: Vec<(String, String)> = Vec::new();
    let mut actual: String = fixture
        .lines()
        .take_while(|l| l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    for command in fixture.lines().filter(|l| l.starts_with("$ relia")) {
        let args: Vec<&str> = command["$ relia".len()..]
            .split_whitespace()
            .map(|a| if a == "''" { "" } else { a })
            .collect();
        let (code, stdout, stderr) = relia_coded(&args);
        let first = stderr.lines().next().unwrap_or("");
        actual += &format!("{command}\n? {}\n", code.unwrap_or(-1));
        actual += &format!("!{}{first}\n", if first.is_empty() { "" } else { " " });
        match seen
            .iter()
            .find(|(out, _)| !stdout.is_empty() && *out == stdout)
        {
            Some((_, earlier)) => actual += &format!("= {}\n", &earlier[2..]),
            None => {
                for line in stdout.lines() {
                    actual += &format!("|{}{line}\n", if line.is_empty() { "" } else { " " });
                }
                seen.push((stdout, command.to_owned()));
            }
        }
    }
    if actual != fixture {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_usage.txt");
        std::fs::write(&out, &actual).unwrap();
        let (want, got) = fixture
            .split("\n$ ")
            .zip(actual.split("\n$ "))
            .find(|(want, got)| want != got)
            .unwrap_or(("(end of fixture)", "(more cases)"));
        panic!(
            "transcript differs from {path}; full transcript in {}\nwant:\n$ {want}\ngot:\n$ {got}",
            out.display()
        );
    }
}
