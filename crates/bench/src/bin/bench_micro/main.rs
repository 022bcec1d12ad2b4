//! `bench_micro` — the workspace's micro-benchmarks. Each section times a
//! few isolated paths and keeps its own committed record,
//! `BENCH_<section>.json` at the workspace root.
//!
//! ```text
//! bench_micro                    measure every section and print
//! bench_micro --write            re-measure and rewrite every record
//! bench_micro --write <section>  re-measure and rewrite BENCH_<section>.json only
//! bench_micro --check            re-measure and gate against the committed records
//! ```
//!
//! Every time is the median of [`REPS`] repetitions. Each section
//! declares its gates as data: a floor (speedups), a ceiling (costs the
//! project claims absolutely) or a drift band (every ns metric; machine
//! noise passes, a regression of the timed path does not). Floors and
//! ceilings hold for the measured and the committed value alike.
//! `--check` measures every section, reports every failed gate and then
//! exits 1. Any other argument, an unknown section among them, exits 2
//! before anything is measured.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

mod ac;
mod cache;
mod fleet;
mod ivc;
mod leakage;
mod lint;
mod obs;
mod record;
mod serve;
mod surface;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use record::{check, Gate, Record};

/// Timing repetitions; every reported time is their median.
pub(crate) const REPS: usize = 5;

/// One micro-benchmark and the record it keeps.
pub(crate) struct Section {
    /// The record is `BENCH_<name>.json`.
    pub(crate) name: &'static str,
    pub(crate) gates: &'static [Gate],
    pub(crate) measure: fn() -> Record,
}

const SECTIONS: [Section; 9] = [
    ac::SECTION,
    cache::SECTION,
    fleet::SECTION,
    serve::SECTION,
    lint::SECTION,
    obs::SECTION,
    surface::SECTION,
    ivc::SECTION,
    leakage::SECTION,
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Print,
    /// Rewrite the record of the named section, or of every section.
    Write(Option<&'static str>),
    Check,
}

/// Exactly one of: no argument, `--write` with or without the name of a
/// section, `--check`.
fn parse_mode(args: &[&str]) -> Option<Mode> {
    match args {
        [] => Some(Mode::Print),
        ["--write"] => Some(Mode::Write(None)),
        ["--write", name] => SECTIONS
            .iter()
            .find(|section| section.name == *name)
            .map(|section| Mode::Write(Some(section.name))),
        ["--check"] => Some(Mode::Check),
        _ => None,
    }
}

/// Median over [`REPS`] runs of `rep` (passed the repetition index),
/// which makes `calls` calls per run, in ns per call.
fn ns_per_call(calls: usize, mut rep: impl FnMut(usize)) -> f64 {
    let mut ns: Vec<f64> = (0..REPS)
        .map(|r| {
            let start = Instant::now();
            rep(r);
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[REPS / 2]
}

fn record_path(name: &str) -> PathBuf {
    // crates/bench -> workspace root, so the records live next to the
    // figure goldens regardless of the invoking directory.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{name}.json"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let Some(mode) = parse_mode(&args) else {
        let names: Vec<&str> = SECTIONS.iter().map(|section| section.name).collect();
        eprintln!("bench_micro: expected no argument, --write [SECTION] or --check; got {args:?}");
        eprintln!("usage: bench_micro [--write [SECTION] | --check]");
        eprintln!("sections: {}", names.join(", "));
        return ExitCode::from(2);
    };
    let only = match mode {
        Mode::Write(only) => only,
        Mode::Print | Mode::Check => None,
    };

    println!("bench_micro: every time is the median of {REPS} reps");
    let mut failed = Vec::new();
    for section in SECTIONS
        .iter()
        .filter(|section| only.is_none_or(|name| section.name == name))
    {
        let fresh = (section.measure)();
        for (key, value) in fresh.entries() {
            println!("{:<8} {key:<26} {value}", section.name);
        }
        let path = record_path(section.name);
        match mode {
            Mode::Print => {}
            Mode::Write(_) => match std::fs::write(&path, fresh.render()) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => failed.push(format!("cannot write {}: {e}", path.display())),
            },
            Mode::Check => {
                let committed = std::fs::read_to_string(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| Record::parse(&text))
                    .unwrap_or_else(|e| {
                        failed.push(format!("{}: {e}", path.display()));
                        Record::default()
                    });
                for failure in check(section.gates, &fresh, &committed) {
                    failed.push(format!("{}: {failure}", section.name));
                }
            }
        }
    }

    for failure in &failed {
        eprintln!("bench_micro: {failure}");
    }
    if !failed.is_empty() {
        return ExitCode::from(1);
    }
    if mode == Mode::Check {
        println!("check: every gate held against the committed records");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_are_exactly_one_of_none_write_or_check() {
        assert_eq!(parse_mode(&[]), Some(Mode::Print));
        assert_eq!(parse_mode(&["--write"]), Some(Mode::Write(None)));
        assert_eq!(parse_mode(&["--check"]), Some(Mode::Check));
        for section in &SECTIONS {
            assert_eq!(
                parse_mode(&["--write", section.name]),
                Some(Mode::Write(Some(section.name)))
            );
        }
        for bad in [
            &["--bogus"][..],
            &["--check", "--write"],
            &["--check", "junk"],
            &["--write", "--write"],
            &["--write", "junk"],
            &["--write", "Lint"],
            &["--write", "lint", "ac"],
            &["--check", "lint"],
            &["lint"],
            &["check"],
        ] {
            assert_eq!(parse_mode(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn committed_records_round_trip_byte_for_byte_and_carry_every_gated_key() {
        for section in &SECTIONS {
            let path = record_path(section.name);
            let text = std::fs::read_to_string(&path).unwrap();
            let record = Record::parse(&text).unwrap();
            assert_eq!(record.render(), text, "{}", path.display());
            for gate in section.gates {
                let key = gate.key();
                assert!(record.get(key).is_some(), "{} lacks {key}", path.display());
            }
        }
    }
}
