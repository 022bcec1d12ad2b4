//! Deterministic fault injection for the sweep engine (feature
//! `fault-inject` only — the module does not exist in normal builds, so
//! the hooks are zero-cost when the feature is off).
//!
//! A [`FaultPlan`] maps job indices to [`Fault`]s. The engine consults the
//! plan at two seams:
//!
//! * just before executing a job ([`FaultPlan::before_execute`]) — where
//!   [`Fault::Panic`] fires for its first `times` attempts and
//!   [`Fault::Hang`] spins cooperatively against the job's
//!   [`CancelToken`];
//! * at result admission ([`FaultPlan::poisons`]) — where [`Fault::Nan`]
//!   swaps the computed ΔV_th for `NaN`, exercising the *genuine* cache
//!   guardrail ([`ShardedCache::insert_checked`](crate::ShardedCache::insert_checked)).
//!
//! Every fault is keyed by job index and counted per attempt, so a test
//! run is exactly reproducible: the same plan against the same spec
//! produces the same failure/recovery trace for any worker count.
//!
//! The checkpoint-corruption helpers at the bottom mutate files on disk
//! (truncation, bit flips, duplicated lines) so tests can prove the
//! salvage path against realistic damage, with randomness drawn from a
//! seeded [`SplitMix64`] stream rather than ambient entropy.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use relia_core::seal::SplitMix64;
use relia_core::CancelToken;

use crate::pool::JobFailure;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic on the job's first `times` attempts; later attempts run
    /// normally (so a retry budget ≥ `times` recovers the job).
    Panic {
        /// Number of attempts that panic before the job is allowed
        /// through.
        times: u32,
    },
    /// Spin (polling the cancel token every millisecond) for up to `ms`
    /// milliseconds. If the watchdog cancels first the job reports a
    /// transient failure; if the budget runs out the job proceeds
    /// normally — a bounded hang, so a missing watchdog shows up as a
    /// slow test rather than a deadlocked suite.
    Hang {
        /// Maximum spin time in milliseconds.
        ms: u64,
    },
    /// Replace the job's computed ΔV_th with `NaN` at the admission
    /// boundary.
    Nan,
}

/// A seeded, per-index fault schedule.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: HashMap<usize, (Fault, AtomicU32)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds `fault` at job `index` (builder style).
    pub fn with(mut self, index: usize, fault: Fault) -> Self {
        self.faults.insert(index, (fault, AtomicU32::new(0)));
        self
    }

    /// Runs the pre-execution faults for job `index`.
    ///
    /// Panics when a [`Fault::Panic`] is armed for this attempt (the pool
    /// catches it like any real panic). Returns a transient [`JobFailure`]
    /// when a [`Fault::Hang`] was cancelled by the watchdog.
    ///
    /// # Errors
    ///
    /// A cancelled hang returns `Err` with a transient failure.
    pub fn before_execute(&self, index: usize, token: &CancelToken) -> Result<(), JobFailure> {
        match self.faults.get(&index) {
            Some((Fault::Panic { times }, count)) => {
                let attempt = count.fetch_add(1, Ordering::Relaxed);
                if attempt < *times {
                    panic!("fault injection: panic at job {index} (attempt {attempt})");
                }
                Ok(())
            }
            Some((Fault::Hang { ms }, _)) => {
                let deadline = Instant::now() + Duration::from_millis(*ms);
                while Instant::now() < deadline {
                    if token.is_cancelled() {
                        return Err(JobFailure::transient(format!(
                            "fault injection: hang at job {index} cancelled"
                        )));
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// True when job `index` has a [`Fault::Nan`] armed: the engine must
    /// push `NaN` through the cache-admission guardrail instead of the
    /// real value.
    pub fn poisons(&self, index: usize) -> bool {
        matches!(self.faults.get(&index), Some((Fault::Nan, _)))
    }
}

// ---------------------------------------------------------------------------
// Checkpoint corruption: deterministic on-disk damage for salvage tests.
// ---------------------------------------------------------------------------

/// Removes the final `bytes` bytes of the file (simulates a torn write /
/// partial flush at kill time).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn truncate_tail(path: &Path, bytes: u64) -> io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    let len = f.metadata()?.len();
    f.set_len(len.saturating_sub(bytes))
}

/// Flips bit `bit` (0–7) of the byte at `byte_index` (simulates media
/// corruption).
///
/// # Errors
///
/// Propagates filesystem errors; out-of-range indices are an
/// [`io::ErrorKind::InvalidInput`] error.
pub fn flip_bit(path: &Path, byte_index: u64, bit: u8) -> io::Result<()> {
    let mut f = OpenOptions::new().read(true).write(true).open(path)?;
    if byte_index >= f.metadata()?.len() || bit > 7 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "flip_bit target out of range",
        ));
    }
    let mut b = [0u8];
    f.seek(SeekFrom::Start(byte_index))?;
    f.read_exact(&mut b)?;
    b[0] ^= 1 << bit;
    f.seek(SeekFrom::Start(byte_index))?;
    f.write_all(&b)
}

/// Flips `flips` bits at positions drawn from a seeded [`SplitMix64`] stream,
/// restricted to the record region (everything after the first newline, so
/// the header — whose damage is *designed* to be fatal — stays intact).
///
/// # Errors
///
/// Propagates filesystem errors; a file with no record bytes is an
/// [`io::ErrorKind::InvalidInput`] error.
pub fn flip_random_bits(path: &Path, seed: u64, flips: usize) -> io::Result<()> {
    let data = std::fs::read(path)?;
    let first_record = data
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| i as u64 + 1)
        .unwrap_or(0);
    let len = data.len() as u64;
    if first_record >= len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "no record bytes to corrupt",
        ));
    }
    let mut rng = SplitMix64::new(seed);
    for _ in 0..flips {
        let draw = rng.next_u64();
        let byte = first_record + draw % (len - first_record);
        let bit = (draw >> 32) as u8 & 7;
        flip_bit(path, byte, bit)?;
    }
    Ok(())
}

/// Appends a copy of the last complete line (simulates a double write
/// after a retry race; last-record-wins semantics must absorb it).
///
/// # Errors
///
/// Propagates filesystem errors; a file without a complete final line is
/// an [`io::ErrorKind::InvalidInput`] error.
pub fn duplicate_last_record(path: &Path) -> io::Result<()> {
    let text = std::fs::read_to_string(path)?;
    let last = text
        .lines()
        .next_back()
        .filter(|_| text.ends_with('\n'))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no complete final line"))?
        .to_owned();
    let mut f = OpenOptions::new().append(true).open(path)?;
    writeln!(f, "{last}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("relia-fault-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn panic_fault_fires_exactly_times_attempts() {
        let plan = FaultPlan::new().with(3, Fault::Panic { times: 2 });
        let token = CancelToken::new();
        for _ in 0..2 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.before_execute(3, &token)
            }));
            assert!(r.is_err(), "armed attempts panic");
        }
        assert!(plan.before_execute(3, &token).is_ok(), "then recovers");
        assert!(plan.before_execute(0, &token).is_ok(), "other jobs clean");
    }

    #[test]
    fn hang_fault_honors_cancellation() {
        let plan = FaultPlan::new().with(0, Fault::Hang { ms: 10_000 });
        let token = CancelToken::new();
        token.cancel();
        let start = Instant::now();
        let r = plan.before_execute(0, &token);
        assert!(start.elapsed() < Duration::from_secs(5));
        match r {
            Err(f) => assert!(f.transient),
            Ok(()) => panic!("cancelled hang must fail transiently"),
        }
    }

    #[test]
    fn hang_fault_is_bounded_without_a_watchdog() {
        let plan = FaultPlan::new().with(0, Fault::Hang { ms: 5 });
        assert!(plan.before_execute(0, &CancelToken::new()).is_ok());
    }

    #[test]
    fn corruption_helpers_damage_only_what_they_claim() {
        let path = tmp("corrupt");
        std::fs::write(&path, "header\nrecord-one\nrecord-two\n").unwrap();
        truncate_tail(&path, 4).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "header\nrecord-one\nrecord-"
        );
        std::fs::write(&path, "header\nrecord-one\n").unwrap();
        flip_bit(&path, 7, 0).unwrap(); // 'r' ^ 1 = 's'
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "header\nsecord-one\n"
        );
        std::fs::write(&path, "header\nrecord-one\n").unwrap();
        duplicate_last_record(&path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "header\nrecord-one\nrecord-one\n"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn random_flips_spare_the_header() {
        let path = tmp("randflip");
        let header = "header-line-stays-clean";
        std::fs::write(&path, format!("{header}\nrecords records records\n")).unwrap();
        flip_random_bits(&path, 0xfeed_beef, 16).unwrap();
        let after = std::fs::read(&path).unwrap();
        assert_eq!(&after[..header.len()], header.as_bytes());
        std::fs::remove_file(&path).ok();
    }
}
