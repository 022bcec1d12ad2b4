//! The primitives every persisted relia file is built from: CRC-32 seals,
//! FNV-1a fingerprints, the seeded SplitMix64 and xoshiro256++ generators,
//! atomic replacement and lossy line reading. Sweep and fleet checkpoints
//! and surface artifacts all sit on top, each with its own salvage policy
//! (DESIGN.md, "Sealed files").
//!
//! Every value computed here is written to disk, picks a cache shard or
//! draws a synthetic circuit, task set or Monte-Carlo sample, so none of
//! them may change without a format version bump or regenerated results.

use std::ffi::OsString;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// Continues a CRC-32: given `crc = crc32(a)`, returns `crc32(a ++ bytes)`
/// without concatenating.
pub fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(bytes);
    h.finish()
}

/// An incremental 64-bit FNV-1a hasher. Words are fed little-endian, so a
/// fingerprint is the same on every platform.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    fn default() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feeds one word as its eight little-endian bytes.
    pub fn u64(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Feeds the IEEE-754 bit pattern of `v`, so `-0.0` and `0.0` (and NaN
    /// payloads) hash apart.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64 (Steele, Lea & Flood's `splitmix64` finalizer): tiny, passes
/// BigCrush on its output function, and supports cheap **stream
/// derivation** — [`SplitMix64::stream`] is a pure function of `(seed,
/// index)`, so work split into indexed pieces draws the same numbers in
/// any order on any number of threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The golden-ratio increment `2^64 / φ`, the classic splitmix gamma.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// A generator starting from `seed` directly.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The generator for stream `stream` of the logical sequence `seed` —
    /// a pure function of both, decorrelated from neighbouring streams by
    /// an extra scramble round so `stream` and `stream + 1` do not overlap
    /// even though raw SplitMix64 states form one orbit.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut mixer = SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        let state = mixer.next_u64();
        SplitMix64::new(state)
    }

    /// The next 64 pseudo-random bits.
    // Inlined across crates: the fleet sampler draws once per device.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform variate in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

/// `[0, 1)` from the top 53 bits of `bits`.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// xoshiro256++ (Blackman & Vigna), its state filled from
/// [`SplitMix64`] as the authors recommend. It draws the synthetic ISCAS
/// circuits, the MLV search, the thermal task sets and the Monte-Carlo
/// threshold and stimulus samples, so the arithmetic of every method is
/// part of the committed results: changing any of it re-draws them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// A generator whose four state words are the first four outputs of
    /// `SplitMix64::new(seed)`.
    pub fn new(seed: u64) -> Self {
        let mut fill = SplitMix64::new(seed);
        Xoshiro256 {
            s: [
                fill.next_u64(),
                fill.next_u64(),
                fill.next_u64(),
                fill.next_u64(),
            ],
        }
    }

    /// The next 64 pseudo-random bits.
    // The draw methods are inlined across crates, as the generic calls
    // they replace were: netlist synthesis draws several per gate.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// A uniform variate in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// An integer in `[0, n)`: the high word of a widening multiply, with
    /// no rejection loop, so the bias is below `n / 2^64`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0): empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniform variate in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform({lo}, {hi}): empty range");
        lo + self.next_f64() * (hi - lo)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "chance({p}) outside [0, 1]");
        self.next_f64() < p
    }
}

/// Replaces `path` with `bytes` atomically: writes a `<file name>.tmp`
/// sibling, `sync_all`s it, and renames it over `path`. A crash leaves the
/// old file or the new one, never a torn mix.
///
/// The directory is not synced: a crash right after the rename may lose
/// the new name, leaving the old file or none — states every reader of
/// these formats already handles.
///
/// # Errors
///
/// Propagates any filesystem error; the temp file may then be left behind.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = OsString::from(path);
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)
}

/// Streams the lines of `path` (without their `\n`), or `Ok(None)` when
/// the file does not exist.
///
/// Decoding is lossy: a line that is not valid UTF-8 (bit rot) arrives with
/// replacement characters, so it fails its CRC as a bad record instead of
/// failing the whole read as an I/O error.
///
/// # Errors
///
/// Opening errors other than not-found; read errors arrive per line.
pub fn lossy_lines(path: &Path) -> io::Result<Option<impl Iterator<Item = io::Result<String>>>> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut reader = BufReader::new(file);
    Ok(Some(std::iter::from_fn(move || {
        let mut line = Vec::new();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => None,
            Ok(_) => {
                if line.last() == Some(&b'\n') {
                    line.pop();
                }
                Some(Ok(String::from_utf8(line).unwrap_or_else(|e| {
                    String::from_utf8_lossy(e.as_bytes()).into_owned()
                })))
            }
            Err(e) => Some(Err(e)),
        }
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_extend(crc32(b"1234"), b"56789"), 0xCBF4_3926);
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned reference values so committed fingerprints and the lint
        // manifest can never drift silently.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn reference_sequence_from_seed_zero() {
        // First outputs of splitmix64(0), per the public-domain reference
        // implementation.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_stream_is_identical() {
        let mut a = SplitMix64::stream(42, 7);
        let mut b = SplitMix64::stream(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn neighbouring_streams_do_not_collide() {
        let mut a = SplitMix64::stream(42, 0);
        let mut b = SplitMix64::stream(42, 1);
        let first: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let second: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_ne!(first, second);
        // No element-wise overlap either (streams are not lagged copies).
        let same = first.iter().zip(&second).filter(|(x, y)| x == y).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_variates_stay_in_range_and_fill_it() {
        let mut rng = SplitMix64::stream(1, 0);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn xoshiro_matches_known_answers() {
        // Known answers: the synthetic circuits and every committed
        // result built on them depend on these exact streams.
        let mut rng = Xoshiro256::new(0);
        assert_eq!(rng.next_u64(), 0x5317_5d61_490b_23df);
        assert_eq!(rng.next_u64(), 0x61da_6f3d_c380_d507);
        assert_eq!(rng.next_u64(), 0x5c0f_df91_ec9a_7bfc);
        let mut rng = Xoshiro256::new(42);
        assert_eq!(rng.next_u64(), 0xd076_4d4f_4476_689f);
        assert_eq!(rng.next_u64(), 0x519e_4174_576f_3791);
        assert_eq!(rng.next_u64(), 0xfbe0_7cfb_0c24_ed8c);

        let mut rng = Xoshiro256::new(7);
        assert_eq!(rng.below(10), 0);
        assert_eq!(rng.next_f64(), 0.17211585444811772);
        assert_eq!(rng.uniform(0.15, 0.85), 0.6523032898510616);
        assert!(rng.chance(0.5));

        let mut rng = Xoshiro256::new(11);
        let below: Vec<u64> = (0..4).map(|_| rng.below(1000)).collect();
        assert_eq!(below, [859, 806, 964, 603]);
        let below: Vec<u64> = (0..4).map(|_| rng.below(17)).collect();
        assert_eq!(below, [4, 12, 2, 0]);
        let uniform: Vec<f64> = (0..3).map(|_| rng.uniform(10.0, 130.0)).collect();
        assert_eq!(
            uniform,
            [104.67550911081602, 57.247330155179554, 90.18850376410118]
        );
        let chance: Vec<bool> = (0..8).map(|_| rng.chance(0.45)).collect();
        assert_eq!(chance, [true, true, true, true, false, true, false, false]);
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut a = Xoshiro256::new(42);
        let mut b = Xoshiro256::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_seeds_differ() {
        assert_ne!(Xoshiro256::new(1).next_u64(), Xoshiro256::new(2).next_u64());
    }

    #[test]
    fn xoshiro_unit_variates_stay_in_range_with_mean_one_half() {
        let mut rng = Xoshiro256::new(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn xoshiro_chance_tracks_probability() {
        let mut rng = Xoshiro256::new(9);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn xoshiro_ranges_are_respected() {
        let mut rng = Xoshiro256::new(3);
        for _ in 0..1000 {
            assert!(rng.below(14) < 14);
            let f = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
            assert_eq!(rng.below(1), 0);
        }
        // Every bucket of a small range is eventually hit.
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.below(6) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn lossy_lines_turn_bad_utf8_into_a_bad_line() {
        let path = std::env::temp_dir().join(format!("relia-seal-{}", std::process::id()));
        assert!(lossy_lines(&path).unwrap().is_none(), "missing file");
        write_atomic(&path, b"head\nbad \xff byte\n\ntail").unwrap();
        let lines: Vec<String> = lossy_lines(&path)
            .unwrap()
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(lines, ["head", "bad \u{fffd} byte", "", "tail"]);
        fs::remove_file(&path).unwrap();
    }
}
