//! The on-disk surface artifact: a versioned, CRC-32-sealed little-endian
//! binary — magic, header (build params, model fingerprint, measured
//! sup-error), the four grid axes, the `(p_active, p_standby)` pair table,
//! one flat value block per pair, and a trailing CRC-32 of everything
//! before it. Torn or corrupted files are rejected whole, by construction,
//! not by luck.

use std::fmt;
use std::fs;
use std::path::Path;

use relia_core::seal::{crc32, write_atomic};

use crate::grid::SurfaceGrid;

/// File magic: identifies a relia surface artifact, revision 01.
pub const MAGIC: [u8; 8] = *b"RLSURF01";

/// Artifact format version (bumped on any layout change).
pub const FORMAT_VERSION: u32 = 1;

/// Everything that can go wrong building, writing, reading, or serving a
/// surface.
#[derive(Debug)]
pub enum SurfaceError {
    /// Filesystem failure, with the path for context.
    Io {
        /// The file being read or written.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file ends before the declared content does (torn write).
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes remaining in the file.
        have: usize,
    },
    /// The leading magic is not [`MAGIC`] — not a surface artifact.
    BadMagic,
    /// A format version this build does not understand.
    UnsupportedVersion(u32),
    /// The trailing CRC-32 does not match the content.
    CrcMismatch {
        /// CRC recorded in the file.
        expected: u32,
        /// CRC computed over the content read.
        found: u32,
    },
    /// Structurally invalid content (bad axes, non-finite values, …).
    Invalid(String),
    /// The offline builder failed (model error or a failed grid job).
    Build(String),
    /// The artifact's measured sup-error exceeds the serving bound.
    ErrorBoundExceeded {
        /// Sup-error measured by the builder, from the header.
        measured: f64,
        /// The documented bound the server enforces.
        bound: f64,
    },
    /// The artifact was built against a different model calibration.
    ModelMismatch {
        /// Fingerprint recorded in the artifact.
        expected: u64,
        /// Fingerprint of the serving model.
        found: u64,
    },
}

impl fmt::Display for SurfaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SurfaceError::Io { path, source } => write!(f, "{path}: {source}"),
            SurfaceError::Truncated { needed, have } => write!(
                f,
                "truncated artifact: needed {needed} more bytes, found {have}"
            ),
            SurfaceError::BadMagic => write!(f, "not a surface artifact (bad magic)"),
            SurfaceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported artifact version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            SurfaceError::CrcMismatch { expected, found } => write!(
                f,
                "artifact CRC mismatch: recorded {expected:#010x}, computed {found:#010x}"
            ),
            SurfaceError::Invalid(why) => write!(f, "invalid artifact: {why}"),
            SurfaceError::Build(why) => write!(f, "surface build failed: {why}"),
            SurfaceError::ErrorBoundExceeded { measured, bound } => write!(
                f,
                "artifact sup-error {measured:e} exceeds the documented bound {bound:e}; \
                 rebuild with a denser grid"
            ),
            SurfaceError::ModelMismatch { expected, found } => write!(
                f,
                "artifact model fingerprint {expected:#018x} does not match the serving \
                 model {found:#018x}; rebuild against this calibration"
            ),
        }
    }
}

impl std::error::Error for SurfaceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SurfaceError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A decoded (or freshly built) surface artifact: the header fields, the
/// grid, and one value block per `(p_active, p_standby)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The mode-cycle period the grid was evaluated at (seconds).
    pub period_s: f64,
    /// FNV-1a fingerprint of the building model's anchor evaluations.
    pub model_fingerprint: u64,
    /// Builder-measured sup of the relative interpolation error over the
    /// midpoint sweep.
    pub sup_error: f64,
    /// Number of points the error sweep evaluated.
    pub error_samples: u64,
    /// The four axes.
    pub grid: SurfaceGrid,
    /// The `(p_active, p_standby)` stress-probability pairs, one value
    /// block each.
    pub pairs: Vec<(f64, f64)>,
    /// Per-pair ΔV_th blocks, each of length `grid.len()`, indexed by
    /// [`SurfaceGrid::index`].
    pub values: Vec<Vec<f64>>,
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_axis(out: &mut Vec<u8>, axis: &[f64]) {
    out.extend_from_slice(&(axis.len() as u32).to_le_bytes());
    for &v in axis {
        put_f64(out, v);
    }
}

/// A bounds-checked little-endian reader over the artifact bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SurfaceError> {
        let have = self.bytes.len() - self.pos;
        if have < n {
            return Err(SurfaceError::Truncated { needed: n, have });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, SurfaceError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64, SurfaceError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> Result<f64, SurfaceError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn axis(&mut self, cap: u32) -> Result<Vec<f64>, SurfaceError> {
        let count = self.u32()?;
        if count == 0 || count > cap {
            return Err(SurfaceError::Invalid(format!(
                "axis length {count} outside 1..={cap}"
            )));
        }
        (0..count).map(|_| self.f64()).collect()
    }
}

/// Largest axis length the decoder accepts — a sanity cap so a corrupted
/// length field cannot demand gigabytes.
const MAX_AXIS: u32 = 100_000;

/// Most pairs one artifact may carry.
const MAX_PAIRS: u32 = 4096;

impl Artifact {
    /// Serializes the artifact: magic, header, axes, pairs, value blocks,
    /// trailing CRC-32 of all preceding bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 8 * self.pairs.len() * self.grid.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        put_f64(&mut out, self.period_s);
        out.extend_from_slice(&self.model_fingerprint.to_le_bytes());
        put_f64(&mut out, self.sup_error);
        out.extend_from_slice(&self.error_samples.to_le_bytes());
        put_axis(&mut out, self.grid.t_active_k());
        put_axis(&mut out, self.grid.t_standby_k());
        put_axis(&mut out, self.grid.ras_fraction());
        put_axis(&mut out, self.grid.lifetime_s());
        out.extend_from_slice(&(self.pairs.len() as u32).to_le_bytes());
        for &(pa, ps) in &self.pairs {
            put_f64(&mut out, pa);
            put_f64(&mut out, ps);
        }
        for block in &self.values {
            for &v in block {
                put_f64(&mut out, v);
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes and validates an artifact.
    ///
    /// # Errors
    ///
    /// [`SurfaceError::BadMagic`], [`SurfaceError::UnsupportedVersion`],
    /// [`SurfaceError::Truncated`], [`SurfaceError::CrcMismatch`], or
    /// [`SurfaceError::Invalid`] for structurally bad content.
    pub fn from_bytes(bytes: &[u8]) -> Result<Artifact, SurfaceError> {
        if bytes.len() < MAGIC.len() + 4 {
            return Err(SurfaceError::Truncated {
                needed: MAGIC.len() + 4,
                have: bytes.len(),
            });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SurfaceError::BadMagic);
        }
        // The CRC seals everything before the trailing four bytes.
        let content_len = bytes.len() - 4;
        let mut tail = [0u8; 4];
        tail.copy_from_slice(&bytes[content_len..]);
        let expected = u32::from_le_bytes(tail);
        let found = crc32(&bytes[..content_len]);
        if expected != found {
            return Err(SurfaceError::CrcMismatch { expected, found });
        }
        let mut c = Cursor {
            bytes: &bytes[..content_len],
            pos: MAGIC.len(),
        };
        let version = c.u32()?;
        if version != FORMAT_VERSION {
            return Err(SurfaceError::UnsupportedVersion(version));
        }
        let period_s = c.f64()?;
        if !period_s.is_finite() || period_s <= 0.0 {
            return Err(SurfaceError::Invalid(format!("bad period_s {period_s}")));
        }
        let model_fingerprint = c.u64()?;
        let sup_error = c.f64()?;
        if !sup_error.is_finite() || sup_error < 0.0 {
            return Err(SurfaceError::Invalid(format!("bad sup_error {sup_error}")));
        }
        let error_samples = c.u64()?;
        let t_active_k = c.axis(MAX_AXIS)?;
        let t_standby_k = c.axis(MAX_AXIS)?;
        let ras_fraction = c.axis(MAX_AXIS)?;
        let lifetime_s = c.axis(MAX_AXIS)?;
        let grid = SurfaceGrid::new(t_active_k, t_standby_k, ras_fraction, lifetime_s)?;
        let pair_count = c.u32()?;
        if pair_count == 0 || pair_count > MAX_PAIRS {
            return Err(SurfaceError::Invalid(format!(
                "pair count {pair_count} outside 1..={MAX_PAIRS}"
            )));
        }
        let mut pairs = Vec::with_capacity(pair_count as usize);
        for _ in 0..pair_count {
            let pa = c.f64()?;
            let ps = c.f64()?;
            for (name, p) in [("p_active", pa), ("p_standby", ps)] {
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return Err(SurfaceError::Invalid(format!("{name} {p} outside [0, 1]")));
                }
            }
            pairs.push((pa, ps));
        }
        let mut values = Vec::with_capacity(pairs.len());
        for _ in 0..pairs.len() {
            let mut block = Vec::with_capacity(grid.len());
            for _ in 0..grid.len() {
                let v = c.f64()?;
                if !v.is_finite() {
                    return Err(SurfaceError::Invalid("non-finite grid value".to_owned()));
                }
                block.push(v);
            }
            values.push(block);
        }
        if c.pos != content_len {
            return Err(SurfaceError::Invalid(format!(
                "{} trailing bytes after the value blocks",
                content_len - c.pos
            )));
        }
        Ok(Artifact {
            period_s,
            model_fingerprint,
            sup_error,
            error_samples,
            grid,
            pairs,
            values,
        })
    }

    /// Writes the artifact atomically ([`write_atomic`]): a crash leaves
    /// either the old file or the new one.
    ///
    /// # Errors
    ///
    /// [`SurfaceError::Io`] on any filesystem failure.
    pub fn write(&self, path: &Path) -> Result<(), SurfaceError> {
        write_atomic(path, &self.to_bytes()).map_err(|source| SurfaceError::Io {
            path: path.display().to_string(),
            source,
        })
    }

    /// Reads and decodes an artifact from disk.
    ///
    /// # Errors
    ///
    /// [`SurfaceError::Io`] or any [`Artifact::from_bytes`] failure.
    pub fn read(path: &Path) -> Result<Artifact, SurfaceError> {
        let bytes = fs::read(path).map_err(|source| SurfaceError::Io {
            path: path.display().to_string(),
            source,
        })?;
        Artifact::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> Artifact {
        let grid = SurfaceGrid::new(
            vec![400.0],
            vec![320.0, 360.0],
            vec![0.1, 0.9],
            vec![1e6, 1e8],
        )
        .unwrap();
        let values = vec![(0..grid.len()).map(|i| i as f64 * 1e-3).collect()];
        Artifact {
            period_s: 1000.0,
            model_fingerprint: 0xdead_beef_cafe_f00d,
            sup_error: 2.5e-3,
            error_samples: 42,
            grid,
            pairs: vec![(0.5, 1.0)],
            values,
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let a = artifact();
        let bytes = a.to_bytes();
        let back = Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.to_bytes(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn rejects_bad_magic_truncation_and_corruption() {
        let bytes = artifact().to_bytes();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Artifact::from_bytes(&bad),
            Err(SurfaceError::BadMagic)
        ));

        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            let torn = &bytes[..cut];
            assert!(
                matches!(
                    Artifact::from_bytes(torn),
                    Err(SurfaceError::Truncated { .. } | SurfaceError::CrcMismatch { .. })
                ),
                "cut at {cut}"
            );
        }

        // Flip one payload byte: the CRC catches it.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            Artifact::from_bytes(&flipped),
            Err(SurfaceError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn rejects_future_versions_even_with_a_valid_crc() {
        let mut a = artifact();
        a.sup_error = 0.0;
        let mut bytes = a.to_bytes();
        // Patch the version field (right after the magic) and re-seal.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let content = bytes.len() - 4;
        let crc = crc32(&bytes[..content]);
        bytes[content..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Artifact::from_bytes(&bytes),
            Err(SurfaceError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn write_read_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("relia-surface-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.rsf");
        let a = artifact();
        a.write(&path).unwrap();
        assert_eq!(Artifact::read(&path).unwrap(), a);
        assert!(!dir.join("s.rsf.tmp").exists(), "temp file renamed");
        fs::remove_dir_all(&dir).unwrap();
    }
}
