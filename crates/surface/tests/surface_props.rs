//! The surface contract, property-tested: interpolated ΔV_th stays within
//! the documented error bound of exact evaluation for random in-domain
//! points, the artifact round-trips byte-identically through disk, and
//! corrupt or truncated files are rejected.

#![allow(clippy::expect_used)]

use std::sync::OnceLock;

use proptest::prelude::*;
use relia_core::{Kelvin, NbtiModel};
use relia_surface::{
    build, evaluate_exact, kelvin_spaced, lin_spaced, log_spaced, rel_error, Artifact, BuildSpec,
    Surface, SurfaceError, SurfaceQuery, DOCUMENTED_ERROR_BOUND,
};

const T_ACTIVE_K: f64 = 400.0;
const PERIOD_S: f64 = 1000.0;
const PAIRS: [(f64, f64); 2] = [(0.5, 1.0), (0.3, 1.0)];

/// One artifact shared by every property case — building it is the
/// expensive part (a few thousand model evaluations).
fn artifact() -> &'static Artifact {
    static ARTIFACT: OnceLock<Artifact> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let model = NbtiModel::ptm90().expect("builtin calibration");
        let spec = BuildSpec {
            t_active_k: vec![Kelvin(T_ACTIVE_K)],
            t_standby_k: kelvin_spaced(320.0, 400.0, 9),
            ras_fraction: lin_spaced(0.1, 0.9, 9),
            lifetime_s: log_spaced(1e6, 1e9, 13),
            pairs: PAIRS.to_vec(),
            period_s: PERIOD_S,
            workers: 2,
        };
        build(&model, &spec).expect("build")
    })
}

fn surface() -> Surface {
    Surface::from_artifact(artifact().clone()).expect("within bound")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For random in-domain points the interpolated value is within the
    /// documented relative error bound of the exact model — the contract
    /// `relia serve --surface` relies on.
    #[test]
    fn interpolation_stays_within_the_documented_bound(
        ts in 320.0f64..400.0,
        rf in 0.1f64..0.9,
        log_t in 6.0f64..9.0,
        pair in 0usize..PAIRS.len(),
    ) {
        let t = 10f64.powf(log_t);
        let (pa, ps) = PAIRS[pair];
        let model = NbtiModel::ptm90().expect("builtin calibration");
        let q = SurfaceQuery {
            t_active_k: Kelvin(T_ACTIVE_K),
            t_standby_k: Kelvin(ts),
            ras_fraction: rf,
            lifetime_s: t,
            p_active: pa,
            p_standby: ps,
        };
        let exact = evaluate_exact(&model, PERIOD_S, &q)
            .expect("in-domain point evaluates");
        let hit = surface().lookup(&q).expect("known pair");
        prop_assert!(!hit.clamped, "in-domain point must not clamp");
        let err = rel_error(hit.delta_vth_v, exact);
        prop_assert!(
            err <= DOCUMENTED_ERROR_BOUND,
            "rel error {err:e} at (ts={ts}, rf={rf}, t={t:e}, pa={pa}) exceeds \
             {DOCUMENTED_ERROR_BOUND:e}"
        );
    }

    /// Any single corrupted byte in the sealed region is caught — by the
    /// CRC, or by a structural check for the few bytes (magic, version,
    /// the CRC field itself) whose damage is diagnosed earlier/differently.
    #[test]
    fn corrupting_any_byte_is_rejected(position in 0usize..100_000, flip in 1u8..255) {
        let bytes = artifact().to_bytes();
        let mut bad = bytes.clone();
        let at = position % bad.len();
        bad[at] ^= flip;
        prop_assert!(
            Artifact::from_bytes(&bad).is_err(),
            "flip {flip:#04x} at {at} must not decode"
        );
    }

    /// A torn (truncated) file never decodes.
    #[test]
    fn truncated_files_are_rejected(cut in 0usize..100_000) {
        let bytes = artifact().to_bytes();
        let cut = cut % bytes.len();
        prop_assert!(matches!(
            Artifact::from_bytes(&bytes[..cut]),
            Err(SurfaceError::Truncated { .. } | SurfaceError::CrcMismatch { .. })
        ));
    }
}

#[test]
fn artifact_round_trips_byte_identically_through_disk() {
    let dir = std::env::temp_dir().join(format!("relia-surface-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("round_trip.rsf");
    let a = artifact();
    a.write(&path).expect("write");
    let back = Artifact::read(&path).expect("read");
    assert_eq!(&back, a, "decoded artifact equals the built one");
    assert_eq!(back.to_bytes(), a.to_bytes(), "re-encode is byte-identical");

    // And the loaded surface probes bit-identically to the in-memory one.
    let on_disk = Surface::load(&path).expect("load");
    let q = SurfaceQuery {
        t_active_k: Kelvin(T_ACTIVE_K),
        t_standby_k: Kelvin(333.0),
        ras_fraction: 0.42,
        lifetime_s: 3.3e7,
        p_active: 0.5,
        p_standby: 1.0,
    };
    let mem = surface().lookup(&q).expect("mem hit");
    let disk = on_disk.lookup(&q).expect("disk hit");
    assert_eq!(mem.delta_vth_v.to_bits(), disk.delta_vth_v.to_bits());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn the_measured_sup_error_is_enforced_at_load_time() {
    // Forge an artifact that *claims* a sup-error over the bound (CRC
    // intact): the reader must refuse it.
    let mut over = artifact().clone();
    over.sup_error = DOCUMENTED_ERROR_BOUND * 2.0;
    let bytes = over.to_bytes();
    let decoded = Artifact::from_bytes(&bytes).expect("format-valid");
    assert!(matches!(
        Surface::from_artifact(decoded),
        Err(SurfaceError::ErrorBoundExceeded { .. })
    ));
}
