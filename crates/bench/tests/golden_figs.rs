//! Pins results binaries' stdout byte for byte to their `results/*.txt`
//! goldens: every binary whose committed file still matches and whose
//! debug build runs in milliseconds (12 of the 24).
//!
//! The fig03/fig04 binaries run through the `relia-jobs` sweep engine, and
//! their goldens were captured from the pre-engine, direct-model versions,
//! so any drift in the engine's quantized-key evaluation shows up here
//! first.

#![allow(clippy::expect_used)]
use std::path::PathBuf;
use std::process::Command;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn stdout_of(bin: &str) -> String {
    let out = Command::new(bin).output().expect("binary runs");
    assert!(out.status.success(), "{bin} failed");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn fig03_matches_the_golden_output_exactly() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_fig03_ras_sweep")),
        golden("fig03_ras_sweep.txt")
    );
}

#[test]
fn fig04_matches_the_golden_output_exactly() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_fig04_tstandby_sweep")),
        golden("fig04_tstandby_sweep.txt")
    );
}

#[test]
fn fig12_matches_the_golden_output_exactly() {
    // The variation study runs on the batched SoA kernel; this pins it
    // byte-for-byte to the output captured from the scalar per-gate loop.
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_fig12_variation")),
        golden("fig12_variation.txt")
    );
}

#[test]
fn ablation_dual_vth_matches_the_golden_output_exactly() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_ablation_dual_vth")),
        golden("ablation_dual_vth.txt")
    );
}

#[test]
fn ablation_thermal_trace_matches_the_golden_output_exactly() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_ablation_thermal_trace")),
        golden("ablation_thermal_trace.txt")
    );
}

#[test]
fn ablation_worst_case_temp_matches_the_golden_output_exactly() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_ablation_worst_case_temp")),
        golden("ablation_worst_case_temp.txt")
    );
}

#[test]
fn fig01_dc_vs_ac_matches_the_golden_output_exactly() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_fig01_dc_vs_ac")),
        golden("fig01_dc_vs_ac.txt")
    );
}

#[test]
fn fig01b_sawtooth_matches_the_golden_output_exactly() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_fig01b_sawtooth")),
        golden("fig01b_sawtooth.txt")
    );
}

#[test]
fn fig08_st_vth_matches_the_golden_output_exactly() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_fig08_st_vth")),
        golden("fig08_st_vth.txt")
    );
}

#[test]
fn fig09_st_sizing_matches_the_golden_output_exactly() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_fig09_st_sizing")),
        golden("fig09_st_sizing.txt")
    );
}

#[test]
fn table1_vth_ras_matches_the_golden_output_exactly() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_table1_vth_ras")),
        golden("table1_vth_ras.txt")
    );
}

#[test]
fn table2_gate_vectors_matches_the_golden_output_exactly() {
    assert_eq!(
        stdout_of(env!("CARGO_BIN_EXE_table2_gate_vectors")),
        golden("table2_gate_vectors.txt")
    );
}
