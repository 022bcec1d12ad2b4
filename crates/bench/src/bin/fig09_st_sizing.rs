//! Fig. 9 — NBTI-aware sleep-transistor size margin Δ(W/L)/(W/L) versus
//! initial threshold and RAS (eq. 31).
//!
//! A safe PMOS header must be drawn larger by `ΔV_th/(V_dd − V_thST − V_ST)`
//! so the virtual rail still meets its drop budget at end of life. Paper
//! range: ~1.13% to ~3.94%; the margin grows as technology scaling pushes
//! ST thresholds down.

#![allow(clippy::expect_used, clippy::print_stdout, clippy::print_stderr)]

use relia_bench::schedule;
use relia_core::{Kelvin, NbtiModel, Seconds};
use relia_sleep::StSizing;

fn main() {
    let model = NbtiModel::ptm90().expect("built-in calibration");
    let lifetime = Seconds(1.0e8);
    let vths = [0.20, 0.25, 0.30, 0.35, 0.40];
    let ras_list: [(f64, f64); 5] = [(9.0, 1.0), (5.0, 1.0), (1.0, 1.0), (1.0, 5.0), (1.0, 9.0)];

    println!("Fig. 9: NBTI-aware ST size margin d(W/L) [%] vs initial Vth and RAS");
    print!("{:>10}", "Vth0 [V]");
    for (a, s) in ras_list {
        print!(" {:>9}", format!("{a:.0}:{s:.0}"));
    }
    println!();
    relia_bench::rule(62);

    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for vth in vths {
        print!("{:>10.2}", vth);
        for (a, s) in ras_list {
            let sizing = StSizing::paper_defaults(0.05, vth).expect("valid sizing");
            let dv = sizing
                .st_delta_vth(&model, &schedule(a, s, Kelvin(330.0)), lifetime)
                .expect("valid inputs");
            let margin = sizing.nbti_size_margin(dv).expect("bounded shift");
            lo = lo.min(margin);
            hi = hi.max(margin);
            print!(" {:>8.2}%", margin * 100.0);
        }
        println!();
    }
    println!();
    println!(
        "range: {:.2}% .. {:.2}% (paper: 1.13% .. 3.94%)",
        lo * 100.0,
        hi * 100.0
    );
}
