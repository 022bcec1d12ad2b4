#![forbid(unsafe_code)]
//! # relia — facade crate
//!
//! Re-exports the full relia toolkit: temperature-aware NBTI modeling and
//! standby-leakage/NBTI co-optimization for digital circuits, reproducing
//! Wang et al., *"Temperature-aware NBTI modeling and the impact of input
//! vector control on performance degradation"* (DATE 2007 / TDSC 2011).
//!
//! The typical entry point is the analysis platform in [`flow`]:
//!
//! ```
//! use relia::flow::{AgingAnalysis, FlowConfig, StandbyPolicy};
//! use relia::netlist::iscas;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = iscas::c17();
//! let config = FlowConfig::paper_defaults()?;
//! let analysis = AgingAnalysis::new(&config, &circuit)?;
//! let report = analysis.run(&StandbyPolicy::AllInternalZero)?;
//! assert!(report.degradation_fraction() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! Crate map (each re-exported below):
//!
//! * [`core`] — the temperature-aware NBTI model itself;
//! * [`cells`] / [`netlist`] / [`sim`] / [`leakage`] / [`sta`] /
//!   [`thermal`] — the substrates (cell library, circuit DAG + I/O,
//!   simulation, leakage, timing, thermal);
//! * [`flow`] — the Fig. 6 analysis/optimization platform;
//! * [`ivc`] / [`sleep`] — the standby-leakage-reduction techniques the
//!   paper evaluates for NBTI mitigation;
//! * [`jobs`] — the parallel batch sweep engine (worker pool, degradation
//!   memoization, checkpoint/resume);
//! * [`obs`] — the std-only observability substrate (monotonic/test
//!   clocks, span tracing, log2 latency histograms) threaded through the
//!   serve/jobs/fleet runtimes;
//! * [`fleet`] — the vectorized Monte Carlo engine for fleet-scale
//!   statistical aging (hoisted batch evaluation, seeded correlated
//!   sampling, streaming percentiles — `relia fleet`);
//! * [`surface`] — the precomputed degradation response surface: parallel
//!   grid builder, CRC-sealed artifact, microsecond interpolated lookups
//!   (`relia surface`);
//! * [`serve`] — the std-only HTTP degradation-query service (request
//!   coalescing, shared memo cache, backpressure — `relia serve`);
//! * [`lint`] — the offline static analyzer for unit and reliability
//!   invariants (`relia lint`).

pub use relia_cells as cells;
pub use relia_core as core;
pub use relia_fleet as fleet;
pub use relia_flow as flow;
pub use relia_ivc as ivc;
pub use relia_jobs as jobs;
pub use relia_leakage as leakage;
pub use relia_lint as lint;
pub use relia_netlist as netlist;
pub use relia_obs as obs;
pub use relia_serve as serve;
pub use relia_sim as sim;
pub use relia_sleep as sleep;
pub use relia_sta as sta;
pub use relia_surface as surface;
pub use relia_thermal as thermal;
