#![forbid(unsafe_code)]
//! # relia-ivc
//!
//! Input vector control (IVC) and internal node control (INC) for
//! simultaneous standby-leakage and NBTI mitigation.
//!
//! * [`mlv`] — the paper's probability-based minimum-leakage-vector (MLV)
//!   *set* search (Fig. 7): evolve a population of input vectors toward low
//!   leakage, keeping every vector whose leakage is within a band of the
//!   minimum.
//! * [`exact`] — exhaustive MLV search for small input counts (ground truth
//!   for the heuristic).
//! * [`cooptim`] — the NBTI/leakage co-optimization: evaluate the
//!   NBTI-induced delay degradation of every vector in the MLV set and pick
//!   the one minimizing degradation (the paper's Table 3 experiment).
//! * [`internal_node`] — the internal-node-control *potential*: the gap
//!   between the all-'0' worst case and the all-'1' best case (Table 4).
//! * [`rotation`] — alternating IVC (Abella et al., the paper's ref.\[23\]):
//!   rotate among several vectors so no single PMOS takes the full standby
//!   damage.
//! * [`control_points`] — budgeted internal node control (Lin et al., the
//!   paper's ref.\[9\]): greedily place control points on the aged critical
//!   path.
//!
//! ```
//! use relia_flow::{AgingAnalysis, FlowConfig};
//! use relia_ivc::mlv::{search_mlv_set, MlvSearchConfig};
//! use relia_netlist::iscas;
//!
//! # fn main() -> Result<(), relia_flow::FlowError> {
//! let circuit = iscas::c17();
//! let config = FlowConfig::paper_defaults()?;
//! let analysis = AgingAnalysis::new(&config, &circuit)?;
//! let set = search_mlv_set(&analysis, &MlvSearchConfig::default())?;
//! assert!(!set.vectors().is_empty());
//! # Ok(())
//! # }
//! ```

pub mod control_points;
pub mod cooptim;
pub mod exact;
pub mod internal_node;
pub mod mlv;
pub mod rotation;

pub use control_points::{greedy_control_points, ControlPointStep};
pub use cooptim::{co_optimize, CoOptimization, MlvEvaluation};
pub use exact::exhaustive_mlv;
pub use internal_node::{internal_node_potential, IncPotential};
pub use mlv::{search_mlv_set, MlvSearchConfig, MlvSet};
pub use rotation::{evaluate_rotation, RotationEvaluation};
