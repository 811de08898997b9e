// `!(x > 0.0)`-style guards are deliberate: they reject NaN along with
// non-positive values, which `x <= 0.0` would not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
//! Block-based statistical static timing analysis (SSTA) for the LVF²
//! reproduction.
//!
//! Implements the §3.4/§4.4 machinery:
//!
//! - [`TimingDist`]: one arc/stage delay under any of the four model
//!   families (LVF, Norm², LESN, LVF²), with **statistical sum** (moment/
//!   cumulant-additive, mixture-exact where possible) and **statistical
//!   max** (numerically exact first moments of `max`, matched back into the
//!   family — componentwise for mixtures, à la Clark);
//! - [`reduce`]: moment-preserving mixture-order reduction (the 4→2 step
//!   after summing two 2-component mixtures), plus a naive truncation
//!   strategy for the ablation bench;
//! - [`graph::TimingGraph`]: block-based propagation over a DAG
//!   (Devgan–Kashyap, ref \[20\]);
//! - [`csr::CsrGraph`]: the graph-scale engine — arena/CSR representation
//!   with Kahn-levelized parallel wavefront propagation on `lvf2-parallel`,
//!   bit-identical at any thread count (see `docs/SSTA.md`);
//! - [`netlist::parse_netlist`] / [`netlist::parse_bench`] /
//!   [`netlist::NetlistGen`]: the `.net` parser, the ISCAS-style `.bench`
//!   importer and the parameterized random-netlist generator, all loading
//!   through one [`netlist::Topology`] → [`TimingGraph`] path with either
//!   synthetic or Monte-Carlo-characterized delays ([`netlist::run_sta`]);
//! - [`slack`]: backward required-time propagation and violation
//!   probabilities on a [`CsrGraph`];
//! - [`golden`]: sample-level golden propagation;
//! - [`circuits`]: the benchmark generators — FO4 inverter chain, the
//!   16-bit carry adder critical path (≈30 FO4) and the 6-stage H-tree with
//!   Π-model wires (≈95 FO4);
//! - [`propagate`]: the Figure 5 experiment (per-stage binning-error
//!   reduction along a path);
//! - [`clt`]: Berry–Esseen bound and CDF-gap utilities (Theorem 1,
//!   Corollaries 2–3).
//!
//! # Example
//!
//! ```
//! use lvf2_ssta::{circuits, propagate};
//! use lvf2_fit::FitConfig;
//!
//! # fn main() -> Result<(), lvf2_ssta::SstaError> {
//! let stages = circuits::fo4_chain(4, 1500, 7);
//! let pts = propagate::propagate_path(&stages, 0.02, &FitConfig::fast())?;
//! assert_eq!(pts.len(), 4);
//! assert!(pts[0].cum_fo4 > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod circuits;
pub mod clt;
pub mod csr;
pub mod dist;
pub mod error;
pub mod golden;
pub mod graph;
pub mod netlist;
pub mod ops;
pub mod propagate;
pub mod reduce;
pub mod slack;

pub use circuits::Stage;
pub use csr::{CsrGraph, Propagation};
pub use dist::TimingDist;
pub use error::SstaError;
pub use graph::TimingGraph;
pub use netlist::{
    parse_bench, parse_netlist, run_sta, DelayFamily, DelaySource, LoadedGraph, NamedTopology,
    NetlistGen, StaOptions, StaReport, SyntheticDelays, Topology,
};
pub use reduce::ReductionStrategy;
