//! Differentiable wirelength models for analytical global placement.
//!
//! This crate implements the paper's contribution — the **Moreau-envelope
//! HPWL model** ([`moreau`]) computed via the water-filling algorithm
//! ([`waterfill`]) — alongside every baseline the paper compares against:
//! log-sum-exp ([`lse`]), weighted-average ([`wa`]), the CHKS bivariate
//! model ([`big`]), and exact HPWL with its canonical subgradient
//! ([`hpwl`]). All models share the [`model::NetModel`] trait and are
//! summed over a netlist by [`netgrad::NetlistEvaluator`].
//!
//! The overflow-driven smoothing schedules of §III-C (the paper's tangent
//! schedule Eq. (14) and ePlace's decade schedule) live in [`schedule`].
//!
//! # Example
//!
//! ```
//! use mep_wirelength::model::{ModelKind, NetModel};
//!
//! let mut ours = ModelKind::Moreau.instantiate(0.5);
//! let x = [0.0, 4.0, 10.0];
//! let mut grad = [0.0; 3];
//! let w = ours.eval_axis(&x, &mut grad);
//! assert!((w - 10.0).abs() < 0.6); // close to the exact span
//! assert!(grad.iter().sum::<f64>().abs() < 1e-12); // Corollary 3
//! ```

// lint:allow(forbid-unsafe): engine.rs needs two audited unsafe blocks (lifetime-erased
// scoped tasks for the persistent worker pool); deny + per-module allow is the tightest
// level that still compiles them. See the SAFETY comments in engine.rs.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// Numeric kernels index several parallel arrays with one counter; the
// iterator rewrites clippy suggests obscure those loops.
#![allow(clippy::needless_range_loop)]

pub mod big;
// The persistent worker pool erases task lifetimes to dispatch borrowed
// closures to long-lived threads; the two unsafe blocks carry SAFETY
// proofs and are the only unsafe code in the workspace.
#[allow(unsafe_code)]
pub mod engine;
pub mod hpwl;
pub mod lse;
pub mod model;
pub mod moreau;
mod moreau_lanes;
pub mod netgrad;
pub mod schedule;
pub mod wa;
pub mod waterfill;

pub use engine::{EngineStats, EvalEngine, Stage, StageStats};
pub use model::{AnyModel, ModelKind, NetModel};
pub use netgrad::{NetlistEvaluator, WirelengthGrad};
pub use schedule::{EplaceGammaSchedule, SmoothingSchedule, TangentTSchedule};
