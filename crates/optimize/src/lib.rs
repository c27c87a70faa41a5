#![warn(missing_docs, unreachable_pub)]

//! Derivative-free optimization substrate for the CluDistream reproduction.
//!
//! The paper refines merged Gaussian components by minimizing an L1
//! accuracy-loss functional whose derivatives are unknown, using the
//! downhill-simplex method of Nelder and Mead (reference \[19\] of the paper).
//! This crate implements that method with the standard
//! reflection/expansion/contraction/shrink moves and a configurable
//! termination rule.
//!
//! # Example
//!
//! ```
//! use cludistream_optimize::{NelderMead, NelderMeadConfig};
//!
//! // Minimize the 2-d sphere function.
//! let nm = NelderMead::new(NelderMeadConfig::default());
//! let result = nm.minimize(|x| x.iter().map(|v| v * v).sum(), &[1.0, -2.0]);
//! assert!(result.value < 1e-8);
//! ```

mod nelder_mead;

pub use nelder_mead::{NelderMead, NelderMeadConfig, OptimizeResult};

