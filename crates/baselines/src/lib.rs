#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

//! Baseline algorithms the paper compares CluDistream against (Sec. 6).
//!
//! - [`ScalableEm`] — SEM, the scalable EM of Bradley, Reina and Fayyad
//!   (reference \[6\] of the paper): a single evolving mixture maintained
//!   over a bounded buffer, with primary compression (confident records
//!   folded into per-component discard-set sufficient statistics) and
//!   secondary compression (sub-clustering the remainder). This is the
//!   comparator in every quality/time/memory figure.
//! - [`SamplingEm`] — the "sampling based EM" of Fig. 6: EM over a
//!   reservoir sample of the stream.
//! - [`periodic`] — the periodic model-reporting strategy ("adopted by
//!   many distributed clustering methods, such as DBDC"): each site runs
//!   SEM and pushes its current synopsis to the coordinator at a fixed
//!   period, regardless of whether anything changed. The Fig. 2
//!   communication comparison runs this against CluDistream.

mod reservoir;
mod sampling_em;
mod sem;

pub mod periodic;

pub use reservoir::ReservoirSampler;
pub use sampling_em::{SamplingEm, SamplingEmConfig};
pub use sem::{ScalableEm, SemConfig, SemStats};
