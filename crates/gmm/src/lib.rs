#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

//! Gaussian mixture modelling substrate for the CluDistream reproduction.
//!
//! Implements Section 3 of the paper (Gaussian mixture model, classical EM)
//! plus the supporting pieces its algorithms need:
//!
//! - [`Gaussian`] — a d-dimensional Gaussian with a cached Cholesky factor,
//!   log-density evaluation and sampling.
//! - [`Mixture`] — a weighted Gaussian mixture: densities, posteriors
//!   (Eq. 2), average log likelihood (Definition 1), and moment-preserving
//!   component merges.
//! - [`EmConfig`] / [`fit_em`] — the classical EM algorithm of Sec. 3.2 in
//!   the log domain, with k-means++ initialization and ridge-regularized
//!   covariance estimation.
//! - [`SuffStats`] — weighted Gaussian sufficient statistics `(n, Σx,
//!   Σxxᵀ)`; the currency of model merging without raw-data transmission.
//! - [`chunk_size`] — the paper's Theorem 1 chunk size
//!   `M = ⌈-2d ln(δ(2-δ))/ε⌉`.
//! - [`codec`] — an explicit binary wire format for model synopses, so the
//!   communication-cost experiments measure exact byte counts.
//!
//! # Example: fit a mixture and score a chunk
//!
//! ```
//! use cludistream_gmm::{fit_em, EmConfig};
//! use cludistream_linalg::Vector;
//!
//! // Two well-separated 1-d blobs.
//! let data: Vec<Vector> = (0..100)
//!     .map(|i| {
//!         let base = if i % 2 == 0 { 0.0 } else { 10.0 };
//!         Vector::from_slice(&[base + (i % 7) as f64 * 0.01])
//!     })
//!     .collect();
//! let fit = fit_em(&data, &EmConfig { k: 2, seed: 42, ..Default::default() }).unwrap();
//! assert_eq!(fit.mixture.k(), 2);
//! assert!(fit.avg_log_likelihood.is_finite());
//! ```

#[macro_use]
mod wide;
mod batch;
pub mod chunk;
pub mod codec;
mod covariance;
mod em;
mod error;
mod gaussian;
mod kmeans;
mod likelihood;
pub mod metrics;
mod mixture;
mod model_selection;
mod scoring;
mod suffstats;

pub use batch::{Batch, Columns, DensityScratch, MixtureScratch, BLOCK};
pub use chunk::{chunk_size, ChunkParams};
pub use covariance::CovarianceType;
pub use em::{fit_em, fit_em_recorded, EmConfig, EmFit};
pub use error::GmmError;
pub use gaussian::{DistBoundFactor, Gaussian, GaussianScratch};
pub use kmeans::{kmeans, KMeansConfig, KMeansFit};
pub use likelihood::{fit_tolerance, free_parameters, j_fit, log_likelihood_std};
pub use mixture::Mixture;
pub use model_selection::{fit_em_bic, ScoredFit};
pub use scoring::{score, score_record, Scores};
pub use suffstats::SuffStats;

/// Result alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, GmmError>;

/// Numerically stable `log(Σ exp(x_i))`.
///
/// Returns `-inf` for an empty slice (the log of an empty sum).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        // All -inf (or empty): the sum is 0 → log 0 = -inf. A +inf input
        // propagates as +inf.
        return max;
    }
    let sum: f64 = xs.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_matches_naive_when_safe() {
        let xs = [0.1, -0.5, 1.3];
        let naive = xs.iter().map(|x: &f64| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_handles_large_magnitudes() {
        let xs = [-1000.0, -1001.0];
        let got = log_sum_exp(&xs);
        // log(e^-1000 + e^-1001) = -1000 + log(1 + e^-1) ≈ -999.6867
        assert!((got - (-1000.0 + (1.0 + (-1.0f64).exp()).ln())).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_empty_is_neg_inf() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn log_sum_exp_all_neg_inf() {
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY, f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }

    #[test]
    fn log_sum_exp_single_element() {
        assert_eq!(log_sum_exp(&[3.5]), 3.5);
    }
}
