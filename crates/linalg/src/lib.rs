#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

//! Dense linear algebra substrate for the CluDistream reproduction.
//!
//! The EM algorithm over full-covariance Gaussian mixtures needs a small,
//! well-tested set of dense kernels: vector/matrix arithmetic, a Cholesky
//! factorization (log-determinants, solves, Mahalanobis quadratic forms) and
//! an LU factorization with partial pivoting (general inverses and
//! determinants for non-SPD inputs, and the reference the Cholesky paths are
//! tested against).
//!
//! Everything here is `f64`, row-major, and allocation-explicit. The sizes
//! involved (d ≤ a few dozen for the paper's experiments) make cache-blocked
//! or SIMD kernels unnecessary; clarity and numerical robustness win.
//!
//! # Example
//!
//! ```
//! use cludistream_linalg::{Matrix, Vector, Cholesky};
//!
//! let sigma = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let chol = Cholesky::new(&sigma).unwrap();
//! let x = Vector::from_slice(&[1.0, 2.0]);
//! let mu = Vector::from_slice(&[0.0, 0.0]);
//! let d2 = chol.mahalanobis_sq(&x, &mu);
//! assert!(d2 > 0.0);
//! ```

mod cholesky;
mod error;
mod lu;
mod matrix;
mod props;
mod vector;

pub use cholesky::{cholesky_regularized, Cholesky};
pub use error::LinalgError;
pub(crate) use lu::Lu;
pub use matrix::Matrix;
pub use vector::Vector;

/// Result alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, LinalgError>;
