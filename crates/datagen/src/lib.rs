#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

//! Synthetic workload generation for the CluDistream reproduction.
//!
//! The paper evaluates on (a) synthetic streams whose records "follow a
//! series of Gaussian distributions", with a new distribution generated
//! every 2K points with probability `P_d`, optionally corrupted by noise;
//! and (b) the NFD real data set — net-flow records from Shanghai Telecom
//! with six attributes. NFD was never published, so [`NetflowGenerator`]
//! provides a statistically analogous generator (see DESIGN.md,
//! substitution 1).
//!
//! - [`EvolvingStream`] — the paper's synthetic evolving-GMM stream.
//! - [`NoiseInjector`], [`MissingValueInjector`] and [`impute_missing`] —
//!   uniform outlier injection and missing-value simulation ("noisy or
//!   incomplete data records").
//! - [`NetflowGenerator`] — the NFD substitute, with Zipf-distributed
//!   (heavy-tailed) hosts and ports.
//! - [`MinMaxNormalizer`] — the per-attribute normalization the paper
//!   applies to NFD ("we normalize each attribute to reduce the data range
//!   effect").
//! - [`Histogram`] — 1-d histograms for the Figure 3 reproduction.
//!
//! # Example
//!
//! ```
//! use cludistream_datagen::{EvolvingStream, EvolvingStreamConfig};
//!
//! let mut stream = EvolvingStream::new(EvolvingStreamConfig {
//!     dim: 2,
//!     k: 3,
//!     p_new: 0.1,
//!     seed: 7,
//!     ..Default::default()
//! });
//! let records: Vec<_> = stream.by_ref().take(100).collect();
//! assert_eq!(records.len(), 100);
//! assert_eq!(records[0].dim(), 2);
//! ```

pub mod csvio;
mod histogram;
mod mixture_gen;
mod netflow;
mod noise;
mod normalize;
mod powerlaw;
mod props;
mod stream;

pub use histogram::Histogram;
pub use mixture_gen::{random_mixture, random_spd_matrix, MixtureGenConfig};
pub use netflow::{NetflowConfig, NetflowGenerator};
pub use noise::{impute_missing, MissingValueInjector, NoiseInjector};
pub use normalize::MinMaxNormalizer;
pub use stream::{EvolvingStream, EvolvingStreamConfig};
