//! Umbrella crate for the CluDistream reproduction workspace.
//!
//! Re-exports the public crates so the workspace-level integration tests and
//! examples have a single import root. Library users should depend on the
//! individual crates (`cludistream`, `cludistream-gmm`, ...) directly.

#![deny(unsafe_code)]

pub use cludistream;
pub use cludistream_baselines as baselines;
pub use cludistream_datagen as datagen;
pub use cludistream_gmm as gmm;
pub use cludistream_linalg as linalg;
pub use cludistream_obs as obs;
pub use cludistream_rng as rng;
pub use cludistream_simnet as simnet;
pub use cludistream_wire as wire;
