//! The workspace-level error type for the CluDistream public API.
//!
//! Every fallible public entry point of this crate — building a
//! [`crate::Simulation`], constructing a [`crate::Coordinator`] or
//! [`crate::AggregatorEngine`], decoding wire frames — returns
//! `Result<_, CludiError>` instead of panicking. Internal invariant
//! checks (things a caller cannot cause) may still use `expect` with a
//! message, but anything reachable from user input surfaces here.

use cludistream_gmm::GmmError;
use cludistream_simnet::SimError;
use cludistream_wire::Malformed;
use std::fmt;

/// Any failure of the CluDistream driver stack.
#[derive(Debug, Clone, PartialEq)]
pub enum CludiError {
    /// A mixture-model operation failed (EM fit, synopsis apply, codec).
    Gmm(GmmError),
    /// The discrete-event simulator rejected the run (illegal link,
    /// malformed outage, topology mismatch).
    Sim(SimError),
    /// A configuration parameter was outside its valid range.
    InvalidConfig {
        /// Parameter name.
        name: &'static str,
        /// Human-readable constraint description.
        constraint: &'static str,
    },
    /// A wire frame or snapshot was malformed or truncated.
    Decode(&'static str),
    /// A [`crate::Simulation`] builder was given an inconsistent recipe
    /// (e.g. a stream count that disagrees with the site count).
    Build(&'static str),
    /// The socket runtime failed: connect/accept, handshake rejection, or
    /// an I/O error that retries could not absorb. Carries the rendered
    /// cause (`std::io::Error` is neither `Clone` nor `PartialEq`).
    Net(String),
}

impl fmt::Display for CludiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CludiError::Gmm(e) => write!(f, "mixture model failure: {e}"),
            CludiError::Sim(e) => write!(f, "simulation failure: {e}"),
            CludiError::InvalidConfig { name, constraint } => {
                write!(f, "invalid config {name}: must satisfy {constraint}")
            }
            CludiError::Decode(msg) => write!(f, "decode error: {msg}"),
            CludiError::Build(msg) => write!(f, "builder error: {msg}"),
            CludiError::Net(msg) => write!(f, "network error: {msg}"),
        }
    }
}

impl std::error::Error for CludiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CludiError::Gmm(e) => Some(e),
            CludiError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GmmError> for CludiError {
    fn from(e: GmmError) -> Self {
        CludiError::Gmm(e)
    }
}

impl From<SimError> for CludiError {
    fn from(e: SimError) -> Self {
        CludiError::Sim(e)
    }
}

impl From<std::io::Error> for CludiError {
    fn from(e: std::io::Error) -> Self {
        CludiError::Net(e.to_string())
    }
}

/// Inside a decoder, a failure of a nested one is a rejected value.
impl From<CludiError> for Malformed<CludiError> {
    fn from(e: CludiError) -> Self {
        Malformed::Invalid(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let e = CludiError::from(GmmError::InvalidWeights);
        assert!(e.to_string().contains("weights"));
        assert!(std::error::Error::source(&e).is_some());

        let e = CludiError::from(SimError::UnknownNode(cludistream_simnet::NodeId(3)));
        assert!(e.to_string().contains("simulation failure"));
        assert!(std::error::Error::source(&e).is_some());

        let e = CludiError::InvalidConfig { name: "max_groups", constraint: ">= 1" };
        assert!(e.to_string().contains("max_groups"));
        assert!(std::error::Error::source(&e).is_none());

        assert!(CludiError::Decode("bad tag").to_string().contains("bad tag"));
        assert!(CludiError::Build("no streams").to_string().contains("no streams"));
    }
}
