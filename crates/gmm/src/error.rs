use cludistream_linalg::LinalgError;
use cludistream_wire::Malformed;
use std::fmt;

/// Errors produced by the mixture-model machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum GmmError {
    /// A linear-algebra kernel failed (typically a degenerate covariance).
    Linalg(LinalgError),
    /// The training data was empty or smaller than the component count.
    NotEnoughData {
        /// Records available.
        have: usize,
        /// Records required.
        need: usize,
    },
    /// Records of differing dimensionality were mixed.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Dimensionality encountered.
        got: usize,
    },
    /// A configuration parameter was outside its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable constraint description.
        constraint: &'static str,
    },
    /// Mixture weights were invalid (negative, non-finite, or zero-sum).
    InvalidWeights,
    /// A decode operation hit a malformed or truncated buffer.
    Codec(&'static str),
}

impl fmt::Display for GmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GmmError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            GmmError::NotEnoughData { have, need } => {
                write!(f, "not enough data: have {have} records, need at least {need}")
            }
            GmmError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            GmmError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter {name}: must satisfy {constraint}")
            }
            GmmError::InvalidWeights => write!(f, "mixture weights are invalid"),
            GmmError::Codec(msg) => write!(f, "codec error: {msg}"),
        }
    }
}

impl std::error::Error for GmmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GmmError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for GmmError {
    fn from(e: LinalgError) -> Self {
        GmmError::Linalg(e)
    }
}

/// Inside a decoder, a mixture-model failure is a rejected value.
impl<E: From<GmmError>> From<GmmError> for Malformed<E> {
    fn from(e: GmmError) -> Self {
        Malformed::Invalid(e.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = GmmError::from(LinalgError::Singular);
        assert!(e.to_string().contains("singular"));
        assert!(std::error::Error::source(&e).is_some());
        let e = GmmError::NotEnoughData { have: 1, need: 5 };
        assert!(e.to_string().contains("need at least 5"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
