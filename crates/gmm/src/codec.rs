//! Binary wire format for model synopses.
//!
//! The communication-cost experiments (paper Sec. 5.3 and Fig. 2) measure
//! *bytes transmitted*, so the codec is explicit about every byte: a mixture
//! synopsis is a fixed header plus `K` weights, `K` means and `K`
//! covariances. For [`CovarianceType::Diagonal`] only the diagonal is
//! transmitted — the d-vector representation Theorem 3 mentions — making the
//! encoding lossy for non-diagonal models.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! u8  covariance tag (0 = full, 1 = diagonal)
//! u32 K   u32 d
//! K × f64             weights
//! K × d × f64         means
//! K × (d² | d) × f64  covariances (row-major for full)
//! ```

use crate::{CovarianceType, Gaussian, GmmError, Mixture, Result};
use cludistream_wire::{ByteBuf, ByteReader, Malformed};
use cludistream_linalg::{Matrix, Vector};

const TAG_FULL: u8 = 0;
const TAG_DIAGONAL: u8 = 1;

/// Exact encoded size in bytes of a K-component, d-dimensional mixture
/// synopsis under the given covariance representation.
///
/// This is the `K(d² + d + 1)` of the paper's Theorem 3 (in f64 units), plus
/// the 9-byte header.
pub fn encoded_len(k: usize, d: usize, cov: CovarianceType) -> usize {
    1 + 4 + 4 + 8 * k * (1 + d + cov.param_count(d))
}

/// Encodes a mixture into a fresh buffer.
pub fn encode_mixture(mixture: &Mixture, cov: CovarianceType) -> ByteBuf {
    let (k, d) = (mixture.k(), mixture.dim());
    let mut buf = ByteBuf::with_capacity(encoded_len(k, d, cov));
    buf.put_u8(match cov {
        CovarianceType::Full => TAG_FULL,
        CovarianceType::Diagonal => TAG_DIAGONAL,
    });
    buf.put_u32_le(k as u32);
    buf.put_u32_le(d as u32);
    for &w in mixture.weights() {
        buf.put_f64_le(w);
    }
    for c in mixture.components() {
        for &m in c.mean().as_slice() {
            buf.put_f64_le(m);
        }
    }
    for c in mixture.components() {
        match cov {
            CovarianceType::Full => {
                for &v in c.cov().as_slice() {
                    buf.put_f64_le(v);
                }
            }
            CovarianceType::Diagonal => {
                for v in c.cov().diag() {
                    buf.put_f64_le(v);
                }
            }
        }
    }
    buf
}

/// Decodes a mixture from a buffer produced by [`encode_mixture`].
pub fn decode_mixture(r: &mut ByteReader<'_>) -> Result<Mixture> {
    read_mixture(r).map_err(|e| e.named(GmmError::Codec("truncated synopsis")))
}

fn read_mixture(r: &mut ByteReader<'_>) -> std::result::Result<Mixture, Malformed<GmmError>> {
    let cov = match r.get_u8()? {
        TAG_FULL => CovarianceType::Full,
        TAG_DIAGONAL => CovarianceType::Diagonal,
        _ => return Err(GmmError::Codec("unknown covariance tag").into()),
    };
    let k = r.get_u32_le()? as usize;
    let d = r.get_u32_le()? as usize;
    if k == 0 || d == 0 {
        return Err(GmmError::Codec("zero K or d").into());
    }
    // K and d are the peer's: nothing is allocated until the whole body —
    // K weights, means and covariances — is known to be present.
    let mean_bytes = r.need_items(d, 8)?;
    let cov_bytes = match cov {
        CovarianceType::Full => r.need_items(d, mean_bytes)?,
        CovarianceType::Diagonal => mean_bytes,
    };
    r.need_items(k, 8usize.saturating_add(mean_bytes).saturating_add(cov_bytes))?;
    let weights: Vec<f64> = r.f64s(k)?.collect();
    let means: Vec<Vector> = r.items(k, mean_bytes, |r| Ok(r.f64s(d)?.collect()))?;
    let mut comps = Vec::with_capacity(k);
    for mean in means {
        let values = r.f64s(cov_bytes / 8)?;
        let cov_matrix = match cov {
            CovarianceType::Full => Matrix::from_vec(d, d, values.collect()),
            CovarianceType::Diagonal => Matrix::from_diag(&values.collect::<Vec<f64>>()),
        };
        comps.push(Gaussian::new(mean, cov_matrix)?);
    }
    Ok(Mixture::new(comps, weights)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mixture() -> Mixture {
        Mixture::new(
            vec![
                Gaussian::new(
                    Vector::from_slice(&[1.0, 2.0]),
                    Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]),
                )
                .unwrap(),
                Gaussian::spherical(Vector::from_slice(&[-3.0, 4.0]), 0.5).unwrap(),
            ],
            vec![0.4, 0.6],
        )
        .unwrap()
    }

    #[test]
    fn full_roundtrip_is_exact() {
        let m = sample_mixture();
        let bytes = encode_mixture(&m, CovarianceType::Full);
        assert_eq!(bytes.len(), encoded_len(2, 2, CovarianceType::Full));
        let back = decode_mixture(&mut bytes.reader()).unwrap();
        assert_eq!(back.k(), 2);
        assert_eq!(back.dim(), 2);
        for i in 0..2 {
            assert!((back.weights()[i] - m.weights()[i]).abs() < 1e-15);
            let (a, b) = (&back.components()[i], &m.components()[i]);
            assert_eq!(a.mean(), b.mean());
            assert_eq!(a.cov().as_slice(), b.cov().as_slice());
        }
    }

    #[test]
    fn diagonal_roundtrip_keeps_diagonal_only() {
        let m = sample_mixture();
        let bytes = encode_mixture(&m, CovarianceType::Diagonal);
        assert_eq!(bytes.len(), encoded_len(2, 2, CovarianceType::Diagonal));
        let back = decode_mixture(&mut bytes.reader()).unwrap();
        let c = back.components()[0].cov();
        assert_eq!(c[(0, 0)], 2.0);
        assert_eq!(c[(0, 1)], 0.0); // off-diagonal dropped
    }

    #[test]
    fn diagonal_is_smaller_than_full() {
        assert!(
            encoded_len(5, 4, CovarianceType::Diagonal) < encoded_len(5, 4, CovarianceType::Full)
        );
    }

    #[test]
    fn encoded_len_matches_theorem3_accounting() {
        // K(d² + d + 1) f64 values + 9-byte header.
        let (k, d) = (5, 4);
        assert_eq!(
            encoded_len(k, d, CovarianceType::Full),
            9 + 8 * k * (d * d + d + 1)
        );
    }

    #[test]
    fn truncated_buffers_rejected() {
        let m = sample_mixture();
        let bytes = encode_mixture(&m, CovarianceType::Full);
        for cut in [0, 5, 9, bytes.len() - 1] {
            let slice = bytes.slice(..cut);
            assert!(decode_mixture(&mut slice.reader()).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = ByteBuf::new();
        buf.put_u8(99);
        buf.put_u32_le(1);
        buf.put_u32_le(1);
        for _ in 0..3 {
            buf.put_f64_le(1.0);
        }
        assert!(matches!(
            decode_mixture(&mut buf.reader()),
            Err(GmmError::Codec("unknown covariance tag"))
        ));
    }

    #[test]
    fn zero_k_rejected() {
        let mut buf = ByteBuf::new();
        buf.put_u8(TAG_FULL);
        buf.put_u32_le(0);
        buf.put_u32_le(2);
        assert!(decode_mixture(&mut buf.reader()).is_err());
    }

    #[test]
    fn corrupt_covariance_rejected() {
        // A negative-definite covariance in the payload must be caught by
        // Gaussian validation (after ridge attempts fail) or accepted with a
        // ridge; NaN must always be rejected.
        let m = sample_mixture();
        let mut raw = encode_mixture(&m, CovarianceType::Full);
        let len = raw.len();
        // Overwrite the last f64 (a covariance entry) with NaN.
        raw[len - 8..].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(decode_mixture(&mut raw.reader()).is_err());
    }
}
