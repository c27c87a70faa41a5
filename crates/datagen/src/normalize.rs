//! Attribute normalization.
//!
//! The paper normalizes each NFD attribute "to reduce the data range effect
//! of different attributes". [`MinMaxNormalizer`] fits the ranges on a
//! sample and applies them to the stream.

use cludistream_linalg::Vector;

/// Min-max normalizer mapping each attribute to `[0, 1]` based on the
/// ranges observed in a fitting sample. Constant attributes map to 0.5.
#[derive(Debug, Clone)]
pub struct MinMaxNormalizer {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxNormalizer {
    /// Fits the per-attribute ranges on `sample`. Panics on empty input or
    /// inconsistent dimensions.
    pub fn fit(sample: &[Vector]) -> Self {
        assert!(!sample.is_empty(), "min-max fit: empty sample");
        let d = sample[0].dim();
        let mut mins = vec![f64::INFINITY; d];
        let mut maxs = vec![f64::NEG_INFINITY; d];
        for x in sample {
            assert_eq!(x.dim(), d, "min-max fit: inconsistent dimensions");
            for i in 0..d {
                mins[i] = mins[i].min(x[i]);
                maxs[i] = maxs[i].max(x[i]);
            }
        }
        MinMaxNormalizer { mins, maxs }
    }

    /// Dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.mins.len()
    }

    /// Maps one record into `[0,1]^d`, clamping values outside the fitted
    /// range.
    pub fn transform(&self, x: &Vector) -> Vector {
        assert_eq!(x.dim(), self.dim(), "min-max transform: dimension mismatch");
        (0..x.dim())
            .map(|i| {
                let range = self.maxs[i] - self.mins[i];
                if range <= 0.0 {
                    0.5
                } else {
                    ((x[i] - self.mins[i]) / range).clamp(0.0, 1.0)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minmax_maps_to_unit_interval() {
        let sample = vec![
            Vector::from_slice(&[0.0, 100.0]),
            Vector::from_slice(&[10.0, 300.0]),
            Vector::from_slice(&[5.0, 200.0]),
        ];
        let n = MinMaxNormalizer::fit(&sample);
        let t = n.transform(&Vector::from_slice(&[5.0, 200.0]));
        assert!((t[0] - 0.5).abs() < 1e-12);
        assert!((t[1] - 0.5).abs() < 1e-12);
        let lo = n.transform(&Vector::from_slice(&[0.0, 100.0]));
        assert_eq!(lo.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn minmax_clamps_out_of_range() {
        let sample = vec![Vector::from_slice(&[0.0]), Vector::from_slice(&[1.0])];
        let n = MinMaxNormalizer::fit(&sample);
        assert_eq!(n.transform(&Vector::from_slice(&[5.0]))[0], 1.0);
        assert_eq!(n.transform(&Vector::from_slice(&[-5.0]))[0], 0.0);
    }

    #[test]
    fn minmax_constant_attribute_maps_to_half() {
        let sample = vec![Vector::from_slice(&[7.0]), Vector::from_slice(&[7.0])];
        let n = MinMaxNormalizer::fit(&sample);
        assert_eq!(n.transform(&Vector::from_slice(&[7.0]))[0], 0.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn minmax_empty_sample_panics() {
        let _ = MinMaxNormalizer::fit(&[]);
    }
}
