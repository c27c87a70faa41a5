//! Heavy-tailed samplers.
//!
//! The NFD-substitute netflow generator needs Zipf-distributed hosts and
//! ports (real traffic is famously heavy-tailed).

use cludistream_rng::Rng;

/// Zipf distribution over ranks `1..=n` with exponent `s`:
/// `P(rank = k) ∝ k^(-s)`. Sampling is inverse-CDF over a precomputed
/// table, O(log n) per draw.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    /// Cumulative probabilities, length `n`.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution with `n` ranks and exponent `s > 0`.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf: n must be positive");
        assert!(s > 0.0 && s.is_finite(), "zipf: exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `1..=n`.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the count of elements < u, i.e. the index
        // of the first cdf entry >= u; ranks are 1-based.
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_rng::StdRng;

    #[test]
    fn sample_frequencies_follow_the_power_law() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        // P(rank = k) = k⁻¹ / H₁₀ for exponent 1.
        let h10: f64 = (1..=10).map(|j| 1.0 / j as f64).sum();
        for k in 1..=10 {
            let freq = counts[k - 1] as f64 / n as f64;
            let pmf = 1.0 / (k as f64 * h10);
            assert!((freq - pmf).abs() < 0.01, "rank {k}: {freq} vs {pmf}");
        }
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(5, 2.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let k = z.sample(&mut rng);
            assert!((1..=5).contains(&k));
        }
    }

    #[test]
    #[should_panic(expected = "n must be positive")]
    fn zipf_empty_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
