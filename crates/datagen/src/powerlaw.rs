//! Heavy-tailed samplers.
//!
//! The NFD-substitute netflow generator needs Zipf-distributed hosts and
//! ports (real traffic is famously heavy-tailed).

use cludistream_rng::Rng;

/// Zipf distribution over ranks `1..=n` with exponent `s`:
/// `P(rank = k) ∝ k^(-s)`. Sampling is inverse-CDF over a precomputed
/// table, O(log n) per draw.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities, length `n`.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution with `n` ranks and exponent `s > 0`.
    pub fn new(n: usize, s: f64) -> Self {
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

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the count of elements < u, i.e. the index
        // of the first cdf entry >= u; ranks are 1-based.
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) + 1
    }

    /// Probability of rank `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.cdf.len(), "rank out of range");
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_rng::StdRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 1.1);
        let total: f64 = (1..=100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_one_is_most_likely() {
        let z = Zipf::new(50, 1.5);
        for k in 2..=50 {
            assert!(z.pmf(1) > z.pmf(k));
        }
    }

    #[test]
    fn sample_frequencies_track_pmf() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        for k in 1..=10 {
            let freq = counts[k - 1] as f64 / n as f64;
            assert!((freq - z.pmf(k)).abs() < 0.01, "rank {k}: {freq} vs {}", z.pmf(k));
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
    fn higher_exponent_more_skewed() {
        let flat = Zipf::new(100, 0.5);
        let steep = Zipf::new(100, 2.0);
        assert!(steep.pmf(1) > flat.pmf(1));
    }

    #[test]
    #[should_panic(expected = "n must be positive")]
    fn zipf_empty_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
