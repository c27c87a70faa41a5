//! Distribution helpers: Box–Muller normals and Fisher–Yates shuffling.

use crate::traits::Rng;

/// A standard-normal deviate via the Box–Muller transform.
///
/// Draws two uniforms and returns `√(−2 ln u₁)·cos(2π u₂)`. Stateless per
/// call (the sine partner is discarded), so draws depend only on the
/// generator position — the property the determinism tests rely on.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1 = rng.next_f64();
        // ln(0) is -inf; skip the measure-zero draw instead of emitting it.
        if u1 > 0.0 {
            let u2 = rng.next_f64();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// A normal distribution with the given mean and standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// N(mean, std_dev²). Panics if `std_dev` is negative or non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Normal {
        assert!(
            std_dev >= 0.0 && std_dev.is_finite() && mean.is_finite(),
            "invalid normal parameters ({mean}, {std_dev})"
        );
        Normal { mean, std_dev }
    }

    /// One deviate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// Uniform in-place permutation (Fisher–Yates, iterating from the end).
pub fn shuffle<T, R: Rng + ?Sized>(slice: &mut [T], rng: &mut R) {
    for i in (1..slice.len()).rev() {
        let j = rng.gen_range(0..=i);
        slice.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StdRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(10);
        let n = 100_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let v = standard_normal(&mut rng);
            sum += v;
            sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn scaled_normal() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = Normal::new(5.0, 0.0);
        assert_eq!(d.sample(&mut rng), 5.0);
        let d = Normal::new(-3.0, 2.0);
        let mean: f64 =
            (0..50_000).map(|_| d.sample(&mut rng)).sum::<f64>() / 50_000.0;
        assert!((mean + 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut v: Vec<usize> = (0..100).collect();
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "identity shuffle on 100 items is implausible");
    }
}
