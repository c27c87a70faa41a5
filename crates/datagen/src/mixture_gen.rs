use cludistream_gmm::{Gaussian, Mixture};
use cludistream_linalg::{Matrix, Vector};
use cludistream_rng::Rng;

/// Component means are drawn uniformly from this interval per axis.
const MEAN_RANGE: (f64, f64) = (-10.0, 10.0);

/// Covariance eigenvalues are drawn uniformly from this interval.
const VAR_RANGE: (f64, f64) = (0.2, 1.5);

/// Component weights are drawn uniformly from `[1, WEIGHT_SKEW]` before
/// normalization.
const WEIGHT_SKEW: f64 = 3.0;

/// Parameters for random mixture generation.
#[derive(Debug, Clone)]
pub struct MixtureGenConfig {
    /// Dimensionality of the generated Gaussians.
    pub dim: usize,
    /// Number of components.
    pub k: usize,
}

impl Default for MixtureGenConfig {
    fn default() -> Self {
        MixtureGenConfig { dim: 4, k: 5 }
    }
}

/// Generates a random symmetric positive-definite matrix with eigenvalues
/// uniform in `var_range`, by rotating a random diagonal through a product
/// of random Givens rotations.
pub fn random_spd_matrix<R: Rng + ?Sized>(
    dim: usize,
    var_range: (f64, f64),
    rng: &mut R,
) -> Matrix {
    assert!(dim > 0, "random_spd_matrix: dim must be positive");
    let (lo, hi) = var_range;
    assert!(lo > 0.0 && hi >= lo, "random_spd_matrix: invalid var_range");
    let mut m = Matrix::from_diag(
        &(0..dim).map(|_| rng.gen_range(lo..=hi)).collect::<Vec<_>>(),
    );
    // Conjugate by random Givens rotations: m ← G m Gᵀ keeps symmetry and
    // the eigenvalue spectrum while mixing axes.
    for _ in 0..(2 * dim) {
        if dim < 2 {
            break;
        }
        let i = rng.gen_range(0..dim);
        let j = loop {
            let j = rng.gen_range(0..dim);
            if j != i {
                break j;
            }
        };
        let theta: f64 = rng.gen_range(0.0..std::f64::consts::PI);
        let (c, s) = (theta.cos(), theta.sin());
        // Apply rotation to rows i, j then columns i, j.
        for col in 0..dim {
            let a = m[(i, col)];
            let b = m[(j, col)];
            m[(i, col)] = c * a - s * b;
            m[(j, col)] = s * a + c * b;
        }
        for row in 0..dim {
            let a = m[(row, i)];
            let b = m[(row, j)];
            m[(row, i)] = c * a - s * b;
            m[(row, j)] = s * a + c * b;
        }
    }
    m.symmetrize();
    m
}

/// Draws a random Gaussian mixture of `config.k` components in
/// `config.dim` dimensions: means uniform in `MEAN_RANGE` per axis,
/// covariance eigenvalues uniform in `VAR_RANGE`, weights uniform in
/// `[1, WEIGHT_SKEW]` before normalization.
pub fn random_mixture<R: Rng + ?Sized>(config: &MixtureGenConfig, rng: &mut R) -> Mixture {
    assert!(config.k > 0 && config.dim > 0, "random_mixture: k and dim must be positive");
    let comps: Vec<Gaussian> = (0..config.k)
        .map(|_| {
            let mean: Vector = (0..config.dim)
                .map(|_| rng.gen_range(MEAN_RANGE.0..=MEAN_RANGE.1))
                .collect();
            let cov = random_spd_matrix(config.dim, VAR_RANGE, rng);
            Gaussian::new(mean, cov).expect("random SPD covariance is valid")
        })
        .collect();
    let weights: Vec<f64> =
        (0..config.k).map(|_| rng.gen_range(1.0..=WEIGHT_SKEW)).collect();
    Mixture::new(comps, weights).expect("generated parameters are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_linalg::{Cholesky, Matrix};
    use cludistream_rng::StdRng;

    #[test]
    fn spd_matrix_is_spd_with_bounded_spectrum() {
        // Every eigenvalue lies in (0.49, 2.01) iff both M − 0.49·I and
        // 2.01·I − M are positive definite, i.e. both factor.
        let mut rng = StdRng::seed_from_u64(1);
        for dim in [1, 2, 4, 8] {
            let m = random_spd_matrix(dim, (0.5, 2.0), &mut rng);
            let mut above = m.clone();
            above.add_ridge(-0.49);
            assert!(Cholesky::new(&above).is_ok(), "dim {dim}: an eigenvalue is <= 0.49");
            let below = &Matrix::identity(dim).scaled(2.01) - &m;
            assert!(Cholesky::new(&below).is_ok(), "dim {dim}: an eigenvalue is >= 2.01");
        }
    }

    #[test]
    fn spd_matrix_trace_preserved_by_rotations() {
        // Givens conjugation preserves the eigenvalues, hence the trace stays
        // within the sum-of-range bounds.
        let mut rng = StdRng::seed_from_u64(2);
        let m = random_spd_matrix(4, (1.0, 1.0), &mut rng);
        assert!((m.trace() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn random_mixture_respects_config() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = MixtureGenConfig { dim: 3, k: 4, ..Default::default() };
        let m = random_mixture(&cfg, &mut rng);
        assert_eq!(m.k(), 4);
        assert_eq!(m.dim(), 3);
        assert!((m.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for c in m.components() {
            for v in c.mean().iter() {
                assert!((-10.0..=10.0).contains(v));
            }
        }
    }

    #[test]
    fn mixtures_differ_across_draws() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = MixtureGenConfig::default();
        let a = random_mixture(&cfg, &mut rng);
        let b = random_mixture(&cfg, &mut rng);
        assert!(a.components()[0].mean() != b.components()[0].mean());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = MixtureGenConfig::default();
        let a = random_mixture(&cfg, &mut StdRng::seed_from_u64(5));
        let b = random_mixture(&cfg, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.components()[0].mean(), b.components()[0].mean());
    }

    #[test]
    fn one_dimensional_mixture_works() {
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = MixtureGenConfig { dim: 1, k: 3, ..Default::default() };
        let m = random_mixture(&cfg, &mut rng);
        assert_eq!(m.dim(), 1);
        assert!(m.components().iter().all(|c| c.cov()[(0, 0)] > 0.0));
    }
}
