use crate::{Gaussian, GmmError, Result};
use cludistream_linalg::{Matrix, Vector};

/// Weighted Gaussian sufficient statistics: `(n, Σ w x, Σ w x xᵀ)`.
///
/// Sufficient statistics are the synopsis currency of the whole system: the
/// SEM baseline compresses raw records into them, and the coordinator merges
/// remote models by converting each component back into statistics weighted
/// by its record counter — no raw data ever crosses the network, as the
/// paper requires.
#[derive(Debug, Clone)]
pub struct SuffStats {
    /// Total weight (record count for unweighted data).
    n: f64,
    /// Weighted sum of records.
    sum: Vector,
    /// Weighted sum of outer products `Σ w x xᵀ`.
    scatter: Matrix,
}

impl SuffStats {
    /// Creates empty statistics for dimension `d`.
    pub fn new(d: usize) -> Self {
        SuffStats { n: 0.0, sum: Vector::zeros(d), scatter: Matrix::zeros(d, d) }
    }

    /// Statistics from the flat `[n | Σwx | Σwxxᵀ]` layout (`1 + d + d²`
    /// values, scatter row-major) the EM accumulate pass sums into.
    pub(crate) fn from_flat(d: usize, flat: &[f64]) -> Self {
        SuffStats {
            n: flat[0],
            sum: Vector::from_slice(&flat[1..1 + d]),
            scatter: Matrix::from_vec(d, d, flat[1 + d..].to_vec()),
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.sum.dim()
    }

    /// Total accumulated weight.
    pub fn n(&self) -> f64 {
        self.n
    }

    /// True when nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.n == 0.0
    }

    /// Accumulates one record with the given weight (a membership
    /// probability in EM, 1.0 for plain counting).
    pub fn add(&mut self, x: &Vector, weight: f64) {
        self.add_slice(x.as_slice(), weight);
    }

    /// [`Self::add`] over a raw row slice — the accumulation path of the
    /// batched E-step, which reads records out of a flat SoA buffer.
    /// Identical arithmetic (and arithmetic order) to `add`.
    pub(crate) fn add_slice(&mut self, x: &[f64], weight: f64) {
        debug_assert_eq!(x.len(), self.dim(), "suffstats add: dimension mismatch");
        self.n += weight;
        self.sum.axpy_slice(weight, x);
        self.scatter.rank1_update_slice(weight, x);
    }

    /// Merges another set of statistics into this one.
    pub fn merge(&mut self, other: &SuffStats) {
        assert_eq!(self.dim(), other.dim(), "suffstats merge: dimension mismatch");
        self.n += other.n;
        self.sum += &other.sum;
        self.scatter += &other.scatter;
    }

    /// Adds the statistics a Gaussian would have produced from `n` records,
    /// `sum = n μ` and `scatter = n (Σ + μμᵀ)`, without allocating: each
    /// element is formed (`μ_i·n` for the sum; for the scatter `Σ_ij·n`,
    /// then `+= (n·μ_i)·μ_j`) and added to the running element in place.
    /// The result is bit-identical to building those statistics as a
    /// temporary (`μ.scaled(n)`; `Σ.scaled(n)` then `rank1_update(n, μ)`)
    /// and calling [`Self::merge`]: no element of the temporary depends on
    /// another, so forming them one at a time moves where the operands
    /// live, not which operations run.
    pub fn merge_gaussian(&mut self, g: &Gaussian, n: f64) {
        self.fold_gaussian(g, n, |acc, v| *acc += v);
    }

    /// [`Self::merge_gaussian`] with every element subtracted (sliding-window
    /// deletion of a member's statistics), bit-identical to subtracting the
    /// temporary element by element.
    pub fn unmerge_gaussian(&mut self, g: &Gaussian, n: f64) {
        self.fold_gaussian(g, n, |acc, v| *acc -= v);
    }

    /// Forms each element of the statistics of `g` over `n` records and
    /// hands it to `fold` with the running element it belongs to.
    fn fold_gaussian(&mut self, g: &Gaussian, n: f64, fold: impl Fn(&mut f64, f64)) {
        let d = self.dim();
        assert_eq!(d, g.dim(), "suffstats fold: dimension mismatch");
        let (mu, cov) = (g.mean().as_slice(), g.cov().as_slice());
        fold(&mut self.n, n);
        for (acc, m) in self.sum.as_mut_slice().iter_mut().zip(mu) {
            fold(acc, m * n);
        }
        let rows = self.scatter.as_mut_slice().chunks_exact_mut(d).zip(cov.chunks_exact(d));
        for ((acc_row, cov_row), mi) in rows.zip(mu) {
            let xi = n * mi;
            for ((acc, c), mj) in acc_row.iter_mut().zip(cov_row).zip(mu) {
                let mut v = c * n;
                v += xi * mj;
                fold(acc, v);
            }
        }
    }

    /// Weighted mean `Σwx / n`. Errors when empty.
    pub fn mean(&self) -> Result<Vector> {
        if self.n <= 0.0 {
            return Err(GmmError::NotEnoughData { have: 0, need: 1 });
        }
        Ok(self.sum.scaled(1.0 / self.n))
    }

    /// Maximum-likelihood covariance `Σwxxᵀ/n − μμᵀ` (biased, matching the
    /// paper's M-step). Errors when empty.
    pub fn cov(&self) -> Result<Matrix> {
        let mu = self.mean()?;
        let mut cov = self.scatter.scaled(1.0 / self.n);
        cov.rank1_update(-1.0, &mu);
        cov.symmetrize();
        Ok(cov)
    }

    /// Converts to a Gaussian plus its weight. Degenerate covariances are
    /// ridge-regularized by the [`Gaussian`] constructor.
    pub fn to_gaussian(&self) -> Result<(Gaussian, f64)> {
        Ok((Gaussian::new(self.mean()?, self.cov()?)?, self.n))
    }

    /// Returns the statistics scaled by `r` — the statistics the same data
    /// would produce if every record's weight were multiplied by `r`
    /// (all three fields are linear in the weights). Used when a block of
    /// statistics is split across mixture components by responsibility.
    pub fn scaled(&self, r: f64) -> SuffStats {
        SuffStats { n: self.n * r, sum: self.sum.scaled(r), scatter: self.scatter.scaled(r) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(data: &[&[f64]]) -> SuffStats {
        let mut s = SuffStats::new(data[0].len());
        for row in data {
            s.add(&Vector::from_slice(row), 1.0);
        }
        s
    }

    #[test]
    fn mean_and_cov_match_direct_computation() {
        let s = stats_of(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 0.0]]);
        let mean = s.mean().unwrap();
        assert!((mean[0] - 3.0).abs() < 1e-12);
        assert!((mean[1] - 2.0).abs() < 1e-12);
        let cov = s.cov().unwrap();
        // var(x) = ((1-3)²+(3-3)²+(5-3)²)/3 = 8/3
        assert!((cov[(0, 0)] - 8.0 / 3.0).abs() < 1e-12);
        // cov(x,y) = ((-2)(0) + 0*2 + 2*(-2))/3 = -4/3
        assert!((cov[(0, 1)] + 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_accumulation() {
        let mut s = SuffStats::new(1);
        s.add(&Vector::from_slice(&[2.0]), 3.0);
        s.add(&Vector::from_slice(&[6.0]), 1.0);
        assert_eq!(s.n(), 4.0);
        assert!((s.mean().unwrap()[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_joint_accumulation() {
        let a = stats_of(&[&[1.0], &[2.0]]);
        let b = stats_of(&[&[3.0], &[4.0]]);
        let mut merged = a.clone();
        merged.merge(&b);
        let joint = stats_of(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        assert_eq!(merged.n(), joint.n());
        assert!((merged.mean().unwrap()[0] - joint.mean().unwrap()[0]).abs() < 1e-12);
        assert!((merged.cov().unwrap()[(0, 0)] - joint.cov().unwrap()[(0, 0)]).abs() < 1e-12);
    }

    #[test]
    fn gaussian_roundtrip() {
        let s = stats_of(&[&[1.0, 0.0], &[2.0, 1.0], &[0.0, 2.0], &[3.0, 3.0]]);
        let (g, n) = s.to_gaussian().unwrap();
        assert_eq!(n, 4.0);
        let mut back = SuffStats::new(2);
        back.merge_gaussian(&g, n);
        assert!((back.mean().unwrap()[0] - s.mean().unwrap()[0]).abs() < 1e-10);
        let (c1, c2) = (back.cov().unwrap(), s.cov().unwrap());
        for i in 0..2 {
            for j in 0..2 {
                assert!((c1[(i, j)] - c2[(i, j)]).abs() < 1e-8, "cov ({i},{j})");
            }
        }
        back.unmerge_gaussian(&g, n);
        assert_eq!(back.n(), 0.0);
        assert!(back.sum.as_slice().iter().all(|v| v.abs() < 1e-12));
    }

    /// The statistics of `g` over `n` records built as a temporary: the
    /// reference the in-place folds must match bit for bit.
    fn from_gaussian(g: &Gaussian, n: f64) -> SuffStats {
        let mu = g.mean();
        let mut scatter = g.cov().scaled(n);
        scatter.rank1_update(n, mu);
        SuffStats { n, sum: mu.scaled(n), scatter }
    }

    #[test]
    fn gaussian_folds_are_bit_identical_to_merging_the_temporary() {
        use crate::gaussian::tests::random_gaussian;
        use cludistream_rng::{check, Rng};
        let same = |got: &SuffStats, want: &SuffStats, what: &str| {
            let flat = |s: &SuffStats| {
                let mut v = vec![s.n];
                v.extend_from_slice(s.sum.as_slice());
                v.extend_from_slice(s.scatter.as_slice());
                v
            };
            for (i, (g, w)) in flat(got).into_iter().zip(flat(want)).enumerate() {
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "{what}, element {i}: {g:e} vs {w:e}"
                );
            }
        };
        check::cases("suffstats_gaussian_fold_bit_identity", 32, |rng| {
            for d in [1, 2, 4, 9, 16, 17, 24] {
                // A non-empty running sum, as a group's is.
                let mut running = from_gaussian(&random_gaussian(rng, d), 1e3);
                let mut reference = running.clone();
                for _ in 0..4 {
                    let g = random_gaussian(rng, d);
                    let mut n = 10f64.powf(rng.gen_range(-9.0..9.0));
                    match rng.gen_range(0..8u32) {
                        // The negative difference a down-weighting
                        // `rescale` folds in.
                        0..=2 => n = -n,
                        3 => n = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)],
                        _ => {}
                    }
                    let temporary = from_gaussian(&g, n);
                    if rng.gen_bool(0.5) {
                        running.merge_gaussian(&g, n);
                        reference.merge(&temporary);
                    } else {
                        running.unmerge_gaussian(&g, n);
                        reference.n -= temporary.n;
                        reference.sum -= &temporary.sum;
                        reference.scatter -= &temporary.scatter;
                    }
                    same(&running, &reference, &format!("d {d}, n {n:e}"));
                }
            }
        });
    }

    #[test]
    fn empty_stats_error() {
        let s = SuffStats::new(2);
        assert!(s.is_empty());
        assert!(s.mean().is_err());
        assert!(s.cov().is_err());
        assert!(s.to_gaussian().is_err());
    }

    #[test]
    fn scaled_preserves_moments() {
        let s = stats_of(&[&[1.0, 2.0], &[3.0, 0.0]]);
        let half = s.scaled(0.5);
        assert_eq!(half.n(), 1.0);
        // Mean and covariance are weight-invariant.
        assert!((half.mean().unwrap()[0] - s.mean().unwrap()[0]).abs() < 1e-12);
        assert!((half.cov().unwrap()[(0, 1)] - s.cov().unwrap()[(0, 1)]).abs() < 1e-12);
        // Scaling by halves and merging reproduces the original.
        let mut back = s.scaled(0.5);
        back.merge(&half);
        assert!((back.n() - s.n()).abs() < 1e-12);
    }

    #[test]
    fn single_point_cov_is_degenerate_but_gaussian_recovers() {
        let s = stats_of(&[&[1.0, 2.0]]);
        let cov = s.cov().unwrap();
        assert!(cov.frobenius_norm() < 1e-12);
        // to_gaussian must ridge it rather than fail.
        let (g, _) = s.to_gaussian().unwrap();
        assert!(g.ridge() > 0.0);
    }
}
