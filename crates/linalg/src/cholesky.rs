use crate::{LinalgError, Matrix, Result, Vector};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix, with the lower factor `L` stored densely.
///
/// This is the workhorse of the Gaussian machinery: it provides
/// `log|Σ|` (sum of log pivots, numerically far safer than forming the
/// determinant), linear solves for the Mahalanobis quadratic form
/// `(x-μ)ᵀ Σ⁻¹ (x-μ)`, and the explicit inverse needed by the paper's
/// merge/split criteria `(Σ_i⁻¹ + Σ_j⁻¹)`.
///
/// `Default` is the factor of the empty matrix: a buffer for
/// [`Self::refactor`], which reuses it across factorizations.
#[derive(Debug, Clone, Default)]
pub struct Cholesky {
    /// Lower-triangular factor (entries above the diagonal are zero).
    l: Matrix,
}

impl Cholesky {
    /// Factorizes `a`. Returns [`LinalgError::NotPositiveDefinite`] when a
    /// pivot is non-positive (the matrix is not SPD, typically a degenerate
    /// covariance), and [`LinalgError::Empty`] for 0x0 input.
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut c = Cholesky::default();
        c.refactor(a)?;
        Ok(c)
    }

    /// [`Self::new`] into this factor's buffer, which is reused when it is
    /// large enough. On an error the factor holds no factorization.
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky",
                left: (a.rows(), a.cols()),
                right: (a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let l = &mut self.l;
        l.resize_zeroed(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite(i));
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(())
    }

    /// [`cholesky_regularized`] into this factor's buffer: returns the
    /// ridge that was finally applied. Allocates nothing when `a` factors
    /// without a ridge into a buffer that is large enough; the ridge
    /// ladder allocates one copy of `a`.
    pub fn refactor_regularized(
        &mut self,
        a: &Matrix,
        base_ridge: f64,
        max_tries: usize,
    ) -> Result<f64> {
        match self.refactor(a) {
            Ok(()) => return Ok(0.0),
            Err(LinalgError::NotPositiveDefinite(_)) => {}
            Err(e) => return Err(e),
        }
        // Scale the ridge to the matrix magnitude so tiny covariances get tiny
        // ridges.
        let scale = (a.trace().abs() / a.rows().max(1) as f64).max(1e-12);
        let mut ridge = base_ridge * scale;
        let mut b = a.clone();
        for _ in 0..max_tries {
            b.as_mut_slice().copy_from_slice(a.as_slice());
            b.add_ridge(ridge);
            if self.refactor(&b).is_ok() {
                return Ok(ridge);
            }
            ridge *= 10.0;
        }
        Err(LinalgError::NoConvergence { iterations: max_tries })
    }

    /// Dimension of the factorized matrix.
    pub(crate) fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// `log |A| = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        2.0 * (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>()
    }

    /// Solves `L y = b` (forward substitution).
    pub(crate) fn solve_lower(&self, b: &Vector) -> Vector {
        let n = self.dim();
        assert_eq!(b.dim(), n, "solve_lower: dimension mismatch");
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        y
    }

    /// Solves `L Y = B` for a block of right-hand sides stored
    /// dimension-major: `rhs[i * count + b]` holds element `i` of column
    /// `b`, and the solve happens in place.
    ///
    /// Per column the operation order — subtract `L[i,k]·y[k]` in
    /// ascending `k`, then divide by `L[i,i]` — matches
    /// `solve_lower` exactly, so every column's result is
    /// bit-identical to the scalar solve. This is the kernel behind the
    /// batched Gaussian density evaluation: one pass over `L` serves the
    /// whole block instead of one pass per record.
    #[inline(always)]
    pub fn solve_lower_batch(&self, rhs: &mut [f64], count: usize) {
        let n = self.dim();
        assert_eq!(rhs.len(), n * count, "solve_lower_batch: buffer length mismatch");
        for i in 0..n {
            let (solved, rest) = rhs.split_at_mut(i * count);
            let yi = &mut rest[..count];
            for k in 0..i {
                let lik = self.l[(i, k)];
                let yk = &solved[k * count..(k + 1) * count];
                for (y, &v) in yi.iter_mut().zip(yk) {
                    *y -= lik * v;
                }
            }
            let lii = self.l[(i, i)];
            for y in yi.iter_mut() {
                *y /= lii;
            }
        }
    }

    /// Solves `Lᵀ x = y` (backward substitution).
    pub(crate) fn solve_upper(&self, y: &Vector) -> Vector {
        let n = self.dim();
        assert_eq!(y.dim(), n, "solve_upper: dimension mismatch");
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &Vector) -> Vector {
        self.solve_upper(&self.solve_lower(b))
    }

    /// Solves `A x = b` in place: `x` holds `b` on entry and the solution
    /// on return, and nothing is allocated.
    ///
    /// Operand for operand what [`Self::solve`] does, so the result is
    /// bit-identical to it. Forward substitution, `i` ascending: start
    /// from `b[i]`, subtract `L[i,k]·y[k]` in ascending `k < i`, divide by
    /// `L[i,i]` — `x[k]` for `k < i` already holds `y[k]` and `x[i]` still
    /// holds `b[i]`, exactly what `solve_lower` reads from its two
    /// vectors. Backward substitution, `i` descending: start from `y[i]`,
    /// subtract `L[k,i]·x[k]` in ascending `k > i`, divide by `L[i,i]` —
    /// `x[k]` for `k > i` is already solved and `x[i]` still holds `y[i]`,
    /// as in `solve_upper`.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "solve_in_place: dimension mismatch");
        for i in 0..n {
            let row = self.l.row(i);
            let mut sum = x[i];
            for (lik, yk) in row[..i].iter().zip(&x[..i]) {
                sum -= lik * yk;
            }
            x[i] = sum / row[i];
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for (k, xk) in x.iter().enumerate().skip(i + 1) {
                sum -= self.l[(k, i)] * xk;
            }
            x[i] = sum / self.l[(i, i)];
        }
    }

    /// Explicit inverse `A⁻¹` (needed for the paper's `Σ_i⁻¹ + Σ_j⁻¹`
    /// merge/split criteria). The result is symmetrized to kill rounding
    /// noise.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = Vector::zeros(n);
            e[j] = 1.0;
            let col = self.solve(&e);
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        inv.symmetrize();
        inv
    }

    /// Squared Mahalanobis distance `(x-μ)ᵀ A⁻¹ (x-μ)` computed via a single
    /// forward substitution — no explicit inverse.
    pub fn mahalanobis_sq(&self, x: &Vector, mu: &Vector) -> f64 {
        let diff = x - mu;
        let y = self.solve_lower(&diff);
        y.dot(&y)
    }

    /// Applies `L` to a vector: `L z`. With `z ~ N(0, I)` this produces a
    /// sample direction for `N(0, A)` — used by the data generators.
    pub fn apply_l(&self, z: &Vector) -> Vector {
        self.l.matvec(z)
    }
}

/// Factorizes `a`, retrying with geometrically increasing ridge terms when
/// the matrix is not positive definite. Returns the factorization together
/// with the ridge that was finally applied (0.0 when none was needed).
///
/// EM covariance estimates collapse when a component grabs too few points;
/// regularized factorization keeps the algorithm live, matching the paper's
/// footnote that zero-variance attributes are excluded from consideration.
pub fn cholesky_regularized(a: &Matrix, base_ridge: f64, max_tries: usize) -> Result<(Cholesky, f64)> {
    let mut c = Cholesky::default();
    let ridge = c.refactor_regularized(a, base_ridge, max_tries)?;
    Ok((c, ridge))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]])
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let r = c.l().matmul(&c.l().transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn factor_is_lower_triangular() {
        let c = Cholesky::new(&spd3()).unwrap();
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_eq!(c.l()[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn log_det_matches_lu() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let lu_det = a.det().unwrap();
        assert!((c.log_det() - lu_det.ln()).abs() < 1e-10);
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let b = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let x = c.solve(&b);
        let back = a.matvec(&x);
        for i in 0..3 {
            assert!((back[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_is_inverse() {
        let a = spd3();
        let inv = Cholesky::new(&a).unwrap().inverse();
        let prod = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn mahalanobis_identity_is_euclidean() {
        let c = Cholesky::new(&Matrix::identity(2)).unwrap();
        let x = Vector::from_slice(&[3.0, 4.0]);
        let mu = Vector::zeros(2);
        assert!((c.mahalanobis_sq(&x, &mu) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn mahalanobis_matches_explicit_form() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let x = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let mu = Vector::from_slice(&[0.5, 1.5, 2.0]);
        let diff = &x - &mu;
        let explicit = diff.dot(&c.inverse().matvec(&diff));
        assert!((c.mahalanobis_sq(&x, &mu) - explicit).abs() < 1e-10);
    }

    #[test]
    fn solve_lower_batch_bit_identical_to_scalar() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let cols = [
            Vector::from_slice(&[1.0, -2.0, 0.5]),
            Vector::from_slice(&[0.0, 3.25, -7.5]),
            Vector::from_slice(&[-1e-9, 1e9, 2.0]),
            Vector::from_slice(&[4.0, 4.0, 4.0]),
        ];
        // Dimension-major pack: rhs[i * count + b] = cols[b][i].
        let count = cols.len();
        let mut rhs = vec![0.0; 3 * count];
        for (b, col) in cols.iter().enumerate() {
            for i in 0..3 {
                rhs[i * count + b] = col[i];
            }
        }
        c.solve_lower_batch(&mut rhs, count);
        for (b, col) in cols.iter().enumerate() {
            let scalar = c.solve_lower(col);
            for i in 0..3 {
                assert_eq!(
                    rhs[i * count + b].to_bits(),
                    scalar[i].to_bits(),
                    "column {b} element {i}"
                );
            }
        }
    }

    #[test]
    fn solve_lower_batch_single_column_matches() {
        let c = Cholesky::new(&spd3()).unwrap();
        let b = Vector::from_slice(&[2.0, -1.0, 0.25]);
        let mut rhs = b.as_slice().to_vec();
        c.solve_lower_batch(&mut rhs, 1);
        let scalar = c.solve_lower(&b);
        assert_eq!(rhs, scalar.as_slice());
    }

    #[test]
    fn solve_in_place_is_bit_identical_to_solve() {
        use cludistream_rng::{check, Rng};
        check::cases("solve_in_place_is_bit_identical_to_solve", 32, |rng| {
            for n in [1, 2, 4, 9, 16, 17, 24] {
                // Full (`A Aᵀ + I`) or exactly diagonal, at a scale in
                // 1e-8 … 1e8.
                let mut m = if rng.gen_bool(0.5) {
                    let entries = (0..n * n).map(|_| rng.gen_range(-5.0..5.0)).collect();
                    let a = Matrix::from_vec(n, n, entries);
                    let mut m = a.matmul(&a.transpose());
                    m.add_ridge(1.0);
                    m
                } else {
                    Matrix::from_diag(&(0..n).map(|_| rng.gen_range(0.1..5.0)).collect::<Vec<_>>())
                };
                let scale = 10f64.powi(rng.gen_range(-8..=8));
                m.scale(scale * scale);
                let chol = Cholesky::new(&m).unwrap();
                let mut b: Vector = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
                b.scale(10f64.powi(rng.gen_range(-8..=8)));
                if rng.gen_bool(0.25) {
                    b[rng.gen_range(0..n)] =
                        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
                }
                let reference = chol.solve(&b);
                let mut x = b.as_slice().to_vec();
                chol.solve_in_place(&mut x);
                for (i, (got, want)) in x.iter().zip(reference.iter()).enumerate() {
                    // Same bits; for the non-finite inputs, the same class.
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "n {n} [{i}]: {got:e} vs {want:e}"
                    );
                }
            }
        });
    }

    #[test]
    fn non_spd_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(Cholesky::new(&a), Err(LinalgError::NotPositiveDefinite(_))));
    }

    #[test]
    fn zero_matrix_rejected() {
        assert!(Cholesky::new(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(Cholesky::new(&Matrix::zeros(0, 0)), Err(LinalgError::Empty)));
    }

    #[test]
    fn regularized_recovers_degenerate() {
        let mut a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]); // rank 1
        a.symmetrize();
        let (c, ridge) = cholesky_regularized(&a, 1e-9, 12).unwrap();
        assert!(ridge > 0.0);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn regularized_noop_on_spd() {
        let (c, ridge) = cholesky_regularized(&spd3(), 1e-9, 12).unwrap();
        assert_eq!(ridge, 0.0);
        assert_eq!(c.dim(), 3);
    }

    #[test]
    fn apply_l_shapes_samples() {
        let a = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]);
        let c = Cholesky::new(&a).unwrap();
        let z = Vector::from_slice(&[1.0, 1.0]);
        let out = c.apply_l(&z);
        assert!((out[0] - 2.0).abs() < 1e-12);
        assert!((out[1] - 3.0).abs() < 1e-12);
    }
}
