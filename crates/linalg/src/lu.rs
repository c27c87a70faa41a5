use crate::{LinalgError, Matrix, Result, Vector};

/// LU factorization with partial pivoting: `P A = L U`.
///
/// Used for general (not necessarily SPD) square systems: determinants of
/// arbitrary matrices and the occasional inverse of a sum of precision
/// matrices before it has been symmetrized. For covariance work prefer
/// [`crate::Cholesky`].
#[derive(Debug, Clone)]
pub(crate) struct Lu {
    /// Packed L (unit lower, below diagonal) and U (upper, including
    /// diagonal).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0).
    sign: f64,
}

impl Lu {
    /// Factorizes `a`. Returns [`LinalgError::Singular`] when a pivot is
    /// exactly zero or not finite.
    pub(crate) fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                op: "lu",
                left: (a.rows(), a.cols()),
                right: (a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            // Partial pivot: largest magnitude in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val == 0.0 || !pivot_val.is_finite() {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= factor * ukj;
                }
            }
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Dimension of the factorized matrix.
    pub(crate) fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Determinant: product of U's diagonal times the permutation sign.
    pub(crate) fn det(&self) -> f64 {
        let mut det = self.sign;
        for i in 0..self.dim() {
            det *= self.lu[(i, i)];
        }
        det
    }

    /// Solves `A x = b`.
    pub(crate) fn solve(&self, b: &Vector) -> Vector {
        let n = self.dim();
        assert_eq!(b.dim(), n, "lu solve: dimension mismatch");
        // Apply permutation, then forward substitution with unit-lower L.
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut sum = b[self.perm[i]];
            for k in 0..i {
                sum -= self.lu[(i, k)] * y[k];
            }
            y[i] = sum;
        }
        // Backward substitution with U.
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.lu[(i, k)] * x[k];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        x
    }

    /// Explicit inverse.
    pub(crate) fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = Vector::zeros(n);
            e[j] = 1.0;
            let col = self.solve(&e);
            if !col.is_finite() {
                return Err(LinalgError::Singular);
            }
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_matches_known() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        assert!((Lu::new(&a).unwrap().det() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn det_with_pivoting() {
        // First pivot is zero, forcing a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((Lu::new(&a).unwrap().det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_recovers() {
        let a = Matrix::from_rows(&[&[3.0, 1.0, 2.0], &[1.0, 4.0, 0.0], &[2.0, 0.0, 5.0]]);
        let lu = Lu::new(&a).unwrap();
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let x = lu.solve(&b);
        let back = a.matvec(&x);
        for i in 0..3 {
            assert!((back[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 1.0, 3.0], &[4.0, 0.0, 1.0]]);
        let inv = Lu::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular)));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(Lu::new(&Matrix::zeros(0, 0)), Err(LinalgError::Empty)));
    }

    #[test]
    fn non_square_rejected() {
        assert!(Lu::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn permutation_sign_tracked_over_multiple_swaps() {
        // Rotating permutation matrix of size 3 has determinant +1.
        let a = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[1.0, 0.0, 0.0]]);
        assert!((Lu::new(&a).unwrap().det() - 1.0).abs() < 1e-12);
    }
}
