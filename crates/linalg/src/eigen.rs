use crate::{LinalgError, Matrix, Result};

/// Result of a symmetric eigendecomposition `A = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, ordered to match `values`.
    pub vectors: Matrix,
}

impl SymEigen {
    /// Reconstructs the original matrix (for tests and validation).
    pub fn reconstruct(&self) -> Matrix {
        let v = &self.vectors;
        let d = Matrix::from_diag(&self.values);
        v.matmul(&d).matmul(&v.transpose())
    }

    /// True when all eigenvalues exceed `tol` — i.e. the matrix is safely
    /// positive definite.
    pub fn is_positive_definite(&self, tol: f64) -> bool {
        self.values.iter().all(|&l| l > tol)
    }
}

/// Cyclic Jacobi eigendecomposition for symmetric matrices.
///
/// Quadratically convergent and unconditionally stable for symmetric input;
/// the matrices here are small (covariances, d ≤ ~40), so Jacobi's O(d³) per
/// sweep is irrelevant. Used for covariance conditioning diagnostics and for
/// generating random SPD matrices in the data generators.
pub fn jacobi_eigen(a: &Matrix, max_sweeps: usize) -> Result<SymEigen> {
    if !a.is_square() {
        return Err(LinalgError::DimensionMismatch {
            op: "jacobi_eigen",
            left: (a.rows(), a.cols()),
            right: (a.rows(), a.cols()),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    let mut m = a.clone();
    m.symmetrize();
    let mut v = Matrix::identity(n);

    let off_diag_norm = |m: &Matrix| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                s += m[(i, j)] * m[(i, j)];
            }
        }
        s.sqrt()
    };

    let frob = m.frobenius_norm().max(f64::MIN_POSITIVE);
    let tol = 1e-14 * frob;
    let mut converged = false;
    for _sweep in 0..max_sweeps {
        if off_diag_norm(&m) <= tol {
            converged = true;
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol / (n * n) as f64 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Standard Jacobi rotation angle.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Rotate rows/cols p and q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    if !converged && off_diag_norm(&m) > tol {
        return Err(LinalgError::NoConvergence { iterations: max_sweeps });
    }

    // Sort descending by eigenvalue, permuting eigenvector columns.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(j, j)].partial_cmp(&m[(i, i)]).expect("NaN eigenvalue"));
    let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_col)] = v[(r, old_col)];
        }
    }
    Ok(SymEigen { values, vectors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let e = jacobi_eigen(&a, 50).unwrap();
        assert!(approx_eq(e.values[0], 3.0, 1e-12));
        assert!(approx_eq(e.values[1], 2.0, 1e-12));
        assert!(approx_eq(e.values[2], 1.0, 1e-12));
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = jacobi_eigen(&a, 50).unwrap();
        assert!(approx_eq(e.values[0], 3.0, 1e-12));
        assert!(approx_eq(e.values[1], 1.0, 1e-12));
    }

    #[test]
    fn reconstruction_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]);
        let e = jacobi_eigen(&a, 100).unwrap();
        let r = e.reconstruct();
        for i in 0..3 {
            for j in 0..3 {
                assert!(approx_eq(r[(i, j)], a[(i, j)], 1e-9), "({i},{j}): {} vs {}", r[(i, j)], a[(i, j)]);
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[5.0, 2.0], &[2.0, 1.0]]);
        let e = jacobi_eigen(&a, 100).unwrap();
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn detects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigs 3, -1
        let e = jacobi_eigen(&a, 100).unwrap();
        assert!(!e.is_positive_definite(0.0));
    }

    #[test]
    fn positive_definite_above_tolerance() {
        let a = Matrix::from_diag(&[4.0, 1.0]);
        let e = jacobi_eigen(&a, 50).unwrap();
        assert!(e.is_positive_definite(0.5));
    }

    #[test]
    fn trace_preserved() {
        let a = Matrix::from_rows(&[&[2.0, 0.3, 0.1], &[0.3, 1.0, 0.0], &[0.1, 0.0, 0.5]]);
        let e = jacobi_eigen(&a, 100).unwrap();
        let sum: f64 = e.values.iter().sum();
        assert!(approx_eq(sum, a.trace(), 1e-10));
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(jacobi_eigen(&Matrix::zeros(2, 3), 10).is_err());
        assert!(jacobi_eigen(&Matrix::zeros(0, 0), 10).is_err());
    }

    #[test]
    fn identity_eigenvalues_all_one() {
        let e = jacobi_eigen(&Matrix::identity(4), 10).unwrap();
        for &l in &e.values {
            assert!(approx_eq(l, 1.0, 1e-12));
        }
    }
}
