use crate::{LinalgError, Result, Vector};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub, SubAssign};

/// A dense, row-major `f64` matrix.
///
/// Covariance matrices, Cholesky factors, and scatter (sum of outer product)
/// accumulators are all `Matrix`. Structural mistakes (mismatched dimensions
/// in arithmetic) panic; *numerical* failures (singularity, loss of positive
/// definiteness) surface as [`LinalgError`] from the factorization types.
/// `Default` is the empty 0 × 0 matrix, which allocates nothing: a buffer
/// for the `_into` forms to fill.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Creates a matrix from row slices. Panics when rows have unequal
    /// lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Creates a matrix from a flat row-major buffer. Panics when
    /// `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True for square matrices.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Flat row-major view of the elements.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies the main diagonal into a `Vec`.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Sum of the diagonal entries.
    pub fn trace(&self) -> f64 {
        self.diag().iter().sum()
    }

    /// Reshapes to `rows x cols` of zeros, reusing the allocation when it
    /// is large enough.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Self::transpose`] into `out`, which is reshaped to fit.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize_zeroed(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
    }

    /// Matrix-matrix product. Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Self::matmul`] into `out`, which is reshaped to fit. Each
    /// `out[i,j]` sums `a_ik·b_kj` from `0.0` in ascending `k`, skipping the
    /// `k` whose `a_ik` is zero.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize_zeroed(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += aik * r;
                }
            }
        }
    }

    /// Matrix-vector product. Panics on dimension mismatch.
    pub fn matvec(&self, v: &Vector) -> Vector {
        assert_eq!(self.cols, v.dim(), "matvec: dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v.iter()).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// `out = self + alpha * (x xᵀ)`: symmetric rank-1 update in place.
    /// Used by the M-step scatter accumulation. Panics unless square and
    /// matching `x`.
    pub fn rank1_update(&mut self, alpha: f64, x: &Vector) {
        self.rank1_update_slice(alpha, x.as_slice());
    }

    /// [`Self::rank1_update`] over a raw slice — the scatter-accumulation
    /// primitive of the SoA batch kernels, which address records as rows
    /// of a flat buffer. Identical arithmetic (and arithmetic order) to
    /// the `Vector` form.
    pub fn rank1_update_slice(&mut self, alpha: f64, x: &[f64]) {
        assert!(self.is_square(), "rank1_update: matrix must be square");
        assert_eq!(self.rows, x.len(), "rank1_update: dimension mismatch");
        for i in 0..self.rows {
            let xi = alpha * x[i];
            let row = self.row_mut(i);
            for (j, r) in row.iter_mut().enumerate() {
                *r += xi * x[j];
            }
        }
    }

    /// Scales all entries in place.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }

    /// Adds `alpha` to every diagonal entry (ridge regularization).
    pub fn add_ridge(&mut self, alpha: f64) {
        assert!(self.is_square(), "add_ridge: matrix must be square");
        for i in 0..self.rows {
            self[(i, i)] += alpha;
        }
    }

    /// Forces exact symmetry by averaging with the transpose in place.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize: matrix must be square");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Inverse via LU with partial pivoting. Prefer [`crate::Cholesky`] for
    /// SPD matrices.
    pub fn inverse(&self) -> Result<Matrix> {
        if !self.is_square() {
            return Err(LinalgError::DimensionMismatch {
                op: "inverse",
                left: (self.rows, self.cols),
                right: (self.rows, self.cols),
            });
        }
        crate::Lu::new(self)?.inverse()
    }

    /// Determinant via LU with partial pivoting.
    pub fn det(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::DimensionMismatch {
                op: "det",
                left: (self.rows, self.cols),
                right: (self.rows, self.cols),
            });
        }
        Ok(crate::Lu::new(self).map(|lu| lu.det()).unwrap_or(0.0))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
    }

    #[test]
    fn construction_and_indexing() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.diag(), vec![1.0, 4.0]);
        assert_eq!(m.trace(), 5.0);
    }

    #[test]
    fn identity_and_diag() {
        let i = Matrix::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let d = Matrix::from_diag(&[2.0, 3.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = sample();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = sample();
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn matvec_known() {
        let a = sample();
        let v = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(a.matvec(&v).as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn rank1_update_adds_scaled_outer_product() {
        let x = Vector::from_slice(&[1.0, 2.0]);
        let mut m = Matrix::zeros(2, 2);
        m.rank1_update(2.0, &x);
        assert_eq!(m, Matrix::from_rows(&[&[2.0, 4.0], &[4.0, 8.0]]));
    }

    #[test]
    fn symmetrize_averages_off_diagonals() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn ridge_adds_to_diagonal() {
        let mut m = Matrix::zeros(2, 2);
        m.add_ridge(0.5);
        assert_eq!(m.diag(), vec![0.5, 0.5]);
    }

    #[test]
    fn det_and_inverse() {
        let m = sample();
        let det = m.det().unwrap();
        assert!((det + 2.0).abs() < 1e-12);
        let inv = m.inverse().unwrap();
        let prod = m.matmul(&inv);
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn singular_det_is_zero() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(m.det().unwrap(), 0.0);
        assert!(m.inverse().is_err());
    }

    #[test]
    fn arithmetic_ops() {
        let a = sample();
        let b = Matrix::identity(2);
        assert_eq!((&a + &b)[(0, 0)], 2.0);
        assert_eq!((&a - &b)[(1, 1)], 3.0);
        assert_eq!((&a * 2.0)[(1, 0)], 6.0);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(m.frobenius_norm(), 5.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    fn non_square_det_errors() {
        let m = Matrix::zeros(2, 3);
        assert!(m.det().is_err());
        assert!(m.inverse().is_err());
    }
}
