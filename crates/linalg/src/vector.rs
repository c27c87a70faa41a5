use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

/// A dense, heap-allocated `f64` vector.
///
/// `Vector` is the record type throughout the workspace: a data stream is a
/// sequence of `Vector`s, a Gaussian mean is a `Vector`. Arithmetic panics on
/// dimension mismatch (mismatches are programming errors, not data errors).
/// `Default` is the empty vector, which allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `dim` zeros.
    pub fn zeros(dim: usize) -> Self {
        Vector { data: vec![0.0; dim] }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(dim: usize, value: f64) -> Self {
        Vector { data: vec![value; dim] }
    }

    /// Creates a vector from a slice.
    pub fn from_slice(s: &[f64]) -> Self {
        Vector { data: s.to_vec() }
    }

    /// Creates a vector from an owned `Vec` without copying.
    pub fn from_vec(v: Vec<f64>) -> Self {
        Vector { data: v }
    }

    /// Overwrites with a copy of `s`, reusing the allocation when it is
    /// large enough.
    pub fn copy_from(&mut self, s: &[f64]) {
        self.data.clear();
        self.data.extend_from_slice(s);
    }

    /// Number of elements.
    pub fn dim(&self) -> usize {
        self.data.len()
    }

    /// Borrow the elements as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow the elements mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterator over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Dot product. Panics on dimension mismatch.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dot: dimension mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Squared Euclidean distance to `other`.
    pub fn dist_sq(&self, other: &Vector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dist_sq: dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// `self += alpha * other` (BLAS axpy). Panics on dimension mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        self.axpy_slice(alpha, &other.data);
    }

    /// [`Self::axpy`] over a raw slice — the accumulation primitive of the
    /// SoA batch kernels, which address records as rows of a flat buffer.
    /// Identical arithmetic (and arithmetic order) to the `Vector` form.
    pub fn axpy_slice(&mut self, alpha: f64, other: &[f64]) {
        assert_eq!(self.dim(), other.len(), "axpy: dimension mismatch");
        for (a, b) in self.data.iter_mut().zip(other) {
            *a += alpha * b;
        }
    }

    /// Scales every element in place.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, alpha: f64) -> Vector {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.dim(), rhs.dim(), "add: dimension mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.dim(), rhs.dim(), "sub: dimension mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl MulAssign<f64> for Vector {
    fn mul_assign(&mut self, rhs: f64) {
        self.scale(rhs);
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Vector { data: iter.into_iter().collect() }
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector { data: v }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Vector::filled(2, 1.5).as_slice(), &[1.5, 1.5]);
        assert_eq!(Vector::from_slice(&[1.0]).dim(), 1);
    }

    #[test]
    fn dot_and_distance() {
        let a = Vector::from_slice(&[3.0, 4.0]);
        let b = Vector::from_slice(&[1.0, 2.0]);
        assert_eq!(a.dot(&b), 11.0);
        assert_eq!(a.dist_sq(&b), 8.0);
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Vector::from_slice(&[1.0, 1.0]);
        let b = Vector::from_slice(&[2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn finite_detection() {
        assert!(Vector::from_slice(&[1.0, 2.0]).is_finite());
        assert!(!Vector::from_slice(&[1.0, f64::NAN]).is_finite());
        assert!(!Vector::from_slice(&[f64::INFINITY]).is_finite());
    }

    #[test]
    #[should_panic(expected = "dot: dimension mismatch")]
    fn dot_mismatch_panics() {
        let _ = Vector::zeros(2).dot(&Vector::zeros(3));
    }

    #[test]
    fn display_formats() {
        let a = Vector::from_slice(&[1.0, 2.5]);
        assert_eq!(format!("{a}"), "[1.000000, 2.500000]");
    }

    #[test]
    fn from_iterator() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }
}
