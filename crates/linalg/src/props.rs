//! Property-based tests over the dense kernels, driven by the seeded case
//! harness in `cludistream_rng::check`. Kept in a separate module
//! (compiled only under test) so each numerical routine's file stays
//! focused on example-based tests.

#![cfg(test)]

use crate::{Cholesky, Lu, Matrix, Vector};
use cludistream_rng::{check, Rng, StdRng};

/// An arbitrary matrix with entries in ±5.
fn matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let v = (0..rows * cols).map(|_| rng.gen_range(-5.0..5.0)).collect();
    Matrix::from_vec(rows, cols, v)
}

/// A well-conditioned SPD matrix `A Aᵀ + I`.
fn spd(rng: &mut StdRng, n: usize) -> Matrix {
    let a = matrix(rng, n, n);
    let mut m = a.matmul(&a.transpose());
    m.add_ridge(1.0);
    m
}

fn vector(rng: &mut StdRng, n: usize) -> Vector {
    (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect()
}

#[test]
fn transpose_is_involution() {
    check::cases("transpose_is_involution", 64, |rng| {
        let a = matrix(rng, 3, 4);
        assert_eq!(a.transpose().transpose(), a);
    });
}

#[test]
fn matmul_transpose_identity() {
    check::cases("matmul_transpose_identity", 64, |rng| {
        // (AB)ᵀ = Bᵀ Aᵀ, exactly in floating point (same operations in
        // a different traversal order would not be exact, but entries are
        // computed as identical dot products up to addition order; use a
        // tolerance).
        let a = matrix(rng, 2, 3);
        let b = matrix(rng, 3, 2);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for i in 0..left.rows() {
            for j in 0..left.cols() {
                assert!((left[(i, j)] - right[(i, j)]).abs() < 1e-9);
            }
        }
    });
}

#[test]
fn matmul_distributes_over_addition() {
    check::cases("matmul_distributes_over_addition", 64, |rng| {
        let (a, b, c) = (matrix(rng, 2, 2), matrix(rng, 2, 2), matrix(rng, 2, 2));
        let left = a.matmul(&(&b + &c));
        let right = &a.matmul(&b) + &a.matmul(&c);
        for i in 0..2 {
            for j in 0..2 {
                assert!((left[(i, j)] - right[(i, j)]).abs() < 1e-9);
            }
        }
    });
}

#[test]
fn cholesky_always_succeeds_on_constructed_spd() {
    check::cases("cholesky_always_succeeds_on_constructed_spd", 64, |rng| {
        let m = spd(rng, 4);
        let chol = Cholesky::new(&m);
        assert!(chol.is_ok());
        let l = chol.unwrap().l().clone();
        let r = l.matmul(&l.transpose());
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (r[(i, j)] - m[(i, j)]).abs() < 1e-6 * (1.0 + m[(i, j)].abs()),
                    "({}, {}): {} vs {}",
                    i,
                    j,
                    r[(i, j)],
                    m[(i, j)]
                );
            }
        }
    });
}

#[test]
fn lu_and_cholesky_solves_agree_on_spd() {
    check::cases("lu_and_cholesky_solves_agree_on_spd", 64, |rng| {
        let m = spd(rng, 3);
        let b = vector(rng, 3);
        let x1 = Cholesky::new(&m).expect("SPD").solve(&b);
        let x2 = Lu::new(&m).expect("non-singular").solve(&b);
        for i in 0..3 {
            assert!((x1[i] - x2[i]).abs() < 1e-6 * (1.0 + x1[i].abs()));
        }
    });
}

#[test]
fn mahalanobis_positive_definite() {
    check::cases("mahalanobis_positive_definite", 64, |rng| {
        let m = spd(rng, 3);
        let x = vector(rng, 3);
        let mu = vector(rng, 3);
        let chol = Cholesky::new(&m).expect("SPD");
        let d2 = chol.mahalanobis_sq(&x, &mu);
        assert!(d2 >= 0.0);
        // Zero exactly at the mean.
        assert!(chol.mahalanobis_sq(&mu, &mu).abs() < 1e-20);
    });
}

#[test]
fn rank1_update_matches_outer_product() {
    check::cases("rank1_update_matches_outer_product", 64, |rng| {
        let x = vector(rng, 3);
        let alpha = rng.gen_range(-3.0..3.0);
        let mut m = Matrix::zeros(3, 3);
        m.rank1_update(alpha, &x);
        for i in 0..3 {
            for j in 0..3 {
                assert!((m[(i, j)] - alpha * x[i] * x[j]).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn dot_is_symmetric_and_cauchy_schwarz() {
    check::cases("dot_is_symmetric_and_cauchy_schwarz", 64, |rng| {
        let a = vector(rng, 4);
        let b = vector(rng, 4);
        assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-12);
        assert!(a.dot(&b).powi(2) <= a.dot(&a) * b.dot(&b) + 1e-9);
    });
}
