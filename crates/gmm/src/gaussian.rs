use crate::batch::DensityScratch;
use crate::{GmmError, Result};
use cludistream_linalg::{Cholesky, Matrix, Vector};
use cludistream_rng::{standard_normal, Rng};
use std::fmt;
use std::sync::Arc;

/// Natural log of 2π, used by the Gaussian normalizer.
pub(crate) const LN_2PI: f64 = 1.8378770664093453;

/// What [`Gaussian::dist_lower_bound`] needs of one side: `1/‖L‖²_F` of a
/// Cholesky factor that passed the conditioning certificate. Only
/// [`Gaussian::dist_bound_factor`] makes one.
#[derive(Debug, Clone, Copy)]
pub struct DistBoundFactor(f64);

/// A d-dimensional Gaussian `N(μ, Σ)` with a cached Cholesky factorization.
///
/// This is the component model of the paper's mixtures (Sec. 3.1):
///
/// ```text
/// p(x|j) = (2π)^(-d/2) |Σ|^(-1/2) exp(-½ (x-μ)ᵀ Σ⁻¹ (x-μ))
/// ```
///
/// Construction factorizes Σ once (ridge-regularizing when the estimate is
/// degenerate) so that density evaluation is two triangular solves, and
/// `log|Σ|` never materializes the determinant.
///
/// A `Gaussian` is an immutable shared value: a handle to one parameter
/// block that [`Gaussian::new`] builds and nothing changes afterwards.
/// `clone()` is one atomic reference-count increment and allocates
/// nothing, so the coordinator's member, aggregate, merged-aggregate and
/// snapshot copies of one component are one block. The handle is `Send` and
/// `Sync`, which is what lets snapshot readers score with blocks the writer
/// still holds. The block has the natural alignment of its fields: giving
/// the reference counts a cache line of their own sends every block through
/// the allocator's over-aligned path, and measured slower on both the
/// writer and the readers.
#[derive(Clone)]
pub struct Gaussian {
    params: Arc<Params>,
}

/// The parameters one or more [`Gaussian`] handles share, and the buffers
/// a [`GaussianScratch`] rebuilds in place.
#[derive(Debug, Clone, Default)]
struct Params {
    mean: Vector,
    cov: Matrix,
    chol: Cholesky,
    /// `-½ (d ln 2π + log|Σ|)` — the log normalizing constant.
    log_norm: f64,
    /// Ridge added to the diagonal during factorization (0 when none).
    ridge: f64,
    /// True when Σ is exactly diagonal: the O(d) density fast path over
    /// `inv_diag` is active (dense Cholesky solves are O(d²) per
    /// evaluation, which dominates high-dimensional streaming; see
    /// Theorem 3's d-vector representation).
    diagonal: bool,
    /// The inverse variances when `diagonal`, empty otherwise.
    inv_diag: Vec<f64>,
}

impl Params {
    /// [`Gaussian::new`]'s work on the mean and covariance already in
    /// `self`: validate, symmetrize, factorize with escalating ridge
    /// regularization, then the normalizer and the exact-diagonal test.
    /// Allocates nothing when the buffers are large enough and the
    /// covariance factorizes without a ridge.
    fn build(&mut self) -> Result<()> {
        let d = self.mean.dim();
        let cov = &mut self.cov;
        if cov.rows() != d || cov.cols() != d {
            return Err(GmmError::DimensionMismatch { expected: d, got: cov.rows() });
        }
        if d == 0 {
            return Err(GmmError::InvalidParameter { name: "mean", constraint: "dimension > 0" });
        }
        if !self.mean.is_finite() || !cov.is_finite() {
            return Err(GmmError::InvalidParameter {
                name: "mean/cov",
                constraint: "all entries finite",
            });
        }
        cov.symmetrize();
        self.ridge = self.chol.refactor_regularized(cov, Gaussian::BASE_RIDGE, 14)?;
        if self.ridge > 0.0 {
            // Keep the stored covariance consistent with the factorization.
            cov.add_ridge(self.ridge);
        }
        self.log_norm = -0.5 * (d as f64 * LN_2PI + self.chol.log_det());
        // Detect exactly-diagonal covariances and cache inverse variances
        // for the O(d) density path.
        let mut diagonal = true;
        'outer: for i in 0..d {
            for j in 0..d {
                if i != j && cov[(i, j)] != 0.0 {
                    diagonal = false;
                    break 'outer;
                }
            }
        }
        self.diagonal = diagonal;
        self.inv_diag.clear();
        if diagonal {
            self.inv_diag.extend((0..d).map(|i| 1.0 / cov[(i, i)]));
        }
        Ok(())
    }

    /// [`Gaussian::log_pdf_cols`] of these parameters.
    #[inline(always)]
    fn log_pdf_cols(&self, cols: &[f64], out: &mut [f64], solve: &mut [f64]) {
        let count = out.len();
        if count == 0 {
            return;
        }
        let mean = self.mean.as_slice();
        out.fill(0.0);
        if self.diagonal {
            for ((col, &m), &inv) in cols.chunks_exact(count).zip(mean).zip(&self.inv_diag) {
                for (o, &x) in out.iter_mut().zip(col) {
                    let diff = x - m;
                    *o += diff * diff * inv;
                }
            }
        } else {
            let centred = solve.chunks_exact_mut(count).zip(cols.chunks_exact(count));
            for ((y, col), &m) in centred.zip(mean) {
                for (y, &x) in y.iter_mut().zip(col) {
                    *y = x - m;
                }
            }
            self.chol.solve_lower_batch(solve, count);
            for y in solve.chunks_exact(count) {
                for (o, &y) in out.iter_mut().zip(y) {
                    *o += y * y;
                }
            }
        }
        for o in out.iter_mut() {
            *o = self.log_norm - 0.5 * *o;
        }
    }
}

/// A Gaussian rebuilt in place, for a caller that scores many short-lived
/// candidates and keeps few of them (the merge refiner's simplex
/// vertices). [`Self::rebuild_from_factor`] is [`Gaussian::new`] and
/// [`Self::log_pdf_cols`] is [`Gaussian::log_pdf_cols`], sharing their
/// code, so every bit equals the `Gaussian`'s; only
/// [`Self::to_gaussian`] allocates a shared block. Once the buffers have
/// grown to the dimension, a rebuild whose covariance factorizes without
/// a ridge allocates nothing.
#[derive(Debug, Default)]
pub struct GaussianScratch {
    params: Params,
    /// `Lᵀ`, the right operand of the covariance `L·Lᵀ`.
    lt: Matrix,
    /// True when the last rebuild succeeded.
    built: bool,
}

impl GaussianScratch {
    /// Rebuilds as `Gaussian::new(mean, l.matmul(&l.transpose()))`
    /// would: the covariance `L·Lᵀ` by [`Matrix::matmul_into`], then the
    /// same checks, symmetrization, factorization, ridge ladder,
    /// normalizer and diagonal test, operand for operand. Errs exactly
    /// when that call errs.
    pub fn rebuild_from_factor(&mut self, mean: &[f64], l: &Matrix) -> Result<()> {
        let p = &mut self.params;
        p.mean.copy_from(mean);
        l.transpose_into(&mut self.lt);
        l.matmul_into(&self.lt, &mut p.cov);
        let built = p.build();
        self.built = built.is_ok();
        built
    }

    /// [`Gaussian::log_pdf_cols`] of the last rebuild. Writes `out` only
    /// when that rebuild succeeded.
    pub fn log_pdf_cols(&self, cols: &[f64], out: &mut [f64], solve: &mut [f64]) {
        if self.built {
            wide!(self.params.log_pdf_cols(cols, out, solve));
        }
    }

    /// The Gaussian of the last rebuild, or `None` when it failed.
    pub fn to_gaussian(&self) -> Option<Gaussian> {
        self.built.then(|| Gaussian { params: Arc::new(self.params.clone()) })
    }
}

// Snapshot readers share parameter blocks across threads.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Gaussian>();
};

/// Prints the parameters as fields of a struct named `Gaussian`, so the
/// shared block does not show in the text.
impl fmt::Debug for Gaussian {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = &*self.params;
        f.debug_struct("Gaussian")
            .field("mean", &p.mean)
            .field("cov", &p.cov)
            .field("chol", &p.chol)
            .field("log_norm", &p.log_norm)
            .field("ridge", &p.ridge)
            .field("inv_diag", &p.diagonal.then_some(&p.inv_diag))
            .finish()
    }
}

impl Gaussian {
    /// Base ridge (relative to the covariance scale) used when a covariance
    /// estimate fails to factorize.
    pub(crate) const BASE_RIDGE: f64 = 1e-9;

    /// Largest dimension at which [`Self::precision_weighted_mean_dist`]
    /// works on the stack (the paper runs at d = 4–6); above it the same
    /// code runs over one heap buffer.
    const STACK_DIM: usize = 16;

    /// Relative slack of [`Self::dist_lower_bound`], 2⁻¹⁶: sixteen times
    /// the just-over-2⁻²⁰ the rounding argument there needs.
    const BOUND_SLACK: f64 = 1.0 / 65_536.0;

    /// Limit of the conditioning certificate of [`Self::dist_bound_factor`],
    /// 2⁻²⁰.
    const CERTIFICATE: f64 = 1.0 / 1_048_576.0;

    /// Creates a Gaussian from a mean and covariance. The covariance is
    /// symmetrized, then factorized with escalating ridge regularization;
    /// a covariance that cannot be repaired is an error.
    pub fn new(mean: Vector, cov: Matrix) -> Result<Self> {
        let mut params = Params { mean, cov, ..Params::default() };
        params.build()?;
        Ok(Gaussian { params: Arc::new(params) })
    }

    /// Creates an isotropic Gaussian `N(mean, var·I)`.
    pub fn spherical(mean: Vector, var: f64) -> Result<Self> {
        if var <= 0.0 || !var.is_finite() {
            return Err(GmmError::InvalidParameter { name: "var", constraint: "var > 0" });
        }
        let d = mean.dim();
        Gaussian::new(mean, Matrix::from_diag(&vec![var; d]))
    }

    /// Creates an axis-aligned Gaussian from per-dimension variances.
    pub fn diagonal(mean: Vector, vars: &[f64]) -> Result<Self> {
        if vars.len() != mean.dim() {
            return Err(GmmError::DimensionMismatch { expected: mean.dim(), got: vars.len() });
        }
        Gaussian::new(mean, Matrix::from_diag(vars))
    }

    /// Dimensionality d.
    pub fn dim(&self) -> usize {
        self.params.mean.dim()
    }

    /// Borrow the mean vector μ.
    pub fn mean(&self) -> &Vector {
        &self.params.mean
    }

    /// Borrow the covariance matrix Σ (including any regularization ridge).
    pub fn cov(&self) -> &Matrix {
        &self.params.cov
    }

    /// Borrow the cached Cholesky factorization of Σ.
    pub fn chol(&self) -> &Cholesky {
        &self.params.chol
    }

    /// Ridge added during construction (0.0 when the covariance was already
    /// positive definite). Non-zero values signal a degenerate estimate.
    pub fn ridge(&self) -> f64 {
        self.params.ridge
    }

    /// The log normalizing constant `-½ (d ln 2π + log|Σ|)`: the log density
    /// at the mean, which no record exceeds.
    pub(crate) fn log_norm(&self) -> f64 {
        self.params.log_norm
    }

    /// Log density `ln p(x)`.
    pub fn log_pdf(&self, x: &Vector) -> f64 {
        self.params.log_norm - 0.5 * self.mahalanobis_sq(x)
    }

    /// Density `p(x)` (prefer [`Self::log_pdf`] in accumulations).
    pub fn pdf(&self, x: &Vector) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Batched [`Self::log_pdf`]: scores `out.len()` records stored
    /// row-major in `rows` (`rows[b*d .. (b+1)*d]` is record `b`), writing
    /// `out[b] = ln p(x_b)`.
    ///
    /// Bit-identical to calling `log_pdf` per record — both paths perform
    /// the same floating-point operations in the same order. The records
    /// are transposed into `scratch` and scored by the column kernel the
    /// mixture kernels share.
    pub fn log_pdf_batch(&self, rows: &[f64], out: &mut [f64], scratch: &mut DensityScratch) {
        assert_eq!(rows.len(), out.len() * self.dim(), "log_pdf_batch: rows/out length mismatch");
        let (cols, solve) = scratch.transpose(rows, out.len());
        self.log_pdf_cols(cols, out, solve);
    }

    /// [`Self::log_pdf`] of a dimension-major block: `cols[i*count + b]`
    /// is element `i` of record `b`, `out[b] = ln p(x_b)`, and `solve`
    /// (`d × count`) is the dense path's workspace.
    ///
    /// Every loop runs record-innermost, so it vectorises, while each
    /// record sees the scalar path's operations in the scalar path's
    /// order: `Σ_i diff_i²·inv_i` (diagonal) or the forward solve of the
    /// centred record and `Σ_i y_i²` (dense), both summed from `0.0` in
    /// ascending `i`, then `log_norm − ½·acc`.
    #[inline(always)]
    pub fn log_pdf_cols(&self, cols: &[f64], out: &mut [f64], solve: &mut [f64]) {
        self.params.log_pdf_cols(cols, out, solve);
    }

    /// Squared Mahalanobis distance `(x-μ)ᵀ Σ⁻¹ (x-μ)`. Uses the O(d)
    /// fast path for diagonal covariances, the Cholesky solve otherwise.
    pub fn mahalanobis_sq(&self, x: &Vector) -> f64 {
        let p = &*self.params;
        if p.diagonal {
            let inv = &p.inv_diag;
            let mut acc = 0.0;
            for i in 0..inv.len() {
                let diff = x[i] - p.mean[i];
                acc += diff * diff * inv[i];
            }
            acc
        } else {
            p.chol.mahalanobis_sq(x, &p.mean)
        }
    }

    /// True when the covariance is exactly diagonal (the O(d) density path
    /// is active).
    pub fn is_diagonal(&self) -> bool {
        self.params.diagonal
    }

    /// Draws one sample `μ + L z` with `z ~ N(0, I)` via Box–Muller.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vector {
        let z: Vector = (0..self.dim()).map(|_| standard_normal(rng)).collect();
        self.mean() + &self.chol().apply_l(&z)
    }

    /// Squared Mahalanobis distance between the means of `self` and `other`
    /// under the summed precisions, `(μ₁-μ₂)ᵀ(Σ₁⁻¹+Σ₂⁻¹)(μ₁-μ₂)` — the
    /// quantity inside the paper's `M_merge` / `M_split` criteria (Eqs. 5, 6).
    ///
    /// Allocates nothing up to 16 dimensions (`STACK_DIM`), and once
    /// above. It is the `Vector` formulation
    /// `diff.dot(&(&Σ₁.solve(&diff) + &Σ₂.solve(&diff)))` with the three
    /// vectors laid side by side in one buffer, operand for operand:
    /// `diff_i = μ₁_i − μ₂_i`; `a = Σ₁⁻¹diff` and `b = Σ₂⁻¹diff` by
    /// [`Cholesky::solve_in_place`] on copies of `diff` (bit-identical to
    /// `solve`); then `Σ_i diff_i·(a_i + b_i)` by the same `sum()` in
    /// index order. Both Gaussians must have the same dimension.
    pub fn precision_weighted_mean_dist(&self, other: &Gaussian) -> f64 {
        let d = self.dim();
        assert_eq!(d, other.dim(), "precision_weighted_mean_dist: dimension mismatch");
        let mut stack = [0.0; 3 * Self::STACK_DIM];
        let mut heap = Vec::new();
        let buf = if d <= Self::STACK_DIM {
            &mut stack[..3 * d]
        } else {
            heap.resize(3 * d, 0.0);
            &mut heap[..]
        };
        let (diff, solves) = buf.split_at_mut(d);
        let (a, b) = solves.split_at_mut(d);
        for ((v, m1), m2) in diff.iter_mut().zip(self.mean().iter()).zip(other.mean().iter()) {
            *v = m1 - m2;
        }
        // (Σ₁⁻¹+Σ₂⁻¹)v = Σ₁⁻¹v + Σ₂⁻¹v: two solves, no explicit inverses.
        a.copy_from_slice(diff);
        self.chol().solve_in_place(a);
        b.copy_from_slice(diff);
        other.chol().solve_in_place(b);
        diff.iter().zip(a.iter().zip(b.iter())).map(|(v, (a, b))| v * (a + b)).sum()
    }

    /// The factor [`Self::dist_lower_bound`] needs of this Gaussian,
    /// `1/‖L‖²_F` of its Cholesky factor `L`. `None` unless d ≤ 16
    /// (`STACK_DIM`), `‖L‖²_F` lies in [1e-304, 1e304], and `L` passes the
    /// conditioning certificate `4·(d+2)·ε·‖L‖²_F·‖L⁻¹‖²_F ≤ 2⁻²⁰`, with
    /// `‖L⁻¹‖_F` from d forward solves of unit vectors; a `NaN` or `∞`
    /// anywhere fails it. About a factorisation's worth of work (d³/6
    /// multiply-adds), so a caller that bounds the same Gaussian often
    /// keeps it.
    pub fn dist_bound_factor(&self) -> Option<DistBoundFactor> {
        let d = self.dim();
        if d > Self::STACK_DIM {
            return None;
        }
        let l = self.chol().l();
        let l_sq: f64 = (0..d).flat_map(|i| &l.row(i)[..=i]).map(|v| v * v).sum();
        // Column j of L⁻¹ is zero above row j.
        let mut x = [0.0; Self::STACK_DIM];
        let mut inv_sq = 0.0;
        for j in 0..d {
            for i in j..d {
                let row = l.row(i);
                let mut sum = if i == j { 1.0 } else { 0.0 };
                for (lik, xk) in row[j..i].iter().zip(&x[j..i]) {
                    sum -= lik * xk;
                }
                x[i] = sum / row[i];
                inv_sq += x[i] * x[i];
            }
        }
        let certificate = 4.0 * (d + 2) as f64 * f64::EPSILON * l_sq * inv_sq;
        (certificate <= Self::CERTIFICATE && (1e-304..=1e304).contains(&l_sq))
            .then(|| DistBoundFactor(1.0 / l_sq))
    }

    /// A certified lower bound on [`Self::precision_weighted_mean_dist`]:
    /// `‖μ₁−μ₂‖²·(1/‖L₁‖²_F + 1/‖L₂‖²_F)·(1 − 2⁻¹⁶)` from both sides'
    /// [`Self::dist_bound_factor`], or `−∞`, which rules nothing out, when
    /// either side has none. It never exceeds the distance *as computed*,
    /// so a caller may skip the distance of any pair the bound already
    /// rules out, and both argument orders give the same bits.
    ///
    /// Exactly, with `Σ = LLᵀ` for the factor the distance solves with,
    /// `vᵀΣ⁻¹v = ‖L⁻¹v‖² ≥ ‖v‖²/λmax(LLᵀ) ≥ ‖v‖²/‖L‖²_F` on each side. In
    /// floating point (`u = ε/2`, `γ_n = nu/(1−nu)`, and of either side
    /// `κ² = ‖L‖²_F·‖L⁻¹‖²_F ≥ cond₂(Σ)`, the quantity the certificate
    /// bounds): each triangular solve is backward stable, `(L + Δ)ŷ = v`
    /// with `|Δ| ≤ γ_d·|L|`, and the two solves behind `â ≈ Σ⁻¹v` keep
    /// `vᵀâ` within a relative `2γ_d·κ²` of `vᵀΣ⁻¹v`; the d products, the
    /// `a_i + b_i` and the sum add at most `γ_{d+1}·Σ|v_i|·|a_i|`, which
    /// `‖v‖·‖Σ⁻¹v‖ ≤ cond₂(Σ)·vᵀΣ⁻¹v` makes a relative `γ_{d+1}·κ²` of each
    /// side's term. Both terms are non-negative, so the computed distance
    /// is within a relative `(2γ_d + γ_{d+1})·κ² ≈ (3d+1)·u·κ²` of the
    /// exact one, which is below `4(d+2)·ε·κ² ≤ 2⁻²⁰` under the
    /// certificate: the computed distance is at least `1 − 2⁻²⁰` times the
    /// exact one. The certificate is itself computed, but a
    /// forward-substitution inverse `X̂` has `|LX̂ − I| ≤ γ_d·|L|·|X̂|`, so
    /// once it passes the exact `‖L⁻¹‖_F` exceeds the computed one by a
    /// relative 2⁻²⁰ at most, which moves the 2⁻²⁰ above by a relative
    /// 2⁻¹⁹. The bound's own `d(d+1)/2 + d + 6` roundings lift it by less
    /// than 2⁻⁴⁵; the 2⁻¹⁶ slack covers the just-over-2⁻²⁰ all of this needs
    /// sixteen times over. The bound is returned only for
    /// `‖μ₁−μ₂‖² ≥ 1e-280` and a value in [1e-270, 1e270]: there, with
    /// both factors in range and `κ² ≤ 2²⁹`, nothing the distance computes
    /// overflows (so it is finite, never `NaN`), and gradual underflow
    /// moves it by far less than 2⁻⁸⁰ relative. Anything else — a `NaN` or
    /// `∞` mean or bound, a bound that overflows or underflows, another
    /// dimension — is `−∞`.
    pub fn dist_lower_bound(
        &self,
        own: Option<DistBoundFactor>,
        other: &Gaussian,
        theirs: Option<DistBoundFactor>,
    ) -> f64 {
        let (Some(DistBoundFactor(a)), Some(DistBoundFactor(b))) = (own, theirs) else {
            return f64::NEG_INFINITY;
        };
        if self.dim() != other.dim() {
            return f64::NEG_INFINITY;
        }
        let sq: f64 =
            self.mean().iter().zip(other.mean().iter()).map(|(m1, m2)| (m1 - m2) * (m1 - m2)).sum();
        let bound = sq * (a + b) * (1.0 - Self::BOUND_SLACK);
        if sq >= 1e-280 && (1e-270..=1e270).contains(&bound) {
            bound
        } else {
            f64::NEG_INFINITY
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cludistream_rng::StdRng;

    fn standard_2d() -> Gaussian {
        Gaussian::new(Vector::zeros(2), Matrix::identity(2)).unwrap()
    }

    #[test]
    fn standard_normal_density_at_mean() {
        let g = standard_2d();
        // (2π)^-1 at the mean for d=2.
        let expect = 1.0 / (2.0 * std::f64::consts::PI);
        assert!((g.pdf(&Vector::zeros(2)) - expect).abs() < 1e-12);
    }

    #[test]
    fn univariate_matches_closed_form() {
        let g = Gaussian::new(Vector::from_slice(&[1.0]), Matrix::from_diag(&[4.0])).unwrap();
        let x = Vector::from_slice(&[3.0]);
        // N(1, 4) at x=3: (1/(2√(2π))) exp(-0.5) — σ=2.
        let expect = (1.0 / (2.0 * (2.0 * std::f64::consts::PI).sqrt())) * (-0.5f64).exp();
        assert!((g.pdf(&x) - expect).abs() < 1e-12);
    }

    #[test]
    fn log_pdf_consistent_with_pdf() {
        let g = Gaussian::new(
            Vector::from_slice(&[0.5, -0.5]),
            Matrix::from_rows(&[&[2.0, 0.3], &[0.3, 1.0]]),
        )
        .unwrap();
        let x = Vector::from_slice(&[1.0, 1.0]);
        assert!((g.log_pdf(&x).exp() - g.pdf(&x)).abs() < 1e-12);
    }

    #[test]
    fn mahalanobis_at_mean_is_zero() {
        let g = standard_2d();
        assert_eq!(g.mahalanobis_sq(&Vector::zeros(2)), 0.0);
    }

    #[test]
    fn degenerate_covariance_gets_ridged() {
        let cov = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]); // rank 1
        let g = Gaussian::new(Vector::zeros(2), cov).unwrap();
        assert!(g.ridge() > 0.0);
        assert!(g.log_pdf(&Vector::zeros(2)).is_finite());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let r = Gaussian::new(Vector::zeros(2), Matrix::identity(3));
        assert!(matches!(r, Err(GmmError::DimensionMismatch { .. })));
    }

    #[test]
    fn non_finite_rejected() {
        let r = Gaussian::new(Vector::from_slice(&[f64::NAN]), Matrix::identity(1));
        assert!(r.is_err());
    }

    #[test]
    fn spherical_and_diagonal_constructors() {
        let s = Gaussian::spherical(Vector::zeros(3), 2.0).unwrap();
        assert_eq!(s.cov()[(1, 1)], 2.0);
        assert_eq!(s.cov()[(0, 1)], 0.0);
        let d = Gaussian::diagonal(Vector::zeros(2), &[1.0, 9.0]).unwrap();
        assert_eq!(d.cov()[(1, 1)], 9.0);
        assert!(Gaussian::spherical(Vector::zeros(2), -1.0).is_err());
        assert!(Gaussian::diagonal(Vector::zeros(2), &[1.0]).is_err());
    }

    #[test]
    fn sample_statistics_match_parameters() {
        let g = Gaussian::new(
            Vector::from_slice(&[2.0, -1.0]),
            Matrix::from_rows(&[&[1.0, 0.5], &[0.5, 2.0]]),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut mean = Vector::zeros(2);
        let mut cov = Matrix::zeros(2, 2);
        let samples: Vec<Vector> = (0..n).map(|_| g.sample(&mut rng)).collect();
        for s in &samples {
            mean += s;
        }
        mean.scale(1.0 / n as f64);
        for s in &samples {
            let d = s - &mean;
            cov.rank1_update(1.0 / n as f64, &d);
        }
        assert!((mean[0] - 2.0).abs() < 0.05, "mean {mean}");
        assert!((mean[1] + 1.0).abs() < 0.05, "mean {mean}");
        assert!((cov[(0, 0)] - 1.0).abs() < 0.1);
        assert!((cov[(0, 1)] - 0.5).abs() < 0.1);
        assert!((cov[(1, 1)] - 2.0).abs() < 0.1);
    }

    #[test]
    fn precision_weighted_mean_dist_symmetric_and_known() {
        let a = Gaussian::spherical(Vector::from_slice(&[0.0]), 1.0).unwrap();
        let b = Gaussian::spherical(Vector::from_slice(&[2.0]), 1.0).unwrap();
        // (Σa⁻¹+Σb⁻¹) = 2, diff = 2 → 2*2*2 = 8.
        assert!((a.precision_weighted_mean_dist(&b) - 8.0).abs() < 1e-12);
        assert!(
            (a.precision_weighted_mean_dist(&b) - b.precision_weighted_mean_dist(&a)).abs()
                < 1e-12
        );
    }

    /// A Gaussian of dimension `d` at a random scale in 1e-8 … 1e8, full
    /// (`A Aᵀ + I`) or exactly diagonal.
    pub(crate) fn random_gaussian(rng: &mut StdRng, d: usize) -> Gaussian {
        let scale = 10f64.powi(rng.gen_range(-8..=8));
        let mean: Vector = (0..d).map(|_| rng.gen_range(-5.0..5.0) * scale).collect();
        let mut cov = if rng.gen_bool(0.5) {
            let a = Matrix::from_vec(d, d, (0..d * d).map(|_| rng.gen_range(-2.0..2.0)).collect());
            let mut m = a.matmul(&a.transpose());
            m.add_ridge(1.0);
            m
        } else {
            Matrix::from_diag(&(0..d).map(|_| rng.gen_range(0.1..5.0)).collect::<Vec<_>>())
        };
        cov.scale(scale * scale);
        Gaussian::new(mean, cov).unwrap()
    }

    /// The formulation `precision_weighted_mean_dist` had before it stopped
    /// allocating: the reference it must match bit for bit.
    fn vector_formulation(g1: &Gaussian, g2: &Gaussian) -> f64 {
        let diff = g1.mean() - g2.mean();
        let a = g1.chol().solve(&diff);
        let b = g2.chol().solve(&diff);
        diff.dot(&(&a + &b))
    }

    #[test]
    fn precision_weighted_mean_dist_is_bit_identical_to_the_vector_formulation() {
        use cludistream_rng::check;
        check::cases("precision_weighted_mean_dist_bit_identity", 32, |rng| {
            // Both sides of STACK_DIM.
            for d in [1, 2, 4, 9, 16, 17, 24] {
                let (g1, g2) = (random_gaussian(rng, d), random_gaussian(rng, d));
                for (a, b) in [(&g1, &g2), (&g2, &g1), (&g1, &g1)] {
                    let (got, want) = (a.precision_weighted_mean_dist(b), vector_formulation(a, b));
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "d {d}: {got:e} vs {want:e}"
                    );
                }
            }
        });
    }

    #[test]
    fn precision_weighted_mean_dist_keeps_the_class_of_an_overflow() {
        // Means 1e308 apart under a 1e-300 variance: the solves overflow.
        for d in [2, 17] {
            let far = |at: f64| Gaussian::spherical(Vector::filled(d, at), 1e-300).unwrap();
            let (g1, g2) = (far(1e308), far(-1e308));
            let (got, want) = (g1.precision_weighted_mean_dist(&g2), vector_formulation(&g1, &g2));
            assert!(!want.is_finite());
            assert!(got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()));
        }
    }

    /// A Gaussian of dimension `d` with covariance `scale²·QΛQᵀ`: `Q` a
    /// random rotation (`2d` Givens rotations), `Λ` spread over a
    /// condition number of 1 to 1e14, the mean within ±3·scale.
    fn rotated_gaussian(rng: &mut StdRng, d: usize, scale: f64) -> Gaussian {
        let log_kappa = rng.gen_range(0.0..14.0);
        let lambda: Vec<f64> = (0..d)
            .map(|i| match i {
                0 => 1.0,
                _ if i == d - 1 => 10f64.powf(-log_kappa),
                _ => 10f64.powf(-rng.gen_range(0.0..log_kappa)),
            })
            .collect();
        let mut q = Matrix::identity(d);
        for _ in 0..2 * d {
            let (i, j) = (rng.gen_range(0..d), rng.gen_range(0..d));
            if i == j {
                continue;
            }
            let (s, c) = rng.gen_range(0.0..std::f64::consts::TAU).sin_cos();
            for k in 0..d {
                let (a, b) = (q[(k, i)], q[(k, j)]);
                q[(k, i)] = c * a - s * b;
                q[(k, j)] = s * a + c * b;
            }
        }
        let mut cov = Matrix::zeros(d, d);
        for r in 0..d {
            for c in 0..d {
                let sum: f64 = (0..d).map(|k| q[(r, k)] * lambda[k] * q[(c, k)]).sum();
                cov[(r, c)] = sum * scale * scale;
            }
        }
        let mean: Vector = (0..d).map(|_| rng.gen_range(-3.0..3.0) * scale).collect();
        Gaussian::new(mean, cov).unwrap()
    }

    #[test]
    fn dist_lower_bound_never_exceeds_the_computed_distance() {
        use cludistream_rng::check;
        use std::cell::Cell;
        let (bounded, unbounded) = (Cell::new(0), Cell::new(0));
        check::cases("dist_lower_bound_soundness", 64, |rng| {
            for d in [1, 2, 4, 9, 16] {
                let scale = match rng.gen_range(0..4) {
                    0 => 1e-150,
                    1 => 1e150,
                    _ => 10f64.powi(rng.gen_range(-8..=8)),
                };
                let g1 = rotated_gaussian(rng, d, scale);
                let mut g2 = rotated_gaussian(rng, d, scale);
                if rng.gen_bool(0.2) {
                    g2 = Gaussian::new(g1.mean().clone(), g2.cov().clone()).unwrap();
                }
                for (a, b) in [(&g1, &g2), (&g2, &g1), (&g1, &g1)] {
                    let bound = a.dist_lower_bound(a.dist_bound_factor(), b, b.dist_bound_factor());
                    let dist = a.precision_weighted_mean_dist(b);
                    assert!(
                        bound == f64::NEG_INFINITY || bound <= dist,
                        "d {d}, scale {scale:e}: bound {bound:e} above the distance {dist:e}"
                    );
                    let swapped = b.dist_lower_bound(b.dist_bound_factor(), a, a.dist_bound_factor());
                    assert_eq!(bound.to_bits(), swapped.to_bits(), "d {d}: argument order");
                    if bound > 0.0 {
                        bounded.set(bounded.get() + 1);
                    } else {
                        unbounded.set(unbounded.get() + 1);
                    }
                }
            }
        });
        // Unless one case is being replayed by seed, both sides ran.
        if std::env::var(check::SEED_ENV).is_err() {
            assert!(bounded.get() > 100 && unbounded.get() > 100, "{bounded:?} / {unbounded:?}");
        }
    }

    #[test]
    fn dist_bound_factor_is_none_where_nothing_is_certified() {
        // Past STACK_DIM.
        assert!(Gaussian::spherical(Vector::zeros(16), 1.0).unwrap().dist_bound_factor().is_some());
        assert!(Gaussian::spherical(Vector::zeros(17), 1.0).unwrap().dist_bound_factor().is_none());
        // ‖L‖²_F overflows; ‖L⁻¹‖²_F overflows.
        for var in [1e308, 1e-310] {
            assert!(Gaussian::spherical(Vector::zeros(4), var).unwrap().dist_bound_factor().is_none());
        }
        // Either side of the certificate: at d = 2 it reads
        // 16·ε·(1 + κ)(1 + 1/κ) ≤ 2⁻²⁰, i.e. κ up to about 2²⁸.
        let two = |kappa: f64| Gaussian::diagonal(Vector::zeros(2), &[1.0, 1.0 / kappa]).unwrap();
        assert!(two(2f64.powi(27)).dist_bound_factor().is_some());
        assert!(two(2f64.powi(29)).dist_bound_factor().is_none());
        let mut rng = StdRng::seed_from_u64(3);
        let certified = (0..200)
            .map(|_| rotated_gaussian(&mut rng, 4, 1.0))
            .filter(|g| g.dist_bound_factor().is_some())
            .count();
        assert!(certified > 20 && certified < 180, "{certified} of 200 certified");
        let at = |x: f64| Gaussian::spherical(Vector::filled(2, x), 1.0).unwrap();
        let bound = |a: &Gaussian, b: &Gaussian| {
            a.dist_lower_bound(a.dist_bound_factor(), b, b.dist_bound_factor())
        };
        assert!(bound(&at(5.0), &at(0.0)) > 0.0);
        // A side without a factor bounds nothing, nor do coincident means,
        // nor a difference of means that overflows.
        assert_eq!(bound(&at(5.0), &two(2f64.powi(29))), f64::NEG_INFINITY);
        assert_eq!(bound(&at(5.0), &at(5.0)), f64::NEG_INFINITY);
        assert!(at(1e308).dist_bound_factor().is_some());
        assert_eq!(bound(&at(-1e308), &at(1e308)), f64::NEG_INFINITY);
    }

    #[test]
    fn diagonal_fast_path_matches_dense() {
        let dense = Gaussian::new(
            Vector::from_slice(&[1.0, -2.0, 0.5]),
            Matrix::from_rows(&[&[2.0, 0.1, 0.0], &[0.1, 1.0, 0.0], &[0.0, 0.0, 3.0]]),
        )
        .unwrap();
        assert!(!dense.is_diagonal());
        let diag = Gaussian::diagonal(Vector::from_slice(&[1.0, -2.0, 0.5]), &[2.0, 1.0, 3.0])
            .unwrap();
        assert!(diag.is_diagonal());
        // The fast path must agree with the Cholesky path bit-for-bit-ish.
        let x = Vector::from_slice(&[0.3, 1.7, -2.0]);
        let via_chol = diag.chol().mahalanobis_sq(&x, diag.mean());
        assert!((diag.mahalanobis_sq(&x) - via_chol).abs() < 1e-12);
        assert!((diag.log_pdf(&x).exp() - diag.pdf(&x)).abs() < 1e-15);
    }

    #[test]
    fn debug_text_is_what_deriving_it_on_the_fields_printed() {
        /// The struct as it was declared when it held its fields itself.
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Gaussian<'a> {
            mean: &'a Vector,
            cov: &'a Matrix,
            chol: &'a Cholesky,
            log_norm: f64,
            ridge: f64,
            inv_diag: &'a Option<Vec<f64>>,
        }
        let cov = Matrix::from_rows(&[&[2.0, 0.3], &[0.3, 1.0]]);
        let dense = super::Gaussian::new(Vector::from_slice(&[0.5, -1.0]), cov).unwrap();
        for g in [standard_2d(), dense] {
            let p = &*g.params;
            let derived = Gaussian {
                mean: &p.mean,
                cov: &p.cov,
                chol: &p.chol,
                log_norm: p.log_norm,
                ridge: p.ridge,
                inv_diag: &p.diagonal.then(|| p.inv_diag.clone()),
            };
            assert_eq!(format!("{g:?}"), format!("{derived:?}"));
            assert_eq!(format!("{g:#?}"), format!("{derived:#?}"));
        }
    }

    #[test]
    fn zero_dim_rejected() {
        assert!(Gaussian::new(Vector::zeros(0), Matrix::zeros(0, 0)).is_err());
    }
}
