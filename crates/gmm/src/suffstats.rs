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

/// Records [`add_moments`] forms rows for at a time: a run's rows, `(1 +
/// 2d) × 64` values, stay in L1 for the dimensions the experiments sweep
/// (up to 16).
const RUN: usize = 64;

/// Adds the moments of `w.len()` weighted records to a flat accumulator:
/// `[n | Σwx | Σwxxᵀ]` (`1 + d + d²` values, scatter row-major — the
/// layout of [`SuffStats::from_flat`]) or, when `diagonal`, `[n | Σwx |
/// Σwx²]` (`1 + 2d`). The `count = w.len()` records are dimension-major,
/// element `i` of record `b` at `cols[i*count + b]`, and record `b`
/// weighs `w[b]`, `+0` or more; `rows` is workspace.
///
/// The result is bit-identical to [`SuffStats::add`] of every record of
/// positive weight, in order (and to its `[n | Σwx | Σwx²]` analogue).
/// Every accumulator element is a sum over the records of one product
/// `l_b·r_b`: `n += w·1`, `Σx_i += (w·x_i)·1`, `Σx_ix_j += (w·x_i)·x_j`
/// and `Σx_i² += ((w·x_i)·x_i)·1`. Per run of [`RUN`] records the rows
/// `w·x_i` (and `(w·x_i)·x_i`) are formed record-innermost, then
/// [`sum_products`] adds the run's products into tiles of accumulator
/// elements held in registers, record by record in order. Multiplying by
/// `1` is exact, and a register holds the running value memory would, so
/// every element sees `SuffStats::add`'s operations in its order. A record
/// of weight `+0` adds `±0` to every element (`0·x` is `±0` for a finite
/// `x`), which changes no element, since none is ever `-0`: each starts at
/// `+0`, and a sum is `-0` only when both operands are.
#[inline(always)]
pub(crate) fn add_moments(
    acc: &mut [f64],
    cols: &[f64],
    w: &[f64],
    diagonal: bool,
    rows: &mut Vec<f64>,
) {
    if w.is_empty() {
        return;
    }
    let (stride, d) = (w.len(), cols.len() / w.len());
    debug_assert_eq!(acc.len(), if diagonal { 1 + 2 * d } else { 1 + d + d * d });
    if rows.len() < (1 + 2 * d) * RUN {
        rows.resize((1 + 2 * d) * RUN, 0.0);
    }
    for start in (0..w.len()).step_by(RUN) {
        let w = &w[start..w.len().min(start + RUN)];
        add_run(acc, w, |i| &cols[i * stride + start..][..w.len()], d, diagonal, rows);
    }
}

/// [`add_moments`] of one run: `w` and the columns `x(i)` are `count`
/// long, and `rows` has room for `1 + 2d` rows of [`RUN`].
#[inline(always)]
fn add_run<'a>(
    acc: &mut [f64],
    w: &'a [f64],
    x: impl Fn(usize) -> &'a [f64],
    d: usize,
    diagonal: bool,
    rows: &mut [f64],
) {
    let count = w.len();
    // `[1 … 1 | w·x_0 | … | w·x_{d−1}]`, then, when `diagonal`,
    // `[(w·x_0)·x_0 | … ]`, `count` each.
    let (ones, rest) = rows.split_at_mut(count);
    let (weighted, squared) = rest[..2 * d * count].split_at_mut(d * count);
    ones.fill(1.0);
    for (i, wx) in weighted.chunks_exact_mut(count).enumerate() {
        for ((wx, &w), &x) in wx.iter_mut().zip(w).zip(x(i)) {
            *wx = w * x;
        }
    }
    if diagonal {
        for (i, sq) in squared.chunks_exact_mut(count).enumerate() {
            for ((sq, &wx), &x) in sq.iter_mut().zip(&weighted[i * count..]).zip(x(i)) {
                *sq = wx * x;
            }
        }
    }
    let (ones, weighted, squared) = (&*ones, &*weighted, &*squared);
    let wx = |i: usize| &weighted[i * count..][..count];
    let (sums, scatter) = acc.split_at_mut(1 + d);
    // `n` and `Σwx`: the rows `w`, `w·x_i`, times 1.
    sum_products(sums, 1 + d, 1, |i| if i == 0 { w } else { wx(i - 1) }, |_| ones);
    if diagonal {
        sum_products(scatter, d, 1, |i| &squared[i * count..][..count], |_| ones);
    } else {
        sum_products(scatter, d, d, wx, x);
    }
}

/// `acc[p*width + q] += Σ_b left(p)_b·right(q)_b` for the `height ×
/// width` grid of elements, in tiles of up to 8 × 2 elements: a tile is
/// loaded into registers, every record in order adds its products, and
/// the tile is stored back. The rows have one length, the record count.
fn sum_products<'l, 'r>(
    acc: &mut [f64],
    height: usize,
    width: usize,
    left: impl Fn(usize) -> &'l [f64],
    right: impl Fn(usize) -> &'r [f64],
) {
    let mut p = 0;
    while p < height {
        let tall = match height - p {
            8.. => 8,
            4.. => 4,
            2.. => 2,
            _ => 1,
        };
        let mut q = 0;
        while q < width {
            let wide = (width - q).min(2);
            let (at, l, r) = (p * width + q, |i| left(p + i), |j| right(q + j));
            match (tall, wide) {
                (8, 2) => tile::<8, 2>(acc, at, width, l, r),
                (8, _) => tile::<8, 1>(acc, at, width, l, r),
                (4, 2) => tile::<4, 2>(acc, at, width, l, r),
                (4, _) => tile::<4, 1>(acc, at, width, l, r),
                (2, 2) => tile::<2, 2>(acc, at, width, l, r),
                (2, _) => tile::<2, 1>(acc, at, width, l, r),
                (_, 2) => tile::<1, 2>(acc, at, width, l, r),
                _ => tile::<1, 1>(acc, at, width, l, r),
            }
            q += wide;
        }
        p += tall;
    }
}

/// One `P × W` tile of [`sum_products`], its top-left element at
/// `acc[at]` and its rows `width` apart.
fn tile<'l, 'r, const P: usize, const W: usize>(
    acc: &mut [f64],
    at: usize,
    width: usize,
    left: impl Fn(usize) -> &'l [f64],
    right: impl Fn(usize) -> &'r [f64],
) {
    let left: [&[f64]; P] = std::array::from_fn(left);
    let count = left[0].len();
    let left = left.map(|l| &l[..count]);
    let right: [&[f64]; W] = std::array::from_fn(|j| &right(j)[..count]);
    let mut sums: [[f64; W]; P] =
        std::array::from_fn(|i| std::array::from_fn(|j| acc[at + i * width + j]));
    for b in 0..count {
        for (sums, l) in sums.iter_mut().zip(&left) {
            for (sum, r) in sums.iter_mut().zip(&right) {
                *sum += l[b] * r[b];
            }
        }
    }
    for (i, sums) in sums.iter().enumerate() {
        acc[at + i * width..][..W].copy_from_slice(sums);
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
    fn column_moments_are_bit_identical_to_adding_record_after_record() {
        use crate::reference;
        use cludistream_rng::{check, Rng};
        check::cases("suffstats.add_moments_bit_identity", 4, |rng| {
            let mut scratch = Vec::new();
            for d in 1..=9 {
                for count in [1, RUN - 1, RUN, RUN + 1, 256, 300] {
                    let scale = 10f64.powf(rng.gen_range(-3.0..100.0));
                    let cols: Vec<f64> =
                        (0..d * count).map(|_| rng.gen_range(-1.0..1.0) * scale).collect();
                    let x = |b: usize| -> Vector { (0..d).map(|i| cols[i * count + b]).collect() };
                    // Mostly zero, some zero, or none; positive ones 1, or
                    // from 1 down to the subnormal.
                    let zero_share = [0.9, 0.05, 0.0][rng.gen_range(0..3usize)];
                    let unit = rng.gen_bool(0.25);
                    let w: Vec<f64> = (0..count)
                        .map(|_| match () {
                            _ if rng.gen_bool(zero_share) => 0.0,
                            _ if unit => 1.0,
                            _ => (-rng.gen_range(0.0..745.0f64)).exp(),
                        })
                        .collect();
                    for diagonal in [false, true] {
                        // A running sum, as a block's second call meets it:
                        // record 0 at weight 0.5, then every positively
                        // weighted record in order. Diagonal moments have
                        // no `SuffStats`, so the test reference adds them.
                        let (mut acc, flat) = if diagonal {
                            let mut want = vec![0.0; 1 + 2 * d];
                            reference::add_moments(&mut want, &x(0), 0.5, true);
                            let acc = want.clone();
                            for (b, &w) in w.iter().enumerate() {
                                if w > 0.0 {
                                    reference::add_moments(&mut want, &x(b), w, true);
                                }
                            }
                            (acc, want)
                        } else {
                            let mut want = SuffStats::new(d);
                            want.add(&x(0), 0.5);
                            let mut acc = vec![0.5];
                            acc.extend(x(0).iter().map(|v| 0.5 * v));
                            acc.extend_from_slice(want.scatter.as_slice());
                            for (b, &w) in w.iter().enumerate() {
                                if w > 0.0 {
                                    want.add(&x(b), w);
                                }
                            }
                            let mut flat = vec![want.n];
                            flat.extend_from_slice(want.sum.as_slice());
                            flat.extend_from_slice(want.scatter.as_slice());
                            (acc, flat)
                        };
                        add_moments(&mut acc, &cols, &w, diagonal, &mut scratch);
                        for (e, (g, w)) in acc.iter().zip(&flat).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "d {d} count {count} diagonal {diagonal} zeros {zero_share} \
                                 element {e}: {g:e} vs {w:e}"
                            );
                        }
                    }
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
