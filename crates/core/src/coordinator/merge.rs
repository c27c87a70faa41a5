//! Merge criteria and merged-component refinement (paper Sec. 5.2.1).
//!
//! The coordinator cannot compute SMEM's `J_merge` — it has no raw data —
//! so the paper replaces it with the Mahalanobis-based `M_merge` (Eq. 5).
//! Both criteria are implemented here: `M_merge` is what the coordinator
//! uses; `J_merge` exists to reproduce Fig. 1's comparison of the two.
//! After selecting a pair, the merged component's parameters are found by
//! minimizing the L1 accuracy loss `l(x)` with the downhill-simplex method,
//! starting from the moment-preserving merge.

use cludistream_gmm::{Gaussian, GaussianScratch, Mixture};
use cludistream_linalg::{Matrix, Vector};
use cludistream_rng::{standard_normal, StdRng};

use super::simplex;

/// Floor applied to distances before inversion, so coincident components
/// produce a large-but-finite `M_merge`.
const DIST_FLOOR: f64 = 1e-12;

/// The paper's Eq. 5 merge criterion:
/// `M_merge(i,j) = 1 / ((μ_i−μ_j)ᵀ(Σ_i⁻¹+Σ_j⁻¹)(μ_i−μ_j))`.
/// Larger values mean the components are closer and better merge
/// candidates.
pub fn m_merge(a: &Gaussian, b: &Gaussian) -> f64 {
    m_merge_of_dist(a.precision_weighted_mean_dist(b))
}

/// `M_merge` as a function of the distance inside it. Given a lower bound
/// on that distance ([`Gaussian::dist_lower_bound`]) it is an upper bound
/// on [`m_merge`]: `max` with the floor and a correctly rounded reciprocal
/// are both monotone, and `−∞` gives the largest value `M_merge` takes.
/// Never `NaN`: `max` drops a `NaN` distance for the floor.
pub(crate) fn m_merge_of_dist(dist: f64) -> f64 {
    1.0 / dist.max(DIST_FLOOR)
}

/// SMEM's data-driven criterion `J_merge(i,j) = Σ_x Pr(i|x)·Pr(j|x)`
/// (paper Sec. 5.2.1). Needs raw records, so only the Fig. 1 comparison
/// uses it.
pub fn j_merge(mixture: &Mixture, i: usize, j: usize, data: &[Vector]) -> f64 {
    assert!(i < mixture.k() && j < mixture.k(), "component index out of range");
    data.iter()
        .map(|x| {
            let p = mixture.posteriors(x);
            p[i] * p[j]
        })
        .sum()
}

/// All `K(K-1)/2` component pairs of `mixture` scored by both criteria —
/// the Fig. 1 table. Returns `(i, j, m_merge, j_merge)` rows.
pub fn merge_criteria_table(
    mixture: &Mixture,
    data: &[Vector],
) -> Vec<(usize, usize, f64, f64)> {
    let k = mixture.k();
    let mut rows = Vec::with_capacity(k * (k - 1) / 2);
    for i in 0..k {
        for j in (i + 1)..k {
            let m = m_merge(&mixture.components()[i], &mixture.components()[j]);
            let jm = j_merge(mixture, i, j, data);
            rows.push((i, j, m, jm));
        }
    }
    rows
}

/// Min-max normalizes a column of criterion values into [0, 1] — the
/// normalization the paper applies before plotting Fig. 1. Constant columns
/// normalize to all-zeros.
pub fn normalize_column(values: &[f64]) -> Vec<f64> {
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = max - min;
    values
        .iter()
        .map(|&v| if range > 0.0 { (v - min) / range } else { 0.0 })
        .collect()
}

/// Reusable buffers for [`MergeRefiner::refine_with`]: the packed start
/// point and the simplex objective. Every buffer is cleared or overwritten
/// at the start of a merge, so a long-lived coordinator allocates once and
/// results are bit-identical to fresh scratch.
#[derive(Debug, Default)]
pub(crate) struct MergeScratch {
    /// Packed simplex start parameters.
    params: Vec<f64>,
    objective: Objective,
}

/// The simplex objective of one merge: the accuracy loss of a packed
/// candidate over fixed points. Of the loss's three densities per point
/// only the candidate's changes between evaluations, so [`Self::draw`]
/// writes the S points dimension-major once per merge and folds the 2·S
/// fixed densities into `mix` and `q`; [`Self::loss`] then unpacks the
/// candidate into `factor` and `candidate` and pays S candidate densities
/// through the column kernel, allocating nothing.
#[derive(Debug, Default)]
struct Objective {
    /// The points' dimension.
    dim: usize,
    /// `r_i + r_j`, the pair's relative weight.
    weight: f64,
    /// The S Monte-Carlo points, dimension-major (`cols[i*S + b]` is
    /// element `i` of `x_b`).
    cols: Vec<f64>,
    /// `mix[b] = r_i·p_i(x_b) + r_j·p_j(x_b)`: the pair's density at `x_b`.
    mix: Vec<f64>,
    /// `q[b] = ½p_i(x_b) + ½p_j(x_b)`: the proposal's density at `x_b`.
    q: Vec<f64>,
    /// The candidate's log-densities, overwritten by every evaluation.
    logp: Vec<f64>,
    /// The dense density path's `d × S` workspace.
    solve: Vec<f64>,
    /// The candidate's Cholesky factor `L`, unpacked from its parameters.
    factor: Matrix,
    /// The candidate Gaussian, rebuilt in place for every evaluation.
    candidate: GaussianScratch,
}

impl Objective {
    /// Draws `samples` fixed points from the pair mixture, half from each
    /// side, and at each the two densities no candidate can change, by the
    /// column kernel.
    fn draw(
        &mut self,
        rng: &mut StdRng,
        samples: usize,
        (ri, gi): (f64, &Gaussian),
        (rj, gj): (f64, &Gaussian),
    ) {
        let d = gi.dim();
        self.dim = d;
        self.weight = ri + rj;
        self.cols.clear();
        self.cols.resize(d * samples, 0.0);
        for s in 0..samples {
            let x = if s % 2 == 0 { gi } else { gj }.sample(rng);
            for (i, &v) in x.iter().enumerate() {
                self.cols[i * samples + s] = v;
            }
        }
        self.logp.resize(samples, 0.0);
        self.solve.resize(d * samples, 0.0);
        // `p(x) = exp(ln p(x))`, as `Gaussian::pdf` computes it: the column
        // kernel's `ln p` is the per-point `log_pdf`'s, bit for bit.
        self.mix.resize(samples, 0.0);
        self.q.resize(samples, 0.0);
        gi.log_pdf_cols(&self.cols, &mut self.mix, &mut self.solve);
        gj.log_pdf_cols(&self.cols, &mut self.q, &mut self.solve);
        for (mix, q) in self.mix.iter_mut().zip(&mut self.q) {
            let (pi, pj) = (mix.exp(), q.exp());
            *mix = ri * pi + rj * pj;
            *q = 0.5 * pi + 0.5 * pj;
        }
    }

    /// The loss of the candidate `params` packs, or `f64::MAX` when they
    /// unpack to no Gaussian.
    fn loss(&mut self, params: &[f64]) -> f64 {
        if !unpack_into(params, self.dim, &mut self.factor, &mut self.candidate) {
            return f64::MAX;
        }
        self.candidate.log_pdf_cols(&self.cols, &mut self.logp, &mut self.solve);
        self.fold()
    }

    /// The loss of `g`.
    fn loss_of(&mut self, g: &Gaussian) -> f64 {
        g.log_pdf_cols(&self.cols, &mut self.logp, &mut self.solve);
        self.fold()
    }

    /// The Gaussian `params` packs, if any.
    fn unpack(&mut self, params: &[f64]) -> Option<Gaussian> {
        if !unpack_into(params, self.dim, &mut self.factor, &mut self.candidate) {
            return None;
        }
        self.candidate.to_gaussian()
    }

    /// The loss of the candidate whose log-densities are in `logp`.
    fn fold(&self) -> f64 {
        let w = self.weight;
        let total: f64 = self
            .mix
            .iter()
            .zip(self.q.iter())
            .zip(self.logp.iter())
            .map(|((&mix, &q), &logp)| {
                if q <= 0.0 {
                    0.0
                } else {
                    (mix - w * logp.exp()).abs() / q
                }
            })
            .sum();
        total / self.mix.len().max(1) as f64
    }
}

/// Refines merged components by downhill-simplex minimization of the
/// accuracy loss (paper: "downhill simplex method \[19\] is used to find the
/// minimum").
#[derive(Debug, Clone)]
pub struct MergeRefiner {
    /// Monte-Carlo points for the loss estimate.
    pub samples: usize,
    /// Seed for the (per-merge deterministic) point draw.
    pub seed: u64,
    /// Evaluation budget for the simplex.
    pub max_evals: usize,
}

impl Default for MergeRefiner {
    fn default() -> Self {
        MergeRefiner { samples: 256, seed: 0, max_evals: 800 }
    }
}

impl MergeRefiner {
    /// Merges `(wi, gi)` and `(wj, gj)`: starts from the moment-preserving
    /// merge and refines the parameters with Nelder–Mead over
    /// (mean, log-Cholesky) space so every candidate is a valid Gaussian.
    /// Returns the refined component, its accuracy loss and the number of
    /// simplex objective evaluations spent — what telemetry journals as
    /// `SimplexRefine`.
    pub fn refine_detailed(
        &self,
        wi: f64,
        gi: &Gaussian,
        wj: f64,
        gj: &Gaussian,
    ) -> (Gaussian, f64, usize) {
        self.refine_with(&mut MergeScratch::default(), wi, gi, wj, gj)
    }

    /// [`MergeRefiner::refine_detailed`] against caller-owned scratch
    /// buffers. Cost per merge: 2·S fixed densities once, then per simplex
    /// evaluation one in-place rebuild of the candidate
    /// ([`GaussianScratch::rebuild_from_factor`], bit-identical to
    /// `Gaussian::new`) and S candidate densities by its column kernel
    /// (bit-identical to per-point `log_pdf`), with no allocation. The
    /// objective is the accuracy loss `l(x)` term for term (the tests hold
    /// its per-point definition as the reference) — `(r_i·p_i + r_j·p_j) −
    /// w·p_m` parses left to right, so naming the first sum `mix[b]`
    /// changes no rounding — summed in point order, so every loss and
    /// every simplex decision equals the reference's bits. Only the point
    /// the simplex returns is built as a [`Gaussian`].
    pub(crate) fn refine_with(
        &self,
        scratch: &mut MergeScratch,
        wi: f64,
        gi: &Gaussian,
        wj: f64,
        gj: &Gaussian,
    ) -> (Gaussian, f64, usize) {
        // The moment merge of two synopses with overflowing second moments
        // does not exist; there is then nothing to refine.
        let Ok((start, _)) = Mixture::new(vec![gi.clone(), gj.clone()], vec![wi, wj])
            .and_then(|two| two.moment_merge(0, 1))
        else {
            return (gi.clone(), f64::INFINITY, 0);
        };
        // Relative weights within the pair.
        let (ri, rj) = (wi / (wi + wj), wj / (wi + wj));

        let MergeScratch { params, objective } = scratch;
        let mut rng = StdRng::seed_from_u64(self.seed);
        objective.draw(&mut rng, self.samples, (ri, gi), (rj, gj));
        let _ = standard_normal(&mut rng); // decorrelate future seeds

        params.clear();
        pack_into(&start, params);
        let result = simplex::minimize(|params| objective.loss(params), params, self.max_evals);
        let start_loss = objective.loss_of(&start);
        match objective.unpack(&result.point) {
            // Keep the refinement only when it actually improved on the
            // moment merge.
            Some(g) if result.value <= start_loss => (g, result.value, result.evaluations),
            _ => (start, start_loss, result.evaluations),
        }
    }
}

/// Packs a Gaussian as `[μ; log diag(L); strict lower triangle of L]`.
/// (Production code goes through [`pack_into`]; tests keep the owning
/// wrapper for round-trip checks.)
#[cfg(test)]
fn pack(g: &Gaussian) -> Vec<f64> {
    let mut out = Vec::with_capacity(g.dim() + g.dim() * (g.dim() + 1) / 2);
    pack_into(g, &mut out);
    out
}

/// [`pack`] into a caller-owned buffer (appends; callers clear first).
fn pack_into(g: &Gaussian, out: &mut Vec<f64>) {
    let d = g.dim();
    let l = g.chol().l();
    out.reserve(d + d * (d + 1) / 2);
    out.extend(g.mean().iter().cloned());
    for i in 0..d {
        out.push(l[(i, i)].ln());
    }
    for i in 0..d {
        for j in 0..i {
            out.push(l[(i, j)]);
        }
    }
}

/// Inverse of [`pack`], in place: unpacks `L` into `factor` and rebuilds
/// `candidate` as `N(μ, L·Lᵀ)`. False when the parameters produce no
/// finite Gaussian.
fn unpack_into(
    params: &[f64],
    d: usize,
    factor: &mut Matrix,
    candidate: &mut GaussianScratch,
) -> bool {
    if params.len() != d + d * (d + 1) / 2 {
        return false;
    }
    factor.resize_zeroed(d, d);
    for i in 0..d {
        let v = params[d + i].exp();
        if !v.is_finite() || v <= 0.0 {
            return false;
        }
        factor[(i, i)] = v;
    }
    let mut idx = 2 * d;
    for i in 0..d {
        for j in 0..i {
            factor[(i, j)] = params[idx];
            idx += 1;
        }
    }
    candidate.rebuild_from_factor(&params[..d], factor).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Monte-Carlo estimate of the accuracy loss
    /// `l(x) = ∫ |w_i p(x|i) + w_j p(x|j) − (w_i+w_j) p(x|i')| dx`
    /// via self-normalized importance sampling with proposal
    /// `q = ½ p(x|i) + ½ p(x|j)` over the fixed point set `points`.
    ///
    /// This is the definition of `l(x)` and the reference implementation:
    /// [`MergeRefiner::refine_with`] does not call it — it computes the terms
    /// that do not depend on `merged` once per merge — and
    /// `refine_with_is_bit_identical_to_accuracy_loss_reference` holds the two
    /// bit-identical.
    fn accuracy_loss(
        wi: f64,
        gi: &Gaussian,
        wj: f64,
        gj: &Gaussian,
        merged: &Gaussian,
        points: &[Vector],
    ) -> f64 {
        let w = wi + wj;
        let total: f64 = points
            .iter()
            .map(|x| {
                let pi = gi.pdf(x);
                let pj = gj.pdf(x);
                let pm = merged.pdf(x);
                let q = 0.5 * pi + 0.5 * pj;
                if q <= 0.0 {
                    0.0
                } else {
                    (wi * pi + wj * pj - w * pm).abs() / q
                }
            })
            .sum();
        total / points.len().max(1) as f64
    }

    /// [`unpack_into`] as it was before the candidate was rebuilt in
    /// place: a fresh `Gaussian::new(μ, L·Lᵀ)`.
    fn unpack(params: &[f64], d: usize) -> Option<Gaussian> {
        if params.len() != d + d * (d + 1) / 2 {
            return None;
        }
        let mean = Vector::from_slice(&params[..d]);
        let mut l = Matrix::zeros(d, d);
        for i in 0..d {
            let v = params[d + i].exp();
            if !v.is_finite() || v <= 0.0 {
                return None;
            }
            l[(i, i)] = v;
        }
        let mut idx = 2 * d;
        for i in 0..d {
            for j in 0..i {
                l[(i, j)] = params[idx];
                idx += 1;
            }
        }
        Gaussian::new(mean, l.matmul(&l.transpose())).ok()
    }

    fn g(center: f64, var: f64) -> Gaussian {
        Gaussian::spherical(Vector::from_slice(&[center, 0.0]), var).unwrap()
    }

    #[test]
    fn m_merge_larger_for_closer_components() {
        let a = g(0.0, 1.0);
        let near = g(1.0, 1.0);
        let far = g(10.0, 1.0);
        assert!(m_merge(&a, &near) > m_merge(&a, &far));
    }

    #[test]
    fn m_merge_finite_for_identical_components() {
        let a = g(0.0, 1.0);
        let m = m_merge(&a, &a.clone());
        assert!(m.is_finite());
        assert!(m >= 1.0 / DIST_FLOOR * 0.5);
    }

    #[test]
    fn j_merge_high_for_overlapping_components() {
        let mix = Mixture::new(vec![g(0.0, 1.0), g(0.5, 1.0), g(50.0, 1.0)], vec![1.0, 1.0, 1.0])
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<Vector> = (0..300).map(|_| mix.sample(&mut rng)).collect();
        let overlapping = j_merge(&mix, 0, 1, &data);
        let separated = j_merge(&mix, 0, 2, &data);
        assert!(
            overlapping > 10.0 * separated,
            "J_merge failed to separate: {overlapping} vs {separated}"
        );
    }

    #[test]
    fn criteria_table_has_all_pairs() {
        let mix =
            Mixture::uniform(vec![g(0.0, 1.0), g(3.0, 1.0), g(6.0, 1.0), g(9.0, 1.0)]).unwrap();
        let rows = merge_criteria_table(&mix, &[Vector::from_slice(&[1.0, 0.0])]);
        assert_eq!(rows.len(), 6); // C(4,2)
        // 8 components → 28 pairs, the paper's Fig. 1 setting.
        let mix8 = Mixture::uniform((0..8).map(|i| g(i as f64 * 3.0, 1.0)).collect()).unwrap();
        assert_eq!(merge_criteria_table(&mix8, &[Vector::from_slice(&[0.0, 0.0])]).len(), 28);
    }

    #[test]
    fn m_and_j_criteria_agree_on_ranking() {
        // The claim behind Fig. 1: M_merge tracks J_merge. Check that the
        // top-ranked pair is the same under both criteria.
        let mix = Mixture::uniform(vec![g(0.0, 1.0), g(0.8, 1.0), g(8.0, 1.0), g(20.0, 1.0)])
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let data: Vec<Vector> = (0..500).map(|_| mix.sample(&mut rng)).collect();
        let rows = merge_criteria_table(&mix, &data);
        let best_m = rows.iter().max_by(|a, b| a.2.partial_cmp(&b.2).unwrap()).unwrap();
        let best_j = rows.iter().max_by(|a, b| a.3.partial_cmp(&b.3).unwrap()).unwrap();
        assert_eq!((best_m.0, best_m.1), (best_j.0, best_j.1));
        assert_eq!((best_m.0, best_m.1), (0, 1));
    }

    #[test]
    fn normalize_column_unit_range() {
        let n = normalize_column(&[2.0, 4.0, 3.0]);
        assert_eq!(n, vec![0.0, 1.0, 0.5]);
        assert_eq!(normalize_column(&[5.0, 5.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn accuracy_loss_zero_for_exact_merge_of_identical() {
        // Merging two identical components: the moment merge IS the sum.
        let a = g(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let points: Vec<Vector> = (0..200).map(|_| a.sample(&mut rng)).collect();
        let loss = accuracy_loss(0.5, &a, 0.5, &a.clone(), &a.clone(), &points);
        assert!(loss < 1e-10, "loss {loss}");
    }

    #[test]
    fn accuracy_loss_positive_for_separated_pair() {
        let a = g(0.0, 1.0);
        let b = g(8.0, 1.0);
        let two = Mixture::new(vec![a.clone(), b.clone()], vec![0.5, 0.5]).unwrap();
        let (merged, _) = two.moment_merge(0, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let points: Vec<Vector> =
            (0..200).map(|s| if s % 2 == 0 { a.sample(&mut rng) } else { b.sample(&mut rng) }).collect();
        let loss = accuracy_loss(0.5, &a, 0.5, &b, &merged, &points);
        // A single Gaussian cannot represent two far-apart modes.
        assert!(loss > 0.1, "loss {loss}");
    }

    #[test]
    fn refiner_no_worse_than_moment_merge() {
        let a = g(0.0, 1.0);
        let b = g(2.0, 2.0);
        let two = Mixture::new(vec![a.clone(), b.clone()], vec![0.6, 0.4]).unwrap();
        let (start, _) = two.moment_merge(0, 1).unwrap();
        let refiner = MergeRefiner { seed: 5, ..Default::default() };
        let (refined, refined_loss, _) = refiner.refine_detailed(0.6, &a, 0.4, &b);
        // Evaluate both on an independent point set.
        let mut rng = StdRng::seed_from_u64(99);
        let points: Vec<Vector> =
            (0..400).map(|s| if s % 2 == 0 { a.sample(&mut rng) } else { b.sample(&mut rng) }).collect();
        let start_loss = accuracy_loss(0.6, &a, 0.4, &b, &start, &points);
        let refined_eval = accuracy_loss(0.6, &a, 0.4, &b, &refined, &points);
        assert!(
            refined_eval <= start_loss * 1.15,
            "refinement degraded: {refined_eval} vs {start_loss}"
        );
        assert!(refined_loss.is_finite());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let g = Gaussian::new(
            Vector::from_slice(&[1.0, -2.0]),
            Matrix::from_rows(&[&[2.0, 0.7], &[0.7, 1.5]]),
        )
        .unwrap();
        let packed = pack(&g);
        assert_eq!(packed.len(), 2 + 3);
        let mut candidate = GaussianScratch::default();
        assert!(unpack_into(&packed, 2, &mut Matrix::default(), &mut candidate));
        let back = candidate.to_gaussian().unwrap();
        assert!((back.mean()[0] - 1.0).abs() < 1e-12);
        for i in 0..2 {
            for j in 0..2 {
                assert!((back.cov()[(i, j)] - g.cov()[(i, j)]).abs() < 1e-9);
            }
        }
    }

    fn assert_same_bits(
        (want, want_loss, want_evals): &(Gaussian, f64, usize),
        (got, got_loss, got_evals): &(Gaussian, f64, usize),
    ) {
        assert_eq!(want_evals, got_evals, "evaluations");
        assert_eq!(want_loss.to_bits(), got_loss.to_bits(), "loss {want_loss} vs {got_loss}");
        let d = want.dim();
        assert_eq!(d, got.dim());
        for i in 0..d {
            assert_eq!(want.mean()[i].to_bits(), got.mean()[i].to_bits(), "mean[{i}]");
            for j in 0..d {
                assert_eq!(
                    want.cov()[(i, j)].to_bits(),
                    got.cov()[(i, j)].to_bits(),
                    "cov[({i}, {j})]"
                );
            }
        }
    }

    #[test]
    fn refine_with_reused_scratch_is_bit_identical() {
        let a = g(0.0, 1.0);
        let b = g(2.0, 2.0);
        let refiner = MergeRefiner { seed: 5, ..Default::default() };
        let fresh = refiner.refine_detailed(0.6, &a, 0.4, &b);
        let mut scratch = MergeScratch::default();
        // Dirty the scratch with unrelated refinements first — more points
        // in more dimensions, then fewer in fewer: stale `rows`, `mix`,
        // `q`, `logp` of another length must not leak between merges.
        let wide = |c: f64| Gaussian::spherical(Vector::filled(5, c), 1.5).unwrap();
        let _ = MergeRefiner { samples: 300, ..refiner.clone() }
            .refine_with(&mut scratch, 0.5, &wide(10.0), 0.5, &wide(11.0));
        let line = |c: f64| Gaussian::spherical(Vector::from_slice(&[c]), 3.0).unwrap();
        let _ = MergeRefiner { samples: 7, ..refiner.clone() }
            .refine_with(&mut scratch, 0.5, &line(10.0), 0.5, &line(11.0));
        let reused = refiner.refine_with(&mut scratch, 0.6, &a, 0.4, &b);
        assert_same_bits(&fresh, &reused);
    }

    /// The refiner as it ran before the fixed densities were hoisted: the
    /// same draw, the same simplex, but the objective and the start loss
    /// call [`accuracy_loss`] on a freshly drawn `Vec<Vector>`.
    /// Also reports how many candidates took the diagonal density path and
    /// how many the dense one.
    fn refine_reference(
        refiner: &MergeRefiner,
        wi: f64,
        gi: &Gaussian,
        wj: f64,
        gj: &Gaussian,
    ) -> ((Gaussian, f64, usize), [usize; 2]) {
        let two = Mixture::new(vec![gi.clone(), gj.clone()], vec![wi, wj]).unwrap();
        let (start, _) = two.moment_merge(0, 1).unwrap();
        let (ri, rj) = (wi / (wi + wj), wj / (wi + wj));
        let mut rng = StdRng::seed_from_u64(refiner.seed);
        let points: Vec<Vector> = (0..refiner.samples)
            .map(|s| if s % 2 == 0 { gi } else { gj }.sample(&mut rng))
            .collect();
        let d = start.dim();
        let mut paths = [0usize; 2];
        let result = simplex::minimize(
            |params| match unpack(params, d) {
                Some(g) => {
                    paths[usize::from(g.is_diagonal())] += 1;
                    accuracy_loss(ri, gi, rj, gj, &g, &points)
                }
                None => f64::MAX,
            },
            &pack(&start),
            refiner.max_evals,
        );
        let start_loss = accuracy_loss(ri, gi, rj, gj, &start, &points);
        let refined = match unpack(&result.point, d) {
            Some(g) if result.value <= start_loss => (g, result.value, result.evaluations),
            _ => (start, start_loss, result.evaluations),
        };
        (refined, paths)
    }

    /// A random component for the oracle, `shift` standard deviations along
    /// axis 0. An exactly-diagonal one has mean 0 on every other axis, so
    /// the moment merge of two of them is itself exactly diagonal.
    fn oracle_component(rng: &mut StdRng, d: usize, diagonal: bool, shift: f64) -> Gaussian {
        use cludistream_rng::Rng;
        let vars: Vec<f64> = (0..d).map(|_| rng.gen_range(0.5..2.0)).collect();
        let mut cov = Matrix::from_diag(&vars);
        let mut mean = vec![0.0; d];
        mean[0] = shift * vars[0].sqrt();
        if !diagonal {
            for m in &mut mean[1..] {
                *m = rng.gen_range(-3.0..3.0);
            }
            for i in 0..d {
                for j in 0..i {
                    let c = rng.gen_range(-0.3..0.3) / d as f64;
                    cov[(i, j)] = c;
                    cov[(j, i)] = c;
                }
            }
        }
        Gaussian::new(Vector::from_slice(&mean), cov).unwrap()
    }

    /// Differential oracle: `refine_with` equals [`refine_reference`] in
    /// evaluations, loss bits and every mean/covariance bit — 240 cases
    /// over dimension, covariance shape, separation, weights and sample
    /// count, about half of them on one scratch reused across cases.
    #[test]
    fn refine_with_is_bit_identical_to_accuracy_loss_reference() {
        use cludistream_rng::{check, Rng};
        use std::cell::{Cell, RefCell};

        let scratch = RefCell::new(MergeScratch::default());
        let cases = Cell::new(0usize);
        // Means 0.5 and 60 standard deviations apart; at 60 each side's
        // density underflows to 0 at the other's points.
        let grid = (1..=6usize).flat_map(|d| {
            [false, true].into_iter().flat_map(move |diagonal| {
                [0.5, 60.0].into_iter().flat_map(move |sigmas| {
                    [0usize, 1, 7, 32, 64].map(|samples| (d, diagonal, sigmas, samples))
                })
            })
        });
        for (d, exactly_diagonal, sigmas, samples) in grid {
            let name =
                format!("refine_oracle_d{d}_diag{exactly_diagonal}_sep{sigmas}_s{samples}");
            let paths = Cell::new([0usize; 2]);
            check::cases(&name, 2, |rng| {
                let gi = oracle_component(rng, d, exactly_diagonal, 0.0);
                let gj = oracle_component(rng, d, exactly_diagonal, sigmas);
                let (wi, wj) =
                    (10f64.powf(rng.gen_range(-9.0..6.0)), 10f64.powf(rng.gen_range(-9.0..6.0)));
                let refiner = MergeRefiner {
                    samples,
                    seed: rng.gen(),
                    max_evals: [40, 100, 300][rng.gen_range(0..3usize)],
                };

                let (want, [dense, diagonal]) = refine_reference(&refiner, wi, &gi, wj, &gj);
                let [dense_so_far, diagonal_so_far] = paths.get();
                paths.set([dense_so_far + dense, diagonal_so_far + diagonal]);
                let got = if rng.gen::<bool>() {
                    refiner.refine_with(&mut scratch.borrow_mut(), wi, &gi, wj, &gj)
                } else {
                    refiner.refine_detailed(wi, &gi, wj, &gj)
                };
                assert_same_bits(&want, &got);
                cases.set(cases.get() + 1);
            });
            if exactly_diagonal && d > 1 {
                // The start vertex is diagonal; the vertices that step an
                // off-diagonal factor entry are not.
                let [dense, diagonal] = paths.get();
                assert!(
                    dense > 0 && diagonal > 0,
                    "{name}: {dense} dense / {diagonal} diagonal candidates"
                );
            }
        }
        // Unless one case is being replayed by seed.
        if std::env::var(check::SEED_ENV).is_err() {
            assert_eq!(cases.get(), 240);
        }
    }

    /// Packed parameters of a hostile candidate in `d` dimensions, in one of
    /// four shapes: ordinary; exactly diagonal (every off-diagonal factor
    /// entry zero, so the density takes the diagonal path); a factor whose
    /// `L·Lᵀ` loses its small diagonal to rounding (huge off-diagonals over
    /// tiny pivots), so the first Cholesky fails and the ridge ladder runs;
    /// and one whose entries may be NaN, ±inf, or log-diagonals whose `exp`
    /// overflows, underflows, or whose square does.
    fn hostile_params(rng: &mut StdRng, d: usize) -> Vec<f64> {
        use cludistream_rng::Rng;
        let shape = rng.gen_range(0..4usize);
        let mut params = Vec::with_capacity(d + d * (d + 1) / 2);
        params.extend((0..d).map(|_| rng.gen_range(-5.0..5.0)));
        params.extend((0..d).map(|_| match shape {
            2 => rng.gen_range(-25.0..-15.0),
            _ => rng.gen_range(-2.0..2.0),
        }));
        params.extend((0..d * (d - 1) / 2).map(|_| match shape {
            1 => 0.0,
            2 => rng.gen_range(1e3..1e8) * if rng.gen::<bool>() { 1.0 } else { -1.0 },
            _ => rng.gen_range(-2.0..2.0),
        }));
        if shape == 3 {
            let hostile = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                710.0,  // exp overflows
                -746.0, // exp underflows to 0
                360.0,  // exp is finite, its square is not
                -380.0, // exp is finite, its square is subnormal
                1e200,
                -0.0,
            ];
            for _ in 0..rng.gen_range(1..=3usize) {
                let at = rng.gen_range(0..params.len());
                params[at] = hostile[rng.gen_range(0..hostile.len())];
            }
        }
        params
    }

    /// The in-place candidate equals what the refiner did before it: a
    /// fresh `Gaussian::new(μ, L·Lᵀ)` (the test's [`unpack`]), its
    /// `log_pdf_batch` over the row-major points and the loss fold, bit for
    /// bit, with `f64::MAX` wherever [`unpack`] gives `None`; and the
    /// Gaussian built for a returned point equals [`unpack`]'s. Over d 1–9
    /// (beyond the refine oracle's d ≤ 6), S ∈ {0, 1, 7, 32, 256} and the
    /// [`hostile_params`] shapes, on one objective reused across every
    /// dimension and point count; the ridge ladder, rejection and both
    /// density paths must each be taken.
    #[test]
    fn in_place_candidate_is_bit_identical_to_a_built_gaussian() {
        use cludistream_gmm::DensityScratch;
        use cludistream_rng::{check, Rng};
        use std::cell::Cell;

        // Ridged, rejected, diagonal and dense candidates seen.
        let seen = Cell::new([0usize; 4]);
        check::cases("in_place_candidate_is_bit_identical_to_a_built_gaussian", 3, |rng| {
            let mut objective = Objective::default();
            let mut density = DensityScratch::default();
            for d in 1..=9 {
                let (diagonal, shift) = (rng.gen_bool(0.3), rng.gen_range(0.0..5.0));
                let gi = oracle_component(rng, d, diagonal, 0.0);
                let gj = oracle_component(rng, d, false, shift);
                let (wi, wj) =
                    (10f64.powf(rng.gen_range(-3.0..3.0)), 10f64.powf(rng.gen_range(-3.0..3.0)));
                let (ri, rj) = (wi / (wi + wj), wj / (wi + wj));
                let w = ri + rj;
                for samples in [0usize, 1, 7, 32, 256] {
                    let seed = rng.gen();
                    objective.draw(&mut StdRng::seed_from_u64(seed), samples, (ri, &gi), (rj, &gj));
                    let mut draw = StdRng::seed_from_u64(seed);
                    let points: Vec<Vector> = (0..samples)
                        .map(|s| if s % 2 == 0 { &gi } else { &gj }.sample(&mut draw))
                        .collect();
                    let rows: Vec<f64> = points.iter().flat_map(|x| x.iter().copied()).collect();
                    let mut logp = vec![0.0; samples];
                    for _ in 0..12 {
                        let params = hostile_params(rng, d);
                        let mut counts = seen.get();
                        let reference = unpack(&params, d);
                        let want = match &reference {
                            Some(g) => {
                                counts[0] += usize::from(g.ridge() > 0.0);
                                counts[if g.is_diagonal() { 2 } else { 3 }] += 1;
                                g.log_pdf_batch(&rows, &mut logp, &mut density);
                                let total: f64 = points
                                    .iter()
                                    .zip(&logp)
                                    .map(|(x, &logp)| {
                                        let (pi, pj) = (gi.pdf(x), gj.pdf(x));
                                        let (mix, q) = (ri * pi + rj * pj, 0.5 * pi + 0.5 * pj);
                                        if q <= 0.0 {
                                            0.0
                                        } else {
                                            (mix - w * logp.exp()).abs() / q
                                        }
                                    })
                                    .sum();
                                total / samples.max(1) as f64
                            }
                            None => {
                                counts[1] += 1;
                                f64::MAX
                            }
                        };
                        seen.set(counts);
                        let got = objective.loss(&params);
                        let case = format!("d {d} S {samples} params {params:?}");
                        assert_eq!(want.to_bits(), got.to_bits(), "{case}: loss {want} vs {got}");
                        match (reference, objective.unpack(&params)) {
                            (None, None) => {}
                            (Some(want), Some(got)) => {
                                assert_same_bits(&(want.clone(), 0.0, 0), &(got.clone(), 0.0, 0));
                                assert_eq!(want.ridge().to_bits(), got.ridge().to_bits(), "{case}");
                                assert_eq!(want.is_diagonal(), got.is_diagonal(), "{case}");
                                if let Some(x) = points.first() {
                                    let (a, b) = (want.log_pdf(x), got.log_pdf(x));
                                    assert_eq!(a.to_bits(), b.to_bits(), "{case}: log_pdf");
                                }
                            }
                            (want, got) => panic!("{case}: built {want:?} vs {got:?}"),
                        }
                    }
                }
            }
        });
        // Unless one case is being replayed by seed.
        if std::env::var(check::SEED_ENV).is_err() {
            let [ridged, rejected, diagonal, dense] = seen.get();
            assert!(
                ridged > 0 && rejected > 0 && diagonal > 0 && dense > 0,
                "{ridged} ridged, {rejected} rejected, {diagonal} diagonal, {dense} dense"
            );
        }
    }

    #[test]
    fn unpack_rejects_bad_params() {
        let mut candidate = GaussianScratch::default();
        let mut factor = Matrix::default();
        assert!(!unpack_into(&[1.0], 2, &mut factor, &mut candidate));
        assert!(candidate.to_gaussian().is_none());
        // log-diagonal of +inf.
        let mut p = pack(&g(0.0, 1.0));
        p[2] = f64::INFINITY;
        assert!(!unpack_into(&p, 2, &mut factor, &mut candidate));
        assert!(candidate.to_gaussian().is_none());
    }
}
