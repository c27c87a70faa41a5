//! Merge criteria and merged-component refinement (paper Sec. 5.2.1).
//!
//! The coordinator cannot compute SMEM's `J_merge` — it has no raw data —
//! so the paper replaces it with the Mahalanobis-based `M_merge` (Eq. 5).
//! Both criteria are implemented here: `M_merge` is what the coordinator
//! uses; `J_merge` exists to reproduce Fig. 1's comparison of the two.
//! After selecting a pair, the merged component's parameters are found by
//! minimizing the L1 accuracy loss `l(x)` with the downhill-simplex method,
//! starting from the moment-preserving merge.

use cludistream_gmm::{sample_standard_normal, Gaussian, Mixture};
use cludistream_linalg::{Cholesky, Matrix, Vector};
use cludistream_optimize::{NelderMead, NelderMeadConfig};
use cludistream_rng::StdRng;

/// Floor applied to distances before inversion, so coincident components
/// produce a large-but-finite `M_merge`.
const DIST_FLOOR: f64 = 1e-12;

/// The paper's Eq. 5 merge criterion:
/// `M_merge(i,j) = 1 / ((μ_i−μ_j)ᵀ(Σ_i⁻¹+Σ_j⁻¹)(μ_i−μ_j))`.
/// Larger values mean the components are closer and better merge
/// candidates.
pub fn m_merge(a: &Gaussian, b: &Gaussian) -> f64 {
    1.0 / a.precision_weighted_mean_dist(b).max(DIST_FLOOR)
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

/// Monte-Carlo estimate of the accuracy loss
/// `l(x) = ∫ |w_i p(x|i) + w_j p(x|j) − (w_i+w_j) p(x|i')| dx`
/// via self-normalized importance sampling with proposal
/// `q = ½ p(x|i) + ½ p(x|j)` over the fixed point set `points`.
pub fn accuracy_loss(
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

/// Reusable scratch buffers for [`MergeRefiner::refine_with`]. The refiner
/// used to allocate a fresh Monte-Carlo point set and parameter vector per
/// merge; hoisting them here lets the coordinator reuse one allocation
/// across every `apply()` — the swarm benchmark's root-CPU attribution
/// showed the per-merge allocs as pure overhead. Sampling into a cleared
/// buffer draws the identical point sequence, so refinement results are
/// bit-identical to the allocating path.
#[derive(Debug, Default)]
pub struct MergeScratch {
    /// Monte-Carlo evaluation points (capacity persists across merges).
    points: Vec<Vector>,
    /// Packed simplex start parameters.
    params: Vec<f64>,
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
    /// Returns the refined component and its accuracy loss.
    pub fn refine(&self, wi: f64, gi: &Gaussian, wj: f64, gj: &Gaussian) -> (Gaussian, f64) {
        let (g, loss, _) = self.refine_detailed(wi, gi, wj, gj);
        (g, loss)
    }

    /// [`MergeRefiner::refine`] plus the number of simplex objective
    /// evaluations spent — what telemetry journals as `SimplexRefine`.
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
    /// buffers, so a long-lived coordinator pays the Monte-Carlo point
    /// allocation once instead of per merge. Results are bit-identical to
    /// [`MergeRefiner::refine_detailed`].
    pub fn refine_with(
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

        // Fixed evaluation points from the pair mixture (half from each).
        let mut rng = StdRng::seed_from_u64(self.seed);
        scratch.points.clear();
        scratch.points.extend((0..self.samples).map(|s| {
            let g = if s % 2 == 0 { gi } else { gj };
            g.sample(&mut rng)
        }));
        let points = &scratch.points;
        let _ = sample_standard_normal(&mut rng); // decorrelate future seeds

        let d = start.dim();
        scratch.params.clear();
        pack_into(&start, &mut scratch.params);
        let nm = NelderMead::new(NelderMeadConfig {
            max_evals: self.max_evals,
            f_tol: 1e-9,
            x_tol: 1e-7,
            ..Default::default()
        });
        let result = nm.minimize(
            |params| match unpack(params, d) {
                Some(g) => accuracy_loss(ri, gi, rj, gj, &g, points),
                None => f64::MAX,
            },
            &scratch.params,
        );
        let start_loss = accuracy_loss(ri, gi, rj, gj, &start, points);
        match unpack(&result.point, d) {
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

/// Inverse of [`pack`]; `None` when the parameters produce a non-finite
/// Gaussian.
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
    let chol = Cholesky::from_factor(l).ok()?;
    let cov = chol.reconstruct();
    Gaussian::new(mean, cov).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (refined, refined_loss) = refiner.refine(0.6, &a, 0.4, &b);
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
        let back = unpack(&packed, 2).unwrap();
        assert!((back.mean()[0] - 1.0).abs() < 1e-12);
        for i in 0..2 {
            for j in 0..2 {
                assert!((back.cov()[(i, j)] - g.cov()[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn refine_with_reused_scratch_is_bit_identical() {
        let a = g(0.0, 1.0);
        let b = g(2.0, 2.0);
        let refiner = MergeRefiner { seed: 5, ..Default::default() };
        let (fresh, fresh_loss, fresh_evals) = refiner.refine_detailed(0.6, &a, 0.4, &b);
        let mut scratch = MergeScratch::default();
        // Dirty the scratch with an unrelated refinement first: reuse must
        // not leak state between merges.
        let _ = refiner.refine_with(&mut scratch, 0.5, &g(10.0, 1.0), 0.5, &g(11.0, 3.0));
        let (reused, reused_loss, reused_evals) =
            refiner.refine_with(&mut scratch, 0.6, &a, 0.4, &b);
        assert_eq!(fresh_evals, reused_evals);
        assert_eq!(fresh_loss.to_bits(), reused_loss.to_bits());
        assert_eq!(fresh.mean()[0].to_bits(), reused.mean()[0].to_bits());
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(fresh.cov()[(i, j)].to_bits(), reused.cov()[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn unpack_rejects_bad_params() {
        assert!(unpack(&[1.0], 2).is_none());
        // log-diagonal of +inf.
        let mut p = pack(&g(0.0, 1.0));
        p[2] = f64::INFINITY;
        assert!(unpack(&p, 2).is_none());
    }
}
