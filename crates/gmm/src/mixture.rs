use crate::{log_sum_exp, Gaussian, GmmError, Result};
use cludistream_linalg::{Matrix, Vector};
use cludistream_rng::Rng;

/// A weighted Gaussian mixture `p(x) = Σ_j w_j p(x|j)` (paper Eq. 1).
///
/// Weights are validated and renormalized at construction. All density
/// arithmetic happens in the log domain.
#[derive(Debug, Clone)]
pub struct Mixture {
    components: Vec<Gaussian>,
    weights: Vec<f64>,
    /// Cached `ln w_j` for density evaluation.
    log_weights: Vec<f64>,
}

impl Mixture {
    /// Creates a mixture from components and (unnormalized, positive)
    /// weights. Fails on empty input, mismatched lengths or dimensions, and
    /// invalid weights.
    pub fn new(components: Vec<Gaussian>, weights: Vec<f64>) -> Result<Self> {
        if components.is_empty() {
            return Err(GmmError::InvalidParameter { name: "components", constraint: "non-empty" });
        }
        if components.len() != weights.len() {
            return Err(GmmError::DimensionMismatch {
                expected: components.len(),
                got: weights.len(),
            });
        }
        let d = components[0].dim();
        for c in &components {
            if c.dim() != d {
                return Err(GmmError::DimensionMismatch { expected: d, got: c.dim() });
            }
        }
        let total: f64 = weights.iter().sum();
        if total.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || weights.iter().any(|w| *w < 0.0 || !w.is_finite())
        {
            return Err(GmmError::InvalidWeights);
        }
        let weights: Vec<f64> = weights.into_iter().map(|w| w / total).collect();
        let log_weights = weights
            .iter()
            .map(|&w| if w > 0.0 { w.ln() } else { f64::NEG_INFINITY })
            .collect();
        Ok(Mixture { components, weights, log_weights })
    }

    /// Convenience: a single-component mixture.
    pub fn single(component: Gaussian) -> Self {
        Mixture {
            log_weights: vec![0.0],
            weights: vec![1.0],
            components: vec![component],
        }
    }

    /// Creates a uniformly weighted mixture.
    pub fn uniform(components: Vec<Gaussian>) -> Result<Self> {
        let k = components.len();
        Mixture::new(components, vec![1.0; k])
    }

    /// Number of components K.
    pub fn k(&self) -> usize {
        self.components.len()
    }

    /// Dimensionality d.
    pub fn dim(&self) -> usize {
        self.components[0].dim()
    }

    /// Borrow the components.
    pub fn components(&self) -> &[Gaussian] {
        &self.components
    }

    /// Borrow the normalized weights (they sum to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Borrow the cached `ln w_j` values (`-inf` for zero weights). These
    /// are exactly the log weights the density and posterior paths use,
    /// so callers that combine them with component log densities reproduce
    /// [`Self::log_pdf`]'s terms bit for bit.
    pub(crate) fn log_weights(&self) -> &[f64] {
        &self.log_weights
    }

    /// Shannon entropy of the weight simplex, in nats: `−Σ_j w_j ln w_j`
    /// (zero-weight components contribute nothing). A quality-plane
    /// gauge: entropy near `ln k` means balanced components, entropy
    /// collapsing toward 0 means one component is absorbing the stream.
    pub fn weight_entropy(&self) -> f64 {
        self.weights
            .iter()
            .zip(&self.log_weights)
            .filter(|(w, _)| **w > 0.0)
            .map(|(w, lw)| -w * lw)
            .sum()
    }

    /// `(min, max)` component weight — the quality plane's collapse and
    /// dominance gauges. `(0, 0)` is impossible for a valid mixture, and
    /// `k == 1` yields `(1, 1)`.
    pub fn weight_extrema(&self) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &w in &self.weights {
            if w < min {
                min = w;
            }
            if w > max {
                max = w;
            }
        }
        (min, max)
    }

    /// Log density `ln p(x) = ln Σ_j w_j p(x|j)` via log-sum-exp.
    pub fn log_pdf(&self, x: &Vector) -> f64 {
        let terms: Vec<f64> = self
            .components
            .iter()
            .zip(&self.log_weights)
            .map(|(c, lw)| lw + c.log_pdf(x))
            .collect();
        log_sum_exp(&terms)
    }

    /// Density `p(x)`.
    pub fn pdf(&self, x: &Vector) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Posterior membership probabilities `Pr(j|x) = w_j p(x|j) / p(x)`
    /// (paper Eq. 2), computed stably in the log domain. The returned vector
    /// sums to 1 (uniform fallback when all densities underflow).
    pub fn posteriors(&self, x: &Vector) -> Vec<f64> {
        let terms: Vec<f64> = self
            .components
            .iter()
            .zip(&self.log_weights)
            .map(|(c, lw)| lw + c.log_pdf(x))
            .collect();
        let norm = log_sum_exp(&terms);
        if !norm.is_finite() {
            return vec![1.0 / self.k() as f64; self.k()];
        }
        terms.into_iter().map(|t| (t - norm).exp()).collect()
    }

    /// Index of the component with the highest posterior for `x`.
    pub fn map_component(&self, x: &Vector) -> usize {
        self.components
            .iter()
            .zip(&self.log_weights)
            .map(|(c, lw)| lw + c.log_pdf(x))
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN log density"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Average log likelihood of `data` under this mixture — the paper's
    /// Definition 1. Returns `-inf` on empty data.
    ///
    /// Evaluated through the batched density kernels (flatten once, score
    /// [`crate::BLOCK`]-sized blocks); bit-identical to the per-record
    /// `Σ log_pdf(x) / n` it replaces.
    pub fn avg_log_likelihood(&self, data: &[Vector]) -> f64 {
        let batch = crate::Batch::from_records(data);
        self.avg_log_likelihood_batch(&batch, &mut crate::MixtureScratch::default())
    }

    /// Draws one sample: pick a component by weight, then sample from it.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vector {
        self.sample_labeled(rng).0
    }

    /// Draws one sample together with the index of the component that
    /// generated it — ground truth for external validation metrics.
    pub(crate) fn sample_labeled<R: Rng + ?Sized>(&self, rng: &mut R) -> (Vector, usize) {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (j, (c, &w)) in self.components.iter().zip(&self.weights).enumerate() {
            acc += w;
            if u < acc {
                return (c.sample(rng), j);
            }
        }
        // Floating-point slack: fall through to the last component.
        let last = self.components.len() - 1;
        (self.components[last].sample(rng), last)
    }

    /// Moment-preserving merge of components `i` and `j` into a single
    /// Gaussian with weight `w_i + w_j`:
    ///
    /// ```text
    /// μ' = (w_i μ_i + w_j μ_j) / (w_i + w_j)
    /// Σ' = Σ_k (w_k/w') (Σ_k + (μ_k-μ')(μ_k-μ')ᵀ)
    /// ```
    ///
    /// This is the analytic minimizer of moment mismatch and the paper's
    /// starting point before the downhill-simplex refinement of `l(x)`.
    pub fn moment_merge(&self, i: usize, j: usize) -> Result<(Gaussian, f64)> {
        if i == j || i >= self.k() || j >= self.k() {
            return Err(GmmError::InvalidParameter {
                name: "i/j",
                constraint: "distinct valid component indices",
            });
        }
        let (wi, wj) = (self.weights[i], self.weights[j]);
        let w = wi + wj;
        if w.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(GmmError::InvalidWeights);
        }
        let (ci, cj) = (&self.components[i], &self.components[j]);
        let mut mu = ci.mean().scaled(wi / w);
        mu.axpy(wj / w, cj.mean());
        let mut cov = Matrix::zeros(self.dim(), self.dim());
        for (wk, ck) in [(wi, ci), (wj, cj)] {
            let frac = wk / w;
            cov += &ck.cov().scaled(frac);
            let dm = ck.mean() - &mu;
            cov.rank1_update(frac, &dm);
        }
        Ok((Gaussian::new(mu, cov)?, w))
    }

    /// Concatenates several weighted mixtures into one flat mixture; `scales`
    /// gives each input mixture's relative mass (e.g. record counts). The
    /// "simple procedure at the coordinator" of Sec. 5.2.
    pub fn concat(mixtures: &[(&Mixture, f64)]) -> Result<Mixture> {
        let mut comps = Vec::new();
        let mut weights = Vec::new();
        for (m, scale) in mixtures {
            if !matches!(
                scale.partial_cmp(&0.0),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            ) {
                return Err(GmmError::InvalidWeights);
            }
            for (c, &w) in m.components.iter().zip(&m.weights) {
                comps.push(c.clone());
                weights.push(w * scale);
            }
        }
        Mixture::new(comps, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_rng::StdRng;

    fn two_blobs() -> Mixture {
        Mixture::new(
            vec![
                Gaussian::spherical(Vector::from_slice(&[0.0]), 1.0).unwrap(),
                Gaussian::spherical(Vector::from_slice(&[10.0]), 1.0).unwrap(),
            ],
            vec![0.25, 0.75],
        )
        .unwrap()
    }

    #[test]
    fn weights_normalized() {
        let m = Mixture::new(
            vec![
                Gaussian::spherical(Vector::zeros(1), 1.0).unwrap(),
                Gaussian::spherical(Vector::zeros(1), 1.0).unwrap(),
            ],
            vec![2.0, 6.0],
        )
        .unwrap();
        assert!((m.weights()[0] - 0.25).abs() < 1e-12);
        assert!((m.weights()[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn pdf_is_weighted_sum() {
        let m = two_blobs();
        let x = Vector::from_slice(&[0.0]);
        let expect = 0.25 * m.components()[0].pdf(&x) + 0.75 * m.components()[1].pdf(&x);
        assert!((m.pdf(&x) - expect).abs() < 1e-12);
    }

    #[test]
    fn posteriors_sum_to_one_and_pick_near_component() {
        let m = two_blobs();
        let p = m.posteriors(&Vector::from_slice(&[-0.5]));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > 0.99, "posterior {p:?}");
        assert_eq!(m.map_component(&Vector::from_slice(&[-0.5])), 0);
        assert_eq!(m.map_component(&Vector::from_slice(&[10.2])), 1);
    }

    #[test]
    fn posteriors_underflow_fallback_is_uniform() {
        let m = two_blobs();
        // Extremely far point: both component densities underflow in the
        // linear domain but the log domain keeps them ordered; posteriors
        // remain valid.
        let p = m.posteriors(&Vector::from_slice(&[1e6]));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[1] > 0.99);
    }

    #[test]
    fn avg_log_likelihood_definition() {
        let m = two_blobs();
        let data = vec![Vector::from_slice(&[0.0]), Vector::from_slice(&[10.0])];
        let expect =
            (m.log_pdf(&data[0]) + m.log_pdf(&data[1])) / 2.0;
        assert!((m.avg_log_likelihood(&data) - expect).abs() < 1e-12);
        assert_eq!(m.avg_log_likelihood(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let g = || Gaussian::spherical(Vector::zeros(1), 1.0).unwrap();
        assert!(Mixture::new(vec![], vec![]).is_err());
        assert!(Mixture::new(vec![g()], vec![1.0, 2.0]).is_err());
        assert!(Mixture::new(vec![g()], vec![-1.0]).is_err());
        assert!(Mixture::new(vec![g()], vec![0.0]).is_err());
        assert!(Mixture::new(vec![g()], vec![f64::NAN]).is_err());
        let g2 = Gaussian::spherical(Vector::zeros(2), 1.0).unwrap();
        assert!(Mixture::new(vec![g(), g2], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn sampling_respects_weights() {
        let m = two_blobs();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10_000;
        let near_second =
            (0..n).filter(|_| m.sample(&mut rng)[0] > 5.0).count() as f64 / n as f64;
        assert!((near_second - 0.75).abs() < 0.03, "fraction {near_second}");
    }

    #[test]
    fn moment_merge_preserves_mean_and_mass() {
        let m = two_blobs();
        let (merged, w) = m.moment_merge(0, 1).unwrap();
        assert!((w - 1.0).abs() < 1e-12);
        // Combined mean: 0.25*0 + 0.75*10 = 7.5.
        assert!((merged.mean()[0] - 7.5).abs() < 1e-12);
        // Combined variance: Σ w_k (σ² + (μ_k-μ')²) = 1 + 0.25*56.25 + 0.75*6.25.
        let expect_var = 1.0 + 0.25 * 56.25 + 0.75 * 6.25;
        assert!((merged.cov()[(0, 0)] - expect_var).abs() < 1e-9);
    }

    #[test]
    fn moment_merge_rejects_bad_indices() {
        let m = two_blobs();
        assert!(m.moment_merge(0, 0).is_err());
        assert!(m.moment_merge(0, 5).is_err());
    }

    #[test]
    fn concat_scales_masses() {
        let a = Mixture::single(Gaussian::spherical(Vector::from_slice(&[0.0]), 1.0).unwrap());
        let b = Mixture::single(Gaussian::spherical(Vector::from_slice(&[5.0]), 1.0).unwrap());
        let m = Mixture::concat(&[(&a, 100.0), (&b, 300.0)]).unwrap();
        assert_eq!(m.k(), 2);
        assert!((m.weights()[0] - 0.25).abs() < 1e-12);
        assert!((m.weights()[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn labeled_sampling_matches_component_regions() {
        use cludistream_rng::StdRng;
        let m = two_blobs();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..500 {
            let (x, label) = m.sample_labeled(&mut rng);
            let expect = if x[0] < 5.0 { 0 } else { 1 };
            assert_eq!(label, expect, "sample {x} labeled {label}");
        }
    }

    #[test]
    fn single_is_unit_weight() {
        let m = Mixture::single(Gaussian::spherical(Vector::zeros(1), 1.0).unwrap());
        assert_eq!(m.k(), 1);
        assert_eq!(m.weights(), &[1.0]);
    }

    #[test]
    fn weight_entropy_and_extrema() {
        let m = two_blobs();
        let expect = -(0.25f64 * 0.25f64.ln() + 0.75 * 0.75f64.ln());
        assert!((m.weight_entropy() - expect).abs() < 1e-12);
        assert_eq!(m.weight_extrema(), (0.25, 0.75));

        // A single component: zero entropy, degenerate extrema.
        let single = Mixture::single(Gaussian::spherical(Vector::zeros(1), 1.0).unwrap());
        assert_eq!(single.weight_entropy(), 0.0);
        assert_eq!(single.weight_extrema(), (1.0, 1.0));

        // Uniform weights maximize entropy at ln k.
        let uniform = Mixture::uniform(vec![
            Gaussian::spherical(Vector::zeros(1), 1.0).unwrap(),
            Gaussian::spherical(Vector::from_slice(&[4.0]), 1.0).unwrap(),
            Gaussian::spherical(Vector::from_slice(&[8.0]), 1.0).unwrap(),
        ])
        .unwrap();
        assert!((uniform.weight_entropy() - 3.0f64.ln()).abs() < 1e-12);
    }
}
