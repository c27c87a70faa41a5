//! Automatic component-count selection.
//!
//! The paper "do[es] not assume the constant number of component models
//! for the data stream" — a new model is learned whenever the data stops
//! fitting. Choosing K for each *newly learned* model is the remaining
//! degree of freedom; [`fit_em_bic`] searches a K range and keeps the fit
//! with the best Bayesian Information Criterion
//! `BIC = −2·LL + p·ln(N)` (lower is better), the standard mixture-order
//! selector.

use crate::{fit_em, free_parameters, EmConfig, EmFit, GmmError, Result};
use cludistream_linalg::Vector;

/// An [`EmFit`] annotated with its BIC score.
#[derive(Debug, Clone)]
pub struct ScoredFit {
    /// The fit.
    pub fit: EmFit,
    /// Components used.
    pub k: usize,
    /// `−2·LL + p·ln N` (lower is better).
    pub bic: f64,
}

/// BIC of a fit with `k` components on `n` records.
pub(crate) fn bic(fit: &EmFit, k: usize, dim: usize, n: usize, config: &EmConfig) -> f64 {
    let p = free_parameters(k, dim, config.covariance) as f64;
    -2.0 * fit.log_likelihood + p * (n.max(1) as f64).ln()
}

/// Fits EM for every `K ∈ k_range` and returns the BIC-best fit along with
/// the full score table (useful for diagnostics). `config.k` is ignored.
pub fn fit_em_bic(
    data: &[Vector],
    k_range: std::ops::RangeInclusive<usize>,
    config: &EmConfig,
) -> Result<(ScoredFit, Vec<(usize, f64)>)> {
    if k_range.is_empty() {
        return Err(GmmError::InvalidParameter { name: "k_range", constraint: "non-empty" });
    }
    let dim = data.first().map(|x| x.dim()).unwrap_or(0);
    let mut best: Option<ScoredFit> = None;
    let mut table = Vec::new();
    for k in k_range {
        let cfg = EmConfig { k, ..config.clone() };
        let fit = match fit_em(data, &cfg) {
            Ok(f) => f,
            // K too large for the data: stop the search here.
            Err(GmmError::NotEnoughData { .. }) => break,
            Err(e) => return Err(e),
        };
        let score = bic(&fit, k, dim, data.len(), &cfg);
        table.push((k, score));
        if best.as_ref().is_none_or(|b| score < b.bic) {
            best = Some(ScoredFit { fit, k, bic: score });
        }
    }
    let best = best.ok_or(GmmError::NotEnoughData { have: data.len(), need: 1 })?;
    Ok((best, table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gaussian, Mixture};
    use cludistream_rng::StdRng;

    fn blobs(centers: &[f64], n: usize, seed: u64) -> Vec<Vector> {
        let comps: Vec<Gaussian> = centers
            .iter()
            .map(|&c| Gaussian::spherical(Vector::from_slice(&[c]), 0.3).unwrap())
            .collect();
        let mix = Mixture::uniform(comps).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| mix.sample(&mut rng)).collect()
    }

    #[test]
    fn bic_recovers_true_component_count() {
        for true_k in [1usize, 2, 3] {
            let centers: Vec<f64> = (0..true_k).map(|i| i as f64 * 12.0).collect();
            let data = blobs(&centers, 600, 42 + true_k as u64);
            let (best, table) =
                fit_em_bic(&data, 1..=5, &EmConfig { seed: 1, ..Default::default() }).unwrap();
            assert_eq!(best.k, true_k, "true K {true_k}: table {table:?}");
        }
    }

    #[test]
    fn bic_penalizes_overfitting() {
        let data = blobs(&[0.0], 400, 7);
        let (_, table) =
            fit_em_bic(&data, 1..=4, &EmConfig { seed: 2, ..Default::default() }).unwrap();
        // BIC at K=1 must beat K=4 on unimodal data.
        let k1 = table.iter().find(|(k, _)| *k == 1).unwrap().1;
        let k4 = table.iter().find(|(k, _)| *k == 4).unwrap().1;
        assert!(k1 < k4, "BIC failed to penalize: K=1 {k1} vs K=4 {k4}");
    }

    #[test]
    fn k_range_capped_by_data_size() {
        let data = blobs(&[0.0], 3, 8);
        // K up to 10 requested, but only 3 records: the search must stop
        // gracefully and return the feasible best.
        let (best, table) =
            fit_em_bic(&data, 1..=10, &EmConfig { seed: 3, ..Default::default() }).unwrap();
        assert!(best.k <= 3);
        assert!(table.len() <= 3);
    }

    #[test]
    fn empty_range_rejected() {
        let data = blobs(&[0.0], 50, 9);
        #[allow(clippy::reversed_empty_ranges)]
        let r = fit_em_bic(&data, 3..=2, &EmConfig::default());
        assert!(r.is_err());
    }
}
