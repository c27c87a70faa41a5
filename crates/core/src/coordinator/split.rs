//! Split and re-merge criteria (paper Sec. 5.2.2, Eq. 6).
//!
//! When a remote site updates a model, the coordinator re-examines the
//! placement of that model's components in its group hierarchy:
//! `M_split(i, Mix) = (μ_i−μ_Mix)ᵀ(Σ_i⁻¹+Σ_Mix⁻¹)(μ_i−μ_Mix)` measures how
//! far component `i` has drifted from its father mixture's aggregate;
//! `M_remerge = 1/M_split` scores candidate groups for re-insertion. A
//! component splits when its current `M_split` exceeds the `1/M_remerge`
//! recorded when it was merged.

use cludistream_gmm::Gaussian;

/// Floor applied before inversion so coincident means yield large-but-
/// finite re-merge scores.
const DIST_FLOOR: f64 = 1e-12;

/// The paper's Eq. 6 split criterion: the precision-weighted squared
/// distance between a component's mean and its father mixture's aggregate
/// mean. Large values mean the component no longer belongs.
pub fn m_split(component: &Gaussian, mix_aggregate: &Gaussian) -> f64 {
    component.precision_weighted_mean_dist(mix_aggregate)
}

/// The re-merge criterion: `M_remerge(i, Mix) = 1 / M_split(i, Mix)`.
/// The split component re-merges into the group with the *largest*
/// `M_remerge` (equivalently the smallest Mahalanobis distance).
pub fn m_remerge(component: &Gaussian, mix_aggregate: &Gaussian) -> f64 {
    1.0 / m_split(component, mix_aggregate).max(DIST_FLOOR)
}

/// The split decision of Algorithm 2: split when the component's current
/// `M_split` exceeds the reciprocal of the `M_remerge` stored when it was
/// merged into the group.
pub(crate) fn should_split(current_m_split: f64, remerge_at_merge: f64) -> bool {
    current_m_split > 1.0 / remerge_at_merge.max(DIST_FLOOR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_linalg::Vector;

    fn g(center: f64) -> Gaussian {
        Gaussian::spherical(Vector::from_slice(&[center, 0.0]), 1.0).unwrap()
    }

    #[test]
    fn split_grows_with_distance() {
        let agg = g(0.0);
        assert!(m_split(&g(5.0), &agg) > m_split(&g(1.0), &agg));
        assert_eq!(m_split(&g(0.0), &agg), 0.0);
    }

    #[test]
    fn remerge_is_reciprocal_of_split() {
        let agg = g(0.0);
        let c = g(2.0);
        let s = m_split(&c, &agg);
        assert!((m_remerge(&c, &agg) - 1.0 / s).abs() < 1e-9);
    }

    #[test]
    fn remerge_finite_at_zero_distance() {
        let agg = g(0.0);
        assert!(m_remerge(&g(0.0), &agg).is_finite());
    }

    #[test]
    fn split_decision_uses_stored_remerge() {
        // Merged at distance² 1 → stored M_remerge = 1. Splits only when the
        // current distance² exceeds 1.
        assert!(!should_split(0.5, 1.0));
        assert!(!should_split(1.0, 1.0));
        assert!(should_split(1.5, 1.0));
    }

    #[test]
    fn known_value_1d() {
        // Unit-variance 2-d spherical components 2 apart along x:
        // dist = 2, precisions sum to 2I → M_split = 2·2·2 = 8.
        let s = m_split(&g(2.0), &g(0.0));
        assert!((s - 8.0).abs() < 1e-9, "split {s}");
    }
}
