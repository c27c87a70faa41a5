use cludistream_gmm::{ChunkParams, CovarianceType, GmmError};

/// Configuration of a CluDistream remote site (and, transitively, of the
/// whole framework). Field defaults follow the paper's experimental
/// setting (Sec. 6): ε = 0.02, δ = 0.01, K = 5, c_max = 4.
#[derive(Debug, Clone)]
pub struct Config {
    /// Record dimensionality d.
    pub dim: usize,
    /// Components per mixture model K.
    pub k: usize,
    /// Chunking/test accuracy parameters (ε, δ).
    pub chunk: ChunkParams,
    /// Maximum number of model-fit tests per chunk (the paper's `c_max`):
    /// 1 test against the current model plus up to `c_max - 1` against the
    /// most recent models in the model list.
    pub c_max: usize,
    /// EM convergence threshold ϖ (average log-likelihood difference).
    pub em_tol: f64,
    /// Maximum EM iterations per clustering call.
    pub em_max_iters: usize,
    /// Covariance structure of the component Gaussians.
    pub covariance: CovarianceType,
    /// Seed for EM initialization (each chunk clustering perturbs it
    /// deterministically).
    pub seed: u64,
    /// Bound on the model list (Theorem 3's B term). The paper lets the
    /// list grow with every distribution ever seen; with a bound, creating
    /// a model beyond it evicts the least-recently-active non-current
    /// model (its event-table spans remain but horizon queries skip it).
    /// `None` (default) reproduces the paper's unbounded behaviour.
    pub max_models: Option<usize>,
    /// Opt-in model-quality plane (`false`, the default, disables it).
    /// When set, the site emits per-chunk quality gauges (held-out avg
    /// log likelihood, test statistic, weight entropy/extrema,
    /// re-cluster EWMA, synopsis bytes per record) and runs the
    /// Page-Hinkley/EWMA drift detectors over the likelihood series, at
    /// the fixed tuning of `cludistream_obs::quality`.
    /// Quality emissions are counters/gauges only — never journal
    /// events — so enabling it cannot perturb golden journal fixtures.
    pub quality: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            dim: 4,
            k: 5,
            chunk: ChunkParams::PAPER_DEFAULTS,
            c_max: 4,
            em_tol: 1e-4,
            em_max_iters: 100,
            covariance: CovarianceType::Full,
            seed: 0,
            max_models: None,
            quality: false,
        }
    }
}

impl Config {
    /// Validates the configuration.
    pub(crate) fn validate(&self) -> Result<(), GmmError> {
        if self.dim == 0 {
            return Err(GmmError::InvalidParameter { name: "dim", constraint: "dim >= 1" });
        }
        if self.k == 0 {
            return Err(GmmError::InvalidParameter { name: "k", constraint: "k >= 1" });
        }
        if self.c_max == 0 {
            return Err(GmmError::InvalidParameter { name: "c_max", constraint: "c_max >= 1" });
        }
        if self.em_tol.is_nan() || self.em_tol < 0.0 {
            return Err(GmmError::InvalidParameter { name: "em_tol", constraint: "em_tol >= 0" });
        }
        if self.em_max_iters == 0 {
            return Err(GmmError::InvalidParameter {
                name: "em_max_iters",
                constraint: "em_max_iters >= 1",
            });
        }
        if self.max_models == Some(0) || self.max_models == Some(1) {
            return Err(GmmError::InvalidParameter {
                name: "max_models",
                constraint: "at least 2 (current + one history slot) or None",
            });
        }
        self.chunk.validate()
    }

    /// Chunk size M for this configuration (Theorem 1), clamped so a chunk
    /// can always hold K components' worth of data.
    pub fn chunk_size(&self) -> Result<usize, GmmError> {
        Ok(self.chunk.chunk_size(self.dim)?.max(self.k * (self.dim + 1)))
    }

    /// The EM configuration used for chunk clustering; `chunk_seed` makes
    /// per-chunk initialization deterministic but distinct.
    pub fn em_config(&self, chunk_seed: u64) -> cludistream_gmm::EmConfig {
        cludistream_gmm::EmConfig {
            k: self.k,
            max_iters: self.em_max_iters,
            tol: self.em_tol,
            covariance: self.covariance,
            seed: self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(chunk_seed),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = Config::default();
        assert_eq!(c.dim, 4);
        assert_eq!(c.k, 5);
        assert_eq!(c.c_max, 4);
        assert_eq!(c.chunk.epsilon, 0.02);
        assert_eq!(c.chunk.delta, 0.01);
        assert!(c.validate().is_ok());
        assert_eq!(c.chunk_size().unwrap(), 1567);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Config { dim: 0, ..Default::default() }.validate().is_err());
        assert!(Config { k: 0, ..Default::default() }.validate().is_err());
        assert!(Config { c_max: 0, ..Default::default() }.validate().is_err());
        assert!(Config { em_tol: -1.0, ..Default::default() }.validate().is_err());
        assert!(Config { em_max_iters: 0, ..Default::default() }.validate().is_err());
        let mut c = Config::default();
        c.chunk.epsilon = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn chunk_size_clamped_for_large_k() {
        // Huge ε would give a tiny M; the clamp keeps EM feasible.
        let c = Config {
            k: 10,
            dim: 4,
            chunk: ChunkParams { epsilon: 100.0, delta: 0.5 },
            ..Default::default()
        };
        assert_eq!(c.chunk_size().unwrap(), 50);
    }

    #[test]
    fn max_models_validation() {
        assert!(Config { max_models: Some(2), ..Default::default() }.validate().is_ok());
        assert!(Config { max_models: None, ..Default::default() }.validate().is_ok());
        assert!(Config { max_models: Some(0), ..Default::default() }.validate().is_err());
        assert!(Config { max_models: Some(1), ..Default::default() }.validate().is_err());
    }

    #[test]
    fn em_config_seeds_differ_per_chunk() {
        let c = Config::default();
        assert_ne!(c.em_config(0).seed, c.em_config(1).seed);
        assert_eq!(c.em_config(5).seed, c.em_config(5).seed);
    }
}
