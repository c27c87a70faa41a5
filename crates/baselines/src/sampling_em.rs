use crate::ReservoirSampler;
use cludistream_gmm::{fit_em, EmConfig, GmmError, Mixture};
use cludistream_linalg::Vector;
use cludistream_rng::StdRng;

/// EM iterations per refit.
const EM_ITERS: usize = 50;

/// EM convergence tolerance.
const EM_TOL: f64 = 1e-4;

/// Configuration of the sampling-based EM baseline (paper Fig. 6).
#[derive(Debug, Clone)]
pub struct SamplingEmConfig {
    /// Mixture components K.
    pub k: usize,
    /// Reservoir capacity (records kept).
    pub sample_size: usize,
    /// Refit the model after this many new records.
    pub refit_interval: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SamplingEmConfig {
    fn default() -> Self {
        SamplingEmConfig {
            k: 5,
            sample_size: 1000,
            refit_interval: 2000,
            seed: 0,
        }
    }
}

/// EM over a uniform reservoir sample of the stream.
///
/// The paper's Fig. 6 shows this losing to both CluDistream and SEM
/// "since the sampling may lose a lot of valuable clustering information" —
/// the sample thins out every region as the stream grows, and rare or old
/// regimes fade from the reservoir.
#[derive(Debug)]
pub struct SamplingEm {
    config: SamplingEmConfig,
    reservoir: ReservoirSampler<Vector>,
    rng: StdRng,
    mixture: Option<Mixture>,
    since_refit: usize,
    refits: u64,
}

impl SamplingEm {
    /// Creates the baseline.
    pub fn new(config: SamplingEmConfig) -> Result<Self, GmmError> {
        if config.k == 0 {
            return Err(GmmError::InvalidParameter { name: "k", constraint: "k >= 1" });
        }
        if config.sample_size < config.k {
            return Err(GmmError::InvalidParameter {
                name: "sample_size",
                constraint: "sample_size >= k",
            });
        }
        if config.refit_interval == 0 {
            return Err(GmmError::InvalidParameter {
                name: "refit_interval",
                constraint: "refit_interval >= 1",
            });
        }
        Ok(SamplingEm {
            reservoir: ReservoirSampler::new(config.sample_size),
            rng: StdRng::seed_from_u64(config.seed),
            mixture: None,
            since_refit: 0,
            refits: 0,
            config,
        })
    }

    /// The current model (None before the first refit).
    pub fn mixture(&self) -> Option<&Mixture> {
        self.mixture.as_ref()
    }

    /// Refits performed.
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Consumes one record; returns true when a refit happened.
    pub fn push(&mut self, x: Vector) -> Result<bool, GmmError> {
        self.reservoir.offer(x, &mut self.rng);
        self.since_refit += 1;
        if self.since_refit < self.config.refit_interval
            && !(self.mixture.is_none() && self.reservoir.items().len() >= self.config.sample_size)
        {
            return Ok(false);
        }
        if self.reservoir.items().len() < self.config.k {
            return Ok(false);
        }
        self.refit()?;
        Ok(true)
    }

    /// Forces a refit over the current reservoir.
    pub(crate) fn refit(&mut self) -> Result<(), GmmError> {
        let fit = fit_em(
            self.reservoir.items(),
            &EmConfig {
                k: self.config.k,
                max_iters: EM_ITERS,
                tol: EM_TOL,
                seed: self.config.seed.wrapping_add(self.refits),
                ..Default::default()
            },
        )?;
        self.mixture = Some(fit.mixture);
        self.since_refit = 0;
        self.refits += 1;
        Ok(())
    }

    /// Average log likelihood of `data` under the current model.
    pub fn avg_log_likelihood(&self, data: &[Vector]) -> f64 {
        self.mixture.as_ref().map_or(f64::NEG_INFINITY, |m| m.avg_log_likelihood(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_gmm::Gaussian;

    fn blob_stream(center: f64, n: usize, seed: u64) -> Vec<Vector> {
        let g = Gaussian::spherical(Vector::from_slice(&[center]), 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| g.sample(&mut rng)).collect()
    }

    #[test]
    fn learns_simple_blob() {
        let mut s = SamplingEm::new(SamplingEmConfig {
            k: 1,
            sample_size: 200,
            refit_interval: 200,
            seed: 1,
            ..Default::default()
        })
        .unwrap();
        for x in blob_stream(5.0, 500, 2) {
            s.push(x).unwrap();
        }
        let m = s.mixture().expect("model");
        assert!((m.components()[0].mean()[0] - 5.0).abs() < 0.3);
        assert!(s.refits() >= 2);
    }

    #[test]
    fn no_model_before_enough_data() {
        let mut s = SamplingEm::new(SamplingEmConfig {
            k: 2,
            sample_size: 100,
            refit_interval: 1000,
            ..Default::default()
        })
        .unwrap();
        s.push(Vector::from_slice(&[0.0])).unwrap();
        assert!(s.mixture().is_none());
    }

    #[test]
    fn old_regime_fades_from_reservoir() {
        // After a long new regime, the reservoir (and hence the model) is
        // dominated by recent data — the information loss Fig. 6 exhibits.
        let mut s = SamplingEm::new(SamplingEmConfig {
            k: 2,
            sample_size: 100,
            refit_interval: 500,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        for x in blob_stream(0.0, 500, 4) {
            s.push(x).unwrap();
        }
        for x in blob_stream(50.0, 20_000, 5) {
            s.push(x).unwrap();
        }
        let old_frac = s
            .reservoir
            .items()
            .iter()
            .filter(|x| x[0].abs() < 25.0)
            .count() as f64
            / s.reservoir.items().len() as f64;
        assert!(old_frac < 0.12, "old regime still holds {old_frac} of the reservoir");
        // And the model explains old data much worse than recent data.
        let old_data = blob_stream(0.0, 200, 6);
        let new_data = blob_stream(50.0, 200, 6);
        let (old_ll, new_ll) =
            (s.avg_log_likelihood(&old_data), s.avg_log_likelihood(&new_data));
        assert!(old_ll < new_ll - 2.0, "no fade: old {old_ll} vs new {new_ll}");
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SamplingEm::new(SamplingEmConfig { k: 0, ..Default::default() }).is_err());
        assert!(SamplingEm::new(SamplingEmConfig { k: 5, sample_size: 2, ..Default::default() })
            .is_err());
        assert!(SamplingEm::new(SamplingEmConfig { refit_interval: 0, ..Default::default() })
            .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut s = SamplingEm::new(SamplingEmConfig {
                k: 1,
                sample_size: 50,
                refit_interval: 100,
                seed: 9,
                ..Default::default()
            })
            .unwrap();
            for x in blob_stream(3.0, 300, 10) {
                s.push(x).unwrap();
            }
            s.mixture().unwrap().components()[0].mean()[0]
        };
        assert_eq!(mk(), mk());
    }
}
