use crate::{random_mixture, MixtureGenConfig};
use cludistream_gmm::Mixture;
use cludistream_linalg::Vector;
use cludistream_rng::{Rng, StdRng};

/// Configuration of the paper's synthetic evolving stream: "the data records
/// in each synthetic data set follow a series of Gaussian distributions. To
/// reflect the evolution of the stream data over time, we generate new
/// Gaussian distribution for every 2K points by probability P_d."
#[derive(Debug, Clone)]
pub struct EvolvingStreamConfig {
    /// Record dimensionality.
    pub dim: usize,
    /// Components per regime mixture.
    pub k: usize,
    /// Probability of switching to a freshly drawn mixture at each regime
    /// boundary (the paper's `P_d`, default 0.1).
    pub p_new: f64,
    /// Records between regime-change opportunities (the paper's 2K points).
    pub regime_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EvolvingStreamConfig {
    fn default() -> Self {
        EvolvingStreamConfig {
            dim: 4,
            k: 5,
            p_new: 0.1,
            regime_len: 2000,
            seed: 0,
        }
    }
}

/// An infinite synthetic data stream drawn from a series of random Gaussian
/// mixtures. Iterating yields records; [`EvolvingStream::regime_id`] exposes
/// the identity of the generating distribution so experiments can score
/// clustering quality against ground truth.
#[derive(Debug)]
pub struct EvolvingStream {
    config: EvolvingStreamConfig,
    /// The shape of the mixtures drawn at regime changes.
    mixture: MixtureGenConfig,
    rng: StdRng,
    current: Mixture,
    /// Records emitted so far.
    emitted: usize,
    /// Identity of the current generating regime (increments on change).
    regime_id: usize,
    /// `(start_index, regime_id)` history of regime switches.
    history: Vec<(usize, usize)>,
}

impl EvolvingStream {
    /// Creates the stream, drawing the first regime's mixture immediately.
    pub fn new(config: EvolvingStreamConfig) -> Self {
        assert!(config.regime_len > 0, "regime_len must be positive");
        assert!((0.0..=1.0).contains(&config.p_new), "p_new must be a probability");
        let mixture = MixtureGenConfig { dim: config.dim, k: config.k };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let current = random_mixture(&mixture, &mut rng);
        EvolvingStream {
            config,
            mixture,
            rng,
            current,
            emitted: 0,
            regime_id: 0,
            history: vec![(0, 0)],
        }
    }

    /// Identity of the regime generating the *next* record.
    pub fn regime_id(&self) -> usize {
        self.regime_id
    }

    /// `(start_index, regime_id)` pairs, in order; the ground-truth event
    /// table for evolving-analysis experiments.
    pub fn history(&self) -> &[(usize, usize)] {
        &self.history
    }

    /// Collects the next `n` records into a vector.
    pub fn take_chunk(&mut self, n: usize) -> Vec<Vector> {
        self.by_ref().take(n).collect()
    }
}

impl Iterator for EvolvingStream {
    type Item = Vector;

    fn next(&mut self) -> Option<Vector> {
        // Regime boundary every `regime_len` records (not at the start).
        if self.emitted > 0 && self.emitted.is_multiple_of(self.config.regime_len) {
            let roll: f64 = self.rng.gen();
            if roll < self.config.p_new {
                self.current = random_mixture(&self.mixture, &mut self.rng);
                self.regime_id += 1;
                self.history.push((self.emitted, self.regime_id));
            }
        }
        self.emitted += 1;
        Some(self.current.sample(&mut self.rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(p_new: f64, seed: u64) -> EvolvingStreamConfig {
        EvolvingStreamConfig {
            dim: 2,
            k: 3,
            p_new,
            regime_len: 100,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn emits_records_of_right_dimension() {
        let mut s = EvolvingStream::new(config(0.1, 1));
        let recs = s.take_chunk(50);
        assert_eq!(recs.len(), 50);
        assert!(recs.iter().all(|r| r.dim() == 2 && r.is_finite()));
    }

    #[test]
    fn p_zero_never_changes_regime() {
        let mut s = EvolvingStream::new(config(0.0, 2));
        let _ = s.take_chunk(1000);
        assert_eq!(s.regime_id(), 0);
        assert_eq!(s.history().len(), 1);
    }

    #[test]
    fn p_one_changes_every_boundary() {
        let mut s = EvolvingStream::new(config(1.0, 3));
        let _ = s.take_chunk(1000);
        // Boundaries at 100, 200, ..., 900 → 9 changes after 1000 records.
        assert_eq!(s.regime_id(), 9);
        assert_eq!(s.history().len(), 10);
        assert_eq!(s.history()[1], (100, 1));
    }

    #[test]
    fn change_rate_approximates_p_new() {
        let mut s = EvolvingStream::new(config(0.3, 4));
        let _ = s.take_chunk(100 * 400);
        let boundaries = 399.0;
        let rate = s.regime_id() as f64 / boundaries;
        assert!((rate - 0.3).abs() < 0.08, "rate {rate}");
    }

    #[test]
    fn regime_change_shifts_distribution() {
        let mut s = EvolvingStream::new(EvolvingStreamConfig {
            dim: 1,
            k: 1,
            p_new: 1.0,
            regime_len: 500,
            seed: 5,
            ..Default::default()
        });
        let before: Vec<Vector> = s.take_chunk(500);
        let after: Vec<Vector> = s.take_chunk(500);
        let mean = |v: &[Vector]| v.iter().map(|x| x[0]).sum::<f64>() / v.len() as f64;
        // With means drawn from (-10,10) and unit-ish variances, two draws
        // almost surely differ by more than the sampling noise.
        assert!((mean(&before) - mean(&after)).abs() > 0.2, "means suspiciously close");
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<Vector> = EvolvingStream::new(config(0.5, 6)).take(200).collect();
        let b: Vec<Vector> = EvolvingStream::new(config(0.5, 6)).take(200).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn history_tracks_start_indices() {
        let mut s = EvolvingStream::new(config(1.0, 7));
        let _ = s.take_chunk(350);
        let h = s.history();
        assert_eq!(h[0], (0, 0));
        assert!(h[1..].iter().all(|&(start, _)| start % 100 == 0));
    }

    #[test]
    #[should_panic(expected = "p_new must be a probability")]
    fn invalid_probability_panics() {
        let _ = EvolvingStream::new(config(1.5, 8));
    }
}
