//! Shared helpers for the figure experiments.

use cludistream::Config;
use cludistream_gmm::{ChunkParams, Mixture};
use cludistream_linalg::Vector;
use std::collections::VecDeque;

/// The paper's default remote-site configuration (Sec. 6): δ=0.01, ε=0.02,
/// d=4, K=5, c_max=4.
pub(crate) fn paper_config() -> Config {
    Config {
        dim: 4,
        k: 5,
        chunk: ChunkParams { epsilon: 0.02, delta: 0.01 },
        c_max: 4,
        seed: 7,
        ..Default::default()
    }
}

/// Paper configuration adjusted to another dimensionality (NFD-like d=6,
/// or the d sweeps).
pub(crate) fn paper_config_dim(dim: usize) -> Config {
    Config { dim, ..paper_config() }
}

/// A bounded window of the most recent records — the evaluation data for
/// horizon-quality figures.
#[derive(Debug)]
pub struct RollingWindow {
    cap: usize,
    buf: VecDeque<Vector>,
}

impl RollingWindow {
    /// Creates a window holding the last `cap` records.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "window capacity must be positive");
        RollingWindow { cap, buf: VecDeque::with_capacity(cap) }
    }

    /// Pushes a record, evicting the oldest when full.
    pub fn push(&mut self, x: Vector) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(x);
    }

    /// Records currently held (oldest first).
    pub fn records(&self) -> Vec<Vector> {
        self.buf.iter().cloned().collect()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Average log likelihood of `data` under an optional model; `NaN` when
/// there is no model or no data (renders as a gap rather than skewing the
/// series).
pub(crate) fn quality(model: Option<&Mixture>, data: &[Vector]) -> f64 {
    match model {
        Some(m) if !data.is_empty() => m.avg_log_likelihood(data),
        _ => f64::NAN,
    }
}

/// A stream cycling deterministically through `n_regimes` random mixtures,
/// `records_per_regime` records at a time — the workload where the
/// multi-test strategy shines (alternating distributions, Sec. 5.1.2).
pub(crate) fn cycling_stream(
    dim: usize,
    k: usize,
    n_regimes: usize,
    records_per_regime: usize,
    seed: u64,
) -> impl Iterator<Item = Vector> {
    use cludistream_datagen::{random_mixture, MixtureGenConfig};
    use cludistream_rng::StdRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = MixtureGenConfig { dim, k, ..Default::default() };
    let regimes: Vec<Mixture> = (0..n_regimes).map(|_| random_mixture(&cfg, &mut rng)).collect();
    let mut i = 0usize;
    std::iter::from_fn(move || {
        let regime = (i / records_per_regime) % regimes.len();
        i += 1;
        Some(regimes[regime].sample(&mut rng))
    })
}

/// A cycling stream whose regimes are *well-separated spherical* mixtures
/// at deterministic positions: every regime has the same clustering
/// difficulty, so scalability sweeps (Fig. 9) measure per-operation cost
/// rather than EM convergence luck.
pub(crate) fn separated_cycling_stream(
    dim: usize,
    k: usize,
    n_regimes: usize,
    records_per_regime: usize,
    seed: u64,
) -> impl Iterator<Item = Vector> {
    use cludistream_gmm::Gaussian;
    use cludistream_rng::StdRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let regimes: Vec<Mixture> = (0..n_regimes)
        .map(|r| {
            let comps: Vec<Gaussian> = (0..k)
                .map(|i| {
                    let mut mean = Vector::zeros(dim);
                    // Regimes offset along axis 0; components spread along
                    // axis 0 (and axis 1 when present) with gap 12σ.
                    mean[0] = (r * 1000) as f64 + (i as f64) * 12.0;
                    if dim > 1 {
                        mean[1] = (i as f64) * 5.0;
                    }
                    Gaussian::spherical(mean, 1.0).expect("valid sphere")
                })
                .collect();
            Mixture::uniform(comps).expect("valid mixture")
        })
        .collect();
    let mut i = 0usize;
    std::iter::from_fn(move || {
        let regime = (i / records_per_regime) % regimes.len();
        i += 1;
        Some(regimes[regime].sample(&mut rng))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_window_evicts_oldest() {
        let mut w = RollingWindow::new(2);
        w.push(Vector::from_slice(&[1.0]));
        w.push(Vector::from_slice(&[2.0]));
        w.push(Vector::from_slice(&[3.0]));
        let r = w.records();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0][0], 2.0);
        assert_eq!(r[1][0], 3.0);
        assert!(!w.is_empty());
    }

    #[test]
    fn quality_nan_without_model_or_data() {
        assert!(quality(None, &[Vector::zeros(1)]).is_nan());
        let m = Mixture::single(
            cludistream_gmm::Gaussian::spherical(Vector::zeros(1), 1.0).unwrap(),
        );
        assert!(quality(Some(&m), &[]).is_nan());
        assert!(quality(Some(&m), &[Vector::zeros(1)]).is_finite());
    }

    #[test]
    fn cycling_stream_revisits_regimes() {
        let recs: Vec<Vector> = cycling_stream(1, 1, 2, 50, 1).take(200).collect();
        // Records 0..50 and 100..150 come from the same regime; their means
        // should agree far better than across regimes.
        let mean = |s: &[Vector]| s.iter().map(|x| x[0]).sum::<f64>() / s.len() as f64;
        let (a1, b, a2) = (mean(&recs[..50]), mean(&recs[50..100]), mean(&recs[100..150]));
        assert!((a1 - a2).abs() < (a1 - b).abs(), "a1={a1} b={b} a2={a2}");
    }

    #[test]
    fn paper_config_is_paper() {
        let c = paper_config();
        assert_eq!((c.dim, c.k, c.c_max), (4, 5, 4));
        assert_eq!(c.chunk.epsilon, 0.02);
        assert_eq!(paper_config_dim(6).dim, 6);
    }
}
