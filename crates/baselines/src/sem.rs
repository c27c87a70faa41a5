//! SEM — the scalable EM algorithm of Bradley, Reina and Fayyad
//! ("Clustering very large databases using EM mixture models", reference
//! \[6\] of the paper): the primary comparator in the paper's evaluation.
//!
//! SEM maintains a *single* evolving K-component mixture over a bounded
//! working set:
//!
//! - a **retained set** (RS) of raw records still individually useful;
//! - per-component **discard sets** (DS): sufficient statistics of records
//!   confidently assigned to a component (primary compression);
//! - **compression sets** (CS): sufficient statistics of tight sub-clusters
//!   of the remainder (secondary compression).
//!
//! Each filled buffer triggers an *extended EM* pass over RS ∪ DS ∪ CS
//! (statistics participate as weighted pseudo-points carrying their own
//! scatter), after which the compression phases shrink RS back down. The
//! paper's critique — that one model fitted across different distributions
//! "inevitably reduc[es] the clustering quality" — is exactly what the
//! quality experiments show.

use cludistream_gmm::{
    fit_em, kmeans, log_sum_exp, EmConfig, Gaussian, GmmError, KMeansConfig, Mixture, SuffStats,
};
use cludistream_linalg::Vector;

/// Primary compression: a record folds into its MAP component's discard
/// set when its squared Mahalanobis distance is at most
/// `COMPRESSION_RADIUS × d`.
const COMPRESSION_RADIUS: f64 = 1.0;

/// Secondary compression: sub-clusters found among the remaining records
/// are compressed when their largest per-axis std is below this limit
/// (relative to the global per-axis std).
const SECONDARY_STD_LIMIT: f64 = 0.5;

/// Sub-clusters sought by secondary compression per pass.
const SECONDARY_SUBCLUSTERS: usize = 10;

/// Extended-EM iterations per pass.
const EM_ITERS: usize = 30;

/// Extended-EM convergence tolerance on the average log likelihood.
const EM_TOL: f64 = 1e-4;

/// SEM tuning parameters.
#[derive(Debug, Clone)]
pub struct SemConfig {
    /// Mixture components K.
    pub k: usize,
    /// Records buffered before an extended-EM pass.
    pub buffer_size: usize,
    /// RNG seed (initial EM and sub-clustering).
    pub seed: u64,
}

impl Default for SemConfig {
    fn default() -> Self {
        SemConfig { k: 5, buffer_size: 1000, seed: 0 }
    }
}

/// SEM processing counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SemStats {
    /// Records consumed.
    pub records: u64,
    /// Extended-EM passes.
    pub em_runs: u64,
    /// Total EM iterations.
    pub em_iterations: u64,
    /// Records absorbed by primary compression.
    pub primary_compressed: u64,
    /// Records absorbed by secondary compression.
    pub secondary_compressed: u64,
}

/// The SEM state machine. Push records with [`ScalableEm::push`]; the
/// current model is available from [`ScalableEm::mixture`] after the first
/// buffer fills.
#[derive(Debug)]
pub struct ScalableEm {
    config: SemConfig,
    dim: Option<usize>,
    buffer: Vec<Vector>,
    retained: Vec<Vector>,
    discard: Vec<SuffStats>,
    compressed: Vec<SuffStats>,
    mixture: Option<Mixture>,
    stats: SemStats,
}

impl ScalableEm {
    /// Creates an SEM instance.
    pub fn new(config: SemConfig) -> Result<Self, GmmError> {
        if config.k == 0 {
            return Err(GmmError::InvalidParameter { name: "k", constraint: "k >= 1" });
        }
        if config.buffer_size < config.k {
            return Err(GmmError::InvalidParameter {
                name: "buffer_size",
                constraint: "buffer_size >= k",
            });
        }
        Ok(ScalableEm {
            config,
            dim: None,
            buffer: Vec::new(),
            retained: Vec::new(),
            discard: Vec::new(),
            compressed: Vec::new(),
            mixture: None,
            stats: SemStats::default(),
        })
    }

    /// The current model (None until the first buffer has been processed).
    pub fn mixture(&self) -> Option<&Mixture> {
        self.mixture.as_ref()
    }

    /// Processing counters.
    pub fn stats(&self) -> SemStats {
        self.stats
    }

    /// Consumes one record; returns true when this record triggered an
    /// extended-EM pass.
    pub fn push(&mut self, x: Vector) -> Result<bool, GmmError> {
        match self.dim {
            None => self.dim = Some(x.dim()),
            Some(d) if d != x.dim() => {
                return Err(GmmError::DimensionMismatch { expected: d, got: x.dim() })
            }
            _ => {}
        }
        self.stats.records += 1;
        self.buffer.push(x);
        if self.buffer.len() < self.config.buffer_size {
            return Ok(false);
        }
        self.process_buffer()?;
        Ok(true)
    }

    /// Average log likelihood of `data` under the current model (`-inf`
    /// before the first model exists).
    pub fn avg_log_likelihood(&self, data: &[Vector]) -> f64 {
        self.mixture.as_ref().map_or(f64::NEG_INFINITY, |m| m.avg_log_likelihood(data))
    }

    fn process_buffer(&mut self) -> Result<(), GmmError> {
        let d = self.dim.expect("dimension fixed by first record");
        self.retained.append(&mut self.buffer);
        self.stats.em_runs += 1;

        // Fit or refine the model over RS ∪ DS ∪ CS.
        let mixture = match self.mixture.take() {
            None => {
                let fit = fit_em(
                    &self.retained,
                    &EmConfig {
                        k: self.config.k,
                        max_iters: EM_ITERS,
                        tol: EM_TOL,
                        seed: self.config.seed,
                        ..Default::default()
                    },
                )?;
                self.stats.em_iterations += fit.iterations as u64;
                fit.mixture
            }
            Some(current) => {
                let (mixture, iters) = extended_em(
                    &self.retained,
                    self.discard.iter().chain(self.compressed.iter()),
                    current,
                )?;
                self.stats.em_iterations += iters as u64;
                mixture
            }
        };

        // Primary compression: fold confident records into discard sets.
        if self.discard.len() != mixture.k() {
            // Component count is fixed, so this only happens on the first
            // pass.
            self.discard = (0..mixture.k()).map(|_| SuffStats::new(d)).collect();
        }
        let radius = COMPRESSION_RADIUS * d as f64;
        let mut kept = Vec::with_capacity(self.retained.len());
        for x in self.retained.drain(..) {
            let j = mixture.map_component(&x);
            if mixture.components()[j].mahalanobis_sq(&x) <= radius {
                self.discard[j].add(&x, 1.0);
                self.stats.primary_compressed += 1;
            } else {
                kept.push(x);
            }
        }
        self.retained = kept;

        // Secondary compression: sub-cluster the remainder and absorb tight
        // sub-clusters into CS.
        if self.retained.len() > 2 * SECONDARY_SUBCLUSTERS {
            let global_std = {
                let mut s = SuffStats::new(d);
                for x in &self.retained {
                    s.add(x, 1.0);
                }
                let cov = s.cov()?;
                (cov.trace() / d as f64).sqrt().max(1e-12)
            };
            let km = kmeans(
                &self.retained,
                &KMeansConfig {
                    k: SECONDARY_SUBCLUSTERS,
                    max_iters: 10,
                    seed: self.config.seed ^ self.stats.em_runs,
                },
            )?;
            let mut sub: Vec<SuffStats> =
                (0..SECONDARY_SUBCLUSTERS).map(|_| SuffStats::new(d)).collect();
            for (&a, x) in km.assignments.iter().zip(&self.retained) {
                sub[a].add(x, 1.0);
            }
            let mut kept = Vec::new();
            let mut absorbed = vec![false; SECONDARY_SUBCLUSTERS];
            for (i, s) in sub.iter().enumerate() {
                if s.n() < 2.0 {
                    continue;
                }
                let cov = s.cov()?;
                let max_std = cov.diag().iter().map(|v| v.max(0.0).sqrt()).fold(0.0, f64::max);
                if max_std <= SECONDARY_STD_LIMIT * global_std {
                    absorbed[i] = true;
                    self.stats.secondary_compressed += s.n() as u64;
                    self.compressed.push(s.clone());
                }
            }
            for (&a, x) in km.assignments.iter().zip(self.retained.drain(..)) {
                if !absorbed[a] {
                    kept.push(x);
                }
            }
            self.retained = kept;
        }

        self.mixture = Some(mixture);
        Ok(())
    }
}

/// Extended EM over raw points plus sufficient statistics, warm-started
/// from `initial`. Statistics participate with their full mass at their
/// mean and contribute their internal scatter to the component that claims
/// them. Returns the refined mixture and the iterations performed.
fn extended_em<'a>(
    points: &[Vector],
    stats: impl Iterator<Item = &'a SuffStats> + Clone,
    initial: Mixture,
) -> Result<(Mixture, usize), GmmError> {
    let k = initial.k();
    let d = initial.dim();
    let mut mixture = initial;
    let mut prev_avg = f64::NEG_INFINITY;
    let mut iterations = 0;

    for iter in 0..EM_ITERS {
        iterations = iter + 1;
        let mut acc: Vec<SuffStats> = (0..k).map(|_| SuffStats::new(d)).collect();
        let mut total_ll = 0.0;
        let mut total_mass = 0.0;
        let log_weights: Vec<f64> = mixture
            .weights()
            .iter()
            .map(|&w| if w > 0.0 { w.ln() } else { f64::NEG_INFINITY })
            .collect();

        let eval = |x: &Vector, mass: f64, source: Option<&SuffStats>,
                        acc: &mut Vec<SuffStats>| {
            let terms: Vec<f64> = mixture
                .components()
                .iter()
                .zip(&log_weights)
                .map(|(c, lw)| lw + c.log_pdf(x))
                .collect();
            let norm = log_sum_exp(&terms);
            if !norm.is_finite() {
                return 0.0;
            }
            for (&t, a) in terms.iter().zip(acc.iter_mut()) {
                let r = (t - norm).exp();
                if r <= 0.0 {
                    continue;
                }
                match source {
                    None => a.add(x, r),
                    // Scale the block's statistics by the responsibility so
                    // mean AND scatter transfer proportionally.
                    Some(s) => a.merge(&s.scaled(r)),
                }
            }
            norm * mass
        };

        for x in points {
            total_ll += eval(x, 1.0, None, &mut acc);
            total_mass += 1.0;
        }
        for s in stats.clone() {
            if s.is_empty() {
                continue;
            }
            let mean = s.mean()?;
            total_ll += eval(&mean, s.n(), Some(s), &mut acc);
            total_mass += s.n();
        }
        if total_mass <= 0.0 {
            return Err(GmmError::NotEnoughData { have: 0, need: 1 });
        }

        let avg = total_ll / total_mass;
        if (avg - prev_avg).abs() <= EM_TOL {
            break;
        }
        prev_avg = avg;

        // M-step.
        let mut comps = Vec::with_capacity(k);
        let mut weights = Vec::with_capacity(k);
        for (a, old) in acc.iter().zip(mixture.components()) {
            if a.n() < 1e-9 {
                // Starved component: keep its old parameters with a floor
                // weight.
                comps.push(old.clone());
                weights.push(1e-9);
                continue;
            }
            comps.push(Gaussian::new(a.mean()?, a.cov()?)?);
            weights.push(a.n());
        }
        mixture = Mixture::new(comps, weights)?;
    }
    Ok((mixture, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_rng::StdRng;

    fn two_blob_data(n: usize, seed: u64) -> Vec<Vector> {
        let m = Mixture::new(
            vec![
                Gaussian::spherical(Vector::from_slice(&[0.0, 0.0]), 0.5).unwrap(),
                Gaussian::spherical(Vector::from_slice(&[10.0, 10.0]), 0.5).unwrap(),
            ],
            vec![0.5, 0.5],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| m.sample(&mut rng)).collect()
    }

    fn sem(k: usize, buffer: usize) -> ScalableEm {
        ScalableEm::new(SemConfig { k, buffer_size: buffer, seed: 1, ..Default::default() })
            .unwrap()
    }

    #[test]
    fn first_buffer_builds_model() {
        let mut s = sem(2, 200);
        for x in two_blob_data(200, 1) {
            s.push(x).unwrap();
        }
        let m = s.mixture().expect("model after first buffer");
        assert_eq!(m.k(), 2);
        let mut means: Vec<f64> = m.components().iter().map(|c| c.mean()[0]).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(means[0].abs() < 1.0, "means {means:?}");
        assert!((means[1] - 10.0).abs() < 1.0, "means {means:?}");
    }

    #[test]
    fn no_model_before_first_buffer() {
        let mut s = sem(2, 500);
        for x in two_blob_data(100, 2) {
            s.push(x).unwrap();
        }
        assert!(s.mixture().is_none());
        assert_eq!(s.avg_log_likelihood(&two_blob_data(10, 3)), f64::NEG_INFINITY);
    }

    #[test]
    fn compression_bounds_raw_records() {
        let mut s = sem(2, 200);
        for x in two_blob_data(2000, 4) {
            s.push(x).unwrap();
        }
        // After ten buffers the raw working set must be far below the
        // stream length — that is SEM's whole point.
        assert!(
            s.buffer.len() + s.retained.len() < 600,
            "working set {} + {} holds too much raw data",
            s.buffer.len(),
            s.retained.len()
        );
        assert!(s.stats().primary_compressed > 1000, "stats {:?}", s.stats());
    }

    #[test]
    fn quality_holds_across_buffers() {
        let mut s = sem(2, 200);
        for x in two_blob_data(2000, 5) {
            s.push(x).unwrap();
        }
        let holdout = two_blob_data(500, 6);
        let avg = s.avg_log_likelihood(&holdout);
        // A two-component fit of two unit-ish blobs scores around -2.5;
        // anything below -5 means the model collapsed.
        assert!(avg > -5.0, "avg log likelihood {avg}");
    }

    #[test]
    fn distribution_shift_degrades_single_model() {
        // SEM keeps one model: after a regime change, the old AND new
        // regions must share K components, hurting the old region's fit —
        // the paper's core argument for CluDistream (Fig. 5).
        let mut s = sem(2, 200);
        let old_regime = two_blob_data(1000, 7);
        for x in old_regime.clone() {
            s.push(x).unwrap();
        }
        let before = s.avg_log_likelihood(&old_regime);
        // New regime far away.
        let shifted: Vec<Vector> = two_blob_data(3000, 8)
            .into_iter()
            .map(|x| {
                Vector::from_slice(&[x[0] + 100.0, x[1] + 100.0])
            })
            .collect();
        for x in shifted {
            s.push(x).unwrap();
        }
        let after = s.avg_log_likelihood(&old_regime);
        assert!(
            after < before - 1.0,
            "single-model forgetting not observed: {before} -> {after}"
        );
    }

    #[test]
    fn memory_stays_bounded() {
        // SEM's state: raw records (buffer + retained set), the discard and
        // compressed sufficient statistics, and the model.
        let footprint = |s: &ScalableEm| {
            let d = 2;
            let model = s.mixture.as_ref().map_or(0, |m| 8 * m.k() * (1 + d + d * d));
            8 * d * (s.buffer.len() + s.retained.len())
                + 8 * (1 + d + d * d) * (s.discard.len() + s.compressed.len())
                + model
        };
        let mut s = sem(2, 200);
        for x in two_blob_data(1000, 9) {
            s.push(x).unwrap();
        }
        let early = footprint(&s);
        for x in two_blob_data(4000, 10) {
            s.push(x).unwrap();
        }
        let late = footprint(&s);
        // Memory may grow (CS entries accumulate) but must stay well below
        // raw-stream growth: 4000 more records of 2 f64s = 64 KB.
        assert!(late < early + 64_000 / 2, "memory grew too fast: {early} -> {late}");
    }

    #[test]
    fn stats_track_processing() {
        let mut s = sem(2, 100);
        for x in two_blob_data(350, 11) {
            s.push(x).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.records, 350);
        assert_eq!(st.em_runs, 3);
        assert!(st.em_iterations >= 3);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ScalableEm::new(SemConfig { k: 0, ..Default::default() }).is_err());
        assert!(
            ScalableEm::new(SemConfig { k: 5, buffer_size: 3, ..Default::default() }).is_err()
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut s = sem(1, 10);
        s.push(Vector::zeros(2)).unwrap();
        assert!(s.push(Vector::zeros(3)).is_err());
    }
}
