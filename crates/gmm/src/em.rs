use crate::batch::{log_sum_exp_cols, Columns};
use crate::kmeans::kmeans_cols;
use crate::likelihood::std_dev;
use crate::suffstats::add_moments;
use crate::{
    CovarianceType, Gaussian, GmmError, KMeansConfig, Mixture, MixtureScratch, Result, SuffStats,
    BLOCK,
};
use cludistream_linalg::Vector;
use cludistream_obs::{catalogue, Event, NopRecorder, Recorder};
use cludistream_rng::{Rng, StdRng};

/// Configuration of the classical EM algorithm (paper Sec. 3.2).
#[derive(Debug, Clone)]
pub struct EmConfig {
    /// Number of mixture components K.
    pub k: usize,
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence threshold ϖ on the *average* log-likelihood difference
    /// between consecutive iterations (the paper's `|Lᶦ − Lᶦ⁺¹| ≤ ϖ`,
    /// normalized by |D| so it is insensitive to chunk size). Zero
    /// disables early stopping (exactly `max_iters` iterations run).
    pub tol: f64,
    /// Covariance structure estimated in the M-step.
    pub covariance: CovarianceType,
    /// RNG seed for the k-means++ initialization.
    pub seed: u64,
    /// Floor on component responsibilities' total mass, as a fraction of
    /// |D|; components falling below are re-seeded from the lowest-density
    /// record to avoid starvation.
    pub min_weight: f64,
    /// Accepted and ignored: the E-step runs on the calling thread, so
    /// the fitted model is the same for every value. Kept only so that
    /// existing callers still build; the follow-up to ROADMAP item 11
    /// step 1 deletes it.
    pub threads: usize,
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig {
            k: 5,
            max_iters: 100,
            tol: 1e-4,
            covariance: CovarianceType::Full,
            seed: 0,
            min_weight: 1e-6,
            threads: 1,
        }
    }
}

/// Result of an EM fit.
///
/// Which model the numbers describe depends on how the loop ended. An
/// iteration scores the chunk under the current mixture, tests
/// ϖ-convergence on that score, and only then re-estimates the mixture.
/// A converged fit leaves through the test, so `mixture`,
/// `log_likelihood`, `avg_log_likelihood` and `ll_std` all describe the
/// same model. A fit stopped by `max_iters` leaves after an M-step:
/// `mixture` is the last re-estimate, while `log_likelihood` and
/// `avg_log_likelihood` are still the score of the iterate *before* it.
#[derive(Debug, Clone)]
pub struct EmFit {
    /// The learned mixture.
    pub mixture: Mixture,
    /// Total log likelihood `Σ_x ln p(x)` of the training chunk under the
    /// mixture the last E-step scored — `mixture` itself when `converged`,
    /// its predecessor on an iteration-cap exit.
    pub log_likelihood: f64,
    /// Average log likelihood (Definition 1) — the `AvgPr₀` the
    /// test-and-cluster strategy compares future chunks against. Same
    /// model as `log_likelihood`.
    pub avg_log_likelihood: f64,
    /// σ̂: standard deviation of the per-record log density of the
    /// training chunk under `mixture`, bit-identical to
    /// [`crate::log_likelihood_std`]`(&mixture, data)`. `Some` when
    /// `converged` — the last score pass already holds those densities —
    /// and `None` on an iteration-cap exit, where nothing has scored
    /// `mixture` yet and a caller that needs σ̂ pays for that pass itself.
    pub ll_std: Option<f64>,
    /// EM iterations performed.
    pub iterations: usize,
    /// True when ϖ-convergence (not the iteration cap) stopped the loop.
    pub converged: bool,
}

/// Fits a K-component Gaussian mixture to `data` with EM (paper Sec. 3.2).
///
/// The E-step computes membership probabilities `Pr(j|x)` in the log domain;
/// the M-step re-estimates `(w_j, μ_j, Σ_j)` from responsibility-weighted
/// sufficient statistics. Iteration stops when the average log likelihood
/// improves by less than `tol` or `max_iters` is reached.
///
/// The records are transposed once into [`Columns`], which the whole fit
/// reads; [`fit_em_recorded`] fits a chunk already held that way.
pub fn fit_em(data: &[Vector], config: &EmConfig) -> Result<EmFit> {
    check_config(config, data.len())?;
    let d = data[0].dim();
    for x in data {
        if x.dim() != d {
            return Err(GmmError::DimensionMismatch { expected: d, got: x.dim() });
        }
        if !x.is_finite() {
            return Err(non_finite());
        }
    }
    // Monomorphized against the no-op recorder: the telemetry calls in the
    // loop compile away entirely (the `noop_alloc` contract test pins this
    // down).
    fit(&Columns::from_records(data), config, &NopRecorder)
}

/// [`fit_em`] of a chunk held as [`Columns`], read in place, with
/// telemetry: an `em.iters_per_fit` observation, the `em.estep_blocks`
/// counter, `em.iter_capped` when the cap (not ϖ-convergence) stops the
/// loop, and an [`Event::EmConverged`] journal event when convergence
/// does.
pub fn fit_em_recorded(
    chunk: &Columns,
    config: &EmConfig,
    recorder: &(impl Recorder + ?Sized),
) -> Result<EmFit> {
    check_config(config, chunk.len())?;
    if !chunk.values().iter().all(|v| v.is_finite()) {
        return Err(non_finite());
    }
    fit(chunk, config, recorder)
}

/// The checks both entries make before they look at a record.
fn check_config(config: &EmConfig, n: usize) -> Result<()> {
    if config.k == 0 {
        return Err(GmmError::InvalidParameter { name: "k", constraint: "k >= 1" });
    }
    if config.tol < 0.0 || !config.tol.is_finite() {
        return Err(GmmError::InvalidParameter { name: "tol", constraint: "tol >= 0" });
    }
    if n < config.k {
        return Err(GmmError::NotEnoughData { have: n, need: config.k });
    }
    Ok(())
}

fn non_finite() -> GmmError {
    GmmError::InvalidParameter { name: "data", constraint: "all records finite" }
}

/// The fit itself, on a validated chunk.
fn fit(chunk: &Columns, config: &EmConfig, recorder: &(impl Recorder + ?Sized)) -> Result<EmFit> {
    let (k, d) = (config.k, chunk.dim());
    let diagonal = config.covariance == CovarianceType::Diagonal;
    let mut estep = EStep::new(chunk, k, diagonal);
    // Global per-dimension variance: the k-means fallback sphere and every
    // starvation rescue use it.
    let avg_var = global_avg_var(chunk, &mut estep.moments)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut mixture = initialize(chunk, config, avg_var, &mut rng, &mut estep.moments)?;

    let n = chunk.len() as f64;
    let mut prev_avg = f64::NEG_INFINITY;
    let mut log_likelihood = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    let blocks = chunk.len().div_ceil(BLOCK);
    let mut estep_blocks = 0u64;

    for iter in 0..config.max_iters {
        iterations = iter + 1;
        log_likelihood = estep.score(&mixture);
        estep_blocks += blocks as u64;
        let avg = log_likelihood / n;

        // ϖ-convergence on the average log likelihood. Strict comparison:
        // tol = 0 means "run max_iters" rather than stopping on an exact
        // floating-point plateau.
        let delta_ll = (avg - prev_avg).abs();
        if delta_ll < config.tol {
            converged = true;
            recorder.event(&Event::EmConverged { iters: iterations as u64, delta_ll });
            break;
        }
        prev_avg = avg;

        // Only now that its output will be read.
        let stats = estep.accumulate();

        // M-step: rebuild the mixture from the statistics, rescuing starved
        // components. The re-seed target is the worst-explained record of a
        // bounded sample, located at most once per M-step — a full per-
        // component scan would dominate high-K/high-d fits.
        let mut worst_record: Option<Vector> = None;
        let mut comps = Vec::with_capacity(k);
        let mut weights = Vec::with_capacity(k);
        for acc in stats.chunks(stats.len() / k) {
            let mass = acc[0];
            if mass < config.min_weight * n || mass <= 0.0 {
                let worst = worst_record.get_or_insert_with(|| {
                    const RESCUE_SAMPLE: usize = 256;
                    let stride = (chunk.len() / RESCUE_SAMPLE).max(1);
                    (0..chunk.len())
                        .step_by(stride)
                        .map(|b| chunk.record(b).collect::<Vector>())
                        .min_by(|a, b| {
                            mixture.log_pdf(a).partial_cmp(&mixture.log_pdf(b)).expect("NaN")
                        })
                        .expect("non-empty data")
                });
                // Jitter subsequent rescues so multiple starved components
                // don't collapse onto the same point.
                let mut seed = worst.clone();
                seed[0] += (comps.len() as f64) * 1e-3;
                comps.push(Gaussian::spherical(seed, avg_var)?);
                weights.push(1.0 / n);
                continue;
            }
            let g = if diagonal {
                // ML (biased) per-dimension moments.
                let inv = 1.0 / mass;
                let (sum, sum_sq) = acc[1..].split_at(d);
                let mean: Vector = sum.iter().map(|s| s * inv).collect();
                let vars: Vec<f64> = sum_sq
                    .iter()
                    .zip(mean.iter())
                    .map(|(sq, m)| (sq * inv - m * m).max(0.0).max(1e-12))
                    .collect();
                Gaussian::diagonal(mean, &vars)?
            } else {
                SuffStats::from_flat(d, acc).to_gaussian()?.0
            };
            comps.push(g);
            weights.push(mass / n);
        }
        mixture = Mixture::new(comps, weights)?;
    }

    recorder.counter(catalogue::EM_ESTEP_BLOCKS, estep_blocks);
    if !converged {
        recorder.counter(catalogue::EM_ITER_CAPPED, 1);
    }
    recorder.observe(catalogue::EM_ITERS_PER_FIT, iterations as u64);

    Ok(EmFit {
        avg_log_likelihood: log_likelihood / n,
        mixture,
        log_likelihood,
        // A converged fit left through the score pass, so the normalizers
        // it kept are the log densities of the mixture being returned.
        ll_std: converged.then(|| std_dev(&estep.norms)),
        iterations,
        converged,
    })
}

/// The E-step in two passes, and everything they write — created once per
/// fit, so nothing in the iteration loop allocates per block or per
/// record. Both passes run on the calling thread, block after block, and
/// [`BLOCK`] is their unit of reduction: each block fills its own
/// accumulator, folded into the total in block order.
struct EStep<'a> {
    /// The chunk, which both passes, k-means and the initial moments read.
    cols: &'a Columns,
    k: usize,
    diagonal: bool,
    /// Block `b`'s `k × count` weighted log-density table, at
    /// `k * BLOCK * b` (see [`score_block`]).
    table: Vec<f64>,
    /// `norms[i] = ln p(x_i)` under the mixture last scored.
    norms: Vec<f64>,
    /// One flat accumulator per component (see [`accumulate_block`]).
    stats: Vec<f64>,
    /// One block's accumulators in the accumulate pass, folded into
    /// `stats`.
    partial: Vec<f64>,
    /// The score-pass workspace.
    scratch: MixtureScratch,
    /// The workspace of the moment sums.
    moments: Moments,
}

/// Workspace of [`add_moments`]: the weight row of a block of records,
/// and the kernel's own rows.
#[derive(Debug, Default)]
struct Moments {
    weights: Vec<f64>,
    rows: Vec<f64>,
}

impl Moments {
    /// A weight row of `count` records, contents unspecified, with the
    /// kernel's workspace.
    fn weights(&mut self, count: usize) -> (&mut [f64], &mut Vec<f64>) {
        if self.weights.len() < count {
            self.weights.resize(count, 0.0);
        }
        (&mut self.weights[..count], &mut self.rows)
    }
}

impl<'a> EStep<'a> {
    fn new(cols: &'a Columns, k: usize, diagonal: bool) -> Self {
        let d = cols.dim();
        let width = if diagonal { 1 + 2 * d } else { 1 + d + d * d };
        EStep {
            cols,
            k,
            diagonal,
            table: vec![0.0; k * cols.len()],
            norms: vec![0.0; cols.len()],
            stats: vec![0.0; k * width],
            partial: vec![0.0; k * width],
            scratch: MixtureScratch::default(),
            moments: Moments::default(),
        }
    }

    /// Score pass: keeps every block's table and normalizers and returns
    /// the chunk's log likelihood, block log-likelihoods folded in block
    /// order.
    fn score(&mut self, mixture: &Mixture) -> f64 {
        wide!({
            let blocks = self.table.chunks_mut(self.k * BLOCK).zip(self.norms.chunks_mut(BLOCK));
            let mut ll = 0.0;
            for (b, (table, norms)) in blocks.enumerate() {
                let cols = self.cols.block(b);
                let block = score_block(mixture, cols, table, norms, &mut self.scratch);
                // Folded like the accumulate pass: block 0 as is, then the rest.
                ll = if b == 0 { block } else { ll + block };
            }
            ll
        })
    }

    /// Accumulate pass over what the last [`Self::score`] kept: every
    /// block's responsibility-weighted statistics, folded in block order.
    fn accumulate(&mut self) -> &[f64] {
        wide!({
            let blocks = self.table.chunks(self.k * BLOCK).zip(self.norms.chunks(BLOCK));
            for (b, (table, norms)) in blocks.enumerate() {
                let cols = self.cols.block(b);
                self.partial.fill(0.0);
                let (partial, moments) = (&mut self.partial, &mut self.moments);
                accumulate_block(cols, table, norms, self.diagonal, partial, moments);
                // Block 0 is copied rather than added to zeros, so the total
                // is the left fold of the block accumulators, bit for bit.
                if b == 0 {
                    self.stats.copy_from_slice(&self.partial);
                } else {
                    for (s, a) in self.stats.iter_mut().zip(&self.partial) {
                        *s += a;
                    }
                }
            }
        });
        &self.stats
    }
}

/// Score pass over one [`BLOCK`]-sized block, its columns read from the
/// chunk's [`Columns`]: fills `table` (component-major, `table[j*count +
/// b] = ln w_j + ln p(x_b|j)`, the batched kernel, bit-identical to `lw +
/// log_pdf`) and `norms` (`ln p(x_b)`: log-sum-exp over components in
/// order), and returns the block's log likelihood, the normalizers summed
/// in record order.
#[inline(always)]
fn score_block(
    mixture: &Mixture,
    cols: &[f64],
    table: &mut [f64],
    norms: &mut [f64],
    scratch: &mut MixtureScratch,
) -> f64 {
    let solve = scratch.density.solve(cols.len());
    mixture.weighted_log_density_cols(cols, table, solve);
    log_sum_exp_cols(table, norms, &mut scratch.sums);
    let mut ll = 0.0;
    for &norm in norms.iter() {
        ll += norm;
    }
    ll
}

/// Accumulate pass over one block, its columns as [`score_block`] reads
/// them: component after component, one contiguous row of
/// responsibilities `exp(t − norm)` (uniform `1/k` for a degenerate
/// point whose normalizer is not finite; `0` where that is not positive,
/// which adds nothing), then [`add_moments`] into the component's flat
/// accumulator — `[n | Σwx | Σwxxᵀ]`, or `[n | Σwx | Σwx²]` (O(d) per
/// record) in diagonal mode. The accumulators are disjoint and each
/// element still adds the records in order with the operands of
/// `SuffStats::add`, so the result is the record-outer loop's, bit for
/// bit.
#[inline(always)]
fn accumulate_block(
    cols: &[f64],
    table: &[f64],
    norms: &[f64],
    diagonal: bool,
    acc: &mut [f64],
    moments: &mut Moments,
) {
    let count = norms.len();
    let k = table.len() / count;
    let uniform = 1.0 / k as f64;
    let (weights, rows) = moments.weights(count);
    for (t, acc) in table.chunks_exact(count).zip(acc.chunks_exact_mut(acc.len() / k)) {
        for ((w, &t), &norm) in weights.iter_mut().zip(t).zip(norms) {
            let r = if norm.is_finite() { (t - norm).exp() } else { uniform };
            *w = if r > 0.0 { r } else { 0.0 };
        }
        add_moments(acc, cols, weights, diagonal, rows);
    }
}

/// The unweighted statistics of each part of a partition of the chunk,
/// record `b` in part `part[b] < parts`: a counting sort gathers every
/// part's records into columns of their own, in record order, then
/// [`add_moments`] adds them with weight 1 — bit-identical to
/// `SuffStats::add(x, 1.0)` of each of the part's records in order.
fn part_moments(
    cols: &Columns,
    part: &[usize],
    parts: usize,
    moments: &mut Moments,
) -> Vec<SuffStats> {
    let (n, d) = (cols.len(), cols.dim());
    let mut sizes = vec![0; parts];
    for &p in part {
        sizes[p] += 1;
    }
    // Part `p`'s `d` columns of `sizes[p]` values start at `starts[p]·d`.
    let starts: Vec<usize> = sizes
        .iter()
        .scan(0, |next, &size| {
            *next += size;
            Some(*next - size)
        })
        .collect();
    let mut filled = vec![0; parts];
    let mut packed = vec![0.0; n * d];
    for (start, block) in cols.blocks() {
        let count = BLOCK.min(n - start);
        for (b, &p) in part[start..start + count].iter().enumerate() {
            let at = starts[p] * d + filled[p];
            filled[p] += 1;
            for (i, col) in block.chunks_exact(count).enumerate() {
                packed[at + i * sizes[p]] = col[b];
            }
        }
    }
    let (weights, rows) = moments.weights(n);
    weights.fill(1.0);
    let mut each = Vec::with_capacity(parts);
    for (&start, &size) in starts.iter().zip(&sizes) {
        let mut acc = vec![0.0; 1 + d + d * d];
        let cols = &packed[start * d..(start + size) * d];
        add_moments(&mut acc, cols, &weights[..size], false, rows);
        each.push(SuffStats::from_flat(d, &acc));
    }
    each
}

/// Global per-dimension variance of the chunk, floored at 1e-6.
fn global_avg_var(cols: &Columns, moments: &mut Moments) -> Result<f64> {
    let global = part_moments(cols, &vec![0; cols.len()], 1, moments).remove(0);
    Ok((global.cov()?.trace() / cols.dim() as f64).max(1e-6))
}

/// Produces the initial mixture for EM: k-means++ seeding followed by a
/// short Lloyd run, variances from the partition.
fn initialize<R: Rng + ?Sized>(
    cols: &Columns,
    config: &EmConfig,
    avg_var: f64,
    rng: &mut R,
    moments: &mut Moments,
) -> Result<Mixture> {
    let d = cols.dim();
    let km = kmeans_cols(cols, &KMeansConfig { k: config.k, max_iters: 10, seed: rng.gen() });
    // Per-cluster covariance from the k-means partition; clusters too
    // small for a stable estimate fall back to the global sphere.
    let stats = part_moments(cols, &km.assignments, config.k, moments);
    let mut comps = Vec::with_capacity(config.k);
    let mut weights = Vec::with_capacity(config.k);
    for (s, centroid) in stats.iter().zip(km.centroids) {
        let count = s.n().max(1.0);
        let g = if s.n() >= (d + 1) as f64 {
            Gaussian::new(s.mean()?, s.cov()?)?
        } else {
            Gaussian::spherical(centroid, avg_var)?
        };
        comps.push(g);
        weights.push(count);
    }
    Mixture::new(comps, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, Batch};
    use cludistream_rng::StdRng;

    /// Samples `n` points from a known 1-d two-component mixture.
    fn two_component_data(n: usize, seed: u64) -> Vec<Vector> {
        let gen = Mixture::new(
            vec![
                Gaussian::spherical(Vector::from_slice(&[-5.0]), 1.0).unwrap(),
                Gaussian::spherical(Vector::from_slice(&[5.0]), 0.5).unwrap(),
            ],
            vec![0.3, 0.7],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| gen.sample(&mut rng)).collect()
    }

    #[test]
    fn recovers_two_well_separated_components() {
        let data = two_component_data(2000, 1);
        let fit = fit_em(&data, &EmConfig { k: 2, seed: 2, ..Default::default() }).unwrap();
        assert!(fit.converged);
        let mut means: Vec<(f64, f64)> = fit
            .mixture
            .components()
            .iter()
            .zip(fit.mixture.weights())
            .map(|(c, &w)| (c.mean()[0], w))
            .collect();
        means.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!((means[0].0 + 5.0).abs() < 0.2, "means {means:?}");
        assert!((means[1].0 - 5.0).abs() < 0.2, "means {means:?}");
        assert!((means[0].1 - 0.3).abs() < 0.05, "weights {means:?}");
    }

    #[test]
    fn log_likelihood_non_decreasing() {
        // Run EM iteration-by-iteration via max_iters and check monotonicity,
        // the property guaranteed by Dempster et al. [3].
        let data = two_component_data(500, 3);
        let mut prev = f64::NEG_INFINITY;
        for iters in 1..8 {
            let fit = fit_em(
                &data,
                &EmConfig { k: 2, max_iters: iters, tol: 0.0, seed: 4, ..Default::default() },
            )
            .unwrap();
            assert!(
                fit.log_likelihood >= prev - 1e-6,
                "iteration {iters}: {} < {prev}",
                fit.log_likelihood
            );
            prev = fit.log_likelihood;
        }
    }

    #[test]
    fn single_component_matches_moments() {
        let data = two_component_data(1000, 5);
        let fit = fit_em(&data, &EmConfig { k: 1, seed: 6, ..Default::default() }).unwrap();
        let mut s = SuffStats::new(1);
        for x in &data {
            s.add(x, 1.0);
        }
        let g = &fit.mixture.components()[0];
        assert!((g.mean()[0] - s.mean().unwrap()[0]).abs() < 1e-6);
        assert!((g.cov()[(0, 0)] - s.cov().unwrap()[(0, 0)]).abs() < 1e-4);
    }

    #[test]
    fn diagonal_covariance_zeroes_off_diagonals() {
        // Correlated 2-d data.
        let mut rng = StdRng::seed_from_u64(7);
        let g = Gaussian::new(
            Vector::zeros(2),
            cludistream_linalg::Matrix::from_rows(&[&[1.0, 0.8], &[0.8, 1.0]]),
        )
        .unwrap();
        let data: Vec<Vector> = (0..500).map(|_| g.sample(&mut rng)).collect();
        let fit = fit_em(
            &data,
            &EmConfig { k: 1, covariance: CovarianceType::Diagonal, seed: 8, ..Default::default() },
        )
        .unwrap();
        let c = fit.mixture.components()[0].cov();
        assert_eq!(c[(0, 1)], 0.0);
        assert_eq!(c[(1, 0)], 0.0);
        assert!(c[(0, 0)] > 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_component_data(300, 9);
        let cfg = EmConfig { k: 3, seed: 10, ..Default::default() };
        let a = fit_em(&data, &cfg).unwrap();
        let b = fit_em(&data, &cfg).unwrap();
        assert_eq!(a.log_likelihood, b.log_likelihood);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn avg_equals_total_over_n() {
        let data = two_component_data(200, 13);
        let fit = fit_em(&data, &EmConfig { k: 2, seed: 14, ..Default::default() }).unwrap();
        assert!((fit.avg_log_likelihood - fit.log_likelihood / 200.0).abs() < 1e-12);
        // And it matches Definition 1 evaluated on the final mixture.
        let def1 = fit.mixture.avg_log_likelihood(&data);
        assert!((fit.avg_log_likelihood - def1).abs() < 1e-9);
    }

    #[test]
    fn errors_on_bad_input() {
        let data = two_component_data(10, 15);
        assert!(fit_em(&data, &EmConfig { k: 0, ..Default::default() }).is_err());
        assert!(fit_em(&data[..2], &EmConfig { k: 5, ..Default::default() }).is_err());
        assert!(fit_em(&data, &EmConfig { k: 2, tol: -1.0, ..Default::default() }).is_err());
        let bad = vec![Vector::from_slice(&[f64::NAN]); 10];
        assert!(fit_em(&bad, &EmConfig { k: 1, ..Default::default() }).is_err());
    }

    #[test]
    fn identical_points_degenerate_data_survives() {
        let data = vec![Vector::from_slice(&[2.0, 2.0]); 50];
        let fit = fit_em(&data, &EmConfig { k: 2, seed: 16, ..Default::default() }).unwrap();
        assert!(fit.log_likelihood.is_finite());
        for c in fit.mixture.components() {
            // Rescued components are jittered by up to K·1e-3.
            assert!((c.mean()[0] - 2.0).abs() < 1e-2);
        }
    }

    #[test]
    fn recorded_fit_matches_unrecorded_and_counts() {
        use cludistream_obs::{Obs, Registry};
        use std::sync::Arc;
        let data = two_component_data(500, 40);
        let cfg = EmConfig { k: 2, seed: 41, ..Default::default() };
        let plain = fit_em(&data, &cfg).unwrap();
        let registry = Arc::new(Registry::new());
        let obs = Obs::from_registry(registry.clone());
        let recorded = fit_em_recorded(&Columns::from_records(&data), &cfg, &obs).unwrap();
        // Telemetry must not perturb the numerics.
        assert_eq!(plain.log_likelihood, recorded.log_likelihood);
        assert_eq!(plain.iterations, recorded.iterations);
        assert_eq!(registry.counter_value("em.iter_capped"), u64::from(!recorded.converged));
        let h = registry.histogram_snapshot("em.iters_per_fit").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.max, recorded.iterations as u64);
        // Convergence journaled exactly once.
        assert_eq!(registry.events_recorded(), u64::from(recorded.converged));
    }

    #[test]
    fn thread_count_is_ignored_by_fit_and_score() {
        // `threads` is accepted and ignored: 0 and 8 fit and score exactly
        // as 1 does.
        let data = two_component_data(700, 21);
        let cfg = EmConfig { k: 2, seed: 22, ..Default::default() };
        let base = fit_em(&data, &cfg).unwrap();
        let batch = Batch::from_records(&data);
        let scores = crate::score(&base.mixture, &batch, 1).unwrap();
        for threads in [0usize, 8] {
            let fit = fit_em(&data, &EmConfig { threads, ..cfg.clone() }).unwrap();
            assert_eq!(fit.iterations, base.iterations, "threads={threads}");
            assert_same_bits(&[fit.log_likelihood], &[base.log_likelihood], "ll");
            assert_same_bits(fit.mixture.weights(), base.mixture.weights(), "weights");
            for (g, w) in fit.mixture.components().iter().zip(base.mixture.components()) {
                assert_same_bits(g.mean().as_slice(), w.mean().as_slice(), "mean");
                assert_same_bits(g.cov().as_slice(), w.cov().as_slice(), "cov");
            }
            let got = crate::score(&base.mixture, &batch, threads).unwrap();
            assert_eq!(got.labels(), scores.labels(), "threads={threads}");
            assert_same_bits(got.log_pdf(), scores.log_pdf(), "log pdf");
            for i in 0..got.len() {
                assert_same_bits(got.responsibilities(i), scores.responsibilities(i), "resp");
            }
        }
    }

    #[test]
    fn estep_block_accounting() {
        use cludistream_obs::{Obs, Registry};
        use std::sync::Arc;
        // 600 records → ⌈600/256⌉ = 3 blocks per iteration, 4 iterations.
        let data = two_component_data(600, 50);
        let cfg = EmConfig { k: 2, seed: 51, max_iters: 4, tol: 0.0, ..Default::default() };
        let registry = Arc::new(Registry::new());
        let obs = Obs::from_registry(registry.clone());
        let fit = fit_em_recorded(&Columns::from_records(&data), &cfg, &obs).unwrap();
        assert_eq!(fit.iterations, 4);
        assert_eq!(registry.counter_value("em.estep_blocks"), 12);
    }

    #[test]
    fn more_components_fit_at_least_as_well() {
        let data = two_component_data(800, 17);
        let f1 = fit_em(&data, &EmConfig { k: 1, seed: 18, tol: 1e-8, ..Default::default() }).unwrap();
        let f2 = fit_em(&data, &EmConfig { k: 2, seed: 18, tol: 1e-8, ..Default::default() }).unwrap();
        assert!(
            f2.avg_log_likelihood > f1.avg_log_likelihood - 1e-6,
            "k=2 {} vs k=1 {}",
            f2.avg_log_likelihood,
            f1.avg_log_likelihood
        );
    }

    fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    /// `fit_em` against [`reference::fit`], to the bit, in everything a
    /// caller can read; σ̂ is present exactly when the fit converged.
    fn assert_matches_reference(data: &[Vector], config: &EmConfig, what: &str) {
        let want = reference::fit(data, config);
        let got = fit_em(data, config);
        let (want, got) = match (want, got) {
            (Ok(w), Ok(g)) => (w, g),
            (Err(w), Err(g)) => {
                assert_eq!(format!("{w:?}"), format!("{g:?}"), "{what}: error");
                return;
            }
            (w, g) => panic!("{what}: reference {w:?} but fit_em {g:?}"),
        };
        assert_eq!(got.iterations, want.iterations, "{what}: iterations");
        assert_eq!(got.converged, want.converged, "{what}: converged");
        assert_same_bits(&[got.log_likelihood], &[want.log_likelihood], &format!("{what}: ll"));
        assert_same_bits(
            &[got.avg_log_likelihood],
            &[want.avg_log_likelihood],
            &format!("{what}: avg ll"),
        );
        assert_same_bits(got.mixture.weights(), want.mixture.weights(), &format!("{what}: weights"));
        for (g, w) in got.mixture.components().iter().zip(want.mixture.components()) {
            assert_same_bits(g.mean().as_slice(), w.mean().as_slice(), &format!("{what}: mean"));
            assert_same_bits(g.cov().as_slice(), w.cov().as_slice(), &format!("{what}: cov"));
        }
        assert_eq!(got.ll_std.is_some(), got.converged, "{what}: σ̂ exactly when converged");
        assert_eq!(got.ll_std.is_some(), want.ll_std.is_some(), "{what}: σ̂");
        assert_same_bits(
            &[got.ll_std.unwrap_or(0.0)],
            &[want.ll_std.unwrap_or(0.0)],
            &format!("{what}: σ̂"),
        );
    }

    #[test]
    fn fit_matches_the_reference_bit_for_bit() {
        use cludistream_rng::check;
        // d 1–9: the accumulate pass sums `1 + d + d²` (or `1 + 2d`)
        // elements eight, four, two and one at a time, and these widths
        // leave every remainder. The case name seeds the draws, so it
        // keeps its old wording.
        check::cases("em.two_pass_matches_fused", 1, |rng| {
            for d in 1..=9 {
                let k = 2 + (rng.gen::<u64>() % 3) as usize;
                let seed = rng.gen::<u64>();
                let comps: Vec<Gaussian> = (0..k)
                    .map(|j| {
                        Gaussian::spherical(Vector::filled(d, j as f64 * 6.0 - 4.0), 1.0).unwrap()
                    })
                    .collect();
                let gen = Mixture::uniform(comps).unwrap();
                // One block short, exact, one over, a ragged third block, and
                // the paper's default chunk; `k` records is the minimum.
                for n in [k, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 17, 1567] {
                    let data: Vec<Vector> = (0..n).map(|_| gen.sample(rng)).collect();
                    for covariance in [CovarianceType::Full, CovarianceType::Diagonal] {
                        // ϖ-convergence, then the iteration cap (tol = 0).
                        for (tol, max_iters) in [(1e-4, 30), (0.0, 3)] {
                            let cfg =
                                EmConfig { k, max_iters, tol, covariance, seed, ..Default::default() };
                            let what = format!("n={n} d={d} k={k} {covariance:?} tol={tol}");
                            assert_matches_reference(&data, &cfg, &what);
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn fit_matches_the_reference_through_the_starvation_rescue() {
        // Identical points: every cluster but one starves on every M-step.
        let data = vec![Vector::from_slice(&[2.0, 2.0]); 300];
        for covariance in [CovarianceType::Full, CovarianceType::Diagonal] {
            let cfg = EmConfig { k: 3, seed: 16, covariance, ..Default::default() };
            assert_matches_reference(&data, &cfg, &format!("{covariance:?}"));
        }
    }

    #[test]
    fn estep_matches_the_reference_on_degenerate_points() {
        // Two needle-thin components and, among ordinary records, points so
        // far out that every weighted log density is -inf: their normalizer
        // is not finite and the E-step must spread them uniformly.
        let d = 2;
        for diagonal in [false, true] {
            let mixture = Mixture::new(
                vec![
                    Gaussian::spherical(Vector::filled(d, 0.0), 1e-12).unwrap(),
                    Gaussian::spherical(Vector::filled(d, 1.0), 1e-12).unwrap(),
                ],
                vec![0.25, 0.75],
            )
            .unwrap();
            let mut data: Vec<Vector> =
                (0..BLOCK + 40).map(|i| Vector::filled(d, (i % 2) as f64 + i as f64 * 1e-9)).collect();
            data[3] = Vector::filled(d, 1e150);
            data[BLOCK + 7] = Vector::filled(d, -1e150);
            let want = reference::e_step(&mixture, &data, diagonal);
            assert_eq!(want.ll, f64::NEG_INFINITY, "the case must reach the uniform branch");
            let cols = Columns::from_records(&data);
            let mut estep = EStep::new(&cols, 2, diagonal);
            assert_eq!(estep.score(&mixture), f64::NEG_INFINITY);
            assert_eq!(estep.norms[3], f64::NEG_INFINITY);
            assert_same_bits(&estep.norms, &want.norms, "norms");
            let got = estep.accumulate();
            for (j, (acc, want)) in got.chunks(got.len() / 2).zip(&want.moments).enumerate() {
                assert_same_bits(acc, want, &format!("diagonal {diagonal}: component {j}"));
            }
        }
    }

    #[test]
    fn cap_exit_reports_the_previous_iterate_and_no_sigma() {
        // Pinned: when `max_iters` stops the loop the M-step has run after
        // the last score, so `log_likelihood` is the score of the iterate
        // before `mixture` — not of `mixture` — and σ̂ is left to the caller.
        let data = two_component_data(500, 3);
        let cfg = EmConfig { k: 3, max_iters: 3, tol: 0.0, seed: 4, ..Default::default() };
        let fit = fit_em(&data, &cfg).unwrap();
        assert!(!fit.converged);
        assert_eq!(fit.iterations, 3);
        assert_eq!(fit.ll_std, None);
        assert_eq!(fit.log_likelihood.to_bits(), (-892.3618559732106f64).to_bits());
        assert_eq!(fit.avg_log_likelihood.to_bits(), (-1.7847237119464212f64).to_bits());
        // The returned mixture's own score is what one more iteration
        // reports (up to the block-wise summation order), and it is not
        // the number above.
        let of_returned = fit.mixture.avg_log_likelihood(&data);
        let next = fit_em(&data, &EmConfig { max_iters: 4, ..cfg }).unwrap();
        assert!((next.avg_log_likelihood - of_returned).abs() < 1e-12);
        assert!(of_returned - fit.avg_log_likelihood > 1e-9, "{of_returned}");
    }
}
