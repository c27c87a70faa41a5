use crate::likelihood::std_dev;
use crate::{
    kmeans, log_sum_exp, Batch, CovarianceType, Gaussian, GmmError, KMeansConfig, Mixture,
    MixtureScratch, Result, SuffStats, BLOCK,
};
use cludistream_linalg::Vector;
use cludistream_obs::{catalogue, Event, NopRecorder, Recorder};
use cludistream_par::{par_block_reduce, resolve_workers};
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
    /// Worker threads for the E-step: `1` (the default) scores blocks
    /// inline on the calling thread, `0` uses the machine's available
    /// parallelism, any other value spawns that many scoped workers.
    ///
    /// The fitted model is **bit-identical for every value**: the E-step
    /// always reduces per-[`BLOCK`] statistics in block order, and the
    /// thread count only decides which worker scores which blocks.
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
pub fn fit_em(data: &[Vector], config: &EmConfig) -> Result<EmFit> {
    // Monomorphized against the no-op recorder: the telemetry calls in the
    // loop compile away entirely (the `noop_alloc` contract test pins this
    // down).
    fit_em_recorded(data, config, &NopRecorder)
}

/// [`fit_em`] with telemetry: an `em.iters_per_fit` observation, the
/// `em.estep_blocks` counter, `em.iter_capped` when the cap (not
/// ϖ-convergence) stops the loop, and an [`Event::EmConverged`] journal
/// event when convergence does.
pub fn fit_em_recorded(
    data: &[Vector],
    config: &EmConfig,
    recorder: &(impl Recorder + ?Sized),
) -> Result<EmFit> {
    if config.k == 0 {
        return Err(GmmError::InvalidParameter { name: "k", constraint: "k >= 1" });
    }
    if config.tol < 0.0 || !config.tol.is_finite() {
        return Err(GmmError::InvalidParameter { name: "tol", constraint: "tol >= 0" });
    }
    if data.len() < config.k {
        return Err(GmmError::NotEnoughData { have: data.len(), need: config.k });
    }
    let d = data[0].dim();
    for x in data {
        if x.dim() != d {
            return Err(GmmError::DimensionMismatch { expected: d, got: x.dim() });
        }
        if !x.is_finite() {
            return Err(GmmError::InvalidParameter {
                name: "data",
                constraint: "all records finite",
            });
        }
    }
    let k = config.k;

    // Global per-dimension variance: the k-means fallback sphere and every
    // starvation rescue use it.
    let avg_var = global_avg_var(data)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut mixture = initialize(data, config, avg_var, &mut rng)?;

    let n = data.len() as f64;
    let mut prev_avg = f64::NEG_INFINITY;
    let mut log_likelihood = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut converged = false;

    let diagonal = config.covariance == CovarianceType::Diagonal;
    let mut estep = EStep::new(data, k, diagonal, resolve_workers(config.threads));
    let blocks = data.len().div_ceil(BLOCK);
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
                    let stride = (data.len() / RESCUE_SAMPLE).max(1);
                    data.iter()
                        .step_by(stride)
                        .min_by(|a, b| {
                            mixture.log_pdf(a).partial_cmp(&mixture.log_pdf(b)).expect("NaN")
                        })
                        .expect("non-empty data")
                        .clone()
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
/// fit, so at one worker nothing in the iteration loop allocates per block
/// or per record. [`BLOCK`] — not the thread count — is the unit of
/// reduction in both passes, so their outputs are bit-identical for every
/// worker count.
struct EStep {
    /// SoA copy of the chunk.
    batch: Batch,
    k: usize,
    diagonal: bool,
    workers: usize,
    /// Block `b`'s `k × count` weighted log-density table, at
    /// `k * BLOCK * b` (see [`score_block`]).
    table: Vec<f64>,
    /// `norms[i] = ln p(x_i)` under the mixture last scored.
    norms: Vec<f64>,
    /// One flat accumulator per component (see [`accumulate_block`]).
    stats: Vec<f64>,
    /// Per-block storage of both reductions.
    slots: Vec<f64>,
    /// The calling thread's kernel workspace.
    scratch: MixtureScratch,
}

impl EStep {
    fn new(data: &[Vector], k: usize, diagonal: bool, workers: usize) -> Self {
        let d = data[0].dim();
        let width = if diagonal { 1 + 2 * d } else { 1 + d + d * d };
        EStep {
            batch: Batch::from_records(data),
            k,
            diagonal,
            workers,
            table: vec![0.0; k * data.len()],
            norms: vec![0.0; data.len()],
            stats: vec![0.0; k * width],
            slots: Vec::new(),
            scratch: MixtureScratch::default(),
        }
    }

    /// Score pass: keeps every block's table and normalizers and returns
    /// the chunk's log likelihood, block log-likelihoods folded in block
    /// order.
    fn score(&mut self, mixture: &Mixture) -> f64 {
        let batch = &self.batch;
        let mut ll = [0.0];
        par_block_reduce(
            self.table.chunks_mut(self.k * BLOCK).zip(self.norms.chunks_mut(BLOCK)),
            self.workers,
            &mut self.scratch,
            MixtureScratch::default,
            &mut self.slots,
            &mut ll,
            |scratch, b, (table, norms), ll| {
                let rows = batch.rows(b * BLOCK, norms.len());
                ll[0] = score_block(mixture, rows, table, norms, scratch);
            },
        );
        ll[0]
    }

    /// Accumulate pass over what the last [`Self::score`] kept: every
    /// block's responsibility-weighted statistics, reduced in block order.
    fn accumulate(&mut self) -> &[f64] {
        let (batch, diagonal) = (&self.batch, self.diagonal);
        par_block_reduce(
            self.table.chunks(self.k * BLOCK).zip(self.norms.chunks(BLOCK)),
            self.workers,
            &mut (),
            || (),
            &mut self.slots,
            &mut self.stats,
            |_, b, (table, norms), acc| {
                accumulate_block(batch.rows(b * BLOCK, norms.len()), table, norms, diagonal, acc);
            },
        );
        &self.stats
    }
}

/// Score pass over one [`BLOCK`]-sized block: fills `table` (component-
/// major, `table[j*count + b] = ln w_j + ln p(x_b|j)`, the batched kernel,
/// bit-identical to `lw + log_pdf`) and `norms` (`ln p(x_b)`: log-sum-exp
/// over components in order), and returns the block's log likelihood, the
/// normalizers summed in record order.
fn score_block(
    mixture: &Mixture,
    rows: &[f64],
    table: &mut [f64],
    norms: &mut [f64],
    scratch: &mut MixtureScratch,
) -> f64 {
    let (k, count) = (mixture.k(), norms.len());
    mixture.weighted_log_density_into(rows, table, &mut scratch.density);
    scratch.terms.resize(k, 0.0);
    let mut ll = 0.0;
    for (b, norm) in norms.iter_mut().enumerate() {
        for j in 0..k {
            scratch.terms[j] = table[j * count + b];
        }
        *norm = log_sum_exp(&scratch.terms);
        ll += *norm;
    }
    ll
}

/// Accumulate pass over one block: adds every record, weighted by its
/// responsibility `exp(t − norm)` (uniform `1/k` for a degenerate point
/// whose normalizer is not finite), into one flat accumulator per
/// component — `[n | Σwx | Σwxxᵀ]`, or `[n | Σwx | Σwx²]` (O(d) per
/// record) in diagonal mode. Records in order, components in order inside
/// a record, and per element the operand order of `SuffStats::add_slice`.
fn accumulate_block(rows: &[f64], table: &[f64], norms: &[f64], diagonal: bool, acc: &mut [f64]) {
    let count = norms.len();
    let d = rows.len() / count;
    let k = table.len() / count;
    let width = acc.len() / k;
    for (b, (&norm, x)) in norms.iter().zip(rows.chunks(d)).enumerate() {
        for (j, acc) in acc.chunks_mut(width).enumerate() {
            let r =
                if norm.is_finite() { (table[j * count + b] - norm).exp() } else { 1.0 / k as f64 };
            if r > 0.0 {
                add_weighted(acc, x, r, diagonal);
            }
        }
    }
}

/// `acc += r · (1, x, x xᵀ)` (or `(1, x, x²)` when `diagonal`) on one flat
/// accumulator.
fn add_weighted(acc: &mut [f64], x: &[f64], r: f64, diagonal: bool) {
    acc[0] += r;
    let (sum, rest) = acc[1..].split_at_mut(x.len());
    if diagonal {
        for ((s, sq), &v) in sum.iter_mut().zip(rest).zip(x) {
            *s += r * v;
            *sq += r * v * v;
        }
    } else {
        for (s, &v) in sum.iter_mut().zip(x) {
            *s += r * v;
        }
        for (row, &v) in rest.chunks_mut(x.len()).zip(x) {
            let xi = r * v;
            for (e, &w) in row.iter_mut().zip(x) {
                *e += xi * w;
            }
        }
    }
}

/// Global per-dimension variance of the chunk, floored at 1e-6.
fn global_avg_var(data: &[Vector]) -> Result<f64> {
    let d = data[0].dim();
    let mut global = SuffStats::new(d);
    for x in data {
        global.add(x, 1.0);
    }
    Ok((global.cov()?.trace() / d as f64).max(1e-6))
}

/// Produces the initial mixture for EM: k-means++ seeding followed by a
/// short Lloyd run, variances from the partition.
fn initialize<R: Rng + ?Sized>(
    data: &[Vector],
    config: &EmConfig,
    avg_var: f64,
    rng: &mut R,
) -> Result<Mixture> {
    let d = data[0].dim();
    let km = kmeans(
        data,
        &KMeansConfig { k: config.k, max_iters: 10, seed: rng.gen() },
    )?;
    // Per-cluster covariance from the k-means partition; clusters too
    // small for a stable estimate fall back to the global sphere.
    let mut stats: Vec<SuffStats> = (0..config.k).map(|_| SuffStats::new(d)).collect();
    for (&a, x) in km.assignments.iter().zip(data) {
        stats[a].add(x, 1.0);
    }
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

/// The fused one-pass E-step the two-pass engine replaced, kept verbatim
/// as the reference of the differential tests: every block is scored and
/// accumulated in one go into per-component heap statistics, converged or
/// not, and σ̂ is a separate re-scoring of the chunk.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::log_likelihood_std;
    use cludistream_par::par_block_map;

    #[derive(Debug, Clone)]
    pub struct DiagStats {
        pub n: f64,
        pub sum: Vec<f64>,
        pub sum_sq: Vec<f64>,
    }

    impl DiagStats {
        fn new(d: usize) -> Self {
            DiagStats { n: 0.0, sum: vec![0.0; d], sum_sq: vec![0.0; d] }
        }

        fn add_slice(&mut self, x: &[f64], w: f64) {
            self.n += w;
            for (i, (s, sq)) in self.sum.iter_mut().zip(self.sum_sq.iter_mut()).enumerate() {
                let v = x[i];
                *s += w * v;
                *sq += w * v * v;
            }
        }

        fn merge(&mut self, other: &DiagStats) {
            self.n += other.n;
            for (s, o) in self.sum.iter_mut().zip(&other.sum) {
                *s += o;
            }
            for (s, o) in self.sum_sq.iter_mut().zip(&other.sum_sq) {
                *s += o;
            }
        }

        fn moments(&self) -> (Vector, Vec<f64>) {
            let inv = 1.0 / self.n;
            let mean: Vector = self.sum.iter().map(|s| s * inv).collect();
            let vars: Vec<f64> = self
                .sum_sq
                .iter()
                .zip(mean.iter())
                .map(|(sq, m)| (sq * inv - m * m).max(0.0))
                .collect();
            (mean, vars)
        }
    }

    /// One block's (after [`estep`], the whole chunk's) log likelihood
    /// and statistics; exactly one of `stats`/`diag` is populated.
    pub struct BlockStats {
        pub ll: f64,
        pub stats: Vec<SuffStats>,
        pub diag: Vec<DiagStats>,
    }

    impl BlockStats {
        fn new(d: usize, k: usize, diagonal: bool) -> Self {
            if diagonal {
                BlockStats { ll: 0.0, stats: Vec::new(), diag: (0..k).map(|_| DiagStats::new(d)).collect() }
            } else {
                BlockStats { ll: 0.0, stats: (0..k).map(|_| SuffStats::new(d)).collect(), diag: Vec::new() }
            }
        }

        fn add(&mut self, j: usize, x: &[f64], w: f64) {
            if self.diag.is_empty() {
                self.stats[j].add_slice(x, w);
            } else {
                self.diag[j].add_slice(x, w);
            }
        }

        fn merge(&mut self, other: &BlockStats) {
            self.ll += other.ll;
            for (a, b) in self.stats.iter_mut().zip(&other.stats) {
                a.merge(b);
            }
            for (a, b) in self.diag.iter_mut().zip(&other.diag) {
                a.merge(b);
            }
        }
    }

    fn score_block(
        mixture: &Mixture,
        batch: &Batch,
        block: usize,
        k: usize,
        diagonal: bool,
        scratch: &mut MixtureScratch,
    ) -> BlockStats {
        let d = batch.dim();
        let start = block * BLOCK;
        let count = BLOCK.min(batch.len() - start);
        let rows = batch.rows(start, count);
        mixture.weighted_log_density_block(rows, count, scratch);
        let mut out = BlockStats::new(d, k, diagonal);
        scratch.terms.resize(k, 0.0);
        for b in 0..count {
            for j in 0..k {
                scratch.terms[j] = scratch.weighted[j * count + b];
            }
            let norm = log_sum_exp(&scratch.terms);
            out.ll += norm;
            let x = &rows[b * d..(b + 1) * d];
            if norm.is_finite() {
                for (j, &t) in scratch.terms.iter().enumerate() {
                    let r = (t - norm).exp();
                    if r > 0.0 {
                        out.add(j, x, r);
                    }
                }
            } else {
                let r = 1.0 / k as f64;
                for j in 0..k {
                    out.add(j, x, r);
                }
            }
        }
        out
    }

    /// One fused E-step over the whole chunk, blocks reduced in order.
    pub fn estep(mixture: &Mixture, batch: &Batch, k: usize, diagonal: bool) -> BlockStats {
        let blocks = batch.len().div_ceil(BLOCK);
        let results = par_block_map(blocks, 1, MixtureScratch::default, |scratch, b| {
            score_block(mixture, batch, b, k, diagonal, scratch)
        });
        let mut results = results.into_iter();
        let mut acc = results.next().expect("non-empty data yields at least one block");
        for r in results {
            acc.merge(&r);
        }
        acc
    }

    /// The fit loop as it stood around the fused E-step. Validation is
    /// the caller's; `ll_std` is always the separate re-scoring.
    pub fn fit(data: &[Vector], config: &EmConfig) -> Result<EmFit> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let global_avg_var = global_avg_var(data)?;
        let mut mixture = initialize(data, config, global_avg_var, &mut rng)?;
        let n = data.len() as f64;
        let mut prev_avg = f64::NEG_INFINITY;
        let mut log_likelihood = f64::NEG_INFINITY;
        let mut iterations = 0;
        let mut converged = false;
        let batch = Batch::from_records(data);
        let diagonal = config.covariance == CovarianceType::Diagonal;
        for iter in 0..config.max_iters {
            iterations = iter + 1;
            let acc = estep(&mixture, &batch, config.k, diagonal);
            log_likelihood = acc.ll;
            let avg = acc.ll / n;
            let delta_ll = (avg - prev_avg).abs();
            if delta_ll < config.tol {
                converged = true;
                break;
            }
            prev_avg = avg;
            let mut worst_record: Option<Vector> = None;
            let mut comps = Vec::with_capacity(config.k);
            let mut weights = Vec::with_capacity(config.k);
            for j in 0..config.k {
                let mass = if diagonal { acc.diag[j].n } else { acc.stats[j].n() };
                if mass < config.min_weight * n || mass <= 0.0 {
                    let worst = worst_record.get_or_insert_with(|| {
                        const RESCUE_SAMPLE: usize = 256;
                        let stride = (data.len() / RESCUE_SAMPLE).max(1);
                        data.iter()
                            .step_by(stride)
                            .min_by(|a, b| {
                                mixture.log_pdf(a).partial_cmp(&mixture.log_pdf(b)).expect("NaN")
                            })
                            .expect("non-empty data")
                            .clone()
                    });
                    let mut seed = worst.clone();
                    seed[0] += (comps.len() as f64) * 1e-3;
                    comps.push(Gaussian::spherical(seed, global_avg_var)?);
                    weights.push(1.0 / n);
                    continue;
                }
                let g = if diagonal {
                    let (mean, mut vars) = acc.diag[j].moments();
                    for v in &mut vars {
                        *v = v.max(1e-12);
                    }
                    Gaussian::diagonal(mean, &vars)?
                } else {
                    Gaussian::new(acc.stats[j].mean()?, acc.stats[j].cov()?)?
                };
                comps.push(g);
                weights.push(mass / n);
            }
            mixture = Mixture::new(comps, weights)?;
        }
        Ok(EmFit {
            avg_log_likelihood: log_likelihood / n,
            ll_std: Some(log_likelihood_std(&mixture, data)),
            mixture,
            log_likelihood,
            iterations,
            converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let recorded = fit_em_recorded(&data, &cfg, &obs).unwrap();
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
    fn thread_count_never_changes_the_fit() {
        use cludistream_rng::check;
        // Random multi-block workloads (BLOCK = 256 → 2-3 blocks), both
        // covariance modes: threads ∈ {2, 4, 8} must reproduce threads=1
        // bit for bit — mixtures, log-likelihoods, iteration counts.
        check::cases("em.threads_bit_identical", 6, |rng| {
            let n = 300 + (rng.gen::<u64>() % 300) as usize;
            let d = 1 + (rng.gen::<u64>() % 3) as usize;
            let k = 2 + (rng.gen::<u64>() % 2) as usize;
            let seed = rng.gen::<u64>();
            let comps: Vec<Gaussian> = (0..k)
                .map(|j| {
                    Gaussian::spherical(Vector::filled(d, j as f64 * 8.0 - 4.0), 1.0).unwrap()
                })
                .collect();
            let gen = Mixture::uniform(comps).unwrap();
            let data: Vec<Vector> = (0..n).map(|_| gen.sample(rng)).collect();
            for covariance in [CovarianceType::Full, CovarianceType::Diagonal] {
                let cfg = EmConfig {
                    k,
                    max_iters: 12,
                    tol: 1e-6,
                    covariance,
                    seed,
                    threads: 1,
                    ..Default::default()
                };
                let base = fit_em(&data, &cfg).unwrap();
                for threads in [2usize, 4, 8] {
                    let f = fit_em(&data, &EmConfig { threads, ..cfg.clone() }).unwrap();
                    assert_eq!(
                        f.log_likelihood.to_bits(),
                        base.log_likelihood.to_bits(),
                        "ll, threads={threads} cov={covariance:?}"
                    );
                    assert_eq!(
                        f.avg_log_likelihood.to_bits(),
                        base.avg_log_likelihood.to_bits(),
                        "avg ll, threads={threads}"
                    );
                    assert_eq!(f.iterations, base.iterations, "iterations, threads={threads}");
                    assert_eq!(f.converged, base.converged, "converged, threads={threads}");
                    for (a, b) in f.mixture.weights().iter().zip(base.mixture.weights()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "weight, threads={threads}");
                    }
                    for (ca, cb) in
                        f.mixture.components().iter().zip(base.mixture.components())
                    {
                        for (a, b) in ca.mean().iter().zip(cb.mean().iter()) {
                            assert_eq!(a.to_bits(), b.to_bits(), "mean, threads={threads}");
                        }
                        for (a, b) in ca.cov().as_slice().iter().zip(cb.cov().as_slice()) {
                            assert_eq!(a.to_bits(), b.to_bits(), "cov, threads={threads}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn auto_threads_matches_single_thread() {
        // threads = 0 resolves to the machine's parallelism; whatever that
        // is, the fit must equal the sequential one bit for bit.
        let data = two_component_data(700, 21);
        let cfg = EmConfig { k: 2, seed: 22, ..Default::default() };
        let base = fit_em(&data, &cfg).unwrap();
        let auto = fit_em(&data, &EmConfig { threads: 0, ..cfg }).unwrap();
        assert_eq!(base.log_likelihood.to_bits(), auto.log_likelihood.to_bits());
        assert_eq!(base.iterations, auto.iterations);
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
        let fit = fit_em_recorded(&data, &cfg, &obs).unwrap();
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

    /// `fit_em` against the fused reference, to the bit, in everything a
    /// caller can read; `ll_std` against the separate re-scoring it
    /// replaces (present exactly when the fit converged).
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
        match got.ll_std {
            Some(std) => {
                assert!(got.converged, "{what}: σ̂ without convergence");
                assert_same_bits(&[std], &[want.ll_std.expect("reference σ̂")], &format!("{what}: σ̂"));
            }
            None => assert!(!got.converged, "{what}: converged without σ̂"),
        }
    }

    #[test]
    fn two_pass_fit_matches_the_fused_reference_bit_for_bit() {
        use cludistream_rng::check;
        check::cases("em.two_pass_matches_fused", 4, |rng| {
            let d = 1 + (rng.gen::<u64>() % 4) as usize;
            let k = 2 + (rng.gen::<u64>() % 3) as usize;
            let seed = rng.gen::<u64>();
            let comps: Vec<Gaussian> = (0..k)
                .map(|j| Gaussian::spherical(Vector::filled(d, j as f64 * 6.0 - 4.0), 1.0).unwrap())
                .collect();
            let gen = Mixture::uniform(comps).unwrap();
            // One block short, exact, one over, a ragged third block, and
            // the paper's default chunk; `k` records is the minimum.
            for n in [k, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 17, 1567] {
                let data: Vec<Vector> = (0..n).map(|_| gen.sample(rng)).collect();
                for covariance in [CovarianceType::Full, CovarianceType::Diagonal] {
                    for threads in [1usize, 2, 4] {
                        // ϖ-convergence, then the iteration cap (tol = 0).
                        for (tol, max_iters) in [(1e-4, 30), (0.0, 3)] {
                            let cfg = EmConfig {
                                k,
                                max_iters,
                                tol,
                                covariance,
                                seed,
                                threads,
                                ..Default::default()
                            };
                            let what = format!(
                                "n={n} d={d} k={k} {covariance:?} threads={threads} tol={tol}"
                            );
                            assert_matches_reference(&data, &cfg, &what);
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn two_pass_fit_matches_the_fused_reference_through_the_starvation_rescue() {
        // Identical points: every cluster but one starves on every M-step.
        let data = vec![Vector::from_slice(&[2.0, 2.0]); 300];
        for covariance in [CovarianceType::Full, CovarianceType::Diagonal] {
            for threads in [1usize, 2] {
                let cfg = EmConfig { k: 3, seed: 16, covariance, threads, ..Default::default() };
                assert_matches_reference(&data, &cfg, &format!("{covariance:?} threads={threads}"));
            }
        }
    }

    #[test]
    fn two_pass_estep_matches_the_fused_reference_on_degenerate_points() {
        // Two needle-thin components and, among ordinary records, points so
        // far out that every weighted log density is -inf: their normalizer
        // is not finite and both E-steps must spread them uniformly.
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
            let batch = Batch::from_records(&data);
            let want = reference::estep(&mixture, &batch, 2, diagonal);
            assert_eq!(want.ll, f64::NEG_INFINITY, "the case must reach the uniform branch");
            for workers in [1usize, 2] {
                let mut estep = EStep::new(&data, 2, diagonal, workers);
                assert_eq!(estep.score(&mixture), f64::NEG_INFINITY);
                assert_eq!(estep.norms[3], f64::NEG_INFINITY);
                let got = estep.accumulate();
                for (j, acc) in got.chunks(got.len() / 2).enumerate() {
                    if diagonal {
                        let w = &want.diag[j];
                        assert_same_bits(&acc[..1], &[w.n], "mass");
                        assert_same_bits(&acc[1..1 + d], &w.sum, "sum");
                        assert_same_bits(&acc[1 + d..], &w.sum_sq, "sum of squares");
                    } else {
                        let (g, w) = (SuffStats::from_flat(d, acc), &want.stats[j]);
                        assert_same_bits(&[g.n()], &[w.n()], "mass");
                        assert_same_bits(
                            g.mean().unwrap().as_slice(),
                            w.mean().unwrap().as_slice(),
                            "mean",
                        );
                        assert_same_bits(
                            g.cov().unwrap().as_slice(),
                            w.cov().unwrap().as_slice(),
                            "cov",
                        );
                    }
                }
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
