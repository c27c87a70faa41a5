//! The test reference of the crate's kernels, written from the paper's
//! formulas one record at a time: Eq. 1's mixture density, Definition
//! 1's average log likelihood and the σ̂ of the fit test, Sec. 3.2's
//! E-step and M-step, k-means++ seeding and Lloyd's loop, and the EM fit
//! they make. Every density is [`Gaussian::log_pdf`], the scalar
//! Cholesky path, so no column kernel is on both sides of a comparison.
//!
//! The block kernels promise these values bit for bit (see
//! `batch.rs`, "Bit-identity contract"), so every operation here runs in
//! the order that contract fixes: components in order inside a record,
//! records in order inside a [`BLOCK`], blocks in order across the chunk.
//! The bit-identity tests compare against this module with `to_bits`.
//! Where a kernel is held to a bound instead (the EM accumulate pass,
//! whose log-sum-exp may drop a term too small to reach its sum),
//! [`compensated_moments`] gives the moment sums Neumaier-compensated,
//! with the magnitudes the bound is stated in.

#![cfg(test)]

use crate::em::MIN_WEIGHT;
use crate::{
    log_sum_exp, CovarianceType, EmConfig, EmFit, Gaussian, KMeansConfig, KMeansFit, Mixture,
    Result, SuffStats, BLOCK,
};
use cludistream_linalg::Vector;
use cludistream_rng::{Rng, StdRng};

/// `ln w_j + ln p(x|j)` for every component, in order.
fn weighted_terms(mixture: &Mixture, x: &Vector) -> Vec<f64> {
    let components = mixture.components().iter().zip(mixture.log_weights());
    components.map(|(c, lw)| lw + c.log_pdf(x)).collect()
}

/// `ln p(x) = ln Σ_j w_j p(x|j)` (Eq. 1).
pub(crate) fn log_density(mixture: &Mixture, x: &Vector) -> f64 {
    log_sum_exp(&weighted_terms(mixture, x))
}

/// Definition 1: `Σ_x ln p(x) / |D|`, summed in record order.
pub(crate) fn avg_log_likelihood(mixture: &Mixture, data: &[Vector]) -> f64 {
    let mut total = 0.0;
    for x in data {
        total += log_density(mixture, x);
    }
    total / data.len() as f64
}

/// σ̂: the population standard deviation of `ln p(x)` over `data`, the
/// mean and then the squared deviations summed in record order; 0 for
/// fewer than two records.
pub(crate) fn ll_std(mixture: &Mixture, data: &[Vector]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let lls: Vec<f64> = data.iter().map(|x| log_density(mixture, x)).collect();
    let n = lls.len() as f64;
    let mean = lls.iter().sum::<f64>() / n;
    let var = lls.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / n;
    var.sqrt()
}

/// What record `x` with weight `w` adds to one component's moments, held
/// flat: `[n | Σwx | Σwxxᵀ]` (scatter row-major), or `[n | Σwx | Σwx²]`
/// when `diagonal`. One product per element: `w`, `w·x_i`, `(w·x_i)·x_j`,
/// `(w·x_i)·x_i`.
fn products(x: &Vector, w: f64, diagonal: bool) -> Vec<f64> {
    let mut p = vec![w];
    p.extend(x.iter().map(|&xi| w * xi));
    for &xi in x.iter() {
        let wx = w * xi;
        if diagonal {
            p.push(wx * xi);
        } else {
            p.extend(x.iter().map(|&xj| wx * xj));
        }
    }
    p
}

/// Adds record `x` with weight `w` to one component's flat moments: each
/// element adds its one [`products`] entry.
pub(crate) fn add_moments(m: &mut [f64], x: &Vector, w: f64, diagonal: bool) {
    for (m, p) in m.iter_mut().zip(products(x, w, diagonal)) {
        *m += p;
    }
}

/// `Pr(j|x)` for every component (Sec. 3.2), the ratio `w_j p(x|j) /
/// Σ_i w_i p(x|i)` of the weighted log densities `terms`: each term
/// scaled by the largest, `e_j = exp(t_j − max)`, over their sum `s`,
/// every term summed in component order. Uniform `1/k` when `ln p(x)` is
/// not finite.
fn responsibilities(terms: &[f64]) -> Vec<f64> {
    let k = terms.len();
    if !log_sum_exp(terms).is_finite() {
        return vec![1.0 / k as f64; k];
    }
    let max = terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let e: Vec<f64> = terms.iter().map(|t| (t - max).exp()).collect();
    let mut s = 0.0;
    for &e in &e {
        s += e;
    }
    e.iter().map(|e| e / s).collect()
}

/// Neumaier's compensated sum: the running sum and, apart, the rounding
/// error of each addition, added back at the end. Within `2u·|Σx|` plus
/// a term of order `n·u²·Σ|x|` of the exact sum (Higham, "Accuracy and
/// Stability of Numerical Algorithms", §4.3).
#[derive(Debug, Default, Clone, Copy)]
struct Neumaier {
    sum: f64,
    compensation: f64,
}

impl Neumaier {
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        self.compensation +=
            if self.sum.abs() >= x.abs() { (self.sum - t) + x } else { (x - t) + self.sum };
        self.sum = t;
    }

    fn total(self) -> f64 {
        self.sum + self.compensation
    }
}

/// One accumulate pass's moments, the reference for a bound: every
/// component's flat moments over `data` under `mixture`'s
/// [`responsibilities`], each element the Neumaier-compensated sum of its
/// per-record [`products`] (records with a weight that is not positive
/// add nothing), beside `magnitude`, the sum of those products' absolute
/// values, and `unweighted`, the sum of the absolute values of the
/// products with weight 1 over every record.
#[derive(Debug)]
pub(crate) struct CompensatedMoments {
    pub(crate) sums: Vec<Vec<f64>>,
    pub(crate) magnitude: Vec<Vec<f64>>,
    pub(crate) unweighted: Vec<f64>,
}

/// [`CompensatedMoments`] of `data` under `mixture`.
pub(crate) fn compensated_moments(
    mixture: &Mixture,
    data: &[Vector],
    diagonal: bool,
) -> CompensatedMoments {
    let (k, width) = (mixture.k(), width(mixture.dim(), diagonal));
    let mut sums = vec![vec![Neumaier::default(); width]; k];
    let mut magnitude = vec![vec![0.0; width]; k];
    let mut unweighted = vec![0.0; width];
    for x in data {
        for (u, p) in unweighted.iter_mut().zip(products(x, 1.0, diagonal)) {
            *u += p.abs();
        }
        let r = responsibilities(&weighted_terms(mixture, x));
        for ((sums, magnitude), r) in sums.iter_mut().zip(&mut magnitude).zip(r) {
            if r > 0.0 {
                let products = products(x, r, diagonal);
                for ((s, m), p) in sums.iter_mut().zip(magnitude.iter_mut()).zip(products) {
                    s.add(p);
                    *m += p.abs();
                }
            }
        }
    }
    let sums = sums.iter().map(|c| c.iter().map(|s| s.total()).collect()).collect();
    CompensatedMoments { sums, magnitude, unweighted }
}

/// The length of one component's flat moments.
fn width(d: usize, diagonal: bool) -> usize {
    if diagonal {
        1 + 2 * d
    } else {
        1 + d + d * d
    }
}

/// What one E-step leaves: the chunk's log likelihood, `ln p(x)` of
/// every record, and every component's flat moments.
#[derive(Debug)]
pub(crate) struct EStep {
    pub(crate) ll: f64,
    pub(crate) norms: Vec<f64>,
    pub(crate) moments: Vec<Vec<f64>>,
}

/// The E-step of Sec. 3.2 over `data`: record by record, the
/// [`responsibilities`] `Pr(j|x)` of `t_j = ln w_j + ln p(x|j)`, each
/// added to its component's moments with that weight; a weight that is
/// not positive adds nothing. Every [`BLOCK`] of records sums into its own
/// log likelihood and moments, and the blocks are folded left in order.
pub(crate) fn e_step(mixture: &Mixture, data: &[Vector], diagonal: bool) -> EStep {
    let (k, width) = (mixture.k(), width(mixture.dim(), diagonal));
    let mut norms = Vec::with_capacity(data.len());
    let mut total: Option<(f64, Vec<Vec<f64>>)> = None;
    for block in data.chunks(BLOCK) {
        let mut ll = 0.0;
        let mut moments = vec![vec![0.0; width]; k];
        for x in block {
            let terms = weighted_terms(mixture, x);
            let norm = log_sum_exp(&terms);
            ll += norm;
            norms.push(norm);
            for (m, r) in moments.iter_mut().zip(responsibilities(&terms)) {
                if r > 0.0 {
                    add_moments(m, x, r, diagonal);
                }
            }
        }
        total = Some(match total {
            None => (ll, moments),
            Some((sum, mut acc)) => {
                for (a, m) in acc.iter_mut().flatten().zip(moments.iter().flatten()) {
                    *a += m;
                }
                (sum + ll, acc)
            }
        });
    }
    let (ll, moments) = total.expect("at least one record");
    EStep { ll, norms, moments }
}

/// The M-step of Sec. 3.2: `w_j = n_j/|D|` and the ML (biased) mean and
/// covariance of each component's moments, per-dimension variances
/// floored at 1e-12 when diagonal. A component whose mass is below
/// `MIN_WEIGHT·|D|` (or not positive) is re-seeded as a sphere of
/// variance `avg_var` at the lowest-density record of a 256-record
/// stride sample, its first coordinate moved by 1e-3 per component
/// before it, with weight `1/|D|`.
fn m_step(
    mixture: &Mixture,
    moments: &[Vec<f64>],
    data: &[Vector],
    config: &EmConfig,
    avg_var: f64,
) -> Result<Mixture> {
    let (n, d) = (data.len() as f64, mixture.dim());
    let mut comps = Vec::with_capacity(moments.len());
    let mut weights = Vec::with_capacity(moments.len());
    for m in moments {
        let mass = m[0];
        if mass < MIN_WEIGHT * n || mass <= 0.0 {
            let stride = (data.len() / 256).max(1);
            let worst = data
                .iter()
                .step_by(stride)
                .min_by(|a, b| {
                    log_density(mixture, a).partial_cmp(&log_density(mixture, b)).expect("NaN")
                })
                .expect("non-empty data");
            let mut seed = worst.clone();
            seed[0] += comps.len() as f64 * 1e-3;
            comps.push(Gaussian::spherical(seed, avg_var)?);
            weights.push(1.0 / n);
            continue;
        }
        comps.push(if config.covariance == CovarianceType::Diagonal {
            let inv = 1.0 / mass;
            let mean: Vector = m[1..1 + d].iter().map(|s| s * inv).collect();
            let vars: Vec<f64> = m[1 + d..]
                .iter()
                .zip(mean.iter())
                .map(|(sq, m)| (sq * inv - m * m).max(0.0).max(1e-12))
                .collect();
            Gaussian::diagonal(mean, &vars)?
        } else {
            SuffStats::from_flat(d, m).to_gaussian()?.0
        });
        weights.push(mass / n);
    }
    Mixture::new(comps, weights)
}

/// k-means++ seeding: the first centroid a uniform draw, each next one a
/// draw proportional to the squared distance to the nearest centroid so
/// far (uniform again when every record sits on a centroid).
fn kmeans_plusplus_seeds(data: &[Vector], k: usize, rng: &mut StdRng) -> Vec<Vector> {
    let mut centroids = vec![data[rng.gen_range(0..data.len())].clone()];
    let mut dist_sq: Vec<f64> = data.iter().map(|x| x.dist_sq(&centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = dist_sq.iter().sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..data.len())
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = data.len() - 1;
            for (i, &d) in dist_sq.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        let next = data[next].clone();
        for (d, x) in dist_sq.iter_mut().zip(data) {
            *d = d.min(x.dist_sq(&next));
        }
        centroids.push(next);
    }
    centroids
}

/// Lloyd's k-means from k-means++ seeds on at least `k ≥ 1` finite
/// records: each iteration assigns every record to its nearest centroid
/// (the first one, on a tie) and stops when no assignment changed;
/// otherwise each centroid moves to `Σx · (1/count)` of its cluster, and
/// an empty cluster's centroid to the record farthest from its own
/// centroid (the last one, on a tie).
pub(crate) fn kmeans(data: &[Vector], config: &KMeansConfig) -> KMeansFit {
    let (k, d) = (config.k, data[0].dim());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut centroids = kmeans_plusplus_seeds(data, k, &mut rng);
    let mut assignments = vec![usize::MAX; data.len()];
    let mut iterations = 0;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        let mut changed = false;
        for (a, x) in assignments.iter_mut().zip(data) {
            let dists = centroids.iter().map(|m| x.dist_sq(m));
            let nearest = dists
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN distance"))
                .map(|(c, _)| c)
                .expect("k >= 1");
            changed |= *a != nearest;
            *a = nearest;
        }
        if !changed {
            break;
        }
        let mut sums = vec![Vector::zeros(d); k];
        let mut counts = vec![0usize; k];
        for (&a, x) in assignments.iter().zip(data) {
            sums[a] += x;
            counts[a] += 1;
        }
        for (c, (sum, &count)) in sums.into_iter().zip(&counts).enumerate() {
            centroids[c] = if count > 0 {
                sum.scaled(1.0 / count as f64)
            } else {
                let far = data
                    .iter()
                    .zip(&assignments)
                    .map(|(x, &a)| x.dist_sq(&centroids[a]))
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN distance"))
                    .map(|(i, _)| i)
                    .expect("non-empty data");
                data[far].clone()
            };
        }
    }
    let inertia = assignments.iter().zip(data).map(|(&a, x)| x.dist_sq(&centroids[a])).sum();
    KMeansFit { centroids, assignments, inertia, iterations }
}

/// EM (Sec. 3.2) on records `fit_em` accepts: k-means++
/// and ten Lloyd iterations on a seed drawn from `config.seed` start the
/// mixture (a cluster of at least `d + 1` records becomes its ML
/// Gaussian, a smaller one a sphere of the chunk's average variance at
/// its centroid, weighted by its size, at least 1). Each iteration scores
/// the chunk, stops when the average log likelihood moved by less than
/// `tol`, and otherwise re-estimates. σ̂ is scored afresh from the
/// returned mixture when the fit converged.
pub(crate) fn fit(data: &[Vector], config: &EmConfig) -> Result<EmFit> {
    let d = data[0].dim();
    let diagonal = config.covariance == CovarianceType::Diagonal;
    let mut global = vec![0.0; width(d, false)];
    for x in data {
        add_moments(&mut global, x, 1.0, false);
    }
    let avg_var = (SuffStats::from_flat(d, &global).cov()?.trace() / d as f64).max(1e-6);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let km = kmeans(data, &KMeansConfig { k: config.k, max_iters: 10, seed: rng.gen() });
    let mut clusters = vec![vec![0.0; width(d, false)]; config.k];
    for (&a, x) in km.assignments.iter().zip(data) {
        add_moments(&mut clusters[a], x, 1.0, false);
    }
    let (mut comps, mut weights) = (Vec::with_capacity(config.k), Vec::with_capacity(config.k));
    for (s, centroid) in clusters.iter().zip(km.centroids) {
        let s = SuffStats::from_flat(d, s);
        comps.push(if s.n() >= (d + 1) as f64 {
            Gaussian::new(s.mean()?, s.cov()?)?
        } else {
            Gaussian::spherical(centroid, avg_var)?
        });
        weights.push(s.n().max(1.0));
    }
    let mut mixture = Mixture::new(comps, weights)?;

    let n = data.len() as f64;
    let (mut prev_avg, mut log_likelihood) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    let (mut iterations, mut converged) = (0, false);
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        let step = e_step(&mixture, data, diagonal);
        log_likelihood = step.ll;
        let avg = step.ll / n;
        if (avg - prev_avg).abs() < config.tol {
            converged = true;
            break;
        }
        prev_avg = avg;
        mixture = m_step(&mixture, &step.moments, data, config, avg_var)?;
    }
    Ok(EmFit {
        avg_log_likelihood: log_likelihood / n,
        ll_std: converged.then(|| ll_std(&mixture, data)),
        mixture,
        log_likelihood,
        iterations,
        converged,
    })
}
