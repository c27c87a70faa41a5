use crate::batch::Columns;
use crate::{GmmError, Result, BLOCK};
use cludistream_linalg::Vector;
use cludistream_rng::{Rng, StdRng};

/// Configuration for Lloyd's k-means with k-means++ seeding.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations, at least 1. An iteration assigns every
    /// record to its nearest centroid and stops the run when no
    /// assignment changed; otherwise it moves every centroid to the mean
    /// of its cluster.
    pub max_iters: usize,
    /// Seed of the k-means++ draws: the same seed on the same records
    /// gives the same fit.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig { k: 5, max_iters: 50, seed: 0 }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansFit {
    /// Final centroids (length k).
    pub centroids: Vec<Vector>,
    /// Cluster index per input record.
    pub assignments: Vec<usize>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Lloyd iterations performed.
    pub iterations: usize,
}

/// Lloyd's k-means with k-means++ seeding.
///
/// Used to initialize EM (cluster means seed the Gaussians) and by the SEM
/// baseline's secondary compression phase. Errors when `k` or `max_iters`
/// is 0, when `data.len() < k`, and on records of differing dimension or
/// with a non-finite element.
pub fn kmeans(data: &[Vector], config: &KMeansConfig) -> Result<KMeansFit> {
    if config.k == 0 {
        return Err(GmmError::InvalidParameter { name: "k", constraint: "k >= 1" });
    }
    if config.max_iters == 0 {
        return Err(GmmError::InvalidParameter { name: "max_iters", constraint: "max_iters >= 1" });
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
    Ok(kmeans_cols(&Columns::from_records(data), config))
}

/// [`kmeans`] on a chunk's dimension-major copy, which the caller has
/// checked holds at least `config.k ≥ 1` finite records; `max_iters ≥ 1`.
///
/// The records are read from the columns: the assignment takes eight
/// records at a time through every centroid (see [`assign`]), and the
/// update adds each record to its centroid's sums in record order. Per
/// record and per centroid element that is the arithmetic of the
/// row-major loop — `Σ_i (x_i − m_i)²` in ascending `i`,
/// `Iterator::min_by`'s first minimum, `sum += x` record after record,
/// then `sum · (1/count)` — so the fit is bit-identical to it.
pub(crate) fn kmeans_cols(cols: &Columns, config: &KMeansConfig) -> KMeansFit {
    wide!({
        let (n, d, k) = (cols.len(), cols.dim(), config.k);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centroids = kmeans_plusplus_seeds(cols, k, &mut rng);
        let mut assignments = vec![usize::MAX; n];
        let mut nearest = vec![0; n];
        let mut dist = vec![0.0; n];
        let mut sums = vec![0.0; k * d];
        let mut counts = vec![0usize; k];
        let mut iterations = 0;

        for iter in 0..config.max_iters {
            iterations = iter + 1;
            // Assignment step.
            for (start, block) in cols.blocks() {
                let nearest = &mut nearest[start..BLOCK.min(n - start) + start];
                let mut b = 0;
                while b < nearest.len() {
                    b += match nearest.len() - b {
                        8.. => assign::<8>(block, b, &centroids, k, nearest),
                        _ => assign::<1>(block, b, &centroids, k, nearest),
                    };
                }
            }
            if nearest == assignments {
                break;
            }
            std::mem::swap(&mut assignments, &mut nearest);
            // Update step.
            sums.fill(0.0);
            counts.fill(0);
            for (start, block) in cols.blocks() {
                let count = BLOCK.min(n - start);
                for (b, &a) in assignments[start..start + count].iter().enumerate() {
                    counts[a] += 1;
                    let x = block.iter().skip(b).step_by(count);
                    for (sum, x) in sums[a * d..(a + 1) * d].iter_mut().zip(x) {
                        *sum += x;
                    }
                }
            }
            for (c, &count) in counts.iter().enumerate() {
                let centroid = c * d..(c + 1) * d;
                if count > 0 {
                    let inv = 1.0 / count as f64;
                    for (m, &sum) in centroids[centroid.clone()].iter_mut().zip(&sums[centroid]) {
                        *m = sum * inv;
                    }
                } else {
                    // Empty cluster: reseed at the record farthest from its
                    // centroid (the last one, on a tie) to keep k clusters
                    // alive.
                    sq_dists_to_assigned(cols, &centroids, &assignments, &mut dist);
                    let mut far = 0;
                    for (b, &t) in dist.iter().enumerate() {
                        if t >= dist[far] {
                            far = b;
                        }
                    }
                    for (m, x) in centroids[centroid].iter_mut().zip(cols.record(far)) {
                        *m = x;
                    }
                }
            }
        }

        sq_dists_to_assigned(cols, &centroids, &assignments, &mut dist);
        let inertia = dist.iter().sum();
        let centroids =
            (0..k).map(|c| Vector::from_slice(&centroids[c * d..(c + 1) * d])).collect();
        KMeansFit { centroids, assignments, inertia, iterations }
    })
}

/// k-means++ seeding: first centroid uniform, subsequent centroids sampled
/// proportionally to squared distance from the nearest chosen centroid.
/// Returns the `k` centroids flat, centroid after centroid.
#[inline(always)]
fn kmeans_plusplus_seeds<R: Rng + ?Sized>(
    cols: &Columns,
    k: usize,
    rng: &mut R,
) -> Vec<f64> {
    let (n, d) = (cols.len(), cols.dim());
    assert!(n > 0 && k >= 1, "kmeans++ needs data and k >= 1");
    let mut centroids = Vec::with_capacity(k * d);
    centroids.extend(cols.record(rng.gen_range(0..n)));
    let (mut dist_sq, mut dist) = (vec![0.0; n], vec![0.0; n]);
    sq_dists(cols, &centroids, &mut dist_sq);
    for c in 1..k {
        let total: f64 = dist_sq.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centroids; pick uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &d) in dist_sq.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.extend(cols.record(next));
        sq_dists(cols, &centroids[c * d..], &mut dist);
        for (m, &t) in dist_sq.iter_mut().zip(&dist) {
            *m = m.min(t);
        }
    }
    centroids
}

/// Assigns records `b.. b + G` of a block (its `count × d` columns) to
/// their nearest of the `k` flat `centroids`: `nearest[b]` is the first
/// centroid, in order, at the least `Σ_i (x_bi − m_i)²` (summed as
/// [`sq_dists`] sums). The `G` records' distances and running minima
/// stay in registers, and the minimum is kept by a branch-free select: a
/// distance replaces it only when strictly less. Returns `G`.
#[inline(always)]
fn assign<const G: usize>(
    block: &[f64],
    b: usize,
    centroids: &[f64],
    k: usize,
    nearest: &mut [usize],
) -> usize {
    let (d, count) = (centroids.len() / k, nearest.len());
    let mut best = [f64::INFINITY; G];
    let mut arg = [0usize; G];
    for c in 0..k {
        let mut dist = [-0.0; G];
        for (i, &m) in centroids[c * d..(c + 1) * d].iter().enumerate() {
            for (dist, &x) in dist.iter_mut().zip(&block[i * count + b..][..G]) {
                let diff = x - m;
                *dist += diff * diff;
            }
        }
        for ((best, arg), &t) in best.iter_mut().zip(&mut arg).zip(&dist) {
            let closer = u64::from(t < *best).wrapping_neg();
            *best = f64::from_bits(best.to_bits() ^ ((best.to_bits() ^ t.to_bits()) & closer));
            *arg ^= (*arg ^ c) & closer as usize;
        }
    }
    nearest[b..b + G].copy_from_slice(&arg);
    G
}

/// `out[b] = Σ_i (x_bi − m_i)²`, summed in ascending `i` from `-0.0`, as
/// `Iterator::sum` starts (so an empty sum, at d = 0, is `-0.0` too).
#[inline(always)]
fn sq_dists(cols: &Columns, m: &[f64], out: &mut [f64]) {
    out.fill(-0.0);
    for (start, block) in cols.blocks() {
        let out = &mut out[start..BLOCK.min(cols.len() - start) + start];
        for (col, &m) in block.chunks_exact(out.len()).zip(m) {
            for (o, &x) in out.iter_mut().zip(col) {
                let diff = x - m;
                *o += diff * diff;
            }
        }
    }
}

/// [`sq_dists`] of every record to its own centroid, `assignments[b]`
/// of the flat `centroids`.
#[inline(always)]
fn sq_dists_to_assigned(cols: &Columns, centroids: &[f64], assignments: &[usize], out: &mut [f64]) {
    let d = cols.dim();
    out.fill(-0.0);
    for (start, block) in cols.blocks() {
        let out = &mut out[start..BLOCK.min(cols.len() - start) + start];
        for (i, col) in block.chunks_exact(out.len()).enumerate() {
            for ((o, &x), &a) in out.iter_mut().zip(col).zip(&assignments[start..]) {
                let diff = x - centroids[a * d + i];
                *o += diff * diff;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_data() -> Vec<Vector> {
        // Two tight blobs around 0 and 100.
        (0..40)
            .map(|i| {
                let base = if i % 2 == 0 { 0.0 } else { 100.0 };
                Vector::from_slice(&[base + (i / 2) as f64 * 0.1])
            })
            .collect()
    }

    #[test]
    fn separates_two_blobs() {
        let fit = kmeans(&blob_data(), &KMeansConfig { k: 2, ..Default::default() }).unwrap();
        let mut c: Vec<f64> = fit.centroids.iter().map(|v| v[0]).collect();
        c.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((c[0] - 0.95).abs() < 1.0, "centroid {c:?}");
        assert!((c[1] - 100.95).abs() < 1.0, "centroid {c:?}");
        // All points in a blob share an assignment.
        let a0 = fit.assignments[0];
        for i in (0..40).step_by(2) {
            assert_eq!(fit.assignments[i], a0);
        }
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let data = blob_data();
        let f1 = kmeans(&data, &KMeansConfig { k: 1, ..Default::default() }).unwrap();
        let f2 = kmeans(&data, &KMeansConfig { k: 2, ..Default::default() }).unwrap();
        assert!(f2.inertia < f1.inertia);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data: Vec<Vector> =
            (0..5).map(|i| Vector::from_slice(&[i as f64 * 10.0])).collect();
        let fit = kmeans(&data, &KMeansConfig { k: 5, ..Default::default() }).unwrap();
        assert!(fit.inertia < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blob_data();
        let cfg = KMeansConfig { k: 2, seed: 9, ..Default::default() };
        let a = kmeans(&data, &cfg).unwrap();
        let b = kmeans(&data, &cfg).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn errors_on_bad_input() {
        let data = blob_data();
        assert!(kmeans(&data, &KMeansConfig { k: 0, ..Default::default() }).is_err());
        assert!(kmeans(&data[..1], &KMeansConfig { k: 2, ..Default::default() }).is_err());
        let mixed = vec![Vector::zeros(1), Vector::zeros(2)];
        assert!(kmeans(&mixed, &KMeansConfig { k: 1, ..Default::default() }).is_err());
        assert!(kmeans(&data, &KMeansConfig { k: 2, max_iters: 0, seed: 0 }).is_err());
    }

    #[test]
    fn a_non_finite_record_is_an_error_not_a_panic() {
        let finite = GmmError::InvalidParameter { name: "data", constraint: "all records finite" };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 17, 39] {
                let mut data = blob_data();
                data[at] = Vector::from_slice(&[bad]);
                for k in [1, 2, 5] {
                    let got = kmeans(&data, &KMeansConfig { k, ..Default::default() });
                    assert_eq!(got.unwrap_err(), finite, "{bad} at {at}, k {k}");
                }
            }
        }
    }

    /// `want`'s fields against `got`'s, to the bit.
    fn assert_same_fit(got: &KMeansFit, want: &KMeansFit, what: &str) {
        assert_eq!(got.iterations, want.iterations, "{what}: iterations");
        assert_eq!(got.assignments, want.assignments, "{what}: assignments");
        assert_eq!(got.inertia.to_bits(), want.inertia.to_bits(), "{what}: inertia");
        assert_eq!(got.centroids.len(), want.centroids.len(), "{what}: k");
        for (c, (g, w)) in got.centroids.iter().zip(&want.centroids).enumerate() {
            for (g, w) in g.iter().zip(w.iter()) {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}: centroid {c}: {g:e} vs {w:e}");
            }
        }
    }

    #[test]
    fn column_kmeans_matches_the_reference_bit_for_bit() {
        use cludistream_rng::check;
        check::cases("kmeans.columns_match_row_major", 6, |rng| {
            for d in 0..=6 {
                for k in 1..=7 {
                    let n = k + rng.gen_range(0..=600 - k);
                    let scale = 10f64.powf(rng.gen_range(-3.0..150.0));
                    let max_iters = [1, 10, 50][rng.gen_range(0..3usize)];
                    let seed = rng.gen::<u64>();
                    // Blobs, uniform noise, or fewer distinct records than
                    // k: k-means++ then finds every record on a centroid
                    // (the `total <= 0` draw), and a centroid placed on an
                    // earlier one loses every tie, so its cluster is empty
                    // and reseeded on the first update.
                    let kind = rng.gen_range(0..3usize);
                    let distinct = if kind == 2 { rng.gen_range(1..k.max(2)) } else { n };
                    let centres: Vec<Vec<f64>> = (0..k.min(distinct))
                        .map(|_| (0..d).map(|_| rng.gen_range(-5.0..5.0)).collect())
                        .collect();
                    let points: Vec<Vector> = (0..distinct)
                        .map(|i| {
                            let c = &centres[i % centres.len()];
                            (0..d)
                                .map(|j| match kind {
                                    0 => (c[j] + 0.3 * rng.gen_range(-1.0..1.0)) * scale,
                                    _ => rng.gen_range(-1.0..1.0) * scale,
                                })
                                .collect()
                        })
                        .collect();
                    let data: Vec<Vector> = (0..n).map(|i| points[i % distinct].clone()).collect();
                    let config = KMeansConfig { k, max_iters, seed };
                    let want = crate::reference::kmeans(&data, &config);
                    let got = kmeans(&data, &config).unwrap();
                    let what =
                        format!("d {d} k {k} n {n} scale {scale:e} kind {kind} iters {max_iters}");
                    assert_same_fit(&got, &want, &what);
                }
            }
        });
    }

    #[test]
    fn identical_points_dont_crash_seeding() {
        let data = vec![Vector::from_slice(&[1.0]); 10];
        let fit = kmeans(&data, &KMeansConfig { k: 3, ..Default::default() }).unwrap();
        assert_eq!(fit.centroids.len(), 3);
        assert!(fit.inertia < 1e-12);
    }

    #[test]
    fn seeds_are_spread_out() {
        let data = Columns::from_records(&blob_data());
        let mut rng = StdRng::seed_from_u64(1);
        let seeds = kmeans_plusplus_seeds(&data, 2, &mut rng);
        // With two distant blobs, k-means++ virtually always picks one seed
        // from each.
        let gap = (seeds[0] - seeds[1]).abs();
        assert!(gap > 50.0, "seeds too close: {gap}");
    }
}
