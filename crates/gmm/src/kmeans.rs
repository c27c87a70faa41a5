use crate::{GmmError, Result};
use cludistream_linalg::Vector;
use cludistream_rng::{Rng, StdRng};

/// Configuration for Lloyd's k-means with k-means++ seeding.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Stop when no assignment changes between iterations.
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

/// k-means++ seeding: first centroid uniform, subsequent centroids sampled
/// proportionally to squared distance from the nearest chosen centroid.
pub(crate) fn kmeans_plusplus_seeds<R: Rng + ?Sized>(
    data: &[Vector],
    k: usize,
    rng: &mut R,
) -> Vec<Vector> {
    assert!(!data.is_empty() && k >= 1, "kmeans++ needs data and k >= 1");
    let mut centroids: Vec<Vector> = Vec::with_capacity(k);
    centroids.push(data[rng.gen_range(0..data.len())].clone());
    let mut dist_sq: Vec<f64> = data.iter().map(|x| x.dist_sq(&centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = dist_sq.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centroids; pick uniformly.
            data[rng.gen_range(0..data.len())].clone()
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
            data[chosen].clone()
        };
        for (d, x) in dist_sq.iter_mut().zip(data) {
            *d = d.min(x.dist_sq(&next));
        }
        centroids.push(next);
    }
    centroids
}

/// Lloyd's k-means with k-means++ seeding.
///
/// Used to initialize EM (cluster means seed the Gaussians) and by the SEM
/// baseline's secondary compression phase. Errors when `data.len() < k`.
pub fn kmeans(data: &[Vector], config: &KMeansConfig) -> Result<KMeansFit> {
    if config.k == 0 {
        return Err(GmmError::InvalidParameter { name: "k", constraint: "k >= 1" });
    }
    if data.len() < config.k {
        return Err(GmmError::NotEnoughData { have: data.len(), need: config.k });
    }
    let d = data[0].dim();
    for x in data {
        if x.dim() != d {
            return Err(GmmError::DimensionMismatch { expected: d, got: x.dim() });
        }
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut centroids = kmeans_plusplus_seeds(data, config.k, &mut rng);
    let mut assignments = vec![usize::MAX; data.len()];
    let mut iterations = 0;

    for iter in 0..config.max_iters {
        iterations = iter + 1;
        // Assignment step.
        let mut changed = false;
        for (a, x) in assignments.iter_mut().zip(data) {
            let nearest = centroids
                .iter()
                .enumerate()
                .map(|(c, m)| (c, x.dist_sq(m)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN distance"))
                .map(|(c, _)| c)
                .expect("k >= 1");
            if *a != nearest {
                *a = nearest;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Update step.
        let mut sums = vec![Vector::zeros(d); config.k];
        let mut counts = vec![0usize; config.k];
        for (&a, x) in assignments.iter().zip(data) {
            sums[a] += x;
            counts[a] += 1;
        }
        for (c, (sum, &count)) in sums.into_iter().zip(&counts).enumerate() {
            if count > 0 {
                centroids[c] = sum.scaled(1.0 / count as f64);
            } else {
                // Empty cluster: reseed at the point farthest from its
                // centroid to keep k clusters alive.
                let (far_idx, _) = data
                    .iter()
                    .enumerate()
                    .map(|(i, x)| (i, x.dist_sq(&centroids[assignments[i]])))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN distance"))
                    .expect("non-empty data");
                centroids[c] = data[far_idx].clone();
            }
        }
    }

    let inertia = assignments
        .iter()
        .zip(data)
        .map(|(&a, x)| x.dist_sq(&centroids[a]))
        .sum();
    Ok(KMeansFit { centroids, assignments, inertia, iterations })
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
        let data = blob_data();
        let mut rng = StdRng::seed_from_u64(1);
        let seeds = kmeans_plusplus_seeds(&data, 2, &mut rng);
        // With two distant blobs, k-means++ virtually always picks one seed
        // from each.
        let gap = (seeds[0][0] - seeds[1][0]).abs();
        assert!(gap > 50.0, "seeds too close: {gap}");
    }
}
