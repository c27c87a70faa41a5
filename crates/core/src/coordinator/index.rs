//! Spatial index over group aggregate means — the paper's stated future
//! work: "constructing index structure to accelerate merge and split based
//! on the mixture models".
//!
//! Inserting a component and re-merging a split component both need the
//! group minimizing the precision-weighted distance `M_split`. A linear
//! scan is O(G) exact distance evaluations (each a pair of triangular
//! solves); [`GroupIndex`] is a kd-tree over the aggregate *means* used as
//! a Euclidean pre-filter: candidates are taken in ascending Euclidean
//! order and the exact criterion is evaluated only until it provably
//! cannot improve (the precision-weighted distance is lower-bounded by
//! `λ_min · ‖μ_i − μ_Mix‖²`, where `λ_min` is the smallest eigenvalue of
//! the summed precisions — conservatively bounded here by the query
//! component's own precision floor).

use cludistream_linalg::Vector;

/// One indexed entry: a group's position (aggregate mean) and its slot in
/// the coordinator's group table.
#[derive(Debug, Clone)]
struct Entry {
    point: Vector,
    /// Index into the coordinator's `groups` vector.
    slot: usize,
}

/// Immutable kd-tree rebuilt on demand (group counts are small — tens —
/// so rebuilds are cheap; the win is in the many nearest-group queries per
/// rebuild during bursts of updates).
#[derive(Debug, Default)]
pub struct GroupIndex {
    entries: Vec<Entry>,
    /// kd-tree as an implicit median-split structure: `order` holds entry
    /// indices in tree layout, `splits[i]` the split dimension at node i.
    order: Vec<usize>,
    splits: Vec<usize>,
}

impl GroupIndex {
    /// Builds the index from `(slot, mean)` pairs.
    pub fn build(points: impl IntoIterator<Item = (usize, Vector)>) -> Self {
        let entries: Vec<Entry> =
            points.into_iter().map(|(slot, point)| Entry { point, slot }).collect();
        let n = entries.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut splits = vec![0usize; n];
        if n > 0 {
            let dim = entries[0].point.dim();
            build_recursive(&entries, &mut order, &mut splits, 0, n, dim);
        }
        GroupIndex { entries, order, splits }
    }

    /// Number of indexed groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns up to `k` group slots in ascending Euclidean distance from
    /// `query` — the candidate set for the exact `M_split`/`M_remerge`
    /// evaluation.
    pub fn nearest(&self, query: &Vector, k: usize) -> Vec<usize> {
        if self.entries.is_empty() || k == 0 {
            return Vec::new();
        }
        // Best-first kd search with a bounded result heap.
        let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        self.search(0, self.order.len(), query, k, &mut best);
        best.sort_by(|a, b| a.0.total_cmp(&b.0));
        best.into_iter().map(|(_, slot)| slot).collect()
    }

    fn search(
        &self,
        lo: usize,
        hi: usize,
        query: &Vector,
        k: usize,
        best: &mut Vec<(f64, usize)>,
    ) {
        if lo >= hi {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let entry = &self.entries[self.order[mid]];
        let d2 = query.dist_sq(&entry.point);
        push_candidate(best, k, d2, entry.slot);

        let axis = self.splits[mid];
        let diff = query[axis] - entry.point[axis];
        let (near, far) = if diff <= 0.0 {
            ((lo, mid), (mid + 1, hi))
        } else {
            ((mid + 1, hi), (lo, mid))
        };
        self.search(near.0, near.1, query, k, best);
        // Prune the far side when the splitting plane is farther than the
        // current worst candidate.
        let worst = best.last().map_or(f64::INFINITY, |&(d, _)| d);
        if best.len() < k || diff * diff <= worst {
            self.search(far.0, far.1, query, k, best);
        }
    }
}

fn push_candidate(best: &mut Vec<(f64, usize)>, k: usize, d2: f64, slot: usize) {
    let pos = best.partition_point(|&(d, _)| d < d2);
    best.insert(pos, (d2, slot));
    if best.len() > k {
        best.pop();
    }
}

fn build_recursive(
    entries: &[Entry],
    order: &mut [usize],
    splits: &mut [usize],
    lo: usize,
    hi: usize,
    dim: usize,
) {
    if lo >= hi {
        return;
    }
    // Pick the axis with the largest spread in this range.
    let axis = (0..dim)
        .max_by(|&a, &b| {
            let spread = |axis: usize| {
                let vals = order[lo..hi].iter().map(|&i| entries[i].point[axis]);
                let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
                for v in vals {
                    min = min.min(v);
                    max = max.max(v);
                }
                max - min
            };
            spread(a).total_cmp(&spread(b))
        })
        .unwrap_or(0);
    let mid = lo + (hi - lo) / 2;
    order[lo..hi].select_nth_unstable_by((hi - lo) / 2, |&a, &b| {
        entries[a].point[axis].total_cmp(&entries[b].point[axis])
    });
    splits[mid] = axis;
    build_recursive(entries, order, splits, lo, mid, dim);
    build_recursive(entries, order, splits, mid + 1, hi, dim);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_index() -> GroupIndex {
        // 5x5 grid of points in 2-d.
        let pts = (0..25).map(|i| {
            let (x, y) = ((i % 5) as f64, (i / 5) as f64);
            (i, Vector::from_slice(&[x, y]))
        });
        GroupIndex::build(pts)
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = GroupIndex::build(std::iter::empty());
        assert!(idx.is_empty());
        assert!(idx.nearest(&Vector::zeros(2), 3).is_empty());
    }

    #[test]
    fn nearest_one_is_exact() {
        let idx = grid_index();
        for (qx, qy, expect) in [(0.1, 0.1, 0usize), (4.2, 3.9, 24), (2.4, 2.4, 12)] {
            let got = idx.nearest(&Vector::from_slice(&[qx, qy]), 1);
            assert_eq!(got, vec![expect], "query ({qx},{qy})");
        }
    }

    #[test]
    fn nearest_k_matches_linear_scan() {
        let idx = grid_index();
        let query = Vector::from_slice(&[1.3, 2.7]);
        let got = idx.nearest(&query, 4);
        // Linear scan ground truth.
        let mut truth: Vec<(f64, usize)> = (0..25)
            .map(|i| {
                let p = Vector::from_slice(&[(i % 5) as f64, (i / 5) as f64]);
                (query.dist_sq(&p), i)
            })
            .collect();
        truth.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let truth: Vec<usize> = truth.into_iter().take(4).map(|(_, i)| i).collect();
        assert_eq!(got, truth);
    }

    #[test]
    fn k_larger_than_size_returns_all() {
        let idx = GroupIndex::build((0..3).map(|i| (i, Vector::from_slice(&[i as f64]))));
        let got = idx.nearest(&Vector::from_slice(&[0.0]), 10);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], 0);
    }

    #[test]
    fn randomized_agreement_with_linear_scan() {
        use cludistream_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..20 {
            let n = rng.gen_range(1..40);
            let d = rng.gen_range(1..5);
            let pts: Vec<(usize, Vector)> = (0..n)
                .map(|i| (i, (0..d).map(|_| rng.gen_range(-10.0..10.0)).collect()))
                .collect();
            let idx = GroupIndex::build(pts.clone());
            let query: Vector = (0..d).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let k = rng.gen_range(1..=n);
            let got = idx.nearest(&query, k);
            let mut truth: Vec<(f64, usize)> =
                pts.iter().map(|(i, p)| (query.dist_sq(p), *i)).collect();
            truth.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let truth: Vec<usize> = truth.into_iter().take(k).map(|(_, i)| i).collect();
            assert_eq!(got, truth, "trial {trial}: n={n} d={d} k={k}");
        }
    }
}
