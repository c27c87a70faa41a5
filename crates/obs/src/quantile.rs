//! Exact-error streaming quantiles: a Greenwald–Khanna (GK) sketch.
//!
//! The log2 histogram answers "which power-of-two bucket holds the p99"
//! in O(1) memory but its answer is a bucket *bound*, off by up to 2×.
//! The GK sketch answers any quantile query with **rank error ≤ εn**
//! while storing O((1/ε)·log(εn)) tuples — for the stream sizes this
//! workspace produces (≤ a few million observations) and the default
//! ε = 0.001 that is exact or near-exact, and for small streams
//! (n ≤ 1/(2ε)) it is *provably* exact because no compression triggers.
//!
//! Deterministic by construction: no randomness, no hashing; identical
//! insertion order yields an identical tuple list.
//!
//! Reference: Greenwald & Khanna, "Space-Efficient Online Computation of
//! Quantile Summaries", SIGMOD 2001.

/// One GK summary tuple: `v` is a sampled value, `g` the gap in minimum
/// rank from the previous tuple, `delta` the extra rank uncertainty.
#[derive(Debug, Clone, Copy)]
struct Tuple {
    v: u64,
    g: u64,
    delta: u64,
}

/// A streaming quantile summary with guaranteed rank error ≤ `epsilon·n`.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    epsilon: f64,
    tuples: Vec<Tuple>,
    count: u64,
}

/// Default rank-error bound: exact to 1 part in 1000 of the stream.
pub(crate) const DEFAULT_EPSILON: f64 = 0.001;

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_EPSILON)
    }
}

impl QuantileSketch {
    /// Creates an empty sketch with rank-error bound `epsilon` (clamped to
    /// a sane positive range).
    pub fn new(epsilon: f64) -> Self {
        QuantileSketch {
            epsilon: if epsilon.is_finite() { epsilon.clamp(1e-6, 0.5) } else { DEFAULT_EPSILON },
            tuples: Vec::new(),
            count: 0,
        }
    }

    /// Number of observations inserted.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of summary tuples currently retained (memory footprint).
    pub fn tuples(&self) -> usize {
        self.tuples.len()
    }

    /// Inserts one observation.
    pub fn insert(&mut self, value: u64) {
        self.count += 1;
        // Position of the first tuple with v >= value; inserting before it
        // keeps the list sorted by v (ties insert leftmost, which is fine:
        // equal values are interchangeable rank-wise).
        let idx = self.tuples.partition_point(|t| t.v < value);
        let delta = if idx == 0 || idx == self.tuples.len() {
            // New minimum or maximum: its rank is known exactly.
            0
        } else {
            // Interior insertion inherits the local uncertainty budget.
            let cap = (2.0 * self.epsilon * self.count as f64).floor() as u64;
            cap.saturating_sub(1)
        };
        self.tuples.insert(idx, Tuple { v: value, g: 1, delta });
        // Compress periodically rather than every insert; the bound only
        // needs compression often enough to keep g+delta ≤ 2εn.
        let period = ((1.0 / (2.0 * self.epsilon)).floor() as u64).max(1);
        if self.count % period == 0 {
            self.compress();
        }
    }

    /// Merges adjacent tuples whose combined rank uncertainty stays within
    /// the 2εn budget, bounding memory.
    fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let cap = (2.0 * self.epsilon * self.count as f64).floor() as u64;
        let mut out: Vec<Tuple> = Vec::with_capacity(self.tuples.len());
        out.push(self.tuples[0]);
        // Never merge into the last tuple: the maximum stays exact.
        for i in 1..self.tuples.len() {
            let t = self.tuples[i];
            let last = *out.last().expect("out is non-empty");
            let mergeable = out.len() > 1
                && i < self.tuples.len() - 1
                && last.g + t.g + t.delta <= cap;
            if mergeable {
                // Absorb the previous tuple into this one.
                let prev = out.pop().expect("out is non-empty");
                out.push(Tuple { v: t.v, g: prev.g + t.g, delta: t.delta });
            } else {
                out.push(t);
            }
        }
        self.tuples = out;
    }

    /// The value whose rank is within `epsilon·n` of `ceil(q·n)`, or
    /// `None` when empty. `q` is clamped to `[0, 1]`.
    pub fn query(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let err = (self.epsilon * self.count as f64).floor() as u64;
        let mut rmin = 0u64;
        for (i, t) in self.tuples.iter().enumerate() {
            rmin += t.g;
            if rmin + t.delta > target + err {
                // The previous tuple is the answer; this one may already
                // overshoot the allowed rank window.
                let j = i.saturating_sub(1);
                return Some(self.tuples[j].v);
            }
        }
        self.tuples.last().map(|t| t.v)
    }

    /// The exact minimum inserted, or `None` when empty (GK keeps the
    /// extremes exact).
    pub fn min(&self) -> Option<u64> {
        self.tuples.first().map(|t| t.v)
    }

    /// The exact maximum inserted, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.tuples.last().map(|t| t.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_answers_none() {
        let s = QuantileSketch::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.query(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn small_streams_are_exact() {
        // n ≤ 1/(2ε): compression never merges, every value is retained.
        let mut s = QuantileSketch::new(0.001);
        for v in [9u64, 3, 7, 1, 5] {
            s.insert(v);
        }
        assert_eq!(s.query(0.0), Some(1));
        assert_eq!(s.query(0.2), Some(1));
        assert_eq!(s.query(0.4), Some(3));
        // ceil(0.5·5) = rank 3 → the middle value.
        assert_eq!(s.query(0.5), Some(5));
        assert_eq!(s.query(0.6), Some(5));
        assert_eq!(s.query(0.8), Some(7));
        assert_eq!(s.query(1.0), Some(9));
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(9));
    }

    #[test]
    fn duplicates_and_reversed_order_work() {
        let mut s = QuantileSketch::new(0.001);
        for v in (1..=10u64).rev() {
            s.insert(v);
            s.insert(v);
        }
        assert_eq!(s.count(), 20);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(10));
        assert_eq!(s.query(0.5), Some(5));
    }

    #[test]
    fn coarse_sketch_compresses_and_stays_within_bound() {
        let eps = 0.05;
        let n = 10_000u64;
        let mut s = QuantileSketch::new(eps);
        for v in 1..=n {
            s.insert(v);
        }
        // Compression must actually bound memory well below n.
        assert!(s.tuples() < 1_000, "tuples = {}", s.tuples());
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let got = s.query(q).expect("non-empty") as f64;
            let want = (q * n as f64).ceil().max(1.0);
            let err = (got - want).abs();
            assert!(
                err <= eps * n as f64 + 1.0,
                "q={q}: got {got}, want {want}, err {err}"
            );
        }
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(n));
    }

    #[test]
    fn determinism_identical_streams_identical_answers() {
        let build = || {
            let mut s = QuantileSketch::new(0.01);
            let mut x = 1u64;
            for _ in 0..5_000 {
                // Fixed LCG so the stream is scrambled but reproducible.
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s.insert(x >> 40);
            }
            s
        };
        let a = build();
        let b = build();
        assert_eq!(a.tuples(), b.tuples());
        for &q in &[0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.query(q), b.query(q));
        }
    }
}
