//! Fixed-bucket log2 histograms.
//!
//! Values are `u64`; bucket `i` holds values whose highest set bit is
//! `i − 1`, i.e. the half-open ranges `{0}`, `[1,2)`, `[2,4)`, `[4,8)`, …
//! Exponential buckets keep the footprint constant (65 slots) while
//! spanning the full `u64` range — nanosecond timings and message byte
//! counts land in the same structure.

/// Number of buckets: one for zero plus one per bit of `u64`.
pub(crate) const BUCKETS: usize = 65;

/// A fixed-size log2-bucket histogram with count/sum/min/max side stats.
#[derive(Debug, Clone)]
pub(crate) struct Log2Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

/// Index of the bucket holding `value`: 0 for 0, otherwise
/// `1 + floor(log2(value))`.
pub(crate) fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i` (0 for the zero bucket).
pub(crate) fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Log2Histogram {
    /// Records one observation.
    pub(crate) fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Smallest observation, or `None` when empty.
    pub(crate) fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub(crate) fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, or `None` when empty.
    pub(crate) fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest bucket lower bound `b` such that at least `q` (in `[0,1]`)
    /// of observations are `< 2b` — a coarse quantile from the log2
    /// buckets. `None` when empty.
    pub(crate) fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return Some(bucket_lo(i));
            }
        }
        Some(bucket_lo(BUCKETS - 1))
    }

    /// Exclusive upper bound of the bucket answering [`Log2Histogram::quantile_bound`]
    /// for `q`: at least `q` of observations are `< ` the returned value
    /// (capped at `u64::MAX` for the top bucket, and 1 for the zero
    /// bucket). `None` when empty. This is what a log2 histogram can
    /// honestly promise about a quantile — an upper *bound*, not the
    /// quantile itself.
    pub(crate) fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        self.quantile_bound(q).map(|lo| match lo {
            0 => 1,
            l => l.saturating_mul(2),
        })
    }

    /// A copyable summary for reporting.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            mean: self.mean().unwrap_or(0.0),
            p50_bound: self.quantile_bound(0.5).unwrap_or(0),
            p99_bound: self.quantile_bound(0.99).unwrap_or(0),
            p50_ub: self.quantile_upper_bound(0.5).unwrap_or(0),
            p99_ub: self.quantile_upper_bound(0.99).unwrap_or(0),
        }
    }
}

/// A point-in-time summary of a log2 histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Mean observation (0 when empty).
    pub mean: f64,
    /// Log2-coarse median lower bound.
    pub p50_bound: u64,
    /// Log2-coarse p99 lower bound.
    pub p99_bound: u64,
    /// Log2-coarse median *upper* bound (the median is `< p50_ub`).
    pub p50_ub: u64,
    /// Log2-coarse p99 *upper* bound (the p99 is `< p99_ub`).
    pub p99_ub: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // 0 is its own bucket; each power of two starts a new bucket and
        // the value just below it closes the previous one.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        for bit in 1..64u32 {
            let v = 1u64 << bit;
            assert_eq!(bucket_index(v), bucket_index(v - 1) + 1, "boundary at 2^{bit}");
            assert_eq!(bucket_index(v), bucket_index(v + 1), "interior of bucket 2^{bit}");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_lo_inverts_index() {
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i)), i);
            if i > 0 {
                assert_eq!(bucket_index(bucket_lo(i) - 1), i - 1);
            }
        }
    }

    #[test]
    fn side_stats_track_observations() {
        let mut h = Log2Histogram::default();
        assert_eq!(h.count, 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        for v in [5u64, 1, 9, 5] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 20);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(9));
        assert_eq!(h.mean(), Some(5.0));
        // 5 and 5 share [4,8); 1 is [1,2); 9 is [8,16).
        assert_eq!(h.buckets[bucket_index(5)], 2);
        assert_eq!(h.buckets[bucket_index(1)], 1);
        assert_eq!(h.buckets[bucket_index(9)], 1);
    }

    #[test]
    fn quantile_bound_is_log2_coarse() {
        let mut h = Log2Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        // The median of 1..=100 is ~50, whose bucket is [32, 64).
        assert_eq!(h.quantile_bound(0.5), Some(32));
        assert_eq!(h.quantile_bound(1.0), Some(64));
        assert_eq!(Log2Histogram::default().quantile_bound(0.5), None);
    }

    #[test]
    fn quantile_upper_bound_is_exclusive_bucket_end() {
        let mut h = Log2Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Median bucket is [32, 64): the true median is < 64.
        assert_eq!(h.quantile_upper_bound(0.5), Some(64));
        assert_eq!(h.quantile_upper_bound(1.0), Some(128));
        let mut z = Log2Histogram::default();
        z.record(0);
        assert_eq!(z.quantile_upper_bound(0.5), Some(1));
        let mut top = Log2Histogram::default();
        top.record(u64::MAX);
        assert_eq!(top.quantile_upper_bound(0.5), Some(u64::MAX));
        assert_eq!(Log2Histogram::default().quantile_upper_bound(0.5), None);
    }

    #[test]
    fn snapshot_summarizes() {
        let mut h = Log2Histogram::default();
        h.record(10);
        h.record(30);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 40);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert_eq!(s.mean, 20.0);
    }
}
