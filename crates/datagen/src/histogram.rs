use cludistream_linalg::Vector;

/// Fixed-bin 1-d histogram over a closed range.
///
/// Backs the Figure 3 reproduction (histograms of the 1-d synthetic data in
/// a horizon at three time points) and doubles as a crude density estimate
/// for comparing fitted mixtures against data (Figure 4).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Records outside `[lo, hi]`.
    outliers: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi]`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo && lo.is_finite() && hi.is_finite(), "invalid histogram range");
        Histogram { lo, hi, counts: vec![0; bins], outliers: 0, total: 0 }
    }

    /// Number of bins.
    pub(crate) fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin width.
    pub(crate) fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins() as f64
    }

    /// Adds one scalar observation.
    pub(crate) fn add(&mut self, x: f64) {
        self.total += 1;
        if !(self.lo..=self.hi).contains(&x) {
            self.outliers += 1;
            return;
        }
        let idx = (((x - self.lo) / self.bin_width()) as usize).min(self.bins() - 1);
        self.counts[idx] += 1;
    }

    /// Adds the `coord`-th coordinate of every record.
    pub fn add_records(&mut self, records: &[Vector], coord: usize) {
        for r in records {
            self.add(r[coord]);
        }
    }

    /// Centre of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.bins(), "bin index out of range");
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Normalized density per bin (integrates to ≤ 1 over the range; the
    /// deficit is mass that fell outside). Empty histograms yield zeros.
    pub fn density(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.bins()];
        }
        let norm = self.total as f64 * self.bin_width();
        self.counts.iter().map(|&c| c as f64 / norm).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_right_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.5);
        h.add(9.5);
        h.add(5.0);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[9], 1);
        assert_eq!(h.counts[5], 1);
        assert_eq!(h.total, 3);
    }

    #[test]
    fn upper_edge_goes_to_last_bin() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(1.0);
        assert_eq!(h.counts[3], 1);
        assert_eq!(h.outliers, 0);
    }

    #[test]
    fn outliers_counted_separately() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-0.1);
        h.add(1.1);
        h.add(f64::NAN);
        assert_eq!(h.outliers, 3);
        assert_eq!(h.counts.iter().sum::<u64>(), 0);
    }

    #[test]
    fn density_integrates_to_one_without_outliers() {
        let mut h = Histogram::new(0.0, 2.0, 8);
        for i in 0..100 {
            h.add((i % 20) as f64 / 10.0);
        }
        let integral: f64 = h.density().iter().map(|d| d * h.bin_width()).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(4), 9.0);
    }

    #[test]
    fn add_records_selects_coordinate() {
        let recs =
            vec![Vector::from_slice(&[1.0, 100.0]), Vector::from_slice(&[2.0, 200.0])];
        let mut h = Histogram::new(0.0, 3.0, 3);
        h.add_records(&recs, 0);
        assert_eq!(h.total, 2);
        assert_eq!(h.outliers, 0);
    }

    #[test]
    #[should_panic(expected = "invalid histogram range")]
    fn inverted_range_panics() {
        let _ = Histogram::new(1.0, 0.0, 2);
    }
}
