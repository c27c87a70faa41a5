//! Structure-of-arrays batch layout and batched density kernels.
//!
//! EM scores every record against every component once per iteration. The
//! per-record path ([`crate::Gaussian::log_pdf`]) chases `Vector` allocations
//! scattered across the heap and builds a fresh terms buffer for every
//! record; the kernels here instead flatten a chunk into one contiguous
//! row-major buffer ([`Batch`]) and score [`BLOCK`]-sized row blocks at a
//! time against all components, reusing caller-owned scratch buffers
//! ([`MixtureScratch`]) across blocks and iterations.
//!
//! # Bit-identity contract
//!
//! For every record the batched kernels perform the same floating-point
//! operations in the same order as the scalar path, so
//! [`crate::Gaussian::log_pdf_batch`] and [`Mixture::log_pdf_batch`] are
//! bit-identical to per-record [`crate::Gaussian::log_pdf`] /
//! [`Mixture::log_pdf`]: the block structure changes memory layout and
//! amortizes passes over the Cholesky factor, never the arithmetic.
//! The EM engine builds on this to keep its fitted models independent of
//! both batching and thread count.
//!
//! The contract also covers how the engine *schedules* the kernels: a
//! pass over the chunk may be split in two (score every block into a
//! kept table, then accumulate from that table) and a pass whose output
//! nobody reads may be skipped, but arithmetic may not move — every
//! value is still produced by the same operations on the same operands,
//! summed component by component inside a record, record by record
//! inside a [`BLOCK`], block by block across the chunk.

use crate::{log_sum_exp, Mixture};
use cludistream_linalg::Vector;

/// Number of records a batch kernel scores per block.
///
/// The block size is part of the *semantics* of the data-parallel EM
/// engine, not just a tuning knob: per-block sufficient statistics are
/// reduced in block order, so changing `BLOCK` changes the reduction tree
/// (and thus low-order bits of fitted models), while changing the thread
/// count never does. 256 rows keep the dimension-major solve buffer
/// (`d × BLOCK` doubles) comfortably inside L1/L2 for the dimensions the
/// paper's experiments use.
pub const BLOCK: usize = 256;

/// A contiguous, row-major (record-major) copy of a record slice: record
/// `i` occupies `data[i*d .. (i+1)*d]`.
///
/// Built once per chunk/fit and indexed by the batch kernels; the
/// original `Vec<Vector>` stays the API currency everywhere else.
#[derive(Debug, Clone)]
pub struct Batch {
    data: Vec<f64>,
    n: usize,
    d: usize,
}

impl Batch {
    /// Flattens `records` into one contiguous buffer. Panics when records
    /// disagree on dimensionality. An empty slice yields an empty batch
    /// with dimension 0.
    pub fn from_records(records: &[Vector]) -> Batch {
        let d = records.first().map_or(0, |r| r.dim());
        let mut data = Vec::with_capacity(records.len() * d);
        for r in records {
            assert_eq!(r.dim(), d, "Batch::from_records: ragged record dimensions");
            data.extend_from_slice(r.as_slice());
        }
        Batch { data, n: records.len(), d }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Record dimensionality (0 for an empty batch).
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The whole flat buffer, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat sub-buffer holding `count` records starting at `start`.
    pub fn rows(&self, start: usize, count: usize) -> &[f64] {
        &self.data[start * self.d..(start + count) * self.d]
    }

    /// One record as a row slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.d..(i + 1) * self.d]
    }
}

/// Reusable workspace for [`crate::Gaussian::log_pdf_batch`] (the dense-covariance
/// path's dimension-major solve buffer). Default-constructed empty; grows
/// to the largest block it has seen and is never shrunk.
#[derive(Debug, Default)]
pub struct DensityScratch {
    solve: Vec<f64>,
}

impl DensityScratch {
    /// Returns a buffer of exactly `len` elements, reusing the allocation.
    /// Contents are unspecified; callers overwrite every element.
    pub(crate) fn buf(&mut self, len: usize) -> &mut [f64] {
        if self.solve.len() < len {
            self.solve.resize(len, 0.0);
        }
        &mut self.solve[..len]
    }
}

/// Reusable workspace for the [`Mixture`] batch kernels: the `k × count`
/// weighted log-density table, a `k`-element gather buffer, and the
/// per-Gaussian [`DensityScratch`]. One per worker thread in the parallel
/// E-step; buffers never cross threads.
#[derive(Debug, Default)]
pub struct MixtureScratch {
    /// Component-major table: `weighted[j*count + b] = ln w_j + ln p(x_b|j)`.
    pub(crate) weighted: Vec<f64>,
    /// Per-record gather buffer of `k` terms for log-sum-exp.
    pub(crate) terms: Vec<f64>,
    /// Solve buffer shared by all components' density evaluations.
    pub(crate) density: DensityScratch,
}

impl Mixture {
    /// Fills `scratch.weighted` with the component-major weighted
    /// log-density table for a block: `weighted[j*count + b] = ln w_j +
    /// ln p(x_b | j)`, where `rows` holds `count` row-major records.
    ///
    /// Each entry is the exact term the scalar [`Mixture::log_pdf`] /
    /// posterior path computes (`lw + c.log_pdf(x)`, one addition), so
    /// downstream consumers that gather per-record columns in component
    /// order reproduce the scalar arithmetic bit for bit.
    pub(crate) fn weighted_log_density_block(
        &self,
        rows: &[f64],
        count: usize,
        scratch: &mut MixtureScratch,
    ) {
        let k = self.k();
        if scratch.weighted.len() < k * count {
            scratch.weighted.resize(k * count, 0.0);
        }
        let table = &mut scratch.weighted[..k * count];
        self.weighted_log_density_into(rows, table, &mut scratch.density);
    }

    /// [`Self::weighted_log_density_block`] into a caller-owned table of
    /// exactly `k × count` entries — the EM score pass keeps every block's
    /// table for the accumulate pass instead of overwriting one scratch.
    pub(crate) fn weighted_log_density_into(
        &self,
        rows: &[f64],
        table: &mut [f64],
        density: &mut DensityScratch,
    ) {
        let count = table.len() / self.k();
        debug_assert_eq!(rows.len(), count * self.dim());
        for ((c, &lw), out) in
            self.components().iter().zip(self.log_weights()).zip(table.chunks_mut(count.max(1)))
        {
            c.log_pdf_batch(rows, out, density);
            for t in out.iter_mut() {
                *t = lw + *t;
            }
        }
    }

    /// Batched [`Mixture::log_pdf`]: writes `out[b] = ln p(x_b)` for the
    /// `out.len()` row-major records in `rows`. Bit-identical to calling
    /// `log_pdf` on each record.
    pub fn log_pdf_batch(&self, rows: &[f64], out: &mut [f64], scratch: &mut MixtureScratch) {
        let count = out.len();
        assert_eq!(rows.len(), count * self.dim(), "log_pdf_batch: rows/out length mismatch");
        self.weighted_log_density_block(rows, count, scratch);
        let k = self.k();
        scratch.terms.resize(k, 0.0);
        for (b, o) in out.iter_mut().enumerate() {
            for j in 0..k {
                scratch.terms[j] = scratch.weighted[j * count + b];
            }
            *o = log_sum_exp(&scratch.terms);
        }
    }

    /// Average log likelihood (Definition 1) of a pre-flattened batch,
    /// evaluated [`BLOCK`] records at a time. Bit-identical to
    /// [`Mixture::avg_log_likelihood`] on the same records: the per-record
    /// log densities are bit-identical and the sum is accumulated in the
    /// same flat record order. Returns `-inf` on an empty batch.
    pub fn avg_log_likelihood_batch(&self, batch: &Batch, scratch: &mut MixtureScratch) -> f64 {
        if batch.is_empty() {
            return f64::NEG_INFINITY;
        }
        let mut out = [0.0f64; BLOCK];
        let mut total = 0.0;
        let mut start = 0;
        while start < batch.len() {
            let count = BLOCK.min(batch.len() - start);
            self.log_pdf_batch(batch.rows(start, count), &mut out[..count], scratch);
            for &v in &out[..count] {
                total += v;
            }
            start += count;
        }
        total / batch.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gaussian;
    use cludistream_linalg::Matrix;
    use cludistream_rng::{Rng, StdRng};

    fn random_records(rng: &mut StdRng, n: usize, d: usize) -> Vec<Vector> {
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen::<f64>() * 10.0 - 5.0).collect())
            .collect()
    }

    fn dense_gaussian(d: usize) -> Gaussian {
        // Diagonally dominant SPD with nonzero off-diagonals so the dense
        // Cholesky path (not the diagonal fast path) is exercised.
        let mut cov = Matrix::identity(d);
        for i in 0..d {
            cov[(i, i)] = 1.5 + i as f64 * 0.25;
            for j in 0..d {
                if i != j {
                    cov[(i, j)] = 0.1 / (1.0 + (i as f64 - j as f64).abs());
                }
            }
        }
        let mean: Vector = (0..d).map(|i| i as f64 * 0.5 - 1.0).collect();
        Gaussian::new(mean, cov).unwrap()
    }

    #[test]
    fn batch_layout_roundtrips() {
        let recs = vec![
            Vector::from_slice(&[1.0, 2.0]),
            Vector::from_slice(&[3.0, 4.0]),
            Vector::from_slice(&[5.0, 6.0]),
        ];
        let b = Batch::from_records(&recs);
        assert_eq!(b.len(), 3);
        assert_eq!(b.dim(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.row(1), &[3.0, 4.0]);
        assert_eq!(b.rows(1, 2), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn empty_batch() {
        let b = Batch::from_records(&[]);
        assert!(b.is_empty());
        assert_eq!(b.dim(), 0);
        assert_eq!(b.len(), 0);
    }

    #[test]
    #[should_panic(expected = "ragged record dimensions")]
    fn ragged_records_rejected() {
        let _ = Batch::from_records(&[Vector::zeros(2), Vector::zeros(3)]);
    }

    #[test]
    fn gaussian_batch_bit_identical_dense() {
        let g = dense_gaussian(5);
        assert!(!g.is_diagonal());
        let mut rng = StdRng::seed_from_u64(41);
        let recs = random_records(&mut rng, 100, 5);
        let batch = Batch::from_records(&recs);
        let mut scratch = DensityScratch::default();
        let mut out = vec![0.0; recs.len()];
        g.log_pdf_batch(batch.as_slice(), &mut out, &mut scratch);
        for (x, got) in recs.iter().zip(&out) {
            assert_eq!(got.to_bits(), g.log_pdf(x).to_bits());
        }
    }

    #[test]
    fn gaussian_batch_bit_identical_diagonal() {
        let g = Gaussian::diagonal(
            Vector::from_slice(&[0.5, -1.5, 2.0]),
            &[0.25, 4.0, 1.0],
        )
        .unwrap();
        assert!(g.is_diagonal());
        let mut rng = StdRng::seed_from_u64(42);
        let recs = random_records(&mut rng, 64, 3);
        let batch = Batch::from_records(&recs);
        let mut scratch = DensityScratch::default();
        let mut out = vec![0.0; recs.len()];
        g.log_pdf_batch(batch.as_slice(), &mut out, &mut scratch);
        for (x, got) in recs.iter().zip(&out) {
            assert_eq!(got.to_bits(), g.log_pdf(x).to_bits());
        }
    }

    #[test]
    fn gaussian_batch_close_to_scalar_tolerance() {
        // The satellite acceptance check phrased as a tolerance: even if
        // the bit-identity contract were relaxed, agreement must hold to
        // 1e-12.
        let g = dense_gaussian(8);
        let mut rng = StdRng::seed_from_u64(43);
        let recs = random_records(&mut rng, 300, 8);
        let batch = Batch::from_records(&recs);
        let mut scratch = DensityScratch::default();
        let mut out = vec![0.0; recs.len()];
        g.log_pdf_batch(batch.as_slice(), &mut out, &mut scratch);
        for (x, got) in recs.iter().zip(&out) {
            assert!((got - g.log_pdf(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn mixture_batch_bit_identical() {
        let mix = Mixture::new(
            vec![
                dense_gaussian(4),
                Gaussian::diagonal(Vector::zeros(4), &[1.0, 2.0, 0.5, 3.0]).unwrap(),
                Gaussian::spherical(Vector::filled(4, 2.0), 1.5).unwrap(),
            ],
            vec![0.5, 0.3, 0.2],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(44);
        let recs = random_records(&mut rng, 200, 4);
        let batch = Batch::from_records(&recs);
        let mut scratch = MixtureScratch::default();
        let mut out = vec![0.0; recs.len()];
        mix.log_pdf_batch(batch.as_slice(), &mut out, &mut scratch);
        for (x, got) in recs.iter().zip(&out) {
            assert_eq!(got.to_bits(), mix.log_pdf(x).to_bits());
        }
    }

    #[test]
    fn avg_log_likelihood_batch_matches_scalar_across_block_boundary() {
        let mix = Mixture::new(
            vec![dense_gaussian(3), Gaussian::spherical(Vector::zeros(3), 2.0).unwrap()],
            vec![0.4, 0.6],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(45);
        // Spans multiple blocks with a ragged tail (BLOCK=256).
        for n in [1usize, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 17] {
            let recs = random_records(&mut rng, n, 3);
            let batch = Batch::from_records(&recs);
            let mut scratch = MixtureScratch::default();
            let got = mix.avg_log_likelihood_batch(&batch, &mut scratch);
            assert_eq!(got.to_bits(), mix.avg_log_likelihood(&recs).to_bits(), "n={n}");
        }
    }

    #[test]
    fn avg_log_likelihood_batch_empty_is_neg_inf() {
        let mix = Mixture::single(Gaussian::spherical(Vector::zeros(1), 1.0).unwrap());
        let batch = Batch::from_records(&[]);
        let mut scratch = MixtureScratch::default();
        assert_eq!(mix.avg_log_likelihood_batch(&batch, &mut scratch), f64::NEG_INFINITY);
    }

    #[test]
    fn scratch_reuse_across_different_sizes() {
        let g = dense_gaussian(4);
        let mut rng = StdRng::seed_from_u64(46);
        let mut scratch = DensityScratch::default();
        // Large block first, then small: the reused (larger) buffer must
        // not perturb the small block's results.
        for n in [100usize, 3, 50, 1] {
            let recs = random_records(&mut rng, n, 4);
            let batch = Batch::from_records(&recs);
            let mut out = vec![0.0; n];
            g.log_pdf_batch(batch.as_slice(), &mut out, &mut scratch);
            for (x, got) in recs.iter().zip(&out) {
                assert_eq!(got.to_bits(), g.log_pdf(x).to_bits());
            }
        }
    }
}
