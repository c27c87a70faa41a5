//! Structure-of-arrays batch layout and batched density kernels.
//!
//! EM scores every record against every component once per iteration. The
//! per-record path ([`crate::Gaussian::log_pdf`]) chases `Vector` allocations
//! scattered across the heap and builds a fresh terms buffer for every
//! record; the kernels here instead score [`BLOCK`]-sized blocks at a
//! time against all components, reusing caller-owned scratch buffers
//! ([`MixtureScratch`]) across blocks and iterations. A chunk is held as
//! [`Columns`], block by block in the dimension-major layout the kernels
//! score, so neither the chunk test nor any pass of the EM fit (k-means,
//! the initial moments, both E-step passes) transposes a block; a
//! row-major [`Batch`] is transposed one block at a time. The chunk test
//! and the fit run the column kernels at AVX2 width where the CPU has it.
//!
//! # Bit-identity contract
//!
//! For every record the batched kernels perform the same floating-point
//! operations in the same order as the scalar path, so
//! [`crate::Gaussian::log_pdf_cols`] and [`Mixture::log_pdf_batch`] are
//! bit-identical to per-record [`crate::Gaussian::log_pdf`] /
//! [`Mixture::log_pdf`]; the tests hold them to the crate's one scalar,
//! record-major reference (`reference.rs`), written from the paper's
//! formulas. What the block structure changes is memory
//! layout and loop order, never the arithmetic: each block is transposed
//! once into a dimension-major copy that all components score, and every
//! loop over it — centring, the forward solve, the squared norm, and the
//! max, exp-sum and log of the column log-sum-exp ([`log_sum_exp_cols`])
//! — runs record-innermost, so it vectorises, while inside a record the
//! dimensions and the components are still visited in ascending order.
//! SIMD add, sub, mul, div and max round exactly as their scalar forms,
//! and nothing is contracted into a fused multiply-add. The column sums
//! start from `0.0` where a scalar `Iterator::sum` starts from `-0.0`;
//! every addend is `+0` or more, or NaN, so both give the same bits. The
//! EM engine builds on this to keep its fitted models independent of
//! batching.
//!
//! The contract also covers how the engine *schedules* the kernels: a
//! pass over the chunk may be split in two (score every block into a
//! kept table, then accumulate from that table) and a pass whose output
//! nobody reads may be skipped, but arithmetic may not move — every
//! value is still produced by the same operations on the same operands,
//! and every sum adds its terms in the same order: record by record
//! inside a [`BLOCK`], block by block across the chunk, and, for a
//! per-record sum over components, component by component. Sums that
//! share no element, such as two components' statistics, may run in
//! either order or side by side. And a pass may
//! stop once its consumer's decision is fixed:
//! [`Mixture::avg_log_likelihood_unless_below`] gives up on an average
//! that the mixture's density ceiling proves is below the caller's floor,
//! and returns the full pass's bits whenever it cannot prove that.

use crate::{log_sum_exp, Mixture};
use cludistream_linalg::Vector;

/// Number of records a batch kernel scores per block.
///
/// The block size is part of the *semantics* of the EM engine, not just
/// a tuning knob: per-block sufficient statistics are reduced in block
/// order, so changing `BLOCK` changes the reduction tree (and thus
/// low-order bits of fitted models). 256 rows keep the dimension-major
/// solve buffer (`d × BLOCK` doubles) inside L1/L2 for the paper's
/// dimensions, and fill whole 2- and 4-double vectors.
pub const BLOCK: usize = 256;

/// A contiguous, row-major (record-major) copy of a record slice: record
/// `i` occupies `data[i*d .. (i+1)*d]`.
///
/// What batched scoring and the `&[Vector]` entry points score; the
/// kernels transpose it one block at a time. A chunk that stays is held
/// as [`Columns`] instead.
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
    pub(crate) fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Record dimensionality (0 for an empty batch).
    pub(crate) fn dim(&self) -> usize {
        self.d
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

/// A chunk of records in block-columnar layout: [`BLOCK`] by block,
/// block `k` holds records `k·BLOCK ..` (`count` of them, fewer in the
/// last block) as `d` columns of `count` values, element `i` of the
/// block's record `b` at `i*count + b` — the layout a transposed block
/// has, so the kernels score a block in place.
///
/// Its length is fixed when it is made, so every block's width is known
/// before its first record is written: a remote site keeps one
/// `M`-record chunk and writes each record into its slot as it arrives
/// ([`Columns::set_record`]), and the chunk test
/// ([`Mixture::avg_log_likelihood_unless_below`]) and the EM fit
/// ([`crate::fit_em_recorded`]) read it without a copy. Every pass of a
/// fit reads it: k-means seeding and Lloyd, the initial moments, and
/// both passes of the E-step.
#[derive(Debug, Default)]
pub struct Columns {
    data: Vec<f64>,
    n: usize,
    d: usize,
}

impl Columns {
    /// `n` records of dimension `d`, every value `0.0`: one allocation
    /// of `8·n·d` bytes, never grown.
    pub fn zeros(n: usize, d: usize) -> Columns {
        Columns { data: vec![0.0; n * d], n, d }
    }

    /// Transposes `records` into a new chunk. Panics when records disagree
    /// on dimensionality. An empty slice yields an empty chunk with
    /// dimension 0.
    pub fn from_records(records: &[Vector]) -> Columns {
        let d = records.first().map_or(0, |r| r.dim());
        let mut cols = Columns::zeros(records.len(), d);
        for (b, x) in records.iter().enumerate() {
            assert_eq!(x.dim(), d, "Columns::from_records: ragged record dimensions");
            cols.set_record(b, x.as_slice());
        }
        cols
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Record dimensionality.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Every value, block after block.
    pub(crate) fn values(&self) -> &[f64] {
        &self.data
    }

    /// Overwrites record `b` with `x`. Panics when `b` is out of range or
    /// `x` is not `d` long.
    pub fn set_record(&mut self, b: usize, x: &[f64]) {
        assert!(b < self.n && x.len() == self.d, "Columns::set_record: no slot for {b}");
        let (start, at) = (b - b % BLOCK, b % BLOCK);
        let count = BLOCK.min(self.n - start);
        let block = &mut self.data[start * self.d..(start + count) * self.d];
        for (i, &v) in x.iter().enumerate() {
            block[i * count + at] = v;
        }
    }

    /// Block `k`'s columns, `count × d` values.
    pub(crate) fn block(&self, k: usize) -> &[f64] {
        let start = k * BLOCK;
        &self.data[start * self.d..(start + BLOCK).min(self.n) * self.d]
    }

    /// Every block in order, with the index of its first record.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = (usize, &[f64])> {
        (0..self.n.div_ceil(BLOCK)).map(|k| (k * BLOCK, self.block(k)))
    }

    /// Record `b`, gathered from its block's columns.
    pub fn record(&self, b: usize) -> impl Iterator<Item = f64> + '_ {
        let block = self.block(b / BLOCK);
        let count = block.len() / self.d.max(1);
        (0..self.d).map(move |i| block[i * count + b % BLOCK])
    }
}

/// Reusable workspace of the [`Mixture`] batch kernels' density pass: a
/// row-major block's dimension-major copy and the dense-covariance
/// path's solve buffer. Default-constructed empty; grows to the largest
/// block it has seen and is never shrunk.
#[derive(Debug, Default)]
pub(crate) struct DensityScratch {
    cols: Vec<f64>,
    solve: Vec<f64>,
}

impl DensityScratch {
    /// Transposes the `count` row-major records of `rows` into the
    /// dimension-major copy (`cols[i*count + b]` is element `i` of record
    /// `b`) and returns it with a solve buffer of the same `d × count`
    /// length, whose contents are unspecified.
    pub(crate) fn transpose(&mut self, rows: &[f64], count: usize) -> (&[f64], &mut [f64]) {
        let len = rows.len();
        if self.cols.len() < len {
            self.cols.resize(len, 0.0);
            self.solve.resize(len, 0.0);
        }
        let (cols, solve) = (&mut self.cols[..len], &mut self.solve[..len]);
        if count > 0 {
            let d = len / count;
            for (i, col) in cols.chunks_exact_mut(count).enumerate() {
                for (c, x) in col.iter_mut().zip(rows.chunks_exact(d)) {
                    *c = x[i];
                }
            }
        }
        (cols, solve)
    }

    /// The solve buffer alone, `len` long, for a block that is already
    /// dimension-major; its contents are unspecified.
    pub(crate) fn solve(&mut self, len: usize) -> &mut [f64] {
        if self.solve.len() < len {
            self.solve.resize(len, 0.0);
        }
        &mut self.solve[..len]
    }
}

/// Reusable workspace for the [`Mixture`] batch kernels: the `k × count`
/// weighted log-density table, the per-record workspace of its
/// log-sum-exp, and the per-Gaussian density workspace. One per E-step
/// or scoring call, reused across its blocks by either compiled copy.
#[derive(Debug, Default)]
pub struct MixtureScratch {
    /// Component-major table: `weighted[j*count + b] = ln w_j + ln p(x_b|j)`.
    pub(crate) weighted: Vec<f64>,
    /// [`log_sum_exp_cols`]' per-record workspace; its sums also hold the
    /// `k` terms of the density ceiling.
    pub(crate) sums: ColumnSums,
    /// The block's dimension-major copy and solve buffer, shared by all
    /// components' density evaluations.
    pub(crate) density: DensityScratch,
}

/// Per-record workspace of [`log_sum_exp_cols`]: the running sums, and
/// the gate a sum must reach before it skips a tiny term. Grows to the
/// widest table it has seen and is never shrunk, so a call allocates
/// nothing once it has.
#[derive(Debug, Default)]
pub(crate) struct ColumnSums {
    sum: Vec<f64>,
    gate: Vec<f64>,
}

/// A term with `d = t − max < TINY` is *tiny*: `exp(d) < e⁻³⁷·⁵ < 2⁻⁵⁴`.
const TINY: f64 = -37.5;

/// [`log_sum_exp`] of every column of a component-major `k × count`
/// table: `out[b] = ln Σ_j exp(table[j*count + b])`, with `sums` as the
/// per-record workspace.
///
/// Each loop runs record-innermost over one table row, while each column
/// sees the scalar function's operations in its order: the running
/// `f64::max` from `-inf` in component order, then `Σ_j exp(t_j − max)`
/// from `0.0` in component order, then `max + ln(sum)`, or `max` itself
/// when it is not finite. So `out[b]` is bit-identical to `log_sum_exp`
/// of column `b`. An empty `out` is a no-op.
///
/// The sum calls `exp` only where its result can reach the sum's bits.
/// With `d = t − max`:
/// - `d == 0` adds `1.0`, which is what `exp(±0)` returns;
/// - a tiny term (`d < TINY`; a NaN `d` never is) is skipped once the sum
///   is `≥ 1`: adding anything below `2⁻⁵³` to it rounds back to it;
/// - a tiny term is also skipped when every term before the record's
///   first maximum is below `TINY − ln(max(k − 1, 1))`: those `≤ k − 1`
///   terms sum below `e^TINY < 2⁻⁵⁴`, so adding the maximum's `1.0` gives
///   exactly `1.0` whatever was skipped, and after it the sum is `≥ 1`.
///
/// The max pass finds where the second rule holds at no extra pass: per
/// record it also keeps the largest term before the running maximum's
/// first occurrence (a NaN poisons it), below the cutoff exactly when all
/// those terms are, as rounding is monotone. The gate is `0` then and `1`
/// otherwise, and a tiny term is skipped once the sum reaches it. A sum of
/// `1.0` takes `ln 1 = +0` without calling `ln`.
#[inline(always)]
pub(crate) fn log_sum_exp_cols(table: &[f64], out: &mut [f64], sums: &mut ColumnSums) {
    let count = out.len();
    if count == 0 {
        return;
    }
    debug_assert_eq!(table.len() % count, 0);
    let ColumnSums { sum, gate } = sums;
    // While the max pass runs, `sum` holds each record's running max that
    // keeps a NaN, and `gate` that value as it stood before the running
    // maximum's first occurrence.
    out.fill(f64::NEG_INFINITY);
    sum.clear();
    sum.resize(count, f64::NEG_INFINITY);
    gate.clear();
    gate.resize(count, f64::NEG_INFINITY);
    for row in table.chunks_exact(count) {
        let records = out.iter_mut().zip(sum.iter_mut()).zip(gate.iter_mut());
        for (((m, run), before), &t) in records.zip(row) {
            if t > *m {
                *before = *run;
            }
            *run = if t.is_nan() || *run < t { t } else { *run };
            *m = f64::max(*m, t);
        }
    }
    let cut = TINY - (((table.len() / count).max(2) - 1) as f64).ln();
    for (g, &m) in gate.iter_mut().zip(out.iter()) {
        *g = if *g - m < cut { 0.0 } else { 1.0 };
    }
    sum.fill(0.0);
    for row in table.chunks_exact(count) {
        for (((s, &t), &m), &g) in sum.iter_mut().zip(row).zip(out.iter()).zip(gate.iter()) {
            let d = t - m;
            if d == 0.0 {
                *s += 1.0;
            } else if !(d < TINY && *s >= g) {
                *s += d.exp();
            }
        }
    }
    for (o, &s) in out.iter_mut().zip(sum.iter()) {
        if o.is_finite() {
            *o += if s == 1.0 { 0.0 } else { s.ln() };
        }
    }
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
        debug_assert_eq!(rows.len(), count * self.dim());
        if scratch.weighted.len() < k * count {
            scratch.weighted.resize(k * count, 0.0);
        }
        let (cols, solve) = scratch.density.transpose(rows, count);
        self.weighted_log_density_cols(cols, &mut scratch.weighted[..k * count], solve);
    }

    /// The weighted log-density table of a block that is already
    /// dimension-major (`cols[i*count + b]`, see
    /// [`crate::Gaussian::log_pdf_cols`]) into a caller-owned table of
    /// exactly `k × count` entries, with `solve` (`d × count`) as the
    /// dense path's workspace — the EM score pass reads its blocks from
    /// the chunk's [`Columns`] and keeps every block's table for the
    /// accumulate pass.
    #[inline(always)]
    pub(crate) fn weighted_log_density_cols(
        &self,
        cols: &[f64],
        table: &mut [f64],
        solve: &mut [f64],
    ) {
        let count = table.len() / self.k();
        if count == 0 {
            return;
        }
        for ((c, &lw), out) in
            self.components().iter().zip(self.log_weights()).zip(table.chunks_exact_mut(count))
        {
            c.log_pdf_cols(cols, out, solve);
            for t in out.iter_mut() {
                *t = lw + *t;
            }
        }
    }

    /// Batched [`Mixture::log_pdf`]: writes `out[b] = ln p(x_b)` for the
    /// `out.len()` row-major records in `rows`. Bit-identical to calling
    /// `log_pdf` on each record.
    pub(crate) fn log_pdf_batch(
        &self,
        rows: &[f64],
        out: &mut [f64],
        scratch: &mut MixtureScratch,
    ) {
        let count = out.len();
        assert_eq!(rows.len(), count * self.dim(), "log_pdf_batch: rows/out length mismatch");
        self.weighted_log_density_block(rows, count, scratch);
        log_sum_exp_cols(&scratch.weighted[..self.k() * count], out, &mut scratch.sums);
    }

    /// [`Self::log_pdf_batch`] of a block that is already dimension-major,
    /// such as a block of [`Columns`]: the same two kernels without the
    /// transpose.
    #[inline(always)]
    pub(crate) fn log_pdf_cols(&self, cols: &[f64], out: &mut [f64], scratch: &mut MixtureScratch) {
        let len = self.k() * out.len();
        if scratch.weighted.len() < len {
            scratch.weighted.resize(len, 0.0);
        }
        let solve = scratch.density.solve(cols.len());
        self.weighted_log_density_cols(cols, &mut scratch.weighted[..len], solve);
        log_sum_exp_cols(&scratch.weighted[..len], out, &mut scratch.sums);
    }

    /// Average log likelihood (Definition 1) of a row-major batch,
    /// evaluated [`BLOCK`] records at a time. Bit-identical to
    /// [`Mixture::avg_log_likelihood`] on the same records: the per-record
    /// log densities are bit-identical and the sum is accumulated in the
    /// same flat record order. Returns `-inf` on an empty batch.
    pub fn avg_log_likelihood_batch(&self, batch: &Batch, scratch: &mut MixtureScratch) -> f64 {
        let block = |start, out: &mut [f64], scratch: &mut MixtureScratch| {
            self.log_pdf_batch(batch.rows(start, out.len()), out, scratch)
        };
        self.avg_unless_below(batch.len(), scratch, f64::NEG_INFINITY, block)
            .expect("no average is below -inf")
    }

    /// The Definition 1 average of `chunk` for a caller that only needs it
    /// if it reaches `floor`: `Some(avg)`, bit-identical to
    /// [`Self::avg_log_likelihood_batch`] on the same records, or `None`
    /// once the average is provably below `floor` — decided after a
    /// [`BLOCK`], without scoring the blocks left. A floor of `-inf` always
    /// gets the average.
    ///
    /// The proof is the mixture's **density ceiling**. No record scores
    /// above `U = ln Σ_k w_k (2π)^{−d/2} |Σ_k|^{−1/2}` (every component at
    /// its mode), so after `m` of `n` records with running sum `S_m` the
    /// final average is at most `(S_m + (n − m)·U) / n`. In floating point:
    /// the kernel computes each term as `fl(ln w_k + fl(log_norm_k −
    /// fl(½·acc)))` with `acc ≥ 0`, which monotone rounding keeps at or
    /// below `fl(ln w_k + log_norm_k)`, the terms `U` is summed from;
    /// [`log_sum_exp`] over `K` terms is then off by a few `ε·(K + |U|)` on
    /// either side, summing the `n − m` records left perturbs each addend
    /// by a relative `n·ε` at most, and the bound's own three operations,
    /// the final division and `floor − slack` add a few `ε` of their
    /// operands — together below `(n + K + 8)·ε·(|S_m|/n + |U| + |floor| +
    /// 1)`. The slack is eight times `(n + K)·ε` times that scale, and the
    /// pass stops only when `bound < floor − slack`; anything closer runs
    /// to the end and is the caller's to decide on the exact value.
    ///
    /// Every comparison with a `NaN` (sum, ceiling, floor) is false, so a
    /// `NaN` never stops a pass, nor does a floor of `-inf`; a chunk of one
    /// block has no block left to skip; an empty chunk is `Some(-inf)`. If
    /// a record *after* the stop is non-finite the full average is `NaN`
    /// or `-inf`, not a number at or above `floor` either.
    pub fn avg_log_likelihood_unless_below(
        &self,
        chunk: &Columns,
        scratch: &mut MixtureScratch,
        floor: f64,
    ) -> Option<f64> {
        let block = |start, out: &mut [f64], scratch: &mut MixtureScratch| {
            wide!(self.log_pdf_cols(chunk.block(start / BLOCK), out, scratch))
        };
        self.avg_unless_below(chunk.len(), scratch, floor, block)
    }

    /// The block loop of both averages over `n` records: `block(start,
    /// out, scratch)` writes `ln p(x_b)` of the `out.len()` records from
    /// `start` on.
    fn avg_unless_below(
        &self,
        n: usize,
        scratch: &mut MixtureScratch,
        floor: f64,
        mut block: impl FnMut(usize, &mut [f64], &mut MixtureScratch),
    ) -> Option<f64> {
        if n == 0 {
            return Some(f64::NEG_INFINITY);
        }
        let len = n as f64;
        let ceiling = self.log_density_ceiling(&mut scratch.sums.sum);
        let slack_unit = 8.0 * f64::EPSILON * (len + self.k() as f64);
        let mut out = [0.0f64; BLOCK];
        let mut total = 0.0;
        let mut start = 0;
        loop {
            let count = BLOCK.min(n - start);
            block(start, &mut out[..count], scratch);
            for &v in &out[..count] {
                total += v;
            }
            start += count;
            if start == n {
                return Some(total / len);
            }
            let bound = (total + (n - start) as f64 * ceiling) / len;
            let slack = slack_unit * (1.0 + floor.abs() + ceiling.abs() + (total / len).abs());
            if bound < floor - slack {
                return None;
            }
        }
    }

    /// The density ceiling `ln Σ_k w_k (2π)^{−d/2} |Σ_k|^{−1/2}`: the
    /// mixture's log density if every component were at its mode at once.
    fn log_density_ceiling(&self, terms: &mut Vec<f64>) -> f64 {
        terms.clear();
        terms.extend(
            self.components().iter().zip(self.log_weights()).map(|(c, lw)| lw + c.log_norm()),
        );
        log_sum_exp(terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, Gaussian};
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
    fn columns_hold_each_block_as_its_transpose() {
        let mut rng = StdRng::seed_from_u64(40);
        let recs = random_records(&mut rng, 2 * BLOCK + 17, 3);
        let cols = Columns::from_records(&recs);
        assert_eq!((cols.len(), cols.dim(), cols.is_empty()), (recs.len(), 3, false));
        let batch = Batch::from_records(&recs);
        let mut density = DensityScratch::default();
        for (start, block) in cols.blocks() {
            let count = BLOCK.min(recs.len() - start);
            let (transposed, _) = density.transpose(batch.rows(start, count), count);
            assert_eq!(block, transposed, "block at {start}");
        }
        // Written record by record into a chunk of zeros, as a site fills
        // one, in any order: the same values, and each record reads back.
        let mut filled = Columns::zeros(recs.len(), 3);
        for b in (0..recs.len()).rev() {
            filled.set_record(b, recs[b].as_slice());
        }
        assert_eq!(filled.values(), cols.values());
        for (b, x) in recs.iter().enumerate() {
            assert!(filled.record(b).eq(x.as_slice().iter().copied()), "record {b}");
        }
        let empty = Columns::from_records(&[]);
        assert_eq!((empty.len(), empty.dim(), empty.is_empty()), (0, 0, true));
    }

    #[test]
    #[should_panic(expected = "ragged record dimensions")]
    fn ragged_records_rejected_by_columns() {
        let _ = Columns::from_records(&[Vector::zeros(2), Vector::zeros(3)]);
    }

    #[test]
    #[should_panic(expected = "no slot")]
    fn a_record_past_the_end_has_no_slot() {
        Columns::zeros(3, 2).set_record(3, &[1.0, 2.0]);
    }

    /// `g.log_pdf_cols` of `recs` held as [`Columns`], block by block,
    /// with `density`'s solve buffer as the dense path's workspace.
    fn log_pdf_cols_of(g: &Gaussian, recs: &[Vector], density: &mut DensityScratch) -> Vec<f64> {
        let cols = Columns::from_records(recs);
        let mut out = vec![0.0; recs.len()];
        for (start, block) in cols.blocks() {
            let count = BLOCK.min(recs.len() - start);
            g.log_pdf_cols(block, &mut out[start..start + count], density.solve(block.len()));
        }
        out
    }

    #[test]
    fn gaussian_cols_bit_identical_dense() {
        let g = dense_gaussian(5);
        assert!(!g.is_diagonal());
        let mut rng = StdRng::seed_from_u64(41);
        let recs = random_records(&mut rng, 100, 5);
        let out = log_pdf_cols_of(&g, &recs, &mut DensityScratch::default());
        for (x, got) in recs.iter().zip(&out) {
            assert_eq!(got.to_bits(), g.log_pdf(x).to_bits());
        }
    }

    #[test]
    fn gaussian_cols_bit_identical_diagonal() {
        let g = Gaussian::diagonal(
            Vector::from_slice(&[0.5, -1.5, 2.0]),
            &[0.25, 4.0, 1.0],
        )
        .unwrap();
        assert!(g.is_diagonal());
        let mut rng = StdRng::seed_from_u64(42);
        let recs = random_records(&mut rng, 64, 3);
        let out = log_pdf_cols_of(&g, &recs, &mut DensityScratch::default());
        for (x, got) in recs.iter().zip(&out) {
            assert_eq!(got.to_bits(), g.log_pdf(x).to_bits());
        }
    }

    #[test]
    fn gaussian_cols_close_to_scalar_tolerance() {
        // The bit-identity contract phrased as a tolerance: even if it
        // were relaxed, agreement must hold to 1e-12.
        let g = dense_gaussian(8);
        let mut rng = StdRng::seed_from_u64(43);
        let recs = random_records(&mut rng, 300, 8);
        let out = log_pdf_cols_of(&g, &recs, &mut DensityScratch::default());
        for (x, got) in recs.iter().zip(&out) {
            assert!((got - g.log_pdf(x)).abs() < 1e-12);
        }
    }

    /// [`random_records`] with every fifth record pushed off to ±1e200 in
    /// one coordinate or in all of them: its squared distance overflows,
    /// so every component scores it `-inf`.
    fn hostile_records(rng: &mut StdRng, n: usize, d: usize) -> Vec<Vector> {
        let mut recs = random_records(rng, n, d);
        for x in recs.iter_mut().step_by(5) {
            let all = rng.gen_bool(0.5);
            let one = rng.gen_range(0..d);
            for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                if all || i == one {
                    *v = if rng.gen_bool(0.5) { 1e200 } else { -1e200 };
                }
            }
        }
        recs
    }

    #[test]
    fn mixture_batch_bit_identical() {
        // Dense, diagonal and spherical components in one mixture, a ragged
        // last block, and records of no density.
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
        let recs = hostile_records(&mut rng, 2 * BLOCK + 17, 4);
        let batch = Batch::from_records(&recs);
        let mut scratch = MixtureScratch::default();
        let mut density = DensityScratch::default();
        let mut out = vec![0.0; recs.len()];
        for start in (0..recs.len()).step_by(BLOCK) {
            let count = BLOCK.min(recs.len() - start);
            let rows = batch.rows(start, count);
            mix.log_pdf_batch(rows, &mut out[start..start + count], &mut scratch);
        }
        let each: Vec<Vec<f64>> =
            mix.components().iter().map(|c| log_pdf_cols_of(c, &recs, &mut density)).collect();
        for (i, x) in recs.iter().enumerate() {
            assert_eq!(out[i].to_bits(), reference::log_density(&mix, x).to_bits(), "record {i}");
            for (j, c) in mix.components().iter().enumerate() {
                let want = c.log_pdf(x);
                assert_eq!(each[j][i].to_bits(), want.to_bits(), "record {i} component {j}");
            }
        }
        assert!(out.iter().any(|&v| v == f64::NEG_INFINITY));
        assert!(out.iter().any(|v| v.is_finite()));
    }

    /// The gate's cutoff for a column of `k` terms, as the kernel computes
    /// it: `TINY − ln(max(k − 1, 1))`.
    fn gate_cut(k: usize) -> f64 {
        TINY - ((k.max(2) - 1) as f64).ln()
    }

    /// An offset `d = t − max` of a term below the maximum of a column of
    /// `k`: tiny (down to where `exp` underflows to 0 and past it), not
    /// tiny, one ulp either side of [`TINY`] or of the gate's cutoff or on
    /// it, between −64 and −34 (where `exp(d)` crosses 2⁻⁵³ at −36.7), just
    /// below the maximum, or `-inf`.
    fn offset(rng: &mut StdRng, k: usize) -> f64 {
        let around = |c: f64| [c.next_down(), c, c.next_up()];
        match rng.gen_range(0..7usize) {
            0 => TINY - rng.gen::<f64>() * 800.0,
            1 => rng.gen::<f64>() * TINY,
            2 => around(TINY)[rng.gen_range(0..3usize)],
            3 => around(gate_cut(k))[rng.gen_range(0..3usize)],
            4 => -34.0 - rng.gen::<f64>() * 30.0,
            5 => -rng.gen::<f64>() * 1e-3,
            _ => f64::NEG_INFINITY,
        }
    }

    /// The offset whose `exp` is the largest value below 2⁻⁵³, the
    /// midpoint between 1 and the next float up: `1 + exp(small)` rounds to
    /// 1, but `1 + (exp(small) + exp(tiny))` rounds up. So a tiny term
    /// between that term and the maximum reaches the sum's bits, and only
    /// the rule "every term before the first maximum is tiny" may skip one
    /// before the maximum.
    fn just_below_half_ulp() -> f64 {
        let half_ulp = f64::EPSILON / 2.0;
        let mut small = half_ulp.ln();
        while small.exp() >= half_ulp {
            small = small.next_down();
        }
        small
    }

    /// One column of `k` terms of the given kind.
    fn column(rng: &mut StdRng, k: usize, kind: usize) -> Vec<f64> {
        // Half the columns have their maximum at 0, so `d` is exactly the
        // offset drawn.
        let max = if rng.gen_bool(0.5) { 0.0 } else { rng.gen::<f64>() * 60.0 - 50.0 };
        let at = [0, k / 2, k - 1, rng.gen_range(0..k)][rng.gen_range(0..4usize)];
        let mut col: Vec<f64> = (0..k).map(|_| max + offset(rng, k)).collect();
        col[at] = max;
        match kind {
            // All -inf.
            0 => col.fill(f64::NEG_INFINITY),
            // A +inf among the others.
            1 => col[rng.gen_range(0..k)] = f64::INFINITY,
            // A NaN, before or after the maximum.
            2 => {
                let nan = rng.gen_range(0..k);
                if nan != at {
                    col[nan] = f64::NAN;
                }
            }
            // The maximum tied, at two places or more.
            3 => {
                for t in col.iter_mut() {
                    if rng.gen_bool(0.3) {
                        *t = max;
                    }
                }
            }
            // The maximum last, a term that is not tiny before it, and
            // tiny ones beside that; half the time that term is
            // `just_below_half_ulp` and a tiny one follows it.
            4 if k >= 3 => {
                for t in col.iter_mut() {
                    *t = max + TINY - 1.0 - rng.gen::<f64>() * 100.0;
                }
                if rng.gen_bool(0.5) {
                    col[k - 3] = max + rng.gen::<f64>() * TINY;
                    col[k - 1] = max;
                } else {
                    col[k - 3] = just_below_half_ulp();
                    col[k - 2] = TINY.next_down();
                    col[k - 1] = 0.0;
                }
            }
            // Every term below the maximum tiny: the maximum first, in
            // the middle or last.
            5 => {
                for t in col.iter_mut() {
                    *t = max + TINY.next_down() - rng.gen::<f64>() * 100.0;
                }
                col[at] = max;
            }
            // The maximum last, at 0, and every term before it just below
            // TINY: k − 1 ≥ 3 of them sum past 2⁻⁵³ and move `1 + S` up an
            // ulp, so only the gate's `ln(k − 1)` keeps them.
            9 if k >= 4 => {
                col.fill(TINY.next_down());
                col[k - 1] = 0.0;
            }
            // 1 400 nats wide: some exp(t − max) underflow.
            6 => col.iter_mut().for_each(|t| *t = rng.gen::<f64>() * -1400.0),
            // Finite and at most 60 nats apart.
            7 => col.iter_mut().for_each(|t| *t = rng.gen::<f64>() * 60.0 - 50.0),
            // The offsets as drawn.
            _ => {}
        }
        col
    }

    #[test]
    fn log_sum_exp_cols_bit_identical_to_scalar() {
        use cludistream_rng::check;
        // Not vacuous: the tiny term of kind 4 reaches the bits, and so do
        // the three of kind 9.
        let (small, tiny) = (just_below_half_ulp(), TINY.next_down());
        assert_ne!(
            log_sum_exp(&[small, tiny, 0.0]).to_bits(),
            log_sum_exp(&[small, 0.0]).to_bits(),
            "the tiny term must reach the bits"
        );
        assert_ne!(log_sum_exp(&[tiny, tiny, tiny, 0.0]), 0.0, "three tiny terms reach the bits");
        check::cases("batch.log_sum_exp_cols_bit_identical", 8, |rng| {
            let mut sums = ColumnSums::default();
            for k in [1usize, 2, 5, 8, 17, 64] {
                for count in [1usize, 7, 255, 256] {
                    let mut table = vec![0.0; k * count];
                    for b in 0..count {
                        let kind = rng.gen_range(0..10usize);
                        for (j, t) in column(rng, k, kind).into_iter().enumerate() {
                            table[j * count + b] = t;
                        }
                    }
                    let mut out = vec![0.5; count];
                    log_sum_exp_cols(&table, &mut out, &mut sums);
                    for (b, got) in out.iter().enumerate() {
                        let col: Vec<f64> = (0..k).map(|j| table[j * count + b]).collect();
                        let scalar = log_sum_exp(&col);
                        assert_eq!(got.to_bits(), scalar.to_bits(), "k={k} count={count} {col:?}");
                    }
                }
            }
        });
        // An empty block touches nothing.
        let mut sums = ColumnSums { sum: vec![1.0, 2.0], gate: Vec::new() };
        log_sum_exp_cols(&[], &mut [], &mut sums);
        log_sum_exp_cols(&[3.0, 4.0], &mut [], &mut sums);
        assert_eq!(sums.sum, [1.0, 2.0]);
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
            let want = reference::avg_log_likelihood(&mix, &recs);
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn avg_log_likelihood_batch_empty_is_neg_inf() {
        let mix = Mixture::single(Gaussian::spherical(Vector::zeros(1), 1.0).unwrap());
        let batch = Batch::from_records(&[]);
        let mut scratch = MixtureScratch::default();
        assert_eq!(mix.avg_log_likelihood_batch(&batch, &mut scratch), f64::NEG_INFINITY);
    }

    /// A record slice as the kernel takes it, with its Definition 1
    /// average from [`reference`].
    fn as_chunk(mix: &Mixture, recs: &[Vector]) -> (Columns, f64) {
        (Columns::from_records(recs), reference::avg_log_likelihood(mix, recs))
    }

    /// The contract of `avg_log_likelihood_unless_below` against `full`, the
    /// reference average of the chunk's records. Returns whether the pass
    /// stopped early.
    fn assert_sound(mix: &Mixture, chunk: &Columns, full: f64, floor: f64, what: &str) -> bool {
        let mut scratch = MixtureScratch::default();
        match mix.avg_log_likelihood_unless_below(chunk, &mut scratch, floor) {
            Some(avg) => {
                assert_eq!(avg.to_bits(), full.to_bits(), "{what} floor={floor}: {avg} vs {full}");
                false
            }
            None => {
                assert!(floor != f64::NEG_INFINITY, "{what}: stopped below -inf");
                assert!(full < floor, "{what}: stopped, but {full} is not below {floor}");
                true
            }
        }
    }

    fn random_mixture(rng: &mut StdRng, k: usize, d: usize, diagonal: bool) -> Mixture {
        let comps = (0..k)
            .map(|_| {
                let mean: Vector = (0..d).map(|_| rng.gen::<f64>() * 12.0 - 6.0).collect();
                let mut cov = Matrix::zeros(d, d);
                for i in 0..d {
                    cov[(i, i)] = 0.2 + 2.0 * rng.gen::<f64>();
                }
                if !diagonal {
                    // B Bᵀ / d on top of the diagonal: SPD, correlated.
                    let b: Vec<f64> = (0..d * d).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
                    for i in 0..d {
                        for j in 0..d {
                            let dot: f64 = (0..d).map(|l| b[i * d + l] * b[j * d + l]).sum();
                            cov[(i, j)] += dot / d as f64;
                        }
                    }
                }
                Gaussian::new(mean, cov).unwrap()
            })
            .collect();
        let weights = (0..k).map(|_| 0.05 + rng.gen::<f64>()).collect();
        Mixture::new(comps, weights).unwrap()
    }

    #[test]
    fn unless_below_is_the_full_pass_or_a_proof_it_is_below() {
        use cludistream_rng::check;
        // 0.5 σ … 50 σ off the model, then a chunk whose second half is.
        const SHIFTS: [f64; 6] = [0.0, 0.5, 2.0, 5.0, 20.0, 50.0];
        check::cases("batch.unless_below_is_sound", 3, |rng| {
            let mut stopped = 0;
            let mut shape = 0;
            for diagonal in [false, true] {
                for k in [1usize, 2, 5, 12] {
                    for d in [1usize, 4, 9] {
                        let mix = random_mixture(rng, k, d, diagonal);
                        for n in [1usize, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 17, 1567] {
                            // Every (shape, n) takes another kind of chunk.
                            shape += 1;
                            let kind = shape % (SHIFTS.len() + 1);
                            let recs: Vec<Vector> = (0..n)
                                .map(|i| {
                                    let shift = match SHIFTS.get(kind) {
                                        Some(&s) => s,
                                        None if i >= n / 2 => 50.0,
                                        None => 0.0,
                                    };
                                    let mut x = mix.sample(rng);
                                    for v in x.as_mut_slice() {
                                        *v += shift * 1.5;
                                    }
                                    x
                                })
                                .collect();
                            let (chunk, full) = as_chunk(&mix, &recs);
                            let in_dist = reference::avg_log_likelihood(
                                &mix,
                                &(0..64).map(|_| mix.sample(rng)).collect::<Vec<_>>(),
                            );
                            let what = format!("diag={diagonal} k={k} d={d} n={n} kind={kind}");
                            for floor in [
                                f64::NEG_INFINITY,
                                full - 1e6,
                                full - 1e-12,
                                full,
                                full + 1e-12,
                                full + 0.5,
                                // What the site asks: "as good as in distribution?"
                                in_dist - 0.5,
                                f64::NAN,
                                f64::INFINITY,
                            ] {
                                let cut = assert_sound(&mix, &chunk, full, floor, &what);
                                assert!(!cut || n > BLOCK, "{what}: one block, nothing to skip");
                                stopped += cut as usize;
                            }
                            // Not vacuous: 20 σ off, more than one block, a
                            // floor near the in-distribution average.
                            if n > BLOCK && matches!(SHIFTS.get(kind), Some(&s) if s >= 20.0) {
                                assert!(
                                    assert_sound(&mix, &chunk, full, in_dist - 0.5, &what),
                                    "{what}: {full} against {in_dist} not stopped"
                                );
                            }
                        }
                    }
                }
            }
            assert!(stopped > 0);
        });
    }

    #[test]
    fn unless_below_runs_on_while_the_ceiling_is_attained() {
        // One component: a record at its mean scores exactly the ceiling,
        // so after a far-off first block the bound *is* the final average.
        let g = dense_gaussian(3);
        let mode = g.mean().clone();
        let mix = Mixture::single(g);
        let mut recs = vec![Vector::filled(3, 40.0); BLOCK];
        recs.extend(vec![mode; 2 * BLOCK + 5]);
        let (chunk, full) = as_chunk(&mix, &recs);
        // A hair under the truth: no proof, the full pass's bits.
        for floor in [full - 1e-9, full - 1e-12, full] {
            assert!(!assert_sound(&mix, &chunk, full, floor, "ceiling attained"));
        }
        // Truly below: one block is proof enough.
        assert!(assert_sound(&mix, &chunk, full, full + 1e-6, "ceiling attained"));

        // Several components, the rest of the chunk at the heaviest one's
        // mode: the ceiling is approached, never crossed.
        let mix = Mixture::new(
            vec![
                dense_gaussian(3),
                Gaussian::spherical(Vector::filled(3, -6.0), 0.5).unwrap(),
                Gaussian::spherical(Vector::filled(3, 9.0), 2.0).unwrap(),
            ],
            vec![0.7, 0.2, 0.1],
        )
        .unwrap();
        let mode = mix.components()[0].mean().clone();
        let mut recs = vec![Vector::filled(3, 40.0); BLOCK];
        recs.extend(vec![mode; 2 * BLOCK + 5]);
        let (chunk, full) = as_chunk(&mix, &recs);
        for floor in [full - 1.0, full - 1e-12, full, full + 1e-12, full + 1.0] {
            assert_sound(&mix, &chunk, full, floor, "heaviest mode");
        }
    }

    #[test]
    fn unless_below_returns_an_average_that_fails_high() {
        // Every record at the mode: far *above* what the model scored on
        // its own data. The floor only guards the low side, so the caller
        // gets the exact value and rejects it with the two-sided test.
        let mix = Mixture::new(
            vec![dense_gaussian(2), Gaussian::spherical(Vector::filled(2, 8.0), 1.0).unwrap()],
            vec![0.5, 0.5],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(47);
        let own: Vec<Vector> = (0..1567).map(|_| mix.sample(&mut rng)).collect();
        let (avg0, tol) = (reference::avg_log_likelihood(&mix, &own), 0.1);
        let recs = vec![mix.components()[0].mean().clone(); 1567];
        let chunk = Columns::from_records(&recs);
        let avg = mix
            .avg_log_likelihood_unless_below(&chunk, &mut MixtureScratch::default(), avg0 - tol)
            .expect("an average above the floor is returned");
        assert_eq!(avg.to_bits(), reference::avg_log_likelihood(&mix, &recs).to_bits());
        assert!(crate::j_fit(avg, avg0) > tol, "{avg} against {avg0}");
    }

    #[test]
    fn unless_below_with_a_record_of_no_density() {
        let mix = Mixture::single(dense_gaussian(2));
        let mut rng = StdRng::seed_from_u64(48);
        let mut recs: Vec<Vector> = (0..3 * BLOCK).map(|_| mix.sample(&mut rng)).collect();
        // 1e200² overflows: ln p = -inf, and so is the average.
        let nowhere = Vector::filled(2, 1e200);
        assert_eq!(mix.log_pdf(&nowhere), f64::NEG_INFINITY);
        for at in [0, BLOCK + 3, 3 * BLOCK - 1] {
            let kept = std::mem::replace(&mut recs[at], nowhere.clone());
            let (chunk, full) = as_chunk(&mix, &recs);
            assert_eq!(full, f64::NEG_INFINITY);
            for floor in [f64::NEG_INFINITY, -1e300, -5.0, f64::NAN] {
                assert_sound(&mix, &chunk, full, floor, &format!("-inf record at {at}"));
            }
            recs[at] = kept;
        }
        // After a stop the record is never scored; the verdict still holds.
        let mut far = vec![Vector::filled(2, 60.0); BLOCK];
        far.extend(vec![nowhere; BLOCK]);
        let (chunk, full) = as_chunk(&mix, &far);
        assert!(assert_sound(&mix, &chunk, full, -5.0, "-inf after the stop"));
    }

    #[test]
    fn unless_below_on_an_empty_chunk_is_neg_inf_whatever_the_floor() {
        let mix = Mixture::single(Gaussian::spherical(Vector::zeros(1), 1.0).unwrap());
        let chunk = Columns::from_records(&[]);
        let mut scratch = MixtureScratch::default();
        for floor in [f64::NEG_INFINITY, 0.0, f64::INFINITY, f64::NAN] {
            assert_eq!(
                mix.avg_log_likelihood_unless_below(&chunk, &mut scratch, floor),
                Some(f64::NEG_INFINITY)
            );
        }
    }

    #[test]
    fn scratch_reuse_across_different_sizes() {
        let g = dense_gaussian(4);
        let mut rng = StdRng::seed_from_u64(46);
        let mut density = DensityScratch::default();
        // Large block first, then small: the reused (larger) buffer must
        // not perturb the small block's results.
        for n in [100usize, 3, 50, 1] {
            let recs = random_records(&mut rng, n, 4);
            let out = log_pdf_cols_of(&g, &recs, &mut density);
            for (x, got) in recs.iter().zip(&out) {
                assert_eq!(got.to_bits(), g.log_pdf(x).to_bits());
            }
        }
    }
}
