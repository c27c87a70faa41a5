//! Batched Definition-1 scoring: hard cluster assignment, posterior
//! responsibilities and log density for every record of a [`Batch`].
//!
//! This is the read side of the serving layer: a published mixture
//! snapshot answers "which cluster is this record in?" without touching
//! coordinator state. The kernel reuses the blocked density table of
//! [`Mixture::log_pdf_batch`] (one weighted log-density pass per
//! [`BLOCK`]-sized row block), so scoring `n` records costs one batched
//! density sweep instead of `n` per-record `Vector` walks.
//!
//! # Bit-identity contract
//!
//! For every record the batched kernel performs the same floating-point
//! operations in the same order as the scalar reference path
//! ([`score_record`], built on [`Mixture::posteriors`] /
//! [`Mixture::map_component`] / [`Mixture::log_pdf`]), and blocks are
//! scored in record order on the calling thread, so the output is
//! bit-identical to the per-record loop.

use crate::batch::log_sum_exp_cols;
use crate::{Batch, GmmError, Mixture, MixtureScratch, Result, BLOCK};
use cludistream_linalg::Vector;

/// Scoring output in structure-of-arrays layout: for record `i`,
/// `labels()[i]` is the hard (maximum-posterior) component, `log_pdf()[i]`
/// is `ln p(x_i)` under the mixture, and `responsibilities(i)` are the
/// `k` posterior membership probabilities of paper Eq. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Scores {
    k: usize,
    labels: Vec<u32>,
    log_pdf: Vec<f64>,
    /// Record-major `n × k` table: `resp[i*k + j] = Pr(j | x_i)`.
    responsibilities: Vec<f64>,
}

impl Scores {
    /// Number of scored records.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Number of mixture components `k` (the width of each
    /// responsibility row).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Hard labels, one per record: the component with the highest
    /// posterior (ties resolve like [`Mixture::map_component`]).
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Per-record mixture log densities `ln p(x_i)`.
    pub fn log_pdf(&self) -> &[f64] {
        &self.log_pdf
    }

    /// The posterior responsibility row for record `i`; sums to 1
    /// (uniform when all component densities underflow, matching
    /// [`Mixture::posteriors`]).
    pub fn responsibilities(&self, i: usize) -> &[f64] {
        &self.responsibilities[i * self.k..(i + 1) * self.k]
    }

    /// Average log likelihood of the scored records — the paper's
    /// Definition 1 over this batch. `-inf` when empty.
    pub fn avg_log_likelihood(&self) -> f64 {
        if self.log_pdf.is_empty() {
            return f64::NEG_INFINITY;
        }
        self.log_pdf.iter().sum::<f64>() / self.log_pdf.len() as f64
    }
}

/// Scores one block of `count` row-major records, appending to the
/// output columns, which [`score`] sizes for the whole batch up front.
/// The per-record arithmetic mirrors the scalar posterior path exactly:
/// the block's weighted log-density table, one log-sum-exp per column of
/// it, one subtract-exp per responsibility.
fn score_block(
    mixture: &Mixture,
    rows: &[f64],
    count: usize,
    scratch: &mut MixtureScratch,
    labels: &mut Vec<u32>,
    log_pdf: &mut Vec<f64>,
    responsibilities: &mut Vec<f64>,
) {
    let k = mixture.k();
    mixture.weighted_log_density_block(rows, count, scratch);
    let table = &scratch.weighted[..k * count];
    let start = log_pdf.len();
    log_pdf.resize(start + count, 0.0);
    log_sum_exp_cols(table, &mut log_pdf[start..], &mut scratch.sums);
    for (b, &norm) in log_pdf[start..].iter().enumerate() {
        let terms = table.iter().skip(b).step_by(count);
        // Last-maximum tie-breaking, exactly like Mixture::map_component's
        // max_by over the same terms.
        let mut label = 0u32;
        let mut best = f64::NEG_INFINITY;
        for (j, &t) in terms.clone().enumerate() {
            if t >= best {
                best = t;
                label = j as u32;
            }
        }
        labels.push(label);
        if norm.is_finite() {
            responsibilities.extend(terms.map(|&t| (t - norm).exp()));
        } else {
            // All densities underflowed: uniform fallback, matching
            // Mixture::posteriors.
            responsibilities.extend(std::iter::repeat(1.0 / k as f64).take(k));
        }
    }
}

/// Batched Definition-1 assignment of every record in `batch` under
/// `mixture`: hard label, posterior responsibilities and log density
/// per record (see [`Scores`]).
///
/// The batch is scored on the calling thread, one [`BLOCK`]-sized row
/// range after another, straight into the output columns. `_threads` is
/// accepted and ignored — the result is the same for every value; it is
/// kept only so that existing callers still build, and the follow-up to
/// ROADMAP item 11 step 1 deletes it. Errors when the batch
/// dimensionality disagrees with the mixture. An empty batch yields
/// empty scores.
pub fn score(mixture: &Mixture, batch: &Batch, _threads: usize) -> Result<Scores> {
    let k = mixture.k();
    if batch.is_empty() {
        return Ok(Scores { k, labels: Vec::new(), log_pdf: Vec::new(), responsibilities: Vec::new() });
    }
    if batch.dim() != mixture.dim() {
        return Err(GmmError::DimensionMismatch { expected: mixture.dim(), got: batch.dim() });
    }
    let n = batch.len();
    let mut labels = Vec::with_capacity(n);
    let mut log_pdf = Vec::with_capacity(n);
    let mut responsibilities = Vec::with_capacity(n * k);
    let mut scratch = MixtureScratch::default();
    for start in (0..n).step_by(BLOCK) {
        let count = BLOCK.min(n - start);
        score_block(
            mixture,
            batch.rows(start, count),
            count,
            &mut scratch,
            &mut labels,
            &mut log_pdf,
            &mut responsibilities,
        );
    }
    Ok(Scores { k, labels, log_pdf, responsibilities })
}

/// Scalar reference scoring of one record: `(hard label, ln p(x),
/// responsibilities)` via the per-record [`Mixture`] methods. This is the
/// loop [`score`] replaces; the batched kernel reproduces it bit for bit.
pub fn score_record(mixture: &Mixture, x: &Vector) -> (usize, f64, Vec<f64>) {
    (mixture.map_component(x), mixture.log_pdf(x), mixture.posteriors(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, Gaussian};
    use cludistream_linalg::Matrix;
    use cludistream_rng::{Rng, StdRng};

    fn dense_mixture(d: usize) -> Mixture {
        let mut cov = Matrix::identity(d);
        for i in 0..d {
            cov[(i, i)] = 1.25 + i as f64 * 0.5;
            for j in 0..d {
                if i != j {
                    cov[(i, j)] = 0.05;
                }
            }
        }
        let far: Vector = (0..d).map(|i| 6.0 + i as f64).collect();
        Mixture::new(
            vec![
                Gaussian::new(Vector::zeros(d), cov).unwrap(),
                Gaussian::spherical(far, 1.5).unwrap(),
            ],
            vec![0.7, 0.3],
        )
        .unwrap()
    }

    fn random_records(rng: &mut StdRng, n: usize, d: usize) -> Vec<Vector> {
        (0..n).map(|_| (0..d).map(|_| rng.gen::<f64>() * 12.0 - 3.0).collect()).collect()
    }

    #[test]
    fn batched_scores_bit_identical_to_scalar_loop() {
        // Dense, diagonal and spherical components; several blocks with a
        // ragged tail; every ninth record at ±1e200, where every density
        // is -inf and the responsibilities take the uniform fallback.
        let mut components = dense_mixture(4).components().to_vec();
        let diagonal = Gaussian::diagonal(Vector::filled(4, -2.0), &[0.5, 1.0, 2.0, 4.0]);
        components.push(diagonal.unwrap());
        let m = Mixture::new(components, vec![0.5, 0.2, 0.3]).unwrap();
        let mut rng = StdRng::seed_from_u64(71);
        let mut recs = random_records(&mut rng, 2 * BLOCK + 17, 4);
        for x in recs.iter_mut().step_by(9) {
            for v in x.as_mut_slice() {
                *v = if rng.gen_bool(0.5) { 1e200 } else { -1e200 };
            }
        }
        let batch = Batch::from_records(&recs);
        let scores = score(&m, &batch, 1).unwrap();
        assert_eq!(scores.len(), recs.len());
        assert_eq!(scores.k(), 3);
        for (i, x) in recs.iter().enumerate() {
            let (label, _, resp) = score_record(&m, x);
            assert_eq!(scores.labels()[i] as usize, label, "record {i}");
            let lp = reference::log_density(&m, x);
            assert_eq!(scores.log_pdf()[i].to_bits(), lp.to_bits(), "record {i}");
            for (a, b) in scores.responsibilities(i).iter().zip(&resp) {
                assert_eq!(a.to_bits(), b.to_bits(), "record {i}");
            }
        }
        assert_eq!(scores.log_pdf()[0], f64::NEG_INFINITY);
        assert_eq!(scores.responsibilities(0), [1.0 / 3.0; 3]);
    }

    #[test]
    fn responsibilities_form_a_simplex() {
        let m = dense_mixture(2);
        let mut rng = StdRng::seed_from_u64(73);
        let recs = random_records(&mut rng, 500, 2);
        let batch = Batch::from_records(&recs);
        let scores = score(&m, &batch, 1).unwrap();
        for i in 0..scores.len() {
            let row = scores.responsibilities(i);
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9, "record {i}");
            assert!(row.iter().all(|&r| (0.0..=1.0).contains(&r)), "record {i}");
        }
    }

    #[test]
    fn underflow_falls_back_to_uniform() {
        let m = dense_mixture(1);
        let batch = Batch::from_records(&[Vector::from_slice(&[1e9])]);
        let scores = score(&m, &batch, 1).unwrap();
        let row = scores.responsibilities(0);
        let (_, lp, resp) = score_record(&m, &Vector::from_slice(&[1e9]));
        assert_eq!(scores.log_pdf()[0].to_bits(), lp.to_bits());
        for (a, b) in row.iter().zip(&resp) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn avg_log_likelihood_matches_batch_kernel() {
        let m = dense_mixture(2);
        let mut rng = StdRng::seed_from_u64(74);
        let recs = random_records(&mut rng, BLOCK + 9, 2);
        let batch = Batch::from_records(&recs);
        let scores = score(&m, &batch, 1).unwrap();
        let direct = m.avg_log_likelihood_batch(&batch, &mut MixtureScratch::default());
        assert_eq!(scores.avg_log_likelihood().to_bits(), direct.to_bits());
        let want = reference::avg_log_likelihood(&m, &recs);
        assert_eq!(scores.avg_log_likelihood().to_bits(), want.to_bits());
    }

    #[test]
    fn empty_and_mismatched_inputs() {
        let m = dense_mixture(2);
        let empty = score(&m, &Batch::from_records(&[]), 1).unwrap();
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.avg_log_likelihood(), f64::NEG_INFINITY);
        let bad = Batch::from_records(&[Vector::zeros(3)]);
        assert!(matches!(
            score(&m, &bad, 1),
            Err(GmmError::DimensionMismatch { expected: 2, got: 3 })
        ));
    }

    #[test]
    fn labels_pick_the_near_component() {
        let m = dense_mixture(2);
        let recs = vec![Vector::zeros(2), Vector::from_slice(&[6.0, 7.0])];
        let batch = Batch::from_records(&recs);
        let scores = score(&m, &batch, 1).unwrap();
        assert_eq!(scores.labels(), &[0, 1]);
    }
}
