//! Figure 1: `M_merge` vs `J_merge` over the 28 pairs of an 8-component
//! mixture, both normalized to [0, 1], on (a) NFD-like data and (b)
//! synthetic data. The paper's claim: the curves are "very similar", so
//! the raw-data-free `M_merge` can replace SMEM's `J_merge` at the
//! coordinator.
//!
//! Claimed (`experiments --check fig1`): on the synthetic data the two
//! criteria pick the same top pair. On the NFD-like data they do not
//! (`J_merge`'s top pair is far down `M_merge`'s order), so (a) carries
//! no claim without a threshold.

use crate::figs::{ys, Claim};
use crate::table::{spearman, Series, Table};
use crate::workloads;
use crate::Scale;
use cludistream::coordinator::{merge_criteria_table, normalize_column};
use cludistream_gmm::{fit_em, EmConfig};
use cludistream_linalg::Vector;

/// The claims of Fig. 1.
pub(crate) const CLAIMS: &[Claim] = &[Claim {
    name: "fig1b: M_merge and J_merge pick the same top pair",
    holds: |tables| same_top_pair(&ys(tables, "fig1b", M_MERGE), &ys(tables, "fig1b", J_MERGE)),
}];

const M_MERGE: &str = "M_merge (normalized)";
const J_MERGE: &str = "J_merge (normalized)";

/// Whether the pair `j` ranks first is also `m`'s largest, strictly:
/// the table lists the pairs in descending `J_merge` order.
fn same_top_pair(m: &[f64], j: &[f64]) -> bool {
    let (Some(&m_top), Some(&j_top)) = (m.first(), j.first()) else {
        return false;
    };
    j[1..].iter().all(|&v| v < j_top) && m[1..].iter().all(|&v| v < m_top)
}

fn one_dataset(id: &str, title: &str, data: &[Vector], seed: u64) -> Table {
    let fit = fit_em(data, &EmConfig { k: 8, seed, max_iters: 60, ..Default::default() })
        .expect("EM fits the sample");
    let rows = merge_criteria_table(&fit.mixture, data);
    assert_eq!(rows.len(), 28, "8 components give 28 pairs");
    let m_raw: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let j_raw: Vec<f64> = rows.iter().map(|r| r.3).collect();
    let m_norm = normalize_column(&m_raw);
    let j_norm = normalize_column(&j_raw);

    // Plot in descending J_merge order so both curves decay like the
    // paper's figure.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| j_norm[b].partial_cmp(&j_norm[a]).expect("finite"));

    let mut m_series = Series::new(M_MERGE);
    let mut j_series = Series::new(J_MERGE);
    for (idx, &row) in order.iter().enumerate() {
        m_series.push((idx + 1) as f64, m_norm[row]);
        j_series.push((idx + 1) as f64, j_norm[row]);
    }
    let rho = spearman(&m_raw, &j_raw);
    println!("[{title}] Spearman rank correlation M_merge vs J_merge: {rho:.3}");
    Table::new(id, title, "pair rank", vec![m_series, j_series])
}

/// Runs the Fig. 1 experiment.
pub(crate) fn run(scale: Scale) -> Vec<Table> {
    let n = scale.updates(4000);

    // (a) NFD-like.
    let norm = workloads::nfd_like_normalizer(11);
    let mut nfd = workloads::nfd_like_boxed(&norm, 0.0, 12);
    let nfd_data = workloads::collect(&mut *nfd, n);
    let a = one_dataset("fig1a", "Fig 1(a): merge criteria on NFD-like data", &nfd_data, 1);

    // (b) synthetic (single regime so the 8 components describe one
    // mixture).
    let mut syn = workloads::synthetic_boxed(4, 5, 0.0, 13);
    let syn_data = workloads::collect(&mut *syn, n);
    let b = one_dataset("fig1b", "Fig 1(b): merge criteria on synthetic data", &syn_data, 2);
    vec![a, b]
}
