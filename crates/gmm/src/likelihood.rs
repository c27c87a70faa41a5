use crate::{Columns, CovarianceType, Mixture, MixtureScratch, BLOCK};

/// The test statistic of the test-and-cluster strategy (paper Eq. 4):
/// `J_fit = |Avg_Pr_n − Avg_Pr_0|`. A chunk fits its model when
/// `J_fit ≤ ε`.
pub fn j_fit(avg_chunk: f64, avg_model: f64) -> f64 {
    (avg_chunk - avg_model).abs()
}

/// Standard deviation of the per-record log density `log p(x)` over
/// `chunk` under `mixture` — the σ̂ that calibrates the fit test's
/// tolerance.
pub fn log_likelihood_std(mixture: &Mixture, chunk: &Columns) -> f64 {
    // Per-record log densities via the batch kernel (bit-identical to
    // `log_pdf` per record), then the same flat mean/variance passes.
    let mut scratch = MixtureScratch::default();
    let mut lls = vec![0.0f64; chunk.len()];
    for (start, cols) in chunk.blocks() {
        let count = BLOCK.min(chunk.len() - start);
        mixture.log_pdf_cols(cols, &mut lls[start..start + count], &mut scratch);
    }
    std_dev(&lls)
}

/// Population standard deviation in two flat passes (mean, then squared
/// deviations), both summed in slice order; 0 for fewer than two values.
pub(crate) fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var =
        values.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// Number of free parameters of a K-component, d-dimensional Gaussian
/// mixture: `K·(d + cov) + (K−1)` with `cov = d(d+1)/2` for full and `d`
/// for diagonal covariances. Drives the AIC optimism correction of the fit
/// test.
pub fn free_parameters(k: usize, d: usize, cov: CovarianceType) -> usize {
    let cov_params = match cov {
        CovarianceType::Full => d * (d + 1) / 2,
        CovarianceType::Diagonal => d,
    };
    k * (d + cov_params) + k.saturating_sub(1)
}

/// Acklam's rational approximation of the standard normal quantile
/// Φ⁻¹(p), accurate to ~1.15e-9 over (0, 1). Panics outside (0, 1).
pub(crate) fn standard_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The calibrated fit-test tolerance:
/// `max(ε, p/M + z_{1−δ/2} · σ̂ · √(2/M))`.
///
/// The paper's Theorems 1/2 bound the concentration of the *sample mean*,
/// not of the average log likelihood itself. Two effects make the raw
/// `J_fit ≤ ε` test over-reject on stable streams: (a) `AvgPr₀` is the
/// model's *training* average and overestimates generalization by the AIC
/// optimism `p/M` (`p` = [`free_parameters`]); (b) `J_fit` is the
/// difference of two M-sample averages (the chunk's and the founding
/// chunk's), so its noise scale is `σ̂·√(2/M)`. Widening the tolerance to
/// the δ-quantile of that noise keeps δ's role as the false-alarm
/// probability while leaving ε dominant whenever it is the larger bound
/// (see DESIGN.md, "fit-test calibration").
pub fn fit_tolerance(
    epsilon: f64,
    delta: f64,
    ll_std: f64,
    chunk_size: usize,
    free_params: usize,
) -> f64 {
    let m = chunk_size.max(1) as f64;
    let z = standard_normal_quantile(1.0 - (delta / 2.0).clamp(1e-12, 0.5));
    epsilon.max(free_params as f64 / m + z * ll_std * (2.0 / m).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gaussian;
    use cludistream_linalg::Vector;

    fn mix() -> Mixture {
        Mixture::new(
            vec![
                Gaussian::spherical(Vector::from_slice(&[0.0]), 1.0).unwrap(),
                Gaussian::spherical(Vector::from_slice(&[8.0]), 1.0).unwrap(),
            ],
            vec![0.5, 0.5],
        )
        .unwrap()
    }

    #[test]
    fn ll_std_bit_identical_to_per_record_reference() {
        let m = mix();
        let data: Vec<Vector> =
            (0..300).map(|i| Vector::from_slice(&[(i % 23) as f64 * 0.3 - 2.0])).collect();
        let lls: Vec<f64> = data.iter().map(|x| m.log_pdf(x)).collect();
        let mean = lls.iter().sum::<f64>() / lls.len() as f64;
        let var =
            lls.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / lls.len() as f64;
        let chunk = Columns::from_records(&data);
        assert_eq!(log_likelihood_std(&m, &chunk).to_bits(), var.sqrt().to_bits());
    }

    #[test]
    fn free_parameter_counts() {
        // K=5, d=4 full: 5*(4+10)+4 = 74.
        assert_eq!(free_parameters(5, 4, CovarianceType::Full), 74);
        // Diagonal: 5*(4+4)+4 = 44.
        assert_eq!(free_parameters(5, 4, CovarianceType::Diagonal), 44);
        assert_eq!(free_parameters(1, 1, CovarianceType::Full), 2);
    }

    #[test]
    fn quantile_known_values() {
        assert!(standard_normal_quantile(0.5).abs() < 1e-9);
        assert!((standard_normal_quantile(0.975) - 1.959964).abs() < 1e-5);
        assert!((standard_normal_quantile(0.995) - 2.575829).abs() < 1e-5);
        assert!((standard_normal_quantile(0.025) + 1.959964).abs() < 1e-5);
        // Tail region (p < 0.02425) uses the other branch.
        assert!((standard_normal_quantile(0.001) + 3.090232).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "p in (0,1)")]
    fn quantile_rejects_out_of_range() {
        let _ = standard_normal_quantile(1.0);
    }

    #[test]
    fn ll_std_zero_for_constant_density() {
        let m = mix();
        assert_eq!(log_likelihood_std(&m, &Columns::from_records(&[])), 0.0);
        let one = Columns::from_records(&[Vector::from_slice(&[0.0])]);
        assert_eq!(log_likelihood_std(&m, &one), 0.0);
        let same = vec![Vector::from_slice(&[1.0]); 5];
        assert!(log_likelihood_std(&m, &Columns::from_records(&same)) < 1e-12);
    }

    #[test]
    fn ll_std_positive_for_spread_data() {
        let m = mix();
        let data: Vec<Vector> = (0..50).map(|i| Vector::from_slice(&[i as f64 * 0.2])).collect();
        assert!(log_likelihood_std(&m, &Columns::from_records(&data)) > 0.1);
    }

    #[test]
    fn fit_tolerance_takes_the_larger_bound() {
        // Tiny noise and no parameters: ε dominates.
        assert_eq!(fit_tolerance(0.5, 0.01, 0.01, 10_000, 0), 0.5);
        // Large noise: the calibrated term dominates and shrinks with M.
        let loose = fit_tolerance(0.02, 0.01, 1.0, 100, 0);
        let tight = fit_tolerance(0.02, 0.01, 1.0, 10_000, 0);
        assert!(loose > tight);
        assert!(tight > 0.02);
        // z(0.995)·√2/√100 ≈ 0.3643 at M=100, σ=1, p=0.
        assert!((loose - 0.36428).abs() < 1e-3, "loose {loose}");
        // The optimism allowance adds p/M.
        let with_p = fit_tolerance(0.02, 0.01, 1.0, 100, 10);
        assert!((with_p - (loose + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn j_fit_is_absolute_difference() {
        assert_eq!(j_fit(-1.0, -1.5), 0.5);
        assert_eq!(j_fit(-1.5, -1.0), 0.5);
        assert_eq!(j_fit(-1.0, -1.0), 0.0);
    }

    #[test]
    fn same_distribution_chunk_difference_shrinks_with_chunk_size() {
        // Empirical check of Theorems 1/2: the average-log-likelihood gap
        // between two same-distribution chunks concentrates as the chunk
        // grows (smaller ε → larger M → smaller J_fit on average).
        use cludistream_rng::StdRng;
        let m = mix();
        let mut rng = StdRng::seed_from_u64(42);
        let mean_gap = |chunk: usize, rng: &mut StdRng| -> f64 {
            let trials = 20;
            (0..trials)
                .map(|_| {
                    let c1: Vec<Vector> = (0..chunk).map(|_| m.sample(rng)).collect();
                    let c2: Vec<Vector> = (0..chunk).map(|_| m.sample(rng)).collect();
                    j_fit(m.avg_log_likelihood(&c1), m.avg_log_likelihood(&c2))
                })
                .sum::<f64>()
                / trials as f64
        };
        let small = crate::chunk_size(1, 0.2, 0.01).unwrap(); // ~40
        let large = crate::chunk_size(1, 0.01, 0.01).unwrap(); // ~784
        let gap_small = mean_gap(small, &mut rng);
        let gap_large = mean_gap(large, &mut rng);
        assert!(
            gap_large < gap_small,
            "concentration failed: gap({large})={gap_large} >= gap({small})={gap_small}"
        );
        // And at the large chunk size the gap is comfortably below ε = 0.1.
        assert!(gap_large < 0.1, "gap_large {gap_large}");
    }
}
