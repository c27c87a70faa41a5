/// `$body` compiled for AVX2 when the CPU has it, else for the baseline,
/// bit for bit (DESIGN.md, "Kernels at the CPU's vector width"). Each of
/// its two closures is called from one place, so it is inlined there; it
/// must not move what it captures, nor use `return` or `?`.
macro_rules! wide {
    ($body:expr) => {
        $crate::wide::avx2(|| $body).unwrap_or_else(|| $body)
    };
}

/// `Some(f())`, `f` compiled for AVX2, when the CPU has AVX2, else `None`.
/// Both functions are `#[inline]`, so `f` and its `#[inline(always)]`
/// kernels are inlined into `run`. Only `"avx2"` is on, never `"fma"`.
#[allow(unsafe_code)]
#[inline]
pub(crate) fn avx2<R>(f: impl FnOnce() -> R) -> Option<R> {
    #[cfg(test)]
    if tests::declines() {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn run<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        // SAFETY: `run` needs only a CPU with AVX2, which was just detected.
        return Some(unsafe { run(f) });
    }
    drop(f);
    None
}

#[cfg(test)]
mod tests {
    use crate::{
        fit_em_recorded, kmeans, Columns, CovarianceType, EmConfig, Gaussian, GaussianScratch,
        KMeansConfig, Mixture, MixtureScratch, BLOCK,
    };
    use cludistream_linalg::{Matrix, Vector};
    use cludistream_obs::NopRecorder;
    use cludistream_rng::{check, Rng, StdRng};
    use std::cell::Cell;

    thread_local! {
        /// While set, [`super::avx2`] declines, so [`wide!`] runs the
        /// baseline copy of its body: what a CPU without AVX2 runs.
        static PORTABLE: Cell<bool> = const { Cell::new(false) };
        /// How many times [`super::avx2`] did not decline on this thread.
        static WIDE_RUNS: Cell<usize> = const { Cell::new(0) };
    }

    /// Whether [`super::avx2`] declines; counts the calls it does not.
    pub(super) fn declines() -> bool {
        let portable = PORTABLE.with(Cell::get);
        WIDE_RUNS.with(|n| n.set(n.get() + usize::from(!portable)));
        portable
    }

    /// `f` through both copies of every [`wide!`] body it reaches: first
    /// the portable copies, then the wide ones. Returns both results, and
    /// asserts that the second run took the wide copy at least once when
    /// the CPU has AVX2, so the dispatch cannot silently switch off.
    fn both_paths<R>(mut f: impl FnMut() -> R) -> (R, R) {
        PORTABLE.with(|p| p.set(true));
        let portable = f();
        PORTABLE.with(|p| p.set(false));
        let before = WIDE_RUNS.with(Cell::get);
        let wide = f();
        if has_avx2() {
            assert!(WIDE_RUNS.with(Cell::get) > before, "no wide! body took the AVX2 path");
        }
        (portable, wide)
    }

    fn has_avx2() -> bool {
        #[cfg(target_arch = "x86_64")]
        return is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn the_wide_path_is_taken_where_the_cpu_has_avx2() {
        let (portable, wide) = both_paths(|| wide!(3 + 4));
        assert_eq!((portable, wide), (7, 7));
        assert_eq!(super::avx2(|| 1).is_some(), has_avx2());
        PORTABLE.with(|p| p.set(true));
        assert_eq!(super::avx2(|| 1), None);
        PORTABLE.with(|p| p.set(false));
    }

    /// Dimensions and component counts of the sweeps: 1 to 16 and 1 to 17,
    /// each side of the widths a vector and a block tile hold.
    const DIMS: [usize; 8] = [1, 2, 3, 4, 5, 8, 9, 16];
    const KS: [usize; 5] = [1, 2, 5, 8, 17];

    fn same(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x:e} vs {y:e}");
        }
    }

    /// A random SPD covariance, dense or exactly diagonal.
    fn covariance(rng: &mut StdRng, d: usize) -> Matrix {
        let mut cov = Matrix::zeros(d, d);
        for i in 0..d {
            cov[(i, i)] = 0.2 + 2.0 * rng.gen::<f64>();
        }
        if rng.gen_bool(0.5) {
            let b: Vec<f64> = (0..d * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
            for i in 0..d {
                for j in 0..d {
                    let dot: f64 = (0..d).map(|l| b[i * d + l] * b[j * d + l]).sum();
                    cov[(i, j)] += dot / d as f64;
                }
            }
        }
        cov
    }

    fn mixture(rng: &mut StdRng, k: usize, d: usize) -> Mixture {
        let comps = (0..k)
            .map(|_| {
                let mean: Vector = (0..d).map(|_| rng.gen_range(-6.0..6.0)).collect();
                Gaussian::new(mean, covariance(rng, d)).unwrap()
            })
            .collect();
        Mixture::new(comps, (0..k).map(|_| 0.05 + rng.gen::<f64>()).collect()).unwrap()
    }

    /// `n` draws from `mix`, a ragged last block when `n > BLOCK`. When
    /// `hostile`, about one record in nine has a coordinate at ±1e200
    /// (zero density under every component) or a NaN or ±∞.
    fn records(rng: &mut StdRng, mix: &Mixture, n: usize, hostile: bool) -> Vec<Vector> {
        let mut recs: Vec<Vector> = (0..n).map(|_| mix.sample(rng)).collect();
        for x in recs.iter_mut() {
            if hostile && rng.gen_bool(0.11) {
                let at = rng.gen_range(0..x.dim());
                let bad = [1e200, -1e200, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                x[at] = bad[rng.gen_range(0..bad.len())];
            }
        }
        recs
    }

    #[test]
    fn the_chunk_test_average_is_bit_identical_on_both_paths() {
        let (cut, kept) = (Cell::new(0), Cell::new(0));
        check::cases("wide.chunk_test", 2, |rng| {
            for d in DIMS {
                for k in KS {
                    let mix = mixture(rng, k, d);
                    let chunks = [(BLOCK + 37, true, 0.0), (2 * BLOCK + 5, false, 40.0)];
                    for (n, hostile, shift) in chunks {
                        let mut recs = records(rng, &mix, n, hostile);
                        recs.iter_mut().for_each(|x| x[0] += shift);
                        let chunk = Columns::from_records(&recs);
                        for floor in [f64::NEG_INFINITY, -20.0 * d as f64, f64::NAN] {
                            let (portable, wide) = both_paths(|| {
                                let mut scratch = MixtureScratch::default();
                                mix.avg_log_likelihood_unless_below(&chunk, &mut scratch, floor)
                            });
                            let what = format!("d {d} k {k} n {n} floor {floor}");
                            assert_eq!(portable.is_some(), wide.is_some(), "{what}");
                            same(&[portable.unwrap_or(0.0)], &[wide.unwrap_or(0.0)], &what);
                            let counter = if wide.is_none() { &cut } else { &kept };
                            counter.set(counter.get() + 1);
                        }
                    }
                }
            }
        });
        assert!(cut.get() > 0 && kept.get() > 0, "{cut:?} cut, {kept:?} kept");
    }

    #[test]
    fn a_whole_fit_is_bit_identical_on_both_paths() {
        check::cases("wide.fit", 1, |rng| {
            for d in DIMS {
                for k in KS {
                    let gen = mixture(rng, k.min(5), d);
                    let mut recs = records(rng, &gen, 2 * BLOCK + 37, false);
                    // Two records so far out that no component gives them
                    // any density once the fit has narrowed.
                    if rng.gen_bool(0.5) {
                        recs[5] = Vector::filled(d, 1e150);
                        recs[BLOCK + 9] = Vector::filled(d, -1e150);
                    }
                    let chunk = Columns::from_records(&recs);
                    let covariance = [CovarianceType::Full, CovarianceType::Diagonal][k % 2];
                    let seed = rng.gen();
                    let config =
                        EmConfig { k, max_iters: 6, covariance, seed, ..Default::default() };
                    let (portable, wide) =
                        both_paths(|| fit_em_recorded(&chunk, &config, &NopRecorder));
                    let what = format!("d {d} k {k}");
                    let (p, w) = match (portable, wide) {
                        (Ok(p), Ok(w)) => (p, w),
                        (p, w) => {
                            assert_eq!(format!("{p:?}"), format!("{w:?}"), "{what}");
                            continue;
                        }
                    };
                    assert_eq!((p.iterations, p.converged), (w.iterations, w.converged), "{what}");
                    same(&[p.log_likelihood], &[w.log_likelihood], &what);
                    same(&[p.avg_log_likelihood], &[w.avg_log_likelihood], &what);
                    same(&[p.ll_std.unwrap_or(0.0)], &[w.ll_std.unwrap_or(0.0)], &what);
                    assert_eq!(p.ll_std.is_some(), w.ll_std.is_some(), "{what}");
                    same(p.mixture.weights(), w.mixture.weights(), &what);
                    for (a, b) in p.mixture.components().iter().zip(w.mixture.components()) {
                        same(a.mean().as_slice(), b.mean().as_slice(), &what);
                        same(a.cov().as_slice(), b.cov().as_slice(), &what);
                    }
                }
            }
        });
    }

    #[test]
    fn kmeans_is_bit_identical_on_both_paths() {
        check::cases("wide.kmeans", 2, |rng| {
            for d in DIMS {
                for k in KS {
                    let gen = mixture(rng, k, d);
                    let n = [k + 3, BLOCK + 37][rng.gen_range(0..2usize)];
                    let recs = records(rng, &gen, n, false);
                    let config = KMeansConfig { k, max_iters: 20, seed: rng.gen() };
                    let (p, w) = both_paths(|| kmeans(&recs, &config).unwrap());
                    let what = format!("d {d} k {k}");
                    assert_eq!(p.assignments, w.assignments, "{what}");
                    assert_eq!(p.iterations, w.iterations, "{what}");
                    same(&[p.inertia], &[w.inertia], &what);
                    for (a, b) in p.centroids.iter().zip(&w.centroids) {
                        same(a.as_slice(), b.as_slice(), &what);
                    }
                }
            }
        });
    }

    #[test]
    fn a_rebuilt_candidate_scores_bit_identically_on_both_paths() {
        check::cases("wide.gaussian_scratch", 4, |rng| {
            for d in DIMS {
                let g = Gaussian::new(Vector::zeros(d), covariance(rng, d)).unwrap();
                let mean: Vec<f64> = (0..d).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let mut candidate = GaussianScratch::default();
                candidate.rebuild_from_factor(&mean, g.chol().l()).unwrap();
                for count in [1, 7, 37, BLOCK] {
                    let recs = records(rng, &Mixture::single(g.clone()), count, true);
                    let cols = Columns::from_records(&recs);
                    let (p, w) = both_paths(|| {
                        let (mut out, mut solve) = (vec![0.5; count], vec![0.0; d * count]);
                        candidate.log_pdf_cols(cols.values(), &mut out, &mut solve);
                        out
                    });
                    same(&p, &w, &format!("d {d} count {count}"));
                }
            }
        });
    }
}
