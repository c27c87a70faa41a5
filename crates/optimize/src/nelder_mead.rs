/// Configuration for the downhill-simplex method.
///
/// The coefficients default to the classical Nelder–Mead values:
/// reflection 1, expansion 2, contraction ½, shrink ½.
#[derive(Debug, Clone)]
pub struct NelderMeadConfig {
    /// Reflection coefficient (α > 0).
    pub alpha: f64,
    /// Expansion coefficient (γ > 1).
    pub gamma: f64,
    /// Contraction coefficient (0 < ρ ≤ 0.5).
    pub rho: f64,
    /// Shrink coefficient (0 < σ < 1).
    pub sigma: f64,
    /// Maximum objective evaluations before giving up.
    pub max_evals: usize,
    /// Objective-spread tolerance: together with [`Self::x_tol`], terminate
    /// when the simplex's best-to-worst objective spread falls below this
    /// (absolute) tolerance AND the simplex diameter is below `x_tol`.
    /// Requiring both avoids premature stops on simplexes that happen to
    /// straddle the optimum symmetrically.
    pub f_tol: f64,
    /// Simplex-diameter tolerance (max vertex distance to the best vertex);
    /// see [`Self::f_tol`].
    pub x_tol: f64,
    /// Relative step used to build the initial simplex from the start point
    /// (per coordinate; an absolute fallback is used for zero coordinates).
    pub initial_step: f64,
}

impl Default for NelderMeadConfig {
    fn default() -> Self {
        NelderMeadConfig {
            alpha: 1.0,
            gamma: 2.0,
            rho: 0.5,
            sigma: 0.5,
            max_evals: 2000,
            f_tol: 1e-12,
            x_tol: 1e-10,
            initial_step: 0.1,
        }
    }
}

/// Outcome of a minimization run.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// Best point found.
    pub point: Vec<f64>,
    /// Objective value at `point`.
    pub value: f64,
    /// Number of objective evaluations performed.
    pub evaluations: usize,
    /// True when a tolerance (rather than the evaluation budget) stopped
    /// the iteration.
    pub converged: bool,
}

/// The Nelder–Mead downhill-simplex minimizer.
///
/// Maintains a simplex of `n+1` vertices in `n` dimensions and iteratively
/// replaces the worst vertex via reflection, expansion, or contraction,
/// shrinking the whole simplex toward the best vertex when all else fails.
#[derive(Debug, Clone, Default)]
pub struct NelderMead {
    config: NelderMeadConfig,
}

impl NelderMead {
    /// Creates a minimizer with the given configuration.
    pub fn new(config: NelderMeadConfig) -> Self {
        NelderMead { config }
    }

    /// Minimizes `f` starting from `x0`. Panics when `x0` is empty.
    ///
    /// The simplex is one flat buffer and every iteration reuses the same
    /// vertex-order, centroid and trial buffers, so an iteration allocates
    /// nothing; the returned point is the one copy.
    pub fn minimize<F>(&self, mut f: F, x0: &[f64]) -> OptimizeResult
    where
        F: FnMut(&[f64]) -> f64,
    {
        let n = x0.len();
        assert!(n > 0, "nelder-mead: empty start point");
        let cfg = &self.config;
        // Vertex `v` of the simplex is `simplex[vertex(v)]`.
        let vertex = |v: usize| v * n..(v + 1) * n;

        // Initial simplex: start point plus one perturbed vertex per axis.
        let mut simplex: Vec<f64> = Vec::with_capacity((n + 1) * n);
        simplex.extend_from_slice(x0);
        for i in 0..n {
            simplex.extend_from_slice(x0);
            let step = if x0[i] != 0.0 { cfg.initial_step * x0[i].abs() } else { cfg.initial_step };
            simplex[vertex(i + 1)][i] += step;
        }

        let mut evals = 0usize;
        let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
            *evals += 1;
            let v = f(x);
            // Treat non-finite objective values as very bad rather than
            // poisoning comparisons with NaN.
            if v.is_finite() {
                v
            } else {
                f64::MAX
            }
        };

        let mut values: Vec<f64> = simplex.chunks_exact(n).map(|v| eval(v, &mut evals)).collect();
        let mut order: Vec<usize> = Vec::with_capacity(n + 1);
        let mut centroid = vec![0.0; n];
        let mut reflected = vec![0.0; n];
        // The expanded or contracted point, or a copy of the best vertex
        // while the simplex shrinks toward it.
        let mut trial = vec![0.0; n];

        let mut converged = false;
        while evals < cfg.max_evals {
            // Order vertices by objective value (best first). `eval` left
            // only finite values, on which `total_cmp` is `partial_cmp`
            // except that it puts -0.0 before +0.0.
            order.clear();
            order.extend(0..=n);
            order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
            let best = order[0];
            let worst = order[n];
            let second_worst = order[n - 1];

            // Termination: objective spread and simplex diameter. The
            // diameter is computed only once the spread is within
            // tolerance; it has no other use.
            let spread = values[worst] - values[best];
            let best_vertex = &simplex[vertex(best)];
            let diameter = || {
                simplex
                    .chunks_exact(n)
                    .map(|v| {
                        v.iter().zip(best_vertex).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
                    })
                    .fold(0.0f64, f64::max)
            };
            if spread.abs() <= cfg.f_tol && diameter() <= cfg.x_tol {
                converged = true;
                break;
            }

            // Centroid of all vertices except the worst.
            centroid.fill(0.0);
            for (idx, v) in simplex.chunks_exact(n).enumerate() {
                if idx == worst {
                    continue;
                }
                for (c, x) in centroid.iter_mut().zip(v) {
                    *c += x;
                }
            }
            for c in &mut centroid {
                *c /= n as f64;
            }

            // Reflection: x_r = centroid + alpha (centroid - worst).
            lerp_into(&centroid, &simplex[vertex(worst)], -cfg.alpha, &mut reflected);
            let f_reflected = eval(&reflected, &mut evals);

            if f_reflected < values[best] {
                // Expansion.
                lerp_into(&centroid, &simplex[vertex(worst)], -cfg.alpha * cfg.gamma, &mut trial);
                let f_expanded = eval(&trial, &mut evals);
                if f_expanded < f_reflected {
                    simplex[vertex(worst)].copy_from_slice(&trial);
                    values[worst] = f_expanded;
                } else {
                    simplex[vertex(worst)].copy_from_slice(&reflected);
                    values[worst] = f_reflected;
                }
                continue;
            }
            if f_reflected < values[second_worst] {
                simplex[vertex(worst)].copy_from_slice(&reflected);
                values[worst] = f_reflected;
                continue;
            }

            // Contraction (outside if the reflection improved on the worst,
            // inside otherwise).
            let toward =
                if f_reflected < values[worst] { &reflected[..] } else { &simplex[vertex(worst)] };
            lerp_into(&centroid, toward, cfg.rho, &mut trial);
            let f_contracted = eval(&trial, &mut evals);
            if f_contracted < values[worst].min(f_reflected) {
                simplex[vertex(worst)].copy_from_slice(&trial);
                values[worst] = f_contracted;
                continue;
            }

            // Shrink toward the best vertex.
            trial.copy_from_slice(&simplex[vertex(best)]);
            for idx in 0..=n {
                if idx == best {
                    continue;
                }
                let v = &mut simplex[vertex(idx)];
                for (x, b) in v.iter_mut().zip(&trial) {
                    *x = b + cfg.sigma * (*x - b);
                }
                values[idx] = eval(v, &mut evals);
            }
        }

        // The simplex has n + 1 ≥ 2 vertices, so the default is never taken.
        let best_idx = (0..=n).min_by(|&a, &b| values[a].total_cmp(&values[b])).unwrap_or(0);
        OptimizeResult {
            point: simplex[vertex(best_idx)].to_vec(),
            value: values[best_idx],
            evaluations: evals,
            converged,
        }
    }
}

/// `out = from + t·(to − from)`, element by element.
fn lerp_into(from: &[f64], to: &[f64], t: f64, out: &mut [f64]) {
    for ((o, a), b) in out.iter_mut().zip(from).zip(to) {
        *o = a + t * (b - a);
    }
}

/// The minimizer as it was when each vertex was its own `Vec` and every
/// iteration allocated its order, centroid and trial points, kept verbatim
/// as the oracle of [`NelderMead::minimize`].
#[cfg(test)]
mod reference {
    use super::*;

    /// Minimizes `f` starting from `x0`. Panics when `x0` is empty.
    pub(super) fn minimize<F>(nm: &NelderMead, mut f: F, x0: &[f64]) -> OptimizeResult
    where
        F: FnMut(&[f64]) -> f64,
    {
        let n = x0.len();
        assert!(n > 0, "nelder-mead: empty start point");
        let cfg = &nm.config;

        // Initial simplex: start point plus one perturbed vertex per axis.
        let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        simplex.push(x0.to_vec());
        for i in 0..n {
            let mut v = x0.to_vec();
            let step = if v[i] != 0.0 { cfg.initial_step * v[i].abs() } else { cfg.initial_step };
            v[i] += step;
            simplex.push(v);
        }

        let mut evals = 0usize;
        let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
            *evals += 1;
            let v = f(x);
            // Treat non-finite objective values as very bad rather than
            // poisoning comparisons with NaN.
            if v.is_finite() {
                v
            } else {
                f64::MAX
            }
        };

        let mut values: Vec<f64> = simplex.iter().map(|v| eval(v, &mut evals)).collect();

        let mut converged = false;
        while evals < cfg.max_evals {
            // Order vertices by objective value (best first). `eval` left
            // only finite values, on which `total_cmp` is `partial_cmp`
            // except that it puts -0.0 before +0.0.
            let mut order: Vec<usize> = (0..=n).collect();
            order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
            let best = order[0];
            let worst = order[n];
            let second_worst = order[n - 1];

            // Termination: objective spread and simplex diameter.
            let spread = values[worst] - values[best];
            let diameter = simplex
                .iter()
                .map(|v| {
                    v.iter()
                        .zip(&simplex[best])
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .fold(0.0f64, f64::max);
            if spread.abs() <= cfg.f_tol && diameter <= cfg.x_tol {
                converged = true;
                break;
            }

            // Centroid of all vertices except the worst.
            let mut centroid = vec![0.0; n];
            for (idx, v) in simplex.iter().enumerate() {
                if idx == worst {
                    continue;
                }
                for (c, x) in centroid.iter_mut().zip(v) {
                    *c += x;
                }
            }
            for c in &mut centroid {
                *c /= n as f64;
            }

            let lerp = |from: &[f64], to: &[f64], t: f64| -> Vec<f64> {
                from.iter().zip(to).map(|(a, b)| a + t * (b - a)).collect()
            };

            // Reflection: x_r = centroid + alpha (centroid - worst).
            let reflected = lerp(&centroid, &simplex[worst], -cfg.alpha);
            let f_reflected = eval(&reflected, &mut evals);

            if f_reflected < values[best] {
                // Expansion.
                let expanded = lerp(&centroid, &simplex[worst], -cfg.alpha * cfg.gamma);
                let f_expanded = eval(&expanded, &mut evals);
                if f_expanded < f_reflected {
                    simplex[worst] = expanded;
                    values[worst] = f_expanded;
                } else {
                    simplex[worst] = reflected;
                    values[worst] = f_reflected;
                }
                continue;
            }
            if f_reflected < values[second_worst] {
                simplex[worst] = reflected;
                values[worst] = f_reflected;
                continue;
            }

            // Contraction (outside if the reflection improved on the worst,
            // inside otherwise).
            let (contracted, f_contracted) = if f_reflected < values[worst] {
                let c = lerp(&centroid, &reflected, cfg.rho);
                let fc = eval(&c, &mut evals);
                (c, fc)
            } else {
                let c = lerp(&centroid, &simplex[worst], cfg.rho);
                let fc = eval(&c, &mut evals);
                (c, fc)
            };
            if f_contracted < values[worst].min(f_reflected) {
                simplex[worst] = contracted;
                values[worst] = f_contracted;
                continue;
            }

            // Shrink toward the best vertex.
            let best_vertex = simplex[best].clone();
            for idx in 0..=n {
                if idx == best {
                    continue;
                }
                simplex[idx] = lerp(&best_vertex, &simplex[idx], cfg.sigma);
                values[idx] = eval(&simplex[idx], &mut evals);
            }
        }

        // The simplex has n + 1 ≥ 2 vertices, so the default is never taken.
        let best_idx = (0..=n).min_by(|&a, &b| values[a].total_cmp(&values[b])).unwrap_or(0);
        OptimizeResult {
            point: simplex[best_idx].clone(),
            value: values[best_idx],
            evaluations: evals,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    fn rosenbrock(x: &[f64]) -> f64 {
        let (a, b) = (1.0, 100.0);
        (a - x[0]).powi(2) + b * (x[1] - x[0] * x[0]).powi(2)
    }

    #[test]
    fn sphere_converges_to_origin() {
        let nm = NelderMead::default();
        let r = nm.minimize(sphere, &[3.0, -4.0, 2.0]);
        assert!(r.converged, "should converge: {r:?}");
        assert!(r.value < 1e-8, "value {}", r.value);
        for x in &r.point {
            assert!(x.abs() < 1e-3);
        }
    }

    #[test]
    fn rosenbrock_reaches_valley() {
        let nm = NelderMead::new(NelderMeadConfig { max_evals: 20_000, ..Default::default() });
        let r = nm.minimize(rosenbrock, &[-1.2, 1.0]);
        assert!(r.value < 1e-6, "value {}", r.value);
        assert!((r.point[0] - 1.0).abs() < 1e-2);
        assert!((r.point[1] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn one_dimensional_quadratic() {
        let nm = NelderMead::default();
        let r = nm.minimize(|x| (x[0] - 5.0).powi(2) + 3.0, &[0.0]);
        assert!((r.point[0] - 5.0).abs() < 1e-4);
        assert!((r.value - 3.0).abs() < 1e-8);
    }

    #[test]
    fn respects_evaluation_budget() {
        let nm = NelderMead::new(NelderMeadConfig { max_evals: 25, ..Default::default() });
        let r = nm.minimize(rosenbrock, &[-1.2, 1.0]);
        // Budget plus at most one in-flight iteration's evaluations.
        assert!(r.evaluations <= 25 + 4, "evaluations {}", r.evaluations);
    }

    #[test]
    fn handles_non_finite_objective_regions() {
        // Objective is NaN for x < 0; minimum at x = 1.
        let nm = NelderMead::default();
        let r = nm.minimize(
            |x| if x[0] < 0.0 { f64::NAN } else { (x[0] - 1.0).powi(2) },
            &[4.0],
        );
        assert!((r.point[0] - 1.0).abs() < 1e-4, "point {:?}", r.point);
    }

    #[test]
    fn zero_start_point_still_moves() {
        let nm = NelderMead::default();
        let r = nm.minimize(|x| (x[0] - 0.5).powi(2), &[0.0]);
        assert!((r.point[0] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn returns_start_when_already_optimal() {
        let nm = NelderMead::default();
        let r = nm.minimize(sphere, &[0.0, 0.0]);
        assert!(r.value < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty start point")]
    fn empty_start_panics() {
        let _ = NelderMead::default().minimize(sphere, &[]);
    }

    mod props {
        use super::*;
        use cludistream_rng::{check, Rng, StdRng};

        fn coords(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
            (0..n).map(|_| rng.gen_range(lo..hi)).collect()
        }

        /// Any shifted convex quadratic in up to 4 dimensions is
        /// minimized to its known optimum.
        #[test]
        fn converges_on_random_quadratics() {
            check::cases("converges_on_random_quadratics", 48, |rng| {
                let d = rng.gen_range(1..=4);
                let center = coords(rng, d, -5.0, 5.0);
                let scales = coords(rng, d, 0.1, 10.0);
                let start = coords(rng, d, -5.0, 5.0);
                let nm = NelderMead::new(NelderMeadConfig {
                    max_evals: 20_000,
                    ..Default::default()
                });
                let r = nm.minimize(
                    |x| {
                        x.iter()
                            .zip(&center)
                            .zip(&scales)
                            .map(|((xi, c), s)| s * (xi - c) * (xi - c))
                            .sum()
                    },
                    &start,
                );
                for (xi, c) in r.point.iter().zip(&center) {
                    assert!((xi - c).abs() < 1e-2, "found {xi}, optimum {c}");
                }
                assert!(r.value < 1e-3, "value {}", r.value);
            });
        }

        /// The returned value always matches the objective at the
        /// returned point, and never exceeds the starting value.
        #[test]
        fn result_is_consistent_and_no_worse() {
            check::cases("result_is_consistent_and_no_worse", 48, |rng| {
                let d = rng.gen_range(1..=3);
                let start = coords(rng, d, -10.0, 10.0);
                let f = |x: &[f64]| x.iter().map(|v| v.abs().sqrt() + v * v).sum::<f64>();
                let nm = NelderMead::default();
                let r = nm.minimize(f, &start);
                assert!((r.value - f(&r.point)).abs() < 1e-12);
                assert!(r.value <= f(&start) + 1e-12);
            });
        }
    }

    /// The flat-buffer minimizer equals [`reference::minimize`] bit for
    /// bit: every point it asks the objective for, the returned point and
    /// value, the evaluation count and the convergence flag. Over n 1–20,
    /// four objectives (a random quadratic; Rosenbrock; a quadratic with
    /// NaN, +inf and −inf regions; a constant that is −0.0 on one side of
    /// a plane and +0.0 on the other), starts with zero coordinates, both
    /// tolerance settings in use, two initial steps, and `max_evals` ∈
    /// {0, 1, 25, 300}.
    #[test]
    fn flat_simplex_is_bit_identical_to_the_reference() {
        use cludistream_rng::{check, Rng};

        type Objective<'a> = &'a dyn Fn(&[f64]) -> f64;

        fn same_bits(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }

        check::cases("flat_simplex_is_bit_identical_to_the_reference", 6, |rng| {
            for n in 1..=20 {
                let center: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
                let scales: Vec<f64> =
                    (0..n).map(|_| 10f64.powf(rng.gen_range(-3.0..3.0))).collect();
                let quadratic = |x: &[f64]| -> f64 {
                    x.iter()
                        .zip(&center)
                        .zip(&scales)
                        .map(|((x, c), s)| s * (x - c) * (x - c))
                        .sum()
                };
                let objectives: [Objective; 4] = [
                    &quadratic,
                    &|x: &[f64]| {
                        if x.len() == 1 {
                            return (1.0 - x[0]).powi(2);
                        }
                        x.windows(2)
                            .map(|w| 100.0 * (w[1] - w[0] * w[0]).powi(2) + (1.0 - w[0]).powi(2))
                            .sum()
                    },
                    &|x: &[f64]| {
                        let total: f64 = x.iter().sum();
                        if total < -4.0 {
                            f64::NAN
                        } else if total > 6.0 {
                            f64::INFINITY
                        } else if x[0] > 2.5 {
                            f64::NEG_INFINITY
                        } else {
                            quadratic(x)
                        }
                    },
                    &|x: &[f64]| if x.iter().sum::<f64>() < 0.5 { -0.0 } else { 0.0 },
                ];
                let mut x0: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
                for x in &mut x0 {
                    if rng.gen_bool(0.2) {
                        *x = 0.0;
                    }
                }
                let (f_tol, x_tol) = if rng.gen::<bool>() { (1e-12, 1e-10) } else { (1e-9, 1e-7) };
                // A step of 2.5·|x| flips a coordinate's sign, so vertices
                // differ by more than a factor of 2 and `a + t·(b − a)`
                // rounds differently from its algebraic rewrites.
                let initial_step = if rng.gen::<bool>() { 0.1 } else { 2.5 };
                for (kind, objective) in objectives.iter().enumerate() {
                    for max_evals in [0, 1, 25, 300] {
                        let nm = NelderMead::new(NelderMeadConfig {
                            max_evals,
                            f_tol,
                            x_tol,
                            initial_step,
                            ..Default::default()
                        });
                        let (mut want_asked, mut got_asked) = (Vec::new(), Vec::new());
                        let want = reference::minimize(
                            &nm,
                            |x| {
                                want_asked.extend_from_slice(x);
                                objective(x)
                            },
                            &x0,
                        );
                        let got = nm.minimize(
                            |x| {
                                got_asked.extend_from_slice(x);
                                objective(x)
                            },
                            &x0,
                        );
                        let case = format!("n {n} objective {kind} max_evals {max_evals}");
                        assert!(same_bits(&want_asked, &got_asked), "{case}: points asked");
                        assert!(same_bits(&want.point, &got.point), "{case}: point");
                        assert_eq!(want.value.to_bits(), got.value.to_bits(), "{case}: value");
                        assert_eq!(want.evaluations, got.evaluations, "{case}: evaluations");
                        assert_eq!(want.converged, got.converged, "{case}: converged");
                    }
                }
            }
        });
    }

    #[test]
    fn higher_dimension_sphere() {
        let nm = NelderMead::new(NelderMeadConfig { max_evals: 50_000, ..Default::default() });
        let x0: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let r = nm.minimize(sphere, &x0);
        assert!(r.value < 1e-6, "value {}", r.value);
    }
}
