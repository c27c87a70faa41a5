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
    pub fn minimize<F>(&self, mut f: F, x0: &[f64]) -> OptimizeResult
    where
        F: FnMut(&[f64]) -> f64,
    {
        let n = x0.len();
        assert!(n > 0, "nelder-mead: empty start point");
        let cfg = &self.config;

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

    #[test]
    fn higher_dimension_sphere() {
        let nm = NelderMead::new(NelderMeadConfig { max_evals: 50_000, ..Default::default() });
        let x0: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let r = nm.minimize(sphere, &x0);
        assert!(r.value < 1e-6, "value {}", r.value);
    }
}
