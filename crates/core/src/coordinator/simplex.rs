//! The downhill-simplex method of Nelder and Mead (paper reference \[19\]),
//! which the merge refiner runs on the accuracy loss `l(x)` (Sec. 5.2.1).
//!
//! The standard reflection / expansion / contraction / shrink moves with
//! the classical coefficients; the only setting left to the caller is the
//! evaluation budget.

/// Reflection coefficient (α > 0).
const ALPHA: f64 = 1.0;
/// Expansion coefficient (γ > 1).
const GAMMA: f64 = 2.0;
/// Contraction coefficient (0 < ρ ≤ 0.5).
const RHO: f64 = 0.5;
/// Shrink coefficient (0 < σ < 1).
const SIGMA: f64 = 0.5;
/// Relative step that builds the initial simplex from the start point (per
/// coordinate; an absolute step for zero coordinates).
const INITIAL_STEP: f64 = 0.1;
/// Objective-spread tolerance: the method stops when the best-to-worst
/// spread of the simplex is at most this (absolute) tolerance AND its
/// diameter is at most [`X_TOL`]. Requiring both avoids premature stops on
/// simplexes that happen to straddle the optimum symmetrically.
const F_TOL: f64 = 1e-9;
/// Simplex-diameter tolerance (largest vertex distance to the best vertex);
/// see [`F_TOL`].
const X_TOL: f64 = 1e-7;

/// Outcome of [`minimize`]. A tolerance stopped it exactly when
/// `evaluations < max_evals`; otherwise the budget ran out.
#[derive(Debug)]
pub(super) struct Minimum {
    /// Best point found.
    pub(super) point: Vec<f64>,
    /// Objective value at `point`.
    pub(super) value: f64,
    /// Number of objective evaluations performed.
    pub(super) evaluations: usize,
}

/// Minimizes `f` starting from `x0` within about `max_evals` evaluations
/// (an iteration in flight finishes). Panics when `x0` is empty.
///
/// Maintains a simplex of `n+1` vertices in `n` dimensions and iteratively
/// replaces the worst vertex via reflection, expansion, or contraction,
/// shrinking the whole simplex toward the best vertex when all else fails.
/// The simplex is one flat buffer and every iteration reuses the same
/// vertex-order, centroid and trial buffers, so an iteration allocates
/// nothing; the returned point is the one copy.
pub(super) fn minimize<F>(mut f: F, x0: &[f64], max_evals: usize) -> Minimum
where
    F: FnMut(&[f64]) -> f64,
{
    let n = x0.len();
    assert!(n > 0, "nelder-mead: empty start point");
    // Vertex `v` of the simplex is `simplex[vertex(v)]`.
    let vertex = |v: usize| v * n..(v + 1) * n;

    // Initial simplex: start point plus one perturbed vertex per axis.
    let mut simplex: Vec<f64> = Vec::with_capacity((n + 1) * n);
    simplex.extend_from_slice(x0);
    for i in 0..n {
        simplex.extend_from_slice(x0);
        let step = if x0[i] != 0.0 { INITIAL_STEP * x0[i].abs() } else { INITIAL_STEP };
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

    while evals < max_evals {
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
        if spread.abs() <= F_TOL && diameter() <= X_TOL {
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
        lerp_into(&centroid, &simplex[vertex(worst)], -ALPHA, &mut reflected);
        let f_reflected = eval(&reflected, &mut evals);

        if f_reflected < values[best] {
            // Expansion.
            lerp_into(&centroid, &simplex[vertex(worst)], -ALPHA * GAMMA, &mut trial);
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
        lerp_into(&centroid, toward, RHO, &mut trial);
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
                *x = b + SIGMA * (*x - b);
            }
            values[idx] = eval(v, &mut evals);
        }
    }

    // The simplex has n + 1 ≥ 2 vertices, so the default is never taken.
    let best_idx = (0..=n).min_by(|&a, &b| values[a].total_cmp(&values[b])).unwrap_or(0);
    Minimum {
        point: simplex[vertex(best_idx)].to_vec(),
        value: values[best_idx],
        evaluations: evals,
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
/// as the oracle of [`minimize`]. Its coefficients are the deployed values
/// written out, not the constants above, so changing a constant fails the
/// bit-identity sweep instead of moving both sides.
#[cfg(test)]
mod reference {
    /// Outcome of a minimization run.
    #[derive(Debug, Clone)]
    pub(super) struct OptimizeResult {
        /// Best point found.
        pub(super) point: Vec<f64>,
        /// Objective value at `point`.
        pub(super) value: f64,
        /// Number of objective evaluations performed.
        pub(super) evaluations: usize,
        /// True when a tolerance (rather than the evaluation budget) stopped
        /// the iteration.
        pub(super) converged: bool,
    }

    /// Minimizes `f` starting from `x0`. Panics when `x0` is empty.
    pub(super) fn minimize<F>(mut f: F, x0: &[f64], max_evals: usize) -> OptimizeResult
    where
        F: FnMut(&[f64]) -> f64,
    {
        let n = x0.len();
        assert!(n > 0, "nelder-mead: empty start point");
        // The deployed coefficients and tolerances.
        let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
        let (f_tol, x_tol, initial_step) = (1e-9, 1e-7, 0.1);

        // Initial simplex: start point plus one perturbed vertex per axis.
        let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        simplex.push(x0.to_vec());
        for i in 0..n {
            let mut v = x0.to_vec();
            let step = if v[i] != 0.0 { initial_step * v[i].abs() } else { initial_step };
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
        while evals < max_evals {
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
            if spread.abs() <= f_tol && diameter <= x_tol {
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
            let reflected = lerp(&centroid, &simplex[worst], -alpha);
            let f_reflected = eval(&reflected, &mut evals);

            if f_reflected < values[best] {
                // Expansion.
                let expanded = lerp(&centroid, &simplex[worst], -alpha * gamma);
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
                let c = lerp(&centroid, &reflected, rho);
                let fc = eval(&c, &mut evals);
                (c, fc)
            } else {
                let c = lerp(&centroid, &simplex[worst], rho);
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
                simplex[idx] = lerp(&best_vertex, &simplex[idx], sigma);
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

    /// The evaluation budget the convergence tests give the method unless
    /// they need more.
    const BUDGET: usize = 2000;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    fn rosenbrock(x: &[f64]) -> f64 {
        let (a, b) = (1.0, 100.0);
        (a - x[0]).powi(2) + b * (x[1] - x[0] * x[0]).powi(2)
    }

    #[test]
    fn sphere_converges_to_origin() {
        let r = minimize(sphere, &[3.0, -4.0, 2.0], BUDGET);
        assert!(r.evaluations < BUDGET, "should converge: {r:?}");
        assert!(r.value < 1e-8, "value {}", r.value);
        for x in &r.point {
            assert!(x.abs() < 1e-3);
        }
    }

    #[test]
    fn rosenbrock_reaches_valley() {
        let r = minimize(rosenbrock, &[-1.2, 1.0], 20_000);
        assert!(r.value < 1e-6, "value {}", r.value);
        assert!((r.point[0] - 1.0).abs() < 1e-2);
        assert!((r.point[1] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn one_dimensional_quadratic() {
        let r = minimize(|x| (x[0] - 5.0).powi(2) + 3.0, &[0.0], BUDGET);
        assert!((r.point[0] - 5.0).abs() < 1e-4);
        assert!((r.value - 3.0).abs() < 1e-8);
    }

    #[test]
    fn respects_evaluation_budget() {
        let r = minimize(rosenbrock, &[-1.2, 1.0], 25);
        // Budget plus at most one in-flight iteration's evaluations.
        assert!(r.evaluations <= 25 + 4, "evaluations {}", r.evaluations);
    }

    #[test]
    fn handles_non_finite_objective_regions() {
        // Objective is NaN for x < 0; minimum at x = 1.
        let r =
            minimize(|x| if x[0] < 0.0 { f64::NAN } else { (x[0] - 1.0).powi(2) }, &[4.0], BUDGET);
        assert!((r.point[0] - 1.0).abs() < 1e-4, "point {:?}", r.point);
    }

    #[test]
    fn zero_start_point_still_moves() {
        let r = minimize(|x| (x[0] - 0.5).powi(2), &[0.0], BUDGET);
        assert!((r.point[0] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn returns_start_when_already_optimal() {
        let r = minimize(sphere, &[0.0, 0.0], BUDGET);
        assert!(r.value < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty start point")]
    fn empty_start_panics() {
        let _ = minimize(sphere, &[], BUDGET);
    }

    #[test]
    fn higher_dimension_sphere() {
        let x0: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let r = minimize(sphere, &x0, 50_000);
        assert!(r.value < 1e-6, "value {}", r.value);
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
                let r = minimize(
                    |x| {
                        x.iter()
                            .zip(&center)
                            .zip(&scales)
                            .map(|((xi, c), s)| s * (xi - c) * (xi - c))
                            .sum()
                    },
                    &start,
                    20_000,
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
                let r = minimize(f, &start, BUDGET);
                assert!((r.value - f(&r.point)).abs() < 1e-12);
                assert!(r.value <= f(&start) + 1e-12);
            });
        }
    }

    /// The flat-buffer minimizer equals [`reference::minimize`] bit for
    /// bit: every point it asks the objective for, the returned point and
    /// value, the evaluation count, and a tolerance stop exactly where the
    /// reference converged. Over n 1–20, four objectives (a random
    /// quadratic; Rosenbrock; a quadratic with NaN, +inf and −inf regions;
    /// a constant that is −0.0 on one side of a plane and +0.0 on the
    /// other), starts with zero coordinates, and `max_evals` ∈
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
                for (kind, objective) in objectives.iter().enumerate() {
                    for max_evals in [0, 1, 25, 300] {
                        let (mut want_asked, mut got_asked) = (Vec::new(), Vec::new());
                        let want = reference::minimize(
                            |x| {
                                want_asked.extend_from_slice(x);
                                objective(x)
                            },
                            &x0,
                            max_evals,
                        );
                        let got = minimize(
                            |x| {
                                got_asked.extend_from_slice(x);
                                objective(x)
                            },
                            &x0,
                            max_evals,
                        );
                        let case = format!("n {n} objective {kind} max_evals {max_evals}");
                        assert!(same_bits(&want_asked, &got_asked), "{case}: points asked");
                        assert!(same_bits(&want.point, &got.point), "{case}: point");
                        assert_eq!(want.value.to_bits(), got.value.to_bits(), "{case}: value");
                        assert_eq!(want.evaluations, got.evaluations, "{case}: evaluations");
                        let stopped_by_tolerance = got.evaluations < max_evals;
                        assert_eq!(want.converged, stopped_by_tolerance, "{case}: converged");
                    }
                }
            }
        });
    }
}
