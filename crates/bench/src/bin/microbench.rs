//! Microbenchmark runner: sweeps of the kernels the benchmark's
//! workloads run at one fixed size (EM over d, K and n; the dense linear
//! algebra over d), plus what no workload runs (the merge criteria side by
//! side, the quality plane), with the `timing::best_of` harness. The
//! per-layer costs of a real run are the benchmark's (`BENCHMARK.json`).
//!
//! ```text
//! microbench                      # every group
//! microbench em linalg            # specific groups
//! microbench --list               # available group ids
//! microbench --json BENCH.json    # also write machine-readable results
//! ```
//!
//! Each line is `group/benchmark/param: <best> s (best of N)`, where
//! "best" is the minimum wall time over N runs — the noise-robust
//! micro-measurement convention `timing::best_of` implements. With
//! `--json PATH` the same results are additionally written as a JSON
//! array of `{name, iters, ns_per_op}` rows (human output stays on
//! stdout).

use cludistream::coordinator::{j_merge, m_merge, MergeRefiner};
use cludistream::{Config, RemoteSite};
use cludistream_bench::{timing::best_of, workloads};
use cludistream_datagen::random_spd_matrix;
use cludistream_gmm::{fit_em, kmeans, ChunkParams, EmConfig, KMeansConfig, Mixture};
use cludistream_linalg::{Cholesky, Vector};
use cludistream_obs::{json_f64, EwmaDetector, Obs, PageHinkley, Registry};
use cludistream_rng::StdRng;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

const GROUPS: &[(&str, fn(&mut Sink))] = &[
    ("em", bench_em),
    ("merge", bench_merge),
    ("linalg", bench_linalg),
    ("quality", bench_quality),
];

/// Repetitions per measurement; the printed number is the minimum.
const RUNS: usize = 10;

/// One finished measurement.
struct Row {
    /// `group/name` or `group/name/param`.
    name: String,
    /// Best-of-[`RUNS`] wall time for one operation, seconds.
    seconds: f64,
}

/// Collects rows for `--json` while echoing the human line to stdout.
#[derive(Default)]
struct Sink {
    rows: Vec<Row>,
}

impl Sink {
    fn report(&mut self, group: &str, name: &str, param: &str, seconds: f64) {
        let full = if param.is_empty() {
            format!("{group}/{name}")
        } else {
            format!("{group}/{name}/{param}")
        };
        println!("{full}: {seconds:.6} s (best of {RUNS})");
        self.rows.push(Row { name: full, seconds });
    }

    /// The machine-readable result file: a JSON array, one object per
    /// measurement, `ns_per_op` from the best-of time.
    fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "  {{\"name\":\"{}\",\"iters\":{RUNS},\"ns_per_op\":{}}}",
                row.name,
                json_f64(row.seconds * 1e9)
            ));
            if i + 1 < self.rows.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push(']');
        s.push('\n');
        s
    }
}

/// EM iteration cost vs dimensionality, component count, and chunk size —
/// the microbenchmark behind the Figs. 8-9 scalability claims — and the
/// k-means initialization, a layer the benchmark does not time.
fn bench_em(sink: &mut Sink) {
    for d in [2usize, 4, 8, 16] {
        let mut stream = workloads::synthetic_boxed(d, 5, 0.0, 1);
        let data = workloads::collect(&mut *stream, 1000);
        let t = best_of(RUNS, || {
            fit_em(&data, &EmConfig { k: 5, max_iters: 10, tol: 0.0, seed: 2, ..Default::default() })
                .expect("EM fits")
        });
        sink.report("em", "dim", &d.to_string(), t);
    }
    for k in [2usize, 5, 10, 20] {
        let mut stream = workloads::synthetic_boxed(4, 5, 0.0, 3);
        let data = workloads::collect(&mut *stream, 1000);
        let t = best_of(RUNS, || {
            fit_em(&data, &EmConfig { k, max_iters: 10, tol: 0.0, seed: 4, ..Default::default() })
                .expect("EM fits")
        });
        sink.report("em", "k", &k.to_string(), t);
    }
    for n in [500usize, 1000, 2000, 4000] {
        let mut stream = workloads::synthetic_boxed(4, 5, 0.0, 5);
        let data = workloads::collect(&mut *stream, n);
        let t = best_of(RUNS, || {
            fit_em(&data, &EmConfig { k: 5, max_iters: 10, tol: 0.0, seed: 6, ..Default::default() })
                .expect("EM fits")
        });
        sink.report("em", "n", &n.to_string(), t);
    }
    // EM's initialization on its own: k-means++ and ten Lloyd iterations
    // over one paper-sized chunk (M = 1 567, d = 4, K = 5).
    let mut stream = workloads::synthetic_boxed(4, 5, 0.0, 7);
    let data = workloads::collect(&mut *stream, 1567);
    let t = best_of(RUNS, || {
        kmeans(&data, &KMeansConfig { k: 5, max_iters: 10, seed: 8 }).expect("k-means fits")
    });
    sink.report("em", "kmeans_init", "", t);
}

/// Coordinator merge machinery: `M_merge`, `J_merge` (for contrast — it
/// needs raw data), the moment-preserving merge, and the Nelder-Mead
/// refinement at a large budget and at the deployed one.
fn bench_merge(sink: &mut Sink) {
    let mut stream = workloads::synthetic_boxed(4, 5, 0.0, 1);
    let data = workloads::collect(&mut *stream, 2000);
    let fit = fit_em(&data, &EmConfig { k: 8, seed: 2, ..Default::default() }).expect("EM fits");
    let mixture: Mixture = fit.mixture;
    let (a, b) = (&mixture.components()[0], &mixture.components()[1]);

    sink.report("merge", "m_merge_pair", "", best_of(RUNS, || m_merge(a, b)));
    let t = best_of(RUNS, || j_merge(&mixture, 0, 1, &data));
    sink.report("merge", "j_merge_pair_2000pts", "", t);
    let t = best_of(RUNS, || mixture.moment_merge(0, 1).expect("valid merge"));
    sink.report("merge", "moment_merge", "", t);
    let refiner = MergeRefiner { samples: 128, max_evals: 300, seed: 3 };
    let t = best_of(RUNS, || refiner.refine_detailed(0.5, a, 0.5, b));
    sink.report("merge", "simplex_refined_merge", "", t);
    // The refiner at the settings the coordinator runs it with (the CLI's
    // and the benchmark's).
    let refiner = MergeRefiner { samples: 32, max_evals: 100, seed: 9 };
    let t = best_of(RUNS, || refiner.refine_detailed(0.5, a, 0.5, b));
    sink.report("merge", "refine_deployed", "", t);
}

/// Dense-kernel microbenchmarks: Cholesky factorization, triangular
/// solves, Mahalanobis quadratic forms and the explicit inverse.
fn bench_linalg(sink: &mut Sink) {
    for d in [4usize, 8, 16, 32] {
        let mut rng = StdRng::seed_from_u64(d as u64);
        let spd = random_spd_matrix(d, (0.5, 2.0), &mut rng);
        let chol = Cholesky::new(&spd).expect("SPD");
        let x: Vector = (0..d).map(|i| i as f64 * 0.1).collect();
        let mu = Vector::zeros(d);
        let p = &d.to_string();

        sink.report("linalg", "cholesky", p, best_of(RUNS, || Cholesky::new(&spd).expect("SPD")));
        sink.report("linalg", "mahalanobis", p, best_of(RUNS, || chol.mahalanobis_sq(&x, &mu)));
        sink.report("linalg", "solve", p, best_of(RUNS, || chol.solve(&x)));
        sink.report("linalg", "inverse", p, best_of(RUNS, || chol.inverse()));
    }
}

/// Quality-plane overhead: the same multi-chunk site run with the
/// quality plane off (live registry, no quality config) and on — two
/// detector updates and a dozen gauge writes per *tested* chunk, which
/// must be within noise of the off side — plus the raw per-sample cost
/// of both drift detectors.
fn bench_quality(sink: &mut Sink) {
    let base = Config {
        dim: 4,
        k: 5,
        chunk: ChunkParams::PAPER_DEFAULTS,
        seed: 1,
        ..Default::default()
    };
    let mut stream = workloads::synthetic_boxed(4, 5, 0.0, 9);
    let chunk_size = RemoteSite::new(base.clone()).expect("valid config").chunk_size();
    let records = workloads::collect(&mut *stream, 4 * chunk_size);
    let run_site = |config: &Config| {
        let registry = Arc::new(Registry::new());
        let mut site = RemoteSite::new(config.clone()).expect("valid config");
        site.set_observer(Obs::from_registry(registry), 0);
        for x in &records {
            site.push(x.clone()).expect("processes");
        }
        site
    };
    let t = best_of(RUNS, || run_site(&base));
    sink.report("quality", "site_4chunks_off", "", t);
    let on = Config { quality: true, ..base.clone() };
    let t = best_of(RUNS, || run_site(&on));
    sink.report("quality", "site_4chunks_on", "", t);

    // Raw detector cost per sample, amortized over 1000 updates on a
    // stationary series (no alarms, so no reset in the loop).
    let t = best_of(RUNS, || {
        let mut ph = PageHinkley::default();
        for i in 0..1000u32 {
            let _ = ph.update(-2.0 - 0.001 * f64::from(i % 7));
        }
        ph
    });
    sink.report("quality", "page_hinkley_x1000", "", t);
    let t = best_of(RUNS, || {
        let mut ewma = EwmaDetector::default();
        for i in 0..1000u32 {
            let _ = ewma.update(-2.0 - 0.001 * f64::from(i % 7));
        }
        ewma
    });
    sink.report("quality", "ewma_x1000", "", t);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (id, _) in GROUPS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let mut json_path: Option<String> = None;
    let mut group_args: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => {
                    eprintln!("--json expects an output path");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            group_args.push(a);
        }
    }
    let selected: Vec<&(&str, fn(&mut Sink))> = if group_args.is_empty() {
        GROUPS.iter().collect()
    } else {
        let mut sel = Vec::new();
        for a in &group_args {
            match GROUPS.iter().find(|(id, _)| id == *a) {
                Some(g) => sel.push(g),
                None => {
                    eprintln!("unknown group {a}; try --list");
                    return ExitCode::FAILURE;
                }
            }
        }
        sel
    };
    let mut sink = Sink::default();
    for (id, run) in selected {
        println!("######## {id} ########");
        run(&mut sink);
    }
    if let Some(path) = json_path {
        let json = sink.to_json();
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
            Ok(()) => println!("json results written to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
