//! Microbenchmark runner: the in-repo replacement for the former
//! criterion bench suite, printing the same series over the same
//! workloads with the `timing::best_of` harness.
//!
//! ```text
//! microbench                      # every group
//! microbench em codec             # specific groups
//! microbench --list               # available group ids
//! microbench --json BENCH.json    # also write machine-readable results
//! ```
//!
//! Each line is `group/benchmark/param: <best> s (best of N)`, where
//! "best" is the minimum wall time over N runs — the noise-robust
//! micro-measurement convention `timing::best_of` implements. With
//! `--json PATH` the same results are additionally written as a JSON
//! array of `{name, iters, ns_per_op[, bytes_per_op]}` rows (human
//! output stays on stdout).

use cludistream::{Config, Coordinator, CoordinatorConfig, Message, ModelId, RemoteSite};
use cludistream::coordinator::{j_merge, m_merge, MergeRefiner};
use cludistream_bench::{timing::best_of, workloads};
use cludistream_datagen::random_spd_matrix;
use cludistream_gmm::codec::{decode_mixture, encode_mixture};
use cludistream_gmm::{
    avg_log_likelihood, fit_em, fit_em_recorded, fit_tolerance, free_parameters, score,
    score_record, Batch, ChunkParams, CovarianceType, EmConfig, Mixture, MixtureScratch,
};
use cludistream_linalg::{jacobi_eigen, Cholesky, Vector};
use cludistream_obs::{
    catalogue, json_f64, NopRecorder, Obs, QualityConfig, QuantileSketch, Recorder, Registry,
};
use cludistream_rng::StdRng;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

const GROUPS: &[(&str, fn(&mut Sink))] = &[
    ("em", bench_em),
    ("em.batch", bench_em_batch),
    ("likelihood.batch", bench_likelihood_batch),
    ("scoring", bench_scoring),
    ("test_vs_cluster", bench_test_vs_cluster),
    ("merge", bench_merge),
    ("codec", bench_codec),
    ("linalg", bench_linalg),
    ("pipeline", bench_pipeline),
    ("obs", bench_obs),
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
    /// Payload size for throughput benches (codec encodes), when known.
    bytes: Option<u64>,
}

/// Collects rows for `--json` while echoing the human line to stdout.
#[derive(Default)]
struct Sink {
    rows: Vec<Row>,
}

impl Sink {
    fn report(&mut self, group: &str, name: &str, param: &str, seconds: f64) {
        self.report_sized(group, name, param, seconds, None);
    }

    fn report_sized(
        &mut self,
        group: &str,
        name: &str,
        param: &str,
        seconds: f64,
        bytes: Option<u64>,
    ) {
        let full = if param.is_empty() {
            format!("{group}/{name}")
        } else {
            format!("{group}/{name}/{param}")
        };
        println!("{full}: {seconds:.6} s (best of {RUNS})");
        self.rows.push(Row { name: full, seconds, bytes });
    }

    /// The machine-readable result file: a JSON array, one object per
    /// measurement, `ns_per_op` from the best-of time.
    fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "  {{\"name\":\"{}\",\"iters\":{RUNS},\"ns_per_op\":{}",
                row.name,
                json_f64(row.seconds * 1e9)
            ));
            if let Some(b) = row.bytes {
                s.push_str(&format!(",\"bytes_per_op\":{b}"));
            }
            s.push('}');
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
/// the microbenchmark behind the Figs. 8-9 scalability claims.
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
}

/// The data-parallel E-step over the SoA batch layout: one full fit per
/// thread count, both covariance modes. The result is bit-identical for
/// every thread count, so these rows measure pure wall-clock. On a
/// single-core host the threads > 1 rows measure scheduling overhead,
/// not speedup — `--assert-parallel-speedup` gates exactly that.
fn bench_em_batch(sink: &mut Sink) {
    for (name, cov) in [("full", CovarianceType::Full), ("diag", CovarianceType::Diagonal)] {
        let mut stream = workloads::synthetic_boxed(8, 5, 0.0, 1);
        let data = workloads::collect(&mut *stream, 8192);
        for threads in [1usize, 2, 4, 8] {
            let t = best_of(RUNS, || {
                fit_em(
                    &data,
                    &EmConfig {
                        k: 5,
                        max_iters: 5,
                        tol: 0.0,
                        seed: 2,
                        covariance: cov,
                        threads,
                        ..Default::default()
                    },
                )
                .expect("EM fits")
            });
            sink.report("em.batch", name, &format!("threads{threads}"), t);
        }
    }
}

/// Definition 1 scoring: the blocked batch kernel (one Cholesky
/// forward-solve across up to `BLOCK` records) against the per-record
/// scalar path it replaced.
fn bench_likelihood_batch(sink: &mut Sink) {
    let mut stream = workloads::synthetic_boxed(8, 5, 0.0, 7);
    let data = workloads::collect(&mut *stream, 8192);
    let fit = fit_em(&data, &EmConfig { k: 5, seed: 2, ..Default::default() }).expect("EM fits");
    let mixture = fit.mixture;

    let t = best_of(RUNS, || {
        data.iter().map(|x| mixture.log_pdf(x)).sum::<f64>() / data.len() as f64
    });
    sink.report("likelihood.batch", "per_record", "8192x8", t);

    let batch = Batch::from_records(&data);
    let t = best_of(RUNS, || {
        let mut scratch = MixtureScratch::default();
        mixture.avg_log_likelihood_batch(&batch, &mut scratch)
    });
    sink.report("likelihood.batch", "batched", "8192x8", t);
}

/// The serving read path: batched Definition-1 assignment (`score`, the
/// SoA kernels) against the per-record `score_record` loop it replaces,
/// at several thread counts, with per-core throughput printed alongside
/// the raw time. A second pass scores 1024-record batches one at a time
/// and feeds each latency into a GK quantile sketch — the p99 a serving
/// deployment would report.
fn bench_scoring(sink: &mut Sink) {
    const N: usize = 8192;
    let mut stream = workloads::synthetic_boxed(8, 5, 0.0, 17);
    let data = workloads::collect(&mut *stream, N);
    let fit = fit_em(&data, &EmConfig { k: 5, seed: 2, ..Default::default() }).expect("EM fits");
    let mixture = fit.mixture;
    let batch = Batch::from_records(&data);

    let t = best_of(RUNS, || {
        data.iter().map(|x| score_record(&mixture, x).1).sum::<f64>()
    });
    sink.report("scoring", "per_record", &format!("{N}x8"), t);
    println!("  -> {:.0} records/sec/core", N as f64 / t);

    for threads in [1usize, 2, 4] {
        let t = best_of(RUNS, || score(&mixture, &batch, threads).expect("mixture scores"));
        sink.report("scoring", "batched", &format!("threads{threads}"), t);
        println!("  -> {:.0} records/sec/core", N as f64 / (t * threads as f64));
    }

    let batches: Vec<Batch> = data.chunks(1024).map(Batch::from_records).collect();
    let mut sketch = QuantileSketch::default();
    for _ in 0..RUNS {
        for b in &batches {
            let start = std::time::Instant::now();
            let scores = score(&mixture, b, 1).expect("mixture scores");
            assert_eq!(scores.len(), b.len());
            sketch.insert(start.elapsed().as_nanos() as u64);
        }
    }
    let p99 = sketch.query(0.99).unwrap_or(0) as f64 / 1e9;
    sink.report("scoring", "batch1024_p99", "", p99);
    println!(
        "  -> p99 over {} single-thread batch scorings (GK sketch, rank error <= {})",
        sketch.count(),
        sketch.epsilon()
    );
}

/// The λ of Theorem 4: testing a chunk against a model vs clustering it
/// with EM — both sides of the `(P_d + λ(1−P_d))·C` per-chunk cost.
fn bench_test_vs_cluster(sink: &mut Sink) {
    let m = ChunkParams::PAPER_DEFAULTS.chunk_size(4).expect("valid params");
    let mut stream = workloads::synthetic_boxed(4, 5, 0.0, 1);
    let chunk = workloads::collect(&mut *stream, m);
    let fit =
        fit_em(&chunk, &EmConfig { k: 5, seed: 2, ..Default::default() }).expect("EM fits");
    let mixture = fit.mixture;

    let t = best_of(RUNS, || {
        let avg = avg_log_likelihood(&mixture, &chunk);
        let p = free_parameters(5, 4, CovarianceType::Full);
        let tol = fit_tolerance(0.02, 0.01, 1.0, chunk.len(), p);
        (avg, tol)
    });
    sink.report("test_vs_cluster", "distribution_test", "", t);

    let t = best_of(RUNS, || {
        fit_em(&chunk, &EmConfig { k: 5, seed: 3, ..Default::default() }).expect("EM fits")
    });
    sink.report("test_vs_cluster", "em_clustering", "", t);
}

/// Coordinator merge machinery: `M_merge`, `J_merge` (for contrast — it
/// needs raw data), the moment-preserving merge, and the Nelder-Mead
/// refinement.
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
    let t = best_of(RUNS, || refiner.refine(0.5, a, 0.5, b));
    sink.report("merge", "simplex_refined_merge", "", t);
}

/// Wire-codec throughput and message sizes: the synopsis encoding that
/// every communication-cost number rests on.
fn bench_codec(sink: &mut Sink) {
    let mut stream = workloads::synthetic_boxed(4, 5, 0.0, 1);
    let data = workloads::collect(&mut *stream, 1000);
    let fit = fit_em(&data, &EmConfig { k: 5, seed: 2, ..Default::default() }).expect("EM fits");
    let mixture = fit.mixture;

    for (name, cov) in [("full", CovarianceType::Full), ("diag", CovarianceType::Diagonal)] {
        let bytes = encode_mixture(&mixture, cov);
        let size = bytes.len() as u64;
        let t = best_of(RUNS, || encode_mixture(&mixture, cov));
        sink.report_sized("codec", "encode", name, t, Some(size));
        let t = best_of(RUNS, || decode_mixture(&mut bytes.reader()).expect("valid buffer"));
        sink.report_sized("codec", "decode", name, t, Some(size));
    }

    let msg = Message::NewModel {
        site: 0,
        model: ModelId(0),
        count: 1567,
        avg_ll: -2.0,
        mixture: mixture.clone(),
    };
    let size = msg.encode(CovarianceType::Full).len() as u64;
    let t = best_of(RUNS, || {
        let bytes = msg.encode(CovarianceType::Full);
        Message::decode(&mut bytes.reader()).expect("valid message")
    });
    sink.report_sized("codec", "message_roundtrip", "", t, Some(size));
}

/// Dense-kernel microbenchmarks: Cholesky factorization, triangular
/// solves, Mahalanobis quadratic forms, and the Jacobi eigensolver.
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
        let t = best_of(RUNS, || jacobi_eigen(&spd, 100).expect("converges"));
        sink.report("linalg", "jacobi_eigen", p, t);
    }
}

/// End-to-end pipeline: remote-site record throughput (the steady-state
/// "test only" path) and coordinator message-application throughput.
fn bench_pipeline(sink: &mut Sink) {
    let config = Config {
        dim: 4,
        k: 5,
        chunk: ChunkParams::PAPER_DEFAULTS,
        seed: 1,
        ..Default::default()
    };
    let mut stream = workloads::synthetic_boxed(4, 5, 0.0, 2);
    let t = best_of(RUNS, || {
        let mut site = RemoteSite::new(config.clone()).expect("valid config");
        // Warm up one chunk so a model exists, then time 10k records on
        // the steady-state path. Setup is inside the closure (like the
        // old iter_batched), so the printed time includes one warm-up
        // chunk — constant across runs and dominated by the 10k pushes.
        for _ in 0..site.chunk_size() {
            site.push(stream.next().expect("infinite")).expect("processes");
        }
        let records = workloads::collect(&mut *stream, 10_000);
        for x in records {
            site.push(x).expect("processes");
        }
        site
    });
    sink.report("pipeline", "steady_state_10k_records", "", t);

    let mut stream = workloads::synthetic_boxed(4, 5, 0.0, 3);
    let data = workloads::collect(&mut *stream, 2000);
    let fit = fit_em(&data, &EmConfig { k: 5, seed: 4, ..Default::default() }).expect("fits");
    let messages: Vec<Message> = (0..100)
        .map(|i| Message::NewModel {
            site: (i % 20) as u32,
            model: ModelId(i / 20),
            count: 1567,
            avg_ll: -2.0,
            mixture: fit.mixture.clone(),
        })
        .collect();
    let t = best_of(RUNS, || {
        let mut coord = Coordinator::new(CoordinatorConfig::default()).unwrap();
        for m in &messages {
            coord.apply(m).expect("valid update");
        }
        coord
    });
    sink.report("pipeline", "apply_100_new_models", "", t);
}

/// Telemetry overhead: the same EM fit uninstrumented, through the
/// monomorphized no-op recorder (must be within noise of the baseline —
/// the zero-cost contract), through the dynamic no-op handle, and with a
/// live registry attached.
fn bench_obs(sink: &mut Sink) {
    let mut stream = workloads::synthetic_boxed(4, 5, 0.0, 1);
    let data = workloads::collect(&mut *stream, 1000);
    let cfg = EmConfig { k: 5, max_iters: 10, tol: 0.0, seed: 2, ..Default::default() };

    let t = best_of(RUNS, || fit_em(&data, &cfg).expect("EM fits"));
    sink.report("obs", "fit_em_baseline", "", t);

    let t = best_of(RUNS, || fit_em_recorded(&data, &cfg, &NopRecorder).expect("EM fits"));
    sink.report("obs", "fit_em_noop_static", "", t);

    let noop = Obs::noop();
    let t = best_of(RUNS, || fit_em_recorded(&data, &cfg, &noop).expect("EM fits"));
    sink.report("obs", "fit_em_noop_dyn", "", t);

    let registry = Arc::new(Registry::new());
    let live = Obs::from_registry(Arc::clone(&registry));
    let t = best_of(RUNS, || fit_em_recorded(&data, &cfg, &live).expect("EM fits"));
    sink.report("obs", "fit_em_registry", "", t);

    // Raw registry primitive costs, amortized over 1000 operations.
    let t = best_of(RUNS, || {
        for _ in 0..1000 {
            live.counter(catalogue::EM_ESTEP_BLOCKS, 1);
        }
    });
    sink.report("obs", "registry_counter_x1000", "", t);
    let t = best_of(RUNS, || {
        for i in 0..1000u64 {
            live.observe(catalogue::EM_ITERS_PER_FIT, i);
        }
    });
    sink.report("obs", "registry_observe_x1000", "", t);

    // Tracing overhead: two chunks through a remote site with the no-op
    // recorder, a live registry with tracing off (every span call must
    // short-circuit on one atomic load — within noise of no-op), and
    // tracing on.
    let config = Config {
        dim: 4,
        k: 5,
        chunk: ChunkParams::PAPER_DEFAULTS,
        seed: 1,
        ..Default::default()
    };
    let mut stream = workloads::synthetic_boxed(4, 5, 0.0, 7);
    let chunk_size = RemoteSite::new(config.clone()).expect("valid config").chunk_size();
    let records = workloads::collect(&mut *stream, 2 * chunk_size);
    let run_site = |obs: Obs| {
        let mut site = RemoteSite::new(config.clone()).expect("valid config");
        site.set_observer(obs, 0);
        for x in &records {
            site.push(x.clone()).expect("processes");
        }
        site
    };
    let t = best_of(RUNS, || run_site(Obs::noop()));
    sink.report("obs", "site_2chunks_noop", "", t);
    let registry_off = Arc::new(Registry::new());
    let t = best_of(RUNS, || run_site(Obs::from_registry(Arc::clone(&registry_off))));
    sink.report("obs", "site_2chunks_tracing_off", "", t);
    let registry_on = Arc::new(Registry::new());
    registry_on.enable_tracing();
    let t = best_of(RUNS, || run_site(Obs::from_registry(Arc::clone(&registry_on))));
    sink.report("obs", "site_2chunks_tracing_on", "", t);
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
    let on = Config { quality: Some(QualityConfig::default()), ..base.clone() };
    let t = best_of(RUNS, || run_site(&on));
    sink.report("quality", "site_4chunks_on", "", t);

    // Raw detector cost per sample, amortized over 1000 updates on a
    // stationary series (no alarms, so no reset in the loop).
    let qc = QualityConfig::default();
    let t = best_of(RUNS, || {
        let mut ph = qc.page_hinkley();
        for i in 0..1000u32 {
            let _ = ph.update(-2.0 - 0.001 * f64::from(i % 7));
        }
        ph
    });
    sink.report("quality", "page_hinkley_x1000", "", t);
    let t = best_of(RUNS, || {
        let mut ewma = qc.ewma();
        for i in 0..1000u32 {
            let _ = ewma.update(-2.0 - 0.001 * f64::from(i % 7));
        }
        ewma
    });
    sink.report("quality", "ewma_x1000", "", t);
}

/// The perf-regression gate `scripts/verify.sh` runs: threads = all
/// cores must (a) produce a bit-identical fit and (b) not be more than
/// 10% slower than threads = 1. On multi-core hosts parallel wins; on a
/// single-core host `resolve_workers(0) == 1` so both sides run the same
/// inline path and the tolerance absorbs timer noise. A genuine speedup
/// requirement would be unfalsifiable on one core, so the gate is framed
/// as "parallelism never costs more than 10%".
fn assert_parallel_speedup() -> ExitCode {
    let mut stream = workloads::synthetic_boxed(8, 5, 0.0, 11);
    let data = workloads::collect(&mut *stream, 8192);
    let config = |threads: usize| EmConfig {
        k: 5,
        max_iters: 5,
        tol: 0.0,
        seed: 13,
        threads,
        ..Default::default()
    };
    let sequential = fit_em(&data, &config(1)).expect("EM fits");
    let parallel = fit_em(&data, &config(0)).expect("EM fits");
    if sequential.log_likelihood.to_bits() != parallel.log_likelihood.to_bits() {
        eprintln!(
            "FAIL: threads=0 log-likelihood {} differs from threads=1 {}",
            parallel.log_likelihood, sequential.log_likelihood
        );
        return ExitCode::FAILURE;
    }
    let t1 = best_of(RUNS, || fit_em(&data, &config(1)).expect("EM fits"));
    let tn = best_of(RUNS, || fit_em(&data, &config(0)).expect("EM fits"));
    println!("em fit (n=8192 d=8 k=5, 5 iters): threads=1 {t1:.6} s, threads=all {tn:.6} s");
    println!("bit-identical log-likelihood: {}", sequential.log_likelihood);
    if tn > t1 * 1.10 {
        eprintln!("FAIL: threads=all is more than 10% slower than threads=1");
        return ExitCode::FAILURE;
    }
    println!("parallel speedup gate passed (threads=all within 10% of threads=1 or faster)");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (id, _) in GROUPS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--assert-parallel-speedup") {
        return assert_parallel_speedup();
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
