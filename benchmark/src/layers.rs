//! Per-layer numbers that do not fall out of the replay's spans: kernels
//! timed in isolation on inputs captured from the workload, and the
//! fan-in frames replayed through an aggregator tier.

use crate::inputs::{FaninInput, FANIN_SITES};
use cludistream::coordinator::MergeRefiner;
use cludistream::prelude::*;
use cludistream::{AggregatorConfig, AggregatorEngine};
use cludistream_gmm::codec::{decode_mixture, encode_mixture};
use cludistream_gmm::{fit_em, CovarianceType, EmConfig, MixtureScratch};
use cludistream_linalg::{Cholesky, Vector};
use cludistream_obs::Registry;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock spent on one isolated kernel, roughly.
const KERNEL_BUDGET: Duration = Duration::from_millis(40);
/// Aggregator shards the fan-in frames are replayed through.
const SHARDS: usize = 10;

pub type Metrics = Vec<(&'static str, f64)>;

/// Mean nanoseconds of one call of `f`: one warm-up call sizes the loop to
/// about [`KERNEL_BUDGET`].
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    f();
    let once = started.elapsed().max(Duration::from_nanos(20));
    let calls = (KERNEL_BUDGET.as_nanos() / once.as_nanos()).clamp(3, 1_000_000) as u32;
    let started = Instant::now();
    for _ in 0..calls {
        f();
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// `gmm.*`, `linalg.*`, `par.*` and `optimize.*`: the kernels under the
/// chunk test, EM, scoring, the synopsis codec and the merge refiner.
///
/// `chunk` is one chunk of the workload's records, `em_config` the exact
/// EM configuration its site clustered it with, `mixture` a model of the
/// workload (the chunk is scored against it), `batch` a scoring batch and
/// `large` at least 16 k records for the E-step scaling probe.
pub fn kernels(
    chunk: &[Vector],
    em_config: &EmConfig,
    mixture: &Mixture,
    batch: &Batch,
    large: &[Vector],
    out: &mut Metrics,
) -> Result<(), String> {
    let cov = CovarianceType::Full;
    let d = mixture.dim();
    let chunk_batch = Batch::from_records(chunk);
    let mut scratch = MixtureScratch::default();
    let ns = ns_per_call(|| {
        black_box(mixture.avg_log_likelihood_batch(black_box(&chunk_batch), &mut scratch));
    });
    out.push(("gmm.likelihood.ns_per_record", ns / chunk.len() as f64));

    let fit = fit_em(chunk, em_config).map_err(|e| format!("fit_em failed: {e}"))?;
    let ns = ns_per_call(|| {
        black_box(fit_em(black_box(chunk), em_config).expect("fit_em succeeded once"));
    });
    out.push(("gmm.em.fit_ms_per_chunk", ns / 1e6));
    out.push(("gmm.em.us_per_iteration", ns / 1e3 / fit.iterations.max(1) as f64));

    let ns = ns_per_call(|| {
        black_box(score(mixture, black_box(batch), 1).expect("dimensions agree"));
    });
    out.push(("gmm.score.ns_per_record", ns / batch.len() as f64));

    let encoded = encode_mixture(&fit.mixture, cov);
    out.push(("gmm.codec.encode_ns", ns_per_call(|| {
        black_box(encode_mixture(black_box(&fit.mixture), cov));
    })));
    out.push(("gmm.codec.decode_ns", ns_per_call(|| {
        black_box(decode_mixture(&mut encoded.reader()).expect("own encoding decodes"));
    })));
    out.push(("gmm.codec.bytes_per_synopsis", encoded.len() as f64));

    let component = &mixture.components()[0];
    let chol = component.chol();
    let block = cludistream_gmm::BLOCK;
    let rhs: Vec<f64> = chunk_batch.rows(0, block).to_vec();
    let mut work = rhs.clone();
    let ns = ns_per_call(|| {
        work.copy_from_slice(&rhs);
        chol.solve_lower_batch(black_box(&mut work), block);
    });
    out.push(("linalg.solve_lower_batch_ns_per_record", ns / block as f64));
    assert_eq!(rhs.len(), d * block, "a block of rows is d × BLOCK values");
    out.push(("linalg.cholesky_ns", ns_per_call(|| {
        black_box(Cholesky::new(black_box(component.cov())).expect("component covariance is SPD"));
    })));

    // E-step scaling: the same 16 k-record fit on one thread and on all.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fit_ms = |threads: usize| -> Result<f64, String> {
        let config = EmConfig { threads, ..em_config.clone() };
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let started = Instant::now();
            black_box(fit_em(black_box(large), &config).map_err(|e| e.to_string())?);
            best = best.min(started.elapsed().as_secs_f64() * 1e3);
        }
        Ok(best)
    };
    let t1 = fit_ms(1)?;
    out.push(("par.estep_fit_ms_t1", t1));
    out.push(("par.estep_speedup", t1 / fit_ms(threads)?));

    // Merge refinement at the CLI's settings, over every pair of the
    // mixture's components.
    let refiner = MergeRefiner { samples: 32, max_evals: 100, seed: 9 };
    let comps = mixture.components();
    let weights = mixture.weights();
    let (mut merges, mut evals) = (0u64, 0u64);
    let started = Instant::now();
    for i in 0..comps.len() {
        for j in (i + 1)..comps.len() {
            let (_, _, n) = refiner.refine_detailed(weights[i], &comps[i], weights[j], &comps[j]);
            merges += 1;
            evals += n as u64;
        }
    }
    if merges > 0 {
        let us = started.elapsed().as_secs_f64() * 1e6;
        out.push(("optimize.refine_us_per_merge", us / merges as f64));
        out.push(("optimize.evals_per_merge", evals as f64 / merges as f64));
    }
    Ok(())
}

/// `serving.*` numbers of the snapshot codec and handle, on the run's final
/// snapshot.
pub fn serving(handle: &SnapshotHandle, out: &mut Metrics) -> Result<(), String> {
    let snapshot = handle.load().ok_or("no snapshot to serve")?;
    let encoded = snapshot.encode();
    out.push(("serving.snapshot_bytes", encoded.len() as f64));
    out.push(("serving.encode_us", ns_per_call(|| {
        black_box(snapshot.encode());
    }) / 1e3));
    out.push(("serving.decode_us", ns_per_call(|| {
        black_box(ModelSnapshot::decode(&mut encoded.reader()).expect("own encoding decodes"));
    }) / 1e3));
    out.push(("serving.load_ns", ns_per_call(|| {
        black_box(handle.load());
    })));
    Ok(())
}

/// `score_batch_us_p50` and `serving.score_batch_us_p99` of a series of
/// `score_snapshot` times.
pub fn score_percentiles(score_us: &[f64], out: &mut Metrics) {
    let sorted = crate::stats::sorted(score_us);
    out.push(("score_batch_us_p50", crate::stats::quantile(&sorted, 0.5)));
    out.push(("serving.score_batch_us_p99", crate::stats::quantile(&sorted, 0.99)));
}

/// `aggregator.*`: the fan-in frames through [`SHARDS`]
/// `AggregatorEngine::on_wire` shards, each flushed into a root after every
/// round of the script; star bytes at the root over tree bytes.
pub fn aggregator(input: &FaninInput, out: &mut Metrics) -> Result<(), String> {
    let cov = CovarianceType::Full;
    let per_shard = FANIN_SITES / SHARDS;
    let mut shards: Vec<AggregatorEngine> = (0..SHARDS)
        .map(|j| {
            AggregatorEngine::new(
                AggregatorConfig {
                    index: j as u32,
                    child_base: (j * per_shard) as u32,
                    children: per_shard,
                    ..AggregatorConfig::default()
                },
                Obs::noop(),
            )
            .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut root = Coordinator::new(CoordinatorConfig::default()).map_err(|e| e.to_string())?;
    let (mut apply_ns, mut flush_ns, mut flushes) = (0u128, 0u128, 0u64);
    let (mut star_bytes, mut tree_bytes) = (0u64, 0u64);
    for (round, frames) in input.frames.chunks(FANIN_SITES).enumerate() {
        for (i, frame) in frames.iter().enumerate() {
            let site = input.sites[round * FANIN_SITES + i] as usize;
            star_bytes += frame.len() as u64;
            let started = Instant::now();
            black_box(shards[site / per_shard].on_wire(frame));
            apply_ns += started.elapsed().as_nanos();
        }
        for shard in &mut shards {
            let started = Instant::now();
            let update = shard.flush();
            flush_ns += started.elapsed().as_nanos();
            flushes += 1;
            if let Some(message) = update {
                tree_bytes += message.wire_bytes(cov) as u64;
                root.apply(&message).map_err(|e| format!("root apply failed: {e}"))?;
            }
        }
    }
    let errors: u64 = shards.iter().map(AggregatorEngine::decode_errors).sum();
    if errors > 0 || root.group_count() == 0 {
        return Err(format!("aggregator replay: {errors} decode errors, {} root groups", root.group_count()));
    }
    out.push(("aggregator.apply_us_per_frame", apply_ns as f64 / 1e3 / input.frames.len() as f64));
    out.push(("aggregator.flush_us", flush_ns as f64 / 1e3 / flushes as f64));
    out.push(("aggregator.root_bytes_ratio", star_bytes as f64 / tree_bytes.max(1) as f64));
    Ok(())
}

/// An observer with everything on: registry, journal (into a sink) and
/// span tracing — what `obs.registry_overhead_pct` runs a recipe under.
pub fn full_observer() -> Obs {
    let registry = Registry::with_journal(Box::new(std::io::sink()));
    registry.enable_tracing();
    Obs::from_registry(Arc::new(registry))
}
