//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. multi-test on/off (c_max = 1 vs 4) on a recurring-regime stream;
//! 2. Nelder-Mead merge refinement vs plain moment-preserving merges at
//!    the coordinator;
//! 3. full vs diagonal covariances (time/quality/synopsis trade-off);
//! 4. Theorem 4's average-cost model `(P_d + λ(1−P_d))·C` vs measurement.

use crate::figs::common::{cycling_stream, paper_config, quality, RollingWindow};
use crate::table::{emit, Series};
use crate::timing::{best_of, time_it};
use crate::workloads;
use crate::Scale;
use cludistream::coordinator::MergeRefiner;
use cludistream::{horizon_mixture, Coordinator, CoordinatorConfig, Message, RemoteSite};
use cludistream_gmm::{fit_em_recorded, Columns, CovarianceType, EmConfig, MixtureScratch};
use cludistream_obs::NopRecorder;

/// Runs every ablation.
pub(crate) fn run(scale: Scale) {
    multitest(scale);
    merge_refinement(scale);
    covariance(scale);
    theorem4(scale);
}

/// Ablation 1: multi-test on/off.
fn multitest(scale: Scale) {
    let updates = scale.updates(30_000);
    let mut rows = Vec::new();
    for (label, c_max) in [("multi-test off (c_max=1)", 1usize), ("multi-test on (c_max=4)", 4)] {
        let mut config = paper_config();
        config.c_max = c_max;
        config.seed = 201;
        let mut site = RemoteSite::new(config).expect("valid config");
        let records: Vec<_> =
            cycling_stream(4, 5, 4, 2 * site.chunk_size(), 202).take(updates).collect();
        let (_, secs) = time_it(|| {
            for x in records {
                site.push(x).expect("site processes");
            }
        });
        let s = site.stats();
        println!(
            "[ablation/multitest] {label}: {secs:.2}s, {} EM runs, {} model switches, \
             {} models in list",
            s.clustered,
            s.switched,
            site.models().len()
        );
        let mut series = Series::new(label);
        series.push(c_max as f64, s.clustered as f64);
        rows.push(series);
    }
    emit("ablation_multitest", "Ablation: EM clusterings with/without multi-test", "c_max", &rows);
}

/// Ablation 2: merge refinement on/off at the coordinator.
fn merge_refinement(scale: Scale) {
    let updates_per_site = scale.updates(2);
    let mut rows = Vec::new();
    for (label, refine) in [("moment merge", false), ("simplex-refined merge", true)] {
        let mut coordinator = Coordinator::new(CoordinatorConfig {
            max_groups: 5,
            refine_merges: refine,
            refiner: MergeRefiner { samples: 256, max_evals: 600, seed: 211 },
            ..Default::default()
        }).unwrap();
        let r = 10;
        let config = paper_config();
        let mut sites: Vec<RemoteSite> = (0..r)
            .map(|i| {
                let mut c = config.clone();
                c.seed = 300 + i as u64;
                RemoteSite::new(c).expect("valid config")
            })
            .collect();
        let mut streams: Vec<_> =
            (0..r).map(|i| workloads::synthetic_boxed(4, 5, 0.1, 400 + i as u64)).collect();
        let mut window = RollingWindow::new(4000);
        let chunk = sites[0].chunk_size();
        for _round in 0..updates_per_site.max(2) {
            for (i, site) in sites.iter_mut().enumerate() {
                for _ in 0..chunk {
                    let x = streams[i].next().expect("infinite stream");
                    window.push(x.clone());
                    site.push(x).expect("site processes");
                }
                for ev in site.drain_events() {
                    coordinator
                        .apply(&Message::from_site_event(i as u32, ev))
                        .expect("valid update");
                }
            }
        }
        let q = quality(coordinator.global_mixture().ok().as_ref(), &window.records());
        println!(
            "[ablation/merge] {label}: global avg log likelihood = {q:.4} over {} groups",
            coordinator.group_count()
        );
        let mut s = Series::new(label);
        s.push(0.0, q);
        rows.push(s);
    }
    emit("ablation_merge", "Ablation: coordinator quality by merge strategy", "-", &rows);
}

/// Ablation 3: full vs diagonal covariance.
fn covariance(scale: Scale) {
    let updates = scale.updates(20_000);
    let mut rows = Vec::new();
    for (label, cov) in
        [("full covariance", CovarianceType::Full), ("diagonal covariance", CovarianceType::Diagonal)]
    {
        let mut config = paper_config();
        config.covariance = cov;
        config.seed = 221;
        let mut site = RemoteSite::new(config).expect("valid config");
        let horizon_chunks = 2;
        let mut stream = workloads::synthetic_boxed(4, 5, 0.25, 222);
        let records = workloads::collect(&mut *stream, updates);
        let mut window = RollingWindow::new(2000);
        let (_, secs) = time_it(|| {
            for x in records {
                window.push(x.clone());
                site.push(x).expect("site processes");
            }
        });
        let q = quality(horizon_mixture(&site, horizon_chunks).ok().as_ref(), &window.records());
        println!(
            "[ablation/covariance] {label}: {secs:.2}s, quality {q:.4}, memory {} bytes",
            site.memory_bytes()
        );
        let mut s = Series::new(label);
        s.push(0.0, q);
        s.push(1.0, secs);
        s.push(2.0, site.memory_bytes() as f64);
        rows.push(s);
    }
    emit(
        "ablation_covariance",
        "Ablation: full vs diagonal covariance (rows: quality, seconds, bytes)",
        "metric",
        &rows,
    );
}

/// Ablation 4: validate Theorem 4's cost model. Measures C (clustering a
/// chunk) and λC (testing a chunk), then compares the predicted average
/// cost `(P_d + λ(1−P_d))·C` against the measured per-chunk cost at
/// several P_d values.
fn theorem4(scale: Scale) {
    let config = paper_config();
    let site = RemoteSite::new(config.clone()).expect("valid config");
    let m = site.chunk_size();

    // Measure C and λ on a representative chunk, with the calls a site
    // makes on its chunk buffer.
    let mut stream = workloads::synthetic_boxed(4, 5, 0.0, 231);
    let chunk = Columns::from_records(&workloads::collect(&mut *stream, m));
    let em_cfg = EmConfig { k: config.k, seed: 232, ..Default::default() };
    let fit = fit_em_recorded(&chunk, &em_cfg, &NopRecorder).expect("EM fits");
    let c_cost = best_of(3, || {
        let _ = fit_em_recorded(&chunk, &em_cfg, &NopRecorder);
    });
    let mut scratch = MixtureScratch::default();
    let test_cost = best_of(3, || {
        let floor = f64::NEG_INFINITY;
        let _ = fit.mixture.avg_log_likelihood_unless_below(&chunk, &mut scratch, floor);
    });
    let lambda = test_cost / c_cost.max(1e-12);
    println!(
        "[ablation/theorem4] C = {c_cost:.4}s per chunk, test = {test_cost:.5}s, λ = {lambda:.4}"
    );

    let updates = scale.updates(20_000);
    let mut predicted = Series::new("predicted s/chunk (Thm 4)");
    let mut measured = Series::new("measured s/chunk");
    for p_d in [0.1, 0.5, 1.0] {
        let mut site = RemoteSite::new(config.clone()).expect("valid config");
        let mut stream = workloads::synthetic_boxed(4, 5, p_d, 233);
        let records = workloads::collect(&mut *stream, updates);
        let (_, secs) = time_it(|| {
            for x in records {
                let _ = site.push(x);
            }
        });
        let chunks = site.stats().chunks.max(1) as f64;
        // Effective new-distribution rate actually observed (regime changes
        // only occur at 2000-record boundaries, so the per-chunk rate
        // differs from the raw P_d).
        let observed_pd = site.stats().clustered as f64 / chunks;
        let pred = cludistream_gmm::chunk::average_processing_cost(c_cost, lambda, observed_pd);
        predicted.push(p_d, pred);
        measured.push(p_d, secs / chunks);
        println!(
            "[ablation/theorem4] P_d={p_d}: observed per-chunk cluster rate {observed_pd:.3}, \
             predicted {pred:.4}s, measured {:.4}s",
            secs / chunks
        );
    }
    emit("ablation_theorem4", "Ablation: Theorem 4 cost model", "P_d", &[predicted, measured]);
}
