//! Figures 11-14: parameter sensitivity — ε (Fig. 11), δ (Fig. 12),
//! c_max (Fig. 13), and P_d (Fig. 14).

use crate::figs::common::{cycling_stream, paper_config, quality, RollingWindow};
use crate::table::{emit, Series};
use crate::timing::time_it;
use crate::workloads;
use crate::Scale;
use cludistream::{horizon_mixture, RemoteSite};
use cludistream_baselines::{ScalableEm, SemConfig};

const HORIZON: usize = 2000;

/// Feeds `updates` synthetic records to a site with the given config,
/// returning `(wall seconds, mean horizon quality, SEM quality)`.
fn sensitivity_run(
    mut config: cludistream::Config,
    updates: usize,
    seed: u64,
) -> (f64, f64, f64) {
    config.seed = seed;
    let mut site = RemoteSite::new(config).expect("valid config");
    let horizon_chunks = (HORIZON as u64).div_ceil(site.chunk_size() as u64).max(1);
    let mut sem =
        ScalableEm::new(SemConfig { k: 5, buffer_size: 1000, seed, ..Default::default() })
            .expect("valid SEM config");
    let mut stream = workloads::synthetic_stream(4, 5, 0.25, seed ^ 0xABCD);
    let mut window = RollingWindow::new(HORIZON);

    let mut clu_quality = Vec::new();
    let mut sem_quality = Vec::new();
    let mut records = Vec::with_capacity(updates);
    for _ in 0..updates {
        records.push(stream.next().expect("infinite stream"));
    }
    let (_, secs) = time_it(|| {
        for (i, x) in records.into_iter().enumerate() {
            window.push(x.clone());
            sem.push(x.clone()).expect("SEM processes");
            site.push(x).expect("site processes");
            if (i + 1) % HORIZON == 0 {
                let data = window.records();
                let q = quality(horizon_mixture(&site, horizon_chunks).ok().as_ref(), &data);
                if q.is_finite() {
                    clu_quality.push(q);
                }
                let qs = quality(sem.mixture(), &data);
                if qs.is_finite() {
                    sem_quality.push(qs);
                }
            }
        }
    });
    let mean = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    (secs, mean(&clu_quality), mean(&sem_quality))
}

/// Runs the Fig. 11 experiment: ε sensitivity.
pub(crate) fn run_fig11(scale: Scale) {
    let updates = scale.updates(30_000);
    let mut q_clu = Series::new("CluDistream quality");
    let mut q_sem = Series::new("SEM quality");
    let mut time = Series::new("CluDistream time (s)");
    for eps in [0.01, 0.02, 0.04, 0.06, 0.08, 0.10] {
        let mut config = paper_config();
        config.chunk.epsilon = eps;
        let (secs, clu, sem) = sensitivity_run(config, updates, 111);
        q_clu.push(eps, clu);
        q_sem.push(eps, sem);
        time.push(eps, secs);
    }
    emit("fig11a", "Fig 11(a): quality vs epsilon", "epsilon", &[q_clu, q_sem]);
    emit("fig11b", "Fig 11(b): processing time vs epsilon", "epsilon", &[time]);
}

/// Runs the Fig. 12 experiment: δ sensitivity.
pub(crate) fn run_fig12(scale: Scale) {
    let updates = scale.updates(30_000);
    let mut q_clu = Series::new("CluDistream quality");
    let mut q_sem = Series::new("SEM quality");
    let mut time = Series::new("CluDistream time (s)");
    for delta in [0.01, 0.02, 0.04, 0.07, 0.10] {
        let mut config = paper_config();
        config.chunk.delta = delta;
        let (secs, clu, sem) = sensitivity_run(config, updates, 121);
        q_clu.push(delta, clu);
        q_sem.push(delta, sem);
        time.push(delta, secs);
    }
    emit("fig12a", "Fig 12(a): quality vs delta", "delta", &[q_clu, q_sem]);
    emit("fig12b", "Fig 12(b): processing time vs delta", "delta", &[time]);
}

/// Runs the Fig. 13 experiment: c_max sensitivity on an alternating
/// (cycling-regime) stream where the multi-test strategy matters.
pub(crate) fn run_fig13(scale: Scale) {
    let updates = scale.updates(40_000);
    let mut time = Series::new("CluDistream time (s)");
    let mut em_runs = Series::new("EM clusterings");
    for c_max in 1..=7usize {
        let mut config = paper_config();
        config.c_max = c_max;
        config.seed = 131;
        let mut site = RemoteSite::new(config).expect("valid config");
        // Four recurring regimes, one chunk each: re-fitting the cycle's
        // oldest model requires testing 3 list models, so reuse kicks in at
        // c_max = 4 (the paper's reported optimum is 3-4); larger c_max
        // only adds test cost.
        let records: Vec<_> =
            cycling_stream(4, 5, 4, site.chunk_size(), 132).take(updates).collect();
        let (_, secs) = time_it(|| {
            for x in records {
                site.push(x).expect("site processes");
            }
        });
        time.push(c_max as f64, secs);
        em_runs.push(c_max as f64, site.stats().clustered as f64);
    }
    emit(
        "fig13",
        "Fig 13: processing time vs c_max (alternating regimes)",
        "c_max",
        &[time, em_runs],
    );
}

/// Runs the Fig. 14 experiment: time vs the new-distribution probability.
pub(crate) fn run_fig14(scale: Scale) {
    let updates = scale.updates(30_000);
    let mut time = Series::new("CluDistream time (s)");
    let mut em_runs = Series::new("EM clusterings");
    for p_d in [0.1, 0.25, 0.5, 0.75, 1.0] {
        let config = paper_config();
        let mut site = RemoteSite::new(config).expect("valid config");
        let mut stream = workloads::synthetic_boxed(4, 5, p_d, 141);
        let records = workloads::collect(&mut *stream, updates);
        let (_, secs) = time_it(|| {
            for x in records {
                site.push(x).expect("site processes");
            }
        });
        time.push(p_d, secs);
        em_runs.push(p_d, site.stats().clustered as f64);
    }
    emit("fig14", "Fig 14: processing time vs P_d", "P_d", &[time, em_runs]);
}
