//! Figures 5-7: clustering quality (average log likelihood, Definition 1).
//!
//! - Fig. 5: quality in a *horizon* at successive time points, CluDistream
//!   vs SEM on a remote site. CluDistream keeps one model per
//!   distribution; SEM squeezes every regime into one model.
//! - Fig. 6: quality in a *landmark window*: CluDistream vs SEM vs
//!   sampling-based EM.
//! - Fig. 7: quality at the *coordinator* vs a centralized SEM fed all
//!   updates, on (a) NFD-like and (b) synthetic streams.

use crate::figs::common::{paper_config, paper_config_dim, quality, RollingWindow};
use crate::table::{emit, Series};
use crate::workloads;
use crate::Scale;
use cludistream::{horizon_mixture, landmark_mixture, Coordinator, CoordinatorConfig, Message, RemoteSite};
use cludistream_baselines::{SamplingEm, SamplingEmConfig, ScalableEm, SemConfig};
use cludistream_baselines::ReservoirSampler;
use cludistream_linalg::Vector;
use cludistream_rng::StdRng;

const HORIZON: usize = 2000;

/// Runs the Fig. 5 experiment: horizon quality over time.
pub(crate) fn run_fig5(scale: Scale) {
    let checkpoints = scale.updates(20);
    let config = paper_config();
    let mut site = RemoteSite::new(config.clone()).expect("valid config");
    let horizon_chunks = (HORIZON as u64).div_ceil(site.chunk_size() as u64).max(1);
    let mut sem = ScalableEm::new(SemConfig { k: config.k, buffer_size: 1000, seed: 5, ..Default::default() })
        .expect("valid SEM config");
    let mut stream = workloads::synthetic_stream(4, 5, 0.25, 53);
    let mut window = RollingWindow::new(HORIZON);

    let mut clu = Series::new("CluDistream");
    let mut sem_series = Series::new("SEM");
    for t in 1..=checkpoints {
        for _ in 0..HORIZON {
            let x = stream.next().expect("infinite stream");
            window.push(x.clone());
            sem.push(x.clone()).expect("SEM processes");
            site.push(x).expect("site processes");
        }
        let data = window.records();
        let clu_model = horizon_mixture(&site, horizon_chunks).ok();
        clu.push(t as f64, quality(clu_model.as_ref(), &data));
        sem_series.push(t as f64, quality(sem.mixture(), &data));
    }
    summarize_gap("fig5", &clu, &sem_series);
    emit("fig5", "Fig 5: horizon quality over time (synthetic)", "time point", &[clu, sem_series]);
}

/// Runs the Fig. 6 experiment: landmark-window quality over time.
pub(crate) fn run_fig6(scale: Scale) {
    let checkpoints = scale.updates(20);
    let config = paper_config();
    let mut site = RemoteSite::new(config.clone()).expect("valid config");
    let mut sem = ScalableEm::new(SemConfig { k: config.k, buffer_size: 1000, seed: 6, ..Default::default() })
        .expect("valid SEM config");
    let mut sampler = SamplingEm::new(SamplingEmConfig {
        k: config.k,
        sample_size: 1000,
        refit_interval: 2000,
        seed: 6,
        ..Default::default()
    })
    .expect("valid sampling config");
    let mut stream = workloads::synthetic_stream(4, 5, 0.25, 63);
    // Landmark evaluation set: a uniform reservoir over everything seen.
    let mut eval = ReservoirSampler::new(2000);
    let mut rng = StdRng::seed_from_u64(62);

    let mut clu = Series::new("CluDistream");
    let mut sem_series = Series::new("SEM");
    let mut samp = Series::new("sampling EM");
    for t in 1..=checkpoints {
        for _ in 0..HORIZON {
            let x = stream.next().expect("infinite stream");
            eval.offer(x.clone(), &mut rng);
            sem.push(x.clone()).expect("SEM processes");
            sampler.push(x.clone()).expect("sampler processes");
            site.push(x).expect("site processes");
        }
        let data: Vec<Vector> = eval.items().to_vec();
        clu.push(t as f64, quality(landmark_mixture(&site).ok().as_ref(), &data));
        sem_series.push(t as f64, quality(sem.mixture(), &data));
        samp.push(t as f64, quality(sampler.mixture(), &data));
    }
    summarize_gap("fig6", &clu, &sem_series);
    emit(
        "fig6",
        "Fig 6: landmark-window quality over time (synthetic)",
        "time point",
        &[clu, sem_series, samp],
    );
}

/// Runs the Fig. 7 experiment: coordinator quality vs centralized SEM.
pub(crate) fn run_fig7(scale: Scale) {
    // (a) NFD-like.
    let norm = workloads::nfd_like_normalizer(71);
    let nfd_streams: Vec<Box<dyn Iterator<Item = Vector> + Send>> =
        (0..20).map(|i| workloads::nfd_like_boxed(&norm, 0.05, 730 + i as u64)).collect();
    let series_a = coordinator_run(nfd_streams, workloads::NFD_DIM, scale.updates(8), 72);
    emit("fig7a", "Fig 7(a): coordinator quality, NFD-like (r=20)", "time point", &series_a);

    // (b) synthetic.
    let syn_streams: Vec<Box<dyn Iterator<Item = Vector> + Send>> =
        (0..20).map(|i| workloads::synthetic_boxed(4, 5, 0.1, 830 + i as u64)).collect();
    let series_b = coordinator_run(syn_streams, 4, scale.updates(8), 73);
    summarize_gap("fig7b", &series_b[0], &series_b[1]);
    emit("fig7b", "Fig 7(b): coordinator quality, synthetic (r=20)", "time point", &series_b);
}

/// Shared machinery for Fig. 7: r sites feed a coordinator; a centralized
/// SEM sees every record; both are scored on a pooled recent-record
/// window at each checkpoint.
fn coordinator_run(
    mut streams: Vec<Box<dyn Iterator<Item = Vector> + Send>>,
    dim: usize,
    checkpoints: usize,
    seed: u64,
) -> Vec<Series> {
    let r = streams.len();
    let config = paper_config_dim(dim);
    let mut sites: Vec<RemoteSite> =
        (0..r)
            .map(|i| {
                let mut c = config.clone();
                c.seed = c.seed.wrapping_add(i as u64 * 7919);
                RemoteSite::new(c).expect("valid config")
            })
            .collect();
    let mut coordinator = Coordinator::new(CoordinatorConfig {
        max_groups: 8,
        refine_merges: true,
        ..Default::default()
    }).unwrap();
    let mut central_sem = ScalableEm::new(SemConfig {
        k: config.k,
        buffer_size: 2000,
        seed,
        ..Default::default()
    })
    .expect("valid SEM config");
    let mut window = RollingWindow::new(4000);

    // Per checkpoint, feed one chunk's worth of records to every site so
    // the coordinator sees fresh synopses regularly.
    let batch = sites[0].chunk_size();
    let mut clu = Series::new("CluDistream coordinator");
    let mut sem = Series::new("centralized SEM");
    for t in 1..=checkpoints {
        for (i, site) in sites.iter_mut().enumerate() {
            for _ in 0..batch {
                let x = streams[i].next().expect("infinite stream");
                window.push(x.clone());
                central_sem.push(x.clone()).expect("SEM processes");
                site.push(x).expect("site processes");
            }
            for ev in site.drain_events() {
                coordinator
                    .apply(&Message::from_site_event(i as u32, ev))
                    .expect("valid update");
            }
        }
        let data = window.records();
        clu.push(t as f64, quality(coordinator.global_mixture().ok().as_ref(), &data));
        sem.push(t as f64, quality(central_sem.mixture(), &data));
    }
    vec![clu, sem]
}

/// Prints the average quality gap between two series (positive = first
/// wins), ignoring NaN gaps.
fn summarize_gap(id: &str, a: &Series, b: &Series) {
    let diffs: Vec<f64> = a
        .points
        .iter()
        .zip(&b.points)
        .filter_map(|(&(_, ya), &(_, yb))| {
            (ya.is_finite() && yb.is_finite()).then_some(ya - yb)
        })
        .collect();
    if diffs.is_empty() {
        return;
    }
    let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
    let wins = diffs.iter().filter(|&&d| d > 0.0).count();
    println!(
        "[{id}] {} beats {} at {}/{} checkpoints; mean avg-log-likelihood gap = {mean:+.4}",
        a.name,
        b.name,
        wins,
        diffs.len()
    );
}
