//! End-to-end integration: the full distributed pipeline — sites,
//! protocol, simulator, coordinator — on streams with known structure.

use cludistream_suite::cludistream::{
    Config, CoordinatorConfig, DriverConfig, RecordStream, RemoteSite, Simulation,
};
use cludistream_suite::gmm::{ChunkParams, Gaussian, Mixture};
use cludistream_suite::linalg::Vector;
use cludistream_rng::StdRng;

fn small_config() -> Config {
    Config {
        dim: 2,
        k: 2,
        chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
        seed: 7,
        ..Default::default()
    }
}

fn blob_stream(centers: &[(f64, f64)], seed: u64) -> RecordStream {
    let comps: Vec<Gaussian> = centers
        .iter()
        .map(|&(x, y)| Gaussian::spherical(Vector::from_slice(&[x, y]), 0.5).unwrap())
        .collect();
    let mix = Mixture::uniform(comps).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    Box::new(std::iter::repeat_with(move || mix.sample(&mut rng)))
}

#[test]
fn distributed_run_recovers_all_dense_regions() {
    let cfg = DriverConfig {
        site: small_config(),
        coordinator: CoordinatorConfig { max_groups: 6, ..Default::default() },
        ..Default::default()
    };
    let chunk = RemoteSite::new(cfg.site.clone()).unwrap().chunk_size() as u64;
    // Four sites, two observing blobs near (0,0)/(20,0), two near
    // (0,20)/(20,20): four distinct dense regions overall.
    let streams: Vec<RecordStream> = vec![
        blob_stream(&[(0.0, 0.0), (20.0, 0.0)], 1),
        blob_stream(&[(0.0, 0.0), (20.0, 0.0)], 2),
        blob_stream(&[(0.0, 20.0), (20.0, 20.0)], 3),
        blob_stream(&[(0.0, 20.0), (20.0, 20.0)], 4),
    ];
    let report = Simulation::star(4)
        .with_driver_config(cfg)
        .with_streams(streams)
        .with_updates_per_site(3 * chunk)
        .run()
        .expect("run succeeds");
    let global = report.global.expect("global model");

    for target in [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)] {
        let probe = Vector::from_slice(&[target.0, target.1]);
        let ll = global.log_pdf(&probe);
        assert!(
            ll > -8.0,
            "dense region {target:?} not represented: log pdf {ll}"
        );
    }
    // Sites observing the same regions should have been merged: fewer
    // groups than the 8 reported components.
    assert!(
        report.coordinator_groups <= 6,
        "groups {} not consolidated",
        report.coordinator_groups
    );
}

#[test]
fn stable_streams_transmit_one_synopsis_per_site() {
    // δ bounds the false-alarm probability per chunk; tighten it so the 30
    // chunk tests in this run are overwhelmingly unlikely to refit.
    let mut site = small_config();
    site.chunk.delta = 0.001;
    let cfg = DriverConfig { site, ..Default::default() };
    let chunk = RemoteSite::new(cfg.site.clone()).unwrap().chunk_size() as u64;
    let streams: Vec<RecordStream> =
        (0..5).map(|i| blob_stream(&[(0.0, 0.0)], 40 + i)).collect();
    let report = Simulation::star(5)
        .with_driver_config(cfg)
        .with_streams(streams)
        .with_updates_per_site(6 * chunk)
        .run()
        .expect("run succeeds");
    assert_eq!(
        report.comm.total_messages(),
        5,
        "stable sites should each send exactly their initial synopsis"
    );
    // All five identical distributions collapse at the coordinator.
    assert!(report.coordinator_groups <= 2, "groups {}", report.coordinator_groups);
}

#[test]
fn site_memory_is_stream_length_independent() {
    let cfg = DriverConfig { site: small_config(), ..Default::default() };
    let chunk = RemoteSite::new(cfg.site.clone()).unwrap().chunk_size() as u64;
    let short = Simulation::star(1)
        .with_driver_config(cfg.clone())
        .with_streams(vec![blob_stream(&[(0.0, 0.0)], 20)])
        .with_updates_per_site(2 * chunk)
        .run()
        .expect("run succeeds");
    let long = Simulation::star(1)
        .with_driver_config(cfg)
        .with_streams(vec![blob_stream(&[(0.0, 0.0)], 20)])
        .with_updates_per_site(8 * chunk)
        .run()
        .expect("run succeeds");
    assert_eq!(
        short.site_memory[0], long.site_memory[0],
        "Theorem 3: memory must not grow with a stable stream"
    );
}

#[test]
fn global_mixture_keeps_the_pooled_moments_of_every_record() {
    // Exactness where the paper is exact: EM's M-step, the f64 synopsis
    // codec and the coordinator's moment merge each preserve the record
    // mass, Σ x and Σ x xᵀ of what they summarise, so when every chunk is
    // clustered (no chunk is folded into an older model by a weight
    // update) and merges are not refined, the global mixture's pooled
    // mean Σ w_k μ_k and second moment Σ w_k (Σ_k + μ_k μ_kᵀ) equal the
    // pooled moments of every record the sites streamed — the centralised
    // answer.
    const SITES: usize = 4;
    const CHUNKS: usize = 2;
    let cfg = DriverConfig {
        site: small_config(),
        coordinator: CoordinatorConfig {
            max_groups: 2,
            refine_merges: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let chunk = RemoteSite::new(cfg.site.clone()).unwrap().chunk_size();
    // Every site sees a regime of its own per chunk, 40 apart, so each
    // chunk fails every test and is clustered, and each of the 16 fitted
    // components founds a group that consolidation to 2 must merge.
    let records: Vec<Vec<Vector>> = (0..SITES)
        .map(|site| {
            (0..CHUNKS)
                .flat_map(|c| {
                    let x = 40.0 * (site * CHUNKS + c) as f64;
                    let mut regime = blob_stream(&[(x, 0.0), (x + 8.0, 5.0)], 60 + site as u64);
                    (0..chunk).map(move |_| regime.next().unwrap())
                })
                .collect()
        })
        .collect();
    let streams: Vec<RecordStream> =
        records.iter().map(|r| Box::new(r.clone().into_iter()) as RecordStream).collect();
    let report = Simulation::star(SITES)
        .with_driver_config(cfg)
        .with_streams(streams)
        .with_updates_per_site((CHUNKS * chunk) as u64)
        .run()
        .expect("run succeeds");
    for stats in &report.site_stats {
        assert_eq!(stats.clustered, CHUNKS as u64, "every chunk must be clustered: {stats:?}");
        assert_eq!(stats.chunks, CHUNKS as u64);
    }
    assert_eq!(report.coordinator_groups, 2);
    let global = report.global.expect("global model");

    let d = 2;
    let all: Vec<&Vector> = records.iter().flatten().collect();
    let n = all.len() as f64;
    let (mut mean, mut second) = (vec![0.0; d], vec![0.0; d * d]);
    for x in &all {
        for i in 0..d {
            mean[i] += x[i] / n;
            for j in 0..d {
                second[i * d + j] += x[i] * x[j] / n;
            }
        }
    }
    let (mut g_mean, mut g_second) = (vec![0.0; d], vec![0.0; d * d]);
    let mut ridge = 0.0;
    for (c, &w) in global.components().iter().zip(global.weights()) {
        let (mu, cov) = (c.mean(), c.cov());
        ridge += w * c.ridge();
        for i in 0..d {
            g_mean[i] += w * mu[i];
            for j in 0..d {
                g_second[i * d + j] += w * (cov[(i, j)] + mu[i] * mu[j]);
            }
        }
    }
    // Tolerance: rounding, 1e-12 of the moment's scale (the two sides sum
    // the same records of magnitude ~10² in different orders; they differ
    // by ~1e-15 relative), plus on the diagonal the mass-weighted ridge any
    // global component reports. A ridge is regularisation, not slack: a
    // large one means a fold produced a covariance that is not positive
    // definite, which moment-preserving folds of positive definite inputs
    // never do. The sites' blobs are far from singular, so their fits need
    // no ridge.
    let scale = second.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    assert!(ridge <= 1e-9 * scale, "the global components report a ridge of {ridge}");
    for i in 0..d {
        let gap = (g_mean[i] - mean[i]).abs();
        let (g, r) = (g_mean[i], mean[i]);
        assert!(gap <= 1e-12 * scale.sqrt(), "mean[{i}]: global {g} vs records {r}");
        for j in 0..d {
            let tol = 1e-12 * scale + if i == j { ridge } else { 0.0 };
            let gap = (g_second[i * d + j] - second[i * d + j]).abs();
            assert!(
                gap <= tol,
                "second moment ({i},{j}): global {} vs records {} (gap {gap:e} > {tol:e})",
                g_second[i * d + j],
                second[i * d + j]
            );
        }
    }
}

#[test]
fn communication_is_event_driven_not_linear() {
    // Doubling the stream length of a stable stream must NOT double the
    // bytes (contrast with the periodic baseline, tested in
    // quality_vs_baselines.rs).
    let cfg = DriverConfig { site: small_config(), ..Default::default() };
    let chunk = RemoteSite::new(cfg.site.clone()).unwrap().chunk_size() as u64;
    let short = Simulation::star(1)
        .with_driver_config(cfg.clone())
        .with_streams(vec![blob_stream(&[(0.0, 0.0)], 30)])
        .with_updates_per_site(3 * chunk)
        .run()
        .expect("run succeeds");
    let long = Simulation::star(1)
        .with_driver_config(cfg)
        .with_streams(vec![blob_stream(&[(0.0, 0.0)], 30)])
        .with_updates_per_site(9 * chunk)
        .run()
        .expect("run succeeds");
    assert_eq!(
        short.comm.total_bytes(),
        long.comm.total_bytes(),
        "a stable stream's traffic must not grow with length"
    );
}
