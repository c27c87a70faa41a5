//! Integration of window semantics with the coordinator protocol, and the
//! aggregator tree against an equivalent flat deployment.

use cludistream_suite::cludistream::{
    Config, Coordinator, CoordinatorConfig, DriverConfig, Message, RecordStream, Simulation,
    SlidingWindowSite, StarReport, TreeTopology,
};
use cludistream_suite::datagen::{EvolvingStream, EvolvingStreamConfig};
use cludistream_suite::gmm::{ChunkParams, Gaussian};
use cludistream_suite::linalg::Vector;
use cludistream_rng::StdRng;

fn small_config() -> Config {
    Config {
        dim: 1,
        k: 1,
        chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
        seed: 13,
        ..Default::default()
    }
}

fn blob(center: f64, n: usize, seed: u64) -> Vec<Vector> {
    let g = Gaussian::spherical(Vector::from_slice(&[center]), 0.5).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| g.sample(&mut rng)).collect()
}

#[test]
fn sliding_window_deletions_keep_coordinator_in_sync() {
    let mut site = SlidingWindowSite::new(small_config(), 2).unwrap();
    let chunk = site.site().chunk_size();
    let mut coordinator = Coordinator::new(CoordinatorConfig::default()).unwrap();

    let forward = |site: &mut SlidingWindowSite, coordinator: &mut Coordinator| {
        for ev in site.drain_events() {
            coordinator.apply(&Message::from_site_event(0, ev)).unwrap();
        }
        for (model, count) in site.drain_deletions() {
            let _ = coordinator.apply(&Message::Delete { site: 0, model, count_delta: count });
        }
    };

    // Regime A fills the window, then regime B completely evicts it.
    for x in blob(0.0, 2 * chunk, 1) {
        site.push(x).unwrap();
    }
    forward(&mut site, &mut coordinator);
    let before = coordinator.global_mixture().unwrap();
    assert!(before.log_pdf(&Vector::from_slice(&[0.0])) > -5.0);

    for x in blob(80.0, 2 * chunk, 2) {
        site.push(x).unwrap();
    }
    forward(&mut site, &mut coordinator);

    // The coordinator's total weight reflects exactly the in-window chunks
    // (the sliding site synthesizes weight updates for fitting chunks so
    // additions and deletions balance).
    let window_mass = (2 * chunk) as f64;
    assert!(
        (coordinator.total_weight() - window_mass).abs() < 1.0,
        "coordinator weight {} vs window mass {window_mass}",
        coordinator.total_weight()
    );
    // Regime A must have been deleted.
    let after = coordinator.global_mixture().unwrap();
    assert!(
        after.log_pdf(&Vector::from_slice(&[0.0])) < -50.0,
        "expired regime still in the global model"
    );
    assert!(after.log_pdf(&Vector::from_slice(&[80.0])) > -5.0);
}

/// Runs `streams` (one per site, consumed whole) through the simulator,
/// flat or behind an aggregator tier.
fn run_sites(streams: Vec<Vec<Vector>>, tree: Option<TreeTopology>) -> StarReport {
    let updates = streams[0].len() as u64;
    let mut sim = Simulation::star(streams.len())
        .with_driver_config(DriverConfig { site: small_config(), ..Default::default() })
        .with_streams(
            streams.into_iter().map(|s| Box::new(s.into_iter()) as RecordStream).collect(),
        )
        .with_updates_per_site(updates);
    if let Some(tree) = tree {
        sim = sim.with_tree(tree);
    }
    sim.run().unwrap()
}

fn chunk_size() -> usize {
    cludistream_suite::cludistream::RemoteSite::new(small_config()).unwrap().chunk_size()
}

#[test]
fn tree_network_matches_flat_star_quality() {
    // The same 4 streams deployed (a) as a 2-layer tree and (b) flat into
    // one coordinator must both recover both dense regions.
    let streams = || -> Vec<Vec<Vector>> {
        (0..4)
            .map(|slot| blob(if slot < 2 { 0.0 } else { 60.0 }, 2 * chunk_size(), 20 + slot))
            .collect()
    };
    let tree = run_sites(streams(), Some(TreeTopology { levels: vec![2] }));
    let flat = run_sites(streams(), None);

    let tree_model = tree.global.expect("tree root model");
    let flat_model = flat.global.expect("flat model");
    for probe in [0.0, 60.0] {
        let p = Vector::from_slice(&[probe]);
        let (t, f) = (tree_model.log_pdf(&p), flat_model.log_pdf(&p));
        assert!(t > -6.0, "tree missed region {probe}: {t}");
        assert!(f > -6.0, "flat missed region {probe}: {f}");
        assert!((t - f).abs() < 4.0, "tree and flat diverge at {probe}: {t} vs {f}");
    }
}

#[test]
fn multilayer_traffic_is_event_driven() {
    // Two stable leaves behind one aggregator: the warm-up chunk reaches
    // the root; four further stable chunks per leaf add nothing at any
    // layer (the leaves' tests pass, so the aggregator never goes dirty).
    let chunk = chunk_size();
    let streams = |extra_chunks: usize| -> Vec<Vec<Vector>> {
        [(31, 33), (32, 34)]
            .into_iter()
            .map(|(warm_seed, stable_seed)| {
                let mut records = blob(0.0, chunk, warm_seed);
                records.extend(blob(0.0, extra_chunks * chunk, stable_seed));
                records
            })
            .collect()
    };
    let warm = run_sites(streams(0), Some(TreeTopology { levels: vec![1] }));
    let stable = run_sites(streams(4), Some(TreeTopology { levels: vec![1] }));
    assert!(warm.bytes_at_root > 0);
    assert_eq!(stable.bytes_at_root, warm.bytes_at_root, "stable leaves must stay silent");
    assert_eq!(stable.comm.total_bytes(), warm.comm.total_bytes(), "at every layer");
}

#[test]
fn change_detection_follows_generator_history() {
    use cludistream_suite::cludistream::ChangeDetector;
    let config = small_config();
    let mut detector =
        ChangeDetector::new(cludistream_suite::cludistream::RemoteSite::new(config).unwrap());
    let chunk = detector.site().chunk_size();
    let mut stream = EvolvingStream::new(EvolvingStreamConfig {
        dim: 1,
        k: 1,
        p_new: 1.0,
        regime_len: 2 * chunk,
        seed: 41,
        ..Default::default()
    });
    for _ in 0..(12 * chunk) {
        let x = stream.next().unwrap();
        detector.push(x).unwrap();
    }
    let truth = stream.history().len() - 1;
    let detected = detector.changes().len();
    // Mean-range (-10,10) regimes occasionally resemble each other; allow
    // one miss either way but demand substantial agreement.
    assert!(
        (detected as i64 - truth as i64).abs() <= 1,
        "detected {detected} changes vs {truth} true switches"
    );
}
