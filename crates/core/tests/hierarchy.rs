//! Hierarchical-aggregation integration tests: an aggregator tier between
//! the sites and the root must not change *what* the root learns — only
//! how many messages and rows reach it.

use cludistream::{
    CoordinatorConfig, DeliveryMode, DriverConfig, FaultPlan, NodeId, RecordStream, RunRecipe,
    Simulation, SimnetTransport, StarReport, Transport, TreeTopology, WindowSpec,
};
use cludistream::runtime::TcpTransport;
use cludistream::{CludiError, Config};
use cludistream_gmm::{ChunkParams, Gaussian};
use cludistream_linalg::Vector;
use cludistream_obs::{Obs, Registry};
use cludistream_rng::StdRng;
use cludistream_simnet::MICROS_PER_SEC;
use std::sync::Arc;

fn small_config() -> DriverConfig {
    DriverConfig {
        site: Config {
            dim: 1,
            k: 1,
            chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
            seed: 41,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn stable_stream(center: f64, seed: u64) -> RecordStream {
    let g = Gaussian::spherical(Vector::from_slice(&[center]), 0.5).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    Box::new(std::iter::repeat_with(move || g.sample(&mut rng)))
}

fn chunk_of(cfg: &DriverConfig) -> u64 {
    cludistream::remote::RemoteSite::new(cfg.site.clone()).unwrap().chunk_size() as u64
}

/// Eight sites in two well-separated regions (four around 0, four around
/// 80), so each aggregator of a two-level tree serves one region.
fn region_streams() -> Vec<RecordStream> {
    (0..8u64)
        .map(|i| stable_stream(if i < 4 { 0.0 } else { 80.0 }, 100 + i))
        .collect()
}

fn run_regions(tree: Option<TreeTopology>) -> StarReport {
    let cfg = small_config();
    let chunk = chunk_of(&cfg);
    let mut sim = Simulation::star(8)
        .with_driver_config(cfg)
        .with_streams(region_streams())
        .with_updates_per_site(3 * chunk);
    if let Some(tree) = tree {
        sim = sim.with_tree(tree);
    }
    sim.run().unwrap()
}

/// Sorted (mean, weight) pairs of the global mixture, for order-free
/// comparison across topologies.
fn groups_of(report: &StarReport) -> Vec<(f64, f64)> {
    let global = report.global.as_ref().expect("global mixture");
    let mut pairs: Vec<(f64, f64)> = global
        .components()
        .iter()
        .zip(global.weights())
        .map(|(g, &w)| (g.mean().as_slice()[0], w))
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    pairs
}

#[test]
fn two_level_tree_matches_star() {
    let star = run_regions(None);
    let tree = run_regions(Some(TreeTopology { levels: vec![2] }));

    // Same global structure: group count and per-group weight mass. The
    // two regions are far apart, so both topologies must resolve exactly
    // two groups with (near-)equal mass; the merge path differs (sites
    // merged at the aggregator first), so means agree to within the
    // region scale and weights to within a per-message rounding of the
    // forwarded counts (aggregators round their total weight to u64).
    assert_eq!(tree.coordinator_groups, star.coordinator_groups, "group count must match star");
    let sg = groups_of(&star);
    let tg = groups_of(&tree);
    assert_eq!(sg.len(), tg.len());
    for ((sm, sw), (tm, tw)) in sg.iter().zip(&tg) {
        assert!((sm - tm).abs() < 1.0, "group mean drifted: star {sm} vs tree {tm}");
        assert!((sw - tw).abs() < 1e-6, "group mass drifted: star {sw} vs tree {tw}");
    }

    // The point of the tier: the root's ingress drops from one message
    // per site synopsis to one reduced update per aggregator flush.
    assert!(
        tree.bytes_at_root < star.bytes_at_root,
        "tree root ingress {} must be below star {}",
        tree.bytes_at_root,
        star.bytes_at_root
    );
    assert!(tree.delivery.balanced());
    // Sites are untouched by the tier.
    assert_eq!(tree.site_models, star.site_models);
    assert_eq!(
        tree.site_stats.iter().map(|s| s.records).sum::<u64>(),
        star.site_stats.iter().map(|s| s.records).sum::<u64>(),
    );
}

#[test]
fn three_level_tree_matches_star() {
    let star = run_regions(None);
    let tree = run_regions(Some(TreeTopology { levels: vec![4, 2] }));
    assert_eq!(tree.coordinator_groups, star.coordinator_groups);
    let sg = groups_of(&star);
    let tg = groups_of(&tree);
    for ((sm, sw), (tm, tw)) in sg.iter().zip(&tg) {
        assert!((sm - tm).abs() < 1.0);
        assert!((sw - tw).abs() < 1e-6);
    }
    assert!(tree.bytes_at_root < star.bytes_at_root);
    assert!(tree.delivery.balanced());
}

#[test]
fn tree_runs_under_reliable_delivery() {
    let registry = Arc::new(Registry::new());
    let mut cfg = small_config();
    cfg.obs = Obs::from_registry(Arc::clone(&registry));
    let chunk = chunk_of(&cfg);
    // Node ids: sites 0..8, aggregators 8 and 9, root 10. Only the link
    // aggregator 8 → root is cut (for the first second), so every
    // retransmission of the run is an aggregator's.
    let lossy = FaultPlan::seeded(3).with_partition(NodeId(8), NodeId(10), 0, MICROS_PER_SEC);
    let report = Simulation::star(8)
        .with_driver_config(cfg)
        .with_streams(region_streams())
        .with_updates_per_site(3 * chunk)
        .with_tree(TreeTopology { levels: vec![2] })
        .with_transport(Box::new(SimnetTransport::new().with_faults(lossy)))
        .with_reliability(DeliveryMode::Reliable)
        .run()
        .unwrap();
    assert!(report.delivery.reliable);
    assert_eq!(report.coordinator_groups, 2);
    // Both hops ACK: sites→aggregators and aggregators→root.
    assert!(report.delivery.ack_messages > 0);
    assert!(report.delivery.balanced());
    // The aggregator's upward channel is the site's: its go-back-N
    // retransmits are counted (and journaled) the same way.
    assert!(report.delivery.retransmitted_messages > 0);
    assert_eq!(registry.counter_value("net.retransmits"), report.delivery.retransmitted_messages);
}

#[test]
fn builder_rejects_bad_trees() {
    let make = || {
        Simulation::star(2)
            .with_driver_config(small_config())
            .with_streams(vec![stable_stream(0.0, 1), stable_stream(0.0, 2)])
            .with_updates_per_site(10)
    };
    // Wider than the site tier below it.
    assert!(matches!(
        make().with_tree(TreeTopology { levels: vec![3] }).run(),
        Err(CludiError::InvalidConfig { name: "tree.levels", .. })
    ));
    // A widening level above a narrower one.
    assert!(matches!(
        make().with_tree(TreeTopology { levels: vec![1, 2] }).run(),
        Err(CludiError::InvalidConfig { name: "tree.levels", .. })
    ));
    // Empty and zero-width levels.
    assert!(matches!(
        make().with_tree(TreeTopology { levels: vec![] }).run(),
        Err(CludiError::InvalidConfig { name: "tree.levels", .. })
    ));
    assert!(matches!(
        make().with_tree(TreeTopology { levels: vec![0] }).run(),
        Err(CludiError::InvalidConfig { name: "tree.levels", .. })
    ));
    // A recipe handed straight to the transport is checked the same way:
    // an empty tree is not the star.
    let recipe = RunRecipe {
        sites: 2,
        window: WindowSpec::Landmark,
        config: small_config(),
        delivery: None,
        streams: vec![stable_stream(0.0, 1), stable_stream(0.0, 2)],
        updates_per_site: 10,
        snapshots: None,
        tree: Some(TreeTopology { levels: vec![] }),
    };
    assert!(matches!(
        Transport::run(Box::new(SimnetTransport::new()), recipe),
        Err(CludiError::InvalidConfig { name: "tree.levels", .. })
    ));
}

#[test]
fn tcp_transport_rejects_tree_recipes() {
    let err = Simulation::star(1)
        .with_driver_config(small_config())
        .with_streams(vec![stable_stream(0.0, 1)])
        .with_updates_per_site(10)
        .with_tree(TreeTopology { levels: vec![1] })
        .with_transport(Box::new(TcpTransport::new()))
        .run()
        .unwrap_err();
    assert!(matches!(err, CludiError::Build(_)));
}

/// The compaction property: bounding the coordinator's merge log
/// (`merge_log_cap`) must not change what a go-back-N crash resync
/// reconstructs — resync replays *synopses* from the retained watermark,
/// never the compacted history, so a capped run recovers the same global
/// model as an uncapped one.
#[test]
fn compacted_merge_log_survives_crash_resync() {
    let run = |cap: Option<usize>| {
        let mut cfg = small_config();
        cfg.coordinator = CoordinatorConfig { merge_log_cap: cap, ..cfg.coordinator };
        let chunk = chunk_of(&cfg);
        let crash_at = 2 * MICROS_PER_SEC;
        Simulation::star(2)
            .with_driver_config(cfg)
            .with_streams(vec![stable_stream(0.0, 1), stable_stream(50.0, 2)])
            .with_updates_per_site(3 * chunk)
            .with_transport(Box::new(SimnetTransport::new().with_faults(
                FaultPlan::seeded(5).with_outage(NodeId(0), crash_at, crash_at + MICROS_PER_SEC),
            )))
            .run()
            .unwrap()
    };
    let unbounded = run(None);
    let capped = run(Some(2));
    assert_eq!(unbounded.delivery.crashes, 1);
    assert_eq!(capped.delivery.crashes, 1);
    assert_eq!(capped.delivery.restarts, 1);
    assert_eq!(
        capped.coordinator_groups, unbounded.coordinator_groups,
        "compaction must not change the recovered model"
    );
    let ug = groups_of(&unbounded);
    let cg = groups_of(&capped);
    assert_eq!(ug.len(), cg.len());
    for ((um, uw), (cm, cw)) in ug.iter().zip(&cg) {
        assert!((um - cm).abs() < 1e-9, "capped resync drifted a mean");
        assert!((uw - cw).abs() < 1e-12, "capped resync drifted a weight");
    }
    // All records were processed despite the outage, under the cap.
    assert_eq!(
        capped.site_stats.iter().map(|s| s.records).sum::<u64>(),
        unbounded.site_stats.iter().map(|s| s.records).sum::<u64>(),
    );
    // The cap actually bit: less retained history than the uncapped run
    // would imply is fine, but memory accounting must not grow past it.
    assert!(capped.coordinator_memory <= unbounded.coordinator_memory);
}
