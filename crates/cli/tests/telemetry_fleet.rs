//! In-process fleet telemetry round: one socket coordinator and three
//! `run_site` workers over loopback TCP, each site with its own registry
//! and telemetry reporting on.
//!
//! Verifies the ISSUE acceptance criteria for the telemetry plane:
//!
//! - mid-round, `cludistream status` (driven through the library `run`
//!   entry point) scrapes a Prometheus exposition that already shows
//!   per-site metric families — the round is held open by withholding
//!   site 2, so the scrape is deterministic, not a race;
//! - after the round, every counter and histogram in each site's local
//!   registry equals its `siteN.`-prefixed copy in the fleet registry,
//!   and the unprefixed fleet counter equals the sum across sites
//!   (control-plane counters and the idle-wait histogram excluded: frames
//!   sent after a site's final telemetry flush — `Done`, the last
//!   heartbeat — and the wait for `Stop` that follows can never be
//!   reported);
//! - shipped spans are rebased onto the coordinator clock (they land
//!   inside the observed round window) and keep per-site node ids
//!   disjoint from the coordinator's own track, so one Perfetto export
//!   holds every process without overlapping tracks.

use cludistream::coordinator::MergeRefiner;
use cludistream::runtime::{run_site, serve, CoordinatorRun, SiteRun, SocketConfig};
use cludistream::{Config, CoordinatorConfig, DriverConfig, RecordStream, RemoteSite};
use cludistream_cli::{run, Command};
use cludistream_gmm::{ChunkParams, Gaussian, Mixture};
use cludistream_linalg::Vector;
use cludistream_obs::catalogue::HB_RTT_US;
use cludistream_obs::{perfetto_json, FleetAggregator, Obs, Registry};
use cludistream_rng::StdRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SITES: usize = 3;
const CHUNKS: usize = 2;
const SEED: u64 = 7;
const EPSILON: f64 = 0.15;

/// The `cludistream metrics` two-regime workload for one site (mirrors
/// the CLI's private stream builder: two blobs at ±3, shifted 0.3 per
/// site, jumping to 40 ± 3 halfway through).
fn two_regime_stream(site: usize, per_regime: usize) -> RecordStream {
    let regime = |center: f64| -> Mixture {
        let offset = 0.3 * site as f64;
        Mixture::new(
            vec![
                Gaussian::spherical(Vector::from_slice(&[center - 3.0 + offset]), 0.5)
                    .expect("valid gaussian"),
                Gaussian::spherical(Vector::from_slice(&[center + 3.0 + offset]), 0.5)
                    .expect("valid gaussian"),
            ],
            vec![0.5, 0.5],
        )
        .expect("valid mixture")
    };
    let a = regime(0.0);
    let b = regime(40.0);
    let mut rng = StdRng::seed_from_u64(SEED ^ (site as u64).wrapping_mul(0x9E37_79B9));
    let mut emitted = 0usize;
    Box::new(std::iter::from_fn(move || {
        let m = if emitted < per_regime { &a } else { &b };
        emitted += 1;
        Some(m.sample(&mut rng))
    }))
}

fn scrape(addr: &str) -> String {
    let mut buf = Vec::new();
    run(Command::Status { connect: addr.to_string(), watch: 0 }, &mut buf)
        .expect("status scrape");
    String::from_utf8(buf).expect("exposition is UTF-8")
}

#[test]
fn fleet_registry_matches_site_registries_and_rebases_spans() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    let fleet = Arc::new(FleetAggregator::new());
    let coord_registry = Arc::new(Registry::new());
    coord_registry.enable_tracing();
    let coord_obs = Obs::from_registry(Arc::clone(&coord_registry));
    let serve_fleet = Arc::clone(&fleet);
    let round_start = Instant::now();
    let coordinator = std::thread::spawn(move || {
        serve(
            listener,
            CoordinatorRun::builder(SITES)
                .coordinator(CoordinatorConfig {
                    max_groups: 2,
                    refine_merges: true,
                    refiner: MergeRefiner { samples: 32, max_evals: 100, seed: 9 },
                    ..Default::default()
                })
                .dim(1)
                .obs(coord_obs)
                .socket(SocketConfig {
                    // Fast heartbeats → fast telemetry flushes, so the
                    // mid-round scrape below converges quickly.
                    heartbeat_us: 50_000,
                    deadline: Some(Duration::from_secs(120)),
                    ..Default::default()
                })
                .fleet(serve_fleet)
                .build()
                .expect("coordinator run"),
        )
        .expect("serve")
    });

    let site_config = Config {
        dim: 1,
        k: 2,
        chunk: ChunkParams { epsilon: EPSILON, delta: 0.01 },
        c_max: 4,
        seed: SEED,
        ..Default::default()
    };
    let chunk_size = RemoteSite::new(site_config.clone()).expect("site").chunk_size();
    let per_regime = CHUNKS * chunk_size;
    let updates = 2 * per_regime as u64;

    let launch = |site: usize| -> (Arc<Registry>, JoinHandle<()>) {
        let registry = Arc::new(Registry::new());
        registry.enable_telemetry();
        registry.enable_flight_recorder(64);
        registry.enable_tracing();
        registry.track_quantiles(HB_RTT_US);
        let obs = Obs::from_registry(Arc::clone(&registry));
        let config = site_config.clone();
        let connect = addr.clone();
        let handle = std::thread::spawn(move || {
            run_site(
                &connect,
                SiteRun::builder(site, two_regime_stream(site, per_regime))
                    .config(DriverConfig { site: config, obs, ..Default::default() })
                    .updates(updates)
                    .socket(SocketConfig { heartbeat_us: 50_000, ..Default::default() })
                    .telemetry(true)
                    .build()
                    .unwrap_or_else(|e| panic!("site {site}: {e}")),
            )
            .unwrap_or_else(|e| panic!("site {site}: {e}"));
        });
        (registry, handle)
    };

    // Sites 0 and 1 join and finish their streams, but the round cannot
    // end until site 2 (withheld) joins — so `status` observes a live
    // fleet mid-round, deterministically.
    let mut registries = Vec::new();
    let mut handles = Vec::new();
    for site in 0..SITES - 1 {
        let (registry, handle) = launch(site);
        registries.push(registry);
        handles.push(handle);
    }

    let deadline = Instant::now() + Duration::from_secs(30);
    let mid_round = loop {
        let text = scrape(&addr);
        if text.contains("cludistream_net_messages_total{site=\"0\"}")
            && text.contains("cludistream_net_messages_total{site=\"1\"}")
        {
            break text;
        }
        assert!(
            Instant::now() < deadline,
            "site telemetry never reached the status exposition:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(mid_round.starts_with("# TYPE cludistream_up gauge\ncludistream_up 1\n"), "{mid_round}");
    assert!(
        mid_round.contains("cludistream_round_state{site=\"2\"} 0"),
        "withheld site must scrape as Waiting:\n{mid_round}"
    );

    let (registry, handle) = launch(SITES - 1);
    registries.push(registry);
    handles.push(handle);
    for handle in handles {
        handle.join().expect("site thread");
    }
    let report = coordinator.join().expect("coordinator thread");
    let round_us = round_start.elapsed().as_micros() as u64;
    assert!(report.groups >= 1, "round produced no groups");

    // Fleet-aggregation equivalence: each site's local registry must be
    // reproduced verbatim under its `siteN.` prefix, and the unprefixed
    // counters must be the cross-site sums. Control-plane traffic is the
    // one legitimate laggard — `Done` and the final heartbeat are sent
    // after the last telemetry flush, so their counts never ship — and so
    // is the wait for `Stop` that follows them.
    let fleet_registry = fleet.registry();
    let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
    for (site, registry) in registries.iter().enumerate() {
        let counters = registry.counters();
        assert!(!counters.is_empty(), "site {site} recorded no counters");
        for (name, value) in counters {
            if name.starts_with("net.ctrl_") {
                continue;
            }
            assert_eq!(
                fleet_registry.counter_value(&format!("site{site}.{name}")),
                value,
                "site {site} counter {name} diverged in the fleet registry"
            );
            *sums.entry(name).or_insert(0) += value;
        }
        for (name, snap) in registry.histograms() {
            // RTT samples and idle waits observed after the final flush
            // stay local.
            if name == "hb.rtt_us" || name == "uplink.wait_us" {
                continue;
            }
            let fleet_snap = fleet_registry
                .histogram_snapshot(&format!("site{site}.{name}"))
                .unwrap_or_else(|| panic!("fleet is missing site{site}.{name}"));
            assert_eq!(fleet_snap.count, snap.count, "site {site} histogram {name} count");
            assert_eq!(fleet_snap.sum, snap.sum, "site {site} histogram {name} sum");
        }
    }
    for (name, sum) in sums {
        assert_eq!(
            fleet_registry.counter_value(name),
            sum,
            "unprefixed fleet counter {name} is not the cross-site sum"
        );
    }

    // Clock rebase: every shipped span sits on the coordinator clock,
    // inside the observed round window, on its own per-site track.
    let fleet_spans = fleet.spans();
    assert!(!fleet_spans.is_empty(), "sites traced but no spans reached the fleet");
    let site_nodes: BTreeSet<u32> = fleet_spans.iter().map(|s| s.node).collect();
    assert!(
        site_nodes.iter().all(|&n| (n as usize) < SITES),
        "fleet spans must keep site node ids, got {site_nodes:?}"
    );
    assert!(site_nodes.len() >= 2, "expected spans from several sites, got {site_nodes:?}");
    for span in &fleet_spans {
        assert!(span.start_us <= span.end_us, "span {:?} runs backwards", span.name);
        assert!(
            span.end_us <= round_us + 2_000_000,
            "span {:?} ends at {} µs — past the {} µs round window, so it was not rebased",
            span.name,
            span.end_us,
            round_us
        );
    }
    let coord_spans = coord_registry.spans();
    assert!(
        coord_spans.iter().all(|s| s.node == SITES as u32),
        "coordinator spans must stay on the hub track (node {SITES})"
    );

    // One coherent multi-process export: coordinator + rebased site spans.
    let mut all = coord_spans;
    all.extend(fleet_spans.iter().copied());
    let json = perfetto_json(&all);
    assert!(json.starts_with("{\"traceEvents\":[\n"), "{json}");
    for node in 0..=SITES {
        assert!(json.contains(&format!("\"name\":\"node {node}\"")), "missing track {node}");
    }
}
