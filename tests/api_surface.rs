//! Compile-and-run coverage of the `cludistream::prelude` facade: one
//! `use cludistream::prelude::*` and every re-exported item is touched
//! by name. If a future refactor drops something from the facade or
//! makes it private, this file stops compiling — the public API surface
//! is a tested artifact, not a convention.
//!
//! Three workflows, matching the facade's documentation:
//!
//! - *simulate*: [`Simulation`] over a custom [`Transport`] wrapper
//!   (exercising [`RunRecipe`], [`SimnetTransport`], [`WindowSpec`])
//!   with a serving [`SnapshotHandle`] attached;
//! - *score*: the published [`ModelSnapshot`] through [`score`] /
//!   [`score_record`] / [`Scores`], plus the snapshot wire codec;
//! - *run it for real*: [`serve`] + [`run_site`] over loopback TCP via
//!   the [`CoordinatorRun`] / [`SiteRun`] builders.

use cludistream::prelude::*;
use cludistream_rng::StdRng;
use std::sync::Arc;

/// Two blobs at ±3 in 1-d, the workload every transport test uses.
fn two_blob_stream(seed: u64) -> RecordStream {
    let mixture = Mixture::new(
        vec![
            Gaussian::spherical(Vector::from_slice(&[-3.0]), 0.5).unwrap(),
            Gaussian::spherical(Vector::from_slice(&[3.0]), 0.5).unwrap(),
        ],
        vec![0.5, 0.5],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    Box::new(std::iter::from_fn(move || Some(mixture.sample(&mut rng))))
}

fn site_config() -> Config {
    Config { dim: 1, k: 2, seed: 5, ..Default::default() }
}

/// A user-written transport: delegates to [`SimnetTransport`] but sees
/// the [`RunRecipe`] on the way through — the facade must expose enough
/// to write one of these without reaching into crate internals.
struct InspectingTransport {
    inner: Box<dyn Transport>,
}

impl Transport for InspectingTransport {
    fn run(self: Box<Self>, recipe: RunRecipe) -> Result<StarReport, CludiError> {
        assert_eq!(recipe.sites, recipe.streams.len());
        assert!(matches!(recipe.window, WindowSpec::Landmark));
        assert!(recipe.snapshots.is_some(), "serving handle must reach the transport");
        self.inner.run(recipe)
    }
}

#[test]
fn simulate_publish_and_score_through_the_facade() {
    let registry = Arc::new(Registry::new());
    let obs: Obs = Obs::from_registry(Arc::clone(&registry));
    let transport = InspectingTransport { inner: Box::new(SimnetTransport::new()) };

    let serving = Arc::new(SnapshotHandle::new());
    let chunk = RemoteSite::new(site_config()).unwrap().chunk_size() as u64;
    let report: StarReport = Simulation::star(2)
        .with_driver_config(DriverConfig { site: site_config(), obs, ..Default::default() })
        .with_window(WindowSpec::Landmark)
        .with_reliability(DeliveryMode::Reliable)
        .with_transport(Box::new(transport))
        .with_streams(vec![two_blob_stream(1), two_blob_stream(2)])
        .with_updates_per_site(2 * chunk)
        .with_snapshots(Arc::clone(&serving))
        .run()
        .expect("simulation runs");
    assert!(report.coordinator_groups >= 1);

    // The handle holds the latest published model; scoring it is
    // lock-free and bit-identical across thread counts.
    let snapshot: Arc<ModelSnapshot> = serving.load().expect("round published");
    assert_eq!(serving.version(), snapshot.version);
    assert!(snapshot.messages_applied >= 1);
    assert_eq!(snapshot.covariance, CovarianceType::Full);
    let groups: &[SnapshotGroup] = &snapshot.groups;
    assert_eq!(groups.len(), snapshot.mixture.k());
    let members: Vec<&SnapshotMember> = groups.iter().flat_map(|g| &g.members).collect();
    assert!(!members.is_empty(), "published groups name their site components");
    let lineage: &SnapshotMembers = &groups[0].members;
    assert_eq!(lineage.len(), lineage.iter().count());
    assert!(!lineage.is_empty());
    // A lineage compares member by member; `ptr_eq` tells a shared one
    // from an equal copy.
    let copy = SnapshotMembers::from(lineage.iter().copied().collect::<Vec<SnapshotMember>>());
    assert_eq!(&copy, lineage);
    assert!(lineage.clone().ptr_eq(lineage));
    assert!(!copy.ptr_eq(lineage));
    assert!(SnapshotMembers::default().is_empty());

    let records = vec![Vector::from_slice(&[-3.0]), Vector::from_slice(&[3.1])];
    let batch = Batch::from_records(&records);
    let scores: Scores = score(&snapshot.mixture, &batch, 0).expect("scoring succeeds");
    assert_eq!(scores.len(), records.len());
    assert_eq!(scores.k(), snapshot.mixture.k());
    for (i, x) in records.iter().enumerate() {
        let (label, log_pdf, resp) = score_record(&snapshot.mixture, x);
        assert_eq!(scores.labels()[i] as usize, label);
        assert_eq!(scores.log_pdf()[i].to_bits(), log_pdf.to_bits());
        assert_eq!(scores.responsibilities(i), &resp[..]);
    }
    assert!(scores.avg_log_likelihood().is_finite());

    // The snapshot wire codec round-trips through the facade types.
    let bytes = snapshot.encode();
    let decoded = ModelSnapshot::decode(&mut bytes.reader()).expect("valid bytes");
    assert_eq!(decoded.version, snapshot.version);
    assert_eq!(decoded.groups, snapshot.groups);

    // A coordinator with no groups yet cannot be captured — the error is
    // part of the facade contract too.
    let empty = Coordinator::new(CoordinatorConfig::default()).unwrap();
    let err: CludiError = ModelSnapshot::capture(&empty).expect_err("no groups yet");
    assert!(!format!("{err}").is_empty());
}

#[test]
fn socket_round_through_the_facade_builders() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let chunk = RemoteSite::new(site_config()).unwrap().chunk_size() as u64;

    let serving = Arc::new(SnapshotHandle::new());
    let handle = Arc::clone(&serving);
    let coordinator = std::thread::spawn(move || {
        let builder: CoordinatorRunBuilder = CoordinatorRun::builder(1);
        let run: CoordinatorRun = builder
            .dim(1)
            .covariance(CovarianceType::Full)
            .socket(SocketConfig {
                deadline: Some(std::time::Duration::from_secs(120)),
                ..Default::default()
            })
            .snapshots(handle)
            .build()
            .expect("valid coordinator run");
        serve(listener, run).expect("serve")
    });

    let builder: SiteRunBuilder = SiteRun::builder(0, two_blob_stream(3));
    let run: SiteRun = builder
        .window(WindowSpec::Landmark)
        .config(DriverConfig { site: site_config(), ..Default::default() })
        .updates(2 * chunk)
        .build()
        .expect("valid site run");
    let site_report = run_site(&addr, run).expect("site runs");
    assert!(site_report.stats.records >= 2 * chunk);

    let report = coordinator.join().expect("coordinator thread");
    assert!(report.groups >= 1);
    // The end-of-round checkpoint equals the last published snapshot.
    let checkpoint = report.snapshot.expect("round learned a model");
    assert_eq!(checkpoint.version, serving.version());

    // TcpTransport drives the same loops in-process.
    let _tcp: TcpTransport = TcpTransport::new();
}
