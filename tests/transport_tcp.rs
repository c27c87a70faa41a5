//! Transport equivalence: the TCP socket runtime must make the same
//! clustering decisions — and put the same synopsis bytes on the wire —
//! as the deterministic simulator running the identical workload.
//!
//! This is the in-process version of the `socket-smoke` CI step: one
//! [`Simulation`] recipe run twice, once through [`SimnetTransport`]
//! (reliable delivery, perfect link) and once through [`TcpTransport`]
//! (real loopback sockets, one thread per site). Everything the paper's
//! protocol determines — chunk test outcomes, re-clustering points,
//! synopsis sizes, coordinator groups — must agree; only timing may
//! differ.

use cludistream_suite::cludistream::runtime::TcpTransport;
use cludistream_suite::cludistream::{
    Config, DeliveryConfig, DeliveryMode, DriverConfig, RecordStream, RemoteSite,
    SimnetTransport, Simulation, StarReport, Transport,
};
use cludistream_suite::gmm::{ChunkParams, Gaussian, Mixture};
use cludistream_suite::linalg::Vector;
use cludistream_suite::obs::{Obs, Registry};
use cludistream_rng::StdRng;
use std::sync::{Arc, Mutex};

const SITES: usize = 3;
const REGIMES: usize = 3;

fn site_config() -> Config {
    Config {
        dim: 1,
        k: 2,
        chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
        seed: 29,
        ..Default::default()
    }
}

/// The regime-change stream every transport test in this repo uses, one
/// regime longer: blobs at ±3, then at 40 ± 3, then at 80 ± 3, slightly
/// offset per site.
fn regime_stream(site: usize, per_regime: u64) -> RecordStream {
    let regime = |center: f64| -> Mixture {
        let offset = 0.3 * site as f64;
        Mixture::new(
            vec![
                Gaussian::spherical(Vector::from_slice(&[center - 3.0 + offset]), 0.5).unwrap(),
                Gaussian::spherical(Vector::from_slice(&[center + 3.0 + offset]), 0.5).unwrap(),
            ],
            vec![0.5, 0.5],
        )
        .unwrap()
    };
    let regimes = [regime(0.0), regime(40.0), regime(80.0)];
    let mut rng = StdRng::seed_from_u64(700 + site as u64);
    let mut emitted = 0u64;
    Box::new(std::iter::from_fn(move || {
        let m = &regimes[((emitted / per_regime) as usize).min(REGIMES - 1)];
        emitted += 1;
        Some(m.sample(&mut rng))
    }))
}

/// An in-memory journal sink the test can read back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the workload through `transport` with a journaling observer and
/// returns the report plus the raw journal text.
fn run_through(transport: Box<dyn Transport>, updates: u64) -> (StarReport, String) {
    let sink = SharedBuf::default();
    let registry = Arc::new(Registry::with_journal(Box::new(sink.clone())));
    let per_regime = updates / REGIMES as u64;
    let streams: Vec<RecordStream> = (0..SITES).map(|i| regime_stream(i, per_regime)).collect();
    let report = Simulation::star(SITES)
        .with_driver_config(DriverConfig {
            site: site_config(),
            obs: Obs::from_registry(Arc::clone(&registry)),
            ..Default::default()
        })
        .with_reliability(DeliveryConfig { mode: DeliveryMode::Reliable })
        .with_streams(streams)
        .with_updates_per_site(updates)
        .with_transport(transport)
        .run()
        .expect("run succeeds");
    registry.flush_journal().expect("journal flushes");
    let journal = String::from_utf8(sink.0.lock().unwrap().clone()).expect("utf-8 journal");
    (report, journal)
}

/// The protocol-determined event stream for one site: chunk test
/// outcomes, re-clusterings, and synopsis transmissions (with their byte
/// counts), in order, with the transport-dependent timestamp removed.
fn site_events(journal: &str, site: usize) -> Vec<String> {
    let needle = format!("\"site\":{site}");
    journal
        .lines()
        .filter(|l| {
            ["\"event\":\"ChunkTested\"", "\"event\":\"Reclustered\"", "\"event\":\"SynopsisSent\""]
                .iter()
                .any(|e| l.contains(e))
        })
        .filter(|l| l.contains(&needle))
        .map(|l| {
            // Strip `"t":<n>` — sim time vs. the socket runtime's 0.
            match (l.find("\"t\":"), l.find(',')) {
                (Some(start), Some(end)) if start < end => {
                    format!("{}{}", &l[..start], &l[end + 1..])
                }
                _ => l.to_string(),
            }
        })
        .collect()
}

#[test]
fn tcp_transport_matches_simnet_decisions_and_bytes() {
    let chunk = RemoteSite::new(site_config()).unwrap().chunk_size() as u64;
    // Three chunks per regime: nine per site, enough synopses in a row for
    // the sites' send window to engage against a busy coordinator.
    let updates = 3 * REGIMES as u64 * chunk;

    let (sim, sim_journal) = run_through(Box::new(SimnetTransport::new()), updates);
    let (tcp, tcp_journal) = run_through(Box::new(TcpTransport::new()), updates);

    // Same merge/split decisions at the coordinator.
    assert_eq!(tcp.coordinator_groups, sim.coordinator_groups, "group count diverged");
    assert_eq!(tcp.site_models, sim.site_models, "per-site model counts diverged");
    for (t, s) in tcp.site_stats.iter().zip(&sim.site_stats) {
        assert_eq!(t.records, s.records);
        assert_eq!(t.chunks, s.chunks);
        assert_eq!(t.clustered, s.clustered);
    }

    // Same protocol events — including every synopsis's byte count — in
    // the same per-site order. Only the clock differs between transports.
    for site in 0..SITES {
        let sim_events = site_events(&sim_journal, site);
        let tcp_events = site_events(&tcp_journal, site);
        assert!(!sim_events.is_empty(), "site {site} emitted no events");
        assert_eq!(tcp_events, sim_events, "site {site} event stream diverged");
    }

    // A frame written to a live connection is never written to it again,
    // however long the host stalls, so with no connection lost nothing is
    // re-sent, nothing arrives twice, and the wire totals (data frames +
    // ACKs) agree with the simulator's byte for byte.
    assert_eq!(tcp.delivery.retransmitted_messages, 0, "re-sent on a live connection");
    assert_eq!(tcp.delivery.duplicates_discarded, 0, "a frame arrived twice");
    assert_eq!(tcp.comm.total_bytes(), sim.comm.total_bytes(), "wire byte totals diverged");
    assert_eq!(tcp.comm.total_messages(), sim.comm.total_messages(), "wire frame counts diverged");
    assert!(tcp.delivery.balanced(), "TCP delivery accounting unbalanced");
}

#[test]
fn tcp_transport_rejects_fire_and_forget() {
    let err = Simulation::star(1)
        .with_driver_config(DriverConfig { site: site_config(), ..Default::default() })
        .with_reliability(DeliveryConfig { mode: DeliveryMode::FireAndForget })
        .with_streams(vec![regime_stream(0, 10)])
        .with_updates_per_site(10)
        .with_transport(Box::new(TcpTransport::new()))
        .run()
        .expect_err("fire-and-forget must be refused");
    assert!(format!("{err}").contains("reliable"), "unhelpful error: {err}");
}
