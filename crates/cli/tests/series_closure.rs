//! The metric catalogue is closed under test, both ways.
//!
//! Every series and span name that any registry holds after the scenarios
//! below — with a child's `site<N>.` prefix stripped — is a catalogue entry
//! of the kind it was recorded as (or the `alert.<rule>` gauge of a default
//! alert rule), and every catalogue entry is recorded by some scenario. A
//! new series therefore needs an entry, and an entry nothing records needs
//! a scenario or goes.
//!
//! Scenarios:
//! - `simulate` plain, with `--faults` (duplication raised so a duplicate
//!   happens) and with `--faults --trace-out`, in process through [`run`];
//! - a loopback socket round with fleet telemetry, tracing, the quality
//!   plane, snapshots and the default alert rules, scraped with `status`
//!   and `health`; its sites return to an old regime after six new ones
//!   (multi-test hits, cut tests, both drift detectors) and its merge log
//!   and event tables are capped at one entry;
//! - an aggregator round whose second summary is suppressed;
//! - hostile peers: a handshaken child that resumes, sends undecodable and
//!   undeclared telemetry and a data frame far past its inbox's ACK, and
//!   falls silent until evicted, and a stranger that speaks for it without
//!   a handshake;
//! - a site whose parent withholds ACKs (send-window stalls), an EM fit
//!   stopped by its iteration cap, and a member split out of its group.

use cludistream::coordinator::{Coordinator, CoordinatorConfig, MergeRefiner};
use cludistream::runtime::{
    run_aggregator, run_site, serve, AggregatorRun, Control, CoordinatorRun, SiteRun, SocketConfig,
    PROTOCOL_VERSION,
};
use cludistream::{
    score_snapshot, Config, DriverConfig, Frame, Message, ModelId, RecordStream, RemoteSite,
    SnapshotHandle,
};
use cludistream_cli::{run, Command, MetricsWorkload};
use cludistream_gmm::{
    fit_em_recorded, Batch, ChunkParams, Columns, CovarianceType, EmConfig, Gaussian, Mixture,
};
use cludistream_linalg::Vector;
use cludistream_obs::catalogue::{lookup, Counter, Gauge, Histogram, SpanName, CATALOGUE, HB_RTT_US};
use cludistream_obs::{AlertSet, FleetAggregator, Obs, Registry, TelemetryDelta};
use cludistream_rng::StdRng;
use cludistream_wire::framing::{write_frame, FrameReader};
use cludistream_wire::ByteReader;
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Every `(name, kind)` the scenarios recorded, duplicates included.
type Seen = Vec<(String, &'static str)>;

fn collect(seen: &mut Seen, registry: &Registry) {
    seen.extend(registry.counters().into_iter().map(|(n, _)| (n.to_owned(), Counter::KIND)));
    seen.extend(registry.gauges().into_iter().map(|(n, _)| (n.to_owned(), Gauge::KIND)));
    seen.extend(registry.histograms().into_iter().map(|(n, _)| (n.to_owned(), Histogram::KIND)));
    seen.extend(registry.spans().into_iter().map(|s| (s.name.as_str().to_owned(), SpanName::KIND)));
}

/// The series names of a `render_table` printed at the end of `text`.
fn collect_table(seen: &mut Seen, text: &str) {
    let mut kind = None;
    for line in text.lines() {
        kind = match line.split(':').next() {
            Some("counters") => Some(Counter::KIND),
            Some("gauges") => Some(Gauge::KIND),
            Some("histograms") | Some("quantiles (exact)") => Some(Histogram::KIND),
            _ if line.starts_with("events recorded") => None,
            _ => kind,
        };
        if let (Some(kind), Some(name)) = (kind, line.strip_prefix("  ")) {
            seen.push((name.split_whitespace().next().unwrap_or_default().to_owned(), kind));
        }
    }
}

/// `siteN.x` → `x`; any other name unchanged.
fn strip_site(name: &str) -> &str {
    let Some(rest) = name.strip_prefix("site") else { return name };
    match rest.split_once('.') {
        Some((n, tail)) if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) => tail,
        _ => name,
    }
}

fn cli(command: Command) -> String {
    let mut out = Vec::new();
    run(command, &mut out).expect("subcommand runs");
    String::from_utf8(out).expect("utf-8 output")
}

const WORKLOAD: MetricsWorkload =
    MetricsWorkload { sites: 2, chunks: 2, seed: 7, epsilon: 0.15 };

fn workloads(seen: &mut Seen) {
    let simulate = |faults, trace_out| Command::Simulate {
        workload: WORKLOAD,
        reliable: false,
        faults,
        journal: None,
        trace_out,
    };
    collect_table(seen, &cli(simulate(None, None)));
    collect_table(seen, &cli(simulate(Some((0.1, 0.5, 0.25)), None)));
    let file = format!("cludistream_closure_{}.json", std::process::id());
    let path = std::env::temp_dir().join(file);
    let out = Some(path.to_string_lossy().into_owned());
    cli(simulate(Some((0.1, 0.05, 0.25)), out));
    let json = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    for event in json.split("{\"name\":\"").skip(1) {
        if let Some((name, rest)) = event.split_once('"') {
            if rest.starts_with(",\"cat\":\"cludistream\"") {
                seen.push((name.to_owned(), SpanName::KIND));
            }
        }
    }
}

/// Two 1-d blobs at `center ± 3`.
fn regime(center: f64) -> Mixture {
    let blob = |x: f64| Gaussian::spherical(Vector::from_slice(&[x]), 0.5).expect("gaussian");
    Mixture::new(vec![blob(center - 3.0), blob(center + 3.0)], vec![0.5, 0.5]).expect("mixture")
}

/// One chunk of `chunk` records per entry of `centers`, in order; the
/// first record waits for `gate` when one is given.
fn stream(
    centers: Vec<f64>,
    chunk: usize,
    seed: u64,
    gate: Option<Arc<AtomicBool>>,
) -> RecordStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let regimes: Vec<Mixture> = centers.into_iter().map(regime).collect();
    let mut emitted = 0usize;
    Box::new(std::iter::from_fn(move || {
        while gate.as_ref().is_some_and(|g| !g.load(Ordering::Acquire)) {
            thread::sleep(Duration::from_millis(1));
        }
        let m = regimes.get(emitted / chunk)?;
        emitted += 1;
        Some(m.sample(&mut rng))
    }))
}

fn fast_socket() -> SocketConfig {
    SocketConfig {
        heartbeat_us: 20_000,
        deadline: Some(Duration::from_secs(120)),
        ..SocketConfig::default()
    }
}

/// A raw connection speaking the control plane by hand.
struct Raw {
    stream: TcpStream,
    reader: FrameReader,
    pending: VecDeque<Vec<u8>>,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        Raw { stream, reader: FrameReader::new(), pending: VecDeque::new() }
    }

    fn send(&mut self, control: &Control) {
        write_frame(&mut self.stream, control.encode().as_slice()).expect("write frame");
    }

    /// The next payload of either plane; `None` once the peer closed.
    fn next(&mut self) -> Option<Vec<u8>> {
        while self.pending.is_empty() {
            let polled = self.reader.poll(&mut self.stream).ok()?;
            self.pending.extend(polled.frames);
            if polled.eof && self.pending.is_empty() {
                return None;
            }
        }
        self.pending.pop_front()
    }

    /// Reads until a control frame `want` accepts.
    fn until(&mut self, want: impl Fn(&Control) -> bool) -> Control {
        loop {
            let payload = self.next().expect("connection open");
            if let Ok(control) = Control::decode(&mut ByteReader::new(&payload)) {
                if want(&control) {
                    return control;
                }
            }
        }
    }
}

/// A socket round with everything on. Site 1 is held back until site 0 —
/// done with its stream and pinging while it waits for the round — has
/// measured a heartbeat round trip; meanwhile `status` and `health` scrape
/// the coordinator (the stalled round fires `round-stalled`).
fn socket_round(seen: &mut Seen) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let fleet = Arc::new(FleetAggregator::new());
    let coord = Arc::new(Registry::new());
    coord.enable_tracing();
    let run = CoordinatorRun::builder(2)
        .coordinator(CoordinatorConfig {
            max_groups: 2,
            refine_merges: true,
            refiner: MergeRefiner { samples: 32, max_evals: 100, seed: 9 },
            merge_log_cap: Some(1),
            quality: true,
            ..CoordinatorConfig::default()
        })
        .dim(1)
        .obs(Obs::from_registry(Arc::clone(&coord)))
        .socket(fast_socket())
        .fleet(Arc::clone(&fleet))
        .snapshots(Arc::new(SnapshotHandle::new()))
        .alerts(AlertSet::default_rules())
        .build()
        .expect("coordinator run");
    let server = thread::spawn(move || serve(listener, run));

    let config = Config {
        dim: 1,
        k: 2,
        chunk: ChunkParams { epsilon: 0.03, delta: 0.01 },
        c_max: 8,
        seed: 7,
        quality: true,
        ..Config::default()
    };
    let chunk = RemoteSite::new(config.clone()).expect("site config").chunk_size();
    // Thirty stable chunks, six new regimes, then the first regime again:
    // both drift detectors alarm, and the return is a multi-test hit after
    // cut tests (two blocks a chunk).
    let centers: Vec<f64> =
        [0.0; 30].into_iter().chain((1..=6).map(|j| 40.0 * f64::from(j))).chain([0.0]).collect();
    let launch = |site: usize| {
        let registry = Arc::new(Registry::new());
        registry.enable_telemetry();
        registry.enable_tracing();
        registry.track_quantiles(HB_RTT_US);
        let obs = Obs::from_registry(Arc::clone(&registry));
        let run = SiteRun::builder(site, stream(centers.clone(), chunk, 11 + site as u64, None))
            .config(DriverConfig { site: config.clone(), obs, ..DriverConfig::default() })
            .updates((centers.len() * chunk) as u64)
            .socket(fast_socket())
            .telemetry(true)
            .build()
            .expect("site run");
        let addr = addr.clone();
        (registry, thread::spawn(move || run_site(&addr, run)))
    };

    let (site0, handle0) = launch(0);
    let deadline = Instant::now() + Duration::from_secs(60);
    while site0.histogram_snapshot(HB_RTT_US.as_str()).is_none() {
        assert!(Instant::now() < deadline, "site 0 never measured a heartbeat");
        thread::sleep(Duration::from_millis(10));
    }
    cli(Command::Status { connect: addr.clone(), watch: 0 });
    let mut health = Vec::new();
    let stalled = cludistream_cli::run(Command::Health { connect: addr.clone() }, &mut health);
    assert!(stalled.is_err(), "round-stalled fires while site 1 is away");

    let (site1, handle1) = launch(1);
    for handle in [handle0, handle1] {
        handle.join().expect("site thread").expect("site run");
    }
    let report = server.join().expect("serve thread").expect("serve");
    for registry in [&coord, fleet.registry(), &site0, &site1] {
        collect(seen, registry);
    }
    seen.extend(fleet.spans().into_iter().map(|s| (s.name.as_str().to_owned(), SpanName::KIND)));

    // The read side: score records against the round's checkpoint.
    let scorer = Arc::new(Registry::new());
    let snapshot = report.snapshot.expect("checkpoint");
    let records: Vec<Vector> = (0..8).map(|i| Vector::from_slice(&[f64::from(i)])).collect();
    let obs = Obs::from_registry(Arc::clone(&scorer));
    score_snapshot(&snapshot, &Batch::from_records(&records), 1, &obs).expect("scores");
    collect(seen, &scorer);
}

/// A root, one aggregator and three children: two sites and a raw child.
/// Before the sites stream, the raw child uploads one synopsis, waits for
/// the aggregator to forward it, and re-sends it under the next sequence
/// number: the same-id replace leaves the summary's means and weights
/// where they were, so that flush is suppressed.
fn aggregator_round(seen: &mut Seen) {
    let root_listener = TcpListener::bind("127.0.0.1:0").expect("bind root");
    let root_addr = root_listener.local_addr().expect("root addr").to_string();
    let root = Arc::new(Registry::new());
    let root_fleet = Arc::new(FleetAggregator::new());
    let run = CoordinatorRun::builder(1)
        .dim(1)
        .obs(Obs::from_registry(Arc::clone(&root)))
        .socket(fast_socket())
        .fleet(Arc::clone(&root_fleet))
        .build()
        .expect("root run");
    let root_server = thread::spawn(move || serve(root_listener, run));

    let agg_listener = TcpListener::bind("127.0.0.1:0").expect("bind aggregator");
    let agg_addr = agg_listener.local_addr().expect("aggregator addr").to_string();
    let agg = Arc::new(Registry::new());
    agg.enable_telemetry();
    let agg_fleet = Arc::new(FleetAggregator::new());
    let run = AggregatorRun::builder(0, 0, 3)
        .coordinator(CoordinatorConfig {
            max_groups: 2,
            merge_log_cap: Some(1),
            ..CoordinatorConfig::default()
        })
        .dim(1)
        .obs(Obs::from_registry(Arc::clone(&agg)))
        .telemetry(true)
        .fleet(Arc::clone(&agg_fleet))
        .socket(fast_socket())
        .build()
        .expect("aggregator run");
    let aggregator = thread::spawn(move || run_aggregator(&root_addr, agg_listener, run));

    let config = Config {
        dim: 1,
        k: 2,
        chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
        seed: 7,
        ..Config::default()
    };
    let chunk = RemoteSite::new(config.clone()).expect("site config").chunk_size();
    let released = Arc::new(AtomicBool::new(false));
    let sites: Vec<_> = (0..2usize)
        .map(|site| {
            let registry = Arc::new(Registry::new());
            let obs = Obs::from_registry(Arc::clone(&registry));
            // Two regimes, the first held until the raw child is through;
            // a step pulls one chunk.
            let first = stream(vec![0.0], chunk, 21 + site as u64, Some(Arc::clone(&released)));
            let second = stream(vec![40.0], chunk, 23 + site as u64, None);
            let run = SiteRun::builder(site, Box::new(first.chain(second)))
                .config(DriverConfig {
                    site: config.clone(),
                    obs,
                    batch: chunk,
                    ..DriverConfig::default()
                })
                .updates(2 * chunk as u64)
                .socket(fast_socket())
                .build()
                .expect("site run");
            let addr = agg_addr.clone();
            (registry, thread::spawn(move || run_site(&addr, run)))
        })
        .collect();

    let mut child = Raw::connect(&agg_addr);
    child.send(&Control::Hello {
        version: PROTOCOL_VERSION,
        site: 2,
        dim: 1,
        cov: CovarianceType::Full,
        resume: false,
    });
    child.until(|c| matches!(c, Control::Start));
    let synopsis = Message::NewModel {
        site: 2,
        model: ModelId(0),
        count: 100,
        avg_ll: -1.0,
        mixture: regime(-40.0),
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    for (seq, counter) in [(0, "agg.flushes"), (1, "agg.flushes_suppressed")] {
        let frame = Frame::Data { seq, message: synopsis.clone(), ctx: None };
        write_frame(&mut child.stream, frame.encode(CovarianceType::Full).as_slice())
            .expect("write frame");
        while agg.counter_value(counter) == 0 {
            assert!(Instant::now() < deadline, "the aggregator never counted {counter}");
            thread::sleep(Duration::from_millis(2));
        }
    }
    child.send(&Control::Done { site: 2 });
    released.store(true, Ordering::Release);
    for (registry, handle) in sites {
        handle.join().expect("site thread").expect("site run");
        collect(seen, &registry);
    }
    aggregator.join().expect("aggregator thread").expect("aggregator run");
    root_server.join().expect("root thread").expect("root run");
    drop(child);
    for registry in [&root, root_fleet.registry(), &agg, agg_fleet.registry()] {
        collect(seen, registry);
    }
}

/// A child that handshakes as a resuming site 0, sends one undecodable
/// and one undeclared telemetry delta and one data frame beyond its
/// inbox's span, and falls silent until evicted —
/// which ends the round — while a stranger sends `Done` for it.
fn hostile_peers(seen: &mut Seen) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let registry = Arc::new(Registry::new());
    let fleet = Arc::new(FleetAggregator::new());
    let run = CoordinatorRun::builder(1)
        .covariance(CovarianceType::Full)
        .obs(Obs::from_registry(Arc::clone(&registry)))
        .socket(SocketConfig { timeout_us: 1_000_000, ..fast_socket() })
        .fleet(Arc::clone(&fleet))
        .build()
        .expect("coordinator run");
    let server = thread::spawn(move || serve(listener, run));

    let mut child = Raw::connect(&addr);
    let hello = Control::Hello {
        version: PROTOCOL_VERSION,
        site: 0,
        dim: 1,
        cov: CovarianceType::Full,
        resume: true,
    };
    child.send(&hello);
    child.until(|c| matches!(c, Control::Welcome { .. }));
    child.send(&Control::Telemetry { site: 0, payload: vec![0xFF] });
    let mut undeclared = cludistream_wire::ByteBuf::new();
    undeclared.put_u8(cludistream_obs::TELEMETRY_VERSION);
    undeclared.put_u32_le(0);
    undeclared.put_u64_le(0);
    undeclared.put_u32_le(1);
    undeclared.put_var_str("made.up");
    undeclared.put_u64_le(1);
    for _ in 0..4 {
        undeclared.put_u32_le(0);
    }
    assert!(TelemetryDelta::decode(&mut undeclared.reader()).is_ok_and(|d| d.unknown == 1));
    child.send(&Control::Telemetry { site: 0, payload: undeclared.into_vec() });
    let ahead = Frame::Data {
        seq: 1 << 40,
        message: Message::WeightUpdate { site: 0, model: ModelId(0), count_delta: 1 },
        ctx: None,
    };
    write_frame(&mut child.stream, ahead.encode(CovarianceType::Full).as_slice())
        .expect("write frame");
    let mut stranger = Raw::connect(&addr);
    stranger.send(&Control::Done { site: 0 });
    stranger.send(&Control::StatusRequest);
    stranger.until(|c| matches!(c, Control::StatusReply { .. }));

    let report = server.join().expect("serve thread").expect("serve");
    assert_eq!(report.evicted, vec![0], "the silent child ends the round evicted");
    collect(seen, &registry);
    collect(seen, fleet.registry());
}

/// A site whose hand-rolled parent welcomes it and then acknowledges
/// nothing: with two synopses in flight the site stalls, then `Stop`.
fn withheld_acks(seen: &mut Seen) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let config = Config {
        dim: 1,
        k: 2,
        chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
        seed: 7,
        ..Config::default()
    };
    let chunk = RemoteSite::new(config.clone()).expect("site config").chunk_size();
    let registry = Arc::new(Registry::new());
    let obs = Obs::from_registry(Arc::clone(&registry));
    // Every chunk from a region of its own: one synopsis per chunk.
    let restless = stream((0..6).map(|j| 60.0 * f64::from(j)).collect(), chunk, 31, None);
    let run = SiteRun::builder(0, restless)
        .config(DriverConfig { site: config, obs, batch: chunk / 2, ..DriverConfig::default() })
        .updates(6 * chunk as u64)
        .socket(SocketConfig { connect_retry_ms: 10, ..SocketConfig::default() })
        .build()
        .expect("site run");
    let site = thread::spawn(move || run_site(&addr, run));

    let (stream, _) = listener.accept().expect("accept");
    let mut parent =
        Raw { stream, reader: FrameReader::new(), pending: VecDeque::new() };
    parent.until(|c| matches!(c, Control::Hello { .. }));
    parent.send(&Control::Welcome {
        version: PROTOCOL_VERSION,
        heartbeat_us: 10_000_000,
        timeout_us: 60_000_000,
        ack: 0,
    });
    let mut data = 0;
    while data < 2 {
        let payload = parent.next().expect("site connected");
        data += usize::from(!Control::is_control(&payload));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while registry.counter_value("uplink.window_stalls") == 0 {
        assert!(Instant::now() < deadline, "a full window never stalled the site");
        thread::sleep(Duration::from_millis(2));
    }
    parent.send(&Control::Stop);
    site.join().expect("site thread").expect("site run");
    collect(seen, &registry);
}

/// An EM fit stopped by its iteration cap, and a coordinator member split
/// out of its group: the merge of two far models under `max_groups = 1`
/// is dragged toward one of them by a heavy weight update, so the other's
/// next update finds it past its merge-time `M_split`.
fn em_cap_and_split(seen: &mut Seen) {
    let registry = Arc::new(Registry::new());
    let obs = Obs::from_registry(Arc::clone(&registry));
    let mut rng = StdRng::seed_from_u64(41);
    let data: Vec<Vector> = (0..200).map(|_| regime(0.0).sample(&mut rng)).collect();
    let capped = EmConfig { k: 2, max_iters: 1, tol: 0.0, seed: 1, ..EmConfig::default() };
    fit_em_recorded(&Columns::from_records(&data), &capped, &obs).expect("EM fit");

    let mut coordinator =
        Coordinator::new(CoordinatorConfig { max_groups: 1, ..CoordinatorConfig::default() })
            .expect("coordinator");
    coordinator.set_observer(obs);
    let born = |site: u32, x: f64| {
        let g = Gaussian::spherical(Vector::from_slice(&[x]), 1.0).expect("gaussian");
        let mixture = Mixture::new(vec![g], vec![1.0]).expect("mixture");
        Message::NewModel { site, model: ModelId(0), count: 100, avg_ll: -1.0, mixture }
    };
    for message in [
        born(0, 0.0),
        born(1, 10.0),
        Message::WeightUpdate { site: 1, model: ModelId(0), count_delta: 1_000_000 },
        Message::WeightUpdate { site: 0, model: ModelId(0), count_delta: 1 },
    ] {
        coordinator.apply(&message).expect("apply");
    }
    assert_eq!(registry.counter_value("coord.splits"), 1);
    collect(seen, &registry);
}

#[test]
fn every_recorded_name_is_declared_and_every_entry_is_recorded() {
    let mut seen = Seen::new();
    workloads(&mut seen);
    socket_round(&mut seen);
    aggregator_round(&mut seen);
    hostile_peers(&mut seen);
    withheld_acks(&mut seen);
    em_cap_and_split(&mut seen);

    let rules: Vec<String> =
        AlertSet::default_rules().rules().iter().map(|r| format!("alert.{}", r.name)).collect();
    for (name, kind) in &seen {
        let bare = strip_site(name);
        if *kind == Gauge::KIND && rules.iter().any(|r| r == bare) {
            continue;
        }
        let entry = lookup(bare).unwrap_or_else(|| panic!("{name} is recorded but not declared"));
        assert_eq!(entry.kind, *kind, "{name} is declared as {:?}", entry.kind);
    }
    let unreached: Vec<&str> = CATALOGUE
        .iter()
        .filter(|e| !seen.iter().any(|(n, k)| strip_site(n) == e.name && *k == e.kind))
        .map(|e| e.name)
        .collect();
    assert!(unreached.is_empty(), "declared but recorded by no scenario: {unreached:?}");
}
