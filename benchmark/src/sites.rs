//! The three site workloads — `steady`, `drift`, `drift_tcp` — run through
//! the system's public entry point, [`Simulation::run`], with every
//! observability hook off unless a traced run asks for one.

use crate::inputs::{self, SiteInput, StreamMarks, CHUNK, DIM, K};
use crate::timed::Repetition;
use cludistream::coordinator::MergeRefiner;
use cludistream::prelude::*;
use cludistream::NodeId;
use cludistream_gmm::Batch;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sites in every site workload: one per core of the machine the sizes
/// were chosen on, so `drift_tcp` runs one site thread per core.
pub const SITES: usize = 2;
/// `steady`: records per site, from a cycled stationary pool.
pub const STEADY_RECORDS: u64 = 3_000_000;
/// `drift`: records per site.
pub const DRIFT_RECORDS: usize = 250_000;
/// `drift_tcp`: the first this-many records per site of `drift`'s streams.
pub const DRIFT_TCP_RECORDS: usize = 40_000;
/// Records per site of the set-up dry run on `steady` and `drift` (warms
/// pages, allocator and caches before anything is timed): a sixth of the
/// recipe.
const STEADY_DRY_RECORDS: u64 = STEADY_RECORDS / 6;
const DRIFT_DRY_RECORDS: u64 = DRIFT_RECORDS as u64 / 6;
/// Batches scored against a run's final snapshot for the traced run's
/// `score_batch_us_p50`: about 0.4 s of scoring.
const SCORE_BATCHES: usize = 400;
/// Socket tuning of `drift_tcp`: the defaults but for two things. A wedged
/// round must fail, not hang the benchmark, so `serve` gets a deadline.
/// And no heartbeat may fall inside the run: at the default 500 ms, about
/// one run in twenty fails, because a site whose `Ping` write fails after
/// it has sent `Done` (the coordinator has already closed) reconnects to a
/// listener that is gone and reports `Connection reset by peer` — a
/// teardown race in `runtime::tcp::run_site` that a benchmark may not fix
/// and whose failures it must not measure.
fn socket_config() -> SocketConfig {
    SocketConfig {
        heartbeat_us: 120_000_000,
        timeout_us: 600_000_000,
        deadline: Some(Duration::from_secs(90)),
        ..SocketConfig::default()
    }
}

/// Which of the site workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    Drift,
    DriftTcp,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "steady",
            Kind::Drift => "drift",
            Kind::DriftTcp => "drift_tcp",
        }
    }
}

/// Inputs and expectations of one site workload, made in set-up.
pub struct Prepared {
    pub kind: Kind,
    pub inputs: Vec<SiteInput>,
    pub batches: Vec<Batch>,
    /// What the same recipe does over simnet, for `drift_tcp`'s equality
    /// checks.
    pub simnet_dry: Option<Outcome>,
}

/// Paper defaults: d = 4, K = 5, ε = 0.02, δ = 0.01 (M = 1567), c_max = 4,
/// one EM thread, landmark window.
pub fn site_config() -> Config {
    let config = Config::default();
    assert_eq!((config.dim, config.k), (DIM, K));
    assert_eq!(config.chunk_size().expect("default config is valid"), CHUNK);
    config
}

/// The coordinator of a site workload (the traced replay builds its own
/// from it).
pub fn coordinator_config(kind: Kind) -> CoordinatorConfig {
    match kind {
        Kind::Steady => CoordinatorConfig::default(),
        // The coordinator as the CLI deploys it.
        Kind::Drift | Kind::DriftTcp => CoordinatorConfig {
            refine_merges: true,
            refiner: MergeRefiner { samples: 32, max_evals: 100, seed: 9 },
            ..CoordinatorConfig::default()
        },
    }
}

pub fn prepare(kind: Kind, seed: u64) -> Result<Prepared, String> {
    let inputs = match kind {
        Kind::Steady => inputs::stationary(seed, SITES, STEADY_RECORDS),
        Kind::Drift => inputs::evolving(seed, SITES, DRIFT_RECORDS),
        Kind::DriftTcp => inputs::evolving(seed, SITES, DRIFT_TCP_RECORDS),
    };
    let batches = inputs::score_batches(&inputs, 8);
    let simnet_dry = match kind {
        Kind::DriftTcp => Some(run(Kind::Drift, &inputs, &Instruments::default())?),
        Kind::Steady | Kind::Drift => {
            let dry = if kind == Kind::Steady { STEADY_DRY_RECORDS } else { DRIFT_DRY_RECORDS };
            run(kind, &inputs::prefix(&inputs, dry), &Instruments::default())?;
            None
        }
    };
    Ok(Prepared { kind, inputs, batches, simnet_dry })
}

/// What a traced run may switch on. A timed run switches on nothing.
#[derive(Default)]
pub struct Instruments {
    /// Stamp the moment each chunk's last record leaves the stream, log the
    /// gaps between the driver's record batches, and watch the snapshot
    /// handle for each `(site, model)`'s first appearance.
    pub marks: bool,
    /// Telemetry observer handed to the run.
    pub obs: Option<Obs>,
}

/// One run of a site recipe.
pub struct Outcome {
    pub report: StarReport,
    pub wall_s: f64,
    /// Process CPU seconds (user + system) spent during the run.
    pub cpu_s: f64,
    pub snapshot: Option<Arc<ModelSnapshot>>,
    pub snapshots: u64,
    pub marks: Vec<Arc<StreamMarks>>,
    /// Nanoseconds since the run's epoch at which the watcher first saw
    /// `(site, model)` among a snapshot's members.
    pub first_seen_ns: HashMap<(u32, u64), u64>,
}

impl Outcome {
    pub fn records(&self) -> u64 {
        self.report.site_stats.iter().map(|s| s.records).sum()
    }

    pub fn records_per_s(&self) -> f64 {
        self.records() as f64 / self.wall_s
    }

    /// Data frames that reached the coordinator.
    pub fn synopses(&self) -> u64 {
        self.report.comm.messages_to(NodeId(self.report.site_stats.len()))
    }
}

/// Process user + system CPU time so far, in seconds.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line, in clock ticks (100 per second on
    // Linux).
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

pub fn run(kind: Kind, inputs: &[SiteInput], instruments: &Instruments) -> Result<Outcome, String> {
    let records = inputs[0].records;
    let epoch = Instant::now();
    let driver = DriverConfig {
        site: site_config(),
        coordinator: coordinator_config(kind),
        obs: instruments.obs.clone().unwrap_or_else(Obs::noop),
        ..DriverConfig::default()
    };
    let marks: Vec<Arc<StreamMarks>> = if instruments.marks {
        let batch = driver.batch as u64;
        inputs.iter().map(|i| StreamMarks::new(epoch, i.records as usize / CHUNK, batch)).collect()
    } else {
        Vec::new()
    };
    let streams = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| inputs::stream(input, marks.get(i).cloned()))
        .collect();
    let handle = Arc::new(SnapshotHandle::new());
    let mut simulation = Simulation::star(inputs.len())
        .with_driver_config(driver)
        .with_window(WindowSpec::Landmark)
        .with_streams(streams)
        .with_updates_per_site(records)
        .with_snapshots(Arc::clone(&handle));
    if kind == Kind::DriftTcp {
        let transport = TcpTransport::new().with_socket(socket_config());
        simulation = simulation.with_transport(Box::new(transport));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let watcher = instruments.marks.then(|| {
        let (handle, stop) = (Arc::clone(&handle), Arc::clone(&stop));
        std::thread::spawn(move || watch(&handle, &stop, epoch))
    });
    let cpu_before = process_cpu_s();
    let started = Instant::now();
    let result = simulation.run();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_before;
    stop.store(true, Ordering::SeqCst);
    let first_seen_ns = match watcher {
        Some(thread) => thread.join().map_err(|_| "snapshot watcher panicked".to_string())?,
        None => HashMap::new(),
    };
    let report = result.map_err(|e| format!("Simulation::run failed: {e}"))?;
    Ok(Outcome {
        report,
        wall_s,
        cpu_s,
        snapshot: handle.load(),
        snapshots: handle.version(),
        marks,
        first_seen_ns,
    })
}

/// Polls the handle's version at least every 200 µs and notes when each
/// `(site, model)` first shows among a snapshot's group members.
fn watch(handle: &SnapshotHandle, stop: &AtomicBool, epoch: Instant) -> HashMap<(u32, u64), u64> {
    let mut seen = HashMap::new();
    let mut version = 0;
    loop {
        // Read the flag first: a version published before the run returned
        // is still looked at once.
        let stopping = stop.load(Ordering::SeqCst);
        let current = handle.version();
        if current != version {
            let now = epoch.elapsed().as_nanos() as u64;
            version = current;
            if let Some(snapshot) = handle.load() {
                for member in snapshot.groups.iter().flat_map(|g| &g.members) {
                    seen.entry((member.site, member.model.0)).or_insert(now);
                }
            }
        }
        if stopping {
            return seen;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Scores [`SCORE_BATCHES`] batches against a run's final snapshot and
/// returns each call's microseconds.
pub fn score_final(snapshot: &ModelSnapshot, batches: &[Batch]) -> Result<Vec<f64>, String> {
    let obs = Obs::noop();
    (0..SCORE_BATCHES)
        .map(|i| {
            let batch = &batches[i % batches.len()];
            let started = Instant::now();
            let scores = score_snapshot(snapshot, batch, 1, &obs)
                .map_err(|e| format!("score_snapshot failed: {e}"))?;
            let us = started.elapsed().as_secs_f64() * 1e6;
            if scores.len() != batch.len() {
                return Err("score_snapshot dropped records".to_string());
            }
            Ok(us)
        })
        .collect()
}

/// Runs one timed repetition and checks its outputs; every failed check is
/// one line of `failures`.
pub fn repetition(prepared: &Prepared, failures: &mut Vec<String>) -> Result<Repetition, String> {
    let outcome = run(prepared.kind, &prepared.inputs, &Instruments::default())?;
    check(prepared, &outcome, failures);
    if outcome.snapshot.is_none() {
        failures.push(format!("{:?}: the run published no snapshot", prepared.kind));
    }
    let report = &outcome.report;
    let records = outcome.records();
    let offered: u64 = prepared.inputs.iter().map(|i| i.records).sum();
    let state_bytes = report.site_memory.iter().sum::<usize>() + report.coordinator_memory;
    Ok(Repetition {
        records_per_s: outcome.records_per_s(),
        bytes_per_record: report.delivery.sent_bytes as f64 / records.max(1) as f64,
        synopses_per_s: outcome.synopses() as f64 / outcome.wall_s,
        state_kb: state_bytes as f64 / 1024.0,
        ops: offered,
        failed: offered.saturating_sub(records),
        exact: vec![
            report.delivery.sent_bytes,
            report.delivery.sent_messages,
            state_bytes as u64,
            report.coordinator_groups as u64,
            outcome.snapshots,
        ],
    })
}

/// Output checks of one run of a site workload.
pub fn check(prepared: &Prepared, outcome: &Outcome, failures: &mut Vec<String>) {
    let report = &outcome.report;
    let mut fail = |what: String| failures.push(format!("{:?}: {what}", prepared.kind));
    for (site, (stats, input)) in report.site_stats.iter().zip(&prepared.inputs).enumerate() {
        if stats.records != input.records {
            fail(format!("site {site} consumed {} of {} records", stats.records, input.records));
        }
    }
    if !report.delivery.balanced() {
        fail(format!("delivery books do not balance: {:?}", report.delivery));
    }
    check_global(report.global.as_ref(), coordinator_config(prepared.kind).max_groups, &mut fail);
    if let Some(dry) = &prepared.simnet_dry {
        if dry.report.site_stats != report.site_stats {
            fail(format!(
                "site_stats differ from the simnet dry run: {:?} vs {:?}",
                report.site_stats, dry.report.site_stats
            ));
        }
        if dry.report.coordinator_groups != report.coordinator_groups {
            fail(format!(
                "coordinator_groups {} differ from the simnet dry run's {}",
                report.coordinator_groups, dry.report.coordinator_groups
            ));
        }
    }
}

/// The global mixture is there, finite, no larger than `max_groups`, and
/// its weights sum to 1.
pub fn check_global(global: Option<&Mixture>, max_groups: usize, fail: &mut dyn FnMut(String)) {
    let Some(global) = global else {
        fail("no global mixture".to_string());
        return;
    };
    if global.k() == 0 || global.k() > max_groups {
        fail(format!("global mixture has {} components, max_groups is {max_groups}", global.k()));
    }
    let weight: f64 = global.weights().iter().sum();
    if (weight - 1.0).abs() > 1e-9 {
        fail(format!("global weights sum to {weight}"));
    }
    let finite = global.weights().iter().all(|w| w.is_finite())
        && global.components().iter().all(|g| g.mean().is_finite() && g.cov().is_finite());
    if !finite {
        fail("global mixture has a non-finite parameter".to_string());
    }
}
