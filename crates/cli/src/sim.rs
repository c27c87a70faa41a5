use crate::CliError;
use cludistream::coordinator::MergeRefiner;
use cludistream::{
    Config, CoordinatorConfig, DeliveryMode, DriverConfig, FaultPlan, LinkFaults, NodeId,
    RecordStream, RemoteSite, SimnetTransport, Simulation, StarReport,
};
use cludistream_gmm::{ChunkParams, Gaussian, Mixture};
use cludistream_linalg::Vector;
use cludistream_obs::{analyze, catalogue, perfetto_json, Obs, Registry};
use cludistream_rng::StdRng;
use std::io::Write;
use std::sync::Arc;

/// The deterministic two-regime workload behind `simulate` and the socket
/// `site` role, engineered so every event type
/// fires: each site streams `chunks` chunks from regime A (blobs at ±3),
/// then `chunks` chunks from regime B (blobs at 40 ± 3) — re-clustering
/// on the change — and the per-regime component pairs give the
/// coordinator more groups than it may keep, forcing merges with simplex
/// refinement.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsWorkload {
    /// Remote sites this run drives (`--sites`; always 1 for `site`,
    /// which runs one site of the star per process).
    pub sites: usize,
    /// Chunks per regime per site (each site sees two regimes).
    pub chunks: usize,
    /// RNG seed for data generation, EM, and fault injection.
    pub seed: u64,
    /// Error bound ε (drives the chunk size).
    pub epsilon: f64,
}

/// The registry behind a subcommand's observer, journaling to `journal`
/// when a path was given.
pub(crate) fn journal_registry(journal: &Option<String>) -> std::io::Result<Arc<Registry>> {
    Ok(Arc::new(match journal {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            Registry::with_journal(Box::new(std::io::BufWriter::new(file)))
        }
        None => Registry::new(),
    }))
}

/// `simulate --faults`' default per-message (drop, duplicate, reorder)
/// probabilities.
pub(crate) const FAULT_DEFAULTS: (f64, f64, f64) = (0.1, 0.05, 0.25);

/// The coordinator half of the `simulate` workload: fewer groups than the
/// regimes produce, so merges (with simplex refinement) must happen.
pub(crate) fn metrics_coordinator_config() -> CoordinatorConfig {
    CoordinatorConfig {
        max_groups: 2,
        refine_merges: true,
        refiner: MergeRefiner { samples: 32, max_evals: 100, seed: 9 },
        ..Default::default()
    }
}

/// The site half of the `simulate` workload: 1-d, K = 2, up to four
/// tests per chunk.
fn metrics_site_config(seed: u64, epsilon: f64) -> Config {
    Config {
        dim: 1,
        k: 2,
        chunk: ChunkParams { epsilon, delta: 0.01 },
        c_max: 4,
        seed,
        ..Default::default()
    }
}

/// One site's stream of the `simulate` workload: `per_regime` records of
/// two blobs at ±3 (shifted slightly per site), then `per_regime` records
/// of the same shape moved to 40 ± 3.
fn metrics_stream(site: usize, seed: u64, per_regime: usize) -> RecordStream {
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
    let mut rng = StdRng::seed_from_u64(seed ^ (site as u64).wrapping_mul(0x9E37_79B9));
    let mut emitted = 0usize;
    Box::new(std::iter::from_fn(move || {
        let m = if emitted < per_regime { &a } else { &b };
        emitted += 1;
        Some(m.sample(&mut rng))
    }))
}

/// A [`MetricsWorkload`] assembled for a run. `simulate` and the socket
/// `site` role both start from this, which is what keeps their journals
/// diffable against each other.
pub(crate) struct PreparedRun {
    /// Chunk size M (Theorem 1) under the workload's ε.
    pub(crate) chunk_size: usize,
    /// Records each site consumes (both regimes).
    pub(crate) updates: u64,
    /// One stream per site driven, in site order.
    pub(crate) streams: Vec<RecordStream>,
    /// Site and coordinator configuration with the observer attached.
    pub(crate) driver_config: DriverConfig,
    /// Nominal simulated duration at the driver's record rate.
    duration_us: u64,
}

impl MetricsWorkload {
    /// Assembles the run for sites `first_site..first_site + self.sites`
    /// (a simulated star starts at 0; a socket `site` is its own index).
    pub(crate) fn prepare(&self, first_site: usize, obs: Obs) -> Result<PreparedRun, CliError> {
        let site = metrics_site_config(self.seed, self.epsilon);
        let chunk_size = RemoteSite::new(site.clone())?.chunk_size();
        let per_regime = self.chunks * chunk_size;
        let updates = 2 * per_regime as u64;
        let streams = (first_site..first_site + self.sites)
            .map(|i| metrics_stream(i, self.seed, per_regime))
            .collect();
        let driver_config =
            DriverConfig { site, coordinator: metrics_coordinator_config(), obs, ..Default::default() };
        let duration_us = updates.saturating_mul(1_000_000) / driver_config.records_per_second;
        Ok(PreparedRun { chunk_size, updates, streams, driver_config, duration_us })
    }
}

impl PreparedRun {
    /// The `--faults` outage: site 0 crashes at 40% of the nominal run and
    /// comes back at 55%, recovering from its last checkpoint.
    fn outage_us(&self) -> (u64, u64) {
        (self.duration_us * 2 / 5, self.duration_us * 11 / 20)
    }

    /// The `--faults` plan: a lossy network plus the site-0 outage.
    fn fault_plan(&self, seed: u64, (drop_p, duplicate_p, reorder_p): (f64, f64, f64)) -> FaultPlan {
        let (down, up) = self.outage_us();
        FaultPlan::seeded(seed)
            .with_link(LinkFaults { drop_p, duplicate_p, reorder_p, reorder_max_delay_us: 5_000 })
            .with_outage(NodeId(0), down, up)
    }

    /// Runs the simulated star over this run's streams: `reliable` forces
    /// the reliable delivery protocol (a fault plan implies it anyway).
    fn simulate(self, reliable: bool, faults: Option<FaultPlan>) -> Result<StarReport, CliError> {
        let mut sim = Simulation::star(self.streams.len())
            .with_driver_config(self.driver_config)
            .with_streams(self.streams)
            .with_updates_per_site(self.updates);
        if reliable {
            sim = sim.with_reliability(DeliveryMode::Reliable);
        }
        if let Some(plan) = faults {
            sim = sim.with_transport(Box::new(SimnetTransport::new().with_faults(plan)));
        }
        sim.run().map_err(|e| CliError::Usage(format!("driver: {e}")))
    }
}

/// The group count the root ended the round with — one spelling for the
/// simulator and the socket coordinator, because `scripts/verify.sh`
/// diffs this line between them.
pub(crate) fn write_groups(out: &mut impl Write, groups: usize) -> std::io::Result<()> {
    writeln!(out, "coordinator groups: {groups}")
}

/// The closing line of every journaling subcommand.
pub(crate) fn write_journal_note(out: &mut impl Write, journal: &Option<String>) -> std::io::Result<()> {
    if let Some(path) = journal {
        writeln!(out, "journal written to {path}")?;
    }
    Ok(())
}

/// The registry behind the subcommands whose sites run EM (`simulate`,
/// `site`): journaling when asked, with exact quantiles
/// alongside the histogram's power-of-two bounds for the deterministic
/// iterations-per-fit distribution.
pub(crate) fn em_registry(journal: &Option<String>) -> std::io::Result<Arc<Registry>> {
    let registry = journal_registry(journal)?;
    registry.track_quantiles(catalogue::EM_ITERS_PER_FIT);
    Ok(registry)
}

/// `simulate`: the workload on a simulated star, with the fault plan,
/// journal and trace export its flags ask for. The report's sections come
/// in a fixed order, each only when its condition holds.
pub(crate) fn run_simulate(
    workload: MetricsWorkload,
    reliable: bool,
    faults: Option<(f64, f64, f64)>,
    journal: Option<String>,
    trace_out: Option<String>,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let registry = em_registry(&journal)?;
    if trace_out.is_some() {
        registry.enable_tracing();
    }
    let run = workload.prepare(0, Obs::from_registry(Arc::clone(&registry)))?;
    let chunk_size = run.chunk_size;
    let (down, up) = run.outage_us();
    let plan = faults.map(|probabilities| run.fault_plan(workload.seed, probabilities));
    // Trace context rides the sequenced data frames, so a traced run is
    // always reliable — even fault-free.
    let report = run.simulate(reliable || trace_out.is_some(), plan)?;
    registry.flush_journal()?;

    writeln!(out, "sites: {} | chunk size M = {chunk_size} records", workload.sites)?;
    if let Some((drop, duplicate, reorder)) = faults {
        writeln!(
            out,
            "faults: drop={drop} duplicate={duplicate} reorder={reorder} | site 0 \
             down {:.3}s..{:.3}s",
            down as f64 / 1e6,
            up as f64 / 1e6,
        )?;
    }
    writeln!(
        out,
        "sim seconds: {:.3} | total bytes on the wire: {}",
        report.sim_seconds,
        report.comm.total_bytes()
    )?;
    write_groups(out, report.coordinator_groups)?;
    let d = &report.delivery;
    if d.reliable {
        writeln!(out)?;
        writeln!(out, "delivery (reliable = true):")?;
        writeln!(out, "  sent         : {:>6} msgs {:>8} bytes", d.sent_messages, d.sent_bytes)?;
        writeln!(
            out,
            "  delivered    : {:>6} msgs {:>8} bytes",
            d.delivered_messages, d.delivered_bytes
        )?;
        writeln!(
            out,
            "  dropped      : {:>6} msgs {:>8} bytes",
            d.dropped_messages, d.dropped_bytes
        )?;
        writeln!(
            out,
            "  duplicated   : {:>6} msgs {:>8} bytes",
            d.duplicated_messages, d.duplicated_bytes
        )?;
        writeln!(
            out,
            "  retransmitted: {:>6} msgs {:>8} bytes",
            d.retransmitted_messages, d.retransmitted_bytes
        )?;
        writeln!(out, "  acks         : {:>6} msgs {:>8} bytes", d.ack_messages, d.ack_bytes)?;
        writeln!(
            out,
            "  reordered {} | stale/dup discarded {} | crashes {} | restarts {}",
            d.reordered_messages, d.duplicates_discarded, d.crashes, d.restarts
        )?;
        writeln!(
            out,
            "  conservation : sent + duplicated == delivered + dropped ({})",
            if d.balanced() { "balanced" } else { "VIOLATED" }
        )?;
    }
    writeln!(out)?;
    write!(out, "{}", registry.render_table())?;
    if let Some(path) = &trace_out {
        let spans = registry.spans();
        writeln!(out)?;
        writeln!(out, "spans recorded: {}", spans.len())?;
        write!(out, "{}", analyze(&spans).render())?;
        std::fs::write(path, perfetto_json(&spans))?;
    }
    write_journal_note(out, &journal)?;
    if let Some(path) = trace_out {
        writeln!(out, "perfetto trace written to {path}")?;
    }
    Ok(())
}
