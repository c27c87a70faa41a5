use crate::sim::{
    em_registry, journal_registry, metrics_coordinator_config, write_groups, write_journal_note,
};
use crate::{CliError, MetricsWorkload};
use cludistream::runtime::{
    run_aggregator, run_site, serve, AggregatorRun, Control, CoordinatorRun, HealthAlert, SiteRun,
    SocketConfig,
};
use cludistream::{CoordinatorConfig, SnapshotHandle};
use cludistream_obs::{catalogue, perfetto_json, AlertSet, FleetAggregator, Obs};
use cludistream_wire::framing::{write_frame, FrameReader};
use cludistream_wire::ByteReader;
use std::io::Write;
use std::sync::Arc;

/// The listener and round options both serving roles (`coordinator`,
/// `aggregator`) accept.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOpts {
    /// Address to listen on for sites or child aggregators (`HOST:PORT`;
    /// port 0 picks one).
    pub listen: String,
    /// Heartbeat interval pushed to the children, milliseconds.
    pub heartbeat_ms: u64,
    /// Silence after which a child is evicted, milliseconds.
    pub timeout_ms: u64,
    /// Abort the round after this many seconds (0 = never); a CI
    /// safety net against wedged rounds.
    pub deadline_s: u64,
    /// Write the bound address (`HOST:PORT`) here once listening, so
    /// scripts can discover an ephemeral port.
    pub port_file: Option<String>,
    /// Write the JSONL event journal here.
    pub journal: Option<String>,
}

/// The `coordinator` subcommand's options.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorOpts {
    /// The listener and round options.
    pub serve: ServeOpts,
    /// Sites that must rendezvous before the round starts.
    pub sites: usize,
    /// Write the fleet's Chrome trace-event (Perfetto) JSON here:
    /// coordinator spans plus every telemetry-reporting site's spans,
    /// rebased onto the coordinator clock.
    pub trace_out: Option<String>,
    /// Write the end-of-round model snapshot (the coordinator's
    /// checkpoint, in the serving wire layout) here.
    pub snapshot_out: Option<String>,
    /// Evaluate the default model-health alert rules on every
    /// `health` scrape (the quality plane's alerting side).
    pub alerts: bool,
    /// Keep the listener answering bare-connection control frames
    /// (status, snapshot, health) this long after the round finishes,
    /// milliseconds (0 = exit immediately).
    pub linger_ms: u64,
    /// Emit coordinator-side model-quality gauges (weight entropy and
    /// extrema of the global mixture, merge/split churn EWMA).
    pub quality: bool,
}

/// The `aggregator` subcommand's options.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatorOpts {
    /// The listener and round options.
    pub serve: ServeOpts,
    /// Parent address to connect to (`HOST:PORT`).
    pub connect: String,
    /// The site index this node presents to its parent.
    pub site: usize,
    /// First global site index of the child range.
    pub child_base: usize,
    /// Children that must rendezvous before the subtree starts.
    pub children: usize,
}

/// Connects to a coordinator (or aggregator), sends the one control frame
/// `req`, and returns what `pick` extracts from the matching reply;
/// `what` names the exchange in error messages.
///
/// Works on a bare connection — no `Hello` handshake — so a scrape, a
/// snapshot pull or a health probe never counts as a site joining or
/// rejoining the round.
fn request<T>(
    addr: &str,
    req: Control,
    what: &str,
    pick: impl Fn(Control) -> Option<T>,
) -> std::io::Result<T> {
    use std::io::{Error, ErrorKind};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
    write_frame(&mut stream, req.encode().as_slice())?;
    let mut reader = FrameReader::new();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let polled = reader.poll(&mut stream)?;
        for payload in polled.frames {
            let control = Control::decode(&mut ByteReader::new(&payload))
                .map_err(|e| Error::new(ErrorKind::InvalidData, format!("{what}: {e}")))?;
            if let Some(reply) = pick(control) {
                return Ok(reply);
            }
        }
        if polled.eof {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                "coordinator closed the connection before replying",
            ));
        }
        if std::time::Instant::now() >= deadline {
            return Err(Error::new(ErrorKind::TimedOut, format!("no {what} reply within 5s")));
        }
    }
}

/// The Prometheus text exposition from a `StatusReply`.
fn scrape_status(addr: &str) -> std::io::Result<String> {
    let text = request(addr, Control::StatusRequest, "status", |c| match c {
        Control::StatusReply { text } => Some(text),
        _ => None,
    })?;
    String::from_utf8(text).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "status reply is not UTF-8")
    })
}

/// The `ModelSnapshot` wire bytes from a `SnapshotReply`. An empty reply
/// means the coordinator has not published (or captured) a model yet; the
/// caller decides whether to retry.
pub(crate) fn scrape_snapshot(addr: &str) -> std::io::Result<Vec<u8>> {
    request(addr, Control::SnapshotRequest, "snapshot", |c| match c {
        Control::SnapshotReply { snapshot } => Some(snapshot),
        _ => None,
    })
}

/// The alert verdicts from a `HealthReply`. An empty list means the
/// coordinator was started without `--alerts` (no rules to evaluate).
fn scrape_health(addr: &str) -> std::io::Result<Vec<HealthAlert>> {
    request(addr, Control::HealthRequest, "health", |c| match c {
        Control::HealthReply { alerts } => Some(alerts),
        _ => None,
    })
}

impl ServeOpts {
    /// Binds the listener of the serving role `role`.
    fn bind(&self, role: &str) -> Result<(std::net::TcpListener, std::net::SocketAddr), CliError> {
        let listen = &self.listen;
        let listener = std::net::TcpListener::bind(listen)
            .map_err(|e| CliError::Usage(format!("{role}: bind {listen}: {e}")))?;
        let addr = listener.local_addr().map_err(|e| CliError::Usage(format!("{role}: {e}")))?;
        Ok((listener, addr))
    }

    /// Ephemeral-port discovery for scripts: write-then-rename so a poller
    /// never reads a half-written file.
    fn publish_port(&self, addr: std::net::SocketAddr) -> std::io::Result<()> {
        if let Some(path) = &self.port_file {
            let tmp = format!("{path}.tmp");
            std::fs::write(&tmp, addr.to_string())?;
            std::fs::rename(&tmp, path)?;
        }
        Ok(())
    }

    /// The heartbeat, timeout and deadline as a [`SocketConfig`]
    /// (`deadline_s = 0` waits indefinitely).
    fn socket_config(&self) -> SocketConfig {
        let deadline = std::time::Duration::from_secs(self.deadline_s);
        SocketConfig {
            heartbeat_us: self.heartbeat_ms.saturating_mul(1_000),
            timeout_us: self.timeout_ms.saturating_mul(1_000),
            deadline: (self.deadline_s > 0).then_some(deadline),
            ..Default::default()
        }
    }
}

/// `coordinator`: the socket root of one round of the workload.
pub(crate) fn run_coordinator(opts: CoordinatorOpts, out: &mut impl Write) -> Result<(), CliError> {
    let registry = journal_registry(&opts.serve.journal)?;
    if opts.trace_out.is_some() {
        registry.enable_tracing();
    }
    let obs = Obs::from_registry(Arc::clone(&registry));
    // The fleet registry folds every site's telemetry deltas; the
    // `status` subcommand scrapes it mid-round over the same
    // listener.
    let fleet = Arc::new(FleetAggregator::new());
    // A CLI coordinator always publishes read-side snapshots:
    // `score --connect` can pull the live model mid-round, and
    // the end-of-round checkpoint lands in `--snapshot-out`.
    let mut builder = CoordinatorRun::builder(opts.sites)
        // The workload's coordinator configuration, so a socket
        // round is diffable against `simulate --reliable`.
        .coordinator(CoordinatorConfig { quality: opts.quality, ..metrics_coordinator_config() })
        .dim(1)
        .obs(obs)
        .socket(SocketConfig {
            linger: (opts.linger_ms > 0)
                .then(|| std::time::Duration::from_millis(opts.linger_ms)),
            ..opts.serve.socket_config()
        })
        .fleet(Arc::clone(&fleet))
        .snapshots(Arc::new(SnapshotHandle::new()));
    if opts.alerts {
        builder = builder.alerts(AlertSet::default_rules());
    }
    // Built before binding: a run the builder rejects opens no listener.
    let run =
        builder.build().map_err(|e| CliError::Usage(format!("coordinator: {e}")))?;
    let (listener, addr) = opts.serve.bind("coordinator")?;
    writeln!(out, "coordinator listening on {addr} for {} sites", opts.sites)?;
    out.flush()?;
    opts.serve.publish_port(addr)?;
    let report =
        serve(listener, run).map_err(|e| CliError::Usage(format!("coordinator: {e}")))?;
    registry.flush_journal()?;

    write_groups(out, report.groups)?;
    writeln!(
        out,
        "data bytes received: {} | acks: {} msgs {} bytes | dup/stale discarded: {}",
        report.comm.total_bytes(),
        report.ack_messages,
        report.ack_bytes,
        report.duplicates_discarded
    )?;
    writeln!(
        out,
        "resyncs served: {} | evicted sites: {:?} | ctrl sent: {} msgs {} bytes",
        report.resyncs,
        report.evicted,
        registry.counter_value(catalogue::NET_CTRL_MESSAGES.as_str()),
        registry.counter_value(catalogue::NET_CTRL_BYTES.as_str())
    )?;
    write_journal_note(out, &opts.serve.journal)?;
    if let Some(path) = opts.trace_out {
        // One timeline across processes: the coordinator's own
        // spans plus every site's, already rebased onto the
        // coordinator clock by the fleet aggregator.
        let mut spans = registry.spans();
        spans.extend(fleet.spans());
        std::fs::write(&path, perfetto_json(&spans))?;
        writeln!(out, "perfetto trace written to {path}")?;
    }
    if let Some(path) = opts.snapshot_out {
        // The end-of-round checkpoint, in the same wire layout
        // `score --model` and `score --connect` consume.
        match &report.snapshot {
            Some(snapshot) => {
                std::fs::write(&path, snapshot.encode().into_vec())?;
                writeln!(
                    out,
                    "model snapshot (version {}) written to {path}",
                    snapshot.version
                )?;
            }
            None => {
                writeln!(out, "no model snapshot to write (round produced no model)")?
            }
        }
    }
    Ok(())
}

/// `site`: one socket site of the workload.
pub(crate) fn run_site_role(
    connect: &str,
    site: usize,
    workload: MetricsWorkload,
    journal: Option<String>,
    trace: bool,
    quality: bool,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let registry = em_registry(&journal)?;
    registry.track_quantiles(catalogue::HB_RTT_US);
    // A CLI site always reports telemetry — its registry is its
    // own, so there is nothing to double-count — and keeps a
    // flight-recorder ring for crash forensics. Span recording
    // stays opt-in because trace context changes data-plane
    // frame bytes.
    registry.enable_telemetry();
    registry.enable_flight_recorder(64);
    if trace {
        registry.enable_tracing();
    }
    let obs = Obs::from_registry(Arc::clone(&registry));

    // This site's share of the workload; the per-site seed decorrelation
    // happens inside `run_site`, exactly as the simulator's driver does it.
    let mut prepared = workload.prepare(site, obs)?;
    let chunk_size = prepared.chunk_size;
    prepared.driver_config.site.quality = quality;
    let stream = prepared
        .streams
        .pop()
        .ok_or_else(|| CliError::Usage("site: the workload drives no site".into()))?;
    let run = SiteRun::builder(site, stream)
        .config(prepared.driver_config)
        .updates(prepared.updates)
        .telemetry(true)
        .build()
        .map_err(|e| CliError::Usage(format!("site: {e}")))?;
    let report =
        run_site(connect, run).map_err(|e| CliError::Usage(format!("site: {e}")))?;
    registry.flush_journal()?;

    writeln!(out, "site {site}: chunk size M = {chunk_size} records")?;
    writeln!(
        out,
        "records {} | chunks {} | clustered {} | models {}",
        report.stats.records, report.stats.chunks, report.stats.clustered, report.models
    )?;
    writeln!(
        out,
        "sent: {} msgs {} bytes | retransmitted: {} msgs {} bytes | resyncs: {}",
        report.sent_messages,
        report.sent_bytes,
        report.retransmitted_messages,
        report.retransmitted_bytes,
        report.resyncs
    )?;
    write_journal_note(out, &journal)?;
    Ok(())
}

/// `aggregator`: the socket fan-in tier between sites and a parent.
pub(crate) fn run_aggregator_role(opts: AggregatorOpts, out: &mut impl Write) -> Result<(), CliError> {
    let registry = journal_registry(&opts.serve.journal)?;
    registry.track_quantiles(catalogue::HB_RTT_US);
    // Like a CLI opts.site, an aggregator always reports telemetry
    // upward, so the root's fleet registry shows the subtree
    // under this node's `opts.site<I>.` prefix.
    registry.enable_telemetry();
    let obs = Obs::from_registry(Arc::clone(&registry));
    // The subtree's own fleet registry: `status --opts.connect` against
    // this listener scrapes the opts.children this node serves.
    let fleet = Arc::new(FleetAggregator::new());
    // Built before binding, as for the coordinator.
    let run = AggregatorRun::builder(opts.site as u32, opts.child_base as u32, opts.children)
        // The metrics-workload coordinator; the engine caps its merge log.
        .coordinator(metrics_coordinator_config())
        .dim(1)
        .obs(obs)
        .telemetry(true)
        .fleet(Arc::clone(&fleet))
        .socket(opts.serve.socket_config())
        .build()
        .map_err(|e| CliError::Usage(format!("aggregator: {e}")))?;
    let (listener, addr) = opts.serve.bind("aggregator")?;
    writeln!(
        out,
        "aggregator {} listening on {addr} for sites {}..{}",
        opts.site,
        opts.child_base,
        opts.child_base + opts.children
    )?;
    out.flush()?;
    opts.serve.publish_port(addr)?;
    let report = run_aggregator(&opts.connect, listener, run)
        .map_err(|e| CliError::Usage(format!("aggregator: {e}")))?;
    registry.flush_journal()?;

    writeln!(out, "aggregator groups: {}", report.groups)?;
    writeln!(
        out,
        "child messages folded: {} | event-table rows held here: {}",
        report.messages_applied, report.event_table_entries
    )?;
    writeln!(
        out,
        "flushes up: {} ({} suppressed) | up: {} msgs {} bytes | retransmitted: {} msgs {} bytes",
        report.flushes,
        report.flushes_suppressed,
        report.sent_messages,
        report.sent_bytes,
        report.retransmitted_messages,
        report.retransmitted_bytes
    )?;
    writeln!(
        out,
        "down: acks {} msgs {} bytes | dup/stale discarded: {} | decode errors: {}",
        report.ack_messages, report.ack_bytes, report.duplicates_discarded,
        report.decode_errors
    )?;
    writeln!(
        out,
        "resyncs: up {} down {} | evicted sites: {:?}",
        report.resyncs_up, report.resyncs_down, report.evicted
    )?;
    write_journal_note(out, &opts.serve.journal)?;
    Ok(())
}

/// `health`: the coordinator's alert verdicts; errors while any fires.
pub(crate) fn run_health(connect: &str, out: &mut impl Write) -> Result<(), CliError> {
    let alerts = scrape_health(connect)
        .map_err(|e| CliError::Usage(format!("health: {connect}: {e}")))?;
    if alerts.is_empty() {
        writeln!(out, "no alert rules configured (start the coordinator with --alerts)")?;
        return Ok(());
    }
    let firing = alerts.iter().filter(|a| a.firing).count();
    for a in &alerts {
        writeln!(
            out,
            "{} {:<18} {} = {} (threshold {})",
            if a.firing { "FIRING" } else { "ok    " },
            a.name,
            a.metric,
            a.value,
            a.threshold
        )?;
    }
    writeln!(out, "{firing}/{} alerts firing", alerts.len())?;
    if firing > 0 {
        return Err(CliError::AlertsFiring(firing));
    }
    Ok(())
}

/// `status`: the fleet registry in Prometheus text exposition.
pub(crate) fn run_status(connect: &str, watch: u64, out: &mut impl Write) -> Result<(), CliError> {
    loop {
        let text = scrape_status(connect)
            .map_err(|e| CliError::Usage(format!("status: {connect}: {e}")))?;
        out.write_all(text.as_bytes())?;
        out.flush()?;
        if watch == 0 {
            break;
        }
        writeln!(out)?;
        std::thread::sleep(std::time::Duration::from_secs(watch));
    }
    Ok(())
}
