#![warn(missing_docs)]

//! Command-line interface to the CluDistream reproduction.
//!
//! Three subcommands over CSV data (numeric records, one per row, optional
//! header):
//!
//! - `cluster` — batch EM over a whole file, with optional BIC selection
//!   of the component count; prints the mixture and per-record soft
//!   memberships.
//! - `stream` — replay the file through a CluDistream remote site: the
//!   test-and-cluster narration, the final model list, and the event
//!   table.
//! - `generate` — write a synthetic evolving-GMM stream to CSV (for
//!   demos and round-trip testing).
//! - `metrics` — run a small deterministic distributed workload with the
//!   telemetry layer attached and print the metrics table; `--journal`
//!   additionally writes the structured event journal as JSONL.
//! - `trace` — run the same workload with causal tracing on and print the
//!   critical-path latency profile; `--out` writes a Chrome trace-event
//!   (Perfetto-loadable) JSON file, byte-identical across runs.
//! - `coordinator` / `site` — the process-per-site socket runtime: the
//!   `metrics` workload over real loopback TCP, one process per role.
//!   See `docs/OPERATIONS.md` for the operator's manual.
//! - `aggregator` — the intermediate fan-in tier for large fleets: serves
//!   a contiguous range of sites (or child aggregators) exactly like the
//!   coordinator, pre-merges their synopses, and forwards one reduced
//!   update per flush interval to its parent, so the root's ingress is
//!   O(aggregators) instead of O(sites).
//! - `status` — scrape a running coordinator's fleet registry over the
//!   same TCP listener and print it in Prometheus text exposition;
//!   `--watch SECS` re-scrapes on an interval.
//! - `health` — ask a coordinator started with `--alerts` to evaluate
//!   its model-health alert rules; prints the verdict table and exits
//!   non-zero while any alert fires.
//! - `score` — batched Definition-1 assignment of a CSV file against a
//!   published model snapshot, read from a file (`--model`, e.g.
//!   `coordinator --snapshot-out`) or pulled from a live coordinator
//!   (`--connect`).
//!
//! Every data-reading subcommand (`cluster`, `stream`, `score`) accepts
//! the same `--input/--dim/--covariance` trio ([`DataOpts`]), and every
//! subcommand that runs the `metrics` workload (`metrics`, `faults`,
//! `trace`, `site`) the same `--sites/--chunks/--seed/--epsilon` description
//! ([`MetricsWorkload`]); each is parsed once. The argument
//! parser is deliberately dependency-free; see [`parse_args`].

use cludistream::coordinator::MergeRefiner;
use cludistream::runtime::{
    run_aggregator, run_site, serve, AggregatorRun, Control, CoordinatorRun, HealthAlert, SiteRun,
    SocketConfig,
};
use cludistream::score_snapshot;
use cludistream::{
    ChunkOutcome, Config, CoordinatorConfig, DeliveryConfig, DeliveryMode, DriverConfig,
    FaultPlan, LinkFaults, ModelSnapshot, NodeId, RecordStream, RemoteSite, SimnetTransport,
    Simulation, SnapshotHandle, StarReport,
};
use cludistream_datagen::csvio;
use cludistream_datagen::{EvolvingStream, EvolvingStreamConfig};
use cludistream_gmm::{
    fit_em, fit_em_bic, Batch, ChunkParams, CovarianceType, EmConfig, Gaussian, Mixture,
};
use cludistream_linalg::Vector;
use cludistream_obs::{
    analyze, catalogue, perfetto_json, AlertSet, FleetAggregator, Obs, QualityConfig, Registry,
};
use cludistream_rng::StdRng;
use cludistream_wire::framing::{write_frame, FrameReader};
use cludistream_wire::ByteReader;
use std::io::Write;
use std::sync::Arc;

/// The `--input/--dim/--covariance` trio every data-reading subcommand
/// (`cluster`, `stream`, `score`) accepts.
#[derive(Debug, Clone, PartialEq)]
pub struct DataOpts {
    /// Input CSV path — `--input PATH` or the first positional argument;
    /// `-` reads stdin.
    pub input: String,
    /// Expected record dimension (`--dim D`); when set, the parsed
    /// records are validated against it instead of silently inferring.
    pub dim: Option<usize>,
    /// Covariance structure (`--covariance full|diagonal`, default full).
    pub covariance: CovarianceType,
}

/// The deterministic two-regime workload behind `metrics`, `faults`,
/// `trace` and the socket `site` role, engineered so every event type
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

/// The `coordinator` subcommand's options.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorOpts {
    /// Address to listen on (`HOST:PORT`; port 0 picks one).
    pub listen: String,
    /// Sites that must rendezvous before the round starts.
    pub sites: usize,
    /// Heartbeat interval pushed to the sites, milliseconds.
    pub heartbeat_ms: u64,
    /// Silence after which a site is evicted, milliseconds.
    pub timeout_ms: u64,
    /// Abort the round after this many seconds (0 = never); a CI
    /// safety net against wedged rounds.
    pub deadline_s: u64,
    /// Write the bound address (`HOST:PORT`) here once listening, so
    /// scripts can discover an ephemeral port.
    pub port_file: Option<String>,
    /// Write the JSONL event journal here.
    pub journal: Option<String>,
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
    /// Parent address to connect to (`HOST:PORT`).
    pub connect: String,
    /// Address to listen on for children (`HOST:PORT`; port 0 picks
    /// one).
    pub listen: String,
    /// The site index this node presents to its parent.
    pub site: usize,
    /// First global site index of the child range.
    pub child_base: usize,
    /// Children that must rendezvous before the subtree starts.
    pub children: usize,
    /// Suppression threshold: an upward flush is skipped while the
    /// reduced summary moved less than this (0 = forward every
    /// change). Distinct from the sites' chunk ε.
    pub epsilon: f64,
    /// Minimum milliseconds between upward flushes.
    pub flush_ms: u64,
    /// Heartbeat interval pushed to the children, milliseconds.
    pub heartbeat_ms: u64,
    /// Silence after which a child is evicted, milliseconds.
    pub timeout_ms: u64,
    /// Abort the round after this many seconds (0 = never).
    pub deadline_s: u64,
    /// Write the bound address (`HOST:PORT`) here once listening, so
    /// scripts can discover an ephemeral port.
    pub port_file: Option<String>,
    /// Write the JSONL event journal here.
    pub journal: Option<String>,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Batch EM over a CSV file.
    Cluster {
        /// Input data selection (`--input/--dim/--covariance`).
        data: DataOpts,
        /// Fixed component count, or None with `k_range` set.
        k: usize,
        /// BIC range when `--auto-k lo..hi` was passed.
        k_range: Option<(usize, usize)>,
        /// RNG seed.
        seed: u64,
        /// Print per-record memberships.
        memberships: bool,
    },
    /// Stream a CSV file through a remote site.
    Stream {
        /// Input data selection (`--input/--dim/--covariance`).
        data: DataOpts,
        /// Components per model.
        k: usize,
        /// Error bound ε.
        epsilon: f64,
        /// Probability bound δ.
        delta: f64,
        /// Multi-test depth.
        c_max: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Generate a synthetic evolving stream as CSV.
    Generate {
        /// Records to emit.
        records: usize,
        /// Dimensionality.
        dim: usize,
        /// Clusters per regime.
        k: usize,
        /// Regime-change probability per 2000 records.
        p_new: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Run an instrumented deterministic workload and print telemetry.
    Metrics {
        /// The star to simulate.
        workload: MetricsWorkload,
        /// Write the JSONL event journal here.
        journal: Option<String>,
        /// Use the reliable delivery protocol even without faults (what
        /// the socket runtime always does; lets `metrics` journals be
        /// diffed against socket-runtime journals).
        reliable: bool,
    },
    /// Run the metrics workload over a lossy network with one site
    /// crash/restart, exercising the reliable delivery protocol.
    Faults {
        /// The star to simulate.
        workload: MetricsWorkload,
        /// Per-message drop probability on every link.
        drop: f64,
        /// Per-message duplication probability.
        duplicate: f64,
        /// Per-message reorder probability.
        reorder: f64,
        /// Write the JSONL event journal here.
        journal: Option<String>,
    },
    /// Run the metrics workload with causal tracing enabled and print the
    /// critical-path latency profile; optionally export a Perfetto trace.
    Trace {
        /// The star to simulate.
        workload: MetricsWorkload,
        /// Attach the `faults` command's lossy network and site-0 outage.
        faults: bool,
        /// Write Chrome trace-event (Perfetto) JSON here.
        out: Option<String>,
    },
    /// Serve the socket coordinator for one round of the `metrics`
    /// workload over real TCP.
    Coordinator(CoordinatorOpts),
    /// Run one socket site of the `metrics` workload against a
    /// coordinator.
    Site {
        /// Coordinator address to connect to (`HOST:PORT`).
        connect: String,
        /// This site's index in `0..sites`.
        site: usize,
        /// This site's share of the star (mirrors `metrics`' flags).
        workload: MetricsWorkload,
        /// Write the JSONL event journal here.
        journal: Option<String>,
        /// Record spans locally and ship them to the coordinator over the
        /// telemetry plane. Changes data-plane frame bytes (trace context
        /// rides the data frames), so byte accounting is only comparable
        /// across runs that agree on this flag.
        trace: bool,
        /// Turn on the site's streaming quality plane: per-chunk model
        /// quality gauges plus the Page-Hinkley and EWMA drift detectors
        /// over the held-out average log-likelihood.
        quality: bool,
    },
    /// Run an intermediate fan-in aggregator between a contiguous range
    /// of sites (or child aggregators) and a parent coordinator (or
    /// aggregator): downward it speaks the coordinator's protocol,
    /// upward it plays one site forwarding pre-merged reduced updates.
    Aggregator(AggregatorOpts),
    /// Score a CSV file against a published model snapshot: batched
    /// Definition-1 assignment (hard label, responsibilities,
    /// log-likelihood) using the SoA density kernels.
    Score {
        /// Input data selection (`--input/--dim/--covariance`).
        data: DataOpts,
        /// Read the snapshot from this file (`ModelSnapshot` wire bytes,
        /// e.g. `coordinator --snapshot-out`).
        model: Option<String>,
        /// Pull the latest snapshot from a live coordinator at
        /// `HOST:PORT` over a `SnapshotRequest` control frame.
        connect: Option<String>,
        /// Print per-record responsibilities alongside the hard label.
        responsibilities: bool,
    },
    /// Scrape a running coordinator's fleet metrics over TCP and print
    /// them in Prometheus text exposition format.
    Status {
        /// Coordinator address to scrape (`HOST:PORT`).
        connect: String,
        /// Re-scrape every this many seconds (0 = scrape once and exit).
        watch: u64,
    },
    /// Ask a running coordinator (started with `--alerts`) to evaluate
    /// its model-health alert rules and print the verdicts. Exits
    /// non-zero while any alert fires, so scripts and probes can gate on
    /// it directly.
    Health {
        /// Coordinator address to query (`HOST:PORT`).
        connect: String,
    },
    /// Print usage.
    Help,
}

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// CSV parse failure.
    Csv(csvio::CsvError),
    /// Algorithm failure.
    Gmm(cludistream_gmm::GmmError),
    /// I/O failure.
    Io(std::io::Error),
    /// `health` found this many alert rules firing. Carried as an error
    /// so the process exits non-zero — the rule table has already been
    /// printed to stdout by then.
    AlertsFiring(usize),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Csv(e) => write!(f, "{e}"),
            CliError::Gmm(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::AlertsFiring(n) => {
                write!(f, "health: {n} alert{} firing", if *n == 1 { "" } else { "s" })
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<csvio::CsvError> for CliError {
    fn from(e: csvio::CsvError) -> Self {
        CliError::Csv(e)
    }
}
impl From<cludistream_gmm::GmmError> for CliError {
    fn from(e: cludistream_gmm::GmmError) -> Self {
        CliError::Gmm(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Usage text.
pub const USAGE: &str = "\
cludistream — EM-based (distributed) data stream clustering

USAGE:
  cludistream cluster  <csv|-> [--dim D] [--covariance full|diagonal] [--k N]
                       [--auto-k LO..HI] [--seed S] [--memberships]
  cludistream stream   <csv|-> [--dim D] [--covariance full|diagonal] [--k N]
                       [--epsilon E] [--delta D] [--c-max C] [--seed S]
  cludistream score    <csv|-> (--model SNAP.bin | --connect HOST:PORT) [--dim D]
                       [--covariance full|diagonal] [--responsibilities]
  cludistream generate [--records N] [--dim D] [--k K] [--p-new P] [--seed S]
  cludistream metrics  [--sites R] [--chunks C] [--seed S] [--epsilon E] [--journal OUT.jsonl]
                       [--reliable]
  cludistream faults   [--sites R] [--chunks C] [--seed S] [--epsilon E]
                       [--drop P] [--duplicate P] [--reorder P] [--journal OUT.jsonl]
  cludistream trace    [--sites R] [--chunks C] [--seed S] [--epsilon E]
                       [--faults] [--out TRACE.json]
  cludistream coordinator [--listen HOST:PORT] [--sites R] [--heartbeat-ms H]
                       [--timeout-ms T] [--deadline-s D] [--port-file PATH]
                       [--journal OUT.jsonl] [--trace-out TRACE.json]
                       [--snapshot-out SNAP.bin] [--alerts] [--linger-ms L]
                       [--quality]
  cludistream site     --connect HOST:PORT [--site I] [--chunks C] [--seed S]
                       [--epsilon E] [--journal OUT.jsonl] [--trace]
                       [--quality]
  cludistream aggregator --connect HOST:PORT [--listen HOST:PORT] [--site I]
                       [--child-base B] [--children N] [--epsilon E] [--flush-ms F]
                       [--heartbeat-ms H] [--timeout-ms T] [--deadline-s D]
                       [--port-file PATH] [--journal OUT.jsonl]
  cludistream status   --connect HOST:PORT [--watch SECS]
  cludistream health   --connect HOST:PORT
  cludistream help

Defaults: k=5, epsilon=0.02, delta=0.01, c-max=4, seed=0, covariance=full,
          records=10000, dim=4, p-new=0.1,
          metrics: sites=2, chunks=2, seed=7, epsilon=0.15,
          faults: metrics defaults + drop=0.1, duplicate=0.05, reorder=0.25,
          trace: metrics defaults,
          coordinator: listen=127.0.0.1:0, sites=2, heartbeat-ms=500,
                       timeout-ms=5000, deadline-s=0 (none), linger-ms=0,
          site: site=0, metrics workload defaults,
          aggregator: listen=127.0.0.1:0, site=0, child-base=0, children=2,
                      epsilon=0 (forward every change), flush-ms=50,
                      heartbeat-ms=500, timeout-ms=5000, deadline-s=0 (none),
          status: watch=0 (scrape once).

`coordinator` and `site` run the metrics workload distributed for real:
one coordinator process and one process per site, talking length-prefixed
frames over TCP (the same synopsis bytes the simulator accounts). The
coordinator waits for all R sites, broadcasts start, evicts sites silent
past --timeout-ms, and a site that reconnects resyncs via go-back-N.
See docs/OPERATIONS.md for the full operator's manual.

`aggregator` inserts a fan-in tier between the sites and the root: point
sites `B..B+N` at its listener (`--child-base B --children N`) and point
the aggregator's `--connect` at the root coordinator (or another
aggregator, for 3-level trees), started with `--sites` equal to the
number of *direct* children it serves. Downward it is indistinguishable
from a coordinator (rendezvous, heartbeats, eviction, go-back-N resync);
upward it forwards one pre-merged reduced update per `--flush-ms`
interval as site `--site I`, so the root's ingress and event table scale
with the number of aggregators, not sites. `status --connect` works
against an aggregator's listener too and reports its subtree.

Sites piggyback metric/span deltas on their heartbeats; the coordinator
folds them into a fleet registry that `status --connect` scrapes over the
same listener (Prometheus text exposition). `coordinator --trace-out`
writes one Perfetto JSON spanning every process, with remote spans
rebased onto the coordinator clock; site spans only exist under
`site --trace`.

The model-quality plane is opt-in end to end: `site --quality` streams
per-chunk quality gauges (held-out avg log-likelihood, test statistic,
weight entropy/extrema, re-cluster-rate EWMA, synopsis bytes/record) and
runs Page-Hinkley + EWMA drift detectors over the likelihood series;
`coordinator --quality` adds global-mixture weight gauges and the
merge/split churn EWMA; `coordinator --alerts` evaluates the default
alert rules on every `health --connect` probe, which prints the verdict
table and exits non-zero while any rule fires (probe-friendly).
`--linger-ms` keeps the listener answering status/snapshot/health
scrapes after the round ends.

`score` assigns every record of a CSV file to its most probable model
component (Definition 1) with the batched SoA density kernels: hard
label, per-component responsibilities (`--responsibilities`), and the
average log-likelihood. The snapshot comes from a file written by
`coordinator --snapshot-out` (`--model`) or is pulled live from a
running coordinator over a SnapshotRequest control frame (`--connect`).

`faults` replays the metrics workload over a lossy network (crashing and
restarting site 0 mid-run) and prints the delivery accounting.

`trace` replays the metrics workload with causal tracing on (always over
the reliable protocol, so trace context rides the data frames), prints
the critical-path latency attribution, and with `--out` writes a
Perfetto-loadable Chrome trace-event JSON; `--faults` adds the `faults`
command's default fault plan so retransmit time shows up on the path.
";

/// The flags one subcommand accepts. [`parse_args`] checks the argument
/// tail against its subcommand's table, so a misspelt flag or a missing
/// value is a usage error instead of a silent default.
struct FlagTable {
    /// Flags followed by a value.
    values: &'static [&'static str],
    /// Flags that stand alone.
    booleans: &'static [&'static str],
    /// Whether one positional argument (the input file) is accepted.
    positional: bool,
}

/// The flag table of `cmd`; `None` for an unknown subcommand.
fn flag_table(cmd: &str) -> Option<FlagTable> {
    let (values, booleans, positional): (&[&str], &[&str], bool) = match cmd {
        "cluster" => (
            &["--input", "--dim", "--covariance", "--k", "--auto-k", "--seed"],
            &["--memberships"],
            true,
        ),
        "stream" => (
            &[
                "--input", "--dim", "--covariance", "--k", "--epsilon", "--delta", "--c-max",
                "--seed",
            ],
            &[],
            true,
        ),
        "score" => (
            &["--input", "--dim", "--covariance", "--model", "--connect"],
            &["--responsibilities"],
            true,
        ),
        "generate" => (&["--records", "--dim", "--k", "--p-new", "--seed"], &[], false),
        "metrics" => (
            &["--sites", "--chunks", "--seed", "--epsilon", "--journal"],
            &["--reliable"],
            false,
        ),
        "faults" => (
            &[
                "--sites", "--chunks", "--seed", "--epsilon", "--drop",
                "--duplicate", "--reorder", "--journal",
            ],
            &[],
            false,
        ),
        "trace" => (
            &["--sites", "--chunks", "--seed", "--epsilon", "--out"],
            &["--faults"],
            false,
        ),
        "coordinator" => (
            &[
                "--listen", "--sites", "--heartbeat-ms", "--timeout-ms", "--deadline-s",
                "--port-file", "--journal", "--trace-out", "--snapshot-out", "--linger-ms",
            ],
            &["--alerts", "--quality"],
            false,
        ),
        "site" => (
            &["--connect", "--site", "--chunks", "--seed", "--epsilon", "--journal"],
            &["--trace", "--quality"],
            false,
        ),
        "aggregator" => (
            &[
                "--connect", "--listen", "--site", "--child-base", "--children", "--epsilon",
                "--flush-ms", "--heartbeat-ms", "--timeout-ms", "--deadline-s", "--port-file",
                "--journal",
            ],
            &[],
            false,
        ),
        "status" => (&["--connect", "--watch"], &[], false),
        "health" => (&["--connect"], &[], false),
        _ => return None,
    };
    Some(FlagTable { values, booleans, positional })
}

impl FlagTable {
    /// Checks a subcommand's argument tail: every `--flag` is in the
    /// table, every value flag is followed by its value, and the one
    /// token no value flag consumed is the positional input (returned).
    fn check<'a>(&self, rest: &[&'a String]) -> Result<Option<&'a str>, CliError> {
        let mut positional = None;
        let mut tokens = rest.iter().map(|t| t.as_str());
        while let Some(token) = tokens.next() {
            if self.values.contains(&token) {
                if tokens.next().is_none_or(|value| value.starts_with("--")) {
                    return Err(CliError::Usage(format!("{token} expects a value")));
                }
            } else if token.starts_with("--") {
                if !self.booleans.contains(&token) {
                    return Err(CliError::Usage(format!("unknown flag {token:?}; try help")));
                }
            } else if self.positional && positional.is_none() {
                positional = Some(token);
            } else {
                return Err(CliError::Usage(format!("unexpected argument {token:?}")));
            }
        }
        Ok(positional)
    }
}

/// Parses a command line (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let rest: Vec<&String> = it.collect();
    let table = flag_table(cmd)
        .ok_or_else(|| CliError::Usage(format!("unknown command {cmd:?}; try help")))?;
    let positional = table.check(&rest)?;
    let flag = |name: &str| -> Option<&str> {
        rest.iter()
            .position(|a| a.as_str() == name)
            .and_then(|i| rest.get(i + 1))
            .map(|s| s.as_str())
    };
    let has = |name: &str| rest.iter().any(|a| a.as_str() == name);
    let parse_num = |name: &str, default: f64| -> Result<f64, CliError> {
        match flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("{name} expects a number, got {v:?}"))),
        }
    };
    let parse_int = |name: &str, default: usize| -> Result<usize, CliError> {
        match flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("{name} expects an integer, got {v:?}"))),
        }
    };
    // The shared `--input/--dim/--covariance` trio. The input is
    // `--input PATH` or the positional argument (`-` for stdin); `--dim`
    // is validated against the parsed records when the input is read.
    let data_opts = || -> Result<DataOpts, CliError> {
        let input = flag("--input").or(positional).ok_or_else(|| {
            CliError::Usage("missing input file (use --input PATH or - for stdin)".into())
        })?;
        let dim = flag("--dim").map(|_| parse_int("--dim", 0)).transpose()?;
        if dim == Some(0) {
            return Err(CliError::Usage("--dim expects an integer >= 1".into()));
        }
        let covariance = match flag("--covariance") {
            None | Some("full") => CovarianceType::Full,
            Some("diagonal") => CovarianceType::Diagonal,
            Some(other) => {
                return Err(CliError::Usage(format!(
                    "--covariance expects full or diagonal, got {other:?}"
                )))
            }
        };
        Ok(DataOpts { input: input.to_string(), dim, covariance })
    };
    // The shared metrics-workload description. `site` has no `--sites`:
    // it runs one site of the star.
    let workload = |default_sites: usize| -> Result<MetricsWorkload, CliError> {
        Ok(MetricsWorkload {
            sites: parse_int("--sites", default_sites)?.max(1),
            chunks: parse_int("--chunks", 2)?.max(1),
            seed: parse_int("--seed", 7)? as u64,
            epsilon: parse_num("--epsilon", 0.15)?,
        })
    };
    let owned = |name: &str| flag(name).map(|s| s.to_string());
    let require_connect = || -> Result<String, CliError> {
        owned("--connect")
            .ok_or_else(|| CliError::Usage(format!("{cmd} requires --connect HOST:PORT")))
    };
    match cmd.as_str() {
        "cluster" => {
            let k_range = match flag("--auto-k") {
                None => None,
                Some(spec) => {
                    let parts: Vec<&str> = spec.split("..").collect();
                    let parsed = (parts.len() == 2)
                        .then(|| {
                            Some((parts[0].parse::<usize>().ok()?, parts[1].parse::<usize>().ok()?))
                        })
                        .flatten();
                    match parsed {
                        Some((lo, hi)) if lo >= 1 && hi >= lo => Some((lo, hi)),
                        _ => {
                            return Err(CliError::Usage(format!(
                                "--auto-k expects LO..HI with 1 <= LO <= HI, got {spec:?}"
                            )))
                        }
                    }
                }
            };
            Ok(Command::Cluster {
                data: data_opts()?,
                k: parse_int("--k", 5)?,
                k_range,
                seed: parse_int("--seed", 0)? as u64,
                memberships: has("--memberships"),
            })
        }
        "stream" => Ok(Command::Stream {
            data: data_opts()?,
            k: parse_int("--k", 5)?,
            epsilon: parse_num("--epsilon", 0.02)?,
            delta: parse_num("--delta", 0.01)?,
            c_max: parse_int("--c-max", 4)?,
            seed: parse_int("--seed", 0)? as u64,
        }),
        "generate" => Ok(Command::Generate {
            records: parse_int("--records", 10_000)?,
            dim: parse_int("--dim", 4)?,
            k: parse_int("--k", 5)?,
            p_new: parse_num("--p-new", 0.1)?,
            seed: parse_int("--seed", 0)? as u64,
        }),
        "metrics" => Ok(Command::Metrics {
            workload: workload(2)?,
            journal: owned("--journal"),
            reliable: has("--reliable"),
        }),
        "faults" => Ok(Command::Faults {
            workload: workload(2)?,
            drop: parse_num("--drop", FAULT_DEFAULTS.0)?,
            duplicate: parse_num("--duplicate", FAULT_DEFAULTS.1)?,
            reorder: parse_num("--reorder", FAULT_DEFAULTS.2)?,
            journal: owned("--journal"),
        }),
        "trace" => Ok(Command::Trace {
            workload: workload(2)?,
            faults: has("--faults"),
            out: owned("--out"),
        }),
        "coordinator" => Ok(Command::Coordinator(CoordinatorOpts {
            listen: flag("--listen").unwrap_or("127.0.0.1:0").to_string(),
            sites: parse_int("--sites", 2)?.max(1),
            heartbeat_ms: parse_int("--heartbeat-ms", 500)?.max(1) as u64,
            timeout_ms: parse_int("--timeout-ms", 5_000)?.max(1) as u64,
            deadline_s: parse_int("--deadline-s", 0)? as u64,
            port_file: owned("--port-file"),
            journal: owned("--journal"),
            trace_out: owned("--trace-out"),
            snapshot_out: owned("--snapshot-out"),
            alerts: has("--alerts"),
            linger_ms: parse_int("--linger-ms", 0)? as u64,
            quality: has("--quality"),
        })),
        "score" => {
            let model = owned("--model");
            let connect = owned("--connect");
            if model.is_some() == connect.is_some() {
                return Err(CliError::Usage(
                    "score requires exactly one of --model PATH or --connect HOST:PORT".into(),
                ));
            }
            Ok(Command::Score {
                data: data_opts()?,
                model,
                connect,
                responsibilities: has("--responsibilities"),
            })
        }
        "site" => Ok(Command::Site {
            connect: require_connect()?,
            site: parse_int("--site", 0)?,
            workload: workload(1)?,
            journal: owned("--journal"),
            trace: has("--trace"),
            quality: has("--quality"),
        }),
        "aggregator" => Ok(Command::Aggregator(AggregatorOpts {
            connect: require_connect()?,
            listen: flag("--listen").unwrap_or("127.0.0.1:0").to_string(),
            site: parse_int("--site", 0)?,
            child_base: parse_int("--child-base", 0)?,
            children: parse_int("--children", 2)?.max(1),
            epsilon: parse_num("--epsilon", 0.0)?,
            flush_ms: parse_int("--flush-ms", 50)?.max(1) as u64,
            heartbeat_ms: parse_int("--heartbeat-ms", 500)?.max(1) as u64,
            timeout_ms: parse_int("--timeout-ms", 5_000)?.max(1) as u64,
            deadline_s: parse_int("--deadline-s", 0)? as u64,
            port_file: owned("--port-file"),
            journal: owned("--journal"),
        })),
        "health" => Ok(Command::Health { connect: require_connect()? }),
        "status" => {
            Ok(Command::Status { connect: require_connect()?, watch: parse_int("--watch", 0)? as u64 })
        }
        other => unreachable!("{other:?} has a flag table but no parser"),
    }
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
fn scrape_snapshot(addr: &str) -> std::io::Result<Vec<u8>> {
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

/// The registry behind a subcommand's observer, journaling to `journal`
/// when a path was given.
fn journal_registry(journal: &Option<String>) -> std::io::Result<Arc<Registry>> {
    Ok(Arc::new(match journal {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            Registry::with_journal(Box::new(std::io::BufWriter::new(file)))
        }
        None => Registry::new(),
    }))
}

/// Binds the listener of a serving role (`coordinator`, `aggregator`).
fn bind_listener(
    role: &str,
    listen: &str,
) -> Result<(std::net::TcpListener, std::net::SocketAddr), CliError> {
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| CliError::Usage(format!("{role}: bind {listen}: {e}")))?;
    let addr = listener.local_addr().map_err(|e| CliError::Usage(format!("{role}: {e}")))?;
    Ok((listener, addr))
}

/// Ephemeral-port discovery for scripts: write-then-rename so a poller
/// never reads a half-written file.
fn publish_port(port_file: &Option<String>, addr: std::net::SocketAddr) -> std::io::Result<()> {
    if let Some(path) = port_file {
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, addr.to_string())?;
        std::fs::rename(&tmp, path)?;
    }
    Ok(())
}

/// The `--heartbeat-ms/--timeout-ms/--deadline-s` trio of the serving
/// roles as a [`SocketConfig`] (`deadline_s = 0` waits indefinitely).
fn socket_config(heartbeat_ms: u64, timeout_ms: u64, deadline_s: u64) -> SocketConfig {
    SocketConfig {
        heartbeat_us: heartbeat_ms.saturating_mul(1_000),
        timeout_us: timeout_ms.saturating_mul(1_000),
        deadline: (deadline_s > 0).then(|| std::time::Duration::from_secs(deadline_s)),
        ..Default::default()
    }
}

/// `faults`' default per-message (drop, duplicate, reorder)
/// probabilities; `trace --faults` replays the same plan.
const FAULT_DEFAULTS: (f64, f64, f64) = (0.1, 0.05, 0.25);

/// The coordinator half of the `metrics` workload: fewer groups than the
/// regimes produce, so merges (with simplex refinement) must happen.
fn metrics_coordinator_config() -> CoordinatorConfig {
    CoordinatorConfig {
        max_groups: 2,
        refine_merges: true,
        refiner: MergeRefiner { samples: 32, max_evals: 100, seed: 9 },
        ..Default::default()
    }
}

/// The site half of the `metrics` workload: 1-d, K = 2, up to four
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

/// One site's stream of the `metrics` workload: `per_regime` records of
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

/// A [`MetricsWorkload`] assembled for a run. `metrics`, `faults`,
/// `trace` and the socket `site` role all start from this, which is what
/// keeps their journals diffable against each other.
struct PreparedRun {
    /// Chunk size M (Theorem 1) under the workload's ε.
    chunk_size: usize,
    /// Records each site consumes (both regimes).
    updates: u64,
    /// One stream per site driven, in site order.
    streams: Vec<RecordStream>,
    /// Site and coordinator configuration with the observer attached.
    driver_config: DriverConfig,
    /// Nominal simulated duration at the driver's record rate.
    duration_us: u64,
}

impl MetricsWorkload {
    /// Assembles the run for sites `first_site..first_site + self.sites`
    /// (a simulated star starts at 0; a socket `site` is its own index).
    fn prepare(&self, first_site: usize, obs: Obs) -> Result<PreparedRun, CliError> {
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
    /// The `faults` outage: site 0 crashes at 40% of the nominal run and
    /// comes back at 55%, recovering from its last checkpoint.
    fn outage_us(&self) -> (u64, u64) {
        (self.duration_us * 2 / 5, self.duration_us * 11 / 20)
    }

    /// The fault plan shared by `faults` and `trace --faults`: a lossy
    /// network plus the site-0 outage.
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
            sim = sim.with_reliability(DeliveryConfig {
                mode: DeliveryMode::Reliable,
                ..Default::default()
            });
        }
        if let Some(plan) = faults {
            sim = sim.with_transport(Box::new(SimnetTransport::new().with_faults(plan)));
        }
        sim.run().map_err(|e| CliError::Usage(format!("driver: {e}")))
    }
}

/// The first report line of `metrics`, `faults` and `trace`.
fn write_star_header(out: &mut impl Write, sites: usize, chunk_size: usize) -> std::io::Result<()> {
    writeln!(out, "sites: {sites} | chunk size M = {chunk_size} records")
}

/// The group count the root ended the round with — one spelling for the
/// simulator and the socket coordinator, because `scripts/verify.sh`
/// diffs this line between them.
fn write_groups(out: &mut impl Write, groups: usize) -> std::io::Result<()> {
    writeln!(out, "coordinator groups: {groups}")
}

/// The simulated run's totals.
fn write_sim_summary(out: &mut impl Write, report: &StarReport) -> std::io::Result<()> {
    writeln!(
        out,
        "sim seconds: {:.3} | total bytes on the wire: {}",
        report.sim_seconds,
        report.comm.total_bytes()
    )?;
    write_groups(out, report.coordinator_groups)
}

/// The closing line of every journaling subcommand.
fn write_journal_note(out: &mut impl Write, journal: &Option<String>) -> std::io::Result<()> {
    if let Some(path) = journal {
        writeln!(out, "journal written to {path}")?;
    }
    Ok(())
}

fn read_input(path: &str) -> Result<Vec<Vector>, CliError> {
    let records = if path == "-" {
        csvio::read_records(std::io::stdin().lock())?
    } else {
        let file = std::fs::File::open(path)?;
        csvio::read_records(std::io::BufReader::new(file))?
    };
    if records.is_empty() {
        return Err(CliError::Usage(format!("{path}: no records")));
    }
    Ok(records)
}

/// Reads the records a [`DataOpts`] selects and validates `--dim`
/// against what was actually parsed.
fn read_data(opts: &DataOpts) -> Result<Vec<Vector>, CliError> {
    let records = read_input(&opts.input)?;
    if let Some(dim) = opts.dim {
        if records[0].dim() != dim {
            return Err(CliError::Usage(format!(
                "{}: --dim {dim} but records have dimension {}",
                opts.input,
                records[0].dim()
            )));
        }
    }
    Ok(records)
}

/// Executes a command, writing human-readable output to `out`.
pub fn run(command: Command, out: &mut impl Write) -> Result<(), CliError> {
    match command {
        Command::Help => Ok(write!(out, "{USAGE}")?),
        Command::Cluster { data, k, k_range, seed, memberships } => {
            run_cluster(data, k, k_range, seed, memberships, out)
        }
        Command::Stream { data, k, epsilon, delta, c_max, seed } => {
            run_stream(data, k, ChunkParams { epsilon, delta }, c_max, seed, out)
        }
        Command::Generate { records, dim, k, p_new, seed } => {
            run_generate(records, dim, k, p_new, seed, out)
        }
        Command::Metrics { workload, journal, reliable } => {
            run_metrics(workload, journal, reliable, out)
        }
        Command::Faults { workload, drop, duplicate, reorder, journal } => {
            run_faults(workload, (drop, duplicate, reorder), journal, out)
        }
        Command::Trace { workload, faults, out: trace_out } => {
            run_trace(workload, faults, trace_out, out)
        }
        Command::Coordinator(opts) => run_coordinator(opts, out),
        Command::Site { connect, site, workload, journal, trace, quality } => {
            run_site_role(&connect, site, workload, journal, trace, quality, out)
        }
        Command::Aggregator(opts) => run_aggregator_role(opts, out),
        Command::Score { data, model, connect, responsibilities } => {
            run_score(data, model, connect, responsibilities, out)
        }
        Command::Status { connect, watch } => run_status(&connect, watch, out),
        Command::Health { connect } => run_health(&connect, out),
    }
}

/// `cluster`: batch EM over a whole file.
fn run_cluster(
    opts: DataOpts,
    k: usize,
    k_range: Option<(usize, usize)>,
    seed: u64,
    memberships: bool,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let data = read_data(&opts)?;
    let config = EmConfig { k, seed, covariance: opts.covariance, ..Default::default() };
    let (mixture, chosen_k, bic) = match k_range {
        None => {
            let fit = fit_em(&data, &config)?;
            (fit.mixture, k, None)
        }
        Some((lo, hi)) => {
            let (best, _) = fit_em_bic(&data, lo..=hi, &config)?;
            (best.fit.mixture, best.k, Some(best.bic))
        }
    };
    writeln!(out, "records: {}", data.len())?;
    writeln!(out, "components: {chosen_k}{}", match bic {
        Some(b) => format!(" (BIC {b:.1})"),
        None => String::new(),
    })?;
    writeln!(out, "avg log likelihood: {:.4}", mixture.avg_log_likelihood(&data))?;
    for (j, (c, w)) in mixture.components().iter().zip(mixture.weights()).enumerate() {
        writeln!(out, "  component {j}: weight {w:.4}, mean {}", c.mean())?;
    }
    if memberships {
        writeln!(out, "memberships (record index: probabilities):")?;
        for (i, x) in data.iter().enumerate() {
            let p: Vec<String> =
                mixture.posteriors(x).iter().map(|v| format!("{v:.3}")).collect();
            writeln!(out, "  {i}: [{}]", p.join(", "))?;
        }
    }
    Ok(())
}

/// `stream`: the test-and-cluster narration of one remote site.
fn run_stream(
    opts: DataOpts,
    k: usize,
    chunk: ChunkParams,
    c_max: usize,
    seed: u64,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let data = read_data(&opts)?;
    let dim = data[0].dim();
    let config = Config {
        dim,
        k,
        chunk,
        c_max,
        seed,
        covariance: opts.covariance,
        ..Default::default()
    };
    let mut site = RemoteSite::new(config)?;
    writeln!(out, "chunk size M = {} records (Theorem 1)", site.chunk_size())?;
    for x in data {
        if let Some(outcome) = site.push(x)? {
            let chunk = site.chunk_index() - 1;
            match outcome {
                ChunkOutcome::FitCurrent { j_fit } => {
                    writeln!(out, "chunk {chunk}: fits current (J_fit {j_fit:.4})")?
                }
                ChunkOutcome::SwitchedTo { model, tests, .. } => writeln!(
                    out,
                    "chunk {chunk}: re-fit model {model} after {tests} tests"
                )?,
                ChunkOutcome::NewModel { model, .. } => {
                    writeln!(out, "chunk {chunk}: NEW model {model}")?
                }
            }
        }
    }
    let s = site.stats();
    writeln!(out, "---")?;
    writeln!(
        out,
        "records {} | chunks {} | fit {} | re-fit {} | clustered {}",
        s.records, s.chunks, s.fit_current, s.switched, s.clustered
    )?;
    writeln!(out, "models: {}", site.models().len())?;
    for e in site.events().entries_at(site.chunk_index().saturating_sub(1)) {
        writeln!(
            out,
            "  chunks {:>4}..={:<4} -> model {}",
            e.start_chunk, e.end_chunk, e.model
        )?;
    }
    Ok(())
}

/// `generate`: a synthetic evolving-GMM stream as CSV.
fn run_generate(
    records: usize,
    dim: usize,
    k: usize,
    p_new: f64,
    seed: u64,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let mut stream = EvolvingStream::new(EvolvingStreamConfig {
        dim,
        k,
        p_new,
        seed,
        ..Default::default()
    });
    let data = stream.take_chunk(records);
    csvio::write_records(out, &data, None)?;
    Ok(())
}

/// The registry behind the subcommands whose sites run EM (`metrics`,
/// `faults`, `site`): journaling when asked, with exact quantiles
/// alongside the histogram's power-of-two bounds for the deterministic
/// iterations-per-fit distribution.
fn em_registry(journal: &Option<String>) -> std::io::Result<Arc<Registry>> {
    let registry = journal_registry(journal)?;
    registry.track_quantiles(catalogue::EM_ITERS_PER_FIT);
    Ok(registry)
}

/// `metrics`: the workload on a clean simulated network.
fn run_metrics(
    workload: MetricsWorkload,
    journal: Option<String>,
    reliable: bool,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let registry = em_registry(&journal)?;
    let run = workload.prepare(0, Obs::from_registry(Arc::clone(&registry)))?;
    let chunk_size = run.chunk_size;
    let report = run.simulate(reliable, None)?;
    registry.flush_journal()?;

    write_star_header(out, workload.sites, chunk_size)?;
    write_sim_summary(out, &report)?;
    writeln!(out)?;
    write!(out, "{}", registry.render_table())?;
    write_journal_note(out, &journal)?;
    Ok(())
}

/// `faults`: the workload over a hostile simulated network.
fn run_faults(
    workload: MetricsWorkload,
    (drop, duplicate, reorder): (f64, f64, f64),
    journal: Option<String>,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let registry = em_registry(&journal)?;
    let run = workload.prepare(0, Obs::from_registry(Arc::clone(&registry)))?;
    let chunk_size = run.chunk_size;
    let (down, up) = run.outage_us();
    let plan = run.fault_plan(workload.seed, (drop, duplicate, reorder));
    let report = run.simulate(false, Some(plan))?;
    registry.flush_journal()?;

    write_star_header(out, workload.sites, chunk_size)?;
    writeln!(
        out,
        "faults: drop={drop} duplicate={duplicate} reorder={reorder} | site 0 \
         down {:.3}s..{:.3}s",
        down as f64 / 1e6,
        up as f64 / 1e6,
    )?;
    write_sim_summary(out, &report)?;
    let d = &report.delivery;
    writeln!(out)?;
    writeln!(out, "delivery (reliable = {}):", d.reliable)?;
    writeln!(
        out,
        "  sent         : {:>6} msgs {:>8} bytes",
        d.sent_messages, d.sent_bytes
    )?;
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
    writeln!(out)?;
    write!(out, "{}", registry.render_table())?;
    write_journal_note(out, &journal)?;
    Ok(())
}

/// `trace`: the workload with causal tracing on.
fn run_trace(
    workload: MetricsWorkload,
    faults: bool,
    trace_out: Option<String>,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let registry = Arc::new(Registry::new());
    registry.enable_tracing();
    let run = workload.prepare(0, Obs::from_registry(Arc::clone(&registry)))?;
    let chunk_size = run.chunk_size;
    let plan = faults.then(|| run.fault_plan(workload.seed, FAULT_DEFAULTS));
    // Trace context rides the sequenced data frames, so delivery is
    // always reliable here — even fault-free.
    let report = run.simulate(true, plan)?;

    let spans = registry.spans();
    let breakdown = analyze(&spans);
    write_star_header(out, workload.sites, chunk_size)?;
    writeln!(
        out,
        "faults: {} | spans recorded: {} | retransmitted frames: {}",
        if faults { "on" } else { "off" },
        spans.len(),
        report.delivery.retransmitted_messages
    )?;
    writeln!(out)?;
    write!(out, "{}", breakdown.render())?;
    if let Some(path) = trace_out {
        std::fs::write(&path, perfetto_json(&spans))?;
        writeln!(out, "perfetto trace written to {path}")?;
    }
    Ok(())
}

/// `coordinator`: the socket root of one round of the workload.
fn run_coordinator(opts: CoordinatorOpts, out: &mut impl Write) -> Result<(), CliError> {
    let registry = journal_registry(&opts.journal)?;
    if opts.trace_out.is_some() {
        registry.enable_tracing();
    }
    let obs = Obs::from_registry(Arc::clone(&registry));
    // The fleet registry folds every site's telemetry deltas; the
    // `status` subcommand scrapes it mid-round over the same
    // listener.
    let fleet = Arc::new(FleetAggregator::new());
    let (listener, addr) = bind_listener("coordinator", &opts.listen)?;
    writeln!(out, "coordinator listening on {addr} for {} sites", opts.sites)?;
    out.flush()?;
    publish_port(&opts.port_file, addr)?;
    // A CLI coordinator always publishes read-side snapshots:
    // `score --connect` can pull the live model mid-round, and
    // the end-of-round checkpoint lands in `--snapshot-out`.
    let mut builder = CoordinatorRun::builder(opts.sites)
        // The metrics-workload coordinator configuration, so a
        // socket round is diffable against `metrics --reliable`.
        .coordinator(CoordinatorConfig { quality: opts.quality, ..metrics_coordinator_config() })
        .dim(1)
        .obs(obs)
        .socket(SocketConfig {
            linger: (opts.linger_ms > 0)
                .then(|| std::time::Duration::from_millis(opts.linger_ms)),
            ..socket_config(opts.heartbeat_ms, opts.timeout_ms, opts.deadline_s)
        })
        .fleet(Arc::clone(&fleet))
        .snapshots(Arc::new(SnapshotHandle::new()));
    if opts.alerts {
        builder = builder.alerts(AlertSet::default_rules());
    }
    let run =
        builder.build().map_err(|e| CliError::Usage(format!("coordinator: {e}")))?;
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
    write_journal_note(out, &opts.journal)?;
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
fn run_site_role(
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
    prepared.driver_config.site.quality = quality.then(QualityConfig::default);
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
fn run_aggregator_role(opts: AggregatorOpts, out: &mut impl Write) -> Result<(), CliError> {
    let registry = journal_registry(&opts.journal)?;
    registry.track_quantiles(catalogue::HB_RTT_US);
    // Like a CLI opts.site, an aggregator always reports telemetry
    // upward, so the root's fleet registry shows the subtree
    // under this node's `opts.site<I>.` prefix.
    registry.enable_telemetry();
    let obs = Obs::from_registry(Arc::clone(&registry));
    // The subtree's own fleet registry: `status --opts.connect` against
    // this listener scrapes the opts.children this node serves.
    let fleet = Arc::new(FleetAggregator::new());
    let (listener, addr) = bind_listener("aggregator", &opts.listen)?;
    writeln!(
        out,
        "aggregator {} listening on {addr} for sites {}..{}",
        opts.site,
        opts.child_base,
        opts.child_base + opts.children
    )?;
    out.flush()?;
    publish_port(&opts.port_file, addr)?;
    let run = AggregatorRun::builder(opts.site as u32, opts.child_base as u32, opts.children)
        // The shard runs the metrics-workload coordinator
        // configuration with the bounded merge log: the fan-in
        // boundary is where history is retained, so the cap is
        // what keeps a deep tree's memory O(models) per node.
        .coordinator(CoordinatorConfig {
            merge_log_cap: Some(64),
            ..metrics_coordinator_config()
        })
        .dim(1)
        .epsilon(opts.epsilon)
        .flush_interval_us(opts.flush_ms.saturating_mul(1_000))
        .obs(obs)
        .telemetry(true)
        .fleet(Arc::clone(&fleet))
        .socket(socket_config(opts.heartbeat_ms, opts.timeout_ms, opts.deadline_s))
        .build()
        .map_err(|e| CliError::Usage(format!("aggregator: {e}")))?;
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
    write_journal_note(out, &opts.journal)?;
    Ok(())
}

/// `score`: batched Definition-1 assignment against a snapshot.
fn run_score(
    opts: DataOpts,
    model: Option<String>,
    connect: Option<String>,
    responsibilities: bool,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let bytes = match (&model, &connect) {
        (Some(path), _) => std::fs::read(path)?,
        (None, Some(addr)) => {
            // An empty reply means the coordinator is up but has
            // not learned a model yet — poll until it has one.
            let deadline =
                std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                let bytes = scrape_snapshot(addr)
                    .map_err(|e| CliError::Usage(format!("score: {addr}: {e}")))?;
                if !bytes.is_empty() {
                    break bytes;
                }
                if std::time::Instant::now() >= deadline {
                    return Err(CliError::Usage(format!(
                        "score: {addr}: no snapshot published within 10s"
                    )));
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
        }
        (None, None) => {
            return Err(CliError::Usage(
                "score requires --model PATH or --connect HOST:PORT".into(),
            ))
        }
    };
    let snapshot = ModelSnapshot::decode(&mut ByteReader::new(&bytes))
        .map_err(|e| CliError::Usage(format!("score: invalid snapshot: {e}")))?;
    let records = read_data(&opts)?;
    let dim = records[0].dim();
    if dim != snapshot.mixture.dim() {
        return Err(CliError::Usage(format!(
            "score: records have dimension {dim} but the model is {}-dimensional",
            snapshot.mixture.dim()
        )));
    }
    let batch = Batch::from_records(&records);
    // Instrumented score path: the same `serve.score_us`
    // observations a long-lived scorer would feed its quantile
    // tracker from.
    let registry = Arc::new(Registry::new());
    registry.track_quantiles(catalogue::SERVE_SCORE_US);
    let score_obs = Obs::from_registry(Arc::clone(&registry));
    let scores = score_snapshot(&snapshot, &batch, 1, &score_obs)?;
    writeln!(
        out,
        "snapshot: version {} | messages applied {} | groups {}",
        snapshot.version,
        snapshot.messages_applied,
        snapshot.groups.len()
    )?;
    writeln!(
        out,
        "model: {} components, dim {}, {:?} covariance",
        snapshot.mixture.k(),
        snapshot.mixture.dim(),
        snapshot.covariance
    )?;
    writeln!(out, "records: {}", records.len())?;
    for i in 0..scores.len() {
        write!(
            out,
            "  {i}: component {} (log p {:.4})",
            scores.labels()[i],
            scores.log_pdf()[i]
        )?;
        if responsibilities {
            let p: Vec<String> = scores
                .responsibilities(i)
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect();
            write!(out, " [{}]", p.join(", "))?;
        }
        writeln!(out)?;
    }
    writeln!(out, "avg log likelihood: {:.4}", scores.avg_log_likelihood())?;
    if let Some(us) = registry.exact_quantile(catalogue::SERVE_SCORE_US.as_str(), 0.5) {
        writeln!(out, "score latency: {us} us for {} records", records.len())?;
    }
    Ok(())
}

/// `health`: the coordinator's alert verdicts; errors while any fires.
fn run_health(connect: &str, out: &mut impl Write) -> Result<(), CliError> {
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
fn run_status(connect: &str, watch: u64, out: &mut impl Write) -> Result<(), CliError> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    fn opts(input: &str) -> DataOpts {
        DataOpts { input: input.into(), dim: None, covariance: CovarianceType::Full }
    }

    #[test]
    fn parses_cluster_command() {
        let c = parse_args(&args("cluster data.csv --k 3 --seed 7 --memberships")).unwrap();
        assert_eq!(
            c,
            Command::Cluster {
                data: opts("data.csv"),
                k: 3,
                k_range: None,
                seed: 7,
                memberships: true
            }
        );
    }

    #[test]
    fn parses_auto_k_range() {
        let c = parse_args(&args("cluster - --auto-k 2..6")).unwrap();
        match c {
            Command::Cluster { k_range, data, .. } => {
                assert_eq!(k_range, Some((2, 6)));
                assert_eq!(data.input, "-");
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("cluster - --auto-k 6..2")).is_err());
        assert!(parse_args(&args("cluster - --auto-k nope")).is_err());
    }

    #[test]
    fn parses_stream_defaults() {
        let c = parse_args(&args("stream in.csv")).unwrap();
        assert_eq!(
            c,
            Command::Stream {
                data: opts("in.csv"),
                k: 5,
                epsilon: 0.02,
                delta: 0.01,
                c_max: 4,
                seed: 0
            }
        );
    }

    #[test]
    fn parses_shared_data_opts() {
        // The trio is shared: every data-reading subcommand accepts it.
        for cmd in ["cluster", "stream", "score --model m.bin"] {
            match parse_args(&args(&format!(
                "{cmd} --input d.csv --dim 3 --covariance diagonal"
            )))
            .unwrap()
            {
                Command::Cluster { data, .. }
                | Command::Stream { data, .. }
                | Command::Score { data, .. } => {
                    assert_eq!(
                        data,
                        DataOpts {
                            input: "d.csv".into(),
                            dim: Some(3),
                            covariance: CovarianceType::Diagonal
                        },
                        "{cmd}"
                    );
                }
                other => panic!("{other:?}"),
            }
        }
        // --input wins over a positional; bad values are rejected.
        match parse_args(&args("cluster pos.csv --input flag.csv")).unwrap() {
            Command::Cluster { data, .. } => assert_eq!(data.input, "flag.csv"),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("cluster d.csv --dim 0")).is_err());
        assert!(parse_args(&args("cluster d.csv --dim nope")).is_err());
        assert!(parse_args(&args("cluster d.csv --covariance banana")).is_err());
    }

    #[test]
    fn parses_score_command() {
        let c = parse_args(&args("score d.csv --model snap.bin")).unwrap();
        assert_eq!(
            c,
            Command::Score {
                data: opts("d.csv"),
                model: Some("snap.bin".into()),
                connect: None,
                responsibilities: false
            }
        );
        match parse_args(&args("score d.csv --connect h:1 --responsibilities")).unwrap() {
            Command::Score { connect, responsibilities, .. } => {
                assert_eq!(connect.as_deref(), Some("h:1"));
                assert!(responsibilities);
            }
            other => panic!("{other:?}"),
        }
        // Exactly one snapshot source.
        assert!(parse_args(&args("score d.csv")).is_err());
        assert!(parse_args(&args("score d.csv --model m --connect h:1")).is_err());
    }

    #[test]
    fn parses_generate_and_help() {
        let c = parse_args(&args("generate --records 100 --dim 2 --p-new 0.5")).unwrap();
        assert_eq!(
            c,
            Command::Generate { records: 100, dim: 2, k: 5, p_new: 0.5, seed: 0 }
        );
        assert_eq!(parse_args(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("cluster")).is_err(), "missing input");
        assert!(parse_args(&args("cluster data.csv --k nope")).is_err());
    }

    #[test]
    fn generate_then_cluster_roundtrip() {
        // Generate a small stream to a buffer, re-parse it, cluster it.
        let mut csv = Vec::new();
        run(
            Command::Generate { records: 300, dim: 2, k: 2, p_new: 0.0, seed: 1 },
            &mut csv,
        )
        .unwrap();
        let records = csvio::read_records(std::io::Cursor::new(&csv)).unwrap();
        assert_eq!(records.len(), 300);
        assert_eq!(records[0].dim(), 2);
        // Write to a temp file and run `cluster` on it.
        let path = std::env::temp_dir().join("cludistream_cli_test.csv");
        std::fs::write(&path, &csv).unwrap();
        let mut out = Vec::new();
        run(
            Command::Cluster {
                data: opts(&path.to_string_lossy()),
                k: 2,
                k_range: None,
                seed: 2,
                memberships: false,
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("records: 300"), "{text}");
        assert!(text.contains("components: 2"));
        assert!(text.contains("avg log likelihood"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stream_command_runs_end_to_end() {
        // A generated stream with large epsilon → small chunks → visible
        // narration.
        let mut csv = Vec::new();
        run(
            Command::Generate { records: 500, dim: 1, k: 1, p_new: 0.0, seed: 3 },
            &mut csv,
        )
        .unwrap();
        let path = std::env::temp_dir().join("cludistream_cli_stream_test.csv");
        std::fs::write(&path, &csv).unwrap();
        let mut out = Vec::new();
        run(
            Command::Stream {
                data: opts(&path.to_string_lossy()),
                k: 1,
                epsilon: 0.2,
                delta: 0.05,
                c_max: 4,
                seed: 4,
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("chunk size M ="), "{text}");
        assert!(text.contains("chunk 0: NEW model"), "{text}");
        // Tiny chunks are noisy; a stable stream still ends with very few
        // models.
        assert!(text.contains("models: 1") || text.contains("models: 2"), "{text}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn score_command_scores_against_a_snapshot_file() {
        use cludistream::{ModelId, SnapshotGroup, SnapshotMember};
        // Two well-separated 1-d components; three records near them.
        let mixture = Mixture::new(
            vec![
                Gaussian::spherical(Vector::from_slice(&[0.0]), 1.0).unwrap(),
                Gaussian::spherical(Vector::from_slice(&[10.0]), 1.0).unwrap(),
            ],
            vec![0.5, 0.5],
        )
        .unwrap();
        let snapshot = ModelSnapshot {
            version: 3,
            messages_applied: 12,
            covariance: CovarianceType::Full,
            mixture,
            groups: vec![
                SnapshotGroup {
                    id: 1,
                    weight: 0.5,
                    members: vec![SnapshotMember { site: 0, model: ModelId(0), component: 0 }]
                        .into(),
                },
                SnapshotGroup { id: 2, weight: 0.5, members: Default::default() },
            ],
        };
        let snap_path = std::env::temp_dir().join("cludistream_cli_score_snap.bin");
        std::fs::write(&snap_path, snapshot.encode().into_vec()).unwrap();
        let csv_path = std::env::temp_dir().join("cludistream_cli_score_data.csv");
        std::fs::write(&csv_path, "0.2\n9.7\n0.4\n").unwrap();

        let command = |dim: Option<usize>| Command::Score {
            data: DataOpts {
                input: csv_path.to_string_lossy().into_owned(),
                dim,
                covariance: CovarianceType::Full,
            },
            model: Some(snap_path.to_string_lossy().into_owned()),
            connect: None,
            responsibilities: true,
        };
        let mut out = Vec::new();
        run(command(Some(1)), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("snapshot: version 3 | messages applied 12 | groups 2"), "{text}");
        assert!(text.contains("0: component 0"), "{text}");
        assert!(text.contains("1: component 1"), "{text}");
        assert!(text.contains("2: component 0"), "{text}");
        assert!(text.contains("avg log likelihood"), "{text}");
        // --dim is validated against the parsed records.
        assert!(run(command(Some(2)), &mut Vec::new()).is_err());
        let _ = std::fs::remove_file(snap_path);
        let _ = std::fs::remove_file(csv_path);
    }

    #[test]
    fn threads_is_an_unknown_flag() {
        // EM runs on one thread everywhere; the removed flag is spelt in two
        // pieces so a search for it finds no live use.
        let flag = concat!("--", "threads");
        for cmd in [
            "cluster d.csv",
            "stream d.csv",
            "score d.csv --model m.bin",
            "metrics",
            "faults",
            "trace",
            "site --connect h:1",
        ] {
            let message = usage_error(&format!("{cmd} {flag} 2"));
            assert_eq!(message, format!("unknown flag {flag:?}; try help"), "{cmd}");
        }
    }

    #[test]
    fn parses_status_command() {
        let c = parse_args(&args("status --connect 127.0.0.1:9000")).unwrap();
        assert_eq!(c, Command::Status { connect: "127.0.0.1:9000".into(), watch: 0 });
        match parse_args(&args("status --connect h:1 --watch 5")).unwrap() {
            Command::Status { watch, .. } => assert_eq!(watch, 5),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("status")).is_err(), "--connect is required");
    }

    #[test]
    fn parses_telemetry_flags() {
        match parse_args(&args("coordinator --trace-out fleet.json")).unwrap() {
            Command::Coordinator(CoordinatorOpts { trace_out, .. }) => {
                assert_eq!(trace_out.as_deref(), Some("fleet.json"));
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&args("site --connect h:1 --trace")).unwrap() {
            Command::Site { trace, .. } => assert!(trace),
            other => panic!("{other:?}"),
        }
        match parse_args(&args("site --connect h:1")).unwrap() {
            Command::Site { trace, .. } => assert!(!trace, "span recording is opt-in"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_health_and_quality_flags() {
        let c = parse_args(&args("health --connect 127.0.0.1:9000")).unwrap();
        assert_eq!(c, Command::Health { connect: "127.0.0.1:9000".into() });
        assert!(parse_args(&args("health")).is_err(), "--connect is required");
        match parse_args(&args("coordinator --alerts --linger-ms 1500 --quality")).unwrap() {
            Command::Coordinator(CoordinatorOpts { alerts, linger_ms, quality, .. }) => {
                assert!(alerts);
                assert_eq!(linger_ms, 1500);
                assert!(quality);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&args("coordinator")).unwrap() {
            Command::Coordinator(CoordinatorOpts { alerts, linger_ms, quality, .. }) => {
                assert!(!alerts && !quality, "the quality plane is opt-in");
                assert_eq!(linger_ms, 0);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&args("site --connect h:1 --quality")).unwrap() {
            Command::Site { quality, .. } => assert!(quality),
            other => panic!("{other:?}"),
        }
        match parse_args(&args("site --connect h:1")).unwrap() {
            Command::Site { quality, .. } => assert!(!quality, "the quality plane is opt-in"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_aggregator_command() {
        let c = parse_args(&args("aggregator --connect 127.0.0.1:9000")).unwrap();
        assert_eq!(
            c,
            Command::Aggregator(AggregatorOpts {
                connect: "127.0.0.1:9000".into(),
                listen: "127.0.0.1:0".into(),
                site: 0,
                child_base: 0,
                children: 2,
                epsilon: 0.0,
                flush_ms: 50,
                heartbeat_ms: 500,
                timeout_ms: 5000,
                deadline_s: 0,
                port_file: None,
                journal: None,
            })
        );
        match parse_args(&args(
            "aggregator --connect h:1 --listen h:2 --site 8 --child-base 4 --children 4 \
             --epsilon 0.05 --flush-ms 20 --port-file p.txt --journal j.jsonl",
        ))
        .unwrap()
        {
            Command::Aggregator(AggregatorOpts {
                site, child_base, children, epsilon, flush_ms, port_file, journal, ..
            }) => {
                assert_eq!((site, child_base, children), (8, 4, 4));
                assert_eq!(epsilon, 0.05);
                assert_eq!(flush_ms, 20);
                assert_eq!(port_file.as_deref(), Some("p.txt"));
                assert_eq!(journal.as_deref(), Some("j.jsonl"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("aggregator")).is_err(), "--connect is required");
    }

    #[test]
    fn usage_and_flag_tables_agree() {
        // Every `  cludistream <cmd> ...` stanza of USAGE lists exactly the
        // flags of that subcommand's table, with the same arity:
        // `[--flag]` is boolean, `--flag VALUE` takes a value, and
        // `<csv|->` is the positional spelling of `--input`.
        let synopsis = USAGE.split("USAGE:\n").nth(1).unwrap().split("\n\n").next().unwrap();
        let mut stanzas: Vec<Vec<&str>> = Vec::new();
        for line in synopsis.lines() {
            match line.strip_prefix("  cludistream ") {
                Some(rest) => stanzas.push(rest.split_whitespace().collect()),
                None => stanzas.last_mut().unwrap().extend(line.split_whitespace()),
            }
        }
        assert_eq!(stanzas.len(), 13);
        for stanza in stanzas {
            let cmd = stanza[0];
            let Some(table) = flag_table(cmd) else {
                assert_eq!(stanza, ["help"], "{cmd} has flags but no table");
                continue;
            };
            let (mut values, mut booleans) = (Vec::new(), Vec::new());
            for token in &stanza[1..] {
                let name = token.trim_matches(|c| "[]()".contains(c));
                if name == "<csv|->" {
                    assert!(table.positional, "{cmd}");
                    values.push("--input");
                } else if name.starts_with("--") {
                    if token.ends_with(']') { &mut booleans } else { &mut values }.push(name);
                }
            }
            assert_eq!(table.positional, values.contains(&"--input"), "{cmd}");
            let sorted = |mut v: Vec<&'static str>| {
                v.sort_unstable();
                v
            };
            assert_eq!(sorted(values), sorted(table.values.to_vec()), "{cmd} value flags");
            assert_eq!(sorted(booleans), sorted(table.booleans.to_vec()), "{cmd} boolean flags");
        }
    }

    fn usage_error(line: &str) -> String {
        match parse_args(&args(line)) {
            Err(CliError::Usage(message)) => message,
            other => panic!("{line:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn boolean_flags_do_not_swallow_the_positional() {
        match parse_args(&args("cluster --memberships d.csv --k 2")).unwrap() {
            Command::Cluster { data, k, memberships, .. } => {
                assert_eq!(data.input, "d.csv");
                assert_eq!(k, 2);
                assert!(memberships);
            }
            other => panic!("{other:?}"),
        }
        assert!(usage_error("cluster a.csv b.csv").contains("\"b.csv\""));
        assert!(usage_error("metrics extra").contains("\"extra\""));
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        assert!(usage_error("metrics --site 3").contains("\"--site\""));
        assert!(usage_error("cluster d.csv --bogus-flag 7").contains("\"--bogus-flag\""));
        assert!(usage_error("site --connect h:1 --sites 2").contains("\"--sites\""));
    }

    #[test]
    fn value_flags_require_a_value() {
        assert!(usage_error("metrics --journal").contains("--journal expects a value"));
        assert!(usage_error("metrics --journal --reliable").contains("--journal expects a value"));
        assert!(usage_error("stream in.csv --k").contains("--k expects a value"));
    }

    #[test]
    fn workload_flags_parse_alike_everywhere() {
        let flags = "--sites 3 --chunks 4 --seed 11 --epsilon 0.2";
        let expect = MetricsWorkload { sites: 3, chunks: 4, seed: 11, epsilon: 0.2 };
        for cmd in ["metrics", "faults", "trace"] {
            match parse_args(&args(&format!("{cmd} {flags}"))).unwrap() {
                Command::Metrics { workload, .. }
                | Command::Faults { workload, .. }
                | Command::Trace { workload, .. } => assert_eq!(workload, expect, "{cmd}"),
                other => panic!("{other:?}"),
            }
        }
        // `site` takes the same flags minus `--sites`: it runs one site.
        match parse_args(&args(&format!("site --connect h:1 {}", &flags["--sites 3 ".len()..])))
            .unwrap()
        {
            Command::Site { workload, .. } => {
                assert_eq!(workload, MetricsWorkload { sites: 1, ..expect })
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn help_prints_usage() {
        let mut out = Vec::new();
        run(Command::Help, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("USAGE"));
    }
}
