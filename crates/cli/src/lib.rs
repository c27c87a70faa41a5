#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

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
//! - `simulate` — run a small deterministic distributed workload on a
//!   simulated star with the telemetry layer attached and print the
//!   metrics table; `--faults` adds a lossy network and one site outage,
//!   `--journal` writes the structured event journal as JSONL, and
//!   `--trace-out` turns causal tracing on, prints the critical-path
//!   latency profile and writes a Chrome trace-event (Perfetto-loadable)
//!   JSON file, byte-identical across runs.
//! - `coordinator` / `site` — the process-per-site socket runtime: the
//!   `simulate` workload over real loopback TCP, one process per role.
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
//! the same `--input/--dim/--covariance` trio ([`DataOpts`]), both
//! subcommands that run the workload (`simulate`, `site`) the same
//! `--sites/--chunks/--seed/--epsilon` description ([`MetricsWorkload`]),
//! and both serving roles (`coordinator`, `aggregator`) the same listener
//! and round flags ([`ServeOpts`]); each is parsed once. The argument
//! parser is deliberately dependency-free; see [`parse_args`].

mod data;
mod sim;
mod socket;

pub use data::DataOpts;
pub use sim::MetricsWorkload;
pub use socket::{AggregatorOpts, CoordinatorOpts, ServeOpts};

use cludistream_datagen::csvio;
use cludistream_gmm::{ChunkParams, CovarianceType};
use data::{run_cluster, run_generate, run_score, run_stream};
use sim::{run_simulate, FAULT_DEFAULTS};
use socket::{run_aggregator_role, run_coordinator, run_health, run_site_role, run_status};
use std::io::Write;

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
    /// Run the instrumented deterministic workload on a simulated star and
    /// print its telemetry.
    Simulate {
        /// The star to simulate.
        workload: MetricsWorkload,
        /// Use the reliable delivery protocol even without faults (what
        /// the socket runtime always does; lets simulated journals be
        /// diffed against socket-runtime journals).
        reliable: bool,
        /// `--faults`: the per-message (drop, duplicate, reorder)
        /// probabilities on every link, plus one site-0 crash/restart.
        faults: Option<(f64, f64, f64)>,
        /// Write the JSONL event journal here.
        journal: Option<String>,
        /// Record spans, print the critical-path latency profile and write
        /// Chrome trace-event (Perfetto) JSON here. Implies reliable
        /// delivery: trace context rides the sequenced data frames.
        trace_out: Option<String>,
    },
    /// Serve the socket coordinator for one round of the `simulate`
    /// workload over real TCP.
    Coordinator(CoordinatorOpts),
    /// Run one socket site of the `simulate` workload against a
    /// coordinator.
    Site {
        /// Coordinator address to connect to (`HOST:PORT`).
        connect: String,
        /// This site's index in `0..sites`.
        site: usize,
        /// This site's share of the star (mirrors `simulate`'s flags).
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
  cludistream simulate [--sites R] [--chunks C] [--seed S] [--epsilon E] [--reliable]
                       [--faults] [--drop P] [--duplicate P] [--reorder P]
                       [--journal OUT.jsonl] [--trace-out TRACE.json]
  cludistream coordinator [--listen HOST:PORT] [--sites R] [--heartbeat-ms H]
                       [--timeout-ms T] [--deadline-s D] [--port-file PATH]
                       [--journal OUT.jsonl] [--trace-out TRACE.json]
                       [--snapshot-out SNAP.bin] [--alerts] [--linger-ms L]
                       [--quality]
  cludistream site     --connect HOST:PORT [--site I] [--chunks C] [--seed S]
                       [--epsilon E] [--journal OUT.jsonl] [--trace]
                       [--quality]
  cludistream aggregator --connect HOST:PORT [--listen HOST:PORT] [--site I]
                       [--child-base B] [--children N] [--heartbeat-ms H]
                       [--timeout-ms T] [--deadline-s D] [--port-file PATH]
                       [--journal OUT.jsonl]
  cludistream status   --connect HOST:PORT [--watch SECS]
  cludistream health   --connect HOST:PORT
  cludistream help

Defaults: k=5, epsilon=0.02, delta=0.01, c-max=4, seed=0, covariance=full,
          records=10000, dim=4, p-new=0.1,
          simulate: sites=2, chunks=2, seed=7, epsilon=0.15,
                    --faults: drop=0.1, duplicate=0.05, reorder=0.25,
          coordinator: listen=127.0.0.1:0, sites=2, heartbeat-ms=500,
                       timeout-ms=5000, deadline-s=0 (none), linger-ms=0,
          site: site=0, simulate workload defaults,
          aggregator: listen=127.0.0.1:0, site=0, child-base=0, children=2,
                      heartbeat-ms=500, timeout-ms=5000, deadline-s=0 (none),
          status: watch=0 (scrape once).

`coordinator` and `site` run the simulate workload distributed for real:
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
upward, as site `--site I`, it forwards one pre-merged reduced update
whenever a mean or weight of its summary moved, at most one per 50 ms,
so the root's ingress and event table scale with the number of
aggregators, not sites. `status --connect` works
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

`simulate` runs the workload on a simulated star and prints the metrics
table. `--faults` replays it over a lossy network, crashing and
restarting site 0 mid-run; `--drop` (below 1), `--duplicate` and
`--reorder` override its per-message probabilities. Under `--reliable`,
`--faults` or `--trace-out` it also prints the delivery accounting.
`--trace-out` records causal spans (always over the reliable protocol,
so trace context rides the data frames), prints the critical-path
latency attribution and writes a Perfetto-loadable Chrome trace-event
JSON; with `--faults`, retransmit time shows up on the path.
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
        "simulate" => (
            &[
                "--sites", "--chunks", "--seed", "--epsilon", "--drop", "--duplicate",
                "--reorder", "--journal", "--trace-out",
            ],
            &["--reliable", "--faults"],
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
                "--connect", "--listen", "--site", "--child-base", "--children",
                "--heartbeat-ms", "--timeout-ms", "--deadline-s", "--port-file", "--journal",
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
    // The shared workload description. `site` has no `--sites`:
    // it runs one site of the star.
    let workload = |default_sites: usize| -> Result<MetricsWorkload, CliError> {
        // A zero `--sites` reaches the run's own check; a zero `--chunks`
        // would stream nothing, and nothing downstream checks it.
        let chunks = parse_int("--chunks", 2)?;
        if chunks == 0 {
            return Err(CliError::Usage("--chunks expects an integer >= 1".into()));
        }
        Ok(MetricsWorkload {
            sites: parse_int("--sites", default_sites)?,
            chunks,
            seed: parse_int("--seed", 7)? as u64,
            epsilon: parse_num("--epsilon", 0.15)?,
        })
    };
    let owned = |name: &str| flag(name).map(|s| s.to_string());
    // The listener and round flags both serving roles share.
    let serve_opts = || -> Result<ServeOpts, CliError> {
        Ok(ServeOpts {
            listen: flag("--listen").unwrap_or("127.0.0.1:0").to_string(),
            heartbeat_ms: parse_int("--heartbeat-ms", 500)? as u64,
            timeout_ms: parse_int("--timeout-ms", 5_000)? as u64,
            deadline_s: parse_int("--deadline-s", 0)? as u64,
            port_file: owned("--port-file"),
            journal: owned("--journal"),
        })
    };
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
        "simulate" => {
            // A link that drops every frame delivers none, and go-back-N
            // would retransmit forever: `--drop` stays below 1.
            let probability = |name: &str, default: f64, allow_one: bool| -> Result<f64, CliError> {
                let p = parse_num(name, default)?;
                if (0.0..1.0).contains(&p) || (allow_one && p == 1.0) {
                    return Ok(p);
                }
                let range = if allow_one { "[0, 1]" } else { "[0, 1)" };
                Err(CliError::Usage(format!("{name} expects a probability in {range}, got {p}")))
            };
            let fault_flags = ["--drop", "--duplicate", "--reorder"];
            let faults = if has("--faults") {
                Some((
                    probability("--drop", FAULT_DEFAULTS.0, false)?,
                    probability("--duplicate", FAULT_DEFAULTS.1, true)?,
                    probability("--reorder", FAULT_DEFAULTS.2, true)?,
                ))
            } else if let Some(name) = fault_flags.into_iter().find(|name| has(name)) {
                return Err(CliError::Usage(format!("{name} requires --faults")));
            } else {
                None
            };
            Ok(Command::Simulate {
                workload: workload(2)?,
                reliable: has("--reliable"),
                faults,
                journal: owned("--journal"),
                trace_out: owned("--trace-out"),
            })
        }
        "coordinator" => Ok(Command::Coordinator(CoordinatorOpts {
            serve: serve_opts()?,
            sites: parse_int("--sites", 2)?,
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
            serve: serve_opts()?,
            connect: require_connect()?,
            site: parse_int("--site", 0)?,
            child_base: parse_int("--child-base", 0)?,
            children: parse_int("--children", 2)?,
        })),
        "health" => Ok(Command::Health { connect: require_connect()? }),
        "status" => {
            Ok(Command::Status { connect: require_connect()?, watch: parse_int("--watch", 0)? as u64 })
        }
        other => unreachable!("{other:?} has a flag table but no parser"),
    }
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
        Command::Simulate { workload, reliable, faults, journal, trace_out } => {
            run_simulate(workload, reliable, faults, journal, trace_out, out)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    pub(crate) fn opts(input: &str) -> DataOpts {
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
    fn threads_is_an_unknown_flag() {
        // EM runs on one thread everywhere; the removed flag is spelt in two
        // pieces so a search for it finds no live use.
        let flag = concat!("--", "threads");
        for cmd in [
            "cluster d.csv",
            "stream d.csv",
            "score d.csv --model m.bin",
            "simulate",
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
                serve: ServeOpts {
                    listen: "127.0.0.1:0".into(),
                    heartbeat_ms: 500,
                    timeout_ms: 5000,
                    deadline_s: 0,
                    port_file: None,
                    journal: None,
                },
                connect: "127.0.0.1:9000".into(),
                site: 0,
                child_base: 0,
                children: 2,
            })
        );
        match parse_args(&args(
            "aggregator --connect h:1 --listen h:2 --site 8 --child-base 4 --children 4 \
             --port-file p.txt --journal j.jsonl",
        ))
        .unwrap()
        {
            Command::Aggregator(AggregatorOpts { serve, site, child_base, children, .. }) => {
                assert_eq!((site, child_base, children), (8, 4, 4));
                assert_eq!(serve.listen, "h:2");
                assert_eq!(serve.port_file.as_deref(), Some("p.txt"));
                assert_eq!(serve.journal.as_deref(), Some("j.jsonl"));
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
        assert_eq!(stanzas.len(), 11);
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
        assert!(usage_error("simulate extra").contains("\"extra\""));
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        assert!(usage_error("simulate --site 3").contains("\"--site\""));
        assert!(usage_error("cluster d.csv --bogus-flag 7").contains("\"--bogus-flag\""));
        assert!(usage_error("site --connect h:1 --sites 2").contains("\"--sites\""));
        // The upload policy of an aggregator is fixed: no threshold, no cadence.
        for flag in ["--epsilon", "--flush-ms"] {
            let message = usage_error(&format!("aggregator --connect h:1 {flag} 1"));
            assert!(message.contains(&format!("{flag:?}")), "{message}");
        }
    }

    /// The error `line` runs into; the run must not succeed. Serving-role
    /// lines carry `--deadline-s 1`, so a run that starts ends instead of
    /// waiting for its peers.
    fn run_error(line: &str) -> String {
        let command = parse_args(&args(line)).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        match run(command, &mut Vec::new()) {
            Err(e) => e.to_string(),
            Ok(()) => panic!("{line:?} ran"),
        }
    }

    #[test]
    fn zero_sites_reach_the_runs_check() {
        let message = run_error("simulate --sites 0");
        assert!(message.contains("need at least one site"), "{message}");
        let message = run_error("coordinator --sites 0 --deadline-s 1");
        assert!(message.contains("invalid config sites"), "{message}");
    }

    #[test]
    fn zero_chunks_is_a_usage_error() {
        for line in ["simulate --chunks 0", "site --connect h:1 --chunks 0"] {
            assert_eq!(usage_error(line), "--chunks expects an integer >= 1", "{line}");
        }
    }

    #[test]
    fn zero_heartbeat_reaches_the_socket_check() {
        let message = run_error("coordinator --heartbeat-ms 0 --deadline-s 1");
        assert!(message.contains("invalid config socket.heartbeat_us"), "{message}");
    }

    #[test]
    fn zero_timeout_reaches_the_socket_check() {
        let message = run_error("coordinator --timeout-ms 0 --deadline-s 1");
        assert!(message.contains("invalid config socket.timeout_us"), "{message}");
    }

    #[test]
    fn zero_children_reach_the_runs_check() {
        let message = run_error("aggregator --connect 127.0.0.1:1 --children 0 --deadline-s 1");
        assert!(message.contains("invalid config children"), "{message}");
    }

    #[test]
    fn value_flags_require_a_value() {
        assert!(usage_error("simulate --journal").contains("--journal expects a value"));
        assert!(usage_error("simulate --journal --reliable").contains("--journal expects a value"));
        assert!(usage_error("stream in.csv --k").contains("--k expects a value"));
    }

    #[test]
    fn workload_flags_parse_alike_everywhere() {
        let flags = "--sites 3 --chunks 4 --seed 11 --epsilon 0.2";
        let expect = MetricsWorkload { sites: 3, chunks: 4, seed: 11, epsilon: 0.2 };
        for cmd in ["simulate", "simulate --faults --trace-out t.json"] {
            match parse_args(&args(&format!("{cmd} {flags}"))).unwrap() {
                Command::Simulate { workload, .. } => assert_eq!(workload, expect, "{cmd}"),
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
    fn serve_flags_parse_alike_in_both_roles() {
        let flags = "--listen h:2 --heartbeat-ms 20 --timeout-ms 90 --deadline-s 3 \
                     --port-file p.txt --journal j.jsonl";
        let expect = ServeOpts {
            listen: "h:2".into(),
            heartbeat_ms: 20,
            timeout_ms: 90,
            deadline_s: 3,
            port_file: Some("p.txt".into()),
            journal: Some("j.jsonl".into()),
        };
        for cmd in ["coordinator", "aggregator --connect h:1"] {
            match parse_args(&args(&format!("{cmd} {flags}"))).unwrap() {
                Command::Coordinator(CoordinatorOpts { serve, .. })
                | Command::Aggregator(AggregatorOpts { serve, .. }) => {
                    assert_eq!(serve, expect, "{cmd}")
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn simulate_replaces_metrics_faults_and_trace() {
        for cmd in ["metrics", "faults", "trace"] {
            assert_eq!(usage_error(cmd), format!("unknown command {cmd:?}; try help"));
        }
    }

    #[test]
    fn fault_probabilities_are_checked() {
        for flag in ["--drop", "--duplicate", "--reorder"] {
            for bad in ["2", "-1", "NaN", "inf"] {
                let message = usage_error(&format!("simulate --faults {flag} {bad}"));
                assert!(message.starts_with(&format!("{flag} expects a probability")), "{message}");
            }
            // Without `--faults` there is no link to apply it to.
            let message = usage_error(&format!("simulate {flag} 0.5"));
            assert_eq!(message, format!("{flag} requires --faults"));
        }
        // A link that drops everything delivers nothing: 1 is out for --drop only.
        let message = usage_error("simulate --faults --drop 1");
        assert!(message.starts_with("--drop expects a probability"), "{message}");
        for (ok, expect) in [
            ("--drop 0.99 --duplicate 1 --reorder 1", (0.99, 1.0, 1.0)),
            ("--drop 0 --duplicate 0 --reorder 0", (0.0, 0.0, 0.0)),
        ] {
            match parse_args(&args(&format!("simulate --faults {ok}"))).unwrap() {
                Command::Simulate { faults, .. } => assert_eq!(faults, Some(expect), "{ok}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn help_prints_usage() {
        let mut out = Vec::new();
        run(Command::Help, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("USAGE"));
    }
}
