#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

//! # cludistream-obs — zero-dependency telemetry for the CluDistream stack
//!
//! The paper's headline claims are all *measurements*: communication cost
//! collected every second (Fig. 2), processing time per chunk (Figs. 5–7),
//! and clustering-quality response to concept drift. This crate is the
//! in-repo instrument those measurements flow through:
//!
//! - a **metrics registry** ([`Registry`]) with counters, gauges and
//!   fixed-bucket log2 histograms, plus [`Span`] timers that record
//!   wall-clock durations into histograms, under the names the
//!   [`catalogue`] declares once (`docs/METRICS.md`);
//! - a **structured event journal**: typed [`Event`]s serialized to JSONL
//!   by a hand-rolled writer, stamped with *simulated* time so journals of
//!   seeded runs are byte-identical and diffable;
//! - a cheap [`Recorder`] trait with a no-op default ([`NopRecorder`]) so
//!   instrumented hot paths cost nothing when telemetry is disabled, and a
//!   cloneable [`Obs`] handle that the site, coordinator, driver and
//!   simulator all share.
//!
//! Since PR 4 it is also a **causal tracer**: deterministic
//! [`TraceId`]/[`SpanId`] span trees ([`SpanRecord`]) that follow one chunk
//! from site ingestion to the coordinator's group update, a
//! Perfetto-loadable Chrome trace-event exporter ([`perfetto_json`]), a
//! critical-path extractor ([`analyze`]) attributing group-update
//! latency to {EM, simplex, retransmit, queueing}, and an exact
//! Greenwald–Khanna streaming quantile sketch ([`QuantileSketch`])
//! complementing the log2 histogram's coarse bounds.
//!
//! For the socket runtime it is additionally a **fleet telemetry plane**:
//! a registry can stage everything it records into wire-encodable
//! [`TelemetryDelta`]s ([`Registry::enable_telemetry`] /
//! [`Recorder::drain_telemetry`]), which a coordinator folds into one
//! [`FleetAggregator`] with per-site metric names and clock-rebased span
//! records, renderable live in Prometheus text exposition format. A
//! bounded flight-recorder ring
//! ([`Registry::enable_flight_recorder`]) preserves a site's last journal
//! lines across a crash for post-mortem dumps at the coordinator.
//!
//! ## Determinism rules
//!
//! Journaled fields carry only values derived from the (seeded) algorithms
//! and the discrete-event simulator's clock — never wall-clock time.
//! Wall-clock measurements (span timers) go to registry histograms only,
//! which are reported but never journaled. This is what makes the golden
//! journal fixture in `crates/cli/tests` stable across machines and runs.
//!
//! Traces follow the same discipline: span ids are packed
//! `(node, per-node sequence)` pairs allocated in simulator dispatch
//! order, timestamps are simulated microseconds, and pure compute carries
//! a *virtual* cost derived from iteration counts instead of wall time —
//! so the Perfetto export of a seeded run is byte-identical across
//! machines. Tracing is opt-in ([`Registry::enable_tracing`]) separately
//! from metrics, and spans live in registry memory, never in the journal,
//! so enabling it cannot perturb the journal fixtures.
//!
//! ## Quickstart
//!
//! ```
//! use cludistream_obs::catalogue::{EM_ESTEP_BLOCKS, EM_ITERS_PER_FIT};
//! use cludistream_obs::{Event, Obs, Recorder, Registry, Verdict};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new());
//! let obs = Obs::from_registry(registry.clone());
//! obs.counter(EM_ESTEP_BLOCKS, 12);
//! obs.observe(EM_ITERS_PER_FIT, 12);
//! obs.event(&Event::EmConverged { iters: 12, delta_ll: 3.2e-5 });
//! assert_eq!(registry.counter_value("em.estep_blocks"), 12);
//! ```

pub mod catalogue;
mod critical_path;
mod fleet;
mod histogram;
mod journal;
pub mod net;
mod perfetto;
mod quality;
mod quantile;
mod recorder;
mod registry;
mod telemetry;
mod trace;

pub use critical_path::{analyze, LatencyBreakdown};
pub use fleet::FleetAggregator;
pub use histogram::HistogramSnapshot;
pub use journal::{json_escape, json_f64, DropReason, Event, Verdict};
pub use perfetto::perfetto_json;
pub use quality::{
    AlertKind, AlertRule, AlertSet, AlertState, EwmaDetector, PageHinkley, CHURN_ALPHA,
};
pub use quantile::QuantileSketch;
pub use recorder::{NopRecorder, Obs, Recorder, Span};
pub use registry::Registry;
pub use telemetry::{TelemetryDelta, TELEMETRY_VERSION};
pub use trace::{em_cost_us, simplex_cost_us, SpanId, SpanRecord, SpanScope, TraceCtx, TraceId};
