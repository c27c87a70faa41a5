//! The process-per-site socket runtime.
//!
//! The simulator answers "what would CluDistream's protocol cost on a
//! modelled network"; this module answers "does the implementation
//! actually run distributed" — real `std::net` TCP sockets, one process
//! (or thread) per site, a rendezvous handshake, heartbeats, and
//! timeout-based eviction. The synopsis bytes on the wire are identical
//! to the simulator's: the data plane reuses [`crate::Frame`] unchanged
//! inside length-prefixed frames, and only the control plane
//! ([`Control`], tags ≥ 32) is new.
//!
//! A socket node is built from two halves, each defined once (paper
//! Sec. 7: an internal node is a coordinator to its children and a site
//! to its parent, nothing more), and runs as one loop over one event
//! queue that a reader thread per connection feeds — it sleeps only when
//! it has nothing to do, until an event or its next deadline:
//!
//! - `downlink` — serve a contiguous child range: acceptor, `Hello`
//!   validation, liveness and eviction, ACKs, scrapes.
//! - `uplink` — play a site toward one parent: connect, rendezvous,
//!   heartbeat, `Done`, reconnect-and-resync (the only retransmission on
//!   a socket; RTO timers are the simulator's).
//! - `tcp` — the coordinator ([`serve`] = a downlink over the root
//!   engine), the site ([`run_site`] = an uplink over a windowed site),
//!   and the in-process [`TcpTransport`].
//! - `aggregator` — the intermediate fan-in role ([`run_aggregator`] =
//!   an uplink whose work serves a downlink from the same queue),
//!   forwarding one pre-merged update per flush interval.
//! - `control` — the handshake/liveness frame codec ([`Control`]).
//! - `liveness` — the pure round/eviction state machine.
//!
//! Every submodule is private; the items below are the one path to what
//! they export.
//!
//! See `docs/OPERATIONS.md` for the operator's manual (launching,
//! tuning, troubleshooting) and DESIGN.md's "Transport abstraction"
//! section for the semantics contract.

mod aggregator;
mod control;
mod downlink;
mod liveness;
mod tcp;
mod uplink;

pub use aggregator::{run_aggregator, AggregatorReport, AggregatorRun, AggregatorRunBuilder};
pub use control::{Control, HealthAlert, RejectCode, PROTOCOL_VERSION};
pub use tcp::{
    run_site, serve, CoordReport, CoordinatorRun, CoordinatorRunBuilder, SiteReport, SiteRun,
    SiteRunBuilder, SocketConfig, TcpTransport,
};
