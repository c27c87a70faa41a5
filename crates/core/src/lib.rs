#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

//! # CluDistream — EM-based distributed data stream clustering
//!
//! A faithful reproduction of *"Distributed Data Stream Clustering: A Fast
//! EM-based Approach"* (Zhou, Cao, Yan, Sha, He — ICDE 2007).
//!
//! CluDistream clusters data streams arriving at `r` remote sites that can
//! only talk to a central coordinator. Each site runs a **test-and-cluster**
//! strategy: the stream is cut into chunks of `M = -2d·ln(δ(2-δ))/ε`
//! records (Theorem 1); each chunk is *tested* against the current Gaussian
//! mixture model via the average-log-likelihood criterion
//! `J_fit = |AvgPr_n − AvgPr_0| ≤ ε` (Theorem 2) and only *clustered* with
//! EM when the tests fail. The coordinator maintains a hierarchy of
//! Gaussian mixtures over all sites' synopses, merging close components
//! (`M_merge`, Eq. 5), splitting drifted ones (`M_split`, Eq. 6), and
//! refining merged components with the downhill-simplex method.
//!
//! ## Crate layout
//!
//! - [`Config`] — the (ε, δ, K, c_max, …) parameter set.
//! - [`remote`] — [`RemoteSite`]: Algorithm 1 with the multi-test
//!   strategy, the model list, and the event table.
//! - [`coordinator`] — [`Coordinator`]: Algorithm 2 (`OnUpdates`),
//!   merge/split criteria and merge refinement.
//! - [`Message`] and [`Frame`] — the byte-accounted site→coordinator wire
//!   format, with [`ReliableSender`] / [`ReliableInbox`] for reliable
//!   delivery.
//! - [`WindowSpec`] — landmark or sliding-window semantics
//!   ([`SlidingWindowSite`]), plus [`landmark_mixture`] and
//!   [`horizon_mixture`] queries.
//! - [`ChangeDetector`] — change detection from chunk outcomes (Sec. 7).
//! - [`AggregatorEngine`] — tree-structured networks (Sec. 7) as a
//!   deployable tier: it terminates a fan-in of children and forwards one
//!   reduced summary per round, so the root scales to swarms
//!   (O(aggregators) messages, O(models) state).
//! - [`Simulation`] — the run builder: `Simulation::star(n)` configures a
//!   star of `n` sites, `with_window` selects landmark or sliding-window
//!   semantics, and `run()` returns a [`StarReport`] with byte-accurate
//!   communication and delivery accounting ([`DeliveryReport`]).
//! - [`Transport`] — how the bytes move: the deterministic
//!   [`SimnetTransport`] (default; `with_faults` on the transport attaches
//!   a [`FaultPlan`], switching synopsis delivery to the reliable
//!   protocol) or the socket runtime's [`runtime::TcpTransport`], selected
//!   via `with_transport`.
//! - [`runtime`] — the process-per-site TCP runtime: coordinator/site
//!   loops over real `std::net` sockets, rendezvous handshake, heartbeats
//!   and timeout-based eviction.
//! - [`ModelSnapshot`] — the read side: immutable, versioned snapshots of
//!   the global model published behind an Arc-swap [`SnapshotHandle`] and
//!   scored lock-free with `cludistream_gmm::score`.
//!
//! ## Quickstart
//!
//! ```
//! use cludistream::{Config, RemoteSite};
//! use cludistream_gmm::ChunkParams;
//! use cludistream_linalg::Vector;
//!
//! // A 1-d site with a small chunk size for the example.
//! let config = Config {
//!     dim: 1,
//!     k: 2,
//!     chunk: ChunkParams { epsilon: 0.2, delta: 0.05 },
//!     ..Default::default()
//! };
//! let mut site = RemoteSite::new(config).unwrap();
//! // Push two chunks of records around x = 5.
//! for i in 0..(2 * site.chunk_size()) {
//!     let x = 5.0 + ((i % 13) as f64 - 6.0) * 0.1;
//!     site.push(Vector::from_slice(&[x])).unwrap();
//! }
//! assert_eq!(site.models().len(), 1);        // one distribution seen
//! assert!(site.current_mixture().is_some()); // and one model learned
//! ```

mod aggregator;
mod change;
mod config;
pub mod coordinator;
mod driver;
mod engine;
mod error;
pub mod prelude;
mod protocol;
pub mod remote;
pub mod runtime;
mod serving;
mod transport;
mod windows;

pub use aggregator::{
    AggregatorConfig, AggregatorEngine, SHARD_EPSILON, SHARD_FLUSH_INTERVAL_US, SHARD_MERGE_LOG_CAP,
};
pub use change::{ChangeDetector, ChangeKind, ChangePoint};
pub use cludistream_simnet::{FaultPlan, LinkFaults, NodeId};
pub use config::Config;
pub use coordinator::{Coordinator, CoordinatorConfig, MergeRecord};
pub use driver::{
    DeliveryMode, DeliveryReport, DriverConfig, RecordStream, Simulation, StarReport,
};
pub use error::CludiError;
pub use protocol::{Frame, Message, ReliableInbox, ReliableSender};
pub use remote::{ChunkOutcome, ModelId, RemoteSite, SiteEvent, SiteStats};
pub use serving::{
    score_snapshot, MemberIter, ModelSnapshot, SnapshotGroup, SnapshotHandle, SnapshotMember,
    SnapshotMembers,
};
pub use transport::{RunRecipe, SimnetTransport, Transport, TreeTopology};
pub use windows::{horizon_mixture, landmark_mixture, SlidingWindowSite, WindowSpec};
