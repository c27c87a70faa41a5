//! The [`Transport`] abstraction: how a star of remote sites reaches the
//! coordinator.
//!
//! The paper's experiments assume real sites streaming synopses over a
//! network; the early PRs ran everything inside the deterministic
//! discrete-event simulator. This module splits the two concerns: the
//! [`crate::Simulation`] builder describes the *workload* (sites, window
//! semantics, streams, delivery tuning) as a [`RunRecipe`], and a
//! [`Transport`] decides how the bytes actually move:
//!
//! - [`SimnetTransport`] — the discrete-event simulator. Deterministic,
//!   simulated clock, optional fault injection ([`FaultPlan`]). Golden
//!   journal/trace fixtures are recorded through this transport and stay
//!   byte-identical.
//! - [`crate::runtime::TcpTransport`] — real `std::net` TCP sockets on
//!   loopback, one OS thread per site, wall clock, reliable delivery
//!   always on. Same synopsis bytes, same merge/split decisions, same
//!   `net.*` counters — different clock.
//!
//! Transport-specific knobs (fault plans, heartbeat tuning)
//! live on the transport value, not on the builder, so the builder stays
//! implementation-agnostic:
//!
//! ```no_run
//! use cludistream::{Simulation, SimnetTransport, WindowSpec};
//! use cludistream_simnet::{FaultPlan, LinkFaults};
//!
//! # let streams = Vec::new();
//! let report = Simulation::star(4)
//!     .with_window(WindowSpec::Sliding { chunks: 8 })
//!     .with_transport(Box::new(SimnetTransport::new().with_faults(
//!         FaultPlan::seeded(7).with_link(LinkFaults { drop_p: 0.1, ..Default::default() }),
//!     )))
//!     .with_streams(streams)
//!     .with_updates_per_site(10_000)
//!     .run()?;
//! assert!(report.delivery.balanced());
//! # Ok::<(), cludistream::CludiError>(())
//! ```

use crate::driver::{DeliveryMode, DriverConfig, RecordStream, StarReport};
use crate::error::CludiError;
use crate::serving::SnapshotHandle;
use crate::windows::WindowSpec;
use cludistream_simnet::FaultPlan;
use std::sync::Arc;

/// Shape of an aggregator tier between the sites and the root (paper
/// Sec. 7's multi-layer network, deployed): `levels[0]` aggregators fan
/// in the sites, `levels[1]` fan in `levels[0]`, and so on; the root
/// coordinator terminates the last level. Children are split across a
/// level's aggregators in contiguous, balanced ranges.
///
/// Each aggregator pre-merges its children's synopses with the standard
/// merge/split machinery and forwards **one** reduced summary upward per
/// [`crate::SHARD_FLUSH_INTERVAL_US`] (suppressed entirely when the
/// summary has not moved by more than [`crate::SHARD_EPSILON`]). The root
/// therefore sees O(aggregators) messages and keeps O(models) state
/// instead of O(sites) × O(history).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeTopology {
    /// Aggregator counts per level, sites upward: `vec![n]` is a
    /// two-level tree (n aggregators between the sites and the root),
    /// `vec![lower, upper]` a three-level one. Must be non-empty with
    /// every level ≥ 1; levels need not shrink, but usually do.
    pub levels: Vec<usize>,
}

impl TreeTopology {
    /// Checks the shape over `sites` sites: a tree has at least one level,
    /// and every aggregator must get at least one child, so a level can be
    /// neither empty nor wider than what feeds it.
    pub(crate) fn validate(&self, sites: usize) -> Result<(), CludiError> {
        if self.levels.is_empty() {
            return Err(CludiError::InvalidConfig {
                name: "tree.levels",
                constraint: "at least one aggregator level",
            });
        }
        let mut feeding = sites;
        for &count in &self.levels {
            if count == 0 {
                return Err(CludiError::InvalidConfig {
                    name: "tree.levels",
                    constraint: "every level needs >= 1 aggregator",
                });
            }
            if count > feeding {
                return Err(CludiError::InvalidConfig {
                    name: "tree.levels",
                    constraint: "a level cannot be wider than the one below it",
                });
            }
            feeding = count;
        }
        Ok(())
    }
}

/// A fully validated run description, handed by the [`crate::Simulation`]
/// builder to a [`Transport`]. Everything in it is transport-agnostic.
pub struct RunRecipe {
    /// Number of remote sites (≥ 1; equals `streams.len()`).
    pub sites: usize,
    /// Window semantics every site runs under.
    pub window: WindowSpec,
    /// Site/coordinator configuration, rates, and the observer.
    pub config: DriverConfig,
    /// Delivery mode override; `None` lets the transport pick its
    /// default (simnet: fire-and-forget unless faults are attached; TCP:
    /// always reliable).
    pub delivery: Option<DeliveryMode>,
    /// One record stream per site.
    pub streams: Vec<RecordStream>,
    /// Records each site consumes.
    pub updates_per_site: u64,
    /// Serving-layer publication point. `Some` makes the coordinator
    /// publish a fresh [`crate::ModelSnapshot`] into the handle after
    /// every applied message, whatever the transport; `None` (the
    /// default) keeps the write path byte-identical to a run without a
    /// serving layer.
    pub snapshots: Option<Arc<SnapshotHandle>>,
    /// Aggregator tier between the sites and the root. `None` (the
    /// default) is the classic star and keeps every transport
    /// byte-identical to earlier releases. `Some` makes the simnet
    /// transport route synopses through in-simulation
    /// [`crate::AggregatorEngine`] nodes; the socket transport rejects
    /// it — a real deployment composes `cludistream aggregator`
    /// processes instead.
    pub tree: Option<TreeTopology>,
}

/// How synopsis frames travel between sites and the coordinator.
///
/// Implementations consume a [`RunRecipe`] and drive the shared site and
/// coordinator engines to completion, returning the same [`StarReport`]
/// shape regardless of what moved the bytes.
pub trait Transport {
    /// Runs the recipe to completion.
    fn run(self: Box<Self>, recipe: RunRecipe) -> Result<StarReport, CludiError>;
}

/// The deterministic discrete-event transport (the default). Owns the
/// simnet-specific knob that used to sit on the `Simulation` builder: the
/// fault plan.
#[derive(Debug, Default)]
pub struct SimnetTransport {
    faults: Option<FaultPlan>,
}

impl SimnetTransport {
    /// A fault-free simulator transport with default link timing.
    pub fn new() -> SimnetTransport {
        SimnetTransport::default()
    }

    /// Attaches a deterministic fault plan. Unless the recipe overrides
    /// delivery explicitly, this switches the run to reliable delivery.
    pub fn with_faults(mut self, plan: FaultPlan) -> SimnetTransport {
        self.faults = Some(plan);
        self
    }
}

impl Transport for SimnetTransport {
    fn run(self: Box<Self>, recipe: RunRecipe) -> Result<StarReport, CludiError> {
        crate::driver::run_simnet(recipe, self.faults)
    }
}
