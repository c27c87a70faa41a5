#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]

//! Deterministic discrete-event network simulator.
//!
//! The paper runs its distributed experiments under the C++Sim discrete
//! event simulation package, with a star communication model (each remote
//! site talks to the coordinator only — "there is no direct communication
//! between the remote sites") and a global clock, collecting "the total
//! communication cost ... every second". This crate is that substrate:
//!
//! - [`Simulation`] — a single-threaded, deterministic event loop over
//!   user-defined [`Node`]s, generic over the message type. A node's
//!   callbacks see the clock, send messages and set timers through a
//!   [`Context`]; the run ends when the event queue drains.
//! - [`Topology`] — star and tree topologies whose edges are *enforced*: a
//!   send along a non-edge is a simulation error, which keeps algorithm
//!   implementations honest about the paper's communication model.
//! - [`LinkModel`] — per-message latency plus bandwidth-proportional
//!   serialization delay.
//! - [`CommStats`] — byte-accurate accounting with a per-second time
//!   series, exactly what Fig. 2 plots.
//! - [`FaultPlan`] — deterministic fault injection: per-link drop /
//!   duplicate / reorder probabilities ([`LinkFaults`]), timed
//!   [`Partition`]s, and site crash/restart [`Outage`]s, with every random
//!   decision drawn from a dedicated RNG stream seeded by the plan, so a
//!   fault trace replays byte-identically. Accounting lands in
//!   [`FaultStats`].
//!
//! Time is `u64` microseconds ([`SimTime`]); ties are broken by insertion
//! sequence so runs are reproducible bit-for-bit.
//!
//! # Example
//!
//! ```
//! use cludistream_simnet::{Context, Node, NodeId, Simulation, Topology};
//!
//! struct Ping;
//! struct Echo;
//! impl Node<u32> for Ping {
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         ctx.send(NodeId(1), 7, 4); // 4 bytes to the hub
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: NodeId, msg: u32) {
//!         assert_eq!(msg, 8);
//!     }
//! }
//! impl Node<u32> for Echo {
//!     fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
//!         ctx.send(from, msg + 1, 4);
//!     }
//! }
//!
//! let mut sim = Simulation::new(Topology::star(1), Default::default());
//! sim.add_node(Box::new(Ping)); // NodeId(0): the spoke
//! sim.add_node(Box::new(Echo)); // NodeId(1): the hub
//! sim.run().unwrap();
//! assert_eq!(sim.stats().total_messages(), 2);
//! ```

mod event;
mod faults;
mod network;
mod node;
mod sim;
mod stats;

pub use event::{NodeId, SimTime, MICROS_PER_SEC};
pub use faults::{FaultPlan, FaultStats, LinkFaults, Outage, Partition};
pub use network::{LinkModel, Topology};
pub use node::{Context, Node};
pub use sim::{SimError, Simulation};
pub use stats::CommStats;
