use crate::event::{NodeId, SimTime};

/// A send requested by a node during a callback, staged until the event
/// loop can validate and enqueue it.
#[derive(Debug)]
pub(crate) enum Action<M> {
    Send { to: NodeId, payload: M, bytes: usize },
    Timer { delay: SimTime, tag: u64 },
}

/// The API surface a node sees during its callbacks: the clock, its own
/// identity, and the ability to send messages and set timers.
#[derive(Debug)]
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) actions: &'a mut Vec<Action<M>>,
}

impl<M> Context<'_, M> {
    /// Current simulation time (microseconds).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `payload` to `to`, declaring its wire size in `bytes`. The
    /// simulator validates the link against the topology at dispatch time
    /// and accounts the bytes in [`crate::CommStats`].
    pub fn send(&mut self, to: NodeId, payload: M, bytes: usize) {
        self.actions.push(Action::Send { to, payload, bytes });
    }

    /// Schedules `on_timer(tag)` on this node after `delay` microseconds.
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.actions.push(Action::Timer { delay, tag });
    }
}

/// Behaviour of a simulation participant. Implementations are single
/// threaded: callbacks never run concurrently.
///
/// The [`std::any::Any`] supertrait lets callers recover concrete node
/// types after a run via [`crate::Simulation::node_as`].
pub trait Node<M>: std::any::Any {
    /// Called once when the simulation starts, in node-id order.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _tag: u64) {}

    /// Called when a [`crate::FaultPlan`] outage crashes this node. The
    /// process is dying: there is no [`Context`], so nothing can be sent,
    /// and every pending timer is cancelled by the simulator. The default
    /// does nothing (volatile state is simply frozen until restart);
    /// realistic nodes should treat everything not explicitly checkpointed
    /// as lost.
    fn on_crash(&mut self) {}

    /// Called when the outage ends and the node restarts. Runs with a
    /// fresh [`Context`] so the node can resync from durable state and
    /// re-arm its timers. The default does nothing, which leaves a
    /// crashed node inert for the rest of the run.
    fn on_restart(&mut self, _ctx: &mut Context<'_, M>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_records_actions() {
        let mut actions: Vec<Action<u8>> = Vec::new();
        let mut ctx = Context { now: 42, actions: &mut actions };
        assert_eq!(ctx.now(), 42);
        ctx.send(NodeId(2), 5, 10);
        ctx.set_timer(100, 7);
        assert_eq!(actions.len(), 2);
        assert!(matches!(actions[0], Action::Send { to: NodeId(2), payload: 5, bytes: 10 }));
        assert!(matches!(actions[1], Action::Timer { delay: 100, tag: 7 }));
    }
}
