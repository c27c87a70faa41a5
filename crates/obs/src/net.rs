//! Shared `net.*` instrumentation helpers.
//!
//! Two independent runtimes — the discrete-event simulator and the socket
//! runtime — both account for network traffic. The paper's
//! communication-cost figures (Sec. 5.3) only stay comparable across
//! transports if both record *the same counters from the same callsites*,
//! so the exact set of updates per network event lives here, and both
//! runtimes call these helpers instead of open-coding `obs.counter(...)`
//! lines. What each `net.*` series means is in `docs/METRICS.md`.
//!
//! Payload size means the *frame encoding* the simulator would deliver
//! as one message — the socket transport's 4-byte length prefix is
//! excluded, so bytes-at-coordinator numbers match across transports.

use crate::catalogue;
use crate::journal::{DropReason, Event};
use crate::recorder::{Obs, Recorder};

/// Records one message leaving on the wire: `net.messages` and
/// `net.bytes`.
pub fn on_send(obs: &Obs, bytes: u64) {
    if obs.enabled() {
        obs.counter(catalogue::NET_MESSAGES, 1);
        obs.counter(catalogue::NET_BYTES, bytes);
    }
}

/// Records one control-plane frame (handshake, heartbeat, round
/// orchestration — socket runtime only) leaving on the wire:
/// `net.ctrl_messages` and `net.ctrl_bytes`. Control traffic is counted
/// separately from the payload counters so `net.messages`/`net.bytes`
/// stay directly comparable between the simulator (which has no control
/// plane) and the socket runtime.
pub fn on_ctrl_send(obs: &Obs, bytes: u64) {
    if obs.enabled() {
        obs.counter(catalogue::NET_CTRL_MESSAGES, 1);
        obs.counter(catalogue::NET_CTRL_BYTES, bytes);
    }
}

/// Records a discarded message: `net.dropped` plus a journaled
/// [`Event::Dropped`] carrying the endpoints and reason.
pub fn on_dropped(obs: &Obs, from: u64, to: u64, bytes: u64, reason: DropReason) {
    if obs.enabled() {
        obs.counter(catalogue::NET_DROPPED, 1);
        obs.event(&Event::Dropped { from, to, bytes, reason });
    }
}

/// Records a fault-layer duplicate delivery: `net.duplicated` plus a
/// journaled [`Event::Duplicated`].
pub fn on_duplicated(obs: &Obs, from: u64, to: u64, bytes: u64) {
    if obs.enabled() {
        obs.counter(catalogue::NET_DUPLICATED, 1);
        obs.event(&Event::Duplicated { from, to, bytes });
    }
}

/// Records a fault-layer reorder delay: `net.reordered`.
pub fn on_reordered(obs: &Obs) {
    if obs.enabled() {
        obs.counter(catalogue::NET_REORDERED, 1);
    }
}

/// Records a node going down: `net.crashes` plus a journaled
/// [`Event::SiteCrashed`].
pub fn on_crash(obs: &Obs, node: u64) {
    if obs.enabled() {
        obs.counter(catalogue::NET_CRASHES, 1);
        obs.event(&Event::SiteCrashed { node });
    }
}

/// Records a node coming back: `net.restarts` plus a journaled
/// [`Event::SiteRecovered`].
pub fn on_restart(obs: &Obs, node: u64) {
    if obs.enabled() {
        obs.counter(catalogue::NET_RESTARTS, 1);
        obs.event(&Event::SiteRecovered { node });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use std::sync::Arc;

    #[test]
    fn on_send_updates_both_counters() {
        let registry = Arc::new(Registry::new());
        let obs = Obs::from_registry(registry.clone());
        on_send(&obs, 628);
        on_send(&obs, 30);
        assert_eq!(registry.counter_value("net.messages"), 2);
        assert_eq!(registry.counter_value("net.bytes"), 658);
    }

    #[test]
    fn drop_and_crash_events_reach_the_journal() {
        use std::io::Write;
        use std::sync::Mutex;

        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buf lock").extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let registry = Arc::new(Registry::with_journal(Box::new(buf.clone())));
        let obs = Obs::from_registry(registry.clone());
        on_dropped(&obs, 0, 3, 21, DropReason::Loss);
        on_crash(&obs, 1);
        on_restart(&obs, 1);
        assert_eq!(registry.counter_value("net.dropped"), 1);
        assert_eq!(registry.counter_value("net.crashes"), 1);
        assert_eq!(registry.counter_value("net.restarts"), 1);
        registry.flush_journal().expect("flush");
        let bytes = buf.0.lock().expect("buf lock").clone();
        let journal = String::from_utf8(bytes).expect("utf8 journal");
        assert!(journal.contains("\"event\":\"Dropped\""), "{journal}");
        assert!(journal.contains("\"event\":\"SiteCrashed\""), "{journal}");
        assert!(journal.contains("\"event\":\"SiteRecovered\""), "{journal}");
    }

    #[test]
    fn nop_recorder_records_nothing() {
        let obs = Obs::default();
        assert!(!obs.enabled());
        on_send(&obs, 100);
        on_reordered(&obs);
    }
}
