//! Round orchestration and liveness tracking for the socket coordinator.
//!
//! [`RoundMachine`] is the coordinator's pure state machine: which sites
//! have joined, when each was last heard from, who finished, and who went
//! silent long enough to evict. It never touches a socket or a clock —
//! the serve loop feeds it monotonic microseconds — so eviction policy is
//! unit-testable without any networking.
//!
//! Site lifecycle: `Waiting → Joined → Done`, with `Joined → Evicted` on
//! silence past the timeout and `Evicted → Joined` when the site
//! reconnects (a rejoin triggers a sequence-number resync, not a restart
//! of the round).

/// Lifecycle state of one site within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SiteState {
    /// Never connected.
    Waiting,
    /// Connected and live.
    Joined,
    /// Stream exhausted, every frame acknowledged.
    Done,
    /// Silent past the timeout; its connection was cut.
    Evicted,
}

/// Pure round/liveness state machine for the socket coordinator.
#[derive(Debug)]
pub(crate) struct RoundMachine {
    states: Vec<SiteState>,
    last_seen: Vec<u64>,
    joined_once: Vec<bool>,
    timeout_us: u64,
    started: bool,
}

impl RoundMachine {
    /// A machine for `sites` sites evicting after `timeout_us` of
    /// silence.
    pub(crate) fn new(sites: usize, timeout_us: u64) -> RoundMachine {
        RoundMachine {
            states: vec![SiteState::Waiting; sites],
            last_seen: vec![0; sites],
            joined_once: vec![false; sites],
            timeout_us,
            started: false,
        }
    }

    /// A site said hello at `now_us`. Returns `true` when this is a
    /// rejoin (the site had joined before — after a drop or an eviction —
    /// and needs a resync).
    pub(crate) fn join(&mut self, site: usize, now_us: u64) -> bool {
        let rejoin = self.joined_once[site];
        self.joined_once[site] = true;
        self.states[site] = SiteState::Joined;
        self.last_seen[site] = now_us;
        rejoin
    }

    /// Any traffic (data frame or ping) arrived from a site at `now_us`.
    pub(crate) fn heard(&mut self, site: usize, now_us: u64) {
        self.last_seen[site] = now_us;
        // Traffic from an evicted site that skipped the handshake does
        // not resurrect it; only a fresh Hello (→ `join`) does, because
        // the site must resync its sequence numbers first.
        if self.states[site] == SiteState::Evicted {
            return;
        }
        if self.states[site] == SiteState::Waiting {
            self.states[site] = SiteState::Joined;
        }
    }

    /// A site announced its stream is exhausted and fully acknowledged.
    pub(crate) fn done(&mut self, site: usize) {
        self.states[site] = SiteState::Done;
    }

    /// `true` exactly once: when every site has joined at least once. The
    /// caller broadcasts `Start` on that edge.
    pub(crate) fn ready_to_start(&mut self) -> bool {
        if self.started || !self.joined_once.iter().all(|&j| j) {
            return false;
        }
        self.started = true;
        true
    }

    /// Whether `Start` has been broadcast (late rejoiners get it
    /// immediately after their `Welcome`).
    pub(crate) fn started(&self) -> bool {
        self.started
    }

    /// Sites that have been silent past the timeout, as
    /// `(site, silent_us)` pairs. Transitions them to `Evicted`; only
    /// `Joined` sites are eligible (done sites may close their socket and
    /// go quiet legitimately, waiting sites never spoke).
    pub(crate) fn evictions(&mut self, now_us: u64) -> Vec<(usize, u64)> {
        let mut evicted = Vec::new();
        for site in 0..self.states.len() {
            if self.states[site] != SiteState::Joined {
                continue;
            }
            let silent = now_us.saturating_sub(self.last_seen[site]);
            if silent > self.timeout_us {
                self.states[site] = SiteState::Evicted;
                evicted.push((site, silent));
            }
        }
        evicted
    }

    /// The earliest time at which [`RoundMachine::evictions`] would evict
    /// someone if nobody speaks until then: what a serving loop with
    /// nothing else to do sleeps until. `None` while no site is `Joined`.
    pub(crate) fn next_eviction_us(&self) -> Option<u64> {
        let joined = (0..self.states.len()).filter(|&s| self.states[s] == SiteState::Joined);
        joined.map(|s| self.last_seen[s].saturating_add(self.timeout_us).saturating_add(1)).min()
    }

    /// `true` when the round can end: every site is `Done` or `Evicted`.
    pub(crate) fn finished(&self) -> bool {
        self.started
            && self
                .states
                .iter()
                .all(|s| matches!(s, SiteState::Done | SiteState::Evicted))
    }

    /// Current state of one site.
    #[cfg(test)]
    pub(crate) fn state(&self, site: usize) -> SiteState {
        self.states[site]
    }

    /// States of all sites, indexed by site. The status scraper exports
    /// these as per-site gauges (`Waiting=0, Joined=1, Done=2,
    /// Evicted=3`).
    pub(crate) fn states(&self) -> &[SiteState] {
        &self.states
    }

    /// The numeric encoding of a state used by the status exposition.
    pub(crate) fn state_code(state: SiteState) -> u8 {
        match state {
            SiteState::Waiting => 0,
            SiteState::Joined => 1,
            SiteState::Done => 2,
            SiteState::Evicted => 3,
        }
    }

    /// Sites currently in the `Evicted` state.
    pub(crate) fn evicted_sites(&self) -> Vec<u32> {
        (0..self.states.len())
            .filter(|&s| self.states[s] == SiteState::Evicted)
            .map(|s| s as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMEOUT: u64 = 1_000;

    #[test]
    fn round_starts_once_when_all_joined() {
        let mut m = RoundMachine::new(3, TIMEOUT);
        assert!(!m.ready_to_start());
        m.join(0, 10);
        m.join(2, 20);
        assert!(!m.ready_to_start(), "site 1 missing");
        m.join(1, 30);
        assert!(m.ready_to_start());
        assert!(!m.ready_to_start(), "start edge fires once");
        assert!(m.started());
    }

    #[test]
    fn silent_site_is_evicted_exactly_once() {
        let mut m = RoundMachine::new(2, TIMEOUT);
        m.join(0, 0);
        m.join(1, 0);
        m.heard(0, 900);
        // The horizon a sleeping server wakes at is the first instant the
        // sweep evicts at: site 1, last heard at t=0.
        assert_eq!(m.next_eviction_us(), Some(TIMEOUT + 1));
        assert!(m.evictions(TIMEOUT).is_empty(), "silent for exactly the timeout is not past it");
        // At t=1500 it is 1500 µs silent.
        let evicted = m.evictions(1_500);
        assert_eq!(evicted, vec![(1, 1_500)]);
        assert_eq!(m.state(1), SiteState::Evicted);
        assert_eq!(m.state(0), SiteState::Joined);
        // A second sweep does not re-evict (site 0, heard at t=900, is
        // only 700 µs silent here and stays joined).
        assert!(m.evictions(1_600).is_empty());
        assert_eq!(m.evicted_sites(), vec![1]);
        assert_eq!(m.next_eviction_us(), Some(900 + TIMEOUT + 1), "only site 0 is left to watch");
        m.done(0);
        assert_eq!(m.next_eviction_us(), None, "done and evicted sites have no horizon");
    }

    #[test]
    fn pings_keep_a_site_alive() {
        let mut m = RoundMachine::new(1, TIMEOUT);
        m.join(0, 0);
        for t in (500..5_000).step_by(500) {
            m.heard(0, t);
            assert!(m.evictions(t + 600).is_empty(), "ping at {t} must keep site alive");
        }
    }

    #[test]
    fn done_sites_are_never_evicted() {
        let mut m = RoundMachine::new(1, TIMEOUT);
        m.join(0, 0);
        m.done(0);
        assert!(m.evictions(10_000).is_empty(), "done sites may go quiet");
        assert!(m.ready_to_start());
        assert!(m.finished());
    }

    #[test]
    fn rejoin_after_eviction_resyncs_instead_of_restarting() {
        let mut m = RoundMachine::new(2, TIMEOUT);
        m.join(0, 0);
        m.join(1, 0);
        assert!(m.ready_to_start());
        assert_eq!(m.evictions(2_000), vec![(0, 2_000), (1, 2_000)]);
        assert!(m.finished(), "all evicted ends the round");
        // Site 0 comes back: join reports a rejoin (the coordinator
        // answers with its cumulative ACK so the site resyncs) and the
        // round is live again until site 0 finishes.
        assert!(m.join(0, 2_500), "second join is a rejoin");
        assert_eq!(m.state(0), SiteState::Joined);
        assert!(!m.finished());
        m.done(0);
        assert!(m.finished());
    }

    #[test]
    fn stray_traffic_does_not_resurrect_an_evicted_site() {
        let mut m = RoundMachine::new(1, TIMEOUT);
        m.join(0, 0);
        m.evictions(5_000);
        m.heard(0, 5_100);
        assert_eq!(m.state(0), SiteState::Evicted, "only a fresh Hello rejoins");
    }

    #[test]
    fn states_exports_every_site_with_stable_codes() {
        let mut m = RoundMachine::new(3, TIMEOUT);
        m.join(0, 0);
        m.join(1, 0);
        m.done(1);
        assert_eq!(
            m.states(),
            &[SiteState::Joined, SiteState::Done, SiteState::Waiting]
        );
        let codes: Vec<u8> =
            m.states().iter().map(|&s| RoundMachine::state_code(s)).collect();
        assert_eq!(codes, vec![1, 2, 0]);
        assert_eq!(RoundMachine::state_code(SiteState::Evicted), 3);
    }

    #[test]
    fn first_join_is_not_a_rejoin() {
        let mut m = RoundMachine::new(1, TIMEOUT);
        assert!(!m.join(0, 0));
        assert!(m.join(0, 10), "reconnect after a drop is a rejoin");
    }
}
