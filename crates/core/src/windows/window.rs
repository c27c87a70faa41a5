//! The unified [`Window`] abstraction the driver runs sites through.
//!
//! The paper's window semantics (landmark, sliding; Sec. 7) used to be
//! plumbed through the driver as separate near-duplicate code paths. A
//! `Box<dyn Window>` now carries everything the driver needs — record
//! ingestion, coordinator-bound events, expiry deletions, and durable
//! checkpointing for crash recovery — so one site node serves every
//! window kind, and new window semantics plug in without touching the
//! driver.

use crate::config::Config;
use crate::error::CludiError;
use crate::remote::{ChunkOutcome, ModelId, RemoteSite, SiteEvent};
use crate::windows::SlidingWindowSite;
use cludistream_linalg::Vector;
use cludistream_obs::{Obs, TraceCtx};
use cludistream_wire::{ByteBuf, ByteReader};

/// A remote site wrapped in some window semantics. Object safe: the
/// driver holds `Box<dyn Window>`. `Send` so the socket transport can
/// run each site's window on its own thread.
pub(crate) trait Window: std::fmt::Debug + Send {
    /// Consumes one record; returns the chunk outcome when a chunk
    /// completed.
    fn push(&mut self, x: Vector) -> Result<Option<ChunkOutcome>, CludiError>;

    /// Drains the coordinator-bound events (new models, weight updates).
    fn drain_events(&mut self) -> Vec<SiteEvent>;

    /// Drains the coordinator-bound events paired with the trace context
    /// of the wire span opened when each event was produced. The default
    /// forwards to [`Window::drain_events`] with no context, for window
    /// kinds that do not trace.
    fn drain_events_traced(&mut self) -> Vec<(SiteEvent, Option<TraceCtx>)> {
        self.drain_events().into_iter().map(|e| (e, None)).collect()
    }

    /// Drains expiry deletions as `(model, count)` pairs. Windows without
    /// expiry (landmark) never produce any.
    fn drain_deletions(&mut self) -> Vec<(ModelId, u64)> {
        Vec::new()
    }

    /// The wrapped site, for statistics and model inspection.
    fn site(&self) -> &RemoteSite;

    /// Attaches a telemetry observer to the wrapped site.
    fn set_observer(&mut self, obs: Obs, site: u32);

    /// Serializes the window's full durable state (including the wrapped
    /// site) for crash recovery.
    fn snapshot(&self) -> ByteBuf;

    /// Restores the state written by [`Window::snapshot`], in place. The
    /// reader is left positioned after the snapshot so callers can frame
    /// several records in one buffer.
    fn restore_from(&mut self, snapshot: &mut ByteReader<'_>) -> Result<(), CludiError>;
}

/// Landmark-window semantics: every record since stream start counts, no
/// expiry. The thinnest possible [`Window`] over a [`RemoteSite`].
#[derive(Debug)]
pub(crate) struct LandmarkWindow {
    site: RemoteSite,
}

impl LandmarkWindow {
    /// A landmark window over a fresh site.
    pub(crate) fn new(config: Config) -> Result<Self, CludiError> {
        Ok(LandmarkWindow { site: RemoteSite::new(config)? })
    }
}

impl Window for LandmarkWindow {
    fn push(&mut self, x: Vector) -> Result<Option<ChunkOutcome>, CludiError> {
        Ok(self.site.push(x)?)
    }

    fn drain_events(&mut self) -> Vec<SiteEvent> {
        self.site.drain_events()
    }

    fn drain_events_traced(&mut self) -> Vec<(SiteEvent, Option<TraceCtx>)> {
        self.site.drain_events_traced()
    }

    fn site(&self) -> &RemoteSite {
        &self.site
    }

    fn set_observer(&mut self, obs: Obs, site: u32) {
        self.site.set_observer(obs, site);
    }

    fn snapshot(&self) -> ByteBuf {
        self.site.snapshot()
    }

    fn restore_from(&mut self, snapshot: &mut ByteReader<'_>) -> Result<(), CludiError> {
        self.site = RemoteSite::restore(self.site.config().clone(), snapshot)?;
        Ok(())
    }
}

impl Window for SlidingWindowSite {
    fn push(&mut self, x: Vector) -> Result<Option<ChunkOutcome>, CludiError> {
        Ok(SlidingWindowSite::push(self, x)?)
    }

    fn drain_events(&mut self) -> Vec<SiteEvent> {
        SlidingWindowSite::drain_events(self)
    }

    fn drain_events_traced(&mut self) -> Vec<(SiteEvent, Option<TraceCtx>)> {
        SlidingWindowSite::drain_events_traced(self)
    }

    fn drain_deletions(&mut self) -> Vec<(ModelId, u64)> {
        SlidingWindowSite::drain_deletions(self)
    }

    fn site(&self) -> &RemoteSite {
        SlidingWindowSite::site(self)
    }

    fn set_observer(&mut self, obs: Obs, site: u32) {
        SlidingWindowSite::set_observer(self, obs, site);
    }

    fn snapshot(&self) -> ByteBuf {
        SlidingWindowSite::snapshot(self)
    }

    fn restore_from(&mut self, snapshot: &mut ByteReader<'_>) -> Result<(), CludiError> {
        *self = SlidingWindowSite::restore(
            self.site().config().clone(),
            self.window_chunks(),
            snapshot,
        )?;
        Ok(())
    }
}

/// A recipe for a site window, used by the [`crate::Simulation`] builder to
/// stamp out one window per site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Landmark window: all data since stream start (the paper's default).
    Landmark,
    /// Sliding window over the last `chunks` chunks, with expiry
    /// deletions (paper Sec. 7).
    Sliding {
        /// Window capacity in chunks (must be ≥ 1).
        chunks: usize,
    },
}

impl WindowSpec {
    /// Builds a window of this kind over a fresh site.
    pub(crate) fn build(&self, config: Config) -> Result<Box<dyn Window>, CludiError> {
        match *self {
            WindowSpec::Landmark => Ok(Box::new(LandmarkWindow::new(config)?)),
            WindowSpec::Sliding { chunks } => {
                Ok(Box::new(SlidingWindowSite::new(config, chunks)?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_gmm::{ChunkParams, Gaussian};
    use cludistream_rng::StdRng;

    fn small_config() -> Config {
        Config {
            dim: 1,
            k: 2,
            chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
            seed: 21,
            ..Default::default()
        }
    }

    fn feed(w: &mut dyn Window, center: f64, chunks: usize, seed: u64) {
        let g = Gaussian::spherical(Vector::from_slice(&[center]), 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..w.site().chunk_size() * chunks {
            w.push(g.sample(&mut rng)).unwrap();
        }
    }

    #[test]
    fn both_window_kinds_build_from_spec() {
        for spec in [WindowSpec::Landmark, WindowSpec::Sliding { chunks: 2 }] {
            let mut w = spec.build(small_config()).unwrap();
            feed(w.as_mut(), 0.0, 2, 1);
            assert!(!w.drain_events().is_empty());
        }
        assert!(WindowSpec::Sliding { chunks: 0 }.build(small_config()).is_err());
    }

    #[test]
    fn landmark_window_never_deletes() {
        let mut w = WindowSpec::Landmark.build(small_config()).unwrap();
        feed(w.as_mut(), 0.0, 2, 2);
        feed(w.as_mut(), 50.0, 2, 3);
        assert!(w.drain_deletions().is_empty());
    }

    #[test]
    fn sliding_window_deletes_through_trait() {
        let mut w = WindowSpec::Sliding { chunks: 1 }.build(small_config()).unwrap();
        feed(w.as_mut(), 0.0, 2, 4);
        assert!(!w.drain_deletions().is_empty());
    }

    #[test]
    fn snapshot_restores_in_place_for_both_kinds() {
        for spec in [WindowSpec::Landmark, WindowSpec::Sliding { chunks: 3 }] {
            let mut w = spec.build(small_config()).unwrap();
            feed(w.as_mut(), 0.0, 2, 5);
            w.drain_events();
            let snap = w.snapshot();
            // A fresh window restored from the snapshot continues the
            // stream exactly like the original.
            let mut restored = spec.build(small_config()).unwrap();
            restored.restore_from(&mut snap.reader()).unwrap();
            assert_eq!(restored.site().stats(), w.site().stats());
            feed(w.as_mut(), 10.0, 1, 6);
            feed(restored.as_mut(), 10.0, 1, 6);
            assert_eq!(restored.site().stats(), w.site().stats());
            assert_eq!(
                restored.drain_events().len(),
                w.drain_events().len(),
                "{spec:?} diverged after restore"
            );
        }
    }

    #[test]
    fn restore_rejects_truncated_snapshot() {
        let mut w = WindowSpec::Sliding { chunks: 2 }.build(small_config()).unwrap();
        feed(w.as_mut(), 0.0, 1, 7);
        let snap = w.snapshot();
        for cut in [0, 10, snap.len() - 1] {
            let mut fresh = WindowSpec::Sliding { chunks: 2 }.build(small_config()).unwrap();
            assert!(
                fresh.restore_from(&mut snap.slice(..cut).reader()).is_err(),
                "cut {cut} accepted"
            );
        }
    }
}
