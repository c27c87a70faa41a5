use crate::config::Config;
use crate::remote::{ChunkOutcome, ModelId, RemoteSite, SiteEvent};
use cludistream_gmm::{GmmError, Mixture};
use cludistream_linalg::Vector;
use cludistream_wire::{ByteBuf, ByteReader, Malformed};
use std::collections::VecDeque;

/// A remote site with sliding-window semantics (paper Sec. 7): only the
/// last `window_chunks` chunks count. When a chunk expires, the site emits
/// a deletion (the paper's "model ID with negative weight") so the
/// coordinator can subtract it, and decrements its local model counter,
/// dropping models whose weight reaches zero.
#[derive(Debug)]
pub struct SlidingWindowSite {
    inner: RemoteSite,
    window_chunks: usize,
    /// Model that produced each in-window chunk, oldest first.
    chunk_models: VecDeque<ModelId>,
    /// Deletions to transmit, as (model, count) pairs.
    deletions: Vec<(ModelId, u64)>,
    /// Weight updates synthesized for chunks that fit the current model.
    /// Landmark mode stays silent on such chunks (paper Sec. 5.3,
    /// "Stability"), but sliding windows must report them: the
    /// coordinator's deletions are only correct if every chunk's weight was
    /// added in the first place.
    fit_updates: Vec<SiteEvent>,
}

impl SlidingWindowSite {
    /// Creates a sliding-window site holding `window_chunks` chunks.
    pub fn new(config: Config, window_chunks: usize) -> Result<Self, GmmError> {
        if window_chunks == 0 {
            return Err(GmmError::InvalidParameter {
                name: "window_chunks",
                constraint: "window >= 1 chunk",
            });
        }
        Ok(SlidingWindowSite {
            inner: RemoteSite::new(config)?,
            window_chunks,
            chunk_models: VecDeque::new(),
            deletions: Vec::new(),
            fit_updates: Vec::new(),
        })
    }

    /// The wrapped site.
    pub fn site(&self) -> &RemoteSite {
        &self.inner
    }

    /// Attaches a telemetry observer to the wrapped site (see
    /// [`RemoteSite::set_observer`]).
    pub(crate) fn set_observer(&mut self, obs: cludistream_obs::Obs, site: u32) {
        self.inner.set_observer(obs, site);
    }

    /// Window capacity in chunks.
    pub(crate) fn window_chunks(&self) -> usize {
        self.window_chunks
    }

    /// Chunks currently inside the window.
    pub fn chunks_in_window(&self) -> usize {
        self.chunk_models.len()
    }

    /// Consumes one record, expiring old chunks as needed.
    pub fn push(&mut self, x: Vector) -> Result<Option<ChunkOutcome>, GmmError> {
        let outcome = self.inner.push(x)?;
        // A processed chunk always leaves a current model.
        if let (Some(o), Some(model)) = (&outcome, self.inner.current_model()) {
            if matches!(o, ChunkOutcome::FitCurrent { .. }) {
                // Keep the coordinator's counter in sync so future
                // deletions balance (see `fit_updates`).
                self.fit_updates.push(SiteEvent::WeightUpdate {
                    model,
                    count_delta: self.inner.chunk_size() as u64,
                });
            }
            self.chunk_models.push_back(model);
            while self.chunk_models.len() > self.window_chunks {
                let Some(expired) = self.chunk_models.pop_front() else { break };
                self.expire_chunk(expired);
            }
        }
        Ok(outcome)
    }

    /// Removes one chunk's worth of weight from `model`, dropping the model
    /// when its counter reaches zero, and queues the deletion message.
    fn expire_chunk(&mut self, model: ModelId) {
        let m = self.inner.chunk_size() as u64;
        self.deletions.push((model, m));
        // Mutate the inner site's model list through its public API.
        let drop_model = {
            let Some(entry) = self.inner.models_mut().get_mut(model) else { return };
            entry.count = entry.count.saturating_sub(m);
            entry.count == 0
        };
        if drop_model && self.inner.current_model() != Some(model) {
            self.inner.models_mut().remove(model);
        }
    }

    /// Drains the deletion messages queued by window expiry (negative
    /// weights in the paper's terms).
    pub fn drain_deletions(&mut self) -> Vec<(ModelId, u64)> {
        std::mem::take(&mut self.deletions)
    }

    /// Drains the coordinator-bound events: the inner site's (new models,
    /// multi-test weight updates) plus the synthesized fit-chunk weight
    /// updates sliding windows require.
    pub fn drain_events(&mut self) -> Vec<SiteEvent> {
        let mut events = self.inner.drain_events();
        events.append(&mut self.fit_updates);
        events
    }

    /// [`SlidingWindowSite::drain_events`] with trace contexts: the inner
    /// site's events keep their wire spans; the synthesized fit-chunk
    /// weight updates carry none (they aggregate many chunks, so no single
    /// chunk trace owns them).
    pub(crate) fn drain_events_traced(
        &mut self,
    ) -> Vec<(SiteEvent, Option<cludistream_obs::TraceCtx>)> {
        let mut events = self.inner.drain_events_traced();
        events.extend(std::mem::take(&mut self.fit_updates).into_iter().map(|e| (e, None)));
        events
    }

    /// Serializes the full window state — the wrapped site plus the
    /// in-window chunk ledger and any undrained deletions/updates — for
    /// crash recovery. Restore with [`SlidingWindowSite::restore`] under
    /// the same configuration and window size.
    pub fn snapshot(&self) -> ByteBuf {
        let mut buf = self.inner.snapshot();
        buf.put_u64_le(self.window_chunks as u64);
        buf.put_u64_le(self.chunk_models.len() as u64);
        for m in &self.chunk_models {
            buf.put_u64_le(m.0);
        }
        buf.put_u64_le(self.deletions.len() as u64);
        for (m, c) in &self.deletions {
            buf.put_u64_le(m.0);
            buf.put_u64_le(*c);
        }
        buf.put_u64_le(self.fit_updates.len() as u64);
        for ev in &self.fit_updates {
            let SiteEvent::WeightUpdate { model, count_delta } = ev else {
                unreachable!("fit_updates holds only weight updates")
            };
            buf.put_u64_le(model.0);
            buf.put_u64_le(*count_delta);
        }
        buf
    }

    /// Restores a window from [`SlidingWindowSite::snapshot`] bytes. The
    /// configuration and `window_chunks` must match snapshot time.
    pub fn restore(
        config: Config,
        window_chunks: usize,
        snapshot: &mut ByteReader<'_>,
    ) -> Result<Self, GmmError> {
        SlidingWindowSite::read(config, window_chunks, snapshot)
            .map_err(|e| e.named(GmmError::Codec("truncated window checkpoint")))
    }

    fn read(
        config: Config,
        window_chunks: usize,
        r: &mut ByteReader<'_>,
    ) -> Result<Self, Malformed<GmmError>> {
        let inner = RemoteSite::restore(config, r)?;
        if r.get_u64_le()? != window_chunks as u64 {
            return Err(GmmError::Codec("window size mismatch").into());
        }
        let n_chunks = r.get_u64_le()? as usize;
        let chunk_models = r.items(n_chunks, 8, |r| r.get_u64_le().map(ModelId))?.into();
        let n_dels = r.get_u64_le()? as usize;
        let deletions = r.items(n_dels, 16, |r| Ok((ModelId(r.get_u64_le()?), r.get_u64_le()?)))?;
        let n_fit = r.get_u64_le()? as usize;
        let fit_updates = r.items(n_fit, 16, |r| {
            Ok(SiteEvent::WeightUpdate {
                model: ModelId(r.get_u64_le()?),
                count_delta: r.get_u64_le()?,
            })
        })?;
        Ok(SlidingWindowSite { inner, window_chunks, chunk_models, deletions, fit_updates })
    }

    /// The mixture over the current window: models weighted by how many
    /// in-window chunks they govern.
    pub fn window_mixture(&self) -> Result<Mixture, GmmError> {
        if self.chunk_models.is_empty() {
            return Err(GmmError::NotEnoughData { have: 0, need: 1 });
        }
        let mut counts: Vec<(ModelId, u64)> = Vec::new();
        for &m in &self.chunk_models {
            match counts.iter_mut().find(|(id, _)| *id == m) {
                Some((_, c)) => *c += 1,
                None => counts.push((m, 1)),
            }
        }
        let weighted: Vec<(&Mixture, f64)> = counts
            .iter()
            .filter_map(|(id, c)| self.inner.models().get(*id).map(|e| (&e.mixture, *c as f64)))
            .collect();
        Mixture::concat(&weighted)
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
            seed: 11,
            ..Default::default()
        }
    }

    fn feed(site: &mut SlidingWindowSite, center: f64, chunks: usize, seed: u64) {
        let g = Gaussian::spherical(Vector::from_slice(&[center]), 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..site.site().chunk_size() * chunks {
            site.push(g.sample(&mut rng)).unwrap();
        }
    }

    #[test]
    fn zero_window_rejected() {
        assert!(SlidingWindowSite::new(small_config(), 0).is_err());
    }

    #[test]
    fn window_fills_then_slides() {
        let mut s = SlidingWindowSite::new(small_config(), 3).unwrap();
        feed(&mut s, 0.0, 2, 1);
        assert_eq!(s.chunks_in_window(), 2);
        assert!(s.drain_deletions().is_empty());
        feed(&mut s, 0.0, 3, 2);
        assert_eq!(s.chunks_in_window(), 3);
        // Two chunks expired.
        let dels = s.drain_deletions();
        assert_eq!(dels.len(), 2);
        let m = s.site().chunk_size() as u64;
        assert!(dels.iter().all(|&(_, c)| c == m));
    }

    #[test]
    fn expired_regime_leaves_the_window_model() {
        let mut s = SlidingWindowSite::new(small_config(), 2).unwrap();
        feed(&mut s, 0.0, 2, 3); // old regime fills the window
        feed(&mut s, 60.0, 2, 4); // new regime pushes it out entirely
        let w = s.window_mixture().unwrap();
        let mass_old: f64 = w
            .components()
            .iter()
            .zip(w.weights())
            .filter(|(c, _)| c.mean()[0].abs() < 30.0)
            .map(|(_, &w)| w)
            .sum();
        assert!(mass_old < 1e-9, "expired regime still weighted: {mass_old}");
    }

    #[test]
    fn fully_expired_model_dropped_from_list() {
        let mut s = SlidingWindowSite::new(small_config(), 1).unwrap();
        feed(&mut s, 0.0, 1, 5);
        assert_eq!(s.site().models().len(), 1);
        feed(&mut s, 60.0, 2, 6);
        // The old model's only chunk expired; since it is no longer current
        // it must be gone.
        assert_eq!(s.site().models().len(), 1, "old model not dropped");
        let dels = s.drain_deletions();
        assert!(!dels.is_empty());
    }

    #[test]
    fn window_mixture_counts_by_chunks() {
        let mut s = SlidingWindowSite::new(small_config(), 4).unwrap();
        feed(&mut s, 0.0, 3, 7);
        feed(&mut s, 60.0, 1, 8);
        let w = s.window_mixture().unwrap();
        let mass_old: f64 = w
            .components()
            .iter()
            .zip(w.weights())
            .filter(|(c, _)| c.mean()[0].abs() < 30.0)
            .map(|(_, &w)| w)
            .sum();
        assert!((mass_old - 0.75).abs() < 0.05, "mass_old {mass_old}");
    }

    #[test]
    fn empty_window_has_no_mixture() {
        let s = SlidingWindowSite::new(small_config(), 2).unwrap();
        assert!(s.window_mixture().is_err());
    }
}
