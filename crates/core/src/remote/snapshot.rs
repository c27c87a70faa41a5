//! Site checkpoint/restore.
//!
//! A remote site's entire state — model list, event table, counters, and
//! the partially filled chunk buffer — serializes into a compact binary
//! snapshot. A crashed or migrated site restores bit-for-bit and continues
//! the stream where it left off, which matters for the long-running
//! deployments the paper targets (telecom monitoring, sensor networks).
//!
//! Layout (little-endian; mixtures use [`cludistream_gmm::codec`]):
//!
//! ```text
//! u32 magic "CLDS"   u16 version
//! u32 dim
//! u64 chunk_index    u64 next_model_id
//! u8 has_current  [u64 current_model_id]
//! 7 × u64 stats
//! u32 model_count
//!   per model: u64 id, f64 avg_ll, f64 ll_std, u64 count, u64 created,
//!              u64 last_active, mixture synopsis
//! u32 closed_events  (u64 start, u64 end, u64 model)*
//! u8 has_open  [u64 start, u64 model]
//! u32 buffered_records  (dim × f64)*
//! ```

use crate::remote::event_table::{EventEntry, EventTable};
use crate::remote::model_list::{ModelEntry, ModelId, ModelList};
use crate::remote::site::{RemoteSite, SiteStats};
use cludistream_gmm::codec::{decode_mixture, encode_mixture};
use cludistream_gmm::{CovarianceType, GmmError};
use cludistream_wire::{ByteBuf, ByteReader, Malformed};

const MAGIC: u32 = 0x434C_4453; // "CLDS"
const VERSION: u16 = 1;

impl RemoteSite {
    /// Serializes the full site state. Restore with
    /// [`RemoteSite::restore`] under the *same configuration*.
    pub fn snapshot(&self) -> ByteBuf {
        let mut buf = ByteBuf::new();
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u32_le(self.config().dim as u32);
        buf.put_u64_le(self.chunk_index());
        buf.put_u64_le(self.models().next_id());
        match self.current_model() {
            Some(id) => {
                buf.put_u8(1);
                buf.put_u64_le(id.0);
            }
            None => buf.put_u8(0),
        }
        let s = self.stats();
        for v in [s.records, s.chunks, s.fit_current, s.switched, s.clustered, s.tests, s.em_iterations]
        {
            buf.put_u64_le(v);
        }
        // Models. Snapshots always use the full covariance representation:
        // a diagonal-config site's covariances are diagonal matrices and
        // roundtrip exactly.
        let entries = self.models().entries();
        buf.put_u32_le(entries.len() as u32);
        for e in entries {
            buf.put_u64_le(e.id.0);
            buf.put_f64_le(e.avg_ll);
            buf.put_f64_le(e.ll_std);
            buf.put_u64_le(e.count);
            buf.put_u64_le(e.created_at_chunk);
            buf.put_u64_le(e.last_active_chunk);
            buf.extend_from_slice(&encode_mixture(&e.mixture, CovarianceType::Full));
        }
        // Event table.
        let (closed, open) = self.events().parts();
        buf.put_u32_le(closed.len() as u32);
        for ev in closed {
            buf.put_u64_le(ev.start_chunk);
            buf.put_u64_le(ev.end_chunk);
            buf.put_u64_le(ev.model.0);
        }
        match open {
            Some((start, model)) => {
                buf.put_u8(1);
                buf.put_u64_le(start);
                buf.put_u64_le(model.0);
            }
            None => buf.put_u8(0),
        }
        // Partially filled chunk buffer.
        let buffered = self.buffered_records();
        buf.put_u32_le(buffered.len() as u32);
        for x in buffered {
            for v in x {
                buf.put_f64_le(v);
            }
        }
        buf
    }

    /// Restores a site from a [`RemoteSite::snapshot`]. The configuration
    /// must match the one the snapshot was taken under (dimensionality is
    /// validated; the rest is the caller's contract).
    pub fn restore(config: crate::Config, snapshot: &mut ByteReader<'_>) -> Result<Self, GmmError> {
        RemoteSite::read(config, snapshot)
            .map_err(|e| e.named(GmmError::Codec("truncated site checkpoint")))
    }

    fn read(config: crate::Config, r: &mut ByteReader<'_>) -> Result<Self, Malformed<GmmError>> {
        if r.get_u32_le()? != MAGIC {
            return Err(GmmError::Codec("bad snapshot magic").into());
        }
        if r.get_u16_le()? != VERSION {
            return Err(GmmError::Codec("unsupported snapshot version").into());
        }
        let dim = r.get_u32_le()? as usize;
        if dim != config.dim {
            return Err(GmmError::DimensionMismatch { expected: config.dim, got: dim }.into());
        }
        let mut site = RemoteSite::new(config)?;

        let chunk_index = r.get_u64_le()?;
        let next_model_id = r.get_u64_le()?;
        let current = match r.get_u8()? {
            0 => None,
            1 => Some(ModelId(r.get_u64_le()?)),
            _ => return Err(GmmError::Codec("bad current-model flag").into()),
        };
        let stats = SiteStats {
            records: r.get_u64_le()?,
            chunks: r.get_u64_le()?,
            fit_current: r.get_u64_le()?,
            switched: r.get_u64_le()?,
            clustered: r.get_u64_le()?,
            tests: r.get_u64_le()?,
            em_iterations: r.get_u64_le()?,
        };
        // Not pre-sized: an entry's size depends on its mixture.
        let mut entries = Vec::new();
        for _ in 0..r.get_u32_le()? {
            let id = ModelId(r.get_u64_le()?);
            let avg_ll = r.get_f64_le()?;
            let ll_std = r.get_f64_le()?;
            let count = r.get_u64_le()?;
            let created_at_chunk = r.get_u64_le()?;
            let last_active_chunk = r.get_u64_le()?;
            let mixture = decode_mixture(r)?;
            if id.0 >= next_model_id {
                return Err(GmmError::Codec("model id exceeds next_id").into());
            }
            entries.push(ModelEntry {
                id,
                mixture,
                avg_ll,
                ll_std,
                count,
                created_at_chunk,
                last_active_chunk,
            });
        }
        if current.is_some() && !entries.iter().any(|e| Some(e.id) == current) {
            return Err(GmmError::Codec("current model not in model list").into());
        }
        let closed_count = r.get_u32_le()? as usize;
        let closed = r.items(closed_count, 24, |r| {
            Ok(EventEntry {
                start_chunk: r.get_u64_le()?,
                end_chunk: r.get_u64_le()?,
                model: ModelId(r.get_u64_le()?),
            })
        })?;
        let open = match r.get_u8()? {
            0 => None,
            1 => Some((r.get_u64_le()?, ModelId(r.get_u64_le()?))),
            _ => return Err(GmmError::Codec("bad open-event flag").into()),
        };
        let buffered = r.get_u32_le()? as usize;
        if buffered >= site.chunk_size() {
            return Err(GmmError::Codec("buffered records fill a chunk").into());
        }
        let buffer: Vec<f64> = r.f64s(buffered * dim)?.collect();

        site.install_snapshot(
            ModelList::from_parts(entries, next_model_id),
            EventTable::from_parts(closed, open),
            current,
            chunk_index,
            stats,
            &buffer,
        );
        Ok(site)
    }
}

#[cfg(test)]
mod tests {
    use crate::remote::RemoteSite;
    use crate::Config;
    use cludistream_gmm::{ChunkParams, Gaussian, GmmError};
    use cludistream_linalg::Vector;
    use cludistream_rng::StdRng;
    use cludistream_wire::ByteReader;

    fn config() -> Config {
        Config {
            dim: 2,
            k: 2,
            chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
            seed: 77,
            ..Default::default()
        }
    }

    /// A site mid-stream: two regimes seen, plus a partial chunk buffered.
    fn busy_site() -> RemoteSite {
        let mut site = RemoteSite::new(config()).unwrap();
        let chunk = site.chunk_size();
        let mut rng = StdRng::seed_from_u64(1);
        for (center, n) in [(0.0, 2 * chunk), (40.0, chunk), (40.0, chunk / 2)] {
            let g = Gaussian::spherical(Vector::from_slice(&[center, center]), 0.5).unwrap();
            for _ in 0..n {
                site.push(g.sample(&mut rng)).unwrap();
            }
        }
        site
    }

    #[test]
    fn roundtrip_preserves_all_state() {
        let original = busy_site();
        let snap = original.snapshot();
        let restored = RemoteSite::restore(config(), &mut snap.reader()).unwrap();
        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.chunk_index(), original.chunk_index());
        assert_eq!(restored.current_model(), original.current_model());
        assert_eq!(restored.models().len(), original.models().len());
        assert_eq!(restored.buffered_records().len(), original.buffered_records().len());
        assert_eq!(
            restored.events().entries_at(10),
            original.events().entries_at(10)
        );
        for (a, b) in restored.models().entries().iter().zip(original.models().entries()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.count, b.count);
            assert_eq!(a.avg_ll, b.avg_ll);
            assert_eq!(a.mixture.weights(), b.mixture.weights());
        }
    }

    #[test]
    fn restored_site_continues_identically() {
        let mut original = busy_site();
        let snap = original.snapshot();
        let mut restored = RemoteSite::restore(config(), &mut snap.reader()).unwrap();
        // Feed both the same continuation and compare behaviour.
        let g = Gaussian::spherical(Vector::from_slice(&[40.0, 40.0]), 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let continuation: Vec<Vector> =
            (0..2 * original.chunk_size()).map(|_| g.sample(&mut rng)).collect();
        let outcomes = |site: &mut RemoteSite| -> Vec<_> {
            continuation.iter().filter_map(|x| site.push(x.clone()).unwrap()).collect()
        };
        let (a, b) = (outcomes(&mut original), outcomes(&mut restored));
        assert_eq!(a, b, "divergent outcomes after restore");
        assert_eq!(original.stats(), restored.stats());
        assert_eq!(original.models().len(), restored.models().len());
    }

    /// A checkpoint taken mid-chunk, pinned byte for byte: how the site
    /// holds its chunk buffer is not part of the format.
    #[test]
    fn a_mid_chunk_checkpoint_keeps_its_bytes() {
        let site = busy_site();
        assert_eq!(site.buffered_records().len(), site.chunk_size() / 2);
        let pinned: &[u8] = include_bytes!("../../tests/fixtures/site_checkpoint.bin");
        assert_eq!(site.snapshot().as_slice(), pinned);
        let restored = RemoteSite::restore(config(), &mut ByteReader::new(pinned)).unwrap();
        assert_eq!(restored.snapshot().as_slice(), pinned);
    }

    /// A checkpoint holds fewer records than a chunk: the site processes a
    /// chunk the moment its last record arrives.
    #[test]
    fn a_checkpoint_buffering_a_whole_chunk_is_rejected() {
        let fresh = RemoteSite::new(config()).unwrap().snapshot();
        let (m, d) = (RemoteSite::new(config()).unwrap().chunk_size(), config().dim);
        for (records, restores) in [(m - 1, true), (m, false), (m + 1, false)] {
            let mut bytes = fresh.as_slice().to_vec();
            let at = bytes.len() - 4;
            bytes[at..].copy_from_slice(&(records as u32).to_le_bytes());
            bytes.extend((0..records * d).flat_map(|v| (v as f64).to_le_bytes()));
            let restored = RemoteSite::restore(config(), &mut ByteReader::new(&bytes));
            assert_eq!(restored.is_ok(), restores, "{records} records");
            if let Ok(site) = restored {
                assert_eq!(site.snapshot().as_slice(), &bytes[..]);
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let site = busy_site();
        let snap = site.snapshot();
        let mut other = config();
        other.dim = 3;
        assert!(matches!(
            RemoteSite::restore(other, &mut snap.reader()),
            Err(GmmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_snapshots_rejected() {
        let site = busy_site();
        let snap = site.snapshot();
        // Truncations at various depths.
        for cut in [0, 3, 9, 20, snap.len() / 2, snap.len() - 1] {
            let slice = snap.slice(..cut);
            assert!(RemoteSite::restore(config(), &mut slice.reader()).is_err(), "cut {cut} accepted");
        }
        // Bad magic.
        let mut corrupt = snap.clone();
        corrupt[0] ^= 0xFF;
        assert!(RemoteSite::restore(config(), &mut corrupt.reader()).is_err());
    }

    #[test]
    fn fresh_site_snapshot_roundtrips() {
        let site = RemoteSite::new(config()).unwrap();
        let snap = site.snapshot();
        let restored = RemoteSite::restore(config(), &mut snap.reader()).unwrap();
        assert_eq!(restored.models().len(), 0);
        assert_eq!(restored.current_model(), None);
        assert_eq!(restored.chunk_index(), 0);
    }
}
