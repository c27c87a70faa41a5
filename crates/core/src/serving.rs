//! Read-side serving layer: immutable, versioned coordinator model
//! snapshots behind an Arc-swap handle, plus their wire encoding.
//!
//! The coordinator's global mixture answers "which cluster is this
//! record in?", but its state mutates on every applied synopsis. The
//! serving layer decouples readers from that write path: after applying
//! messages the coordinator *publishes* a [`ModelSnapshot`] — the global
//! mixture, the group map and round metadata frozen into one immutable
//! value — into a [`SnapshotHandle`]. Readers clone the current `Arc`
//! out of the handle (one short pointer-sized critical section) and then
//! score entirely lock-free on their private reference while the writer
//! keeps swapping newer versions in; old snapshots are freed when the
//! last reader drops them. Versions are assigned by the handle and
//! strictly increase, so a reader can tell stale results from fresh ones
//! and torn states are impossible by construction.
//!
//! # Wire encoding
//!
//! [`ModelSnapshot::encode`] is the serving wire format *and* the
//! coordinator's checkpoint format (the socket runtime answers
//! `SnapshotRequest` control frames with it, and
//! [`crate::runtime::CoordinatorRun`] resyncs from it). Layout, all
//! integers little-endian:
//!
//! ```text
//! u32 magic    0x434C_4D53 ("CLMS")
//! u16 format   SNAPSHOT_FORMAT_VERSION (currently 1)
//! u64 snapshot version
//! u64 messages_applied
//! mixture synopsis        (cludistream_gmm::codec, covariance tag inside)
//! u32 group count
//! per group:
//!   u64 group id
//!   f64 record weight
//!   u32 member count
//!   per member: u32 site, u64 model id, u32 component index
//! ```
//!
//! Group order matches mixture component order: group `g` is summarized
//! by mixture component `g`.
//!
//! In memory a group's members are shared chunks ([`SnapshotMembers`]);
//! the layout above writes them one after another, as it always has, so
//! the chunk boundaries never reach the wire.

use crate::coordinator::Coordinator;
use crate::error::CludiError;
use crate::remote::ModelId;
use cludistream_gmm::{codec, CovarianceType, Mixture};
use cludistream_wire::{ByteBuf, ByteReader, Malformed};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic prefix of an encoded snapshot: "CLMS" (CLudistream Model
/// Snapshot).
const MAGIC: u32 = 0x434C_4D53;

/// Version of the snapshot wire layout (bump on incompatible change).
pub(crate) const SNAPSHOT_FORMAT_VERSION: u16 = 1;

/// Encoded size of one member: `u32 site, u64 model, u32 component`.
const MEMBER_BYTES: usize = 16;

/// One member component of a snapshot group: which site model component
/// contributed to it (the lineage the coordinator's hierarchy tracks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMember {
    /// Originating site.
    pub site: u32,
    /// Site-local model id.
    pub model: ModelId,
    /// Component index within that model's mixture.
    pub component: u32,
}

/// Members per sealed chunk of a [`SnapshotMembers`].
const CHUNK: usize = 64;

/// A run of a lineage's members, tagged with the sequence number (in the
/// group's join order) of its first member. It holds every member of the
/// group numbered from `first` up to the next chunk's `first`.
#[derive(Debug, Clone, Default)]
struct Chunk {
    first: u64,
    members: Arc<[SnapshotMember]>,
}

/// A group's lineage: its member components in join order, as immutable
/// chunks shared by reference count.
///
/// The members sit in a list of sealed chunks of at most 64 members and
/// a tail of fewer. The coordinator builds a group's lineage at most once
/// per membership change, from the one it built last: a join copies only
/// the tail, a removal only the chunk it took a member from, and every
/// other chunk — and the list, when no chunk was sealed or rebuilt — is
/// shared with the snapshots before. Equality compares the members, never
/// the allocation; [`SnapshotMembers::ptr_eq`] tells the two apart.
#[derive(Clone, Default)]
pub struct SnapshotMembers {
    sealed: Arc<[Chunk]>,
    tail: Chunk,
    len: usize,
    /// The sequence number past the last member covered.
    end: u64,
}

impl SnapshotMembers {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members, in join order.
    pub fn iter(&self) -> MemberIter<'_> {
        MemberIter {
            chunks: self.sealed.iter(),
            tail: &self.tail.members,
            members: [].iter(),
        }
    }

    /// True when both share all their storage: one is a clone of the
    /// other, or was built from it with nothing to change.
    pub fn ptr_eq(&self, other: &SnapshotMembers) -> bool {
        Arc::ptr_eq(&self.sealed, &other.sealed)
            && Arc::ptr_eq(&self.tail.members, &other.tail.members)
    }

    /// Chunks holding at least one member.
    pub(crate) fn chunk_count(&self) -> usize {
        self.sealed.len() + usize::from(!self.tail.members.is_empty())
    }

    /// The most chunks a lineage of `len` members is left with: past it,
    /// a build re-chunks from the member walk.
    pub(crate) fn max_chunks(len: usize) -> usize {
        2 * len / CHUNK + 1
    }

    /// Cuts `(sequence number, member)` pairs, in join order and all below
    /// `end`, into fresh chunks.
    fn chunked(members: impl Iterator<Item = (u64, SnapshotMember)>, end: u64) -> Self {
        let mut chunker = Chunker::default();
        members.for_each(|(seq, m)| chunker.push(seq, m));
        chunker.finish(end)
    }

    fn assemble(sealed: Arc<[Chunk]>, tail: Chunk, end: u64) -> Self {
        let len = sealed.iter().map(|c| c.members.len()).sum::<usize>() + tail.members.len();
        SnapshotMembers { sealed, tail, len, end }
    }

    /// The lineage of a group whose members are `members`, keyed by
    /// sequence number, all below `end`. Built from `previous`, the lineage
    /// built last, when there is one, with `removed` naming the sequence
    /// numbers removed since. Every chunk no removal touched is shared; a
    /// chunk that lost a member is rebuilt from the members in its range;
    /// the members that joined since are read and cut into chunks behind a
    /// copy of the old tail, which is shared as it is when nothing touched
    /// it and nothing joined. Only when the chunks then outnumber
    /// [`Self::max_chunks`] is the whole member walk re-chunked.
    pub(crate) fn rebuild<M>(
        previous: Option<&SnapshotMembers>,
        removed: &[u64],
        members: &BTreeMap<u64, M>,
        end: u64,
        entry: impl Fn(&M) -> SnapshotMember,
    ) -> Self {
        let entry = &entry;
        let walk = move |from: u64, to: u64| {
            members.range(from..to).map(move |(&seq, m)| (seq, entry(m)))
        };
        let Some(previous) = previous else { return Self::chunked(walk(0, end), end) };
        // The chunks that lost a member, by index; `tail_at` is the old tail.
        let tail_at = previous.sealed.len();
        let mut touched: Vec<usize> = removed
            .iter()
            .filter(|&&seq| seq < previous.end)
            .map(|&seq| {
                if seq >= previous.tail.first {
                    tail_at
                } else {
                    previous.sealed.partition_point(|c| c.first <= seq).saturating_sub(1)
                }
            })
            .collect();
        touched.sort_unstable();
        touched.dedup();

        // The tail and the members that joined behind it.
        let mut chunker = Chunker::default();
        let tail = if touched.last() == Some(&tail_at) {
            walk(previous.tail.first, end).for_each(|(seq, m)| chunker.push(seq, m));
            chunker.tail(end)
        } else if members.range(previous.end..end).next().is_some() {
            chunker.resume(&previous.tail);
            walk(previous.end, end).for_each(|(seq, m)| chunker.push(seq, m));
            chunker.tail(end)
        } else {
            previous.tail.clone()
        };
        // The sealed chunks: the old ones, rebuilt where they lost a member,
        // then the ones sealed behind them.
        let sealed = if touched.first().is_some_and(|&i| i < tail_at) {
            let mut sealed = Vec::with_capacity(tail_at + chunker.sealed.len());
            for (i, chunk) in previous.sealed.iter().enumerate() {
                if touched.binary_search(&i).is_err() {
                    sealed.push(chunk.clone());
                    continue;
                }
                let to = previous.sealed.get(i + 1).map_or(previous.tail.first, |c| c.first);
                let mut rest = walk(chunk.first, to).peekable();
                if let Some(&(first, _)) = rest.peek() {
                    sealed.push(Chunk { first, members: rest.map(|(_, m)| m).collect() });
                }
            }
            sealed.extend(chunker.sealed);
            sealed.into()
        } else if chunker.sealed.is_empty() {
            Arc::clone(&previous.sealed)
        } else {
            previous.sealed.iter().cloned().chain(chunker.sealed).collect()
        };
        let built = Self::assemble(sealed, tail, end);
        if built.chunk_count() > Self::max_chunks(built.len) {
            return Self::chunked(walk(0, end), end);
        }
        built
    }
}

/// Cuts members, in join order, into sealed chunks of [`CHUNK`] and an
/// open remainder.
#[derive(Default)]
struct Chunker {
    sealed: Vec<Chunk>,
    open: Vec<SnapshotMember>,
    first: u64,
}

impl Chunker {
    fn push(&mut self, seq: u64, member: SnapshotMember) {
        if self.open.is_empty() {
            self.first = seq;
            self.open.reserve_exact(CHUNK);
        }
        self.open.push(member);
        if self.open.len() == CHUNK {
            self.sealed.push(Chunk { first: self.first, members: self.open.as_slice().into() });
            self.open.clear();
        }
    }

    /// Opens with the members of an old tail (fewer than [`CHUNK`]).
    fn resume(&mut self, tail: &Chunk) {
        self.first = tail.first;
        self.open.reserve_exact(CHUNK);
        self.open.extend_from_slice(&tail.members);
    }

    /// The open remainder as a tail; an empty one starts at `end`.
    fn tail(&self, end: u64) -> Chunk {
        let first = if self.open.is_empty() { end } else { self.first };
        Chunk { first, members: self.open.as_slice().into() }
    }

    /// The lineage of the members pushed, all below `end`.
    fn finish(self, end: u64) -> SnapshotMembers {
        let tail = self.tail(end);
        SnapshotMembers::assemble(self.sealed.into(), tail, end)
    }
}

/// The members of a [`SnapshotMembers`], in join order.
#[derive(Debug, Clone)]
pub struct MemberIter<'a> {
    chunks: std::slice::Iter<'a, Chunk>,
    tail: &'a [SnapshotMember],
    members: std::slice::Iter<'a, SnapshotMember>,
}

impl<'a> Iterator for MemberIter<'a> {
    type Item = &'a SnapshotMember;

    fn next(&mut self) -> Option<&'a SnapshotMember> {
        loop {
            if let Some(m) = self.members.next() {
                return Some(m);
            }
            self.members = match self.chunks.next() {
                Some(chunk) => chunk.members.iter(),
                None if !self.tail.is_empty() => std::mem::take(&mut self.tail).iter(),
                None => return None,
            };
        }
    }
}

impl<'a> IntoIterator for &'a SnapshotMembers {
    type Item = &'a SnapshotMember;
    type IntoIter = MemberIter<'a>;

    fn into_iter(self) -> MemberIter<'a> {
        self.iter()
    }
}

impl PartialEq for SnapshotMembers {
    fn eq(&self, other: &SnapshotMembers) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl From<Vec<SnapshotMember>> for SnapshotMembers {
    fn from(members: Vec<SnapshotMember>) -> Self {
        let end = members.len() as u64;
        SnapshotMembers::chunked((0..).zip(members), end)
    }
}

impl std::fmt::Debug for SnapshotMembers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Metadata for one coordinator group, frozen at publish time. Group `g`
/// corresponds to component `g` of [`ModelSnapshot::mixture`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotGroup {
    /// Stable group id from the coordinator hierarchy.
    pub id: u64,
    /// Record mass attributed to the group.
    pub weight: f64,
    /// Site components merged into this group, in join order.
    pub members: SnapshotMembers,
}

/// An immutable, versioned copy of the coordinator's global model: the
/// mixture (one component per group), the group map, and round metadata.
/// Published behind a [`SnapshotHandle`]; scored with
/// [`cludistream_gmm::score`].
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// Publish sequence number, strictly increasing per handle (assigned
    /// by [`SnapshotHandle::publish`]; 0 for unpublished captures).
    pub version: u64,
    /// Coordinator messages applied when the snapshot was taken.
    pub messages_applied: u64,
    /// Covariance representation used on the wire.
    pub covariance: CovarianceType,
    /// The global mixture: one component per group, refined
    /// representative when available, weighted by group record mass.
    pub mixture: Mixture,
    /// Per-group metadata, in mixture component order.
    pub groups: Vec<SnapshotGroup>,
}

impl ModelSnapshot {
    /// Freezes the coordinator's current global model into a snapshot
    /// (version 0 — [`SnapshotHandle::publish`] assigns the real one).
    /// Errors when the coordinator has no groups yet.
    ///
    /// Each group's members are its shared lineage: built here only for a
    /// group whose membership changed since the last capture, shared with
    /// the previous snapshot otherwise.
    pub fn capture(coordinator: &Coordinator) -> Result<ModelSnapshot, CludiError> {
        let mixture = coordinator.global_mixture()?;
        let groups = coordinator
            .groups()
            .iter()
            .map(|g| SnapshotGroup { id: g.id, weight: g.weight(), members: g.lineage().clone() })
            .collect();
        Ok(ModelSnapshot {
            version: 0,
            messages_applied: coordinator.messages_applied(),
            covariance: coordinator.covariance(),
            mixture,
            groups,
        })
    }

    /// Encodes the snapshot into the wire/checkpoint layout documented in
    /// the module docs.
    pub fn encode(&self) -> ByteBuf {
        let mut buf = ByteBuf::new();
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(SNAPSHOT_FORMAT_VERSION);
        buf.put_u64_le(self.version);
        buf.put_u64_le(self.messages_applied);
        let mix = codec::encode_mixture(&self.mixture, self.covariance);
        buf.extend_from_slice(mix.as_slice());
        buf.put_u32_le(self.groups.len() as u32);
        for g in &self.groups {
            buf.put_u64_le(g.id);
            buf.put_f64_le(g.weight);
            buf.put_u32_le(g.members.len() as u32);
            for m in &g.members {
                buf.put_u32_le(m.site);
                buf.put_u64_le(m.model.0);
                buf.put_u32_le(m.component);
            }
        }
        buf
    }

    /// Decodes a snapshot produced by [`ModelSnapshot::encode`],
    /// validating the magic, format version, and every length.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<ModelSnapshot, CludiError> {
        ModelSnapshot::read(r).map_err(|e| e.named(CludiError::Decode("truncated model snapshot")))
    }

    fn read(r: &mut ByteReader<'_>) -> Result<ModelSnapshot, Malformed<CludiError>> {
        if r.get_u32_le()? != MAGIC {
            return Err(CludiError::Decode("bad snapshot magic").into());
        }
        if r.get_u16_le()? != SNAPSHOT_FORMAT_VERSION {
            return Err(CludiError::Decode("unsupported snapshot format version").into());
        }
        let version = r.get_u64_le()?;
        let messages_applied = r.get_u64_le()?;
        // The mixture codec carries its own covariance tag (and rejects any
        // other); peek it so the decoded snapshot preserves the wire
        // representation.
        let covariance =
            if r.peek_u8() == Some(1) { CovarianceType::Diagonal } else { CovarianceType::Full };
        let mixture = codec::decode_mixture(r)?;
        let group_count = r.get_u32_le()? as usize;
        if group_count != mixture.k() {
            return Err(CludiError::Decode("snapshot group count disagrees with mixture").into());
        }
        let mut groups = Vec::with_capacity(group_count);
        for _ in 0..group_count {
            let id = r.get_u64_le()?;
            let weight = r.get_f64_le()?;
            if !weight.is_finite() || weight < 0.0 {
                return Err(CludiError::Decode("invalid snapshot group weight").into());
            }
            let member_count = r.get_u32_le()?;
            r.need_items(member_count as usize, MEMBER_BYTES)?;
            let mut chunker = Chunker::default();
            for seq in 0..u64::from(member_count) {
                let member = SnapshotMember {
                    site: r.get_u32_le()?,
                    model: ModelId(r.get_u64_le()?),
                    component: r.get_u32_le()?,
                };
                chunker.push(seq, member);
            }
            groups.push(SnapshotGroup { id, weight, members: chunker.finish(member_count.into()) });
        }
        Ok(ModelSnapshot { version, messages_applied, covariance, mixture, groups })
    }
}

/// The Arc-swap publication point between the coordinator (single
/// writer) and any number of reader threads.
///
/// [`SnapshotHandle::load`] clones the current `Arc` under a mutex held
/// only for the pointer clone; everything a reader does afterwards —
/// scoring, walking the group map — runs on its own immutable reference
/// with no lock and no contention with the writer. Publishing swaps the
/// `Arc` and assigns the next version atomically under the same mutex,
/// so observed versions are strictly monotonic and a snapshot is always
/// seen whole or not at all. The snapshot a publish replaces is released
/// after the mutex, so a reader never waits on the writer's frees.
pub struct SnapshotHandle {
    slot: Mutex<Option<Arc<ModelSnapshot>>>,
    version: AtomicU64,
}

impl SnapshotHandle {
    /// An empty handle: no snapshot published yet.
    pub fn new() -> SnapshotHandle {
        SnapshotHandle { slot: Mutex::new(None), version: AtomicU64::new(0) }
    }

    /// Publishes a snapshot, assigning it the next version. Returns the
    /// version it was published as. The replaced snapshot is dropped after
    /// the lock is released: when no reader holds it, freeing it (and any
    /// member list no later snapshot shares) is the writer's cost alone.
    pub fn publish(&self, mut snapshot: ModelSnapshot) -> u64 {
        let mut slot = match self.slot.lock() {
            Ok(guard) => guard,
            // A reader cannot poison this mutex (it only clones the Arc);
            // recover rather than propagate.
            Err(poisoned) => poisoned.into_inner(),
        };
        let version = self.version.load(Ordering::Relaxed) + 1;
        snapshot.version = version;
        let replaced = slot.replace(Arc::new(snapshot));
        self.version.store(version, Ordering::Release);
        drop(slot);
        drop(replaced);
        version
    }

    /// Captures the coordinator's current model and publishes it. Errors
    /// (without publishing) when the coordinator has no groups yet.
    pub fn publish_from(&self, coordinator: &Coordinator) -> Result<u64, CludiError> {
        Ok(self.publish(ModelSnapshot::capture(coordinator)?))
    }

    /// The latest published snapshot, or `None` before the first publish.
    /// The returned `Arc` stays valid (and immutable) for as long as the
    /// caller holds it, regardless of later publishes.
    pub fn load(&self) -> Option<Arc<ModelSnapshot>> {
        match self.slot.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Version of the latest published snapshot (0 before the first
    /// publish).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

impl Default for SnapshotHandle {
    fn default() -> Self {
        SnapshotHandle::new()
    }
}

impl std::fmt::Debug for SnapshotHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotHandle").field("version", &self.version()).finish()
    }
}

/// Scores a batch against a snapshot's mixture, recording the wall-clock
/// latency of the score path as a `serve.score_us` observation and the
/// records scored as the `serve.scored_records` counter.
///
/// This is [`cludistream_gmm::score`] plus the quality plane's
/// instrumentation: call [`cludistream_obs::Registry::track_quantiles`]
/// with `SERVE_SCORE_US` on the registry behind `obs` to get p50/p99
/// latency quantiles out of the recorded observations. The batch is
/// scored on the calling thread; `threads` is accepted and ignored, like
/// [`cludistream_gmm::score`]'s, and goes with it.
pub fn score_snapshot(
    snapshot: &ModelSnapshot,
    batch: &cludistream_gmm::Batch,
    threads: usize,
    obs: &cludistream_obs::Obs,
) -> Result<cludistream_gmm::Scores, cludistream_gmm::GmmError> {
    use cludistream_obs::{catalogue, Recorder};
    let start = std::time::Instant::now();
    let scores = cludistream_gmm::score(&snapshot.mixture, batch, threads)?;
    obs.observe(catalogue::SERVE_SCORE_US, start.elapsed().as_micros() as u64);
    obs.counter(catalogue::SERVE_SCORED_RECORDS, batch.len() as u64);
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::CoordinatorConfig;
    use crate::protocol::Message;
    use cludistream_gmm::Gaussian;
    use cludistream_linalg::Vector;

    fn seeded_coordinator() -> Coordinator {
        let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        for site in 0..3u32 {
            let mixture = Mixture::uniform(vec![
                Gaussian::spherical(Vector::from_slice(&[0.0, 0.0]), 1.0).unwrap(),
                Gaussian::spherical(Vector::from_slice(&[20.0, 5.0]), 1.5).unwrap(),
            ])
            .unwrap();
            c.apply(&Message::NewModel {
                site,
                model: ModelId(0),
                count: 1000 + site as u64,
                avg_ll: -2.0,
                mixture,
            })
            .unwrap();
        }
        c
    }

    #[test]
    fn capture_freezes_the_global_model() {
        let c = seeded_coordinator();
        let snap = ModelSnapshot::capture(&c).unwrap();
        assert_eq!(snap.version, 0);
        assert_eq!(snap.messages_applied, 3);
        assert_eq!(snap.mixture.k(), c.group_count());
        assert_eq!(snap.groups.len(), c.group_count());
        let members: usize = snap.groups.iter().map(|g| g.members.len()).sum();
        assert_eq!(members, c.component_count());
        let total: f64 = snap.groups.iter().map(|g| g.weight).sum();
        assert!((total - c.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn capture_of_empty_coordinator_errors() {
        let c = Coordinator::new(CoordinatorConfig::default()).unwrap();
        assert!(ModelSnapshot::capture(&c).is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = seeded_coordinator();
        let handle = SnapshotHandle::new();
        handle.publish_from(&c).unwrap();
        let snap = handle.load().unwrap();
        let bytes = snap.encode();
        let back = ModelSnapshot::decode(&mut bytes.reader()).unwrap();
        assert_eq!(back.version, snap.version);
        assert_eq!(back.messages_applied, snap.messages_applied);
        assert_eq!(back.covariance, snap.covariance);
        assert_eq!(back.groups, snap.groups);
        assert_eq!(back.mixture.k(), snap.mixture.k());
        for i in 0..back.mixture.k() {
            assert_eq!(
                back.mixture.weights()[i].to_bits(),
                snap.mixture.weights()[i].to_bits()
            );
            assert_eq!(
                back.mixture.components()[i].mean().as_slice(),
                snap.mixture.components()[i].mean().as_slice()
            );
        }
    }

    #[test]
    fn truncations_and_corruptions_rejected() {
        let c = seeded_coordinator();
        let snap = ModelSnapshot::capture(&c).unwrap();
        let bytes = snap.encode();
        for cut in [0usize, 4, 21, 30, bytes.len() - 1] {
            let slice = bytes.slice(..cut);
            assert!(ModelSnapshot::decode(&mut slice.reader()).is_err(), "cut {cut}");
        }
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            ModelSnapshot::decode(&mut bad.reader()),
            Err(CludiError::Decode("bad snapshot magic"))
        ));
        // Bad format version.
        let mut bad = bytes.clone();
        bad[4] = 0xEE;
        assert!(matches!(
            ModelSnapshot::decode(&mut bad.reader()),
            Err(CludiError::Decode("unsupported snapshot format version"))
        ));
    }

    #[test]
    fn an_inflated_member_count_is_refused() {
        let c = seeded_coordinator();
        let snap = ModelSnapshot::capture(&c).unwrap();
        let bytes = snap.encode();
        // Header, mixture, group count, then the first group's id and
        // weight: its member count follows.
        let mixture = codec::encode_mixture(&snap.mixture, snap.covariance);
        let at = 22 + mixture.len() + 4 + 16;
        let count = |b: &ByteBuf| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
        assert_eq!(count(&bytes) as usize, snap.groups[0].members.len());
        // 2^28 members are 2^32 bytes: past the end of the input on a
        // 64-bit host, past `usize` on a 32-bit one.
        for inflated in [u32::MAX, u32::MAX / 16 + 1] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&inflated.to_le_bytes());
            assert!(
                matches!(ModelSnapshot::decode(&mut bad.reader()), Err(CludiError::Decode(_))),
                "member count {inflated}"
            );
        }
    }

    #[test]
    fn score_snapshot_records_latency_and_volume() {
        use cludistream_gmm::Batch;
        use cludistream_obs::{Obs, Registry};
        use std::sync::Arc;

        let c = seeded_coordinator();
        let snap = ModelSnapshot::capture(&c).unwrap();
        let registry = Arc::new(Registry::new());
        registry.track_quantiles(cludistream_obs::catalogue::SERVE_SCORE_US);
        let obs = Obs::from_registry(Arc::clone(&registry));
        let batch = Batch::from_records(&[
            Vector::from_slice(&[0.1, -0.2]),
            Vector::from_slice(&[19.5, 5.2]),
        ]);
        let scores = score_snapshot(&snap, &batch, 0, &obs).unwrap();
        assert_eq!(scores.len(), 2);
        assert_eq!(registry.counter_value("serve.scored_records"), 2);
        // One observation recorded; any quantile of it is that value.
        assert!(registry.exact_quantile("serve.score_us", 0.5).is_some());
    }

    #[test]
    fn publish_assigns_monotonic_versions() {
        let c = seeded_coordinator();
        let handle = SnapshotHandle::new();
        assert!(handle.load().is_none());
        assert_eq!(handle.version(), 0);
        let v1 = handle.publish_from(&c).unwrap();
        let v2 = handle.publish_from(&c).unwrap();
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(handle.version(), 2);
        assert_eq!(handle.load().unwrap().version, 2);
    }

    #[test]
    fn old_snapshot_survives_later_publishes() {
        let c = seeded_coordinator();
        let handle = SnapshotHandle::new();
        handle.publish_from(&c).unwrap();
        let old = handle.load().unwrap();
        handle.publish_from(&c).unwrap();
        // The reader's Arc still points at version 1, fully intact.
        assert_eq!(old.version, 1);
        assert_eq!(old.mixture.k(), c.group_count());
        assert_eq!(handle.load().unwrap().version, 2);
    }

    #[test]
    fn publish_from_empty_coordinator_leaves_handle_unchanged() {
        let empty = Coordinator::new(CoordinatorConfig::default()).unwrap();
        let handle = SnapshotHandle::new();
        assert!(handle.publish_from(&empty).is_err());
        assert!(handle.load().is_none());
        assert_eq!(handle.version(), 0);
    }
}
