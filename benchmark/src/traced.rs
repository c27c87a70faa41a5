//! The traced run: the same inputs replayed through a hand-assembled
//! pipeline of public calls, with a span recorded in memory around every
//! call into a layer. Spans are taken from outside — the program is not
//! instrumented — and written out as a Chrome trace-event file at the end.

use crate::fanin::apply_span_name;
use crate::inputs::{self, FrameKind, SiteInput, CHUNK, DIM};
use crate::json::Json;
use crate::sites::{self, Kind};
use cludistream::prelude::*;
use cludistream::{ChunkOutcome, Frame, Message, ReliableInbox, SiteEvent, SiteStats};
use cludistream_gmm::CovarianceType;
use cludistream_linalg::Vector;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept in the trace file; the rest are counted, not written.
const TRACE_FILE_SPANS: usize = 20_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// `site << 32 | chunk` (site workloads) or `site << 32 | frame`
    /// (`fanin`): every span of one chunk's or frame's journey shares it.
    pub trace: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`Spans::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, trace: u64) -> u32 {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, trace });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a span that began at `started` and ends now.
    pub fn record(&mut self, name: &'static str, parent: Option<u32>, trace: u64, started: Instant) {
        let end_ns = self.now_ns();
        let start_ns = started.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns, parent, trace });
    }

    /// Nanoseconds of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// Nanoseconds of every span whose name starts with `prefix`.
    pub fn durations_under(&self, prefix: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name.starts_with(prefix)).map(|s| s.ns() as f64).collect()
    }

    /// Per span name: how many, and their summed self time — each span's
    /// duration minus what its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.ns();
            }
        }
        let mut table: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let row = table.entry(span.name).or_insert((0, 0));
            row.0 += 1;
            row.1 += span.ns().saturating_sub(*children);
        }
        table
    }

    /// Self time per layer (the span name up to its first dot), seconds.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, (_, ns)) in self.self_times() {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_insert(0.0) += ns as f64 / 1e9;
        }
        layers
    }

    /// Writes the first [`TRACE_FILE_SPANS`] spans as Chrome trace events
    /// (`chrome://tracing`, Perfetto): one complete ("X") event per span,
    /// one track per site, times in microseconds.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let events: Vec<Json> = self
            .spans
            .iter()
            .take(TRACE_FILE_SPANS)
            .enumerate()
            .map(|(id, span)| {
                Json::obj([
                    ("name", Json::str(span.name)),
                    ("cat", Json::str(span.name.split('.').next().unwrap_or(span.name))),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(span.ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num((span.trace >> 32) as f64)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            ("parent", span.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                            ("trace", Json::Num(span.trace as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        let file = Json::obj([
            ("displayTimeUnit", Json::str("ns")),
            ("spans_recorded", Json::Num(self.spans.len() as f64)),
            ("spans_written", Json::Num(events.len() as f64)),
            ("traceEvents", Json::Arr(events)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, file.compact())
    }
}

/// What the replay of a site workload leaves behind.
pub struct Replay {
    pub spans: Spans,
    pub wall_s: f64,
    pub site_stats: Vec<SiteStats>,
    /// Per site: `(chunk index, model id)` of every chunk that created a
    /// model — the `(site, chunk) → model` map of `change_to_snapshot`.
    pub new_models: Vec<Vec<(usize, u64)>>,
    /// Records that went through buffer-only pushes.
    pub buffered_records: u64,
    pub frames: u64,
    pub frame_bytes: u64,
    pub decode_errors: u64,
    pub apply_errors: u64,
    pub coordinator: Coordinator,
    pub handle: SnapshotHandle,
    /// Site 0's current mixture at the end, for the isolated kernels.
    pub current_mixture: Option<Mixture>,
}

fn trace_id(site: usize, index: usize) -> u64 {
    ((site as u64) << 32) | index as u64
}

/// Replays `inputs` through `RemoteSite::push` → `drain_events` →
/// `Message::from_site_event` → `Frame::encode` → `Frame::decode` →
/// `ReliableInbox::accept` → `Coordinator::apply` →
/// `SnapshotHandle::publish_from`, sites taking turns chunk by chunk.
pub fn replay_sites(kind: Kind, inputs: &[SiteInput]) -> Result<Replay, String> {
    let cov = CovarianceType::Full;
    let base = sites::site_config();
    let mut remote: Vec<RemoteSite> = (0..inputs.len())
        .map(|i| {
            // The per-site seed offset `build_site_core` applies.
            let seed = base.seed.wrapping_add(i as u64 * 7919);
            RemoteSite::new(Config { seed, ..base.clone() }).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut streams: Vec<RecordStream> = inputs.iter().map(|input| inputs::stream(input, None)).collect();
    let mut coordinator =
        Coordinator::new(sites::coordinator_config(kind)).map_err(|e| e.to_string())?;
    let mut inboxes = vec![ReliableInbox::new(); inputs.len()];
    let mut next_seq = vec![0u64; inputs.len()];
    let handle = SnapshotHandle::new();
    let mut replay_spans = Spans::new();
    let spans = &mut replay_spans;
    let mut new_models = vec![Vec::new(); inputs.len()];
    let (mut buffered_records, mut frames, mut frame_bytes) = (0u64, 0u64, 0u64);
    let (mut decode_errors, mut apply_errors) = (0u64, 0u64);
    let mut live: Vec<usize> = (0..inputs.len()).collect();
    let mut chunk_index = vec![0usize; inputs.len()];

    let started = Instant::now();
    while !live.is_empty() {
        let mut exhausted = Vec::new();
        for &site in &live {
            let trace = trace_id(site, chunk_index[site]);
            let chunk_span = spans.open("bench.chunk", None, trace);
            let root = Some(chunk_span);
            let t = Instant::now();
            let mut records: Vec<Vector> = streams[site].by_ref().take(CHUNK).collect();
            spans.record("bench.stream", root, trace, t);
            if records.len() < CHUNK {
                exhausted.push(site);
            }
            let last = if records.len() == CHUNK { records.pop() } else { None };
            let t = Instant::now();
            buffered_records += records.len() as u64;
            for record in records {
                remote[site].push(record).map_err(|e| e.to_string())?;
            }
            spans.record("remote.buffer", root, trace, t);
            if let Some(last) = last {
                let t = Instant::now();
                let outcome = remote[site].push(last).map_err(|e| e.to_string())?;
                match outcome {
                    Some(ChunkOutcome::NewModel { model, .. }) => {
                        spans.record("remote.cluster", root, trace, t);
                        new_models[site].push((chunk_index[site], model.0));
                    }
                    Some(_) => spans.record("remote.test", root, trace, t),
                    None => return Err("a full chunk produced no outcome".to_string()),
                }
                chunk_index[site] += 1;
            }
            let t = Instant::now();
            let events: Vec<SiteEvent> = remote[site].drain_events();
            spans.record("remote.drain", root, trace, t);
            for event in events {
                let kind = match event {
                    SiteEvent::NewModel { .. } => FrameKind::NewModel,
                    SiteEvent::WeightUpdate { .. } => FrameKind::WeightUpdate,
                    SiteEvent::Retired { .. } => FrameKind::Delete,
                };
                let t = Instant::now();
                let message = Message::from_site_event(site as u32, event);
                let bytes = Frame::Data { seq: next_seq[site], message, ctx: None }.encode(cov);
                spans.record("protocol.encode", root, trace, t);
                next_seq[site] += 1;
                frames += 1;
                frame_bytes += bytes.len() as u64;
                let t = Instant::now();
                let frame = Frame::decode(&mut bytes.reader());
                spans.record("protocol.decode", root, trace, t);
                let Ok(Frame::Data { seq, message, .. }) = frame else {
                    decode_errors += 1;
                    continue;
                };
                let t = Instant::now();
                let ready = inboxes[site].accept(seq, message);
                spans.record("protocol.inbox", root, trace, t);
                for message in &ready {
                    let t = Instant::now();
                    if coordinator.apply(message).is_err() {
                        apply_errors += 1;
                    }
                    spans.record(apply_span_name(kind), root, trace, t);
                }
                let t = Instant::now();
                let ack = Frame::Ack { cumulative: inboxes[site].cumulative() }.encode(cov);
                frame_bytes += std::hint::black_box(&ack).len() as u64;
                spans.record("protocol.ack", root, trace, t);
                let t = Instant::now();
                let _ = handle.publish_from(&coordinator);
                spans.record("serving.publish", root, trace, t);
            }
            spans.close(chunk_span);
        }
        live.retain(|site| !exhausted.contains(site));
    }
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Replay {
        wall_s,
        site_stats: remote.iter().map(RemoteSite::stats).collect(),
        new_models,
        buffered_records,
        frames,
        frame_bytes,
        decode_errors,
        apply_errors,
        coordinator,
        handle,
        current_mixture: remote[0].current_mixture().cloned(),
        spans: replay_spans,
    })
}

/// Records of chunk `chunk` of a site's input, as the stream hands them
/// out (cycling the pool).
pub fn chunk_records(input: &SiteInput, chunk: usize) -> Vec<Vector> {
    let pool = input.rows.len() / DIM;
    (0..CHUNK)
        .map(|i| {
            let at = ((chunk * CHUNK + i) % pool) * DIM;
            Vector::from_slice(&input.rows[at..at + DIM])
        })
        .collect()
}
