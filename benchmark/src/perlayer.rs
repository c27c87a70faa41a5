//! The traced run of one workload: an untraced reference, the span-recording
//! replay, the isolated kernels, and the per-layer metrics assembled from
//! all three.

use crate::fanin;
use crate::inputs::{FaninInput, FrameKind, CHUNK, DIM};
use crate::layers::{self, Metrics};
use crate::sites::{self, Instruments, Kind};
use crate::stats;
use crate::timed::{self, Prepared, Workload};
use crate::traced::{self, Spans};
use cludistream::prelude::*;
use cludistream::Frame;
use cludistream_gmm::{CovarianceType, EmConfig};
use cludistream_linalg::Vector;
use std::time::Instant;

/// Samples `change_to_snapshot_ms_p90` wants beyond it.
const TAIL_SAMPLES: usize = 10;
/// Share of the untraced wall the replay's layer table may miss on
/// `steady` and `drift` before the run says so in a note. A note, not a
/// failed check: the two walls are timings of separate passes, and a burst
/// of another tenant's load during one of them (seen: the replay at 1.20 s
/// against an untraced 0.88 s) says nothing about the program's outputs.
const UNATTRIBUTED_LIMIT_PCT: f64 = 15.0;
/// Records of the E-step scaling probe.
const LARGE_FIT: usize = 16 * 1024;
/// How often the untraced reference and the replay are each run; the
/// fastest of each is kept, as a timed run keeps its best repetition.
const REPEATS: usize = 3;

pub struct Traced {
    pub metrics: Metrics,
    /// Seconds of self time per layer in the replay, and the untraced
    /// wall they are held against.
    pub layer_self_s: Vec<(&'static str, f64)>,
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    pub ops: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Remarks on the measurement itself; they do not fail the run.
    pub notes: Vec<String>,
    pub trace_file: std::path::PathBuf,
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Traced, String> {
    let prepared = timed::prepare(workload, seed)?;
    match &prepared {
        Prepared::Sites(prepared) => sites_run(prepared, seconds),
        Prepared::Fanin(input) => fanin_run(input),
    }
}

fn mean_us(ns: &[f64]) -> f64 {
    stats::mean(ns) / 1e3
}

/// The metrics every replay yields from its spans: `protocol.*`,
/// `coordinator.*` and `serving.publish*`.
fn span_metrics(spans: &Spans, wall_s: f64, coordinator: &Coordinator, out: &mut Metrics) {
    out.push(("protocol.decode_ns_per_frame", stats::mean(&spans.durations("protocol.decode"))));
    out.push(("protocol.inbox_ns_per_frame", stats::mean(&spans.durations("protocol.inbox"))));
    let applies = stats::sorted(&spans.durations_under("coordinator.apply"));
    out.push(("coordinator.apply_us_p50", stats::quantile(&applies, 0.5) / 1e3));
    out.push(("coordinator.apply_us_p99", stats::quantile(&applies, 0.99) / 1e3));
    let by_kind = |kind| spans.durations(fanin::apply_span_name(kind));
    let new_model = by_kind(FrameKind::NewModel);
    out.push(("coordinator.apply_us_new_model", mean_us(&new_model)));
    out.push(("coordinator.apply_us_weight_update", mean_us(&by_kind(FrameKind::WeightUpdate))));
    out.push(("coordinator.apply_us_delete", mean_us(&by_kind(FrameKind::Delete))));
    // Mean of the last tenth of NewModel applies over the first tenth:
    // about 1 when the cost of an insert is flat in the state's size.
    let tenth = new_model.len() / 10;
    let growth = if tenth == 0 {
        0.0
    } else {
        stats::mean(&new_model[new_model.len() - tenth..]) / stats::mean(&new_model[..tenth])
    };
    out.push(("coordinator.apply_growth", growth));
    out.push(("coordinator.busy_share", applies.iter().sum::<f64>() / 1e9 / wall_s));
    out.push(("coordinator.groups", coordinator.group_count() as f64));
    out.push(("coordinator.components", coordinator.component_count() as f64));
    let merges = coordinator.merge_log().len() as u64 + coordinator.merges_compacted();
    out.push(("coordinator.merges", merges as f64));
    out.push(("serving.publish_us_per_snapshot", mean_us(&spans.durations("serving.publish"))));
}

/// `driver.unattributed_pct` and `bench.trace_overhead_pct`; returns the
/// layer table they come from and the former. `same_path_wall_s` is the untraced wall of
/// the run the replay should cost the same as: the untraced run itself,
/// except on `drift_tcp`, where it is the recipe's simnet dry run — the
/// replay has no sockets to wait on.
fn budget(
    spans: &Spans,
    untraced_wall_s: f64,
    same_path_wall_s: f64,
    traced_wall_s: f64,
    out: &mut Metrics,
) -> (Vec<(&'static str, f64)>, f64) {
    let layers: Vec<(&'static str, f64)> = spans.layer_self_s().into_iter().collect();
    let attributed: f64 = layers.iter().map(|(_, s)| s).sum();
    let unattributed_pct = 100.0 * (untraced_wall_s - attributed) / untraced_wall_s;
    out.push(("driver.unattributed_pct", unattributed_pct));
    out.push(("bench.trace_overhead_pct", 100.0 * (traced_wall_s - same_path_wall_s) / same_path_wall_s));
    (layers, unattributed_pct)
}

fn sites_run(prepared: &sites::Prepared, seconds: f64) -> Result<Traced, String> {
    let started = Instant::now();
    let kind = prepared.kind;
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    let mut out: Metrics = Vec::new();
    let replay = fastest(REPEATS, || traced::replay_sites(kind, &prepared.inputs), |r| r.wall_s)?;

    // The recipe over simnet under a full observer, for `obs.*`; on
    // `drift_tcp` also under none, as the base of `obs.*`, of the replay's
    // overhead and of `runtime.vs_simnet_ratio`. Both run before
    // `drift_tcp` starts its threads.
    let simnet_kind = if kind == Kind::DriftTcp { Kind::Drift } else { kind };
    let simnet = |instruments: Instruments| {
        fastest(REPEATS, || sites::run(simnet_kind, &prepared.inputs, &instruments), |r| r.wall_s)
    };
    let observed = simnet(Instruments { obs: Some(layers::full_observer()), ..Instruments::default() })?;
    let simnet_noop = match kind {
        Kind::DriftTcp => Some(simnet(Instruments::default())?),
        Kind::Steady | Kind::Drift => None,
    };

    // Untraced reference(s). On `drift_tcp` the chunk-end marks, batch gaps
    // and the snapshot watcher are on — a clock read per chunk and per
    // batch, and one more thread beside the runtime's own — and the run
    // repeats until the p90 has its ten samples beyond it or the run's
    // length is up. The simnet workloads get no watcher: they run on one
    // thread, and the mere existence of a second one takes the allocator
    // off its single-threaded path, which cost `drift` a quarter of its
    // records/s when tried.
    let instruments = Instruments { marks: kind == Kind::DriftTcp, obs: None };
    let mut latencies_ms = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut references = Vec::new();
    loop {
        let outcome = sites::run(kind, &prepared.inputs, &instruments)?;
        sites::check(prepared, &outcome, &mut failures);
        for (site, models) in replay.new_models.iter().enumerate() {
            for &(chunk, model) in models {
                let handed = outcome.marks.get(site).and_then(|m| m.chunk_end_ns(chunk));
                let seen = outcome.first_seen_ns.get(&(site as u32, model));
                if let (Some(handed), Some(&seen)) = (handed, seen) {
                    latencies_ms.push(seen.saturating_sub(handed) as f64 / 1e6);
                }
            }
        }
        for marks in &outcome.marks {
            let gaps = marks.batch_gaps_ns.lock().expect("gap log poisoned");
            gaps_ms.extend(gaps.iter().map(|&ns| ns as f64 / 1e6));
        }
        references.push(outcome);
        let enough = if kind == Kind::DriftTcp {
            latencies_ms.len() >= 10 * TAIL_SAMPLES || started.elapsed().as_secs_f64() >= seconds
        } else {
            references.len() >= REPEATS
        };
        if enough {
            break;
        }
    }
    let reference = references
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one reference run");
    let untraced_wall_s = reference.wall_s;
    if replay.site_stats != reference.report.site_stats {
        failures.push(format!(
            "{kind:?}: the replay's SiteStats differ from the untraced run's: {:?} vs {:?}",
            replay.site_stats, reference.report.site_stats
        ));
    }
    if replay.decode_errors + replay.apply_errors > 0 {
        failures.push(format!(
            "{kind:?}: replay had {} decode and {} apply errors",
            replay.decode_errors, replay.apply_errors
        ));
    }

    // remote.*
    let spans = &replay.spans;
    let total = |f: fn(&cludistream::SiteStats) -> u64| -> f64 {
        replay.site_stats.iter().map(f).sum::<u64>() as f64
    };
    let buffer_ns: f64 = spans.durations("remote.buffer").iter().sum();
    out.push(("remote.buffer_ns_per_record", buffer_ns / replay.buffered_records.max(1) as f64));
    out.push(("remote.test_us_per_chunk", mean_us(&spans.durations("remote.test"))));
    out.push(("remote.cluster_ms_per_chunk", mean_us(&spans.durations("remote.cluster")) / 1e3));
    out.push(("remote.chunks", total(|s| s.chunks)));
    out.push(("remote.chunks_clustered", total(|s| s.clustered)));
    out.push(("remote.tests", total(|s| s.tests)));
    out.push(("remote.em_iterations", total(|s| s.em_iterations)));
    out.push(("remote.fit_ratio", total(|s| s.fit_current + s.switched) / total(|s| s.chunks).max(1.0)));

    // protocol.*, coordinator.*, serving.publish*
    out.push(("protocol.encode_ns_per_frame", stats::mean(&spans.durations("protocol.encode"))));
    out.push(("protocol.frames", replay.frames as f64));
    out.push(("protocol.bytes", replay.frame_bytes as f64));
    span_metrics(spans, replay.wall_s, &replay.coordinator, &mut out);
    out.push(("coordinator.apply_errors", replay.apply_errors as f64));
    out.push(("serving.snapshots", replay.handle.version() as f64));
    layers::serving(&replay.handle, &mut out)?;
    let snapshot = replay.handle.load().ok_or("the replay published no snapshot")?;
    layers::score_percentiles(&sites::score_final(&snapshot, &prepared.batches)?, &mut out);

    // The budget: replayed self times against the untraced wall.
    let base_wall_s = simnet_noop.as_ref().map_or(untraced_wall_s, |noop| noop.wall_s);
    let (layer_self_s, unattributed_pct) =
        budget(spans, untraced_wall_s, base_wall_s, replay.wall_s, &mut out);
    let stream_ns: f64 = spans.durations("bench.stream").iter().sum();
    out.push(("bench.gen_ns_per_record", stream_ns / total(|s| s.records).max(1.0)));
    if kind != Kind::DriftTcp && unattributed_pct.abs() > UNATTRIBUTED_LIMIT_PCT {
        notes.push(format!(
            "{kind:?}: the layer table misses the untraced wall by {unattributed_pct:.1} % \
             (limit {UNATTRIBUTED_LIMIT_PCT} %); read this run's layer shares with that in mind"
        ));
    }

    out.push(("obs.registry_overhead_pct", 100.0 * (observed.wall_s - base_wall_s) / base_wall_s));

    // runtime.* and change_to_snapshot_*
    if let Some(noop) = &simnet_noop {
        let cpu: f64 = references.iter().map(|r| r.cpu_s).sum();
        let wall: f64 = references.iter().map(|r| r.wall_s).sum();
        let delivery = &reference.report.delivery;
        out.push(("runtime.site_stall_ms_per_batch_p50", stats::median(&gaps_ms)));
        out.push(("runtime.cpu_share", cpu / wall));
        out.push(("runtime.vs_simnet_ratio", noop.records_per_s() / reference.records_per_s()));
        out.push(("runtime.sent_frames", delivery.sent_messages as f64));
        out.push(("runtime.ack_frames", delivery.ack_messages as f64));
        out.push(("runtime.retransmitted_frames", delivery.retransmitted_messages as f64));
        out.push(("runtime.duplicates_discarded", delivery.duplicates_discarded as f64));
    }
    if kind == Kind::DriftTcp {
        let expected: usize = replay.new_models.iter().map(Vec::len).sum::<usize>() * references.len();
        if latencies_ms.len() != expected {
            failures.push(format!(
                "{kind:?}: {} of {expected} new models were seen in a snapshot",
                latencies_ms.len()
            ));
        }
        let sorted = stats::sorted(&latencies_ms);
        out.push(("change_to_snapshot_ms_p50", stats::quantile(&sorted, 0.5)));
        out.push(("change_to_snapshot_ms_p90", stats::quantile(&sorted, 0.9)));
        out.push(("change_to_snapshot_samples", sorted.len() as f64));
    }

    // Isolated kernels, on the last chunk site 0 clustered, under the EM
    // configuration the site clustered it with.
    let &(chunk, _) = replay.new_models[0].last().ok_or("site 0 never clustered a chunk")?;
    let em_config = sites::site_config().em_config(chunk as u64);
    let records = traced::chunk_records(&prepared.inputs[0], chunk);
    let mixture = replay.current_mixture.clone().ok_or("site 0 has no current model")?;
    let large = first_records(&prepared.inputs[0].rows, LARGE_FIT);
    layers::kernels(&records, &em_config, &mixture, &prepared.batches[0], &large, &mut out)?;

    let offered: u64 = prepared.inputs.iter().map(|i| i.records).sum();
    let consumed: u64 = reference.records();
    Ok(Traced {
        metrics: out,
        layer_self_s,
        untraced_wall_s,
        traced_wall_s: replay.wall_s,
        ops: offered,
        failed: offered.saturating_sub(consumed),
        failures,
        notes,
        trace_file: write_trace(&replay.spans, kind.name())?,
    })
}

/// Runs `run` `times` times and keeps the result with the smallest
/// `wall_s`.
fn fastest<T>(
    times: usize,
    mut run: impl FnMut() -> Result<T, String>,
    wall_s: impl Fn(&T) -> f64,
) -> Result<T, String> {
    let mut best = run()?;
    for _ in 1..times {
        let next = run()?;
        if wall_s(&next) < wall_s(&best) {
            best = next;
        }
    }
    Ok(best)
}

fn write_trace(spans: &Spans, workload: &str) -> Result<std::path::PathBuf, String> {
    let path = std::path::PathBuf::from(format!("benchmark/out/trace_{workload}.json"));
    spans.write_chrome_trace(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// The first `n` records of a site's stream (cycling its pool).
fn first_records(rows: &[f64], n: usize) -> Vec<Vector> {
    rows.chunks_exact(DIM).cycle().take(n).map(Vector::from_slice).collect()
}

fn fanin_run(input: &FaninInput) -> Result<Traced, String> {
    let mut failures = Vec::new();
    let mut out: Metrics = Vec::new();
    let frames = input.frames.len();
    let reference = fastest(REPEATS, || fanin::run(input, frames, None), |r| r.wall_s)?;
    fanin::check(input, &reference, &mut failures);
    let (replay, spans) = fastest(
        REPEATS,
        || {
            let mut spans = Spans::new();
            fanin::run(input, frames, Some(&mut spans)).map(|outcome| (outcome, spans))
        },
        |(outcome, _)| outcome.wall_s,
    )?;
    fanin::check(input, &replay, &mut failures);

    // protocol.encode: the fleet's side of the wire, re-encoding a sample
    // of the script's own frames.
    let cov = CovarianceType::Full;
    let sample: Vec<Frame> = input
        .frames
        .iter()
        .take(256)
        .filter_map(|bytes| Frame::decode(&mut bytes.reader()).ok())
        .collect();
    let started = Instant::now();
    for frame in &sample {
        std::hint::black_box(frame.encode(cov));
    }
    let encode_ns = started.elapsed().as_nanos() as f64 / sample.len().max(1) as f64;
    out.push(("protocol.encode_ns_per_frame", encode_ns));
    out.push(("protocol.frames", frames as f64));
    let frame_bytes: u64 = input.frames.iter().map(|f| f.len() as u64).sum();
    out.push(("protocol.bytes", (frame_bytes + replay.ack_bytes) as f64));
    span_metrics(&spans, replay.wall_s, &replay.coordinator, &mut out);
    out.push(("coordinator.apply_errors", replay.apply_errors as f64));
    out.push(("serving.snapshots", replay.handle.version() as f64));
    layers::serving(&replay.handle, &mut out)?;
    // The reader's own times, under concurrent publishing.
    layers::score_percentiles(&reference.score_us, &mut out);
    let (layer_self_s, _) =
        budget(&spans, reference.wall_s, reference.wall_s, replay.wall_s, &mut out);
    layers::aggregator(input, &mut out)?;

    // Isolated kernels on the fleet's own data: a chunk of reader records,
    // a model the root holds.
    let snapshot = replay.handle.load().ok_or("fanin published no snapshot")?;
    let records: Vec<Vector> = batch_records(&input.batches[0], CHUNK);
    let large: Vec<Vector> =
        input.batches.iter().flat_map(|b| batch_records(b, b.len())).take(LARGE_FIT).collect();
    let em_config = EmConfig { k: crate::inputs::K, ..EmConfig::default() };
    layers::kernels(&records, &em_config, &snapshot.mixture, &input.batches[0], &large, &mut out)?;

    let failed = reference.decode_errors + reference.apply_errors + (frames as u64 - reference.released);
    Ok(Traced {
        metrics: out,
        layer_self_s,
        untraced_wall_s: reference.wall_s,
        traced_wall_s: replay.wall_s,
        ops: frames as u64,
        failed,
        failures,
        notes: Vec::new(),
        trace_file: write_trace(&spans, "fanin")?,
    })
}

fn batch_records(batch: &Batch, n: usize) -> Vec<Vector> {
    (0..n.min(batch.len())).map(|i| Vector::from_slice(batch.row(i))).collect()
}
