//! The `fanin` workload: the benchmark plays a fleet. One thread does
//! exactly the root's per-frame work — `Frame::decode` →
//! `ReliableInbox::accept` → `Coordinator::apply` → ACK encode →
//! `SnapshotHandle::publish_from` — over pre-encoded frames, while a
//! second thread loads the handle and scores batches until the writer is
//! done.

use crate::inputs::{FaninInput, FrameKind};
use crate::sites::check_global;
use crate::timed::Repetition;
use crate::traced::Spans;
use cludistream::prelude::*;
use cludistream::{Frame, ReliableInbox};
use cludistream_gmm::CovarianceType;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// What one pass over the script produced.
pub struct Outcome {
    pub wall_s: f64,
    pub coordinator: Coordinator,
    pub handle: SnapshotHandle,
    pub decode_errors: u64,
    pub apply_errors: u64,
    pub released: u64,
    pub ack_bytes: u64,
    /// Microseconds of each `score_snapshot` call the reader made.
    pub score_us: Vec<f64>,
    pub scored_records: u64,
}

/// Plays the first `frames` frames of the script. With `spans`, every call
/// into a layer is recorded as a span under a per-frame root (traced runs
/// only).
pub fn run(
    input: &FaninInput,
    frames: usize,
    mut spans: Option<&mut Spans>,
) -> Result<Outcome, String> {
    let cov = CovarianceType::Full;
    let mut coordinator = Coordinator::new(CoordinatorConfig::default())
        .map_err(|e| format!("Coordinator::new failed: {e}"))?;
    let mut inboxes = vec![ReliableInbox::new(); input.site_count];
    let handle = SnapshotHandle::new();
    let done = AtomicBool::new(false);
    let (mut decode_errors, mut apply_errors, mut released, mut ack_bytes) = (0u64, 0u64, 0u64, 0u64);

    let started = Instant::now();
    let (wall_s, reader) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read(&handle, &done, &input.batches));
        for (i, bytes) in input.frames.iter().take(frames).enumerate() {
            let trace = ((input.sites[i] as u64) << 32) | i as u64;
            let root = spans.as_deref_mut().map(|s| s.open("bench.frame", None, trace));
            let t = Instant::now();
            let frame = Frame::decode(&mut bytes.reader());
            if let Some(s) = spans.as_deref_mut() {
                s.record("protocol.decode", root, trace, t);
            }
            let Ok(Frame::Data { seq, message, .. }) = frame else {
                decode_errors += 1;
                continue;
            };
            let site = message.site() as usize;
            let t = Instant::now();
            let ready = inboxes[site].accept(seq, message);
            if let Some(s) = spans.as_deref_mut() {
                s.record("protocol.inbox", root, trace, t);
            }
            for message in &ready {
                let t = Instant::now();
                if coordinator.apply(message).is_err() {
                    apply_errors += 1;
                }
                if let Some(s) = spans.as_deref_mut() {
                    s.record(apply_span_name(input.kinds[i]), root, trace, t);
                }
                released += 1;
            }
            let t = Instant::now();
            let ack = Frame::Ack { cumulative: inboxes[site].cumulative() }.encode(cov);
            ack_bytes += std::hint::black_box(&ack).len() as u64;
            if let Some(s) = spans.as_deref_mut() {
                s.record("protocol.ack", root, trace, t);
            }
            let t = Instant::now();
            // Empty before the first model arrives; never after.
            let _ = handle.publish_from(&coordinator);
            if let Some(s) = spans.as_deref_mut() {
                s.record("serving.publish", root, trace, t);
                s.close(root.expect("root opened with spans"));
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        (wall_s, reader.join())
    });
    let (score_us, scored_records) =
        reader.map_err(|_| "reader thread panicked".to_string())??;
    Ok(Outcome {
        wall_s,
        coordinator,
        handle,
        decode_errors,
        apply_errors,
        released,
        ack_bytes,
        score_us,
        scored_records,
    })
}

/// Span name of an `apply` by the kind of message applied, so that the
/// per-kind timings fall out of the trace.
pub fn apply_span_name(kind: FrameKind) -> &'static str {
    match kind {
        FrameKind::NewModel => "coordinator.apply.new_model",
        FrameKind::WeightUpdate => "coordinator.apply.weight_update",
        FrameKind::Delete => "coordinator.apply.delete",
    }
}

/// The reader: load, score one batch, repeat until the writer is done.
fn read(
    handle: &SnapshotHandle,
    done: &AtomicBool,
    batches: &[cludistream_gmm::Batch],
) -> Result<(Vec<f64>, u64), String> {
    let obs = Obs::noop();
    let mut score_us = Vec::new();
    let mut scored = 0u64;
    let mut next = 0;
    while !done.load(Ordering::SeqCst) {
        let Some(snapshot) = handle.load() else {
            std::thread::yield_now();
            continue;
        };
        let batch = &batches[next % batches.len()];
        next += 1;
        let started = Instant::now();
        let scores = score_snapshot(&snapshot, batch, 1, &obs)
            .map_err(|e| format!("score_snapshot failed: {e}"))?;
        score_us.push(started.elapsed().as_secs_f64() * 1e6);
        scored += scores.len() as u64;
    }
    Ok((score_us, scored))
}

pub fn repetition(input: &FaninInput, failures: &mut Vec<String>) -> Result<Repetition, String> {
    let outcome = run(input, input.frames.len(), None)?;
    check(input, &outcome, failures);
    let frames = input.frames.len() as u64;
    let frame_bytes: u64 = input.frames.iter().map(|f| f.len() as u64).sum();
    let state_bytes = outcome.coordinator.memory_bytes();
    Ok(Repetition {
        records_per_s: outcome.scored_records as f64 / outcome.wall_s,
        bytes_per_record: (frame_bytes + outcome.ack_bytes) as f64 / input.offered_records as f64,
        synopses_per_s: frames as f64 / outcome.wall_s,
        state_kb: state_bytes as f64 / 1024.0,
        ops: frames,
        failed: outcome.decode_errors + outcome.apply_errors + (frames - outcome.released),
        exact: vec![
            frame_bytes + outcome.ack_bytes,
            state_bytes as u64,
            outcome.coordinator.group_count() as u64,
            outcome.coordinator.component_count() as u64,
            outcome.handle.version(),
        ],
    })
}

/// Output checks of one pass: nothing failed, the global mixture is sound,
/// and the snapshot's group weights add up to the record mass the script
/// left alive — mass conservation seen from outside.
pub fn check(input: &FaninInput, outcome: &Outcome, failures: &mut Vec<String>) {
    let mut fail = |what: String| failures.push(format!("Fanin: {what}"));
    if outcome.decode_errors + outcome.apply_errors > 0 {
        fail(format!(
            "{} decode errors, {} apply errors",
            outcome.decode_errors, outcome.apply_errors
        ));
    }
    if outcome.released != input.frames.len() as u64 {
        fail(format!("{} of {} frames released", outcome.released, input.frames.len()));
    }
    if outcome.score_us.is_empty() {
        fail("the reader scored no batch".to_string());
    }
    let global = outcome.coordinator.global_mixture().ok();
    check_global(global.as_ref(), CoordinatorConfig::default().max_groups, &mut fail);
    match outcome.handle.load() {
        None => fail("no snapshot published".to_string()),
        Some(snapshot) => {
            let mass: f64 = snapshot.groups.iter().map(|g| g.weight).sum();
            let relative = (mass - input.expected_mass).abs() / input.expected_mass;
            // NaN fails too.
            if relative.is_nan() || relative > 1e-9 {
                fail(format!(
                    "snapshot mass {mass} differs from the script's {} (relative {relative:e})",
                    input.expected_mass
                ));
            }
            if snapshot.messages_applied != outcome.released {
                fail(format!(
                    "last snapshot is of message {}, {} were applied",
                    snapshot.messages_applied, outcome.released
                ));
            }
        }
    }
}
