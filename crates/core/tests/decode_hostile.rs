//! Every decoder that reads bytes a peer sent — or a checkpoint read back
//! from disk — against hostile mutations of a valid encoding: `Message`,
//! `Frame` (bare, data, traced, ack), every `Control` variant,
//! `ModelSnapshot`, `TelemetryDelta`, a `ReliableSender` queue, and landmark
//! and sliding site checkpoints.
//!
//! - Truncation at every offset is an `Err`.
//! - Every 4- and 8-byte window overwritten with `0xFF` (a `u32::MAX` or
//!   `u64::MAX` count or length) never panics, and the largest single
//!   allocation the decode asks for stays within `16 × input + 4 KiB`.
//! - Random bit flips never panic (`rng::check` prints the failing seed;
//!   `CLUDI_PROP_SEED` replays it).
//! - For every ordered pair of the wire encodings (`Message`, each `Frame`
//!   kind, each `Control` variant, `ModelSnapshot`), one's tag byte on the
//!   other's body, and a prefix of one joined to a suffix of the other at
//!   every cut, decode to `Ok` or `Err` under the same allocation bound.
//!
//! Two checkpoint cases pin holes that were open: a lying model, event or
//! record count made `RemoteSite::restore` reserve capacity for it before
//! reading an entry (an allocator abort), and a sliding window's ledger
//! counts were multiplied unchecked (an overflow panic). The same shim also
//! pins how many allocations decoding a synopsis frame makes, so checked
//! reads never turn an exact-size `collect` into a regrowing one.
//!
//! The allocator shim (as in `crates/gmm/tests/codec_hostile.rs`) is why
//! this is an integration test: it owns the process-wide
//! `#[global_allocator]`.

use cludistream::runtime::{Control, HealthAlert, RejectCode, PROTOCOL_VERSION};
use cludistream::{
    Config, Coordinator, CoordinatorConfig, Frame, Message, ModelId, ModelSnapshot,
    ReliableSender, RemoteSite, SlidingWindowSite,
};
use cludistream_gmm::{ChunkParams, CovarianceType, Gaussian, Mixture};
use cludistream_linalg::{Matrix, Vector};
use cludistream_obs::catalogue::{COORD_GROUPS, EM_ITERS_PER_FIT, NET_BYTES, SITE_CHUNK};
use cludistream_obs::{SpanId, SpanRecord, TelemetryDelta, TraceCtx, TraceId};
use cludistream_rng::{check, Rng, StdRng};
use cludistream_wire::{ByteBuf, ByteReader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread (the harness runs tests
    /// concurrently); const-initialised with no destructor, so reading or
    /// bumping them never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a `realloc` counts its new size).
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
    /// The largest single request since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn saw(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    ALLOCATED_BYTES.with(|n| n.set(n.get() + bytes as u64));
    LARGEST.with(|n| n.set(n.get().max(bytes)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        saw(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        saw(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and bytes asked for by `work`.
fn allocated(work: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get));
    work();
    (ALLOCATIONS.with(Cell::get) - before.0, ALLOCATED_BYTES.with(Cell::get) - before.1)
}

/// The largest single request `work` makes.
fn largest(work: impl FnOnce()) -> usize {
    LARGEST.with(|n| n.set(0));
    work();
    LARGEST.with(Cell::get)
}

/// What one decode may ask the allocator for at once.
fn allocation_bound(input: usize) -> usize {
    16 * input + 4096
}

/// One decoder and a valid input for it.
struct Case {
    name: String,
    bytes: Vec<u8>,
    /// Decodes `bytes`; `true` when that succeeded.
    decode: fn(&[u8]) -> bool,
}

fn case(name: impl Into<String>, bytes: ByteBuf, decode: fn(&[u8]) -> bool) -> Case {
    Case { name: name.into(), bytes: bytes.into_vec(), decode }
}

const WINDOW_CHUNKS: usize = 2;

fn site_config() -> Config {
    Config {
        dim: 2,
        k: 2,
        chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
        seed: 77,
        ..Default::default()
    }
}

fn decode_message(b: &[u8]) -> bool {
    Message::decode(&mut ByteReader::new(b)).is_ok()
}

fn decode_frame(b: &[u8]) -> bool {
    Frame::decode(&mut ByteReader::new(b)).is_ok()
}

fn decode_control(b: &[u8]) -> bool {
    Control::decode(&mut ByteReader::new(b)).is_ok()
}

fn decode_snapshot(b: &[u8]) -> bool {
    ModelSnapshot::decode(&mut ByteReader::new(b)).is_ok()
}

fn decode_telemetry(b: &[u8]) -> bool {
    TelemetryDelta::decode(&mut ByteReader::new(b)).is_ok()
}

fn decode_sender(b: &[u8]) -> bool {
    ReliableSender::restore(&mut ByteReader::new(b)).is_ok()
}

fn decode_landmark(b: &[u8]) -> bool {
    RemoteSite::restore(site_config(), &mut ByteReader::new(b)).is_ok()
}

fn decode_sliding(b: &[u8]) -> bool {
    SlidingWindowSite::restore(site_config(), WINDOW_CHUNKS, &mut ByteReader::new(b)).is_ok()
}

/// A full-covariance Gaussian of dimension `d` around `center`.
fn gaussian(d: usize, center: f64) -> Gaussian {
    let mut cov = Matrix::from_diag(&vec![1.5; d]);
    for i in 1..d {
        cov[(i, i - 1)] = 0.2;
        cov[(i - 1, i)] = 0.2;
    }
    Gaussian::new(Vector::filled(d, center), cov).unwrap()
}

fn new_model(components: Vec<Gaussian>) -> Message {
    let mixture = Mixture::uniform(components).unwrap();
    Message::NewModel { site: 3, model: ModelId(7), count: 500, avg_ll: -1.5, mixture }
}

fn trace_ctx() -> TraceCtx {
    TraceCtx { trace: TraceId::new(3, 11), span: SpanId::new(3, 12) }
}

fn telemetry() -> TelemetryDelta {
    TelemetryDelta {
        site: 3,
        local_now_us: 42_000,
        counters: vec![(NET_BYTES, 512)],
        gauges: vec![(COORD_GROUPS, 2.5)],
        observations: vec![(EM_ITERS_PER_FIT, vec![120, 80, 3000])],
        spans: vec![SpanRecord {
            trace: TraceId::new(3, 7),
            span: SpanId::new(3, 1),
            parent: Some(SpanId::new(3, 9)),
            name: SITE_CHUNK,
            node: 3,
            start_us: 100,
            end_us: 900,
            cost_us: 40,
        }],
        flight: vec!["{\"t\":0,\"event\":\"ReMerge\",\"group\":1}".to_owned()],
        unknown: 0,
    }
}

fn snapshot() -> ModelSnapshot {
    let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
    for site in 0..3u32 {
        let mixture = Mixture::uniform(vec![
            Gaussian::spherical(Vector::from_slice(&[0.0, 0.0]), 1.0).unwrap(),
            Gaussian::spherical(Vector::from_slice(&[20.0, 5.0]), 1.5).unwrap(),
        ])
        .unwrap();
        let message =
            Message::NewModel { site, model: ModelId(0), count: 1000, avg_ll: -2.0, mixture };
        c.apply(&message).unwrap();
    }
    ModelSnapshot::capture(&c).unwrap()
}

/// Feeds `chunks` chunks of records around `center` to `push`.
fn feed(chunk: usize, center: f64, chunks: f64, seed: u64, mut push: impl FnMut(Vector)) {
    let g = Gaussian::spherical(Vector::from_slice(&[center, center]), 0.5).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..(chunk as f64 * chunks) as usize {
        push(g.sample(&mut rng));
    }
}

/// A site mid-stream: two regimes seen, a partial chunk buffered.
fn landmark_site() -> RemoteSite {
    let mut site = RemoteSite::new(site_config()).unwrap();
    let chunk = site.chunk_size();
    for (center, chunks, seed) in [(0.0, 2.0, 1), (40.0, 1.0, 2), (40.0, 0.5, 3)] {
        feed(chunk, center, chunks, seed, |x| {
            site.push(x).unwrap();
        });
    }
    site
}

/// A sliding window that has expired chunks, with deletions and fit
/// updates not yet drained.
fn sliding_site() -> SlidingWindowSite {
    let mut site = SlidingWindowSite::new(site_config(), WINDOW_CHUNKS).unwrap();
    let chunk = site.site().chunk_size();
    for (center, chunks, seed) in [(0.0, 2.0, 4), (40.0, 2.0, 5), (40.0, 0.25, 6)] {
        feed(chunk, center, chunks, seed, |x| {
            site.push(x).unwrap();
        });
    }
    site
}

fn cases() -> Vec<Case> {
    let message = new_model(vec![gaussian(3, 0.0), gaussian(3, 10.0)]);
    let weight_update = Message::WeightUpdate { site: 3, model: ModelId(7), count_delta: 40 };
    let delete = Message::Delete { site: 3, model: ModelId(7), count_delta: 40 };
    let full = CovarianceType::Full;
    let mut out = vec![
        case("NewModel full", message.encode(full), decode_message),
        case("NewModel diagonal", message.encode(CovarianceType::Diagonal), decode_message),
        case("WeightUpdate", weight_update.encode(full), decode_message),
        case("Delete", delete.encode(full), decode_message),
        case("Frame::Bare", Frame::Bare(message.clone()).encode(full), decode_frame),
        case(
            "Frame::Data",
            Frame::Data { seq: 4, message: message.clone(), ctx: None }.encode(full),
            decode_frame,
        ),
        case(
            "Frame::Data traced",
            Frame::Data { seq: 5, message: message.clone(), ctx: Some(trace_ctx()) }.encode(full),
            decode_frame,
        ),
        case("Frame::Ack", Frame::Ack { cumulative: 9 }.encode(full), decode_frame),
        case("ModelSnapshot", snapshot().encode(), decode_snapshot),
        case("TelemetryDelta", telemetry().encode(), decode_telemetry),
        case("landmark checkpoint", landmark_site().snapshot(), decode_landmark),
        case("sliding checkpoint", sliding_site().snapshot(), decode_sliding),
    ];
    let mut sender = ReliableSender::new();
    sender.send(message);
    sender.send_traced(weight_update, Some(trace_ctx()));
    let mut queue = ByteBuf::new();
    sender.snapshot(full, &mut queue);
    out.push(case("ReliableSender", queue, decode_sender));

    let alert = |name: &str, firing| HealthAlert {
        name: name.to_owned(),
        metric: "coord.round_started".to_owned(),
        firing,
        value: 0.5,
        threshold: 1.0,
    };
    let controls = [
        Control::Hello {
            version: PROTOCOL_VERSION,
            site: 1,
            dim: 4,
            cov: CovarianceType::Diagonal,
            resume: true,
        },
        Control::Welcome {
            version: PROTOCOL_VERSION,
            heartbeat_us: 500_000,
            timeout_us: 5_000_000,
            ack: 42,
        },
        Control::Reject { code: RejectCode::Dimension, expect: 3, got: 5 },
        Control::Start,
        Control::Ping { site: 2, sent_us: 123_456 },
        Control::Done { site: 1 },
        Control::Stop,
        Control::Telemetry { site: 3, payload: telemetry().encode().into_vec() },
        Control::Pong { site: 2, echo_us: 123_456 },
        Control::ClockProbe { t0_us: 9_999 },
        Control::ClockEcho { site: 1, t0_us: 9_999, site_us: 77 },
        Control::StatusRequest,
        Control::StatusReply { text: b"cludistream_up 1\n".to_vec() },
        Control::SnapshotRequest,
        Control::SnapshotReply { snapshot: snapshot().encode().into_vec() },
        Control::HealthRequest,
        Control::HealthReply { alerts: vec![alert("round-stalled", true), alert("p99", false)] },
    ];
    for control in controls {
        let name = format!("{control:?}");
        let name = name.split([' ', '{']).next().unwrap_or_default();
        out.push(case(format!("Control::{name}"), control.encode(), decode_control));
    }
    out
}

/// The encodings a peer can put on one connection: `Message`, each `Frame`
/// kind, each `Control` variant and `ModelSnapshot` (the checkpoints,
/// telemetry and sender queue are read back by their owner only).
fn wire_cases() -> Vec<Case> {
    let owner_only =
        ["TelemetryDelta", "landmark checkpoint", "sliding checkpoint", "ReliableSender"];
    cases().into_iter().filter(|c| !owner_only.contains(&c.name.as_str())).collect()
}

#[test]
fn truncation_at_every_offset_is_an_error() {
    for case in cases() {
        assert!((case.decode)(&case.bytes), "{}: the valid input must decode", case.name);
        for cut in 0..case.bytes.len() {
            assert!(!(case.decode)(&case.bytes[..cut]), "{} cut at {cut} decoded", case.name);
        }
    }
}

#[test]
fn a_maxed_out_count_or_length_anywhere_never_panics_or_over_allocates() {
    for case in cases() {
        let n = case.bytes.len();
        for width in [4, 8] {
            for at in 0..n.saturating_sub(width - 1) {
                let mut bytes = case.bytes.clone();
                bytes[at..at + width].fill(0xFF);
                let asked = largest(|| {
                    (case.decode)(&bytes);
                });
                assert!(
                    asked <= allocation_bound(n),
                    "{}: 0xFF × {width} at {at} of {n} bytes asked for {asked} bytes at once",
                    case.name
                );
            }
        }
    }
}

#[test]
fn random_bit_flips_never_panic() {
    let cases = cases();
    check::cases("decode_hostile_bit_flips", 2048, |rng| {
        let case = &cases[rng.gen_range(0..cases.len())];
        let mut bytes = case.bytes.clone();
        for _ in 0..rng.gen_range(1..=8usize) {
            let bit = rng.gen_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        let asked = largest(|| {
            (case.decode)(&bytes);
        });
        assert!(asked <= allocation_bound(bytes.len()), "{}: asked for {asked}", case.name);
    });
}

#[test]
fn tag_swaps_and_splices_of_two_encodings_never_panic_or_over_allocate() {
    let cases = wire_cases();
    let mut input = Vec::new();
    for a in &cases {
        for b in &cases {
            // `cut == None` is the tag swap: b's tag byte on a's body. Every
            // other cut joins a's first `cut` bytes to b's bytes from `cut`.
            let longer = a.bytes.len().max(b.bytes.len());
            for cut in std::iter::once(None).chain((0..=longer).map(Some)) {
                input.clear();
                match cut {
                    None => {
                        input.push(b.bytes[0]);
                        input.extend_from_slice(&a.bytes[1..]);
                    }
                    Some(cut) => {
                        input.extend_from_slice(&a.bytes[..cut.min(a.bytes.len())]);
                        input.extend_from_slice(&b.bytes[cut.min(b.bytes.len())..]);
                    }
                }
                for decode in [a.decode, b.decode] {
                    let asked = largest(|| {
                        decode(&input);
                    });
                    assert!(
                        asked <= allocation_bound(input.len()),
                        "{} + {} at {cut:?}: asked for {asked} bytes at once",
                        a.name,
                        b.name
                    );
                }
            }
        }
    }
}

/// Offsets in a fresh site's checkpoint: 87 bytes of header, counters and
/// stats end in the model count; the event count, the open-event flag and
/// the buffered-record count follow.
const MODEL_COUNT_AT: usize = 83;
const CLOSED_COUNT_AT: usize = 87;
const BUFFERED_AT: usize = 92;
const LANDMARK_BYTES: usize = 96;

#[test]
fn a_landmark_checkpoint_with_a_lying_count_is_an_error() {
    let fresh = RemoteSite::new(site_config()).unwrap().snapshot();
    assert_eq!(fresh.len(), LANDMARK_BYTES);
    for (field, at) in
        [("model count", MODEL_COUNT_AT), ("event count", CLOSED_COUNT_AT), ("records", BUFFERED_AT)]
    {
        for end in [at + 4, LANDMARK_BYTES] {
            let mut bytes = fresh.as_slice()[..end].to_vec();
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let mut restored = true;
            let asked = largest(|| restored = decode_landmark(&bytes));
            assert!(!restored, "{field} u32::MAX in {end} bytes restored");
            assert!(
                asked <= allocation_bound(end),
                "{field} u32::MAX in {end} bytes asked for {asked} bytes at once"
            );
        }
    }
}

#[test]
fn a_sliding_checkpoint_with_a_lying_count_is_an_error() {
    let fresh = SlidingWindowSite::new(site_config(), WINDOW_CHUNKS).unwrap().snapshot();
    // The landmark part, the window size, then the three ledger counts.
    assert_eq!(fresh.len(), LANDMARK_BYTES + 4 * 8);
    for (field, at) in [("chunks", 1), ("deletions", 2), ("fit updates", 3)] {
        let at = LANDMARK_BYTES + 8 * at;
        for count in [1u64 << 61, 1 << 60, u64::MAX] {
            let mut bytes = fresh.as_slice().to_vec();
            bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
            let mut restored = true;
            let asked = largest(|| restored = decode_sliding(&bytes));
            assert!(!restored, "{field} {count} restored");
            assert!(asked <= allocation_bound(bytes.len()), "{field} {count}: asked {asked}");
        }
    }
}

/// Allocations and bytes of decoding a `Frame::Data` carrying a `NewModel`
/// of `k` spherical components in `d` dimensions.
fn frame_decode_allocations(k: usize, d: usize, cov: CovarianceType) -> (u64, u64) {
    let spherical =
        |i: usize| Gaussian::spherical(Vector::filled(d, 10.0 * i as f64), 1.0).unwrap();
    let message = new_model((0..k).map(spherical).collect());
    let bytes = Frame::Data { seq: 1, message, ctx: None }.encode(cov);
    allocated(|| {
        Frame::decode(&mut bytes.reader()).unwrap();
    })
}

#[test]
fn decoding_a_synopsis_frame_allocates_what_it_did_before_reads_were_checked() {
    // Weights, K means, K covariances, each collected once, and what
    // `Gaussian::new` (which caches inverse variances for a covariance
    // that is exactly diagonal, and puts the parameters in one shared
    // block) and `Mixture::new` build; a diagonal encoding also collects
    // its d values before expanding them. The shared block is one
    // allocation and 24 bytes more a component than when a `Gaussian` held
    // its parameters inline, and `Gaussian::new`'s diagonal test no longer
    // copies the diagonal out first: one allocation and d·8 bytes fewer a
    // diagonal component, against 8 more bytes in the shared block
    // (34 and 2 800 for the first row before).
    assert_eq!(frame_decode_allocations(5, 4, CovarianceType::Full), (29, 2680));
    assert_eq!(frame_decode_allocations(5, 4, CovarianceType::Diagonal), (34, 2840));
    assert_eq!(frame_decode_allocations(1, 2, CovarianceType::Full).0, 9);
    assert_eq!(frame_decode_allocations(1, 2, CovarianceType::Diagonal).0, 10);
}
