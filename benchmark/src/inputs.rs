//! Input generation. Everything the program under test consumes is made
//! here, in set-up, from `--seed`, into flat `f64` buffers and pre-encoded
//! frames; the program itself only ever sees [`RecordStream`] iterators
//! and byte buffers, never the seed.
//!
//! The *shape* of every workload is fixed by the constants below: record
//! and frame counts, where regimes change and what mixture each regime
//! draws from, which operation a fan-in frame carries and how many records
//! it stands for. The seed draws the *content*: every record, and every
//! fan-in site's jitter. Drawing the regime mixtures from the seed too was
//! tried and dropped: EM cost follows mixture geometry, which moved
//! `records_per_s` on `drift` by about 10 % between seeds and the number of
//! false alarms on `steady` from 0 to 19 — more than any bound — while
//! with fixed regimes every end-to-end metric stays within a third of its
//! bound across seeds.

use cludistream::{Frame, Message, ModelId, RecordStream};
use cludistream_datagen::{random_mixture, MixtureGenConfig};
use cludistream_gmm::{Batch, CovarianceType, Gaussian, Mixture};
use cludistream_linalg::Vector;
use cludistream_rng::{shuffle, Rng, StdRng};
use cludistream_wire::ByteBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Record dimensionality of every workload (the paper's default).
pub const DIM: usize = 4;
/// Components per mixture (the paper's default).
pub const K: usize = 5;
/// Theorem 1 chunk size at d = 4, ε = 0.02, δ = 0.01.
pub const CHUNK: usize = 1567;
/// Records per scoring batch on the read path.
pub const SCORE_BATCH: usize = 4096;

/// Records between regime-change opportunities (the paper's "every 2K
/// points").
const REGIME_LEN: usize = 2000;
/// Seed of everything that is shape: regime schedule, regime mixtures,
/// fan-in operation order and counts.
const SHAPE_SEED: u64 = 0x5EED_0F5C_4ED0_1E01;
/// Rows in a stationary site's pool: one chunk, so that every chunk after
/// the first is the founding chunk again and passes the test by
/// construction. Any larger pool leaves the false alarms of the test to
/// the seed — 1 seed in 20 with a 2-chunk pool, 1 in 3 with a 128-chunk
/// one — and each false alarm re-clusters and sends a second synopsis,
/// which is +50 % `bytes_per_record`: more than any bound. The cost of a
/// test does not depend on the values tested.
pub const STEADY_POOL: usize = CHUNK;

/// One site's records as a flat row-major `f64` buffer. `records` may
/// exceed the rows held: the stream then cycles the pool.
#[derive(Clone)]
pub struct SiteInput {
    pub rows: Arc<Vec<f64>>,
    pub records: u64,
}

impl SiteInput {
    fn pool_rows(&self) -> usize {
        self.rows.len() / DIM
    }
}

/// Per-site wall-clock marks the stream wrapper leaves behind (traced runs
/// only): the moment it handed out the last record of each chunk, and the
/// gaps between the driver's batches.
pub struct StreamMarks {
    epoch: Instant,
    /// Records the driver pulls per batch.
    batch: u64,
    /// Nanoseconds since `epoch` at which chunk `i`'s last record left the
    /// stream; 0 while not yet handed out.
    chunk_end_ns: Vec<AtomicU64>,
    /// Nanoseconds between the last pull of one driver batch and the first
    /// pull of the next.
    pub batch_gaps_ns: std::sync::Mutex<Vec<u64>>,
}

impl StreamMarks {
    pub fn new(epoch: Instant, chunks: usize, batch: u64) -> Arc<StreamMarks> {
        Arc::new(StreamMarks {
            epoch,
            batch,
            chunk_end_ns: (0..chunks).map(|_| AtomicU64::new(0)).collect(),
            batch_gaps_ns: std::sync::Mutex::new(Vec::new()),
        })
    }

    /// When chunk `chunk`'s last record was handed out, as nanoseconds
    /// since the epoch, if it was.
    pub fn chunk_end_ns(&self, chunk: usize) -> Option<u64> {
        let ns = self.chunk_end_ns.get(chunk)?.load(Ordering::Acquire);
        (ns > 0).then_some(ns)
    }
}

/// The iterator handed to the program: walks (and cycles) a flat buffer,
/// allocating one `Vector` per record as any real source would.
struct FlatStream {
    rows: Arc<Vec<f64>>,
    pos: usize,
    left: u64,
    pulled: u64,
    marks: Option<Arc<StreamMarks>>,
    /// When the last record of the driver's previous batch was pulled.
    last_pull: Option<Instant>,
}

impl Iterator for FlatStream {
    type Item = Vector;

    fn next(&mut self) -> Option<Vector> {
        if self.left == 0 {
            return None;
        }
        if let Some(marks) = &self.marks {
            let at = self.pulled % marks.batch;
            if at == 0 {
                if let Some(last) = self.last_pull {
                    let gap = last.elapsed().as_nanos() as u64;
                    marks.batch_gaps_ns.lock().expect("gap log poisoned").push(gap);
                }
            } else if at == marks.batch - 1 {
                self.last_pull = Some(Instant::now());
            }
        }
        let row = Vector::from_slice(&self.rows[self.pos..self.pos + DIM]);
        self.pos += DIM;
        if self.pos == self.rows.len() {
            self.pos = 0;
        }
        self.left -= 1;
        self.pulled += 1;
        if let Some(marks) = &self.marks {
            if self.pulled.is_multiple_of(CHUNK as u64) {
                let chunk = (self.pulled / CHUNK as u64 - 1) as usize;
                if let Some(slot) = marks.chunk_end_ns.get(chunk) {
                    let ns = marks.epoch.elapsed().as_nanos() as u64;
                    slot.store(ns.max(1), Ordering::Release);
                }
            }
        }
        Some(row)
    }
}

/// A stream over a site's input; with `marks`, one that also leaves
/// chunk-end marks and batch gaps there.
pub fn stream(input: &SiteInput, marks: Option<Arc<StreamMarks>>) -> RecordStream {
    Box::new(FlatStream {
        rows: Arc::clone(&input.rows),
        pos: 0,
        left: input.records,
        pulled: 0,
        marks,
        last_pull: None,
    })
}

fn sample_rows(mixture: &Mixture, n: usize, rng: &mut StdRng, out: &mut Vec<f64>) {
    for _ in 0..n {
        out.extend_from_slice(mixture.sample(rng).as_slice());
    }
}

fn site_rng(seed: u64, site: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(site as u64 + 1))
}

/// Stationary inputs: each site cycles a [`STEADY_POOL`]-row sample of
/// its own mixture for `records` records.
pub fn stationary(seed: u64, sites: usize, records: u64) -> Vec<SiteInput> {
    (0..sites)
        .map(|site| {
            let mut shape = StdRng::seed_from_u64(SHAPE_SEED.wrapping_add(site as u64));
            let mixture = random_mixture(&MixtureGenConfig::default(), &mut shape);
            let mut rng = site_rng(seed, site);
            let mut rows = Vec::with_capacity(STEADY_POOL * DIM);
            sample_rows(&mixture, STEADY_POOL, &mut rng, &mut rows);
            SiteInput { rows: Arc::new(rows), records }
        })
        .collect()
}

/// Evolving inputs: the paper's synthetic stream — a fresh random mixture
/// at a regime boundary, boundaries every 2 000 records, each taken with
/// probability one half — with schedule and mixtures fixed and the records
/// drawn from the seed. A shorter stream is a prefix of a longer one.
pub fn evolving(seed: u64, sites: usize, records: usize) -> Vec<SiteInput> {
    (0..sites)
        .map(|site| {
            let mut schedule = StdRng::seed_from_u64(SHAPE_SEED.wrapping_add(site as u64));
            let mut rng = site_rng(seed, site);
            let config = MixtureGenConfig::default();
            let mut mixture = random_mixture(&config, &mut schedule);
            let mut rows = Vec::with_capacity(records * DIM);
            let mut emitted = 0;
            while emitted < records {
                if emitted > 0 && schedule.gen_bool(0.5) {
                    mixture = random_mixture(&config, &mut schedule);
                }
                let n = REGIME_LEN.min(records - emitted);
                sample_rows(&mixture, n, &mut rng, &mut rows);
                emitted += n;
            }
            SiteInput { rows: Arc::new(rows), records: records as u64 }
        })
        .collect()
}

/// The first `records` records of each site of `inputs`.
pub fn prefix(inputs: &[SiteInput], records: u64) -> Vec<SiteInput> {
    inputs
        .iter()
        .map(|input| {
            assert!(records <= input.records, "prefix longer than the input");
            SiteInput { rows: Arc::clone(&input.rows), records }
        })
        .collect()
}

/// Scoring batches cut from the sites' own records, round-robin.
pub fn score_batches(inputs: &[SiteInput], count: usize) -> Vec<Batch> {
    (0..count)
        .map(|b| {
            let input = &inputs[b % inputs.len()];
            let pool = input.pool_rows();
            let start = (b / inputs.len() * SCORE_BATCH) % pool.saturating_sub(SCORE_BATCH).max(1);
            let records: Vec<Vector> = (0..SCORE_BATCH)
                .map(|i| {
                    let at = ((start + i) % pool) * DIM;
                    Vector::from_slice(&input.rows[at..at + DIM])
                })
                .collect();
            Batch::from_records(&records)
        })
        .collect()
}

/// What the fan-in script carries, known to the harness so that it can
/// check the coordinator's books from outside.
pub struct FaninInput {
    /// Pre-encoded `Frame::Data` frames in arrival order.
    pub frames: Vec<ByteBuf>,
    /// Operation of each frame (for the per-kind apply timings).
    pub kinds: Vec<FrameKind>,
    /// Originating site of each frame.
    pub sites: Vec<u32>,
    pub site_count: usize,
    /// Record mass the script leaves alive at the end (Σ live counts).
    pub expected_mass: f64,
    /// Record mass the script ever offered (Σ NewModel counts and
    /// WeightUpdate deltas).
    pub offered_records: u64,
    /// Batches for the concurrent reader.
    pub batches: Vec<Batch>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    NewModel,
    WeightUpdate,
    Delete,
}

/// Sites in the fleet the benchmark plays.
pub const FANIN_SITES: usize = 400;
/// Follow-up rounds after every site's first synopsis.
const FANIN_ROUNDS: usize = 3;
/// Regional mixtures the fleet's sites observe.
const FANIN_REGIONS: usize = 4;

/// The fan-in script: every site's `NewModel` for model 0 from one of four
/// jittered regional mixtures, then three interleaved rounds of 60 %
/// `WeightUpdate` / 20 % `NewModel` for a new model id / 20 % `Delete`
/// (5 % of deletes to zero), never referencing a model already deleted to
/// zero (a site left with no live model founds a new one instead). The
/// operation mix dealt per round is exact; its order, the regions and the
/// counts are fixed; the seed draws each synopsis's jitter and the reader's
/// records.
pub fn fanin(seed: u64) -> FaninInput {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xD1B5_4A32_D192_ED03).wrapping_add(7));
    let mut shape = StdRng::seed_from_u64(SHAPE_SEED ^ 0xFA21);
    let config = MixtureGenConfig::default();
    let regions: Vec<Mixture> =
        (0..FANIN_REGIONS).map(|_| random_mixture(&config, &mut shape)).collect();
    let mut script = Script {
        input: FaninInput {
            frames: Vec::new(),
            kinds: Vec::new(),
            sites: Vec::new(),
            site_count: FANIN_SITES,
            expected_mass: 0.0,
            offered_records: 0,
            batches: Vec::new(),
        },
        regions,
        live: vec![Vec::new(); FANIN_SITES],
        next_model: vec![0; FANIN_SITES],
        next_seq: vec![0; FANIN_SITES],
    };

    for site in 0..FANIN_SITES {
        script.new_model(site, &mut shape, &mut rng);
    }
    for _ in 0..FANIN_ROUNDS {
        let deletes = FANIN_SITES / 5;
        let to_zero = deletes.div_ceil(20);
        let mut ops = Vec::with_capacity(FANIN_SITES);
        ops.extend(std::iter::repeat_n(Op::Update, FANIN_SITES - 2 * deletes));
        ops.extend(std::iter::repeat_n(Op::New, deletes));
        ops.extend(std::iter::repeat_n(Op::DeleteHalf, deletes - to_zero));
        ops.extend(std::iter::repeat_n(Op::DeleteAll, to_zero));
        shuffle(&mut ops, &mut shape);
        let mut order: Vec<usize> = (0..FANIN_SITES).collect();
        shuffle(&mut order, &mut shape);
        for (&site, &op) in order.iter().zip(&ops) {
            // A site whose every model is gone can only found a new one.
            match if script.live[site].is_empty() { Op::New } else { op } {
                Op::New => script.new_model(site, &mut shape, &mut rng),
                Op::Update => {
                    let delta = CHUNK as u64 * shape.gen_range(1..=3u64);
                    let newest = script.live[site].last_mut().expect("site has a live model");
                    newest.1 += delta;
                    let model = ModelId(newest.0);
                    script.input.offered_records += delta;
                    let message =
                        Message::WeightUpdate { site: site as u32, model, count_delta: delta };
                    script.emit(site, FrameKind::WeightUpdate, message);
                }
                Op::DeleteHalf | Op::DeleteAll => {
                    let (model, count) = script.live[site][0];
                    let delta = if op == Op::DeleteAll || count < 2 { count } else { count / 2 };
                    if delta == count {
                        script.live[site].remove(0);
                    } else {
                        script.live[site][0].1 -= delta;
                    }
                    let message = Message::Delete {
                        site: site as u32,
                        model: ModelId(model),
                        count_delta: delta,
                    };
                    script.emit(site, FrameKind::Delete, message);
                }
            }
        }
    }
    let Script { mut input, regions, live, .. } = script;
    input.expected_mass = live.iter().flatten().map(|&(_, count)| count as f64).sum();
    // Reader batches: records of the regional mixtures themselves.
    input.batches = (0..2 * FANIN_REGIONS)
        .map(|b| {
            let region = &regions[b % FANIN_REGIONS];
            let records: Vec<Vector> = (0..SCORE_BATCH).map(|_| region.sample(&mut rng)).collect();
            Batch::from_records(&records)
        })
        .collect();
    input
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Update,
    New,
    DeleteHalf,
    DeleteAll,
}

/// The fleet's books while the script is written.
struct Script {
    input: FaninInput,
    regions: Vec<Mixture>,
    /// Per site: (model id, live count) of models not deleted to zero,
    /// oldest first.
    live: Vec<Vec<(u64, u64)>>,
    next_model: Vec<u64>,
    next_seq: Vec<u64>,
}

impl Script {
    fn emit(&mut self, site: usize, kind: FrameKind, message: Message) {
        let frame = Frame::Data { seq: self.next_seq[site], message, ctx: None };
        self.next_seq[site] += 1;
        self.input.frames.push(frame.encode(CovarianceType::Full));
        self.input.kinds.push(kind);
        self.input.sites.push(site as u32);
    }

    fn new_model(&mut self, site: usize, shape: &mut StdRng, rng: &mut StdRng) {
        let model = self.next_model[site];
        self.next_model[site] += 1;
        let count = CHUNK as u64 * shape.gen_range(1..=4u64);
        self.live[site].push((model, count));
        self.input.offered_records += count;
        let region = &self.regions[site % FANIN_REGIONS];
        let comps: Vec<Gaussian> = region
            .components()
            .iter()
            .map(|g| {
                let mean: Vector =
                    g.mean().iter().map(|m| m + 0.2 * (rng.next_f64() - 0.5)).collect();
                Gaussian::new(mean, g.cov().scaled(0.9 + 0.2 * rng.next_f64()))
                    .expect("scaled SPD covariance is valid")
            })
            .collect();
        let mixture = Mixture::new(comps, region.weights().to_vec()).expect("valid mixture");
        let message = Message::NewModel {
            site: site as u32,
            model: ModelId(model),
            count,
            avg_ll: -6.0,
            mixture,
        };
        self.emit(site, FrameKind::NewModel, message);
    }
}
