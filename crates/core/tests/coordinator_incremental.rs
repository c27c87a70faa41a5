//! Differential oracle for the coordinator's running group aggregates.
//!
//! The coordinator folds joins into, subtracts removals from and applies
//! reweights to per-group running statistics instead of re-folding every
//! member, resolves `WeightUpdate` / `Delete` / same-id `NewModel` through
//! a model→member index instead of scanning, and derives merge-time
//! `M_remerge` lazily. The reference is the same coordinator with every
//! group `recompute()`d from its members after every message: random
//! scripts must leave both with the same groups, the same members in the
//! same order, and aggregates that agree — bit for bit while the script
//! only adds, within [`TOLERANCE`] once it subtracts.
//!
//! The same scripts check the lineage a snapshot publishes, which each group
//! builds once per membership change and shares until the next: after every
//! message it must equal a fresh walk of every group's members, and be
//! shared with the previous snapshot by exactly the groups whose membership
//! the message left alone. A lineage is cut into chunks of 64 members, and
//! a build shares every chunk a change left alone, so scripted joins and
//! removals on one group of several chunks aim at the chunk edges too.

use cludistream::coordinator::{
    m_merge, m_split, ComponentKey, Coordinator, CoordinatorConfig, Group, Member, MergeRefiner,
};
use cludistream::{
    MergeRecord, Message, ModelId, ModelSnapshot, SnapshotGroup, SnapshotHandle, SnapshotMember,
};
use cludistream_gmm::{Gaussian, Mixture};
use cludistream_linalg::{Matrix, Vector};
use cludistream_obs::catalogue::{Counter, COORD_PAIRS_SCORED};
use cludistream_obs::{Event, Obs, Recorder, Registry};
use cludistream_rng::{check, Rng, StdRng};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Stated tolerance of a running aggregate against the exact rebuild, for
/// means and covariances alike, relative to the group's second moment
/// `max_i(Σ_ii + μ_i²)` — the magnitude at which the statistics are
/// summed, hence the magnitude of their rounding.
const TOLERANCE: f64 = 1e-9;

const DIM: usize = 2;

/// A few regions so that components join, groups merge and, under heavy
/// reweights, members split.
const REGIONS: [[f64; DIM]; 5] =
    [[0.0, 0.0], [12.0, 3.0], [-9.0, 14.0], [25.0, -20.0], [-30.0, -8.0]];

fn random_mixture(rng: &mut StdRng) -> Mixture {
    let k = rng.gen_range(1..=3usize);
    let components = (0..k)
        .map(|_| {
            let region = REGIONS[rng.gen_range(0..REGIONS.len())];
            let mean: Vec<f64> = region.iter().map(|c| c + rng.gen_range(-2.0..2.0)).collect();
            let vars: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.4..2.5)).collect();
            Gaussian::diagonal(Vector::from_slice(&mean), &vars).unwrap()
        })
        .collect();
    Mixture::new(components, (0..k).map(|_| rng.gen_range(0.2..1.0)).collect()).unwrap()
}

/// The script's own books: live `(site, model, count)`.
struct Script {
    live: Vec<(u32, u64, u64)>,
    next_model: u64,
}

impl Script {
    fn new_model(&mut self, rng: &mut StdRng) -> Message {
        let (site, model, count) =
            (rng.gen_range(0..6u32), self.next_model, rng.gen_range(50..5_000u64));
        self.next_model += 1;
        self.live.push((site, model, count));
        Message::NewModel {
            site,
            model: ModelId(model),
            count,
            avg_ll: -1.0,
            mixture: random_mixture(rng),
        }
    }

    /// One message of a script that adds, reweights, deletes (partly and to
    /// zero) and replaces.
    fn any(&mut self, rng: &mut StdRng) -> Message {
        if self.live.is_empty() {
            return self.new_model(rng);
        }
        let at = rng.gen_range(0..self.live.len());
        let (site, model, count) = self.live[at];
        match rng.gen_range(0..10u32) {
            0..=2 => self.new_model(rng),
            3..=5 => {
                // Mostly modest, now and then heavy enough to drag an
                // aggregate away from its members.
                let heavy = rng.gen_bool(0.2);
                let count_delta = rng.gen_range(1..if heavy { 200_000u64 } else { 2_000 });
                self.live[at].2 += count_delta;
                Message::WeightUpdate { site, model: ModelId(model), count_delta }
            }
            6..=7 => {
                let to_zero = count == 1 || rng.gen_bool(0.3);
                let count_delta = if to_zero { count } else { rng.gen_range(1..count) };
                if to_zero {
                    self.live.swap_remove(at);
                } else {
                    self.live[at].2 -= count_delta;
                }
                Message::Delete { site, model: ModelId(model), count_delta }
            }
            _ => {
                let count = rng.gen_range(50..5_000u64);
                self.live[at].2 = count;
                Message::NewModel {
                    site,
                    model: ModelId(model),
                    count,
                    avg_ll: -1.0,
                    mixture: random_mixture(rng),
                }
            }
        }
    }

    fn mass(&self) -> f64 {
        self.live.iter().map(|&(_, _, count)| count as f64).sum()
    }
}

fn second_moment(g: &Gaussian) -> f64 {
    (0..g.dim()).map(|i| g.cov()[(i, i)] + g.mean()[i] * g.mean()[i]).fold(0.0, f64::max)
}

/// Largest deviation of `running` from `exact` over mean and covariance
/// entries, relative to the second moment of `exact`.
fn deviation(running: &Gaussian, exact: &Gaussian) -> f64 {
    let d = exact.dim();
    let scale = second_moment(exact);
    let mut worst: f64 = 0.0;
    for i in 0..d {
        worst = worst.max((running.mean()[i] - exact.mean()[i]).abs() / scale.sqrt());
        for j in 0..d {
            worst = worst.max((running.cov()[(i, j)] - exact.cov()[(i, j)]).abs() / scale);
        }
    }
    worst
}

fn keys(g: &Group) -> Vec<(u32, u64, usize)> {
    g.members().map(|m| (m.key.site, m.key.model.0, m.key.component)).collect()
}

/// Runs `steps` messages through the running coordinator and the
/// rebuilt-after-every-message reference and compares them after each.
/// Returns `(merges, splits)` the running side went through.
fn run_against_oracle(
    rng: &mut StdRng,
    steps: usize,
    next: impl Fn(&mut Script, &mut StdRng) -> Message,
    bit_equal: bool,
) -> (u64, u64) {
    let config = CoordinatorConfig { max_groups: 4, ..CoordinatorConfig::default() };
    let registry = Arc::new(Registry::new());
    let mut running = Coordinator::new(config.clone()).unwrap();
    running.set_observer(Obs::from_registry(Arc::clone(&registry)));
    let mut oracle = Coordinator::new(config).unwrap();
    let mut script = Script { live: Vec::new(), next_model: 0 };
    for step in 0..steps {
        let message = next(&mut script, rng);
        running.apply(&message).unwrap();
        oracle.apply(&message).unwrap();
        oracle.recompute_groups();

        assert_eq!(running.group_count(), oracle.group_count(), "step {step}: group count");
        for (r, o) in running.groups().iter().zip(oracle.groups()) {
            assert_eq!(r.id, o.id, "step {step}: group ids");
            assert_eq!(keys(r), keys(o), "step {step}: members of group {}", r.id);
            if bit_equal {
                assert_eq!(r.aggregate().mean().as_slice(), o.aggregate().mean().as_slice());
                assert_eq!(r.aggregate().cov().as_slice(), o.aggregate().cov().as_slice());
                assert_eq!(r.weight().to_bits(), o.weight().to_bits());
            } else {
                let dev = deviation(r.aggregate(), o.aggregate());
                assert!(dev <= TOLERANCE, "step {step}: group {} deviates by {dev:e}", r.id);
            }
        }
        // Mass conservation against the script's own books.
        let mass = script.mass();
        assert!(
            (running.total_weight() - mass).abs() <= 1e-9 * mass.max(1.0),
            "step {step}: total weight {} vs live mass {mass}",
            running.total_weight()
        );
        // Every member reachable through the index, no entry dangling.
        running.check().unwrap_or_else(|e| panic!("step {step}: {e}"));
        assert_eq!(running.known_models(), script.live.len(), "step {step}: registry rows");
    }
    (registry.counter_value("coord.merges"), registry.counter_value("coord.splits"))
}

#[test]
fn additive_scripts_match_the_exact_rebuild_bit_for_bit() {
    let merges = Cell::new(0);
    check::cases("coordinator_incremental_additive", 24, |rng| {
        let (m, _) = run_against_oracle(rng, 60, Script::new_model, true);
        merges.set(merges.get() + m);
    });
    assert!(merges.get() > 0, "the scripts never merged two groups");
}

#[test]
fn mixed_scripts_match_the_exact_rebuild_within_tolerance() {
    let (merges, splits) = (Cell::new(0), Cell::new(0));
    check::cases("coordinator_incremental_mixed", 48, |rng| {
        let (m, s) = run_against_oracle(rng, 160, Script::any, false);
        merges.set(merges.get() + m);
        splits.set(splits.get() + s);
    });
    // The comparison is vacuous unless the scripts exercise the index
    // through merges (members re-homed) and splits (members re-inserted).
    assert!(merges.get() > 0 && splits.get() > 0, "merges {merges:?}, splits {splits:?}");
}

/// The case the exact-rebuild rule exists for: a member standing for 1e9
/// records joins a group of 100-record members, far from the origin, and
/// is then deleted to zero. Subtracting it leaves the rounding error of
/// the 1e9-record sum in statistics now worth 2 000 records; the group
/// must notice the collapse and rebuild, so the aggregate matches the
/// exact one relative to its own covariance, not merely to its second
/// moment.
#[test]
fn shedding_a_dominant_member_does_not_leave_its_rounding_behind() {
    let at = |x: f64, y: f64| {
        Mixture::new(
            vec![Gaussian::diagonal(Vector::from_slice(&[x, y]), &[1.0, 1.5]).unwrap()],
            vec![1.0],
        )
        .unwrap()
    };
    let mut c = Coordinator::new(CoordinatorConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(14);
    for site in 0..20 {
        let (dx, dy) = (rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5));
        c.apply(&Message::NewModel {
            site,
            model: ModelId(0),
            count: 100,
            avg_ll: -1.0,
            mixture: at(1000.0 + dx, -500.0 + dy),
        })
        .unwrap();
    }
    let giant = 1_000_000_000;
    c.apply(&Message::NewModel {
        site: 99,
        model: ModelId(0),
        count: giant,
        avg_ll: -1.0,
        mixture: at(1000.2, -500.1),
    })
    .unwrap();
    assert_eq!(c.group_count(), 1, "the giant joins the group");
    c.apply(&Message::Delete { site: 99, model: ModelId(0), count_delta: giant }).unwrap();
    assert_eq!(c.component_count(), 20);
    assert!((c.total_weight() - 2_000.0).abs() < 1e-6);

    let running = c.groups()[0].aggregate().clone();
    c.recompute_groups();
    let exact = c.groups()[0].aggregate();
    assert!(deviation(&running, exact) <= TOLERANCE);
    for i in 0..DIM {
        for j in 0..DIM {
            let (r, e) = (running.cov()[(i, j)], exact.cov()[(i, j)]);
            assert!(r.is_finite());
            assert!((r - e).abs() <= TOLERANCE * e.abs().max(1.0), "cov[{i},{j}] {r} vs {e}");
        }
    }
    // Positive definite without the constructor having had to ridge it.
    assert!(running.cov()[(0, 0)] > 0.5 && running.cov()[(1, 1)] > 0.5);
    let det = running.cov()[(0, 0)] * running.cov()[(1, 1)] - running.cov()[(0, 1)].powi(2);
    assert!(det > 0.0, "det {det}");
    c.check().unwrap();
}

/// The coordinator's placement and consolidation as they were before they
/// kept a score table and skipped pairs that cannot win: every group scored
/// for every component placed, every pair of aggregates re-scored before
/// every merge. Written against the public group API (an absorbed group's
/// members are `push`ed into the host in their order, which folds the same
/// statistics in the same order as the merge), for scripts of fresh
/// `NewModel`s only.
struct RescanTwin {
    groups: Vec<Group>,
    next_group_id: u64,
    applied: u64,
    max_groups: usize,
    join_distance: f64,
    /// Every merge made, with the bits of the winning `M_merge`.
    merges: Vec<(MergeRecord, u64)>,
    /// What the coordinator's bounds could and could not rule out.
    tally: PruneTally,
}

/// Evaluations a full scan makes that a certified bound rules out, and
/// evaluations it makes because a side has no certified bound.
#[derive(Default, Debug)]
struct PruneTally {
    /// Placements: groups whose bound exceeds the join limit or the best
    /// distance so far, the rule `insert_component` skips by.
    placed_pruned: u64,
    /// Placements: groups scored because a side is uncertified.
    placed_fallback: u64,
    /// Consolidation: the pairs a score table without caps scores.
    table_pairs: u64,
    /// Consolidation: those with an uncertified aggregate.
    table_fallback: u64,
    /// Consolidation: what the coordinator's `coord.pairs_scored` read.
    pairs_scored: u64,
}

/// The bound of `Gaussian::dist_lower_bound` from each side's own factor.
fn bound(a: &Gaussian, b: &Gaussian) -> f64 {
    a.dist_lower_bound(a.dist_bound_factor(), b, b.dist_bound_factor())
}

impl RescanTwin {
    fn new(config: &CoordinatorConfig) -> Self {
        RescanTwin {
            groups: Vec::new(),
            next_group_id: 0,
            applied: 0,
            max_groups: config.max_groups,
            join_distance: config.join_distance,
            merges: Vec::new(),
            tally: PruneTally::default(),
        }
    }

    fn apply(&mut self, message: &Message) {
        let Message::NewModel { site, model, count, mixture, .. } = message else {
            panic!("the twin takes NewModels only");
        };
        self.applied += 1;
        for (component, (g, &w)) in mixture.components().iter().zip(mixture.weights()).enumerate() {
            let key = ComponentKey { site: *site, model: *model, component };
            let member = Member::new(key, g.clone(), w * *count as f64);
            let limit = self.join_distance * g.dim() as f64;
            let mut so_far: Option<f64> = None;
            for group in &self.groups {
                let dist = m_split(g, group.aggregate());
                let bound = bound(g, group.aggregate());
                if bound == f64::NEG_INFINITY {
                    self.tally.placed_fallback += 1;
                } else if bound > so_far.map_or(limit, |b| b.min(limit)) {
                    self.tally.placed_pruned += 1;
                }
                if so_far.is_none_or(|b| dist.total_cmp(&b).is_lt()) {
                    so_far = Some(dist);
                }
            }
            let best = self
                .groups
                .iter()
                .enumerate()
                .map(|(i, group)| (i, m_split(g, group.aggregate())))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            match best {
                Some((i, dist)) if dist <= limit => {
                    self.groups[i].push(member);
                }
                _ => {
                    self.groups.push(Group::new(self.next_group_id, member));
                    self.next_group_id += 1;
                }
            }
        }
        let mut host: Option<usize> = None;
        while self.groups.len() > self.max_groups {
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..self.groups.len() {
                for j in (i + 1)..self.groups.len() {
                    let (a, b) = (self.groups[i].aggregate(), self.groups[j].aggregate());
                    let m = m_merge(a, b);
                    if host.is_none_or(|h| h == i || h == j) {
                        self.tally.table_pairs += 1;
                        self.tally.table_fallback += u64::from(bound(a, b) == f64::NEG_INFINITY);
                    }
                    if best.is_none_or(|(_, _, bm)| m > bm) {
                        best = Some((i, j, m));
                    }
                }
            }
            let (i, j, m) = best.unwrap();
            let absorbed = self.groups.remove(j);
            host = Some(i);
            let record = MergeRecord {
                at_message: self.applied,
                into_group: self.groups[i].id,
                absorbed_group: absorbed.id,
                members_moved: absorbed.len(),
            };
            self.merges.push((record, m.to_bits()));
            for member in absorbed.members() {
                self.groups[i].push(member.clone());
            }
        }
    }
}

/// Keeps the `Merge` events a coordinator journals, and sums what it
/// counts in `coord.pairs_scored`.
#[derive(Default)]
struct MergeEvents(Mutex<Vec<((u64, u64), u64)>>, AtomicU64);

impl Recorder for MergeEvents {
    fn counter(&self, counter: Counter, delta: u64) {
        if counter == COORD_PAIRS_SCORED {
            self.1.fetch_add(delta, Ordering::Relaxed);
        }
    }

    fn event(&self, event: &Event) {
        if let Event::Merge { groups, mahalanobis } = event {
            self.0.lock().unwrap().push((*groups, mahalanobis.to_bits()));
        }
    }
}

/// Applies `messages` to a coordinator under `config` and to its
/// [`RescanTwin`], and asserts after each that both placed every component
/// in the same group, made the same merges with the same `M_merge` bits,
/// and hold the same groups in the same order with the same aggregates.
/// Returns the most merges one message made.
fn against_the_rescan(
    config: CoordinatorConfig,
    messages: impl IntoIterator<Item = Message>,
    tally: &mut PruneTally,
) -> usize {
    let mut twin = RescanTwin::new(&config);
    let events = Arc::new(MergeEvents::default());
    let mut running = Coordinator::new(config).unwrap();
    running.set_observer(Obs::new(Arc::clone(&events) as Arc<dyn Recorder + Send + Sync>));
    let mut deepest = 0;
    for (at, message) in messages.into_iter().enumerate() {
        let merges_before = running.merge_log().len();
        running.apply(&message).unwrap();
        twin.apply(&message);
        deepest = deepest.max(running.merge_log().len() - merges_before);

        let log: Vec<MergeRecord> = twin.merges.iter().map(|&(r, _)| r).collect();
        assert_eq!(running.merge_log(), &log[..], "message {at}: merge log");
        let journaled: Vec<((u64, u64), u64)> = twin
            .merges
            .iter()
            .map(|&(r, bits)| ((r.into_group, r.absorbed_group), bits))
            .collect();
        assert_eq!(*events.0.lock().unwrap(), journaled, "message {at}: Merge events");
        assert_eq!(running.group_count(), twin.groups.len(), "message {at}: group count");
        for (r, t) in running.groups().iter().zip(&twin.groups) {
            assert_eq!(r.id, t.id, "message {at}: group ids");
            assert_eq!(keys(r), keys(t), "message {at}: members of group {}", r.id);
            assert_eq!(r.aggregate().mean().as_slice(), t.aggregate().mean().as_slice());
            assert_eq!(r.aggregate().cov().as_slice(), t.aggregate().cov().as_slice());
        }
    }
    let PruneTally { placed_pruned, placed_fallback, table_pairs, table_fallback, .. } = twin.tally;
    tally.placed_pruned += placed_pruned;
    tally.placed_fallback += placed_fallback;
    tally.table_pairs += table_pairs;
    tally.table_fallback += table_fallback;
    tally.pairs_scored += events.1.load(Ordering::Relaxed);
    deepest
}

/// The score table and the caps of `Coordinator::consolidate`, and the
/// bounds of its placement, against the full re-scan they replaced. Debug
/// builds assert every merge pick inside the coordinator; this holds in
/// release builds too, and only where it is not vacuous: five far-apart
/// components per message force several merges per call, so the host's
/// row and column are re-scored and rows are dropped between picks.
#[test]
fn consolidation_with_a_score_table_picks_what_the_full_rescan_picks() {
    let deepest = Cell::new(0);
    let tally = RefCell::new(PruneTally::default());
    check::cases("coordinator_consolidation_score_table", 12, |rng| {
        for max_groups in [2, 4, 8] {
            for refine_merges in [false, true] {
                let config = CoordinatorConfig {
                    max_groups,
                    refine_merges,
                    refiner: MergeRefiner { samples: 16, max_evals: 30, seed: 3 },
                    ..CoordinatorConfig::default()
                };
                let messages: Vec<Message> = (0..10u64)
                    .map(|model| {
                        let components = (0..5)
                            .map(|_| {
                                let mean: Vec<f64> =
                                    (0..DIM).map(|_| rng.gen_range(-400.0..400.0)).collect();
                                let vars: Vec<f64> =
                                    (0..DIM).map(|_| rng.gen_range(0.4..2.5)).collect();
                                Gaussian::diagonal(Vector::from_slice(&mean), &vars).unwrap()
                            })
                            .collect();
                        Message::NewModel {
                            site: rng.gen_range(0..6u32),
                            model: ModelId(model),
                            count: rng.gen_range(50..5_000u64),
                            avg_ll: -1.0,
                            mixture: Mixture::new(
                                components,
                                (0..5).map(|_| rng.gen_range(0.2..1.0)).collect(),
                            )
                            .unwrap(),
                        }
                    })
                    .collect();
                let merged = against_the_rescan(config, messages, &mut tally.borrow_mut());
                deepest.set(deepest.get().max(merged));
            }
        }
    });
    assert!(deepest.get() >= 3, "no call merged three times: deepest {}", deepest.get());
    let tally = tally.into_inner();
    assert!(tally.placed_pruned > 0 && tally.pairs_scored < tally.table_pairs, "{tally:?}");
}

/// A random rotation of dimension `d`: `2d` Givens rotations of the
/// identity.
fn rotation(rng: &mut StdRng, d: usize) -> Vec<f64> {
    let mut q: Vec<f64> = (0..d * d).map(|at| f64::from(u8::from(at % (d + 1) == 0))).collect();
    for _ in 0..2 * d {
        let (i, j) = (rng.gen_range(0..d), rng.gen_range(0..d));
        if i == j {
            continue;
        }
        let (s, c) = rng.gen_range(0.0..std::f64::consts::TAU).sin_cos();
        for k in 0..d {
            let (a, b) = (q[k * d + i], q[k * d + j]);
            q[k * d + i] = c * a - s * b;
            q[k * d + j] = s * a + c * b;
        }
    }
    q
}

/// A component of a hostile script in `d` dimensions at `scale`: a full
/// covariance `scale²·QΛQᵀ` under a random rotation `Q`, its eigenvalues
/// spread over a condition number of 1 to 1e14, and its mean one of
/// `anchors` exactly (coincident with other components) or anywhere within
/// ±100·scale.
fn hostile_component(rng: &mut StdRng, d: usize, scale: f64, anchors: &[Vec<f64>]) -> Gaussian {
    let log_kappa = rng.gen_range(0.0..14.0);
    let top = rng.gen_range(0.4..2.5);
    let lambda: Vec<f64> = (0..d)
        .map(|i| match i {
            0 => top,
            _ if i == d - 1 => top * 10f64.powf(-log_kappa),
            _ => top * 10f64.powf(-rng.gen_range(0.0..log_kappa)),
        })
        .collect();
    let q = rotation(rng, d);
    let cov: Vec<f64> = (0..d * d)
        .map(|at| {
            let (r, c) = (at / d, at % d);
            (0..d).map(|k| q[r * d + k] * lambda[k] * q[c * d + k]).sum::<f64>() * scale * scale
        })
        .collect();
    let mean: Vec<f64> = if rng.gen_bool(0.3) {
        anchors[rng.gen_range(0..anchors.len())].clone()
    } else {
        (0..d).map(|_| rng.gen_range(-100.0..100.0) * scale).collect()
    };
    Gaussian::new(Vector::from_slice(&mean), Matrix::from_vec(d, d, cov)).unwrap()
}

/// The same against scripts built to defeat the bounds: rotated full
/// covariances up to κ = 1e14 (about half of them past the certificate,
/// so both sides of every rule run), means that coincide exactly, and
/// scales of 1e-150 and 1e150 where `‖L‖²_F` and `‖L⁻¹‖²_F` sit near the
/// ends of the exponent range. Then scripts on a knife edge: in one
/// dimension the bound is tight, and the join limit is set to the very
/// distance the second component has to the first one's group, where a
/// bound without its slack can exceed that distance by a rounding and
/// would turn a join into a new group.
#[test]
fn pruned_placement_and_consolidation_pick_what_the_full_rescan_picks_on_hostile_scripts() {
    let tally = RefCell::new(PruneTally::default());
    check::cases("coordinator_pruning_hostile", 8, |rng| {
        for d in [2, 4] {
            for scale in [1e-150, 1.0, 1e150] {
                for max_groups in [2, 4, 8] {
                    let anchors: Vec<Vec<f64>> = (0..3)
                        .map(|_| (0..d).map(|_| rng.gen_range(-100.0..100.0) * scale).collect())
                        .collect();
                    let messages: Vec<Message> = (0..10u64)
                        .map(|model| {
                            let k = rng.gen_range(1..=5usize);
                            let components =
                                (0..k).map(|_| hostile_component(rng, d, scale, &anchors)).collect();
                            // Small counts: at 1e150 a group's second
                            // moment stays below f64::MAX.
                            Message::NewModel {
                                site: rng.gen_range(0..6u32),
                                model: ModelId(model),
                                count: rng.gen_range(50..150u64),
                                avg_ll: -1.0,
                                mixture: Mixture::new(
                                    components,
                                    (0..k).map(|_| rng.gen_range(0.2..1.0)).collect(),
                                )
                                .unwrap(),
                            }
                        })
                        .collect();
                    let config = CoordinatorConfig { max_groups, ..CoordinatorConfig::default() };
                    against_the_rescan(config, messages, &mut tally.borrow_mut());
                }
            }
        }
    });
    let tally = tally.into_inner();
    assert!(
        tally.placed_pruned > 0
            && tally.placed_fallback > 0
            && tally.pairs_scored < tally.table_pairs
            && tally.table_fallback > 0,
        "{tally:?}"
    );

    let joined = Cell::new(0);
    check::cases("coordinator_pruning_knife_edge", 16, |rng| {
        let one = |rng: &mut StdRng| {
            let (mean, var) = (rng.gen_range(-50.0..50.0), rng.gen_range(0.1..10.0));
            Mixture::new(vec![Gaussian::spherical(Vector::from_slice(&[mean]), var).unwrap()], vec![1.0])
                .unwrap()
        };
        let born = |site: u32, mixture: Mixture| Message::NewModel {
            site,
            model: ModelId(0),
            count: 100,
            avg_ll: -1.0,
            mixture,
        };
        let first = born(0, one(rng));
        let mut probe = Coordinator::new(CoordinatorConfig::default()).unwrap();
        probe.apply(&first).unwrap();
        let group = probe.groups()[0].aggregate().clone();
        // A second component whose bound, before the slack, exceeds its
        // distance to the group.
        let second = loop {
            let mixture = one(rng);
            let g = &mixture.components()[0];
            let l_sq = |g: &Gaussian| g.chol().l()[(0, 0)] * g.chol().l()[(0, 0)];
            let diff = g.mean()[0] - group.mean()[0];
            let unslacked = diff * diff * (1.0 / l_sq(g) + 1.0 / l_sq(&group));
            let dist = m_split(g, &group);
            if dist > 1e-6 && unslacked > dist {
                break mixture;
            }
        };
        let join_distance = m_split(&second.components()[0], &group);
        let config = CoordinatorConfig { join_distance, ..CoordinatorConfig::default() };
        against_the_rescan(config.clone(), [first.clone(), born(1, second.clone())], &mut PruneTally::default());
        let mut c = Coordinator::new(config).unwrap();
        c.apply(&first).unwrap();
        c.apply(&born(1, second)).unwrap();
        joined.set(joined.get() + usize::from(c.group_count() == 1));
    });
    if std::env::var(check::SEED_ENV).is_err() {
        assert_eq!(joined.get(), 16, "the second component joins at exactly the limit");
    }
}

/// Keeps the groups a `Split`, `ReMerge` or `Merge` event names as changed
/// (the group that lost members, the one a split member joined, the host
/// of a merge), and counts the splits.
#[derive(Default)]
struct MembershipEvents(Mutex<(HashSet<u64>, u64)>);

impl Recorder for MembershipEvents {
    fn event(&self, event: &Event) {
        let mut seen = self.0.lock().unwrap();
        match event {
            Event::Split { group, .. } => {
                seen.0.insert(*group);
                seen.1 += 1;
            }
            Event::ReMerge { group } => {
                seen.0.insert(*group);
            }
            Event::Merge { groups, .. } => {
                seen.0.insert(groups.0);
            }
            _ => {}
        }
    }
}

/// The capture as it was before groups kept their lineage: every member of
/// every group walked, on every publish.
fn walked_capture(c: &Coordinator, version: u64) -> ModelSnapshot {
    let groups = c
        .groups()
        .iter()
        .map(|g| SnapshotGroup {
            id: g.id,
            weight: g.weight(),
            members: g
                .members()
                .map(|m| SnapshotMember {
                    site: m.key.site,
                    model: m.key.model,
                    component: m.key.component as u32,
                })
                .collect::<Vec<_>>()
                .into(),
        })
        .collect();
    ModelSnapshot {
        version,
        messages_applied: c.messages_applied(),
        covariance: c.covariance(),
        mixture: c.global_mixture().unwrap(),
        groups,
    }
}

/// Ids of the groups of `snapshot` that hold a component of `(site, model)`.
fn holding(snapshot: &ModelSnapshot, site: u32, model: ModelId) -> HashSet<u64> {
    snapshot
        .groups
        .iter()
        .filter(|g| g.members.iter().any(|m| m.site == site && m.model == model))
        .map(|g| g.id)
        .collect()
}

/// What the lineage scripts went through, summed over every case.
#[derive(Default, Debug)]
struct LineageTally {
    replaces: u64,
    deletes_to_zero: u64,
    splits: u64,
    merges: u64,
    /// `WeightUpdate`s after which every group shared its members.
    weight_updates_shared: u64,
    fresh: u64,
    shared: u64,
}

#[test]
fn the_shared_lineage_equals_a_fresh_walk_after_every_message() {
    let tally = Mutex::new(LineageTally::default());
    check::cases("snapshot_lineage_shared", 12, |rng| {
        for max_groups in [1, 2, 8] {
            for refine_merges in [false, true] {
                let config = CoordinatorConfig {
                    max_groups,
                    refine_merges,
                    refiner: MergeRefiner { samples: 16, max_evals: 30, seed: 3 },
                    ..CoordinatorConfig::default()
                };
                let events = Arc::new(MembershipEvents::default());
                let mut c = Coordinator::new(config).unwrap();
                c.set_observer(Obs::new(Arc::clone(&events) as Arc<dyn Recorder + Send + Sync>));
                let handle = SnapshotHandle::new();
                let mut script = Script { live: Vec::new(), next_model: 0 };
                let mut previous: Option<Arc<ModelSnapshot>> = None;
                let mut held: Vec<(Arc<ModelSnapshot>, Vec<u8>)> = Vec::new();
                let mut t = tally.lock().unwrap();
                for step in 0..120 {
                    let message = script.any(rng);
                    let (site, model) = match &message {
                        Message::NewModel { site, model, .. }
                        | Message::WeightUpdate { site, model, .. }
                        | Message::Delete { site, model, .. } => (*site, *model),
                    };
                    let before = previous.as_ref().map(|p| holding(p, site, model));
                    let merges_before = c.merge_log().len();
                    c.apply(&message).unwrap();
                    t.merges += (c.merge_log().len() - merges_before) as u64;
                    if c.group_count() == 0 {
                        // Everything deleted: nothing to publish, and the
                        // groups that come next have ids never seen.
                        assert!(handle.publish_from(&c).is_err());
                        events.0.lock().unwrap().0.clear();
                        continue;
                    }
                    let version = handle.publish_from(&c).unwrap();
                    let snapshot = handle.load().unwrap();

                    // The published snapshot is the walked one, byte for byte.
                    let reference = walked_capture(&c, version);
                    assert_eq!(
                        snapshot.encode().as_slice(),
                        reference.encode().as_slice(),
                        "step {step}: encoded snapshot"
                    );
                    assert_eq!(snapshot.groups.len(), reference.groups.len());
                    for (s, r) in snapshot.groups.iter().zip(&reference.groups) {
                        assert_eq!(s.id, r.id, "step {step}: group ids");
                        assert_eq!(s.weight.to_bits(), r.weight.to_bits(), "step {step}: weights");
                        assert_eq!(s.members, r.members, "step {step}: members of group {}", s.id);
                    }

                    // Which groups the message changed the membership of.
                    let (mut changed, splits) = std::mem::take(&mut *events.0.lock().unwrap());
                    t.splits += splits;
                    let after = holding(&snapshot, site, model);
                    let before = before.unwrap_or_default();
                    match message {
                        Message::NewModel { .. } => {
                            t.replaces += u64::from(!before.is_empty());
                            changed.extend(&before);
                            changed.extend(&after);
                        }
                        Message::Delete { .. } if after.is_empty() && !before.is_empty() => {
                            t.deletes_to_zero += 1;
                            changed.extend(&before);
                        }
                        _ => {}
                    }

                    // Shared exactly where the membership stayed.
                    if let Some(prev) = &previous {
                        let mut all_shared = true;
                        for g in &snapshot.groups {
                            let Some(p) = prev.groups.iter().find(|p| p.id == g.id) else {
                                continue;
                            };
                            let shared = p.members.ptr_eq(&g.members);
                            assert_eq!(
                                shared,
                                !changed.contains(&g.id),
                                "step {step}: group {} after {message:?}",
                                g.id
                            );
                            all_shared &= shared;
                            if shared {
                                t.shared += 1;
                            } else {
                                t.fresh += 1;
                            }
                        }
                        if matches!(message, Message::WeightUpdate { .. }) && all_shared {
                            t.weight_updates_shared += 1;
                        }
                    }
                    held.push((Arc::clone(&snapshot), snapshot.encode().as_slice().to_vec()));
                    previous = Some(snapshot);
                }
                // A snapshot held across later publishes is what it was.
                for (snapshot, bytes) in &held {
                    assert_eq!(snapshot.encode().as_slice(), &bytes[..], "v{}", snapshot.version);
                }
            }
        }
    });
    let t = tally.into_inner().unwrap();
    assert!(
        t.replaces > 0
            && t.deletes_to_zero > 0
            && t.splits > 0
            && t.merges > 0
            && t.weight_updates_shared > 0
            && t.fresh > 0
            && t.shared > 0,
        "a kind of change never happened: {t:?}"
    );

    // One group of several chunks, changed at the chunk edges. Member `s`
    // is the one-component model of site `s`, the `s`-th to join.
    let mut g = OneGroup::new(200);
    g.publish(); // chunks [0, 64) [64, 128) [128, 192), tail [192, 200)
    g.remove(&[64]); // a sealed chunk's first member
    g.publish();
    g.remove(&[127]); // its last member
    g.publish();
    g.remove(&(128..192).collect::<Vec<_>>()); // every member of a chunk
    g.publish();
    g.join(3); // members that joined since the last publish, removed again
    g.remove(&[200, 201, 202]);
    g.publish();
    g.join(5); // several joins and removals, sealing a chunk on the way
    g.remove(&[0, 199, 204]);
    g.join(70);
    g.remove(&[63, 65, 193, 275]);
    g.publish();
    g.join(1); // a join alone: a new tail, every sealed chunk shared
    g.publish();
    g.remove(&[278]); // a removal from the tail alone
    g.publish();
    g.hold_check();

    // Churn: 10 000 joins and removals, one to four between two publishes;
    // `Group::lineage` asserts the chunk-count bound at every build (debug
    // builds).
    let mut rng = StdRng::seed_from_u64(29);
    let mut g = OneGroup::new(300);
    let mut ops = 0;
    while ops < 10_000 {
        for _ in 0..rng.gen_range(1..=4) {
            if g.live.len() > 150 && rng.gen_bool(0.5) {
                let at = rng.gen_range(0..g.live.len());
                g.remove(&[g.live[at]]);
            } else {
                g.join(1);
            }
            ops += 1;
        }
        g.publish();
    }
    g.hold_check();
}

/// Copies of a one-component model at the origin: every one joins the
/// group the first founded.
const ONE_GROUP_COUNT: u64 = 100;

/// One coordinator group grown by scripted joins and removals, published
/// on demand against the member walk.
struct OneGroup {
    c: Coordinator,
    handle: SnapshotHandle,
    /// Live members by site, in join order.
    live: Vec<u32>,
    next_site: u32,
    /// Every publish with the members it had.
    published: Vec<(Arc<ModelSnapshot>, Vec<u32>)>,
}

impl OneGroup {
    fn new(members: u32) -> Self {
        let mut g = OneGroup {
            c: Coordinator::new(CoordinatorConfig::default()).unwrap(),
            handle: SnapshotHandle::new(),
            live: Vec::new(),
            next_site: 0,
            published: Vec::new(),
        };
        g.join(members);
        g
    }

    fn join(&mut self, n: u32) {
        for _ in 0..n {
            let mixture =
                Mixture::uniform(vec![Gaussian::spherical(Vector::zeros(DIM), 1.0).unwrap()])
                    .unwrap();
            let site = self.next_site;
            self.next_site += 1;
            let message = Message::NewModel {
                site,
                model: ModelId(0),
                count: ONE_GROUP_COUNT,
                avg_ll: -1.0,
                mixture,
            };
            self.c.apply(&message).unwrap();
            self.live.push(site);
        }
        assert_eq!(self.c.group_count(), 1);
    }

    fn remove(&mut self, sites: &[u32]) {
        for &site in sites {
            let at = self.live.iter().position(|&s| s == site).expect("a live member");
            self.live.remove(at);
            let message =
                Message::Delete { site, model: ModelId(0), count_delta: ONE_GROUP_COUNT };
            self.c.apply(&message).unwrap();
        }
        assert_eq!(self.c.component_count(), self.live.len());
    }

    /// Publishes: the snapshot is the walked one, byte for byte, and its
    /// lineage is shared with the last publish's exactly when the members
    /// are the same.
    fn publish(&mut self) {
        let version = self.handle.publish_from(&self.c).unwrap();
        let snapshot = self.handle.load().unwrap();
        let reference = walked_capture(&self.c, version);
        let step = self.published.len();
        assert_eq!(snapshot.encode().as_slice(), reference.encode().as_slice(), "publish {step}");
        let members = &snapshot.groups[0].members;
        assert_eq!(*members, reference.groups[0].members, "publish {step}");
        let sites: Vec<u32> = members.iter().map(|m| m.site).collect();
        assert_eq!(sites, self.live, "publish {step}");
        if let Some((previous, live)) = self.published.last() {
            let shared = previous.groups[0].members.ptr_eq(members);
            assert_eq!(shared, *live == self.live, "publish {step}");
        }
        self.published.push((snapshot, self.live.clone()));
    }

    /// Every snapshot held across the later publishes is what it was.
    fn hold_check(&self) {
        for (snapshot, live) in &self.published {
            let sites: Vec<u32> = snapshot.groups[0].members.iter().map(|m| m.site).collect();
            assert_eq!(sites, *live, "v{}", snapshot.version);
        }
    }
}
