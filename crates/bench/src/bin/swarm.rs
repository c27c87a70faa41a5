//! Swarm benchmark: what the aggregator tier buys at fleet scale.
//!
//! ```text
//! swarm                            # 1k / 10k / 100k simulated sites
//! swarm --scales 1000,10000        # specific scales
//! swarm --json BENCH_PR14.json     # also write machine-readable results
//! ```
//!
//! For each scale the harness synthesizes two rounds of site traffic —
//! one `NewModel` synopsis per site (four well-separated 1-d regions,
//! per-site jitter), then one follow-up per site (`WeightUpdate`, partial
//! `Delete` or `Delete` to zero) — and pushes them through the real
//! engines twice:
//!
//! - **star** — every site message goes straight into one root
//!   [`Coordinator`], the way a flat deployment works today;
//! - **tree** — the messages fan into a fixed set of
//!   [`AggregatorEngine`] shards (the same count at every scale), each
//!   shard pre-merges its children with `M_merge`/`M_split` and forwards
//!   one reduced update per round, and only those reach the root.
//!
//! Three numbers per topology: root CPU time spent applying messages,
//! bytes arriving at the root (encoded synopsis payloads), and the peak
//! root event-table size (registry rows + retained merge log). The
//! binary is self-gating: it exits non-zero unless the tree cuts
//! bytes-at-root at least [`BYTES_REDUCTION_MIN`]× at every scale, the
//! tree root's event table stays flat in site count, the tree's
//! held-out average log-likelihood stays within [`LL_TOLERANCE`] of the
//! star's, and the star root's apply time grows no faster than
//! [`LINEARITY_SLACK`]× the site count between the two smallest scales.

use cludistream::{
    AggregatorConfig, AggregatorEngine, Coordinator, CoordinatorConfig, Message, ModelId,
};
use cludistream_gmm::{CovarianceType, Gaussian, Mixture};
use cludistream_linalg::Vector;
use cludistream_obs::{json_f64, Obs};
use cludistream_rng::{Rng, StdRng};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

/// Fixed aggregator count across every scale — holding the fan-in tier
/// constant is what makes "root state is flat in site count" testable.
const AGGREGATORS: usize = 100;

/// The tree must cut bytes-at-root by at least this factor once the
/// fan-in is deep enough for the tier to pay for its reduced updates
/// (the PR's acceptance floor is 5× at 10k sites = fan-in 100). At
/// shallower fan-ins the tree must still strictly win.
const BYTES_REDUCTION_MIN: f64 = 5.0;

/// Fan-in (sites per aggregator) from which [`BYTES_REDUCTION_MIN`]
/// applies; below it, any reduction > 1× passes.
const DEEP_FAN_IN: usize = 100;

/// Held-out average log-likelihood of the tree's global mixture must be
/// within this of the star's.
const LL_TOLERANCE: f64 = 0.5;

/// The tree root's peak event table may grow at most this factor from
/// the smallest to the largest scale (flat up to merge-log noise).
const FLATNESS_MAX_RATIO: f64 = 2.0;

/// Star root apply time may grow at most this factor faster than the
/// site count between the two smallest scales (25× from 1k to 10k sites):
/// a root whose per-message cost is flat reads about 1×, one that walks
/// its members per message about 8×.
const LINEARITY_SLACK: f64 = 2.5;

/// Each topology is driven this many times per scale and the run with the
/// least root apply time is reported: everything but the timings repeats
/// exactly, and the linearity gate compares two timings of a few
/// milliseconds taken on a shared machine.
const REPEATS: usize = 3;

/// Centers of the four true regions the synthetic fleet observes.
const REGIONS: [f64; 4] = [0.0, 40.0, 80.0, 120.0];

/// Records each synthetic site claims behind its synopsis.
const RECORDS_PER_SITE: u64 = 100;

/// The root's coordinator, and each shard's (whose merge log its engine
/// caps at `SHARD_MERGE_LOG_CAP`): one group per region.
fn coordinator_config() -> CoordinatorConfig {
    CoordinatorConfig { max_groups: REGIONS.len(), ..CoordinatorConfig::default() }
}

/// One `NewModel` synopsis per site: a single spherical component near
/// the site's region center, jittered per site so no two synopses are
/// identical.
fn site_messages(sites: usize, seed: u64) -> Vec<Message> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..sites)
        .map(|i| {
            let center = REGIONS[i % REGIONS.len()];
            let mean = center + (rng.next_f64() - 0.5);
            let var = 0.9 + 0.2 * rng.next_f64();
            let g = Gaussian::spherical(Vector::from_slice(&[mean]), var)
                .expect("positive variance");
            Message::NewModel {
                site: i as u32,
                model: ModelId(0),
                count: RECORDS_PER_SITE,
                avg_ll: -1.5,
                mixture: Mixture::new(vec![g], vec![1.0]).expect("valid mixture"),
            }
        })
        .collect()
}

/// The follow-up round, one message per site, so that apply time covers
/// all three message kinds: of every five sites three grow
/// (`WeightUpdate`), one shrinks (partial `Delete`) and one retires its
/// model (`Delete` to zero). Five is coprime to the region count, so every
/// region keeps its share of each.
fn follow_up(sites: usize) -> Vec<Message> {
    (0..sites)
        .map(|i| {
            let (site, model) = (i as u32, ModelId(0));
            match i % 5 {
                0..=2 => Message::WeightUpdate { site, model, count_delta: RECORDS_PER_SITE / 2 },
                3 => Message::Delete { site, model, count_delta: RECORDS_PER_SITE / 4 },
                _ => Message::Delete { site, model, count_delta: RECORDS_PER_SITE },
            }
        })
        .collect()
}

/// Held-out records drawn from the *true* regions (not the per-site
/// jittered models), for the star-vs-tree quality comparison.
fn held_out(seed: u64) -> Vec<Vector> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = Vec::with_capacity(REGIONS.len() * 250);
    for &center in &REGIONS {
        let g = Gaussian::spherical(Vector::from_slice(&[center]), 1.0)
            .expect("positive variance");
        for _ in 0..250 {
            records.push(g.sample(&mut rng));
        }
    }
    records
}

/// What reached the root under one topology.
struct RootSide {
    /// Wall time the root spent applying its ingress, nanoseconds.
    root_apply_ns: u64,
    /// Encoded synopsis bytes arriving at the root.
    bytes_at_root: u64,
    /// Messages arriving at the root.
    messages_at_root: u64,
    /// Peak root event-table size (registry rows + retained merge log).
    peak_root_entries: usize,
    /// Final root group count.
    groups: usize,
    /// Held-out average log-likelihood of the root's global mixture.
    avg_ll: f64,
    /// Tree only: total shard CPU spent pre-merging below the root.
    shard_apply_ns: Option<u64>,
}

/// Applies `messages` to a fresh root coordinator, sampling the event
/// table as it grows.
fn drive_root(messages: &[Message], holdout: &[Vector]) -> RootSide {
    let mut root = Coordinator::new(coordinator_config()).expect("valid root config");
    let mut peak = root.event_table_entries();
    let start = Instant::now();
    for (i, m) in messages.iter().enumerate() {
        root.apply(m).expect("valid synopsis");
        if i % 128 == 0 {
            peak = peak.max(root.event_table_entries());
        }
    }
    let root_apply_ns = start.elapsed().as_nanos() as u64;
    peak = peak.max(root.event_table_entries());
    let global = root.global_mixture().expect("root learned a model");
    RootSide {
        root_apply_ns,
        bytes_at_root: messages
            .iter()
            .map(|m| m.encode(CovarianceType::Full).len() as u64)
            .sum(),
        messages_at_root: messages.len() as u64,
        peak_root_entries: peak,
        groups: root.group_count(),
        avg_ll: global.avg_log_likelihood(holdout),
        shard_apply_ns: None,
    }
}

/// Star: every site message hits the root directly, round by round.
fn run_star(rounds: &[Vec<Message>], holdout: &[Vector]) -> RootSide {
    drive_root(&rounds.concat(), holdout)
}

/// Tree: each round's messages fan into [`AGGREGATORS`] shards over even
/// contiguous child ranges; each shard forwards one reduced update per
/// round; only those reach the root.
fn run_tree(rounds: &[Vec<Message>], holdout: &[Vector]) -> RootSide {
    let sites = rounds[0].len();
    let range = |a: usize| a * sites / AGGREGATORS..(a + 1) * sites / AGGREGATORS;
    let mut shards: Vec<AggregatorEngine> = (0..AGGREGATORS)
        .filter(|&a| !range(a).is_empty())
        .map(|a| {
            AggregatorEngine::new(
                AggregatorConfig {
                    index: a as u32,
                    child_base: range(a).start as u32,
                    children: range(a).len(),
                    coordinator: coordinator_config(),
                },
                Obs::noop(),
            )
            .expect("valid aggregator config")
        })
        .collect();
    let mut reduced = Vec::with_capacity(rounds.len() * shards.len());
    let mut shard_ns = 0u64;
    for messages in rounds {
        for agg in &mut shards {
            let start = Instant::now();
            for m in &messages[range(agg.index() as usize)] {
                agg.apply(m);
            }
            let flush = agg.flush();
            shard_ns += start.elapsed().as_nanos() as u64;
            reduced.push(flush.expect("a fed shard's summary changed"));
        }
    }
    let mut side = drive_root(&reduced, holdout);
    side.shard_apply_ns = Some(shard_ns);
    side
}

/// The run with the least root apply time out of [`REPEATS`].
fn best_of(run: impl Fn() -> RootSide) -> RootSide {
    (0..REPEATS).map(|_| run()).min_by_key(|side| side.root_apply_ns).expect("REPEATS > 0")
}

struct ScaleResult {
    sites: usize,
    star: RootSide,
    tree: RootSide,
}

impl ScaleResult {
    fn bytes_reduction(&self) -> f64 {
        self.star.bytes_at_root as f64 / (self.tree.bytes_at_root.max(1)) as f64
    }

    fn cpu_reduction(&self) -> f64 {
        self.star.root_apply_ns as f64 / (self.tree.root_apply_ns.max(1)) as f64
    }
}

fn side_json(side: &RootSide) -> String {
    let mut s = format!(
        "{{\"root_apply_ns\":{},\"bytes_at_root\":{},\"messages_at_root\":{},\
         \"peak_root_event_table_entries\":{},\"groups\":{},\"avg_ll\":{}",
        side.root_apply_ns,
        side.bytes_at_root,
        side.messages_at_root,
        side.peak_root_entries,
        side.groups,
        json_f64(side.avg_ll)
    );
    if let Some(ns) = side.shard_apply_ns {
        s.push_str(&format!(",\"shard_apply_ns_total\":{ns}"));
    }
    s.push('}');
    s
}

fn to_json(results: &[ScaleResult]) -> String {
    let mut s = format!(
        "{{\n\"bench\":\"swarm\",\"aggregators\":{AGGREGATORS},\
         \"records_per_site\":{RECORDS_PER_SITE},\"scales\":[\n"
    );
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"sites\":{},\"star\":{},\"tree\":{},\"bytes_reduction_x\":{},\
             \"root_cpu_reduction_x\":{}}}",
            r.sites,
            side_json(&r.star),
            side_json(&r.tree),
            json_f64(r.bytes_reduction()),
            json_f64(r.cpu_reduction())
        ));
        if i + 1 < results.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("]}\n");
    s
}

/// The acceptance gates, printed as they are checked. Returns false when
/// any fails.
fn gates(results: &[ScaleResult]) -> bool {
    let mut ok = true;
    for r in results {
        let bx = r.bytes_reduction();
        let need = if r.sites / AGGREGATORS >= DEEP_FAN_IN { BYTES_REDUCTION_MIN } else { 1.0 };
        let pass = bx > need || (bx >= need && need > 1.0);
        println!(
            "gate bytes@{}: star {} B -> tree {} B = {bx:.1}x (need {} {need}x) {}",
            r.sites,
            r.star.bytes_at_root,
            r.tree.bytes_at_root,
            if need > 1.0 { ">=" } else { ">" },
            if pass { "ok" } else { "FAIL" }
        );
        ok &= pass;

        let dll = (r.star.avg_ll - r.tree.avg_ll).abs();
        let pass = dll <= LL_TOLERANCE;
        println!(
            "gate quality@{}: star avg_ll {:.4} vs tree {:.4}, |delta| {dll:.4} \
             (need <= {LL_TOLERANCE}) {}",
            r.sites,
            r.star.avg_ll,
            r.tree.avg_ll,
            if pass { "ok" } else { "FAIL" }
        );
        ok &= pass;
    }
    if let (Some(first), Some(last)) = (results.first(), results.last()) {
        let ratio = last.tree.peak_root_entries as f64 / first.tree.peak_root_entries.max(1) as f64;
        let pass = ratio <= FLATNESS_MAX_RATIO;
        println!(
            "gate flatness: tree root peak entries {} @ {} sites vs {} @ {} sites, \
             ratio {ratio:.2} (need <= {FLATNESS_MAX_RATIO}) {}",
            last.tree.peak_root_entries,
            last.sites,
            first.tree.peak_root_entries,
            first.sites,
            if pass { "ok" } else { "FAIL" }
        );
        ok &= pass;
        if let Some(next) = results.get(1) {
            let ratio = next.star.root_apply_ns as f64 / first.star.root_apply_ns.max(1) as f64;
            let need = LINEARITY_SLACK * next.sites as f64 / first.sites as f64;
            let pass = ratio <= need;
            println!(
                "gate linearity: star root apply {:.3} ms @ {} sites vs {:.3} ms @ {} sites, \
                 ratio {ratio:.1} (need <= {need}) {}",
                next.star.root_apply_ns as f64 / 1e6,
                next.sites,
                first.star.root_apply_ns as f64 / 1e6,
                first.sites,
                if pass { "ok" } else { "FAIL" }
            );
            ok &= pass;
        }
        let pass = last.tree.peak_root_entries < last.star.peak_root_entries;
        println!(
            "gate sharding: tree root peak entries {} < star {} @ {} sites {}",
            last.tree.peak_root_entries,
            last.star.peak_root_entries,
            last.sites,
            if pass { "ok" } else { "FAIL" }
        );
        ok &= pass;
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut scales: Vec<usize> = vec![1_000, 10_000, 100_000];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => {
                    eprintln!("--json expects an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--scales" => match it.next().map(|s| {
                s.split(',').map(|p| p.parse::<usize>()).collect::<Result<Vec<_>, _>>()
            }) {
                Some(Ok(parsed)) if !parsed.is_empty() && parsed.iter().all(|&s| s > 0) => {
                    scales = parsed;
                }
                _ => {
                    eprintln!("--scales expects a comma-separated list of positive integers");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: swarm [--scales N,N,...] [--json PATH]");
                return ExitCode::FAILURE;
            }
        }
    }

    let holdout = held_out(99);
    let mut results = Vec::new();
    for &sites in &scales {
        let rounds = [site_messages(sites, sites as u64), follow_up(sites)];
        let star = best_of(|| run_star(&rounds, &holdout));
        let tree = best_of(|| run_tree(&rounds, &holdout));
        println!("######## {sites} sites, {AGGREGATORS} aggregators ########");
        println!(
            "star: root apply {:.3} ms | {} msgs {} B at root | peak entries {} | \
             groups {} | avg_ll {:.4}",
            star.root_apply_ns as f64 / 1e6,
            star.messages_at_root,
            star.bytes_at_root,
            star.peak_root_entries,
            star.groups,
            star.avg_ll
        );
        println!(
            "tree: root apply {:.3} ms (+ shards {:.3} ms) | {} msgs {} B at root | \
             peak entries {} | groups {} | avg_ll {:.4}",
            tree.root_apply_ns as f64 / 1e6,
            tree.shard_apply_ns.unwrap_or(0) as f64 / 1e6,
            tree.messages_at_root,
            tree.bytes_at_root,
            tree.peak_root_entries,
            tree.groups,
            tree.avg_ll
        );
        results.push(ScaleResult { sites, star, tree });
    }

    let ok = gates(&results);
    if let Some(path) = json_path {
        let json = to_json(&results);
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
            Ok(()) => println!("json results written to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
