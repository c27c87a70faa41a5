//! Mining queries at the coordinator: dense regions, soft membership, and
//! anomaly checks over the union of all streams — the "user mining
//! request" surface of the paper's problem statement, including the
//! motivating "80% probability of attack" style of answer. Every answer
//! is read off one `ModelSnapshot` of the coordinator: its global mixture
//! (one component per dense region) and its per-region group metadata.
//!
//! ```text
//! cargo run --release --example coordinator_queries
//! ```

use cludistream::{Config, Coordinator, CoordinatorConfig, Message, ModelSnapshot, RemoteSite};
use cludistream_gmm::{ChunkParams, Gaussian, Mixture};
use cludistream_linalg::Vector;
use cludistream_rng::StdRng;

fn main() {
    // Three sites observing overlapping traffic classes around three
    // centres; one class is twice as heavy at site 2.
    let config = Config {
        dim: 2,
        k: 2,
        chunk: ChunkParams { epsilon: 0.1, delta: 0.01 },
        seed: 9,
        ..Default::default()
    };
    let mut coordinator = Coordinator::new(CoordinatorConfig {
        max_groups: 4,
        refine_merges: true,
        ..Default::default()
    }).unwrap();

    let site_mixtures = [
        Mixture::new(
            vec![
                Gaussian::spherical(Vector::from_slice(&[0.0, 0.0]), 1.0).unwrap(),
                Gaussian::spherical(Vector::from_slice(&[12.0, 0.0]), 1.0).unwrap(),
            ],
            vec![0.5, 0.5],
        )
        .unwrap(),
        Mixture::new(
            vec![
                Gaussian::spherical(Vector::from_slice(&[0.5, 0.5]), 1.0).unwrap(),
                Gaussian::spherical(Vector::from_slice(&[0.0, 12.0]), 1.0).unwrap(),
            ],
            vec![0.5, 0.5],
        )
        .unwrap(),
        Mixture::new(
            vec![
                Gaussian::spherical(Vector::from_slice(&[12.0, 0.5]), 1.0).unwrap(),
                Gaussian::spherical(Vector::from_slice(&[0.2, 11.5]), 1.0).unwrap(),
            ],
            vec![2.0, 1.0],
        )
        .unwrap(),
    ];

    for (i, truth) in site_mixtures.iter().enumerate() {
        let mut site = RemoteSite::new(config.clone()).expect("valid config");
        let mut rng = StdRng::seed_from_u64(100 + i as u64);
        for _ in 0..(2 * site.chunk_size()) {
            site.push(truth.sample(&mut rng)).expect("clean records");
        }
        for ev in site.drain_events() {
            coordinator
                .apply(&Message::from_site_event(i as u32, ev))
                .expect("valid update");
        }
        println!(
            "site {i}: {} chunks processed, {} model(s) reported",
            site.stats().chunks,
            site.models().len()
        );
    }

    let snapshot = ModelSnapshot::capture(&coordinator).expect("coordinator has models");
    let mixture = &snapshot.mixture;
    let total = snapshot.groups.iter().map(|g| g.weight).sum::<f64>().max(1e-12);

    println!("\n--- dense regions over the union of streams ---");
    for (i, (c, g)) in mixture.components().iter().zip(&snapshot.groups).enumerate() {
        let spread: Vec<f64> = c.cov().diag().iter().map(|v| v.max(0.0).sqrt()).collect();
        println!(
            "  region {i}: centre ({:+.1}, {:+.1}), weight {:.2}, spread ({:.2}, {:.2}), \
             merged from {} site components",
            c.mean()[0],
            c.mean()[1],
            g.weight / total,
            spread[0],
            spread[1],
            g.members.len()
        );
    }

    println!("\n--- soft membership queries (the paper's '80% attacked' answer) ---");
    for probe in [[0.0, 0.0], [6.0, 0.0], [11.0, 1.0], [0.0, 11.0]] {
        let x = Vector::from_slice(&probe);
        let membership = mixture.posteriors(&x);
        let best = membership
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        println!(
            "  record ({:+5.1}, {:+5.1}) -> region {} with probability {:.1}%  (density {:.5})",
            probe[0],
            probe[1],
            best.0,
            best.1 * 100.0,
            mixture.pdf(&x)
        );
    }

    println!("\n--- anomaly checks (Mahalanobis > 3σ from every region) ---");
    for probe in [[0.5, 0.2], [25.0, 25.0], [6.0, 6.0]] {
        let x = Vector::from_slice(&probe);
        let outlier = mixture.components().iter().all(|c| c.mahalanobis_sq(&x) > 9.0);
        println!(
            "  ({:+5.1}, {:+5.1}) -> {}",
            probe[0],
            probe[1],
            if outlier { "OUTLIER" } else { "normal" }
        );
    }
}
