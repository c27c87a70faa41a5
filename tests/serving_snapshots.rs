//! Snapshot atomicity under concurrency: a writer thread publishing new
//! model snapshots mid-"round" while reader threads score continuously
//! must never observe a torn mixture.
//!
//! The contract under test (DESIGN.md "Serving & snapshots"):
//!
//! - every `load()` returns a complete, self-consistent
//!   [`ModelSnapshot`] — weights on the simplex, one group per mixture
//!   component, scorable without error;
//! - versions are monotonic per reader: a later `load()` never returns
//!   an older snapshot;
//! - `version()` never runs behind the snapshot a concurrent `load()`
//!   returned.
//!
//! The writer publishes mixtures whose *every* field encodes the publish
//! round (means, weights, group ids), so any torn read — half-updated
//! weights, a mixture from one publish with groups from another — breaks
//! a cross-field consistency check.

use cludistream::{ModelSnapshot, SnapshotGroup, SnapshotHandle};
use cludistream_gmm::{score, Batch, CovarianceType, Gaussian, Mixture};
use cludistream_linalg::Vector;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const PUBLISHES: u64 = 500;
const READERS: usize = 4;

/// A snapshot whose every field is a function of `round`: component `j`
/// of `k = 2 + round % 3` sits at `10·round + j`, weights tilt toward
/// component 0 by a round-dependent amount, group `j` has id
/// `1000·round + j` and weight equal to the mixture's.
fn snapshot_for_round(round: u64) -> ModelSnapshot {
    let k = 2 + (round % 3) as usize;
    let tilt = 0.1 + 0.8 * ((round % 7) as f64 / 7.0);
    let mut weights = vec![(1.0 - tilt) / (k - 1) as f64; k];
    weights[0] = tilt;
    let components: Vec<Gaussian> = (0..k)
        .map(|j| {
            Gaussian::spherical(
                Vector::from_slice(&[10.0 * round as f64 + j as f64]),
                1.0,
            )
            .expect("valid gaussian")
        })
        .collect();
    let mixture = Mixture::new(components, weights).expect("valid mixture");
    // Group weights come from the mixture, not the raw inputs:
    // `Mixture::new` normalises, which can move a weight by an ulp.
    let groups = (0..k)
        .map(|j| SnapshotGroup {
            id: 1000 * round + j as u64,
            weight: mixture.weights()[j],
            members: Default::default(),
        })
        .collect();
    ModelSnapshot {
        version: 0, // publish() assigns the real one
        messages_applied: round,
        covariance: CovarianceType::Full,
        mixture,
        groups,
    }
}

/// Every cross-field invariant a torn read would break. Returns the
/// round the snapshot encodes.
fn check_consistency(snapshot: &ModelSnapshot) -> u64 {
    let round = snapshot.messages_applied;
    let k = 2 + (round % 3) as usize;
    assert_eq!(snapshot.mixture.k(), k, "mixture k diverged from round {round}");
    assert_eq!(snapshot.groups.len(), k, "group count diverged from round {round}");

    // Weight simplex: non-negative, summing to 1.
    let sum: f64 = snapshot.mixture.weights().iter().sum();
    assert!((sum - 1.0).abs() < 1e-9, "round {round}: weights sum to {sum}");
    assert!(
        snapshot.mixture.weights().iter().all(|&w| w > 0.0),
        "round {round}: non-positive weight"
    );

    // Mixture and group map must come from the same publish.
    for (j, group) in snapshot.groups.iter().enumerate() {
        assert_eq!(group.id, 1000 * round + j as u64, "round {round}: group {j} id torn");
        assert_eq!(
            group.weight.to_bits(),
            snapshot.mixture.weights()[j].to_bits(),
            "round {round}: group {j} weight torn"
        );
        let mean = snapshot.mixture.components()[j].mean();
        assert_eq!(
            mean.as_slice()[0].to_bits(),
            (10.0 * round as f64 + j as f64).to_bits(),
            "round {round}: component {j} mean torn"
        );
    }
    round
}

#[test]
fn readers_never_observe_a_torn_snapshot() {
    let handle = Arc::new(SnapshotHandle::new());
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let handle = Arc::clone(&handle);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut last_version = 0u64;
                let mut last_round = 0u64;
                let mut seen = 0u64;
                while !stop.load(Ordering::Acquire) || seen == 0 {
                    let Some(snapshot) = handle.load() else { continue };
                    seen += 1;
                    let round = check_consistency(&snapshot);

                    // Monotonicity: never an older snapshot than before,
                    // and the handle's version counter never lags it.
                    assert!(
                        snapshot.version >= last_version,
                        "reader {reader}: version went {last_version} -> {}",
                        snapshot.version
                    );
                    assert!(
                        round >= last_round,
                        "reader {reader}: round went {last_round} -> {round}"
                    );
                    assert!(
                        handle.version() >= snapshot.version,
                        "reader {reader}: handle.version() behind a loaded snapshot"
                    );
                    last_version = snapshot.version;
                    last_round = round;

                    // The loaded model scores without error: a torn
                    // mixture would fail validation or produce NaNs.
                    let x = 10.0 * round as f64;
                    let records = [Vector::from_slice(&[x]), Vector::from_slice(&[x + 1.0])];
                    let batch = Batch::from_records(&records);
                    let scores =
                        score(&snapshot.mixture, &batch, 0).expect("snapshot is scorable");
                    assert!(scores.avg_log_likelihood().is_finite());
                    assert_eq!(scores.labels().len(), 2);
                }
                assert!(seen > 0, "reader {reader} never saw a snapshot");
            });
        }

        // The writer hammers publishes while the readers run.
        for round in 1..=PUBLISHES {
            let version = handle.publish(snapshot_for_round(round));
            assert_eq!(version, round, "publish must assign sequential versions");
        }
        stop.store(true, Ordering::Release);
    });

    // After the dust settles: the last publish won.
    let last = handle.load().expect("published");
    assert_eq!(last.version, PUBLISHES);
    assert_eq!(handle.version(), PUBLISHES);
    check_consistency(&last);
}
