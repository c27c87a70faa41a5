//! Robustness integration tests: the paper's "noisy or incomplete data
//! records" motivation, protocol fuzzing, the distributed sliding window,
//! and ground-truth recovery measured with external indices.

use cludistream_suite::cludistream::{
    Config, DriverConfig, Message, RecordStream, RemoteSite, Simulation, WindowSpec,
};
use cludistream_suite::datagen::{impute_missing, MissingValueInjector, NoiseInjector};
use cludistream_suite::gmm::metrics::{nmi, purity};
use cludistream_suite::gmm::{ChunkParams, Gaussian, GmmError, Mixture};
use cludistream_suite::linalg::Vector;
use cludistream_rng::{check, Rng, StdRng};

fn small_config() -> Config {
    Config {
        dim: 2,
        k: 2,
        chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
        seed: 17,
        ..Default::default()
    }
}

fn two_blob_mixture() -> Mixture {
    Mixture::uniform(vec![
        Gaussian::spherical(Vector::from_slice(&[0.0, 0.0]), 0.5).unwrap(),
        Gaussian::spherical(Vector::from_slice(&[12.0, 12.0]), 0.5).unwrap(),
    ])
    .unwrap()
}

#[test]
fn noisy_incomplete_stream_still_learns_the_model() {
    // 5% uniform outliers + 10% missing coordinates, imputed — the paper's
    // Fig. 4(d) claim that the same model is captured in a noisy
    // environment.
    let mut site = RemoteSite::new(small_config()).unwrap();
    let chunk = site.chunk_size();
    let truth = two_blob_mixture();
    let mut rng = StdRng::seed_from_u64(5);
    let clean = std::iter::repeat_with(move || truth.sample(&mut rng)).take(3 * chunk);
    let noisy = NoiseInjector::new(clean, 0.05, (-20.0, 20.0), 6);
    let gappy = MissingValueInjector::new(noisy, 0.10, 7);
    for x in impute_missing(gappy) {
        site.push(x).unwrap();
    }
    let model = site.current_mixture().expect("model learned");
    // Both dense regions must be represented despite the corruption.
    for target in [(0.0, 0.0), (12.0, 12.0)] {
        let probe = Vector::from_slice(&[target.0, target.1]);
        assert!(
            model.log_pdf(&probe) > -6.0,
            "region {target:?} lost under noise: {}",
            model.log_pdf(&probe)
        );
    }
    // And the stream must not have fragmented into many models.
    assert!(site.models().len() <= 2, "noise fragmented the model list");
}

/// Every parameter of `mixture` is a finite number.
fn is_finite(mixture: &Mixture) -> bool {
    mixture.weights().iter().all(|w| w.is_finite())
        && mixture.components().iter().all(|g| g.mean().is_finite() && g.cov().is_finite())
}

#[test]
fn hostile_data_at_a_site_ends_in_a_finite_model_or_a_typed_error() {
    // Each case replaces one of four clean chunks with hostile data: chunk
    // 0 is clustered with EM, a later chunk is first tested against the
    // model. `Some(name)` is the parameter the typed error names.
    type Corrupt = fn(&mut [Vector]);
    let cases: [(&str, usize, Corrupt, Option<&str>); 5] = [
        ("a NaN record", 0, |c| c[5] = Vector::from_slice(&[f64::NAN, 0.0]), Some("data")),
        ("a +inf record", 1, |c| c[5] = Vector::from_slice(&[f64::INFINITY, 0.0]), Some("data")),
        ("identical records", 1, |c| c.fill(Vector::from_slice(&[1.0, 1.0])), None),
        ("collinear records", 1, |c| c.iter_mut().for_each(|x| x[1] = 2.0 * x[0]), None),
        ("records at 1e300", 1, |c| c.iter_mut().for_each(|x| x.scale(1e300)), Some("mean/cov")),
    ];
    for (what, hostile, corrupt, error) in cases {
        let mut site = RemoteSite::new(Config {
            chunk: ChunkParams { epsilon: 0.2, delta: 0.05 },
            ..small_config()
        })
        .unwrap();
        let m = site.chunk_size();
        assert_eq!(m, 47);
        let truth = two_blob_mixture();
        let mut rng = StdRng::seed_from_u64(29);
        for chunk in 0..4 {
            let mut records: Vec<Vector> = (0..m).map(|_| truth.sample(&mut rng)).collect();
            if chunk == hostile {
                corrupt(&mut records);
            }
            let last = records.pop().unwrap();
            for x in records {
                assert!(site.push(x).unwrap().is_none(), "{what}: chunk {chunk} ended early");
            }
            let models_before = site.models().len();
            let outcome = site.push(last);
            match (chunk == hostile, error) {
                (true, Some(name)) => {
                    let named = match &outcome {
                        Err(GmmError::InvalidParameter { name: n, .. }) => *n == name,
                        _ => false,
                    };
                    assert!(named, "{what}: chunk {chunk} gave {outcome:?}, not invalid `{name}`");
                    assert_eq!(site.models().len(), models_before, "{what}: a model was added");
                }
                _ => assert!(outcome.unwrap().is_some(), "{what}: chunk {chunk} not processed"),
            }
            if let Some(model) = site.current_mixture() {
                assert!(is_finite(model), "{what}: non-finite model after chunk {chunk}");
            }
        }
        let end = site.current_mixture();
        assert!(end.is_some_and(is_finite), "{what}: no finite model at the end");
    }
}

#[test]
fn map_clustering_recovers_ground_truth_components() {
    // External-index validation: MAP assignment under the learned mixture
    // vs the generator's true component of each record.
    let mut site = RemoteSite::new(small_config()).unwrap();
    let chunk = site.chunk_size();
    let truth = two_blob_mixture();
    let mut rng = StdRng::seed_from_u64(11);
    let mut records = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..(2 * chunk) {
        // Sample with a known component id.
        let comp = if cludistream_rng::Rng::gen::<f64>(&mut rng) < 0.5 { 0 } else { 1 };
        let x = truth.components()[comp].sample(&mut rng);
        records.push(x.clone());
        labels.push(comp);
        site.push(x).unwrap();
    }
    let model = site.current_mixture().expect("model learned");
    let assignments: Vec<usize> = records.iter().map(|x| model.map_component(x)).collect();
    let (p, n) = (purity(&assignments, &labels), nmi(&assignments, &labels));
    assert!(p > 0.95, "purity {p}");
    assert!(n > 0.8, "nmi {n}");
}

#[test]
fn distributed_sliding_window_forgets_expired_regimes() {
    let mut cfg = DriverConfig { site: small_config(), ..Default::default() };
    cfg.site.seed = 23;
    let chunk = RemoteSite::new(cfg.site.clone()).unwrap().chunk_size() as u64;

    // Streams: 2 chunks of regime A, then 4 chunks of regime B, window of
    // 2 chunks — regime A must be deleted from the coordinator.
    let make_stream = |seed: u64| -> RecordStream {
        let a = Gaussian::spherical(Vector::from_slice(&[0.0, 0.0]), 0.5).unwrap();
        let b = Gaussian::spherical(Vector::from_slice(&[60.0, 60.0]), 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut i = 0u64;
        Box::new(std::iter::from_fn(move || {
            let g = if i < 2 * chunk { &a } else { &b };
            i += 1;
            Some(g.sample(&mut rng))
        }))
    };
    let report = Simulation::star(2)
        .with_driver_config(cfg)
        .with_window(WindowSpec::Sliding { chunks: 2 })
        .with_streams(vec![make_stream(1), make_stream(2)])
        .with_updates_per_site(6 * chunk)
        .run()
        .expect("windowed run succeeds");
    let global = report.global.expect("global model");
    let old = global.log_pdf(&Vector::from_slice(&[0.0, 0.0]));
    let new = global.log_pdf(&Vector::from_slice(&[60.0, 60.0]));
    assert!(new > -6.0, "current regime missing: {new}");
    assert!(old < -50.0, "expired regime still in the global model: {old}");
    // Deletions travelled over the wire: more messages than the landmark
    // run would send.
    assert!(report.comm.total_messages() > 4, "deletions not transmitted");
}

/// Protocol fuzzing: arbitrary bytes must never panic the decoder —
/// they either decode to a valid message or return an error.
#[test]
fn message_decoder_never_panics() {
    check::cases("message_decoder_never_panics", 256, |rng| {
        let len = rng.gen_range(0..600);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let _ = Message::decode(&mut cludistream_suite::wire::ByteReader::new(&bytes));
    });
}

/// Truncations of a valid encoded message must never panic and never
/// decode to a different valid message silently... (truncated synopses
/// must be rejected).
#[test]
fn truncated_messages_rejected() {
    check::cases("truncated_messages_rejected", 256, |rng| {
        let cut = rng.gen_range(0usize..100);
        let mixture = Mixture::single(
            Gaussian::spherical(Vector::from_slice(&[1.0, 2.0]), 1.0).unwrap(),
        );
        let msg = Message::NewModel {
            site: 1,
            model: cludistream_suite::cludistream::ModelId(2),
            count: 3,
            avg_ll: -1.0,
            mixture,
        };
        let bytes = msg.encode(cludistream_suite::gmm::CovarianceType::Full);
        let cut = cut.min(bytes.len() - 1);
        let slice = bytes.slice(..cut);
        assert!(Message::decode(&mut slice.reader()).is_err());
    });
}
