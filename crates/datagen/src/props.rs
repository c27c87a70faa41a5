//! Property-based tests over the generators and normalizers, driven by
//! the seeded case harness in `cludistream_rng::check`.

#![cfg(test)]

use crate::powerlaw::Zipf;
use crate::MinMaxNormalizer;
use cludistream_linalg::Vector;
use cludistream_rng::{check, Rng, StdRng};

fn rows(
    rng: &mut StdRng,
    count: std::ops::Range<usize>,
    dim: usize,
    lo: f64,
    hi: f64,
) -> Vec<Vector> {
    let n = rng.gen_range(count);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(lo..hi)).collect())
        .collect()
}

/// Min-max transforms of in-sample points always land in [0, 1].
#[test]
fn minmax_output_in_unit_cube() {
    check::cases("minmax_output_in_unit_cube", 64, |rng| {
        let sample = rows(rng, 2..30, 3, -100.0, 100.0);
        let n = MinMaxNormalizer::fit(&sample);
        for x in &sample {
            let t = n.transform(x);
            assert!(t.iter().all(|&v| (0.0..=1.0).contains(&v)), "out of range: {t}");
        }
    });
}

/// Out-of-sample points clamp rather than escape the cube.
#[test]
fn minmax_clamps_everything() {
    check::cases("minmax_clamps_everything", 64, |rng| {
        let sample = rows(rng, 2..10, 2, -10.0, 10.0);
        let probe: Vector = (0..2).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
        let n = MinMaxNormalizer::fit(&sample);
        let t = n.transform(&probe);
        assert!(t.iter().all(|&v| (0.0..=1.0).contains(&v)));
    });
}

/// Zipf samples always land in range.
#[test]
fn zipf_samples_in_range() {
    check::cases("zipf_samples_in_range", 64, |rng| {
        let n = rng.gen_range(1usize..50);
        let s = rng.gen_range(0.1..3.0);
        let z = Zipf::new(n, s);
        for _ in 0..50 {
            let k = z.sample(rng);
            assert!((1..=n).contains(&k));
        }
    });
}
