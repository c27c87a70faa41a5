//! Figures 3 and 4: histograms of the 1-d synthetic stream in a horizon
//! H=2k at three time points (Fig. 3) and the corresponding CluDistream
//! fitted densities (Fig. 4), including the 5% noise variant (Fig. 4(d)).

use crate::figs::common::RollingWindow;
use crate::table::{emit, Series};
use crate::Scale;
use cludistream::{horizon_mixture, Config, RemoteSite};
use cludistream_datagen::{EvolvingStream, EvolvingStreamConfig, Histogram, NoiseInjector};
use cludistream_gmm::ChunkParams;
use cludistream_linalg::Vector;

const HORIZON: usize = 2000;
const BINS: usize = 40;
const RANGE: (f64, f64) = (-15.0, 15.0);

fn one_d_stream(seed: u64) -> EvolvingStream {
    EvolvingStream::new(EvolvingStreamConfig {
        dim: 1,
        k: 3,
        p_new: 1.0, // a fresh distribution at every boundary: three clearly
        // different time points, as in the paper's figure
        regime_len: HORIZON,
        seed,
        ..Default::default()
    })
}

fn histogram_series(name: &str, window: &[Vector]) -> Series {
    let mut h = Histogram::new(RANGE.0, RANGE.1, BINS);
    h.add_records(window, 0);
    let mut s = Series::new(name);
    for (i, d) in h.density().iter().enumerate() {
        s.push(h.bin_center(i), *d);
    }
    s
}

/// Runs the Fig. 3 experiment: data histograms at three time points.
pub(crate) fn run_fig3(_scale: Scale) {
    let mut stream = one_d_stream(31);
    let mut series = Vec::new();
    for t in 1..=3 {
        let window = stream.take_chunk(HORIZON);
        series.push(histogram_series(&format!("t{t} density"), &window));
    }
    emit("fig3", "Fig 3: histograms of 1-d synthetic data (H=2k)", "x", &series);
}

/// Runs the Fig. 4 experiment: CluDistream fitted densities at the same
/// time points, plus the 5% noise variant.
pub(crate) fn run_fig4(_scale: Scale) {
    let config = Config {
        dim: 1,
        k: 3,
        chunk: ChunkParams { epsilon: 0.02, delta: 0.01 },
        seed: 32,
        ..Default::default()
    };

    let run = |noisy: bool, label: &str, out: &mut Vec<Series>| {
        let mut site = RemoteSite::new(config.clone()).expect("valid config");
        let m = site.chunk_size();
        let horizon_chunks = (HORIZON as u64).div_ceil(m as u64).max(1);
        let base = one_d_stream(31);
        let mut stream: Box<dyn Iterator<Item = Vector> + Send> = if noisy {
            Box::new(NoiseInjector::new(base, 0.05, RANGE, 33))
        } else {
            Box::new(base)
        };
        let mut window = RollingWindow::new(HORIZON);
        for t in 1..=3 {
            for _ in 0..HORIZON {
                let x = stream.next().expect("infinite stream");
                window.push(x.clone());
                site.push(x).expect("clean records");
            }
            // Capture the fitted density at this time point (t3 only for
            // the noisy variant, matching Fig. 4(d)).
            if noisy && t < 3 {
                continue;
            }
            let mix = horizon_mixture(&site, horizon_chunks).expect("model exists");
            let mut s = Series::new(format!("{label} t{t} fitted"));
            let h = Histogram::new(RANGE.0, RANGE.1, BINS);
            for i in 0..BINS {
                let x = h.bin_center(i);
                s.push(x, mix.pdf(&Vector::from_slice(&[x])));
            }
            out.push(s);
            // Report how well the fit matches the raw window (quality
            // context for the figure).
            let avg = mix.avg_log_likelihood(&window.records());
            println!("[fig4] {label} t{t}: avg log likelihood over window = {avg:.4}");
        }
    };

    let mut series = Vec::new();
    run(false, "clean", &mut series);
    run(true, "5% noise", &mut series);
    emit("fig4", "Fig 4: CluDistream fitted densities (H=2k)", "x", &series);
}
