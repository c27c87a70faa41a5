//! Figure 2: cumulative communication cost vs time, CluDistream vs the
//! periodic SEM-reporting strategy, on (a) NFD-like data and (b) synthetic
//! data with P_d swept from 0.1 to 0.5.
//!
//! Expected shape (paper): CluDistream's curve flattens once the models
//! have learned the distributions; the periodic strategy grows linearly
//! forever; larger P_d raises CluDistream's curve but it stays below SEM.

use crate::figs::common::paper_config_dim;
use crate::table::{emit, Series};
use crate::workloads;
use crate::Scale;
use cludistream::{DriverConfig, RecordStream, Simulation};
use cludistream_baselines::periodic::{run_periodic_star, PeriodicConfig};
use cludistream_baselines::SemConfig;

const SITES: usize = 20;

fn cumulative_series(name: &str, per_second_cumulative: &[u64], sim_seconds: f64) -> Series {
    let mut s = Series::new(name);
    let mut last = 0.0;
    for (sec, &bytes) in per_second_cumulative.iter().enumerate() {
        last = bytes as f64;
        s.push(sec as f64, last);
    }
    // Pad the flat tail out to the end of the run so stability is visible.
    for sec in per_second_cumulative.len()..=(sim_seconds.ceil() as usize) {
        s.push(sec as f64, last);
    }
    s
}

fn cludistream_run(streams: Vec<RecordStream>, updates: u64, dim: usize) -> Series {
    let config = DriverConfig { site: paper_config_dim(dim), ..Default::default() };
    let report = Simulation::star(streams.len())
        .with_driver_config(config)
        .with_streams(streams)
        .with_updates_per_site(updates)
        .run()
        .expect("simulation runs");
    cumulative_series("CluDistream", &report.comm.cumulative_per_second(), report.sim_seconds)
}

fn periodic_run(streams: Vec<RecordStream>, updates: u64) -> Series {
    let config = PeriodicConfig {
        sem: SemConfig { k: 5, buffer_size: 1000, seed: 3, ..Default::default() },
        period_records: 2000,
        ..Default::default()
    };
    let report = run_periodic_star(streams, updates, config).expect("simulation runs");
    cumulative_series("SEM (periodic)", &report.comm.cumulative_per_second(), report.sim_seconds)
}

/// Runs the Fig. 2 experiment.
pub(crate) fn run(scale: Scale) {
    let updates = scale.updates(6000) as u64; // per site

    // (a) NFD-like.
    let norm = workloads::nfd_like_normalizer(21);
    let clu_streams: Vec<RecordStream> =
        (0..SITES).map(|i| workloads::nfd_like_boxed(&norm, 0.05, 100 + i as u64)).collect();
    let sem_streams: Vec<RecordStream> =
        (0..SITES).map(|i| workloads::nfd_like_boxed(&norm, 0.05, 100 + i as u64)).collect();
    let clu = cludistream_run(clu_streams, updates, workloads::NFD_DIM);
    let sem = periodic_run(sem_streams, updates);
    emit("fig2a", "Fig 2(a): cumulative communication, NFD-like", "seconds", &[clu, sem]);

    // (b) synthetic, sweeping P_d.
    let mut series: Vec<Series> = [0.1, 0.3, 0.5]
        .into_iter()
        .map(|p_d| {
            let streams: Vec<RecordStream> =
                (0..SITES).map(|i| workloads::synthetic_boxed(4, 5, p_d, 200 + i as u64)).collect();
            let mut s = cludistream_run(streams, updates, 4);
            s.name = format!("CluDistream P_d={p_d}");
            s
        })
        .collect();
    let sem_streams: Vec<RecordStream> =
        (0..SITES).map(|i| workloads::synthetic_boxed(4, 5, 0.1, 200 + i as u64)).collect();
    series.push(periodic_run(sem_streams, updates));
    emit("fig2b", "Fig 2(b): cumulative communication, synthetic", "seconds", &series);

    // Shape check the paper reports: CluDistream total << periodic total.
    let clu_total = series[0].last_y().unwrap_or(0.0);
    let sem_total = series.last().and_then(|s| s.last_y()).unwrap_or(0.0);
    println!(
        "CluDistream(P_d=0.1) vs periodic SEM total bytes: {clu_total:.0} vs {sem_total:.0} \
         ({:.1}x saving)",
        sem_total / clu_total.max(1.0)
    );
}
