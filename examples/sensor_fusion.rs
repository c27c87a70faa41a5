//! Sensor fusion in a tree-structured network (paper Sec. 7): leaf sensors
//! observe noisy, sometimes-incomplete readings; two field gateways —
//! aggregators between the sensors and the root — run CluDistream over
//! their sensors' synopses and push one reduced summary upward only on
//! change.
//!
//! ```text
//! cargo run --release --example sensor_fusion
//! ```

use cludistream::{Config, DriverConfig, NodeId, RecordStream, Simulation, TreeTopology};
use cludistream_datagen::{impute_missing, EvolvingStream, EvolvingStreamConfig, MissingValueInjector, NoiseInjector};
use cludistream_gmm::ChunkParams;

const SENSORS: usize = 6;
const GATEWAYS: usize = 2;

fn main() {
    // Each sensor stream: an evolving 2-d mixture + 5% uniform noise + 10%
    // missing coordinates, repaired by running-mean imputation — the
    // paper's "noisy or incomplete data records".
    let streams: Vec<RecordStream> = (0..SENSORS as u64)
        .map(|sensor| {
            let base = EvolvingStream::new(EvolvingStreamConfig {
                dim: 2,
                k: 2,
                p_new: 0.2,
                regime_len: 1500,
                seed: 100 + sensor,
                ..Default::default()
            });
            let noisy = NoiseInjector::new(base, 0.05, (-15.0, 15.0), 200 + sensor);
            let gappy = MissingValueInjector::new(noisy, 0.10, 300 + sensor);
            Box::new(impute_missing(gappy)) as RecordStream
        })
        .collect();

    // A 2-level tree: the root aggregates two field gateways, each fusing
    // three sensors. In the simulator the sensors are nodes 0..6, the
    // gateways 6 and 7, the root 8.
    println!("tree: root, {GATEWAYS} gateways, sensors 0..{SENSORS}");
    let report = Simulation::star(SENSORS)
        .with_driver_config(DriverConfig {
            site: Config {
                dim: 2,
                k: 2,
                chunk: ChunkParams { epsilon: 0.1, delta: 0.01 },
                seed: 5,
                ..Default::default()
            },
            ..Default::default()
        })
        .with_tree(TreeTopology { levels: vec![GATEWAYS] })
        .with_streams(streams)
        .with_updates_per_site(8_000)
        .run()
        .expect("imputed records are dense");

    let gateway_ingress: u64 =
        (SENSORS..SENSORS + GATEWAYS).map(|g| report.comm.bytes_to(NodeId(g))).sum();
    println!(
        "upstream traffic: {} bytes sensors -> gateways, {} bytes gateways -> root \
         ({} messages in all, {:.1} simulated seconds)",
        gateway_ingress,
        report.bytes_at_root,
        report.comm.total_messages(),
        report.sim_seconds
    );

    println!("\n--- fused model at the root ({} groups) ---", report.coordinator_groups);
    match &report.global {
        Some(m) => {
            for (i, (c, w)) in m.components().iter().zip(m.weights()).enumerate() {
                println!(
                    "  mode {i}: weight {:.3}, centre ({:+.2}, {:+.2})",
                    w,
                    c.mean()[0],
                    c.mean()[1]
                );
            }
        }
        None => println!("no model: no sensor reported"),
    }

    println!("\n--- per-sensor view ---");
    for (sensor, (s, models)) in report.site_stats.iter().zip(&report.site_models).enumerate() {
        println!(
            "  sensor {sensor}: {} chunks, {models} distributions, {} re-clusterings",
            s.chunks, s.clustered
        );
    }
}
