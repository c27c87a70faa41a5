//! Determinism and trace-causality integration tests: the whole stack —
//! generators, EM, sites, simulator, coordinator — must reproduce
//! bit-for-bit under fixed seeds, and the simulated message timeline must
//! be causally sane.

use cludistream_suite::cludistream::{Config, DriverConfig, RecordStream, RemoteSite, Simulation};
use cludistream_suite::datagen::{EvolvingStream, EvolvingStreamConfig};
use cludistream_suite::gmm::ChunkParams;

fn driver_config() -> DriverConfig {
    DriverConfig {
        site: Config {
            dim: 2,
            k: 2,
            chunk: ChunkParams { epsilon: 0.15, delta: 0.01 },
            seed: 99,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn streams(n: usize) -> Vec<RecordStream> {
    (0..n)
        .map(|i| {
            Box::new(EvolvingStream::new(EvolvingStreamConfig {
                dim: 2,
                k: 2,
                p_new: 0.5,
                regime_len: 400,
                seed: 500 + i as u64,
                ..Default::default()
            })) as RecordStream
        })
        .collect()
}

#[test]
fn distributed_runs_are_bit_reproducible() {
    let cfg = driver_config();
    let chunk = RemoteSite::new(cfg.site.clone()).unwrap().chunk_size() as u64;
    let run = || {
        Simulation::star(3)
            .with_driver_config(cfg.clone())
            .with_streams(streams(3))
            .with_updates_per_site(4 * chunk)
            .run()
            .expect("run succeeds")
    };
    let a = run();
    let b = run();
    assert_eq!(a.comm.total_bytes(), b.comm.total_bytes());
    assert_eq!(a.comm.total_messages(), b.comm.total_messages());
    assert_eq!(a.comm.per_second(), b.comm.per_second());
    assert_eq!(a.site_stats, b.site_stats);
    assert_eq!(a.site_models, b.site_models);
    assert_eq!(a.coordinator_groups, b.coordinator_groups);
    assert_eq!(a.sim_seconds, b.sim_seconds);
    // Global models agree numerically.
    match (a.global, b.global) {
        (Some(ga), Some(gb)) => {
            assert_eq!(ga.k(), gb.k());
            for (ca, cb) in ga.components().iter().zip(gb.components()) {
                assert_eq!(ca.mean(), cb.mean());
            }
        }
        (None, None) => {}
        other => panic!("one run produced a model, the other did not: {other:?}"),
    }
}

#[test]
fn different_seeds_produce_different_traffic() {
    // Sanity against accidentally ignoring seeds: a different stream seed
    // set almost surely changes at least the byte timeline.
    let cfg = driver_config();
    let chunk = RemoteSite::new(cfg.site.clone()).unwrap().chunk_size() as u64;
    let a = Simulation::star(3)
        .with_driver_config(cfg.clone())
        .with_streams(streams(3))
        .with_updates_per_site(4 * chunk)
        .run()
        .expect("run succeeds");
    let other: Vec<RecordStream> = (0..3)
        .map(|i| {
            Box::new(EvolvingStream::new(EvolvingStreamConfig {
                dim: 2,
                k: 2,
                p_new: 0.5,
                regime_len: 400,
                seed: 900 + i as u64,
                ..Default::default()
            })) as RecordStream
        })
        .collect();
    let b = Simulation::star(3)
        .with_driver_config(cfg)
        .with_streams(other)
        .with_updates_per_site(4 * chunk)
        .run()
        .expect("run succeeds");
    assert!(
        a.comm.total_bytes() != b.comm.total_bytes()
            || a.comm.per_second() != b.comm.per_second()
            || a.site_models != b.site_models,
        "independent streams produced identical traffic — seeds ignored?"
    );
}

#[test]
fn simulated_trace_is_causally_ordered() {
    use cludistream_suite::simnet::{
        Context, LinkModel, Node, NodeId, Simulation, Topology,
    };
    // A spoke sends on five timers, the hub logs every delivery: check
    // ordering and latency accounting under a non-trivial link model.
    struct Source;
    impl Node<u32> for Source {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            for i in 0..5 {
                ctx.set_timer(1000 * (i + 1), i);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, tag: u64) {
            ctx.send(NodeId(2), tag as u32, 64);
        }
    }
    struct Idle;
    impl Node<u32> for Idle {
        fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32) {}
    }
    /// Every delivery as (delivery time, sender, message).
    struct Hub {
        got: Vec<(u64, NodeId, u32)>,
    }
    impl Node<u32> for Hub {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
            self.got.push((ctx.now(), from, msg));
        }
    }
    let link = LinkModel { latency_us: 500, bandwidth_bps: 1_000_000 };
    let mut sim: Simulation<u32> = Simulation::new(Topology::star(2), link);
    sim.add_node(Box::new(Source));
    sim.add_node(Box::new(Idle));
    let hub = sim.add_node(Box::new(Hub { got: vec![] }));
    sim.run().unwrap();

    let hub_node: &mut Hub = sim.node_as(hub).expect("hub");
    // All five delivered over the link 0 -> 2, in send order.
    assert!(hub_node.got.iter().all(|&(_, from, _)| from == NodeId(0)));
    let msgs: Vec<u32> = hub_node.got.iter().map(|&(_, _, m)| m).collect();
    assert_eq!(msgs, vec![0, 1, 2, 3, 4]);
    // Sends at 1000, 2000, ..., 5000, each delivered 500 µs latency plus
    // 64 µs of transmission later: causally after its send, in time order,
    // and 1000 µs apart.
    let times: Vec<u64> = hub_node.got.iter().map(|&(t, _, _)| t).collect();
    assert_eq!(times, vec![1564, 2564, 3564, 4564, 5564]);
}
