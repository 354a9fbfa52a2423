//! The cluster drill as a cross-crate integration test: announced serve
//! nodes behind `fluid-router`, open-loop Poisson traffic through the
//! router list, and the two disruption schedules of the one `run_drill`:
//!
//! * the **chaos schedule** — one router; a node killed and restarted
//!   mid-stream, then a rolling hot swap across the cluster;
//! * the **fault schedule** — two gossip-replicated routers; one router
//!   killed, a fourth node joining, and a seeded fault plan that
//!   drops/duplicates router→node messages and severs `node-0` for a
//!   two-second partition window.
//!
//! Both assert the cluster tier's full contract at the end:
//!
//! * every arrival is accounted for (completed + shed == submitted),
//! * zero admitted requests dropped or refused downstream — a killed
//!   router is invisible to clients retrying across the list, and a dead
//!   or partitioned node's shards are covered by replication,
//! * every completion bit-identical to a single-process oracle,
//! * the surviving routers re-converge on a healthy final membership.
//!
//! This is the file CI's `drill` stage runs on one kernel thread; it must
//! hold under any thread interleaving, not just the fast path. The whole
//! run — inputs, arrivals, gossip peer choices, and the fault schedule —
//! replays from the one seed in the config.

use fluid_models::{Arch, FluidModel};
use fluid_router::{run_drill, DrillConfig, DrillReport};
use fluid_tensor::Prng;
use std::time::Duration;

/// The assertions every schedule shares: nothing admitted was lost,
/// refused downstream, or answered with logits that differ from the
/// oracle.
fn assert_contract(report: &DrillReport) {
    assert!(report.passed(), "drill contract violated:\n{report}");
    assert_eq!(report.mismatched, 0, "{report}");
    assert_eq!(report.rejected_downstream, 0, "{report}");
    assert_eq!(
        report.loadgen.completed + report.loadgen.shed,
        report.loadgen.submitted,
        "{report}"
    );
    assert!(report.loadgen.completed > 0, "{report}");
    assert!(report.converged, "{report}");
}

#[test]
fn three_node_drill_survives_a_kill_and_a_rolling_swap() {
    let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(9));
    let spec = model.spec("combined100").expect("spec").clone();

    // The chaos schedule as shipped: 3 nodes at replication 2 behind one
    // router, one kill/restart cycle, then the rolling swap.
    let mut cfg = DrillConfig::default();
    cfg.lambda = 120.0;
    cfg.requests = 240;
    cfg.concurrency = 12;
    cfg.seed = 4242;

    let report = run_drill(model.net(), &spec, cfg).expect("drill infrastructure");

    // The chaos actually happened: one node died and came back, and every
    // node was hot-swapped in place afterwards.
    assert_eq!(report.kills, 1, "{report}");
    assert_eq!(report.restarts, 1, "{report}");
    assert_eq!(report.swaps, 3, "{report}");
    assert_eq!(report.router_kills + report.joins, 0, "{report}");
    assert_contract(&report);

    // The router saw all three nodes, and the node-side ledger agrees
    // with the client-side one: every completion was served exactly once
    // (which also shows the run ended healthy — no settling trickle).
    assert_eq!(report.routers.len(), 1, "{report}");
    assert_eq!(report.routers[0].nodes.len(), 3, "{report}");
    let served: u64 = report
        .routers
        .iter()
        .flat_map(|r| &r.nodes)
        .map(|n| n.served)
        .sum();
    assert_eq!(served, report.loadgen.completed as u64, "{report}");
}

#[test]
fn membership_drill_survives_router_kill_node_join_and_partition() {
    let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(9));
    let spec = model.spec("combined100").expect("spec").clone();

    // The fault schedule as shipped: 3 nodes at replication 2 behind two
    // routers, a router kill, a node join, 2% drops and duplicates — and
    // a partition window of its own.
    let mut cfg = DrillConfig::faults();
    cfg.lambda = 100.0;
    cfg.requests = 200;
    cfg.partition = Some((Duration::from_millis(400), Duration::from_millis(2400)));
    cfg.seed = 777;

    let report = run_drill(model.net(), &spec, cfg).expect("drill infrastructure");

    // The chaos actually happened: a router died, a node joined, and the
    // fault plan attached links (the partition is time-driven, so severed
    // operation counts vary with scheduling — attachment is the invariant).
    assert_eq!(report.router_kills, 1, "{report}");
    assert_eq!(report.joins, 1, "{report}");
    assert!(report.faults.links > 0, "{report}");
    assert_eq!(report.kills + report.restarts + report.swaps, 0, "{report}");
    // Under injected drops, duplicates, a partition, and the router kill
    // all at once.
    assert_contract(&report);

    // The survivor's final view: all four nodes (three booted + one
    // joined), every one of them healthy after the heal.
    assert_eq!(report.routers.len(), 1, "one router survived: {report}");
    assert_eq!(report.routers[0].nodes.len(), 4, "{report}");
    assert!(
        report.routers[0].nodes.iter().all(|n| n.up),
        "every node healthy after heal:\n{report}"
    );
}

#[test]
fn same_seed_replays_the_same_fault_schedule() {
    // Determinism of the *injected* part of the drill: two benign-traffic
    // runs with the same seed must draw identical drop/duplicate
    // schedules (the counters can differ only through scheduling of the
    // partition window, which these configs don't use).
    let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(9));
    let spec = model.spec("combined100").expect("spec").clone();

    let run = |seed| {
        let mut cfg = DrillConfig::faults();
        cfg.nodes = 2;
        cfg.routers = 2;
        cfg.lambda = 80.0;
        cfg.requests = 60;
        cfg.concurrency = 6;
        cfg.kill_router = false;
        cfg.join_node = false;
        cfg.partition = None;
        cfg.drop_p = 0.0;
        cfg.duplicate_p = 0.0;
        cfg.seed = seed;
        run_drill(model.net(), &spec, cfg).expect("drill")
    };
    let a = run(5);
    let b = run(5);
    assert!(a.passed(), "{a}");
    assert!(b.passed(), "{b}");
    assert_eq!(a.loadgen.submitted, b.loadgen.submitted);
    assert_eq!(a.loadgen.completed, b.loadgen.completed);
    assert_eq!(
        (a.faults.dropped, a.faults.duplicated),
        (b.faults.dropped, b.faults.duplicated),
        "same seed must inject the same faults"
    );
}

#[test]
fn degraded_cluster_still_answers_every_shard() {
    // Replication 2 of 3 nodes: with one node down (and never restarted —
    // the kill is done by hand through the drill's building blocks),
    // every shard keeps a live replica.
    use fluid_router::{DynamicCluster, DynamicClusterConfig};
    use fluid_tensor::Tensor;

    let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(31));
    let spec = model.spec("combined100").expect("spec").clone();
    let mut cfg = DynamicClusterConfig::default();
    cfg.nodes = 3;
    cfg.routers = 1;
    cfg.router.connect_timeout = Duration::from_millis(250);
    cfg.router.probe_backoff = Duration::from_millis(50);
    let mut cluster = DynamicCluster::boot(model.net(), &spec, cfg).expect("boot");
    assert!(cluster.wait_converged(Duration::from_secs(10)));

    let x = Tensor::from_fn(&[1, 1, 28, 28], |i| (i % 6) as f32 / 6.0);
    let mut oracle = model.net().clone();
    let expected = oracle.forward_subnet(&x, &spec, false);

    cluster.crash_node(2);
    for key in 0..24u64 {
        let got = cluster
            .router(0)
            .router()
            .infer(key, &x)
            .expect("degraded cluster must still answer");
        assert!(got.allclose(&expected, 0.0), "key {key} diverged");
    }
}
