//! Live failure-matrix test: run a real master/worker pair per model
//! family, inject failures, and verify the survivors — the executable
//! version of the paper's Fig. 1(b,c) — plus the router tier's rows:
//! dead node at connect, node dying mid-request, rejecting node, and a
//! shard with every replica down. Each must end in a *fast, explicit*
//! verdict, never a hang.

use fluid_dist::{extract_branch_weights, InProcTransport, Master, MasterConfig, Worker};
use fluid_integration_tests::quick_trained_fluid;
use fluid_models::{Arch, BranchSpec, DynamicModel, StaticModel};
use fluid_nn::ChannelRange;
use fluid_tensor::{Prng, Tensor};

fn x() -> Tensor {
    Tensor::from_fn(&[1, 1, 28, 28], |i| ((i * 11 % 59) as f32) / 59.0)
}

/// Spins up a worker thread on an in-process transport pair.
fn spawn_worker(
    arch: Arch,
) -> (
    InProcTransport,
    fluid_dist::FailureSwitch,
    std::thread::JoinHandle<()>,
) {
    let (master_side, worker_side) = InProcTransport::pair();
    let switch = master_side.failure_switch();
    let handle = std::thread::spawn(move || {
        let _ = Worker::new(worker_side, arch, "w").run();
    });
    (master_side, switch, handle)
}

#[test]
fn fluid_worker_failure_master_keeps_serving() {
    let (model, _) = quick_trained_fluid(41);
    let arch = model.net().arch().clone();
    let (transport, kill, handle) = spawn_worker(arch);
    let mut master = Master::new(transport, model.net().clone(), MasterConfig::default());
    master.await_hello().expect("hello");

    let lower = model.spec("lower50").expect("spec").branches[0].clone();
    let upper = model.spec("combined100").expect("spec").branches[1].clone();
    let windows = extract_branch_weights(model.net(), &upper);
    master.deploy_local(lower);
    master.deploy_remote(upper, windows).expect("deploy");
    assert!(master.infer_ha(&x()).is_ok());

    kill.kill();
    assert!(
        master.infer_ha(&x()).is_err(),
        "HA must fail after worker death"
    );
    assert!(master.worker_dead());
    // The paper's claim: the Master's fluid branch is standalone.
    assert!(master.infer_local(&x()).is_ok());
    handle.join().expect("worker thread");
}

#[test]
fn fluid_master_failure_worker_branch_is_standalone() {
    // Master failure means the worker keeps only its own windows; verify
    // that the shipped upper50 windows alone compute the exact standalone
    // function (no dependency on anything the master held).
    let (model, _) = quick_trained_fluid(42);
    let arch = model.net().arch().clone();
    let half = arch.ladder.half();
    let max = arch.ladder.max();
    let upper = BranchSpec::uniform(
        "upper50",
        ChannelRange::new(half, max),
        arch.conv_stages,
        true,
    );

    let mut reference = model.net().clone();
    let expected = reference.forward_branch(&x(), &upper, false);

    let windows = extract_branch_weights(model.net(), &upper);
    let mut survivor = fluid_dist::WorkerEngine::new(arch);
    survivor.deploy(upper, &windows).expect("deploy");
    let got = survivor.infer(&x()).expect("standalone inference");
    assert!(expected.allclose(&got, 0.0), "worker-side function differs");
}

#[test]
fn dynamic_worker_failure_master_prefix_survives() {
    let arch = Arch::tiny_28();
    let model = DynamicModel::new(arch.clone(), &mut Prng::new(5));
    let (transport, kill, handle) = spawn_worker(arch);
    let mut master = Master::new(transport, model.net().clone(), MasterConfig::default());
    master.await_hello().expect("hello");
    // Master holds the 50% prefix (a valid standalone function).
    master.deploy_local(model.half().branches[0].clone());
    kill.kill();
    assert!(
        master.infer_local(&x()).is_ok(),
        "dynamic prefix must survive on master"
    );
    handle.join().expect("worker thread");
}

#[test]
fn dynamic_master_failure_worker_groups_are_not_a_function() {
    // The worker of a Dynamic DNN holds the *upper triangular* channel
    // groups, whose conv inputs include lower channels it does not have.
    // Structurally there is no BranchSpec that reads only the upper block
    // but equals the trained upper groups — deploying the upper block as a
    // branch changes the function. We verify that concretely.
    let arch = Arch::tiny_28();
    let mut model = DynamicModel::new(arch.clone(), &mut Prng::new(6));
    let half = arch.ladder.half();
    let max = arch.ladder.max();

    // The full dynamic model's output...
    let full_spec = model.full().clone();
    let full_out = model.net_mut().forward_subnet(&x(), &full_spec, false);

    // ...cannot be recovered from upper-block-only execution: the block
    // branch ignores the (upper ← lower) weights entirely.
    let upper_block = BranchSpec::uniform(
        "upper_block",
        ChannelRange::new(half, max),
        arch.conv_stages,
        true,
    );
    let windows = extract_branch_weights(model.net(), &upper_block);
    let mut survivor = fluid_dist::WorkerEngine::new(arch);
    survivor.deploy(upper_block, &windows).expect("deploy");
    let degraded = survivor
        .infer(&x())
        .expect("runs but computes a different function");
    // The degraded output is NOT the trained model's function (the
    // dynamic upper groups were never trained to work this way).
    assert!(
        full_out.max_abs_diff(&degraded) > 1e-3,
        "dynamic upper block unexpectedly reproduced the model"
    );
}

#[test]
fn static_split_halves_are_not_functions() {
    // A static model split by output channels: each half's conv layers
    // need the *other* half's activations at every layer. Running a half
    // as a block branch produces a different function than the model.
    let arch = Arch::tiny_28();
    let mut model = StaticModel::new(arch.clone(), &mut Prng::new(7));
    let full_out = model.infer(&x());
    let half = arch.ladder.max() / 2;
    let lower_block = BranchSpec::uniform(
        "lower_half",
        ChannelRange::new(0, half),
        arch.conv_stages,
        true,
    );
    let windows = extract_branch_weights(model.net(), &lower_block);
    let mut survivor = fluid_dist::WorkerEngine::new(arch);
    survivor.deploy(lower_block, &windows).expect("deploy");
    let degraded = survivor
        .infer(&x())
        .expect("runs but computes a different function");
    assert!(
        full_out.max_abs_diff(&degraded) > 1e-3,
        "static half unexpectedly equals the full model"
    );
}

// ---------------------------------------------------------------------------
// Router tier: the cluster's failure matrix. These rows use fake TCP nodes
// with scripted misbehaviour, so each failure mode is exercised in
// isolation rather than hoping chaos produces it. The membership rows at
// the end cover the replicated-router era: a dead router behind a client
// retrying across the router list, a partitioned node covered by its
// replica, and a router serving from a stale membership epoch until
// anti-entropy gossip heals it.

// ---------------------------------------------------------------------------
// Tenancy tier: the multi-tenant scheduler's failure rows. A quota that
// runs dry and a tenant id the table has never heard of must both be
// answered with a fast, explicit, per-tenant verdict — never billed to a
// bystander tenant, never a hang, never a poisoned connection.

mod tenant_rows {
    use fluid_serve::{
        serve_tcp, Backend, ServeConfig, ServeError, Server, TcpClient, TenancyConfig, TenantClass,
        TenantPolicy,
    };
    use fluid_tensor::Tensor;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    struct InstantBackend;

    impl Backend for InstantBackend {
        fn name(&self) -> &str {
            "instant"
        }
        fn input_dims(&self) -> [usize; 3] {
            [1, 28, 28]
        }
        fn infer_batch(&mut self, x: &Tensor) -> Result<Tensor, fluid_dist::DistError> {
            Ok(Tensor::zeros(&[x.dims()[0], 10]))
        }
    }

    fn x() -> Tensor {
        Tensor::from_fn(&[1, 1, 28, 28], |i| ((i * 13 % 37) as f32) / 37.0)
    }

    /// Boots a tenanted server behind a TCP front; `metered` gets a
    /// 2-request bucket that effectively never refills, `free` is
    /// unmetered.
    fn boot_tenanted() -> (
        Server,
        std::net::SocketAddr,
        Arc<AtomicBool>,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let mut metered = TenantPolicy::new(1, "metered", TenantClass::Batch);
        metered.rate = 0.001;
        metered.burst = 2.0;
        let free = TenantPolicy::new(2, "free", TenantClass::Interactive);
        let mut cfg = ServeConfig::default();
        cfg.max_wait = Duration::from_micros(200);
        cfg.tenancy = Some(TenancyConfig::new(vec![metered, free]));
        let server = Server::start(cfg, vec![Box::new(InstantBackend)]).expect("start");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let front = {
            let (handle, shutdown) = (server.handle(), Arc::clone(&shutdown));
            std::thread::spawn(move || serve_tcp(listener, handle, shutdown))
        };
        (server, addr, shutdown, front)
    }

    #[test]
    fn quota_exhausted_tenant_is_rejected_while_others_proceed() {
        let (server, addr, shutdown, front) = boot_tenanted();
        let mut client = TcpClient::connect(&addr.to_string()).expect("connect");

        // Burn the metered tenant's burst, then its next frame must come
        // back as an explicit per-tenant verdict — fast, not a timeout.
        for _ in 0..2 {
            client.infer_tenant(1, &x()).expect("within burst");
        }
        let t0 = Instant::now();
        let err = client.infer_tenant(1, &x()).expect_err("bucket is dry");
        let verdict_in = t0.elapsed();
        match &err {
            ServeError::Rejected(reason) => {
                assert!(
                    reason.contains("metered"),
                    "verdict must name the tenant: {reason}"
                )
            }
            other => panic!("expected Rejected, got {other}"),
        }
        assert!(
            verdict_in < Duration::from_secs(1),
            "quota verdict took {verdict_in:?}"
        );

        // The bystander tenant proceeds on the same connection, promptly.
        let t0 = Instant::now();
        let out = client
            .infer_tenant(2, &x())
            .expect("free tenant is unmetered");
        assert_eq!(out.dims(), &[1, 10]);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "bystander slowed to {:?} by a rival's quota verdict",
            t0.elapsed()
        );

        let metrics = server.shutdown();
        let metered = metrics
            .tenants
            .iter()
            .find(|t| t.name == "metered")
            .expect("row");
        assert_eq!(metered.quota_rejected, 1);
        assert_eq!(metered.completed, 2);
        let free = metrics
            .tenants
            .iter()
            .find(|t| t.name == "free")
            .expect("row");
        assert_eq!(free.quota_rejected, 0);
        assert_eq!(free.completed, 1);
        drop(client);
        shutdown.store(true, Ordering::SeqCst);
        front.join().expect("front").expect("io");
    }

    #[test]
    fn unknown_tenant_frame_is_a_protocol_error_not_a_poisoned_connection() {
        let (server, addr, shutdown, front) = boot_tenanted();
        let mut client = TcpClient::connect(&addr.to_string()).expect("connect");

        // Tenant 99 exists nowhere: the frame gets an explicit protocol
        // error naming the offending id, within a bound.
        let t0 = Instant::now();
        let err = client.infer_tenant(99, &x()).expect_err("unknown tenant");
        let verdict_in = t0.elapsed();
        match &err {
            ServeError::Rejected(reason) => {
                assert!(reason.contains("99"), "verdict must name the id: {reason}")
            }
            other => panic!("expected Rejected, got {other}"),
        }
        assert!(
            verdict_in < Duration::from_secs(1),
            "unknown-tenant verdict took {verdict_in:?}"
        );

        // The connection survives the protocol error: a valid frame on the
        // same socket is still served.
        let out = client
            .infer_tenant(2, &x())
            .expect("connection still healthy");
        assert_eq!(out.dims(), &[1, 10]);

        let metrics = server.shutdown();
        assert_eq!(
            metrics.completed, 1,
            "the bad frame must not be billed as work"
        );
        drop(client);
        shutdown.store(true, Ordering::SeqCst);
        front.join().expect("front").expect("io");
    }
}

mod router_rows {
    use fluid_dist::{FaultPlan, FaultSpec, Message, PartitionWindow, TcpTransport, Transport};
    use fluid_router::{Router, RouterConfig, RouterNode, ShardMap};
    use fluid_serve::{ServeError, TcpClient};
    use fluid_tensor::Tensor;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn x() -> Tensor {
        Tensor::from_fn(&[1, 1, 28, 28], |i| ((i * 7 % 31) as f32) / 31.0)
    }

    /// A router config whose timeouts keep every negative case fast.
    fn fast_cfg() -> RouterConfig {
        // `RouterConfig` is `#[non_exhaustive]`, hence mutation.
        let mut cfg = RouterConfig::default();
        cfg.connect_timeout = Duration::from_millis(250);
        cfg.request_timeout = Duration::from_secs(1);
        cfg.probe_backoff = Duration::from_millis(200);
        cfg
    }

    /// An address that refuses connections: bind an ephemeral port, note
    /// it, and close the listener again.
    fn refused_addr() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    }

    /// One fake node: accepts a single connection and hands its transport
    /// to `behavior`.
    fn fake_node<F>(behavior: F) -> (String, std::thread::JoinHandle<()>)
    where
        F: FnOnce(TcpTransport) + Send + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                if let Ok(transport) = TcpTransport::new(stream) {
                    behavior(transport);
                }
            }
        });
        (addr, handle)
    }

    /// Reads one request, then wedges: the socket stays open but no reply
    /// ever comes. At the client this is indistinguishable from a node
    /// that crashed *after* `recv` — the worst-timed failure, and the one
    /// the reply deadline exists for.
    fn read_then_wedge(mut transport: TcpTransport) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match transport.recv_timeout(Duration::from_millis(50)) {
                Ok(Some(_)) => break,
                Ok(None) => continue,
                Err(_) => return,
            }
        }
        // Hold the connection open, replying to nothing, until the client
        // gives up and hangs up.
        while Instant::now() < deadline {
            match transport.recv_timeout(Duration::from_millis(50)) {
                Ok(_) => continue,
                Err(_) => return,
            }
        }
    }

    /// A fake node that *serves*: accepts connections until told to stop
    /// and answers every inference frame with logits filled with `tag`,
    /// so a completion can be traced back to the node that produced it.
    fn serving_node(tag: f32) -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut conns = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(false);
                            let stop = Arc::clone(&stop);
                            conns.push(std::thread::spawn(move || {
                                let Ok(mut transport) = TcpTransport::new(stream) else {
                                    return;
                                };
                                while !stop.load(Ordering::SeqCst) {
                                    match transport.recv_timeout(Duration::from_millis(50)) {
                                        Ok(Some(
                                            Message::Infer { request_id, .. }
                                            | Message::InferKeyed { request_id, .. },
                                        )) => {
                                            let logits = Tensor::from_fn(&[1, 10], |_| tag);
                                            let reply = Message::Logits { request_id, logits };
                                            if transport.send(&reply).is_err() {
                                                return;
                                            }
                                        }
                                        Ok(_) => continue,
                                        Err(_) => return,
                                    }
                                }
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
                for conn in conns {
                    let _ = conn.join();
                }
            })
        };
        (addr, stop, handle)
    }

    /// The logits every request served by a `serving_node(tag)` carries.
    fn tagged(tag: f32) -> Tensor {
        Tensor::from_fn(&[1, 10], |_| tag)
    }

    /// Finds a key whose shard lists `ids[0]` as its first replica, so a
    /// test can aim traffic at a specific node. `ids` must be sorted (the
    /// membership order [`ShardMap`] builds from).
    fn key_preferring_first(ids: &[String], shards: usize, replication: usize) -> u64 {
        let map = ShardMap::new(ids, shards, replication);
        (0u64..10_000)
            .find(|&k| ids[map.replicas(map.shard_of(k))[0]] == ids[0])
            .expect("some key must prefer the first node")
    }

    /// A router whose members are known at boot: start empty and `join`
    /// each `(id, addr)`, exactly as an announcing node would.
    fn router_over(cfg: RouterConfig, nodes: &[(&str, &str)]) -> Router {
        let router = Router::new(cfg);
        for (id, addr) in nodes {
            router.join(id, addr);
        }
        router
    }

    #[test]
    fn dead_node_at_connect_is_a_fast_clean_verdict() {
        // Client-level wording first: a connect-side failure names the
        // connect and never claims "mid-request silence" — no request was
        // ever sent, and the operator response differs (check the target,
        // not the request path).
        let dead = refused_addr();
        let msg = TcpClient::connect_timeout(&dead, Duration::from_millis(250))
            .expect_err("nothing listens there")
            .to_string();
        assert!(msg.contains("connect"), "{msg}");
        assert!(!msg.contains("mid-request silence"), "{msg}");

        let router = router_over(fast_cfg(), &[("corpse", &refused_addr())]);
        let t0 = Instant::now();
        let err = router.infer(1, &x()).expect_err("nothing listens there");
        assert!(matches!(err, ServeError::NoWorkers), "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "dead-at-connect took {:?}",
            t0.elapsed()
        );
        assert_eq!(router.metrics().node_deaths, 1);
    }

    #[test]
    fn node_dying_between_infer_and_logits_is_reported_not_hung() {
        // Client-level wording first: the link *was* established and the
        // request *was* sent before the node went silent, so the error
        // names the silence and the request — worded apart from the
        // connect-timeout error so an operator knows which half of the
        // path to suspect.
        let (addr, probe) = fake_node(read_then_wedge);
        let mut client = TcpClient::connect_timeout(&addr, Duration::from_millis(250))
            .expect("connect")
            .with_timeout(Duration::from_millis(300));
        let msg = client
            .infer(&x())
            .expect_err("no reply is coming")
            .to_string();
        assert!(
            msg.contains("mid-request silence: no reply to request"),
            "{msg}"
        );
        assert!(!msg.contains("connect"), "{msg}");
        drop(client);
        probe.join().expect("probe node");

        // The router turns the same silence into a fast NoWorkers verdict.
        let (addr, node) = fake_node(read_then_wedge);
        let router = router_over(fast_cfg(), &[("flaky", &addr)]);
        let t0 = Instant::now();
        let err = router
            .infer(2, &x())
            .expect_err("the node died mid-request");
        assert!(matches!(err, ServeError::NoWorkers), "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "mid-request death took {:?}",
            t0.elapsed()
        );
        node.join().expect("fake node");
    }

    #[test]
    fn rejecting_node_surfaces_its_reason_verbatim() {
        let (addr, node) = fake_node(|mut transport| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                match transport.recv_timeout(Duration::from_millis(100)) {
                    Ok(Some(
                        Message::Infer { request_id, .. } | Message::InferKeyed { request_id, .. },
                    )) => {
                        if transport
                            .send(&Message::Reject {
                                request_id,
                                reason: "synthetic backpressure".into(),
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                    Ok(Some(_)) | Ok(None) => continue,
                    Err(_) => return, // client hung up: done
                }
            }
        });
        let router = router_over(fast_cfg(), &[("grumpy", &addr)]);
        let err = router
            .infer(3, &x())
            .expect_err("the node refuses everything");
        match err {
            ServeError::Rejected(reason) => {
                assert!(reason.contains("synthetic backpressure"), "{reason}")
            }
            other => panic!("expected Rejected, got {other}"),
        }
        assert_eq!(router.metrics().rejected, 1);
        drop(router); // closes the pooled connection so the node exits
        node.join().expect("fake node");
    }

    #[test]
    fn all_replicas_down_is_an_immediate_refusal_not_a_hang() {
        let router = router_over(
            fast_cfg(),
            &[("corpse-a", &refused_addr()), ("corpse-b", &refused_addr())],
        );
        // First request pays the (bounded) connect attempts and marks both
        // replicas down...
        let err = router.infer(4, &x()).expect_err("both replicas are dead");
        assert!(matches!(err, ServeError::NoWorkers), "{err}");
        // ...so inside the backoff window the verdict is immediate: no
        // node is dialed at all.
        let t0 = Instant::now();
        let err = router
            .infer(4, &x())
            .expect_err("still dead, now known dead");
        assert!(matches!(err, ServeError::NoWorkers), "{err}");
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "known-dead shard cost {:?}",
            t0.elapsed()
        );
        assert!(router.metrics().unroutable >= 1);
    }

    #[test]
    fn a_dead_router_is_invisible_to_a_client_retrying_across_the_list() {
        // Two independent router fronts over the same node. The client
        // holds the *list* of routers, not one router — the replicated
        // tier's contract is that any router serves any request, so a
        // dead entry costs a reconnect, never a lost request.
        let (node_addr, stop, node) = serving_node(1.0);
        let mk = || router_over(fast_cfg(), &[("spine", &node_addr)]);
        let mut r0 = RouterNode::spawn(mk(), None).expect("router 0");
        let r1 = RouterNode::spawn(mk(), None).expect("router 1");
        let addrs = [r0.addr().to_string(), r1.addr().to_string()];

        // The client protocol under test: walk the list, skipping entries
        // that refuse or fail; a request is lost only if *every* router is.
        let complete = |key: u64| -> Tensor {
            for addr in &addrs {
                if let Ok(client) = TcpClient::connect_timeout(addr, Duration::from_millis(250)) {
                    if let Ok(out) = client
                        .with_timeout(Duration::from_secs(1))
                        .infer_keyed(key, &x())
                    {
                        return out;
                    }
                }
            }
            panic!("no router in the list answered");
        };

        assert!(complete(7).allclose(&tagged(1.0), 0.0));
        r0.kill();
        // The first list entry now refuses at connect; the retry lands on
        // the survivor and the request completes — the kill is invisible
        // in the response, and cheap.
        let t0 = Instant::now();
        assert!(complete(8).allclose(&tagged(1.0), 0.0));
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "failover across the router list took {:?}",
            t0.elapsed()
        );
        assert!(!r0.is_up() && r1.is_up());

        drop(r1);
        stop.store(true, Ordering::SeqCst);
        node.join().expect("serving node");
    }

    #[test]
    fn a_partitioned_node_is_covered_by_its_replica_until_the_window_heals() {
        // Two serving nodes, replication 2, and a seeded fault plan that
        // severs the router→node-a link for a 500 ms window. Inside the
        // window the replica covers; after it heals, a probe returns
        // traffic to the primary.
        let (addr_a, stop_a, node_a) = serving_node(1.0);
        let (addr_b, stop_b, node_b) = serving_node(2.0);
        let mut cfg = fast_cfg();
        cfg.probe_backoff = Duration::from_millis(50);
        let shards = cfg.shards;
        let replication = cfg.replication;
        let router = router_over(cfg, &[("node-a", &addr_a), ("node-b", &addr_b)]);
        let ids = vec!["node-a".to_string(), "node-b".to_string()];
        let key = key_preferring_first(&ids, shards, replication);

        let plan = FaultPlan::new(
            FaultSpec {
                partitions: vec![PartitionWindow {
                    from: Duration::ZERO,
                    to: Duration::from_millis(500),
                    peer_match: Some("node-a".into()),
                }],
                ..FaultSpec::default()
            },
            11,
        );
        router.set_fault_plan(Some(plan.clone()));
        plan.arm();

        // Inside the window: the primary is unreachable, the replica
        // covers, the request completes — a partition is latency plus a
        // health verdict, never a drop.
        let out = router
            .infer(key, &x())
            .expect("the replica must cover the partitioned primary");
        assert!(
            out.allclose(&tagged(2.0), 0.0),
            "the replica (node-b) must have answered"
        );
        // The router refuses a severed link *before* dialing (no transport
        // op runs, so the plan's `severed` op counter stays 0 by design);
        // the observable effects are the replica's link attaching and the
        // primary's down verdict below.
        assert!(plan.report().links >= 1, "{}", plan.report());
        let node_a_status = |router: &Router| {
            router
                .metrics()
                .nodes
                .into_iter()
                .find(|n| n.id == "node-a")
                .expect("node-a row")
        };
        assert!(
            !node_a_status(&router).up,
            "the severed attempt must mark the primary down"
        );

        // After the window and the probe backoff, the next request probes
        // the primary and traffic returns to it.
        std::thread::sleep(Duration::from_millis(600));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let out = router.infer(key, &x()).expect("post-heal request");
            if out.allclose(&tagged(1.0), 0.0) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "node-a never took traffic again after the partition healed"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(node_a_status(&router).up, "healed primary must be up");

        drop(router);
        stop_a.store(true, Ordering::SeqCst);
        stop_b.store(true, Ordering::SeqCst);
        node_a.join().expect("node-a");
        node_b.join().expect("node-b");
    }

    #[test]
    fn a_stale_epoch_router_serves_through_an_unseen_leave_then_gossip_heals_it() {
        // node-a leaves through router A only: router B keeps serving
        // from a stale membership epoch. Staleness must cost B a bounded
        // link failure per request (the corpse refuses, the replica
        // serves) — never an admitted request — and one anti-entropy
        // exchange must heal the view entirely.
        let (addr_b, stop_b, node_b) = serving_node(2.0);
        let corpse = refused_addr();
        let mk = |id: &str| {
            let mut cfg = fast_cfg();
            cfg.id = id.into();
            Router::new(cfg)
        };
        let a = mk("router-a");
        let b = mk("router-b");
        for router in [&a, &b] {
            router.join("node-a", &corpse);
            router.join("node-b", &addr_b);
        }
        b.gossip_with(&a);
        assert_eq!(a.membership_epoch(), b.membership_epoch());

        a.leave("node-a");
        assert!(
            a.membership_epoch() > b.membership_epoch(),
            "the leave must advance A past B's stale epoch"
        );

        // A request through stale B aimed at the departed node: the
        // corpse costs a connect refusal, the replica completes it.
        let ids = vec!["node-a".to_string(), "node-b".to_string()];
        let key = key_preferring_first(&ids, RouterConfig::default().shards, 2);
        let out = b
            .infer(key, &x())
            .expect("a stale view must still complete requests");
        assert!(out.allclose(&tagged(2.0), 0.0));
        assert!(
            b.member_ids().contains(&"node-a".to_string()),
            "still stale"
        );

        // One push-pull exchange adopts the tombstone: epochs agree, the
        // member list shrinks, and no shard lists the corpse anymore.
        b.gossip_with(&a);
        assert_eq!(b.membership_epoch(), a.membership_epoch());
        assert_eq!(b.member_ids(), vec!["node-b".to_string()]);
        for shard in 0..RouterConfig::default().shards {
            assert!(
                !b.shard_replicas(shard).contains(&"node-a".to_string()),
                "shard {shard} still routes to the departed node"
            );
        }

        drop((a, b));
        stop_b.store(true, Ordering::SeqCst);
        node_b.join().expect("node-b");
    }
}
