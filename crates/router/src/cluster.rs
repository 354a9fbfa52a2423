//! The cluster harness: N announcing serve nodes behind R
//! gossip-replicated routers.
//!
//! Every node runs a background [`Announcer`](fluid_serve::Announcer)
//! that Joins and heartbeats every router, every router runs a TCP
//! front-end ([`route_tcp`]) plus — when it has peers — a gossip thread
//! ([`spawn_gossip`]), and nothing is wired by hand: a router learns the
//! cluster from announcements and from its peers, and clients learn to
//! survive a router by retrying across the router list. A "static"
//! cluster is this harness with `routers: 1`: the same nodes, announced
//! at boot, with no gossip thread. The harness also owns the
//! cluster-level orchestration a single node cannot express — restart on
//! a fresh port ([`DynamicCluster::restart_node`]) and the node-by-node
//! rolling hot swap ([`DynamicCluster::rolling_swap`]) — and is what the
//! drill ([`run_drill`](crate::run_drill)) runs against.

use crate::gossip::{spawn_gossip, GossipConfig};
use crate::node::ServeNode;
use crate::router::{route_tcp, Router, RouterConfig};
use fluid_models::{ConvNet, SubnetSpec};
use fluid_serve::{AnnounceConfig, Announcer, ServeConfig, ServeError};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One router process-in-miniature: the [`Router`] state, its TCP
/// front-end thread, and (optionally) its gossip thread, with a kill
/// switch that takes all of it down at once — the unit the drill kills
/// to prove router loss is invisible.
pub struct RouterNode {
    router: Router,
    addr: String,
    shutdown: Arc<AtomicBool>,
    front: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    gossip: Option<std::thread::JoinHandle<()>>,
}

impl RouterNode {
    /// Spawns a router front-end on `listener`, plus a gossip thread when
    /// `gossip` is given.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when the listener's local address cannot
    /// be read.
    pub fn spawn_on(
        listener: TcpListener,
        router: Router,
        gossip: Option<GossipConfig>,
    ) -> Result<RouterNode, ServeError> {
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Transport(e.to_string()))?
            .to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let front = {
            let (router, shutdown) = (router.clone(), Arc::clone(&shutdown));
            std::thread::spawn(move || route_tcp(listener, router, shutdown))
        };
        let gossip = gossip.map(|cfg| spawn_gossip(router.clone(), cfg, Arc::clone(&shutdown)));
        Ok(RouterNode {
            router,
            addr,
            shutdown,
            front: Some(front),
            gossip,
        })
    }

    /// Spawns on a fresh loopback port.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when the port cannot be bound.
    pub fn spawn(router: Router, gossip: Option<GossipConfig>) -> Result<RouterNode, ServeError> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| ServeError::Transport(format!("bind router: {e}")))?;
        RouterNode::spawn_on(listener, router, gossip)
    }

    /// The router state behind this front-end (cheap clone; see
    /// [`Router`]).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The front-end's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the front-end is still accepting.
    pub fn is_up(&self) -> bool {
        self.front.is_some()
    }

    /// Kills the router: front-end and gossip stop, open client
    /// connections die. Idempotent. The [`Router`] state survives (it is
    /// shared), but nothing serves it anymore — from a client's point of
    /// view this router is gone.
    pub fn kill(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(front) = self.front.take() {
            let _ = front.join();
        }
        if let Some(gossip) = self.gossip.take() {
            let _ = gossip.join();
        }
    }
}

impl Drop for RouterNode {
    fn drop(&mut self) {
        self.kill();
    }
}

impl std::fmt::Debug for RouterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterNode")
            .field("addr", &self.addr)
            .field("up", &self.is_up())
            .finish_non_exhaustive()
    }
}

/// Shape of a [`DynamicCluster`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DynamicClusterConfig {
    /// Serve nodes to boot (`node-0` …).
    pub nodes: usize,
    /// Engine workers per node.
    pub workers_per_node: usize,
    /// Routers to boot (`router-0` …), each with a TCP front-end and —
    /// when there is more than one — a gossip thread over the others.
    pub routers: usize,
    /// Per-node serving configuration.
    pub serve: ServeConfig,
    /// Router template; each router gets it with its own `id`.
    pub router: RouterConfig,
    /// Gossip cadence between routers.
    pub gossip_interval: Duration,
    /// Node heartbeat cadence.
    pub announce_interval: Duration,
    /// Seed for the routers' gossip peer-choice streams.
    pub seed: u64,
}

impl Default for DynamicClusterConfig {
    fn default() -> DynamicClusterConfig {
        DynamicClusterConfig {
            nodes: 3,
            workers_per_node: 1,
            routers: 2,
            serve: ServeConfig::default(),
            router: RouterConfig::default(),
            gossip_interval: Duration::from_millis(100),
            announce_interval: Duration::from_millis(100),
            seed: 0,
        }
    }
}

/// One announcing serve node: the node itself plus its membership
/// announcer (absent after an abrupt kill).
struct Member {
    node: ServeNode,
    announcer: Option<Announcer>,
}

/// N announcing serve nodes behind R gossip-replicated routers. See the
/// module docs for the wiring.
pub struct DynamicCluster {
    members: Vec<Member>,
    routers: Vec<RouterNode>,
    router_addrs: Vec<String>,
    net: ConvNet,
    spec: SubnetSpec,
    cfg: DynamicClusterConfig,
}

impl DynamicCluster {
    /// Boots the routers first (so nodes have someone to announce to),
    /// then the nodes with their announcers. Returns as soon as
    /// everything is *spawned*; call
    /// [`wait_converged`](DynamicCluster::wait_converged) before
    /// asserting on membership.
    ///
    /// # Errors
    ///
    /// Any bind or spawn failure aborts the boot (already-started pieces
    /// are dropped, which kills them).
    ///
    /// # Panics
    ///
    /// If the config asks for zero routers (nodes would announce into the
    /// void).
    pub fn boot(
        net: &ConvNet,
        spec: &SubnetSpec,
        cfg: DynamicClusterConfig,
    ) -> Result<DynamicCluster, ServeError> {
        assert!(cfg.routers >= 1, "a dynamic cluster needs a router");
        // Bind every router port first: gossip configs need the full
        // peer list before any router starts.
        let listeners = (0..cfg.routers)
            .map(|_| {
                TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| ServeError::Transport(format!("bind router: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let router_addrs = listeners
            .iter()
            .map(|l| {
                l.local_addr()
                    .map(|a| a.to_string())
                    .map_err(|e| ServeError::Transport(e.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let routers = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let router = Router::new(RouterConfig {
                    id: format!("router-{i}"),
                    ..cfg.router.clone()
                });
                let peers: Vec<String> = router_addrs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, a)| a.clone())
                    .collect();
                let gossip = (!peers.is_empty()).then(|| GossipConfig {
                    peers,
                    interval: cfg.gossip_interval,
                    seed: cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ..GossipConfig::new(Vec::new())
                });
                RouterNode::spawn_on(listener, router, gossip)
            })
            .collect::<Result<Vec<_>, _>>()?;

        let mut cluster = DynamicCluster {
            members: Vec::new(),
            routers,
            router_addrs,
            net: net.clone(),
            spec: spec.clone(),
            cfg,
        };
        for _ in 0..cluster.cfg.nodes {
            cluster.join_node()?;
        }
        Ok(cluster)
    }

    /// Starts the membership announcer for `node` at its current address.
    fn announce(&self, node: &ServeNode) -> Result<Announcer, ServeError> {
        let cfg = AnnounceConfig {
            interval: self.cfg.announce_interval,
            ..AnnounceConfig::new(node.id(), node.addr(), self.router_addrs.clone())
        };
        Ok(Announcer::spawn(cfg, node.handle()?))
    }

    /// Boots one more serve node (`node-{next}`) with an announcer and
    /// returns its id — the "scale up under traffic" move the drill
    /// performs. The routers learn it from its Join/heartbeats; no
    /// router is touched directly.
    ///
    /// # Errors
    ///
    /// Node spawn failures pass through.
    pub fn join_node(&mut self) -> Result<String, ServeError> {
        let id = format!("node-{}", self.members.len());
        let node = ServeNode::spawn(
            &id,
            &self.net,
            &self.spec,
            self.cfg.workers_per_node,
            self.cfg.serve.clone(),
        )?;
        let announcer = Some(self.announce(&node)?);
        self.members.push(Member { node, announcer });
        Ok(id)
    }

    /// Restarts node `index` (crashing it first if it is still up) on a
    /// fresh port with a fresh announcer. No router is touched: each one
    /// re-addresses the node when its new Join arrives, or learns the new
    /// address from a peer's gossip.
    ///
    /// # Errors
    ///
    /// Spawn failures pass through; the node stays down.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn restart_node(&mut self, index: usize) -> Result<(), ServeError> {
        self.crash_node(index);
        self.members[index].node.restart()?;
        let announcer = self.announce(&self.members[index].node)?;
        self.members[index].announcer = Some(announcer);
        Ok(())
    }

    /// Rolls a new model across the cluster one node at a time: cordon
    /// the node on every live router, wait for their summed in-flight
    /// count on it to reach zero, hot-swap the node in place (its own
    /// zero-drop drain), uncordon on every router, next. With
    /// `replication ≥ 2` every shard keeps a serving replica throughout,
    /// so the cluster as a whole never refuses a shard. Nodes joined
    /// afterwards boot the new model.
    ///
    /// Downed nodes are skipped (a later restart boots the model the
    /// node last held). Returns the number of nodes swapped.
    ///
    /// # Errors
    ///
    /// [`ServeError::Elastic`] when a live router does not know the node
    /// (the cluster has not converged), when the routers' in-flight count
    /// does not drain within `drain_timeout`, or when the node's own hot
    /// swap fails. The node is uncordoned on every router either way — a
    /// failed swap must not leave the cluster smaller.
    pub fn rolling_swap(
        &mut self,
        net: &ConvNet,
        spec: &SubnetSpec,
        drain_timeout: Duration,
        retire_timeout: Duration,
    ) -> Result<usize, ServeError> {
        self.net = net.clone();
        self.spec = spec.clone();
        let routers: Vec<&Router> = self
            .routers
            .iter()
            .filter(|r| r.is_up())
            .map(RouterNode::router)
            .collect();
        let mut swapped = 0;
        for member in self.members.iter_mut().filter(|m| m.node.is_up()) {
            let id = member.node.id().to_string();
            let mut result = routers
                .iter()
                .try_for_each(|r| r.cordon(&id))
                .and_then(|()| drain(&routers, &id, drain_timeout))
                .and_then(|()| member.node.hot_swap(net, spec, retire_timeout));
            for r in &routers {
                result = result.and(r.uncordon(&id));
            }
            result?;
            swapped += 1;
        }
        Ok(swapped)
    }

    /// Gracefully removes node `index`: its announcer sends Leave to
    /// every reachable router, then the node shuts down.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn leave_node(&mut self, index: usize) {
        if let Some(announcer) = self.members[index].announcer.take() {
            announcer.stop();
        }
        self.members[index].node.kill();
    }

    /// Abruptly kills node `index` — no Leave, no goodbye; routers find
    /// out from failed traffic and health marking.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn crash_node(&mut self, index: usize) {
        if let Some(announcer) = self.members[index].announcer.take() {
            announcer.abort();
        }
        self.members[index].node.kill();
    }

    /// Kills router `index` (front-end and gossip). Clients holding its
    /// address must retry elsewhere; surviving routers keep serving.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn kill_router(&mut self, index: usize) {
        self.routers[index].kill();
    }

    /// Every router front-end address, killed ones included — exactly the
    /// list a client should retry across.
    pub fn router_addrs(&self) -> &[String] {
        &self.router_addrs
    }

    /// The router at `index`.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn router(&self, index: usize) -> &RouterNode {
        &self.routers[index]
    }

    /// Number of routers (up or down).
    pub fn routers_len(&self) -> usize {
        self.routers.len()
    }

    /// Number of serve nodes ever booted (alive or not).
    pub fn nodes_len(&self) -> usize {
        self.members.len()
    }

    /// The serve node at `index`.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    pub fn node(&self, index: usize) -> &ServeNode {
        &self.members[index].node
    }

    /// Blocks until every *living* router agrees with the harness about
    /// the cluster: identical membership epochs, exactly the living nodes
    /// at their current addresses, and every one of them healthy. Returns
    /// `false` on timeout — callers assert on it, so a convergence failure
    /// names itself instead of surfacing as downstream flakiness.
    pub fn wait_converged(&self, timeout: Duration) -> bool {
        let mut expected: Vec<(&str, &str)> = self
            .members
            .iter()
            .filter(|m| m.node.is_up())
            .map(|m| (m.node.id(), m.node.addr()))
            .collect();
        expected.sort_unstable();
        let deadline = Instant::now() + timeout;
        loop {
            let live: Vec<&RouterNode> = self.routers.iter().filter(|r| r.is_up()).collect();
            let settled = !live.is_empty()
                && live.iter().all(|r| {
                    let m = r.router().metrics();
                    let mut seen: Vec<(&str, &str)> = m
                        .nodes
                        .iter()
                        .map(|n| (n.id.as_str(), n.addr.as_str()))
                        .collect();
                    seen.sort_unstable();
                    seen == expected && m.nodes.iter().all(|n| n.up)
                })
                && live
                    .windows(2)
                    .all(|w| w[0].router().membership_epoch() == w[1].router().membership_epoch());
            if settled {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Waits until no router has a request in flight to node `id`.
fn drain(routers: &[&Router], id: &str, timeout: Duration) -> Result<(), ServeError> {
    let deadline = Instant::now() + timeout;
    loop {
        let mut in_flight = 0;
        for r in routers {
            in_flight += r.node_in_flight(id)?;
        }
        if in_flight == 0 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(ServeError::Elastic(format!(
                "node {id} did not drain within {timeout:?}"
            )));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

impl std::fmt::Debug for DynamicCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicCluster")
            .field("nodes", &self.members.len())
            .field("routers", &self.routers)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluid_models::{Arch, FluidModel};
    use fluid_serve::TcpClient;
    use fluid_tensor::{Prng, Tensor};

    const PATIENCE: Duration = Duration::from_secs(10);

    fn model() -> (ConvNet, SubnetSpec) {
        let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(11));
        let spec = model.spec("combined100").expect("spec").clone();
        (model.net().clone(), spec)
    }

    /// `nodes` announcing nodes behind `routers` routers on fast cadences;
    /// `routers: 1` is the shape a statically wired cluster used to have.
    fn fast_cfg(nodes: usize, routers: usize) -> DynamicClusterConfig {
        DynamicClusterConfig {
            nodes,
            routers,
            router: RouterConfig {
                connect_timeout: Duration::from_millis(300),
                request_timeout: Duration::from_secs(5),
                probe_backoff: Duration::from_millis(50),
                ..RouterConfig::default()
            },
            gossip_interval: Duration::from_millis(50),
            announce_interval: Duration::from_millis(50),
            ..DynamicClusterConfig::default()
        }
    }

    /// Boots and waits for every router to learn every node.
    fn booted(net: &ConvNet, spec: &SubnetSpec, cfg: DynamicClusterConfig) -> DynamicCluster {
        let cluster = DynamicCluster::boot(net, spec, cfg).expect("boot");
        assert!(
            cluster.wait_converged(PATIENCE),
            "{cluster:?} never converged"
        );
        cluster
    }

    /// A keyed request through every router's front-end must match the
    /// single-process oracle bit for bit.
    fn assert_every_router_routes(cluster: &DynamicCluster, net: &ConvNet, spec: &SubnetSpec) {
        let x = Tensor::from_fn(&[1, 1, 28, 28], |i| (i % 7) as f32 / 7.0);
        let expected = net.clone().forward_subnet(&x, spec, false);
        for r in 0..cluster.routers_len() {
            let mut client = TcpClient::connect(cluster.router(r).addr()).expect("connect");
            let got = client.infer_keyed(5, &x).expect("routed infer");
            assert!(got.allclose(&expected, 0.0), "router {r} diverged");
        }
    }

    #[test]
    fn nodes_announce_themselves_and_routers_converge() {
        let (net, spec) = model();
        let cluster = booted(&net, &spec, fast_cfg(2, 2));
        // Both routers route — no membership was ever wired by hand.
        assert_every_router_routes(&cluster, &net, &spec);
    }

    #[test]
    fn a_restarted_node_is_re_addressed_on_every_router_from_the_wire() {
        let (net, spec) = model();
        let mut cluster = booted(&net, &spec, fast_cfg(2, 2));
        let old_addr = cluster.node(1).addr().to_string();
        cluster.restart_node(1).expect("restart");
        let new_addr = cluster.node(1).addr().to_string();
        assert_ne!(new_addr, old_addr, "restart must take a fresh port");
        assert!(
            cluster.wait_converged(PATIENCE),
            "routers never re-addressed node-1: {cluster:?}"
        );
        for r in 0..cluster.routers_len() {
            let m = cluster.router(r).router().metrics();
            let n1 = m.nodes.iter().find(|n| n.id == "node-1").expect("node-1");
            assert_eq!(n1.addr, new_addr, "router {r} kept the old address");
            assert!(n1.up, "router {r} must see the restarted node up");
        }
        assert_every_router_routes(&cluster, &net, &spec);
    }

    #[test]
    fn graceful_leave_tombstones_the_node_on_every_router() {
        let (net, spec) = model();
        let mut cluster = booted(&net, &spec, fast_cfg(2, 2));
        cluster.leave_node(1);
        assert!(
            cluster.wait_converged(PATIENCE),
            "leave did not converge: {:?} vs {:?}",
            cluster.router(0).router().member_ids(),
            cluster.router(1).router().member_ids(),
        );
        for r in 0..cluster.routers_len() {
            assert_eq!(cluster.router(r).router().member_ids(), vec!["node-0"]);
        }
    }

    #[test]
    fn a_joining_node_is_learned_by_every_router() {
        let (net, spec) = model();
        let mut cluster = booted(&net, &spec, fast_cfg(2, 2));
        let id = cluster.join_node().expect("join");
        assert_eq!(id, "node-2");
        assert!(cluster.wait_converged(PATIENCE), "join did not converge");
        for r in 0..cluster.routers_len() {
            assert!(
                cluster
                    .router(r)
                    .router()
                    .member_ids()
                    .contains(&"node-2".to_string()),
                "router {r} never learned node-2"
            );
        }
    }

    #[test]
    fn a_killed_router_leaves_the_survivor_serving() {
        let (net, spec) = model();
        let mut cluster = booted(&net, &spec, fast_cfg(2, 2));
        cluster.kill_router(0);
        assert!(!cluster.router(0).is_up());
        // Convergence is now defined over the survivor alone.
        assert!(cluster.wait_converged(PATIENCE));
        let x = Tensor::from_fn(&[1, 1, 28, 28], |i| (i % 3) as f32 / 3.0);
        let mut client = TcpClient::connect(cluster.router(1).addr()).expect("survivor");
        client.infer_keyed(9, &x).expect("survivor still routes");
    }

    #[test]
    fn cluster_routes_around_a_killed_node_and_back() {
        let (net, spec) = model();
        let mut cluster = booted(&net, &spec, fast_cfg(3, 1));
        let router = cluster.router(0).router().clone();
        let x = Tensor::from_fn(&[1, 1, 28, 28], |i| (i % 9) as f32 / 9.0);
        let expected = net.clone().forward_subnet(&x, &spec, false);

        // Every key routes correctly on the healthy cluster.
        for key in 0..16u64 {
            let got = router.infer(key, &x).expect("healthy infer");
            assert!(got.allclose(&expected, 0.0), "key {key} diverged");
        }
        // Kill one node: with replication 2 every shard keeps a replica,
        // so every key still gets bit-identical logits (retries allowed).
        cluster.crash_node(1);
        for key in 0..16u64 {
            let got = router.infer(key, &x).expect("degraded infer");
            assert!(
                got.allclose(&expected, 0.0),
                "key {key} diverged while degraded"
            );
        }
        // Restart: the router re-addresses the node from its announcement
        // and the node serves again.
        cluster.restart_node(1).expect("restart");
        assert!(cluster.wait_converged(PATIENCE));
        for key in 0..16u64 {
            router.infer(key, &x).expect("recovered infer");
        }
        let served: u64 = router.metrics().nodes.iter().map(|n| n.served).sum();
        assert_eq!(served, 48, "every request must be served by some node");
    }

    #[test]
    fn tenant_requests_ride_through_the_router_to_a_tenanted_node() {
        use fluid_serve::{TenancyConfig, TenantClass, TenantPolicy};
        let (net, spec) = model();
        let mut cfg = fast_cfg(2, 1);
        cfg.serve.tenancy = Some(TenancyConfig::new(vec![
            TenantPolicy::new(7, "web", TenantClass::Interactive),
            TenantPolicy::new(8, "etl", TenantClass::Batch),
        ]));
        let cluster = booted(&net, &spec, cfg);
        let router = cluster.router(0).router();
        let x = Tensor::from_fn(&[1, 1, 28, 28], |i| (i % 6) as f32 / 6.0);
        let expected = net.clone().forward_subnet(&x, &spec, false);
        for tenant in [7u64, 8] {
            let got = router.infer_tenant(tenant, &x).expect("tenant infer");
            assert!(got.allclose(&expected, 0.0), "tenant {tenant} diverged");
        }
        // A tenant id missing from every node's table is an explicit
        // end-to-end reject, not a timeout or a silent default.
        let err = router.infer_tenant(99, &x).expect_err("unknown tenant");
        match err {
            ServeError::Rejected(reason) => assert!(reason.contains("99"), "{reason}"),
            other => panic!("expected Rejected, got {other}"),
        }
    }

    #[test]
    fn rolling_swap_changes_the_served_model_with_zero_refusals() {
        let (net, spec) = model();
        let mut cluster = booted(&net, &spec, fast_cfg(3, 2));
        let none_cordoned = |cluster: &DynamicCluster| {
            (0..cluster.routers_len()).all(|r| {
                let m = cluster.router(r).router().metrics();
                m.nodes.len() == 3 && m.nodes.iter().all(|n| !n.cordoned)
            })
        };
        let x = Tensor::from_fn(&[1, 1, 28, 28], |i| (i % 4) as f32 / 4.0);
        let replacement = FluidModel::new(Arch::tiny_28(), &mut Prng::new(77));
        let new_spec = replacement.spec("combined100").expect("spec").clone();
        let expected = replacement
            .net()
            .clone()
            .forward_subnet(&x, &new_spec, false);

        let swapped = cluster
            .rolling_swap(replacement.net(), &new_spec, PATIENCE, PATIENCE)
            .expect("rolling swap");
        assert_eq!(swapped, 3);
        for r in 0..cluster.routers_len() {
            for key in 0..12u64 {
                let got = cluster.router(r).router().infer(key, &x).expect("infer");
                assert!(
                    got.allclose(&expected, 0.0),
                    "key {key} not on the new model via router {r}"
                );
            }
        }
        assert!(none_cordoned(&cluster), "swap must uncordon everywhere");

        // A request to node-0 that never finishes, seen by router-1 only:
        // the drain sums over routers, so it cannot complete — and the
        // failed swap must still uncordon the node on every router.
        cluster.router(1).router().pin_in_flight("node-0");
        let err = cluster
            .rolling_swap(&net, &spec, Duration::from_millis(100), PATIENCE)
            .expect_err("the pinned request cannot drain");
        assert!(err.to_string().contains("did not drain"), "{err}");
        assert!(none_cordoned(&cluster), "failure must uncordon everywhere");
    }
}
