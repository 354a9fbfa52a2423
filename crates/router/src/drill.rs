//! The cluster drill: open-loop Poisson traffic through the router list
//! of a [`DynamicCluster`] while a chaos thread works through one
//! schedule of disruptions — a router killed, a node joined, a node
//! partitioned away under a seeded [`FaultPlan`], nodes killed and
//! restarted, a hot swap rolled across the cluster — with every accepted
//! answer checked bit-identically against a single-process oracle.
//!
//! The drill's contract is the cluster tier's contract:
//!
//! * **Zero admitted requests dropped** — a request a router admits is
//!   either answered with logits or refused *explicitly*; clients retry
//!   across the router list, so only a cluster-wide refusal surfaces,
//!   and the drill counts those separately so a passing run can require
//!   exactly zero.
//! * **Bit-identical logits** — replication, retry, restart, injected
//!   duplicates, and the rolling swap must never change an answer: every
//!   completion is compared `allclose(·, 0.0)` against `forward_subnet`
//!   on an oracle copy of the model.
//! * **One unavailable node at a time** — with `replication = 2` the
//!   cluster tolerates exactly that, so node kills and the rolling swap
//!   start only after the partition window has closed and every router
//!   sees every node healthy again, and each restart is re-learned by
//!   every router before the next disruption (a real operator would hold
//!   a rollout during an incident, too).
//! * **Replayable** — inputs, arrivals, gossip peer choices, and the
//!   fault schedule all derive from the one seed in the config.

use crate::cluster::{DynamicCluster, DynamicClusterConfig};
use crate::router::{RouterConfig, RouterMetrics};
use fluid_dist::{FaultPlan, FaultReport, FaultSpec, PartitionWindow};
use fluid_models::{ConvNet, SubnetSpec};
use fluid_serve::loadgen::{run_open_loop_indexed, LoadgenReport};
use fluid_serve::{ServeConfig, ServeError, TcpClient};
use fluid_tensor::{Prng, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shape of one drill run: the cluster, the traffic, and which
/// disruptions the chaos thread performs. [`Default`] is the chaos
/// schedule (one router; a node kill/restart cycle, then a rolling
/// swap); [`DrillConfig::faults`] is the fault schedule (two routers; a
/// router kill, a node join, and a seeded fault plan with a partition
/// window). Every step is independently switchable.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DrillConfig {
    /// Serve nodes to boot (announced to every router).
    pub nodes: usize,
    /// Engine workers per node.
    pub workers_per_node: usize,
    /// Routers to boot (front-end each, gossip between them when there
    /// is more than one). Must be ≥ 2 when `kill_router` is set.
    pub routers: usize,
    /// Replicas per shard (must be ≥ 2 for any step that takes a node
    /// away: a kill, the swap's cordon, the partition).
    pub replication: usize,
    /// Poisson arrival rate, requests/s.
    pub lambda: f64,
    /// Total arrivals to generate.
    pub requests: usize,
    /// Concurrent submitter threads draining the arrival process.
    pub concurrency: usize,
    /// Kill one router (the last one) mid-run; clients must ride through
    /// by retrying across the router list.
    pub kill_router: bool,
    /// Boot one extra node mid-run; routers must learn it from its
    /// announcements alone.
    pub join_node: bool,
    /// Partition window `(from, to)` severing every router's links to
    /// `node-0`, measured from traffic start. Replication must cover the
    /// window; it heals on schedule.
    pub partition: Option<(Duration, Duration)>,
    /// Probability a router→node message is silently dropped (surfaces
    /// upstream as a reply deadline, then a retry on the replica).
    pub drop_p: f64,
    /// Probability a router→node message is delivered twice (the reply
    /// matcher must not be confused by the echo).
    pub duplicate_p: f64,
    /// Kill → restart cycles (round-robin over the nodes), run after the
    /// partition window has closed.
    pub kill_cycles: usize,
    /// Whether to finish with one rolling hot swap across the cluster
    /// (same weights — a rolling "rebuild", so answers stay
    /// bit-identical).
    pub rolling_swap: bool,
    /// Pause before the first chaos action, and after each one.
    pub chaos_pause: Duration,
    /// Seed for inputs, arrivals, gossip schedules, and the fault plan —
    /// one seed replays the whole run, faults included.
    pub seed: u64,
    /// Per-node serving configuration.
    pub serve: ServeConfig,
}

impl Default for DrillConfig {
    fn default() -> DrillConfig {
        DrillConfig {
            nodes: 3,
            workers_per_node: 1,
            routers: 1,
            replication: 2,
            lambda: 150.0,
            requests: 300,
            concurrency: 16,
            kill_router: false,
            join_node: false,
            partition: None,
            drop_p: 0.0,
            duplicate_p: 0.0,
            kill_cycles: 1,
            rolling_swap: true,
            chaos_pause: Duration::from_millis(150),
            seed: 42,
            serve: ServeConfig::default(),
        }
    }
}

impl DrillConfig {
    /// The fault schedule: two gossiping routers, one of them killed
    /// mid-run, a node joining mid-run, and a fault plan that drops and
    /// duplicates router→node messages and severs `node-0` for two
    /// seconds — no node kills, no swap.
    pub fn faults() -> DrillConfig {
        DrillConfig {
            routers: 2,
            lambda: 120.0,
            requests: 240,
            concurrency: 12,
            kill_router: true,
            join_node: true,
            partition: Some((Duration::from_millis(300), Duration::from_millis(2300))),
            drop_p: 0.02,
            duplicate_p: 0.02,
            kill_cycles: 0,
            rolling_swap: false,
            chaos_pause: Duration::from_millis(200),
            ..DrillConfig::default()
        }
    }

    /// Checks that the cluster's redundancy covers the chaos asked of it
    /// and that the traffic shape is well-formed.
    ///
    /// # Errors
    ///
    /// A one-line description of the first violated precondition.
    pub fn check(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err(
                "nodes must be at least 2 (a one-node cluster is just a serve node)".into(),
            );
        }
        if self.routers == 0 {
            return Err("routers must be at least 1".into());
        }
        if self.kill_router && self.routers < 2 {
            return Err(
                "killing the only router is guaranteed unavailability (kill_router needs \
                 routers >= 2)"
                    .into(),
            );
        }
        let takes_a_node = self.kill_cycles > 0 || self.rolling_swap || self.partition.is_some();
        if self.replication < 2 && takes_a_node {
            return Err(
                "replication 1 under a node kill, a rolling swap or a partition is \
                 guaranteed data loss"
                    .into(),
            );
        }
        if !(self.lambda.is_finite() && self.lambda > 0.0) {
            return Err(format!(
                "lambda must be a positive arrival rate, got {}",
                self.lambda
            ));
        }
        if self.requests == 0 || self.concurrency == 0 {
            return Err("requests and concurrency must be at least 1".into());
        }
        for (name, p) in [("drop_p", self.drop_p), ("duplicate_p", self.duplicate_p)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        if self.drop_p + self.duplicate_p > 1.0 {
            return Err("drop_p + duplicate_p must be at most 1".into());
        }
        Ok(())
    }
}

/// What the chaos thread did.
#[derive(Debug, Clone, Copy, Default)]
struct Disruptions {
    router_kills: usize,
    joins: usize,
    kills: usize,
    restarts: usize,
    swaps: usize,
}

/// What one drill run did and observed.
#[derive(Debug, Clone)]
pub struct DrillReport {
    /// The traffic ledger: submitted / completed / shed / failed.
    pub loadgen: LoadgenReport,
    /// Completions whose logits differed from the oracle (must be 0).
    pub mismatched: usize,
    /// Requests some router admitted but then refused downstream after
    /// the client exhausted its retries — every error other than
    /// admission-control [`ServeError::Overloaded`] (must be 0 for a
    /// passing drill).
    pub rejected_downstream: usize,
    /// Routers killed mid-run.
    pub router_kills: usize,
    /// Nodes joined mid-run.
    pub joins: usize,
    /// Nodes the chaos thread killed.
    pub kills: usize,
    /// Nodes the chaos thread restarted (fresh port, re-announced).
    pub restarts: usize,
    /// Nodes the rolling swap replaced in place.
    pub swaps: usize,
    /// What the fault plan's links actually did.
    pub faults: FaultReport,
    /// Whether the surviving routers re-converged after the run.
    pub converged: bool,
    /// Final counters of every surviving router.
    pub routers: Vec<RouterMetrics>,
}

impl DrillReport {
    /// Whether the run met the cluster tier's contract: every arrival
    /// accounted for, zero admitted requests dropped or refused
    /// downstream, every answer bit-identical to the oracle, and the
    /// surviving routers agreeing on a healthy final membership.
    pub fn passed(&self) -> bool {
        self.loadgen.failed == 0
            && self.rejected_downstream == 0
            && self.mismatched == 0
            && self.converged
            && self.loadgen.completed + self.loadgen.shed == self.loadgen.submitted
    }
}

impl std::fmt::Display for DrillReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "drill: {} | submitted {} | completed {} | shed {} | failed {} | mismatched {} | \
             downstream rejects {}",
            if self.passed() { "PASS" } else { "FAIL" },
            self.loadgen.submitted,
            self.loadgen.completed,
            self.loadgen.shed,
            self.loadgen.failed,
            self.mismatched,
            self.rejected_downstream
        )?;
        writeln!(
            f,
            "chaos: router kills {} | joins {} | node kills {} | restarts {} | rolling swaps {} | \
             converged {} | achieved {:.1} req/s",
            self.router_kills,
            self.joins,
            self.kills,
            self.restarts,
            self.swaps,
            if self.converged { "yes" } else { "NO" },
            self.loadgen.achieved_rps
        )?;
        writeln!(f, "{}", self.faults)?;
        for r in &self.routers {
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

/// One submitter's set of per-router connections, checked out of a pool
/// around each request so clients are reused, not re-dialed.
type ClientSet = Vec<Option<TcpClient>>;

/// Bound on a client dialing a router, and on a router dialing a node.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// A client's patience for one router round trip.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// Submits one keyed request through the router list, retrying across
/// routers (and briefly across time) so only a *cluster-wide* refusal
/// surfaces: a dead router, a dropped reply, or a partitioned node must
/// be absorbed by another router, a retry, or a replica.
fn submit_via_routers(
    clients: &mut ClientSet,
    addrs: &[String],
    k: usize,
    x: &Tensor,
) -> Result<Tensor, ServeError> {
    const PASSES: usize = 3;
    let mut last: Option<ServeError> = None;
    for pass in 0..PASSES {
        if pass > 0 {
            std::thread::sleep(Duration::from_millis(50));
        }
        for attempt in 0..addrs.len() {
            let i = (k + attempt) % addrs.len();
            if clients[i].is_none() {
                clients[i] = TcpClient::connect_timeout(&addrs[i], CONNECT_TIMEOUT)
                    .ok()
                    .map(|c| c.with_timeout(CLIENT_TIMEOUT));
            }
            let Some(client) = clients[i].as_mut() else {
                continue; // router unreachable (likely killed): next one
            };
            match client.infer_keyed(k as u64, x) {
                Ok(logits) => return Ok(logits),
                Err(ServeError::Rejected(reason)) => {
                    if reason.contains("overloaded") {
                        // Admission shed: an explicit verdict, not a drop.
                        return Err(ServeError::Overloaded { queue_cap: 0 });
                    }
                    // "no live workers" or a downstream refusal: this
                    // router's view may be stale — try the others, then
                    // wait out a gossip/probe beat and try again.
                    last = Some(ServeError::Rejected(reason));
                }
                Err(e) => {
                    // Transport-level failure: the connection is suspect
                    // (killed router, mid-request silence). Drop it and
                    // move on; the next pass re-dials.
                    clients[i] = None;
                    last = Some(e);
                }
            }
        }
    }
    Err(last.unwrap_or(ServeError::NoWorkers))
}

/// Holds the next node disruption until every living router sees every
/// living node healthy at its current address — the one-unavailable-
/// node-at-a-time rule. Live traffic does the probing, so a cluster that
/// stays unhealthy (or traffic that ended first) is an error, never a
/// silent overlap.
fn healed(cluster: &DynamicCluster) -> Result<(), ServeError> {
    if cluster.wait_converged(Duration::from_secs(10)) {
        return Ok(());
    }
    Err(ServeError::Elastic(
        "routers did not re-converge on a healthy cluster; refusing to overlap the next node \
         disruption"
            .into(),
    ))
}

/// The chaos schedule, in order: router kill, node join, then — once the
/// partition window (if any) has closed — the node kill/restart cycles
/// and the rolling swap.
fn disrupt(
    cluster: &mut DynamicCluster,
    net: &ConvNet,
    spec: &SubnetSpec,
    cfg: &DrillConfig,
    armed: Instant,
) -> Result<Disruptions, ServeError> {
    let mut done = Disruptions::default();
    let pause = || std::thread::sleep(cfg.chaos_pause);
    pause(); // let traffic build up
    if cfg.kill_router {
        cluster.kill_router(cfg.routers - 1);
        done.router_kills += 1;
        pause();
    }
    if cfg.join_node {
        cluster.join_node()?;
        done.joins += 1;
        pause();
    }
    if cfg.kill_cycles == 0 && !cfg.rolling_swap {
        return Ok(done);
    }
    if let Some((_, to)) = cfg.partition {
        std::thread::sleep(to.saturating_sub(armed.elapsed()));
    }
    healed(cluster)?;
    for cycle in 0..cfg.kill_cycles {
        let victim = cycle % cfg.nodes;
        cluster.crash_node(victim);
        done.kills += 1;
        pause();
        cluster.restart_node(victim)?;
        done.restarts += 1;
        healed(cluster)?;
        pause();
    }
    if cfg.rolling_swap {
        // Same weights: a rolling rebuild. Bit-identical answers stay
        // provable while every node is replaced in place.
        let patience = Duration::from_secs(10);
        done.swaps = cluster.rolling_swap(net, spec, patience, patience)?;
    }
    Ok(done)
}

/// Runs one drill: boot a [`DynamicCluster`], converge, arm a seeded
/// [`FaultPlan`] on every router, then drive open-loop Poisson traffic
/// through the router list while the chaos thread performs the
/// configured disruptions (see [`DrillConfig`]).
///
/// The whole cluster lives in this process; the only network involved is
/// loopback TCP. Thread interleaving varies between runs, but the
/// *contract* — zero drops, zero mismatches — must hold under every
/// interleaving, and the same seed replays the same inputs, arrivals,
/// gossip schedule, and fault schedule.
///
/// # Errors
///
/// Infrastructure failures only (boot, join, restart, or swap machinery,
/// or a cluster that never became healthy enough for the next node
/// disruption); per-request failures are *reported*, so a failing drill
/// comes back as a [`DrillReport`] whose [`passed`](DrillReport::passed)
/// is false.
///
/// # Panics
///
/// If [`DrillConfig::check`] refuses the config (chaos its redundancy
/// cannot cover is a configuration error, not a finding), or if the
/// cluster does not converge within 30 s of boot (the drill would be
/// measuring noise).
pub fn run_drill(
    net: &ConvNet,
    spec: &SubnetSpec,
    cfg: DrillConfig,
) -> Result<DrillReport, ServeError> {
    if let Err(why) = cfg.check() {
        panic!("drill config refused: {why}");
    }

    // Deterministic inputs and their single-process oracle answers.
    let arch = net.arch();
    let dims = [1, arch.image_channels, arch.image_side, arch.image_side];
    let mut rng = Prng::new(cfg.seed);
    let inputs: Vec<Tensor> = (0..16)
        .map(|_| Tensor::from_fn(&dims, |_| rng.next_f32()))
        .collect();
    let mut oracle = net.clone();
    let expected: Vec<Tensor> = inputs
        .iter()
        .map(|x| oracle.forward_subnet(x, spec, false))
        .collect();

    let cluster_cfg = DynamicClusterConfig {
        nodes: cfg.nodes,
        workers_per_node: cfg.workers_per_node,
        routers: cfg.routers,
        serve: cfg.serve.clone(),
        router: RouterConfig {
            replication: cfg.replication,
            connect_timeout: CONNECT_TIMEOUT,
            // Low enough that a dropped reply turns into a retry well
            // inside the client's patience.
            request_timeout: Duration::from_millis(800),
            probe_backoff: Duration::from_millis(50),
            ..RouterConfig::default()
        },
        seed: cfg.seed,
        ..DynamicClusterConfig::default()
    };
    let mut cluster = DynamicCluster::boot(net, spec, cluster_cfg)?;
    assert!(
        cluster.wait_converged(Duration::from_secs(30)),
        "cluster never converged before traffic"
    );

    // One shared fault plan (clones share schedule, clock, counters):
    // every router's node links draw from it, and the partition window is
    // measured from the single arm() below.
    let plan = FaultPlan::new(
        FaultSpec {
            drop_p: cfg.drop_p,
            duplicate_p: cfg.duplicate_p,
            partitions: cfg
                .partition
                .iter()
                .map(|&(from, to)| PartitionWindow {
                    from,
                    to,
                    peer_match: Some("node-0".to_string()),
                })
                .collect(),
            ..FaultSpec::default()
        },
        cfg.seed,
    );
    for r in 0..cluster.routers_len() {
        cluster
            .router(r)
            .router()
            .set_fault_plan(Some(plan.clone()));
    }

    let addrs: Vec<String> = cluster.router_addrs().to_vec();
    let mismatched = AtomicUsize::new(0);
    let rejected_downstream = AtomicUsize::new(0);
    let pool: Mutex<Vec<ClientSet>> = Mutex::new(Vec::new());

    plan.arm(); // the partition clock starts with the traffic
    let armed = Instant::now();
    let (loadgen, chaos) = std::thread::scope(|scope| {
        // Chaos owns the cluster; traffic only knows the router list.
        let chaos = scope.spawn(|| disrupt(&mut cluster, net, spec, &cfg, armed));

        let loadgen = run_open_loop_indexed(
            |k| {
                let x = &inputs[k % inputs.len()];
                let mut clients = lock_pool(&pool)
                    .pop()
                    .unwrap_or_else(|| addrs.iter().map(|_| None).collect());
                let result = submit_via_routers(&mut clients, &addrs, k, x);
                lock_pool(&pool).push(clients);
                match result {
                    Ok(got) => {
                        if !got.allclose(&expected[k % expected.len()], 0.0) {
                            mismatched.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(got)
                    }
                    Err(e) => {
                        if !matches!(e, ServeError::Overloaded { .. }) {
                            rejected_downstream.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e)
                    }
                }
            },
            cfg.concurrency,
            cfg.lambda,
            cfg.requests,
            cfg.seed,
        );
        let chaos = chaos
            .join()
            .unwrap_or_else(|_| Err(ServeError::Elastic("chaos thread panicked".into())));
        (loadgen, chaos)
    });
    let done = chaos?;

    // Let the partition heal before judging convergence.
    if let Some((_, to)) = cfg.partition {
        std::thread::sleep(to.saturating_sub(armed.elapsed()));
    }
    // Health is passive — a marked-down node only comes back when a
    // request probes it — so drive a light settling trickle through the
    // survivors until every router has re-probed the healed nodes (or the
    // timeout names the failure). Heartbeats keep the probes expedited;
    // the trickle is what executes them. A run that ended healthy sends
    // none.
    let converged = {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut key = 0u64;
        loop {
            if cluster.wait_converged(Duration::from_millis(100)) {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            for r in 0..cluster.routers_len() {
                if !cluster.router(r).is_up() {
                    continue;
                }
                let router = cluster.router(r).router();
                for _ in 0..8 {
                    let _ = router.infer(key, &inputs[key as usize % inputs.len()]);
                    key += 1;
                }
            }
        }
    };

    let routers = (0..cluster.routers_len())
        .filter(|&r| cluster.router(r).is_up())
        .map(|r| cluster.router(r).router().metrics())
        .collect();
    Ok(DrillReport {
        loadgen,
        mismatched: mismatched.into_inner(),
        rejected_downstream: rejected_downstream.into_inner(),
        router_kills: done.router_kills,
        joins: done.joins,
        kills: done.kills,
        restarts: done.restarts,
        swaps: done.swaps,
        faults: plan.report(),
        converged,
        routers,
    })
}

/// Locks the client pool, recovering from a poisoned lock (a panicked
/// submitter forfeits its client set; others keep theirs).
fn lock_pool(pool: &Mutex<Vec<ClientSet>>) -> std::sync::MutexGuard<'_, Vec<ClientSet>> {
    pool.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluid_models::{Arch, FluidModel};

    fn model() -> (ConvNet, SubnetSpec) {
        let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(3));
        let spec = model.spec("combined100").expect("spec").clone();
        (model.net().clone(), spec)
    }

    /// `base` with every disruption switched off and a short, slow run.
    fn quiet(base: DrillConfig) -> DrillConfig {
        DrillConfig {
            nodes: 2,
            lambda: 80.0,
            requests: 30,
            concurrency: 6,
            kill_router: false,
            join_node: false,
            partition: None,
            drop_p: 0.0,
            duplicate_p: 0.0,
            kill_cycles: 0,
            rolling_swap: false,
            ..base
        }
    }

    #[test]
    fn quiet_drills_without_chaos_are_clean_on_one_router_and_on_two() {
        // Sanity for the harness itself: announced membership, a benign
        // plan, no disruption — nothing may be shed, refused, or
        // mismatched, with or without gossip between routers.
        let (net, spec) = model();
        for base in [DrillConfig::default(), DrillConfig::faults()] {
            let routers = base.routers;
            let report = run_drill(&net, &spec, quiet(base)).expect("drill");
            assert!(report.passed(), "quiet drill failed:\n{report}");
            assert_eq!(report.loadgen.completed, 30, "{report}");
            assert_eq!(report.routers.len(), routers, "{report}");
            assert_eq!(
                report.kills + report.restarts + report.swaps + report.router_kills + report.joins,
                0
            );
            let text = report.to_string();
            assert!(text.contains("PASS"), "{text}");
            assert!(text.contains("node kills 0"), "{text}");
        }
    }

    #[test]
    #[should_panic(expected = "guaranteed data loss")]
    fn killing_at_replication_one_is_refused() {
        let (net, spec) = model();
        let cfg = DrillConfig {
            replication: 1,
            ..DrillConfig::default()
        };
        let _ = run_drill(&net, &spec, cfg);
    }

    #[test]
    #[should_panic(expected = "guaranteed unavailability")]
    fn killing_the_only_router_is_refused() {
        let (net, spec) = model();
        let cfg = DrillConfig {
            routers: 1,
            ..DrillConfig::faults()
        };
        let _ = run_drill(&net, &spec, cfg);
    }

    #[test]
    fn every_node_step_at_replication_one_is_refused_and_none_is_fine() {
        let r1 = DrillConfig {
            replication: 1,
            ..quiet(DrillConfig::default())
        };
        assert!(r1.check().is_ok());
        let steps: [fn(&mut DrillConfig); 3] = [
            |c| c.kill_cycles = 1,
            |c| c.rolling_swap = true,
            |c| c.partition = Some((Duration::ZERO, Duration::from_secs(1))),
        ];
        for step in steps {
            let mut cfg = r1.clone();
            step(&mut cfg);
            let why = cfg.check().expect_err("a node step at replication 1");
            assert!(why.contains("replication"), "{why}");
        }
    }

    #[test]
    fn node_kills_and_the_swap_wait_for_the_partition_to_close() {
        // Both schedules at once: the node kill and the swap may only
        // start after node-0's partition window has closed and healed, so
        // the run passes with every disruption performed.
        let (net, spec) = model();
        let cfg = DrillConfig {
            nodes: 3,
            lambda: 100.0,
            requests: 250,
            partition: Some((Duration::from_millis(100), Duration::from_millis(700))),
            kill_cycles: 1,
            rolling_swap: true,
            ..DrillConfig::faults()
        };
        let report = run_drill(&net, &spec, cfg).expect("drill");
        assert!(report.passed(), "{report}");
        assert_eq!(
            (
                report.router_kills,
                report.joins,
                report.kills,
                report.restarts
            ),
            (1, 1, 1, 1),
            "{report}"
        );
        assert_eq!(report.swaps, 4, "three booted nodes + the joined one");
    }
}
