//! The routing core: admission control, replica selection, retry, dynamic
//! membership, gossip, and the TCP front-end loop.
//!
//! A [`Router`] owns an **epoch-numbered membership table**: serve nodes
//! join, leave, and heartbeat over the wire ([`Message::Join`] /
//! [`Message::Leave`] / [`Message::NodeHeartbeat`]), and every membership
//! change bumps the epoch and rebuilds the [`ShardMap`] — rendezvous
//! hashing keeps the rebuild minimal-remap. Routers replicate: peers
//! exchange membership records, health verdicts, and per-shard queue
//! depths via anti-entropy gossip ([`Message::Gossip`]), so any router can
//! serve any request and a killed router is invisible to clients that
//! retry across a router list.
//!
//! Each request is hashed to a shard and admitted against that **shard's**
//! queue depth — the router's own in-flight count for the shard plus the
//! freshest gossiped counts from peer routers — with the cap scaled by the
//! shard's live replica count. Admitted requests try the shard's replicas
//! in least-loaded order (local in-flight plus the node's heartbeat-reported
//! queue depth); a replica that rejects or fails costs a retry on the next
//! one, so a request admitted by the router is only refused when *every*
//! replica of its shard has refused it. Health bookkeeping is passive
//! (failures are observed on live traffic) with exponential-backoff
//! probing — see [`HealthState`].

use crate::health::HealthState;
use crate::ring::ShardMap;
use fluid_dist::{FaultPlan, GossipNode, Message, TcpTransport, Transport};
use fluid_perf::LatencyHistogram;
use fluid_serve::{ServeError, TcpClient};
use fluid_tensor::Tensor;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// How often the front-end accept loop and connection threads poll for
/// shutdown (mirrors `fluid_serve::serve_tcp`).
const POLL: Duration = Duration::from_millis(100);

/// Locks a mutex, recovering the guard if a holder panicked — none of the
/// router's guarded state can be left logically inconsistent by a panic
/// (addresses, health enums, connection pools are each updated in one
/// step).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Tuning knobs for a [`Router`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct RouterConfig {
    /// This router's identity in gossip exchanges (`from` in its digests;
    /// peers key their per-router depth tables by it). Must be unique
    /// within a replicated router group.
    pub id: String,
    /// Replicas per shard (clamped to the node count).
    pub replication: usize,
    /// Number of hash buckets the key space is split into.
    pub shards: usize,
    /// Per-shard admission cap, expressed per *live replica* of the shard:
    /// at most `admit_per_node × max(live_replicas, 1)` requests in flight
    /// for one shard — counting this router's own in-flight plus the
    /// freshest gossiped per-shard depths of its peers; everything past
    /// that is shed with [`ServeError::Overloaded`] before any node queue
    /// sees it.
    pub admit_per_node: usize,
    /// Bound on TCP connection establishment to a node.
    pub connect_timeout: Duration,
    /// Bound on one node round trip (send request → receive reply).
    pub request_timeout: Duration,
    /// First mark-down window after a node failure.
    pub probe_backoff: Duration,
    /// Ceiling for the doubling mark-down window.
    pub probe_backoff_max: Duration,
    /// Consecutive `Reject`s from one node before it is marked down (the
    /// node is alive but drowning; give it a backoff window of quiet).
    pub reject_markdown: usize,
    /// How long a peer router's gossiped per-shard depths keep counting
    /// toward admission. Past this age the peer is assumed dead (its
    /// in-flight load died with it) and its depths stop throttling this
    /// router.
    pub peer_depth_ttl: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            id: "router-0".to_string(),
            replication: 2,
            shards: 64,
            admit_per_node: 64,
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(10),
            probe_backoff: Duration::from_millis(100),
            probe_backoff_max: Duration::from_millis(3200),
            reject_markdown: 3,
            peer_depth_ttl: Duration::from_secs(1),
        }
    }
}

/// Decrements a gauge when dropped, so early returns and panics cannot
/// leak in-flight counts.
struct Gauge<'a>(&'a AtomicUsize);

impl Drop for Gauge<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Everything the router tracks about one serve node. Shared via `Arc` so
/// in-flight requests keep a departed node's bookkeeping alive and health
/// history survives shard-map rebuilds.
struct NodeEntry {
    id: String,
    addr: Mutex<String>,
    state: Mutex<HealthState>,
    /// Bumped on every health-state change; orders verdicts across
    /// gossiping routers (higher version wins, down wins ties).
    health_version: AtomicU64,
    /// The node's own serve queue depth, from its last heartbeat.
    queue_depth: AtomicUsize,
    /// Operator-requested: skip for new requests (rolling swap). Local to
    /// this router — never gossiped.
    cordoned: AtomicBool,
    /// Requests currently being served by this node via the router.
    in_flight: AtomicUsize,
    /// Consecutive `Reject` verdicts; any success resets it.
    reject_streak: AtomicUsize,
    /// Requests this node answered with logits.
    served: AtomicU64,
    /// Link-level failures observed (connect/transport/timeout).
    deaths: AtomicU64,
    /// Idle connections, reused across requests.
    pool: Mutex<Vec<TcpClient>>,
}

impl NodeEntry {
    fn new(id: &str, addr: &str, state: HealthState) -> NodeEntry {
        NodeEntry {
            id: id.to_string(),
            addr: Mutex::new(addr.to_string()),
            state: Mutex::new(state),
            health_version: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            cordoned: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            reject_streak: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            deaths: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Applies a health transition, bumping `health_version` iff the state
    /// actually changed (echo failures inside a window change nothing and
    /// must not churn gossip).
    fn transition(&self, f: impl FnOnce(&mut HealthState)) {
        let mut st = lock(&self.state);
        let before = *st;
        f(&mut st);
        if *st != before {
            self.health_version.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// One row of the membership table. `version` is the epoch at which the
/// membership fields (`alive`, address) last changed; gossip merges adopt
/// the higher version. A `!alive` row is a tombstone — kept so a stale
/// peer cannot resurrect a departed node.
struct MemberRecord {
    entry: Arc<NodeEntry>,
    alive: bool,
    version: u64,
}

/// The epoch-numbered membership table plus the shard map built from its
/// living rows. `map` pairs the [`ShardMap`] with the record index of each
/// mapped node (`live[i]` is the record backing map node `i`); `None` when
/// no node is alive.
struct Membership {
    epoch: u64,
    records: Vec<MemberRecord>,
    map: Option<(ShardMap, Vec<usize>)>,
}

impl Membership {
    /// Rebuilds the shard map over the living rows. Ids are sorted first so
    /// the map is a pure function of the living id *set* — join order and
    /// gossip arrival order cannot produce different tables on different
    /// routers.
    fn rebuild(&mut self, cfg: &RouterConfig) {
        let mut live: Vec<usize> = (0..self.records.len())
            .filter(|&i| self.records[i].alive)
            .collect();
        live.sort_by(|&a, &b| self.records[a].entry.id.cmp(&self.records[b].entry.id));
        if live.is_empty() {
            self.map = None;
            return;
        }
        let ids: Vec<String> = live
            .iter()
            .map(|&i| self.records[i].entry.id.clone())
            .collect();
        self.map = Some((ShardMap::new(&ids, cfg.shards, cfg.replication), live));
    }

    fn find(&self, id: &str) -> Option<usize> {
        self.records.iter().position(|r| r.entry.id == id)
    }
}

/// Why one node attempt did not produce logits.
enum NodeFailure {
    /// The node is alive but refused the request (shed, bad input, …).
    Reject(String),
    /// The link failed — connect error, dropped socket, reply timeout,
    /// injected partition. The detail is already folded into the node's
    /// health bookkeeping.
    Link,
}

struct Inner {
    cfg: RouterConfig,
    membership: RwLock<Membership>,
    /// This router's own in-flight count per shard (admission numerator).
    shard_pending: Vec<AtomicUsize>,
    /// Freshest gossiped per-shard depths per peer router, with receipt
    /// time (stale entries age out of admission via `peer_depth_ttl`).
    peer_pending: Mutex<HashMap<String, (Vec<u32>, Instant)>>,
    /// Installed fault schedule: node links are wrapped in it and severed
    /// links fail before dialing. `None` outside drills.
    faults: Mutex<Option<FaultPlan>>,
    in_flight_total: AtomicUsize,
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    unroutable: AtomicU64,
    retries: AtomicU64,
    node_deaths: AtomicU64,
    latencies: Mutex<LatencyHistogram>,
}

/// Liveness and load of one node, as seen in a [`RouterMetrics`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatus {
    /// The node's id.
    pub id: String,
    /// Current address (changes when a node restarts on a new port).
    pub addr: String,
    /// Whether the router currently considers the node serving.
    pub up: bool,
    /// Whether an operator has cordoned the node (rolling swap).
    pub cordoned: bool,
    /// Requests in flight to this node right now.
    pub in_flight: usize,
    /// The node's own serve queue depth, from its last heartbeat.
    pub queue_depth: usize,
    /// Requests this node has answered with logits.
    pub served: u64,
    /// Link failures the router has observed on this node.
    pub deaths: u64,
}

/// A point-in-time snapshot of the router's counters and latency histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterMetrics {
    /// The membership epoch this snapshot was taken at.
    pub epoch: u64,
    /// Requests admitted past the per-shard cap.
    pub admitted: u64,
    /// Admitted requests answered with logits.
    pub completed: u64,
    /// Requests shed at admission ([`ServeError::Overloaded`]).
    pub shed: u64,
    /// Admitted requests refused after every replica was tried.
    pub rejected: u64,
    /// Requests that found no replica to even try (no live member at all,
    /// or all replicas of the shard down/cordoned and not yet due for a
    /// probe).
    pub unroutable: u64,
    /// Extra node attempts beyond the first, across all requests.
    pub retries: u64,
    /// Link failures observed across all nodes.
    pub node_deaths: u64,
    /// Median end-to-end router latency (admission → logits), ms.
    pub p50_ms: f64,
    /// 95th-percentile router latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile router latency, ms.
    pub p99_ms: f64,
    /// Per-node status of living members, in membership order.
    pub nodes: Vec<NodeStatus>,
}

impl std::fmt::Display for RouterMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "router: epoch {} | admitted {} | completed {} | shed {} | rejected {} | \
             unroutable {} | retries {} | node deaths {}",
            self.epoch,
            self.admitted,
            self.completed,
            self.shed,
            self.rejected,
            self.unroutable,
            self.retries,
            self.node_deaths
        )?;
        writeln!(
            f,
            "latency ms: p50 {:.2} | p95 {:.2} | p99 {:.2}",
            self.p50_ms, self.p95_ms, self.p99_ms
        )?;
        for n in &self.nodes {
            writeln!(
                f,
                "  {:<12} {:<21} {} {} in-flight {:>3} | queue {:>3} | served {:>6} | deaths {}",
                n.id,
                n.addr,
                if n.up { "up  " } else { "DOWN" },
                if n.cordoned {
                    "[cordoned]"
                } else {
                    "          "
                },
                n.in_flight,
                n.queue_depth,
                n.served,
                n.deaths
            )?;
        }
        Ok(())
    }
}

/// The sharding/replicating front-end over a set of `fluid-serve` nodes.
///
/// Cheap to clone (an [`Arc`] inside); clones share all state, so the TCP
/// front-end's per-connection threads, the gossip driver, and an
/// in-process orchestrator (the drill, `DynamicCluster::rolling_swap`)
/// observe one consistent cluster view.
///
/// Membership enters one way: a router starts empty and nodes announce
/// themselves — [`join`](Router::join), [`leave`](Router::leave),
/// [`node_heartbeat`](Router::node_heartbeat) are what the wire frames
/// call into, and a caller that knows its nodes at boot calls `join`
/// itself, exactly as an announcing node would.
///
/// # Example
///
/// Routing against a single in-process node (multi-node drills live in
/// [`run_drill`](crate::run_drill)):
///
/// ```
/// use fluid_router::{Router, RouterConfig, ServeNode};
/// use fluid_models::{Arch, FluidModel};
/// use fluid_tensor::{Prng, Tensor};
/// use fluid_serve::ServeConfig;
///
/// let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(0));
/// let spec = model.spec("combined100").unwrap().clone();
/// let mut node =
///     ServeNode::spawn("n0", model.net(), &spec, 1, ServeConfig::default()).unwrap();
/// let router = Router::new(RouterConfig::default());
/// router.join("n0", node.addr());
/// let logits = router.infer(7, &Tensor::zeros(&[1, 1, 28, 28])).unwrap();
/// assert_eq!(logits.dims(), &[1, 10]);
/// assert_eq!(router.metrics().completed, 1);
/// node.kill();
/// ```
#[derive(Clone)]
pub struct Router {
    inner: Arc<Inner>,
}

impl Router {
    /// Builds a router with an **empty** membership table (epoch 0): every
    /// member arrives by announcement — [`join`](Router::join) /
    /// [`node_heartbeat`](Router::node_heartbeat) over the wire — or by
    /// gossip from a peer router. Requests before the first member are
    /// refused with [`ServeError::NoWorkers`].
    ///
    /// # Panics
    ///
    /// If the config's shard / replication / admission counts are zero.
    pub fn new(cfg: RouterConfig) -> Router {
        assert!(cfg.admit_per_node > 0, "admit_per_node must be >= 1");
        assert!(cfg.shards > 0, "shards must be >= 1");
        assert!(cfg.replication > 0, "replication must be >= 1");
        let shard_pending = (0..cfg.shards).map(|_| AtomicUsize::new(0)).collect();
        Router {
            inner: Arc::new(Inner {
                cfg,
                membership: RwLock::new(Membership {
                    epoch: 0,
                    records: Vec::new(),
                    map: None,
                }),
                shard_pending,
                peer_pending: Mutex::new(HashMap::new()),
                faults: Mutex::new(None),
                in_flight_total: AtomicUsize::new(0),
                admitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                unroutable: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                node_deaths: AtomicU64::new(0),
                latencies: Mutex::new(LatencyHistogram::new()),
            }),
        }
    }

    // ── membership ──────────────────────────────────────────────────────

    /// Admits (or re-admits) a node to the member set and returns the
    /// resulting epoch. Idempotent: re-joining a living node at its known
    /// address changes nothing. A changed address drops the node's pooled
    /// connections; a re-join after a leave or crash clears its tombstone
    /// and trusts the announcement enough to mark it up.
    pub fn join(&self, id: &str, addr: &str) -> u64 {
        let mut m = write_lock(&self.inner.membership);
        match m.find(id) {
            Some(i) => {
                let same_addr = *lock(&m.records[i].entry.addr) == addr;
                if m.records[i].alive && same_addr {
                    return m.epoch; // idempotent re-announce
                }
                m.epoch += 1;
                let epoch = m.epoch;
                let was_alive = {
                    let r = &mut m.records[i];
                    r.version = epoch;
                    let was = r.alive;
                    r.alive = true;
                    if !same_addr {
                        *lock(&r.entry.addr) = addr.to_string();
                        lock(&r.entry.pool).clear();
                    }
                    r.entry.transition(|st| st.mark_up());
                    was
                };
                if !was_alive {
                    m.rebuild(&self.inner.cfg);
                }
                epoch
            }
            None => {
                m.epoch += 1;
                let epoch = m.epoch;
                m.records.push(MemberRecord {
                    entry: Arc::new(NodeEntry::new(id, addr, HealthState::Up)),
                    alive: true,
                    version: epoch,
                });
                m.rebuild(&self.inner.cfg);
                epoch
            }
        }
    }

    /// Gracefully withdraws a node: tombstones its record (so gossip from
    /// a stale peer cannot resurrect it), drops its pooled connections,
    /// and rebuilds the shard map. Returns the resulting epoch; unknown or
    /// already-departed ids change nothing.
    pub fn leave(&self, id: &str) -> u64 {
        let mut m = write_lock(&self.inner.membership);
        if let Some(i) = m.find(id) {
            if m.records[i].alive {
                m.epoch += 1;
                let epoch = m.epoch;
                let r = &mut m.records[i];
                r.version = epoch;
                r.alive = false;
                lock(&r.entry.pool).clear();
                m.rebuild(&self.inner.cfg);
            }
        }
        m.epoch
    }

    /// Applies one node heartbeat: refreshes the node's reported queue
    /// depth and — because a heartbeat is out-of-band evidence of life —
    /// expedites a down node's re-probe to the next tick instead of the
    /// rest of its backoff window. A heartbeat from an unknown,
    /// tombstoned, or re-addressed node is an implicit (re-)join: that is
    /// what lets a router that restarted with empty membership re-learn
    /// its cluster with zero orchestration. Returns the current epoch.
    pub fn node_heartbeat(&self, id: &str, addr: &str, queue_depth: u32) -> u64 {
        {
            let m = read_lock(&self.inner.membership);
            if let Some(i) = m.find(id) {
                let r = &m.records[i];
                if r.alive && *lock(&r.entry.addr) == addr {
                    r.entry
                        .queue_depth
                        .store(queue_depth as usize, Ordering::SeqCst);
                    let now = Instant::now();
                    r.entry.transition(|st| st.expedite(now));
                    return m.epoch;
                }
            }
        }
        let epoch = self.join(id, addr);
        let m = read_lock(&self.inner.membership);
        if let Some(i) = m.find(id) {
            m.records[i]
                .entry
                .queue_depth
                .store(queue_depth as usize, Ordering::SeqCst);
        }
        epoch
    }

    /// Records an externally observed failure of a node (an operator, a
    /// sidecar prober, or a test): same health consequence as the router
    /// seeing the failure on its own traffic. Returns `false` for ids not
    /// in the living member set.
    pub fn report_node_failure(&self, id: &str) -> bool {
        let m = read_lock(&self.inner.membership);
        match m.find(id) {
            Some(i) if m.records[i].alive => {
                let entry = Arc::clone(&m.records[i].entry);
                drop(m);
                self.note_link_failure(&entry);
                true
            }
            _ => false,
        }
    }

    /// The current membership epoch.
    pub fn membership_epoch(&self) -> u64 {
        read_lock(&self.inner.membership).epoch
    }

    /// Ids of the living members, sorted.
    pub fn member_ids(&self) -> Vec<String> {
        let m = read_lock(&self.inner.membership);
        let mut ids: Vec<String> = m
            .records
            .iter()
            .filter(|r| r.alive)
            .map(|r| r.entry.id.clone())
            .collect();
        ids.sort();
        ids
    }

    /// The replica set (node ids, preference order) currently assigned to
    /// `shard`; empty when no member is alive.
    ///
    /// # Panics
    ///
    /// If `shard >=` the configured shard count.
    pub fn shard_replicas(&self, shard: usize) -> Vec<String> {
        assert!(shard < self.inner.cfg.shards, "shard out of range");
        let m = read_lock(&self.inner.membership);
        match &m.map {
            Some((map, live)) => map
                .replicas(shard)
                .iter()
                .map(|&li| m.records[live[li]].entry.id.clone())
                .collect(),
            None => Vec::new(),
        }
    }

    // ── fault injection ─────────────────────────────────────────────────

    /// Installs (or clears) a deterministic fault schedule on this
    /// router's node links: new connections are wrapped in the plan, and a
    /// link inside a partition window fails before dialing. Existing
    /// pooled connections are dropped so the schedule applies immediately.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *lock(&self.inner.faults) = plan;
        let m = read_lock(&self.inner.membership);
        for r in &m.records {
            lock(&r.entry.pool).clear();
        }
    }

    // ── routing ─────────────────────────────────────────────────────────

    /// Routes one request: admit against the shard's queue depth, then try
    /// that shard's replicas least-loaded-first until one answers.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Overloaded`] — shed at admission; no node saw it.
    /// * [`ServeError::Rejected`] — every tried replica refused; carries
    ///   the last node's reason.
    /// * [`ServeError::NoWorkers`] — no member is alive, every replica is
    ///   down or cordoned with no probe due, or every attempt failed at
    ///   the link level.
    pub fn infer(&self, key: u64, x: &Tensor) -> Result<Tensor, ServeError> {
        self.infer_inner(key, None, x)
    }

    /// Routes one tenant-tagged request: the tenant id doubles as the
    /// shard key (all of a tenant's traffic lands on one shard, so its
    /// quota is enforced at a single node) and the tag is forwarded to the
    /// serve node ([`Message::InferTenant`]), whose tenancy table delivers
    /// the per-tenant verdict.
    ///
    /// # Errors
    ///
    /// Same verdicts as [`infer`](Router::infer); a quota refusal or
    /// unknown-tenant verdict from the node surfaces as
    /// [`ServeError::Rejected`] with the node's reason.
    pub fn infer_tenant(&self, tenant: u64, x: &Tensor) -> Result<Tensor, ServeError> {
        self.infer_inner(tenant, Some(tenant), x)
    }

    fn infer_inner(&self, key: u64, tenant: Option<u64>, x: &Tensor) -> Result<Tensor, ServeError> {
        let inner = &self.inner;
        // Snapshot the shard's replica entries under the read lock; the
        // Arcs keep entries valid even if membership changes mid-request.
        let (shard, replicas) = {
            let m = read_lock(&inner.membership);
            let Some((map, live)) = &m.map else {
                inner.unroutable.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::NoWorkers);
            };
            let shard = map.shard_of(key);
            let replicas: Vec<Arc<NodeEntry>> = map
                .replicas(shard)
                .iter()
                .map(|&li| Arc::clone(&m.records[live[li]].entry))
                .collect();
            (shard, replicas)
        };

        // Admission: the shard's cap follows its live replica count (a
        // shrunken replica set sheds sooner; the max(1) floor keeps probe
        // traffic flowing when everything is marked down). The depth is
        // this router's own in-flight for the shard plus every fresh
        // gossiped peer depth — N routers admit against one shared number,
        // not N private ones.
        let live_replicas = replicas
            .iter()
            .filter(|n| !n.cordoned.load(Ordering::SeqCst) && lock(&n.state).is_up())
            .count();
        let cap = inner.cfg.admit_per_node * live_replicas.max(1);
        let remote = self.peer_shard_depth(shard);
        if inner.shard_pending[shard]
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                (cur + remote < cap).then_some(cur + 1)
            })
            .is_err()
        {
            inner.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { queue_cap: cap });
        }
        let _shard_gauge = Gauge(&inner.shard_pending[shard]);
        inner.in_flight_total.fetch_add(1, Ordering::SeqCst);
        let _total_gauge = Gauge(&inner.in_flight_total);
        inner.admitted.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();

        // Candidate order: any down replica whose backoff window has
        // elapsed goes *first* — a due probe is the only road back to Up,
        // and behind healthy replicas it would never see traffic (the bet
        // is bounded: one failed attempt re-arms a doubled window and the
        // request falls through to the up replicas) — then up replicas by
        // ascending load (local in-flight plus the node's own reported
        // queue depth).
        let now = Instant::now();
        let mut up: Vec<&Arc<NodeEntry>> = Vec::with_capacity(replicas.len());
        let mut candidates: Vec<&Arc<NodeEntry>> = Vec::new();
        for node in &replicas {
            if node.cordoned.load(Ordering::SeqCst) {
                continue;
            }
            let state = *lock(&node.state);
            if state.is_up() {
                up.push(node);
            } else if state.due_for_probe(now) {
                candidates.push(node);
            }
        }
        up.sort_by_key(|n| {
            n.in_flight.load(Ordering::SeqCst) + n.queue_depth.load(Ordering::SeqCst)
        });
        candidates.extend(up);
        if candidates.is_empty() {
            inner.unroutable.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::NoWorkers);
        }

        let mut last_reject: Option<String> = None;
        for (attempt, node) in candidates.into_iter().enumerate() {
            if attempt > 0 {
                inner.retries.fetch_add(1, Ordering::Relaxed);
            }
            match self.try_node(node, key, tenant, x) {
                Ok(logits) => {
                    inner.completed.fetch_add(1, Ordering::Relaxed);
                    lock(&inner.latencies).record(t0.elapsed().as_secs_f64() * 1e3);
                    return Ok(logits);
                }
                Err(NodeFailure::Reject(reason)) => last_reject = Some(reason),
                Err(NodeFailure::Link) => {}
            }
        }
        inner.rejected.fetch_add(1, Ordering::Relaxed);
        match last_reject {
            Some(reason) => Err(ServeError::Rejected(reason)),
            None => Err(ServeError::NoWorkers),
        }
    }

    /// Sum of fresh gossiped peer depths for one shard.
    fn peer_shard_depth(&self, shard: usize) -> usize {
        let now = Instant::now();
        let ttl = self.inner.cfg.peer_depth_ttl;
        lock(&self.inner.peer_pending)
            .values()
            .filter(|(_, at)| now.saturating_duration_since(*at) <= ttl)
            .map(|(depths, _)| depths.get(shard).copied().unwrap_or(0) as usize)
            .sum()
    }

    /// One attempt against one node: check out (or open) a connection,
    /// run the keyed round trip, and fold the verdict into health state.
    fn try_node(
        &self,
        node: &NodeEntry,
        key: u64,
        tenant: Option<u64>,
        x: &Tensor,
    ) -> Result<Tensor, NodeFailure> {
        let inner = &self.inner;
        // A severed link (injected partition) fails before dialing: the
        // connect would be refused by the real network, and the health
        // consequence must be identical.
        let faults = lock(&inner.faults).clone();
        if let Some(plan) = &faults {
            if plan.severed(&node.id) {
                self.note_link_failure(node);
                return Err(NodeFailure::Link);
            }
        }
        node.in_flight.fetch_add(1, Ordering::SeqCst);
        let _node_gauge = Gauge(&node.in_flight);
        // Bind the pop in its own statement: a `match` on the guard
        // expression would hold the pool lock across the whole match —
        // including `note_link_failure`, which locks the pool again.
        let pooled = lock(&node.pool).pop();
        let mut client = match pooled {
            Some(client) => client,
            None => {
                let addr = lock(&node.addr).clone();
                match TcpClient::connect_timeout(&addr, inner.cfg.connect_timeout) {
                    Ok(client) => {
                        let client = client.with_timeout(inner.cfg.request_timeout);
                        match &faults {
                            Some(plan) => client.with_faults(plan.link(&node.id)),
                            None => client,
                        }
                    }
                    Err(_) => {
                        self.note_link_failure(node);
                        return Err(NodeFailure::Link);
                    }
                }
            }
        };
        let verdict = match tenant {
            Some(t) => client.infer_tenant(t, x),
            None => client.infer_keyed(key, x),
        };
        match verdict {
            Ok(logits) => {
                node.transition(|st| st.mark_up());
                node.reject_streak.store(0, Ordering::SeqCst);
                node.served.fetch_add(1, Ordering::Relaxed);
                lock(&node.pool).push(client);
                Ok(logits)
            }
            Err(ServeError::Rejected(reason)) => {
                // The node is alive (it answered) but refusing. A streak of
                // refusals earns it a quiet backoff window; the connection
                // itself is still good.
                let streak = node.reject_streak.fetch_add(1, Ordering::SeqCst) + 1;
                if streak >= inner.cfg.reject_markdown {
                    let (initial, max) = (inner.cfg.probe_backoff, inner.cfg.probe_backoff_max);
                    let now = Instant::now();
                    node.transition(|st| st.mark_down(initial, max, now));
                }
                lock(&node.pool).push(client);
                Err(NodeFailure::Reject(reason))
            }
            Err(_) => {
                // Link-level failure: drop this connection and everything
                // pooled for the node — they share its fate.
                self.note_link_failure(node);
                Err(NodeFailure::Link)
            }
        }
    }

    /// Marks a node down after a link failure and drops its pooled
    /// connections.
    fn note_link_failure(&self, node: &NodeEntry) {
        let (initial, max) = (
            self.inner.cfg.probe_backoff,
            self.inner.cfg.probe_backoff_max,
        );
        let now = Instant::now();
        node.transition(|st| st.mark_down(initial, max, now));
        node.deaths.fetch_add(1, Ordering::Relaxed);
        self.inner.node_deaths.fetch_add(1, Ordering::Relaxed);
        lock(&node.pool).clear();
    }

    // ── gossip ──────────────────────────────────────────────────────────

    /// This router's full anti-entropy digest: every membership record
    /// (tombstones included), its health verdict, and the router's own
    /// per-shard in-flight depths.
    pub fn gossip_digest(&self) -> Message {
        let now = Instant::now();
        let m = read_lock(&self.inner.membership);
        let nodes = m
            .records
            .iter()
            .map(|r| {
                let st = *lock(&r.entry.state);
                GossipNode {
                    id: r.entry.id.clone(),
                    addr: lock(&r.entry.addr).clone(),
                    alive: r.alive,
                    member_version: r.version,
                    up: st.is_up(),
                    probe_in_ms: st.probe_in(now).as_millis().min(u128::from(u32::MAX)) as u32,
                    health_version: r.entry.health_version.load(Ordering::SeqCst),
                    queue_depth: r.entry.queue_depth.load(Ordering::SeqCst) as u32,
                }
            })
            .collect();
        Message::Gossip {
            from: self.inner.cfg.id.clone(),
            epoch: m.epoch,
            shard_pending: self
                .inner
                .shard_pending
                .iter()
                .map(|d| d.load(Ordering::SeqCst) as u32)
                .collect(),
            nodes,
        }
    }

    /// Merges a peer's digest into this router and returns this router's
    /// own (post-merge) digest as the reply — one call is one half of a
    /// push-pull exchange. Non-gossip messages and this router's own
    /// digests merge nothing.
    ///
    /// Merge rules, chosen so any two routers that stop changing and keep
    /// exchanging converge to identical tables:
    /// * membership rows by higher `member_version`; ties prefer the
    ///   tombstone, then the smaller address — deterministic on both sides.
    /// * health verdicts by higher `health_version`; ties prefer *down*
    ///   (pessimism is recoverable by one probe; optimism costs traffic).
    /// * the peer's per-shard depths replace its previous ones and feed
    ///   admission until `peer_depth_ttl` ages them out.
    pub fn merge_gossip(&self, msg: &Message) -> Message {
        if let Message::Gossip {
            from,
            epoch,
            shard_pending,
            nodes,
        } = msg
        {
            if *from != self.inner.cfg.id {
                lock(&self.inner.peer_pending)
                    .insert(from.clone(), (shard_pending.clone(), Instant::now()));
                self.merge_records(*epoch, nodes);
            }
        }
        self.gossip_digest()
    }

    fn merge_records(&self, peer_epoch: u64, nodes: &[GossipNode]) {
        let now = Instant::now();
        let cfg_backoff = self.inner.cfg.probe_backoff;
        let mut m = write_lock(&self.inner.membership);
        let mut membership_changed = false;
        for g in nodes {
            match m.find(&g.id) {
                None => {
                    let state = if g.up {
                        HealthState::Up
                    } else {
                        HealthState::Down {
                            until: now + Duration::from_millis(u64::from(g.probe_in_ms)),
                            backoff: cfg_backoff,
                        }
                    };
                    let entry = NodeEntry::new(&g.id, &g.addr, state);
                    entry
                        .health_version
                        .store(g.health_version, Ordering::SeqCst);
                    entry
                        .queue_depth
                        .store(g.queue_depth as usize, Ordering::SeqCst);
                    m.records.push(MemberRecord {
                        entry: Arc::new(entry),
                        alive: g.alive,
                        version: g.member_version,
                    });
                    membership_changed |= g.alive;
                }
                Some(i) => {
                    let r = &mut m.records[i];
                    let local_addr = lock(&r.entry.addr).clone();
                    let adopt_member = g.member_version > r.version
                        || (g.member_version == r.version
                            && ((!g.alive && r.alive)
                                || (g.alive == r.alive && g.addr < local_addr)));
                    if adopt_member {
                        r.version = g.member_version;
                        if r.alive != g.alive {
                            r.alive = g.alive;
                            membership_changed = true;
                        }
                        if local_addr != g.addr {
                            *lock(&r.entry.addr) = g.addr.clone();
                            lock(&r.entry.pool).clear();
                        }
                    }
                    let local_hv = r.entry.health_version.load(Ordering::SeqCst);
                    let local_up = lock(&r.entry.state).is_up();
                    let adopt_health = g.health_version > local_hv
                        || (g.health_version == local_hv && !g.up && local_up);
                    if adopt_health {
                        r.entry
                            .health_version
                            .store(g.health_version, Ordering::SeqCst);
                        *lock(&r.entry.state) = if g.up {
                            HealthState::Up
                        } else {
                            // The remote probe deadline crosses the wire as
                            // a remaining duration; the backoff history
                            // restarts locally (a probe failure here will
                            // rebuild it).
                            HealthState::Down {
                                until: now + Duration::from_millis(u64::from(g.probe_in_ms)),
                                backoff: cfg_backoff,
                            }
                        };
                        r.entry
                            .queue_depth
                            .store(g.queue_depth as usize, Ordering::SeqCst);
                    }
                }
            }
        }
        if peer_epoch > m.epoch {
            m.epoch = peer_epoch;
        }
        // The epoch dominates every record version by construction; keep
        // that invariant across merges of records from newer peers.
        let max_version = m.records.iter().map(|r| r.version).max().unwrap_or(0);
        if m.epoch < max_version {
            m.epoch = max_version;
        }
        if membership_changed {
            m.rebuild(&self.inner.cfg);
        }
    }

    /// One full in-process push-pull exchange with `peer`: push this
    /// digest, let the peer merge it, merge the peer's reply. Drives the
    /// gossip convergence proptests without sockets.
    pub fn gossip_with(&self, peer: &Router) {
        let reply = peer.merge_gossip(&self.gossip_digest());
        let _ = self.merge_gossip(&reply);
    }

    // ── operator surface ────────────────────────────────────────────────

    /// Looks up a living member's entry by id.
    fn living_entry(&self, id: &str) -> Result<Arc<NodeEntry>, ServeError> {
        let m = read_lock(&self.inner.membership);
        m.records
            .iter()
            .find(|r| r.alive && r.entry.id == id)
            .map(|r| Arc::clone(&r.entry))
            .ok_or_else(|| ServeError::Elastic(format!("unknown node {id}")))
    }

    /// Excludes a node from new requests (in-flight ones finish). The
    /// rolling-swap orchestration cordons, waits for
    /// [`node_in_flight`](Router::node_in_flight) to reach zero, swaps,
    /// then uncordons.
    ///
    /// # Errors
    ///
    /// [`ServeError::Elastic`] when no living node has this id.
    pub fn cordon(&self, id: &str) -> Result<(), ServeError> {
        self.living_entry(id)?
            .cordoned
            .store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Readmits a cordoned node to replica selection.
    ///
    /// # Errors
    ///
    /// [`ServeError::Elastic`] when no living node has this id.
    pub fn uncordon(&self, id: &str) -> Result<(), ServeError> {
        self.living_entry(id)?
            .cordoned
            .store(false, Ordering::SeqCst);
        Ok(())
    }

    /// Requests currently in flight to the node named `id` via this
    /// router.
    ///
    /// # Errors
    ///
    /// [`ServeError::Elastic`] when no living node has this id.
    pub fn node_in_flight(&self, id: &str) -> Result<usize, ServeError> {
        Ok(self.living_entry(id)?.in_flight.load(Ordering::SeqCst))
    }

    /// Snapshots counters, the latency histogram, and per-node status.
    pub fn metrics(&self) -> RouterMetrics {
        let inner = &self.inner;
        let m = read_lock(&inner.membership);
        let window = lock(&inner.latencies);
        RouterMetrics {
            epoch: m.epoch,
            admitted: inner.admitted.load(Ordering::Relaxed),
            completed: inner.completed.load(Ordering::Relaxed),
            shed: inner.shed.load(Ordering::Relaxed),
            rejected: inner.rejected.load(Ordering::Relaxed),
            unroutable: inner.unroutable.load(Ordering::Relaxed),
            retries: inner.retries.load(Ordering::Relaxed),
            node_deaths: inner.node_deaths.load(Ordering::Relaxed),
            p50_ms: window.percentile(0.50),
            p95_ms: window.percentile(0.95),
            p99_ms: window.percentile(0.99),
            nodes: m
                .records
                .iter()
                .filter(|r| r.alive)
                .map(|r| NodeStatus {
                    id: r.entry.id.clone(),
                    addr: lock(&r.entry.addr).clone(),
                    up: lock(&r.entry.state).is_up(),
                    cordoned: r.entry.cordoned.load(Ordering::SeqCst),
                    in_flight: r.entry.in_flight.load(Ordering::SeqCst),
                    queue_depth: r.entry.queue_depth.load(Ordering::SeqCst),
                    served: r.entry.served.load(Ordering::Relaxed),
                    deaths: r.entry.deaths.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
impl Router {
    /// Pins one phantom in-flight request on a living node, so a drain
    /// over it can never finish.
    pub(crate) fn pin_in_flight(&self, id: &str) {
        let entry = self.living_entry(id).expect("living node");
        entry.in_flight.fetch_add(1, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = read_lock(&self.inner.membership);
        f.debug_struct("Router")
            .field("cfg", &self.inner.cfg)
            .field("epoch", &m.epoch)
            .field("records", &m.records.len())
            .finish_non_exhaustive()
    }
}

/// Serves the router over TCP until `shutdown` flips: one client-facing
/// endpoint of the cluster, speaking the same wire dialect as a plain
/// serve node plus the membership/gossip frames.
///
/// [`Message::InferKeyed`] routes by its `shard_key`; a plain
/// [`Message::Infer`] is accepted too, using `request_id` as the key (so
/// existing clients work unchanged, at the cost of key affinity).
/// [`Message::Join`] / [`Message::Leave`] / [`Message::NodeHeartbeat`]
/// mutate membership and are acknowledged; [`Message::Gossip`] is merged
/// and answered with this router's digest. Failures come back as
/// [`Message::Reject`] with the router's verdict as the reason.
///
/// # Errors
///
/// Returns the listener's I/O error; per-connection failures only end
/// that connection.
pub fn route_tcp(
    listener: TcpListener,
    router: Router,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut connections = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let router = router.clone();
                let shutdown = Arc::clone(&shutdown);
                connections.push(std::thread::spawn(move || {
                    let _ = route_connection(stream, &router, &shutdown);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                connections.retain(|c: &std::thread::JoinHandle<()>| !c.is_finished());
                std::thread::sleep(POLL)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    for c in connections {
        let _ = c.join();
    }
    Ok(())
}

/// One front-end connection: route each request, answer `Logits` or
/// `Reject`; apply membership and gossip frames in place.
fn route_connection(
    stream: TcpStream,
    router: &Router,
    shutdown: &AtomicBool,
) -> Result<(), ServeError> {
    let mut transport =
        TcpTransport::new(stream).map_err(|e| ServeError::Transport(e.to_string()))?;
    let send = |transport: &mut TcpTransport, msg: &Message| {
        transport
            .send(msg)
            .map_err(|e| ServeError::Transport(e.to_string()))
    };
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (request_id, key, tenant, input) = match transport.recv_timeout(POLL) {
            Ok(Some(Message::InferKeyed {
                request_id,
                shard_key,
                input,
            })) => (request_id, shard_key, None, input),
            // A tenant tag shards by tenant id and rides through to the
            // node, whose tenancy table gives the per-tenant verdict.
            Ok(Some(Message::InferTenant {
                request_id,
                tenant,
                input,
            })) => (request_id, tenant, Some(tenant), input),
            Ok(Some(Message::Infer { request_id, input })) => (request_id, request_id, None, input),
            Ok(Some(Message::Shutdown)) => return Ok(()),
            Ok(Some(Message::Heartbeat { seq })) => {
                send(&mut transport, &Message::HeartbeatAck { seq })?;
                continue;
            }
            Ok(Some(Message::Join { node, addr })) => {
                let epoch = router.join(&node, &addr);
                send(&mut transport, &Message::MembershipAck { epoch })?;
                continue;
            }
            Ok(Some(Message::Leave { node })) => {
                let epoch = router.leave(&node);
                send(&mut transport, &Message::MembershipAck { epoch })?;
                continue;
            }
            Ok(Some(Message::NodeHeartbeat {
                node,
                addr,
                seq,
                queue_depth,
            })) => {
                router.node_heartbeat(&node, &addr, queue_depth);
                send(&mut transport, &Message::HeartbeatAck { seq })?;
                continue;
            }
            Ok(Some(msg @ Message::Gossip { .. })) => {
                let reply = router.merge_gossip(&msg);
                send(&mut transport, &reply)?;
                continue;
            }
            Ok(Some(_)) => continue, // not part of the routing dialogue
            Ok(None) => continue,
            Err(e) => return Err(ServeError::Transport(e.to_string())),
        };
        let routed = match tenant {
            Some(t) => router.infer_tenant(t, &input),
            None => router.infer(key, &input),
        };
        let reply = match routed {
            Ok(logits) => Message::Logits { request_id, logits },
            Err(e) => Message::Reject {
                request_id,
                reason: e.to_string(),
            },
        };
        send(&mut transport, &reply)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A router over `n` members (`n0` …) that all refuse connections:
    /// port 1 refuses immediately on loopback.
    fn dead_router(cfg: RouterConfig, n: usize) -> Router {
        let router = Router::new(cfg);
        for i in 0..n {
            router.join(&format!("n{i}"), "127.0.0.1:1");
        }
        router
    }

    fn fast_cfg() -> RouterConfig {
        RouterConfig {
            connect_timeout: Duration::from_millis(200),
            request_timeout: Duration::from_millis(500),
            probe_backoff: Duration::from_millis(50),
            ..RouterConfig::default()
        }
    }

    /// The shard a key lands on, for tests that poke per-shard state.
    fn shard_of(router: &Router, key: u64) -> usize {
        let m = read_lock(&router.inner.membership);
        m.map.as_ref().expect("live members").0.shard_of(key)
    }

    #[test]
    fn all_replicas_dead_is_a_verdict_not_a_hang() {
        let router = dead_router(fast_cfg(), 3);
        let t0 = Instant::now();
        let err = router
            .infer(1, &Tensor::zeros(&[1, 1, 28, 28]))
            .expect_err("nothing listens");
        assert!(matches!(err, ServeError::NoWorkers), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(3));
        let m = router.metrics();
        assert_eq!(m.admitted, 1);
        assert_eq!(m.completed, 0);
        assert!(m.node_deaths >= 1, "failures must be recorded");
    }

    #[test]
    fn downed_replicas_make_the_shard_unroutable_until_probe_time() {
        let router = dead_router(fast_cfg(), 3);
        // First request marks this shard's replicas down…
        let _ = router.infer(1, &Tensor::zeros(&[1, 1, 28, 28]));
        // …so an immediate retry of the same key finds no candidate at all
        // (the backoff window has not elapsed) and fails fast.
        let t0 = Instant::now();
        let err = router
            .infer(1, &Tensor::zeros(&[1, 1, 28, 28]))
            .expect_err("replicas are in backoff");
        assert!(matches!(err, ServeError::NoWorkers), "{err}");
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "did not fail fast"
        );
        assert_eq!(router.metrics().unroutable, 1);
        // After the window, the same key is probed again (and fails again,
        // but by *trying*, which is the point).
        std::thread::sleep(Duration::from_millis(60));
        let deaths_before = router.metrics().node_deaths;
        let _ = router.infer(1, &Tensor::zeros(&[1, 1, 28, 28]));
        assert!(router.metrics().node_deaths > deaths_before);
    }

    #[test]
    fn cordoning_every_node_refuses_without_trying() {
        let router = dead_router(fast_cfg(), 2);
        router.cordon("n0").expect("cordon n0");
        router.cordon("n1").expect("cordon n1");
        let err = router
            .infer(9, &Tensor::zeros(&[1, 1, 28, 28]))
            .expect_err("everything cordoned");
        assert!(matches!(err, ServeError::NoWorkers), "{err}");
        let m = router.metrics();
        assert_eq!(m.unroutable, 1);
        assert_eq!(m.node_deaths, 0, "cordoned nodes must not be dialed");
        router.uncordon("n0").expect("uncordon");
        assert!(!router.metrics().nodes[0].cordoned);
    }

    #[test]
    fn admission_cap_sheds_per_shard_before_dialing_anyone() {
        let mut cfg = fast_cfg();
        cfg.admit_per_node = 1;
        let router = dead_router(cfg, 1);
        // Hold the key's shard slot by parking a gauge manually.
        let shard = shard_of(&router, 3);
        router.inner.shard_pending[shard].fetch_add(1, Ordering::SeqCst);
        let err = router
            .infer(3, &Tensor::zeros(&[1, 1, 28, 28]))
            .expect_err("shard cap is full");
        assert!(
            matches!(err, ServeError::Overloaded { queue_cap: 1 }),
            "{err}"
        );
        let m = router.metrics();
        assert_eq!(m.shed, 1);
        assert_eq!(m.admitted, 0);
        assert_eq!(m.node_deaths, 0, "shed requests must not touch nodes");
        router.inner.shard_pending[shard].fetch_sub(1, Ordering::SeqCst);
        // A key on a *different* shard is not throttled by that slot: the
        // cap is per shard, not a flat cluster-wide count.
        let other = (4..999)
            .find(|&k| shard_of(&router, k) != shard)
            .expect("another shard");
        let err = router
            .infer(other, &Tensor::zeros(&[1, 1, 28, 28]))
            .expect_err("dead node, but admitted");
        assert!(matches!(err, ServeError::NoWorkers), "{err}");
        assert_eq!(router.metrics().admitted, 1, "other shard was admitted");
    }

    #[test]
    fn gossiped_peer_depth_feeds_admission_until_it_goes_stale() {
        let mut cfg = fast_cfg();
        cfg.admit_per_node = 1;
        cfg.peer_depth_ttl = Duration::from_millis(80);
        let shards = cfg.shards;
        let router = dead_router(cfg, 1);
        // A peer router reports every one of its shards saturated.
        let _ = router.merge_gossip(&Message::Gossip {
            from: "router-9".into(),
            epoch: 0,
            shard_pending: vec![1; shards],
            nodes: vec![],
        });
        let err = router
            .infer(3, &Tensor::zeros(&[1, 1, 28, 28]))
            .expect_err("peer depth saturates the shard cap");
        assert!(matches!(err, ServeError::Overloaded { .. }), "{err}");
        assert_eq!(router.metrics().shed, 1);
        // Once the peer's report ages past the TTL it stops throttling —
        // a dead router's last gasp must not choke the survivors forever.
        std::thread::sleep(Duration::from_millis(100));
        let err = router
            .infer(3, &Tensor::zeros(&[1, 1, 28, 28]))
            .expect_err("dead node, but admitted");
        assert!(matches!(err, ServeError::NoWorkers), "{err}");
        assert_eq!(router.metrics().admitted, 1);
    }

    #[test]
    fn join_leave_bump_the_epoch_and_rebuild_the_map() {
        let router = Router::new(fast_cfg());
        assert_eq!(router.membership_epoch(), 0);
        assert!(router.member_ids().is_empty());
        // Requests before any member: a verdict, not a panic.
        let err = router
            .infer(1, &Tensor::zeros(&[1, 1, 28, 28]))
            .expect_err("no members yet");
        assert!(matches!(err, ServeError::NoWorkers), "{err}");

        assert_eq!(router.join("n0", "127.0.0.1:1"), 1);
        assert_eq!(router.join("n1", "127.0.0.1:1"), 2);
        // Idempotent re-announce: same node, same addr, same epoch.
        assert_eq!(router.join("n0", "127.0.0.1:1"), 2);
        assert_eq!(router.member_ids(), vec!["n0", "n1"]);
        assert!(!router.shard_replicas(0).is_empty());

        assert_eq!(router.leave("n1"), 3);
        assert_eq!(router.member_ids(), vec!["n0"]);
        // Leaving twice (or an unknown id) changes nothing.
        assert_eq!(router.leave("n1"), 3);
        assert_eq!(router.leave("ghost"), 3);
        // A re-join clears the tombstone.
        assert_eq!(router.join("n1", "127.0.0.1:2"), 4);
        assert_eq!(router.member_ids(), vec!["n0", "n1"]);
    }

    #[test]
    fn heartbeat_is_an_implicit_join_and_refreshes_depth() {
        let router = Router::new(fast_cfg());
        let epoch = router.node_heartbeat("n7", "127.0.0.1:1", 5);
        assert_eq!(epoch, 1, "unknown node's heartbeat joins it");
        assert_eq!(router.member_ids(), vec!["n7"]);
        let m = router.metrics();
        assert_eq!(m.nodes[0].queue_depth, 5);
        // Same node, same addr: depth refresh only, no epoch churn.
        assert_eq!(router.node_heartbeat("n7", "127.0.0.1:1", 2), 1);
        assert_eq!(router.metrics().nodes[0].queue_depth, 2);
        // A re-addressed heartbeat is a membership change.
        assert_eq!(router.node_heartbeat("n7", "127.0.0.1:2", 2), 2);
        assert_eq!(router.metrics().nodes[0].addr, "127.0.0.1:2");
    }

    #[test]
    fn gossip_propagates_members_health_and_tombstones() {
        let a = Router::new(RouterConfig {
            id: "router-a".into(),
            ..fast_cfg()
        });
        let b = Router::new(RouterConfig {
            id: "router-b".into(),
            ..fast_cfg()
        });
        a.join("n0", "127.0.0.1:1");
        a.join("n1", "127.0.0.1:1");
        assert!(a.report_node_failure("n1"), "n1 is a living member");

        // One push-pull: b learns a's members and its verdict on n1.
        b.gossip_with(&a);
        assert_eq!(b.member_ids(), vec!["n0", "n1"]);
        assert_eq!(b.membership_epoch(), a.membership_epoch());
        let n1 = b
            .metrics()
            .nodes
            .into_iter()
            .find(|n| n.id == "n1")
            .expect("n1 known to b");
        assert!(!n1.up, "health verdict must ride the gossip");

        // A leave on b tombstones n0 everywhere after one more exchange —
        // and a's stale record cannot resurrect it.
        b.leave("n0");
        a.gossip_with(&b);
        assert_eq!(a.member_ids(), vec!["n1"]);
        a.gossip_with(&b);
        assert_eq!(a.member_ids(), vec!["n1"]);
        assert_eq!(b.member_ids(), vec!["n1"]);
        assert_eq!(a.membership_epoch(), b.membership_epoch());
    }

    #[test]
    fn own_digest_and_non_gossip_messages_merge_nothing() {
        let router = Router::new(fast_cfg());
        router.join("n0", "127.0.0.1:1");
        let epoch = router.membership_epoch();
        let own = router.gossip_digest();
        let _ = router.merge_gossip(&own);
        let _ = router.merge_gossip(&Message::Shutdown);
        assert_eq!(router.membership_epoch(), epoch);
        assert_eq!(router.member_ids(), vec!["n0"]);
    }

    #[test]
    fn unknown_node_ids_are_elastic_errors() {
        let router = dead_router(fast_cfg(), 1);
        for result in [
            router.cordon("ghost"),
            router.uncordon("ghost"),
            router.node_in_flight("ghost").map(|_| ()),
        ] {
            assert!(matches!(result, Err(ServeError::Elastic(_))));
        }
    }

    #[test]
    fn metrics_display_mentions_every_node_and_the_epoch() {
        let router = dead_router(fast_cfg(), 3);
        let text = router.metrics().to_string();
        for id in ["n0", "n1", "n2"] {
            assert!(text.contains(id), "missing {id} in:\n{text}");
        }
        assert!(text.contains("p95"));
        assert!(text.contains("epoch 3"));
    }
}
