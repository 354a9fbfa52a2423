//! # fluid-router
//!
//! The cluster tier: a sharding, replicating TCP front-end over N
//! independent `fluid-serve` nodes. One serving instance scales to one
//! machine's workers; this crate is what turns a *set* of those instances
//! into a single endpoint that survives node death, sheds overload
//! explicitly, and rolls model upgrades through the fleet without
//! dropping a request (the cluster-scale face of the paper's
//! failure-resilience story; details in the "Cluster tier" section of
//! `docs/SERVING.md` and the router data path in `docs/ARCHITECTURE.md`).
//!
//! ```text
//! client ─▶ RouterNode ─▶ Router::infer ─▶ admission cap ─▶ shard = hash(key)
//!           (front-end)                     │ sheds            │
//!                                           ▼                  ▼ replicas (HRW)
//!                                        Reject       least-loaded up node
//!                                                     │ retry next on failure
//!                                                     ▼
//!                                              node TCP endpoint (serve_tcp)
//! ```
//!
//! * **Deterministic sharding** ([`ShardMap`]): rendezvous hashing maps
//!   each key to a shard and each shard to a replica set; rebuilding the
//!   map reproduces it exactly, and membership changes remap only the
//!   affected shards.
//! * **Passive health + probing** ([`HealthState`]): failures observed on
//!   live traffic mark a node down with an exponentially backed-off probe
//!   window; one request per elapsed window re-tests it.
//! * **Cluster-wide admission** ([`RouterConfig::admit_per_node`]): the
//!   router sheds with an explicit verdict *before* node queues overflow,
//!   scaled to the live node count.
//! * **Dynamic membership** ([`Router::join`]): a router starts empty and
//!   nodes announce themselves over the wire (`Join`/`Leave`/
//!   `NodeHeartbeat`); every change bumps an epoch and rebuilds the shard
//!   map, heartbeats double as implicit re-joins (a restarted node is
//!   re-addressed by its next announcement), and leaves are tombstoned so
//!   stale gossip cannot resurrect a departed member.
//! * **Replicated routers** ([`RouterNode`], [`DynamicCluster`]): N
//!   routers converge on membership, health verdicts, and per-shard load
//!   by push-pull anti-entropy gossip — no primary, any router serves any
//!   request, and a killed router is invisible to clients retrying across
//!   the router list. One router is the same cluster without the gossip
//!   thread. A [`RouterNode`]'s threads wait on events, not timers: a
//!   connection is served as it arrives, and a kill closes the port, the
//!   open connections and the gossip thread at once.
//! * **Rolling swap** ([`DynamicCluster::rolling_swap`]): cordon on every
//!   router → drain → in-place
//!   [`hot_swap`](fluid_serve::ElasticHandle::hot_swap) → uncordon, one
//!   node at a time; with replication ≥ 2 every shard keeps a serving
//!   replica throughout.
//! * **The drill** ([`run_drill`]): Poisson load through the router list
//!   of a live local cluster while a router is killed, a node joins, a
//!   seeded [`FaultPlan`](fluid_dist::FaultPlan) injects drops, duplicates
//!   and a partition window under the transport, nodes are killed and
//!   restarted, and a hot swap is rolled — zero admitted drops, every
//!   completion checked bit-identically against a single-process oracle,
//!   faults replayable from the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod drill;
mod gossip;
mod health;
mod node;
mod ring;
mod router;

pub use cluster::{DynamicCluster, DynamicClusterConfig, RouterNode};
pub use drill::{run_drill, DrillConfig, DrillReport};
pub use gossip::GossipConfig;
pub use health::HealthState;
pub use node::ServeNode;
pub use ring::ShardMap;
pub use router::{NodeStatus, Router, RouterConfig, RouterMetrics};
