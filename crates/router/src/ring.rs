//! Deterministic shard → replica-set assignment via rendezvous hashing.
//!
//! The router splits the key space into a fixed number of shards and
//! assigns each shard a replica set of `replication` nodes using
//! highest-random-weight (HRW, "rendezvous") hashing: every (node, shard)
//! pair gets a pseudo-random score derived only from the node's id and the
//! shard index, and the shard's replicas are the top-scoring nodes.
//!
//! Two properties fall out of that construction, and both are load-bearing
//! for the cluster tier:
//!
//! * **Restart determinism** — the assignment is a pure function of the
//!   node id list and the shard/replication counts. Rebuilding the map
//!   (router restart, failover to a standby router) reproduces the exact
//!   same table, so in-flight clients keep hitting the same shards.
//! * **Minimal disruption** — removing a node only changes the replica
//!   sets of shards that node actually served (everyone else's top-R is
//!   unchanged), and adding a node only claims the shards where it now
//!   scores into the top-R. No global reshuffle on membership change.
//!
//! Both properties are pinned by property tests in
//! `crates/router/tests/routing_props.rs`.

use fluid_tensor::codec::{fnv1a, mix64};

/// The HRW score of `node` for `shard`: combine the node hash with a
/// mixed shard index, then finalize. `shard + 1` keeps shard 0 from
/// degenerating to `mix64(0) = a constant` xor.
fn hrw_score(node_hash: u64, shard: usize) -> u64 {
    mix64(node_hash ^ mix64(shard as u64 + 1))
}

/// An immutable shard table: `shards` buckets, each assigned a replica
/// set of node indices (into the node list the map was built from).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
    replication: usize,
    table: Vec<Vec<usize>>,
}

impl ShardMap {
    /// Builds the table for `node_ids` with `shards` buckets and
    /// `replication` replicas per bucket (clamped to the node count).
    ///
    /// # Panics
    ///
    /// If `node_ids` is empty, `shards` is zero, or `replication` is zero.
    pub fn new(node_ids: &[String], shards: usize, replication: usize) -> ShardMap {
        assert!(!node_ids.is_empty(), "ShardMap needs at least one node");
        assert!(shards > 0, "ShardMap needs at least one shard");
        assert!(replication > 0, "ShardMap needs replication >= 1");
        let replication = replication.min(node_ids.len());
        let hashes: Vec<u64> = node_ids.iter().map(|id| fnv1a(id.as_bytes())).collect();
        let table = (0..shards)
            .map(|shard| {
                let mut scored: Vec<(u64, usize)> = hashes
                    .iter()
                    .enumerate()
                    .map(|(i, &h)| (hrw_score(h, shard), i))
                    .collect();
                // Highest score wins; break score ties by node id so the
                // table is a pure function of the id list even under hash
                // collisions.
                scored.sort_by(|a, b| {
                    b.0.cmp(&a.0)
                        .then_with(|| node_ids[a.1].cmp(&node_ids[b.1]))
                });
                scored.truncate(replication);
                scored.into_iter().map(|(_, i)| i).collect()
            })
            .collect();
        ShardMap {
            shards,
            replication,
            table,
        }
    }

    /// Number of shard buckets.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Effective replication (requested, clamped to the node count).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The shard a routing key belongs to.
    pub fn shard_of(&self, key: u64) -> usize {
        (mix64(key) % self.shards as u64) as usize
    }

    /// The replica set (node indices, preference order) for a shard.
    ///
    /// # Panics
    ///
    /// If `shard >= self.shards()`.
    pub fn replicas(&self, shard: usize) -> &[usize] {
        &self.table[shard]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rebuild_is_bit_identical() {
        let nodes = ids(&["node-a", "node-b", "node-c"]);
        let a = ShardMap::new(&nodes, 64, 2);
        let b = ShardMap::new(&nodes, 64, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn replication_is_clamped_to_node_count() {
        let map = ShardMap::new(&ids(&["only"]), 8, 3);
        assert_eq!(map.replication(), 1);
        for shard in 0..8 {
            assert_eq!(map.replicas(shard), &[0]);
        }
    }

    #[test]
    fn replica_sets_are_distinct_nodes() {
        let nodes = ids(&["n0", "n1", "n2", "n3"]);
        let map = ShardMap::new(&nodes, 128, 3);
        for shard in 0..128 {
            let reps = map.replicas(shard);
            assert_eq!(reps.len(), 3);
            let mut sorted = reps.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "shard {shard} repeats a node: {reps:?}");
        }
    }

    #[test]
    fn shards_spread_across_nodes() {
        // HRW should give every node a meaningful share of primaries; with
        // 3 nodes and 192 shards a perfectly fair split is 64 each.
        let nodes = ids(&["n0", "n1", "n2"]);
        let map = ShardMap::new(&nodes, 192, 1);
        let mut primaries = [0usize; 3];
        for shard in 0..192 {
            primaries[map.replicas(shard)[0]] += 1;
        }
        for (i, &count) in primaries.iter().enumerate() {
            assert!(
                (32..=96).contains(&count),
                "node {i} owns {count}/192 primaries — badly skewed"
            );
        }
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let map = ShardMap::new(&ids(&["a", "b"]), 16, 2);
        for key in [0u64, 1, 42, u64::MAX] {
            let s = map.shard_of(key);
            assert!(s < 16);
            assert_eq!(s, map.shard_of(key));
        }
    }

    #[test]
    fn removing_a_node_only_remaps_its_own_shards() {
        let full = ids(&["n0", "n1", "n2", "n3"]);
        let without_n3 = ids(&["n0", "n1", "n2"]);
        let before = ShardMap::new(&full, 64, 2);
        let after = ShardMap::new(&without_n3, 64, 2);
        for shard in 0..64 {
            let had_n3 = before.replicas(shard).contains(&3);
            if !had_n3 {
                // Node indices 0..=2 mean the same nodes in both maps, so
                // untouched shards must keep identical replica sets.
                assert_eq!(
                    before.replicas(shard),
                    after.replicas(shard),
                    "shard {shard} moved although n3 never served it"
                );
            }
        }
    }
}
