//! Property tests for the router's shard assignment: restart determinism
//! and minimal disruption under membership change. These are the two
//! guarantees that make the cluster tier operable — a router restart must
//! not reshuffle traffic, and losing (or adding) one node must only move
//! the keys that node actually served.

use fluid_router::{Router, RouterConfig, ShardMap};
use proptest::prelude::*;

/// A strategy for small, unique node-id lists (2–8 nodes).
fn node_ids() -> impl Strategy<Value = Vec<String>> {
    (2usize..=8).prop_map(|n| (0..n).map(|i| format!("node-{i}")).collect())
}

/// A dynamic router with the given table shape (no sockets involved —
/// membership and shard assignment are pure state).
fn dyn_router(shards: usize, replication: usize) -> Router {
    let mut cfg = RouterConfig::default();
    cfg.shards = shards;
    cfg.replication = replication;
    Router::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same membership + config ⇒ the same shard for every key, across
    /// independently built maps (a router restart).
    fn restart_reproduces_every_assignment(
        nodes in node_ids(),
        shards in 1usize..=128,
        replication in 1usize..=4,
        keys in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let a = ShardMap::new(&nodes, shards, replication);
        let b = ShardMap::new(&nodes, shards, replication);
        for &key in &keys {
            let shard = a.shard_of(key);
            prop_assert_eq!(shard, b.shard_of(key));
            prop_assert_eq!(a.replicas(shard), b.replicas(shard));
            prop_assert!(shard < shards);
        }
    }

    /// The membership order must not matter beyond index naming: building
    /// from the same ids yields replica sets naming the same *nodes* for
    /// every shard, whatever order the ids arrived in.
    fn membership_order_is_irrelevant(
        nodes in node_ids(),
        shards in 1usize..=64,
        replication in 1usize..=3,
        rot in 0usize..8,
    ) {
        let mut rotated = nodes.clone();
        rotated.rotate_left(rot % nodes.len());
        let a = ShardMap::new(&nodes, shards, replication);
        let b = ShardMap::new(&rotated, shards, replication);
        for shard in 0..shards {
            let names_a: Vec<&str> =
                a.replicas(shard).iter().map(|&i| nodes[i].as_str()).collect();
            let names_b: Vec<&str> =
                b.replicas(shard).iter().map(|&i| rotated[i].as_str()).collect();
            prop_assert_eq!(names_a, names_b, "shard {} depends on id order", shard);
        }
    }

    /// Removing one node remaps only the shards it served: every shard
    /// whose replica set did not contain the removed node keeps exactly
    /// the same replica set (by node *name*), in the same order.
    fn removing_a_node_touches_only_its_shards(
        nodes in node_ids(),
        shards in 1usize..=128,
        replication in 1usize..=3,
        victim in 0usize..8,
    ) {
        let victim = victim % nodes.len();
        let survivors: Vec<String> = nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != victim)
            .map(|(_, id)| id.clone())
            .collect();
        // One survivor is below the 2-node floor of the strategy only when
        // nodes.len() == 2; a 1-node map is still valid, so no filtering.
        let before = ShardMap::new(&nodes, shards, replication);
        let after = ShardMap::new(&survivors, shards, replication);
        for shard in 0..shards {
            let names_before: Vec<&str> =
                before.replicas(shard).iter().map(|&i| nodes[i].as_str()).collect();
            if names_before.contains(&nodes[victim].as_str()) {
                continue; // this shard is allowed (expected) to change
            }
            let names_after: Vec<&str> =
                after.replicas(shard).iter().map(|&i| survivors[i].as_str()).collect();
            // When the survivor count no longer supports the requested
            // replication the set legitimately shrinks; the preserved
            // prefix must still match.
            prop_assert_eq!(
                &names_before[..names_after.len()],
                &names_after[..],
                "shard {} reshuffled although node {} never served it",
                shard,
                &nodes[victim]
            );
        }
    }

    /// Adding a node only ever *inserts* it into some replica sets: a
    /// shard that does not adopt the newcomer keeps its replica set
    /// verbatim.
    fn adding_a_node_touches_only_adopting_shards(
        nodes in node_ids(),
        shards in 1usize..=128,
        replication in 1usize..=3,
    ) {
        let mut grown = nodes.clone();
        grown.push("node-new".to_string());
        let before = ShardMap::new(&nodes, shards, replication);
        let after = ShardMap::new(&grown, shards, replication);
        let mut adopted = 0usize;
        for shard in 0..shards {
            let names_after: Vec<&str> =
                after.replicas(shard).iter().map(|&i| grown[i].as_str()).collect();
            if names_after.contains(&"node-new") {
                adopted += 1;
                continue;
            }
            let names_before: Vec<&str> =
                before.replicas(shard).iter().map(|&i| nodes[i].as_str()).collect();
            prop_assert_eq!(
                names_before,
                names_after,
                "shard {} reshuffled without adopting the new node",
                shard
            );
        }
        // With enough shards the newcomer must claim some share — HRW
        // without that would silently strand new capacity.
        if shards >= 64 {
            prop_assert!(adopted > 0, "new node got no shards out of {}", shards);
        }
    }

    /// Key → shard assignment never depends on membership at all (only
    /// the shard count), so resharding is the only operation that moves a
    /// key between buckets.
    fn key_to_shard_ignores_membership(
        nodes in node_ids(),
        shards in 1usize..=128,
        key in any::<u64>(),
    ) {
        let small = ShardMap::new(&nodes[..2.min(nodes.len())], shards, 1);
        let large = ShardMap::new(&nodes, shards, 2);
        prop_assert_eq!(small.shard_of(key), large.shard_of(key));
    }

    /// Announced churn — an arbitrary interleaving of Join/Leave frames
    /// applied through the router's membership API — lands on exactly the
    /// shard table a *fresh* map over the surviving ids would build:
    /// dynamic membership inherits every ShardMap property (restart
    /// determinism, minimal remap) by construction, whatever order the
    /// announcements arrived in.
    fn announced_churn_matches_a_fresh_map(
        ops in proptest::collection::vec((any::<bool>(), 0usize..8), 1..24),
        shards in 1usize..=64,
        replication in 1usize..=3,
    ) {
        let router = dyn_router(shards, replication);
        let mut alive = std::collections::BTreeSet::new();
        let mut last_epoch = 0;
        for (join, n) in ops {
            let id = format!("node-{n}");
            let epoch = if join {
                alive.insert(id.clone());
                router.join(&id, "127.0.0.1:1")
            } else {
                alive.remove(&id);
                router.leave(&id)
            };
            prop_assert!(epoch >= last_epoch, "epochs must be monotonic");
            last_epoch = epoch;
        }
        let ids: Vec<String> = alive.iter().cloned().collect();
        prop_assert_eq!(router.member_ids(), ids.clone());
        if ids.is_empty() {
            for shard in 0..shards {
                prop_assert!(router.shard_replicas(shard).is_empty());
            }
        } else {
            let fresh = ShardMap::new(&ids, shards, replication);
            for shard in 0..shards {
                let want: Vec<String> = fresh
                    .replicas(shard)
                    .iter()
                    .map(|&i| ids[i].clone())
                    .collect();
                prop_assert_eq!(
                    router.shard_replicas(shard),
                    want,
                    "shard {} diverged from the fresh map",
                    shard
                );
            }
        }
    }

    /// An announced Leave remaps only the shards the departing node
    /// served — the minimal-remap guarantee, asserted through the live
    /// membership path (tombstone + rebuild) rather than on raw maps.
    fn an_announced_leave_touches_only_the_victims_shards(
        nodes in node_ids(),
        shards in 1usize..=64,
        replication in 1usize..=3,
        victim in 0usize..8,
    ) {
        let router = dyn_router(shards, replication);
        for id in &nodes {
            router.join(id, "127.0.0.1:1");
        }
        let victim = nodes[victim % nodes.len()].clone();
        let before: Vec<Vec<String>> =
            (0..shards).map(|s| router.shard_replicas(s)).collect();
        router.leave(&victim);
        for (shard, names_before) in before.iter().enumerate() {
            if names_before.contains(&victim) {
                continue; // this shard is allowed (expected) to change
            }
            let names_after = router.shard_replicas(shard);
            // When the survivor count no longer supports the requested
            // replication the set legitimately shrinks; the preserved
            // prefix must still match.
            prop_assert_eq!(
                &names_before[..names_after.len()],
                &names_after[..],
                "shard {} reshuffled although {} never served it",
                shard,
                &victim
            );
        }
    }
}
