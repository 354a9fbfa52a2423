//! Property tests for router gossip convergence: R routers that apply an
//! arbitrary interleaving of membership operations — with gossip
//! exchanges happening only where the generated schedule allows them, a
//! stand-in for arbitrary partitions between routers — must, once the
//! partition heals (full anti-entropy rounds), converge to **identical**
//! membership epochs, member sets, addresses, and health verdicts within
//! a bounded number of rounds.
//!
//! This is the replicated-router safety argument in executable form: no
//! operation order, no lost exchange, and no conflicting concurrent
//! verdict may leave two routers permanently disagreeing about the
//! cluster.

use fluid_router::{Router, RouterConfig};
use proptest::prelude::*;

/// One step of an adversarial history. Router and node indices are taken
/// modulo the live counts, so every generated value is meaningful.
#[derive(Debug, Clone)]
enum Op {
    /// `Join(router, node, addr_variant)` — a node announces itself to
    /// one router, possibly at a different address than other routers
    /// heard (the tie the merge's addr ordering must settle).
    Join(u8, u8, u8),
    /// A node leaves through one router (tombstone).
    Leave(u8, u8),
    /// One router observes a node failure (health verdict down).
    Fail(u8, u8),
    /// A heartbeat reaches one router (implicit join + depth refresh).
    Heartbeat(u8, u8, u8),
    /// One gossip exchange the "network" let through.
    Exchange(u8, u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, n, a)| Op::Join(r, n, a)),
        (any::<u8>(), any::<u8>()).prop_map(|(r, n)| Op::Leave(r, n)),
        (any::<u8>(), any::<u8>()).prop_map(|(r, n)| Op::Fail(r, n)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, n, d)| Op::Heartbeat(r, n, d)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Exchange(a, b)),
    ]
}

/// Everything two converged routers must agree on: epoch, and per living
/// member its id, address, and health verdict. (Probe deadlines are
/// wall-clock-relative and queue depths are load telemetry; neither is
/// part of the agreement.)
fn view(router: &Router) -> (u64, Vec<(String, String, bool)>) {
    let mut nodes: Vec<(String, String, bool)> = router
        .metrics()
        .nodes
        .into_iter()
        .map(|n| (n.id, n.addr, n.up))
        .collect();
    nodes.sort();
    (router.membership_epoch(), nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn routers_converge_within_bounded_rounds_after_heal(
        n_routers in 2usize..=4,
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let routers: Vec<Router> = (0..n_routers)
            .map(|i| {
                let mut cfg = RouterConfig::default();
                cfg.id = format!("router-{i}");
                Router::new(cfg)
            })
            .collect();
        let node_id = |n: u8| format!("node-{}", n % 6);
        let addr = |a: u8| format!("127.0.0.1:{}", 1000 + u16::from(a % 3));
        for op in &ops {
            match *op {
                Op::Join(r, n, a) => {
                    routers[r as usize % n_routers].join(&node_id(n), &addr(a));
                }
                Op::Leave(r, n) => {
                    routers[r as usize % n_routers].leave(&node_id(n));
                }
                Op::Fail(r, n) => {
                    let _ = routers[r as usize % n_routers].report_node_failure(&node_id(n));
                }
                Op::Heartbeat(r, n, d) => {
                    routers[r as usize % n_routers].node_heartbeat(
                        &node_id(n),
                        &addr(0),
                        u32::from(d),
                    );
                }
                Op::Exchange(a, b) => {
                    let (i, j) = (a as usize % n_routers, b as usize % n_routers);
                    if i != j {
                        routers[i].gossip_with(&routers[j]);
                    }
                }
            }
        }

        // Heal: full all-pairs anti-entropy rounds. One round already
        // spreads any record transitively (push-pull along the chain);
        // the bound is deliberately generous so a failure here means
        // *divergence*, not slowness.
        let bound = 2 * n_routers;
        let mut rounds = 0usize;
        let converged = loop {
            let views: Vec<_> = routers.iter().map(view).collect();
            if views.windows(2).all(|w| w[0] == w[1]) {
                break true;
            }
            if rounds >= bound {
                break false;
            }
            for i in 0..n_routers {
                for j in (i + 1)..n_routers {
                    routers[i].gossip_with(&routers[j]);
                }
            }
            rounds += 1;
        };
        prop_assert!(
            converged,
            "routers still disagree after {} healed rounds:\n{:#?}",
            bound,
            routers.iter().map(view).collect::<Vec<_>>()
        );

        // Convergence must be *stable*: another round changes nothing.
        let before: Vec<_> = routers.iter().map(view).collect();
        for i in 0..n_routers {
            for j in (i + 1)..n_routers {
                routers[i].gossip_with(&routers[j]);
            }
        }
        let after: Vec<_> = routers.iter().map(view).collect();
        prop_assert_eq!(before, after, "a converged cluster must stay put");
    }
}
