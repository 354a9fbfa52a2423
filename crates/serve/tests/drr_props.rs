//! Property tests for the multi-tenant scheduler's two load-bearing
//! guarantees, exercised across random arrival, weight and quota shapes:
//!
//! * **No starvation** — under a continuous adversarial backlog, every
//!   non-empty tenant queue is served within a bounded number of batches
//!   (the bound follows from DRR's per-round credit: one trip around the
//!   ring spends at most twice the total weight in rows).
//! * **Conservation** — every admitted item boards exactly one batch
//!   (assembly level), and every admitted ticket resolves exactly once
//!   while rejections are explicit per-tenant verdicts (server level).

use fluid_serve::{
    Backend, DrrState, ServeConfig, ServeError, Server, TenancyConfig, TenantClass, TenantPolicy,
};
use fluid_tensor::Tensor;
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::VecDeque;
use std::time::Duration;

/// A queue count with one weight per queue, 1..=10 each.
fn ring() -> impl Strategy<Value = Vec<u32>> {
    (2usize..=5).prop_flat_map(|n| proptest::collection::vec(1u32..=10, n..=n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every continuously-backlogged queue is served at least once in any
    /// window of `ceil(2W / max_batch) + 2` consecutive batches, where
    /// `W` is the total weight: one full DRR round spends at most `2W`
    /// rows (a fresh quantum plus at most one retained deficit per
    /// queue), and a round serves every non-empty queue.
    #[test]
    fn no_queue_starves_under_a_continuous_backlog(
        weights in ring(),
        max_batch in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let n = weights.len();
        let order: Vec<usize> = (0..n).collect();
        let total_weight: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        let bound = (2 * total_weight as usize).div_ceil(max_batch) + 2;

        let mut rng = TestRng::for_case("no_starvation", seed);
        let mut queues: Vec<VecDeque<usize>> =
            (0..n).map(|_| VecDeque::from(vec![1usize; 8])).collect();
        let mut state = DrrState::new(n);
        let mut since_served = vec![0usize; n];
        for _ in 0..200 {
            // An idle (empty) queue is not starving — only queues with a
            // backlog at assembly time accrue wait.
            for (slot, s) in since_served.iter_mut().enumerate() {
                if queues[slot].is_empty() {
                    *s = 0;
                }
            }
            if queues.iter().all(VecDeque::is_empty) {
                queues[0].push_back(1);
            }
            let mut out = Vec::new();
            let rows = state.assemble(&mut queues, &order, &weights, max_batch, |&r| r, &mut out);
            prop_assert!(rows > 0, "no progress on a non-empty backlog");
            prop_assert!(rows <= max_batch);
            for s in &mut since_served {
                *s += 1;
            }
            for (slot, _) in &out {
                since_served[*slot] = 0;
            }
            for (slot, waited) in since_served.iter().enumerate() {
                prop_assert!(
                    *waited <= bound,
                    "queue {} (weight {}) starved for {} > {} batches",
                    slot, weights[slot], waited, bound
                );
            }
            // Adversarial refill: a random subset floods back to depth 8,
            // so backlogs never drain and credit is always contended.
            for q in &mut queues {
                if rng.unit_f64() < 0.9 {
                    while q.len() < 8 {
                        q.push_back(1);
                    }
                }
            }
        }
    }

    /// Assembly-level conservation: uniquely-tagged items with random row
    /// counts all board exactly once, in FIFO order within their queue,
    /// and no batch exceeds `max_batch` rows.
    #[test]
    fn every_item_boards_exactly_once_in_fifo_order(
        weights in ring(),
        max_batch in 4usize..=16,
        seed in any::<u64>(),
    ) {
        let n = weights.len();
        let order: Vec<usize> = (0..n).collect();
        let mut rng = TestRng::for_case("conservation", seed);
        let mut queues: Vec<VecDeque<(usize, usize)>> = (0..n)
            .map(|q| {
                (0..rng.index(20))
                    .map(|i| (q * 1000 + i, 1 + rng.index(3)))
                    .collect()
            })
            .collect();
        let expected: Vec<Vec<(usize, usize)>> =
            queues.iter().map(|q| q.iter().copied().collect()).collect();

        let mut state = DrrState::new(n);
        let mut boarded: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        let mut guard = 0;
        while queues.iter().any(|q| !q.is_empty()) {
            let mut out = Vec::new();
            let rows =
                state.assemble(&mut queues, &order, &weights, max_batch, |&(_, r)| r, &mut out);
            prop_assert!(rows > 0, "no progress on a backlog");
            prop_assert!(rows <= max_batch, "batch overflowed: {} rows", rows);
            prop_assert_eq!(rows, out.iter().map(|(_, (_, r))| *r).sum::<usize>());
            for (slot, item) in out {
                boarded[slot].push(item);
            }
            guard += 1;
            prop_assert!(guard < 10_000, "assembly failed to drain");
        }
        // Exactly once, FIFO within each tenant.
        prop_assert_eq!(boarded, expected);
    }
}

/// A backend that answers instantly with zeros — the properties below are
/// about admission accounting, not service time.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Server-level ticket conservation: across a random interleave of
    /// tenanted submissions with random quotas, every outcome is exactly
    /// one of {ticket that resolves, explicit quota verdict, explicit
    /// shed}, and the metrics ledger agrees with the client's tally.
    #[test]
    fn every_ticket_resolves_exactly_once(
        bursts in proptest::collection::vec(1u32..=6, 2..=3),
        submits in 10usize..=40,
        seed in any::<u64>(),
    ) {
        let tenants: Vec<TenantPolicy> = bursts
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let mut p = TenantPolicy::new(
                    i as u64 + 1,
                    format!("t{i}"),
                    if i % 2 == 0 { TenantClass::Interactive } else { TenantClass::Batch },
                );
                // A slow-refill bucket: burst admits, refill is negligible
                // on this test's microsecond submission timescale.
                p.rate = 0.001;
                p.burst = f64::from(b);
                p
            })
            .collect();
        let n = tenants.len();
        let mut cfg = ServeConfig::default();
        cfg.max_batch = 4;
        cfg.max_wait = Duration::from_micros(200);
        cfg.queue_cap = 256; // admission is decided by quotas, not capacity
        cfg.tenancy = Some(TenancyConfig::new(tenants));
        let server = Server::start(cfg, vec![Box::new(InstantBackend)]).expect("start");
        let handle = server.handle();

        let mut rng = TestRng::for_case("tickets", seed);
        let mut tickets = Vec::new();
        let mut quota_rejected = vec![0u64; n];
        let mut admitted = vec![0u64; n];
        for _ in 0..submits {
            let t = rng.index(n);
            match handle.submit_for(t as u64 + 1, Tensor::zeros(&[1, 1, 28, 28])) {
                Ok(ticket) => {
                    admitted[t] += 1;
                    tickets.push(ticket);
                }
                Err(ServeError::QuotaExhausted { tenant }) => {
                    prop_assert_eq!(&tenant, &format!("t{t}"), "verdict names the wrong tenant");
                    quota_rejected[t] += 1;
                }
                Err(other) => return Err(TestCaseError::fail(format!("unexpected: {other}"))),
            }
        }
        for ticket in tickets {
            let out = ticket.wait().map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(out.dims(), &[1usize, 10][..]);
        }
        let metrics = server.shutdown();
        prop_assert_eq!(metrics.completed, admitted.iter().sum::<u64>());
        prop_assert_eq!(metrics.quota_rejected, quota_rejected.iter().sum::<u64>());
        prop_assert_eq!(metrics.shed, 0);
        for (i, row) in metrics.tenants.iter().enumerate() {
            prop_assert_eq!(row.completed, admitted[i], "tenant {} ledger drifted", i);
            prop_assert_eq!(row.quota_rejected, quota_rejected[i]);
            // Admitted never exceeds the bucket's burst (refill at 0.001/s
            // is at most a row over this test's lifetime, never more).
            prop_assert!(
                admitted[i] <= u64::from(bursts[i]) + 1,
                "bucket admitted {} past burst {}",
                admitted[i], bursts[i]
            );
        }
    }
}
