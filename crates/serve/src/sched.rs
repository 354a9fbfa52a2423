//! Scheduling policy: tenant/class configuration, token-bucket admission
//! quotas, weighted deficit-round-robin (DRR) batch assembly, and the
//! work-conserving "dispatch now or wait?" rule ([`next_step`]).
//!
//! This module is the *policy core* — pure data structures with no threads
//! and no clocks of their own (callers pass `Instant`s in), so every rule
//! the live scheduler enforces is unit-testable in isolation and replayable
//! offline by `fluid_perf::simulate_tenants`. The live wiring lives in
//! `server.rs`; the adversarial proof lives in `tests/tests/fairness.rs`
//! and the DRR proptests in `crates/serve/tests/drr_props.rs`.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A tenant's scheduling class.
///
/// Interactive tenants sit first in the DRR ring: their queued requests
/// board a forming batch before batch-class rows, which is what holds
/// their p95 under [`TenancyConfig::interactive_slo_ms`] against a flood.
/// Batch tenants get throughput, not latency: they are never starved (DRR
/// guarantees every backlogged queue its weight's worth of rows per round)
/// but they board behind interactive rows in each batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantClass {
    /// Latency-sensitive traffic with an SLO on its p95.
    Interactive,
    /// Throughput traffic: weighted fair share, no latency objective.
    Batch,
}

impl std::fmt::Display for TenantClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantClass::Interactive => write!(f, "interactive"),
            TenantClass::Batch => write!(f, "batch"),
        }
    }
}

/// One tenant's scheduling policy: identity, class, DRR weight and
/// token-bucket admission quota.
///
/// The struct is `#[non_exhaustive]`: build it with [`TenantPolicy::new`]
/// and mutate the knobs, so a future knob cannot break construction sites.
///
/// # Example
///
/// ```
/// use fluid_serve::{TenantClass, TenantPolicy};
/// let mut t = TenantPolicy::new(7, "analytics", TenantClass::Batch);
/// t.weight = 2; // two rows per DRR round for every one of a weight-1 peer
/// t.rate = 50.0; // at most 50 admitted requests/s sustained...
/// t.burst = 10.0; // ...with bursts of up to 10 above the sustained rate
/// assert_eq!(t.id, 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TenantPolicy {
    /// Wire-visible tenant id (`Message::InferTenant { tenant, .. }`).
    pub id: u64,
    /// Operator-facing name, shown in per-tenant metrics.
    pub name: String,
    /// Scheduling class; see [`TenantClass`].
    pub class: TenantClass,
    /// DRR weight: rows of service credit per scheduling round. Higher
    /// weight ⇒ proportionally more rows of every contended batch. Must be
    /// at least 1.
    pub weight: u32,
    /// Token-bucket refill rate in admitted requests per second.
    /// [`f64::INFINITY`] (the default) disables metering for this tenant.
    pub rate: f64,
    /// Token-bucket capacity: the largest burst admitted at once. Ignored
    /// while `rate` is infinite.
    pub burst: f64,
}

impl TenantPolicy {
    /// A policy with weight 1 and no admission quota.
    pub fn new(id: u64, name: impl Into<String>, class: TenantClass) -> TenantPolicy {
        TenantPolicy {
            id,
            name: name.into(),
            class,
            weight: 1,
            rate: f64::INFINITY,
            burst: f64::INFINITY,
        }
    }
}

/// Multi-tenant scheduling configuration, attached to a server via
/// `ServeConfig::tenancy`.
///
/// `None` tenancy (the default) keeps the classic single-FIFO behaviour:
/// one anonymous queue, no quotas. With tenancy
/// configured, every request is admitted under a tenant's quota, queued
/// per-tenant and batched by weighted deficit round robin.
///
/// The struct is `#[non_exhaustive]`: build it with [`TenancyConfig::new`].
///
/// # Example
///
/// ```
/// use fluid_serve::{TenancyConfig, TenantClass, TenantPolicy};
/// let mut cfg = TenancyConfig::new(vec![
///     TenantPolicy::new(1, "chat", TenantClass::Interactive),
///     TenantPolicy::new(2, "analytics", TenantClass::Batch),
/// ]);
/// cfg.interactive_slo_ms = 25.0;
/// assert_eq!(cfg.default_tenant, 1);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TenancyConfig {
    /// The tenant table. Requests for ids outside it are refused with
    /// `ServeError::UnknownTenant` — a protocol error, not a silent drop.
    pub tenants: Vec<TenantPolicy>,
    /// The tenant that untagged requests (`ServerHandle::submit`, wire
    /// `Infer`/`InferKeyed`) are billed to. Defaults to the first tenant.
    pub default_tenant: u64,
    /// Target p95 for the interactive class, in milliseconds: the number
    /// an operator (and `tests/tests/fairness.rs`) holds the interactive
    /// tenants' `p95_ms` against. No mechanism reads it — interactive-first
    /// boarding and work-conserving dispatch defend it, quotas and weights
    /// are the knobs when it slips (`docs/SERVING.md`, SLO runbook).
    pub interactive_slo_ms: f64,
}

impl TenancyConfig {
    /// A tenancy over `tenants` with the first tenant as the default and a
    /// 50 ms interactive SLO.
    pub fn new(tenants: Vec<TenantPolicy>) -> TenancyConfig {
        let default_tenant = tenants.first().map_or(0, |t| t.id);
        TenancyConfig {
            tenants,
            default_tenant,
            interactive_slo_ms: 50.0,
        }
    }

    /// Checks the configuration invariants `Server::start` enforces.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant: no tenants, duplicate ids, a zero weight, a non-positive
    /// or NaN rate/burst, an absent default tenant, or a non-positive SLO.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants.is_empty() {
            return Err("tenancy configured with no tenants".into());
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if self.tenants[..i].iter().any(|u| u.id == t.id) {
                return Err(format!("duplicate tenant id {}", t.id));
            }
            if t.weight == 0 {
                return Err(format!("tenant {} has zero weight", t.name));
            }
            if t.rate.is_nan() || t.rate <= 0.0 {
                return Err(format!("tenant {} has non-positive rate", t.name));
            }
            if t.burst.is_nan() || t.burst < 1.0 {
                return Err(format!(
                    "tenant {} burst must admit at least one request",
                    t.name
                ));
            }
        }
        if !self.tenants.iter().any(|t| t.id == self.default_tenant) {
            return Err(format!(
                "default tenant {} is not in the tenant table",
                self.default_tenant
            ));
        }
        if !self.interactive_slo_ms.is_finite() || self.interactive_slo_ms <= 0.0 {
            return Err("interactive_slo_ms must be positive and finite".into());
        }
        Ok(())
    }
}

/// A token bucket metering one tenant's admissions: refills continuously at
/// `rate` tokens/s up to `burst`, spends one token per admitted request.
///
/// Time is passed in by the caller, so the bucket is deterministic under
/// test and replayable by the offline simulator.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    tokens: f64,
    rate: f64,
    burst: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub fn new(rate: f64, burst: f64, now: Instant) -> TokenBucket {
        TokenBucket {
            tokens: burst,
            rate,
            burst,
            last: now,
        }
    }

    /// Refills for the elapsed time, then tries to spend one token.
    /// Returns whether the request is admitted. An infinite rate always
    /// admits.
    pub fn try_take(&mut self, now: Instant) -> bool {
        if self.rate.is_infinite() {
            return true;
        }
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Weighted deficit-round-robin state: one deficit counter per tenant plus
/// the ring cursor, both persistent across [`DrrState::assemble`] calls.
///
/// The guarantees (proved by `crates/serve/tests/drr_props.rs`):
///
/// * **No starvation** — a backlogged queue's deficit grows by its weight
///   every round it is passed over, and a queue whose head was blocked by
///   batch capacity becomes the ring's starting position for the next
///   batch, so every non-empty queue is served within a bounded number of
///   batches.
/// * **Weight proportionality** — under saturation, tenants receive rows
///   in proportion to their weights (each round hands every backlogged
///   tenant exactly its weight in new credit).
/// * **Conservation** — items leave queues only into the assembled batch;
///   nothing is dropped or duplicated.
#[derive(Debug, Clone)]
pub struct DrrState {
    deficits: Vec<u64>,
    cursor: usize,
    /// Set when the previous batch filled while the cursor queue still had
    /// credit: that queue resumes its interrupted visit with its leftover
    /// deficit but takes no fresh per-round credit. Re-crediting on resume
    /// would let any tenant with `weight ≥ max_batch` grow its deficit
    /// faster than batches drain it and pin the cursor forever.
    resuming: bool,
}

impl DrrState {
    /// State for `n` tenant queues, all deficits zero.
    pub fn new(n: usize) -> DrrState {
        DrrState {
            deficits: vec![0; n],
            cursor: 0,
            resuming: false,
        }
    }

    /// Assembles one batch of at most `max_batch` rows from `queues`.
    ///
    /// `order` is the ring (interactive tenants first — within a round
    /// their rows board before batch-class rows); `weights[i]` is queue
    /// `i`'s per-round credit in rows; `rows(item)` is an item's row count.
    /// Popped items are appended to `out` as `(queue_index, item)` in
    /// boarding order. Returns the total rows assembled.
    ///
    /// An item larger than `max_batch` is only ever boarded onto an empty
    /// batch (it becomes a batch of its own — the pre-existing oversized-
    /// request contract); otherwise an item that would overflow the batch
    /// ends the assembly and its queue becomes the next ring start.
    pub fn assemble<T>(
        &mut self,
        queues: &mut [VecDeque<T>],
        order: &[usize],
        weights: &[u32],
        max_batch: usize,
        rows: impl Fn(&T) -> usize,
        out: &mut Vec<(usize, T)>,
    ) -> usize {
        assert_eq!(self.deficits.len(), queues.len());
        let n = order.len();
        let mut total = 0usize;
        if n == 0 {
            return total;
        }
        // A batch that filled mid-visit left the cursor queue with leftover
        // credit; it finishes that visit now without a fresh quantum.
        let mut skip_credit = std::mem::take(&mut self.resuming);
        loop {
            let mut progress = false;
            for k in 0..n {
                let slot = order[(self.cursor + k) % n];
                let fresh = !std::mem::take(&mut skip_credit);
                if queues[slot].is_empty() {
                    // Standard DRR: an emptied queue banks no credit.
                    self.deficits[slot] = 0;
                    continue;
                }
                if fresh {
                    self.deficits[slot] =
                        self.deficits[slot].saturating_add(u64::from(weights[slot]));
                }
                while let Some(head) = queues[slot].front() {
                    let r = rows(head);
                    if total > 0 && total + r > max_batch {
                        // Capacity-blocked: this queue opens the next batch,
                        // with its accumulated deficit intact (but no fresh
                        // credit — see `resuming`).
                        self.cursor = (self.cursor + k) % n;
                        self.resuming = true;
                        return total;
                    }
                    if (r as u64) > self.deficits[slot] && total > 0 {
                        break; // out of credit this round
                    }
                    if (r as u64) > self.deficits[slot] && total == 0 && r <= max_batch {
                        // An empty batch waits for credit like anyone else —
                        // unless nothing else can move (handled below by the
                        // round loop re-crediting until the head affords).
                        break;
                    }
                    let item = queues[slot].pop_front().expect("front was Some");
                    self.deficits[slot] = self.deficits[slot].saturating_sub(r as u64);
                    total += r;
                    out.push((slot, item));
                    progress = true;
                    if total >= max_batch {
                        self.cursor = (self.cursor + k) % n;
                        self.resuming = true;
                        return total;
                    }
                }
                if queues[slot].is_empty() {
                    self.deficits[slot] = 0;
                }
            }
            if !progress && (total > 0 || queues.iter().all(VecDeque::is_empty)) {
                return total;
            }
            // !progress with total == 0 and non-empty queues: no head could
            // afford its rows yet. Deficits grew this round and keep
            // growing, so within ceil(head_rows/weight) rounds something
            // boards.
        }
    }
}

/// Fallback nap between saturation probes. A worker sends a wake-up the
/// moment a batch completes, so the scheduler normally re-decides at once;
/// the tick only bounds the wait when that wake is lost (a worker dying
/// mid-batch, a slot added at runtime).
pub(crate) const PACING_TICK: Duration = Duration::from_micros(200);

/// What the batcher does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Assemble a batch and hand it to the least-loaded worker now.
    Dispatch,
    /// Block for the next message: forever on `None` (nothing is queued),
    /// else at most this long.
    Wait(Option<Duration>),
}

/// The work-conserving batching rule. A forming batch leaves at the first
/// of: it holds `max_batch` rows, an accepting worker has nothing in flight,
/// or `until_deadline` (what is left of `max_wait` since its oldest request)
/// has run out. So `max_wait` is a cap, never a floor: below saturation a
/// request goes straight to an idle worker, and batches fill *while workers
/// are busy*.
///
/// `least_in_flight` is the fewest in-flight rows over accepting workers
/// (`None` with no accepting worker). At `2 × max_batch` — every worker
/// has one batch being served and one queued behind it — nothing leaves:
/// dispatching anyway would turn the per-slot channels into an unbounded
/// second queue, freezing batch composition long before service and letting
/// tail latency grow past what `queue_cap` promises. The one batch of
/// lookahead means a worker finishing a batch finds the next one waiting.
/// With no accepting worker the batch still leaves at its deadline, so
/// dispatch can surface `NoWorkers` instead of stalling.
pub(crate) fn next_step(
    queued_rows: usize,
    max_batch: usize,
    least_in_flight: Option<usize>,
    until_deadline: Duration,
) -> Step {
    if queued_rows == 0 {
        Step::Wait(None)
    } else if least_in_flight.is_some_and(|rows| rows >= 2 * max_batch) {
        Step::Wait(Some(PACING_TICK))
    } else if least_in_flight == Some(0) || queued_rows >= max_batch || until_deadline.is_zero() {
        Step::Dispatch
    } else {
        Step::Wait(Some(until_deadline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(
        state: &mut DrrState,
        queues: &mut [VecDeque<usize>],
        order: &[usize],
        weights: &[u32],
        max_batch: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        let mut batches = Vec::new();
        while queues.iter().any(|q| !q.is_empty()) {
            let mut out = Vec::new();
            let rows = state.assemble(queues, order, weights, max_batch, |&r| r, &mut out);
            assert!(rows > 0, "assemble made no progress on a backlog");
            assert_eq!(rows, out.iter().map(|(_, r)| r).sum::<usize>());
            batches.push(out);
        }
        batches
    }

    #[test]
    fn single_queue_degenerates_to_fifo() {
        let mut q = VecDeque::from(vec![1usize; 10]);
        let mut state = DrrState::new(1);
        let batches = drain_all(&mut state, std::slice::from_mut(&mut q), &[0], &[1], 4);
        let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn weights_split_a_contended_batch_proportionally() {
        // Two saturated tenants, weights 3:1, batch 8 → 6:2 rows per batch.
        let mut queues = [
            VecDeque::from(vec![1usize; 60]),
            VecDeque::from(vec![1usize; 60]),
        ];
        let mut state = DrrState::new(2);
        let mut heavy = 0usize;
        let mut light = 0usize;
        for _ in 0..10 {
            let mut out = Vec::new();
            state.assemble(&mut queues, &[0, 1], &[3, 1], 8, |&r| r, &mut out);
            heavy += out.iter().filter(|(s, _)| *s == 0).count();
            light += out.iter().filter(|(s, _)| *s == 1).count();
        }
        assert_eq!(heavy, 60);
        assert_eq!(light, 20);
    }

    #[test]
    fn interactive_first_boarding_order() {
        // Ring order [interactive, batch]: the interactive row is first in
        // the assembled batch even though the batch tenant enqueued first.
        let mut queues = [VecDeque::from(vec![1usize]), VecDeque::from(vec![1usize])];
        let mut state = DrrState::new(2);
        let mut out = Vec::new();
        state.assemble(&mut queues, &[0, 1], &[1, 1], 8, |&r| r, &mut out);
        assert_eq!(out.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn oversized_head_gets_its_own_batch() {
        let mut queues = [
            VecDeque::from(vec![9usize, 1]),
            VecDeque::from(vec![1usize]),
        ];
        let mut state = DrrState::new(2);
        let mut out = Vec::new();
        let rows = state.assemble(&mut queues, &[0, 1], &[1, 1], 4, |&r| r, &mut out);
        // The 9-row request boards an empty batch alone (deficit accrues
        // over rounds until it affords the fare).
        assert_eq!(rows, 9);
        assert_eq!(out.len(), 1);
        let mut out = Vec::new();
        let rows = state.assemble(&mut queues, &[0, 1], &[1, 1], 4, |&r| r, &mut out);
        assert_eq!(rows, 2, "both 1-row items share the next batch");
    }

    #[test]
    fn capacity_blocked_queue_opens_the_next_batch() {
        // Tenant 0 floods 1-row items; tenant 1's head needs 3 rows. With
        // batch 4 and equal weights, tenant 1 must not be starved by the
        // flood: once capacity blocks it, it boards first next batch.
        let mut queues = [
            VecDeque::from(vec![1usize; 40]),
            VecDeque::from(vec![3usize; 4]),
        ];
        let mut state = DrrState::new(2);
        let mut t1_first_batch = None;
        for batch_no in 0..20 {
            let mut out = Vec::new();
            let rows = state.assemble(&mut queues, &[0, 1], &[1, 1], 4, |&r| r, &mut out);
            if rows == 0 {
                break;
            }
            if t1_first_batch.is_none() && out.iter().any(|(s, _)| *s == 1) {
                t1_first_batch = Some(batch_no);
            }
        }
        let first = t1_first_batch.expect("tenant 1 starved entirely");
        assert!(first <= 3, "tenant 1 first served in batch {first}");
    }

    #[test]
    fn outsized_weight_cannot_pin_the_cursor() {
        // weight 8 ≥ batch 4: if the capacity-blocked queue were handed a
        // fresh quantum on every resume, its deficit would grow faster
        // than batches drain it, the cursor would never advance, and the
        // rival queue would starve under a continuous flood.
        let mut queues = [
            VecDeque::from(vec![1usize; 40]),
            VecDeque::from(vec![1usize; 8]),
        ];
        let mut state = DrrState::new(2);
        let mut calls = 0;
        while !queues[1].is_empty() {
            let mut out = Vec::new();
            state.assemble(&mut queues, &[0, 1], &[8, 1], 4, |&r| r, &mut out);
            calls += 1;
            assert!(calls < 100, "rival queue starved behind an 8-weight flood");
            while queues[0].len() < 40 {
                queues[0].push_back(1); // the flood never drains
            }
        }
    }

    #[test]
    fn conservation_across_random_weights() {
        let mut queues = [
            VecDeque::from(vec![2usize, 1, 3]),
            VecDeque::from(vec![1usize, 1]),
            VecDeque::from(vec![4usize]),
        ];
        let pushed: usize = queues.iter().flatten().count();
        let mut state = DrrState::new(3);
        let batches = drain_all(&mut state, &mut queues, &[2, 0, 1], &[1, 5, 2], 4);
        let dispatched: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(dispatched, pushed);
    }

    #[test]
    fn token_bucket_meters_and_refills() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(10.0, 2.0, t0);
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0), "burst of 2 exhausted");
        // 100 ms at 10 tokens/s refills one token.
        assert!(b.try_take(t0 + Duration::from_millis(100)));
        assert!(!b.try_take(t0 + Duration::from_millis(100)));
    }

    #[test]
    fn idle_bucket_banks_exactly_its_burst() {
        // 10 s idle at 10 tokens/s would bank 100 tokens; the cap keeps 3.
        let t0 = Instant::now();
        let mut b = TokenBucket::new(10.0, 3.0, t0);
        let t1 = t0 + Duration::from_secs(10);
        let admitted = (0..10).filter(|_| b.try_take(t1)).count();
        assert_eq!(admitted, 3);
    }

    #[test]
    fn infinite_rate_never_meters() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(f64::INFINITY, f64::INFINITY, t0);
        for _ in 0..1000 {
            assert!(b.try_take(t0));
        }
    }

    #[test]
    fn tenancy_validation_rejects_bad_tables() {
        let ok = TenancyConfig::new(vec![
            TenantPolicy::new(1, "a", TenantClass::Interactive),
            TenantPolicy::new(2, "b", TenantClass::Batch),
        ]);
        assert!(ok.validate().is_ok());

        let mut dup = ok.clone();
        dup.tenants[1].id = 1;
        assert!(dup.validate().unwrap_err().contains("duplicate"));

        let mut zero_w = ok.clone();
        zero_w.tenants[0].weight = 0;
        assert!(zero_w.validate().unwrap_err().contains("weight"));

        let mut bad_default = ok.clone();
        bad_default.default_tenant = 99;
        assert!(bad_default.validate().unwrap_err().contains("default"));

        let mut tiny_burst = ok.clone();
        tiny_burst.tenants[0].rate = 5.0;
        tiny_burst.tenants[0].burst = 0.5;
        assert!(tiny_burst.validate().unwrap_err().contains("burst"));

        let mut bad_slo = ok;
        bad_slo.interactive_slo_ms = 0.0;
        assert!(bad_slo.validate().unwrap_err().contains("slo"));

        assert!(TenancyConfig::new(vec![]).validate().is_err());
    }

    proptest::proptest! {
        /// Random interleavings of arrivals, worker completions and clock
        /// advances against a model pool that only ever moves when
        /// `next_step` says so: a batch never leaves into saturated workers,
        /// never waits while a worker is idle, and every wait is the right
        /// one for the state. The scheduler re-decides only when woken: by
        /// every arrival, by a completion only while rows are queued (the
        /// worker's `Done` rule), and by the clock only while it waits on a
        /// deadline, which it does only with rows queued.
        #[test]
        fn batches_never_enter_saturation_and_never_wait_on_an_idle_worker(
            max_batch in 1usize..=8,
            workers in 0usize..=3,
            events in proptest::collection::vec((0u8..3, 0usize..64), 1..200),
        ) {
            let max_wait = Duration::from_millis(10);
            // Per worker, the batches dispatched to it and not yet done.
            let mut pool: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
            let mut queued = 0usize;
            let mut waited = Duration::ZERO; // age of the oldest queued row
            let in_flight = |w: &VecDeque<usize>| w.iter().sum::<usize>();
            for (kind, arg) in events {
                let woken = match kind {
                    0 => {
                        if queued == 0 {
                            waited = Duration::ZERO;
                        }
                        queued += 1 + arg % max_batch;
                        true
                    }
                    1 if workers > 0 => {
                        pool[arg % workers].pop_front();
                        queued > 0
                    }
                    1 => false,
                    _ => {
                        waited += Duration::from_millis(arg as u64 % 8);
                        queued > 0
                    }
                };
                if !woken {
                    // Asleep, the scheduler still never holds rows an idle
                    // worker could take.
                    let least = pool.iter().map(in_flight).min();
                    proptest::prop_assert!(queued == 0 || least != Some(0));
                    continue;
                }
                loop {
                    let least = pool.iter().map(in_flight).min();
                    let saturated = least.is_some_and(|rows| rows >= 2 * max_batch);
                    let left = max_wait.saturating_sub(waited);
                    match next_step(queued, max_batch, least, left) {
                        Step::Dispatch => {
                            proptest::prop_assert!(queued > 0 && !saturated);
                            let rows = queued.min(max_batch);
                            queued -= rows;
                            waited = Duration::ZERO;
                            // No accepting worker: the batch fails `NoWorkers`.
                            if let Some(w) = pool.iter_mut().min_by_key(|w| in_flight(w)) {
                                w.push_back(rows);
                            }
                        }
                        Step::Wait(timeout) => {
                            proptest::prop_assert!(queued == 0 || least != Some(0));
                            let want = if queued == 0 {
                                None
                            } else if saturated {
                                Some(PACING_TICK)
                            } else {
                                proptest::prop_assert!(queued < max_batch && !left.is_zero());
                                Some(left)
                            };
                            proptest::prop_assert_eq!(timeout, want);
                            break;
                        }
                    }
                }
            }
        }
    }
}
