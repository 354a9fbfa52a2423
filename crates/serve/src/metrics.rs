//! Serving metrics: what the scheduler records and what operators read.
//!
//! Latencies go into [`fluid_perf::LatencyHistogram`]s: a record is O(1),
//! a server that runs for months holds what one that ran for a second
//! holds, and a snapshot sorts nothing under the hub lock. Percentiles
//! follow the nearest-rank convention the queueing simulator
//! ([`fluid_perf::simulate`]) uses for its predictions, to within half a
//! histogram bucket (2.5%) — simulated and measured p95s stay comparable.

use crate::sched::TenantClass;
use fluid_perf::LatencyHistogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-worker counters inside a [`ServeMetrics`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerMetric {
    /// The backend's self-reported name.
    pub name: String,
    /// Whether the worker is currently accepting batches.
    pub alive: bool,
    /// Whether the worker is draining: finishing in-flight batches but no
    /// longer receiving new ones (the step before retirement).
    pub draining: bool,
    /// Whether the slot has been retired: drained, stopped, and joined by
    /// the elasticity layer. Retired slots keep their counters for the
    /// post-mortem but never serve again.
    pub retired: bool,
    /// Batches this worker has completed.
    pub batches: u64,
    /// Input rows (images) this worker has completed.
    pub rows: u64,
}

/// Per-tenant counters inside a [`ServeMetrics`] snapshot. Present only
/// when the server was started with a `ServeConfig::tenancy` table.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetric {
    /// The tenant's configured name.
    pub name: String,
    /// The tenant's scheduling class.
    pub class: TenantClass,
    /// Requests answered with logits for this tenant.
    pub completed: u64,
    /// Requests refused at the shared queue (capacity sheds) for this
    /// tenant.
    pub shed: u64,
    /// Requests refused by this tenant's token-bucket quota.
    pub quota_rejected: u64,
    /// Median end-to-end latency for this tenant, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency for this tenant, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency for this tenant, milliseconds.
    pub p99_ms: f64,
}

/// A point-in-time snapshot of the serving layer's counters.
///
/// Obtained from [`ServerHandle::metrics`](crate::ServerHandle::metrics) or
/// [`Server::metrics`](crate::Server::metrics); the [`Display`] impl prints
/// the operator-facing summary the CLI shows after `serve`/`loadgen` runs.
///
/// [`Display`]: std::fmt::Display
///
/// # Example
///
/// ```
/// use fluid_serve::{EngineBackend, ServeConfig, Server};
/// use fluid_models::{Arch, FluidModel};
/// use fluid_tensor::{Prng, Tensor};
///
/// let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(0));
/// let backend = EngineBackend::new(
///     "m0",
///     model.net().clone(),
///     model.spec("combined100").unwrap().clone(),
/// );
/// let server = Server::start(ServeConfig::default(), vec![Box::new(backend)]).unwrap();
/// server.handle().infer(Tensor::zeros(&[1, 1, 28, 28])).unwrap();
/// let m = server.metrics();
/// assert_eq!(m.completed, 1);
/// assert_eq!(m.workers_alive, 1);
/// assert!(m.p99_ms >= m.p50_ms);
/// println!("{m}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    /// Requests answered with logits.
    pub completed: u64,
    /// Requests refused at the queue (shed) because it was at capacity.
    pub shed: u64,
    /// Requests answered with an error after dispatch.
    pub failed: u64,
    /// Batches re-dispatched after a worker death.
    pub retried: u64,
    /// Worker deaths observed since start.
    pub worker_deaths: u64,
    /// Workers currently accepting batches.
    pub workers_alive: usize,
    /// Total worker slots (alive, draining, dead, or retired).
    pub workers_total: usize,
    /// Worker slots added at runtime by the elasticity layer
    /// ([`ElasticHandle::add`](crate::ElasticHandle::add)).
    pub workers_added: u64,
    /// Worker slots drained and retired at runtime.
    pub workers_retired: u64,
    /// Zero-downtime model hot-swaps completed
    /// ([`ElasticHandle::hot_swap`](crate::ElasticHandle::hot_swap)).
    pub hot_swaps: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: usize,
    /// Batches dispatched to workers.
    pub batches: u64,
    /// Mean requests coalesced per batch: ≈ 1 while workers keep up with
    /// arrivals, rising toward `max_batch` as requests queue behind them.
    pub mean_batch_requests: f64,
    /// Histogram of batch sizes: `(requests per batch, batch count)`,
    /// ascending.
    pub batch_histogram: Vec<(usize, u64)>,
    /// Median end-to-end request latency (queue + service), milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Completed requests per second of server uptime.
    pub throughput_rps: f64,
    /// Server uptime covered by this snapshot, seconds.
    pub elapsed_s: f64,
    /// Per-worker counters, in slot order.
    pub workers: Vec<WorkerMetric>,
    /// Requests refused by per-tenant quotas (sum over tenants). Zero
    /// without a tenancy table.
    pub quota_rejected: u64,
    /// Per-tenant counters, in tenancy-table order. Empty without a
    /// tenancy table.
    pub tenants: Vec<TenantMetric>,
}

impl std::fmt::Display for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "served {} ok / {} shed / {} failed in {:.1}s ({:.1} req/s)",
            self.completed, self.shed, self.failed, self.elapsed_s, self.throughput_rps
        )?;
        writeln!(
            f,
            "latency ms: p50 {:.2}  p95 {:.2}  p99 {:.2}  mean {:.2}",
            self.p50_ms, self.p95_ms, self.p99_ms, self.mean_ms
        )?;
        write!(
            f,
            "batches {} (mean {:.2} req/batch), queue depth {}, workers {}/{} alive",
            self.batches,
            self.mean_batch_requests,
            self.queue_depth,
            self.workers_alive,
            self.workers_total
        )?;
        if self.worker_deaths > 0 {
            write!(
                f,
                ", {} deaths / {} batch retries",
                self.worker_deaths, self.retried
            )?;
        }
        if self.workers_added + self.workers_retired + self.hot_swaps > 0 {
            write!(
                f,
                "\nelasticity: {} slots added / {} retired / {} hot-swaps",
                self.workers_added, self.workers_retired, self.hot_swaps
            )?;
        }
        for t in &self.tenants {
            write!(
                f,
                "\n  tenant {:12} {:11}  {} ok / {} shed / {} quota-rejected  p50 {:.2} p95 {:.2} p99 {:.2} ms",
                t.name, t.class.to_string(), t.completed, t.shed, t.quota_rejected,
                t.p50_ms, t.p95_ms, t.p99_ms
            )?;
        }
        for w in &self.workers {
            let state = if w.retired {
                "retired"
            } else if w.draining {
                "drain  "
            } else if w.alive {
                "alive  "
            } else {
                "DEAD   "
            };
            write!(
                f,
                "\n  worker {:12} {}  {} batches / {} rows",
                w.name, state, w.batches, w.rows
            )?;
        }
        Ok(())
    }
}

/// Upper bound on buffered recent-latency samples (the controller drains
/// the buffer every tick; a server without a controller must not grow it
/// forever). Far above what accumulates in one autoscaler tick.
const RECENT_LATENCY_CAP: usize = 8192;

/// Lock-free per-tenant refusal counters, bumped on the submission path.
#[derive(Debug)]
struct TenantShedCounters {
    shed: AtomicU64,
    quota: AtomicU64,
}

/// Per-tenant completion counters and latencies (under the hub lock).
#[derive(Debug)]
struct TenantLatCounters {
    name: String,
    class: TenantClass,
    latency_s: LatencyHistogram,
    completed: u64,
}

/// Shared mutable counters behind the server; snapshotted on demand.
#[derive(Debug)]
pub(crate) struct MetricsHub {
    start: Instant,
    shed: AtomicU64,
    tenant_shed: Vec<TenantShedCounters>,
    inner: Mutex<HubInner>,
}

#[derive(Debug, Default)]
struct HubInner {
    completed: u64,
    failed: u64,
    retried: u64,
    worker_deaths: u64,
    workers_added: u64,
    workers_retired: u64,
    hot_swaps: u64,
    batches: u64,
    batched_requests: u64,
    batch_histogram: BTreeMap<usize, u64>,
    latency_s: LatencyHistogram,
    /// Latencies since the last [`MetricsHub::take_recent_latencies`] call —
    /// the controller's sliding observation window.
    recent_latency_s: Vec<f64>,
    workers: Vec<WorkerCounters>,
    /// One entry per configured tenant; empty without a tenancy table.
    tenants: Vec<TenantLatCounters>,
}

/// Lifecycle of one worker slot, as the metrics hub sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerState {
    /// Accepting batches.
    Alive,
    /// Finishing in-flight batches; no longer dispatched to.
    Draining,
    /// Backend failed; slot waits for reattach.
    Dead,
    /// Drained, stopped, and joined; kept only for its counters.
    Retired,
}

#[derive(Debug)]
struct WorkerCounters {
    name: String,
    state: WorkerState,
    batches: u64,
    rows: u64,
}

impl WorkerCounters {
    fn new(name: String) -> Self {
        Self {
            name,
            state: WorkerState::Alive,
            batches: 0,
            rows: 0,
        }
    }
}

impl MetricsHub {
    /// A hub for `worker_names` slots and (optionally) a tenant table of
    /// `(name, class)` rows. An empty table means single-tenant mode: no
    /// per-tenant tracking at all.
    pub(crate) fn new(worker_names: Vec<String>, tenants: Vec<(String, TenantClass)>) -> Self {
        Self {
            start: Instant::now(),
            shed: AtomicU64::new(0),
            tenant_shed: tenants
                .iter()
                .map(|_| TenantShedCounters {
                    shed: AtomicU64::new(0),
                    quota: AtomicU64::new(0),
                })
                .collect(),
            inner: Mutex::new(HubInner {
                workers: worker_names.into_iter().map(WorkerCounters::new).collect(),
                tenants: tenants
                    .into_iter()
                    .map(|(name, class)| TenantLatCounters {
                        name,
                        class,
                        latency_s: LatencyHistogram::new(),
                        completed: 0,
                    })
                    .collect(),
                ..HubInner::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubInner> {
        // A poisoned hub only means a serving thread panicked mid-update;
        // the counters remain usable for the post-mortem snapshot.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A shed request (refused at the queue), billed to `tenant` when a
    /// tenant table exists. Lock-free: this sits on the submission path of
    /// every overloaded client.
    pub(crate) fn record_shed(&self, tenant: usize) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.tenant_shed.get(tenant) {
            t.shed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A request refused by `tenant`'s token-bucket quota. Lock-free.
    pub(crate) fn record_quota_rejected(&self, tenant: usize) {
        if let Some(t) = self.tenant_shed.get(tenant) {
            t.quota.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A batch completed on worker `slot`: `requests` coalesced requests
    /// covering `rows` input rows, with each request's `(tenant_slot,
    /// end_to_end_latency)`. Tenant slots are ignored without a tenant
    /// table.
    pub(crate) fn record_batch(
        &self,
        slot: usize,
        requests: usize,
        rows: usize,
        latencies: &[(usize, Duration)],
    ) {
        let mut inner = self.lock();
        let inner = &mut *inner; // split field borrows below
        inner.batches += 1;
        inner.batched_requests += requests as u64;
        *inner.batch_histogram.entry(requests).or_insert(0) += 1;
        inner.completed += requests as u64;
        for (tenant, l) in latencies {
            let secs = l.as_secs_f64();
            inner.latency_s.record(secs);
            inner.recent_latency_s.push(secs);
            if let Some(t) = inner.tenants.get_mut(*tenant) {
                t.completed += 1;
                t.latency_s.record(secs);
            }
        }
        // The recent window is bounded: with no controller attached (no
        // one ever takes it), a long-running server must not leak — keep
        // only the newest RECENT_LATENCY_CAP samples.
        let len = inner.recent_latency_s.len();
        if len > RECENT_LATENCY_CAP {
            inner.recent_latency_s.drain(..len - RECENT_LATENCY_CAP);
        }
        if let Some(w) = inner.workers.get_mut(slot) {
            w.batches += 1;
            w.rows += rows as u64;
        }
    }

    /// `n` requests answered with an error after dispatch.
    pub(crate) fn record_failed(&self, n: usize) {
        self.lock().failed += n as u64;
    }

    /// Worker `slot` died; its batch is being retried elsewhere.
    pub(crate) fn record_worker_death(&self, slot: usize) {
        let mut inner = self.lock();
        inner.worker_deaths += 1;
        if let Some(w) = inner.workers.get_mut(slot) {
            // A retired slot's thread is gone; nothing can die there again.
            if w.state != WorkerState::Retired {
                w.state = WorkerState::Dead;
            }
        }
    }

    /// A batch was re-dispatched after a worker death.
    pub(crate) fn record_retry(&self) {
        self.lock().retried += 1;
    }

    /// Worker `slot` was reattached with a fresh backend.
    pub(crate) fn record_reattach(&self, slot: usize, name: String) {
        let mut inner = self.lock();
        if let Some(w) = inner.workers.get_mut(slot) {
            w.state = WorkerState::Alive;
            w.name = name;
        }
    }

    /// A new worker slot was added at runtime; returns nothing — the caller
    /// assigns the slot index (it must match the dispatcher's slot table).
    pub(crate) fn record_added(&self, name: String) {
        let mut inner = self.lock();
        inner.workers_added += 1;
        inner.workers.push(WorkerCounters::new(name));
    }

    /// Worker `slot` stopped receiving new batches (drain began).
    pub(crate) fn record_draining(&self, slot: usize) {
        let mut inner = self.lock();
        if let Some(w) = inner.workers.get_mut(slot) {
            if w.state == WorkerState::Alive {
                w.state = WorkerState::Draining;
            }
        }
    }

    /// Worker `slot` was drained, stopped, and joined.
    pub(crate) fn record_retired(&self, slot: usize) {
        let mut inner = self.lock();
        inner.workers_retired += 1;
        if let Some(w) = inner.workers.get_mut(slot) {
            w.state = WorkerState::Retired;
        }
    }

    /// A zero-downtime hot-swap completed.
    pub(crate) fn record_hot_swap(&self) {
        self.lock().hot_swaps += 1;
    }

    /// Drains and returns the latency samples (seconds) recorded since the
    /// previous call — the autoscaler's per-tick observation window.
    pub(crate) fn take_recent_latencies(&self) -> Vec<f64> {
        std::mem::take(&mut self.lock().recent_latency_s)
    }

    pub(crate) fn snapshot(&self, queue_depth: usize) -> ServeMetrics {
        let inner = self.lock();
        let elapsed_s = self.start.elapsed().as_secs_f64();
        let to_ms = 1e3;
        let workers: Vec<WorkerMetric> = inner
            .workers
            .iter()
            .map(|w| WorkerMetric {
                name: w.name.clone(),
                alive: w.state == WorkerState::Alive,
                draining: w.state == WorkerState::Draining,
                retired: w.state == WorkerState::Retired,
                batches: w.batches,
                rows: w.rows,
            })
            .collect();
        let mean_batch_requests = if inner.batches == 0 {
            0.0
        } else {
            inner.batched_requests as f64 / inner.batches as f64
        };
        let completed = inner.completed;
        let tenants: Vec<TenantMetric> = inner
            .tenants
            .iter()
            .zip(&self.tenant_shed)
            .map(|(t, s)| TenantMetric {
                name: t.name.clone(),
                class: t.class,
                completed: t.completed,
                shed: s.shed.load(Ordering::Relaxed),
                quota_rejected: s.quota.load(Ordering::Relaxed),
                p50_ms: t.latency_s.percentile(0.50) * to_ms,
                p95_ms: t.latency_s.percentile(0.95) * to_ms,
                p99_ms: t.latency_s.percentile(0.99) * to_ms,
            })
            .collect();
        let quota_rejected = tenants.iter().map(|t| t.quota_rejected).sum();
        ServeMetrics {
            completed,
            shed: self.shed.load(Ordering::Relaxed),
            failed: inner.failed,
            retried: inner.retried,
            worker_deaths: inner.worker_deaths,
            workers_alive: workers.iter().filter(|w| w.alive).count(),
            workers_total: workers.len(),
            workers_added: inner.workers_added,
            workers_retired: inner.workers_retired,
            hot_swaps: inner.hot_swaps,
            queue_depth,
            batches: inner.batches,
            mean_batch_requests,
            batch_histogram: inner
                .batch_histogram
                .iter()
                .map(|(&size, &count)| (size, count))
                .collect(),
            p50_ms: inner.latency_s.percentile(0.50) * to_ms,
            p95_ms: inner.latency_s.percentile(0.95) * to_ms,
            p99_ms: inner.latency_s.percentile(0.99) * to_ms,
            mean_ms: inner.latency_s.mean() * to_ms,
            throughput_rps: if elapsed_s > 0.0 {
                completed as f64 / elapsed_s
            } else {
                0.0
            },
            elapsed_s,
            workers,
            quota_rejected,
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hub_snapshots_to_zeros() {
        let hub = MetricsHub::new(vec!["w0".into()], vec![]);
        let m = hub.snapshot(0);
        assert_eq!(m.completed, 0);
        assert_eq!(m.p95_ms, 0.0);
        assert_eq!(m.mean_batch_requests, 0.0);
        assert!(m.batch_histogram.is_empty());
        assert_eq!(m.workers_alive, 1);
    }

    #[test]
    fn batches_roll_up_into_histogram_and_percentiles() {
        let hub = MetricsHub::new(vec!["w0".into(), "w1".into()], vec![]);
        hub.record_batch(0, 3, 3, &[(0, Duration::from_millis(10)); 3]);
        hub.record_batch(1, 1, 1, &[(0, Duration::from_millis(30))]);
        hub.record_batch(0, 3, 3, &[(0, Duration::from_millis(20)); 3]);
        hub.record_shed(0);
        let m = hub.snapshot(2);
        assert_eq!(m.completed, 7);
        assert_eq!(m.shed, 1);
        assert_eq!(m.batches, 3);
        assert_eq!(m.queue_depth, 2);
        assert_eq!(m.batch_histogram, vec![(1, 1), (3, 2)]);
        assert!((m.mean_batch_requests - 7.0 / 3.0).abs() < 1e-9);
        assert!(m.p50_ms >= 10.0 && m.p50_ms <= 30.0);
        assert_eq!(m.workers[0].batches, 2);
        assert_eq!(m.workers[1].rows, 1);
    }

    #[test]
    fn death_and_reattach_flip_liveness() {
        let hub = MetricsHub::new(vec!["w0".into(), "w1".into()], vec![]);
        hub.record_worker_death(1);
        hub.record_retry();
        let m = hub.snapshot(0);
        assert_eq!(m.workers_alive, 1);
        assert_eq!(m.worker_deaths, 1);
        assert_eq!(m.retried, 1);
        hub.record_reattach(1, "w1b".into());
        let m = hub.snapshot(0);
        assert_eq!(m.workers_alive, 2);
        assert_eq!(m.workers[1].name, "w1b");
    }

    #[test]
    fn elasticity_lifecycle_add_drain_retire() {
        let hub = MetricsHub::new(vec!["w0".into()], vec![]);
        hub.record_added("w1".into());
        let m = hub.snapshot(0);
        assert_eq!(m.workers_total, 2);
        assert_eq!(m.workers_alive, 2);
        assert_eq!(m.workers_added, 1);

        hub.record_draining(1);
        let m = hub.snapshot(0);
        assert_eq!(m.workers_alive, 1, "draining worker no longer counts");
        assert!(m.workers[1].draining && !m.workers[1].retired);

        hub.record_retired(1);
        hub.record_hot_swap();
        let m = hub.snapshot(0);
        assert!(m.workers[1].retired && !m.workers[1].draining);
        assert_eq!(m.workers_retired, 1);
        assert_eq!(m.hot_swaps, 1);
        // A retired slot can neither die nor drain again.
        hub.record_worker_death(1);
        hub.record_draining(1);
        assert!(hub.snapshot(0).workers[1].retired);
    }

    #[test]
    fn recent_latencies_drain_on_take() {
        let hub = MetricsHub::new(vec!["w0".into()], vec![]);
        hub.record_batch(0, 2, 2, &[(0, Duration::from_millis(4)); 2]);
        let recent = hub.take_recent_latencies();
        assert_eq!(recent.len(), 2);
        assert!(hub.take_recent_latencies().is_empty(), "take drains");
        // The cumulative histogram is unaffected by taking the recent window.
        assert!(hub.snapshot(0).p95_ms > 0.0);
    }

    #[test]
    fn recent_latencies_are_bounded_without_a_consumer() {
        // A server with no autoscaler never takes the recent window; it
        // must stay bounded (newest samples win).
        let hub = MetricsHub::new(vec!["w0".into()], vec![]);
        for i in 0..(RECENT_LATENCY_CAP + 100) {
            hub.record_batch(0, 1, 1, &[(0, Duration::from_micros(i as u64))]);
        }
        let recent = hub.take_recent_latencies();
        assert_eq!(recent.len(), RECENT_LATENCY_CAP);
        let newest = (RECENT_LATENCY_CAP + 99) as f64 * 1e-6;
        assert!((recent.last().copied().unwrap() - newest).abs() < 1e-12);
    }

    #[test]
    fn tenant_counters_roll_up_per_tenant() {
        let hub = MetricsHub::new(
            vec!["w0".into()],
            vec![
                ("chat".into(), TenantClass::Interactive),
                ("analytics".into(), TenantClass::Batch),
            ],
        );
        // One batch carrying both tenants, then tenant-scoped refusals.
        hub.record_batch(
            0,
            2,
            2,
            &[
                (0, Duration::from_millis(5)),
                (1, Duration::from_millis(40)),
            ],
        );
        hub.record_shed(1);
        hub.record_quota_rejected(1);
        hub.record_quota_rejected(1);
        let m = hub.snapshot(0);
        assert_eq!(m.tenants.len(), 2);
        assert_eq!(m.tenants[0].completed, 1);
        assert_eq!(m.tenants[1].completed, 1);
        assert_eq!(m.tenants[1].shed, 1);
        assert_eq!(m.tenants[1].quota_rejected, 2);
        assert_eq!(m.quota_rejected, 2);
        assert!(m.tenants[0].p95_ms < m.tenants[1].p95_ms);
        let text = m.to_string();
        assert!(text.contains("tenant chat"), "{text}");
        assert!(text.contains("quota-rejected"), "{text}");
    }

    #[test]
    fn display_is_operator_readable() {
        let hub = MetricsHub::new(vec!["w0".into()], vec![]);
        hub.record_batch(0, 2, 2, &[(0, Duration::from_millis(5)); 2]);
        let text = hub.snapshot(0).to_string();
        assert!(text.contains("served 2 ok"), "{text}");
        assert!(text.contains("p95"), "{text}");
        assert!(text.contains("worker w0"), "{text}");
    }
}
