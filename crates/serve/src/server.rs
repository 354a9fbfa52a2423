//! The batching server: bounded per-tenant request queues → micro-batcher →
//! worker dispatcher.
//!
//! One scheduler thread owns the queues and the batching clock; one thread
//! per [`Backend`] runs the actual forward passes. The scheduler coalesces
//! queued requests into batches of up to [`ServeConfig::max_batch`] rows
//! and routes each batch to the least-loaded live worker, breaking ties
//! round-robin. Batch formation is work-conserving: a batch leaves as soon
//! as it is full, a worker has nothing in flight, or its oldest request has
//! waited [`ServeConfig::max_wait`] — whichever comes first — so batches
//! fill while workers are busy and an idle server answers at once. The
//! scheduler is event-driven: it sleeps in one `recv` until a request, a
//! worker's completion, or that deadline wakes it.
//!
//! Without a tenancy table (`ServeConfig::tenancy = None`, the default)
//! there is one anonymous queue and behaviour matches the classic
//! single-FIFO server. With tenancy configured, each tenant has its own
//! queue behind a token-bucket admission quota, and batches are assembled
//! by weighted deficit round robin (interactive tenants first, no
//! backlogged tenant starved — see [`crate::sched`]).
//!
//! Because per-sample computations inside one forward pass are independent,
//! a coalesced batch's rows are **bit-identical** to serving each request
//! alone — batching and tenant interleaving change latency and throughput,
//! never answers.

use crate::backend::{check_batch_shape, Backend};
use crate::error::ServeError;
use crate::metrics::{MetricsHub, ServeMetrics};
use crate::sched::{next_step, DrrState, Step, TenancyConfig, TenantClass, TokenBucket};
use fluid_tensor::Tensor;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The scheduler's operator knobs. See `docs/SERVING.md` for the tuning
/// guide.
///
/// The struct is `#[non_exhaustive]`: build it by mutating
/// [`ServeConfig::default`], so adding a knob in a future release cannot
/// break downstream construction sites.
///
/// # Example
///
/// ```
/// use fluid_serve::ServeConfig;
/// use std::time::Duration;
///
/// let mut cfg = ServeConfig::default();
/// cfg.max_batch = 16;
/// cfg.max_wait = Duration::from_millis(2);
/// cfg.queue_cap = 512;
/// assert!(cfg.max_batch > ServeConfig::default().max_batch);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Maximum input rows coalesced into one dispatched batch. `1`
    /// disables batching entirely.
    pub max_batch: usize,
    /// The longest a request waits for co-riders while every worker is
    /// busy: once the oldest queued request is this old its batch is
    /// dispatched (as the one batch of lookahead a busy worker may hold)
    /// however few rows it has. A cap, not a floor — a batch leaves earlier
    /// the moment it is full or a worker has nothing in flight, so an idle
    /// server never charges it.
    pub max_wait: Duration,
    /// Maximum *outstanding* requests — admitted but not yet answered,
    /// whether queued, batching, or in flight on a worker. A submission
    /// past this is shed with [`ServeError::Overloaded`] instead of
    /// growing the backlog. Shared across tenants; per-tenant limits are
    /// the token-bucket quotas.
    pub queue_cap: usize,
    /// Compute-kernel threads for batch execution (`fluid_tensor::pool`).
    /// `Some(n)` pins the process-wide pool to `n` threads at
    /// [`Server::start`]; `None` leaves the current setting (the
    /// `FLUID_THREADS` environment default) untouched. See
    /// `docs/PERFORMANCE.md`.
    pub threads: Option<usize>,
    /// Multi-tenant scheduling table. `None` (the default) is classic
    /// single-FIFO serving; `Some` switches on per-tenant queues, quotas
    /// and weighted deficit-round-robin batch assembly. See
    /// `docs/SERVING.md` § Multi-tenant scheduling.
    pub tenancy: Option<TenancyConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_cap: 256,
            threads: None,
            tenancy: None,
        }
    }
}

/// A pending response: resolved by [`Ticket::wait`].
///
/// Dropping a ticket abandons the response (the inference still runs; its
/// result is discarded).
///
/// # Example
///
/// Submitting several requests before waiting is what gives the scheduler
/// something to batch:
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
/// let handle = server.handle();
/// let tickets: Vec<_> = (0..4)
///     .map(|_| handle.submit(Tensor::zeros(&[1, 1, 28, 28])).unwrap())
///     .collect();
/// for t in tickets {
///     assert_eq!(t.wait().unwrap().dims(), &[1, 10]);
/// }
/// ```
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<Tensor, ServeError>>,
}

impl Ticket {
    /// Blocks until the request's verdict arrives.
    ///
    /// # Errors
    ///
    /// Returns the request's [`ServeError`], or [`ServeError::Canceled`] if
    /// the serving thread died without answering.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Canceled))
    }

    /// Like [`wait`](Ticket::wait) but gives up after `timeout`, returning
    /// `None` (the ticket is consumed; the response is abandoned).
    pub fn wait_timeout(self, timeout: Duration) -> Option<Result<Tensor, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(verdict) => Some(verdict),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(ServeError::Canceled)),
        }
    }
}

/// One queued request. `tenant` is the dense slot into the tenancy table
/// (0 without tenancy).
struct Request {
    input: Tensor,
    rows: usize,
    respond: Sender<Result<Tensor, ServeError>>,
    enqueued: Instant,
    depth: Arc<AtomicUsize>,
    tenant: usize,
}

/// One request's share of a dispatched batch. The `depth` handle is the
/// admission counter: it is decremented exactly once, when the part is
/// answered (with logits or an error) — *not* when it leaves the queue —
/// so `queue_cap` bounds everything admitted and unanswered.
struct Part {
    respond: Sender<Result<Tensor, ServeError>>,
    rows: usize,
    enqueued: Instant,
    depth: Arc<AtomicUsize>,
    tenant: usize,
}

impl Part {
    fn answer(self, verdict: Result<Tensor, ServeError>) {
        self.depth.fetch_sub(1, Ordering::SeqCst);
        let _ = self.respond.send(verdict);
    }
}

/// A coalesced batch on its way to (or back from) a worker.
struct Job {
    input: Tensor,
    parts: Vec<Part>,
    attempts: usize,
}

impl Job {
    fn rows(&self) -> usize {
        self.input.dims()[0]
    }

    fn fail(self, err: &ServeError, metrics: &MetricsHub) {
        metrics.record_failed(self.parts.len());
        for part in self.parts {
            part.answer(Err(err.clone()));
        }
    }
}

enum SchedMsg {
    Request(Request),
    /// A batch bounced off a dying worker; re-dispatch it ahead of the
    /// queue (its requests have already waited once).
    Retry(Job),
    /// A worker finished a batch (its `in_flight_rows` already dropped)
    /// while rows were queued. Pure wake-up: capacity freed, so a batch
    /// waiting on busy workers may leave now and a paced scheduler
    /// re-evaluates immediately instead of sleeping out its timeout. With
    /// nothing queued it is not sent: the scheduler would only decide to
    /// wait again.
    Done,
    /// [`Server::stop`]: shed everything still queued and exit.
    Shutdown,
}

enum SlotMsg {
    Job(Job),
    Stop,
}

/// Dispatcher-visible state of one worker slot.
struct SlotShared {
    alive: AtomicBool,
    /// Draining slots finish their in-flight batches but receive no new
    /// ones — the first half of the elasticity layer's retire protocol.
    draining: AtomicBool,
    in_flight_rows: AtomicUsize,
}

struct Slot {
    tx: Option<Sender<SlotMsg>>,
    shared: Arc<SlotShared>,
    thread: Option<JoinHandle<()>>,
}

/// Admission-side view of the tenancy table: id lookup, display names and
/// one token bucket per tenant. Built once at [`Server::start`].
struct TenantTable {
    ids: Vec<u64>,
    names: Vec<String>,
    buckets: Vec<Mutex<TokenBucket>>,
    default_slot: usize,
}

impl TenantTable {
    fn new(tenancy: &TenancyConfig) -> TenantTable {
        let now = Instant::now();
        TenantTable {
            ids: tenancy.tenants.iter().map(|t| t.id).collect(),
            names: tenancy.tenants.iter().map(|t| t.name.clone()).collect(),
            buckets: tenancy
                .tenants
                .iter()
                .map(|t| Mutex::new(TokenBucket::new(t.rate, t.burst, now)))
                .collect(),
            default_slot: tenancy
                .tenants
                .iter()
                .position(|t| t.id == tenancy.default_tenant)
                .unwrap_or(0),
        }
    }
}

/// State shared by every [`ServerHandle`] clone, the scheduler and the
/// worker slots.
struct HandleShared {
    depth: Arc<AtomicUsize>,
    /// Rows the scheduler holds queued, published for the workers: a
    /// finished batch wakes the scheduler only when this is non-zero.
    queued_rows: AtomicUsize,
    shutdown: AtomicBool,
    cfg: ServeConfig,
    dims: [usize; 3],
    metrics: Arc<MetricsHub>,
    tenants: Option<TenantTable>,
}

/// A cheap, cloneable, thread-safe client of a running [`Server`].
///
/// Handles outlive nothing: once the server shuts down, submissions fail
/// with [`ServeError::ShuttingDown`].
pub struct ServerHandle {
    tx: Sender<SchedMsg>,
    shared: Arc<HandleShared>,
}

impl Clone for ServerHandle {
    fn clone(&self) -> Self {
        Self {
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
        }
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("queue_depth", &self.queue_depth())
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// Enqueues an `[N, C, H, W]` inference request (`N ≥ 1`; a request
    /// larger than `max_batch` is dispatched as its own batch) and returns
    /// a [`Ticket`] for the `[N, classes]` logits.
    ///
    /// # Errors
    ///
    /// * [`ServeError::BadInput`] — the shape does not fit the model.
    /// * [`ServeError::Overloaded`] — the queue is at `queue_cap`; the
    ///   request was shed without being enqueued.
    /// * [`ServeError::ShuttingDown`] — the server is stopping.
    pub fn submit(&self, input: Tensor) -> Result<Ticket, ServeError> {
        let slot = self.shared.tenants.as_ref().map_or(0, |t| t.default_slot);
        self.submit_slot(slot, input)
    }

    /// Enqueues a request on behalf of tenant `tenant` (its wire id). On a
    /// server without a tenancy table the id is accepted and ignored —
    /// exactly like a shard key that has already done its routing job.
    ///
    /// # Errors
    ///
    /// Everything [`submit`](ServerHandle::submit) returns, plus:
    ///
    /// * [`ServeError::UnknownTenant`] — the id is not in the tenancy
    ///   table.
    /// * [`ServeError::QuotaExhausted`] — the tenant's token bucket is
    ///   dry; the request was refused before touching the shared queue.
    pub fn submit_for(&self, tenant: u64, input: Tensor) -> Result<Ticket, ServeError> {
        match &self.shared.tenants {
            None => self.submit_slot(0, input),
            Some(t) => {
                let slot = t
                    .ids
                    .iter()
                    .position(|&id| id == tenant)
                    .ok_or(ServeError::UnknownTenant(tenant))?;
                self.submit_slot(slot, input)
            }
        }
    }

    fn submit_slot(&self, tenant: usize, input: Tensor) -> Result<Ticket, ServeError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        check_batch_shape(self.shared.dims, &input)?;
        // Tenant quota first: a metered tenant is refused per-tenant
        // *before* it can contend for the shared queue capacity.
        if let Some(t) = &self.shared.tenants {
            let admitted = t.buckets[tenant]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .try_take(Instant::now());
            if !admitted {
                self.shared.metrics.record_quota_rejected(tenant);
                return Err(ServeError::QuotaExhausted {
                    tenant: t.names[tenant].clone(),
                });
            }
        }
        // Reserve a queue slot or shed — explicit backpressure, applied
        // before the request consumes any memory in the queue.
        let cap = self.shared.cfg.queue_cap;
        if self
            .shared
            .depth
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| {
                (d < cap).then_some(d + 1)
            })
            .is_err()
        {
            self.shared.metrics.record_shed(tenant);
            return Err(ServeError::Overloaded { queue_cap: cap });
        }
        let rows = input.dims()[0];
        let (respond, rx) = mpsc::channel();
        let request = Request {
            input,
            rows,
            respond,
            enqueued: Instant::now(),
            depth: Arc::clone(&self.shared.depth),
            tenant,
        };
        if self.tx.send(SchedMsg::Request(request)).is_err() {
            self.shared.depth.fetch_sub(1, Ordering::SeqCst);
            return Err(ServeError::ShuttingDown);
        }
        Ok(Ticket { rx })
    }

    /// Convenience: [`submit`](ServerHandle::submit) then
    /// [`Ticket::wait`] — one blocking round trip.
    ///
    /// # Errors
    ///
    /// Propagates the submission or serving error.
    pub fn infer(&self, input: Tensor) -> Result<Tensor, ServeError> {
        self.submit(input)?.wait()
    }

    /// Convenience: [`submit_for`](ServerHandle::submit_for) then
    /// [`Ticket::wait`] — one blocking tenant-tagged round trip.
    ///
    /// # Errors
    ///
    /// Propagates the submission or serving error.
    pub fn infer_for(&self, tenant: u64, input: Tensor) -> Result<Tensor, ServeError> {
        self.submit_for(tenant, input)?.wait()
    }

    /// Requests currently admitted and unanswered (queued, batching, or in
    /// flight on a worker) — the quantity `queue_cap` bounds.
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::SeqCst)
    }

    /// A snapshot of the serving metrics.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.metrics.snapshot(self.queue_depth())
    }
}

/// A running batched-serving instance: owns the scheduler and one worker
/// thread per [`Backend`]. Dropping (or [`shutdown`](Server::shutdown)ting)
/// the server drains the queue with [`ServeError::ShuttingDown`], lets
/// in-flight batches finish, and joins every thread.
///
/// # Example
///
/// ```
/// use fluid_serve::{EngineBackend, ServeConfig, Server};
/// use fluid_models::{Arch, FluidModel};
/// use fluid_tensor::{Prng, Tensor};
///
/// let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(0));
/// let spec = model.spec("combined100").unwrap().clone();
/// // Two in-proc replicas of the same model = two serving slots.
/// let backends: Vec<Box<dyn fluid_serve::Backend>> = (0..2)
///     .map(|i| {
///         Box::new(EngineBackend::new(
///             &format!("replica{i}"),
///             model.net().clone(),
///             spec.clone(),
///         )) as Box<dyn fluid_serve::Backend>
///     })
///     .collect();
/// let server = Server::start(ServeConfig::default(), backends).unwrap();
/// let logits = server.handle().infer(Tensor::zeros(&[1, 1, 28, 28])).unwrap();
/// assert_eq!(logits.dims(), &[1, 10]);
/// let metrics = server.shutdown();
/// assert_eq!(metrics.completed, 1);
/// ```
pub struct Server {
    handle: ServerHandle,
    scheduler: Option<JoinHandle<()>>,
    slots: Arc<Mutex<Vec<Slot>>>,
    metrics: Arc<MetricsHub>,
    dims: [usize; 3],
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("dims", &self.dims)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Boots the serving instance: one scheduler plus one thread per
    /// backend.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] when `backends` is empty, the
    /// backends disagree on input dimensions, or a knob is zero
    /// (`max_batch` and `queue_cap` must both be at least 1).
    pub fn start(cfg: ServeConfig, backends: Vec<Box<dyn Backend>>) -> Result<Server, ServeError> {
        if backends.is_empty() {
            return Err(ServeError::BadInput("no backends".into()));
        }
        if cfg.max_batch == 0 || cfg.queue_cap == 0 {
            return Err(ServeError::BadInput(
                "max_batch and queue_cap must be at least 1".into(),
            ));
        }
        if let Some(tenancy) = &cfg.tenancy {
            tenancy.validate().map_err(ServeError::BadInput)?;
        }
        if let Some(threads) = cfg.threads {
            if threads == 0 {
                return Err(ServeError::BadInput("threads must be at least 1".into()));
            }
            fluid_tensor::pool::set_threads(threads);
        }
        let dims = backends[0].input_dims();
        if let Some(b) = backends.iter().find(|b| b.input_dims() != dims) {
            return Err(ServeError::BadInput(format!(
                "backend {:?} serves input {:?}, others serve {:?}",
                b.name(),
                b.input_dims(),
                dims
            )));
        }
        let metrics = Arc::new(MetricsHub::new(
            backends.iter().map(|b| b.name().to_owned()).collect(),
            cfg.tenancy.as_ref().map_or_else(Vec::new, |t| {
                t.tenants
                    .iter()
                    .map(|p| (p.name.clone(), p.class))
                    .collect()
            }),
        ));
        let (sched_tx, sched_rx) = mpsc::channel::<SchedMsg>();
        let handle = ServerHandle {
            tx: sched_tx,
            shared: Arc::new(HandleShared {
                depth: Arc::new(AtomicUsize::new(0)),
                queued_rows: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                cfg: cfg.clone(),
                dims,
                metrics: Arc::clone(&metrics),
                tenants: cfg.tenancy.as_ref().map(TenantTable::new),
            }),
        };

        let slots: Vec<Slot> = backends
            .into_iter()
            .enumerate()
            .map(|(i, backend)| spawn_slot(i, backend, &handle))
            .collect();
        let slots = Arc::new(Mutex::new(slots));

        let scheduler = {
            let slots = Arc::clone(&slots);
            let shared = Arc::clone(&handle.shared);
            std::thread::spawn(move || scheduler_loop(&sched_rx, &slots, &shared))
        };

        Ok(Server {
            handle,
            scheduler: Some(scheduler),
            slots,
            metrics,
            dims,
        })
    }

    /// A new client handle (cheap; clone freely across threads).
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// A snapshot of the serving metrics.
    pub fn metrics(&self) -> ServeMetrics {
        self.metrics.snapshot(self.handle.queue_depth())
    }

    /// Worker slots currently accepting batches (live, not draining, not
    /// retired).
    pub fn alive_workers(&self) -> usize {
        lock_slots(&self.slots)
            .iter()
            .filter(|s| slot_accepting(s))
            .count()
    }

    /// A handle for runtime pool reconfiguration: add, drain, retire, and
    /// hot-swap worker slots while the server keeps serving. Cheap to
    /// clone; safe to use from any thread (the [`Autoscaler`] runs on one).
    ///
    /// [`Autoscaler`]: crate::Autoscaler
    pub fn elastic(&self) -> ElasticHandle {
        ElasticHandle {
            handle: self.handle.clone(),
            slots: Arc::clone(&self.slots),
            metrics: Arc::clone(&self.metrics),
            dims: self.dims,
        }
    }

    /// Replaces worker slot `index` with a fresh backend — the serving
    /// layer's reattach: after a [`MasterBackend`](crate::MasterBackend)'s
    /// link dies, build a replacement pair and plug it back in; capacity is
    /// restored without touching in-flight traffic.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] when `index` is out of range or the
    /// replacement serves different input dimensions.
    pub fn reattach(&self, index: usize, backend: Box<dyn Backend>) -> Result<(), ServeError> {
        if backend.input_dims() != self.dims {
            return Err(ServeError::BadInput(format!(
                "replacement serves input {:?}, server serves {:?}",
                backend.input_dims(),
                self.dims
            )));
        }
        let name = backend.name().to_owned();
        // Retire the old slot. The tx/thread are taken *under* the lock
        // (from then on the dispatcher skips the slot — `tx` is `None`)
        // but the potentially slow Stop+join happens *outside* it, so the
        // scheduler keeps dispatching to healthy workers throughout.
        let (old_tx, old_thread) = {
            let mut slots = lock_slots(&self.slots);
            if index >= slots.len() {
                return Err(bad_slot(index, slots.len()));
            }
            if slots[index].tx.is_none() {
                // Retired slots stay retired: replacement capacity goes
                // through `ElasticHandle::add` instead.
                return Err(ServeError::Elastic(format!("slot {index} is retired")));
            }
            (slots[index].tx.take(), slots[index].thread.take())
        };
        if let Some(tx) = old_tx {
            let _ = tx.send(SlotMsg::Stop);
        }
        if let Some(t) = old_thread {
            let _ = t.join();
        }
        let mut slots = lock_slots(&self.slots);
        slots[index] = spawn_slot(index, backend, &self.handle);
        self.metrics.record_reattach(index, name);
        Ok(())
    }

    /// Stops the server: sheds everything still queued with
    /// [`ServeError::ShuttingDown`], completes in-flight batches, joins all
    /// threads, and returns the final metrics snapshot.
    pub fn shutdown(mut self) -> ServeMetrics {
        self.stop();
        self.metrics.snapshot(0)
    }

    fn stop(&mut self) {
        // The flag is `submit`'s (and `ElasticHandle::add`'s) fast refusal;
        // the message is what wakes the scheduler, wherever it is blocked.
        self.handle.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.handle.tx.send(SchedMsg::Shutdown);
        if let Some(t) = self.scheduler.take() {
            let _ = t.join();
        }
        let mut slots = lock_slots(&self.slots);
        for slot in slots.iter_mut() {
            if let Some(tx) = slot.tx.take() {
                let _ = tx.send(SlotMsg::Stop);
            }
        }
        for slot in slots.iter_mut() {
            if let Some(t) = slot.thread.take() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Runtime reconfiguration of a running [`Server`]'s worker pool, obtained
/// from [`Server::elastic`].
///
/// Slot indices are stable for the server's lifetime: retiring a slot
/// leaves a husk behind (its counters survive in the metrics) instead of
/// shifting later slots down. The lifecycle of a slot is
///
/// ```text
/// add ──▶ accepting ──▶ draining ──▶ retired
///             │  ▲
///       death ▼  │ reattach
///             dead
/// ```
///
/// * [`add`](ElasticHandle::add) appends a slot and starts dispatching to
///   it immediately — scale **up**.
/// * [`drain`](ElasticHandle::drain) stops new dispatch to a slot while
///   its in-flight batches finish; [`retire`](ElasticHandle::retire) then
///   waits for the drain and joins the worker thread — scale **down**
///   without dropping a single admitted request.
/// * [`hot_swap`](ElasticHandle::hot_swap) is the zero-downtime model
///   update: add fresh slots first, then drain and retire every old one.
///   Cutover happens at batch boundaries — a batch runs wholly on the old
///   or wholly on the new model, and in-flight tickets always resolve.
///
/// # Example
///
/// ```
/// use fluid_serve::{EngineBackend, ServeConfig, Server};
/// use fluid_models::{Arch, FluidModel};
/// use fluid_tensor::{Prng, Tensor};
/// use std::time::Duration;
///
/// let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(0));
/// let spec = model.spec("combined100").unwrap().clone();
/// let backend = |name: &str| {
///     Box::new(EngineBackend::new(name, model.net().clone(), spec.clone()))
///         as Box<dyn fluid_serve::Backend>
/// };
/// let server = Server::start(ServeConfig::default(), vec![backend("v1-0")]).unwrap();
/// let elastic = server.elastic();
///
/// // Scale up, then hot-swap the (here: identical) model with zero downtime.
/// elastic.add(backend("v1-1")).unwrap();
/// assert_eq!(server.alive_workers(), 2);
/// elastic
///     .hot_swap(vec![backend("v2-0"), backend("v2-1")], Duration::from_secs(5))
///     .unwrap();
/// let logits = server.handle().infer(Tensor::zeros(&[1, 1, 28, 28])).unwrap();
/// assert_eq!(logits.dims(), &[1, 10]);
/// let m = server.shutdown();
/// assert_eq!(m.hot_swaps, 1);
/// assert_eq!(m.workers_retired, 2);
/// ```
#[derive(Clone)]
pub struct ElasticHandle {
    handle: ServerHandle,
    slots: Arc<Mutex<Vec<Slot>>>,
    metrics: Arc<MetricsHub>,
    dims: [usize; 3],
}

impl std::fmt::Debug for ElasticHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticHandle")
            .field("slots", &lock_slots(&self.slots).len())
            .finish_non_exhaustive()
    }
}

/// How often [`ElasticHandle::retire`] re-checks a draining slot.
const DRAIN_POLL: Duration = Duration::from_millis(1);

impl ElasticHandle {
    /// A client handle to the same server (for submissions and metrics).
    pub fn server_handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// A snapshot of the serving metrics.
    pub fn metrics(&self) -> ServeMetrics {
        self.handle.metrics()
    }

    /// Total worker slots, including dead and retired ones.
    pub fn slot_count(&self) -> usize {
        lock_slots(&self.slots).len()
    }

    /// Worker slots currently accepting batches (live, not draining, not
    /// retired).
    pub fn alive_workers(&self) -> usize {
        lock_slots(&self.slots)
            .iter()
            .filter(|s| slot_accepting(s))
            .count()
    }

    /// Input rows dispatched to slot `index` and not yet answered.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] when `index` is out of range.
    pub fn in_flight_rows(&self, index: usize) -> Result<usize, ServeError> {
        let slots = lock_slots(&self.slots);
        let slot = slots
            .get(index)
            .ok_or_else(|| bad_slot(index, slots.len()))?;
        Ok(slot.shared.in_flight_rows.load(Ordering::SeqCst))
    }

    /// Drains the latency samples (milliseconds) recorded since the last
    /// call — the controller's per-tick observation window. Unlike the
    /// cumulative percentiles in [`ServeMetrics`], this window forgets, so
    /// a recovered server shows a recovered p95.
    pub fn take_recent_latencies_ms(&self) -> Vec<f64> {
        self.metrics
            .take_recent_latencies()
            .into_iter()
            .map(|s| s * 1e3)
            .collect()
    }

    /// Appends a new worker slot running `backend` and starts dispatching
    /// to it immediately. Returns the new slot's index.
    ///
    /// # Errors
    ///
    /// * [`ServeError::BadInput`] — the backend serves different input
    ///   dimensions than the pool.
    /// * [`ServeError::ShuttingDown`] — the server is stopping.
    pub fn add(&self, backend: Box<dyn Backend>) -> Result<usize, ServeError> {
        if backend.input_dims() != self.dims {
            return Err(ServeError::BadInput(format!(
                "new backend serves input {:?}, server serves {:?}",
                backend.input_dims(),
                self.dims
            )));
        }
        let mut slots = lock_slots(&self.slots);
        // Checked under the slot lock: `Server::stop` raises the flag
        // before it walks the slot table, so a slot admitted here is
        // guaranteed to be seen (and joined) by the shutdown walk.
        if self.handle.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        Ok(self.add_locked(&mut slots, backend))
    }

    /// Appends one slot under an already-held slot lock.
    fn add_locked(&self, slots: &mut Vec<Slot>, backend: Box<dyn Backend>) -> usize {
        let index = slots.len();
        self.metrics.record_added(backend.name().to_owned());
        slots.push(spawn_slot(index, backend, &self.handle));
        index
    }

    /// Stops dispatching new batches to slot `index`; in-flight batches
    /// finish normally. Draining is one-way — follow with
    /// [`retire`](ElasticHandle::retire).
    ///
    /// Draining every accepting slot without adding capacity first leaves
    /// new batches with nowhere to go (they fail with
    /// [`ServeError::NoWorkers`]); scale-down logic must keep at least one
    /// accepting slot, which [`hot_swap`](ElasticHandle::hot_swap) does by
    /// adding the replacements before draining.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] for an out-of-range index or
    /// [`ServeError::Elastic`] for an already-retired slot.
    pub fn drain(&self, index: usize) -> Result<(), ServeError> {
        let slots = lock_slots(&self.slots);
        let slot = slots
            .get(index)
            .ok_or_else(|| bad_slot(index, slots.len()))?;
        if slot.tx.is_none() {
            return Err(ServeError::Elastic(format!("slot {index} is retired")));
        }
        slot.shared.draining.store(true, Ordering::SeqCst);
        self.metrics.record_draining(index);
        Ok(())
    }

    /// Whether slot `index` is draining (or dead) with no in-flight rows —
    /// i.e. ready to [`retire`](ElasticHandle::retire) without waiting.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] when `index` is out of range.
    pub fn is_drained(&self, index: usize) -> Result<bool, ServeError> {
        let slots = lock_slots(&self.slots);
        let slot = slots
            .get(index)
            .ok_or_else(|| bad_slot(index, slots.len()))?;
        let accepting = slot.tx.is_some()
            && slot.shared.alive.load(Ordering::SeqCst)
            && !slot.shared.draining.load(Ordering::SeqCst);
        Ok(!accepting && slot.shared.in_flight_rows.load(Ordering::SeqCst) == 0)
    }

    /// Retires slot `index`: drains it (if not already draining), waits up
    /// to `timeout` for its in-flight batches to finish, then stops and
    /// joins its worker thread. The slot's counters survive in the metrics
    /// with the `retired` state; the index is never reused.
    ///
    /// Dead slots retire immediately (their thread is parked; any batch
    /// that raced in has already been bounced back to the scheduler).
    ///
    /// # Errors
    ///
    /// * [`ServeError::BadInput`] — `index` out of range.
    /// * [`ServeError::Elastic`] — already retired, or still busy after
    ///   `timeout` (the slot stays draining; retry later).
    pub fn retire(&self, index: usize, timeout: Duration) -> Result<(), ServeError> {
        self.drain(index)?;
        let shared = {
            let slots = lock_slots(&self.slots);
            Arc::clone(&slots[index].shared)
        };
        let deadline = Instant::now() + timeout;
        loop {
            let busy = shared.in_flight_rows.load(Ordering::SeqCst);
            if busy == 0 {
                break;
            }
            if Instant::now() >= deadline {
                return Err(ServeError::Elastic(format!(
                    "slot {index} still has {busy} in-flight rows after {timeout:?}"
                )));
            }
            std::thread::sleep(DRAIN_POLL);
        }
        // Same take-under-lock / join-outside-lock shape as `reattach`:
        // the dispatcher never blocks on a slow worker exit.
        let (tx, thread) = {
            let mut slots = lock_slots(&self.slots);
            (slots[index].tx.take(), slots[index].thread.take())
        };
        let Some(tx) = tx else {
            return Err(ServeError::Elastic(format!("slot {index} is retired")));
        };
        let _ = tx.send(SlotMsg::Stop);
        if let Some(t) = thread {
            let _ = t.join();
        }
        self.metrics.record_retired(index);
        Ok(())
    }

    /// Zero-downtime model hot-swap: adds one slot per replacement backend
    /// (the new model starts serving immediately), then drains and retires
    /// every pre-existing slot — alive, draining, or dead. Returns the new
    /// slots' indices.
    ///
    /// Because replacements are accepting *before* the old slots stop, and
    /// retirement waits for in-flight batches, no admitted request is
    /// dropped and every batch runs on exactly one model version. Swapping
    /// in backends built from the same checkpoint is therefore
    /// bit-identical to not swapping at all.
    ///
    /// The old-generation snapshot and the insertion of every replacement
    /// happen under one slot-table lock, so a slot added concurrently (by
    /// another thread or a running [`Autoscaler`]) lands either before the
    /// cutover — and is drained with the old generation — or after it.
    /// **Running a live [`Autoscaler`] across a hot swap is still on the
    /// operator**: its [`BackendFactory`] keeps minting whatever model it
    /// captured, so stop the controller (or swap its factory) before
    /// swapping models — as `fluidctl reload` and the examples do.
    ///
    /// [`Autoscaler`]: crate::Autoscaler
    /// [`BackendFactory`]: crate::BackendFactory
    ///
    /// # Errors
    ///
    /// * [`ServeError::BadInput`] — `replacements` is empty or disagrees
    ///   with the pool's input dimensions (nothing is changed).
    /// * [`ServeError::ShuttingDown`] — the server is stopping.
    /// * [`ServeError::Elastic`] — an old slot did not drain within
    ///   `retire_timeout` (the new slots stay; the stuck slot stays
    ///   draining and can be retired later).
    pub fn hot_swap(
        &self,
        replacements: Vec<Box<dyn Backend>>,
        retire_timeout: Duration,
    ) -> Result<Vec<usize>, ServeError> {
        if replacements.is_empty() {
            return Err(ServeError::BadInput("hot swap needs backends".into()));
        }
        if let Some(b) = replacements.iter().find(|b| b.input_dims() != self.dims) {
            return Err(ServeError::BadInput(format!(
                "replacement {:?} serves input {:?}, server serves {:?}",
                b.name(),
                b.input_dims(),
                self.dims
            )));
        }
        // One lock acquisition covers the generation snapshot and every
        // insertion: nothing can slip between "old" and "new".
        let (old, added) = {
            let mut slots = lock_slots(&self.slots);
            if self.handle.shared.shutdown.load(Ordering::SeqCst) {
                return Err(ServeError::ShuttingDown);
            }
            let old: Vec<usize> = (0..slots.len())
                .filter(|&i| slots[i].tx.is_some())
                .collect();
            let added: Vec<usize> = replacements
                .into_iter()
                .map(|backend| self.add_locked(&mut slots, backend))
                .collect();
            (old, added)
        };
        // New capacity is live; now take the old generation out of
        // dispatch in one pass, then wait out their in-flight batches.
        for &i in &old {
            self.drain(i)?;
        }
        for &i in &old {
            self.retire(i, retire_timeout)?;
        }
        self.metrics.record_hot_swap();
        Ok(added)
    }
}

fn bad_slot(index: usize, len: usize) -> ServeError {
    ServeError::BadInput(format!("no worker slot {index} (have {len})"))
}

fn lock_slots(slots: &Mutex<Vec<Slot>>) -> std::sync::MutexGuard<'_, Vec<Slot>> {
    slots.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether the dispatcher may route new batches to this slot: not retired
/// (`tx` present), not dead, not draining.
fn slot_accepting(slot: &Slot) -> bool {
    slot.tx.is_some()
        && slot.shared.alive.load(Ordering::SeqCst)
        && !slot.shared.draining.load(Ordering::SeqCst)
}

/// One pass over the slot table: the least-loaded accepting worker as
/// `(index, in-flight rows)`, ties broken round-robin from `rr_cursor` so
/// equally-idle workers share traffic. `None` with no accepting worker.
/// The row count is all [`next_step`] needs to know about the pool: `0`
/// means a worker is idle, `2 × max_batch` or more means every one is
/// saturated.
fn least_loaded(slots: &[Slot], rr_cursor: usize) -> Option<(usize, usize)> {
    let n = slots.len();
    (0..n)
        .map(|k| (rr_cursor + k) % n)
        .filter(|&i| slot_accepting(&slots[i]))
        .map(|i| (i, slots[i].shared.in_flight_rows.load(Ordering::SeqCst)))
        .min_by_key(|&(_, rows)| rows)
}

fn spawn_slot(index: usize, backend: Box<dyn Backend>, server: &ServerHandle) -> Slot {
    let (tx, rx) = mpsc::channel::<SlotMsg>();
    let shared = Arc::new(SlotShared {
        alive: AtomicBool::new(true),
        draining: AtomicBool::new(false),
        in_flight_rows: AtomicUsize::new(0),
    });
    let thread = {
        let shared = Arc::clone(&shared);
        let server = server.clone();
        std::thread::spawn(move || worker_loop(index, backend, rx, &shared, &server))
    };
    Slot {
        tx: Some(tx),
        shared,
        thread: Some(thread),
    }
}

fn worker_loop(
    index: usize,
    mut backend: Box<dyn Backend>,
    rx: Receiver<SlotMsg>,
    shared: &SlotShared,
    server: &ServerHandle,
) {
    let (retry_tx, metrics) = (&server.tx, &*server.shared.metrics);
    // After a backend failure the thread *parks* instead of exiting:
    // anything still queued on (or racing into) this slot's channel is
    // bounced back to the scheduler rather than dropped, so no request is
    // ever lost and no admission slot leaks. Only `Stop` ends the loop.
    let mut dead = false;
    // Reused across batches so the steady-state loop does not allocate it.
    let mut latencies: Vec<(usize, Duration)> = Vec::new();
    while let Ok(msg) = rx.recv() {
        let mut job = match msg {
            SlotMsg::Stop => break,
            SlotMsg::Job(job) => job,
        };
        let rows = job.rows();
        if dead {
            shared.in_flight_rows.fetch_sub(rows, Ordering::SeqCst);
            bounce(job, retry_tx, metrics, "dispatched to a dead worker");
            continue;
        }
        let result = backend.infer_batch(&job.input);
        shared.in_flight_rows.fetch_sub(rows, Ordering::SeqCst);
        // Wake the scheduler the moment capacity frees up, but only if rows
        // wait for it. Both sides are `SeqCst`: either this load sees the
        // rows `Scheduler::step` saw queued, or that step's read of the slot
        // table saw this worker idle and dispatched without a wake-up. (A
        // closed send just means the scheduler is gone.)
        if server.shared.queued_rows.load(Ordering::SeqCst) > 0 {
            let _ = retry_tx.send(SchedMsg::Done);
        }
        let logits = match result {
            Ok(logits) if logits.dims().len() == 2 && logits.dims()[0] == rows => logits,
            Ok(bad) => {
                // A backend answering with the wrong shape is as dead as
                // one that errored — its future answers can't be trusted.
                dead = true;
                shared.alive.store(false, Ordering::SeqCst);
                metrics.record_worker_death(index);
                let why = format!("backend returned logits {:?} for {} rows", bad.dims(), rows);
                bounce(job, retry_tx, metrics, &why);
                continue;
            }
            Err(e) => {
                dead = true;
                shared.alive.store(false, Ordering::SeqCst);
                metrics.record_worker_death(index);
                bounce(job, retry_tx, metrics, &e.to_string());
                continue;
            }
        };
        let now = Instant::now();
        latencies.clear();
        latencies.extend(
            job.parts
                .iter()
                .map(|p| (p.tenant, now.duration_since(p.enqueued))),
        );
        metrics.record_batch(index, job.parts.len(), rows, &latencies);
        let mut lo = 0;
        for part in job.parts.drain(..) {
            let piece = logits.slice_rows(lo, lo + part.rows);
            lo += part.rows;
            part.answer(Ok(piece));
        }
        // The logits buffer goes back to the backend's arena: the serving
        // compute path stays allocation-free batch after batch.
        backend.recycle_output(logits);
    }
}

/// Sends a job back to the scheduler for dispatch to another worker,
/// answering it directly if the scheduler is already gone (shutdown).
fn bounce(mut job: Job, retry_tx: &Sender<SchedMsg>, metrics: &MetricsHub, why: &str) {
    job.attempts += 1;
    let job = match retry_tx.send(SchedMsg::Retry(job)) {
        Ok(()) => return,
        Err(mpsc::SendError(SchedMsg::Retry(job))) => job,
        Err(_) => unreachable!("send returns what it was given"),
    };
    job.fail(&ServeError::WorkerFailed(why.to_owned()), metrics);
}

/// The scheduler thread's state: the per-tenant queues and the cursors that
/// persist from one batch to the next.
struct Scheduler<'a> {
    slots: &'a Mutex<Vec<Slot>>,
    cfg: &'a ServeConfig,
    dims: [usize; 3],
    metrics: &'a MetricsHub,
    /// One queue per tenant. Without tenancy there is a single anonymous
    /// queue whose DRR credit covers a full batch — the assembly then
    /// degenerates to the classic FIFO coalescing.
    queues: Vec<VecDeque<Request>>,
    /// Rows across `queues`, published to the workers (`HandleShared`).
    queued_rows: &'a AtomicUsize,
    /// The DRR ring, interactive tenants first: their rows board a forming
    /// batch before batch-class rows.
    order: Vec<usize>,
    weights: Vec<u32>,
    drr: DrrState,
    staged: Vec<(usize, Request)>,
    rr_cursor: usize,
}

impl<'a> Scheduler<'a> {
    fn new(slots: &'a Mutex<Vec<Slot>>, shared: &'a HandleShared) -> Self {
        let cfg = &shared.cfg;
        let (order, weights) = match &cfg.tenancy {
            Some(t) => {
                let mut order: Vec<usize> = (0..t.tenants.len()).collect();
                order.sort_by_key(|&i| match t.tenants[i].class {
                    TenantClass::Interactive => 0,
                    TenantClass::Batch => 1,
                });
                (order, t.tenants.iter().map(|p| p.weight).collect())
            }
            None => (
                vec![0],
                vec![u32::try_from(cfg.max_batch).unwrap_or(u32::MAX).max(1)],
            ),
        };
        Scheduler {
            slots,
            cfg,
            dims: shared.dims,
            metrics: &shared.metrics,
            queues: order.iter().map(|_| VecDeque::new()).collect(),
            queued_rows: &shared.queued_rows,
            drr: DrrState::new(order.len()),
            order,
            weights,
            staged: Vec::new(),
            rr_cursor: 0,
        }
    }

    /// The one place a [`SchedMsg`] is read. `Break` means shut down.
    fn ingest(&mut self, msg: SchedMsg) -> ControlFlow<()> {
        match msg {
            SchedMsg::Request(r) => {
                self.queued_rows.fetch_add(r.rows, Ordering::SeqCst);
                self.queues[r.tenant].push_back(r);
            }
            SchedMsg::Retry(job) => {
                self.metrics.record_retry();
                let slots = lock_slots(self.slots);
                let chosen = least_loaded(&slots, self.rr_cursor);
                dispatch(job, &slots, chosen, &mut self.rr_cursor, self.metrics);
            }
            // Nothing to record: the next `step` reads the freed capacity.
            SchedMsg::Done => {}
            SchedMsg::Shutdown => return ControlFlow::Break(()),
        }
        ControlFlow::Continue(())
    }

    /// Decides what to do next ([`next_step`]) from one read of the slot
    /// table and, when a batch is due, assembles and sends it under that
    /// same lock — so the worker the decision saw is the worker that gets
    /// the batch, and `ElasticHandle::drain` can never miss one.
    fn step(&mut self) -> Step {
        let slots = lock_slots(self.slots);
        let chosen = least_loaded(&slots, self.rr_cursor);
        // The forming batch's clock started when its oldest request was
        // admitted, so a backlog that outlived a saturated spell is not
        // charged a second window.
        let until_deadline = self
            .queues
            .iter()
            .filter_map(|q| q.front())
            .map(|r| r.enqueued)
            .min()
            .map_or(Duration::ZERO, |oldest| {
                (oldest + self.cfg.max_wait).saturating_duration_since(Instant::now())
            });
        let step = next_step(
            self.queued_rows.load(Ordering::SeqCst),
            self.cfg.max_batch,
            chosen.map(|(_, rows)| rows),
            until_deadline,
        );
        if step == Step::Dispatch {
            let job = self.assemble();
            dispatch(job, &slots, chosen, &mut self.rr_cursor, self.metrics);
        }
        step
    }

    /// Weighted deficit-round-robin assembly (FIFO within each tenant) of
    /// one batch from a non-empty backlog.
    fn assemble(&mut self) -> Job {
        self.staged.clear();
        let rows = self.drr.assemble(
            &mut self.queues,
            &self.order,
            &self.weights,
            self.cfg.max_batch,
            |r| r.rows,
            &mut self.staged,
        );
        self.queued_rows.fetch_sub(rows, Ordering::SeqCst);
        let mut parts = Vec::with_capacity(self.staged.len());
        let mut data =
            Vec::with_capacity(self.staged.iter().map(|(_, r)| r.input.data().len()).sum());
        for (tenant, r) in self.staged.drain(..) {
            data.extend_from_slice(r.input.data());
            parts.push(Part {
                respond: r.respond,
                rows: r.rows,
                enqueued: r.enqueued,
                depth: r.depth,
                tenant,
            });
        }
        let [c, h, w] = self.dims;
        Job {
            input: Tensor::from_vec(data, &[rows, c, h, w]),
            parts,
            attempts: 0,
        }
    }
}

fn scheduler_loop(rx: &Receiver<SchedMsg>, slots: &Mutex<Vec<Slot>>, shared: &HandleShared) {
    let mut sched = Scheduler::new(slots, shared);
    'serve: loop {
        // The one blocking receive, for as long as the state allows: forever
        // with nothing queued, to the batch deadline while a batch waits on
        // busy workers, a pacing tick while they are saturated — and not at
        // all when a batch has just left and the next may be due.
        let first = match sched.step() {
            Step::Dispatch => Err(RecvTimeoutError::Timeout),
            Step::Wait(None) => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Step::Wait(Some(timeout)) => rx.recv_timeout(timeout),
        };
        if matches!(first, Err(RecvTimeoutError::Disconnected)) {
            break; // every sender is gone: nobody is left to serve
        }
        // Then everything else that has already arrived, so the next
        // decision is judged against true per-tenant backlogs: the channel's
        // transport order must not masquerade as queue state.
        let mut next = first.ok().or_else(|| rx.try_recv().ok());
        while let Some(msg) = next {
            if sched.ingest(msg).is_break() {
                break 'serve;
            }
            next = rx.try_recv().ok();
        }
    }
    drain_on_shutdown(rx, &mut sched.queues, &shared.metrics);
}

/// Sends one batch to slot `chosen` (the scheduler's [`least_loaded`] pick,
/// made under the same `slots` lock), re-picking if that worker's thread
/// turns out to be gone.
fn dispatch(
    mut job: Job,
    slots: &[Slot],
    mut chosen: Option<(usize, usize)>,
    rr_cursor: &mut usize,
    metrics: &MetricsHub,
) {
    loop {
        if job.attempts > slots.len() {
            let err = ServeError::WorkerFailed("retry budget exhausted".into());
            return job.fail(&err, metrics);
        }
        let Some((i, _)) = chosen else {
            return job.fail(&ServeError::NoWorkers, metrics);
        };
        *rr_cursor = i + 1;
        let rows = job.rows();
        let shared = &slots[i].shared;
        shared.in_flight_rows.fetch_add(rows, Ordering::SeqCst);
        let tx = slots[i].tx.as_ref().expect("least_loaded filters on tx");
        match tx.send(SlotMsg::Job(job)) {
            Ok(()) => return,
            Err(mpsc::SendError(SlotMsg::Job(bounced))) => {
                // The worker thread is gone (died between our liveness check
                // and the send): mark it and try the next slot.
                shared.in_flight_rows.fetch_sub(rows, Ordering::SeqCst);
                shared.alive.store(false, Ordering::SeqCst);
                job = bounced;
                job.attempts += 1;
                chosen = least_loaded(slots, *rr_cursor);
            }
            Err(_) => unreachable!("send returns what it was given"),
        }
    }
}

/// Answers everything still queued with `ShuttingDown`, then returns.
fn drain_on_shutdown(
    rx: &Receiver<SchedMsg>,
    queues: &mut [VecDeque<Request>],
    metrics: &MetricsHub,
) {
    let reject = |r: Request| {
        metrics.record_failed(1);
        r.depth.fetch_sub(1, Ordering::SeqCst);
        let _ = r.respond.send(Err(ServeError::ShuttingDown));
    };
    for queue in queues.iter_mut() {
        for r in queue.drain(..) {
            reject(r);
        }
    }
    while let Ok(msg) = rx.try_recv() {
        match msg {
            SchedMsg::Request(r) => reject(r),
            SchedMsg::Retry(job) => job.fail(&ServeError::ShuttingDown, metrics),
            SchedMsg::Done | SchedMsg::Shutdown => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::EngineBackend;
    use fluid_models::{Arch, FluidModel};
    use fluid_tensor::Prng;

    fn tiny_backend(name: &str, seed: u64) -> Box<dyn Backend> {
        let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(seed));
        Box::new(EngineBackend::new(
            name,
            model.net().clone(),
            model.spec("combined100").expect("spec").clone(),
        ))
    }

    #[test]
    fn start_requires_backends_and_sane_knobs() {
        assert!(matches!(
            Server::start(ServeConfig::default(), vec![]),
            Err(ServeError::BadInput(_))
        ));
        let cfg = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert!(Server::start(cfg, vec![tiny_backend("b", 0)]).is_err());
        let cfg = ServeConfig {
            threads: Some(0),
            ..ServeConfig::default()
        };
        assert!(Server::start(cfg, vec![tiny_backend("b", 0)]).is_err());
    }

    #[test]
    fn threads_knob_pins_the_kernel_pool() {
        let before = fluid_tensor::pool::threads();
        let cfg = ServeConfig {
            threads: Some(3),
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, vec![tiny_backend("b", 5)]).expect("start");
        assert_eq!(fluid_tensor::pool::threads(), 3);
        let h = server.handle();
        let out = h
            .submit(Tensor::zeros(&[1, 1, 28, 28]))
            .expect("submit")
            .wait()
            .expect("logits");
        assert_eq!(out.dims(), &[1, 10]);
        server.shutdown();
        fluid_tensor::pool::set_threads(before);
    }

    #[test]
    fn mismatched_backend_dims_are_refused() {
        let model14 = FluidModel::new(Arch::tiny(), &mut Prng::new(0));
        let b14 = Box::new(EngineBackend::new(
            "b14",
            model14.net().clone(),
            model14.spec("combined100").expect("spec").clone(),
        ));
        let err = Server::start(ServeConfig::default(), vec![tiny_backend("b28", 0), b14])
            .expect_err("dims disagree");
        assert!(matches!(err, ServeError::BadInput(_)), "{err}");
    }

    #[test]
    fn submit_validates_shape_before_queueing() {
        let server =
            Server::start(ServeConfig::default(), vec![tiny_backend("b", 1)]).expect("start");
        let h = server.handle();
        assert!(matches!(
            h.submit(Tensor::zeros(&[1, 1, 14, 14])),
            Err(ServeError::BadInput(_))
        ));
        assert_eq!(h.queue_depth(), 0);
        assert_eq!(h.metrics().shed, 0);
    }

    #[test]
    fn oversized_request_is_served_alone() {
        let cfg = ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, vec![tiny_backend("b", 2)]).expect("start");
        let logits = server
            .handle()
            .infer(Tensor::zeros(&[7, 1, 28, 28]))
            .expect("oversized batch still served");
        assert_eq!(logits.dims(), &[7, 10]);
        let m = server.shutdown();
        assert_eq!(m.completed, 1);
        assert_eq!(m.batch_histogram, vec![(1, 1)]);
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let server =
            Server::start(ServeConfig::default(), vec![tiny_backend("b", 3)]).expect("start");
        let h = server.handle();
        h.infer(Tensor::zeros(&[1, 1, 28, 28])).expect("serves");
        drop(server);
        assert!(matches!(
            h.submit(Tensor::zeros(&[1, 1, 28, 28])),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn dying_worker_answers_every_queued_request_and_leaks_no_admission_slots() {
        /// Fails every batch after the first, with enough per-batch delay
        /// that later submissions queue up behind the failure.
        struct FailsAfterFirst {
            inner: EngineBackend,
            served: usize,
        }
        impl Backend for FailsAfterFirst {
            fn name(&self) -> &str {
                "flaky"
            }
            fn input_dims(&self) -> [usize; 3] {
                self.inner.input_dims()
            }
            fn infer_batch(&mut self, x: &Tensor) -> Result<Tensor, fluid_dist::DistError> {
                std::thread::sleep(Duration::from_millis(10));
                self.served += 1;
                if self.served > 1 {
                    return Err(fluid_dist::DistError::WorkerDown);
                }
                self.inner.infer_batch(x)
            }
        }
        let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(6));
        let flaky = Box::new(FailsAfterFirst {
            inner: EngineBackend::new(
                "flaky",
                model.net().clone(),
                model.spec("combined100").expect("spec").clone(),
            ),
            served: 0,
        });
        let cfg = ServeConfig {
            max_batch: 1,
            max_wait: Duration::from_micros(100),
            queue_cap: 8,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, vec![flaky]).expect("start");
        let h = server.handle();
        let tickets: Vec<Ticket> = (0..6)
            .map(|_| h.submit(Tensor::zeros(&[1, 1, 28, 28])).expect("submit"))
            .collect();
        let mut ok = 0;
        let mut explicit_errors = 0;
        for t in tickets {
            match t.wait() {
                Ok(_) => ok += 1,
                // Every unserved request must get an explicit verdict —
                // never Canceled (a dropped, unanswered response channel).
                Err(ServeError::WorkerFailed(_)) | Err(ServeError::NoWorkers) => {
                    explicit_errors += 1
                }
                Err(other) => panic!("unexpected verdict {other}"),
            }
        }
        assert_eq!(ok, 1);
        assert_eq!(explicit_errors, 5);
        // No admission slot may leak: with all six answered, the bound is
        // fully available again.
        assert_eq!(h.queue_depth(), 0, "admission counter leaked");
        let m = server.shutdown();
        assert_eq!(m.completed, 1);
        assert_eq!(m.failed, 5);
        assert_eq!(m.worker_deaths, 1);
    }

    #[test]
    fn elastic_handle_rejects_bad_operations() {
        let server =
            Server::start(ServeConfig::default(), vec![tiny_backend("b", 7)]).expect("start");
        let elastic = server.elastic();

        // Wrong input dimensions are refused before any slot is touched.
        let model14 = FluidModel::new(Arch::tiny(), &mut Prng::new(0));
        let b14 = Box::new(EngineBackend::new(
            "b14",
            model14.net().clone(),
            model14.spec("combined100").expect("spec").clone(),
        ));
        assert!(matches!(elastic.add(b14), Err(ServeError::BadInput(_))));
        assert_eq!(elastic.slot_count(), 1);

        // Out-of-range slots.
        assert!(matches!(elastic.drain(5), Err(ServeError::BadInput(_))));
        assert!(matches!(
            elastic.retire(5, Duration::from_millis(1)),
            Err(ServeError::BadInput(_))
        ));
        assert!(elastic.in_flight_rows(5).is_err());

        // Empty hot swap changes nothing.
        assert!(matches!(
            elastic.hot_swap(vec![], Duration::from_millis(1)),
            Err(ServeError::BadInput(_))
        ));

        // Retiring twice: the second attempt reports the slot retired, and
        // a retired slot cannot be reattached either.
        elastic.add(tiny_backend("b2", 8)).expect("add");
        elastic.retire(1, Duration::from_secs(1)).expect("retire");
        assert!(matches!(
            elastic.retire(1, Duration::from_secs(1)),
            Err(ServeError::Elastic(_))
        ));
        assert!(matches!(
            server.reattach(1, tiny_backend("b3", 9)),
            Err(ServeError::Elastic(_))
        ));
        assert!(elastic.is_drained(1).expect("in range"));
        assert_eq!(server.alive_workers(), 1);
    }

    #[test]
    fn added_slot_serves_and_drain_excludes_from_dispatch() {
        let cfg = ServeConfig {
            max_batch: 1,
            max_wait: Duration::from_micros(100),
            queue_cap: 64,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, vec![tiny_backend("a", 4)]).expect("start");
        let elastic = server.elastic();
        let added = elastic.add(tiny_backend("b", 4)).expect("add");
        assert_eq!(added, 1);
        assert_eq!(server.alive_workers(), 2);

        let h = server.handle();
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| h.submit(Tensor::zeros(&[1, 1, 28, 28])).expect("submit"))
            .collect();
        for t in tickets {
            t.wait().expect("served");
        }
        assert!(
            server.metrics().workers.iter().all(|w| w.batches > 0),
            "added slot never dispatched: {:?}",
            server.metrics().workers
        );

        // Drain slot 0: everything now lands on slot 1.
        elastic.drain(0).expect("drain");
        assert_eq!(server.alive_workers(), 1);
        let before = server.metrics().workers[0].batches;
        for _ in 0..4 {
            h.infer(Tensor::zeros(&[1, 1, 28, 28])).expect("served");
        }
        let m = server.metrics();
        assert_eq!(m.workers[0].batches, before, "draining slot got new work");
        assert!(m.workers[0].draining);
        elastic.retire(0, Duration::from_secs(1)).expect("retire");
        let m = server.shutdown();
        assert!(m.workers[0].retired);
        assert_eq!(m.workers_added, 1);
        assert_eq!(m.workers_retired, 1);
    }

    #[test]
    fn shutting_down_server_refuses_new_slots() {
        let server =
            Server::start(ServeConfig::default(), vec![tiny_backend("b", 2)]).expect("start");
        let elastic = server.elastic();
        drop(server);
        assert!(matches!(
            elastic.add(tiny_backend("late", 3)),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn two_workers_share_traffic() {
        let cfg = ServeConfig {
            max_batch: 1, // force one batch per request
            max_wait: Duration::from_micros(100),
            queue_cap: 64,
            ..ServeConfig::default()
        };
        let server =
            Server::start(cfg, vec![tiny_backend("a", 4), tiny_backend("a2", 4)]).expect("start");
        let h = server.handle();
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| h.submit(Tensor::zeros(&[1, 1, 28, 28])).expect("submit"))
            .collect();
        for t in tickets {
            t.wait().expect("served");
        }
        let m = server.shutdown();
        assert_eq!(m.completed, 8);
        // Round-robin tie-breaking: both workers saw work.
        assert!(
            m.workers.iter().all(|w| w.batches > 0),
            "worker split {:?}",
            m.workers
        );
    }
}
