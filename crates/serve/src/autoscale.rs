//! The elasticity controller: closes the observe → decide → reconfigure
//! loop over a running [`Server`](crate::Server).
//!
//! PR 2 built a batched dispatcher with a *fixed* worker pool; the
//! [`ElasticHandle`] (this crate) makes the pool reconfigurable at
//! runtime. The [`Autoscaler`] is the policy on top: a background task
//! that watches the serving metrics — queue depth, shed rate, and the
//! p95 of a forgetting latency window — and grows or shrinks capacity so
//! the pool follows the offered load:
//!
//! * **Scale up** when the queue is past `up_queue_depth`, anything was
//!   shed since the last tick, or the recent p95 exceeds `up_p95_ms` —
//!   a fresh backend from the [`BackendFactory`] joins the pool
//!   immediately.
//! * **Scale down** after `idle_ticks` consecutive calm ticks — the
//!   least-loaded slot is drained (in-flight batches finish; no request
//!   is dropped) and retired.
//! * **Self-heal**: whenever accepting capacity falls below
//!   `min_workers` (e.g. a backend died), a replacement is added without
//!   waiting for the cooldown.
//!
//! Every decision is recorded as a [`ScaleEvent`], so tests and
//! operators can audit exactly why capacity moved. The rules are one pure
//! step, `Rules::tick` (no clock, thread or server), which the controller
//! thread drives: it observes, ticks, and carries out the decision.

use crate::backend::Backend;
use crate::error::ServeError;
use crate::server::ElasticHandle;
use fluid_perf::percentile;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Builds one unit of serving capacity on demand — how the [`Autoscaler`]
/// (and `fluidctl autoscale`) mints new backends when scaling up.
///
/// `slot` is the index the new backend will occupy (useful for naming).
/// Any `FnMut(usize) -> Result<Box<dyn Backend>, ServeError> + Send`
/// closure is a factory.
pub trait BackendFactory: Send {
    /// Builds the backend for worker slot `slot`.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when capacity cannot be built right now
    /// (e.g. a remote worker is unreachable); the controller logs the
    /// failure and retries on a later tick.
    fn build(&mut self, slot: usize) -> Result<Box<dyn Backend>, ServeError>;
}

impl<F> BackendFactory for F
where
    F: FnMut(usize) -> Result<Box<dyn Backend>, ServeError> + Send,
{
    fn build(&mut self, slot: usize) -> Result<Box<dyn Backend>, ServeError> {
        self(slot)
    }
}

/// The elasticity controller's knobs. See the "Elasticity" section of
/// `docs/SERVING.md` for the tuning guide.
///
/// `#[non_exhaustive]`: build it by mutating
/// [`AutoscaleConfig::default`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct AutoscaleConfig {
    /// Capacity floor: the controller adds workers (bypassing the
    /// cooldown) whenever fewer than this many slots accept traffic —
    /// which also makes it the self-healing response to worker deaths.
    pub min_workers: usize,
    /// Capacity ceiling: scale-up stops here.
    pub max_workers: usize,
    /// How often the controller observes and decides.
    pub tick: Duration,
    /// Scale up when the queue depth reaches this at a tick.
    pub up_queue_depth: usize,
    /// Scale up when the p95 of the latencies recorded since the last
    /// tick exceeds this many milliseconds. `0.0` disables the latency
    /// trigger.
    pub up_p95_ms: f64,
    /// A tick is *calm* when the queue depth is at or below this (and
    /// nothing was shed). The default of 1 means a single in-flight
    /// request does not break a calm streak — only actual queueing does.
    pub down_queue_depth: usize,
    /// Consecutive calm ticks before one worker is drained and retired.
    pub idle_ticks: usize,
    /// Ticks to wait after any scale action before the next one, so the
    /// controller observes the effect of a decision before repeating it.
    pub cooldown_ticks: usize,
    /// How long a retiring slot may take to finish its in-flight batches.
    pub retire_timeout: Duration,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            min_workers: 1,
            max_workers: 4,
            tick: Duration::from_millis(20),
            up_queue_depth: 8,
            up_p95_ms: 0.0,
            down_queue_depth: 1,
            idle_ticks: 25,
            cooldown_ticks: 5,
            retire_timeout: Duration::from_secs(10),
        }
    }
}

impl AutoscaleConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.min_workers == 0 {
            return Err(ServeError::BadInput(
                "min_workers must be at least 1".into(),
            ));
        }
        if self.max_workers < self.min_workers {
            return Err(ServeError::BadInput(format!(
                "max_workers {} below min_workers {}",
                self.max_workers, self.min_workers
            )));
        }
        if self.tick.is_zero() {
            return Err(ServeError::BadInput("tick must be non-zero".into()));
        }
        if self.up_queue_depth == 0 {
            return Err(ServeError::BadInput(
                "up_queue_depth must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// What a [`ScaleEvent`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// A worker slot was added.
    Up,
    /// A worker slot was drained and retired.
    Down,
    /// A decision could not be carried out (factory failure, drain
    /// timeout); the controller retries on a later tick.
    Failed,
}

/// One controller decision, for the audit log.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleEvent {
    /// When the decision was made, relative to [`Autoscaler::spawn`].
    pub at: Duration,
    /// What was done.
    pub action: ScaleAction,
    /// Accepting workers before the action.
    pub workers_before: usize,
    /// Accepting workers after the action.
    pub workers_after: usize,
    /// The observation that triggered the decision.
    pub reason: String,
}

impl std::fmt::Display for ScaleEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:8.3}s] {:6} {} -> {} workers ({})",
            self.at.as_secs_f64(),
            match self.action {
                ScaleAction::Up => "UP",
                ScaleAction::Down => "DOWN",
                ScaleAction::Failed => "FAILED",
            },
            self.workers_before,
            self.workers_after,
            self.reason
        )
    }
}

/// A running elasticity controller. Stop it (or drop it) before shutting
/// the server down; dropping joins the controller thread.
///
/// Stop the controller before a model
/// [`hot_swap`](crate::ElasticHandle::hot_swap) too (or hand the swap a
/// fresh controller afterwards): the factory keeps minting whatever model
/// it captured, so a controller left running across a swap would scale up
/// with the *old* model.
///
/// # Example
///
/// ```
/// use fluid_serve::{Autoscaler, AutoscaleConfig, EngineBackend, ServeConfig, Server};
/// use fluid_models::{Arch, FluidModel};
/// use fluid_tensor::{Prng, Tensor};
///
/// let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(0));
/// let spec = model.spec("combined100").unwrap().clone();
/// let net = model.net().clone();
/// let backend = EngineBackend::new("w0", net.clone(), spec.clone());
/// let server = Server::start(ServeConfig::default(), vec![Box::new(backend)]).unwrap();
///
/// let mut cfg = AutoscaleConfig::default();
/// cfg.min_workers = 1;
/// cfg.max_workers = 2;
/// let factory = move |slot: usize| {
///     Ok(Box::new(EngineBackend::new(
///         &format!("auto{slot}"),
///         net.clone(),
///         spec.clone(),
///     )) as Box<dyn fluid_serve::Backend>)
/// };
/// let scaler = Autoscaler::spawn(server.elastic(), factory, cfg).unwrap();
/// server.handle().infer(Tensor::zeros(&[1, 1, 28, 28])).unwrap();
/// let events = scaler.stop();
/// // One idle request never trips the high-water marks.
/// assert!(events.iter().all(|e| e.to_string().contains("workers")));
/// ```
pub struct Autoscaler {
    /// Dropping the sender wakes the controller out of its tick wait and
    /// ends it.
    stop: Option<mpsc::Sender<()>>,
    events: Arc<Mutex<Vec<ScaleEvent>>>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Autoscaler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Autoscaler")
            .field("events", &self.events().len())
            .finish_non_exhaustive()
    }
}

impl Autoscaler {
    /// Starts the controller thread over `elastic`, minting new capacity
    /// from `factory` under `cfg`'s rules.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] for inconsistent knobs
    /// (`min_workers == 0`, `max_workers < min_workers`, a zero `tick`,
    /// or `up_queue_depth == 0`).
    pub fn spawn<F: BackendFactory + 'static>(
        elastic: ElasticHandle,
        factory: F,
        cfg: AutoscaleConfig,
    ) -> Result<Autoscaler, ServeError> {
        cfg.validate()?;
        let (stop, stopped) = mpsc::channel();
        let events = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let events = Arc::clone(&events);
            std::thread::spawn(move || controller_loop(&elastic, factory, cfg, &stopped, &events))
        };
        Ok(Autoscaler {
            stop: Some(stop),
            events,
            thread: Some(thread),
        })
    }

    /// A snapshot of the decision log so far.
    pub fn events(&self) -> Vec<ScaleEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Stops the controller, joins its thread, and returns the full
    /// decision log.
    pub fn stop(mut self) -> Vec<ScaleEvent> {
        self.halt();
        self.events()
    }

    fn halt(&mut self) {
        drop(self.stop.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Autoscaler {
    fn drop(&mut self) {
        self.halt();
    }
}

/// One controller observation: everything a decision is based on.
pub(crate) struct Observation {
    queue_depth: usize,
    shed_delta: u64,
    recent_p95_ms: f64,
    recent_samples: usize,
    alive: usize,
}

/// What one tick decided.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Decision {
    /// Add one worker; the string is the observation that called for it.
    Up(String),
    /// Drain and retire one worker after this many consecutive calm ticks.
    Down { calm_ticks: usize },
}

/// The controller's decision rules: [`AutoscaleConfig`] plus the two
/// counters that carry over between ticks.
pub(crate) struct Rules {
    cfg: AutoscaleConfig,
    calm_ticks: usize,
    cooldown: usize,
}

impl Rules {
    pub(crate) fn new(cfg: AutoscaleConfig) -> Rules {
        Rules {
            cfg,
            calm_ticks: 0,
            cooldown: 0,
        }
    }

    /// Decides one tick from `obs`. Any decision starts a cooldown of
    /// `cooldown_ticks` ticks, whether or not the driver manages to carry
    /// it out.
    pub(crate) fn tick(&mut self, obs: &Observation) -> Option<Decision> {
        let cfg = &self.cfg;
        // Self-heal below the floor, cooldown or not: a dead worker must
        // not leave the pool under-provisioned for `cooldown_ticks`.
        if obs.alive < cfg.min_workers {
            self.cooldown = cfg.cooldown_ticks;
            self.calm_ticks = 0;
            return Some(Decision::Up(format!(
                "{} accepting workers below min {}",
                obs.alive, cfg.min_workers
            )));
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }

        let latency_hot =
            cfg.up_p95_ms > 0.0 && obs.recent_samples > 0 && obs.recent_p95_ms > cfg.up_p95_ms;
        let hot = obs.queue_depth >= cfg.up_queue_depth || obs.shed_delta > 0 || latency_hot;
        if hot {
            self.calm_ticks = 0;
            if obs.alive >= cfg.max_workers {
                return None;
            }
            let reason = if obs.shed_delta > 0 {
                format!("{} requests shed since last tick", obs.shed_delta)
            } else if obs.queue_depth >= cfg.up_queue_depth {
                format!(
                    "queue depth {} at high-water mark {}",
                    obs.queue_depth, cfg.up_queue_depth
                )
            } else {
                format!(
                    "recent p95 {:.1}ms over target {:.1}ms",
                    obs.recent_p95_ms, cfg.up_p95_ms
                )
            };
            self.cooldown = cfg.cooldown_ticks;
            return Some(Decision::Up(reason));
        }

        let calm = obs.queue_depth <= cfg.down_queue_depth && obs.shed_delta == 0;
        if !calm {
            self.calm_ticks = 0;
            return None;
        }
        self.calm_ticks += 1;
        if self.calm_ticks < cfg.idle_ticks || obs.alive <= cfg.min_workers {
            return None;
        }
        let calm_ticks = std::mem::take(&mut self.calm_ticks);
        self.cooldown = cfg.cooldown_ticks;
        Some(Decision::Down { calm_ticks })
    }
}

fn observe(elastic: &ElasticHandle, last_shed: &mut u64) -> Observation {
    let m = elastic.metrics();
    let shed_delta = m.shed.saturating_sub(*last_shed);
    *last_shed = m.shed;
    let mut recent = elastic.take_recent_latencies_ms();
    recent.sort_by(f64::total_cmp);
    Observation {
        queue_depth: m.queue_depth,
        shed_delta,
        recent_p95_ms: percentile(&recent, 0.95),
        recent_samples: recent.len(),
        alive: elastic.alive_workers(),
    }
}

/// The driver: every `cfg.tick` until `stopped` fires or disconnects, it
/// observes, asks [`Rules::tick`], carries out the decision and logs it.
fn controller_loop<F: BackendFactory>(
    elastic: &ElasticHandle,
    mut factory: F,
    cfg: AutoscaleConfig,
    stopped: &mpsc::Receiver<()>,
    events: &Mutex<Vec<ScaleEvent>>,
) {
    let t0 = Instant::now();
    let mut last_shed = elastic.metrics().shed;
    let mut rules = Rules::new(cfg);
    while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(rules.cfg.tick) {
        let obs = observe(elastic, &mut last_shed);
        let done = match rules.tick(&obs) {
            Some(Decision::Up(reason)) => Some(scale_up(elastic, &mut factory, obs.alive, reason)),
            Some(Decision::Down { calm_ticks }) => scale_down(elastic, &rules.cfg, calm_ticks),
            None => None,
        };
        if let Some((action, workers_before, workers_after, reason)) = done {
            let event = ScaleEvent {
                at: t0.elapsed(),
                action,
                workers_before,
                workers_after,
                reason,
            };
            events.lock().unwrap_or_else(|e| e.into_inner()).push(event);
        }
    }
}

/// Adds one slot from `factory`. Returns what a [`ScaleEvent`] logs:
/// the action, the accepting workers before and after, and the reason.
fn scale_up<F: BackendFactory>(
    elastic: &ElasticHandle,
    factory: &mut F,
    alive: usize,
    reason: String,
) -> (ScaleAction, usize, usize, String) {
    match factory
        .build(elastic.slot_count())
        .and_then(|b| elastic.add(b))
    {
        Ok(_) => (ScaleAction::Up, alive, alive + 1, reason),
        Err(e) => (
            ScaleAction::Failed,
            alive,
            alive,
            format!("scale-up failed: {e}"),
        ),
    }
}

/// Drains and retires one slot, as [`scale_up`] reports; `None` when no
/// slot may go.
fn scale_down(
    elastic: &ElasticHandle,
    cfg: &AutoscaleConfig,
    calm_ticks: usize,
) -> Option<(ScaleAction, usize, usize, String)> {
    // Victim: the accepting slot with the fewest in-flight rows, ties to
    // the youngest slot (scale down LIFO).
    let m = elastic.metrics();
    let victim = m
        .workers
        .iter()
        .enumerate()
        .filter(|(_, w)| w.alive)
        .min_by_key(|&(i, _)| {
            (
                elastic.in_flight_rows(i).unwrap_or(usize::MAX),
                usize::MAX - i,
            )
        })
        .map(|(i, _)| i)?;
    // Re-check the floor at action time: a worker death since the tick's
    // observation (obs.alive) would otherwise let this retire take the
    // pool below min_workers — or to zero accepting slots.
    let alive_now = elastic.alive_workers();
    if alive_now <= cfg.min_workers {
        return None;
    }
    Some(match elastic.retire(victim, cfg.retire_timeout) {
        Ok(()) => (
            ScaleAction::Down,
            alive_now,
            alive_now - 1,
            format!("calm for {calm_ticks} ticks; retiring slot {victim}"),
        ),
        Err(e) => (
            ScaleAction::Failed,
            alive_now,
            elastic.alive_workers(),
            format!("scale-down failed: {e}"),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::EngineBackend;
    use crate::server::{ServeConfig, Server};
    use fluid_models::{Arch, FluidModel};
    use fluid_tensor::{Prng, Tensor};

    fn model() -> FluidModel {
        FluidModel::new(Arch::tiny_28(), &mut Prng::new(5))
    }

    fn backend(name: &str, m: &FluidModel) -> Box<dyn Backend> {
        Box::new(EngineBackend::new(
            name,
            m.net().clone(),
            m.spec("combined100").expect("spec").clone(),
        ))
    }

    fn factory(m: &FluidModel) -> impl BackendFactory + 'static {
        let net = m.net().clone();
        let spec = m.spec("combined100").expect("spec").clone();
        move |slot: usize| {
            Ok(Box::new(EngineBackend::new(
                &format!("auto{slot}"),
                net.clone(),
                spec.clone(),
            )) as Box<dyn Backend>)
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let m = model();
        let server = Server::start(ServeConfig::default(), vec![backend("b", &m)]).expect("start");
        let bad = AutoscaleConfig {
            min_workers: 0,
            ..AutoscaleConfig::default()
        };
        assert!(Autoscaler::spawn(server.elastic(), factory(&m), bad).is_err());
        let bad = AutoscaleConfig {
            max_workers: 1,
            min_workers: 2,
            ..AutoscaleConfig::default()
        };
        assert!(Autoscaler::spawn(server.elastic(), factory(&m), bad).is_err());
        let bad = AutoscaleConfig {
            tick: Duration::ZERO,
            ..AutoscaleConfig::default()
        };
        assert!(Autoscaler::spawn(server.elastic(), factory(&m), bad).is_err());
        let bad = AutoscaleConfig {
            up_queue_depth: 0,
            ..AutoscaleConfig::default()
        };
        assert!(Autoscaler::spawn(server.elastic(), factory(&m), bad).is_err());
    }

    #[test]
    fn self_heals_below_min_workers() {
        let m = model();
        let server = Server::start(ServeConfig::default(), vec![backend("b0", &m)]).expect("start");
        let elastic = server.elastic();
        let cfg = AutoscaleConfig {
            min_workers: 2,
            max_workers: 3,
            tick: Duration::from_millis(2),
            ..AutoscaleConfig::default()
        };
        let scaler = Autoscaler::spawn(elastic, factory(&m), cfg).expect("spawn");
        // One backend, floor of two: the controller must add one.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.alive_workers() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.alive_workers(), 2, "controller never healed to min");
        let events = scaler.stop();
        assert!(
            events
                .iter()
                .any(|e| e.action == ScaleAction::Up && e.reason.contains("below min")),
            "{events:?}"
        );
        // The added capacity serves.
        let out = server
            .handle()
            .infer(Tensor::zeros(&[1, 1, 28, 28]))
            .expect("infer");
        assert_eq!(out.dims(), &[1, 10]);
        assert_eq!(server.shutdown().workers_added, 1);
    }

    #[test]
    fn idle_pool_scales_down_to_min() {
        let m = model();
        let backends = vec![backend("b0", &m), backend("b1", &m), backend("b2", &m)];
        let server = Server::start(ServeConfig::default(), backends).expect("start");
        let cfg = AutoscaleConfig {
            min_workers: 1,
            max_workers: 3,
            tick: Duration::from_millis(2),
            idle_ticks: 3,
            cooldown_ticks: 1,
            ..AutoscaleConfig::default()
        };
        let scaler = Autoscaler::spawn(server.elastic(), factory(&m), cfg).expect("spawn");
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.alive_workers() > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.alive_workers(), 1, "never reached the floor");
        let events = scaler.stop();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.action == ScaleAction::Down)
                .count(),
            2,
            "{events:?}"
        );
        // The floor still serves, and retired counters persist.
        server
            .handle()
            .infer(Tensor::zeros(&[1, 1, 28, 28]))
            .expect("infer at floor");
        let end = server.shutdown();
        assert_eq!(end.workers_retired, 2);
        assert_eq!(end.workers.iter().filter(|w| w.retired).count(), 2);
    }

    #[test]
    fn factory_failure_is_logged_not_fatal() {
        let m = model();
        let server = Server::start(ServeConfig::default(), vec![backend("b0", &m)]).expect("start");
        let cfg = AutoscaleConfig {
            min_workers: 2, // forces an immediate scale-up attempt
            tick: Duration::from_millis(2),
            ..AutoscaleConfig::default()
        };
        let broken =
            |_: usize| Err::<Box<dyn Backend>, _>(ServeError::Elastic("no capacity".into()));
        let scaler = Autoscaler::spawn(server.elastic(), broken, cfg).expect("spawn");
        let deadline = Instant::now() + Duration::from_secs(5);
        while scaler.events().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let events = scaler.stop();
        assert!(
            events
                .iter()
                .any(|e| e.action == ScaleAction::Failed && e.reason.contains("no capacity")),
            "{events:?}"
        );
        // The pool is unchanged and still serving.
        assert_eq!(server.alive_workers(), 1);
        server
            .handle()
            .infer(Tensor::zeros(&[1, 1, 28, 28]))
            .expect("still serving");
    }

    #[test]
    fn scale_event_display_is_readable() {
        let e = ScaleEvent {
            at: Duration::from_millis(1500),
            action: ScaleAction::Up,
            workers_before: 1,
            workers_after: 2,
            reason: "queue depth 9 at high-water mark 8".into(),
        };
        let text = e.to_string();
        assert!(text.contains("UP"), "{text}");
        assert!(text.contains("1 -> 2"), "{text}");
        assert!(text.contains("high-water"), "{text}");
    }

    #[test]
    fn stop_returns_at_once_with_an_hour_long_tick() {
        let m = model();
        let server = Server::start(ServeConfig::default(), vec![backend("b0", &m)]).expect("start");
        let cfg = AutoscaleConfig {
            tick: Duration::from_secs(3600),
            ..AutoscaleConfig::default()
        };
        let scaler = Autoscaler::spawn(server.elastic(), factory(&m), cfg).expect("spawn");
        let t0 = Instant::now();
        assert_eq!(scaler.stop(), Vec::new());
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "stop took {took:?}");
    }

    // The rule step, driven over scripted observations: one expected
    // decision per tick, no thread and no clock.

    fn rules(min_workers: usize, max_workers: usize, idle_ticks: usize, cooldown: usize) -> Rules {
        Rules::new(AutoscaleConfig {
            min_workers,
            max_workers,
            idle_ticks,
            cooldown_ticks: cooldown,
            up_queue_depth: 8,
            down_queue_depth: 1,
            up_p95_ms: 50.0,
            ..AutoscaleConfig::default()
        })
    }

    fn obs(
        alive: usize,
        queue_depth: usize,
        shed_delta: u64,
        p95_ms: f64,
        samples: usize,
    ) -> Observation {
        Observation {
            queue_depth,
            shed_delta,
            recent_p95_ms: p95_ms,
            recent_samples: samples,
            alive,
        }
    }

    /// One tick per `(alive, queue_depth)` pair, nothing shed, no latencies.
    fn run(rules: &mut Rules, script: &[(usize, usize)]) -> Vec<Option<Decision>> {
        script
            .iter()
            .map(|&(alive, depth)| rules.tick(&obs(alive, depth, 0, 0.0, 0)))
            .collect()
    }

    fn up(reason: &str) -> Option<Decision> {
        Some(Decision::Up(reason.into()))
    }

    fn down(calm_ticks: usize) -> Option<Decision> {
        Some(Decision::Down { calm_ticks })
    }

    #[test]
    fn self_heal_fires_inside_a_cooldown_and_restarts_it() {
        let mut r = rules(2, 4, 100, 3);
        let (hot, heal) = (
            up("queue depth 8 at high-water mark 8"),
            up("1 accepting workers below min 2"),
        );
        let script = [(2, 8), (1, 0), (2, 8), (2, 8), (2, 8), (2, 8)];
        assert_eq!(
            run(&mut r, &script),
            [hot.clone(), heal, None, None, None, hot]
        );
    }

    #[test]
    fn cooldown_ticks_neither_decide_nor_count_as_calm() {
        let mut r = rules(1, 4, 2, 2);
        let script = [(2, 8), (2, 0), (2, 0), (2, 0), (2, 0)];
        let hot = up("queue depth 8 at high-water mark 8");
        assert_eq!(run(&mut r, &script), [hot, None, None, None, down(2)]);
    }

    #[test]
    fn a_hot_or_lukewarm_tick_resets_the_calm_streak() {
        // Hot at max_workers: nothing to add, but the streak still resets.
        let mut r = rules(1, 2, 3, 0);
        let script = [(2, 0), (2, 0), (2, 9), (2, 0), (2, 0), (2, 0)];
        assert_eq!(
            run(&mut r, &script),
            [None, None, None, None, None, down(3)]
        );
        // Between the water marks (1 < 4 < 8): neither hot nor calm.
        let mut r = rules(1, 2, 3, 0);
        let script = [(2, 1), (2, 1), (2, 4), (2, 1), (2, 1), (2, 1)];
        assert_eq!(
            run(&mut r, &script),
            [None, None, None, None, None, down(3)]
        );
    }

    #[test]
    fn up_reasons_rank_shed_over_depth_over_p95() {
        let mut r = rules(1, 10, 100, 0);
        let script = [
            obs(1, 9, 3, 80.0, 5),
            obs(1, 9, 0, 80.0, 5),
            obs(1, 0, 0, 80.0, 5),
            obs(1, 0, 0, 80.0, 0), // a p95 over no samples is no signal
        ];
        let got: Vec<_> = script.iter().map(|o| r.tick(o)).collect();
        let want = [
            up("3 requests shed since last tick"),
            up("queue depth 9 at high-water mark 8"),
            up("recent p95 80.0ms over target 50.0ms"),
            None,
        ];
        assert_eq!(got, want);
        // up_p95_ms = 0 switches the latency trigger off.
        r.cfg.up_p95_ms = 0.0;
        assert_eq!(r.tick(&script[2]), None);
    }

    #[test]
    fn calm_streak_retires_at_idle_ticks_only_above_the_floor() {
        let mut r = rules(1, 4, 3, 0);
        // At the floor the streak keeps counting but never retires...
        let floor = [(1, 0), (1, 1), (1, 0), (1, 0), (1, 0)];
        assert_eq!(run(&mut r, &floor), [None, None, None, None, None]);
        // ...so the first calm tick above it retires at once, and the
        // next retirement waits a full fresh streak.
        let above = [(2, 0), (2, 0), (2, 0), (2, 0)];
        assert_eq!(run(&mut r, &above), [down(6), None, None, down(3)]);
    }
}
