//! End-to-end properties of the batched serving layer (`fluid-serve`):
//! batching never changes answers, a batch leaves when a worker can take it
//! (and fills while none can), backpressure sheds explicitly, and a worker
//! lost under live traffic degrades capacity instead of killing the service
//! — with reattach restoring it.

use fluid_dist::{spawn_ha_pair, DistError, SpawnedPair};
use fluid_models::{Arch, FluidModel};
use fluid_serve::{
    loadgen, Backend, EngineBackend, MasterBackend, ServeConfig, ServeError, Server,
};
use fluid_tensor::{Prng, Tensor};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

fn model(seed: u64) -> FluidModel {
    FluidModel::new(Arch::tiny_28(), &mut Prng::new(seed))
}

fn engine_backend(name: &str, model: &FluidModel) -> Box<dyn Backend> {
    Box::new(EngineBackend::new(
        name,
        model.net().clone(),
        model.spec("combined100").expect("spec").clone(),
    ))
}

fn input(k: usize) -> Tensor {
    Tensor::from_fn(&[1, 1, 28, 28], |i| (((i * 31 + k * 7) % 97) as f32) / 97.0)
}

/// Boots an HA Master/Worker pair over in-proc transports serving the
/// combined model (via the `fluid_dist::spawn_ha_pair` hook), returns it
/// as a serving backend plus the pair's kill switch and the worker's join
/// handle.
fn master_backend(
    name: &str,
    model: &FluidModel,
) -> (
    Box<dyn Backend>,
    fluid_dist::FailureSwitch,
    std::thread::JoinHandle<()>,
) {
    let combined = model.spec("combined100").expect("spec");
    let SpawnedPair {
        master,
        switch,
        worker,
    } = spawn_ha_pair(
        model.net(),
        combined.branches[0].clone(),
        combined.branches[1].clone(),
        name,
    )
    .expect("spawn pair");
    (Box::new(MasterBackend::new(name, master)), switch, worker)
}

#[test]
fn batched_outputs_are_bit_identical_to_sequential_inference() {
    let mut reference = model(17);
    let spec = reference.spec("combined100").expect("spec").clone();
    let mut cfg = ServeConfig::default();
    cfg.max_batch = 8;
    cfg.max_wait = Duration::from_millis(20);
    cfg.queue_cap = 256;
    let server = Server::start(cfg, vec![engine_backend("m0", &model(17))]).expect("start");
    let handle = server.handle();

    // Submit a burst without waiting, so the scheduler has co-riders to
    // coalesce; then compare every answer to unbatched execution.
    let n = 32;
    let tickets: Vec<_> = (0..n)
        .map(|k| handle.submit(input(k)).expect("submit"))
        .collect();
    for (k, t) in tickets.into_iter().enumerate() {
        let got = t.wait().expect("served");
        let want = reference.net_mut().forward_subnet(&input(k), &spec, false);
        assert!(
            want.allclose(&got, 0.0),
            "request {k}: batched output differs from sequential inference"
        );
    }

    let m = server.shutdown();
    assert_eq!(m.completed, n as u64);
    assert!(
        m.mean_batch_requests > 1.0,
        "no batching happened: {} requests in {} batches",
        m.completed,
        m.batches
    );
    assert!(m.batch_histogram.iter().any(|&(size, _)| size > 1));
}

#[test]
fn backpressure_sheds_explicitly_past_queue_cap() {
    /// A backend slow enough that the admission bound actually fills.
    struct SlowBackend(EngineBackend);
    impl Backend for SlowBackend {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn input_dims(&self) -> [usize; 3] {
            self.0.input_dims()
        }
        fn infer_batch(&mut self, x: &Tensor) -> Result<Tensor, DistError> {
            std::thread::sleep(Duration::from_millis(10));
            self.0.infer_batch(x)
        }
    }

    let m = model(19);
    let mut cfg = ServeConfig::default();
    cfg.max_batch = 2;
    cfg.max_wait = Duration::from_millis(1);
    cfg.queue_cap = 4;
    let slow = Box::new(SlowBackend(EngineBackend::new(
        "slow",
        m.net().clone(),
        m.spec("combined100").expect("spec").clone(),
    )));
    let server = Server::start(cfg, vec![slow]).expect("start");
    let handle = server.handle();

    // Fire 30 submissions as fast as possible: at most 4 can be
    // outstanding, so most are shed — with an explicit verdict, instantly.
    let mut tickets = Vec::new();
    let mut shed = 0;
    for k in 0..30 {
        match handle.submit(input(k)) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { queue_cap }) => {
                assert_eq!(queue_cap, 4);
                shed += 1;
            }
            Err(other) => panic!("unexpected verdict {other}"),
        }
        assert!(handle.queue_depth() <= 4, "admission bound exceeded");
    }
    assert!(shed > 0, "no shedding despite 30 bursts into cap 4");
    let served = tickets.len();
    for t in tickets {
        t.wait().expect("admitted requests are served");
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.completed as usize, served);
    assert_eq!(metrics.shed as usize, shed);
    assert_eq!(metrics.failed, 0);
}

#[test]
fn worker_loss_under_load_degrades_and_reattach_restores() {
    let m = model(23);
    let (pair, switch, worker_thread) = master_backend("pair0", &m);
    let backends = vec![engine_backend("engine0", &m), pair];
    let mut cfg = ServeConfig::default();
    cfg.max_batch = 4;
    cfg.max_wait = Duration::from_micros(200);
    cfg.queue_cap = 256;
    let server = Server::start(cfg, backends).expect("start");
    let handle = server.handle();
    let mut reference = model(23);
    let spec = reference.spec("combined100").expect("spec").clone();

    // Traffic with both workers up.
    for k in 0..12 {
        let got = handle.infer(input(k)).expect("healthy serving");
        let want = reference.net_mut().forward_subnet(&input(k), &spec, false);
        assert!(want.allclose(&got, 0.0));
    }
    assert_eq!(server.alive_workers(), 2);

    // Kill the distributed pair's link mid-traffic: the in-flight batch is
    // retried on the surviving engine, so every request still gets served.
    switch.kill();
    for k in 12..28 {
        let got = handle.infer(input(k)).expect("degraded but serving");
        let want = reference.net_mut().forward_subnet(&input(k), &spec, false);
        assert!(want.allclose(&got, 0.0));
    }
    worker_thread.join().expect("worker saw the link die");
    let mid = handle.metrics();
    assert_eq!(mid.workers_alive, 1, "pair slot must be marked dead");
    assert_eq!(mid.worker_deaths, 1);
    assert_eq!(mid.failed, 0, "degradation must not fail requests");

    // Reattach: a replacement pair takes the dead slot; capacity restored.
    let (fresh_pair, _fresh_switch, fresh_worker) = master_backend("pair1", &m);
    server.reattach(1, fresh_pair).expect("reattach");
    assert_eq!(server.alive_workers(), 2);
    for k in 28..52 {
        let got = handle.infer(input(k)).expect("restored serving");
        let want = reference.net_mut().forward_subnet(&input(k), &spec, false);
        assert!(want.allclose(&got, 0.0));
    }
    let end = server.metrics();
    assert_eq!(end.workers_alive, 2);
    let revived = end
        .workers
        .iter()
        .find(|w| w.name == "pair1")
        .expect("replacement slot");
    assert!(
        revived.batches > 0,
        "replacement worker never served: {:?}",
        end.workers
    );
    drop(server);
    // The replacement pair's worker thread exits when the server drops its
    // MasterBackend (link closes).
    fresh_worker.join().expect("fresh worker exits");
}

#[test]
fn loadgen_against_inproc_server_demonstrates_batching() {
    // The acceptance-criteria scenario: a loadgen run whose reported mean
    // batch size exceeds 1 under concurrent load.
    let m = model(29);
    let mut cfg = ServeConfig::default();
    cfg.max_batch = 8;
    cfg.max_wait = Duration::from_millis(5);
    cfg.queue_cap = 256;
    let server = Server::start(cfg, vec![engine_backend("m0", &m)]).expect("start");
    let inputs: Vec<Tensor> = (0..8).map(input).collect();
    let handle = server.handle();
    let report = loadgen::run_closed_loop(|_| Ok(handle.clone()), 8, 64, &inputs).expect("loadgen");
    assert_eq!(report.completed, 64);
    assert_eq!(report.shed + report.failed, 0);
    let metrics = server.shutdown();
    assert!(
        metrics.mean_batch_requests > 1.0,
        "loadgen produced no batching: mean {:.2} over {} batches",
        metrics.mean_batch_requests,
        metrics.batches
    );
}

/// A backend the test holds busy: `infer_batch` reports its row count, then
/// blocks until the test sends one release. Every interleaving below is
/// forced through these two channels, none by sleeping.
struct GateBackend {
    entered: Sender<usize>,
    release: Receiver<()>,
}

impl Backend for GateBackend {
    fn name(&self) -> &str {
        "gate"
    }
    fn input_dims(&self) -> [usize; 3] {
        [1, 28, 28]
    }
    fn infer_batch(&mut self, x: &Tensor) -> Result<Tensor, DistError> {
        let rows = x.dims()[0];
        self.entered.send(rows).map_err(|_| DistError::WorkerDown)?;
        self.release.recv().map_err(|_| DistError::WorkerDown)?;
        Ok(Tensor::zeros(&[rows, 10]))
    }
}

/// A one-worker server over a [`GateBackend`], `max_batch` 8: the server,
/// the stream of batch sizes entering the worker, and the release switch.
fn gated_server(max_wait: Duration) -> (Server, Receiver<usize>, Sender<()>) {
    let (entered, batches) = channel();
    let (gate, release) = channel();
    let mut cfg = ServeConfig::default();
    cfg.max_batch = 8;
    cfg.max_wait = max_wait;
    let backend = Box::new(GateBackend { entered, release });
    let server = Server::start(cfg, vec![backend]).expect("start");
    (server, batches, gate)
}

/// How long a test waits for something that must happen.
const SOON: Duration = Duration::from_secs(10);

#[test]
fn a_lone_request_on_an_idle_server_does_not_wait_out_max_wait() {
    let (server, _batches, gate) = gated_server(Duration::from_millis(500));
    gate.send(()).expect("pre-open the gate");
    let t0 = Instant::now();
    server.handle().infer(input(0)).expect("served");
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "an idle worker was left waiting: {took:?} against a 500 ms max_wait"
    );
}

#[test]
fn requests_behind_a_busy_worker_leave_as_one_batch_when_it_frees_up() {
    // max_wait is out of reach, so only the worker's `Done` can end the wait.
    let (server, batches, gate) = gated_server(Duration::from_secs(60));
    let handle = server.handle();
    let first = handle.submit(input(0)).expect("submit");
    assert_eq!(batches.recv_timeout(SOON), Ok(1), "idle worker: go now");
    // The only worker is held inside batch 1: these seven must coalesce.
    let rest: Vec<_> = (1..8)
        .map(|k| handle.submit(input(k)).expect("submit"))
        .collect();
    gate.send(()).expect("release batch 1");
    assert_eq!(batches.recv_timeout(SOON), Ok(7), "batching under load");
    gate.send(()).expect("release batch 2");
    for t in std::iter::once(first).chain(rest) {
        t.wait().expect("served");
    }
    assert_eq!(server.shutdown().batch_histogram, vec![(1, 1), (7, 1)]);
}

#[test]
fn max_wait_still_caps_the_wait_behind_a_busy_worker() {
    let max_wait = Duration::from_millis(50);
    let (server, batches, gate) = gated_server(max_wait);
    let (handle, elastic) = (server.handle(), server.elastic());
    let first = handle.submit(input(0)).expect("submit");
    assert_eq!(batches.recv_timeout(SOON), Ok(1));
    // The worker stays held past max_wait: at the deadline — not before —
    // the waiting rows are frozen into its one lookahead batch. (Multi-row
    // requests, so a stalled test thread cannot split either arrival.)
    let rows = |n: usize| Tensor::zeros(&[n, 1, 28, 28]);
    let t0 = Instant::now();
    let second = handle.submit(rows(3)).expect("submit");
    while elastic.in_flight_rows(0).expect("slot 0") < 4 {
        assert!(t0.elapsed() < SOON, "the deadline never dispatched");
        std::thread::yield_now();
    }
    assert!(t0.elapsed() >= max_wait, "left before its deadline");
    // A later arrival cannot board the frozen batch; it forms the next one.
    let third = handle.submit(rows(2)).expect("submit");
    for expect in [3, 2] {
        gate.send(()).expect("release");
        assert_eq!(batches.recv_timeout(SOON), Ok(expect));
    }
    gate.send(()).expect("release the last batch");
    for t in [first, second, third] {
        t.wait().expect("served");
    }
}

#[test]
fn dropping_an_idle_server_does_not_wait_for_a_poll_tick() {
    // The scheduler used to notice shutdown on a 25 ms poll (12.5 ms a drop
    // on average); now a message wakes it. Ten idle drops fit in one tick.
    let m = model(31);
    let mut dropping = Duration::ZERO;
    for _ in 0..10 {
        let backends = vec![engine_backend("m0", &m)];
        let server = Server::start(ServeConfig::default(), backends).expect("start");
        let t0 = Instant::now();
        drop(server);
        dropping += t0.elapsed();
    }
    assert!(
        dropping < Duration::from_millis(25),
        "ten idle drops took {dropping:?}"
    );
}
