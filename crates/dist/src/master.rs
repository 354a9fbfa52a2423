//! The Master: owns the trained model, deploys one branch to each of its
//! 1…N workers, and drives High-Accuracy / High-Throughput inference over
//! one [`Transport`] per worker.

use crate::engine::WorkerEngine;
use crate::error::DistError;
use crate::transport::Transport;
use crate::wire::{Message, Mode, NamedTensor};
use fluid_models::{BranchSpec, ConvNet};
use fluid_tensor::Tensor;
use std::time::{Duration, Instant};

/// Timeouts governing a [`Master`]'s conversation with each worker.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// How long to wait for a worker's `Hello`.
    pub hello_timeout: Duration,
    /// How long to wait for a `DeployAck`.
    pub deploy_timeout: Duration,
    /// How long to wait for the logits of one inference request.
    pub request_timeout: Duration,
}

impl Default for MasterConfig {
    fn default() -> Self {
        Self {
            hello_timeout: Duration::from_secs(10),
            deploy_timeout: Duration::from_secs(10),
            request_timeout: Duration::from_secs(5),
        }
    }
}

/// Waits until `want` accepts a message, skipping unrelated traffic
/// (stray heartbeat acks, late replies to older requests).
fn recv_matching<T: Transport, R>(
    transport: &mut T,
    deadline: Instant,
    what: &str,
    mut want: impl FnMut(Message) -> Option<R>,
) -> Result<R, DistError> {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(DistError::Timeout(what.to_owned()));
        }
        if let Some(msg) = transport.recv_timeout(deadline - now)? {
            if let Some(r) = want(msg) {
                return Ok(r);
            }
        }
    }
}

/// The Master's conversation with one worker. Every fallible step marks
/// the worker dead on a link error or timeout, so the verdict is the same
/// whichever call observed the failure.
#[derive(Debug)]
struct Link<T: Transport> {
    transport: T,
    alive: bool,
    /// The name from the worker's `Hello`; `None` until it has greeted.
    device: Option<String>,
    branch: Option<BranchSpec>,
}

impl<T: Transport> Link<T> {
    fn new(transport: T) -> Self {
        Self {
            transport,
            alive: true,
            device: None,
            branch: None,
        }
    }

    fn guard<R>(&mut self, r: Result<R, DistError>) -> Result<R, DistError> {
        self.alive &= r.is_ok();
        r
    }

    fn send(&mut self, msg: &Message) -> Result<(), DistError> {
        if !self.alive {
            return Err(DistError::WorkerDown);
        }
        let r = self.transport.send(msg);
        self.guard(r)
    }

    fn recv<R>(
        &mut self,
        timeout: Duration,
        what: &str,
        want: impl FnMut(Message) -> Option<R>,
    ) -> Result<R, DistError> {
        let deadline = Instant::now() + timeout;
        let r = recv_matching(&mut self.transport, deadline, what, want);
        self.guard(r)
    }

    fn name(&self) -> &str {
        self.device.as_deref().unwrap_or("<no hello yet>")
    }

    /// Awaits the worker's `Hello` (at once if it has already greeted),
    /// then replays the Master's current `mode` to it: a fresh
    /// [`Worker`](crate::Worker) boots in High-Accuracy, so only a
    /// differing mode needs the message.
    fn await_hello(&mut self, timeout: Duration, mode: Mode) -> Result<String, DistError> {
        if self.device.is_none() {
            let device = self.recv(timeout, "worker hello", |msg| match msg {
                Message::Hello { device } => Some(device),
                _ => None,
            })?;
            if mode != Mode::HighAccuracy {
                self.send(&Message::SwitchMode { mode })?;
            }
            self.device = Some(device);
        }
        Ok(self.name().to_owned())
    }

    fn deploy(
        &mut self,
        branch: BranchSpec,
        weights: Vec<NamedTensor>,
        timeout: Duration,
    ) -> Result<(), DistError> {
        self.send(&Message::DeployBranch {
            branch: branch.clone(),
            weights,
        })?;
        self.recv(timeout, "deploy ack", |msg| match msg {
            Message::DeployAck { branch_name } if branch_name == branch.name => Some(()),
            _ => None,
        })?;
        self.branch = Some(branch);
        Ok(())
    }

    /// Refuses a request the worker could not answer (there is no NACK in
    /// the protocol): catching it here avoids a request-timeout stall and
    /// a false worker-death verdict.
    fn check_ready(&self) -> Result<(), DistError> {
        if !self.alive {
            return Err(DistError::WorkerDown);
        }
        if self.branch.is_none() {
            return Err(DistError::Protocol(format!(
                "remote inference before any branch was deployed to worker {}",
                self.name()
            )));
        }
        Ok(())
    }

    /// Awaits the logits of request `id`. The reply is peer-controlled:
    /// when `dims` is given, a mis-shaped reply is a protocol violation
    /// (and marks the worker dead), not a panic further up.
    fn logits(
        &mut self,
        id: u64,
        timeout: Duration,
        dims: Option<&[usize]>,
    ) -> Result<Tensor, DistError> {
        let logits = self.recv(timeout, "logits", |msg| match msg {
            Message::Logits { request_id, logits } if request_id == id => Some(logits),
            _ => None,
        })?;
        match dims {
            Some(dims) if logits.dims() != dims => {
                let e = DistError::Protocol(format!(
                    "worker {} returned logits {:?}, expected {dims:?}",
                    self.name(),
                    logits.dims()
                ));
                self.guard(Err(e))
            }
            _ => Ok(logits),
        }
    }
}

/// The coordinating device of a 1 + N device deployment.
///
/// The Master holds the full trained [`ConvNet`], keeps one branch for
/// itself ([`deploy_local`](Master::deploy_local)), ships one to each
/// worker ([`deploy_to`](Master::deploy_to)), and then serves traffic in
/// either execution [`Mode`]: High-Accuracy sums every device's partial
/// logits of one input ([`infer_ha`](Master::infer_ha)); High-Throughput
/// serves one independent stream per device
/// ([`infer_streams`](Master::infer_streams)). A transport failure marks
/// that worker dead without poisoning the Master's own branch —
/// [`infer_local`](Master::infer_local) keeps working, and
/// [`reattach_worker`](Master::reattach_worker) accepts a replacement.
///
/// The paper's two-device system is the one-worker case:
/// [`new`](Master::new), [`await_hello`](Master::await_hello),
/// [`deploy_remote`](Master::deploy_remote), [`infer_ht`](Master::infer_ht),
/// [`worker_dead`](Master::worker_dead) and [`reattach`](Master::reattach)
/// address worker 0.
#[derive(Debug)]
pub struct Master<T: Transport> {
    links: Vec<Link<T>>,
    engine: WorkerEngine,
    cfg: MasterConfig,
    next_request_id: u64,
    mode: Mode,
}

impl<T: Transport> Master<T> {
    /// Creates a Master with one worker behind `transport`, owning the
    /// trained `net`.
    pub fn new(transport: T, net: ConvNet, cfg: MasterConfig) -> Self {
        Self::with_workers(vec![transport], net, cfg)
    }

    /// Creates a Master over one transport per worker (worker `i` is
    /// `transports[i]`), owning the trained `net`.
    pub fn with_workers(transports: Vec<T>, net: ConvNet, cfg: MasterConfig) -> Self {
        Self {
            links: transports.into_iter().map(Link::new).collect(),
            engine: WorkerEngine::from_net(net),
            cfg,
            next_request_id: 1,
            mode: Mode::HighAccuracy,
        }
    }

    /// The Master's local execution engine (e.g. to reach the owned net).
    pub fn engine_mut(&mut self) -> &mut WorkerEngine {
        &mut self.engine
    }

    /// The currently requested execution mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Number of attached workers (alive or dead).
    pub fn workers(&self) -> usize {
        self.links.len()
    }

    /// Number of workers whose links are still healthy.
    pub fn alive_workers(&self) -> usize {
        self.links.iter().filter(|l| l.alive).count()
    }

    /// Whether the link to worker 0 has failed since the last
    /// [`reattach`](Master::reattach).
    pub fn worker_dead(&self) -> bool {
        self.links.first().is_some_and(|l| !l.alive)
    }

    /// The branch currently deployed on worker 0, if any.
    pub fn remote_branch(&self) -> Option<&BranchSpec> {
        self.links.first()?.branch.as_ref()
    }

    fn link(&mut self, worker: usize) -> Result<&mut Link<T>, DistError> {
        self.links
            .get_mut(worker)
            .ok_or_else(|| DistError::Protocol(format!("no worker {worker}")))
    }

    /// Builds the one `Infer` frame of a request; HA sends the same frame
    /// down every link, so `x` is copied once however many workers serve it.
    fn request(&mut self, x: &Tensor) -> (u64, Message) {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let input = x.clone();
        (request_id, Message::Infer { request_id, input })
    }

    /// Sends `x` to `worker` as a new request and returns its id, after
    /// refusing locally what the worker would silently drop: a dead or
    /// un-deployed worker, or an input that does not fit the architecture.
    fn ask(&mut self, worker: usize, x: &Tensor) -> Result<u64, DistError> {
        self.link(worker)?.check_ready()?;
        crate::engine::check_input_shape(self.engine.net().arch(), x)?;
        let (id, msg) = self.request(x);
        self.links[worker].send(&msg)?;
        Ok(id)
    }

    /// Waits for worker 0's `Hello` and returns its device name; fails like
    /// [`await_hellos`](Master::await_hellos).
    pub fn await_hello(&mut self) -> Result<String, DistError> {
        let (timeout, mode) = (self.cfg.hello_timeout, self.mode);
        self.link(0)?.await_hello(timeout, mode)
    }

    /// Collects the `Hello` of every worker that has not greeted yet (all
    /// of them at boot; only the replacement after a
    /// [`reattach_worker`](Master::reattach_worker)) and returns every
    /// worker's device name, in worker order.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Timeout`] if a `Hello` does not arrive in
    /// [`MasterConfig::hello_timeout`], or the transport's error if a link
    /// fails; either marks that worker dead and ends the collection.
    pub fn await_hellos(&mut self) -> Result<Vec<String>, DistError> {
        let (timeout, mode) = (self.cfg.hello_timeout, self.mode);
        self.links
            .iter_mut()
            .map(|link| link.await_hello(timeout, mode))
            .collect()
    }

    /// Activates `branch` on the Master itself; the weights are already in
    /// the owned net, so this is purely a routing decision.
    pub fn deploy_local(&mut self, branch: BranchSpec) {
        self.engine.activate(branch);
    }

    /// Ships `branch` and its weight `windows` to worker 0; see
    /// [`deploy_to`](Master::deploy_to), errors included.
    pub fn deploy_remote(
        &mut self,
        branch: BranchSpec,
        windows: Vec<NamedTensor>,
    ) -> Result<(), DistError> {
        self.deploy_to(0, branch, windows)
    }

    /// Ships `branch` and its weight `windows` to worker `worker`
    /// (0-based) and waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Protocol`] for an out-of-range index,
    /// [`DistError::WorkerDown`] for a dead worker, or the transport error
    /// / [`DistError::Timeout`] if the worker does not acknowledge in
    /// [`MasterConfig::deploy_timeout`] (marking it dead).
    pub fn deploy_to(
        &mut self,
        worker: usize,
        branch: BranchSpec,
        windows: Vec<NamedTensor>,
    ) -> Result<(), DistError> {
        let timeout = self.cfg.deploy_timeout;
        self.link(worker)?.deploy(branch, windows, timeout)
    }

    /// Tells every live worker to switch execution mode and records it
    /// locally.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::WorkerDown`] when no worker is alive, or the
    /// transport error (marking that worker dead) if a notification cannot
    /// be sent; the mode is recorded only on success.
    pub fn switch_mode(&mut self, mode: Mode) -> Result<(), DistError> {
        if self.alive_workers() == 0 {
            return Err(DistError::WorkerDown);
        }
        for link in self.links.iter_mut().filter(|l| l.alive) {
            link.send(&Message::SwitchMode { mode })?;
        }
        self.mode = mode;
        self.engine.set_mode(mode);
        Ok(())
    }

    /// High-Accuracy inference: every device evaluates its branch on the
    /// *same* input and the Master sums the partial logits — exactly the
    /// combined model's output.
    ///
    /// # Errors
    ///
    /// HA needs every branch. Returns [`DistError::WorkerDown`] when any
    /// worker is already marked dead, [`DistError::Protocol`] (without
    /// marking anyone dead, and without sending anything) when a worker has
    /// no branch deployed or the input does not fit the architecture, the
    /// transport's error when a link fails mid-request, or
    /// [`DistError::Timeout`] when a partial does not arrive in
    /// [`MasterConfig::request_timeout`]; the last two, and a mis-shaped
    /// partial, mark that worker dead.
    pub fn infer_ha(&mut self, x: &Tensor) -> Result<Tensor, DistError> {
        self.links.iter().try_for_each(Link::check_ready)?;
        crate::engine::check_input_shape(self.engine.net().arch(), x)?;
        // Ship the remote parts first so all devices compute concurrently.
        let (id, msg) = self.request(x);
        for link in &mut self.links {
            link.send(&msg)?;
        }
        let mut logits = self.engine.infer(x)?;
        for link in &mut self.links {
            let partial = link.logits(id, self.cfg.request_timeout, Some(logits.dims()))?;
            logits = logits.add(&partial);
        }
        Ok(logits)
    }

    /// High-Throughput inference on two devices: the Master's branch
    /// serves `local_x` while worker 0's standalone branch serves
    /// `remote_x`, in parallel. Returns `(local logits, remote logits)`, or
    /// fails like [`infer_ha`](Master::infer_ha) with worker 0 as the only
    /// worker.
    pub fn infer_ht(
        &mut self,
        local_x: &Tensor,
        remote_x: &Tensor,
    ) -> Result<(Tensor, Tensor), DistError> {
        let id = self.ask(0, remote_x)?;
        let local = self.engine.infer(local_x)?;
        let remote = self.links[0].logits(id, self.cfg.request_timeout, None)?;
        Ok((local, remote))
    }

    /// High-Throughput inference on any number of devices: `inputs[0]`
    /// runs on the Master, `inputs[1 + i]` on worker `i`, all in parallel.
    /// Returns one entry per input; a stream whose device is dead,
    /// un-deployed or failing yields `None` instead of failing the round.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Protocol`] when more inputs than devices are
    /// supplied.
    pub fn infer_streams(&mut self, inputs: &[Tensor]) -> Result<Vec<Option<Tensor>>, DistError> {
        if inputs.len() > self.links.len() + 1 {
            return Err(DistError::Protocol(format!(
                "{} input streams for {} devices",
                inputs.len(),
                self.links.len() + 1
            )));
        }
        // Fan out all remote streams before computing locally.
        let asked: Vec<_> = (1..inputs.len())
            .map(|d| self.ask(d - 1, &inputs[d]))
            .collect();
        let mut results = Vec::with_capacity(inputs.len());
        if let Some(x) = inputs.first() {
            results.push(self.engine.infer(x).ok());
        }
        let timeout = self.cfg.request_timeout;
        for (link, id) in self.links.iter_mut().zip(asked) {
            results.push(id.and_then(|id| link.logits(id, timeout, None)).ok());
        }
        Ok(results)
    }

    /// Runs only the Master's own branch — the degraded service that keeps
    /// answering after workers die.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Protocol`] if no local branch was deployed.
    pub fn infer_local(&mut self, x: &Tensor) -> Result<Tensor, DistError> {
        self.engine.infer(x)
    }

    /// Replaces worker 0; see [`reattach_worker`](Master::reattach_worker).
    pub fn reattach(&mut self, transport: T) {
        self.reattach_worker(0, transport);
    }

    /// Replaces worker `worker`'s transport with a link to a replacement
    /// worker and clears its dead flag and deployed branch; follow with
    /// [`await_hellos`](Master::await_hellos) (or
    /// [`await_hello`](Master::await_hello) for worker 0) and a re-deploy.
    /// The Master's [`mode`](Master::mode) is kept: the replacement boots
    /// in High-Accuracy, and the `Hello` step replays a differing mode to
    /// it so both ends agree again.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn reattach_worker(&mut self, worker: usize, transport: T) {
        self.links[worker] = Link::new(transport);
    }

    /// Sends a best-effort `Shutdown` to every worker and marks them dead.
    pub fn shutdown_worker(&mut self) {
        for link in &mut self.links {
            let _ = link.transport.send(&Message::Shutdown);
            link.alive = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::extract_branch_weights;
    use crate::transport::{FailureSwitch, InProcTransport};
    use crate::worker::{Worker, WorkerExit};
    use fluid_models::{Arch, FluidModel, SubnetSpec};
    use fluid_tensor::Prng;
    use std::thread::JoinHandle;

    type WorkerThread = JoinHandle<(WorkerExit, WorkerEngine)>;

    fn spawn_worker(arch: &Arch, name: &str) -> (InProcTransport, WorkerThread) {
        let (master_side, worker_side) = InProcTransport::pair();
        let (arch, name) = (arch.clone(), name.to_owned());
        let thread = std::thread::spawn(move || Worker::new(worker_side, arch, &name).run());
        (master_side, thread)
    }

    fn input() -> Tensor {
        Tensor::from_fn(&[2, 1, 28, 28], |i| ((i * 7 % 43) as f32) / 43.0)
    }

    /// A greeted Master over `n` in-proc workers, serving the first `n + 1`
    /// blocks of a 4-block model: block 0 is deployed locally, nothing
    /// remotely yet.
    struct Rig {
        master: Master<InProcTransport>,
        model: FluidModel,
        combined: SubnetSpec,
        switches: Vec<FailureSwitch>,
        threads: Vec<WorkerThread>,
    }

    impl Rig {
        fn boot(n: usize) -> Rig {
            let arch = Arch::tiny_28();
            let model = FluidModel::blocks(arch.clone(), 4, &mut Prng::new(7));
            let name = format!("combined{}", n + 1);
            let combined = model.spec(&name).expect("spec").clone();
            let (transports, threads): (Vec<_>, Vec<_>) = (0..n)
                .map(|i| spawn_worker(&arch, &format!("w{i}")))
                .unzip();
            let switches = transports.iter().map(|t| t.failure_switch()).collect();
            let cfg = MasterConfig::default();
            let mut master = Master::with_workers(transports, model.net().clone(), cfg);
            assert_eq!(master.await_hellos().expect("hellos").len(), n);
            master.deploy_local(combined.branches[0].clone());
            Rig {
                master,
                model,
                combined,
                switches,
                threads,
            }
        }

        fn deploy(&mut self, worker: usize) {
            let branch = self.combined.branches[worker + 1].clone();
            let windows = extract_branch_weights(self.model.net(), &branch);
            self.master
                .deploy_to(worker, branch, windows)
                .expect("deploy");
        }

        /// Shuts every worker down and returns their engines, in spawn order.
        fn finish(mut self) -> Vec<WorkerEngine> {
            self.master.shutdown_worker();
            let join = |t: WorkerThread| t.join().expect("worker").1;
            self.threads.into_iter().map(join).collect()
        }
    }

    #[test]
    fn undeployed_worker_is_refused_fast_and_nobody_dies() {
        // Would cost `request_timeout` and a false death if the request
        // were sent: the un-deployed worker never answers.
        let mut rig = Rig::boot(3);
        rig.deploy(0);
        rig.deploy(2);
        let t0 = Instant::now();
        let err = rig.master.infer_ha(&input()).expect_err("worker 1 bare");
        assert!(matches!(err, DistError::Protocol(_)), "{err}");
        assert!(t0.elapsed() < MasterConfig::default().request_timeout);
        assert_eq!(rig.master.alive_workers(), 3);
        // The bare worker's stream degrades; the deployed ones serve.
        let x = input();
        let streams = rig
            .master
            .infer_streams(&[x.clone(), x.clone(), x.clone(), x])
            .expect("round");
        let served: Vec<bool> = streams.iter().map(Option::is_some).collect();
        assert_eq!(served, [true, true, false, true]);
        assert_eq!(rig.master.alive_workers(), 3);
        // Mis-shaped inputs are refused the same way.
        let err = rig.master.infer_ha(&Tensor::zeros(&[1, 3, 28, 28]));
        assert!(matches!(err, Err(DistError::Protocol(_))));
        assert_eq!(rig.master.alive_workers(), 3);
        rig.finish();
    }

    #[test]
    fn replaced_worker_restores_four_device_ha_and_learns_the_mode() {
        let mut rig = Rig::boot(3);
        (0..3).for_each(|w| rig.deploy(w));
        let x = input();
        let want = rig.model.infer(&rig.combined.name, &x);
        assert!(rig.master.infer_ha(&x).expect("HA").allclose(&want, 1e-5));
        rig.master.switch_mode(Mode::HighThroughput).expect("mode");

        rig.switches[1].kill();
        assert!(rig.master.infer_ha(&x).is_err());
        assert_eq!(rig.master.alive_workers(), 2);
        let down = rig.master.infer_ha(&x).expect_err("HA needs every branch");
        assert!(matches!(down, DistError::WorkerDown), "{down}");
        assert!(!rig.master.worker_dead(), "worker 0 is fine");

        let (transport, thread) = spawn_worker(rig.model.net().arch(), "w1b");
        let old = std::mem::replace(&mut rig.threads[1], thread);
        assert!(matches!(old.join().expect("w1").0, WorkerExit::LinkLost(_)));
        rig.master.reattach_worker(1, transport);
        // Only the replacement still owes a Hello. It boots in HA; the
        // Master stays in HT and says so once the Hello arrives.
        let names = rig.master.await_hellos().expect("hellos");
        assert_eq!(names, ["w0", "w1b", "w2"]);
        assert_eq!(rig.master.mode(), Mode::HighThroughput);
        // Un-deployed replacement: refused, not timed out.
        let bare = rig.master.infer_ha(&x).expect_err("w1b has no branch");
        assert!(matches!(bare, DistError::Protocol(_)), "{bare}");
        rig.deploy(1);
        assert_eq!(rig.master.alive_workers(), 3);
        assert!(rig.master.infer_ha(&x).expect("HA").allclose(&want, 1e-5));
        // w0 and w2 heard the broadcast, w1b the replay: every worker's
        // own engine agrees with the Master.
        let engines = rig.finish();
        assert!(engines.iter().all(|e| e.mode() == Mode::HighThroughput));
    }

    #[test]
    fn one_worker_ctor_is_the_one_link_case() {
        // `spawn_ha_pair` builds its Master with `Master::new`; the rig
        // builds the same deployment with `Master::with_workers(vec![t])`.
        let mut rig = Rig::boot(1);
        rig.deploy(0);
        let [local, remote] = [0, 1].map(|b| rig.combined.branches[b].clone());
        let pair = crate::spawn_ha_pair(rig.model.net(), local, remote, "w0").expect("pair");
        let (mut one, one_switch) = (pair.master, pair.switch);
        let x = input();
        let y = Tensor::from_fn(&[1, 1, 28, 28], |i| (i % 5) as f32);

        let mut outs = Vec::new();
        for master in [&mut one, &mut rig.master] {
            assert_eq!(master.workers(), 1);
            let ha = master.infer_ha(&x).expect("HA");
            let (ht_local, ht_remote) = master.infer_ht(&x, &y).expect("HT");
            let local = master.infer_local(&x).expect("local");
            outs.push([ha, ht_local, ht_remote, local]);
        }
        let bit_identical = |(a, b): (&Tensor, &Tensor)| a.allclose(b, 0.0);
        assert!(outs[0].iter().zip(&outs[1]).all(bit_identical));
        assert!(outs[0][0].allclose(&rig.model.infer(&rig.combined.name, &x), 1e-5));
        assert_eq!(outs[0][2].dims(), &[1, 10]);

        for (master, switch) in [(&mut one, &one_switch), (&mut rig.master, &rig.switches[0])] {
            switch.kill();
            assert!(matches!(master.infer_ha(&x), Err(DistError::LinkDown(_))));
            assert!(master.worker_dead());
            assert_eq!(master.alive_workers(), 0);
            for verdict in [
                master.infer_ha(&x).err(),
                master.infer_ht(&x, &y).err(),
                master.switch_mode(Mode::HighThroughput).err(),
            ] {
                assert!(matches!(verdict, Some(DistError::WorkerDown)));
            }
            assert_eq!(master.mode(), Mode::HighAccuracy);
            assert!(master.infer_local(&x).is_ok());
        }
        pair.worker.join().expect("pair worker");
        rig.finish();
    }

    #[test]
    fn infer_streams_returns_one_entry_per_input() {
        let net = ConvNet::new(Arch::tiny_28(), &mut Prng::new(0));
        let none = Vec::<InProcTransport>::new();
        let mut master = Master::with_workers(none, net, MasterConfig::default());
        assert_eq!(master.infer_streams(&[]).expect("empty"), vec![]);
        // One local stream, no workers deployed: the local engine has no
        // branch, so its stream degrades to None — but the length contract
        // holds.
        let x = Tensor::zeros(&[1, 1, 28, 28]);
        let results = master
            .infer_streams(std::slice::from_ref(&x))
            .expect("one stream");
        assert_eq!(results, vec![None]);
        // Too many streams for the device count is a protocol error.
        assert!(master.infer_streams(&[x.clone(), x]).is_err());
        // With no worker 0 the one-worker calls are errors, not panics.
        assert!(matches!(master.await_hello(), Err(DistError::Protocol(_))));
        assert!(!master.worker_dead());
    }

    /// The last of `n` workers is built for a 5-class architecture: it
    /// acks a deployment cut from a matching net, then answers the infer
    /// request with logits of the wrong shape.
    fn mis_shaped_logits_reply(n: usize) {
        let mut rig = Rig::boot(n);
        (0..n).for_each(|w| rig.deploy(w));
        let bad_arch = Arch {
            classes: 5,
            ..Arch::tiny_28()
        };
        let (transport, thread) = spawn_worker(&bad_arch, "bad");
        rig.threads.push(thread);
        rig.master.reattach_worker(n - 1, transport);
        rig.master.await_hellos().expect("hello");
        let branch = rig.combined.branches[n].clone();
        let bad_net = ConvNet::new(bad_arch, &mut Prng::new(1));
        let windows = extract_branch_weights(&bad_net, &branch);
        rig.master
            .deploy_to(n - 1, branch, windows)
            .expect("deploy");

        let x = input();
        let err = rig.master.infer_ha(&x).expect_err("shape mismatch");
        assert!(matches!(err, DistError::Protocol(_)), "{err}");
        assert_eq!(rig.master.alive_workers(), n - 1);
        assert_eq!(rig.master.worker_dead(), n == 1);
        // The master's own branch is unharmed.
        assert!(rig.master.infer_local(&x).is_ok());
        rig.finish();
    }

    #[test]
    fn mis_shaped_logits_reply_is_an_error_not_a_panic() {
        mis_shaped_logits_reply(1);
        mis_shaped_logits_reply(3);
    }
}
