//! The system under test. Every call into the product crates lives in this
//! file, so a later API change is a one-file follow-up for the benchmark;
//! the rest of the crate sees only the plain types declared here.
//!
//! Three things are exported: the [`Fixture`] (seeded model, inputs and the
//! bit-identity oracle), the [`System`] a workload drives through
//! [`Client`]s, and [`run_ladder`], which replays inputs through each
//! public entry point, inner to outer, for the per-layer numbers.

use crate::ladder::Timer;
use fluid_data::SynthDigits;
use fluid_dist::{
    extract_branch_weights, InProcTransport, Master, MasterConfig, Message, Mode, NamedTensor,
    TcpTransport, Transport, Worker, WorkerEngine, WorkerExit,
};
use fluid_models::{calibrate, Arch, BranchSpec, ConvNet, FluidModel, QuantizedNet, SubnetSpec};
use fluid_nn::{MaxPool2d, Relu, Workspace};
use fluid_router::{DynamicCluster, DynamicClusterConfig, RouterMetrics, ShardMap};
use fluid_serve::{
    serve_tcp, Backend, EngineBackend, QuantBackend, ServeConfig, ServeMetrics, Server,
    ServerHandle, TcpClient, Ticket,
};
use fluid_tensor::quant::{qgemm_ws, QuantSrcB, QuantizedMatrix};
use fluid_tensor::{conv_gemm_fwd_ws, pool, simd, Conv2dGeometry, PatchMatrix, Tensor, KC};
use std::hint::black_box;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The seeded generator: of the model and the ladder's operands here, and of
/// the open loop's arrival schedule.
pub use fluid_tensor::Prng;

/// Requests cycle over this many seeded test images.
pub const INPUTS: usize = 256;
/// Images in the int8 calibration batch (held out from the request set).
const CALIBRATION: usize = 64;
/// The sub-network every workload serves.
const SUBNET: &str = "combined100";
/// How long a cluster may take to converge before boot is a failure.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(20);

/// A reply as the client received it. Opaque outside this file.
pub struct Reply(Tensor);

/// `"avx2_4x16+avx2_i8_4x16"` and the like, for the host meta block.
pub fn simd_name() -> String {
    simd::active_name()
}

/// Pins the kernel pool to one thread and returns the pool's size. What a
/// shared two-core host can measure is request-level concurrency, not
/// kernel fan-out.
pub fn pin_kernel_pool() -> usize {
    pool::set_threads(1);
    pool::threads()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// fixture: model, inputs, oracle
// ---------------------------------------------------------------------------

/// Everything derived from the seed alone: the model, the request images
/// and the logits each must produce.
pub struct Fixture {
    net: ConvNet,
    spec: SubnetSpec,
    /// Present when the workload serves int8.
    qnet: Option<QuantizedNet>,
    inputs: Vec<Tensor>,
    oracle: Vec<Tensor>,
}

impl Fixture {
    /// Untrained `Arch::paper()` weights from `seed` (they cost the same as
    /// trained ones; correctness is bit-identity, not accuracy), 256
    /// `SynthDigits` images, and their batch-1 logits through
    /// `forward_subnet` — or `QuantizedNet::forward` when `int8`.
    pub fn new(seed: u64, int8: bool) -> Fixture {
        let model = FluidModel::new(Arch::paper(), &mut Prng::new(seed));
        let spec = model.spec(SUBNET).expect("standard spec").clone();
        let mut net = model.net().clone();
        let mut digits = SynthDigits::new(seed);
        let images = digits.generate(INPUTS);
        let inputs: Vec<Tensor> = (0..INPUTS)
            .map(|i| Tensor::from_vec(images.example(i).to_vec(), &[1, 1, 28, 28]))
            .collect();
        let mut qnet = int8.then(|| {
            let held_out = digits.generate(CALIBRATION);
            let calib = calibrate(&mut net, &spec, held_out.images());
            QuantizedNet::from_net(&net, &spec, &calib)
        });
        let oracle = inputs
            .iter()
            .map(|x| match &mut qnet {
                Some(q) => q.forward(x),
                None => net.forward_subnet(x, &spec, false),
            })
            .collect();
        Fixture {
            net,
            spec,
            qnet,
            inputs,
            oracle,
        }
    }

    /// Bit-identity against the oracle for input `idx`.
    pub fn verify(&self, idx: usize, reply: &Reply) -> bool {
        let want = &self.oracle[idx % INPUTS];
        reply.0.dims() == want.dims() && reply.0.allclose(want, 0.0)
    }

    fn input(&self, idx: usize) -> &Tensor {
        &self.inputs[idx % INPUTS]
    }

    /// The first `n` inputs as one `[n, 1, 28, 28]` batch.
    fn batch(&self, n: usize) -> Tensor {
        let mut data = Vec::with_capacity(n * 28 * 28);
        for x in &self.inputs[..n] {
            data.extend_from_slice(x.data());
        }
        Tensor::from_vec(data, &[n, 1, 28, 28])
    }

    fn engine_backend(&self, name: &str) -> Box<dyn Backend> {
        Box::new(EngineBackend::new(
            name,
            self.net.clone(),
            self.spec.clone(),
        ))
    }
}

// ---------------------------------------------------------------------------
// topologies
// ---------------------------------------------------------------------------

/// What a workload boots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// In-process `Server`, one backend, `max_batch` 16 / 2 ms / 256.
    InProc { int8: bool },
    /// `serve_tcp` over one `EngineBackend`: the default `ServeConfig`
    /// when `batched`, else `max_batch` 1.
    Tcp { batched: bool },
    /// `DynamicCluster`: 3 nodes × 1 worker behind 2 gossiping routers,
    /// `max_batch` 1, defaults otherwise.
    Cluster,
    /// `Master` + `Worker` over loopback `TcpTransport`, `lower50` local
    /// and the `combined100` upper partial remote.
    Pair,
}

/// How a client uses its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientKind {
    /// Whatever the topology's one natural call is, on a kept connection.
    Persistent,
    /// `TcpClient::connect` → `infer` → drop, per request.
    Reconnect,
}

/// `max_batch` of the in-process burst topology: a 64-ticket burst is four
/// full batches.
pub const BURST_MAX_BATCH: usize = 16;

fn serve_config(max_batch: usize) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.max_batch = max_batch;
    cfg.threads = Some(1);
    cfg
}

/// A `Server` with its `serve_tcp` front-end.
struct TcpFront {
    server: Server,
    addr: String,
    shutdown: Arc<AtomicBool>,
    front: JoinHandle<std::io::Result<()>>,
}

impl TcpFront {
    fn boot(fx: &Fixture, cfg: ServeConfig) -> Result<TcpFront, String> {
        let server = Server::start(cfg, vec![fx.engine_backend("engine0")]).map_err(err)?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let addr = listener.local_addr().map_err(err)?.to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let front = {
            let (handle, shutdown) = (server.handle(), Arc::clone(&shutdown));
            std::thread::spawn(move || serve_tcp(listener, handle, shutdown))
        };
        Ok(TcpFront {
            server,
            addr,
            shutdown,
            front,
        })
    }

    fn stop(self) -> Result<ServeMetrics, String> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.front
            .join()
            .map_err(|_| "serve_tcp thread panicked".to_string())?
            .map_err(err)?;
        Ok(self.server.shutdown())
    }
}

/// The Worker half of a pair, reachable over loopback TCP.
struct TcpWorker {
    /// A second handle on the master-side socket: shutting it down is the
    /// "socket killed" of the failover rung.
    kill: TcpStream,
    thread: JoinHandle<(WorkerExit, WorkerEngine)>,
}

/// Spawns a `Worker` thread that dials back over loopback and returns the
/// master-side transport.
fn spawn_tcp_worker(arch: &Arch) -> Result<(TcpTransport, TcpWorker), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let addr = listener.local_addr().map_err(err)?;
    let arch = arch.clone();
    let thread = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("worker dials the master");
        let transport = TcpTransport::new(stream).expect("worker transport");
        Worker::new(transport, arch, "bench-worker").run()
    });
    let (stream, _) = listener.accept().map_err(err)?;
    let kill = stream.try_clone().map_err(err)?;
    let transport = TcpTransport::new(stream).map_err(err)?;
    Ok((transport, TcpWorker { kill, thread }))
}

/// The two branches of `combined100` and the remote one's weight windows.
fn pair_deployment(fx: &Fixture) -> (BranchSpec, BranchSpec, Vec<NamedTensor>) {
    let local = fx.spec.branches[0].clone();
    let remote = fx.spec.branches[1].clone();
    let windows = extract_branch_weights(&fx.net, &remote);
    (local, remote, windows)
}

/// Boots a deployed High-Accuracy pair over loopback TCP.
fn boot_pair(fx: &Fixture) -> Result<(Master<TcpTransport>, TcpWorker), String> {
    let (transport, worker) = spawn_tcp_worker(fx.net.arch())?;
    let mut master = Master::new(transport, fx.net.clone(), MasterConfig::default());
    master.await_hello().map_err(err)?;
    let (local, remote, windows) = pair_deployment(fx);
    master.deploy_local(local);
    master.deploy_remote(remote, windows).map_err(err)?;
    Ok((master, worker))
}

fn boot_cluster(fx: &Fixture, seed: u64) -> Result<DynamicCluster, String> {
    let mut cfg = DynamicClusterConfig::default();
    cfg.serve = serve_config(1);
    cfg.seed = seed;
    let cluster = DynamicCluster::boot(&fx.net, &fx.spec, cfg).map_err(err)?;
    if !cluster.wait_converged(CONVERGE_TIMEOUT) {
        return Err(format!("cluster did not converge in {CONVERGE_TIMEOUT:?}"));
    }
    Ok(cluster)
}

enum Booted {
    InProc(Server),
    Tcp(TcpFront),
    Cluster(Box<DynamicCluster>),
    /// The master moves into the one client; the worker stays here.
    Pair {
        master: Option<Box<Master<TcpTransport>>>,
        worker: TcpWorker,
    },
}

/// A booted topology.
pub struct System(Booted);

impl System {
    /// Boots `topology` (for a cluster: until every router agrees on the
    /// membership).
    pub fn boot(fx: &Fixture, topology: Topology, seed: u64) -> Result<System, String> {
        Ok(System(match topology {
            Topology::InProc { int8 } => {
                let backend: Box<dyn Backend> = if int8 {
                    let qnet = fx.qnet.clone().ok_or("int8 topology on an f32 fixture")?;
                    Box::new(QuantBackend::new("quant0", qnet))
                } else {
                    fx.engine_backend("engine0")
                };
                Booted::InProc(
                    Server::start(serve_config(BURST_MAX_BATCH), vec![backend]).map_err(err)?,
                )
            }
            Topology::Tcp { batched } => {
                let max_batch = if batched {
                    ServeConfig::default().max_batch
                } else {
                    1
                };
                Booted::Tcp(TcpFront::boot(fx, serve_config(max_batch))?)
            }
            Topology::Cluster => Booted::Cluster(Box::new(boot_cluster(fx, seed)?)),
            Topology::Pair => {
                let (master, worker) = boot_pair(fx)?;
                Booted::Pair {
                    master: Some(Box::new(master)),
                    worker,
                }
            }
        }))
    }

    /// The `k`-th client. A cluster hands out one connection per router; a
    /// pair has exactly one caller.
    pub fn client(&mut self, k: usize, kind: ClientKind) -> Result<Client, String> {
        let link = match &mut self.0 {
            Booted::InProc(server) => Link::InProc(server.handle()),
            Booted::Tcp(front) => match kind {
                ClientKind::Persistent => Link::Tcp(TcpClient::connect(&front.addr).map_err(err)?),
                ClientKind::Reconnect => Link::Reconnect {
                    addr: front.addr.clone(),
                    conn: None,
                },
            },
            Booted::Cluster(cluster) => {
                let addrs = cluster.router_addrs();
                Link::Keyed(TcpClient::connect(&addrs[k % addrs.len()]).map_err(err)?)
            }
            Booted::Pair { master, .. } => {
                Link::Pair(master.take().ok_or("a pair has one caller")?)
            }
        };
        Ok(Client(link))
    }

    /// Stops everything (joining every thread it started) and reads the
    /// server-side counters. Takes the clients back: their connections
    /// must close first, and the pair's master lives in its client.
    pub fn shutdown(self, clients: Vec<Client>) -> Result<ServerSide, String> {
        match self.0 {
            Booted::InProc(server) => {
                drop(clients);
                Ok(ServerSide::of_one_server(server.shutdown()))
            }
            Booted::Tcp(front) => {
                drop(clients);
                Ok(ServerSide::of_one_server(front.stop()?))
            }
            Booted::Cluster(cluster) => {
                drop(clients);
                let routers: Vec<RouterMetrics> = (0..cluster.routers_len())
                    .map(|i| cluster.router(i).router().metrics())
                    .collect();
                let nodes = (0..cluster.nodes_len())
                    .map(|i| cluster.node(i).handle().map(|h| h.metrics()).map_err(err))
                    .collect::<Result<Vec<ServeMetrics>, String>>()?;
                drop(cluster);
                let serve = ServeCounters::from_nodes(&nodes);
                let router = RouterCounters::from_routers(&routers);
                Ok(ServerSide {
                    served: vec![
                        ("sum of RouterMetrics.completed", router.completed),
                        ("sum of ServeMetrics.completed", serve.completed),
                    ],
                    serve: Some(serve),
                    router: Some(router),
                })
            }
            Booted::Pair { worker, .. } => {
                let mut master = clients
                    .into_iter()
                    .find_map(|c| match c.0 {
                        Link::Pair(m) => Some(m),
                        _ => None,
                    })
                    .ok_or("the pair's caller was not handed back")?;
                let local = master.engine_mut().inferences() as u64;
                master.shutdown_worker();
                let (exit, engine) = worker
                    .thread
                    .join()
                    .map_err(|_| "worker thread panicked".to_string())?;
                if !matches!(exit, WorkerExit::Shutdown) {
                    return Err(format!("worker exited with {exit:?}, not Shutdown"));
                }
                Ok(ServerSide {
                    served: vec![
                        ("master WorkerEngine::inferences", local),
                        (
                            "worker WorkerEngine::inferences",
                            engine.inferences() as u64,
                        ),
                    ],
                    serve: None,
                    router: None,
                })
            }
        }
    }
}

/// What the server side counted, read at shutdown.
pub struct ServerSide {
    /// Counters that must each equal the number of replies the clients
    /// verified (the count cross-check), with the name to report.
    pub served: Vec<(&'static str, u64)>,
    pub serve: Option<ServeCounters>,
    pub router: Option<RouterCounters>,
}

impl ServerSide {
    fn of_one_server(m: ServeMetrics) -> ServerSide {
        ServerSide {
            served: vec![("ServeMetrics.completed", m.completed)],
            serve: Some(ServeCounters::from_nodes(&[m])),
            router: None,
        }
    }
}

/// `ServeMetrics`, summed over nodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeCounters {
    pub completed: u64,
    pub shed: u64,
    pub failed: u64,
    pub retried: u64,
    pub batches: u64,
    /// Requests per dispatched batch, over all nodes.
    pub mean_batch_requests: f64,
    /// Server-side p50 sojourn; over several nodes, their
    /// completed-weighted mean.
    pub p50_ms: f64,
}

impl ServeCounters {
    fn from_nodes(nodes: &[ServeMetrics]) -> ServeCounters {
        let sum = |f: fn(&ServeMetrics) -> u64| nodes.iter().map(f).sum::<u64>();
        let completed = sum(|m| m.completed);
        let batches = sum(|m| m.batches);
        let weighted = |f: fn(&ServeMetrics) -> f64, w: fn(&ServeMetrics) -> u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                nodes.iter().map(|m| f(m) * w(m) as f64).sum::<f64>() / total as f64
            }
        };
        ServeCounters {
            completed,
            shed: sum(|m| m.shed),
            failed: sum(|m| m.failed),
            retried: sum(|m| m.retried),
            batches,
            mean_batch_requests: weighted(|m| m.mean_batch_requests, |m| m.batches, batches),
            p50_ms: weighted(|m| m.p50_ms, |m| m.completed, completed),
        }
    }
}

/// `RouterMetrics`, summed over routers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterCounters {
    pub admitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub rejected: u64,
    pub retries: u64,
    pub node_deaths: u64,
    /// Most-served node ÷ least-served node (0 when a node served none).
    pub node_spread: f64,
}

impl RouterCounters {
    fn from_routers(routers: &[RouterMetrics]) -> RouterCounters {
        let sum = |f: fn(&RouterMetrics) -> u64| routers.iter().map(f).sum::<u64>();
        let mut served: std::collections::BTreeMap<&str, u64> = Default::default();
        for n in routers.iter().flat_map(|r| &r.nodes) {
            *served.entry(&n.id).or_default() += n.served;
        }
        let most = served.values().copied().max().unwrap_or(0);
        let least = served.values().copied().min().unwrap_or(0);
        RouterCounters {
            admitted: sum(|m| m.admitted),
            completed: sum(|m| m.completed),
            shed: sum(|m| m.shed),
            rejected: sum(|m| m.rejected),
            retries: sum(|m| m.retries),
            node_deaths: sum(|m| m.node_deaths),
            node_spread: if least == 0 {
                0.0
            } else {
                most as f64 / least as f64
            },
        }
    }
}

// ---------------------------------------------------------------------------
// clients
// ---------------------------------------------------------------------------

enum Link {
    InProc(ServerHandle),
    Tcp(TcpClient),
    Reconnect {
        addr: String,
        conn: Option<TcpClient>,
    },
    Keyed(TcpClient),
    Pair(Box<Master<TcpTransport>>),
}

/// One caller. `Send`, so each load-generator thread owns one.
pub struct Client(Link);

/// An in-process request in flight (`ServerHandle::submit`).
pub struct Pending(Ticket);

impl Pending {
    /// `Ticket::wait`.
    pub fn wait(self) -> Result<Reply, String> {
        self.0.wait().map(Reply).map_err(err)
    }
}

impl Client {
    /// Dials, for a [`ClientKind::Reconnect`] client; nothing otherwise.
    pub fn connect(&mut self) -> Result<(), String> {
        if let Link::Reconnect { addr, conn } = &mut self.0 {
            *conn = Some(TcpClient::connect(addr).map_err(err)?);
        }
        Ok(())
    }

    /// Drops a [`ClientKind::Reconnect`] client's connection.
    pub fn disconnect(&mut self) {
        if let Link::Reconnect { conn, .. } = &mut self.0 {
            *conn = None;
        }
    }

    /// The topology's one public call for request number `request`
    /// (input `request % 256`; the shard key of a keyed call is `request`).
    pub fn infer(&mut self, fx: &Fixture, request: u64) -> Result<Reply, String> {
        let x = fx.input(request as usize);
        match &mut self.0 {
            Link::InProc(handle) => handle.infer(x.clone()).map_err(err),
            Link::Tcp(client) => client.infer(x).map_err(err),
            Link::Reconnect { conn, .. } => conn
                .as_mut()
                .ok_or("infer on a dropped connection")?
                .infer(x)
                .map_err(err),
            Link::Keyed(client) => client.infer_keyed(request, x).map_err(err),
            Link::Pair(master) => master.infer_ha(x).map_err(err),
        }
        .map(Reply)
    }

    /// `ServerHandle::submit` without waiting (in-process clients only).
    pub fn submit(&mut self, fx: &Fixture, request: u64) -> Result<Pending, String> {
        match &mut self.0 {
            Link::InProc(handle) => handle
                .submit(fx.input(request as usize).clone())
                .map(Pending)
                .map_err(err),
            _ => Err("submit needs an in-process client".into()),
        }
    }
}

// ---------------------------------------------------------------------------
// the ladder
// ---------------------------------------------------------------------------

/// Iterations of a sub-millisecond rung ("the first 400 inputs").
const ITERS: usize = 400;
/// Iterations of a rung that opens connections: they queue in the listen
/// backlog (128) until the accept loop's next 100 ms poll.
const CONNECT_ITERS: usize = 40;
/// Fresh-connection round trips per round: each waits out the accept poll.
const FIRST_REPLY_ITERS: usize = 3;
/// Kill → local reply and reattach → HA reply cycles per round.
const FAILOVER_CYCLES: usize = 7;
/// Scratch names of the f32 microkernel variants' rungs and flop counts.
const MICROKERNELS: [(&str, &str); 4] = [
    ("_microkernel.0", "_microkernel.0.flops"),
    ("_microkernel.1", "_microkernel.1.flops"),
    ("_microkernel.2", "_microkernel.2.flops"),
    ("_microkernel.3", "_microkernel.3.flops"),
];
/// Shard lookups per call of the `_router.shard_lookups` rung.
pub const LOOKUPS_PER_CALL: u64 = 1000;
const BATCH: usize = 16;

fn random_tensor(rng: &mut Prng, dims: &[usize]) -> Tensor {
    Tensor::from_fn(dims, |_| rng.uniform(-1.0, 1.0))
}

/// `(c_in, side)` of the three `Arch::paper()` conv stages as one
/// 8-channel branch of `combined100` sees them.
fn conv_shapes(arch: &Arch) -> Vec<(usize, usize)> {
    let half = arch.ladder.half();
    (0..arch.conv_stages)
        .map(|s| {
            let c_in = if s == 0 { arch.image_channels } else { half };
            (c_in, arch.side_after(s))
        })
        .collect()
}

/// Runs one round of every rung, sequentially, with nothing else alive in
/// the process.
pub fn run_ladder(fx: &Fixture, seed: u64, rec: &mut Timer) -> Result<(), String> {
    tensor_rungs(fx, seed, rec);
    nn_rungs(fx, seed, rec);
    models_rungs(fx, rec)?;
    wire_and_transport_rungs(fx, rec)?;
    master_rungs(fx, rec)?;
    serve_rungs(fx, rec)?;
    router_rungs(fx, seed, rec)
}

fn tensor_rungs(fx: &Fixture, seed: u64, rec: &mut Timer) {
    let arch = fx.net.arch();
    let half = arch.ladder.half();
    let mut rng = Prng::new(seed ^ 0x7e45);
    let mut ws = Workspace::new();
    let geo = |side| Conv2dGeometry::new(side, side, arch.kernel, 1, arch.kernel / 2);
    let branches = fx.spec.branches.len();

    // Implicit-GEMM conv forward: the three conv shapes, once per branch.
    let mut flops = 0.0;
    let mut bytes = 0.0;
    for batch in [BATCH, 1] {
        let operands: Vec<(Tensor, Tensor, usize, usize)> = conv_shapes(arch)
            .into_iter()
            .map(|(c_in, side)| {
                let w = random_tensor(&mut rng, &[half, c_in * arch.kernel * arch.kernel]);
                let x = random_tensor(&mut rng, &[batch, c_in, side, side]);
                (w, x, c_in, side)
            })
            .collect();
        if batch == BATCH {
            for (w, x, _, side) in &operands {
                let (m, k, n) = (w.dim(0), w.dim(1), batch * side * side);
                flops += (branches * 2 * m * k * n) as f64;
                // Computed from the shapes, not measured: weights and the
                // source image read once, the output written once.
                bytes += (branches * 4 * (m * k + x.numel() + m * n)) as f64;
            }
        }
        let name = if batch == BATCH {
            "tensor.conv_gemm_fwd_b16_ms"
        } else {
            "tensor.conv_gemm_fwd_b1_ms"
        };
        rec.time(name, ITERS, &mut || {
            for _ in 0..branches {
                for (w, x, c_in, side) in &operands {
                    let patches = PatchMatrix::new(x.data(), batch, *c_in, geo(*side));
                    let out = conv_gemm_fwd_ws(black_box(w), &patches, &mut ws);
                    ws.recycle(black_box(out));
                }
            }
        });
        if batch == BATCH {
            rec.fact("_tensor.gemm_flops_b16", flops);
            rec.fact("tensor.gemm_bytes_b16", bytes);
        }
    }

    // The FC head's product, once per branch.
    let fc_in = half * arch.features_per_channel();
    let x = random_tensor(&mut rng, &[BATCH, fc_in]);
    let w = random_tensor(&mut rng, &[fc_in, arch.classes]);
    rec.time("tensor.matmul_fc_b16_ms", ITERS, &mut || {
        for _ in 0..branches {
            let out = black_box(&x).matmul_ws(&w, &mut ws);
            ws.recycle(black_box(out));
        }
    });

    // The int8 twin of the conv GEMMs: quantize-while-packing + qgemm.
    let operands: Vec<(QuantizedMatrix, Tensor, usize, usize)> = conv_shapes(arch)
        .into_iter()
        .map(|(c_in, side)| {
            let k = c_in * arch.kernel * arch.kernel;
            let w = random_tensor(&mut rng, &[half, k]);
            let x = random_tensor(&mut rng, &[BATCH, c_in, side, side]);
            (QuantizedMatrix::from_rows(w.data(), half, k), x, c_in, side)
        })
        .collect();
    let mut out = vec![0.0f32; half * BATCH * arch.image_side * arch.image_side];
    rec.time("tensor.qgemm_b16_ms", ITERS, &mut || {
        for _ in 0..branches {
            for (qa, x, c_in, side) in &operands {
                let patches = PatchMatrix::new(x.data(), BATCH, *c_in, geo(*side));
                let n = BATCH * side * side;
                let out = &mut out[..half * n];
                qgemm_ws(
                    qa,
                    QuantSrcB::Patches(&patches),
                    1.0 / 127.0,
                    n,
                    out,
                    &mut ws,
                );
                black_box(out);
            }
        }
    });

    // Every f32 microkernel the host can run, on packed panels at the
    // engine's depth block: the best is the roofline the GEMM rows are a
    // share of.
    const CALLS: usize = 2000;
    for (kern, (rung, flops)) in simd::host_variants_f32().into_iter().zip(MICROKERNELS) {
        let a: Vec<f32> = (0..KC * simd::MR).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..KC * kern.nr).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut acc = [0.0f32; simd::ACC_F32];
        rec.time(rung, 60, &mut || {
            for _ in 0..CALLS {
                (kern.run)(black_box(&a), black_box(&b), &mut acc);
            }
            black_box(&acc);
        });
        rec.fact(flops, (CALLS * 2 * simd::MR * kern.nr * KC) as f64);
    }
}

fn nn_rungs(fx: &Fixture, seed: u64, rec: &mut Timer) {
    let mut net = fx.net.clone();
    let arch = net.arch().clone();
    let half = arch.ladder.half();
    let mut rng = Prng::new(seed ^ 0x22aa);
    let mut ws = Workspace::new();

    for (stage, (c_in, side)) in conv_shapes(&arch).into_iter().enumerate() {
        let x = random_tensor(&mut rng, &[BATCH, c_in, side, side]);
        let name = [
            "nn.conv1_fwd_b16_ms",
            "nn.conv2_fwd_b16_ms",
            "nn.conv3_fwd_b16_ms",
        ][stage];
        rec.time(name, ITERS, &mut || {
            for branch in &fx.spec.branches {
                let out = net.convs_mut()[stage].forward_ws(
                    black_box(&x),
                    branch.in_range(stage, arch.image_channels),
                    branch.channels[stage],
                    false,
                    &mut ws,
                );
                ws.recycle(black_box(out));
            }
        });
    }

    // ReLU + 2×2 max-pool over every stage's activation, once per branch.
    let activations: Vec<Tensor> = conv_shapes(&arch)
        .into_iter()
        .map(|(_, side)| random_tensor(&mut rng, &[BATCH, half, side, side]))
        .collect();
    let (mut relu, mut maxpool) = (Relu::new(), MaxPool2d::new(2, 2));
    rec.time("nn.pool_relu_fwd_b16_ms", ITERS, &mut || {
        for _ in &fx.spec.branches {
            for h in &activations {
                let r = relu.forward_ws(black_box(h), false, &mut ws);
                let p = maxpool.forward_ws(&r, false, &mut ws);
                ws.recycle(r);
                ws.recycle(black_box(p));
            }
        }
    });

    let flat = random_tensor(&mut rng, &[BATCH, half * arch.features_per_channel()]);
    rec.time("nn.fc_fwd_b16_ms", ITERS, &mut || {
        for branch in &fx.spec.branches {
            let out = net.fc_mut().forward_ws(
                black_box(&flat),
                branch.fc_range(&arch),
                branch.fc_bias,
                false,
                &mut ws,
            );
            ws.recycle(black_box(out));
        }
    });
}

fn models_rungs(fx: &Fixture, rec: &mut Timer) -> Result<(), String> {
    let mut net = fx.net.clone();
    let batch = fx.batch(BATCH);
    let mut i = 0;
    rec.time("models.forward_b1_ms", ITERS, &mut || {
        let out = net.forward_subnet(fx.input(i), &fx.spec, false);
        net.recycle(black_box(out));
        i += 1;
    });
    rec.time("models.forward_b16_ms", ITERS, &mut || {
        let out = net.forward_subnet(black_box(&batch), &fx.spec, false);
        net.recycle(black_box(out));
    });
    let lower = &fx.spec.branches[0];
    rec.time("models.branch_fwd_b1_ms", ITERS, &mut || {
        let out = net.forward_branch(fx.input(i), lower, false);
        net.recycle(black_box(out));
        i += 1;
    });

    let mut qnet = match &fx.qnet {
        Some(q) => q.clone(),
        None => {
            let calib = calibrate(&mut net, &fx.spec, &fx.batch(CALIBRATION));
            QuantizedNet::from_net(&net, &fx.spec, &calib)
        }
    };
    rec.time("models.qforward_b1_ms", ITERS, &mut || {
        let out = qnet.forward(fx.input(i));
        qnet.recycle(black_box(out));
        i += 1;
    });
    rec.time("models.qforward_b16_ms", ITERS, &mut || {
        let out = qnet.forward(black_box(&batch));
        qnet.recycle(black_box(out));
    });

    // The serving tier's wrapper over the same forwards.
    let mut engine = EngineBackend::new("ladder", fx.net.clone(), fx.spec.clone());
    let mut quant = QuantBackend::new("ladder-q", qnet.clone());
    let mut failed = None;
    let mut infer = |backend: &mut dyn Backend, x: &Tensor| match backend.infer_batch(x) {
        Ok(out) => backend.recycle_output(black_box(out)),
        Err(e) => failed = Some(e.to_string()),
    };
    rec.time("serve.backend.infer_batch_b1_ms", ITERS, &mut || {
        infer(&mut engine, fx.input(i));
        i += 1;
    });
    rec.time("serve.backend.infer_batch_b16_ms", ITERS, &mut || {
        infer(&mut engine, &batch)
    });
    rec.time("serve.backend.q_infer_batch_b16_ms", ITERS, &mut || {
        infer(&mut quant, &batch)
    });
    failed.map_or(Ok(()), Err)
}

/// A `Worker` on the far end of `link`, used as a Heartbeat echo.
fn heartbeat_rtt<T: Transport>(
    link: &mut T,
    name: &'static str,
    rec: &mut Timer,
) -> Result<(), String> {
    let wait = Duration::from_secs(5);
    let expect = |link: &mut T, want: &Message| loop {
        match link.recv_timeout(wait) {
            Ok(Some(msg)) if &msg == want => return Ok(()),
            Ok(Some(_)) => {}
            Ok(None) => return Err(format!("no {want:?} within {wait:?}")),
            Err(e) => return Err(e.to_string()),
        }
    };
    expect(
        link,
        &Message::Hello {
            device: "bench-worker".into(),
        },
    )?;
    let mut seq = 0;
    let mut failed = None;
    rec.time(name, ITERS, &mut || {
        seq += 1;
        let r = link
            .send(&Message::Heartbeat { seq })
            .map_err(err)
            .and_then(|()| expect(link, &Message::HeartbeatAck { seq }));
        if let Err(e) = r {
            failed = Some(e);
        }
    });
    link.send(&Message::Shutdown).map_err(err)?;
    failed.map_or(Ok(()), Err)
}

fn wire_and_transport_rungs(fx: &Fixture, rec: &mut Timer) -> Result<(), String> {
    let infer = Message::Infer {
        request_id: 1,
        input: fx.input(0).clone(),
    };
    let logits = Message::Logits {
        request_id: 1,
        logits: fx.oracle[0].clone(),
    };
    let infer_bytes = infer.encode();
    let logits_bytes = logits.encode();
    // On the wire a frame is the payload behind a 4-byte length prefix.
    rec.fact(
        "dist.wire.infer_frame_bytes",
        (infer_bytes.len() + 4) as f64,
    );
    rec.time("dist.wire.encode_infer_us", ITERS, &mut || {
        black_box(black_box(&infer).encode());
    });
    rec.time("dist.wire.decode_infer_us", ITERS, &mut || {
        black_box(Message::decode(black_box(&infer_bytes)).expect("decode"));
    });
    rec.time("dist.wire.encode_logits_us", ITERS, &mut || {
        black_box(black_box(&logits).encode());
    });
    rec.time("dist.wire.decode_logits_us", ITERS, &mut || {
        black_box(Message::decode(black_box(&logits_bytes)).expect("decode"));
    });

    let (mut link, worker) = spawn_tcp_worker(fx.net.arch())?;
    heartbeat_rtt(&mut link, "dist.transport.tcp_rtt_us", rec)?;
    worker.thread.join().map_err(|_| "echo worker panicked")?;

    let (mut link, far) = InProcTransport::pair();
    let arch = fx.net.arch().clone();
    let echo = std::thread::spawn(move || Worker::new(far, arch, "bench-worker").run());
    heartbeat_rtt(&mut link, "dist.transport.inproc_rtt_us", rec)?;
    echo.join().map_err(|_| "echo worker panicked")?;
    Ok(())
}

fn master_rungs(fx: &Fixture, rec: &mut Timer) -> Result<(), String> {
    let mut engine = WorkerEngine::from_net(fx.net.clone());
    engine.activate(fx.spec.branches[0].clone());
    let mut i = 0;
    let mut failed: Option<String> = None;
    rec.time("dist.engine.infer_b1_ms", ITERS, &mut || {
        match engine.infer(fx.input(i)) {
            Ok(out) => engine.net_mut().recycle(black_box(out)),
            Err(e) => failed = Some(e.to_string()),
        }
        i += 1;
    });

    let (mut master, mut worker) = boot_pair(fx)?;
    let mut note = |r: Result<(), String>| {
        if let Err(e) = r {
            failed = Some(e);
        }
    };
    rec.time("dist.master.ha_call_ms", ITERS, &mut || {
        note(
            master
                .infer_ha(fx.input(i))
                .map(|y| drop(black_box(y)))
                .map_err(err),
        );
        i += 1;
    });
    rec.time("dist.master.local_call_ms", ITERS, &mut || {
        note(
            master
                .infer_local(fx.input(i))
                .map(|y| drop(black_box(y)))
                .map_err(err),
        );
        i += 1;
    });
    note(master.switch_mode(Mode::HighThroughput).map_err(err));
    rec.time("dist.master.ht_call_ms", ITERS, &mut || {
        let r = master.infer_ht(fx.input(i), fx.input(i + 1));
        note(r.map(|y| drop(black_box(y))).map_err(err));
        i += 2;
    });
    note(master.switch_mode(Mode::HighAccuracy).map_err(err));
    let (_, remote, windows) = pair_deployment(fx);
    rec.time("dist.master.deploy_ms", 100, &mut || {
        note(
            master
                .deploy_remote(remote.clone(), windows.clone())
                .map_err(err),
        );
    });
    if let Some(e) = failed {
        return Err(e);
    }

    let mut reference = fx.net.clone();
    for cycle in 0..FAILOVER_CYCLES {
        let x = fx.input(cycle);
        // Socket killed → the HA call fails → first local reply.
        let t0 = Instant::now();
        worker.kill.shutdown(Shutdown::Both).map_err(err)?;
        if master.infer_ha(x).is_ok() {
            return Err("infer_ha succeeded over a killed socket".into());
        }
        master.infer_local(x).map_err(err)?;
        rec.sample_ms("dist.master.failover_ms", t0.elapsed().as_secs_f64() * 1e3);
        let (exit, _) = worker.thread.join().map_err(|_| "worker panicked")?;
        if !matches!(exit, WorkerExit::LinkLost(_)) {
            return Err(format!("killed worker exited with {exit:?}"));
        }

        // A fresh worker is up; reattach → hello → deploy → first HA reply.
        let (transport, fresh) = spawn_tcp_worker(fx.net.arch())?;
        worker = fresh;
        let t0 = Instant::now();
        master.reattach(transport);
        master.await_hello().map_err(err)?;
        master
            .deploy_remote(remote.clone(), windows.clone())
            .map_err(err)?;
        let y = master.infer_ha(x).map_err(err)?;
        rec.sample_ms("dist.master.reattach_ms", t0.elapsed().as_secs_f64() * 1e3);
        // Against the f32 forward, whatever precision the fixture's oracle is.
        let want = reference.forward_subnet(x, &fx.spec, false);
        if !y.allclose(&want, 0.0) {
            return Err("HA reply after reattach differs from forward_subnet".into());
        }
        reference.recycle(want);
    }
    master.shutdown_worker();
    worker.thread.join().map_err(|_| "worker panicked")?;
    Ok(())
}

fn serve_rungs(fx: &Fixture, rec: &mut Timer) -> Result<(), String> {
    let mut i = 0;
    let mut failed: Option<String> = None;

    // Batching off: scheduler hand-off, then the TCP hop on top of it.
    let front = TcpFront::boot(fx, serve_config(1))?;
    let handle = front.server.handle();
    rec.time("_serve.handle_infer_b1", ITERS, &mut || {
        match handle.infer(fx.input(i).clone()) {
            Ok(y) => drop(black_box(y)),
            Err(e) => failed = Some(e.to_string()),
        }
        i += 1;
    });
    let mut client = TcpClient::connect(&front.addr).map_err(err)?;
    client.infer(fx.input(0)).map_err(err)?; // past the accept poll
    rec.time("_serve.tcp_infer_b1", ITERS, &mut || {
        match client.infer(fx.input(i)) {
            Ok(y) => drop(black_box(y)),
            Err(e) => failed = Some(e.to_string()),
        }
        i += 1;
    });
    drop(client);
    rec.time(
        "serve.tcp.connect_ms",
        CONNECT_ITERS,
        &mut || match TcpClient::connect(&front.addr) {
            Ok(c) => drop(black_box(c)),
            Err(e) => failed = Some(e.to_string()),
        },
    );
    // Back to back, as the reconnect workload does it: each connection is
    // made just after the accept loop went back to sleep.
    for _ in 0..FIRST_REPLY_ITERS {
        let t0 = Instant::now();
        let mut fresh = TcpClient::connect(&front.addr).map_err(err)?;
        fresh.infer(fx.input(i)).map_err(err)?;
        rec.sample_ms("serve.tcp.first_reply_ms", t0.elapsed().as_secs_f64() * 1e3);
        i += 1;
    }
    front.stop()?;

    // The default config: a lone request waits out the batching window.
    let mut cfg = ServeConfig::default();
    cfg.threads = Some(1);
    let server = Server::start(cfg, vec![fx.engine_backend("engine0")]).map_err(err)?;
    let handle = server.handle();
    rec.time("_serve.handle_infer_window", ITERS, &mut || {
        match handle.infer(fx.input(i).clone()) {
            Ok(y) => drop(black_box(y)),
            Err(e) => failed = Some(e.to_string()),
        }
        i += 1;
    });
    drop(server);
    failed.map_or(Ok(()), Err)
}

fn router_rungs(fx: &Fixture, seed: u64, rec: &mut Timer) -> Result<(), String> {
    let t0 = Instant::now();
    let cluster = boot_cluster(fx, seed)?;
    rec.sample_ms("router.boot_converge_ms", t0.elapsed().as_secs_f64() * 1e3);

    let mut i = 0u64;
    let mut failed: Option<String> = None;
    let mut node = TcpClient::connect(cluster.node(0).addr()).map_err(err)?;
    let mut front = TcpClient::connect(cluster.router(0).addr()).map_err(err)?;
    // First requests pay the accept polls and the router's node dials.
    for k in 0..8 {
        node.infer_keyed(k, fx.input(0)).map_err(err)?;
        front.infer_keyed(k, fx.input(0)).map_err(err)?;
    }
    rec.time("_router.node_infer_keyed", ITERS, &mut || {
        match node.infer_keyed(i, fx.input(i as usize)) {
            Ok(y) => drop(black_box(y)),
            Err(e) => failed = Some(e.to_string()),
        }
        i += 1;
    });
    let router = cluster.router(0).router();
    rec.time("_router.router_infer", ITERS, &mut || {
        match router.infer(i, fx.input(i as usize)) {
            Ok(y) => drop(black_box(y)),
            Err(e) => failed = Some(e.to_string()),
        }
        i += 1;
    });
    rec.time("_router.front_infer_keyed", ITERS, &mut || {
        match front.infer_keyed(i, fx.input(i as usize)) {
            Ok(y) => drop(black_box(y)),
            Err(e) => failed = Some(e.to_string()),
        }
        i += 1;
    });
    drop((node, front));
    drop(cluster);

    let cfg = DynamicClusterConfig::default();
    let ids: Vec<String> = (0..cfg.nodes).map(|n| format!("node-{n}")).collect();
    let map = ShardMap::new(&ids, cfg.router.shards, cfg.router.replication);
    let mut key = seed;
    rec.time("_router.shard_lookups", 200, &mut || {
        for _ in 0..LOOKUPS_PER_CALL {
            key = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            black_box(map.replicas(map.shard_of(black_box(key))));
        }
    });
    failed.map_or(Ok(()), Err)
}
