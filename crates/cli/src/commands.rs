//! The `fluidctl` sub-commands.
//!
//! | command | action |
//! |---|---|
//! | `train`   | train a model family and write a checkpoint |
//! | `eval`    | evaluate a checkpoint's sub-network on fresh test data |
//! | `worker`  | serve branches over TCP until shut down |
//! | `master`  | connect to a worker, deploy, and run HA/HT inference |
//! | `serve`   | batched multi-worker serving over TCP (see `docs/SERVING.md`) |
//! | `loadgen` | drive a serving instance (in-proc or TCP) and report metrics |
//! | `autoscale` | run the elasticity controller against a Poisson traffic ramp |
//! | `reload`  | zero-downtime model hot-swap under live load |
//! | `route`   | shard traffic across a local cluster of announced nodes through the router tier (`--routers 2+`: gossip-replicated routers) |
//! | `drill`   | run the cluster drill and report its verdict (default: the chaos schedule; `--faults`: the fault schedule) |
//! | `fig2`    | regenerate the paper's Fig. 2 (both panels) |
//! | `help`    | usage |

use crate::args::{ArgMap, ParseArgsError};
use fluid_core::training::{
    train_incremental, train_nested, train_plain, NestedSchedule, TrainConfig,
};
use fluid_core::{format_accuracy_table, format_throughput_table, Experiment, Fig2Accuracy};
use fluid_data::SynthDigits;
use fluid_dist::{
    extract_branch_weights, Master, MasterConfig, TcpTransport, ThroughputMeter, Worker,
};
use fluid_models::{
    calibrate, load_net_from_path, save_net_to_path, standard_specs, Arch, DynamicModel,
    FluidModel, Precision, QuantizedNet, StaticModel, SubnetSpec,
};
use fluid_nn::accuracy;
use fluid_perf::SystemModel;
use fluid_router::{run_drill, DrillConfig, DynamicCluster, DynamicClusterConfig};
use fluid_serve::{
    loadgen, AutoscaleConfig, Autoscaler, EngineBackend, QuantBackend, ServeConfig, Server,
    TcpClient, TenancyConfig, TenantClass, TenantPolicy,
};
use fluid_tensor::{Prng, Tensor};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Error from a command: argument problems or runtime failures.
#[derive(Debug)]
pub enum CliError {
    /// Bad or missing arguments.
    Args(ParseArgsError),
    /// Anything that failed while running.
    Run(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Run(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ParseArgsError> for CliError {
    fn from(e: ParseArgsError) -> Self {
        CliError::Args(e)
    }
}

/// Usage text.
pub const USAGE: &str = "\
fluidctl — Fluid Dynamic DNNs from the command line

USAGE:
  fluidctl train  [--model fluid|dynamic|static] [--out PATH] [--train-n N]
                  [--epochs N] [--iters N] [--seed N] [--lr F]
  fluidctl eval   --model-file PATH [--subnet NAME] [--test-n N] [--seed N]
  fluidctl worker [--listen ADDR] (default 127.0.0.1:7700)
  fluidctl master --connect ADDR --model-file PATH [--mode ha|ht] [--images N]
  fluidctl serve  [--listen ADDR] [--model-file PATH] [--workers N]
                  [--precision f32|int8] [--max-batch N] [--max-wait-ms N]
                  [--queue-cap N] [--tenants SPEC] [--slo-ms F]
                  [--duration-s N] (0 = run until killed)
                  (--max-wait-ms caps how long a request waits for co-riders
                   behind busy workers; a batch leaves sooner once it is full
                   or a worker is idle, so an idle server never charges it)
  fluidctl loadgen [--connect ADDR] [--requests N] [--clients N]
                  [--open-loop] [--lambda F] [--seed N] [--model-file PATH]
                  [--workers N] [--precision f32|int8] [--max-batch N]
                  [--max-wait-ms N] [--queue-cap N] [--tenants SPEC] [--slo-ms F]
                  (without --connect: in-proc server; with --tenants:
                   per-tenant open loop, one report row per tenant)
  fluidctl autoscale [--min-workers N] [--max-workers N] [--requests N]
                  [--lambda F] [--tick-ms N] [--up-queue-depth N]
                  [--up-p95-ms F] [--down-queue-depth N] [--idle-ticks N]
                  [--cooldown-ticks N] [--retire-timeout-ms N] [--seed N]
                  [--model-file PATH] [--precision f32|int8] [--max-batch N]
                  [--max-wait-ms N] [--queue-cap N]
  fluidctl reload [--model-file PATH] [--new-model-file PATH] [--workers N]
                  [--precision f32|int8] [--new-precision f32|int8]
                  [--requests N] [--clients N] [--seed N]
                  [--max-batch N] [--max-wait-ms N] [--queue-cap N]
                  (--new-precision defaults to --precision; setting them
                   apart runs the f32<->int8 hot-swap A/B under load)
  fluidctl route  [--nodes N] [--workers-per-node N] [--replication N]
                  [--routers N] [--requests N] [--clients N]
                  [--seed N] [--model-file PATH] [--max-batch N]
                  [--max-wait-ms N] [--queue-cap N]
                  (boots an in-proc cluster whose nodes announce
                   themselves to the router(s); with --routers 2+ the
                   routers gossip and clients spread over the whole
                   router list)
  fluidctl drill  [--faults] [--nodes N] [--workers-per-node N]
                  [--routers N] [--replication N] [--lambda F]
                  [--requests N] [--concurrency N] [--kill-cycles N]
                  [--kill-pause-ms N] [--no-swap] [--no-kill] [--no-join]
                  [--no-partition] [--drop-p F] [--duplicate-p F]
                  [--seed N] [--model-file PATH] [--max-batch N]
                  [--max-wait-ms N] [--queue-cap N]
                  (one drill, every flag honoured on every run; --faults
                   only switches the defaults from the chaos schedule —
                   one router, a node kill/restart cycle, a rolling swap
                   — to the fault schedule: two gossiping routers, a
                   router kill, a node join, and a seeded fault plan with
                   a node partition window)
  fluidctl fig2   [--quick]
  fluidctl help

Every command also accepts --threads N to pin the compute-kernel worker
pool (default: the FLUID_THREADS environment variable, else all cores).
Outputs are bit-identical at any thread count; see docs/PERFORMANCE.md.

--precision int8 serves the post-training-quantized model: weights are
quantized per channel, activations calibrated on a held-out batch, and
the top-1 agreement against f32 is printed at boot (gate: >= 99%).
FLUID_FORCE_SCALAR=1 pins the scalar GEMM microkernels on any host.

--tenants SPEC is a comma-separated table of
ID:NAME:CLASS[:WEIGHT[:RATE[:BURST]]][@LAMBDA] entries (CLASS is
interactive|batch; RATE/BURST are the per-tenant token-bucket admission
quota in req/s and requests, default unmetered; @LAMBDA is that tenant's
loadgen arrival rate). Example:
  --tenants 1:web:interactive:2@200,2:etl:batch:1:50:10@400
See the multi-tenant scheduling section of docs/SERVING.md.
";

/// Dispatches a command line (without the binary name).
///
/// # Errors
///
/// Returns [`CliError`] on unknown commands, bad flags, or runtime failure.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let (cmd, rest) = argv
        .split_first()
        .map(|(c, r)| (c.as_str(), r))
        .unwrap_or(("help", &[]));
    let args = ArgMap::parse(rest.iter().cloned())?;
    // Every command accepts --threads N: pins the compute-kernel pool
    // (otherwise the FLUID_THREADS env / core count decides). Results are
    // bit-identical at any setting; only speed changes. An explicit 0 is
    // rejected, matching `ServeConfig::threads` validation.
    if !args.str_or("threads", "").is_empty() {
        match args.usize_or("threads", 0)? {
            0 => {
                return Err(CliError::Args(ParseArgsError(
                    "--threads must be at least 1".into(),
                )))
            }
            n => fluid_tensor::pool::set_threads(n),
        }
    }
    match cmd {
        "train" => cmd_train(&args),
        "eval" => cmd_eval(&args),
        "worker" => cmd_worker(&args),
        "master" => cmd_master(&args),
        "serve" => cmd_serve(&args),
        "loadgen" => cmd_loadgen(&args),
        "autoscale" => cmd_autoscale(&args),
        "reload" => cmd_reload(&args),
        "route" => cmd_route(&args),
        "drill" => cmd_drill(&args),
        "fig2" => cmd_fig2(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Run(format!(
            "unknown command {other:?}; try `fluidctl help`"
        ))),
    }
}

fn cmd_train(args: &ArgMap) -> Result<(), CliError> {
    let family = args.str_or("model", "fluid").to_owned();
    let out = args.str_or("out", "model.fldn").to_owned();
    let train_n = args.usize_or("train-n", 2000)?;
    let epochs = args.usize_or("epochs", 1)?;
    let iters = args.usize_or("iters", 2)?;
    let seed = args.u64_or("seed", 42)?;
    let lr = args.f32_or("lr", 0.05)?;

    let mut gen = SynthDigits::new(seed);
    let train = gen.generate(train_n);
    let cfg = TrainConfig {
        epochs_per_phase: epochs,
        seed,
        lr,
        ..TrainConfig::default()
    };
    println!("training {family} model on {train_n} SynthDigits images (seed {seed})...");
    let t0 = std::time::Instant::now();
    let net = match family.as_str() {
        "fluid" => {
            let mut model = FluidModel::new(Arch::paper(), &mut Prng::new(seed));
            let schedule = NestedSchedule {
                iterations: iters,
                ..NestedSchedule::default()
            };
            let stats = train_nested(&mut model, &train, &cfg, &schedule);
            println!("final loss {:.4}", stats.final_loss().unwrap_or(f32::NAN));
            model.net().clone()
        }
        "dynamic" => {
            let mut model = DynamicModel::new(Arch::paper(), &mut Prng::new(seed));
            let stats = train_incremental(&mut model, &train, &cfg);
            println!("final loss {:.4}", stats.final_loss().unwrap_or(f32::NAN));
            model.net().clone()
        }
        "static" => {
            let mut model = StaticModel::new(Arch::paper(), &mut Prng::new(seed));
            let mut cfg = cfg;
            cfg.epochs_per_phase = epochs * 6 * iters; // budget parity
            let stats = train_plain(&mut model, &train, &cfg);
            println!("final loss {:.4}", stats.final_loss().unwrap_or(f32::NAN));
            model.net().clone()
        }
        other => {
            return Err(CliError::Run(format!(
                "unknown --model {other:?} (fluid|dynamic|static)"
            )))
        }
    };
    save_net_to_path(&net, Path::new(&out)).map_err(|e| CliError::Run(e.to_string()))?;
    println!(
        "trained in {:.1}s, checkpoint written to {out}",
        t0.elapsed().as_secs_f32()
    );
    Ok(())
}

fn cmd_eval(args: &ArgMap) -> Result<(), CliError> {
    let path = args.required("model-file")?.to_owned();
    let subnet = args.str_or("subnet", "combined100").to_owned();
    let test_n = args.usize_or("test-n", 500)?;
    let seed = args.u64_or("seed", 999)?;

    let mut net = load_net_from_path(Path::new(&path)).map_err(|e| CliError::Run(e.to_string()))?;
    let arch = net.arch().clone();
    // Rebuild the fluid registry over the loaded weights to resolve names.
    let registry = FluidModel::new(arch, &mut Prng::new(0));
    let spec = registry
        .spec(&subnet)
        .ok_or_else(|| {
            CliError::Run(format!(
                "unknown sub-network {subnet:?}; known: lower25, lower50, upper25, upper50, combined75, combined100"
            ))
        })?
        .clone();
    let test = SynthDigits::new(seed).generate(test_n);
    let acc = Experiment::evaluate_subnet(&mut net, &spec, &test);
    println!(
        "{subnet} accuracy on {test_n} fresh images: {:.1}%",
        acc * 100.0
    );
    Ok(())
}

fn cmd_worker(args: &ArgMap) -> Result<(), CliError> {
    let listen = args.str_or("listen", "127.0.0.1:7700").to_owned();
    let listener = TcpListener::bind(&listen).map_err(|e| CliError::Run(e.to_string()))?;
    println!(
        "worker listening on {listen} ({} kernel threads, ctrl-c to stop)",
        fluid_tensor::pool::threads()
    );
    let (stream, peer) = listener
        .accept()
        .map_err(|e| CliError::Run(e.to_string()))?;
    println!("master connected from {peer}");
    let transport = TcpTransport::new(stream).map_err(|e| CliError::Run(e.to_string()))?;
    let (exit, engine) = Worker::new(transport, Arch::paper(), &listen).run();
    println!(
        "worker exited ({exit:?}) after {} inferences",
        engine.inferences()
    );
    Ok(())
}

fn cmd_master(args: &ArgMap) -> Result<(), CliError> {
    let addr = args.required("connect")?.to_owned();
    let path = args.required("model-file")?.to_owned();
    let mode = args.str_or("mode", "ha").to_owned();
    let images = args.usize_or("images", 100)?;

    let net = load_net_from_path(Path::new(&path)).map_err(|e| CliError::Run(e.to_string()))?;
    let arch = net.arch().clone();
    let registry = FluidModel::new(arch, &mut Prng::new(0));

    let stream = TcpStream::connect(&addr).map_err(|e| CliError::Run(e.to_string()))?;
    let transport = TcpTransport::new(stream).map_err(|e| CliError::Run(e.to_string()))?;
    let mut master = Master::new(transport, net, MasterConfig::default());
    let device = master
        .await_hello()
        .map_err(|e| CliError::Run(e.to_string()))?;
    println!("connected to worker {device:?} at {addr}");

    let lower = registry.spec("lower50").expect("registry").branches[0].clone();
    let upper = match mode.as_str() {
        "ha" => registry.spec("combined100").expect("registry").branches[1].clone(),
        "ht" => registry.spec("upper50").expect("registry").branches[0].clone(),
        other => return Err(CliError::Run(format!("unknown --mode {other:?} (ha|ht)"))),
    };
    let windows = {
        let net = master.engine_mut().net().clone();
        extract_branch_weights(&net, &upper)
    };
    master.deploy_local(lower);
    master
        .deploy_remote(upper, windows)
        .map_err(|e| CliError::Run(e.to_string()))?;

    let test = SynthDigits::new(7).generate(images.max(2));
    let mut meter = ThroughputMeter::new();
    let mut correct = 0.0f32;
    match mode.as_str() {
        "ha" => {
            for i in 0..images {
                let (x, labels) = test.gather(&[i % test.len()]);
                let logits = master
                    .infer_ha(&x)
                    .map_err(|e| CliError::Run(e.to_string()))?;
                correct += accuracy(&logits, &labels);
                meter.add(1);
            }
        }
        _ => {
            let mut i = 0;
            while i + 1 < images {
                let (xa, la) = test.gather(&[i % test.len()]);
                let (xb, lb) = test.gather(&[(i + 1) % test.len()]);
                let (a, b) = master
                    .infer_ht(&xa, &xb)
                    .map_err(|e| CliError::Run(e.to_string()))?;
                correct += accuracy(&a, &la) + accuracy(&b, &lb);
                meter.add(2);
                i += 2;
            }
        }
    }
    println!(
        "{} mode: {:.1} img/s, accuracy {:.1}% over {} images",
        mode.to_uppercase(),
        meter.rate(),
        correct / meter.items() as f32 * 100.0,
        meter.items()
    );
    master.shutdown_worker();
    Ok(())
}

/// Loads the serving net from `--model-file` (or builds fresh
/// paper-architecture weights — fine for load testing; answers are
/// untrained) along with its combined sub-network spec. Specs are pure
/// structure ([`standard_specs`]), so no throwaway weights are built.
fn serving_model(args: &ArgMap) -> Result<(fluid_models::ConvNet, SubnetSpec), CliError> {
    let net = match args.str_or("model-file", "") {
        "" => {
            println!("no --model-file: serving fresh (untrained) paper-architecture weights");
            FluidModel::new(Arch::paper(), &mut Prng::new(0))
                .net()
                .clone()
        }
        path => load_net_from_path(Path::new(path)).map_err(|e| CliError::Run(e.to_string()))?,
    };
    let spec = standard_specs(net.arch())
        .into_iter()
        .find(|s| s.name == "combined100")
        .expect("standard registry has combined100");
    Ok((net, spec))
}

/// Builds the scheduler config from the shared `--max-batch` /
/// `--max-wait-ms` / `--queue-cap` / `--tenants` / `--slo-ms` flags.
/// (`ServeConfig` is `#[non_exhaustive]`, hence mutation over a literal.)
fn serve_config(args: &ArgMap) -> Result<ServeConfig, CliError> {
    let mut cfg = ServeConfig::default();
    cfg.max_batch = args.usize_or("max-batch", 8)?;
    cfg.max_wait = Duration::from_millis(args.u64_or("max-wait-ms", 2)?);
    cfg.queue_cap = args.usize_or("queue-cap", 256)?;
    cfg.threads = match args.usize_or("threads", 0)? {
        0 => None,
        n => Some(n),
    };
    match args.str_or("tenants", "") {
        "" => {}
        spec => {
            let mut tenancy = TenancyConfig::new(parse_tenants(spec)?.0);
            tenancy.interactive_slo_ms = f64::from(args.f32_or("slo-ms", 50.0)?);
            cfg.tenancy = Some(tenancy);
        }
    }
    Ok(cfg)
}

/// Parses the `--tenants` table: comma-separated entries of
/// `ID:NAME:CLASS[:WEIGHT[:RATE[:BURST]]][@LAMBDA]`, where CLASS is
/// `interactive` or `batch`, RATE/BURST default to unmetered (`inf`
/// accepted), and the optional `@LAMBDA` suffix is the tenant's open-loop
/// arrival rate for `fluidctl loadgen` (ignored by `serve`). Returns the
/// policies and one `Option<f64>` lambda per entry, in order.
fn parse_tenants(spec: &str) -> Result<(Vec<TenantPolicy>, Vec<Option<f64>>), CliError> {
    let mut policies = Vec::new();
    let mut lambdas = Vec::new();
    for entry in spec.split(',') {
        let (policy_part, lambda) = match entry.split_once('@') {
            Some((p, l)) => {
                let lambda: f64 = l.parse().map_err(|_| {
                    CliError::Run(format!("bad tenant lambda {l:?} in entry {entry:?}"))
                })?;
                (p, Some(lambda))
            }
            None => (entry, None),
        };
        let fields: Vec<&str> = policy_part.split(':').collect();
        if !(3..=6).contains(&fields.len()) {
            return Err(CliError::Run(format!(
                "bad tenant entry {entry:?}: want ID:NAME:CLASS[:WEIGHT[:RATE[:BURST]]]"
            )));
        }
        let id: u64 = fields[0]
            .parse()
            .map_err(|_| CliError::Run(format!("bad tenant id {:?} in {entry:?}", fields[0])))?;
        let class = match fields[2] {
            "interactive" => TenantClass::Interactive,
            "batch" => TenantClass::Batch,
            other => {
                return Err(CliError::Run(format!(
                    "bad tenant class {other:?} (interactive|batch)"
                )))
            }
        };
        let mut policy = TenantPolicy::new(id, fields[1], class);
        if let Some(w) = fields.get(3) {
            policy.weight = w
                .parse()
                .map_err(|_| CliError::Run(format!("bad tenant weight {w:?} in {entry:?}")))?;
        }
        if let Some(r) = fields.get(4) {
            policy.rate = r
                .parse()
                .map_err(|_| CliError::Run(format!("bad tenant rate {r:?} in {entry:?}")))?;
        }
        if let Some(b) = fields.get(5) {
            policy.burst = b
                .parse()
                .map_err(|_| CliError::Run(format!("bad tenant burst {b:?} in {entry:?}")))?;
        }
        policies.push(policy);
        lambdas.push(lambda);
    }
    Ok((policies, lambdas))
}

/// Number of held-out synthetic digits used to calibrate the int8 path.
const CALIB_BATCH: usize = 64;

/// A serving engine at one precision: the factory every serving command
/// builds its backend fleet from (`--precision f32|int8`).
#[derive(Clone)]
enum ServingEngine {
    F32(Box<fluid_models::ConvNet>, SubnetSpec),
    Int8(Box<QuantizedNet>),
}

impl ServingEngine {
    /// Builds the engine, calibrating and freezing the net when `int8` is
    /// requested. Calibration uses a held-out synthetic-digit batch
    /// (disjoint seed from every loadgen input set) and prints the top-1
    /// agreement against the f32 oracle on that batch.
    fn build(
        net: &mut fluid_models::ConvNet,
        spec: &SubnetSpec,
        precision: Precision,
    ) -> Result<Self, CliError> {
        match precision {
            Precision::F32 => Ok(ServingEngine::F32(Box::new(net.clone()), spec.clone())),
            Precision::Int8 => {
                let (batch, _) = SynthDigits::new(0xCA11B)
                    .generate(CALIB_BATCH)
                    .gather(&(0..CALIB_BATCH).collect::<Vec<_>>());
                let calib = calibrate(net, spec, &batch);
                let qnet = QuantizedNet::from_net(net, spec, &calib);
                let want = net.forward_subnet(&batch, spec, false);
                let got = qnet.clone().forward(&batch);
                let agreement = fluid_models::top1_agreement(&want, &got);
                net.recycle(want);
                println!(
                    "int8 calibration: top-1 agreement {:.1}% vs f32 on {CALIB_BATCH} held-out digits",
                    agreement * 100.0
                );
                if agreement < 0.99 {
                    eprintln!(
                        "warning: int8 top-1 agreement {:.3} below the 0.99 acceptance gate — \
                         serve this model quantized only if that is acceptable",
                        agreement
                    );
                }
                Ok(ServingEngine::Int8(Box::new(qnet)))
            }
        }
    }

    /// One backend replica named `name`.
    fn backend(&self, name: &str) -> Box<dyn fluid_serve::Backend> {
        match self {
            ServingEngine::F32(net, spec) => {
                Box::new(EngineBackend::new(name, net.as_ref().clone(), spec.clone()))
            }
            ServingEngine::Int8(qnet) => Box::new(QuantBackend::new(name, qnet.as_ref().clone())),
        }
    }

    /// `count` replicas named `{prefix}{i}`.
    fn backends(&self, count: usize, prefix: &str) -> Vec<Box<dyn fluid_serve::Backend>> {
        (0..count.max(1))
            .map(|i| self.backend(&format!("{prefix}{i}")))
            .collect()
    }
}

/// Parses a `--precision`-style flag (empty = `default`).
fn parse_precision(args: &ArgMap, key: &str, default: Precision) -> Result<Precision, CliError> {
    match args.str_or(key, "") {
        "" => Ok(default),
        s => s.parse::<Precision>().map_err(CliError::Run),
    }
}

/// Boots an in-proc batching server: `workers` replicas of the net's
/// combined model at the requested `--precision`.
fn boot_server(args: &ArgMap) -> Result<Server, CliError> {
    let (mut net, spec) = serving_model(args)?;
    let workers = args.usize_or("workers", 2)?;
    let precision = parse_precision(args, "precision", Precision::F32)?;
    let engine = ServingEngine::build(&mut net, &spec, precision)?;
    let backends = engine.backends(workers, "engine");
    Server::start(serve_config(args)?, backends).map_err(|e| CliError::Run(e.to_string()))
}

/// A deterministic input set for the load-driving commands.
fn loadgen_inputs(seed: u64) -> Vec<Tensor> {
    let data = SynthDigits::new(seed).generate(64);
    (0..data.len()).map(|i| data.gather(&[i]).0).collect()
}

fn cmd_serve(args: &ArgMap) -> Result<(), CliError> {
    let listen = args.str_or("listen", "127.0.0.1:7800").to_owned();
    let duration_s = args.u64_or("duration-s", 0)?;
    let server = boot_server(args)?;
    let listener = TcpListener::bind(&listen).map_err(|e| CliError::Run(e.to_string()))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    if duration_s > 0 {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(duration_s));
            shutdown.store(true, Ordering::SeqCst);
        });
        println!(
            "serving on {listen} for {duration_s}s ({} kernel threads)...",
            fluid_tensor::pool::threads()
        );
    } else {
        println!(
            "serving on {listen} until killed ({} kernel threads, ctrl-c)...",
            fluid_tensor::pool::threads()
        );
    }
    fluid_serve::serve_tcp(listener, server.handle(), shutdown)
        .map_err(|e| CliError::Run(e.to_string()))?;
    println!("{}", server.shutdown());
    Ok(())
}

fn cmd_loadgen(args: &ArgMap) -> Result<(), CliError> {
    let requests = args.usize_or("requests", 200)?;
    let clients = args.usize_or("clients", 8)?.max(1);
    let seed = args.u64_or("seed", 42)?;
    let open_loop = args.flag("open-loop");
    let lambda = args.f32_or("lambda", 500.0)? as f64;
    // NaN must also be refused here, not left to panic in the loadgen's
    // assert — hence the is_finite check alongside the sign check.
    if open_loop && !(lambda.is_finite() && lambda > 0.0) {
        return Err(CliError::Run(format!(
            "--lambda must be a positive arrival rate, got {lambda}"
        )));
    }
    let inputs = loadgen_inputs(seed);

    match args.str_or("connect", "") {
        "" if !args.str_or("tenants", "").is_empty() => {
            // Multi-tenant open loop: one Poisson arrival thread per
            // tenant, requests split evenly unless an entry carries its
            // own `@LAMBDA` rate.
            let (policies, lambdas) = parse_tenants(args.str_or("tenants", ""))?;
            let server = boot_server(args)?;
            let share = requests / policies.len().max(1);
            let plans: Vec<loadgen::TenantLoad> = policies
                .iter()
                .zip(&lambdas)
                .map(|(p, l)| loadgen::TenantLoad {
                    tenant: p.id,
                    lambda: l.unwrap_or(lambda),
                    requests: share,
                })
                .collect();
            println!(
                "multi-tenant open loop: {} tenants × {share} requests...",
                plans.len()
            );
            let reports = loadgen::run_open_loop_tenants(&server.handle(), &plans, &inputs, seed);
            for (policy, report) in policies.iter().zip(&reports) {
                println!("tenant {:12} {report}", policy.name);
            }
            println!("{}", server.shutdown());
        }
        "" => {
            let server = boot_server(args)?;
            let report = if open_loop {
                println!("open loop: Poisson arrivals at λ = {lambda:.0} req/s...");
                loadgen::run_open_loop(&server.handle(), lambda, requests, &inputs, seed)
            } else {
                println!("closed loop: {clients} concurrent clients...");
                let handle = server.handle();
                loadgen::run_closed_loop(|_| Ok(handle.clone()), clients, requests, &inputs)
                    .map_err(|e| CliError::Run(e.to_string()))?
            };
            println!("{report}");
            println!("{}", server.shutdown());
        }
        addr => {
            if open_loop {
                return Err(CliError::Run(
                    "--open-loop is in-proc only (drop --connect)".into(),
                ));
            }
            println!("closed loop over TCP: {clients} connections to {addr}...");
            let report =
                loadgen::run_closed_loop(|_| TcpClient::connect(addr), clients, requests, &inputs)
                    .map_err(|e| CliError::Run(e.to_string()))?;
            println!("{report}");
        }
    }
    Ok(())
}

fn cmd_autoscale(args: &ArgMap) -> Result<(), CliError> {
    let (mut net, spec) = serving_model(args)?;
    let min_workers = args.usize_or("min-workers", 1)?.max(1);
    let max_workers = args.usize_or("max-workers", 4)?;
    let requests = args.usize_or("requests", 240)?.max(4);
    let lambda = args.f32_or("lambda", 400.0)? as f64;
    let seed = args.u64_or("seed", 42)?;
    if !(lambda.is_finite() && lambda > 0.0) {
        return Err(CliError::Run(format!(
            "--lambda must be a positive peak arrival rate, got {lambda}"
        )));
    }
    let mut scale_cfg = AutoscaleConfig::default();
    scale_cfg.min_workers = min_workers;
    scale_cfg.max_workers = max_workers;
    scale_cfg.tick = Duration::from_millis(args.u64_or("tick-ms", 10)?);
    scale_cfg.up_queue_depth = args.usize_or("up-queue-depth", 8)?;
    scale_cfg.up_p95_ms = f64::from(args.f32_or("up-p95-ms", 0.0)?);
    scale_cfg.down_queue_depth = args.usize_or("down-queue-depth", scale_cfg.down_queue_depth)?;
    scale_cfg.idle_ticks = args.usize_or("idle-ticks", 25)?;
    scale_cfg.cooldown_ticks = args.usize_or("cooldown-ticks", scale_cfg.cooldown_ticks)?;
    scale_cfg.retire_timeout = Duration::from_millis(args.u64_or("retire-timeout-ms", 10_000)?);

    let precision = parse_precision(args, "precision", Precision::F32)?;
    let engine = ServingEngine::build(&mut net, &spec, precision)?;
    let server = Server::start(serve_config(args)?, engine.backends(min_workers, "base"))
        .map_err(|e| CliError::Run(e.to_string()))?;
    let factory = {
        let engine = engine.clone();
        move |slot: usize| Ok(engine.backend(&format!("auto{slot}")))
    };
    let scaler = Autoscaler::spawn(server.elastic(), factory, scale_cfg)
        .map_err(|e| CliError::Run(e.to_string()))?;

    let handle = server.handle();
    let inputs = loadgen_inputs(seed);
    let calm = (lambda / 8.0).max(1.0);
    println!(
        "traffic ramp: λ {calm:.0} → {lambda:.0} → {calm:.0} req/s over {requests} requests, \
         pool {min_workers}..{max_workers} workers\n"
    );
    for (phase, (rate, share)) in [(calm, 4), (lambda, 2), (calm, 4)].iter().enumerate() {
        let n = requests / share;
        println!(
            "-- phase {}: λ = {rate:.0} req/s, {n} requests --",
            phase + 1
        );
        let report = loadgen::run_open_loop(&handle, *rate, n, &inputs, seed + phase as u64);
        println!("{report}");
        println!(
            "   workers accepting: {}, queue depth {}\n",
            server.alive_workers(),
            handle.queue_depth()
        );
    }

    let events = scaler.stop();
    println!("controller decisions ({}):", events.len());
    for e in &events {
        println!("  {e}");
    }
    println!("\n{}", server.shutdown());
    Ok(())
}

/// The two fleets `fluidctl reload` swaps between, each with its
/// precision. Every input, the replacement checkpoint included, is read
/// and validated here, before any server starts: a bad file is refused
/// up front instead of mid-traffic.
fn reload_engines(args: &ArgMap) -> Result<[(ServingEngine, Precision); 2], CliError> {
    let (mut net, spec) = serving_model(args)?;
    let precision = parse_precision(args, "precision", Precision::F32)?;
    // The fleet swapped in may run at a different precision — the f32↔int8
    // A/B recipe (`--precision f32 --new-precision int8`, or the reverse).
    let new_precision = parse_precision(args, "new-precision", precision)?;
    let v1 = ServingEngine::build(&mut net, &spec, precision)?;
    match args.str_or("new-model-file", "") {
        "" => println!("no --new-model-file: re-deploying the same weights (bit-identical swap)"),
        path => {
            fluid_models::reload_net_from_path(&mut net, Path::new(path))
                .map_err(|e| CliError::Run(e.to_string()))?;
            println!("loaded replacement weights from {path}");
        }
    }
    // Built after the optional weight reload so an int8 v2 calibrates the
    // weights it will actually serve.
    let v2 = ServingEngine::build(&mut net, &spec, new_precision)?;
    Ok([(v1, precision), (v2, new_precision)])
}

fn cmd_reload(args: &ArgMap) -> Result<(), CliError> {
    let workers = args.usize_or("workers", 2)?.max(1);
    let requests = args.usize_or("requests", 200)?.max(2);
    let clients = args.usize_or("clients", 4)?.max(1);
    let seed = args.u64_or("seed", 42)?;
    let [(v1, precision), (v2, new_precision)] = reload_engines(args)?;
    let server = Server::start(serve_config(args)?, v1.backends(workers, "v1-"))
        .map_err(|e| CliError::Run(e.to_string()))?;
    let handle = server.handle();
    let inputs = loadgen_inputs(seed);

    println!("driving {clients} closed-loop clients while swapping models...");
    let load = std::thread::spawn(move || {
        loadgen::run_closed_loop(|_| Ok(handle.clone()), clients, requests, &inputs)
    });
    // Let traffic build before the cutover, so the swap is exercised
    // under load rather than on an idle server.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    let swapped = server
        .elastic()
        .hot_swap(v2.backends(workers, "v2-"), Duration::from_secs(30))
        .map_err(|e| CliError::Run(e.to_string()));
    if swapped.is_ok() {
        println!(
            "hot swap: {workers} old {precision} slots drained and retired, \
             {workers} new {new_precision} slots live in {:.1} ms",
            t0.elapsed().as_secs_f64() * 1e3
        );
    }
    // Whatever the swap did, the load finishes and the server shuts down
    // before any error is returned.
    let report = match load.join() {
        Ok(report) => report.map_err(|e| CliError::Run(e.to_string())),
        Err(_) => Err(CliError::Run("load thread panicked".into())),
    };
    if let Ok(report) = &report {
        println!("{report}");
    }
    println!("\n{}", server.shutdown());
    swapped?;
    let report = report?;
    if report.failed > 0 {
        return Err(CliError::Run(format!(
            "{} requests failed during the swap (expected zero)",
            report.failed
        )));
    }
    Ok(())
}

fn cmd_route(args: &ArgMap) -> Result<(), CliError> {
    let (net, spec) = serving_model(args)?;
    let nodes = args.usize_or("nodes", 3)?.max(1);
    let workers = args.usize_or("workers-per-node", 1)?.max(1);
    let replication = args.usize_or("replication", 2)?.max(1);
    let routers = args.usize_or("routers", 1)?.max(1);
    let requests = args.usize_or("requests", 120)?;
    let clients = args.usize_or("clients", 4)?.max(1);
    let seed = args.u64_or("seed", 42)?;

    // The config structs are `#[non_exhaustive]`, hence mutation over
    // literals. Nodes announce themselves (Join + heartbeats), several
    // routers share membership and health over anti-entropy gossip, and
    // the clients spread over the whole router list.
    let mut cluster_cfg = DynamicClusterConfig::default();
    cluster_cfg.nodes = nodes;
    cluster_cfg.workers_per_node = workers;
    cluster_cfg.routers = routers;
    cluster_cfg.serve = serve_config(args)?;
    cluster_cfg.router.replication = replication;
    cluster_cfg.seed = seed;
    let cluster =
        DynamicCluster::boot(&net, &spec, cluster_cfg).map_err(|e| CliError::Run(e.to_string()))?;
    if !cluster.wait_converged(Duration::from_secs(30)) {
        return Err(CliError::Run(
            "routers never converged on the announced membership".into(),
        ));
    }
    let addrs: Vec<String> = cluster.router_addrs().to_vec();
    println!(
        "{routers} router(s) ({}): {nodes} announced nodes × {workers} workers, replication \
         {replication}; driving {clients} closed-loop clients across the router list...",
        addrs.join(", ")
    );
    let inputs = loadgen_inputs(seed);
    let report = loadgen::run_closed_loop(
        |i| TcpClient::connect(&addrs[i % addrs.len()]),
        clients,
        requests,
        &inputs,
    )
    .map_err(|e| CliError::Run(e.to_string()))?;
    println!("{report}");
    for i in 0..cluster.routers_len() {
        println!("{}", cluster.router(i).router().metrics());
    }
    Ok(())
}

fn cmd_drill(args: &ArgMap) -> Result<(), CliError> {
    // One drill, two schedules: `--faults` only picks which defaults the
    // other flags override. `DrillConfig` is `#[non_exhaustive]`, hence
    // mutation over a literal.
    let mut cfg = if args.flag("faults") {
        DrillConfig::faults()
    } else {
        DrillConfig::default()
    };
    cfg.nodes = args.usize_or("nodes", cfg.nodes)?;
    cfg.workers_per_node = args
        .usize_or("workers-per-node", cfg.workers_per_node)?
        .max(1);
    cfg.routers = args.usize_or("routers", cfg.routers)?;
    cfg.replication = args.usize_or("replication", cfg.replication)?;
    cfg.lambda = f64::from(args.f32_or("lambda", cfg.lambda as f32)?);
    cfg.requests = args.usize_or("requests", cfg.requests)?;
    cfg.concurrency = args.usize_or("concurrency", cfg.concurrency)?.max(1);
    cfg.kill_router &= !args.flag("no-kill");
    cfg.join_node &= !args.flag("no-join");
    if args.flag("no-partition") {
        cfg.partition = None;
    }
    cfg.drop_p = f64::from(args.f32_or("drop-p", cfg.drop_p as f32)?);
    cfg.duplicate_p = f64::from(args.f32_or("duplicate-p", cfg.duplicate_p as f32)?);
    cfg.kill_cycles = args.usize_or("kill-cycles", cfg.kill_cycles)?;
    cfg.rolling_swap &= !args.flag("no-swap");
    cfg.chaos_pause =
        Duration::from_millis(args.u64_or("kill-pause-ms", cfg.chaos_pause.as_millis() as u64)?);
    cfg.seed = args.u64_or("seed", cfg.seed)?;
    cfg.serve = serve_config(args)?;
    // `run_drill` panics on a config its redundancy cannot cover; the CLI
    // refuses the same configs as flag errors instead.
    cfg.check()
        .map_err(|why| CliError::Run(format!("drill config refused: {why}")))?;
    let (net, spec) = serving_model(args)?;

    println!(
        "drill: {} announced nodes × {} workers behind {} router(s), replication {}, \
         λ = {:.0} req/s, {} requests...",
        cfg.nodes, cfg.workers_per_node, cfg.routers, cfg.replication, cfg.lambda, cfg.requests
    );
    let report = run_drill(&net, &spec, cfg).map_err(|e| CliError::Run(e.to_string()))?;
    println!("{report}");
    if !report.passed() {
        return Err(CliError::Run(
            "drill FAILED: admitted traffic was dropped, refused downstream, answered with \
             non-oracle logits, or the routers never re-converged (see report above)"
                .into(),
        ));
    }
    Ok(())
}

fn cmd_fig2(args: &ArgMap) -> Result<(), CliError> {
    let system = SystemModel::paper_testbed();
    println!("{}", format_throughput_table(&system.fig2_table()));
    let (train_n, test_n) = if args.flag("quick") {
        (800, 300)
    } else {
        (3000, 1000)
    };
    let mut fig = Fig2Accuracy::train(Arch::paper(), train_n, test_n, 1, 2024);
    println!("{}", format_accuracy_table(&fig.table()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_runs() {
        run(&argv(&["help"])).expect("help");
        run(&[]).expect("no args = help");
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn eval_requires_model_file() {
        let err = run(&argv(&["eval"])).expect_err("missing flag");
        assert!(err.to_string().contains("model-file"), "{err}");
    }

    #[test]
    fn master_requires_connect() {
        let err = run(&argv(&["master", "--model-file", "x.fldn"])).expect_err("missing flag");
        assert!(err.to_string().contains("connect"), "{err}");
    }

    #[test]
    fn train_rejects_unknown_family() {
        let err = run(&argv(&["train", "--model", "quantum", "--train-n", "10"]))
            .expect_err("bad family");
        assert!(err.to_string().contains("unknown --model"), "{err}");
    }

    #[test]
    fn loadgen_rejects_open_loop_over_tcp() {
        let err = run(&argv(&[
            "loadgen",
            "--connect",
            "127.0.0.1:1",
            "--open-loop",
        ]))
        .expect_err("open loop needs in-proc");
        assert!(err.to_string().contains("in-proc"), "{err}");
    }

    #[test]
    fn loadgen_closed_loop_inproc_serves_and_batches() {
        run(&argv(&[
            "loadgen",
            "--requests",
            "12",
            "--clients",
            "4",
            "--workers",
            "1",
            "--max-batch",
            "8",
            "--seed",
            "5",
        ]))
        .expect("in-proc loadgen");
    }

    #[test]
    fn tenants_spec_parses_policies_quotas_and_lambdas() {
        let (policies, lambdas) =
            parse_tenants("1:web:interactive:2@200,2:etl:batch:1:50:10@400,3:ops:batch")
                .expect("parse");
        assert_eq!(policies.len(), 3);
        assert_eq!(policies[0].id, 1);
        assert_eq!(policies[0].name, "web");
        assert_eq!(policies[0].class, TenantClass::Interactive);
        assert_eq!(policies[0].weight, 2);
        assert!(policies[0].rate.is_infinite(), "default is unmetered");
        assert_eq!(policies[1].rate, 50.0);
        assert_eq!(policies[1].burst, 10.0);
        assert_eq!(lambdas, vec![Some(200.0), Some(400.0), None]);
    }

    #[test]
    fn tenants_spec_rejects_malformed_entries() {
        for bad in [
            "1:web",                     // too few fields
            "x:web:interactive",         // bad id
            "1:web:premium",             // bad class
            "1:web:interactive:heavy",   // bad weight
            "1:web:interactive:1:fast",  // bad rate
            "1:web:interactive@quickly", // bad lambda
        ] {
            assert!(parse_tenants(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn loadgen_with_tenants_reports_each_tenant() {
        run(&argv(&[
            "loadgen",
            "--requests",
            "12",
            "--workers",
            "1",
            "--tenants",
            "1:web:interactive:2@300,2:etl:batch@300",
            "--seed",
            "5",
        ]))
        .expect("tenant loadgen");
    }

    #[test]
    fn serve_rejects_a_duplicate_tenant_table() {
        let err = run(&argv(&[
            "loadgen",
            "--requests",
            "1",
            "--tenants",
            "1:web:interactive,1:dup:batch",
        ]))
        .expect_err("duplicate tenant ids");
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn explicit_zero_threads_is_rejected() {
        let err = run(&argv(&["eval", "--threads", "0"])).expect_err("0 threads is invalid");
        assert!(err.to_string().contains("threads"), "{err}");
    }

    #[test]
    fn serve_rejects_bad_knobs() {
        let err = run(&argv(&["serve", "--max-batch", "zero"])).expect_err("bad integer");
        assert!(err.to_string().contains("max-batch"), "{err}");
    }

    #[test]
    fn loadgen_rejects_non_positive_lambda() {
        let err = run(&argv(&["loadgen", "--open-loop", "--lambda", "0"]))
            .expect_err("lambda must be positive");
        assert!(err.to_string().contains("lambda"), "{err}");
        let err = run(&argv(&["loadgen", "--open-loop", "--lambda", "-3"]))
            .expect_err("lambda must be positive");
        assert!(err.to_string().contains("lambda"), "{err}");
        let err = run(&argv(&["loadgen", "--open-loop", "--lambda", "NaN"]))
            .expect_err("NaN is not a rate");
        assert!(err.to_string().contains("lambda"), "{err}");
    }

    #[test]
    fn autoscale_rejects_non_positive_lambda() {
        let err = run(&argv(&["autoscale", "--lambda", "0"])).expect_err("lambda must be positive");
        assert!(err.to_string().contains("lambda"), "{err}");
    }

    #[test]
    fn autoscale_rejects_inverted_worker_bounds() {
        let err = run(&argv(&[
            "autoscale",
            "--min-workers",
            "3",
            "--max-workers",
            "1",
            "--requests",
            "4",
        ]))
        .expect_err("max below min");
        assert!(err.to_string().contains("min_workers"), "{err}");
    }

    #[test]
    fn autoscale_demo_runs_in_proc() {
        run(&argv(&[
            "autoscale",
            "--requests",
            "16",
            "--lambda",
            "200",
            "--min-workers",
            "1",
            "--max-workers",
            "2",
            "--tick-ms",
            "5",
            "--seed",
            "7",
        ]))
        .expect("autoscale demo");
    }

    #[test]
    fn reload_hot_swaps_under_load() {
        run(&argv(&[
            "reload",
            "--workers",
            "1",
            "--requests",
            "16",
            "--clients",
            "2",
            "--seed",
            "9",
        ]))
        .expect("reload demo");
    }

    #[test]
    fn loadgen_serves_int8_in_proc() {
        run(&argv(&[
            "loadgen",
            "--requests",
            "12",
            "--clients",
            "4",
            "--workers",
            "1",
            "--precision",
            "int8",
            "--seed",
            "5",
        ]))
        .expect("in-proc int8 loadgen");
    }

    #[test]
    fn serve_rejects_unknown_precision() {
        let err = run(&argv(&[
            "loadgen",
            "--requests",
            "4",
            "--precision",
            "fp16",
        ]))
        .expect_err("bad precision");
        assert!(err.to_string().contains("precision"), "{err}");
    }

    #[test]
    fn reload_swaps_f32_fleet_for_int8_under_load() {
        // The A/B recipe: boot f32, hot-swap an int8 fleet in under live
        // closed-loop traffic, zero failures expected.
        run(&argv(&[
            "reload",
            "--workers",
            "1",
            "--requests",
            "16",
            "--clients",
            "2",
            "--precision",
            "f32",
            "--new-precision",
            "int8",
            "--seed",
            "9",
        ]))
        .expect("f32 -> int8 hot swap");
    }

    #[test]
    fn reload_refuses_a_corrupt_new_model_file_before_serving() {
        let path =
            std::env::temp_dir().join(format!("fluidctl_corrupt_{}.fldn", std::process::id()));
        std::fs::write(&path, b"FLDN not a checkpoint").expect("write");
        let path_s = path.to_string_lossy().to_string();
        let args = ArgMap::parse(argv(&["--new-model-file", &path_s])).expect("args");
        let err = reload_engines(&args).err().expect("corrupt checkpoint");
        assert!(err.to_string().contains("checkpoint"), "{err}");
        // A server could not even start under `--max-batch 0`, so an error
        // about the file shows it was read before any server was built.
        let err = run(&argv(&[
            "reload",
            "--new-model-file",
            &path_s,
            "--max-batch",
            "0",
        ]))
        .expect_err("corrupt checkpoint");
        assert!(err.to_string().contains("checkpoint"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reload_rejects_missing_new_model_file() {
        let err = run(&argv(&[
            "reload",
            "--new-model-file",
            "/nonexistent/path.fldn",
            "--requests",
            "4",
        ]))
        .expect_err("missing checkpoint");
        assert!(err.to_string().contains("checkpoint"), "{err}");
    }

    #[test]
    fn route_shards_closed_loop_traffic_across_a_cluster() {
        run(&argv(&[
            "route",
            "--nodes",
            "2",
            "--workers-per-node",
            "1",
            "--requests",
            "8",
            "--clients",
            "2",
            "--seed",
            "5",
        ]))
        .expect("route demo");
    }

    #[test]
    fn drill_quiet_run_passes() {
        run(&argv(&[
            "drill",
            "--nodes",
            "2",
            "--kill-cycles",
            "0",
            "--no-swap",
            "--lambda",
            "120",
            "--requests",
            "8",
            "--concurrency",
            "4",
            "--seed",
            "7",
        ]))
        .expect("quiet drill");
    }

    #[test]
    fn route_spreads_clients_across_replicated_routers() {
        run(&argv(&[
            "route",
            "--nodes",
            "2",
            "--routers",
            "2",
            "--workers-per-node",
            "1",
            "--requests",
            "8",
            "--clients",
            "2",
            "--seed",
            "5",
        ]))
        .expect("replicated-router route demo");
    }

    #[test]
    fn drill_faults_quiet_run_passes() {
        run(&argv(&[
            "drill",
            "--faults",
            "--nodes",
            "2",
            "--routers",
            "2",
            "--no-kill",
            "--no-join",
            "--no-partition",
            "--drop-p",
            "0",
            "--duplicate-p",
            "0",
            "--lambda",
            "120",
            "--requests",
            "8",
            "--concurrency",
            "4",
            "--seed",
            "7",
        ]))
        .expect("quiet membership drill");
    }

    #[test]
    fn drill_faults_refuses_to_kill_the_only_router() {
        let err = run(&argv(&["drill", "--faults", "--routers", "1"]))
            .expect_err("killing the only router");
        assert!(err.to_string().contains("routers"), "{err}");
    }

    #[test]
    fn drill_faults_refuses_a_partition_at_replication_one() {
        let err = run(&argv(&[
            "drill",
            "--faults",
            "--no-kill",
            "--replication",
            "1",
        ]))
        .expect_err("partition at replication 1");
        assert!(err.to_string().contains("replication"), "{err}");
    }

    #[test]
    fn drill_rejects_out_of_range_probabilities() {
        // Fault flags are validated on every invocation, not only under
        // `--faults`.
        for argv in [
            argv(&["drill", "--faults", "--drop-p", "1.5"]),
            argv(&["drill", "--drop-p", "1.5"]),
        ] {
            let err = run(&argv).expect_err("probability above 1");
            assert!(err.to_string().contains("drop_p"), "{err}");
        }
        let err = run(&argv(&["drill", "--routers", "0"])).expect_err("no router at all");
        assert!(err.to_string().contains("routers"), "{err}");
    }

    #[test]
    fn drill_rejects_single_node_clusters() {
        let err = run(&argv(&["drill", "--nodes", "1"])).expect_err("one node is not a cluster");
        assert!(err.to_string().contains("nodes"), "{err}");
    }

    #[test]
    fn drill_rejects_chaos_at_replication_one() {
        let err = run(&argv(&[
            "drill",
            "--replication",
            "1",
            "--kill-cycles",
            "1",
        ]))
        .expect_err("replication 1 under chaos");
        assert!(err.to_string().contains("replication"), "{err}");
    }

    #[test]
    fn drill_rejects_non_positive_lambda() {
        let err = run(&argv(&["drill", "--lambda", "0"])).expect_err("lambda must be positive");
        assert!(err.to_string().contains("lambda"), "{err}");
    }

    #[test]
    fn train_eval_roundtrip_via_files() {
        let dir = std::env::temp_dir().join("fluidctl_test");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let out = dir.join("tiny.fldn");
        let out_s = out.to_string_lossy().to_string();
        run(&argv(&[
            "train",
            "--model",
            "fluid",
            "--train-n",
            "200",
            "--epochs",
            "1",
            "--iters",
            "1",
            "--seed",
            "3",
            "--out",
            &out_s,
        ]))
        .expect("train");
        run(&argv(&[
            "eval",
            "--model-file",
            &out_s,
            "--subnet",
            "lower50",
            "--test-n",
            "50",
        ]))
        .expect("eval");
        let _ = std::fs::remove_file(&out);
    }
}
