//! One workload, start to finish: repeated set-up, the load phases, the
//! count cross-check, and the metrics of an untraced or a traced run.

use crate::json::Json;
use crate::ladder;
use crate::load::{self, LoadResult, Phase, PhaseKind, PhaseResult};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{self, median, percentile_sorted, quiet, Better};
use crate::sut::{Client, ClientKind, Fixture, ServerSide, System, Topology, BURST_MAX_BATCH};
use crate::trace::{self, Record};
use crate::workloads::{Load, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups timed before the load and again after it, a whole window
/// apart, so that one episode of interference cannot cover them all;
/// `setup_s` is read off their quiet end like every other metric.
const SETUPS_EACH_END: usize = 3;
/// Warm-up before the first measured phase.
const WARM_UP_S: f64 = 1.0;
/// A run is measured in slices of this length, and each end-to-end metric
/// is read off the quiet end of its slices (`stats::quiet`).
const SLICE_S: f64 = 0.5;
/// A run whose generator's p95 lateness exceeds this is invalid.
const MAX_LATENESS_P95_MS: f64 = 1.0;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes `trace-<workload>.json`.
    pub trace_dir: std::path::PathBuf,
}

/// What a run prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The per-block values each end-to-end metric was read from, for
    /// `compare`.
    pub slices: BTreeMap<&'static str, Vec<f64>>,
    /// Each end-to-end metric over the whole measured window, disturbed
    /// blocks and all: verified replies ÷ the window, p50 and p95 pooled
    /// over every sample, CPU time ÷ verified replies, the median set-up.
    /// What a user of the run saw; `compare` holds it to the same bounds.
    pub whole: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    let m = [
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ];
                    (name, Json::obj(m))
                })),
            ),
        ])
    }

    /// The per-block and whole-window values as one JSON object.
    pub fn detail_json(&self) -> Json {
        let slices = self
            .slices
            .iter()
            .map(|(name, xs)| (*name, Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())));
        let whole = self.whole.iter().map(|(name, &x)| (*name, Json::Num(x)));
        Json::obj([("slices", Json::obj(slices)), ("whole", Json::obj(whole))])
    }
}

/// A booted system with its connected clients, one verified reply in.
struct Live {
    system: System,
    clients: Vec<Client>,
}

/// Seed → data, model, (calibration,) oracle, boot, convergence, connect,
/// first verified reply; returns how long that took.
fn set_up(w: &Workload, seed: u64) -> Result<(Fixture, Live, f64), String> {
    let t0 = Instant::now();
    let int8 = matches!(w.topology, Topology::InProc { int8: true });
    let fx = Fixture::new(seed, int8);
    let mut system = System::boot(&fx, w.topology, seed)?;
    let mut clients = (0..w.load.clients())
        .map(|k| system.client(k, w.client))
        .collect::<Result<Vec<_>, _>>()?;
    clients[0].connect()?;
    let reply = clients[0].infer(&fx, 0)?;
    if !fx.verify(0, &reply) {
        return Err("the first reply differs from the oracle".into());
    }
    clients[0].disconnect();
    Ok((fx, Live { system, clients }, t0.elapsed().as_secs_f64()))
}

/// Shuts the system down and holds every server-side counter against the
/// number of replies the clients verified: a lost or double-served request
/// cannot hide behind a good latency.
fn tear_down(live: Live, verified: u64) -> Result<ServerSide, String> {
    let side = live.system.shutdown(live.clients)?;
    for (name, served) in &side.served {
        if *served != verified {
            return Err(format!(
                "count cross-check: clients verified {verified} replies, {name} = {served}"
            ));
        }
    }
    Ok(side)
}

fn pooled_sorted(phases: &[&PhaseResult], f: fn(&PhaseResult) -> &Vec<f64>) -> Vec<f64> {
    let mut all: Vec<f64> = phases.iter().flat_map(|p| f(p).iter().copied()).collect();
    stats::sort(&mut all);
    all
}

/// Runs the load and reports the first failure any client saw.
fn drive(args: &Args, fx: &Fixture, live: &mut Live, phases: &[Phase]) -> LoadResult {
    let w = args.workload;
    let result = load::drive(fx, &mut live.clients, w.load, phases, args.seed);
    if let Some(why) = &result.first_failure {
        eprintln!("fluidbench: {}: {why}", w.name);
    }
    result
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut setups = Vec::with_capacity(2 * SETUPS_EACH_END);
    let (fx, mut live) = loop {
        let (fx, live, secs) = set_up(w, args.seed)?;
        setups.push(secs);
        if setups.len() == SETUPS_EACH_END {
            break (fx, live);
        }
        tear_down(live, 1)?;
    };

    let slices = (args.seconds / SLICE_S).round().max(1.0) as usize;
    let mut phases = vec![Phase {
        kind: PhaseKind::WarmUp,
        seconds: WARM_UP_S,
    }];
    phases.extend((0..slices).map(|_| Phase {
        kind: PhaseKind::Measured,
        seconds: args.seconds / slices as f64,
    }));
    let result = drive(args, &fx, &mut live, &phases);
    tear_down(live, 1 + result.verified)?;
    for _ in 0..SETUPS_EACH_END {
        let (_, live, secs) = set_up(w, args.seed)?;
        setups.push(secs);
        tear_down(live, 1)?;
    }

    let measured: Vec<&PhaseResult> = result
        .phases
        .iter()
        .filter(|p| p.kind == PhaseKind::Measured)
        .collect();
    let samples: usize = measured.iter().map(|p| p.latencies_ms.len()).sum();
    check_validity(w, &measured, samples)?;
    let rss_mb = match measured.last().map(|p| p.vm_hwm_kb) {
        Some(kb) if kb > 0 => kb as f64 / 1024.0,
        _ => return Err("VmHWM was not readable at the end of the load".into()),
    };

    let blocks = blocks_of(&measured);
    let per_block = |f: &dyn Fn(&Block) -> f64| -> Vec<f64> { blocks.iter().map(f).collect() };
    let throughput = match w.load {
        // An open loop completes what arrives: a block's rate is the luck
        // of its arrivals, not the system's doing, so no block is "quiet".
        Load::Open { .. } => vec![Block::merge(&measured).throughput_rps()],
        Load::Burst { .. } | Load::Closed { .. } => per_block(&Block::throughput_rps),
    };
    let cpu = per_block(&|b| b.cpu_ms / b.verified.max(1) as f64);
    let p50 = per_block(&|b| percentile_sorted(&b.latencies_ms, 0.50));
    let p95 = per_block(&|b| percentile_sorted(&b.latencies_ms, 0.95));
    eprintln!(
        "fluidbench: {}: {samples} samples in {} slices, {} blocks, the smallest of {} samples",
        w.name,
        measured.len(),
        blocks.len(),
        blocks
            .iter()
            .map(|b| b.latencies_ms.len())
            .min()
            .unwrap_or(0),
    );
    let values = [
        quiet(&setups, Better::Lower),
        quiet(&throughput, Better::Higher),
        quiet(&p50, Better::Lower),
        quiet(&p95, Better::Lower),
        quiet(&cpu, Better::Lower),
        rss_mb,
    ];
    let window = Block::merge(&measured);
    let whole = [
        median(&setups),
        window.throughput_rps(),
        percentile_sorted(&window.latencies_ms, 0.50),
        percentile_sorted(&window.latencies_ms, 0.95),
        window.cpu_ms / window.verified.max(1) as f64,
        rss_mb,
    ];
    let slices = BTreeMap::from([
        ("setup_s", setups),
        ("throughput_rps", throughput),
        ("latency_p50_ms", p50),
        ("latency_p95_ms", p95),
        ("cpu_ms_per_req", cpu),
        ("peak_rss_mb", vec![rss_mb]),
    ]);
    let attempted: u64 = measured.iter().map(|p| p.attempted).sum();
    let verified: u64 = measured.iter().map(|p| p.verified).sum();
    Ok(Outcome {
        correct: result.attempted == result.verified,
        attempted,
        failed: attempted - verified,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect(),
        slices,
        whole: END_TO_END
            .iter()
            .zip(whole)
            .map(|(&(name, _), value)| (name, value))
            .collect(),
    })
}

/// A p95 needs [`stats::MIN_TAIL`] samples beyond it: this many in all.
const BLOCK_SAMPLES: usize = 200;

/// Consecutive slices taken together: the unit every per-run metric is
/// computed on, large enough that its p95 keeps ten samples beyond it and
/// that one request more or less does not move its rate.
struct Block {
    seconds: f64,
    verified: u64,
    cpu_ms: f64,
    /// Sorted.
    latencies_ms: Vec<f64>,
}

impl Block {
    fn merge(slices: &[&PhaseResult]) -> Block {
        Block {
            seconds: slices.iter().map(|p| p.seconds).sum(),
            verified: slices.iter().map(|p| p.verified).sum(),
            cpu_ms: slices.iter().map(|p| p.cpu_ms).sum(),
            latencies_ms: pooled_sorted(slices, |p| &p.latencies_ms),
        }
    }

    fn throughput_rps(&self) -> f64 {
        self.verified as f64 / self.seconds
    }
}

/// Groups consecutive slices into blocks of about [`BLOCK_SAMPLES`] samples
/// or more; the last block takes the remainder. 20 req/s make one block of
/// the whole run, 300 req/s one block per second, 8 000 req/s one per slice.
fn blocks_of(slices: &[&PhaseResult]) -> Vec<Block> {
    let samples: usize = slices.iter().map(|p| p.latencies_ms.len()).sum();
    let per_block = (BLOCK_SAMPLES * slices.len()).div_ceil(samples.max(1));
    let blocks = (slices.len() / per_block).max(1);
    (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                slices.len()
            } else {
                (b + 1) * per_block
            };
            Block::merge(&slices[b * per_block..end])
        })
        .collect()
}

/// Open-loop hygiene and the sample-count rule; a violation invalidates the
/// run (non-zero exit, no result line).
fn check_validity(w: &Workload, measured: &[&PhaseResult], samples: usize) -> Result<(), String> {
    match w.load {
        Load::Open { .. } => {
            let lateness = pooled_sorted(measured, |p| &p.lateness_ms);
            let p95 = percentile_sorted(&lateness, 0.95);
            eprintln!("fluidbench: {}: generator lateness p95 {p95:.4} ms", w.name);
            if p95 > MAX_LATENESS_P95_MS {
                return Err(format!(
                    "invalid run: the generator's p95 lateness is {p95:.3} ms (limit {MAX_LATENESS_P95_MS} ms)"
                ));
            }
        }
        Load::Burst { .. } | Load::Closed { .. } => {
            let beyond = stats::samples_beyond(samples, 0.95);
            if beyond < stats::MIN_TAIL {
                return Err(format!(
                    "invalid run: {samples} samples leave {beyond} beyond the p95 (need {}); run longer",
                    stats::MIN_TAIL
                ));
            }
        }
    }
    Ok(())
}

fn run_traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let (fx, mut live, _) = set_up(w, args.seed)?;
    // Half the time on the workload, tracing off and on in alternate
    // slices (half-length ones, to have enough of each) so the two see the
    // same drift; the other half on the ladder.
    let slice_s = SLICE_S / 2.0;
    let slices = (args.seconds / 2.0 / slice_s).round().max(2.0) as usize;
    let mut phases = vec![Phase {
        kind: PhaseKind::WarmUp,
        seconds: WARM_UP_S / 2.0,
    }];
    phases.extend((0..slices).map(|i| Phase {
        kind: [PhaseKind::Measured, PhaseKind::Traced][i % 2],
        seconds: slice_s,
    }));
    let result = drive(args, &fx, &mut live, &phases);
    let side = tear_down(live, 1 + result.verified)?;

    // Pooled over every slice after the warm-up, like the server's own p50.
    let after_warm_up: Vec<&PhaseResult> = result.phases[1..].iter().collect();
    let client_p50 = percentile_sorted(&pooled_sorted(&after_warm_up, |p| &p.latencies_ms), 0.50);
    let mut values = workload_metrics(&result, &side, client_p50)?;
    print_spans(w, &result.records);
    let rungs = ladder::run(&fx, args.seed, Duration::from_secs_f64(args.seconds / 2.0))?;
    print_shares(w, &after_warm_up, client_p50, &rungs);
    values.extend(rungs);

    let path = args.trace_dir.join(format!("trace-{}.json", w.name));
    let header = Json::obj([
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Num(args.seed as f64)),
        (
            "per_layer",
            Json::obj(values.iter().map(|(k, &v)| (k.as_str(), Json::Num(v)))),
        ),
    ]);
    trace::write_trace(&path, &header, &result.records)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "fluidbench: {}: {} traced requests written to {}",
        w.name,
        result.records.len(),
        path.display()
    );

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            Ok((name, value, unit))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let in_phases = |f: fn(&PhaseResult) -> u64| result.phases[1..].iter().map(f).sum::<u64>();
    let attempted = in_phases(|p| p.attempted);
    Ok(Outcome {
        correct: result.attempted == result.verified,
        attempted,
        failed: attempted - in_phases(|p| p.verified),
        metrics,
        slices: BTreeMap::new(),
        whole: BTreeMap::new(),
    })
}

/// The per-layer metrics that describe the workload that just ran (the
/// rest come from the ladder).
fn workload_metrics(
    result: &LoadResult,
    side: &ServerSide,
    client_p50: f64,
) -> Result<BTreeMap<String, f64>, String> {
    let of_kind =
        |kind| -> Vec<&PhaseResult> { result.phases.iter().filter(|p| p.kind == kind).collect() };
    let (plain, traced) = (of_kind(PhaseKind::Measured), of_kind(PhaseKind::Traced));
    let requests: u64 = traced.iter().map(|p| p.verified).sum();
    if requests == 0 || result.records.is_empty() {
        return Err("the traced phases saw no verified reply".into());
    }
    // Each traced block against the untraced block it alternated with: the
    // two share whatever state the host was in, so their ratio does not.
    // By p50 latency, not by rate: in a closed loop the two are one number,
    // and a rate set by the schedule (tcp_open_batched) or by a sleep
    // (tcp_reconnect) says nothing about the cost of tracing.
    let p50 = |b: &Block| percentile_sorted(&b.latencies_ms, 0.50);
    let ratios: Vec<f64> = blocks_of(&plain)
        .iter()
        .zip(&blocks_of(&traced))
        .filter(|(p, t)| !p.latencies_ms.is_empty() && !t.latencies_ms.is_empty())
        .map(|(p, t)| p50(t) / p50(p))
        .collect();
    if ratios.is_empty() {
        return Err("the untraced phases saw no reply".into());
    }
    let per_req = |f: fn(&PhaseResult) -> u64| {
        traced.iter().map(|p| f(p)).sum::<u64>() as f64 / requests as f64
    };
    let p95_ms = |f: fn(&Record) -> u64| {
        let mut v: Vec<f64> = result.records.iter().map(|r| f(r) as f64 / 1e6).collect();
        stats::sort(&mut v);
        percentile_sorted(&v, 0.95)
    };

    let serve = side.serve.clone().unwrap_or_default();
    let router = side.router.clone().unwrap_or_default();
    let pairs = [
        ("trace.overhead_share", median(&ratios) - 1.0),
        ("client.slot_wait_p95_ms", p95_ms(Record::slot_wait_ns)),
        ("client.lateness_p95_ms", p95_ms(Record::lateness_ns)),
        ("alloc.count_per_req", per_req(|p| p.allocations)),
        ("alloc.bytes_per_req", per_req(|p| p.allocated_bytes)),
        ("proc.ctx_switches_per_req", per_req(|p| p.ctx_switches)),
        (
            "proc.threads_peak",
            result.phases.iter().map(|p| p.threads).max().unwrap_or(0) as f64,
        ),
        ("serve.mean_batch_requests", serve.mean_batch_requests),
        ("serve.batches", serve.batches as f64),
        ("serve.shed", serve.shed as f64),
        ("serve.failed", serve.failed as f64),
        ("serve.retried", serve.retried as f64),
        // A share, not a time: with no serving tier in the path (pair_ha)
        // it is 0, and a time that reads 0 on every run looks hard-coded.
        ("serve.server_p50_share", serve.p50_ms / client_p50),
        ("serve.outside_self_ms", client_p50 - serve.p50_ms),
        ("router.admitted", router.admitted as f64),
        ("router.completed", router.completed as f64),
        ("router.shed", router.shed as f64),
        ("router.rejected", router.rejected as f64),
        ("router.retries", router.retries as f64),
        ("router.node_deaths", router.node_deaths as f64),
        ("router.node_spread", router.node_spread),
    ];
    Ok(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Prints the median duration of each client-side span and of the root's
/// self time (what the children leave uncovered; zero by construction, so
/// anything else means a span went missing).
fn print_spans(w: &Workload, records: &[Record]) {
    let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in records {
        let (root, children) = r.spans();
        let self_ns = trace::self_time_ns(&root, &children);
        durations
            .entry("request self")
            .or_default()
            .push(self_ns as f64 / 1e6);
        for s in std::iter::once(&root).chain(&children) {
            let ms = (s.end - s.start) as f64 / 1e6;
            durations.entry(s.name).or_default().push(ms);
        }
    }
    eprintln!(
        "fluidbench: {}: median span durations over {} traced requests",
        w.name,
        records.len()
    );
    for (name, ms) in &durations {
        eprintln!("  {:>10.5} ms  {name} ({} spans)", median(ms), ms.len());
    }
}

/// Prints where the workload's p50 (for a burst: the time of one burst)
/// goes, from the ladder rungs its topology contains. Stderr only: the
/// README's "share of p50 by layer" tables are these lines.
fn print_shares(w: &Workload, slices: &[&PhaseResult], p50: f64, rungs: &BTreeMap<String, f64>) {
    let r = |name: &str| rungs.get(name).copied().unwrap_or(f64::NAN);
    let backend_self_b1 = r("serve.backend.infer_batch_b1_ms") - r("models.forward_b1_ms");
    let node_b1 = [
        ("models: forward_subnet b1", r("models.forward_b1_ms")),
        ("serve.backend self b1", backend_self_b1),
        (
            "serve.sched hand-off self",
            r("serve.sched.handoff_self_ms"),
        ),
        ("serve.tcp hop self", r("serve.tcp.hop_self_ms")),
    ];
    let (whole, label, parts): (f64, &str, Vec<(&str, f64)>) = match (w.topology, w.load) {
        (Topology::InProc { int8 }, Load::Burst { size }) => {
            let blocks: Vec<f64> = blocks_of(slices)
                .iter()
                .map(Block::throughput_rps)
                .collect();
            let rps = quiet(&blocks, Better::Higher);
            let batches = (size / BURST_MAX_BATCH) as f64;
            let (fwd, backend) = if int8 {
                (
                    "models.qforward_b16_ms",
                    "serve.backend.q_infer_batch_b16_ms",
                )
            } else {
                ("models.forward_b16_ms", "serve.backend.infer_batch_b16_ms")
            };
            let parts = vec![
                ("models: forward b16 x batches", batches * r(fwd)),
                (
                    "serve.backend self x batches",
                    batches * (r(backend) - r(fwd)),
                ),
            ];
            (size as f64 * 1e3 / rps, "one burst", parts)
        }
        (Topology::Tcp { batched: true }, _) => {
            let mut parts = vec![("serve.sched window self", r("serve.sched.window_self_ms"))];
            parts.extend([node_b1[0], node_b1[1], node_b1[3]]);
            (p50, "p50", parts)
        }
        (Topology::Tcp { batched: false }, _) if w.client == ClientKind::Reconnect => {
            let parts = vec![
                ("serve.tcp connect", r("serve.tcp.connect_ms")),
                (
                    "serve.tcp accept wait (first reply - connect - kept-connection call)",
                    r("serve.tcp.first_reply_ms")
                        - r("serve.tcp.connect_ms")
                        - node_b1.iter().map(|p| p.1).sum::<f64>(),
                ),
                ("kept-connection call", node_b1.iter().map(|p| p.1).sum()),
            ];
            (p50, "p50", parts)
        }
        (Topology::Tcp { .. }, _) => (p50, "p50", node_b1.to_vec()),
        (Topology::Cluster, _) => {
            let mut parts = node_b1.to_vec();
            parts.push(("router infer self", r("router.infer_self_ms")));
            parts.push(("router front self", r("router.front_self_ms")));
            (p50, "p50", parts)
        }
        (Topology::Pair, _) => {
            let parts = vec![
                (
                    "dist.master local half (lower50 b1)",
                    r("dist.master.local_call_ms"),
                ),
                ("dist.master comm self", r("dist.master.comm_self_ms")),
            ];
            (p50, "p50", parts)
        }
        (Topology::InProc { .. }, _) => return,
    };
    eprintln!(
        "fluidbench: {}: share of {label} ({whole:.4} ms) by layer",
        w.name
    );
    let mut rest = whole;
    for (name, ms) in parts {
        rest -= ms;
        eprintln!("  {:>6.1}%  {ms:>8.4} ms  {name}", 100.0 * ms / whole);
    }
    eprintln!(
        "  {:>6.1}%  {rest:>8.4} ms  (rest: queueing behind the other client, generator, unmeasured)",
        100.0 * rest / whole
    );
}
