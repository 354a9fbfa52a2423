//! The ladder: the time of each public entry point, inner to outer, and the
//! self times between rungs. The calls themselves live in `sut.rs`; this
//! file owns the timing loop and the subtraction table.
//!
//! A rung's time is read off the quiet end of its calls, like the
//! end-to-end metrics (`stats::quiet`): two rungs are subtracted from each
//! other, and a rung timed during an episode of interference would make
//! its neighbour's self time negative.

use crate::stats::{median, quiet, Better};
use crate::sut::{self, Fixture};
use crate::trace::rung_self;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A rung runs at least this often per round, whatever its time cap says.
const MIN_ITERS: usize = 5;
/// Share of a rung's calls discarded as warm-up in each round (50 of 400).
const WARM_UP_SHARE: usize = 8;
/// Timed rungs in the ladder, for splitting the budget.
const RUNGS: u32 = 48;
/// The ladder is run this many times over, a couple of seconds apart, and
/// a rung's calls are pooled: a rung lasts a tenth of a second, an episode
/// of interference several, so one pass could time a whole rung inside one.
const ROUNDS: u32 = 3;

/// Receives the ladder's measurements from `sut::run_ladder`. Names are the
/// per-layer metric names of `BENCHMARK.json`; a name starting with `_` is
/// scratch that only the ladder's own arithmetic reads. The ladder is run in
/// several rounds and a name's measurements are pooled over them.
pub struct Timer {
    /// Time cap per rung and round.
    cap: Duration,
    /// Call durations per timed rung, ms, warm-up calls dropped.
    calls: BTreeMap<&'static str, Vec<f64>>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    facts: BTreeMap<&'static str, f64>,
}

impl Timer {
    /// A tight loop: calls `step` up to `max_iters` times within the rung's
    /// time cap and keeps each call's duration.
    pub fn time(&mut self, name: &'static str, max_iters: usize, mut step: impl FnMut()) {
        let mut calls = Vec::with_capacity(max_iters);
        let begun = Instant::now();
        while calls.len() < max_iters {
            let t0 = Instant::now();
            step();
            calls.push(t0.elapsed().as_secs_f64() * 1e3);
            if calls.len() >= MIN_ITERS && begun.elapsed() >= self.cap {
                break;
            }
        }
        let warm = calls.len() / WARM_UP_SHARE;
        self.calls.entry(name).or_default().extend(&calls[warm..]);
    }

    /// One sample of a one-shot duration the ladder timed itself (a boot, a
    /// failover, a first reply: things with a sleep or a poll inside).
    pub fn sample_ms(&mut self, name: &'static str, ms: f64) {
        self.samples.entry(name).or_default().push(ms);
    }

    /// A number that is computed or counted, not timed.
    pub fn fact(&mut self, name: &'static str, value: f64) {
        self.facts.insert(name, value);
    }
}

/// `(metric, rung, rungs below)`: the metric is the rung's time minus the
/// times below it. Names starting with `_` are rungs timed only for this
/// table.
const SELF_TIMES: [(&str, &str, &[&str]); 9] = [
    (
        "models.self_b16_ms",
        "models.forward_b16_ms",
        &[
            "nn.conv1_fwd_b16_ms",
            "nn.conv2_fwd_b16_ms",
            "nn.conv3_fwd_b16_ms",
            "nn.pool_relu_fwd_b16_ms",
            "nn.fc_fwd_b16_ms",
        ],
    ),
    (
        "serve.backend.self_b16_ms",
        "serve.backend.infer_batch_b16_ms",
        &["models.forward_b16_ms"],
    ),
    (
        "serve.sched.handoff_self_ms",
        "_serve.handle_infer_b1",
        &["serve.backend.infer_batch_b1_ms"],
    ),
    (
        "serve.sched.window_self_ms",
        "_serve.handle_infer_window",
        &["serve.backend.infer_batch_b1_ms"],
    ),
    (
        "serve.tcp.hop_self_ms",
        "_serve.tcp_infer_b1",
        &["_serve.handle_infer_b1"],
    ),
    (
        "router.infer_self_ms",
        "_router.router_infer",
        &["_router.node_infer_keyed"],
    ),
    (
        "router.front_self_ms",
        "_router.front_infer_keyed",
        &["_router.router_infer"],
    ),
    (
        "dist.master.comm_self_ms",
        "dist.master.ha_call_ms",
        &["dist.master.local_call_ms"],
    ),
    // The nn layers together, minus the tensor kernels they call.
    (
        "nn.self_b16_ms",
        "_nn.sum_b16",
        &["tensor.conv_gemm_fwd_b16_ms", "tensor.matmul_fc_b16_ms"],
    ),
];

/// Runs the ladder within about `budget` and returns every ladder metric by
/// its `BENCHMARK.json` name, in that metric's unit.
pub fn run(fx: &Fixture, seed: u64, budget: Duration) -> Result<BTreeMap<String, f64>, String> {
    let mut timer = Timer {
        cap: budget / (RUNGS * ROUNDS),
        calls: BTreeMap::new(),
        samples: BTreeMap::new(),
        facts: BTreeMap::new(),
    };
    for _ in 0..ROUNDS {
        sut::run_ladder(fx, seed, &mut timer)?;
    }
    let Timer {
        calls,
        samples,
        facts,
        ..
    } = timer;
    // A tight loop's time is read off the quiet end of its calls; a
    // one-shot duration has a sleep or a poll inside and no quiet end, so
    // its samples keep their median.
    let mut times: BTreeMap<&str, f64> = calls
        .iter()
        .map(|(name, ms)| (*name, quiet(ms, Better::Lower)))
        .collect();
    times.extend(samples.iter().map(|(name, ms)| (*name, median(ms))));
    let nn_sum: f64 = times
        .iter()
        .filter(|(name, _)| name.starts_with("nn."))
        .map(|(_, ms)| ms)
        .sum();
    times.insert("_nn.sum_b16", nn_sum);

    let rung = |name: &str| {
        times
            .get(name)
            .copied()
            .ok_or_else(|| format!("the ladder did not time {name}"))
    };
    let fact = |name: &str| {
        facts
            .get(name)
            .copied()
            .ok_or_else(|| format!("the ladder did not report {name}"))
    };
    let mut out = BTreeMap::new();
    for (metric, top, below) in SELF_TIMES {
        let below = below
            .iter()
            .map(|b| rung(b))
            .collect::<Result<Vec<_>, _>>()?;
        out.insert(metric.to_string(), rung_self(rung(top)?, &below));
    }
    for (name, ms) in &times {
        if name.starts_with('_') {
            continue;
        }
        // Rungs are timed in ms; a metric named in µs is scaled to its unit.
        let scale = if name.ends_with("_us") { 1e3 } else { 1.0 };
        out.insert(name.to_string(), ms * scale);
    }
    for (name, value) in &facts {
        if !name.starts_with('_') {
            out.insert(name.to_string(), *value);
        }
    }

    let gflops = |flops: f64, ms: f64| flops / (ms * 1e6);
    let gemm = gflops(
        fact("_tensor.gemm_flops_b16")?,
        rung("tensor.conv_gemm_fwd_b16_ms")?,
    );
    let peak = times
        .iter()
        .filter(|(name, _)| name.starts_with("_microkernel."))
        .map(|(name, ms)| Ok(gflops(fact(&format!("{name}.flops"))?, *ms)))
        .collect::<Result<Vec<f64>, String>>()?
        .into_iter()
        .fold(0.0, f64::max);
    let lookup_ns = rung("_router.shard_lookups")? * 1e6 / sut::LOOKUPS_PER_CALL as f64;
    for (name, value) in [
        ("tensor.gemm_gflops_b16", gemm),
        ("tensor.microkernel_peak_gflops", peak),
        ("tensor.gemm_peak_share", gemm / peak),
        ("router.shard_lookup_ns", lookup_ns),
    ] {
        out.insert(name.to_string(), value);
    }
    Ok(out)
}
