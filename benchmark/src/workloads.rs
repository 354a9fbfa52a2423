//! The seven workloads (their names are the contract later issues cite)
//! and the seeded arrival schedule of the open loop.

use crate::sut::{ClientKind, Prng, Topology};

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop, one thread: submit `size` tickets, wait for all, repeat.
    Burst { size: usize },
    /// Closed loop: each of `clients` threads sends its next request when
    /// the previous reply is in hand.
    Closed { clients: usize },
    /// Open loop: one Poisson schedule at `lambda` req/s, drawn from the
    /// seed alone and shared by `clients` submitter threads; latency counts
    /// from the time a request was due.
    Open { lambda: f64, clients: usize },
}

impl Load {
    pub fn clients(&self) -> usize {
        match *self {
            Load::Burst { .. } => 1,
            Load::Closed { clients } | Load::Open { clients, .. } => clients,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub topology: Topology,
    pub client: ClientKind,
    pub load: Load,
}

/// The load generator never uses more threads or connections than the
/// reference host has cores.
const CLIENTS: usize = 2;

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "inproc_burst_f32",
        why: "64-ticket bursts into an in-proc Server (max_batch 16): batches fill at once, so tensor/nn/models do ~85% of the work and TCP/router none; all threads pinned to one CPU",
        topology: Topology::InProc { int8: false },
        client: ClientKind::Persistent,
        load: Load::Burst { size: 64 },
    },
    Workload {
        name: "inproc_burst_int8",
        why: "the same bursts through QuantBackend: qgemm and the fused quantize-pack, so an f32 packer gain that costs int8 shows; all threads pinned to one CPU",
        topology: Topology::InProc { int8: true },
        client: ClientKind::Persistent,
        load: Load::Burst { size: 64 },
    },
    Workload {
        name: "tcp_open_batched",
        why: "open-loop Poisson at 300 req/s over serve_tcp with the default ServeConfig: latency is ~85% batching window, so scheduler policy shows and kernels must not; all threads pinned to one CPU",
        topology: Topology::Tcp { batched: true },
        client: ClientKind::Persistent,
        load: Load::Open {
            lambda: 300.0,
            clients: CLIENTS,
        },
    },
    Workload {
        name: "tcp_closed_b1",
        why: "2 persistent connections, max_batch 1: no window, so scheduler hand-off, wire codec and the TCP hop are most of each request; all threads pinned to one CPU",
        topology: Topology::Tcp { batched: false },
        client: ClientKind::Persistent,
        load: Load::Closed { clients: CLIENTS },
    },
    Workload {
        name: "tcp_reconnect",
        why: "connect, infer, drop per request: the accept path and its poll sleep, so connection set-up cost cannot hide behind persistent-connection gains; all threads pinned to one CPU",
        topology: Topology::Tcp { batched: false },
        client: ClientKind::Reconnect,
        load: Load::Closed { clients: CLIENTS },
    },
    Workload {
        name: "cluster_closed_b1",
        why: "3 nodes behind 2 gossiping routers, one keyed connection per router: adds admission, shard pick, pool checkout and a second hop; minus tcp_closed_b1 it isolates router; all threads pinned to one CPU",
        topology: Topology::Cluster,
        client: ClientKind::Persistent,
        load: Load::Closed { clients: CLIENTS },
    },
    Workload {
        name: "pair_ha",
        why: "the paper tier: Master + Worker over loopback TcpTransport, one caller issuing infer_ha at batch 1; communication and the half-width branch dominate; both pinned to one CPU, so no overlap shows",
        topology: Topology::Pair,
        client: ClientKind::Persistent,
        load: Load::Closed { clients: 1 },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Poisson arrivals at `lambda` per second on an absolute clock: due times
/// in nanoseconds from the start of the run, strictly before `horizon_ns`.
pub fn poisson_schedule(seed: u64, lambda: f64, horizon_ns: u64) -> Vec<u64> {
    assert!(lambda > 0.0, "arrival rate must be positive");
    let mut rng = Prng::new(seed);
    let mut due = Vec::with_capacity((lambda * horizon_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / lambda;
        let ns = (t * 1e9) as u64;
        if ns >= horizon_ns {
            return due;
        }
        due.push(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.name.len() <= 64 && w.why.len() <= 200, "{}", w.name);
            assert!(!w.why.contains('\n'));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.load.clients() <= CLIENTS);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let horizon = 5_000_000_000;
        let a = poisson_schedule(42, 300.0, horizon);
        assert_eq!(a, poisson_schedule(42, 300.0, horizon));
        assert_ne!(a, poisson_schedule(43, 300.0, horizon));
        // On the absolute clock: sorted, inside the horizon, near the rate.
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&t| t < horizon));
        let rate = a.len() as f64 / 5.0;
        assert!((270.0..330.0).contains(&rate), "rate {rate}");
    }
}
