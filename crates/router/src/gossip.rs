//! The anti-entropy gossip driver: a background thread that keeps one
//! [`Router`] convergent with its peer routers over TCP.
//!
//! Each tick the driver picks **one** peer — chosen by a seeded
//! [`Prng`], so a drill seed fixes the whole gossip schedule — pushes
//! this router's digest ([`Router::gossip_digest`]), and merges the
//! peer's reply ([`Router::merge_gossip`]); the peer merged the pushed
//! digest before replying, so every exchange is a full push-pull round.
//! Connections are kept per peer and re-dialed when broken; a dead or
//! partitioned peer costs one bounded connect attempt per tick it is
//! picked, never a hang.
//!
//! The merge rules themselves (and the in-process
//! [`Router::gossip_with`] used by the convergence proptests) live on
//! [`Router`]; this module is only the wire pump.

use crate::router::Router;
use fluid_dist::{TcpTransport, Transport};
use fluid_serve::ServeError;
use fluid_tensor::Prng;
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

/// Where and how often one router gossips.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct GossipConfig {
    /// Peer router addresses (this router's own address must not be in
    /// the list).
    pub peers: Vec<String>,
    /// Pause between exchanges. The default (100 ms) bounds the
    /// membership-convergence lag between two routers at roughly one
    /// interval per hop; `fluid-perf`'s cluster scenario is how that
    /// default was chosen against partition-recovery p95.
    pub interval: Duration,
    /// Bound on dialing a peer (a dead peer costs at most this per tick
    /// it is picked).
    pub connect_timeout: Duration,
    /// Seed for the per-tick peer choice. Same seed, same schedule —
    /// the deterministic-replay property the drills lean on.
    pub seed: u64,
}

impl GossipConfig {
    /// A config with the default cadence (100 ms ticks, 250 ms connect
    /// bound, seed 0).
    pub fn new(peers: Vec<String>) -> GossipConfig {
        GossipConfig {
            peers,
            interval: Duration::from_millis(100),
            connect_timeout: Duration::from_millis(250),
            seed: 0,
        }
    }
}

/// Spawns the gossip thread for `router`. Nothing is ever sent on `stop`:
/// dropping its sender ends the thread's wait between exchanges at once,
/// and the thread exits.
pub(crate) fn spawn_gossip(
    router: Router,
    cfg: GossipConfig,
    stop: Receiver<()>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || gossip_loop(&router, &cfg, &stop))
}

/// Connects to one peer within the config's bound.
fn dial(addr: &str, timeout: Duration) -> Result<TcpTransport, ServeError> {
    use std::net::ToSocketAddrs;
    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| ServeError::Transport(format!("resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| ServeError::Transport(format!("{addr} resolves to nothing")))?;
    let stream = TcpStream::connect_timeout(&sockaddr, timeout)
        .map_err(|e| ServeError::Transport(format!("connect {addr}: {e}")))?;
    TcpTransport::new(stream).map_err(|e| ServeError::Transport(e.to_string()))
}

fn gossip_loop(router: &Router, cfg: &GossipConfig, stop: &Receiver<()>) {
    let mut rng = Prng::new(cfg.seed);
    let mut links: Vec<Option<TcpTransport>> = cfg.peers.iter().map(|_| None).collect();
    loop {
        if !cfg.peers.is_empty() {
            let i = (rng.next_u64() % cfg.peers.len() as u64) as usize;
            if links[i].is_none() {
                links[i] = dial(&cfg.peers[i], cfg.connect_timeout).ok();
            }
            if let Some(t) = links[i].as_mut() {
                let ok = t.send(&router.gossip_digest()).is_ok()
                    && match t.recv_timeout(cfg.connect_timeout) {
                        Ok(Some(reply)) => {
                            let _ = router.merge_gossip(&reply);
                            true
                        }
                        // Timeout or transport error: assume the link is
                        // broken and re-dial next time this peer comes up.
                        _ => false,
                    };
                if !ok {
                    links[i] = None;
                }
            }
        }
        if !matches!(
            stop.recv_timeout(cfg.interval),
            Err(RecvTimeoutError::Timeout)
        ) {
            return;
        }
    }
}
