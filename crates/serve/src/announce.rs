//! The node side of dynamic cluster membership: a background announcer
//! that introduces a serve node to every router and keeps it introduced.
//!
//! On each tick the announcer sends a [`Message::NodeHeartbeat`] — carrying
//! the node's advertised address and current serve queue depth — to every
//! router in its list, over a per-router connection it re-establishes
//! whenever it breaks. The very first contact on a (re)connection is an
//! explicit [`Message::Join`]. Because heartbeats also carry the address,
//! a router that restarted with empty membership re-learns the node from
//! the next heartbeat without any orchestration (implicit re-join).
//!
//! Stopping is a protocol choice, not just a thread join:
//! [`Announcer::stop`] sends [`Message::Leave`] to every reachable router
//! (graceful departure — the routers tombstone the node), while
//! [`Announcer::abort`] just kills the thread (a crash — the routers find
//! out the hard way, via health marking). Drills use both, on purpose.
//! Between ticks the thread waits on its stop channel, so either verdict
//! takes effect as soon as the current tick's exchanges finish.

use crate::error::ServeError;
use crate::server::ServerHandle;
use fluid_dist::{Message, TcpTransport, Transport};
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::time::Duration;

/// What an [`Announcer`] announces, where, and how often.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnounceConfig {
    /// The node's stable identity (survives restarts).
    pub node_id: String,
    /// The serving address routers should hand to request traffic.
    pub advertise: String,
    /// The routers to announce to.
    pub routers: Vec<String>,
    /// Heartbeat period.
    pub interval: Duration,
    /// Bound on connecting to a router (re-checked every tick, so a dead
    /// router costs at most this much per tick, not a hang).
    pub connect_timeout: Duration,
}

impl AnnounceConfig {
    /// A config with the default cadence (250 ms heartbeats, 250 ms
    /// connect bound).
    pub fn new(node_id: &str, advertise: &str, routers: Vec<String>) -> AnnounceConfig {
        AnnounceConfig {
            node_id: node_id.to_string(),
            advertise: advertise.to_string(),
            routers,
            interval: Duration::from_millis(250),
            connect_timeout: Duration::from_millis(250),
        }
    }
}

/// How the announcer thread should wind down.
enum Stop {
    /// Send [`Message::Leave`] to every reachable router, then exit.
    Leave,
    /// Exit without telling anyone.
    Abort,
}

/// A background membership announcer for one serve node. See the module
/// docs for the protocol.
#[derive(Debug)]
pub struct Announcer {
    stop: Sender<Stop>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Announcer {
    /// Spawns the announce thread. `handle` supplies the queue depth each
    /// heartbeat reports.
    pub fn spawn(cfg: AnnounceConfig, handle: ServerHandle) -> Announcer {
        let (stop, verdict) = mpsc::channel();
        let thread = std::thread::spawn(move || announce_loop(cfg, handle, &verdict));
        Announcer {
            stop,
            thread: Some(thread),
        }
    }

    /// Graceful departure: sends [`Message::Leave`] to every reachable
    /// router, then joins the thread.
    pub fn stop(mut self) {
        self.finish(Stop::Leave);
    }

    /// Crash-style departure: the thread exits without telling anyone.
    /// Routers discover the node's absence through failed traffic.
    pub fn abort(mut self) {
        self.finish(Stop::Abort);
    }

    /// Hands the thread its verdict and joins it; the first verdict wins.
    fn finish(&mut self, how: Stop) {
        if let Some(t) = self.thread.take() {
            let _ = self.stop.send(how);
            let _ = t.join();
        }
    }
}

impl Drop for Announcer {
    /// Dropping without an explicit verdict behaves like [`stop`]
    /// (graceful): the common case is orderly teardown.
    ///
    /// [`stop`]: Announcer::stop
    fn drop(&mut self) {
        self.finish(Stop::Leave);
    }
}

/// Connects to one router within the config's bound.
fn dial(cfg: &AnnounceConfig, addr: &str) -> Result<TcpTransport, ServeError> {
    use std::net::ToSocketAddrs;
    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| ServeError::Transport(format!("resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| ServeError::Transport(format!("{addr} resolves to nothing")))?;
    let stream = TcpStream::connect_timeout(&sockaddr, cfg.connect_timeout)
        .map_err(|e| ServeError::Transport(format!("connect {addr}: {e}")))?;
    TcpTransport::new(stream).map_err(|e| ServeError::Transport(e.to_string()))
}

/// Sends `msg` and waits for the router's reply. A send error, a receive
/// error, and a reply that does not arrive within `patience` all count
/// as "not acknowledged".
fn acked(link: &mut TcpTransport, msg: &Message, patience: Duration) -> bool {
    link.send(msg).is_ok() && matches!(link.recv_timeout(patience), Ok(Some(_)))
}

fn announce_loop(cfg: AnnounceConfig, handle: ServerHandle, verdict: &mpsc::Receiver<Stop>) {
    let mut links: Vec<Option<TcpTransport>> = cfg.routers.iter().map(|_| None).collect();
    let mut seq: u64 = 0;
    loop {
        seq += 1;
        let depth = handle.queue_depth() as u32;
        for (i, addr) in cfg.routers.iter().enumerate() {
            if links[i].is_none() {
                // An unreachable router is retried next tick.
                if let Ok(mut t) = dial(&cfg, addr) {
                    // First contact on a fresh connection is an explicit
                    // Join; the ack is drained so it can't be mistaken
                    // for a later heartbeat's reply. A router that
                    // accepts but never acks is not a joined link.
                    let join = Message::Join {
                        node: cfg.node_id.clone(),
                        addr: cfg.advertise.clone(),
                    };
                    if acked(&mut t, &join, cfg.connect_timeout) {
                        links[i] = Some(t);
                    }
                }
            }
            if let Some(t) = links[i].as_mut() {
                let beat = Message::NodeHeartbeat {
                    node: cfg.node_id.clone(),
                    addr: cfg.advertise.clone(),
                    seq,
                    queue_depth: depth,
                };
                if !acked(t, &beat, cfg.connect_timeout) {
                    // Broken or silent link: re-dial (and re-Join) next
                    // tick, so a late ack can't answer a later heartbeat.
                    links[i] = None;
                }
            }
        }
        match verdict.recv_timeout(cfg.interval) {
            Err(RecvTimeoutError::Timeout) => {}
            Ok(Stop::Abort) => return, // vanish
            // A dropped sender without a verdict departs gracefully too.
            Ok(Stop::Leave) | Err(RecvTimeoutError::Disconnected) => {
                // Best-effort goodbye on every router we can still reach.
                for (i, addr) in cfg.routers.iter().enumerate() {
                    let link = match links[i].take() {
                        Some(t) => Some(t),
                        None => dial(&cfg, addr).ok(),
                    };
                    if let Some(mut t) = link {
                        let _ = t.send(&Message::Leave {
                            node: cfg.node_id.clone(),
                        });
                        // Wait briefly for the ack so the Leave is applied
                        // before teardown proceeds (drills rely on this).
                        let _ = t.recv_timeout(cfg.connect_timeout);
                    }
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::EngineBackend;
    use crate::server::{ServeConfig, Server};
    use fluid_models::{Arch, FluidModel};
    use fluid_tensor::Prng;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn a_router_that_accepts_but_never_acks_is_re_dialed() {
        // The "router": accepts every connection and holds it open in
        // silence, so each Join's ack times out.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr").to_string();

        let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(5));
        let backend = Box::new(EngineBackend::new(
            "m0",
            model.net().clone(),
            model.spec("combined100").expect("spec").clone(),
        ));
        let server = Server::start(ServeConfig::default(), vec![backend]).expect("start");
        let cfg = AnnounceConfig {
            interval: Duration::from_millis(20),
            connect_timeout: Duration::from_millis(40),
            ..AnnounceConfig::new("n0", "127.0.0.1:1", vec![addr])
        };
        let announcer = Announcer::spawn(cfg, server.handle());
        // A silent link kept as "joined" would be dialed exactly once.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut held = Vec::new();
        while held.len() < 2 {
            match listener.accept() {
                Ok((stream, _)) => held.push(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    assert!(
                        Instant::now() < deadline,
                        "{} dial(s) in 5 s: the silent link was kept",
                        held.len()
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("accept: {e}"),
            }
        }
        announcer.abort();
        drop(server.shutdown());
    }
}
