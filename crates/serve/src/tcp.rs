//! The TCP front-end: remote clients speak the existing `fluid-dist` wire
//! protocol (`Infer` → `Logits`), plus the explicit [`Message::Reject`]
//! verdict that makes the serving layer's backpressure visible on the wire
//! instead of burning the client's request timeout.

use crate::error::ServeError;
use crate::loadgen::InferClient;
use crate::server::ServerHandle;
use fluid_dist::{DistError, FaultedTransport, FaultyLink, Message, TcpTransport, Transport};
use fluid_tensor::Tensor;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often connection threads and the accept loop poll for shutdown. An
/// idle connection's poll is one `recv_timeout` that expires having read
/// nothing; past the connection's first read it allocates and zeroes
/// nothing.
const POLL: Duration = Duration::from_millis(100);

/// Serves the batching instance behind `handle` over TCP until `shutdown`
/// flips, then joins every connection thread.
///
/// Each accepted connection gets its own thread speaking the length-prefixed
/// `fluid-dist` frame protocol: every [`Message::Infer`] is submitted to
/// the shared queue and answered with [`Message::Logits`], or with
/// [`Message::Reject`] when the request is shed, malformed, or fails. A
/// client-sent [`Message::Shutdown`] closes just that connection.
/// Concurrent connections are what the scheduler coalesces into batches.
///
/// # Errors
///
/// Returns the listener's I/O error; per-connection failures only end that
/// connection.
///
/// # Example
///
/// ```
/// use fluid_serve::{serve_tcp, EngineBackend, ServeConfig, Server, TcpClient};
/// use fluid_models::{Arch, FluidModel};
/// use fluid_tensor::{Prng, Tensor};
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
///
/// let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(0));
/// let backend = EngineBackend::new(
///     "m0",
///     model.net().clone(),
///     model.spec("combined100").unwrap().clone(),
/// );
/// let server = Server::start(ServeConfig::default(), vec![Box::new(backend)]).unwrap();
///
/// let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
/// let addr = listener.local_addr().unwrap();
/// let shutdown = Arc::new(AtomicBool::new(false));
/// let front = {
///     let (handle, shutdown) = (server.handle(), Arc::clone(&shutdown));
///     std::thread::spawn(move || serve_tcp(listener, handle, shutdown))
/// };
///
/// let mut client = TcpClient::connect(&addr.to_string()).unwrap();
/// let logits = client.infer(&Tensor::zeros(&[1, 1, 28, 28])).unwrap();
/// assert_eq!(logits.dims(), &[1, 10]);
/// drop(client);
///
/// shutdown.store(true, Ordering::SeqCst);
/// front.join().unwrap().unwrap();
/// ```
pub fn serve_tcp(
    listener: TcpListener,
    handle: ServerHandle,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut connections = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handle = handle.clone();
                let shutdown = Arc::clone(&shutdown);
                connections.push(std::thread::spawn(move || {
                    let _ = serve_connection(stream, &handle, &shutdown);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Reap finished connection threads so a long-lived server
                // does not accumulate one JoinHandle per client forever.
                connections.retain(|c: &std::thread::JoinHandle<()>| !c.is_finished());
                std::thread::sleep(POLL)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    for c in connections {
        let _ = c.join();
    }
    Ok(())
}

/// One connection's serving loop: `Infer` in, `Logits`/`Reject` out.
fn serve_connection(
    stream: TcpStream,
    handle: &ServerHandle,
    shutdown: &AtomicBool,
) -> Result<(), ServeError> {
    let mut transport =
        TcpTransport::new(stream).map_err(|e| ServeError::Transport(e.to_string()))?;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match transport.recv_timeout(POLL) {
            // A leaf node treats a keyed request exactly like a plain one:
            // the shard key has already done its routing upstream.
            Ok(Some(
                Message::Infer { request_id, input }
                | Message::InferKeyed {
                    request_id, input, ..
                },
            )) => {
                let reply = match handle.infer(input) {
                    Ok(logits) => Message::Logits { request_id, logits },
                    Err(e) => Message::Reject {
                        request_id,
                        reason: e.to_string(),
                    },
                };
                transport
                    .send(&reply)
                    .map_err(|e| ServeError::Transport(e.to_string()))?;
            }
            // A tenant-tagged request is admitted through that tenant's
            // quota and queue; an unknown tenant id is answered with an
            // explicit protocol-level Reject, never billed to a default.
            Ok(Some(Message::InferTenant {
                request_id,
                tenant,
                input,
            })) => {
                let reply = match handle.infer_for(tenant, input) {
                    Ok(logits) => Message::Logits { request_id, logits },
                    Err(e) => Message::Reject {
                        request_id,
                        reason: e.to_string(),
                    },
                };
                transport
                    .send(&reply)
                    .map_err(|e| ServeError::Transport(e.to_string()))?;
            }
            Ok(Some(Message::Shutdown)) => return Ok(()),
            Ok(Some(Message::Heartbeat { seq })) => {
                transport
                    .send(&Message::HeartbeatAck { seq })
                    .map_err(|e| ServeError::Transport(e.to_string()))?;
            }
            Ok(Some(_)) => {} // not part of the serving dialogue: ignore
            Ok(None) => {}
            Err(e) => return Err(ServeError::Transport(e.to_string())),
        }
    }
}

/// A blocking TCP client of [`serve_tcp`], usable directly or as the
/// closed-loop loadgen's [`InferClient`].
///
/// # Example
///
/// See [`serve_tcp`] for the full round trip; connection errors surface as
/// [`ServeError::Transport`]:
///
/// ```
/// use fluid_serve::{ServeError, TcpClient};
/// // Nothing listens on this port.
/// let err = TcpClient::connect("127.0.0.1:1").unwrap_err();
/// assert!(matches!(err, ServeError::Transport(_)));
/// ```
#[derive(Debug)]
pub struct TcpClient {
    transport: ClientWire,
    next_id: u64,
    timeout: Duration,
}

/// The client's link: plain TCP, or TCP under a fault-injection schedule
/// ([`TcpClient::with_faults`]). An enum rather than a `Box<dyn Transport>`
/// so the common plain path stays monomorphic.
#[derive(Debug)]
enum ClientWire {
    Plain(TcpTransport),
    Faulted(FaultedTransport<TcpTransport>),
}

impl Transport for ClientWire {
    fn send(&mut self, msg: &Message) -> Result<(), DistError> {
        match self {
            ClientWire::Plain(t) => t.send(msg),
            ClientWire::Faulted(t) => t.send(msg),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, DistError> {
        match self {
            ClientWire::Plain(t) => t.recv_timeout(timeout),
            ClientWire::Faulted(t) => t.recv_timeout(timeout),
        }
    }
}

impl TcpClient {
    /// Connects to a serving front-end at `addr` (default 30 s reply
    /// timeout).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Transport`] when the connection fails.
    pub fn connect(addr: &str) -> Result<TcpClient, ServeError> {
        let stream = TcpStream::connect(addr).map_err(|e| ServeError::Transport(e.to_string()))?;
        TcpClient::from_stream(stream)
    }

    /// Connects with a bound on the connect itself: a black-holed address
    /// fails within `timeout` instead of hanging on the OS connect timeout
    /// (minutes on most systems). This is what the router's health probes
    /// use — a dead node must cost a bounded amount of time.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Transport`] when `addr` does not resolve or
    /// the connection is not established within `timeout`.
    pub fn connect_timeout(addr: &str, timeout: Duration) -> Result<TcpClient, ServeError> {
        use std::net::ToSocketAddrs;
        let sockaddr = addr
            .to_socket_addrs()
            .map_err(|e| ServeError::Transport(format!("resolve {addr}: {e}")))?
            .next()
            .ok_or_else(|| ServeError::Transport(format!("{addr} resolves to nothing")))?;
        // Distinguish the two ways a connect dies: a *timeout* (black-holed
        // or partitioned address — nothing answered at all) reads
        // differently from a refusal/reset, and the failure matrix asserts
        // on the wording.
        let stream = TcpStream::connect_timeout(&sockaddr, timeout).map_err(|e| {
            if e.kind() == std::io::ErrorKind::TimedOut
                || e.kind() == std::io::ErrorKind::WouldBlock
            {
                ServeError::Transport(format!("connect to {addr} timed out after {timeout:?}"))
            } else {
                ServeError::Transport(format!("connect {addr}: {e}"))
            }
        })?;
        TcpClient::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> Result<TcpClient, ServeError> {
        Ok(TcpClient {
            transport: ClientWire::Plain(
                TcpTransport::new(stream).map_err(|e| ServeError::Transport(e.to_string()))?,
            ),
            next_id: 1,
            timeout: Duration::from_secs(30),
        })
    }

    /// Sets the per-request reply timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> TcpClient {
        self.timeout = timeout;
        self
    }

    /// Puts this client's link under a fault-injection schedule: sends and
    /// receives flow through the [`FaultyLink`]'s deterministic drop /
    /// delay / duplicate / partition decisions. The router wraps its
    /// node connections with this when a `FaultPlan` is installed.
    pub fn with_faults(mut self, link: FaultyLink) -> TcpClient {
        self.transport = match self.transport {
            ClientWire::Plain(t) => ClientWire::Faulted(link.wrap(t)),
            // Re-wrapping replaces the old schedule's link with the new one.
            ClientWire::Faulted(t) => ClientWire::Faulted(link.wrap(t.into_inner())),
        };
        self
    }

    /// One blocking `[N, C, H, W]` → `[N, classes]` round trip.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Rejected`] — the server refused the request
    ///   (overload, bad input, shutdown); the reason is the server's.
    /// * [`ServeError::Transport`] — link failure or reply timeout.
    pub fn infer(&mut self, x: &Tensor) -> Result<Tensor, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.round_trip(Message::Infer {
            request_id: id,
            input: x.clone(),
        })
    }

    /// Like [`infer`](TcpClient::infer), but carries an explicit routing
    /// key ([`Message::InferKeyed`]): against a `fluid-router` front-end,
    /// equal keys land on the same shard; a plain serve node answers it
    /// identically to `infer`.
    ///
    /// # Errors
    ///
    /// Same verdicts as [`infer`](TcpClient::infer).
    pub fn infer_keyed(&mut self, shard_key: u64, x: &Tensor) -> Result<Tensor, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.round_trip(Message::InferKeyed {
            request_id: id,
            shard_key,
            input: x.clone(),
        })
    }

    /// Like [`infer`](TcpClient::infer), but tagged with a tenant id
    /// ([`Message::InferTenant`]): the server admits the request through
    /// that tenant's token-bucket quota and per-tenant queue. Against an
    /// untenanted server the id is advisory; an id missing from a tenanted
    /// server's table is an explicit [`ServeError::Rejected`] verdict.
    ///
    /// # Errors
    ///
    /// Same verdicts as [`infer`](TcpClient::infer).
    pub fn infer_tenant(&mut self, tenant: u64, x: &Tensor) -> Result<Tensor, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.round_trip(Message::InferTenant {
            request_id: id,
            tenant,
            input: x.clone(),
        })
    }

    /// Sends one request message and awaits its reply under the client's
    /// deadline. `msg` must carry `self.next_id - 1` as its request id.
    fn round_trip(&mut self, msg: Message) -> Result<Tensor, ServeError> {
        let id = self.next_id - 1;
        self.transport
            .send(&msg)
            .map_err(|e| ServeError::Transport(e.to_string()))?;
        let deadline = Instant::now() + self.timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                // Worded apart from the connect-timeout error on purpose:
                // the link *was* established and the request *was* sent —
                // the peer went silent mid-request. Different failure,
                // different operator response (see docs/SERVING.md).
                return Err(ServeError::Transport(format!(
                    "mid-request silence: no reply to request {id} within {:?}",
                    self.timeout
                )));
            }
            match self.transport.recv_timeout(deadline - now) {
                Ok(Some(Message::Logits { request_id, logits })) if request_id == id => {
                    return Ok(logits)
                }
                Ok(Some(Message::Reject { request_id, reason })) if request_id == id => {
                    return Err(ServeError::Rejected(reason))
                }
                Ok(_) => continue, // stale replies to abandoned requests
                Err(e) => return Err(ServeError::Transport(e.to_string())),
            }
        }
    }
}

impl InferClient for TcpClient {
    fn infer(&mut self, x: &Tensor) -> Result<Tensor, ServeError> {
        TcpClient::infer(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::EngineBackend;
    use crate::server::{ServeConfig, Server};
    use fluid_models::{Arch, FluidModel};
    use fluid_tensor::Prng;

    fn boot(
        cfg: ServeConfig,
    ) -> (
        Server,
        std::net::SocketAddr,
        Arc<AtomicBool>,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(5));
        let backend = Box::new(EngineBackend::new(
            "m0",
            model.net().clone(),
            model.spec("combined100").expect("spec").clone(),
        ));
        let server = Server::start(cfg, vec![backend]).expect("start");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let front = {
            let (handle, shutdown) = (server.handle(), Arc::clone(&shutdown));
            std::thread::spawn(move || serve_tcp(listener, handle, shutdown))
        };
        (server, addr, shutdown, front)
    }

    #[test]
    fn tcp_roundtrip_matches_inproc() {
        let (server, addr, shutdown, front) = boot(ServeConfig::default());
        let x = Tensor::from_fn(&[2, 1, 28, 28], |i| (i % 7) as f32 / 7.0);
        let mut client = TcpClient::connect(&addr.to_string()).expect("connect");
        let remote = client.infer(&x).expect("tcp infer");
        let local = server.handle().infer(x).expect("inproc infer");
        assert!(remote.allclose(&local, 0.0));
        shutdown.store(true, Ordering::SeqCst);
        front.join().expect("front").expect("io");
    }

    #[test]
    fn keyed_infer_round_trips_on_a_plain_node() {
        // A leaf serve node answers InferKeyed exactly like Infer.
        let (server, addr, shutdown, front) = boot(ServeConfig::default());
        let x = Tensor::from_fn(&[1, 1, 28, 28], |i| (i % 13) as f32 / 13.0);
        let mut client = TcpClient::connect(&addr.to_string()).expect("connect");
        let keyed = client.infer_keyed(0xFEED, &x).expect("keyed infer");
        let plain = server.handle().infer(x).expect("inproc infer");
        assert!(keyed.allclose(&plain, 0.0));
        shutdown.store(true, Ordering::SeqCst);
        front.join().expect("front").expect("io");
    }

    #[test]
    fn tenant_infer_round_trips_and_unknown_tenant_is_rejected() {
        use crate::sched::{TenancyConfig, TenantClass, TenantPolicy};
        let cfg = ServeConfig {
            tenancy: Some(TenancyConfig::new(vec![
                TenantPolicy::new(1, "web", TenantClass::Interactive),
                TenantPolicy::new(2, "batch", TenantClass::Batch),
            ])),
            ..ServeConfig::default()
        };
        let (server, addr, shutdown, front) = boot(cfg);
        let x = Tensor::from_fn(&[1, 1, 28, 28], |i| (i % 11) as f32 / 11.0);
        let mut client = TcpClient::connect(&addr.to_string()).expect("connect");
        let tagged = client.infer_tenant(2, &x).expect("tenant infer");
        let plain = server.handle().infer(x.clone()).expect("inproc infer");
        assert!(tagged.allclose(&plain, 0.0));
        // Tenant 9 is not in the table: explicit reject, not a timeout.
        let err = client.infer_tenant(9, &x).expect_err("unknown tenant");
        match err {
            ServeError::Rejected(reason) => assert!(reason.contains("9"), "{reason}"),
            other => panic!("expected Rejected, got {other}"),
        }
        shutdown.store(true, Ordering::SeqCst);
        front.join().expect("front").expect("io");
    }

    #[test]
    fn connect_timeout_fails_fast_on_a_dead_port() {
        let t0 = Instant::now();
        let err = TcpClient::connect_timeout("127.0.0.1:1", Duration::from_millis(250))
            .expect_err("nothing listens there");
        assert!(matches!(err, ServeError::Transport(_)), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(5), "connect hung");
    }

    #[test]
    fn silent_server_after_accept_is_a_deadline_not_a_hang() {
        // A node that accepts the connection and then dies (or wedges)
        // without ever replying must cost the caller exactly its reply
        // timeout, not an unbounded wait.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            // Hold the socket open, replying to nothing, until released.
            let _ = release_rx.recv_timeout(Duration::from_secs(30));
            drop(stream);
        });
        let mut client = TcpClient::connect_timeout(&addr.to_string(), Duration::from_secs(2))
            .expect("connect")
            .with_timeout(Duration::from_millis(200));
        let t0 = Instant::now();
        let err = client
            .infer(&Tensor::zeros(&[1, 1, 28, 28]))
            .expect_err("no reply is coming");
        assert!(matches!(err, ServeError::Transport(_)), "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "deadline did not bound the silent-server wait: {:?}",
            t0.elapsed()
        );
        release_tx.send(()).expect("release holder");
        holder.join().expect("holder thread");
    }

    #[test]
    fn bad_input_is_an_explicit_reject_not_a_timeout() {
        let (_server, addr, shutdown, front) = boot(ServeConfig::default());
        let mut client = TcpClient::connect(&addr.to_string())
            .expect("connect")
            .with_timeout(Duration::from_secs(5));
        let t0 = Instant::now();
        let err = client
            .infer(&Tensor::zeros(&[1, 1, 14, 14]))
            .expect_err("wrong shape");
        assert!(matches!(err, ServeError::Rejected(_)), "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "reject was not explicit"
        );
        shutdown.store(true, Ordering::SeqCst);
        front.join().expect("front").expect("io");
    }
}
