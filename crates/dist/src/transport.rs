//! Message transports: the [`Transport`] trait and its in-process and TCP
//! implementations. (Latency and loss are injected by wrapping either in a
//! [`FaultedTransport`](crate::FaultedTransport).)

use crate::error::DistError;
use crate::frame::{write_frame, MAX_FRAME_BYTES};
use crate::wire::Message;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A bidirectional, ordered message channel between two devices.
///
/// Implementations frame and encode [`Message`]s; callers never see bytes.
/// `recv_timeout` returning `Ok(None)` means "nothing arrived yet" — only
/// an `Err` means the link itself is unusable.
///
/// # Examples
///
/// Ship a message across an in-process pair:
///
/// ```
/// use fluid_dist::{InProcTransport, Message, Transport};
/// use std::time::Duration;
///
/// let (mut master_side, mut worker_side) = InProcTransport::pair();
/// master_side.send(&Message::Heartbeat { seq: 7 }).unwrap();
/// let got = worker_side.recv_timeout(Duration::from_secs(1)).unwrap();
/// assert_eq!(got, Some(Message::Heartbeat { seq: 7 }));
/// ```
///
/// A timeout with no traffic is not an error:
///
/// ```
/// use fluid_dist::{InProcTransport, Transport};
/// use std::time::Duration;
///
/// let (_quiet_peer, mut me) = InProcTransport::pair();
/// assert!(matches!(me.recv_timeout(Duration::from_millis(1)), Ok(None)));
/// ```
pub trait Transport {
    /// Sends one message.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] when the link is down or the write fails.
    fn send(&mut self, msg: &Message) -> Result<(), DistError>;

    /// Waits up to `timeout` for the next message.
    ///
    /// Returns `Ok(None)` when the timeout elapses with no complete message
    /// (partial frames are retained for the next call).
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] when the link is down, the peer closed the
    /// connection, or a frame fails to decode.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, DistError>;
}

/// A shared kill switch that severs an [`InProcTransport`] pair, simulating
/// a device or link failure in tests and demos.
#[derive(Debug, Clone)]
pub struct FailureSwitch {
    killed: Arc<AtomicBool>,
}

impl FailureSwitch {
    fn new() -> Self {
        Self {
            killed: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Kills the link: every subsequent `send`/`recv` on either side fails.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
    }

    /// Whether [`kill`](FailureSwitch::kill) has fired.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }
}

/// An in-process transport backed by channels — the two ends of a
/// [`pair`](InProcTransport::pair) talk to each other without sockets.
///
/// Messages still pass through the full wire codec, so in-process tests
/// exercise exactly the bytes a TCP peer would see. The attached
/// [`FailureSwitch`] can sever the link mid-conversation.
#[derive(Debug)]
pub struct InProcTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    switch: FailureSwitch,
}

impl InProcTransport {
    /// Creates a connected pair of endpoints sharing one failure switch.
    pub fn pair() -> (InProcTransport, InProcTransport) {
        let (tx_a, rx_b) = mpsc::channel();
        let (tx_b, rx_a) = mpsc::channel();
        let switch = FailureSwitch::new();
        (
            InProcTransport {
                tx: tx_a,
                rx: rx_a,
                switch: switch.clone(),
            },
            InProcTransport {
                tx: tx_b,
                rx: rx_b,
                switch,
            },
        )
    }

    /// The failure switch shared by both ends of the pair.
    pub fn failure_switch(&self) -> FailureSwitch {
        self.switch.clone()
    }
}

impl Transport for InProcTransport {
    fn send(&mut self, msg: &Message) -> Result<(), DistError> {
        if self.switch.is_killed() {
            return Err(DistError::LinkDown("failure switch fired".into()));
        }
        self.tx
            .send(msg.encode())
            .map_err(|_| DistError::LinkDown("peer endpoint dropped".into()))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, DistError> {
        if self.switch.is_killed() {
            return Err(DistError::LinkDown("failure switch fired".into()));
        }
        match self.rx.recv_timeout(timeout) {
            Ok(bytes) => {
                if self.switch.is_killed() {
                    return Err(DistError::LinkDown("failure switch fired".into()));
                }
                Message::decode(bytes).map(Some)
            }
            Err(RecvTimeoutError::Timeout) => {
                // A kill during the wait also counts as link loss, so a
                // blocked worker notices promptly.
                if self.switch.is_killed() {
                    Err(DistError::LinkDown("failure switch fired".into()))
                } else {
                    Ok(None)
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(DistError::LinkDown("peer endpoint dropped".into()))
            }
        }
    }
}

/// A [`Transport`] over a connected [`TcpStream`], with length-prefixed
/// frames and partial-read buffering (a frame interrupted by a timeout is
/// resumed by the next `recv_timeout`).
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl TcpTransport {
    /// Wraps a connected stream, enabling `TCP_NODELAY` (the protocol is
    /// request/response with small frames).
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Io`] if socket options cannot be set.
    pub fn new(stream: TcpStream) -> Result<Self, DistError> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            pending: Vec::new(),
        })
    }

    /// Pops one complete frame out of the pending buffer, if present.
    fn try_extract(&mut self) -> Result<Option<Message>, DistError> {
        if self.pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.pending[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(DistError::Decode(format!(
                "frame header claims {len} bytes (cap {MAX_FRAME_BYTES})"
            )));
        }
        if self.pending.len() < 4 + len {
            return Ok(None);
        }
        let payload: Vec<u8> = self.pending.drain(..4 + len).skip(4).collect();
        Message::decode(payload).map(Some)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, msg: &Message) -> Result<(), DistError> {
        write_frame(&mut self.stream, &msg.encode())?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, DistError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(msg) = self.try_extract()? {
                return Ok(Some(msg));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream.set_read_timeout(Some(deadline - now))?;
            let mut buf = [0u8; 64 * 1024];
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(DistError::LinkDown("peer closed the connection".into())),
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(DistError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_roundtrip() {
        let (mut a, mut b) = InProcTransport::pair();
        a.send(&Message::Heartbeat { seq: 5 }).expect("send");
        let got = b.recv_timeout(Duration::from_secs(1)).expect("recv");
        assert_eq!(got, Some(Message::Heartbeat { seq: 5 }));
    }

    #[test]
    fn inproc_timeout_is_none() {
        let (_a, mut b) = InProcTransport::pair();
        assert!(matches!(b.recv_timeout(Duration::from_millis(5)), Ok(None)));
    }

    #[test]
    fn kill_fails_both_directions() {
        let (mut a, mut b) = InProcTransport::pair();
        a.failure_switch().kill();
        assert!(a.send(&Message::Shutdown).is_err());
        assert!(b.send(&Message::Shutdown).is_err());
        assert!(b.recv_timeout(Duration::from_millis(5)).is_err());
    }

    #[test]
    fn dropped_peer_is_link_down() {
        let (a, mut b) = InProcTransport::pair();
        drop(a);
        assert!(b.recv_timeout(Duration::from_millis(5)).is_err());
    }

    #[test]
    fn tcp_roundtrip_and_close() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut t = TcpTransport::new(stream).expect("transport");
            let msg = t
                .recv_timeout(Duration::from_secs(5))
                .expect("recv")
                .expect("msg");
            t.send(&msg).expect("echo");
        });
        let mut client = TcpTransport::new(std::net::TcpStream::connect(addr).expect("connect"))
            .expect("transport");
        client.send(&Message::Heartbeat { seq: 11 }).expect("send");
        let got = client.recv_timeout(Duration::from_secs(5)).expect("recv");
        assert_eq!(got, Some(Message::Heartbeat { seq: 11 }));
        server.join().expect("server");
        // The server side is gone now; the next read reports link loss.
        assert!(client.recv_timeout(Duration::from_millis(200)).is_err());
    }
}
