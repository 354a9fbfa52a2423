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

/// Most bytes one read may add to a [`TcpTransport`]'s receive buffer, and
/// the size the buffer keeps once it empties: a larger frame (a
/// `DeployBranch`) grows it as its bytes arrive, and the excess is released
/// after that frame decodes.
const RECV_CHUNK: usize = 64 * 1024;

/// The receive buffer's first size, before any header is known: an `Infer`
/// for one 28×28 image (≈ 3.2 KiB) arrives in a single read.
const RECV_FIRST: usize = 4 * 1024;

/// A [`Transport`] over a connected [`TcpStream`], with length-prefixed
/// frames and partial-read buffering (a frame interrupted by a timeout is
/// resumed by the next `recv_timeout`).
///
/// Frames are decoded where they land: reads go straight into the tail of
/// one receive buffer, and [`Message::decode`] borrows the payload from it.
/// Memory follows bytes received, never a header's claim.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    /// Received, unconsumed bytes are `buf[start..end]`; `buf[end..]` is
    /// room for the next read (zeroed once, when the buffer grows).
    buf: Vec<u8>,
    start: usize,
    end: usize,
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
            buf: Vec::new(),
            start: 0,
            end: 0,
        })
    }

    /// The payload length the pending frame's header claims, once its four
    /// bytes are in.
    fn frame_len(&self) -> Result<Option<usize>, DistError> {
        if self.end - self.start < 4 {
            return Ok(None);
        }
        let header = &self.buf[self.start..self.start + 4];
        let len = u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(DistError::Decode(format!(
                "frame header claims {len} bytes (cap {MAX_FRAME_BYTES})"
            )));
        }
        Ok(Some(len))
    }

    /// Decodes the complete frame of payload length `len` at the cursor and
    /// consumes it. Once the buffer empties, the cursors rewind and capacity
    /// above [`RECV_CHUNK`] is released.
    fn take_frame(&mut self, len: usize) -> Result<Message, DistError> {
        let payload = self.start + 4..self.start + 4 + len;
        self.start = payload.end;
        let msg = Message::decode(&self.buf[payload]);
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
            if self.buf.len() > RECV_CHUNK {
                self.buf.truncate(RECV_CHUNK);
                self.buf.shrink_to_fit();
            }
        }
        msg
    }

    /// Makes room for the next read: moves a partial frame to the front and,
    /// when no room is left, grows the buffer by at most [`RECV_CHUNK`] and,
    /// once the header is known, by no more than the frame still needs.
    fn make_room(&mut self, frame_len: Option<usize>) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            let grow = frame_len.map_or(RECV_FIRST, |len| (4 + len - self.end).min(RECV_CHUNK));
            self.buf.resize(self.end + grow, 0);
        }
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
            let frame_len = self.frame_len()?;
            if let Some(len) = frame_len.filter(|&len| self.end - self.start >= 4 + len) {
                return self.take_frame(len).map(Some);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream.set_read_timeout(Some(deadline - now))?;
            self.make_room(frame_len);
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(DistError::LinkDown("peer closed the connection".into())),
                Ok(n) => self.end += n,
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
    use fluid_tensor::Tensor;

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

    /// A raw writing socket and a transport reading what it writes.
    fn raw_pair() -> (TcpStream, TcpTransport) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let writer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        writer.set_nodelay(true).expect("nodelay");
        let (stream, _) = listener.accept().expect("accept");
        (writer, TcpTransport::new(stream).expect("transport"))
    }

    fn framed(msgs: &[Message]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for msg in msgs {
            write_frame(&mut bytes, &msg.encode()).expect("frame");
        }
        bytes
    }

    /// An `Infer` for one `side × side` image.
    fn infer(request_id: u64, side: usize) -> Message {
        Message::Infer {
            request_id,
            input: Tensor::from_fn(&[1, 1, side, side], |i| i as f32 * 0.5 - request_id as f32),
        }
    }

    fn recv(t: &mut TcpTransport) -> Option<Message> {
        t.recv_timeout(Duration::from_secs(5)).expect("recv")
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Any message sequence, written in arbitrary chunks down to single
        /// bytes, decodes to the same sequence — frames straddling reads,
        /// several per read, and frames larger than the first buffer.
        fn chunked_stream_decodes_to_the_sent_sequence(
            kinds in proptest::collection::vec((0u8..4, 0u64..1000), 1..10),
            chunks in proptest::collection::vec(
                proptest::prop_oneof![proptest::Just(1usize), 2usize..16, 16usize..5000],
                1..6,
            ),
        ) {
            let msgs: Vec<Message> = kinds
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => Message::Heartbeat { seq: x },
                    1 => infer(x, 1 + x as usize % 40),
                    2 => Message::Reject { request_id: x, reason: "r".repeat(x as usize % 50) },
                    _ => Message::Logits {
                        request_id: x,
                        logits: Tensor::from_fn(&[1, 10], |i| i as f32 - x as f32),
                    },
                })
                .collect();
            let (mut writer, mut t) = raw_pair();
            let bytes = framed(&msgs);
            let sender = std::thread::spawn(move || {
                let mut rest = bytes.as_slice();
                for &chunk in chunks.iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (piece, tail) = rest.split_at(chunk.min(rest.len()));
                    writer.write_all(piece).expect("write");
                    rest = tail;
                }
                writer
            });
            for want in msgs {
                proptest::prop_assert_eq!(recv(&mut t), Some(want));
            }
            drop(sender.join().expect("sender"));
        }
    }

    #[test]
    fn two_frames_in_one_read_come_back_one_per_call() {
        let (mut writer, mut t) = raw_pair();
        let msgs = [Message::Heartbeat { seq: 1 }, infer(2, 4)];
        writer.write_all(&framed(&msgs)).expect("write");
        assert_eq!(recv(&mut t).as_ref(), Some(&msgs[0]));
        // The second frame came in with the first: it is returned without
        // another read, even with no time left to wait.
        let second = t.recv_timeout(Duration::ZERO).expect("recv");
        assert_eq!(second.as_ref(), Some(&msgs[1]));
    }

    #[test]
    fn frame_split_by_an_expired_timeout_resumes() {
        let msg = infer(7, 8);
        let bytes = framed(std::slice::from_ref(&msg));
        // Cut inside the header, then inside the payload.
        for cut in [2, bytes.len() / 2] {
            let (mut writer, mut t) = raw_pair();
            writer.write_all(&bytes[..cut]).expect("write");
            assert!(matches!(
                t.recv_timeout(Duration::from_millis(20)),
                Ok(None)
            ));
            writer.write_all(&bytes[cut..]).expect("write");
            assert_eq!(recv(&mut t).as_ref(), Some(&msg), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_header_is_a_decode_error_before_any_payload() {
        let (mut writer, mut t) = raw_pair();
        let claim = u32::try_from(MAX_FRAME_BYTES + 1).expect("fits u32");
        writer.write_all(&claim.to_le_bytes()).expect("write");
        let err = t
            .recv_timeout(Duration::from_secs(5))
            .expect_err("must reject");
        assert!(matches!(err, DistError::Decode(_)), "{err:?}");
        assert!(t.buf.capacity() <= RECV_FIRST, "the claim reserved memory");
    }

    #[test]
    fn large_frame_grows_the_buffer_then_releases_it() {
        let deploy = Message::DeployBranch {
            branch: fluid_models::BranchSpec::uniform(
                "upper50",
                fluid_nn::ChannelRange::new(4, 8),
                3,
                false,
            ),
            weights: vec![crate::NamedTensor {
                name: "conv0.weight".into(),
                tensor: Tensor::from_fn(&[200, 256], |i| i as f32), // 200 KiB
            }],
        };
        let (mut writer, mut t) = raw_pair();
        let bytes = framed(std::slice::from_ref(&deploy));
        let sender = std::thread::spawn(move || writer.write_all(&bytes).map(|()| writer));
        assert_eq!(recv(&mut t).as_ref(), Some(&deploy));
        assert!(
            t.buf.capacity() <= RECV_CHUNK,
            "{} bytes kept after the frame",
            t.buf.capacity()
        );
        drop(sender.join().expect("sender").expect("write"));
    }

    #[test]
    fn steady_infer_stream_does_not_grow_the_buffer() {
        let (mut writer, mut t) = raw_pair();
        let first = infer(0, 28);
        writer
            .write_all(&framed(std::slice::from_ref(&first)))
            .expect("write");
        assert_eq!(recv(&mut t), Some(first));
        let capacity = t.buf.capacity();
        // Written in one go, so frames straddle reads and are compacted.
        let msgs: Vec<Message> = (1..50).map(|i| infer(i, 28)).collect();
        let bytes = framed(&msgs);
        let sender = std::thread::spawn(move || writer.write_all(&bytes).map(|()| writer));
        for want in &msgs {
            assert_eq!(recv(&mut t).as_ref(), Some(want));
            assert_eq!(t.buf.capacity(), capacity, "the buffer grew");
        }
        drop(sender.join().expect("sender").expect("write"));
    }
}
