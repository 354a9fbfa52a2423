//! Wire types: the execution [`Mode`], weight windows ([`NamedTensor`]) and
//! the [`Message`] codec.
//!
//! The codec is a small hand-rolled little-endian format (this workspace
//! carries no serde): one tag byte, then the variant's fields. Decoding is
//! total — arbitrary byte soup either yields a message or a
//! [`DistError::Decode`], never a panic or an unbounded allocation.

use crate::error::DistError;
use fluid_models::BranchSpec;
use fluid_nn::ChannelRange;
use fluid_tensor::Tensor;

/// The runtime's two execution modes (paper §III).
///
/// * **High-Accuracy**: every device evaluates its branch on the *same*
///   input; the Master sums the partial logits into the combined model's
///   exact output.
/// * **High-Throughput**: each device serves an *independent* input stream
///   with its standalone sub-network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Collective execution: one input, summed partial logits.
    HighAccuracy,
    /// Independent execution: one input stream per device.
    HighThroughput,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::HighAccuracy => write!(f, "HA"),
            Mode::HighThroughput => write!(f, "HT"),
        }
    }
}

/// A named weight window shipped to a worker during deployment, e.g.
/// `conv0.weight` restricted to a branch's channel block.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedTensor {
    /// Window name (`conv{stage}.weight`, `conv{stage}.bias`, `fc.weight`,
    /// `fc.bias`).
    pub name: String,
    /// The window's values, shaped as the window (not the full layer).
    pub tensor: Tensor,
}

/// Everything that travels between a Master and a Worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → Master greeting, sent once when the worker boots.
    Hello {
        /// The worker's self-reported device name.
        device: String,
    },
    /// Master → Worker: install this branch and its weight windows.
    DeployBranch {
        /// The branch to install.
        branch: BranchSpec,
        /// Weight windows produced by [`extract_branch_weights`].
        ///
        /// [`extract_branch_weights`]: crate::extract_branch_weights
        weights: Vec<NamedTensor>,
    },
    /// Worker → Master: the named branch is installed and serving.
    DeployAck {
        /// Name of the branch that was installed.
        branch_name: String,
    },
    /// Master → Worker: run the deployed branch on `input`.
    Infer {
        /// Correlates the reply with the request.
        request_id: u64,
        /// Input batch `[N, C, H, W]`.
        input: Tensor,
    },
    /// Worker → Master: the (partial) logits for a request.
    Logits {
        /// Echo of the request's id.
        request_id: u64,
        /// Logits `[N, classes]` — partial in HA mode, standalone in HT.
        logits: Tensor,
    },
    /// Master → Worker liveness probe.
    Heartbeat {
        /// Monotonic sequence number.
        seq: u64,
    },
    /// Worker → Master heartbeat echo.
    HeartbeatAck {
        /// Echo of the probe's sequence number.
        seq: u64,
    },
    /// Master → Worker: switch the execution mode.
    SwitchMode {
        /// The mode to switch to.
        mode: Mode,
    },
    /// Master → Worker: exit cleanly.
    Shutdown,
    /// Server → client: an inference request was refused without being run
    /// (queue overload, malformed input, serving layer shutting down).
    ///
    /// The Master/Worker pair never sends this — deployment-era failures
    /// stay silent and surface as the peer's timeout. The batched serving
    /// front-end (`fluid-serve`) does send it, making backpressure explicit
    /// to remote clients instead of burning their request timeout.
    Reject {
        /// Echo of the refused request's id.
        request_id: u64,
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Client → router: an inference request carrying an explicit routing
    /// key. The sharding front-end (`fluid-router`) hashes `shard_key` to
    /// pick the replica set; plain [`Message::Infer`] is also accepted
    /// there, using `request_id` as the key. Leaf serve nodes answer it
    /// exactly like `Infer` — the key has already done its job upstream.
    InferKeyed {
        /// Correlates the reply with the request.
        request_id: u64,
        /// Stable routing key (e.g. a session or user id): equal keys land
        /// on the same shard while the node set is unchanged.
        shard_key: u64,
        /// Input batch `[N, C, H, W]`.
        input: Tensor,
    },
    /// Client → serve/router: an inference request on behalf of a named
    /// tenant. Serve nodes admit it through that tenant's quota and queue
    /// (multi-tenant scheduling); `fluid-router` uses the tenant id as the
    /// shard key, so one tenant's traffic stays on one replica set. A
    /// tenant id the serve node was not configured with is answered with
    /// [`Message::Reject`] — a protocol error, not a silent drop.
    InferTenant {
        /// Correlates the reply with the request.
        request_id: u64,
        /// The tenant this request is billed to and scheduled under.
        tenant: u64,
        /// Input batch `[N, C, H, W]`.
        input: Tensor,
    },
    /// Serve node → router: announce this node as a routable member. The
    /// router answers with [`Message::MembershipAck`] carrying the
    /// membership epoch the join landed in. Idempotent: re-joining an
    /// already-known node with the same address is a no-op.
    Join {
        /// The node's stable identity (survives restarts).
        node: String,
        /// The address clients of the router should dial, `host:port`.
        addr: String,
    },
    /// Serve node → router: gracefully withdraw from the member set. The
    /// router tombstones the node (so gossip cannot resurrect it) and
    /// rebuilds the shard map without it.
    Leave {
        /// The departing node's identity.
        node: String,
    },
    /// Serve node → router: periodic liveness + load report. Carries the
    /// advertised address so a router that restarted with empty membership
    /// re-learns the node from its next heartbeat (implicit re-join).
    /// Answered with [`Message::HeartbeatAck`].
    NodeHeartbeat {
        /// The reporting node's identity.
        node: String,
        /// The node's advertised serving address.
        addr: String,
        /// Monotonic per-node sequence number.
        seq: u64,
        /// The node's current serve queue depth (pending tickets).
        queue_depth: u32,
    },
    /// Router ↔ router: one half of an anti-entropy exchange. A router
    /// pushes its full digest — membership records, health verdicts, and
    /// its own per-shard in-flight depths — and the peer merges it and
    /// replies with its own digest (push-pull).
    Gossip {
        /// The sending router's identity (keys the per-peer depth table).
        from: String,
        /// The sender's membership epoch (Lamport-style: bumped on every
        /// local membership change, maxed on merge).
        epoch: u64,
        /// The sender's *own* per-shard in-flight request counts, indexed
        /// by shard. Receivers add fresh peer depths to their local count
        /// when admitting, so admission sees cluster-wide shard pressure.
        shard_pending: Vec<u32>,
        /// Per-node membership + health records (see [`GossipNode`]).
        nodes: Vec<GossipNode>,
    },
    /// Router → serve node: acknowledges a [`Message::Join`] or
    /// [`Message::Leave`], echoing the membership epoch that resulted.
    MembershipAck {
        /// The router's membership epoch after applying the change.
        epoch: u64,
    },
}

/// One node's membership + health record inside a [`Message::Gossip`]
/// digest. Membership fields merge by `member_version` (higher wins);
/// health fields merge by `health_version` (higher wins, down wins ties).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipNode {
    /// The node's stable identity.
    pub id: String,
    /// The node's advertised serving address.
    pub addr: String,
    /// `false` once the node has left: a tombstone that outlives the
    /// departure so a stale peer cannot resurrect the member.
    pub alive: bool,
    /// Version of the membership fields (`addr`, `alive`): the epoch at
    /// which they last changed.
    pub member_version: u64,
    /// The sender's health verdict for this node.
    pub up: bool,
    /// When `up` is false: milliseconds until the sender would re-probe.
    /// Receivers adopting the verdict schedule their own probe this far
    /// out (instants don't cross the wire).
    pub probe_in_ms: u32,
    /// Version of the health fields, bumped on every verdict transition.
    pub health_version: u64,
    /// The node's last heartbeat-reported serve queue depth.
    pub queue_depth: u32,
}

const TAG_HELLO: u8 = 1;
const TAG_DEPLOY: u8 = 2;
const TAG_DEPLOY_ACK: u8 = 3;
const TAG_INFER: u8 = 4;
const TAG_LOGITS: u8 = 5;
const TAG_HEARTBEAT: u8 = 6;
const TAG_HEARTBEAT_ACK: u8 = 7;
const TAG_SWITCH_MODE: u8 = 8;
const TAG_SHUTDOWN: u8 = 9;
const TAG_REJECT: u8 = 10;
const TAG_INFER_KEYED: u8 = 11;
const TAG_INFER_TENANT: u8 = 12;
const TAG_JOIN: u8 = 13;
const TAG_LEAVE: u8 = 14;
const TAG_NODE_HEARTBEAT: u8 = 15;
const TAG_GOSSIP: u8 = 16;
const TAG_MEMBERSHIP_ACK: u8 = 17;

/// A decoded tensor beyond this rank is a protocol error, not a panic:
/// `fluid_tensor::Shape` stores dimensions inline and asserts its own
/// bound, so the decoder must reject first.
const MAX_TENSOR_RANK: usize = fluid_tensor::MAX_RANK;
const MAX_BRANCH_STAGES: usize = 1024;
/// A gossip digest claiming more member records than any sane cluster is a
/// protocol error, not an allocation: reject before reserving.
const MAX_GOSSIP_NODES: usize = 65_536;
/// Upper bound on the per-shard depth vector in a gossip digest; matches
/// the router's maximum shard count with generous headroom.
const MAX_GOSSIP_SHARDS: usize = 65_536;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Room [`Message::encode`] reserves beyond the tensor bytes: a tensor
/// frame's fixed fields (a tag and at most two `u64`s) fit, so it is
/// written with one allocation. Frames of strings and lists may grow.
const ENCODE_SLACK: usize = 64;

/// Bytes [`put_tensor`] writes for `t`.
fn tensor_len(t: &Tensor) -> usize {
    4 * (1 + t.dims().len() + t.data().len())
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    put_u32(out, t.dims().len() as u32);
    for &d in t.dims() {
        put_u32(out, d as u32);
    }
    for &x in t.data() {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_branch(out: &mut Vec<u8>, b: &BranchSpec) {
    put_str(out, &b.name);
    put_u32(out, b.channels.len() as u32);
    for r in &b.channels {
        put_u32(out, r.lo as u32);
        put_u32(out, r.hi as u32);
    }
    out.push(b.fc_bias as u8);
}

/// Bounds-checked reader over a decode buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DistError> {
        if self.remaining() < n {
            return Err(DistError::Decode(format!(
                "need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DistError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DistError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, DistError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, DistError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| DistError::Decode(format!("bad utf-8: {e}")))
    }

    fn tensor(&mut self) -> Result<Tensor, DistError> {
        let rank = self.u32()? as usize;
        if rank > MAX_TENSOR_RANK {
            return Err(DistError::Decode(format!("tensor rank {rank}")));
        }
        let mut dims = [0usize; MAX_TENSOR_RANK];
        let dims = &mut dims[..rank];
        for d in dims.iter_mut() {
            *d = self.u32()? as usize;
        }
        let numel = dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| DistError::Decode("tensor element count overflows".into()))?;
        // Element data must already be present — this bounds the allocation
        // by the actual payload size before reserving anything.
        if self.remaining() < numel.saturating_mul(4) {
            return Err(DistError::Decode(format!(
                "tensor claims {numel} elements but only {} bytes remain",
                self.remaining()
            )));
        }
        let raw = self.bytes(numel * 4)?;
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        Ok(Tensor::from_vec(data, dims))
    }

    fn range(&mut self) -> Result<ChannelRange, DistError> {
        let lo = self.u32()? as usize;
        let hi = self.u32()? as usize;
        if lo > hi {
            return Err(DistError::Decode(format!(
                "inverted channel range {lo}..{hi}"
            )));
        }
        Ok(ChannelRange::new(lo, hi))
    }

    fn branch(&mut self) -> Result<BranchSpec, DistError> {
        let name = self.string()?;
        let stages = self.u32()? as usize;
        if stages > MAX_BRANCH_STAGES {
            return Err(DistError::Decode(format!("branch with {stages} stages")));
        }
        let mut channels = Vec::with_capacity(stages);
        for _ in 0..stages {
            channels.push(self.range()?);
        }
        let fc_bias = self.u8()? != 0;
        Ok(BranchSpec {
            name,
            channels,
            fc_bias,
        })
    }

    fn finish(self) -> Result<(), DistError> {
        if self.pos != self.buf.len() {
            return Err(DistError::Decode(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Message {
    /// Serialises the message into a frame payload.
    ///
    /// # Example
    ///
    /// ```
    /// use fluid_dist::Message;
    /// let msg = Message::Heartbeat { seq: 42 };
    /// let decoded = Message::decode(msg.encode()).unwrap();
    /// assert_eq!(decoded, msg);
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ENCODE_SLACK + self.tensor_bytes());
        match self {
            Message::Hello { device } => {
                out.push(TAG_HELLO);
                put_str(&mut out, device);
            }
            Message::DeployBranch { branch, weights } => {
                out.push(TAG_DEPLOY);
                put_branch(&mut out, branch);
                put_u32(&mut out, weights.len() as u32);
                for w in weights {
                    put_str(&mut out, &w.name);
                    put_tensor(&mut out, &w.tensor);
                }
            }
            Message::DeployAck { branch_name } => {
                out.push(TAG_DEPLOY_ACK);
                put_str(&mut out, branch_name);
            }
            Message::Infer { request_id, input } => {
                out.push(TAG_INFER);
                put_u64(&mut out, *request_id);
                put_tensor(&mut out, input);
            }
            Message::Logits { request_id, logits } => {
                out.push(TAG_LOGITS);
                put_u64(&mut out, *request_id);
                put_tensor(&mut out, logits);
            }
            Message::Heartbeat { seq } => {
                out.push(TAG_HEARTBEAT);
                put_u64(&mut out, *seq);
            }
            Message::HeartbeatAck { seq } => {
                out.push(TAG_HEARTBEAT_ACK);
                put_u64(&mut out, *seq);
            }
            Message::SwitchMode { mode } => {
                out.push(TAG_SWITCH_MODE);
                out.push(match mode {
                    Mode::HighAccuracy => 0,
                    Mode::HighThroughput => 1,
                });
            }
            Message::Shutdown => out.push(TAG_SHUTDOWN),
            Message::Reject { request_id, reason } => {
                out.push(TAG_REJECT);
                put_u64(&mut out, *request_id);
                put_str(&mut out, reason);
            }
            Message::InferKeyed {
                request_id,
                shard_key,
                input,
            } => {
                out.push(TAG_INFER_KEYED);
                put_u64(&mut out, *request_id);
                put_u64(&mut out, *shard_key);
                put_tensor(&mut out, input);
            }
            Message::InferTenant {
                request_id,
                tenant,
                input,
            } => {
                out.push(TAG_INFER_TENANT);
                put_u64(&mut out, *request_id);
                put_u64(&mut out, *tenant);
                put_tensor(&mut out, input);
            }
            Message::Join { node, addr } => {
                out.push(TAG_JOIN);
                put_str(&mut out, node);
                put_str(&mut out, addr);
            }
            Message::Leave { node } => {
                out.push(TAG_LEAVE);
                put_str(&mut out, node);
            }
            Message::NodeHeartbeat {
                node,
                addr,
                seq,
                queue_depth,
            } => {
                out.push(TAG_NODE_HEARTBEAT);
                put_str(&mut out, node);
                put_str(&mut out, addr);
                put_u64(&mut out, *seq);
                put_u32(&mut out, *queue_depth);
            }
            Message::Gossip {
                from,
                epoch,
                shard_pending,
                nodes,
            } => {
                out.push(TAG_GOSSIP);
                put_str(&mut out, from);
                put_u64(&mut out, *epoch);
                put_u32(&mut out, shard_pending.len() as u32);
                for &d in shard_pending {
                    put_u32(&mut out, d);
                }
                put_u32(&mut out, nodes.len() as u32);
                for n in nodes {
                    put_str(&mut out, &n.id);
                    put_str(&mut out, &n.addr);
                    out.push(n.alive as u8);
                    put_u64(&mut out, n.member_version);
                    out.push(n.up as u8);
                    put_u32(&mut out, n.probe_in_ms);
                    put_u64(&mut out, n.health_version);
                    put_u32(&mut out, n.queue_depth);
                }
            }
            Message::MembershipAck { epoch } => {
                out.push(TAG_MEMBERSHIP_ACK);
                put_u64(&mut out, *epoch);
            }
        }
        out
    }

    /// Encoded bytes of the tensors this message carries (with each
    /// `DeployBranch` window's name), so [`encode`](Message::encode) sizes
    /// its output once.
    fn tensor_bytes(&self) -> usize {
        match self {
            Message::Infer { input: t, .. }
            | Message::Logits { logits: t, .. }
            | Message::InferKeyed { input: t, .. }
            | Message::InferTenant { input: t, .. } => tensor_len(t),
            Message::DeployBranch { weights, .. } => weights
                .iter()
                .map(|w| 4 + w.name.len() + tensor_len(&w.tensor))
                .sum(),
            _ => 0,
        }
    }

    /// Parses a frame payload produced by [`Message::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DistError::Decode`] on truncated, corrupt or trailing
    /// bytes. Never panics and never allocates more than the payload's own
    /// size.
    pub fn decode(bytes: impl AsRef<[u8]>) -> Result<Message, DistError> {
        let bytes = bytes.as_ref();
        let mut c = Cursor::new(bytes);
        let tag = c.u8()?;
        let msg = match tag {
            TAG_HELLO => Message::Hello {
                device: c.string()?,
            },
            TAG_DEPLOY => {
                let branch = c.branch()?;
                let count = c.u32()? as usize;
                let mut weights = Vec::new();
                for _ in 0..count {
                    let name = c.string()?;
                    let tensor = c.tensor()?;
                    weights.push(NamedTensor { name, tensor });
                }
                Message::DeployBranch { branch, weights }
            }
            TAG_DEPLOY_ACK => Message::DeployAck {
                branch_name: c.string()?,
            },
            TAG_INFER => Message::Infer {
                request_id: c.u64()?,
                input: c.tensor()?,
            },
            TAG_LOGITS => Message::Logits {
                request_id: c.u64()?,
                logits: c.tensor()?,
            },
            TAG_HEARTBEAT => Message::Heartbeat { seq: c.u64()? },
            TAG_HEARTBEAT_ACK => Message::HeartbeatAck { seq: c.u64()? },
            TAG_SWITCH_MODE => Message::SwitchMode {
                mode: match c.u8()? {
                    0 => Mode::HighAccuracy,
                    1 => Mode::HighThroughput,
                    other => return Err(DistError::Decode(format!("unknown mode {other}"))),
                },
            },
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_REJECT => Message::Reject {
                request_id: c.u64()?,
                reason: c.string()?,
            },
            TAG_INFER_KEYED => Message::InferKeyed {
                request_id: c.u64()?,
                shard_key: c.u64()?,
                input: c.tensor()?,
            },
            TAG_INFER_TENANT => Message::InferTenant {
                request_id: c.u64()?,
                tenant: c.u64()?,
                input: c.tensor()?,
            },
            TAG_JOIN => Message::Join {
                node: c.string()?,
                addr: c.string()?,
            },
            TAG_LEAVE => Message::Leave { node: c.string()? },
            TAG_NODE_HEARTBEAT => Message::NodeHeartbeat {
                node: c.string()?,
                addr: c.string()?,
                seq: c.u64()?,
                queue_depth: c.u32()?,
            },
            TAG_GOSSIP => {
                let from = c.string()?;
                let epoch = c.u64()?;
                let shards = c.u32()? as usize;
                if shards > MAX_GOSSIP_SHARDS {
                    return Err(DistError::Decode(format!(
                        "gossip digest claims {shards} shards"
                    )));
                }
                // Bound the reserve by bytes actually present (4 per depth).
                if c.remaining() < shards.saturating_mul(4) {
                    return Err(DistError::Decode(format!(
                        "gossip claims {shards} shard depths but only {} bytes remain",
                        c.remaining()
                    )));
                }
                let mut shard_pending = Vec::with_capacity(shards);
                for _ in 0..shards {
                    shard_pending.push(c.u32()?);
                }
                let count = c.u32()? as usize;
                if count > MAX_GOSSIP_NODES {
                    return Err(DistError::Decode(format!(
                        "gossip digest claims {count} member records"
                    )));
                }
                let mut nodes = Vec::new();
                for _ in 0..count {
                    nodes.push(GossipNode {
                        id: c.string()?,
                        addr: c.string()?,
                        alive: c.u8()? != 0,
                        member_version: c.u64()?,
                        up: c.u8()? != 0,
                        probe_in_ms: c.u32()?,
                        health_version: c.u64()?,
                        queue_depth: c.u32()?,
                    });
                }
                Message::Gossip {
                    from,
                    epoch,
                    shard_pending,
                    nodes,
                }
            }
            TAG_MEMBERSHIP_ACK => Message::MembershipAck { epoch: c.u64()? },
            other => return Err(DistError::Decode(format!("unknown message tag {other}"))),
        };
        c.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_roundtrips() {
        let branch = BranchSpec::uniform("upper50", ChannelRange::new(8, 16), 3, false);
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.5, 0.0], &[2, 2]);
        let msgs = vec![
            Message::Hello {
                device: "jetson-0".into(),
            },
            Message::DeployBranch {
                branch,
                weights: vec![NamedTensor {
                    name: "conv0.weight".into(),
                    tensor: t.clone(),
                }],
            },
            Message::DeployAck {
                branch_name: "upper50".into(),
            },
            Message::Infer {
                request_id: 9,
                input: t.clone(),
            },
            Message::Logits {
                request_id: 9,
                logits: t,
            },
            Message::Heartbeat { seq: 1 },
            Message::HeartbeatAck { seq: 1 },
            Message::SwitchMode {
                mode: Mode::HighAccuracy,
            },
            Message::SwitchMode {
                mode: Mode::HighThroughput,
            },
            Message::Shutdown,
            Message::Reject {
                request_id: 9,
                reason: "queue full (cap 64)".into(),
            },
            Message::InferKeyed {
                request_id: 9,
                shard_key: 0xDEAD_BEEF,
                input: Tensor::from_vec(vec![1.0, -2.0, 3.5, 0.0], &[2, 2]),
            },
            Message::InferTenant {
                request_id: 10,
                tenant: 3,
                input: Tensor::from_vec(vec![0.5, 0.25], &[1, 2]),
            },
            Message::Join {
                node: "node-2".into(),
                addr: "127.0.0.1:7042".into(),
            },
            Message::Leave {
                node: "node-2".into(),
            },
            Message::NodeHeartbeat {
                node: "node-0".into(),
                addr: "127.0.0.1:7040".into(),
                seq: 31,
                queue_depth: 5,
            },
            Message::Gossip {
                from: "router-1".into(),
                epoch: 12,
                shard_pending: vec![0, 3, 0, 1],
                nodes: vec![
                    GossipNode {
                        id: "node-0".into(),
                        addr: "127.0.0.1:7040".into(),
                        alive: true,
                        member_version: 4,
                        up: true,
                        probe_in_ms: 0,
                        health_version: 9,
                        queue_depth: 2,
                    },
                    GossipNode {
                        id: "node-1".into(),
                        addr: "127.0.0.1:7041".into(),
                        alive: false,
                        member_version: 11,
                        up: false,
                        probe_in_ms: 350,
                        health_version: 7,
                        queue_depth: 0,
                    },
                ],
            },
            Message::MembershipAck { epoch: 12 },
        ];
        for msg in msgs {
            assert_eq!(Message::decode(msg.encode()).expect("decode"), msg);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Message::Shutdown.encode();
        payload.push(0);
        assert!(Message::decode(payload).is_err());
    }

    #[test]
    fn huge_tensor_claim_rejected_cheaply() {
        // Infer message whose tensor header claims 2^32-ish elements with no
        // data behind it: must error, not allocate.
        let mut payload = vec![TAG_INFER];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes()); // rank 2
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Message::decode(payload).is_err());
    }

    #[test]
    fn over_rank_tensor_rejected_not_panicking() {
        // Rank past fluid_tensor::MAX_RANK must be a Decode error — Shape
        // stores dims inline and would panic if this reached Tensor.
        let mut payload = vec![TAG_INFER];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&5u32.to_le_bytes()); // rank 5 > MAX_RANK
        for _ in 0..5 {
            payload.extend_from_slice(&1u32.to_le_bytes());
        }
        payload.extend_from_slice(&1f32.to_le_bytes());
        assert!(Message::decode(payload).is_err());
    }

    #[test]
    fn inverted_range_rejected() {
        let branch = BranchSpec::uniform("b", ChannelRange::new(2, 4), 1, true);
        let mut payload = Message::DeployBranch {
            branch,
            weights: vec![],
        }
        .encode();
        // The branch's single range sits right before the fc_bias byte and
        // the u32 weight count: flip lo/hi (offsets: tag 1 + name(4+1) + 4).
        let lo_at = 1 + 4 + 1 + 4;
        payload[lo_at..lo_at + 4].copy_from_slice(&9u32.to_le_bytes());
        payload[lo_at + 4..lo_at + 8].copy_from_slice(&1u32.to_le_bytes());
        assert!(Message::decode(payload).is_err());
    }

    #[test]
    fn truncated_tenant_frame_rejected() {
        // Tenant frame cut off mid-tensor-header: a Decode error, never a
        // panic or a bogus message.
        let full = Message::InferTenant {
            request_id: 1,
            tenant: 7,
            input: Tensor::from_vec(vec![1.0], &[1, 1]),
        }
        .encode();
        for cut in 1..full.len() {
            assert!(
                Message::decode(&full[..cut]).is_err(),
                "truncation at {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn truncated_gossip_frame_rejected() {
        // Gossip is the widest membership frame; cut it at every offset and
        // demand a clean Decode error each time.
        let full = Message::Gossip {
            from: "router-0".into(),
            epoch: 3,
            shard_pending: vec![1, 2],
            nodes: vec![GossipNode {
                id: "n".into(),
                addr: "a:1".into(),
                alive: true,
                member_version: 1,
                up: false,
                probe_in_ms: 40,
                health_version: 2,
                queue_depth: 1,
            }],
        }
        .encode();
        for cut in 1..full.len() {
            assert!(
                Message::decode(&full[..cut]).is_err(),
                "truncation at {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn huge_gossip_claims_rejected_cheaply() {
        // A digest header claiming 2^32-ish shard depths (or member
        // records) with no bytes behind it must error without allocating.
        let mut payload = vec![TAG_GOSSIP];
        payload.extend_from_slice(&2u32.to_le_bytes()); // from = "r0"
        payload.extend_from_slice(b"r0");
        payload.extend_from_slice(&1u64.to_le_bytes()); // epoch
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // shard count lie
        assert!(Message::decode(payload).is_err());

        let mut payload = vec![TAG_GOSSIP];
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(b"r0");
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes()); // no shard depths
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // node count lie
        assert!(Message::decode(payload).is_err());
    }

    #[test]
    fn mode_displays_shortly() {
        assert_eq!(Mode::HighAccuracy.to_string(), "HA");
        assert_eq!(Mode::HighThroughput.to_string(), "HT");
    }
}
