//! Golden digests: committed fingerprints of the model's numerics and of
//! the wire format.
//!
//! Every kernel in this workspace promises bit-identical results at any
//! thread count and on every dispatched microkernel, so the exact bits of
//! a seeded forward pass and of a seeded training run are stable facts of
//! the code. These tests pin them as FNV-1a 64-bit digests over each
//! value's `to_bits` little-endian bytes (checkpoint bytes are digested
//! as-is). A refactor that claims to be bit-neutral passes unchanged; one
//! that moves a single bit anywhere in the forward or training path fails
//! here instead of drifting silently. The same holds for the bytes
//! `Message::encode` puts on the wire, one seeded message per tag: a
//! peer built from another commit must read them.
//!
//! Run on the dispatched kernels and under `FLUID_FORCE_SCALAR=1`: both
//! legs must read the same digests.

use fluid_dist::{GossipNode, Message, Mode, NamedTensor};
use fluid_integration_tests::{fresh_paper_fluid, quick_trained_fluid};
use fluid_models::{save_net, BranchSpec};
use fluid_nn::ChannelRange;
use fluid_tensor::{Prng, Tensor};

const UPDATE_RULE: &str = "a PR that changes a digest updates it and names the cause in CHANGES.md";

/// `(sub-network, batch, digest)` of the seeded `Arch::paper()` logits.
const LOGITS: &[(&str, usize, u64)] = &[
    ("lower25", 1, 0xfccd772ed5188931),
    ("lower50", 1, 0x795b298d0ecd4fd6),
    ("upper25", 1, 0x743f4072b7c8a425),
    ("upper50", 1, 0x4bb471b2b16e7eb1),
    ("combined75", 1, 0x6c5684a94af9f8e4),
    ("combined100", 1, 0xe524906408041ffb),
    ("lower25", 16, 0xc338d99b81b4aad7),
    ("lower50", 16, 0x1e60ffc10d2c42ad),
    ("upper25", 16, 0x746a12f8e6f85899),
    ("upper50", 16, 0xea611b0e4c3f0100),
    ("combined75", 16, 0x25930496c5d91c88),
    ("combined100", 16, 0x6e3db01558058c4b),
];

/// `save_net` bytes after the seeded `train_nested` run on `Arch::tiny_28()`.
const TRAINED_CHECKPOINT: u64 = 0xd50b5337f688a6c1;

/// `(wire tag, digest)` of `Message::encode` for each of [`seeded_messages`].
const WIRE: &[(u8, u64)] = &[
    (1, 0x48e71abb96fa62cc),
    (2, 0xbf379f546b622ade),
    (3, 0xd7a0514664d51412),
    (4, 0x964faccd975c6e4a),
    (5, 0xed9cc52dc54989f2),
    (6, 0xaf4884bde646aa9d),
    (7, 0x1f9456a6642c89e8),
    (8, 0x084db707b5028782),
    (9, 0xaf63c44c8601c3c4),
    (10, 0x4978126c7b197346),
    (11, 0xdb6de48f57da25e6),
    (12, 0x4ad308a03ed283ec),
    (13, 0x60f365fd5e8fcd21),
    (14, 0x44e9ecfaac709add),
    (15, 0x1db405972cc6aebb),
    (16, 0x2cae11ed41fef105),
    (17, 0xde8c78cf546d022e),
];

/// FNV-1a, 64-bit.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest_f32(values: &[f32]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

#[test]
fn paper_logits_match_golden_digests() {
    let mut model = fresh_paper_fluid(2718);
    let names: Vec<String> = model.specs().iter().map(|s| s.name.clone()).collect();
    let mut got = Vec::new();
    for batch in [1, 16] {
        let x = Tensor::from_fn(&[batch, 1, 28, 28], |i| ((i * 7919) % 251) as f32 / 251.0);
        for name in &names {
            let logits = model.infer(name, &x);
            got.push((name.as_str(), batch, digest_f32(logits.data())));
        }
    }
    let table: String = got
        .iter()
        .map(|(n, b, d)| format!("\n    ({n:?}, {b}, {d:#018x}),"))
        .collect();
    assert!(
        got == LOGITS,
        "seeded paper logits drifted; {UPDATE_RULE}. Got:{table}"
    );
}

#[test]
fn trained_checkpoint_matches_golden_digest() {
    let (model, _) = quick_trained_fluid(4242);
    let mut bytes = Vec::new();
    save_net(model.net(), &mut bytes).expect("save");
    let got = fnv1a(bytes);
    assert!(
        got == TRAINED_CHECKPOINT,
        "seeded training drifted: checkpoint digest {got:#018x}; {UPDATE_RULE}"
    );
}

fn seeded_tensor(rng: &mut Prng, dims: &[usize]) -> Tensor {
    Tensor::from_fn(dims, |_| rng.uniform(-1.0, 1.0))
}

fn seeded_gossip_node(rng: &mut Prng, id: &str) -> GossipNode {
    GossipNode {
        id: id.into(),
        addr: format!("127.0.0.1:{}", 1024 + rng.below(60_000)),
        alive: rng.chance(0.5),
        member_version: rng.next_u64(),
        up: rng.chance(0.5),
        probe_in_ms: rng.next_u64() as u32,
        health_version: rng.next_u64(),
        queue_depth: rng.next_u64() as u32,
    }
}

/// One message per wire tag, in tag order, every number drawn from one
/// seeded stream.
fn seeded_messages() -> Vec<Message> {
    let rng = &mut Prng::new(1729);
    vec![
        Message::Hello {
            device: "jetson-0".into(),
        },
        Message::DeployBranch {
            branch: BranchSpec {
                name: "upper50".into(),
                channels: vec![ChannelRange::new(2, 4), ChannelRange::new(8, 16)],
                fc_bias: true,
            },
            weights: vec![
                NamedTensor {
                    name: "conv0.weight".into(),
                    tensor: seeded_tensor(rng, &[2, 1, 3, 3]),
                },
                NamedTensor {
                    name: "conv0.bias".into(),
                    tensor: seeded_tensor(rng, &[2]),
                },
            ],
        },
        Message::DeployAck {
            branch_name: "upper50".into(),
        },
        Message::Infer {
            request_id: rng.next_u64(),
            input: seeded_tensor(rng, &[1, 1, 4, 4]),
        },
        Message::Logits {
            request_id: rng.next_u64(),
            logits: seeded_tensor(rng, &[2, 10]),
        },
        Message::Heartbeat {
            seq: rng.next_u64(),
        },
        Message::HeartbeatAck {
            seq: rng.next_u64(),
        },
        Message::SwitchMode {
            mode: Mode::HighThroughput,
        },
        Message::Shutdown,
        Message::Reject {
            request_id: rng.next_u64(),
            reason: "queue full (cap 64)".into(),
        },
        Message::InferKeyed {
            request_id: rng.next_u64(),
            shard_key: rng.next_u64(),
            input: seeded_tensor(rng, &[1, 1, 4, 4]),
        },
        Message::InferTenant {
            request_id: rng.next_u64(),
            tenant: rng.next_u64(),
            input: seeded_tensor(rng, &[1, 1, 4, 4]),
        },
        Message::Join {
            node: "node-0".into(),
            addr: "127.0.0.1:7811".into(),
        },
        Message::Leave {
            node: "node-1".into(),
        },
        Message::NodeHeartbeat {
            node: "node-2".into(),
            addr: "127.0.0.1:7812".into(),
            seq: rng.next_u64(),
            queue_depth: rng.below(64) as u32,
        },
        Message::Gossip {
            from: "router-0".into(),
            epoch: rng.next_u64(),
            shard_pending: (0..8).map(|_| rng.below(64) as u32).collect(),
            nodes: vec![
                seeded_gossip_node(rng, "node-0"),
                seeded_gossip_node(rng, "node-1"),
            ],
        },
        Message::MembershipAck {
            epoch: rng.next_u64(),
        },
    ]
}

#[test]
fn wire_encoding_matches_golden_digests() {
    let messages = seeded_messages();
    let got: Vec<(u8, u64)> = messages
        .iter()
        .map(|m| {
            let bytes = m.encode();
            assert_eq!(Message::decode(&bytes).expect("decode"), *m, "round trip");
            (bytes[0], fnv1a(bytes))
        })
        .collect();
    let tags: Vec<u8> = got.iter().map(|&(tag, _)| tag).collect();
    assert_eq!(tags, (1..=17).collect::<Vec<u8>>(), "one message per tag");
    let table: String = got
        .iter()
        .map(|(t, d)| format!("\n    ({t}, {d:#018x}),"))
        .collect();
    assert!(
        got == WIRE,
        "wire encoding drifted; {UPDATE_RULE}. Got:{table}"
    );
}
