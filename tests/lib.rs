//! Shared fixtures for the cross-crate integration tests.

use fluid_core::training::{train_nested, NestedSchedule, TrainConfig};
use fluid_data::{Dataset, SynthDigits};
use fluid_dist::{GossipNode, Message, Mode, NamedTensor};
use fluid_models::{Arch, BranchSpec, FluidModel};
use fluid_nn::ChannelRange;
use fluid_tensor::{Prng, Tensor};

/// Trains a small fluid model on a small synthetic dataset; shared by the
/// integration tests that need *trained* weights but not paper-scale
/// accuracy.
pub fn quick_trained_fluid(seed: u64) -> (FluidModel, Dataset) {
    let (train, test) = SynthDigits::new(seed).train_test(400, 120);
    let mut model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(seed));
    let cfg = TrainConfig::fast_test();
    let _ = train_nested(&mut model, &train, &cfg, &NestedSchedule::fast_test());
    (model, test)
}

/// The paper-architecture fluid model with fresh random weights (for tests
/// that check structure, not learning).
pub fn fresh_paper_fluid(seed: u64) -> FluidModel {
    FluidModel::new(Arch::paper(), &mut Prng::new(seed))
}

/// The held-out int8 calibration batch: 64 images from a seed no
/// training set draws from.
pub fn calibration_batch() -> Tensor {
    let ds = SynthDigits::new(0xCA11B).generate(64);
    let (images, _) = ds.gather(&(0..64).collect::<Vec<_>>());
    images
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
/// seeded stream: the messages whose encodings `golden.rs` pins.
pub fn golden_messages() -> Vec<Message> {
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
