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
//! here instead of drifting silently. The int8 path is pinned the same
//! way: the calibrated `QuantizedNet` logits of the seeded model. So are
//! the bytes `Message::encode` puts on the wire, one seeded message per
//! tag (a peer built from another commit must read them), and the
//! per-send fates a seeded `FaultPlan` draws (a drill replays its fault
//! schedule from nothing but the seed).
//!
//! Run on the dispatched kernels and under `FLUID_FORCE_SCALAR=1`: both
//! legs must read the same digests.

use fluid_dist::{FaultPlan, FaultSpec, InProcTransport, Message, Transport};
use fluid_integration_tests::{
    calibration_batch, fresh_paper_fluid, golden_messages, quick_trained_fluid,
};
use fluid_models::{calibrate, save_net, QuantizedNet};
use fluid_tensor::codec::fnv1a;
use fluid_tensor::Tensor;

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

/// `(batch, digest)` of the seeded `Arch::paper()` `combined100` logits
/// through the `QuantizedNet` calibrated on [`calibration_batch`].
const INT8_LOGITS: &[(usize, u64)] = &[(1, 0xe11900f50523a721), (16, 0xdc63ddbc9945d9fc)];

/// The per-send fates of [`FAULT_LABELS`] under the seeded 0.1/0.1/0.1
/// drop/duplicate/delay plan, [`FAULT_SENDS`] sends per link.
const FAULT_SCHEDULE: u64 = 0x9ffcf41aa3a31cb4;

const FAULT_LABELS: [&str; 3] = ["router-0->node-0", "router-0->node-1", "router-1->node-0"];
const FAULT_SENDS: u64 = 256;

/// `save_net` bytes after the seeded `train_nested` run on `Arch::tiny_28()`
/// (checkpoint version 2: the version field and the FNV-1a trailer are
/// part of the bytes).
const TRAINED_CHECKPOINT: u64 = 0xbc8931ab4023aecd;

/// `(wire tag, digest)` of `Message::encode` for each of [`golden_messages`].
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

fn digest_f32(values: &[f32]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// The seeded input batch every logits digest is taken over.
fn golden_input(batch: usize) -> Tensor {
    Tensor::from_fn(&[batch, 1, 28, 28], |i| ((i * 7919) % 251) as f32 / 251.0)
}

#[test]
fn paper_logits_match_golden_digests() {
    let mut model = fresh_paper_fluid(2718);
    let names: Vec<String> = model.specs().iter().map(|s| s.name.clone()).collect();
    let mut got = Vec::new();
    for batch in [1, 16] {
        let x = golden_input(batch);
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
fn int8_logits_match_golden_digests() {
    let mut model = fresh_paper_fluid(2718);
    let spec = model.spec("combined100").expect("spec").clone();
    let calib = calibrate(model.net_mut(), &spec, &calibration_batch());
    let mut qnet = QuantizedNet::from_net(model.net(), &spec, &calib);
    let got: Vec<(usize, u64)> = [1, 16]
        .into_iter()
        .map(|batch| (batch, digest_f32(qnet.forward(&golden_input(batch)).data())))
        .collect();
    let table: String = got
        .iter()
        .map(|(b, d)| format!("\n    ({b}, {d:#018x}),"))
        .collect();
    assert!(
        got == INT8_LOGITS,
        "seeded int8 logits drifted; {UPDATE_RULE}. Got:{table}"
    );
}

#[test]
fn fault_schedule_matches_golden_digest() {
    let spec = FaultSpec {
        drop_p: 0.1,
        duplicate_p: 0.1,
        delay_p: 0.1,
        ..FaultSpec::default()
    };
    let plan = FaultPlan::new(spec, 31337);
    let mut fates = Vec::new();
    for label in FAULT_LABELS {
        let (near, _far) = InProcTransport::pair();
        let mut link = plan.link(label).wrap(near);
        for seq in 0..FAULT_SENDS {
            // Each send's fate is read back as the report's delta:
            // 0 clean, 1 dropped, 2 duplicated, 3 delayed.
            let before = plan.report();
            link.send(&Message::Heartbeat { seq }).expect("send");
            let after = plan.report();
            fates.push(
                u8::from(after.dropped > before.dropped)
                    + 2 * u8::from(after.duplicated > before.duplicated)
                    + 3 * u8::from(after.delayed > before.delayed),
            );
        }
    }
    let got = fnv1a(&fates);
    assert!(
        got == FAULT_SCHEDULE,
        "seeded fault schedule drifted: digest {got:#018x}; {UPDATE_RULE}"
    );
}

#[test]
fn trained_checkpoint_matches_golden_digest() {
    let (model, _) = quick_trained_fluid(4242);
    let mut bytes = Vec::new();
    save_net(model.net(), &mut bytes).expect("save");
    let got = fnv1a(&bytes);
    assert!(
        got == TRAINED_CHECKPOINT,
        "seeded training drifted: checkpoint digest {got:#018x}; {UPDATE_RULE}"
    );
}

#[test]
fn wire_encoding_matches_golden_digests() {
    let messages = golden_messages();
    let got: Vec<(u8, u64)> = messages
        .iter()
        .map(|m| {
            let bytes = m.encode();
            assert_eq!(Message::decode(&bytes).expect("decode"), *m, "round trip");
            (bytes[0], fnv1a(&bytes))
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
