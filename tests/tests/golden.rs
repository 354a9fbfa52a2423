//! Golden digests: committed fingerprints of the model's numerics.
//!
//! Every kernel in this workspace promises bit-identical results at any
//! thread count and on every dispatched microkernel, so the exact bits of
//! a seeded forward pass and of a seeded training run are stable facts of
//! the code. These tests pin them as FNV-1a 64-bit digests over each
//! value's `to_bits` little-endian bytes (checkpoint bytes are digested
//! as-is). A refactor that claims to be bit-neutral passes unchanged; one
//! that moves a single bit anywhere in the forward or training path fails
//! here instead of drifting silently.
//!
//! Run on the dispatched kernels and under `FLUID_FORCE_SCALAR=1`: both
//! legs must read the same digests.

use fluid_integration_tests::{fresh_paper_fluid, quick_trained_fluid};
use fluid_models::save_net;
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

/// `save_net` bytes after the seeded `train_nested` run on `Arch::tiny_28()`.
const TRAINED_CHECKPOINT: u64 = 0xd50b5337f688a6c1;

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
