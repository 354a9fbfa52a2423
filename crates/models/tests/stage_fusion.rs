//! Property tests: inference through the fused conv stages gives the
//! logits the layer-by-layer (training) forward gives, and stays
//! bit-identical across kernel thread counts and batch composition — for
//! the f32 `ConvNet` and the int8 `QuantizedNet`.

use fluid_models::{calibrate, Arch, BranchSpec, ConvNet, QuantizedNet, SubnetSpec};
use fluid_nn::ChannelRange;
use fluid_tensor::{pool, Prng, Tensor};
use proptest::prelude::*;
use std::sync::Mutex;

/// The pool's thread knob is process-global; cases must not interleave.
static KNOB: Mutex<()> = Mutex::new(());

/// Two conv stages over even and odd planes (7 → 3 → 1, 5 → 2 → 1: the
/// pool truncates), with non-zero conv biases.
fn net(seed: u64, side: usize) -> (ConvNet, SubnetSpec) {
    let arch = Arch {
        image_side: side,
        ..Arch::tiny()
    };
    let half = arch.ladder.half();
    let spec = SubnetSpec::collective(
        "combined",
        vec![
            BranchSpec::uniform("lower", ChannelRange::prefix(half), arch.conv_stages, true),
            BranchSpec::uniform(
                "upper",
                ChannelRange::new(half, arch.ladder.max()),
                arch.conv_stages,
                false,
            ),
        ],
    );
    let mut rng = Prng::new(seed);
    let mut net = ConvNet::new(arch, &mut rng);
    for conv in net.convs_mut() {
        for b in conv.bias_mut().data_mut() {
            *b = rng.uniform(-0.3, 0.3);
        }
    }
    (net, spec)
}

fn images(seed: u64, batch: usize, side: usize) -> Tensor {
    let mut rng = Prng::new(seed ^ 0x5eed);
    Tensor::from_fn(&[batch, 1, side, side], |_| rng.uniform(0.0, 1.0))
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// `forward` on the whole batch at 1 and 4 kernel threads and on every row
/// alone must agree bit for bit; returns the batched logits.
fn batch_and_thread_invariant(
    x: &Tensor,
    mut forward: impl FnMut(&Tensor) -> Tensor,
) -> Result<Tensor, TestCaseError> {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    pool::override_available_parallelism_for_tests(8);
    pool::set_threads(4);
    let wide = forward(x);
    pool::set_threads(1);
    pool::override_available_parallelism_for_tests(0);
    let batched = forward(x);
    prop_assert_eq!(bits(wide.data()), bits(batched.data()), "1 vs 4 threads");
    let d = x.dims();
    for i in 0..d[0] {
        let row = Tensor::from_vec(x.example(i).to_vec(), &[1, d[1], d[2], d[3]]);
        let alone = forward(&row);
        prop_assert_eq!(bits(alone.data()), bits(batched.example(i)), "row {}", i);
    }
    Ok(batched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn f32_inference_equals_the_training_forward(
        seed in 0u64..1000,
        batch in 1usize..=17,
        side in prop_oneof![Just(28usize), Just(14), Just(7), Just(5)],
    ) {
        let (mut net, spec) = net(seed, side);
        let x = images(seed, batch, side);
        let fused = batch_and_thread_invariant(&x, |x| net.forward_subnet(x, &spec, false))?;
        // A clone, so the layer caches a training forward fills die with it.
        let chain = net.clone().forward_subnet(&x, &spec, true);
        prop_assert!(
            fused.data() == chain.data(),
            "inference and training logits differ (max abs diff {})",
            fused.max_abs_diff(&chain)
        );
    }

    #[test]
    fn int8_inference_is_batch_and_thread_invariant(
        seed in 0u64..1000,
        batch in 1usize..=17,
        side in prop_oneof![Just(28usize), Just(14), Just(7), Just(5)],
    ) {
        let (mut net, spec) = net(seed, side);
        let calib = calibrate(&mut net, &spec, &images(seed ^ 1, 8, side));
        let mut qnet = QuantizedNet::from_net(&net, &spec, &calib);
        let x = images(seed, batch, side);
        batch_and_thread_invariant(&x, |x| qnet.forward(x))?;
    }
}
