//! Property tests: the fused inference stage (`forward_stage_ws`: conv →
//! bias → ReLU → 2×2 max-pool in one epilogue) equals the layer chain it
//! replaces, element for element, for f32 and int8 — at any kernel thread
//! count, and row by row of a batch.

use fluid_nn::{ChannelRange, MaxPool2d, QuantConv2d, RangedConv2d, Relu};
use fluid_tensor::{pool, Prng, Tensor, Workspace};
use proptest::prelude::*;
use std::sync::Mutex;

/// The pool's thread knob is process-global; cases must not interleave.
static KNOB: Mutex<()> = Mutex::new(());

/// Even and odd planes: the pool truncates odd extents.
const SIDES: [usize; 4] = [28, 14, 7, 5];

/// One conv window over a random input, with non-zero biases.
struct Case {
    conv: RangedConv2d,
    in_range: ChannelRange,
    out_range: ChannelRange,
    x: Tensor,
}

impl Case {
    fn new(seed: u64, batch: usize, side: usize, ranges: [usize; 4]) -> Case {
        let [in_lo, in_w, out_lo, out_w] = ranges;
        let mut rng = Prng::new(seed);
        let mut conv = RangedConv2d::new(16, 6, 3, 1, 1, &mut rng);
        for b in conv.bias_mut().data_mut() {
            *b = rng.uniform(-0.5, 0.5);
        }
        Case {
            conv,
            in_range: ChannelRange::new(in_lo, in_lo + in_w),
            out_range: ChannelRange::new(out_lo, out_lo + out_w),
            x: Tensor::from_fn(&[batch, in_w, side, side], |_| rng.uniform(-1.0, 1.0)),
        }
    }

    fn quantized(&self) -> QuantConv2d {
        let scale = fluid_tensor::quant::symmetric_scale(1.0);
        let mut ws = Workspace::new();
        QuantConv2d::from_ranged(&self.conv, self.in_range, self.out_range, scale, &mut ws)
    }

    /// Row `i` of the input as a batch of one.
    fn row(&self, i: usize) -> Tensor {
        let d = self.x.dims();
        Tensor::from_vec(self.x.example(i).to_vec(), &[1, d[1], d[2], d[3]])
    }
}

fn relu_pool(conv_out: &Tensor, ws: &mut Workspace) -> Tensor {
    let activated = Relu::new().forward_ws(conv_out, false, ws);
    MaxPool2d::new(2, 2).forward_ws(&activated, false, ws)
}

/// Checks `fused` against `chain` on the whole batch at 1 and 4 kernel
/// threads (with enough pretend cores that the queued fan-out really
/// runs), then each row alone against its row of the batch.
fn check(
    case: &Case,
    fused: impl Fn(&Tensor, &mut Workspace) -> Tensor,
    chain: impl Fn(&Tensor, &mut Workspace) -> Tensor,
) -> Result<(), TestCaseError> {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    pool::override_available_parallelism_for_tests(8);
    let mut ws = Workspace::new();
    let mut outputs = Vec::new();
    for threads in [1, 4] {
        pool::set_threads(threads);
        let got = fused(&case.x, &mut ws);
        let want = chain(&case.x, &mut ws);
        outputs.push((threads, got, want));
    }
    pool::set_threads(1);
    pool::override_available_parallelism_for_tests(0);
    for (threads, got, want) in &outputs {
        prop_assert_eq!(got.dims(), want.dims());
        // `==` on f32: the sign of an exact zero is the one permitted
        // difference.
        prop_assert!(
            got.data() == want.data(),
            "fused stage differs from the layer chain at {} threads (max abs diff {})",
            threads,
            got.max_abs_diff(want)
        );
    }
    let batched = &outputs[0].1;
    let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(
        bits(batched.data()),
        bits(outputs[1].1.data()),
        "fused stage is not bit-identical across thread counts"
    );
    for i in 0..case.x.dims()[0] {
        let alone = fused(&case.row(i), &mut ws);
        prop_assert_eq!(
            bits(alone.data()),
            bits(batched.example(i)),
            "row {} alone differs from row {} of the batch",
            i,
            i
        );
    }
    Ok(())
}

/// `[in_lo, in_width, out_lo, out_width]` inside a 6-in / 16-out layer.
fn ranges() -> impl Strategy<Value = [usize; 4]> {
    (0usize..3, 1usize..=3, 0usize..8, 1usize..=8).prop_map(|(a, b, c, d)| [a, b, c, d])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn f32_stage_equals_conv_relu_pool(
        seed in 0u64..1000,
        batch in 1usize..=17,
        side in 0usize..SIDES.len(),
        ranges in ranges(),
    ) {
        let case = Case::new(seed, batch, SIDES[side], ranges);
        let (i, o) = (case.in_range, case.out_range);
        check(
            &case,
            |x, ws| case.conv.forward_stage_ws(x, i, o, ws),
            |x, ws| {
                let conv_out = case.conv.clone().forward_ws(x, i, o, false, ws);
                relu_pool(&conv_out, ws)
            },
        )?;
    }

    #[test]
    fn int8_stage_equals_conv_relu_pool(
        seed in 0u64..1000,
        batch in 1usize..=17,
        side in 0usize..SIDES.len(),
        ranges in ranges(),
    ) {
        let case = Case::new(seed, batch, SIDES[side], ranges);
        let qconv = case.quantized();
        check(
            &case,
            |x, ws| qconv.forward_stage_ws(x, ws),
            |x, ws| relu_pool(&qconv.forward_ws(x, ws), ws),
        )?;
    }
}
