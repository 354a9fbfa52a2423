//! Property tests: every parallel kernel is **bit-identical** to the serial
//! reference (`FLUID_THREADS=1`) at thread counts 1, 2 and 8.
//!
//! This is the compute-kernel layer's central guarantee (see
//! `docs/PERFORMANCE.md`): the packed-GEMM engine fixes every output
//! element's accumulation chain by the `KC` depth blocking alone, and all
//! other kernels are row-partitioned, so chunk boundaries never change any
//! floating-point accumulation order. The tests run each kernel under
//! every thread count and require *exact* equality of the output buffers —
//! no tolerance. The visible-core override forces the real queued fan-out
//! path even on single-core CI hosts, so cross-thread execution (not just
//! chunk layout) is what's exercised.

use fluid_tensor::quant::{qgemm_ws, QuantSrcB, QuantizedMatrix};
use fluid_tensor::{
    col2im, conv_gemm_dw_ws, conv_gemm_fwd_with, conv_gemm_fwd_ws, im2col, pool, simd,
    Conv2dGeometry, PatchMatrix, Prng, Tensor, Workspace, KC, MR, NR,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// The pool's thread knob is process-global; tests that sweep it must not
/// interleave.
static KNOB: Mutex<()> = Mutex::new(());

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs `f` under each thread count (with enough pretend cores that the
/// queued fan-out path really runs) and asserts the outputs match the
/// single-thread result exactly.
fn assert_thread_invariant(f: impl Fn() -> Tensor) -> Result<(), TestCaseError> {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    pool::override_available_parallelism_for_tests(8);
    let mut reference: Option<Tensor> = None;
    for &t in &THREAD_COUNTS {
        pool::set_threads(t);
        let got = f();
        match &reference {
            None => reference = Some(got),
            Some(want) => {
                if got != *want {
                    pool::set_threads(1);
                    pool::override_available_parallelism_for_tests(0);
                    return Err(TestCaseError::fail(format!(
                        "kernel output at {t} threads differs from serial reference \
                         (max abs diff {})",
                        got.max_abs_diff(want)
                    )));
                }
            }
        }
    }
    pool::set_threads(1);
    pool::override_available_parallelism_for_tests(0);
    Ok(())
}

fn random_tensor(seed: u64, dims: &[usize]) -> Tensor {
    let mut rng = Prng::new(seed);
    Tensor::from_fn(dims, |_| rng.uniform(-1.0, 1.0))
}

/// Shapes deliberately misaligned with the GEMM engine's panel constants:
/// degenerate rows/columns (`1×N`, `M×1`), extents straddling `MR`/`NR`
/// panel edges, depths below, at, and just past the `KC` block — every
/// case where edge-panel handling could diverge from the interior path.
fn ragged_gemm_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        // (m, k, n)
        (1, 17, 260),             // single output row
        (13, 9, 1),               // single output column
        (MR + 1, 3, NR + 1),      // one ragged edge panel each way
        (MR - 1, KC, NR - 1),     // sub-panel output, k exactly one block
        (2 * MR, KC - 1, 2 * NR), // k just under the block
        (7, KC + 1, 19),          // k just over the block (two-block chains)
        (16, 2 * KC + 5, 12),     // three-block chains, aligned m
        (5, 2, 3),                // k smaller than any panel constant
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn matmul_is_thread_count_invariant(seed in 0u64..1000, m in 1usize..24, k in 1usize..48, n in 1usize..600) {
        let a = random_tensor(seed, &[m, k]);
        let b = random_tensor(seed ^ 1, &[k, n]);
        assert_thread_invariant(|| a.matmul(&b))?;
    }

    #[test]
    fn transposed_lhs_view_matmul_is_thread_count_invariant(seed in 0u64..1000, k in 1usize..32, m in 1usize..24, n in 1usize..200) {
        let a = random_tensor(seed, &[k, m]);
        let b = random_tensor(seed ^ 2, &[k, n]);
        assert_thread_invariant(|| a.view().t().matmul(&b.view()))?;
    }

    #[test]
    fn transposed_rhs_view_matmul_is_thread_count_invariant(seed in 0u64..1000, m in 1usize..16, k in 1usize..300, n in 1usize..24) {
        let a = random_tensor(seed, &[m, k]);
        let b = random_tensor(seed ^ 3, &[n, k]);
        assert_thread_invariant(|| a.view().matmul(&b.view().t()))?;
    }

    #[test]
    fn ragged_gemm_shapes_are_thread_count_invariant(seed in 0u64..1000) {
        // All three layouts (dense, Aᵀ view, Bᵀ view) over every
        // deliberately-misaligned shape.
        for (i, (m, k, n)) in ragged_gemm_shapes().into_iter().enumerate() {
            let s = seed.wrapping_add(i as u64 * 101);
            let a = random_tensor(s, &[m, k]);
            let b = random_tensor(s ^ 1, &[k, n]);
            assert_thread_invariant(|| a.matmul(&b))?;
            let a_t = random_tensor(s ^ 2, &[k, m]);
            assert_thread_invariant(|| a_t.view().t().matmul(&b.view()))?;
            let b_t = random_tensor(s ^ 3, &[n, k]);
            assert_thread_invariant(|| a.view().matmul(&b_t.view().t()))?;
        }
    }

    #[test]
    fn strided_window_view_matmul_is_thread_count_invariant(
        seed in 0u64..1000,
        m in 1usize..16,
        k in 1usize..48,
        n in 1usize..120,
        pad in 1usize..7,
    ) {
        // Non-contiguous operands: interior column windows of wider
        // buffers, so every packed row is read at a row stride larger than
        // the logical width. The engine must still fix each element's
        // accumulation chain by (k, KC) alone.
        let a_wide = random_tensor(seed, &[m, k + 2 * pad]);
        let b_wide = random_tensor(seed ^ 11, &[k, n + pad]);
        let a = a_wide.view().narrow(1, pad, k).unwrap();
        let b = b_wide.view().narrow(1, 0, n).unwrap();
        assert_thread_invariant(|| a.matmul(&b))?;
        // The same windows through the transposed path.
        assert_thread_invariant(|| b.t().matmul(&a.t()))?;
    }

    #[test]
    fn broadcast_elementwise_is_thread_count_invariant(
        seed in 0u64..1000,
        n in 1usize..40,
        f in 1usize..2000,
    ) {
        // Stride-0 broadcast reads through the parallel gather path: a
        // [f] bias over [n, f] rows and a [n, 1] column over the same.
        let x = random_tensor(seed, &[n, f]);
        let bias = random_tensor(seed ^ 12, &[f]);
        let col = random_tensor(seed ^ 13, &[n, 1]);
        assert_thread_invariant(|| x.view().add(&bias.view()).unwrap())?;
        assert_thread_invariant(|| x.view().mul(&col.view().broadcast_to(&[n, f]).unwrap()).unwrap())?;
        assert_thread_invariant(|| {
            let mut acc = x.clone();
            acc.add_assign_broadcast(&bias.view()).unwrap();
            acc
        })?;
    }

    #[test]
    fn int8_qgemm_is_thread_count_invariant(seed in 0u64..1000) {
        // The quantized path accumulates in exact i32 arithmetic, so its
        // guarantee is even stronger than the f32 engine's: any thread
        // count, any blocking. Pin it over the same misaligned shapes.
        for (i, (m, k, n)) in ragged_gemm_shapes().into_iter().enumerate() {
            let s = seed.wrapping_add(i as u64 * 211);
            let a = random_tensor(s, &[m, k]);
            let b = random_tensor(s ^ 9, &[k, n]);
            let qa = QuantizedMatrix::from_rows(a.data(), m, k);
            assert_thread_invariant(|| {
                let mut out = vec![0.0f32; m * n];
                qgemm_ws(
                    &qa,
                    QuantSrcB::RowMajor(b.data()),
                    1.0 / 127.0,
                    n,
                    &mut out,
                    &mut Workspace::new(),
                );
                Tensor::from_vec(out, &[m, n])
            })?;
        }
    }

    #[test]
    fn implicit_conv_gemm_is_thread_count_invariant(
        seed in 0u64..1000,
        batch in 1usize..4,
        c_in in 1usize..5,
        c_out in 1usize..6,
        side in 4usize..10,
        pad in 0usize..2,
    ) {
        // The implicit-GEMM convolution paths (forward and dW), straight
        // through PatchMatrix packing — ragged in every dimension for most
        // draws (c_out vs MR, positions vs NR, C·K·K vs KC).
        let geo = Conv2dGeometry::new(side, side, 3, 1, pad);
        let x = random_tensor(seed, &[batch, c_in, side, side]);
        let ckk = c_in * 9;
        let np = batch * geo.out_positions();
        let wmat = random_tensor(seed ^ 7, &[c_out, ckk]);
        assert_thread_invariant(|| {
            let patches = PatchMatrix::new(x.data(), batch, c_in, geo);
            conv_gemm_fwd_ws(&wmat, &patches, &mut Workspace::new())
        })?;
        let g = random_tensor(seed ^ 8, &[c_out, np]);
        assert_thread_invariant(|| {
            let patches = PatchMatrix::new(x.data(), batch, c_in, geo);
            conv_gemm_dw_ws(&g, &patches, &mut Workspace::new())
        })?;
    }

    #[test]
    fn in_place_conv_is_bit_identical_to_the_packed_paths(
        seed in 0u64..1000,
        batch in 1usize..4,
        c_in in 1usize..6,
        c_out in 1usize..10,
        h in 1usize..10,
        w in 1usize..10,
        pad in 0usize..3,
        kernel in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        deep in any::<bool>(),
    ) {
        // Stride-1 forward read in place from the zero-bordered image vs
        // the same product through `AccessB::Patches` packing vs a plain
        // matmul over the materialised patch matrix: one accumulation
        // chain, so exact equality — for every kernel the host can run, at
        // 1/2/8 threads, ragged in every extent, with `k = C·K·K` on both
        // sides of `KC` (`deep` lifts it just past one block).
        let c_in = c_in + if deep { KC / (kernel * kernel) } else { 0 };
        let h = h.max(kernel.saturating_sub(2 * pad));
        let w = w.max(kernel.saturating_sub(2 * pad));
        let geo = Conv2dGeometry::new(h, w, kernel, 1, pad);
        let x = random_tensor(seed, &[batch, c_in, h, w]);
        let wmat = random_tensor(seed ^ 21, &[c_out, c_in * kernel * kernel]);
        let want = wmat.matmul(&im2col(&x, &geo));
        for kern in simd::host_variants_f32() {
            for in_place in [true, false] {
                let run = || {
                    let patches = PatchMatrix::new(x.data(), batch, c_in, geo);
                    conv_gemm_fwd_with(kern, in_place, &wmat, &patches, &mut Workspace::new())
                };
                assert_thread_invariant(run)?;
                prop_assert!(
                    run() == want,
                    "kernel {} (in_place {in_place}) differs from matmul over im2col",
                    kern.name
                );
            }
        }
    }

    #[test]
    fn im2col_and_col2im_are_thread_count_invariant(
        seed in 0u64..1000,
        batch in 1usize..5,
        c in 1usize..5,
        side in 4usize..12,
        pad in 0usize..2,
    ) {
        let geo = Conv2dGeometry::new(side, side, 3, 1, pad);
        let x = random_tensor(seed, &[batch, c, side, side]);
        assert_thread_invariant(|| im2col(&x, &geo))?;
        let cols = random_tensor(
            seed ^ 4,
            &[c * 9, batch * geo.out_positions()],
        );
        assert_thread_invariant(|| col2im(&cols, &geo, c, batch))?;
    }

    #[test]
    fn reduces_are_thread_count_invariant(seed in 0u64..1000, n in 1usize..40, f in 1usize..80) {
        let x = random_tensor(seed, &[n, f]);
        assert_thread_invariant(|| x.sum_rows())?;
        assert_thread_invariant(|| x.softmax_rows())?;
        let img = random_tensor(seed ^ 5, &[n.min(6), f.clamp(1, 8), 5, 5]);
        assert_thread_invariant(|| img.sum_per_channel())?;
    }

    #[test]
    fn elementwise_is_thread_count_invariant(seed in 0u64..1000, len in 1usize..20000) {
        let a = random_tensor(seed, &[len]);
        let b = random_tensor(seed ^ 6, &[len]);
        assert_thread_invariant(|| a.add(&b))?;
        assert_thread_invariant(|| a.mul(&b))?;
        assert_thread_invariant(|| a.relu())?;
        assert_thread_invariant(|| {
            let mut acc = a.clone();
            acc.axpy(0.37, &b);
            acc
        })?;
    }

    #[test]
    fn argmax_is_thread_count_invariant(seed in 0u64..1000, n in 1usize..200, f in 1usize..12) {
        let x = random_tensor(seed, &[n, f]);
        let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        pool::override_available_parallelism_for_tests(8);
        let mut reference: Option<Vec<usize>> = None;
        for &t in &THREAD_COUNTS {
            pool::set_threads(t);
            let got = x.argmax_rows();
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    if &got != want {
                        pool::set_threads(1);
                        pool::override_available_parallelism_for_tests(0);
                        prop_assert_eq!(&got, want, "threads {}", t);
                    }
                }
            }
        }
        pool::set_threads(1);
        pool::override_available_parallelism_for_tests(0);
    }
}

/// A batched GEMM's row must be bit-identical to the same row computed in
/// a 1-row GEMM — the end-to-end property the serving layer's "batching
/// never changes answers" contract reduces to, here checked at a ragged
/// batch size under a multi-thread knob.
#[test]
fn batched_gemm_rows_match_single_row_gemm_under_threads() {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    pool::override_available_parallelism_for_tests(8);
    pool::set_threads(8);
    let (m, k, n) = (MR + 3, KC + 11, 2 * NR + 5);
    let a = random_tensor(11, &[m, k]);
    let b = random_tensor(12, &[k, n]);
    let batched = a.matmul(&b);
    for i in 0..m {
        let row = Tensor::from_vec(a.row(i).to_vec(), &[1, k]);
        let alone = row.matmul(&b);
        assert_eq!(alone.data(), batched.row(i), "row {i} depends on batch");
    }
    pool::set_threads(1);
    pool::override_available_parallelism_for_tests(0);
}
