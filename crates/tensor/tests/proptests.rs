//! Property-based tests for the tensor kernels.

use fluid_tensor::{col2im, im2col, Conv2dGeometry, Prng, Tensor};
use proptest::prelude::*;

fn arb_tensor(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |v| Tensor::from_vec(v, &[r, c]))
    })
}

proptest! {
    #[test]
    fn matmul_identity_right(a in arb_tensor(8)) {
        let id = Tensor::eye(a.dim(1));
        prop_assert!(a.matmul(&id).allclose(&a, 1e-5));
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in arb_tensor(6),
        seed in 0u64..1000,
    ) {
        let mut rng = Prng::new(seed);
        let k = a.dim(1);
        let b = Tensor::from_fn(&[k, 4], |_| rng.uniform(-5.0, 5.0));
        let c = Tensor::from_fn(&[k, 4], |_| rng.uniform(-5.0, 5.0));
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.allclose(&rhs, 1e-2), "diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn transposed_lhs_view_matmul_consistent(a in arb_tensor(6), seed in 0u64..1000) {
        // A zero-copy transposed view must multiply bit-identically to the
        // materialised transpose: packing reads the same logical elements
        // in the same order either way.
        let mut rng = Prng::new(seed);
        let b = Tensor::from_fn(&[a.dim(0), 3], |_| rng.uniform(-5.0, 5.0));
        let lhs = a.view().t().matmul(&b.view());
        let rhs = a.transpose().matmul(&b);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn transposed_rhs_view_matmul_consistent(a in arb_tensor(6), seed in 0u64..1000) {
        let mut rng = Prng::new(seed);
        let b = Tensor::from_fn(&[3, a.dim(1)], |_| rng.uniform(-5.0, 5.0));
        let lhs = a.view().matmul(&b.view().t());
        let rhs = a.matmul(&b.transpose());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn transposed_both_view_matmul_consistent(a in arb_tensor(6), seed in 0u64..1000) {
        let mut rng = Prng::new(seed);
        let b = Tensor::from_fn(&[3, a.dim(0)], |_| rng.uniform(-5.0, 5.0));
        let lhs = a.view().t().matmul(&b.view().t());
        let rhs = a.transpose().matmul(&b.transpose());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn batched_fc_rows_equal_single_row_products(x in arb_tensor(8), seed in 0u64..1000) {
        // The FC layer's `x · Wᵀ` call shape: row i of the batched product
        // is bit-identical to the product of row i alone.
        let mut rng = Prng::new(seed);
        let w = Tensor::from_fn(&[5, x.dim(1)], |_| rng.uniform(-5.0, 5.0));
        let batched = x.view().matmul(&w.view().t());
        for i in 0..x.dim(0) {
            let alone = x.slice_rows(i, i + 1).view().matmul(&w.view().t());
            prop_assert_eq!(alone.data(), batched.row(i));
        }
    }

    #[test]
    fn rows_and_example_window_the_storage(a in arb_tensor(8), lo in 0usize..8, len in 0usize..8) {
        let (n, f) = (a.dim(0), a.dim(1));
        let lo = lo.min(n);
        let hi = (lo + len).min(n);
        let want: Vec<f32> = (lo..hi).flat_map(|r| (0..f).map(move |c| (r, c))).map(|(r, c)| a.at2(r, c)).collect();
        prop_assert_eq!(a.rows(lo, hi), &want[..]);
        if lo < n {
            prop_assert_eq!(a.example(lo), a.rows(lo, lo + 1));
        }
    }

    #[test]
    fn transpose_involution(a in arb_tensor(10)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_are_distributions(a in arb_tensor(8)) {
        let s = a.softmax_rows();
        for r in 0..s.dim(0) {
            let sum: f32 = (0..s.dim(1)).map(|c| s.at2(r, c)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            for c in 0..s.dim(1) {
                prop_assert!(s.at2(r, c) >= 0.0);
            }
        }
    }

    #[test]
    fn softmax_shift_invariant(a in arb_tensor(6), shift in -50.0f32..50.0) {
        let shifted = a.map(|x| x + shift);
        prop_assert!(a.softmax_rows().allclose(&shifted.softmax_rows(), 1e-4));
    }

    #[test]
    fn slice_cat_roundtrip(
        n in 1usize..3, c in 2usize..6, hw in 1usize..5, split in 1usize..5, seed in 0u64..100,
    ) {
        let split = split.min(c - 1);
        let mut rng = Prng::new(seed);
        let t = Tensor::from_fn(&[n, c, hw, hw], |_| rng.uniform(-1.0, 1.0));
        let lo = t.slice_channels(0, split);
        let hi = t.slice_channels(split, c);
        prop_assert_eq!(Tensor::cat_channels(&[&lo, &hi]), t);
    }

    #[test]
    fn im2col_col2im_adjoint(
        h in 3usize..7, w in 3usize..7, c in 1usize..3, pad in 0usize..2, seed in 0u64..100,
    ) {
        let geo = Conv2dGeometry::new(h, w, 3, 1, pad);
        let mut rng = Prng::new(seed);
        let x = Tensor::from_fn(&[1, c, h, w], |_| rng.uniform(-1.0, 1.0));
        let rows = c * 9;
        let cols_n = geo.out_positions();
        let y = Tensor::from_fn(&[rows, cols_n], |_| rng.uniform(-1.0, 1.0));
        let lhs: f32 = im2col(&x, &geo).data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(col2im(&y, &geo, c, 1).data()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));
    }

    #[test]
    fn argmax_picks_maximum(a in arb_tensor(8)) {
        let idx = a.argmax_rows();
        for (r, &i) in idx.iter().enumerate() {
            for c in 0..a.dim(1) {
                prop_assert!(a.at2(r, i) >= a.at2(r, c));
            }
        }
    }

    #[test]
    fn prng_uniform_bounds(seed in 0u64..10_000, lo in -100.0f32..0.0, width in 0.1f32..100.0) {
        let mut rng = Prng::new(seed);
        let x = rng.uniform(lo, lo + width);
        prop_assert!(x >= lo && x < lo + width);
    }
}
