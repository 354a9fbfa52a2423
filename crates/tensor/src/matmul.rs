//! Dense matrix multiplication on tensors and views.
//!
//! There is exactly **one** matrix-product kernel in this workspace: the
//! packed-panel [`gemm`](crate::gemm) engine, reached through
//! [`Tensor::matmul`] / [`TensorView::matmul`](crate::TensorView::matmul).
//! Transposed products are expressed as products of transposed *views* —
//! `a.view().t().matmul(&b.view())` replaces the old `matmul_at`, and
//! `a.view().matmul(&b.view().t())` replaces `matmul_bt` — because the
//! engine packs operands through arbitrary row/column strides, a
//! transposed layout is not a special case.
//!
//! Each output element's accumulation order is fixed by the engine's `KC`
//! depth blocking alone (never by tile, panel, stride, or thread
//! boundaries), so results are bit-identical at any thread count, for any
//! operand layout, *and* per output row regardless of how many rows are
//! computed together (the serving layer's batching invariant). The kernel
//! is dense and branch-free — a zero in the input costs the same as any
//! other value (see the zero-row test).

use crate::tensor::Tensor;
use crate::workspace::Workspace;

impl Tensor {
    /// Matrix product `self · other` for `[M, K] × [K, N] → [M, N]`.
    ///
    /// For transposed operands, transpose a *view* instead of the data:
    /// `a.view().t().matmul(&b.view())` computes `aᵀ·b` with no copy.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.view().matmul(&other.view())
    }

    /// [`matmul`](Tensor::matmul) with the output buffer and packing
    /// scratch drawn from `ws`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions differ.
    pub fn matmul_ws(&self, other: &Tensor, ws: &mut Workspace) -> Tensor {
        self.view().matmul_ws(&other.view(), ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::KC;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at2(i, p) * b.at2(p, j);
                }
                out.set2(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_fn(&[3, 3], |i| i as f32);
        assert_eq!(a.matmul(&Tensor::eye(3)), a);
        assert_eq!(Tensor::eye(3).matmul(&a), a);
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Tensor::from_fn(&[4, 5], |i| (i as f32 * 0.7).sin());
        let b = Tensor::from_fn(&[5, 3], |i| (i as f32 * 1.3).cos());
        assert!(a.matmul(&b).allclose(&naive_matmul(&a, &b), 1e-5));
    }

    #[test]
    fn matmul_deep_k_crosses_depth_blocks() {
        // k > KC so the depth-blocked accumulation path is exercised.
        let a = Tensor::from_fn(&[3, KC + 37], |i| (i as f32 * 0.3).sin());
        let b = Tensor::from_fn(&[KC + 37, 5], |i| (i as f32 * 0.11).cos());
        assert!(a.matmul(&b).allclose(&naive_matmul(&a, &b), 1e-4));
    }

    #[test]
    fn view_t_matmul_matches_fixed_accumulation_chain() {
        // The bit-identity pin for the deleted `matmul_bt` kernel: the
        // engine's contract says every output accumulates KC-blocked
        // partial sums, each in ascending k order — exactly this serial
        // reference, bit for bit, for any m/n/thread count. The old
        // kernel satisfied it; the transposed-view product must satisfy
        // the *same* chain, so the two are bit-identical by transitivity.
        let (m, k, n) = (3, KC + 197, 11);
        let a = Tensor::from_fn(&[m, k], |i| (i as f32 * 0.013).sin());
        let b = Tensor::from_fn(&[n, k], |i| (i as f32 * 0.029).cos());
        let got = a.view().matmul(&b.view().t());
        for i in 0..m {
            for j in 0..n {
                let mut c = 0.0f32;
                let mut pc = 0;
                while pc < k {
                    let kc = KC.min(k - pc);
                    let mut s = 0.0f32;
                    for p in pc..pc + kc {
                        s += a.at2(i, p) * b.at2(j, p);
                    }
                    c += s;
                    pc += kc;
                }
                assert_eq!(got.at2(i, j), c, "({i},{j}) drifted from the chain");
            }
        }
    }

    #[test]
    fn view_at_matmul_matches_fixed_accumulation_chain() {
        // Same pin for the deleted `matmul_at`: aᵀ·b through a transposed
        // left view reproduces the serial KC chain exactly.
        let (k, m, n) = (KC + 53, 5, 9);
        let a = Tensor::from_fn(&[k, m], |i| (i as f32 * 0.017).sin());
        let b = Tensor::from_fn(&[k, n], |i| (i as f32 * 0.031).cos());
        let got = a.view().t().matmul(&b.view());
        for i in 0..m {
            for j in 0..n {
                let mut c = 0.0f32;
                let mut pc = 0;
                while pc < k {
                    let kc = KC.min(k - pc);
                    let mut s = 0.0f32;
                    for p in pc..pc + kc {
                        s += a.at2(p, i) * b.at2(p, j);
                    }
                    c += s;
                    pc += kc;
                }
                assert_eq!(got.at2(i, j), c, "({i},{j}) drifted from the chain");
            }
        }
    }

    #[test]
    fn view_at_matmul_bit_equals_explicit_transpose() {
        // Stronger than the old allclose: packing from a transposed view
        // reads the same logical elements in the same order as packing a
        // materialised transpose, so the products are bit-identical.
        let a = Tensor::from_fn(&[6, 4], |i| (i as f32).sqrt());
        let b = Tensor::from_fn(&[6, 3], |i| i as f32 * 0.1);
        assert_eq!(a.view().t().matmul(&b.view()), a.transpose().matmul(&b));
    }

    #[test]
    fn view_bt_matmul_bit_equals_explicit_transpose() {
        let a = Tensor::from_fn(&[3, 4], |i| (i as f32).sqrt());
        let b = Tensor::from_fn(&[5, 4], |i| i as f32 * 0.1 - 1.0);
        assert_eq!(a.view().matmul(&b.view().t()), a.matmul(&b.transpose()));
    }

    #[test]
    fn batched_rows_equal_single_row_products() {
        // The serving batching invariant at the kernel level: row i of a
        // batched product is bit-identical to the 1-row product of the
        // same input row.
        let (m, k, n) = (7, 133, 10);
        let a = Tensor::from_fn(&[m, k], |i| (i as f32 * 0.17).sin());
        let b = Tensor::from_fn(&[k, n], |i| (i as f32 * 0.23).cos());
        let batched = a.matmul(&b);
        for i in 0..m {
            let alone = a.slice_rows(i, i + 1).matmul(&b);
            assert_eq!(alone.data(), batched.row(i), "row {i} drifted");
        }
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_dim_mismatch_panics() {
        let _ = Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn matmul_with_zero_rows() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[0, 2]);
    }

    #[test]
    fn matmul_zero_valued_row_yields_zero_output_row() {
        // The kernel is dense (no zero-skip fast path); an all-zero input
        // row must still produce an exactly-zero output row.
        let mut a = Tensor::from_fn(&[3, 4], |i| (i as f32 * 0.7).sin() - 0.4);
        for x in a.data_mut()[4..8].iter_mut() {
            *x = 0.0;
        }
        let b = Tensor::from_fn(&[4, 5], |i| (i as f32 * 1.1).cos());
        let c = a.matmul(&b);
        assert!(c.allclose(&naive_matmul(&a, &b), 1e-5));
        for j in 0..5 {
            assert_eq!(c.at2(1, j), 0.0, "zero row must stay exactly zero");
        }
        // Same property through a transposed-view product.
        let w = Tensor::from_fn(&[2, 4], |i| i as f32 - 3.0);
        let bt = a.view().matmul(&w.view().t());
        for j in 0..2 {
            assert_eq!(bt.at2(1, j), 0.0);
        }
    }

    #[test]
    fn matmul_with_zero_inner_dim_is_zero() {
        let a = Tensor::zeros(&[2, 0]);
        let b = Tensor::zeros(&[0, 3]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 3]);
        assert!(c.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn workspace_variants_match_allocating_kernels() {
        let mut ws = Workspace::new();
        let a = Tensor::from_fn(&[5, 7], |i| (i as f32 * 0.31).sin());
        let b = Tensor::from_fn(&[7, 6], |i| (i as f32 * 0.17).cos());
        let c = Tensor::from_fn(&[5, 6], |i| (i as f32 * 0.23).sin());
        let d = Tensor::from_fn(&[4, 7], |i| (i as f32 * 0.41).cos());
        assert_eq!(a.matmul_ws(&b, &mut ws), a.matmul(&b));
        assert_eq!(
            a.view().t().matmul_ws(&c.view(), &mut ws),
            a.view().t().matmul(&c.view())
        );
        assert_eq!(
            a.view().matmul_ws(&d.view().t(), &mut ws),
            a.view().matmul(&d.view().t())
        );
        // Run twice so the second pass reuses (dirty) recycled buffers.
        let r = a.matmul_ws(&b, &mut ws);
        ws.recycle(r);
        assert_eq!(a.matmul_ws(&b, &mut ws), a.matmul(&b));
    }
}
