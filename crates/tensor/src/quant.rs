//! Per-channel symmetric int8 quantization and the packed int8 GEMM.
//!
//! The quantized inference path runs the same BLIS-style loop nest as the
//! f32 engine, but with `i8` operand panels, `i32` accumulation, and an
//! f32 dequantizing epilogue:
//!
//! * **Weights** (the left operand) are quantized **once**, per output
//!   channel (row), with symmetric scales `s_i = max|row_i| / 127`, and
//!   pre-packed into k-paired panels by [`QuantizedMatrix::from_rows`].
//! * **Activations** (the right operand) are quantized **during packing**
//!   with a single per-tensor scale calibrated offline (see
//!   `fluid_models::calibrate`), reusing the f32 engine's gather paths —
//!   including the implicit-`im2col` [`PatchMatrix`] — so convolution
//!   stays matrix-free in int8 too.
//! * The microkernel ([`crate::simd`], runtime-dispatched like the f32
//!   one) accumulates in `i32`, which is **exact**: no rounding happens
//!   between the quantize and the dequantize, so results are bit-identical
//!   at any thread count, any blocking, and under any dispatch decision —
//!   a strictly stronger determinism claim than the f32 engine's.
//! * The epilogue writes `out[i, j] = acc[i, j] · s_a[i] · s_b` (and the
//!   caller folds in bias afterwards, in f32).
//!
//! ## Packed layout (k-pairs)
//!
//! AVX2's `_mm256_madd_epi16` multiplies adjacent `i16` lanes and adds
//! the pair — two k steps per instruction. Panels are therefore packed in
//! k-pairs: the A panel holds `MR` rows × 2 adjacent k values per step
//! (`a[kk2*2*MR + r*2 + t]`), the B strip [`simd::NR_I8`] columns × 2
//! (`b[kk2*2*NR_I8 + c*2 + t]`); an odd trailing k packs a zero partner,
//! which is exact in integer arithmetic.
//!
//! ## Overflow
//!
//! `|q| ≤ 127`, so one product is ≤ 16129 and an `i32` accumulator is
//! safe for any `k ≤ 2³¹/127² ≈ 133 000` — asserted, and far beyond this
//! workspace's layer sizes.

use crate::gemm::{pack_b_strip, AccessB, PatchMatrix, KC, MR, NC};
use crate::pool;
use crate::simd;
use crate::workspace::Workspace;

/// int8 strip width (fixed across int8 kernel variants).
const NR8: usize = simd::NR_I8;

/// Largest reduction depth the `i32` accumulator provably cannot
/// overflow at (`2³¹ / 127²`, rounded down generously).
pub const MAX_QUANT_K: usize = 130_000;

/// The symmetric per-channel scale for values with the given max
/// magnitude: `max / 127`, with an exact all-zero fallback of 1.0 (every
/// quantized value is then 0 and dequantizes to exactly 0.0).
pub fn symmetric_scale(max_abs: f32) -> f32 {
    if max_abs > 0.0 && max_abs.is_finite() {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Largest magnitude in `xs` (0.0 for an empty slice; NaNs ignored).
pub fn max_abs(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &x| {
        let a = x.abs();
        if a > m {
            a
        } else {
            m
        }
    })
}

/// Quantizes one value: round-to-nearest (ties to even — the rounding
/// `cvtps` performs, so the SIMD quantize pass is bit-identical) of
/// `x / scale` (passed as `inv_scale = 1/scale`), clamped to the
/// symmetric range `[-127, 127]` (−128 is never produced, keeping
/// negation exact). Quantizing a non-finite value is unspecified.
#[inline]
pub fn quantize(x: f32, inv_scale: f32) -> i8 {
    (x * inv_scale).round_ties_even().clamp(-127.0, 127.0) as i8
}

/// A per-row symmetrically quantized matrix, pre-packed for the int8
/// engine: the persistent (weights) side of every quantized product.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    /// k-paired panels, KC-block-major then panel-major (see module docs).
    data: Vec<i8>,
    /// Per-row dequantization scales (`len == m`).
    scales: Vec<f32>,
    m: usize,
    k: usize,
}

impl QuantizedMatrix {
    /// Quantizes a row-major `[m, k]` f32 matrix per row and packs it.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k` or `k > MAX_QUANT_K`.
    pub fn from_rows(a: &[f32], m: usize, k: usize) -> Self {
        assert_eq!(
            a.len(),
            m * k,
            "matrix of {} elements is not [{m}, {k}]",
            a.len()
        );
        assert!(k <= MAX_QUANT_K, "k={k} could overflow the i32 accumulator");
        let scales: Vec<f32> = (0..m)
            .map(|i| symmetric_scale(max_abs(&a[i * k..(i + 1) * k])))
            .collect();
        let panels = m.div_ceil(MR);
        let mut data = Vec::with_capacity(panels * MR * k.div_ceil(2) * 2);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let kc2 = kc.div_ceil(2);
            for p in 0..panels {
                for kk2 in 0..kc2 {
                    for r in 0..MR {
                        for t in 0..2 {
                            let i = p * MR + r;
                            let kidx = pc + kk2 * 2 + t;
                            data.push(if i < m && kidx < pc + kc {
                                quantize(a[i * k + kidx], 1.0 / scales[i])
                            } else {
                                0
                            });
                        }
                    }
                }
            }
            pc += kc;
        }
        Self { data, scales, m, k }
    }

    /// Output rows.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Reduction depth.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Per-row dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Dequantizes element `(i, p)` — test/inspection path, not the hot
    /// one (it walks the packed layout).
    pub fn dequantize_at(&self, i: usize, p: usize) -> f32 {
        assert!(i < self.m && p < self.k);
        let panels = self.m.div_ceil(MR);
        let mut off = 0;
        let mut pc = 0;
        while pc < self.k {
            let kc = KC.min(self.k - pc);
            let kc2 = kc.div_ceil(2);
            if p < pc + kc {
                let rel = p - pc;
                let idx =
                    off + (i / MR) * kc2 * MR * 2 + (rel / 2) * MR * 2 + (i % MR) * 2 + (rel % 2);
                return f32::from(self.data[idx]) * self.scales[i];
            }
            off += panels * kc2 * MR * 2;
            pc += kc;
        }
        unreachable!()
    }
}

/// How the int8 engine reads the f32 activation operand `B[p, j]`
/// (`k × n` logically) before quantize-on-pack.
#[derive(Clone, Copy)]
pub enum QuantSrcB<'a> {
    /// Stored row-major `[k, n]`.
    RowMajor(&'a [f32]),
    /// Stored `[n, k]`, read transposed (the FC layout: rows are
    /// examples, so the product comes out `[out, n]`).
    Cols(&'a [f32]),
    /// An arbitrary strided layout — a [`crate::TensorView`]'s storage
    /// plus its two rank-2 strides, so transposed activations quantize
    /// without materialising.
    Strided {
        /// Base storage; element `B[p, j]` lives at `data[p*rs + j*cs]`.
        data: &'a [f32],
        /// Elements between `B[p, j]` and `B[p+1, j]`.
        rs: usize,
        /// Elements between `B[p, j]` and `B[p, j+1]`.
        cs: usize,
    },
    /// The implicit `im2col` patch matrix (quantized convolution).
    Patches(&'a PatchMatrix<'a>),
}

impl<'a> QuantSrcB<'a> {
    /// Lowers to the shared engine access: every layout is a strided
    /// gather except the patch matrix. `n`/`k` are the logical operand
    /// extents (`B` is `k × n`).
    fn access(self, n: usize, k: usize) -> AccessB<'a> {
        match self {
            QuantSrcB::RowMajor(d) => AccessB::row_major(d, n),
            QuantSrcB::Cols(d) => AccessB::strided(d, 1, k),
            QuantSrcB::Strided { data, rs, cs } => AccessB::strided(data, rs, cs),
            QuantSrcB::Patches(p) => AccessB::Patches(p),
        }
    }
}

/// `out[m × n] = dequant(QA · quant(B))`: the int8 packed-panel GEMM.
///
/// `b_scale` is the activation tensor's calibrated symmetric scale; the
/// right operand is quantized with `1/b_scale` while packing. `out` is
/// fully overwritten. Scratch is drawn from (and recycled into) `ws`, so
/// a steady-state call performs no heap allocation.
///
/// # Panics
///
/// Panics if `out.len() != m * n` or the operand shapes disagree.
pub fn qgemm_ws(
    qa: &QuantizedMatrix,
    b: QuantSrcB<'_>,
    b_scale: f32,
    n: usize,
    out: &mut [f32],
    ws: &mut Workspace,
) {
    let (m, k) = (qa.m, qa.k);
    assert_eq!(
        out.len(),
        m * n,
        "output of {} elements is not [{m}, {n}]",
        out.len()
    );
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let kern = simd::active_i8();
    let kc_max = KC.min(k);
    let nc_cap = NC.min(n.div_ceil(NR8) * NR8);
    let inv_b = 1.0 / b_scale;
    let access = b.access(n, k);

    let qkern = simd::active_quant();
    // Dirty is fine: the first depth block *stores* its tiles, so every
    // accumulator element is written before it is ever read.
    let mut acc32 = ws.take_dirty_i32(m * n);
    let mut b_pack = ws.take_dirty_i8(nc_cap * kc_max.div_ceil(2) * 2);

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let strips = nc.div_ceil(NR8);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let kc2 = kc.div_ceil(2);
            // Gather-and-quantize, fused per strip: each task gathers one
            // f32 strip through the shared engine paths (row-major,
            // transposed, implicit im2col) into a stack buffer — still
            // L1-hot when the dispatched quantize kernel packs it into the
            // k-paired i8 layout. One parallel pass, no f32 scratch heap.
            let q_slice = &mut b_pack[..strips * kc2 * 2 * NR8];
            pool::parallel_rows_mut(q_slice, kc2 * 2 * NR8, 2, |srange, block| {
                let mut f = [0.0f32; KC * NR8];
                for (bi, s) in srange.enumerate() {
                    pack_b_strip(access, n, jc + s * NR8, pc, kc, NR8, &mut f[..kc * NR8]);
                    (qkern.run)(
                        &f[..kc * NR8],
                        kc,
                        inv_b,
                        &mut block[bi * kc2 * 2 * NR8..][..kc2 * 2 * NR8],
                    );
                }
            });

            // Accumulate tiles into the i32 output; exact, so the
            // parallel split over panels is invisible to the results.
            let a_block = qa.block_panels(pc);
            let full_rows = (m / MR) * MR;
            let (head, tail) = acc32.split_at_mut(full_rows * n);
            let q_slice = &b_pack[..strips * kc2 * 2 * NR8];
            let first = pc == 0;
            if !head.is_empty() {
                pool::parallel_rows_mut(head, MR * n, 1, |prange, block| {
                    for (bi, p) in prange.enumerate() {
                        compute_panel_i8(
                            kern,
                            &a_block[p * kc2 * 2 * MR..][..kc2 * 2 * MR],
                            q_slice,
                            &mut block[bi * MR * n..][..MR * n],
                            MR,
                            n,
                            nc,
                            jc,
                            kc2,
                            first,
                        );
                    }
                });
            }
            if !tail.is_empty() {
                let p = full_rows / MR;
                compute_panel_i8(
                    kern,
                    &a_block[p * kc2 * 2 * MR..][..kc2 * 2 * MR],
                    q_slice,
                    tail,
                    m - full_rows,
                    n,
                    nc,
                    jc,
                    kc2,
                    first,
                );
            }
            pc += kc;
        }
        jc += nc;
    }

    // Dequantizing epilogue: one multiply per element, row scales from
    // the weights, one tensor scale from the activations.
    let acc = &acc32[..];
    let scales = &qa.scales[..];
    pool::parallel_rows_mut(out, n, 8, |rows, block| {
        for (bi, i) in rows.enumerate() {
            let s = scales[i] * b_scale;
            let src = &acc[i * n..(i + 1) * n];
            for (o, &v) in block[bi * n..(bi + 1) * n].iter_mut().zip(src) {
                *o = v as f32 * s;
            }
        }
    });

    ws.recycle_i32(acc32);
    ws.recycle_i8(b_pack);
}

impl QuantizedMatrix {
    /// The packed panels of the KC block starting at depth `pc`.
    fn block_panels(&self, pc: usize) -> &[i8] {
        let panels = self.m.div_ceil(MR);
        let mut off = 0;
        let mut start = 0;
        while start < pc {
            let kc = KC.min(self.k - start);
            off += panels * kc.div_ceil(2) * MR * 2;
            start += kc;
        }
        let kc = KC.min(self.k - pc);
        &self.data[off..off + panels * kc.div_ceil(2) * MR * 2]
    }
}

/// One packed i8 A panel against every strip of the current column slice.
/// The first depth block **stores** its exact i32 tiles (letting the
/// accumulator start dirty); later blocks add. Exact either way, so the
/// parallel split over panels is invisible to the results.
#[allow(clippy::too_many_arguments)]
fn compute_panel_i8(
    kern: &simd::KernelI8,
    a_panel: &[i8],
    b_slice: &[i8],
    acc_rows: &mut [i32],
    rows: usize,
    n: usize,
    nc: usize,
    jc: usize,
    kc2: usize,
    first: bool,
) {
    let strips = nc.div_ceil(NR8);
    let mut tile = [0i32; simd::ACC_I8];
    for s in 0..strips {
        let b_strip = &b_slice[s * kc2 * 2 * NR8..][..kc2 * 2 * NR8];
        (kern.run)(a_panel, b_strip, &mut tile);
        let j0 = jc + s * NR8;
        let cols = NR8.min(n - j0).min(nc - s * NR8);
        for r in 0..rows {
            let row = &mut acc_rows[r * n + j0..r * n + j0 + cols];
            let t = &tile[r * NR8..r * NR8 + cols];
            if first {
                row.copy_from_slice(t);
            } else {
                for (o, &v) in row.iter_mut().zip(t) {
                    *o += v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn randv(seed: u64, len: usize, lo: f32, hi: f32) -> Vec<f32> {
        let mut rng = Prng::new(seed);
        (0..len).map(|_| rng.uniform(lo, hi)).collect()
    }

    /// Plain integer reference: quantize both operands the same way, then
    /// an exact i32 triple loop and the dequant epilogue.
    fn reference(
        a: &[f32],
        b_logical: impl Fn(usize, usize) -> f32,
        m: usize,
        k: usize,
        n: usize,
        b_scale: f32,
    ) -> Vec<f32> {
        let scales: Vec<f32> = (0..m)
            .map(|i| symmetric_scale(max_abs(&a[i * k..(i + 1) * k])))
            .collect();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    let qa = i32::from(quantize(a[i * k + p], 1.0 / scales[i]));
                    let qb = i32::from(quantize(b_logical(p, j), 1.0 / b_scale));
                    acc += qa * qb;
                }
                out[i * n + j] = acc as f32 * (scales[i] * b_scale);
            }
        }
        out
    }

    #[test]
    fn round_trip_error_is_within_half_scale_per_channel() {
        // The satellite bound: |x - dequant(quant(x))| ≤ scale/2 for every
        // element, per channel (scales are per-row).
        let (m, k) = (9, 173);
        let a = randv(11, m * k, -3.0, 3.0);
        let qm = QuantizedMatrix::from_rows(&a, m, k);
        for i in 0..m {
            let s = qm.scales()[i];
            for p in 0..k {
                let err = (a[i * k + p] - qm.dequantize_at(i, p)).abs();
                assert!(
                    err <= s / 2.0 + 1e-7,
                    "row {i} depth {p}: err {err} > {}",
                    s / 2.0
                );
            }
        }
    }

    #[test]
    fn zero_row_gets_exact_zero_round_trip() {
        let mut a = randv(3, 4 * 10, -1.0, 1.0);
        for v in &mut a[10..20] {
            *v = 0.0;
        }
        let qm = QuantizedMatrix::from_rows(&a, 4, 10);
        for p in 0..10 {
            assert_eq!(qm.dequantize_at(1, p), 0.0);
        }
    }

    #[test]
    fn qgemm_matches_integer_reference_on_ragged_shapes() {
        // Ragged in every direction, k spanning multiple KC blocks and
        // exercising the odd-k zero partner.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (7, 2 * KC + 37, 19),
            (10, 144, 50),
            (5, 61, 17),
        ] {
            let a = randv(m as u64 + 100, m * k, -2.0, 2.0);
            let b = randv(n as u64 + 200, k * n, -1.5, 1.5);
            let b_scale = symmetric_scale(max_abs(&b));
            let qa = QuantizedMatrix::from_rows(&a, m, k);
            let mut ws = Workspace::new();
            let mut out = vec![f32::NAN; m * n];
            qgemm_ws(&qa, QuantSrcB::RowMajor(&b), b_scale, n, &mut out, &mut ws);
            let want = reference(&a, |p, j| b[p * n + j], m, k, n, b_scale);
            assert_eq!(out, want, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn cols_layout_matches_row_major() {
        let (m, k, n) = (10, 45, 13);
        let a = randv(7, m * k, -1.0, 1.0);
        let b = randv(8, k * n, -1.0, 1.0); // logical [k, n]
        let mut bt = vec![0.0f32; n * k]; // stored [n, k]
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let b_scale = symmetric_scale(max_abs(&b));
        let qa = QuantizedMatrix::from_rows(&a, m, k);
        let mut ws = Workspace::new();
        let mut want = vec![0.0f32; m * n];
        qgemm_ws(&qa, QuantSrcB::RowMajor(&b), b_scale, n, &mut want, &mut ws);
        let mut got = vec![0.0f32; m * n];
        qgemm_ws(&qa, QuantSrcB::Cols(&bt), b_scale, n, &mut got, &mut ws);
        assert_eq!(got, want);
    }

    #[test]
    fn strided_view_layout_matches_row_major() {
        // A transposed TensorView of the activations feeds the same
        // quantize-on-pack path as the named layouts — bit-identically.
        let (m, k, n) = (6, 52, 11);
        let a = randv(21, m * k, -1.0, 1.0);
        let b = randv(22, k * n, -1.0, 1.0); // logical [k, n]
        let bt = crate::tensor::Tensor::from_fn(&[n, k], |i| b[(i % k) * n + i / k]);
        let view = bt.view().transpose(); // logical [k, n] again
        let b_scale = symmetric_scale(max_abs(&b));
        let qa = QuantizedMatrix::from_rows(&a, m, k);
        let mut ws = Workspace::new();
        let mut want = vec![0.0f32; m * n];
        qgemm_ws(&qa, QuantSrcB::RowMajor(&b), b_scale, n, &mut want, &mut ws);
        let mut got = vec![0.0f32; m * n];
        let src = QuantSrcB::Strided {
            data: bt.data(),
            rs: view.strides()[0],
            cs: view.strides()[1],
        };
        qgemm_ws(&qa, src, b_scale, n, &mut got, &mut ws);
        assert_eq!(got, want);
    }

    #[test]
    fn steady_state_qgemm_reuses_scratch() {
        let (m, k, n) = (16, 300, 24);
        let a = randv(6, m * k, -1.0, 1.0);
        let b = randv(7, k * n, -1.0, 1.0);
        let qa = QuantizedMatrix::from_rows(&a, m, k);
        let mut ws = Workspace::new();
        let mut out = vec![0.0f32; m * n];
        qgemm_ws(&qa, QuantSrcB::RowMajor(&b), 0.01, n, &mut out, &mut ws);
        let held = ws.buffers_held();
        assert_eq!(held, 2, "i32 acc + i8 pack must recycle");
        let first = out.clone();
        out.fill(f32::NAN);
        qgemm_ws(&qa, QuantSrcB::RowMajor(&b), 0.01, n, &mut out, &mut ws);
        assert_eq!(ws.buffers_held(), held, "second run must reuse, not grow");
        assert_eq!(out, first, "reuse changed the result");
    }
}
