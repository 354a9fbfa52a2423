//! Runtime-dispatched SIMD microkernels for the packed-panel GEMM engine.
//!
//! The generic 4×8 microkernel in the GEMM engine autovectorizes
//! well, but leaves width on the table: an AVX2 host has sixteen 256-bit
//! registers, enough for a 4×16 f32 accumulator tile, and `vpmaddubsw`-era
//! integer units that run an int8 dot product at twice the f32 rate. This
//! module holds the explicit `std::arch` variants and the one-time runtime
//! dispatch that picks between them:
//!
//! * **f32 kernels** — scalar 4×8 (the always-correct fallback, identical
//!   to the pre-dispatch autovectorized kernel), AVX2 4×8, AVX2 4×16
//!   (default on AVX2 hosts), and NEON 4×8 on `aarch64`. Each has two
//!   entries over one tile body: `run` streams a packed B strip,
//!   `run_taps` reads B in place through an offset table (the stride-1
//!   convolution forward, which never packs B).
//! * **int8 kernels** — scalar 4×16 and AVX2 4×16 (`_mm256_madd_epi16`
//!   over sign-extended k-pairs), both accumulating in `i32` (exact) —
//!   plus the quantize-strip kernels that pack f32 activations into the
//!   k-paired i8 layout on the fly.
//!
//! Selection happens **once per process** via
//! [`is_x86_feature_detected!`]; `FLUID_FORCE_SCALAR=1` in the
//! environment pins the scalar kernels on any host (the CI scalar leg and
//! the escape hatch if a dispatch bug is ever suspected in production).
//!
//! ## Bit-identity across variants
//!
//! Every f32 variant computes each output element with the *same*
//! rounding sequence as the scalar kernel: one IEEE multiply and one IEEE
//! add per k step, ascending k. The AVX2/NEON kernels therefore use
//! separate `mul`/`add` instructions — **never FMA**, which fuses the pair
//! and changes the rounding — so a dispatched result is bit-identical to
//! the scalar result, not merely close. A wider tile (4×16) only changes
//! *which* output elements are computed together, never any element's
//! chain. The int8 kernels accumulate in `i32`, which is exact, so their
//! agreement is unconditional. The proptests at the bottom of this file
//! pin both claims for every variant the host can run.
//!
//! Unsafe code is confined to this module (and the documented
//! lifetime-erasure in [`pool`](crate::pool)); every `unsafe` block
//! carries a `// SAFETY:` comment, enforced crate-wide by
//! `#![deny(clippy::undocumented_unsafe_blocks)]`.

use std::sync::OnceLock;

/// Microkernel rows (all variants): output rows per accumulator tile.
pub const MR: usize = 4;

/// The widest f32 tile any variant uses (AVX2 4×16).
pub const NR_MAX: usize = 16;

/// f32 accumulator scratch length: one maximal `MR × NR_MAX` tile.
pub const ACC_F32: usize = MR * NR_MAX;

/// int8 tile width (all int8 variants are 4×16: two `madd` lanes of 8
/// columns each, amortizing the A-pair broadcast and B sign-extension).
pub const NR_I8: usize = 16;

/// i32 accumulator scratch length for the int8 tile.
pub const ACC_I8: usize = MR * NR_I8;

/// One f32 microkernel variant: computes a full `MR × nr` tile
/// `acc[r*nr + c] = Σ_k a_panel[k*MR + r] · b_strip[k*nr + c]` from zero
/// (overwriting the first `MR * nr` slots of `acc`).
pub struct KernelF32 {
    /// Dispatch name, e.g. `"avx2_4x16"` (surfaced by [`active_name`]).
    pub name: &'static str,
    /// Tile width: values per k step in the packed B strip.
    pub nr: usize,
    /// The kernel entry point. `a_panel.len() == kc * MR`,
    /// `b_strip.len() == kc * nr`.
    pub run: fn(&[f32], &[f32], &mut [f32; ACC_F32]),
    /// The same tile with B read in place of a packed strip:
    /// `run_taps(a_panel, src, offs, acc)` takes step `k`'s `nr` values
    /// from `src[offs[k]..][..nr]` (bounds-checked), so
    /// `a_panel.len() == offs.len() * MR`. One tile body serves both
    /// entries, so the rounding sequence is the same by construction.
    pub run_taps: TapsFn,
}

/// [`KernelF32::run_taps`]: `(a_panel, src, offs, acc)`.
pub type TapsFn = fn(&[f32], &[f32], &[usize], &mut [f32; ACC_F32]);

/// One int8 microkernel variant: computes a full `MR × NR_I8` i32 tile
/// from k-paired packed panels (see [`crate::quant`] for the layout:
/// `a_panel[kk2*2*MR + r*2 + t]`, `b_strip[kk2*2*NR_I8 + c*2 + t]`).
pub struct KernelI8 {
    /// Dispatch name, e.g. `"avx2_i8_4x16"`.
    pub name: &'static str,
    /// The kernel entry point. Both panels hold `kc2` k-pairs.
    pub run: fn(&[i8], &[i8], &mut [i32; ACC_I8]),
}

/// One quantize-strip variant: converts a gathered `kc × NR_I8` f32 strip
/// (k-major, as `pack_b_strip` writes it) into the k-paired i8 layout the
/// int8 kernels consume. This pass runs over the *whole* activation
/// operand every call, so it is on the quantized path's critical path and
/// worth vectorizing. All variants produce identical bytes for finite
/// inputs (quantizing a NaN is unspecified).
pub struct KernelQuant {
    /// Dispatch name, e.g. `"avx2_quant16"`.
    pub name: &'static str,
    /// `run(src, kc, inv_scale, dst)`: `src.len() >= kc * NR_I8`,
    /// `dst.len() >= kc.div_ceil(2) * 2 * NR_I8`.
    pub run: fn(&[f32], usize, f32, &mut [i8]),
}

// ---------------------------------------------------------------------------
// scalar kernels (the always-correct fallback; autovectorizes on stable)
// ---------------------------------------------------------------------------

/// The pre-dispatch 4×8 kernel, verbatim: separate mul and add per k step,
/// ascending k — the rounding sequence every other variant must reproduce.
fn scalar_f32_4x8<'a>(a_panel: &[f32], b: impl BRows<'a>, acc: &mut [f32; ACC_F32]) {
    let mut tile = [[0.0f32; 8]; MR];
    for (ak, bk) in a_panel.chunks_exact(MR).zip(b.rows(8)) {
        for (row, &av) in tile.iter_mut().zip(ak) {
            for (slot, &bv) in row.iter_mut().zip(&bk[..8]) {
                *slot += av * bv;
            }
        }
    }
    for (r, row) in tile.iter().enumerate() {
        acc[r * 8..r * 8 + 8].copy_from_slice(row);
    }
}

/// Where a tile reads step `k`'s `nr` B values. Each variant's tile body
/// is generic over this, so the packed and the in-place entry share one
/// rounding sequence by construction. The kernel itself asks for the rows
/// (with its constant `nr`), so the iterator is built — and inlined —
/// inside the `#[target_feature]` function.
trait BRows<'a>: Copy {
    fn rows(self, nr: usize) -> impl Iterator<Item = &'a [f32]>;
}

/// A packed k-major strip: step `k` is `strip[k*nr..][..nr]`.
#[derive(Clone, Copy)]
struct Strip<'a>(&'a [f32]);

impl<'a> BRows<'a> for Strip<'a> {
    #[inline(always)]
    fn rows(self, nr: usize) -> impl Iterator<Item = &'a [f32]> {
        self.0.chunks_exact(nr)
    }
}

/// B read in place: step `k` is `src[offs[k]..][..nr]`. The slice is
/// bounds-checked, so a wrong offset table panics instead of reading out
/// of bounds.
#[derive(Clone, Copy)]
struct Taps<'a> {
    src: &'a [f32],
    offs: &'a [usize],
}

impl<'a> BRows<'a> for Taps<'a> {
    #[inline(always)]
    fn rows(self, nr: usize) -> impl Iterator<Item = &'a [f32]> {
        self.offs.iter().map(move |&o| &self.src[o..o + nr])
    }
}

/// Scalar int8 kernel over k-paired panels; `i32` accumulation is exact,
/// so every int8 variant agrees with this one bit-for-bit.
fn scalar_i8_4x16(a_panel: &[i8], b_strip: &[i8], acc: &mut [i32; ACC_I8]) {
    let mut tile = [[0i32; NR_I8]; MR];
    for (ak, bk) in a_panel
        .chunks_exact(2 * MR)
        .zip(b_strip.chunks_exact(2 * NR_I8))
    {
        for (r, row) in tile.iter_mut().enumerate() {
            let a0 = i32::from(ak[r * 2]);
            let a1 = i32::from(ak[r * 2 + 1]);
            for (c, slot) in row.iter_mut().enumerate() {
                *slot += a0 * i32::from(bk[c * 2]) + a1 * i32::from(bk[c * 2 + 1]);
            }
        }
    }
    for (r, row) in tile.iter().enumerate() {
        acc[r * NR_I8..(r + 1) * NR_I8].copy_from_slice(row);
    }
}

pub(crate) static SCALAR_F32: KernelF32 = KernelF32 {
    name: "scalar_4x8",
    nr: 8,
    run: |a, b, acc| scalar_f32_4x8(a, Strip(b), acc),
    run_taps: |a, src, offs, acc| scalar_f32_4x8(a, Taps { src, offs }, acc),
};

pub(crate) static SCALAR_I8: KernelI8 = KernelI8 {
    name: "scalar_i8_4x16",
    run: scalar_i8_4x16,
};

/// Scalar quantize-strip: the reference byte layout every SIMD variant
/// must reproduce (an odd trailing k packs a zero partner).
fn scalar_quant_strip(src: &[f32], kc: usize, inv_scale: f32, dst: &mut [i8]) {
    for kk2 in 0..kc.div_ceil(2) {
        for c in 0..NR_I8 {
            for t in 0..2 {
                let kk = kk2 * 2 + t;
                dst[kk2 * 2 * NR_I8 + c * 2 + t] = if kk < kc {
                    crate::quant::quantize(src[kk * NR_I8 + c], inv_scale)
                } else {
                    0
                };
            }
        }
    }
}

pub(crate) static SCALAR_QUANT: KernelQuant = KernelQuant {
    name: "scalar_quant16",
    run: scalar_quant_strip,
};

// ---------------------------------------------------------------------------
// AVX2 kernels (x86_64, selected when `is_x86_feature_detected!("avx2")`)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{BRows, ACC_F32, ACC_I8, MR, NR_I8};
    use core::arch::x86_64::{
        __m128i, _mm256_add_epi32, _mm256_add_ps, _mm256_broadcastd_epi32, _mm256_castsi256_si128,
        _mm256_cvtepi8_epi16, _mm256_cvtps_epi32, _mm256_extracti128_si256, _mm256_loadu_ps,
        _mm256_madd_epi16, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_setzero_si256, _mm256_storeu_ps, _mm256_storeu_si256,
        _mm_cvtepi8_epi16, _mm_loadl_epi64, _mm_loadu_si128, _mm_packs_epi16, _mm_packs_epi32,
        _mm_shuffle_epi32, _mm_storeu_si128, _mm_unpacklo_epi8,
    };

    /// AVX2 4×8: one `__m256` accumulator per row. Mul then add — not
    /// FMA — so the per-lane rounding sequence matches the scalar kernel.
    ///
    /// # Safety
    ///
    /// Caller must have verified the `avx2` CPU feature.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn f32_4x8<'a>(a_panel: &[f32], b: impl BRows<'a>, acc: &mut [f32; ACC_F32]) {
        let mut c0 = _mm256_setzero_ps();
        let mut c1 = _mm256_setzero_ps();
        let mut c2 = _mm256_setzero_ps();
        let mut c3 = _mm256_setzero_ps();
        for (ak, bk) in a_panel.chunks_exact(MR).zip(b.rows(8)) {
            let bk = &bk[..8];
            // SAFETY: `bk` was just sliced to 8 contiguous f32s.
            let bv = unsafe { _mm256_loadu_ps(bk.as_ptr()) };
            c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(ak[0]), bv));
            c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(ak[1]), bv));
            c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(ak[2]), bv));
            c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(ak[3]), bv));
        }
        // SAFETY: `acc` holds ACC_F32 = 64 f32s; the four stores cover
        // rows at offsets 0, 8, 16, 24 (tile width 8), all in bounds.
        unsafe {
            _mm256_storeu_ps(acc.as_mut_ptr(), c0);
            _mm256_storeu_ps(acc.as_mut_ptr().add(8), c1);
            _mm256_storeu_ps(acc.as_mut_ptr().add(16), c2);
            _mm256_storeu_ps(acc.as_mut_ptr().add(24), c3);
        }
    }

    /// AVX2 4×16: two `__m256` accumulators per row (8 of 16 registers),
    /// halving loop overhead and doubling the work per A-broadcast.
    /// Mul then add, never FMA (see the module docs).
    ///
    /// # Safety
    ///
    /// Caller must have verified the `avx2` CPU feature.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn f32_4x16<'a>(
        a_panel: &[f32],
        b: impl BRows<'a>,
        acc: &mut [f32; ACC_F32],
    ) {
        let mut c0 = _mm256_setzero_ps();
        let mut c1 = _mm256_setzero_ps();
        let mut c2 = _mm256_setzero_ps();
        let mut c3 = _mm256_setzero_ps();
        let mut d0 = _mm256_setzero_ps();
        let mut d1 = _mm256_setzero_ps();
        let mut d2 = _mm256_setzero_ps();
        let mut d3 = _mm256_setzero_ps();
        for (ak, bk) in a_panel.chunks_exact(MR).zip(b.rows(16)) {
            let bk = &bk[..16];
            // SAFETY: `bk` was just sliced to 16 contiguous f32s; the two
            // loads read lanes 0..8 and 8..16.
            let (blo, bhi) = unsafe {
                (
                    _mm256_loadu_ps(bk.as_ptr()),
                    _mm256_loadu_ps(bk.as_ptr().add(8)),
                )
            };
            let a0 = _mm256_set1_ps(ak[0]);
            let a1 = _mm256_set1_ps(ak[1]);
            let a2 = _mm256_set1_ps(ak[2]);
            let a3 = _mm256_set1_ps(ak[3]);
            c0 = _mm256_add_ps(c0, _mm256_mul_ps(a0, blo));
            d0 = _mm256_add_ps(d0, _mm256_mul_ps(a0, bhi));
            c1 = _mm256_add_ps(c1, _mm256_mul_ps(a1, blo));
            d1 = _mm256_add_ps(d1, _mm256_mul_ps(a1, bhi));
            c2 = _mm256_add_ps(c2, _mm256_mul_ps(a2, blo));
            d2 = _mm256_add_ps(d2, _mm256_mul_ps(a2, bhi));
            c3 = _mm256_add_ps(c3, _mm256_mul_ps(a3, blo));
            d3 = _mm256_add_ps(d3, _mm256_mul_ps(a3, bhi));
        }
        // SAFETY: `acc` holds ACC_F32 = 64 f32s; rows are 16 wide, so the
        // eight stores cover offsets 0..64 exactly.
        unsafe {
            _mm256_storeu_ps(acc.as_mut_ptr(), c0);
            _mm256_storeu_ps(acc.as_mut_ptr().add(8), d0);
            _mm256_storeu_ps(acc.as_mut_ptr().add(16), c1);
            _mm256_storeu_ps(acc.as_mut_ptr().add(24), d1);
            _mm256_storeu_ps(acc.as_mut_ptr().add(32), c2);
            _mm256_storeu_ps(acc.as_mut_ptr().add(40), d2);
            _mm256_storeu_ps(acc.as_mut_ptr().add(48), c3);
            _mm256_storeu_ps(acc.as_mut_ptr().add(56), d3);
        }
    }

    /// AVX2 int8 4×16 over k-paired panels: sign-extend 2×16 packed
    /// `i8`s to `i16`, then `_mm256_madd_epi16` computes, per output
    /// column, the exact `i32` sum `a0·b0 + a1·b1` of one k-pair — two
    /// 8-column `madd` lanes per row amortize the A broadcast. `i32`
    /// accumulation is exact, so this agrees with the scalar kernel
    /// unconditionally.
    ///
    /// # Safety
    ///
    /// Caller must have verified the `avx2` CPU feature.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn i8_4x16(a_panel: &[i8], b_strip: &[i8], acc: &mut [i32; ACC_I8]) {
        let mut c0 = _mm256_setzero_si256();
        let mut c1 = _mm256_setzero_si256();
        let mut c2 = _mm256_setzero_si256();
        let mut c3 = _mm256_setzero_si256();
        let mut d0 = _mm256_setzero_si256();
        let mut d1 = _mm256_setzero_si256();
        let mut d2 = _mm256_setzero_si256();
        let mut d3 = _mm256_setzero_si256();
        for (ak, bk) in a_panel
            .chunks_exact(2 * MR)
            .zip(b_strip.chunks_exact(2 * NR_I8))
        {
            // SAFETY: `bk` is exactly 32 contiguous i8s (chunks_exact(32)),
            // two unaligned 128-bit loads; `ak` is exactly 8 contiguous
            // i8s (chunks_exact(8)), a 64-bit load.
            let (blo16, bhi16, av8) = unsafe {
                (
                    _mm_loadu_si128(bk.as_ptr().cast::<__m128i>()),
                    _mm_loadu_si128(bk.as_ptr().add(16).cast::<__m128i>()),
                    _mm_loadl_epi64(ak.as_ptr().cast::<__m128i>()),
                )
            };
            // 16 × i16 each: (b[c][0], b[c][1]) for columns 0..8 / 8..16.
            let blo = _mm256_cvtepi8_epi16(blo16);
            let bhi = _mm256_cvtepi8_epi16(bhi16);
            // Sign-extend all four A k-pairs at once: lane r of `av16`
            // holds (a[r][0], a[r][1]) as two adjacent i16s, so one 32-bit
            // broadcast per row feeds `madd` without scalar re-packing.
            let av16 = _mm_cvtepi8_epi16(av8);
            let p0 = _mm256_broadcastd_epi32(av16);
            let p1 = _mm256_broadcastd_epi32(_mm_shuffle_epi32(av16, 0b01_01_01_01));
            let p2 = _mm256_broadcastd_epi32(_mm_shuffle_epi32(av16, 0b10_10_10_10));
            let p3 = _mm256_broadcastd_epi32(_mm_shuffle_epi32(av16, 0b11_11_11_11));
            c0 = _mm256_add_epi32(c0, _mm256_madd_epi16(p0, blo));
            d0 = _mm256_add_epi32(d0, _mm256_madd_epi16(p0, bhi));
            c1 = _mm256_add_epi32(c1, _mm256_madd_epi16(p1, blo));
            d1 = _mm256_add_epi32(d1, _mm256_madd_epi16(p1, bhi));
            c2 = _mm256_add_epi32(c2, _mm256_madd_epi16(p2, blo));
            d2 = _mm256_add_epi32(d2, _mm256_madd_epi16(p2, bhi));
            c3 = _mm256_add_epi32(c3, _mm256_madd_epi16(p3, blo));
            d3 = _mm256_add_epi32(d3, _mm256_madd_epi16(p3, bhi));
        }
        // SAFETY: `acc` holds ACC_I8 = 64 i32s; rows are 16 wide, so the
        // eight 8-lane stores cover offsets 0..64 exactly.
        unsafe {
            _mm256_storeu_si256(acc.as_mut_ptr().cast(), c0);
            _mm256_storeu_si256(acc.as_mut_ptr().add(8).cast(), d0);
            _mm256_storeu_si256(acc.as_mut_ptr().add(16).cast(), c1);
            _mm256_storeu_si256(acc.as_mut_ptr().add(24).cast(), d1);
            _mm256_storeu_si256(acc.as_mut_ptr().add(32).cast(), c2);
            _mm256_storeu_si256(acc.as_mut_ptr().add(40).cast(), d2);
            _mm256_storeu_si256(acc.as_mut_ptr().add(48).cast(), c3);
            _mm256_storeu_si256(acc.as_mut_ptr().add(56).cast(), d3);
        }
    }

    /// AVX2 quantize-strip: two k-rows (8 f32 each) per iteration —
    /// scale, clamp to ±127, `cvtps` (round-to-nearest-even, matching the
    /// scalar `quantize`), narrow through saturating packs (lossless for
    /// in-range values), and a byte interleave that lands the pair layout
    /// `(k0, k1)` per column directly.
    ///
    /// # Safety
    ///
    /// Caller must have verified the `avx2` CPU feature.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quant_strip(src: &[f32], kc: usize, inv_scale: f32, dst: &mut [i8]) {
        assert!(src.len() >= kc * NR_I8, "short f32 strip");
        assert!(dst.len() >= kc.div_ceil(2) * 2 * NR_I8, "short i8 strip");
        let vinv = _mm256_set1_ps(inv_scale);
        let vlo = _mm256_set1_ps(-127.0);
        let vhi = _mm256_set1_ps(127.0);
        for kk2 in 0..kc / 2 {
            // Two 8-column halves per 16-wide strip row pair.
            for half in 0..NR_I8 / 8 {
                // SAFETY: kk2 < kc/2, so rows 2·kk2 and 2·kk2+1 are < kc;
                // each 8-f32 load starts at column `half*8 ≤ NR_I8 - 8`
                // inside its row, staying inside `src` (length asserted).
                let (r0, r1) = unsafe {
                    (
                        _mm256_loadu_ps(src.as_ptr().add(kk2 * 2 * NR_I8 + half * 8)),
                        _mm256_loadu_ps(src.as_ptr().add((kk2 * 2 + 1) * NR_I8 + half * 8)),
                    )
                };
                // Clamp before the convert: for finite values this
                // commutes with rounding (±127 are exactly representable),
                // and it keeps the saturating packs below lossless.
                let q0 = _mm256_cvtps_epi32(_mm256_max_ps(
                    vlo,
                    _mm256_min_ps(vhi, _mm256_mul_ps(r0, vinv)),
                ));
                let q1 = _mm256_cvtps_epi32(_mm256_max_ps(
                    vlo,
                    _mm256_min_ps(vhi, _mm256_mul_ps(r1, vinv)),
                ));
                let a16 =
                    _mm_packs_epi32(_mm256_castsi256_si128(q0), _mm256_extracti128_si256(q0, 1));
                let b16 =
                    _mm_packs_epi32(_mm256_castsi256_si128(q1), _mm256_extracti128_si256(q1, 1));
                let inter = _mm_unpacklo_epi8(_mm_packs_epi16(a16, a16), _mm_packs_epi16(b16, b16));
                // SAFETY: the store writes the 16 interleaved bytes of
                // columns half*8..half*8+8 at k-pair kk2 — bytes
                // kk2*2*NR_I8 + half*16 .. +16, inside `dst` (asserted).
                unsafe {
                    _mm_storeu_si128(
                        dst.as_mut_ptr().add(kk2 * 2 * NR_I8 + half * 16).cast(),
                        inter,
                    )
                };
            }
        }
        if kc % 2 == 1 {
            let kk = kc - 1;
            for c in 0..NR_I8 {
                dst[(kc / 2) * 2 * NR_I8 + c * 2] =
                    crate::quant::quantize(src[kk * NR_I8 + c], inv_scale);
                dst[(kc / 2) * 2 * NR_I8 + c * 2 + 1] = 0;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_f32_4x8(a: &[f32], b: &[f32], acc: &mut [f32; ACC_F32]) {
    // SAFETY: this entry is only ever installed by `select_f32` /
    // `host_variants_f32` after `is_x86_feature_detected!("avx2")`.
    unsafe { x86::f32_4x8(a, Strip(b), acc) }
}

#[cfg(target_arch = "x86_64")]
fn avx2_f32_4x8_taps(a: &[f32], src: &[f32], offs: &[usize], acc: &mut [f32; ACC_F32]) {
    // SAFETY: as for `avx2_f32_4x8`.
    unsafe { x86::f32_4x8(a, Taps { src, offs }, acc) }
}

#[cfg(target_arch = "x86_64")]
fn avx2_f32_4x16(a: &[f32], b: &[f32], acc: &mut [f32; ACC_F32]) {
    // SAFETY: this entry is only ever installed by `select_f32` /
    // `host_variants_f32` after `is_x86_feature_detected!("avx2")`.
    unsafe { x86::f32_4x16(a, Strip(b), acc) }
}

#[cfg(target_arch = "x86_64")]
fn avx2_f32_4x16_taps(a: &[f32], src: &[f32], offs: &[usize], acc: &mut [f32; ACC_F32]) {
    // SAFETY: as for `avx2_f32_4x16`.
    unsafe { x86::f32_4x16(a, Taps { src, offs }, acc) }
}

#[cfg(target_arch = "x86_64")]
fn avx2_i8_4x16(a: &[i8], b: &[i8], acc: &mut [i32; ACC_I8]) {
    // SAFETY: this entry is only ever installed by `select_i8` /
    // `host_variants_i8` after `is_x86_feature_detected!("avx2")`.
    unsafe { x86::i8_4x16(a, b, acc) }
}

#[cfg(target_arch = "x86_64")]
pub(crate) static AVX2_F32_4X8: KernelF32 = KernelF32 {
    name: "avx2_4x8",
    nr: 8,
    run: avx2_f32_4x8,
    run_taps: avx2_f32_4x8_taps,
};

#[cfg(target_arch = "x86_64")]
pub(crate) static AVX2_F32_4X16: KernelF32 = KernelF32 {
    name: "avx2_4x16",
    nr: 16,
    run: avx2_f32_4x16,
    run_taps: avx2_f32_4x16_taps,
};

#[cfg(target_arch = "x86_64")]
fn avx2_quant_strip(src: &[f32], kc: usize, inv_scale: f32, dst: &mut [i8]) {
    // SAFETY: this entry is only ever installed by `select_quant` /
    // `host_variants_quant` after `is_x86_feature_detected!("avx2")`.
    unsafe { x86::quant_strip(src, kc, inv_scale, dst) }
}

#[cfg(target_arch = "x86_64")]
pub(crate) static AVX2_I8_4X16: KernelI8 = KernelI8 {
    name: "avx2_i8_4x16",
    run: avx2_i8_4x16,
};

#[cfg(target_arch = "x86_64")]
pub(crate) static AVX2_QUANT: KernelQuant = KernelQuant {
    name: "avx2_quant16",
    run: avx2_quant_strip,
};

// ---------------------------------------------------------------------------
// NEON kernel (aarch64; the feature is part of the baseline ABI)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{BRows, ACC_F32, MR};
    use core::arch::aarch64::{vaddq_f32, vdupq_n_f32, vld1q_f32, vmulq_f32, vst1q_f32};

    /// NEON 4×8: two 4-lane accumulators per row. `vmulq`/`vaddq`, not
    /// `vfmaq`, to keep the scalar kernel's rounding sequence.
    ///
    /// # Safety
    ///
    /// Caller must have verified the `neon` CPU feature (baseline on
    /// aarch64, but the contract is stated for symmetry with AVX2).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn f32_4x8<'a>(a_panel: &[f32], b: impl BRows<'a>, acc: &mut [f32; ACC_F32]) {
        let mut tile = [vdupq_n_f32(0.0); 8]; // rows × (lo, hi)
        for (ak, bk) in a_panel.chunks_exact(MR).zip(b.rows(8)) {
            let bk = &bk[..8];
            // SAFETY: `bk` was just sliced to 8 contiguous f32s.
            let (blo, bhi) = unsafe { (vld1q_f32(bk.as_ptr()), vld1q_f32(bk.as_ptr().add(4))) };
            for r in 0..MR {
                let av = vdupq_n_f32(ak[r]);
                tile[r * 2] = vaddq_f32(tile[r * 2], vmulq_f32(av, blo));
                tile[r * 2 + 1] = vaddq_f32(tile[r * 2 + 1], vmulq_f32(av, bhi));
            }
        }
        for r in 0..MR {
            // SAFETY: `acc` holds ACC_F32 = 64 f32s; rows are 8 wide, so
            // offsets r*8 and r*8+4 stay within the first 32 slots.
            unsafe {
                vst1q_f32(acc.as_mut_ptr().add(r * 8), tile[r * 2]);
                vst1q_f32(acc.as_mut_ptr().add(r * 8 + 4), tile[r * 2 + 1]);
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
fn neon_f32_4x8(a: &[f32], b: &[f32], acc: &mut [f32; ACC_F32]) {
    // SAFETY: NEON is part of the aarch64 baseline ABI, so the feature is
    // always present when this cfg compiles.
    unsafe { arm::f32_4x8(a, Strip(b), acc) }
}

#[cfg(target_arch = "aarch64")]
fn neon_f32_4x8_taps(a: &[f32], src: &[f32], offs: &[usize], acc: &mut [f32; ACC_F32]) {
    // SAFETY: as for `neon_f32_4x8`.
    unsafe { arm::f32_4x8(a, Taps { src, offs }, acc) }
}

#[cfg(target_arch = "aarch64")]
pub(crate) static NEON_F32_4X8: KernelF32 = KernelF32 {
    name: "neon_4x8",
    nr: 8,
    run: neon_f32_4x8,
    run_taps: neon_f32_4x8_taps,
};

// ---------------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------------

/// True when `FLUID_FORCE_SCALAR=1` pins the scalar kernels.
pub fn forced_scalar() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| std::env::var("FLUID_FORCE_SCALAR").as_deref() == Ok("1"))
}

fn select_f32() -> &'static KernelF32 {
    if forced_scalar() {
        return &SCALAR_F32;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return &AVX2_F32_4X16;
    }
    #[cfg(target_arch = "aarch64")]
    return &NEON_F32_4X8;
    #[allow(unreachable_code)]
    &SCALAR_F32
}

fn select_i8() -> &'static KernelI8 {
    if forced_scalar() {
        return &SCALAR_I8;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return &AVX2_I8_4X16;
    }
    #[allow(unreachable_code)]
    &SCALAR_I8
}

/// The f32 kernel every GEMM in this process dispatches to, selected once.
pub(crate) fn active_f32() -> &'static KernelF32 {
    static ACTIVE: OnceLock<&'static KernelF32> = OnceLock::new();
    ACTIVE.get_or_init(select_f32)
}

/// The int8 kernel the quantized path dispatches to, selected once.
pub(crate) fn active_i8() -> &'static KernelI8 {
    static ACTIVE: OnceLock<&'static KernelI8> = OnceLock::new();
    ACTIVE.get_or_init(select_i8)
}

fn select_quant() -> &'static KernelQuant {
    if forced_scalar() {
        return &SCALAR_QUANT;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return &AVX2_QUANT;
    }
    #[allow(unreachable_code)]
    &SCALAR_QUANT
}

/// The quantize-strip kernel the activation pack dispatches to.
pub(crate) fn active_quant() -> &'static KernelQuant {
    static ACTIVE: OnceLock<&'static KernelQuant> = OnceLock::new();
    ACTIVE.get_or_init(select_quant)
}

/// The dispatch decision, e.g. `"avx2_4x16+avx2_i8_4x16"` — for logs,
/// bench metadata, and `fluidctl` banners.
pub fn active_name() -> String {
    format!("{}+{}", active_f32().name, active_i8().name)
}

/// Every f32 variant this host can execute (always includes scalar).
/// Used by the bit-identity proptests and the bench's variant sweep.
pub fn host_variants_f32() -> Vec<&'static KernelF32> {
    #[allow(unused_mut)]
    let mut v = vec![&SCALAR_F32];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        v.push(&AVX2_F32_4X8);
        v.push(&AVX2_F32_4X16);
    }
    #[cfg(target_arch = "aarch64")]
    v.push(&NEON_F32_4X8);
    v
}

/// Every int8 variant this host can execute (always includes scalar).
#[cfg(test)]
pub(crate) fn host_variants_i8() -> Vec<&'static KernelI8> {
    #[allow(unused_mut)]
    let mut v = vec![&SCALAR_I8];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        v.push(&AVX2_I8_4X16);
    }
    v
}

/// Every quantize-strip variant this host can execute.
#[cfg(test)]
pub(crate) fn host_variants_quant() -> Vec<&'static KernelQuant> {
    #[allow(unused_mut)]
    let mut v = vec![&SCALAR_QUANT];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        v.push(&AVX2_QUANT);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn rand_panels(seed: u64, kc: usize, nr: usize) -> (Vec<f32>, Vec<f32>) {
        let mut rng = Prng::new(seed);
        let a = (0..kc * MR).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b = (0..kc * nr).map(|_| rng.uniform(-1.0, 1.0)).collect();
        (a, b)
    }

    /// Scalar reference for an MR × nr tile at any width, mirroring the
    /// scalar kernel's exact operation order.
    fn reference_tile(a: &[f32], b: &[f32], kc: usize, nr: usize) -> Vec<f32> {
        let mut acc = vec![0.0f32; MR * nr];
        for kk in 0..kc {
            for r in 0..MR {
                let av = a[kk * MR + r];
                for c in 0..nr {
                    acc[r * nr + c] += av * b[kk * nr + c];
                }
            }
        }
        acc
    }

    #[test]
    fn every_f32_variant_is_bit_identical_to_scalar() {
        for kern in host_variants_f32() {
            for kc in [0, 1, 2, 3, 7, 64, 255, 256] {
                let (a, b) = rand_panels(kc as u64 + 1, kc, kern.nr);
                let mut acc = [f32::NAN; ACC_F32];
                (kern.run)(&a, &b, &mut acc);
                let want = reference_tile(&a, &b, kc, kern.nr);
                assert_eq!(
                    &acc[..MR * kern.nr],
                    &want[..],
                    "kernel {} diverged at kc={kc}",
                    kern.name
                );
            }
        }
    }

    #[test]
    fn every_f32_taps_tile_equals_the_packed_tile() {
        // Overlapping, unordered offsets into one source: the in-place
        // entry must equal the packed entry on the strip those offsets
        // gather, bit for bit.
        let mut rng = Prng::new(5);
        let src: Vec<f32> = (0..200).map(|_| rng.uniform(-1.0, 1.0)).collect();
        for kern in host_variants_f32() {
            for kc in [0, 1, 9, 144, 256] {
                let (a, _) = rand_panels(kc as u64 + 3, kc, kern.nr);
                let offs: Vec<usize> = (0..kc).map(|k| (k * 37) % (200 - kern.nr + 1)).collect();
                let strip: Vec<f32> = offs
                    .iter()
                    .flat_map(|&o| src[o..o + kern.nr].iter().copied())
                    .collect();
                let mut want = [f32::NAN; ACC_F32];
                (kern.run)(&a, &strip, &mut want);
                let mut got = [f32::NAN; ACC_F32];
                (kern.run_taps)(&a, &src, &offs, &mut got);
                assert_eq!(
                    &got[..MR * kern.nr],
                    &want[..MR * kern.nr],
                    "kernel {} taps tile diverged at kc={kc}",
                    kern.name
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn a_tap_past_the_source_panics() {
        let kern = active_f32();
        let src = vec![0.0f32; kern.nr + 3];
        let mut acc = [0.0f32; ACC_F32];
        (kern.run_taps)(&[1.0; MR], &src, &[4], &mut acc);
    }

    #[test]
    fn every_i8_variant_matches_exact_integer_reference() {
        let mut rng = Prng::new(99);
        for kern in host_variants_i8() {
            for kc2 in [0usize, 1, 2, 5, 64, 128] {
                let a: Vec<i8> = (0..kc2 * 2 * MR)
                    .map(|_| rng.uniform(-127.0, 127.0) as i8)
                    .collect();
                let b: Vec<i8> = (0..kc2 * 2 * NR_I8)
                    .map(|_| rng.uniform(-127.0, 127.0) as i8)
                    .collect();
                let mut acc = [i32::MAX; ACC_I8];
                (kern.run)(&a, &b, &mut acc);
                let mut want = [0i32; ACC_I8];
                for kk2 in 0..kc2 {
                    for r in 0..MR {
                        for c in 0..NR_I8 {
                            for t in 0..2 {
                                want[r * NR_I8 + c] += i32::from(a[kk2 * 2 * MR + r * 2 + t])
                                    * i32::from(b[kk2 * 2 * NR_I8 + c * 2 + t]);
                            }
                        }
                    }
                }
                assert_eq!(acc, want, "kernel {} diverged at kc2={kc2}", kern.name);
            }
        }
    }

    #[test]
    fn every_quant_variant_produces_identical_bytes() {
        // Values spanning well past the clamp range so saturation paths
        // are exercised; odd and even kc so the zero-partner tail is too.
        let mut rng = Prng::new(7);
        for kern in host_variants_quant() {
            for kc in [0usize, 1, 2, 3, 7, 64, 255, 256] {
                let src: Vec<f32> = (0..kc * NR_I8)
                    .map(|_| rng.uniform(-300.0, 300.0))
                    .collect();
                let kc2 = kc.div_ceil(2);
                let mut got = vec![i8::MIN; kc2 * 2 * NR_I8];
                (kern.run)(&src, kc, 1.0, &mut got);
                let mut want = vec![i8::MIN; kc2 * 2 * NR_I8];
                (SCALAR_QUANT.run)(&src, kc, 1.0, &mut want);
                assert_eq!(got, want, "kernel {} diverged at kc={kc}", kern.name);
            }
        }
        // Ties land on even neighbours (the cvtps rounding the scalar
        // path must match): 0.5 → 0, 1.5 → 2, -2.5 → -2.
        let edge = [0.5f32, 1.5, -2.5, 126.5, 127.5, -127.5, 3.0, -3.0];
        let want_edge = [0i8, 2, -2, 126, 127, -127, 3, -3];
        let src: Vec<f32> = (0..NR_I8).map(|c| edge[c % edge.len()]).collect();
        for kern in host_variants_quant() {
            let mut got = vec![0i8; 2 * NR_I8];
            (kern.run)(&src, 1, 1.0, &mut got);
            let vals: Vec<i8> = (0..NR_I8).map(|c| got[c * 2]).collect();
            let want: Vec<i8> = (0..NR_I8).map(|c| want_edge[c % edge.len()]).collect();
            assert_eq!(vals, want, "{}", kern.name);
        }
    }

    #[test]
    fn dispatch_is_stable_and_named() {
        assert!(std::ptr::eq(active_f32(), active_f32()));
        let name = active_name();
        assert!(name.contains("4x"), "odd dispatch name {name}");
        // The active kernels must be host variants.
        assert!(host_variants_f32()
            .iter()
            .any(|k| std::ptr::eq(*k, active_f32())));
        assert!(host_variants_i8()
            .iter()
            .any(|k| std::ptr::eq(*k, active_i8())));
    }

    #[test]
    fn forced_scalar_env_selects_scalar() {
        // `forced_scalar` caches the env var once; the selection logic is
        // tested directly against both states via `select_*`'s contract:
        // when the flag is cached as set, both selectors return scalar.
        if forced_scalar() {
            assert!(std::ptr::eq(active_f32(), &SCALAR_F32));
            assert!(std::ptr::eq(active_i8(), &SCALAR_I8));
        } else {
            // Dispatched mode: scalar must still be among host variants so
            // the forced path is always executable.
            assert!(host_variants_f32()
                .iter()
                .any(|k| std::ptr::eq(*k, &SCALAR_F32)));
        }
    }
}
