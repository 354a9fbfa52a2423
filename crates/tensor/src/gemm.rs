//! The packed-panel GEMM engine behind every matrix product in this crate.
//!
//! This is a BLIS-style design (see `docs/PERFORMANCE.md`): operands are
//! first *packed* into cache-resident panels drawn from a [`Workspace`],
//! then a blocked loop nest drives an unrolled [`MR`]×`nr` microkernel
//! chosen **once per process** by [`crate::simd`]'s runtime CPU-feature
//! dispatch (AVX2 4×16 on modern x86, NEON on aarch64, the scalar 4×8
//! fallback everywhere else or under `FLUID_FORCE_SCALAR=1`). One engine
//! serves every operand layout: both sides are packed through arbitrary
//! row/column strides ([`AccessA`]/[`AccessB::Strided`]), so dense
//! matrices, transposed or sliced [`crate::TensorView`]s, stride-0
//! broadcast rows, and the implicit-`im2col` patch matrix used by
//! convolution all inherit the same performance and the same determinism
//! argument. (The old `matmul_at`/`matmul_bt` entry points are gone —
//! a transposed view *is* the strided layout they special-cased.)
//!
//! One product skips the B pack: a **stride-1 convolution forward** reads
//! the patch matrix in place from a zero-bordered copy of the image
//! (`InPlaceConv`, behind [`conv_gemm_fwd_ws`]) — same A panels, same
//! `KC` blocks, same chains, so the same bits, without a gather that
//! `m = 16` output channels could never amortise.
//!
//! ## Loop structure
//!
//! ```text
//! for jc in steps of NC:                 // column slice (B stays in L2)
//!   for pc in steps of KC:               // depth slice (fixes FP order)
//!     pack B[pc.., jc..] into nr-column strips   (parallel over strips)
//!     pack A[.., pc..]   into MR-row panels      (parallel over panels)
//!     for each MR-row panel:             // parallel over panels
//!       for each nr-column strip:
//!         acc[MR][nr] = 0
//!         for kk in 0..kc: acc += a_panel[kk] ⊗ b_strip[kk]   // microkernel
//!         C[panel rows, strip cols] += acc
//! ```
//!
//! `nr` is the dispatched kernel's tile width ([`NR`] = 8 for the scalar
//! fallback, 16 for the AVX2 4×16 kernel); it decides how strips are cut,
//! never how any element is computed.
//!
//! ## Determinism
//!
//! Each output element's floating-point accumulation chain is
//!
//! ```text
//! c = ((0 + s₀) + s₁) + …   where   s_b = Σ_{kk in KC-block b, ascending} a·b
//! ```
//!
//! — fully determined by `k` and the [`KC`] constant alone. Parallelism
//! only ever splits the *output* (row panels, column strips); no thread
//! boundary, panel size, tile width, or edge case changes any element's
//! chain. Every dispatched SIMD variant reproduces the scalar kernel's
//! mul-then-add rounding sequence exactly (no FMA — see [`crate::simd`]).
//! Results are therefore bit-identical at any thread count *and under any
//! dispatch decision*, and a row of a batched product is bit-identical to
//! the same row computed alone (the serving layer's batching invariant).

use crate::im2col::Conv2dGeometry;
use crate::pool;
use crate::simd::{self, KernelF32};
use crate::workspace::Workspace;

/// Microkernel rows: output rows accumulated together in registers
/// (shared by every dispatched variant).
pub const MR: usize = 4;

/// The scalar microkernel's tile width; the packed strip width follows the
/// *dispatched* kernel (8 or 16) at run time, so treat this constant as
/// the minimum, not the layout law.
pub const NR: usize = 8;

/// Depth blocking: the k-extent of one packed A-panel/B-strip pair. This
/// constant *fixes the accumulation chain* (see the module docs) — change
/// it and every GEMM result changes in the last bits.
pub const KC: usize = 256;

/// Column blocking: one packed B slice is at most `NC` columns wide
/// (`NC × KC × 4` bytes ≈ 1 MiB) so it survives in cache across row panels.
pub const NC: usize = 1024;

/// How the engine reads the left operand `A[i, p]` (`m × k` logically):
/// a base slice plus arbitrary row/column strides, so row-major storage
/// (`rs = k, cs = 1`), a transposed view (`rs = 1, cs = m`), a sliced
/// window, or a stride-0 broadcast row all pack through one gather.
#[derive(Clone, Copy)]
pub(crate) struct AccessA<'a> {
    data: &'a [f32],
    /// Elements between `A[i, p]` and `A[i+1, p]`.
    rs: usize,
    /// Elements between `A[i, p]` and `A[i, p+1]`.
    cs: usize,
}

impl<'a> AccessA<'a> {
    /// An arbitrary strided layout — the seam every [`crate::TensorView`]
    /// reaches GEMM through.
    pub(crate) fn strided(data: &'a [f32], rs: usize, cs: usize) -> Self {
        Self { data, rs, cs }
    }

    /// Dense row-major `[m, k]` storage (`a[i*k + p]`).
    pub(crate) fn row_major(data: &'a [f32], k: usize) -> Self {
        Self { data, rs: k, cs: 1 }
    }
}

/// How the engine reads the right operand `B[p, j]` (`k × n` logically).
#[derive(Clone, Copy)]
pub(crate) enum AccessB<'a> {
    /// A base slice plus arbitrary row/column strides: row-major storage
    /// is `rs = n, cs = 1` (packed with a contiguous-copy fast path), a
    /// transposed view is `rs = 1, cs = k`, and sliced or broadcast
    /// layouts fall out of the same two numbers.
    Strided {
        /// Base storage; element `B[p, j]` lives at `data[p*rs + j*cs]`.
        data: &'a [f32],
        /// Elements between `B[p, j]` and `B[p+1, j]`.
        rs: usize,
        /// Elements between `B[p, j]` and `B[p, j+1]`.
        cs: usize,
    },
    /// The implicit `im2col` patch matrix `[c·k·k, n·oh·ow]` — elements
    /// are gathered straight from the image during packing.
    Patches(&'a PatchMatrix<'a>),
    /// The transpose of the patch matrix (`[n·oh·ow, c·k·k]`), used by the
    /// convolution weight-gradient GEMM.
    PatchesT(&'a PatchMatrix<'a>),
}

impl<'a> AccessB<'a> {
    /// An arbitrary strided layout.
    pub(crate) fn strided(data: &'a [f32], rs: usize, cs: usize) -> Self {
        AccessB::Strided { data, rs, cs }
    }

    /// Dense row-major `[k, n]` storage (`b[p*n + j]`).
    pub(crate) fn row_major(data: &'a [f32], n: usize) -> Self {
        AccessB::Strided { data, rs: n, cs: 1 }
    }
}

/// `out[m × n] += A · B`, with `out` pre-zeroed by the caller.
///
/// Packing scratch is drawn from (and recycled into) `ws`; in steady state
/// the call performs no heap allocation.
pub(crate) fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: AccessA<'_>,
    b: AccessB<'_>,
    out: &mut [f32],
    ws: &mut Workspace,
) {
    gemm_with(simd::active_f32(), m, n, k, a, b, out, ws);
}

/// [`gemm`] pinned to one microkernel variant — the dispatch seam. The
/// public entry uses the host's selected kernel; tests drive every variant
/// through here to pin cross-variant bit-identity.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_with(
    kern: &KernelF32,
    m: usize,
    n: usize,
    k: usize,
    a: AccessA<'_>,
    b: AccessB<'_>,
    out: &mut [f32],
    ws: &mut Workspace,
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return; // an empty reduction leaves the zero-initialised output
    }
    let nr = kern.nr;
    let panels = m.div_ceil(MR);
    let kc_max = KC.min(k);
    let nc_max = NC.min(n.div_ceil(nr) * nr);
    let mut a_pack = ws.take_dirty(panels * MR * kc_max);
    let mut b_pack = ws.take_dirty(nc_max * kc_max);

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let strips = nc.div_ceil(nr);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let b_slice = &mut b_pack[..strips * kc * nr];
            pool::parallel_rows_mut(b_slice, kc * nr, 2, |srange, block| {
                for (bi, s) in srange.enumerate() {
                    pack_b_strip(
                        b,
                        n,
                        jc + s * nr,
                        pc,
                        kc,
                        nr,
                        &mut block[bi * kc * nr..][..kc * nr],
                    );
                }
            });
            let b_slice = &b_pack[..strips * kc * nr];
            for_each_panel(a, m, pc, kc, &mut a_pack, out, |a_panel, c_rows, rows| {
                compute_panel(kern, a_panel, b_slice, c_rows, rows, n, nc, jc, kc);
            });
            pc += kc;
        }
        jc += nc;
    }
    ws.recycle_vec(a_pack);
    ws.recycle_vec(b_pack);
}

/// Packs depth block `pc..pc+kc` of A into `a_pack` (parallel over
/// panels), then hands every `MR`-row panel of `out` to
/// `panel(a_panel, c_rows, rows)` with its packed A panel.
///
/// Full panels fan out over the pool; the ragged tail panel (if any) runs
/// on the calling thread afterwards. Both use identical packed data, so
/// the split is invisible to the accumulation chains.
fn for_each_panel(
    a: AccessA<'_>,
    m: usize,
    pc: usize,
    kc: usize,
    a_pack: &mut [f32],
    out: &mut [f32],
    panel: impl Fn(&[f32], &mut [f32], usize) + Sync,
) {
    let n = out.len() / m;
    let a_slice = &mut a_pack[..m.div_ceil(MR) * kc * MR];
    pool::parallel_rows_mut(a_slice, kc * MR, 2, |prange, block| {
        for (bi, p) in prange.enumerate() {
            pack_a_panel(a, m, p * MR, pc, kc, &mut block[bi * kc * MR..][..kc * MR]);
        }
    });
    let a_slice = &*a_slice;
    let full_rows = (m / MR) * MR;
    let (head, tail) = out.split_at_mut(full_rows * n);
    if !head.is_empty() {
        pool::parallel_rows_mut(head, MR * n, 1, |prange, block| {
            for (bi, p) in prange.enumerate() {
                let c_rows = &mut block[bi * MR * n..][..MR * n];
                panel(&a_slice[p * kc * MR..][..kc * MR], c_rows, MR);
            }
        });
    }
    if !tail.is_empty() {
        panel(&a_slice[full_rows * kc..][..kc * MR], tail, m - full_rows);
    }
}

/// One packed A panel (`kc` steps × `MR` rows, k-major) against every
/// B strip of the current column slice, accumulating into `rows` rows of
/// the output block starting at column `jc`. The accumulator tile comes
/// from the dispatched microkernel.
#[allow(clippy::too_many_arguments)]
fn compute_panel(
    kern: &KernelF32,
    a_panel: &[f32],
    b_slice: &[f32],
    c_rows: &mut [f32],
    rows: usize,
    n: usize,
    nc: usize,
    jc: usize,
    kc: usize,
) {
    let nr = kern.nr;
    let strips = nc.div_ceil(nr);
    let mut acc = [0.0f32; simd::ACC_F32];
    for s in 0..strips {
        let b_strip = &b_slice[s * kc * nr..][..kc * nr];
        (kern.run)(a_panel, b_strip, &mut acc);
        let j0 = jc + s * nr;
        let cols = nr.min(n - j0).min(nc - s * nr);
        for r in 0..rows {
            let c_row = &mut c_rows[r * n + j0..r * n + j0 + cols];
            for (c, a) in c_row.iter_mut().zip(&acc[r * nr..r * nr + cols]) {
                *c += a;
            }
        }
    }
}

/// Packs `MR` rows of A starting at row `i0`, depth `pc..pc+kc`, k-major
/// (`MR` consecutive values per k step). Rows past `m` pack as zero, so
/// edge panels run the full microkernel and discard the dead lanes.
///
/// One gather covers every layout: logical element `A[i, p]` lives at
/// `data[i*rs + p*cs]`, so row-major, transposed, sliced, and stride-0
/// broadcast views differ only in the two stride constants.
fn pack_a_panel(a: AccessA<'_>, m: usize, i0: usize, pc: usize, kc: usize, dst: &mut [f32]) {
    let AccessA { data, rs, cs } = a;
    if i0 + MR <= m {
        for kk in 0..kc {
            let kbase = (pc + kk) * cs;
            for r in 0..MR {
                dst[kk * MR + r] = data[(i0 + r) * rs + kbase];
            }
        }
    } else {
        let live = MR.min(m - i0);
        for kk in 0..kc {
            let kbase = (pc + kk) * cs;
            let d = &mut dst[kk * MR..kk * MR + MR];
            for (r, slot) in d.iter_mut().enumerate() {
                *slot = if r < live {
                    data[(i0 + r) * rs + kbase]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs one `nr`-column strip of B starting at column `j0`, depth
/// `pc..pc+kc`, k-major (`nr` consecutive values per k step). Columns past
/// `n` pack as zero.
pub(crate) fn pack_b_strip(
    b: AccessB<'_>,
    n: usize,
    j0: usize,
    pc: usize,
    kc: usize,
    nr: usize,
    dst: &mut [f32],
) {
    match b {
        AccessB::Strided { data, rs, cs } => {
            if cs == 1 && j0 + nr <= n {
                // Unit column stride and a full strip: each k step is one
                // contiguous copy — the dense row-major hot path.
                for kk in 0..kc {
                    let base = (pc + kk) * rs + j0;
                    dst[kk * nr..kk * nr + nr].copy_from_slice(&data[base..base + nr]);
                }
            } else {
                for kk in 0..kc {
                    let kbase = (pc + kk) * rs;
                    for (c, slot) in dst[kk * nr..kk * nr + nr].iter_mut().enumerate() {
                        let j = j0 + c;
                        *slot = if j < n { data[kbase + j * cs] } else { 0.0 };
                    }
                }
            }
        }
        AccessB::Patches(p) => p.pack_strip(j0, pc, kc, nr, dst),
        AccessB::PatchesT(p) => p.pack_strip_t(j0, pc, kc, nr, dst),
    }
}

/// The `im2col` patch matrix of an `[N, C, H, W]` image batch, *never
/// materialised*: the GEMM engine gathers `KC × NR` blocks of it straight
/// from the image while packing (implicit GEMM). Logical shape is
/// `[C·K·K, N·OH·OW]` — identical, element for element, to
/// [`im2col`](crate::im2col::im2col).
pub struct PatchMatrix<'a> {
    src: &'a [f32],
    batch: usize,
    channels: usize,
    geo: Conv2dGeometry,
    oh: usize,
    ow: usize,
}

impl<'a> PatchMatrix<'a> {
    /// Describes the patch matrix of `input` (`[N, C, H, W]` data) under
    /// `geo`. `input` is borrowed; nothing is computed until the engine
    /// packs from it.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` disagrees with `batch · channels` planes of
    /// `geo`'s input extent.
    pub fn new(input: &'a [f32], batch: usize, channels: usize, geo: Conv2dGeometry) -> Self {
        assert_eq!(
            input.len(),
            batch * channels * geo.in_h * geo.in_w,
            "input of {} elements is not [{batch}, {channels}, {}, {}]",
            input.len(),
            geo.in_h,
            geo.in_w
        );
        Self {
            src: input,
            batch,
            channels,
            geo,
            oh: geo.out_h(),
            ow: geo.out_w(),
        }
    }

    /// Patch-matrix row count: `C·K·K`.
    pub fn rows(&self) -> usize {
        self.channels * self.geo.kernel * self.geo.kernel
    }

    /// Patch-matrix column count: `N·OH·OW`.
    pub fn cols(&self) -> usize {
        self.batch * self.oh * self.ow
    }

    /// The patch element at (patch row, output position) — zero where the
    /// receptive field hangs over the padding.
    #[inline]
    fn at(&self, row_ci: usize, ky: usize, kx: usize, ni: usize, oy: usize, ox: usize) -> f32 {
        let geo = &self.geo;
        let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
        let ix = (ox * geo.stride + kx) as isize - geo.pad as isize;
        if iy < 0 || ix < 0 || iy >= geo.in_h as isize || ix >= geo.in_w as isize {
            return 0.0;
        }
        self.src[((ni * self.channels + row_ci) * geo.in_h + iy as usize) * geo.in_w + ix as usize]
    }

    /// Splits a patch-matrix row index into `(channel, ky, kx)`.
    #[inline]
    fn split_row(&self, row: usize) -> (usize, usize, usize) {
        let k = self.geo.kernel;
        (row / (k * k), (row / k) % k, row % k)
    }

    /// Splits an output-position column index into `(image, oy, ox)`.
    #[inline]
    fn split_col(&self, col: usize) -> (usize, usize, usize) {
        let ox = col % self.ow;
        let rest = col / self.ow;
        (rest / self.oh, rest % self.oh, ox)
    }

    /// Packs the strip `B[pc.., j0..j0+nr]` of the patch matrix.
    ///
    /// The strip's `nr` consecutive output positions decompose into runs
    /// sharing `(image, output row)`; at stride 1 each run's receptive
    /// taps are *contiguous* in the source image, so the hot path is a
    /// short `copy_from_slice` per run instead of a per-element gather —
    /// the same structure the materialised `im2col` fill exploits.
    pub(crate) fn pack_strip(&self, j0: usize, pc: usize, kc: usize, nr: usize, dst: &mut [f32]) {
        debug_assert!(nr <= crate::simd::NR_MAX);
        dst[..kc * nr].fill(0.0); // padding taps and dead columns stay zero
        let np = self.cols();
        let live = nr.min(np.saturating_sub(j0));
        if live == 0 {
            return;
        }
        let geo = &self.geo;
        if geo.stride != 1 {
            // Strided convolutions gather element-wise (no contiguity).
            for kk in 0..kc {
                let (ci, ky, kx) = self.split_row(pc + kk);
                let d = &mut dst[kk * nr..kk * nr + live];
                for (c, slot) in d.iter_mut().enumerate() {
                    let (ni, oy, ox) = self.split_col(j0 + c);
                    *slot = self.at(ci, ky, kx, ni, oy, ox);
                }
            }
            return;
        }
        // Runs of columns sharing (ni, oy), computed once per strip.
        // (c0, len, ni, oy, ox0)
        let mut runs = [(0usize, 0usize, 0usize, 0usize, 0usize); crate::simd::NR_MAX];
        let mut n_runs = 0;
        let mut c = 0;
        while c < live {
            let (ni, oy, ox) = self.split_col(j0 + c);
            let len = (self.ow - ox).min(live - c);
            runs[n_runs] = (c, len, ni, oy, ox);
            n_runs += 1;
            c += len;
        }
        let runs = &runs[..n_runs];
        let (in_h, in_w) = (geo.in_h as isize, geo.in_w as isize);
        let plane = geo.in_h * geo.in_w;
        for kk in 0..kc {
            let (ci, ky, kx) = self.split_row(pc + kk);
            let drow = &mut dst[kk * nr..kk * nr + nr];
            for &(c0, len, ni, oy, ox0) in runs {
                let iy = (oy + ky) as isize - geo.pad as isize;
                if iy < 0 || iy >= in_h {
                    continue;
                }
                // ix for run offset t is ox0 + t + kx - pad: clip to the
                // image width, then one contiguous copy.
                let ix0 = (ox0 + kx) as isize - geo.pad as isize;
                let lo = (-ix0).max(0) as usize;
                let hi = (in_w - ix0).clamp(0, len as isize) as usize;
                if lo >= hi {
                    continue;
                }
                let src_row = ((ni * self.channels + ci) * plane + iy as usize * geo.in_w) as isize;
                // `lo` cancels any negative ix0, so the start is in range.
                let start = (src_row + ix0 + lo as isize) as usize;
                drow[c0 + lo..c0 + hi].copy_from_slice(&self.src[start..start + (hi - lo)]);
            }
        }
    }

    /// Packs the strip `Bᵀ[pc.., j0..j0+nr]`, i.e. k runs over output
    /// positions and columns over patch rows (the dW GEMM layout).
    ///
    /// The k range's consecutive output positions decompose into runs
    /// sharing `(image, output row)` — computed once and shared by every
    /// column of the strip; at stride 1 each run reads a contiguous span
    /// of the source image (writes are `nr`-strided into the L1-resident
    /// strip, which is cheap; the contiguous side belongs to the big
    /// operand).
    pub(crate) fn pack_strip_t(&self, j0: usize, pc: usize, kc: usize, nr: usize, dst: &mut [f32]) {
        debug_assert!(nr <= crate::simd::NR_MAX);
        dst[..kc * nr].fill(0.0);
        let ckk = self.rows();
        let live = nr.min(ckk.saturating_sub(j0));
        if live == 0 {
            return;
        }
        let geo = &self.geo;
        if geo.stride != 1 {
            for kk in 0..kc {
                let (ni, oy, ox) = self.split_col(pc + kk);
                let d = &mut dst[kk * nr..kk * nr + live];
                for (c, slot) in d.iter_mut().enumerate() {
                    let (ci, ky, kx) = self.split_row(j0 + c);
                    *slot = self.at(ci, ky, kx, ni, oy, ox);
                }
            }
            return;
        }
        // Tap descriptors for the strip's columns, decomposed once.
        let mut taps = [(0usize, 0usize, 0usize); crate::simd::NR_MAX];
        for (c, slot) in taps.iter_mut().enumerate().take(live) {
            *slot = self.split_row(j0 + c);
        }
        let (in_h, in_w) = (geo.in_h as isize, geo.in_w as isize);
        let plane = geo.in_h * geo.in_w;
        // Walk position runs over kk sharing (ni, oy); each (run, column)
        // pair reads one contiguous source span.
        let mut kk = 0;
        while kk < kc {
            let (ni, oy, ox0) = self.split_col(pc + kk);
            let len = (self.ow - ox0).min(kc - kk);
            for (c, &(ci, ky, kx)) in taps.iter().enumerate().take(live) {
                let iy = (oy + ky) as isize - geo.pad as isize;
                if iy < 0 || iy >= in_h {
                    continue;
                }
                let ix0 = (ox0 + kx) as isize - geo.pad as isize;
                let lo = (-ix0).max(0) as usize;
                let hi = (in_w - ix0).clamp(0, len as isize) as usize;
                if lo >= hi {
                    continue;
                }
                let src_row = ((ni * self.channels + ci) * plane + iy as usize * geo.in_w) as isize;
                // `lo` cancels any negative ix0, so the start is in range.
                let start = (src_row + ix0 + lo as isize) as usize;
                let src = &self.src[start..start + (hi - lo)];
                for (t, &v) in src.iter().enumerate() {
                    dst[(kk + lo + t) * nr + c] = v;
                }
            }
            kk += len;
        }
    }
}

/// A stride-1 convolution's patch matrix read **in place**: the input is
/// copied once into a zero-bordered `[N, C, H+2p, W+2p]` image and output
/// positions are numbered along *that image's* row pitch, `q = oy·Wp + ox`.
/// Tap `(ci, ky, kx)` of `nr` consecutive positions is then `nr`
/// consecutive floats at `q + ci·Hp·Wp + ky·Wp + kx`, so the microkernel
/// loads its B operand straight from the image through a tap-offset table
/// ([`KernelF32::run_taps`]) — no gather, no clipping, no packed strip.
/// The positions with `ox ≥ OW` are computed and discarded.
struct InPlaceConv {
    /// The bordered images, plus one strip of zero slack: the last strip
    /// of the last image reads up to `nr − 1` floats past its last position.
    image: Vec<f32>,
    /// `offs[row]`: offset of patch row `(ci, ky, kx)` from a position.
    offs: Vec<usize>,
    batch: usize,
    /// Elements per bordered image, `C·Hp·Wp`.
    img: usize,
    /// Bordered row pitch `Wp`.
    wp: usize,
    oh: usize,
    ow: usize,
}

impl InPlaceConv {
    fn new(p: &PatchMatrix<'_>, nr: usize, ws: &mut Workspace) -> Self {
        let geo = &p.geo;
        assert_eq!(geo.stride, 1, "in-place conv needs stride 1");
        let (hp, wp) = (geo.in_h + 2 * geo.pad, geo.in_w + 2 * geo.pad);
        let plane = hp * wp;
        let mut image = ws.take_zeroed(p.batch * p.channels * plane + nr);
        for pl in 0..p.batch * p.channels {
            for y in 0..geo.in_h {
                image[pl * plane + (y + geo.pad) * wp + geo.pad..][..geo.in_w]
                    .copy_from_slice(&p.src[(pl * geo.in_h + y) * geo.in_w..][..geo.in_w]);
            }
        }
        let mut offs = ws.take_indices(p.rows());
        for (row, o) in offs.iter_mut().enumerate() {
            let (ci, ky, kx) = p.split_row(row);
            *o = ci * plane + ky * wp + kx;
        }
        Self {
            image,
            offs,
            batch: p.batch,
            img: p.channels * plane,
            wp,
            oh: p.oh,
            ow: p.ow,
        }
    }

    /// One packed A panel (depth block `pc..`) against every strip of
    /// every image, into `rows` rows of the dense `[c_out, N·OH·OW]`
    /// product. The first depth block stores and later ones add — the same
    /// bits as adding into zeros, because an accumulator that starts at
    /// `+0.0` is never `-0.0`.
    fn compute_panel(
        &self,
        kern: &KernelF32,
        a_panel: &[f32],
        pc: usize,
        c_rows: &mut [f32],
        rows: usize,
    ) {
        let nr = kern.nr;
        let taps = &self.offs[pc..pc + a_panel.len() / MR];
        let n = self.batch * self.oh * self.ow;
        // Positions per image along the bordered pitch.
        let q_n = (self.oh - 1) * self.wp + self.ow;
        let mut acc = [0.0f32; simd::ACC_F32];
        for ni in 0..self.batch {
            let (mut oy, mut ox) = (0, 0);
            for q0 in (0..q_n).step_by(nr) {
                (kern.run_taps)(a_panel, &self.image[ni * self.img + q0..], taps, &mut acc);
                // The strip's live positions, one run per image row it
                // touches; a run keeps its columns left of `OW`.
                let live = nr.min(q_n - q0);
                let mut c = 0;
                while c < live {
                    let len = (self.wp - ox).min(live - c);
                    let keep = len.min(self.ow.saturating_sub(ox));
                    if keep > 0 {
                        let j = (ni * self.oh + oy) * self.ow + ox;
                        for r in 0..rows {
                            let dst = &mut c_rows[r * n + j..][..keep];
                            let src = &acc[r * nr + c..][..keep];
                            if pc == 0 {
                                dst.copy_from_slice(src);
                            } else {
                                for (d, s) in dst.iter_mut().zip(src) {
                                    *d += s;
                                }
                            }
                        }
                    }
                    c += len;
                    ox += len;
                    if ox == self.wp {
                        (oy, ox) = (oy + 1, 0);
                    }
                }
            }
        }
    }

    /// `out[m, N·OH·OW] = wmat[m, k] · patches`, every element overwritten
    /// (so `out` may start dirty); the image and tap table go back to
    /// `ws`. A panels are packed as in [`gemm_with`] and `KC` blocks
    /// accumulate in the same order, so every element's chain — and every
    /// bit — is the packed path's.
    fn run(self, kern: &KernelF32, wmat: &[f32], m: usize, out: &mut [f32], ws: &mut Workspace) {
        let k = self.offs.len();
        let a = AccessA::row_major(wmat, k);
        let mut a_pack = ws.take_dirty(m.div_ceil(MR) * MR * KC.min(k));
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for_each_panel(a, m, pc, kc, &mut a_pack, out, |a_panel, c_rows, rows| {
                self.compute_panel(kern, a_panel, pc, c_rows, rows);
            });
        }
        ws.recycle_vec(a_pack);
        ws.recycle_vec(self.image);
        ws.recycle_indices(self.offs);
    }
}

/// Convolution forward as implicit GEMM:
/// `wmat[c_out, C·K·K] · patches[C·K·K, N·OH·OW] → [c_out, N·OH·OW]`,
/// with the patch matrix never materialised: read in place from a
/// zero-bordered copy of the image at stride 1, gathered from the image
/// during packing otherwise. Output and scratch are drawn from `ws`.
///
/// # Panics
///
/// Panics if `wmat` is not rank 2 or its column count differs from
/// `patches.rows()`.
pub fn conv_gemm_fwd_ws(
    wmat: &crate::tensor::Tensor,
    patches: &PatchMatrix<'_>,
    ws: &mut Workspace,
) -> crate::tensor::Tensor {
    let in_place = patches.geo.stride == 1;
    conv_gemm_fwd_with(simd::active_f32(), in_place, wmat, patches, ws)
}

/// [`conv_gemm_fwd_ws`] pinned to one microkernel variant and one way of
/// reading B (`in_place` needs stride 1). Test-only: the bit-identity
/// proptests drive every variant down both paths through here.
#[doc(hidden)]
pub fn conv_gemm_fwd_with(
    kern: &KernelF32,
    in_place: bool,
    wmat: &crate::tensor::Tensor,
    patches: &PatchMatrix<'_>,
    ws: &mut Workspace,
) -> crate::tensor::Tensor {
    let d = wmat.dims();
    assert_eq!(d.len(), 2, "conv_gemm_fwd weight rank {}", d.len());
    let (m, k, n) = (d[0], d[1], patches.cols());
    assert_eq!(k, patches.rows(), "weight columns {k} != patch rows");
    let out = if in_place && m * k * n > 0 {
        let conv = InPlaceConv::new(patches, kern.nr, ws);
        let mut out = ws.take_dirty(m * n); // fully overwritten
        conv.run(kern, wmat.data(), m, &mut out, ws);
        out
    } else {
        let mut out = ws.take_zeroed(m * n);
        let a = AccessA::row_major(wmat.data(), k);
        gemm_with(kern, m, n, k, a, AccessB::Patches(patches), &mut out, ws);
        out
    };
    crate::tensor::Tensor::from_vec(out, &[m, n])
}

/// Convolution weight gradient as implicit GEMM:
/// `g[c_out, N·OH·OW] · patchesᵀ → [c_out, C·K·K]`, gathering the patch
/// matrix from the image during packing. Output and scratch are drawn
/// from `ws`.
///
/// # Panics
///
/// Panics if `g_mat` is not rank 2 or its column count differs from
/// `patches.cols()`.
pub fn conv_gemm_dw_ws(
    g_mat: &crate::tensor::Tensor,
    patches: &PatchMatrix<'_>,
    ws: &mut Workspace,
) -> crate::tensor::Tensor {
    let d = g_mat.dims();
    assert_eq!(d.len(), 2, "conv_gemm_dw gradient rank {}", d.len());
    let (m, k, n) = (d[0], d[1], patches.rows());
    assert_eq!(k, patches.cols(), "gradient columns {k} != patch cols");
    let mut out = ws.take_zeroed(m * n);
    gemm(
        m,
        n,
        k,
        AccessA::row_major(g_mat.data(), k),
        AccessB::PatchesT(patches),
        &mut out,
        ws,
    );
    crate::tensor::Tensor::from_vec(out, &[m, n])
}

impl std::fmt::Debug for PatchMatrix<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatchMatrix")
            .field("rows", &self.rows())
            .field("cols", &self.cols())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::im2col;
    use crate::rng::Prng;
    use crate::tensor::Tensor;

    fn randv(seed: u64, len: usize) -> Vec<f32> {
        let mut rng = Prng::new(seed);
        (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    /// A serial reference that reproduces the engine's exact accumulation
    /// chain: KC-blocked partial sums, each accumulated in ascending k.
    fn blocked_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut c = 0.0f32;
                let mut pc = 0;
                while pc < k {
                    let kc = KC.min(k - pc);
                    let mut s = 0.0f32;
                    for kk in pc..pc + kc {
                        s += a[i * k + kk] * b[kk * n + j];
                    }
                    c += s;
                    pc += kc;
                }
                out[i * n + j] = c;
            }
        }
        out
    }

    #[test]
    fn engine_matches_blocked_reference_exactly() {
        // Ragged in every direction: m % MR, n % NR, k % KC all nonzero,
        // and k spans multiple KC blocks.
        let (m, k, n) = (7, 2 * KC + 37, 19);
        let a = randv(1, m * k);
        let b = randv(2, k * n);
        let mut out = vec![0.0f32; m * n];
        let mut ws = Workspace::new();
        gemm(
            m,
            n,
            k,
            AccessA::row_major(&a, k),
            AccessB::row_major(&b, n),
            &mut out,
            &mut ws,
        );
        assert_eq!(out, blocked_reference(&a, &b, m, k, n));
    }

    #[test]
    fn all_layouts_agree() {
        let (m, k, n) = (5, 43, 13);
        let a = randv(3, m * k);
        let b = randv(4, k * n);
        // Materialise transposes.
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut bt = vec![0.0f32; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut ws = Workspace::new();
        let run = |aa: AccessA<'_>, bb: AccessB<'_>, ws: &mut Workspace| {
            let mut out = vec![0.0f32; m * n];
            gemm(m, n, k, aa, bb, &mut out, ws);
            out
        };
        let want = run(
            AccessA::row_major(&a, k),
            AccessB::row_major(&b, n),
            &mut ws,
        );
        // A stored [k, m], read transposed: rs = 1, cs = m.
        assert_eq!(
            run(
                AccessA::strided(&at, 1, m),
                AccessB::row_major(&b, n),
                &mut ws
            ),
            want
        );
        // B stored [n, k], read transposed: rs = 1, cs = k.
        assert_eq!(
            run(
                AccessA::row_major(&a, k),
                AccessB::strided(&bt, 1, k),
                &mut ws
            ),
            want
        );
    }

    #[test]
    fn patch_matrix_matches_materialised_im2col() {
        let geo = Conv2dGeometry::new(9, 7, 3, 2, 1);
        let (batch, channels) = (3, 4);
        let x = Tensor::from_vec(randv(5, batch * channels * 9 * 7), &[batch, channels, 9, 7]);
        let cols = im2col(&x, &geo);
        let patches = PatchMatrix::new(x.data(), batch, channels, geo);
        assert_eq!((patches.rows(), patches.cols()), (cols.dim(0), cols.dim(1)));
        // Pack every strip of both orientations and compare element-wise.
        let (ckk, np) = (patches.rows(), patches.cols());
        let mut dst = vec![0.0f32; KC.min(ckk) * NR];
        let kc = KC.min(ckk);
        let mut j0 = 0;
        while j0 < np {
            patches.pack_strip(j0, 0, kc, NR, &mut dst);
            for kk in 0..kc {
                for c in 0..NR {
                    let want = if j0 + c < np {
                        cols.at2(kk, j0 + c)
                    } else {
                        0.0
                    };
                    assert_eq!(dst[kk * NR + c], want, "strip at ({kk}, {})", j0 + c);
                }
            }
            j0 += NR;
        }
        let kc_t = KC.min(np);
        let mut dst_t = vec![0.0f32; kc_t * NR];
        let mut j0 = 0;
        while j0 < ckk {
            patches.pack_strip_t(j0, 0, kc_t, NR, &mut dst_t);
            for kk in 0..kc_t {
                for c in 0..NR {
                    let want = if j0 + c < ckk {
                        cols.at2(j0 + c, kk)
                    } else {
                        0.0
                    };
                    assert_eq!(dst_t[kk * NR + c], want, "t-strip at ({kk}, {})", j0 + c);
                }
            }
            j0 += NR;
        }
    }

    #[test]
    fn every_dispatched_variant_is_bit_identical_at_engine_level() {
        // The variant-level tests in `simd` pin single tiles; this pins
        // the whole engine (packing, blocking, ragged edges) across every
        // kernel the host can run, against the scalar KC-blocked
        // reference. Exact equality — the FLUID_FORCE_SCALAR=1 CI leg
        // plus this test is the cross-variant bit-identity proof.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (7, 2 * KC + 37, 19),
            (16, 300, 33),
            (5, 60, 17),
        ] {
            let a = randv(m as u64 * 31 + n as u64, m * k);
            let b = randv(k as u64 * 17 + 3, k * n);
            let want = blocked_reference(&a, &b, m, k, n);
            let mut ws = Workspace::new();
            for kern in crate::simd::host_variants_f32() {
                let mut out = vec![0.0f32; m * n];
                gemm_with(
                    kern,
                    m,
                    n,
                    k,
                    AccessA::row_major(&a, k),
                    AccessB::row_major(&b, n),
                    &mut out,
                    &mut ws,
                );
                assert_eq!(out, want, "kernel {} at {m}x{k}x{n}", kern.name);
            }
        }
    }

    #[test]
    fn steady_state_gemm_reuses_scratch() {
        let (m, k, n) = (16, 300, 24);
        let a = randv(6, m * k);
        let b = randv(7, k * n);
        let mut ws = Workspace::new();
        let mut out = vec![0.0f32; m * n];
        gemm(
            m,
            n,
            k,
            AccessA::row_major(&a, k),
            AccessB::row_major(&b, n),
            &mut out,
            &mut ws,
        );
        let held = ws.buffers_held();
        assert_eq!(held, 2, "pack buffers must be recycled");
        out.fill(0.0);
        gemm(
            m,
            n,
            k,
            AccessA::row_major(&a, k),
            AccessB::row_major(&b, n),
            &mut out,
            &mut ws,
        );
        assert_eq!(ws.buffers_held(), held, "second run must reuse, not grow");
    }
}
