//! `im2col`/`col2im` lowering for 2-D convolution.
//!
//! Convolution is computed as a matrix product between the unrolled input
//! patches and the flattened kernels; the backward pass reverses the
//! unrolling with [`col2im`]. This is the standard CPU strategy used by
//! Caffe and many embedded inference engines.

use crate::pool;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Static geometry of a conv2d: input plane, kernel, stride, padding.
///
/// # Example
///
/// ```
/// use fluid_tensor::Conv2dGeometry;
/// let g = Conv2dGeometry::new(28, 28, 3, 1, 1);
/// assert_eq!((g.out_h(), g.out_w()), (28, 28));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Zero padding on each border.
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Creates a geometry description.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`, `stride == 0`, or the padded input is
    /// smaller than the kernel.
    pub fn new(in_h: usize, in_w: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        assert!(
            in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel,
            "kernel {kernel} larger than padded input {}x{}",
            in_h + 2 * pad,
            in_w + 2 * pad
        );
        Self {
            in_h,
            in_w,
            kernel,
            stride,
            pad,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Number of output positions per image.
    pub fn out_positions(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// Unrolls an `[N, C, H, W]` input into a `[C·K·K, N·OH·OW]` patch matrix.
///
/// Column `(n, oh, ow)` holds the receptive field of output position
/// `(oh, ow)` in image `n`; out-of-bounds (padding) elements are zero.
///
/// # Panics
///
/// Panics if `input` is not rank 4 or its plane size disagrees with `geo`.
pub fn im2col(input: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    let d = input.dims();
    assert_eq!(d.len(), 4, "im2col input rank {}", d.len());
    assert_eq!(
        (d[2], d[3]),
        (geo.in_h, geo.in_w),
        "im2col plane {}x{} disagrees with geometry {}x{}",
        d[2],
        d[3],
        geo.in_h,
        geo.in_w
    );
    let (n, c) = (d[0], d[1]);
    let k = geo.kernel;
    let (rows, cols) = (c * k * k, n * geo.out_positions());
    let mut out = vec![0.0f32; rows * cols];
    if out.is_empty() {
        return Tensor::from_vec(out, &[rows, cols]);
    }
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let src = input.data();
    let plane = geo.in_h * geo.in_w;

    // One tap row per unit of parallelism (rows are fully independent).
    pool::parallel_rows_mut(&mut out, cols, 1, |taps, block| {
        for (bi, row) in taps.enumerate() {
            let row_out = &mut block[bi * cols..(bi + 1) * cols];
            let kx = row % k;
            let ky = (row / k) % k;
            let ci = row / (k * k);
            for ni in 0..n {
                let img_base = (ni * c + ci) * plane;
                for oy in 0..oh {
                    let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
                    if iy < 0 || iy >= geo.in_h as isize {
                        continue; // stays zero (padding)
                    }
                    let col_base = (ni * oh + oy) * ow;
                    let src_row = img_base + iy as usize * geo.in_w;
                    for ox in 0..ow {
                        let ix = (ox * geo.stride + kx) as isize - geo.pad as isize;
                        if ix < 0 || ix >= geo.in_w as isize {
                            continue;
                        }
                        row_out[col_base + ox] = src[src_row + ix as usize];
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[rows, cols])
}

/// Folds a `[C·K·K, N·OH·OW]` patch-gradient matrix back into an
/// `[N, C, H, W]` input gradient, accumulating overlapping contributions.
///
/// This is the exact adjoint of [`im2col`].
///
/// # Panics
///
/// Panics if `cols` is not rank 2 or its shape disagrees with `geo`,
/// `channels` and `batch`.
pub fn col2im(cols: &Tensor, geo: &Conv2dGeometry, channels: usize, batch: usize) -> Tensor {
    let mut out = Tensor::zeros(&[batch, channels, geo.in_h, geo.in_w]);
    col2im_into(cols, geo, channels, batch, out.data_mut());
    out
}

/// [`col2im`] with the image-gradient buffer drawn from `ws`.
///
/// # Panics
///
/// Panics if `cols` is not rank 2 or its shape disagrees with `geo`,
/// `channels` and `batch`.
pub fn col2im_ws(
    cols: &Tensor,
    geo: &Conv2dGeometry,
    channels: usize,
    batch: usize,
    ws: &mut Workspace,
) -> Tensor {
    let mut out = ws.tensor_zeroed(&[batch, channels, geo.in_h, geo.in_w]);
    col2im_into(cols, geo, channels, batch, out.data_mut());
    out
}

/// Accumulates the fold, one image per unit of parallelism (each image's
/// output region is disjoint; within an image the accumulation order over
/// kernel taps matches the serial reference, so the scatter-add stays
/// bit-identical at any thread count).
fn col2im_into(
    cols: &Tensor,
    geo: &Conv2dGeometry,
    channels: usize,
    batch: usize,
    dst: &mut [f32],
) {
    let d = cols.dims();
    assert_eq!(d.len(), 2, "col2im input rank {}", d.len());
    let k = geo.kernel;
    let (oh, ow) = (geo.out_h(), geo.out_w());
    assert_eq!(d[0], channels * k * k, "col2im row count mismatch");
    assert_eq!(d[1], batch * oh * ow, "col2im column count mismatch");
    if dst.is_empty() {
        return;
    }

    let src = cols.data();
    let plane = geo.in_h * geo.in_w;
    let ncols = d[1];

    pool::parallel_rows_mut(dst, channels * plane, 1, |images, block| {
        for (bi, ni) in images.enumerate() {
            let img = &mut block[bi * channels * plane..(bi + 1) * channels * plane];
            for ci in 0..channels {
                for ky in 0..k {
                    for kx in 0..k {
                        let row = (ci * k + ky) * k + kx;
                        let row_base = row * ncols;
                        for oy in 0..oh {
                            let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
                            if iy < 0 || iy >= geo.in_h as isize {
                                continue;
                            }
                            let dst_row = ci * plane + iy as usize * geo.in_w;
                            let col_base = row_base + (ni * oh + oy) * ow;
                            for ox in 0..ow {
                                let ix = (ox * geo.stride + kx) as isize - geo.pad as isize;
                                if ix < 0 || ix >= geo.in_w as isize {
                                    continue;
                                }
                                img[dst_row + ix as usize] += src[col_base + ox];
                            }
                        }
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (non-lowered) convolution used as the reference implementation.
    fn conv2d_naive(input: &Tensor, weight: &Tensor, geo: &Conv2dGeometry) -> Tensor {
        let (n, c_in) = (input.dim(0), input.dim(1));
        let c_out = weight.dim(0);
        assert_eq!(weight.dim(1), c_in);
        let k = geo.kernel;
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
        for ni in 0..n {
            for co in 0..c_out {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..c_in {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
                                    let ix = (ox * geo.stride + kx) as isize - geo.pad as isize;
                                    if iy < 0
                                        || ix < 0
                                        || iy >= geo.in_h as isize
                                        || ix >= geo.in_w as isize
                                    {
                                        continue;
                                    }
                                    acc += input.at4(ni, ci, iy as usize, ix as usize)
                                        * weight.at4(co, ci, ky, kx);
                                }
                            }
                        }
                        out.set4(ni, co, oy, ox, acc);
                    }
                }
            }
        }
        out
    }

    /// Conv via im2col + matmul, reshaped to [N, C_out, OH, OW].
    fn conv2d_lowered(input: &Tensor, weight: &Tensor, geo: &Conv2dGeometry) -> Tensor {
        let n = input.dim(0);
        let c_out = weight.dim(0);
        let cols = im2col(input, geo);
        let wmat = weight.reshape(&[c_out, weight.numel() / c_out]);
        let prod = wmat.matmul(&cols); // [C_out, N*OH*OW]
        let (oh, ow) = (geo.out_h(), geo.out_w());
        // Reorder [C_out, N, OH*OW] -> [N, C_out, OH*OW].
        let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
        let plane = oh * ow;
        for co in 0..c_out {
            for ni in 0..n {
                for p in 0..plane {
                    out.data_mut()[(ni * c_out + co) * plane + p] =
                        prod.data()[co * (n * plane) + ni * plane + p];
                }
            }
        }
        out
    }

    #[test]
    fn geometry_same_padding() {
        let g = Conv2dGeometry::new(28, 28, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (28, 28));
    }

    #[test]
    fn geometry_stride_two() {
        let g = Conv2dGeometry::new(8, 8, 3, 2, 0);
        assert_eq!((g.out_h(), g.out_w()), (3, 3));
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn kernel_too_big_panics() {
        let _ = Conv2dGeometry::new(2, 2, 5, 1, 0);
    }

    #[test]
    fn im2col_matches_naive_conv() {
        let geo = Conv2dGeometry::new(6, 5, 3, 1, 1);
        let input = Tensor::from_fn(&[2, 3, 6, 5], |i| (i as f32 * 0.17).sin());
        let weight = Tensor::from_fn(&[4, 3, 3, 3], |i| (i as f32 * 0.29).cos());
        let a = conv2d_lowered(&input, &weight, &geo);
        let b = conv2d_naive(&input, &weight, &geo);
        assert!(a.allclose(&b, 1e-4), "max diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn im2col_matches_naive_conv_strided_unpadded() {
        let geo = Conv2dGeometry::new(7, 7, 3, 2, 0);
        let input = Tensor::from_fn(&[1, 2, 7, 7], |i| (i as f32 * 0.31).sin());
        let weight = Tensor::from_fn(&[3, 2, 3, 3], |i| (i as f32 * 0.11).cos());
        let a = conv2d_lowered(&input, &weight, &geo);
        let b = conv2d_naive(&input, &weight, &geo);
        assert!(a.allclose(&b, 1e-4));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y: the defining
        // property of an adjoint pair, which is exactly what backprop needs.
        let geo = Conv2dGeometry::new(5, 4, 3, 1, 1);
        let x = Tensor::from_fn(&[2, 3, 5, 4], |i| (i as f32 * 0.7).sin());
        let cols_shape_rows = 3 * 3 * 3;
        let cols_shape_cols = 2 * geo.out_h() * geo.out_w();
        let y = Tensor::from_fn(&[cols_shape_rows, cols_shape_cols], |i| {
            (i as f32 * 0.13).cos()
        });
        let lhs: f32 = im2col(&x, &geo)
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(col2im(&y, &geo, 3, 2).data())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0));
    }

    #[test]
    fn im2col_zero_padding_regions_are_zero() {
        let geo = Conv2dGeometry::new(3, 3, 3, 1, 1);
        let input = Tensor::ones(&[1, 1, 3, 3]);
        let cols = im2col(&input, &geo);
        // Top-left output position, top-left kernel tap hits padding.
        assert_eq!(cols.at2(0, 0), 0.0);
        // Center output position, center tap hits the image.
        assert_eq!(cols.at2(4, 4), 1.0);
    }
}
