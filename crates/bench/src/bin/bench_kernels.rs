//! Kernel-layer bench smoke: writes `BENCH_kernels.json` so the perf
//! trajectory has a committed baseline.
//!
//! Five groups are measured:
//!
//! * `layer_ops` — the hot kernels (conv GEMM, backward GEMMs, `im2col`,
//!   a full ranged-conv forward, the fused inference stage, the in-place
//!   conv forward, the int8 `qgemm`), each against an embedded copy of
//!   the pre-pool *seed reference* kernel where one exists, and at 1 vs 4
//!   pool threads.
//! * `simd_microkernels` — every dispatchable GEMM microkernel variant
//!   (scalar fallback, AVX2 4×8/4×16, int8) timed on identical packed
//!   panels; dispatch is once-per-process, so this sweep is how a single
//!   binary compares variants on the same host.
//! * `quantization` — int8 vs f32 inference at equal batch, plus the
//!   top-1 agreement of a trained, calibrated int8 model against its f32
//!   oracle — gated hard at ≥ 0.99 so a quantization regression fails
//!   loudly even inside the latency tolerance.
//! * `training_step` — one forward + backward + SGD step of the paper's
//!   combined100 sub-network at batch 16.
//! * `serve_throughput` — a closed 64-request burst through the in-proc
//!   batching server.
//!
//! Usage: `cargo run --release -p fluid-bench --bin bench_kernels --
//! [--quick] [--out PATH] [--check BASELINE] [--tolerance F]`.
//! Thread-scaling numbers are only meaningful on multi-core hosts; the
//! JSON records the visible core count so a reader can tell (a single-core
//! CI box will show flat scaling — the speedup there comes from the
//! blocked kernel rewrites alone).
//!
//! `--check BASELINE` is the CI regression gate: after measuring, every
//! timing metric is compared against the committed baseline JSON and the
//! process exits non-zero if any metric regressed by more than
//! `--tolerance` (default 0.25 = 25%, chosen to ride out scheduler noise
//! on shared CI hosts while catching real kernel regressions). In check
//! mode the default `--out` moves aside (`target/BENCH_kernels.current.json`)
//! so the baseline is never clobbered by the gate itself; refresh the
//! baseline intentionally with `./ci.sh --update-bench`.

use fluid_core::training::{train_nested, NestedSchedule, TrainConfig};
use fluid_data::SynthDigits;
use fluid_models::{calibrate, top1_agreement, Arch, FluidModel, QuantizedNet};
use fluid_nn::{softmax_cross_entropy_ws, ChannelRange, Optimizer, RangedConv2d, Sgd};
use fluid_serve::{EngineBackend, ServeConfig, Server};
use fluid_tensor::quant::{qgemm_ws, QuantSrcB, QuantizedMatrix};
use fluid_tensor::{
    conv_gemm_fwd_ws, im2col, pool, simd, Conv2dGeometry, PatchMatrix, Prng, Tensor, Workspace, KC,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seed-reference kernels: verbatim ports of the pre-pool scalar loops
/// (branchy ikj matmul, strictly serial dot-product `matmul_bt`, the
/// serial `matmul_at` and `im2col`, and the seed conv forward composed
/// from them), kept here so every future run re-measures the baseline on
/// the same host.
mod seed_reference {
    use fluid_tensor::Conv2dGeometry;

    /// The seed's ikj matmul with the `av == 0.0` skip branch.
    pub fn matmul(lhs: &[f32], rhs: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            for p in 0..k {
                let av = lhs[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let rhs_row = &rhs[p * n..(p + 1) * n];
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += av * r;
                }
            }
        }
        out
    }

    /// The seed's one-column-at-a-time serial dot `matmul_bt`.
    pub fn matmul_bt(lhs: &[f32], rhs: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let lhs_row = &lhs[i * k..(i + 1) * k];
            for j in 0..n {
                let rhs_row = &rhs[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (l, r) in lhs_row.iter().zip(rhs_row) {
                    acc += l * r;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// The seed's serial `lhsᵀ · rhs` (lhs stored `[k, m]`), p-outer so
    /// both operands stream row-major.
    pub fn matmul_at(lhs: &[f32], rhs: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let lhs_row = &lhs[p * m..(p + 1) * m];
            let rhs_row = &rhs[p * n..(p + 1) * n];
            for (i, &av) in lhs_row.iter().enumerate() {
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += av * r;
                }
            }
        }
        out
    }

    /// The seed's serial `im2col`: one pass per `(channel, tap)` patch row,
    /// materialising the full `[C·K·K, N·OH·OW]` column buffer.
    pub fn im2col(src: &[f32], batch: usize, channels: usize, geo: &Conv2dGeometry) -> Vec<f32> {
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let k = geo.kernel;
        let cols = batch * oh * ow;
        let plane = geo.in_h * geo.in_w;
        let mut out = vec![0.0f32; channels * k * k * cols];
        for row in 0..channels * k * k {
            let row_out = &mut out[row * cols..(row + 1) * cols];
            let kx = row % k;
            let ky = (row / k) % k;
            let ci = row / (k * k);
            for ni in 0..batch {
                let img_base = (ni * channels + ci) * plane;
                for oy in 0..oh {
                    let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
                    if iy < 0 || iy >= geo.in_h as isize {
                        continue;
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
        out
    }

    /// The seed's conv forward: materialised `im2col`, ikj matmul,
    /// `[C_out, N·P] → [N, C_out, OH, OW]` reorder, then the bias.
    pub fn conv2d_fwd(
        src: &[f32],
        weight: &[f32],
        bias: &[f32],
        batch: usize,
        c_in: usize,
        c_out: usize,
        geo: &Conv2dGeometry,
    ) -> Vec<f32> {
        let cols = im2col(src, batch, c_in, geo);
        let ckk = c_in * geo.kernel * geo.kernel;
        let np = batch * geo.out_positions();
        let prod = matmul(weight, &cols, c_out, ckk, np);
        let plane = geo.out_positions();
        let mut out = vec![0.0f32; batch * c_out * plane];
        for (co, &bv) in bias.iter().enumerate().take(c_out) {
            for ni in 0..batch {
                let dst = (ni * c_out + co) * plane;
                let srcp = co * np + ni * plane;
                out[dst..dst + plane].copy_from_slice(&prod[srcp..srcp + plane]);
                for v in &mut out[dst..dst + plane] {
                    *v += bv;
                }
            }
        }
        out
    }
}

/// Median wall-clock milliseconds of `f` over `reps` runs (after `warmup`).
fn time_ms(warmup: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

struct KernelRow {
    name: &'static str,
    seed_ms: Option<f64>,
    t1_ms: f64,
    t4_ms: f64,
}

fn random_vec(seed: u64, len: usize) -> Vec<f32> {
    let mut rng = Prng::new(seed);
    (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

fn bench_layer_ops(warmup: usize, reps: usize) -> Vec<KernelRow> {
    let mut rows = Vec::new();

    // Conv-as-GEMM: the forward path's matmul shape.
    {
        let (m, k, n) = (16usize, 144usize, 784usize);
        let a = random_vec(1, m * k);
        let b = random_vec(2, k * n);
        let at = Tensor::from_vec(a.clone(), &[m, k]);
        let bt = Tensor::from_vec(b.clone(), &[k, n]);
        let seed = time_ms(warmup, reps, || {
            black_box(seed_reference::matmul(&a, &b, m, k, n));
        });
        pool::set_threads(1);
        let t1 = time_ms(warmup, reps, || {
            black_box(at.matmul(&bt));
        });
        pool::set_threads(4);
        let t4 = time_ms(warmup, reps, || {
            black_box(at.matmul(&bt));
        });
        rows.push(KernelRow {
            name: "matmul_16x144_144x784",
            seed_ms: Some(seed),
            t1_ms: t1,
            t4_ms: t4,
        });
    }

    // The serving/batch-16 conv GEMM at full spatial width: the packed
    // engine's headline forward shape.
    {
        let (m, k, n) = (16usize, 144usize, 12544usize);
        let a = random_vec(8, m * k);
        let b = random_vec(9, k * n);
        let at = Tensor::from_vec(a.clone(), &[m, k]);
        let bt = Tensor::from_vec(b.clone(), &[k, n]);
        let seed = time_ms(warmup, reps, || {
            black_box(seed_reference::matmul(&a, &b, m, k, n));
        });
        pool::set_threads(1);
        let t1 = time_ms(warmup, reps, || {
            black_box(at.matmul(&bt));
        });
        pool::set_threads(4);
        let t4 = time_ms(warmup, reps, || {
            black_box(at.matmul(&bt));
        });
        rows.push(KernelRow {
            name: "matmul_16x144_144x12544",
            seed_ms: Some(seed),
            t1_ms: t1,
            t4_ms: t4,
        });
    }

    // Backward dW GEMM (`g · colsᵀ`) through a transposed zero-copy view:
    // the training path's dominant kernel, and the row that pins the
    // view-based product against the deleted `matmul_bt`'s baseline (the
    // check stage holds `matmul_view` rows to a 5% band).
    {
        let (m, k, n) = (16usize, 12544usize, 144usize);
        let a = random_vec(3, m * k);
        let b = random_vec(4, n * k);
        let at = Tensor::from_vec(a.clone(), &[m, k]);
        let bt = Tensor::from_vec(b.clone(), &[n, k]);
        let seed = time_ms(warmup, reps, || {
            black_box(seed_reference::matmul_bt(&a, &b, m, k, n));
        });
        pool::set_threads(1);
        let t1 = time_ms(warmup, reps, || {
            black_box(at.view().matmul(&bt.view().t()));
        });
        pool::set_threads(4);
        let t4 = time_ms(warmup, reps, || {
            black_box(at.view().matmul(&bt.view().t()));
        });
        rows.push(KernelRow {
            name: "matmul_view_t_16x12544_144x12544",
            seed_ms: Some(seed),
            t1_ms: t1,
            t4_ms: t4,
        });
    }

    // Backward dX GEMM (`Wᵀ · g`) through a transposed left view: the
    // other transposed training product, same 5% pin.
    {
        let (m, k, n) = (144usize, 16usize, 12544usize);
        let a = random_vec(10, k * m);
        let b = random_vec(11, k * n);
        let at = Tensor::from_vec(a.clone(), &[k, m]);
        let bt = Tensor::from_vec(b.clone(), &[k, n]);
        let seed = time_ms(warmup, reps, || {
            black_box(seed_reference::matmul_at(&a, &b, m, k, n));
        });
        pool::set_threads(1);
        let t1 = time_ms(warmup, reps, || {
            black_box(at.view().t().matmul(&bt.view()));
        });
        pool::set_threads(4);
        let t4 = time_ms(warmup, reps, || {
            black_box(at.view().t().matmul(&bt.view()));
        });
        rows.push(KernelRow {
            name: "matmul_view_at_16x144_16x12544",
            seed_ms: Some(seed),
            t1_ms: t1,
            t4_ms: t4,
        });
    }

    // im2col on a batch-16 paper-sized input (row-parallel fill), against
    // the seed's serial column-buffer materialisation.
    {
        let x = Tensor::from_vec(random_vec(5, 16 * 16 * 28 * 28), &[16, 16, 28, 28]);
        let geo = Conv2dGeometry::new(28, 28, 3, 1, 1);
        let seed = time_ms(warmup, reps, || {
            black_box(seed_reference::im2col(x.data(), 16, 16, &geo));
        });
        pool::set_threads(1);
        let t1 = time_ms(warmup, reps, || {
            black_box(im2col(&x, &geo));
        });
        pool::set_threads(4);
        let t4 = time_ms(warmup, reps, || {
            black_box(im2col(&x, &geo));
        });
        rows.push(KernelRow {
            name: "im2col_b16_c16_28x28_k3",
            seed_ms: Some(seed),
            t1_ms: t1,
            t4_ms: t4,
        });
    }

    // A whole ranged-conv forward — now implicit GEMM (no materialised
    // column buffer) — against the seed's im2col + ikj-matmul + reorder.
    {
        let mut rng = Prng::new(6);
        let mut conv = RangedConv2d::new(16, 16, 3, 1, 1, &mut rng);
        let x = Tensor::from_vec(random_vec(7, 8 * 16 * 14 * 14), &[8, 16, 14, 14]);
        let full = ChannelRange::prefix(16);
        let geo = Conv2dGeometry::new(14, 14, 3, 1, 1);
        let (w, b) = (conv.weight().data().to_vec(), conv.bias().data().to_vec());
        let seed = time_ms(warmup, reps, || {
            black_box(seed_reference::conv2d_fwd(
                x.data(),
                &w,
                &b,
                8,
                16,
                16,
                &geo,
            ));
        });
        pool::set_threads(1);
        let t1 = time_ms(warmup, reps, || {
            black_box(conv.forward(&x, full, full, false));
        });
        pool::set_threads(4);
        let t4 = time_ms(warmup, reps, || {
            black_box(conv.forward(&x, full, full, false));
        });
        rows.push(KernelRow {
            name: "ranged_conv2d_fwd_b8_w16_14x14",
            seed_ms: Some(seed),
            t1_ms: t1,
            t4_ms: t4,
        });
    }

    // The fused inference stage (conv → bias → ReLU → 2×2 max-pool in one
    // epilogue) at the paper's first-stage shape, half width: batch 16,
    // 1 → 8 channels, 28×28. No seed twin: the seed ran three layers.
    {
        let mut rng = Prng::new(14);
        let conv = RangedConv2d::new(16, 1, 3, 1, 1, &mut rng);
        let x = Tensor::from_vec(random_vec(15, 16 * 28 * 28), &[16, 1, 28, 28]);
        let (image, half) = (ChannelRange::prefix(1), ChannelRange::prefix(8));
        let mut ws = Workspace::new();
        let mut stage = || {
            let out = black_box(conv.forward_stage_ws(&x, image, half, &mut ws));
            ws.recycle(out);
        };
        pool::set_threads(1);
        let t1 = time_ms(warmup, reps, &mut stage);
        pool::set_threads(4);
        let t4 = time_ms(warmup, reps, &mut stage);
        rows.push(KernelRow {
            name: "conv_stage_fwd_b16_w8_28x28",
            seed_ms: None,
            t1_ms: t1,
            t4_ms: t4,
        });
    }

    // The in-place conv forward GEMM (no B pack: the patch matrix is read
    // from the zero-bordered image) over the paper's three stage shapes at
    // full width, batch 16 — one row, the three products back to back.
    {
        let shapes = [(1usize, 28usize), (16, 14), (16, 7)];
        let operands: Vec<(Tensor, Tensor, Conv2dGeometry)> = shapes
            .iter()
            .map(|&(c_in, side)| {
                let w = Tensor::from_vec(random_vec(16, 16 * c_in * 9), &[16, c_in * 9]);
                let x = random_vec(17, 16 * c_in * side * side);
                let x = Tensor::from_vec(x, &[16, c_in, side, side]);
                (w, x, Conv2dGeometry::new(side, side, 3, 1, 1))
            })
            .collect();
        let mut ws = Workspace::new();
        let mut fwd = || {
            for (w, x, geo) in &operands {
                let patches = PatchMatrix::new(x.data(), 16, x.dim(1), *geo);
                let out = black_box(conv_gemm_fwd_ws(w, &patches, &mut ws));
                ws.recycle(out);
            }
        };
        pool::set_threads(1);
        let t1 = time_ms(warmup, reps, &mut fwd);
        pool::set_threads(4);
        let t4 = time_ms(warmup, reps, &mut fwd);
        rows.push(KernelRow {
            name: "conv_gemm_fwd_in_place_b16_w16_28_14_7",
            seed_ms: None,
            t1_ms: t1,
            t4_ms: t4,
        });
    }

    // Int8 GEMM at the headline forward shape — same (m, k, n) as
    // `matmul_16x144_144x12544` so the f32-vs-int8 comparison is read
    // straight off adjacent rows. Quantization of A happens once (as it
    // does for frozen weights); B is quantized per call (as activations
    // are), so the row prices the full serving-path cost.
    {
        let (m, k, n) = (16usize, 144usize, 12544usize);
        let a = random_vec(12, m * k);
        let b = random_vec(13, k * n);
        let qa = QuantizedMatrix::from_rows(&a, m, k);
        let b_scale = 1.0 / 127.0;
        let mut out = vec![0.0f32; m * n];
        let mut ws = Workspace::new();
        pool::set_threads(1);
        let t1 = time_ms(warmup, reps, || {
            qgemm_ws(&qa, QuantSrcB::RowMajor(&b), b_scale, n, &mut out, &mut ws);
            black_box(&out);
        });
        pool::set_threads(4);
        let t4 = time_ms(warmup, reps, || {
            qgemm_ws(&qa, QuantSrcB::RowMajor(&b), b_scale, n, &mut out, &mut ws);
            black_box(&out);
        });
        rows.push(KernelRow {
            name: "qgemm_i8_16x144_144x12544",
            seed_ms: None,
            t1_ms: t1,
            t4_ms: t4,
        });
    }

    pool::set_threads(1);
    rows
}

struct MicrokernelRow {
    name: String,
    ms: f64,
    gflops: f64,
}

/// Times every SIMD microkernel variant the host can execute, f32 and
/// int8, on identical packed panels (`kc = KC`, the engine's real depth
/// block). Dispatch is once-per-process, so this sweep — not the public
/// `matmul` — is how one binary shows the dispatched kernel beating the
/// autovectorized scalar fallback on the same machine.
fn bench_simd_microkernels(warmup: usize, reps: usize) -> Vec<MicrokernelRow> {
    const CALLS: usize = 2000;
    let mut rows = Vec::new();
    for kern in simd::host_variants_f32() {
        let a = random_vec(20, KC * simd::MR);
        let b = random_vec(21, KC * kern.nr);
        let mut acc = [0.0f32; simd::ACC_F32];
        let ms = time_ms(warmup, reps, || {
            for _ in 0..CALLS {
                (kern.run)(black_box(&a), black_box(&b), &mut acc);
            }
            black_box(&acc);
        });
        let flops = (CALLS * 2 * simd::MR * kern.nr * KC) as f64;
        rows.push(MicrokernelRow {
            name: format!("f32_{}", kern.name),
            ms,
            gflops: flops / (ms * 1e6),
        });
    }
    for kern in simd::host_variants_i8() {
        let kc2 = KC / 2;
        let a: Vec<i8> = random_vec(22, kc2 * 2 * simd::MR)
            .into_iter()
            .map(|v| (v * 127.0) as i8)
            .collect();
        let b: Vec<i8> = random_vec(23, kc2 * 2 * simd::NR_I8)
            .into_iter()
            .map(|v| (v * 127.0) as i8)
            .collect();
        let mut acc = [0i32; simd::ACC_I8];
        let ms = time_ms(warmup, reps, || {
            for _ in 0..CALLS {
                (kern.run)(black_box(&a), black_box(&b), &mut acc);
            }
            black_box(&acc);
        });
        // One multiply-accumulate per (row, col, k) int8 pair = 2 ops.
        let flops = (CALLS * 2 * simd::MR * simd::NR_I8 * KC) as f64;
        rows.push(MicrokernelRow {
            name: format!("i8_{}", kern.name),
            ms,
            gflops: flops / (ms * 1e6),
        });
    }
    rows
}

struct QuantReport {
    f32_t1_ms: f64,
    int8_t1_ms: f64,
    int8_t4_ms: f64,
    top1_agreement: f64,
}

/// Quantized inference vs f32 at equal batch, plus the calibration
/// quality metric. Timing uses the paper architecture (weights don't
/// matter for latency); the top-1 agreement check uses a *trained*
/// tiny model so logits are separated and a quantization regression
/// actually flips decisions instead of coin-tossing on random noise.
fn bench_quantization(warmup: usize, reps: usize) -> QuantReport {
    // --- latency: paper arch, batch 16 ---
    let mut model = FluidModel::new(Arch::paper(), &mut Prng::new(0));
    let spec = model.spec("combined100").expect("spec").clone();
    let calib_ds = SynthDigits::new(0xCA11B).generate(64);
    let (calib_batch, _) = calib_ds.gather(&(0..64).collect::<Vec<_>>());
    let calib = calibrate(model.net_mut(), &spec, &calib_batch);
    let mut qnet = QuantizedNet::from_net(model.net(), &spec, &calib);
    let mut rng = Prng::new(2);
    let x = Tensor::from_fn(&[16, 1, 28, 28], |_| rng.uniform(0.0, 1.0));
    pool::set_threads(1);
    let f32_t1 = time_ms(warmup, reps, || {
        let y = model.net_mut().forward_subnet(&x, &spec, false);
        model.net_mut().recycle(y);
    });
    let int8_t1 = time_ms(warmup, reps, || {
        let y = qnet.forward(&x);
        qnet.recycle(y);
    });
    pool::set_threads(4);
    let int8_t4 = time_ms(warmup, reps, || {
        let y = qnet.forward(&x);
        qnet.recycle(y);
    });
    pool::set_threads(1);

    // --- calibration quality: trained tiny model, held-out batch ---
    let (train, _) = SynthDigits::new(41).train_test(400, 0);
    let mut trained = FluidModel::new(Arch::tiny_28(), &mut Prng::new(41));
    let _ = train_nested(
        &mut trained,
        &train,
        &TrainConfig::fast_test(),
        &NestedSchedule::fast_test(),
    );
    let tspec = trained.spec("combined100").expect("spec").clone();
    let tcalib = calibrate(trained.net_mut(), &tspec, &calib_batch);
    let mut tq = QuantizedNet::from_net(trained.net(), &tspec, &tcalib);
    let f32_logits = trained
        .net_mut()
        .forward_subnet(&calib_batch, &tspec, false);
    let q_logits = tq.forward(&calib_batch);
    QuantReport {
        f32_t1_ms: f32_t1,
        int8_t1_ms: int8_t1,
        int8_t4_ms: int8_t4,
        top1_agreement: top1_agreement(&f32_logits, &q_logits),
    }
}

/// One training step (the unit of Algorithm 1's inner loop) in ms.
fn bench_training_step(warmup: usize, reps: usize) -> (f64, f64) {
    let mut model = FluidModel::new(Arch::paper(), &mut Prng::new(0));
    let mut rng = Prng::new(1);
    let x = Tensor::from_fn(&[16, 1, 28, 28], |_| rng.uniform(0.0, 1.0));
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    let spec = model.spec("combined100").expect("spec").clone();
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    // The steady-state (zero-allocation) step: loss gradient and logits
    // cycle through the executor's workspace arena.
    let mut step = |model: &mut FluidModel| {
        let net = model.net_mut();
        net.zero_grad();
        let logits = net.forward_subnet(&x, &spec, true);
        let (_, grad) = softmax_cross_entropy_ws(&logits, &labels, net.workspace_mut());
        net.recycle(logits);
        net.backward_subnet(&grad, &spec);
        net.recycle(grad);
        let mut params = net.param_set();
        opt.step(&mut params);
    };
    pool::set_threads(1);
    let t1 = time_ms(warmup, reps, || step(&mut model));
    pool::set_threads(4);
    let t4 = time_ms(warmup, reps, || step(&mut model));
    pool::set_threads(1);
    (t1, t4)
}

/// Closed 64-request burst through a one-worker batching server →
/// (req/s, end-to-end p95 ms). Latency is stamped client-side per
/// ticket over the *measured* bursts only (the cold warm-up burst would
/// otherwise dominate the tail), so the gate watches tail latency of
/// the whole scheduler path, not just throughput.
fn bench_serve_throughput(reps: usize, threads: usize) -> (f64, f64) {
    pool::set_threads(threads);
    let model = FluidModel::new(Arch::paper(), &mut Prng::new(0));
    let backend = Box::new(EngineBackend::new(
        "bench",
        model.net().clone(),
        model.spec("combined100").expect("spec").clone(),
    ));
    let mut cfg = ServeConfig::default();
    cfg.max_batch = 8;
    cfg.max_wait = Duration::from_millis(1);
    cfg.queue_cap = 256;
    let server = Server::start(cfg, vec![backend]).expect("start server");
    let handle = server.handle();
    let x = Tensor::from_fn(&[1, 1, 28, 28], |i| ((i % 29) as f32) / 29.0);
    let latencies = std::cell::RefCell::new(Vec::new());
    let burst = || {
        let submitted: Vec<_> = (0..64)
            .map(|_| (Instant::now(), handle.submit(x.clone()).expect("submit")))
            .collect();
        let mut lat = latencies.borrow_mut();
        for (t0, t) in submitted {
            t.wait().expect("logits");
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    };
    burst(); // warm-up
    latencies.borrow_mut().clear();
    let ms = time_ms(0, reps, burst);
    server.shutdown();
    pool::set_threads(1);
    let mut lat = latencies.into_inner();
    lat.sort_by(f64::total_cmp);
    (64.0 / (ms / 1e3), fluid_perf::percentile(&lat, 0.95))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

/// Pulls `"entry": { ... "field": <number> ... }` out of a bench JSON
/// without a JSON dependency (the format is this binary's own output).
fn extract_field(json: &str, entry: &str, field: &str) -> Option<f64> {
    let entry_at = json.find(&format!("\"{entry}\""))?;
    let obj_start = entry_at + json[entry_at..].find('{')?;
    let obj_end = obj_start + json[obj_start..].find('}')?;
    let obj = &json[obj_start..obj_end];
    let field_at = obj.find(&format!("\"{field}\""))?;
    let after_colon = &obj[field_at + obj[field_at..].find(':')? + 1..];
    let token: String = after_colon
        .trim_start()
        .chars()
        .take_while(|c| !",}\n ".contains(*c))
        .collect();
    token.parse().ok()
}

/// Sub-millisecond rows swing far more than `--tolerance` from scheduler
/// noise alone, so an `ms` regression must also exceed this absolute
/// delta. A real regression of a 0.2 ms kernel (say 2×) clears the floor
/// easily; a 60 µs timer wobble does not.
const ABS_FLOOR_MS: f64 = 0.1;

/// Tail-latency rows need a wider absolute floor: the p95 of a 64-request
/// burst served by live threads absorbs any single OS scheduling stall
/// (~10-20 ms on a shared 1-core host) undamped, so run-to-run swings of a
/// few ms are noise. The regressions this row exists to catch — a second
/// unbounded queue, a starved class — show up as tens to hundreds of ms.
const P95_FLOOR_MS: f64 = 10.0;

/// Whether `metric` regressed versus the baseline: for `ms` metrics lower
/// is better (and the loss must clear both the relative tolerance and
/// [`ABS_FLOOR_MS`], or [`P95_FLOOR_MS`] for tail-latency rows); for
/// `req_per_s` / `steps_per_s` higher is better.
fn regressed(metric: &str, baseline: f64, current: f64, tolerance: f64) -> bool {
    if metric.contains("per_s") {
        current < baseline / (1.0 + tolerance)
    } else {
        let floor = if metric.ends_with("_p95_ms") {
            P95_FLOOR_MS
        } else {
            ABS_FLOOR_MS
        };
        current > baseline * (1.0 + tolerance) && current - baseline > floor
    }
}

/// Compares every timing metric of `current` against `baseline`; prints
/// one verdict line per metric and returns the regressions.
fn check_against_baseline(baseline: &str, current: &str, tolerance: f64) -> Vec<String> {
    // (entry, metric) pairs the gate covers — every committed timing.
    let mut metrics: Vec<(String, &str)> = vec![
        ("combined100_batch16".into(), "threads1_ms"),
        ("combined100_batch16".into(), "threads4_ms"),
        ("closed_burst_64req_1worker".into(), "threads1_req_per_s"),
        ("closed_burst_64req_1worker".into(), "threads4_req_per_s"),
        ("closed_burst_64req_1worker".into(), "threads1_p95_ms"),
        ("closed_burst_64req_1worker".into(), "threads4_p95_ms"),
    ];
    // Kernel rows are discovered from the *current* run, so adding a
    // kernel never requires touching this list.
    for line in current.lines() {
        let t = line.trim_start();
        if t.contains("threads1_ms") && !t.starts_with('{') {
            if let Some(name) = t.strip_prefix('"').and_then(|r| r.split('"').next()) {
                if name != "combined100_batch16" {
                    metrics.push((name.to_owned(), "threads1_ms"));
                    metrics.push((name.to_owned(), "threads4_ms"));
                }
            }
        }
    }
    let mut regressions = Vec::new();
    for (entry, metric) in &metrics {
        let cur = extract_field(current, entry, metric);
        let base = extract_field(baseline, entry, metric);
        // `matmul_view*` rows pin the view-based transposed products to the
        // baselines recorded for the deleted `matmul_at`/`matmul_bt` kernels:
        // they must stay within 5% no matter how loose the global gate is.
        let row_tol = if entry.starts_with("matmul_view") {
            tolerance.min(0.05)
        } else {
            tolerance
        };
        match (base, cur) {
            (Some(b), Some(c)) if b > 0.0 => {
                let is_regressed = regressed(metric, b, c, row_tol);
                eprintln!(
                    "  {entry}.{metric}: baseline {b:.3}, current {c:.3} ({:+.1}%) {}",
                    (c / b - 1.0) * 100.0,
                    if is_regressed { "REGRESSION" } else { "ok" }
                );
                if is_regressed {
                    regressions.push(format!(
                        "{entry}.{metric}: {b:.3} -> {c:.3} (worse by more than {:.0}%)",
                        row_tol * 100.0
                    ));
                }
            }
            _ => eprintln!("  {entry}.{metric}: skipped (not in baseline)"),
        }
    }
    regressions
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let tolerance: f64 = args
        .iter()
        .position(|a| a == "--tolerance")
        .and_then(|i| args.get(i + 1))
        .map_or(0.25, |v| v.parse().expect("--tolerance expects a number"));
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or(
            // Check mode must not clobber the baseline it compares against.
            if check_path.is_some() {
                "target/BENCH_kernels.current.json"
            } else {
                "BENCH_kernels.json"
            },
            String::as_str,
        );
    let (warmup, reps) = if quick { (2, 5) } else { (3, 11) };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!(
        "bench_kernels: layer_ops ({} visible cores, simd {})...",
        cores,
        simd::active_name()
    );
    let kernels = bench_layer_ops(warmup, reps);
    eprintln!("bench_kernels: simd_microkernels...");
    let micro = bench_simd_microkernels(warmup, reps);
    eprintln!("bench_kernels: quantization...");
    let quant = bench_quantization(warmup.min(2), reps.min(7));
    eprintln!("bench_kernels: training_step...");
    let (train_t1, train_t4) = bench_training_step(warmup.min(2), reps.min(7));
    eprintln!("bench_kernels: serve_throughput...");
    let (serve_t1, serve_p95_t1) = bench_serve_throughput(reps.min(5), 1);
    let (serve_t4, serve_p95_t4) = bench_serve_throughput(reps.min(5), 4);

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"meta\": {{\n    \"visible_cores\": {cores},\n    \"simd_active\": \"{}\",\n    \"units\": \"ms (median) unless stated\",\n    \"note\": \"seed_reference = pre-pool scalar kernels re-measured on this host; threads1/threads4 = current kernels at FLUID_THREADS 1/4. Thread scaling requires a multi-core host.\"\n  }},\n",
        simd::active_name()
    ));
    json.push_str("  \"layer_ops\": {\n");
    for (i, row) in kernels.iter().enumerate() {
        let seed = row.seed_ms.map_or("null".to_owned(), |v| format!("{v:.4}"));
        let vs_seed = row
            .seed_ms
            .map_or("null".to_owned(), |v| format!("{:.2}", ratio(v, row.t1_ms)));
        json.push_str(&format!(
            "    \"{}\": {{\"seed_reference_ms\": {}, \"threads1_ms\": {:.4}, \"threads4_ms\": {:.4}, \"speedup_t1_vs_seed\": {}, \"speedup_t4_vs_t1\": {:.2}}}{}\n",
            row.name,
            seed,
            row.t1_ms,
            row.t4_ms,
            vs_seed,
            ratio(row.t1_ms, row.t4_ms),
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"simd_microkernels\": {\n");
    for (i, row) in micro.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"ms\": {:.4}, \"gflops\": {:.2}}}{}\n",
            row.name,
            row.ms,
            row.gflops,
            if i + 1 < micro.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"quantization\": {{\n    \"quantized_infer_combined100_batch16\": {{\"threads1_ms\": {:.3}, \"threads4_ms\": {:.3}, \"f32_t1_ms\": {:.3}, \"speedup_int8_vs_f32_t1\": {:.2}, \"top1_agreement\": {:.4}}}\n  }},\n",
        quant.int8_t1_ms,
        quant.int8_t4_ms,
        quant.f32_t1_ms,
        ratio(quant.f32_t1_ms, quant.int8_t1_ms),
        quant.top1_agreement
    ));
    json.push_str(&format!(
        "  \"training_step\": {{\n    \"combined100_batch16\": {{\"threads1_ms\": {:.3}, \"threads4_ms\": {:.3}, \"threads1_steps_per_s\": {:.2}, \"speedup_t4_vs_t1\": {:.2}}}\n  }},\n",
        train_t1,
        train_t4,
        1e3 / train_t1,
        ratio(train_t1, train_t4)
    ));
    json.push_str(&format!(
        "  \"serve_throughput\": {{\n    \"closed_burst_64req_1worker\": {{\"threads1_req_per_s\": {:.1}, \"threads4_req_per_s\": {:.1}, \"threads1_p95_ms\": {:.2}, \"threads4_p95_ms\": {:.2}, \"speedup_t4_vs_t1\": {:.2}}}\n  }}\n}}\n",
        serve_t1,
        serve_t4,
        serve_p95_t1,
        serve_p95_t4,
        ratio(serve_t4, serve_t1)
    ));

    if let Some(parent) = std::path::Path::new(out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(out_path, &json).expect("write bench json");
    println!("{json}");
    eprintln!("bench_kernels: wrote {out_path}");

    // Calibration-quality gate: quantization that flips >1% of top-1
    // decisions on the held-out calibration batch is a regression no
    // latency tolerance excuses — fail loudly, independent of `--check`.
    const MIN_TOP1_AGREEMENT: f64 = 0.99;
    if quant.top1_agreement < MIN_TOP1_AGREEMENT {
        eprintln!(
            "bench_kernels: int8 top-1 agreement {:.4} fell below {MIN_TOP1_AGREEMENT} — \
             quantization regression",
            quant.top1_agreement
        );
        std::process::exit(1);
    }
    // Dispatch sanity (informational): on an AVX2 host the widest
    // dispatched kernel should outrun the autovectorized scalar.
    if let (Some(s), Some(w)) = (
        micro.iter().find(|r| r.name == "f32_scalar_4x8"),
        micro.iter().find(|r| r.name == "f32_avx2_4x16"),
    ) {
        eprintln!(
            "bench_kernels: f32 microkernel scalar {:.2} GFLOP/s vs avx2_4x16 {:.2} GFLOP/s ({:.2}x)",
            s.gflops,
            w.gflops,
            w.gflops / s.gflops
        );
    }

    if let Some(baseline_path) = check_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        eprintln!(
            "bench_kernels: regression gate vs {baseline_path} (tolerance {:.0}%)",
            tolerance * 100.0
        );
        let regressions = check_against_baseline(&baseline, &json, tolerance);
        if regressions.is_empty() {
            eprintln!(
                "bench_kernels: no regression beyond {:.0}%",
                tolerance * 100.0
            );
        } else {
            eprintln!("bench_kernels: {} regression(s):", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            eprintln!("(intentional? update the baseline with ./ci.sh --update-bench)");
            std::process::exit(1);
        }
    }
}
