//! End-to-end correctness of the int8 quantized serving path: a trained
//! model, post-training-quantized from a held-out calibration batch and
//! served through the batched scheduler, must (a) answer bit-identically
//! to a direct `QuantizedNet` forward — batching and threading never
//! change quantized answers — and (b) track the f32 oracle closely enough
//! that top-1 decisions survive quantization. A second test is the
//! calibration-quality gate: quantization may flip at most 1% of the
//! trained model's top-1 decisions on the calibration batch itself.

use fluid_integration_tests::{calibration_batch, quick_trained_fluid};
use fluid_models::{calibrate, top1_agreement, QuantizedNet};
use fluid_serve::{QuantBackend, ServeConfig, Server};
use fluid_tensor::Tensor;
use std::time::Duration;

const EVAL_BATCH: usize = 48;

fn row(batch: &Tensor, i: usize) -> Tensor {
    let [_, c, h, w] = [
        batch.dims()[0],
        batch.dims()[1],
        batch.dims()[2],
        batch.dims()[3],
    ];
    let plane = c * h * w;
    Tensor::from_vec(
        batch.data()[i * plane..(i + 1) * plane].to_vec(),
        &[1, c, h, w],
    )
}

#[test]
fn quantized_serving_is_bit_identical_to_direct_forward_and_tracks_f32() {
    let (mut model, test) = quick_trained_fluid(42);
    let spec = model.spec("combined100").expect("spec").clone();
    let calib = calibrate(model.net_mut(), &spec, &calibration_batch());
    let qnet = QuantizedNet::from_net(model.net(), &spec, &calib);

    // Direct (unbatched, single-thread-agnostic) quantized reference.
    let mut direct = QuantizedNet::from_net(model.net(), &spec, &calib);

    let mut cfg = ServeConfig::default();
    cfg.max_batch = 8;
    cfg.max_wait = Duration::from_millis(20);
    cfg.queue_cap = 256;
    let server = Server::start(cfg, vec![Box::new(QuantBackend::new("q0", qnet))]).expect("start");
    let handle = server.handle();

    let (eval, labels) = test.gather(&(0..EVAL_BATCH).collect::<Vec<_>>());
    assert_eq!(labels.len(), EVAL_BATCH);

    // Burst-submit so the scheduler actually coalesces batches, then check
    // every answer against the direct quantized forward (bit-exact) and
    // the f32 oracle (explicit tolerance).
    let tickets: Vec<_> = (0..EVAL_BATCH)
        .map(|i| handle.submit(row(&eval, i)).expect("submit"))
        .collect();
    let mut served_rows: Vec<f32> = Vec::with_capacity(EVAL_BATCH * 10);
    let mut f32_rows: Vec<f32> = Vec::with_capacity(EVAL_BATCH * 10);
    for (i, t) in tickets.into_iter().enumerate() {
        let x = row(&eval, i);
        let got = t.wait().expect("served");
        let want_q = direct.forward(&x);
        assert!(
            want_q.allclose(&got, 0.0),
            "request {i}: served int8 logits differ from direct QuantizedNet forward \
             (max abs diff {})",
            want_q.max_abs_diff(&got)
        );
        let want_f32 = model.net_mut().forward_subnet(&x, &spec, false);
        let scale = want_f32
            .data()
            .iter()
            .fold(0f32, |m, v| m.max(v.abs()))
            .max(1.0);
        assert!(
            want_f32.max_abs_diff(&got) <= 0.10 * scale,
            "request {i}: int8 logits drifted from the f32 oracle by {} (scale {scale})",
            want_f32.max_abs_diff(&got)
        );
        served_rows.extend_from_slice(got.data());
        f32_rows.extend_from_slice(want_f32.data());
    }
    let m = server.shutdown();
    assert_eq!(m.completed, EVAL_BATCH as u64);
    assert!(
        m.mean_batch_requests > 1.0,
        "no batching happened: {} requests in {} batches",
        m.completed,
        m.batches
    );

    // Trained weights separate the classes, so quantization must not flip
    // top-1 decisions on held-out data.
    let served = Tensor::from_vec(served_rows, &[EVAL_BATCH, 10]);
    let oracle = Tensor::from_vec(f32_rows, &[EVAL_BATCH, 10]);
    let agreement = top1_agreement(&oracle, &served);
    assert!(
        agreement >= 0.95,
        "top-1 agreement between f32 and served int8 fell to {agreement}"
    );
}

#[test]
fn int8_calibration_keeps_top1_decisions() {
    let (mut model, _) = quick_trained_fluid(41);
    let spec = model.spec("combined100").expect("spec").clone();
    let batch = calibration_batch();
    let calib = calibrate(model.net_mut(), &spec, &batch);
    let mut qnet = QuantizedNet::from_net(model.net(), &spec, &calib);
    let f32_logits = model.net_mut().forward_subnet(&batch, &spec, false);
    let agreement = top1_agreement(&f32_logits, &qnet.forward(&batch));
    assert!(
        agreement >= 0.99,
        "int8 top-1 agreement with f32 on the calibration batch fell to {agreement} \
         (gate: 0.99); a quantization regression"
    );
}
