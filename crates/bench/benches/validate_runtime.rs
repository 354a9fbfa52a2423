//! Validates the performance model's latency composition against the real
//! runtime: the HA round-trip over a link whose every send is delayed (a
//! `FaultPlan` with `delay_p: 1.0`) must cost ≈ (injected send latencies)
//! more than the same round-trip with a zero delay.
//!
//! This checks the *additivity assumption* the Fig. 2 reproduction rests on
//! (system latency = compute + communication), independently of how fast
//! this host's compute is.
//!
//! Run with `cargo bench -p fluid-bench --bench validate_runtime`.

use fluid_dist::{
    extract_branch_weights, FaultPlan, FaultSpec, InProcTransport, Master, MasterConfig, Worker,
};
use fluid_models::{Arch, FluidModel};
use fluid_tensor::{Prng, Tensor};
use std::time::{Duration, Instant};

fn measure_ha_latency(delay: Duration, images: usize) -> Duration {
    let arch = Arch::paper();
    let model = FluidModel::new(arch.clone(), &mut Prng::new(1));
    let (master_side, worker_side) = InProcTransport::pair();
    let worker_arch = arch.clone();
    let handle = std::thread::spawn(move || {
        let _ = Worker::new(worker_side, worker_arch, "w").run();
    });

    let lower = model.spec("lower50").expect("spec").branches[0].clone();
    let upper = model.spec("combined100").expect("spec").branches[1].clone();
    let windows = extract_branch_weights(model.net(), &upper);
    let x = Tensor::from_fn(&[1, 1, 28, 28], |i| ((i % 19) as f32) / 19.0);

    // Every send draws `Fate::Delay`: sleep `delay`, then deliver.
    let spec = FaultSpec {
        delay_p: 1.0,
        delay,
        ..FaultSpec::default()
    };
    let transport = FaultPlan::new(spec, 0).link("master->w").wrap(master_side);
    let mut master = Master::new(transport, model.net().clone(), MasterConfig::default());
    master.await_hello().expect("hello");
    master.deploy_local(lower);
    master.deploy_remote(upper, windows).expect("deploy");
    let t0 = Instant::now();
    for _ in 0..images {
        let _ = master.infer_ha(&x).expect("HA");
    }
    let elapsed = t0.elapsed();
    master.shutdown_worker();
    handle.join().expect("worker");
    elapsed / images as u32
}

fn main() {
    let images = 60;
    println!("Latency-composition validation ({images} HA inferences per point)\n");
    let base = measure_ha_latency(Duration::ZERO, images);
    println!(
        "{:>14} {:>14} {:>14} {:>12}",
        "injected/msg", "measured", "expected", "error"
    );
    let mut worst = 0.0f64;
    for ms in [2u64, 5, 10] {
        let injected = Duration::from_millis(ms);
        let measured = measure_ha_latency(injected, images);
        // HA sends one Infer per image through the delayed link (the reply
        // path is the worker's undelayed side), so expected ≈ base + 1×lat.
        let expected = base + injected;
        let err = (measured.as_secs_f64() - expected.as_secs_f64()).abs() / expected.as_secs_f64();
        worst = worst.max(err);
        println!(
            "{:>12}ms {:>11.2}ms {:>11.2}ms {:>11.1}%",
            ms,
            measured.as_secs_f64() * 1e3,
            expected.as_secs_f64() * 1e3,
            err * 100.0
        );
    }
    assert!(
        worst < 0.35,
        "latency composition error {worst:.2} exceeds tolerance"
    );
    println!(
        "\nvalidate_runtime: compute+comm additivity holds (worst error {:.0}%)",
        worst * 100.0
    );
}
