//! Training-step cost per sub-network: one forward + backward + masked
//! SGD step at batch 16, the unit of Algorithm 1's inner loop.
//!
//! Each sub-network is timed at one kernel thread and at
//! `available_parallelism` threads, and the ratio of the two times is
//! printed: below 1, the kernel pool's intra-op fan-out pays on this host.
//!
//! Run with `cargo bench -p fluid-bench --bench training_step`.

use fluid_bench::median_ms;
use fluid_models::{Arch, FluidModel, SubnetSpec};
use fluid_nn::{softmax_cross_entropy_ws, Optimizer, Sgd};
use fluid_tensor::{pool, Prng, Tensor};

const WARMUP: usize = 3;
const REPS: usize = 21;

/// One full training step through the workspace-arena hot path: the loss
/// gradient is drawn from (and the logits recycled into) the executor's
/// arena.
fn train_step(
    model: &mut FluidModel,
    spec: &SubnetSpec,
    x: &Tensor,
    labels: &[usize],
    opt: &mut Sgd,
) {
    let net = model.net_mut();
    net.zero_grad();
    let logits = net.forward_subnet(x, spec, true);
    let (_, grad) = softmax_cross_entropy_ws(&logits, labels, net.workspace_mut());
    net.recycle(logits);
    net.backward_subnet(&grad, spec);
    net.recycle(grad);
    let mut params = net.param_set();
    opt.step(&mut params);
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut model = FluidModel::new(Arch::paper(), &mut Prng::new(0));
    let mut rng = Prng::new(1);
    let x = Tensor::from_fn(&[16, 1, 28, 28], |_| rng.uniform(0.0, 1.0));
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let specs = model.specs().to_vec();

    println!("Training step, batch 16 (median of {REPS}; {cores} visible cores)\n");
    println!(
        "{:<12} {:>9} {:>9} {:>9}",
        "sub-network",
        "t1 ms",
        format!("t{cores} ms"),
        format!("t{cores}/t1")
    );
    for spec in &specs {
        let mut time_at = |threads: usize| {
            pool::set_threads(threads);
            median_ms(WARMUP, REPS, || {
                train_step(&mut model, spec, &x, &labels, &mut opt)
            })
        };
        let t1 = time_at(1);
        let tn = time_at(cores);
        println!("{:<12} {t1:>9.3} {tn:>9.3} {:>9.2}", spec.name, tn / t1);
    }
}
