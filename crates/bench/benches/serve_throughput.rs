//! Serving-layer throughput: what micro-batching buys over
//! request-at-a-time serving.
//!
//! Each row pushes one 16-request burst through a live one-worker server
//! and waits for every answer, so the timed unit is the burst's makespan.
//! The `max_batch` sweep runs on identical hardware with batching off (1)
//! and on (4, 16); the last row is the no-scheduler floor, one
//! `[16, 1, 28, 28]` forward on a bare engine.
//!
//! Run with `cargo bench -p fluid-bench --bench serve_throughput`.

use fluid_bench::median_ms;
use fluid_models::{Arch, FluidModel};
use fluid_serve::{Backend, EngineBackend, ServeConfig, Server};
use fluid_tensor::{Prng, Tensor};
use std::hint::black_box;
use std::time::Duration;

const BURST: usize = 16;
const WARMUP: usize = 5;
const REPS: usize = 51;

fn engine(name: &str) -> EngineBackend {
    let model = FluidModel::new(Arch::paper(), &mut Prng::new(0));
    EngineBackend::new(
        name,
        model.net().clone(),
        model.spec("combined100").expect("spec").clone(),
    )
}

fn print_row(label: &str, ms: f64) {
    println!(
        "{label:<28} {ms:>9.3} {:>12.1} {:>10.0}",
        ms * 1e3 / BURST as f64,
        BURST as f64 / (ms / 1e3)
    );
}

fn main() {
    let mut rng = Prng::new(7);
    let xs: Vec<Tensor> = (0..BURST)
        .map(|_| Tensor::from_fn(&[1, 1, 28, 28], |_| rng.uniform(0.0, 1.0)))
        .collect();
    println!("Serving throughput: one {BURST}-request burst, 1 worker (median of {REPS})\n");
    println!(
        "{:<28} {:>9} {:>12} {:>10}",
        "configuration", "burst ms", "us/request", "req/s"
    );

    for max_batch in [1usize, 4, 16] {
        let mut cfg = ServeConfig::default();
        cfg.max_batch = max_batch;
        cfg.max_wait = Duration::from_millis(1);
        cfg.queue_cap = 256;
        let server = Server::start(cfg, vec![Box::new(engine("engine0"))]).expect("start");
        let handle = server.handle();
        let ms = median_ms(WARMUP, REPS, || {
            let tickets: Vec<_> = xs
                .iter()
                .map(|x| handle.submit(x.clone()).expect("submit"))
                .collect();
            for t in tickets {
                black_box(t.wait().expect("served"));
            }
        });
        server.shutdown();
        print_row(&format!("max_batch={max_batch}"), ms);
    }

    let mut bare = engine("bare");
    let batch = Tensor::from_fn(&[BURST, 1, 28, 28], |_| rng.uniform(0.0, 1.0));
    let ms = median_ms(WARMUP, REPS, || {
        let out = bare.infer_batch(&batch).expect("infer");
        bare.recycle_output(black_box(out));
    });
    print_row("direct engine (no scheduler)", ms);
}
