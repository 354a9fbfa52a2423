//! Scale-out: one Master coordinating three Workers (four devices total),
//! each serving one block of a 4-block fluid model — over real TCP.
//!
//! Run with `cargo run --release -p fluid-examples --bin scale_out`.

use fluid_core::training::{train_nested, NestedSchedule, TrainConfig};
use fluid_data::SynthDigits;
use fluid_dist::{extract_branch_weights, Master, MasterConfig, Mode, TcpTransport, Worker};
use fluid_models::{Arch, BranchSpec, FluidModel};
use fluid_nn::accuracy;
use fluid_tensor::{Prng, Tensor};
use std::net::{TcpListener, TcpStream};

fn main() {
    println!("=== Four-device scale-out (1 master + 3 TCP workers) ===\n");

    let arch = Arch::paper();
    let (train, test) = SynthDigits::new(4).train_test(1500, 400);
    let mut model = FluidModel::blocks(arch.clone(), 4, &mut Prng::new(0));
    println!("training a 4-block fluid model with Algorithm 1...");
    let cfg = TrainConfig::default();
    let _ = train_nested(&mut model, &train, &cfg, &NestedSchedule::blocks(4, 2));

    // Spin up three workers.
    let mut transports = Vec::new();
    let mut handles = Vec::new();
    for i in 0..3 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let worker_arch = arch.clone();
        handles.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let t = TcpTransport::new(stream).expect("transport");
            let _ = Worker::new(t, worker_arch, &format!("worker-{i}")).run();
        }));
        let t = TcpTransport::new(TcpStream::connect(addr).expect("connect")).expect("transport");
        transports.push(t);
    }

    let mut master = Master::with_workers(transports, model.net().clone(), MasterConfig::default());
    let names = master.await_hellos().expect("worker hellos");
    println!("connected workers: {names:?}\n");

    // Deploy: master keeps block0 (bias owner); worker i gets `branches[i]`.
    let deploy = |master: &mut Master<TcpTransport>, branches: &[BranchSpec]| {
        for (i, branch) in branches.iter().enumerate() {
            let windows = extract_branch_weights(model.net(), branch);
            let deployed = master.deploy_to(i, branch.clone(), windows);
            deployed.expect("deploy block");
        }
    };
    let combined = model.spec("combined4").expect("spec").clone();
    master.deploy_local(combined.branches[0].clone());
    deploy(&mut master, &combined.branches[1..]);
    println!("deployed blocks 1-3 to the workers\n");

    // HA across four devices: every device computes a partial; the master
    // folds them. Verify against single-device execution.
    let n_eval = 100.min(test.len());
    let mut correct = 0.0f32;
    for i in 0..n_eval {
        let (x, labels) = test.gather(&[i]);
        let logits = master.infer_ha(&x).expect("HA across 4 devices");
        correct += accuracy(&logits, &labels);
    }
    println!(
        "HA (combined4) accuracy over {n_eval} images: {:.1}%",
        correct / n_eval as f32 * 100.0
    );

    // HT: four independent streams (blocks run standalone — redeploy with
    // their own bias).
    let standalone = |i| model.spec(&format!("block{i}")).expect("spec").branches[0].clone();
    deploy(&mut master, &[standalone(1), standalone(2), standalone(3)]);
    master
        .switch_mode(Mode::HighThroughput)
        .expect("mode switch");
    let xs: Vec<Tensor> = (0..4).map(|k| test.gather(&[k]).0).collect();
    let results = master.infer_streams(&xs).expect("HT across 4 devices");
    let served = results.iter().filter(|r| r.is_some()).count();
    println!("HT: {served}/4 independent streams served in one round");
    println!("alive workers: {}/3", master.alive_workers());

    master.shutdown_worker();
    for h in handles {
        let _ = h.join();
    }
    println!("\nThe N-block generalisation is the paper's 'applicable to any number'");
    println!("claim made concrete: capacity and reliability scale with device count.");
}
