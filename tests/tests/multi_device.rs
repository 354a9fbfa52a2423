//! N-device scale-out: Algorithm 1 over a 4-block model plus one Master
//! with three workers over real TCP.

use fluid_core::training::{train_nested, NestedSchedule, TrainConfig};
use fluid_core::Experiment;
use fluid_data::SynthDigits;
use fluid_dist::{extract_branch_weights, Master, MasterConfig, TcpTransport, Worker};
use fluid_models::{Arch, FluidModel};
use fluid_tensor::Prng;
use std::net::{TcpListener, TcpStream};

fn trained_four_block() -> (FluidModel, fluid_data::Dataset) {
    let (train, test) = SynthDigits::new(81).train_test(1000, 150);
    let mut model = FluidModel::blocks(Arch::paper(), 4, &mut Prng::new(2));
    let cfg = TrainConfig {
        epochs_per_phase: 1,
        seed: 81,
        ..TrainConfig::default()
    };
    let _ = train_nested(&mut model, &train, &cfg, &NestedSchedule::blocks(4, 2));
    (model, test)
}

#[test]
fn four_device_tcp_ha_matches_local_combined() {
    let (model, test) = trained_four_block();
    let arch = model.net().arch().clone();

    let mut transports = Vec::new();
    let mut handles = Vec::new();
    for i in 0..3 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let worker_arch = arch.clone();
        handles.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let t = TcpTransport::new(stream).expect("transport");
            let _ = Worker::new(t, worker_arch, &format!("w{i}")).run();
        }));
        transports.push(TcpTransport::new(TcpStream::connect(addr).expect("connect")).expect("t"));
    }

    let mut master = Master::with_workers(transports, model.net().clone(), MasterConfig::default());
    master.await_hellos().expect("hellos");
    let combined = model.spec("combined4").expect("spec").clone();
    master.deploy_local(combined.branches[0].clone());
    for i in 0..3 {
        let branch = combined.branches[i + 1].clone();
        let windows = extract_branch_weights(model.net(), &branch);
        master.deploy_to(i, branch, windows).expect("deploy");
    }

    let (x, _) = test.gather(&[0, 1]);
    let distributed = master.infer_ha(&x).expect("HA");
    let mut reference = model.net().clone();
    let expected = reference.forward_subnet(&x, &combined, false);
    assert!(
        distributed.allclose(&expected, 1e-4),
        "4-device TCP HA diverges by {}",
        distributed.max_abs_diff(&expected)
    );
    master.shutdown_worker();
    for h in handles {
        h.join().expect("worker");
    }
}

#[test]
fn trained_blocks_classify_above_chance() {
    let (mut model, test) = trained_four_block();
    let names = ["block0", "block1", "block2", "block3", "combined4"];
    for (name, floor) in names.into_iter().zip([0.2, 0.2, 0.2, 0.2, 0.5]) {
        let spec = model.spec(name).expect("spec").clone();
        let acc = Experiment::evaluate_subnet(model.net_mut(), &spec, &test);
        assert!(acc > floor, "{name} accuracy {acc}");
    }
}
